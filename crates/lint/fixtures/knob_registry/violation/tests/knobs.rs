//! Violation fixture test: tests build knob values instead of mutating the
//! process environment.

#[test]
fn batch_on() {
    // Rule 1 violation: a test setting a knob in the environment.
    std::env::set_var("NOFTL_BATCH", "on");
}
