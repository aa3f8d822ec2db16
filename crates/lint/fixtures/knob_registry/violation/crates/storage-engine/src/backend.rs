//! Violation fixture central knob module: registers two knobs; the
//! fixture CI misses NOFTL_TRACE and the fixture ROADMAP misses
//! NOFTL_BATCH.

pub struct Knobs {
    pub batch: bool,
}

impl Knobs {
    pub fn from_env() -> Self {
        Self {
            batch: matches!(std::env::var("NOFTL_BATCH").as_deref(), Ok("on")),
        }
    }
}

pub fn trace_enabled() -> bool {
    // Rule 1 violation: an environment read outside `Knobs::from_env`.
    matches!(std::env::var("NOFTL_TRACE").as_deref(), Ok("on"))
}
