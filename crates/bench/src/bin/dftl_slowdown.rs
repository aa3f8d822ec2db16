//! Reproduces the **§3.1 claim**: DFTL (demand-cached page mapping) is up to
//! 3.7× slower than pure page-level mapping under TPC-C and TPC-B because of
//! translation-page traffic.
//!
//! Usage: `cargo run --release -p noftl-bench --bin dftl_slowdown [--full]`
//! (the trace recording honours the `NOFTL_*` knobs)

use noftl_bench::dftl_slowdown::{render_table, run_dftl_slowdown};
use noftl_bench::setup::Scale;
use storage_engine::backend::Knobs;

fn main() {
    let scale = if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    eprintln!("recording traces and replaying against page-mapping and DFTL ({scale:?})...");
    // Device RAM big enough for ~0.5 % of the mapping table — the regime the
    // paper targets.
    let rows = run_dftl_slowdown(scale, 0.005, &Knobs::from_env());
    println!("{}", render_table(&rows));
}
