//! Reproduces the **headline throughput claim** of the paper (§1, §5): live
//! TPC-C and TPC-B runs on FASTer and DFTL SSDs versus NoFTL, reporting the
//! NoFTL speedup (paper: ≥ 2.4× for TPC-C, 2.25× for TPC-B).
//!
//! Usage: `cargo run --release -p noftl-bench --bin headline_throughput [--full]`
//! (honours the `NOFTL_*` knobs)

use noftl_bench::setup::{Benchmark, Scale};
use noftl_bench::throughput::{render_table, run_headline};
use storage_engine::backend::Knobs;

fn main() {
    let scale = if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    eprintln!("running TPC-C / TPC-B on faster, dftl and noftl stacks ({scale:?})...");
    let rows = run_headline(
        scale,
        &[Benchmark::TpcC, Benchmark::TpcB],
        &Knobs::from_env(),
    );
    println!("{}", render_table(&rows));
}
