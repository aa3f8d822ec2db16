//! Headline throughput comparison (§1, §3.1, §5 of the paper): live TPC-C and
//! TPC-B runs on the conventional FTL stacks (FASTer, DFTL) versus NoFTL.
//! The paper reports a NoFTL improvement of 2.4× (TPC-C) and 2.25× (TPC-B)
//! over the conventional stacks.

use noftl_core::FlusherAssignment;
use storage_engine::backend::Knobs;
use workloads::{BenchmarkDriver, DriverConfig};

use crate::gc_overhead::gc_workload;
use crate::setup::{
    build_engine_with_buffer, default_flushers, default_transactions, geometry_for_pages,
    Benchmark, Scale, Stack,
};

/// TPS of one (benchmark, stack) combination.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Storage stack name.
    pub stack: String,
    /// Transactions per virtual second.
    pub tps: f64,
    /// Mean response time (ms).
    pub response_ms: f64,
    /// 99th-percentile response time (ms).
    pub p99_ms: f64,
}

/// Run one benchmark on one stack.
pub fn run_stack(benchmark: Benchmark, stack: Stack, scale: Scale, knobs: &Knobs) -> ThroughputPoint {
    let mut workload = gc_workload(benchmark, scale);
    // The drive is a few times larger than the database (as in the paper's
    // 10 GB drives), and the buffer pool is a small fraction of the database
    // so the storage stack is on the critical path.
    let logical_pages = match scale {
        Scale::Quick => 24_000,
        Scale::Full => 120_000,
    };
    let geometry = geometry_for_pages(logical_pages, 0.85, 8);
    // NoFTL gets the Flash-aware flusher assignment; the FTL stacks cannot
    // (the block interface hides the layout), so they use the global scheme.
    let mut flushers = match stack {
        Stack::NoFtl => default_flushers(FlusherAssignment::DieWise, 8, knobs),
        _ => default_flushers(FlusherAssignment::Global, 8, knobs),
    };
    flushers.dirty_high_watermark = 0.3;
    flushers.dirty_low_watermark = 0.02;
    let mut engine = build_engine_with_buffer(stack, geometry, flushers, 512, knobs);
    let start = workload.setup(&mut engine, 0).expect("setup");
    let transactions = default_transactions(scale) * 2;
    let driver = BenchmarkDriver::new(DriverConfig::write_pressure(16, transactions));
    let report = driver
        .run(&mut engine, workload.as_mut(), start)
        .expect("driver run");
    ThroughputPoint {
        benchmark: benchmark.name().to_string(),
        stack: stack.name().to_string(),
        tps: report.tps,
        response_ms: report.mean_response_ms(),
        p99_ms: report.response_time.percentile(0.99) as f64 / 1e6,
    }
}

/// Run the headline comparison: each benchmark on FASTer, DFTL and NoFTL.
pub fn run_headline(scale: Scale, benchmarks: &[Benchmark], knobs: &Knobs) -> Vec<ThroughputPoint> {
    let mut rows = Vec::new();
    for &b in benchmarks {
        for stack in [Stack::Faster, Stack::Dftl, Stack::NoFtl] {
            rows.push(run_stack(b, stack, scale, knobs));
        }
    }
    rows
}

/// Speedup of NoFTL over the best conventional stack for `benchmark`.
pub fn noftl_speedup(rows: &[ThroughputPoint], benchmark: &str) -> Option<f64> {
    let noftl = rows
        .iter()
        .find(|r| r.benchmark == benchmark && r.stack == "noftl")?
        .tps;
    let best_ftl = rows
        .iter()
        .filter(|r| r.benchmark == benchmark && r.stack != "noftl")
        .map(|r| r.tps)
        .fold(f64::MIN, f64::max);
    (best_ftl > 0.0).then(|| noftl / best_ftl)
}

/// Render the comparison table.
pub fn render_table(rows: &[ThroughputPoint]) -> String {
    let mut out = String::new();
    out.push_str("Headline: transactional throughput per storage stack\n");
    out.push_str(&format!(
        "{:<8} {:<12} {:>12} {:>14} {:>12}\n",
        "bench", "stack", "TPS", "mean resp ms", "p99 resp ms"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<12} {:>12.1} {:>14.3} {:>12.3}\n",
            r.benchmark, r.stack, r.tps, r.response_ms, r.p99_ms
        ));
    }
    let benchmarks: Vec<String> = {
        let mut b: Vec<String> = rows.iter().map(|r| r.benchmark.clone()).collect();
        b.dedup();
        b
    };
    for b in benchmarks {
        if let Some(speedup) = noftl_speedup(rows, &b) {
            out.push_str(&format!(
                "{b}: NoFTL speedup over best FTL stack = {speedup:.2}x\n"
            ));
        }
    }
    out.push_str("(paper: >= 2.4x for TPC-C, 2.25x for TPC-B over conventional Flash storage)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noftl_beats_faster_on_tpcb_quick() {
        let knobs = Knobs::default();
        let rows = [run_stack(Benchmark::TpcB, Stack::Faster, Scale::Quick, &knobs),
            run_stack(Benchmark::TpcB, Stack::NoFtl, Scale::Quick, &knobs)];
        let faster = rows.iter().find(|r| r.stack == "ftl-faster").unwrap().tps;
        let noftl = rows.iter().find(|r| r.stack == "noftl").unwrap().tps;
        assert!(
            noftl > faster,
            "NoFTL ({noftl:.1} TPS) should outperform FASTer ({faster:.1} TPS)"
        );
    }

    #[test]
    fn speedup_helper_and_table() {
        let rows = vec![
            ThroughputPoint {
                benchmark: "TPC-C".into(),
                stack: "ftl-faster".into(),
                tps: 100.0,
                response_ms: 5.0,
                p99_ms: 20.0,
            },
            ThroughputPoint {
                benchmark: "TPC-C".into(),
                stack: "noftl".into(),
                tps: 240.0,
                response_ms: 2.0,
                p99_ms: 6.0,
            },
        ];
        assert!((noftl_speedup(&rows, "TPC-C").unwrap() - 2.4).abs() < 1e-9);
        let table = render_table(&rows);
        assert!(table.contains("2.40x"));
    }
}
