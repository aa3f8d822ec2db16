//! Metrics from repetitions: the end-to-end set (untraced runs) and the
//! per-layer set (counters plus the spans of a traced run).

use std::collections::BTreeMap;

use crate::rep::{Rep, Virtual, WorkloadKind};
use crate::trace::{Op, Span, NO_PARENT};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of raw samples (the smallest sample with at
/// least a `q` share of the samples at or below it), and how many samples
/// lie above it.
pub fn percentile(sorted: &[u64], q: f64) -> (u64, usize) {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let above = sorted.len() - sorted.partition_point(|&s| s <= value);
    (value, above)
}

pub fn host_us_per_txn(rep: &Rep) -> f64 {
    rep.window_host_s * 1e6 / rep.virt.samples_ns.len().max(1) as f64
}

/// Median host time per transaction over repetitions.
pub fn median_host_us_per_txn(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(host_us_per_txn).collect::<Vec<_>>())
}

/// Host pages written plus the pages GC or merges copied, over host pages
/// written; 1 when nothing was written (nothing was amplified).
pub fn write_amp<'a>(virts: impl IntoIterator<Item = &'a Virtual>) -> f64 {
    let (mut host, mut copies) = (0, 0);
    for v in virts {
        let c = &v.counters;
        host += c.get("noftl.host_writes") + c.get("ftl.host_writes");
        copies += c.get("noftl.gc_page_copies") + c.get("ftl.gc_page_copies");
    }
    if host == 0 {
        1.0
    } else {
        (host + copies) as f64 / host as f64
    }
}

pub fn erases_per_ktxn(v: &Virtual) -> f64 {
    v.counters.get("nand.erases") as f64 * 1e3 / v.samples_ns.len().max(1) as f64
}

/// The measured windows of `reps` taken together: sorted response times
/// and transactions per virtual second.
pub fn pooled(reps: &[Rep]) -> (Vec<u64>, f64) {
    let mut sorted: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.virt.samples_ns.iter().copied())
        .collect();
    sorted.sort_unstable();
    let duration_ns: u64 = reps.iter().map(|r| r.virt.duration_ns).sum();
    let vtps = sorted.len() as f64 / (duration_ns.max(1) as f64 / 1e9);
    (sorted, vtps)
}

/// The latency percentiles with their sample counts, for the text report.
pub fn latency_lines(sorted: &[u64]) -> Vec<String> {
    [
        ("vlat_p50_ms", 0.5),
        ("vlat_p99_ms", 0.99),
        ("vlat_p999_ms", 0.999),
    ]
    .iter()
    .map(|&(name, q)| {
        let (value, above) = percentile(sorted, q);
        format!(
            "{name} = {} ms (n = {}, {above} samples above)",
            value as f64 / 1e6,
            sorted.len()
        )
    })
    .collect()
}

/// The end-to-end metrics: virtual ones over the pooled repetitions of
/// one seed, set-up time as the median over all untraced repetitions.
///
/// Host time per transaction is not among them: on a shared machine it
/// moves by 15–25% between runs minutes apart, more than any bound can
/// absorb.  It is a per-layer metric instead.
pub fn end_to_end(pool: &[Rep], all: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let (sorted, vtps) = pooled(pool);
    let ms = |q| percentile(&sorted, q).0 as f64 / 1e6;
    let setup: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
    vec![
        metric("vtps", vtps, "1/s"),
        metric("vlat_p50_ms", ms(0.5), "ms"),
        metric("vlat_p99_ms", ms(0.99), "ms"),
        metric("vlat_p999_ms", ms(0.999), "ms"),
        metric(
            "write_amp",
            write_amp(pool.iter().map(|r| &r.virt)),
            "ratio",
        ),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

#[derive(Default, Clone, Copy)]
struct OpTotals {
    calls: u64,
    pages: u64,
    host_ns: u64,
    self_ns: u64,
    v_ns: u64,
}

/// Per-operation totals of a span list; self time is a span's host time
/// minus that of its direct children.
fn totals(spans: &[Span]) -> BTreeMap<Op, OpTotals> {
    let dur = |s: &Span| s.host_end - s.host_start;
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += dur(s);
        }
    }
    let mut out: BTreeMap<Op, OpTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.op).or_default();
        t.calls += 1;
        t.pages += s.pages as u64;
        t.host_ns += dur(s);
        t.self_ns += dur(s).saturating_sub(children);
        t.v_ns += s.v_end - s.v_start;
    }
    out
}

/// The per-layer metrics: counters of the window from `untraced[0]`, span
/// splits from `traced[0]`, and the tracing overhead as the difference of
/// the median host time per transaction.
pub fn per_layer(untraced: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let v = &untraced[0].virt;
    let c = &v.counters;
    let spans = &traced[0].spans;
    let txns = v.samples_ns.len().max(1) as f64;
    let ops = totals(spans);
    let get = |op| ops.get(&op).copied().unwrap_or_default();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut out = Vec::new();

    for op in [
        Op::IndexGet,
        Op::IndexInsert,
        Op::IndexRange,
        Op::Read,
        Op::Insert,
        Op::Update,
        Op::Delete,
        Op::Commit,
    ] {
        let t = get(op);
        let n = op.name();
        out.push(metric(format!("{n}.calls"), t.calls as f64, "count"));
        out.push(metric(
            format!("{n}.host_ns"),
            t.host_ns as f64 / txns,
            "ns/txn",
        ));
        out.push(metric(
            format!("{n}.self_host_ns"),
            t.self_ns as f64 / txns,
            "ns/txn",
        ));
        out.push(metric(
            format!("{n}.v_us"),
            ratio(t.v_ns, t.calls) / 1e3,
            "us",
        ));
    }

    let (hits, misses) = (c.get("buffer.hits"), c.get("buffer.misses"));
    out.push(metric("buffer.hits", hits as f64, "count"));
    out.push(metric("buffer.misses", misses as f64, "count"));
    out.push(metric(
        "buffer.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    for name in [
        "buffer.evictions",
        "buffer.dirty_evictions",
        "readahead.issued",
    ] {
        out.push(metric(name, c.get(name) as f64, "count"));
    }
    out.push(metric(
        "readahead.useful_ratio",
        ratio(c.get("readahead.useful"), c.get("readahead.issued")),
        "ratio",
    ));
    for name in [
        "readahead.wasted",
        "wal.forces",
        "wal.log_writes",
        "flusher.cycles",
        "flusher.pages",
        "flusher.batch_submissions",
    ] {
        out.push(metric(name, c.get(name) as f64, "count"));
    }
    let flush = get(Op::Flush);
    out.push(metric(
        "flusher.host_ns",
        flush.host_ns as f64 / txns,
        "ns/txn",
    ));
    out.push(metric(
        "flusher.v_stall_us",
        flush.v_ns as f64 / txns / 1e3,
        "us/txn",
    ));

    for op in [
        Op::ReadPage,
        Op::ReadPages,
        Op::WritePage,
        Op::WritePageInRegion,
        Op::WritePages,
        Op::FreePageHint,
    ] {
        let t = get(op);
        let n = op.name();
        out.push(metric(format!("{n}.calls"), t.calls as f64, "count"));
        out.push(metric(format!("{n}.pages"), t.pages as f64, "count"));
        out.push(metric(
            format!("{n}.host_ns_per_page"),
            ratio(t.host_ns, t.pages),
            "ns",
        ));
        out.push(metric(
            format!("{n}.v_us"),
            ratio(t.v_ns, t.calls) / 1e3,
            "us",
        ));
    }

    for name in [
        "noftl.gc_page_copies",
        "noftl.gc_erases",
        "noftl.gc_stalls",
        "noftl.gc_dead_skipped",
        "noftl.wear_migrations",
        "ftl.gc_page_copies",
        "ftl.gc_erases",
        "ftl.full_merges",
        "ftl.partial_merges",
        "ftl.switch_merges",
        "ftl.translation_reads",
        "ftl.gc_stalls",
        "nand.reads",
        "nand.programs",
        "nand.erases",
        "nand.copybacks",
        "nand.multi_page_dispatches",
        "nand.multi_page_read_dispatches",
        "nand.queued_submissions",
        "nand.queue_gated_submissions",
        "nand.read_stalls",
    ] {
        out.push(metric(name, c.get(name) as f64, "count"));
    }
    out.push(metric("nand.read_us_p99", v.read_us_p99 as f64, "us"));
    out.push(metric("nand.program_us_p99", v.program_us_p99 as f64, "us"));
    out.push(metric("nand.util_start_pct", v.util_start * 100.0, "%"));
    out.push(metric("nand.util_end_pct", v.util_end * 100.0, "%"));
    out.push(metric("erases_per_ktxn", erases_per_ktxn(v), "1/ktxn"));
    out.push(metric("vlat.samples", v.samples_ns.len() as f64, "count"));

    let txn = get(Op::Txn);
    out.push(metric(
        "workloads.self_host_ns_per_txn",
        txn.self_ns as f64 / txns,
        "ns/txn",
    ));
    let plain = median_host_us_per_txn(untraced);
    let timed = median_host_us_per_txn(traced);
    out.push(metric("host_us_per_txn", plain, "us"));
    out.push(metric(
        "trace.overhead_pct",
        (timed - plain) / plain * 100.0,
        "%",
    ));
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.host_end - s.host_start)
        .sum();
    out.push(metric(
        "trace.accounted_pct",
        root_ns as f64 / (traced[0].window_host_s * 1e9) * 100.0,
        "%",
    ));
    out
}

/// The guards each workload's window must pass, beyond the table and
/// commit checks every repetition runs.
pub fn workload_guards(workload: WorkloadKind, v: &Virtual) -> Vec<String> {
    let c = &v.counters;
    let mut errors = Vec::new();
    match workload {
        WorkloadKind::TpccNoftl => {
            if c.get("nand.erases") < v.device_blocks {
                errors.push(format!(
                    "NoFTL GC not at steady state: {} erases in the window, device has {} blocks",
                    c.get("nand.erases"),
                    v.device_blocks
                ));
            }
        }
        WorkloadKind::TpccFaster => {
            let merges =
                c.get("ftl.full_merges") + c.get("ftl.partial_merges") + c.get("ftl.switch_merges");
            if merges == 0 {
                errors.push("FASTer did no merges in the window".into());
            }
        }
        WorkloadKind::Readmix8c => {
            // Read-only commits still force commit records to the WAL, so
            // the only programs allowed are log pages.
            let data_programs =
                c.get("nand.programs") - c.get("wal.log_writes").min(c.get("nand.programs"));
            if data_programs != 0 || c.get("nand.erases") != 0 || c.get("flusher.pages") != 0 {
                errors.push(format!(
                    "read-only mix wrote data: {data_programs} non-log programs, {} erases, {} flushed pages",
                    c.get("nand.erases"),
                    c.get("flusher.pages")
                ));
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_samples() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), (500, 500));
        assert_eq!(percentile(&sorted, 0.99), (990, 10));
        assert_eq!(percentile(&sorted, 0.999), (999, 1));
        assert_eq!(percentile(&[7], 0.999), (7, 0));
        assert_eq!(percentile(&[5, 5, 5, 9], 0.5), (5, 1));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
