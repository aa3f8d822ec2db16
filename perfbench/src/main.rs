//! Two-clock benchmark of the NoFTL reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcc-noftl --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run repeats one workload (build, load, warm up, measure a fixed window
//! of transactions, check the tables) until `--seconds` have passed.  With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced repetitions and prints the per-layer
//! metrics.  The last line of standard output is one JSON object.  See
//! `perfbench/README.md` for the workloads and every metric.

mod rep;
mod report;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rep::{Plan, Rep, WorkloadKind};
use report::Metric;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: noftl-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: WorkloadKind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the run leaves its span dump and headline cache: next to the
/// executable, inside the build directory.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn write_spans(path: &PathBuf, spans: &[trace::Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id\top\tparent\ttxn\tpages\thost_start_ns\thost_end_ns\tv_start_ns\tv_end_ns"
    )?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == trace::NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{id}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op.name(),
            s.txn,
            s.pages,
            s.host_start,
            s.host_end,
            s.v_start,
            s.v_end
        )?;
    }
    w.flush()
}

/// Print the paper's headline ratio when both TPC-C stacks have run this
/// seed in this build directory.  Informational only.
fn headline(args: &Args, vtps: f64) {
    let cache =
        |w: WorkloadKind| out_dir().join(format!("vtps-{}-seed{}.txt", w.name(), args.seed));
    if std::fs::write(cache(args.workload), vtps.to_string()).is_err() {
        return;
    }
    let read = |w| {
        std::fs::read_to_string(cache(w))
            .ok()?
            .trim()
            .parse::<f64>()
            .ok()
    };
    if let (Some(noftl), Some(faster)) = (
        read(WorkloadKind::TpccNoftl),
        read(WorkloadKind::TpccFaster),
    ) {
        println!(
            "headline vtps(tpcc-noftl) / vtps(tpcc-faster) = {:.3}x (seed {}; paper: >= 2.4x)",
            noftl / faster,
            args.seed
        );
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Library constructors read environment knobs; a run must not depend on
    // the caller's environment.
    let knobs_set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NOFTL_"))
        .collect();
    if !knobs_set.is_empty() {
        eprintln!(
            "refusing to run with environment knobs set: {}",
            knobs_set.join(", ")
        );
        return ExitCode::from(2);
    }

    let plan = Plan::full(args.workload, args.seed);
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("knobs: {}", rep::knobs(&plan));

    // Untraced repetitions cycle through the pooled seeds until the budget
    // is spent; a traced run alternates untraced and traced repetitions of
    // the first pooled seed, so both measure the same transactions.
    let clock = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let pooled = if args.trace { 1 } else { plan.pooled };
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    // Peak memory is read once the pooled repetitions are done, so it covers
    // the same work however many repetitions the budget allows.
    let mut peak_rss = 0.0;
    while (untraced.len() as u64) < pooled || clock.elapsed() < budget {
        let j = untraced.len() as u64 % pooled;
        untraced.push(rep::run(&plan.repetition(j), false));
        if untraced.len() as u64 == pooled {
            peak_rss = peak_rss_mb();
        }
        if args.trace {
            let mut r = rep::run(&plan.repetition(0), true);
            if !traced.is_empty() {
                r.spans = Vec::new();
            }
            traced.push(r);
        }
    }

    for (i, r) in untraced.iter().enumerate() {
        println!(
            "repetition {i}: setup {:.3} s, window {:.3} s, {:.3} us/txn{}",
            r.setup_s,
            r.window_host_s,
            report::host_us_per_txn(r),
            traced.get(i).map_or(String::new(), |t| format!(
                ", traced {:.3} us/txn",
                report::host_us_per_txn(t)
            ))
        );
    }
    let pool = &untraced[..pooled as usize];
    let mut errors: Vec<String> = Vec::new();
    for (i, r) in untraced.iter().enumerate() {
        if r.virt != untraced[i % pooled as usize].virt {
            errors.push("virtual results differ between repetitions of one seed".into());
        }
    }
    for r in &traced {
        if r.virt != untraced[0].virt {
            errors.push("traced and untraced repetitions differ on the virtual clock".into());
        }
    }
    for r in untraced.iter().chain(&traced) {
        errors.extend(r.errors.iter().cloned());
        if r.failed != 0 {
            errors.push(format!(
                "{} of {} transactions failed",
                r.failed, r.attempted
            ));
        }
    }
    for r in pool {
        errors.extend(report::workload_guards(args.workload, &r.virt));
    }
    errors.sort();
    errors.dedup();

    let first = &untraced[0];
    let v = &first.virt;
    println!(
        "repetitions: {} untraced, {} traced; window {} transactions, {:.3} virtual s",
        untraced.len(),
        traced.len(),
        v.samples_ns.len(),
        v.duration_ns as f64 / 1e9
    );
    println!(
        "device utilisation: {:.2}% at window start, {:.2}% at window end",
        v.util_start * 100.0,
        v.util_end * 100.0
    );
    let (sorted, vtps) = report::pooled(pool);
    for line in report::latency_lines(&sorted) {
        println!("{line}");
    }
    println!("erases_per_ktxn = {} 1/ktxn", report::erases_per_ktxn(v));
    println!(
        "host_us_per_txn = {} us (median of {} untraced repetitions)",
        report::median_host_us_per_txn(&untraced),
        untraced.len()
    );
    let (attempted, failed): (u64, u64) = pool
        .iter()
        .map(|r| (r.attempted, r.failed))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    println!(
        "failed_frac = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );

    let metrics = if args.trace {
        let path = out_dir().join(format!("spans-{}.tsv", args.workload.name()));
        match write_spans(&path, &traced[0].spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                traced[0].spans.len(),
                path.display()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
        report::per_layer(&untraced, &traced)
    } else {
        if args.workload != WorkloadKind::Readmix8c {
            headline(&args, vtps);
        }
        report::end_to_end(pool, &untraced, peak_rss)
    };
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let correct = errors.is_empty();
    for e in &errors {
        println!("check failed: {e}");
    }
    println!("checks: {}", if correct { "passed" } else { "FAILED" });
    println!("{}", json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
