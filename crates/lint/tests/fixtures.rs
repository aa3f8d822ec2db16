//! Per-pass fixture tests: each pass runs over a `clean` mini-workspace
//! (expecting zero findings) and a `violation` mini-workspace seeded with
//! the exact defects the pass exists to catch (expecting file:line
//! diagnostics for every one of them).
//!
//! Fixture knob names that are deliberately *not* real workspace knobs are
//! built with `format!` so this test file's own string literals never trip
//! the knob-registry drift check when the linter runs over the real tree.

use std::collections::BTreeSet;
use std::path::PathBuf;

use noftl_lint::run;

fn fixture_root(pass_dir: &str, kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(pass_dir)
        .join(kind)
}

fn run_pass(pass_dir: &str, kind: &str, pass: &str) -> noftl_lint::LintReport {
    run(&fixture_root(pass_dir, kind), Some(&[pass.to_string()]))
}

fn lines_of(report: &noftl_lint::LintReport, pass: &str, file: &str) -> BTreeSet<usize> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.pass == pass && d.file == file)
        .map(|d| d.line)
        .collect()
}

// --- latch-order ---------------------------------------------------------

#[test]
fn latch_order_clean_fixture_has_no_findings() {
    let report = run_pass("latch_order", "clean", "latch-order");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
    assert!(report.latch.cycles.is_empty());
    // Coverage: the scanner saw the locks and the consistent edges.
    assert!(report.latch.locks.contains_key("Shared.a"));
    assert!(report.latch.locks.contains_key("Shared.c"));
    assert_eq!(report.latch.locks.get("ShardedPool.shards"), Some(&true));
    assert!(report
        .latch
        .edges
        .iter()
        .any(|e| e.from == "Shared.a" && e.to == "Shared.b"));
    // Inter-procedural: into_pool reaches the pool shards through with_shard.
    assert!(report
        .latch
        .edges
        .iter()
        .any(|e| e.from == "Shared.c" && e.to == "ShardedPool.shards"));
    // The block-scoped guard in `staged` must NOT produce an a -> b edge at
    // its own line; the only a -> b edge comes from `forward`.
    let ab: Vec<_> = report
        .latch
        .edges
        .iter()
        .filter(|e| e.from == "Shared.a" && e.to == "Shared.b")
        .collect();
    assert!(ab.iter().all(|e| e.line < 40), "staged leaked a guard: {ab:#?}");
    // A lock behind a shared handle (`Arc<Mutex<_>>`) is still a lock.
    assert_eq!(report.latch.locks.get("Handle.engine"), Some(&false));
    assert!(report
        .latch
        .fn_acquires
        .get("Handle::forward")
        .is_some_and(|a| a.contains("Handle.engine")));
}

#[test]
fn latch_order_violation_fixture_reports_cycles_and_reacquire() {
    let report = run_pass("latch_order", "violation", "latch-order");
    let file = "crates/storage-engine/src/engine.rs";

    // Three distinct cycles: the direct a/b inversion, the
    // inter-procedural c/d inversion, and the inversion of a with a lock
    // behind an `Arc`.
    assert_eq!(report.latch.cycles.len(), 3, "cycles: {:#?}", report.latch.cycles);
    let cycle_sets: Vec<BTreeSet<&str>> = report
        .latch
        .cycles
        .iter()
        .map(|c| c.iter().map(String::as_str).collect())
        .collect();
    assert!(cycle_sets.contains(&BTreeSet::from(["Shared.a", "Shared.b"])));
    assert!(cycle_sets.contains(&BTreeSet::from(["Shared.c", "Shared.d"])));
    assert!(cycle_sets.contains(&BTreeSet::from(["Handle.engine", "Shared.a"])));

    // The c/d cycle only exists through the call graph: outer -> helper ->
    // deep.  Prove the transitive may-acquire set captured it.
    let outer = report.latch.fn_acquires.get("Shared::outer").unwrap();
    assert!(outer.contains("Shared.c") && outer.contains("Shared.d"));

    // Each cycle surfaces as a diagnostic naming the chain, plus one
    // re-acquisition finding at the second self.a.lock() in `reentrant`.
    let cycle_diags: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("lock-order cycle"))
        .collect();
    assert_eq!(cycle_diags.len(), 3, "{:#?}", report.diagnostics);
    assert!(cycle_diags.iter().all(|d| d.file == file && d.line > 0));
    let reacquire: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("re-acquired"))
        .collect();
    assert_eq!(reacquire.len(), 1, "{:#?}", report.diagnostics);
    assert_eq!((reacquire[0].file.as_str(), reacquire[0].line), (file, 60));
}

// --- panic-path ----------------------------------------------------------

#[test]
fn panic_path_clean_fixture_has_no_findings() {
    let report = run_pass("panic_path", "clean", "panic-path");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
}

#[test]
fn panic_path_violation_fixture_flags_every_construct() {
    let report = run_pass("panic_path", "violation", "panic-path");
    let file = "crates/nand-flash/src/device.rs";
    // .unwrap(), .expect(, unreachable!, panic!, completion indexing, and
    // the drain_queues indexing whose reasonless allow must not suppress.
    assert_eq!(
        lines_of(&report, "panic-path", file),
        BTreeSet::from([5, 9, 16, 21, 25, 30])
    );
    // The reasonless directive is itself a finding.
    assert_eq!(lines_of(&report, "allow-policy", file), BTreeSet::from([29]));
}

// --- determinism ---------------------------------------------------------

#[test]
fn determinism_clean_fixture_has_no_findings() {
    let report = run_pass("determinism", "clean", "determinism");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
}

#[test]
fn determinism_violation_fixture_flags_every_source() {
    let report = run_pass("determinism", "violation", "determinism");
    let file = "crates/core/src/gc.rs";
    // HashMap/HashSet imports and fields, Instant::now, SystemTime,
    // thread_rng.
    assert_eq!(
        lines_of(&report, "determinism", file),
        BTreeSet::from([4, 5, 8, 9, 13, 17, 21])
    );
}

// --- knob-registry -------------------------------------------------------

#[test]
fn knob_registry_clean_fixture_has_no_findings() {
    let report = run_pass("knob_registry", "clean", "knob-registry");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
    // Registry derived from the fixture's central module, both knobs
    // covered everywhere.  (Fixture-only knob names are assembled at
    // runtime so this file's literals stay drift-clean.)
    let trace = format!("NOFTL_{}", "TRACE");
    let knobs: Vec<&String> = report.knobs.knobs.keys().collect();
    assert_eq!(knobs, vec!["NOFTL_BATCH", &trace]);
    assert!(report.knobs.in_ci.values().all(|v| *v));
    assert!(report.knobs.in_roadmap.values().all(|v| *v));
    // The one environment read, inside `Knobs::from_env`.
    assert_eq!(report.knobs.env_reads, vec![12]);
}

#[test]
fn knob_registry_violation_fixture_flags_all_four_rules() {
    let report = run_pass("knob_registry", "violation", "knob-registry");
    let central = "crates/storage-engine/src/backend.rs";
    let outside = "crates/nand-flash/src/faults.rs";
    let test = "tests/knobs.rs";
    let trace = format!("NOFTL_{}", "TRACE");
    let legacy = format!("NOFTL_{}", "LEGACY");
    let stale = format!("NOFTL_{}", "STALE");

    let find = |file: &str, line: usize| -> Vec<&str> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.file == file && d.line == line)
            .map(|d| d.message.as_str())
            .collect()
    };
    let env_access = |file: &str, line: usize| {
        find(file, line).iter().any(|m| m.contains("outside Knobs::from_env"))
    };

    // Rule 1: environment access outside `Knobs::from_env` — in another
    // crate, elsewhere in the central module, and in test code; the read
    // inside `from_env` is the one allowed.
    assert!(env_access(outside, 6));
    assert!(env_access(central, 19));
    assert!(env_access(test, 7));
    assert!(!env_access(central, 12));
    assert_eq!(report.knobs.env_reads, vec![12]);
    // Rule 2: registered knob missing from CI.
    assert!(find(central, 19).iter().any(|m| m.contains(&trace) && m.contains("CI")));
    // Rule 3: registered knob missing from the ROADMAP.
    assert!(find(central, 12).iter().any(|m| m.contains("NOFTL_BATCH") && m.contains("ROADMAP")));
    // Rule 4: drift in a source string and in the CI config.
    assert!(find(outside, 11).iter().any(|m| m.contains(&legacy)));
    assert!(find("ci.yml", 8).iter().any(|m| m.contains(&stale)));

    assert_eq!(report.diagnostics.len(), 7, "{:#?}", report.diagnostics);
}

// --- stats-reconciliation ------------------------------------------------

#[test]
fn stats_recon_clean_fixture_has_no_findings() {
    let report = run_pass("stats_recon", "clean", "stats-reconciliation");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
}

#[test]
fn stats_recon_violation_fixture_flags_unmaintained_counters() {
    let report = run_pass("stats_recon", "violation", "stats-reconciliation");
    let file = "crates/nand-flash/src/stats.rs";
    let msgs: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    assert!(msgs.iter().any(|m| m.contains("stale") && m.contains("never updated")));
    assert!(msgs.iter().any(|m| m.contains("stale") && m.contains("never asserted")));
    assert!(msgs.iter().any(|m| m.contains("unasserted") && m.contains("never asserted")));
    assert_eq!(report.diagnostics.len(), 3, "{:#?}", report.diagnostics);
    assert_eq!(lines_of(&report, "stats-reconciliation", file), BTreeSet::from([6, 7]));
}
