//! Self-run test: the linter must come up clean on the real workspace, and
//! its latch-order analysis must demonstrably cover the concurrent engine's
//! lock sites — otherwise a "no findings" result proves nothing.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn real_workspace_is_lint_clean() {
    let report = noftl_lint::run(&workspace_root(), None);
    assert!(
        report.diagnostics.is_empty(),
        "the workspace has lint findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn latch_pass_covers_the_concurrent_engine() {
    let report = noftl_lint::run(&workspace_root(), None);
    let latch = &report.latch;

    // The engine has one lock: the mutex around the shared StorageEngine,
    // which the engine handle and every client session hold through an
    // `Arc<Mutex<_>>` field.  Nothing else in the crate is a lock.
    let locks: Vec<(&str, bool)> = latch.locks.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(
        locks,
        vec![("ClientSession.engine", false), ("ConcurrentEngine.engine", false)],
        "locks = {:?}",
        latch.locks
    );

    // Every acquisition site is in the file that owns the handles: 16
    // accessors plus the two `EngineOps` impls, one lock per operation.
    let sites_in = |file: &str| {
        latch
            .sites
            .iter()
            .filter(|s| s.file == format!("crates/storage-engine/src/{file}"))
            .count()
    };
    assert_eq!(sites_in("concurrent.rs"), 58, "sites: {:?}", latch.sites);
    assert_eq!(latch.sites.len(), sites_in("concurrent.rs"));

    // Each handle's operations reach its lock.
    for (owner, lock) in [
        ("ClientSession", "ClientSession.engine"),
        ("ConcurrentEngine", "ConcurrentEngine.engine"),
    ] {
        for op in ["begin", "commit", "insert", "scan", "maybe_flush", "checkpoint", "quiesce"] {
            let acquires = latch
                .fn_acquires
                .get(&format!("{owner}::{op}"))
                .unwrap_or_else(|| panic!("fn_acquires should cover {owner}::{op}"));
            assert!(acquires.contains(lock), "{owner}::{op} acquires {acquires:?}");
        }
    }

    // Lock, forward, unlock: no lock is held while another is taken, so
    // the order graph has no edges and cannot have a cycle.
    assert!(latch.edges.is_empty(), "edges: {:?}", latch.edges);
    assert!(latch.cycles.is_empty(), "cycles: {:?}", latch.cycles);
}

#[test]
fn knob_registry_matches_the_documented_knobs() {
    let report = noftl_lint::run(&workspace_root(), None);
    let knobs: Vec<&str> = report.knobs.knobs.keys().map(String::as_str).collect();
    assert_eq!(
        knobs,
        vec![
            "NOFTL_ASYNC",
            "NOFTL_BATCH",
            "NOFTL_BATCH_GLOBAL",
            "NOFTL_FAULTS",
            "NOFTL_READAHEAD",
            "NOFTL_REDUNDANCY",
            "NOFTL_SLO",
        ]
    );
    // One environment read in the workspace, inside `Knobs::from_env`.
    assert_eq!(report.knobs.env_reads.len(), 1);
    assert!(report.knobs.in_ci.values().all(|v| *v), "{:?}", report.knobs.in_ci);
    assert!(report.knobs.in_roadmap.values().all(|v| *v), "{:?}", report.knobs.in_roadmap);
}
