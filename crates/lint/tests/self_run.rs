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

    // All eight engine locks are discovered: the sharded pool (a lock
    // collection) plus the seven Shared fields — six in the documented
    // acquisition order plus the admission leaf (PR 9), which is only ever
    // acquired alone.
    assert_eq!(latch.locks.get("ShardedBufferPool.shards"), Some(&true));
    for field in ["admission", "backend", "catalog", "flushers", "fsm", "txns", "wal"] {
        assert_eq!(
            latch.locks.get(&format!("Shared.{field}")),
            Some(&false),
            "missing lock Shared.{field}; locks = {:?}",
            latch.locks
        );
    }
    assert_eq!(latch.locks.len(), 8, "locks = {:?}", latch.locks);

    // Acquisition sites in the two files that own the engine's locking.
    let sites_in = |file: &str| {
        latch
            .sites
            .iter()
            .filter(|s| s.file == format!("crates/storage-engine/src/{file}"))
            .count()
    };
    assert!(sites_in("concurrent.rs") >= 50, "sites: {}", sites_in("concurrent.rs"));
    assert!(sites_in("shard.rs") >= 10, "sites: {}", sites_in("shard.rs"));

    // Spot-check edges that pin down the documented order: catalog and
    // txns precede wal, and everything may reach the pool shards last.
    let has_edge = |from: &str, to: &str| latch.edges.iter().any(|e| e.from == from && e.to == to);
    assert!(has_edge("Shared.txns", "Shared.wal"));
    assert!(has_edge("Shared.catalog", "Shared.wal"));
    assert!(has_edge("Shared.backend", "ShardedBufferPool.shards"));
    assert!(has_edge("Shared.wal", "ShardedBufferPool.shards"));

    // Inter-procedural propagation: a pool view's page accessors reach the
    // shard latches through with_owner -> with_shard.
    let with_page = latch
        .fn_acquires
        .get("ShardedPoolView::with_page")
        .expect("fn_acquires should cover ShardedPoolView::with_page");
    assert!(with_page.contains("ShardedBufferPool.shards"));

    // And the documented order is in fact acyclic.
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
