//! Overload robustness (PR 9): admission-control edge cases and open-loop
//! storms.
//!
//! The commit-admission window (`EngineConfig::admission`) promises three
//! things under any pressure:
//!
//! 1. **No committed-data loss** — a shed request fails *before* anything is
//!    begun or logged, so the engine's committed count always reconciles
//!    exactly with what clients observed succeeding.
//! 2. **Truthful stats** — `admitted + delayed + shed` as counted by the
//!    engine matches the client-side view call for call.
//! 3. **No livelock** — degenerate configurations (window of 0 or 1, a
//!    deadline shorter than one WAL group) shed or admit; they never hang
//!    the virtual clock.
//!
//! The storm proptest sweeps seeds x arrival rates x session topologies
//! (1 single-threaded session and 8 sessions over the sharded concurrent
//! engine) and asserts all three.

use proptest::prelude::*;

use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{NoFtl, NoFtlConfig};
use noftl::storage_engine::backend::NoFtlBackend;
use noftl::storage_engine::{
    AdmissionConfig, ClientSession, ConcurrentEngine, EngineConfig, EngineError, EngineOps,
    FlusherConfig, StorageEngine,
};
use noftl::workloads::{Arrivals, OpenLoopConfig, OpenLoopDriver, OpenLoopReport};

fn overload_backend() -> NoFtlBackend {
    let geometry = FlashGeometry::with_dies(4, 128, 64, 4096);
    let noftl = NoFtl::new(NoFtlConfig::new(geometry));
    NoFtlBackend::new(noftl)
}

fn overload_config(admission: AdmissionConfig) -> EngineConfig {
    let mut cfg = EngineConfig::new();
    cfg.buffer_frames = 128;
    cfg.log_pages = 64;
    let mut flushers = FlusherConfig::die_wise(4);
    flushers.async_depth = 1;
    cfg.flushers = flushers;
    cfg.wal_group_commit = 1;
    cfg.admission = Some(admission);
    cfg.slo_scheduling = true;
    cfg
}

/// An engine with one committed update transaction whose WAL force is the
/// single retained in-flight entry; returns the engine and the commit end.
fn engine_with_one_force(admission: AdmissionConfig) -> (StorageEngine, u64) {
    let mut engine = StorageEngine::new(Box::new(overload_backend()), overload_config(admission));
    engine.create_table("t");
    let txn = engine.begin();
    let (_, t) = engine.insert("t", txn, 0, &[7u8; 64]).expect("insert");
    let end = engine.commit(txn, t).expect("commit");
    assert!(end > 0, "the commit force takes real virtual time");
    (engine, end)
}

#[test]
fn window_of_one_admits_on_an_idle_engine() {
    // Window 1 on a fresh engine: nothing in flight, nothing dirty — the
    // arrival admits immediately (the livelock guard, not the deadline).
    let admission = AdmissionConfig {
        max_inflight_groups: 1,
        deadline_ns: 10,
        ..AdmissionConfig::default()
    };
    let mut engine = StorageEngine::new(Box::new(overload_backend()), overload_config(admission));
    let (_, at) = engine.begin_admitted(5).expect("idle engine admits");
    assert_eq!(at, 5);
    let stats = engine.admission_stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.delayed, 0);
    assert_eq!(stats.shed, 0);
}

#[test]
fn window_of_one_waits_out_the_inflight_force() {
    // An arrival that lands while the previous commit's WAL force is still
    // in flight (its completion is after the arrival instant) waits until
    // the force clears, and the delay is counted.
    let admission = AdmissionConfig {
        max_inflight_groups: 1,
        deadline_ns: u64::MAX,
        ..AdmissionConfig::default()
    };
    let (mut engine, end) = engine_with_one_force(admission);
    let (_, at) = engine.begin_admitted(1).expect("bounded wait admits");
    assert!(
        at >= end,
        "admission waits for the in-flight force: admitted {at}, force ends {end}"
    );
    let stats = engine.admission_stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.delayed, 1);
    assert!(stats.total_delay_ns >= end - 1);
}

#[test]
fn deadline_shorter_than_one_wal_group_sheds_with_typed_error() {
    // The force in flight takes longer than the whole admission deadline, so
    // the arrival cannot clear pressure in time: typed shed, nothing begun.
    let admission = AdmissionConfig {
        max_inflight_groups: 1,
        deadline_ns: 1,
        ..AdmissionConfig::default()
    };
    let (mut engine, end) = engine_with_one_force(admission);
    let committed_before = engine.committed();
    match engine.begin_admitted(1) {
        Err(EngineError::Overloaded {
            waited_ns,
            retry_after_ns,
        }) => {
            assert!(
                waited_ns >= end - 1,
                "the error reports the pressure ahead: {waited_ns}"
            );
            assert_eq!(
                retry_after_ns,
                waited_ns - 1,
                "the back-off hint is the pressure ahead minus the deadline budget"
            );
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = engine.admission_stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.admitted, 0);
    assert_eq!(
        engine.committed(),
        committed_before,
        "a shed begin leaves the durability ledger untouched"
    );
}

/// One open-loop storm leg: `sessions` sessions (1 = single-threaded
/// engine, >1 = sharded concurrent engine), returning the report plus the
/// committed count right after setup.
fn storm_leg(
    sessions: usize,
    seed: u64,
    mean_gap_ns: u64,
    deadline_ns: u64,
) -> (OpenLoopReport, u64) {
    let admission = AdmissionConfig {
        max_inflight_groups: 1,
        dirty_high_watermark: 0.25,
        deadline_ns,
    };
    let mut olcfg = OpenLoopConfig::new(
        150,
        Arrivals::Poisson {
            mean_interarrival_ns: mean_gap_ns,
        },
    );
    olcfg.rows = 300;
    olcfg.row_bytes = 64;
    olcfg.update_every = 2;
    olcfg.seed = seed;
    let driver = OpenLoopDriver::new(olcfg);
    if sessions <= 1 {
        let mut engine =
            StorageEngine::new(Box::new(overload_backend()), overload_config(admission));
        let t0 = driver.setup(&mut engine, 0).expect("setup");
        let setup_committed = engine.committed();
        let mut slots: [&mut dyn EngineOps; 1] = [&mut engine];
        (driver.run(&mut slots, t0).expect("run"), setup_committed)
    } else {
        let engine = ConcurrentEngine::new(
            Box::new(overload_backend()),
            overload_config(admission),
            sessions,
        );
        let mut handles: Vec<ClientSession> = (0..sessions).map(|_| engine.session()).collect();
        let t0 = driver.setup(&mut handles[0], 0).expect("setup");
        let setup_committed = handles[0].committed();
        let mut slots: Vec<&mut dyn EngineOps> = handles
            .iter_mut()
            .map(|s| s as &mut dyn EngineOps)
            .collect();
        (driver.run(&mut slots, t0).expect("run"), setup_committed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across seeds, arrival rates, deadlines and session topologies: no
    /// committed-data loss, and the engine's admission counters reconcile
    /// call for call with what the clients observed.
    #[test]
    fn open_loop_storms_never_lose_committed_data(
        seed in 0u64..1_000_000,
        mean_gap_ns in prop_oneof![Just(50_000u64), Just(150_000), Just(600_000)],
        deadline_ns in prop_oneof![Just(1u64), Just(500_000), Just(2_000_000)],
        sessions in prop_oneof![Just(1usize), Just(8)],
    ) {
        let (report, setup_committed) = storm_leg(sessions, seed, mean_gap_ns, deadline_ns);
        let total = 165; // 150 measured + 15 warmup
        let (admitted, delayed, shed) = report.observed;
        // Every offered request is admitted or shed — none vanish.
        prop_assert_eq!(admitted + shed, total);
        prop_assert!(delayed <= admitted);
        // Engine-side counters match the client-side observations exactly.
        prop_assert_eq!(report.admission.admitted, admitted);
        prop_assert_eq!(report.admission.delayed, delayed);
        prop_assert_eq!(report.admission.shed, shed);
        // Zero committed-transaction loss: the durability ledger is setup
        // plus exactly the admitted begins — shed requests never logged.
        prop_assert_eq!(report.committed, setup_committed + admitted);
        // The measured phase accounts for every request.
        prop_assert_eq!(report.completed + report.shed, report.requests);
    }
}
