//! The `NOFTL_*` knob matrix, in process.
//!
//! Each row is a [`Knobs`] value parsed from one knob setting: batching
//! off, the async depths 8 and 1, readahead off, batching global writers,
//! the SLO bundle, a seeded fault plan and parity redundancy.  Every row
//! runs tiny TPC-B and TPC-C workloads on a NoFTL stack built through the
//! knobs and checks the end-of-run invariants: every row reads back after a
//! checkpoint with the workload's money flow intact, the log segment alone
//! recovers every record since the checkpoint, and the counters reconcile.
//!
//! A second table pins what [`Knobs::from_vars`] makes of every documented
//! spelling.

use noftl::nand_flash::{FaultPlan, FlashGeometry, DEFAULT_FAULT_SEED};
use noftl::noftl_core::{NoFtl, NoFtlConfig, RedundancyPolicy};
use noftl::sim_utils::time::SimInstant;
use noftl::storage_engine::backend::{
    redundancy_op_ratio, Knobs, NoFtlBackend, DEFAULT_ASYNC_DEPTH, DEFAULT_PARITY_K,
};
use noftl::storage_engine::{FlusherConfig, LogRecord, StorageEngine, WalManager};
use noftl::workloads::{
    BenchmarkDriver, DriverConfig, TpcB, TpcBConfig, TpcC, TpcCConfig, Workload,
};

const LOG_PAGES: u64 = 32;

/// One knob setting per row, spelled as in the environment.
const ROWS: &[(&str, &str)] = &[
    ("NOFTL_BATCH", "off"),
    ("NOFTL_ASYNC", "8"),
    ("NOFTL_ASYNC", "1"),
    ("NOFTL_READAHEAD", "off"),
    ("NOFTL_BATCH_GLOBAL", "on"),
    ("NOFTL_SLO", "on"),
    ("NOFTL_FAULTS", "3735928559"),
    ("NOFTL_REDUNDANCY", "parity"),
];

fn engine(knobs: &Knobs) -> StorageEngine {
    let geometry = FlashGeometry::with_dies(4, 64, 32, 4096);
    let mut noftl = NoFtlConfig::new(geometry);
    noftl.op_ratio = redundancy_op_ratio(0.25, knobs.redundancy);
    let mut cfg = knobs.engine_config();
    cfg.buffer_frames = 24;
    cfg.log_pages = LOG_PAGES;
    cfg.flushers = FlusherConfig {
        dirty_high_watermark: 0.3,
        dirty_low_watermark: 0.05,
        ..knobs.flushers(FlusherConfig::die_wise(4))
    };
    knobs.engine(Box::new(knobs.noftl_backend(NoFtl::new(noftl))), cfg)
}

fn rows(engine: &mut StorageEngine, table: &str, now: SimInstant) -> (Vec<Vec<u8>>, SimInstant) {
    let mut rows = Vec::new();
    let (_, t) = engine
        .scan(table, now, |_, r| rows.push(r.to_vec()))
        .unwrap_or_else(|e| panic!("scan of {table}: {e}"));
    (rows, t)
}

fn sum_i64(rows: &[Vec<u8>], at: usize) -> i64 {
    rows.iter()
        .map(|r| i64::from_le_bytes(r[at..at + 8].try_into().expect("8-byte field")))
        .sum()
}

/// Checkpoint, run `extra` more transactions, and check that the log
/// segment alone recovers every record since the checkpoint.
fn assert_log_recovers(
    engine: &mut StorageEngine,
    w: &mut dyn Workload,
    now: SimInstant,
    extra: usize,
) {
    let mut t = engine.checkpoint(now).expect("checkpoint");
    for _ in 0..extra {
        t = w.run_transaction(engine, 0, t).expect("transaction").0;
    }
    let t = engine.quiesce(t);
    let wal = engine.wal();
    let expected: Vec<LogRecord> = wal
        .records()
        .iter()
        .filter(|(lsn, _)| *lsn >= wal.checkpoint_lsn())
        .map(|(_, r)| r.clone())
        .collect();
    let start_seq = wal.recovery_start_seq();
    let page_size = engine.page_size();
    let log_start = engine.backend().num_pages() - LOG_PAGES;
    let recovered: Vec<LogRecord> = WalManager::recover_records_from(
        engine.backend_mut(),
        log_start,
        LOG_PAGES,
        page_size,
        start_seq,
        t,
    )
    .into_iter()
    .map(|(_, r)| r)
    .collect();
    assert!(expected
        .iter()
        .any(|r| matches!(r, LogRecord::Commit { .. })));
    assert_eq!(recovered, expected, "the log segment lost records");
}

/// Engine, backend, NoFTL and device counters agree.
fn assert_counters_reconcile(engine: &StorageEngine, knobs: &Knobs) {
    let noftl = engine
        .backend()
        .as_any()
        .and_then(|a| a.downcast_ref::<NoFtlBackend>())
        .expect("NoFTL backend")
        .noftl();
    let (n, flash) = (noftl.stats(), noftl.flash_stats());
    let counters = engine.backend_counters();
    assert_eq!(
        (
            counters.host_reads,
            counters.host_writes,
            counters.internal_copies,
            counters.erases
        ),
        (n.host_reads, n.host_writes, n.gc_page_copies, n.gc_erases)
    );
    assert!(counters.host_reads > 0, "the pool must miss to flash");
    assert_eq!(
        engine.buffer_stats().flushed_by_writers,
        engine.flusher_stats().pages_flushed
    );
    assert!(
        engine.log_forces() >= engine.committed(),
        "force per commit"
    );
    // Every injected device failure is recovered by exactly one retirement.
    assert_eq!(n.program_fail_retirements, flash.program_failures);
    assert_eq!(n.erase_fail_retirements, flash.erase_failures);
    if knobs.redundancy.is_some() {
        let r = noftl.redundancy_stats();
        assert!(r.stripes_sealed > 0 && r.parity_pages_written >= r.stripes_sealed);
    }
}

fn run_tpcb(knobs: &Knobs) {
    let mut engine = engine(knobs);
    let mut w = TpcB::new(TpcBConfig {
        scale_factor: 1,
        tellers_per_branch: 10,
        accounts_per_branch: 1_500,
        seed: 0x601D,
    });
    let start = w.setup(&mut engine, 0).expect("load");
    let loaded = engine.committed();
    let report = BenchmarkDriver::new(DriverConfig::new(3, 60))
        .run(&mut engine, &mut w, start)
        .expect("run");
    let end = engine.quiesce(start + report.duration_ns);
    let end = engine.checkpoint(end).expect("checkpoint");
    let (accounts, end) = rows(&mut engine, "account", end);
    let (tellers, end) = rows(&mut engine, "teller", end);
    let (branches, end) = rows(&mut engine, "branch", end);
    let (history, end) = rows(&mut engine, "history", end);
    assert_eq!(
        (accounts.len(), tellers.len(), branches.len()),
        (1_500, 10, 1)
    );
    assert_eq!(history.len() as u64, engine.committed() - loaded);
    let paid = sum_i64(&history, 24);
    assert_eq!(sum_i64(&accounts, 16), paid);
    assert_eq!(sum_i64(&tellers, 16), paid);
    assert_eq!(sum_i64(&branches, 8), paid);
    assert_log_recovers(&mut engine, &mut w, end, 4);
    assert_counters_reconcile(&engine, knobs);
}

fn run_tpcc(knobs: &Knobs) {
    let mut engine = engine(knobs);
    let mut w = TpcC::new(TpcCConfig {
        warehouses: 1,
        districts_per_warehouse: 2,
        customers_per_district: 40,
        items: 200,
        seed: 0x601D,
    });
    let start = w.setup(&mut engine, 0).expect("load");
    let report = BenchmarkDriver::new(DriverConfig::new(3, 40))
        .run(&mut engine, &mut w, start)
        .expect("run");
    let end = engine.quiesce(start + report.duration_ns);
    let end = engine.checkpoint(end).expect("checkpoint");
    let (warehouses, end) = rows(&mut engine, "warehouse", end);
    let (districts, end) = rows(&mut engine, "district", end);
    let (customers, end) = rows(&mut engine, "customer", end);
    let (orders, end) = rows(&mut engine, "orders", end);
    let (history, end) = rows(&mut engine, "history", end);
    assert_eq!(
        (warehouses.len(), districts.len(), customers.len()),
        (1, 2, 80)
    );
    assert_eq!(orders.len() as u64, w.mix_counts[0]);
    assert_eq!(history.len() as u64, w.mix_counts[1]);
    let paid = sum_i64(&history, 8);
    assert_eq!(sum_i64(&warehouses, 8), paid);
    assert_eq!(sum_i64(&districts, 16), paid);
    assert_log_recovers(&mut engine, &mut w, end, 4);
    assert_counters_reconcile(&engine, knobs);
}

#[test]
fn every_knob_row_keeps_the_end_of_run_invariants() {
    for &(name, value) in ROWS {
        let knobs = Knobs::from_vars([(name, value)]);
        eprintln!("{name}={value}");
        run_tpcb(&knobs);
        run_tpcc(&knobs);
    }
}

/// `(name, value)` → the knobs it yields, for every spelling the knob
/// docs list.
#[test]
#[rustfmt::skip] // one row per line keeps the table readable
fn knobs_parse_every_documented_spelling() {
    let d = Knobs::default;
    let parity = |k| Knobs { redundancy: Some(RedundancyPolicy::Parity(k)), ..d() };
    let faults = |seed| Knobs { faults: Some(FaultPlan::seeded(seed)), ..d() };
    // (name, spellings, what each of them parses to)
    let cases: Vec<(&str, &[&str], Knobs)> = vec![
        ("NOFTL_BATCH", &["", "on", "TRUE", "garbage"], d()),
        ("NOFTL_BATCH", &["off", "False", "0"], Knobs { batch_pages: 0, ..d() }),
        ("NOFTL_BATCH", &["1"], Knobs { batch_pages: 1, ..d() }),
        ("NOFTL_BATCH", &[" 16 "], Knobs { batch_pages: 16, ..d() }),
        ("NOFTL_BATCH_GLOBAL", &["on", "TRUE", "1", " yes "], Knobs { batch_global: true, ..d() }),
        ("NOFTL_BATCH_GLOBAL", &["", "off", "0", "garbage"], d()),
        ("NOFTL_ASYNC", &["", "off", "False", "0", "1", "garbage"], d()),
        ("NOFTL_ASYNC", &["on", "TRUE"], Knobs { async_depth: DEFAULT_ASYNC_DEPTH, ..d() }),
        ("NOFTL_ASYNC", &[" 4 "], Knobs { async_depth: 4, ..d() }),
        ("NOFTL_READAHEAD", &["", "on", "TRUE", "garbage"], d()),
        ("NOFTL_READAHEAD", &["off", "False", "0"], Knobs { readahead_window: 0, ..d() }),
        ("NOFTL_READAHEAD", &[" 32 "], Knobs { readahead_window: 32, ..d() }),
        ("NOFTL_FAULTS", &["", "off", "OFF", "false", "0", "no", "garbage"], d()),
        ("NOFTL_FAULTS", &["on", "YES"], faults(DEFAULT_FAULT_SEED)),
        ("NOFTL_FAULTS", &["3735928559", " 3735928559 "], faults(3_735_928_559)),
        ("NOFTL_SLO", &["on", "TRUE", "1", " yes "], Knobs { slo: true, ..d() }),
        ("NOFTL_SLO", &["", "off", "False", "0", "no", "garbage"], d()),
        ("NOFTL_REDUNDANCY", &["", "off", "False", "0", "no", "none", "parity:0", "parity:junk", "garbage"], d()),
        ("NOFTL_REDUNDANCY", &["on", "TRUE", " yes ", "parity"], parity(DEFAULT_PARITY_K)),
        ("NOFTL_REDUNDANCY", &["Parity:2"], parity(2)),
        ("NOFTL_REDUNDANCY", &["parity: 5 "], parity(5)),
        ("NOFTL_REDUNDANCY", &["MIRROR"], Knobs { redundancy: Some(RedundancyPolicy::Mirror), ..d() }),
        // Other names, a knob name in the wrong case included, are ignored.
        ("NOFTL_", &["on"], d()),
        ("noftl_batch", &["off"], d()),
        ("PATH", &["/bin"], d()),
    ];
    for (name, spellings, expect) in cases {
        for &value in spellings {
            assert_eq!(Knobs::from_vars([(name, value)]), expect, "{name}={value:?}");
        }
    }
    // Every knob at once; the last value of a repeated knob wins.
    let all = Knobs::from_vars([
        ("NOFTL_BATCH", "on"),
        ("NOFTL_BATCH", "off"),
        ("NOFTL_BATCH_GLOBAL", "on"),
        ("NOFTL_ASYNC", "8"),
        ("NOFTL_READAHEAD", "off"),
        ("NOFTL_FAULTS", "12345"),
        ("NOFTL_SLO", "on"),
        ("NOFTL_REDUNDANCY", "mirror"),
    ]);
    assert_eq!(
        all,
        Knobs {
            batch_pages: 0,
            batch_global: true,
            async_depth: 8,
            readahead_window: 0,
            faults: Some(FaultPlan::seeded(12345)),
            slo: true,
            redundancy: Some(RedundancyPolicy::Mirror),
        }
    );
    assert_eq!(Knobs::from_vars(std::iter::empty::<(&str, &str)>()), d());
}
