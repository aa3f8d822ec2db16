//! Chaos harness (PR 6): TPC-B / TPC-C storms against the full NoFTL stack
//! under seeded fault plans — program failures, erase failures and read
//! errors injected by the device while the DBMS recovers above them.
//!
//! Every case asserts the two promises of the recovery machinery:
//!
//! * **Zero committed-data loss** — after the storm the workload's own
//!   consistency conditions hold (TPC-B: branch/teller/account balance sums
//!   equal the history deltas; TPC-C: warehouse/district YTD sums equal the
//!   payment history), every loaded row is still present, and — on the
//!   crash-at-boundary legs — the durable log recovered from the medium
//!   alone replays every record since the last checkpoint.
//! * **Truthful statistics** — every device-reported failure is accounted
//!   for by exactly one DBMS-side recovery action (block retirement, read
//!   retry), and the grown-bad-block census matches the retirement count.
//!
//! The storms run both the synchronous model (depth 1) and the asynchronous
//! per-die queues at depth 8.  `fault_storm_smoke` runs one fixed seed; the
//! proptest storms draw their own seeds deterministically.

use proptest::prelude::*;

use noftl::nand_flash::fault::FaultPlan;
use noftl::nand_flash::{DeviceConfig, FlashError, FlashGeometry, NandDevice};
use noftl::noftl_core::{NoFtl, NoFtlConfig, RedundancyPolicy};
use noftl::sim_utils::time::SimInstant;
use noftl::storage_engine::backend::{NoFtlBackend, StorageBackend};
use noftl::storage_engine::{
    ClientSession, ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig, LogRecord,
    StorageEngine, WalManager,
};
use noftl::workloads::{
    BenchmarkDriver, DriverConfig, TpcB, TpcBConfig, TpcC, TpcCConfig, Workload,
};

/// Log segment size used by every chaos engine (must match the crash leg's
/// recovery scan).
const LOG_PAGES: u64 = 64;

/// Chaos fault mix: every failure mode is orders of magnitude more likely
/// than on the default plan, so a short storm actually exercises recovery,
/// but rates stay low enough that the spare-block pool survives the run.
fn chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed);
    plan.program_fail_base = 2e-3;
    plan.program_fail_wear_scale = 0.0;
    plan.erase_fail_knee = 0.0;
    plan.erase_fail_prob = 0.25;
    plan.read_error_base = 2e-3;
    plan.read_error_wear_scale = 1.0;
    plan.read_error_retention_scale = 0.0;
    plan.read_error_disturb_scale = 1e-6;
    plan.uncorrectable_fraction = 0.1;
    plan
}

/// Full NoFTL stack with fault injection: device (with `plan`) → NoFTL →
/// backend → engine, at the given asynchronous submission depth, set
/// explicitly on every layer.
fn chaos_engine(plan: FaultPlan, depth: usize, endurance: Option<u64>) -> StorageEngine {
    chaos_engine_on(FlashGeometry::small(), plan, depth, endurance, None)
}

/// [`chaos_engine`] on an explicit geometry — the targeted legs use a much
/// smaller device (and a higher over-provisioning ratio, giving GC spare
/// room to survive retirements) so GC — and with it the erase-failure model
/// — demonstrably runs within a short storm.
fn chaos_engine_on(
    geometry: FlashGeometry,
    plan: FaultPlan,
    depth: usize,
    endurance: Option<u64>,
    op_ratio: Option<f64>,
) -> StorageEngine {
    chaos_engine_with_frames(geometry, plan, depth, endurance, op_ratio, 48)
}

/// [`chaos_engine_on`] with an explicit buffer-pool size: the targeted legs
/// shrink the pool below the working set so foreground reads demonstrably
/// miss to the device — and through its read-error model — during the storm.
fn chaos_engine_with_frames(
    geometry: FlashGeometry,
    plan: FaultPlan,
    depth: usize,
    endurance: Option<u64>,
    op_ratio: Option<f64>,
    buffer_frames: usize,
) -> StorageEngine {
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.async_queue_depth = depth;
    cfg.endurance_override = endurance;
    if let Some(op) = op_ratio {
        cfg.op_ratio = op;
    }
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.store_data = cfg.store_data;
    dev_cfg.endurance_override = cfg.endurance_override;
    dev_cfg.faults = Some(plan);
    let noftl = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);
    let backend = NoFtlBackend::new(noftl);

    let mut ecfg = EngineConfig::new();
    // A pool far smaller than the database, so reads genuinely hit the
    // device (and its read-error model) instead of staying cached.
    ecfg.buffer_frames = buffer_frames;
    ecfg.log_pages = LOG_PAGES;
    let mut flushers = FlusherConfig::die_wise(2);
    flushers.async_depth = depth;
    ecfg.flushers = flushers;
    ecfg.readahead_window = 16;
    StorageEngine::new(Box::new(backend), ecfg)
}

/// The embedded NoFTL of a chaos engine (via the backend downcast hook).
fn noftl_of(engine: &StorageEngine) -> &NoFtl {
    engine
        .backend()
        .as_any()
        .and_then(|a| a.downcast_ref::<NoFtlBackend>())
        .expect("chaos engines run on the NoFTL backend")
        .noftl()
}

/// Scan a table, retrying the whole pass on an uncorrectable read: every
/// retry redraws the read-error model (the ladder of a real controller), so
/// a transient uncorrectable never fails verification.  Any other error is a
/// genuine bug and panics the case.
fn scan_rows(
    engine: &mut StorageEngine,
    table: &str,
    now: SimInstant,
) -> (Vec<Vec<u8>>, SimInstant) {
    let mut last = None;
    for _ in 0..8 {
        let mut rows = Vec::new();
        match engine.scan(table, now, |_, r| rows.push(r.to_vec())) {
            Ok((_, t)) => return (rows, t),
            Err(e @ FlashError::UncorrectableEcc(_)) => last = Some(e),
            Err(e) => panic!("scan of {table} failed with a non-read fault: {e}"),
        }
    }
    panic!("table {table} unreadable after 8 scan attempts: {last:?}");
}

fn le_i64(bytes: &[u8]) -> i64 {
    i64::from_le_bytes(bytes.try_into().expect("8-byte field"))
}

/// Every device-reported failure must be accounted for by the DBMS-side
/// recovery statistics — injected faults never vanish silently.
fn assert_truthful_stats(engine: &StorageEngine) {
    let n = noftl_of(engine);
    let flash = n.flash_stats();
    let stats = n.stats();
    assert_eq!(
        stats.program_fail_retirements, flash.program_failures,
        "every device program failure must be recovered by exactly one retirement"
    );
    assert_eq!(
        stats.erase_fail_retirements, flash.erase_failures,
        "every device erase failure must be recovered by exactly one retirement"
    );
    if flash.uncorrectable_reads > 0 {
        assert!(
            stats.read_retries > 0,
            "uncorrectable reads were reported but nothing retried them"
        );
    }
    assert!(
        stats.read_retry_successes <= stats.read_retries,
        "retry successes cannot exceed retries"
    );
    assert!(
        stats.retired_blocks >= stats.program_fail_retirements + stats.erase_fail_retirements,
        "the retirement census must cover every fault-driven retirement"
    );
    assert_eq!(
        n.bad_blocks().grown_count() as u64,
        stats.retired_blocks,
        "grown-bad census must match the retirement count"
    );
}

/// Crash-at-boundary leg: checkpoint, run a few more transactions, then
/// rebuild the log from the *medium alone* and demand every record since the
/// checkpoint — in particular every Commit — is durable, fault storm and
/// retired log blocks notwithstanding.
fn assert_committed_log_durable(
    engine: &mut StorageEngine,
    workload: &mut dyn Workload,
    now: SimInstant,
    extra_txns: usize,
) {
    let mut t = engine.checkpoint(now).expect("checkpoint under faults");
    for _ in 0..extra_txns {
        let (t2, _) = workload
            .run_transaction(engine, 0, t)
            .expect("post-checkpoint transaction");
        t = t2;
    }
    let t = engine.quiesce(t);

    let ckpt_lsn = engine.wal().checkpoint_lsn();
    let start_seq = engine.wal().recovery_start_seq();
    let expected: Vec<LogRecord> = engine
        .wal()
        .records()
        .iter()
        .filter(|(lsn, _)| *lsn >= ckpt_lsn)
        .map(|(_, r)| r.clone())
        .collect();
    let page_size = engine.page_size();
    let log_start = engine.backend().num_pages() - LOG_PAGES;
    let recovered: Vec<LogRecord> =
        WalManager::recover_records_from(engine.backend_mut(), log_start, LOG_PAGES, page_size, start_seq, t)
            .into_iter()
            .map(|(_, r)| r)
            .collect();
    assert_eq!(
        recovered, expected,
        "a crash at the run boundary must find every record since the checkpoint durable"
    );
    let commits = recovered
        .iter()
        .filter(|r| matches!(r, LogRecord::Commit { .. }))
        .count();
    assert_eq!(commits, extra_txns, "every committed transaction must be in the durable log");
}

// ---------------------------------------------------------------------------
// TPC-B storm
// ---------------------------------------------------------------------------

fn tpcb_storm(seed: u64, depth: usize, crash_check: bool) {
    let mut engine = chaos_engine(chaos_plan(seed), depth, Some(64));
    let mut w = TpcB::new(TpcBConfig {
        scale_factor: 1,
        tellers_per_branch: 10,
        accounts_per_branch: 400,
        seed,
    });
    let start = w.setup(&mut engine, 0).expect("TPC-B load under faults");
    let driver = BenchmarkDriver::new(DriverConfig::new(3, 44));
    driver
        .run(&mut engine, &mut w, start)
        .expect("TPC-B storm under faults");
    let end = engine.quiesce(0);

    // Zero committed-data loss: every loaded row survives and the TPC-B
    // consistency condition holds — the balance sums of all three levels
    // equal the sum of the history deltas (all transactions committed).
    let (accounts, end) = scan_rows(&mut engine, "account", end);
    assert_eq!(accounts.len(), 400, "account rows lost");
    let (tellers, end) = scan_rows(&mut engine, "teller", end);
    assert_eq!(tellers.len(), 10, "teller rows lost");
    let (branches, end) = scan_rows(&mut engine, "branch", end);
    assert_eq!(branches.len(), 1, "branch rows lost");
    let (history, end) = scan_rows(&mut engine, "history", end);
    // 44 measured + 4 warm-up transactions, one history append each.
    assert_eq!(history.len(), 48, "history rows lost");

    let history_total: i64 = history.iter().map(|r| le_i64(&r[24..32])).sum();
    let account_total: i64 = accounts.iter().map(|r| le_i64(&r[16..24])).sum();
    let teller_total: i64 = tellers.iter().map(|r| le_i64(&r[16..24])).sum();
    let branch_total: i64 = branches.iter().map(|r| le_i64(&r[8..16])).sum();
    assert_eq!(account_total, history_total, "account balances diverged from history");
    assert_eq!(teller_total, history_total, "teller balances diverged from history");
    assert_eq!(branch_total, history_total, "branch balances diverged from history");

    assert_truthful_stats(&engine);
    if crash_check {
        assert_committed_log_durable(&mut engine, &mut w, end, 6);
        assert_truthful_stats(&engine);
    }
}

// ---------------------------------------------------------------------------
// TPC-C storm
// ---------------------------------------------------------------------------

fn tpcc_storm(seed: u64, depth: usize, crash_check: bool) {
    let mut engine = chaos_engine(chaos_plan(seed), depth, Some(64));
    let mut w = TpcC::new(TpcCConfig {
        warehouses: 1,
        districts_per_warehouse: 4,
        customers_per_district: 40,
        items: 200,
        seed,
    });
    let start = w.setup(&mut engine, 0).expect("TPC-C load under faults");
    let driver = BenchmarkDriver::new(DriverConfig::new(3, 40));
    driver
        .run(&mut engine, &mut w, start)
        .expect("TPC-C storm under faults");
    let end = engine.quiesce(0);

    // Zero committed-data loss: loaded rows intact, inserted orders present,
    // and the money-flow consistency condition — warehouse YTD, district YTD
    // and the payment history all account for the same total.
    let (warehouses, end) = scan_rows(&mut engine, "warehouse", end);
    assert_eq!(warehouses.len(), 1, "warehouse rows lost");
    let (districts, end) = scan_rows(&mut engine, "district", end);
    assert_eq!(districts.len(), 4, "district rows lost");
    let (customers, end) = scan_rows(&mut engine, "customer", end);
    assert_eq!(customers.len(), 160, "customer rows lost");
    let (stock, end) = scan_rows(&mut engine, "stock", end);
    assert_eq!(stock.len(), 200, "stock rows lost");
    let (orders, end) = scan_rows(&mut engine, "orders", end);
    assert_eq!(
        orders.len() as u64, w.mix_counts[0],
        "every committed New-Order must have its order row"
    );
    let (order_lines, end) = scan_rows(&mut engine, "order_line", end);
    assert!(
        order_lines.len() >= orders.len() * 5,
        "order lines lost: {} lines for {} orders",
        order_lines.len(),
        orders.len()
    );
    let (history, end) = scan_rows(&mut engine, "history", end);
    assert_eq!(
        history.len() as u64, w.mix_counts[1],
        "every committed Payment must have its history row"
    );

    let paid: i64 = history.iter().map(|r| le_i64(&r[8..16])).sum();
    let warehouse_ytd: i64 = warehouses.iter().map(|r| le_i64(&r[8..16])).sum();
    let district_ytd: i64 = districts.iter().map(|r| le_i64(&r[16..24])).sum();
    assert_eq!(warehouse_ytd, paid, "warehouse YTD diverged from the payment history");
    assert_eq!(district_ytd, paid, "district YTD diverged from the payment history");

    assert_truthful_stats(&engine);
    if crash_check {
        assert_committed_log_durable(&mut engine, &mut w, end, 4);
        assert_truthful_stats(&engine);
    }
}

// ---------------------------------------------------------------------------
// The storms: 104 seeded fault-plan runs (26 cases × {TPC-B, TPC-C} ×
// {sync, async depth 8}), crash-at-boundary on roughly half of them.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(26))]

    #[test]
    fn tpcb_storms_survive_fault_plans_sync(seed in any::<u64>(), crash in any::<bool>()) {
        tpcb_storm(seed, 1, crash);
    }

    #[test]
    fn tpcb_storms_survive_fault_plans_async_depth8(seed in any::<u64>(), crash in any::<bool>()) {
        tpcb_storm(seed, 8, crash);
    }

    #[test]
    fn tpcc_storms_survive_fault_plans_sync(seed in any::<u64>(), crash in any::<bool>()) {
        tpcc_storm(seed, 1, crash);
    }

    #[test]
    fn tpcc_storms_survive_fault_plans_async_depth8(seed in any::<u64>(), crash in any::<bool>()) {
        tpcc_storm(seed, 8, crash);
    }
}

// ---------------------------------------------------------------------------
// Targeted legs
// ---------------------------------------------------------------------------

/// One run with every failure mode cranked high enough that all three fault
/// classes demonstrably fire — and are all recovered — in a single storm.
#[test]
fn storm_injects_and_recovers_every_fault_class() {
    let mut plan = chaos_plan(0xC4A05);
    plan.program_fail_base = 0.004;
    plan.erase_fail_prob = 0.4;
    plan.read_error_base = 0.02;
    // Endurance 4: erase failures ramp with wear from the very first P/E
    // cycle.  A deliberately tiny device (2 dies x 16 blocks x 8 pages) with
    // 40% over-provisioning keeps GC running throughout the storm — so
    // erases, and their failure draws, actually happen — while the small
    // blocks leave enough spares to absorb the retirements the cranked
    // rates cause.
    let geometry = FlashGeometry::with_dies(2, 32, 8, 4096);
    let mut engine = chaos_engine_with_frames(geometry, plan, 8, Some(32), Some(0.5), 12);
    let mut w = TpcB::new(TpcBConfig {
        scale_factor: 1,
        tellers_per_branch: 10,
        accounts_per_branch: 400,
        seed: 0xC4A05,
    });
    let start = w.setup(&mut engine, 0).expect("load");
    let driver = BenchmarkDriver::new(DriverConfig::new(3, 250));
    if let Err(e) = driver.run(&mut engine, &mut w, start) {
        let n = noftl_of(&engine);
        let flash = n.flash_stats();
        panic!(
            "storm: {e} (programs={} erases={} pf={} ef={} retired={} wearout={:?})",
            flash.programs, flash.erases, flash.program_failures,
            flash.erase_failures, n.stats().retired_blocks, n.bad_blocks().grown_count()
        );
    }
    let end = engine.quiesce(0);

    let (history, end) = scan_rows(&mut engine, "history", end);
    assert_eq!(history.len(), 275); // 250 measured + 25 warm-up
    let (branches, _end) = scan_rows(&mut engine, "branch", end);
    let history_total: i64 = history.iter().map(|r| le_i64(&r[24..32])).sum();
    let branch_total: i64 = branches.iter().map(|r| le_i64(&r[8..16])).sum();
    assert_eq!(branch_total, history_total);

    assert_truthful_stats(&engine);
    let n = noftl_of(&engine);
    let flash = n.flash_stats();
    assert!(flash.program_failures > 0, "storm must inject program failures");
    assert!(flash.erase_failures > 0, "storm must inject erase failures");
    assert!(flash.corrected_reads > 0, "storm must inject correctable read errors");
    assert!(n.stats().retired_blocks > 0, "recovery must have retired blocks");
}

// ---------------------------------------------------------------------------
// Die-failure storms (PR 10): a whole die dies mid-workload while every
// region runs a redundancy policy.  The workload must complete, no committed
// data may be lost, reads of lost pages must come back bit-identical through
// reconstruction, and the redundancy / rebuild counters must be truthful.
// ---------------------------------------------------------------------------

/// A fault plan with every probabilistic failure mode zeroed: nothing fires
/// until a deterministic die kill is armed.
fn quiet_plan() -> FaultPlan {
    let mut plan = FaultPlan::seeded(7);
    plan.program_fail_base = 0.0;
    plan.erase_fail_prob = 0.0;
    plan.read_error_base = 0.0;
    plan
}

/// [`quiet_plan`] plus a deterministic kill of `die_flat`, fired by the next
/// device command after the plan is armed.
fn kill_plan(die_flat: u32) -> FaultPlan {
    quiet_plan().with_die_kill(0, die_flat)
}

/// Full stack with `policy` on every region and no probabilistic faults.
/// Over-provisioning is generous (0.60): parity overhead, stale-stripe
/// parity pinning and the eventual loss of a quarter of the physical pool
/// all eat spare blocks.  `slo_scheduling` is on so the online rebuild rides
/// the background hook in [`StorageEngine::maybe_flush`].
fn redundant_engine(policy: RedundancyPolicy, depth: usize) -> StorageEngine {
    redundant_engine_with_frames(policy, depth, 48)
}

/// [`redundant_engine`] with an explicit buffer-pool size: the targeted
/// degraded-read legs shrink the pool below the working set so reads
/// demonstrably reach the device — and its dead die — instead of the cache.
fn redundant_engine_with_frames(
    policy: RedundancyPolicy,
    depth: usize,
    buffer_frames: usize,
) -> StorageEngine {
    StorageEngine::new(
        Box::new(redundant_backend(policy, depth)),
        redundant_config(depth, buffer_frames),
    )
}

/// The NoFTL backend of [`redundant_engine`]: `policy` on every region, an
/// inert fault plan, queues at `depth`.
fn redundant_backend(policy: RedundancyPolicy, depth: usize) -> NoFtlBackend {
    let geometry = FlashGeometry::small();
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.async_queue_depth = depth;
    cfg.op_ratio = 0.60;
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.store_data = cfg.store_data;
    // An explicit, inert plan: every probabilistic failure mode zeroed.
    dev_cfg.faults = Some(quiet_plan());
    let mut noftl = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);
    noftl.set_redundancy_all(policy);
    NoFtlBackend::new(noftl)
}

/// The engine configuration of [`redundant_engine`], SLO scheduling on.
fn redundant_config(depth: usize, buffer_frames: usize) -> EngineConfig {
    let mut ecfg = EngineConfig::new();
    ecfg.buffer_frames = buffer_frames;
    ecfg.log_pages = LOG_PAGES;
    let mut flushers = FlusherConfig::die_wise(2);
    flushers.async_depth = depth;
    ecfg.flushers = flushers;
    ecfg.readahead_window = 16;
    ecfg.slo_scheduling = true;
    ecfg
}

/// Mutable access to the embedded NoFTL (via the backend downcast hook), for
/// arming the kill plan mid-run and draining the rebuild.
fn noftl_mut_of(engine: &mut StorageEngine) -> &mut NoFtl {
    noftl_mut_of_backend(engine.backend_mut())
}

/// Run the online rebuild to completion and return the finish time.
fn drain_rebuild(engine: &mut StorageEngine, now: SimInstant) -> SimInstant {
    let n = noftl_mut_of(engine);
    let mut t = now;
    while let Some(end) = n.schedule_rebuild(t).expect("rebuild step") {
        t = end.max(t);
    }
    t
}

/// The redundancy and rebuild counters must tell the truth about a
/// single-die failure on a fully protected device.
fn assert_redundancy_truthful(engine: &StorageEngine, policy: RedundancyPolicy) {
    let n = noftl_of(engine);
    let rs = n.redundancy_stats();
    let rb = n.rebuild_stats();
    match policy {
        RedundancyPolicy::Parity(_) => {
            assert!(rs.stripes_sealed > 0, "a parity storm must seal stripes");
            assert!(
                rs.parity_pages_written >= rs.stripes_sealed,
                "every sealed stripe has a parity page"
            );
            assert!(
                rs.stripes_sealed_degraded <= rs.stripes_sealed,
                "degraded seals are a subset of all seals"
            );
            assert_eq!(
                rs.stripes_abandoned, 0,
                "a storm with free space must never abandon a stripe unsealed"
            );
        }
        RedundancyPolicy::Mirror => {
            assert!(rs.mirror_pages_written > 0, "a mirror storm must write copies");
            assert_eq!(
                rs.mirror_skipped_no_space, 0,
                "a storm with free space must never skip a mirror copy"
            );
        }
        RedundancyPolicy::None => {}
    }
    assert!(n.any_die_dead(), "the kill must actually have fired");
    assert_eq!(rb.die_failures_detected, 1, "exactly one die failed");
    assert_eq!(
        rb.pages_lost, 0,
        "no committed page may be lost on a protected region"
    );
    assert!(rb.pages_rebuilt > 0, "the dead die held mapped pages to re-home");
    assert!(rb.accounted(), "the rebuild walker must account for every page");
    assert!(
        rs.reconstructed_pages >= rb.pages_rebuilt,
        "every rebuilt page was reconstructed from redundancy"
    );
}

/// One die-failure storm: TPC-B on a fully `policy`-protected stack, a die
/// killed halfway through, the storm finishing across the failure, the
/// online rebuild drained, and zero committed-data loss demanded.
fn die_kill_storm(policy: RedundancyPolicy, seed: u64, depth: usize, crash_check: bool) {
    let mut engine = redundant_engine(policy, depth);
    let mut w = TpcB::new(TpcBConfig {
        scale_factor: 1,
        tellers_per_branch: 10,
        accounts_per_branch: 400,
        seed,
    });
    let mut now = w.setup(&mut engine, 0).expect("TPC-B load on the redundant stack");
    // First half of the storm on a healthy device.
    for _ in 0..22 {
        let (t, _) = w
            .run_transaction(&mut engine, 0, now)
            .expect("transaction before the die failure");
        now = engine.maybe_flush(t).expect("flush").max(t);
    }
    // Arm the kill: the very next device command fires it, mid-storm, on a
    // die whose blocks by now hold committed rows, WAL pages and parity or
    // mirror copies.
    let dead_die = (seed % 4) as u32;
    noftl_mut_of(&mut engine).set_fault_plan(Some(kill_plan(dead_die)));
    for _ in 0..22 {
        let (t, _) = w
            .run_transaction(&mut engine, 0, now)
            .expect("transaction across the die failure");
        now = engine.maybe_flush(t).expect("flush").max(t);
    }
    let end = engine.quiesce(now);
    // Finish whatever the background hook has not yet rebuilt.
    let end = drain_rebuild(&mut engine, end);

    // Zero committed-data loss: every loaded row survives the die loss and
    // the TPC-B consistency condition holds across all three levels.
    let (accounts, end) = scan_rows(&mut engine, "account", end);
    assert_eq!(accounts.len(), 400, "account rows lost to the die failure");
    let (tellers, end) = scan_rows(&mut engine, "teller", end);
    assert_eq!(tellers.len(), 10, "teller rows lost to the die failure");
    let (branches, end) = scan_rows(&mut engine, "branch", end);
    assert_eq!(branches.len(), 1, "branch rows lost to the die failure");
    let (history, end) = scan_rows(&mut engine, "history", end);
    assert_eq!(history.len(), 44, "history rows lost to the die failure");

    let history_total: i64 = history.iter().map(|r| le_i64(&r[24..32])).sum();
    let account_total: i64 = accounts.iter().map(|r| le_i64(&r[16..24])).sum();
    let teller_total: i64 = tellers.iter().map(|r| le_i64(&r[16..24])).sum();
    let branch_total: i64 = branches.iter().map(|r| le_i64(&r[8..16])).sum();
    assert_eq!(account_total, history_total, "account balances diverged from history");
    assert_eq!(teller_total, history_total, "teller balances diverged from history");
    assert_eq!(branch_total, history_total, "branch balances diverged from history");

    assert_redundancy_truthful(&engine, policy);
    if crash_check {
        assert_committed_log_durable(&mut engine, &mut w, end, 6);
        assert_redundancy_truthful(&engine, policy);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn die_kill_storms_parity_sync(seed in any::<u64>(), crash in any::<bool>()) {
        die_kill_storm(RedundancyPolicy::Parity(3), seed, 1, crash);
    }

    #[test]
    fn die_kill_storms_parity_async_depth8(seed in any::<u64>(), crash in any::<bool>()) {
        die_kill_storm(RedundancyPolicy::Parity(3), seed, 8, crash);
    }

    #[test]
    fn die_kill_storms_mirror_sync(seed in any::<u64>(), crash in any::<bool>()) {
        die_kill_storm(RedundancyPolicy::Mirror, seed, 1, crash);
    }

    #[test]
    fn die_kill_storms_mirror_async_depth8(seed in any::<u64>(), crash in any::<bool>()) {
        die_kill_storm(RedundancyPolicy::Mirror, seed, 8, crash);
    }
}

/// Before any rebuild runs, reads of pages lost to a dead die must be served
/// **bit-identical** through reconstruction: a degraded leg (die killed
/// after the storm, no rebuild) scans the same rows as a healthy leg of the
/// identical seeded run — and scans them again, still identical, after the
/// rebuild re-homes them.
#[test]
fn degraded_reads_after_die_loss_are_bit_identical() {
    let run = |kill: bool| -> Vec<Vec<Vec<u8>>> {
        let mut engine = redundant_engine_with_frames(RedundancyPolicy::Parity(3), 1, 6);
        let mut w = TpcB::new(TpcBConfig {
            scale_factor: 1,
            tellers_per_branch: 10,
            accounts_per_branch: 400,
            seed: 0xD1E,
        });
        let mut now = w.setup(&mut engine, 0).expect("load");
        for _ in 0..20 {
            let (t, _) = w.run_transaction(&mut engine, 0, now).expect("txn");
            now = engine.maybe_flush(t).expect("flush").max(t);
        }
        let mut end = engine.quiesce(now);
        if kill {
            noftl_mut_of(&mut engine).set_fault_plan(Some(kill_plan(2)));
        }
        let mut tables = Vec::new();
        for table in ["account", "teller", "branch", "history"] {
            let (rows, t) = scan_rows(&mut engine, table, end);
            tables.push(rows);
            end = t;
        }
        if kill {
            // The scans above ran degraded — the buffer pool is far smaller
            // than the database, so they demonstrably hit the dead die.
            let n = noftl_of(&engine);
            assert!(n.any_die_dead(), "the scan must have fired the kill");
            assert!(
                n.redundancy_stats().degraded_reads > 0,
                "scans of a quarter-dead device must serve degraded reads"
            );
            assert_eq!(n.rebuild_stats().pages_lost, 0);
            // After the rebuild every row must still read back identical.
            let end = drain_rebuild(&mut engine, end);
            assert!(noftl_of(&engine).rebuild_stats().pages_rebuilt > 0);
            let mut t = end;
            for (i, table) in ["account", "teller", "branch", "history"].into_iter().enumerate() {
                let (rows, t2) = scan_rows(&mut engine, table, t);
                assert_eq!(rows, tables[i], "{table} changed across the rebuild");
                t = t2;
            }
        }
        tables
    };
    let healthy = run(false);
    let degraded = run(true);
    assert_eq!(
        healthy, degraded,
        "degraded reads must be bit-identical to the healthy leg"
    );
}

/// Without redundancy a die failure *is* data loss — and the stack must say
/// so: typed read failures on lost pages, truthful loss counters, and no
/// phantom reconstructions.
#[test]
fn die_loss_without_redundancy_fails_typed_and_counts_losses() {
    let mut engine = redundant_engine(RedundancyPolicy::None, 1);
    let mut w = TpcB::new(TpcBConfig {
        scale_factor: 1,
        tellers_per_branch: 10,
        accounts_per_branch: 400,
        seed: 0xDEAD,
    });
    let mut now = w.setup(&mut engine, 0).expect("load");
    for _ in 0..20 {
        let (t, _) = w.run_transaction(&mut engine, 0, now).expect("txn");
        now = engine.maybe_flush(t).expect("flush").max(t);
    }
    let end = engine.quiesce(now);
    noftl_mut_of(&mut engine).set_fault_plan(Some(kill_plan(1)));
    // One device read fires the armed kill (on whichever die it targets).
    {
        let n = noftl_mut_of(&mut engine);
        let mut buf = vec![0u8; 4096];
        let _ = n.read(end, 0, &mut buf);
        assert!(n.any_die_dead(), "the kill must fire on the first command");
    }
    let end = drain_rebuild(&mut engine, end);
    let rb = noftl_of(&engine).rebuild_stats();
    assert_eq!(rb.die_failures_detected, 1);
    assert_eq!(rb.pages_rebuilt, 0, "nothing to rebuild from without redundancy");
    assert!(rb.pages_lost > 0, "losses must be counted, not hidden");
    assert!(rb.accounted());
    assert_eq!(noftl_of(&engine).redundancy_stats().reconstructed_pages, 0);
    // Every lost page fails typed — the WAL-replay layer above can take
    // over — and the loss counter matches the typed failures one for one.
    let pages = engine.backend().num_pages();
    let page_size = engine.page_size();
    let n = noftl_mut_of(&mut engine);
    let mut typed = 0u64;
    let mut buf = vec![0u8; page_size];
    for lpn in 0..pages {
        match n.read(end, lpn, &mut buf) {
            Ok(_) => {}
            Err(FlashError::DieFailed(_)) => typed += 1,
            // Logical pages the workload never wrote have no mapping.
            Err(FlashError::ReadOfUnwrittenPage(_)) => {}
            Err(e) => panic!("read of lpn {lpn}: expected DieFailed, got {e}"),
        }
    }
    assert!(typed > 0, "a quarter of the mapped pages died with the die");
    assert_eq!(
        typed,
        n.rebuild_stats().pages_lost,
        "the loss counter must match the typed read failures exactly"
    );
}

/// The online rebuild also runs on the concurrent engine: a die killed
/// under two sessions of a 2-shard engine is re-homed by the background
/// hook of `maybe_flush`, step by step, with no page lost.
#[test]
fn concurrent_engine_rebuilds_a_dead_die_in_the_background() {
    let engine = ConcurrentEngine::new(
        Box::new(redundant_backend(RedundancyPolicy::Parity(3), 1)),
        redundant_config(1, 48),
        2,
    );
    let mut clients: Vec<(ClientSession, TpcB)> = (0..2)
        .map(|c| {
            let config = TpcBConfig {
                scale_factor: 1,
                tellers_per_branch: 10,
                accounts_per_branch: 200,
                seed: 0xD1E5EED + c,
            };
            (engine.session(), TpcB::with_prefix(config, format!("c{c}_")))
        })
        .collect();
    let mut now = 0;
    for (session, w) in clients.iter_mut() {
        now = w.setup(session, now).expect("load");
    }
    let mut storm = |now: &mut SimInstant, txns: usize| {
        for i in 0..txns {
            let (session, w) = &mut clients[i % 2];
            let (t, _) = w.run_transaction(session, 0, *now).expect("transaction");
            *now = session.maybe_flush(t).expect("flush").max(t);
        }
    };
    storm(&mut now, 20);
    engine.with_backend(|b| noftl_mut_of_backend(b).set_fault_plan(Some(kill_plan(1))));
    storm(&mut now, 60);
    engine.with_backend(|b| {
        let n = noftl_mut_of_backend(b);
        assert!(n.any_die_dead(), "the kill must actually have fired");
        let rb = n.rebuild_stats();
        assert!(rb.rebuild_scheduled > 0, "maybe_flush must offer rebuild steps: {rb:?}");
        assert!(rb.pages_rebuilt > 0, "the dead die held mapped pages to re-home");
        assert_eq!(rb.pages_lost, 0, "parity must recover every lost page");
    });
}

/// The NoFTL core behind a chaos backend.
fn noftl_mut_of_backend(backend: &mut dyn StorageBackend) -> &mut NoFtl {
    backend
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<NoFtlBackend>())
        .expect("chaos engines run on the NoFTL backend")
        .noftl_mut()
}

/// Smoke: one die-kill rebuild storm on `Parity(3)` regions, at depth 8
/// with a crash-at-boundary leg and synchronously — a mid-workload die
/// failure, the online rebuild and the loss accounting end to end.
#[test]
fn redundancy_rebuild_smoke() {
    let policy = RedundancyPolicy::Parity(3);
    die_kill_storm(policy, 0xD1E5EED, 8, true);
    die_kill_storm(policy, 0xD1E5EED, 1, false);
}

/// Smoke: one TPC-B storm seeded `3735928559`, at depth 8 with a
/// crash-at-boundary leg and synchronously.
#[test]
fn fault_storm_smoke() {
    let seed = 3_735_928_559;
    tpcb_storm(seed, 8, true);
    tpcb_storm(seed, 1, false);
}
