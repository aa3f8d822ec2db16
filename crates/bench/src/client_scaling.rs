//! Client-scaling experiment (PR 7): aggregate throughput of N concurrent
//! clients over one shared [`ConcurrentEngine`], on the virtual clock.
//!
//! The paper's evaluation presses on the device with 16 concurrent
//! processes; the concurrent engine makes that pressure real inside the
//! DBMS: N clients, each with its own session and private table partition,
//! drive point reads and short scans whose device commands land on the
//! per-die queues at overlapping virtual instants.  One client chains its
//! reads (each transaction waits for its own I/O); N clients keep up to N
//! commands in flight across the dies, so aggregate throughput scales with
//! the die-level parallelism the native interface exposes — the same
//! argument as Figure 4, applied to foreground reads instead of db-writers.
//!
//! The sweep is deterministic end to end (virtual time, seeded keys, laggard
//! interleaving), so every point is bit-identical across runs.

use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;
use nand_flash::FlashResult;
use noftl_core::{NoFtl, NoFtlConfig};
use storage_engine::backend::NoFtlBackend;
use storage_engine::{ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig, StorageEngine};
use workloads::rid_codec::{rid_to_u64, u64_to_rid};
use workloads::workload::TxnKind;
use workloads::{ClientWorkload, MultiClientConfig, MultiClientDriver, Workload};

use crate::setup::geometry_for_pages;

/// Scan/point mix configuration (per client partition).
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    /// Rows in the client's private table.
    pub rows: u64,
    /// Row payload size in bytes.
    pub row_bytes: usize,
    /// Point reads per transaction.
    pub reads_per_txn: usize,
    /// Every `scan_every`-th transaction is a short range scan instead of
    /// point reads (0 disables scans).
    pub scan_every: u64,
    /// Keys covered by one range scan.
    pub scan_rows: u64,
    /// Random seed for the key stream.
    pub seed: u64,
}

impl MixConfig {
    /// The default mix: ~240 data pages per client (far beyond its buffer
    /// share, so point reads miss to the device), four point reads per
    /// transaction, one 256-key range scan every 8 transactions.
    ///
    /// The scan leg is a *range* scan, not a full-table sweep: logical pages
    /// stripe round-robin over the dies (`region_of_lpn`), so a full sweep
    /// from any one client would occupy every die queue and serialise the
    /// whole fleet behind it — the multi-client win comes from transactions
    /// whose commands land on *different* dies at overlapping instants.
    pub fn new(seed: u64) -> Self {
        Self {
            rows: 2_400,
            row_bytes: 400,
            reads_per_txn: 2,
            scan_every: 8,
            scan_rows: 256,
            seed,
        }
    }
}

/// The scan/point mix workload over one private table partition.
pub struct ScanPointMix {
    config: MixConfig,
    rng: SimRng,
    txn_counter: u64,
    prefix: String,
}

impl ScanPointMix {
    /// Create the mix over un-prefixed table names.
    pub fn new(config: MixConfig) -> Self {
        Self::with_prefix(config, "")
    }

    /// Create the mix over a `prefix`ed partition (client `i` of a shared
    /// engine uses `"c{i}_"`).
    pub fn with_prefix(config: MixConfig, prefix: impl Into<String>) -> Self {
        Self {
            rng: SimRng::new(config.seed),
            config,
            txn_counter: 0,
            prefix: prefix.into(),
        }
    }

    fn tbl(&self, base: &str) -> String {
        format!("{}{}", self.prefix, base)
    }
}

fn mix_row(id: u64, bytes: usize) -> Vec<u8> {
    let mut row = vec![0u8; bytes.max(16)];
    row[..8].copy_from_slice(&id.to_le_bytes());
    row[8..16].copy_from_slice(&(!id).to_le_bytes());
    row
}

impl<E: EngineOps> Workload<E> for ScanPointMix {
    fn name(&self) -> &'static str {
        "scan-point-mix"
    }

    fn setup(&mut self, engine: &mut E, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = now;
        engine.create_table(&self.tbl("mix"));
        engine.create_index(&self.tbl("mix_pk"), t)?;
        let txn = engine.begin();
        for id in 0..self.config.rows {
            let (rid, t2) =
                engine.insert(&self.tbl("mix"), txn, t, &mix_row(id, self.config.row_bytes))?;
            let (_, t3) = engine.index_insert(&self.tbl("mix_pk"), t2, id, rid_to_u64(rid))?;
            t = t3;
            if id % 256 == 0 {
                t = engine.maybe_flush(t)?;
            }
        }
        t = engine.commit(txn, t)?;
        engine.checkpoint(t)
    }

    fn run_transaction(
        &mut self,
        engine: &mut E,
        _client: usize,
        now: SimInstant,
    ) -> FlashResult<(SimInstant, TxnKind)> {
        self.txn_counter += 1;
        let txn = engine.begin();
        let mut t = now;
        if self.config.scan_every > 0 && self.txn_counter.is_multiple_of(self.config.scan_every) {
            // Short range scan: an index range read plus a sample of the
            // matched rows.
            let span = self.config.scan_rows.min(self.config.rows);
            let lo = self.rng.range(0, (self.config.rows - span).max(1));
            let mut rids = Vec::new();
            let (n, t2) =
                engine.index_range(&self.tbl("mix_pk"), t, lo, lo + span - 1, &mut |_, v| {
                    rids.push(v)
                })?;
            assert_eq!(n, span, "range scan lost keys");
            t = t2;
            for &packed in rids.iter().step_by((rids.len() / 4).max(1)) {
                let (row, t2) = engine.read(&self.tbl("mix"), t, u64_to_rid(packed))?;
                assert!(row.is_some(), "scanned row present");
                t = t2;
            }
        } else {
            for _ in 0..self.config.reads_per_txn {
                let key = self.rng.range(0, self.config.rows);
                let (rid, t2) = engine.index_get(&self.tbl("mix_pk"), t, key)?;
                let rid = u64_to_rid(rid.expect("key loaded at setup"));
                let (row, t3) = engine.read(&self.tbl("mix"), t2, rid)?;
                let row = row.expect("row present");
                assert_eq!(u64::from_le_bytes(row[..8].try_into().unwrap()), key);
                t = t3;
            }
        }
        let t = engine.commit(txn, t)?;
        Ok((t, TxnKind::ReadOnly))
    }
}

/// One measured point of the client-scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Concurrent clients (= sessions = buffer-pool shards).
    pub clients: usize,
    /// Measured transactions (across all clients).
    pub transactions: u64,
    /// Virtual duration of the measured phase (ns).
    pub duration_ns: u64,
    /// Aggregate transactions per virtual second.
    pub tps: f64,
}

/// Result of the sweep at a fixed die count.
#[derive(Debug, Clone)]
pub struct ClientScaling {
    /// NAND dies of the shared device.
    pub dies: u32,
    /// Per-die queue depth.
    pub depth: usize,
    /// Measured points, one per client count.
    pub points: Vec<ScalingPoint>,
    /// Throughput of the plain single-threaded [`StorageEngine`] on the
    /// identical workload and configuration — the no-regression baseline for
    /// the 1-client leg.
    pub single_threaded_tps: f64,
}

impl ClientScaling {
    /// TPS at a given client count.
    pub fn tps(&self, clients: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.clients == clients)
            .map(|p| p.tps)
    }

    /// Aggregate speedup of `clients` clients over one client.
    pub fn speedup(&self, clients: usize) -> Option<f64> {
        let one = self.tps(1)?;
        let n = self.tps(clients)?;
        (one > 0.0).then(|| n / one)
    }

    /// Relative deviation of the 1-client concurrent leg from the plain
    /// single-threaded engine (0.0 = identical).
    pub fn single_thread_delta(&self) -> Option<f64> {
        let one = self.tps(1)?;
        (self.single_threaded_tps > 0.0)
            .then(|| (one - self.single_threaded_tps).abs() / self.single_threaded_tps)
    }
}

fn scaling_engine_config(depth: usize, dies: u32, clients: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new();
    // A fixed *per-client* frame budget, far below one partition (~240 data
    // pages), so point reads keep missing to the device at every sweep point
    // (a fully cached partition makes the measured phase free on the virtual
    // clock).  The budget scales with the client count so the per-client
    // miss rate stays constant across the sweep — otherwise adding clients
    // shrinks everyone's cache share and the sweep measures cache pollution,
    // not I/O overlap.
    cfg.buffer_frames = 64 * clients.max(1);
    cfg.log_pages = 256;
    let mut flushers = FlusherConfig::die_wise(dies as usize);
    flushers.async_depth = depth;
    cfg.flushers = flushers;
    cfg.readahead_window = 16;
    // Read-mostly mix: share one WAL force among many read-only commits so
    // the log die does not serialise the measured phase.
    cfg.wal_group_commit = 64;
    cfg.buffer_hit_ns = 2_000;
    cfg
}

fn scaling_backend(depth: usize, dies: u32, logical_pages: u64) -> NoFtlBackend {
    let geometry = geometry_for_pages(logical_pages, 0.55, dies);
    let mut ncfg = NoFtlConfig::new(geometry);
    ncfg.async_queue_depth = depth;
    let noftl = NoFtl::new(ncfg);
    NoFtlBackend::new(noftl)
}

/// Logical pages needed for `clients` partitions of the default mix, with
/// slack for the WAL segment and index pages.
fn logical_pages_for(clients: usize) -> u64 {
    // ~240 data pages + ~30 index pages per client, 256 WAL pages, 2x slack.
    (clients as u64 * 540 + 512).max(2_048)
}

/// Run one point: `clients` sessions over one shared engine at `dies` dies,
/// on a device sized for `capacity` clients.
pub fn run_point(
    clients: usize,
    capacity: usize,
    dies: u32,
    depth: usize,
    per_client: u64,
) -> ScalingPoint {
    let backend = scaling_backend(depth, dies, logical_pages_for(capacity));
    let engine = ConcurrentEngine::new(
        Box::new(backend),
        scaling_engine_config(depth, dies, clients),
        clients,
    );
    let workloads: Vec<ClientWorkload> = (0..clients)
        .map(|i| -> ClientWorkload {
            Box::new(ScanPointMix::with_prefix(
                MixConfig::new(0x5CA1E ^ (i as u64) << 8),
                format!("c{i}_"),
            ))
        })
        .collect();
    let driver = MultiClientDriver::new(MultiClientConfig::new(per_client));
    let report = driver
        .run(&engine, workloads, 0)
        .expect("client-scaling run");
    ScalingPoint {
        clients,
        transactions: report.transactions,
        duration_ns: report.duration_ns,
        tps: report.aggregate_tps,
    }
}

/// The plain single-threaded engine on the identical workload, phases and
/// accounting — the regression baseline for the 1-client concurrent leg.
pub fn run_single_threaded_baseline(capacity: usize, dies: u32, depth: usize, per_client: u64) -> f64 {
    let backend = scaling_backend(depth, dies, logical_pages_for(capacity));
    let mut engine = StorageEngine::new(Box::new(backend), scaling_engine_config(depth, dies, 1));
    let mut w = ScanPointMix::with_prefix(MixConfig::new(0x5CA1E), "c0_");
    let mut now = w.setup(&mut engine, 0).expect("setup");
    for _ in 0..per_client / 10 {
        let (end, _) = w.run_transaction(&mut engine, 0, now).expect("warmup");
        now = engine.maybe_flush(end).expect("flush").max(end);
    }
    let measure_start = now;
    for _ in 0..per_client {
        let (end, _) = w.run_transaction(&mut engine, 0, now).expect("transaction");
        now = engine.maybe_flush(end).expect("flush").max(end);
    }
    per_client as f64 / ((now - measure_start).max(1) as f64 / 1e9)
}

/// Run the full sweep: every client count at `dies` dies, depth 8, plus the
/// single-threaded baseline.
pub fn run_client_scaling(client_counts: &[usize], dies: u32, per_client: u64) -> ClientScaling {
    let depth = 8;
    // The device is sized for the largest sweep point (at least 8 clients)
    // so every point sees the same geometry; only the client count varies.
    let capacity = client_counts.iter().copied().fold(8, usize::max);
    let points = client_counts
        .iter()
        .map(|&c| run_point(c.max(1), capacity, dies, depth, per_client))
        .collect();
    ClientScaling {
        dies,
        depth,
        points,
        single_threaded_tps: run_single_threaded_baseline(capacity, dies, depth, per_client),
    }
}

/// Render the sweep as a figure-style table.
pub fn render_table(result: &ClientScaling) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Client scaling: scan/point mix, {} dies, per-die queue depth {}\n",
        result.dies, result.depth
    ));
    out.push_str(&format!(
        "{:>8} {:>14} {:>16} {:>10}\n",
        "clients", "aggregate TPS", "virtual ms", "speedup"
    ));
    for p in &result.points {
        let speedup = result.speedup(p.clients).unwrap_or(0.0);
        out.push_str(&format!(
            "{:>8} {:>14.1} {:>16.2} {:>9.2}x\n",
            p.clients,
            p.tps,
            p.duration_ns as f64 / 1e6,
            speedup
        ));
    }
    out.push_str(&format!(
        "\nsingle-threaded StorageEngine baseline: {:.1} TPS (1-client delta {:.2}%)\n",
        result.single_threaded_tps,
        result.single_thread_delta().unwrap_or(0.0) * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_workload_runs_on_the_single_threaded_engine() {
        let backend = scaling_backend(8, 2, 2_048);
        let mut engine = StorageEngine::new(Box::new(backend), scaling_engine_config(8, 2, 1));
        let mut w = ScanPointMix::new(MixConfig {
            rows: 120,
            row_bytes: 200,
            reads_per_txn: 2,
            scan_every: 4,
            scan_rows: 16,
            seed: 9,
        });
        let mut now = w.setup(&mut engine, 0).expect("setup");
        for _ in 0..8 {
            let (end, _) = w.run_transaction(&mut engine, 0, now).expect("txn");
            now = end;
        }
        assert_eq!(engine.committed(), 9); // setup + 8 transactions
    }

    #[test]
    fn eight_clients_scale_aggregate_throughput() {
        let result = run_client_scaling(&[1, 8], 8, 24);
        let speedup = result.speedup(8).expect("both points measured");
        assert!(
            speedup >= 3.0,
            "8 clients over 8 dies must deliver >=3x aggregate throughput (got {speedup:.2}x)"
        );
    }

    #[test]
    fn one_client_leg_matches_the_single_threaded_engine() {
        let result = run_client_scaling(&[1], 8, 24);
        let delta = result.single_thread_delta().expect("baseline measured");
        assert!(
            delta <= 0.02,
            "1-client concurrent leg regressed vs single-threaded engine by {:.2}%",
            delta * 100.0
        );
    }
}
