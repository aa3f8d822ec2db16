//! Golden digests of what the engine leaves on flash and of the paper
//! figures' tables.
//!
//! Tiny TPC-C and TPC-B runs on NoFTL, with every engine, flusher and NoFTL
//! setting spelled out and fixed seeds, are reduced to one 64-bit FNV-1a
//! hash each.  The hash covers:
//!
//! - the final virtual time of the run;
//! - the buffer pool's `BufferStats` (hits, misses, evictions, ...);
//! - the backend's host-read, host-write, copy and erase counters;
//! - every WAL page image (the log segment at the top of the address space);
//! - every logical page image after a final checkpoint.
//!
//! The checked-in values pin the on-page byte layouts of heap pages and
//! B+-tree nodes, the WAL record codec, and the exact sequence of
//! buffer-pool accesses (hits drive clock reference bits and so eviction and
//! flush traffic).  The same runs with batch size 0 and 1 — for die-wise
//! writers, batching global writers and the WAL — must hash alike.
//!
//! A read-mix row drives eight scan/point sessions of one eight-shard
//! concurrent engine through the deterministic multi-client driver at the
//! `readmix-8c` benchmark settings (depth-8 queues, readahead, a non-zero
//! buffer-hit cost) and also hashes every session's commit stream and the
//! per-shard buffer and readahead counters.
//!
//! The Quick-scale table text of Figure 3, Figure 4 (TPC-C and TPC-B die
//! sweeps plus the queue-depth x host-link sweep) and the headline
//! throughput comparison, built with every `NOFTL_*` knob unset, is hashed
//! the same way.
//!
//! A change that moves any of them fails here.  If the move is intended,
//! replace the constant with the value the failure prints and say why in
//! the change log.

use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig};
use noftl::sim_utils::time::SimInstant;
use noftl::storage_engine::backend::{
    BackendCounters, Knobs, NoFtlBackend, StorageBackend, DEFAULT_BATCH_PAGES,
};
use noftl::storage_engine::buffer::BufferStats;
use noftl::storage_engine::{
    ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig, StorageEngine,
};
use noftl::workloads::tpcb::{TpcB, TpcBConfig};
use noftl::workloads::tpcc::{TpcC, TpcCConfig};
use noftl::workloads::workload::Workload;
use noftl::workloads::{ClientWorkload, DriveMode, MultiClientConfig, MultiClientDriver};
use noftl_bench::client_scaling::{MixConfig, ScanPointMix};
use noftl_bench::dbwriters::{
    render_depth_link_table, render_table as render_fig4, run_dbwriter_scaling,
    run_depth_link_sweep,
};
use noftl_bench::gc_overhead::{render_table as render_fig3, run_gc_overhead};
use noftl_bench::setup::{geometry_for_pages, Benchmark, Scale};
use noftl_bench::throughput::{render_table as render_headline, run_headline};

const TPCC_DIGEST: u64 = 0x5082_1872_2baa_2268;
const TPCB_DIGEST: u64 = 0x3aa8_785c_48df_fbb2;
const TPCB_SHARDED_DIGEST: u64 = 0xe682_0a57_45c2_43b6;
/// Eight read-mix sessions on an eight-shard concurrent engine.
const READMIX_DIGEST: u64 = 0x874a_add0_157b_6f0f;
/// (TPC-C, TPC-B) with die-wise writers and the WAL at batch size 0 or 1.
const DIE_WISE_BATCH_DIGESTS: (u64, u64) = (0x885d_26a0_27e3_ccff, 0x3f84_8adb_7549_82d9);
/// (TPC-C, TPC-B) with batching global writers and the WAL at batch size 0
/// or 1.
const GLOBAL_BATCH_DIGESTS: (u64, u64) = (0xd7e9_e6f3_16b8_095b, 0xe1f9_cf64_10da_1fa1);
/// Quick-scale table text of the figure bins.
const FIG3_DIGEST: u64 = 0x7035_ad49_817e_5f0e;
const FIG4_TPCC_DIGEST: u64 = 0x7494_9603_8ded_b470;
const FIG4_TPCB_DIGEST: u64 = 0xaabe_729d_9909_0c3b;
const FIG4_DEPTH_LINK_DIGEST: u64 = 0x0a99_9906_6f4b_a7ed;
const HEADLINE_DIGEST: u64 = 0xc985_bf4c_6fcb_a9e4;

/// Log segment length (pages) of every run.
const LOG_PAGES: u64 = 32;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// What the digest reads from an engine beyond [`EngineOps`].
trait Probe: EngineOps {
    fn buffer_stats(&self) -> BufferStats;
    fn backend_counters(&self) -> BackendCounters;
    fn with_backend<R>(&mut self, f: impl FnOnce(&mut dyn StorageBackend) -> R) -> R;
}

impl Probe for StorageEngine {
    fn buffer_stats(&self) -> BufferStats {
        StorageEngine::buffer_stats(self)
    }
    fn backend_counters(&self) -> BackendCounters {
        StorageEngine::backend_counters(self)
    }
    fn with_backend<R>(&mut self, f: impl FnOnce(&mut dyn StorageBackend) -> R) -> R {
        f(self.backend_mut())
    }
}

impl Probe for ConcurrentEngine {
    fn buffer_stats(&self) -> BufferStats {
        ConcurrentEngine::buffer_stats(self)
    }
    fn backend_counters(&self) -> BackendCounters {
        ConcurrentEngine::backend_counters(self)
    }
    fn with_backend<R>(&mut self, f: impl FnOnce(&mut dyn StorageBackend) -> R) -> R {
        ConcurrentEngine::with_backend(self, f)
    }
}

fn backend() -> NoFtlBackend {
    // 8 dies, 24 blocks each, 64 pages of 4 KiB: small enough that the runs
    // below reach NoFTL garbage collection.
    let mut noftl = NoFtlConfig::new(FlashGeometry::with_dies(8, 24, 64, 4096));
    noftl.async_queue_depth = 1;
    NoFtlBackend::new(NoFtl::new(noftl))
}

fn config() -> EngineConfig {
    config_with(FlusherAssignment::DieWise, 16, false)
}

fn config_with(
    assignment: FlusherAssignment,
    batch_pages: usize,
    batch_global: bool,
) -> EngineConfig {
    EngineConfig {
        buffer_frames: 48,
        flushers: FlusherConfig {
            writers: 8,
            assignment,
            dirty_high_watermark: 0.30,
            dirty_low_watermark: 0.05,
            batch_pages,
            batch_global,
            async_depth: 1,
        },
        log_pages: LOG_PAGES,
        wal_group_commit: 1,
        readahead_window: 64,
        buffer_hit_ns: 0,
        admission: None,
        slo_scheduling: false,
    }
}

/// Load `workload`, run `txns` transactions from four clients (flushing
/// whenever the dirty watermark trips) and hash the result.
fn digest<E: Probe>(mut engine: E, workload: &mut dyn Workload<E>, txns: usize) -> u64 {
    let mut now: SimInstant = workload.setup(&mut engine, 0).expect("load");
    for i in 0..txns {
        let (end, _) = workload
            .run_transaction(&mut engine, i % 4, now)
            .expect("transaction");
        now = engine.maybe_flush(end).expect("flush");
    }
    let mut h = Fnv::new();
    h.u64(now);
    hash_end_state(&mut engine, &mut h, now, LOG_PAGES);
    h.0
}

/// Hash the buffer-pool counters at `now`, then checkpoint and hash the end
/// time, the backend counters and every page image, the `log_pages` WAL
/// pages first.
fn hash_end_state<E: Probe>(engine: &mut E, h: &mut Fnv, now: SimInstant, log_pages: u64) {
    let stats = engine.buffer_stats();
    for v in [
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.dirty_evictions,
        stats.flushed_by_writers,
    ] {
        h.u64(v);
    }
    let end = engine.checkpoint(now).expect("checkpoint");
    h.u64(end);
    let counters = engine.backend_counters();
    for v in [
        counters.host_reads,
        counters.host_writes,
        counters.internal_copies,
        counters.erases,
        counters.device_copybacks,
    ] {
        h.u64(v);
    }
    engine.with_backend(|backend| {
        let pages = backend.num_pages();
        let mut buf = vec![0u8; backend.page_size()];
        // WAL pages first, then every page of the address space.
        for lpn in (pages - log_pages..pages).chain(0..pages) {
            match backend.read_page(end, lpn, &mut buf) {
                Ok(_) => {
                    h.u64(lpn);
                    h.bytes(&buf);
                }
                Err(_) => h.u64(u64::MAX - lpn),
            }
        }
    });
}

fn tpcc_workload() -> TpcC {
    TpcC::new(TpcCConfig {
        warehouses: 1,
        districts_per_warehouse: 2,
        customers_per_district: 120,
        items: 600,
        seed: 0x601D,
    })
}

fn tpcb_workload() -> TpcB {
    TpcB::new(TpcBConfig {
        scale_factor: 2,
        tellers_per_branch: 10,
        accounts_per_branch: 1_500,
        seed: 0x601D,
    })
}

#[test]
fn tpcc_and_tpcb_on_noftl_match_the_golden_digest() {
    let tpcc = digest(
        StorageEngine::new(Box::new(backend()), config()),
        &mut tpcc_workload(),
        400,
    );
    let tpcb = digest(
        StorageEngine::new(Box::new(backend()), config()),
        &mut tpcb_workload(),
        600,
    );
    // The sharded buffer pool of the concurrent engine, four shards.
    let tpcb_sharded = digest(
        ConcurrentEngine::new(Box::new(backend()), config(), 4),
        &mut tpcb_workload(),
        600,
    );
    assert_eq!(
        (tpcc, tpcb, tpcb_sharded),
        (TPCC_DIGEST, TPCB_DIGEST, TPCB_SHARDED_DIGEST),
        "golden digest moved: (tpcc, tpcb, tpcb_sharded) = \
         ({tpcc:#018x}, {tpcb:#018x}, {tpcb_sharded:#018x})"
    );
}

/// Eight `ScanPointMix` sessions, each on a private table, over one
/// eight-shard concurrent engine at the `readmix-8c` benchmark settings,
/// stepped laggard-first by the deterministic multi-client driver.
fn readmix_digest() -> u64 {
    const SESSIONS: usize = 8;
    let mut noftl = NoFtlConfig::new(geometry_for_pages(SESSIONS as u64 * 540 + 512, 0.55, 8));
    noftl.async_queue_depth = 8;
    let config = EngineConfig {
        buffer_frames: 64 * SESSIONS,
        flushers: FlusherConfig {
            writers: 8,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.5,
            dirty_low_watermark: 0.1,
            batch_pages: DEFAULT_BATCH_PAGES,
            batch_global: false,
            async_depth: 8,
        },
        log_pages: 256,
        wal_group_commit: 64,
        readahead_window: 16,
        buffer_hit_ns: 2_000,
        admission: None,
        slo_scheduling: false,
    };
    let log_pages = config.log_pages;
    let mut engine = ConcurrentEngine::new(
        Box::new(NoFtlBackend::new(NoFtl::new(noftl))),
        config,
        SESSIONS,
    );
    let mixes: Vec<ClientWorkload> = (0..SESSIONS)
        .map(|i| -> ClientWorkload {
            let mut cfg = MixConfig::new(0x601D ^ ((i as u64) << 32));
            // 120 pages a session: the eight tables are twice the pool.
            cfg.rows = 1_200;
            Box::new(ScanPointMix::with_prefix(cfg, format!("c{i}_")))
        })
        .collect();
    let report = MultiClientDriver::new(MultiClientConfig {
        transactions_per_client: 48,
        warmup_per_client: 8,
        mode: DriveMode::Deterministic,
    })
    .run(&engine, mixes, 0)
    .expect("read mix");

    let mut h = Fnv::new();
    let mut now = 0;
    for client in &report.clients {
        h.u64(client.start);
        h.u64(client.end);
        now = now.max(client.end);
        for &(txn, at) in &client.commits {
            h.u64(txn);
            h.u64(at);
        }
    }
    h.u64(now);
    let ra = engine.readahead_stats();
    assert!(ra.prefetch_issued > 0, "the read mix must exercise readahead");
    for v in [
        ra.prefetch_issued,
        ra.prefetch_useful,
        ra.prefetch_wasted,
        ra.window_high_water as u64,
    ] {
        h.u64(v);
    }
    for shard in engine.shard_buffer_stats() {
        for v in [shard.hits, shard.misses, shard.evictions, shard.dirty_evictions] {
            h.u64(v);
        }
    }
    hash_end_state(&mut engine, &mut h, now, log_pages);
    h.0
}

#[test]
fn concurrent_read_mix_matches_the_golden_digest() {
    let got = readmix_digest();
    assert_eq!(
        got, READMIX_DIGEST,
        "golden digest moved: readmix = {got:#018x}"
    );
}

/// The TPC-C and TPC-B digests with `batch_pages` for the db-writers and the
/// WAL alike.
fn batch_digests(assignment: FlusherAssignment, batch_pages: usize) -> (u64, u64) {
    let knobs = Knobs {
        batch_pages,
        ..Knobs::default()
    };
    let engine = || {
        knobs.engine(
            Box::new(backend()),
            config_with(assignment, batch_pages, true),
        )
    };
    (
        digest(engine(), &mut tpcc_workload(), 400),
        digest(engine(), &mut tpcb_workload(), 600),
    )
}

#[test]
fn batching_off_and_batch_size_one_match_the_golden_digest() {
    // Batch size 1 routes every write through the batch API as a one-page
    // run; it must leave the same bytes at the same virtual times as the
    // legacy one-page-per-call path.
    for (assignment, expect) in [
        (FlusherAssignment::DieWise, DIE_WISE_BATCH_DIGESTS),
        (FlusherAssignment::Global, GLOBAL_BATCH_DIGESTS),
    ] {
        for batch_pages in [0, 1] {
            let got = batch_digests(assignment, batch_pages);
            assert_eq!(
                got, expect,
                "{assignment:?} writers, batch size {batch_pages}: (tpcc, tpcb) = {got:#018x?}"
            );
        }
    }
}

fn text_digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}

fn assert_table(name: &str, table: &str, expect: u64) {
    let got = text_digest(table);
    assert_eq!(
        got, expect,
        "{name} table moved: digest {got:#018x}\n{table}"
    );
}

#[test]
fn fig3_table_matches_the_golden_digest() {
    let table = render_fig3(&run_gc_overhead(Scale::Quick, &Knobs::default()));
    assert_table("Figure 3", &table, FIG3_DIGEST);
}

#[test]
fn fig4_tables_match_the_golden_digest() {
    for (benchmark, expect) in [
        (Benchmark::TpcC, FIG4_TPCC_DIGEST),
        (Benchmark::TpcB, FIG4_TPCB_DIGEST),
    ] {
        let table = render_fig4(&run_dbwriter_scaling(
            benchmark,
            Scale::Quick,
            &[1, 2, 4, 8],
            &Knobs::default(),
        ));
        assert_table(benchmark.name(), &table, expect);
    }
    let sweep = render_depth_link_table(&run_depth_link_sweep(8, &[1, 2, 4, 8]));
    assert_table("depth x link", &sweep, FIG4_DEPTH_LINK_DIGEST);
}

#[test]
fn headline_table_matches_the_golden_digest() {
    let table = render_headline(&run_headline(
        Scale::Quick,
        &[Benchmark::TpcC, Benchmark::TpcB],
        &Knobs::default(),
    ));
    assert_table("headline", &table, HEADLINE_DIGEST);
}
