//! Golden digest of what the engine leaves on flash.
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
//! flush traffic).  A change that moves any of them fails here.  If the move
//! is intended, replace the constant with the value the failure prints and
//! say why in the change log.

use noftl::nand_flash::FlashGeometry;
use noftl::noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig};
use noftl::sim_utils::time::SimInstant;
use noftl::storage_engine::backend::{BackendCounters, NoFtlBackend, StorageBackend};
use noftl::storage_engine::buffer::BufferStats;
use noftl::storage_engine::{
    ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig, StorageEngine,
};
use noftl::workloads::tpcb::{TpcB, TpcBConfig};
use noftl::workloads::tpcc::{TpcC, TpcCConfig};
use noftl::workloads::workload::Workload;

const TPCC_DIGEST: u64 = 0x5082_1872_2baa_2268;
const TPCB_DIGEST: u64 = 0x3aa8_785c_48df_fbb2;
const TPCB_SHARDED_DIGEST: u64 = 0xe682_0a57_45c2_43b6;

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
    EngineConfig {
        buffer_frames: 48,
        flushers: FlusherConfig {
            writers: 8,
            assignment: FlusherAssignment::DieWise,
            dirty_high_watermark: 0.30,
            dirty_low_watermark: 0.05,
            batch_pages: 16,
            batch_global: false,
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
        for lpn in (pages - LOG_PAGES..pages).chain(0..pages) {
            match backend.read_page(end, lpn, &mut buf) {
                Ok(_) => {
                    h.u64(lpn);
                    h.bytes(&buf);
                }
                Err(_) => h.u64(u64::MAX - lpn),
            }
        }
    });
    h.0
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
    // Library constructors read the `NOFTL_*` knobs; this binary runs only
    // this test, so clearing them here makes the runs hermetic.
    for (key, _) in std::env::vars() {
        if key.starts_with("NOFTL_") {
            std::env::remove_var(key);
        }
    }
    let tpcc = digest(
        StorageEngine::new(Box::new(backend()), config()),
        &mut TpcC::new(TpcCConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 120,
            items: 600,
            seed: 0x601D,
        }),
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
