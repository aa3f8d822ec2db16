//! One repetition of a workload: build the stack, load, warm up, measure a
//! fixed window of transactions, then check the tables.
//!
//! Every repetition of one seed is a pure function of the seed on the
//! virtual clock, so repetitions differ only in host time.

use std::time::Instant;

use flash_emulator::{EmulatedSsd, HostLink};
use ftl::faster::{FasterConfig, FasterFtl};
use ftl::Ftl;
use nand_flash::{BlockAddr, FlashStats, NandDevice, NativeFlashInterface};
use noftl_bench::client_scaling::{MixConfig, ScanPointMix};
use noftl_bench::setup::geometry_for_pages;
use noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig};
use sim_utils::time::SimInstant;
use storage_engine::backend::{BlockDeviceBackend, NoFtlBackend, StorageBackend};
use storage_engine::buffer::BufferStats;
use storage_engine::{
    ClientSession, ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig, FlusherStats,
    ReadaheadStats, StorageEngine,
};
use workloads::{TpcC, TpcCConfig, Workload};

use crate::trace::{self, Span, TimedBackend, TimedOps};

/// The FASTer stack's backend as the engine sees it.
type FasterBackend = BlockDeviceBackend<EmulatedSsd<FasterFtl>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    TpccNoftl,
    TpccFaster,
    Readmix8c,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] = [Self::TpccNoftl, Self::TpccFaster, Self::Readmix8c];

    pub fn name(self) -> &'static str {
        match self {
            Self::TpccNoftl => "tpcc-noftl",
            Self::TpccFaster => "tpcc-faster",
            Self::Readmix8c => "readmix-8c",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one repetition.  [`Plan::full`] is the benchmark; tests shrink it.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: WorkloadKind,
    pub seed: u64,
    /// TPC-C schema (the seed field is overwritten from `seed`).
    pub tpcc: TpcCConfig,
    /// Logical pages the TPC-C device is sized for (at 0.85 utilisation).
    pub tpcc_device_pages: u64,
    /// Rows of each read-mix session's private table.
    pub mix_rows: u64,
    /// Warm-up and measured transactions, summed over all clients.
    pub warmup: u64,
    pub window: u64,
    /// Repetitions, each with its own seed, whose windows pool into one
    /// set of virtual metrics (enough samples for a steady p999).
    pub pooled: u64,
}

/// TPC-C logical clients, interleaved on the virtual clock.
pub const TPCC_CLIENTS: usize = 16;
/// Read-mix sessions of the shared concurrent engine.
pub const MIX_SESSIONS: usize = 8;
const DIES: u32 = 8;

impl Plan {
    pub fn full(workload: WorkloadKind, seed: u64) -> Self {
        let (warmup, window, pooled) = match workload {
            WorkloadKind::TpccNoftl | WorkloadKind::TpccFaster => (4_000, 10_000, 8),
            WorkloadKind::Readmix8c => (800, 24_000, 1),
        };
        Self {
            workload,
            seed,
            tpcc: TpcCConfig {
                warehouses: 12,
                districts_per_warehouse: 10,
                customers_per_district: 300,
                items: 2_000,
                seed: 0,
            },
            tpcc_device_pages: 24_000,
            mix_rows: 2_400,
            warmup,
            window,
            pooled,
        }
    }

    /// The plan of pooled repetition `j`, with its own seed derived from
    /// the benchmark seed.
    pub fn repetition(&self, j: u64) -> Plan {
        Plan {
            seed: mixed(self.seed).wrapping_add(j),
            ..*self
        }
    }
}

/// The engine configuration of a workload, spelled out field by field so no
/// library default (several read the environment) decides it.
pub fn engine_config(workload: WorkloadKind) -> EngineConfig {
    let flushers = |assignment, writers: usize, high, low, async_depth| FlusherConfig {
        writers,
        assignment,
        dirty_high_watermark: high,
        dirty_low_watermark: low,
        batch_pages: storage_engine::backend::DEFAULT_BATCH_PAGES,
        batch_global: false,
        async_depth,
    };
    match workload {
        WorkloadKind::TpccNoftl | WorkloadKind::TpccFaster => EngineConfig {
            buffer_frames: 512,
            flushers: if workload == WorkloadKind::TpccNoftl {
                flushers(FlusherAssignment::DieWise, 8, 0.30, 0.02, 1)
            } else {
                flushers(FlusherAssignment::Global, 8, 0.30, 0.02, 1)
            },
            log_pages: 64,
            wal_group_commit: 1,
            readahead_window: storage_engine::backend::DEFAULT_READAHEAD_WINDOW,
            buffer_hit_ns: 0,
            admission: None,
            slo_scheduling: false,
        },
        WorkloadKind::Readmix8c => EngineConfig {
            buffer_frames: 64 * MIX_SESSIONS,
            flushers: flushers(FlusherAssignment::DieWise, DIES as usize, 0.5, 0.1, 8),
            log_pages: 256,
            wal_group_commit: 64,
            readahead_window: 16,
            buffer_hit_ns: 2_000,
            admission: None,
            slo_scheduling: false,
        },
    }
}

fn noftl_config(workload: WorkloadKind, plan: &Plan) -> NoFtlConfig {
    match workload {
        WorkloadKind::Readmix8c => {
            // ~270 data pages per session plus index and WAL, at 0.55
            // utilisation so the read-only mix never needs GC.
            let pages = MIX_SESSIONS as u64 * 540 + 512;
            let mut cfg = NoFtlConfig::new(geometry_for_pages(pages, 0.55, DIES));
            cfg.async_queue_depth = 8;
            cfg
        }
        _ => NoFtlConfig::new(geometry_for_pages(plan.tpcc_device_pages, 0.85, DIES)),
    }
}

/// A line naming every setting a workload runs with.
pub fn knobs(plan: &Plan) -> String {
    let mut s = format!("{:?}\nengine: {:?}", plan, engine_config(plan.workload));
    if plan.workload != WorkloadKind::TpccFaster {
        let cfg = noftl_config(plan.workload, plan);
        s += &format!(
            "\nnoftl: geometry {:?}, async_queue_depth {}, gc_batch_pages {}, \
             gc_read_heat_penalty {}, gc_schedule_read_occupancy {}, redundancy {:?}, faults none",
            cfg.geometry,
            cfg.async_queue_depth,
            cfg.gc_batch_pages,
            cfg.gc_read_heat_penalty,
            cfg.gc_schedule_read_occupancy,
            cfg.redundancy,
        );
    } else {
        let geometry = geometry_for_pages(plan.tpcc_device_pages, 0.85, DIES);
        s += &format!("\nfaster: geometry {geometry:?}, host link SATA2");
    }
    s
}

/// Window deltas of every counter, by metric name, plus the gauges read at
/// the window's edges.
#[derive(Clone, Debug, PartialEq)]
pub struct Counters {
    pub values: Vec<(&'static str, u64)>,
}

impl Counters {
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn delta(end: &Counters, start: &Counters) -> Counters {
        Counters {
            values: end
                .values
                .iter()
                .zip(&start.values)
                .map(|(&(n, e), &(_, s))| (n, e - s))
                .collect(),
        }
    }
}

/// What one repetition produced.
pub struct Rep {
    /// Build, load and warm-up, host seconds.
    pub setup_s: f64,
    /// The measured window, host seconds.
    pub window_host_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Everything on the virtual clock; equal across repetitions of a seed
    /// and between traced and untraced runs.
    pub virt: Virtual,
    /// Spans of the window (empty when untraced).
    pub spans: Vec<Span>,
    /// Failed correctness checks, as messages.
    pub errors: Vec<String>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Virtual {
    /// Response time of each measured transaction, ns.
    pub samples_ns: Vec<u64>,
    /// Measured window on the virtual clock, ns.
    pub duration_ns: u64,
    pub counters: Counters,
    /// Valid pages over physical pages at the window's start and end.
    pub util_start: f64,
    pub util_end: f64,
    /// Device read/program latency p99 over the repetition, µs (bucket
    /// upper bounds of the device's own histograms).
    pub read_us_p99: u64,
    pub program_us_p99: u64,
    pub device_blocks: u64,
}

impl Virtual {
    fn of_window(
        samples_ns: Vec<u64>,
        duration_ns: u64,
        before: &Snapshot,
        after: &Snapshot,
    ) -> Self {
        Virtual {
            samples_ns,
            duration_ns,
            counters: Counters::delta(&after.counters, &before.counters),
            util_start: before.util,
            util_end: after.util,
            read_us_p99: after.read_us_p99,
            program_us_p99: after.program_us_p99,
            device_blocks: after.device_blocks,
        }
    }
}

/// Run one repetition of `plan`, recording spans over the window if `traced`.
pub fn run(plan: &Plan, traced: bool) -> Rep {
    match plan.workload {
        WorkloadKind::TpccNoftl => {
            let backend = NoFtlBackend::new(NoFtl::new(noftl_config(plan.workload, plan)));
            run_tpcc(plan, traced, backend)
        }
        WorkloadKind::TpccFaster => {
            let geometry = geometry_for_pages(plan.tpcc_device_pages, 0.85, DIES);
            let ssd = EmulatedSsd::new(
                FasterFtl::new(FasterConfig::new(geometry)),
                HostLink::sata2(),
            );
            run_tpcc(plan, traced, BlockDeviceBackend::new(ssd, "ftl-faster"))
        }
        WorkloadKind::Readmix8c => run_mix(plan, traced),
    }
}

/// SplitMix64 finaliser: nearby seeds give unrelated streams.
fn mixed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn laggard(times: &[SimInstant], eligible: impl Fn(usize) -> bool) -> usize {
    (0..times.len())
        .filter(|&i| eligible(i))
        .min_by_key(|&i| times[i])
        .expect("an eligible client")
}

/// Closed-loop TPC-C: 16 logical clients over one engine; the laggard client
/// runs next and a flush cycle stalls every client (write pressure).
fn run_tpcc<B: StorageBackend + 'static>(plan: &Plan, traced: bool, backend: B) -> Rep {
    let setup_clock = Instant::now();
    let engine = StorageEngine::new(
        Box::new(TimedBackend::new(backend)),
        engine_config(plan.workload),
    );
    let mut ops = TimedOps::new(engine);
    let mut workload = TpcC::new(TpcCConfig {
        seed: mixed(plan.seed),
        ..plan.tpcc
    });
    let start = workload.setup(&mut ops, 0).expect("TPC-C load");
    let committed_at_load = ops.committed();
    let mut clients = vec![start; TPCC_CLIENTS];
    let mut attempted = 0;
    let mut failed = 0;
    let mut samples = Vec::with_capacity(plan.window as usize);

    let mut step = |ops: &mut TimedOps<StorageEngine>, clients: &mut [SimInstant], record: bool| {
        let c = laggard(clients, |_| true);
        let now = clients[c];
        attempted += 1;
        trace::set_txn(attempted as u32);
        let result = trace::span(
            trace::Op::Txn,
            now,
            0,
            || workload.run_transaction(ops, c, now),
            |r| r.as_ref().map_or(now, |(end, _)| *end),
        );
        let end = match result {
            Ok((end, _)) => end,
            Err(_) => {
                failed += 1;
                return;
            }
        };
        if record {
            samples.push(end - now);
        }
        clients[c] = end;
        match ops.maybe_flush(end) {
            Ok(flush_end) if flush_end > end => {
                for t in clients.iter_mut() {
                    *t = (*t).max(flush_end);
                }
            }
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    };

    for _ in 0..plan.warmup {
        step(&mut ops, &mut clients, false);
    }
    let measure_start = *clients.iter().max().expect("clients");
    clients.fill(measure_start);
    let setup_s = setup_clock.elapsed().as_secs_f64();

    let before = snapshot_storage(ops.inner());
    if traced {
        trace::start_recording();
    }
    let window_clock = Instant::now();
    for _ in 0..plan.window {
        step(&mut ops, &mut clients, true);
    }
    let window_host_s = window_clock.elapsed().as_secs_f64();
    let spans = if traced {
        trace::stop_recording()
    } else {
        Vec::new()
    };
    let measure_end = *clients.iter().max().expect("clients");
    let after = snapshot_storage(ops.inner());

    let mut errors = Vec::new();
    let committed = ops.committed() - committed_at_load;
    if committed != plan.warmup + plan.window {
        errors.push(format!(
            "committed {committed} transactions, expected {} warm-up + {} measured",
            plan.warmup, plan.window
        ));
    }
    check_tables(&mut ops, measure_end, &mut errors);

    Rep {
        setup_s,
        window_host_s,
        attempted: attempted - plan.warmup,
        failed,
        virt: Virtual::of_window(samples, measure_end - measure_start, &before, &after),
        spans,
        errors,
    }
}

/// The read mix: 8 sessions of one concurrent engine, each on a private
/// table, stepped laggard-first on one OS thread.
fn run_mix(plan: &Plan, traced: bool) -> Rep {
    let setup_clock = Instant::now();
    let backend = NoFtlBackend::new(NoFtl::new(noftl_config(plan.workload, plan)));
    let engine = ConcurrentEngine::new(
        Box::new(TimedBackend::new(backend)),
        engine_config(plan.workload),
        MIX_SESSIONS,
    );
    let mut sessions: Vec<TimedOps<ClientSession>> = (0..MIX_SESSIONS)
        .map(|_| TimedOps::new(engine.session()))
        .collect();
    let mut mixes: Vec<ScanPointMix> = (0..MIX_SESSIONS)
        .map(|i| {
            let mut cfg = MixConfig::new(mixed(plan.seed ^ ((i as u64) << 32)));
            cfg.rows = plan.mix_rows;
            ScanPointMix::with_prefix(cfg, format!("c{i}_"))
        })
        .collect();
    let mut t = 0;
    for (mix, session) in mixes.iter_mut().zip(sessions.iter_mut()) {
        t = mix.setup(session, t).expect("read-mix load");
    }
    let committed_at_load = engine.committed();
    let mut clients = vec![t; MIX_SESSIONS];
    let mut attempted = 0;
    let mut failed = 0;
    let mut samples = Vec::with_capacity(plan.window as usize);
    let per_session = |n: u64| n / MIX_SESSIONS as u64;

    // As in `MultiClientDriver`: the warm-up always steps the laggard; the
    // window gives every session the same number of transactions.
    let mut phase = |clients: &mut [SimInstant], txns: u64, record: bool| {
        let mut done = [0u64; MIX_SESSIONS];
        for _ in 0..per_session(txns) * MIX_SESSIONS as u64 {
            let c = laggard(clients, |i| !record || done[i] < per_session(txns));
            let now = clients[c];
            attempted += 1;
            done[c] += 1;
            trace::set_txn(attempted as u32);
            let result = trace::span(
                trace::Op::Txn,
                now,
                0,
                || mixes[c].run_transaction(&mut sessions[c], c, now),
                |r| r.as_ref().map_or(now, |(end, _)| *end),
            );
            let Ok((end, _)) = result else {
                failed += 1;
                continue;
            };
            if record {
                samples.push(end - now);
            }
            match sessions[c].maybe_flush(end) {
                Ok(flush_end) => clients[c] = flush_end.max(end),
                Err(_) => failed += 1,
            }
        }
    };

    phase(&mut clients, plan.warmup, false);
    let measure_start = *clients.iter().max().expect("sessions");
    clients.fill(measure_start);
    let setup_s = setup_clock.elapsed().as_secs_f64();

    let before = snapshot_concurrent(&engine);
    if traced {
        trace::start_recording();
    }
    let window_clock = Instant::now();
    phase(&mut clients, plan.window, true);
    let window_host_s = window_clock.elapsed().as_secs_f64();
    let spans = if traced {
        trace::stop_recording()
    } else {
        Vec::new()
    };
    let measure_end = *clients.iter().max().expect("sessions");
    let after = snapshot_concurrent(&engine);

    let mut errors = Vec::new();
    let measured = per_session(plan.window) * MIX_SESSIONS as u64;
    let warm = per_session(plan.warmup) * MIX_SESSIONS as u64;
    let committed = engine.committed() - committed_at_load;
    if committed != warm + measured {
        errors.push(format!(
            "committed {committed} transactions, expected {warm} warm-up + {measured} measured"
        ));
    }
    for session in sessions.iter_mut() {
        check_tables(session, measure_end, &mut errors);
    }

    Rep {
        setup_s,
        window_host_s,
        attempted: attempted - warm,
        failed,
        virt: Virtual::of_window(samples, measure_end - measure_start, &before, &after),
        spans,
        errors,
    }
}

/// Checkpoint, then scan every table created through `ops` and compare its
/// row count with the inserts minus deletes the wrapper counted.
fn check_tables<E: EngineOps>(ops: &mut TimedOps<E>, now: SimInstant, errors: &mut Vec<String>) {
    let now = match ops.checkpoint(now) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("checkpoint failed: {e}"));
            return;
        }
    };
    let expected: Vec<(String, u64)> = ops
        .expected_rows()
        .iter()
        .map(|(t, n)| (t.clone(), *n))
        .collect();
    for (table, rows) in expected {
        match ops.scan(&table, now, &mut |_, _| {}) {
            Ok((n, _)) if n == rows => {}
            Ok((n, _)) => errors.push(format!(
                "table {table}: scan found {n} rows, expected {rows}"
            )),
            Err(e) => errors.push(format!("table {table}: scan failed: {e}")),
        }
    }
}

struct Snapshot {
    counters: Counters,
    util: f64,
    read_us_p99: u64,
    program_us_p99: u64,
    device_blocks: u64,
}

fn snapshot_storage(engine: &StorageEngine) -> Snapshot {
    snapshot(
        engine.buffer_stats(),
        engine.readahead_stats(),
        engine.flusher_stats(),
        engine.log_forces(),
        engine.wal().log_writes(),
        engine.backend(),
    )
}

fn snapshot_concurrent(engine: &ConcurrentEngine) -> Snapshot {
    let log_writes = engine.with_wal(|w| w.log_writes());
    let (buffer, readahead, flusher) = (
        engine.buffer_stats(),
        engine.readahead_stats(),
        engine.flusher_stats(),
    );
    let forces = engine.log_forces();
    engine.with_backend(|b| snapshot(buffer, readahead, flusher, forces, log_writes, b))
}

fn snapshot(
    buffer: BufferStats,
    readahead: ReadaheadStats,
    flusher: FlusherStats,
    forces: u64,
    log_writes: u64,
    backend: &dyn StorageBackend,
) -> Snapshot {
    let mut values = vec![
        ("buffer.hits", buffer.hits),
        ("buffer.misses", buffer.misses),
        ("buffer.evictions", buffer.evictions),
        ("buffer.dirty_evictions", buffer.dirty_evictions),
        ("readahead.issued", readahead.prefetch_issued),
        ("readahead.useful", readahead.prefetch_useful),
        ("readahead.wasted", readahead.prefetch_wasted),
        ("wal.forces", forces),
        ("wal.log_writes", log_writes),
        ("flusher.cycles", flusher.cycles),
        ("flusher.pages", flusher.pages_flushed),
        ("flusher.batch_submissions", flusher.batch_submissions),
    ];
    let any = backend
        .as_any()
        .expect("the timing wrapper always downcasts");
    let (device, flash): (&NandDevice, &FlashStats) =
        if let Some(b) = any.downcast_ref::<NoFtlBackend>() {
            let n = b.noftl().stats();
            values.extend([
                ("noftl.host_writes", n.host_writes),
                ("noftl.gc_page_copies", n.gc_page_copies),
                ("noftl.gc_erases", n.gc_erases),
                ("noftl.gc_stalls", n.gc_stalls),
                ("noftl.gc_dead_skipped", n.gc_dead_skipped),
                ("noftl.wear_migrations", n.wear_migrations),
            ]);
            (b.noftl().device(), b.noftl().flash_stats())
        } else if let Some(b) = any.downcast_ref::<TimedBackend<FasterBackend>>() {
            let ftl = b.inner().device().ftl();
            let f = ftl.ftl_stats();
            values.extend([
                ("ftl.host_writes", f.host_writes),
                ("ftl.gc_page_copies", f.gc_page_copies),
                ("ftl.gc_erases", f.gc_erases),
                ("ftl.full_merges", f.full_merges),
                ("ftl.partial_merges", f.partial_merges),
                ("ftl.switch_merges", f.switch_merges),
                ("ftl.translation_reads", f.translation_reads),
                ("ftl.translation_writes", f.translation_writes),
                ("ftl.gc_stalls", f.gc_stalls),
            ]);
            (ftl.device(), ftl.flash_stats())
        } else {
            panic!("unexpected backend {}", backend.name());
        };
    values.extend([
        ("nand.reads", flash.reads),
        ("nand.programs", flash.programs),
        ("nand.erases", flash.erases),
        ("nand.copybacks", flash.copybacks),
        ("nand.multi_page_dispatches", flash.multi_page_dispatches),
        (
            "nand.multi_page_read_dispatches",
            flash.multi_page_read_dispatches,
        ),
        ("nand.queued_submissions", flash.queued_submissions),
        (
            "nand.queue_gated_submissions",
            flash.queue_gated_submissions,
        ),
        ("nand.read_stalls", flash.read_stalls),
    ]);
    let g = *device.geometry();
    let mut valid = 0u64;
    for channel in 0..g.channels {
        for die in 0..g.dies_per_channel {
            for plane in 0..g.planes_per_die {
                for block in 0..g.blocks_per_plane {
                    let info = device
                        .block_info(BlockAddr::new(channel, die, plane, block))
                        .expect("block inside the geometry");
                    valid += info.valid_pages as u64;
                }
            }
        }
    }
    Snapshot {
        counters: Counters { values },
        util: valid as f64 / g.total_pages() as f64,
        read_us_p99: flash.read_latency.percentile(0.99) / 1_000,
        program_us_p99: flash.program_latency.percentile(0.99) / 1_000,
        device_blocks: g.total_blocks(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{
        BenchmarkDriver, ClientWorkload, DriveMode, DriverConfig, MultiClientConfig,
        MultiClientDriver,
    };

    /// The full plans with fewer warehouses and transactions; the data
    /// still exceeds the buffer pool, so the device is on the path.
    fn small(workload: WorkloadKind) -> Plan {
        let full = Plan::full(workload, 3);
        Plan {
            tpcc: TpcCConfig {
                warehouses: 2,
                ..full.tpcc
            },
            tpcc_device_pages: 6_000,
            warmup: 32,
            window: 160,
            ..full
        }
    }

    #[test]
    fn tracing_leaves_the_virtual_clock_and_device_untouched() {
        for workload in WorkloadKind::ALL {
            let plan = small(workload).repetition(0);
            let plain = run(&plan, false);
            let traced = run(&plan, true);
            assert!(
                plain.errors.is_empty(),
                "{}: {:?}",
                workload.name(),
                plain.errors
            );
            assert_eq!(plain.failed, 0);
            assert!(plain.spans.is_empty());
            assert!(!traced.spans.is_empty(), "{}: no spans", workload.name());
            assert!(plain.virt.counters.get("nand.reads") > 0);
            assert_eq!(plain.virt, traced.virt, "{}", workload.name());
        }
    }

    /// The benchmark's drivers and wrappers against the library's own
    /// drivers on bare engines: the same virtual duration and latencies, so
    /// the wrappers take the untraced I/O path and the loops match.
    #[test]
    fn runs_match_the_library_drivers_on_bare_engines() {
        for workload in [WorkloadKind::TpccNoftl, WorkloadKind::TpccFaster] {
            let plan = small(workload).repetition(0);
            let rep = run(&plan, false);
            let geometry = geometry_for_pages(plan.tpcc_device_pages, 0.85, DIES);
            let backend: Box<dyn StorageBackend> = if workload == WorkloadKind::TpccNoftl {
                Box::new(NoFtlBackend::new(NoFtl::new(noftl_config(workload, &plan))))
            } else {
                let ssd = EmulatedSsd::new(
                    FasterFtl::new(FasterConfig::new(geometry)),
                    HostLink::sata2(),
                );
                Box::new(BlockDeviceBackend::new(ssd, "ftl-faster"))
            };
            let mut engine = StorageEngine::new(backend, engine_config(workload));
            let mut tpcc = TpcC::new(TpcCConfig {
                seed: mixed(plan.seed),
                ..plan.tpcc
            });
            let start = tpcc.setup(&mut engine, 0).expect("load");
            let driver = BenchmarkDriver::new(DriverConfig {
                clients: TPCC_CLIENTS,
                transactions: plan.window,
                warmup_transactions: plan.warmup,
                stall_all_on_flush: true,
            });
            let report = driver.run(&mut engine, &mut tpcc, start).expect("run");
            let samples = &rep.virt.samples_ns;
            assert_eq!(
                report.duration_ns,
                rep.virt.duration_ns,
                "{}",
                workload.name()
            );
            assert_eq!(report.response_time.count(), samples.len() as u64);
            assert_eq!(report.response_time.max(), *samples.iter().max().unwrap());
            let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
            assert!((report.response_time.mean() - mean).abs() < 1e-6 * mean);
        }

        let plan = small(WorkloadKind::Readmix8c).repetition(0);
        let rep = run(&plan, false);
        let backend = NoFtlBackend::new(NoFtl::new(noftl_config(plan.workload, &plan)));
        let engine = ConcurrentEngine::new(
            Box::new(backend),
            engine_config(plan.workload),
            MIX_SESSIONS,
        );
        let mixes: Vec<ClientWorkload> = (0..MIX_SESSIONS)
            .map(|i| -> ClientWorkload {
                let mut cfg = MixConfig::new(mixed(plan.seed ^ ((i as u64) << 32)));
                cfg.rows = plan.mix_rows;
                Box::new(ScanPointMix::with_prefix(cfg, format!("c{i}_")))
            })
            .collect();
        let driver = MultiClientDriver::new(MultiClientConfig {
            transactions_per_client: plan.window / MIX_SESSIONS as u64,
            warmup_per_client: plan.warmup / MIX_SESSIONS as u64,
            mode: DriveMode::Deterministic,
        });
        let report = driver.run(&engine, mixes, 0).expect("run");
        assert_eq!(report.duration_ns, rep.virt.duration_ns);
        assert_eq!(report.transactions, rep.virt.samples_ns.len() as u64);
    }

    #[test]
    fn pooled_repetitions_get_distinct_seeds() {
        let plan = small(WorkloadKind::Readmix8c);
        let a = run(&plan.repetition(0), false);
        let b = run(&plan.repetition(1), false);
        assert_ne!(a.virt.samples_ns, b.virt.samples_ns);
    }
}
