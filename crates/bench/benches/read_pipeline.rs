//! Microbenchmarks of the asynchronous read pipeline (PR 4): reads routed
//! through the per-die command queues, batched die-wise read dispatches, and
//! background-GC interference with foreground reads.
//!
//! Two kinds of numbers, like `flusher_batch`:
//!
//! * **virtual time** — the simulated duration of the mixed read/write
//!   workload, printed once per run as `MIXED_RW_VIRTUAL ...` /
//!   `READ_GC_VIRTUAL ...` so the BENCH json can quote it deterministically;
//! * **real time** — criterion ns/iter of the host-side paths.

use criterion::{criterion_group, criterion_main, Criterion};
use flash_emulator::{EmulatedNativeFlash, HostLink};
use nand_flash::{
    BlockAddr, DeviceConfig, FlashGeometry, NandDevice, NativeFlashInterface, Oob, Ppa,
};
use noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig};
use std::hint::black_box;
use storage_engine::{
    backend::{NoFtlBackend, StorageBackend},
    buffer::BufferPool,
    flusher::{FlusherConfig, FlusherPool},
};

const DIES: u32 = 8;
const DEPTH: usize = 8;
const PAGES_PER_DIE: u64 = 8;

/// Mixed read/write workload: one asynchronous flush cycle of 64 dirty pages
/// (8 per die) with a 64-page read burst against the *other* half of the
/// working set, issued while the flush is still in flight.  `pr4_reads`
/// routes the burst through the batched `read_pages` path (one multi-page
/// read dispatch per die, queued behind the in-flight programs); the PR 3
/// path — the only read shape that code offered — chains each point read on
/// the previous one's completion.  Returns the virtual duration from the
/// post-seed baseline to the completion barrier.
fn mixed_rw_virtual(pr4_reads: bool) -> u64 {
    let geometry = FlashGeometry::with_dies(DIES, 1024, 32, 4096);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.async_queue_depth = DEPTH;
    let noftl = NoFtl::new(cfg);
    let mut backend = NoFtlBackend::new(noftl);
    // Seed the read working set (lpns 64..128).
    let seed: Vec<(u64, Vec<u8>)> = (64..128).map(|l| (l, vec![l as u8; 4096])).collect();
    let batch: Vec<(u64, &[u8])> = seed.iter().map(|(l, d)| (*l, d.as_slice())).collect();
    let t = backend.write_pages(0, &batch).unwrap();
    let t0 = backend.drain(t);

    // Dirty 64 pages (8 per die) and hand them to the async die-wise writers.
    let mut pool = BufferPool::new(256, 4096);
    pool.set_async_depth(DEPTH);
    let mut flushers = FlusherPool::new(FlusherConfig {
        writers: 2,
        assignment: FlusherAssignment::DieWise,
        dirty_high_watermark: 0.1,
        dirty_low_watermark: 0.0,
        batch_pages: 64,
        batch_global: false,
        async_depth: DEPTH,
    });
    for l in 0..(DIES as u64 * PAGES_PER_DIE) {
        pool.new_page(&mut backend, t0, l, |d| d[0] = l as u8).unwrap();
    }
    let submit = flushers.run_cycle(&mut pool, &mut backend, t0).unwrap();

    // The read burst, issued while the flush programs occupy the dies.
    let read_end = if pr4_reads {
        let mut bufs: Vec<Vec<u8>> = (0..64).map(|_| vec![0u8; 4096]).collect();
        let mut reqs: Vec<(u64, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (64 + i as u64, b.as_mut_slice()))
            .collect();
        backend.read_pages(submit, &mut reqs).unwrap()
    } else {
        let mut t = submit;
        let mut buf = vec![0u8; 4096];
        for l in 64..128u64 {
            let c = backend.read_page(t, l, &mut buf).unwrap();
            t = t.max(c.completed_at);
        }
        t
    };
    let end = backend.drain(flushers.drain(submit.max(read_end)));
    end - t0
}

/// Mean/p95 latency of a 64-point-read burst submitted at one instant while
/// a flush wave lands, with GC either active (the device carries an
/// overwrite storm's garbage, so the wave's writes trigger relocations that
/// share the per-die queues) or idle (an identical wave on a clean device).
/// Everything runs at async depth 8.  Returns (mean ns, p95 ns, read
/// stalls, gc page copies in the measured window).
fn read_latency_under_gc(gc_pressure: bool) -> (f64, u64, u64, u64) {
    let geometry = FlashGeometry::with_dies(DIES, 16, 8, 4096);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.op_ratio = 0.40;
    cfg.gc_low_watermark = 2;
    cfg.gc_high_watermark = 3;
    cfg.async_queue_depth = DEPTH;
    let noftl = NoFtl::new(cfg);
    let mut backend = NoFtlBackend::new(noftl);
    let lpns = backend.num_pages();
    let page = |l: u64, tag: u8| vec![tag ^ l as u8; 4096];

    // Seed every logical page.
    let mut now = 0u64;
    let seed: Vec<(u64, Vec<u8>)> = (0..lpns).map(|l| (l, page(l, 0))).collect();
    for chunk in seed.chunks(64) {
        let batch: Vec<(u64, &[u8])> = chunk.iter().map(|(l, d)| (*l, d.as_slice())).collect();
        now = backend.write_pages(now, &batch).unwrap();
    }
    if gc_pressure {
        // Overwrite storm: pile up garbage so the measured wave's writes
        // cross the GC watermarks.
        for round in 1u8..4 {
            let dirty: Vec<(u64, Vec<u8>)> = (0..lpns)
                .filter(|l| l % 3 != 0)
                .map(|l| (l, page(l, round)))
                .collect();
            for chunk in dirty.chunks(64) {
                let batch: Vec<(u64, &[u8])> =
                    chunk.iter().map(|(l, d)| (*l, d.as_slice())).collect();
                now = backend.write_pages(now, &batch).unwrap();
            }
        }
    }
    let t0 = backend.drain(now);
    backend.reset_counters();

    // The measured window: one flush wave over every die, submitted at t0...
    let wave: Vec<(u64, Vec<u8>)> = (0..lpns)
        .filter(|l| l % 2 == 0)
        .map(|l| (l, page(l, 0x40)))
        .collect();
    let batch: Vec<(u64, &[u8])> = wave.iter().map(|(l, d)| (*l, d.as_slice())).collect();
    backend.write_pages(t0, &batch).unwrap();
    // ...and 64 independent point reads of untouched pages, also at t0: each
    // queues behind whatever flush/GC commands occupy its die.
    let mut buf = vec![0u8; 4096];
    for l in (0..lpns).filter(|l| l % 2 == 1).take(64) {
        backend.read_page(t0, l, &mut buf).unwrap();
    }
    let noftl = backend.noftl();
    let stats = noftl.stats();
    let flash = noftl.flash_stats();
    (
        stats.read_latency.mean(),
        stats.read_latency.percentile(0.95),
        flash.read_stalls,
        stats.gc_page_copies,
    )
}

/// Host-link effect on the queued read path: 64 point reads (8 per die)
/// submitted at one instant through the emulated native device, behind a
/// SATA2-NCQ link (32 outstanding, 20 µs per command) or a native link
/// (1024 outstanding, 2 µs).  Device queue depth 8 in both cases — the gap
/// is pure host-interface queueing plus protocol overhead, the §3.2
/// argument behind the Figure 4 depth x link sweep.
fn host_link_read_virtual(link: HostLink) -> u64 {
    let geometry = FlashGeometry::with_dies(DIES, 64, 16, 4096);
    let device = NandDevice::new(DeviceConfig::new(geometry));
    let mut native = EmulatedNativeFlash::new(device, link);
    native.set_queue_depth(DEPTH);
    let data = vec![1u8; 4096];
    // Program 8 pages on every die (one block each), synchronously.
    let mut t = 0u64;
    for die in 0..DIES {
        let block = BlockAddr::new(die, 0, 0, 0);
        let ops: Vec<(Ppa, &[u8], Oob)> = (0..8)
            .map(|p| (block.page(p), data.as_slice(), Oob::data((die * 8 + p) as u64, 0)))
            .collect();
        let c = native.device_mut().program_pages(t, &ops).unwrap();
        t = t.max(c.completed_at);
    }
    let t0 = native.drain(t);
    // 64 independent single-page read submissions, all at t0.
    let mut end = t0;
    let mut buf = vec![0u8; 4096];
    for die in 0..DIES {
        let block = BlockAddr::new(die, 0, 0, 0);
        for p in 0..8 {
            let q = native
                .submit_read_pages(t0, &mut [(block.page(p), buf.as_mut_slice())])
                .unwrap();
            end = end.max(q.completion.completed_at);
        }
    }
    end - t0
}

fn bench_read_pipeline(c: &mut Criterion) {
    // Headline: mixed read/write virtual time, PR 3 chained reads vs PR 4
    // batched queued reads, 8 dies at depth 8.
    let pr3 = mixed_rw_virtual(false);
    let pr4 = mixed_rw_virtual(true);
    println!(
        "MIXED_RW_VIRTUAL dies={DIES} depth={DEPTH} pages_per_die={PAGES_PER_DIE} reads=64 \
         pr3_ns={pr3} pr4_ns={pr4} speedup={:.2}",
        pr3 as f64 / pr4 as f64
    );

    // Read-latency gap, GC on vs off, under async.
    let (idle_mean, idle_p95, idle_stalls, idle_copies) = read_latency_under_gc(false);
    let (gc_mean, gc_p95, gc_stalls, gc_copies) = read_latency_under_gc(true);
    println!(
        "READ_GC_VIRTUAL dies={DIES} depth={DEPTH} reads=64 \
         gc_off_mean_ns={idle_mean:.0} gc_off_p95_ns={idle_p95} gc_off_stalls={idle_stalls} \
         gc_on_mean_ns={gc_mean:.0} gc_on_p95_ns={gc_p95} gc_on_stalls={gc_stalls} \
         gc_on_copies={gc_copies} gap={:.2}",
        gc_mean / idle_mean
    );
    assert_eq!(idle_copies, 0, "the clean device must not GC in the window");

    // Host-link NCQ vs native depth on the same queued read burst.
    let sata = host_link_read_virtual(HostLink::sata2());
    let native = host_link_read_virtual(HostLink::native());
    println!(
        "HOST_LINK_READ_VIRTUAL dies={DIES} depth={DEPTH} reads=64 \
         sata2_ns={sata} native_ns={native} speedup={:.2}",
        sata as f64 / native as f64
    );

    c.bench_function("read_pipeline/mixed_rw_pr3_chained", |b| {
        b.iter(|| black_box(mixed_rw_virtual(false)))
    });
    c.bench_function("read_pipeline/mixed_rw_pr4_batched", |b| {
        b.iter(|| black_box(mixed_rw_virtual(true)))
    });
    c.bench_function("read_pipeline/read_burst_under_gc", |b| {
        b.iter(|| black_box(read_latency_under_gc(true)))
    });
}

criterion_group!(benches, bench_read_pipeline);
criterion_main!(benches);
