//! Golden-trace equivalence of the batched multi-page write path and the
//! asynchronous per-die command queues.
//!
//! The batch write protocol promises that batching **off** (legacy
//! one-`write_page`-per-page everywhere) and batching **on with batch size
//! 1** (every write routed through the `write_pages` API as a degenerate
//! single-page run) are indistinguishable: same emulator command traces,
//! same timing.  Larger batch sizes may change *timing* (that is the point)
//! but never page *contents*.  (`tests/golden_digest.rs` pins the same
//! promise on whole TPC-C and TPC-B runs.)
//!
//! The asynchronous submission protocol makes the same promise for the
//! async depth: depth 1 — every submission waits for its predecessor — is
//! bit- and cycle-identical to the synchronous dispatch; deeper windows may
//! change timing but never contents, and a crash with commands still in
//! flight recovers exactly the durable prefix.
//!
//! Every test configures its stack explicitly; the `*_unset_vs_off` legs
//! compare the plain constructors against the same stack with a
//! [`Knobs`] value parsed from an `off` spelling applied.  The `fig3_*` and
//! `fig4_*` legs make the same comparisons on whole figures, through the
//! library entry points the `fig3_gc_overhead` and `fig4_dbwriters` bins
//! print.

use noftl::nand_flash::{DeviceConfig, FlashGeometry, NandDevice};
use noftl::noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig};
use noftl::storage_engine::backend::{Knobs, NoFtlBackend, StorageBackend};
use noftl::storage_engine::flusher::{FlusherConfig, FlusherPool};
use noftl::storage_engine::BufferPool;

/// Run two die-wise flush cycles over a traced device and return
/// (command trace, per-page readback, completion barrier).  `async_depth` 1
/// is the synchronous dispatch; deeper windows submit through the per-die
/// command queues.
fn traced_flush_cycles(batch_pages: usize, async_depth: usize) -> (Vec<String>, Vec<Vec<u8>>, u64) {
    traced_flush_cycles_on(batch_pages, async_depth, NoFtlBackend::new)
}

/// [`traced_flush_cycles`] with the NoFTL instance wrapped by `wrap`.
fn traced_flush_cycles_on(
    batch_pages: usize,
    async_depth: usize,
    wrap: impl FnOnce(NoFtl) -> NoFtlBackend,
) -> (Vec<String>, Vec<Vec<u8>>, u64) {
    let geometry = FlashGeometry::with_dies(4, 256, 32, 4096);
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 4096;
    let device = NandDevice::new(dev_cfg);
    let noftl = NoFtl::with_device(device, NoFtlConfig::new(geometry));
    let mut backend = wrap(noftl);
    backend.set_async_depth(async_depth);

    let mut pool = BufferPool::new(128, 4096);
    for p in 0..48u64 {
        pool.new_page(&mut backend, 0, p, |d| {
            d[0] = p as u8;
            d[4095] = !(p as u8);
        })
        .unwrap();
    }
    let mut flushers = FlusherPool::new(FlusherConfig {
        writers: 2,
        assignment: FlusherAssignment::DieWise,
        dirty_high_watermark: 0.1,
        dirty_low_watermark: 0.0,
        batch_pages,
        batch_global: false,
        async_depth,
    });
    let t = flushers.run_cycle(&mut pool, &mut backend, 0).unwrap();
    // A second cycle over re-dirtied pages: under the asynchronous model its
    // submissions pipeline behind the first cycle's on the device queues.
    for p in 0..48u64 {
        pool.new_page(&mut backend, 0, p, |d| {
            d[0] = p as u8 ^ 0x80;
            d[4095] = !(p as u8) ^ 0x80;
        })
        .unwrap();
    }
    let t = flushers.run_cycle(&mut pool, &mut backend, t).unwrap();
    let end = backend.drain(flushers.drain(t));

    let trace: Vec<String> = backend
        .noftl()
        .device()
        .tracer()
        .entries()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    let mut contents = Vec::new();
    let mut buf = vec![0u8; 4096];
    for p in 0..48u64 {
        backend.noftl_mut().read(end, p, &mut buf).unwrap();
        contents.push(buf.clone());
    }
    (trace, contents, end)
}

/// The single-cycle fixture used by the PR 2 batch-equivalence legs.
fn traced_flush_cycle(batch_pages: usize) -> (Vec<String>, Vec<Vec<u8>>, u64) {
    traced_flush_cycles(batch_pages, 1)
}

#[test]
fn emulator_command_traces_identical_for_off_vs_batch_size_one() {
    let (trace_off, contents_off, end_off) = traced_flush_cycle(0);
    let (trace_one, contents_one, end_one) = traced_flush_cycle(1);
    assert!(!trace_off.is_empty());
    assert_eq!(
        trace_off, trace_one,
        "device command traces must be identical (commands, addresses, timing)"
    );
    assert_eq!(contents_off, contents_one);
    assert_eq!(end_off, end_one);
}

#[test]
fn page_contents_identical_for_all_batch_sizes() {
    let (_, reference, _) = traced_flush_cycle(0);
    for batch_pages in [1usize, 2, 3, 8, 64] {
        let (_, contents, _) = traced_flush_cycle(batch_pages);
        assert_eq!(
            contents, reference,
            "batch size {batch_pages} changed page contents"
        );
    }
}

#[test]
fn emulator_command_traces_identical_with_faults_unset_vs_off() {
    // Stronger than figure identity: the device-level command stream — every
    // opcode, address, issue and completion stamp — must match cycle for
    // cycle with the fault knob explicitly off.
    let off = Knobs::from_vars([("NOFTL_FAULTS", "off")]);
    let (trace_unset, contents_unset, end_unset) = traced_flush_cycles(64, 1);
    let (trace_off, contents_off, end_off) =
        traced_flush_cycles_on(64, 1, |n| off.noftl_backend(n));
    assert!(!trace_unset.is_empty());
    assert_eq!(trace_unset, trace_off);
    assert_eq!(contents_unset, contents_off);
    assert_eq!(end_unset, end_off);
}

#[test]
fn emulator_command_traces_identical_for_sync_vs_async_depth_one() {
    // Depth 1 must be cycle-identical to the synchronous dispatch: same
    // commands, same addresses, same issue and completion stamps — across
    // *two* flush cycles, where a deeper window would start pipelining.
    let (trace_sync, contents_sync, end_sync) = traced_flush_cycles(64, 1);
    let one = Knobs::from_vars([("NOFTL_ASYNC", "1")]).async_depth;
    let (trace_one, contents_one, end_one) = traced_flush_cycles(64, one);
    assert!(!trace_sync.is_empty());
    assert_eq!(trace_sync, trace_one);
    assert_eq!(contents_sync, contents_one);
    assert_eq!(end_sync, end_one);
}

#[test]
fn page_contents_identical_for_all_async_depths() {
    // Deeper queues change timing (that is the point) but never contents.
    let (_, reference, end_sync) = traced_flush_cycles(64, 1);
    for depth in [2usize, 4, 8, 16] {
        let (_, contents, end) = traced_flush_cycles(64, depth);
        assert_eq!(contents, reference, "async depth {depth} changed page contents");
        assert!(
            end <= end_sync,
            "async depth {depth} must never be slower than sync ({end} vs {end_sync})"
        );
    }
    // And the second cycle genuinely pipelines: depth 8 beats sync.
    let (_, _, end_async) = traced_flush_cycles(64, 8);
    assert!(
        end_async < end_sync,
        "two async cycles must overlap on the device: {end_async} vs {end_sync}"
    );
}

/// Mixed read/write fixture with real GC pressure: a small over-provisioned
/// device, repeated skewed overwrite waves (which cross the GC watermarks and
/// force relocations) flushed by die-wise writers, interleaved with batched
/// miss-fill reads ([`BufferPool::prefetch`]) and point reads.  The driver is
/// poll-driven: reads return completion tickets that are collected, not
/// chained, and the final barrier is the quiesce over all windows and queues.
/// Returns (command trace, final per-lpn contents, completion barrier).
fn traced_mixed_read_write(async_depth: usize) -> (Vec<String>, Vec<Vec<u8>>, u64) {
    let geometry = FlashGeometry::with_dies(4, 16, 8, 2048);
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 1 << 16;
    let device = NandDevice::new(dev_cfg);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.op_ratio = 0.40;
    cfg.gc_low_watermark = 2;
    cfg.gc_high_watermark = 3;
    cfg.async_queue_depth = async_depth;
    let noftl = NoFtl::with_device(device, cfg);
    let mut backend = NoFtlBackend::new(noftl);

    let lpns = backend.num_pages();
    let page_size = backend.page_size();
    let mut pool = BufferPool::new(96, page_size);
    pool.set_async_depth(async_depth);
    let mut flushers = FlusherPool::new(FlusherConfig {
        writers: 2,
        assignment: FlusherAssignment::DieWise,
        dirty_high_watermark: 0.1,
        dirty_low_watermark: 0.0,
        batch_pages: 16,
        batch_global: false,
        async_depth,
    });

    let mut now = 0u64;
    let mut read_horizon = 0u64;
    for round in 0u8..6 {
        // Dirty this round's pages in waves and flush each wave.  Under async
        // the cycle returns its submission time, so successive waves pipeline
        // on the per-die queues; at depth 1 every wave waits (sync).
        let targets: Vec<u64> = (0..lpns)
            .filter(|l| round == 0 || l % 3 != 0)
            .collect();
        for wave in targets.chunks(64) {
            for &l in wave {
                pool.new_page(&mut backend, now, l, |d| {
                    d[0] = round ^ l as u8;
                    d[page_size - 1] = !(round ^ l as u8);
                })
                .unwrap();
            }
            now = flushers.run_cycle(&mut pool, &mut backend, now).unwrap();
        }
        // Batched miss fills of a rotating subset, submitted at the driver's
        // clock while this round's writes may still be in flight on the
        // queues; their completion tickets are collected, not chained.
        let subset: Vec<u64> = (0..lpns).filter(|l| l % 5 == (round as u64) % 5).collect();
        let done = pool.prefetch(&mut backend, now, &subset).unwrap();
        read_horizon = read_horizon.max(done);
        // A few point reads straight through the backend.
        let mut buf = vec![0u8; page_size];
        for l in (0..lpns).step_by(37) {
            let c = backend.read_page(now, l, &mut buf).unwrap();
            read_horizon = read_horizon.max(c.completed_at);
        }
    }
    // Quiesce: flusher windows, pool read window, device queues.
    let t = flushers.drain(now.max(read_horizon));
    let t = pool.drain_reads(t);
    let end = backend.drain(t);
    pool.flush_all(&mut backend, end).unwrap();
    let end = backend.drain(end);

    let trace: Vec<String> = backend
        .noftl()
        .device()
        .tracer()
        .entries()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    let mut contents = Vec::new();
    let mut buf = vec![0u8; page_size];
    for l in 0..lpns {
        backend.noftl_mut().read(end, l, &mut buf).unwrap();
        contents.push(buf.clone());
    }
    (trace, contents, end)
}

#[test]
fn read_command_traces_identical_for_sync_vs_async_depth_one() {
    // Depth 1 must be cycle-identical to the synchronous dispatch on a mixed
    // read/write workload with GC running: same commands, same addresses,
    // same stamps — for reads, programs, erases and relocations alike.
    let (trace_sync, contents_sync, end_sync) = traced_mixed_read_write(1);
    let one = Knobs::from_vars([("NOFTL_ASYNC", "1")]).async_depth;
    let (trace_one, contents_one, end_one) = traced_mixed_read_write(one);
    assert!(!trace_sync.is_empty());
    assert!(
        trace_sync.iter().any(|e| e.contains("Read")),
        "fixture must issue reads"
    );
    assert!(
        trace_sync.iter().any(|e| e.contains("Erase")),
        "fixture must trigger GC"
    );
    assert_eq!(trace_sync, trace_one);
    assert_eq!(contents_sync, contents_one);
    assert_eq!(end_sync, end_one);
}

#[test]
fn page_contents_identical_for_all_async_read_depths_with_concurrent_gc() {
    // Deeper queues change timing (that is the point) but never contents —
    // even with GC relocating pages between and under the reads.
    let (_, reference, end_sync) = traced_mixed_read_write(1);
    for depth in [2usize, 4, 8, 16] {
        let (_, contents, end) = traced_mixed_read_write(depth);
        assert_eq!(
            contents, reference,
            "async depth {depth} changed page contents under GC"
        );
        assert!(
            end <= end_sync,
            "async depth {depth} must never be slower than sync ({end} vs {end_sync})"
        );
    }
    let (_, _, end_async) = traced_mixed_read_write(8);
    assert!(
        end_async < end_sync,
        "the mixed workload must genuinely overlap under async: {end_async} vs {end_sync}"
    );
}

/// Heap-scan fixture over a traced NoFTL device: seeds a heap file of `pages`
/// slotted pages (several records each), checkpoints it to the backend, then
/// runs one full scan through a [`ScanPrefetcher`] with the given window cap
/// at the given async depth.  Returns (visit sequence, device command trace
/// of the scan, scan end time).
fn traced_heap_scan(
    window: usize,
    async_depth: usize,
) -> (Vec<(u64, u16, u8)>, Vec<String>, u64) {
    use noftl::storage_engine::free_space::FreeSpaceManager;
    use noftl::storage_engine::readahead::ScanPrefetcher;
    use noftl::storage_engine::{HeapFile, WalManager};

    let geometry = FlashGeometry::with_dies(4, 64, 32, 4096);
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 1 << 16;
    let device = NandDevice::new(dev_cfg);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.async_queue_depth = async_depth;
    let noftl = NoFtl::with_device(device, cfg);
    let mut backend = NoFtlBackend::new(noftl);

    let mut pool = BufferPool::new(24, 4096);
    pool.set_async_depth(async_depth);
    let mut fsm = FreeSpaceManager::new(0, 2000);
    let mut wal = WalManager::new(2000, 64, 4096);
    let mut heap = HeapFile::new("t");
    let mut now = 0u64;
    for i in 0..600u64 {
        let mut rec = vec![0u8; 800];
        rec[..8].copy_from_slice(&i.to_le_bytes());
        rec[8] = i as u8;
        let (_, t) = heap
            .insert(&mut pool, &mut backend, &mut fsm, &mut wal, 1, now, &rec)
            .unwrap();
        now = t;
    }
    now = pool.flush_all(&mut backend, now).unwrap();
    let t0 = backend.drain(pool.drain_reads(now));
    let trace_before = backend.noftl().device().tracer().entries().len();

    let mut ra = ScanPrefetcher::new(window, async_depth);
    let mut seen: Vec<(u64, u16, u8)> = Vec::new();
    let (count, end) = heap
        .scan_with_readahead(&mut pool, &mut backend, &mut ra, t0, |rid, r| {
            seen.push((rid.page, rid.slot, r[8]));
        })
        .unwrap();
    assert_eq!(count, 600);
    let end = backend.drain(pool.drain_reads(end));
    let trace: Vec<String> = backend
        .noftl()
        .device()
        .tracer()
        .entries()
        .iter()
        .skip(trace_before)
        .map(|e| format!("{e:?}"))
        .collect();
    (seen, trace, end - t0)
}

#[test]
fn heap_scan_readahead_off_and_depth_one_are_cycle_identical_to_frame_at_a_time() {
    // Window 0 (readahead off) and window > 0 at depth 1 must both be
    // command- and cycle-identical to the frame-at-a-time scan: same device
    // commands, same addresses, same stamps, same scan duration.
    let (seq_base, trace_base, dur_base) = traced_heap_scan(0, 1);
    assert!(!trace_base.is_empty(), "the scan must read from the device");
    for (window, depth, label) in [
        (64, 1, "window 64 / depth 1"),
        (0, 8, "window 0 / depth 8"),
    ] {
        let (seq, trace, dur) = traced_heap_scan(window, depth);
        assert_eq!(seq, seq_base, "{label} changed the visit sequence");
        if depth == 1 {
            assert_eq!(trace, trace_base, "{label} changed the device trace");
            assert_eq!(dur, dur_base, "{label} changed the scan duration");
        }
    }
    // Window 0 at depth 8 is the frame-at-a-time path of *that* depth: its
    // trace must equal a second run of itself (determinism) and its visit
    // sequence the baseline's.
    let (seq_a, trace_a, dur_a) = traced_heap_scan(0, 8);
    let (seq_b, trace_b, dur_b) = traced_heap_scan(0, 8);
    assert_eq!(seq_a, seq_b);
    assert_eq!(trace_a, trace_b);
    assert_eq!(dur_a, dur_b);
    assert_eq!(seq_a, seq_base);
}

#[test]
fn heap_scan_readahead_visits_identical_sequence_at_any_window_and_depth() {
    let (seq_base, _, dur_base) = traced_heap_scan(0, 1);
    for window in [4usize, 16, 64] {
        for depth in [2usize, 4, 8] {
            let (seq, _, dur) = traced_heap_scan(window, depth);
            assert_eq!(
                seq, seq_base,
                "window {window} depth {depth} changed the record sequence"
            );
            assert!(
                dur <= dur_base,
                "readahead must never slow a scan down (window {window} depth {depth}: {dur} vs {dur_base})"
            );
        }
    }
    // And the streaming pipeline genuinely overlaps: the widest window at
    // depth 8 strictly beats frame-at-a-time.
    let (_, _, dur_ra) = traced_heap_scan(64, 8);
    assert!(
        dur_ra < dur_base,
        "readahead at 4 dies depth 8 must beat frame-at-a-time: {dur_ra} vs {dur_base}"
    );
}

#[test]
fn btree_range_readahead_visits_identical_key_sequence() {
    use noftl::storage_engine::free_space::FreeSpaceManager;
    use noftl::storage_engine::readahead::ScanPrefetcher;
    use noftl::storage_engine::btree::BTree;

    let run = |window: usize, depth: usize| -> (Vec<(u64, u64)>, u64) {
        let geometry = FlashGeometry::with_dies(4, 64, 32, 4096);
        let mut cfg = NoFtlConfig::new(geometry);
        cfg.async_queue_depth = depth;
        let noftl = NoFtl::new(cfg);
        let mut backend = NoFtlBackend::new(noftl);
        let mut pool = BufferPool::new(8, 4096);
        pool.set_async_depth(depth);
        let mut fsm = FreeSpaceManager::new(0, 2000);
        let (mut tree, _) = BTree::create(&mut pool, &mut backend, &mut fsm, 0).unwrap();
        let mut now = 0u64;
        for k in 0..3000u64 {
            // Insert in a shuffled-ish order so leaves split realistically.
            let key = (k * 7919) % 3000;
            let (_, t) = tree
                .insert(&mut pool, &mut backend, &mut fsm, now, key, key * 13)
                .unwrap();
            now = t;
        }
        now = pool.flush_all(&mut backend, now).unwrap();
        let t0 = backend.drain(pool.drain_reads(now));
        let mut ra = ScanPrefetcher::new(window, depth);
        let mut seen = Vec::new();
        let (count, end) = tree
            .range_with_readahead(&mut pool, &mut backend, &mut ra, t0, 100, 2700, |k, v| {
                seen.push((k, v))
            })
            .unwrap();
        assert_eq!(count, 2601);
        let end = backend.drain(pool.drain_reads(end));
        (seen, end - t0)
    };
    let (seq_base, dur_base) = run(0, 1);
    assert_eq!(seq_base.len(), 2601);
    assert!(seq_base.windows(2).all(|w| w[0].0 < w[1].0), "keys in order");
    for (window, depth) in [(4, 2), (16, 8), (64, 8), (64, 1), (0, 8)] {
        let (seq, dur) = run(window, depth);
        assert_eq!(seq, seq_base, "window {window} depth {depth} changed the key sequence");
        assert!(dur <= dur_base, "window {window} depth {depth} slowed the range read");
    }
    let (_, dur_ra) = run(64, 8);
    assert!(
        dur_ra < dur_base,
        "leaf-chain readahead at depth 8 must beat frame-at-a-time: {dur_ra} vs {dur_base}"
    );
}

#[test]
fn readahead_never_evicts_pinned_pages_and_never_loses_dirty_data() {
    use noftl::storage_engine::free_space::FreeSpaceManager;
    use noftl::storage_engine::readahead::ScanPrefetcher;
    use noftl::storage_engine::{HeapFile, StorageBackend as _, WalManager};

    let geometry = FlashGeometry::with_dies(4, 64, 32, 4096);
    let mut cfg = NoFtlConfig::new(geometry);
    cfg.async_queue_depth = 8;
    let noftl = NoFtl::new(cfg);
    let mut backend = NoFtlBackend::new(noftl);
    let mut pool = BufferPool::new(12, 4096);
    pool.set_async_depth(8);
    let mut fsm = FreeSpaceManager::new(0, 2000);
    let mut wal = WalManager::new(2000, 64, 4096);
    let mut heap = HeapFile::new("t");
    let mut now = 0u64;
    for i in 0..400u64 {
        let mut rec = vec![0u8; 900];
        rec[..8].copy_from_slice(&i.to_le_bytes());
        let (_, t) = heap
            .insert(&mut pool, &mut backend, &mut fsm, &mut wal, 1, now, &rec)
            .unwrap();
        now = t;
    }
    now = pool.flush_all(&mut backend, now).unwrap();
    now = backend.drain(pool.drain_reads(now));
    // A page the "scan" (some other operator) holds pinned, plus a dirty
    // page awaiting flush, both resident while readahead floods the pool.
    let pinned_page = heap.pages()[0];
    let dirty_page = heap.pages()[1];
    let (_, t) = pool
        .with_page(&mut backend, now, pinned_page, |_| ())
        .unwrap();
    now = t;
    assert!(pool.pin(pinned_page));
    let (_, t) = pool
        .with_page_mut(&mut backend, now, dirty_page, |d| d[4000] = 0xEE)
        .unwrap();
    now = t;
    // Scan the whole table with an aggressive window through the tiny pool.
    let mut ra = ScanPrefetcher::new(64, 8);
    let (count, end) = heap
        .scan_with_readahead(&mut pool, &mut backend, &mut ra, now, |_, _| {})
        .unwrap();
    assert_eq!(count, 400);
    let end = backend.drain(pool.drain_reads(end));
    // The pinned page must have survived every prefetch batch.
    assert!(
        pool.contains(pinned_page),
        "readahead must never evict a pinned page"
    );
    pool.unpin(pinned_page);
    // The dirty page's update must not have been lost: either still resident
    // and dirty, or written back to the backend during a (legitimate)
    // dirty-victim eviction.
    let mut buf = vec![0u8; 4096];
    if pool.is_dirty(dirty_page) {
        let (seen, _) = pool
            .with_page(&mut backend, end, dirty_page, |d| d[4000])
            .unwrap();
        assert_eq!(seen, 0xEE, "dirty page content lost in the pool");
    } else {
        backend.read_page(end, dirty_page, &mut buf).unwrap();
        assert_eq!(buf[4000], 0xEE, "dirty page evicted without write-back");
    }
}

#[test]
fn async_crash_with_commands_in_flight_recovers_exact_durable_prefix() {
    // A WAL force submitted through the asynchronous path with commands still
    // in flight: killing the system at any instant must leave recovery with
    // exactly the contiguous durable prefix — every log page whose program
    // had completed by the kill, nothing from the in-flight tail.
    use noftl::nand_flash::OpKind;
    use noftl::storage_engine::backend::{MemBackend, StorageBackend};
    use noftl::storage_engine::{LogRecord, WalManager};
    use std::collections::HashMap;

    let geometry = FlashGeometry::with_dies(8, 1024, 32, 4096);
    let mut dev_cfg = DeviceConfig::new(geometry);
    dev_cfg.trace_capacity = 1 << 16;
    let device = NandDevice::new(dev_cfg);
    let noftl = NoFtl::with_device(device, NoFtlConfig::new(geometry));
    let mut backend = NoFtlBackend::new(noftl);
    backend.set_async_depth(4);

    let (log_start, log_pages, page_size) = (0u64, 64u64, 4096usize);
    let mut wal = WalManager::new(log_start, log_pages, page_size);
    // 3-page groups over 8 dies: consecutive groups hit rotating, partially
    // overlapping die sets, so program completions spread over many instants.
    wal.set_batch_pages(3);
    wal.set_async_depth(4);
    for txn in 0..16u64 {
        wal.append(LogRecord::Update {
            txn,
            page: txn,
            slot: 0,
            bytes: vec![txn as u8; 4000],
        });
    }
    let done = wal.flush(&mut backend, 0).unwrap();
    let done = backend.drain(wal.drain(done));

    // Per-log-page program completion times, from the device's command trace
    // (the OOB lpn of a NoFTL write is the page id).
    let mut page_done: HashMap<u64, u64> = HashMap::new();
    for e in backend.noftl().device().tracer().entries() {
        if e.kind == OpKind::Program {
            if let Some(lpn) = e.lpn {
                if lpn < log_start + log_pages {
                    let slot = page_done.entry(lpn).or_insert(0);
                    *slot = (*slot).max(e.completed_at);
                }
            }
        }
    }
    assert!(page_done.len() >= 16, "force must have written 16+ log pages");
    let all_records = wal.records().to_vec();
    let mut kills: Vec<u64> = page_done.values().copied().collect();
    kills.sort_unstable();
    kills.dedup();
    assert!(kills.len() > 2, "completions must spread over several instants");

    let mut prev_recovered = 0usize;
    let mut saw_partial = false;
    for &kill in std::iter::once(&0u64).chain(kills.iter()) {
        // Rebuild the surviving medium: only pages whose program completed by
        // the kill instant hold their content.
        let mut survived = MemBackend::new(page_size, log_start + log_pages);
        let mut buf = vec![0u8; page_size];
        for (&page_id, &completed) in &page_done {
            if completed <= kill {
                backend.read_page(done, page_id, &mut buf).unwrap();
                survived.write_page(0, page_id, &buf).unwrap();
            }
        }
        let recovered =
            WalManager::recover_records(&mut survived, log_start, log_pages, page_size, 0);
        // Exact prefix: same LSNs, same records, in order.
        assert_eq!(
            recovered.as_slice(),
            &all_records[..recovered.len()],
            "recovery at kill={kill} must replay an exact prefix"
        );
        assert!(
            recovered.len() >= prev_recovered,
            "a later kill can only recover more"
        );
        prev_recovered = recovered.len();
        if !recovered.is_empty() && recovered.len() < all_records.len() {
            saw_partial = true;
        }
    }
    assert!(
        saw_partial,
        "some kill instant must catch commands genuinely in flight"
    );
    assert_eq!(
        prev_recovered,
        all_records.len(),
        "killing after the last completion recovers everything"
    );
}

#[test]
fn wal_log_contents_identical_for_all_batch_sizes() {
    use noftl::storage_engine::backend::MemBackend;
    use noftl::storage_engine::{LogRecord, WalManager};

    let reference: Option<Vec<(u64, LogRecord)>> = None;
    let mut reference = reference;
    for batch in [0usize, 1, 2, 4, 64] {
        let mut backend = MemBackend::new(512, 512);
        let mut wal = WalManager::new(32, 128, 512);
        wal.set_batch_pages(batch);
        for txn in 0..24u64 {
            wal.append(LogRecord::Begin { txn });
            wal.append(LogRecord::Update {
                txn,
                page: txn * 3,
                slot: 1,
                bytes: vec![txn as u8; 150],
            });
            wal.append(LogRecord::Commit { txn });
            if txn % 3 == 2 {
                wal.flush(&mut backend, 0).unwrap();
            }
        }
        wal.flush(&mut backend, 0).unwrap();
        let recovered = WalManager::recover_records(&mut backend, 32, 128, 512, 0);
        assert_eq!(recovered.len(), 72);
        match &reference {
            None => reference = Some(recovered),
            Some(r) => assert_eq!(&recovered, r, "batch {batch} changed the durable log"),
        }
    }
}

// ---------------------------------------------------------------------------
// Single-client leg of the concurrent engine
// ---------------------------------------------------------------------------

/// One client driving the concurrent
/// engine at one shard must be **bit- and cycle-identical** to the plain
/// single-threaded engine — same device command trace, same durable WAL
/// records, same commit count, same WAL forces, same buffer-pool counters,
/// same end-to-end virtual time.
mod threads_single_client_identity {
    use noftl::nand_flash::{DeviceConfig, FlashGeometry, NandDevice};
    use noftl::noftl_core::{NoFtl, NoFtlConfig};
    use noftl::sim_utils::time::SimInstant;
    use noftl::storage_engine::backend::NoFtlBackend;
    use noftl::storage_engine::{
        ConcurrentEngine, EngineConfig, EngineOps, FlusherConfig, LogRecord, Lsn,
        StorageEngine,
    };
    use noftl::workloads::{TpcB, TpcBConfig, Workload};

    /// What a run leaves behind; every field must match across the legs.
    #[derive(Debug, PartialEq)]
    struct RunImage {
        trace: Vec<String>,
        wal: Vec<(Lsn, LogRecord)>,
        end: SimInstant,
        committed: u64,
        forces: u64,
        buffer: noftl::storage_engine::buffer::BufferStats,
    }

    fn traced_backend(depth: usize) -> NoFtlBackend {
        let geometry = FlashGeometry::with_dies(4, 256, 32, 4096);
        let mut cfg = NoFtlConfig::new(geometry);
        cfg.async_queue_depth = depth;
        let mut dev_cfg = DeviceConfig::new(geometry);
        dev_cfg.store_data = cfg.store_data;
        dev_cfg.trace_capacity = 1 << 16;
        NoFtlBackend::new(NoFtl::with_device(NandDevice::new(dev_cfg), cfg))
    }

    fn engine_config(depth: usize) -> EngineConfig {
        let mut ecfg = EngineConfig::new();
        ecfg.buffer_frames = 96;
        ecfg.log_pages = 64;
        let mut flushers = FlusherConfig::die_wise(2);
        flushers.async_depth = depth;
        ecfg.flushers = flushers;
        ecfg.readahead_window = 16;
        ecfg
    }

    /// Identical TPC-B work through the [`EngineOps`] surface — the same
    /// generic code path drives both legs, so any divergence comes from the
    /// engines, not the driver.
    fn drive<E: EngineOps>(engine: &mut E) -> SimInstant {
        let mut w = TpcB::new(TpcBConfig {
            scale_factor: 1,
            tellers_per_branch: 4,
            accounts_per_branch: 80,
            seed: 42,
        });
        let mut now = w.setup(engine, 0).expect("setup");
        for _ in 0..30 {
            let (end, _) = w.run_transaction(engine, 0, now).expect("transaction");
            now = engine.maybe_flush(end).expect("flush").max(end);
        }
        let t = engine.checkpoint(now).expect("checkpoint");
        engine.quiesce(t)
    }

    fn single_image(depth: usize) -> RunImage {
        let mut engine = StorageEngine::new(Box::new(traced_backend(depth)), engine_config(depth));
        let end = drive(&mut engine);
        RunImage {
            trace: engine
                .backend()
                .as_any()
                .and_then(|a| a.downcast_ref::<NoFtlBackend>())
                .expect("NoFTL backend")
                .noftl()
                .device()
                .tracer()
                .entries()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect(),
            wal: engine.wal().records().to_vec(),
            end,
            committed: engine.committed(),
            forces: engine.wal().forces(),
            buffer: engine.buffer_stats(),
        }
    }

    fn concurrent_image(depth: usize) -> RunImage {
        let engine = ConcurrentEngine::new(Box::new(traced_backend(depth)), engine_config(depth), 1);
        let mut session = engine.session();
        let end = drive(&mut session);
        drop(session);
        RunImage {
            trace: engine.with_backend(|b| {
                b.as_any()
                    .and_then(|a| a.downcast_ref::<NoFtlBackend>())
                    .expect("NoFTL backend")
                    .noftl()
                    .device()
                    .tracer()
                    .entries()
                    .iter()
                    .map(|e| format!("{e:?}"))
                    .collect()
            }),
            wal: engine.with_wal(|w| w.records().to_vec()),
            end,
            committed: engine.committed(),
            forces: engine.log_forces(),
            buffer: engine.buffer_stats(),
        }
    }

    #[test]
    fn one_shard_one_client_is_trace_identical_to_single_threaded_sync() {
        let single = single_image(1);
        let concurrent = concurrent_image(1);
        assert_eq!(
            single, concurrent,
            "one client over the 1-shard concurrent engine must be bit- and \
             cycle-identical to the single-threaded engine (sync dispatch)"
        );
    }

    #[test]
    fn one_shard_one_client_is_trace_identical_to_single_threaded_async() {
        let single = single_image(8);
        let concurrent = concurrent_image(8);
        assert_eq!(
            single, concurrent,
            "one client over the 1-shard concurrent engine must be bit- and \
             cycle-identical to the single-threaded engine (async depth 8)"
        );
    }
}

#[test]
fn emulator_command_traces_identical_with_redundancy_unset_vs_off() {
    // Stronger than figure identity: the device-level command stream — every
    // opcode, address, issue and completion stamp — must match cycle for
    // cycle across two flush cycles with the redundancy knob explicitly off.
    let off = Knobs::from_vars([("NOFTL_REDUNDANCY", "off")]);
    let (trace_unset, contents_unset, end_unset) = traced_flush_cycles(64, 1);
    let (trace_off, contents_off, end_off) =
        traced_flush_cycles_on(64, 1, |n| off.noftl_backend(n));
    assert!(!trace_unset.is_empty());
    assert_eq!(trace_unset, trace_off);
    assert_eq!(contents_unset, contents_off);
    assert_eq!(end_unset, end_off);
}

/// The structural pin behind `NOFTL_SLO`: an engine built with the SLO knob
/// `off` must be **bit- and cycle-identical** to one built by the plain
/// constructors — same device command trace, same durable WAL records, same
/// commit count, same forces, same end time — for a workload driven through
/// the admission-aware `begin_admitted` surface.
mod slo_off_identity {
    use noftl::nand_flash::{DeviceConfig, FlashGeometry, NandDevice};
    use noftl::noftl_core::{NoFtl, NoFtlConfig};
    use noftl::sim_utils::time::SimInstant;
    use noftl::storage_engine::backend::{Knobs, NoFtlBackend};
    use noftl::storage_engine::{EngineConfig, EngineOps, FlusherConfig, StorageEngine};
    use noftl::workloads::{Arrivals, OpenLoopConfig, OpenLoopDriver};

    /// What a run leaves behind; every field must match across the legs.
    #[derive(Debug, PartialEq)]
    struct SloImage {
        trace: Vec<String>,
        end: SimInstant,
        committed: u64,
        forces: u64,
        completed: u64,
        shed: u64,
        observed: (u64, u64, u64),
        percentiles: (u64, u64, u64),
    }

    /// Run the open-loop workload on an engine built by the plain
    /// constructors (`None`) or with `knobs` applied.
    fn open_loop_image(knobs: Option<&Knobs>) -> SloImage {
        let geometry = FlashGeometry::with_dies(4, 256, 32, 4096);
        let ncfg = NoFtlConfig::new(geometry);
        let mut dev_cfg = DeviceConfig::new(geometry);
        dev_cfg.store_data = ncfg.store_data;
        dev_cfg.trace_capacity = 1 << 16;
        let noftl = NoFtl::with_device(NandDevice::new(dev_cfg), ncfg);
        let config = |mut ecfg: EngineConfig, flushers: FlusherConfig| {
            ecfg.buffer_frames = 96;
            ecfg.log_pages = 64;
            ecfg.flushers = flushers;
            ecfg
        };
        let mut engine = match knobs {
            None => StorageEngine::new(
                Box::new(NoFtlBackend::new(noftl)),
                config(EngineConfig::new(), FlusherConfig::die_wise(2)),
            ),
            Some(k) => k.engine(
                Box::new(k.noftl_backend(noftl)),
                config(k.engine_config(), k.flushers(FlusherConfig::die_wise(2))),
            ),
        };

        let mut olcfg = OpenLoopConfig::new(120, Arrivals::Fixed { interval_ns: 5_000 });
        olcfg.rows = 200;
        olcfg.row_bytes = 64;
        let driver = OpenLoopDriver::new(olcfg);
        let t0 = driver.setup(&mut engine, 0).expect("setup");
        let mut slots: [&mut dyn EngineOps; 1] = [&mut engine];
        let report = driver.run(&mut slots, t0).expect("run");
        SloImage {
            trace: engine
                .backend()
                .as_any()
                .and_then(|a| a.downcast_ref::<NoFtlBackend>())
                .expect("NoFTL backend")
                .noftl()
                .device()
                .tracer()
                .entries()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect(),
            end: report.duration_ns,
            committed: engine.committed(),
            forces: engine.log_forces(),
            completed: report.completed,
            shed: report.shed,
            observed: report.observed,
            percentiles: report.latency_percentiles(),
        }
    }

    #[test]
    fn open_loop_run_identical_with_slo_unset_vs_off() {
        let unset = open_loop_image(None);
        let off = open_loop_image(Some(&Knobs::from_vars([("NOFTL_SLO", "off")])));
        assert!(!unset.trace.is_empty());
        assert_eq!(unset.shed, 0, "no admission window without the knob");
        assert_eq!(
            unset, off,
            "an open-loop run must be bit- and cycle-identical with \
             NOFTL_SLO unset vs off"
        );
    }

    #[test]
    fn slo_on_leg_runs_the_same_workload_with_truthful_stats() {
        // Not an identity leg — `on` may change timing (that is the point) —
        // but the knob-built on leg must stay consistent: every begin is
        // either admitted or shed, and the engine's counters say which.
        let on = open_loop_image(Some(&Knobs::from_vars([("NOFTL_SLO", "on")])));
        assert_eq!(
            on.observed.0 + on.observed.2,
            132,
            "every offered request (warmup included) is admitted or shed"
        );
    }
}

/// Figure 3 and Figure 4 (TPC-B at 1/2/4/8 dies) as the `fig3_gc_overhead`
/// and `fig4_dbwriters` bins print them, rendered with explicit knobs.  The
/// legs below parse each spelling from literal `(name, value)` pairs, so
/// they pin both the parser and the figure code without touching the
/// process environment.
mod figures {
    use std::sync::OnceLock;

    use noftl::storage_engine::backend::Knobs;
    use noftl_bench::dbwriters::{render_table as render_fig4, run_dbwriter_scaling};
    use noftl_bench::gc_overhead::{render_table as render_fig3, run_gc_overhead};
    use noftl_bench::setup::{Benchmark, Scale};

    pub fn fig3(knobs: &Knobs) -> String {
        render_fig3(&run_gc_overhead(Scale::Quick, knobs))
    }

    pub fn fig4(knobs: &Knobs) -> String {
        render_fig4(&run_dbwriter_scaling(Benchmark::TpcB, Scale::Quick, &[1, 2, 4, 8], knobs))
    }

    /// Figure 3 with every knob unset, rendered once and shared by the
    /// `*_unset_vs_*` legs.
    pub fn fig3_unset() -> &'static str {
        static TABLE: OnceLock<String> = OnceLock::new();
        TABLE.get_or_init(|| fig3(&Knobs::default()))
    }

    /// Figure 4 with every knob unset, rendered once.
    pub fn fig4_unset() -> &'static str {
        static TABLE: OnceLock<String> = OnceLock::new();
        TABLE.get_or_init(|| fig4(&Knobs::default()))
    }
}

#[test]
fn fig3_output_identical_with_batching_off_vs_batch_size_one() {
    let off = figures::fig3(&Knobs::from_vars([("NOFTL_BATCH", "off")]));
    let one = figures::fig3(&Knobs::from_vars([("NOFTL_BATCH", "1")]));
    assert!(off.contains("TPC-C") && off.contains("TPC-B") && off.contains("TPC-E"));
    assert_eq!(
        off, one,
        "Figure 3 output must be bit-identical with batching off vs batch size 1"
    );
}

#[test]
fn fig4_output_identical_with_batching_off_vs_batch_size_one() {
    let off = figures::fig4(&Knobs::from_vars([("NOFTL_BATCH", "off")]));
    let one = figures::fig4(&Knobs::from_vars([("NOFTL_BATCH", "1")]));
    assert!(off.contains("TPC-B"));
    assert_eq!(
        off, one,
        "Figure 4 output must be bit-identical with batching off vs batch size 1"
    );
}

#[test]
fn fig3_output_identical_with_async_off_vs_depth_one() {
    let one = figures::fig3(&Knobs::from_vars([("NOFTL_ASYNC", "1")]));
    assert_eq!(
        figures::fig3_unset(),
        one,
        "Figure 3 output must be bit-identical with NOFTL_ASYNC unset vs depth 1"
    );
}

#[test]
fn fig4_output_identical_with_async_off_vs_depth_one() {
    let one = figures::fig4(&Knobs::from_vars([("NOFTL_ASYNC", "1")]));
    assert_eq!(
        figures::fig4_unset(),
        one,
        "Figure 4 output must be bit-identical with NOFTL_ASYNC unset vs depth 1"
    );
}

#[test]
fn fig3_output_identical_with_faults_unset_vs_off() {
    // The fault-injection plumbing must be a strict no-op when disabled:
    // `NOFTL_FAULTS=off` has to produce the same figures as a build that never
    // heard of the knob.
    let off = figures::fig3(&Knobs::from_vars([("NOFTL_FAULTS", "off")]));
    assert_eq!(
        figures::fig3_unset(),
        off,
        "Figure 3 output must be bit-identical with NOFTL_FAULTS unset vs off"
    );
}

#[test]
fn fig3_output_identical_with_slo_unset_vs_off() {
    // The SLO plumbing (admission control, throttled waves, proactive GC)
    // must be a strict no-op when disabled: `NOFTL_SLO=off` has to produce
    // the same figures as a build that never heard of the knob.
    let off = figures::fig3(&Knobs::from_vars([("NOFTL_SLO", "off")]));
    assert_eq!(
        figures::fig3_unset(),
        off,
        "Figure 3 output must be bit-identical with NOFTL_SLO unset vs off"
    );
}

#[test]
fn fig3_output_identical_with_redundancy_unset_vs_off() {
    // The redundancy plumbing (parity stripes, mirror copies, degraded
    // reads, online rebuild) must be a strict no-op when disabled:
    // `NOFTL_REDUNDANCY=off` has to produce the same figures as a build that
    // never heard of the knob.
    let off = figures::fig3(&Knobs::from_vars([("NOFTL_REDUNDANCY", "off")]));
    assert_eq!(
        figures::fig3_unset(),
        off,
        "Figure 3 output must be bit-identical with NOFTL_REDUNDANCY unset vs off"
    );
}

#[test]
fn fig4_output_identical_with_redundancy_unset_vs_off() {
    let off = figures::fig4(&Knobs::from_vars([("NOFTL_REDUNDANCY", "off")]));
    assert_eq!(
        figures::fig4_unset(),
        off,
        "Figure 4 output must be bit-identical with NOFTL_REDUNDANCY unset vs off"
    );
}
