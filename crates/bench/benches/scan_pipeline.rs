//! Microbenchmarks of the prefetch-driven scan pipeline (PR 5): heap scans
//! and B+-tree range reads streaming through `ScanPrefetcher` readahead
//! windows on the per-die command queues.
//!
//! Two kinds of numbers, like `read_pipeline`:
//!
//! * **virtual time** — the simulated duration of a TPC-H Q1-style full
//!   scan / a TPC-E-style index range read, printed once per run as
//!   `SCAN_PIPELINE_VIRTUAL ...` / `BTREE_RANGE_VIRTUAL ...` plus a
//!   dies × depth × window sweep (`SCAN_SWEEP ...` lines) so the BENCH json
//!   can quote them deterministically;
//! * **real time** — criterion ns/iter of the host-side paths.
//!
//! Every engine is configured explicitly, so the smoke runs are
//! bit-identical from run to run.

use criterion::{criterion_group, criterion_main, Criterion};
use nand_flash::FlashGeometry;
use noftl_core::{FlusherAssignment, NoFtl, NoFtlConfig};
use std::hint::black_box;
use storage_engine::{
    backend::NoFtlBackend,
    buffer::ReadaheadStats,
    flusher::FlusherConfig,
    EngineConfig, StorageEngine,
};

/// Rows in the Q1-style lineitem table (~1000 bytes each, 4 per page: the
/// table spans ~6x more pages than the pool holds frames, so the scan is
/// miss-dominated — the paper's buffer-pool-much-smaller-than-database
/// regime).
const ROWS: u64 = 3000;
const FRAMES: usize = 128;

fn flushers(depth: usize) -> FlusherConfig {
    FlusherConfig {
        writers: 2,
        assignment: FlusherAssignment::DieWise,
        dirty_high_watermark: 0.4,
        dirty_low_watermark: 0.05,
        batch_pages: 64,
        batch_global: false,
        async_depth: depth,
    }
}

/// Build a NoFTL engine with a loaded Q1-style lineitem table; returns the
/// engine and the post-checkpoint instant the measured scan starts at.
fn build_lineitem_engine(dies: u32, depth: usize, window: usize) -> (StorageEngine, u64) {
    let geometry = FlashGeometry::with_dies(dies, 256, 32, 4096);
    let mut noftl_cfg = NoFtlConfig::new(geometry);
    noftl_cfg.async_queue_depth = depth;
    let mut cfg = EngineConfig::new();
    cfg.buffer_frames = FRAMES;
    cfg.readahead_window = window;
    cfg.flushers = flushers(depth);
    let mut e = StorageEngine::new(Box::new(NoFtlBackend::new(NoFtl::new(noftl_cfg))), cfg);
    e.create_table("lineitem");
    let txn = e.begin();
    let mut now = 0u64;
    for i in 0..ROWS {
        let mut rec = vec![0u8; 1000];
        rec[..8].copy_from_slice(&i.to_le_bytes());
        rec[16..24].copy_from_slice(&(i % 50).to_le_bytes()); // quantity
        let (_, t) = e.insert("lineitem", txn, now, &rec).unwrap();
        now = t;
        if i % 64 == 0 {
            now = e.maybe_flush(now).unwrap();
        }
    }
    now = e.commit(txn, now).unwrap();
    now = e.checkpoint(now).unwrap();
    (e, now)
}

/// One TPC-H Q1-style full scan (aggregate quantity over every row).
/// Returns (virtual ns, readahead stats of the scan).
fn q1_scan_virtual(dies: u32, depth: usize, window: usize) -> (u64, ReadaheadStats) {
    let (mut e, t0) = build_lineitem_engine(dies, depth, window);
    let mut rows = 0u64;
    let mut total_qty = 0u64;
    let (count, end) = e
        .scan("lineitem", t0, |_, row| {
            rows += 1;
            total_qty += u64::from_le_bytes(row[16..24].try_into().unwrap());
        })
        .unwrap();
    assert_eq!(count, ROWS);
    assert_eq!(rows, ROWS);
    black_box(total_qty);
    let end = e.quiesce(end);
    (end - t0, e.readahead_stats())
}

/// One TPC-E-style index range read over most of a 4000-key B+-tree.
fn index_range_virtual(dies: u32, depth: usize, window: usize) -> (u64, ReadaheadStats) {
    let geometry = FlashGeometry::with_dies(dies, 256, 32, 4096);
    let mut noftl_cfg = NoFtlConfig::new(geometry);
    noftl_cfg.async_queue_depth = depth;
    let mut cfg = EngineConfig::new();
    cfg.buffer_frames = 8; // far fewer frames than the tree has leaves
    cfg.readahead_window = window;
    cfg.flushers = flushers(depth);
    let mut e = StorageEngine::new(Box::new(NoFtlBackend::new(NoFtl::new(noftl_cfg))), cfg);
    e.create_index("pk", 0).unwrap();
    let mut now = 0u64;
    for k in 0..4000u64 {
        let (_, t) = e.index_insert("pk", now, k, k * 13).unwrap();
        now = t;
    }
    now = e.checkpoint(now).unwrap();
    let mut seen = 0u64;
    let (_, end) = e
        .index_range("pk", now, 100, 3900, |_, _| seen += 1)
        .unwrap();
    assert_eq!(seen, 3801);
    let end = e.quiesce(end);
    (end - now, e.readahead_stats())
}

fn bench_scan_pipeline(c: &mut Criterion) {
    // Headline: Q1-style full scan at 8 dies, depth 8, streaming readahead
    // (window 64) vs the frame-at-a-time baseline (window 0).  Acceptance
    // bars of the PR: >=2x virtual time, <10% wasted prefetches.
    let (frame_at_a_time, _) = q1_scan_virtual(8, 8, 0);
    let (streamed, ra) = q1_scan_virtual(8, 8, 64);
    let speedup = frame_at_a_time as f64 / streamed as f64;
    println!(
        "SCAN_PIPELINE_VIRTUAL dies=8 depth=8 window=64 rows={ROWS} frames={FRAMES} \
         frame_at_a_time_ns={frame_at_a_time} readahead_ns={streamed} speedup={speedup:.2} \
         prefetch_issued={} prefetch_useful={} prefetch_wasted={} window_high_water={}",
        ra.prefetch_issued, ra.prefetch_useful, ra.prefetch_wasted, ra.window_high_water
    );
    assert!(
        speedup >= 2.0,
        "acceptance bar: >=2x on the Q1-style scan at 8 dies depth 8 (got {speedup:.2}x)"
    );
    assert!(
        ra.prefetch_wasted * 10 <= ra.prefetch_issued,
        "acceptance bar: <10% wasted prefetches ({} of {})",
        ra.prefetch_wasted,
        ra.prefetch_issued
    );

    // The dies x depth x window sweep.
    for dies in [2u32, 8] {
        for depth in [1usize, 2, 8] {
            for window in [0usize, 16, 64] {
                let (ns, ra) = q1_scan_virtual(dies, depth, window);
                println!(
                    "SCAN_SWEEP dies={dies} depth={depth} window={window} virtual_ns={ns} \
                     issued={} useful={} wasted={}",
                    ra.prefetch_issued, ra.prefetch_useful, ra.prefetch_wasted
                );
            }
        }
    }

    // B+-tree leaf-chain readahead.
    let (range_base, _) = index_range_virtual(8, 8, 0);
    let (range_ra, ra) = index_range_virtual(8, 8, 64);
    println!(
        "BTREE_RANGE_VIRTUAL dies=8 depth=8 window=64 keys=3801 \
         frame_at_a_time_ns={range_base} readahead_ns={range_ra} speedup={:.2} \
         prefetch_issued={} prefetch_wasted={}",
        range_base as f64 / range_ra as f64,
        ra.prefetch_issued,
        ra.prefetch_wasted
    );
    assert!(
        range_ra <= range_base,
        "leaf-chain readahead must never slow a range read down"
    );

    c.bench_function("scan_pipeline/q1_frame_at_a_time", |b| {
        b.iter(|| black_box(q1_scan_virtual(8, 8, 0)))
    });
    c.bench_function("scan_pipeline/q1_readahead_w64", |b| {
        b.iter(|| black_box(q1_scan_virtual(8, 8, 64)))
    });
    c.bench_function("scan_pipeline/btree_range_readahead_w64", |b| {
        b.iter(|| black_box(index_range_virtual(8, 8, 64)))
    });
}

criterion_group!(benches, bench_scan_pipeline);
criterion_main!(benches);
