//! End-to-end throughput benches (scaled-down versions of the paper's
//! figures): TPC-B on the FASTer stack vs NoFTL, and global vs die-wise
//! db-writer assignment.

use criterion::{criterion_group, criterion_main, Criterion};
use noftl_bench::dbwriters::run_point;
use noftl_bench::setup::{Benchmark, Scale, Stack};
use noftl_bench::throughput::run_stack;
use noftl_core::FlusherAssignment;
use storage_engine::backend::Knobs;
use std::hint::black_box;

fn bench_throughput(c: &mut Criterion) {
    let knobs = Knobs::default();
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);

    group.bench_function("tpcb_noftl", |b| {
        b.iter(|| black_box(run_stack(Benchmark::TpcB, Stack::NoFtl, Scale::Quick, &knobs).tps))
    });
    group.bench_function("tpcb_faster", |b| {
        b.iter(|| black_box(run_stack(Benchmark::TpcB, Stack::Faster, Scale::Quick, &knobs).tps))
    });
    group.bench_function("tpcb_dbwriters_global_4dies", |b| {
        b.iter(|| {
            black_box(
                run_point(Benchmark::TpcB, Scale::Quick, 4, FlusherAssignment::Global, 8, &knobs).tps,
            )
        })
    });
    group.bench_function("tpcb_dbwriters_diewise_4dies", |b| {
        b.iter(|| {
            black_box(
                run_point(Benchmark::TpcB, Scale::Quick, 4, FlusherAssignment::DieWise, 8, &knobs).tps,
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_throughput
}
criterion_main!(benches);
