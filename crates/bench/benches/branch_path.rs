//! `branch_path` — the standalone predict+train loop of the packed,
//! index-carrying predictors over a recorded branch stream.
//!
//! The stream is the conditional-branch trace of m88ksim, driven
//! through the full three-step protocol with a delayed update 8
//! branches behind the prediction — the machine-shaped regime where
//! training consumes the indices carried in the prediction.
//!
//! Run with `ARVI_BENCH_FAST=1` for CI smoke timing.

use arvi_bench::{conditional_branches, record_trace, run_delayed, Spec, Workload};
use arvi_predict::{Bimodal, GskewConfig, TwoBcGskew};
use arvi_workloads::Benchmark;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// Update delay, in branches, of the delayed-protocol loops (the L2
/// latency class of in-flight branches).
const WINDOW: usize = 8;

fn branch_stream() -> Vec<(u64, bool)> {
    let spec = Spec {
        warmup: 10_000,
        measure: 40_000,
        seed: 42,
    };
    conditional_branches(record_trace(&Workload::from(Benchmark::M88ksim), spec))
}

fn bench_branch_path(c: &mut Criterion) {
    let stream = branch_stream();
    let mut g = c.benchmark_group("branch_path");
    g.throughput(Throughput::Elements(stream.len() as u64));

    g.bench_function("gskew_packed", |b| {
        let mut p = TwoBcGskew::new(GskewConfig::level2());
        b.iter(|| black_box(run_delayed(&mut p, &stream, WINDOW)));
    });

    // Window 0 = immediate update (the bimodal carries no history to
    // checkpoint, so the delayed protocol degenerates anyway).
    g.bench_function("bimodal_packed", |b| {
        let mut p = Bimodal::new(17);
        b.iter(|| black_box(run_delayed(&mut p, &stream, 0)));
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_branch_path
}
criterion_main!(benches);
