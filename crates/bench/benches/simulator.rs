//! Whole-system throughput: emulator and timing-simulator speed on the
//! benchmark programs (simulated instructions per wall-clock second).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use arvi_isa::Emulator;
use arvi_sim::{Depth, Machine, PredictorConfig, SimParams};
use arvi_workloads::Benchmark;

fn bench_emulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("emulator");
    g.throughput(Throughput::Elements(50_000));
    for bench in [Benchmark::M88ksim, Benchmark::Go] {
        g.bench_function(bench.name(), |b| {
            b.iter(|| {
                let emu = Emulator::new(bench.program(42));
                black_box(emu.take(50_000).filter(|d| d.is_branch()).count())
            });
        });
    }
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.throughput(Throughput::Elements(30_000));
    g.sample_size(10);
    for config in [PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent] {
        g.bench_function(config.label(), |b| {
            b.iter(|| {
                let mut m = Machine::new(
                    Emulator::new(Benchmark::Compress.program(42)),
                    SimParams::for_depth(Depth::D20),
                    config,
                );
                black_box(m.run_until_committed(30_000))
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_emulator, bench_machine
}
criterion_main!(benches);
