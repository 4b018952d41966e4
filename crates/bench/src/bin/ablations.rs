//! Ablation studies of the design decisions behind `ArviTuning`: what
//! each mechanism contributes to the headline result. D2 keeps values
//! whose ready bit is clear out of the BVIT index, D11 quality-gates a
//! long-latency override, and the BVIT size bounds the capacity of the
//! value signatures. Runs the full suite on the 20-stage machine under
//! ARVI current value for each variant.
//!
//! Usage: `ablations [--quick]`
//!
//! Any other flag, `--quick` twice or a positional exits 2 before any
//! work, with nothing on stdout.

use arvi_bench::{outln, CommandLine, Spec, Takes};
use arvi_sim::{simulate, ArviTuning, Depth, PredictorConfig, SimParams};
use arvi_stats::{amean, Table};
use arvi_workloads::Benchmark;

/// Each suite benchmark's 2-level gskew IPC: the speedup denominator,
/// which no [`ArviTuning`] knob touches, so every variant shares it.
fn baseline_ipcs(spec: Spec) -> Vec<f64> {
    Benchmark::all()
        .into_iter()
        .map(|bench| {
            simulate(
                bench.program(spec.seed),
                SimParams::for_depth(Depth::D20),
                PredictorConfig::TwoLevelGskew,
                spec.warmup,
                spec.measure,
            )
            .ipc()
        })
        .collect()
}

fn mean_speedup_and_accuracy(tuning: ArviTuning, spec: Spec, base_ipcs: &[f64]) -> (f64, f64) {
    let mut speedups = Vec::new();
    let mut accs = Vec::new();
    for (bench, base_ipc) in Benchmark::all().into_iter().zip(base_ipcs) {
        let mut params = SimParams::for_depth(Depth::D20);
        params.arvi_tuning = tuning;
        let arvi = simulate(
            bench.program(spec.seed),
            params,
            PredictorConfig::ArviCurrent,
            spec.warmup,
            spec.measure,
        );
        speedups.push(arvi.ipc() / base_ipc);
        accs.push(arvi.accuracy());
    }
    (amean(&speedups), amean(&accs))
}

fn main() {
    let line = CommandLine::from_env(&[("--quick", Takes::Nothing)], 0);
    let spec = if line.has("--quick") {
        Spec::quick()
    } else {
        Spec {
            warmup: 50_000,
            measure: 250_000,
            seed: 42,
        }
    };

    let variants: Vec<(&str, ArviTuning)> = vec![
        ("paper configuration", ArviTuning::default()),
        (
            "D2: stale values in index",
            ArviTuning {
                include_stale_values: true,
                ..Default::default()
            },
        ),
        (
            "D11: no override gating",
            ArviTuning {
                gate_overrides: false,
                ..Default::default()
            },
        ),
        (
            "BVIT 4x smaller (512 sets)",
            ArviTuning {
                bvit_sets_log2: 9,
                ..Default::default()
            },
        ),
        (
            "BVIT 4x larger (8192 sets)",
            ArviTuning {
                bvit_sets_log2: 13,
                ..Default::default()
            },
        ),
    ];

    let mut table = Table::new(vec![
        "variant".into(),
        "mean speedup".into(),
        "mean accuracy".into(),
    ]);
    let base_ipcs = baseline_ipcs(spec);
    for (name, tuning) in variants {
        eprintln!("ablation: {name}");
        let (speedup, acc) = mean_speedup_and_accuracy(tuning, spec, &base_ipcs);
        table.row(vec![
            name.into(),
            format!("{speedup:.3}"),
            format!("{acc:.4}"),
        ]);
    }
    outln!(
        "== ARVI design ablations (20-stage, current value, suite means) ==\n{}",
        table.to_text()
    );
    outln!(
        "D2 shows why the ready bit gates values out of the index; D11 shows\n\
         why a long-latency override must be quality-gated; the BVIT rows\n\
         bound the capacity sensitivity of the value signatures."
    );
}
