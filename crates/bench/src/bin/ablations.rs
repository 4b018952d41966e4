//! Ablation studies of the design decisions DESIGN.md catalogues
//! (Section "D" decisions): what each mechanism contributes to the
//! headline result. Runs the full suite on the 20-stage machine under
//! ARVI current value for each variant.
//!
//! Usage: `ablations [--quick]`
//!
//! Any other flag or a positional exits 2 before any work, with nothing
//! on stdout.

use arvi_bench::{check_flags, Spec};
use arvi_sim::{simulate, ArviTuning, Depth, PredictorConfig, SimParams};
use arvi_stats::{amean, Table};
use arvi_workloads::Benchmark;

fn mean_speedup_and_accuracy(tuning: ArviTuning, spec: Spec) -> (f64, f64) {
    let mut speedups = Vec::new();
    let mut accs = Vec::new();
    for bench in Benchmark::all() {
        let mut params = SimParams::for_depth(Depth::D20);
        params.arvi_tuning = tuning;
        let base = simulate(
            bench.program(spec.seed),
            SimParams::for_depth(Depth::D20),
            PredictorConfig::TwoLevelGskew,
            spec.warmup,
            spec.measure,
        );
        let arvi = simulate(
            bench.program(spec.seed),
            params,
            PredictorConfig::ArviCurrent,
            spec.warmup,
            spec.measure,
        );
        speedups.push(arvi.ipc() / base.ipc());
        accs.push(arvi.accuracy());
    }
    (amean(&speedups), amean(&accs))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_flags(&args, &[("--quick", false)]) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let spec = if quick {
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
    for (name, tuning) in variants {
        eprintln!("ablation: {name}");
        let (speedup, acc) = mean_speedup_and_accuracy(tuning, spec);
        table.row(vec![
            name.into(),
            format!("{speedup:.3}"),
            format!("{acc:.4}"),
        ]);
    }
    println!(
        "== ARVI design ablations (20-stage, current value, suite means) ==\n{}",
        table.to_text()
    );
    println!(
        "D2 shows why the ready bit gates values out of the index; D11 shows\n\
         why a long-latency override must be quality-gated; the BVIT rows\n\
         bound the capacity sensitivity of the value signatures."
    );
}
