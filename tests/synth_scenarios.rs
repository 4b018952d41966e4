//! Contract tests for the `arvi-synth` scenario subsystem:
//!
//! 1. **Separation sanity bounds** — the paper-style qualitative claim
//!    the scenario grid exists to demonstrate: on data-dependent-branch
//!    scenarios the DDT/ARVI path clearly beats the two-level baseline,
//!    while on fixed-bias scenarios every configuration converges.
//! 2. **Determinism** — the same scenario spec + seed yields a
//!    bit-identical `.arvitrace` file across repeated runs and across
//!    recorder thread counts, and (property test) the recorded stream
//!    is a pure function of `(spec, seed)` over the whole knob space.

use arvi::sim::{Depth, PredictorConfig};
use arvi::synth::{record_trace, ScenarioSpec};
use arvi_bench::{grid, trace_file_name, GridRun, Resilience, Spec, TraceSet, Workload};
use proptest::prelude::*;

#[test]
fn datadep_beats_baseline_and_bias_converges() {
    let spec = Spec {
        warmup: 15_000,
        measure: 60_000,
        seed: 42,
    };
    let workloads = vec![
        Workload::scenario("dd branch=datadep:64 chain=4 gap=16".parse().unwrap()),
        Workload::scenario("steady branch=bias:100".parse().unwrap()),
    ];
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let results = GridRun::run(points, spec, 2, false, &traces, &Resilience::new(), None)
        .results(|_| true)
        .expect("every cell ran");
    let configs = PredictorConfig::all().len();

    // Data-dependent branches: seeded-random replay of a small value
    // population — ambiguous to history, exact for a value index.
    let dd = &results[..configs];
    let baseline = dd[0].accuracy();
    let arvi = dd[1].accuracy();
    assert!(
        baseline < 0.65,
        "two-level baseline should hover near chance on datadep (got {baseline:.4})"
    );
    assert!(
        arvi > baseline + 0.10,
        "ARVI current value must clearly beat the baseline on datadep \
         (arvi {arvi:.4} vs baseline {baseline:.4})"
    );

    // Fixed bias: nothing to extract — every configuration converges.
    let bias = &results[configs..];
    for r in bias {
        assert!(
            r.accuracy() > 0.99,
            "{} should nail an always-taken branch (got {:.4})",
            r.config,
            r.accuracy()
        );
    }
    let accs: Vec<f64> = bias.iter().map(|r| r.accuracy()).collect();
    let spread =
        accs.iter().copied().fold(0.0, f64::max) - accs.iter().copied().fold(1.0, f64::min);
    assert!(
        spread < 0.01,
        "configs must converge on fixed bias (spread {spread:.4})"
    );
}

#[test]
fn scenario_traces_are_bit_identical_across_runs_and_thread_counts() {
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 7,
    };
    let workloads: Vec<Workload> = [
        "ta branch=datadep:16 chain=3 mem=chase:128",
        "tb branch=history:2 chain=5 fanout=2 mem=stride:8",
        "tc branch=periodic:6 dead=3",
    ]
    .iter()
    .map(|line| Workload::scenario(line.parse().unwrap()))
    .collect();

    let base = std::env::temp_dir().join(format!("arvi-synth-det-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let dirs = [base.join("t1"), base.join("t4"), base.join("t1-again")];
    TraceSet::record(&workloads, spec, 1, Some(&dirs[0]));
    TraceSet::record(&workloads, spec, 4, Some(&dirs[1]));
    TraceSet::record(&workloads, spec, 1, Some(&dirs[2]));

    for w in &workloads {
        let file = trace_file_name(w, spec);
        let reference = std::fs::read(dirs[0].join(&file)).expect("trace persisted");
        assert!(!reference.is_empty());
        for dir in &dirs[1..] {
            let other = std::fs::read(dir.join(&file)).expect("trace persisted");
            assert_eq!(
                reference, other,
                "{file}: bytes differ across runs/thread counts"
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn same_name_different_knobs_get_distinct_trace_files() {
    let spec = Spec {
        warmup: 1_000,
        measure: 2_000,
        seed: 1,
    };
    let a = Workload::scenario("same branch=datadep:8 chain=2".parse().unwrap());
    let b = Workload::scenario("same branch=datadep:8 chain=3".parse().unwrap());
    assert_ne!(
        trace_file_name(&a, spec),
        trace_file_name(&b, spec),
        "scenario trace files must be keyed by the spec fingerprint"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The recorded stream is a pure function of `(spec, seed)` across
    /// the whole knob space — and seeds actually matter.
    #[test]
    fn recorded_stream_is_a_pure_function_of_spec_and_seed(
        class in 0..4usize,
        arg in 0..4096u32,
        chain in 0..9u32,
        fanout in 1..5u32,
        dead in 0..5u32,
        gap in 0..17u32,
        mem in 0..3usize,
        seed in 0..1_000u64,
    ) {
        let branch = match class {
            0 => format!("bias:{}", arg % 101),
            1 => format!("periodic:{}", 2 + arg % 31),
            2 => format!("history:{}", 1 + arg % 8),
            _ => format!("datadep:{}", 2 + arg % 100),
        };
        let mem = match mem {
            0 => "stream".to_string(),
            1 => format!("stride:{}", 1 + arg % 64),
            _ => format!("chase:{}", 2 + arg % 200),
        };
        let line = format!(
            "prop branch={branch} chain={chain} fanout={fanout} dead={dead} gap={gap} mem={mem}"
        );
        let spec: ScenarioSpec = line.parse().expect("generated specs are valid");
        let a = record_trace(&spec, seed, 4_000).to_bytes();
        let b = record_trace(&spec, seed, 4_000).to_bytes();
        prop_assert_eq!(&a, &b, "same (spec, seed) must record identically");
        let c = record_trace(&spec, seed + 1, 4_000).to_bytes();
        prop_assert_ne!(&a, &c, "different seeds must record differently");
    }
}
