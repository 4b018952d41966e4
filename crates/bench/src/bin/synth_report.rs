//! Characterizes every predictor across the synthetic-scenario grid and
//! emits the paper-style separation evidence as a markdown table on
//! stdout and, under `--out`, as JSON (the form of `BENCH_PR3.json`).
//!
//! Two layers, both fed from one shared recording per scenario
//! (record-once / replay-many):
//!
//! 1. **Standalone direction predictors** — Bimodal, Gshare, Local and
//!    2Bc-gskew run over the recorded conditional-branch stream with
//!    immediate update: the predictor-only view, no pipeline effects.
//! 2. **Machine configurations** — the full timing simulator at 20
//!    stages for each `PredictorConfig` (two-level 2Bc-gskew baseline
//!    vs the DDT-based ARVI paths), giving accuracy and normalized IPC.
//!
//! The headline check mirrors the paper's qualitative claim: on
//! data-dependent-branch scenarios the ARVI path must beat the **best**
//! baseline from either layer, while on fixed-bias scenarios every
//! predictor converges to the bias.
//!
//! Usage: `synth_report [--quick] [--threads N] [--trace-dir DIR] [--out PATH]
//!                      [--scenario NAME_OR_SPEC]... [--scenario-file FILE]
//!                      [--obs-grid FILE [--trace-cycles START:END]]
//!                      [--list-scenarios] [--list-benchmarks]`
//!
//! An unknown flag, a positional argument, or `--out` without a path
//! exits 2 before any work, writing no file; an `--out` that cannot be
//! written exits 1 naming the path. `--obs-grid FILE` puts the counter
//! and site probes on every machine cell as it runs and writes the
//! rollup (one group per cell) to `FILE`; `--trace-cycles START:END`
//! then re-runs the ARVI current-value cells up to cycle END and traces
//! the window into `<FILE minus extension>.trace.json`.

use std::sync::Arc;

use arvi_bench::{
    check_flags, flag_value, grid, handle_list_flags, maybe_obs_grid, obs_from_args,
    scenario_workloads_from_args, threads_from_args, trace_dir_from_args, write_report, GridRun,
    Json, Resilience, Spec, TraceSet, Workload,
};
use arvi_predict::{Bimodal, DirectionPredictor, Gshare, GskewConfig, Local, TwoBcGskew};
use arvi_sim::{Depth, PredictorConfig, SimResult};
use arvi_trace::{Trace, TraceReplayer};

/// The standalone baselines, freshly constructed per scenario. Sizes are
/// in the 32 KB class of the machine's level-2 tables (reported as
/// `storage_bits` in the JSON).
fn standalone_baselines() -> Vec<Box<dyn DirectionPredictor>> {
    vec![
        Box::new(Bimodal::new(17)),
        Box::new(Gshare::new(17, 13)),
        Box::new(Local::new(12, 10, 14)),
        Box::new(TwoBcGskew::new(GskewConfig::level2())),
    ]
}

/// Accuracy of one standalone predictor over the recorded stream:
/// branches inside the warmup train but do not count.
fn standalone_accuracy(
    predictor: &mut dyn DirectionPredictor,
    trace: &Arc<Trace>,
    spec: Spec,
) -> f64 {
    let mut correct = 0u64;
    let mut total = 0u64;
    for d in TraceReplayer::new(Arc::clone(trace)) {
        let Some(branch) = d.branch else { continue };
        if !branch.conditional {
            continue;
        }
        let pc = d.byte_pc();
        let p = predictor.predict(pc);
        predictor.spec_push(branch.taken);
        predictor.update(pc, &p, branch.taken);
        if d.seq >= spec.warmup {
            correct += (p.taken == branch.taken) as u64;
            total += 1;
        }
        if d.seq >= spec.warmup + spec.measure {
            break;
        }
    }
    correct as f64 / total.max(1) as f64
}

struct ScenarioReport {
    workload: Workload,
    /// `(name, storage_bits, accuracy)` per standalone baseline.
    standalone: Vec<(&'static str, usize, f64)>,
    /// Machine results in `PredictorConfig::all()` order.
    machine: Vec<SimResult>,
}

impl ScenarioReport {
    fn class(&self) -> &'static str {
        self.workload
            .as_scenario()
            .map(|s| s.branch.tag())
            .unwrap_or("bench")
    }

    fn machine_accuracy(&self, config: PredictorConfig) -> f64 {
        self.machine[config.index()].accuracy()
    }

    /// The best non-ARVI accuracy across both layers.
    fn best_baseline(&self) -> f64 {
        self.standalone
            .iter()
            .map(|&(_, _, acc)| acc)
            .chain([self.machine_accuracy(PredictorConfig::TwoLevelGskew)])
            .fold(0.0, f64::max)
    }

    /// ARVI-current accuracy minus the best baseline.
    fn margin(&self) -> f64 {
        self.machine_accuracy(PredictorConfig::ArviCurrent) - self.best_baseline()
    }

    /// Max pairwise accuracy spread across the four machine
    /// configurations (the convergence measure for bias scenarios: on an
    /// irreducible bias the ARVI paths must not separate from the
    /// two-level baseline). Standalone predictors are excluded — a lone
    /// gshare is *expected* to dilute a pure bias with history noise.
    fn spread(&self) -> f64 {
        let accs: Vec<f64> = self.machine.iter().map(|r| r.accuracy()).collect();
        let lo = accs.iter().copied().fold(1.0, f64::min);
        let hi = accs.iter().copied().fold(0.0, f64::max);
        hi - lo
    }
}

fn markdown_table(reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    out.push_str(
        "| scenario | class | bimodal | gshare | local | 2Bc-gskew | 2-level gskew | \
         arvi current | arvi perfect | margin |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
    for r in reports {
        out.push_str(&format!(
            "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:+.4} |\n",
            r.workload.name(),
            r.class(),
            r.standalone[0].2,
            r.standalone[1].2,
            r.standalone[2].2,
            r.standalone[3].2,
            r.machine_accuracy(PredictorConfig::TwoLevelGskew),
            r.machine_accuracy(PredictorConfig::ArviCurrent),
            r.machine_accuracy(PredictorConfig::ArviPerfect),
            r.margin(),
        ));
    }
    out
}

/// Every flag `synth_report` accepts, and whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--threads", true),
    ("--trace-dir", true),
    ("--out", true),
    ("--scenario", true),
    ("--scenario-file", true),
    ("--obs-grid", true),
    ("--trace-cycles", true),
    ("--list-scenarios", false),
    ("--list-benchmarks", false),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (obs, threads, trace_dir, out_path) = check_flags(&args, FLAGS)
        .and_then(|()| {
            Ok((
                obs_from_args(&args)?,
                threads_from_args(&args)?,
                trace_dir_from_args(&args)?,
                flag_value(&args, "--out")?.cloned(),
            ))
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    if handle_list_flags(&args) {
        return;
    }
    let spec = Spec::from_args(&args);

    let workloads = match scenario_workloads_from_args(&args) {
        Ok(Some(w)) => w,
        Ok(None) => Workload::curated_scenarios(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "synth_report: {} scenarios x ({} standalone + {} machine configs), \
         {}+{} window, {threads} threads",
        workloads.len(),
        standalone_baselines().len(),
        PredictorConfig::all().len(),
        spec.warmup,
        spec.measure,
    );

    // One recording per scenario feeds both layers and all configs.
    let traces = TraceSet::record(&workloads, spec, threads, trace_dir.as_deref());
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let res = Resilience {
        probes: obs.is_some(),
        ..Resilience::new()
    };
    let run = GridRun::run(points, spec, threads, true, &traces, &res, None);
    let machine = run.results(|_| true).unwrap_or_else(|incomplete| {
        eprintln!("{incomplete}");
        std::process::exit(3);
    });

    let configs = PredictorConfig::all().len();
    let reports: Vec<ScenarioReport> = workloads
        .iter()
        .enumerate()
        .map(|(wi, workload)| {
            let trace = traces.get(workload).expect("recorded above");
            let standalone = standalone_baselines()
                .iter_mut()
                .map(|p| {
                    (
                        p.name(),
                        p.storage_bits(),
                        standalone_accuracy(p.as_mut(), trace, spec),
                    )
                })
                .collect();
            ScenarioReport {
                workload: workload.clone(),
                standalone,
                machine: machine[wi * configs..(wi + 1) * configs].to_vec(),
            }
        })
        .collect();

    println!("## Synthetic-scenario predictor characterization (20-stage)\n");
    println!("{}", markdown_table(&reports));

    // The paper-style qualitative separation.
    let datadep: Vec<&ScenarioReport> = reports.iter().filter(|r| r.class() == "datadep").collect();
    let bias: Vec<&ScenarioReport> = reports.iter().filter(|r| r.class() == "bias").collect();
    let min_margin = datadep
        .iter()
        .map(|r| r.margin())
        .fold(f64::INFINITY, f64::min);
    let max_spread = bias.iter().map(|r| r.spread()).fold(0.0, f64::max);
    if !datadep.is_empty() {
        println!(
            "separation: min ARVI margin over best baseline on datadep scenarios = {min_margin:+.4}"
        );
    }
    if !bias.is_empty() {
        println!(
            "convergence: max machine-config spread on fixed-bias scenarios = {max_spread:.4}"
        );
    }

    let scenario_json: Vec<Json> = reports
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::str(r.workload.name())),
                (
                    "spec",
                    match r.workload.as_scenario() {
                        Some(s) => Json::str(s.to_string()),
                        None => Json::Null,
                    },
                ),
                ("class", Json::str(r.class())),
                (
                    "standalone",
                    Json::Arr(
                        r.standalone
                            .iter()
                            .map(|&(name, bits, acc)| {
                                Json::obj([
                                    ("predictor", Json::str(name)),
                                    ("storage_bits", Json::Num(bits as f64)),
                                    ("accuracy", Json::Num(acc)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "machine",
                    Json::Arr(
                        r.machine
                            .iter()
                            .map(|m| {
                                Json::obj([
                                    ("config", Json::str(m.config.label())),
                                    ("accuracy", Json::Num(m.accuracy())),
                                    ("ipc", Json::Num(m.ipc())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("best_baseline", Json::Num(r.best_baseline())),
                ("arvi_margin", Json::Num(r.margin())),
                ("spread", Json::Num(r.spread())),
            ])
        })
        .collect();

    let report = Json::obj([
        ("pr", Json::Num(3.0)),
        (
            "title",
            Json::str("arvi-synth scenario grid: predictor characterization"),
        ),
        ("depth", Json::str("20-stage")),
        ("warmup", Json::Num(spec.warmup as f64)),
        ("measure", Json::Num(spec.measure as f64)),
        ("seed", Json::Num(spec.seed as f64)),
        ("threads", Json::Num(threads as f64)),
        ("scenarios", Json::Arr(scenario_json)),
        (
            "separation",
            Json::obj([
                ("datadep_min_arvi_margin", Json::Num(min_margin)),
                ("bias_max_spread", Json::Num(max_spread)),
                // Only claim the separation when both halves of the
                // evidence were actually measured: a scenario set with
                // no datadep (or no bias) scenarios must not report a
                // vacuous `true` (min_margin folds from +inf, max_spread
                // from 0.0).
                (
                    "qualitative_separation",
                    Json::Bool(
                        !datadep.is_empty()
                            && !bias.is_empty()
                            && min_margin > 0.0
                            && max_spread < 0.05,
                    ),
                ),
            ]),
        ),
    ]);
    if let Some(out_path) = out_path {
        if let Err(e) = write_report(std::path::Path::new(&out_path), &report) {
            eprintln!("error: cannot write report: {e}");
            std::process::exit(1);
        }
        eprintln!("synth_report: wrote {out_path}");
    }

    // The characterization's machine cells, probed in-pass (`--obs-grid`).
    maybe_obs_grid(obs.as_ref(), run, spec, &traces, threads, None);
}
