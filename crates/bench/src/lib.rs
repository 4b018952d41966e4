//! # arvi-bench
//!
//! The experiment harness of the ARVI reproduction: regenerates every
//! table and figure of the paper's evaluation (see DESIGN.md §5 for the
//! experiment index).
//!
//! Binaries:
//!
//! * `tables` — Tables 1–4 (design/configuration tables).
//! * `fig5` — Figure 5(a) load-branch fractions and 5(b) per-class
//!   accuracy.
//! * `fig6` — Figure 6 prediction accuracy and normalized IPC for all
//!   four configurations at a given pipeline depth.
//! * `experiments` — the full sweep, emitting every figure and the
//!   headline averages.
//! * `synth_report` — characterizes every predictor (standalone
//!   baselines + machine configurations) across the curated
//!   synthetic-scenario grid: a markdown table with the paper-style
//!   separation summary, and under `--out` a JSON report (the form of
//!   `BENCH_PR3.json`).
//! * `ablations` — the design-decision ablations over the suite.
//! * `bench_history` — trends the checked-in `BENCH_PR<N>.json` reports
//!   across PRs.
//! * `obs_report` — per-workload differential site attribution over an
//!   `--obs-grid` rollup.
//!
//! Experiment grids run on one executor, entered only through
//! [`GridRun::run`] (on the workspace's one worker loop,
//! [`arvi_trace::par::par_map_caught`]), in
//! every mode — strict, fault-isolated and sampled: every
//! `(benchmark, depth, configuration)` cell is an independent
//! deterministic simulation (under `--sample`, one work item per
//! sampling unit), each isolated from the others, and results are
//! returned in grid order, so parallel sweeps are bit-identical to
//! sequential ones. The sweep binaries accept `--threads N` (default: all
//! cores; `1` = sequential).
//!
//! Grids are record-once / replay-many: each distinct
//! `(benchmark, seed, window)` workload is emulated exactly once into a
//! shared `arvi_trace::Trace` ([`sweep::TraceSet`]) and every cell
//! replays it — bit-identically to live emulation ([`run_one`]). A cell
//! whose workload has no usable recording fails alone and is reported
//! (exit code 3). The experiment
//! binaries (`fig5`, `fig6`, `experiments`, `synth_report`) also accept
//! `--trace-dir DIR` to persist recordings and reload them on later
//! runs instead of re-emulating.
//!
//! Grids sweep [`Workload`]s — suite benchmarks or `arvi-synth`
//! scenarios. The experiment binaries select scenarios with
//! `--scenario NAME_OR_SPEC` / `--scenario-file FILE` and enumerate
//! the registries with `--list-scenarios` / `--list-benchmarks`.
//!
//! The experiment binaries also accept the observability flags
//! (`--probe counters,sites,trace`, `--obs-out FILE`,
//! `--trace-cycles START:END`, `--top-sites N`): when present, the
//! grid's anchor cells carry the probes through the one pass, and the
//! binary emits their counter histograms, per-branch-site attribution
//! and/or Chrome trace after the tables — see [`obs`]. `--obs-grid
//! FILE` probes every cell of the same pass and writes the merged
//! rollup — see [`obs_grid`]. All of these flags are validated up
//! front ([`run_flags_from_args`]), and an unknown flag or a stray
//! positional argument is rejected.
//!
//! Criterion microbenchmarks (under `benches/`) measure the hardware
//! structures themselves (DDT insert/chain-read, RSE extraction, BVIT
//! lookup, predictor throughput, emulator and whole-machine speed). The
//! figures those structures produce are pinned by the golden digests
//! (`tests/golden_digests.rs`).

pub mod branch_stream;
pub mod events;
pub mod harness;
pub mod history;
pub mod obs;
pub mod obs_grid;
pub mod report;
pub mod resilience;
pub mod sampling;
pub mod sweep;
pub mod workload;

pub use branch_stream::{conditional_branches, fnv_bits, run_delayed, StreamRun};
pub use events::{EventLog, SweepTelemetry};
pub use harness::{fig5_cell, paper_tables, run_one, run_one_traced, Fig6Data, GridRun, Spec};
pub use history::{bench_history, load_bench_history, BenchFile, HistoryReport, MetricTrend};
pub use obs::{anchor, maybe_obs_pass, obs_from_args, ObsConfig, ObsReport};
pub use obs_grid::{
    attribution_diff, counters_from_json, counters_to_json, maybe_obs_grid, obs_grid_json,
    sites_from_json, sites_to_json, Attribution, CellProbes, ObsGrid, ObsGroup, SiteDelta,
    WorkloadAttribution,
};
pub use report::{read_json, write_report, write_text, Json};
pub use resilience::{
    cell_fingerprint, outcome_summary, timing_summary, CellOutcome, CellSuccess, FaultKind,
    FaultPlan, Resilience, SweepIncomplete, SweepJournal,
};
pub use sampling::{sample_plan_from_args, unit_fingerprint};
pub use sweep::{
    distinct_workloads, full_grid, grid, record_trace, trace_file_name, trace_len,
    try_record_trace, SweepPoint, TraceProvenance, TraceSet, TRACE_SLACK,
};
pub use workload::Workload;

use arvi_sampling::SamplePlan;
use arvi_sim::Depth;
use arvi_synth::ScenarioSpec;
use arvi_trace::par::cores;
use arvi_workloads::Benchmark;

/// Every flag the experiment binaries (`fig5`, `fig6`, `experiments`)
/// accept, and whether it takes a value. [`run_flags_from_args`] rejects
/// any other `--flag`, and [`positionals`] skips flag values by it.
pub(crate) const RUN_FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--threads", true),
    ("--trace-dir", true),
    ("--sample", true),
    ("--scenario", true),
    ("--scenario-file", true),
    ("--journal", true),
    ("--resume", false),
    ("--fault-plan", true),
    ("--events-out", true),
    ("--metrics-out", true),
    ("--probe", true),
    ("--obs-out", true),
    ("--obs-grid", true),
    ("--trace-cycles", true),
    ("--top-sites", true),
    ("--list-scenarios", false),
    ("--list-benchmarks", false),
];

/// The positional arguments of `args`: everything that is neither a flag
/// of the table `flags` (name, takes a value) nor the value of one. An
/// unknown `--flag` is an error, and so is a value-taking flag followed
/// by another flag or by nothing (as in [`flag_value`]).
fn positionals<'a>(args: &'a [String], flags: &[(&str, bool)]) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            out.push(arg.as_str());
            continue;
        }
        match flags.iter().find(|(name, _)| name == arg) {
            Some((_, true)) => {
                if rest.next_if(|v| !v.starts_with('-')).is_none() {
                    return Err(format!("{arg} needs a value"));
                }
            }
            Some((_, false)) => {}
            None => return Err(format!("unknown flag `{arg}`")),
        }
    }
    Ok(out)
}

/// Checks `args` for a binary that takes no positional argument and only
/// the flags of the table `flags` (name, takes a value): an unknown
/// `--flag` or any positional argument is an error.
pub fn check_flags(args: &[String], flags: &[(&str, bool)]) -> Result<(), String> {
    match positionals(args, flags)?.first() {
        Some(arg) => Err(format!("unexpected argument `{arg}`")),
        None => Ok(()),
    }
}

/// `fig6`'s pipeline depth: its one optional positional argument, `20`
/// (the default), `40` or `60`. Anything else is an error.
pub fn depth_from_args(args: &[String]) -> Result<Depth, String> {
    match positionals(args, RUN_FLAGS)?.as_slice() {
        [] => Ok(Depth::D20),
        [arg] => Depth::all()
            .into_iter()
            .find(|d| d.stages().to_string() == *arg)
            .ok_or_else(|| format!("unknown pipeline depth `{arg}` (expected 20, 40 or 60)")),
        more => Err(format!("expected one pipeline depth, got {more:?}")),
    }
}

/// The value following `flag` in `args`: `Ok(None)` when the flag is
/// absent, an error when it has no value (end of arguments, or another
/// flag where the value should be).
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with('-'))
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// Parses a `--threads N` argument pair out of `args`, defaulting to all
/// cores; a missing or non-numeric `N` is an error.
pub fn threads_from_args(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--threads")? {
        None => Ok(cores()),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--threads: not a number: `{v}`")),
    }
}

/// Parses a `--trace-dir DIR` argument pair out of `args`: the directory
/// experiment binaries persist workload recordings to (and reload them
/// from) instead of re-emulating on every run. A missing `DIR` is an
/// error.
pub fn trace_dir_from_args(args: &[String]) -> Result<Option<std::path::PathBuf>, String> {
    Ok(flag_value(args, "--trace-dir")?.map(std::path::PathBuf::from))
}

/// Parses the fault-tolerance flags out of `args`:
///
/// * `--journal FILE` — append completed sweep cells to `FILE` (the
///   sweep journal) as they finish.
/// * `--resume` — restore completed cells from the journal instead of
///   re-running them. Implies a journal; without `--journal` it
///   defaults to `sweep.journal` inside `--trace-dir` (or the current
///   directory without one).
/// * `--fault-plan FILE` — inject the deterministic faults listed in
///   `FILE` (see [`FaultPlan::parse`] for the line syntax).
/// * `--events-out FILE` — write a JSONL span log of sweep execution
///   events (cell start/end, record/replay phase, resume hits) to
///   `FILE`.
/// * `--metrics-out FILE` — write cumulative sweep counters to `FILE`
///   in Prometheus text exposition format after every sweep.
///
/// Without any of them the policy is the default, [`Resilience::new`].
pub fn resilience_from_args(args: &[String]) -> Result<Resilience, String> {
    let journal = flag_value(args, "--journal")?;
    let resume = args.iter().any(|a| a == "--resume");
    let plan_path = flag_value(args, "--fault-plan")?;
    let events_out = flag_value(args, "--events-out")?;
    let metrics_out = flag_value(args, "--metrics-out")?;
    let mut res = Resilience::new();
    if events_out.is_some() || metrics_out.is_some() {
        let telemetry = SweepTelemetry::from_paths(
            events_out.map(std::path::Path::new),
            metrics_out.map(std::path::Path::new),
        )
        .map_err(|e| format!("cannot open telemetry sink: {e}"))?;
        res.telemetry = Some(std::sync::Arc::new(telemetry));
    }
    res.journal = match journal {
        Some(path) => Some(std::path::PathBuf::from(path)),
        // --resume without --journal: the conventional location.
        None if resume => Some(
            trace_dir_from_args(args)?
                .unwrap_or_default()
                .join("sweep.journal"),
        ),
        None => None,
    };
    res.resume = resume;
    if let Some(path) = plan_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        res.plan = Some(std::sync::Arc::new(FaultPlan::parse(&text)?));
    }
    Ok(res)
}

/// The run-mode flags the experiment binaries share, parsed and
/// validated together before any work starts — a malformed flag fails
/// the invocation with nothing on stdout.
#[derive(Debug)]
pub struct RunFlags {
    /// Worker threads ([`threads_from_args`]).
    pub threads: usize,
    /// Where recordings persist ([`trace_dir_from_args`]).
    pub trace_dir: Option<std::path::PathBuf>,
    /// Fault tolerance and telemetry ([`resilience_from_args`]), with
    /// [`Resilience::probes`] holding `obs`, so the anchor report and
    /// the `--obs-grid` rollup ride the one pass.
    pub res: Resilience,
    /// The `--sample` plan ([`sample_plan_from_args`]).
    pub plan: Option<SamplePlan>,
    /// The observability flags ([`obs_from_args`]).
    pub obs: Option<ObsConfig>,
}

/// Parses [`RunFlags`] out of `args` for `fig5` and `experiments`,
/// which take no positional argument; the error names an unknown flag
/// (one not in `RUN_FLAGS`), a stray positional, or the first malformed
/// flag.
pub fn run_flags_from_args(args: &[String]) -> Result<RunFlags, String> {
    check_flags(args, RUN_FLAGS)?;
    parse_run_flags(args)
}

/// `fig6`'s [`RunFlags`] and pipeline depth, its one optional positional
/// ([`depth_from_args`]); errors as [`run_flags_from_args`]'s, except
/// that the depth is allowed.
pub fn fig6_flags_from_args(args: &[String]) -> Result<(RunFlags, Depth), String> {
    let depth = depth_from_args(args)?;
    Ok((parse_run_flags(args)?, depth))
}

/// [`RunFlags`] out of `args`, whose flags and positionals are already
/// checked.
fn parse_run_flags(args: &[String]) -> Result<RunFlags, String> {
    let threads = threads_from_args(args)?;
    let trace_dir = trace_dir_from_args(args)?;
    let obs = obs_from_args(args)?;
    let plan = sample_plan_from_args(args)?;
    let mut res = resilience_from_args(args)?;
    res.probes = obs.clone();
    Ok(RunFlags {
        threads,
        trace_dir,
        res,
        plan,
        obs,
    })
}

/// Parses the scenario-selection flags out of `args`:
///
/// * `--scenario X` (repeatable) — `X` is a curated scenario name
///   (`--list-scenarios`), or a full quoted spec line
///   (`"name branch=datadep:64 chain=8"`; recognized by containing
///   whitespace or `=`). A bare name that is not curated runs as a
///   knobless spec line (all defaults), with a note on stderr.
/// * `--scenario-file FILE` — a scenario file, one spec line each
///   (`arvi_synth::parse_scenarios` syntax: `#` comments, blank lines).
///
/// Returns `Ok(None)` when no scenario flag is present (callers fall
/// back to the benchmark suite), `Ok(Some(workloads))` otherwise.
pub fn scenario_workloads_from_args(args: &[String]) -> Result<Option<Vec<Workload>>, String> {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut any = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                any = true;
                let v = args
                    .get(i + 1)
                    // A following flag means the value was forgotten —
                    // without this, `--scenario --quick` would run a
                    // default-knob scenario literally named `--quick`.
                    .filter(|v| !v.starts_with('-'))
                    .ok_or("--scenario needs a name or spec line")?;
                let spec = if v.contains(|c: char| c.is_whitespace() || c == '=') {
                    v.parse::<ScenarioSpec>().map_err(|e| e.to_string())?
                } else {
                    match arvi_synth::find(v) {
                        Some(spec) => spec,
                        // A bare name that is not curated is still a
                        // valid knobless spec line — accept it (with a
                        // note, in case it was a curated-name typo).
                        None => {
                            let spec = v.parse::<ScenarioSpec>().map_err(|_| {
                                format!(
                                    "unknown scenario `{v}` — not a curated name \
                                     (see --list-scenarios) nor a valid spec line"
                                )
                            })?;
                            eprintln!(
                                "note: `{v}` is not a curated scenario; \
                                 running it as a spec line with default knobs"
                            );
                            spec
                        }
                    }
                };
                specs.push(spec);
                i += 2;
            }
            "--scenario-file" => {
                any = true;
                let path = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with('-'))
                    .ok_or("--scenario-file needs a path")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                specs.extend(arvi_synth::parse_scenarios(&text).map_err(|e| e.to_string())?);
                i += 2;
            }
            _ => i += 1,
        }
    }
    if !any {
        return Ok(None);
    }
    for (i, a) in specs.iter().enumerate() {
        if specs[..i].iter().any(|b| b.name == a.name) {
            return Err(format!("duplicate scenario name `{}`", a.name));
        }
    }
    Ok(Some(specs.into_iter().map(Workload::scenario).collect()))
}

/// The workload set selected by `args`: the named scenarios when any
/// scenario flag is present, the benchmark suite otherwise. Prints the
/// error and exits on a malformed scenario flag.
pub fn workloads_from_args(args: &[String]) -> Vec<Workload> {
    match scenario_workloads_from_args(args) {
        Ok(Some(workloads)) => workloads,
        Ok(None) => Workload::suite(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Handles the discoverability flags `--list-scenarios` /
/// `--list-benchmarks`: prints the requested registries and returns
/// `true` if either was present (the caller should exit).
pub fn handle_list_flags(args: &[String]) -> bool {
    let scenarios = args.iter().any(|a| a == "--list-scenarios");
    let benchmarks = args.iter().any(|a| a == "--list-benchmarks");
    if benchmarks {
        println!("suite benchmarks:");
        for b in Benchmark::all() {
            println!("  {}", b.name());
        }
    }
    if scenarios {
        println!("curated scenarios (pass a name to --scenario; the full line form works too):");
        for line in arvi_synth::CURATED {
            println!("  {line}");
        }
    }
    scenarios || benchmarks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_scenario_flags_means_suite() {
        assert_eq!(
            scenario_workloads_from_args(&args(&["--quick", "--threads", "2"])).unwrap(),
            None
        );
        assert_eq!(workloads_from_args(&args(&["--quick"])), Workload::suite());
    }

    #[test]
    fn curated_names_and_spec_lines_mix() {
        let w = scenario_workloads_from_args(&args(&[
            "--scenario",
            "datadep-deep",
            "--scenario",
            "mine branch=periodic:6 chain=3",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].name(), "datadep-deep");
        assert_eq!(w[1].name(), "mine");
        assert!(matches!(
            w[1].as_scenario().unwrap().branch,
            arvi_synth::BranchClass::Periodic { period: 6 }
        ));
    }

    #[test]
    fn bare_uncurated_name_becomes_a_knobless_spec() {
        let w = scenario_workloads_from_args(&args(&["--scenario", "mine"]))
            .unwrap()
            .unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].name(), "mine");
        assert_eq!(w[0].as_scenario().unwrap().chain_depth, 2, "default knobs");
    }

    #[test]
    fn scenario_errors_are_reported() {
        // Neither a curated name nor a valid spec line (unsafe name).
        assert!(
            scenario_workloads_from_args(&args(&["--scenario", "no/pe"]))
                .unwrap_err()
                .contains("unknown scenario")
        );
        assert!(scenario_workloads_from_args(&args(&["--scenario"]))
            .unwrap_err()
            .contains("needs a name"));
        // A forgotten value followed by another flag must not become a
        // scenario named after the flag.
        assert!(
            scenario_workloads_from_args(&args(&["--scenario", "--quick"]))
                .unwrap_err()
                .contains("needs a name")
        );
        assert!(
            scenario_workloads_from_args(&args(&["--scenario-file", "--quick"]))
                .unwrap_err()
                .contains("needs a path")
        );
        assert!(scenario_workloads_from_args(&args(&[
            "--scenario",
            "a branch=bias:100",
            "--scenario",
            "a branch=bias:50",
        ]))
        .unwrap_err()
        .contains("duplicate"));
    }

    #[test]
    fn resilience_flags_parse() {
        let default = format!("{:?}", Resilience::new());
        let r = resilience_from_args(&args(&["--quick", "--threads", "2"])).unwrap();
        assert_eq!(format!("{r:?}"), default);
        let r = resilience_from_args(&args(&["--journal", "j.log"])).unwrap();
        assert_eq!(r.journal.as_deref(), Some(std::path::Path::new("j.log")));
        assert!(!r.resume);
        // --resume defaults the journal into the trace dir.
        let r = resilience_from_args(&args(&["--resume", "--trace-dir", "traces"])).unwrap();
        assert!(r.resume);
        assert_eq!(
            r.journal.as_deref(),
            Some(std::path::Path::new("traces/sweep.journal"))
        );
        assert!(resilience_from_args(&args(&["--journal"])).is_err());
        assert!(resilience_from_args(&args(&["--fault-plan", "/nonexistent/plan"])).is_err());
    }

    #[test]
    fn run_flags_validate_every_flag_up_front() {
        let flags = run_flags_from_args(&args(&["--quick", "--threads", "2"])).unwrap();
        assert_eq!(
            format!("{:?}", flags.res),
            format!("{:?}", Resilience::new())
        );
        assert!(flags.plan.is_none() && flags.obs.is_none());
        // Malformed observability, sampling or resilience flags are
        // all rejected before the binaries do any work.
        for bad in [
            vec!["--quick", "--probe", "bogus"],
            vec!["--trace-cycles", "10"],
            vec!["--obs-out", "o.json"],
            vec!["--probe", "counters", "--top-sites", "many"],
            vec!["--obs-grid"],
            vec!["--sample", "nope"],
            vec!["--quick", "--threads", "bogus"],
            vec!["--threads"],
            vec!["--threads", "--quick"],
            vec!["--trace-dir"],
            vec!["--trace-dir", "--quick"],
            vec!["--resume", "--trace-dir"],
            vec!["--quick", "--treads", "2"],
            vec!["--quick", "--journal=j.log"],
            vec!["--quick", "40"],
            vec!["--quick", "2O"],
            vec!["20", "--threads", "2"],
        ] {
            assert!(run_flags_from_args(&args(&bad)).is_err(), "{bad:?}");
        }
        assert!(run_flags_from_args(&args(&["--quick", "--treads", "2"]))
            .unwrap_err()
            .contains("--treads"));
        // A value-taking flag followed by another flag names itself, not
        // the argument after the other flag.
        let table = &[("--report", true), ("--baseline", true)][..];
        assert_eq!(
            check_flags(&args(&["--report", "--baseline", "x"]), table),
            Err("--report needs a value".to_string())
        );
        let table = &[("--grid", true), ("--out", true), ("--top", true)][..];
        assert_eq!(
            check_flags(&args(&["--grid", "g.json", "--out", "--top", "5"]), table),
            Err("--out needs a value".to_string())
        );
        assert_eq!(
            check_flags(&args(&["--grid"]), table),
            Err("--grid needs a value".to_string())
        );
        // fig6's depth positional: 20, 40 or 60 and nothing else; flag
        // values are not positionals.
        let depth = |argv: &[&str]| depth_from_args(&args(argv));
        assert_eq!(depth(&["--quick"]), Ok(Depth::D20));
        assert_eq!(depth(&["--quick", "40"]), Ok(Depth::D40));
        assert_eq!(depth(&["60", "--threads", "2"]), Ok(Depth::D60));
        assert_eq!(
            depth(&["--threads", "40", "--scenario", "60"]),
            Ok(Depth::D20)
        );
        for bad in [
            &["50", "--quick"][..],
            &["2O"],
            &["20", "40"],
            &["--treads", "2"],
        ] {
            assert!(depth(bad).is_err(), "{bad:?}");
        }
        // fig6 alone takes the depth; fig5 and experiments take nothing.
        let (flags, d) = fig6_flags_from_args(&args(&["40", "--threads", "3"])).unwrap();
        assert_eq!((flags.threads, d), (3, Depth::D40));
        assert!(fig6_flags_from_args(&args(&["50", "--quick"])).is_err());
        assert!(fig6_flags_from_args(&args(&["--quick", "--threads", "bogus"])).is_err());
        assert!(run_flags_from_args(&args(&["--quick", "40"]))
            .unwrap_err()
            .contains("`40`"));
        let flags = run_flags_from_args(&args(&["--threads", "3", "--trace-dir", "t"])).unwrap();
        assert_eq!(flags.threads, 3);
        assert_eq!(flags.trace_dir.as_deref(), Some(std::path::Path::new("t")));
        let flags = run_flags_from_args(&args(&["--quick"])).unwrap();
        assert_eq!(flags.threads, cores());
        assert!(flags.trace_dir.is_none());
        // The policy carries the parsed observability config; without
        // one it stays probe-free.
        for obs in [&["--obs-grid", "g.json"][..], &["--probe", "counters"]] {
            let flags = run_flags_from_args(&args(obs)).unwrap();
            assert!(flags.obs.is_some());
            assert_eq!(flags.res.probes, flags.obs);
        }
        let flags = run_flags_from_args(&args(&["--journal", "j.log"])).unwrap();
        assert!(flags.res.probes.is_none());
        let flags = run_flags_from_args(&args(&["--sample", "4:1000:500"])).unwrap();
        assert_eq!(flags.plan, Some(SamplePlan::systematic(4, 1000, 500)));
    }

    #[test]
    fn telemetry_flags_open_their_sinks() {
        let dir = std::env::temp_dir().join(format!("arvi-telflag-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let events = dir.join("events.jsonl");
        let r = resilience_from_args(&args(&["--events-out", events.to_str().unwrap()])).unwrap();
        let t = r.telemetry.as_ref().expect("telemetry configured");
        assert_eq!(t.events().unwrap().path(), events);
        assert!(events.exists(), "log created eagerly, with parents");
        // Metrics alone also counts; no event log in that case.
        let metrics = dir.join("metrics.prom");
        let r = resilience_from_args(&args(&["--metrics-out", metrics.to_str().unwrap()])).unwrap();
        assert!(r.telemetry.as_ref().unwrap().events().is_none());
        assert!(resilience_from_args(&args(&["--events-out"])).is_err());
        // An unopenable sink is a flag error, and it names the path.
        std::fs::write(dir.join("blocker"), "x").unwrap();
        let err = resilience_from_args(&args(&[
            "--events-out",
            dir.join("blocker/e.jsonl").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("blocker"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_flag_loads_and_validates() {
        let dir = std::env::temp_dir().join(format!("arvi-resflag-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.faults");
        std::fs::write(&path, "panic-cell 0\nkill-after 2\n").unwrap();
        let r = resilience_from_args(&args(&["--fault-plan", path.to_str().unwrap()])).unwrap();
        assert_eq!(r.plan.as_ref().unwrap().len(), 2);
        std::fs::write(&path, "warp-core-breach 1\n").unwrap();
        assert!(
            resilience_from_args(&args(&["--fault-plan", path.to_str().unwrap()]))
                .unwrap_err()
                .contains("unknown fault kind")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenario_file_flag_loads_specs() {
        let dir = std::env::temp_dir().join(format!("arvi-lib-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite.scenarios");
        std::fs::write(
            &path,
            "# two
one branch=datadep:8
two branch=bias:75
",
        )
        .unwrap();
        let w = scenario_workloads_from_args(&args(&["--scenario-file", path.to_str().unwrap()]))
            .unwrap()
            .unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].name(), "two");
        std::fs::remove_dir_all(&dir).ok();
    }
}
