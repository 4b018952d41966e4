//! # arvi-bench
//!
//! The experiment harness of the ARVI reproduction: regenerates every
//! table and figure of the paper's evaluation, one binary per artifact
//! (the index below).
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
//!   `--obs-grid` rollup, or one workload's anchor-cell counters and
//!   site table (`--cell`).
//!
//! Experiment grids run on one executor, entered only through
//! [`GridRun::run`] (on the workspace's one worker loop,
//! [`arvi_trace::par::par_map_caught`]), in every mode — strict,
//! fault-isolated and sampled: every `(workload, depth, configuration)`
//! cell is an independent deterministic simulation (under `--sample`,
//! one work item per sampling unit), and results return in grid order,
//! so parallel sweeps are bit-identical to sequential ones. Grids are
//! record-once / replay-many: each distinct `(workload, seed, window)`
//! is emulated once into a shared `arvi_trace::Trace`
//! ([`sweep::TraceSet`], persisted under `--trace-dir`) and every cell
//! replays it — bit-identically to live emulation ([`run_one`]).
//! Workloads are suite benchmarks or `arvi-synth` scenarios.
//!
//! Every binary parses its command line once, in one pass against its
//! flag table ([`CommandLine::parse`]): an unknown flag, a flag without
//! its value, a repeated flag (only `--scenario` and `--scenario-file`
//! repeat) or a positional the binary does not take exits 2, naming the
//! token. The run binaries build one validated [`RunFlags`] from that
//! parse before any work and share one skeleton, [`run_figures`]; the
//! `--events-out`/`--metrics-out` sinks open last, and only for a run
//! that does work. Stdout goes through [`outln!`]/[`out!`]: a closed
//! stdout ends the process quietly with status 141.
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
pub use obs_grid::{
    anchor, attribution_diff, cell_view, counters_from_json, counters_to_json, maybe_obs_grid,
    obs_grid_json, sites_from_json, sites_to_json, Attribution, CellProbes, ObsConfig, ObsGrid,
    ObsGroup, SiteDelta, WorkloadAttribution,
};
pub use report::{read_json, write_report, write_text, Json};
pub use resilience::{
    cell_fingerprint, CellOutcome, CellSuccess, CellTimes, FaultKind, FaultPlan, Resilience,
    RunTally, SweepIncomplete, SweepJournal,
};
pub use sampling::unit_fingerprint;
pub use sweep::{
    distinct_workloads, full_grid, grid, record_trace, trace_file_name, trace_len,
    try_record_trace, SweepPoint, TraceProvenance, TraceSet, TRACE_SLACK,
};
pub use workload::Workload;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use arvi_sampling::SamplePlan;
use arvi_sim::Depth;
use arvi_synth::ScenarioSpec;
use arvi_trace::par::cores;
use arvi_workloads::Benchmark;

/// What a flag of a binary's table takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: a switch, given at most once.
    Nothing,
    /// One value, given at most once.
    Value,
    /// One value per occurrence: the flag may repeat.
    Values,
}

/// A binary's flag table: every flag it accepts and what each takes.
pub type FlagTable = [(&'static str, Takes)];

/// Every flag the run binaries (`fig5`, `fig6`, `experiments`) accept;
/// add a new run flag here and read it in [`RunFlags::new`].
pub const RUN_FLAGS: &FlagTable = &[
    ("--quick", Takes::Nothing),
    ("--threads", Takes::Value),
    ("--trace-dir", Takes::Value),
    ("--sample", Takes::Value),
    ("--scenario", Takes::Values),
    ("--scenario-file", Takes::Values),
    ("--journal", Takes::Value),
    ("--resume", Takes::Nothing),
    ("--fault-plan", Takes::Value),
    ("--events-out", Takes::Value),
    ("--metrics-out", Takes::Value),
    ("--obs-grid", Takes::Value),
    ("--trace-cycles", Takes::Value),
    ("--list-scenarios", Takes::Nothing),
    ("--list-benchmarks", Takes::Nothing),
];

/// A binary's arguments, parsed once against its flag table.
#[derive(Debug)]
pub struct CommandLine {
    /// Every flag given, in argument order, with its value (`None` for a
    /// switch).
    flags: Vec<(&'static str, Option<String>)>,
    /// The positional arguments, in order.
    positionals: Vec<String>,
}

impl CommandLine {
    /// Parses `args` in one pass against `table`, allowing at most
    /// `positionals` positional arguments. An unknown `--flag`, a
    /// value-taking flag followed by nothing or by another flag, a
    /// repeated flag that may not repeat and a positional too many are
    /// errors naming the token. A flag's value is never a positional.
    pub fn parse(
        args: &[String],
        table: &FlagTable,
        positionals: usize,
    ) -> Result<CommandLine, String> {
        let mut line = CommandLine {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if line.positionals.len() == positionals {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                line.positionals.push(arg.clone());
                continue;
            }
            let Some(&(name, takes)) = table.iter().find(|(name, _)| name == arg) else {
                return Err(format!("unknown flag `{arg}`"));
            };
            if takes != Takes::Values && line.has(name) {
                return Err(format!("{name} is given more than once"));
            }
            let value = match takes {
                Takes::Nothing => None,
                Takes::Value | Takes::Values => match rest.next_if(|v| !v.starts_with('-')) {
                    Some(value) => Some(value.clone()),
                    None => return Err(format!("{name} needs a value")),
                },
            };
            line.flags.push((name, value));
        }
        Ok(line)
    }

    /// The process's arguments parsed against `table`; a malformed
    /// command line exits 2 ([`usage_error`]).
    pub fn from_env(table: &FlagTable, positionals: usize) -> CommandLine {
        let args: Vec<String> = std::env::args().skip(1).collect();
        CommandLine::parse(&args, table, positionals).unwrap_or_else(|e| usage_error(e))
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// The (first) value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(name, _)| *name == flag)?
            .1
            .as_deref()
    }
}

/// Prints `error: {e}` and exits 2, before any work.
pub fn usage_error(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// Writes `args` to stdout, the one way the binaries print: a closed
/// stdout (`fig6 --list-scenarios | head -1`) exits with status 141
/// (128 + SIGPIPE), printing nothing; any other write error exits 1.
pub fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The run setup of `fig5`, `fig6`, `experiments` and `synth_report`,
/// built from one [`CommandLine`] and validated whole before any work
/// starts or any file is touched. A flag outside the binary's table
/// reads as absent.
#[derive(Debug)]
pub struct RunFlags {
    /// [`Spec::quick`] under `--quick`, [`Spec::default`] otherwise.
    pub spec: Spec,
    /// `--threads N` (default: all cores; `1` = sequential).
    pub threads: usize,
    /// `--trace-dir DIR`: where recordings persist across runs.
    pub trace_dir: Option<PathBuf>,
    /// `--journal FILE`, `--resume` (without `--journal`, the journal
    /// is `sweep.journal` in `--trace-dir` or the current directory),
    /// `--fault-plan FILE` ([`FaultPlan::parse`]), and the telemetry
    /// sinks `--events-out FILE` (JSONL sweep events) and `--metrics-out
    /// FILE` (Prometheus text, written once at sweep end from
    /// [`RunTally::prometheus`]), which open last and only for a run
    /// that is not list-only. [`Resilience::probes`] is on under
    /// `--obs-grid`, so the probes ride the one pass.
    pub res: Resilience,
    /// `--sample PLAN` ([`SamplePlan::parse`]).
    pub plan: Option<SamplePlan>,
    /// `--obs-grid FILE` and `--trace-cycles START:END`, which needs it;
    /// `--obs-grid` does not combine with `--sample` (sampling units run
    /// unprobed).
    pub obs: Option<ObsConfig>,
    /// The scenarios of `--scenario X` (repeatable: a curated name, or a
    /// spec line when it holds whitespace or `=`; a bare uncurated name
    /// runs with default knobs, noted on stderr) and `--scenario-file
    /// FILE` (`arvi_synth::parse_scenarios` syntax), in argument order;
    /// `None` without either flag (the binary's default set).
    pub workloads: Option<Vec<Workload>>,
    /// `fig6`'s one optional positional: `20` (the default), `40` or `60`.
    pub depth: Depth,
    /// `--list-scenarios`.
    pub list_scenarios: bool,
    /// `--list-benchmarks`.
    pub list_benchmarks: bool,
}

impl RunFlags {
    /// The run setup `line` describes; the error names the first
    /// malformed flag.
    pub fn new(line: &CommandLine) -> Result<RunFlags, String> {
        let depth = match line.positionals.first() {
            None => Depth::D20,
            Some(arg) => Depth::all()
                .into_iter()
                .find(|d| d.stages().to_string() == *arg)
                .ok_or_else(|| format!("unknown pipeline depth `{arg}` (expected 20, 40 or 60)"))?,
        };
        let threads = match line.value("--threads") {
            None => cores(),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--threads: not a number: `{v}`"))?,
        };
        let trace_dir = line.value("--trace-dir").map(PathBuf::from);
        let window = |win: &str| {
            let (start, end) = win.split_once(':')?;
            let (start, end): (u64, u64) = (start.parse().ok()?, end.parse().ok()?);
            (start < end).then_some((start, end))
        };
        let trace = line.value("--trace-cycles").map(|win| {
            window(win).ok_or(format!(
                "--trace-cycles: expected START:END with START < END, got `{win}`"
            ))
        });
        let trace = trace.transpose()?;
        let obs = line.value("--obs-grid").map(|grid| ObsConfig {
            grid: PathBuf::from(grid),
            trace,
        });
        if obs.is_none() && trace.is_some() {
            return Err(
                "--trace-cycles needs --obs-grid (the trace is written beside the rollup)".into(),
            );
        }
        let plan = line.value("--sample").map(SamplePlan::parse).transpose()?;
        if obs.is_some() && plan.is_some() {
            return Err(
                "--obs-grid does not combine with --sample (sampling units run unprobed)".into(),
            );
        }
        let mut res = Resilience::new();
        res.probes = obs.is_some();
        res.resume = line.has("--resume");
        res.journal = match line.value("--journal") {
            Some(path) => Some(PathBuf::from(path)),
            None if res.resume => Some(trace_dir.clone().unwrap_or_default().join("sweep.journal")),
            None => None,
        };
        if let Some(path) = line.value("--fault-plan") {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            res.plan = Some(Arc::new(FaultPlan::parse(&text)?));
        }
        let workloads = scenario_workloads(line)?;
        let (list_scenarios, list_benchmarks) =
            (line.has("--list-scenarios"), line.has("--list-benchmarks"));
        // Last, once everything else is valid, and only for a run that
        // does work: opening the event log truncates it.
        let (events, metrics) = (line.value("--events-out"), line.value("--metrics-out"));
        if !(list_scenarios || list_benchmarks) && (events.is_some() || metrics.is_some()) {
            let telemetry =
                SweepTelemetry::from_paths(events.map(Path::new), metrics.map(Path::new))
                    .map_err(|e| format!("cannot open telemetry sink: {e}"))?;
            res.telemetry = Some(Arc::new(telemetry));
        }
        let spec = if line.has("--quick") {
            Spec::quick()
        } else {
            Spec::default()
        };
        Ok(RunFlags {
            spec,
            threads,
            trace_dir,
            res,
            plan,
            obs,
            workloads,
            depth,
            list_scenarios,
            list_benchmarks,
        })
    }

    /// Prints the registries `--list-benchmarks`/`--list-scenarios` ask
    /// for; `true` when the run is list-only (the caller exits).
    pub fn print_lists(&self) -> bool {
        if self.list_benchmarks {
            outln!("suite benchmarks:");
            for b in Benchmark::all() {
                outln!("  {}", b.name());
            }
        }
        if self.list_scenarios {
            outln!("curated scenarios (pass a name to --scenario; the full line form works too):");
            for line in arvi_synth::CURATED {
                outln!("  {line}");
            }
        }
        self.list_scenarios || self.list_benchmarks
    }
}

/// The workloads of `line`'s scenario flags ([`RunFlags::workloads`]).
fn scenario_workloads(line: &CommandLine) -> Result<Option<Vec<Workload>>, String> {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut any = false;
    for (flag, value) in &line.flags {
        let v = value.as_deref().unwrap_or_default();
        match *flag {
            "--scenario" if v.contains(|c: char| c.is_whitespace() || c == '=') => {
                specs.push(v.parse::<ScenarioSpec>().map_err(|e| e.to_string())?);
            }
            "--scenario" => match arvi_synth::find(v) {
                Some(spec) => specs.push(spec),
                // A bare name that is not curated is still a valid
                // knobless spec line: accept it, with a note in case it
                // was a typo.
                None => {
                    specs.push(v.parse().map_err(|_| {
                        format!(
                            "unknown scenario `{v}` — not a curated name \
                             (see --list-scenarios) nor a valid spec line"
                        )
                    })?);
                    eprintln!(
                        "note: `{v}` is not a curated scenario; \
                         running it as a spec line with default knobs"
                    );
                }
            },
            "--scenario-file" => {
                let text = std::fs::read_to_string(v).map_err(|e| format!("{v}: {e}"))?;
                specs.extend(arvi_synth::parse_scenarios(&text).map_err(|e| e.to_string())?);
            }
            _ => continue,
        }
        any = true;
    }
    for (i, a) in specs.iter().enumerate() {
        if specs[..i].iter().any(|b| b.name == a.name) {
            return Err(format!("duplicate scenario name `{}`", a.name));
        }
    }
    Ok(any.then(|| specs.into_iter().map(Workload::scenario).collect()))
}

/// The skeleton of the run binaries, `fig5`, `fig6` (`takes_depth`) and
/// `experiments`: parses the command line into [`RunFlags`] or exits 2,
/// prints the requested lists and returns if that is all, records each
/// workload once, runs the binary's `grid` of them at the parsed depth
/// as one [`GridRun`], hands the run to `figures` to print and writes
/// the `--obs-grid` rollup ([`maybe_obs_grid`]).
///
/// The grid sweeps the benchmark suite, or the `--scenario`/
/// `--scenario-file` scenarios instead. Every cell replays its
/// workload's recording and is fault-isolated: failed cells, a workload
/// without a usable recording among them, are reported instead of
/// aborting, a figure `figures` cannot assemble exits 3 before the
/// rollup, and `--resume` completes an interrupted run from its
/// journal. `--obs-grid FILE` probes every cell as the sweep runs (each
/// cell is simulated once) and writes the rollup, one group per cell;
/// `--trace-cycles START:END` then re-runs the grid's [`anchor`] cells
/// up to cycle END and traces the window into `<FILE minus
/// extension>.trace.json`. `--sample K:WARMUP:DETAIL` (or
/// `stratified:K:WARMUP:DETAIL`) switches every cell to SMARTS-style
/// interval sampling over its recording: 1-in-`K` detail windows of
/// `DETAIL` instructions, each after `WARMUP` instructions of
/// functional warm-up, fanned out per unit across all workers, with a
/// per-cell 95%-confidence-interval table; the fault-tolerance and
/// telemetry flags act on each unit as on a whole cell (units are
/// journaled and resumed individually, `kill-after` counts units).
pub fn run_figures(
    takes_depth: bool,
    grid: impl FnOnce(&[Workload], Depth) -> Vec<SweepPoint>,
    figures: impl FnOnce(&RunFlags, &[Workload], &GridRun) -> Result<(), SweepIncomplete>,
) {
    let line = CommandLine::from_env(RUN_FLAGS, usize::from(takes_depth));
    let flags = RunFlags::new(&line).unwrap_or_else(|e| usage_error(e));
    if flags.print_lists() {
        return;
    }
    let workloads = flags.workloads.clone().unwrap_or_else(Workload::suite);
    let (spec, threads, res) = (flags.spec, flags.threads, &flags.res);
    let traces =
        TraceSet::record_resilient(&workloads, spec, threads, flags.trace_dir.as_deref(), res);
    let points = grid(&workloads, flags.depth);
    let run = GridRun::run(
        points,
        spec,
        threads,
        true,
        &traces,
        res,
        flags.plan.as_ref(),
    );
    if let Err(incomplete) = figures(&flags, &workloads, &run) {
        eprintln!("{incomplete}");
        std::process::exit(3);
    }
    maybe_obs_grid(run, &flags, &traces);
}

/// [`RunFlags`] for `argv` under [`RUN_FLAGS`], no positional allowed.
#[cfg(test)]
pub(crate) fn run_flags(argv: &[&str]) -> Result<RunFlags, String> {
    let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    RunFlags::new(&CommandLine::parse(&argv, RUN_FLAGS, 0)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// `fig6`'s [`RunFlags`]: the depth positional allowed.
    fn fig6(argv: &[&str]) -> Result<RunFlags, String> {
        RunFlags::new(&CommandLine::parse(&args(argv), RUN_FLAGS, 1)?)
    }

    /// The workloads the scenario flags `argv` select.
    fn scenarios(argv: &[&str]) -> Result<Option<Vec<Workload>>, String> {
        run_flags(argv).map(|flags| flags.workloads)
    }

    #[test]
    fn command_line_parses_in_one_pass() {
        use Takes::{Nothing, Value, Values};
        let table = &[
            ("--quick", Nothing),
            ("--threads", Value),
            ("--scenario", Values),
            ("--report", Value),
            ("--baseline", Value),
            ("--grid", Value),
            ("--out", Value),
            ("--top", Value),
        ][..];
        let parse = |argv: &[&str]| CommandLine::parse(&args(argv), table, 1);
        let line = parse(&["--threads", "4", "6", "--scenario", "a", "--scenario", "b"]).unwrap();
        // Flag values are never positionals; a repeatable flag keeps
        // every value.
        assert_eq!(line.positionals, ["6"]);
        assert_eq!(line.value("--threads"), Some("4"));
        assert_eq!(line.flags.len(), 3);
        assert!(!line.has("--quick") && line.value("--out").is_none());
        for (argv, err) in [
            (
                &["--threads", "1", "--threads", "2"][..],
                "--threads is given more than once",
            ),
            (&["--quick", "--quick"], "--quick is given more than once"),
            (&["--threads", "--quick"], "--threads needs a value"),
            // A value-taking flag followed by another flag names itself,
            // not the argument after the other flag.
            (&["--report", "--baseline", "x"], "--report needs a value"),
            (
                &["--grid", "g.json", "--out", "--top", "5"],
                "--out needs a value",
            ),
            (&["--grid"], "--grid needs a value"),
            (&["--treads", "2"], "unknown flag `--treads`"),
            (&["--threads=2"], "unknown flag `--threads=2`"),
            (&["20", "40"], "unexpected argument `40`"),
        ] {
            assert_eq!(parse(argv).unwrap_err(), err, "{argv:?}");
        }
        // Of the run flags, only the scenario flags repeat (see
        // `curated_names_and_spec_lines_mix` for `--scenario` twice).
        for repeated in [
            &["--threads", "1", "--threads", "2"][..],
            &["--quick", "--quick"],
            &["--obs-grid", "a", "--obs-grid", "b"],
        ] {
            let err = run_flags(repeated).unwrap_err();
            assert!(err.contains(repeated[0]), "{err}");
        }
    }

    #[test]
    fn no_scenario_flags_means_suite() {
        assert_eq!(scenarios(&["--quick", "--threads", "2"]), Ok(None));
        assert_eq!(scenarios(&["--quick"]), Ok(None));
    }

    #[test]
    fn curated_names_and_spec_lines_mix() {
        let w = scenarios(&[
            "--scenario",
            "datadep-deep",
            "--scenario",
            "mine branch=periodic:6 chain=3",
        ]);
        let w = w.unwrap().unwrap();
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
        let w = scenarios(&["--scenario", "mine"]).unwrap().unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].name(), "mine");
        assert_eq!(w[0].as_scenario().unwrap().chain_depth, 2, "default knobs");
    }

    #[test]
    fn scenario_errors_are_reported() {
        // Neither a curated name nor a valid spec line (unsafe name), no
        // value, and a forgotten value followed by another flag, which
        // must not become a scenario named after the flag.
        for (argv, err) in [
            (&["--scenario", "no/pe"][..], "unknown scenario"),
            (&["--scenario"], "--scenario needs a value"),
            (&["--scenario", "--quick"], "--scenario needs a value"),
            (
                &["--scenario-file", "--quick"],
                "--scenario-file needs a value",
            ),
            (
                &[
                    "--scenario",
                    "a branch=bias:100",
                    "--scenario",
                    "a branch=bias:50",
                ],
                "duplicate",
            ),
        ] {
            assert!(scenarios(argv).unwrap_err().contains(err), "{argv:?}");
        }
    }

    #[test]
    fn resilience_flags_parse() {
        let res = |argv: &[&str]| run_flags(argv).map(|flags| flags.res);
        let r = res(&["--quick", "--threads", "2"]).unwrap();
        assert_eq!(format!("{r:?}"), format!("{:?}", Resilience::new()));
        let r = res(&["--journal", "j.log"]).unwrap();
        assert_eq!(r.journal.as_deref(), Some(Path::new("j.log")));
        assert!(!r.resume);
        // --resume defaults the journal into the trace dir.
        let r = res(&["--resume", "--trace-dir", "traces"]).unwrap();
        assert!(r.resume);
        assert_eq!(
            r.journal.as_deref(),
            Some(Path::new("traces/sweep.journal"))
        );
        assert!(res(&["--journal"]).is_err());
        assert!(res(&["--fault-plan", "/nonexistent/plan"]).is_err());
    }

    #[test]
    fn run_flags_validate_every_flag_up_front() {
        let flags = run_flags(&["--quick", "--threads", "2"]).unwrap();
        assert_eq!(
            format!("{:?}", flags.res),
            format!("{:?}", Resilience::new())
        );
        assert!(flags.plan.is_none() && flags.obs.is_none());
        assert_eq!(flags.spec.measure, Spec::quick().measure);
        assert_eq!(
            run_flags(&[]).unwrap().spec.measure,
            Spec::default().measure
        );
        // Malformed observability, sampling or resilience flags are
        // all rejected before the binaries do any work.
        for bad in [
            &["--quick", "--probe", "counters"][..],
            &["--obs-grid", "g.json", "--obs-out", "o.json"],
            &["--obs-grid", "g.json", "--top-sites", "5"],
            &["--trace-cycles", "0:10"],
            &["--trace-cycles", "10", "--obs-grid", "g.json"],
            &["--trace-cycles", "5:5", "--obs-grid", "g.json"],
            &["--trace-cycles", "a:10", "--obs-grid", "g.json"],
            &["--obs-grid"],
            &["--sample", "nope"],
            &["--quick", "--threads", "bogus"],
            &["--threads"],
            &["--threads", "--quick"],
            &["--trace-dir"],
            &["--trace-dir", "--quick"],
            &["--resume", "--trace-dir"],
            &["--quick", "--treads", "2"],
            &["--quick", "--journal=j.log"],
            &["--quick", "40"],
            &["--quick", "2O"],
            &["20", "--threads", "2"],
        ] {
            assert!(run_flags(bad).is_err(), "{bad:?}");
        }
        let err = run_flags(&["--quick", "--treads", "2"]).unwrap_err();
        assert!(err.contains("--treads"));
        // A list flag does not excuse a malformed one: the binaries
        // validate before they list, so these exit 2 with empty stdout.
        let listed = ["--list-scenarios", "--treads", "2"];
        for err in [run_flags(&listed).unwrap_err(), fig6(&listed).unwrap_err()] {
            assert!(err.contains("--treads"), "{err}");
        }
        for list in ["--list-scenarios", "--list-benchmarks"] {
            assert!(
                run_flags(&[list]).is_ok() && fig6(&[list]).is_ok(),
                "{list}"
            );
        }
        // Probes need whole-cell runs: `--obs-grid` with `--sample` is
        // rejected, naming `--sample`, for fig6 as for fig5 and
        // experiments.
        let sampled = ["--sample", "2:100000:2000", "--obs-grid", "x.json"];
        for err in [
            run_flags(&sampled).unwrap_err(),
            fig6(&sampled).unwrap_err(),
        ] {
            assert!(err.contains("--sample"), "{err}");
        }
        // The retired anchor-report flags are unknown flags now.
        for retired in ["--probe", "--obs-out", "--top-sites"] {
            let err = run_flags(&["--obs-grid", "g.json", retired, "x"]);
            assert!(err.unwrap_err().contains(retired), "{retired}");
        }
        // fig6's depth positional: 20, 40 or 60 and nothing else; flag
        // values are not positionals.
        let depth = |argv: &[&str]| fig6(argv).map(|f| f.depth);
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
        let flags = fig6(&["40", "--threads", "3"]).unwrap();
        assert_eq!((flags.threads, flags.depth), (3, Depth::D40));
        assert!(fig6(&["--quick", "--threads", "bogus"]).is_err());
        assert!(run_flags(&["--quick", "40"]).unwrap_err().contains("`40`"));
        let flags = run_flags(&["--threads", "3", "--trace-dir", "t"]).unwrap();
        assert_eq!(flags.threads, 3);
        assert_eq!(flags.trace_dir.as_deref(), Some(Path::new("t")));
        let flags = run_flags(&["--quick"]).unwrap();
        assert_eq!(flags.threads, cores());
        assert!(flags.trace_dir.is_none());
        // `--obs-grid` turns the policy's probes on; without it the
        // policy stays probe-free.
        for obs in [
            &["--obs-grid", "g.json"][..],
            &["--obs-grid", "g.json", "--trace-cycles", "0:10"],
        ] {
            let flags = run_flags(obs).unwrap();
            assert!(flags.obs.is_some() && flags.res.probes);
        }
        assert!(!run_flags(&["--journal", "j.log"]).unwrap().res.probes);
        let flags = run_flags(&["--sample", "4:1000:500"]).unwrap();
        assert_eq!(flags.plan, Some(SamplePlan::systematic(4, 1000, 500)));
    }

    #[test]
    fn telemetry_flags_open_their_sinks() {
        let dir = std::env::temp_dir().join(format!("arvi-telflag-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let res =
            |flag: &str, path: &Path| run_flags(&[flag, path.to_str().unwrap()]).map(|f| f.res);
        let events = dir.join("events.jsonl");
        let r = res("--events-out", &events).unwrap();
        let t = r.telemetry.as_ref().expect("telemetry configured");
        assert_eq!(t.events().unwrap().path(), events);
        assert!(events.exists(), "log created eagerly, with parents");
        // Metrics alone also counts; no event log in that case.
        let r = res("--metrics-out", &dir.join("metrics.prom")).unwrap();
        assert!(r.telemetry.as_ref().unwrap().events().is_none());
        assert!(run_flags(&["--events-out"]).is_err());
        // An unopenable sink is a flag error, and it names the path.
        std::fs::write(dir.join("blocker"), "x").unwrap();
        let err = res("--events-out", &dir.join("blocker/e.jsonl")).unwrap_err();
        assert!(err.contains("blocker"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_and_list_only_parses_leave_the_event_log_alone() {
        let dir = std::env::temp_dir().join(format!("arvi-keepsink-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (log, plan) = (dir.join("e.jsonl"), dir.join("bad.faults"));
        let log = log.to_str().unwrap();
        std::fs::write(log, "keep\n").unwrap();
        std::fs::write(&plan, "stall-cell 0 100\n").unwrap();
        let kept = || std::fs::read_to_string(log).unwrap() == "keep\n";
        for failed in [
            &["--scenario", "x branch=bogus"][..],
            &["--threads", "1", "--threads", "2"],
            &["--fault-plan", plan.to_str().unwrap()],
            &["--obs-grid", "g.json", "--sample", "2:10:10"],
        ] {
            assert!(run_flags(&[&["--events-out", log][..], failed].concat()).is_err());
            assert!(kept(), "{failed:?}");
        }
        for list in ["--list-benchmarks", "--list-scenarios"] {
            let flags = run_flags(&[list, "--events-out", log, "--metrics-out", log]).unwrap();
            assert!(flags.res.telemetry.is_none() && kept(), "{list}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_flag_loads_and_validates() {
        let dir = std::env::temp_dir().join(format!("arvi-resflag-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.faults");
        let res = || run_flags(&["--fault-plan", path.to_str().unwrap()]).map(|f| f.res);
        std::fs::write(&path, "panic-cell 0\nkill-after 2\n").unwrap();
        assert_eq!(res().unwrap().plan.as_ref().unwrap().len(), 2);
        std::fs::write(&path, "warp-core-breach 1\n").unwrap();
        assert!(res().unwrap_err().contains("unknown fault kind"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenario_file_flag_loads_specs() {
        let dir = std::env::temp_dir().join(format!("arvi-lib-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite.scenarios");
        std::fs::write(&path, "# two\none branch=datadep:8\ntwo branch=bias:75\n").unwrap();
        let w = scenarios(&["--scenario-file", path.to_str().unwrap()]);
        let w = w.unwrap().unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].name(), "two");
        std::fs::remove_dir_all(&dir).ok();
    }
}
