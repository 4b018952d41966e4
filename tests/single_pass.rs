//! One simulation per grid cell: the contracts that let `--obs-grid`
//! ride the main sweep and let `experiments` assemble every figure from
//! one pass over its grid.
//!
//! 1. **Probes in the pass** — the rollup folded from a probed sweep is
//!    byte-identical across thread counts and to a fold of cells probed
//!    directly through the simulator, the probed sweep's results equal
//!    an unprobed sweep's at 1 and 4 threads, and at 1 thread a probed
//!    run derives the same cells as a plain one, with or without
//!    `--trace-cycles`.
//! 2. **One sweep, every figure** — Figure 5 and each Figure 6 depth
//!    assembled from one `workloads × depths × configs` sweep equal the
//!    per-figure sweeps, in strict and sampled mode (confidence-interval
//!    tables included), and a failed cell marks
//!    only the figures that contain it incomplete.
//! 3. **Resume adds probes** — a sweep journaled without probes, resumed
//!    with them, re-simulates exactly the cells that have no obs-journal
//!    entry, and the final rollup equals a direct run.
//! 4. **The anchor view rides the pass** — under `--obs-grid` every
//!    cell carries the same probes with or without `--trace-cycles`, so
//!    the grid's anchor cells (ARVI current value at its shallowest
//!    depth) resume like any other; each workload's `--cell` view rebuilt
//!    from the rollup, and the Chrome trace the post-pass writes beside
//!    it, equal one probed simulation per workload, at 1 and 2 threads
//!    and after kill + `--resume`.

use std::path::Path;
use std::time::Duration;

use arvi::obs::{ChromeTracer, CounterProbe, SiteProbe};
use arvi::sampling::SamplePlan;
use arvi::sim::{intern_name, simulate_source_probed, Depth, PredictorConfig, SimParams};
use arvi::stats::Table;
use arvi::workloads::Benchmark;
use arvi_bench::{
    anchor, cell_view, counters_to_json, fig5_cell, grid, maybe_obs_grid, obs_grid_json, read_json,
    sites_to_json, CellOutcome, CellProbes, CellSuccess, CommandLine, FaultPlan, Fig6Data, GridRun,
    ObsGrid, Resilience, RunFlags, RunTally, Spec, SweepPoint, TraceSet, Workload, RUN_FLAGS,
};

fn tiny_spec() -> Spec {
    Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 3,
    }
}

fn small_workloads() -> Vec<Workload> {
    vec![
        Workload::from(Benchmark::Compress),
        Workload::from(Benchmark::Li),
    ]
}

/// The run setup the run flags `argv` parse to.
fn flags(argv: &[&str]) -> RunFlags {
    let args: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    RunFlags::new(&CommandLine::parse(&args, RUN_FLAGS, 0).unwrap()).unwrap()
}

/// The policy `--obs-grid` sets up: counters and sites on every cell.
fn probed() -> Resilience {
    flags(&["--obs-grid", "unused.json"]).res
}

fn rollup(points: &[SweepPoint], spec: Spec, outcomes: Vec<CellOutcome>) -> String {
    let tally = RunTally::of(points, &outcomes);
    obs_grid_json(&ObsGrid::from_outcomes(
        points, spec, outcomes, &tally, None,
    ))
    .render()
}

/// A grid run's rollup.
fn fold(run: GridRun, spec: Spec) -> ObsGrid {
    ObsGrid::from_outcomes(&run.points, spec, run.outcomes, &run.tally, None)
}

/// `points` replayed over `traces` on `threads` workers under `res`.
fn run(
    points: &[SweepPoint],
    spec: Spec,
    threads: usize,
    traces: &TraceSet,
    res: &Resilience,
) -> GridRun {
    GridRun::run(points.to_vec(), spec, threads, false, traces, res, None)
}

/// Every result counter, rendered: `SimResult` has no `PartialEq`.
fn results_of(run: &GridRun) -> String {
    format!("{:?}", run.results(|_| true).expect("every cell ran"))
}

#[test]
fn main_pass_rollup_equals_standalone_and_results_equal_unprobed() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let points = grid(
        &workloads,
        &[Depth::D20, Depth::D40],
        &PredictorConfig::all(),
    );
    let traces = TraceSet::record(&workloads, spec, 2, None);

    let standalone = fold(run(&points, spec, 2, &traces, &probed()), spec);
    assert_eq!(
        standalone.completed,
        points.len(),
        "{:?}",
        standalone.failed
    );
    let standalone = obs_grid_json(&standalone).render();

    // Independent reference: every cell probed directly through the
    // simulator, bypassing the sweep runner, then folded.
    let direct: Vec<CellOutcome> = points
        .iter()
        .map(|p| {
            let (result, (counters, sites)) = simulate_source_probed(
                intern_name(p.workload.name()),
                traces.replayer(&p.workload).expect("recorded"),
                SimParams::for_depth(p.depth),
                p.config,
                spec.warmup,
                spec.measure,
                (CounterProbe::new(), SiteProbe::new()),
            );
            CellOutcome::Ok(CellSuccess {
                result,
                resumed: false,
                derived: false,
                duration: Duration::ZERO,
                probes: Some(Box::new(CellProbes { counters, sites })),
                report: None,
            })
        })
        .collect();
    assert_eq!(rollup(&points, spec, direct), standalone, "direct fold");

    for threads in [1, 4] {
        let main_pass = run(&points, spec, threads, &traces, &probed());
        if threads == 1 {
            // One worker runs every twin before the cells it serves, so
            // the direct-probe pin above covers load-back cells both
            // derived from their twins and simulated.
            let load_back = |derived: bool| {
                points
                    .iter()
                    .zip(&main_pass.outcomes)
                    .filter(|(p, o)| {
                        p.config == PredictorConfig::ArviLoadBack
                            && o.success().is_some_and(|s| s.derived == derived)
                    })
                    .count()
            };
            assert!(load_back(true) >= 1, "no load-back cell was derived");
            assert!(load_back(false) >= 1, "no load-back cell was simulated");
        }
        assert_eq!(
            rollup(&points, spec, main_pass.outcomes.clone()),
            standalone,
            "main-pass rollup at {threads} threads"
        );
        let plain = run(&points, spec, threads, &traces, &Resilience::new());
        assert!(plain
            .outcomes
            .iter()
            .all(|o| o.success().unwrap().probes.is_none()));
        if threads == 1 {
            // Probes never cost a derivation: the probed run derives
            // exactly the cells the plain run derives, and so does one
            // under `--trace-cycles`, whose trace is a post-pass.
            let derived = |run: &GridRun| -> Vec<bool> {
                run.outcomes
                    .iter()
                    .map(|o| o.success().unwrap().derived)
                    .collect()
            };
            assert_eq!(derived(&main_pass), derived(&plain), "derived cells");
            let traced = flags(&["--obs-grid", "unused.json", "--trace-cycles", "1000:3000"]).res;
            let traced = run(&points, spec, 1, &traces, &traced);
            assert_eq!(derived(&traced), derived(&plain), "derived cells, traced");
        }
        assert_eq!(
            results_of(&main_pass),
            results_of(&plain),
            "probed results diverge from unprobed at {threads} threads"
        );
    }
}

fn fig5_text((a, b): (Table, Table)) -> String {
    a.to_text() + &b.to_text()
}

fn fig6_text(data: Fig6Data) -> String {
    data.accuracy_table().to_text() + &data.normalized_ipc_table().to_text()
}

fn ci_text(table: Option<Table>) -> Option<String> {
    table.map(|t| t.to_text())
}

#[test]
fn one_sweep_assembles_every_figure_in_every_mode() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let paper_grid = grid(&workloads, &Depth::all(), &PredictorConfig::all());
    let fig5_grid = grid(&workloads, &Depth::all(), &[PredictorConfig::ArviCurrent]);

    // Strict per-figure sweeps are the reference for the full-run modes.
    let strict = |points: &[SweepPoint]| run(points, spec, 2, &traces, &Resilience::new());
    let fig5_ref = fig5_text(
        strict(&fig5_grid)
            .fig5_tables(&workloads)
            .expect("complete"),
    );
    let fig6_ref: Vec<String> = Depth::all()
        .into_iter()
        .map(|d| {
            let points = grid(&workloads, &[d], &PredictorConfig::all());
            fig6_text(strict(&points).fig6_data(&workloads, d).expect("complete"))
        })
        .collect();

    let res = Resilience::new();
    let plan = SamplePlan::systematic(2, 500, 1_000);
    for (mode, plan) in [("strict", None), ("sampled", Some(&plan))] {
        let run = GridRun::run(paper_grid.clone(), spec, 2, false, &traces, &res, plan);
        let fig5 = fig5_text(run.fig5_tables(&workloads).expect("complete"));
        let fig6: Vec<String> = Depth::all()
            .into_iter()
            .map(|d| fig6_text(run.fig6_data(&workloads, d).expect("complete")))
            .collect();
        if plan.is_none() {
            assert_eq!(fig5, fig5_ref, "{mode}: Figure 5");
            assert_eq!(fig6, fig6_ref, "{mode}: Figure 6");
        }

        // Against each figure's own sweep in the same mode, confidence
        // intervals included.
        let own = |points| GridRun::run(points, spec, 2, false, &traces, &res, plan);
        let own5 = own(fig5_grid.clone());
        assert_eq!(
            fig5,
            fig5_text(own5.fig5_tables(&workloads).unwrap()),
            "{mode}: Figure 5 vs its own sweep"
        );
        assert_eq!(
            ci_text(run.ci_table(fig5_cell)),
            ci_text(own5.ci_table(|_| true)),
            "{mode}: Figure 5 CI table"
        );
        assert_eq!(plan.is_some(), own5.ci_table(|_| true).is_some());
        for (i, depth) in Depth::all().into_iter().enumerate() {
            let own6 = own(grid(&workloads, &[depth], &PredictorConfig::all()));
            assert_eq!(
                fig6[i],
                fig6_text(own6.fig6_data(&workloads, depth).unwrap()),
                "{mode}: Figure 6 {depth} vs its own sweep"
            );
            assert_eq!(
                ci_text(run.ci_table(|p| p.depth == depth)),
                ci_text(own6.ci_table(|_| true)),
                "{mode}: Figure 6 {depth} CI table"
            );
        }
    }

    // Cell 4 is the first workload's 40-stage baseline cell: it belongs
    // to Figure 6 at 40 stages only.
    assert_eq!(paper_grid[4].depth, Depth::D40);
    assert!(!fig5_cell(&paper_grid[4]));
    let faulted = Resilience::new().with_plan(FaultPlan::parse("panic-cell 4").unwrap());
    let run = GridRun::run(paper_grid, spec, 2, false, &traces, &faulted, None);
    assert_eq!(fig5_text(run.fig5_tables(&workloads).unwrap()), fig5_ref);
    for (i, depth) in Depth::all().into_iter().enumerate() {
        match run.fig6_data(&workloads, depth) {
            Ok(data) => {
                assert_ne!(depth, Depth::D40);
                assert_eq!(fig6_text(data), fig6_ref[i]);
            }
            Err(incomplete) => {
                assert_eq!(depth, Depth::D40);
                assert_eq!(incomplete.total, 2 * PredictorConfig::all().len());
                assert_eq!(incomplete.failed.len(), 1);
                assert_eq!(incomplete.failed[0].0, 4, "indexed within the sweep");
            }
        }
    }
}

#[test]
fn resume_with_probes_reruns_only_cells_without_an_obs_entry() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let dir = std::env::temp_dir().join(format!("arvi-single-pass-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let journal = dir.join("sweep.journal");
    let lines = || {
        let text = std::fs::read_to_string(&journal).unwrap();
        text.lines()
            .map(|l| l.contains("\"probes\":"))
            .collect::<Vec<bool>>()
    };
    let probed_lines = || lines().into_iter().filter(|&p| p).count();

    // A plain journaled sweep: every cell journaled, no probes.
    let plain = Resilience::new().with_journal(&journal);
    let first = run(&points, spec, 2, &traces, &plain);
    assert!(first.outcomes.iter().all(|o| o.success().is_some()));
    assert_eq!(probed_lines(), 0, "no probes on any line");
    assert_eq!(lines().len(), 1 + points.len());

    // Resumed with probes and killed after 3 cells: no entry carries
    // probes, so all 3 re-run (probed) rather than resume.
    let res = probed()
        .with_journal(&journal)
        .resuming()
        .with_plan(FaultPlan::parse("kill-after 3").unwrap());
    let killed = run(&points, spec, 1, &traces, &res);
    let done: Vec<&CellSuccess> = killed.outcomes.iter().filter_map(|o| o.success()).collect();
    assert_eq!(done.len(), 3);
    assert!(done.iter().all(|s| !s.resumed && s.probes.is_some()));
    assert_eq!(
        lines().len(),
        1 + points.len() + 3,
        "one superseding line per re-run cell"
    );
    assert!(
        lines()[1 + points.len()..].iter().all(|&p| p),
        "last 3 probed"
    );
    assert_eq!(probed_lines(), 3);

    // Resumed with probes again: the 3 probed cells restore from their
    // lines, the other 5 re-run, and the rollup matches a direct run.
    let res = probed().with_journal(&journal).resuming();
    let resumed = run(&points, spec, 2, &traces, &res);
    let grid = ObsGrid::from_outcomes(
        &points,
        spec,
        resumed.outcomes.clone(),
        &resumed.tally,
        None,
    );
    assert_eq!(grid.completed, points.len(), "{:?}", grid.failed);
    assert_eq!(grid.resumed, 3);
    let direct = fold(run(&points, spec, 2, &traces, &probed()), spec);
    assert_eq!(
        obs_grid_json(&grid).render(),
        obs_grid_json(&direct).render(),
        "resumed rollup must equal a direct run"
    );
    assert_eq!(probed_lines(), points.len());
    assert_eq!(lines().len(), 1 + points.len() + points.len());
    assert!(!dir.join("sweep.journal.obs").exists(), "one journal file");
    assert_eq!(
        results_of(&resumed),
        results_of(&first),
        "re-simulated cells reproduce their journaled results"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The anchor cells as a side pass would probe them: one probed
/// simulation per workload at the anchor depth, replaying its
/// recording, with every probe attached — a tracer over `window` (an
/// empty one without) whose pid is the workload's index + 1. Returns
/// each workload's expected `--cell` view with `top` site rows, and the
/// merged Chrome trace when traced.
fn side_pass(
    workloads: &[Workload],
    depth: Depth,
    spec: Spec,
    window: Option<(u64, u64)>,
    top: usize,
    traces: &TraceSet,
) -> (Vec<String>, Option<String>) {
    let config = PredictorConfig::ArviCurrent;
    let mut views = Vec::new();
    let mut tracers = Vec::new();
    for (wi, workload) in workloads.iter().enumerate() {
        let mut tracer = match window {
            Some((start, end)) => ChromeTracer::new(start, end),
            None => ChromeTracer::with_capacity(0, 0, 0),
        };
        tracer.pid = wi as u32 + 1;
        let probe = ((CounterProbe::new(), SiteProbe::new()), tracer);
        let (_, ((counters, sites), tracer)) = simulate_source_probed(
            intern_name(workload.name()),
            traces.replayer(workload).expect("recorded"),
            SimParams::for_depth(depth),
            config,
            spec.warmup,
            spec.measure,
            probe,
        );
        views.push(format!(
            "## {}: {}, {} stages\n\n{}\n{}",
            workload.name(),
            config.label(),
            depth.stages(),
            counters.to_markdown(),
            sites.to_markdown(top)
        ));
        tracers.push((workload.name(), tracer));
    }
    let trace =
        window.map(|_| ChromeTracer::render_merged(tracers.iter().map(|(name, t)| (*name, t))));
    (views, trace)
}

/// What `run` writes under the run setup `flags` — each workload's
/// `--cell` view of the rollup with `top` site rows, and the Chrome
/// trace beside it when traced, replayed from `traces`.
fn written(
    run: GridRun,
    flags: &RunFlags,
    traces: &TraceSet,
    workloads: &[Workload],
    top: usize,
) -> (Vec<String>, Option<String>) {
    maybe_obs_grid(run, flags, traces);
    let cfg = flags.obs.as_ref().expect("an observability flag");
    let rollup = read_json(&cfg.grid).expect("rollup written");
    let views = workloads
        .iter()
        .map(|w| cell_view(&rollup, w.name(), top).expect("an anchor cell per workload"))
        .collect();
    let trace = cfg
        .trace_path()
        .map(|path| std::fs::read_to_string(Path::new(&path)).expect("trace written"));
    (views, trace)
}

#[test]
fn anchor_report_rides_the_grid_pass_in_every_mode() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let points = grid(
        &workloads,
        &[Depth::D40, Depth::D20],
        &PredictorConfig::all(),
    );
    let (depth, anchors) = anchor(&points).expect("a grid");
    assert_eq!(depth, Depth::D20, "the shallowest depth");
    assert_eq!(anchors.len(), workloads.len(), "one anchor per workload");
    let dir = std::env::temp_dir().join(format!("arvi-anchor-report-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.journal");
    let rollup = dir.join("g.json");
    let top = 5;

    // The plain probed run every traced one must match cell for cell:
    // the tracer is a post-pass, so no cell carries one.
    let cell_probes = |run: &GridRun| -> Vec<String> {
        let probes = |o: &CellOutcome| {
            let s = o.success().expect("every cell ran");
            let p = s.probes.as_deref().expect("every cell probed");
            counters_to_json(&p.counters).render_compact()
                + &sites_to_json(&p.sites).render_compact()
        };
        run.outcomes.iter().map(probes).collect()
    };
    let reference_probes = cell_probes(&run(&points, spec, 1, &traces, &probed()));

    let grid_flag = ["--obs-grid", rollup.to_str().unwrap()];
    let traced_flags = [&grid_flag[..], &["--trace-cycles", "1000:3000"]].concat();
    for argv in [&grid_flag[..], &traced_flags] {
        let setup = flags(argv);
        let (res, cfg) = (setup.res, setup.obs.expect("an observability flag"));
        let reference = side_pass(&workloads, depth, spec, cfg.trace, top, &traces);
        if let Some(trace) = &reference.1 {
            assert!(trace.contains("\"ph\":\"X\""), "the window saw events");
        }
        let check = |run: GridRun, threads: usize, mode: &str| {
            assert_eq!(cell_probes(&run), reference_probes, "{mode}: cell probes");
            let mut setup = flags(argv);
            (setup.spec, setup.threads) = (spec, threads);
            assert_eq!(
                written(run, &setup, &traces, &workloads, top),
                reference,
                "{mode}"
            );
        };
        for threads in [1, 2] {
            let run = GridRun::run(points.clone(), spec, threads, false, &traces, &res, None);
            check(run, threads, &format!("{argv:?}, threads {threads}"));
        }

        // Killed after 6 cells (the first workload's anchor is cell 5),
        // then resumed from the journal: the journaled anchor cell
        // restores its counters and sites like any other cell, and the
        // post-pass still traces it.
        std::fs::remove_file(&journal).ok();
        let killed = res
            .clone()
            .with_journal(&journal)
            .with_plan(FaultPlan::parse("kill-after 6").unwrap());
        assert_eq!(anchors[0], 5);
        let run = GridRun::run(points.clone(), spec, 1, false, &traces, &killed, None);
        assert!(run.results(|_| true).is_err(), "killed");
        let resumed = res.clone().with_journal(&journal).resuming();
        let run = GridRun::run(points.clone(), spec, 2, false, &traces, &resumed, None);
        let resumed = |i: usize| run.outcomes[i].success().unwrap().resumed;
        assert!(
            resumed(anchors[0]),
            "{argv:?}: the journaled anchor resumes"
        );
        assert!(
            !resumed(anchors[1]),
            "{argv:?}: the other anchor was never run"
        );
        check(run, 2, &format!("{argv:?}, resumed"));
    }
    std::fs::remove_dir_all(&dir).ok();
}
