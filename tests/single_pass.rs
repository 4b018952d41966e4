//! One simulation per grid cell: the contracts that let `--obs-grid`
//! ride the main sweep and let `experiments` assemble every figure from
//! one pass over its grid.
//!
//! 1. **Probes in the pass** — the rollup folded from a probed sweep is
//!    byte-identical across thread counts and to a fold of cells probed
//!    directly through the simulator, and the probed sweep's results
//!    equal an unprobed sweep's at 1 and 4 threads.
//! 2. **One sweep, every figure** — Figure 5 and each Figure 6 depth
//!    assembled from one `workloads × depths × configs` sweep equal the
//!    per-figure sweeps, in strict and sampled mode (confidence-interval
//!    tables included), and a failed cell marks
//!    only the figures that contain it incomplete.
//! 3. **Resume adds probes** — a sweep journaled without probes, resumed
//!    with them, re-simulates exactly the cells that have no obs-journal
//!    entry, and the final rollup equals a direct run.
//! 4. **The anchor report rides the pass** — under `--probe` the grid's
//!    anchor cells (ARVI current value at its shallowest depth), and
//!    only they, carry the probes; the report built from them (markdown,
//!    `--obs-out` JSON, Chrome trace) equals one probed simulation per
//!    workload, at 1 and 2 threads, sampled or not, and after kill +
//!    `--resume`.

use std::time::Duration;

use arvi::obs::{ChromeTracer, CounterProbe, SiteProbe};
use arvi::sampling::SamplePlan;
use arvi::sim::{intern_name, simulate_source_probed, Depth, PredictorConfig, SimParams};
use arvi::stats::Table;
use arvi::workloads::Benchmark;
use arvi_bench::{
    anchor, fig5_cell, grid, obs_from_args, obs_grid_json, CellOutcome, CellProbes, CellSuccess,
    FaultPlan, Fig6Data, GridRun, ObsConfig, ObsGrid, ObsReport, Resilience, Spec, SweepPoint,
    TraceSet, Workload,
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

/// The observability config `argv` parses to.
fn obs(argv: &[&str]) -> ObsConfig {
    let args: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    obs_from_args(&args)
        .unwrap()
        .expect("an observability flag")
}

/// The policy `--obs-grid` sets up: counters and sites on every cell.
fn probed() -> Resilience {
    let mut res = Resilience::new();
    res.probes = Some(obs(&["--obs-grid", "unused.json"]));
    res
}

fn rollup(points: &[SweepPoint], spec: Spec, outcomes: Vec<CellOutcome>) -> String {
    obs_grid_json(&ObsGrid::from_outcomes(points, spec, outcomes, None), 5).render()
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

    let standalone = run(&points, spec, 2, &traces, &probed()).outcomes;
    let standalone = ObsGrid::from_outcomes(&points, spec, standalone, None);
    assert_eq!(
        standalone.completed,
        points.len(),
        "{:?}",
        standalone.failed
    );
    let standalone = obs_grid_json(&standalone, 5).render();

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
                result: result.clone(),
                resumed: false,
                derived: false,
                duration: Duration::ZERO,
                sampled_units: 0,
                probes: Some(Box::new(CellProbes {
                    result,
                    counters,
                    sites,
                    tracer: None,
                })),
            })
        })
        .collect();
    assert_eq!(rollup(&points, spec, direct), standalone, "direct fold");

    for threads in [1, 4] {
        let main_pass = run(&points, spec, threads, &traces, &probed());
        if threads == 1 {
            // One worker runs every twin before its load-back cell, so
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
    let grid = ObsGrid::from_outcomes(&points, spec, resumed.outcomes.clone(), None);
    assert_eq!(grid.completed, points.len(), "{:?}", grid.failed);
    assert_eq!(grid.resumed, 3);
    let direct = run(&points, spec, 2, &traces, &probed()).outcomes;
    let direct = ObsGrid::from_outcomes(&points, spec, direct, None);
    assert_eq!(
        obs_grid_json(&grid, 5).render(),
        obs_grid_json(&direct, 5).render(),
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

/// The anchor report as the side pass built it before the anchor cells
/// rode the grid: one probed simulation per workload at the anchor,
/// replaying its recording, with every probe attached.
fn side_pass_report(
    workloads: &[Workload],
    depth: Depth,
    spec: Spec,
    cfg: &ObsConfig,
    traces: &TraceSet,
) -> ObsReport {
    let config = PredictorConfig::ArviCurrent;
    let mut report = ObsReport {
        depth,
        merged: CounterProbe::new(),
        workloads: Vec::new(),
    };
    for (wi, workload) in workloads.iter().enumerate() {
        let (start, end) = cfg.trace.unwrap_or((0, 0));
        let mut tracer = if cfg.trace.is_some() {
            ChromeTracer::new(start, end)
        } else {
            ChromeTracer::with_capacity(0, 0, 0)
        };
        tracer.pid = wi as u32 + 1;
        let probe = ((CounterProbe::new(), SiteProbe::new()), tracer);
        let (result, ((counters, sites), tracer)) = simulate_source_probed(
            intern_name(workload.name()),
            traces.replayer(workload).expect("recorded"),
            SimParams::for_depth(depth),
            config,
            spec.warmup,
            spec.measure,
            probe,
        );
        report.merged.merge(&counters);
        let probes = CellProbes {
            result,
            counters,
            sites,
            tracer: cfg.trace.map(|_| tracer),
        };
        report.workloads.push((workload.name().to_string(), probes));
    }
    report
}

/// Every rendering of `report` under `cfg`: markdown, `--obs-out` JSON
/// and, when traced, the Chrome trace.
fn renderings(report: &ObsReport, cfg: &ObsConfig) -> (String, String, Option<String>) {
    (
        report.to_markdown(cfg),
        report.to_json(cfg).render_compact(),
        cfg.trace.map(|_| report.render_trace()),
    )
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
    let plan = SamplePlan::systematic(2, 500, 1_000);
    let dir = std::env::temp_dir().join(format!("arvi-anchor-report-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let journal = dir.join("sweep.journal");

    let traced = obs(&[
        "--probe",
        "counters,sites,trace",
        "--obs-out",
        "o.json",
        "--trace-cycles",
        "1000:3000",
        "--top-sites",
        "5",
    ]);
    for cfg in [obs(&["--probe", "counters,sites"]), traced] {
        let reference = side_pass_report(&workloads, depth, spec, &cfg, &traces);
        let reference = renderings(&reference, &cfg);
        if let Some(trace) = &reference.2 {
            assert!(trace.contains("\"ph\":\"X\""), "the window saw events");
        }
        let mut res = Resilience::new();
        res.probes = Some(cfg.clone());
        let check = |run: &GridRun, mode: &str| {
            for (i, o) in run.outcomes.iter().enumerate() {
                let probes = o.success().expect("every cell ran").probes.as_deref();
                assert_eq!(probes.is_some(), anchors.contains(&i), "{mode}: cell {i}");
                assert_eq!(
                    probes.is_some_and(|p| p.tracer.is_some()),
                    anchors.contains(&i) && cfg.trace.is_some(),
                    "{mode}: cell {i} tracer"
                );
            }
            let report = renderings(&ObsReport::from_run(run), &cfg);
            assert_eq!(report, reference, "{mode}");
        };
        for threads in [1, 2] {
            for plan in [None, Some(&plan)] {
                let run = GridRun::run(points.clone(), spec, threads, false, &traces, &res, plan);
                check(
                    &run,
                    &format!("threads {threads}, sampled {}", plan.is_some()),
                );
            }
        }

        // Killed after 6 cells (the first workload's anchor is cell 5),
        // then resumed from the journal: journaled anchor cells restore
        // their counters and sites, and re-run when the report needs a
        // tracer, which is never journaled.
        std::fs::remove_dir_all(&dir).ok();
        let killed = res
            .clone()
            .with_journal(&journal)
            .with_plan(FaultPlan::parse("kill-after 6").unwrap());
        assert_eq!(anchors[0], 5);
        let run = GridRun::run(points.clone(), spec, 1, false, &traces, &killed, None);
        assert!(run.results(|_| true).is_err(), "killed");
        let resumed = res.clone().with_journal(&journal).resuming();
        let run = GridRun::run(points.clone(), spec, 2, false, &traces, &resumed, None);
        let anchor_resumed = |i: &usize| run.outcomes[*i].success().unwrap().resumed;
        assert_eq!(
            anchors.iter().any(anchor_resumed),
            cfg.trace.is_none(),
            "an anchor cell resumes unless it needs a tracer"
        );
        check(&run, "resumed");
    }
    std::fs::remove_dir_all(&dir).ok();
}
