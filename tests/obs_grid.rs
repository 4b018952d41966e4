//! Grid-scale telemetry contract tests:
//!
//! 1. **Thread determinism** — the merged `obs_grid.json` rollup is
//!    byte-identical across worker counts (cells merge in point order,
//!    not completion order).
//! 2. **Resume fidelity** — a grid killed mid-run and resumed from the
//!    probes on its journal lines renders byte-identically to an uninterrupted run
//!    (full-fidelity probe serialization, no run-shape fields in the
//!    JSON).
//! 3. **Conservation** — over the full benchmark suite the rollup holds
//!    one group per cell, in point order, and the grid-wide counter
//!    merge equals the sum over cells.
//! 4. **Attribution** — on a data-dependent-branch scenario the
//!    ARVI-vs-baseline diff, one per `(workload, depth)`, names at least
//!    one branch PC ARVI fixes (the paper's core claim, made falsifiable
//!    per site), and the `--cell` view picks the shallowest ARVI
//!    current-value cell.
//! 5. **Structured events** — the resilient sweep's `--events-out`
//!    JSONL log parses line by line with the expected span events, and
//!    the Prometheus-style metrics export carries the cell outcomes.
//! 6. **One tally** — under a panicked cell, a kill and a resume, the
//!    metrics file, the rollup and the main-pass `cell_end` events agree
//!    on the ok, failed, skipped and resumed cells, and the metrics text
//!    is the same at 1 and 2 threads but for the summed cell time.

use std::sync::Arc;

use arvi::sim::{Depth, PredictorConfig};
use arvi::workloads::Benchmark;
use arvi_bench::{
    attribution_diff, cell_view, grid, obs_grid_json, FaultPlan, GridRun, Json, ObsGrid,
    Resilience, Spec, SweepPoint, SweepTelemetry, TraceSet, Workload,
};

fn tiny_spec() -> Spec {
    Spec {
        warmup: 500,
        measure: 1_500,
        seed: 3,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("arvi-obsgrid-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_workloads() -> Vec<Workload> {
    vec![
        Workload::from(Benchmark::Compress),
        Workload::from(Benchmark::Li),
    ]
}

/// `points` on the grid executor with the probes on, replaying `traces`
/// under `res`, folded into the rollup.
fn probed_grid(
    points: &[SweepPoint],
    spec: Spec,
    threads: usize,
    traces: &TraceSet,
    res: &Resilience,
) -> ObsGrid {
    let mut probed = res.clone();
    probed.probes = true;
    let run = GridRun::run(points.to_vec(), spec, threads, false, traces, &probed, None);
    ObsGrid::from_outcomes(&run.points, spec, run.outcomes, &run.tally, None)
}

#[test]
fn rollup_is_byte_identical_across_thread_counts() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 4, None);

    let render = |threads: usize| {
        let g = probed_grid(&points, spec, threads, &traces, &Resilience::new());
        assert_eq!(g.completed, points.len(), "failed cells: {:?}", g.failed);
        obs_grid_json(&g).render()
    };
    let one = render(1);
    assert_eq!(one, render(4), "1 vs 4 threads");
    assert_eq!(one, render(8), "1 vs 8 threads");
}

#[test]
fn killed_grid_resumes_byte_identical() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 4, None);
    let dir = temp_dir("resume");
    let journal = dir.join("sweep.journal");

    // Reference: one uninterrupted, journal-free run.
    let direct = probed_grid(&points, spec, 1, &traces, &Resilience::new());
    let direct_json = obs_grid_json(&direct).render();

    // First run dies after 3 completed cells; their journal lines keep
    // the finished telemetry.
    let res = Resilience::new()
        .with_journal(&journal)
        .with_plan(FaultPlan::parse("kill-after 3").unwrap());
    let killed = probed_grid(&points, spec, 1, &traces, &res);
    assert_eq!(killed.completed, 3, "killed after 3 cells");
    assert_eq!(killed.failed.len(), points.len() - 3);
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.starts_with("# arvi sweep journal v1"), "{text}");
    assert_eq!(text.lines().count(), 1 + 3, "header + one line per cell");
    assert!(
        text.lines().skip(1).all(|l| l.contains("\"probes\":")),
        "every line carries its cell's probes"
    );
    assert!(!dir.join("sweep.journal.obs").exists(), "one journal file");

    // Second run resumes: journaled telemetry restored, the rest
    // simulated — and the rollup is byte-identical to the direct run.
    let res = Resilience::new().with_journal(&journal).resuming();
    let resumed = probed_grid(&points, spec, 1, &traces, &res);
    assert_eq!(resumed.completed, points.len());
    assert_eq!(resumed.resumed, 3, "every journaled cell restored");
    assert_eq!(
        obs_grid_json(&resumed).render(),
        direct_json,
        "resumed rollup must be byte-identical to an uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_counter_sums_equal_per_cell_sums_over_the_suite() {
    let spec = tiny_spec();
    let workloads = Workload::suite();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 4, None);
    let g = probed_grid(&points, spec, 4, &traces, &Resilience::new());
    assert_eq!(g.completed, points.len(), "failed cells: {:?}", g.failed);
    // One group per cell, in point order, holding that cell's counters.
    assert_eq!(g.groups.len(), points.len());
    let mut grand_total = 0u64;
    for (group, point) in g.groups.iter().zip(&points) {
        assert_eq!(
            (group.workload.as_str(), group.depth, group.config),
            (point.workload.name(), point.depth, point.config)
        );
        assert!(group.counters.committed > 0, "cell {point} ran nothing");
        grand_total += group.counters.committed;
    }
    assert_eq!(
        g.counters.committed, grand_total,
        "grid-wide merge diverges from the sum over cells"
    );

    // The same invariant holds for the rendered JSON's numbers.
    let json = obs_grid_json(&g);
    assert_eq!(
        json.num("grid.counters.committed"),
        Some(grand_total as f64)
    );
    assert_eq!(json.num("completed"), Some(points.len() as f64));
}

#[test]
fn attribution_names_sites_arvi_fixes_on_datadep() {
    // A data-dependent-branch scenario: the two-level baseline hovers
    // near chance while ARVI reads the operands — per-site attribution
    // must surface concrete PCs that ARVI fixes, at each depth apart.
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 3,
    };
    let workloads = vec![Workload::scenario(
        arvi::synth::find("datadep-deep").expect("curated scenario"),
    )];
    let points = grid(
        &workloads,
        &[Depth::D40, Depth::D20],
        &[PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent],
    );
    let traces = TraceSet::record(&workloads, spec, 1, None);
    let g = probed_grid(&points, spec, 1, &traces, &Resilience::new());
    assert_eq!(g.completed, points.len(), "failed cells: {:?}", g.failed);

    let json = obs_grid_json(&g);
    let attribution = attribution_diff(&json, 10).expect("both configs present");
    let depths: Vec<u64> = attribution.workloads.iter().map(|w| w.depth).collect();
    assert_eq!(depths, [40, 20], "one diff per (workload, depth)");
    for w in &attribution.workloads {
        assert_eq!(w.workload, "datadep-deep");
        assert_eq!(w.arvi_config, "arvi current value");
        assert_eq!(w.baseline_config, "2-level 2Bc-gskew");
        assert!(
            w.arvi_accuracy > w.baseline_accuracy,
            "ARVI must beat the baseline on datadep at {} stages ({:.4} vs {:.4})",
            w.depth,
            w.arvi_accuracy,
            w.baseline_accuracy
        );
        assert!(
            !w.fixed.is_empty(),
            "at least one fixed site expected on datadep at {} stages",
            w.depth
        );
        let top = &w.fixed[0];
        assert!(top.delta > 0);
        assert!(top.baseline_mispredicts > top.arvi_mispredicts);
        assert!(top.executed >= top.baseline_mispredicts);
    }

    // Renderings carry the same story.
    let md = attribution.to_markdown();
    assert!(md.contains("### datadep-deep, 20 stages"), "{md}");
    assert!(md.contains("sites ARVI fixes"), "{md}");
    let back = attribution.to_json();
    let Some(Json::Arr(ws)) = back.get("workloads") else {
        panic!("workloads array missing");
    };
    assert_eq!(ws[1].num("depth"), Some(20.0));
    assert!(ws[1].num("arvi_accuracy").unwrap() > ws[1].num("baseline_accuracy").unwrap());

    // The `--cell` view is the anchor: ARVI current value at the
    // shallowest depth; a workload the rollup lacks is named.
    let view = cell_view(&json, "datadep-deep", 3).expect("anchor cell");
    let anchor = &g.groups[3];
    assert_eq!(
        (anchor.depth, anchor.config),
        (Depth::D20, PredictorConfig::ArviCurrent)
    );
    assert!(view.starts_with("## datadep-deep: arvi current value, 20 stages\n"));
    assert!(view.ends_with(&anchor.sites.to_markdown(3)), "{view}");
    let err = cell_view(&json, "nope", 3).unwrap_err();
    assert!(err.contains("no workload `nope`"), "{err}");
}

#[test]
fn events_jsonl_and_metrics_export_from_a_resilient_sweep() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let points = grid(&workloads, &[Depth::D20], &[PredictorConfig::ArviCurrent]);
    let dir = temp_dir("events");
    let events_path = dir.join("logs/events.jsonl");
    let metrics_path = dir.join("logs/metrics.prom");

    let mut res = Resilience::new();
    res.telemetry = Some(Arc::new(
        SweepTelemetry::from_paths(Some(&events_path), Some(&metrics_path)).unwrap(),
    ));
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let run = GridRun::run(points.clone(), spec, 2, false, &traces, &res, None);
    assert!(run.outcomes.iter().all(|o| o.success().is_some()));

    // Every line is a JSON object with a monotonic-origin timestamp and
    // an event name; the span events cover the sweep lifecycle.
    let text = std::fs::read_to_string(&events_path).unwrap();
    let mut seen = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        assert!(
            j.num("t_us").is_some(),
            "line {} has no t_us: {line}",
            i + 1
        );
        match j.get("event") {
            Some(Json::Str(name)) => seen.push(name.clone()),
            _ => panic!("line {} has no event name: {line}", i + 1),
        }
    }
    for expected in ["sweep_start", "cell_start", "cell_end", "sweep_end"] {
        assert!(
            seen.iter().any(|e| e == expected),
            "event `{expected}` missing from {seen:?}"
        );
    }
    assert_eq!(
        seen.iter().filter(|e| *e == "cell_end").count(),
        points.len(),
        "one cell_end per cell"
    );

    // The metrics snapshot counts the same outcomes.
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(metrics.contains("arvi_sweeps_total 1"), "{metrics}");
    assert!(
        metrics.contains(&format!(
            "arvi_sweep_cells_total{{outcome=\"ok\"}} {}",
            points.len()
        )),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE arvi_sweeps_total counter"),
        "{metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A run's `(ok, failed, skipped, resumed)` cell counts.
type Counts = (usize, usize, usize, usize);

/// A probed run of `points` on `threads` workers under `res`, with an
/// event log and a metrics file in `dir` named after `tag`, folded into
/// its rollup with the fold's events: the rollup, the metrics text and
/// the event log.
fn telemetry_run(
    points: &[SweepPoint],
    threads: usize,
    traces: &TraceSet,
    res: &Resilience,
    dir: &std::path::Path,
    tag: &str,
) -> (ObsGrid, String, String) {
    let (events, metrics) = (
        dir.join(format!("{tag}.jsonl")),
        dir.join(format!("{tag}.prom")),
    );
    let telemetry = Arc::new(SweepTelemetry::from_paths(Some(&events), Some(&metrics)).unwrap());
    let mut res = res.clone();
    res.probes = true;
    res.telemetry = Some(Arc::clone(&telemetry));
    let spec = tiny_spec();
    let run = GridRun::run(points.to_vec(), spec, threads, false, traces, &res, None);
    let rollup = ObsGrid::from_outcomes(
        &run.points,
        spec,
        run.outcomes,
        &run.tally,
        Some(&telemetry),
    );
    let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap();
    (rollup, read(&metrics), read(&events))
}

fn metric_counts(text: &str) -> Counts {
    let value = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    };
    let cells = |outcome: &str| value(&format!("arvi_sweep_cells_total{{outcome=\"{outcome}\"}}"));
    (
        cells("ok"),
        cells("panicked") + cells("trace-error"),
        cells("skipped"),
        value("arvi_sweep_resumed_cells_total"),
    )
}

fn rollup_counts(g: &ObsGrid) -> Counts {
    let skipped = g
        .failed
        .iter()
        .filter(|(_, _, reason)| reason.starts_with("skipped"))
        .count();
    (g.completed, g.failed.len() - skipped, skipped, g.resumed)
}

/// The main pass's counts from the event log: its `cell_end` events
/// (those without a `pass` field); a skipped cell has none.
fn event_counts(log: &str) -> Counts {
    let (mut cells, mut ok, mut failed, mut resumed, mut ended) = (0, 0, 0, 0, 0);
    for line in log.lines() {
        let j = Json::parse(line).unwrap();
        let is = |field: &str, want: &str| matches!(j.get(field), Some(Json::Str(v)) if v == want);
        if is("event", "sweep_start") {
            cells = j.num("cells").unwrap() as usize;
        }
        if !is("event", "cell_end") || j.get("pass").is_some() {
            continue;
        }
        ended += 1;
        if is("outcome", "ok") {
            ok += 1;
            resumed += is("phase", "resumed") as usize;
        } else {
            failed += 1;
        }
    }
    (ok, failed, cells - ended, resumed)
}

/// `text` without its summed-cell-time line, the one line wall-clock
/// time changes between otherwise equal runs on a shared trace set.
fn without_duration_sum(text: &str) -> String {
    let lines = text.lines();
    let kept: Vec<&str> = lines
        .filter(|l| !l.starts_with("arvi_sweep_cell_duration_seconds_sum "))
        .collect();
    kept.join("\n")
}

#[test]
fn metrics_rollup_and_events_agree_on_every_outcome() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    // No cell here has twins, so no derivation depends on the schedule.
    let configs = [PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent];
    let points = grid(&workloads, &[Depth::D20, Depth::D40], &configs);
    assert_eq!(points.len(), 8);
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let dir = temp_dir("tally");
    let journal = dir.join("sweep.journal");
    let agree = |(rollup, metrics, events): &(ObsGrid, String, String), want: Counts| {
        assert_eq!(metric_counts(metrics), want, "metrics:\n{metrics}");
        assert_eq!(rollup_counts(rollup), want, "rollup: {:?}", rollup.failed);
        assert_eq!(event_counts(events), want, "events:\n{events}");
    };

    // Cell 1 panics and the run stops after 5 items: cells 0 and 2..=4
    // complete, 5..=7 are never dispatched.
    let faults = "panic-cell 1\nkill-after 5";
    let res = Resilience::new()
        .with_journal(&journal)
        .with_plan(FaultPlan::parse(faults).unwrap());
    let killed = telemetry_run(&points, 1, &traces, &res, &dir, "killed");
    agree(&killed, (4, 1, 3, 0));
    assert!(killed.1.contains("arvi_sweeps_total 1\n"), "{}", killed.1);

    // Resumed from copies of that journal at 1 and 2 threads: the 4
    // journaled cells restore, the other 4 run, and the metrics match.
    let resumed: Vec<String> = [1, 2]
        .into_iter()
        .map(|threads| {
            let copy = dir.join(format!("resume-{threads}.journal"));
            std::fs::copy(&journal, &copy).unwrap();
            let res = Resilience::new().with_journal(&copy).resuming();
            let tag = format!("resumed-{threads}");
            let run = telemetry_run(&points, threads, &traces, &res, &dir, &tag);
            agree(&run, (8, 0, 0, 4));
            without_duration_sum(&run.1)
        })
        .collect();
    assert_eq!(resumed[0], resumed[1], "resumed metrics, 1 vs 2 threads");

    // A panic alone is schedule-independent too: whichever worker runs
    // it, the outcome rows come in one order.
    let panicked: Vec<String> = [1, 2]
        .into_iter()
        .map(|threads| {
            let res = Resilience::new().with_plan(FaultPlan::parse("panic-cell 1").unwrap());
            let tag = format!("panicked-{threads}");
            let run = telemetry_run(&points, threads, &traces, &res, &dir, &tag);
            agree(&run, (7, 1, 0, 0));
            without_duration_sum(&run.1)
        })
        .collect();
    assert_eq!(panicked[0], panicked[1], "faulted metrics, 1 vs 2 threads");
    std::fs::remove_dir_all(&dir).ok();
}
