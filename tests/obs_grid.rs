//! Grid-scale telemetry contract tests:
//!
//! 1. **Thread determinism** — the merged `obs_grid.json` rollup is
//!    byte-identical across worker counts (cells merge in point order,
//!    not completion order).
//! 2. **Resume fidelity** — a grid killed mid-run and resumed from the
//!    probes on its journal lines renders byte-identically to an uninterrupted run
//!    (full-fidelity probe serialization, no run-shape fields in the
//!    JSON).
//! 3. **Conservation** — every group's merged counter sums equal the
//!    sums of its per-cell commit counts over the full benchmark suite,
//!    and the grid total equals the sum over groups.
//! 4. **Attribution** — on a data-dependent-branch scenario the
//!    ARVI-vs-baseline diff names at least one branch PC ARVI fixes
//!    (the paper's core claim, made falsifiable per site).
//! 5. **Structured events** — the resilient sweep's `--events-out`
//!    JSONL log parses line by line with the expected span events, and
//!    the Prometheus-style metrics export carries the cell outcomes.
//! 6. **Sampled rollup** — after a sampled run, whose cells carry their
//!    probes from one extra whole-cell item each, `maybe_obs_grid` writes
//!    the same rollup bytes as after an unsampled probed run over the
//!    same points.

use std::sync::Arc;

use arvi::sampling::SamplePlan;
use arvi::sim::{Depth, PredictorConfig};
use arvi::workloads::Benchmark;
use arvi_bench::{
    attribution_diff, grid, maybe_obs_grid, obs_from_args, obs_grid_json, FaultPlan, GridRun, Json,
    ObsGrid, Resilience, Spec, SweepPoint, SweepTelemetry, TraceSet, Workload,
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
    probed.probes = obs_from_args(&["--obs-grid".to_string(), "unused.json".to_string()]).unwrap();
    let run = GridRun::run(points.to_vec(), spec, threads, false, traces, &probed, None);
    ObsGrid::from_outcomes(&run.points, spec, run.outcomes, None)
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
        obs_grid_json(&g, 5).render()
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
    let direct_json = obs_grid_json(&direct, 5).render();

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
        obs_grid_json(&resumed, 5).render(),
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
    assert_eq!(
        g.groups.len(),
        workloads.len() * PredictorConfig::all().len()
    );

    // Per (workload, config) group: merged committed count == the sum
    // of that group's per-cell commit counts.
    let mut grand_total = 0u64;
    for group in &g.groups {
        let cell_sum: u64 = points
            .iter()
            .zip(&g.cells_committed)
            .filter(|(p, _)| p.workload.name() == group.workload && p.config == group.config)
            .filter_map(|(_, c)| *c)
            .sum();
        assert!(cell_sum > 0, "group {} ran nothing", group.workload);
        assert_eq!(
            group.counters.committed, cell_sum,
            "group ({}, {}) merged commits diverge from its cells",
            group.workload, group.config
        );
        grand_total += cell_sum;
    }
    assert_eq!(
        g.counters.committed, grand_total,
        "grid-wide merge diverges from the sum over groups"
    );

    // The same invariant holds for the rendered JSON's numbers.
    let json = obs_grid_json(&g, 5);
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
    // must surface concrete PCs that ARVI fixes.
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
        &[Depth::D20],
        &[PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent],
    );
    let traces = TraceSet::record(&workloads, spec, 1, None);
    let g = probed_grid(&points, spec, 1, &traces, &Resilience::new());
    assert_eq!(g.completed, points.len(), "failed cells: {:?}", g.failed);

    let json = obs_grid_json(&g, 10);
    let attribution = attribution_diff(&json, 10).expect("both configs present");
    assert_eq!(attribution.workloads.len(), 1);
    let w = &attribution.workloads[0];
    assert_eq!(w.workload, "datadep-deep");
    assert_eq!(w.arvi_config, "arvi current value");
    assert_eq!(w.baseline_config, "2-level 2Bc-gskew");
    assert!(
        w.arvi_accuracy > w.baseline_accuracy,
        "ARVI must beat the baseline on datadep ({:.4} vs {:.4})",
        w.arvi_accuracy,
        w.baseline_accuracy
    );
    assert!(
        !w.fixed.is_empty(),
        "at least one fixed site expected on datadep"
    );
    let top = &w.fixed[0];
    assert!(top.delta > 0);
    assert!(top.baseline_mispredicts > top.arvi_mispredicts);
    assert!(top.executed >= top.baseline_mispredicts);

    // Renderings carry the same story.
    let md = attribution.to_markdown();
    assert!(md.contains("datadep-deep"), "{md}");
    assert!(md.contains("sites ARVI fixes"), "{md}");
    let back = attribution.to_json();
    let Some(Json::Arr(ws)) = back.get("workloads") else {
        panic!("workloads array missing");
    };
    assert!(ws[0].num("arvi_accuracy").unwrap() > ws[0].num("baseline_accuracy").unwrap());
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

#[test]
fn sampled_run_writes_the_unsampled_probed_rollup() {
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 3,
    };
    let workloads = small_workloads();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let plan = SamplePlan::systematic(2, 500, 1_000);
    let dir = temp_dir("sampled-rollup");
    let rollup = |threads: usize, plan: Option<&SamplePlan>, name: &str| {
        let out = dir.join(name);
        let args = ["--obs-grid".to_string(), out.display().to_string()];
        let cfg = obs_from_args(&args).unwrap().expect("--obs-grid config");
        // What `--obs-grid` sets up: a policy carrying the config.
        let mut res = Resilience::new();
        res.probes = Some(cfg.clone());
        let run = GridRun::run(points.clone(), spec, threads, false, &traces, &res, plan);
        assert_eq!(run.reports.is_some(), plan.is_some());
        maybe_obs_grid(Some(&cfg), run, spec, None);
        std::fs::read(&out).expect("rollup written")
    };
    let reference = rollup(1, None, "full-1.json");
    for threads in [1, 2] {
        assert_eq!(
            rollup(threads, Some(&plan), &format!("sampled-{threads}.json")),
            reference,
            "sampled rollup at {threads} threads"
        );
        assert_eq!(
            rollup(threads, None, &format!("full-{threads}.json")),
            reference,
            "unsampled rollup at {threads} threads"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
