//! Sampled sweeps: the `--sample` execution mode of the experiment
//! binaries.
//!
//! A sampled sweep replaces each cell's full detailed run with a
//! [`SamplePlan`] over the cell's recorded trace: `k`-periodic units of
//! functional warm-up + detailed measurement (see `arvi_sampling`). The
//! work list is the *flattened* `(cell, unit)` grid, fanned out over one
//! atomic-cursor worker pool — so even a single long-window cell
//! saturates every core, which is the point: intra-run parallelism that
//! the serial full run cannot have.
//!
//! Sampled sweeps compose with the whole resilience stack:
//!
//! * every finished unit is journaled individually (keyed by
//!   [`unit_fingerprint`]), so a killed run resumes per *unit*, not per
//!   cell;
//! * unit panics and trace errors are isolated per cell, like
//!   [`run_sweep_resilient`](crate::resilience::run_sweep_resilient);
//! * a cell whose workload has no usable recording cannot be sampled
//!   (sampling seeks; live emulation cannot) and falls back to a full
//!   live run, reported as [`Degradation::LiveEmulation`] with
//!   `sampled_units == 0`.
//!
//! Determinism: unit results are committed in flattened-grid order and
//! merged with integer-exact counter sums, so a sampled sweep's results
//! — including every CI — are bit-identical across thread counts and
//! across kill + `--resume`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use arvi_sampling::{aggregate, run_unit, SamplePlan, SampleReport, SampleUnit};
use arvi_sim::{intern_name, SimParams, SimResult};
use arvi_stats::Table;
use arvi_trace::REPLAY_PANIC_PREFIX;

use crate::harness::Spec;
use crate::resilience::{
    cell_fingerprint, panic_message, CellOutcome, CellSuccess, Degradation, Resilience,
    SweepJournal,
};
use crate::sweep::{trace_len, SweepPoint, TraceProvenance, TraceSet};
use crate::workload::fnv1a;

/// Parses a `--sample PLAN` argument pair out of `args`
/// (`k:warmup:detail` or `stratified:k:warmup:detail`; see
/// [`SamplePlan::parse`]). `Ok(None)` when the flag is absent.
pub fn sample_plan_from_args(args: &[String]) -> Result<Option<SamplePlan>, String> {
    match args.iter().position(|a| a == "--sample") {
        None => Ok(None),
        Some(i) => {
            let v = args
                .get(i + 1)
                .filter(|v| !v.starts_with('-'))
                .ok_or("--sample needs a plan (k:warmup:detail)")?;
            SamplePlan::parse(v).map(Some)
        }
    }
}

/// A completed sampled sweep: one [`CellOutcome`] per grid point (as the
/// resilient runner reports), plus the per-cell [`SampleReport`] — the
/// CI-carrying aggregate — for every cell that actually sampled
/// (`None` for live-fallback cells and failures).
#[derive(Debug)]
pub struct SampledSweep {
    /// One outcome per grid point, in grid order.
    pub outcomes: Vec<CellOutcome>,
    /// One report per grid point, in grid order; `None` where the cell
    /// did not produce sampled estimates.
    pub reports: Vec<Option<SampleReport>>,
}

/// Identity hash of one sampling unit of one cell: the cell fingerprint
/// extended with the plan (whose placement determines the unit's trace
/// positions) and the unit index. Journal entries written under a
/// different plan or unit can never satisfy a resume lookup.
pub fn unit_fingerprint(point: &SweepPoint, spec: Spec, plan: &SamplePlan, unit: u64) -> u64 {
    let mut h = fnv1a(cell_fingerprint(point, spec), b"arvi-sampled-unit-v1");
    h = fnv1a(h, plan.to_string().as_bytes());
    h = fnv1a(h, &unit.to_le_bytes());
    h
}

/// What a cell runs under a sampled sweep.
enum CellMode {
    /// The cell samples `plan`'s units over its recording.
    Sampled { degradation: Degradation },
    /// No usable recording: the cell runs full-length live emulation
    /// (sampling needs a seekable trace), or fails when
    /// [`Resilience::live_fallback`] is off.
    Fallback,
}

/// One finished work item.
enum Done {
    Unit {
        stats: arvi_sim::MachineStats,
        duration: Duration,
        resumed: bool,
    },
    Whole(CellOutcome),
    Failed {
        message: String,
        trace_error: bool,
    },
}

/// Runs `plan` over every grid point, fanning the flattened
/// `(cell, unit)` work list out over `threads` workers. See the module
/// docs for the resilience and determinism contract.
pub fn run_sweep_sampled(
    points: &[SweepPoint],
    spec: Spec,
    plan: &SamplePlan,
    threads: usize,
    progress: bool,
    traces: &TraceSet,
    res: Option<&Resilience>,
) -> SampledSweep {
    let default_res = Resilience::new();
    let res = res.unwrap_or(&default_res);
    // Detail windows live inside the measurement window; unit warm-up
    // may reach back into the spec warm-up prefix (recorded too).
    let units = plan.units(spec.warmup, spec.measure, spec.seed);
    let prior = match (&res.journal, res.resume) {
        (Some(path), true) => SweepJournal::load(path),
        _ => HashMap::new(),
    };
    let journal = res
        .journal
        .as_deref()
        .and_then(|path| SweepJournal::open_or_warn(path, spec));

    let modes: Vec<CellMode> = points
        .iter()
        .map(|point| match traces.get(&point.workload) {
            Some(trace) if trace.len() >= trace_len(spec) => CellMode::Sampled {
                degradation: match traces.provenance(&point.workload) {
                    Some(TraceProvenance::Rerecorded { corrupt: true }) => {
                        Degradation::Requarantined
                    }
                    _ => Degradation::None,
                },
            },
            _ => CellMode::Fallback,
        })
        .collect();

    // The flattened work list: every unit of every sampled cell is its
    // own schedulable item; fallback cells are one whole-run item.
    let mut items: Vec<(usize, Option<usize>)> = Vec::new();
    for (i, mode) in modes.iter().enumerate() {
        match mode {
            CellMode::Sampled { .. } => items.extend((0..units.len()).map(|j| (i, Some(j)))),
            CellMode::Fallback => items.push((i, None)),
        }
    }
    if progress {
        eprintln!(
            "sampled sweep: {} cells x {} units (plan {plan}), {} work items on {} threads",
            points.len(),
            units.len(),
            items.len(),
            threads.clamp(1, items.len().max(1)),
        );
    }

    let cursor = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Done>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        if res
            .plan
            .as_deref()
            .is_some_and(|p| p.kill_now(completed.load(Ordering::Acquire)))
        {
            break;
        }
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&(cell, unit)) = items.get(idx) else {
            break;
        };
        let point = &points[cell];
        let done = match unit {
            Some(j) => run_unit_item(point, spec, plan, &units[j], j, traces, &prior, &journal),
            None => Done::Whole(run_fallback_cell(point, spec, res, &prior, &journal)),
        };
        *slots[idx].lock().expect("sampled item slot") = Some(done);
        completed.fetch_add(1, Ordering::Release);
    };
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    let mut done: Vec<Option<Done>> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("sampled item slot"))
        .collect();

    // Assemble per cell, consuming the flattened slots in order (the
    // items vector groups each cell's units contiguously).
    let mut outcomes = Vec::with_capacity(points.len());
    let mut reports = Vec::with_capacity(points.len());
    let mut next = 0usize;
    for (i, (point, mode)) in points.iter().zip(&modes).enumerate() {
        match mode {
            CellMode::Fallback => {
                let slot = done[next].take();
                next += 1;
                outcomes.push(match slot {
                    Some(Done::Whole(outcome)) => outcome,
                    _ => CellOutcome::Skipped,
                });
                reports.push(None);
            }
            CellMode::Sampled { degradation } => {
                let cell_slots = &mut done[next..next + units.len()];
                next += units.len();
                let (outcome, report) = assemble_cell(point, spec, i, cell_slots, *degradation);
                outcomes.push(outcome);
                reports.push(report);
            }
        }
    }
    SampledSweep { outcomes, reports }
}

/// Runs (or restores) one sampling unit and journals a fresh result.
#[allow(clippy::too_many_arguments)]
fn run_unit_item(
    point: &SweepPoint,
    spec: Spec,
    plan: &SamplePlan,
    unit: &SampleUnit,
    unit_index: usize,
    traces: &TraceSet,
    prior: &HashMap<u64, (SimResult, Degradation, Duration)>,
    journal: &Option<SweepJournal>,
) -> Done {
    let fp = unit_fingerprint(point, spec, plan, unit_index as u64);
    if let Some((result, _, duration)) = prior.get(&fp) {
        return Done::Unit {
            stats: result.window.clone(),
            duration: *duration,
            resumed: true,
        };
    }
    let trace = traces
        .get(&point.workload)
        .expect("sampled cells have a recording");
    let params = SimParams::for_depth(point.depth);
    let start = Instant::now();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_unit(trace, &params, point.config, unit)
    }));
    let duration = start.elapsed();
    match attempt {
        Ok(Ok(stats)) => {
            if let Some(journal) = journal {
                // One journal entry per unit, in the cell entry format:
                // the unit's counter block rides in the `window` field.
                let entry = SimResult {
                    name: intern_name(point.workload.name()),
                    config: point.config,
                    depth_stages: point.depth.stages(),
                    window: stats.clone(),
                };
                journal.append(fp, &entry, Degradation::None, duration);
            }
            Done::Unit {
                stats,
                duration,
                resumed: false,
            }
        }
        Ok(Err(e)) => Done::Failed {
            message: e.to_string(),
            trace_error: true,
        },
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            let trace_error = message.contains(REPLAY_PANIC_PREFIX);
            Done::Failed {
                message,
                trace_error,
            }
        }
    }
}

/// Full live run for a cell that cannot be sampled (no usable trace).
fn run_fallback_cell(
    point: &SweepPoint,
    spec: Spec,
    res: &Resilience,
    prior: &HashMap<u64, (SimResult, Degradation, Duration)>,
    journal: &Option<SweepJournal>,
) -> CellOutcome {
    // Full-run results are plan-independent, so the plain cell
    // fingerprint keys them — a resumed full sweep's entries count.
    let fp = cell_fingerprint(point, spec);
    if let Some((result, degradation, duration)) = prior.get(&fp) {
        return CellOutcome::Ok(CellSuccess {
            result: result.clone(),
            degradation: *degradation,
            resumed: true,
            duration: *duration,
            sampled_units: 0,
            probes: None,
        });
    }
    if !res.live_fallback {
        return CellOutcome::TraceError {
            message: format!(
                "no usable recording for workload {} — sampling requires a seekable trace \
                 and live fallback is disabled",
                point.workload
            ),
        };
    }
    let start = Instant::now();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::harness::run_one(&point.workload, point.depth, point.config, spec)
    }));
    let duration = start.elapsed();
    match attempt {
        Ok(result) => {
            if let Some(journal) = journal {
                journal.append(fp, &result, Degradation::LiveEmulation, duration);
            }
            CellOutcome::Ok(CellSuccess {
                result,
                degradation: Degradation::LiveEmulation,
                resumed: false,
                duration,
                sampled_units: 0,
                probes: None,
            })
        }
        Err(payload) => CellOutcome::Panicked {
            message: panic_message(payload.as_ref()),
        },
    }
}

/// Folds one sampled cell's unit slots into its outcome and report.
fn assemble_cell(
    point: &SweepPoint,
    spec: Spec,
    cell: usize,
    slots: &mut [Option<Done>],
    degradation: Degradation,
) -> (CellOutcome, Option<SampleReport>) {
    let mut stats = Vec::with_capacity(slots.len());
    let mut duration = Duration::ZERO;
    let mut all_resumed = true;
    let mut missing = false;
    for slot in slots.iter_mut() {
        match slot.take() {
            Some(Done::Unit {
                stats: s,
                duration: d,
                resumed,
            }) => {
                stats.push(s);
                duration += d;
                all_resumed &= resumed;
            }
            Some(Done::Failed {
                message,
                trace_error,
            }) => {
                let message = format!("cell {cell} ({point}): {message}");
                let outcome = if trace_error {
                    CellOutcome::TraceError { message }
                } else {
                    CellOutcome::Panicked { message }
                };
                return (outcome, None);
            }
            Some(Done::Whole(_)) => unreachable!("sampled cells have no whole-run items"),
            None => missing = true,
        }
    }
    if missing {
        // Some units were never dispatched (simulated kill); journaled
        // ones will be restored by a --resume re-run.
        return (CellOutcome::Skipped, None);
    }
    let report = aggregate(&stats, spec.measure);
    let result = SimResult {
        name: intern_name(point.workload.name()),
        config: point.config,
        depth_stages: point.depth.stages(),
        window: report.totals.clone(),
    };
    let units = report.ipc.units.max(stats.len());
    (
        CellOutcome::Ok(CellSuccess {
            result,
            degradation,
            resumed: all_resumed,
            duration,
            sampled_units: units,
            probes: None,
        }),
        Some(report),
    )
}

/// The per-cell confidence-interval table of a sampled sweep: IPC and
/// accuracy estimates with 95% half-widths, unit counts and coverage.
/// Cells without a report (live fallback, failures) show a dash.
pub fn sample_ci_table(points: &[SweepPoint], sweep: &SampledSweep) -> Table {
    ci_table(points.iter().zip(&sweep.reports))
}

/// [`sample_ci_table`] over any `(point, report)` rows — e.g. one
/// figure's slice of a larger sampled grid.
pub(crate) fn ci_table<'a>(
    cells: impl Iterator<Item = (&'a SweepPoint, &'a Option<SampleReport>)>,
) -> Table {
    let mut t = Table::new(vec![
        "workload".into(),
        "depth".into(),
        "config".into(),
        "IPC".into(),
        "±95%".into(),
        "accuracy".into(),
        "±95%".into(),
        "units".into(),
        "coverage".into(),
    ]);
    for (point, report) in cells {
        let mut row = vec![
            point.workload.name().to_string(),
            point.depth.to_string(),
            point.config.label().to_string(),
        ];
        match report {
            Some(r) => row.extend([
                format!("{:.4}", r.ipc.mean),
                format!("{:.4}", r.ipc.ci_half_width()),
                format!("{:.4}", r.accuracy.mean),
                format!("{:.4}", r.accuracy.ci_half_width()),
                format!("{}", r.units()),
                format!("{:.1}%", r.coverage() * 100.0),
            ]),
            None => row.extend(std::iter::repeat_n("-".to_string(), 6)),
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid;
    use crate::workload::Workload;
    use arvi_sim::{Depth, PredictorConfig};
    use arvi_workloads::Benchmark;

    fn tiny_spec() -> Spec {
        Spec {
            warmup: 2_000,
            measure: 8_000,
            seed: 3,
        }
    }

    #[test]
    fn sample_flag_parses() {
        let args = |l: &[&str]| l.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(sample_plan_from_args(&args(&["--quick"])).unwrap(), None);
        let plan = sample_plan_from_args(&args(&["--sample", "4:1000:500"]))
            .unwrap()
            .unwrap();
        assert_eq!(plan, SamplePlan::systematic(4, 1000, 500));
        assert!(sample_plan_from_args(&args(&["--sample"])).is_err());
        assert!(sample_plan_from_args(&args(&["--sample", "--quick"])).is_err());
        assert!(sample_plan_from_args(&args(&["--sample", "nope"])).is_err());
    }

    #[test]
    fn unit_fingerprints_separate_plan_and_unit() {
        let spec = tiny_spec();
        let point = SweepPoint {
            workload: Benchmark::Li.into(),
            depth: Depth::D20,
            config: PredictorConfig::ArviCurrent,
        };
        let a = SamplePlan::systematic(4, 1000, 500);
        let b = SamplePlan::systematic(2, 1000, 500);
        let fp = unit_fingerprint(&point, spec, &a, 0);
        assert_eq!(fp, unit_fingerprint(&point, spec, &a, 0));
        assert_ne!(fp, unit_fingerprint(&point, spec, &a, 1));
        assert_ne!(fp, unit_fingerprint(&point, spec, &b, 0));
        assert_ne!(fp, cell_fingerprint(&point, spec), "unit keys are distinct");
    }

    #[test]
    fn sampled_sweep_is_thread_invariant_and_reports_cis() {
        let spec = tiny_spec();
        let workloads = [Workload::from(Benchmark::Compress)];
        let points = grid(&workloads, &[Depth::D20], &[PredictorConfig::ArviCurrent]);
        let traces = TraceSet::record(&workloads, spec, 1, None);
        let plan = SamplePlan::systematic(2, 500, 1_000);
        let one = run_sweep_sampled(&points, spec, &plan, 1, false, &traces, None);
        let four = run_sweep_sampled(&points, spec, &plan, 4, false, &traces, None);
        for sweep in [&one, &four] {
            let s = sweep.outcomes[0].success().expect("cell sampled");
            assert_eq!(s.sampled_units, 4, "8k measure / (2*1k) stride");
            let r = sweep.reports[0].as_ref().expect("report present");
            assert_eq!(r.units(), 4);
            assert!((r.coverage() - 0.5).abs() < 0.01);
            assert!(r.ipc.mean > 0.0);
        }
        let (a, b) = (
            &one.outcomes[0].success().unwrap().result.window,
            &four.outcomes[0].success().unwrap().result.window,
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.cond_branches, b.cond_branches);
        let (ra, rb) = (
            one.reports[0].as_ref().unwrap(),
            four.reports[0].as_ref().unwrap(),
        );
        assert_eq!(ra.ipc.mean.to_bits(), rb.ipc.mean.to_bits());
        assert_eq!(ra.ipc.stderr.to_bits(), rb.ipc.stderr.to_bits());
        let table = sample_ci_table(&points, &one);
        assert!(table.to_text().contains("coverage"));
    }

    #[test]
    fn cell_without_trace_falls_back_to_live_full_run() {
        let spec = tiny_spec();
        let recorded = [Workload::from(Benchmark::Compress)];
        // Grid includes a workload the trace set never recorded.
        let points = grid(
            &[Workload::from(Benchmark::Li)],
            &[Depth::D20],
            &[PredictorConfig::TwoLevelGskew],
        );
        let traces = TraceSet::record(&recorded, spec, 1, None);
        let plan = SamplePlan::systematic(2, 500, 1_000);
        let sweep = run_sweep_sampled(&points, spec, &plan, 2, false, &traces, None);
        let s = sweep.outcomes[0].success().expect("fallback ran");
        assert_eq!(s.degradation, Degradation::LiveEmulation);
        assert_eq!(s.sampled_units, 0);
        assert!(sweep.reports[0].is_none());
        // And with fallback disabled, the same cell is a trace error.
        let mut res = Resilience::new();
        res.live_fallback = false;
        let sweep = run_sweep_sampled(&points, spec, &plan, 2, false, &traces, Some(&res));
        assert!(matches!(sweep.outcomes[0], CellOutcome::TraceError { .. }));
    }

    #[test]
    fn sampled_sweep_journals_and_resumes_per_unit() {
        let spec = tiny_spec();
        let workloads = [Workload::from(Benchmark::Go)];
        let points = grid(&workloads, &[Depth::D20], &[PredictorConfig::ArviCurrent]);
        let traces = TraceSet::record(&workloads, spec, 1, None);
        let plan = SamplePlan::systematic(2, 500, 1_000);
        let dir = std::env::temp_dir().join(format!("arvi-sampled-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = dir.join("sweep.journal");

        // First run: killed after 2 units.
        let res = Resilience::new()
            .with_journal(&journal)
            .with_plan(crate::resilience::FaultPlan::parse("kill-after 2").unwrap());
        let partial = run_sweep_sampled(&points, spec, &plan, 1, false, &traces, Some(&res));
        assert!(matches!(partial.outcomes[0], CellOutcome::Skipped));

        // Resumed run completes and matches an uninterrupted run.
        let res = Resilience::new().with_journal(&journal).resuming();
        let resumed = run_sweep_sampled(&points, spec, &plan, 2, false, &traces, Some(&res));
        let clean = run_sweep_sampled(&points, spec, &plan, 2, false, &traces, None);
        let (r, c) = (
            &resumed.outcomes[0].success().expect("completed").result,
            &clean.outcomes[0].success().unwrap().result,
        );
        assert_eq!(r.window.cycles, c.window.cycles);
        assert_eq!(r.window.committed, c.window.committed);
        assert_eq!(r.window.cond_branches, c.window.cond_branches);
        let (rr, cr) = (
            resumed.reports[0].as_ref().unwrap(),
            clean.reports[0].as_ref().unwrap(),
        );
        assert_eq!(rr.ipc.mean.to_bits(), cr.ipc.mean.to_bits());
        assert_eq!(rr.ipc.stderr.to_bits(), cr.ipc.stderr.to_bits());
        assert_eq!(rr.accuracy.mean.to_bits(), cr.accuracy.mean.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }
}
