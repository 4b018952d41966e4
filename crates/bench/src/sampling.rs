//! Sampled sweeps: what is specific to the `--sample` execution mode of
//! the experiment binaries.
//!
//! A sampled sweep replaces each cell's full detailed run with a
//! [`SamplePlan`] over the cell's recorded trace: `k`-periodic units of
//! functional warm-up + detailed measurement (see `arvi_sampling`). It
//! runs on the one grid executor ([`crate::harness::GridRun::run`] with
//! a plan), whose work list then holds one item per unit of every cell
//! with a usable recording — so even a single long-window cell
//! saturates every core, which is the point: intra-run parallelism that
//! the serial full run cannot have. A cell whose workload has no usable
//! recording fails as it does in a full run, with a trace error naming
//! the workload.
//!
//! Sampling units run unprobed, and a sampled cell runs its units only:
//! `--obs-grid` is rejected together with `--sample`.
//!
//! Isolation, the fault plan, journaling, resume and telemetry are the
//! executor's, the same as for full runs; this module adds only the
//! unit journal key ([`unit_fingerprint`]: a killed run resumes per
//! *unit*, not per cell), the fold of a cell's unit results into its
//! [`SampleReport`], and the confidence-interval table.
//!
//! Determinism: unit results are folded in unit order and merged with
//! integer-exact counter sums, so a sampled sweep's results — including
//! every CI — are bit-identical across thread counts and across kill +
//! `--resume`.

use std::time::Duration;

use arvi_sampling::{aggregate, SamplePlan, SampleReport};
use arvi_sim::{intern_name, SimResult};
use arvi_stats::Table;

use crate::harness::Spec;
use crate::resilience::{cell_fingerprint, CellOutcome, CellSuccess};
use crate::sweep::SweepPoint;
use crate::workload::fnv1a;

/// Parses a `--sample PLAN` argument pair out of `args`
/// (`k:warmup:detail` or `stratified:k:warmup:detail`; see
/// [`SamplePlan::parse`]). `Ok(None)` when the flag is absent.
pub fn sample_plan_from_args(args: &[String]) -> Result<Option<SamplePlan>, String> {
    crate::flag_value(args, "--sample")?
        .map(|v| SamplePlan::parse(v))
        .transpose()
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

/// Folds one sampled cell's unit outcomes (in unit order) into the
/// cell's outcome, which carries its report: the first failed unit fails
/// the cell; otherwise the unit counters merge into the cell's result,
/// its duration is the units' sum, and it counts as resumed when every
/// unit was restored from the journal.
pub(crate) fn fold_units(point: &SweepPoint, spec: Spec, units: Vec<CellOutcome>) -> CellOutcome {
    let mut stats = Vec::with_capacity(units.len());
    let (mut duration, mut resumed) = (Duration::ZERO, true);
    for outcome in units {
        let s = match outcome {
            CellOutcome::Ok(s) => s,
            failed => return failed,
        };
        duration += s.duration;
        resumed &= s.resumed;
        stats.push(s.result.window);
    }
    let report = aggregate(&stats, spec.measure);
    let result = SimResult {
        name: intern_name(point.workload.name()),
        config: point.config,
        depth_stages: point.depth.stages(),
        window: report.totals.clone(),
    };
    CellOutcome::Ok(CellSuccess {
        result,
        resumed,
        derived: false,
        duration,
        probes: None,
        report: Some(Box::new(report)),
    })
}

/// The confidence-interval table of a sampled sweep's `(point, report)`
/// rows ([`crate::harness::GridRun::ci_table`]): IPC and accuracy
/// estimates with 95% half-widths, unit counts and coverage. Failed
/// cells, which have no report, show a dash.
pub(crate) fn ci_table<'a>(
    cells: impl Iterator<Item = (&'a SweepPoint, Option<&'a SampleReport>)>,
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
    use crate::harness::GridRun;
    use crate::resilience::Resilience;
    use crate::sweep::{grid, TraceSet};
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

    /// `plan` over `points` on the grid executor.
    fn sampled(
        points: &[SweepPoint],
        plan: &SamplePlan,
        threads: usize,
        traces: &TraceSet,
        res: &Resilience,
    ) -> GridRun {
        let spec = tiny_spec();
        GridRun::run(
            points.to_vec(),
            spec,
            threads,
            false,
            traces,
            res,
            Some(plan),
        )
    }

    /// The sampled estimate of a sampled run's completed cell `i`.
    fn report(run: &GridRun, i: usize) -> &SampleReport {
        let s = run.outcomes[i].success().expect("cell completed");
        s.report
            .as_deref()
            .expect("a sampled cell carries its report")
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
        let dir = std::env::temp_dir().join(format!("arvi-sampled-events-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (events, metrics) = (dir.join("events.jsonl"), dir.join("metrics.prom"));
        let mut res = Resilience::new();
        res.telemetry = Some(std::sync::Arc::new(
            crate::events::SweepTelemetry::from_paths(Some(&events), Some(&metrics)).unwrap(),
        ));
        let one = sampled(&points, &plan, 1, &traces, &res);
        let four = sampled(&points, &plan, 4, &traces, &Resilience::new());
        for sweep in [&one, &four] {
            assert!(sweep.outcomes[0].success().is_some(), "cell sampled");
            let r = report(sweep, 0);
            assert_eq!(r.units(), 4, "8k measure / (2*1k) stride");
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
        let (ra, rb) = (report(&one, 0), report(&four, 0));
        assert_eq!(ra.ipc.mean.to_bits(), rb.ipc.mean.to_bits());
        assert_eq!(ra.ipc.stderr.to_bits(), rb.ipc.stderr.to_bits());
        let table = one.ci_table(|_| true).unwrap();
        assert!(table.to_text().contains("coverage"));

        // Telemetry spans cells, not units: one cell_start/cell_end for
        // the cell's four units, and the metrics count one ok cell.
        let log = std::fs::read_to_string(&events).unwrap();
        for (event, n) in [
            ("sweep_start", 1),
            ("cell_start", 1),
            ("cell_end", 1),
            ("sweep_end", 1),
        ] {
            assert_eq!(
                log.matches(&format!("\"event\":\"{event}\"")).count(),
                n,
                "{event}"
            );
        }
        let metrics = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            metrics.contains("arvi_sweep_cells_total{outcome=\"ok\"} 1"),
            "{metrics}"
        );
        std::fs::remove_dir_all(&dir).ok();
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
        let partial = sampled(&points, &plan, 1, &traces, &res);
        assert!(matches!(partial.outcomes[0], CellOutcome::Skipped));

        // Resumed run completes and matches an uninterrupted run.
        let res = Resilience::new().with_journal(&journal).resuming();
        let resumed = sampled(&points, &plan, 2, &traces, &res);
        let clean = sampled(&points, &plan, 2, &traces, &Resilience::new());
        let (r, c) = (
            &resumed.outcomes[0].success().expect("completed").result,
            &clean.outcomes[0].success().unwrap().result,
        );
        assert_eq!(r.window.cycles, c.window.cycles);
        assert_eq!(r.window.committed, c.window.committed);
        assert_eq!(r.window.cond_branches, c.window.cond_branches);
        let (rr, cr) = (report(&resumed, 0), report(&clean, 0));
        assert_eq!(rr.ipc.mean.to_bits(), cr.ipc.mean.to_bits());
        assert_eq!(rr.ipc.stderr.to_bits(), cr.ipc.stderr.to_bits());
        assert_eq!(rr.accuracy.mean.to_bits(), cr.accuracy.mean.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }
}
