//! Sampled-simulation contract tests (see `arvi::sampling` and
//! `arvi_bench::sampling`):
//!
//! 1. **Full-coverage exactness** — a `k = 1` systematic plan tiles the
//!    region, so the instruction population it measures is *exactly* the
//!    full run's: committed count equals the region length and the
//!    trace-derived counters (conditional-branch totals) match a single
//!    detail window spanning the whole region, for any detail length and
//!    warm-up (property test). Cycle counts are boundary-dependent (each
//!    unit refills its own pipeline) and are deliberately not part of
//!    the exactness claim.
//! 2. **Merge algebra** — per-unit counter blocks merge with plain
//!    integer sums (`MachineStats += &MachineStats`): associative,
//!    commutative, and `aggregate`'s totals equal a fold in any order, so
//!    thread interleaving and resume replay cannot change a sampled
//!    result.
//! 3. **End-to-end determinism** — a sampled sweep's complete estimate
//!    fingerprint (counters plus the bit patterns of every mean, stderr
//!    and CI) is byte-identical across `--threads 1/4/8` and across a
//!    kill + `--resume` cycle through the unit journal.
//! 4. **Estimates track the full run** — the SMARTS-style error study
//!    (Wunderlich et al., ISCA 2003): each of the 17 suite and curated
//!    cells sampled at 1-in-{2,4,8} lands inside its 95% CI or within 1%
//!    of its full-run IPC at 1-in-2, the CIs cover at least 90% (1-in-2)
//!    and 75% (1-in-8) of the cells, and the mean |IPC error| stays
//!    under 8% at every rate; and on one 8M-instruction window the
//!    full-run IPC lies inside the sampled CI, under 2% off. The
//!    simulator is integer-deterministic, so these hold on any host.
//!    Both print their per-rate error table to stderr, accuracy error
//!    included (not asserted: the functional warm-up model still biases
//!    it).

use std::sync::{Arc, OnceLock};

use arvi::isa::Emulator;
use arvi::sampling::{
    aggregate, run_unit, run_units, sample_region, SamplePlan, SampleReport, SampleUnit,
};
use arvi::sim::{Depth, MachineStats, PredictorConfig, SimParams};
use arvi::stats::Table;
use arvi::trace::Trace;
use arvi::workloads::Benchmark;
use arvi_bench::{
    grid, record_trace, run_one_traced, FaultPlan, GridRun, Resilience, Spec, TraceSet, Workload,
};
use proptest::prelude::*;

/// Region length of the shared property-test trace; the recording
/// carries extra slack so a detail window ending at the region boundary
/// can still fetch ahead.
const REGION: u64 = 3_000;

fn shared_trace() -> &'static Arc<Trace> {
    static TRACE: OnceLock<Arc<Trace>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let emu = Emulator::new(Benchmark::Compress.program(7));
        Arc::new(Trace::record(
            emu,
            REGION + 2_000,
            "compress-sampling-it",
            7,
        ))
    })
}

/// The full-run reference: one detail window spanning the whole region,
/// started cold at position 0 — exactly what a plan degenerates to when
/// its detail length covers the region.
fn full_region_counts(config: PredictorConfig) -> MachineStats {
    let unit = SampleUnit {
        index: 0,
        warmup_start: 0,
        detail_start: 0,
        detail_len: REGION,
    };
    run_unit(
        shared_trace(),
        &SimParams::for_depth(Depth::D20),
        config,
        &unit,
    )
    .expect("full-region unit runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn full_coverage_plan_reproduces_full_run_counts(
        detail in 64u64..1_500,
        warmup in 0u64..3_000,
    ) {
        let config = PredictorConfig::TwoLevelGskew;
        let full = full_region_counts(config);
        prop_assert_eq!(full.committed, REGION);

        let plan = SamplePlan::systematic(1, warmup, detail);
        let units = plan.units(0, REGION, 0);
        // The tiling invariant: contiguous detail windows, no gaps.
        let mut next = 0;
        for u in &units {
            prop_assert_eq!(u.detail_start, next);
            next = u.detail_start + u.detail_len;
        }
        prop_assert_eq!(next, REGION);

        let params = SimParams::for_depth(Depth::D20);
        let results = run_units(shared_trace(), &params, config, &units, 2).unwrap();
        let report = aggregate(&results, REGION);

        // 100% coverage measures the full run's instruction population
        // exactly — commit-for-commit, branch-for-branch.
        prop_assert_eq!(report.totals.committed, REGION);
        prop_assert_eq!(report.sampled_insts, REGION);
        prop_assert!((report.coverage() - 1.0).abs() < 1e-12);
        prop_assert_eq!(
            report.totals.cond_branches.total(),
            full.cond_branches.total()
        );
        prop_assert_eq!(report.totals.l1_only.total(), full.l1_only.total());
        // The weighted means stay exact ratios of the summed counters.
        prop_assert!((report.ipc.mean - report.totals.ipc()).abs() < 1e-12);
        prop_assert!(
            (report.accuracy.mean - report.totals.cond_branches.rate()).abs() < 1e-12
        );
    }
}

#[test]
fn merge_order_cannot_change_a_sampled_result() {
    let params = SimParams::for_depth(Depth::D20);
    let plan = SamplePlan::systematic(2, 300, 400);
    let units = plan.units(0, REGION, 0);
    let r = run_units(
        shared_trace(),
        &params,
        PredictorConfig::ArviCurrent,
        &units,
        1,
    )
    .unwrap();
    assert!(r.len() >= 4, "need several units, got {}", r.len());

    let merge = |a: &MachineStats, b: &MachineStats| {
        let mut sum = a.clone();
        sum += b;
        sum
    };
    // Every counter, not a chosen few: `MachineStats` compares whole.
    let eq = |a: &MachineStats, b: &MachineStats| assert_eq!(a, b);

    // Associativity and commutativity on real unit blocks.
    let ab_c = merge(&merge(&r[0], &r[1]), &r[2]);
    let a_bc = merge(&r[0], &merge(&r[1], &r[2]));
    let ba_c = merge(&merge(&r[1], &r[0]), &r[2]);
    let c_ba = merge(&r[2], &merge(&r[1], &r[0]));
    eq(&ab_c, &a_bc);
    eq(&ab_c, &ba_c);
    eq(&ab_c, &c_ba);

    // aggregate's totals equal a fold in forward, reverse, or
    // interleaved order — the resume path merges in whatever order the
    // journal yields.
    let totals = aggregate(&r, REGION).totals;
    let forward = r
        .iter()
        .fold(MachineStats::default(), |acc, s| merge(&acc, s));
    let reverse = r
        .iter()
        .rev()
        .fold(MachineStats::default(), |acc, s| merge(&acc, s));
    let mut shuffled: Vec<&MachineStats> = r.iter().skip(1).step_by(2).collect();
    shuffled.extend(r.iter().step_by(2));
    let interleaved = shuffled
        .into_iter()
        .fold(MachineStats::default(), |acc, s| merge(&acc, s));
    eq(&totals, &forward);
    eq(&totals, &reverse);
    eq(&totals, &interleaved);
}

/// Everything a sampled sweep reports, minus wall-clock: per-cell
/// counters and the exact bit patterns of every estimate. Two sweeps
/// with equal fingerprints render identical tables and JSON.
fn sweep_fingerprint(sweep: &GridRun) -> String {
    let mut out = String::new();
    for (point, outcome) in sweep.points.iter().zip(&sweep.outcomes) {
        let s = outcome
            .success()
            .unwrap_or_else(|| panic!("cell {point} did not complete: {outcome:?}"));
        let w = &s.result.window;
        out.push_str(&format!(
            "{point} committed={} cycles={} branches={:?} mispredicts={}\n",
            w.committed, w.cycles, w.cond_branches, w.full_mispredicts
        ));
        let r = s.report.as_ref().expect("sampled cells carry a report");
        out.push_str(&format!(
            "  ipc mean={:016x} stderr={:016x} ci={:016x} acc mean={:016x} stderr={:016x} \
             units={} coverage={:016x}\n",
            r.ipc.mean.to_bits(),
            r.ipc.stderr.to_bits(),
            r.ipc.ci_half_width().to_bits(),
            r.accuracy.mean.to_bits(),
            r.accuracy.stderr.to_bits(),
            r.units(),
            r.coverage().to_bits(),
        ));
    }
    out.push_str(&sweep.ci_table(|_| true).expect("a sampled run").to_text());
    out
}

#[test]
fn sampled_sweep_fingerprint_is_identical_across_threads_and_resume() {
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 3,
    };
    let workloads = [
        Workload::from(Benchmark::Compress),
        Workload::from(Benchmark::Li),
    ];
    let points = grid(
        &workloads,
        &[Depth::D20],
        &[PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent],
    );
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let plan = SamplePlan::systematic(2, 500, 1_000);

    let sampled = |threads, res: &Resilience| {
        GridRun::run(
            points.clone(),
            spec,
            threads,
            false,
            &traces,
            res,
            Some(&plan),
        )
    };

    // Thread invariance: the full fingerprint, not just one counter.
    let reference = sweep_fingerprint(&sampled(1, &Resilience::new()));
    for threads in [4, 8] {
        let sweep = sampled(threads, &Resilience::new());
        assert_eq!(
            sweep_fingerprint(&sweep),
            reference,
            "1 vs {threads} threads"
        );
    }

    // Kill + resume: the first run dies mid-cell after 3 units; the
    // resumed run restores the journaled units, finishes the rest, and
    // fingerprints identically to an uninterrupted run.
    let dir = std::env::temp_dir().join(format!("arvi-sampling-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.journal");
    let res = Resilience::new()
        .with_journal(&journal)
        .with_plan(FaultPlan::parse("kill-after 3").unwrap());
    let killed = sampled(1, &res);
    assert!(
        killed.outcomes.iter().any(|o| o.success().is_none()),
        "the kill must leave unfinished cells behind"
    );

    let res = Resilience::new().with_journal(&journal).resuming();
    let resumed = sampled(4, &res);
    assert_eq!(
        sweep_fingerprint(&resumed),
        reference,
        "kill + resume must reproduce the uninterrupted sweep bit for bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One cell's sampled estimate against its full run.
struct CellError {
    /// |IPC error| in percent of the full run's IPC.
    ipc_pct: f64,
    /// |accuracy error| in points.
    acc_pts: f64,
    /// Whether the IPC estimate's 95% CI holds the full run's IPC.
    within_ci: bool,
}

fn cell_error(full: &MachineStats, report: &SampleReport) -> CellError {
    let full_ipc = full.ipc();
    CellError {
        ipc_pct: (report.ipc.mean - full_ipc).abs() / full_ipc * 100.0,
        acc_pts: (report.accuracy.mean - full.cond_branches.rate()).abs() * 100.0,
        within_ci: report.ipc.ci_contains(full_ipc),
    }
}

/// Appends one sampling rate's row to `table` and returns its mean
/// |IPC error| and the fraction of cells its CIs cover.
fn error_row(
    table: &mut Table,
    plan: &SamplePlan,
    units: usize,
    cells: &[CellError],
) -> (f64, f64) {
    let n = cells.len() as f64;
    let mean = |f: fn(&CellError) -> f64| cells.iter().map(f).sum::<f64>() / n;
    let max = |f: fn(&CellError) -> f64| cells.iter().map(f).fold(0.0, f64::max);
    let covered = cells.iter().filter(|c| c.within_ci).count();
    let mean_ipc = mean(|c| c.ipc_pct);
    table.row(vec![
        plan.to_string(),
        units.to_string(),
        format!("{mean_ipc:.2}"),
        format!("{:.2}", max(|c| c.ipc_pct)),
        format!("{covered}/{}", cells.len()),
        format!("{:.1}", mean(|c| c.acc_pts)),
        format!("{:.1}", max(|c| c.acc_pts)),
    ]);
    (mean_ipc, covered as f64 / n)
}

fn error_table() -> Table {
    let headers = [
        "plan",
        "units/cell",
        "mean |IPC err| %",
        "max |IPC err| %",
        "CI covers",
        "mean |acc err| pts",
        "max |acc err| pts",
    ];
    Table::new(headers.map(String::from).to_vec())
}

#[test]
fn sampled_estimates_track_the_full_run_across_suite_and_scenarios() {
    let spec = Spec {
        warmup: 5_000,
        measure: 15_000,
        seed: 42,
    };
    let workloads: Vec<Workload> = Workload::suite()
        .into_iter()
        .chain(Workload::curated_scenarios())
        .collect();
    let points = grid(&workloads, &[Depth::D20], &[PredictorConfig::ArviCurrent]);
    assert_eq!(points.len(), 17);
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let run = |plan: Option<&SamplePlan>| {
        GridRun::run(
            points.clone(),
            spec,
            2,
            false,
            &traces,
            &Resilience::new(),
            plan,
        )
    };
    let full = run(None)
        .results(|_| true)
        .unwrap_or_else(|e| panic!("{e}"));

    let mut table = error_table();
    let mut failures = Vec::new();
    for k in [2u64, 4, 8] {
        // Full functional warming (each unit trains on its whole trace
        // prefix) leaves only the warm-model approximation and sampling
        // variance in the error.
        let plan = SamplePlan::systematic(k, spec.warmup + spec.measure, spec.measure / 40);
        let sampled = run(Some(&plan));
        let reports: Vec<&SampleReport> = points
            .iter()
            .zip(&sampled.outcomes)
            .map(|(point, o)| {
                o.success()
                    .and_then(|s| s.report.as_deref())
                    .unwrap_or_else(|| panic!("{point} has no estimate"))
            })
            .collect();
        let mut cells = Vec::new();
        for ((point, full), report) in points.iter().zip(&full).zip(&reports) {
            let cell = cell_error(&full.window, report);
            // The CI captures sampling variance; a near-zero-variance
            // cell can sit a fraction of a percent outside it on warm-up
            // bias alone.
            if k == 2 && !cell.within_ci && cell.ipc_pct >= 1.0 {
                failures.push(format!(
                    "1-in-2: {point} is outside its CI and {:.2}% off",
                    cell.ipc_pct
                ));
            }
            cells.push(cell);
        }
        let units = reports[0].units();
        let (mean_ipc, cover) = error_row(&mut table, &plan, units, &cells);
        if mean_ipc >= 8.0 {
            failures.push(format!(
                "1-in-{k}: mean |IPC err| {mean_ipc:.2}% is not under 8%"
            ));
        }
        let floor = match k {
            2 => 0.9,
            8 => 0.75,
            _ => 0.0,
        };
        if cover < floor {
            failures.push(format!(
                "1-in-{k}: the CIs cover {cover:.2} of the cells, under {floor}"
            ));
        }
    }
    eprintln!(
        "sampled vs full, 17 cells (20-stage, ARVI current value):\n{}",
        table.to_text()
    );
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn long_window_full_run_lies_inside_the_sampled_ci() {
    // The stationary history-3 scenario: the ratio estimator's
    // assumptions hold there, so the error is the sampling machinery's
    // own bias, not program phase structure.
    let spec = Spec {
        warmup: 20_000,
        measure: 8_000_000,
        seed: 42,
    };
    let workload = Workload::scenario(arvi::synth::find("history-3").expect("curated scenario"));
    let trace = Arc::new(record_trace(&workload, spec));
    let config = PredictorConfig::ArviCurrent;
    let full = run_one_traced(&trace, Depth::D20, config, spec);
    let plan = SamplePlan::systematic(8, 200_000, 200_000);
    let params = SimParams::for_depth(Depth::D20);
    let report = sample_region(
        &trace,
        &params,
        config,
        &plan,
        spec.warmup,
        spec.measure,
        spec.seed,
        2,
    )
    .expect("sampling the long window");

    let cell = cell_error(&full.window, &report);
    let mut table = error_table();
    error_row(
        &mut table,
        &plan,
        report.units(),
        std::slice::from_ref(&cell),
    );
    eprintln!(
        "sampled vs full, history-3 over 8M instructions:\n{}",
        table.to_text()
    );
    assert!(
        cell.within_ci,
        "full-run IPC {:.4} is outside the sampled CI {:.4}..{:.4}",
        full.ipc(),
        report.ipc.ci_lo(),
        report.ipc.ci_hi()
    );
    assert!(
        cell.ipc_pct < 2.0,
        "|IPC err| {:.2}% is not under 2%",
        cell.ipc_pct
    );
}
