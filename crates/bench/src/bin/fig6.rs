//! Regenerates Figure 6 for one pipeline depth: prediction accuracy
//! (a/c/e) and normalized IPC (b/d/f) for the four configurations.
//!
//! Usage: `fig6 [20|40|60] [--quick] [--threads N] [--trace-dir DIR]
//!              [--sample K:WARMUP:DETAIL]
//!              [--scenario NAME_OR_SPEC]... [--scenario-file FILE]
//!              [--journal FILE] [--resume] [--fault-plan FILE]
//!              [--events-out FILE] [--metrics-out FILE]
//!              [--obs-grid FILE [--trace-cycles START:END]]
//!              [--list-scenarios] [--list-benchmarks]`
//!
//! A depth other than `20` (the default), `40` or `60`, or an unknown
//! flag, exits 2 before any work, with nothing on stdout.
//!
//! `--obs-grid FILE` attaches the counter and site probes to every cell
//! of the figure's grid (workloads × all four configurations at the
//! chosen depth) as the sweep runs, so each cell is simulated once, and
//! writes the rollup (one group per cell), the input for `obs_report`'s
//! ARVI-vs-baseline attribution diff and its `--cell` view of the
//! headline ARVI current-value cells. `--trace-cycles START:END`
//! re-runs those cells after the sweep up to cycle END and traces the
//! window into `<FILE minus extension>.trace.json`. `--obs-grid` with
//! `--sample` exits 2 before any work: sampling units run unprobed.
//!
//! Runs the benchmark suite by default; any `--scenario`/
//! `--scenario-file` flag switches the grid to the named synthetic
//! scenarios instead. Every cell replays its workload's recording and is
//! fault-isolated: cell failures, a workload without a usable recording
//! among them, are reported (exit code 3) instead of aborting, and with the
//! fault-tolerance flags `--resume` completes an interrupted run from
//! its journal.
//!
//! `--sample K:WARMUP:DETAIL` (or `stratified:K:WARMUP:DETAIL`) switches
//! every cell to SMARTS-style interval sampling over the shared
//! recording (per-unit parallelism, journaled units, and an extra
//! per-cell 95%-confidence-interval table) — see the `fig5` docs.

use arvi_bench::{
    fig6_flags_from_args, grid, handle_list_flags, maybe_obs_grid, workloads_from_args, GridRun,
    Spec, TraceSet,
};
use arvi_sim::PredictorConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, depth) = fig6_flags_from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if handle_list_flags(&args) {
        return;
    }
    let spec = Spec::from_args(&args);
    let threads = flags.threads;
    let workloads = workloads_from_args(&args);
    let res = &flags.res;
    let traces =
        TraceSet::record_resilient(&workloads, spec, threads, flags.trace_dir.as_deref(), res);
    let run = GridRun::run(
        grid(&workloads, &[depth], &PredictorConfig::all()),
        spec,
        threads,
        true,
        &traces,
        res,
        flags.plan.as_ref(),
    );
    let data = run
        .fig6_data(&workloads, depth)
        .unwrap_or_else(|incomplete| {
            eprintln!("{incomplete}");
            std::process::exit(3);
        });
    if let (Some(plan), Some(ci)) = (&flags.plan, run.ci_table(|_| true)) {
        println!(
            "== Sampled estimates (plan {plan}): 95% confidence intervals ==\n{}",
            ci.to_text()
        );
    }
    println!(
        "== Figure 6: prediction accuracy, {depth} pipeline ==\n{}",
        data.accuracy_table().to_text()
    );
    println!(
        "== Figure 6: normalized IPC, {depth} pipeline ==\n{}",
        data.normalized_ipc_table().to_text()
    );
    println!(
        "headline: ARVI current value mean normalized IPC = {:.3} (paper: 1.126 at 20 stages, 1.156 at 60)",
        data.mean_normalized_ipc(PredictorConfig::ArviCurrent)
    );
    println!(
        "          ARVI perfect value mean normalized IPC = {:.3} (paper: 1.251 at 20 stages)",
        data.mean_normalized_ipc(PredictorConfig::ArviPerfect)
    );
    // The figure's full grid, probed in-pass (`--obs-grid`).
    maybe_obs_grid(
        flags.obs.as_ref(),
        run,
        spec,
        &traces,
        threads,
        res.telemetry.as_deref(),
    );
}
