//! Regenerates Figure 5: (a) load-branch fraction per workload across
//! pipeline depths; (b) prediction accuracy of calculated vs load
//! branches (20-stage, ARVI current value).
//!
//! Usage: `fig5 [--quick] [--threads N] [--trace-dir DIR]
//!              [--sample K:WARMUP:DETAIL]
//!              [--scenario NAME_OR_SPEC]... [--scenario-file FILE]
//!              [--journal FILE] [--resume] [--fault-plan FILE]
//!              [--events-out FILE] [--metrics-out FILE]
//!              [--probe counters,sites,trace] [--obs-out FILE]
//!              [--obs-grid FILE] [--trace-cycles START:END] [--top-sites N]
//!              [--list-scenarios] [--list-benchmarks]`
//!
//! A positional argument or an unknown flag exits 2 before any work,
//! with nothing on stdout.
//!
//! `--obs-grid FILE` attaches the counter and site probes to every cell
//! of the figure's grid (workloads × all pipeline depths, ARVI current
//! value) as the sweep runs — on the fault-isolated runner, so each cell
//! is simulated once — and writes the merged per-`(workload, config)`
//! rollup.
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
//! recording: 1-in-`K` detail windows of `DETAIL` instructions, each
//! preceded by `WARMUP` instructions of functional warm-up, fanned out
//! per unit across all workers. An extra per-cell table reports the
//! 95% confidence intervals. Composes with the fault-tolerance and
//! telemetry flags, which act on each unit as they do on a whole cell
//! (units are journaled and resumed individually, `kill-after` counts
//! units).

use arvi_bench::{
    grid, handle_list_flags, maybe_obs_grid, maybe_obs_pass, run_flags_from_args,
    workloads_from_args, GridRun, Spec, TraceSet,
};
use arvi_sim::{Depth, PredictorConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if handle_list_flags(&args) {
        return;
    }
    let flags = run_flags_from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let spec = Spec::from_args(&args);
    let threads = flags.threads;
    let workloads = workloads_from_args(&args);
    let res = &flags.res;
    let traces =
        TraceSet::record_resilient(&workloads, spec, threads, flags.trace_dir.as_deref(), res);
    let run = GridRun::run(
        grid(&workloads, &Depth::all(), &[PredictorConfig::ArviCurrent]),
        spec,
        threads,
        true,
        &traces,
        res,
        flags.plan.as_ref(),
    );
    let (fig5a, fig5b) = run.fig5_tables(&workloads).unwrap_or_else(|incomplete| {
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
        "== Figure 5(a): fraction of load branches ==\n{}",
        fig5a.to_text()
    );
    println!(
        "== Figure 5(b): prediction accuracy, calculated vs load branches (20-stage, ARVI current value) ==\n{}",
        fig5b.to_text()
    );
    // The anchor report: Figure 5(b)'s cells (20-stage, ARVI current
    // value), probed in-pass (`--probe`, `--trace-cycles`).
    maybe_obs_pass(flags.obs.as_ref(), &run);
    // The figure's depth sweep, probed in-pass and merged (`--obs-grid`).
    maybe_obs_grid(flags.obs.as_ref(), run, spec, res.telemetry.as_deref());
}
