//! Runs the complete evaluation: Tables 1-4, Figure 5, and Figure 6 at
//! all three pipeline depths, printing every artifact the paper reports.
//!
//! Usage: `experiments [--quick] [--threads N] [--trace-dir DIR]
//!                     [--sample K:WARMUP:DETAIL]
//!                     [--scenario NAME_OR_SPEC]... [--scenario-file FILE]
//!                     [--journal FILE] [--resume] [--fault-plan FILE]
//!                     [--events-out FILE] [--metrics-out FILE]
//!                     [--obs-grid FILE [--trace-cycles START:END]]
//!                     [--list-scenarios] [--list-benchmarks]`
//!
//! A positional argument or an unknown flag exits 2 before any work,
//! with nothing on stdout.
//!
//! Every `(workload, depth, config)` cell is simulated once: the
//! binary runs one sweep over `workloads × all depths × all
//! configurations` and assembles Figure 5 from its ARVI-current cells
//! and each Figure 6 depth from that depth's slice. A failed cell marks
//! incomplete only the figures that contain it.
//!
//! `--obs-grid FILE` attaches the counter and site probes to every cell
//! of that sweep as it runs and writes the rollup, one group per cell —
//! the input for `obs_report`'s attribution diff (per workload and
//! depth) and its `--cell` view of the 20-stage ARVI current-value
//! cells, which `--trace-cycles START:END` re-runs after the sweep up
//! to cycle END and traces into `<FILE minus extension>.trace.json`.
//! `--obs-grid` with `--sample` exits 2 before any work: sampling units
//! run unprobed. `--events-out` / `--metrics-out` stream structured
//! sweep events (JSONL) and a Prometheus-style metrics snapshot, in
//! every mode.
//!
//! Each workload is functionally emulated exactly once (per run — or
//! once ever with `--trace-dir`), then every figure's grid replays the
//! shared recording. Runs the benchmark suite by default; any
//! `--scenario`/`--scenario-file` flag switches the grids to the named
//! synthetic scenarios instead.
//!
//! Every cell is fault-isolated: cell failures, a workload without a
//! usable recording among them, are reported at the end (exit code 3)
//! instead of aborting. With `--journal`, completed cells
//! are journaled as they finish, and `--resume` completes an
//! interrupted run from its journal.
//!
//! `--sample K:WARMUP:DETAIL` (or `stratified:K:WARMUP:DETAIL`) switches
//! every grid to SMARTS-style interval sampling over the shared
//! recordings (per-unit parallelism, journaled units, per-cell
//! 95%-confidence-interval tables) — see the `fig5` docs.

use arvi_bench::{
    fig5_cell, grid, handle_list_flags, maybe_obs_grid, paper_tables, run_flags_from_args,
    workloads_from_args, GridRun, Spec, SweepIncomplete, TraceSet,
};
use arvi_sim::{Depth, PredictorConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = run_flags_from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if handle_list_flags(&args) {
        return;
    }
    let threads = flags.threads;
    let suite_mode = !args
        .iter()
        .any(|a| a == "--scenario" || a == "--scenario-file");
    let workloads = workloads_from_args(&args);
    let spec = Spec::from_args(&args);

    // The paper's configuration tables describe the benchmark-suite
    // evaluation; skip them when a scenario grid replaces the suite
    // (the `tables` binary prints them on demand).
    if suite_mode {
        for (title, table) in paper_tables() {
            println!("== {title} ==\n{}\n", table.to_text());
        }
    }

    // A failed cell marks its figures incomplete; the others still
    // print, and the run exits 3 at the end — one bad cell costs one
    // re-run with --resume, not the whole evaluation.
    let mut incomplete: Vec<SweepIncomplete> = Vec::new();

    // One recording per workload, one sweep over the whole grid: every
    // figure below is a slice of it.
    let res = &flags.res;
    let traces =
        TraceSet::record_resilient(&workloads, spec, threads, flags.trace_dir.as_deref(), res);
    let run = GridRun::run(
        grid(&workloads, &Depth::all(), &PredictorConfig::all()),
        spec,
        threads,
        true,
        &traces,
        res,
        flags.plan.as_ref(),
    );

    match run.fig5_tables(&workloads) {
        Ok((fig5a, fig5b)) => {
            if let (Some(plan), Some(ci)) = (&flags.plan, run.ci_table(fig5_cell)) {
                println!(
                    "== Figure 5 sampled estimates (plan {plan}): 95% confidence intervals ==\n{}",
                    ci.to_text()
                );
            }
            println!(
                "== Figure 5(a): fraction of load branches ==\n{}",
                fig5a.to_text()
            );
            println!(
                "== Figure 5(b): accuracy, calculated vs load branches (20-stage, ARVI current value) ==\n{}",
                fig5b.to_text()
            );
        }
        Err(e) => incomplete.push(e),
    }

    let mut headlines = Vec::new();
    for depth in Depth::all() {
        let data = match run.fig6_data(&workloads, depth) {
            Ok(data) => data,
            Err(e) => {
                incomplete.push(e);
                continue;
            }
        };
        if let (Some(plan), Some(ci)) = (&flags.plan, run.ci_table(|p| p.depth == depth)) {
            println!(
                "== Figure 6 sampled estimates, {depth} pipeline (plan {plan}): 95% confidence intervals ==\n{}",
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
        headlines.push((
            depth,
            data.mean_normalized_ipc(PredictorConfig::ArviCurrent),
            data.mean_normalized_ipc(PredictorConfig::ArviLoadBack),
            data.mean_normalized_ipc(PredictorConfig::ArviPerfect),
        ));
    }

    println!("== Headline: mean normalized IPC over the suite ==");
    println!("depth      current  load-back  perfect   (paper: current 1.126@20, 1.156@60; perfect 1.251@20)");
    for (depth, cur, lb, perf) in headlines {
        println!("{depth:<10} {cur:<8.3} {lb:<10.3} {perf:<8.3}");
    }

    // The full evaluation grid, probed in-pass (`--obs-grid`).
    maybe_obs_grid(
        flags.obs.as_ref(),
        run,
        spec,
        &traces,
        threads,
        res.telemetry.as_deref(),
    );

    if !incomplete.is_empty() {
        for e in &incomplete {
            eprintln!("{e}");
        }
        std::process::exit(3);
    }
}
