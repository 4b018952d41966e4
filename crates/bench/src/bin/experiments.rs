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
//! Flags are parsed once, before any work, and the run goes as
//! [`arvi_bench::run_figures`] describes for every run binary. A
//! positional, an unknown flag, a flag without its value or a repeated
//! flag (only `--scenario` and `--scenario-file` repeat) exits 2 with
//! nothing on stdout and no file touched; the `--events-out` and
//! `--metrics-out` sinks open only for a run that does work, so a
//! list-only run leaves them alone too.
//!
//! Every `(workload, depth, config)` cell is simulated once: the
//! binary runs one sweep over `workloads × all depths × all
//! configurations` and assembles Figure 5 from its ARVI-current cells
//! and each Figure 6 depth from that depth's slice. A failed cell marks
//! incomplete only the figures that contain it; the others still print,
//! the rollup is still written, and the run exits 3 at the end. The
//! `--obs-grid` rollup feeds `obs_report`'s attribution diff (per
//! workload and depth) and its `--cell` view of the 20-stage ARVI
//! current-value cells, which `--trace-cycles` traces.

use arvi_bench::{fig5_cell, grid, outln, paper_tables, run_figures, SweepIncomplete};
use arvi_sim::{Depth, PredictorConfig};

fn main() {
    // A failed cell marks its figures incomplete; the others still
    // print, the rollup is still written, and the run exits 3 at the end
    // — one bad cell costs one re-run with --resume, not the whole
    // evaluation.
    let mut incomplete: Vec<SweepIncomplete> = Vec::new();
    // One recording per workload, one sweep over the whole grid: every
    // figure below is a slice of it.
    run_figures(
        false,
        |workloads, _| grid(workloads, &Depth::all(), &PredictorConfig::all()),
        |flags, workloads, run| {
            // The paper's configuration tables describe the
            // benchmark-suite evaluation; skip them when a scenario grid
            // replaces the suite (the `tables` binary prints them on
            // demand).
            if flags.workloads.is_none() {
                for (title, table) in paper_tables() {
                    outln!("== {title} ==\n{}\n", table.to_text());
                }
            }
            match run.fig5_tables(workloads) {
                Ok((fig5a, fig5b)) => {
                    if let (Some(plan), Some(ci)) = (&flags.plan, run.ci_table(fig5_cell)) {
                        outln!(
                            "== Figure 5 sampled estimates (plan {plan}): 95% confidence intervals ==\n{}",
                            ci.to_text()
                        );
                    }
                    outln!(
                        "== Figure 5(a): fraction of load branches ==\n{}",
                        fig5a.to_text()
                    );
                    outln!(
                        "== Figure 5(b): accuracy, calculated vs load branches (20-stage, ARVI current value) ==\n{}",
                        fig5b.to_text()
                    );
                }
                Err(e) => incomplete.push(e),
            }
            let mut headlines = Vec::new();
            for depth in Depth::all() {
                let data = match run.fig6_data(workloads, depth) {
                    Ok(data) => data,
                    Err(e) => {
                        incomplete.push(e);
                        continue;
                    }
                };
                if let (Some(plan), Some(ci)) = (&flags.plan, run.ci_table(|p| p.depth == depth)) {
                    outln!(
                        "== Figure 6 sampled estimates, {depth} pipeline (plan {plan}): 95% confidence intervals ==\n{}",
                        ci.to_text()
                    );
                }
                outln!(
                    "== Figure 6: prediction accuracy, {depth} pipeline ==\n{}",
                    data.accuracy_table().to_text()
                );
                outln!(
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
            outln!("== Headline: mean normalized IPC over the suite ==");
            outln!("depth      current  load-back  perfect   (paper: current 1.126@20, 1.156@60; perfect 1.251@20)");
            for (depth, cur, lb, perf) in headlines {
                outln!("{depth:<10} {cur:<8.3} {lb:<10.3} {perf:<8.3}");
            }
            Ok(())
        },
    );
    if !incomplete.is_empty() {
        for e in &incomplete {
            eprintln!("{e}");
        }
        std::process::exit(3);
    }
}
