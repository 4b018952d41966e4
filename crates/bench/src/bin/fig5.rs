//! Regenerates Figure 5: (a) load-branch fraction per workload across
//! pipeline depths; (b) prediction accuracy of calculated vs load
//! branches (20-stage, ARVI current value).
//!
//! Usage: `fig5 [--quick] [--threads N] [--trace-dir DIR]
//!              [--sample K:WARMUP:DETAIL]
//!              [--scenario NAME_OR_SPEC]... [--scenario-file FILE]
//!              [--journal FILE] [--resume] [--fault-plan FILE]
//!              [--events-out FILE] [--metrics-out FILE]
//!              [--obs-grid FILE [--trace-cycles START:END]]
//!              [--list-scenarios] [--list-benchmarks]`
//!
//! Flags are parsed once, before any work, and the run goes as
//! [`arvi_bench::run_figures`] describes for every run binary. A
//! positional, an unknown flag, a flag without its value or a repeated
//! flag (only `--scenario` and `--scenario-file` repeat) exits 2 with
//! nothing on stdout and no file touched; the `--events-out` and
//! `--metrics-out` sinks open only for a run that does work, so a
//! list-only run leaves them alone too.
//!
//! The grid is workloads × all pipeline depths, ARVI current value.
//! `obs_report --grid FILE --cell WORKLOAD` prints a workload's Figure
//! 5(b) cell (20-stage, ARVI current value) from the `--obs-grid`
//! rollup, and `--trace-cycles` traces those anchor cells.

use arvi_bench::{grid, outln, run_figures};
use arvi_sim::{Depth, PredictorConfig};

fn main() {
    run_figures(
        false,
        |workloads, _| grid(workloads, &Depth::all(), &[PredictorConfig::ArviCurrent]),
        |flags, workloads, run| {
            let (fig5a, fig5b) = run.fig5_tables(workloads)?;
            if let (Some(plan), Some(ci)) = (&flags.plan, run.ci_table(|_| true)) {
                outln!(
                    "== Sampled estimates (plan {plan}): 95% confidence intervals ==\n{}",
                    ci.to_text()
                );
            }
            outln!(
                "== Figure 5(a): fraction of load branches ==\n{}",
                fig5a.to_text()
            );
            outln!(
                "== Figure 5(b): prediction accuracy, calculated vs load branches (20-stage, ARVI current value) ==\n{}",
                fig5b.to_text()
            );
            Ok(())
        },
    );
}
