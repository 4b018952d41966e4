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
//! Flags are parsed once, before any work, and the run goes as
//! [`arvi_bench::run_figures`] describes for every run binary. A depth
//! other than `20` (the default), `40` or `60`, an unknown flag, a flag
//! without its value or a repeated flag (only `--scenario` and
//! `--scenario-file` repeat) exits 2 with nothing on stdout and no file
//! touched; the `--events-out` and `--metrics-out` sinks open only for
//! a run that does work, so a list-only run leaves them alone too.
//!
//! The grid is workloads × all four configurations at the chosen depth.
//! Its `--obs-grid` rollup is the input for `obs_report`'s
//! ARVI-vs-baseline attribution diff and its `--cell` view of the
//! headline ARVI current-value cells, which `--trace-cycles` traces.

use arvi_bench::{grid, outln, run_figures};
use arvi_sim::PredictorConfig;

fn main() {
    run_figures(
        true,
        |workloads, depth| grid(workloads, &[depth], &PredictorConfig::all()),
        |flags, workloads, run| {
            let depth = flags.depth;
            let data = run.fig6_data(workloads, depth)?;
            if let (Some(plan), Some(ci)) = (&flags.plan, run.ci_table(|_| true)) {
                outln!(
                    "== Sampled estimates (plan {plan}): 95% confidence intervals ==\n{}",
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
            outln!(
                "headline: ARVI current value mean normalized IPC = {:.3} (paper: 1.126 at 20 stages, 1.156 at 60)",
                data.mean_normalized_ipc(PredictorConfig::ArviCurrent)
            );
            outln!(
                "          ARVI perfect value mean normalized IPC = {:.3} (paper: 1.251 at 20 stages)",
                data.mean_normalized_ipc(PredictorConfig::ArviPerfect)
            );
            Ok(())
        },
    );
}
