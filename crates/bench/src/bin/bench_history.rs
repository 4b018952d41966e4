//! Bench-trajectory analytics: tracks every committed perfbench
//! end-to-end median (as `<workload>/<metric>`) and every guardrail
//! metric of the older reports across the checked-in `BENCH_PR<N>.json`
//! reports, and flags metrics whose latest change moved outside their
//! noise band. A metric the newest report no longer carries is shown as
//! retired and never flags. The band comes from the metric's own
//! history, so the view tells slow drift and a one-PR step apart from
//! host jitter; it advises and never gates.
//!
//! Prints the markdown trend table to stdout; `--out` also writes the
//! JSON form.
//!
//! Usage: `bench_history [--dir DIR] [--out FILE]`
//!
//! Default: `--dir .` (the repo root, where the reports are checked
//! in).
//!
//! An unknown or repeated flag, a positional, or a flag without its
//! value (or with another flag in its place) exits 2, writing no file.
//!
//! Exit codes: 2 on usage/parse errors, 1 when the output cannot be
//! written. A history of zero or one reports is not an error: the table
//! skeleton still prints (with an advisory on stderr) and the exit code
//! stays 0, so the CI step works from the very first PR.

use std::path::Path;

use arvi_bench::{
    bench_history, load_bench_history, out, usage_error, write_text, CommandLine, FlagTable, Takes,
};

/// Every flag `bench_history` accepts; each takes a value.
const FLAGS: &FlagTable = &[("--dir", Takes::Value), ("--out", Takes::Value)];

fn main() {
    let line = CommandLine::from_env(FLAGS, 0);
    let dir = line.value("--dir").unwrap_or(".");
    let files = load_bench_history(Path::new(dir)).unwrap_or_else(|e| usage_error(e));
    // A short history is not an error: a fresh checkout (or a repo
    // whose reports were pruned) still gets the table skeleton and an
    // advisory, exit 0, so CI steps can run unconditionally.
    if files.len() < 2 {
        match files.len() {
            0 => eprintln!(
                "advisory: no BENCH_PR<N>.json files under {dir}; \
                 nothing to trend yet (need two reports for a delta)"
            ),
            _ => eprintln!(
                "advisory: only one report ({}) under {dir}; \
                 trends need two reports for a delta",
                files[0].file
            ),
        }
    }

    let report = bench_history(&files);
    out!("{}", report.to_markdown());
    eprintln!(
        "bench_history: {} reports (PR{}..PR{}), {} metrics, {} flagged",
        files.len(),
        report.prs.first().unwrap_or(&0),
        report.prs.last().unwrap_or(&0),
        report.trends.len(),
        report.regressions().count()
    );
    if let Some(out) = line.value("--out") {
        if let Err(e) = write_text(Path::new(out), &report.to_json().render()) {
            eprintln!("error: cannot write trend report: {e}");
            std::process::exit(1);
        }
        eprintln!("trend JSON written to {out}");
    }
}
