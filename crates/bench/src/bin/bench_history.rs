//! Bench-trajectory analytics: tracks every guardrail metric and every
//! committed perfbench end-to-end median (as `<workload>/<metric>`)
//! across the checked-in `BENCH_PR<N>.json` reports and flags metrics
//! whose latest change moved outside their noise band. A metric the
//! newest report no longer carries is shown as retired and never flags.
//!
//! Complements `perf_guard` (which gates one report against the static
//! baseline): the trend view catches slow drift and tells "this PR
//! regressed it" apart from host jitter, using a band derived from the
//! metric's own history. Non-gating by itself — feed the JSON to
//! `perf_guard --trends` for an advisory section in the gate summary.
//!
//! Prints the markdown trend table to stdout; `--out` writes the JSON
//! form `perf_guard --trends` consumes.
//!
//! Usage: `bench_history [--dir DIR] [--baseline FILE] [--out FILE]`
//!
//! Defaults: `--dir .` (the repo root, where the reports are checked
//! in), `--baseline <dir>/BENCH_BASELINE.json` when present.
//!
//! An unknown flag, a positional, or a flag without its value (or with
//! another flag in its place) exits 2 before any work, writing no file.
//!
//! Exit codes: 2 on usage/parse errors, 1 when the output cannot be
//! written. A history of zero or one reports is not an error: the table
//! skeleton still prints (with an advisory on stderr) and the exit code
//! stays 0, so the CI step works from the very first PR.

use std::path::Path;

use arvi_bench::{
    bench_history, check_flags, flag_value, load_bench_history, read_json, write_text,
};

/// Every flag `bench_history` accepts; each takes a value.
const FLAGS: &[(&str, bool)] = &[("--dir", true), ("--baseline", true), ("--out", true)];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag| flag_value(&args, flag).map(|v| v.map(String::as_str));
    let (dir, baseline_arg, out) = check_flags(&args, FLAGS)
        .and_then(|()| Ok((value("--dir")?, value("--baseline")?, value("--out")?)))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let dir = dir.unwrap_or(".");
    let files = load_bench_history(Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
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

    let baseline_path = baseline_arg
        .map(String::from)
        .unwrap_or_else(|| format!("{dir}/BENCH_BASELINE.json"));
    // The default baseline is best-effort; an explicit one must load.
    let baseline = (baseline_arg.is_some() || Path::new(&baseline_path).exists()).then(|| {
        read_json(Path::new(&baseline_path)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    });

    let report = bench_history(&files, baseline.as_ref());
    print!("{}", report.to_markdown());
    eprintln!(
        "bench_history: {} reports (PR{}..PR{}), {} metrics, {} flagged",
        files.len(),
        report.prs.first().unwrap_or(&0),
        report.prs.last().unwrap_or(&0),
        report.trends.len(),
        report.regressions().count()
    );
    if let Some(out) = out {
        if let Err(e) = write_text(Path::new(out), &report.to_json().render()) {
            eprintln!("error: cannot write trend report: {e}");
            std::process::exit(1);
        }
        eprintln!("trend JSON written to {out}");
    }
}
