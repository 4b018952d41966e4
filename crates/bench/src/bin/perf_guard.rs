//! CI perf-regression guardrail: compares a fresh `perf_report` JSON
//! against the checked-in `BENCH_BASELINE.json` and fails the build on
//! regressions beyond the per-metric tolerance band.
//!
//! The baseline file carries, per metric, the reference value, the
//! direction that counts as better, and warn/fail thresholds in
//! percent. The absolute metrics (`*_ns_*`) depend on the host CPU, so
//! their bands are generous: they catch order-of-magnitude mistakes (a
//! debug build, an accidentally quadratic loop), not noise. The sampled
//! speedup and IPC error are measured within one process. Whether the
//! simulator's figures changed is not this gate's question: the golden
//! digests (`tests/golden_digests.rs`) pin them.
//!
//! Prints a markdown delta table (pipe it into `$GITHUB_STEP_SUMMARY`
//! in CI); every gating metric is also named on stderr with its band
//! and both values. Exit code 1 = at least one metric beyond its fail
//! band. The comparison itself lives in `arvi_bench::guard`.
//!
//! Usage: `perf_guard --report PATH [--baseline PATH] [--trends PATH]`
//!
//! `--trends` takes a `bench_history --out` JSON and appends its
//! regression flags to the summary as an advisory section — trends
//! never gate (host jitter across PRs is not this gate's evidence), the
//! baseline comparison does.
//!
//! An unknown flag, a positional argument, a flag without its value, a
//! missing `--report`, or an input file that cannot be read or parsed
//! exits 2 before any comparison.
//!
//! Regenerate the baseline after an intentional perf change:
//! `cargo run --release -p arvi-bench --bin perf_report -- --quick`,
//! then copy the `guardrail` values into `BENCH_BASELINE.json`.

use std::path::Path;

use arvi_bench::{check_flags, evaluate_guardrail, flag_value, read_json, trend_flags};

/// Every flag `perf_guard` accepts; each takes a value.
const FLAGS: &[(&str, bool)] = &[("--report", true), ("--baseline", true), ("--trends", true)];

fn fail(e: &str) -> ! {
    eprintln!("perf_guard: {e}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag| flag_value(&args, flag).map(|v| v.map(String::as_str));
    let (report_path, baseline_path, trends_path) = check_flags(&args, FLAGS)
        .and_then(|()| {
            let report = value("--report")?
                .ok_or("usage: perf_guard --report PATH [--baseline PATH] [--trends PATH]")?;
            Ok((report, value("--baseline")?, value("--trends")?))
        })
        .unwrap_or_else(|e: String| fail(&e));
    let baseline_path = baseline_path.unwrap_or("BENCH_BASELINE.json");
    let load = |path: &str| read_json(Path::new(path)).unwrap_or_else(|e| fail(&e));

    let report = load(report_path);
    let baseline = load(baseline_path);
    let trends = trends_path.map(|path| (path, load(path)));
    let outcome = evaluate_guardrail(&report, &baseline)
        .unwrap_or_else(|e| fail(&format!("{baseline_path}: {e}")));

    print!("{}", outcome.to_markdown(report_path, baseline_path));
    if let Some((trends_path, trends)) = &trends {
        let flags = trend_flags(trends);
        println!("\n### Trend advisories ({trends_path}, non-gating)\n");
        if flags.is_empty() {
            println!("No metric regressed beyond its noise band across PRs.");
        } else {
            for flag in flags {
                println!("- {flag}");
            }
        }
    }
    if outcome.gates() {
        for failure in outcome.failures() {
            eprintln!("perf_guard: {failure}");
        }
        std::process::exit(1);
    }
}
