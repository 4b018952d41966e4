//! Differential site attribution over a merged grid rollup: per
//! workload, the branch PCs ARVI *fixes* and *breaks* versus the best
//! baseline configuration.
//!
//! Consumes an `obs_grid.json` produced by `fig6 --obs-grid` (or any
//! experiment binary run with `--obs-grid` over a grid that sweeps both
//! ARVI and baseline configurations). Prints the markdown report to
//! stdout; `--out` additionally writes the JSON form.
//!
//! Usage: `obs_report --grid obs_grid.json [--top N] [--out FILE]`
//!
//! An unknown flag, a positional argument, a flag without its value (or
//! with another flag in its place), a bad `--top` count, or a grid file
//! that cannot be read or parsed exits 2 before any output, writing no
//! file. Exit code 1: the output file cannot be written.

use std::path::Path;

use arvi_bench::{attribution_diff, check_flags, flag_value, read_json, write_text};

/// Every flag `obs_report` accepts; each takes a value.
const FLAGS: &[(&str, bool)] = &[("--grid", true), ("--top", true), ("--out", true)];

fn fail(e: &str) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag| flag_value(&args, flag).map(|v| v.map(String::as_str));
    let (grid_path, top, out) = check_flags(&args, FLAGS)
        .and_then(|()| {
            let grid = value("--grid")?
                .ok_or("usage: obs_report --grid obs_grid.json [--top N] [--out FILE]")?;
            let top = match value("--top")? {
                None => 10,
                Some(n) => n
                    .parse::<usize>()
                    .map_err(|_| format!("--top expects a count, got `{n}`"))?,
            };
            Ok((grid, top, value("--out")?))
        })
        .unwrap_or_else(|e: String| fail(&e));

    let grid = read_json(Path::new(grid_path)).unwrap_or_else(|e| fail(&e));
    let attribution =
        attribution_diff(&grid, top).unwrap_or_else(|e| fail(&format!("{grid_path}: {e}")));

    print!("{}", attribution.to_markdown());
    if let Some(out) = out {
        let json = attribution.to_json().render();
        if let Err(e) = write_text(Path::new(out), &json) {
            eprintln!("error: cannot write attribution report: {e}");
            std::process::exit(1);
        }
        eprintln!("attribution JSON written to {out}");
    }
}
