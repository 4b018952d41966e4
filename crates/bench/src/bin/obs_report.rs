//! Reads a grid rollup back. By default: differential site attribution,
//! per workload and depth, the branch PCs ARVI *fixes* and *breaks*
//! versus the best baseline configuration. With `--cell WORKLOAD`: that
//! workload's anchor cell (ARVI current value at the rollup's shallowest
//! depth) as counter tables and a top-`--top` site table.
//!
//! Consumes an `obs_grid.json` produced by any experiment binary run
//! with `--obs-grid`; the attribution diff needs a grid that sweeps both
//! ARVI and baseline configurations (e.g. `fig6`). Prints markdown to
//! stdout; `--out` additionally writes the attribution's JSON form.
//!
//! Usage: `obs_report --grid obs_grid.json [--top N] [--out FILE]`
//!        `obs_report --grid obs_grid.json --cell WORKLOAD [--top N]`
//!
//! An unknown or repeated flag, a positional, a flag without its value
//! (or with another flag in its place), a `--top` count that is not a
//! positive number, `--out` with `--cell`, a workload the rollup does
//! not hold, or a grid file that cannot be read or parsed exits 2
//! before any output, writing no file. Exit code 1: the output file
//! cannot be written.

use std::path::Path;

use arvi_bench::{
    attribution_diff, cell_view, out, read_json, usage_error, write_text, CommandLine, FlagTable,
    Takes,
};

/// Every flag `obs_report` accepts; each takes a value.
const FLAGS: &FlagTable = &[
    ("--grid", Takes::Value),
    ("--top", Takes::Value),
    ("--out", Takes::Value),
    ("--cell", Takes::Value),
];

const USAGE: &str = "usage: obs_report --grid obs_grid.json [--top N] [--out FILE]\n       \
                     obs_report --grid obs_grid.json --cell WORKLOAD [--top N]";

fn main() {
    let line = CommandLine::from_env(FLAGS, 0);
    let grid_path = line.value("--grid").unwrap_or_else(|| usage_error(USAGE));
    let top = match line.value("--top") {
        None => 10,
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| usage_error(format!("--top expects a positive count, got `{n}`"))),
    };
    let (out, cell) = (line.value("--out"), line.value("--cell"));
    if out.is_some() && cell.is_some() {
        usage_error("--out writes the attribution report, which --cell replaces");
    }

    let grid = read_json(Path::new(grid_path)).unwrap_or_else(|e| usage_error(e));
    let in_grid = |e: String| format!("{grid_path}: {e}");
    if let Some(workload) = cell {
        let view = cell_view(&grid, workload, top).unwrap_or_else(|e| usage_error(in_grid(e)));
        out!("{view}");
        return;
    }
    let attribution = attribution_diff(&grid, top).unwrap_or_else(|e| usage_error(in_grid(e)));
    out!("{}", attribution.to_markdown());
    if let Some(out) = out {
        let json = attribution.to_json().render();
        if let Err(e) = write_text(Path::new(out), &json) {
            eprintln!("error: cannot write attribution report: {e}");
            std::process::exit(1);
        }
        eprintln!("attribution JSON written to {out}");
    }
}
