//! Branch anatomy: per-static-branch profile of a workload under the ARVI
//! configuration — which branches ARVI wins and their class mix.
//!
//! The table comes from a [`SiteProbe`] on the machine, so it covers the
//! whole run, warm-up included, as the `--obs-grid` rollup does. No probe
//! hook carries the BVIT signature, so the table has no per-site
//! signature count.
//!
//! Run with: `cargo run --release --example branch_anatomy [benchmark]`

use arvi::isa::Emulator;
use arvi::obs::SiteProbe;
use arvi::sim::{Depth, Machine, PredictorConfig, SimParams};
use arvi::workloads::Benchmark;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "m88ksim".into());
    let bench = Benchmark::from_name(&name).expect("unknown benchmark");
    let mut m = Machine::with_probe(
        Emulator::new(bench.program(42)),
        SimParams::for_depth(Depth::D20),
        PredictorConfig::ArviCurrent,
        SiteProbe::new(),
    );
    m.run_until_committed(450_000);

    let mut rows: Vec<_> = m.probe().iter().collect();
    rows.sort_by_key(|p| std::cmp::Reverse(p.total - p.final_correct));
    println!(
        "{:>8} {:>8} {:>7} {:>7} {:>7} {:>7} {:>6}",
        "pc", "execs", "final%", "l1%", "hit%", "load%", "ovr"
    );
    for p in rows.iter().take(15) {
        println!(
            "{:>8x} {:>8} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>6}",
            p.pc,
            p.total,
            100.0 * p.final_correct as f64 / p.total as f64,
            100.0 * p.l1_correct as f64 / p.total as f64,
            100.0 * p.bvit_hits as f64 / p.total as f64,
            100.0 * p.load_class as f64 / p.total as f64,
            p.overrides,
        );
    }
}
