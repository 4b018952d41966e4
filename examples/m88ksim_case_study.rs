//! The paper's Figure 7 case study: m88ksim's `lookupdisasm` hash-chain
//! walk, whose loop-exit branch is fully determined by the lookup key.
//!
//! This example reproduces the Section 6 narrative: "the history-based
//! hybrid predictor has difficulty in predicting the exit because the
//! condition is not strongly correlated with history", while ARVI — with
//! the key's value in its index and the iteration count embodied in the
//! chain-depth tag — resolves it nearly perfectly.
//!
//! The per-site rows come from a [`SiteProbe`] on the machine, so they
//! cover the whole run, warm-up included, as the `--obs-grid` rollup
//! does; the overall accuracy is the measurement window's.
//!
//! Run with: `cargo run --release --example m88ksim_case_study`

use arvi::isa::Emulator;
use arvi::obs::SiteProbe;
use arvi::sim::{Depth, Machine, PredictorConfig, SimParams};
use arvi::workloads::Benchmark;

fn profile(config: PredictorConfig) -> (f64, f64, f64) {
    let mut m = Machine::with_probe(
        Emulator::new(Benchmark::M88ksim.program(42)),
        SimParams::for_depth(Depth::D20),
        config,
        SiteProbe::new(),
    );
    m.run_until_committed(100_000);
    let start = m.stats().clone();
    m.run_until_committed(500_000);
    let window = m.stats().since(&start);

    // The star branches compare a loaded opcode (T1) against a pipelined
    // key register: they are the `beq T1, key` sites of the three unrolled
    // lookups. Find them as the branches with the worst L1 accuracy among
    // high-traffic sites.
    let mut star_total = 0u64;
    let mut star_final = 0u64;
    let mut star_l1 = 0u64;
    let mut rows: Vec<_> = m.probe().iter().collect();
    rows.sort_by_key(|p| std::cmp::Reverse(p.total));
    for p in rows.iter().take(24) {
        let l1_rate = p.l1_correct as f64 / p.total as f64;
        if l1_rate < 0.9 && p.total > 1000 {
            star_total += p.total;
            star_final += p.final_correct;
            star_l1 += p.l1_correct;
        }
    }
    (
        window.cond_branches.rate(),
        star_final as f64 / star_total.max(1) as f64,
        star_l1 as f64 / star_total.max(1) as f64,
    )
}

fn main() {
    println!("m88ksim `lookupdisasm` case study (paper Figure 7), 20-stage pipeline\n");
    println!(
        "{:<22} {:>10} {:>22}",
        "config", "overall", "hash-walk exits"
    );
    for config in [PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent] {
        let (overall, star, star_l1) = profile(config);
        println!(
            "{:<22} {:>9.2}% {:>14.2}% (L1 alone: {:.2}%)",
            config.label(),
            overall * 100.0,
            star * 100.0,
            star_l1 * 100.0
        );
    }
    println!(
        "\nThe exit position of the while loop varies per key, starving history\n\
         predictors; ARVI keys its prediction on the key VALUE plus the chain\n\
         depth tag, which counts the loop iteration — so the same (key,\n\
         iteration) signature always predicts the recorded outcome."
    );
}
