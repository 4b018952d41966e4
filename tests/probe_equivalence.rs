//! Probe-seam identity harness: attaching observation probes to the
//! timing machine must not change a single figure.
//!
//! The PR 7 probe seam threads an `arvi_obs::Probe` type parameter
//! through `Machine`. Two things must hold:
//!
//! 1. **NullProbe is free** — `simulate_source` (which routes through
//!    the probed path with `NullProbe`) must produce exactly the
//!    counters it produced before the seam existed. The golden digests
//!    (`tests/golden_digests.rs`) pin those counters; here we pin the
//!    stronger claim directly:
//! 2. **Live probes are observers, not participants** — running with
//!    the full consumer stack (counter histograms + per-site
//!    attribution + event tracer) attached must be counter-for-counter
//!    identical to the unprobed run, across the full benchmark grid and
//!    the curated synthetic scenarios (the `tests/golden_digests.rs`
//!    machine axes).
//!
//! Plus consistency checks tying the probe's own telemetry back to the
//! machine's statistics.

use std::sync::Arc;

use arvi::obs::{ChromeTracer, CounterProbe, SiteProbe};
use arvi::sim::{
    intern_name, simulate_source, simulate_source_probed, Depth, MachineStats, PredictorConfig,
    SimParams,
};
use arvi::trace::TraceReplayer;
use arvi::workloads::Benchmark;
use arvi_bench::{record_trace, Spec, Workload};

fn spec() -> Spec {
    Spec {
        warmup: 2_000,
        measure: 5_000,
        seed: 42,
    }
}

/// The full consumer stack: counters + sites + tracer, composed the way
/// the experiment binaries compose them.
type FullProbe = ((CounterProbe, SiteProbe), ChromeTracer);

fn full_probe() -> FullProbe {
    (
        (CounterProbe::new(), SiteProbe::new()),
        ChromeTracer::new(0, u64::MAX),
    )
}

fn assert_identical(plain: &MachineStats, probed: &MachineStats, label: &str) {
    assert_eq!(plain.cycles, probed.cycles, "{label}: cycles");
    assert_eq!(plain.committed, probed.committed, "{label}: committed");
    assert_eq!(
        (plain.cond_branches.correct(), plain.cond_branches.total()),
        (probed.cond_branches.correct(), probed.cond_branches.total()),
        "{label}: final accuracy"
    );
    assert_eq!(
        (plain.l1_only.correct(), plain.l1_only.total()),
        (probed.l1_only.correct(), probed.l1_only.total()),
        "{label}: level-1 accuracy"
    );
    assert_eq!(
        (plain.calc_class.correct(), plain.calc_class.total()),
        (probed.calc_class.correct(), probed.calc_class.total()),
        "{label}: calculated class"
    );
    assert_eq!(
        (plain.load_class.correct(), plain.load_class.total()),
        (probed.load_class.correct(), probed.load_class.total()),
        "{label}: load class"
    );
    assert_eq!(plain.overrides, probed.overrides, "{label}: overrides");
    assert_eq!(
        plain.overrides_correcting, probed.overrides_correcting,
        "{label}: correcting overrides"
    );
    assert_eq!(plain.bvit_hits, probed.bvit_hits, "{label}: BVIT hits");
    assert_eq!(
        plain.full_mispredicts, probed.full_mispredicts,
        "{label}: full mispredicts"
    );
    assert_eq!(
        plain.override_restarts, probed.override_restarts,
        "{label}: override restarts"
    );
}

/// Runs one workload unprobed and with the full consumer stack over a
/// shared recording and compares every measurement-window counter.
/// Returns the probe for further consistency checks.
fn compare(workload: &Workload, depth: Depth, config: PredictorConfig, spec: Spec) -> FullProbe {
    let trace = Arc::new(record_trace(workload, spec));
    let name = intern_name(workload.name());
    let plain = simulate_source(
        name,
        TraceReplayer::new(Arc::clone(&trace)),
        SimParams::for_depth(depth),
        config,
        spec.warmup,
        spec.measure,
    );
    let (probed, probe) = simulate_source_probed(
        name,
        TraceReplayer::new(Arc::clone(&trace)),
        SimParams::for_depth(depth),
        config,
        spec.warmup,
        spec.measure,
        full_probe(),
    );
    assert_identical(
        &plain.window,
        &probed.window,
        &format!("{} @{depth} / {config}", workload.name()),
    );
    probe
}

/// Every suite benchmark across all pipeline depths, for the baseline
/// and ARVI configurations (the fig5/fig6 grid axes at
/// equivalence-test scale).
#[test]
fn benchmark_grid_is_probe_invariant() {
    for workload in Workload::suite() {
        for depth in Depth::all() {
            for config in [PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent] {
                compare(&workload, depth, config, spec());
            }
        }
    }
}

/// All curated synthetic scenarios under every configuration.
#[test]
fn curated_scenarios_are_probe_invariant() {
    for sc in arvi::synth::curated() {
        let workload = Workload::scenario(sc);
        for config in PredictorConfig::all() {
            compare(&workload, Depth::D20, config, spec());
        }
    }
}

/// The probe's own telemetry must agree with the machine it observed:
/// commit/branch counts cover the whole run, per-site totals sum to the
/// branch count, the tracer saw events, and cache totals were
/// snapshotted.
#[test]
fn probe_telemetry_is_consistent_with_the_run() {
    let s = spec();
    let workload = Workload::from(Benchmark::Li); // branchy, small footprint
    let ((counters, sites), tracer) =
        compare(&workload, Depth::D20, PredictorConfig::ArviCurrent, s);

    // The probe observes warmup + measurement (plus the commit-width
    // overshoot), never less than the window demanded.
    assert!(
        counters.committed >= s.warmup + s.measure,
        "probe saw {} commits",
        counters.committed
    );
    assert!(counters.fetched >= counters.committed);
    assert!(counters.cycles > 0);
    assert_eq!(counters.rob_occupancy.count(), counters.cycles);

    // Every resolved conditional branch lands in exactly one site (or
    // is explicitly counted as dropped if the table ever filled).
    let site_total: u64 = sites.iter().map(|site| site.total).sum();
    assert_eq!(
        site_total + sites.dropped,
        counters.branches,
        "site totals vs branches"
    );
    assert!(sites.sites > 0);
    let top = sites.top_sites(5);
    assert!(!top.is_empty());
    assert!(
        top.windows(2)
            .all(|w| w[0].mispredicts() >= w[1].mispredicts()),
        "top sites sorted by mispredicts"
    );

    // An unbounded window traces from cycle 0; the cap bounds growth.
    assert!(!tracer.is_empty());

    // End-of-run cache totals were snapshotted into the probe.
    let (l1i_hits, _) = counters.cache.l1i;
    assert!(l1i_hits > 0, "instruction fetches hit L1I");
}

/// ARVI chain telemetry flows: under an ARVI configuration the DDT
/// occupancy and chain-length histograms must fill; under the hybrid
/// baseline both stay empty (no tracker exists, so the machine never
/// fires the DDT hooks).
#[test]
fn ddt_telemetry_tracks_configuration() {
    let s = spec();
    let workload = Workload::scenario(arvi::synth::find("datadep-deep").expect("curated name"));
    let ((arvi_counters, _), _) = compare(&workload, Depth::D20, PredictorConfig::ArviCurrent, s);
    assert!(arvi_counters.ddt_occupancy.count() > 0, "DDT inserts seen");
    assert!(arvi_counters.chain_len.count() > 0, "chain reads seen");
    assert!(arvi_counters.chain_len.max() > 0, "chains have depth");

    let ((hybrid_counters, _), _) =
        compare(&workload, Depth::D20, PredictorConfig::TwoLevelGskew, s);
    assert_eq!(
        hybrid_counters.ddt_occupancy.count(),
        0,
        "hybrid L2 never inserts into a tracker"
    );
    assert_eq!(hybrid_counters.chain_len.count(), 0, "no ARVI chain reads");
}
