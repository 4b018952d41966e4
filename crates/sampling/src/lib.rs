//! # arvi-sampling
//!
//! SMARTS-style interval sampling over recorded traces (Wunderlich et
//! al., ISCA 2003, adapted to this reproduction's trace-driven
//! substrate): instead of simulating a long window in detail end to
//! end, a [`SamplePlan`] slices it into `k`-periodic units, each unit
//! runs **functional warmup** (emulation-speed predictor/DDT/cache
//! training via [`WarmupMachine`]) followed by a short **detailed
//! measurement** on the full [`Machine`](arvi_sim::Machine), and the
//! per-unit counter blocks aggregate into a weighted-mean estimate with
//! a 95% confidence interval ([`SampleEstimate`]).
//!
//! Because every unit is independent — it seeks straight to its trace
//! position via [`TraceReplayer::seek_to_inst`] and carries its own
//! machine — units fan out over the workspace's one worker loop
//! ([`run_units`], a `par_map` over [`run_unit`]), so one long window
//! saturates all cores where the full run is serial by construction.
//!
//! Determinism contract: for a fixed trace, plan and seed, the unit
//! list, every per-unit [`MachineStats`], and the aggregated
//! [`SampleReport`] are bit-identical regardless of thread count —
//! results are committed in unit order, and the point estimates are
//! ratios of summed integer counters (see [`arvi_stats::sample`]).

use std::sync::Arc;

use arvi_sim::{MachineStats, PredictorConfig, RebasedSource, SimParams, WarmupMachine};
use arvi_stats::SampleEstimate;
use arvi_trace::par::par_map;
use arvi_trace::{Trace, TraceError, TraceReplayer};

/// How detail windows are placed inside each stratum of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// The detail window sits at the start of every stratum — the
    /// classic SMARTS systematic design. With `k = 1` the units tile
    /// the region exactly.
    Systematic,
    /// The detail window lands at a seed-derived offset inside each
    /// stratum (deterministic per `(seed, unit index)`), guarding
    /// against periodicity in the workload that aliases with the
    /// sampling stride.
    Stratified,
}

/// A sampling plan: every `k`-th window of `unit_detail` instructions
/// is measured in detail, each preceded by `unit_warmup` instructions
/// of functional warm-up.
///
/// The textual form is `k:warmup:detail` (systematic) or
/// `stratified:k:warmup:detail`; see [`SamplePlan::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePlan {
    /// Sampling period: one unit per `k * unit_detail` instructions.
    /// `k = 1` measures everything (100% coverage).
    pub k: u64,
    /// Functional warm-up length before each detail window.
    pub unit_warmup: u64,
    /// Detailed measurement length of each unit.
    pub unit_detail: u64,
    /// Detail-window placement within strata.
    pub mode: SampleMode,
}

impl SamplePlan {
    /// A systematic plan (detail window at the start of each stratum).
    pub fn systematic(k: u64, unit_warmup: u64, unit_detail: u64) -> SamplePlan {
        SamplePlan {
            k,
            unit_warmup,
            unit_detail,
            mode: SampleMode::Systematic,
        }
    }

    /// A stratified plan (seed-derived detail offset per stratum).
    pub fn stratified(k: u64, unit_warmup: u64, unit_detail: u64) -> SamplePlan {
        SamplePlan {
            k,
            unit_warmup,
            unit_detail,
            mode: SampleMode::Stratified,
        }
    }

    /// Parses `k:warmup:detail` or `stratified:k:warmup:detail` (an
    /// explicit `systematic:` prefix is also accepted). Requires
    /// `k >= 1` and `detail >= 1`.
    pub fn parse(s: &str) -> Result<SamplePlan, String> {
        let (mode, rest) = match s.split_once(':') {
            Some(("stratified", rest)) => (SampleMode::Stratified, rest),
            Some(("systematic", rest)) => (SampleMode::Systematic, rest),
            _ => (SampleMode::Systematic, s),
        };
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "bad sample plan {s:?}: expected k:warmup:detail \
                 (optionally prefixed with systematic: or stratified:)"
            ));
        }
        let field = |i: usize, name: &str| -> Result<u64, String> {
            parts[i].parse::<u64>().map_err(|_| {
                format!(
                    "bad sample plan {s:?}: {name} {:?} is not a number",
                    parts[i]
                )
            })
        };
        let plan = SamplePlan {
            k: field(0, "period k")?,
            unit_warmup: field(1, "warmup")?,
            unit_detail: field(2, "detail")?,
            mode,
        };
        if plan.k == 0 {
            return Err(format!("bad sample plan {s:?}: period k must be >= 1"));
        }
        if plan.unit_detail == 0 {
            return Err(format!("bad sample plan {s:?}: detail must be >= 1"));
        }
        Ok(plan)
    }

    /// Instructions between consecutive detail-window strata.
    pub fn stride(&self) -> u64 {
        self.k * self.unit_detail
    }

    /// Fraction of the region measured in detail (upper bound; the last
    /// partial stratum may contribute slightly more).
    pub fn coverage(&self) -> f64 {
        1.0 / self.k as f64
    }

    /// Slices `[region_start, region_start + region_len)` of a trace
    /// into sampling units. `seed` feeds the stratified offsets (it is
    /// ignored for systematic plans, so systematic unit lists depend
    /// only on the plan and region).
    ///
    /// Warm-up may extend before `region_start` (into the trace prefix,
    /// saturating at 0) — earlier history is valid training input — but
    /// detail windows never leave the region. With `k = 1` and
    /// systematic mode the detail windows tile the region exactly:
    /// no gaps, no overlaps.
    pub fn units(&self, region_start: u64, region_len: u64, seed: u64) -> Vec<SampleUnit> {
        let region_end = region_start + region_len;
        let stride = self.stride();
        let mut out = Vec::new();
        let mut index = 0u64;
        let mut stratum_start = region_start;
        while stratum_start < region_end {
            let stratum_len = (region_end - stratum_start).min(stride);
            let max_offset = stratum_len.saturating_sub(self.unit_detail);
            let offset = match self.mode {
                SampleMode::Systematic => 0,
                SampleMode::Stratified => stratified_offset(seed, index) % (max_offset + 1),
            };
            let detail_start = stratum_start + offset;
            let detail_len = self.unit_detail.min(region_end - detail_start);
            out.push(SampleUnit {
                index,
                warmup_start: detail_start.saturating_sub(self.unit_warmup),
                detail_start,
                detail_len,
            });
            index += 1;
            stratum_start += stride;
        }
        out
    }
}

impl std::fmt::Display for SamplePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.mode == SampleMode::Stratified {
            write!(f, "stratified:")?;
        }
        write!(f, "{}:{}:{}", self.k, self.unit_warmup, self.unit_detail)
    }
}

/// FNV-1a over `(seed, index)`; the deterministic randomness source for
/// stratified detail-window placement (no RNG state to thread through
/// the workers).
fn stratified_offset(seed: u64, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in seed.to_le_bytes().into_iter().chain(index.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One sampling unit: absolute trace positions of its warm-up prefix
/// and detailed measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleUnit {
    /// Position of this unit in the plan (stratum number).
    pub index: u64,
    /// First trace position streamed through functional warm-up.
    pub warmup_start: u64,
    /// First trace position of the detailed window.
    pub detail_start: u64,
    /// Detailed-window length in instructions.
    pub detail_len: u64,
}

impl SampleUnit {
    /// Functional warm-up length of this unit.
    pub fn warmup_len(&self) -> u64 {
        self.detail_start - self.warmup_start
    }
}

/// Detailed pipeline-fill ramp: the last up-to-this-many instructions
/// of each unit's warm-up region run on the detailed machine,
/// unmeasured, before the measurement snapshot is taken. A detailed
/// machine started cold spends tens of cycles refilling its fetch and
/// rename stages before the first commit; against a short detail window
/// that fill cost reads as a systematic IPC under-estimate, so the ramp
/// absorbs it outside the measured window (SMARTS' "detailed warming").
/// The ramp is carved out of the warm-up region — detail windows and
/// unit boundaries are unchanged — and shrinks to the available warm-up
/// when a unit has less than this much (0 warm-up keeps the old
/// cold-start behaviour, preserving exact `k = 1` full-coverage
/// tiling).
pub const DETAIL_RAMP: u64 = 2_000;

/// Runs one sampling unit: seek to the warm-up start, train a
/// [`WarmupMachine`] up to [`DETAIL_RAMP`] instructions before the
/// detail window, run the ramp on the detailed machine to fill the
/// pipeline, then measure the window. Returns the detail window's
/// counter block.
///
/// Fails with [`TraceError::SeekPastEnd`] when the unit lies outside
/// the recording (a plan/trace length mismatch).
pub fn run_unit(
    trace: &Arc<Trace>,
    params: &SimParams,
    config: PredictorConfig,
    unit: &SampleUnit,
) -> Result<MachineStats, TraceError> {
    if unit.detail_start + unit.detail_len > trace.len() {
        return Err(TraceError::SeekPastEnd {
            seq: unit.detail_start + unit.detail_len - 1,
            len: trace.len(),
        });
    }
    let ramp = unit.warmup_len().min(DETAIL_RAMP);
    let mut replayer = TraceReplayer::new(Arc::clone(trace));
    replayer.seek_to_inst(unit.warmup_start)?;
    let mut warm = WarmupMachine::new(params.clone(), config);
    warm.warm(&mut replayer, unit.warmup_len() - ramp);
    let mut machine = warm.into_machine(RebasedSource::new(replayer, unit.detail_start - ramp));
    // Exact commit boundaries on both calls: the ramp must hand over at
    // precisely `detail_start`, and the window must close at precisely
    // `detail_len` committed — otherwise each unit overshoots by up to
    // a commit group and tiled units double-count boundary instructions.
    let fill = machine.stats().clone();
    machine.run_until_committed_exact(fill.committed + ramp);
    let start = machine.stats().clone();
    machine.run_until_committed_exact(start.committed + unit.detail_len);
    Ok(machine.stats().since(&start))
}

/// Runs every unit of a plan over a shared trace on up to `threads`
/// workers: a [`par_map`] over [`run_unit`], on the workspace's one
/// worker loop. Results are returned **in unit order** and are
/// bit-identical for any thread count — scheduling affects only
/// wall-clock, never results. The first failing unit in unit order
/// gives the error.
pub fn run_units(
    trace: &Arc<Trace>,
    params: &SimParams,
    config: PredictorConfig,
    units: &[SampleUnit],
    threads: usize,
) -> Result<Vec<MachineStats>, TraceError> {
    par_map(units, threads, |u| run_unit(trace, params, config, u))
        .into_iter()
        .collect()
}

/// Sums two per-unit counter blocks field by field. Plain integer
/// addition end to end, so merging is exact, associative and
/// commutative — the aggregation order (thread interleaving, resume
/// replay) cannot change the totals.
pub fn merge_stats(a: &MachineStats, b: &MachineStats) -> MachineStats {
    let mut out = a.clone();
    out.committed += b.committed;
    out.cycles += b.cycles;
    out.cond_branches += b.cond_branches;
    out.l1_only += b.l1_only;
    out.calc_class += b.calc_class;
    out.load_class += b.load_class;
    out.overrides += b.overrides;
    out.overrides_correcting += b.overrides_correcting;
    out.bvit_hits += b.bvit_hits;
    out.full_mispredicts += b.full_mispredicts;
    out.override_restarts += b.override_restarts;
    out
}

/// The aggregate of a sampled run: summed counters, weighted estimates
/// with 95% CIs, and coverage bookkeeping.
#[derive(Debug, Clone)]
pub struct SampleReport {
    /// Field-by-field sum of every unit's counter block.
    pub totals: MachineStats,
    /// IPC estimate (per-unit `committed / cycles`, weighted by cycles;
    /// the mean equals `totals.ipc()` exactly).
    pub ipc: SampleEstimate,
    /// Final-direction conditional-branch accuracy estimate (per-unit
    /// rate weighted by branch count).
    pub accuracy: SampleEstimate,
    /// Instructions measured in detail across all units.
    pub sampled_insts: u64,
    /// Length of the sampled region (denominator of [`coverage`]).
    ///
    /// [`coverage`]: SampleReport::coverage
    pub region_len: u64,
}

impl SampleReport {
    /// Fraction of the region that was measured in detail.
    pub fn coverage(&self) -> f64 {
        if self.region_len == 0 {
            0.0
        } else {
            self.sampled_insts as f64 / self.region_len as f64
        }
    }

    /// Number of units aggregated.
    pub fn units(&self) -> usize {
        self.ipc.units
    }
}

/// Aggregates per-unit counter blocks (in unit order, as produced by
/// [`run_units`]) into a [`SampleReport`].
pub fn aggregate(results: &[MachineStats], region_len: u64) -> SampleReport {
    let mut totals = MachineStats::default();
    let mut ipc_samples = Vec::with_capacity(results.len());
    let mut acc_samples = Vec::with_capacity(results.len());
    for s in results {
        totals = merge_stats(&totals, s);
        ipc_samples.push((s.ipc(), s.cycles as f64));
        acc_samples.push((s.cond_branches.rate(), s.cond_branches.total() as f64));
    }
    SampleReport {
        ipc: SampleEstimate::from_weighted(&ipc_samples),
        accuracy: SampleEstimate::from_weighted(&acc_samples),
        sampled_insts: totals.committed,
        region_len,
        totals,
    }
}

/// One-call convenience: plan → units → parallel execution →
/// aggregation over `[region_start, region_start + region_len)`.
#[allow(clippy::too_many_arguments)]
pub fn sample_region(
    trace: &Arc<Trace>,
    params: &SimParams,
    config: PredictorConfig,
    plan: &SamplePlan,
    region_start: u64,
    region_len: u64,
    seed: u64,
    threads: usize,
) -> Result<SampleReport, TraceError> {
    let units = plan.units(region_start, region_len, seed);
    let results = run_units(trace, params, config, &units, threads)?;
    Ok(aggregate(&results, region_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_isa::Emulator;
    use arvi_sim::Depth;
    use arvi_workloads::Benchmark;

    fn small_trace(n: u64) -> Arc<Trace> {
        let emu = Emulator::new(Benchmark::Compress.program(7));
        Arc::new(Trace::record(emu, n, "compress-sampled", 7))
    }

    #[test]
    fn parse_round_trips() {
        let p = SamplePlan::parse("8:2000:1000").unwrap();
        assert_eq!(p, SamplePlan::systematic(8, 2000, 1000));
        assert_eq!(p.to_string(), "8:2000:1000");
        let s = SamplePlan::parse("stratified:4:500:250").unwrap();
        assert_eq!(s, SamplePlan::stratified(4, 500, 250));
        assert_eq!(s.to_string(), "stratified:4:500:250");
        assert_eq!(SamplePlan::parse(s.to_string().as_str()).unwrap(), s);
        assert_eq!(
            SamplePlan::parse("systematic:2:0:100").unwrap(),
            SamplePlan::systematic(2, 0, 100)
        );
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for bad in ["", "8", "8:100", "8:100:200:300", "x:1:2", "0:1:2", "2:1:0"] {
            assert!(SamplePlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn k1_systematic_tiles_the_region_exactly() {
        let plan = SamplePlan::systematic(1, 300, 1000);
        let units = plan.units(500, 10_500, 42);
        assert_eq!(units.len(), 11);
        let mut next = 500;
        for u in &units {
            assert_eq!(u.detail_start, next, "gap or overlap at unit {}", u.index);
            next = u.detail_start + u.detail_len;
        }
        assert_eq!(next, 11_000);
        assert_eq!(units.last().unwrap().detail_len, 500);
    }

    #[test]
    fn systematic_units_are_periodic_and_warmup_saturates() {
        let plan = SamplePlan::systematic(4, 5_000, 1_000);
        let units = plan.units(0, 20_000, 0);
        assert_eq!(units.len(), 5);
        for (j, u) in units.iter().enumerate() {
            assert_eq!(u.index, j as u64);
            assert_eq!(u.detail_start, j as u64 * 4_000);
            assert_eq!(u.warmup_start, u.detail_start.saturating_sub(5_000));
        }
        assert_eq!(units[0].warmup_start, 0);
        assert_eq!(units[2].warmup_start, 3_000);
    }

    #[test]
    fn stratified_offsets_stay_in_their_strata_and_follow_the_seed() {
        let plan = SamplePlan::stratified(8, 100, 500);
        let region_len = 64_000;
        let a = plan.units(0, region_len, 1);
        let b = plan.units(0, region_len, 1);
        let c = plan.units(0, region_len, 2);
        assert_eq!(a, b, "same seed must reproduce the same placement");
        assert_ne!(a, c, "different seeds should move the windows");
        for u in &a {
            let stratum_start = u.index * plan.stride();
            assert!(u.detail_start >= stratum_start);
            assert!(u.detail_start + u.detail_len <= stratum_start + plan.stride());
            assert!(u.detail_start + u.detail_len <= region_len);
            assert_eq!(u.detail_len, 500);
        }
    }

    #[test]
    fn unit_past_trace_end_is_an_error() {
        let trace = small_trace(4_000);
        let params = SimParams::small_test();
        let unit = SampleUnit {
            index: 0,
            warmup_start: 3_000,
            detail_start: 3_500,
            detail_len: 1_000,
        };
        let err = run_unit(&trace, &params, PredictorConfig::TwoLevelGskew, &unit);
        assert!(matches!(err, Err(TraceError::SeekPastEnd { .. })));
    }

    #[test]
    fn parallel_results_match_serial_bit_for_bit() {
        let trace = small_trace(24_000);
        let params = SimParams::for_depth(Depth::D20);
        let plan = SamplePlan::systematic(3, 1_000, 1_000);
        let units = plan.units(0, trace.len(), 7);
        for config in [PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent] {
            let serial = run_units(&trace, &params, config, &units, 1).unwrap();
            let par = run_units(&trace, &params, config, &units, 4).unwrap();
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.cycles, b.cycles);
                assert_eq!(a.committed, b.committed);
                assert_eq!(a.cond_branches, b.cond_branches);
                assert_eq!(a.full_mispredicts, b.full_mispredicts);
            }
        }
    }

    #[test]
    fn aggregate_means_are_ratios_of_summed_counters() {
        let trace = small_trace(16_000);
        let params = SimParams::for_depth(Depth::D20);
        let report = sample_region(
            &trace,
            &params,
            PredictorConfig::ArviCurrent,
            &SamplePlan::systematic(2, 500, 1_000),
            0,
            trace.len(),
            7,
            2,
        )
        .unwrap();
        assert_eq!(report.units(), 8);
        assert!((report.ipc.mean - report.totals.ipc()).abs() < 1e-12);
        assert!((report.accuracy.mean - report.totals.cond_branches.rate()).abs() < 1e-12);
        assert!(report.ipc.mean > 0.0);
        assert!((report.coverage() - 0.5).abs() < 0.01);
        assert!(report.ipc.ci_contains(report.ipc.mean));
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let trace = small_trace(12_000);
        let params = SimParams::small_test();
        let plan = SamplePlan::systematic(2, 200, 500);
        let units = plan.units(0, trace.len(), 0);
        let r = run_units(&trace, &params, PredictorConfig::ArviCurrent, &units, 1).unwrap();
        assert!(r.len() >= 3);
        let ab_c = merge_stats(&merge_stats(&r[0], &r[1]), &r[2]);
        let a_bc = merge_stats(&r[0], &merge_stats(&r[1], &r[2]));
        let ba_c = merge_stats(&merge_stats(&r[1], &r[0]), &r[2]);
        for m in [&a_bc, &ba_c] {
            assert_eq!(ab_c.committed, m.committed);
            assert_eq!(ab_c.cycles, m.cycles);
            assert_eq!(ab_c.cond_branches, m.cond_branches);
            assert_eq!(ab_c.overrides, m.overrides);
        }
    }
}
