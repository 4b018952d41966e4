//! Architectural parameters — the paper's Table 2 (machine) and Table 4
//! (predictor access latencies).

use arvi_predict::{ConfidenceConfig, GskewConfig};

/// Tuning knobs for the ARVI second level — the design-decision ablations
/// the `ablations` binary runs (D2: stale values in the index; D11:
/// override gating). Defaults are the configuration used for the
/// headline results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArviTuning {
    /// log2 of BVIT sets (11 in the paper: 2048 sets x 4 ways).
    pub bvit_sets_log2: u32,
    /// D2 ablation: unavailable leaf registers contribute their stale
    /// shadow value to the index instead of being gated out.
    pub include_stale_values: bool,
    /// D11 ablation: require strong/net-correct/informed BVIT entries
    /// before overriding the level-1 direction.
    pub gate_overrides: bool,
}

impl Default for ArviTuning {
    fn default() -> ArviTuning {
        ArviTuning {
            bvit_sets_log2: 11,
            include_stale_values: false,
            gate_overrides: true,
        }
    }
}

/// Pipeline depth (fetch through execute), the paper's primary axis:
/// 20 stages matches the Pentium 4 era; 40 and 60 model the deeper
/// pipelines then projected for rising clock rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Depth {
    /// 20-stage pipeline.
    D20,
    /// 40-stage pipeline.
    D40,
    /// 60-stage pipeline.
    D60,
}

impl Depth {
    /// All three depths in paper order.
    pub fn all() -> [Depth; 3] {
        [Depth::D20, Depth::D40, Depth::D60]
    }

    /// The depth in stages.
    pub fn stages(self) -> u64 {
        match self {
            Depth::D20 => 20,
            Depth::D40 => 40,
            Depth::D60 => 60,
        }
    }
}

impl std::fmt::Display for Depth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-stage", self.stages())
    }
}

/// Which two-level direction-predictor configuration to simulate — the
/// paper's four configurations (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorConfig {
    /// Baseline: 2Bc-gskew at both levels (4 KB L1, 32 KB L2).
    TwoLevelGskew,
    /// ARVI L2 using current (shadow-file) values.
    ArviCurrent,
    /// ARVI L2 with oracle load hoisting (the *load back* study).
    ArviLoadBack,
    /// ARVI L2 with oracle values for every leaf register (*perfect
    /// value* bound).
    ArviPerfect,
}

impl PredictorConfig {
    /// All four configurations in the paper's legend order.
    pub fn all() -> [PredictorConfig; 4] {
        [
            PredictorConfig::TwoLevelGskew,
            PredictorConfig::ArviCurrent,
            PredictorConfig::ArviLoadBack,
            PredictorConfig::ArviPerfect,
        ]
    }

    /// This configuration's position in [`PredictorConfig::all`]: the
    /// index journals, the rollup and the figure tables key it by.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Legend label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            PredictorConfig::TwoLevelGskew => "2-level 2Bc-gskew",
            PredictorConfig::ArviCurrent => "arvi current value",
            PredictorConfig::ArviLoadBack => "arvi load back",
            PredictorConfig::ArviPerfect => "arvi perfect value",
        }
    }

    /// Whether the second level is an ARVI predictor.
    pub fn is_arvi(self) -> bool {
        !matches!(self, PredictorConfig::TwoLevelGskew)
    }
}

impl std::fmt::Display for PredictorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cache shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

/// TLB shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
}

/// Full machine parameters (Table 2) plus predictor latencies (Table 4).
///
/// The L1/L2/memory latency triples in the published table are corrupted
/// in the available text; the values here are era-plausible substitutes
/// that scale with pipeline depth.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Fetch/decode width (instructions per cycle).
    pub fetch_width: usize,
    /// Issue width.
    pub issue_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Reorder-buffer entries (also the DDT instruction-entry count).
    pub rob_entries: usize,
    /// Load/store queue entries.
    pub lsq_entries: usize,
    /// Single-cycle integer ALUs.
    pub int_alus: usize,
    /// Integer multiply/divide units.
    pub int_muldiv: usize,
    /// Data-cache ports.
    pub mem_ports: usize,
    /// Physical integer registers (must exceed `rob_entries + 32`).
    pub phys_regs: usize,
    /// Pipeline depth.
    pub depth: Depth,
    /// Cycles from fetch to dispatch (depth minus the back-end stages).
    pub frontend_latency: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Integer divide latency.
    pub div_latency: u64,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// TLB miss penalty in cycles (30 in Table 2).
    pub tlb_miss_penalty: u64,
    /// L1 hit latency.
    pub l1_latency: u64,
    /// L2 hit latency (added to L1 miss).
    pub l2_latency: u64,
    /// Memory latency (added to L2 miss).
    pub mem_latency: u64,
    /// Level-1 predictor shape (4 KB 2Bc-gskew, 1-cycle).
    pub l1_predictor: GskewConfig,
    /// Level-2 hybrid shape (32 KB 2Bc-gskew).
    pub l2_predictor: GskewConfig,
    /// Level-2 hybrid access latency (Table 4: 2/4/6 cycles).
    pub l2_pred_latency: u64,
    /// ARVI access latency (Table 4: 6/12/18 cycles).
    pub arvi_latency: u64,
    /// Confidence estimator shape.
    pub confidence: ConfidenceConfig,
    /// ARVI design-decision knobs (ablations).
    pub arvi_tuning: ArviTuning,
}

impl SimParams {
    /// The paper's machine at the given pipeline depth.
    pub fn for_depth(depth: Depth) -> SimParams {
        let (l1, l2, mem, l2p, arvi) = match depth {
            Depth::D20 => (2, 12, 100, 2, 6),
            Depth::D40 => (4, 24, 200, 4, 12),
            Depth::D60 => (6, 36, 300, 6, 18),
        };
        SimParams {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 256,
            lsq_entries: 32,
            int_alus: 4,
            int_muldiv: 1,
            mem_ports: 2,
            phys_regs: 320,
            depth,
            frontend_latency: depth.stages() - 3,
            mul_latency: 3,
            div_latency: 12,
            l1i: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 4,
                line_bytes: 64,
            },
            itlb: TlbConfig {
                entries: 64,
                ways: 4,
                page_bytes: 8192,
            },
            dtlb: TlbConfig {
                entries: 128,
                ways: 4,
                page_bytes: 8192,
            },
            tlb_miss_penalty: 30,
            l1_latency: l1,
            l2_latency: l2,
            mem_latency: mem,
            l1_predictor: GskewConfig::level1(),
            l2_predictor: GskewConfig::level2(),
            l2_pred_latency: l2p,
            arvi_latency: arvi,
            confidence: ConfidenceConfig::default(),
            arvi_tuning: ArviTuning::default(),
        }
    }

    /// A reduced machine for fast unit tests (small caches, short
    /// front end).
    pub fn small_test() -> SimParams {
        let mut p = SimParams::for_depth(Depth::D20);
        p.rob_entries = 64;
        p.phys_regs = 128;
        p.lsq_entries = 16;
        p.frontend_latency = 5;
        p
    }

    /// The effective in-flight instruction window (instructions occupy
    /// their entry from fetch to commit in this model).
    pub fn window(&self) -> usize {
        self.rob_entries
    }

    /// The largest delay the machine can ever schedule, in cycles — the
    /// bound that sizes the calendar queue's ring
    /// ([`crate::wheel::EventWheel`]). The worst writeback is a load
    /// that misses the TLB and every cache level; the worst dispatch
    /// delay is the front-end latency (plus the one-cycle retry bump).
    pub fn max_event_latency(&self) -> u64 {
        let worst_mem =
            1 + self.tlb_miss_penalty + self.l1_latency + self.l2_latency + self.mem_latency;
        worst_mem
            .max(self.mul_latency)
            .max(self.div_latency)
            .max(self.frontend_latency + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_index_is_the_position_in_all() {
        for c in PredictorConfig::all() {
            assert_eq!(PredictorConfig::all()[c.index()], c, "{c}");
        }
    }

    #[test]
    fn table_4_latencies() {
        // Predictor access latencies scale with pipeline depth exactly as
        // in Table 4 of the paper.
        let d20 = SimParams::for_depth(Depth::D20);
        let d40 = SimParams::for_depth(Depth::D40);
        let d60 = SimParams::for_depth(Depth::D60);
        assert_eq!(
            (
                d20.l2_pred_latency,
                d40.l2_pred_latency,
                d60.l2_pred_latency
            ),
            (2, 4, 6)
        );
        assert_eq!(
            (d20.arvi_latency, d40.arvi_latency, d60.arvi_latency),
            (6, 12, 18)
        );
    }

    #[test]
    fn table_2_shapes() {
        let p = SimParams::for_depth(Depth::D20);
        assert_eq!(p.rob_entries, 256);
        assert_eq!(p.lsq_entries, 32);
        assert_eq!(p.fetch_width, 4);
        assert_eq!(p.l1i.size_bytes, 64 * 1024);
        assert_eq!(p.l2.size_bytes, 512 * 1024);
        assert_eq!(p.itlb.entries, 64);
        assert_eq!(p.dtlb.entries, 128);
        assert_eq!(p.tlb_miss_penalty, 30);
    }

    #[test]
    fn phys_regs_cover_window() {
        for d in Depth::all() {
            let p = SimParams::for_depth(d);
            assert!(p.phys_regs >= p.rob_entries + 32);
        }
    }

    #[test]
    fn config_labels() {
        assert_eq!(PredictorConfig::TwoLevelGskew.label(), "2-level 2Bc-gskew");
        assert!(PredictorConfig::ArviPerfect.is_arvi());
        assert!(!PredictorConfig::TwoLevelGskew.is_arvi());
        assert_eq!(PredictorConfig::all().len(), 4);
    }

    #[test]
    fn depth_display() {
        assert_eq!(Depth::D40.to_string(), "40-stage");
    }

    #[test]
    fn max_event_latency_bounds_every_schedulable_delay() {
        for d in Depth::all() {
            let p = SimParams::for_depth(d);
            let worst_load = 1 + p.tlb_miss_penalty + p.l1_latency + p.l2_latency + p.mem_latency;
            let m = p.max_event_latency();
            assert!(m >= worst_load);
            assert!(m >= p.div_latency && m >= p.mul_latency);
            assert!(m > p.frontend_latency);
        }
        assert_eq!(
            SimParams::for_depth(Depth::D60).max_event_latency(),
            1 + 30 + 6 + 36 + 300
        );
    }
}
