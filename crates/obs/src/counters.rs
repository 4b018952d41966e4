//! The zero-alloc counter/histogram probe.

use crate::hist::Log2Hist;
use crate::{BranchResolution, CacheSnapshot, Probe};

/// Issue counts above this are clamped into the last bucket (the
/// modeled machines are 4-wide; 15 leaves generous headroom). Public so
/// full-fidelity serializers can round-trip the raw issue state.
pub const ISSUE_BUCKETS: usize = 16;

/// Fixed-footprint pipeline/predictor telemetry: event counters plus
/// log2-bucket histograms, recorded with zero steady-state allocation
/// (everything is inline arrays; pinned by `tests/alloc_steady_state.rs`).
///
/// Histograms cover *active* cycles — quiet cycles the calendar queue
/// skips execute nothing and fire no hooks.
#[derive(Debug, Clone, Default)]
pub struct CounterProbe {
    /// Active machine cycles observed.
    pub cycles: u64,
    /// Instructions fetched/renamed.
    pub fetched: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Writeback events.
    pub writebacks: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Full mispredicts (fetch-blocking).
    pub mispredicts: u64,
    /// ROB occupancy sampled at every active cycle.
    pub rob_occupancy: Log2Hist,
    /// DDT occupancy sampled at every insert (ARVI configurations).
    pub ddt_occupancy: Log2Hist,
    /// Dependence-chain length per branch chain read (ARVI).
    pub chain_len: Log2Hist,
    /// Leaf-register-set size per chain read (ARVI).
    pub leaf_set: Log2Hist,
    /// Fetch-blocked cycles per full mispredict (recovery depth).
    pub recovery: Log2Hist,
    /// Data-access latency per load/store.
    pub mem_latency: Log2Hist,
    /// issued-per-cycle counts; index clamped to `ISSUE_BUCKETS - 1`.
    issue_counts: [u64; ISSUE_BUCKETS],
    /// Cycles on which the issue stage ran (had candidates).
    issue_cycles: u64,
    /// The machine's issue width (recorded from the first issue event).
    issue_width: u32,
    /// End-of-run cache/TLB totals.
    pub cache: CacheSnapshot,
}

impl CounterProbe {
    /// An empty probe.
    pub fn new() -> CounterProbe {
        CounterProbe::default()
    }

    /// Issue-width utilization as `(issued, cycles)` rows, `0..=width`.
    /// Active cycles on which the issue stage never ran (no candidates)
    /// count as zero-issue cycles.
    pub fn issue_utilization(&self) -> Vec<(u32, u64)> {
        let width = (self.issue_width as usize).clamp(1, ISSUE_BUCKETS - 1);
        let idle = self.cycles.saturating_sub(self.issue_cycles);
        (0..=width)
            .map(|n| {
                let mut c = self.issue_counts[n];
                if n == 0 {
                    c += idle;
                }
                (n as u32, c)
            })
            .collect()
    }

    /// Mean instructions issued per active cycle.
    pub fn mean_issued(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let total: u64 = self
            .issue_counts
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        total as f64 / self.cycles as f64
    }

    /// The raw issue-stage state `(counts, issue_cycles, issue_width)`.
    /// Unlike [`CounterProbe::issue_utilization`] — which folds idle
    /// cycles into the zero bucket and clamps to the issue width — this
    /// is the exact internal state, so serializing it round-trips.
    pub fn issue_state(&self) -> ([u64; ISSUE_BUCKETS], u64, u32) {
        (self.issue_counts, self.issue_cycles, self.issue_width)
    }

    /// Restores state captured by [`CounterProbe::issue_state`]
    /// (deserialization seam for merged-telemetry journals).
    pub fn restore_issue_state(&mut self, counts: [u64; ISSUE_BUCKETS], cycles: u64, width: u32) {
        self.issue_counts = counts;
        self.issue_cycles = cycles;
        self.issue_width = width;
    }

    /// Adds every sample of `other` into `self` (per-workload merge).
    pub fn merge(&mut self, other: &CounterProbe) {
        self.cycles += other.cycles;
        self.fetched += other.fetched;
        self.committed += other.committed;
        self.writebacks += other.writebacks;
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
        self.rob_occupancy.merge(&other.rob_occupancy);
        self.ddt_occupancy.merge(&other.ddt_occupancy);
        self.chain_len.merge(&other.chain_len);
        self.leaf_set.merge(&other.leaf_set);
        self.recovery.merge(&other.recovery);
        self.mem_latency.merge(&other.mem_latency);
        for (a, b) in self.issue_counts.iter_mut().zip(other.issue_counts.iter()) {
            *a += b;
        }
        self.issue_cycles += other.issue_cycles;
        self.issue_width = self.issue_width.max(other.issue_width);
        self.cache.merge(&other.cache);
    }

    /// The histograms as `(name, hist)` rows in report order.
    pub fn histograms(&self) -> [(&'static str, &Log2Hist); 6] {
        [
            ("rob_occupancy", &self.rob_occupancy),
            ("ddt_occupancy", &self.ddt_occupancy),
            ("chain_len", &self.chain_len),
            ("leaf_set", &self.leaf_set),
            ("recovery_cycles", &self.recovery),
            ("mem_latency", &self.mem_latency),
        ]
    }

    /// The histograms as mutable `(name, hist)` rows, mirroring
    /// [`CounterProbe::histograms`] (deserialization seam).
    pub fn histograms_mut(&mut self) -> [(&'static str, &mut Log2Hist); 6] {
        [
            ("rob_occupancy", &mut self.rob_occupancy),
            ("ddt_occupancy", &mut self.ddt_occupancy),
            ("chain_len", &mut self.chain_len),
            ("leaf_set", &mut self.leaf_set),
            ("recovery_cycles", &mut self.recovery),
            ("mem_latency", &mut self.mem_latency),
        ]
    }

    /// Markdown report: counters, issue utilization, histograms,
    /// cache/TLB totals.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| counter | value |\n|---|---|\n");
        for (name, v) in [
            ("active cycles", self.cycles),
            ("fetched", self.fetched),
            ("committed", self.committed),
            ("writebacks", self.writebacks),
            ("branches", self.branches),
            ("full mispredicts", self.mispredicts),
        ] {
            out.push_str(&format!("| {name} | {v} |\n"));
        }
        out.push_str(&format!(
            "| mean issued/cycle | {:.3} |\n\n",
            self.mean_issued()
        ));
        out.push_str("| issued/cycle | cycles | share |\n|---|---|---|\n");
        for (n, c) in self.issue_utilization() {
            let share = if self.cycles == 0 {
                0.0
            } else {
                c as f64 / self.cycles as f64 * 100.0
            };
            out.push_str(&format!("| {n} | {c} | {share:.1}% |\n"));
        }
        out.push_str("\n| histogram | bucket | count | share |\n|---|---|---|---|\n");
        for (name, h) in self.histograms() {
            h.markdown_rows(name, &mut out);
        }
        out.push_str("\n| level | hits | misses | miss rate |\n|---|---|---|---|\n");
        for (name, hits, misses) in self.cache.rows() {
            let total = hits + misses;
            let rate = if total == 0 {
                0.0
            } else {
                misses as f64 / total as f64 * 100.0
            };
            out.push_str(&format!("| {name} | {hits} | {misses} | {rate:.2}% |\n"));
        }
        out
    }
}

impl Probe for CounterProbe {
    #[inline]
    fn on_cycle(&mut self, _cycle: u64, rob_occupancy: u32) {
        self.cycles += 1;
        self.rob_occupancy.record(rob_occupancy as u64);
    }

    #[inline]
    fn on_fetch(&mut self, _cycle: u64, _seq: u64, _pc: u64, _is_branch: bool, _is_load: bool) {
        self.fetched += 1;
    }

    #[inline]
    fn on_ddt_insert(&mut self, _cycle: u64, _seq: u64, occupancy: u32) {
        self.ddt_occupancy.record(occupancy as u64);
    }

    #[inline]
    fn on_chain_read(
        &mut self,
        _cycle: u64,
        _pc: u64,
        chain_len: u32,
        leaf_regs: u32,
        _available: u32,
    ) {
        self.chain_len.record(chain_len as u64);
        self.leaf_set.record(leaf_regs as u64);
    }

    #[inline]
    fn on_issue(&mut self, _cycle: u64, issued: u32, width: u32) {
        self.issue_cycles += 1;
        self.issue_width = width;
        self.issue_counts[(issued as usize).min(ISSUE_BUCKETS - 1)] += 1;
    }

    #[inline]
    fn on_mem_access(&mut self, _cycle: u64, _seq: u64, latency: u64) {
        self.mem_latency.record(latency);
    }

    #[inline]
    fn on_writeback(&mut self, _cycle: u64, _seq: u64) {
        self.writebacks += 1;
    }

    #[inline]
    fn on_commit(&mut self, _cycle: u64, _seq: u64) {
        self.committed += 1;
    }

    #[inline]
    fn on_branch_resolve(&mut self, _cycle: u64, _pc: u64, _res: &BranchResolution) {
        self.branches += 1;
    }

    #[inline]
    fn on_mispredict(&mut self, _cycle: u64, _seq: u64, _pc: u64, _inflight: u32) {
        self.mispredicts += 1;
    }

    #[inline]
    fn on_recovery(&mut self, _cycle: u64, blocked_cycles: u64) {
        self.recovery.record(blocked_cycles);
    }

    #[inline]
    fn on_cache_stats(&mut self, snap: &CacheSnapshot) {
        self.cache = *snap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_through_hooks() {
        let mut p = CounterProbe::new();
        p.on_cycle(0, 10);
        p.on_cycle(1, 20);
        p.on_issue(0, 4, 4);
        p.on_fetch(0, 0, 0x40, false, true);
        p.on_commit(1, 0);
        p.on_mem_access(0, 0, 3);
        p.on_mispredict(1, 5, 0x80, 12);
        p.on_recovery(9, 8);
        assert_eq!(p.cycles, 2);
        assert_eq!(p.fetched, 1);
        assert_eq!(p.committed, 1);
        assert_eq!(p.mispredicts, 1);
        assert_eq!(p.rob_occupancy.count(), 2);
        assert_eq!(p.recovery.sum(), 8);
        // One 4-wide issue cycle + one idle active cycle.
        assert_eq!(
            p.issue_utilization(),
            vec![(0, 1), (1, 0), (2, 0), (3, 0), (4, 1)]
        );
        assert!((p.mean_issued() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = CounterProbe::new();
        a.on_cycle(0, 4);
        a.on_issue(0, 2, 4);
        let mut b = CounterProbe::new();
        b.on_cycle(0, 8);
        b.on_commit(0, 1);
        b.cache.l1d = (10, 2);
        a.merge(&b);
        assert_eq!(a.cycles, 2);
        assert_eq!(a.committed, 1);
        assert_eq!(a.rob_occupancy.count(), 2);
        assert_eq!(a.cache.l1d, (10, 2));
    }

    #[test]
    fn renders_markdown() {
        let mut p = CounterProbe::new();
        p.on_cycle(0, 4);
        p.on_issue(0, 1, 4);
        p.on_chain_read(0, 0x40, 3, 2, 1);
        let md = p.to_markdown();
        assert!(md.contains("| active cycles | 1 |"));
        assert!(md.contains("chain_len"));
    }
}
