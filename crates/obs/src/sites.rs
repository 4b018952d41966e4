//! Per-static-branch (per-PC) attribution.

use crate::{BranchResolution, Probe};

/// Default site-table capacity (power of two). The SPEC-like synthetic
/// suite has a few hundred static branches per workload; 8192 leaves an
/// order of magnitude of headroom before sites are dropped.
pub const DEFAULT_SITE_CAPACITY: usize = 8192;

/// Accumulated outcomes of one static branch site.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteStats {
    /// The branch PC (byte address).
    pub pc: u64,
    /// Dynamic executions.
    pub total: u64,
    /// Followed direction correct.
    pub final_correct: u64,
    /// Level-1 direction correct (the no-L2 baseline).
    pub l1_correct: u64,
    /// L2 overrides fired.
    pub overrides: u64,
    /// Overrides that corrected a wrong L1 direction.
    pub overrides_correcting: u64,
    /// Rated high-confidence by the estimator.
    pub confident: u64,
    /// High-confidence *and* finally wrong — the estimator's worst
    /// failure mode (confidence pins the L1 result).
    pub confident_wrong: u64,
    /// ARVI BVIT hits.
    pub bvit_hits: u64,
    /// ARVI load-class instances.
    pub load_class: u64,
}

impl SiteStats {
    /// Final mispredicts at this site.
    pub fn mispredicts(&self) -> u64 {
        self.total - self.final_correct
    }

    /// Final-direction accuracy.
    pub fn final_accuracy(&self) -> f64 {
        rate(self.final_correct, self.total)
    }

    /// Level-1-only accuracy (what the site would score without ARVI).
    pub fn l1_accuracy(&self) -> f64 {
        rate(self.l1_correct, self.total)
    }

    /// Fraction of executions that were confident-but-wrong.
    pub fn confident_wrong_rate(&self) -> f64 {
        rate(self.confident_wrong, self.total)
    }
}

fn rate(n: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        n as f64 / total as f64
    }
}

/// Per-branch-PC attribution over a fixed open-addressed table: which
/// sites mispredict, whether ARVI beats the level-1 baseline there, and
/// where the confidence estimator pins wrong answers. Allocation
/// happens once at construction; recording is allocation-free.
#[derive(Debug)]
pub struct SiteProbe {
    slots: Box<[SiteStats]>,
    mask: usize,
    /// Distinct sites recorded.
    pub sites: usize,
    /// Resolutions dropped because the table was full.
    pub dropped: u64,
}

impl Clone for SiteProbe {
    /// Slot-for-slot the same table, written only where a site is
    /// recorded, so that, like its original, the clone costs the memory
    /// of its sites (see [`SiteProbe::with_capacity`]).
    fn clone(&self) -> SiteProbe {
        let mut clone = SiteProbe::with_capacity(self.slots.len());
        for (to, from) in clone.slots.iter_mut().zip(self.slots.iter()) {
            if from.total > 0 {
                *to = *from;
            }
        }
        clone.sites = self.sites;
        clone.dropped = self.dropped;
        clone
    }
}

impl Default for SiteProbe {
    fn default() -> SiteProbe {
        SiteProbe::with_capacity(DEFAULT_SITE_CAPACITY)
    }
}

impl SiteProbe {
    /// A probe with the default site capacity.
    pub fn new() -> SiteProbe {
        SiteProbe::default()
    }

    /// A probe tracking at most `capacity` (rounded up to a power of
    /// two) distinct sites.
    pub fn with_capacity(capacity: usize) -> SiteProbe {
        let cap = capacity.next_power_of_two().max(16);
        // A zeroed allocation maps a page of the table only when a site
        // is written to it, so a table costs the memory of the sites it
        // records, not of its capacity.
        // SAFETY: `SiteStats` is ten `u64`s, so all-zero bytes are a
        // valid value: its `Default`, the empty-slot sentinel.
        let slots = unsafe { Box::<[SiteStats]>::new_zeroed_slice(cap).assume_init() };
        SiteProbe {
            slots,
            mask: cap - 1,
            sites: 0,
            dropped: 0,
        }
    }

    /// The slot for `pc`, inserting if absent; `None` when the table is
    /// full. Linear probing; empty slots have `total == 0`.
    #[inline]
    fn slot_for(&mut self, pc: u64) -> Option<&mut SiteStats> {
        // Fibonacci hash spreads consecutive word PCs across the table.
        let mut i = (pc.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & self.mask;
        for _ in 0..=self.mask {
            let s = &self.slots[i];
            if s.total == 0 {
                self.sites += 1;
                let s = &mut self.slots[i];
                s.pc = pc;
                return Some(s);
            }
            if s.pc == pc {
                return Some(&mut self.slots[i]);
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Adds a whole [`SiteStats`] record into the table, inserting the
    /// PC if absent. Returns `false` — charging `stats.total` to
    /// [`SiteProbe::dropped`] instead — when the table is full and the
    /// PC is not already present. Records with `total == 0` are no-ops
    /// (an empty slot is the `total == 0` sentinel, so they carry no
    /// information anyway).
    pub fn record_stats(&mut self, stats: &SiteStats) -> bool {
        if stats.total == 0 {
            return true;
        }
        match self.slot_for(stats.pc) {
            Some(s) => {
                s.total += stats.total;
                s.final_correct += stats.final_correct;
                s.l1_correct += stats.l1_correct;
                s.overrides += stats.overrides;
                s.overrides_correcting += stats.overrides_correcting;
                s.confident += stats.confident;
                s.confident_wrong += stats.confident_wrong;
                s.bvit_hits += stats.bvit_hits;
                s.load_class += stats.load_class;
                true
            }
            None => {
                self.dropped = self.dropped.saturating_add(stats.total);
                false
            }
        }
    }

    /// Open-addressed table union: adds every site of `other` into
    /// `self`, inserting PCs that are absent. Drop accounting saturates
    /// and never loses resolutions silently — `other`'s already-dropped
    /// count carries over, and sites that no longer fit in `self` charge
    /// their executions to [`SiteProbe::dropped`].
    pub fn merge(&mut self, other: &SiteProbe) {
        self.dropped = self.dropped.saturating_add(other.dropped);
        for s in other.iter() {
            self.record_stats(s);
        }
    }

    /// All recorded sites (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &SiteStats> {
        self.slots.iter().filter(|s| s.total > 0)
    }

    /// The `n` sites with the most final mispredicts, worst first
    /// (ties broken by PC for determinism).
    pub fn top_sites(&self, n: usize) -> Vec<SiteStats> {
        let mut all: Vec<SiteStats> = self.iter().copied().collect();
        all.sort_by(|a, b| b.mispredicts().cmp(&a.mispredicts()).then(a.pc.cmp(&b.pc)));
        all.truncate(n);
        all
    }

    /// Markdown table of the top `n` mispredicting sites.
    pub fn to_markdown(&self, n: usize) -> String {
        let mut out = String::from(
            "| pc | executed | mispredicts | final acc | l1 acc | overrides (correcting) \
             | conf-wrong | bvit hits | load-class |\n|---|---|---|---|---|---|---|---|---|\n",
        );
        for s in self.top_sites(n) {
            out.push_str(&format!(
                "| 0x{:x} | {} | {} | {:.2}% | {:.2}% | {} ({}) | {:.2}% | {} | {} |\n",
                s.pc,
                s.total,
                s.mispredicts(),
                s.final_accuracy() * 100.0,
                s.l1_accuracy() * 100.0,
                s.overrides,
                s.overrides_correcting,
                s.confident_wrong_rate() * 100.0,
                s.bvit_hits,
                s.load_class,
            ));
        }
        out.push_str(&format!(
            "\n{} distinct sites ({} resolutions dropped, table capacity {})\n",
            self.sites,
            self.dropped,
            self.mask + 1
        ));
        out
    }
}

impl Probe for SiteProbe {
    #[inline]
    fn on_branch_resolve(&mut self, _cycle: u64, pc: u64, res: &BranchResolution) {
        let Some(s) = self.slot_for(pc) else {
            self.dropped += 1;
            return;
        };
        s.total += 1;
        s.final_correct += res.final_correct() as u64;
        s.l1_correct += res.l1_correct() as u64;
        s.overrides += res.override_fired as u64;
        s.overrides_correcting +=
            (res.override_fired && res.final_correct() && !res.l1_correct()) as u64;
        s.confident += res.confident as u64;
        s.confident_wrong += (res.confident && !res.final_correct()) as u64;
        s.bvit_hits += res.bvit_hit as u64;
        s.load_class += res.load_class.unwrap_or(false) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(actual: bool, l1: bool, fin: bool, confident: bool) -> BranchResolution {
        BranchResolution {
            actual,
            final_taken: fin,
            l1_taken: l1,
            confident,
            override_fired: l1 != fin,
            bvit_hit: true,
            load_class: Some(false),
        }
    }

    #[test]
    fn attribution_per_site() {
        let mut p = SiteProbe::with_capacity(16);
        // Site A: L1 wrong, ARVI corrects (override fires).
        for _ in 0..10 {
            p.on_branch_resolve(0, 0x40, &res(true, false, true, false));
        }
        // Site B: confidently wrong twice.
        for _ in 0..2 {
            p.on_branch_resolve(0, 0x80, &res(true, false, false, true));
        }
        assert_eq!(p.sites, 2);
        let top = p.top_sites(10);
        assert_eq!(top[0].pc, 0x80, "most mispredicts first");
        assert_eq!(top[0].confident_wrong, 2);
        assert_eq!(top[1].pc, 0x40);
        assert_eq!(top[1].mispredicts(), 0);
        assert_eq!(top[1].overrides_correcting, 10);
        assert!((top[1].l1_accuracy() - 0.0).abs() < 1e-9);
        assert!((top[1].final_accuracy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_table_drops_new_sites_not_old() {
        let mut p = SiteProbe::with_capacity(16);
        for pc in 0..40u64 {
            p.on_branch_resolve(0, pc * 4, &res(true, true, true, true));
        }
        assert_eq!(p.sites, 16);
        assert_eq!(p.dropped, 24);
        // Existing sites still record.
        let known = p.iter().next().unwrap().pc;
        let before = p.iter().find(|s| s.pc == known).unwrap().total;
        p.on_branch_resolve(0, known, &res(true, true, true, true));
        assert_eq!(p.iter().find(|s| s.pc == known).unwrap().total, before + 1);
    }

    #[test]
    fn merge_unions_tables() {
        let mut a = SiteProbe::with_capacity(16);
        let mut b = SiteProbe::with_capacity(16);
        for _ in 0..3 {
            a.on_branch_resolve(0, 0x40, &res(true, false, true, false));
        }
        for _ in 0..5 {
            b.on_branch_resolve(0, 0x40, &res(true, true, true, true));
        }
        b.on_branch_resolve(0, 0x80, &res(true, false, false, true));
        b.dropped = 7;
        a.merge(&b);
        assert_eq!(a.sites, 2);
        assert_eq!(a.dropped, 7, "other's drops carry over");
        let shared = a.iter().find(|s| s.pc == 0x40).unwrap();
        assert_eq!(shared.total, 8);
        assert_eq!(shared.final_correct, 8);
        assert_eq!(shared.l1_correct, 5);
        assert_eq!(shared.overrides, 3);
        assert_eq!(shared.confident, 5);
        let new = a.iter().find(|s| s.pc == 0x80).unwrap();
        assert_eq!(new.total, 1);
        assert_eq!(new.confident_wrong, 1);
    }

    #[test]
    fn merge_into_full_table_counts_drops() {
        let mut a = SiteProbe::with_capacity(16);
        for pc in 0..16u64 {
            a.on_branch_resolve(0, pc * 4, &res(true, true, true, true));
        }
        assert_eq!(a.sites, 16);
        let mut b = SiteProbe::with_capacity(16);
        // One PC already in `a`, one that cannot fit.
        for _ in 0..2 {
            b.on_branch_resolve(0, 0, &res(true, true, true, true));
        }
        for _ in 0..9 {
            b.on_branch_resolve(0, 0x9000, &res(true, true, true, true));
        }
        a.merge(&b);
        assert_eq!(a.sites, 16);
        assert_eq!(a.dropped, 9, "unfittable site's executions are charged");
        assert_eq!(a.iter().find(|s| s.pc == 0).unwrap().total, 3);
    }

    #[test]
    fn record_stats_ignores_empty() {
        let mut a = SiteProbe::with_capacity(16);
        assert!(a.record_stats(&SiteStats::default()));
        assert_eq!(a.sites, 0);
    }

    #[test]
    fn renders() {
        let mut p = SiteProbe::new();
        p.on_branch_resolve(0, 0x40, &res(true, false, false, false));
        let md = p.to_markdown(5);
        assert!(md.contains("0x40"), "{md}");
    }

    #[test]
    fn clone_copies_every_site_in_place() {
        let mut p = SiteProbe::with_capacity(64);
        for pc in [0x40u64, 0x44, 0x1040, 0x80] {
            p.record_stats(&SiteStats {
                pc,
                total: pc,
                bvit_hits: 1,
                ..SiteStats::default()
            });
        }
        p.dropped = 5;
        let c = p.clone();
        assert_eq!((c.sites, c.dropped, c.mask), (p.sites, p.dropped, p.mask));
        for (a, b) in c.slots.iter().zip(p.slots.iter()) {
            assert_eq!((a.pc, a.total, a.bvit_hits), (b.pc, b.total, b.bvit_hits));
        }
    }
}
