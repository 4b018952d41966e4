//! Property tests for the probe merge algebra behind the grid rollup.
//!
//! `ObsGrid::from_outcomes` folds every cell's probes into a grid-wide
//! total, and the resume path rebuilds probes from journaled JSON
//! before merging — so the
//! merges must behave like the telemetry was recorded in one sitting,
//! regardless of how the cells were batched or ordered:
//!
//! * `Log2Hist::merge` must equal recording the concatenated samples;
//! * `CounterProbe::merge` must be associative and commutative (the
//!   grid total is a fold over cells);
//! * `SiteProbe::merge` must conserve per-site totals and account for
//!   every record dropped to capacity pressure.
//!
//! Probe equality is judged through the full-fidelity serialization
//! (`counters_to_json(..).render_compact()`), the same representation
//! the resume journal trusts.

use arvi::obs::{
    BranchResolution, CacheSnapshot, CounterProbe, Log2Hist, Probe, SiteProbe, SiteStats,
};
use arvi_bench::counters_to_json;
use proptest::prelude::*;

/// Sample values spread across the full bucket range: a raw 64-bit
/// value right-shifted by a random amount lands in low buckets as often
/// as high ones (plain `any::<u64>()` would almost never go below
/// 2^56).
fn any_sample() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(v, s)| v >> s)
}

/// One opaque counter-probe hook invocation: `(kind, x, y, z)` decoded
/// by [`drive`]. Generating the raw tuple keeps the strategy `Debug`
/// so failing cases print their op list.
fn any_ops() -> impl Strategy<Value = Vec<(u8, u64, u64, u32)>> {
    proptest::collection::vec((any::<u8>(), any_sample(), any_sample(), 0u32..256), 0..48)
}

/// Replays an op list against a probe through the real `Probe` hooks,
/// touching every counter, histogram, the issue buckets, and the cache
/// snapshot.
fn drive(p: &mut CounterProbe, ops: &[(u8, u64, u64, u32)]) {
    for &(kind, x, y, z) in ops {
        match kind % 12 {
            0 => p.on_cycle(x, z % 512),
            1 => p.on_fetch(x, y, y ^ 0x4000, z & 1 != 0, z & 2 != 0),
            2 => p.on_ddt_insert(x, y, z % 256),
            3 => p.on_chain_read(x, y, z % 32, z % 8, z % 4),
            4 => p.on_issue(x, z % 9, 8),
            5 => p.on_mem_access(x, y, y % 500),
            6 => p.on_writeback(x, y),
            7 => p.on_commit(x, y),
            8 => p.on_branch_resolve(
                x,
                y,
                &BranchResolution {
                    actual: z & 1 != 0,
                    final_taken: z & 2 != 0,
                    l1_taken: z & 4 != 0,
                    confident: z & 8 != 0,
                    override_fired: z & 16 != 0,
                    bvit_hit: z & 32 != 0,
                    load_class: if z & 64 != 0 {
                        Some(z & 128 != 0)
                    } else {
                        None
                    },
                },
            ),
            9 => p.on_mispredict(x, y, y ^ 0x4000, z % 128),
            10 => p.on_recovery(x, y % 1_000),
            11 => p.on_cache_stats(&CacheSnapshot {
                l1i: (x % 1_000, y % 100),
                l1d: (y % 1_000, x % 100),
                l2: (x % 500, y % 50),
                itlb: (z as u64, (z / 2) as u64),
                dtlb: ((z / 3) as u64, (z / 5) as u64),
            }),
            _ => unreachable!(),
        }
    }
}

fn probe_from(ops: &[(u8, u64, u64, u32)]) -> CounterProbe {
    let mut p = CounterProbe::new();
    drive(&mut p, ops);
    p
}

fn fingerprint(p: &CounterProbe) -> String {
    counters_to_json(p).render_compact()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hist_merge_equals_concatenated_samples(
        a in proptest::collection::vec(any_sample(), 0..64),
        b in proptest::collection::vec(any_sample(), 0..64),
    ) {
        let mut ha = Log2Hist::new();
        a.iter().for_each(|&v| ha.record(v));
        let mut hb = Log2Hist::new();
        b.iter().for_each(|&v| hb.record(v));

        let mut merged = ha.clone();
        merged.merge(&hb);

        let mut direct = Log2Hist::new();
        a.iter().chain(&b).for_each(|&v| direct.record(v));

        prop_assert_eq!(merged.count(), direct.count());
        // Both sides saturate identically: clipping at u64::MAX commutes
        // with adding further non-negative samples.
        prop_assert_eq!(merged.sum(), direct.sum());
        prop_assert_eq!(merged.max(), direct.max());
        let mb: Vec<(u64, u64)> = merged.nonzero_buckets().collect();
        let db: Vec<(u64, u64)> = direct.nonzero_buckets().collect();
        prop_assert_eq!(mb, db);
    }

    #[test]
    fn counter_merge_is_commutative(a in any_ops(), b in any_ops()) {
        let (pa, pb) = (probe_from(&a), probe_from(&b));
        let mut ab = pa.clone();
        ab.merge(&pb);
        let mut ba = pb.clone();
        ba.merge(&pa);
        prop_assert_eq!(fingerprint(&ab), fingerprint(&ba));
    }

    #[test]
    fn counter_merge_is_associative(a in any_ops(), b in any_ops(), c in any_ops()) {
        let (pa, pb, pc) = (probe_from(&a), probe_from(&b), probe_from(&c));

        // (a ∪ b) ∪ c
        let mut left = pa.clone();
        left.merge(&pb);
        left.merge(&pc);

        // a ∪ (b ∪ c)
        let mut bc = pb.clone();
        bc.merge(&pc);
        let mut right = pa.clone();
        right.merge(&bc);

        prop_assert_eq!(fingerprint(&left), fingerprint(&right));
    }

    #[test]
    fn site_merge_conserves_totals_when_capacity_suffices(
        a in proptest::collection::vec((0u64..8, 1u64..100, any::<u64>()), 0..32),
        b in proptest::collection::vec((0u64..8, 1u64..100, any::<u64>()), 0..32),
    ) {
        // At most 8 distinct PCs against a 16-slot table: nothing may
        // ever be dropped, and per-PC totals must add up exactly.
        let build = |rows: &[(u64, u64, u64)]| {
            let mut p = SiteProbe::with_capacity(16);
            for &(pc, total, bits) in rows {
                let correct = bits % (total + 1);
                p.record_stats(&SiteStats {
                    pc: 0x1000 + pc * 4,
                    total,
                    final_correct: correct,
                    l1_correct: total - correct,
                    overrides: bits % 7,
                    overrides_correcting: bits % 3,
                    confident: bits % 11,
                    confident_wrong: bits % 5,
                    bvit_hits: bits % 13,
                    load_class: bits % 2,
                });
            }
            p
        };
        let (pa, pb) = (build(&a), build(&b));
        let mut merged = pa.clone();
        merged.merge(&pb);
        prop_assert_eq!(merged.dropped, 0);

        let expect_total = |pc: u64| -> u64 {
            a.iter().chain(&b)
                .filter(|(p, ..)| 0x1000 + p * 4 == pc)
                .map(|(_, t, _)| t)
                .sum()
        };
        let mut seen = 0usize;
        for s in merged.iter() {
            prop_assert_eq!(s.total, expect_total(s.pc), "pc {:#x}", s.pc);
            prop_assert!(s.final_correct <= s.total);
            seen += 1;
        }
        prop_assert_eq!(seen, merged.sites);
        let union: std::collections::BTreeSet<u64> = a.iter().chain(&b)
            .map(|(p, ..)| p)
            .copied()
            .collect();
        prop_assert_eq!(merged.sites, union.len());
    }
}

#[test]
fn site_merge_accounts_for_every_drop() {
    // Overflow a 16-slot table from both sides. A dropped record
    // charges its execution count (`stats.total`) to `dropped`, so the
    // conservation law is over executions: stored totals + dropped ==
    // everything ever recorded, before and after the merge.
    let executions = |p: &SiteProbe| -> u64 { p.iter().map(|s| s.total).sum() };
    let build = |base: u64| {
        let mut p = SiteProbe::with_capacity(16);
        for i in 0..40u64 {
            p.record_stats(&SiteStats {
                pc: base + i * 8,
                total: 10,
                final_correct: 5,
                ..Default::default()
            });
        }
        p
    };
    let pa = build(0x1000);
    let pb = build(0x9000); // disjoint PCs: merge faces fresh inserts
    assert_eq!(executions(&pa) + pa.dropped, 400);
    assert_eq!(executions(&pb) + pb.dropped, 400);
    assert!(pa.dropped > 0, "40 distinct PCs must overflow 16 slots");

    let mut merged = pa.clone();
    merged.merge(&pb);
    assert_eq!(
        executions(&merged) + merged.dropped,
        800,
        "every execution is either stored or accounted as dropped"
    );
    // The merge carries both inputs' drop counts and adds its own for
    // pb's sites that no longer fit.
    assert!(merged.dropped > pa.dropped + pb.dropped);
}
