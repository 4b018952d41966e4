//! Property-based tests of the dependence-tracking core against
//! independent reference models.

use arvi::core::{ChainMask, Ddt, DdtConfig, InstSlot, PhysReg, RenamedOp, Tracker, TrackerConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// A random in-flight instruction description.
#[derive(Debug, Clone)]
struct OpDesc {
    dest: u16,
    src1: Option<u16>,
    src2: Option<u16>,
    is_load: bool,
}

fn op_strategy(phys_regs: u16) -> impl Strategy<Value = OpDesc> {
    (
        1..phys_regs,
        proptest::option::of(0..phys_regs),
        proptest::option::of(0..phys_regs),
        any::<bool>(),
    )
        .prop_map(|(dest, src1, src2, is_load)| OpDesc {
            dest,
            src1,
            src2,
            is_load,
        })
}

/// Reference model: recompute every register's chain as the transitive
/// closure of producer edges over live (inserted, not committed)
/// instructions.
#[derive(Default)]
struct RefModel {
    /// Per register: the set of live instruction ids it depends on.
    reg_chain: std::collections::HashMap<u16, HashSet<u64>>,
    /// Live instruction ids.
    live: HashSet<u64>,
    fifo: std::collections::VecDeque<u64>,
    next_id: u64,
}

impl RefModel {
    fn insert(&mut self, op: &OpDesc) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let mut chain = HashSet::new();
        for src in [op.src1, op.src2].into_iter().flatten() {
            if let Some(c) = self.reg_chain.get(&src) {
                chain.extend(c.iter().filter(|i| self.live.contains(i)).copied());
            }
        }
        chain.insert(id);
        self.reg_chain.insert(op.dest, chain);
        self.live.insert(id);
        self.fifo.push_back(id);
        id
    }

    fn commit_oldest(&mut self) {
        let id = self.fifo.pop_front().expect("non-empty");
        self.live.remove(&id);
    }

    /// Squashes every instruction with id >= `new_head` (branch
    /// misprediction recovery); ids restart from `new_head`.
    fn rollback_to(&mut self, new_head: u64) {
        while self.fifo.back().is_some_and(|&id| id >= new_head) {
            let id = self.fifo.pop_back().expect("checked back");
            self.live.remove(&id);
        }
        self.next_id = new_head;
    }

    fn chain(&self, reg: u16) -> HashSet<u64> {
        self.reg_chain
            .get(&reg)
            .map(|c| {
                c.iter()
                    .filter(|i| self.live.contains(i))
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// A DDT slot count and an op sequence longer than twice it, so the
/// position ring (`seq mod 2·slots`) wraps at least once. The counts
/// cover a sub-word window, the machine's word multiple and a
/// non-multiple of 64.
fn slots_and_ops(phys_regs: u16) -> impl Strategy<Value = (usize, Vec<OpDesc>)> {
    const SLOTS: [usize; 3] = [16, 64, 80];
    (
        0..SLOTS.len(),
        0.0f64..1.0,
        proptest::collection::vec(op_strategy(phys_regs), 240..241),
    )
        .prop_map(|(i, frac, mut ops)| {
            let slots = SLOTS[i];
            ops.truncate(2 * slots + 1 + (slots as f64 * frac) as usize);
            (slots, ops)
        })
}

fn mask_ids(ddt: &Ddt, mask: &ChainMask) -> HashSet<u64> {
    mask.slots().map(|s| ddt.slot_seq(s)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DDT's chain reads equal the reference transitive closure at
    /// every step, across arbitrary insert/commit interleavings and slot
    /// reuse.
    #[test]
    fn ddt_matches_transitive_closure(
        window in slots_and_ops(24),
        commit_pattern in proptest::collection::vec(0u8..3, 1..120),
    ) {
        let (slots, ops) = window;
        let mut ddt = Ddt::new(DdtConfig { slots, phys_regs: 24 });
        let mut reference = RefModel::default();

        for (op, commits) in ops.iter().zip(commit_pattern.iter().cycle()) {
            if ddt.is_full() {
                ddt.commit_oldest();
                reference.commit_oldest();
            }
            let srcs = [op.src1.map(PhysReg), op.src2.map(PhysReg)];
            ddt.insert(Some(PhysReg(op.dest)), srcs);
            reference.insert(op);
            for _ in 0..*commits {
                if !ddt.is_empty() && ddt.occupancy() > 1 {
                    ddt.commit_oldest();
                    reference.commit_oldest();
                }
            }
            // Compare the chain of every register that has a producer.
            for reg in 0..24u16 {
                let got = mask_ids(&ddt, &ddt.chain(&[PhysReg(reg)]));
                let want = reference.chain(reg);
                prop_assert_eq!(&got, &want, "register p{} diverged", reg);
            }
        }
    }

    /// The RSE leaf set equals {sources of non-load chain members plus
    /// branch operands} minus {targets of non-load chain members},
    /// recomputed independently.
    #[test]
    fn rse_leaf_set_matches_reference(
        window in slots_and_ops(20),
        branch_src in 0u16..20,
    ) {
        let (slots, ops) = window;
        let mut t = Tracker::new(TrackerConfig {
            ddt: DdtConfig { slots, phys_regs: 20 },
            track_dependents: false,
        });
        let mut inserted: Vec<OpDesc> = Vec::new();
        for op in &ops {
            if t.is_full() {
                t.commit_oldest();
            }
            t.insert(&RenamedOp {
                dest: Some(PhysReg(op.dest)),
                srcs: [op.src1.map(PhysReg), op.src2.map(PhysReg)],
                is_load: op.is_load,
            });
            inserted.push(op.clone());
        }
        let got: HashSet<u16> = t
            .leaf_set([Some(PhysReg(branch_src)), None])
            .regs
            .iter()
            .map(|r| r.0)
            .collect();

        // Reference: chain membership ids via the tracker's own DDT (the
        // closure property is verified independently above), S/T marks
        // recomputed from the op list.
        let chain = t.chain(&[PhysReg(branch_src)]);
        let member_ids: HashSet<u64> =
            chain.slots().map(|s| t.ddt().slot_seq(s)).collect();
        let mut s_marks: HashSet<u16> = HashSet::new();
        let mut t_marks: HashSet<u16> = HashSet::new();
        for (id, op) in inserted.iter().enumerate() {
            if !member_ids.contains(&(id as u64)) || op.is_load {
                continue;
            }
            s_marks.extend([op.src1, op.src2].into_iter().flatten());
            t_marks.insert(op.dest);
        }
        s_marks.insert(branch_src);
        let want: HashSet<u16> = s_marks.difference(&t_marks).copied().collect();
        prop_assert_eq!(got, want);
    }

    /// The zero-allocation path (`insert` with its fused in-place row
    /// write, plus `chain_into` reusing one mask for every read) matches
    /// the naive reference model across arbitrary interleavings of
    /// inserts, commits and rollbacks.
    ///
    /// Rows last written by a since-squashed instruction are excluded
    /// from the comparison: hardware does not roll row contents back
    /// (the squashed column is merely invalidated and rename recovery
    /// makes the row unreachable), so such rows legitimately diverge
    /// from a transitive-closure reference.
    #[test]
    fn zero_alloc_path_matches_reference_across_rollbacks(
        window in slots_and_ops(24),
        actions in proptest::collection::vec((0u8..8, 0.0f64..1.0), 1..150),
    ) {
        let (slots, ops) = window;
        let mut ddt = Ddt::new(DdtConfig { slots, phys_regs: 24 });
        let mut reference = RefModel::default();
        let mut writer: std::collections::HashMap<u16, u64> =
            std::collections::HashMap::new();
        // Registers whose row was last written by a squashed instruction:
        // excluded until a fresh producer rewrites the row.
        let mut stale: HashSet<u16> = HashSet::new();
        let mut mask = ChainMask::zeroed(slots);

        for (op, (action, frac)) in ops.iter().zip(actions.iter().cycle()) {
            if ddt.is_full() {
                ddt.commit_oldest();
                reference.commit_oldest();
            }
            let seq = ddt.next_seq();
            let srcs = [op.src1.map(PhysReg), op.src2.map(PhysReg)];
            ddt.insert(Some(PhysReg(op.dest)), srcs);
            reference.insert(op);
            writer.insert(op.dest, seq);
            stale.remove(&op.dest);

            match action {
                // Commit up to two of the oldest.
                0 | 1 => {
                    for _ in 0..=(*action) {
                        if ddt.occupancy() > 1 {
                            ddt.commit_oldest();
                            reference.commit_oldest();
                        }
                    }
                }
                // Roll back to a random point in the live window.
                2 => {
                    let (tail, head) = (ddt.tail_seq(), ddt.next_seq());
                    let target = tail + ((head - tail) as f64 * frac) as u64;
                    ddt.rollback_to(target);
                    reference.rollback_to(target);
                    for (&reg, &w) in &writer {
                        if w >= target {
                            stale.insert(reg);
                        }
                    }
                }
                _ => {}
            }

            // Compare every row whose last writer survives; chain_into
            // reuses the same mask throughout, so stale contents from
            // the previous read must never leak.
            for reg in 0..24u16 {
                if stale.contains(&reg) {
                    continue; // writer squashed: row contents are stale
                }
                ddt.chain_into(&[PhysReg(reg)], &mut mask);
                let got = mask_ids(&ddt, &mask);
                let want = reference.chain(reg);
                prop_assert_eq!(&got, &want, "register p{} diverged", reg);
            }
        }
    }

    /// Rollback leaves exactly the pre-rollback prefix live: a chain read
    /// never references squashed instructions.
    #[test]
    fn rollback_hides_squashed_instructions(
        window in slots_and_ops(16),
        keep_frac in 0.1f64..0.9,
    ) {
        let (slots, ops) = window;
        let mut ddt = Ddt::new(DdtConfig { slots, phys_regs: 16 });
        for op in &ops {
            if ddt.is_full() {
                ddt.commit_oldest();
            }
            ddt.insert(Some(PhysReg(op.dest)), [op.src1.map(PhysReg), op.src2.map(PhysReg)]);
        }
        let (tail, head) = (ddt.tail_seq(), ddt.next_seq());
        let keep = tail + (((head - tail) as f64 * keep_frac) as u64).max(1);
        ddt.rollback_to(keep);
        for reg in 0..16u16 {
            let ids = mask_ids(&ddt, &ddt.chain(&[PhysReg(reg)]));
            prop_assert!(
                ids.iter().all(|&i| i < keep),
                "register p{reg} references squashed id: {ids:?} (keep {keep})"
            );
        }
    }

    /// Dependent counters equal the number of younger instructions whose
    /// insertion-time chain contained the counted instruction.
    #[test]
    fn dependent_counters_match_reference(
        window in slots_and_ops(16),
    ) {
        let (slots, ops) = window;
        let mut t = Tracker::new(TrackerConfig {
            ddt: DdtConfig { slots, phys_regs: 16 },
            track_dependents: true,
        });
        let mut reference = RefModel::default();
        let mut renamed = Vec::new();
        let mut insertion_chains: Vec<HashSet<u64>> = Vec::new();
        for op in &ops {
            if t.is_full() {
                t.commit_oldest();
                reference.commit_oldest();
            }
            let r = RenamedOp {
                dest: Some(PhysReg(op.dest)),
                srcs: [op.src1.map(PhysReg), op.src2.map(PhysReg)],
                is_load: op.is_load,
            };
            renamed.push(t.insert(&r));
            let id = reference.insert(op);
            insertion_chains.push(reference.chain(op.dest));
            debug_assert!(insertion_chains[id as usize].contains(&id));
        }
        // Only in-flight instructions keep their slot and counter; every
        // younger instruction was inserted while they were live.
        let tail = t.ddt().tail_seq() as usize;
        for (i, &slot) in renamed.iter().enumerate().skip(tail) {
            let expected = insertion_chains
                .iter()
                .enumerate()
                .filter(|(j, chain)| *j != i && chain.contains(&(i as u64)))
                .count() as u32;
            prop_assert_eq!(
                t.dependents(slot),
                expected,
                "instruction {} dependents",
                i
            );
        }
    }
}

#[test]
fn figure_examples_are_stable() {
    // Pin the paper's worked examples as an integration-level regression
    // (unit tests cover them in-crate; this guards the public API path).
    let p = PhysReg;
    let mut t = Tracker::new(TrackerConfig {
        ddt: DdtConfig {
            slots: 9,
            phys_regs: 10,
        },
        track_dependents: false,
    });
    t.insert(&RenamedOp::load(p(1), Some(p(2))));
    t.insert(&RenamedOp::alu(p(4), [Some(p(1)), Some(p(3))]));
    t.insert(&RenamedOp::alu(p(5), [Some(p(4)), Some(p(1))]));
    t.insert(&RenamedOp::alu(p(6), [Some(p(5)), Some(p(4))]));
    t.insert(&RenamedOp::alu(p(7), [Some(p(1)), None]));
    t.insert(&RenamedOp::alu(p(8), [Some(p(4)), Some(p(7))]));
    let set = t.leaf_set([Some(p(8)), None]);
    assert_eq!(set.regs, vec![p(1), p(3)]);
    assert_eq!(
        t.chain(&[p(8)]).slots().collect::<Vec<_>>(),
        vec![InstSlot(0), InstSlot(1), InstSlot(4), InstSlot(5)]
    );
}
