//! The Register Set Extractor (RSE) and the combined dependence tracker —
//! paper Section 4.2.
//!
//! The RSE is a RAM with the same dimensions as the DDT, but each location
//! holds two bits encoding whether the instruction in that column uses the
//! register as a *source* (`S`) or as its *target* (`T`). Loads set
//! neither: "the ARVI predictor treats load instructions as termination
//! points in the chain".
//!
//! Given a branch, the DDT rows of its operand registers form an enable bit
//! vector over instruction entries; the RSE consolidates, per register,
//! *source-marked and not target-marked* among the enabled entries. The
//! result is the minimal **register set**: the live inputs that generate
//! the value(s) compared by the branch. Registers produced by in-flight
//! ALU instructions in the chain are redundant (their values are computed
//! from other chain inputs) and are excluded by the `T` mark.
//!
//! One refinement over the paper's figure (design decision D1): the
//! branch's own source registers are also S-marked, which is equivalent
//! to including the branch's own about-to-be-inserted RSE column. Without it, a branch reading a load result *directly* (with no
//! intermediate ALU op — e.g. `beq t1, key` after `ld t1, 0(ptr)`) would
//! extract an empty set.

use crate::ddt::{ChainMask, Ddt, DdtConfig};
use crate::reglist::RegList;
use crate::types::{InstSlot, PhysReg};

/// Shape parameters for a [`Tracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerConfig {
    /// DDT dimensions (shared by the RSE).
    pub ddt: DdtConfig,
    /// Maintain per-instruction dependent counts (the Section 3
    /// "dynamic scheduling" extension: a small counter per entry counting
    /// trailing data-dependent instructions). Off by default; enabled by
    /// the `arvi-apps` crate.
    pub track_dependents: bool,
}

/// Operand information for one renamed, in-flight instruction (one RSE
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenamedOp {
    /// Destination physical register, if the instruction produces a value.
    pub dest: Option<PhysReg>,
    /// Source physical registers.
    pub srcs: [Option<PhysReg>; 2],
    /// Whether the instruction is a memory load (chain terminator).
    pub is_load: bool,
}

impl RenamedOp {
    /// A convenience constructor for an ALU-class operation.
    pub fn alu(dest: PhysReg, srcs: [Option<PhysReg>; 2]) -> RenamedOp {
        RenamedOp {
            dest: Some(dest),
            srcs,
            is_load: false,
        }
    }

    /// A convenience constructor for a load.
    pub fn load(dest: PhysReg, addr_base: Option<PhysReg>) -> RenamedOp {
        RenamedOp {
            dest: Some(dest),
            srcs: [addr_base, None],
            is_load: true,
        }
    }
}

/// The register set extracted for a branch, plus chain metadata.
///
/// `regs` uses small-inline storage ([`RegList`]): typical sets live
/// entirely on the stack, and a `LeafSet` reused via
/// [`Tracker::leaf_set_into`] is allocation-free in steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeafSet {
    /// The extracted registers (sources of the chain not produced within
    /// it), in ascending physical-register order.
    pub regs: RegList,
    /// Number of instructions in the dependence chain.
    pub chain_len: usize,
    /// Sequence number of the oldest chain instruction, if any.
    pub oldest_seq: Option<u64>,
}

impl LeafSet {
    /// The paper's dependence-chain *depth* (Section 4.5): the maximum
    /// number of instructions spanned by the chain, measured from the
    /// branch back to the furthest chain instruction, saturated to
    /// `bits` bits (5 in the paper).
    pub fn depth_key(&self, branch_seq: u64, bits: u32) -> u8 {
        let max = (1u64 << bits) - 1;
        match self.oldest_seq {
            Some(oldest) => branch_seq.saturating_sub(oldest).min(max) as u8,
            None => 0,
        }
    }
}

/// The combined DDT + RSE dependence tracker: the "dependence tracking
/// hardware" the ARVI predictor builds on.
///
/// # Example
///
/// ```
/// use arvi_core::{Tracker, TrackerConfig, DdtConfig, RenamedOp, PhysReg};
///
/// let mut t = Tracker::new(TrackerConfig {
///     ddt: DdtConfig { slots: 16, phys_regs: 16 },
///     track_dependents: false,
/// });
/// let p = |i| PhysReg(i);
/// t.insert(&RenamedOp::load(p(1), Some(p(2))));   // p1 = mem[p2]
/// t.insert(&RenamedOp::alu(p(4), [Some(p(1)), Some(p(3))])); // p4 = p1+p3
/// let set = t.leaf_set([Some(p(4)), None]);
/// assert_eq!(set.regs, vec![p(1), p(3)]);
/// ```
#[derive(Debug, Clone)]
pub struct Tracker {
    ddt: Ddt,
    info: Vec<RenamedOp>,
    dependents: Vec<u32>,
    track_dependents: bool,
    /// Scratch bitmasks over physical registers for S and T marks.
    s_mask: Vec<u64>,
    t_mask: Vec<u64>,
    /// Reusable chain mask for leaf-set extraction and dependent
    /// counting — keeps the per-instruction path allocation-free.
    chain_scratch: ChainMask,
}

impl Tracker {
    /// Creates an empty tracker.
    pub fn new(cfg: TrackerConfig) -> Tracker {
        let pr_words = cfg.ddt.phys_regs.div_ceil(64);
        Tracker {
            ddt: Ddt::new(cfg.ddt),
            info: vec![
                RenamedOp {
                    dest: None,
                    srcs: [None, None],
                    is_load: false,
                };
                cfg.ddt.slots
            ],
            dependents: vec![
                0;
                if cfg.track_dependents {
                    cfg.ddt.slots
                } else {
                    0
                }
            ],
            track_dependents: cfg.track_dependents,
            s_mask: vec![0; pr_words],
            t_mask: vec![0; pr_words],
            chain_scratch: ChainMask::zeroed(cfg.ddt.slots),
        }
    }

    /// The underlying DDT.
    pub fn ddt(&self) -> &Ddt {
        &self.ddt
    }

    /// Sequence number the next inserted instruction will receive.
    pub fn next_seq(&self) -> u64 {
        self.ddt.next_seq()
    }

    /// In-flight instruction count.
    pub fn occupancy(&self) -> usize {
        self.ddt.occupancy()
    }

    /// Whether the tracker can accept another instruction.
    pub fn is_full(&self) -> bool {
        self.ddt.is_full()
    }

    /// Inserts a renamed instruction into the DDT and RSE.
    ///
    /// # Panics
    ///
    /// Panics if the tracker is full.
    pub fn insert(&mut self, op: &RenamedOp) -> InstSlot {
        if self.track_dependents {
            // Section 3 extension: bump the trailing-dependent counter of
            // every instruction this one depends on.
            let (srcs, n) = Tracker::pack_operands(op.srcs);
            self.ddt.chain_into(&srcs[..n], &mut self.chain_scratch);
            for s in self.chain_scratch.slots() {
                self.dependents[s.index()] += 1;
            }
        }
        let slot = self.ddt.insert(op.dest, op.srcs);
        self.info[slot.index()] = *op;
        if self.track_dependents {
            self.dependents[slot.index()] = 0;
        }
        slot
    }

    /// Reads the dependence chain of a register set (DDT read).
    pub fn chain(&self, regs: &[PhysReg]) -> ChainMask {
        self.ddt.chain(regs)
    }

    /// Operand information of the (valid) occupant of `slot`.
    pub fn slot_info(&self, slot: InstSlot) -> &RenamedOp {
        &self.info[slot.index()]
    }

    /// Number of in-flight instructions data-dependent on the occupant of
    /// `slot` (requires `track_dependents`).
    ///
    /// # Panics
    ///
    /// Panics if dependent tracking is disabled.
    pub fn dependents(&self, slot: InstSlot) -> u32 {
        assert!(
            self.track_dependents,
            "dependent tracking disabled in TrackerConfig"
        );
        self.dependents[slot.index()]
    }

    /// Packs an operand pair into a dense array, returning the count.
    #[inline]
    pub fn pack_operands(srcs: [Option<PhysReg>; 2]) -> ([PhysReg; 2], usize) {
        let mut packed = [PhysReg(0); 2];
        let mut n = 0;
        for src in srcs.into_iter().flatten() {
            packed[n] = src;
            n += 1;
        }
        (packed, n)
    }

    /// Extracts the branch's register set (the RSE operation, Figure 3).
    ///
    /// `branch_srcs` are the branch's own operand physical registers. The
    /// returned set contains every register that is a source of the
    /// branch's dependence chain (loads excluded as terminators) but not
    /// produced within it.
    ///
    /// Allocating wrapper over [`Tracker::leaf_set_into`].
    pub fn leaf_set(&mut self, branch_srcs: [Option<PhysReg>; 2]) -> LeafSet {
        let mut out = LeafSet::default();
        self.leaf_set_into(branch_srcs, &mut out);
        out
    }

    /// In-place variant of [`Tracker::leaf_set`]: extracts into `out`,
    /// reusing its storage. Steady-state allocation-free (the register
    /// list only touches the heap past [`RegList::INLINE`] entries, and
    /// then retains the capacity).
    pub fn leaf_set_into(&mut self, branch_srcs: [Option<PhysReg>; 2], out: &mut LeafSet) {
        self.s_mask.fill(0);
        self.t_mask.fill(0);

        let (operands, n_ops) = Tracker::pack_operands(branch_srcs);
        let operands = &operands[..n_ops];
        self.ddt.chain_into(operands, &mut self.chain_scratch);

        let mut chain_len = 0usize;
        let mut oldest_seq: Option<u64> = None;
        for slot in self.chain_scratch.slots() {
            chain_len += 1;
            let seq = self.ddt.slot_seq(slot);
            oldest_seq = Some(oldest_seq.map_or(seq, |o: u64| o.min(seq)));
            let info = &self.info[slot.index()];
            if info.is_load {
                // "we do not set the source and target registers for loads"
                continue;
            }
            for src in info.srcs.iter().flatten() {
                self.s_mask[src.index() / 64] |= 1u64 << (src.index() % 64);
            }
            if let Some(d) = info.dest {
                self.t_mask[d.index() / 64] |= 1u64 << (d.index() % 64);
            }
        }

        // D1: the branch's own sources participate as S marks.
        for src in operands {
            self.s_mask[src.index() / 64] |= 1u64 << (src.index() % 64);
        }

        // Consolidate: register is in the set iff S and not T.
        out.regs.clear();
        for (wi, (&s, &t)) in self.s_mask.iter().zip(&self.t_mask).enumerate() {
            let mut bits = s & !t;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                out.regs.push(PhysReg((wi * 64) as u16 + b as u16));
            }
        }
        out.chain_len = chain_len;
        out.oldest_seq = oldest_seq;
    }

    /// Commits the oldest in-flight instruction.
    ///
    /// # Panics
    ///
    /// Panics if the tracker is empty.
    pub fn commit_oldest(&mut self) -> InstSlot {
        self.ddt.commit_oldest()
    }

    /// Rolls back to `new_head_seq`, squashing younger instructions.
    pub fn rollback_to(&mut self, new_head_seq: u64) {
        self.ddt.rollback_to(new_head_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> PhysReg {
        PhysReg(i)
    }

    fn cfg(slots: usize, phys_regs: usize) -> TrackerConfig {
        TrackerConfig {
            ddt: DdtConfig { slots, phys_regs },
            track_dependents: false,
        }
    }

    /// The full worked example of the paper's Figure 3:
    ///
    /// ```text
    /// 1: load p1 (p2)         <- loads mark nothing in the RSE
    /// 2: add  p4 = p1 + p3
    /// 3: or   p5 = p4 | p1
    /// 4: sub  p6 = p5 - p4
    /// 5: add  p7 = p1 + 1
    /// 6: add  p8 = p4 + p7
    /// 7: beq  p8, 0
    /// ```
    ///
    /// Expected register set: {p1, p3}. "Notice that p4 and p7 are
    /// eliminated since their values are determined from p1 and p3. The
    /// register p1 is included because with ARVI loads are terminators of
    /// the DD chain. The register p3 is in the set because its value is
    /// currently available."
    #[test]
    fn paper_figure_3() {
        let mut t = Tracker::new(cfg(9, 10));
        t.insert(&RenamedOp::load(p(1), Some(p(2))));
        t.insert(&RenamedOp::alu(p(4), [Some(p(1)), Some(p(3))]));
        t.insert(&RenamedOp::alu(p(5), [Some(p(4)), Some(p(1))]));
        t.insert(&RenamedOp::alu(p(6), [Some(p(5)), Some(p(4))]));
        t.insert(&RenamedOp::alu(p(7), [Some(p(1)), None]));
        t.insert(&RenamedOp::alu(p(8), [Some(p(4)), Some(p(7))]));
        let set = t.leaf_set([Some(p(8)), None]);
        assert_eq!(set.regs, vec![p(1), p(3)]);
        assert_eq!(set.chain_len, 4); // instructions 1, 2, 5, 6
        assert_eq!(set.oldest_seq, Some(0));
        // Depth key for the branch at seq 6 spans back to the load at 0.
        assert_eq!(set.depth_key(6, 5), 6);
    }

    #[test]
    fn direct_load_consumer_includes_load_target() {
        // beq t1, key  directly after  ld t1, 0(ptr): without D1 the set
        // would be empty; with it, {t1, key}.
        let mut t = Tracker::new(cfg(8, 16));
        let (ptr, t1, key) = (p(1), p(2), p(3));
        t.insert(&RenamedOp::load(t1, Some(ptr)));
        let set = t.leaf_set([Some(t1), Some(key)]);
        assert_eq!(set.regs, vec![t1, key]);
        assert_eq!(set.chain_len, 1);
    }

    #[test]
    fn empty_chain_yields_branch_operands() {
        // All producers committed: the set is the branch's own operands —
        // whose values are available (a calculated branch keyed by the
        // actual comparison inputs).
        let mut t = Tracker::new(cfg(8, 16));
        t.insert(&RenamedOp::alu(p(1), [None, None]));
        t.commit_oldest();
        let set = t.leaf_set([Some(p(1)), Some(p(2))]);
        assert_eq!(set.regs, vec![p(1), p(2)]);
        assert_eq!(set.chain_len, 0);
        assert_eq!(set.oldest_seq, None);
        assert_eq!(set.depth_key(10, 5), 0);
    }

    #[test]
    fn chain_internal_registers_are_excluded() {
        // p3 = f(p1); p4 = g(p3); branch on p4: p3 is produced within the
        // chain, so only p1 remains.
        let mut t = Tracker::new(cfg(8, 16));
        t.insert(&RenamedOp::alu(p(3), [Some(p(1)), None]));
        t.insert(&RenamedOp::alu(p(4), [Some(p(3)), None]));
        let set = t.leaf_set([Some(p(4)), None]);
        assert_eq!(set.regs, vec![p(1)]);
    }

    #[test]
    fn loads_terminate_the_chain_walk() {
        // p2 = mem[p1]; p3 = p2 + p9; branch on p3.
        // The load contributes no S mark for p1: the address register is
        // beyond the termination point. Set = {p2, p9}.
        let mut t = Tracker::new(cfg(8, 16));
        t.insert(&RenamedOp::load(p(2), Some(p(1))));
        t.insert(&RenamedOp::alu(p(3), [Some(p(2)), Some(p(9))]));
        let set = t.leaf_set([Some(p(3)), None]);
        assert_eq!(set.regs, vec![p(2), p(9)]);
    }

    #[test]
    fn depth_key_saturates() {
        let mut t = Tracker::new(cfg(64, 16));
        t.insert(&RenamedOp::alu(p(1), [None, None]));
        for _ in 0..40 {
            t.insert(&RenamedOp::alu(p(1), [Some(p(1)), None]));
        }
        let set = t.leaf_set([Some(p(1)), None]);
        // Branch would be seq 41; oldest chain seq is 0; 5-bit key
        // saturates at 31.
        assert_eq!(set.depth_key(41, 5), 31);
    }

    #[test]
    fn dependent_counters_count_trailing_chain_members() {
        let mut t = Tracker::new(TrackerConfig {
            ddt: DdtConfig {
                slots: 16,
                phys_regs: 16,
            },
            track_dependents: true,
        });
        let s0 = t.insert(&RenamedOp::alu(p(1), [None, None]));
        let s1 = t.insert(&RenamedOp::alu(p(2), [Some(p(1)), None]));
        let s2 = t.insert(&RenamedOp::alu(p(3), [Some(p(2)), None]));
        // p1's producer has two dependents (s1's and s2's instructions);
        // s1 has one; the youngest has none.
        assert_eq!(t.dependents(s0), 2);
        assert_eq!(t.dependents(s1), 1);
        assert_eq!(t.dependents(s2), 0);
    }

    #[test]
    #[should_panic(expected = "dependent tracking disabled")]
    fn dependents_require_config() {
        let t = Tracker::new(cfg(8, 8));
        let _ = t.dependents(InstSlot(0));
    }

    #[test]
    fn commit_shrinks_leaf_chain() {
        let mut t = Tracker::new(cfg(8, 16));
        t.insert(&RenamedOp::alu(p(1), [None, None]));
        t.insert(&RenamedOp::alu(p(2), [Some(p(1)), None]));
        let before = t.leaf_set([Some(p(2)), None]);
        assert_eq!(before.chain_len, 2);
        t.commit_oldest();
        let after = t.leaf_set([Some(p(2)), None]);
        assert_eq!(after.chain_len, 1);
        // p1 is still a source of the in-flight producer of p2, and its
        // own producer has committed: it stays in the set, now available.
        assert_eq!(after.regs, vec![p(1)]);
    }

    #[test]
    fn rollback_restores_earlier_sets() {
        let mut t = Tracker::new(cfg(8, 16));
        t.insert(&RenamedOp::alu(p(1), [None, None]));
        let seq_after_first = t.next_seq();
        t.insert(&RenamedOp::alu(p(2), [Some(p(1)), None]));
        t.rollback_to(seq_after_first);
        let set = t.leaf_set([Some(p(1)), None]);
        assert_eq!(set.chain_len, 1);
        // p1's in-flight producer takes no register inputs, so the chain
        // has no leaf values and p1 itself is target-marked.
        assert_eq!(set.regs, Vec::<PhysReg>::new());
        // p2's row was written by the squashed instruction. Hardware does
        // not roll row contents back — the squashed column is merely
        // invalidated — so the row still shows the surviving older part of
        // the chain. (Rename recovery frees p2, so no real lookup occurs
        // until a new producer rewrites the row.)
        let set2 = t.leaf_set([Some(p(2)), None]);
        assert_eq!(set2.chain_len, 1);
        // Re-allocating p2 to a fresh producer rewrites the row cleanly.
        t.insert(&RenamedOp::alu(p(2), [None, None]));
        let set3 = t.leaf_set([Some(p(2)), None]);
        assert_eq!(set3.chain_len, 1);
        assert_eq!(set3.oldest_seq, Some(seq_after_first));
    }
}
