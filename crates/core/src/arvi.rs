//! The ARVI branch predictor — paper Section 4.
//!
//! ARVI (Available Register Value Information) predicts a branch from the
//! *values* of the registers along the data dependence chain leading up to
//! it. Per prediction (Table 1 of the paper):
//!
//! 1. read the branch's dependence chain from the DDT;
//! 2. extract the register set with the RSE;
//! 3. in parallel, form the BVIT index (XOR of the low 11 bits of the set's
//!    values with the PC) and the ID-sum tag;
//! 4. index the BVIT, compare ID and depth tags, return the prediction.
//!
//! Branches whose register-set values are all available are **calculated**
//! branches — their signature precisely defines the outcome. If any value
//! pends on an outstanding load the branch is a **load** branch — still
//! predictable from the available values, but less accurately.

use crate::bvit::{Bvit, BvitConfig};
use crate::shadow::{ShadowMapTable, ShadowRegFile};
use crate::tracker::{LeafSet, RenamedOp, Tracker, TrackerConfig};
use crate::types::{BranchClass, InstSlot, PhysReg};
use arvi_isa::Reg;

/// Configuration of an [`ArviPredictor`].
#[derive(Debug, Clone, Copy)]
pub struct ArviConfig {
    /// BVIT shape.
    pub bvit: BvitConfig,
    /// Dependence tracker (DDT/RSE) shape.
    pub tracker: TrackerConfig,
    /// Low bits of each register value hashed into the index (11 in the
    /// paper, matching the 11-bit BVIT index).
    pub value_bits: u32,
    /// Ablation (design decision D2, ready-bit gating): when set, *unavailable*
    /// leaf registers contribute their stale shadow value to the index
    /// instead of being gated out by the ready bit.
    pub include_stale_values: bool,
}

impl ArviConfig {
    /// The paper's configuration on top of a given tracker shape.
    pub fn paper(tracker: TrackerConfig) -> ArviConfig {
        ArviConfig {
            bvit: BvitConfig::default(),
            tracker,
            value_bits: 11,
            include_stale_values: false,
        }
    }
}

/// Where the ARVI predictor obtains register values at prediction time.
///
/// [`ArviPredictor::predict`] (and everything above it — the simulator's
/// branch unit and machine) is *generic* over the source, so each
/// configuration's lookup monomorphizes straight into the prediction
/// loop: the seed-era `&dyn Fn(PhysReg) -> Option<u64>` closure paid a
/// dynamic dispatch per leaf register of every predicted branch, on the
/// hottest ARVI path the machine has.
///
/// Implementations return `Some(value)` when the register should be
/// treated as available; the predictor masks the value to its configured
/// low bits. The `shadow` argument is the predictor's own shadow
/// register file, so the paper's base configuration ([`CurrentValues`])
/// needs no borrowed state of its own; external oracles (perfect value,
/// load back — see `arvi_sim::oracle`) ignore it.
pub trait ValueSource {
    /// The value of `r` if it should be treated as available.
    fn value_of(&self, r: PhysReg, shadow: &ShadowRegFile) -> Option<u64>;
}

/// The paper's base *current value* configuration: the predictor's own
/// shadow register file gated by ready bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct CurrentValues;

impl ValueSource for CurrentValues {
    #[inline]
    fn value_of(&self, r: PhysReg, shadow: &ShadowRegFile) -> Option<u64> {
        shadow.is_ready(r).then(|| shadow.value(r))
    }
}

/// The outcome of one ARVI prediction, carrying everything the host needs
/// to train the BVIT at commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArviPrediction {
    /// The predicted direction, or `None` on a BVIT miss (the host falls
    /// back to the level-1 predictor).
    pub direction: Option<bool>,
    /// Calculated vs load classification (Section 4.1 / Figure 5).
    pub class: BranchClass,
    /// BVIT set index used.
    pub index: usize,
    /// Register-set ID-sum tag.
    pub id_tag: u8,
    /// Dependence-chain depth tag.
    pub depth_tag: u8,
    /// How many registers the extracted register set holds.
    pub leaf_count: usize,
    /// How many of those registers had available values.
    pub available: usize,
    /// Dependence-chain length walked to extract the register set.
    pub chain_len: usize,
    /// Performance-counter value of the matched BVIT entry (0 on miss).
    pub perf: u8,
    /// Whether the matched entry's direction counter was saturated.
    pub strong: bool,
}

/// The complete ARVI predictor: dependence tracker, shadow state and BVIT.
///
/// Host-pipeline protocol, in program order:
///
/// * every instruction: [`rename`](ArviPredictor::rename) at rename time
///   (after physical registers are assigned — which the paper performs at
///   fetch), [`writeback`](ArviPredictor::writeback) when its value is
///   produced, [`commit_oldest`](ArviPredictor::commit_oldest) at commit;
/// * conditional branches additionally: [`predict`](ArviPredictor::predict)
///   *before* their own `rename`, and [`train`](ArviPredictor::train) at
///   commit.
///
/// # Example
///
/// ```
/// use arvi_core::{ArviPredictor, ArviConfig, TrackerConfig, DdtConfig,
///                 RenamedOp, PhysReg, CurrentValues};
/// use arvi_isa::Reg;
///
/// let cfg = ArviConfig::paper(TrackerConfig {
///     ddt: DdtConfig { slots: 32, phys_regs: 64 },
///     track_dependents: false,
/// });
/// let mut arvi = ArviPredictor::new(cfg);
/// // p1 = some committed value 7
/// arvi.writeback(PhysReg(1), 7);
/// // branch on p1: first encounter misses the BVIT ...
/// let pred = arvi.predict(0x40, [Some(PhysReg(1)), None], &CurrentValues);
/// assert_eq!(pred.direction, None);
/// arvi.train(&pred, true, true);
/// // ... the same value signature then predicts taken.
/// let pred = arvi.predict(0x40, [Some(PhysReg(1)), None], &CurrentValues);
/// assert_eq!(pred.direction, Some(true));
/// ```
#[derive(Debug)]
pub struct ArviPredictor {
    cfg: ArviConfig,
    tracker: Tracker,
    bvit: Bvit,
    shadow: ShadowRegFile,
    map: ShadowMapTable,
    /// Reusable leaf-set scratch for [`ArviPredictor::predict`].
    leaf_scratch: LeafSet,
}

impl ArviPredictor {
    /// Creates an ARVI predictor.
    pub fn new(cfg: ArviConfig) -> ArviPredictor {
        ArviPredictor {
            tracker: Tracker::new(cfg.tracker),
            bvit: Bvit::new(cfg.bvit),
            shadow: ShadowRegFile::new(cfg.tracker.ddt.phys_regs, cfg.value_bits),
            map: ShadowMapTable::new(cfg.tracker.ddt.phys_regs, 3),
            leaf_scratch: LeafSet::default(),
            cfg,
        }
    }

    /// The dependence tracker (DDT + RSE).
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// Mutable access to the tracker (for hosts composing extra analyses).
    pub fn tracker_mut(&mut self) -> &mut Tracker {
        &mut self.tracker
    }

    /// The BVIT.
    pub fn bvit(&self) -> &Bvit {
        &self.bvit
    }

    /// The shadow register file.
    pub fn shadow(&self) -> &ShadowRegFile {
        &self.shadow
    }

    /// Inserts a renamed instruction; `logical_dest` is the architectural
    /// register its destination maps (recorded in the shadow map table).
    ///
    /// # Panics
    ///
    /// Panics if the tracker is full, or if a destination is supplied
    /// without its logical register.
    pub fn rename(&mut self, op: &RenamedOp, logical_dest: Option<Reg>) -> InstSlot {
        if let Some(d) = op.dest {
            let logical =
                logical_dest.expect("rename of a value-producing op requires its logical dest");
            self.shadow.alloc(d);
            self.map.set(d, logical);
        }
        self.tracker.insert(op)
    }

    /// Records a writeback into the shadow register file ("updates to the
    /// register file also update our duplicate set one cycle later").
    pub fn writeback(&mut self, r: PhysReg, value: u64) {
        self.shadow.write(r, value);
    }

    /// Commits the oldest in-flight instruction.
    pub fn commit_oldest(&mut self) {
        self.tracker.commit_oldest();
    }

    /// Squashes instructions younger than `new_head_seq` (misprediction
    /// recovery).
    pub fn rollback_to(&mut self, new_head_seq: u64) {
        self.tracker.rollback_to(new_head_seq);
    }

    /// Sequence number the next renamed instruction will receive.
    pub fn next_seq(&self) -> u64 {
        self.tracker.next_seq()
    }

    /// Predicts a conditional branch about to be renamed (whose operand
    /// physical registers are `branch_srcs`). Monomorphized over the
    /// value source — see [`ValueSource`].
    pub fn predict<V: ValueSource>(
        &mut self,
        pc: u64,
        branch_srcs: [Option<PhysReg>; 2],
        values: &V,
    ) -> ArviPrediction {
        let branch_seq = self.tracker.next_seq();
        self.tracker
            .leaf_set_into(branch_srcs, &mut self.leaf_scratch);
        let leaf = &self.leaf_scratch;
        let bvit_cfg = self.bvit.config();
        let depth_tag = leaf.depth_key(branch_seq, bvit_cfg.depth_bits);
        let id_tag = self.map.id_sum(&leaf.regs, bvit_cfg.id_tag_bits);

        let value_mask = (1u64 << self.cfg.value_bits) - 1;
        // PC[13:3] of the paper: the word-PC's low index bits.
        let mut index = ((pc >> 2) & ((1u64 << bvit_cfg.sets_log2) - 1)) as usize;
        let mut available = 0usize;
        for &r in leaf.regs.iter() {
            // Shadow-file values are stored pre-masked, so the mask is a
            // no-op for `CurrentValues` and exactly the old external-
            // oracle masking otherwise.
            let v = values.value_of(r, &self.shadow).map(|v| v & value_mask);
            match v {
                Some(val) => {
                    index ^= val as usize;
                    available += 1;
                }
                None if self.cfg.include_stale_values => {
                    index ^= self.shadow.value(r) as usize;
                }
                None => {}
            }
        }

        let class = if available == leaf.regs.len() {
            BranchClass::Calculated
        } else {
            BranchClass::Load
        };

        let entry = self.bvit.lookup_entry(index, id_tag, depth_tag);
        ArviPrediction {
            direction: entry.map(|(dir, ..)| dir),
            class,
            index,
            id_tag,
            depth_tag,
            leaf_count: leaf.regs.len(),
            available,
            chain_len: leaf.chain_len,
            perf: entry.map(|(_, perf, _)| perf).unwrap_or(0),
            strong: entry.map(|(.., strong)| strong).unwrap_or(false),
        }
    }

    /// Trains the BVIT with a resolved branch. `allocate` gates victim
    /// allocation (the host passes low-confidence status, dedicating ARVI
    /// capacity to difficult branches).
    pub fn train(&mut self, pred: &ArviPrediction, taken: bool, allocate: bool) {
        self.bvit
            .update(pred.index, pred.id_tag, pred.depth_tag, taken, allocate);
    }

    /// Total storage of the design: BVIT, DDT (+valid vector), RSE
    /// (2 bits per DDT cell), shadow register file and shadow map table.
    pub fn storage_bits(&self) -> usize {
        let ddt_bits = self.tracker.ddt().storage_bits();
        let rse_bits = 2 * self.cfg.tracker.ddt.slots * self.cfg.tracker.ddt.phys_regs;
        let map_bits = 3 * self.cfg.tracker.ddt.phys_regs;
        self.bvit.storage_bits() + ddt_bits + rse_bits + self.shadow.storage_bits() + map_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddt::DdtConfig;

    fn p(i: u16) -> PhysReg {
        PhysReg(i)
    }

    fn predictor() -> ArviPredictor {
        ArviPredictor::new(ArviConfig::paper(TrackerConfig {
            ddt: DdtConfig {
                slots: 64,
                phys_regs: 128,
            },
            track_dependents: false,
        }))
    }

    #[test]
    fn value_determined_branch_becomes_perfect() {
        // Outcome is a pure function of an available register value:
        // taken iff v == 3. After one encounter per value, ARVI is exact.
        let mut arvi = predictor();
        let key = p(1);
        let mut correct = 0;
        let mut total = 0;
        let values = [3u64, 5, 9, 3, 5, 3, 9, 9, 3, 5, 3, 9, 5, 3];
        for (i, &v) in values.iter().cycle().take(200).enumerate() {
            arvi.writeback(key, v);
            let pred = arvi.predict(0x100, [Some(key), None], &CurrentValues);
            assert_eq!(pred.class, BranchClass::Calculated);
            let taken = v == 3;
            if i >= 6 {
                total += 1;
                correct += (pred.direction == Some(taken)) as i32;
            }
            arvi.train(&pred, taken, true);
        }
        assert_eq!(correct, total, "value-keyed branch must be exact");
    }

    #[test]
    fn outstanding_load_classifies_as_load_branch() {
        let mut arvi = predictor();
        let (ptr, t1) = (p(1), p(2));
        arvi.rename(&RenamedOp::load(t1, Some(ptr)), Some(Reg::new(8)));
        // The load has not written back: t1 unavailable.
        let pred = arvi.predict(0x40, [Some(t1), None], &CurrentValues);
        assert_eq!(pred.class, BranchClass::Load);
        assert_eq!(pred.available, 0);
        assert_eq!(pred.leaf_count, 1);
        assert_eq!(arvi.tracker_mut().leaf_set([Some(t1), None]).regs, vec![t1]);
    }

    #[test]
    fn load_writeback_restores_calculated_class() {
        let mut arvi = predictor();
        let (ptr, t1) = (p(1), p(2));
        arvi.rename(&RenamedOp::load(t1, Some(ptr)), Some(Reg::new(8)));
        arvi.writeback(t1, 99);
        let pred = arvi.predict(0x40, [Some(t1), None], &CurrentValues);
        assert_eq!(pred.class, BranchClass::Calculated);
        assert_eq!(pred.available, 1);
    }

    #[test]
    fn external_oracle_makes_load_branches_calculated() {
        // The perfect-value configuration: the oracle supplies every value.
        struct Always(u64);
        impl ValueSource for Always {
            fn value_of(&self, _r: PhysReg, _shadow: &ShadowRegFile) -> Option<u64> {
                Some(self.0)
            }
        }
        let mut arvi = predictor();
        let (ptr, t1) = (p(1), p(2));
        arvi.rename(&RenamedOp::load(t1, Some(ptr)), Some(Reg::new(8)));
        let pred = arvi.predict(0x40, [Some(t1), None], &Always(7));
        assert_eq!(pred.class, BranchClass::Calculated);
    }

    #[test]
    fn depth_tag_separates_loop_iterations() {
        // Same PC, same (empty-valued) register set, different chain
        // depths — the paper's loop disambiguation. Outcome: taken for
        // depth < 3 iterations, not-taken at the third.
        let mut arvi = predictor();
        let counter_logical = Reg::new(9);
        for round in 0..20 {
            // A fresh chain each round: c = c + 1 three times, branching
            // after each increment on the chain.
            let base = p(10 + (round % 4) as u16);
            arvi.writeback(base, 0);
            let mut cur = base;
            let mut outcomes = Vec::new();
            for i in 0..3 {
                let next = p(20 + (round % 4) as u16 * 8 + i as u16);
                arvi.rename(
                    &RenamedOp::alu(next, [Some(cur), None]),
                    Some(counter_logical),
                );
                cur = next;
                let pred = arvi.predict(0x200, [Some(cur), None], &CurrentValues);
                let taken = i < 2;
                outcomes.push((pred.clone(), taken));
                arvi.train(&pred, taken, true);
            }
            // Drain the tracker for the next round.
            while arvi.tracker().occupancy() > 0 {
                arvi.commit_oldest();
            }
            if round >= 4 {
                for (pred, taken) in &outcomes {
                    assert_eq!(
                        pred.direction,
                        Some(*taken),
                        "round {round}: depth {} must disambiguate",
                        pred.depth_tag
                    );
                }
            }
        }
    }

    #[test]
    fn stale_value_ablation_changes_index() {
        let mk = |stale: bool| {
            let mut cfg = ArviConfig::paper(TrackerConfig {
                ddt: DdtConfig {
                    slots: 16,
                    phys_regs: 32,
                },
                track_dependents: false,
            });
            cfg.include_stale_values = stale;
            let mut arvi = ArviPredictor::new(cfg);
            let (ptr, t1) = (p(1), p(2));
            arvi.writeback(t1, 0b101); // stale value left by prior owner
            arvi.rename(&RenamedOp::load(t1, Some(ptr)), Some(Reg::new(8)));
            arvi.predict(0x40, [Some(t1), None], &CurrentValues).index
        };
        assert_ne!(mk(true), mk(false));
    }

    #[test]
    fn train_respects_allocate_gate() {
        let mut arvi = predictor();
        arvi.writeback(p(1), 4);
        let pred = arvi.predict(0x80, [Some(p(1)), None], &CurrentValues);
        arvi.train(&pred, true, false); // high confidence: no allocation
        let again = arvi.predict(0x80, [Some(p(1)), None], &CurrentValues);
        assert_eq!(again.direction, None);
    }

    #[test]
    fn storage_includes_all_components() {
        let arvi = predictor();
        let bits = arvi.storage_bits();
        // BVIT dominates: 8192 entries x 14 bits.
        assert!(bits > 8192 * 14);
        // DDT + RSE for 64x128 plus shadows.
        let expected = 8192 * 14 // BVIT
            + (64 * 128 + 64)    // DDT + valid
            + 2 * 64 * 128       // RSE
            + 128 * 11           // shadow regfile
            + 128 * 3; // shadow map
        assert_eq!(bits, expected);
    }

    #[test]
    #[should_panic(expected = "requires its logical dest")]
    fn rename_requires_logical_dest() {
        let mut arvi = predictor();
        arvi.rename(&RenamedOp::alu(p(1), [None, None]), None);
    }
}
