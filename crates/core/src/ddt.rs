//! The Data Dependence Table (DDT) — paper Section 2.
//!
//! The DDT is a RAM with one row per physical register and one bit-column
//! per in-flight instruction. Row `r` holds the *data dependence chain* of
//! the youngest in-flight producer of `r`: the set of in-flight
//! instructions the value of `r` transitively depends on. On insertion of
//! an instruction the hardware computes
//!
//! ```text
//! DDT[dest] = (DDT[src1] OR DDT[src2]) AND ValidVector  |  own bit
//! ```
//!
//! Instruction entries are allocated in circular FIFO order; a commit
//! clears the instruction's valid bit (removing it from all future chain
//! reads immediately), and a branch misprediction rolls the head pointer
//! back exactly like the ROB.
//!
//! ## Software representation
//!
//! This model is bit-exact with the hardware but avoids the hardware's
//! column-clear-on-reuse sweep. Entries are allocated in sequence order,
//! and an instruction's column is its *position* `seq mod 2·slots`
//! rather than its slot `seq mod slots`: rows and the valid vector have
//! `2·slots` columns, and the valid vector is always exactly the
//! positions of the in-flight range `[tail, head)`.
//!
//! The doubled ring cannot alias. A row written by instruction `W` names
//! only instructions in flight with it, all in `(W - slots, W]`, and `W`
//! was inserted with fewer than `slots` entries ahead of it, so
//! `W < tail + slots` for every later tail. If `W >= tail`, the row's
//! bits and the live window `[tail, tail + slots)` both lie in
//! `(tail - slots, tail + slots)`, fewer than `2·slots` sequence
//! numbers, so a shared position is a shared instruction and a row read
//! is just `row & valid`. A row whose writer is older than the tail
//! (`W < tail`) is dead: everything it names has committed and those
//! positions may have been reused, so it contributes nothing and is
//! never read. The update is thus the paper's division-free
//! `(row1 | row2) & valid`.
//!
//! Position `p` is slot `p mod slots`, so a chain read folds the two
//! halves of the ring into one [`ChainMask`] bit per slot.

use crate::types::{InstSlot, PhysReg};

/// Shape parameters for a [`Ddt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdtConfig {
    /// Number of instruction entries (columns) — the in-flight window.
    pub slots: usize,
    /// Number of physical registers (rows).
    pub phys_regs: usize,
}

impl DdtConfig {
    /// The paper's sizing example (Section 2.1): the Alpha 21264's 80 ROB
    /// entries and 72 physical integer registers, giving a 730-byte RAM.
    pub fn alpha_21264() -> DdtConfig {
        DdtConfig {
            slots: 80,
            phys_regs: 72,
        }
    }
}

/// A dependence-chain bit vector over instruction slots.
///
/// Produced by [`Ddt::chain`], or reused across reads with
/// [`Ddt::chain_into`]; iterate the member slots with
/// [`ChainMask::slots`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMask {
    words: Vec<u64>,
    slots: usize,
}

impl ChainMask {
    /// Creates an empty (all-zero) mask sized for `slots` instruction
    /// entries. Pair with [`Ddt::chain_into`] to reuse one allocation
    /// across many chain reads.
    pub fn zeroed(slots: usize) -> ChainMask {
        ChainMask {
            words: vec![0; slots.div_ceil(64)],
            slots,
        }
    }

    /// Clears every bit (capacity is retained).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of instruction slots the mask covers.
    pub fn capacity(&self) -> usize {
        self.slots
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of instructions in the chain.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `slot` is a member of the chain.
    pub fn contains(&self, slot: InstSlot) -> bool {
        let i = slot.index();
        i < self.slots && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Iterates the member slots in **column order** (ascending slot
    /// index), *not* program (age) order. Because slots are allocated
    /// round-robin, a chain that wraps the ring end comes out mis-ordered
    /// relative to insertion age: the slice occupying low column indices
    /// is younger than the slice at the high indices. Callers that need
    /// oldest-first order must sort by [`Ddt::slot_seq`] — or use
    /// [`Ddt::slots_by_age`], which does exactly that.
    pub fn slots(&self) -> impl Iterator<Item = InstSlot> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(InstSlot((wi * 64) as u32 + b))
                }
            })
        })
    }

    /// Unions another chain into this one.
    pub fn union_with(&mut self, other: &ChainMask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The raw words of the mask (low bit of word 0 = slot 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Word index and bit mask of column `pos`.
#[inline]
fn bit(pos: usize) -> (usize, u64) {
    (pos / 64, 1u64 << (pos % 64))
}

/// The Data Dependence Table.
///
/// # Example
///
/// ```
/// use arvi_core::{Ddt, DdtConfig, PhysReg};
///
/// let mut ddt = Ddt::new(DdtConfig { slots: 8, phys_regs: 16 });
/// let p1 = PhysReg(1);
/// let p2 = PhysReg(2);
/// let s0 = ddt.insert(Some(p1), [None, None]);        // p1 = ...
/// let s1 = ddt.insert(Some(p2), [Some(p1), None]);    // p2 = f(p1)
/// let chain = ddt.chain(&[p2]);
/// assert!(chain.contains(s0) && chain.contains(s1));
/// ddt.commit_oldest();                                 // retire producer of p1
/// assert!(!ddt.chain(&[p2]).contains(s0));
/// ```
#[derive(Debug, Clone)]
pub struct Ddt {
    cfg: DdtConfig,
    /// Words per row: `2·slots` position columns.
    words: usize,
    /// Row bits, `phys_regs * words`, row-major, then one all-zero row
    /// that absent and dead sources read.
    rows: Vec<u64>,
    /// Sequence number of each row's last writer (0 for a fresh row,
    /// whose bits are all zero).
    row_seq: Vec<u64>,
    /// Valid vector, one bit per position: exactly the positions of
    /// `[tail_seq, head_seq)`.
    valid: Vec<u64>,
    /// Sequence number of each slot's current occupant.
    slot_seq: Vec<u64>,
    /// Sequence number of the next instruction to insert (head pointer).
    head_seq: u64,
    /// Sequence number of the oldest in-flight instruction (tail pointer).
    tail_seq: u64,
    /// Position (`seq mod 2·slots`) of `head_seq`.
    head_pos: usize,
    /// Position of `tail_seq`.
    tail_pos: usize,
}

impl Ddt {
    /// Creates an empty DDT.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cfg: DdtConfig) -> Ddt {
        assert!(cfg.slots > 0, "DDT needs at least one slot");
        assert!(cfg.phys_regs > 0, "DDT needs at least one register row");
        let words = (2 * cfg.slots).div_ceil(64);
        Ddt {
            cfg,
            words,
            rows: vec![0; (cfg.phys_regs + 1) * words],
            row_seq: vec![0; cfg.phys_regs],
            valid: vec![0; words],
            slot_seq: vec![0; cfg.slots],
            head_seq: 0,
            tail_seq: 0,
            head_pos: 0,
            tail_pos: 0,
        }
    }

    /// The configured shape.
    pub fn config(&self) -> DdtConfig {
        self.cfg
    }

    /// Number of in-flight (inserted, not yet committed or squashed past)
    /// instruction entries.
    pub fn occupancy(&self) -> usize {
        (self.head_seq - self.tail_seq) as usize
    }

    /// Whether all instruction entries are occupied.
    pub fn is_full(&self) -> bool {
        self.occupancy() == self.cfg.slots
    }

    /// Whether no instructions are in flight.
    pub fn is_empty(&self) -> bool {
        self.head_seq == self.tail_seq
    }

    /// The sequence number the next inserted instruction will receive.
    pub fn next_seq(&self) -> u64 {
        self.head_seq
    }

    /// The sequence number of the oldest in-flight instruction.
    pub fn tail_seq(&self) -> u64 {
        self.tail_seq
    }

    /// The sequence number of the occupant of `slot`.
    pub fn slot_seq(&self, slot: InstSlot) -> u64 {
        self.slot_seq[slot.index()]
    }

    /// RAM bits of the hardware structure: rows plus the valid vector.
    ///
    /// For the paper's Alpha 21264 sizing (80 slots, 72 registers) this is
    /// 5840 bits = 730 bytes.
    pub fn storage_bits(&self) -> usize {
        self.cfg.slots * self.cfg.phys_regs + self.cfg.slots
    }

    /// The slot of position `pos`.
    #[inline]
    fn slot_at(&self, pos: usize) -> usize {
        if pos < self.cfg.slots {
            pos
        } else {
            pos - self.cfg.slots
        }
    }

    /// The position after `pos` on the ring.
    #[inline]
    fn next_pos(&self, pos: usize) -> usize {
        if pos + 1 == 2 * self.cfg.slots {
            0
        } else {
            pos + 1
        }
    }

    /// The word offset of row `r`, or of the zero row when `r` is absent
    /// or dead (last written before the tail).
    #[inline]
    fn row_base(&self, r: Option<PhysReg>) -> usize {
        match r {
            Some(r) if self.row_seq[r.index()] >= self.tail_seq => r.index() * self.words,
            _ => self.cfg.phys_regs * self.words,
        }
    }

    /// Inserts an instruction at the head of the circular buffer.
    ///
    /// If `dest` is present, its row is rewritten with the union of the
    /// source rows (masked by the valid vector) plus the instruction's own
    /// bit — the paper's `DDT[Target] = (DDT[Src1] OR DDT[Src2]) AND
    /// ValidVector` update, which takes one read cycle and one write cycle
    /// in hardware.
    ///
    /// # Panics
    ///
    /// Panics if the DDT is full (the host pipeline must stall rename).
    pub fn insert(&mut self, dest: Option<PhysReg>, srcs: [Option<PhysReg>; 2]) -> InstSlot {
        assert!(!self.is_full(), "DDT full: host must stall rename");
        let (seq, pos) = (self.head_seq, self.head_pos);
        let (own_w, own_b) = bit(pos);

        if let Some(d) = dest {
            // Word i of the destination reads only word i of the sources,
            // so the in-place write is correct even when the destination
            // row is a source row.
            let (a, b) = (self.row_base(srcs[0]), self.row_base(srcs[1]));
            self.row_seq[d.index()] = seq;
            let base = d.index() * self.words;
            for i in 0..self.words {
                self.rows[base + i] = (self.rows[a + i] | self.rows[b + i]) & self.valid[i];
            }
            // Every register is trivially dependent on its own producer.
            self.rows[base + own_w] |= own_b;
        }

        self.valid[own_w] |= own_b;
        let slot = self.slot_at(pos);
        self.slot_seq[slot] = seq;
        self.head_seq = seq + 1;
        self.head_pos = self.next_pos(pos);
        InstSlot(slot as u32)
    }

    /// Reads the union of the dependence chains of `regs` (the chain read
    /// the ARVI predictor performs for a branch's operand registers).
    ///
    /// Allocates a fresh [`ChainMask`]; hot paths should reuse one via
    /// [`Ddt::chain_into`].
    pub fn chain(&self, regs: &[PhysReg]) -> ChainMask {
        let mut out = ChainMask::zeroed(self.cfg.slots);
        self.chain_into(regs, &mut out);
        out
    }

    /// In-place variant of [`Ddt::chain`]: overwrites `out` with the
    /// chains of `regs`. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `out` was sized for a different slot count.
    #[inline]
    pub fn chain_into(&self, regs: &[PhysReg], out: &mut ChainMask) {
        assert_eq!(
            out.slots, self.cfg.slots,
            "ChainMask sized for {} slots, DDT has {}",
            out.slots, self.cfg.slots
        );
        // Position word `j` of the union of the rows (0 past the ring).
        let live = |j: usize| {
            if j >= self.words {
                return 0;
            }
            let row = regs
                .iter()
                .fold(0, |w, &r| w | self.rows[self.row_base(Some(r)) + j]);
            row & self.valid[j]
        };
        // Slot word `i` is position word `i` (below `slots`) folded with
        // the `slots`-higher positions of the same slots.
        let (q, sh) = (self.cfg.slots / 64, self.cfg.slots % 64);
        for (i, o) in out.words.iter_mut().enumerate() {
            *o = if sh == 0 {
                live(i) | live(q + i)
            } else {
                let low = live(i) & if i < q { u64::MAX } else { (1 << sh) - 1 };
                low | live(q + i) >> sh | live(q + i + 1) << (64 - sh)
            };
        }
    }

    /// The member slots of `mask` sorted oldest-first by occupant
    /// sequence number — the program-order view that
    /// [`ChainMask::slots`] (column order) does not provide once a chain
    /// wraps the ring.
    pub fn slots_by_age(&self, mask: &ChainMask) -> Vec<InstSlot> {
        let mut slots: Vec<InstSlot> = mask.slots().collect();
        slots.sort_unstable_by_key(|&s| self.slot_seq[s.index()]);
        slots
    }

    /// Commits the oldest in-flight instruction: clears its valid bit —
    /// immediately removing it from all future chain reads — and advances
    /// the tail pointer, freeing the entry for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the DDT is empty.
    pub fn commit_oldest(&mut self) -> InstSlot {
        assert!(!self.is_empty(), "DDT empty: nothing to commit");
        let pos = self.tail_pos;
        let (w, b) = bit(pos);
        self.valid[w] &= !b;
        self.tail_seq += 1;
        self.tail_pos = self.next_pos(pos);
        InstSlot(self.slot_at(pos) as u32)
    }

    /// Rolls back to the state just after instruction `seq` was inserted,
    /// squashing all younger instructions — the paper's
    /// branch-misprediction recovery, performed identically to the ROB by
    /// moving the head pointer.
    ///
    /// # Panics
    ///
    /// Panics if `new_head_seq` is not within `[tail, head]`.
    pub fn rollback_to(&mut self, new_head_seq: u64) {
        assert!(
            new_head_seq >= self.tail_seq && new_head_seq <= self.head_seq,
            "rollback target {new_head_seq} outside [{}, {}]",
            self.tail_seq,
            self.head_seq
        );
        let ring = 2 * self.cfg.slots;
        for _ in new_head_seq..self.head_seq {
            self.head_pos = self.head_pos.checked_sub(1).unwrap_or(ring - 1);
            let (w, b) = bit(self.head_pos);
            self.valid[w] &= !b;
        }
        self.head_seq = new_head_seq;
    }

    /// Whether the occupant of `slot` is currently valid.
    pub fn is_slot_valid(&self, slot: InstSlot) -> bool {
        let valid = |pos: usize| self.valid[pos / 64] >> (pos % 64) & 1 == 1;
        valid(slot.index()) || valid(slot.index() + self.cfg.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> PhysReg {
        PhysReg(i)
    }

    /// The worked example of the paper's Figure 1, using the program the
    /// RSE example (Figure 3) spells out:
    ///
    /// ```text
    /// 1: load p1 (p2)
    /// 2: add  p4 = p1 + p3
    /// 3: or   p5 = p4 | p1
    /// 4: sub  p6 = p5 - p4
    /// 5: add  p7 = p1 + 1
    /// 6: add  p8 = p4 + p7
    /// ```
    fn figure_1_ddt() -> (Ddt, Vec<InstSlot>) {
        let mut ddt = Ddt::new(DdtConfig {
            slots: 9,
            phys_regs: 10,
        });
        let s = vec![
            ddt.insert(Some(p(1)), [Some(p(2)), None]),
            ddt.insert(Some(p(4)), [Some(p(1)), Some(p(3))]),
            ddt.insert(Some(p(5)), [Some(p(4)), Some(p(1))]),
            ddt.insert(Some(p(6)), [Some(p(5)), Some(p(4))]),
            ddt.insert(Some(p(7)), [Some(p(1)), None]),
            ddt.insert(Some(p(8)), [Some(p(4)), Some(p(7))]),
        ];
        (ddt, s)
    }

    #[test]
    fn paper_figure_1() {
        let (ddt, s) = figure_1_ddt();
        // "physical register p5 is data dependent on both instructions 1
        // and 2" (and trivially on its own instruction 3).
        let c5 = ddt.chain(&[p(5)]);
        assert_eq!(
            c5.slots().collect::<Vec<_>>(),
            vec![s[0], s[1], s[2]],
            "chain of p5"
        );
        // "The entry for physical register p8 now contains the data
        // dependence chain consisting of instructions 1, 2, 5, and 6."
        let c8 = ddt.chain(&[p(8)]);
        assert_eq!(
            c8.slots().collect::<Vec<_>>(),
            vec![s[0], s[1], s[4], s[5]],
            "chain of p8"
        );
    }

    #[test]
    fn paper_sizing_example() {
        // "the DDT would contain 5760 bits, or 730 bytes" including the
        // 80-bit valid vector.
        let ddt = Ddt::new(DdtConfig::alpha_21264());
        assert_eq!(ddt.storage_bits(), 5760 + 80);
        assert_eq!(ddt.storage_bits() / 8, 730);
    }

    #[test]
    fn commit_removes_from_chains_immediately() {
        let (mut ddt, s) = figure_1_ddt();
        ddt.commit_oldest(); // retire the load (instruction 1)
        let c8 = ddt.chain(&[p(8)]);
        assert!(!c8.contains(s[0]), "committed load must leave the chain");
        assert_eq!(c8.slots().collect::<Vec<_>>(), vec![s[1], s[4], s[5]]);
    }

    #[test]
    fn rollback_squashes_younger() {
        let (mut ddt, s) = figure_1_ddt();
        // Squash instructions 5 and 6 (seq 4,5); keep 1..4.
        ddt.rollback_to(4);
        assert_eq!(ddt.occupancy(), 4);
        let c8 = ddt.chain(&[p(8)]);
        // p8's row was written by a squashed instruction; its live range
        // still filters to surviving producers only.
        assert!(!c8.contains(s[5]));
        assert!(!c8.contains(s[4]));
        // p6's chain is intact.
        let c6 = ddt.chain(&[p(6)]);
        assert_eq!(c6.slots().collect::<Vec<_>>(), vec![s[0], s[1], s[2], s[3]]);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_stale_bits() {
        let mut ddt = Ddt::new(DdtConfig {
            slots: 4,
            phys_regs: 8,
        });
        // Fill the ring: p1..p4 in slots 0..3.
        ddt.insert(Some(p(1)), [None, None]);
        ddt.insert(Some(p(2)), [Some(p(1)), None]);
        ddt.insert(Some(p(3)), [Some(p(2)), None]);
        ddt.insert(Some(p(4)), [Some(p(3)), None]);
        // Retire two, reuse their slots with unrelated instructions.
        ddt.commit_oldest();
        ddt.commit_oldest();
        let s4 = ddt.insert(Some(p(5)), [None, None]); // reuses slot 0
        let s5 = ddt.insert(Some(p(6)), [Some(p(5)), None]); // reuses slot 1
        assert_eq!((s4.index(), s5.index()), (0, 1));
        // p4's chain was {0,1,2,3}; slots 0 and 1 now hold unrelated
        // instructions and must NOT appear in it.
        let c4 = ddt.chain(&[p(4)]);
        assert_eq!(c4.len(), 2, "only slots 2 and 3 remain genuine");
        assert!(c4.contains(InstSlot(2)) && c4.contains(InstSlot(3)));
        // The new instructions' own chain is correct.
        let c6 = ddt.chain(&[p(6)]);
        assert_eq!(c6.slots().collect::<Vec<_>>(), vec![s4, s5]);
    }

    #[test]
    fn chain_of_unwritten_register_is_empty() {
        let ddt = Ddt::new(DdtConfig {
            slots: 4,
            phys_regs: 4,
        });
        assert!(ddt.chain(&[p(3)]).is_empty());
    }

    #[test]
    fn chain_union_of_two_operands() {
        let mut ddt = Ddt::new(DdtConfig {
            slots: 8,
            phys_regs: 8,
        });
        let a = ddt.insert(Some(p(1)), [None, None]);
        let b = ddt.insert(Some(p(2)), [None, None]);
        let c = ddt.chain(&[p(1), p(2)]);
        assert_eq!(c.slots().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "DDT full")]
    fn insert_when_full_panics() {
        let mut ddt = Ddt::new(DdtConfig {
            slots: 2,
            phys_regs: 4,
        });
        ddt.insert(None, [None, None]);
        ddt.insert(None, [None, None]);
        ddt.insert(None, [None, None]);
    }

    #[test]
    #[should_panic(expected = "DDT empty")]
    fn commit_when_empty_panics() {
        let mut ddt = Ddt::new(DdtConfig {
            slots: 2,
            phys_regs: 4,
        });
        ddt.commit_oldest();
    }

    #[test]
    fn long_running_wraparound_consistency() {
        // Stream a long dependent chain through a small ring, committing
        // as we go; the chain must always consist of exactly the live
        // window of producers.
        let cap = 6usize;
        let mut ddt = Ddt::new(DdtConfig {
            slots: cap,
            phys_regs: 64,
        });
        let mut live = 0usize;
        for i in 0..200u16 {
            if live == cap {
                ddt.commit_oldest();
                live -= 1;
            }
            let dest = p(i % 60);
            let src = if i == 0 { None } else { Some(p((i - 1) % 60)) };
            ddt.insert(Some(dest), [src, None]);
            live += 1;
            let chain = ddt.chain(&[dest]);
            assert_eq!(chain.len(), live, "at step {i}");
        }
    }

    #[test]
    fn valid_vector_gates_mid_chain_commits() {
        // Commit only the oldest while the chain spans it: the younger
        // reader must lose exactly that one bit.
        let mut ddt = Ddt::new(DdtConfig {
            slots: 8,
            phys_regs: 8,
        });
        ddt.insert(Some(p(1)), [None, None]);
        ddt.insert(Some(p(2)), [Some(p(1)), None]);
        ddt.insert(Some(p(3)), [Some(p(2)), None]);
        assert_eq!(ddt.chain(&[p(3)]).len(), 3);
        ddt.commit_oldest();
        assert_eq!(ddt.chain(&[p(3)]).len(), 2);
        ddt.commit_oldest();
        assert_eq!(ddt.chain(&[p(3)]).len(), 1);
    }

    #[test]
    fn wide_ddt_multiword_masks() {
        // Exercise the multi-word (slots > 64) paths.
        let cap = 200usize;
        let mut ddt = Ddt::new(DdtConfig {
            slots: cap,
            phys_regs: 128,
        });
        let mut last = None;
        for i in 0..150u16 {
            let dest = p(i % 120);
            ddt.insert(Some(dest), [last, None]);
            last = Some(dest);
        }
        let chain = ddt.chain(&[last.unwrap()]);
        assert_eq!(chain.len(), 150);
        // Slots span multiple words.
        assert!(chain.contains(InstSlot(0)) && chain.contains(InstSlot(149)));
    }

    #[test]
    fn wraparound_chain_is_column_ordered_but_age_sortable() {
        // Regression for the ChainMask::slots ordering contract: drive a
        // dependent chain around the ring end so the chain occupies
        // columns {3, 0, 1} in insertion order. Column-order iteration
        // reports {0, 1, 3} — mis-ordered relative to age — while
        // slots_by_age restores program order.
        let cap = 4usize;
        let mut ddt = Ddt::new(DdtConfig {
            slots: cap,
            phys_regs: 16,
        });
        // Fill slots 0..3, then free 0..2 so the ring wraps.
        ddt.insert(Some(p(1)), [None, None]);
        ddt.insert(Some(p(2)), [Some(p(1)), None]);
        ddt.insert(Some(p(3)), [Some(p(2)), None]);
        ddt.insert(Some(p(4)), [Some(p(3)), None]); // slot 3
        ddt.commit_oldest();
        ddt.commit_oldest();
        ddt.commit_oldest();
        let s4 = ddt.insert(Some(p(5)), [Some(p(4)), None]); // wraps to slot 0
        let s5 = ddt.insert(Some(p(6)), [Some(p(5)), None]); // slot 1
        assert_eq!((s4.index(), s5.index()), (0, 1));

        let chain = ddt.chain(&[p(6)]);
        // Column order: the wrapped (younger) slots come out first.
        assert_eq!(
            chain.slots().collect::<Vec<_>>(),
            vec![InstSlot(0), InstSlot(1), InstSlot(3)],
            "slots() iterates columns, not ages"
        );
        // Age order restores the insertion sequence p4 -> p5 -> p6.
        assert_eq!(
            ddt.slots_by_age(&chain),
            vec![InstSlot(3), InstSlot(0), InstSlot(1)],
            "slots_by_age must follow occupant sequence numbers"
        );
    }

    #[test]
    fn chain_into_reuses_mask_across_shapes_of_reads() {
        let (ddt, s) = figure_1_ddt();
        let mut mask = ChainMask::zeroed(ddt.config().slots);
        ddt.chain_into(&[p(8)], &mut mask);
        assert_eq!(mask, ddt.chain(&[p(8)]));
        // Reuse for a different read: previous contents must not leak.
        ddt.chain_into(&[p(7)], &mut mask);
        assert_eq!(mask.slots().collect::<Vec<_>>(), vec![s[0], s[4]]);
        ddt.chain_into(&[], &mut mask);
        assert!(mask.is_empty());
    }

    #[test]
    #[should_panic(expected = "ChainMask sized for")]
    fn chain_into_rejects_mismatched_mask() {
        let (ddt, _) = figure_1_ddt();
        let mut mask = ChainMask::zeroed(4);
        ddt.chain_into(&[p(8)], &mut mask);
    }

    #[test]
    fn chain_mask_helpers() {
        let (ddt, s) = figure_1_ddt();
        let c = ddt.chain(&[p(8)]);
        assert!(!c.is_empty());
        let mut other = ddt.chain(&[p(6)]);
        other.union_with(&c);
        assert!(other.contains(s[3]) && other.contains(s[5]));
        assert_eq!(other.words().len(), 1);
    }
}
