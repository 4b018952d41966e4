//! Pre-optimization implementations preserved as measurement baselines:
//! the allocating [`NaiveDdt`] (pre-PR1), the heap-scheduled
//! [`HeapMachine`] (pre-calendar-queue timing machine, PR 4), and the
//! scalar `Vec<SatCounter>` direction predictors (pre-packed-counter
//! branch path, PR 5): [`ScalarBimodal`], [`ScalarGshare`],
//! [`ScalarLocal`], [`ScalarTwoBcGskew`].
//!
//! This is the allocating implementation the repository shipped before
//! the zero-allocation refactor: `insert` builds two fresh `Vec<u64>` per
//! instruction, every chain read allocates a result mask plus a scratch
//! buffer, and the live-range mask is rebuilt from scratch on every row
//! read. It exists so `perf_report` (and the criterion group in
//! `benches/structures.rs`) can quantify the optimized hot path against
//! the exact prior algorithm on the same host — do not use it for
//! anything but comparison; `arvi_core::Ddt` is the real structure and is
//! bit-compatible with this one.

pub use crate::baseline_machine::{simulate_source_heap, HeapMachine};
pub use crate::baseline_predict::{
    ScalarBimodal, ScalarDirectionPredictor, ScalarGshare, ScalarLocal, ScalarTwoBcGskew,
};

use arvi_core::{DdtConfig, InstSlot, PhysReg};

/// The allocating reference DDT (see module docs).
#[derive(Debug, Clone)]
pub struct NaiveDdt {
    cfg: DdtConfig,
    words: usize,
    rows: Vec<u64>,
    row_seq: Vec<u64>,
    row_written: Vec<bool>,
    valid: Vec<u64>,
    slot_seq: Vec<u64>,
    head_seq: u64,
    tail_seq: u64,
}

impl NaiveDdt {
    /// Creates an empty table.
    pub fn new(cfg: DdtConfig) -> NaiveDdt {
        let words = cfg.slots.div_ceil(64);
        NaiveDdt {
            cfg,
            words,
            rows: vec![0; cfg.phys_regs * words],
            row_seq: vec![0; cfg.phys_regs],
            row_written: vec![false; cfg.phys_regs],
            valid: vec![0; words],
            slot_seq: vec![0; cfg.slots],
            head_seq: 0,
            tail_seq: 0,
        }
    }

    /// In-flight instruction count.
    pub fn occupancy(&self) -> usize {
        (self.head_seq - self.tail_seq) as usize
    }

    /// Whether the window is full.
    pub fn is_full(&self) -> bool {
        self.occupancy() == self.cfg.slots
    }

    /// The sequence number of the occupant of `slot`.
    pub fn slot_seq(&self, slot: InstSlot) -> u64 {
        self.slot_seq[slot.index()]
    }

    #[inline]
    fn slot_of(&self, seq: u64) -> usize {
        (seq % self.cfg.slots as u64) as usize
    }

    fn set_linear(out: &mut [u64], start: usize, end: usize) {
        if start >= end {
            return;
        }
        let (sw, sb) = (start / 64, start % 64);
        let (ew, eb) = ((end - 1) / 64, (end - 1) % 64 + 1);
        if sw == ew {
            out[sw] |= (u64::MAX >> (64 - (eb - sb))) << sb;
        } else {
            out[sw] |= u64::MAX << sb;
            for w in &mut out[sw + 1..ew] {
                *w = u64::MAX;
            }
            out[ew] |= u64::MAX >> (64 - eb);
        }
    }

    fn live_range_mask(&self, from_seq: u64, to_seq: u64, out: &mut [u64]) {
        out.fill(0);
        if to_seq <= from_seq {
            return;
        }
        let len = ((to_seq - from_seq) as usize).min(self.cfg.slots);
        let start = self.slot_of(from_seq);
        let end = start + len;
        if end <= self.cfg.slots {
            NaiveDdt::set_linear(out, start, end);
        } else {
            NaiveDdt::set_linear(out, start, self.cfg.slots);
            NaiveDdt::set_linear(out, 0, end - self.cfg.slots);
        }
    }

    fn read_row_into(&self, r: PhysReg, scratch: &mut [u64], out: &mut [u64]) {
        if !self.row_written[r.index()] {
            return;
        }
        let w = self.row_seq[r.index()];
        self.live_range_mask(self.tail_seq, w + 1, scratch);
        let base = r.index() * self.words;
        let row = &self.rows[base..base + self.words];
        for i in 0..self.words {
            out[i] |= row[i] & self.valid[i] & scratch[i];
        }
    }

    /// Inserts an instruction (allocates two fresh buffers, as the
    /// pre-refactor implementation did).
    pub fn insert(&mut self, dest: Option<PhysReg>, srcs: [Option<PhysReg>; 2]) -> InstSlot {
        assert!(!self.is_full(), "DDT full");
        let seq = self.head_seq;
        let slot = self.slot_of(seq);
        if let Some(d) = dest {
            let mut new_row = vec![0u64; self.words];
            let mut scratch = vec![0u64; self.words];
            for src in srcs.into_iter().flatten() {
                self.read_row_into(src, &mut scratch, &mut new_row);
            }
            new_row[slot / 64] |= 1u64 << (slot % 64);
            let base = d.index() * self.words;
            self.rows[base..base + self.words].copy_from_slice(&new_row);
            self.row_seq[d.index()] = seq;
            self.row_written[d.index()] = true;
        }
        self.valid[slot / 64] |= 1u64 << (slot % 64);
        self.slot_seq[slot] = seq;
        self.head_seq = seq + 1;
        InstSlot(slot as u32)
    }

    /// Reads a chain (allocates the result and a scratch buffer).
    pub fn chain(&self, regs: &[PhysReg]) -> Vec<u64> {
        let mut out = vec![0u64; self.words];
        let mut scratch = vec![0u64; self.words];
        for &r in regs {
            self.read_row_into(r, &mut scratch, &mut out);
        }
        out
    }

    /// Commits the oldest in-flight instruction.
    pub fn commit_oldest(&mut self) -> InstSlot {
        assert!(self.head_seq != self.tail_seq, "DDT empty");
        let slot = self.slot_of(self.tail_seq);
        self.valid[slot / 64] &= !(1u64 << (slot % 64));
        self.tail_seq += 1;
        InstSlot(slot as u32)
    }

    /// Squashes instructions younger than `new_head_seq`.
    pub fn rollback_to(&mut self, new_head_seq: u64) {
        assert!(new_head_seq >= self.tail_seq && new_head_seq <= self.head_seq);
        for seq in new_head_seq..self.head_seq {
            let slot = self.slot_of(seq);
            self.valid[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.head_seq = new_head_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_core::Ddt;

    /// The baseline must stay bit-compatible with the optimized DDT —
    /// otherwise the speedup comparison is meaningless. 400 steps wrap
    /// the optimized DDT's position ring (`seq mod 2·slots`) at both a
    /// small window and the 64-slot word multiple.
    #[test]
    fn baseline_matches_optimized_ddt() {
        for slots in [12, 64] {
            let cfg = DdtConfig {
                slots,
                phys_regs: 24,
            };
            let mut naive = NaiveDdt::new(cfg);
            let mut fast = Ddt::new(cfg);
            let mut lfsr = 0xACE1u32;
            let mut step = |m: u32| {
                lfsr = lfsr.wrapping_mul(1103515245).wrapping_add(12345);
                (lfsr >> 16) % m
            };
            for i in 0..400 {
                if naive.is_full() {
                    naive.commit_oldest();
                    fast.commit_oldest();
                }
                let dest = PhysReg(step(24) as u16);
                let srcs = [
                    (step(4) != 0).then(|| PhysReg(step(24) as u16)),
                    (step(4) != 0).then(|| PhysReg(step(24) as u16)),
                ];
                naive.insert(Some(dest), srcs);
                fast.insert(Some(dest), srcs);
                if step(5) == 0 && naive.occupancy() > 1 {
                    naive.commit_oldest();
                    fast.commit_oldest();
                }
                for r in 0..24u16 {
                    assert_eq!(
                        naive.chain(&[PhysReg(r)]),
                        fast.chain(&[PhysReg(r)]).words().to_vec(),
                        "{slots} slots, step {i}, register p{r}"
                    );
                }
            }
        }
    }
}
