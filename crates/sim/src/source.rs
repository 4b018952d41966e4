//! Pluggable committed-instruction frontends.
//!
//! The timing simulator is trace-driven: [`Machine`](crate::Machine)
//! consumes a stream of committed [`DynInst`] records and models *when*
//! they execute, while *what* they compute is already decided by the
//! stream. [`InstSource`] abstracts where that stream comes from:
//!
//! * [`Emulator`] — live functional execution (the original frontend).
//! * `arvi_trace::TraceReplayer` — replay of a recorded trace, so one
//!   functional execution can feed many timing runs.
//! * [`IterSource`] — any `Iterator<Item = DynInst>` (tests, synthetic
//!   streams).
//!
//! A source must yield records in commit order with dense sequence
//! numbers starting at the machine's first fetch (the emulator and the
//! trace codec both guarantee this); the machine debug-asserts it.

use arvi_isa::{DynInst, Emulator};

/// A supplier of the committed dynamic instruction stream.
pub trait InstSource {
    /// The next committed instruction, or `None` when the stream ends
    /// (program halt or end of a recorded trace).
    fn next_inst(&mut self) -> Option<DynInst>;

    /// Fills `out` with the next records and returns how many were
    /// written; `0` means the stream has ended. Records are written from
    /// `out[0]` and the machine consumes exactly the returned prefix.
    ///
    /// The default forwards to [`next_inst`](InstSource::next_inst) one
    /// record at a time, so every source works unchanged; batch-native
    /// sources override it — `arvi_trace::TraceReplayer` decodes a whole
    /// chunk into its cursor's chunk buffer and copies contiguous runs of
    /// it into `out`, amortizing its per-record cursor overhead across
    /// the machine's fetch buffer.
    fn fill(&mut self, out: &mut [DynInst]) -> usize {
        let mut n = 0;
        while n < out.len() {
            match self.next_inst() {
                Some(d) => {
                    out[n] = d;
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

impl InstSource for Emulator {
    #[inline]
    fn next_inst(&mut self) -> Option<DynInst> {
        self.step()
    }
}

/// Adapter making any `DynInst` iterator an [`InstSource`].
#[derive(Debug)]
pub struct IterSource<I>(pub I);

impl<I: Iterator<Item = DynInst>> InstSource for IterSource<I> {
    #[inline]
    fn next_inst(&mut self) -> Option<DynInst> {
        self.0.next()
    }
}

/// Re-bases an inner source's sequence numbers to start at 0.
///
/// The machine requires dense sequence numbers starting at its first
/// fetch, but a sampling unit begins its detailed window in the middle
/// of a recorded trace where `seq` equals the absolute trace position.
/// `RebasedSource` subtracts that base so a mid-trace window looks like
/// a stream of its own to the machine. Only `seq` changes — the records
/// are otherwise untouched.
#[derive(Debug)]
pub struct RebasedSource<S> {
    inner: S,
    base: u64,
}

impl<S: InstSource> RebasedSource<S> {
    /// Wraps `inner`, subtracting `base` from every record's `seq`
    /// (`inner`'s next record must carry `seq == base`).
    pub fn new(inner: S, base: u64) -> RebasedSource<S> {
        RebasedSource { inner, base }
    }
}

impl<S: InstSource> InstSource for RebasedSource<S> {
    #[inline]
    fn next_inst(&mut self) -> Option<DynInst> {
        self.inner.next_inst().map(|mut d| {
            d.seq -= self.base;
            d
        })
    }

    #[inline]
    fn fill(&mut self, out: &mut [DynInst]) -> usize {
        let n = self.inner.fill(out);
        for d in &mut out[..n] {
            d.seq -= self.base;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_isa::{regs::*, AluOp, ProgramBuilder};

    #[test]
    fn emulator_is_a_source() {
        let mut b = ProgramBuilder::new();
        b.li(T0, 1);
        b.alu_imm(AluOp::Add, T0, T0, 2);
        b.halt();
        let mut src: Box<dyn InstSource> = Box::new(Emulator::new(b.build()));
        let mut n = 0;
        while src.next_inst().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn iterators_are_sources() {
        let mut b = ProgramBuilder::new();
        b.li(T0, 1);
        b.halt();
        let recorded: Vec<DynInst> = Emulator::new(b.build()).collect();
        let mut src = IterSource(recorded.clone().into_iter());
        assert_eq!(src.next_inst(), Some(recorded[0]));
        assert_eq!(src.next_inst(), None);
    }
}
