//! Machine-side [`ValueSource`] oracles for the ARVI configurations.
//!
//! The paper evaluates ARVI under three value regimes (Section 5): the
//! base *current value* configuration reads the predictor's own shadow
//! register file ([`arvi_core::CurrentValues`]); the *perfect value* and
//! *load back* configurations let the host simulator supply
//! architectural values from its rename state. Each regime is a concrete
//! type here, so `BranchUnit::decide` monomorphizes the value lookup
//! straight into the prediction loop — the seed-era `&dyn Fn` closure
//! paid a dynamic dispatch per leaf register of every predicted branch.
//!
//! The *current value* machine answers through [`VerdictOracle`], which
//! keeps load back's verdict on the side. [`LoadBackOracle`] differs from
//! [`ReadyOracle`] in one rule only: a pending load's value becomes
//! available once its hoist covers the fetch-to-writeback window. So
//! when that rule never fires on a current-value run, both oracles have
//! given the same answer to every query that run asked. A machine's
//! state after a prediction depends only on its state before and the
//! oracle's answers, so a load-back machine over the same stream and
//! parameters would have asked the same queries and run the same cycles,
//! counter for counter. A zero verdict therefore makes the current-value
//! result the load-back result, exactly; any non-zero verdict says
//! nothing, and the load-back cell must be simulated.

use std::cell::Cell;

use arvi_core::{PhysReg, ValueSource};

use crate::rename::RenameState;

/// *ARVI current* over the machine's rename state: a register's
/// architectural value is supplied once its producer has written back by
/// `now` (equivalent to the shadow-file ready gating, but sourced from
/// the rename table the machine already maintains).
#[derive(Debug, Clone, Copy)]
pub struct ReadyOracle<'a> {
    /// The machine's rename state.
    pub rename: &'a RenameState,
    /// The current cycle.
    pub now: u64,
}

impl ValueSource for ReadyOracle<'_> {
    #[inline]
    fn value_of(&self, r: PhysReg, _shadow: &arvi_core::ShadowRegFile) -> Option<u64> {
        self.rename
            .is_ready(r, self.now)
            .then(|| self.rename.oracle_value(r))
    }
}

/// *ARVI load back*: like [`ReadyOracle`], but a pending load's value is
/// additionally available when hoisting the load by its oracle hoist
/// distance would have covered the fetch-to-writeback window
/// ("aggressively compares addresses at run-time to disambiguate memory
/// references").
#[derive(Debug, Clone, Copy)]
pub struct LoadBackOracle<'a> {
    /// The machine's rename state.
    pub rename: &'a RenameState,
    /// The current cycle.
    pub now: u64,
    /// Sequence number of the fetching branch.
    pub fetch_seq: u64,
    /// Dynamic-instruction availability window (see `Machine::lb_window`).
    pub lb_window: u64,
}

impl ValueSource for LoadBackOracle<'_> {
    #[inline]
    fn value_of(&self, r: PhysReg, _shadow: &arvi_core::ShadowRegFile) -> Option<u64> {
        if self.rename.is_ready(r, self.now)
            || hoist_covers(self.rename, r, self.fetch_seq, self.lb_window)
        {
            Some(self.rename.oracle_value(r))
        } else {
            None
        }
    }
}

/// Load back's hoist rule: `r`'s producer is a load whose distance to
/// the branch fetched at `fetch_seq`, plus its oracle hoist distance,
/// covers `lb_window`.
#[inline]
fn hoist_covers(rename: &RenameState, r: PhysReg, fetch_seq: u64, lb_window: u64) -> bool {
    let (is_load, pseq, hoist) = rename.producer(r);
    is_load && (fetch_seq - pseq) + hoist as u64 >= lb_window
}

/// *ARVI current* with load back's verdict: answers every query as
/// [`ReadyOracle`] does, and counts the not-ready registers whose
/// producer meets [`LoadBackOracle`]'s hoist rule — the queries the two
/// oracles would answer differently (see the module docs).
#[derive(Debug)]
pub struct VerdictOracle<'a> {
    ready: ReadyOracle<'a>,
    fetch_seq: u64,
    lb_window: u64,
    hoisted: Cell<u64>,
}

impl<'a> VerdictOracle<'a> {
    /// The oracle for a branch fetched at `fetch_seq` in cycle `now`,
    /// under load back's availability window `lb_window`.
    pub fn new(rename: &'a RenameState, now: u64, fetch_seq: u64, lb_window: u64) -> Self {
        VerdictOracle {
            ready: ReadyOracle { rename, now },
            fetch_seq,
            lb_window,
            hoisted: Cell::new(0),
        }
    }

    /// How many queries so far load back would have answered and this
    /// oracle did not.
    pub fn hoisted(&self) -> u64 {
        self.hoisted.get()
    }
}

impl ValueSource for VerdictOracle<'_> {
    #[inline]
    fn value_of(&self, r: PhysReg, shadow: &arvi_core::ShadowRegFile) -> Option<u64> {
        let value = self.ready.value_of(r, shadow);
        if value.is_none() && hoist_covers(self.ready.rename, r, self.fetch_seq, self.lb_window) {
            self.hoisted.set(self.hoisted.get() + 1);
        }
        value
    }
}

/// *ARVI perfect*: every register value is available at prediction time.
#[derive(Debug, Clone, Copy)]
pub struct PerfectOracle<'a> {
    /// The machine's rename state.
    pub rename: &'a RenameState,
}

impl ValueSource for PerfectOracle<'_> {
    #[inline]
    fn value_of(&self, r: PhysReg, _shadow: &arvi_core::ShadowRegFile) -> Option<u64> {
        Some(self.rename.oracle_value(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_core::CurrentValues;

    /// The oracles and the shadow-file source agree on the protocol: a
    /// not-yet-ready register is gated by Ready/LoadBack, never by
    /// Perfect.
    #[test]
    fn oracle_gating() {
        let mut rename = RenameState::new(64);
        let (p0, _prev) = rename.allocate(arvi_isa::Reg::new(5), 0, 42, false, 0);
        // Producer allocated at cycle-unknown; not yet written back.
        assert_eq!(
            ReadyOracle {
                rename: &rename,
                now: 0
            }
            .value_of(p0, &dummy_shadow()),
            None
        );
        assert_eq!(
            PerfectOracle { rename: &rename }.value_of(p0, &dummy_shadow()),
            Some(42)
        );
        rename.set_ready(p0, 3);
        assert_eq!(
            ReadyOracle {
                rename: &rename,
                now: 4
            }
            .value_of(p0, &dummy_shadow()),
            Some(42)
        );
        // Sanity: the core-side CurrentValues reads the shadow file — an
        // architecturally live (never renamed) register is ready, a
        // freshly allocated one is gated until its writeback.
        let mut shadow = dummy_shadow();
        assert_eq!(CurrentValues.value_of(p0, &shadow), Some(0));
        shadow.alloc(p0);
        assert_eq!(CurrentValues.value_of(p0, &shadow), None);
    }

    /// The verdict counts exactly the queries load back answers and
    /// current value does not.
    #[test]
    fn verdict_counts_the_hoisted_loads() {
        let mut rename = RenameState::new(64);
        // A load far enough hoisted to cover an 80-instruction window
        // from seq 10, and a plain ALU result: both still pending.
        let (load, _) = rename.allocate(arvi_isa::Reg::new(5), 0, 42, true, 300);
        let (alu, _) = rename.allocate(arvi_isa::Reg::new(6), 1, 7, false, 0);
        let shadow = dummy_shadow();
        let verdict = VerdictOracle::new(&rename, 0, 10, 80);
        let load_back = LoadBackOracle {
            rename: &rename,
            now: 0,
            fetch_seq: 10,
            lb_window: 80,
        };
        assert_eq!(verdict.value_of(alu, &shadow), None);
        assert_eq!(load_back.value_of(alu, &shadow), None);
        assert_eq!(verdict.hoisted(), 0);
        assert_eq!(verdict.value_of(load, &shadow), None);
        assert_eq!(load_back.value_of(load, &shadow), Some(42));
        assert_eq!(verdict.hoisted(), 1);
        // Once written back, every oracle answers and nothing is counted.
        rename.set_ready(load, 2);
        let verdict = VerdictOracle::new(&rename, 3, 10, 80);
        assert_eq!(verdict.value_of(load, &shadow), Some(42));
        assert_eq!(verdict.hoisted(), 0);
    }

    fn dummy_shadow() -> arvi_core::ShadowRegFile {
        arvi_core::ShadowRegFile::new(64, 11)
    }
}
