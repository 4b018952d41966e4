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
//! Every ARVI machine answers through [`Tallied`], a wrapper over its own
//! oracle that sorts each not-ready leaf query by load back's hoist rule
//! ([`PendingLeaves`]). The three oracles give the same value for a
//! ready leaf; they differ only on a not-ready one, which perfect value
//! always answers, load back answers when the hoist rule covers it, and
//! current value never answers. So over the queries one run asked, the
//! tally says how many each of the other two oracles would have answered
//! differently ([`PendingLeaves::differing`]). A machine's state after a
//! prediction depends only on its state before and the oracle's
//! answers, so when that count is zero a machine under the other oracle,
//! over the same stream and parameters, would have asked the same
//! queries and run the same cycles, counter for counter: the result is
//! the other configuration's result, exactly. A non-zero count says
//! nothing, and the other configuration must be simulated.

use std::cell::Cell;

use arvi_core::{PhysReg, ValueSource};

use crate::params::PredictorConfig;
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

/// The not-ready leaf queries of an ARVI run, split by load back's hoist
/// rule: the only queries on which the three ARVI oracles can disagree
/// (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PendingLeaves {
    /// Not ready, and the hoist rule covers it: load back and perfect
    /// value answer, current value does not.
    pub hoisted: u64,
    /// Not ready, and the hoist rule does not cover it: only perfect
    /// value answers.
    pub unhoisted: u64,
}

impl PendingLeaves {
    /// How many of these queries `a`'s oracle and `b`'s oracle answer
    /// differently; `None` unless both are ARVI configurations.
    pub fn differing(self, a: PredictorConfig, b: PredictorConfig) -> Option<u64> {
        if !(a.is_arvi() && b.is_arvi()) {
            return None;
        }
        let answers = |config, hoisted| match config {
            PredictorConfig::ArviPerfect => true,
            PredictorConfig::ArviLoadBack => hoisted,
            _ => false,
        };
        let mut n = 0;
        if answers(a, true) != answers(b, true) {
            n += self.hoisted;
        }
        if answers(a, false) != answers(b, false) {
            n += self.unhoisted;
        }
        Some(n)
    }
}

/// An ARVI machine's own oracle with the tally of its run: answers every
/// query as that oracle does, and adds each not-ready leaf to the
/// tally, sorted by load back's hoist rule.
#[derive(Debug)]
pub struct Tallied<'a, O> {
    oracle: O,
    rule: LoadBackOracle<'a>,
    pending: &'a Cell<PendingLeaves>,
}

impl<'a, O> Tallied<'a, O> {
    /// `oracle` tallied into `pending`; `rule` is load back's oracle for
    /// the same query, whose readiness and hoist rule sort the leaf.
    pub fn new(oracle: O, rule: LoadBackOracle<'a>, pending: &'a Cell<PendingLeaves>) -> Self {
        Tallied {
            oracle,
            rule,
            pending,
        }
    }
}

impl<O: ValueSource> ValueSource for Tallied<'_, O> {
    #[inline]
    fn value_of(&self, r: PhysReg, shadow: &arvi_core::ShadowRegFile) -> Option<u64> {
        let rule = &self.rule;
        if !rule.rename.is_ready(r, rule.now) {
            let mut pending = self.pending.get();
            if hoist_covers(rule.rename, r, rule.fetch_seq, rule.lb_window) {
                pending.hoisted += 1;
            } else {
                pending.unhoisted += 1;
            }
            self.pending.set(pending);
        }
        self.oracle.value_of(r, shadow)
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

    /// Each wrapped ARVI oracle tallies the same leaves, and the tally
    /// gives, for every pair of oracles, exactly the number of queries
    /// the two answer differently.
    #[test]
    fn each_oracle_counts_the_queries_the_other_two_answer_differently() {
        use PredictorConfig::*;
        let reg = arvi_isa::Reg::new;
        let mut rename = RenameState::new(64);
        // For a branch fetched at seq 10 in cycle 3 under an
        // 80-instruction window: a written-back result, a load hoisted
        // far enough to cover the window, a load that is not, and an
        // ALU result, the last three still pending.
        let (ready, _) = rename.allocate(reg(4), 0, 1, false, 0);
        rename.set_ready(ready, 2);
        let (hoisted, _) = rename.allocate(reg(5), 1, 42, true, 300);
        let (unhoisted, _) = rename.allocate(reg(6), 2, 7, true, 0);
        let (alu, _) = rename.allocate(reg(7), 3, 9, false, 0);
        let rule = LoadBackOracle {
            rename: &rename,
            now: 3,
            fetch_seq: 10,
            lb_window: 80,
        };
        fn ask<O: ValueSource>(
            oracle: O,
            rule: LoadBackOracle<'_>,
            leaves: &[PhysReg],
        ) -> (Vec<Option<u64>>, PendingLeaves) {
            let pending = Cell::new(PendingLeaves::default());
            let tallied = Tallied::new(oracle, rule, &pending);
            let shadow = dummy_shadow();
            let answers = leaves.iter().map(|&r| tallied.value_of(r, &shadow));
            (answers.collect(), pending.get())
        }
        let leaves = [ready, hoisted, unhoisted, alu];
        let runs = [
            (
                ArviCurrent,
                ask(
                    ReadyOracle {
                        rename: &rename,
                        now: 3,
                    },
                    rule,
                    &leaves,
                ),
            ),
            (ArviLoadBack, ask(rule, rule, &leaves)),
            (
                ArviPerfect,
                ask(PerfectOracle { rename: &rename }, rule, &leaves),
            ),
        ];
        assert_eq!(runs[0].1 .0, [Some(1), None, None, None]);
        assert_eq!(runs[1].1 .0, [Some(1), Some(42), None, None]);
        assert_eq!(runs[2].1 .0, [Some(1), Some(42), Some(7), Some(9)]);
        for (a, (answers_a, pending)) in &runs {
            assert_eq!(
                *pending,
                PendingLeaves {
                    hoisted: 1,
                    unhoisted: 2
                },
                "{a:?}"
            );
            for (b, (answers_b, _)) in &runs {
                let differing = answers_a.iter().zip(answers_b).filter(|(x, y)| x != y);
                assert_eq!(
                    pending.differing(*a, *b),
                    Some(differing.count() as u64),
                    "{a:?} vs {b:?}"
                );
            }
            assert_eq!(pending.differing(*a, TwoLevelGskew), None);
        }
        let pending = runs[0].1 .1;
        assert_eq!(pending.differing(ArviCurrent, ArviPerfect), Some(3));
        assert_eq!(pending.differing(ArviCurrent, ArviLoadBack), Some(1));
        assert_eq!(pending.differing(ArviPerfect, ArviLoadBack), Some(2));
    }

    fn dummy_shadow() -> arvi_core::ShadowRegFile {
        arvi_core::ShadowRegFile::new(64, 11)
    }
}
