//! The out-of-order machine model.
//!
//! A trace-driven, event-assisted cycle model of the paper's Table 2
//! machine: 4-wide fetch/issue/commit, 256-entry window, LSQ, functional
//! unit pools, the full memory hierarchy, and the two-level overriding
//! branch predictor stack. Instructions are renamed at fetch (as the
//! paper requires for the DDT), scheduled dataflow-fashion when their
//! operands are produced, and committed in order.
//!
//! The event core is a fixed-horizon calendar queue
//! ([`crate::wheel::EventWheel`]): writeback events and operand-ready
//! candidates are bucketed by cycle in O(1) with zero steady-state
//! allocation, and quiet stretches skip directly to the next occupied
//! bucket. Store/load memory ordering uses sorted-vector
//! [`crate::wheel::SeqSet`]s instead of `BTreeSet`s, branch decisions
//! ride in a commit-order FIFO beside the ROB instead of fattening every
//! entry, and per-register consumer wait lists live with the rename
//! state that wakes them. Every `MachineStats` counter of the suite grid
//! and the curated scenarios is pinned by the golden digests
//! (`tests/golden_digests.rs`).
//!
//! Trace-driven approximations (DESIGN.md substitution 2): fetch always
//! follows the correct path; a mispredicted branch stalls fetch until it
//! resolves, and a corrective level-2 override stalls fetch for the
//! level-2 latency. Wrong-path pollution is not modeled.

use std::cell::Cell;
use std::collections::VecDeque;

use arvi_core::{CurrentValues, PhysReg, RenamedOp};
use arvi_isa::{DynInst, Emulator, InstKind};
use arvi_obs::{BranchResolution, CacheSnapshot, NullProbe, Probe};
use arvi_stats::Accuracy;

use crate::branch_unit::{BranchDecision, BranchUnit};
use crate::hierarchy::Hierarchy;
use crate::oracle::{LoadBackOracle, PendingLeaves, PerfectOracle, ReadyOracle, Tallied};
use crate::params::{PredictorConfig, SimParams};
use crate::rename::RenameState;
use crate::source::InstSource;
use crate::wheel::{EventWheel, SeqSet};

/// Counter block for a machine run; figures are computed from snapshot
/// differences so warmup is excluded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// Committed instructions.
    pub committed: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Final (post-override) direction accuracy on conditional branches.
    pub cond_branches: Accuracy,
    /// Level-1-only accuracy (what the machine would do without L2).
    pub l1_only: Accuracy,
    /// Accuracy over ARVI-classified calculated branches.
    pub calc_class: Accuracy,
    /// Accuracy over ARVI-classified load branches.
    pub load_class: Accuracy,
    /// L2 overrides fired.
    pub overrides: u64,
    /// Overrides that corrected a wrong level-1 direction.
    pub overrides_correcting: u64,
    /// BVIT tag hits among ARVI predictions.
    pub bvit_hits: u64,
    /// Branches whose final direction was wrong (full flush).
    pub full_mispredicts: u64,
    /// Fetch re-steers caused by corrective overrides.
    pub override_restarts: u64,
}

impl MachineStats {
    /// Counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &MachineStats) -> MachineStats {
        MachineStats {
            committed: self.committed - earlier.committed,
            cycles: self.cycles - earlier.cycles,
            cond_branches: self.cond_branches.since(&earlier.cond_branches),
            l1_only: self.l1_only.since(&earlier.l1_only),
            calc_class: self.calc_class.since(&earlier.calc_class),
            load_class: self.load_class.since(&earlier.load_class),
            overrides: self.overrides - earlier.overrides,
            overrides_correcting: self.overrides_correcting - earlier.overrides_correcting,
            bvit_hits: self.bvit_hits - earlier.bvit_hits,
            full_mispredicts: self.full_mispredicts - earlier.full_mispredicts,
            override_restarts: self.override_restarts - earlier.override_restarts,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of conditional branches classified as load branches.
    pub fn load_branch_fraction(&self) -> f64 {
        let total = self.calc_class.total() + self.load_class.total();
        if total == 0 {
            0.0
        } else {
            self.load_class.total() as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign<&MachineStats> for MachineStats {
    /// Adds another counter block field by field: how sampled units merge
    /// into a cell's totals. Plain integer addition end to end, so merging
    /// is exact, associative and commutative. The destructure names every
    /// field, so a new counter cannot be left out of sampled totals.
    fn add_assign(&mut self, other: &MachineStats) {
        let MachineStats {
            committed,
            cycles,
            cond_branches,
            l1_only,
            calc_class,
            load_class,
            overrides,
            overrides_correcting,
            bvit_hits,
            full_mispredicts,
            override_restarts,
        } = other;
        self.committed += committed;
        self.cycles += cycles;
        self.cond_branches += *cond_branches;
        self.l1_only += *l1_only;
        self.calc_class += *calc_class;
        self.load_class += *load_class;
        self.overrides += overrides;
        self.overrides_correcting += overrides_correcting;
        self.bvit_hits += bvit_hits;
        self.full_mispredicts += full_mispredicts;
        self.override_restarts += override_restarts;
    }
}

/// The reorder buffer as stage-local parallel arrays (structure of
/// arrays), indexed by `seq & mask` over a power-of-two ring. Each
/// pipeline stage touches only the columns it needs — commit scans a
/// contiguous byte of flags per entry, issue reads `kind`/`mem_addr`,
/// writeback sets one bit — instead of dragging a fat per-entry struct
/// (formerly a 56-byte `DynInst` plus bookkeeping, two cache lines)
/// through every stage. Branch decisions never enter the ROB at all:
/// they ride a commit-order FIFO next to it.
#[derive(Debug)]
struct Rob {
    mask: u64,
    /// Per-entry flag byte: see the `F_*` constants; the low two bits
    /// count outstanding operands.
    flags: Box<[u8]>,
    /// Earliest cycle the entry may issue (fetch cycle + front end).
    dispatch_ready: Box<[u64]>,
    /// Functional-unit class.
    kind: Box<[InstKind]>,
    /// Effective address (loads/stores).
    mem_addr: Box<[u64]>,
    /// Architectural result (forwarded to the ARVI shadow file).
    result: Box<[u64]>,
    /// Destination physical register (`NO_REG` = none).
    dest_phys: Box<[u16]>,
    /// Previous mapping to free at commit (`NO_REG` = none).
    prev_phys: Box<[u16]>,
}

/// Operand count lives in the low two bits of the flag byte.
const DEPS_MASK: u8 = 0b11;
const F_DONE: u8 = 1 << 2;
const F_ISSUED: u8 = 1 << 3;
const F_LOAD: u8 = 1 << 4;
const F_MEM: u8 = 1 << 5;
const F_BRANCH: u8 = 1 << 6;

/// No physical register (dest/prev columns).
const NO_REG: u16 = u16::MAX;

/// Timeline payload tag: `seq << 1 | EV_WRITEBACK` is a completion
/// event, an untagged `seq << 1` is an operand-ready issue candidate.
const EV_WRITEBACK: u64 = 1;

/// Records pulled from the instruction source per [`InstSource::fill`]
/// call — one trace chunk's worth of decode amortized over 64 fetches.
const FETCH_CHUNK: usize = 64;

/// Placeholder filling the fetch buffer's unwritten tail (never fetched:
/// consumption is bounded by the fill count).
const BLANK_INST: DynInst = DynInst {
    seq: 0,
    pc: 0,
    kind: InstKind::Halt,
    srcs: [None, None],
    dest: None,
    result: 0,
    mem_addr: 0,
    branch: None,
    hoist: 0,
};

impl Rob {
    fn new(entries: usize) -> Rob {
        let cap = entries.next_power_of_two();
        Rob {
            mask: cap as u64 - 1,
            flags: vec![0; cap].into_boxed_slice(),
            dispatch_ready: vec![0; cap].into_boxed_slice(),
            kind: vec![InstKind::Halt; cap].into_boxed_slice(),
            mem_addr: vec![0; cap].into_boxed_slice(),
            result: vec![0; cap].into_boxed_slice(),
            dest_phys: vec![NO_REG; cap].into_boxed_slice(),
            prev_phys: vec![NO_REG; cap].into_boxed_slice(),
        }
    }

    #[inline]
    fn idx(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }
}

/// A queued branch decision with the commit-time facts that used to be
/// re-read from the ROB entry.
#[derive(Debug)]
struct DecisionRec {
    pc: u64,
    actual: bool,
    dec: BranchDecision,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchState {
    Running,
    /// Waiting out an instruction-cache miss or a flush bubble.
    Stalled {
        until: u64,
    },
    /// Blocked behind a branch whose followed direction is (or may be)
    /// wrong; resumes at the override time (if the override corrects the
    /// direction) or at branch resolution, whichever first.
    BranchBlocked {
        seq: u64,
        resume_override: Option<u64>,
    },
}

/// The machine: owns the instruction source (live [`Emulator`] or a
/// trace replayer — any [`InstSource`]), predictor stack, hierarchy and
/// scheduling state.
///
/// Generic over a [`Probe`] observing pipeline events; the default
/// [`NullProbe`] monomorphizes every hook away, so an unprobed machine
/// is bit- and speed-identical to the pre-probe machine
/// (`tests/probe_equivalence.rs`, the `perfbench` benchmark).
pub struct Machine<S: InstSource = Emulator, P: Probe = NullProbe> {
    params: SimParams,
    config: PredictorConfig,
    source: S,
    hier: Hierarchy,
    bu: BranchUnit,
    rename: RenameState,
    /// In-flight entries live in `[tail_seq, head_seq)` of the ring.
    rob: Rob,
    /// Commit-order decisions of in-flight conditional branches.
    decisions: VecDeque<DecisionRec>,
    tail_seq: u64,
    head_seq: u64,
    cycle: u64,
    /// The single calendar queue: writeback events and operand-ready
    /// issue candidates share cycle buckets, distinguished by the low
    /// payload bit (see `EV_WRITEBACK`). One bucket probe per cycle
    /// serves both, and one bitmap scan finds the next busy cycle.
    timeline: EventWheel,
    unissued_stores: SeqSet,
    mem_blocked_loads: SeqSet,
    mem_in_flight: usize,
    fetch_state: FetchState,
    /// Block-decoded fetch buffer: the source fills it a chunk at a
    /// time ([`InstSource::fill`]), fetch consumes `fetch_pos..fetch_len`.
    fetch_buf: Box<[DynInst]>,
    fetch_pos: usize,
    fetch_len: usize,
    current_fetch_line: u64,
    /// `log2(l1i.line_bytes)` — fetch computes a line per instruction.
    fetch_line_shift: u32,
    trace_done: bool,
    /// Load-back availability window (dynamic instructions): a hoisted
    /// load is treated as available to ARVI if its gap-plus-hoist covers
    /// the fetch-to-writeback distance.
    lb_window: u64,
    /// The not-ready leaf queries of this run (see [`Machine::pending_leaves`]).
    pending: PendingLeaves,
    stats: MachineStats,
    /// Hard commit ceiling: commit stops mid-cycle once this many total
    /// instructions have committed (`u64::MAX` = no cap). Lets sampled
    /// measurement windows end on an exact instruction boundary instead
    /// of overshooting by up to `commit_width - 1`.
    commit_cap: u64,
    /// Cycle at which fetch last entered `BranchBlocked` (mispredict
    /// recovery depth = release cycle minus this).
    blocked_since: u64,
    probe: P,
    /// Reusable per-cycle buffers — the scheduler loop runs every cycle,
    /// so these must not be reallocated per call.
    due_scratch: Vec<u64>,
    eligible_scratch: Vec<u64>,
    leftover_scratch: Vec<u64>,
    woken_scratch: Vec<u64>,
    ready_loads_scratch: Vec<u64>,
}

impl<S: InstSource> Machine<S> {
    /// Builds a machine consuming `source`'s committed stream under
    /// `config`, with the no-op [`NullProbe`].
    pub fn new(source: S, params: SimParams, config: PredictorConfig) -> Machine<S> {
        Machine::with_probe(source, params, config, NullProbe)
    }
}

impl<S: InstSource, P: Probe> Machine<S, P> {
    /// [`Machine::new`] with an explicit observation probe.
    pub fn with_probe(
        source: S,
        params: SimParams,
        config: PredictorConfig,
        probe: P,
    ) -> Machine<S, P> {
        let hier = Hierarchy::new(&params);
        let bu = BranchUnit::new(&params, config);
        Machine::assemble(source, params, config, probe, bu, hier)
    }

    /// Builds a machine around pre-warmed predictor and hierarchy state
    /// (the sampled-simulation handoff: a
    /// [`WarmupMachine`](crate::warmup::WarmupMachine) trains `bu` and
    /// `hier` at emulation speed, then the detailed measurement starts
    /// here). Rename/ROB/scheduler state always starts cold — those
    /// describe in-flight instructions, of which there are none yet.
    pub(crate) fn assemble(
        source: S,
        params: SimParams,
        config: PredictorConfig,
        probe: P,
        bu: BranchUnit,
        hier: Hierarchy,
    ) -> Machine<S, P> {
        let lb_window =
            params.fetch_width as u64 * (params.frontend_latency + params.l1_latency + 1);
        // A zero-latency front end would make an instruction issue-ready
        // in its own fetch cycle, after the issue stage already ran; the
        // scheduler relies on dispatch readiness being strictly future.
        assert!(params.frontend_latency >= 1, "front end must be >= 1 cycle");
        // The wheel horizon must exceed every schedulable delay:
        // `max_event_latency` is the single source of that bound (worst
        // writeback latency, FU latencies, front-end dispatch delay).
        // Cross-check it against what the hierarchy can actually
        // return, so the two can never drift apart silently.
        let max_delay = params.max_event_latency();
        assert!(
            max_delay > hier.max_access_latency(),
            "wheel horizon bound {} does not cover the hierarchy's worst access (1 + {})",
            max_delay,
            hier.max_access_latency()
        );
        Machine {
            bu,
            rename: RenameState::new(params.phys_regs),
            rob: Rob::new(params.rob_entries),
            decisions: VecDeque::new(),
            tail_seq: 0,
            head_seq: 0,
            cycle: 0,
            timeline: EventWheel::with_max_delay(max_delay),
            unissued_stores: SeqSet::default(),
            mem_blocked_loads: SeqSet::default(),
            mem_in_flight: 0,
            fetch_state: FetchState::Running,
            fetch_buf: vec![BLANK_INST; FETCH_CHUNK].into_boxed_slice(),
            fetch_pos: 0,
            fetch_len: 0,
            current_fetch_line: u64::MAX,
            fetch_line_shift: (params.l1i.line_bytes as u64).trailing_zeros(),
            trace_done: false,
            lb_window,
            pending: PendingLeaves::default(),
            stats: MachineStats::default(),
            commit_cap: u64::MAX,
            blocked_since: 0,
            probe,
            due_scratch: Vec::new(),
            eligible_scratch: Vec::new(),
            leftover_scratch: Vec::new(),
            woken_scratch: Vec::new(),
            ready_loads_scratch: Vec::new(),
            hier,
            source,
            params,
            config,
        }
    }

    /// Current statistics (snapshot for window differencing).
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The not-ready leaf queries of this ARVI run so far, warm-up
    /// included (zero for the gskew baseline). Where
    /// [`PendingLeaves::differing`] gives 0 between this machine's
    /// configuration and another ARVI one, a machine of that
    /// configuration over the same stream and parameters runs
    /// identically to this one (see [`crate::oracle`]). Kept out of
    /// [`MachineStats`], so digests and journals do not see it.
    pub fn pending_leaves(&self) -> PendingLeaves {
        self.pending
    }

    /// The memory hierarchy (for cache statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// The branch-prediction stack.
    pub fn branch_unit(&self) -> &BranchUnit {
        &self.bu
    }

    /// The observation probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Pushes end-of-run cache/TLB totals into the probe and consumes
    /// the machine, returning the probe. Run harnesses call this once
    /// after the measurement window.
    pub fn into_probe(mut self) -> P {
        let snap = CacheSnapshot {
            l1i: self.hier.l1i_stats(),
            l1d: self.hier.l1d_stats(),
            l2: self.hier.l2_stats(),
            itlb: self.hier.itlb_stats(),
            dtlb: self.hier.dtlb_stats(),
        };
        self.probe.on_cache_stats(&snap);
        self.probe
    }

    #[inline]
    fn rob_is_empty(&self) -> bool {
        self.tail_seq == self.head_seq
    }

    /// Runs until `target` total instructions have committed (or the
    /// trace ends). Returns the number committed.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (an internal invariant violation).
    pub fn run_until_committed(&mut self, target: u64) -> u64 {
        while self.stats.committed < target {
            if self.trace_done && self.rob_is_empty() {
                break;
            }
            self.step_cycle();
        }
        self.stats.committed
    }

    /// [`run_until_committed`](Machine::run_until_committed), but the
    /// commit stage stops *exactly* at `target` — the final cycle
    /// commits a partial group instead of a full `commit_width` one, so
    /// a measurement window ends on a precise instruction boundary.
    /// Sampling depends on this: with an exact cap, a 100%-coverage
    /// plan's tiled windows measure the same instruction population as
    /// one contiguous run, commit for commit. The cap is cleared before
    /// returning; instructions already completed in the window commit on
    /// the next call.
    pub fn run_until_committed_exact(&mut self, target: u64) -> u64 {
        self.commit_cap = target;
        let committed = self.run_until_committed(target);
        self.commit_cap = u64::MAX;
        committed
    }

    fn step_cycle(&mut self) {
        self.probe
            .on_cycle(self.cycle, (self.head_seq - self.tail_seq) as u32);
        // One bucket probe serves the whole cycle: completions and due
        // issue candidates arrive together, tagged by the low bit.
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        let mut eligible = std::mem::take(&mut self.eligible_scratch);
        eligible.clear();
        self.timeline.drain_due_into(self.cycle, &mut due);

        let mut activity = false;
        activity |= self.process_events(&due, &mut eligible);
        activity |= self.commit();
        self.check_override_resume();
        activity |= self.issue(&mut eligible);
        activity |= self.fetch();
        self.stats.cycles += 1;
        self.due_scratch = due;
        self.eligible_scratch = eligible;

        if activity || (self.trace_done && self.rob_is_empty()) {
            self.cycle += 1;
            return;
        }
        // Quiet cycle: skip to the next occupied wheel bucket (or fetch
        // resume time). Every bucket strictly between is empty, so no
        // event can be missed by the jump.
        let mut next = self.timeline.next_after(self.cycle).unwrap_or(u64::MAX);
        match self.fetch_state {
            FetchState::Stalled { until } => next = next.min(until),
            FetchState::BranchBlocked {
                resume_override: Some(t),
                ..
            } => next = next.min(t),
            _ => {}
        }
        assert!(
            next != u64::MAX,
            "machine deadlocked at cycle {} (rob {}, timeline {}, committed {})",
            self.cycle,
            self.head_seq - self.tail_seq,
            self.timeline.len(),
            self.stats.committed
        );
        let jump = next.max(self.cycle + 1);
        self.stats.cycles += jump - self.cycle - 1;
        self.cycle = jump;
    }

    /// Processes writeback/resolution events due this cycle; untagged
    /// payloads are issue candidates and seed `eligible` directly.
    fn process_events(&mut self, due: &[u64], eligible: &mut Vec<u64>) -> bool {
        let mut any = false;
        for &item in due {
            if item & EV_WRITEBACK == 0 {
                eligible.push(item >> 1);
                continue;
            }
            let seq = item >> 1;
            any = true;
            self.probe.on_writeback(self.cycle, seq);
            let i = self.rob.idx(seq);
            let flags = self.rob.flags[i] | F_DONE;
            self.rob.flags[i] = flags;
            let dest = self.rob.dest_phys[i];
            if dest != NO_REG {
                let p = PhysReg(dest);
                self.rename.set_ready(p, self.cycle);
                if self.config.is_arvi() {
                    self.bu.writeback(p, self.rob.result[i]);
                }
                // Drain the wait list into the reused scratch (keeping
                // both buffers' capacity).
                let mut woken = std::mem::take(&mut self.woken_scratch);
                woken.clear();
                self.rename.take_waiters_into(p, &mut woken);
                for &w in &woken {
                    let wi = self.rob.idx(w);
                    let f = self.rob.flags[wi] - 1;
                    self.rob.flags[wi] = f;
                    if f & DEPS_MASK == 0 {
                        self.make_issue_candidate(w, Some(eligible));
                    }
                }
                self.woken_scratch = woken;
            }
            if flags & F_BRANCH != 0 {
                // Branch resolution: release a blocked fetch (flush +
                // redirect costs one bubble before refetch).
                if let FetchState::BranchBlocked { seq: blocked, .. } = self.fetch_state {
                    if blocked == seq {
                        self.probe
                            .on_recovery(self.cycle, self.cycle - self.blocked_since);
                        self.fetch_state = FetchState::Stalled {
                            until: self.cycle + 1,
                        };
                    }
                }
            }
        }
        any
    }

    /// Moves an operand-ready instruction into the scheduler, honoring
    /// load-after-store ordering. During event processing (before the
    /// issue stage has run) a candidate already due joins `eligible`
    /// directly instead of round-tripping through this cycle's —
    /// already drained — bucket.
    fn make_issue_candidate(&mut self, seq: u64, eligible: Option<&mut Vec<u64>>) {
        let i = self.rob.idx(seq);
        let earliest = self.rob.dispatch_ready[i].max(self.cycle);
        if self.rob.flags[i] & F_LOAD != 0 {
            if let Some(oldest_store) = self.unissued_stores.first() {
                if oldest_store < seq {
                    // Older store with unknown address: wait.
                    self.mem_blocked_loads.insert(seq);
                    return;
                }
            }
        }
        match eligible {
            Some(out) if earliest <= self.cycle => out.push(seq),
            _ => self.timeline.schedule(self.cycle, earliest, seq << 1),
        }
    }

    /// In-order commit of completed instructions (read in place from the
    /// ring; nothing is copied out).
    fn commit(&mut self) -> bool {
        let mut n = 0;
        while n < self.params.commit_width && self.stats.committed < self.commit_cap {
            if self.tail_seq == self.head_seq {
                break;
            }
            let seq = self.tail_seq;
            let i = self.rob.idx(seq);
            let flags = self.rob.flags[i];
            if flags & F_DONE == 0 {
                break;
            }
            self.probe.on_commit(self.cycle, seq);
            self.tail_seq += 1;
            let prev = self.rob.prev_phys[i];
            if prev != NO_REG {
                self.rename.release(PhysReg(prev));
            }
            if self.config.is_arvi() {
                self.bu.commit_inst();
            }
            if flags & F_MEM != 0 {
                self.mem_in_flight -= 1;
            }
            if flags & F_BRANCH != 0 {
                let rec = self
                    .decisions
                    .pop_front()
                    .expect("every in-flight conditional branch queued a decision");
                self.bu.commit_branch(rec.pc, &rec.dec, rec.actual);
                self.record_branch_stats(rec.pc, &rec.dec, rec.actual);
            }
            self.stats.committed += 1;
            n += 1;
        }
        n > 0
    }

    fn record_branch_stats(&mut self, pc: u64, decision: &BranchDecision, actual: bool) {
        if P::ENABLED {
            self.probe.on_branch_resolve(
                self.cycle,
                pc,
                &BranchResolution {
                    actual,
                    final_taken: decision.final_taken,
                    l1_taken: decision.l1.taken,
                    confident: decision.confident,
                    override_fired: decision.override_fired,
                    bvit_hit: decision
                        .arvi
                        .as_ref()
                        .is_some_and(|ap| ap.direction.is_some()),
                    load_class: decision
                        .arvi
                        .as_ref()
                        .map(|ap| ap.class == arvi_core::BranchClass::Load),
                },
            );
        }
        let correct = decision.final_taken == actual;
        self.stats.cond_branches.record(correct);
        self.stats.l1_only.record(decision.l1.taken == actual);
        if let Some(ap) = &decision.arvi {
            match ap.class {
                arvi_core::BranchClass::Calculated => self.stats.calc_class.record(correct),
                arvi_core::BranchClass::Load => self.stats.load_class.record(correct),
            }
            if ap.direction.is_some() {
                self.stats.bvit_hits += 1;
            }
        }
        if decision.override_fired {
            self.stats.overrides += 1;
            if correct && decision.l1.taken != actual {
                self.stats.overrides_correcting += 1;
            }
        }
    }

    fn check_override_resume(&mut self) {
        if let FetchState::BranchBlocked {
            resume_override: Some(t),
            ..
        } = self.fetch_state
        {
            if t <= self.cycle {
                self.fetch_state = FetchState::Running;
            }
        }
        if let FetchState::Stalled { until } = self.fetch_state {
            if until <= self.cycle {
                self.fetch_state = FetchState::Running;
            }
        }
    }

    /// Dataflow issue: oldest-first among ready candidates, bounded by
    /// issue width and functional-unit pools. The wheel hands over this
    /// cycle's bucket in insertion order; the single age sort here is
    /// the only ordering work in the whole scheduler.
    fn issue(&mut self, eligible: &mut [u64]) -> bool {
        if eligible.is_empty() {
            return false;
        }
        eligible.sort_unstable();

        let mut alus = self.params.int_alus;
        let mut muldiv = self.params.int_muldiv;
        let mut ports = self.params.mem_ports;
        let mut issued = 0usize;
        let mut leftovers = std::mem::take(&mut self.leftover_scratch);
        leftovers.clear();

        for &seq in eligible.iter() {
            if issued == self.params.issue_width {
                leftovers.push(seq);
                continue;
            }
            let kind = self.rob.kind[self.rob.idx(seq)];
            let fu = match kind {
                InstKind::IntMul | InstKind::IntDiv => &mut muldiv,
                InstKind::Load | InstKind::Store => &mut ports,
                _ => &mut alus,
            };
            if *fu == 0 {
                leftovers.push(seq);
                continue;
            }
            *fu -= 1;
            issued += 1;
            self.issue_one(seq);
        }
        for &seq in &leftovers {
            self.timeline.schedule(self.cycle, self.cycle + 1, seq << 1);
        }
        self.leftover_scratch = leftovers;
        self.probe
            .on_issue(self.cycle, issued as u32, self.params.issue_width as u32);
        issued > 0
    }

    fn issue_one(&mut self, seq: u64) {
        let i = self.rob.idx(seq);
        debug_assert!(self.rob.flags[i] & F_ISSUED == 0, "double issue of {seq}");
        self.rob.flags[i] |= F_ISSUED;
        let (kind, addr) = (self.rob.kind[i], self.rob.mem_addr[i]);
        let latency = match kind {
            InstKind::IntMul => self.params.mul_latency,
            InstKind::IntDiv => self.params.div_latency,
            InstKind::Load => {
                let lat = 1 + self.hier.access_data(addr);
                self.probe.on_mem_access(self.cycle, seq, lat);
                lat
            }
            InstKind::Store => {
                let lat = self.hier.access_data(addr);
                self.probe.on_mem_access(self.cycle, seq, lat);
                self.unissued_stores.remove(seq);
                self.unblock_loads();
                1
            }
            _ => 1,
        };
        self.timeline
            .schedule(self.cycle, self.cycle + latency, (seq << 1) | EV_WRITEBACK);
    }

    /// Re-examines loads blocked on store ordering after a store issues.
    fn unblock_loads(&mut self) {
        let bound = self.unissued_stores.first();
        let mut ready = std::mem::take(&mut self.ready_loads_scratch);
        ready.clear();
        self.mem_blocked_loads.drain_below_into(bound, &mut ready);
        for &seq in &ready {
            let earliest = self.rob.dispatch_ready[self.rob.idx(seq)].max(self.cycle + 1);
            self.timeline.schedule(self.cycle, earliest, seq << 1);
        }
        self.ready_loads_scratch = ready;
    }

    /// The next trace record out of the block-decoded fetch buffer,
    /// refilling a chunk at a time from the source.
    #[inline]
    fn next_from_buffer(&mut self) -> Option<DynInst> {
        if self.fetch_pos == self.fetch_len {
            self.fetch_len = self.source.fill(&mut self.fetch_buf);
            self.fetch_pos = 0;
            if self.fetch_len == 0 {
                return None;
            }
        }
        let d = self.fetch_buf[self.fetch_pos];
        self.fetch_pos += 1;
        Some(d)
    }

    /// Returns the most recently pulled record to the buffer (fetch
    /// gates that must retry the same instruction next cycle).
    #[inline]
    fn unfetch(&mut self) {
        debug_assert!(self.fetch_pos > 0, "nothing to return");
        self.fetch_pos -= 1;
    }

    /// Fetches, renames and dispatches up to `fetch_width` instructions.
    fn fetch(&mut self) -> bool {
        if self.fetch_state != FetchState::Running || self.trace_done {
            return false;
        }
        let mut fetched = 0usize;
        while fetched < self.params.fetch_width {
            if (self.head_seq - self.tail_seq) as usize >= self.params.rob_entries {
                break;
            }
            // Pull the next trace record.
            let d = match self.next_from_buffer() {
                Some(d) => d,
                None => {
                    self.trace_done = true;
                    break;
                }
            };
            // LSQ occupancy gate.
            if (d.is_load() || d.is_store()) && self.mem_in_flight >= self.params.lsq_entries {
                self.unfetch();
                break;
            }
            // Instruction-cache access, once per new line.
            let line = d.byte_pc() >> self.fetch_line_shift;
            if line != self.current_fetch_line {
                let lat = self.hier.fetch_inst(d.byte_pc());
                self.current_fetch_line = line;
                if lat > self.params.l1_latency {
                    // Miss: hit latency is hidden in the front end, the
                    // excess stalls fetch.
                    self.fetch_state = FetchState::Stalled {
                        until: self.cycle + (lat - self.params.l1_latency),
                    };
                    self.unfetch();
                    break;
                }
            }
            let taken_control = self.fetch_one(d);
            fetched += 1;
            if taken_control || self.fetch_state != FetchState::Running {
                break;
            }
        }
        fetched > 0
    }

    /// Renames and dispatches one instruction; returns whether it was a
    /// taken control transfer (ending the fetch group).
    fn fetch_one(&mut self, d: DynInst) -> bool {
        let seq = d.seq;
        debug_assert_eq!(seq, self.head_seq);
        self.probe
            .on_fetch(self.cycle, seq, d.byte_pc(), d.is_branch(), d.is_load());

        // Source operands through the rename map.
        let src_phys = [
            d.srcs[0].map(|r| self.rename.lookup(r)),
            d.srcs[1].map(|r| self.rename.lookup(r)),
        ];

        // Conditional branch: predict BEFORE inserting the branch into the
        // DDT (the chain read precedes the branch's own insertion).
        if d.is_branch() {
            let actual = d.branch.expect("is_branch").taken;
            let pc = d.byte_pc();
            let rename = &self.rename;
            let now = self.cycle;
            // Each configuration's oracle is a concrete ValueSource, so
            // the whole predict path monomorphizes per arm; each ARVI
            // oracle answers through the tally of this run.
            let rule = LoadBackOracle {
                rename,
                now,
                fetch_seq: seq,
                lb_window: self.lb_window,
            };
            let pending = Cell::new(self.pending);
            let dec = match self.config {
                PredictorConfig::TwoLevelGskew => {
                    self.bu.decide(pc, src_phys, &CurrentValues, actual)
                }
                PredictorConfig::ArviCurrent => {
                    let oracle = Tallied::new(ReadyOracle { rename, now }, rule, &pending);
                    self.bu.decide(pc, src_phys, &oracle, actual)
                }
                PredictorConfig::ArviLoadBack => {
                    let oracle = Tallied::new(rule, rule, &pending);
                    self.bu.decide(pc, src_phys, &oracle, actual)
                }
                PredictorConfig::ArviPerfect => {
                    let oracle = Tallied::new(PerfectOracle { rename }, rule, &pending);
                    self.bu.decide(pc, src_phys, &oracle, actual)
                }
            };
            self.pending = pending.get();
            if P::ENABLED {
                if let Some(ap) = &dec.arvi {
                    self.probe.on_chain_read(
                        self.cycle,
                        pc,
                        ap.chain_len as u32,
                        ap.leaf_count as u32,
                        ap.available as u32,
                    );
                }
            }
            // Fetch disruption bookkeeping.
            if dec.final_taken != actual {
                self.stats.full_mispredicts += 1;
                self.probe.on_mispredict(
                    self.cycle,
                    seq,
                    pc,
                    (self.head_seq - self.tail_seq) as u32,
                );
                self.blocked_since = self.cycle;
                self.fetch_state = FetchState::BranchBlocked {
                    seq,
                    resume_override: None,
                };
            } else if dec.l1.taken != actual {
                // The L2 override will re-steer fetch after its latency.
                self.stats.override_restarts += 1;
                self.blocked_since = self.cycle;
                self.fetch_state = FetchState::BranchBlocked {
                    seq,
                    resume_override: Some(self.bu.resolve_override_at(self.cycle)),
                };
            }
            self.decisions.push_back(DecisionRec { pc, actual, dec });
        }

        // Rename the destination.
        let (dest_phys, prev_phys) = match d.dest {
            Some(logical) => {
                let (new, prev) =
                    self.rename
                        .allocate(logical, seq, d.result, d.is_load(), d.hoist);
                (Some(new), Some(prev))
            }
            None => (None, None),
        };

        // Dependence-tracker insertion (every instruction, ARVI configs).
        if self.config.is_arvi() {
            let op = RenamedOp {
                dest: dest_phys,
                srcs: src_phys,
                is_load: d.is_load(),
            };
            self.bu.rename_op(&op, d.dest);
            if P::ENABLED {
                self.probe
                    .on_ddt_insert(self.cycle, seq, self.bu.ddt_occupancy() as u32);
            }
        }

        // Dataflow bookkeeping, written column-wise into the ring slot.
        let mut deps = 0u8;
        for p in src_phys.into_iter().flatten() {
            if !self.rename.is_ready(p, self.cycle) {
                self.rename.add_waiter(p, seq);
                deps += 1;
            }
        }
        let is_mem = d.is_load() || d.is_store();
        if is_mem {
            self.mem_in_flight += 1;
        }
        if d.is_store() {
            self.unissued_stores.push_monotonic(seq);
        }
        let taken_control = d.branch.map(|b| b.taken).unwrap_or(false);
        let i = self.rob.idx(seq);
        self.rob.flags[i] = deps
            | if d.is_load() { F_LOAD } else { 0 }
            | if is_mem { F_MEM } else { 0 }
            | if d.is_branch() { F_BRANCH } else { 0 };
        self.rob.dispatch_ready[i] = self.cycle + self.params.frontend_latency;
        self.rob.kind[i] = d.kind;
        self.rob.mem_addr[i] = d.mem_addr;
        self.rob.result[i] = d.result;
        self.rob.dest_phys[i] = dest_phys.map_or(NO_REG, |p| p.0);
        self.rob.prev_phys[i] = prev_phys.map_or(NO_REG, |p| p.0);
        self.head_seq += 1;
        if deps == 0 {
            // Fetch runs after issue: dispatch readiness is always in the
            // future here (`frontend_latency >= 1`, asserted at build).
            self.make_issue_candidate(seq, None);
        }
        taken_control
    }
}

impl<S: InstSource, P: Probe> std::fmt::Debug for Machine<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.config)
            .field("cycle", &self.cycle)
            .field("committed", &self.stats.committed)
            .field("rob", &(self.head_seq - self.tail_seq))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Depth;
    use arvi_isa::{regs::*, AluOp, Cond, ProgramBuilder};

    fn machine_for(program: arvi_isa::Program, config: PredictorConfig) -> Machine {
        Machine::new(Emulator::new(program), SimParams::small_test(), config)
    }

    #[test]
    fn straight_line_commits_everything() {
        let mut b = ProgramBuilder::new();
        for i in 0..40 {
            b.alu_imm(AluOp::Add, T0, T0, i);
        }
        b.halt();
        let mut m = machine_for(b.build(), PredictorConfig::TwoLevelGskew);
        let committed = m.run_until_committed(1_000);
        assert_eq!(committed, 40);
        assert!(m.stats().cycles > 0);
    }

    #[test]
    fn dependent_chain_is_slower_than_independent_ops() {
        // Loop a small body many times so the instruction cache is warm
        // and execution, not fetch, is the bottleneck.
        let build = |serial: bool| {
            let mut b = ProgramBuilder::new();
            b.li(S0, 0);
            b.li(S1, 200);
            let head = b.here();
            for i in 0..16 {
                if serial {
                    b.alu_imm(AluOp::Add, T0, T0, 1); // dependent chain
                } else {
                    let rd = [T0, T1, T2, T3][i % 4];
                    b.alu_imm(AluOp::Add, rd, ZERO, 1); // independent
                }
            }
            b.alu_imm(AluOp::Add, S0, S0, 1);
            b.branch(Cond::Ne, S0, S1, head);
            b.halt();
            b.build()
        };
        let mut mc = machine_for(build(true), PredictorConfig::TwoLevelGskew);
        mc.run_until_committed(100_000);
        let mut mp = machine_for(build(false), PredictorConfig::TwoLevelGskew);
        mp.run_until_committed(100_000);
        assert!(
            mc.stats().cycles as f64 > mp.stats().cycles as f64 * 1.5,
            "chain {} vs parallel {}",
            mc.stats().cycles,
            mp.stats().cycles
        );
    }

    #[test]
    fn branchy_loop_runs_and_counts_branches() {
        let mut b = ProgramBuilder::new();
        b.li(T0, 0);
        b.li(T1, 500);
        let head = b.here();
        b.alu_imm(AluOp::Add, T0, T0, 1);
        b.branch(Cond::Ne, T0, T1, head);
        b.halt();
        let mut m = machine_for(b.build(), PredictorConfig::TwoLevelGskew);
        m.run_until_committed(100_000);
        assert_eq!(m.stats().cond_branches.total(), 500);
        // A counted loop back-edge is almost perfectly predictable.
        assert!(m.stats().cond_branches.rate() > 0.95);
    }

    #[test]
    fn misprediction_costs_cycles() {
        // A branch driven by a value the predictor cannot learn (LFSR
        // parity) versus the same loop with a constant branch.
        let build = |noisy: bool| {
            let mut b = ProgramBuilder::new();
            b.li(S0, 0xACE1);
            b.li(T1, 0);
            b.li(T2, 2000);
            let head = b.here();
            // x = lfsr step
            b.alu_imm(AluOp::Srl, T3, S0, 0);
            b.alu_imm(AluOp::Srl, T4, S0, 2);
            b.alu(AluOp::Xor, T3, T3, T4);
            b.alu_imm(AluOp::Srl, T4, S0, 3);
            b.alu(AluOp::Xor, T3, T3, T4);
            b.alu_imm(AluOp::Srl, T4, S0, 5);
            b.alu(AluOp::Xor, T3, T3, T4);
            b.alu_imm(AluOp::And, T3, T3, 1);
            b.alu_imm(AluOp::Srl, S0, S0, 1);
            b.alu_imm(AluOp::Sll, T4, T3, 15);
            b.alu(AluOp::Or, S0, S0, T4);
            let skip = b.label();
            if noisy {
                b.branch_to_label(Cond::Eq, T3, ZERO, skip); // random-ish
            } else {
                b.branch_to_label(Cond::Eq, ZERO, ZERO, skip); // always taken
            }
            b.alu_imm(AluOp::Add, T5, T5, 1);
            b.bind(skip);
            b.alu_imm(AluOp::Add, T1, T1, 1);
            b.branch(Cond::Ne, T1, T2, head);
            b.halt();
            b.build()
        };
        let mut noisy = machine_for(build(true), PredictorConfig::TwoLevelGskew);
        noisy.run_until_committed(1_000_000);
        let mut quiet = machine_for(build(false), PredictorConfig::TwoLevelGskew);
        quiet.run_until_committed(1_000_000);
        assert!(
            noisy.stats().cycles as f64 > quiet.stats().cycles as f64 * 1.2,
            "noisy {} vs quiet {}",
            noisy.stats().cycles,
            quiet.stats().cycles
        );
        assert!(noisy.stats().full_mispredicts > 300);
    }

    #[test]
    fn arvi_config_tracks_classes() {
        // Loads feeding branches produce load-class records.
        let mut b = ProgramBuilder::new();
        b.data(0x100, 1);
        b.li(S0, 0x100);
        b.li(T1, 0);
        b.li(T2, 300);
        let head = b.here();
        b.load(T3, S0, 0);
        let skip = b.label();
        b.branch_to_label(Cond::Eq, T3, ZERO, skip); // load branch
        b.alu_imm(AluOp::Add, T4, T4, 1);
        b.bind(skip);
        b.alu_imm(AluOp::Add, T1, T1, 1);
        b.branch(Cond::Ne, T1, T2, head); // calculated branch
        b.halt();
        let mut m = machine_for(b.build(), PredictorConfig::ArviCurrent);
        m.run_until_committed(1_000_000);
        let s = m.stats();
        assert!(
            s.load_class.total() > 100,
            "load-class {}",
            s.load_class.total()
        );
        assert!(
            s.calc_class.total() > 100,
            "calc-class {}",
            s.calc_class.total()
        );
    }

    /// A loop whose branch tests a pending load; `hoisted` says whether
    /// the load's address comes from the loop-invariant `S0` (its oracle
    /// hoist distance grows with every iteration) or from the
    /// instruction right before it (hoist distance 0).
    fn pending_load_loop(hoisted: bool) -> arvi_isa::Program {
        let mut b = ProgramBuilder::new();
        b.data(0x100, 1);
        b.li(S0, 0x100);
        b.li(T1, 0);
        b.li(T2, 300);
        let head = b.here();
        let base = if hoisted {
            S0
        } else {
            b.alu_imm(AluOp::Add, S1, S0, 0);
            S1
        };
        b.load(T3, base, 0);
        let skip = b.label();
        b.branch_to_label(Cond::Eq, T3, ZERO, skip);
        b.alu_imm(AluOp::Add, T4, T4, 1);
        b.bind(skip);
        b.alu_imm(AluOp::Add, T1, T1, 1);
        b.branch(Cond::Ne, T1, T2, head);
        b.halt();
        b.build()
    }

    #[test]
    fn tally_says_when_current_value_is_load_back() {
        use PredictorConfig::*;
        let run = |hoisted: bool, config: PredictorConfig| {
            let mut m = machine_for(pending_load_loop(hoisted), config);
            m.run_until_committed(1_000_000);
            m
        };
        let differing = |m: &Machine, other| m.pending_leaves().differing(m.config, other);
        // Far-hoisted load: load back's rule fires, the tally reports
        // it, and load back indeed sees values current value does not.
        let current = run(true, ArviCurrent);
        let load_back = run(true, ArviLoadBack);
        assert!(differing(&current, ArviLoadBack) > Some(0));
        assert!(
            load_back.stats().load_class.total() < current.stats().load_class.total(),
            "load back {:?} vs current {:?}",
            load_back.stats().load_class,
            current.stats().load_class
        );
        // Unhoistable load: still pending at every branch, but the rule
        // never fires, and the two machines agree counter for counter,
        // tally included. Perfect value would have answered those
        // pending leaves, and both tallies say so.
        let current = run(false, ArviCurrent);
        let load_back = run(false, ArviLoadBack);
        assert!(current.stats().load_class.total() > 100);
        assert_eq!(differing(&current, ArviLoadBack), Some(0));
        assert_eq!(current.stats(), load_back.stats());
        assert_eq!(current.pending_leaves(), load_back.pending_leaves());
        assert!(differing(&current, ArviPerfect) > Some(0));
        assert!(differing(&load_back, ArviPerfect) > Some(0));
        assert_eq!(differing(&load_back, TwoLevelGskew), None);
        assert_eq!(
            run(false, TwoLevelGskew).pending_leaves(),
            PendingLeaves::default(),
            "the baseline asks no oracle"
        );
    }

    #[test]
    fn deeper_pipeline_is_slower_on_mispredicts() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.li(S0, 0xBEEF);
            b.li(T1, 0);
            b.li(T2, 1000);
            let head = b.here();
            b.alu_imm(AluOp::Mul, S0, S0, 6364136223846793005u64 as i64);
            b.alu_imm(AluOp::Add, S0, S0, 1442695040888963407u64 as i64);
            b.alu_imm(AluOp::Srl, T3, S0, 33);
            b.alu_imm(AluOp::And, T3, T3, 1);
            let skip = b.label();
            b.branch_to_label(Cond::Eq, T3, ZERO, skip);
            b.alu_imm(AluOp::Add, T4, T4, 1);
            b.bind(skip);
            b.alu_imm(AluOp::Add, T1, T1, 1);
            b.branch(Cond::Ne, T1, T2, head);
            b.halt();
            b.build()
        };
        let mut d20 = Machine::new(
            Emulator::new(build()),
            SimParams::for_depth(Depth::D20),
            PredictorConfig::TwoLevelGskew,
        );
        d20.run_until_committed(1_000_000);
        let mut d60 = Machine::new(
            Emulator::new(build()),
            SimParams::for_depth(Depth::D60),
            PredictorConfig::TwoLevelGskew,
        );
        d60.run_until_committed(1_000_000);
        assert!(
            d60.stats().cycles as f64 > d20.stats().cycles as f64 * 1.3,
            "d60 {} vs d20 {}",
            d60.stats().cycles,
            d20.stats().cycles
        );
    }
}
