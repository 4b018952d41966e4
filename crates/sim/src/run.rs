//! Measurement harness: warmup + measurement-window simulation.

use arvi_isa::{Emulator, Program};

use crate::machine::{Machine, MachineStats};
use crate::oracle::PendingLeaves;
use crate::params::{PredictorConfig, SimParams};
use crate::source::InstSource;

/// Interns a workload name, returning a `'static` reference.
///
/// Sweeps construct one [`SimResult`] per grid cell; carrying the name
/// as an interned `&'static str` keeps grid assembly allocation-free.
/// The global table dedups, so a repeated name never re-leaks — the
/// process leaks exactly one allocation per *distinct* name, bounded by
/// the workload registry even when parameterized synthetic scenario
/// names arrive in bulk. Lookups of already-interned names (every grid
/// cell after the first) take only the read lock, so parallel sweep
/// workers do not serialize here.
pub fn intern_name(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{OnceLock, RwLock};
    static NAMES: OnceLock<RwLock<HashSet<&'static str>>> = OnceLock::new();
    let table = NAMES.get_or_init(|| RwLock::new(HashSet::new()));
    if let Some(&interned) = table.read().expect("name interner poisoned").get(name) {
        return interned;
    }
    let mut set = table.write().expect("name interner poisoned");
    match set.get(name) {
        // Another thread interned it between our read and write locks.
        Some(&interned) => interned,
        None => {
            let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
            set.insert(interned);
            interned
        }
    }
}

/// The outcome of one simulation run (measurement window only; warmup is
/// excluded, mirroring the paper's Table 3 instruction windows).
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name (interned; see [`intern_name`]).
    pub name: &'static str,
    /// Predictor configuration simulated.
    pub config: PredictorConfig,
    /// Machine parameters used.
    pub depth_stages: u64,
    /// Counters accumulated over the measurement window.
    pub window: MachineStats,
}

impl SimResult {
    /// Instructions per cycle over the measurement window.
    pub fn ipc(&self) -> f64 {
        self.window.ipc()
    }

    /// Conditional-branch direction accuracy (final, post-override).
    pub fn accuracy(&self) -> f64 {
        self.window.cond_branches.rate()
    }

    /// Fraction of conditional branches ARVI classified as load branches.
    pub fn load_branch_fraction(&self) -> f64 {
        self.window.load_branch_fraction()
    }
}

/// Simulates `program` under `params`/`config`: runs `warmup` committed
/// instructions to fill predictors and caches, then measures the next
/// `measure` instructions.
///
/// # Panics
///
/// Panics if the program halts before the warmup completes (experiment
/// workloads run indefinitely).
pub fn simulate(
    program: Program,
    params: SimParams,
    config: PredictorConfig,
    warmup: u64,
    measure: u64,
) -> SimResult {
    let name = intern_name(program.name());
    simulate_source(
        name,
        Emulator::new(program),
        params,
        config,
        warmup,
        measure,
    )
}

/// [`simulate`] over any committed-instruction frontend: a live
/// [`Emulator`] or a trace replayer. Timing results depend only on the
/// `DynInst` stream, so a recorded trace replays bit-identically to the
/// live emulation it captured.
///
/// # Panics
///
/// Panics if the stream ends before the warmup completes.
pub fn simulate_source<S: InstSource>(
    name: &'static str,
    source: S,
    params: SimParams,
    config: PredictorConfig,
    warmup: u64,
    measure: u64,
) -> SimResult {
    let (result, arvi_obs::NullProbe) = simulate_source_probed(
        name,
        source,
        params,
        config,
        warmup,
        measure,
        arvi_obs::NullProbe,
    );
    result
}

/// [`simulate_source`] with an observation [`Probe`](arvi_obs::Probe)
/// attached; returns the result together with the probe (loaded with
/// end-of-run cache/TLB totals). The probe observes warmup and
/// measurement alike — callers wanting window-only telemetry should
/// snapshot/merge themselves.
///
/// # Panics
///
/// Panics if the stream ends before the warmup completes.
pub fn simulate_source_probed<S: InstSource, P: arvi_obs::Probe>(
    name: &'static str,
    source: S,
    params: SimParams,
    config: PredictorConfig,
    warmup: u64,
    measure: u64,
    probe: P,
) -> (SimResult, P) {
    let (result, probe, _) =
        simulate_source_tallied(name, source, params, config, warmup, measure, probe);
    (result, probe)
}

/// [`simulate_source_probed`] that also returns the run's tally of
/// not-ready leaf queries, warm-up included
/// ([`Machine::pending_leaves`]): for an ARVI `config`, where
/// [`PendingLeaves::differing`] gives 0 against another ARVI
/// configuration, the result relabelled with that configuration is its
/// run's result, and the probe is what that run's probe would hold.
///
/// # Panics
///
/// Panics if the stream ends before the warmup completes.
pub fn simulate_source_tallied<S: InstSource, P: arvi_obs::Probe>(
    name: &'static str,
    source: S,
    params: SimParams,
    config: PredictorConfig,
    warmup: u64,
    measure: u64,
    probe: P,
) -> (SimResult, P, PendingLeaves) {
    let depth_stages = params.depth.stages();
    let mut machine = Machine::with_probe(source, params, config, probe);
    let committed = machine.run_until_committed(warmup);
    assert!(
        committed >= warmup,
        "workload {name} halted during warmup ({committed}/{warmup})"
    );
    let start = machine.stats().clone();
    machine.run_until_committed(warmup + measure);
    let window = machine.stats().since(&start);
    let pending = machine.pending_leaves();
    (
        SimResult {
            name,
            config,
            depth_stages,
            window,
        },
        machine.into_probe(),
        pending,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Depth;
    use arvi_isa::{regs::*, AluOp, Cond, ProgramBuilder};

    fn looping_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.li(T0, 0);
        let head = b.here();
        b.alu_imm(AluOp::Add, T0, T0, 1);
        b.alu_imm(AluOp::And, T1, T0, 7);
        b.branch(Cond::Ne, T1, ZERO, head);
        b.alu_imm(AluOp::Xor, T2, T2, 1);
        b.jump(head);
        b.build().with_name("loop")
    }

    #[test]
    fn window_excludes_warmup() {
        let r = simulate(
            looping_program(),
            SimParams::small_test(),
            PredictorConfig::TwoLevelGskew,
            2_000,
            8_000,
        );
        // Commit width is 4, so window edges can overshoot by up to 3
        // instructions on each side.
        assert!(
            (7_994..=8_006).contains(&r.window.committed),
            "window {}",
            r.window.committed
        );
        assert!(r.ipc() > 0.0);
        assert!(r.window.cond_branches.total() > 1_000);
    }

    #[test]
    #[should_panic(expected = "halted during warmup")]
    fn halting_program_rejected() {
        let mut b = ProgramBuilder::new();
        b.li(T0, 1);
        b.halt();
        let _ = simulate(
            b.build().with_name("tiny"),
            SimParams::small_test(),
            PredictorConfig::TwoLevelGskew,
            1_000,
            1_000,
        );
    }

    #[test]
    fn interned_names_are_pointer_stable() {
        let a = intern_name("loop-workload");
        let b = intern_name("loop-workload");
        assert!(std::ptr::eq(a, b));
        assert_ne!(intern_name("other"), a);
    }

    #[test]
    fn interning_dedups_under_concurrency() {
        // Parameterized scenario-style names interned from many threads
        // at once: every repeat must resolve to the same leaked string.
        let names: Vec<String> = (0..32).map(|i| format!("synth-param-{}", i % 4)).collect();
        let interned: Vec<&'static str> = std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .iter()
                .map(|n| scope.spawn(move || intern_name(n)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interner thread panicked"))
                .collect()
        });
        for (i, s) in interned.iter().enumerate() {
            assert!(
                std::ptr::eq(*s, interned[i % 4]),
                "duplicate name {i} re-leaked"
            );
        }
    }

    #[test]
    fn recorded_stream_replays_bit_identically() {
        use crate::source::IterSource;
        use arvi_isa::{DynInst, Emulator};

        let live = simulate(
            looping_program(),
            SimParams::small_test(),
            PredictorConfig::ArviCurrent,
            2_000,
            8_000,
        );
        // Record more than the machine can fetch (window + ROB + slack).
        let recorded: Vec<DynInst> = Emulator::new(looping_program()).take(12_000).collect();
        let replay = simulate_source(
            intern_name("loop"),
            IterSource(recorded.into_iter()),
            SimParams::small_test(),
            PredictorConfig::ArviCurrent,
            2_000,
            8_000,
        );
        assert_eq!(live.window.cycles, replay.window.cycles);
        assert_eq!(live.window.committed, replay.window.committed);
        assert_eq!(
            live.window.cond_branches.correct(),
            replay.window.cond_branches.correct()
        );
    }

    #[test]
    fn results_are_deterministic() {
        let run = || {
            simulate(
                looping_program(),
                SimParams::for_depth(Depth::D20),
                PredictorConfig::ArviCurrent,
                1_000,
                5_000,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.window.cycles, b.window.cycles);
        assert_eq!(
            a.window.cond_branches.correct(),
            b.window.cond_branches.correct()
        );
    }
}
