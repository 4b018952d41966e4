//! The trace subsystem's contract tests:
//!
//! 1. The codec round-trips **arbitrary** `DynInst` streams, not just
//!    emulator-shaped ones (property test over random records and chunk
//!    sizes, through both the in-memory trace and the file container).
//! 2. Corruption anywhere in a persisted file is rejected at load.
//! 3. Replaying a recording through the timing simulator is
//!    **bit-identical** to live emulation ([`arvi_bench::run_one`]) for
//!    every benchmark x depth x configuration cell of the paper grid.
//! 4. A perfect-value or load-back cell taken from an ARVI twin equals
//!    live emulation too, on scenarios where each edge fires: perfect
//!    value from current value, load back from perfect value.

use std::sync::Arc;

use arvi::isa::{BranchInfo, DynInst, Emulator, InstKind, Reg};
use arvi::sim::{Depth, MachineStats, PredictorConfig};
use arvi::trace::{Trace, TraceError, TraceReplayer, TraceWriter};
use arvi::workloads::Benchmark;
use arvi_bench::{
    distinct_workloads, full_grid, grid, run_one, GridRun, Resilience, Spec, TraceSet, Workload,
};
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = Reg> {
    (0..32u8).prop_map(Reg::new)
}

fn kind() -> impl Strategy<Value = InstKind> {
    (0..9usize).prop_map(|i| {
        [
            InstKind::IntAlu,
            InstKind::IntMul,
            InstKind::IntDiv,
            InstKind::Load,
            InstKind::Store,
            InstKind::Branch,
            InstKind::Jump,
            InstKind::JumpReg,
            InstKind::Halt,
        ][i]
    })
}

fn branch_info() -> impl Strategy<Value = BranchInfo> {
    (any::<bool>(), any::<u32>(), any::<u32>(), any::<bool>()).prop_map(
        |(taken, next_pc, fallthrough, conditional)| BranchInfo {
            taken,
            next_pc,
            fallthrough,
            conditional,
        },
    )
}

/// Entirely unconstrained records: extreme sequence numbers, random PCs,
/// 64-bit results and addresses, branches whose fields obey none of the
/// emulator's invariants.
fn dyn_inst() -> impl Strategy<Value = DynInst> {
    (
        (any::<u64>(), any::<u32>(), kind()),
        (
            proptest::option::of(reg()),
            proptest::option::of(reg()),
            proptest::option::of(reg()),
        ),
        (any::<u64>(), any::<u64>(), 0..2_000_000u32),
        proptest::option::of(branch_info()),
    )
        .prop_map(
            |((seq, pc, kind), (src0, src1, dest), (result, mem_addr, hoist), branch)| DynInst {
                seq,
                pc,
                kind,
                srcs: [src0, src1],
                dest,
                result,
                mem_addr,
                branch,
                hoist,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `decode(encode(stream)) == stream` for any record content, any
    /// stream length and any chunk capacity — the format does not rely
    /// on emulator invariants (dense seq, sequential PCs, aligned
    /// addresses), it only compresses better when they hold.
    #[test]
    fn codec_round_trips_arbitrary_streams(
        insts in proptest::collection::vec(dyn_inst(), 0..200),
        chunk_insts in 1..48usize,
    ) {
        let mut w = TraceWriter::new("prop", 0).with_chunk_insts(chunk_insts);
        for d in &insts {
            w.push(*d);
        }
        let trace = w.finish();
        trace.verify().expect("fresh recording verifies");
        let bytes = trace.to_bytes();
        let decoded: Vec<DynInst> = TraceReplayer::new(Arc::new(trace)).collect();
        prop_assert_eq!(&insts, &decoded, "in-memory round trip");

        // And through the on-disk container.
        let reloaded = Trace::from_bytes(&bytes).expect("container round trip");
        let decoded: Vec<DynInst> = TraceReplayer::new(Arc::new(reloaded)).collect();
        prop_assert_eq!(&insts, &decoded, "container round trip");
    }
}

#[test]
fn corrupted_file_is_rejected() {
    let emu = Emulator::new(Benchmark::Gcc.program(8));
    let trace = Trace::record(emu, 2_000, "gcc", 8);
    let dir = std::env::temp_dir().join(format!("arvi-replay-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gcc.arvitrace");
    trace.write_to(&path).unwrap();

    let good = std::fs::read(&path).unwrap();
    // A flipped bit anywhere before the trailing magic — payload, but
    // also the header and the footer index (whose `first_seq` fields
    // would otherwise decode "cleanly" into wrong sequence numbers) —
    // must surface as a checksum mismatch, not as garbage instructions.
    for at in [12, good.len() / 2, good.len() - 16] {
        let mut bad = good.clone();
        bad[at] ^= 0x04;
        std::fs::write(&path, &bad).unwrap();
        match Trace::read_from(&path) {
            // `read_from` wraps every failure with the file path; the
            // classification lives at the root cause.
            Err(e) => {
                assert!(
                    matches!(e.root(), TraceError::FileChecksumMismatch),
                    "flip at {at}: expected checksum mismatch, got {e:?}"
                );
                assert!(
                    e.to_string().contains("gcc.arvitrace"),
                    "error names the file: {e}"
                );
            }
            Ok(_) => panic!("flip at {at}: corrupt file loaded"),
        }
    }

    // Truncation is rejected too.
    std::fs::write(&path, &good[..good.len() - 10]).unwrap();
    assert!(Trace::read_from(&path).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

fn assert_identical(live: &MachineStats, replay: &MachineStats, label: &str) {
    assert_eq!(live.committed, replay.committed, "{label}: committed");
    assert_eq!(live.cycles, replay.cycles, "{label}: cycles");
    for (a, b, what) in [
        (&live.cond_branches, &replay.cond_branches, "cond_branches"),
        (&live.l1_only, &replay.l1_only, "l1_only"),
        (&live.calc_class, &replay.calc_class, "calc_class"),
        (&live.load_class, &replay.load_class, "load_class"),
    ] {
        assert_eq!(a.total(), b.total(), "{label}: {what} total");
        assert_eq!(a.correct(), b.correct(), "{label}: {what} correct");
    }
    assert_eq!(live.overrides, replay.overrides, "{label}: overrides");
    assert_eq!(
        live.overrides_correcting, replay.overrides_correcting,
        "{label}: overrides_correcting"
    );
    assert_eq!(live.bvit_hits, replay.bvit_hits, "{label}: bvit_hits");
    assert_eq!(
        live.full_mispredicts, replay.full_mispredicts,
        "{label}: full_mispredicts"
    );
    assert_eq!(
        live.override_restarts, replay.override_restarts,
        "{label}: override_restarts"
    );
}

/// The tentpole guarantee: the shared-trace sweep reproduces live
/// emulation of each cell ([`run_one`]) counter-for-counter on every cell
/// of the full paper grid (8 benchmarks x 3 depths x 4 configurations).
#[test]
fn replay_is_bit_identical_across_the_full_grid() {
    let spec = Spec {
        warmup: 2_000,
        measure: 5_000,
        seed: 42,
    };
    let points = full_grid();
    let live: Vec<_> = points
        .iter()
        .map(|p| run_one(&p.workload, p.depth, p.config, spec))
        .collect();
    let traces = TraceSet::record(&distinct_workloads(&points), spec, 2, None);
    let run = GridRun::run(
        points.clone(),
        spec,
        2,
        false,
        &traces,
        &Resilience::new(),
        None,
    );
    // Both ways to a load-back result are pinned against `run_one`:
    // taken from an ARVI twin and simulated.
    let load_back = |derived: bool| {
        points
            .iter()
            .zip(&run.outcomes)
            .filter(|(p, o)| {
                p.config == PredictorConfig::ArviLoadBack
                    && o.success().is_some_and(|s| s.derived == derived)
            })
            .count()
    };
    assert!(load_back(true) >= 1, "no load-back cell was derived");
    assert!(load_back(false) >= 1, "no load-back cell was simulated");
    let traced = run.results(|_| true).expect("every cell ran");
    assert_eq!(live.len(), traced.len());
    for ((p, l), t) in points.iter().zip(&live).zip(&traced) {
        assert_eq!(l.name, t.name);
        assert_identical(&l.window, &t.window, &p.to_string());
    }
}

/// The other two edges between the ARVI configurations: a perfect-value
/// cell takes its current-value twin's result when that run never met a
/// not-ready leaf (the curated periodic scenario), and a load-back cell
/// takes its perfect-value twin's when every not-ready leaf of that run
/// met the hoist rule while current value's did not (a dependence
/// chain). Each derived cell is pinned against [`run_one`].
#[test]
fn twins_serve_perfect_value_and_load_back_bit_identically() {
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 42,
    };
    let workloads: Vec<Workload> = Workload::curated_scenarios()
        .into_iter()
        .filter(|w| w.name().starts_with("periodic") || w.name().starts_with("datadep"))
        .collect();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let run = GridRun::run(
        points.clone(),
        spec,
        1,
        false,
        &traces,
        &Resilience::new(),
        None,
    );
    let results = run.results(|_| true).expect("every cell ran");
    let twin = |i: usize, config| {
        let p = &points[i];
        points
            .iter()
            .position(|q| q.workload == p.workload && q.depth == p.depth && q.config == config)
            .expect("the grid holds every config")
    };
    let (mut perfect, mut load_back) = (0, 0);
    for (i, (p, o)) in points.iter().zip(&run.outcomes).enumerate() {
        if !o.success().expect("every cell ran").derived {
            continue;
        }
        assert_identical(
            &run_one(&p.workload, p.depth, p.config, spec).window,
            &results[i].window,
            &p.to_string(),
        );
        let current = &results[twin(i, PredictorConfig::ArviCurrent)].window;
        match p.config {
            PredictorConfig::ArviPerfect => perfect += 1,
            // Current value's run differs, so the result came from the
            // perfect-value twin.
            PredictorConfig::ArviLoadBack if current != &results[i].window => load_back += 1,
            _ => {}
        }
    }
    assert!(perfect >= 1, "no perfect-value cell was derived");
    assert!(
        load_back >= 1,
        "no load-back cell was derived from perfect value"
    );
}
