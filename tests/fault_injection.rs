//! Deterministic fault injection across the sweep pipeline's failure
//! paths:
//!
//! 1. A persisted container corrupted at **arbitrary** offsets (bit
//!    flips, truncation — property tested) always surfaces a clean
//!    corruption error: never a panic, never silently wrong records.
//! 2. A panicking grid cell is isolated to its own [`CellOutcome`];
//!    every other cell's result is bit-identical to an undisturbed run.
//! 3. An unusable cached trace file (corrupt, truncated, or a valid
//!    recording of another seed) is re-recorded in place, and the
//!    sweep's numbers are bit-identical to the healthy sweep's.
//! 4. A cell whose trace set lacks its workload, or holds a recording
//!    too short for the window or of another seed, fails alone with a
//!    trace error naming
//!    the workload, in full and sampled mode; every other cell is
//!    bit-identical to a clean run, the grid reports itself incomplete,
//!    and a resume with a usable recording finishes it.
//! 5. A sweep killed mid-grid resumes from its journal and the merged
//!    results are bit-identical to an uninterrupted run, over the full
//!    workload roster (8 suite benchmarks + 9 curated scenarios).
//! 6. A sampled sweep obeys the same fault plan: a panicking cell fails
//!    alone, and every other cell equals the clean sampled run.
//! 7. A panic aimed at a load-back cell that would take its result from
//!    its current-value twin fails only that cell, and a resume, whose
//!    twin comes from the journal, simulates it to the same numbers.

use std::sync::OnceLock;

use arvi::isa::{DynInst, Emulator};
use arvi::sampling::SamplePlan;
use arvi::sim::{Depth, PredictorConfig, SimResult};
use arvi::trace::{Trace, TraceReader, TraceWriter};
use arvi::workloads::Benchmark;
use arvi_bench::{
    distinct_workloads, run_one, trace_file_name, CellOutcome, FaultPlan, GridRun, Resilience,
    Spec, SweepPoint, TraceProvenance, TraceSet, Workload,
};
use proptest::prelude::*;

fn tiny_spec() -> Spec {
    Spec {
        warmup: 500,
        measure: 1_500,
        seed: 3,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("arvi-fault-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `points` on one worker, replaying `traces`, under `res`.
fn run(points: &[SweepPoint], spec: Spec, traces: &TraceSet, res: &Resilience) -> GridRun {
    GridRun::run(points.to_vec(), spec, 1, false, traces, res, None)
}

/// Every point emulated live, one cell at a time ([`run_one`]).
fn run_live(points: &[SweepPoint], spec: Spec) -> Vec<SimResult> {
    points
        .iter()
        .map(|p| run_one(&p.workload, p.depth, p.config, spec))
        .collect()
}

/// The recordings of every workload of `points`.
fn record(points: &[SweepPoint], spec: Spec) -> TraceSet {
    TraceSet::record(&distinct_workloads(points), spec, 2, None)
}

/// Full bit-identity: every counter of the measurement window.
fn assert_bit_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.name, b.name, "{label}: name");
    assert_eq!(a.config, b.config, "{label}: config");
    assert_eq!(a.depth_stages, b.depth_stages, "{label}: depth");
    // `MachineStats` derives an exhaustive Debug; equal renderings mean
    // equal counters, and a mismatch prints both sides.
    assert_eq!(
        format!("{:?}", a.window),
        format!("{:?}", b.window),
        "{label}: window counters"
    );
}

// ---------------------------------------------------------------------
// 1. Arbitrary container corruption is always a clean error.
// ---------------------------------------------------------------------

/// One recording shared by every proptest case: the container bytes and
/// the records a healthy decode must reproduce. Small chunks (12 of
/// them) put the load's parallel checks on the path every case takes.
fn corpus() -> &'static (Vec<u8>, Vec<DynInst>) {
    static CORPUS: OnceLock<(Vec<u8>, Vec<DynInst>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut w = TraceWriter::new("compress", 3).with_chunk_insts(128);
        for d in Emulator::new(Benchmark::Compress.program(3)).take(1_500) {
            w.push(d);
        }
        let trace = w.finish();
        assert_eq!(trace.chunk_count(), 12);
        let records: Vec<DynInst> = TraceReader::new(&trace).collect();
        (trace.to_bytes(), records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// XOR any byte of the container with any mask: the reader either
    /// rejects the bytes with a corruption-class error or (mask 0)
    /// decodes the original records exactly. It never panics and never
    /// hands back different instructions.
    #[test]
    fn flipped_container_bytes_never_decode_wrong(at in any::<u64>(), mask in any::<u8>()) {
        let (bytes, records) = corpus();
        let mut bad = bytes.clone();
        let at = (at % bad.len() as u64) as usize;
        bad[at] ^= mask;
        match Trace::from_bytes(&bad) {
            Ok(t) => {
                prop_assert_eq!(mask, 0, "a real flip at {} decoded cleanly", at);
                let decoded: Vec<DynInst> = TraceReader::new(&t).collect();
                prop_assert_eq!(records, &decoded);
            }
            Err(e) => {
                prop_assert!(mask != 0, "unmodified container rejected: {}", e);
                prop_assert!(e.is_corruption(), "flip at {}: unexpected class: {:?}", at, e);
            }
        }
    }

    /// Truncate the container to any length: anything short of the full
    /// file is rejected with a corruption-class error, never a panic.
    #[test]
    fn truncated_container_is_always_rejected(keep in any::<u64>()) {
        let (bytes, records) = corpus();
        let keep = (keep % (bytes.len() as u64 + 1)) as usize;
        match Trace::from_bytes(&bytes[..keep]) {
            Ok(t) => {
                prop_assert_eq!(keep, bytes.len(), "short read at {} decoded cleanly", keep);
                let decoded: Vec<DynInst> = TraceReader::new(&t).collect();
                prop_assert_eq!(records, &decoded);
            }
            Err(e) => {
                prop_assert!(keep < bytes.len(), "full container rejected: {}", e);
                prop_assert!(e.is_corruption(), "keep {}: unexpected class: {:?}", keep, e);
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Cell faults are isolated; undisturbed cells are bit-identical.
// ---------------------------------------------------------------------

fn small_points() -> Vec<SweepPoint> {
    [Benchmark::Compress, Benchmark::Li, Benchmark::Go]
        .into_iter()
        .map(|b| SweepPoint {
            workload: b.into(),
            depth: Depth::D20,
            config: PredictorConfig::ArviCurrent,
        })
        .collect()
}

#[test]
fn injected_panic_is_isolated_to_its_cell() {
    let spec = tiny_spec();
    let points = small_points();
    let clean = run_live(&points, spec);
    let traces = record(&points, spec);

    let res = Resilience::new().with_plan(FaultPlan::parse("panic-cell 1").unwrap());
    let faulted = run(&points, spec, &traces, &res);
    let outcomes = &faulted.outcomes;
    assert_eq!(outcomes.len(), points.len());
    match &outcomes[1] {
        CellOutcome::Panicked { message } => {
            assert!(message.contains("injected fault"), "{message}")
        }
        other => panic!("cell 1: expected Panicked, got {other:?}"),
    }
    for i in [0, 2] {
        let s = outcomes[i].success().unwrap_or_else(|| {
            panic!(
                "cell {i} must survive its neighbor: {:?}",
                outcomes[i].failure()
            )
        });
        assert!(!s.resumed);
        assert_bit_identical(&s.result, &clean[i], &points[i].to_string());
    }

    // And the failure is reported. Nothing was journaled, so the hint
    // asks for a journal: a bare `--resume` would find nothing.
    let err = faulted.results(|_| true).unwrap_err();
    assert_eq!(err.total, points.len());
    assert_eq!(err.failed.len(), 1);
    assert_eq!(err.failed[0].0, 1);
    let hint = err.to_string();
    assert!(hint.contains("re-run with --journal FILE"), "{hint}");
    assert!(!hint.contains("journaled in"), "{hint}");

    // The same fault under a journal: the hint names the journal to
    // resume from.
    let dir = temp_dir("panic-hint");
    let journal = dir.join("p.journal");
    let res = Resilience::new()
        .with_journal(&journal)
        .with_plan(FaultPlan::parse("panic-cell 1").unwrap());
    let err = run(&points, spec, &traces, &res)
        .results(|_| true)
        .unwrap_err();
    let hint = err.to_string();
    let resume = format!("re-run with --journal {} --resume", journal.display());
    assert!(hint.contains(&resume), "{hint}");
    assert!(!hint.contains("--journal FILE"), "{hint}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// 3. Load or record: an unusable cache file is re-recorded in place.
// ---------------------------------------------------------------------

#[test]
fn unusable_cached_trace_is_rerecorded_in_place() {
    let spec = tiny_spec();
    let workloads = [Workload::from(Benchmark::Go)];
    let points: Vec<SweepPoint> = PredictorConfig::all()
        .into_iter()
        .map(|config| SweepPoint {
            workload: workloads[0].clone(),
            depth: Depth::D20,
            config,
        })
        .collect();
    let file = trace_file_name(&workloads[0], spec);

    // Healthy baseline: record, persist, sweep strictly.
    let clean_dir = temp_dir("cache-clean");
    let clean = TraceSet::record(&workloads, spec, 1, Some(&clean_dir));
    assert_eq!(
        clean.provenance(&workloads[0]),
        Some(&TraceProvenance::Recorded)
    );
    let expected = run(&points, spec, &clean, &Resilience::new())
        .results(|_| true)
        .expect("every cell ran");
    let good = std::fs::read(clean_dir.join(&file)).unwrap();
    std::fs::remove_dir_all(&clean_dir).ok();

    // The three bad caches. The middle of the file lies in the chunk
    // payload: the header and the index are a few dozen bytes each.
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0xFF;
    let truncated = good[..good.len() / 2].to_vec();
    let other_seed = Spec { seed: 4, ..spec };
    let stale = TraceSet::record(&workloads, other_seed, 1, None)
        .get(&workloads[0])
        .expect("recorded")
        .to_bytes();
    assert!(Trace::from_bytes(&stale).is_ok(), "a valid container");

    for (label, bytes) in [
        ("flipped payload byte", flipped),
        ("truncated", truncated),
        ("another seed", stale),
    ] {
        let dir = temp_dir("cache-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(&file);
        std::fs::write(&path, bytes).unwrap();

        let traces = TraceSet::record(&workloads, spec, 1, Some(&dir));
        assert_eq!(
            traces.provenance(&workloads[0]),
            Some(&TraceProvenance::Rerecorded),
            "{label}"
        );
        let outcomes = run(&points, spec, &traces, &Resilience::new()).outcomes;
        for (i, (outcome, point)) in outcomes.iter().zip(&points).enumerate() {
            let s = outcome
                .success()
                .unwrap_or_else(|| panic!("{label}: {point}: {:?}", outcome.failure()));
            assert_bit_identical(&s.result, &expected[i], &format!("{label}: {point}"));
        }

        // The re-recording replaced the bad file and nothing else is
        // left: no side files, no temp files.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, std::slice::from_ref(&file), "{label}");
        assert!(
            std::fs::read(&path).unwrap() == good,
            "{label}: bytes differ"
        );

        let again = TraceSet::record(&workloads, spec, 1, Some(&dir));
        assert_eq!(
            again.provenance(&workloads[0]),
            Some(&TraceProvenance::Loaded),
            "{label}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// 4. No usable recording: the cell fails alone, reported and resumable.
// ---------------------------------------------------------------------

#[test]
fn unusable_recording_fails_only_its_cell() {
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 3,
    };
    // Cell 1 (li) has no usable recording; compress and go keep theirs.
    let points = small_points();
    let healthy = record(&points, spec);
    let others = [&points[0], &points[2]].map(|p| p.clone());
    let li_under = |s| record(&others, spec).merged(record(&points[1..2], s));
    let smaller = Spec {
        measure: spec.measure / 2,
        ..spec
    };
    let unusable = [
        (
            "missing",
            record(&others, spec),
            "no recording of li: the trace set does not cover it",
        ),
        (
            "short",
            li_under(smaller),
            "the recording of li holds 10096 instructions",
        ),
        (
            "wrong seed",
            li_under(Spec { seed: 4, ..spec }),
            "the recording of li is of seed 4; the run uses seed 3",
        ),
    ];
    let sample = SamplePlan::systematic(2, 500, 1_000);
    let dir = temp_dir("unusable");
    for plan in [None, Some(&sample)] {
        let grid = |traces: &TraceSet, res: &Resilience| {
            GridRun::run(points.clone(), spec, 2, false, traces, res, plan)
        };
        let clean = grid(&healthy, &Resilience::new());
        for (label, traces, why) in &unusable {
            let label = format!("{label}, sampled {}", plan.is_some());
            let journal = dir.join(format!("{label}.journal"));
            let res = Resilience::new().with_journal(&journal);
            let run = grid(traces, &res);
            match &run.outcomes[1] {
                CellOutcome::TraceError { message } => assert!(message.contains(why), "{message}"),
                other => panic!("{label}: cell 1: expected TraceError, got {other:?}"),
            }
            for i in [0, 2] {
                let s = run.outcomes[i]
                    .success()
                    .unwrap_or_else(|| panic!("{label}: cell {i}: {:?}", run.outcomes[i]));
                let c = clean.outcomes[i].success().expect("clean run completes");
                assert_eq!(s.sampled_units, c.sampled_units, "{label}: cell {i}");
                assert_bit_identical(&s.result, &c.result, &label);
            }
            if let (Some(r), Some(c)) = (&run.reports, &clean.reports) {
                assert!(r[1].is_none(), "{label}: a failed cell has no estimate");
                for i in [0, 2] {
                    let (r, c) = (r[i].as_ref().unwrap(), c[i].as_ref().unwrap());
                    assert_eq!(r.ipc.mean.to_bits(), c.ipc.mean.to_bits(), "{label}");
                    assert_eq!(r.ipc.stderr.to_bits(), c.ipc.stderr.to_bits(), "{label}");
                }
            }
            let err = run.results(|_| true).unwrap_err();
            assert_eq!(err.failed.len(), 1, "{label}");
            let (cell, _, reason) = &err.failed[0];
            assert_eq!(*cell, 1, "{label}");
            assert!(
                reason.starts_with("trace error: ") && reason.contains(why),
                "{reason}"
            );

            // The failure was never journaled: a resume with the recording
            // back re-runs cell 1 alone and completes the clean grid.
            let resumed = grid(&healthy, &res.clone().resuming());
            let fresh: Vec<bool> = resumed
                .outcomes
                .iter()
                .map(|o| !o.success().expect("resume completes").resumed)
                .collect();
            assert_eq!(fresh, [false, true, false], "{label}");
            let (got, want) = (resumed.results(|_| true), clean.results(|_| true));
            for ((p, a), b) in points.iter().zip(got.unwrap()).zip(want.unwrap()) {
                assert_bit_identical(&a, &b, &p.to_string());
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// 5. Kill mid-grid, resume from journal, merge bit-identically.
// ---------------------------------------------------------------------

#[test]
fn killed_sweep_resumes_from_journal_bit_identically() {
    let spec = tiny_spec();
    // The full roster: 8 suite benchmarks + the 9 curated scenarios.
    let mut workloads = Workload::suite();
    workloads.extend(arvi::synth::curated().into_iter().map(Workload::scenario));
    assert_eq!(workloads.len(), 17);
    let points: Vec<SweepPoint> = workloads
        .iter()
        .map(|w| SweepPoint {
            workload: w.clone(),
            depth: Depth::D20,
            config: PredictorConfig::ArviCurrent,
        })
        .collect();
    let clean = run_live(&points, spec);
    let traces = record(&points, spec);

    let dir = temp_dir("resume");
    let journal = dir.join("sweep.journal");

    // First run dies (deterministically) after 6 completed cells.
    let res = Resilience::new()
        .with_journal(&journal)
        .with_plan(FaultPlan::parse("kill-after 6").unwrap());
    let killed = run(&points, spec, &traces, &res);
    let outcomes = &killed.outcomes;
    let done = outcomes.iter().filter(|o| o.success().is_some()).count();
    let skipped = outcomes
        .iter()
        .filter(|o| matches!(o, CellOutcome::Skipped))
        .count();
    assert_eq!(done, 6, "killed after 6 cells");
    assert_eq!(skipped, points.len() - 6);
    assert!(killed.results(|_| true).is_err());
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.starts_with("# arvi sweep journal v1"), "{text}");
    assert_eq!(text.lines().count(), 1 + 6, "header + one line per cell");

    // Second run resumes: completed cells restored, the rest simulated.
    let res = Resilience::new().with_journal(&journal).resuming();
    let resumed_run = run(&points, spec, &traces, &res);
    let resumed = resumed_run
        .outcomes
        .iter()
        .filter(|o| o.success().is_some_and(|s| s.resumed))
        .count();
    assert_eq!(resumed, 6, "every journaled cell restored, none re-run");
    let merged = resumed_run
        .results(|_| true)
        .expect("resume completes the grid");

    // The merged (restored + freshly simulated) results are
    // bit-identical to the uninterrupted run, cell for cell.
    assert_eq!(merged.len(), clean.len());
    for ((point, a), b) in points.iter().zip(&merged).zip(&clean) {
        assert_bit_identical(a, b, &point.to_string());
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// 6. Sampled sweeps run on the same executor: faults stay isolated.
// ---------------------------------------------------------------------

#[test]
fn sampled_panic_fails_only_its_cell() {
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 3,
    };
    let points = small_points();
    let traces = record(&points, spec);
    let plan = SamplePlan::systematic(2, 500, 1_000);
    let sampled =
        |res: &Resilience| GridRun::run(points.clone(), spec, 2, false, &traces, res, Some(&plan));
    let clean = sampled(&Resilience::new());
    let clean_reports = clean.reports.as_ref().expect("sampled");

    let res = Resilience::new().with_plan(FaultPlan::parse("panic-cell 1").unwrap());
    let faulted = sampled(&res);
    let faulted_reports = faulted.reports.as_ref().expect("sampled");
    match &faulted.outcomes[1] {
        CellOutcome::Panicked { message } => {
            assert!(message.contains("injected fault"), "{message}")
        }
        other => panic!("cell 1: expected Panicked, got {other:?}"),
    }
    assert!(
        faulted_reports[1].is_none(),
        "a failed cell has no estimate"
    );
    for i in [0, 2] {
        let s = faulted.outcomes[i]
            .success()
            .unwrap_or_else(|| panic!("cell {i}: {:?}", faulted.outcomes[i].failure()));
        let c = clean.outcomes[i].success().expect("clean run completes");
        assert_eq!(s.sampled_units, c.sampled_units, "cell {i}: units");
        assert_bit_identical(&s.result, &c.result, &points[i].to_string());
        let (r, cr) = (
            faulted_reports[i].as_ref().expect("sampled"),
            clean_reports[i].as_ref().expect("sampled"),
        );
        assert_eq!(r.ipc.mean.to_bits(), cr.ipc.mean.to_bits(), "cell {i}");
        assert_eq!(r.ipc.stderr.to_bits(), cr.ipc.stderr.to_bits(), "cell {i}");
    }
    let err = faulted.results(|_| true).unwrap_err();
    assert_eq!(err.failed.len(), 1);
    assert_eq!(err.failed[0].0, 1);
}

// ---------------------------------------------------------------------
// 7. A derivable load-back cell fails alone and resumes.
// ---------------------------------------------------------------------

#[test]
fn panic_in_a_derivable_load_back_cell_fails_it_alone_and_resumes() {
    let spec = tiny_spec();
    let points: Vec<SweepPoint> = [PredictorConfig::ArviCurrent, PredictorConfig::ArviLoadBack]
        .into_iter()
        .map(|config| SweepPoint {
            workload: Benchmark::Vortex.into(),
            depth: Depth::D60,
            config,
        })
        .collect();
    let clean = run_live(&points, spec);
    let traces = record(&points, spec);
    let undisturbed = run(&points, spec, &traces, &Resilience::new());
    let derived = undisturbed.outcomes[1].success().expect("clean run");
    assert!(
        derived.derived,
        "the load-back cell takes its twin's result"
    );
    assert_bit_identical(&derived.result, &clean[1], &points[1].to_string());

    let dir = temp_dir("derivable-panic");
    let journal = dir.join("p.journal");
    let res = Resilience::new()
        .with_journal(&journal)
        .with_plan(FaultPlan::parse("panic-cell 1").unwrap());
    let faulted = run(&points, spec, &traces, &res);
    match &faulted.outcomes[1] {
        CellOutcome::Panicked { message } => {
            assert!(message.contains("injected fault"), "{message}")
        }
        other => panic!("cell 1: expected Panicked, got {other:?}"),
    }
    let twin = faulted.outcomes[0].success().expect("the twin survives");
    assert_bit_identical(&twin.result, &clean[0], &points[0].to_string());
    let err = faulted.results(|_| true).unwrap_err();
    assert_eq!(err.failed.len(), 1);
    assert_eq!(err.failed[0].0, 1);

    // The resumed twin publishes nothing, so the load-back cell is
    // simulated, to the numbers it would have taken from the twin.
    let res = Resilience::new().with_journal(&journal).resuming();
    let resumed = run(&points, spec, &traces, &res);
    let (twin, load_back) = (
        resumed.outcomes[0].success().expect("restored"),
        resumed.outcomes[1].success().expect("filled in"),
    );
    assert!(twin.resumed);
    assert!(!load_back.resumed && !load_back.derived);
    let merged = resumed
        .results(|_| true)
        .expect("resume completes the grid");
    for ((point, a), b) in points.iter().zip(&merged).zip(&clean) {
        assert_bit_identical(a, b, &point.to_string());
    }
    std::fs::remove_dir_all(&dir).ok();
}
