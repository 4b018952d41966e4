//! Deterministic fault injection across the sweep pipeline's failure
//! paths:
//!
//! 1. A persisted container corrupted at **arbitrary** offsets (bit
//!    flips, truncation — property tested) always surfaces a clean
//!    corruption error: never a panic, never silently wrong records.
//! 2. A panicking or stalled grid cell is isolated to its own
//!    [`CellOutcome`]; every other cell's result is bit-identical to an
//!    undisturbed run.
//! 3. A corrupt on-disk trace is quarantined (file preserved, incident
//!    logged) and re-recorded, and the degraded sweep's numbers are
//!    bit-identical to the healthy sweep's.
//! 4. A cell whose trace set lacks its workload, or holds a recording
//!    too short for the window, falls back to live emulation (still
//!    bit-identical), and the run's summary reports it.
//! 5. A sweep killed mid-grid resumes from its journal and the merged
//!    results are bit-identical to an uninterrupted run, over the full
//!    workload roster (8 suite benchmarks + 9 curated scenarios).
//! 6. A sampled sweep obeys the same fault plan: a panicking cell fails
//!    alone, and every other cell equals the clean sampled run.

use std::sync::OnceLock;

use arvi::isa::{DynInst, Emulator};
use arvi::sampling::SamplePlan;
use arvi::sim::{Depth, PredictorConfig, SimResult};
use arvi::trace::{quarantine_path, Trace, TraceReader, TraceWriter};
use arvi::workloads::Benchmark;
use arvi_bench::{
    outcome_summary, trace_file_name, trace_len, CellOutcome, Degradation, FaultPlan, GridRun,
    Resilience, Spec, SweepPoint, TraceProvenance, TraceSet, Workload,
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

/// `points` on one worker, replaying `traces` (live when `None`), under
/// `res` (the default policy when `None`).
fn run(
    points: &[SweepPoint],
    spec: Spec,
    traces: Option<&TraceSet>,
    res: Option<&Resilience>,
) -> GridRun {
    GridRun::run(points.to_vec(), spec, 1, false, traces, res, None)
}

/// Every point run live (no recordings) under the default policy.
fn run_live(points: &[SweepPoint], spec: Spec) -> Vec<SimResult> {
    run(points, spec, None, None)
        .results(|_| true)
        .expect("every live cell ran")
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

    let res = Resilience::new().with_plan(FaultPlan::parse("panic-cell 1").unwrap());
    let faulted = run(&points, spec, None, Some(&res));
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
        assert_eq!(s.degradation, Degradation::None);
        assert!(!s.resumed);
        assert_bit_identical(&s.result, &clean[i], &points[i].to_string());
    }

    // And the failure is reported, with the resume hint.
    let err = faulted.results(|_| true).unwrap_err();
    assert_eq!(err.total, points.len());
    assert_eq!(err.failed.len(), 1);
    assert_eq!(err.failed[0].0, 1);
    assert!(err.to_string().contains("--resume"), "{err}");
}

#[test]
fn stalled_cell_past_the_deadline_is_discarded() {
    let spec = tiny_spec();
    let points = small_points();
    let mut res = Resilience::new().with_plan(FaultPlan::parse("stall-cell 0 600").unwrap());
    res.deadline = Some(std::time::Duration::from_millis(250));
    let outcomes = run(&points, spec, None, Some(&res)).outcomes;
    match &outcomes[0] {
        CellOutcome::TimedOut { elapsed, deadline } => {
            assert!(elapsed > deadline, "{elapsed:?} vs {deadline:?}")
        }
        other => panic!("cell 0: expected TimedOut, got {other:?}"),
    }
    assert!(
        outcomes[1].success().is_some(),
        "{:?}",
        outcomes[1].failure()
    );
    assert!(
        outcomes[2].success().is_some(),
        "{:?}",
        outcomes[2].failure()
    );
}

// ---------------------------------------------------------------------
// 3. Quarantine + re-record: degraded, logged, bit-identical.
// ---------------------------------------------------------------------

#[test]
fn corrupt_trace_is_quarantined_rerecorded_and_results_unchanged() {
    let spec = tiny_spec();
    let dir = temp_dir("quarantine");
    let workloads = [Workload::from(Benchmark::Go)];
    let points: Vec<SweepPoint> = PredictorConfig::all()
        .into_iter()
        .map(|config| SweepPoint {
            workload: workloads[0].clone(),
            depth: Depth::D20,
            config,
        })
        .collect();

    // Healthy baseline: record, persist, sweep strictly.
    let clean = TraceSet::record(&workloads, spec, 1, Some(&dir));
    assert_eq!(
        clean.provenance(&workloads[0]),
        Some(&TraceProvenance::Recorded)
    );
    let expected = run(&points, spec, Some(&clean), None)
        .results(|_| true)
        .expect("every cell ran");

    // Inject corruption into the next read of go's trace file.
    let res = Resilience::new().with_plan(FaultPlan::parse("flip-chunk go 1 9").unwrap());
    let faulted = TraceSet::record_resilient(&workloads, spec, 1, Some(&dir), Some(&res));
    assert_eq!(
        faulted.provenance(&workloads[0]),
        Some(&TraceProvenance::Rerecorded { corrupt: true })
    );
    let path = dir.join(trace_file_name(&workloads[0], spec));
    assert!(quarantine_path(&path).exists(), "evidence preserved");
    assert!(path.exists(), "replacement recorded");
    let log = std::fs::read_to_string(dir.join("quarantine.log")).unwrap();
    assert!(log.contains("go-") && log.contains("re-recording"), "{log}");

    // The degraded sweep reports the degradation but identical numbers.
    let outcomes = run(&points, spec, Some(&faulted), Some(&res)).outcomes;
    for (i, (outcome, point)) in outcomes.iter().zip(&points).enumerate() {
        let s = outcome
            .success()
            .unwrap_or_else(|| panic!("{point}: {:?}", outcome.failure()));
        assert_eq!(s.degradation, Degradation::Requarantined, "{point}");
        assert_bit_identical(&s.result, &expected[i], &point.to_string());
    }

    // Atomic persistence never leaves temp files behind.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.contains(".tmp."), "leftover temp file {name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// 4. No usable recording: live fallback, reported.
// ---------------------------------------------------------------------

#[test]
fn unavailable_trace_falls_back_to_live_emulation_or_reports() {
    let spec = tiny_spec();
    let workloads = [Workload::from(Benchmark::Li)];
    let points = [SweepPoint {
        workload: workloads[0].clone(),
        depth: Depth::D20,
        config: PredictorConfig::ArviCurrent,
    }];
    let expected = run_live(&points, spec);

    // A trace set that lacks the workload, and one whose recording is too
    // short for the window (recorded under a smaller spec): either way
    // the cell degrades to live emulation with its numbers unchanged
    // (replay is bit-identical to live, so nothing is lost), and the
    // run's summary reports the fallback.
    let lacking = TraceSet::record(&[Workload::from(Benchmark::Go)], spec, 1, None);
    let smaller = Spec {
        measure: spec.measure / 2,
        ..spec
    };
    let short = TraceSet::record(&workloads, smaller, 1, None);
    assert!(short
        .get(&workloads[0])
        .is_some_and(|t| t.len() < trace_len(spec)));
    for (label, traces) in [("missing", &lacking), ("short", &short)] {
        let outcomes = run(&points, spec, Some(traces), None).outcomes;
        let s = outcomes[0]
            .success()
            .unwrap_or_else(|| panic!("{label}: {:?}", outcomes[0].failure()));
        assert_eq!(s.degradation, Degradation::LiveEmulation, "{label}");
        assert_bit_identical(&s.result, &expected[0], label);
        let summary = outcome_summary(&outcomes).expect("a degraded run reports");
        assert!(
            summary.contains("1 fell back to live emulation"),
            "{summary}"
        );
    }
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

    let dir = temp_dir("resume");
    let journal = dir.join("sweep.journal");

    // First run dies (deterministically) after 6 completed cells.
    let res = Resilience::new()
        .with_journal(&journal)
        .with_plan(FaultPlan::parse("kill-after 6").unwrap());
    let killed = run(&points, spec, None, Some(&res));
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
    let resumed_run = run(&points, spec, None, Some(&res));
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
    let workloads: Vec<Workload> = points.iter().map(|p| p.workload.clone()).collect();
    let traces = TraceSet::record(&workloads, spec, 2, None);
    let plan = SamplePlan::systematic(2, 500, 1_000);
    let sampled = |res| {
        GridRun::run(
            points.clone(),
            spec,
            2,
            false,
            Some(&traces),
            res,
            Some(&plan),
        )
    };
    let clean = sampled(None);
    let clean_reports = clean.reports.as_ref().expect("sampled");

    let res = Resilience::new().with_plan(FaultPlan::parse("panic-cell 1").unwrap());
    let faulted = sampled(Some(&res));
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

#[test]
fn sampled_units_past_the_deadline_fail_their_cell() {
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 3,
    };
    let points = small_points();
    let workloads: Vec<Workload> = points.iter().map(|p| p.workload.clone()).collect();
    let traces = TraceSet::record(&workloads, spec, 1, None);
    let plan = SamplePlan::systematic(2, 500, 1_000);
    let mut res = Resilience::new().with_plan(FaultPlan::parse("stall-cell 2 600").unwrap());
    res.deadline = Some(std::time::Duration::from_millis(250));
    let sweep = GridRun::run(
        points,
        spec,
        1,
        false,
        Some(&traces),
        Some(&res),
        Some(&plan),
    );
    assert!(
        matches!(sweep.outcomes[2], CellOutcome::TimedOut { .. }),
        "{:?}",
        sweep.outcomes[2]
    );
    for i in [0, 1] {
        assert!(sweep.outcomes[i].success().is_some(), "cell {i}");
    }
}
