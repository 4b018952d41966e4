//! Multi-threaded experiment sweeps over shared recorded traces.
//!
//! The Figure-5/6 grids are embarrassingly parallel: every
//! `(benchmark, depth, configuration)` cell is an independent,
//! deterministic simulation. They run on the workspace's one worker
//! loop, [`arvi_trace::par::par_map_caught`]: the grid executor
//! ([`crate::harness::GridRun::run`]) and the recordings
//! ([`arvi_trace::par::par_map`]) both return results in *item order*
//! regardless of which worker finished first — so a parallel sweep is
//! bit-identical to the sequential one, just faster.
//!
//! The grids are also **record-once / replay-many**: each distinct
//! `(benchmark, seed, window)` workload is functionally emulated exactly
//! once into an `arvi_trace::Trace` (a [`TraceSet`]), then every grid
//! cell replays the shared recording through its own timing machine.
//! Replay is bit-identical to live emulation (asserted against
//! [`crate::harness::run_one`] by `tests/trace_replay.rs`), so this
//! changes no results — it only removes the redundant functional
//! execution, and lets sweeps load pre-recorded traces from disk
//! (`--trace-dir`).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arvi_isa::Emulator;
use arvi_sim::{Depth, PredictorConfig};
use arvi_trace::par::par_map;
use arvi_trace::{Trace, TraceError, TraceReplayer};
use arvi_workloads::WorkloadSource;

use crate::harness::Spec;
use crate::report::Json;
use crate::resilience::Resilience;
use crate::workload::Workload;

/// Instructions recorded beyond `warmup + measure`: the machine fetches
/// ahead of commit by at most the ROB size (256) plus the commit-width
/// overshoot, so this slack guarantees a replayed cell never observes
/// end-of-trace where the live emulator would have kept producing.
pub const TRACE_SLACK: u64 = 4096;

/// The recording length that covers a simulation under `spec`.
pub fn trace_len(spec: Spec) -> u64 {
    spec.warmup + spec.measure + TRACE_SLACK
}

/// Records `workload` under `spec` into an in-memory trace (one
/// functional execution of `trace_len(spec)` instructions).
pub fn record_trace(workload: &Workload, spec: Spec) -> Trace {
    let emu = Emulator::new(workload.program(spec.seed));
    Trace::record(emu, trace_len(spec), workload.name(), spec.seed)
}

/// [`record_trace`] with failures contained: a source that ends early
/// returns [`arvi_trace::TraceError::SourceEnded`] and a panicking workload builder
/// is caught and reported as an error string — the resilient recording
/// path fails the workload's cells instead of taking the sweep down.
pub fn try_record_trace(workload: &Workload, spec: Spec) -> Result<Trace, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let emu = Emulator::new(workload.program(spec.seed));
        Trace::try_record(emu, trace_len(spec), workload.name(), spec.seed)
    }))
    .map_err(|payload| {
        format!(
            "recording {} panicked: {}",
            workload.name(),
            crate::resilience::panic_message(payload.as_ref())
        )
    })?
    .map_err(|e| e.to_string())
}

/// Canonical file name for a persisted trace: keyed by everything that
/// determines the recorded stream (workload, seed) plus the window it
/// must cover. Scenario workloads additionally carry the spec
/// fingerprint, so two scenarios sharing a name but differing in knobs
/// never collide in a trace cache (benchmark file names are unchanged
/// from PR 2, keeping existing caches valid).
pub fn trace_file_name(workload: &Workload, spec: Spec) -> String {
    let knobs = match workload.as_scenario() {
        Some(s) => format!("-f{:016x}", s.fingerprint()),
        None => String::new(),
    };
    format!(
        "{}{knobs}-s{}-w{}-m{}.arvitrace",
        workload.name(),
        spec.seed,
        spec.warmup,
        spec.measure
    )
}

/// How a [`TraceSet`] obtained (or failed to obtain) one workload's
/// recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceProvenance {
    /// Freshly recorded (no cached file existed).
    Recorded,
    /// Loaded from a healthy cached file.
    Loaded,
    /// A cached file existed but could not be used (corrupt, truncated,
    /// of another format version, stale or unreadable), so the workload
    /// was re-recorded over it.
    Rerecorded,
    /// No recording could be obtained (recording itself failed); cells
    /// over this workload fail with a trace error that gives `reason`.
    Unavailable {
        /// Why the workload has no recording.
        reason: String,
    },
}

/// One shared recording per distinct workload of a sweep.
///
/// Traces are wrapped in [`Arc`] and handed read-only to every grid
/// cell and worker thread; each cell constructs a private
/// [`TraceReplayer`] cursor over the shared bytes. Each entry also
/// carries a [`TraceProvenance`] so the resilient sweep can report
/// *how* a cell's stream was obtained (cache hit, re-record,
/// unavailable).
#[derive(Debug, Clone)]
pub struct TraceSet {
    traces: Vec<(Workload, Option<Arc<Trace>>, TraceProvenance)>,
    record_elapsed: Duration,
}

impl TraceSet {
    /// Records (in parallel, one worker per workload) every workload in
    /// `workloads` under `spec`.
    ///
    /// With `dir` set, `dir` is a cache: a file under
    /// [`trace_file_name`] that loads, verifies and matches the
    /// workload's name, seed and length is used, so a second sweep over
    /// the same spec does no functional execution at all. A missing file
    /// is recorded quietly; any other file (corrupt, truncated, of
    /// another format version, stale or unreadable) gets one stderr line
    /// and is re-recorded over. Writes are atomic ([`Trace::write_to`])
    /// and persistence failures only warn (the in-memory recording still
    /// serves the sweep).
    pub fn record(
        workloads: &[Workload],
        spec: Spec,
        threads: usize,
        dir: Option<&Path>,
    ) -> TraceSet {
        Self::record_resilient(workloads, spec, threads, dir, &Resilience::new())
    }

    /// [`TraceSet::record`] under an explicit [`Resilience`] policy,
    /// whose telemetry (if any) gets the record events.
    pub fn record_resilient(
        workloads: &[Workload],
        spec: Spec,
        threads: usize,
        dir: Option<&Path>,
        res: &Resilience,
    ) -> TraceSet {
        if let Some(dir) = dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create trace dir {}: {e}", dir.display());
            }
        }
        let telemetry = res.telemetry.as_deref();
        if let Some(t) = telemetry {
            t.event(
                "record_start",
                vec![("workloads".to_string(), Json::Num(workloads.len() as f64))],
            );
        }
        let start = Instant::now();
        let traces = par_map(workloads, threads, |workload| {
            Self::obtain(workload, spec, dir)
        });
        if let Some(t) = telemetry {
            t.record_phase(workloads.len(), start.elapsed());
        }
        TraceSet {
            traces: workloads
                .iter()
                .cloned()
                .zip(traces)
                .map(|(w, (t, p))| (w, t.map(Arc::new), p))
                .collect(),
            record_elapsed: start.elapsed(),
        }
    }

    fn obtain(
        workload: &Workload,
        spec: Spec,
        dir: Option<&Path>,
    ) -> (Option<Trace>, TraceProvenance) {
        let path = dir.map(|d| d.join(trace_file_name(workload, spec)));
        let mut provenance = TraceProvenance::Recorded;
        if let Some(path) = &path {
            let reason = match Trace::read_from(path) {
                Ok(t)
                    if t.len() >= trace_len(spec)
                        && t.seed() == spec.seed
                        && t.name() == workload.name() =>
                {
                    return (Some(t), TraceProvenance::Loaded);
                }
                Ok(_) => Some("stale (wrong workload, seed or window)".to_string()),
                Err(e) => match e.root() {
                    TraceError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => None,
                    root => Some(root.to_string()),
                },
            };
            if let Some(reason) = reason {
                eprintln!("trace {}: {reason}; re-recording", path.display());
                provenance = TraceProvenance::Rerecorded;
            }
        }
        let t = match try_record_trace(workload, spec) {
            Ok(t) => t,
            Err(reason) => {
                eprintln!("warning: cannot record {}: {reason}", workload.name());
                return (None, TraceProvenance::Unavailable { reason });
            }
        };
        if let Some(path) = &path {
            if let Err(e) = t.write_to(path) {
                eprintln!(
                    "warning: cannot persist trace {}: {}",
                    path.display(),
                    e.root()
                );
            }
        }
        (Some(t), provenance)
    }

    /// Wall-clock time the record phase took (functional emulation
    /// and/or disk loads, across all workloads). Feeds the
    /// record-vs-replay phase breakdown in
    /// [`crate::resilience::timing_summary`].
    pub fn record_elapsed(&self) -> Duration {
        self.record_elapsed
    }

    /// The shared recording for `workload`, if one was obtained.
    pub fn get(&self, workload: &Workload) -> Option<&Arc<Trace>> {
        self.traces
            .iter()
            .find(|(w, _, _)| w == workload)
            .and_then(|(_, t, _)| t.as_ref())
    }

    /// How `workload`'s recording was obtained (or why it is missing);
    /// `None` for a workload this set never covered.
    pub fn provenance(&self, workload: &Workload) -> Option<&TraceProvenance> {
        self.traces
            .iter()
            .find(|(w, _, _)| w == workload)
            .map(|(_, _, p)| p)
    }

    /// This set plus `other`'s recordings, which may cover another
    /// window; where both hold a workload, this set's entry wins.
    pub fn merged(mut self, other: TraceSet) -> TraceSet {
        self.traces.extend(other.traces);
        self.record_elapsed += other.record_elapsed;
        self
    }

    /// A fresh replay cursor over `workload`'s shared recording.
    pub fn replayer(&self, workload: &Workload) -> Option<TraceReplayer> {
        self.get(workload)
            .map(|t| TraceReplayer::new(Arc::clone(t)))
    }
}

/// The distinct workloads of a work list, in first-appearance order.
pub fn distinct_workloads(points: &[SweepPoint]) -> Vec<Workload> {
    let mut workloads = Vec::new();
    for p in points {
        if !workloads.contains(&p.workload) {
            workloads.push(p.workload.clone());
        }
    }
    workloads
}

/// One cell of an experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Workload (suite benchmark or synthetic scenario).
    pub workload: Workload,
    /// Pipeline depth.
    pub depth: Depth,
    /// Predictor configuration.
    pub config: PredictorConfig,
}

impl std::fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @{} / {}", self.workload, self.depth, self.config)
    }
}

/// Every workload x depth x configuration cell over the given axes.
pub fn grid(
    workloads: &[Workload],
    depths: &[Depth],
    configs: &[PredictorConfig],
) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for workload in workloads {
        for &depth in depths {
            for &config in configs {
                points.push(SweepPoint {
                    workload: workload.clone(),
                    depth,
                    config,
                });
            }
        }
    }
    points
}

/// The full paper grid: every benchmark x depth x configuration.
pub fn full_grid() -> Vec<SweepPoint> {
    grid(&Workload::suite(), &Depth::all(), &PredictorConfig::all())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_sim::SimResult;
    use arvi_workloads::Benchmark;

    #[test]
    fn full_grid_covers_every_cell() {
        let grid = full_grid();
        assert_eq!(
            grid.len(),
            Benchmark::all().len() * Depth::all().len() * PredictorConfig::all().len()
        );
    }

    fn small_points() -> [SweepPoint; 3] {
        [
            SweepPoint {
                workload: Benchmark::Compress.into(),
                depth: Depth::D20,
                config: PredictorConfig::TwoLevelGskew,
            },
            SweepPoint {
                workload: Benchmark::Li.into(),
                depth: Depth::D20,
                config: PredictorConfig::ArviCurrent,
            },
            SweepPoint {
                workload: Benchmark::Compress.into(),
                depth: Depth::D40,
                config: PredictorConfig::ArviCurrent,
            },
        ]
    }

    /// `points` on the grid executor, replaying `traces`; every cell
    /// must finish.
    fn swept(
        points: &[SweepPoint],
        spec: Spec,
        threads: usize,
        traces: &TraceSet,
    ) -> Vec<SimResult> {
        let res = Resilience::new();
        crate::harness::GridRun::run(points.to_vec(), spec, threads, false, traces, &res, None)
            .results(|_| true)
            .expect("every cell ran")
    }

    fn assert_same_results(a: &[SimResult], b: &[SimResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.window.committed, y.window.committed);
            assert_eq!(x.window.cycles, y.window.cycles);
            assert_eq!(
                x.window.cond_branches.correct(),
                y.window.cond_branches.correct()
            );
            assert_eq!(x.window.full_mispredicts, y.window.full_mispredicts);
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let spec = Spec {
            warmup: 2_000,
            measure: 6_000,
            seed: 42,
        };
        let points = small_points();
        let traces = TraceSet::record(&distinct_workloads(&points), spec, 1, None);
        let seq = swept(&points, spec, 1, &traces);
        let par = swept(&points, spec, 3, &traces);
        assert_same_results(&seq, &par);
    }

    #[test]
    fn traced_sweep_is_bit_identical_to_emulated() {
        let spec = Spec {
            warmup: 2_000,
            measure: 6_000,
            seed: 7,
        };
        let points = small_points();
        let live: Vec<SimResult> = points
            .iter()
            .map(|p| crate::harness::run_one(&p.workload, p.depth, p.config, spec))
            .collect();
        let traces = TraceSet::record(&distinct_workloads(&points), spec, 2, None);
        let traced = swept(&points, spec, 2, &traces);
        assert_same_results(&live, &traced);
    }

    #[test]
    fn distinct_workloads_preserves_first_appearance_order() {
        let mut points = small_points().to_vec();
        points.push(SweepPoint {
            workload: Workload::scenario("dw branch=datadep:8".parse().unwrap()),
            depth: Depth::D20,
            config: PredictorConfig::ArviCurrent,
        });
        let distinct = distinct_workloads(&points);
        assert_eq!(distinct.len(), 3);
        assert_eq!(distinct[0], Benchmark::Compress.into());
        assert_eq!(distinct[1], Benchmark::Li.into());
        assert_eq!(distinct[2].name(), "dw");
    }

    #[test]
    #[should_panic(expected = "recorded under a smaller spec")]
    fn short_trace_rejected_instead_of_truncating_the_window() {
        let small = Spec {
            warmup: 500,
            measure: 1_000,
            seed: 3,
        };
        let big = Spec {
            warmup: 500,
            measure: 50_000,
            seed: 3,
        };
        let traces = TraceSet::record(&[Benchmark::Li.into()], small, 1, None);
        let trace = traces.get(&Benchmark::Li.into()).unwrap();
        let _ =
            crate::harness::run_one_traced(trace, Depth::D20, PredictorConfig::ArviCurrent, big);
    }

    #[test]
    fn trace_set_records_persists_and_reloads() {
        let spec = Spec {
            warmup: 500,
            measure: 1_000,
            seed: 3,
        };
        let dir = std::env::temp_dir().join(format!("arvi-sweep-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let workloads = [Workload::from(Benchmark::M88ksim)];
        let recorded = TraceSet::record(&workloads, spec, 1, Some(&dir));
        let path = dir.join(trace_file_name(&workloads[0], spec));
        assert!(path.exists());
        // Second record() round-trips through the persisted file.
        let reloaded = TraceSet::record(&workloads, spec, 1, Some(&dir));
        let a = recorded.get(&workloads[0]).unwrap();
        let b = reloaded.get(&workloads[0]).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), trace_len(spec));
        let insts_a: Vec<_> = recorded.replayer(&workloads[0]).unwrap().collect();
        let insts_b: Vec<_> = reloaded.replayer(&workloads[0]).unwrap().collect();
        assert_eq!(insts_a, insts_b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
