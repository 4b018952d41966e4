//! The grid executor: panic isolation, resumable runs, and a
//! deterministic fault-injection harness, for every run mode.
//!
//! A full-spec grid is hours of compute; one panicking cell must not
//! take the whole run down. Every grid — strict
//! (the default policy, [`Resilience::new`]), fault-isolated with
//! journal or fault plan, and sampled under `--sample` — runs on one
//! executor, entered only through [`crate::harness::GridRun::run`], over
//! `(cell, unit)` work items: a cell is one whole-cell item, or under a
//! sample plan one item per sampling unit ([`crate::sampling`]). Every
//! item replays its workload's shared recording. The same code gives
//! every mode:
//!
//! * **Per-cell fault isolation** — every work item runs under
//!   `catch_unwind` (on the workspace's one worker loop,
//!   [`arvi_trace::par::par_map_caught`]), and each cell reports a
//!   structured [`CellOutcome`] instead of aborting the grid; a failed
//!   unit fails only its own cell. Panics whose message carries
//!   [`arvi_trace::REPLAY_PANIC_PREFIX`] are classified as trace
//!   failures, everything else as a generic cell panic.
//! * **Missing recordings** — a cell with no usable recording
//!   (recording failed, or the trace set lacks or under-covers its
//!   workload) fails alone as [`CellOutcome::TraceError`], naming its
//!   workload and the reason. An unusable cached trace file never gets
//!   this far: [`TraceSet::record`] re-records it.
//! * **Durability** — completed work items are journaled (fingerprint +
//!   result, one [`SweepJournal`] line per cell or sampling unit,
//!   appended as they finish) so an interrupted sweep resumes by skipping
//!   finished items ([`Resilience::resume`]). Failed cells are never
//!   journaled, so a resume re-runs them. Trace files themselves are
//!   written atomically by `arvi-trace` (temp file + fsync + rename).
//! * **Every probe in the pass** — [`Resilience::probes`] says which
//!   probes each cell carries out in [`CellSuccess::probes`] (a sampled
//!   cell from one extra whole-cell item), journaled on the cell's own
//!   line, so neither the grid rollup ([`crate::obs_grid`]) nor the
//!   anchor report ([`crate::obs`]) re-simulates a cell.
//! * **Load back from its twin** — without a sample plan, a whole-cell
//!   ArviLoadBack item is dispatched after every other item and takes
//!   its current-value twin's result (the cell of the same workload and
//!   depth), relabelled, when the twin published one. A twin publishes
//!   after simulating in this run when load back's hoist rule never
//!   fired on its whole run ([`arvi_sim::Machine::load_back_hoists`]).
//!   That rule is the only difference between the two machines
//!   ([`arvi_sim::oracle`]), so the derived result is bit-identical to a
//!   simulated one. So are the twin's counters and sites when both cells
//!   carry them. The cell is simulated as usual in every other case:
//!   the twin disagreed, failed, was resumed, is still running, or
//!   carries other probes or a tracer. No item waits on its twin, and
//!   the fault plan's panic fires before any derivation. A derived
//!   cell's `cell_end` says `"phase":"derived"`.
//! * **Deterministic fault injection** — a [`FaultPlan`] (parsed from
//!   `--fault-plan` text) panics chosen cells and simulates a mid-grid
//!   kill, both deterministically, so `tests/fault_injection.rs` and the
//!   CI fault job exercise those failure paths on demand.
//! * **Telemetry** — with [`Resilience::telemetry`], one `cell_start`
//!   and one `cell_end` event per cell (not per unit), bracketed by
//!   `sweep_start`/`sweep_end`, plus the cumulative metrics export.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arvi_obs::{ChromeTracer, CounterProbe, NullProbe, SiteProbe};
use arvi_sampling::{run_unit, SamplePlan, SampleReport, SampleUnit};
use arvi_sim::{
    intern_name, simulate_source_verdict, InstSource, PredictorConfig, SimParams, SimResult,
};
use arvi_stats::Accuracy;
use arvi_trace::par::par_map_caught;
use arvi_trace::{Trace, TraceReplayer, REPLAY_PANIC_PREFIX};

use crate::events::SweepTelemetry;
use crate::harness::Spec;
use crate::obs::{anchor, ObsConfig};
use crate::obs_grid::{probes_from_json, probes_to_json, CellProbes};
use crate::report::{io_error_at, Json};
use crate::sampling::{fold_units, unit_fingerprint};
use crate::sweep::{trace_len, SweepPoint, TraceSet};
use crate::workload::{fnv1a, FNV_OFFSET};

/// A completed cell: the result plus how it was obtained.
#[derive(Debug, Clone)]
pub struct CellSuccess {
    /// The simulation result.
    pub result: SimResult,
    /// Whether the result was restored from a journal instead of
    /// simulated in this run.
    pub resumed: bool,
    /// Whether this load-back result was taken from the cell's
    /// current-value twin instead of simulated (see the module docs).
    pub derived: bool,
    /// Wall-clock time the cell took. For resumed cells this is the
    /// journaled duration of the original run (zero for entries written
    /// by journals that predate duration tracking).
    pub duration: Duration,
    /// How many sampling units produced this result under a sample
    /// plan ([`crate::harness::GridRun::run`] with a plan); `0` for a
    /// full (unsampled) run.
    pub sampled_units: usize,
    /// The probes the cell ran with, when the run asked for them
    /// ([`Resilience::probes`]); counters and sites are restored from the
    /// cell's journal line for resumed cells.
    pub probes: Option<Box<CellProbes>>,
}

/// The structured outcome of one grid cell of a
/// [`crate::harness::GridRun`]: no cell failure aborts the grid.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell produced a result.
    Ok(CellSuccess),
    /// The cell panicked (payload message attached). Trace-replay
    /// panics are reported as [`CellOutcome::TraceError`] instead.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
    /// The cell could not read its instruction stream: its workload has
    /// no recording of the run's seed long enough for the window, replay
    /// hit corruption, or a sampling unit could not seek its recording.
    TraceError {
        /// What went wrong.
        message: String,
    },
    /// The cell was never dispatched (a simulated [`FaultKind::KillAfter`]
    /// stopped the run first). Re-run with resume to complete it.
    Skipped,
}

impl CellOutcome {
    /// The success payload, if any.
    pub fn success(&self) -> Option<&CellSuccess> {
        match self {
            CellOutcome::Ok(s) => Some(s),
            _ => None,
        }
    }

    /// The failure reason, for everything except `Ok`.
    pub fn failure(&self) -> Option<String> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Panicked { message } => Some(format!("panicked: {message}")),
            CellOutcome::TraceError { message } => Some(format!("trace error: {message}")),
            CellOutcome::Skipped => Some("skipped (run stopped before dispatch)".into()),
        }
    }
}

/// Fault-tolerance policy for a sweep. [`Resilience::new`] (also
/// [`Resilience::default`]) journals nothing and injects nothing; it is
/// the policy of a run with no fault-tolerance flags. Under every policy
/// a cell with no usable recording fails alone.
#[derive(Debug, Clone, Default)]
pub struct Resilience {
    /// Where to journal completed cells (appended as cells finish).
    pub journal: Option<PathBuf>,
    /// Restore completed cells from the journal instead of re-running
    /// them.
    pub resume: bool,
    /// Deterministic fault plan (testing/CI only).
    pub plan: Option<Arc<FaultPlan>>,
    /// Structured execution telemetry (event log + metrics export).
    /// Shared with the trace recorder, hence the `Arc`.
    pub telemetry: Option<Arc<SweepTelemetry>>,
    /// The parsed observability flags, which say which cells carry which
    /// probes ([`ObsConfig`]). Probed results are bit-identical to
    /// unprobed ones; a resumed cell whose journal line lacks a probe the
    /// run needs — a tracer always — is re-simulated to get it.
    pub probes: Option<ObsConfig>,
}

impl Resilience {
    /// No journal, fault plan, telemetry or probes.
    pub fn new() -> Resilience {
        Resilience::default()
    }

    /// Sets the journal path (builder style).
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Resilience {
        self.journal = Some(path.into());
        self
    }

    /// Enables resume-from-journal (builder style).
    pub fn resuming(mut self) -> Resilience {
        self.resume = true;
        self
    }

    /// Sets the fault plan (builder style).
    pub fn with_plan(mut self, plan: FaultPlan) -> Resilience {
        self.plan = Some(Arc::new(plan));
        self
    }
}

/// One planned fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside grid cell `cell` (by index into the sweep's point
    /// list). Fires once, on the cell's first dispatched work item —
    /// the whole cell, or under a sample plan one of its units (or its
    /// probed item) — and fails only that cell.
    PanicCell {
        /// Cell index into the sweep's point list.
        cell: u32,
    },
    /// Stop dispatching new work items once `cells` items have
    /// completed — a deterministic stand-in for kill -9 mid-sweep. Items
    /// are cells, except under a sample plan, where each sampling unit
    /// and each sampled cell's probed item counts (a cell with
    /// unfinished items is skipped).
    KillAfter {
        /// Completed-work-item threshold.
        cells: u32,
    },
}

/// A deterministic, seed-free fault schedule, parsed from text
/// (`--fault-plan FILE`). One fault per line, `#` comments and blank
/// lines ignored:
///
/// ```text
/// panic-cell <index>   # panic inside grid cell <index>
/// kill-after <count>   # stop dispatch after <count> work items
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<(FaultKind, AtomicBool)>,
}

impl FaultPlan {
    /// Parses a plan from its text form. Errors name the offending line.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |what: &str| format!("fault plan line {}: {what}: `{line}`", ln + 1);
            let mut tok = line.split_whitespace();
            let kind = tok.next().expect("non-empty line has a first token");
            let fault = match kind {
                "panic-cell" => FaultKind::PanicCell {
                    cell: tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad cell index"))?,
                },
                "kill-after" => FaultKind::KillAfter {
                    cells: tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad cell count"))?,
                },
                _ => return Err(bad("unknown fault kind")),
            };
            if tok.next().is_some() {
                return Err(bad("trailing tokens"));
            }
            faults.push((fault, AtomicBool::new(false)));
        }
        Ok(FaultPlan { faults })
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Atomically claims a pending panic fault for cell `i`: each one
    /// fires once.
    pub fn take_panic(&self, i: usize) -> bool {
        self.faults.iter().any(|(kind, fired)| {
            matches!(kind, FaultKind::PanicCell { cell } if *cell as usize == i)
                && !fired.swap(true, Ordering::AcqRel)
        })
    }

    /// Whether a kill fault says to stop dispatching: `completed` work
    /// items have finished and some `kill-after` threshold is reached. Sticky
    /// (not consumed) — once tripped, every dispatcher sees it.
    pub fn kill_now(&self, completed: usize) -> bool {
        self.faults.iter().any(
            |(k, _)| matches!(k, FaultKind::KillAfter { cells } if completed >= *cells as usize),
        )
    }
}

/// Identity hash of one grid cell under one spec: everything that
/// determines the cell's result. Journal entries are keyed by this, so
/// a journal recorded under a different spec, workload knob set, depth
/// or configuration can never satisfy a resume lookup.
pub fn cell_fingerprint(point: &SweepPoint, spec: Spec) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"arvi-sweep-cell-v1");
    h = fnv1a(h, &point.workload.fingerprint().to_le_bytes());
    h = fnv1a(h, &spec.seed.to_le_bytes());
    h = fnv1a(h, &spec.warmup.to_le_bytes());
    h = fnv1a(h, &spec.measure.to_le_bytes());
    h = fnv1a(h, &point.depth.stages().to_le_bytes());
    h = fnv1a(h, &(config_index(point.config) as u64).to_le_bytes());
    h
}

fn config_index(config: PredictorConfig) -> usize {
    PredictorConfig::all()
        .iter()
        .position(|&c| c == config)
        .expect("known config")
}

fn accuracy_json(a: Accuracy) -> Json {
    Json::Arr(vec![
        Json::Num(a.correct() as f64),
        Json::Num(a.total() as f64),
    ])
}

fn accuracy_from(json: &Json, path: &str) -> Option<Accuracy> {
    match json.get(path)? {
        Json::Arr(v) if v.len() == 2 => match (&v[0], &v[1]) {
            (Json::Num(c), Json::Num(t)) if *c >= 0.0 && c <= t => {
                Some(Accuracy::from_counts(*c as u64, *t as u64))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Serializes one completed work item for the journal: the result
/// counters (all fit f64 exactly — they are bounded by the instruction
/// window, far below 2^53), then, from a probed sweep, the probes as the
/// last field, so an unprobed line is unchanged by their existence.
fn entry_json(s: &CellSuccess) -> Json {
    let w = &s.result.window;
    let mut fields = vec![
        ("name", Json::str(s.result.name)),
        ("config", Json::Num(config_index(s.result.config) as f64)),
        ("depth", Json::Num(s.result.depth_stages as f64)),
        ("dur_us", Json::Num(s.duration.as_micros() as f64)),
        (
            "window",
            Json::obj([
                ("committed", Json::Num(w.committed as f64)),
                ("cycles", Json::Num(w.cycles as f64)),
                ("cond", accuracy_json(w.cond_branches)),
                ("l1", accuracy_json(w.l1_only)),
                ("calc", accuracy_json(w.calc_class)),
                ("load", accuracy_json(w.load_class)),
                ("overrides", Json::Num(w.overrides as f64)),
                ("correcting", Json::Num(w.overrides_correcting as f64)),
                ("bvit", Json::Num(w.bvit_hits as f64)),
                ("full_misp", Json::Num(w.full_mispredicts as f64)),
                ("restarts", Json::Num(w.override_restarts as f64)),
            ]),
        ),
    ];
    if let Some(probes) = &s.probes {
        fields.push(("probes", probes_to_json(probes)));
    }
    Json::obj(fields)
}

/// Inverse of [`entry_json`], marked resumed; `None` on any malformed
/// field, the probes included.
fn entry_from_json(json: &Json) -> Option<CellSuccess> {
    let name = match json.get("name")? {
        Json::Str(s) => intern_name(s),
        _ => return None,
    };
    let config = *PredictorConfig::all().get(json.num("config")? as usize)?;
    // Older journals carry a `degraded` tag, which is ignored, and those
    // from before duration tracking lack `dur_us`.
    let duration = json
        .num("dur_us")
        .filter(|n| *n >= 0.0)
        .map(|n| Duration::from_micros(n as u64))
        .unwrap_or_default();
    let count = |path: &str| json.num(path).filter(|n| *n >= 0.0).map(|n| n as u64);
    let window = arvi_sim::MachineStats {
        committed: count("window.committed")?,
        cycles: count("window.cycles")?,
        cond_branches: accuracy_from(json, "window.cond")?,
        l1_only: accuracy_from(json, "window.l1")?,
        calc_class: accuracy_from(json, "window.calc")?,
        load_class: accuracy_from(json, "window.load")?,
        overrides: count("window.overrides")?,
        overrides_correcting: count("window.correcting")?,
        bvit_hits: count("window.bvit")?,
        full_mispredicts: count("window.full_misp")?,
        override_restarts: count("window.restarts")?,
    };
    let result = SimResult {
        name,
        config,
        depth_stages: json.num("depth")? as u64,
        window,
    };
    let probes = match json.get("probes") {
        Some(p) => Some(Box::new(probes_from_json(p, &result)?)),
        None => None,
    };
    Some(CellSuccess {
        result,
        resumed: true,
        derived: false,
        duration,
        sampled_units: 0,
        probes,
    })
}

/// Append-only journal of completed work items: a header comment naming
/// the spec, then one `<fingerprint-hex16> <compact-json>` line per whole
/// cell or sampling unit, appended (and flushed) as items finish. A line
/// carries the item's result counters and duration and,
/// for a probed cell ([`Resilience::probes`]), its counter and site
/// probes (never a tracer) as a last `probes` field. Crash-tolerant on
/// both ends: a torn final line from an interrupted writer is skipped
/// (with a warning) by the loader, and everything before it still
/// resumes. For a repeated fingerprint the last line wins, so a cell
/// re-run for its probes supersedes its earlier, unprobed line.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl SweepJournal {
    /// Opens `path` for appending, writing the header line when the file
    /// is new or empty.
    pub fn open_append(path: &Path, spec: Spec) -> std::io::Result<SweepJournal> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| io_error_at(parent, e))?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_error_at(path, e))?;
        if file.metadata().map_err(|e| io_error_at(path, e))?.len() == 0 {
            writeln!(
                file,
                "# arvi sweep journal v1 seed={} warmup={} measure={}",
                spec.seed, spec.warmup, spec.measure
            )
            .map_err(|e| io_error_at(path, e))?;
        }
        Ok(SweepJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Appends one completed work item, with its probes when it carries
    /// them. Persistence failures only warn — a full disk must not fail
    /// the sweep itself.
    pub fn append(&self, fingerprint: u64, item: &CellSuccess) {
        let line = format!("{fingerprint:016x} {}", entry_json(item).render_compact());
        let mut file = self.file.lock().expect("journal writer panicked");
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            eprintln!(
                "warning: cannot append to sweep journal {}: {e}",
                self.path.display()
            );
        }
    }

    /// Loads the last well-formed entry per fingerprint of the journal at
    /// `path`, each marked [`CellSuccess::resumed`] (with `sampled_units`
    /// 0; the executor knows whether a key is a unit). A missing file is
    /// an empty journal; malformed lines (e.g. a torn final line from a
    /// crashed writer) are skipped with a warning.
    pub fn load(path: &Path) -> HashMap<u64, CellSuccess> {
        let mut entries = HashMap::new();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(_) => return entries,
        };
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = line.split_once(' ').and_then(|(fp, json)| {
                let fp = u64::from_str_radix(fp, 16).ok()?;
                Some((fp, entry_from_json(&Json::parse(json).ok()?)?))
            });
            match parsed {
                Some((fp, entry)) => {
                    entries.insert(fp, entry);
                }
                None => eprintln!(
                    "warning: sweep journal {}: skipping malformed line {} \
                     (torn write from an interrupted run?)",
                    path.display(),
                    ln + 1
                ),
            }
        }
        entries
    }
}

/// One work item of a grid: a cell index and, under a sample plan, the
/// index of one of its sampling units (`None`: the whole cell).
type WorkItem = (usize, Option<usize>);

/// The grid executor behind every run mode; its one caller is
/// [`crate::harness::GridRun::run`]. No cell failure aborts the grid.
///
/// Every cell replays `traces`' recording of its workload; a cell whose
/// workload has no recording of `spec`'s seed long enough for the window
/// fails as [`CellOutcome::TraceError`]. The work list holds one whole-cell item
/// per cell, except that under `sample` a cell with a usable recording
/// contributes one item per sampling unit instead, plus one whole-cell
/// probed item when the cell must report probes. Every item runs on the
/// one worker loop ([`par_map_caught`]) under the same isolation, fault
/// plan, journal and resume — a restored item is bit-identical to a
/// simulated one, it is the simulated one. A cell's `cell_start` event
/// goes out when its first item is dispatched, and its outcome is
/// folded — and its `cell_end` emitted — when its last item finishes.
/// Returns one outcome per point in grid order, for every cell that
/// sampled its [`SampleReport`], and the journal the run appended to, if
/// any.
pub(crate) fn run_grid(
    points: &[SweepPoint],
    spec: Spec,
    threads: usize,
    progress: bool,
    traces: &TraceSet,
    res: &Resilience,
    sample: Option<&SamplePlan>,
) -> (Vec<CellOutcome>, Vec<Option<SampleReport>>, Option<PathBuf>) {
    let exec = Executor::new(points, spec, traces, res, sample);
    let mut items: Vec<WorkItem> = Vec::new();
    let mut spans = vec![(0..0, false); points.len()];
    // Cells that may take their twin's result go last, so their twins
    // have had the longest time to publish one.
    let (early, late): (Vec<usize>, Vec<usize>) =
        (0..points.len()).partition(|&i| exec.twins[i].is_none());
    for i in early.into_iter().chain(late) {
        let first = items.len();
        let sampled = !exec.units.is_empty() && exec.recordings[i].is_ok();
        if sampled {
            items.extend((0..exec.units.len()).map(|j| (i, Some(j))));
        }
        if !sampled || exec.probes[i] != ProbeSet::Off {
            items.push((i, None));
        }
        spans[i] = (first..items.len(), sampled);
    }
    let cells: Vec<CellRun> = spans
        .into_iter()
        .map(|(items, sampled)| CellRun {
            pending: AtomicUsize::new(items.len()),
            items,
            sampled,
            started: AtomicBool::new(false),
            folded: Mutex::new(None),
        })
        .collect();

    let telemetry = res.telemetry.as_deref();
    let sweep_start = Instant::now();
    if let Some(t) = telemetry {
        t.event(
            "sweep_start",
            vec![
                ("cells".to_string(), Json::Num(points.len() as f64)),
                (
                    "threads".to_string(),
                    Json::Num(threads.clamp(1, items.len().max(1)) as f64),
                ),
            ],
        );
    }
    let slots: Vec<Mutex<Option<CellOutcome>>> = items.iter().map(|_| Mutex::new(None)).collect();
    par_map_caught(
        &items,
        threads,
        |completed| res.plan.as_deref().is_some_and(|p| p.kill_now(completed)),
        |&(cell, unit)| {
            if !cells[cell].started.swap(true, Ordering::AcqRel) {
                exec.cell_started(cell, progress);
            }
            let outcome = exec.run_item(cell, unit);
            exec.journal(cell, unit, &outcome);
            outcome
        },
        |idx, caught| {
            let cell = items[idx].0;
            let outcome = caught.unwrap_or_else(|payload| {
                let message = panic_message(payload.as_ref());
                if message.contains(REPLAY_PANIC_PREFIX) {
                    CellOutcome::TraceError { message }
                } else {
                    CellOutcome::Panicked { message }
                }
            });
            *slots[idx].lock().expect("item slot") = Some(outcome);
            let run = &cells[cell];
            if run.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut outcomes: Vec<CellOutcome> = slots[run.items.clone()]
                    .iter()
                    .map(|s| s.lock().expect("item slot").take().expect("item ran"))
                    .collect();
                let folded = if run.sampled {
                    // A probed sampled cell's last item is its whole-cell
                    // probed one.
                    let probed = (exec.probes[cell] != ProbeSet::Off)
                        .then(|| outcomes.pop().expect("the probed item"));
                    fold_units(&points[cell], spec, outcomes, probed)
                } else {
                    (outcomes.pop().expect("one whole-cell item"), None)
                };
                if let Some(t) = telemetry {
                    emit_cell_events(t, cell, &points[cell], &folded.0);
                }
                *run.folded.lock().expect("cell slot") = Some(folded);
            }
        },
    );
    let (outcomes, reports): (Vec<CellOutcome>, Vec<Option<SampleReport>>) = cells
        .into_iter()
        .map(|run| {
            run.folded
                .into_inner()
                .expect("cell slot")
                .unwrap_or((CellOutcome::Skipped, None))
        })
        .unzip();
    if let Some(t) = telemetry {
        for o in &outcomes {
            if matches!(o, CellOutcome::Skipped) {
                t.cell_finished("skipped", None, false);
            }
        }
        t.event(
            "sweep_end",
            vec![
                ("cells".to_string(), Json::Num(outcomes.len() as f64)),
                (
                    "completed".to_string(),
                    Json::Num(outcomes.iter().filter(|o| o.success().is_some()).count() as f64),
                ),
                (
                    "dur_us".to_string(),
                    Json::Num(sweep_start.elapsed().as_micros() as f64),
                ),
            ],
        );
        t.sweep_finished();
    }
    (outcomes, reports, exec.journal.map(|j| j.path))
}

/// One cell's progress through the work list: its items' range, whether
/// it samples (`false`: one whole-cell item), whether any item has been
/// dispatched, how many are still unfinished, and — once the last one
/// finishes — its folded outcome and sampled estimate.
struct CellRun {
    items: std::ops::Range<usize>,
    sampled: bool,
    started: AtomicBool,
    pending: AtomicUsize,
    folded: Mutex<Option<(CellOutcome, Option<SampleReport>)>>,
}

/// Which probes one work item runs with ([`Executor::probes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeSet {
    /// The unprobed machine.
    Off,
    /// The counter and site probes.
    Sites,
    /// Counters and sites plus a Chrome tracer over the cycle `window`,
    /// its events stamped with `pid`.
    Traced { window: (u64, u64), pid: u32 },
}

/// Which probes each of `points` carries under `cfg`: counters and sites
/// on every cell under `--obs-grid`, and on the grid's anchor cells
/// under `--probe`/`--trace-cycles` — which with `--trace-cycles` also
/// carry a tracer over the window, with `pid` its workload's index + 1.
fn probe_sets(points: &[SweepPoint], cfg: Option<&ObsConfig>) -> Vec<ProbeSet> {
    let mut sets = vec![ProbeSet::Off; points.len()];
    let Some(cfg) = cfg else { return sets };
    if cfg.grid.is_some() {
        sets.fill(ProbeSet::Sites);
    }
    if let Some((_, cells)) = anchor(points).filter(|_| cfg.anchor_report()) {
        for (k, i) in cells.into_iter().enumerate() {
            sets[i] = match cfg.trace {
                Some(window) => ProbeSet::Traced {
                    window,
                    pid: k as u32 + 1,
                },
                None => ProbeSet::Sites,
            };
        }
    }
    sets
}

/// Each load-back cell's current-value twin — the cell of the same
/// workload and depth — when the two carry the same probes and no
/// tracer (a tracer belongs to its own cell: its events carry the cell's
/// pid); `None` for every other cell.
fn twins(points: &[SweepPoint], probes: &[ProbeSet]) -> Vec<Option<usize>> {
    points
        .iter()
        .zip(probes)
        .map(|(p, &set)| {
            if p.config != PredictorConfig::ArviLoadBack || matches!(set, ProbeSet::Traced { .. }) {
                return None;
            }
            points
                .iter()
                .position(|q| {
                    q.config == PredictorConfig::ArviCurrent
                        && q.depth == p.depth
                        && q.workload == p.workload
                })
                .filter(|&j| probes[j] == set)
        })
        .collect()
}

/// Everything a work item needs, shared read-only by the workers.
struct Executor<'a> {
    points: &'a [SweepPoint],
    spec: Spec,
    res: &'a Resilience,
    sample: Option<&'a SamplePlan>,
    /// Each cell's recording, or why it has no usable one.
    recordings: Vec<Result<&'a Arc<Trace>, String>>,
    /// The sample plan's units over the measurement window (empty
    /// without a plan).
    units: Vec<SampleUnit>,
    /// The probes each cell reports, carried by its whole-cell item
    /// (sampling units run unprobed).
    probes: Vec<ProbeSet>,
    /// Each cell's current-value twin, for a load-back cell that may take
    /// its result from it ([`twins`]).
    twins: Vec<Option<usize>>,
    /// A twin's result, once it has simulated and load back's rule never
    /// fired on its run; taken by the one load-back cell it serves.
    published: Vec<Mutex<Option<Simulated>>>,
    prior: HashMap<u64, CellSuccess>,
    journal: Option<SweepJournal>,
}

type Simulated = (SimResult, Option<Box<CellProbes>>);

impl<'a> Executor<'a> {
    fn new(
        points: &'a [SweepPoint],
        spec: Spec,
        traces: &'a TraceSet,
        res: &'a Resilience,
        sample: Option<&'a SamplePlan>,
    ) -> Executor<'a> {
        // Detail windows live inside the measurement window; unit
        // warm-up may reach back into the spec warm-up prefix (recorded
        // too).
        let units = sample.map_or_else(Vec::new, |p| p.units(spec.warmup, spec.measure, spec.seed));
        let prior = match (&res.journal, res.resume) {
            (Some(path), true) => SweepJournal::load(path),
            _ => HashMap::new(),
        };
        // A journal that cannot open must not stop the sweep.
        let journal = res.journal.as_deref().and_then(|path| {
            SweepJournal::open_append(path, spec)
                .map_err(|e| {
                    eprintln!(
                        "warning: cannot open sweep journal {}: {e} (continuing without)",
                        path.display()
                    )
                })
                .ok()
        });
        let probes = probe_sets(points, res.probes.as_ref());
        let twins = match sample {
            Some(_) => vec![None; points.len()],
            None => twins(points, &probes),
        };
        Executor {
            points,
            spec,
            res,
            sample,
            recordings: points.iter().map(|p| recording(traces, p, spec)).collect(),
            units,
            probes,
            twins,
            published: points.iter().map(|_| Mutex::new(None)).collect(),
            prior,
            journal,
        }
    }

    /// The journal key of one work item.
    fn fingerprint(&self, cell: usize, unit: Option<usize>) -> u64 {
        let point = &self.points[cell];
        match (unit, self.sample) {
            (Some(j), Some(plan)) => unit_fingerprint(point, self.spec, plan, j as u64),
            _ => cell_fingerprint(point, self.spec),
        }
    }

    /// A cell's first item was dispatched.
    fn cell_started(&self, cell: usize, progress: bool) {
        let point = &self.points[cell];
        if progress {
            eprintln!("sweep: {point}");
        }
        if let Some(t) = self.res.telemetry.as_deref() {
            t.event(
                "cell_start",
                vec![
                    ("cell".to_string(), Json::Num(cell as f64)),
                    ("point".to_string(), Json::str(point.to_string())),
                ],
            );
        }
    }

    /// Fails one work item of a cell without a usable recording, or
    /// restores it from the journal, or takes a load-back cell's result
    /// from its twin, or runs it: the fault plan's panic for the cell
    /// fires on its first dispatched item, before any derivation.
    fn run_item(&self, cell: usize, unit: Option<usize>) -> CellOutcome {
        let point = &self.points[cell];
        let trace = match &self.recordings[cell] {
            Ok(trace) => *trace,
            Err(message) => {
                return CellOutcome::TraceError {
                    message: message.clone(),
                }
            }
        };
        let fp = self.fingerprint(cell, unit);
        let sampled_units = unit.is_some() as usize;
        let probes = unit.map_or(self.probes[cell], |_| ProbeSet::Off);
        if let Some(prior) = self.prior.get(&fp) {
            // A cell journaled without a probe it needs re-runs; a
            // tracer is never journaled.
            let sites = probes == ProbeSet::Sites && prior.probes.is_some();
            if probes == ProbeSet::Off || sites {
                return CellOutcome::Ok(CellSuccess {
                    result: prior.result.clone(),
                    resumed: true,
                    derived: false,
                    duration: prior.duration,
                    sampled_units,
                    probes: prior.probes.clone().filter(|_| probes != ProbeSet::Off),
                });
            }
        }
        let start = Instant::now();
        if self.res.plan.as_deref().is_some_and(|p| p.take_panic(cell)) {
            panic!("injected fault: panic in cell {cell} ({point})");
        }
        let mut derived = false;
        let ran = match unit {
            Some(j) => self.simulate_unit(trace, point, &self.units[j]),
            None => Ok(match self.derive(cell) {
                Some(twin) => {
                    derived = true;
                    twin
                }
                None => self.simulate_whole(cell, trace, probes),
            }),
        };
        match ran {
            Err(message) => CellOutcome::TraceError { message },
            Ok((result, probes)) => CellOutcome::Ok(CellSuccess {
                result,
                resumed: false,
                derived,
                duration: start.elapsed(),
                sampled_units,
                probes,
            }),
        }
    }

    /// A whole cell over its recording. A current-value twin whose run
    /// never met load back's hoist rule publishes its result for its
    /// load-back cell.
    fn simulate_whole(&self, cell: usize, trace: &Arc<Trace>, probes: ProbeSet) -> Simulated {
        let replayer = TraceReplayer::new(Arc::clone(trace));
        let name = intern_name(trace.name());
        let (simulated, hoists) =
            simulate_cell(name, replayer, &self.points[cell], self.spec, probes);
        if hoists == 0 && self.twins.contains(&Some(cell)) {
            *self.published[cell].lock().expect("twin slot") = Some(simulated.clone());
        }
        simulated
    }

    /// `cell`'s result taken from its current-value twin, relabelled with
    /// the cell's configuration, when the twin has published one; `None`
    /// when the cell has no twin or the twin has not (yet) published.
    fn derive(&self, cell: usize) -> Option<Simulated> {
        let twin = self.twins[cell]?;
        let (mut result, mut probes) = self.published[twin].lock().expect("twin slot").take()?;
        result.config = self.points[cell].config;
        if let Some(p) = &mut probes {
            p.result = result.clone();
        }
        Some((result, probes))
    }

    /// One sampling unit of a cell over its recording. The unit's
    /// counters ride in the result's `window`, as its journal line
    /// stores them.
    fn simulate_unit(
        &self,
        trace: &Arc<Trace>,
        point: &SweepPoint,
        unit: &SampleUnit,
    ) -> Result<Simulated, String> {
        let params = SimParams::for_depth(point.depth);
        let stats = run_unit(trace, &params, point.config, unit).map_err(|e| e.to_string())?;
        let result = SimResult {
            name: intern_name(point.workload.name()),
            config: point.config,
            depth_stages: point.depth.stages(),
            window: stats,
        };
        Ok((result, None))
    }

    /// Journals a freshly simulated item, counters and sites included. A
    /// cell re-run for its probes gets a new line, which supersedes its
    /// old one.
    fn journal(&self, cell: usize, unit: Option<usize>, outcome: &CellOutcome) {
        if let (Some(journal), CellOutcome::Ok(s)) = (&self.journal, outcome) {
            if !s.resumed {
                journal.append(self.fingerprint(cell, unit), s);
            }
        }
    }
}

/// `traces`' recording of `point`'s workload or, when none covers
/// `spec`'s window and seed, why not, naming the workload.
fn recording<'a>(
    traces: &'a TraceSet,
    point: &SweepPoint,
    spec: Spec,
) -> Result<&'a Arc<Trace>, String> {
    let name = point.workload.name();
    let Some(trace) = traces.get(&point.workload) else {
        let why = match traces.provenance(&point.workload) {
            Some(TraceProvenance::Unavailable { reason }) => reason.as_str(),
            _ => "the trace set does not cover it",
        };
        return Err(format!("no recording of {name}: {why}"));
    };
    let needed = trace_len(spec);
    if trace.len() < needed {
        return Err(format!(
            "the recording of {name} holds {} instructions; the {}+{} window needs {needed}",
            trace.len(),
            spec.warmup,
            spec.measure
        ));
    }
    if trace.seed() != spec.seed {
        return Err(format!(
            "the recording of {name} is of seed {}; the run uses seed {}",
            trace.seed(),
            spec.seed
        ));
    }
    Ok(trace)
}

/// The normalized outcome key used in events and metric labels (no
/// spaces or parentheses, unlike [`CellOutcome::label`]).
fn outcome_key(outcome: &CellOutcome) -> &'static str {
    match outcome {
        CellOutcome::Ok(_) => "ok",
        CellOutcome::Panicked { .. } => "panicked",
        CellOutcome::TraceError { .. } => "trace-error",
        CellOutcome::Skipped => "skipped",
    }
}

/// Emits the `cell_end` event (plus `resume_hit` for journal hits) and
/// updates the cumulative metrics for one dispatched cell.
fn emit_cell_events(t: &SweepTelemetry, i: usize, point: &SweepPoint, outcome: &CellOutcome) {
    let key = outcome_key(outcome);
    let mut fields = vec![
        ("cell".to_string(), Json::Num(i as f64)),
        ("point".to_string(), Json::str(point.to_string())),
        ("outcome".to_string(), Json::str(key)),
    ];
    let mut simulated_duration = None;
    let mut resumed = false;
    if let CellOutcome::Ok(s) = outcome {
        resumed = s.resumed;
        let phase = match (s.resumed, s.derived) {
            (true, _) => "resumed",
            (false, true) => "derived",
            (false, false) => "replay",
        };
        fields.push(("phase".to_string(), Json::str(phase)));
        fields.push((
            "dur_us".to_string(),
            Json::Num(s.duration.as_micros() as f64),
        ));
        if !s.resumed && !s.derived {
            simulated_duration = Some(s.duration);
        }
    } else if let Some(reason) = outcome.failure() {
        fields.push(("reason".to_string(), Json::str(reason)));
    }
    if resumed {
        // Its cell and point fields.
        t.event("resume_hit", fields[..2].to_vec());
    }
    t.event("cell_end", fields);
    t.cell_finished(key, simulated_duration, resumed);
}

/// Simulates one cell from `source` — the same run as
/// [`crate::harness::run_one`] / [`crate::harness::run_one_traced`] —
/// with the `probes` attached; also returns load back's verdict on the
/// run ([`arvi_sim::Machine::load_back_hoists`]).
fn simulate_cell<S: InstSource>(
    name: &'static str,
    source: S,
    point: &SweepPoint,
    spec: Spec,
    probes: ProbeSet,
) -> (Simulated, u64) {
    let params = SimParams::for_depth(point.depth);
    let (warmup, measure, config) = (spec.warmup, spec.measure, point.config);
    if probes == ProbeSet::Off {
        let (result, NullProbe, hoists) =
            simulate_source_verdict(name, source, params, config, warmup, measure, NullProbe);
        return ((result, None), hoists);
    }
    let sites = (CounterProbe::new(), SiteProbe::new());
    let (result, (counters, sites), tracer, hoists) = match probes {
        ProbeSet::Traced { window, pid } => {
            let mut tracer = ChromeTracer::new(window.0, window.1);
            tracer.pid = pid;
            let probe = (sites, tracer);
            let (result, (sites, tracer), hoists) =
                simulate_source_verdict(name, source, params, config, warmup, measure, probe);
            (result, sites, Some(tracer), hoists)
        }
        _ => {
            let (result, sites, hoists) =
                simulate_source_verdict(name, source, params, config, warmup, measure, sites);
            (result, sites, None, hoists)
        }
    };
    let probes = CellProbes {
        result: result.clone(),
        counters,
        sites,
        tracer,
    };
    ((result, Some(Box::new(probes))), hoists)
}

/// Renders a caught panic payload (the `&str`/`String` payloads `panic!`
/// produces; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => (*s).to_string(),
        (None, Some(s)) => s.clone(),
        (None, None) => "<non-string panic payload>".to_string(),
    }
}

/// A sweep that did not complete every cell: which cells failed and
/// why, rendered with how to finish the run.
#[derive(Debug, Clone)]
pub struct SweepIncomplete {
    /// Cells in the grid.
    pub total: usize,
    /// Failed/skipped cells: `(index, point, reason)`.
    pub failed: Vec<(usize, String, String)>,
    /// The journal the run appended its completed cells to, if any.
    pub journal: Option<PathBuf>,
}

impl std::fmt::Display for SweepIncomplete {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sweep incomplete: {} of {} cells did not finish:",
            self.failed.len(),
            self.total
        )?;
        for (i, point, reason) in &self.failed {
            writeln!(f, "  cell {i} ({point}): {reason}")?;
        }
        write!(f, "{}", rerun_hint(self.journal.as_deref()))
    }
}

impl std::error::Error for SweepIncomplete {}

/// How to finish an incomplete run that journaled its completed cells
/// to `journal` — or, when it journaled nothing (a bare `--resume` would
/// find nothing), how to make the next run resumable.
pub(crate) fn rerun_hint(journal: Option<&Path>) -> String {
    match journal {
        Some(p) => format!(
            "completed cells are journaled in {0}; \
             re-run with --journal {0} --resume to finish the rest",
            p.display()
        ),
        None => "nothing was journaled; re-run with --journal FILE \
                 to keep completed cells for a later --resume"
            .into(),
    }
}

/// The results of the cells `keep` selects, in grid order, or every
/// failed cell among them (with its index in the full sweep);
/// `outcomes` are a grid run's, one per point, and `journal` the
/// journal it appended to.
pub(crate) fn collect_where(
    points: &[SweepPoint],
    outcomes: &[CellOutcome],
    journal: Option<&Path>,
    keep: impl Fn(&SweepPoint) -> bool,
) -> Result<Vec<SimResult>, SweepIncomplete> {
    assert_eq!(points.len(), outcomes.len(), "one outcome per point");
    let mut results = Vec::new();
    let mut failed = Vec::new();
    let mut total = 0;
    for (i, (point, outcome)) in points.iter().zip(outcomes).enumerate() {
        if !keep(point) {
            continue;
        }
        total += 1;
        match outcome {
            CellOutcome::Ok(s) => results.push(s.result.clone()),
            other => failed.push((
                i,
                point.to_string(),
                other.failure().expect("non-ok outcome has a reason"),
            )),
        }
    }
    if failed.is_empty() {
        Ok(results)
    } else {
        Err(SweepIncomplete {
            total,
            failed,
            journal: journal.map(Path::to_path_buf),
        })
    }
}

/// One-line resume/failure summary of a resilient sweep, or `None`
/// when every cell ran the normal path (nothing worth reporting).
pub fn outcome_summary(outcomes: &[CellOutcome]) -> Option<String> {
    let mut resumed = 0usize;
    let mut failed = 0usize;
    for o in outcomes {
        match o {
            CellOutcome::Ok(s) => resumed += s.resumed as usize,
            _ => failed += 1,
        }
    }
    if resumed + failed == 0 {
        return None;
    }
    let mut parts = Vec::new();
    if resumed > 0 {
        parts.push(format!("{resumed} resumed from journal"));
    }
    if failed > 0 {
        parts.push(format!("{failed} failed"));
    }
    Some(format!("resilience: {}", parts.join(", ")))
}

/// End-of-grid timing report: the per-cell wall-clock times' sum (not
/// the sweep's wall-clock: cells overlap on parallel workers),
/// min/mean/max, the trace-recording phase (`record_elapsed`, from
/// [`TraceSet::record_elapsed`]), the load-back cells derived from their
/// twins, and a log2 duration histogram. Returns `None` when no cell ran
/// in this process (e.g. a fully resumed grid).
pub fn timing_summary(outcomes: &[CellOutcome], record_elapsed: Duration) -> Option<String> {
    let mut hist = arvi_obs::Log2Hist::new();
    let mut total = Duration::ZERO;
    let mut cells = 0usize;
    let mut resumed = 0usize;
    let mut derived = 0usize;
    let (mut min, mut max) = (Duration::MAX, Duration::ZERO);
    for o in outcomes {
        let Some(s) = o.success() else { continue };
        if s.resumed || s.derived {
            resumed += s.resumed as usize;
            derived += s.derived as usize;
            continue;
        }
        total += s.duration;
        cells += 1;
        hist.record(s.duration.as_millis() as u64);
        min = min.min(s.duration);
        max = max.max(s.duration);
    }
    if cells == 0 {
        return None;
    }
    let secs = |d: Duration| d.as_secs_f64();
    let mut out = format!(
        "sweep timing: {cells} cells replayed in {:.2}s summed cell time (record phase {:.2}s",
        secs(total),
        secs(record_elapsed),
    );
    if resumed > 0 {
        out.push_str(&format!(", {resumed} resumed not re-timed"));
    }
    if derived > 0 {
        out.push_str(&format!(
            ", {derived} load-back cells derived from their current-value twins"
        ));
    }
    out.push_str(&format!(
        "); per-cell min/mean/max {:.3}/{:.3}/{:.3}s\n",
        secs(min),
        secs(total) / cells as f64,
        secs(max),
    ));
    out.push_str("cell duration histogram (ms):");
    for (lo, n) in hist.nonzero_buckets() {
        out.push_str(&format!(" [{}]={n}", arvi_obs::Log2Hist::bucket_label(lo)));
    }
    Some(out)
}

pub use crate::sweep::TraceProvenance;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_one;
    use arvi_sim::Depth;
    use arvi_workloads::{Benchmark, WorkloadSource};

    fn point(b: Benchmark) -> SweepPoint {
        SweepPoint {
            workload: b.into(),
            depth: Depth::D20,
            config: PredictorConfig::ArviCurrent,
        }
    }

    fn tiny_spec() -> Spec {
        Spec {
            warmup: 500,
            measure: 1_500,
            seed: 3,
        }
    }

    #[test]
    fn fault_plan_parses_every_kind_and_rejects_garbage() {
        let plan = FaultPlan::parse(
            "# a comment\n\
             panic-cell 3   # trailing comment\n\
             kill-after 5\n\
             \n",
        )
        .unwrap();
        assert_eq!(plan.len(), 2);
        assert!(FaultPlan::parse("explode everything").is_err());
        // Trace read faults are gone: an unusable cached trace is simply
        // re-recorded.
        let err = FaultPlan::parse("flip li 100").unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
        assert!(FaultPlan::parse("panic-cell x").is_err());
        assert!(FaultPlan::parse("kill-after 5 extra").is_err());
    }

    #[test]
    fn default_policy_is_the_documented_graceful_one() {
        let d = Resilience::default();
        assert!(d.journal.is_none() && !d.resume);
        assert!(d.plan.is_none() && d.telemetry.is_none() && d.probes.is_none());
        assert_eq!(format!("{d:?}"), format!("{:?}", Resilience::new()));
    }

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::parse("panic-cell 2\nkill-after 3").unwrap();
        assert!(plan.take_panic(2));
        assert!(!plan.take_panic(2), "one-shot");
        assert!(!plan.take_panic(1));
        // kill-after is sticky, not consumed.
        assert!(!plan.kill_now(2));
        assert!(plan.kill_now(3));
        assert!(plan.kill_now(4));
    }

    #[test]
    fn cell_fingerprint_separates_every_axis() {
        let spec = tiny_spec();
        let base = point(Benchmark::Li);
        let fp = cell_fingerprint(&base, spec);
        assert_eq!(fp, cell_fingerprint(&base.clone(), spec), "stable");
        let mut other = base.clone();
        other.depth = Depth::D40;
        assert_ne!(fp, cell_fingerprint(&other, spec));
        let mut other = base.clone();
        other.config = PredictorConfig::TwoLevelGskew;
        assert_ne!(fp, cell_fingerprint(&other, spec));
        assert_ne!(fp, cell_fingerprint(&point(Benchmark::Go), spec));
        let mut spec2 = spec;
        spec2.measure += 1;
        assert_ne!(fp, cell_fingerprint(&base, spec2));
        let mut spec3 = spec;
        spec3.seed += 1;
        assert_ne!(fp, cell_fingerprint(&base, spec3));
    }

    /// A freshly simulated success of `p`, with counters and sites or
    /// unprobed.
    fn simulated(p: &SweepPoint, spec: Spec, probed: bool) -> CellSuccess {
        let program = p.workload.program(spec.seed);
        let name = intern_name(program.name());
        let emu = arvi_isa::Emulator::new(program);
        let probes = if probed {
            ProbeSet::Sites
        } else {
            ProbeSet::Off
        };
        let ((result, probes), _) = simulate_cell(name, emu, p, spec, probes);
        CellSuccess {
            result,
            resumed: false,
            derived: false,
            duration: Duration::from_micros(77),
            sampled_units: 0,
            probes,
        }
    }

    /// A fresh journal path, and its directory to clean up.
    fn temp_journal(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("arvi-{tag}-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("sweep.journal");
        (dir, path)
    }

    #[test]
    fn journal_round_trips_results_exactly() {
        let spec = tiny_spec();
        let p = point(Benchmark::Compress);
        let mut cell = simulated(&p, spec, false);
        cell.duration = Duration::from_micros(123_456);
        let (dir, path) = temp_journal("journal");
        let journal = SweepJournal::open_append(&path, spec).unwrap();
        journal.append(cell_fingerprint(&p, spec), &cell);
        drop(journal);
        let loaded = SweepJournal::load(&path);
        let got = loaded
            .get(&cell_fingerprint(&p, spec))
            .expect("entry present");
        assert_eq!(got.duration, Duration::from_micros(123_456));
        assert!(got.resumed && got.probes.is_none());
        assert_eq!(got.result, cell.result);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probed_entry_round_trips_through_one_line() {
        let spec = tiny_spec();
        let p = point(Benchmark::Li);
        let cell = simulated(&p, spec, true);
        let (dir, path) = temp_journal("probed-journal");
        SweepJournal::open_append(&path, spec)
            .unwrap()
            .append(cell_fingerprint(&p, spec), &cell);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1 + 1, "header + one line");
        let got = &SweepJournal::load(&path)[&cell_fingerprint(&p, spec)];
        assert_eq!(got.result, cell.result);
        assert!(got.probes.is_some());
        // The line re-renders byte for byte: counters and sites included.
        let line = |s: &CellSuccess| entry_json(s).render_compact();
        assert!(line(&cell).contains(",\"probes\":{\"counters\":"));
        assert_eq!(line(got), line(&cell), "fixpoint");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn last_line_wins_for_a_repeated_fingerprint() {
        let spec = tiny_spec();
        let p = point(Benchmark::Li);
        let fp = cell_fingerprint(&p, spec);
        let probed = simulated(&p, spec, true);
        let plain = simulated(&p, spec, false);
        let (dir, path) = temp_journal("last-wins");
        let journal = SweepJournal::open_append(&path, spec).unwrap();
        journal.append(fp, &plain);
        journal.append(fp, &probed);
        let loaded = SweepJournal::load(&path);
        assert_eq!(loaded.len(), 1);
        assert!(loaded[&fp].probes.is_some(), "the probed re-run supersedes");
        journal.append(fp, &plain);
        assert!(SweepJournal::load(&path)[&fp].probes.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_loader_skips_torn_lines() {
        let spec = tiny_spec();
        let (li, go) = (point(Benchmark::Li), point(Benchmark::Go));
        let (dir, path) = temp_journal("torn-probed");
        let journal = SweepJournal::open_append(&path, spec).unwrap();
        journal.append(cell_fingerprint(&li, spec), &simulated(&li, spec, false));
        let probed = simulated(&go, spec, true);
        journal.append(cell_fingerprint(&go, spec), &probed);
        drop(journal);
        // Simulate a crash mid-append: a torn, incomplete final line (the
        // probed cell again, cut off inside its site table).
        let mut text = std::fs::read_to_string(&path).unwrap();
        let last = text.lines().last().unwrap().to_string();
        let cut = last.find("\"table\"").expect("site table") + 12;
        text.push_str(&last[..cut]);
        std::fs::write(&path, text).unwrap();
        let loaded = SweepJournal::load(&path);
        assert_eq!(loaded.len(), 2, "both good lines kept, torn line dropped");
        assert!(loaded[&cell_fingerprint(&li, spec)].probes.is_none());
        let got = &loaded[&cell_fingerprint(&go, spec)];
        assert_eq!(got.result, probed.result);
        assert!(got.probes.is_some(), "the intact probed line still loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outcome_summary_counts_paths() {
        let spec = tiny_spec();
        let p = point(Benchmark::Li);
        let result = run_one(&p.workload, p.depth, p.config, spec);
        let ok = |resumed| {
            CellOutcome::Ok(CellSuccess {
                result: result.clone(),
                resumed,
                derived: false,
                duration: Duration::from_millis(40),
                sampled_units: 0,
                probes: None,
            })
        };
        assert_eq!(outcome_summary(&[ok(false)]), None);
        let summary = outcome_summary(&[
            ok(true),
            ok(false),
            CellOutcome::Panicked {
                message: "boom".into(),
            },
        ])
        .unwrap();
        assert!(summary.contains("1 resumed"));
        assert!(summary.contains("1 failed"));
    }

    #[test]
    fn timing_summary_breaks_down_phases() {
        let spec = tiny_spec();
        let p = point(Benchmark::Li);
        let result = run_one(&p.workload, p.depth, p.config, spec);
        let ok = |resumed, ms| {
            CellOutcome::Ok(CellSuccess {
                result: result.clone(),
                resumed,
                derived: false,
                duration: Duration::from_millis(ms),
                sampled_units: 0,
                probes: None,
            })
        };
        let derived = CellOutcome::Ok(CellSuccess {
            derived: true,
            ..ok(false, 1).success().unwrap().clone()
        });
        let record = Duration::from_millis(250);
        // Nothing ran in-process: resumed-only grids report no timing.
        assert_eq!(timing_summary(&[ok(true, 70)], record), None);
        let summary = timing_summary(
            &[
                ok(false, 100),
                ok(false, 300),
                ok(true, 70), // resumed: excluded
                derived,      // derived: excluded
                CellOutcome::Panicked {
                    message: "boom".into(),
                },
            ],
            record,
        )
        .unwrap();
        assert!(
            summary.contains("2 cells replayed in 0.40s summed"),
            "{summary}"
        );
        assert!(summary.contains("record phase 0.25s"), "{summary}");
        assert!(summary.contains("1 resumed not re-timed"), "{summary}");
        assert!(
            summary.contains("1 load-back cells derived from their current-value twins"),
            "{summary}"
        );
        assert!(
            summary.contains("min/mean/max 0.100/0.200/0.300s"),
            "{summary}"
        );
        // 100ms -> [64-127], 300ms -> [256-511].
        assert!(summary.contains("[64-127]=1"), "{summary}");
        assert!(summary.contains("[256-511]=1"), "{summary}");
    }

    #[test]
    fn journal_without_duration_field_still_loads() {
        // A line as journals without probes write it today; the same line
        // as older journals wrote it, with a `degraded` tag (`none`, or
        // `requarantined` for a cell that replayed a re-recorded trace);
        // and one from before duration tracking (no `dur_us`). All load
        // without probes, the last with a zero duration.
        let json = "{\"name\":\"li\",\"config\":1,\"depth\":20,\
                    \"dur_us\":5000,\"window\":{\"committed\":1500,\"cycles\":900,\
                    \"cond\":[200,250],\"l1\":[180,250],\"calc\":[100,120],\
                    \"load\":[100,130],\"overrides\":7,\"correcting\":5,\"bvit\":40,\
                    \"full_misp\":50,\"restarts\":2}}";
        let tagged =
            |tag: &str| json.replace("\"dur_us\"", &format!("\"degraded\":\"{tag}\",\"dur_us\""));
        let (none, requarantined) = (tagged("none"), tagged("requarantined"));
        let old = none.replace("\"dur_us\":5000,", "");
        let (dir, path) = temp_journal("olddur");
        std::fs::create_dir_all(&dir).unwrap();
        let header = "# arvi sweep journal v1 seed=3 warmup=500 measure=1500";
        std::fs::write(
            &path,
            format!(
                "{header}\n00000000000000aa {json}\n00000000000000bb {old}\n\
                 00000000000000cc {none}\n00000000000000dd {requarantined}\n"
            ),
        )
        .unwrap();
        let loaded = SweepJournal::load(&path);
        assert_eq!(loaded.len(), 4, "every line loads");
        let (today, older) = (&loaded[&0xaa], &loaded[&0xbb]);
        assert!(today.probes.is_none() && older.probes.is_none());
        assert_eq!(today.duration, Duration::from_millis(5));
        assert_eq!(older.duration, Duration::ZERO);
        for fp in [0xbb, 0xcc, 0xdd] {
            assert_eq!(loaded[&fp].result, today.result, "line {fp:x}");
        }
        assert_eq!(loaded[&0xdd].duration, today.duration);
        assert_eq!(today.result.window.committed, 1500);
        // A line written today carries no `degraded` field, whatever it
        // was read from.
        for fp in [0xaa, 0xdd] {
            let line = entry_json(&loaded[&fp]).render_compact();
            assert_eq!(line, json, "line {fp:x} re-renders byte-identically");
            assert!(!line.contains("degraded"), "{line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
