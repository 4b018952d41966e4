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
//!   unit fails only its own cell. Every caught panic is a
//!   [`CellOutcome::Panicked`]: replay does not panic on verified
//!   traces, so no panic is read as a trace failure.
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
//! * **Probes on or off per run** — under `--obs-grid`
//!   ([`Resilience::probes`]) every cell of an unsampled grid carries its
//!   counter and site probes out in [`CellSuccess::probes`], journaled
//!   on the cell's own line, so the rollup ([`crate::obs_grid`])
//!   re-simulates no cell. A sampled grid runs its units unprobed.
//! * **ARVI cells from their twins** — the three ARVI configurations
//!   are one machine under three value oracles, which disagree only on
//!   leaf values not yet written back ([`arvi_sim::oracle`]). Without a
//!   sample plan, whole-cell items go out gskew and current value
//!   first, perfect value second and load back last. A perfect-value
//!   cell's twin is the current-value cell of the same workload and
//!   depth; a load-back cell's twins are that cell and then the
//!   perfect-value one. A twin that simulated in this run publishes its
//!   result with its run's tally of not-ready leaves
//!   ([`arvi_sim::PendingLeaves`], warm-up included), while a cell it
//!   may serve is still to come. A cell takes the result of the first
//!   published twin whose tally gives zero queries its own oracle
//!   would have answered differently, relabelled: perfect value from a
//!   current-value run that never met a not-ready leaf, load back from
//!   a current-value run whose not-ready leaves all missed the hoist
//!   rule, or from a perfect-value run whose not-ready leaves all met
//!   it. That result is bit-identical to a simulated one, and so are
//!   the twin's counters and sites in a probed run. One twin may serve
//!   two cells. The cell is simulated as usual in every other case:
//!   every twin disagreed, failed, was resumed or is still running. No
//!   item waits on a twin, and the fault plan's panic fires before any
//!   derivation. A derived cell's `cell_end` says `"phase":"derived"`.
//! * **Deterministic fault injection** — a [`FaultPlan`] (parsed from
//!   `--fault-plan` text) panics chosen cells and simulates a mid-grid
//!   kill, both deterministically, so `tests/fault_injection.rs` and the
//!   CI fault job exercise those failure paths on demand.
//! * **One tally per run** — once the workers return, the outcomes are
//!   folded once into a [`RunTally`]: per-outcome counts, resumed and
//!   derived cells, the simulated cells' durations and the failed cells.
//!   The `resilience:` and `sweep timing:` stderr lines, `sweep_end`'s
//!   `completed`, the `--metrics-out` file and the rollup's accounting
//!   all render from it.
//! * **Telemetry** — with [`Resilience::telemetry`], one `cell_start`
//!   and one `cell_end` event per cell (not per unit), bracketed by
//!   `sweep_start`/`sweep_end`; the metrics file is written once, at
//!   sweep end, from the run's tally.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arvi_obs::{CounterProbe, NullProbe, SiteProbe};
use arvi_sampling::{run_unit, SamplePlan, SampleReport, SampleUnit};
use arvi_sim::{
    intern_name, simulate_source_tallied, InstSource, PendingLeaves, PredictorConfig, SimParams,
    SimResult,
};
use arvi_stats::Accuracy;
use arvi_trace::par::par_map_caught;
use arvi_trace::{Trace, TraceReplayer};

use crate::events::SweepTelemetry;
use crate::harness::Spec;
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
    /// Whether this ARVI result was taken from one of the cell's twins
    /// instead of simulated (see the module docs).
    pub derived: bool,
    /// Wall-clock time the cell took. For resumed cells this is the
    /// journaled duration of the original run (zero for entries written
    /// by journals that predate duration tracking).
    pub duration: Duration,
    /// The probes the cell ran with, when the run asked for them
    /// ([`Resilience::probes`]); counters and sites are restored from the
    /// cell's journal line for resumed cells.
    pub probes: Option<Box<CellProbes>>,
    /// The cell's sampled estimate when the run was sampled
    /// ([`crate::sampling`]), folded from its units.
    pub report: Option<Box<SampleReport>>,
}

/// The structured outcome of one grid cell of a
/// [`crate::harness::GridRun`]: no cell failure aborts the grid.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell produced a result.
    Ok(CellSuccess),
    /// The cell panicked (payload message attached).
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
    /// The cell could not read its instruction stream: its workload has
    /// no recording of the run's seed long enough for the window, or a
    /// sampling unit could not seek its recording.
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
    /// Whether every cell carries the counter and site probes
    /// (`--obs-grid`; a sampled grid ignores it). Probed results are
    /// bit-identical to unprobed ones; a resumed cell whose journal line
    /// lacks the probes is re-simulated to get them.
    pub probes: bool,
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
    /// the whole cell, or under a sample plan one of its units — and
    /// fails only that cell.
    PanicCell {
        /// Cell index into the sweep's point list.
        cell: u32,
    },
    /// Stop dispatching new work items once `cells` items have
    /// completed — a deterministic stand-in for kill -9 mid-sweep. Items
    /// are cells, except under a sample plan, where each sampling unit
    /// counts (a cell with unfinished items is skipped).
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
    h = fnv1a(h, &(point.config.index() as u64).to_le_bytes());
    h
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
        ("config", Json::Num(s.result.config.index() as f64)),
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
        Some(p) => Some(Box::new(probes_from_json(p)?)),
        None => None,
    };
    Some(CellSuccess {
        result,
        resumed: true,
        derived: false,
        duration,
        probes,
        report: None,
    })
}

/// Append-only journal of completed work items: a header comment naming
/// the spec, then one `<fingerprint-hex16> <compact-json>` line per whole
/// cell or sampling unit, appended (and flushed) as items finish. A line
/// carries the item's result counters and duration and, for a probed
/// cell ([`Resilience::probes`]), its counter and site probes as a last
/// `probes` field. Crash-tolerant on both ends: a torn final line from
/// an interrupted writer is skipped (with a warning) by the loader, and
/// everything before it still resumes. For a repeated fingerprint the
/// last line wins, so a cell
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
    /// `path`, each marked [`CellSuccess::resumed`]. A missing file is
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
/// contributes one item per sampling unit instead. Every item runs on the
/// one worker loop ([`par_map_caught`]) under the same isolation, fault
/// plan, journal and resume — a restored item is bit-identical to a
/// simulated one, it is the simulated one. A cell's `cell_start` event
/// goes out when its first item is dispatched, and its outcome is
/// folded — and its `cell_end` emitted — when its last item finishes.
/// Once the workers return, the outcomes are folded into the run's
/// [`RunTally`], which gives `sweep_end`'s `completed` and, with a
/// metrics path, the metrics file. Returns one outcome per point in grid
/// order, the tally, and the journal the run appended to, if any.
pub(crate) fn run_grid(
    points: &[SweepPoint],
    spec: Spec,
    threads: usize,
    progress: bool,
    traces: &TraceSet,
    res: &Resilience,
    sample: Option<&SamplePlan>,
) -> (Vec<CellOutcome>, RunTally, Option<PathBuf>) {
    let exec = Executor::new(points, spec, traces, res, sample);
    let mut items: Vec<WorkItem> = Vec::new();
    let mut spans = vec![(0..0, false); points.len()];
    // Cells that may take a twin's result go after their twins, load
    // back last, so the twins have had the longest time to publish.
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_key(|&i| {
        if exec.twins[i].is_empty() {
            0
        } else {
            dispatch_rank(points[i].config)
        }
    });
    for i in order {
        let first = items.len();
        let sampled = !exec.units.is_empty() && exec.recordings[i].is_ok();
        if sampled {
            items.extend((0..exec.units.len()).map(|j| (i, Some(j))));
        } else {
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
            let outcome = caught.unwrap_or_else(|payload| CellOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            });
            *slots[idx].lock().expect("item slot") = Some(outcome);
            let run = &cells[cell];
            if run.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut outcomes: Vec<CellOutcome> = slots[run.items.clone()]
                    .iter()
                    .map(|s| s.lock().expect("item slot").take().expect("item ran"))
                    .collect();
                let folded = if run.sampled {
                    fold_units(&points[cell], spec, outcomes)
                } else {
                    outcomes.pop().expect("one whole-cell item")
                };
                if let Some(t) = telemetry {
                    emit_cell_end(t, cell, &points[cell], &folded);
                }
                *run.folded.lock().expect("cell slot") = Some(folded);
            }
        },
    );
    let outcomes: Vec<CellOutcome> = cells
        .into_iter()
        .map(|run| {
            let folded = run.folded.into_inner().expect("cell slot");
            folded.unwrap_or(CellOutcome::Skipped)
        })
        .collect();
    let tally = RunTally::of(points, &outcomes);
    if let Some(t) = telemetry {
        t.event(
            "sweep_end",
            vec![
                ("cells".to_string(), Json::Num(outcomes.len() as f64)),
                ("completed".to_string(), Json::Num(tally.ok() as f64)),
                (
                    "dur_us".to_string(),
                    Json::Num(sweep_start.elapsed().as_micros() as f64),
                ),
            ],
        );
        t.write_metrics(&tally.prometheus(traces.record_elapsed()));
    }
    (outcomes, tally, exec.journal.map(|j| j.path))
}

/// One cell's progress through the work list: its items' range, whether
/// it samples (`false`: one whole-cell item), whether any item has been
/// dispatched, how many are still unfinished, and — once the last one
/// finishes — its folded outcome.
struct CellRun {
    items: std::ops::Range<usize>,
    sampled: bool,
    started: AtomicBool,
    pending: AtomicUsize,
    folded: Mutex<Option<CellOutcome>>,
}

/// Where an ARVI configuration's cells go in the dispatch order: current
/// value first, perfect value second, load back last.
fn dispatch_rank(config: PredictorConfig) -> u8 {
    match config {
        PredictorConfig::ArviPerfect => 1,
        PredictorConfig::ArviLoadBack => 2,
        _ => 0,
    }
}

/// Each ARVI cell's twins, current value first — the ARVI cells of the
/// same workload and depth that go out before it ([`dispatch_rank`]);
/// empty for every other cell.
fn twins(points: &[SweepPoint]) -> Vec<Vec<usize>> {
    points
        .iter()
        .map(|p| {
            if !p.config.is_arvi() {
                return Vec::new();
            }
            let mut twins: Vec<usize> = (0..points.len())
                .filter(|&j| {
                    let q = &points[j];
                    q.config.is_arvi()
                        && dispatch_rank(q.config) < dispatch_rank(p.config)
                        && q.depth == p.depth
                        && q.workload == p.workload
                })
                .collect();
            twins.sort_by_key(|&j| dispatch_rank(points[j].config));
            twins
        })
        .collect()
}

/// A twin's publication: how many cells it may serve have yet to look,
/// and, once it has simulated, its result and tally — while one of
/// those cells could take it.
#[derive(Default)]
struct TwinSlot {
    waiting: usize,
    published: Option<(Simulated, PendingLeaves)>,
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
    /// Whether every whole-cell item carries the counter and site probes
    /// (never under a sample plan: units run unprobed).
    probes: bool,
    /// Each ARVI cell's twins, whose result it may take ([`twins`]).
    twins: Vec<Vec<usize>>,
    /// Each cell's publication as a twin.
    slots: Vec<Mutex<TwinSlot>>,
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
        let twins = match sample {
            Some(_) => vec![Vec::new(); points.len()],
            None => twins(points),
        };
        let slots: Vec<Mutex<TwinSlot>> = points.iter().map(|_| Mutex::default()).collect();
        for &twin in twins.iter().flatten() {
            slots[twin].lock().expect("twin slot").waiting += 1;
        }
        Executor {
            points,
            spec,
            res,
            sample,
            recordings: points.iter().map(|p| recording(traces, p, spec)).collect(),
            units,
            probes: res.probes && sample.is_none(),
            twins,
            slots,
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
    /// restores it from the journal, or takes an ARVI cell's result from
    /// a twin, or runs it: the fault plan's panic for the cell
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
        if let Some(prior) = self.prior.get(&fp) {
            // A cell journaled without the probes a probed run needs
            // re-runs.
            if !self.probes || prior.probes.is_some() {
                return CellOutcome::Ok(CellSuccess {
                    result: prior.result.clone(),
                    resumed: true,
                    derived: false,
                    duration: prior.duration,
                    probes: prior.probes.clone().filter(|_| self.probes),
                    report: None,
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
                None => self.simulate_whole(cell, trace),
            }),
        };
        match ran {
            Err(message) => CellOutcome::TraceError { message },
            Ok((result, probes)) => CellOutcome::Ok(CellSuccess {
                result,
                resumed: false,
                derived,
                duration: start.elapsed(),
                probes,
                report: None,
            }),
        }
    }

    /// A whole cell over its recording. A twin publishes its result and
    /// tally when a cell it may serve is still to come and could take it.
    fn simulate_whole(&self, cell: usize, trace: &Arc<Trace>) -> Simulated {
        let replayer = TraceReplayer::new(Arc::clone(trace));
        let name = intern_name(trace.name());
        let point = &self.points[cell];
        let (simulated, pending) = simulate_cell(name, replayer, point, self.spec, self.probes);
        let mut slot = self.slots[cell].lock().expect("twin slot");
        let serves = |i: usize| {
            self.twins[i].contains(&cell)
                && pending.differing(point.config, self.points[i].config) == Some(0)
        };
        if slot.waiting > 0 && (0..self.points.len()).any(serves) {
            slot.published = Some((simulated.clone(), pending));
        }
        simulated
    }

    /// `cell`'s result taken from the first of its twins that has
    /// published a result its configuration's oracle would have
    /// reproduced, relabelled with the cell's configuration; `None` when
    /// no twin has (yet). A twin's slot empties once every cell it may
    /// serve has looked.
    fn derive(&self, cell: usize) -> Option<Simulated> {
        let config = self.points[cell].config;
        let mut derived = None;
        for &twin in &self.twins[cell] {
            let mut slot = self.slots[twin].lock().expect("twin slot");
            slot.waiting -= 1;
            let fits = slot.published.as_ref().is_some_and(|(_, pending)| {
                pending.differing(self.points[twin].config, config) == Some(0)
            });
            if fits && derived.is_none() {
                derived = match slot.waiting {
                    0 => slot.published.take(),
                    _ => slot.published.clone(),
                };
            }
            if slot.waiting == 0 {
                slot.published = None;
            }
        }
        let ((mut result, probes), _) = derived?;
        result.config = config;
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

/// The normalized outcome keys of events and metric labels, in the
/// order of [`RunTally::outcomes`] (no spaces or parentheses, unlike
/// [`CellOutcome::failure`]).
const OUTCOME_KEYS: [&str; 4] = ["ok", "panicked", "trace-error", "skipped"];

/// `outcome`'s position in [`OUTCOME_KEYS`].
fn outcome_slot(outcome: &CellOutcome) -> usize {
    match outcome {
        CellOutcome::Ok(_) => 0,
        CellOutcome::Panicked { .. } => 1,
        CellOutcome::TraceError { .. } => 2,
        CellOutcome::Skipped => 3,
    }
}

/// Emits the `cell_end` event of one dispatched cell.
fn emit_cell_end(t: &SweepTelemetry, i: usize, point: &SweepPoint, outcome: &CellOutcome) {
    let mut fields = vec![
        ("cell".to_string(), Json::Num(i as f64)),
        ("point".to_string(), Json::str(point.to_string())),
        (
            "outcome".to_string(),
            Json::str(OUTCOME_KEYS[outcome_slot(outcome)]),
        ),
    ];
    if let CellOutcome::Ok(s) = outcome {
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
    } else if let Some(reason) = outcome.failure() {
        fields.push(("reason".to_string(), Json::str(reason)));
    }
    t.event("cell_end", fields);
}

/// Simulates one cell from `source` — the same run as
/// [`crate::harness::run_one`] / [`crate::harness::run_one_traced`] —
/// with the counter and site probes attached when `probed`; also
/// returns the run's tally of not-ready leaves
/// ([`arvi_sim::Machine::pending_leaves`]).
fn simulate_cell<S: InstSource>(
    name: &'static str,
    source: S,
    point: &SweepPoint,
    spec: Spec,
    probed: bool,
) -> (Simulated, PendingLeaves) {
    let params = SimParams::for_depth(point.depth);
    let (warmup, measure, config) = (spec.warmup, spec.measure, point.config);
    if !probed {
        let (result, NullProbe, pending) =
            simulate_source_tallied(name, source, params, config, warmup, measure, NullProbe);
        return ((result, None), pending);
    }
    let probe = (CounterProbe::new(), SiteProbe::new());
    let (result, (counters, sites), pending) =
        simulate_source_tallied(name, source, params, config, warmup, measure, probe);
    (
        (result, Some(Box::new(CellProbes { counters, sites }))),
        pending,
    )
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

/// The wall-clock times of a run's simulated cells: their count, sum
/// (not the sweep's wall-clock: cells overlap on parallel workers),
/// shortest (zero when none was timed), longest and a log2 histogram in
/// milliseconds.
#[derive(Debug, Clone, Default)]
pub struct CellTimes {
    pub count: usize,
    pub sum: Duration,
    pub min: Duration,
    pub max: Duration,
    pub hist: arvi_obs::Log2Hist,
}

impl CellTimes {
    fn record(&mut self, d: Duration) {
        self.min = if self.count == 0 { d } else { self.min.min(d) };
        self.max = self.max.max(d);
        self.count += 1;
        self.sum += d;
        self.hist.record(d.as_millis() as u64);
    }
}

/// How a grid run's cells were obtained, folded once from its outcomes
/// ([`RunTally::of`]) after the workers return. Everything the run
/// reports about itself renders from it: the `resilience:` and `sweep
/// timing:` stderr lines, `sweep_end`'s `completed`, the `--metrics-out`
/// file and the rollup's `completed`, `resumed` and `failed`.
#[derive(Debug, Clone, Default)]
pub struct RunTally {
    /// Cells per outcome: `ok`, `panicked`, `trace-error`, `skipped`.
    pub outcomes: [usize; 4],
    /// Completed cells restored from the journal.
    pub resumed: usize,
    /// ARVI cells taken from a twin, per configuration
    /// ([`PredictorConfig::index`]).
    pub derived: [usize; 4],
    /// The cells simulated in this run (neither resumed nor derived).
    pub simulated: CellTimes,
    /// Failed and skipped cells: `(index, point, reason)`.
    pub failed: Vec<(usize, String, String)>,
}

impl RunTally {
    /// Folds `outcomes`, one per point of `points`.
    pub fn of(points: &[SweepPoint], outcomes: &[CellOutcome]) -> RunTally {
        assert_eq!(points.len(), outcomes.len(), "one outcome per point");
        let mut tally = RunTally::default();
        for (i, (point, outcome)) in points.iter().zip(outcomes).enumerate() {
            tally.outcomes[outcome_slot(outcome)] += 1;
            match outcome {
                CellOutcome::Ok(s) if s.derived => tally.derived[s.result.config.index()] += 1,
                CellOutcome::Ok(s) if s.resumed => tally.resumed += 1,
                CellOutcome::Ok(s) => tally.simulated.record(s.duration),
                other => tally.failed.push((
                    i,
                    point.to_string(),
                    other.failure().expect("non-ok outcome has a reason"),
                )),
            }
        }
        tally
    }

    /// Cells that completed.
    pub fn ok(&self) -> usize {
        self.outcomes[0]
    }

    /// The one-line resume/failure summary, or `None` when every cell ran
    /// the normal path (nothing worth reporting).
    pub fn outcome_summary(&self) -> Option<String> {
        let mut parts = Vec::new();
        if self.resumed > 0 {
            parts.push(format!("{} resumed from journal", self.resumed));
        }
        if !self.failed.is_empty() {
            parts.push(format!("{} failed", self.failed.len()));
        }
        (!parts.is_empty()).then(|| format!("resilience: {}", parts.join(", ")))
    }

    /// The end-of-grid timing report: the simulated cells' summed time
    /// and min/mean/max, the trace-recording phase (`record_elapsed`,
    /// from [`TraceSet::record_elapsed`]), the ARVI cells derived from
    /// their twins by configuration, and the duration histogram. `None`
    /// when no cell ran in this process (e.g. a fully resumed grid).
    pub fn timing_summary(&self, record_elapsed: Duration) -> Option<String> {
        let t = &self.simulated;
        if t.count == 0 {
            return None;
        }
        let secs = |d: Duration| d.as_secs_f64();
        let mut out = format!(
            "sweep timing: {} cells replayed in {:.2}s summed cell time (record phase {:.2}s",
            t.count,
            secs(t.sum),
            secs(record_elapsed),
        );
        if self.resumed > 0 {
            out.push_str(&format!(", {} resumed not re-timed", self.resumed));
        }
        let load_back = self.derived[PredictorConfig::ArviLoadBack.index()];
        let perfect = self.derived[PredictorConfig::ArviPerfect.index()];
        if load_back + perfect > 0 {
            out.push_str(&format!(
                ", {} ARVI cells derived from their twins ({load_back} load back, {perfect} perfect value)",
                load_back + perfect
            ));
        }
        out.push_str(&format!(
            "); per-cell min/mean/max {:.3}/{:.3}/{:.3}s\n",
            secs(t.min),
            secs(t.sum) / t.count as f64,
            secs(t.max),
        ));
        out.push_str("cell duration histogram (ms):");
        for (lo, n) in t.hist.nonzero_buckets() {
            out.push_str(&format!(" [{}]={n}", arvi_obs::Log2Hist::bucket_label(lo)));
        }
        Some(out)
    }

    /// The `--metrics-out` file: this run's counters in Prometheus text
    /// exposition format, outcome rows in a fixed order and only those
    /// that occurred, with the record phase's `record_elapsed`.
    pub fn prometheus(&self, record_elapsed: Duration) -> String {
        let cells: String = OUTCOME_KEYS
            .iter()
            .zip(self.outcomes)
            .filter(|&(_, n)| n > 0)
            .map(|(key, n)| format!("arvi_sweep_cells_total{{outcome=\"{key}\"}} {n}\n"))
            .collect();
        format!(
            "# HELP arvi_sweeps_total Sweeps completed by this process.\n\
             # TYPE arvi_sweeps_total counter\n\
             arvi_sweeps_total 1\n\
             # HELP arvi_sweep_cells_total Grid cells by outcome.\n\
             # TYPE arvi_sweep_cells_total counter\n\
             {cells}\
             # HELP arvi_sweep_cell_duration_seconds Simulated-cell wall time.\n\
             # TYPE arvi_sweep_cell_duration_seconds summary\n\
             arvi_sweep_cell_duration_seconds_sum {:.6}\n\
             arvi_sweep_cell_duration_seconds_count {}\n\
             # HELP arvi_sweep_resumed_cells_total Cells satisfied from a journal.\n\
             # TYPE arvi_sweep_resumed_cells_total counter\n\
             arvi_sweep_resumed_cells_total {}\n\
             # HELP arvi_record_phase_seconds_total Trace-record wall time.\n\
             # TYPE arvi_record_phase_seconds_total counter\n\
             arvi_record_phase_seconds_total {:.6}\n",
            self.simulated.sum.as_secs_f64(),
            self.simulated.count,
            self.resumed,
            record_elapsed.as_secs_f64(),
        )
    }
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
        assert!(d.plan.is_none() && d.telemetry.is_none() && !d.probes);
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
        let ((result, probes), _) = simulate_cell(name, emu, p, spec, probed);
        CellSuccess {
            result,
            resumed: false,
            derived: false,
            duration: Duration::from_micros(77),
            probes,
            report: None,
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

    /// A completed cell of `result`, resumed or not, that took `ms`.
    fn ok(result: &SimResult, resumed: bool, ms: u64) -> CellOutcome {
        CellOutcome::Ok(CellSuccess {
            result: result.clone(),
            resumed,
            derived: false,
            duration: Duration::from_millis(ms),
            probes: None,
            report: None,
        })
    }

    /// The tally of `outcomes`, each over the li point.
    fn tally(outcomes: &[CellOutcome]) -> RunTally {
        RunTally::of(&vec![point(Benchmark::Li); outcomes.len()], outcomes)
    }

    fn li_result() -> SimResult {
        let p = point(Benchmark::Li);
        run_one(&p.workload, p.depth, p.config, tiny_spec())
    }

    #[test]
    fn outcome_summary_counts_paths() {
        let result = li_result();
        assert_eq!(tally(&[ok(&result, false, 40)]).outcome_summary(), None);
        let summary = tally(&[
            ok(&result, true, 40),
            ok(&result, false, 40),
            CellOutcome::Panicked {
                message: "boom".into(),
            },
        ])
        .outcome_summary()
        .unwrap();
        assert!(summary.contains("1 resumed"));
        assert!(summary.contains("1 failed"));
    }

    #[test]
    fn timing_summary_breaks_down_phases() {
        let result = li_result();
        let derived = |config| {
            let mut s = ok(&result, false, 1).success().unwrap().clone();
            s.derived = true;
            s.result.config = config;
            CellOutcome::Ok(s)
        };
        let record = Duration::from_millis(250);
        // Nothing ran in-process: resumed-only grids report no timing.
        assert_eq!(tally(&[ok(&result, true, 70)]).timing_summary(record), None);
        let summary = tally(&[
            ok(&result, false, 100),
            ok(&result, false, 300),
            ok(&result, true, 70), // resumed: excluded
            // derived: excluded
            derived(PredictorConfig::ArviLoadBack),
            derived(PredictorConfig::ArviLoadBack),
            derived(PredictorConfig::ArviPerfect),
            CellOutcome::Panicked {
                message: "boom".into(),
            },
        ])
        .timing_summary(record)
        .unwrap();
        assert!(
            summary.contains("2 cells replayed in 0.40s summed"),
            "{summary}"
        );
        assert!(summary.contains("record phase 0.25s"), "{summary}");
        assert!(summary.contains("1 resumed not re-timed"), "{summary}");
        assert!(
            summary
                .contains("3 ARVI cells derived from their twins (2 load back, 1 perfect value)"),
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
    fn prometheus_export_accumulates() {
        let result = li_result();
        let text = tally(&[
            CellOutcome::Skipped,
            ok(&result, false, 10),
            CellOutcome::Panicked {
                message: "boom".into(),
            },
            ok(&result, true, 20),
            ok(&result, false, 20),
        ])
        .prometheus(Duration::from_millis(5));
        assert!(text.contains("arvi_sweeps_total 1"), "{text}");
        // Outcome rows in the fixed order, whatever order the cells came
        // in; outcomes that did not occur have no row.
        assert!(
            text.contains(
                "arvi_sweep_cells_total{outcome=\"ok\"} 3\n\
                 arvi_sweep_cells_total{outcome=\"panicked\"} 1\n\
                 arvi_sweep_cells_total{outcome=\"skipped\"} 1\n"
            ),
            "{text}"
        );
        assert!(!text.contains("trace-error"), "{text}");
        assert!(
            text.contains("arvi_sweep_cell_duration_seconds_sum 0.030000"),
            "{text}"
        );
        assert!(
            text.contains("arvi_sweep_cell_duration_seconds_count 2"),
            "{text}"
        );
        assert!(text.contains("arvi_sweep_resumed_cells_total 1"), "{text}");
        assert!(
            text.contains("arvi_record_phase_seconds_total 0.005000"),
            "{text}"
        );
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
