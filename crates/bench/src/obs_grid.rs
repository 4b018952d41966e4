//! Observability: probe every cell of a sweep and fold the probes into
//! one rollup, the only surface for counters and site tables.
//!
//! The figure sweeps run unprobed (the [`NullProbe`] machine —
//! bit-identical and perf-guarded) unless `--obs-grid FILE` is given
//! ([`obs_from_args`], which turns [`crate::Resilience::probes`] on).
//! Then the grid executor attaches the counter+site probes to every cell
//! (and journals them on the cell's sweep-journal line), so each
//! `(workload, depth, config)` cell is simulated once per invocation.
//! `--obs-grid` does not combine with `--sample`: sampling units run
//! unprobed. [`ObsGrid::from_outcomes`] then folds the probed outcomes
//! of a [`GridRun`] into one `obs_grid.json` rollup ([`obs_grid_json`]):
//! one group per cell, in point order, plus the grid-wide merge.
//!
//! `--trace-cycles START:END` adds a post-pass ([`maybe_obs_grid`]): each
//! completed [`anchor`] cell replays its recording again up to cycle END
//! with a [`ChromeTracer`] over the window, written beside the rollup.
//!
//! Journaled and rolled-up probes need full-fidelity serialization:
//! [`counters_to_json`]/[`counters_from_json`] and
//! [`sites_to_json`]/[`sites_from_json`] round-trip exactly, which is
//! what makes a resumed grid byte-identical to an uninterrupted one.
//! Site tables render sorted by PC and cells fold in point order, so
//! the rollup is also byte-identical across worker counts.
//!
//! Two readers filter the rollup, both consumed by the `obs_report`
//! binary: [`cell_view`] rebuilds one workload's anchor cell (ARVI
//! current value at the rollup's shallowest depth) as counter markdown
//! and a top-N site table, and [`attribution_diff`] diffs the site
//! tables per `(workload, depth)`: the branch PCs the ARVI configuration
//! *fixes* and *breaks* versus the best baseline config — the
//! falsifiable "where does ARVI win" table.
//!
//! [`NullProbe`]: arvi_obs::NullProbe

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use arvi_obs::counters::ISSUE_BUCKETS;
use arvi_obs::{ChromeTracer, CounterProbe, Log2Hist, SiteProbe, SiteStats};
use arvi_sim::{Depth, Machine, PredictorConfig, SimParams};
use arvi_trace::par::par_map;

use crate::events::SweepTelemetry;
use crate::harness::{GridRun, Spec};
use crate::report::{write_text, Json};
use crate::resilience::{CellOutcome, RunTally};
use crate::sweep::{SweepPoint, TraceSet};

/// Rows in the rollup's `top` site tables.
const TOP_SITES: usize = 10;

/// The parsed observability flags: where the rollup goes, and the traced
/// cycle window, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// `--obs-grid PATH`: probe every cell of the sweep and write the
    /// rollup here.
    pub grid: PathBuf,
    /// `--trace-cycles START:END`: trace the anchor cells over this
    /// cycle window and write the Chrome trace beside the rollup.
    pub trace: Option<(u64, u64)>,
}

impl ObsConfig {
    /// Where the Chrome trace goes under `--trace-cycles`: the rollup's
    /// path with its extension replaced by `trace.json`.
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.trace.map(|_| self.grid.with_extension("trace.json"))
    }
}

/// Parses the observability flags out of `args`:
///
/// * `--obs-grid PATH` — run counter+site probes over every cell of the
///   sweep and write the `obs_grid.json` rollup to `PATH`.
/// * `--trace-cycles START:END` — also trace the grid's [`anchor`]
///   cells over that cycle window and write the Chrome trace to
///   `<PATH minus extension>.trace.json`; needs `--obs-grid`.
///
/// Returns `Ok(None)` when neither flag is present.
pub fn obs_from_args(args: &[String]) -> Result<Option<ObsConfig>, String> {
    let grid = crate::flag_value(args, "--obs-grid")?;
    let window = |win: &str| {
        let (start, end) = win.split_once(':')?;
        let (start, end): (u64, u64) = (start.parse().ok()?, end.parse().ok()?);
        (start < end).then_some((start, end))
    };
    let trace = match crate::flag_value(args, "--trace-cycles")? {
        Some(win) => Some(window(win).ok_or_else(|| {
            format!("--trace-cycles: expected START:END with START < END, got `{win}`")
        })?),
        None => None,
    };
    match grid {
        Some(grid) => Ok(Some(ObsConfig {
            grid: PathBuf::from(grid),
            trace,
        })),
        None if trace.is_some() => {
            Err("--trace-cycles needs --obs-grid (the trace is written beside the rollup)".into())
        }
        None => Ok(None),
    }
}

/// The anchor of a grid: its shallowest depth, and the ARVI
/// current-value cells at that depth — one per workload, in point
/// order. Figure 5(b)'s 20-stage ARVI current-value cell for `fig5`,
/// `experiments` and `synth_report`; `fig6`'s headline cell at its one
/// depth. `None` for an empty grid.
pub fn anchor(points: &[SweepPoint]) -> Option<(Depth, Vec<usize>)> {
    let depth = points.iter().map(|p| p.depth).min_by_key(|d| d.stages())?;
    let cells = (0..points.len())
        .filter(|&i| points[i].depth == depth && points[i].config == PredictorConfig::ArviCurrent)
        .collect();
    Some((depth, cells))
}

/// The probes collected from one grid cell: what a probed cell
/// ([`crate::Resilience::probes`]) carries out of the run in
/// [`crate::resilience::CellSuccess::probes`]. The cell's sweep-journal
/// line stores them in its `probes` field.
#[derive(Debug, Clone)]
pub struct CellProbes {
    /// Counter/histogram telemetry.
    pub counters: CounterProbe,
    /// Per-branch-site attribution.
    pub sites: SiteProbe,
}

/// The telemetry of one grid cell in the rollup.
#[derive(Debug)]
pub struct ObsGroup {
    /// The workload's name.
    pub workload: String,
    /// The pipeline depth.
    pub depth: Depth,
    /// The predictor configuration.
    pub config: PredictorConfig,
    /// Counter/histogram telemetry.
    pub counters: CounterProbe,
    /// Per-branch-site attribution.
    pub sites: SiteProbe,
}

/// The grid rollup ([`ObsGrid::from_outcomes`]): one group per probed
/// cell, the grid-wide merge and the run's per-cell accounting.
#[derive(Debug)]
pub struct ObsGrid {
    /// The window every cell ran under.
    pub spec: Spec,
    /// Cells in the grid.
    pub total: usize,
    /// Cells that produced telemetry (simulated or restored).
    pub completed: usize,
    /// Cells whose probes were restored from the sweep journal instead
    /// of re-simulated.
    pub resumed: usize,
    /// Failed/skipped cells: `(index, point, reason)`.
    pub failed: Vec<(usize, String, String)>,
    /// One group per completed cell, in point order.
    pub groups: Vec<ObsGroup>,
    /// Counters summed over the whole grid.
    pub counters: CounterProbe,
    /// Site tables unioned over the whole grid.
    pub sites: SiteProbe,
}

/// A journal line's `probes` field: both probes, full fidelity.
pub(crate) fn probes_to_json(probes: &CellProbes) -> Json {
    Json::obj([
        ("counters", counters_to_json(&probes.counters)),
        ("sites", sites_to_json(&probes.sites)),
    ])
}

/// Inverse of [`probes_to_json`]; `None` on any malformed field.
pub(crate) fn probes_from_json(entry: &Json) -> Option<CellProbes> {
    Some(CellProbes {
        counters: counters_from_json(entry.get("counters")?)?,
        sites: sites_from_json(entry.get("sites")?)?,
    })
}

impl ObsGrid {
    /// Folds a probed sweep's outcomes (one per point, from a
    /// [`GridRun`] under `--obs-grid`) into the rollup, in point order so
    /// the result is independent of which worker finished which cell
    /// first; the accounting (`completed`, `resumed`, `failed`) is the
    /// run's `tally`. With `telemetry`, each dispatched cell emits a
    /// `cell_end` event tagged `"pass":"obs"` as its probes are folded
    /// (`ok`, `ok-resumed` or `failed`), then one `obs_grid_end` whose
    /// `dur_us` spans the fold alone — the simulation is already in the
    /// sweep's own span.
    ///
    /// # Panics
    ///
    /// Panics if a completed cell carries no probes: the run was not
    /// probed.
    pub fn from_outcomes(
        points: &[SweepPoint],
        spec: Spec,
        outcomes: Vec<CellOutcome>,
        tally: &RunTally,
        telemetry: Option<&SweepTelemetry>,
    ) -> ObsGrid {
        let started = Instant::now();
        assert_eq!(points.len(), outcomes.len(), "one outcome per point");
        let mut grid = ObsGrid {
            spec,
            total: points.len(),
            completed: tally.ok(),
            resumed: tally.resumed,
            failed: tally.failed.clone(),
            groups: Vec::new(),
            counters: CounterProbe::new(),
            sites: SiteProbe::new(),
        };
        for (i, (point, outcome)) in points.iter().zip(outcomes).enumerate() {
            let tag = match outcome {
                CellOutcome::Ok(s) => {
                    let probes = s.probes.expect("a probed run's cells carry their probes");
                    grid.counters.merge(&probes.counters);
                    grid.sites.merge(&probes.sites);
                    // Moved, not copied: a grid's site tables are most of
                    // its memory.
                    grid.groups.push(ObsGroup {
                        workload: point.workload.name().to_string(),
                        depth: point.depth,
                        config: point.config,
                        counters: probes.counters,
                        sites: probes.sites,
                    });
                    if s.resumed {
                        "ok-resumed"
                    } else {
                        "ok"
                    }
                }
                // Cells a kill stopped before dispatch were never probed.
                CellOutcome::Skipped => continue,
                _ => "failed",
            };
            if let Some(t) = telemetry {
                t.event(
                    "cell_end",
                    vec![
                        ("pass".to_string(), Json::str("obs")),
                        ("cell".to_string(), Json::Num(i as f64)),
                        ("point".to_string(), Json::str(point.to_string())),
                        ("outcome".to_string(), Json::str(tag)),
                    ],
                );
            }
        }
        if let Some(t) = telemetry {
            t.event(
                "obs_grid_end",
                vec![
                    ("cells".to_string(), Json::Num(grid.total as f64)),
                    ("completed".to_string(), Json::Num(grid.completed as f64)),
                    (
                        "dur_us".to_string(),
                        Json::Num(started.elapsed().as_micros() as f64),
                    ),
                ],
            );
        }
        grid
    }
}

fn n(v: u64) -> Json {
    Json::Num(v as f64)
}

fn u(j: &Json, path: &str) -> Option<u64> {
    j.num(path).filter(|v| *v >= 0.0).map(|v| v as u64)
}

fn hist_to_json(h: &Log2Hist) -> Json {
    Json::obj([
        ("sum", n(h.sum())),
        ("max", n(h.max())),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .map(|(lo, count)| Json::Arr(vec![n(lo), n(count)]))
                    .collect(),
            ),
        ),
    ])
}

fn hist_from_json(j: &Json) -> Option<Log2Hist> {
    let sum = u(j, "sum")?;
    let max = u(j, "max")?;
    let Some(Json::Arr(rows)) = j.get("buckets") else {
        return None;
    };
    let mut buckets = Vec::with_capacity(rows.len());
    for row in rows {
        let Json::Arr(pair) = row else { return None };
        match (pair.first(), pair.get(1)) {
            (Some(Json::Num(lo)), Some(Json::Num(count))) => {
                buckets.push((*lo as u64, *count as u64));
            }
            _ => return None,
        }
    }
    Some(Log2Hist::from_parts(buckets, sum, max))
}

/// Full-fidelity [`CounterProbe`] serialization: every scalar counter,
/// the raw issue state, each histogram's exact parts, and the cache
/// snapshot — invertible via [`counters_from_json`].
pub fn counters_to_json(c: &CounterProbe) -> Json {
    let (issue_counts, issue_cycles, issue_width) = c.issue_state();
    Json::obj([
        ("cycles", n(c.cycles)),
        ("fetched", n(c.fetched)),
        ("committed", n(c.committed)),
        ("writebacks", n(c.writebacks)),
        ("branches", n(c.branches)),
        ("mispredicts", n(c.mispredicts)),
        (
            "issue",
            Json::obj([
                (
                    "counts",
                    Json::Arr(issue_counts.iter().map(|&v| n(v)).collect()),
                ),
                ("cycles", n(issue_cycles)),
                ("width", n(issue_width as u64)),
            ]),
        ),
        (
            "hist",
            Json::Obj(
                c.histograms()
                    .into_iter()
                    .map(|(name, h)| (name.to_string(), hist_to_json(h)))
                    .collect(),
            ),
        ),
        (
            "cache",
            Json::Obj(
                c.cache
                    .rows()
                    .into_iter()
                    .map(|(name, hits, misses)| {
                        (name.to_string(), Json::Arr(vec![n(hits), n(misses)]))
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`counters_to_json`]; `None` on any malformed field.
pub fn counters_from_json(j: &Json) -> Option<CounterProbe> {
    let mut c = CounterProbe::new();
    c.cycles = u(j, "cycles")?;
    c.fetched = u(j, "fetched")?;
    c.committed = u(j, "committed")?;
    c.writebacks = u(j, "writebacks")?;
    c.branches = u(j, "branches")?;
    c.mispredicts = u(j, "mispredicts")?;
    let Some(Json::Arr(items)) = j.get("issue.counts") else {
        return None;
    };
    if items.len() != ISSUE_BUCKETS {
        return None;
    }
    let mut counts = [0u64; ISSUE_BUCKETS];
    for (slot, item) in counts.iter_mut().zip(items) {
        match item {
            Json::Num(v) => *slot = *v as u64,
            _ => return None,
        }
    }
    c.restore_issue_state(counts, u(j, "issue.cycles")?, u(j, "issue.width")? as u32);
    for (name, h) in c.histograms_mut() {
        *h = hist_from_json(j.get("hist")?.get(name)?)?;
    }
    let pair = |key: &str| -> Option<(u64, u64)> {
        match j.get("cache")?.get(key)? {
            Json::Arr(v) if v.len() == 2 => match (&v[0], &v[1]) {
                (Json::Num(a), Json::Num(b)) => Some((*a as u64, *b as u64)),
                _ => None,
            },
            _ => None,
        }
    };
    c.cache.l1i = pair("l1i")?;
    c.cache.l1d = pair("l1d")?;
    c.cache.l2 = pair("l2")?;
    c.cache.itlb = pair("itlb")?;
    c.cache.dtlb = pair("dtlb")?;
    Some(c)
}

/// Full-fidelity [`SiteProbe`] serialization: the whole table, one
/// `[pc, total, final_correct, l1_correct, overrides,
/// overrides_correcting, confident, confident_wrong, bvit_hits,
/// load_class]` row per site, sorted by PC — canonical regardless of
/// the probe's internal slot layout.
pub fn sites_to_json(s: &SiteProbe) -> Json {
    let mut rows: Vec<&SiteStats> = s.iter().collect();
    rows.sort_by_key(|r| r.pc);
    Json::obj([
        ("sites", n(s.sites as u64)),
        ("dropped", n(s.dropped)),
        (
            "table",
            Json::Arr(
                rows.into_iter()
                    .map(|r| {
                        Json::Arr(vec![
                            n(r.pc),
                            n(r.total),
                            n(r.final_correct),
                            n(r.l1_correct),
                            n(r.overrides),
                            n(r.overrides_correcting),
                            n(r.confident),
                            n(r.confident_wrong),
                            n(r.bvit_hits),
                            n(r.load_class),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`sites_to_json`]; `None` on any malformed row.
pub fn sites_from_json(j: &Json) -> Option<SiteProbe> {
    let mut p = SiteProbe::new();
    let Some(Json::Arr(rows)) = j.get("table") else {
        return None;
    };
    for row in rows {
        let Json::Arr(v) = row else { return None };
        if v.len() != 10 {
            return None;
        }
        let mut f = [0u64; 10];
        for (slot, item) in f.iter_mut().zip(v) {
            match item {
                Json::Num(x) => *slot = *x as u64,
                _ => return None,
            }
        }
        p.record_stats(&SiteStats {
            pc: f[0],
            total: f[1],
            final_correct: f[2],
            l1_correct: f[3],
            overrides: f[4],
            overrides_correcting: f[5],
            confident: f[6],
            confident_wrong: f[7],
            bvit_hits: f[8],
            load_class: f[9],
        });
    }
    // After the inserts: drops charged by an over-full reconstruction
    // add to the journaled count rather than replacing it.
    p.dropped = p.dropped.saturating_add(u(j, "dropped")?);
    Some(p)
}

/// The rollup document. Canonical: groups in point order, site tables
/// sorted by PC, no timing or thread-count fields — so the same grid
/// renders byte-identically across worker counts and across resume.
pub fn obs_grid_json(grid: &ObsGrid) -> Json {
    let top = |sites: &SiteProbe| {
        Json::parse(&sites.to_json(TOP_SITES)).expect("SiteProbe emits valid JSON")
    };
    Json::obj([
        (
            "spec",
            Json::obj([
                ("seed", n(grid.spec.seed)),
                ("warmup", n(grid.spec.warmup)),
                ("measure", n(grid.spec.measure)),
            ]),
        ),
        ("cells", n(grid.total as u64)),
        ("completed", n(grid.completed as u64)),
        (
            "failed",
            Json::Arr(
                grid.failed
                    .iter()
                    .map(|(i, point, reason)| {
                        Json::obj([
                            ("cell", n(*i as u64)),
                            ("point", Json::str(point.as_str())),
                            ("reason", Json::str(reason.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "groups",
            Json::Arr(
                grid.groups
                    .iter()
                    .map(|g| {
                        Json::obj([
                            ("workload", Json::str(g.workload.as_str())),
                            ("depth", n(g.depth.stages())),
                            ("config", Json::str(g.config.label())),
                            ("config_index", n(g.config.index() as u64)),
                            ("counters", counters_to_json(&g.counters)),
                            ("sites", sites_to_json(&g.sites)),
                            ("top", top(&g.sites)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "grid",
            Json::obj([
                ("counters", counters_to_json(&grid.counters)),
                (
                    "sites",
                    Json::obj([
                        ("sites", n(grid.sites.sites as u64)),
                        ("dropped", n(grid.sites.dropped)),
                    ]),
                ),
                ("top", top(&grid.sites)),
            ]),
        ),
    ])
}

/// A rollup group's cell: `(workload, depth in stages, config)`.
type GroupCell<'a> = (&'a str, u64, PredictorConfig);

/// `group`'s cell; `None` when a field is missing or malformed.
fn group_cell(group: &Json) -> Option<GroupCell<'_>> {
    let Some(Json::Str(workload)) = group.get("workload") else {
        return None;
    };
    let depth = u(group, "depth")?;
    let config = *PredictorConfig::all().get(group.num("config_index")? as usize)?;
    Some((workload, depth, config))
}

/// The rollup's groups with their cells, or why they cannot be read.
fn rollup_groups(grid: &Json) -> Result<Vec<(&Json, GroupCell<'_>)>, String> {
    let Some(Json::Arr(groups)) = grid.get("groups") else {
        return Err("rollup has no `groups` array (not an obs_grid.json?)".to_string());
    };
    groups
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let cell = group_cell(g).ok_or_else(|| {
                format!("group {i} lacks its workload, depth or config (not an obs_grid.json?)")
            })?;
            Ok((g, cell))
        })
        .collect()
}

/// The `--cell` view of `obs_report`: `workload`'s anchor cell in `grid`
/// (an [`obs_grid_json`] document), which is its ARVI current-value cell
/// at the shallowest depth in the rollup, as a heading, the counter
/// tables and the top `top` mispredicting sites. The counters and sites
/// are rebuilt through [`counters_from_json`]/[`sites_from_json`]. An
/// error names what is missing.
pub fn cell_view(grid: &Json, workload: &str, top: usize) -> Result<String, String> {
    let groups = rollup_groups(grid)?;
    let depth = groups
        .iter()
        .map(|(_, (_, depth, _))| *depth)
        .min()
        .ok_or("the rollup has no completed cell")?;
    if !groups.iter().any(|(_, (w, _, _))| *w == workload) {
        return Err(format!("no workload `{workload}` in the rollup"));
    }
    let current = PredictorConfig::ArviCurrent;
    let label = current.label();
    let (group, _) = groups
        .iter()
        .find(|(_, cell)| *cell == (workload, depth, current))
        .ok_or_else(|| {
            format!("the rollup has no {label} cell of `{workload}` at {depth} stages")
        })?;
    let counters = group.get("counters").and_then(counters_from_json);
    let sites = group.get("sites").and_then(sites_from_json);
    let (Some(counters), Some(sites)) = (counters, sites) else {
        return Err(format!(
            "malformed counters or sites in the `{workload}` cell"
        ));
    };
    Ok(format!(
        "## {workload}: {label}, {depth} stages\n\n{}\n{}",
        counters.to_markdown(),
        sites.to_markdown(top)
    ))
}

/// One branch PC whose outcome differs between the ARVI and baseline
/// configurations of a workload.
#[derive(Debug, Clone)]
pub struct SiteDelta {
    /// The branch PC.
    pub pc: u64,
    /// Dynamic executions (baseline group; execution counts are
    /// config-independent at the same window).
    pub executed: u64,
    /// Mispredicts under the baseline config.
    pub baseline_mispredicts: u64,
    /// Mispredicts under the ARVI config.
    pub arvi_mispredicts: u64,
    /// `|baseline - arvi|` — fixed when ARVI has fewer, broken when
    /// ARVI has more.
    pub delta: u64,
}

/// The ARVI-vs-baseline diff for one workload at one depth.
#[derive(Debug)]
pub struct WorkloadAttribution {
    /// The workload's name.
    pub workload: String,
    /// The pipeline depth, in stages.
    pub depth: u64,
    /// Label of the ARVI group diffed.
    pub arvi_config: String,
    /// Label of the best (highest site accuracy) baseline group.
    pub baseline_config: String,
    /// Site-table accuracy of the ARVI group.
    pub arvi_accuracy: f64,
    /// Site-table accuracy of the baseline group.
    pub baseline_accuracy: f64,
    /// Sites ARVI fixes (fewer mispredicts), worst-baseline-delta first.
    pub fixed: Vec<SiteDelta>,
    /// Sites ARVI breaks (more mispredicts), worst delta first.
    pub broken: Vec<SiteDelta>,
}

/// The differential attribution report over a grid rollup.
#[derive(Debug)]
pub struct Attribution {
    /// Per-`(workload, depth)` diffs, in rollup group order.
    pub workloads: Vec<WorkloadAttribution>,
}

struct GroupSites {
    config: PredictorConfig,
    correct: u64,
    total: u64,
    table: HashMap<u64, (u64, u64)>, // pc -> (total, mispredicts)
}

impl GroupSites {
    fn accuracy(&self) -> f64 {
        self.correct as f64 / self.total.max(1) as f64
    }
}

fn group_sites(group: &Json, config: PredictorConfig) -> Option<GroupSites> {
    let Some(Json::Arr(rows)) = group.get("sites.table") else {
        return None;
    };
    let mut table = HashMap::with_capacity(rows.len());
    let (mut correct, mut total) = (0u64, 0u64);
    for row in rows {
        let Json::Arr(v) = row else { return None };
        match (v.first(), v.get(1), v.get(2)) {
            (Some(Json::Num(pc)), Some(Json::Num(t)), Some(Json::Num(fc))) => {
                let (t, fc) = (*t as u64, *fc as u64);
                table.insert(*pc as u64, (t, t.saturating_sub(fc)));
                correct += fc;
                total += t;
            }
            _ => return None,
        }
    }
    Some(GroupSites {
        config,
        correct,
        total,
        table,
    })
}

/// Diffs the site tables of a grid rollup ([`obs_grid_json`] output)
/// per `(workload, depth)` — one machine, never merged across depths:
/// picks the ARVI cell (preferring the current-value configuration) and
/// the best baseline (non-ARVI cell with the highest site accuracy),
/// joins their tables by PC, and reports the top `top` sites ARVI fixes
/// and breaks. A `(workload, depth)` without both an ARVI and a baseline
/// cell is skipped; an empty result is an error (the rollup had nothing
/// to diff).
pub fn attribution_diff(grid: &Json, top: usize) -> Result<Attribution, String> {
    // Machines in first-appearance order, each with its parsed groups.
    let mut machines: Vec<((&str, u64), Vec<GroupSites>)> = Vec::new();
    for (group, (workload, depth, config)) in rollup_groups(grid)? {
        let parsed = group_sites(group, config)
            .ok_or_else(|| format!("malformed site table in workload `{workload}`"))?;
        match machines.iter_mut().find(|(m, _)| *m == (workload, depth)) {
            Some((_, groups)) => groups.push(parsed),
            None => machines.push(((workload, depth), vec![parsed])),
        }
    }
    let mut out = Attribution {
        workloads: Vec::new(),
    };
    for ((workload, depth), groups) in machines {
        let arvi = groups
            .iter()
            .find(|g| g.config == PredictorConfig::ArviCurrent)
            .or_else(|| groups.iter().find(|g| g.config.is_arvi()));
        let baseline = groups
            .iter()
            .filter(|g| !g.config.is_arvi())
            .max_by(|a, b| {
                a.accuracy()
                    .partial_cmp(&b.accuracy())
                    .expect("accuracies are finite")
            });
        let (Some(arvi), Some(baseline)) = (arvi, baseline) else {
            continue;
        };
        let mut fixed = Vec::new();
        let mut broken = Vec::new();
        for (&pc, &(executed, base_misp)) in &baseline.table {
            let Some(&(_, arvi_misp)) = arvi.table.get(&pc) else {
                continue;
            };
            let delta = SiteDelta {
                pc,
                executed,
                baseline_mispredicts: base_misp,
                arvi_mispredicts: arvi_misp,
                delta: base_misp.abs_diff(arvi_misp),
            };
            if base_misp > arvi_misp {
                fixed.push(delta);
            } else if arvi_misp > base_misp {
                broken.push(delta);
            }
        }
        for list in [&mut fixed, &mut broken] {
            list.sort_by(|a, b| b.delta.cmp(&a.delta).then(a.pc.cmp(&b.pc)));
            list.truncate(top);
        }
        out.workloads.push(WorkloadAttribution {
            workload: workload.to_string(),
            depth,
            arvi_config: arvi.config.label().to_string(),
            baseline_config: baseline.config.label().to_string(),
            arvi_accuracy: arvi.accuracy(),
            baseline_accuracy: baseline.accuracy(),
            fixed,
            broken,
        });
    }
    if out.workloads.is_empty() {
        return Err(
            "no workload has both an ARVI and a baseline cell at one depth — sweep all \
             configurations (e.g. the fig6 grid) to diff them"
                .to_string(),
        );
    }
    Ok(out)
}

fn delta_rows(out: &mut String, rows: &[SiteDelta]) {
    out.push_str("| pc | executed | baseline misp | arvi misp | delta |\n|---|---|---|---|---|\n");
    for d in rows {
        out.push_str(&format!(
            "| 0x{:x} | {} | {} | {} | {} |\n",
            d.pc, d.executed, d.baseline_mispredicts, d.arvi_mispredicts, d.delta
        ));
    }
}

impl Attribution {
    /// Markdown rendering: per workload and depth, the fixed and broken
    /// tables.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## ARVI vs baseline: differential site attribution\n");
        for w in &self.workloads {
            out.push_str(&format!(
                "\n### {}, {} stages — {} {:.2}% vs {} {:.2}%\n",
                w.workload,
                w.depth,
                w.arvi_config,
                w.arvi_accuracy * 100.0,
                w.baseline_config,
                w.baseline_accuracy * 100.0
            ));
            if w.fixed.is_empty() {
                out.push_str("\nARVI fixes no sites.\n");
            } else {
                out.push_str(&format!("\nTop {} sites ARVI fixes:\n\n", w.fixed.len()));
                delta_rows(&mut out, &w.fixed);
            }
            if w.broken.is_empty() {
                out.push_str("\nARVI breaks no sites.\n");
            } else {
                out.push_str(&format!("\nTop {} sites ARVI breaks:\n\n", w.broken.len()));
                delta_rows(&mut out, &w.broken);
            }
        }
        out
    }

    /// JSON rendering, mirroring the markdown.
    pub fn to_json(&self) -> Json {
        let delta = |d: &SiteDelta| {
            Json::obj([
                ("pc", n(d.pc)),
                ("executed", n(d.executed)),
                ("baseline_mispredicts", n(d.baseline_mispredicts)),
                ("arvi_mispredicts", n(d.arvi_mispredicts)),
                ("delta", n(d.delta)),
            ])
        };
        Json::obj([(
            "workloads",
            Json::Arr(
                self.workloads
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("workload", Json::str(w.workload.as_str())),
                            ("depth", n(w.depth)),
                            ("arvi_config", Json::str(w.arvi_config.as_str())),
                            ("baseline_config", Json::str(w.baseline_config.as_str())),
                            ("arvi_accuracy", Json::Num(w.arvi_accuracy)),
                            ("baseline_accuracy", Json::Num(w.baseline_accuracy)),
                            ("fixed", Json::Arr(w.fixed.iter().map(delta).collect())),
                            ("broken", Json::Arr(w.broken.iter().map(delta).collect())),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// The Chrome trace over `window` of `run`'s completed anchor cells, in
/// point order, each under its workload's name with pid its index among
/// the anchors + 1. Each cell replays its recording from `traces` (on
/// `threads` workers) up to cycle `window.1` or the end of `spec`'s
/// window: the tracer records nothing outside its window, so this is
/// the trace of the whole cell.
fn anchor_trace(
    run: &GridRun,
    spec: Spec,
    traces: &TraceSet,
    threads: usize,
    window: (u64, u64),
) -> String {
    let cells = anchor(&run.points).map_or_else(Vec::new, |(_, cells)| cells);
    let traced: Vec<(u32, usize)> = (1..)
        .zip(cells)
        .filter(|&(_, i)| run.outcomes[i].success().is_some())
        .collect();
    let tracers = par_map(&traced, threads, |&(pid, i)| {
        let point = &run.points[i];
        let mut tracer = ChromeTracer::new(window.0, window.1);
        tracer.pid = pid;
        let replayer = traces
            .replayer(&point.workload)
            .expect("a completed cell's recording");
        let params = SimParams::for_depth(point.depth);
        let mut machine = Machine::with_probe(replayer, params, point.config, tracer);
        let total = spec.warmup + spec.measure;
        while machine.stats().cycles < window.1 && machine.stats().committed < total {
            let committed = machine.stats().committed;
            if machine.run_until_committed(committed + 1) == committed {
                break;
            }
        }
        machine.into_probe()
    });
    let names = traced.iter().map(|&(_, i)| run.points[i].workload.name());
    ChromeTracer::render_merged(names.zip(&tracers))
}

/// Writes the `--obs-grid` rollup of a finished grid run when `cfg`
/// asks for one, and under `--trace-cycles` the anchor cells' Chrome
/// trace beside it; exits 1 when either cannot be written. The rollup
/// folds the run's own probed outcomes — `--obs-grid` turned the grid
/// executor's probes on for every cell — with the fold's events going
/// to `telemetry`. The trace re-runs each completed anchor cell from
/// `traces` up to the window's end, on `threads` workers. The experiment
/// binaries call this after their tables.
pub fn maybe_obs_grid(
    cfg: Option<&ObsConfig>,
    run: GridRun,
    spec: Spec,
    traces: &TraceSet,
    threads: usize,
    telemetry: Option<&SweepTelemetry>,
) {
    let Some(cfg) = cfg else { return };
    let fail = |what: &str, e: std::io::Error| -> ! {
        eprintln!("error: cannot write {what}: {e}");
        std::process::exit(1);
    };
    if let (Some(path), Some(window)) = (cfg.trace_path(), cfg.trace) {
        let trace = anchor_trace(&run, spec, traces, threads, window);
        if let Err(e) = write_text(&path, &trace) {
            fail("chrome trace", e);
        }
        eprintln!("chrome trace written to {}", path.display());
    }
    let grid = ObsGrid::from_outcomes(&run.points, spec, run.outcomes, &run.tally, telemetry);
    let json = obs_grid_json(&grid);
    if let Err(e) = write_text(&cfg.grid, &(json.render_compact() + "\n")) {
        fail("obs grid rollup", e);
    }
    eprintln!(
        "obs grid rollup written to {} ({} of {} cells)",
        cfg.grid.display(),
        grid.completed,
        grid.total,
    );
    if !grid.failed.is_empty() {
        eprintln!(
            "warning: obs grid incomplete: {} cells failed or were skipped ({})",
            grid.failed.len(),
            crate::resilience::rerun_hint(run.journal.as_deref())
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_obs::Probe as _;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(obs_from_args(&args(&["--quick"])).unwrap(), None);
        let cfg = obs_from_args(&args(&["--obs-grid", "grid.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.grid, PathBuf::from("grid.json"));
        assert_eq!((cfg.trace, cfg.trace_path()), (None, None));
        let cfg = obs_from_args(&args(&[
            "--trace-cycles",
            "100:900",
            "--obs-grid",
            "g.json",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(cfg.trace, Some((100, 900)));
        assert_eq!(cfg.trace_path().unwrap(), PathBuf::from("g.trace.json"));
    }

    #[test]
    fn counters_round_trip_exactly() {
        let mut c = CounterProbe::new();
        c.on_cycle(0, 17);
        c.on_cycle(1, 3);
        c.on_issue(0, 2, 4);
        c.on_issue(1, 4, 4);
        c.on_fetch(0, 0, 0x40, true, false);
        c.on_commit(1, 0);
        c.on_mem_access(0, 1, 9);
        c.on_mispredict(1, 2, 0x80, 5);
        c.on_recovery(3, 12);
        c.on_chain_read(0, 0x40, 3, 2, 1);
        c.on_ddt_insert(0, 0, 7);
        c.on_writeback(1, 0);
        c.cache.l1d = (100, 7);
        c.cache.itlb = (50, 1);
        let j = counters_to_json(&c);
        let back = counters_from_json(&j).expect("round trip");
        assert_eq!(
            counters_to_json(&back).render_compact(),
            j.render_compact(),
            "serialization is a fixpoint"
        );
        // Also through a text round trip (what the journal does).
        let reparsed = Json::parse(&j.render_compact()).unwrap();
        let back2 = counters_from_json(&reparsed).expect("parse round trip");
        assert_eq!(
            counters_to_json(&back2).render_compact(),
            j.render_compact()
        );
        assert_eq!(back.cycles, 2);
        assert_eq!(back.issue_state(), c.issue_state());
        assert_eq!(back.cache.l1d, (100, 7));
        assert_eq!(back.recovery.sum(), 12);
    }

    #[test]
    fn sites_round_trip_exactly() {
        let mut s = SiteProbe::with_capacity(64);
        for pc in [0x40u64, 0x80, 0x40, 0x200] {
            s.on_branch_resolve(
                0,
                pc,
                &arvi_obs::BranchResolution {
                    actual: true,
                    final_taken: pc != 0x80,
                    l1_taken: false,
                    confident: true,
                    override_fired: true,
                    bvit_hit: false,
                    load_class: Some(true),
                },
            );
        }
        s.dropped = 3;
        let j = sites_to_json(&s);
        let back = sites_from_json(&j).expect("round trip");
        assert_eq!(back.sites, s.sites);
        assert_eq!(back.dropped, 3);
        assert_eq!(
            sites_to_json(&back).render_compact(),
            j.render_compact(),
            "serialization is a fixpoint"
        );
    }
}
