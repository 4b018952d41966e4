//! Grid-scale telemetry: probe every cell of a sweep and merge.
//!
//! The anchor pass ([`crate::obs`]) observes one `(depth, config)`
//! point per workload. This module promotes the probe seam to the whole
//! grid. The probes ride the main pass: with [`Resilience::probes`] set,
//! the grid executor attaches the counter+site probes to every cell
//! it simulates (and journals them on the cell's sweep-journal line), so
//! each `(workload, depth, config)` cell is simulated once per
//! invocation. [`ObsGrid::from_outcomes`] then folds
//! the probed outcomes of a [`GridRun`] per `(workload, config)` group
//! and grid-wide, in point order, into one `obs_grid.json` rollup
//! ([`obs_grid_json`]).
//!
//! Merged and journaled probes need full-fidelity serialization (the
//! lossy `CounterProbe::to_json` folds idle cycles into its issue buckets
//! and cannot be inverted): [`counters_to_json`]/[`counters_from_json`] and
//! [`sites_to_json`]/[`sites_from_json`] round-trip exactly, which is
//! what makes a resumed grid byte-identical to an uninterrupted one.
//! Site tables render sorted by PC and groups merge in point order, so
//! the rollup is also byte-identical across worker counts.
//!
//! [`attribution_diff`] is the differential pass over the merged site
//! tables: per workload, the branch PCs the ARVI configuration *fixes*
//! and *breaks* versus the best baseline config — the falsifiable
//! "where does ARVI win" table, consumed by the `obs_report` binary.

use std::collections::HashMap;
use std::time::Instant;

use arvi_obs::counters::ISSUE_BUCKETS;
use arvi_obs::{CounterProbe, Log2Hist, SiteProbe, SiteStats};
use arvi_sim::PredictorConfig;

use crate::events::SweepTelemetry;
use crate::harness::{GridRun, Spec};
use crate::obs::ObsConfig;
use crate::report::{write_text, Json};
use crate::resilience::{CellOutcome, Resilience};
use crate::sweep::{SweepPoint, TraceSet};

/// The probes collected from one grid cell: what a probed sweep
/// ([`Resilience::probes`]) carries out of each cell in
/// [`crate::resilience::CellSuccess::probes`], and what the `probes`
/// field of the cell's sweep-journal line stores.
#[derive(Debug, Clone)]
pub struct CellProbes {
    /// Counter/histogram telemetry.
    pub counters: CounterProbe,
    /// Per-branch-site attribution.
    pub sites: SiteProbe,
}

/// Merged telemetry for one `(workload, config)` group of the grid
/// (summed over every depth/cell of that pair, in point order).
#[derive(Debug)]
pub struct ObsGroup {
    /// The workload's name.
    pub workload: String,
    /// The predictor configuration.
    pub config: PredictorConfig,
    /// Cells merged into this group.
    pub cells: usize,
    /// Counter/histogram telemetry summed over the group.
    pub counters: CounterProbe,
    /// Site tables unioned over the group.
    pub sites: SiteProbe,
}

/// The grid rollup ([`ObsGrid::from_outcomes`]): per-group and
/// grid-wide merges plus per-cell accounting.
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
    /// Per-`(workload, config)` merges, in first-appearance order over
    /// the point list.
    pub groups: Vec<ObsGroup>,
    /// Counters summed over the whole grid.
    pub counters: CounterProbe,
    /// Site tables unioned over the whole grid.
    pub sites: SiteProbe,
    /// Per-cell committed-instruction counts (`None` for failed cells)
    /// — the ground truth the merged sums are checked against.
    pub cells_committed: Vec<Option<u64>>,
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
    /// [`GridRun`] with [`Resilience::probes`] set) into the
    /// rollup, merging cells in point order so the result is independent
    /// of which worker finished which cell first. With `telemetry`, each
    /// dispatched cell emits a `cell_end` event tagged `"pass":"obs"` as
    /// its probes are merged (`ok`, `ok-resumed` or `failed`), then one
    /// `obs_grid_end` whose `dur_us` spans the fold alone — the
    /// simulation is already in the sweep's own span.
    pub fn from_outcomes(
        points: &[SweepPoint],
        spec: Spec,
        outcomes: Vec<CellOutcome>,
        telemetry: Option<&SweepTelemetry>,
    ) -> ObsGrid {
        ObsGrid::fold(points, spec, outcomes, telemetry, Instant::now())
    }

    /// [`ObsGrid::from_outcomes`] with the `obs_grid_end` span starting
    /// at `started`.
    fn fold(
        points: &[SweepPoint],
        spec: Spec,
        outcomes: Vec<CellOutcome>,
        telemetry: Option<&SweepTelemetry>,
        started: Instant,
    ) -> ObsGrid {
        assert_eq!(points.len(), outcomes.len(), "one outcome per point");
        let mut grid = ObsGrid {
            spec,
            total: points.len(),
            completed: 0,
            resumed: 0,
            failed: Vec::new(),
            groups: Vec::new(),
            counters: CounterProbe::new(),
            sites: SiteProbe::new(),
            cells_committed: vec![None; points.len()],
        };
        for (i, (point, outcome)) in points.iter().zip(outcomes).enumerate() {
            // Cells a kill stopped before dispatch were never probed.
            let dispatched = !matches!(outcome, CellOutcome::Skipped);
            let probes = match outcome {
                CellOutcome::Ok(s) => s
                    .probes
                    .map(|p| (p, s.resumed))
                    .ok_or_else(|| "ran without probes".to_string()),
                other => Err(other.failure().expect("non-ok outcome has a reason")),
            };
            let tag = match probes {
                Ok((probes, resumed)) => {
                    grid.merge(i, point, *probes);
                    grid.resumed += resumed as usize;
                    if resumed {
                        "ok-resumed"
                    } else {
                        "ok"
                    }
                }
                Err(reason) => {
                    grid.failed.push((i, point.to_string(), reason));
                    "failed"
                }
            };
            if let Some(t) = telemetry.filter(|_| dispatched) {
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

    /// Merges cell `i`'s probes into its group and the grid totals
    /// (moved, not copied: a grid's site tables are most of its memory).
    fn merge(&mut self, i: usize, point: &SweepPoint, probes: CellProbes) {
        self.completed += 1;
        self.cells_committed[i] = Some(probes.counters.committed);
        self.counters.merge(&probes.counters);
        self.sites.merge(&probes.sites);
        let name = point.workload.name();
        match self
            .groups
            .iter_mut()
            .find(|g| g.workload == name && g.config == point.config)
        {
            Some(g) => {
                g.cells += 1;
                g.counters.merge(&probes.counters);
                g.sites.merge(&probes.sites);
            }
            None => self.groups.push(ObsGroup {
                workload: name.to_string(),
                config: point.config,
                cells: 1,
                counters: probes.counters,
                sites: probes.sites,
            }),
        }
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
/// snapshot. Unlike `CounterProbe::to_json` (a report surface that
/// derives issue utilization), this is invertible via
/// [`counters_from_json`].
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

/// The merged-grid rollup document. Canonical: groups in point order,
/// site tables sorted by PC, no timing or thread-count fields — so the
/// same grid renders byte-identically across worker counts and across
/// resume.
pub fn obs_grid_json(grid: &ObsGrid, top_sites: usize) -> Json {
    let configs = PredictorConfig::all();
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
                            ("config", Json::str(g.config.label())),
                            (
                                "config_index",
                                n(configs.iter().position(|c| *c == g.config).unwrap_or(0) as u64),
                            ),
                            ("cells", n(g.cells as u64)),
                            ("counters", counters_to_json(&g.counters)),
                            ("sites", sites_to_json(&g.sites)),
                            (
                                "top",
                                Json::parse(&g.sites.to_json(top_sites))
                                    .expect("SiteProbe emits valid JSON"),
                            ),
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
                (
                    "top",
                    Json::parse(&grid.sites.to_json(top_sites))
                        .expect("SiteProbe emits valid JSON"),
                ),
            ]),
        ),
    ])
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

/// The ARVI-vs-baseline diff for one workload.
#[derive(Debug)]
pub struct WorkloadAttribution {
    /// The workload's name.
    pub workload: String,
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

/// The differential attribution report over a merged grid rollup.
#[derive(Debug)]
pub struct Attribution {
    /// Per-workload diffs, in rollup group order.
    pub workloads: Vec<WorkloadAttribution>,
}

struct GroupSites {
    config_label: String,
    is_arvi: bool,
    is_arvi_current: bool,
    correct: u64,
    total: u64,
    table: HashMap<u64, (u64, u64)>, // pc -> (total, mispredicts)
}

fn group_sites(group: &Json) -> Option<GroupSites> {
    let configs = PredictorConfig::all();
    let idx = group.num("config_index")? as usize;
    let config = *configs.get(idx)?;
    let label = match group.get("config")? {
        Json::Str(s) => s.clone(),
        _ => return None,
    };
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
        config_label: label,
        is_arvi: config.is_arvi(),
        is_arvi_current: config == PredictorConfig::ArviCurrent,
        correct,
        total,
        table,
    })
}

/// Diffs the merged site tables of a grid rollup ([`obs_grid_json`]
/// output): per workload, picks the ARVI group (preferring the current-
/// value configuration) and the best baseline (non-ARVI group with the
/// highest site accuracy), joins their tables by PC, and reports the
/// top `top` sites ARVI fixes and breaks. Workloads without both an
/// ARVI and a baseline group are skipped; an empty result is an error
/// (the rollup had nothing to diff).
pub fn attribution_diff(grid: &Json, top: usize) -> Result<Attribution, String> {
    let Some(Json::Arr(groups)) = grid.get("groups") else {
        return Err("rollup has no `groups` array (not an obs_grid.json?)".to_string());
    };
    // Workloads in first-appearance order, each with its parsed groups.
    let mut order: Vec<String> = Vec::new();
    let mut by_workload: HashMap<String, Vec<GroupSites>> = HashMap::new();
    for group in groups {
        let name = match group.get("workload") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("group without a `workload` name".to_string()),
        };
        let parsed = group_sites(group)
            .ok_or_else(|| format!("malformed site table in workload `{name}`"))?;
        if !order.contains(&name) {
            order.push(name.clone());
        }
        by_workload.entry(name).or_default().push(parsed);
    }
    let mut out = Attribution {
        workloads: Vec::new(),
    };
    for name in order {
        let groups = &by_workload[&name];
        let arvi = groups
            .iter()
            .find(|g| g.is_arvi_current)
            .or_else(|| groups.iter().find(|g| g.is_arvi));
        let baseline = groups.iter().filter(|g| !g.is_arvi).max_by(|a, b| {
            let ra = a.correct as f64 / a.total.max(1) as f64;
            let rb = b.correct as f64 / b.total.max(1) as f64;
            ra.partial_cmp(&rb).expect("accuracies are finite")
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
            if base_misp > arvi_misp {
                fixed.push(SiteDelta {
                    pc,
                    executed,
                    baseline_mispredicts: base_misp,
                    arvi_mispredicts: arvi_misp,
                    delta: base_misp - arvi_misp,
                });
            } else if arvi_misp > base_misp {
                broken.push(SiteDelta {
                    pc,
                    executed,
                    baseline_mispredicts: base_misp,
                    arvi_mispredicts: arvi_misp,
                    delta: arvi_misp - base_misp,
                });
            }
        }
        for list in [&mut fixed, &mut broken] {
            list.sort_by(|a, b| b.delta.cmp(&a.delta).then(a.pc.cmp(&b.pc)));
            list.truncate(top);
        }
        out.workloads.push(WorkloadAttribution {
            workload: name,
            arvi_config: arvi.config_label.clone(),
            baseline_config: baseline.config_label.clone(),
            arvi_accuracy: arvi.correct as f64 / arvi.total.max(1) as f64,
            baseline_accuracy: baseline.correct as f64 / baseline.total.max(1) as f64,
            fixed,
            broken,
        });
    }
    if out.workloads.is_empty() {
        return Err(
            "no workload has both an ARVI and a baseline group — sweep all configurations \
             (e.g. the fig6 grid) to diff them"
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
    /// Markdown rendering: per workload, the fixed and broken tables.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## ARVI vs baseline: differential site attribution\n");
        for w in &self.workloads {
            out.push_str(&format!(
                "\n### {} — {} {:.2}% vs {} {:.2}%\n",
                w.workload,
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

/// Writes the `--obs-grid` rollup of a finished grid run when `cfg`
/// asks for one; exits 1 when the rollup cannot be written. The rollup
/// folds the run's own probed outcomes — `--obs-grid` turned the grid
/// executor's probes on — except after a sampled run, whose units carry
/// no full-window probes: that takes a second, unsampled [`GridRun`]
/// over the same points with the probes on. Its telemetry is the fold's
/// alone (no second set of sweep events), so its `obs_grid_end` span
/// covers that whole pass. The experiment binaries call this after
/// their tables.
pub fn maybe_obs_grid(
    cfg: Option<&ObsConfig>,
    run: GridRun,
    spec: Spec,
    threads: usize,
    traces: Option<&TraceSet>,
    res: Option<&Resilience>,
) {
    let Some(cfg) = cfg else { return };
    let Some(out) = &cfg.grid else { return };
    let grid = if run.reports.is_some() {
        let started = Instant::now();
        let mut probed = res.cloned().unwrap_or_default();
        probed.probes = true;
        let telemetry = probed.telemetry.take();
        let full = GridRun::run(
            run.points,
            spec,
            threads,
            false,
            traces,
            Some(&probed),
            None,
        );
        ObsGrid::fold(
            &full.points,
            spec,
            full.outcomes,
            telemetry.as_deref(),
            started,
        )
    } else {
        let telemetry = res.and_then(|r| r.telemetry.as_deref());
        ObsGrid::from_outcomes(&run.points, spec, run.outcomes, telemetry)
    };
    let json = obs_grid_json(&grid, cfg.top_sites);
    if let Err(e) = write_text(out, &(json.render_compact() + "\n")) {
        eprintln!("error: cannot write obs grid rollup: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "obs grid rollup written to {} ({} of {} cells, {} groups)",
        out.display(),
        grid.completed,
        grid.total,
        grid.groups.len()
    );
    if !grid.failed.is_empty() {
        eprintln!(
            "warning: obs grid incomplete: {} cells failed or were skipped \
             (re-run with --resume to finish them)",
            grid.failed.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_obs::Probe as _;

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
