//! The experiment binaries' anchor report: `--probe`, `--obs-out`,
//! `--trace-cycles`, `--top-sites`.
//!
//! The figure sweeps run unprobed (the [`NullProbe`] machine —
//! bit-identical and perf-guarded) except where the parsed
//! [`ObsConfig`] (carried as [`crate::Resilience::probes`]) asks the grid
//! executor for probes, cell by cell: under `--obs-grid` every cell
//! carries the counter+site probes ([`crate::obs_grid`]), and under
//! `--probe`/`--trace-cycles` the grid's [`anchor`] cells carry them
//! too — plus, with `--trace-cycles`, a [`ChromeTracer`] over the
//! window. Every probe rides the one pass, so no cell is simulated
//! twice. [`maybe_obs_pass`] then reads the anchor cells' probes back
//! out of the [`GridRun`] ([`ObsReport::from_run`]) and renders them as
//! markdown (stdout) or compact JSON (`--obs-out`).
//!
//! [`NullProbe`]: arvi_obs::NullProbe

use std::path::PathBuf;

use arvi_obs::{ChromeTracer, CounterProbe};
use arvi_sim::{Depth, PredictorConfig};

use crate::harness::GridRun;
use crate::obs_grid::CellProbes;
use crate::report::{write_text, Json};
use crate::resilience::{CellOutcome, CellSuccess};
use crate::sweep::SweepPoint;

/// Which probes a run carries and where their reports go.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// `--probe counters`: merged counter/histogram telemetry.
    pub counters: bool,
    /// `--probe sites`: per-branch-PC attribution tables.
    pub sites: bool,
    /// `--trace-cycles START:END` (or `--probe trace` with it): the
    /// traced cycle window.
    pub trace: Option<(u64, u64)>,
    /// `--obs-out PATH`: write compact JSON here (and the Chrome trace
    /// beside it as `<PATH minus extension>.trace.json`) instead of
    /// printing markdown.
    pub out: Option<PathBuf>,
    /// `--top-sites N` rows in site tables (default 10).
    pub top_sites: usize,
    /// `--obs-grid PATH`: probe *every* cell of the sweep (not just the
    /// anchor cells) and write the merged grid rollup here — see
    /// [`crate::obs_grid`].
    pub grid: Option<PathBuf>,
}

impl ObsConfig {
    /// Whether `--probe`/`--trace-cycles` asked for the anchor report
    /// (any of counters, sites or a trace window).
    pub(crate) fn anchor_report(&self) -> bool {
        self.counters || self.sites || self.trace.is_some()
    }

    /// Where the Chrome trace document goes (requires `out`).
    pub fn trace_path(&self) -> Option<PathBuf> {
        match (&self.trace, &self.out) {
            (Some(_), Some(out)) => Some(out.with_extension("trace.json")),
            _ => None,
        }
    }
}

/// Parses the observability flags out of `args`:
///
/// * `--probe LIST` — comma-separated probe set: `counters`, `sites`,
///   `trace` (e.g. `--probe counters,sites`).
/// * `--obs-out PATH` — write compact JSON to `PATH` (and the Chrome
///   trace to `<PATH minus extension>.trace.json`) instead of markdown
///   on stdout.
/// * `--trace-cycles START:END` — the traced cycle window; implies
///   `--probe trace`. Required when `trace` is requested, and requires
///   `--obs-out` (a trace only exists as a file).
/// * `--top-sites N` — rows in per-site tables (default 10).
/// * `--obs-grid PATH` — run counter+site probes over every cell of
///   the sweep and write the merged `obs_grid.json` rollup to `PATH`
///   (works with or without the anchor-report flags above).
///
/// Returns `Ok(None)` when no observability flag is present.
pub fn obs_from_args(args: &[String]) -> Result<Option<ObsConfig>, String> {
    let value_of = |flag: &str| crate::flag_value(args, flag);
    let probe = value_of("--probe")?;
    let trace_cycles = value_of("--trace-cycles")?;
    let out = value_of("--obs-out")?;
    let top_sites = value_of("--top-sites")?;
    let grid = value_of("--obs-grid")?;
    if probe.is_none() && trace_cycles.is_none() && grid.is_none() {
        if out.is_some() || top_sites.is_some() {
            return Err("--obs-out/--top-sites need --probe, --trace-cycles or --obs-grid".into());
        }
        return Ok(None);
    }
    if out.is_some() && probe.is_none() && trace_cycles.is_none() {
        return Err(
            "--obs-out needs --probe or --trace-cycles (the grid rollup goes to --obs-grid)".into(),
        );
    }
    let mut cfg = ObsConfig {
        top_sites: 10,
        ..ObsConfig::default()
    };
    if let Some(list) = probe {
        for p in list.split(',') {
            match p.trim() {
                "counters" => cfg.counters = true,
                "sites" => cfg.sites = true,
                "trace" => cfg.trace = Some((0, 0)), // window filled below
                "" => {}
                other => {
                    return Err(format!(
                        "--probe: unknown probe `{other}` (expected counters, sites, trace)"
                    ))
                }
            }
        }
    }
    match trace_cycles {
        Some(win) => {
            let (a, b) = win
                .split_once(':')
                .ok_or_else(|| format!("--trace-cycles: expected START:END, got `{win}`"))?;
            let start: u64 = a
                .parse()
                .map_err(|_| format!("--trace-cycles: bad start `{a}`"))?;
            let end: u64 = b
                .parse()
                .map_err(|_| format!("--trace-cycles: bad end `{b}`"))?;
            if end <= start {
                return Err(format!("--trace-cycles: empty window {start}:{end}"));
            }
            cfg.trace = Some((start, end));
        }
        None if cfg.trace.is_some() => {
            return Err("--probe trace needs --trace-cycles START:END".into())
        }
        None => {}
    }
    if cfg.trace.is_some() && out.is_none() {
        return Err("--trace-cycles needs --obs-out (the trace is written beside it)".into());
    }
    cfg.out = out.map(PathBuf::from);
    cfg.grid = grid.map(PathBuf::from);
    if let Some(n) = top_sites {
        cfg.top_sites = n
            .parse()
            .map_err(|_| format!("--top-sites: not a number: `{n}`"))?;
    }
    Ok(Some(cfg))
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

/// The anchor report: the probes of a grid's anchor cells plus their
/// cross-workload counter merge.
#[derive(Debug)]
pub struct ObsReport {
    /// The anchor depth (the configuration is ARVI current value).
    pub depth: Depth,
    /// Counters summed over every workload.
    pub merged: CounterProbe,
    /// Each workload's name and anchor-cell probes, in workload order.
    pub workloads: Vec<(String, CellProbes)>,
}

impl ObsReport {
    /// The report on `run`'s anchor cells, which carry their probes when
    /// the run's policy asked for the anchor report. An anchor cell that
    /// failed, or ran without probes, is named on stderr and left out.
    pub fn from_run(run: &GridRun) -> ObsReport {
        let (depth, cells) = anchor(&run.points).unwrap_or((Depth::D20, Vec::new()));
        let mut report = ObsReport {
            depth,
            merged: CounterProbe::new(),
            workloads: Vec::with_capacity(cells.len()),
        };
        for i in cells {
            let point = &run.points[i];
            match &run.outcomes[i] {
                CellOutcome::Ok(CellSuccess {
                    probes: Some(p), ..
                }) => {
                    report.merged.merge(&p.counters);
                    let name = point.workload.name().to_string();
                    report.workloads.push((name, (**p).clone()));
                }
                other => eprintln!(
                    "warning: observability: anchor cell {i} ({point}) left out: {}",
                    other
                        .failure()
                        .unwrap_or_else(|| "ran without probes".into())
                ),
            }
        }
        report
    }

    /// The markdown rendering selected by `cfg` (counters and/or site
    /// tables).
    pub fn to_markdown(&self, cfg: &ObsConfig) -> String {
        let mut out = format!(
            "## Observability ({} depth {}, {} workloads)\n",
            PredictorConfig::ArviCurrent.label(),
            self.depth.stages(),
            self.workloads.len()
        );
        if cfg.counters {
            out.push_str("\n### Counters (merged over workloads)\n\n");
            out.push_str(&self.merged.to_markdown());
        }
        if cfg.sites {
            for (name, w) in &self.workloads {
                out.push_str(&format!(
                    "\n### Top mispredicting sites: {name} (final accuracy {:.2}%)\n\n",
                    w.result.accuracy() * 100.0
                ));
                out.push_str(&w.sites.to_markdown(cfg.top_sites));
            }
        }
        if let Some((start, end)) = cfg.trace {
            let events: usize = self.tracers().map(|(_, t)| t.len()).sum();
            let dropped: u64 = self.tracers().map(|(_, t)| t.dropped).sum();
            out.push_str(&format!(
                "\ntrace window [{start}, {end}): {events} events ({dropped} dropped)\n"
            ));
        }
        out
    }

    /// The compact-JSON rendering selected by `cfg` (everything except
    /// the Chrome trace, which is its own document — see
    /// [`ObsReport::render_trace`]).
    pub fn to_json(&self, cfg: &ObsConfig) -> Json {
        let mut fields = vec![
            ("config", Json::str(PredictorConfig::ArviCurrent.label())),
            ("depth", Json::Num(self.depth.stages() as f64)),
        ];
        if cfg.counters {
            fields.push((
                "counters",
                Json::parse(&self.merged.to_json()).expect("CounterProbe emits valid JSON"),
            ));
        }
        let mut per = Vec::new();
        for (name, w) in &self.workloads {
            let mut wf = vec![
                ("name".to_string(), Json::str(name)),
                ("ipc".to_string(), Json::Num(w.result.ipc())),
                ("accuracy".to_string(), Json::Num(w.result.accuracy())),
            ];
            if cfg.counters {
                wf.push((
                    "counters".to_string(),
                    Json::parse(&w.counters.to_json()).expect("CounterProbe emits valid JSON"),
                ));
            }
            if cfg.sites {
                wf.push((
                    "sites".to_string(),
                    Json::parse(&w.sites.to_json(cfg.top_sites))
                        .expect("SiteProbe emits valid JSON"),
                ));
            }
            per.push(Json::Obj(wf));
        }
        fields.push(("workloads", Json::Arr(per)));
        if let Some((start, end)) = cfg.trace {
            fields.push((
                "trace",
                Json::obj([
                    ("start", Json::Num(start as f64)),
                    ("end", Json::Num(end as f64)),
                    (
                        "events",
                        Json::Num(self.tracers().map(|(_, t)| t.len()).sum::<usize>() as f64),
                    ),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// Each traced workload's name and tracer, in workload order.
    fn tracers(&self) -> impl Iterator<Item = (&str, &ChromeTracer)> {
        self.workloads
            .iter()
            .filter_map(|(name, w)| Some((name.as_str(), w.tracer.as_ref()?)))
    }

    /// The merged Chrome trace document over every workload.
    pub fn render_trace(&self) -> String {
        ChromeTracer::render_merged(self.tracers())
    }

    /// Emits the report per `cfg`: markdown to stdout without `--obs-out`,
    /// JSON files with it (plus the Chrome trace beside, when traced).
    pub fn emit(&self, cfg: &ObsConfig) -> std::io::Result<()> {
        match &cfg.out {
            None => println!("{}", self.to_markdown(cfg)),
            Some(path) => {
                write_text(path, &(self.to_json(cfg).render_compact() + "\n"))?;
                eprintln!("observability JSON written to {}", path.display());
                if let Some(trace_path) = cfg.trace_path() {
                    write_text(&trace_path, &self.render_trace())?;
                    eprintln!("chrome trace written to {}", trace_path.display());
                }
            }
        }
        Ok(())
    }
}

/// Emits the anchor report of `run` when `cfg` asks for one (any of
/// counters, sites or a trace window); exits 1 when it cannot be
/// written. The experiment binaries parse `cfg` with [`obs_from_args`]
/// before any work, hand it to the run's policy so the anchor cells
/// carry their probes, and call this once after their tables. An
/// `--obs-grid`-only invocation asks for no anchor report — the grid
/// rollup is emitted by [`crate::obs_grid::maybe_obs_grid`] instead.
pub fn maybe_obs_pass(cfg: Option<&ObsConfig>, run: &GridRun) {
    let Some(cfg) = cfg.filter(|c| c.anchor_report()) else {
        return;
    };
    if let Err(e) = ObsReport::from_run(run).emit(cfg) {
        eprintln!("error: cannot write observability output: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Spec;
    use crate::resilience::Resilience;
    use crate::sweep::{distinct_workloads, grid, TraceSet};
    use crate::workload::Workload;
    use arvi_workloads::Benchmark;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(obs_from_args(&args(&["--quick"])).unwrap(), None);
        let cfg = obs_from_args(&args(&["--probe", "counters,sites", "--top-sites", "5"]))
            .unwrap()
            .unwrap();
        assert!(cfg.counters && cfg.sites);
        assert_eq!(cfg.trace, None);
        assert_eq!(cfg.top_sites, 5);
        let cfg = obs_from_args(&args(&[
            "--probe",
            "trace",
            "--trace-cycles",
            "100:900",
            "--obs-out",
            "obs.json",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(cfg.trace, Some((100, 900)));
        assert_eq!(cfg.trace_path().unwrap(), PathBuf::from("obs.trace.json"));
        // --trace-cycles alone implies the trace probe.
        let cfg = obs_from_args(&args(&["--trace-cycles", "0:10", "--obs-out", "o.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.trace, Some((0, 10)));
        // --obs-grid works alone (no anchor-report probes selected) and
        // alongside the anchor-report flags.
        let cfg = obs_from_args(&args(&["--obs-grid", "grid.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.grid, Some(PathBuf::from("grid.json")));
        assert!(!cfg.counters && !cfg.sites && cfg.trace.is_none());
        let cfg = obs_from_args(&args(&[
            "--probe",
            "counters",
            "--obs-grid",
            "grid.json",
            "--top-sites",
            "7",
        ]))
        .unwrap()
        .unwrap();
        assert!(cfg.counters);
        assert_eq!(cfg.grid, Some(PathBuf::from("grid.json")));
        assert_eq!(cfg.top_sites, 7);
    }

    #[test]
    fn flag_errors() {
        for bad in [
            vec!["--probe", "bogus"],
            vec!["--probe"],
            vec!["--probe", "trace"],                        // no window
            vec!["--trace-cycles", "5:5", "--obs-out", "o"], // empty window
            vec!["--trace-cycles", "10"],                    // malformed
            vec!["--trace-cycles", "0:10"],                  // no --obs-out
            vec!["--obs-out", "x.json"],                     // no probe selected
            vec!["--top-sites", "3"],                        // no probe selected
            vec!["--probe", "counters", "--top-sites", "many"],
            vec!["--obs-grid"], // missing value
            // --obs-out is the anchor report's sink; grid-only runs have
            // no anchor report to write.
            vec!["--obs-grid", "g.json", "--obs-out", "x.json"],
        ] {
            assert!(obs_from_args(&args(&bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn anchor_cells_collect_and_render() {
        let spec = Spec {
            warmup: 2_000,
            measure: 8_000,
            seed: 42,
        };
        let cfg = ObsConfig {
            counters: true,
            sites: true,
            trace: Some((1_000, 2_000)),
            out: None,
            top_sites: 3,
            grid: None,
        };
        let mut res = Resilience::new();
        res.probes = Some(cfg.clone());
        // The anchor is ARVI current value at the shallowest depth.
        let points = grid(
            &[Workload::from(Benchmark::Li)],
            &[Depth::D40, Depth::D20],
            &PredictorConfig::all(),
        );
        let (depth, cells) = anchor(&points).unwrap();
        assert_eq!(depth, Depth::D20);
        assert_eq!(cells.len(), 1);
        assert_eq!(points[cells[0]].config, PredictorConfig::ArviCurrent);
        let traces = TraceSet::record(&distinct_workloads(&points), spec, 2, None);
        let run = GridRun::run(points, spec, 2, false, &traces, &res, None);
        for (i, o) in run.outcomes.iter().enumerate() {
            let probed = o.success().unwrap().probes.is_some();
            assert_eq!(probed, i == cells[0], "only the anchor cell is probed");
        }
        let report = ObsReport::from_run(&run);
        assert_eq!((report.depth, report.workloads.len()), (Depth::D20, 1));
        let w = &report.workloads[0].1;
        assert!(w.counters.committed >= 10_000, "{}", w.counters.committed);
        assert!(w.counters.branches > 0);
        assert!(w.sites.sites > 0);
        let tracer = w.tracer.as_ref().expect("traced anchor");
        assert!(!tracer.is_empty(), "trace window saw no events");
        assert_eq!(tracer.pid, 1);
        assert_eq!(report.merged.committed, w.counters.committed);

        let md = report.to_markdown(&cfg);
        assert!(md.contains("### Counters"), "{md}");
        assert!(md.contains("Top mispredicting sites: li"), "{md}");

        let json = report.to_json(&cfg).render_compact();
        let parsed = Json::parse(&json).expect("obs JSON parses");
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("workloads").is_some());
        assert_eq!(parsed.num("trace.start"), Some(1_000.0));

        let trace = report.render_trace();
        Json::parse(&trace).expect("chrome trace JSON parses");
        assert!(trace.contains("process_name"));
    }
}
