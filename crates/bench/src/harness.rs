//! Experiment driver: the one way into the grid executor, and the paper
//! artifacts assembled from its cells.
//!
//! Every grid — the experiment binaries', `synth_report`'s, the
//! benches' and the tests' — runs as a [`GridRun`]: one executor call
//! whatever the flags (the fault policy is [`Resilience::new`] without
//! fault-tolerance flags, and a sample plan only changes the work
//! items), and every cell replays its
//! workload's shared recording. Results come back in deterministic grid
//! order, so parallel output is identical to a sequential run. Every
//! figure is assembled from one run's cells: `experiments` builds
//! Figure 5 from the ARVI-current subset of the same
//! `workloads × depths × configs` grid whose per-depth slices are
//! Figure 6, so no cell is simulated twice. [`run_one`] (live
//! emulation) and [`run_one_traced`] are the single-cell references
//! grids are checked against: replay equals live emulation.

use std::path::PathBuf;
use std::sync::Arc;

use arvi_sim::{
    intern_name, simulate, simulate_source, Depth, PredictorConfig, SimParams, SimResult,
};
use arvi_stats::{amean, Table};
use arvi_trace::{Trace, TraceReplayer};
use arvi_workloads::Benchmark;

use arvi_sampling::SamplePlan;

use crate::resilience::{run_grid, CellOutcome, Resilience, RunTally, SweepIncomplete};
use crate::sampling::ci_table;
use crate::sweep::{SweepPoint, TraceSet};
use crate::workload::Workload;

/// Sweep parameters: instruction windows and the workload input seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Warmup instructions (excluded from measurement).
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
    /// Workload input seed.
    pub seed: u64,
}

impl Default for Spec {
    /// The default experiment window: 100k warmup + 500k measured.
    fn default() -> Spec {
        Spec {
            warmup: 100_000,
            measure: 500_000,
            seed: 42,
        }
    }
}

impl Spec {
    /// A fast window for smoke tests and `cargo bench` figure replays.
    pub fn quick() -> Spec {
        Spec {
            warmup: 20_000,
            measure: 80_000,
            seed: 42,
        }
    }

    /// The window `args` select: [`Spec::quick`] under `--quick`, the
    /// default otherwise.
    pub fn from_args(args: &[String]) -> Spec {
        if args.iter().any(|a| a == "--quick") {
            Spec::quick()
        } else {
            Spec::default()
        }
    }
}

/// Runs one (workload, depth, configuration) cell with live emulation.
pub fn run_one(
    workload: &Workload,
    depth: Depth,
    config: PredictorConfig,
    spec: Spec,
) -> SimResult {
    use arvi_workloads::WorkloadSource;
    simulate(
        workload.program(spec.seed),
        SimParams::for_depth(depth),
        config,
        spec.warmup,
        spec.measure,
    )
}

/// Runs one cell by replaying a shared recording instead of emulating;
/// bit-identical to [`run_one`] on the trace's workload (the timing
/// model sees the same committed stream either way).
///
/// # Panics
///
/// Panics if the recording is too short for `spec`'s window — a short
/// trace would otherwise end the run early and silently report a
/// truncated measurement window as if it were the full one.
pub fn run_one_traced(
    trace: &Arc<Trace>,
    depth: Depth,
    config: PredictorConfig,
    spec: Spec,
) -> SimResult {
    let needed = crate::sweep::trace_len(spec);
    assert!(
        trace.len() >= needed,
        "trace {} holds {} instructions but the {}+{} window (plus fetch-ahead slack) needs {needed} \
         — it was recorded under a smaller spec",
        trace.name(),
        trace.len(),
        spec.warmup,
        spec.measure,
    );
    simulate_source(
        intern_name(trace.name()),
        TraceReplayer::new(Arc::clone(trace)),
        SimParams::for_depth(depth),
        config,
        spec.warmup,
        spec.measure,
    )
}

/// Figure 5 from grid-ordered ARVI-current results over `workloads ×
/// depths`: (a) the fraction of load branches per workload at each
/// pipeline depth, and (b) prediction accuracy of calculated versus load
/// branches (20-stage) — the tables of [`GridRun::fig5_tables`].
fn fig5_assemble(
    workloads: &[Workload],
    depths: &[Depth],
    results: &[SimResult],
) -> (Table, Table) {
    let mut fig5a = Table::new(vec![
        "workload".into(),
        "20-cycle".into(),
        "40-cycle".into(),
        "60-cycle".into(),
    ]);
    let mut fig5b = Table::new(vec![
        "workload".into(),
        "calc branch".into(),
        "load branch".into(),
    ]);
    for (wi, workload) in workloads.iter().enumerate() {
        let per_depth = &results[wi * depths.len()..(wi + 1) * depths.len()];
        let mut row = vec![workload.name().to_string()];
        row.extend(
            per_depth
                .iter()
                .map(|r| format!("{:.3}", r.load_branch_fraction())),
        );
        fig5a.row(row);
        let d20 = &per_depth[0];
        fig5b.row(vec![
            workload.name().to_string(),
            format!("{:.4}", d20.window.calc_class.rate()),
            format!("{:.4}", d20.window.load_class.rate()),
        ]);
    }
    (fig5a, fig5b)
}

/// The full Figure 6 dataset for one pipeline depth.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// Pipeline depth simulated.
    pub depth: Depth,
    /// Workloads swept, one per results row.
    pub workloads: Vec<Workload>,
    /// Per-workload, per-configuration results, `results[workload][config]`
    /// in `workloads` x `PredictorConfig::all()` order.
    pub results: Vec<Vec<SimResult>>,
}

impl Fig6Data {
    /// Splits flat grid-ordered results per workload
    /// ([`GridRun::fig6_data`]).
    fn assemble(workloads: &[Workload], depth: Depth, mut flat: Vec<SimResult>) -> Fig6Data {
        let configs = PredictorConfig::all();
        let mut results = Vec::new();
        for _ in workloads {
            let rest = flat.split_off(configs.len());
            results.push(flat);
            flat = rest;
        }
        Fig6Data {
            depth,
            workloads: workloads.to_vec(),
            results,
        }
    }

    /// The prediction-accuracy table (Figure 6 a/c/e).
    pub fn accuracy_table(&self) -> Table {
        let mut headers = vec!["workload".to_string()];
        headers.extend(PredictorConfig::all().iter().map(|c| c.label().to_string()));
        let mut t = Table::new(headers);
        for (wi, workload) in self.workloads.iter().enumerate() {
            let mut row = vec![workload.name().to_string()];
            for r in &self.results[wi] {
                row.push(format!("{:.4}", r.accuracy()));
            }
            t.row(row);
        }
        t
    }

    /// The normalized-IPC table with the paper's `average` row (Figure 6
    /// b/d/f); IPC is normalized to the two-level 2Bc-gskew baseline.
    pub fn normalized_ipc_table(&self) -> Table {
        let mut headers = vec!["workload".to_string()];
        headers.extend(PredictorConfig::all().iter().map(|c| c.label().to_string()));
        let mut t = Table::new(headers);
        let mut sums = vec![Vec::new(); PredictorConfig::all().len()];
        for (wi, workload) in self.workloads.iter().enumerate() {
            let base = self.results[wi][0].ipc();
            let mut row = vec![workload.name().to_string()];
            for (ci, r) in self.results[wi].iter().enumerate() {
                let norm = r.ipc() / base;
                sums[ci].push(norm);
                row.push(format!("{norm:.3}"));
            }
            t.row(row);
        }
        let mut avg_row = vec!["average".to_string()];
        for s in &sums {
            avg_row.push(format!("{:.3}", amean(s)));
        }
        t.row(avg_row);
        t
    }

    /// Mean normalized IPC for a configuration (the paper's headline
    /// statistic; e.g. "+12.6%" = 1.126 for ARVI current value at 20
    /// stages).
    pub fn mean_normalized_ipc(&self, config: PredictorConfig) -> f64 {
        let norms: Vec<f64> = self
            .results
            .iter()
            .map(|per| per[config.index()].ipc() / per[0].ipc())
            .collect();
        amean(&norms)
    }
}

/// One sweep's per-cell outcomes over a grid, in grid order — the
/// single simulation an experiment binary runs, from which it assembles
/// every figure ([`GridRun::fig5_tables`], [`GridRun::fig6_data`]) and
/// the `--obs-grid` rollup.
#[derive(Debug)]
pub struct GridRun {
    /// The grid, in sweep order.
    pub points: Vec<SweepPoint>,
    /// One outcome per point; under a sample plan each completed cell
    /// carries its estimate ([`crate::CellSuccess::report`]).
    pub outcomes: Vec<CellOutcome>,
    /// How the cells were obtained, folded once from `outcomes`.
    pub tally: RunTally,
    /// The journal the run appended its completed cells to (`None`: it
    /// journaled nothing), which an incomplete run's hint names.
    pub journal: Option<PathBuf>,
}

impl GridRun {
    /// Runs `points` once on the grid executor — the crate's only way
    /// in — on `threads` workers, replaying the shared recordings
    /// `traces`, under `res` and, with `plan`, sampled. A failed cell
    /// (among them one whose workload has no usable recording) never
    /// aborts the run: it is reported by [`GridRun::results`]. The
    /// resilience and timing summaries of the run's tally go to stderr.
    pub fn run(
        points: Vec<SweepPoint>,
        spec: Spec,
        threads: usize,
        progress: bool,
        traces: &TraceSet,
        res: &Resilience,
        plan: Option<&SamplePlan>,
    ) -> GridRun {
        let (outcomes, tally, journal) =
            run_grid(&points, spec, threads, progress, traces, res, plan);
        if let Some(summary) = tally.outcome_summary() {
            eprintln!("{summary}");
        }
        if let Some(timing) = tally.timing_summary(traces.record_elapsed()) {
            eprintln!("{timing}");
        }
        GridRun {
            points,
            outcomes,
            tally,
            journal,
        }
    }

    /// The results of the cells `keep` selects, in grid order, or every
    /// failed cell among them (indexed by their position in this run,
    /// which is what fault plans and journals count by).
    pub fn results(
        &self,
        keep: impl Fn(&SweepPoint) -> bool,
    ) -> Result<Vec<SimResult>, SweepIncomplete> {
        let failed: Vec<_> = self
            .tally
            .failed
            .iter()
            .filter(|(i, _, _)| keep(&self.points[*i]))
            .cloned()
            .collect();
        if !failed.is_empty() {
            return Err(SweepIncomplete {
                total: self.points.iter().filter(|p| keep(p)).count(),
                failed,
                journal: self.journal.clone(),
            });
        }
        let kept = self
            .points
            .iter()
            .zip(&self.outcomes)
            .filter(|(p, _)| keep(p));
        Ok(kept
            .map(|(_, o)| o.success().expect("no kept cell failed").result.clone())
            .collect())
    }

    /// The per-cell confidence-interval table of the cells `keep`
    /// selects; `None` unless one of them carries a sampled estimate
    /// (the run was sampled and the cell completed).
    pub fn ci_table(&self, keep: impl Fn(&SweepPoint) -> bool) -> Option<Table> {
        let cells: Vec<_> = self
            .points
            .iter()
            .zip(&self.outcomes)
            .filter(|(p, _)| keep(p))
            .map(|(p, o)| (p, o.success().and_then(|s| s.report.as_deref())))
            .collect();
        cells
            .iter()
            .any(|(_, r)| r.is_some())
            .then(|| ci_table(cells.into_iter()))
    }

    /// Figure 5 from this run's ARVI-current cells: the run's grid must
    /// be `workloads × Depth::all() × configs` with `configs` holding
    /// ARVI current value. Incomplete when any of those cells failed.
    pub fn fig5_tables(&self, workloads: &[Workload]) -> Result<(Table, Table), SweepIncomplete> {
        let results = self.results(fig5_cell)?;
        Ok(fig5_assemble(workloads, &Depth::all(), &results))
    }

    /// Figure 6 at `depth` from this run's cells at that depth: the run's
    /// grid must be `workloads × depths × PredictorConfig::all()` with
    /// `depths` holding `depth`. Incomplete when any of those cells
    /// failed.
    pub fn fig6_data(
        &self,
        workloads: &[Workload],
        depth: Depth,
    ) -> Result<Fig6Data, SweepIncomplete> {
        let flat = self.results(|p| p.depth == depth)?;
        Ok(Fig6Data::assemble(workloads, depth, flat))
    }
}

/// Whether `point` is one of Figure 5's cells (ARVI current value, any
/// depth).
pub fn fig5_cell(point: &SweepPoint) -> bool {
    point.config == PredictorConfig::ArviCurrent
}

/// Renders the paper's configuration tables (1, 2, 3 and 4) from the
/// actual structures in this codebase, so the printed numbers are the
/// ones the simulator really uses.
pub fn paper_tables() -> Vec<(String, Table)> {
    let mut out = Vec::new();

    // Table 1: ARVI access steps.
    let mut t1 = Table::new(vec!["step".into(), "action".into()]);
    for (i, action) in [
        "Read the data dependence chain from the DDT for the branch",
        "Generate the register set from the dependence chain (RSE)",
        "In parallel, generate the index (XOR of register values) and the ID-sum tag",
        "Index the BVIT, compare the ID and depth tags, return a prediction",
    ]
    .iter()
    .enumerate()
    {
        t1.row(vec![format!("{}", i + 1), action.to_string()]);
    }
    out.push(("Table 1: ARVI access details".into(), t1));

    // Table 2: architectural parameters (rendered from SimParams).
    let p20 = SimParams::for_depth(Depth::D20);
    let p40 = SimParams::for_depth(Depth::D40);
    let p60 = SimParams::for_depth(Depth::D60);
    let mut t2 = Table::new(vec!["parameter".into(), "value".into()]);
    t2.row(vec![
        "fetch, decode width".into(),
        format!("{} instructions", p20.fetch_width),
    ]);
    t2.row(vec!["ROB entries".into(), format!("{}", p20.rob_entries)]);
    t2.row(vec![
        "load/store queue entries".into(),
        format!("{}", p20.lsq_entries),
    ]);
    t2.row(vec![
        "integer units".into(),
        format!("{} ALUs, {} mult/div", p20.int_alus, p20.int_muldiv),
    ]);
    t2.row(vec![
        "instruction TLB".into(),
        format!(
            "{} entries ({}-way), {} B pages, {} cycle miss",
            p20.itlb.entries, p20.itlb.ways, p20.itlb.page_bytes, p20.tlb_miss_penalty
        ),
    ]);
    t2.row(vec![
        "data TLB".into(),
        format!(
            "{} entries ({}-way), {} B pages, {} cycle miss",
            p20.dtlb.entries, p20.dtlb.ways, p20.dtlb.page_bytes, p20.tlb_miss_penalty
        ),
    ]);
    t2.row(vec![
        "L1 I-cache".into(),
        format!(
            "{} KB, {}-way, {} B line, {{{}, {}, {}}} cycles",
            p20.l1i.size_bytes / 1024,
            p20.l1i.ways,
            p20.l1i.line_bytes,
            p20.l1_latency,
            p40.l1_latency,
            p60.l1_latency
        ),
    ]);
    t2.row(vec![
        "L1 D-cache".into(),
        format!(
            "{} KB, {}-way, {} B line, {{{}, {}, {}}} cycles",
            p20.l1d.size_bytes / 1024,
            p20.l1d.ways,
            p20.l1d.line_bytes,
            p20.l1_latency,
            p40.l1_latency,
            p60.l1_latency
        ),
    ]);
    t2.row(vec![
        "L2 unified".into(),
        format!(
            "{} KB, {}-way, {} B line, {{{}, {}, {}}} cycles",
            p20.l2.size_bytes / 1024,
            p20.l2.ways,
            p20.l2.line_bytes,
            p20.l2_latency,
            p40.l2_latency,
            p60.l2_latency
        ),
    ]);
    t2.row(vec![
        "memory latency".into(),
        format!(
            "{{{}, {}, {}}} cycles initial",
            p20.mem_latency, p40.mem_latency, p60.mem_latency
        ),
    ]);
    out.push((
        "Table 2: architectural parameters (latencies for 20/40/60-stage pipelines)".into(),
        t2,
    ));

    // Table 3: benchmark suite.
    let mut t3 = Table::new(vec![
        "benchmark".into(),
        "paper window (M instr)".into(),
        "this repro (warmup+measured)".into(),
    ]);
    for b in Benchmark::all() {
        let (lo, hi) = b.paper_window_m();
        let (w, m) = b.default_window();
        t3.row(vec![
            b.name().into(),
            format!("{lo}M-{hi}M"),
            format!("{}k + {}k", w / 1000, m / 1000),
        ]);
    }
    out.push(("Table 3: SPEC95 integer benchmarks".into(), t3));

    // Table 4: predictor access latencies.
    let mut t4 = Table::new(vec![
        "predictor".into(),
        "size".into(),
        "20-cycle".into(),
        "40-cycle".into(),
        "60-cycle".into(),
    ]);
    t4.row(vec![
        "Level-1 hybrid".into(),
        "4 KB".into(),
        "1".into(),
        "1".into(),
        "1".into(),
    ]);
    t4.row(vec![
        "Level-2 hybrid".into(),
        "32 KB".into(),
        format!("{}", p20.l2_pred_latency),
        format!("{}", p40.l2_pred_latency),
        format!("{}", p60.l2_pred_latency),
    ]);
    t4.row(vec![
        "Level-2 ARVI".into(),
        "32 KB".into(),
        format!("{}", p20.arvi_latency),
        format!("{}", p40.arvi_latency),
        format!("{}", p60.arvi_latency),
    ]);
    out.push(("Table 4: predictor access latencies (cycles)".into(), t4));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults() {
        let s = Spec::default();
        assert_eq!(s.warmup, 100_000);
        assert!(Spec::quick().measure < s.measure);
    }

    #[test]
    fn paper_tables_render() {
        let tables = paper_tables();
        assert_eq!(tables.len(), 4);
        assert!(tables[1].1.to_text().contains("ROB entries"));
        assert!(tables[3].1.to_text().contains("Level-2 ARVI"));
        // Table 4 carries the paper's latency scaling.
        assert!(tables[3].1.to_csv().contains("Level-2 ARVI,32 KB,6,12,18"));
    }

    #[test]
    fn run_one_produces_window() {
        let spec = Spec {
            warmup: 5_000,
            measure: 20_000,
            seed: 1,
        };
        let r = run_one(
            &Benchmark::Vortex.into(),
            Depth::D20,
            PredictorConfig::TwoLevelGskew,
            spec,
        );
        // Commit width allows up to 3 instructions of slack at each
        // window boundary.
        assert!(r.window.committed >= 20_000 - 6);
        assert!(r.ipc() > 0.1);
    }
}
