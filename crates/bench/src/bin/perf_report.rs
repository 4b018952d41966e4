//! Performance report: times the replayed sweep, the probe seam and the
//! sampled-simulation path, and prints one machine-readable JSON report
//! whose `guardrail` section feeds the CI perf gate (`perf_guard`). The
//! checked-in `BENCH_PR<N>.json` files are such reports; `bench_history`
//! trends them across PRs.
//!
//! 1. **Sweep** — the quick Figure-6 grid replayed over shared traces,
//!    with the whole-sweep ns/inst. (Replay equals live emulation; that
//!    is pinned by `tests/trace_replay.rs`, not timed here.)
//! 2. **Probe overhead** — the observability seam: the ARVI
//!    machine replaying a recorded m88ksim window timed probe-off
//!    (`NullProbe`, what every sweep runs) vs with the zero-alloc
//!    `CounterProbe` attached vs the full obs stack (counters + per-site
//!    attribution), interleaved best-of-3, with bit-identity asserted
//!    between the sides. The probe-off side is the
//!    `machine_arvi_ns_per_inst` guardrail metric; the probe-on numbers
//!    document what turning telemetry on costs.
//! 3. **Sampled simulation** — the interval-sampling path. An
//!    honest error study: the 8-benchmark suite plus the 9 curated
//!    synthetic scenarios (20-stage, ARVI current value), each cell
//!    estimated by SMARTS-style systematic sampling at 1-in-{2,4,8}
//!    rates and compared against its full-run ground truth — per-cell
//!    IPC/accuracy relative error and 95%-CI coverage go into the JSON.
//!    Then the speedup measurement the sampling exists for: one long
//!    single-cell window (the stationary history-3 scenario) run
//!    full-length serially vs sampled at 1-in-8 with per-unit fan-out
//!    over all cores, reporting the wall-clock speedup and the IPC
//!    error it costs (both gated by the guardrail).
//!
//! The figures themselves are pinned by the golden digests
//! (`tests/golden_digests.rs`); this report only times them.
//!
//! Usage: `perf_report [--quick] [--threads N] [--trace-dir DIR] [--out PATH]`
//!
//! The JSON goes to stdout; `--out` also writes it to `PATH`. An
//! unknown flag, a positional argument, or `--out` without a path exits
//! 2 before any work, writing no file.

use std::sync::Arc;
use std::time::Instant;

use arvi_bench::{
    check_flags, flag_value, grid, record_trace, run_one_traced, threads_from_args,
    trace_dir_from_args, write_report, GridRun, Json, Resilience, Spec, TraceSet, Workload,
};
use arvi_obs::{CounterProbe, SiteProbe};
use arvi_sampling::{sample_region, SamplePlan};
use arvi_sim::{
    intern_name, simulate_source, simulate_source_probed, Depth, PredictorConfig, SimParams,
};
use arvi_trace::TraceReplayer;
use arvi_workloads::Benchmark;

struct ProbeSide {
    off_ns: f64,
    counters_ns: f64,
    full_ns: f64,
}

/// Times the ARVI machine over one m88ksim recording three ways —
/// probe-off (`NullProbe`), with the `CounterProbe` attached, and with
/// the full counters + per-site stack — interleaved so host drift hits
/// all sides equally, asserting every side produces identical figures.
fn probe_micro(spec: Spec) -> ProbeSide {
    let trace = Arc::new(record_trace(&Workload::from(Benchmark::M88ksim), spec));
    let insts = (spec.warmup + spec.measure) as f64;
    let name = intern_name(trace.name());
    let params = || SimParams::for_depth(Depth::D20);
    let config = PredictorConfig::ArviCurrent;
    let mut off_s = f64::INFINITY;
    let mut counters_s = f64::INFINITY;
    let mut full_s = f64::INFINITY;
    let mut off_window = None;
    let mut full_window = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let off = simulate_source(
            name,
            TraceReplayer::new(Arc::clone(&trace)),
            params(),
            config,
            spec.warmup,
            spec.measure,
        );
        off_s = off_s.min(t0.elapsed().as_secs_f64());
        off_window = Some(off.window);

        let t0 = Instant::now();
        let (_, probe) = simulate_source_probed(
            name,
            TraceReplayer::new(Arc::clone(&trace)),
            params(),
            config,
            spec.warmup,
            spec.measure,
            CounterProbe::new(),
        );
        counters_s = counters_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(probe.cycles);

        let t0 = Instant::now();
        let (full, probe) = simulate_source_probed(
            name,
            TraceReplayer::new(Arc::clone(&trace)),
            params(),
            config,
            spec.warmup,
            spec.measure,
            (CounterProbe::new(), SiteProbe::new()),
        );
        full_s = full_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(probe.1.sites);
        full_window = Some(full.window);
    }
    let (o, f) = (off_window.unwrap(), full_window.unwrap());
    assert_eq!(
        (o.cycles, o.committed, o.cond_branches.correct()),
        (f.cycles, f.committed, f.cond_branches.correct()),
        "probed machine diverged from the probe-off machine on {name}"
    );
    ProbeSide {
        off_ns: off_s * 1e9 / insts,
        counters_ns: counters_s * 1e9 / insts,
        full_ns: full_s * 1e9 / insts,
    }
}

/// Every flag `perf_report` accepts, and whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--threads", true),
    ("--trace-dir", true),
    ("--out", true),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (threads, trace_dir, out_path) = check_flags(&args, FLAGS)
        .and_then(|()| {
            Ok((
                threads_from_args(&args)?,
                trace_dir_from_args(&args)?,
                flag_value(&args, "--out")?.cloned(),
            ))
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });

    let spec = if quick {
        Spec {
            warmup: 5_000,
            measure: 15_000,
            seed: 42,
        }
    } else {
        Spec::quick()
    };
    // The probe micro's m88ksim window.
    let (warmup, measure) = if quick {
        (10_000, 90_000)
    } else {
        (20_000, 280_000)
    };
    let micro_spec = Spec {
        warmup,
        measure,
        seed: 42,
    };

    // 1. Quick fig6 sweep (every benchmark x configuration at 20
    // stages), replayed over shared traces.
    let res = Resilience::new();
    let points = grid(&Workload::suite(), &[Depth::D20], &PredictorConfig::all());
    eprintln!(
        "perf_report: quick fig6 grid ({} cells, {} threads), replayed...",
        points.len(),
        threads
    );
    let traces = TraceSet::record(&Workload::suite(), spec, threads, trace_dir.as_deref());
    let t0 = Instant::now();
    GridRun::run(points.clone(), spec, threads, false, &traces, &res, None)
        .results(|_| true)
        .unwrap_or_else(|incomplete| panic!("{incomplete}"));
    let replay_s = t0.elapsed().as_secs_f64();
    let sweep_insts = (points.len() as u64 * (spec.warmup + spec.measure)) as f64;
    let sweep_ns = replay_s * 1e9 / sweep_insts;
    eprintln!("  replayed sweep {replay_s:.2} s ({sweep_ns:.0} ns/inst overall)");

    // 2. Probe overhead: the observability seam probe-off vs probe-on.
    eprintln!(
        "perf_report: probe overhead (ARVI machine, m88ksim, off vs counters vs counters+sites, best of 3 interleaved)..."
    );
    let probe = probe_micro(micro_spec);
    let counters_overhead_pct = (probe.counters_ns - probe.off_ns) / probe.off_ns * 100.0;
    let full_overhead_pct = (probe.full_ns - probe.off_ns) / probe.off_ns * 100.0;
    eprintln!(
        "  probe-off {:.0} ns/inst | counters {:.0} ns/inst ({counters_overhead_pct:+.1}%) | \
         counters+sites {:.0} ns/inst ({full_overhead_pct:+.1}%); figures identical",
        probe.off_ns, probe.counters_ns, probe.full_ns,
    );

    // 3a. Sampled-vs-full error study: every suite benchmark and every
    // curated scenario (20-stage, ARVI current value) estimated at
    // 1-in-{2,4,8} sampling rates against its full-run ground truth.
    let err_workloads: Vec<Workload> = Workload::suite()
        .into_iter()
        .chain(Workload::curated_scenarios())
        .collect();
    let err_points = grid(
        &err_workloads,
        &[Depth::D20],
        &[PredictorConfig::ArviCurrent],
    );
    eprintln!(
        "perf_report: sampled-vs-full error study ({} cells: suite + curated scenarios)...",
        err_points.len()
    );
    let err_traces = TraceSet::record(&err_workloads, spec, threads, trace_dir.as_deref());
    let full = GridRun::run(
        err_points.clone(),
        spec,
        threads,
        false,
        &err_traces,
        &res,
        None,
    )
    .results(|_| true)
    .unwrap_or_else(|incomplete| panic!("{incomplete}"));
    let detail = (spec.measure / 40).max(1);
    // The study windows are short, so units get *full* functional
    // warming: a unit warm-up at least as long as the region means
    // every unit trains on its entire trace prefix, leaving only the
    // warm-model approximation and sampling variance in the error.
    let full_warm = spec.warmup + spec.measure;
    let mut rate_json = Vec::new();
    for k in [2u64, 4, 8] {
        let plan = SamplePlan::systematic(k, full_warm, detail);
        let t0 = Instant::now();
        let sweep = GridRun::run(
            err_points.clone(),
            spec,
            threads,
            false,
            &err_traces,
            &res,
            Some(&plan),
        );
        let reports = sweep.reports.expect("a sampled run");
        let sampled_s = t0.elapsed().as_secs_f64();
        let mut rows = Vec::new();
        let mut covered = 0usize;
        let mut max_err = 0.0f64;
        let mut sum_err = 0.0f64;
        let mut units = 0usize;
        for (i, point) in err_points.iter().enumerate() {
            let report = reports[i]
                .as_ref()
                .expect("every error-study cell has a recording, so every cell samples");
            let full_ipc = full[i].window.ipc();
            let full_acc = full[i].window.cond_branches.rate();
            let rel_err = (report.ipc.mean - full_ipc).abs() / full_ipc * 100.0;
            let within = report.ipc.ci_contains(full_ipc);
            covered += within as usize;
            max_err = max_err.max(rel_err);
            sum_err += rel_err;
            units = report.units();
            rows.push(Json::obj([
                ("workload", Json::str(point.workload.name())),
                ("full_ipc", Json::Num(full_ipc)),
                ("sampled_ipc", Json::Num(report.ipc.mean)),
                ("ipc_rel_err_pct", Json::Num(rel_err)),
                ("ipc_ci_lo", Json::Num(report.ipc.ci_lo())),
                ("ipc_ci_hi", Json::Num(report.ipc.ci_hi())),
                ("within_ci", Json::Bool(within)),
                ("full_accuracy", Json::Num(full_acc)),
                ("sampled_accuracy", Json::Num(report.accuracy.mean)),
                (
                    "accuracy_abs_err",
                    Json::Num((report.accuracy.mean - full_acc).abs()),
                ),
            ]));
        }
        let cover = covered as f64 / err_points.len() as f64;
        eprintln!(
            "  1-in-{k} ({units} units/cell): mean |IPC err| {:.2}%, max {:.2}%, CI covers {}/{} cells, {:.2} s",
            sum_err / err_points.len() as f64,
            max_err,
            covered,
            err_points.len(),
            sampled_s,
        );
        rate_json.push(Json::obj([
            ("k", Json::Num(k as f64)),
            ("plan", Json::str(plan.to_string())),
            ("units_per_cell", Json::Num(units as f64)),
            ("coverage", Json::Num(1.0 / k as f64)),
            (
                "mean_abs_rel_err_pct",
                Json::Num(sum_err / err_points.len() as f64),
            ),
            ("max_abs_rel_err_pct", Json::Num(max_err)),
            ("ci_cover_fraction", Json::Num(cover)),
            ("sampled_s", Json::Num(sampled_s)),
            ("cells", Json::Arr(rows)),
        ]));
    }

    // 3b. The long-window speedup guardrail: one cell, run full-length
    // serially vs sampled at 1-in-8 with per-unit fan-out. This is the
    // case interval sampling exists for — a window too long to wait on
    // serially, turned into embarrassingly parallel units. The cell is
    // the stationary history-3 scenario: the ratio estimator's
    // assumptions hold there, so the measured error is the sampling
    // machinery's own bias, not program phase structure (the suite
    // benchmarks' phase behaviour is quantified honestly in 3a). The
    // plan's 200k-instruction warm-up covers the slowest-filling
    // microarchitectural state and its 200k detail windows amortize
    // the warm cost at 1-in-8 coverage, which is what pushes the
    // serial work reduction past 4x even on a single core. Same window
    // in quick and full mode — a guardrail metric must not change
    // meaning with the mode.
    let long_spec = Spec {
        warmup: 20_000,
        measure: 8_000_000,
        seed: 42,
    };
    let long_workload =
        Workload::scenario(arvi_synth::find("history-3").expect("curated scenario exists"));
    eprintln!(
        "perf_report: long-window cell (history-3, {} measured insts): full serial vs sampled 1-in-8 on {} threads...",
        long_spec.measure, threads
    );
    let long_trace = Arc::new(record_trace(&long_workload, long_spec));
    let long_params = SimParams::for_depth(Depth::D20);
    let long_plan = SamplePlan::systematic(8, 200_000, 200_000);
    let mut full_long_s = f64::INFINITY;
    let mut sampled_long_s = f64::INFINITY;
    let mut full_long_ipc = 0.0;
    let mut long_report = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        let r = run_one_traced(
            &long_trace,
            Depth::D20,
            PredictorConfig::ArviCurrent,
            long_spec,
        );
        full_long_s = full_long_s.min(t0.elapsed().as_secs_f64());
        full_long_ipc = r.window.ipc();

        let t0 = Instant::now();
        let report = sample_region(
            &long_trace,
            &long_params,
            PredictorConfig::ArviCurrent,
            &long_plan,
            long_spec.warmup,
            long_spec.measure,
            long_spec.seed,
            threads,
        )
        .expect("sampling the long window");
        sampled_long_s = sampled_long_s.min(t0.elapsed().as_secs_f64());
        long_report = Some(report);
    }
    let long_report = long_report.unwrap();
    let sampled_speedup = full_long_s / sampled_long_s;
    let sampled_ipc_abs_error =
        (long_report.ipc.mean - full_long_ipc).abs() / full_long_ipc * 100.0;
    let long_within = long_report.ipc.ci_contains(full_long_ipc);
    eprintln!(
        "  full serial {full_long_s:.2} s (IPC {full_long_ipc:.4}) vs sampled {sampled_long_s:.2} s \
         (IPC {:.4} ± {:.4}, {} units): {sampled_speedup:.1}x speedup, |IPC err| {sampled_ipc_abs_error:.2}%, \
         true value {} the 95% CI",
        long_report.ipc.mean,
        long_report.ipc.ci_half_width(),
        long_report.units(),
        if long_within { "inside" } else { "OUTSIDE" },
    );

    let report = Json::obj([
        ("host_cores", Json::Num(arvi_trace::par::cores() as f64)),
        ("quick", Json::Bool(quick)),
        (
            "sweep",
            Json::obj([
                (
                    "grid",
                    Json::str("fig6 quick (8 benchmarks x 4 configs, 20-stage)"),
                ),
                ("points", Json::Num(points.len() as f64)),
                ("threads", Json::Num(threads as f64)),
                ("replayed_s", Json::Num(replay_s)),
                ("ns_per_inst", Json::Num(sweep_ns)),
            ]),
        ),
        (
            "probe",
            Json::obj([
                ("workload", Json::str("m88ksim")),
                ("config", Json::str("arvi_current")),
                (
                    "insts",
                    Json::Num((micro_spec.warmup + micro_spec.measure) as f64),
                ),
                ("off_ns_per_inst", Json::Num(probe.off_ns)),
                ("counters_ns_per_inst", Json::Num(probe.counters_ns)),
                ("counters_overhead_pct", Json::Num(counters_overhead_pct)),
                ("full_ns_per_inst", Json::Num(probe.full_ns)),
                ("full_overhead_pct", Json::Num(full_overhead_pct)),
                ("bit_identical", Json::Bool(true)),
            ]),
        ),
        (
            "sampled",
            Json::obj([
                (
                    "error_study",
                    Json::obj([
                        (
                            "grid",
                            Json::str("suite + curated scenarios (20-stage, arvi current value)"),
                        ),
                        ("cells", Json::Num(err_points.len() as f64)),
                        ("detail_insts", Json::Num(detail as f64)),
                        ("rates", Json::Arr(rate_json)),
                    ]),
                ),
                (
                    "long_window",
                    Json::obj([
                        ("workload", Json::str("history-3")),
                        ("measure_insts", Json::Num(long_spec.measure as f64)),
                        ("plan", Json::str(long_plan.to_string())),
                        ("threads", Json::Num(threads as f64)),
                        ("full_serial_s", Json::Num(full_long_s)),
                        ("sampled_s", Json::Num(sampled_long_s)),
                        ("speedup", Json::Num(sampled_speedup)),
                        ("full_ipc", Json::Num(full_long_ipc)),
                        ("sampled_ipc", Json::Num(long_report.ipc.mean)),
                        (
                            "ipc_ci_half_width",
                            Json::Num(long_report.ipc.ci_half_width()),
                        ),
                        ("ipc_abs_err_pct", Json::Num(sampled_ipc_abs_error)),
                        ("within_ci", Json::Bool(long_within)),
                        ("units", Json::Num(long_report.units() as f64)),
                    ]),
                ),
            ]),
        ),
        // Flat metrics for the CI perf guardrail (perf_guard).
        (
            "guardrail",
            Json::obj([
                ("machine_arvi_ns_per_inst", Json::Num(probe.off_ns)),
                ("sweep_ns_per_inst", Json::Num(sweep_ns)),
                ("sampled_speedup_vs_full", Json::Num(sampled_speedup)),
                ("sampled_ipc_abs_error", Json::Num(sampled_ipc_abs_error)),
            ]),
        ),
    ]);
    if let Some(out_path) = out_path {
        write_report(std::path::Path::new(&out_path), &report).expect("write the report");
        eprintln!("perf_report: wrote {out_path}");
    }
    println!("{}", report.render());
}
