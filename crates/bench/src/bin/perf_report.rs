//! Performance report: quantifies the hot paths against their preserved
//! baselines and emits a machine-readable `BENCH_PR9.json` so the perf
//! trajectory is tracked PR over PR (`BENCH_PR1.json`–`BENCH_PR8.json`
//! preserve the earlier trails; `bench_history` renders the whole
//! trajectory with noise-band regression flags).
//!
//! 1. **Branch-path micro** — ns per branch of the packed-counter,
//!    index-carrying 2Bc-gskew vs the preserved scalar
//!    `arvi_bench::baseline::ScalarTwoBcGskew` over the same recorded
//!    m88ksim branch stream (delayed-update protocol, interleaved
//!    best-of-3, with a stream-identity assertion) — the PR 5 trail.
//! 2. **Machine micro** — ns per committed instruction of the wheel
//!    machine vs `arvi_bench::baseline::HeapMachine` replaying the same
//!    m88ksim recording (interleaved best-of-3 per side, with a
//!    cycle-identity assertion), for the pure timing path
//!    (2-level gskew) and the ARVI path.
//! 3. **DDT micro** — steady-state insert+commit and deep chain read of
//!    `arvi_core::Ddt` vs the preserved `NaiveDdt` (the PR 1 trail,
//!    kept hot so the guardrail watches both hot paths).
//! 4. **Sweep** — the quick Figure-6 grid replayed over shared traces,
//!    asserted bit-identical to per-cell live emulation (the PR 2
//!    guarantee), with the whole-sweep ns/inst.
//! 5. **Journal overhead** — the same grid on the same executor with
//!    per-cell journaling on, asserted bit-identical, reporting what the
//!    journal (fingerprint + line append per cell) costs over the
//!    journal-free sweep of §4.
//! 6. **Probe overhead** — the PR 7 observability seam: the ARVI
//!    machine timed probe-off (`NullProbe`, what every sweep runs) vs
//!    with the zero-alloc `CounterProbe` attached vs the full obs stack
//!    (counters + per-site attribution), interleaved best-of-3, with
//!    bit-identity asserted between all sides. Probe-off cost is
//!    already gated by the `machine_*` guardrail metrics; the probe-on
//!    numbers document what turning telemetry on costs.
//! 7. **Sampled simulation** — the PR 9 interval-sampling path. An
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
//! The `guardrail` section of the JSON is the flat metric set
//! `perf_guard` compares against the checked-in `BENCH_BASELINE.json`
//! in CI.
//!
//! Usage: `perf_report [--quick] [--threads N] [--trace-dir DIR] [--out PATH]`
//!
//! An unknown flag, a positional argument, or `--out` without a path
//! exits 2 before any work, writing no file.

use std::sync::Arc;
use std::time::Instant;

use arvi_bench::baseline::ScalarTwoBcGskew;
use arvi_bench::{
    baseline, check_flags, flag_value, grid, record_trace, run_one_traced, threads_from_args,
    trace_dir_from_args, trace_len, write_report, GridRun, Json, Resilience, Spec, SweepPoint,
    TraceSet, Workload,
};
use arvi_bench::{conditional_branches, run_delayed, run_delayed_scalar};
use arvi_core::{Ddt, DdtConfig, PhysReg};
use arvi_obs::{CounterProbe, SiteProbe};
use arvi_predict::{GskewConfig, TwoBcGskew};
use arvi_sampling::{sample_region, SamplePlan};
use arvi_sim::{
    intern_name, simulate_source, simulate_source_probed, Depth, PredictorConfig, SimParams,
};
use arvi_trace::{Trace, TraceReplayer};
use arvi_workloads::Benchmark;

struct MachineSide {
    wheel_ns: f64,
    heap_ns: f64,
}

struct BranchSide {
    packed_ns: f64,
    scalar_ns: f64,
}

/// Times the packed vs scalar 2Bc-gskew (level-2 size) through the
/// machine-shaped delayed-update protocol ([`arvi_bench::run_delayed`])
/// over the same branch stream: both sides are trained over the stream
/// once (warm, steady-state tables), then timed over alternating
/// whole-stream passes (min of `reps` per side, pairwise interleaved
/// against host drift). The warm pass asserts the two sides' predicted
/// direction *streams* identical (order-sensitive hash, not just the
/// aggregate accuracy count).
fn branch_micro(stream: &[(u64, bool)], window: usize, reps: u32) -> BranchSide {
    // Warm pass doubles as the stream-identity assertion.
    let mut packed = TwoBcGskew::new(GskewConfig::level2());
    let mut scalar = ScalarTwoBcGskew::new(GskewConfig::level2());
    let p0 = run_delayed(&mut packed, stream, window);
    let s0 = run_delayed_scalar(&mut scalar, stream, window);
    assert_eq!(
        p0, s0,
        "packed gskew diverged from the scalar baseline on the branch stream"
    );

    let mut packed_s = f64::INFINITY;
    let mut scalar_s = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(run_delayed(&mut packed, stream, window));
        packed_s = packed_s.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        std::hint::black_box(run_delayed_scalar(&mut scalar, stream, window));
        scalar_s = scalar_s.min(t0.elapsed().as_secs_f64());
    }
    let n = stream.len().max(1) as f64;
    BranchSide {
        packed_ns: packed_s * 1e9 / n,
        scalar_ns: scalar_s * 1e9 / n,
    }
}

/// A synthetic table-pressure stream: `sites` distinct branch PCs in
/// seeded-random order with value-dependent outcomes. A site count in
/// the tens of thousands makes the working set span the whole level-2
/// table — the scalar layout streams 256 KB of counters through the
/// cache where the packed layout touches 32 KB; the recorded benchmark
/// streams concentrate on far fewer sites and fit either way.
fn pressure_stream(sites: u64, len: usize) -> Vec<(u64, bool)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = ((x >> 24) % sites) << 2;
            let taken = (x >> 60) & 0b11 != 0;
            (pc, taken)
        })
        .collect()
}

/// Times one predictor configuration through both machines over a shared
/// recording (interleaved so host drift hits both sides equally) and
/// asserts the two produce identical figures.
fn machine_micro(trace: &Arc<Trace>, config: PredictorConfig, spec: Spec) -> MachineSide {
    let insts = (spec.warmup + spec.measure) as f64;
    let name = intern_name(trace.name());
    let mut wheel_s = f64::INFINITY;
    let mut heap_s = f64::INFINITY;
    let mut wheel_window = None;
    let mut heap_window = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let w = simulate_source(
            name,
            TraceReplayer::new(Arc::clone(trace)),
            SimParams::for_depth(Depth::D20),
            config,
            spec.warmup,
            spec.measure,
        );
        wheel_s = wheel_s.min(t0.elapsed().as_secs_f64());
        wheel_window = Some(w.window);

        let t0 = Instant::now();
        let h = baseline::simulate_source_heap(
            name,
            TraceReplayer::new(Arc::clone(trace)),
            SimParams::for_depth(Depth::D20),
            config,
            spec.warmup,
            spec.measure,
        );
        heap_s = heap_s.min(t0.elapsed().as_secs_f64());
        heap_window = Some(h.window);
    }
    let (w, h) = (wheel_window.unwrap(), heap_window.unwrap());
    assert_eq!(
        (
            w.cycles,
            w.committed,
            w.cond_branches.correct(),
            w.overrides
        ),
        (
            h.cycles,
            h.committed,
            h.cond_branches.correct(),
            h.overrides
        ),
        "wheel machine diverged from heap baseline on {name} / {config}"
    );
    MachineSide {
        wheel_ns: wheel_s * 1e9 / insts,
        heap_ns: heap_s * 1e9 / insts,
    }
}

struct ProbeSide {
    off_ns: f64,
    counters_ns: f64,
    full_ns: f64,
}

/// Times the ARVI machine over a shared recording three ways — probe-off
/// (`NullProbe`), with the `CounterProbe` attached, and with the full
/// counters + per-site stack — interleaved so host drift hits all sides
/// equally, asserting every side produces identical figures.
fn probe_micro(trace: &Arc<Trace>, spec: Spec) -> ProbeSide {
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
            TraceReplayer::new(Arc::clone(trace)),
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
            TraceReplayer::new(Arc::clone(trace)),
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
            TraceReplayer::new(Arc::clone(trace)),
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

struct DdtSide {
    fast_ns: f64,
    naive_ns: f64,
}

/// Steady-state insert+commit cost of the optimized DDT vs the preserved
/// allocating baseline (paper shape: 256 slots x 320 registers).
fn ddt_micro(iters: u32) -> DdtSide {
    let cfg = DdtConfig {
        slots: 256,
        phys_regs: 320,
    };
    let dest = |i: u32| PhysReg(32 + (i % 280) as u16);

    let mut fast = Ddt::new(cfg);
    let mut naive = baseline::NaiveDdt::new(cfg);
    let mut fast_s = f64::INFINITY;
    let mut naive_s = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for i in 0..iters {
            if fast.is_full() {
                fast.commit_oldest();
            }
            std::hint::black_box(fast.insert(Some(dest(i)), [Some(dest(i + 1)), None]));
        }
        fast_s = fast_s.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for i in 0..iters {
            if naive.is_full() {
                naive.commit_oldest();
            }
            std::hint::black_box(naive.insert(Some(dest(i)), [Some(dest(i + 1)), None]));
        }
        naive_s = naive_s.min(t0.elapsed().as_secs_f64());
    }
    DdtSide {
        fast_ns: fast_s * 1e9 / iters as f64,
        naive_ns: naive_s * 1e9 / iters as f64,
    }
}

/// Every flag `perf_report` accepts, and whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--threads", true),
    ("--trace-dir", true),
    ("--out", true),
];

/// The quick Figure-6 grid: every benchmark x configuration at 20
/// stages.
fn fig6_points() -> Vec<SweepPoint> {
    grid(&Workload::suite(), &[Depth::D20], &PredictorConfig::all())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (threads, trace_dir, out_path) = check_flags(&args, FLAGS)
        .and_then(|()| {
            let out = flag_value(&args, "--out")?.map_or("BENCH_PR9.json", String::as_str);
            Ok((
                threads_from_args(&args)?,
                trace_dir_from_args(&args)?,
                out.to_string(),
            ))
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });

    let (spec, micro_spec, ddt_iters) = if quick {
        (
            Spec {
                warmup: 5_000,
                measure: 15_000,
                seed: 42,
            },
            Spec {
                warmup: 10_000,
                measure: 90_000,
                seed: 42,
            },
            400_000,
        )
    } else {
        (
            Spec::quick(),
            Spec {
                warmup: 20_000,
                measure: 280_000,
                seed: 42,
            },
            2_000_000,
        )
    };

    // 1. Branch-path micro: packed vs preserved scalar predictor, over
    // the recorded m88ksim stream and a table-pressure stream.
    let trace = Arc::new(record_trace(
        &Workload::from(Benchmark::M88ksim),
        micro_spec,
    ));
    let reps = if quick { 7 } else { 15 };
    eprintln!(
        "perf_report: branch-path micro (packed vs scalar 2Bc-gskew, warm tables, min of {reps} alternating passes)..."
    );
    let branch = branch_micro(&conditional_branches(&trace), 8, reps);
    eprintln!(
        "  m88ksim stream: packed {:.1} ns/branch vs scalar {:.1} ns/branch ({:.2}x); streams identical",
        branch.packed_ns,
        branch.scalar_ns,
        branch.scalar_ns / branch.packed_ns,
    );
    let pressure = branch_micro(&pressure_stream(60_000, 200_000), 8, reps);
    eprintln!(
        "  pressure stream (60k sites): packed {:.1} ns/branch vs scalar {:.1} ns/branch ({:.2}x)",
        pressure.packed_ns,
        pressure.scalar_ns,
        pressure.scalar_ns / pressure.packed_ns,
    );

    // 2. Machine micro: wheel vs preserved heap baseline.
    eprintln!(
        "perf_report: machine micro (m88ksim, {} insts, wheel vs heap, best of 3 interleaved)...",
        trace_len(micro_spec)
    );
    let gskew = machine_micro(&trace, PredictorConfig::TwoLevelGskew, micro_spec);
    let arvi = machine_micro(&trace, PredictorConfig::ArviCurrent, micro_spec);
    eprintln!(
        "  gskew: wheel {:.0} ns/inst vs heap {:.0} ns/inst ({:.2}x) | \
         arvi: wheel {:.0} vs heap {:.0} ({:.2}x); figures identical",
        gskew.wheel_ns,
        gskew.heap_ns,
        gskew.heap_ns / gskew.wheel_ns,
        arvi.wheel_ns,
        arvi.heap_ns,
        arvi.heap_ns / arvi.wheel_ns,
    );

    // 3. DDT micro: optimized vs preserved naive baseline.
    eprintln!("perf_report: DDT micro ({ddt_iters} steady-state insert+commit iters)...");
    let ddt = ddt_micro(ddt_iters);
    eprintln!(
        "  insert+commit: fast {:.1} ns vs naive {:.1} ns ({:.2}x)",
        ddt.fast_ns,
        ddt.naive_ns,
        ddt.naive_ns / ddt.fast_ns
    );

    // 4. Quick fig6 sweep, replayed over shared traces, asserted
    // bit-identical to per-cell emulation.
    let points = fig6_points();
    eprintln!(
        "perf_report: quick fig6 grid ({} cells, {} threads): replay vs per-cell emulation...",
        points.len(),
        threads
    );
    let sweep = |traces: Option<&TraceSet>, res: Option<&Resilience>| {
        GridRun::run(points.clone(), spec, threads, false, traces, res, None)
            .results(|_| true)
            .unwrap_or_else(|incomplete| panic!("{incomplete}"))
    };
    let t0 = Instant::now();
    let emulated = sweep(None, None);
    let emulated_s = t0.elapsed().as_secs_f64();
    let traces = TraceSet::record(&Workload::suite(), spec, threads, trace_dir.as_deref());
    let t0 = Instant::now();
    let replayed = sweep(Some(&traces), None);
    let replay_s = t0.elapsed().as_secs_f64();
    for (e, r) in emulated.iter().zip(&replayed) {
        assert_eq!(
            (e.window.cycles, e.window.committed),
            (r.window.cycles, r.window.committed),
            "trace replay diverged from live emulation on {} / {}",
            e.name,
            e.config
        );
    }
    let sweep_insts = (points.len() as u64 * (spec.warmup + spec.measure)) as f64;
    let sweep_ns = replay_s * 1e9 / sweep_insts;
    eprintln!(
        "  replayed sweep {replay_s:.2} s ({sweep_ns:.0} ns/inst overall) vs emulated {emulated_s:.2} s; bit-identical"
    );

    // 5. The same grid on the same executor with per-cell journaling:
    // what does the journal cost on the happy path?
    let journal_path =
        std::env::temp_dir().join(format!("arvi-perf-sweep-{}.journal", std::process::id()));
    std::fs::remove_file(&journal_path).ok();
    let res = Resilience::new().with_journal(&journal_path);
    eprintln!("perf_report: same grid, journaled...");
    let t0 = Instant::now();
    let journaled = sweep(Some(&traces), Some(&res));
    let journaled_s = t0.elapsed().as_secs_f64();
    for (e, r) in replayed.iter().zip(&journaled) {
        assert_eq!(
            (e.window.cycles, e.window.committed),
            (r.window.cycles, r.window.committed),
            "journaled sweep diverged from the journal-free sweep on {} / {}",
            e.name,
            e.config
        );
    }
    std::fs::remove_file(&journal_path).ok();
    let journal_overhead_pct = (journaled_s - replay_s) / replay_s * 100.0;
    eprintln!(
        "  journaled sweep {journaled_s:.2} s vs journal-free {replay_s:.2} s \
         ({journal_overhead_pct:+.1}% journal overhead); bit-identical"
    );

    // 6. Probe overhead: the observability seam probe-off vs probe-on.
    eprintln!(
        "perf_report: probe overhead (ARVI machine, m88ksim, off vs counters vs counters+sites, best of 3 interleaved)..."
    );
    let probe = probe_micro(&trace, micro_spec);
    let counters_overhead_pct = (probe.counters_ns - probe.off_ns) / probe.off_ns * 100.0;
    let full_overhead_pct = (probe.full_ns - probe.off_ns) / probe.off_ns * 100.0;
    eprintln!(
        "  probe-off {:.0} ns/inst | counters {:.0} ns/inst ({counters_overhead_pct:+.1}%) | \
         counters+sites {:.0} ns/inst ({full_overhead_pct:+.1}%); figures identical",
        probe.off_ns, probe.counters_ns, probe.full_ns,
    );

    // 7a. Sampled-vs-full error study: every suite benchmark and every
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
        Some(&err_traces),
        None,
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
            Some(&err_traces),
            None,
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

    // 7b. The long-window speedup guardrail: one cell, run full-length
    // serially vs sampled at 1-in-8 with per-unit fan-out. This is the
    // case interval sampling exists for — a window too long to wait on
    // serially, turned into embarrassingly parallel units. The cell is
    // the stationary history-3 scenario: the ratio estimator's
    // assumptions hold there, so the measured error is the sampling
    // machinery's own bias, not program phase structure (the suite
    // benchmarks' phase behaviour is quantified honestly in 7a). The
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

    let side = |m: &MachineSide| {
        Json::obj([
            ("wheel_ns_per_inst", Json::Num(m.wheel_ns)),
            ("heap_baseline_ns_per_inst", Json::Num(m.heap_ns)),
            ("speedup_vs_heap", Json::Num(m.heap_ns / m.wheel_ns)),
            ("cycle_identical", Json::Bool(true)),
        ])
    };
    let report = Json::obj([
        ("pr", Json::Num(9.0)),
        (
            "title",
            Json::str("sampled simulation: interval sampling, intra-run parallelism and CIs"),
        ),
        (
            "host_cores",
            Json::Num(arvi_bench::default_threads() as f64),
        ),
        ("quick", Json::Bool(quick)),
        (
            "branch_path",
            Json::obj([
                ("workload", Json::str("m88ksim")),
                ("update_window_branches", Json::Num(8.0)),
                ("packed_ns_per_branch", Json::Num(branch.packed_ns)),
                ("scalar_baseline_ns_per_branch", Json::Num(branch.scalar_ns)),
                (
                    "speedup_vs_scalar",
                    Json::Num(branch.scalar_ns / branch.packed_ns),
                ),
                ("stream_identical", Json::Bool(true)),
                (
                    "pressure",
                    Json::obj([
                        ("sites", Json::Num(60_000.0)),
                        ("packed_ns_per_branch", Json::Num(pressure.packed_ns)),
                        (
                            "scalar_baseline_ns_per_branch",
                            Json::Num(pressure.scalar_ns),
                        ),
                        (
                            "speedup_vs_scalar",
                            Json::Num(pressure.scalar_ns / pressure.packed_ns),
                        ),
                    ]),
                ),
            ]),
        ),
        (
            "machine",
            Json::obj([
                ("workload", Json::str("m88ksim")),
                (
                    "insts",
                    Json::Num((micro_spec.warmup + micro_spec.measure) as f64),
                ),
                ("depth_stages", Json::Num(20.0)),
                ("gskew", side(&gskew)),
                ("arvi_current", side(&arvi)),
            ]),
        ),
        (
            "ddt",
            Json::obj([
                ("iters", Json::Num(ddt_iters as f64)),
                ("fast_ns_per_insert", Json::Num(ddt.fast_ns)),
                ("naive_ns_per_insert", Json::Num(ddt.naive_ns)),
                ("speedup_vs_naive", Json::Num(ddt.naive_ns / ddt.fast_ns)),
            ]),
        ),
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
                ("emulated_s", Json::Num(emulated_s)),
                ("ns_per_inst", Json::Num(sweep_ns)),
                ("bit_identical", Json::Bool(true)),
                ("journaled_s", Json::Num(journaled_s)),
                ("journal_overhead_pct", Json::Num(journal_overhead_pct)),
                ("journaled_bit_identical", Json::Bool(true)),
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
                ("branch_gskew_ns_per_branch", Json::Num(branch.packed_ns)),
                (
                    "branch_gskew_speedup_vs_scalar",
                    Json::Num(branch.scalar_ns / branch.packed_ns),
                ),
                (
                    "branch_pressure_speedup_vs_scalar",
                    Json::Num(pressure.scalar_ns / pressure.packed_ns),
                ),
                ("machine_gskew_ns_per_inst", Json::Num(gskew.wheel_ns)),
                ("machine_arvi_ns_per_inst", Json::Num(arvi.wheel_ns)),
                (
                    "machine_gskew_speedup_vs_heap",
                    Json::Num(gskew.heap_ns / gskew.wheel_ns),
                ),
                (
                    "machine_arvi_speedup_vs_heap",
                    Json::Num(arvi.heap_ns / arvi.wheel_ns),
                ),
                ("ddt_insert_ns", Json::Num(ddt.fast_ns)),
                (
                    "ddt_insert_speedup_vs_naive",
                    Json::Num(ddt.naive_ns / ddt.fast_ns),
                ),
                ("sweep_ns_per_inst", Json::Num(sweep_ns)),
                ("sampled_speedup_vs_full", Json::Num(sampled_speedup)),
                ("sampled_ipc_abs_error", Json::Num(sampled_ipc_abs_error)),
            ]),
        ),
    ]);
    write_report(std::path::Path::new(&out_path), &report).expect("write BENCH json");
    eprintln!("perf_report: wrote {out_path}");
    println!("{}", report.render());
}
