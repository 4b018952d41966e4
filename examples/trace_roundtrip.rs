//! The record-once / replay-many workflow, end to end: record a short
//! m88ksim trace, persist it to disk, reload + verify it, then replay
//! it through the timing simulator under every predictor configuration
//! and check the results match live emulation exactly.
//!
//! Run with: `cargo run --release --example trace_roundtrip`

use std::sync::Arc;

use arvi::isa::Emulator;
use arvi::sim::{intern_name, simulate, simulate_source, Depth, PredictorConfig, SimParams};
use arvi::trace::{Trace, TraceReplayer};
use arvi::workloads::Benchmark;

fn main() {
    let bench = Benchmark::M88ksim;
    let seed = 42;
    let (warmup, measure) = (20_000u64, 60_000u64);
    // Record past the window: the machine fetches ahead of commit by up
    // to the ROB size, so give the replayed stream the same slack the
    // sweep harness uses.
    let recorded = warmup + measure + 4_096;

    println!("== record ==");
    let emu = Emulator::new(bench.program(seed));
    let trace = Trace::record(emu, recorded, bench.name(), seed);
    println!(
        "{}: {} instructions -> {} encoded bytes ({:.2} B/inst, {} chunks)",
        bench,
        trace.len(),
        trace.encoded_bytes(),
        trace.encoded_bytes() as f64 / trace.len() as f64,
        trace.chunk_count(),
    );

    println!("\n== persist / reload ==");
    let dir = std::env::temp_dir().join("arvi-trace-roundtrip");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{}-s{seed}.arvitrace", bench.name()));
    trace.write_to(&path).expect("write trace");
    let reloaded = Arc::new(Trace::read_from(&path).expect("reload trace (fully verified)"));
    println!(
        "{} ({} bytes on disk) reloaded and checksum-verified",
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
    );

    // The footer index makes the recording seekable: hop straight past
    // the warmup prefix without decoding it.
    let mut reader = TraceReplayer::new(Arc::clone(&reloaded));
    reader.fast_forward(warmup);
    let first_measured = reader.next().expect("record past warmup");
    println!(
        "fast-forward past warmup: first measured record is seq {} at pc {}",
        first_measured.seq, first_measured.pc
    );

    println!("\n== replay vs live emulation (20-stage) ==");
    println!(
        "{:<20} {:>10} {:>10} {:>12} {:>12}  match",
        "config", "live IPC", "replay IPC", "live acc", "replay acc"
    );
    for config in PredictorConfig::all() {
        let live = simulate(
            bench.program(seed),
            SimParams::for_depth(Depth::D20),
            config,
            warmup,
            measure,
        );
        let replay = simulate_source(
            intern_name(reloaded.name()),
            TraceReplayer::new(Arc::clone(&reloaded)),
            SimParams::for_depth(Depth::D20),
            config,
            warmup,
            measure,
        );
        let identical = live.window.cycles == replay.window.cycles
            && live.window.committed == replay.window.committed
            && live.window.cond_branches.correct() == replay.window.cond_branches.correct();
        println!(
            "{:<20} {:>10.3} {:>10.3} {:>11.2}% {:>11.2}%  {}",
            config.label(),
            live.ipc(),
            replay.ipc(),
            live.accuracy() * 100.0,
            replay.accuracy() * 100.0,
            if identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
        );
        assert!(identical, "replay diverged from live emulation");
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("\nrecord once, replay many: one functional execution fed all four configurations.");
}
