//! Golden digests: the figures of the timing machine and the branch
//! predictors, pinned at fixed cells against a checked-in file.
//!
//! `tests/golden/digests.txt` holds one line per
//!
//! * **machine cell** — `machine <workload> <stages> <config>` followed
//!   by every [`MachineStats`] counter by name (correct and total for
//!   each accuracy class), over the 8-benchmark suite × 3 depths × 4
//!   configurations, the 9 curated scenarios × 4 configurations at 20
//!   stages, and three scenarios at 40 and 60 stages under ARVI current
//!   value (2k warm-up + 5k measured instructions, seed 42);
//! * **predictor stream** — `stream <workload> <predictor> window-<w>`
//!   followed by the order-sensitive FNV hash of the predicted
//!   directions ([`run_delayed`]'s `stream_hash`) over the workload's
//!   recorded conditional branches (2k + 8k instructions, seed 42), for
//!   every predictor with immediate update (window 0) and for gshare and
//!   the level-2 gskew at the machine-shaped windows 4 and 48;
//! * **gskew component state** — one hash of the level-1 gskew's
//!   `component_votes` over 4096 PCs after training on m88ksim.
//!
//! The file is split into `# section` blocks, one test each. Any change
//! to a figure fails its section's test, naming the first differing
//! line and counter. The whole fresh file is written to
//! `$CARGO_TARGET_TMPDIR/digests.txt`: after a deliberate modelling
//! change, review the difference and copy that file over the golden one.

use std::fmt::Write as _;
use std::sync::Arc;

use arvi::predict::{Bimodal, DirectionPredictor, Gshare, GskewConfig, Local, TwoBcGskew};
use arvi::sim::{simulate_source, Depth, MachineStats, PredictorConfig, SimParams};
use arvi::stats::Accuracy;
use arvi::trace::TraceReplayer;
use arvi::workloads::Benchmark;
use arvi_bench::{conditional_branches, fnv_bits, record_trace, run_delayed, Spec, Workload};

const GOLDEN: &str = include_str!("golden/digests.txt");

/// The window of every machine cell.
const MACHINE_SPEC: Spec = Spec {
    warmup: 2_000,
    measure: 5_000,
    seed: 42,
};

/// The window whose conditional branches feed every predictor stream.
const STREAM_SPEC: Spec = Spec {
    warmup: 2_000,
    measure: 8_000,
    seed: 42,
};

/// One machine cell's line: its key, then every counter by name.
fn machine_line(workload: &str, depth: Depth, config: PredictorConfig, s: &MachineStats) -> String {
    // Destructured so that a new counter fails to compile here until it
    // is digested too.
    let MachineStats {
        committed,
        cycles,
        cond_branches,
        l1_only,
        calc_class,
        load_class,
        overrides,
        overrides_correcting,
        bvit_hits,
        full_mispredicts,
        override_restarts,
    } = s;
    let acc = |name: &str, a: &Accuracy| {
        format!("{name}.correct={} {name}.total={}", a.correct(), a.total())
    };
    format!(
        "machine {workload} {} {} committed={committed} cycles={cycles} {} {} {} {} \
         overrides={overrides} overrides_correcting={overrides_correcting} \
         bvit_hits={bvit_hits} full_mispredicts={full_mispredicts} \
         override_restarts={override_restarts}",
        depth.stages(),
        config.label().replace(' ', "-"),
        acc("cond_branches", cond_branches),
        acc("l1_only", l1_only),
        acc("calc_class", calc_class),
        acc("load_class", load_class),
    )
}

/// Simulates `workload` at every `(depth, config)` over one recording
/// and appends a line per cell.
fn machine_cells(
    out: &mut String,
    workload: &Workload,
    depths: &[Depth],
    configs: &[PredictorConfig],
) {
    let trace = Arc::new(record_trace(workload, MACHINE_SPEC));
    for &depth in depths {
        for &config in configs {
            let r = simulate_source(
                arvi::sim::intern_name(workload.name()),
                TraceReplayer::new(Arc::clone(&trace)),
                SimParams::for_depth(depth),
                config,
                MACHINE_SPEC.warmup,
                MACHINE_SPEC.measure,
            );
            let line = machine_line(workload.name(), depth, config, &r.window);
            writeln!(out, "{line}").unwrap();
        }
    }
}

/// The direction-stream hash of a fresh `p` over `stream`.
fn stream_hash<P: DirectionPredictor>(mut p: P, stream: &[(u64, bool)], window: usize) -> u64 {
    run_delayed(&mut p, stream, window).stream_hash
}

/// Appends one stream line per (predictor, protocol) for `workload`.
fn stream_lines(out: &mut String, workload: &Workload) {
    let stream = conditional_branches(record_trace(workload, STREAM_SPEC));
    let name = workload.name();
    assert!(
        stream.len() > 200,
        "{name}: stream too short ({}) to exercise the tables",
        stream.len()
    );
    let mut line = |predictor: &str, window: usize, hash: u64| {
        writeln!(
            out,
            "stream {name} {predictor} window-{window} hash={hash:#018x}"
        )
        .unwrap();
    };
    line("bimodal", 0, stream_hash(Bimodal::new(12), &stream, 0));
    line("gshare", 0, stream_hash(Gshare::new(14, 12), &stream, 0));
    line("local", 0, stream_hash(Local::new(10, 8, 14), &stream, 0));
    for (cfg, tag) in [
        (GskewConfig::level1(), "gskew-l1"),
        (GskewConfig::level2(), "gskew-l2"),
    ] {
        line(tag, 0, stream_hash(TwoBcGskew::new(cfg), &stream, 0));
    }
    for window in [4usize, 48] {
        line(
            "gshare",
            window,
            stream_hash(Gshare::new(14, 12), &stream, window),
        );
        let gskew = TwoBcGskew::new(GskewConfig::level2());
        line("gskew-l2", window, stream_hash(gskew, &stream, window));
    }
}

fn machine_suite(out: &mut String) {
    for workload in &Workload::suite() {
        machine_cells(out, workload, &Depth::all(), &PredictorConfig::all());
    }
}

fn curated_scenarios() -> Vec<Workload> {
    let scenarios = Workload::curated_scenarios();
    assert_eq!(scenarios.len(), 9, "curated set changed size");
    scenarios
}

fn machine_scenarios(out: &mut String) {
    for workload in &curated_scenarios() {
        machine_cells(out, workload, &[Depth::D20], &PredictorConfig::all());
    }
}

/// The deeper pipelines exercise the largest wheel delays (a TLB miss
/// plus misses at every level at 60 stages) on the scenario mix.
fn machine_deep(out: &mut String) {
    for name in ["datadep-deep", "datadep-chase", "bias-always"] {
        let workload = Workload::scenario(arvi::synth::find(name).expect("curated name"));
        machine_cells(
            out,
            &workload,
            &[Depth::D40, Depth::D60],
            &[PredictorConfig::ArviCurrent],
        );
    }
}

fn streams_suite(out: &mut String) {
    for workload in &Workload::suite() {
        stream_lines(out, workload);
    }
}

fn streams_scenarios(out: &mut String) {
    for workload in &curated_scenarios() {
        stream_lines(out, workload);
    }
}

/// Component state, not just the emitted stream: every vote of every
/// bank across a PC sample after immediate-update training.
fn gskew_votes(out: &mut String) {
    let m88ksim = Workload::from(Benchmark::M88ksim);
    let stream = conditional_branches(record_trace(&m88ksim, STREAM_SPEC));
    let mut gskew = TwoBcGskew::new(GskewConfig::level1());
    run_delayed(&mut gskew, &stream, 0);
    let votes = fnv_bits((0..4096u64).flat_map(|i| {
        let (bim, g0, g1, meta) = gskew.component_votes(i << 2);
        [bim, g0, g1, meta]
    }));
    let name = m88ksim.name();
    writeln!(out, "votes {name} gskew-l1 pcs-4096 hash={votes:#018x}").unwrap();
}

/// Appends one section's digest lines.
type Generator = fn(&mut String);

/// The golden file's sections, in file order; each test checks one.
const SECTIONS: [(&str, Generator); 6] = [
    ("machine-suite", machine_suite),
    ("machine-scenarios", machine_scenarios),
    ("machine-deep", machine_deep),
    ("streams-suite", streams_suite),
    ("streams-scenarios", streams_scenarios),
    ("gskew-votes", gskew_votes),
];

/// One section as it appears in the golden file.
fn render(name: &str, generate: Generator) -> String {
    let mut out = format!("# section {name}\n");
    generate(&mut out);
    out
}

/// The whole golden file as this build produces it.
fn fresh_digests() -> String {
    let header = "# Golden digests (tests/golden_digests.rs). Regenerate by copying the\n\
                  # fresh file a failing test writes; review the difference first.\n";
    SECTIONS
        .iter()
        .fold(header.to_string(), |out, &(name, generate)| {
            out + &render(name, generate)
        })
}

/// One digest line: its section, its 1-based line number, its key (the
/// tokens before the first `name=value`), and its named values.
struct Entry<'a> {
    section: &'a str,
    line: usize,
    key: String,
    values: Vec<(&'a str, &'a str)>,
}

impl<'a> Entry<'a> {
    fn value(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

fn entries(text: &str) -> Vec<Entry<'_>> {
    let mut section = "";
    let mut out = Vec::new();
    for (i, l) in text.lines().enumerate() {
        if let Some(name) = l.strip_prefix("# section ") {
            section = name.trim();
        }
        if l.trim().is_empty() || l.starts_with('#') {
            continue;
        }
        let (key, values): (Vec<&str>, Vec<&str>) =
            l.split_whitespace().partition(|t| !t.contains('='));
        out.push(Entry {
            section,
            line: i + 1,
            key: key.join(" "),
            values: values
                .into_iter()
                .map(|t| t.split_once('=').expect("a name=value token"))
                .collect(),
        });
    }
    out
}

/// The first difference within `section` between the golden digests and
/// a fresh run, as a message naming the golden line, its cell and the
/// counter; `None` when every line of the section matches.
fn first_difference(golden: &str, fresh: &str, section: &str) -> Option<String> {
    let of_section = |text| -> Vec<Entry<'_>> {
        entries(text)
            .into_iter()
            .filter(|e| e.section == section)
            .collect()
    };
    let (golden, fresh) = (of_section(golden), of_section(fresh));
    for (g, f) in golden.iter().zip(&fresh) {
        if g.key != f.key {
            return Some(format!(
                "golden line {}: expected `{}`, this run produced `{}` there",
                g.line, g.key, f.key
            ));
        }
        let names = g.values.iter().chain(&f.values).map(|(n, _)| *n);
        for name in names {
            let (want, got) = (g.value(name), f.value(name));
            if want != got {
                return Some(format!(
                    "golden line {}: `{}`: counter `{name}` is {} in the golden file, {} in this run",
                    g.line,
                    g.key,
                    want.unwrap_or("absent"),
                    got.unwrap_or("absent"),
                ));
            }
        }
    }
    match golden.len().cmp(&fresh.len()) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => {
            let g = &golden[fresh.len()];
            Some(format!(
                "golden line {}: `{}` is missing from this run",
                g.line, g.key
            ))
        }
        std::cmp::Ordering::Less => Some(format!(
            "this run has `{}` past the end of section `{section}` of the golden file",
            fresh[golden.len()].key
        )),
    }
}

/// Regenerates `section` and compares it with the golden file; on a
/// mismatch writes the whole fresh file for review and fails.
fn check(section: &str) {
    let &(name, generate) = SECTIONS
        .iter()
        .find(|(name, _)| *name == section)
        .expect("a known section");
    if let Some(diff) = first_difference(GOLDEN, &render(name, generate), name) {
        // Failing sections run in parallel and all write the same file:
        // each writes its own temporary and renames it into place, so the
        // file is always whole.
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let (tmp, path) = (
            dir.join(format!("digests.{name}.tmp")),
            dir.join("digests.txt"),
        );
        std::fs::write(&tmp, fresh_digests()).expect("write the fresh digests");
        std::fs::rename(&tmp, &path).expect("move the fresh digests into place");
        panic!(
            "{diff}\nfresh digests written to {}; after a deliberate change, review \
             the difference and copy it over tests/golden/digests.txt",
            path.display()
        );
    }
}

/// Every suite benchmark x pipeline depth x predictor configuration.
#[test]
fn suite_grid_machine_cells_match_golden() {
    check("machine-suite");
}

/// All curated synthetic scenarios under every configuration.
#[test]
fn curated_scenario_machine_cells_match_golden() {
    check("machine-scenarios");
}

#[test]
fn deep_pipeline_machine_cells_match_golden() {
    check("machine-deep");
}

/// Every suite benchmark's branch stream under every predictor and
/// protocol.
#[test]
fn suite_predictor_streams_match_golden() {
    check("streams-suite");
}

#[test]
fn curated_scenario_predictor_streams_match_golden() {
    check("streams-scenarios");
}

#[test]
fn gskew_component_votes_match_golden() {
    check("gskew-votes");
}

/// No section of the golden file goes unchecked.
#[test]
fn golden_file_holds_every_section_in_order() {
    let sections: Vec<&str> = GOLDEN
        .lines()
        .filter_map(|l| l.strip_prefix("# section "))
        .collect();
    let expected: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    assert_eq!(sections, expected);
    assert!(
        entries(GOLDEN).iter().all(|e| !e.section.is_empty()),
        "a digest line before the first section"
    );
}

/// Replaces the value of `name` on the first line starting with
/// `prefix`.
fn alter(text: &str, prefix: &str, name: &str, value: &str) -> String {
    let mut done = false;
    text.lines()
        .map(|l| {
            if done || !l.starts_with(prefix) {
                return l.to_string();
            }
            done = true;
            l.split(' ')
                .map(|t| match t.split_once('=') {
                    Some((n, _)) if n == name => format!("{n}={value}"),
                    _ => t.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .map(|l| l + "\n")
        .collect()
}

#[test]
fn a_changed_counter_is_named_with_its_cell() {
    for (name, _) in SECTIONS {
        assert_eq!(first_difference(GOLDEN, GOLDEN, name), None);
    }
    let cell = "machine compress 40 arvi-load-back";
    let altered = alter(GOLDEN, cell, "full_mispredicts", "999999");
    assert_ne!(altered, GOLDEN, "the golden file has no `{cell}` line");
    let msg = first_difference(&altered, GOLDEN, "machine-suite").expect("a difference");
    assert!(msg.contains(cell), "{msg}");
    assert!(msg.contains("`full_mispredicts`"), "{msg}");
    assert!(msg.contains("999999"), "{msg}");

    let stream = "stream datadep-chase gskew-l2 window-48";
    let altered = alter(GOLDEN, stream, "hash", "0x0");
    assert_ne!(altered, GOLDEN, "the golden file has no `{stream}` line");
    let msg = first_difference(GOLDEN, &altered, "streams-scenarios").expect("a difference");
    assert!(msg.contains(stream), "{msg}");
    assert!(msg.contains("`hash`"), "{msg}");

    let truncated: String = GOLDEN.lines().take(10).map(|l| format!("{l}\n")).collect();
    let msg = first_difference(GOLDEN, &truncated, "machine-suite").expect("a difference");
    assert!(msg.contains("missing"), "{msg}");
}
