//! # arvi — umbrella crate
//!
//! Re-exports the full workspace of the reproduction of *"Dynamic Data
//! Dependence Tracking and its Application to Branch Prediction"* (Chen,
//! Dropsho & Albonesi, HPCA 2003).
//!
//! * [`isa`] — RISC ISA model, program builder and architectural emulator.
//! * [`workloads`] — synthetic SPEC95-integer-like benchmark programs.
//! * [`predict`] — baseline predictors (bimodal, gshare, 2Bc-gskew,
//!   confidence estimation).
//! * [`core`] — the paper's contribution: DDT, RSE, BVIT and the ARVI
//!   predictor.
//! * [`sim`] — the trace-driven out-of-order timing simulator.
//! * [`trace`] — record-once / replay-many committed-instruction traces
//!   (compact chunked binary format with checksums and a seekable
//!   index).
//! * [`synth`] — seeded synthetic-workload scenarios: plain-text specs
//!   with dependence-topology, branch-behavior-class and memory-pattern
//!   knobs, runnable anywhere a benchmark runs.
//! * [`sampling`] — SMARTS-style interval sampling over recorded
//!   traces: plans, seek + functional-warmup + detailed-measurement
//!   units fanned out across cores, CI-carrying aggregation. See README
//!   "Sampled simulation".
//! * [`stats`] — accuracy/IPC statistics and table formatting.
//! * [`obs`] — the zero-cost probe seam and telemetry consumers
//!   (counter/histogram probe, per-branch-site attribution, Chrome-trace
//!   event tracer). See README "Observability".
//! * [`apps`] — Section-3 applications of on-line dependence tracking.
//!
//! The per-instruction hot path (DDT insert, chain reads, leaf-set
//! extraction, ARVI predict/train) is steady-state allocation-free:
//! reuse the in-place APIs ([`core::Ddt::chain_into`],
//! [`core::Tracker::leaf_set_into`]) with caller-held scratch, or the
//! allocating wrappers when convenience wins. Experiment sweeps run in
//! parallel on `arvi_trace::par`, the workspace's one worker loop
//! (deterministic: results are bit-identical to a sequential run). See
//! `PERFORMANCE.md` for measured numbers and every `BENCH_PR*.json` for
//! the machine-readable trail, which the `bench_history` binary trends.
//!
//! See `README.md` for a quickstart, the workspace inventory and the
//! experiment binaries.

pub use arvi_apps as apps;
pub use arvi_core as core;
pub use arvi_isa as isa;
pub use arvi_obs as obs;
pub use arvi_predict as predict;
pub use arvi_sampling as sampling;
pub use arvi_sim as sim;
pub use arvi_stats as stats;
pub use arvi_synth as synth;
pub use arvi_trace as trace;
pub use arvi_workloads as workloads;
