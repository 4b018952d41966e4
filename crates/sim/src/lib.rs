//! # arvi-sim
//!
//! The trace-driven out-of-order superscalar timing simulator of the ARVI
//! reproduction (Chen, Dropsho & Albonesi, HPCA 2003) — the SimpleScalar-
//! class substrate the paper's evaluation runs on, built from scratch:
//!
//! * [`params`] — the paper's Table 2 machine and Table 4 predictor
//!   latencies, parameterized over 20/40/60-stage pipelines.
//! * [`cache`], [`tlb`], [`hierarchy`] — L1 I/D caches, unified L2, TLBs.
//! * [`source`] — the pluggable committed-instruction frontend
//!   ([`InstSource`]): live emulation or recorded-trace replay
//!   (`arvi-trace`).
//! * [`rename`] — fetch-time register rename with oracle value metadata.
//! * [`branch_unit`] — the two-level overriding predictor stack (2Bc-gskew
//!   level 1; 2Bc-gskew or ARVI level 2, confidence-gated), carrying the
//!   packed-table indices from predict to commit-time train.
//! * [`oracle`] — monomorphized [`ValueSource`](arvi_core::ValueSource)
//!   oracles for the ARVI current/load-back/perfect value regimes.
//! * [`wheel`] — the calendar-queue event scheduler: O(1) fixed-horizon
//!   cycle buckets with zero steady-state allocation.
//! * [`machine`] — the cycle engine: 4-wide fetch/issue/commit, dataflow
//!   scheduling over the wheel, load/store ordering, misprediction and
//!   override re-steer penalties.
//! * [`run`] — warmup + measurement-window harness producing
//!   [`SimResult`]s.
//!
//! ```no_run
//! use arvi_sim::{simulate, SimParams, Depth, PredictorConfig};
//! use arvi_workloads::Benchmark;
//!
//! let result = simulate(
//!     Benchmark::M88ksim.program(42),
//!     SimParams::for_depth(Depth::D20),
//!     PredictorConfig::ArviCurrent,
//!     100_000,
//!     1_000_000,
//! );
//! println!("IPC {:.3}, accuracy {:.2}%", result.ipc(), result.accuracy() * 100.0);
//! ```

pub mod branch_unit;
pub mod cache;
pub mod hierarchy;
pub mod machine;
pub mod oracle;
pub mod params;
pub mod rename;
pub mod run;
pub mod source;
pub mod tlb;
pub mod warmup;
pub mod wheel;

pub use branch_unit::{BranchDecision, BranchUnit, Level2};
pub use cache::Cache;
pub use hierarchy::Hierarchy;
pub use machine::{Machine, MachineStats};
pub use oracle::{LoadBackOracle, PendingLeaves, PerfectOracle, ReadyOracle, Tallied};
pub use params::{ArviTuning, CacheConfig, Depth, PredictorConfig, SimParams, TlbConfig};
pub use rename::RenameState;
pub use run::{
    intern_name, simulate, simulate_source, simulate_source_probed, simulate_source_tallied,
    SimResult,
};
pub use source::{InstSource, IterSource, RebasedSource};
pub use tlb::Tlb;
pub use warmup::WarmupMachine;
pub use wheel::{EventWheel, SeqSet};
