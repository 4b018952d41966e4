//! # arvi-workloads
//!
//! Synthetic SPEC95-integer-like workloads for the ARVI reproduction
//! (Chen, Dropsho & Albonesi, HPCA 2003).
//!
//! The paper evaluates on the SPEC95 integer suite compiled for
//! SimpleScalar PISA — binaries and reference inputs we cannot ship or
//! run. Each benchmark here is instead a real program in the `arvi-isa`
//! instruction set whose *branch and dataflow behaviour* is modeled on the
//! published characterization of the original: the programs execute genuine register dataflow, so the Data Dependence
//! Table observes real chains and the ARVI predictor real value locality.
//!
//! ## Example
//!
//! ```
//! use arvi_workloads::Benchmark;
//! use arvi_isa::Emulator;
//!
//! let program = Benchmark::M88ksim.program(42);
//! let branches = Emulator::new(program)
//!     .take(10_000)
//!     .filter(|d| d.is_branch())
//!     .count();
//! assert!(branches > 500);
//! ```

pub mod common;
pub mod compress;
pub mod data;
pub mod gcc;
pub mod go;
pub mod ijpeg;
pub mod li;
pub mod m88ksim;
pub mod perl;
pub mod suite;
pub mod vortex;

pub use common::Layout;
pub use suite::{Benchmark, WorkloadSource};
