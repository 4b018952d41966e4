//! # arvi-predict
//!
//! Baseline dynamic branch direction predictors for the ARVI reproduction
//! (Chen, Dropsho & Albonesi, HPCA 2003):
//!
//! * [`Bimodal`] — per-PC 2-bit saturating counters.
//! * [`Gshare`] — global history XOR PC indexed counters.
//! * [`Local`] — two-level local-history predictor.
//! * [`TwoBcGskew`] — the Alpha EV8-style hybrid (Seznec et al., ISCA 2002)
//!   the paper uses for both predictor levels of its baseline: BIM/G0/G1
//!   banks with skewed indexing, majority vote, a meta chooser and partial
//!   update.
//! * [`ConfidenceEstimator`] — resetting-counter confidence table used to
//!   decide when the ARVI second level should override the first level.
//!
//! Every predictor's table storage is a [`PackedCounters`]: 2-bit
//! saturating counters packed 32 per `u64` word (the 2Bc-gskew's four
//! banks additionally bank-interleaved), replacing the seed-era
//! `Vec<SatCounter>`-of-structs layout that spent 16x the cache
//! footprint on the same state.
//!
//! All predictors implement [`DirectionPredictor`]: `predict` returns the
//! direction, a checkpoint of the indexing state (the global history at
//! prediction time) *and* the resolved table indices, which callers hand
//! back to `update` — so a delayed (commit-time) update trains exactly
//! the entries the prediction read without re-hashing PC and history a
//! second time. Every predictor's direction stream over the recorded
//! workloads is pinned by the golden digests (`tests/golden_digests.rs`).

pub mod bimodal;
pub mod confidence;
pub mod counter;
pub mod gshare;
pub mod gskew;
pub mod history;
pub mod local;
pub mod packed;
pub mod traits;
pub mod value;

pub use bimodal::Bimodal;
pub use confidence::{ConfidenceConfig, ConfidenceEstimator};
pub use counter::{ResettingCounter, SatCounter};
pub use gshare::Gshare;
pub use gskew::{GskewConfig, TwoBcGskew};
pub use history::GlobalHistory;
pub use local::Local;
pub use packed::PackedCounters;
pub use traits::{DirectionPredictor, Prediction};
pub use value::{LastValue, Stride};
