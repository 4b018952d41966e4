//! # arvi-trace
//!
//! Record-once / replay-many committed-instruction traces.
//!
//! The timing simulator (`arvi-sim`) is trace-driven by construction:
//! it consumes the committed [`DynInst`](arvi_isa::DynInst) stream and
//! models when instructions execute, while the functional outcome comes
//! from emulation. This crate makes that stream a first-class artifact:
//!
//! * [`TraceWriter`] / [`Trace::record`] capture the stream from
//!   [`arvi_isa::Emulator`] into a compact chunked binary encoding
//!   (per-field deltas + varints, ~5–7 bytes per instruction; see
//!   [`chunk`]).
//! * [`Trace`] holds the encoded recording immutably, so sweeps share
//!   one recording across all grid cells and worker threads via
//!   `Arc<Trace>`.
//! * [`TraceReplayer`] decodes a shared `Arc<Trace>` chunk-at-a-time
//!   into a reusable buffer (zero steady-state allocation) and can
//!   fast-forward or seek over whole chunks via the index. It
//!   implements [`arvi_sim::InstSource`], so
//!   [`arvi_sim::simulate_source`] runs timing models directly off a
//!   recording — **bit-identically** to the live emulation it captured.
//! * [`Trace::write_to`] / [`Trace::read_from`] persist recordings in a
//!   versioned container with per-chunk CRC-32 checksums and a footer
//!   index ([`file`]). Loading fully verifies the file — whole-file CRC,
//!   every chunk CRC, every record decoded, the total count — with the
//!   checks spread over all cores, and keeps the bytes it read as the
//!   trace's storage, so a loaded trace holds one copy of the file.
//! * [`par`] is the workspace's one worker loop: the load checks above,
//!   the sampler's units and the experiment harness's grids all run on
//!   [`par::par_map_caught`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use arvi_trace::{Trace, TraceReplayer};
//! use arvi_sim::{simulate_source, intern_name, SimParams, Depth, PredictorConfig};
//! use arvi_isa::Emulator;
//! use arvi_workloads::Benchmark;
//!
//! // Record once...
//! let emu = Emulator::new(Benchmark::M88ksim.program(42));
//! let trace = Arc::new(Trace::record(emu, 700_000, "m88ksim", 42));
//! // ...replay many: each cell gets its own cheap cursor.
//! for config in PredictorConfig::all() {
//!     let r = simulate_source(
//!         intern_name(trace.name()),
//!         TraceReplayer::new(Arc::clone(&trace)),
//!         SimParams::for_depth(Depth::D20),
//!         config,
//!         100_000,
//!         500_000,
//!     );
//!     println!("{config}: IPC {:.3}", r.ipc());
//! }
//! ```

pub mod chunk;
pub mod codec;
pub mod file;
pub mod par;
pub mod replay;
pub mod store;

pub use chunk::DEFAULT_CHUNK_INSTS;
pub use file::FORMAT_VERSION;
pub use replay::{TraceReplayer, REPLAY_PANIC_PREFIX};
pub use store::{ChunkInfo, Trace, TraceWriter};

use std::fmt;

/// Errors surfaced while encoding, decoding or loading traces.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// The file does not start (or end) with the trace magic.
    BadMagic,
    /// The file uses an unsupported format version.
    BadVersion(u32),
    /// Data ended before a complete record/structure was read.
    Truncated,
    /// A chunk payload did not match its recorded CRC-32.
    ChecksumMismatch {
        /// Index of the failing chunk.
        chunk: usize,
    },
    /// The container's whole-file CRC-32 did not match: corruption in
    /// the header, index or footer (chunk payloads are additionally
    /// covered per chunk).
    FileChecksumMismatch,
    /// Structurally invalid data (with a human-readable reason).
    Corrupt(&'static str),
    /// An error with the file it occurred on attached — the persistence
    /// path wraps every failure in this, so a sweep over dozens of
    /// cached traces reports *which* file failed and why instead of a
    /// bare "checksum mismatch".
    File {
        /// The file the operation failed on.
        path: std::path::PathBuf,
        /// The underlying failure.
        source: Box<TraceError>,
    },
    /// A recording source ended before the requested window was
    /// covered (experiment workloads are expected to run indefinitely).
    SourceEnded {
        /// Instructions actually produced.
        at: u64,
        /// Instructions requested.
        need: u64,
    },
    /// A seek target beyond the end of the trace
    /// ([`TraceReplayer::seek_to_inst`]); the caller's sampling plan and
    /// the recording disagree about the trace length.
    SeekPastEnd {
        /// Requested instruction sequence number.
        seq: u64,
        /// Instructions the trace actually holds.
        len: u64,
    },
    /// A seek target inside the trace's length that no record carries:
    /// below the first recorded `seq`, or in a gap of a trace whose
    /// sequence numbers are not dense.
    SeekNotFound {
        /// Requested instruction sequence number.
        seq: u64,
    },
}

impl TraceError {
    pub(crate) fn corrupt(reason: &'static str) -> TraceError {
        TraceError::Corrupt(reason)
    }

    /// Wraps the error with the file it occurred on (idempotent: an
    /// already-wrapped error keeps its innermost path).
    pub fn for_path(self, path: &std::path::Path) -> TraceError {
        match self {
            TraceError::File { .. } => self,
            other => TraceError::File {
                path: path.to_path_buf(),
                source: Box::new(other),
            },
        }
    }

    /// The underlying error with any [`TraceError::File`] context
    /// stripped — what callers match on to classify a failure.
    pub fn root(&self) -> &TraceError {
        match self {
            TraceError::File { source, .. } => source.root(),
            other => other,
        }
    }

    /// Whether the root cause is damaged or unreadable container data
    /// (as opposed to an I/O error like a missing file).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self.root(),
            TraceError::BadMagic
                | TraceError::BadVersion(_)
                | TraceError::Truncated
                | TraceError::ChecksumMismatch { .. }
                | TraceError::FileChecksumMismatch
                | TraceError::Corrupt(_)
        )
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not an arvi trace file (bad magic)"),
            TraceError::BadVersion(v) => write!(
                f,
                "unsupported trace format version {v} (this build reads version {FORMAT_VERSION})"
            ),
            TraceError::Truncated => write!(f, "trace data is truncated"),
            TraceError::ChecksumMismatch { chunk } => {
                write!(f, "chunk {chunk} failed its CRC-32 checksum")
            }
            TraceError::FileChecksumMismatch => {
                write!(f, "file failed its whole-container CRC-32 checksum")
            }
            TraceError::Corrupt(reason) => write!(f, "corrupt trace: {reason}"),
            TraceError::File { path, source } => {
                write!(f, "trace file {}: {source}", path.display())
            }
            TraceError::SourceEnded { at, need } => {
                write!(f, "source ended at instruction {at} of {need}")
            }
            TraceError::SeekPastEnd { seq, len } => {
                write!(
                    f,
                    "seek target {seq} is past the end of the trace ({len} instructions)"
                )
            }
            TraceError::SeekNotFound { seq } => {
                write!(f, "no record with sequence number {seq} to seek to")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::File { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}
