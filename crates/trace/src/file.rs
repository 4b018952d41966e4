//! The versioned on-disk trace container (`.arvitrace`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header:  magic "ARVITRC\x01" | u32 version | u32 name_len | name bytes | u64 seed
//! payload: encoded chunks, back to back
//! index:   per chunk { u64 offset, u32 len, u32 count, u64 first_seq, u32 crc }
//! footer:  u64 index_offset | u32 chunk_count | u64 total_insts
//!          | u32 file_crc | magic "ARVIEND\x01"
//! ```
//!
//! `file_crc` is the CRC-32 of every byte before it, so corruption
//! anywhere in the container — header, payload, index or the other
//! footer fields — is rejected at load; the per-chunk CRCs additionally
//! localize payload damage and guard in-memory chunk decoding.
//!
//! Loading reads the file into one buffer and keeps it: the loaded
//! [`Trace`] addresses its payload inside that buffer, so a container
//! costs its own size in memory, once. Every check still runs on every
//! load — the file CRC, each chunk's CRC, a decode of every record and
//! the total count — and the two scans over the bytes are spread over
//! the available cores: the file CRC as per-segment CRCs joined with
//! [`crc32_combine`](crate::codec::crc32_combine), the chunks as
//! contiguous runs. Either way a corrupt file is rejected with the
//! error a single front-to-back scan reports.
//!
//! The index lives *after* the payload so a writer can stream chunks
//! without knowing the final count, and a reader can locate every chunk
//! from the fixed-size footer — which is what lets replay seek straight
//! past a warmup prefix without decoding it. Bumping [`FORMAT_VERSION`]
//! invalidates old files (readers reject a version mismatch rather than
//! guessing at the encoding).

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::codec::{crc32, crc32_combine};
use crate::par::{cores, par_map, span, workers};
use crate::store::{ChunkInfo, Trace};
use crate::TraceError;

/// Current trace format version. Covers both the container layout and
/// the per-record encoding in [`crate::chunk`].
pub const FORMAT_VERSION: u32 = 1;

const HEADER_MAGIC: &[u8; 8] = b"ARVITRC\x01";
const FOOTER_MAGIC: &[u8; 8] = b"ARVIEND\x01";
const FOOTER_LEN: usize = 8 + 4 + 8 + 4 + 8;
/// Bytes after the `file_crc` field (the field itself + footer magic).
const CRC_TRAILER_LEN: usize = 4 + 8;
const INDEX_ENTRY_LEN: usize = 8 + 4 + 4 + 8 + 4;

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Parser<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(TraceError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

impl Trace {
    /// Serializes the trace into the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + 4
                + 4
                + self.name.len()
                + 8
                + self.encoded_bytes()
                + self.chunks.len() * INDEX_ENTRY_LEN
                + FOOTER_LEN,
        );
        out.extend_from_slice(HEADER_MAGIC);
        push_u32(&mut out, FORMAT_VERSION);
        push_u32(&mut out, self.name.len() as u32);
        out.extend_from_slice(self.name.as_bytes());
        push_u64(&mut out, self.seed);
        out.extend_from_slice(self.payload());
        let index_offset = out.len() as u64;
        for c in &self.chunks {
            push_u64(&mut out, c.offset);
            push_u32(&mut out, c.len);
            push_u32(&mut out, c.count);
            push_u64(&mut out, c.first_seq);
            push_u32(&mut out, c.crc);
        }
        push_u64(&mut out, index_offset);
        push_u32(&mut out, self.chunks.len() as u32);
        push_u64(&mut out, self.total);
        let file_crc = crc32(&out);
        push_u32(&mut out, file_crc);
        out.extend_from_slice(FOOTER_MAGIC);
        out
    }

    /// Parses a trace from container bytes and fully verifies it (magic,
    /// file checksum, version, index bounds, every chunk checksum, every
    /// record). Copies `buf`; loading from disk hands its buffer over
    /// instead ([`Trace::read_from`]).
    pub fn from_bytes(buf: &[u8]) -> Result<Trace, TraceError> {
        Trace::from_container(buf.to_vec(), cores())
    }

    /// Parses and verifies a container, keeping `buf` as the trace's
    /// storage: the payload is addressed where it lies, not copied.
    ///
    /// The checks run in a fixed order — size, magic, file CRC, version,
    /// index bounds, chunk bounds, chunks, total — and the two scans over
    /// the bytes (the file CRC and the chunk checks) each run on up to
    /// `cores` threads. Each scan joins its workers' results front to
    /// back, so a given input yields the same error for any `cores`.
    pub(crate) fn from_container(buf: Vec<u8>, cores: usize) -> Result<Trace, TraceError> {
        if buf.len() < 8 + 4 + 4 + 8 + FOOTER_LEN {
            return Err(TraceError::Truncated);
        }
        // Magics first (is this a trace file at all?), then the whole-
        // file checksum before trusting any other field: corruption
        // anywhere in header, payload, index or footer surfaces as a
        // checksum mismatch rather than a downstream parse artifact.
        if &buf[..8] != HEADER_MAGIC || &buf[buf.len() - 8..] != FOOTER_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let crc_pos = buf.len() - CRC_TRAILER_LEN;
        let file_crc = u32::from_le_bytes(buf[crc_pos..crc_pos + 4].try_into().expect("4 bytes"));
        let mut f = Parser {
            buf: &buf,
            pos: buf.len() - FOOTER_LEN,
        };
        let index_offset = f.u64()? as usize;
        let chunk_count = f.u32()? as usize;
        let total = f.u64()?;
        // The unverified chunk count only sizes the split: the CRC comes
        // out the same for any number of segments.
        if par_crc32(&buf[..crc_pos], workers(cores, chunk_count)) != file_crc {
            return Err(TraceError::FileChecksumMismatch);
        }

        let mut p = Parser { buf: &buf, pos: 8 };
        let version = p.u32()?;
        if version != FORMAT_VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let name_len = p.u32()? as usize;
        let name = std::str::from_utf8(p.take(name_len)?)
            .map_err(|_| TraceError::corrupt("workload name is not UTF-8"))?
            .to_string();
        let seed = p.u64()?;
        let payload_start = p.pos;

        if index_offset < payload_start
            || index_offset
                .checked_add(chunk_count * INDEX_ENTRY_LEN)
                .is_none_or(|end| end != buf.len() - FOOTER_LEN)
        {
            return Err(TraceError::corrupt("chunk index bounds are inconsistent"));
        }

        let payload_len = index_offset - payload_start;
        let mut idx = Parser {
            buf: &buf,
            pos: index_offset,
        };
        let mut chunks = Vec::with_capacity(chunk_count);
        for _ in 0..chunk_count {
            let info = ChunkInfo {
                offset: idx.u64()?,
                len: idx.u32()?,
                count: idx.u32()?,
                first_seq: idx.u64()?,
                crc: idx.u32()?,
            };
            if (info.offset as usize)
                .checked_add(info.len as usize)
                .is_none_or(|end| end > payload_len)
            {
                return Err(TraceError::corrupt("chunk payload out of bounds"));
            }
            chunks.push(info);
        }

        let trace = Trace {
            name,
            seed,
            total,
            data: buf,
            payload_range: payload_start..index_offset,
            chunks,
        };
        trace.verify_on(cores)?;
        Ok(trace)
    }

    /// Writes the trace to `path` (see the module docs for the layout).
    ///
    /// The write is atomic and durable: the bytes go to a temporary
    /// sibling (`<name>.tmp.<pid>`), are fsynced, and are then renamed
    /// over `path`, so a process killed mid-write leaves either the old
    /// file or the complete new one, never a torn container. Errors
    /// carry the failing path ([`TraceError::File`]).
    pub fn write_to(&self, path: &Path) -> Result<(), TraceError> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let res = (|| -> Result<(), TraceError> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            // Durability before visibility: the rename must never
            // publish a file whose bytes are still in flight.
            f.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(())
        })();
        if res.is_err() {
            // Best effort: do not leave the temp file behind.
            std::fs::remove_file(&tmp).ok();
        }
        res.map_err(|e| e.for_path(path))
    }

    /// Reads and fully verifies a trace file written by
    /// [`Trace::write_to`]. Errors carry the failing path
    /// ([`TraceError::File`]); match on [`TraceError::root`] to
    /// classify them.
    pub fn read_from(path: &Path) -> Result<Trace, TraceError> {
        let buf = std::fs::read(path).map_err(|e| TraceError::from(e).for_path(path))?;
        Trace::from_container(buf, cores()).map_err(|e| e.for_path(path))
    }
}

/// CRC-32 of `bytes` over `workers` contiguous segments, one per thread,
/// joined with [`crc32_combine`]: equal to `crc32(bytes)` for any
/// worker count.
fn par_crc32(bytes: &[u8], workers: usize) -> u32 {
    let ids: Vec<usize> = (0..workers).collect();
    par_map(&ids, workers, |&w| {
        let segment = &bytes[span(bytes.len(), workers, w)];
        (crc32(segment), segment.len() as u64)
    })
    .into_iter()
    .fold(0, |crc, (segment_crc, len)| {
        crc32_combine(crc, segment_crc, len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::TraceReplayer;
    use crate::store::TraceWriter;
    use arvi_isa::{DynInst, Emulator};
    use arvi_workloads::Benchmark;
    use std::sync::Arc;

    /// Locates chunk `chunk`'s payload inside raw container bytes
    /// without verifying them: `(offset, len)` into `container`, so a
    /// test can corrupt "byte N of chunk K" of a valid file; `None` when
    /// the container is too mangled to navigate.
    fn chunk_payload_span(container: &[u8], chunk: usize) -> Option<(usize, usize)> {
        if container.len() < FOOTER_LEN || !container.ends_with(FOOTER_MAGIC) {
            return None;
        }
        let mut f = Parser {
            buf: container,
            pos: container.len() - FOOTER_LEN,
        };
        let index_offset = f.u64().ok()? as usize;
        let chunk_count = f.u32().ok()? as usize;
        if chunk >= chunk_count {
            return None;
        }
        let mut idx = Parser {
            buf: container,
            pos: index_offset.checked_add(chunk * INDEX_ENTRY_LEN)?,
        };
        let offset = idx.u64().ok()? as usize;
        let len = idx.u32().ok()? as usize;
        // Payload offsets are relative to the end of the header.
        let mut h = Parser {
            buf: container,
            pos: 8 + 4,
        };
        let name_len = h.u32().ok()? as usize;
        let payload_start = 8 + 4 + 4 + name_len + 8;
        let abs = payload_start.checked_add(offset)?;
        (abs.checked_add(len)? <= container.len()).then_some((abs, len))
    }

    fn sample_trace() -> Trace {
        let emu = Emulator::new(Benchmark::Perl.program(4));
        let mut w = TraceWriter::new("perl", 4).with_chunk_insts(128);
        for d in emu.take(1_500) {
            w.push(d);
        }
        w.finish()
    }

    /// Recomputes the file CRC after a deliberate edit, so the edit gets
    /// past the whole-file check to the checks behind it.
    fn reseal(bytes: &mut [u8]) {
        let crc_pos = bytes.len() - CRC_TRAILER_LEN;
        let crc = crc32(&bytes[..crc_pos]);
        bytes[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn bytes_round_trip() {
        let trace = sample_trace();
        let back = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back.name(), "perl");
        assert_eq!(back.seed(), 4);
        assert_eq!(back.len(), 1_500);
        let a: Vec<DynInst> = TraceReplayer::new(Arc::new(trace)).collect();
        let b: Vec<DynInst> = TraceReplayer::new(Arc::new(back)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("arvi-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perl.arvitrace");
        let trace = sample_trace();
        trace.write_to(&path).unwrap();
        let back = Trace::read_from(&path).unwrap();
        assert_eq!(back.len(), trace.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_round_trips_and_cleans_temp() {
        let dir = std::env::temp_dir().join(format!("arvi-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.arvitrace");
        let first = sample_trace();
        first.write_to(&path).unwrap();
        assert_eq!(
            Trace::read_from(&path).unwrap().to_bytes(),
            first.to_bytes()
        );
        // A second write replaces the file whole.
        let mut w = TraceWriter::new("perl", 5);
        for d in Emulator::new(Benchmark::Perl.program(5)).take(300) {
            w.push(d);
        }
        let second = w.finish();
        second.write_to(&path).unwrap();
        assert_eq!(
            Trace::read_from(&path).unwrap().to_bytes(),
            second.to_bytes()
        );
        // No temp droppings.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["t.arvitrace"], "{names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_error_names_the_file() {
        let err = Trace::read_from(Path::new("/nonexistent/nope.arvitrace")).unwrap_err();
        assert!(err.to_string().contains("nope.arvitrace"), "{err}");
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let trace = sample_trace();
        let mut bytes = trace.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::BadMagic)
        ));
        // A *well-formed* file from a future format version (valid CRC,
        // different version field) is rejected by version, not checksum.
        let mut bytes = trace.to_bytes();
        bytes[8] = 99;
        reseal(&mut bytes);
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::BadVersion(99))
        ));
    }

    #[test]
    fn corruption_anywhere_rejected_at_load() {
        let trace = sample_trace();
        let good = trace.to_bytes();
        // Every single-bit flip outside the trailing magic must fail the
        // whole-file checksum; sample the header, payload and index
        // regions (the index was the historical blind spot: a flipped
        // `first_seq` decodes "cleanly" into wrong sequence numbers).
        let index_offset = good.len() - FOOTER_LEN - trace.chunk_count() * INDEX_ENTRY_LEN;
        let probes = [
            9,                                // header (version field)
            24 + trace.encoded_bytes() / 2,   // chunk payload
            index_offset + 8 + 4 + 4 + 1,     // first chunk's first_seq
            good.len() - CRC_TRAILER_LEN - 2, // footer total_insts
        ];
        for at in probes {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            assert!(
                matches!(
                    Trace::from_bytes(&bad),
                    Err(TraceError::FileChecksumMismatch)
                ),
                "flip at byte {at} was not rejected by the file checksum"
            );
        }
    }

    #[test]
    fn loading_keeps_the_buffer_it_was_given() {
        let bytes = sample_trace().to_bytes();
        let at = bytes.as_ptr();
        let trace = Trace::from_container(bytes, 2).unwrap();
        assert_eq!(trace.data.as_ptr(), at, "the container was copied");
        let header_len = 8 + 4 + 4 + "perl".len() + 8;
        assert_eq!(trace.payload().as_ptr(), at.wrapping_add(header_len));
        assert_eq!(trace.to_bytes(), trace.data, "bytes on disk changed");
    }

    #[test]
    fn parallel_file_crc_equals_the_sequential_one() {
        let bytes = sample_trace().to_bytes();
        let body = &bytes[..bytes.len() - CRC_TRAILER_LEN];
        for workers in 1..=5 {
            assert_eq!(par_crc32(body, workers), crc32(body), "{workers} workers");
        }
        assert_eq!(par_crc32(&[], 3), 0);
    }

    /// Corrupt chunks 3 and 7 behind a valid file CRC: every worker
    /// count reports chunk 3, the first a sequential scan meets, even
    /// when another worker finds chunk 7 first.
    #[test]
    fn lowest_failing_chunk_is_reported_for_any_worker_count() {
        let trace = sample_trace();
        assert!(trace.chunk_count() >= 8, "{} chunks", trace.chunk_count());
        let mut bytes = trace.to_bytes();
        for chunk in [3, 7] {
            let (off, len) = chunk_payload_span(&bytes, chunk).unwrap();
            bytes[off + len / 2] ^= 0x20;
        }
        reseal(&mut bytes);
        for cores in [1, 2, 4] {
            match Trace::from_container(bytes.clone(), cores) {
                Err(TraceError::ChecksumMismatch { chunk: 3 }) => {}
                other => panic!("{cores} workers: expected chunk 3's mismatch, got {other:?}"),
            }
        }
    }

    /// Flips across the whole container, with and without a resealed
    /// file CRC: each input fails the same way on 1 to 4 workers.
    #[test]
    fn corrupt_inputs_fail_identically_on_any_worker_count() {
        let good = sample_trace().to_bytes();
        for at in (0..good.len()).step_by(41) {
            for resealed in [false, true] {
                let mut bad = good.clone();
                bad[at] ^= 0x04;
                if resealed {
                    reseal(&mut bad);
                }
                let errors: Vec<String> = (1..=4)
                    .map(|cores| match Trace::from_container(bad.clone(), cores) {
                        Ok(_) => "ok".to_string(),
                        Err(e) => format!("{e:?}"),
                    })
                    .collect();
                assert!(
                    errors.iter().all(|e| *e == errors[0]),
                    "flip at {at} (resealed: {resealed}): {errors:?}"
                );
            }
        }
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = sample_trace().to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(Trace::from_bytes(&[]).is_err());
    }

    #[test]
    fn read_errors_carry_the_path_and_root_cause() {
        let dir = std::env::temp_dir().join(format!("arvi-file-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.arvitrace");
        let mut bytes = sample_trace().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = Trace::read_from(&path).unwrap_err();
        assert!(err.to_string().contains("x.arvitrace"), "{err}");
        assert!(matches!(err.root(), TraceError::FileChecksumMismatch));
        assert!(err.is_corruption());
        let missing = Trace::read_from(&dir.join("missing.arvitrace")).unwrap_err();
        assert!(matches!(missing.root(), TraceError::Io(_)));
        assert!(!missing.is_corruption());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_payload_span_addresses_every_chunk() {
        let trace = sample_trace();
        let bytes = trace.to_bytes();
        for (i, info) in trace.chunks().iter().enumerate() {
            let (off, len) = chunk_payload_span(&bytes, i).expect("chunk located");
            assert_eq!(len, info.len as usize, "chunk {i} length");
            // Corrupting the located span must trip that chunk's CRC on
            // a payload-level verify (proving the span really is the
            // chunk's payload, not framing).
            let mut bad = bytes.clone();
            bad[off] ^= 0xFF;
            let reparsed = Trace::from_bytes(&bad);
            assert!(reparsed.is_err(), "flip inside chunk {i} accepted");
        }
        assert!(chunk_payload_span(&bytes, trace.chunk_count()).is_none());
        assert!(chunk_payload_span(b"short", 0).is_none());
    }
}
