//! The in-memory trace: encoded chunk payloads plus the chunk index.

use std::ops::Range;

use arvi_isa::DynInst;

use crate::chunk::{decode_chunk, encode_chunk, DEFAULT_CHUNK_INSTS};
use crate::codec::crc32;
use crate::par::{cores, par_map, span, workers};
use crate::TraceError;

/// Index entry for one encoded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Byte offset of the chunk payload from the start of the trace's
    /// payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Number of instructions in the chunk.
    pub count: u32,
    /// `seq` of the chunk's first instruction (decode context seed; also
    /// lets a reader seek without decoding predecessors).
    pub first_seq: u64,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// A recorded committed-instruction trace, held encoded in memory.
///
/// A `Trace` is immutable once built, so sweeps wrap it in an
/// [`Arc`](std::sync::Arc) and share one recording read-only across all
/// grid cells and worker threads; every replayer keeps only a private
/// decode buffer. Produced by [`TraceWriter`], `Trace::record`, or
/// [`Trace::read_from`](crate::file) (the on-disk form).
#[derive(Debug, Clone)]
pub struct Trace {
    pub(crate) name: String,
    pub(crate) seed: u64,
    pub(crate) total: u64,
    /// The bytes the payload lives in: the writer's own buffer for a
    /// recording, or the whole container as read for a loaded trace,
    /// which is addressed in place rather than copied out.
    pub(crate) data: Vec<u8>,
    /// Where the payload sits in `data`.
    pub(crate) payload_range: Range<usize>,
    pub(crate) chunks: Vec<ChunkInfo>,
}

impl Trace {
    /// Records `n` instructions from `source` (a live emulator, usually).
    ///
    /// # Panics
    ///
    /// Panics if the source ends before `n` records — recorded windows
    /// must be fully covered (experiment workloads run indefinitely).
    pub fn record<I: Iterator<Item = DynInst>>(
        source: I,
        n: u64,
        name: impl Into<String>,
        seed: u64,
    ) -> Trace {
        match Trace::try_record(source, n, name, seed) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Trace::record`] returning [`TraceError::SourceEnded`] instead
    /// of panicking when the source runs dry — the sweep fails that
    /// workload's cells instead of taking the grid down.
    pub fn try_record<I: Iterator<Item = DynInst>>(
        mut source: I,
        n: u64,
        name: impl Into<String>,
        seed: u64,
    ) -> Result<Trace, TraceError> {
        let mut w = TraceWriter::new(name, seed);
        for i in 0..n {
            let Some(d) = source.next() else {
                return Err(TraceError::SourceEnded { at: i, need: n });
            };
            w.push(d);
        }
        Ok(w.finish())
    }

    /// The recorded workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload input seed the recording used.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total recorded instructions.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of encoded chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Encoded payload size in bytes (excludes index and file framing).
    pub fn encoded_bytes(&self) -> usize {
        self.payload_range.len()
    }

    /// The encoded chunk payloads, back to back.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.data[self.payload_range.clone()]
    }

    /// The chunk index.
    pub fn chunks(&self) -> &[ChunkInfo] {
        &self.chunks
    }

    pub(crate) fn chunk_payload(&self, info: &ChunkInfo) -> Result<&[u8], TraceError> {
        let start = info.offset as usize;
        let end = start + info.len as usize;
        let Some(payload) = self.payload().get(start..end) else {
            return Err(TraceError::Truncated);
        };
        Ok(payload)
    }

    /// Checksums and decodes chunk `idx` into `out` (cleared first; its
    /// capacity is reused across calls).
    pub fn decode_chunk_into(&self, idx: usize, out: &mut Vec<DynInst>) -> Result<(), TraceError> {
        self.decode_chunk_impl(idx, out, true)
    }

    /// Decode without re-checksumming: the replay hot path. Every trace
    /// was either just recorded in this process or fully verified by
    /// [`Trace::read_from`], so repeated replays of the immutable
    /// in-memory bytes do not pay the CRC again (the structural decode
    /// checks still run).
    pub(crate) fn decode_chunk_trusted(
        &self,
        idx: usize,
        out: &mut Vec<DynInst>,
    ) -> Result<(), TraceError> {
        self.decode_chunk_impl(idx, out, false)
    }

    fn decode_chunk_impl(
        &self,
        idx: usize,
        out: &mut Vec<DynInst>,
        checksum: bool,
    ) -> Result<(), TraceError> {
        let info = self
            .chunks
            .get(idx)
            .ok_or_else(|| TraceError::corrupt("chunk index out of range"))?;
        let payload = self.chunk_payload(info)?;
        if checksum && crc32(payload) != info.crc {
            return Err(TraceError::ChecksumMismatch { chunk: idx });
        }
        out.clear();
        decode_chunk(payload, info.count as usize, info.first_seq, out)
    }

    /// Fully validates the trace: every chunk checksum, every record
    /// decodable, and the index count consistent with the payload.
    ///
    /// Chunks are checked on every available core. A corrupt trace
    /// yields the error of its lowest failing chunk, the one a front to
    /// back scan would stop at, whatever the core count.
    pub fn verify(&self) -> Result<(), TraceError> {
        self.verify_on(cores())
    }

    /// [`Trace::verify`] on at most `cores` worker threads.
    pub(crate) fn verify_on(&self, cores: usize) -> Result<(), TraceError> {
        let n = self.chunks.len();
        let workers = workers(cores, n);
        let ids: Vec<usize> = (0..workers).collect();
        let spans = par_map(&ids, workers, |&w| {
            let mut buf = Vec::new();
            let mut total = 0u64;
            for idx in span(n, workers, w) {
                self.decode_chunk_into(idx, &mut buf)?;
                total += buf.len() as u64;
            }
            Ok(total)
        });
        // Spans are contiguous and in chunk order, and the sum stops at
        // the first error: the lowest failing chunk's.
        let total: u64 = spans.into_iter().sum::<Result<u64, TraceError>>()?;
        if total != self.total {
            return Err(TraceError::corrupt("chunk counts disagree with total"));
        }
        Ok(())
    }
}

/// Streaming encoder producing a [`Trace`].
#[derive(Debug)]
pub struct TraceWriter {
    name: String,
    seed: u64,
    chunk_insts: usize,
    pending: Vec<DynInst>,
    data: Vec<u8>,
    chunks: Vec<ChunkInfo>,
    total: u64,
}

impl TraceWriter {
    /// Creates a writer with the default chunk capacity.
    pub fn new(name: impl Into<String>, seed: u64) -> TraceWriter {
        TraceWriter {
            name: name.into(),
            seed,
            chunk_insts: DEFAULT_CHUNK_INSTS,
            pending: Vec::new(),
            data: Vec::new(),
            chunks: Vec::new(),
            total: 0,
        }
    }

    /// Overrides the chunk capacity (min 1); small chunks are useful in
    /// tests to exercise chunk-boundary behavior.
    pub fn with_chunk_insts(mut self, n: usize) -> TraceWriter {
        self.chunk_insts = n.max(1);
        self
    }

    /// Appends one record.
    pub fn push(&mut self, d: DynInst) {
        self.pending.push(d);
        self.total += 1;
        if self.pending.len() >= self.chunk_insts {
            self.seal_chunk();
        }
    }

    fn seal_chunk(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let offset = self.data.len() as u64;
        encode_chunk(&self.pending, &mut self.data);
        let payload = &self.data[offset as usize..];
        self.chunks.push(ChunkInfo {
            offset,
            len: payload.len() as u32,
            count: self.pending.len() as u32,
            first_seq: self.pending[0].seq,
            crc: crc32(payload),
        });
        self.pending.clear();
    }

    /// Seals the final chunk and returns the finished trace.
    pub fn finish(mut self) -> Trace {
        self.seal_chunk();
        Trace {
            name: self.name,
            seed: self.seed,
            total: self.total,
            payload_range: 0..self.data.len(),
            data: self.data,
            chunks: self.chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_isa::Emulator;
    use arvi_workloads::Benchmark;

    #[test]
    fn record_chunks_and_verifies() {
        let emu = Emulator::new(Benchmark::Compress.program(3));
        let trace = Trace::record(emu, 10_000, "compress", 3);
        assert_eq!(trace.len(), 10_000);
        assert_eq!(
            trace.chunk_count(),
            10_000usize.div_ceil(DEFAULT_CHUNK_INSTS)
        );
        trace.verify().unwrap();
        // Compact: the whole point of the delta+varint encoding.
        assert!(trace.encoded_bytes() < 10_000 * 10);
    }

    #[test]
    fn small_chunks_cover_all_records() {
        let emu = Emulator::new(Benchmark::Li.program(9));
        let mut w = TraceWriter::new("li", 9).with_chunk_insts(7);
        for d in emu.take(100) {
            w.push(d);
        }
        let trace = w.finish();
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.chunk_count(), 100usize.div_ceil(7));
        trace.verify().unwrap();
        let mut buf = Vec::new();
        trace.decode_chunk_into(3, &mut buf).unwrap();
        assert_eq!(buf.len(), 7);
        assert_eq!(buf[0].seq, trace.chunks()[3].first_seq);
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let emu = Emulator::new(Benchmark::Go.program(5));
        let mut trace = Trace::record(emu, 500, "go", 5);
        let mid = trace.data.len() / 2;
        trace.data[mid] ^= 0x40;
        assert!(matches!(
            trace.verify(),
            Err(TraceError::ChecksumMismatch { .. })
        ));
    }
}
