//! Replay cursors: chunk-at-a-time decoding behind the simulator's
//! [`InstSource`] frontend trait.

use std::sync::Arc;

use arvi_isa::DynInst;
use arvi_sim::InstSource;

use crate::store::Trace;
use crate::TraceError;

/// Prefix of every panic message raised by replay cursors on a corrupt
/// chunk. File-loaded traces are fully verified at load and in-memory
/// recordings are trusted, so this firing means the bytes changed
/// *after* verification — a program bug or memory corruption, not an
/// input condition. The resilient sweep runner (`arvi-bench`) matches
/// on this prefix to classify such a panic as a trace failure rather
/// than a generic cell panic.
pub const REPLAY_PANIC_PREFIX: &str = "trace replay:";

#[cold]
fn corrupt_chunk_panic(chunk: usize, trace: &Trace, e: crate::TraceError) -> ! {
    panic!(
        "{REPLAY_PANIC_PREFIX} chunk {chunk} of trace {}: {e}",
        trace.name()
    )
}

/// The cursor logic of [`TraceReplayer`], with the trace borrowed per
/// call.
///
/// The decode buffer is reused across chunks: after the first chunk is
/// decoded, steady-state replay performs **zero heap allocations**
/// (chunks never exceed the writer's chunk capacity, so `clear` + push
/// stays within the buffer's existing capacity).
#[derive(Debug, Default)]
struct Cursor {
    /// Next chunk to decode.
    chunk: usize,
    /// Read position within `buf`.
    pos: usize,
    /// Decoded records of the current chunk (reused).
    buf: Vec<DynInst>,
}

impl Cursor {
    /// The next record, decoding the next chunk when the buffer drains.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt chunk. File-loaded traces are fully verified
    /// by [`Trace::read_from`](crate::Trace::read_from) and in-memory
    /// recordings are trusted, so corruption here is a program bug, not
    /// an input condition.
    #[inline]
    fn next(&mut self, trace: &Trace) -> Option<DynInst> {
        loop {
            if let Some(&d) = self.buf.get(self.pos) {
                self.pos += 1;
                return Some(d);
            }
            if self.chunk >= trace.chunk_count() {
                return None;
            }
            trace
                .decode_chunk_trusted(self.chunk, &mut self.buf)
                .unwrap_or_else(|e| corrupt_chunk_panic(self.chunk, trace, e));
            self.chunk += 1;
            self.pos = 0;
        }
    }

    /// Fills `out` with the next records, decoding chunk-at-a-time and
    /// copying contiguous runs straight into the caller's buffer.
    /// Returns the number written (less than `out.len()` only at end of
    /// trace). Shares [`Cursor::next`]'s allocation discipline and panic
    /// conditions.
    fn fill(&mut self, trace: &Trace, out: &mut [DynInst]) -> usize {
        let mut n = 0;
        while n < out.len() {
            let buffered = self.buf.len() - self.pos;
            if buffered > 0 {
                let take = buffered.min(out.len() - n);
                out[n..n + take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
                self.pos += take;
                n += take;
                continue;
            }
            if self.chunk >= trace.chunk_count() {
                break;
            }
            trace
                .decode_chunk_trusted(self.chunk, &mut self.buf)
                .unwrap_or_else(|e| corrupt_chunk_panic(self.chunk, trace, e));
            self.chunk += 1;
            self.pos = 0;
        }
        n
    }

    /// Advances the cursor by `n` records from its current position,
    /// skipping whole chunks via the index without decoding them.
    /// Returns the number of records actually skipped (less than `n`
    /// only at end of trace).
    fn fast_forward(&mut self, trace: &Trace, mut n: u64) -> u64 {
        let mut skipped = 0u64;
        // First drain what is already decoded.
        let buffered = (self.buf.len() - self.pos) as u64;
        let from_buf = buffered.min(n);
        self.pos += from_buf as usize;
        n -= from_buf;
        skipped += from_buf;
        // Then hop over whole chunks using only the index.
        while n > 0 {
            let Some(info) = trace.chunks().get(self.chunk) else {
                break;
            };
            if (info.count as u64) <= n {
                self.chunk += 1;
                n -= info.count as u64;
                skipped += info.count as u64;
                continue;
            }
            // Target lands inside this chunk: decode it and index in.
            trace
                .decode_chunk_trusted(self.chunk, &mut self.buf)
                .unwrap_or_else(|e| corrupt_chunk_panic(self.chunk, trace, e));
            self.chunk += 1;
            self.pos = n as usize;
            skipped += n;
            n = 0;
        }
        if n > 0 {
            // Ran off the end: leave the cursor exhausted.
            self.buf.clear();
            self.pos = 0;
        }
        skipped
    }

    /// Repositions the cursor so the next record read is the one with
    /// sequence number `seq`, using the chunk index to land directly on
    /// the containing chunk — no predecessor chunk is decoded, so a
    /// seek into a billion-instruction trace costs one binary search
    /// plus one chunk decode. Unlike [`Cursor::fast_forward`] this is
    /// absolute, not relative, and works regardless of the cursor's
    /// current position. A failed seek leaves the cursor exhausted.
    fn seek_to_inst(&mut self, trace: &Trace, seq: u64) -> Result<(), TraceError> {
        let found = self.locate(trace, seq);
        if found.is_err() {
            self.buf.clear();
            self.pos = 0;
            self.chunk = trace.chunk_count();
        }
        found
    }

    fn locate(&mut self, trace: &Trace, seq: u64) -> Result<(), TraceError> {
        if seq >= trace.len() {
            return Err(TraceError::SeekPastEnd {
                seq,
                len: trace.len(),
            });
        }
        // The containing chunk is the last one whose first_seq <= seq;
        // there is none when the trace's numbering starts above `seq`.
        let idx = trace
            .chunks()
            .partition_point(|c| c.first_seq <= seq)
            .checked_sub(1)
            .ok_or(TraceError::SeekNotFound { seq })?;
        trace
            .decode_chunk_trusted(idx, &mut self.buf)
            .unwrap_or_else(|e| corrupt_chunk_panic(idx, trace, e));
        self.chunk = idx + 1;
        self.pos = (seq - trace.chunks()[idx].first_seq) as usize;
        // Dense numbering puts `seq` exactly here. A trace with gaps in
        // its numbering can run past the chunk or land on another record.
        if self.buf.get(self.pos).map(|d| d.seq) != Some(seq) {
            return Err(TraceError::SeekNotFound { seq });
        }
        Ok(())
    }
}

/// Owning replayer over a shared trace: the record-once / replay-many
/// [`InstSource`]. Clones of the `Arc` are cheap; each replayer carries
/// only its own cursor and decode buffer, so any number of machines (on
/// any number of threads) can replay one recording concurrently.
#[derive(Debug)]
pub struct TraceReplayer {
    trace: Arc<Trace>,
    cursor: Cursor,
}

impl TraceReplayer {
    /// A replayer positioned at the first record.
    pub fn new(trace: Arc<Trace>) -> TraceReplayer {
        TraceReplayer {
            trace,
            cursor: Cursor::default(),
        }
    }

    /// The shared trace being replayed.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// Skips `n` records (whole chunks are skipped via the index, so
    /// fast-forwarding past a warmup prefix does not decode it).
    /// Returns the number actually skipped.
    pub fn fast_forward(&mut self, n: u64) -> u64 {
        self.cursor.fast_forward(&self.trace, n)
    }

    /// Absolute seek: repositions the replayer so the next record
    /// yielded is the one with sequence number `seq`. The footer index's
    /// `first_seq` column locates the containing chunk directly, so no
    /// prefix is decoded — the entry cost of a sampling unit anywhere
    /// in the trace is one binary search plus one chunk decode.
    /// Returns [`TraceError::SeekPastEnd`] for a target at or beyond the
    /// end of the trace. A failed seek leaves the replayer exhausted.
    ///
    /// Assumes the dense zero-based sequence numbering that
    /// [`Trace::record`](crate::Trace::record) produces (`seq` equals
    /// the record's position). A hand-built trace whose numbering starts
    /// above `seq` or has gaps yields [`TraceError::SeekNotFound`] for
    /// any target that numbering does not place.
    pub fn seek_to_inst(&mut self, seq: u64) -> Result<(), TraceError> {
        self.cursor.seek_to_inst(&self.trace, seq)
    }
}

impl InstSource for TraceReplayer {
    #[inline]
    fn next_inst(&mut self) -> Option<DynInst> {
        self.cursor.next(&self.trace)
    }

    /// Block decode: whole chunks are copied into the caller's buffer in
    /// contiguous runs, amortizing the per-record cursor bounds checks
    /// the one-at-a-time default pays.
    #[inline]
    fn fill(&mut self, out: &mut [DynInst]) -> usize {
        self.cursor.fill(&self.trace, out)
    }
}

impl Iterator for TraceReplayer {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        self.cursor.next(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TraceWriter;
    use arvi_isa::Emulator;
    use arvi_workloads::Benchmark;

    fn small_chunk_trace(n: usize) -> Arc<Trace> {
        let emu = Emulator::new(Benchmark::M88ksim.program(11));
        let mut w = TraceWriter::new("m88ksim", 11).with_chunk_insts(64);
        for d in emu.take(n) {
            w.push(d);
        }
        Arc::new(w.finish())
    }

    #[test]
    fn reader_replays_the_recorded_stream() {
        let reference: Vec<DynInst> = Emulator::new(Benchmark::M88ksim.program(11))
            .take(1_000)
            .collect();
        let trace = small_chunk_trace(1_000);
        let replayed: Vec<DynInst> = TraceReplayer::new(Arc::clone(&trace)).collect();
        assert_eq!(reference, replayed);
    }

    #[test]
    fn replayer_is_shareable_across_threads() {
        let trace = small_chunk_trace(500);
        let reference: Vec<DynInst> = TraceReplayer::new(Arc::clone(&trace)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&trace);
                let want = reference.clone();
                std::thread::spawn(move || {
                    let got: Vec<DynInst> = TraceReplayer::new(t).collect();
                    assert_eq!(got, want);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fill_matches_plain_iteration() {
        use arvi_sim::InstSource;
        let trace = small_chunk_trace(1_000);
        let reference: Vec<DynInst> = TraceReplayer::new(Arc::clone(&trace)).collect();
        // Odd buffer sizes straddle chunk boundaries (chunks are 64).
        for chunk in [1usize, 7, 63, 64, 65, 200] {
            let mut r = TraceReplayer::new(Arc::clone(&trace));
            let mut buf = vec![reference[0]; chunk];
            let mut got: Vec<DynInst> = Vec::new();
            loop {
                let n = r.fill(&mut buf);
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, reference, "fill size {chunk}");
        }
    }

    #[test]
    fn fill_interleaves_with_next() {
        use arvi_sim::InstSource;
        let trace = small_chunk_trace(300);
        let reference: Vec<DynInst> = TraceReplayer::new(Arc::clone(&trace)).collect();
        let mut r = TraceReplayer::new(Arc::clone(&trace));
        let mut got: Vec<DynInst> = Vec::new();
        let mut buf = vec![reference[0]; 50];
        while got.len() < reference.len() {
            // Mixed pulls: a few singles, then a block.
            for _ in 0..3 {
                if let Some(d) = r.next_inst() {
                    got.push(d);
                }
            }
            let n = r.fill(&mut buf);
            got.extend_from_slice(&buf[..n]);
            if n == 0 && r.next_inst().is_none() {
                break;
            }
        }
        assert_eq!(got, reference);
    }

    #[test]
    fn fast_forward_matches_plain_iteration() {
        let trace = small_chunk_trace(1_000);
        for skip in [0u64, 1, 63, 64, 65, 130, 999, 1_000, 5_000] {
            let mut r = TraceReplayer::new(Arc::clone(&trace));
            let skipped = r.fast_forward(skip);
            assert_eq!(skipped, skip.min(1_000));
            let mut plain = TraceReplayer::new(Arc::clone(&trace));
            for _ in 0..skip {
                plain.next();
            }
            assert_eq!(r.next(), plain.next(), "after skipping {skip}");
        }
    }

    #[test]
    fn fast_forward_after_partial_read() {
        let trace = small_chunk_trace(300);
        let mut r = TraceReplayer::new(Arc::clone(&trace));
        for _ in 0..10 {
            r.next();
        }
        r.fast_forward(100);
        let mut plain = TraceReplayer::new(Arc::clone(&trace));
        plain.fast_forward(110);
        assert_eq!(r.next(), plain.next());
    }

    /// Pinned chunk-boundary regression: seek-then-decode is
    /// bit-identical to sequential decode at the first and last seq of
    /// a chunk, at seq 0, and everywhere around the boundaries; a seek
    /// at or past the end is an error, not silent exhaustion.
    #[test]
    fn seek_to_inst_matches_sequential_decode_at_chunk_boundaries() {
        let trace = small_chunk_trace(1_000);
        let reference: Vec<DynInst> = TraceReplayer::new(Arc::clone(&trace)).collect();
        // Chunks are 64 records: cover first/last seq of several chunks
        // plus seq 0 and the final record.
        for seq in [0u64, 1, 63, 64, 65, 127, 128, 191, 192, 640, 959, 960, 999] {
            let mut r = TraceReplayer::new(Arc::clone(&trace));
            r.seek_to_inst(seq).expect("in-range seek");
            let rest: Vec<DynInst> = r.collect();
            assert_eq!(
                rest,
                reference[seq as usize..],
                "tail after seeking to {seq}"
            );
        }
        // Past-EOF (and exactly-EOF) seeks are errors.
        for seq in [1_000u64, 1_001, u64::MAX] {
            let mut r = TraceReplayer::new(Arc::clone(&trace));
            match r.seek_to_inst(seq) {
                Err(crate::TraceError::SeekPastEnd { seq: s, len }) => {
                    assert_eq!((s, len), (seq, 1_000));
                }
                other => panic!("seek to {seq}: expected SeekPastEnd, got {other:?}"),
            }
        }
    }

    #[test]
    fn seek_is_absolute_regardless_of_cursor_position() {
        let trace = small_chunk_trace(500);
        let reference: Vec<DynInst> = TraceReplayer::new(Arc::clone(&trace)).collect();
        let mut r = TraceReplayer::new(Arc::clone(&trace));
        // Read ahead, then seek backwards and forwards.
        for _ in 0..300 {
            r.next();
        }
        r.seek_to_inst(10).unwrap();
        assert_eq!(r.next(), Some(reference[10]));
        r.seek_to_inst(450).unwrap();
        assert_eq!(r.next(), Some(reference[450]));
        // Relative skips compose with the absolute seek.
        let mut rp = TraceReplayer::new(Arc::clone(&trace));
        rp.fast_forward(200);
        rp.seek_to_inst(64).unwrap();
        assert_eq!(rp.next(), Some(reference[64]));
    }

    /// A hand-built trace: M88ksim records renumbered by `seq_of`, in
    /// chunks of `chunk_insts`.
    fn renumbered_trace(n: usize, chunk_insts: usize, seq_of: impl Fn(u64) -> u64) -> Arc<Trace> {
        let emu = Emulator::new(Benchmark::M88ksim.program(11));
        let mut w = TraceWriter::new("m88ksim", 11).with_chunk_insts(chunk_insts);
        for mut d in emu.take(n) {
            d.seq = seq_of(d.seq);
            w.push(d);
        }
        Arc::new(w.finish())
    }

    /// A stream numbered from 100: a target below the first chunk's
    /// `first_seq` is an error, not an index underflow, and targets the
    /// numbering does place still land on their record.
    #[test]
    fn seek_below_the_first_seq_is_an_error() {
        let trace = renumbered_trace(300, 64, |s| s + 100);
        for seq in [0u64, 50, 99] {
            let mut r = TraceReplayer::new(Arc::clone(&trace));
            match r.seek_to_inst(seq) {
                Err(TraceError::SeekNotFound { seq: s }) => assert_eq!(s, seq),
                other => panic!("seek to {seq}: expected SeekNotFound, got {other:?}"),
            }
            assert_eq!(r.next(), None, "a failed seek leaves the reader exhausted");
        }
        let mut r = TraceReplayer::new(Arc::clone(&trace));
        r.seek_to_inst(150).unwrap();
        assert_eq!(r.next().map(|d| d.seq), Some(150));
    }

    /// Even-only numbering: a target in a gap is an error whether its
    /// offset runs past the end of the decoded chunk or lands on some
    /// other record inside it, in release builds as well as debug.
    #[test]
    fn seek_into_a_numbering_gap_is_an_error() {
        let trace = renumbered_trace(100, 4, |s| 2 * s);
        // Chunk 0 holds seqs 0, 2, 4, 6: offset 7 is past its 4 records,
        // and offset 3 would land on seq 6.
        for seq in [7u64, 3, 9] {
            let mut r = TraceReplayer::new(Arc::clone(&trace));
            match r.seek_to_inst(seq) {
                Err(TraceError::SeekNotFound { seq: s }) => assert_eq!(s, seq),
                other => panic!("seek to {seq}: expected SeekNotFound, got {other:?}"),
            }
            assert_eq!(r.next(), None, "a failed seek leaves the reader exhausted");
        }
        // A chunk's first record sits at offset 0, so it is still found.
        let mut r = TraceReplayer::new(Arc::clone(&trace));
        r.seek_to_inst(8).unwrap();
        assert_eq!(r.next().map(|d| d.seq), Some(8));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random seek targets over random trace lengths and chunk
        /// capacities: the record under the cursor after a seek always
        /// equals the sequentially decoded one.
        #[test]
        fn seek_to_inst_matches_sequential_decode_everywhere(
            len in 1..600usize,
            chunk_insts in 1..97usize,
            frac in 0..1_000u64,
        ) {
            let emu = Emulator::new(Benchmark::M88ksim.program(11));
            let mut w = TraceWriter::new("m88ksim", 11).with_chunk_insts(chunk_insts);
            for d in emu.take(len) {
                w.push(d);
            }
            let trace = Arc::new(w.finish());
            let reference: Vec<DynInst> = TraceReplayer::new(Arc::clone(&trace)).collect();
            let seq = frac * len as u64 / 1_000;
            let mut r = TraceReplayer::new(Arc::clone(&trace));
            r.seek_to_inst(seq).expect("in-range seek");
            proptest::prop_assert_eq!(r.next(), Some(reference[seq as usize]));
        }
    }
}
