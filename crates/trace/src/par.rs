//! Fan-out of the load-time checks over the host's cores.
//!
//! Loading a container checksums and decodes every byte of it; the work
//! splits into contiguous, in-order spans, one per worker, so a caller
//! can join the per-span results front to back and get exactly what a
//! single sequential scan would have produced.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Cores available to this process (1 when the count is unknown).
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Worker count for `items` independent pieces of work on `cores`
/// cores: never more workers than pieces, and at least one, so a
/// one-chunk trace runs on the calling thread alone.
pub(crate) fn workers(cores: usize, items: usize) -> usize {
    cores.min(items).max(1)
}

/// Span `w` of `0..len` cut into `workers` contiguous, near-equal spans.
pub(crate) fn span(len: usize, workers: usize, w: usize) -> Range<usize> {
    len * w / workers..len * (w + 1) / workers
}

/// Runs `job(w)` for every `w` in `0..workers` and returns the results
/// in `w` order. Job 0 runs on the calling thread and the rest on scoped
/// threads, so one worker spawns nothing. A panicking job re-raises its
/// panic here.
pub(crate) fn fan_out<T: Send>(workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return vec![job(0)];
    }
    let job = &job;
    std::thread::scope(|s| {
        let rest: Vec<_> = (1..workers).map(|w| s.spawn(move || job(w))).collect();
        let mut out = Vec::with_capacity(workers);
        out.push(job(0));
        out.extend(
            rest.into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_tile_the_range_in_order() {
        for len in [0usize, 1, 5, 12, 1_000] {
            for workers in 1..=6 {
                let spans: Vec<_> = (0..workers).map(|w| span(len, workers, w)).collect();
                assert_eq!(spans[0].start, 0);
                assert_eq!(spans[workers - 1].end, len);
                for pair in spans.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "len {len}, {workers} workers");
                }
            }
        }
    }

    #[test]
    fn fan_out_returns_results_in_worker_order() {
        assert_eq!(fan_out(1, |w| w * 10), vec![0]);
        assert_eq!(fan_out(4, |w| w * 10), vec![0, 10, 20, 30]);
        assert_eq!(workers(8, 0), 1);
        assert_eq!(workers(8, 3), 3);
        assert_eq!(workers(2, 1_000), 2);
    }
}
