//! The workspace's one worker loop.
//!
//! Every parallel map runs on [`par_map_caught`]: the trace loader's
//! checksum and decode [`span`]s, the sampler's units
//! (`arvi_sampling::run_units`) and the experiment harness's grids. This
//! is the lowest crate all three depend on, and the only place a
//! production thread is spawned. [`par_map`] returns results in item
//! order, so scheduling changes only wall-clock, never results.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Cores available to this process (1 when the count is unknown): the
/// worker count when the caller does not choose one.
pub fn cores() -> usize {
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

/// A caught panic payload.
pub type Panic = Box<dyn std::any::Any + Send>;

/// Applies `f` to every item on up to `threads` workers and returns the
/// results in item order (deterministic regardless of scheduling).
/// `threads <= 1` degenerates to a plain sequential map on the calling
/// thread.
///
/// # Panics
///
/// If `f` panics for any item, the *original* panic payload is
/// propagated (after all items have been attempted) — not a secondary
/// "slot poisoned" panic that would mask what actually went wrong.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let slots: Vec<Mutex<Option<Result<U, Panic>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    par_map_caught(
        items,
        threads,
        |_| false,
        f,
        // Nothing panics while a slot is locked, so no lock is poisoned.
        |i, result| *slots[i].lock().expect("result slot") = Some(result),
    );
    // Every item has run by now, so the first `Err` in item order is
    // the first panic.
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().expect("result slot") {
            Some(Ok(v)) => v,
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            None => unreachable!("every item ran"),
        })
        .collect()
}

/// The work-cursor worker loop under [`par_map`] and the grid executor
/// alike.
///
/// Up to `threads` workers — the calling thread plus `threads - 1`
/// scoped threads, so one worker spawns nothing — pull items off a
/// shared atomic cursor and run `f(item)` under `catch_unwind`, so one
/// panicking item never prevents the others from completing. Each
/// result — `Err(payload)` when `f` panicked — goes to
/// `done(index, result)` on the worker that produced it, as soon as it
/// exists. Before every dispatch a worker asks `stop(completed)` with
/// the number of items finished so far; once it answers `true` no
/// further item starts, and the items never dispatched get no `done`
/// call (the fault plan's `kill-after` rides on this). `done` must not
/// panic.
pub fn par_map_caught<T, U, F, D>(
    items: &[T],
    threads: usize,
    stop: impl Fn(usize) -> bool + Sync,
    f: F,
    done: D,
) where
    T: Sync,
    F: Fn(&T) -> U + Sync,
    D: Fn(usize, Result<U, Panic>) + Sync,
{
    let cursor = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let worker = || loop {
        if stop(completed.load(Ordering::Acquire)) {
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        done(
            i,
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))),
        );
        completed.fetch_add(1, Ordering::Release);
    };
    let threads = threads.clamp(1, items.len().max(1));
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });
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
    fn worker_count_is_bounded_by_the_work() {
        assert_eq!(workers(8, 0), 1);
        assert_eq!(workers(8, 3), 3);
        assert_eq!(workers(2, 1_000), 2);
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let got = par_map(&items, 8, |&x| x * 3);
        assert_eq!(got, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_sequential_degeneration() {
        let items = vec![1, 2, 3];
        assert_eq!(par_map(&items, 0, |&x| x + 1), vec![2, 3, 4]);
        assert_eq!(par_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn par_map_handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        let one = vec![7u32];
        assert_eq!(par_map(&one, 16, |&x| x), vec![7]);
    }

    #[test]
    fn par_map_propagates_the_original_panic_payload() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 4, |&x| {
                if x == 5 {
                    panic!("item {x} exploded");
                }
                x
            })
        })
        .expect_err("must propagate the panic");
        assert_eq!(caught.downcast_ref::<String>().unwrap(), "item 5 exploded");
    }

    #[test]
    fn par_map_caught_isolates_failures_per_item() {
        let items: Vec<u32> = (0..8).collect();
        let results: Vec<Mutex<Option<Result<u32, Panic>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        par_map_caught(
            &items,
            3,
            |_| false,
            |&x| {
                if x % 3 == 0 {
                    panic!("bad {x}");
                }
                x * 2
            },
            |i, r| *results[i].lock().unwrap() = Some(r),
        );
        for (i, r) in results.into_iter().enumerate() {
            match r.into_inner().unwrap().expect("every item ran") {
                Err(_) => assert_eq!(i % 3, 0, "item {i}"),
                Ok(v) => assert_eq!(v, i as u32 * 2),
            }
        }
    }

    #[test]
    fn par_map_caught_stops_dispatch_once_told() {
        let items: Vec<u32> = (0..16).collect();
        let ran = Mutex::new(Vec::new());
        par_map_caught(
            &items,
            1,
            |completed| completed >= 5,
            |&x| x,
            |i, _| ran.lock().unwrap().push(i),
        );
        assert_eq!(ran.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
