//! The timing wheel against a `BinaryHeap` reference.
//!
//! The machine's event core is a fixed-horizon timing wheel
//! (`arvi_sim::EventWheel`) that replaced two `BinaryHeap` scheduler
//! queues. This property test compares the wheel's per-cycle drain sets
//! with a plain `(time, payload)` min-heap over random bounded-latency
//! schedules, including the occupancy-bitmap cycle skip. The whole
//! machine's figures are pinned separately, counter for counter, by
//! `tests/golden_digests.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use arvi::sim::EventWheel;
use proptest::prelude::*;

/// Reference model for the wheel: a plain `(time, payload)` min-heap.
#[derive(Default)]
struct HeapRef {
    q: BinaryHeap<Reverse<(u64, u64)>>,
}

impl HeapRef {
    fn drain_due(&mut self, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(&Reverse((t, p))) = self.q.peek() {
            if t > now {
                break;
            }
            self.q.pop();
            out.push(p);
        }
        out.sort_unstable();
        out
    }

    fn next_after(&self, now: u64) -> Option<u64> {
        // All entries are in the future when this is called (mirrors the
        // machine's quiet-cycle invariant).
        self.q.peek().map(|&Reverse((t, _))| t.max(now + 1))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bounded-latency schedules: at every cycle the wheel must
    /// hand back exactly the heap's due set, and when idle both must
    /// agree on the next occupied cycle (the cycle-skip target).
    #[test]
    fn wheel_matches_heap_order(
        max_delay in 1u64..400,
        ops in proptest::collection::vec((0u64..400, 0u64..1_000_000), 1..200),
    ) {
        let mut wheel = EventWheel::with_max_delay(400);
        let mut heap = HeapRef::default();
        let mut now = 0u64;
        let mut scratch = Vec::new();
        let mut pending = ops.len();
        let mut ops = ops.into_iter();

        while pending > 0 || !wheel.is_empty() {
            // Schedule a burst of future work (delays bounded by
            // `max_delay`, like the machine's Table-2 latencies).
            for (delay, payload) in ops.by_ref().take(3) {
                let at = now + 1 + delay % max_delay;
                wheel.schedule(now, at, payload);
                heap.q.push(Reverse((at, payload)));
                pending -= 1;
            }
            // Drain this cycle from both.
            scratch.clear();
            wheel.drain_due_into(now, &mut scratch);
            scratch.sort_unstable();
            let expect = heap.drain_due(now);
            prop_assert_eq!(&scratch, &expect, "due set at cycle {}", now);
            prop_assert_eq!(wheel.len(), heap.q.len());
            // Idle: jump exactly where the heap would.
            if pending == 0 {
                match (wheel.next_after(now), heap.next_after(now)) {
                    (Some(w), Some(h)) => { prop_assert_eq!(w, h); now = w; }
                    (None, None) => break,
                    (w, h) => prop_assert!(false, "skip mismatch: wheel {:?} heap {:?}", w, h),
                }
            } else {
                now += 1;
            }
        }
        prop_assert_eq!(wheel.len(), 0);
    }
}
