//! The calendar-queue event scheduler (timing wheel) of the cycle model.
//!
//! The machine's event latencies are bounded by the Table-2 pipeline and
//! memory-hierarchy parameters (worst case: a TLB miss plus a miss in
//! every cache level, [`crate::SimParams::max_event_latency`]), so the
//! scheduler never needs a general priority queue: a power-of-two ring
//! of per-cycle buckets whose `Vec` slots are reused forever gives O(1)
//! schedule and O(1) pop with **zero steady-state allocation** — where
//! the previous `BinaryHeap<Reverse<(u64, u64)>>` pair re-sorted on
//! every push/pop.
//!
//! Because the horizon exceeds every schedulable delay, a bucket can
//! only ever hold entries for a single absolute cycle, and an occupancy
//! bitmap (one bit per bucket) makes "first occupied cycle after `now`"
//! a handful of word scans — the cycle-skip the machine uses when all
//! structures are idle, replacing the old heap-peek fast-forward.
//!
//! Entries within a bucket come back in insertion order, not sequence
//! order; the machine's issue stage orders candidates by age itself, so
//! nothing downstream re-sorts what the wheel already bucketed by time
//! (the golden digests, `tests/golden_digests.rs`, pin the machine's
//! figures, and a property test in `tests/scheduler_equivalence.rs`
//! checks the wheel's per-cycle drain sets against heap order
//! directly).

/// A fixed-horizon calendar queue over `(cycle, seq)` work items.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// One reusable bucket per ring slot; `buckets[t & mask]` holds the
    /// sequence numbers scheduled for cycle `t`.
    buckets: Vec<Vec<u64>>,
    /// Occupancy bitmap, one bit per bucket.
    occupied: Vec<u64>,
    mask: u64,
    len: usize,
}

impl EventWheel {
    /// A wheel able to schedule any delay up to and including
    /// `max_delay` cycles ahead. The ring is sized to the next power of
    /// two above `max_delay + 1` (minimum 64) so bucket indexing is a
    /// mask and the bitmap is whole words.
    pub fn with_max_delay(max_delay: u64) -> EventWheel {
        let size = (max_delay + 2).next_power_of_two().max(64) as usize;
        EventWheel {
            buckets: vec![Vec::new(); size],
            occupied: vec![0; size / 64],
            mask: size as u64 - 1,
            len: 0,
        }
    }

    /// The ring size: delays must stay strictly below this.
    pub fn horizon(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Scheduled entries not yet drained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `seq` for cycle `at` (`now` is the current cycle).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `at - now` reaches the horizon —
    /// a horizon violation would silently alias another cycle's bucket,
    /// so it is a hard error, not a debug assertion.
    #[inline]
    pub fn schedule(&mut self, now: u64, at: u64, seq: u64) {
        assert!(
            at >= now && at - now < self.horizon(),
            "event delay {} out of wheel horizon {} (now {now}, at {at})",
            at.wrapping_sub(now),
            self.horizon()
        );
        let b = (at & self.mask) as usize;
        self.buckets[b].push(seq);
        self.occupied[b >> 6] |= 1 << (b & 63);
        self.len += 1;
    }

    /// Appends every entry due exactly at `now` to `out` (in insertion
    /// order) and empties the bucket, keeping its capacity. Returns
    /// whether anything was due.
    ///
    /// The caller must visit every cycle in which the wheel is occupied
    /// (the machine's quiet-cycle skip jumps only as far as
    /// [`next_after`](EventWheel::next_after)), so the drained bucket
    /// can only contain entries for `now` itself.
    #[inline]
    pub fn drain_due_into(&mut self, now: u64, out: &mut Vec<u64>) -> bool {
        let b = (now & self.mask) as usize;
        if self.occupied[b >> 6] & (1 << (b & 63)) == 0 {
            return false;
        }
        let bucket = &mut self.buckets[b];
        self.len -= bucket.len();
        out.extend_from_slice(bucket);
        bucket.clear();
        self.occupied[b >> 6] &= !(1 << (b & 63));
        true
    }

    /// The earliest occupied cycle strictly after `now`, or `None` when
    /// the wheel is empty. Relies on the horizon invariant: every entry
    /// lives in `(now, now + horizon)`, so the first set bit in rotation
    /// order after `now` identifies its absolute cycle uniquely.
    pub fn next_after(&self, now: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let start = ((now + 1) & self.mask) as usize;
        let words = self.occupied.len();
        let (w, bit) = (start >> 6, start & 63);
        let first = self.occupied[w] >> bit;
        if first != 0 {
            return Some(now + 1 + first.trailing_zeros() as u64);
        }
        let mut delta = 64 - bit as u64;
        for j in 1..=words {
            let v = self.occupied[(w + j) % words];
            if v != 0 {
                return Some(now + 1 + delta + v.trailing_zeros() as u64);
            }
            delta += 64;
        }
        unreachable!("len > 0 but no occupied bucket");
    }
}

/// A small ordered set of in-flight sequence numbers (sorted `Vec`),
/// replacing the `BTreeSet`s the scheduler used for store/load memory
/// ordering: membership stays tiny (bounded by the LSQ), so binary
/// search plus `memmove` beats tree-node churn and keeps the hot path
/// allocation-free once warmed.
#[derive(Debug, Clone, Default)]
pub struct SeqSet {
    v: Vec<u64>,
}

impl SeqSet {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The smallest member.
    #[inline]
    pub fn first(&self) -> Option<u64> {
        self.v.first().copied()
    }

    /// Inserts `seq` (no-op if present).
    #[inline]
    pub fn insert(&mut self, seq: u64) {
        if let Err(i) = self.v.binary_search(&seq) {
            self.v.insert(i, seq);
        }
    }

    /// Appends a `seq` known to exceed every member (fetch order).
    #[inline]
    pub fn push_monotonic(&mut self, seq: u64) {
        debug_assert!(self.v.last().is_none_or(|&l| l < seq));
        self.v.push(seq);
    }

    /// Removes `seq` if present.
    #[inline]
    pub fn remove(&mut self, seq: u64) {
        if let Ok(i) = self.v.binary_search(&seq) {
            self.v.remove(i);
        }
    }

    /// Moves every member below `bound` (all members when `None`) into
    /// `out`, preserving ascending order.
    pub fn drain_below_into(&mut self, bound: Option<u64>, out: &mut Vec<u64>) {
        let cut = match bound {
            Some(b) => self.v.partition_point(|&s| s < b),
            None => self.v.len(),
        };
        out.extend(self.v.drain(..cut));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_schedules_and_drains_in_time_order() {
        let mut w = EventWheel::with_max_delay(40);
        assert_eq!(w.horizon(), 64);
        w.schedule(0, 5, 100);
        w.schedule(0, 3, 101);
        w.schedule(0, 5, 102);
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        assert!(!w.drain_due_into(0, &mut out));
        assert!(w.drain_due_into(3, &mut out));
        assert_eq!(out, vec![101]);
        out.clear();
        assert!(w.drain_due_into(5, &mut out));
        assert_eq!(out, vec![100, 102]);
        assert!(w.is_empty());
    }

    #[test]
    fn next_after_scans_across_word_and_ring_boundaries() {
        let mut w = EventWheel::with_max_delay(100); // horizon 128
        assert_eq!(w.next_after(0), None);
        w.schedule(0, 70, 1);
        assert_eq!(w.next_after(0), Some(70));
        assert_eq!(w.next_after(69), Some(70));
        let mut out = Vec::new();
        w.drain_due_into(70, &mut out);
        // Wraps the ring: cycle 130 lives in bucket 2.
        w.schedule(70, 130, 2);
        w.schedule(70, 171, 3);
        assert_eq!(w.next_after(70), Some(130));
        w.drain_due_into(130, &mut out);
        assert_eq!(w.next_after(130), Some(171));
    }

    #[test]
    fn drained_buckets_keep_their_capacity() {
        let mut w = EventWheel::with_max_delay(10);
        let mut out = Vec::new();
        for round in 0..3u64 {
            let now = round * 7;
            for s in 0..4 {
                w.schedule(now, now + 7, s);
            }
            out.clear();
            assert!(w.drain_due_into(now + 7, &mut out));
            assert_eq!(out.len(), 4);
        }
        let cap = w.buckets[7 & w.mask as usize].capacity();
        assert!(cap >= 4, "bucket capacity {cap} not retained");
    }

    #[test]
    #[should_panic(expected = "out of wheel horizon")]
    fn horizon_violation_panics() {
        let mut w = EventWheel::with_max_delay(10);
        w.schedule(0, w.horizon(), 1);
    }

    #[test]
    fn seq_set_orders_and_drains() {
        let mut s = SeqSet::default();
        s.insert(9);
        s.insert(3);
        s.insert(7);
        s.insert(3); // duplicate
        assert_eq!(s.first(), Some(3));
        assert_eq!(s.len(), 3);
        s.remove(7);
        s.remove(100); // absent
        let mut out = Vec::new();
        s.drain_below_into(Some(9), &mut out);
        assert_eq!(out, vec![3]);
        s.drain_below_into(None, &mut out);
        assert_eq!(out, vec![3, 9]);
        assert!(s.is_empty());
        s.push_monotonic(4);
        s.push_monotonic(11);
        assert_eq!(s.first(), Some(4));
    }
}
