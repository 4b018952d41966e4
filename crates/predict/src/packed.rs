//! Packed 2-bit saturating-counter storage — the predictor-table layout
//! shared by every direction predictor in this crate.
//!
//! The reproduction-era tables stored one [`SatCounter`] struct per
//! entry: two bytes (value + per-instance max) for two bits of state, an
//! 8x density loss that turns the 2Bc-gskew's four banks into a
//! cache-thrashing 256 KB of traffic where the EV8 design holds 32 KB.
//! `PackedCounters` stores 32 two-bit counters per `u64` word, exactly
//! matching [`SatCounter`]'s 2-bit saturate/update/strengthen semantics
//! bit for bit (pinned by the proptest in `tests/predictor_properties.rs`;
//! the predictors' streams are pinned by `tests/golden_digests.rs`).
//!
//! [`SatCounter`]: crate::SatCounter

/// A dense table of 2-bit saturating up/down counters, 32 per `u64`.
///
/// Counter values are 0–3; the "set" (predict-taken) interpretation is
/// the upper half, matching `SatCounter::is_set` for 2-bit widths.
///
/// # Example
///
/// ```
/// use arvi_predict::PackedCounters;
/// let mut t = PackedCounters::new(64, 1); // weakly not-taken
/// assert!(!t.is_set(33));
/// t.update(33, true);
/// assert!(t.is_set(33));
/// t.update(33, true);
/// t.update(33, true); // saturates at 3
/// assert_eq!(t.get(33), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCounters {
    words: Box<[u64]>,
    len: usize,
}

/// Replicates a 2-bit field across all 32 lanes of a word.
#[inline]
const fn splat(v: u8) -> u64 {
    (v as u64 & 0b11).wrapping_mul(0x5555_5555_5555_5555)
}

impl PackedCounters {
    /// Creates `len` counters, each initialized to `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial` exceeds 3 (the 2-bit maximum).
    pub fn new(len: usize, initial: u8) -> PackedCounters {
        assert!(initial <= 3, "initial value {initial} exceeds 2-bit max 3");
        let words = len.div_ceil(32);
        PackedCounters {
            words: vec![splat(initial); words].into_boxed_slice(),
            len,
        }
    }

    /// The number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no counters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Table storage in bits (2 per counter — the hardware budget, not
    /// the padded host words).
    #[inline]
    pub fn storage_bits(&self) -> usize {
        self.len * 2
    }

    /// The current value of counter `i` (0–3).
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        ((self.words[i >> 5] >> ((i & 31) << 1)) & 0b11) as u8
    }

    /// True when counter `i` is in its upper half — the "taken" /
    /// "predict set" interpretation (`SatCounter::is_set` for 2 bits).
    #[inline]
    pub fn is_set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // The high bit of the 2-bit field decides the upper half.
        (self.words[i >> 5] >> (((i & 31) << 1) + 1)) & 1 != 0
    }

    /// Fused read-modify-write: one word access per operation (the
    /// scalar `SatCounter` pays one byte access; splitting this into
    /// `get` + `put` would double the bounds-checked word traffic on
    /// the hottest predictor path).
    #[inline]
    fn rmw(&mut self, i: usize, f: impl FnOnce(u64) -> u64) {
        debug_assert!(i < self.len);
        let shift = (i & 31) << 1;
        let w = &mut self.words[i >> 5];
        let v = (*w >> shift) & 0b11;
        *w = (*w & !(0b11 << shift)) | (f(v) << shift);
    }

    /// Saturating increment of counter `i`.
    #[inline]
    pub fn increment(&mut self, i: usize) {
        self.rmw(i, |v| (v + 1).min(3));
    }

    /// Saturating decrement of counter `i`.
    #[inline]
    pub fn decrement(&mut self, i: usize) {
        self.rmw(i, |v| v.saturating_sub(1));
    }

    /// Moves counter `i` toward an outcome: increment when `toward` is
    /// true, decrement otherwise.
    #[inline]
    pub fn update(&mut self, i: usize, toward: bool) {
        self.rmw(i, |v| {
            if toward {
                (v + 1).min(3)
            } else {
                v.saturating_sub(1)
            }
        });
    }

    /// Strengthens counter `i` in its current direction (the partial-
    /// update rule of 2Bc-gskew: correct banks are reinforced, not
    /// retrained).
    #[inline]
    pub fn strengthen(&mut self, i: usize) {
        // Toward the rail the high bit already points at: 2|3 -> 3,
        // 0|1 -> 0.
        self.rmw(i, |v| if v & 0b10 != 0 { 3 } else { 0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_fills_every_lane() {
        for init in 0..=3u8 {
            let t = PackedCounters::new(100, init);
            for i in 0..100 {
                assert_eq!(t.get(i), init, "counter {i} init {init}");
            }
        }
    }

    #[test]
    fn two_bit_cycle_matches_satcounter_semantics() {
        let mut t = PackedCounters::new(40, 1);
        assert_eq!(t.get(37), 1);
        assert!(!t.is_set(37));
        t.increment(37);
        assert_eq!(t.get(37), 2);
        assert!(t.is_set(37));
        t.increment(37);
        t.increment(37);
        assert_eq!(t.get(37), 3); // saturated
        t.decrement(37);
        t.decrement(37);
        t.decrement(37);
        t.decrement(37);
        assert_eq!(t.get(37), 0); // saturated at floor
    }

    #[test]
    fn neighbours_are_untouched() {
        let mut t = PackedCounters::new(96, 1);
        t.update(31, true);
        t.update(32, false);
        assert_eq!(t.get(30), 1);
        assert_eq!(t.get(31), 2);
        assert_eq!(t.get(32), 0);
        assert_eq!(t.get(33), 1);
    }

    #[test]
    fn strengthen_preserves_direction() {
        let mut t = PackedCounters::new(8, 2);
        t.strengthen(5);
        assert_eq!(t.get(5), 3);
        let mut u = PackedCounters::new(8, 1);
        u.strengthen(5);
        assert_eq!(u.get(5), 0);
    }

    #[test]
    fn storage_counts_logical_bits() {
        let t = PackedCounters::new(4096, 1);
        assert_eq!(t.storage_bits(), 8192); // one paper L1 bank = 1 KB
        assert_eq!(t.len(), 4096);
        // Non-multiple-of-32 lengths pad the host word but not the budget.
        let u = PackedCounters::new(33, 0);
        assert_eq!(u.storage_bits(), 66);
    }

    #[test]
    #[should_panic(expected = "exceeds 2-bit max")]
    fn initial_out_of_range_rejected() {
        let _ = PackedCounters::new(4, 4);
    }
}
