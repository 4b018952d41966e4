//! Saturating and resetting counters — the building blocks of every table
//! in this crate.

/// An `n`-bit saturating up/down counter (3-bit in the BVIT performance
/// counter; historically 2-bit in every predictor table, a role now
/// served by the packed storage in
/// [`PackedCounters`](crate::PackedCounters)).
///
/// # Example
///
/// ```
/// use arvi_predict::SatCounter;
/// let mut c = SatCounter::two_bit(); // 2-bit, weakly not-taken
/// assert!(!c.is_set());
/// c.increment();
/// assert!(c.is_set());
/// c.increment();
/// c.increment(); // saturates at 3
/// assert_eq!(c.value(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u8,
    max: u8,
}

impl SatCounter {
    /// Creates a counter with `bits` width initialized to `initial`.
    ///
    /// Deprecated for new predictor tables: a scalar `SatCounter` spends
    /// two bytes (value plus a per-instance `max` that every 2-bit table
    /// replicates) on two bits of state. Pack tables with
    /// [`PackedCounters`](crate::PackedCounters) instead; this
    /// constructor remains for odd widths (the BVIT's 3-bit performance
    /// counter) and as the reference model the packed tables are tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7, or if `initial` exceeds the
    /// maximum representable value.
    #[deprecated(note = "2-bit predictor tables should use PackedCounters; \
                SatCounter::new remains for odd widths (BVIT) and as the \
                packed tables' reference model")]
    pub fn new(bits: u32, initial: u8) -> SatCounter {
        assert!((1..=7).contains(&bits), "counter width {bits} unsupported");
        let max = ((1u16 << bits) - 1) as u8;
        assert!(initial <= max, "initial value {initial} exceeds max {max}");
        SatCounter {
            value: initial,
            max,
        }
    }

    /// A 2-bit counter initialized weakly not-taken (value 1).
    pub fn two_bit() -> SatCounter {
        #[allow(deprecated)]
        SatCounter::new(2, 1)
    }

    /// The current value.
    #[inline]
    pub fn value(self) -> u8 {
        self.value
    }

    /// The maximum (saturation) value.
    #[inline]
    pub fn max(self) -> u8 {
        self.max
    }

    /// True when the counter is in its upper half — the "taken" /
    /// "predict set" interpretation.
    #[inline]
    pub fn is_set(self) -> bool {
        self.value > self.max / 2
    }

    /// Saturating increment.
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub fn decrement(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Moves the counter toward an outcome: increment when `toward` is
    /// true, decrement otherwise.
    #[inline]
    pub fn update(&mut self, toward: bool) {
        if toward {
            self.increment();
        } else {
            self.decrement();
        }
    }

    /// Strengthens the counter in its current direction (partial-update
    /// rule of 2Bc-gskew: correct banks are reinforced, not retrained).
    #[inline]
    pub fn strengthen(&mut self) {
        let set = self.is_set();
        self.update(set);
    }
}

/// A resetting counter: saturating increment, reset-to-zero on the other
/// event. Used by JRS-style confidence estimators — a run of `n` correct
/// predictions is required before a branch is deemed high-confidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResettingCounter {
    value: u8,
    max: u8,
}

impl ResettingCounter {
    /// Creates a zeroed counter with `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    pub fn new(bits: u32) -> ResettingCounter {
        assert!((1..=7).contains(&bits), "counter width {bits} unsupported");
        ResettingCounter {
            value: 0,
            max: ((1u16 << bits) - 1) as u8,
        }
    }

    /// The current value.
    #[inline]
    pub fn value(self) -> u8 {
        self.value
    }

    /// Saturating increment (the "correct prediction" event).
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Reset to zero (the "misprediction" event).
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

#[cfg(test)]
#[allow(deprecated)] // the scalar constructor is exactly what is under test
mod tests {
    use super::*;

    #[test]
    fn two_bit_cycle() {
        let mut c = SatCounter::two_bit();
        assert_eq!(c.value(), 1);
        assert!(!c.is_set());
        c.increment();
        assert_eq!(c.value(), 2);
        assert!(c.is_set());
        c.increment();
        c.increment();
        assert_eq!(c.value(), 3); // saturated
        c.decrement();
        c.decrement();
        c.decrement();
        c.decrement();
        assert_eq!(c.value(), 0); // saturated at floor
    }

    #[test]
    fn hysteresis() {
        // From strongly-taken, one not-taken outcome must not flip the
        // prediction (the 2-bit counter property the paper relies on).
        let mut c = SatCounter::new(2, 3);
        c.update(false);
        assert!(c.is_set());
        c.update(false);
        assert!(!c.is_set());
    }

    #[test]
    fn strengthen_preserves_direction() {
        let mut c = SatCounter::new(2, 2);
        c.strengthen();
        assert_eq!(c.value(), 3);
        let mut d = SatCounter::new(2, 1);
        d.strengthen();
        assert_eq!(d.value(), 0);
    }

    #[test]
    fn three_bit_threshold() {
        let c = SatCounter::new(3, 4);
        assert!(c.is_set());
        let c = SatCounter::new(3, 3);
        assert!(!c.is_set());
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn zero_width_rejected() {
        let _ = SatCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn initial_out_of_range_rejected() {
        let _ = SatCounter::new(2, 4);
    }

    #[test]
    fn resetting_counter_behaviour() {
        let mut r = ResettingCounter::new(4);
        for _ in 0..20 {
            r.increment();
        }
        assert_eq!(r.value(), 15);
        r.reset();
        assert_eq!(r.value(), 0);
    }
}
