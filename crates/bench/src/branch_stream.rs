//! Shared branch-stream plumbing: one stream extraction and one
//! delayed-update protocol loop, used by the `branch_path` criterion
//! group and by the predictor-stream golden digests
//! (`tests/golden_digests.rs`), so the bench and the pinned figures can
//! never drift onto different protocols.

use std::collections::VecDeque;
use std::sync::Arc;

use arvi_predict::{DirectionPredictor, Prediction};
use arvi_trace::{Trace, TraceReplayer};

/// The recorded conditional-branch stream of a trace, as
/// `(byte_pc, taken)` pairs.
pub fn conditional_branches(trace: Trace) -> Vec<(u64, bool)> {
    TraceReplayer::new(Arc::new(trace))
        .filter_map(|d| {
            let b = d.branch?;
            b.conditional.then_some((d.byte_pc(), b.taken))
        })
        .collect()
}

/// The outcome of one pass over a branch stream: the aggregate
/// accuracy count plus an order-sensitive FNV-1a hash of the emitted
/// direction stream, so two passes can be compared branch-for-branch
/// without retaining both streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRun {
    /// Correct predictions.
    pub correct: u64,
    /// FNV-1a over the predicted directions, in stream order.
    pub stream_hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_step(h: u64, bit: bool) -> u64 {
    (h ^ (bit as u64 + 1)).wrapping_mul(FNV_PRIME)
}

/// The [`StreamRun::stream_hash`] of an arbitrary bit sequence, in
/// order — for digests of predictor state that is not a direction
/// stream (e.g. per-PC component votes).
pub fn fnv_bits(bits: impl IntoIterator<Item = bool>) -> u64 {
    bits.into_iter().fold(FNV_OFFSET, fnv_step)
}

/// Drives a packed (index-carrying) predictor over `stream` with the
/// machine-shaped delayed-update protocol: history advances
/// speculatively at prediction, training drains from a FIFO `window`
/// branches later (the commit-order decision queue), and the tail is
/// drained at end of stream. `window == 0` degenerates to immediate
/// update.
pub fn run_delayed<P: DirectionPredictor>(
    p: &mut P,
    stream: &[(u64, bool)],
    window: usize,
) -> StreamRun {
    let mut in_flight: VecDeque<(u64, bool, Prediction)> = VecDeque::new();
    let mut correct = 0u64;
    let mut hash = FNV_OFFSET;
    for &(pc, taken) in stream {
        let d = p.predict(pc);
        p.spec_push(taken);
        correct += (d.taken == taken) as u64;
        hash = fnv_step(hash, d.taken);
        in_flight.push_back((pc, taken, d));
        if in_flight.len() > window {
            let (cpc, ct, cd) = in_flight.pop_front().expect("non-empty");
            p.update(cpc, &cd, ct);
        }
    }
    while let Some((cpc, ct, cd)) = in_flight.pop_front() {
        p.update(cpc, &cd, ct);
    }
    StreamRun {
        correct,
        stream_hash: hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_predict::{GskewConfig, TwoBcGskew};

    fn noise_stream(n: usize) -> Vec<(u64, bool)> {
        let mut x = 0x9E37_79B9u64;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((x >> 20) & 0xFFF) << 2, (x >> 40) & 0b11 != 0)
            })
            .collect()
    }

    #[test]
    fn hash_is_order_sensitive() {
        assert_ne!(
            fnv_step(fnv_step(FNV_OFFSET, true), false),
            fnv_step(fnv_step(FNV_OFFSET, false), true)
        );
        assert_eq!(
            fnv_bits([true, false]),
            fnv_step(fnv_step(FNV_OFFSET, true), false)
        );
    }

    #[test]
    fn window_zero_is_immediate_update() {
        let stream = noise_stream(2_000);
        let mut p = TwoBcGskew::new(GskewConfig::level1());
        let delayed = run_delayed(&mut p, &stream, 0);
        let (correct, total) =
            arvi_predict::traits::run_immediate(&mut TwoBcGskew::new(GskewConfig::level1()), {
                stream.iter().copied()
            });
        assert_eq!(total, stream.len() as u64);
        assert_eq!(delayed.correct, correct);
    }
}
