//! Hardware arbiter models used by separable NoC switch allocators.
//!
//! An arbiter picks one winner from a set of simultaneous requestors. The
//! implementations here mirror the circuits used in on-chip routers:
//!
//! * [`RoundRobinArbiter`] — rotating-priority arbiter, the workhorse of
//!   separable allocators (strong fairness, cheap hardware).
//! * [`MatrixArbiter`] — least-recently-granted priority matrix (Dally &
//!   Towles §18.5), slightly fairer under bursty requests.
//! * [`StaticArbiter`] — fixed-priority (lowest index wins); useful as an
//!   adversarial baseline and for modelling unfair allocators.
//!
//! All arbiters implement the [`Arbiter`] trait, which separates the pure
//! decision ([`Arbiter::peek`]) from the state update
//! ([`Arbiter::commit`]) so that allocators can evaluate a matching
//! before committing priority updates.
//!
//! # Example
//!
//! ```
//! use vix_arbiter::{Arbiter, RoundRobinArbiter};
//!
//! let mut arb = RoundRobinArbiter::new(4);
//! assert_eq!(arb.arbitrate(&[true, false, true, false]), Some(0));
//! // Priority rotated past the winner: requestor 2 wins next.
//! assert_eq!(arb.arbitrate(&[true, false, true, false]), Some(2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod matrix;
mod round_robin;
mod static_priority;

pub use matrix::MatrixArbiter;
pub use round_robin::RoundRobinArbiter;
pub use static_priority::StaticArbiter;

/// A single-winner arbiter over `size()` requestors.
///
/// This trait is object-safe: most allocators hold the `Box<dyn Arbiter>`s
/// [`ArbiterKind::build`] makes, while the separable IF/VIX allocator
/// stores its arbiters by concrete type and dispatches on the kind once
/// per call. It requires `Send` because allocators (and the routers that
/// own them) migrate to worker threads under the sharded engine (DESIGN.md §8).
pub trait Arbiter: std::fmt::Debug + Send {
    /// Number of requestors this arbiter serves.
    fn size(&self) -> usize;

    /// The requestor that *would* win, without updating priority state.
    ///
    /// Returns `None` when no line is asserted.
    ///
    /// # Panics
    ///
    /// Implementations panic if `requests.len() != self.size()`.
    fn peek(&self, requests: &[bool]) -> Option<usize>;

    /// Commits a grant to `winner`, updating the priority state exactly as
    /// the hardware would on a granted cycle.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `winner >= self.size()`.
    fn commit(&mut self, winner: usize);

    /// The requestor that *would* win among the asserted bits of a request
    /// mask, without updating priority state — the word-parallel companion
    /// of [`peek`](Arbiter::peek), of any width (e.g. the `P·v : 1` stage-1
    /// arbiters of the output-first allocator span several words). Bit `i`
    /// of the mask corresponds to `requests[i]`: `words[w]` holds
    /// requestors `64·w ..= 64·w + 63`, little-endian; `words.len()` must
    /// be `size().div_ceil(64)` and stray bits at or above
    /// [`size`](Arbiter::size) must be clear. Must return exactly what
    /// `peek` would on the equivalent boolean slice.
    fn peek_words(&self, words: &[u64]) -> Option<usize>;

    /// Picks a winner and updates priority state: `peek` + `commit`.
    fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        let winner = self.peek(requests)?;
        self.commit(winner);
        Some(winner)
    }

    /// Restores the power-on priority state.
    fn reset(&mut self);
}

/// First set bit at or cyclically after `start` over a domain of `width`
/// bits — the rotate-and-`trailing_zeros` round-robin primitive the bitset
/// allocator kernels share (e.g. iSLIP's grant/accept pointers).
/// `words[w]` holds bits `64·w ..= 64·w + 63`; `words.len()` must be
/// `width.div_ceil(64)`, stray bits at or above `width` must be clear, and
/// `start < width`.
#[inline]
#[must_use]
pub fn first_set_from_words(words: &[u64], start: usize, width: usize) -> Option<usize> {
    debug_assert!(start < width, "pointer {start} outside width {width}");
    debug_assert!(words.len() == width.div_ceil(64), "mask width mismatch");
    let sw = start / 64;
    let sb = start % 64;
    // Bits at or after `start`, scanning upward.
    let rotated = words[sw] & (!0u64 << sb);
    if rotated != 0 {
        return Some(sw * 64 + rotated.trailing_zeros() as usize);
    }
    for (w, &word) in words.iter().enumerate().skip(sw + 1) {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    // Wrap: the lowest set bit below `start`.
    for (w, &word) in words.iter().enumerate().take(sw + 1) {
        let masked = if w == sw { word & !(!0u64 << sb) } else { word };
        if masked != 0 {
            return Some(w * 64 + masked.trailing_zeros() as usize);
        }
    }
    None
}

/// Arbitration policy selector for configurable allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbiterKind {
    /// Rotating priority ([`RoundRobinArbiter`]).
    RoundRobin,
    /// Least-recently-granted matrix ([`MatrixArbiter`]).
    Matrix,
    /// Fixed priority, lowest index first ([`StaticArbiter`]).
    Static,
}

impl ArbiterKind {
    /// Builds an arbiter of this kind over `size` requestors.
    #[must_use]
    pub fn build(self, size: usize) -> Box<dyn Arbiter> {
        match self {
            ArbiterKind::RoundRobin => Box::new(RoundRobinArbiter::new(size)),
            ArbiterKind::Matrix => Box::new(MatrixArbiter::new(size)),
            ArbiterKind::Static => Box::new(StaticArbiter::new(size)),
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn boxed_arbiters() -> Vec<Box<dyn Arbiter>> {
        vec![
            ArbiterKind::RoundRobin.build(4),
            ArbiterKind::Matrix.build(4),
            ArbiterKind::Static.build(4),
        ]
    }

    #[test]
    fn all_arbiters_grant_only_requestors() {
        for mut arb in boxed_arbiters() {
            for pattern in 0u32..16 {
                let reqs: Vec<bool> = (0..4).map(|i| pattern & (1 << i) != 0).collect();
                match arb.arbitrate(&reqs) {
                    Some(w) => assert!(reqs[w], "granted a silent requestor"),
                    None => assert_eq!(pattern, 0, "no grant despite requests"),
                }
            }
        }
    }

    #[test]
    fn all_arbiters_are_work_conserving() {
        for mut arb in boxed_arbiters() {
            assert!(arb.arbitrate(&[false, true, false, false]).is_some());
            assert!(arb.arbitrate(&[true, true, true, true]).is_some());
            assert!(arb.arbitrate(&[false, false, false, false]).is_none());
        }
    }

    #[test]
    fn peek_does_not_mutate() {
        for arb in boxed_arbiters() {
            let reqs = [true, true, true, true];
            let first = arb.peek(&reqs);
            let second = arb.peek(&reqs);
            assert_eq!(first, second);
        }
    }

    #[test]
    fn peek_words_agrees_with_peek_for_every_kind() {
        for mut arb in boxed_arbiters() {
            for round in 0..64u64 {
                let mask = (round * 11 + 5) % 16;
                let reqs: Vec<bool> = (0..4).map(|i| mask & (1 << i) != 0).collect();
                let scalar = arb.peek(&reqs);
                assert_eq!(arb.peek_words(&[mask]), scalar, "mask {mask:#b}");
                if let Some(w) = scalar {
                    arb.commit(w);
                }
            }
        }
    }

    #[test]
    fn first_set_from_words_scans_cyclically() {
        assert_eq!(first_set_from_words(&[0], 3, 8), None);
        assert_eq!(first_set_from_words(&[0b0001_0010], 0, 8), Some(1));
        assert_eq!(first_set_from_words(&[0b0001_0010], 2, 8), Some(4));
        assert_eq!(first_set_from_words(&[0b0001_0010], 5, 8), Some(1), "wraps past the top");
        assert_eq!(first_set_from_words(&[1 << 63], 10, 64), Some(63));
        assert_eq!(first_set_from_words(&[1], 63, 64), Some(0));
    }

    #[test]
    fn first_set_from_words_scans_multiple_words() {
        let words = [0u64, 1u64 << 3, 1u64 << 10];
        assert_eq!(first_set_from_words(&words, 0, 192), Some(67));
        assert_eq!(first_set_from_words(&words, 67, 192), Some(67));
        assert_eq!(first_set_from_words(&words, 68, 192), Some(138));
        assert_eq!(first_set_from_words(&words, 139, 192), Some(67), "wraps past the top");
        assert_eq!(first_set_from_words(&[0, 0, 0], 50, 192), None);
        // A reference scan over every (pattern, start) of a 3-word domain.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let words = [x, x.rotate_left(21), x.rotate_left(43) & ((1 << 7) - 1)];
            let width = 135;
            let start = (x >> 17) as usize % width;
            let expect = (0..width)
                .map(|i| (start + i) % width)
                .find(|&i| words[i / 64] & (1u64 << (i % 64)) != 0);
            assert_eq!(first_set_from_words(&words, start, width), expect);
        }
    }

    #[test]
    fn reset_restores_power_on_order() {
        for mut arb in boxed_arbiters() {
            let all = [true, true, true, true];
            let first = arb.arbitrate(&all).unwrap();
            arb.arbitrate(&all);
            arb.reset();
            assert_eq!(arb.arbitrate(&all), Some(first));
        }
    }
}
