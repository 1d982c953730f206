//! Rotating-priority (round-robin) arbiter.

use crate::{first_set_from_words, Arbiter};

/// A rotating-priority arbiter: the requestor at or after the priority
/// pointer wins, and the pointer then advances one past the winner.
///
/// This is the canonical arbiter of input-first separable switch
/// allocators: each grant rotates priority so every persistent requestor
/// is served within `size` cycles (strong fairness).
///
/// # Example
///
/// ```
/// use vix_arbiter::{Arbiter, RoundRobinArbiter};
///
/// let mut arb = RoundRobinArbiter::new(3);
/// assert_eq!(arb.arbitrate(&[true, true, true]), Some(0));
/// assert_eq!(arb.arbitrate(&[true, true, true]), Some(1));
/// assert_eq!(arb.arbitrate(&[true, true, true]), Some(2));
/// assert_eq!(arb.arbitrate(&[true, true, true]), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    size: usize,
    /// Index with the highest priority this cycle.
    pointer: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `size` requestors with priority starting at
    /// index 0.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must serve at least one requestor");
        RoundRobinArbiter { size, pointer: 0 }
    }

    /// Current priority pointer (highest-priority index), exposed for tests
    /// and for allocators that snapshot arbitration state.
    #[must_use]
    pub fn pointer(&self) -> usize {
        self.pointer
    }
}

impl Arbiter for RoundRobinArbiter {
    fn size(&self) -> usize {
        self.size
    }

    fn peek(&self, requests: &[bool]) -> Option<usize> {
        debug_assert_eq!(requests.len(), self.size, "request vector width mismatch");
        (0..self.size).map(|i| (self.pointer + i) % self.size).find(|&i| requests[i])
    }

    fn commit(&mut self, winner: usize) {
        debug_assert!(winner < self.size, "winner index out of range");
        // Compare-and-wrap: no division on the per-grant path.
        let next = winner + 1;
        self.pointer = if next == self.size { 0 } else { next };
    }

    #[inline]
    fn peek_words(&self, words: &[u64]) -> Option<usize> {
        first_set_from_words(words, self.pointer, self.size)
    }

    fn reset(&mut self) {
        self.pointer = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_every_persistent_requestor_within_n_cycles() {
        let mut arb = RoundRobinArbiter::new(5);
        let reqs = [true; 5];
        let mut served = [false; 5];
        for _ in 0..5 {
            served[arb.arbitrate(&reqs).unwrap()] = true;
        }
        assert!(served.iter().all(|&s| s), "round robin must serve all in n cycles");
    }

    #[test]
    fn pointer_stays_put_without_commit() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.peek(&[false, true, false, true]), Some(1));
        assert_eq!(arb.pointer(), 0);
        arb.commit(1);
        assert_eq!(arb.pointer(), 2);
        assert_eq!(arb.peek(&[false, true, false, true]), Some(3));
    }

    #[test]
    fn wraps_around() {
        let mut arb = RoundRobinArbiter::new(3);
        arb.commit(2); // pointer -> 0
        assert_eq!(arb.pointer(), 0);
        arb.commit(1); // pointer -> 2
        assert_eq!(arb.peek(&[true, false, false]), Some(0));
    }

    #[test]
    fn no_requests_no_grant_no_rotation() {
        let mut arb = RoundRobinArbiter::new(4);
        arb.commit(0);
        let p = arb.pointer();
        assert_eq!(arb.arbitrate(&[false; 4]), None);
        assert_eq!(arb.pointer(), p, "pointer must not move on idle cycles");
    }

    #[test]
    fn single_requestor_always_wins() {
        let mut arb = RoundRobinArbiter::new(1);
        for _ in 0..3 {
            assert_eq!(arb.arbitrate(&[true]), Some(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one requestor")]
    fn zero_size_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }

    /// Width checks are `debug_assert`s (the allocator hot loops call `peek`
    /// millions of times), so the panic only fires in debug builds; release
    /// builds fall back to the slice bounds check.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_rejected() {
        let arb = RoundRobinArbiter::new(3);
        let _ = arb.peek(&[true, false]);
    }

    #[test]
    fn peek_words_matches_peek_across_pointer_positions() {
        let mut arb = RoundRobinArbiter::new(7);
        for pattern in 0u64..128 {
            let reqs: Vec<bool> = (0..7).map(|i| pattern & (1 << i) != 0).collect();
            assert_eq!(arb.peek_words(&[pattern]), arb.peek(&reqs), "pattern {pattern:#b} pointer {}", arb.pointer());
            if let Some(w) = arb.peek(&reqs) {
                arb.commit(w);
            }
        }
    }

    #[test]
    fn peek_words_spans_multiple_words() {
        // 100 requestors: only bit 70 set; pointer walks past a word boundary.
        let mut arb = RoundRobinArbiter::new(100);
        let mut words = [0u64; 2];
        words[70 / 64] |= 1 << (70 % 64);
        assert_eq!(arb.peek_words(&words), Some(70));
        arb.commit(70); // pointer -> 71
        assert_eq!(arb.peek_words(&words), Some(70), "must wrap around the high word");
        arb.commit(99); // pointer wraps to 0
        assert_eq!(arb.peek_words(&words), Some(70));
        assert_eq!(arb.peek_words(&[0, 0]), None);
    }

    #[test]
    fn commit_wraps_like_modulo_for_every_size() {
        for n in 1..=130usize {
            let mut arb = RoundRobinArbiter::new(n);
            for w in 0..n {
                arb.commit(w);
                assert_eq!(arb.pointer(), (w + 1) % n, "size {n}, winner {w}");
            }
        }
    }

    #[test]
    fn fairness_under_contention() {
        // Two persistent requestors split grants exactly 50/50.
        let mut arb = RoundRobinArbiter::new(4);
        let reqs = [true, false, true, false];
        let mut counts = [0u32; 4];
        for _ in 0..100 {
            counts[arb.arbitrate(&reqs).unwrap()] += 1;
        }
        assert_eq!(counts[0], 50);
        assert_eq!(counts[2], 50);
    }
}
