//! Fixed-priority arbiter.

use crate::Arbiter;

/// A fixed-priority arbiter: the asserted requestor with the lowest index
/// always wins and no state is kept.
///
/// Real routers avoid this circuit for fairness reasons; it exists here to
/// model *unfair* allocation (the augmented-path allocator's fixed scan
/// order, §4.3 of the paper) and as the simplest possible baseline in
/// ablation studies.
///
/// # Example
///
/// ```
/// use vix_arbiter::{Arbiter, StaticArbiter};
///
/// let mut arb = StaticArbiter::new(3);
/// assert_eq!(arb.arbitrate(&[false, true, true]), Some(1));
/// assert_eq!(arb.arbitrate(&[false, true, true]), Some(1)); // never rotates
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticArbiter {
    size: usize,
}

impl StaticArbiter {
    /// Creates a fixed-priority arbiter over `size` requestors.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must serve at least one requestor");
        StaticArbiter { size }
    }
}

impl Arbiter for StaticArbiter {
    fn size(&self) -> usize {
        self.size
    }

    fn peek(&self, requests: &[bool]) -> Option<usize> {
        debug_assert_eq!(requests.len(), self.size, "request vector width mismatch");
        requests.iter().position(|&r| r)
    }

    fn commit(&mut self, winner: usize) {
        debug_assert!(winner < self.size, "winner index out of range");
    }

    #[inline]
    fn peek_words(&self, words: &[u64]) -> Option<usize> {
        debug_assert_eq!(words.len(), self.size.div_ceil(64), "request mask width mismatch");
        words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_index_always_wins() {
        let mut arb = StaticArbiter::new(4);
        for _ in 0..10 {
            assert_eq!(arb.arbitrate(&[false, true, true, true]), Some(1));
        }
    }

    #[test]
    fn starves_high_indices() {
        let mut arb = StaticArbiter::new(2);
        let mut wins = [0u32; 2];
        for _ in 0..20 {
            wins[arb.arbitrate(&[true, true]).unwrap()] += 1;
        }
        assert_eq!(wins, [20, 0], "static arbiter is maximally unfair by design");
    }

    #[test]
    fn empty_request_vector_grants_nothing() {
        let mut arb = StaticArbiter::new(3);
        assert_eq!(arb.arbitrate(&[false; 3]), None);
    }
}
