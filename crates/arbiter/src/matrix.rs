//! Least-recently-granted matrix arbiter.

use crate::Arbiter;

/// A matrix arbiter (Dally & Towles, *Principles and Practices of
/// Interconnection Networks*, §18.5).
///
/// State is a priority matrix `w` where `w[i][j] == true` means requestor
/// `i` beats requestor `j`. A requestor wins when it beats every other
/// asserted requestor; the winner then drops below everyone (least recently
/// granted becomes highest priority). Unlike round-robin, relative priority
/// among *losers* is preserved, which improves fairness for bursty request
/// patterns.
///
/// # Example
///
/// ```
/// use vix_arbiter::{Arbiter, MatrixArbiter};
///
/// let mut arb = MatrixArbiter::new(3);
/// assert_eq!(arb.arbitrate(&[true, true, false]), Some(0));
/// // 0 dropped to the bottom; between 1 and 2, 1 still leads.
/// assert_eq!(arb.arbitrate(&[true, true, true]), Some(1));
/// assert_eq!(arb.arbitrate(&[true, false, true]), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixArbiter {
    size: usize,
    /// Words per matrix row: `size.div_ceil(64)`.
    words_per_row: usize,
    /// Bit-packed rows; bit `j` of row `i` (word `j / 64`) ⇔ i beats j.
    beats: Vec<u64>,
}

impl MatrixArbiter {
    /// Creates a matrix arbiter with power-on priority 0 > 1 > … > n−1.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must serve at least one requestor");
        let words_per_row = size.div_ceil(64);
        let mut arb = MatrixArbiter { size, words_per_row, beats: vec![0; size * words_per_row] };
        arb.reset();
        arb
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.beats[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    fn beats(&self, i: usize, j: usize) -> bool {
        self.row(i)[j / 64] & (1u64 << (j % 64)) != 0
    }

    fn set_beats(&mut self, i: usize, j: usize, v: bool) {
        let word = &mut self.beats[i * self.words_per_row + j / 64];
        if v {
            *word |= 1u64 << (j % 64);
        } else {
            *word &= !(1u64 << (j % 64));
        }
    }
}

impl Arbiter for MatrixArbiter {
    fn size(&self) -> usize {
        self.size
    }

    fn peek(&self, requests: &[bool]) -> Option<usize> {
        debug_assert_eq!(requests.len(), self.size, "request vector width mismatch");
        (0..self.size).find(|&i| {
            requests[i]
                && (0..self.size).all(|j| j == i || !requests[j] || self.beats(i, j))
        })
    }

    fn commit(&mut self, winner: usize) {
        debug_assert!(winner < self.size, "winner index out of range");
        // Winner drops below everyone: clear its row, set its column bit in
        // every other row.
        let (ww, wb) = (winner / 64, 1u64 << (winner % 64));
        for i in 0..self.size {
            let row = i * self.words_per_row;
            if i == winner {
                self.beats[row..row + self.words_per_row].fill(0);
            } else {
                self.beats[row + ww] |= wb;
            }
        }
    }

    #[inline]
    fn peek_words(&self, words: &[u64]) -> Option<usize> {
        debug_assert_eq!(words.len(), self.words_per_row, "request mask width mismatch");
        // A requestor wins iff no *other* asserted requestor is outside its
        // beats row: requests & !row(i), with i's own bit excluded, is zero.
        for (w, &word) in words.iter().enumerate() {
            let mut cand = word;
            while cand != 0 {
                let b = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let i = w * 64 + b;
                let row = self.row(i);
                let wins = words.iter().enumerate().all(|(k, &req)| {
                    let mut losers = req & !row[k];
                    if k == w {
                        losers &= !(1u64 << b);
                    }
                    losers == 0
                });
                if wins {
                    return Some(i);
                }
            }
        }
        None
    }

    fn reset(&mut self) {
        // Cold path: plain bit-by-bit rebuild of "i beats every j above it".
        self.beats.fill(0);
        for i in 0..self.size {
            for j in (i + 1)..self.size {
                self.set_beats(i, j, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_on_priority_is_index_order() {
        let arb = MatrixArbiter::new(4);
        assert_eq!(arb.peek(&[true; 4]), Some(0));
        assert_eq!(arb.peek(&[false, true, true, true]), Some(1));
    }

    #[test]
    fn winner_drops_to_bottom() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.arbitrate(&[true; 3]), Some(0));
        assert_eq!(arb.arbitrate(&[true; 3]), Some(1));
        assert_eq!(arb.arbitrate(&[true; 3]), Some(2));
        assert_eq!(arb.arbitrate(&[true; 3]), Some(0));
    }

    #[test]
    fn loser_priority_preserved() {
        let mut arb = MatrixArbiter::new(3);
        // 2 wins alone, dropping below 0 and 1 — their order is untouched.
        assert_eq!(arb.arbitrate(&[false, false, true]), Some(2));
        assert_eq!(arb.peek(&[true, true, true]), Some(0));
        assert_eq!(arb.peek(&[false, true, true]), Some(1));
    }

    #[test]
    fn exactly_one_winner_exists_for_any_pattern() {
        // The matrix invariant (total order) guarantees a unique winner.
        let mut arb = MatrixArbiter::new(4);
        for round in 0..32 {
            let pattern = (round * 7 + 3) % 16;
            let reqs: Vec<bool> = (0..4).map(|i| pattern & (1 << i) != 0).collect();
            let winners: Vec<usize> = (0..4)
                .filter(|&i| {
                    reqs[i] && (0..4).all(|j| j == i || !reqs[j] || arb.beats(i, j))
                })
                .collect();
            if reqs.iter().any(|&r| r) {
                assert_eq!(winners.len(), 1, "pattern {reqs:?} must have one winner");
                arb.commit(winners[0]);
            }
        }
    }

    #[test]
    fn matrix_is_least_recently_granted() {
        let mut arb = MatrixArbiter::new(4);
        // Grant 3, 1, 0 in that order; then 2 (never granted) beats all.
        arb.commit(3);
        arb.commit(1);
        arb.commit(0);
        assert_eq!(arb.peek(&[true; 4]), Some(2));
    }

    #[test]
    #[should_panic(expected = "at least one requestor")]
    fn zero_size_rejected() {
        let _ = MatrixArbiter::new(0);
    }

    #[test]
    fn peek_words_matches_peek_under_churn() {
        let mut arb = MatrixArbiter::new(6);
        let mut state = 0x9E37_79B9u64;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mask = state & 0x3F;
            let reqs: Vec<bool> = (0..6).map(|i| mask & (1 << i) != 0).collect();
            let scalar = arb.peek(&reqs);
            assert_eq!(arb.peek_words(&[mask]), scalar, "mask {mask:#b}");
            if let Some(w) = scalar {
                arb.commit(w);
            }
        }
    }

    #[test]
    fn peek_words_spans_multiple_words() {
        let mut arb = MatrixArbiter::new(70);
        let mut words = [0u64; 2];
        words[0] |= 1 << 3;
        words[1] |= 1 << (68 - 64);
        assert_eq!(arb.peek_words(&words), Some(3), "power-on: lower index beats");
        arb.commit(3);
        assert_eq!(arb.peek_words(&words), Some(68), "3 dropped below 68");
        assert_eq!(arb.peek_words(&[0, 0]), None);
    }

    #[test]
    fn reset_restores_index_order() {
        let mut arb = MatrixArbiter::new(3);
        arb.commit(0);
        arb.commit(1);
        arb.reset();
        assert_eq!(arb.peek(&[true; 3]), Some(0));
    }
}
