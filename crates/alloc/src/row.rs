//! Bit rows held by value: the `[u64; W]` row the separable and iSLIP
//! kernels are written once over, monomorphised for `W = 1` (every row of
//! a paper shape is one `u64` in a register) and for [`WIDE`] words. Bit
//! `i` lives in word `i / 64 % W`, so no index needs a bounds check and
//! the one-word index folds to zero.

use crate::arbiter::first_set_from_words;
use vix_core::bits::{extract_range, mask_up_to, words_for};

/// Words per row of the multi-word instantiation: 256 bits, the most
/// ports a request set holds and more than the 255 VCs a flit names.
pub(crate) const WIDE: usize = 4;

/// Words an arbiter over `width` requestors reads from a `W`-word row: the
/// constant 1 in the one-word instantiation.
pub(crate) fn words<const W: usize>(width: usize) -> usize {
    if W == 1 { 1 } else { words_for(width) }
}

/// The operations the kernels perform on a row.
pub(crate) trait Row: Copy {
    /// The row holding the first `W` words of a request-set mask.
    fn load(mask: &[u64]) -> Self;
    fn is_empty(&self) -> bool;
    fn test(&self, i: usize) -> bool;
    /// ORs `bit` into bit `i`.
    fn set_if(&mut self, i: usize, bit: bool);
    fn set(&mut self, i: usize) {
        self.set_if(i, true);
    }
    fn clear(&mut self, i: usize);
    fn and(self, other: Self) -> Self;
    fn and_not(self, other: Self) -> Self;
    /// Bits `start .. start + len`, moved down to bit 0.
    fn window(&self, start: usize, len: usize) -> Self;
    /// The first set bit at or cyclically after `start` of a non-empty row.
    fn first_from(&self, start: usize) -> usize;
    /// Calls `f` with every set bit, lowest first.
    fn for_each(self, f: impl FnMut(usize));
}

impl<const W: usize> Row for [u64; W] {
    fn load(mask: &[u64]) -> Self {
        debug_assert!(mask.len() <= W, "mask of {} words in a {W}-word row", mask.len());
        std::array::from_fn(|w| mask.get(w).copied().unwrap_or(0))
    }

    fn is_empty(&self) -> bool {
        *self == [0; W]
    }

    fn test(&self, i: usize) -> bool {
        self[i / 64 % W] & (1 << (i % 64)) != 0
    }

    fn set_if(&mut self, i: usize, bit: bool) {
        debug_assert!(i < 64 * W, "bit {i} outside a {W}-word row");
        self[i / 64 % W] |= u64::from(bit) << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self[i / 64 % W] &= !(1 << (i % 64));
    }

    fn and(self, other: Self) -> Self {
        std::array::from_fn(|w| self[w] & other[w])
    }

    fn and_not(self, other: Self) -> Self {
        std::array::from_fn(|w| self[w] & !other[w])
    }

    #[inline(always)]
    fn window(&self, start: usize, len: usize) -> Self {
        let mut out = [0; W];
        if W == 1 {
            out[0] = (self[0] >> start) & mask_up_to(len);
        } else {
            extract_range(self, start, len, &mut out);
        }
        out
    }

    #[inline(always)]
    fn first_from(&self, start: usize) -> usize {
        debug_assert!(!self.is_empty(), "first set bit of an empty row");
        if W == 1 {
            let upper = self[0] & (!0 << start);
            (if upper != 0 { upper } else { self[0] }).trailing_zeros() as usize
        } else {
            first_set_from_words(self, start, 64 * W).expect("row is not empty")
        }
    }

    #[inline(always)]
    fn for_each(self, mut f: impl FnMut(usize)) {
        for (w, mut word) in self.into_iter().enumerate() {
            while word != 0 {
                f(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_word_and_wide_rows_agree_below_64_bits() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (start, len, from) = ((x >> 8) as usize % 32, (x >> 16) as usize % 33, (x >> 24) as usize % 64);
            let (one, wide) = (<[u64; 1]>::load(&[x]), <[u64; WIDE]>::load(&[x]));
            assert_eq!(one.window(start, len)[0], wide.window(start, len)[0]);
            if x != 0 {
                assert_eq!(one.first_from(from), wide.first_from(from));
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            one.for_each(|i| a.push(i));
            wide.for_each(|i| b.push(i));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn wide_rows_cross_word_boundaries() {
        let mut row = [0; WIDE];
        vix_core::bits::set_low_bits(&mut row, 130);
        assert_eq!(row, [!0, !0, 0b11, 0]);
        row.clear(64);
        assert!(!row.test(64) && row.test(63) && row.test(129) && !row.test(130));
        assert_eq!(row.window(60, 8)[0], 0b1110_1111);
        assert_eq!(row.first_from(130), 0, "wraps past the top");
        let mut sparse = [0u64; WIDE];
        sparse.set(200);
        sparse.set_if(70, false);
        assert_eq!(sparse.first_from(71), 200);
        assert_eq!(sparse, [0, 0, 0, 1 << 8]);
    }
}
