//! Word-parallel bit helpers for the multi-word masks of the request set
//! and the allocator kernels.
//!
//! Switch-allocation kernels spend their time answering three questions:
//! *which outputs does this virtual input want?*, *which ports want this
//! output?*, and *which VCs of this port carry a request of this
//! speculation class?* Each is a row of a boolean matrix. A
//! [`RequestSet`](crate::RequestSet) answers the last one itself — its
//! per-port active and speculative VC masks — and each kernel gathers the
//! rows it arbitrates over from it (one OR per request), so it evaluates a
//! whole request row with a handful of ANDs instead of a per-element scan.
//!
//! Rows are stored *words-per-row* (DESIGN.md §6d): a row over a domain of
//! `width` bits occupies `words_for(width) = ceil(width / 64)` consecutive
//! `u64`s, little-endian (bit `i` lives in word `i / 64` at bit `i % 64`).
//! At the paper's shapes every row is a single word; wider shapes —
//! radix-16 × 8 VCs, 128-virtual-input flattened butterflies — simply use
//! more words per row through the same loops. There is no upper width limit.


/// Number of `u64` words needed to hold `width` bits: `ceil(width / 64)`.
///
/// The words-per-row stride of every request-set mask and of every
/// multi-word scratch mask in the allocator kernels.
#[inline]
#[must_use]
pub const fn words_for(width: usize) -> usize {
    width.div_ceil(64)
}

/// Mask with the low `n` bits set (`n <= 64`).
///
/// The widening to `u128` makes `n == 64` and `n == 0` fall out of the
/// same expression — no shift-overflow special case for callers (or this
/// function) to branch around.
#[inline]
#[must_use]
pub fn mask_up_to(n: usize) -> u64 {
    debug_assert!(n <= 64, "mask width {n} exceeds one word");
    ((1u128 << n) - 1) as u64
}

/// Fills `words` with the multi-word mask of the low `n` bits — the
/// words-per-row generalisation of [`mask_up_to`]. Words past the mask are
/// cleared. Handles `n == 0` (all clear) and `n % 64 == 0` (whole words)
/// with the same expression as every other width.
#[inline]
pub fn set_low_bits(words: &mut [u64], n: usize) {
    debug_assert!(n <= words.len() * 64, "mask width {n} exceeds {} words", words.len());
    for (w, word) in words.iter_mut().enumerate() {
        *word = mask_up_to(n.saturating_sub(w * 64).min(64));
    }
}

/// Tests bit `i` of a multi-word mask.
#[inline]
#[must_use]
pub fn test_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

/// Sets bit `i` of a multi-word mask.
#[inline]
pub fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

/// Clears bit `i` of a multi-word mask.
#[inline]
pub fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// `true` when any bit of a multi-word mask is set.
#[inline]
#[must_use]
pub fn any_set(words: &[u64]) -> bool {
    words.iter().any(|&w| w != 0)
}

/// Population count of a multi-word mask.
#[inline]
#[must_use]
pub fn count_ones(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// `true` when any bit in `[start, start + len)` of a multi-word mask is
/// set — a window test without materialising the extracted window.
#[inline]
#[must_use]
pub fn range_any_set(words: &[u64], start: usize, len: usize) -> bool {
    debug_assert!(start + len <= words.len() * 64, "window past end of mask");
    let mut i = start;
    let end = start + len;
    while i < end {
        let w = i / 64;
        let lo = i % 64;
        let take = (end - i).min(64 - lo);
        if (words[w] >> lo) & mask_up_to(take) != 0 {
            return true;
        }
        i += take;
    }
    false
}

/// Copies the `len`-bit window starting at bit `start` of `src` into the
/// low bits of `dest`, clearing every other bit of `dest` — the
/// multi-word form of `(mask >> start) & mask_up_to(len)`, used by the
/// allocator kernels to carve one VIX sub-group's lines out of a VC row.
///
/// `dest` must hold at least `len` bits; `src` windows that reach past the
/// end of `src` read as zero.
#[inline]
pub fn extract_range(src: &[u64], start: usize, len: usize, dest: &mut [u64]) {
    debug_assert!(len <= dest.len() * 64, "window of {len} bits exceeds destination");
    let sw = start / 64;
    let sb = start % 64;
    for (w, word) in dest.iter_mut().enumerate() {
        let width = len.saturating_sub(w * 64).min(64);
        if width == 0 {
            *word = 0;
            continue;
        }
        let lo = src.get(sw + w).copied().unwrap_or(0) >> sb;
        let hi = if sb == 0 { 0 } else { src.get(sw + w + 1).copied().unwrap_or(0) << (64 - sb) };
        *word = (lo | hi) & mask_up_to(width);
    }
}

/// Clears every bit in `[start, start + len)` of a multi-word mask — used
/// to retire one VIX sub-group's VC window from a free-VC mask.
#[inline]
pub fn clear_range(words: &mut [u64], start: usize, len: usize) {
    debug_assert!(start + len <= words.len() * 64, "window past end of mask");
    let mut i = start;
    let end = start + len;
    while i < end {
        let w = i / 64;
        let lo = i % 64;
        let take = (end - i).min(64 - lo);
        words[w] &= !(mask_up_to(take) << lo);
        i += take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_up_to_covers_edges() {
        assert_eq!(mask_up_to(0), 0);
        assert_eq!(mask_up_to(1), 1);
        assert_eq!(mask_up_to(6), 0b11_1111);
        assert_eq!(mask_up_to(63), u64::MAX >> 1);
        assert_eq!(mask_up_to(64), u64::MAX);
    }

    #[test]
    fn set_low_bits_exhaustive_widths_0_to_192() {
        // The satellite contract: every width from 0 to 192 — including
        // the word-aligned widths 0, 64, 128, 192 that used to need a
        // shift-overflow special case — produces exactly `n` low bits.
        let mut words = [0u64; 3];
        for n in 0..=192usize {
            words.fill(!0); // stale garbage the fill must overwrite
            set_low_bits(&mut words, n);
            for i in 0..192 {
                assert_eq!(test_bit(&words, i), i < n, "width {n}, bit {i}");
            }
            assert_eq!(count_ones(&words) as usize, n, "width {n}");
        }
    }

    #[test]
    fn bit_ops_round_trip() {
        let mut words = [0u64; 2];
        for i in [0, 1, 63, 64, 100, 127] {
            assert!(!test_bit(&words, i));
            set_bit(&mut words, i);
            assert!(test_bit(&words, i));
        }
        assert!(any_set(&words));
        assert_eq!(count_ones(&words), 6);
        for i in [0, 1, 63, 64, 100, 127] {
            clear_bit(&mut words, i);
            assert!(!test_bit(&words, i));
        }
        assert!(!any_set(&words));
    }

    #[test]
    fn extract_range_matches_shift_and_mask() {
        let src = [0xDEAD_BEEF_CAFE_F00Du64, 0x0123_4567_89AB_CDEF, 0xFFFF_0000_FFFF_0000];
        let mut dest = [0u64; 2];
        for start in 0..=128usize {
            for len in [0, 1, 5, 63, 64, 65, 100, 128] {
                if start + len > 192 {
                    continue;
                }
                dest.fill(!0);
                extract_range(&src, start, len, &mut dest);
                for i in 0..128 {
                    let expect = i < len && test_bit(&src, start + i);
                    assert_eq!(test_bit(&dest, i), expect, "start {start} len {len} bit {i}");
                }
            }
        }
    }

    #[test]
    fn extract_past_the_end_reads_zero() {
        let src = [!0u64];
        let mut dest = [0u64; 2];
        extract_range(&src, 32, 80, &mut dest);
        assert_eq!(dest, [0xFFFF_FFFF, 0]);
    }

    #[test]
    fn range_helpers_agree_on_windows() {
        let words = [0u64, 1u64 << 5, 0];
        assert!(range_any_set(&words, 64, 6));
        assert!(range_any_set(&words, 69, 1));
        assert!(!range_any_set(&words, 70, 58));
        assert!(!range_any_set(&words, 0, 64));
        assert!(!range_any_set(&words, 0, 0));
        assert!(range_any_set(&words, 0, 192));

        let mut cleared = words;
        clear_range(&mut cleared, 64, 6);
        assert!(!any_set(&cleared));
        let mut untouched = words;
        clear_range(&mut untouched, 70, 122);
        assert_eq!(untouched, words);
    }

    #[test]
    fn words_for_matches_div_ceil() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }
}
