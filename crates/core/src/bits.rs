//! Dense word-parallel bit planes of a [`RequestSet`](crate::RequestSet) —
//! together with two flat per-VC arrays, the set's only representation.
//!
//! Switch-allocation kernels spend their time answering three questions:
//! *which outputs does this virtual input want?*, *which ports want this
//! output?*, and *which VCs of this port carry a request of this
//! speculation class?* Each is a row of a boolean matrix. [`RequestBits`]
//! keeps those rows — per-(class, port, output) VC masks, per-(class,
//! port) output masks, per-(class, output) requester masks, and per-port
//! active / speculative VC masks — incrementally in sync with the owning
//! [`RequestSet`](crate::RequestSet)'s `push`/`remove`/`clear`, so
//! allocators evaluate a whole request row with a handful of ANDs instead
//! of a per-element scan and never rebuild the matrix.
//!
//! Rows are stored *words-per-row* (DESIGN.md §6d): a row over a domain of
//! `width` bits occupies `words_for(width) = ceil(width / 64)` consecutive
//! `u64`s, little-endian (bit `i` lives in word `i / 64` at bit `i % 64`).
//! At the paper's shapes every row is a single word; wider shapes —
//! radix-16 × 8 VCs, 128-virtual-input flattened butterflies — simply use
//! more words per row through the same loops. There is no upper width limit.
//!
//! The view is maintained by the request set itself; allocators only read
//! it (via [`RequestSet::bits`](crate::RequestSet::bits)), which is why
//! every mutator lives in `pub(crate)` methods.

use crate::ids::PortId;

/// Number of `u64` words needed to hold `width` bits: `ceil(width / 64)`.
///
/// The words-per-row stride of every [`RequestBits`] plane and of every
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

/// ORs the low `len` bits of `src` into `dest` starting at bit `start` —
/// the inverse of [`extract_range`], used to deposit one port's VC line
/// into a flat `ports × vcs` request word array even when the line
/// straddles a word boundary. Bits of `src` at or above `len` must be
/// clear.
#[inline]
pub fn deposit_range(dest: &mut [u64], start: usize, src: &[u64], len: usize) {
    debug_assert!(start + len <= dest.len() * 64, "deposit past end of destination");
    let dw = start / 64;
    let db = start % 64;
    let src_words = words_for(len);
    for (w, &word) in src.iter().enumerate().take(src_words) {
        dest[dw + w] |= word << db;
        if db != 0 && dw + w + 1 < dest.len() {
            dest[dw + w + 1] |= word >> (64 - db);
        }
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

/// The incrementally-maintained dense bit planes of one request set.
///
/// All masks are indexed little-endian: bit `i` of a VC mask is VC `i`,
/// bit `o` of an output mask is output port `o`, bit `p` of a requester
/// mask is input port `p`. VC masks are `vc_words()` words wide; output
/// and requester masks are `port_words()` words wide. Speculation classes
/// are stored as separate planes (`speculative == false` first), so
/// allocators that run a non-speculative pass before a speculative one
/// index the plane directly instead of filtering per element.
///
/// Every plane lives in one allocation (DESIGN.md §6d), so emptying the
/// view is a single `fill(0)` and registering a request is one OR per
/// plane at a computed offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBits {
    ports: usize,
    vcs: usize,
    /// `ceil(vcs / 64)` — stride of every VC-mask row.
    vc_words: usize,
    /// `ceil(ports / 64)` — stride of every output/requester-mask row.
    port_words: usize,
    /// The planes, back to back:
    /// * `[class][port][out]` → VC mask, from word 0, row at
    ///   `((class * ports + port) * ports + out) * vc_words`;
    /// * `[class][port]` → output mask (bit `o` ⇔ the `(class, port, o)`
    ///   VC plane is non-empty), from `rows_at`, row at
    ///   `(class * ports + port) * port_words`;
    /// * `[class][out]` → requesting-port mask, from `requesters_at`, row
    ///   at `(class * ports + out) * port_words`;
    /// * `[port]` → VC mask of all posted requests, from `active_at`;
    /// * `[port]` → VC mask of the speculative requests, from `spec_at`.
    words: Vec<u64>,
    rows_at: usize,
    requesters_at: usize,
    active_at: usize,
    spec_at: usize,
}

impl RequestBits {
    /// Creates an empty view for `ports × vcs` request slots. Any
    /// dimensions are accepted; rows wider than 64 bits simply span
    /// multiple words.
    pub(crate) fn new(ports: usize, vcs: usize) -> Self {
        let vc_words = words_for(vcs);
        let port_words = words_for(ports);
        let rows_at = 2 * ports * ports * vc_words;
        let requesters_at = rows_at + 2 * ports * port_words;
        let active_at = requesters_at + 2 * ports * port_words;
        let spec_at = active_at + ports * vc_words;
        RequestBits {
            ports,
            vcs,
            vc_words,
            port_words,
            words: vec![0; spec_at + ports * vc_words],
            rows_at,
            requesters_at,
            active_at,
            spec_at,
        }
    }

    /// Words per VC-mask row: `ceil(vcs / 64)`.
    #[inline]
    #[must_use]
    pub fn vc_words(&self) -> usize {
        self.vc_words
    }

    /// Words per output/requester-mask row: `ceil(ports / 64)`.
    #[inline]
    #[must_use]
    pub fn port_words(&self) -> usize {
        self.port_words
    }

    #[inline]
    fn plane_start(&self, speculative: bool, port: usize, out: usize) -> usize {
        ((usize::from(speculative) * self.ports + port) * self.ports + out) * self.vc_words
    }

    #[inline]
    fn row_start(&self, speculative: bool, i: usize) -> usize {
        (usize::from(speculative) * self.ports + i) * self.port_words
    }

    /// Registers a request; the owning set guarantees the slot was empty
    /// and the indices are in range. One OR per plane.
    #[inline]
    pub(crate) fn insert(&mut self, port: usize, vc: usize, out: usize, speculative: bool) {
        let (vw, vb) = (vc / 64, 1u64 << (vc % 64));
        let plane = self.plane_start(speculative, port, out) + vw;
        let row = self.rows_at + self.row_start(speculative, port) + out / 64;
        let req = self.requesters_at + self.row_start(speculative, out) + port / 64;
        let line = port * self.vc_words + vw;
        self.words[plane] |= vb;
        self.words[row] |= 1u64 << (out % 64);
        self.words[req] |= 1u64 << (port % 64);
        self.words[self.active_at + line] |= vb;
        self.words[self.spec_at + line] |= if speculative { vb } else { 0 };
    }

    /// Unregisters a request previously passed to `insert`.
    pub(crate) fn remove(&mut self, port: usize, vc: usize, out: usize, speculative: bool) {
        let (vw, vb) = (vc / 64, 1u64 << (vc % 64));
        let plane = self.plane_start(speculative, port, out);
        self.words[plane + vw] &= !vb;
        if !any_set(&self.words[plane..plane + self.vc_words]) {
            let row = self.rows_at + self.row_start(speculative, port);
            let req = self.requesters_at + self.row_start(speculative, out);
            self.words[row + out / 64] &= !(1u64 << (out % 64));
            self.words[req + port / 64] &= !(1u64 << (port % 64));
        }
        let line = port * self.vc_words + vw;
        self.words[self.active_at + line] &= !vb;
        self.words[self.spec_at + line] &= !vb;
    }

    /// Empties the view: one flat fill over every plane, independent of
    /// how many requests were posted.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// VC mask of `port`'s requests for `out` in one speculation class —
    /// the innermost row every separable/wavefront champion selection
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `port` or `out` is out of range. This
    /// accessor sits on allocator inner loops, so the bounds check is a
    /// `debug_assert` (the PR 5 convention of `vix.rs`).
    #[inline]
    #[must_use]
    pub fn vc_plane(&self, speculative: bool, port: PortId, out: PortId) -> &[u64] {
        debug_assert!(
            port.0 < self.ports && out.0 < self.ports,
            "port {port} / out {out} out of range (ports = {})",
            self.ports
        );
        let start = self.plane_start(speculative, port.0, out.0);
        &self.words[start..start + self.vc_words]
    }

    /// Word `w` of the VC mask of `port`'s requests for `out`, either
    /// speculation class (the OR of the two planes, one word at a time —
    /// a slice cannot be returned for a computed union).
    #[inline]
    #[must_use]
    pub fn vc_plane_any_word(&self, port: PortId, out: PortId, w: usize) -> u64 {
        debug_assert!(w < self.vc_words, "word {w} out of range ({} vc words)", self.vc_words);
        self.words[self.plane_start(false, port.0, out.0) + w]
            | self.words[self.plane_start(true, port.0, out.0) + w]
    }

    /// Output mask of `port` in one speculation class: bit `o` is set when
    /// any VC of the port posts a `speculative`-class request for `o`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `port` is out of range (hot-accessor
    /// `debug_assert` convention).
    #[inline]
    #[must_use]
    pub fn row(&self, speculative: bool, port: PortId) -> &[u64] {
        debug_assert!(port.0 < self.ports, "port {port} out of range (ports = {})", self.ports);
        let start = self.rows_at + self.row_start(speculative, port.0);
        &self.words[start..start + self.port_words]
    }

    /// Word `w` of the output mask of `port` over both speculation classes.
    #[inline]
    #[must_use]
    pub fn row_any_word(&self, port: PortId, w: usize) -> u64 {
        debug_assert!(w < self.port_words, "word {w} out of range ({} port words)", self.port_words);
        let rows = &self.words[self.rows_at..self.requesters_at];
        rows[self.row_start(false, port.0) + w] | rows[self.row_start(true, port.0) + w]
    }

    /// Requesting-port mask of `out` in one speculation class.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `out` is out of range (hot-accessor
    /// `debug_assert` convention).
    #[cfg(test)]
    fn requesters(&self, speculative: bool, out: PortId) -> &[u64] {
        debug_assert!(out.0 < self.ports, "out {out} out of range (ports = {})", self.ports);
        let start = self.requesters_at + self.row_start(speculative, out.0);
        &self.words[start..start + self.port_words]
    }

    /// Word `w` of the requesting-port mask of `out` over both classes.
    #[inline]
    #[must_use]
    pub fn requesters_any_word(&self, out: PortId, w: usize) -> u64 {
        debug_assert!(w < self.port_words, "word {w} out of range ({} port words)", self.port_words);
        let requesters = &self.words[self.requesters_at..self.active_at];
        requesters[self.row_start(false, out.0) + w] | requesters[self.row_start(true, out.0) + w]
    }

    /// VC mask of every posted request at `port`.
    #[inline]
    #[must_use]
    pub fn active_vcs(&self, port: PortId) -> &[u64] {
        let start = self.active_at + port.0 * self.vc_words;
        &self.words[start..start + self.vc_words]
    }

    /// VC mask of the speculative requests at `port`.
    #[inline]
    #[must_use]
    pub fn spec_vcs(&self, port: PortId) -> &[u64] {
        let start = self.spec_at + port.0 * self.vc_words;
        &self.words[start..start + self.vc_words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VcId;
    use crate::request::{RequestSet, SwitchRequest};

    fn req(p: usize, v: usize, o: usize, speculative: bool) -> SwitchRequest {
        SwitchRequest {
            port: PortId(p),
            vc: VcId(v),
            out_port: PortId(o),
            speculative,
            age: 0,
        }
    }

    /// Rebuilds the view from scratch and compares with the incrementally
    /// maintained one — the invariant every mutator must preserve.
    fn assert_consistent(rs: &RequestSet) {
        let mut fresh = RequestBits::new(rs.ports(), rs.vcs_per_port());
        for r in rs.active_requests() {
            fresh.insert(r.port.0, r.vc.0, r.out_port.0, r.speculative);
        }
        assert_eq!(rs.bits(), &fresh, "incremental view diverged from rebuild");
    }

    #[test]
    fn masks_track_push_remove_clear() {
        let mut rs = RequestSet::new(4, 3);
        rs.push(req(1, 0, 2, false));
        rs.push(req(1, 2, 2, true));
        rs.push(req(3, 1, 0, false));
        assert_consistent(&rs);

        let b = rs.bits();
        assert_eq!(b.vc_plane(false, PortId(1), PortId(2)), [0b001]);
        assert_eq!(b.vc_plane(true, PortId(1), PortId(2)), [0b100]);
        assert_eq!(b.vc_plane_any_word(PortId(1), PortId(2), 0), 0b101);
        assert_eq!(b.row(false, PortId(1)), [0b100]);
        assert_eq!(b.row(true, PortId(1)), [0b100]);
        assert_eq!(b.row_any_word(PortId(3), 0), 0b001);
        assert_eq!(b.requesters(false, PortId(2)), [0b0010]);
        assert_eq!(b.requesters_any_word(PortId(2), 0), 0b0010);
        assert_eq!(b.active_vcs(PortId(1)), [0b101]);
        assert_eq!(b.spec_vcs(PortId(1)), [0b100]);

        rs.remove(PortId(1), VcId(0));
        assert_consistent(&rs);
        assert_eq!(rs.bits().vc_plane(false, PortId(1), PortId(2)), [0]);
        assert_eq!(rs.bits().row(false, PortId(1)), [0]);
        assert_eq!(rs.bits().requesters(false, PortId(2)), [0]);

        rs.clear();
        assert_consistent(&rs);
        assert_eq!(rs.bits().active_vcs(PortId(1)), [0]);
        assert_eq!(rs.bits().row_any_word(PortId(1), 0), 0);
    }

    #[test]
    fn replacing_a_request_updates_every_plane() {
        let mut rs = RequestSet::new(3, 2);
        rs.push(req(0, 1, 2, true));
        // Same VC, new output, new class: the old bits must vanish.
        rs.push(req(0, 1, 1, false));
        assert_consistent(&rs);
        let b = rs.bits();
        assert_eq!(b.vc_plane(true, PortId(0), PortId(2)), [0]);
        assert_eq!(b.vc_plane(false, PortId(0), PortId(1)), [0b10]);
        assert_eq!(b.spec_vcs(PortId(0)), [0]);
        assert_eq!(b.requesters_any_word(PortId(2), 0), 0);
    }

    #[test]
    fn random_churn_stays_consistent() {
        // Deterministic pseudo-random insert/remove/clear churn.
        let mut rs = RequestSet::new(6, 4);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..2_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = (x % 6) as usize;
            let v = ((x >> 8) % 4) as usize;
            let o = ((x >> 16) % 6) as usize;
            match (x >> 24) % 10 {
                0 => {
                    rs.clear();
                }
                1 | 2 => {
                    rs.remove(PortId(p), VcId(v));
                }
                _ => {
                    rs.push(req(p, v, o, (x >> 32).is_multiple_of(3)));
                }
            }
            if step.is_multiple_of(97) {
                assert_consistent(&rs);
            }
        }
        assert_consistent(&rs);
    }

    #[test]
    fn wide_shapes_span_multiple_words() {
        // 70 ports × 3 VCs: output and requester rows straddle two words.
        let mut rs = RequestSet::new(70, 3);
        rs.push(req(68, 1, 69, false));
        rs.push(req(68, 2, 3, true));
        rs.push(req(1, 0, 69, false));
        assert_consistent(&rs);

        let b = rs.bits();
        assert_eq!(b.port_words(), 2);
        assert_eq!(b.vc_words(), 1);
        assert_eq!(b.row(false, PortId(68)), [0, 1u64 << (69 - 64)]);
        assert_eq!(b.row(true, PortId(68)), [1u64 << 3, 0]);
        assert_eq!(b.row_any_word(PortId(68), 0), 1u64 << 3);
        assert_eq!(b.requesters(false, PortId(69)), [1u64 << 1, 1u64 << (68 - 64)]);
        assert_eq!(b.requesters_any_word(PortId(69), 1), 1u64 << (68 - 64));
        assert_eq!(b.vc_plane(false, PortId(68), PortId(69)), [0b010]);

        rs.remove(PortId(68), VcId(1));
        assert_consistent(&rs);
        assert!(!any_set(rs.bits().row(false, PortId(68))));

        rs.clear();
        assert_consistent(&rs);
        assert!(!any_set(rs.bits().active_vcs(PortId(68))));
    }

    #[test]
    fn wide_vc_rows_span_multiple_words() {
        // 3 ports × 130 VCs: every VC mask is three words.
        let mut rs = RequestSet::new(3, 130);
        rs.push(req(0, 129, 2, false));
        rs.push(req(0, 64, 2, true));
        rs.push(req(0, 63, 1, false));
        assert_consistent(&rs);

        let b = rs.bits();
        assert_eq!(b.vc_words(), 3);
        assert_eq!(b.vc_plane(false, PortId(0), PortId(2)), [0, 0, 1u64 << 1]);
        assert_eq!(b.vc_plane(true, PortId(0), PortId(2)), [0, 1, 0]);
        assert_eq!(b.vc_plane_any_word(PortId(0), PortId(2), 1), 1);
        assert_eq!(b.active_vcs(PortId(0)), [1u64 << 63, 1, 1u64 << 1]);
        assert_eq!(b.spec_vcs(PortId(0)), [0, 1, 0]);

        rs.clear();
        assert_consistent(&rs);
    }

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
    fn deposit_range_is_extracts_inverse() {
        let line = [0b1011_0110u64, 0b101];
        for start in [0usize, 1, 60, 64, 120, 129] {
            let len = 67;
            let mut flat = [0u64; 4];
            deposit_range(&mut flat, start, &line, len);
            let mut back = [0u64; 2];
            extract_range(&flat, start, len, &mut back);
            assert_eq!(back, [line[0], line[1] & mask_up_to(3)], "start {start}");
            // Nothing outside the window was touched.
            assert_eq!(count_ones(&flat), count_ones(&back), "start {start}");
        }
    }

    #[test]
    fn deposit_ors_into_existing_bits() {
        let mut flat = [1u64, 0];
        deposit_range(&mut flat, 62, &[0b1111], 4);
        assert_eq!(flat, [1 | (0b11 << 62), 0b11]);
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
