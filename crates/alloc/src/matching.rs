//! Maximum bipartite matching via augmenting paths.
//!
//! This is the computational core of the paper's "AP" allocator (§4.1,
//! attributed to Ford & Fulkerson) and of the ideal VC-level allocator.
//! Kuhn's algorithm: repeatedly search for an augmenting path from each
//! unmatched left vertex. Runs in `O(V · E)`, far too slow for a router
//! cycle — which is exactly the paper's point (Table 3 lists AP as
//! *infeasible* in hardware) — but fine for simulation.

/// Computes a maximum matching in a bipartite graph — the list-based
/// reference matcher the word-parallel
/// [`max_bipartite_matching_bits_into`] is held against.
///
/// `adjacency[l]` lists the right-side vertices reachable from left vertex
/// `l`. Returns `match_of_left` where `match_of_left[l]` is the right vertex
/// matched to `l`, or `None`.
///
/// Left vertices are scanned in index order, and adjacency lists are tried
/// in the order given. Ties between equally-maximal matchings are therefore
/// resolved in favour of low indices — the fixed scan order of a
/// combinational augmenting-path circuit. The paper's network-level
/// unfairness result for AP (Fig. 9) emerges from this determinism.
///
/// # Panics
///
/// Panics if an adjacency entry is `>= rights`.
#[cfg(test)]
pub(crate) fn max_bipartite_matching(
    lefts: usize,
    rights: usize,
    adjacency: &[Vec<usize>],
) -> Vec<Option<usize>> {
    max_bipartite_matching_from(lefts, rights, adjacency, 0)
}

/// [`max_bipartite_matching`] with a rotated left-vertex scan start.
///
/// The matching size is identical for any `offset` (maximum is maximum);
/// only the tie-break between equally-maximal matchings changes. Allocators
/// rotate the offset every cycle so that no port enjoys *permanent*
/// tie-break priority — the residual bias of greedy maximum matching is
/// what the paper measures as AP's network-level unfairness (Fig. 9).
///
/// # Panics
///
/// Panics if an adjacency entry is `>= rights`.
#[cfg(test)]
pub(crate) fn max_bipartite_matching_from(
    lefts: usize,
    rights: usize,
    adjacency: &[Vec<usize>],
    offset: usize,
) -> Vec<Option<usize>> {
    assert_eq!(adjacency.len(), lefts, "adjacency must have one entry per left vertex");
    for adj in adjacency {
        for &r in adj {
            assert!(r < rights, "right vertex {r} out of range ({rights})");
        }
    }
    let mut match_of_right = vec![None; rights];
    let mut match_of_left = vec![None; lefts];

    fn try_augment(
        l: usize,
        adjacency: &[Vec<usize>],
        visited: &mut [bool],
        match_of_right: &mut [Option<usize>],
        match_of_left: &mut [Option<usize>],
    ) -> bool {
        for &r in &adjacency[l] {
            if visited[r] {
                continue;
            }
            visited[r] = true;
            let free = match match_of_right[r] {
                None => true,
                Some(other) => {
                    try_augment(other, adjacency, visited, match_of_right, match_of_left)
                }
            };
            if free {
                match_of_right[r] = Some(l);
                match_of_left[l] = Some(r);
                return true;
            }
        }
        false
    }

    for i in 0..lefts {
        let l = (i + offset) % lefts;
        let mut visited = vec![false; rights];
        try_augment(l, adjacency, &mut visited, &mut match_of_right, &mut match_of_left);
    }
    match_of_left
}

/// Reusable working state for [`max_bipartite_matching_bits_into`]: the
/// two match arrays plus the per-augmentation visited set, retained across
/// cycles so the steady-state matcher never heap-allocates.
#[derive(Debug, Default)]
pub struct MatchingScratch {
    /// `match_of_left[l]` = right vertex matched to `l` (the result).
    pub match_of_left: Vec<Option<usize>>,
    match_of_right: Vec<Option<usize>>,
    /// Per-augmentation visited set, one bit per right vertex.
    visited_bits: Vec<u64>,
    /// Still-unmatched right vertices.
    free_rights: Vec<u64>,
}

/// Maximum bipartite matching over bit-mask adjacency, with a rotated
/// left-vertex scan start and caller-owned scratch: each left vertex
/// owns a row of `rights.div_ceil(64)` consecutive words in `adjacency`,
/// with bit `r` of the row set iff the left vertex reaches right vertex
/// `r`. The per-augmentation visited set is a word array of the same
/// width, so graphs of any size stay dense.
///
/// Candidate edges are scanned word-by-word with `trailing_zeros`, i.e. in
/// ascending right-vertex order — identical to the scalar algorithm on
/// *sorted, deduplicated* adjacency lists, which is exactly what the
/// allocators build. The resulting matching is therefore bit-identical to
/// the scalar path. The matching is left in `scratch.match_of_left`;
/// allocations happen only while the scratch grows to the problem size.
///
/// # Panics
///
/// Panics (in debug builds) if `adjacency.len()` is not
/// `lefts * rights.div_ceil(64)` or an adjacency row has bits at or above
/// `rights`.
pub fn max_bipartite_matching_bits_into(
    lefts: usize,
    rights: usize,
    adjacency: &[u64],
    offset: usize,
    scratch: &mut MatchingScratch,
) {
    let right_words = vix_core::bits::words_for(rights);
    debug_assert_eq!(
        adjacency.len(),
        lefts * right_words,
        "adjacency must have {right_words} words per left vertex"
    );
    debug_assert!(
        rights.is_multiple_of(64)
            || adjacency
                .chunks_exact(right_words.max(1))
                .all(|row| row[right_words - 1] >> (rights % 64) == 0),
        "adjacency row has right vertices out of range ({rights})"
    );
    let MatchingScratch { match_of_left, match_of_right, visited_bits, free_rights } = scratch;
    match_of_right.clear();
    match_of_right.resize(rights, None);
    match_of_left.clear();
    match_of_left.resize(lefts, None);

    fn try_augment(
        l: usize,
        right_words: usize,
        adjacency: &[u64],
        visited: &mut [u64],
        free_rights: &mut [u64],
        match_of_right: &mut [Option<usize>],
        match_of_left: &mut [Option<usize>],
    ) -> bool {
        let row = &adjacency[l * right_words..(l + 1) * right_words];
        // Recompute the candidate mask after every recursive probe: the
        // recursion may have visited further right vertices, and the scalar
        // loop skips those too. Visited bits only accumulate, so a word
        // that has drained stays drained and the scan never backtracks.
        let mut w = 0;
        while w < right_words {
            let cand = row[w] & !visited[w];
            if cand == 0 {
                w += 1;
                continue;
            }
            let bit = cand.trailing_zeros() as usize;
            let r = w * 64 + bit;
            visited[w] |= 1u64 << bit;
            let free = match match_of_right[r] {
                None => {
                    vix_core::bits::clear_bit(free_rights, r);
                    true
                }
                Some(other) => try_augment(
                    other,
                    right_words,
                    adjacency,
                    visited,
                    free_rights,
                    match_of_right,
                    match_of_left,
                ),
            };
            if free {
                match_of_right[r] = Some(l);
                match_of_left[l] = Some(r);
                return true;
            }
        }
        false
    }

    // Every augmenting path terminates at a *free* right vertex, so once
    // none remain every further `try_augment` is doomed — and a failed
    // augmentation never touches the match arrays, so skipping the
    // remaining lefts is behaviour-preserving, not an approximation. The
    // scalar reference kernel grinds through those provably-failing
    // searches; tracking the free set as a word array is what makes the
    // saturation cutoff cheap here.
    free_rights.clear();
    free_rights.resize(right_words, 0);
    vix_core::bits::set_low_bits(free_rights, rights);
    for i in 0..lefts {
        if !vix_core::bits::any_set(free_rights) {
            break;
        }
        let l = (i + offset) % lefts;
        visited_bits.clear();
        visited_bits.resize(right_words, 0);
        try_augment(
            l,
            right_words,
            adjacency,
            visited_bits,
            free_rights,
            match_of_right,
            match_of_left,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matching_size(m: &[Option<usize>]) -> usize {
        m.iter().filter(|x| x.is_some()).count()
    }

    #[test]
    fn perfect_matching_found() {
        // 3×3 with a permutation available.
        let m = max_bipartite_matching(3, 3, &[vec![0, 1], vec![0], vec![1, 2]]);
        assert_eq!(matching_size(&m), 3);
        assert_eq!(m[1], Some(0));
    }

    #[test]
    fn augmenting_path_reassigns_earlier_match() {
        // Left 0 grabs right 0 first; left 1 only reaches right 0, forcing
        // the augmenting path to move left 0 to right 1.
        let m = max_bipartite_matching(2, 2, &[vec![0, 1], vec![0]]);
        assert_eq!(m, vec![Some(1), Some(0)]);
    }

    #[test]
    fn empty_graph_matches_nothing() {
        let m = max_bipartite_matching(3, 3, &[vec![], vec![], vec![]]);
        assert_eq!(matching_size(&m), 0);
    }

    #[test]
    fn star_graph_matches_one() {
        // All lefts want right 0.
        let adj: Vec<Vec<usize>> = (0..4).map(|_| vec![0]).collect();
        let m = max_bipartite_matching(4, 3, &adj);
        assert_eq!(matching_size(&m), 1);
        assert_eq!(m[0], Some(0), "fixed scan order favours left 0");
    }

    #[test]
    fn rectangular_graphs_work() {
        let m = max_bipartite_matching(2, 5, &[vec![4], vec![4, 1]]);
        assert_eq!(m, vec![Some(4), Some(1)]);
    }

    #[test]
    fn no_right_vertex_matched_twice() {
        let adj: Vec<Vec<usize>> = (0..6).map(|l| vec![l % 3, (l + 1) % 3]).collect();
        let m = max_bipartite_matching(6, 3, &adj);
        let mut used = [false; 3];
        for r in m.into_iter().flatten() {
            assert!(!used[r], "right {r} matched twice");
            used[r] = true;
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_adjacency_panics() {
        let _ = max_bipartite_matching(1, 1, &[vec![3]]);
    }

    #[test]
    fn bits_variant_matches_scalar_on_sorted_adjacency() {
        // Pseudo-random bipartite graphs; the list version gets the same
        // edges sorted ascending, so both must produce identical matchings.
        let mut state = 0xDEAD_BEEFu64;
        for (lefts, rights) in [(4, 4), (6, 3), (3, 6), (10, 8)] {
            for offset in 0..lefts {
                let mut adj_bits = vec![0u64; lefts];
                for row in adj_bits.iter_mut() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    *row = state & ((1u64 << rights) - 1);
                }
                let adj_lists: Vec<Vec<usize>> = adj_bits
                    .iter()
                    .map(|&m| (0..rights).filter(|&r| m & (1 << r) != 0).collect())
                    .collect();
                let scalar = max_bipartite_matching_from(lefts, rights, &adj_lists, offset);
                let mut bits = MatchingScratch::default();
                max_bipartite_matching_bits_into(lefts, rights, &adj_bits, offset, &mut bits);
                assert_eq!(
                    scalar, bits.match_of_left,
                    "kernels diverged on {lefts}x{rights} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn bits_variant_matches_scalar_beyond_64_rights() {
        // Multi-word rows: right domains of 70 and 130 vertices force two-
        // and three-word adjacency rows; the matchings must stay identical
        // to the scalar list kernel.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for (lefts, rights) in [(12usize, 70usize), (9, 130), (80, 65)] {
            let words = rights.div_ceil(64);
            for offset in [0, 3, lefts - 1] {
                let mut adj_bits = vec![0u64; lefts * words];
                for row in adj_bits.chunks_exact_mut(words) {
                    for (w, word) in row.iter_mut().enumerate() {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        // Sparse-ish rows so augmenting chains actually form.
                        *word = state & state.rotate_left(29) & state.rotate_left(47);
                        let hi = rights.saturating_sub(w * 64).min(64);
                        *word &= ((1u128 << hi) - 1) as u64;
                    }
                }
                let adj_lists: Vec<Vec<usize>> = adj_bits
                    .chunks_exact(words)
                    .map(|row| {
                        (0..rights)
                            .filter(|&r| row[r / 64] & (1u64 << (r % 64)) != 0)
                            .collect()
                    })
                    .collect();
                let scalar = max_bipartite_matching_from(lefts, rights, &adj_lists, offset);
                let mut bits = MatchingScratch::default();
                max_bipartite_matching_bits_into(lefts, rights, &adj_bits, offset, &mut bits);
                assert_eq!(
                    scalar, bits.match_of_left,
                    "kernels diverged on {lefts}x{rights} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn maximality_matches_greedy_lower_bound() {
        // On a known hard instance the matching must beat plain greedy.
        // Greedy (no augmenting) would match left0→right0 and stop at 1 on
        // `augmenting_path_reassigns_earlier_match`; here verify a chain of
        // forced reassignments resolves to the full matching.
        let adj = vec![vec![0], vec![0, 1], vec![1, 2], vec![2, 3]];
        let m = max_bipartite_matching(4, 4, &adj);
        assert_eq!(matching_size(&m), 4);
    }
}
