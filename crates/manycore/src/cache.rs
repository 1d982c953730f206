//! Set-associative LRU cache model.

/// A set-associative cache with true-LRU replacement, tracking block
/// presence only (the simulator moves data as packet payloads).
///
/// Used for the shared L2 banks (256 KB, 16-way, 64 B blocks per Table 2).
///
/// # Example
///
/// ```
/// use vix_manycore::SetAssocCache;
///
/// let mut bank = SetAssocCache::new(256 * 1024, 16, 64);
/// assert!(!bank.access(0x40));        // cold miss
/// bank.insert(0x40);
/// assert!(bank.access(0x40));         // hit
/// assert_eq!(bank.misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `sets[s]` holds up to `ways` block addresses, MRU first.
    sets: Vec<Vec<u64>>,
    ways: usize,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity
    /// and `block_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or any parameter is
    /// zero.
    #[must_use]
    pub fn new(capacity_bytes: usize, ways: usize, block_bytes: usize) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && block_bytes > 0, "cache geometry must be nonzero");
        let blocks = capacity_bytes / block_bytes;
        assert_eq!(blocks * block_bytes, capacity_bytes, "capacity must be a whole number of blocks");
        assert_eq!(blocks % ways, 0, "blocks must divide evenly into sets");
        let num_sets = blocks / ways;
        SetAssocCache { sets: vec![Vec::with_capacity(ways); num_sets], ways, accesses: 0, misses: 0 }
    }

    /// Number of sets.
    #[cfg(test)]
    fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio so far (0 when never accessed).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    /// Looks up `block`, updating LRU order and hit/miss statistics.
    /// Returns true on hit. Does **not** allocate on miss — call
    /// [`SetAssocCache::insert`] when the fill returns, as a real
    /// non-blocking cache does.
    pub fn access(&mut self, block: u64) -> bool {
        self.accesses += 1;
        let s = self.set_of(block);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&b| b == block) {
            let b = set.remove(pos);
            set.insert(0, b); // move to MRU
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// True if `block` is resident (no statistics or LRU update).
    #[must_use]
    pub fn probe(&self, block: u64) -> bool {
        self.sets[self.set_of(block)].contains(&block)
    }

    /// Fills `block`, evicting the LRU way if the set is full. Returns the
    /// evicted block, if any. Idempotent for resident blocks.
    pub fn insert(&mut self, block: u64) -> Option<u64> {
        let s = self.set_of(block);
        let ways = self.ways;
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&b| b == block) {
            let b = set.remove(pos);
            set.insert(0, b);
            return None;
        }
        let evicted = if set.len() == ways { set.pop() } else { None };
        set.insert(0, block);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_table2_l2_bank() {
        let bank = SetAssocCache::new(256 * 1024, 16, 64);
        assert_eq!(bank.num_sets(), 256);
        assert_eq!(bank.ways(), 16);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, 1 set: capacity 2 blocks.
        let mut c = SetAssocCache::new(128, 2, 64);
        c.insert(1);
        c.insert(2);
        assert!(c.access(1)); // 1 becomes MRU, 2 is LRU
        assert_eq!(c.insert(3), Some(2), "LRU block 2 must be evicted");
        assert!(c.probe(1));
        assert!(!c.probe(2));
        assert!(c.probe(3));
    }

    #[test]
    fn access_does_not_allocate() {
        let mut c = SetAssocCache::new(128, 2, 64);
        assert!(!c.access(7));
        assert!(!c.probe(7), "miss must not install the block");
        c.insert(7);
        assert!(c.access(7));
    }

    #[test]
    fn blocks_map_to_distinct_sets() {
        let mut c = SetAssocCache::new(256, 1, 64); // 4 direct-mapped sets
        for b in 0..4u64 {
            c.insert(b);
        }
        for b in 0..4u64 {
            assert!(c.probe(b), "no conflict among stride-1 blocks across 4 sets");
        }
    }

    #[test]
    fn miss_ratio_tracks_reuse() {
        let mut c = SetAssocCache::new(64 * 64, 4, 64); // 64 blocks
        for b in 0..32u64 {
            c.access(b);
            c.insert(b);
        }
        for b in 0..32u64 {
            assert!(c.access(b), "working set fits: all re-accesses hit");
        }
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thrashing_working_set_misses() {
        let mut c = SetAssocCache::new(64 * 16, 4, 64); // 16 blocks
        // Cyclic sweep over 32 blocks with LRU: every access misses.
        for round in 0..4 {
            for b in 0..32u64 {
                let hit = c.access(b);
                if round > 0 {
                    assert!(!hit, "LRU thrashes a cyclic over-capacity sweep");
                }
                c.insert(b);
            }
        }
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut c = SetAssocCache::new(128, 2, 64);
        c.insert(5);
        assert_eq!(c.insert(5), None);
        c.insert(6);
        assert_eq!(c.insert(5), None, "resident block refreshes, evicts nothing");
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_rejected() {
        let _ = SetAssocCache::new(192, 2, 64); // 3 blocks, 2 ways
    }
}
