//! Miss-status holding registers with secondary-miss merging.

use std::collections::HashMap;

/// Outcome of trying to allocate an MSHR for a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss on this block: a new entry was allocated; the caller
    /// must issue the fill request downstream.
    Primary,
    /// The block already has an outstanding fill: the transaction was
    /// merged; no new downstream request.
    Secondary,
    /// All MSHRs are busy: the miss must be retried (structural stall).
    Full,
}

/// A file of miss-status holding registers: at most `capacity` distinct
/// blocks may have fills in flight, with unlimited merging of secondary
/// misses per block (Table 2: 32 MSHRs per L1/L2).
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// block → transaction tags waiting for the fill.
    entries: HashMap<u64, Vec<u64>>,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one entry");
        MshrFile { capacity, entries: HashMap::new() }
    }

    /// Entries currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// True when no fill can be started for a new block.
    #[cfg(test)]
    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Registers a miss on `block` by transaction `txn`.
    pub fn allocate(&mut self, block: u64, txn: u64) -> MshrOutcome {
        if let Some(waiters) = self.entries.get_mut(&block) {
            waiters.push(txn);
            return MshrOutcome::Secondary;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(block, vec![txn]);
        MshrOutcome::Primary
    }

    /// Completes the fill of `block`, returning every waiting transaction
    /// (primary first).
    ///
    /// # Panics
    ///
    /// Panics if no fill was outstanding for `block` (protocol bug).
    pub fn complete(&mut self, block: u64) -> Vec<u64> {
        self.entries.remove(&block).expect("completing a fill that was never started")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_secondary_merging() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.allocate(0x10, 1), MshrOutcome::Primary);
        assert_eq!(m.allocate(0x10, 2), MshrOutcome::Secondary);
        assert_eq!(m.allocate(0x10, 3), MshrOutcome::Secondary);
        assert_eq!(m.in_flight(), 1, "merged misses share one entry");
        assert_eq!(m.complete(0x10), vec![1, 2, 3]);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn capacity_limits_distinct_blocks() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(1, 10), MshrOutcome::Primary);
        assert_eq!(m.allocate(2, 11), MshrOutcome::Primary);
        assert!(m.is_full());
        assert_eq!(m.allocate(3, 12), MshrOutcome::Full);
        // Secondary misses still merge even when full.
        assert_eq!(m.allocate(1, 13), MshrOutcome::Secondary);
        m.complete(1);
        assert_eq!(m.allocate(3, 12), MshrOutcome::Primary, "freed entry is reusable");
    }

    #[test]
    #[should_panic(expected = "never started")]
    fn completing_unknown_block_panics() {
        let mut m = MshrFile::new(2);
        m.complete(99);
    }
}
