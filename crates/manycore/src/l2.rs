//! One bank of the shared L2 cache.

use crate::cache::SetAssocCache;
use crate::mshr::{MshrFile, MshrOutcome};
use std::collections::VecDeque;
use vix_core::{Cycle, NodeId};

/// What an L2 bank wants done after processing a lookup or a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Response {
    /// Send the block's data back to the requesting core (`txn` names the
    /// original transaction).
    DataToCore {
        /// Original transaction id.
        txn: u64,
    },
    /// Primary miss: fetch the block from the bank's memory controller.
    FetchFromMemory {
        /// Block address to fetch.
        block: u64,
    },
}

/// A shared-L2 bank: a real set-associative cache behind a fixed-latency
/// lookup pipeline and an MSHR file (Table 2: 256 KB, 16-way, 6-cycle
/// latency, 32 MSHRs per bank).
#[derive(Debug, Clone)]
pub struct L2Bank {
    node: NodeId,
    cache: SetAssocCache,
    mshr: MshrFile,
    lookup_latency: u64,
    /// Lookups in flight: `(ready_at, txn, block)`. Bounded by the bank's
    /// few-cycle lookup latency and off the per-cycle NoC transport, so a
    /// `VecDeque` at steady capacity is fine here.
    pipeline: VecDeque<(u64, u64, u64)>,
    hits: u64,
    misses: u64,
    writes: u64,
    /// Deterministic dirty-eviction pacing: every third eviction carries
    /// dirty data to memory.
    evictions: u64,
}

impl L2Bank {
    /// Creates the bank at `node` with Table 2 geometry.
    #[must_use]
    pub fn new(node: NodeId) -> Self {
        L2Bank::with_geometry(node, 256 * 1024, 16, 6, 32)
    }

    /// Creates a bank with explicit geometry (capacity in bytes, ways,
    /// lookup latency in cycles, MSHR entries).
    #[must_use]
    fn with_geometry(node: NodeId, capacity: usize, ways: usize, latency: u64, mshrs: usize) -> Self {
        L2Bank {
            node,
            cache: SetAssocCache::new(capacity, ways, 64),
            mshr: MshrFile::new(mshrs),
            lookup_latency: latency,
            pipeline: VecDeque::new(),
            hits: 0,
            misses: 0,
            writes: 0,
            evictions: 0,
        }
    }

    /// The bank's terminal.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Demand hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Observed miss ratio.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Accepts a request for `block` by transaction `txn` at time `now`;
    /// the lookup completes `lookup_latency` cycles later.
    pub fn request(&mut self, now: Cycle, txn: u64, block: u64) {
        self.pipeline.push_back((now.0 + self.lookup_latency, txn, block));
    }

    /// Accepts a fill from memory: installs the block and returns all
    /// transactions waiting on it (each needs a data reply to its core).
    pub fn memory_reply(&mut self, block: u64) -> Vec<u64> {
        if self.cache.insert(block).is_some() {
            self.evictions += 1;
        }
        self.mshr.complete(block)
    }

    /// Absorbs an L1 dirty-victim writeback: the block's data is written
    /// into the bank. Returns a victim block that must itself be written
    /// back to memory, if the insertion evicted dirty data (modelled as
    /// every third eviction).
    pub fn write(&mut self, block: u64) -> Option<u64> {
        self.writes += 1;
        let evicted = self.cache.insert(block)?;
        self.evictions += 1;
        self.evictions.is_multiple_of(3).then_some(evicted)
    }

    /// Writebacks absorbed so far.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Advances the lookup pipeline to `now`, returning the actions to
    /// perform.
    pub fn step(&mut self, now: Cycle) -> Vec<L2Response> {
        let mut out = Vec::new();
        while self.pipeline.front().is_some_and(|&(t, _, _)| t <= now.0) {
            let (_, txn, block) = self.pipeline.pop_front().expect("front checked");
            if self.cache.access(block) {
                self.hits += 1;
                out.push(L2Response::DataToCore { txn });
            } else {
                self.misses += 1;
                match self.mshr.allocate(block, txn) {
                    MshrOutcome::Primary => out.push(L2Response::FetchFromMemory { block }),
                    MshrOutcome::Secondary => {}
                    MshrOutcome::Full => {
                        // Structural stall: retry the lookup next cycle.
                        self.pipeline.push_front((now.0 + 1, txn, block));
                        break;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_fetches_then_hits() {
        let mut bank = L2Bank::new(NodeId(0));
        bank.request(Cycle(0), 1, 0x99);
        assert!(bank.step(Cycle(0)).is_empty(), "lookup still in the pipeline");
        let resp = bank.step(Cycle(6));
        assert_eq!(resp, vec![L2Response::FetchFromMemory { block: 0x99 }]);
        assert_eq!(bank.memory_reply(0x99), vec![1]);
        // Same block again: a hit after the fill.
        bank.request(Cycle(10), 2, 0x99);
        let resp = bank.step(Cycle(16));
        assert_eq!(resp, vec![L2Response::DataToCore { txn: 2 }]);
        assert_eq!(bank.hits(), 1);
        assert_eq!(bank.misses(), 1);
        assert!((bank.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn secondary_misses_merge_into_one_fetch() {
        let mut bank = L2Bank::new(NodeId(0));
        bank.request(Cycle(0), 1, 0x40);
        bank.request(Cycle(1), 2, 0x40);
        let mut fetches = Vec::new();
        fetches.extend(bank.step(Cycle(7)));
        assert_eq!(fetches.len(), 1, "one fetch for two misses on the same block");
        let waiters = bank.memory_reply(0x40);
        assert_eq!(waiters, vec![1, 2]);
    }

    #[test]
    fn lookup_latency_respected() {
        let mut bank = L2Bank::with_geometry(NodeId(0), 1024, 2, 3, 4);
        bank.request(Cycle(10), 7, 0x1);
        assert!(bank.step(Cycle(12)).is_empty());
        assert_eq!(bank.step(Cycle(13)).len(), 1);
    }

    #[test]
    fn full_mshrs_stall_the_pipeline() {
        let mut bank = L2Bank::with_geometry(NodeId(0), 1024, 2, 1, 1);
        bank.request(Cycle(0), 1, 0x10);
        bank.request(Cycle(0), 2, 0x20);
        let resp = bank.step(Cycle(1));
        assert_eq!(resp.len(), 1, "second distinct miss must wait for the MSHR");
        assert_eq!(bank.memory_reply(0x10), vec![1]);
        let resp = bank.step(Cycle(2));
        assert_eq!(resp, vec![L2Response::FetchFromMemory { block: 0x20 }], "retried after the MSHR freed");
    }

    #[test]
    fn requests_processed_in_order() {
        let mut bank = L2Bank::new(NodeId(0));
        bank.memory_reply_seed(&[0x1, 0x2]);
        bank.request(Cycle(0), 1, 0x1);
        bank.request(Cycle(0), 2, 0x2);
        let resp = bank.step(Cycle(6));
        assert_eq!(
            resp,
            vec![L2Response::DataToCore { txn: 1 }, L2Response::DataToCore { txn: 2 }]
        );
    }

    impl L2Bank {
        /// Test helper: pre-installs blocks.
        fn memory_reply_seed(&mut self, blocks: &[u64]) {
            for &b in blocks {
                self.cache.insert(b);
            }
        }
    }

    #[test]
    fn writes_install_blocks_and_pace_dirty_evictions() {
        // Tiny bank: 2 blocks total, so writes evict constantly.
        let mut bank = L2Bank::with_geometry(NodeId(0), 128, 2, 1, 4);
        let mut dirty = 0;
        for b in 0..12u64 {
            if bank.write(b).is_some() {
                dirty += 1;
            }
        }
        assert_eq!(bank.writes(), 12);
        assert!(dirty >= 2, "every third eviction goes to memory, got {dirty}");
        // Recently written blocks are resident (write-allocate).
        bank.request(Cycle(0), 9, 11);
        assert_eq!(bank.step(Cycle(1)), vec![L2Response::DataToCore { txn: 9 }]);
    }
}
