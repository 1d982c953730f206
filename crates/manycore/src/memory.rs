//! On-chip memory controller model.

use std::collections::VecDeque;
use vix_core::{Cycle, NodeId};

/// A memory controller: fixed DRAM access latency, bounded outstanding
/// requests, and a bandwidth cap on replies (Table 2: 8 controllers,
/// 80 ns ≈ 160 cycles at 2 GHz, 4 DDR channels each).
#[derive(Debug, Clone)]
pub struct MemoryController {
    node: NodeId,
    latency: u64,
    max_outstanding: usize,
    /// Minimum cycles between replies (bandwidth cap).
    reply_gap: u64,
    /// `(ready_at, block, reply_to_bank)`. A `VecDeque` is fine here:
    /// controllers sit off the per-cycle NoC transport (the zero-alloc /
    /// hotpath gates never build a manycore system), see a few requests
    /// per hundred cycles, and reach steady capacity after warmup.
    in_flight: VecDeque<(u64, u64, NodeId)>,
    /// Requests waiting for an outstanding slot.
    backlog: VecDeque<(u64, NodeId)>,
    last_reply_at: u64,
    served: u64,
}

impl MemoryController {
    /// Creates a controller at `node` with Table 2 parameters.
    #[must_use]
    pub fn new(node: NodeId) -> Self {
        MemoryController::with_parameters(node, 160, 64, 2)
    }

    /// Creates a controller with explicit latency (cycles), outstanding
    /// request limit, and reply gap (cycles between replies).
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    #[must_use]
    fn with_parameters(node: NodeId, latency: u64, max_outstanding: usize, reply_gap: u64) -> Self {
        assert!(max_outstanding > 0, "controller needs at least one slot");
        MemoryController {
            node,
            latency,
            max_outstanding,
            reply_gap,
            in_flight: VecDeque::new(),
            backlog: VecDeque::new(),
            last_reply_at: 0,
            served: 0,
        }
    }

    /// The controller's terminal.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Requests served so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests currently queued or in flight.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.in_flight.len() + self.backlog.len()
    }

    /// Enqueues a fetch of `block` on behalf of L2 bank `bank`.
    pub fn request(&mut self, now: Cycle, block: u64, bank: NodeId) {
        if self.in_flight.len() < self.max_outstanding {
            self.in_flight.push_back((now.0 + self.latency, block, bank));
        } else {
            self.backlog.push_back((block, bank));
        }
    }

    /// Advances to `now`, returning `(block, bank)` fills whose data is
    /// ready, at most one per `reply_gap` cycles.
    pub fn step(&mut self, now: Cycle) -> Vec<(u64, NodeId)> {
        let mut replies = Vec::new();
        while self.in_flight.front().is_some_and(|&(t, _, _)| t <= now.0) {
            if self.served > 0 && now.0 < self.last_reply_at + self.reply_gap {
                break; // bandwidth cap: retry next cycle
            }
            let (_, block, bank) = self.in_flight.pop_front().expect("front checked");
            self.last_reply_at = now.0;
            self.served += 1;
            replies.push((block, bank));
            if let Some((b, n)) = self.backlog.pop_front() {
                self.in_flight.push_back((now.0 + self.latency, b, n));
            }
            // One reply per step call when a gap is configured.
            if self.reply_gap > 0 {
                break;
            }
        }
        replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_service() {
        let mut mc = MemoryController::with_parameters(NodeId(0), 100, 8, 0);
        mc.request(Cycle(5), 0x40, NodeId(3));
        assert!(mc.step(Cycle(104)).is_empty());
        assert_eq!(mc.step(Cycle(105)), vec![(0x40, NodeId(3))]);
        assert_eq!(mc.served(), 1);
    }

    #[test]
    fn reply_gap_limits_bandwidth() {
        let mut mc = MemoryController::with_parameters(NodeId(0), 10, 8, 4);
        for i in 0..3 {
            mc.request(Cycle(0), i, NodeId(1));
        }
        let mut reply_times = Vec::new();
        for t in 0..40u64 {
            for _ in mc.step(Cycle(t)) {
                reply_times.push(t);
            }
        }
        assert_eq!(reply_times.len(), 3);
        for pair in reply_times.windows(2) {
            assert!(pair[1] - pair[0] >= 4, "replies too close: {reply_times:?}");
        }
    }

    #[test]
    fn backlog_spills_beyond_outstanding_limit() {
        let mut mc = MemoryController::with_parameters(NodeId(0), 10, 2, 0);
        for i in 0..5 {
            mc.request(Cycle(0), i, NodeId(1));
        }
        assert_eq!(mc.pending(), 5);
        let mut got = 0;
        for t in 0..100u64 {
            got += mc.step(Cycle(t)).len();
        }
        assert_eq!(got, 5, "backlogged requests are eventually served");
        assert_eq!(mc.pending(), 0);
    }
}
