//! Activity counters collected by the cycle-accurate simulator and consumed
//! by the energy model (§3, Fig. 11 of the paper).
//!
//! The simulator increments these counters as events happen; the
//! `vix-power` crate multiplies them by per-event energies and adds
//! clock/leakage terms proportional to `cycles`.

/// Raw event counts for one simulation run (whole network or one router).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Simulated cycles (drives clock + leakage energy).
    pub cycles: u64,
    /// Routers in the network (scales static energy).
    pub routers: u64,
    /// Flit writes into input buffers.
    pub buffer_writes: u64,
    /// Flit reads out of input buffers (switch traversals start here).
    pub buffer_reads: u64,
    /// Flits that traversed a crossbar.
    pub crossbar_traversals: u64,
    /// Flits that traversed an inter-router link.
    pub link_traversals: u64,
    /// Flits delivered to a terminal (ejection link traversals).
    pub ejections: u64,
    /// Switch-allocation attempts (arbitration energy).
    pub sa_arbitrations: u64,
    /// VC-allocation attempts.
    pub va_arbitrations: u64,
    /// Total payload bits moved end-to-end (denominator of energy/bit).
    pub bits_delivered: u64,
}

impl ActivityCounters {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        ActivityCounters::default()
    }

    /// Element-wise accumulation (e.g. summing per-router counters).
    ///
    /// `cycles` is *maxed*, not summed: per-router counters from one run
    /// share a timebase, so the aggregate's `routers × cycles` (the clock
    /// and leakage term in `vix-power`) counts every router for the full
    /// run exactly once. This requires each input to report wall-clock
    /// cycles — an activity-gated simulation must credit back the cycles
    /// it skipped for a quiescent router (the network sim does this at
    /// reporting time), or idle leakage would be under-counted while
    /// `routers` still summed to the full network. Pinned end-to-end by
    /// `tests/reference_parity.rs`, which compares the energy of the
    /// engine's counters with a simulator's that steps every router every
    /// cycle.
    pub fn merge(&mut self, other: &ActivityCounters) {
        self.cycles = self.cycles.max(other.cycles);
        self.routers += other.routers;
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.crossbar_traversals += other.crossbar_traversals;
        self.link_traversals += other.link_traversals;
        self.ejections += other.ejections;
        self.sa_arbitrations += other.sa_arbitrations;
        self.va_arbitrations += other.va_arbitrations;
        self.bits_delivered += other.bits_delivered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_events_and_maxes_cycles() {
        let mut a = ActivityCounters { cycles: 100, buffer_writes: 5, ..Default::default() };
        let b = ActivityCounters { cycles: 80, buffer_writes: 7, link_traversals: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.buffer_writes, 12);
        assert_eq!(a.link_traversals, 3);
    }

    #[test]
    fn aggregate_router_cycles_product_counts_each_router_once() {
        // The power model's static term is `routers × cycles` of the
        // aggregate. Merging N per-router counters that share a timebase
        // must make that product equal the sum of the per-router products
        // — no double-count from summing cycles, no idle leakage lost.
        let per_router = ActivityCounters { cycles: 1_000, routers: 1, ..Default::default() };
        let mut total = ActivityCounters::new();
        for _ in 0..16 {
            total.merge(&per_router);
        }
        assert_eq!(total.routers, 16);
        assert_eq!(total.cycles, 1_000);
        assert_eq!(total.routers * total.cycles, 16 * per_router.routers * per_router.cycles);
    }

    #[test]
    fn default_is_zeroed() {
        let c = ActivityCounters::new();
        assert_eq!(c, ActivityCounters::default());
        assert_eq!(c.bits_delivered, 0);
    }
}
