//! Measurement-window statistics: latency, throughput, fairness.

use vix_core::{ActivityCounters, Cycle, NodeId};
use vix_telemetry::MatchingSummary;

/// Statistics collected over the measurement window of one simulation run.
///
/// Terminology follows §4.1 of the paper: *packet latency* is measured from
/// packet creation at the source queue to ejection of its tail flit
/// (queuing + network time); *throughput* is accepted traffic at the
/// ejection ports during the measurement window; *fairness* is the ratio of
/// the maximum to the minimum per-source accepted throughput (Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    nodes: usize,
    measured_cycles: u64,
    packet_len: usize,
    latency_sum: u64,
    /// Exact latency histogram: `latency_counts[l]` measured packets took
    /// `l` cycles. It ends at the worst latency seen, so it grows only when
    /// a new maximum appears and holds O(max latency) words, not one per
    /// packet.
    latency_counts: Vec<u64>,
    flits_ejected: u64,
    packets_ejected: u64,
    per_source_packets: Vec<u64>,
    offered_packets: u64,
    activity: ActivityCounters,
    matching: MatchingSummary,
}

impl NetworkStats {
    /// Creates empty statistics for a `nodes`-terminal network measured
    /// over `measured_cycles` cycles.
    #[must_use]
    pub fn new(nodes: usize, measured_cycles: u64, packet_len: usize) -> Self {
        NetworkStats {
            nodes,
            measured_cycles,
            packet_len,
            latency_sum: 0,
            latency_counts: Vec::new(),
            flits_ejected: 0,
            packets_ejected: 0,
            per_source_packets: vec![0; nodes],
            offered_packets: 0,
            activity: ActivityCounters::new(),
            matching: MatchingSummary::default(),
        }
    }

    /// Records a flit ejection inside the measurement window; on the tail
    /// flit, also records the packet's latency against `created_at`.
    pub fn record_ejection(&mut self, source: NodeId, is_tail: bool, created_at: Cycle, now: Cycle) {
        self.flits_ejected += 1;
        if is_tail {
            self.packets_ejected += 1;
            self.per_source_packets[source.0] += 1;
            let latency = now.since(created_at);
            self.latency_sum += latency;
            let l = usize::try_from(latency).expect("a latency fits in memory");
            if l >= self.latency_counts.len() {
                self.latency_counts.resize(l + 1, 0);
            }
            self.latency_counts[l] += 1;
        }
    }

    /// Records packets offered (created) during the window.
    pub fn record_offered(&mut self, packets: u64) {
        self.offered_packets += packets;
    }

    /// Attaches aggregated activity counters (for the energy model).
    pub fn set_activity(&mut self, activity: ActivityCounters) {
        self.activity = activity;
    }

    /// Aggregated router activity (whole run, all routers).
    #[must_use]
    pub fn activity(&self) -> &ActivityCounters {
        &self.activity
    }

    /// Attaches the aggregated allocator matching record (whole run, all
    /// routers).
    pub fn set_matching(&mut self, matching: MatchingSummary) {
        self.matching = matching;
    }

    /// Aggregated allocator matching record (paper §4's matching-efficiency
    /// metric, merged over every router).
    #[must_use]
    pub fn matching(&self) -> &MatchingSummary {
        &self.matching
    }

    /// Number of terminals.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Length of the measurement window in cycles.
    #[must_use]
    pub fn measured_cycles(&self) -> u64 {
        self.measured_cycles
    }

    /// Mean packet latency in cycles (creation → tail ejection).
    #[must_use]
    pub fn avg_packet_latency(&self) -> f64 {
        if self.packets_ejected == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets_ejected as f64
        }
    }

    /// Worst packet latency observed in the window.
    #[must_use]
    pub fn max_packet_latency(&self) -> u64 {
        self.latency_counts.len().saturating_sub(1) as u64
    }

    /// The `p`-th percentile packet latency (nearest-rank), or `None` when
    /// no packet completed in the window. Walks the latency histogram, so
    /// a query costs O(max latency) and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < p <= 100.0`.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        let n = self.packets_ejected;
        debug_assert_eq!(self.latency_counts.iter().sum::<u64>(), n, "one histogram entry per packet");
        if n == 0 {
            return None;
        }
        // Nearest-rank, clamped to [1, n] so float rounding near 100.0
        // can never rank past the last packet.
        let rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        let latency = self.latency_counts.iter().position(|&count| {
            seen += count;
            seen >= rank
        });
        latency.map(|l| l as u64)
    }

    /// Median packet latency (`None` for an idle window).
    #[must_use]
    pub fn median_packet_latency(&self) -> Option<u64> {
        self.latency_percentile(50.0)
    }

    /// Tail (99th-percentile) packet latency (`None` for an idle window).
    #[must_use]
    pub fn p99_packet_latency(&self) -> Option<u64> {
        self.latency_percentile(99.0)
    }

    /// Accepted throughput in flits/cycle/node.
    #[must_use]
    pub fn accepted_flits_per_node_cycle(&self) -> f64 {
        if self.measured_cycles == 0 {
            0.0
        } else {
            self.flits_ejected as f64 / self.measured_cycles as f64 / self.nodes as f64
        }
    }

    /// Accepted throughput in packets/cycle/node (the paper's Fig. 8 unit).
    #[must_use]
    pub fn accepted_packets_per_node_cycle(&self) -> f64 {
        if self.measured_cycles == 0 {
            0.0
        } else {
            self.packets_ejected as f64 / self.measured_cycles as f64 / self.nodes as f64
        }
    }

    /// Offered load actually generated during the window, packets/cycle/node.
    #[must_use]
    pub fn offered_packets_per_node_cycle(&self) -> f64 {
        if self.measured_cycles == 0 {
            0.0
        } else {
            self.offered_packets as f64 / self.measured_cycles as f64 / self.nodes as f64
        }
    }

    /// Per-source accepted packet counts (Fig. 9's raw data).
    #[must_use]
    pub fn per_source_packets(&self) -> &[u64] {
        &self.per_source_packets
    }

    /// Fairness: max/min per-source accepted throughput (Fig. 9). Returns
    /// `f64::INFINITY` when some source was fully starved, and 1.0 for an
    /// idle network.
    #[must_use]
    pub fn fairness_ratio(&self) -> f64 {
        let max = self.per_source_packets.iter().copied().max().unwrap_or(0);
        let min = self.per_source_packets.iter().copied().min().unwrap_or(0);
        if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }

    /// Packets fully delivered during the window.
    #[must_use]
    pub fn packets_ejected(&self) -> u64 {
        self.packets_ejected
    }

    /// Flits delivered during the window.
    #[must_use]
    pub fn flits_ejected(&self) -> u64 {
        self.flits_ejected
    }

    /// Configured flits per packet.
    #[must_use]
    pub fn packet_len(&self) -> usize {
        self.packet_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_throughput_accumulate() {
        let mut s = NetworkStats::new(4, 100, 2);
        s.record_ejection(NodeId(0), false, Cycle(0), Cycle(9));
        s.record_ejection(NodeId(0), true, Cycle(0), Cycle(10));
        s.record_ejection(NodeId(1), true, Cycle(5), Cycle(25));
        assert_eq!(s.packets_ejected(), 2);
        assert_eq!(s.flits_ejected(), 3);
        assert_eq!(s.avg_packet_latency(), 15.0);
        assert_eq!(s.max_packet_latency(), 20);
        assert!((s.accepted_flits_per_node_cycle() - 3.0 / 400.0).abs() < 1e-12);
        assert!((s.accepted_packets_per_node_cycle() - 2.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_ratio_cases() {
        let mut s = NetworkStats::new(2, 10, 1);
        assert_eq!(s.fairness_ratio(), 1.0, "idle network is perfectly fair");
        s.record_ejection(NodeId(0), true, Cycle(0), Cycle(1));
        assert_eq!(s.fairness_ratio(), f64::INFINITY, "a starved node is infinite unfairness");
        s.record_ejection(NodeId(1), true, Cycle(0), Cycle(1));
        s.record_ejection(NodeId(0), true, Cycle(0), Cycle(2));
        assert_eq!(s.fairness_ratio(), 2.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = NetworkStats::new(64, 0, 4);
        assert_eq!(s.avg_packet_latency(), 0.0);
        assert_eq!(s.accepted_flits_per_node_cycle(), 0.0);
        assert_eq!(s.offered_packets_per_node_cycle(), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = NetworkStats::new(2, 100, 1);
        for lat in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            s.record_ejection(NodeId(0), true, Cycle(0), Cycle(lat));
        }
        assert_eq!(s.median_packet_latency(), Some(50));
        assert_eq!(s.latency_percentile(90.0), Some(90));
        assert_eq!(s.p99_packet_latency(), Some(100));
        assert_eq!(s.latency_percentile(1.0), Some(10));
    }

    #[test]
    fn percentiles_none_when_idle() {
        let s = NetworkStats::new(2, 100, 1);
        assert_eq!(s.median_packet_latency(), None);
        assert_eq!(s.p99_packet_latency(), None);
        assert_eq!(s.latency_percentile(100.0), None);
        assert_eq!(s.latency_percentile(0.001), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = NetworkStats::new(2, 100, 1);
        s.record_ejection(NodeId(0), true, Cycle(0), Cycle(42));
        for p in [0.001, 1.0, 50.0, 99.0, 99.999, 100.0] {
            assert_eq!(s.latency_percentile(p), Some(42), "p = {p}");
        }
    }

    #[test]
    fn extreme_percentiles_stay_in_range() {
        let mut s = NetworkStats::new(2, 100, 1);
        for lat in [10u64, 20, 30] {
            s.record_ejection(NodeId(0), true, Cycle(0), Cycle(lat));
        }
        assert_eq!(s.latency_percentile(100.0), Some(30));
        assert_eq!(s.latency_percentile(99.999_999), Some(30));
        assert_eq!(s.latency_percentile(0.000_001), Some(10));
    }

    #[test]
    fn histogram_percentiles_match_a_sorted_nearest_rank() {
        use vix_rng::rngs::StdRng;
        use vix_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0005_7A75);
        for case in 0..1_200 {
            // Sizes 0..=2 000 over a small value range (heavy ties), with
            // a few outliers up to 10⁵ in every fourth multiset.
            let len = rng.gen_range(0..2_001usize);
            let spread = rng.gen_range(1..200u64);
            let mut lats: Vec<u64> = (0..len).map(|_| rng.gen_range(0..spread)).collect();
            if case % 4 == 0 {
                for lat in lats.iter_mut().take(rng.gen_range(0..5usize)) {
                    *lat = rng.gen_range(0..100_001u64);
                }
            }
            let mut s = NetworkStats::new(1, 100, 1);
            for &lat in &lats {
                s.record_ejection(NodeId(0), true, Cycle(0), Cycle(lat));
            }
            lats.sort_unstable();
            for p in [0.001, 1.0, 50.0, 99.0, 99.9, 100.0] {
                let rank = ((p / 100.0 * lats.len() as f64).ceil() as usize).clamp(1, lats.len().max(1));
                let expected = lats.get(rank - 1).copied();
                assert_eq!(s.latency_percentile(p), expected, "case {case}: p{p} of {} latencies", lats.len());
            }
            assert_eq!(s.max_packet_latency(), lats.last().copied().unwrap_or(0), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        let s = NetworkStats::new(2, 100, 1);
        let _ = s.latency_percentile(0.0);
    }

    #[test]
    fn offered_load_tracked() {
        let mut s = NetworkStats::new(2, 100, 1);
        s.record_offered(10);
        s.record_offered(10);
        assert!((s.offered_packets_per_node_cycle() - 0.1).abs() < 1e-12);
    }
}
