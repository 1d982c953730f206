//! Allocator matching-efficiency instrumentation — the paper's §4 metric.
//!
//! The paper argues that an input-first separable allocator loses
//! throughput because input arbitration collapses each input port to a
//! single candidate *before* output arbitration, while VIX keeps one
//! candidate alive per virtual input. [`MatchingStats`] measures exactly
//! that, per allocation cycle:
//!
//! * **requests offered** — posted switch requests;
//! * **survivors** — requests still alive after per-virtual-input
//!   arbitration, i.e. the number of *distinct active virtual inputs*
//!   (each virtual input can forward at most one candidate to output
//!   arbitration, and a virtual input with any request always forwards
//!   one);
//! * **grants issued** — crossbar connections actually granted;
//! * **matching bound** — `min(active virtual inputs, distinct requested
//!   outputs)`, the size of a perfect matching on that cycle's request
//!   graph's vertex classes, so `grants / bound` is the per-cycle
//!   matching efficiency.
//!
//! Only non-empty allocation cycles are counted. That makes the numbers
//! independent of the activity-gated scheduler, which skips allocator
//! invocations for quiescent routers: a skipped invocation is exactly an
//! empty one.
//!
//! The instrumentation is pure observation — it never feeds back into
//! arbiter state or grant order, so determinism goldens and reference
//! parity are unaffected. Every allocator kernel hands the counts it
//! gathered anyway to [`MatchingStats::record`];
//! [`MatchingStats::record_set`] derives the same counts from a request set
//! alone, for the reference kernels the differential tests hold the
//! kernels' records against. Either way recording allocates nothing.

use std::fmt::Write as _;
use vix_core::{GrantSet, RequestSet, VixPartition};

/// Aggregated matching-efficiency counters, mergeable across routers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchingSummary {
    /// Non-empty allocation cycles observed.
    pub cycles: u64,
    /// Switch requests offered over those cycles.
    pub requests: u64,
    /// Requests surviving input (per-virtual-input) arbitration.
    pub survivors: u64,
    /// Grants issued.
    pub grants: u64,
    /// Σ per-cycle `min(active virtual inputs, distinct requested
    /// outputs)` — the denominator of the matching efficiency.
    pub match_bound: u64,
    /// Virtual inputs the allocator exposes (ports × sub-groups).
    pub virtual_inputs: u64,
}

impl MatchingSummary {
    /// Grants per unit of matching bound — the paper's §4 matching
    /// efficiency, in `[0, 1]`. Zero when nothing was observed.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.match_bound == 0 {
            0.0
        } else {
            self.grants as f64 / self.match_bound as f64
        }
    }

    /// Fraction of offered requests that survive input arbitration.
    #[must_use]
    fn survival_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.survivors as f64 / self.requests as f64
        }
    }

    /// Mean grants per non-empty allocation cycle.
    #[must_use]
    fn grants_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.grants as f64 / self.cycles as f64
        }
    }

    /// Fraction of virtual inputs granted per non-empty cycle — the
    /// VIX-specific virtual-input utilization.
    #[must_use]
    fn virtual_input_utilization(&self) -> f64 {
        let slots = self.cycles * self.virtual_inputs;
        if slots == 0 {
            0.0
        } else {
            self.grants as f64 / slots as f64
        }
    }

    /// Folds another summary (e.g. a sibling router's) into this one.
    /// Merging keeps the larger per-router virtual-input count, so
    /// utilization stays meaningful for homogeneous networks.
    pub fn merge(&mut self, other: &MatchingSummary) {
        self.cycles += other.cycles;
        self.requests += other.requests;
        self.survivors += other.survivors;
        self.grants += other.grants;
        self.match_bound += other.match_bound;
        self.virtual_inputs = self.virtual_inputs.max(other.virtual_inputs);
    }

    /// Renders the summary (raw counters plus derived rates) as a JSON
    /// object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"cycles\":{},\"requests\":{},\"survivors\":{},\"grants\":{},\
             \"match_bound\":{},\"virtual_inputs\":{},\"efficiency\":{:.6},\
             \"survival_rate\":{:.6},\"grants_per_cycle\":{:.6},\"vi_utilization\":{:.6}}}",
            self.cycles,
            self.requests,
            self.survivors,
            self.grants,
            self.match_bound,
            self.virtual_inputs,
            self.efficiency(),
            self.survival_rate(),
            self.grants_per_cycle(),
            self.virtual_input_utilization(),
        );
        out
    }
}

/// Per-allocator recorder: the running [`MatchingSummary`] and nothing
/// else.
#[derive(Debug, Clone, Default)]
pub struct MatchingStats {
    summary: MatchingSummary,
}

impl MatchingStats {
    /// A recorder for an allocator exposing `virtual_inputs` virtual
    /// inputs in total (ports × sub-groups).
    #[must_use]
    pub fn new(virtual_inputs: usize) -> Self {
        MatchingStats {
            summary: MatchingSummary { virtual_inputs: virtual_inputs as u64, ..Default::default() },
        }
    }

    /// Records one allocation cycle from counts the caller already has:
    /// `offered` posted requests, `active_vi` distinct virtual inputs with
    /// a request, `outputs` distinct requested output ports, `grants`
    /// issued. Empty cycles are ignored, so skipping a quiescent router's
    /// idle cycles leaves the statistics unchanged.
    ///
    /// An allocator kernel passes the counts it gathered while building
    /// its request rows; [`record_set`] derives the same counts from the
    /// request set alone.
    ///
    /// [`record_set`]: MatchingStats::record_set
    #[inline]
    pub fn record(&mut self, offered: usize, active_vi: usize, outputs: usize, grants: usize) {
        if offered == 0 {
            return;
        }
        let s = &mut self.summary;
        s.cycles += 1;
        s.requests += offered as u64;
        s.survivors += active_vi as u64;
        s.grants += grants as u64;
        s.match_bound += active_vi.min(outputs) as u64;
    }

    /// [`record`](MatchingStats::record) with the distinct-virtual-input
    /// count scanned word-parallel from the [`RequestSet`]'s VC masks
    /// ([`RequestSet::active_virtual_inputs`]) and the distinct-output
    /// count ORed up from its out-port column: one pass over the posted
    /// requests, no allocation (a set has at most 256 ports, so the union
    /// fits four words on the stack).
    pub fn record_set(&mut self, requests: &RequestSet, grants: &GrantSet, partition: &VixPartition) {
        let mut union = [0u64; 4];
        requests.for_each_request(|_, _, out, _| union[out.0 / 64] |= 1 << (out.0 % 64));
        let outputs = union.iter().map(|w| w.count_ones() as usize).sum();
        self.record(requests.len(), requests.active_virtual_inputs(partition), outputs, grants.len());
    }

    /// Snapshot of the counters so far.
    #[must_use]
    pub fn summary(&self) -> MatchingSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use vix_core::{Grant, PortId, VcId};

    fn requests(entries: &[(usize, usize, usize)]) -> RequestSet {
        let mut rs = RequestSet::new(5, 6);
        for &(p, v, o) in entries {
            rs.request(PortId(p), VcId(v), PortId(o));
        }
        rs
    }

    fn grants(entries: &[(usize, usize, usize)]) -> GrantSet {
        entries
            .iter()
            .map(|&(p, v, o)| Grant { port: PortId(p), vc: VcId(v), out_port: PortId(o) })
            .collect()
    }

    #[test]
    fn empty_cycles_are_not_counted() {
        let mut stats = MatchingStats::new(5);
        stats.record_set(&RequestSet::new(5, 6), &GrantSet::new(), &VixPartition::baseline(6));
        assert_eq!(stats.summary(), MatchingSummary { virtual_inputs: 5, ..Default::default() });
    }

    #[test]
    fn baseline_bound_counts_ports_not_vcs() {
        let mut stats = MatchingStats::new(5);
        // Port 0 offers three VCs, two of them to the same output: one
        // active virtual input, two distinct outputs -> bound 1.
        let rs = requests(&[(0, 0, 1), (0, 1, 1), (0, 2, 3)]);
        stats.record_set(&rs, &grants(&[(0, 0, 1)]), &VixPartition::baseline(6));
        let s = stats.summary();
        assert_eq!((s.cycles, s.requests, s.survivors, s.grants, s.match_bound), (1, 3, 1, 1, 1));
        assert_eq!(s.efficiency(), 1.0);
    }

    #[test]
    fn vix_partition_doubles_the_survivors() {
        let part = VixPartition::even(6, 2).unwrap();
        let mut stats = MatchingStats::new(10);
        // VCs 0 (sub-group 0) and 3 (sub-group 1) on port 0: two virtual
        // inputs survive, two outputs requested -> bound 2.
        let rs = requests(&[(0, 0, 1), (0, 3, 2)]);
        stats.record_set(&rs, &grants(&[(0, 0, 1), (0, 3, 2)]), &part);
        let s = stats.summary();
        assert_eq!((s.survivors, s.match_bound, s.grants), (2, 2, 2));
        assert_eq!(s.efficiency(), 1.0);
        assert_eq!(s.virtual_input_utilization(), 0.2);
    }

    #[test]
    fn output_contention_caps_the_bound() {
        let mut stats = MatchingStats::new(5);
        // Five ports all want output 0: bound is min(5, 1) = 1.
        let rs = requests(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]);
        stats.record_set(&rs, &grants(&[(2, 0, 0)]), &VixPartition::baseline(6));
        let s = stats.summary();
        assert_eq!((s.survivors, s.match_bound, s.grants), (5, 1, 1));
        assert_eq!(s.efficiency(), 1.0);
    }

    #[test]
    fn merge_adds_counters_and_keeps_vi_width() {
        let mut a = MatchingSummary {
            cycles: 2,
            requests: 10,
            survivors: 6,
            grants: 4,
            match_bound: 6,
            virtual_inputs: 5,
        };
        let b = MatchingSummary { cycles: 1, grants: 2, match_bound: 2, virtual_inputs: 5, ..a };
        a.merge(&b);
        assert_eq!((a.cycles, a.grants, a.match_bound, a.virtual_inputs), (3, 6, 8, 5));
    }

    #[test]
    fn degenerate_rates_are_zero_not_nan() {
        let s = MatchingSummary::default();
        assert_eq!(s.efficiency(), 0.0);
        assert_eq!(s.survival_rate(), 0.0);
        assert_eq!(s.grants_per_cycle(), 0.0);
        assert_eq!(s.virtual_input_utilization(), 0.0);
    }

    #[test]
    fn json_export_parses() {
        let mut stats = MatchingStats::new(5);
        let rs = requests(&[(0, 0, 1), (1, 0, 2)]);
        stats.record_set(&rs, &grants(&[(0, 0, 1), (1, 0, 2)]), &VixPartition::baseline(6));
        let doc = json::parse(&stats.summary().to_json()).unwrap();
        assert_eq!(doc.get("grants").and_then(json::JsonValue::as_u64), Some(2));
        assert_eq!(doc.get("efficiency").and_then(json::JsonValue::as_f64), Some(1.0));
    }
}
