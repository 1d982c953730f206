//! Maximum-matching allocators: the paper's "AP" scheme and the ideal
//! VC-level matcher, unified over the virtual-input partition.

use crate::AllocatorConfig;
use crate::arbiter::Arbiter;
use vix_core::bits::{set_bit, words_for};
use vix_core::{Grant, GrantSet, PortId, RequestSet, VcId};
use vix_telemetry::MatchingStats;

/// Augmented-path maximum-matching allocator.
///
/// Builds a bipartite graph between *virtual inputs* (`ports × groups` left
/// vertices) and output ports, with an edge wherever any VC of the
/// sub-group requests the output, and computes a maximum matching with
/// Kuhn's augmenting-path algorithm
/// ([`crate::max_bipartite_matching_bits_into`]).
///
/// * With the baseline partition (1 group/port) this is the paper's **AP**
///   allocator: provably maximum *port-level* matching, but — like any
///   matching on ports — still subject to the input-port constraint.
/// * With the ideal partition (1 group/VC) it is the paper's **ideal VIX**:
///   a maximum matching at VC granularity, the upper bound of Figs. 7 & 12.
///
/// Greedy maximum matching has no fairness mechanism: it maximises this
/// cycle's transfer count with no regard for who waited. A rotating scan
/// offset removes *permanent* tie-break priority, but the residual
/// position-dependent bias is what the paper measures as AP's
/// network-level unfairness (Fig. 9). Within a matched sub-group the
/// champion VC is selected by a round-robin arbiter so multi-VC sub-groups
/// do not starve internally.
#[derive(Debug)]
pub struct MaxMatchingAllocator {
    pub(crate) cfg: AllocatorConfig,
    /// `partition.group_of(vc)` for every VC, hoisted out of the per-edge
    /// loop.
    vc_group: Vec<usize>,
    /// Champion selection within a matched sub-group, one per virtual input.
    vc_selectors: Vec<Box<dyn Arbiter>>,
    /// Rotating scan-start offset: removes *permanent* tie-break priority
    /// while keeping the greedy maximum-matching structure.
    offset: usize,
    scratch: MaxMatchingScratch,
    pub(crate) match_stats: MatchingStats,
}

/// Owned per-cycle working state reused across
/// [`crate::Allocator::allocate_into`] calls.
#[derive(Debug, Default)]
struct MaxMatchingScratch {
    /// Outputs requested by each sub-group as an output mask per row,
    /// `port_words` words per virtual input.
    adjacency_bits: Vec<u64>,
    matching: crate::matching::MatchingScratch,
    /// One matched (virtual input, output) pair's VC line.
    line_buf: Vec<u64>,
}

impl MaxMatchingAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new(cfg: AllocatorConfig) -> Self {
        let groups = cfg.partition.groups();
        let vc_group =
            (0..cfg.partition.vcs()).map(|v| cfg.partition.group_of(VcId(v)).0).collect();
        let vc_selectors =
            (0..cfg.ports * groups).map(|_| cfg.arbiter.build(cfg.partition.group_size())).collect();
        let match_stats = MatchingStats::new(cfg.ports * groups);
        MaxMatchingAllocator {
            cfg,
            vc_group,
            vc_selectors,
            offset: 0,
            scratch: MaxMatchingScratch::default(),
            match_stats,
        }
    }

    /// One cycle of [`crate::Allocator::allocate_into`].
    pub(crate) fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        debug_assert_eq!(requests.ports(), self.cfg.ports, "request set port mismatch");
        debug_assert_eq!(
            requests.vcs_per_port(),
            self.cfg.partition.vcs(),
            "request set VC mismatch"
        );
        grants.clear();
        let ports = self.cfg.ports;
        let groups = self.cfg.partition.groups();
        let group_size = self.cfg.partition.group_size();
        let port_words = words_for(ports);
        let Self { vc_group, vc_selectors, offset, scratch, match_stats, .. } = self;
        let MaxMatchingScratch { adjacency_bits, matching, line_buf } = scratch;
        line_buf.clear();
        line_buf.resize(words_for(group_size), 0);

        // Edge (virtual input → output) iff some VC of the sub-group
        // requests the output. The bit-mask rows are inherently in
        // ascending output order: the fixed tie-break of a hardware
        // matching network.
        adjacency_bits.clear();
        adjacency_bits.resize(ports * groups * port_words, 0);
        requests.for_each_request(|port, vc, out, _| {
            let row = (port.0 * groups + vc_group[vc.0]) * port_words;
            set_bit(&mut adjacency_bits[row..row + port_words], out.0);
        });
        crate::matching::max_bipartite_matching_bits_into(
            ports * groups,
            ports,
            adjacency_bits,
            *offset,
            matching,
        );
        *offset = (*offset + 1) % (ports * groups);

        for port in 0..ports {
            for group in 0..groups {
                let vi = port * groups + group;
                let Some(out) = matching.match_of_left[vi] else { continue };
                let selector = &mut vc_selectors[vi];
                // Champion among the sub-group's VCs that request `out`.
                let gstart = group * group_size;
                requests.vcs_requesting(PortId(port), PortId(out), None, gstart..gstart + group_size, line_buf);
                let local =
                    selector.peek_words(line_buf).expect("matched edge implies a requesting VC");
                selector.commit(local);
                grants.add(Grant {
                    port: PortId(port),
                    vc: VcId(group * group_size + local),
                    out_port: PortId(out),
                });
            }
        }
        // A virtual input is active iff its adjacency row is non-empty, and
        // the requested outputs are the union of the rows.
        let (mut active_vi, mut outputs) = (0, 0);
        for w in 0..port_words {
            let union = adjacency_bits.chunks_exact(port_words).fold(0, |u, row| u | row[w]);
            outputs += union.count_ones() as usize;
        }
        for row in adjacency_bits.chunks_exact(port_words) {
            active_vi += usize::from(row.iter().any(|&word| word != 0));
        }
        match_stats.record(requests.len(), active_vi, outputs, grants.len());
    }

    /// The scalar reference: sorted, deduplicated adjacency lists from
    /// per-VC [`RequestSet::get`] lookups into the list-based matcher —
    /// which tries them in the order the bit-mask rows are scanned.
    #[cfg(test)]
    pub(crate) fn allocate_scalar_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let groups = self.cfg.partition.groups();
        let group_size = self.cfg.partition.group_size();
        let group_vcs = crate::group_vcs(&self.cfg.partition);
        let Self { cfg, vc_selectors, offset, match_stats, .. } = self;

        let mut adjacency: Vec<Vec<usize>> = Vec::with_capacity(ports * groups);
        for port in 0..ports {
            for vcs in &group_vcs {
                let mut outs: Vec<usize> = vcs
                    .iter()
                    .filter_map(|&vc| requests.get(PortId(port), vc).map(|r| r.out_port.0))
                    .collect();
                outs.sort_unstable();
                outs.dedup();
                adjacency.push(outs);
            }
        }
        let match_of_left =
            crate::matching::max_bipartite_matching_from(ports * groups, ports, &adjacency, *offset);
        *offset = (*offset + 1) % (ports * groups);

        for port in 0..ports {
            for (group, vcs) in group_vcs.iter().enumerate() {
                let vi = port * groups + group;
                let Some(out) = match_of_left[vi] else { continue };
                let selector = &mut vc_selectors[vi];
                // Champion among the sub-group's VCs that request `out`.
                let lines: Vec<bool> = vcs
                    .iter()
                    .map(|&vc| requests.get(PortId(port), vc).is_some_and(|r| r.out_port.0 == out))
                    .collect();
                let local = selector.peek(&lines).expect("matched edge implies a requesting VC");
                selector.commit(local);
                grants.add(Grant {
                    port: PortId(port),
                    vc: VcId(group * group_size + local),
                    out_port: PortId(out),
                });
            }
        }
        match_stats.record_set(requests, grants, &cfg.partition);
    }

    pub(crate) fn note_idle_cycles(&mut self, n: u64) {
        // An empty allocate_into produces an empty matching (no arbiter
        // commits) but still rotates the scan-start offset; replay just the
        // rotations.
        let units = self.cfg.ports * self.cfg.partition.groups();
        self.offset = (self.offset + (n % units as u64) as usize) % units;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::VixPartition;
    use crate::Allocator;

    fn ap(ports: usize, vcs: usize) -> Allocator {
        max_matching(AllocatorConfig::new(ports, VixPartition::baseline(vcs)))
    }

    fn ideal(ports: usize, vcs: usize) -> Allocator {
        max_matching(AllocatorConfig::new(ports, VixPartition::even(vcs, vcs).unwrap()))
    }

    fn max_matching(cfg: AllocatorConfig) -> Allocator {
        Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(cfg)))
    }

    #[test]
    fn ap_achieves_maximum_port_matching() {
        // Separable IF can miss this matching; AP must find it.
        // Port 0 wants {1, 2}; port 1 wants {1}. Maximum matching: 0→2, 1→1.
        let mut alloc = ap(3, 2);
        let mut reqs = RequestSet::new(3, 2);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(0), VcId(1), PortId(2));
        reqs.request(PortId(1), VcId(0), PortId(1));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 2);
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn ap_respects_input_port_constraint() {
        // Only requests in the network come from one port: even a maximum
        // matcher can grant just one (the paper's second problem).
        let mut alloc = ap(5, 6);
        let mut reqs = RequestSet::new(5, 6);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(0), VcId(3), PortId(2));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1);
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn ideal_lifts_input_port_constraint() {
        let mut alloc = ideal(5, 6);
        let mut reqs = RequestSet::new(5, 6);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(0), VcId(3), PortId(2));
        reqs.request(PortId(0), VcId(5), PortId(4));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 3, "ideal VIX transfers one flit per requesting VC");
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn ideal_is_optimal_no_requested_output_idles() {
        // The paper's definition of optimal allocation: every output with
        // ≥1 requesting VC is busy. With per-VC virtual inputs a maximum
        // matching achieves it whenever requests ≥ outputs demanded.
        let mut alloc = ideal(5, 6);
        let mut reqs = RequestSet::new(5, 6);
        for p in 0..5 {
            for v in 0..6 {
                reqs.request(PortId(p), VcId(v), PortId((p + v) % 5));
            }
        }
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 5, "all 5 outputs must be allocated");
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn ap_matching_never_smaller_than_separable() {
        use crate::SeparableAllocator;
        // Exhaustive-ish sweep of small request patterns.
        let patterns: Vec<Vec<(usize, usize, usize)>> = vec![
            vec![(0, 0, 1), (1, 0, 1), (2, 0, 1)],
            vec![(0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0)],
            vec![(0, 0, 2), (1, 1, 2), (2, 0, 0), (2, 1, 1)],
        ];
        for pat in patterns {
            let mut reqs = RequestSet::new(3, 2);
            for &(p, v, o) in &pat {
                reqs.request(PortId(p), VcId(v), PortId(o));
            }
            let mut ap_alloc = ap(3, 2);
            let cfg = AllocatorConfig::new(3, VixPartition::baseline(2));
            let mut sep = Allocator::Separable(SeparableAllocator::new(cfg));
            assert!(
                ap_alloc.allocate(&reqs).len() >= sep.allocate(&reqs).len(),
                "AP must never under-match separable on {pat:?}"
            );
        }
    }

    #[test]
    fn rotating_offset_shares_contended_output() {
        // Ports 0 and 1 contend for output 2 forever; the rotating scan
        // offset must not let either starve permanently.
        let mut alloc = ap(3, 2);
        let mut wins = [0u32; 3];
        for _ in 0..12 {
            let mut reqs = RequestSet::new(3, 2);
            reqs.request(PortId(0), VcId(0), PortId(2));
            reqs.request(PortId(1), VcId(0), PortId(2));
            wins[alloc.allocate(&reqs).iter().next().unwrap().port.0] += 1;
        }
        assert!(wins[0] > 0 && wins[1] > 0, "both contenders must win sometimes: {wins:?}");
    }

    #[test]
    fn vc_selector_rotates_within_subgroup() {
        // Both VCs of port 0 request output 1; grants alternate VCs.
        let mut alloc = ap(3, 2);
        let mut winners = Vec::new();
        for _ in 0..4 {
            let mut reqs = RequestSet::new(3, 2);
            reqs.request(PortId(0), VcId(0), PortId(1));
            reqs.request(PortId(0), VcId(1), PortId(1));
            winners.push(alloc.allocate(&reqs).iter().next().unwrap().vc);
        }
        assert_eq!(winners, vec![VcId(0), VcId(1), VcId(0), VcId(1)]);
    }

    #[test]
    fn names_reflect_partition() {
        assert_eq!(ap(5, 6).name(), "AP");
        assert_eq!(ideal(5, 6).name(), "Ideal");
        let hybrid = max_matching(AllocatorConfig::new(5, VixPartition::even(6, 2).unwrap()));
        assert_eq!(hybrid.name(), "AP-VIX");
    }
}
