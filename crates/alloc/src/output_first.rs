//! Output-first separable allocator — the dual of the input-first scheme,
//! included to complete the separable design space of Becker & Dally's
//! allocator study (which the paper builds on).

use crate::AllocatorConfig;
use vix_arbiter::Arbiter;
use vix_core::bits::{any_set, clear_range, set_bit, set_low_bits, test_bit, words_for};
use vix_core::{Grant, GrantSet, PortId, RequestSet, VcId, VirtualInputId};
use vix_telemetry::MatchingStats;

/// Output-first separable switch allocator.
///
/// **Stage 1 (output arbitration):** one `P·v : 1` arbiter per output port
/// selects a candidate VC among *all* VCs requesting it.
///
/// **Stage 2 (input arbitration):** one arbiter per virtual input selects
/// which of its candidate VCs (winners of stage 1) actually transmits —
/// at most one per VC sub-group, like every allocator in this crate.
///
/// The failure mode is dual to input-first's: several outputs may pick
/// VCs behind the *same* virtual input, and all but one of those outputs
/// then idle. Exposing more virtual inputs (VIX) shrinks that collision
/// probability exactly as it does for input-first allocation.
///
/// Non-speculative requests win both stages over speculative ones.
#[derive(Debug)]
pub struct OutputFirstAllocator {
    pub(crate) cfg: AllocatorConfig,
    /// One per output port, over all `ports × vcs` VCs.
    output_arbiters: Vec<Box<dyn Arbiter>>,
    /// One per virtual input, over the output ports.
    input_arbiters: Vec<Box<dyn Arbiter>>,
    scratch: OutputFirstScratch,
    pub(crate) matching: MatchingStats,
}

/// Owned per-cycle working state reused across
/// [`crate::Allocator::allocate_into`] calls.
#[derive(Debug, Default)]
struct OutputFirstScratch {
    /// Stage-1 winners, one slot per output port.
    candidates: Vec<Option<(PortId, VcId)>>,
    /// `[class][out]` → the VCs requesting `out` in that speculation class,
    /// a mask over the flat `port × vcs + vc` index space.
    by_out: Vec<u64>,
    /// One output's stage-1 lines: its `by_out` row masked by `free`.
    flat_words: Vec<u64>,
    /// The VCs whose virtual input is still free, over the same flat index.
    free: Vec<u64>,
    /// Per-virtual-input mask of outputs whose stage-1 candidate it hosts,
    /// strided `words_for(ports)` words per unit.
    cand_masks: Vec<u64>,
    /// Multi-word taken-output mask.
    output_taken_bits: Vec<u64>,
}

impl OutputFirstAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new(cfg: AllocatorConfig) -> Self {
        let vcs_total = cfg.ports * cfg.partition.vcs();
        let units = cfg.ports * cfg.partition.groups();
        OutputFirstAllocator {
            cfg,
            output_arbiters: (0..cfg.ports).map(|_| cfg.arbiter.build(vcs_total)).collect(),
            input_arbiters: (0..units).map(|_| cfg.arbiter.build(cfg.ports)).collect(),
            scratch: OutputFirstScratch::default(),
            matching: MatchingStats::new(units),
        }
    }

    /// The word-parallel kernel. Stage 1's `P·v : 1` arbiter domain is the
    /// widest in the crate, so its lines are a multi-word mask over the
    /// flat `ports × vcs` index: each output's requesting VCs, gathered
    /// from the request set once per call (one OR per request), ANDed with
    /// the VCs whose virtual input is still free; stage 2 works on
    /// multi-word output masks.
    pub(crate) fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        debug_assert_eq!(requests.ports(), self.cfg.ports, "request set port mismatch");
        debug_assert_eq!(
            requests.vcs_per_port(),
            self.cfg.partition.vcs(),
            "request set VC mismatch"
        );
        grants.clear();
        let ports = self.cfg.ports;
        let vcs = self.cfg.partition.vcs();
        let groups = self.cfg.partition.groups();
        let units = ports * groups;
        let part = self.cfg.partition;
        let group_size = part.group_size();
        let fw = words_for(ports * vcs);
        let port_words = words_for(ports);
        let Self { output_arbiters, input_arbiters, scratch, matching, .. } = self;
        let OutputFirstScratch { candidates, by_out, flat_words, free, cand_masks, output_taken_bits } =
            scratch;
        by_out.clear();
        by_out.resize(2 * ports * fw, 0);
        requests.for_each_request(|port, vc, out, speculative| {
            let class = usize::from(speculative);
            set_bit(&mut by_out[(class * ports + out.0) * fw..], port.0 * vcs + vc.0);
        });
        free.clear();
        free.resize(fw, 0);
        set_low_bits(free, ports * vcs);
        output_taken_bits.clear();
        output_taken_bits.resize(port_words, 0);

        for speculative in [false, true] {
            // Stage 1: each free output picks a candidate VC.
            candidates.clear();
            candidates.resize(ports, None);
            cand_masks.clear();
            cand_masks.resize(units * port_words, 0);
            for out in 0..ports {
                if test_bit(output_taken_bits, out) {
                    continue;
                }
                let lines = &by_out[(usize::from(speculative) * ports + out) * fw..][..fw];
                flat_words.clear();
                flat_words.extend(lines.iter().zip(free.iter()).map(|(&line, &free)| line & free));
                if let Some(flat) = output_arbiters[out].peek_words(flat_words) {
                    let (p, v) = (PortId(flat / vcs), VcId(flat % vcs));
                    candidates[out] = Some((p, v));
                    set_bit(&mut cand_masks[(p.0 * groups + part.group_of(v).0) * port_words..], out);
                }
            }

            // Stage 2: each virtual input accepts one of the outputs whose
            // candidate it hosts.
            for vi in 0..units {
                let cand = &cand_masks[vi * port_words..(vi + 1) * port_words];
                let Some(out) = input_arbiters[vi].peek_words(cand) else { continue };
                let (p, v) = candidates[out].expect("line implies candidate");
                input_arbiters[vi].commit(out);
                output_arbiters[out].commit(p.0 * vcs + v.0);
                clear_range(free, p.0 * vcs + part.group_start(VirtualInputId(vi % groups)), group_size);
                set_bit(output_taken_bits, out);
                grants.add(Grant { port: p, vc: v, out_port: PortId(out) });
            }
        }
        let (nonspec, spec) = by_out.split_at(ports * fw);
        let outputs = nonspec.chunks_exact(fw).zip(spec.chunks_exact(fw)).filter(|(a, b)| any_set(a) || any_set(b)).count();
        matching.record(requests.len(), requests.active_virtual_inputs(&part), outputs, grants.len());
    }

    /// The original scalar loops: the executable specification the
    /// differential suite holds [`allocate_into`](Self::allocate_into)
    /// against.
    #[cfg(test)]
    pub(crate) fn allocate_scalar_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let vcs = self.cfg.partition.vcs();
        let groups = self.cfg.partition.groups();
        let units = ports * groups;
        let part = self.cfg.partition;
        let vi_of = move |p: PortId, v: VcId| p.0 * groups + part.group_of(v).0;
        let Self { output_arbiters, input_arbiters, matching, .. } = self;

        let mut vi_taken = vec![false; units];
        let mut output_taken = vec![false; ports];

        for speculative in [false, true] {
            // Stage 1: each free output picks a candidate VC.
            let mut candidates: Vec<Option<(PortId, VcId)>> = vec![None; ports];
            for out in 0..ports {
                if output_taken[out] {
                    continue;
                }
                let out_lines: Vec<bool> = (0..ports * vcs)
                    .map(|flat| {
                        let (p, v) = (PortId(flat / vcs), VcId(flat % vcs));
                        !vi_taken[vi_of(p, v)]
                            && requests.get(p, v).is_some_and(|r| {
                                r.out_port == PortId(out) && r.speculative == speculative
                            })
                    })
                    .collect();
                if let Some(flat) = output_arbiters[out].peek(&out_lines) {
                    candidates[out] = Some((PortId(flat / vcs), VcId(flat % vcs)));
                }
            }

            // Stage 2: each virtual input accepts one of the outputs whose
            // candidate it hosts.
            for vi in 0..units {
                if vi_taken[vi] {
                    continue;
                }
                let in_lines: Vec<bool> = (0..ports)
                    .map(|out| candidates[out].is_some_and(|(p, v)| vi_of(p, v) == vi))
                    .collect();
                let Some(out) = input_arbiters[vi].peek(&in_lines) else { continue };
                let (p, v) = candidates[out].expect("line implies candidate");
                input_arbiters[vi].commit(out);
                output_arbiters[out].commit(p.0 * vcs + v.0);
                vi_taken[vi] = true;
                output_taken[out] = true;
                grants.add(Grant { port: p, vc: v, out_port: PortId(out) });
            }
        }
        matching.record_set(requests, grants, &part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::VixPartition;
    use crate::Allocator;

    fn of(ports: usize, vcs: usize, groups: usize) -> Allocator {
        let cfg = AllocatorConfig::new(ports, VixPartition::even(vcs, groups).unwrap());
        Allocator::OutputFirst(OutputFirstAllocator::new(cfg))
    }

    #[test]
    fn single_request_granted() {
        let mut alloc = of(5, 6, 1);
        let mut reqs = RequestSet::new(5, 6);
        reqs.request(PortId(2), VcId(3), PortId(4));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1);
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn output_first_failure_mode_is_input_collision() {
        // Two outputs both pick VCs of the same (single-VI) input port:
        // only one transfer happens — the dual of IF's output collision.
        let mut alloc = of(5, 2, 1);
        let mut reqs = RequestSet::new(5, 2);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(0), VcId(1), PortId(2));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1, "one virtual input serves one output");
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn vix_lifts_the_collision() {
        let mut alloc = of(5, 2, 2);
        let mut reqs = RequestSet::new(5, 2);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(0), VcId(1), PortId(2));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 2, "OF-VIX serves both outputs from one port");
        g.validate_against(&reqs, alloc.partition()).unwrap();
        assert_eq!(alloc.name(), "OF-VIX");
    }

    #[test]
    fn grants_valid_under_dense_load() {
        // Early cycles legitimately under-match (all output arbiters start
        // at flat index 0 and their candidates cluster on the first
        // virtual inputs — output-first's documented weakness), so assert
        // per-cycle validity and healthy long-run throughput.
        let mut alloc = of(5, 6, 2);
        let mut total = 0;
        for cycle in 0..10 {
            let mut reqs = RequestSet::new(5, 6);
            for p in 0..5 {
                for v in 0..6 {
                    reqs.request(PortId(p), VcId(v), PortId((p * 3 + v + cycle) % 5));
                }
            }
            let g = alloc.allocate(&reqs);
            g.validate_against(&reqs, alloc.partition()).unwrap();
            assert!(!g.is_empty(), "dense requests can never fully idle the switch");
            total += g.len();
        }
        assert!(total >= 30, "long-run OF-VIX throughput too low: {total}/10 cycles");
    }

    #[test]
    fn contended_output_rotates_across_cycles() {
        let mut alloc = of(3, 1, 1);
        let mut winners = Vec::new();
        for _ in 0..4 {
            let mut reqs = RequestSet::new(3, 1);
            reqs.request(PortId(0), VcId(0), PortId(2));
            reqs.request(PortId(1), VcId(0), PortId(2));
            winners.push(alloc.allocate(&reqs).iter().next().unwrap().port);
        }
        assert!(winners.contains(&PortId(0)) && winners.contains(&PortId(1)), "{winners:?}");
    }

    #[test]
    fn non_speculative_priority_holds() {
        use vix_core::SwitchRequest;
        let mut alloc = of(3, 2, 1);
        let mut reqs = RequestSet::new(3, 2);
        reqs.push(SwitchRequest {
            port: PortId(0), vc: VcId(0), out_port: PortId(2), speculative: true, age: 0,
        });
        reqs.request(PortId(1), VcId(0), PortId(2));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.iter().next().unwrap().port, PortId(1));
    }
}
