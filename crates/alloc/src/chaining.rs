//! Packet chaining allocator (*SameInput, anyVC*), after Michelogiannakis
//! et al., MICRO-44, as described in §4.4 of the VIX paper.

use crate::separable::SeparableAllocator;
use crate::AllocatorConfig;
use crate::arbiter::Arbiter;
use vix_core::bits::{set_bit, test_bit, words_for};
use vix_core::{Grant, GrantSet, PortId, RequestSet, SwitchRequest, VcId};
use vix_telemetry::MatchingStats;

/// Packet-chaining switch allocator ("PC").
///
/// Connections that carried a flit in the previous cycle are *inherited*:
/// if any VC of the same input port (`anyVC`) still requests the same
/// output, the connection is kept and bypasses allocation entirely. Only
/// the remaining inputs and outputs go through the underlying input-first
/// separable allocator.
///
/// The paper's reading (§4.4): chaining works *by elimination* — held
/// connections remove requests from the matrix, reducing uncoordinated
/// input/output arbiter decisions — whereas VIX works by *exposing more*
/// non-conflicting requests. PC inherits the input-port constraint: at most
/// one flit per input port per cycle.
///
/// Call [`crate::Allocator::observe_traversals`] with the flits that
/// actually crossed the switch each cycle; chains form only from real
/// traversals.
#[derive(Debug)]
pub struct PacketChainingAllocator {
    pub(crate) cfg: AllocatorConfig,
    inner: SeparableAllocator,
    /// `held[out] = Some(input)`: the connection that carried a flit last
    /// cycle and is eligible for inheritance.
    held: Vec<Option<PortId>>,
    /// Champion VC selection for inherited connections, one per input port.
    vc_selectors: Vec<Box<dyn Arbiter>>,
    /// Reused residual request set handed to the inner allocator.
    residual: RequestSet,
    /// Reused output buffer of the inner allocator.
    inner_grants: GrantSet,
    scratch: ChainingScratch,
    /// PC's own matching record over the *full* request set (the inner
    /// separable allocator only ever sees the residual).
    pub(crate) matching: MatchingStats,
}

/// Owned per-cycle working state reused across
/// [`crate::Allocator::allocate_into`] calls.
#[derive(Debug, Default)]
struct ChainingScratch {
    /// Inherited inputs, one bit per port.
    input_taken_bits: Vec<u64>,
    /// Inherited outputs, one bit per port.
    output_taken_bits: Vec<u64>,
    /// One inherited connection's VC line.
    line: Vec<u64>,
}

impl PacketChainingAllocator {
    /// Creates the allocator over a separable core.
    #[must_use]
    pub fn new(cfg: AllocatorConfig) -> Self {
        let inner = SeparableAllocator::new(cfg);
        let vc_selectors = (0..cfg.ports).map(|_| cfg.arbiter.build(cfg.partition.vcs())).collect();
        PacketChainingAllocator {
            cfg,
            inner,
            held: vec![None; cfg.ports],
            vc_selectors,
            residual: RequestSet::new(cfg.ports, cfg.partition.vcs()),
            inner_grants: GrantSet::new(),
            scratch: ChainingScratch::default(),
            matching: MatchingStats::new(cfg.ports * cfg.partition.groups()),
        }
    }

    /// The word-parallel kernel: an inherited chain's champion line comes
    /// from the request set's masks and out ports, and the taken flags
    /// are word arrays of one bit per port. Phase 2 delegates to the inner
    /// separable allocator.
    pub(crate) fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        debug_assert_eq!(requests.ports(), self.cfg.ports, "request set port mismatch");
        grants.clear();
        let ports = self.cfg.ports;
        let port_words = words_for(ports);
        let Self { cfg, inner, held, vc_selectors, residual, inner_grants, scratch, matching } =
            self;
        let ChainingScratch { input_taken_bits, output_taken_bits, line } = scratch;
        line.clear();
        line.resize(requests.vc_words(), 0);
        input_taken_bits.clear();
        input_taken_bits.resize(port_words, 0);
        output_taken_bits.clear();
        output_taken_bits.resize(port_words, 0);

        // Phase 1: inherit surviving chains.
        for (out, slot) in held.iter_mut().enumerate().take(ports) {
            let Some(input) = *slot else { continue };
            if test_bit(input_taken_bits, input.0) {
                *slot = None;
                continue;
            }
            // anyVC: any VC of the same input requesting the same output,
            // non-speculative preferred.
            let mut chosen = None;
            for speculative in [false, true] {
                requests.vcs_requesting(input, PortId(out), Some(speculative), 0..cfg.partition.vcs(), line);
                let sel = &mut vc_selectors[input.0];
                if let Some(v) = sel.peek_words(line) {
                    sel.commit(v);
                    chosen = Some(VcId(v));
                    break;
                }
            }
            match chosen {
                Some(vc) => {
                    set_bit(input_taken_bits, input.0);
                    set_bit(output_taken_bits, out);
                    grants.add(Grant { port: input, vc, out_port: PortId(out) });
                }
                None => *slot = None,
            }
        }

        // Phase 2: separable allocation over the remaining requests. The
        // same walk ORs up the requested outputs for the matching record
        // (a set has at most 256 ports).
        residual.clear();
        let mut outputs = [0u64; 4];
        requests.for_each_request(|port, vc, out_port, speculative| {
            outputs[out_port.0 / 64] |= 1 << (out_port.0 % 64);
            if !test_bit(input_taken_bits, port.0) && !test_bit(output_taken_bits, out_port.0) {
                residual.push(SwitchRequest { port, vc, out_port, speculative, age: requests.age(port, vc) });
            }
        });
        inner.allocate_into(residual, inner_grants);
        grants.extend(inner_grants.iter().copied());
        let outputs = outputs.iter().map(|w| w.count_ones() as usize).sum();
        matching.record(requests.len(), requests.active_virtual_inputs(&cfg.partition), outputs, grants.len());
    }

    /// The original scalar loops: the executable specification the
    /// differential suite holds [`allocate_into`](Self::allocate_into)
    /// against. Phase 2 goes through the inner allocator's scalar kernel.
    #[cfg(test)]
    pub(crate) fn allocate_scalar_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let vcs = self.cfg.partition.vcs();
        let Self { cfg, inner, held, vc_selectors, residual, inner_grants, matching, .. } = self;
        let mut input_taken = vec![false; ports];
        let mut output_taken = vec![false; ports];

        // Phase 1: inherit surviving chains.
        for out in 0..ports {
            let Some(input) = held[out] else { continue };
            if input_taken[input.0] {
                held[out] = None;
                continue;
            }
            // anyVC: any VC of the same input requesting the same output,
            // non-speculative preferred.
            let mut chosen = None;
            for speculative in [false, true] {
                let lines: Vec<bool> = (0..vcs)
                    .map(|v| {
                        requests.get(input, VcId(v)).is_some_and(|r| {
                            r.out_port == PortId(out) && r.speculative == speculative
                        })
                    })
                    .collect();
                let sel = &mut vc_selectors[input.0];
                if let Some(v) = sel.peek(&lines) {
                    sel.commit(v);
                    chosen = Some(VcId(v));
                    break;
                }
            }
            match chosen {
                Some(vc) => {
                    input_taken[input.0] = true;
                    output_taken[out] = true;
                    grants.add(Grant { port: input, vc, out_port: PortId(out) });
                }
                None => held[out] = None,
            }
        }

        // Phase 2: separable allocation over the remaining requests.
        residual.clear();
        for r in requests.active_requests() {
            if !input_taken[r.port.0] && !output_taken[r.out_port.0] {
                residual.push(r);
            }
        }
        inner_grants.clear();
        inner.allocate_scalar_into(residual, inner_grants);
        grants.extend(inner_grants.iter().copied());
        matching.record_set(requests, grants, &cfg.partition);
    }

    pub(crate) fn observe_traversals(&mut self, traversed: &GrantSet) {
        self.held.iter_mut().for_each(|h| *h = None);
        for g in traversed {
            self.held[g.out_port.0] = Some(g.port);
        }
    }

    pub(crate) fn note_idle_cycles(&mut self, n: u64) {
        // The first empty cycle breaks every chain (no VC of the held input
        // requests the held output, and the empty traversal feedback clears
        // the history); further empty cycles are no-ops. The arbiters and
        // the inner separable allocator do not move without grants.
        debug_assert!(n > 0);
        self.held.iter_mut().for_each(|h| *h = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::VixPartition;
    use crate::Allocator;

    fn pc(ports: usize, vcs: usize) -> Allocator {
        let cfg = AllocatorConfig::new(ports, VixPartition::baseline(vcs));
        Allocator::PacketChaining(Box::new(PacketChainingAllocator::new(cfg)))
    }

    /// Number of currently-held connections.
    fn held_connections(alloc: &Allocator) -> usize {
        let Allocator::PacketChaining(pc) = alloc else { unreachable!("not packet chaining") };
        pc.held.iter().flatten().count()
    }

    #[test]
    fn without_history_behaves_like_separable() {
        let mut alloc = pc(5, 6);
        let mut reqs = RequestSet::new(5, 6);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(2), VcId(3), PortId(4));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 2);
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn chain_inherited_when_same_input_requests_same_output() {
        let mut alloc = pc(3, 2);
        let mut reqs = RequestSet::new(3, 2);
        reqs.request(PortId(0), VcId(0), PortId(2));
        reqs.request(PortId(1), VcId(0), PortId(2));
        let g1 = alloc.allocate(&reqs);
        alloc.observe_traversals(&g1);
        let winner = g1.iter().next().unwrap().port;
        assert_eq!(held_connections(&alloc), 1);

        // Next cycle both still request; the chain keeps the same winner
        // even though round-robin would have rotated.
        let g2 = alloc.allocate(&reqs);
        assert_eq!(g2.iter().next().unwrap().port, winner, "chain must persist");
    }

    #[test]
    fn chain_may_switch_vc_anyvc_policy() {
        let mut alloc = pc(3, 2);
        let mut reqs = RequestSet::new(3, 2);
        reqs.request(PortId(0), VcId(0), PortId(2));
        let g1 = alloc.allocate(&reqs);
        alloc.observe_traversals(&g1);

        // Same input, different VC, same output: chain survives on VC 1.
        let mut reqs2 = RequestSet::new(3, 2);
        reqs2.request(PortId(0), VcId(1), PortId(2));
        let g2 = alloc.allocate(&reqs2);
        assert_eq!(g2.len(), 1);
        assert_eq!(g2.iter().next().unwrap().vc, VcId(1));
    }

    #[test]
    fn chain_broken_when_input_goes_idle() {
        let mut alloc = pc(3, 2);
        let mut reqs = RequestSet::new(3, 2);
        reqs.request(PortId(0), VcId(0), PortId(2));
        let g1 = alloc.allocate(&reqs);
        alloc.observe_traversals(&g1);
        assert_eq!(held_connections(&alloc), 1);

        // Input 0 has nothing this cycle: connection must be released and
        // the output becomes available to input 1.
        let mut reqs2 = RequestSet::new(3, 2);
        reqs2.request(PortId(1), VcId(0), PortId(2));
        let g2 = alloc.allocate(&reqs2);
        assert_eq!(g2.len(), 1);
        assert_eq!(g2.iter().next().unwrap().port, PortId(1));
    }

    #[test]
    fn chains_reduce_rearbitration_conflicts() {
        // Two inputs alternate contending for two outputs. With chaining,
        // once each input owns an output the pairing is stable and both
        // outputs stay busy every cycle.
        let mut alloc = pc(3, 2);
        let mut reqs = RequestSet::new(3, 2);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(0), VcId(1), PortId(2));
        reqs.request(PortId(1), VcId(0), PortId(1));
        reqs.request(PortId(1), VcId(1), PortId(2));
        let mut total = 0;
        let mut g = alloc.allocate(&reqs);
        for _ in 0..10 {
            alloc.observe_traversals(&g);
            total += g.len();
            g = alloc.allocate(&reqs);
        }
        assert!(total >= 18, "chained steady state must keep both outputs busy, got {total}");
    }

    #[test]
    fn observe_traversals_replaces_history() {
        let mut alloc = pc(3, 2);
        let mut reqs = RequestSet::new(3, 2);
        reqs.request(PortId(0), VcId(0), PortId(2));
        let g = alloc.allocate(&reqs);
        alloc.observe_traversals(&g);
        assert_eq!(held_connections(&alloc), 1);
        alloc.observe_traversals(&GrantSet::new());
        assert_eq!(held_connections(&alloc), 0);
    }

    #[test]
    fn grants_remain_conflict_free_with_chains() {
        let mut alloc = pc(4, 2);
        let mut g = GrantSet::new();
        for cycle in 0..16 {
            let mut reqs = RequestSet::new(4, 2);
            for p in 0..4 {
                for v in 0..2 {
                    reqs.request(PortId(p), VcId(v), PortId((p + v + cycle) % 4));
                }
            }
            alloc.observe_traversals(&g);
            g = alloc.allocate(&reqs);
            g.validate_against(&reqs, alloc.partition()).unwrap();
        }
    }
}
