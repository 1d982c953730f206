//! Iterative separable allocator (iSLIP-style), included as an extension
//! baseline beyond the paper's evaluated schemes.

use crate::arbiter::Arbiter;
use crate::row::{self, Row, WIDE};
use crate::AllocatorConfig;
use vix_core::bits::set_low_bits;
use vix_core::{Grant, GrantSet, PortId, RequestSet, VcId};
use vix_telemetry::MatchingStats;

/// Iterative grant–accept allocator after McKeown's iSLIP.
///
/// Each iteration runs two rounds over the *unmatched* ports:
///
/// 1. **Grant:** every free output picks one requesting free input with a
///    rotating grant pointer.
/// 2. **Accept:** every free input that received grants accepts one with a
///    rotating accept pointer.
///
/// Pointers advance only for pairs matched in the **first** iteration —
/// the property that gives iSLIP its 100 %-throughput guarantee under
/// uniform traffic. More iterations recover matches lost to grant/accept
/// conflicts; the paper's related work (§1) notes that such iterative
/// allocators cannot meet a router's single-cycle timing, which is why the
/// paper proposes VIX instead.
#[derive(Debug)]
pub struct IslipAllocator {
    pub(crate) cfg: AllocatorConfig,
    iterations: usize,
    grant_pointers: Vec<usize>,
    accept_pointers: Vec<usize>,
    /// Champion VC selection per input port.
    vc_selectors: Vec<Box<dyn Arbiter>>,
    /// Output chosen by each matched input.
    matched: Vec<Option<usize>>,
    /// Outputs granting each input this iteration, one row per input.
    grant_masks: Vec<u64>,
    /// Requesting inputs of each output, either speculation class, one row
    /// per output.
    requesters: Vec<u64>,
    /// [`run`](Self::run) at the shape's row width, picked at construction.
    run: fn(&mut Self, &RequestSet, &mut GrantSet),
    pub(crate) matching: MatchingStats,
}

impl IslipAllocator {
    /// Creates the allocator with the given iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero or the partition has more than 256
    /// VCs per port.
    #[must_use]
    pub fn new(cfg: AllocatorConfig, iterations: usize) -> Self {
        assert!(iterations >= 1, "iSLIP needs at least one iteration");
        let (ports, vcs) = (cfg.ports, cfg.partition.vcs());
        assert!(vcs <= 64 * WIDE, "{vcs} VCs per port exceeds the allocator's {}", 64 * WIDE);
        let (run, words): (fn(&mut Self, &RequestSet, &mut GrantSet), usize) =
            if ports <= 64 && vcs <= 64 { (Self::run::<1>, 1) } else { (Self::run::<WIDE>, WIDE) };
        IslipAllocator {
            cfg,
            iterations,
            grant_pointers: vec![0; ports],
            accept_pointers: vec![0; ports],
            vc_selectors: (0..ports).map(|_| cfg.arbiter.build(vcs)).collect(),
            matched: vec![None; ports],
            grant_masks: vec![0; ports * words],
            requesters: vec![0; ports * words],
            run,
            matching: MatchingStats::new(ports * cfg.partition.groups()),
        }
    }

    /// Configured iteration count.
    #[cfg(test)]
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// One cycle of [`crate::Allocator::allocate_into`], on this scheme
    /// alone.
    pub(crate) fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        debug_assert_eq!(requests.ports(), self.cfg.ports, "request set port mismatch");
        grants.clear();
        (self.run)(self, requests, grants);
    }

    /// The kernel, over `W`-word port and VC rows (one register at every
    /// paper shape): an input's requested outputs OR up in a row before
    /// they are scattered to the outputs' requester rows, both pointer
    /// scans are a first-set-bit search from the pointer, and a matched
    /// pair's VC line is one pass over the input's requests.
    fn run<const W: usize>(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let vc_words = row::words::<W>(self.cfg.partition.vcs());
        let Self { iterations, grant_pointers, accept_pointers, vc_selectors, matched, matching, .. } = self;
        let (requesters, _) = self.requesters.as_chunks_mut::<W>();
        let (grant_masks, _) = self.grant_masks.as_chunks_mut::<W>();
        requesters.fill([0; W]);
        // A port's requests, walked over its `W`-word row (one register at
        // every paper shape).
        let active = |port: usize| <[u64; W]>::load(requests.active_vcs(PortId(port)));
        let out_of = |port: usize, vc: usize| requests.out_port(PortId(port), VcId(vc)).0;
        for port in 0..ports {
            let mut outs = [0u64; W];
            active(port).for_each(|vc| outs.set(out_of(port, vc)));
            outs.for_each(|out| requesters[out].set(port));
        }
        matched.fill(None);
        grant_masks.fill([0; W]);
        let (mut free_in, mut out_matched, mut matched_in) = ([0u64; W], [0u64; W], [0u64; W]);
        set_low_bits(&mut free_in, ports);
        for iter in 0..*iterations {
            // Grant round: each free output grants one requesting free
            // input, scanning cyclically from its grant pointer. Port-level
            // requests ignore speculation; the VC champion prefers
            // non-speculative below.
            let mut offered = [0u64; W];
            for (out, &pointer) in grant_pointers.iter().enumerate() {
                let cand = requesters[out].and(free_in);
                if out_matched.test(out) || cand.is_empty() {
                    continue;
                }
                let input = cand.first_from(pointer);
                grant_masks[input].set(out);
                offered.set(input);
            }
            if offered.is_empty() {
                break;
            }
            // Accept round over the inputs offered a grant.
            offered.for_each(|input| {
                let accepted = std::mem::replace(&mut grant_masks[input], [0; W]).first_from(accept_pointers[input]);
                matched[input] = Some(accepted);
                matched_in.set(input);
                out_matched.set(accepted);
                free_in.clear(input);
                if iter == 0 {
                    // Pointer update rule: one past the matched partner,
                    // first iteration only.
                    grant_pointers[accepted] = (input + 1) % ports;
                    accept_pointers[input] = (accepted + 1) % ports;
                }
            });
        }

        // VC champions for matched pairs, non-speculative first.
        matched_in.for_each(|input| {
            let out = matched[input].expect("matched input has an output");
            let mut wants_out = [0u64; W];
            active(input).for_each(|vc| wants_out.set_if(vc, out_of(input, vc) == out));
            let spec = <[u64; W]>::load(requests.spec_vcs(PortId(input)));
            let sel = &mut vc_selectors[input];
            let vc = [wants_out.and_not(spec), wants_out.and(spec)]
                .into_iter()
                .find_map(|line| sel.peek_words(&line[..vc_words]))
                .expect("matched pair implies a requesting VC");
            sel.commit(vc);
            grants.add(Grant { port: PortId(input), vc: VcId(vc), out_port: PortId(out) });
        });
        let outputs = requesters.iter().filter(|row| !row.is_empty()).count();
        let active_vi = requests.active_virtual_inputs(&self.cfg.partition);
        matching.record(requests.len(), active_vi, outputs, grants.len());
    }

    /// The original scalar loops: the executable specification the
    /// differential suite holds [`run`](Self::run) against at both row
    /// widths.
    #[cfg(test)]
    pub(crate) fn allocate_scalar_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let vcs = self.cfg.partition.vcs();
        let iterations = self.iterations;
        let Self { cfg, grant_pointers, accept_pointers, vc_selectors, matching, .. } = self;

        // Port-level request matrix (ignore speculation for the matching;
        // the VC champion prefers non-speculative below).
        let mut wants = vec![false; ports * ports];
        for r in requests.active_requests() {
            wants[r.port.0 * ports + r.out_port.0] = true;
        }

        let mut matched_out_of_in: Vec<Option<usize>> = vec![None; ports];
        let mut out_matched = vec![false; ports];
        // Outputs granting each input in the current iteration.
        let mut grants_to_input: Vec<Vec<usize>> = vec![Vec::new(); ports];

        for iter in 0..iterations {
            // Grant round.
            for g in grants_to_input.iter_mut() {
                g.clear();
            }
            for out in 0..ports {
                if out_matched[out] {
                    continue;
                }
                let ptr = grant_pointers[out];
                let pick = (0..ports)
                    .map(|k| (ptr + k) % ports)
                    .find(|&i| matched_out_of_in[i].is_none() && wants[i * ports + out]);
                if let Some(i) = pick {
                    grants_to_input[i].push(out);
                }
            }
            // Accept round.
            for input in 0..ports {
                if matched_out_of_in[input].is_some() || grants_to_input[input].is_empty() {
                    continue;
                }
                let ptr = accept_pointers[input];
                let accepted = (0..ports)
                    .map(|k| (ptr + k) % ports)
                    .find(|o| grants_to_input[input].contains(o))
                    .expect("non-empty grant list must contain an acceptable output");
                matched_out_of_in[input] = Some(accepted);
                out_matched[accepted] = true;
                if iter == 0 {
                    // Pointer update rule: one past the matched partner,
                    // first iteration only.
                    grant_pointers[accepted] = (input + 1) % ports;
                    accept_pointers[input] = (accepted + 1) % ports;
                }
            }
        }

        // VC champions for matched pairs.
        for input in 0..ports {
            let Some(out) = matched_out_of_in[input] else { continue };
            let mut chosen = None;
            for speculative in [false, true] {
                let lines: Vec<bool> = (0..vcs)
                    .map(|v| {
                        requests.get(PortId(input), VcId(v)).is_some_and(|r| {
                            r.out_port == PortId(out) && r.speculative == speculative
                        })
                    })
                    .collect();
                let sel = &mut vc_selectors[input];
                if let Some(v) = sel.peek(&lines) {
                    sel.commit(v);
                    chosen = Some(VcId(v));
                    break;
                }
            }
            let vc = chosen.expect("matched pair implies a requesting VC");
            grants.add(Grant { port: PortId(input), vc, out_port: PortId(out) });
        }
        matching.record_set(requests, grants, &cfg.partition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::VixPartition;
    use crate::Allocator;

    fn islip(ports: usize, vcs: usize, iters: usize) -> Allocator {
        let cfg = AllocatorConfig::new(ports, VixPartition::baseline(vcs));
        Allocator::Islip(Box::new(IslipAllocator::new(cfg, iters)))
    }

    #[test]
    fn single_iteration_resolves_simple_requests() {
        let mut alloc = islip(4, 2, 1);
        let mut reqs = RequestSet::new(4, 2);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(2), VcId(0), PortId(3));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 2);
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn second_iteration_recovers_lost_matches() {
        // Input 0 requests {0, 1}; input 1 requests {1}. In iteration 1
        // both outputs grant input 0 (grant pointers at 0); input 0 accepts
        // output 0, wasting output 1's grant. Iteration 2 lets output 1
        // re-grant to input 1.
        let mut reqs = RequestSet::new(2, 2);
        reqs.request(PortId(0), VcId(0), PortId(0));
        reqs.request(PortId(0), VcId(1), PortId(1));
        reqs.request(PortId(1), VcId(0), PortId(1));
        let g1 = islip(2, 2, 1).allocate(&reqs);
        assert_eq!(g1.len(), 1, "one iteration loses output 1 to the grant conflict");
        let g2 = islip(2, 2, 2).allocate(&reqs);
        assert_eq!(g2.len(), 2, "two iterations must find the full matching");
    }

    #[test]
    fn desynchronized_pointers_give_full_throughput() {
        // Classic iSLIP property: persistent all-to-all requests reach one
        // grant per output per cycle after pointers desynchronise.
        let mut alloc = islip(4, 1, 1);
        let mut reqs = RequestSet::new(4, 1);
        for p in 0..4 {
            reqs.request(PortId(p), VcId(0), PortId((p + 1) % 4));
        }
        let mut total = 0;
        for _ in 0..8 {
            total += alloc.allocate(&reqs).len();
        }
        assert_eq!(total, 32, "non-conflicting persistent requests must all be served");
    }

    #[test]
    fn pointer_update_only_first_iteration() {
        let alloc = IslipAllocator::new(AllocatorConfig::new(4, VixPartition::baseline(2)), 3);
        assert_eq!(alloc.iterations(), 3);
        // Behavioural check: repeated contention alternates fairly.
        let mut alloc = islip(2, 1, 3);
        let mut wins = [0u32; 2];
        for _ in 0..10 {
            let mut reqs = RequestSet::new(2, 1);
            reqs.request(PortId(0), VcId(0), PortId(0));
            reqs.request(PortId(1), VcId(0), PortId(0));
            wins[alloc.allocate(&reqs).iter().next().unwrap().port.0] += 1;
        }
        assert!(wins[0] > 0 && wins[1] > 0, "rotating pointers must share the output");
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = islip(4, 2, 0);
    }

    #[test]
    fn respects_input_port_constraint() {
        let mut alloc = islip(4, 4, 4);
        let mut reqs = RequestSet::new(4, 4);
        for v in 0..4 {
            reqs.request(PortId(0), VcId(v), PortId(v));
        }
        assert_eq!(alloc.allocate(&reqs).len(), 1);
    }
}
