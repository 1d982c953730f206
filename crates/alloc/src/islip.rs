//! Iterative separable allocator (iSLIP-style), included as an extension
//! baseline beyond the paper's evaluated schemes.

use crate::AllocatorConfig;
use std::slice::from_ref;
use vix_arbiter::{first_set_from_words, Arbiter};
use vix_core::bits::{any_set, clear_bit, mask_up_to, set_bit, set_low_bits, test_bit, words_for};
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
    scratch: IslipScratch,
    pub(crate) matching: MatchingStats,
}

/// Owned per-cycle working state reused across
/// [`crate::Allocator::allocate_into`] calls.
#[derive(Debug, Default)]
struct IslipScratch {
    matched_out_of_in: Vec<Option<usize>>,
    /// Output mask granting each input this iteration, `port_words` words
    /// per input.
    grant_masks: Vec<u64>,
    /// Still-unmatched inputs, one bit per port.
    free_in: Vec<u64>,
    /// Already-matched outputs, one bit per port.
    out_matched_bits: Vec<u64>,
    /// Requesting free inputs of one output.
    cand: Vec<u64>,
    /// Requesting inputs of each output, either speculation class,
    /// `port_words` words per output.
    requesters: Vec<u64>,
    /// One matched pair's VC line.
    line: Vec<u64>,
}

impl IslipAllocator {
    /// Creates the allocator with the given iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    #[must_use]
    pub fn new(cfg: AllocatorConfig, iterations: usize) -> Self {
        assert!(iterations >= 1, "iSLIP needs at least one iteration");
        let vc_selectors = (0..cfg.ports).map(|_| cfg.arbiter.build(cfg.partition.vcs())).collect();
        IslipAllocator {
            cfg,
            iterations,
            grant_pointers: vec![0; cfg.ports],
            accept_pointers: vec![0; cfg.ports],
            vc_selectors,
            scratch: IslipScratch::default(),
            matching: MatchingStats::new(cfg.ports * cfg.partition.groups()),
        }
    }

    /// Configured iteration count.
    #[cfg(test)]
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// The word-parallel kernel, picked by width: both pointer scans
    /// collapse to a first-set-bit search over per-output requester masks,
    /// built from the request set at the top of the call.
    pub(crate) fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        debug_assert_eq!(requests.ports(), self.cfg.ports, "request set port mismatch");
        grants.clear();
        if self.cfg.ports <= 64 && requests.vc_words() == 1 {
            self.word(requests, grants);
        } else {
            self.words(requests, grants);
        }
    }

    /// The one-word kernel: every port mask is one `u64`, so an input's
    /// requested outputs OR up in a register before they are scattered to
    /// the outputs' requester masks, and a matched pair's VC line is one
    /// pass over the input's requests.
    fn word(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let Self { iterations, grant_pointers, accept_pointers, vc_selectors, scratch, matching, .. } = self;
        let IslipScratch { matched_out_of_in: matched, grant_masks, requesters, .. } = scratch;
        requesters.clear();
        requesters.resize(ports, 0);
        for port in 0..ports {
            let mut outs = 0u64;
            requests.for_each_request_at(PortId(port), |_, out, _| outs |= 1 << out.0);
            while outs != 0 {
                requesters[outs.trailing_zeros() as usize] |= 1 << port;
                outs &= outs - 1;
            }
        }
        // First set bit of a non-empty `mask` at or cyclically after `start`.
        let first_from = |mask: u64, start: usize| {
            let upper = mask & (!0 << start);
            (if upper != 0 { upper } else { mask }).trailing_zeros() as usize
        };
        matched.clear();
        matched.resize(ports, None);
        grant_masks.clear();
        grant_masks.resize(ports, 0);
        let (mut free_in, mut out_matched, mut matched_in) = (mask_up_to(ports), 0u64, 0u64);
        for iter in 0..*iterations {
            // Grant round, then accept round over the inputs offered a grant.
            let mut offered = 0u64;
            for (out, &pointer) in grant_pointers.iter().enumerate() {
                let cand = requesters[out] & free_in;
                if out_matched & (1 << out) != 0 || cand == 0 {
                    continue;
                }
                let input = first_from(cand, pointer);
                grant_masks[input] |= 1 << out;
                offered |= 1 << input;
            }
            if offered == 0 {
                break;
            }
            while offered != 0 {
                let input = offered.trailing_zeros() as usize;
                offered &= offered - 1;
                let accepted = first_from(std::mem::take(&mut grant_masks[input]), accept_pointers[input]);
                matched[input] = Some(accepted);
                matched_in |= 1 << input;
                out_matched |= 1 << accepted;
                free_in &= !(1 << input);
                if iter == 0 {
                    grant_pointers[accepted] = (input + 1) % ports;
                    accept_pointers[input] = (accepted + 1) % ports;
                }
            }
        }

        // VC champions for matched pairs, non-speculative first.
        while matched_in != 0 {
            let input = matched_in.trailing_zeros() as usize;
            matched_in &= matched_in - 1;
            let out = matched[input].expect("matched input has an output");
            let mut wants_out = 0u64;
            requests.for_each_request_at(PortId(input), |vc, to, _| wants_out |= u64::from(to.0 == out) << vc.0);
            let spec = requests.spec_vcs(PortId(input))[0];
            let sel = &mut vc_selectors[input];
            let vc = [wants_out & !spec, wants_out & spec]
                .into_iter()
                .find_map(|line| sel.peek_words(from_ref(&line)))
                .expect("matched pair implies a requesting VC");
            sel.commit(vc);
            grants.add(Grant { port: PortId(input), vc: VcId(vc), out_port: PortId(out) });
        }
        let outputs = requesters.iter().filter(|&&row| row != 0).count();
        let active_vi = requests.active_virtual_inputs(&self.cfg.partition);
        matching.record(requests.len(), active_vi, outputs, grants.len());
    }

    /// The multi-word kernel, for more than 64 ports or VCs:
    /// [`word`](Self::word)'s rounds over `&[u64]` masks, the pointer scans
    /// [`first_set_from_words`], and the requester masks ORed up one
    /// request at a time.
    fn words(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let iterations = self.iterations;
        let port_words = words_for(ports);
        let Self { cfg, grant_pointers, accept_pointers, vc_selectors, scratch, matching, .. } =
            self;
        let IslipScratch {
            matched_out_of_in,
            grant_masks,
            free_in,
            out_matched_bits,
            cand,
            requesters,
            line,
        } = scratch;
        requesters.clear();
        requesters.resize(ports * port_words, 0);
        requests.for_each_request(|port, _, out, _| {
            requesters[out.0 * port_words + port.0 / 64] |= 1 << (port.0 % 64);
        });
        line.clear();
        line.resize(requests.vc_words(), 0);

        matched_out_of_in.clear();
        matched_out_of_in.resize(ports, None);
        grant_masks.clear();
        grant_masks.resize(ports * port_words, 0);
        free_in.clear();
        free_in.resize(port_words, 0);
        set_low_bits(free_in, ports);
        out_matched_bits.clear();
        out_matched_bits.resize(port_words, 0);
        cand.clear();
        cand.resize(port_words, 0);

        for iter in 0..iterations {
            // Grant round: each free output grants one requesting free
            // input, scanning cyclically from its grant pointer.
            for m in grant_masks.iter_mut() {
                *m = 0;
            }
            for (out, &pointer) in grant_pointers.iter().enumerate().take(ports) {
                if test_bit(out_matched_bits, out) {
                    continue;
                }
                // Port-level requests ignore speculation for the matching;
                // the VC champion prefers non-speculative below.
                for (w, c) in cand.iter_mut().enumerate() {
                    *c = requesters[out * port_words + w] & free_in[w];
                }
                if let Some(i) = first_set_from_words(cand, pointer, ports) {
                    set_bit(&mut grant_masks[i * port_words..(i + 1) * port_words], out);
                }
            }
            // Accept round.
            for input in 0..ports {
                let offered = &grant_masks[input * port_words..(input + 1) * port_words];
                if matched_out_of_in[input].is_some() || !any_set(offered) {
                    continue;
                }
                let accepted = first_set_from_words(offered, accept_pointers[input], ports)
                    .expect("non-empty grant mask must contain an acceptable output");
                matched_out_of_in[input] = Some(accepted);
                set_bit(out_matched_bits, accepted);
                clear_bit(free_in, input);
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
                requests.vcs_requesting(PortId(input), PortId(out), Some(speculative), 0..cfg.partition.vcs(), line);
                let sel = &mut vc_selectors[input];
                if let Some(v) = sel.peek_words(line) {
                    sel.commit(v);
                    chosen = Some(VcId(v));
                    break;
                }
            }
            let vc = chosen.expect("matched pair implies a requesting VC");
            grants.add(Grant { port: PortId(input), vc, out_port: PortId(out) });
        }
        let outputs = requesters.chunks_exact(port_words).filter(|row| any_set(row)).count();
        let active_vi = requests.active_virtual_inputs(&cfg.partition);
        matching.record(requests.len(), active_vi, outputs, grants.len());
    }

    /// The original scalar loops: the executable specification the
    /// differential suite holds [`allocate_into`](Self::allocate_into)
    /// against.
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
