//! The input-first separable allocator, over virtual inputs.
//!
//! This single implementation covers both the paper's baseline "IF"
//! allocator and the VIX allocator of Fig. 3: the only difference is the
//! [`VixPartition`] — one sub-group per port for IF, `k` sub-groups for a
//! 1:k VIX router.

use crate::{mask_to_oldest_bits, AllocatorConfig, PriorityPolicy, SwitchAllocator};
use vix_arbiter::Arbiter;
use vix_core::bits::{any_set, count_ones, extract_range, range_any_set, set_bit, test_bit, words_for};
#[cfg(test)]
use vix_core::SwitchRequest;
use vix_core::{Grant, GrantSet, PortId, RequestSet, VcId, VixPartition};
use vix_telemetry::MatchingStats;

/// Input-first separable switch allocator (Fig. 3 of the paper).
///
/// **Stage 1 (input arbitration):** one `v/k : 1` arbiter per virtual input
/// selects a champion VC among the requesting VCs of its sub-group.
///
/// **Stage 2 (output arbitration):** one `P·k : 1` arbiter per output port
/// selects one champion among the virtual inputs requesting it.
///
/// Non-speculative requests are prioritised over speculative ones in both
/// stages, per the pessimistic-masking scheme of Becker & Dally that the
/// paper cites: speculative requests only see outputs that no
/// non-speculative request claimed. With
/// [`PriorityPolicy::OldestFirst`] both stages additionally
/// prefer the request with the largest age, the arbiter only breaking
/// ties (the SPAROFLO-style optimisation of §5).
///
/// Input-arbiter priority pointers advance only when the champion also wins
/// output arbitration (grant-aware update), which preserves round-robin
/// fairness end to end.
#[derive(Debug)]
pub struct SeparableAllocator {
    cfg: AllocatorConfig,
    /// One per (port × sub-group), each over the sub-group's VCs.
    input_arbiters: Vec<Box<dyn Arbiter>>,
    /// One per output port, each over all `ports × groups` virtual inputs.
    output_arbiters: Vec<Box<dyn Arbiter>>,
    scratch: SeparableScratch,
    matching: MatchingStats,
}

/// Stage-1 winner of one virtual input. Entries are
/// only ever reached through the bits of `champ_class`, which is rebuilt
/// every call, so stale ones are never cleared.
#[derive(Debug, Clone, Copy, Default)]
struct Champion {
    port: PortId,
    vc: VcId,
    /// Index of `vc` within its sub-group (the input arbiter's line).
    local: usize,
}

/// Owned per-cycle working state, reused by every
/// [`SwitchAllocator::allocate_into`] call — the steady-state hot path
/// never heap-allocates: every buffer is sized once at construction and
/// only ever `fill`ed.
#[derive(Debug)]
struct SeparableScratch {
    /// Stage-1 winner per virtual input.
    champs: Vec<Champion>,
    /// `[class][out]` → multi-word mask of the champion virtual inputs
    /// targeting `out` (`[non-speculative, speculative]`),
    /// `words_for(ports × groups)` words per row.
    champ_class: Vec<u64>,
    /// The current port's non-speculative VC mask (`active & !speculative`,
    /// assembled for windowing).
    nonspec_line: Vec<u64>,
    /// One sub-group's extracted stage-1 request lines.
    line_buf: Vec<u64>,
    /// One output's age-masked stage-2 request lines.
    out_line_buf: Vec<u64>,
    /// Outputs granted so far this call.
    output_taken_bits: Vec<u64>,
    /// Union of requested outputs (matching record).
    out_union: Vec<u64>,
}

impl SeparableAllocator {
    /// Creates the allocator for `cfg.ports` ports and the given partition.
    #[must_use]
    pub fn new(cfg: AllocatorConfig) -> Self {
        let groups = cfg.partition.groups();
        let group_size = cfg.partition.group_size();
        let virtual_inputs = cfg.ports * groups;
        let vi_words = words_for(virtual_inputs);
        let input_arbiters = (0..virtual_inputs).map(|_| cfg.arbiter.build(group_size)).collect();
        let output_arbiters = (0..cfg.ports).map(|_| cfg.arbiter.build(virtual_inputs)).collect();
        let scratch = SeparableScratch {
            champs: vec![Champion::default(); virtual_inputs],
            champ_class: vec![0; 2 * cfg.ports * vi_words],
            nonspec_line: vec![0; words_for(cfg.partition.vcs())],
            line_buf: vec![0; words_for(group_size)],
            out_line_buf: vec![0; vi_words],
            output_taken_bits: vec![0; words_for(cfg.ports)],
            out_union: vec![0; words_for(cfg.ports)],
        };
        SeparableAllocator {
            cfg,
            input_arbiters,
            output_arbiters,
            scratch,
            matching: MatchingStats::new(virtual_inputs),
        }
    }
}

/// Scalar reference kernel, stage 1 for one virtual input: pick a champion
/// VC among requesting VCs of the sub-group (`vcs`), preferring
/// non-speculative requests.
///
/// Returns the champion's request and its *local* index within the
/// sub-group (needed for the grant-aware pointer update).
#[cfg(test)]
fn input_stage(
    cfg: &AllocatorConfig,
    vcs: &[VcId],
    arb: &dyn Arbiter,
    requests: &RequestSet,
    port: usize,
) -> Option<(SwitchRequest, usize)> {
    let has_speculative = requests.speculative_len() > 0;
    // Pessimistic masking: non-speculative first. A pass over an empty
    // request class can neither win nor move arbiter state, so it is
    // skipped outright.
    for speculative in [false, true] {
        if speculative && !has_speculative {
            continue;
        }
        let mut lines: Vec<bool> = vcs
            .iter()
            .map(|&vc| requests.get(PortId(port), vc).is_some_and(|r| r.speculative == speculative))
            .collect();
        if cfg.priority == PriorityPolicy::OldestFirst {
            let ages: Vec<u64> =
                vcs.iter().map(|&vc| requests.get(PortId(port), vc).map_or(0, |r| r.age)).collect();
            mask_to_oldest(&mut lines, &ages);
        }
        if let Some(local) = arb.peek(&lines) {
            let req = requests.get(PortId(port), vcs[local]).expect("line implies request");
            return Some((req, local));
        }
    }
    None
}

/// Clears every asserted line whose age is below the maximum asserted age,
/// leaving the arbiter to break ties among the oldest.
#[cfg(test)]
fn mask_to_oldest(lines: &mut [bool], ages: &[u64]) {
    debug_assert_eq!(lines.len(), ages.len());
    let Some(max) = lines.iter().zip(ages).filter(|(l, _)| **l).map(|(_, a)| *a).max() else {
        return;
    };
    for (line, age) in lines.iter_mut().zip(ages) {
        if *age < max {
            *line = false;
        }
    }
}

impl SeparableAllocator {
    /// Single-request fast path: the lone requester is its sub-group's
    /// champion and its output's only contender, and every arbiter kind
    /// (`peek` over a one-asserted-line input can only return that line)
    /// grants it — so both stages collapse to their grant-time pointer
    /// commits. Grants, emission order, and arbiter state are identical to
    /// the full kernel; the differential twin traces cross-check this
    /// against the scalar reference.
    fn allocate_single(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        debug_assert_eq!(requests.len(), 1);
        let partition = &self.cfg.partition;
        for port in (0..self.cfg.ports).map(PortId) {
            let active = requests.bits().active_vcs(port);
            let Some(w) = active.iter().position(|&word| word != 0) else {
                continue;
            };
            let vc = VcId(w * 64 + active[w].trailing_zeros() as usize);
            let out_port = requests.get(port, vc).expect("bit implies request").out_port;
            let group = partition.group_of(vc);
            let vi = port.0 * partition.groups() + group.0;
            self.output_arbiters[out_port.0].commit(vi);
            // Grant-aware input pointer update.
            self.input_arbiters[vi].commit(vc.0 - partition.group_start(group));
            grants.add(Grant { port, vc, out_port });
            break;
        }
        self.matching.record(1, 1, 1, grants.len());
    }

    /// The word-parallel kernel. Every buffer it touches was sized at
    /// construction.
    fn allocate_bitset(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        if requests.len() == 1 {
            return self.allocate_single(requests, grants);
        }
        let ports = self.cfg.ports;
        let groups = self.cfg.partition.groups();
        let gsize = self.cfg.partition.group_size();
        let vi_words = words_for(ports * groups);
        let oldest_first = self.cfg.priority == PriorityPolicy::OldestFirst;
        let age_of = |port: PortId, vc: VcId| requests.get(port, vc).map_or(0, |r| r.age);
        let bits = requests.bits();
        let Self { input_arbiters, output_arbiters, scratch, matching, .. } = self;
        let SeparableScratch {
            champs,
            champ_class,
            nonspec_line,
            line_buf,
            out_line_buf,
            output_taken_bits,
            out_union,
        } = scratch;

        // Stage 1: one champion per virtual input with a request. Its bit
        // goes into the (class, output) row stage 2 arbitrates over. The
        // same sweep counts the active virtual inputs and ORs up the
        // requested outputs for the matching record.
        champ_class.fill(0);
        out_union.fill(0);
        let has_speculative = requests.speculative_len() > 0;
        let mut any_speculative_champion = false;
        let mut active_vi = 0;
        for port in (0..ports).map(PortId) {
            let active = bits.active_vcs(port);
            if !any_set(active) {
                continue;
            }
            for (w, word) in out_union.iter_mut().enumerate() {
                *word |= bits.row_any_word(port, w);
            }
            let spec_line = bits.spec_vcs(port);
            for (w, word) in nonspec_line.iter_mut().enumerate() {
                *word = active[w] & !spec_line[w];
            }
            for group in 0..groups {
                // A sub-group with no requesting VC can neither elect a
                // champion nor move its arbiter — skip the virtual dispatch.
                let gstart = group * gsize;
                if !range_any_set(active, gstart, gsize) {
                    continue;
                }
                active_vi += 1;
                let vi = port.0 * groups + group;
                // Pessimistic masking: non-speculative lines first. A pass
                // over an empty class can neither win nor move arbiter
                // state, so the speculative one is skipped outright then.
                for speculative in [false, true] {
                    if speculative && !has_speculative {
                        break;
                    }
                    let class_line = if speculative { spec_line } else { &nonspec_line[..] };
                    extract_range(class_line, gstart, gsize, line_buf);
                    if oldest_first {
                        mask_to_oldest_bits(line_buf, |local| age_of(port, VcId(gstart + local)));
                    }
                    let Some(local) = input_arbiters[vi].peek_words(line_buf) else {
                        continue;
                    };
                    let vc = VcId(gstart + local);
                    let out = requests.get(port, vc).expect("bit implies request").out_port;
                    champs[vi] = Champion { port, vc, local };
                    let row = (usize::from(speculative) * ports + out.0) * vi_words;
                    set_bit(&mut champ_class[row..row + vi_words], vi);
                    any_speculative_champion |= speculative;
                    break;
                }
            }
        }

        // Stage 2: per-output arbitration among champion virtual inputs,
        // non-speculative pass first. A virtual input champions exactly one
        // (class, output) row, so a winner can never reappear in another
        // row and no per-virtual-input taken mask is needed.
        output_taken_bits.fill(0);
        for speculative in [false, true] {
            if speculative && !any_speculative_champion {
                continue;
            }
            let class = &champ_class[usize::from(speculative) * ports * vi_words..][..ports * vi_words];
            for (out, arbiter) in output_arbiters.iter_mut().enumerate() {
                let row = &class[out * vi_words..(out + 1) * vi_words];
                if test_bit(output_taken_bits, out) || !any_set(row) {
                    continue;
                }
                let lines = if oldest_first {
                    out_line_buf.copy_from_slice(row);
                    mask_to_oldest_bits(out_line_buf, |vi| age_of(champs[vi].port, champs[vi].vc));
                    &out_line_buf[..]
                } else {
                    row
                };
                let Some(winner_vi) = arbiter.peek_words(lines) else {
                    continue;
                };
                let champ = champs[winner_vi];
                set_bit(output_taken_bits, out);
                arbiter.commit(winner_vi);
                // Grant-aware input pointer update.
                input_arbiters[winner_vi].commit(champ.local);
                grants.add(Grant { port: champ.port, vc: champ.vc, out_port: out.into() });
            }
        }
        matching.record(requests.len(), active_vi, count_ones(out_union) as usize, grants.len());
    }

    /// The original scalar loops over per-VC [`RequestSet::get`] lookups:
    /// the executable specification the differential suite holds
    /// [`allocate_bitset`](Self::allocate_bitset) against.
    #[cfg(test)]
    fn allocate_scalar(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let groups = self.cfg.partition.groups();
        let virtual_inputs = ports * groups;
        let group_vcs = crate::group_vcs(&self.cfg.partition);
        let Self { cfg, input_arbiters, output_arbiters, matching, .. } = self;

        // Stage 1: champions[vi] = (request, local VC index in sub-group).
        // Ports with no posted request are skipped whole — an all-false
        // line vector can neither elect a champion nor move the arbiter.
        let mut champions: Vec<Option<(SwitchRequest, usize)>> = vec![None; virtual_inputs];
        let mut any_speculative_champion = false;
        for port in 0..ports {
            if !requests.port_is_active(PortId(port)) {
                continue;
            }
            for (group, vcs) in group_vcs.iter().enumerate() {
                let vi = port * groups + group;
                champions[vi] = input_stage(cfg, vcs, &*input_arbiters[vi], requests, port);
                any_speculative_champion |=
                    champions[vi].is_some_and(|(r, _)| r.speculative);
            }
        }

        // Outputs no champion points at can never be granted this cycle.
        let mut championed = vec![false; ports];
        for champ in champions.iter().flatten() {
            championed[champ.0.out_port.0] = true;
        }

        // Stage 2: per-output arbitration among champion virtual inputs,
        // non-speculative pass first.
        let mut output_taken = vec![false; ports];
        let mut vi_taken = vec![false; virtual_inputs];
        for speculative in [false, true] {
            if speculative && !any_speculative_champion {
                continue;
            }
            for out in 0..ports {
                if output_taken[out] || !championed[out] {
                    continue;
                }
                let mut out_lines: Vec<bool> = (0..virtual_inputs)
                    .map(|vi| {
                        !vi_taken[vi]
                            && champions[vi].as_ref().is_some_and(|(r, _)| {
                                r.out_port == PortId(out) && r.speculative == speculative
                            })
                    })
                    .collect();
                if cfg.priority == PriorityPolicy::OldestFirst {
                    let out_ages: Vec<u64> = (0..virtual_inputs)
                        .map(|vi| champions[vi].as_ref().map_or(0, |(r, _)| r.age))
                        .collect();
                    mask_to_oldest(&mut out_lines, &out_ages);
                }
                let Some(winner_vi) = output_arbiters[out].peek(&out_lines) else {
                    continue;
                };
                let (req, local) = champions[winner_vi].expect("winner implies champion");
                output_taken[out] = true;
                vi_taken[winner_vi] = true;
                output_arbiters[out].commit(winner_vi);
                // Grant-aware input pointer update.
                input_arbiters[winner_vi].commit(local);
                grants.add(Grant { port: req.port, vc: req.vc, out_port: out.into() });
            }
        }
        matching.record_set(requests, grants, &cfg.partition);
    }
}

impl SwitchAllocator for SeparableAllocator {
    fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        debug_assert_eq!(requests.ports(), self.cfg.ports, "request set port mismatch");
        debug_assert_eq!(
            requests.vcs_per_port(),
            self.cfg.partition.vcs(),
            "request set VC mismatch"
        );
        grants.clear();
        self.allocate_bitset(requests, grants);
    }

    #[cfg(test)]
    fn allocate_scalar_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        grants.clear();
        self.allocate_scalar(requests, grants);
    }

    fn partition(&self) -> &VixPartition {
        &self.cfg.partition
    }

    fn name(&self) -> &'static str {
        if self.cfg.partition.groups() > 1 {
            "VIX"
        } else {
            "IF"
        }
    }

    fn matching_stats(&self) -> &MatchingStats {
        &self.matching
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::VcId;

    fn baseline(ports: usize, vcs: usize) -> SeparableAllocator {
        SeparableAllocator::new(AllocatorConfig::new(ports, VixPartition::baseline(vcs)))
    }

    fn vix(ports: usize, vcs: usize, groups: usize) -> SeparableAllocator {
        SeparableAllocator::new(AllocatorConfig::new(
            ports,
            VixPartition::even(vcs, groups).unwrap(),
        ))
    }

    #[test]
    fn single_request_is_granted() {
        let mut alloc = baseline(5, 6);
        let mut reqs = RequestSet::new(5, 6);
        reqs.request(PortId(2), VcId(4), PortId(0));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1);
        assert_eq!(g.output_of(PortId(2), VcId(4)), Some(PortId(0)));
    }

    #[test]
    fn baseline_port_sends_at_most_one_flit() {
        let mut alloc = baseline(5, 6);
        let mut reqs = RequestSet::new(5, 6);
        // Two VCs of port 0 want different outputs — the input-port
        // constraint (no virtual inputs) allows only one transfer.
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(0), VcId(3), PortId(2));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1);
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn vix_port_sends_two_flits_from_different_subgroups() {
        // The paper's Fig. 4 scenario: VC0 → Local, VC2 → East from the
        // same (West) input port; with virtual inputs both transfer.
        let mut alloc = vix(5, 4, 2);
        let mut reqs = RequestSet::new(5, 4);
        reqs.request(PortId(1), VcId(0), PortId(4)); // sub-group 0 → Local
        reqs.request(PortId(1), VcId(2), PortId(2)); // sub-group 1 → East
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 2, "VIX must allocate both outputs");
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn vix_same_subgroup_still_conflicts() {
        let mut alloc = vix(5, 4, 2);
        let mut reqs = RequestSet::new(5, 4);
        reqs.request(PortId(1), VcId(0), PortId(4));
        reqs.request(PortId(1), VcId(1), PortId(2)); // same sub-group as VC0
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1, "one virtual input serves one VC per cycle");
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn vix_exposes_more_requests_to_output_arbitration() {
        // The paper's Fig. 5 scenario. Baseline: West and South champions
        // both pick East → 1 transfer + whatever West's other VC lost.
        // VIX: South's two sub-groups expose North and East → 3 transfers.
        // Ports: 0=N 1=E 2=S 3=W 4=L (any consistent naming works).
        let mut reqs = RequestSet::new(5, 4);
        reqs.request(PortId(3), VcId(0), PortId(1)); // West vc0 → East
        reqs.request(PortId(2), VcId(0), PortId(1)); // South vc0 → East
        reqs.request(PortId(2), VcId(2), PortId(0)); // South vc2 → North

        let mut base = baseline(5, 4);
        let gb = base.allocate(&reqs);
        // Baseline input arbiters (fresh round-robin) pick VC0 at both
        // ports: both champion East, so only one wins; North idles.
        assert_eq!(gb.len(), 1);

        let mut v = vix(5, 4, 2);
        let gv = v.allocate(&reqs);
        assert_eq!(gv.len(), 2, "VIX serves East and North in the same cycle");
        gv.validate_against(&reqs, v.partition()).unwrap();
    }

    #[test]
    fn output_conflict_resolved_round_robin_over_cycles() {
        let mut alloc = baseline(3, 2);
        let mut winners = Vec::new();
        for _ in 0..4 {
            let mut reqs = RequestSet::new(3, 2);
            reqs.request(PortId(0), VcId(0), PortId(2));
            reqs.request(PortId(1), VcId(0), PortId(2));
            let g = alloc.allocate(&reqs);
            assert_eq!(g.len(), 1);
            winners.push(g.iter().next().unwrap().port);
        }
        // Round-robin output arbiter alternates the two contenders.
        assert_eq!(winners, vec![PortId(0), PortId(1), PortId(0), PortId(1)]);
    }

    #[test]
    fn non_speculative_beats_speculative() {
        let mut alloc = baseline(5, 2);
        let mut reqs = RequestSet::new(5, 2);
        reqs.push(SwitchRequest {
            port: PortId(0),
            vc: VcId(0),
            out_port: PortId(4),
            speculative: true,
            age: 0,
        });
        reqs.push(SwitchRequest {
            port: PortId(1),
            vc: VcId(0),
            out_port: PortId(4),
            speculative: false,
            age: 0,
        });
        for _ in 0..3 {
            let g = alloc.allocate(&reqs);
            assert_eq!(g.len(), 1);
            assert_eq!(
                g.iter().next().unwrap().port,
                PortId(1),
                "non-speculative must always preempt speculative"
            );
        }
    }

    #[test]
    fn speculative_request_wins_uncontested_output() {
        let mut alloc = baseline(5, 2);
        let mut reqs = RequestSet::new(5, 2);
        reqs.push(SwitchRequest {
            port: PortId(0),
            vc: VcId(1),
            out_port: PortId(3),
            speculative: true,
            age: 0,
        });
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn speculative_and_nonspeculative_from_same_port_respect_capacity() {
        // Baseline port: even mixing speculation, at most one grant/port.
        let mut alloc = baseline(5, 6);
        let mut reqs = RequestSet::new(5, 6);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.push(SwitchRequest {
            port: PortId(0),
            vc: VcId(5),
            out_port: PortId(2),
            speculative: true,
            age: 0,
        });
        let g = alloc.allocate(&reqs);
        g.validate_against(&reqs, alloc.partition()).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn empty_request_set_grants_nothing() {
        let mut alloc = vix(5, 6, 2);
        let g = alloc.allocate(&RequestSet::new(5, 6));
        assert!(g.is_empty());
    }

    #[test]
    fn full_uniform_contention_fills_all_outputs() {
        // Every port's every VC requests output (port+1) mod 5: each output
        // has 4 requesting ports ⇒ all 5 outputs must be granted.
        let mut alloc = baseline(5, 6);
        let mut reqs = RequestSet::new(5, 6);
        for p in 0..5 {
            for v in 0..6 {
                reqs.request(PortId(p), VcId(v), PortId((p + 1) % 5));
            }
        }
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 5);
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn name_reflects_partition() {
        assert_eq!(baseline(5, 6).name(), "IF");
        assert_eq!(vix(5, 6, 2).name(), "VIX");
    }

    fn aged_request(p: usize, v: usize, o: usize, age: u64) -> SwitchRequest {
        SwitchRequest { port: PortId(p), vc: VcId(v), out_port: PortId(o), speculative: false, age }
    }

    #[test]
    fn oldest_first_wins_output_contention() {
        use crate::PriorityPolicy;
        let cfg = AllocatorConfig::new(3, VixPartition::baseline(2))
            .with_priority(PriorityPolicy::OldestFirst);
        let mut alloc = SeparableAllocator::new(cfg);
        for _ in 0..4 {
            let mut reqs = RequestSet::new(3, 2);
            reqs.push(aged_request(0, 0, 2, 1));
            reqs.push(aged_request(1, 0, 2, 9)); // older
            let g = alloc.allocate(&reqs);
            assert_eq!(g.iter().next().unwrap().port, PortId(1), "oldest must always win");
        }
    }

    #[test]
    fn oldest_first_wins_input_stage_too() {
        use crate::PriorityPolicy;
        let cfg = AllocatorConfig::new(3, VixPartition::baseline(3))
            .with_priority(PriorityPolicy::OldestFirst);
        let mut alloc = SeparableAllocator::new(cfg);
        let mut reqs = RequestSet::new(3, 3);
        reqs.push(aged_request(0, 0, 1, 2));
        reqs.push(aged_request(0, 2, 2, 40)); // older VC of the same port
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1);
        assert_eq!(g.iter().next().unwrap().vc, VcId(2));
    }

    #[test]
    fn age_ties_fall_back_to_arbiter_rotation() {
        use crate::PriorityPolicy;
        let cfg = AllocatorConfig::new(3, VixPartition::baseline(2))
            .with_priority(PriorityPolicy::OldestFirst);
        let mut alloc = SeparableAllocator::new(cfg);
        let mut winners = Vec::new();
        for _ in 0..4 {
            let mut reqs = RequestSet::new(3, 2);
            reqs.push(aged_request(0, 0, 2, 5));
            reqs.push(aged_request(1, 0, 2, 5));
            winners.push(alloc.allocate(&reqs).iter().next().unwrap().port);
        }
        assert!(winners.contains(&PortId(0)) && winners.contains(&PortId(1)),
            "equal ages must share via the arbiter: {winners:?}");
    }

    #[test]
    fn oldest_first_never_beats_speculation_masking() {
        use crate::PriorityPolicy;
        // An old speculative request still loses to a young non-speculative
        // one: speculation masking is the outer priority.
        let cfg = AllocatorConfig::new(3, VixPartition::baseline(2))
            .with_priority(PriorityPolicy::OldestFirst);
        let mut alloc = SeparableAllocator::new(cfg);
        let mut reqs = RequestSet::new(3, 2);
        reqs.push(SwitchRequest {
            port: PortId(0), vc: VcId(0), out_port: PortId(2), speculative: true, age: 99,
        });
        reqs.push(aged_request(1, 0, 2, 0));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.iter().next().unwrap().port, PortId(1));
    }
}
