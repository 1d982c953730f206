//! The input-first separable allocator, over virtual inputs.
//!
//! This single implementation covers both the paper's baseline "IF"
//! allocator and the VIX allocator of Fig. 3: the only difference is the
//! [`VixPartition`](vix_core::VixPartition) — one sub-group per port for IF, `k` sub-groups for a
//! 1:k VIX router.

use crate::arbiter::{Arbiter, ArbiterKind, MatrixArbiter, RoundRobinArbiter, StaticArbiter};
use crate::row::{self, Row, WIDE};
use crate::{mask_to_oldest_bits, AllocatorConfig, PriorityPolicy};
use vix_core::bits::words_for;
use vix_core::{Grant, GrantSet, PortId, RequestSet, SwitchRequest, VcId};
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
    arbiters: Arbiters,
    pub(crate) kernel: Kernel,
    /// [`run`](Self::run) at the shape's row width, picked at construction.
    run: fn(&mut Self, &RequestSet, &mut GrantSet),
}

/// The arbiters by kind: a call matches once, then runs a kernel generic
/// over the concrete type, so `peek_words` and `commit` inline.
#[derive(Debug)]
enum Arbiters {
    RoundRobin(Bank<RoundRobinArbiter>),
    Matrix(Bank<MatrixArbiter>),
    Static(Bank<StaticArbiter>),
}

#[derive(Debug)]
struct Bank<A> {
    /// One per (port × sub-group), each over the sub-group's VCs.
    inputs: Vec<A>,
    /// One per output port, each over all `ports × groups` virtual inputs.
    outputs: Vec<A>,
}

impl<A: Arbiter> Bank<A> {
    fn new(new: fn(usize) -> A, cfg: AllocatorConfig) -> Self {
        let virtual_inputs = cfg.ports * cfg.partition.groups();
        Bank {
            inputs: (0..virtual_inputs).map(|_| new(cfg.partition.group_size())).collect(),
            outputs: (0..cfg.ports).map(|_| new(virtual_inputs)).collect(),
        }
    }

    /// Grants `out` to `champ`, virtual input `vi`'s champion; both commit.
    #[inline]
    fn grant(&mut self, out: usize, vi: usize, champ: Champion, grants: &mut GrantSet) {
        self.outputs[out].commit(vi);
        self.inputs[vi].commit(champ.local);
        grants.add(Grant { port: champ.port, vc: champ.vc, out_port: PortId(out) });
    }
}

/// Stage-1 winner of one virtual input, only ever reached through the bits
/// of `champ_class`, so stale entries are never cleared.
#[derive(Debug, Clone, Copy, Default)]
struct Champion {
    port: PortId,
    vc: VcId,
    /// Index of `vc` within its sub-group (the input arbiter's line).
    local: usize,
}

/// Everything but the arbiters: the shape, the matching record and the
/// per-call working state, sized once at construction.
#[derive(Debug)]
pub(crate) struct Kernel {
    pub(crate) cfg: AllocatorConfig,
    /// Stage-1 winner per virtual input.
    champs: Vec<Champion>,
    /// `[class][out]` → the champion virtual inputs targeting `out`, class 0
    /// non-speculative, `words_for(ports × groups)` words per row. Reading
    /// a row clears it, so every row is zero between calls.
    champ_class: Vec<u64>,
    pub(crate) matching: MatchingStats,
}

impl SeparableAllocator {
    /// Creates the allocator for `cfg.ports` ports and the given partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition has more than 256 VCs per port.
    #[must_use]
    pub fn new(cfg: AllocatorConfig) -> Self {
        let vcs = cfg.partition.vcs();
        assert!(vcs <= 64 * WIDE, "{vcs} VCs per port exceeds the allocator's {}", 64 * WIDE);
        let virtual_inputs = cfg.ports * cfg.partition.groups();
        let arbiters = match cfg.arbiter {
            ArbiterKind::RoundRobin => Arbiters::RoundRobin(Bank::new(RoundRobinArbiter::new, cfg)),
            ArbiterKind::Matrix => Arbiters::Matrix(Bank::new(MatrixArbiter::new, cfg)),
            ArbiterKind::Static => Arbiters::Static(Bank::new(StaticArbiter::new, cfg)),
        };
        let kernel = Kernel {
            cfg,
            champs: vec![Champion::default(); virtual_inputs],
            champ_class: vec![0; 2 * cfg.ports * words_for(virtual_inputs)],
            matching: MatchingStats::new(virtual_inputs),
        };
        // Every paper shape has ≤ 64 VCs, ports and virtual inputs.
        let run = match (vcs <= 64 && cfg.ports <= 64, virtual_inputs <= 64) {
            (true, true) => Self::run::<1, true>,
            (true, false) => Self::run::<1, false>,
            (false, _) => Self::run::<WIDE, false>,
        };
        SeparableAllocator { arbiters, kernel, run }
    }

    /// One call with `W`-word rows, and one-word virtual-input rows if
    /// `VI1`: the lone-request path, or both stages with the arbiter kind
    /// resolved.
    fn run<const W: usize, const VI1: bool>(&mut self, reqs: &RequestSet, grants: &mut GrantSet) {
        if reqs.len() == 1 {
            let lone = (0..reqs.ports()).map(PortId).find_map(|port| {
                let active = reqs.active_vcs(port);
                let w = active.iter().position(|&word| word != 0)?;
                reqs.get(port, VcId(w * 64 + active[w].trailing_zeros() as usize))
            });
            return self.allocate_one(lone.expect("one request posted"), grants);
        }
        let Self { arbiters, kernel, .. } = self;
        match arbiters {
            Arbiters::RoundRobin(bank) => kernel.stages::<W, VI1>(bank, reqs, grants),
            Arbiters::Matrix(bank) => kernel.stages::<W, VI1>(bank, reqs, grants),
            Arbiters::Static(bank) => kernel.stages::<W, VI1>(bank, reqs, grants),
        }
    }

    /// One cycle of [`crate::Allocator::allocate_into`], on this scheme
    /// alone.
    pub fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let shape = (self.kernel.cfg.ports, self.kernel.cfg.partition.vcs());
        debug_assert_eq!((requests.ports(), requests.vcs_per_port()), shape, "request set shape mismatch");
        grants.clear();
        (self.run)(self, requests, grants);
    }

    /// One cycle on a set holding `request` alone, without building it.
    pub(crate) fn allocate_one(&mut self, request: SwitchRequest, grants: &mut GrantSet) {
        let Self { arbiters, kernel, .. } = self;
        grants.clear();
        match arbiters {
            Arbiters::RoundRobin(bank) => kernel.single(bank, request, grants),
            Arbiters::Matrix(bank) => kernel.single(bank, request, grants),
            Arbiters::Static(bank) => kernel.single(bank, request, grants),
        }
    }

    #[cfg(test)]
    pub(crate) fn allocate_scalar_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let Self { arbiters, kernel, .. } = self;
        match arbiters {
            Arbiters::RoundRobin(bank) => kernel.scalar(bank, requests, grants),
            Arbiters::Matrix(bank) => kernel.scalar(bank, requests, grants),
            Arbiters::Static(bank) => kernel.scalar(bank, requests, grants),
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

impl Kernel {
    /// Single-request fast path: every arbiter kind grants a lone asserted
    /// line, so both stages collapse to their grant-time pointer commits —
    /// the same grants and arbiter state as [`stages`](Self::stages).
    #[inline]
    fn single(&mut self, bank: &mut Bank<impl Arbiter>, req: SwitchRequest, grants: &mut GrantSet) {
        let partition = &self.cfg.partition;
        let group = partition.group_of(req.vc);
        let vi = req.port.0 * partition.groups() + group.0;
        let local = req.vc.0 - partition.group_start(group);
        bank.grant(req.out_port.0, vi, Champion { port: req.port, vc: req.vc, local }, grants);
        self.matching.record(1, 1, 1, 1);
    }

    /// The kernel. VC lines, sub-group lines and output sets are `W`-word
    /// rows (a register at every paper shape) read from the request set's
    /// masks and out ports; the champion rows span the virtual inputs, in
    /// one word if `VI1`.
    fn stages<const W: usize, const VI1: bool>(
        &mut self,
        bank: &mut Bank<impl Arbiter>,
        reqs: &RequestSet,
        grants: &mut GrantSet,
    ) {
        let (ports, groups) = (self.cfg.ports, self.cfg.partition.groups());
        let gsize = self.cfg.partition.group_size();
        let line_words = row::words::<W>(gsize);
        let vi_words = if VI1 { 1 } else { words_for(ports * groups) };
        let oldest_first = self.cfg.priority == PriorityPolicy::OldestFirst;
        let age_of = |port: PortId, vc: VcId| reqs.get(port, vc).map_or(0, |r| r.age);
        let Self { champs, champ_class, matching, .. } = self;

        // Stage 1: one champion per virtual input with a request, set in the
        // (class, output) row stage 2 arbitrates over; `targeted[class]`
        // marks the non-empty rows. The sweep also counts for the record.
        let (mut targeted, mut out_union, mut active_vi) = ([[0u64; W]; 2], [0u64; W], 0);
        for port in (0..ports).map(PortId) {
            let active = <[u64; W]>::load(reqs.active_vcs(port));
            if active.is_empty() {
                continue;
            }
            let spec = <[u64; W]>::load(reqs.spec_vcs(port));
            // Scanned here rather than through `for_each_request_at`, whose
            // per-port slicing made the one-word kernel 8–11 % slower in
            // `alloc_kernels` (IF mesh-5p, 1.23x of its recorded figure).
            active.for_each(|vc| out_union.set(reqs.out_port(port, VcId(vc)).0));
            for group in 0..groups {
                let (gstart, vi) = (group * gsize, port.0 * groups + group);
                if active.window(gstart, gsize).is_empty() {
                    continue;
                }
                active_vi += 1;
                // Pessimistic masking: non-speculative lines first. An empty
                // sub-group or class can neither win nor move an arbiter.
                for (class, class_line) in [active.and_not(spec), spec].into_iter().enumerate() {
                    if class == 1 && reqs.speculative_len() == 0 {
                        break;
                    }
                    let mut line = class_line.window(gstart, gsize);
                    if oldest_first {
                        mask_to_oldest_bits(&mut line, |i| age_of(port, VcId(gstart + i)));
                    }
                    let Some(local) = bank.inputs[vi].peek_words(&line[..line_words]) else {
                        continue;
                    };
                    let vc = VcId(gstart + local);
                    let out = reqs.out_port(port, vc).0;
                    champs[vi] = Champion { port, vc, local };
                    champ_class[(class * ports + out) * vi_words + if VI1 { 0 } else { vi / 64 }] |= 1 << (vi % 64);
                    targeted[class].set(out);
                    break;
                }
            }
        }

        // Stage 2: the targeted rows, non-speculative first, in output order.
        // A virtual input champions one row only, so no winner comes back.
        let mut taken = [0u64; W];
        for (class, outs) in targeted.into_iter().enumerate() {
            outs.for_each(|out| {
                // A one-word row is taken into a register, a wider one is
                // cleared after use: either way rows are zero between calls.
                let (at, mut word) = ((class * ports + out) * vi_words, [0]);
                let row = if VI1 {
                    word[0] = std::mem::take(&mut champ_class[at]);
                    &mut word[..]
                } else {
                    &mut champ_class[at..][..vi_words]
                };
                if !taken.test(out) {
                    if oldest_first {
                        mask_to_oldest_bits(row, |vi| age_of(champs[vi].port, champs[vi].vc));
                    }
                    if let Some(winner_vi) = bank.outputs[out].peek_words(row) {
                        taken.set(out);
                        bank.grant(out, winner_vi, champs[winner_vi], grants);
                    }
                }
                row.fill(0);
            });
        }
        let outputs = out_union.iter().map(|w| w.count_ones() as usize).sum();
        matching.record(reqs.len(), active_vi, outputs, grants.len());
    }

    /// The original scalar loops over per-VC [`RequestSet::get`] lookups:
    /// the executable specification the differential suite holds
    /// [`stages`](Self::stages) against at both row widths.
    #[cfg(test)]
    fn scalar(&mut self, bank: &mut Bank<impl Arbiter>, reqs: &RequestSet, grants: &mut GrantSet) {
        let ports = self.cfg.ports;
        let groups = self.cfg.partition.groups();
        let virtual_inputs = ports * groups;
        let group_vcs = crate::group_vcs(&self.cfg.partition);
        let Self { cfg, matching, .. } = self;
        let Bank { inputs: input_arbiters, outputs: output_arbiters } = bank;

        // Stage 1: champions[vi] = (request, local VC index in sub-group).
        // Ports with no posted request are skipped whole — an all-false
        // line vector can neither elect a champion nor move the arbiter.
        let mut champions: Vec<Option<(SwitchRequest, usize)>> = vec![None; virtual_inputs];
        let mut any_speculative_champion = false;
        for port in 0..ports {
            if !reqs.port_is_active(PortId(port)) {
                continue;
            }
            for (group, vcs) in group_vcs.iter().enumerate() {
                let vi = port * groups + group;
                champions[vi] = input_stage(cfg, vcs, &input_arbiters[vi], reqs, port);
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
        matching.record_set(reqs, grants, &cfg.partition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::VixPartition;
    use crate::Allocator;
    use vix_core::VcId;

    fn baseline(ports: usize, vcs: usize) -> Allocator {
        separable(AllocatorConfig::new(ports, VixPartition::baseline(vcs)))
    }

    fn vix(ports: usize, vcs: usize, groups: usize) -> Allocator {
        separable(AllocatorConfig::new(ports, VixPartition::even(vcs, groups).unwrap()))
    }

    fn separable(cfg: AllocatorConfig) -> Allocator {
        Allocator::Separable(SeparableAllocator::new(cfg))
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
        let mut alloc = separable(cfg);
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
        let mut alloc = separable(cfg);
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
        let mut alloc = separable(cfg);
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
        let mut alloc = separable(cfg);
        let mut reqs = RequestSet::new(3, 2);
        reqs.push(SwitchRequest {
            port: PortId(0), vc: VcId(0), out_port: PortId(2), speculative: true, age: 99,
        });
        reqs.push(aged_request(1, 0, 2, 0));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.iter().next().unwrap().port, PortId(1));
    }
}
