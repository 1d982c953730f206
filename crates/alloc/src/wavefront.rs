//! Wavefront switch allocator (Tamir & Chi).

use crate::AllocatorConfig;
use crate::arbiter::Arbiter;
use vix_core::bits::{
    any_set, clear_bit, set_bit, set_low_bits, test_bit, words_for,
};
use vix_core::{Grant, GrantSet, PortId, RequestSet, VcId};
use vix_telemetry::MatchingStats;

/// Wavefront allocator ("WF" in the paper), generalised to virtual inputs.
///
/// Works on the *virtual-input-level* `(P·k) × P` request matrix: entry
/// `(vi, o)` is set when any VC of virtual input `vi` (a sub-group of one
/// port's VCs) requests output `o`. A priority wavefront sweeps the
/// diagonals; every conflict-free `(vi, o)` pair on a diagonal is granted
/// simultaneously, so the result is a *maximal* (not maximum) matching.
/// The starting diagonal rotates each cycle for fairness.
///
/// With the baseline partition (one sub-group per port) this is exactly
/// the paper's WF: at most one VC per input port, so wavefront improves
/// matching efficiency but cannot lift the input-port constraint — VIX's
/// second advantage (§2.2). With `k > 1` sub-groups it becomes a "WF-VIX"
/// hybrid (an extension beyond the paper) that enjoys both. The circuit is
/// 39 % slower than a separable allocator either way (Table 3); network
/// simulations nevertheless clock all schemes at the same cycle time, per
/// §4.1.
///
/// Non-speculative requests are processed in a first sweep; speculative
/// requests fill leftover resources in a second sweep.
#[derive(Debug)]
pub struct WavefrontAllocator {
    pub(crate) cfg: AllocatorConfig,
    /// Rotating priority diagonal.
    offset: usize,
    /// Champion VC selection per virtual input.
    vc_selectors: Vec<Box<dyn Arbiter>>,
    scratch: WavefrontScratch,
    pub(crate) matching: MatchingStats,
}

/// Owned per-cycle working state reused across
/// [`crate::Allocator::allocate_into`] calls.
#[derive(Debug, Default)]
struct WavefrontScratch {
    /// `[class][vi]` → output mask (bit `o` ⇔ matrix entry `(vi, o)` in
    /// that speculation class), strided `words_for(ports)` words per row.
    rows: Vec<u64>,
    /// `[class]` → mask of the virtual inputs with a row in that class,
    /// `words_for(units)` words each.
    live_units: Vec<u64>,
    /// Multi-word unit/output masks shared by both speculation sweeps of
    /// one cycle.
    sweep_live: Vec<u64>,
    free_units: Vec<u64>,
    free_outputs: Vec<u64>,
    /// One granted `(virtual input, output)` pair's VC line.
    line_buf: Vec<u64>,
}

impl WavefrontAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new(cfg: AllocatorConfig) -> Self {
        let units = cfg.ports * cfg.partition.groups();
        let vc_selectors = (0..units).map(|_| cfg.arbiter.build(cfg.partition.group_size())).collect();
        WavefrontAllocator {
            cfg,
            offset: 0,
            vc_selectors,
            scratch: WavefrontScratch::default(),
            matching: MatchingStats::new(units),
        }
    }

    /// Current priority-diagonal offset.
    #[cfg(test)]
    fn offset(&self) -> usize {
        self.offset
    }
}

/// One wavefront sweep over the virtual-input-level request matrix of one
/// speculation class: each matrix row is a multi-word output mask, the
/// sweep walks live rows word by word with `trailing_zeros`, and the
/// diagonal membership test is a word-indexed bit probe. Visit order is
/// diagonal-major, row-ascending.
#[allow(clippy::too_many_arguments)]
fn sweep_bits(
    cfg: &AllocatorConfig,
    offset: usize,
    vc_selectors: &mut [Box<dyn Arbiter>],
    requests: &RequestSet,
    speculative: bool,
    scratch: &mut WavefrontScratch,
    grants: &mut GrantSet,
) {
    let ports = cfg.ports;
    let groups = cfg.partition.groups();
    let units = ports * groups;
    let group_size = cfg.partition.group_size();
    let port_words = words_for(ports);
    let unit_words = words_for(units);
    let WavefrontScratch { rows, live_units, sweep_live, free_units, free_outputs, line_buf } =
        scratch;
    let class = usize::from(speculative);
    let rows = &rows[class * units * port_words..][..units * port_words];
    let live_units = &live_units[class * unit_words..][..unit_words];
    // Sweep diagonal by diagonal, visiting only live rows. Skipped
    // iterations touch no arbiter state, so the early exits below cannot
    // change observable behaviour. Each diagonal iterates a snapshot of
    // the live mask — a unit appears at most once per diagonal, so
    // mid-diagonal grants are excluded by the free-output probe alone.
    for diag in 0..ports {
        let mut any_live = false;
        sweep_live.clear();
        sweep_live.resize(unit_words, 0);
        for (dst, (&lu, &fu)) in sweep_live.iter_mut().zip(live_units.iter().zip(free_units.iter()))
        {
            *dst = lu & fu;
            any_live |= *dst != 0;
        }
        if !any_live || !any_set(free_outputs) {
            break;
        }
        for (w, &sweep_word) in sweep_live.iter().enumerate() {
            let mut live = sweep_word;
            while live != 0 {
                let vi = w * 64 + live.trailing_zeros() as usize;
                live &= live - 1;
                let o = (vi + offset + diag) % ports;
                let row = &rows[vi * port_words..(vi + 1) * port_words];
                if !test_bit(row, o) || !test_bit(free_outputs, o) {
                    continue;
                }
                let port = PortId(vi / groups);
                let group = vi % groups;
                let gstart = group * group_size;
                // Champion VC within the sub-group.
                requests.vcs_requesting(port, PortId(o), Some(speculative), gstart..gstart + group_size, line_buf);
                let sel = &mut vc_selectors[vi];
                let local = sel.peek_words(line_buf).expect("matrix entry implies a requesting VC");
                sel.commit(local);
                clear_bit(free_units, vi);
                clear_bit(free_outputs, o);
                grants.add(Grant { port, vc: VcId(gstart + local), out_port: PortId(o) });
            }
        }
    }
}

/// Scalar reference kernel: one wavefront sweep over requests with the
/// given speculation class — the executable specification the differential
/// suite holds [`sweep_bits`] against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn sweep(
    cfg: &AllocatorConfig,
    offset: usize,
    group_vcs: &[Vec<VcId>],
    vc_selectors: &mut [Box<dyn Arbiter>],
    requests: &RequestSet,
    speculative: bool,
    unit_taken: &mut [bool],
    output_taken: &mut [bool],
    grants: &mut GrantSet,
) {
    let ports = cfg.ports;
    let groups = cfg.partition.groups();
    let units = ports * groups;
    // Virtual-input-level request matrix for this speculation class.
    let mut matrix = vec![false; units * ports];
    for r in requests.active_requests().filter(|r| r.speculative == speculative) {
        let vi = r.port.0 * groups + cfg.partition.group_of(r.vc).0;
        matrix[vi * ports + r.out_port.0] = true;
    }
    // Sweep the (rectangular) matrix diagonal by diagonal. Each
    // diagonal visits every row once; when the matrix is taller than
    // wide (k > 1) two rows of a diagonal can share a column, and the
    // taken flags resolve the tie in row order — the same token
    // propagation a rectangular hardware wavefront performs.
    for diag in 0..ports {
        for vi in 0..units {
            let o = (vi + offset + diag) % ports;
            if !matrix[vi * ports + o] || unit_taken[vi] || output_taken[o] {
                continue;
            }
            let port = PortId(vi / groups);
            // Champion VC within the sub-group.
            let vcs = &group_vcs[vi % groups];
            let lines: Vec<bool> = vcs
                .iter()
                .map(|&v| {
                    requests
                        .get(port, v)
                        .is_some_and(|r| r.out_port == PortId(o) && r.speculative == speculative)
                })
                .collect();
            let sel = &mut vc_selectors[vi];
            let local = sel.peek(&lines).expect("matrix entry implies a requesting VC");
            sel.commit(local);
            unit_taken[vi] = true;
            output_taken[o] = true;
            grants.add(Grant { port, vc: vcs[local], out_port: PortId(o) });
        }
    }
}

impl WavefrontAllocator {
    /// One cycle of [`crate::Allocator::allocate_into`].
    pub(crate) fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        debug_assert_eq!(requests.ports(), self.cfg.ports, "request set port mismatch");
        debug_assert_eq!(
            requests.vcs_per_port(),
            self.cfg.partition.vcs(),
            "request set VC mismatch"
        );
        grants.clear();
        let units = self.cfg.ports * self.cfg.partition.groups();
        let Self { cfg, offset, vc_selectors, scratch, matching } = self;
        let (port_words, unit_words) = (words_for(cfg.ports), words_for(units));
        // The virtual-input-level request matrix of both speculation
        // classes, one OR per request.
        let WavefrontScratch { rows, live_units, .. } = scratch;
        rows.clear();
        rows.resize(2 * units * port_words, 0);
        live_units.clear();
        live_units.resize(2 * unit_words, 0);
        requests.for_each_request(|port, vc, out, speculative| {
            let class = usize::from(speculative);
            let vi = port.0 * cfg.partition.groups() + cfg.partition.group_of(vc).0;
            set_bit(&mut rows[(class * units + vi) * port_words..], out.0);
            set_bit(&mut live_units[class * unit_words..], vi);
        });
        scratch.free_units.clear();
        scratch.free_units.resize(words_for(units), 0);
        set_low_bits(&mut scratch.free_units, units);
        scratch.free_outputs.clear();
        scratch.free_outputs.resize(words_for(cfg.ports), 0);
        set_low_bits(&mut scratch.free_outputs, cfg.ports);
        scratch.line_buf.clear();
        scratch.line_buf.resize(words_for(cfg.partition.group_size()), 0);
        for speculative in [false, true] {
            sweep_bits(cfg, *offset, vc_selectors, requests, speculative, scratch, grants);
        }
        *offset = (*offset + 1) % cfg.ports;
        // A virtual input is active iff it has a row in either class; the
        // requested outputs are the union of all rows.
        let (rows, live) = (&scratch.rows, &scratch.live_units);
        let active_vi = (0..unit_words).map(|w| (live[w] | live[unit_words + w]).count_ones() as usize).sum();
        let outputs = (0..port_words)
            .map(|w| rows.chunks_exact(port_words).fold(0, |u, row| u | row[w]).count_ones() as usize)
            .sum();
        matching.record(requests.len(), active_vi, outputs, grants.len());
    }

    #[cfg(test)]
    pub(crate) fn allocate_scalar_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        let group_vcs = crate::group_vcs(&self.cfg.partition);
        let Self { cfg, offset, vc_selectors, matching, .. } = self;
        let mut unit_taken = vec![false; cfg.ports * cfg.partition.groups()];
        let mut output_taken = vec![false; cfg.ports];
        for speculative in [false, true] {
            sweep(
                cfg,
                *offset,
                &group_vcs,
                vc_selectors,
                requests,
                speculative,
                &mut unit_taken,
                &mut output_taken,
                grants,
            );
        }
        *offset = (*offset + 1) % cfg.ports;
        matching.record_set(requests, grants, &cfg.partition);
    }

    pub(crate) fn note_idle_cycles(&mut self, n: u64) {
        // An empty allocate_into touches nothing but the rotating priority
        // diagonal (the VC selectors only commit on a grant), so n empty
        // cycles are exactly n offset rotations.
        self.offset = (self.offset + (n % self.cfg.ports as u64) as usize) % self.cfg.ports;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::VixPartition;
    use crate::Allocator;

    fn wf(ports: usize, vcs: usize) -> Allocator {
        let cfg = AllocatorConfig::new(ports, VixPartition::baseline(vcs));
        Allocator::Wavefront(WavefrontAllocator::new(cfg))
    }

    #[test]
    fn grants_are_conflict_free() {
        let (ports, vcs) = (5, 6);
        let mut alloc = wf(ports, vcs);
        let mut reqs = RequestSet::new(ports, vcs);
        for p in 0..ports {
            for v in 0..vcs {
                reqs.request(PortId(p), VcId(v), PortId((p * 2 + v) % ports));
            }
        }
        let g = alloc.allocate(&reqs);
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn wavefront_finds_maximal_matching() {
        // A matching is maximal iff no request pair (i, o) is left with
        // both sides free.
        let mut alloc = wf(4, 2);
        let mut reqs = RequestSet::new(4, 2);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(1), VcId(0), PortId(1));
        reqs.request(PortId(2), VcId(0), PortId(3));
        reqs.request(PortId(3), VcId(1), PortId(0));
        let g = alloc.allocate(&reqs);
        for r in reqs.active_requests() {
            let input_free = g.count_for_input(r.port) == 0;
            let output_free = g.for_output(r.out_port).is_none();
            assert!(!(input_free && output_free), "({}, {}) left unmatched", r.port, r.out_port);
        }
    }

    #[test]
    fn beats_uncoordinated_separable_on_conflict_pattern() {
        use crate::SeparableAllocator;
        // Fresh separable arbiters make both ports champion the same
        // output; wavefront resolves the conflict within the cycle.
        let mut reqs = RequestSet::new(3, 2);
        reqs.request(PortId(0), VcId(0), PortId(2));
        reqs.request(PortId(0), VcId(1), PortId(1));
        reqs.request(PortId(1), VcId(0), PortId(2));
        let mut sep = Allocator::Separable(SeparableAllocator::new(AllocatorConfig::new(
            3,
            VixPartition::baseline(2),
        )));
        let mut wf_alloc = wf(3, 2);
        assert!(wf_alloc.allocate(&reqs).len() >= sep.allocate(&reqs).len());
        assert_eq!(wf_alloc.allocate(&reqs).len(), 2);
    }

    #[test]
    fn one_grant_per_input_port() {
        let mut alloc = wf(4, 4);
        let mut reqs = RequestSet::new(4, 4);
        for v in 0..4 {
            reqs.request(PortId(0), VcId(v), PortId(v));
        }
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1, "wavefront is port-level: one grant per input");
    }

    #[test]
    fn rotating_offset_gives_long_run_fairness() {
        let mut alloc = wf(2, 1);
        let mut wins = [0u32; 2];
        for _ in 0..10 {
            let mut reqs = RequestSet::new(2, 1);
            reqs.request(PortId(0), VcId(0), PortId(0));
            reqs.request(PortId(1), VcId(0), PortId(0));
            wins[alloc.allocate(&reqs).iter().next().unwrap().port.0] += 1;
        }
        assert_eq!(wins, [5, 5], "rotating diagonal must alternate winners");
    }

    #[test]
    fn offset_rotates_every_cycle() {
        let mut alloc = WavefrontAllocator::new(AllocatorConfig::new(4, VixPartition::baseline(1)));
        let mut g = GrantSet::new();
        assert_eq!(alloc.offset(), 0);
        alloc.allocate_into(&RequestSet::new(4, 1), &mut g);
        assert_eq!(alloc.offset(), 1);
        for _ in 0..3 {
            alloc.allocate_into(&RequestSet::new(4, 1), &mut g);
        }
        assert_eq!(alloc.offset(), 0);
    }

    #[test]
    fn speculative_fill_after_nonspeculative() {
        use vix_core::SwitchRequest;
        let mut alloc = wf(3, 2);
        let mut reqs = RequestSet::new(3, 2);
        reqs.push(SwitchRequest {
            port: PortId(0),
            vc: VcId(0),
            out_port: PortId(2),
            speculative: true,
            age: 0,
        });
        reqs.request(PortId(1), VcId(0), PortId(2));
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1);
        assert_eq!(g.iter().next().unwrap().port, PortId(1), "non-spec wins the contended output");
        // And a speculative request alone still fills an idle output.
        let mut reqs2 = RequestSet::new(3, 2);
        reqs2.push(SwitchRequest {
            port: PortId(0),
            vc: VcId(0),
            out_port: PortId(1),
            speculative: true,
            age: 0,
        });
        assert_eq!(alloc.allocate(&reqs2).len(), 1);
    }

    #[test]
    fn empty_requests_grant_nothing() {
        let mut alloc = wf(5, 6);
        assert!(alloc.allocate(&RequestSet::new(5, 6)).is_empty());
    }

    fn wf_vix(ports: usize, vcs: usize, groups: usize) -> Allocator {
        let cfg = AllocatorConfig::new(ports, VixPartition::even(vcs, groups).unwrap());
        Allocator::Wavefront(WavefrontAllocator::new(cfg))
    }

    #[test]
    fn wf_vix_lifts_input_port_constraint() {
        // The WF-VIX extension: two sub-groups of one port reach two
        // different outputs in the same cycle.
        let mut alloc = wf_vix(5, 4, 2);
        let mut reqs = RequestSet::new(5, 4);
        reqs.request(PortId(0), VcId(0), PortId(1)); // sub-group 0
        reqs.request(PortId(0), VcId(2), PortId(2)); // sub-group 1
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 2, "WF-VIX moves two flits per port");
        g.validate_against(&reqs, alloc.partition()).unwrap();
        assert_eq!(alloc.name(), "WF-VIX");
    }

    #[test]
    fn wf_vix_respects_subgroup_exclusivity() {
        let mut alloc = wf_vix(5, 4, 2);
        let mut reqs = RequestSet::new(5, 4);
        reqs.request(PortId(0), VcId(0), PortId(1));
        reqs.request(PortId(0), VcId(1), PortId(2)); // same sub-group as VC0
        let g = alloc.allocate(&reqs);
        assert_eq!(g.len(), 1, "one grant per virtual input");
        g.validate_against(&reqs, alloc.partition()).unwrap();
    }

    #[test]
    fn wf_vix_grants_stay_valid_under_full_load() {
        let (ports, vcs) = (5, 6);
        let mut alloc = wf_vix(ports, vcs, 3);
        for cycle in 0..12 {
            let mut reqs = RequestSet::new(ports, vcs);
            for p in 0..ports {
                for v in 0..vcs {
                    reqs.request(PortId(p), VcId(v), PortId((p + v + cycle) % ports));
                }
            }
            let g = alloc.allocate(&reqs);
            g.validate_against(&reqs, alloc.partition()).unwrap();
            assert!(g.len() >= ports - 1, "dense requests must keep most outputs busy");
        }
    }

    #[test]
    fn wf_vix_beats_port_level_wf_on_the_fig4_pattern() {
        // Only one port has traffic, to two outputs: port-level WF moves
        // one flit, WF-VIX moves two.
        let mut reqs = RequestSet::new(5, 4);
        reqs.request(PortId(3), VcId(0), PortId(0));
        reqs.request(PortId(3), VcId(3), PortId(4));
        assert_eq!(wf(5, 4).allocate(&reqs).len(), 1);
        assert_eq!(wf_vix(5, 4, 2).allocate(&reqs).len(), 2);
    }
}
