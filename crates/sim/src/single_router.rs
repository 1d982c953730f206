//! The single-router switch-allocation efficiency study of Fig. 7.
//!
//! Packets are "injected at maximum injection rate into each port": every
//! input VC always holds a flit whose output port is uniformly random, and
//! the harness counts how many flits each allocation scheme moves per
//! cycle, isolated from topology, flow control, and VC allocation.
//!
//! The harness drives one allocator directly, with no network and no
//! activity-gated scheduler around it: the single router is saturated by
//! construction and never quiescent — exactly the regime where the gated
//! network scheduler degenerates to the full sweep anyway (DESIGN.md §6c).

use vix_rng::rngs::StdRng;
use vix_rng::{Rng, SeedableRng};
use vix_alloc::Allocator;
use vix_core::{GrantSet, PortId, RequestSet, VcId};

/// Result of one harness run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleRouterResult {
    /// Flits that traversed the switch.
    pub flits: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl SingleRouterResult {
    /// Average throughput in flits/cycle (Fig. 7's y-axis).
    #[must_use]
    pub fn flits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flits as f64 / self.cycles as f64
        }
    }
}

/// A saturated single router driving one switch allocator.
#[derive(Debug)]
pub struct SingleRouterHarness {
    allocator: Allocator,
    ports: usize,
    vcs: usize,
    /// Head-of-line output request per (port, vc).
    hol: Vec<PortId>,
    rng: StdRng,
}

impl SingleRouterHarness {
    /// Creates the harness for a router with `ports` ports and `vcs` VCs
    /// per port, with every VC pre-loaded with a random request.
    ///
    /// # Panics
    ///
    /// Panics if `ports < 2` or `vcs == 0`.
    #[must_use]
    pub fn new(allocator: Allocator, ports: usize, vcs: usize, seed: u64) -> Self {
        assert!(ports >= 2 && vcs >= 1, "harness needs a real router shape");
        let mut rng = StdRng::seed_from_u64(seed);
        let hol = (0..ports * vcs).map(|_| PortId(rng.gen_range(0..ports))).collect();
        SingleRouterHarness { allocator, ports, vcs, hol, rng }
    }

    /// Runs `cycles` saturated cycles and returns the flit count.
    pub fn run(&mut self, cycles: u64) -> SingleRouterResult {
        let mut flits = 0;
        // Request and grant buffers are reused across all cycles — the
        // saturated loop is allocation-free after the first iteration.
        let mut requests = RequestSet::new(self.ports, self.vcs);
        let mut grants = GrantSet::new();
        for _ in 0..cycles {
            requests.clear();
            for p in 0..self.ports {
                for v in 0..self.vcs {
                    requests.request(PortId(p), VcId(v), self.hol[p * self.vcs + v]);
                }
            }
            self.allocator.allocate_into(&requests, &mut grants);
            debug_assert!(
                grants.validate_against(&requests, self.allocator.partition()).is_ok(),
                "allocator produced conflicting grants"
            );
            flits += grants.len() as u64;
            for g in &grants {
                // The granted flit departs; the VC refills immediately with
                // a fresh single-flit packet for a random output.
                self.hol[g.port.0 * self.vcs + g.vc.0] = PortId(self.rng.gen_range(0..self.ports));
            }
            self.allocator.observe_traversals(&grants);
        }
        SingleRouterResult { flits, cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_alloc::{build_allocator, AllocatorConfig, MaxMatchingAllocator};
    use vix_core::{AllocatorKind, RouterConfig, VirtualInputs};

    fn throughput(kind: AllocatorKind, radix: usize) -> f64 {
        let mut cfg = RouterConfig::paper_default(radix);
        if kind == AllocatorKind::Vix {
            cfg = cfg.with_virtual_inputs(VirtualInputs::PerPort(2));
        }
        let mut harness = SingleRouterHarness::new(build_allocator(kind, &cfg), radix, 6, 11);
        harness.run(4000).flits_per_cycle()
    }

    #[test]
    fn throughput_bounded_by_radix() {
        for radix in [5, 8, 10] {
            let t = throughput(AllocatorKind::InputFirst, radix);
            assert!(t > 0.0 && t <= radix as f64);
        }
    }

    #[test]
    fn fig7_ordering_holds_for_radix5() {
        // The paper's Fig. 7: IF < WF/PC < VIX ≈ AP ≈ ideal, with VIX and
        // AP at least 25–30 % above IF.
        let fi = throughput(AllocatorKind::InputFirst, 5);
        let wf = throughput(AllocatorKind::Wavefront, 5);
        let ap = throughput(AllocatorKind::AugmentingPath, 5);
        let vix = throughput(AllocatorKind::Vix, 5);
        assert!(wf > fi, "WF {wf} must beat IF {fi}");
        assert!(ap >= wf, "AP {ap} is a maximum matching, ≥ WF {wf}");
        assert!(vix > fi * 1.20, "VIX {vix} must beat IF {fi} by well over 20%");
        assert!(ap > fi * 1.25, "AP {ap} must beat IF {fi} by over 25%");
    }

    #[test]
    fn ideal_tops_everything() {
        let cfg = RouterConfig::paper_default(5).with_virtual_inputs(VirtualInputs::Ideal);
        let alloc = MaxMatchingAllocator::new(AllocatorConfig::from_router(&cfg));
        let mut ideal = SingleRouterHarness::new(Allocator::MaxMatching(Box::new(alloc)), 5, 6, 11);
        let ideal_t = ideal.run(4000).flits_per_cycle();
        for kind in [AllocatorKind::InputFirst, AllocatorKind::Wavefront, AllocatorKind::Vix] {
            let t = throughput(kind, 5);
            assert!(ideal_t >= t * 0.99, "ideal {ideal_t} below {kind:?} {t}");
        }
        assert!(ideal_t > 4.5, "ideal allocation on a saturated radix-5 router ≈ 5 flits/cycle");
    }

    #[test]
    fn deterministic_given_seed() {
        let t1 = throughput(AllocatorKind::InputFirst, 5);
        let t2 = throughput(AllocatorKind::InputFirst, 5);
        assert_eq!(t1, t2);
    }

    #[test]
    fn trends_hold_across_radices() {
        for radix in [5, 8, 10] {
            let fi = throughput(AllocatorKind::InputFirst, radix);
            let vix = throughput(AllocatorKind::Vix, radix);
            assert!(
                vix > fi * 1.15,
                "radix {radix}: VIX {vix} must improve on IF {fi} across radices"
            );
        }
    }
}
