//! Switch allocators for virtual-channel NoC routers.
//!
//! This crate implements every allocation scheme evaluated in the VIX paper
//! (§4.1, §4.4) plus an iterative extension:
//!
//! | Scheme | Type | Paper role |
//! |--------|------|-----------|
//! | [`SeparableAllocator`] (k = 1) | input-first separable ("IF") | baseline |
//! | [`SeparableAllocator`] (k ≥ 2) | separable over virtual inputs ("VIX") | **the contribution** |
//! | [`WavefrontAllocator`] | wavefront ("WF") | quality baseline, 39 % slower circuit |
//! | [`MaxMatchingAllocator`] (k = 1) | augmented-path maximum matching ("AP") | upper bound on port-level matching |
//! | [`MaxMatchingAllocator`] (k = v) | ideal VC-level matching | upper bound used in Fig. 7/12 |
//! | [`PacketChainingAllocator`] | *SameInput, anyVC* chaining ("PC") | §4.4 comparison |
//! | [`IslipAllocator`] | iterative separable (iSLIP) | extension baseline |
//!
//! The [`arbiter`] module holds the round-robin, matrix and fixed-priority
//! arbiters the schemes are built from.
//!
//! Each scheme's struct is one variant of the [`Allocator`] enum that a
//! router holds inline; [`build_allocator`] picks it from an
//! [`AllocatorKind`].
//!
//! The unification at the heart of the crate: *a baseline router is a VIX
//! router with one virtual input per port.* Every allocator therefore works
//! on the [`VixPartition`] granularity — at most one grant per VC sub-group
//! — and the baseline behaviour falls out of `groups == 1`.
//!
//! Every kernel reads the [`RequestSet`]'s per-port VC masks and out-port
//! column and gathers, once per call and through one walk over the posted
//! requests ([`RequestSet::for_each_request`]), only the rows it
//! arbitrates over — wavefront its virtual-input × output matrix,
//! output-first each output's requesting VCs, iSLIP each output's
//! requesting ports, max-matching its adjacency — plus the VC line of each
//! pair it grants ([`RequestSet::vcs_requesting`]). The separable kernels
//! need nothing else. No allocator builds the full `[class][port][out]`
//! matrix.
//!
//! # Example
//!
//! ```
//! use vix_alloc::{Allocator, AllocatorConfig, SeparableAllocator};
//! use vix_core::{GrantSet, PortId, VcId, RequestSet, VixPartition};
//!
//! // A 5-port VIX router: 6 VCs in 2 sub-groups of 3.
//! let cfg = AllocatorConfig::new(5, VixPartition::even(6, 2)?);
//! let mut alloc = Allocator::Separable(SeparableAllocator::new(cfg));
//!
//! let mut reqs = RequestSet::new(5, 6);
//! reqs.request(PortId(0), VcId(0), PortId(1)); // sub-group 0
//! reqs.request(PortId(0), VcId(3), PortId(2)); // sub-group 1
//! let mut grants = GrantSet::new();
//! alloc.allocate_into(&reqs, &mut grants);
//! assert_eq!(grants.len(), 2, "VIX sends two flits from one port");
//! assert_eq!(alloc.name(), "VIX");
//! # Ok::<(), vix_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbiter;
mod chaining;
#[cfg(test)]
mod differential;
mod islip;
mod matching;
mod max_matching;
mod output_first;
mod row;
mod separable;
mod wavefront;

pub use arbiter::ArbiterKind;
pub use chaining::PacketChainingAllocator;
pub use islip::IslipAllocator;
pub use matching::{max_bipartite_matching_bits_into, MatchingScratch};
pub use max_matching::MaxMatchingAllocator;
pub use output_first::OutputFirstAllocator;
pub use separable::SeparableAllocator;
pub use wavefront::WavefrontAllocator;

use vix_core::{AllocatorKind, GrantSet, RequestSet, RouterConfig, SwitchRequest, VixPartition};
use vix_telemetry::MatchingStats;

/// Bitset analogue of the scalar `mask_to_oldest` line masking: clears every
/// set bit whose age is below the maximum age among set bits, leaving the
/// arbiter to break ties among the oldest. `age_of` is only consulted for
/// set bits. Operates on a multi-word mask; a one-word row passes as a
/// one-element slice.
pub(crate) fn mask_to_oldest_bits(mask: &mut [u64], mut age_of: impl FnMut(usize) -> u64) {
    let mut max = 0u64;
    let mut any = false;
    for (w, &word) in mask.iter().enumerate() {
        let mut scan = word;
        while scan != 0 {
            let b = w * 64 + scan.trailing_zeros() as usize;
            scan &= scan - 1;
            max = max.max(age_of(b));
            any = true;
        }
    }
    if !any {
        return;
    }
    for (w, word) in mask.iter_mut().enumerate() {
        let mut scan = *word;
        while scan != 0 {
            let b = w * 64 + scan.trailing_zeros() as usize;
            scan &= scan - 1;
            if age_of(b) < max {
                *word &= !(1u64 << (b % 64));
            }
        }
    }
}

/// VCs of each sub-group, as the scalar reference kernels walk them.
#[cfg(test)]
pub(crate) fn group_vcs(partition: &VixPartition) -> Vec<Vec<vix_core::VcId>> {
    (0..partition.groups())
        .map(|g| partition.vcs_in_group(vix_core::VirtualInputId(g)).collect())
        .collect()
}

/// How separable stages break ties between simultaneous requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityPolicy {
    /// Pure rotating/matrix arbitration (the paper's configuration).
    #[default]
    Rotating,
    /// Prefer the oldest request ([`vix_core::SwitchRequest::age`]), with
    /// the arbiter breaking age ties — the prioritisation optimisation of
    /// Kumar et al.'s SPAROFLO that §5 notes "can be easily integrated
    /// with VIX". Trades a wider comparator for lower tail latency.
    OldestFirst,
}

/// Static parameters shared by all allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocatorConfig {
    /// Physical ports (inputs == outputs == radix).
    pub ports: usize,
    /// VC → virtual-input partition (`groups == 1` for a baseline router).
    pub partition: VixPartition,
    /// Arbiter circuit used by separable stages.
    pub arbiter: ArbiterKind,
    /// Tie-break policy of the separable stages.
    pub priority: PriorityPolicy,
}

impl AllocatorConfig {
    /// Creates a configuration with round-robin arbiters. Any shape is
    /// accepted: the kernels store `ceil(width / 64)` words per
    /// request row, so radices, VC counts, and crossbar-input products
    /// past 64 are first-class (DESIGN.md §6d).
    #[must_use]
    pub fn new(ports: usize, partition: VixPartition) -> Self {
        AllocatorConfig {
            ports,
            partition,
            arbiter: ArbiterKind::RoundRobin,
            priority: PriorityPolicy::Rotating,
        }
    }

    /// Overrides the arbiter circuit.
    #[must_use]
    pub fn with_arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Overrides the tie-break priority policy.
    #[must_use]
    pub fn with_priority(mut self, priority: PriorityPolicy) -> Self {
        self.priority = priority;
        self
    }

    /// Derives the allocator configuration from a router configuration.
    ///
    /// # Panics
    ///
    /// Panics if the router configuration is invalid; call
    /// [`RouterConfig::validate`] first.
    #[must_use]
    pub fn from_router(router: &RouterConfig) -> Self {
        let partition = router.partition().expect("router config must be valid");
        AllocatorConfig::new(router.ports(), partition)
    }
}

/// A switch allocator: turns one cycle's [`RequestSet`] into a conflict-free
/// [`GrantSet`]. One variant per scheme, built from the closed
/// [`AllocatorKind`] by [`build_allocator`] and dispatched by `match`.
///
/// Every variant upholds the crossbar invariants checked by
/// [`GrantSet::validate_against`]: one grant per output port, one per input
/// VC, one per virtual-input sub-group.
///
/// A router holds its allocator inline. The variants larger than the
/// separable kernel are boxed, so the enum stays the size of the largest
/// unboxed one and IF, VIX, WF and OF routers need no allocator block of
/// their own.
#[derive(Debug)]
pub enum Allocator {
    /// Input-first separable: IF with one sub-group, VIX with more.
    Separable(SeparableAllocator),
    /// Wavefront: WF, or WF-VIX over sub-groups.
    Wavefront(WavefrontAllocator),
    /// Output-first separable: OF.
    OutputFirst(OutputFirstAllocator),
    /// Augmenting-path maximum matching: AP, and the ideal allocator at
    /// the granularity of one VC per sub-group.
    MaxMatching(Box<MaxMatchingAllocator>),
    /// Packet chaining: PC.
    PacketChaining(Box<PacketChainingAllocator>),
    /// Iterative separable: iSLIP.
    Islip(Box<IslipAllocator>),
}

impl Allocator {
    /// Allocates the switch for one cycle, writing the winning grants into
    /// a caller-owned set.
    ///
    /// `grants` is cleared and refilled, never reallocated once it has
    /// reached its steady-state capacity, and every allocator keeps its
    /// working arrays as owned scratch sized at construction or on first
    /// use. After warmup a call performs **zero** heap allocations
    /// (enforced by the counting-allocator regression test in
    /// `tests/zero_alloc.rs`).
    ///
    /// Grant emission order is part of each allocator's observable
    /// behaviour (downstream consumers hash the trace).
    pub fn allocate_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        match self {
            Allocator::Separable(a) => a.allocate_into(requests, grants),
            Allocator::Wavefront(a) => a.allocate_into(requests, grants),
            Allocator::OutputFirst(a) => a.allocate_into(requests, grants),
            Allocator::MaxMatching(a) => a.allocate_into(requests, grants),
            Allocator::PacketChaining(a) => a.allocate_into(requests, grants),
            Allocator::Islip(a) => a.allocate_into(requests, grants),
        }
    }

    /// [`allocate_into`](Allocator::allocate_into) on a set holding
    /// `request` alone: same grants, state evolution and matching record.
    /// The separable kernel grants it directly; the others build that set
    /// in `scratch` (any set of this shape; its contents are overwritten).
    pub fn allocate_one(
        &mut self,
        request: SwitchRequest,
        scratch: &mut RequestSet,
        grants: &mut GrantSet,
    ) {
        match self {
            Allocator::Separable(a) => a.allocate_one(request, grants),
            other => {
                scratch.clear();
                scratch.push(request);
                other.allocate_into(scratch, grants);
            }
        }
    }

    /// Hook called at the end of every router cycle with the grants that
    /// actually traversed the switch (some grants may be dropped, e.g.
    /// failed speculation). Only packet chaining keeps state from it
    /// ([`reads_traversals`](Allocator::reads_traversals)).
    #[inline]
    pub fn observe_traversals(&mut self, traversed: &GrantSet) {
        if let Allocator::PacketChaining(a) = self {
            a.observe_traversals(traversed);
        }
    }

    /// True when [`observe_traversals`](Allocator::observe_traversals)
    /// reads its argument, so a caller that gets `false` need neither
    /// collect the traversed grants nor make the call.
    #[inline]
    #[must_use]
    pub fn reads_traversals(&self) -> bool {
        matches!(self, Allocator::PacketChaining(_))
    }

    /// Fast-forwards the allocator over `n` cycles in which it would have
    /// been called with an **empty** request set (followed by an empty
    /// [`observe_traversals`](Allocator::observe_traversals)).
    ///
    /// The activity-gated scheduler skips a router's cycle entirely when it
    /// is quiescent; this hook keeps allocators whose internal state
    /// advances even on empty cycles bit-identical with stepping every
    /// cycle. After `note_idle_cycles(n)` the allocator is in exactly the
    /// state `n` empty `allocate_into` + empty `observe_traversals` calls
    /// would have left it in. Allocators whose state only moves on grants
    /// (separable IF/VIX, output-first, iSLIP) do nothing; rotating-offset
    /// allocators (wavefront, augmenting-path) advance their offsets, and
    /// packet chaining drops its held connections.
    #[inline]
    pub fn note_idle_cycles(&mut self, n: u64) {
        match self {
            Allocator::Wavefront(a) => a.note_idle_cycles(n),
            Allocator::MaxMatching(a) => a.note_idle_cycles(n),
            Allocator::PacketChaining(a) => a.note_idle_cycles(n),
            Allocator::Separable(_) | Allocator::OutputFirst(_) | Allocator::Islip(_) => {}
        }
    }

    /// The configuration and matching record of the allocator.
    fn parts(&self) -> (&AllocatorConfig, &MatchingStats) {
        match self {
            Allocator::Separable(a) => (&a.kernel.cfg, &a.kernel.matching),
            Allocator::Wavefront(a) => (&a.cfg, &a.matching),
            Allocator::OutputFirst(a) => (&a.cfg, &a.matching),
            Allocator::MaxMatching(a) => (&a.cfg, &a.match_stats),
            Allocator::PacketChaining(a) => (&a.cfg, &a.matching),
            Allocator::Islip(a) => (&a.cfg, &a.matching),
        }
    }

    /// The VC → virtual-input partition this allocator enforces.
    #[must_use]
    pub fn partition(&self) -> &VixPartition {
        &self.parts().0.partition
    }

    /// Short display name (matches the paper's figure legends).
    #[must_use]
    pub fn name(&self) -> &'static str {
        let partition = self.partition();
        let (groups, vcs) = (partition.groups(), partition.vcs());
        match (self, groups > 1) {
            (Allocator::Separable(_), false) => "IF",
            (Allocator::Separable(_), true) => "VIX",
            (Allocator::Wavefront(_), false) => "WF",
            (Allocator::Wavefront(_), true) => "WF-VIX",
            (Allocator::OutputFirst(_), false) => "OF",
            (Allocator::OutputFirst(_), true) => "OF-VIX",
            (Allocator::MaxMatching(_), _) if groups == vcs => "Ideal",
            (Allocator::MaxMatching(_), false) => "AP",
            (Allocator::MaxMatching(_), true) => "AP-VIX",
            (Allocator::PacketChaining(_), _) => "PC",
            (Allocator::Islip(_), _) => "iSLIP",
        }
    }

    /// Matching-efficiency counters accumulated by every non-empty
    /// [`allocate_into`](Allocator::allocate_into) call — requests
    /// offered, requests surviving input arbitration, grants issued, and
    /// the per-cycle matching bound (the paper's §4 metric).
    ///
    /// Recording is always on and purely observational: it reads the
    /// request and grant sets after the fact, never touches arbiter
    /// state, and skips empty cycles, so a router whose idle cycles are
    /// skipped reports the numbers it would have stepping through them.
    #[must_use]
    pub fn matching_stats(&self) -> &MatchingStats {
        self.parts().1
    }

    /// [`allocate_into`](Allocator::allocate_into) through the scalar
    /// reference kernel — the plain per-VC loops each word-parallel kernel
    /// replaced, kept as the oracle of the in-crate differential suite:
    /// same grants, same emission order, same arbiter state evolution.
    #[cfg(test)]
    pub(crate) fn allocate_scalar_into(&mut self, requests: &RequestSet, grants: &mut GrantSet) {
        grants.clear();
        match self {
            Allocator::Separable(a) => a.allocate_scalar_into(requests, grants),
            Allocator::Wavefront(a) => a.allocate_scalar_into(requests, grants),
            Allocator::OutputFirst(a) => a.allocate_scalar_into(requests, grants),
            Allocator::MaxMatching(a) => a.allocate_scalar_into(requests, grants),
            Allocator::PacketChaining(a) => a.allocate_scalar_into(requests, grants),
            Allocator::Islip(a) => a.allocate_scalar_into(requests, grants),
        }
    }
}

/// The unit tests' shorthand, `allocate(&requests)`: one cycle into a fresh
/// [`GrantSet`], on the enum or on a scheme's own struct.
#[cfg(test)]
macro_rules! allocate_shorthand {
    ($($allocator:ty),*) => {$(
        impl $allocator {
            pub(crate) fn allocate(&mut self, requests: &RequestSet) -> GrantSet {
                let mut grants = GrantSet::new();
                self.allocate_into(requests, &mut grants);
                grants
            }
        }
    )*};
}
#[cfg(test)]
allocate_shorthand!(
    Allocator,
    SeparableAllocator,
    WavefrontAllocator,
    MaxMatchingAllocator,
    IslipAllocator
);

/// Builds the allocator named by `kind` for a router described by `router`.
///
/// For [`AllocatorKind::Vix`] the router's own virtual-input setting
/// determines the partition; for every other kind the partition is forced to
/// the baseline single-group layout, matching the paper's configurations
/// (only VIX routers have virtual inputs). The ideal allocator of Figs. 7
/// and 12 is [`Allocator::MaxMatching`] over
/// [`AllocatorConfig::from_router`].
///
/// # Panics
///
/// Panics if the router configuration is invalid.
#[must_use]
pub fn build_allocator(kind: AllocatorKind, router: &RouterConfig) -> Allocator {
    router.validate().expect("router config must be valid");
    let vcs = router.vcs_per_port();
    let priority =
        if router.age_based_sa { PriorityPolicy::OldestFirst } else { PriorityPolicy::Rotating };
    let baseline =
        AllocatorConfig::new(router.ports(), VixPartition::baseline(vcs)).with_priority(priority);
    let vix_cfg = AllocatorConfig::from_router(router).with_priority(priority);
    match kind {
        AllocatorKind::InputFirst => Allocator::Separable(SeparableAllocator::new(baseline)),
        AllocatorKind::Vix => Allocator::Separable(SeparableAllocator::new(vix_cfg)),
        AllocatorKind::WavefrontVix => Allocator::Wavefront(WavefrontAllocator::new(vix_cfg)),
        AllocatorKind::OutputFirst => Allocator::OutputFirst(OutputFirstAllocator::new(baseline)),
        AllocatorKind::Wavefront => Allocator::Wavefront(WavefrontAllocator::new(baseline)),
        AllocatorKind::AugmentingPath => {
            Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(baseline)))
        }
        AllocatorKind::PacketChaining => {
            Allocator::PacketChaining(Box::new(PacketChainingAllocator::new(baseline)))
        }
        AllocatorKind::Islip(iters) => Allocator::Islip(Box::new(IslipAllocator::new(baseline, iters))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::VirtualInputs;

    #[test]
    fn factory_builds_every_kind() {
        let router = RouterConfig::paper_default(5);
        let vix_router = router.with_virtual_inputs(VirtualInputs::PerPort(2));
        let cases = [
            (AllocatorKind::InputFirst, &router, "IF", 1),
            (AllocatorKind::OutputFirst, &router, "OF", 1),
            (AllocatorKind::Wavefront, &router, "WF", 1),
            (AllocatorKind::AugmentingPath, &router, "AP", 1),
            (AllocatorKind::Vix, &vix_router, "VIX", 2),
            (AllocatorKind::WavefrontVix, &vix_router, "WF-VIX", 2),
            (AllocatorKind::PacketChaining, &router, "PC", 1),
            (AllocatorKind::Islip(2), &router, "iSLIP", 1),
        ];
        for (kind, router, name, groups) in cases {
            let alloc = build_allocator(kind, router);
            let variant_ok = match (kind, &alloc) {
                (AllocatorKind::InputFirst | AllocatorKind::Vix, Allocator::Separable(_))
                | (AllocatorKind::OutputFirst, Allocator::OutputFirst(_))
                | (AllocatorKind::Wavefront | AllocatorKind::WavefrontVix, Allocator::Wavefront(_))
                | (AllocatorKind::AugmentingPath, Allocator::MaxMatching(_))
                | (AllocatorKind::PacketChaining, Allocator::PacketChaining(_)) => true,
                (AllocatorKind::Islip(iters), Allocator::Islip(a)) => a.iterations() == iters,
                _ => false,
            };
            assert!(variant_ok, "{kind:?} built {}", alloc.name());
            assert_eq!(alloc.name(), name, "{kind:?}");
            assert_eq!(alloc.partition().groups(), groups, "{kind:?}");
        }
    }

    #[test]
    fn vix_allocator_inherits_router_partition() {
        let router = RouterConfig::paper_default(5).with_virtual_inputs(VirtualInputs::PerPort(2));
        let alloc = build_allocator(AllocatorKind::Vix, &router);
        assert_eq!(alloc.partition().groups(), 2);
    }

    #[test]
    fn non_vix_allocators_use_baseline_partition() {
        let router = RouterConfig::paper_default(5).with_virtual_inputs(VirtualInputs::PerPort(2));
        let alloc = build_allocator(AllocatorKind::InputFirst, &router);
        assert_eq!(alloc.partition().groups(), 1);
    }

    #[test]
    fn ideal_allocator_matches_at_vc_level() {
        let router = RouterConfig::paper_default(5).with_virtual_inputs(VirtualInputs::Ideal);
        let alloc = Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(
            AllocatorConfig::from_router(&router),
        )));
        assert_eq!(alloc.partition().groups(), 6);
    }

    /// `note_idle_cycles(n)` must be indistinguishable from `n` empty
    /// `allocate_into` + empty `observe_traversals` calls — the contract
    /// the activity-gated scheduler relies on for bit-identical skipping.
    #[test]
    fn note_idle_cycles_matches_empty_allocations() {
        use vix_core::{Grant, PortId, VcId};

        let kinds = [
            AllocatorKind::InputFirst,
            AllocatorKind::OutputFirst,
            AllocatorKind::Wavefront,
            AllocatorKind::AugmentingPath,
            AllocatorKind::Vix,
            AllocatorKind::WavefrontVix,
            AllocatorKind::PacketChaining,
            AllocatorKind::Islip(2),
        ];
        for kind in kinds {
            let mut router = RouterConfig::paper_default(5);
            if matches!(kind, AllocatorKind::Vix | AllocatorKind::WavefrontVix) {
                router = router.with_virtual_inputs(VirtualInputs::PerPort(2));
            }
            let mut stepped = build_allocator(kind, &router);
            let mut skipped = build_allocator(kind, &router);
            let empty = RequestSet::new(5, 6);
            let mut busy = RequestSet::new(5, 6);
            // Dense enough to exercise held chains, rotating offsets, and
            // arbiter pointers before and after each idle gap.
            for p in 0..5 {
                for v in 0..6 {
                    busy.request(PortId(p), VcId(v), PortId((p + v) % 5));
                }
            }
            let mut g = GrantSet::new();
            for idle in [1u64, 3, 7, 23] {
                // Desynchronise any lazily-initialised state, then idle.
                for alloc in [&mut stepped, &mut skipped] {
                    alloc.allocate_into(&busy, &mut g);
                    alloc.observe_traversals(&g);
                }
                for _ in 0..idle {
                    stepped.allocate_into(&empty, &mut g);
                    assert!(g.is_empty(), "{kind:?}: empty requests granted something");
                    stepped.observe_traversals(&g);
                }
                skipped.note_idle_cycles(idle);
                // Both must now produce the same grants on real traffic.
                let mut a = GrantSet::new();
                let mut b = GrantSet::new();
                stepped.allocate_into(&busy, &mut a);
                skipped.allocate_into(&busy, &mut b);
                assert_eq!(
                    a.iter().copied().collect::<Vec<Grant>>(),
                    b.iter().copied().collect::<Vec<Grant>>(),
                    "{kind:?}: {idle} idle cycles diverged from note_idle_cycles"
                );
                stepped.observe_traversals(&a);
                skipped.observe_traversals(&b);
            }
        }
    }
}
