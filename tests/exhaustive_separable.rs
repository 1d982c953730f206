//! Exhaustive small-scope check of the allocators: instead of sampling
//! request sets, enumerate every one a small router can see.
//!
//! A 3-port × 2-VC router where each VC requests nothing or one of the 3
//! outputs has 4⁶ = 4 096 request sets. Each is offered twice — all
//! requests non-speculative, then all speculative — to one allocator per
//! kind fed the whole sequence, so its arbiter pointers and rotating
//! offsets move between sets. On every set the grants must be valid, and:
//!
//! * IF and VIX with k = 2: every output that some virtual input's champion
//!   targets receives exactly one grant, to one of those champions. The
//!   champions come from a model of stage 1 that shares no code with the
//!   allocator: a round-robin pointer per virtual input over its
//!   sub-group's VCs, advanced past the champion only when the champion is
//!   granted.
//! * AP grants as many as a brute-force maximum port-level matching, and
//!   the ideal allocator as many as a brute-force maximum VC-level one.
//! * Wavefront's matching is maximal: no request has both its input port
//!   and its output unmatched.

use vix::alloc::{
    Allocator, AllocatorConfig, MaxMatchingAllocator, SeparableAllocator, WavefrontAllocator,
};
use vix::core::{GrantSet, PortId, RequestSet, SwitchRequest, VcId, VixPartition};
use vix::{RouterConfig, VirtualInputs};

const PORTS: usize = 3;
const VCS: usize = 2;
/// Every request set: one base-4 digit per (port, VC), 0 for no request,
/// else the requested output + 1.
const SETS: usize = 4usize.pow((PORTS * VCS) as u32);

fn request_set(code: usize, speculative: bool) -> RequestSet {
    let mut set = RequestSet::new(PORTS, VCS);
    for cell in 0..PORTS * VCS {
        let digit = code / 4usize.pow(cell as u32) % 4;
        if digit > 0 {
            set.push(SwitchRequest {
                port: PortId(cell / VCS),
                vc: VcId(cell % VCS),
                out_port: PortId(digit - 1),
                speculative,
                age: 0,
            });
        }
    }
    set
}

/// Stage 1 of a separable allocator with grant-aware round-robin input
/// arbiters, written from the definition.
struct ChampionModel {
    group_size: usize,
    /// Per virtual input (port-major), the highest-priority local VC.
    pointer: Vec<usize>,
}

impl ChampionModel {
    fn new(partition: &VixPartition) -> Self {
        let pointer = vec![0; PORTS * partition.groups()];
        ChampionModel { group_size: partition.group_size(), pointer }
    }

    /// `(port, vc, output)` of every virtual input's champion.
    fn champions(&self, set: &RequestSet) -> Vec<(PortId, VcId, PortId)> {
        let mut champions = Vec::new();
        for (vi, &pointer) in self.pointer.iter().enumerate() {
            // Flat `port * VCS + vc` index of the sub-group's first VC.
            let first = vi * self.group_size;
            let port = PortId(first / VCS);
            champions.extend(
                (0..self.group_size)
                    .map(|i| VcId(first % VCS + (pointer + i) % self.group_size))
                    .find_map(|vc| set.get(port, vc).map(|r| (port, vc, r.out_port))),
            );
        }
        champions
    }

    /// Moves each granted champion's pointer one past it.
    fn commit(&mut self, grants: &GrantSet) {
        for g in grants.iter() {
            let vi = (g.port.0 * VCS + g.vc.0) / self.group_size;
            self.pointer[vi] = (g.vc.0 % self.group_size + 1) % self.group_size;
        }
    }
}

#[test]
fn separable_allocators_serve_every_championed_output_on_every_3x2_request_set() {
    let partitions =
        [("IF", VixPartition::baseline(VCS)), ("VIX-2", VixPartition::even(VCS, 2).unwrap())];
    for (name, partition) in partitions {
        let mut alloc = SeparableAllocator::new(AllocatorConfig::new(PORTS, partition));
        let mut model = ChampionModel::new(&partition);
        let mut grants = GrantSet::new();
        for code in 0..SETS {
            for speculative in [false, true] {
                let set = request_set(code, speculative);
                let ctx = format!("{name}, set {code:#06x}, speculative {speculative}");
                alloc.allocate_into(&set, &mut grants);
                grants.validate_against(&set, &partition).unwrap_or_else(|v| panic!("{ctx}: {v}"));
                let champions = model.champions(&set);
                for out in (0..PORTS).map(PortId) {
                    let wanted: Vec<_> = champions.iter().filter(|c| c.2 == out).collect();
                    let served: Vec<_> = grants.iter().filter(|g| g.out_port == out).collect();
                    let ok = match served[..] {
                        [] => wanted.is_empty(),
                        [g] => wanted.iter().any(|c| (c.0, c.1) == (g.port, g.vc)),
                        _ => false,
                    };
                    assert!(ok, "{ctx}: output {out}: champions {wanted:?}, grants {served:?}");
                }
                model.commit(&grants);
            }
        }
    }
}

/// Every request set, in both speculation classes, through `alloc`, with
/// each set's grants validated against `partition` and handed to `check`
/// with a context string for its failure messages.
fn for_every_set(
    alloc: &mut Allocator,
    partition: &VixPartition,
    mut check: impl FnMut(&RequestSet, &GrantSet, &str),
) {
    let mut grants = GrantSet::new();
    for code in 0..SETS {
        for speculative in [false, true] {
            let set = request_set(code, speculative);
            let ctx = format!("{}, set {code:#06x}, speculative {speculative}", alloc.name());
            alloc.allocate_into(&set, &mut grants);
            grants.validate_against(&set, partition).unwrap_or_else(|v| panic!("{ctx}: {v}"));
            check(&set, &grants, &ctx);
        }
    }
}

/// Size of a maximum matching between left vertices, each given as the bit
/// mask of the outputs it may take, and the outputs not in `taken` — by
/// trying every assignment.
fn max_matching(left: &[u32], taken: u32) -> usize {
    let Some((&first, rest)) = left.split_first() else { return 0 };
    (0..PORTS)
        .filter(|&o| first >> o & 1 == 1 && taken >> o & 1 == 0)
        .map(|o| 1 + max_matching(rest, taken | 1 << o))
        .fold(max_matching(rest, taken), usize::max)
}

/// The output each `(port, VC)` requests as a one-bit mask (0 for none),
/// in `port * VCS + vc` order.
fn vc_masks(set: &RequestSet) -> Vec<u32> {
    (0..PORTS * VCS)
        .map(|cell| set.get(PortId(cell / VCS), VcId(cell % VCS)).map_or(0, |r| 1 << r.out_port.0))
        .collect()
}

#[test]
fn augmenting_path_grants_a_maximum_port_matching_on_every_3x2_request_set() {
    let partition = VixPartition::baseline(VCS);
    let ap = MaxMatchingAllocator::new(AllocatorConfig::new(PORTS, partition));
    let mut ap = Allocator::MaxMatching(Box::new(ap));
    for_every_set(&mut ap, &partition, |set, grants, ctx| {
        // A port may take any output one of its VCs requests.
        let ports: Vec<u32> = vc_masks(set).chunks(VCS).map(|vcs| vcs.iter().fold(0, |m, v| m | v)).collect();
        assert_eq!(grants.len(), max_matching(&ports, 0), "{ctx}");
    });
}

#[test]
fn ideal_allocator_grants_a_maximum_vc_matching_on_every_3x2_request_set() {
    let router = RouterConfig::new(PORTS, VCS, 5).with_virtual_inputs(VirtualInputs::Ideal);
    let partition = router.partition().expect("valid router");
    let ideal = MaxMatchingAllocator::new(AllocatorConfig::from_router(&router));
    let mut ideal = Allocator::MaxMatching(Box::new(ideal));
    for_every_set(&mut ideal, &partition, |set, grants, ctx| {
        assert_eq!(grants.len(), max_matching(&vc_masks(set), 0), "{ctx}");
    });
}

#[test]
fn wavefront_matching_is_maximal_on_every_3x2_request_set() {
    let partition = VixPartition::baseline(VCS);
    let mut wf = Allocator::Wavefront(WavefrontAllocator::new(AllocatorConfig::new(PORTS, partition)));
    for_every_set(&mut wf, &partition, |set, grants, ctx| {
        for r in set.active_requests() {
            let input_free = grants.count_for_input(r.port) == 0;
            let output_free = grants.for_output(r.out_port).is_none();
            let unmatched = format!("{}:{} -> {}", r.port, r.vc, r.out_port);
            assert!(!(input_free && output_free), "{ctx}: {unmatched} left with both ends free");
        }
    });
}
