//! Topology invariants over every legal size up to side 7 (mesh) and side 4
//! (concentrated topologies). The ranges are small enough to enumerate, so
//! each property is an exhaustive loop — no random generator.

use vix_core::{NodeId, PortId};
use vix_topology::{check_topology_invariants, CMesh, FlattenedButterfly, Mesh, Topology};

const MESH_SIDES: std::ops::Range<usize> = 2..8;
const CONCENTRATED_SIDES: std::ops::Range<usize> = 2..5;

/// All three topologies at router-grid side `side`.
fn all_three(side: usize) -> [Box<dyn Topology>; 3] {
    [
        Box::new(Mesh::new(side * side).expect("perfect square")),
        Box::new(CMesh::new(4 * side * side).expect("4 x perfect square")),
        Box::new(FlattenedButterfly::new(4 * side * side).expect("4 x perfect square")),
    ]
}

/// The paper's three 64-terminal topologies.
fn paper_topologies() -> [Box<dyn Topology>; 3] {
    [
        Box::new(Mesh::new(64).expect("valid")),
        Box::new(CMesh::new(64).expect("valid")),
        Box::new(FlattenedButterfly::new(64).expect("valid")),
    ]
}

/// Every legal mesh satisfies the full invariant battery (attachment
/// bijection, link symmetry, minimal deadlock-free routing).
#[test]
fn mesh_invariants_hold_for_any_side() {
    for side in MESH_SIDES {
        check_topology_invariants(&Mesh::new(side * side).expect("perfect square"));
    }
}

/// Same for the concentrated mesh.
#[test]
fn cmesh_invariants_hold_for_any_side() {
    for side in CONCENTRATED_SIDES {
        check_topology_invariants(&CMesh::new(4 * side * side).expect("4 x perfect square"));
    }
}

/// Same for the flattened butterfly.
#[test]
fn fbfly_invariants_hold_for_any_side() {
    for side in CONCENTRATED_SIDES {
        let fbfly = FlattenedButterfly::new(4 * side * side).expect("4 x perfect square");
        check_topology_invariants(&fbfly);
    }
}

/// Dimension-order routing on the mesh produces no 180-degree turns: a
/// packet never leaves through the port it arrived on.
#[test]
fn mesh_routing_never_reverses() {
    for side in MESH_SIDES {
        let mesh = Mesh::new(side * side).expect("perfect square");
        for src in (0..mesh.nodes()).map(NodeId) {
            for dest in (0..mesh.nodes()).map(NodeId) {
                let mut at = mesh.router_of(src);
                let mut arrived_from: Option<PortId> = None;
                loop {
                    let out = mesh.route(at, dest);
                    assert_ne!(Some(out), arrived_from, "180-degree turn at {at}, {src}→{dest}");
                    if mesh.is_local_port(out) {
                        break;
                    }
                    let (next, in_port) = mesh.neighbor(at, out).expect("connected");
                    arrived_from = Some(in_port);
                    at = next;
                }
            }
        }
    }
}

/// The flattened butterfly's diameter really is two router-router hops.
#[test]
fn fbfly_routes_within_two_hops() {
    for side in CONCENTRATED_SIDES {
        let fbfly = FlattenedButterfly::new(4 * side * side).expect("valid");
        for src in (0..fbfly.nodes()).map(NodeId) {
            for dest in (0..fbfly.nodes()).map(NodeId) {
                let mut at = fbfly.router_of(src);
                let mut hops = 0;
                loop {
                    let out = fbfly.route(at, dest);
                    if fbfly.is_local_port(out) {
                        break;
                    }
                    hops += 1;
                    assert!(hops <= 2, "fbfly exceeded its diameter, {src}→{dest}");
                    at = fbfly.neighbor(at, out).expect("connected").0;
                }
            }
        }
    }
}

/// Port dimensions partition every router's ports into X, Y, local.
#[test]
fn port_dimensions_are_total() {
    for side in CONCENTRATED_SIDES {
        for t in &all_three(side) {
            for p in (0..t.radix()).map(PortId) {
                let dim = t.port_dimension(p);
                assert!(dim <= 2, "dimension out of range");
                assert_eq!(dim == 2, t.is_local_port(p), "local ports are dimension 2");
            }
            // Every router has at least one port per dimension class.
            for want in 0..3 {
                assert!(
                    (0..t.radix()).any(|p| t.port_dimension(PortId(p)) == want),
                    "{:?} lacks dimension {want} ports",
                    t.kind()
                );
            }
        }
    }
}

/// min_hops is symmetric on all three 64-terminal topologies.
#[test]
fn min_hops_is_symmetric() {
    for t in &paper_topologies() {
        for a in (0..64).map(NodeId) {
            for b in (0..64).map(NodeId) {
                assert_eq!(t.min_hops(a, b), t.min_hops(b, a));
            }
        }
    }
}

/// Every router hosts at least one terminal.
#[test]
fn router_of_is_surjective_onto_routers() {
    for t in &paper_topologies() {
        let mut seen = vec![false; t.routers()];
        for n in (0..t.nodes()).map(NodeId) {
            seen[t.router_of(n).0] = true;
        }
        assert!(seen.iter().all(|&s| s), "{:?}: some router hosts no terminal", t.kind());
    }
}
