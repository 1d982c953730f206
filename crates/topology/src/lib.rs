//! Network topologies for the VIX simulator.
//!
//! Implements the three 64-terminal topologies of the paper (§3, Table 1)
//! as two types:
//!
//! * [`Mesh`] — a router grid with nearest-neighbour links and `c`
//!   terminals per router: [`Mesh::new`] is the 8×8 mesh (`c = 1`, radix-5
//!   routers), [`CMesh::new`] the 4×4 concentrated mesh (`c = 4`, radix-8);
//! * [`FlattenedButterfly`] — 4×4 router array with full row/column
//!   connectivity, 4 terminals per router, radix-10. Its links, routes,
//!   port dimensions and hop counts all differ from the grid's, so it is
//!   its own implementation.
//!
//! All three use deterministic dimension-order routing, exposed through the
//! [`Topology`] trait in *lookahead* style: [`Topology::route`] computes
//! the output port a packet needs at any router, so routers can compute the
//! downstream port one hop ahead (Fig. 6(b) of the paper).
//!
//! # Example
//!
//! ```
//! use vix_topology::{build_topology, Topology};
//! use vix_core::{NodeId, TopologyKind};
//!
//! let mesh = build_topology(TopologyKind::Mesh, 64)?;
//! assert_eq!(mesh.radix(), 5);
//! assert_eq!(mesh.routers(), 64);
//! // Route from the router of node 0 toward node 63: X-first goes East.
//! let at = mesh.router_of(NodeId(0));
//! let port = mesh.route(at, NodeId(63));
//! assert!(!mesh.is_local_port(port));
//! # Ok::<(), vix_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fbfly;
pub mod mesh;

pub use fbfly::FlattenedButterfly;
pub use mesh::{CMesh, Mesh};

use vix_core::{ConfigError, NodeId, PortId, RouterId, TopologyKind};

/// A direct network topology with dimension-order routing.
///
/// Port layout convention: the *directional* (router-to-router) ports come
/// first, the *local* (terminal) ports last, so
/// `is_local_port(p) ⇔ p.0 >= radix() - concentration()`.
///
/// Topologies are immutable routing tables, so the trait requires
/// `Send + Sync`: the sharded simulation engine (`vix-sim`, DESIGN.md §8)
/// shares one topology by reference across its worker threads.
pub trait Topology: std::fmt::Debug + Send + Sync {
    /// Which of the paper's topologies this is.
    fn kind(&self) -> TopologyKind;

    /// Number of terminals.
    fn nodes(&self) -> usize;

    /// Number of routers.
    fn routers(&self) -> usize;

    /// Ports per router (Table 1's "Radix").
    fn radix(&self) -> usize;

    /// Terminals attached to each router.
    fn concentration(&self) -> usize;

    /// The router a terminal is attached to.
    fn router_of(&self, node: NodeId) -> RouterId;

    /// The local port connecting `node` to its router.
    fn local_port_of(&self, node: NodeId) -> PortId;

    /// The terminal behind a local port, or `None` for directional ports.
    fn node_at(&self, router: RouterId, port: PortId) -> Option<NodeId>;

    /// The `(downstream router, downstream input port)` a directional
    /// output port connects to, or `None` for local ports.
    fn neighbor(&self, router: RouterId, port: PortId) -> Option<(RouterId, PortId)>;

    /// Deterministic route: the output port a packet for `dest` takes at
    /// router `at` (dimension-order; minimal for the flattened butterfly).
    fn route(&self, at: RouterId, dest: NodeId) -> PortId;

    /// True for terminal (injection/ejection) ports.
    fn is_local_port(&self, port: PortId) -> bool {
        port.0 >= self.radix() - self.concentration()
    }

    /// Dimension a port moves a packet along: 0 = X, 1 = Y, 2 = local.
    /// Drives the dimension-aware VC sub-group assignment of §2.3.
    fn port_dimension(&self, port: PortId) -> usize;

    /// Minimal hop count (router-to-router traversals) between terminals,
    /// counting the ejection hop; used for zero-load latency checks.
    fn min_hops(&self, src: NodeId, dest: NodeId) -> usize;
}

/// Builds one of the paper's topologies for `nodes` terminals.
///
/// # Errors
///
/// Returns [`ConfigError::BadNodeCount`] when the node count does not fit
/// the topology (mesh needs a perfect square; concentrated topologies need
/// `4 × perfect square`).
pub fn build_topology(kind: TopologyKind, nodes: usize) -> Result<Box<dyn Topology>, ConfigError> {
    Ok(match kind {
        TopologyKind::Mesh => Box::new(Mesh::new(nodes)?),
        TopologyKind::CMesh => Box::new(CMesh::new(nodes)?),
        TopologyKind::FlattenedButterfly => Box::new(FlattenedButterfly::new(nodes)?),
    })
}

/// Checks the structural invariants every topology must satisfy; used by
/// unit and property tests of all three implementations.
///
/// # Panics
///
/// Panics (with a descriptive message) on the first violated invariant.
pub fn check_topology_invariants(t: &dyn Topology) {
    // Terminal attachment is a bijection node ↔ (router, local port).
    for n in (0..t.nodes()).map(NodeId) {
        let r = t.router_of(n);
        let p = t.local_port_of(n);
        assert!(t.is_local_port(p), "local port of {n} is not local");
        assert_eq!(t.node_at(r, p), Some(n), "node_at(router_of, local_port_of) must invert");
    }
    // Directional links are symmetric: following a link and routing back
    // lands on the origin.
    for r in (0..t.routers()).map(RouterId) {
        for p in (0..t.radix()).map(PortId) {
            if t.is_local_port(p) {
                assert!(t.neighbor(r, p).is_none(), "local port {p} must not have a neighbor");
                continue;
            }
            let Some((nr, np)) = t.neighbor(r, p) else {
                // Edge routers legitimately have unconnected ports (mesh).
                continue;
            };
            assert!(!t.is_local_port(np), "link lands on a local port");
            let (back_r, _) = t.neighbor(nr, output_toward(t, nr, r)).expect("reverse link");
            assert_eq!(back_r, r, "links must be bidirectional");
        }
    }
    // Dimension-order routing delivers every (src, dest) pair within the
    // minimal hop count.
    for src in (0..t.nodes()).map(NodeId) {
        for dest in (0..t.nodes()).map(NodeId) {
            let mut at = t.router_of(src);
            let mut hops = 0;
            loop {
                let out = t.route(at, dest);
                hops += 1;
                if t.is_local_port(out) {
                    assert_eq!(t.node_at(at, out), Some(dest), "routed to the wrong terminal");
                    break;
                }
                let (next, _) = t.neighbor(at, out).expect("route used an unconnected port");
                at = next;
                assert!(hops <= t.routers() + 1, "routing loop from {src} to {dest}");
            }
            assert_eq!(hops, t.min_hops(src, dest), "route not minimal for {src}→{dest}");
        }
    }
}

/// The output port at `from` whose link reaches `to` (helper for the
/// invariant checker; panics if they are not neighbours).
fn output_toward(t: &dyn Topology, from: RouterId, to: RouterId) -> PortId {
    (0..t.radix())
        .map(PortId)
        .find(|&p| t.neighbor(from, p).is_some_and(|(r, _)| r == to))
        .expect("routers are not adjacent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_three_paper_topologies() {
        for kind in [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
            let t = build_topology(kind, 64).unwrap();
            assert_eq!(t.nodes(), 64);
            assert_eq!(t.radix(), kind.radix_64(), "radix must match Table 1");
            assert_eq!(t.concentration(), kind.concentration());
        }
    }

    #[test]
    fn bad_node_counts_rejected() {
        assert!(build_topology(TopologyKind::Mesh, 63).is_err());
        assert!(build_topology(TopologyKind::CMesh, 63).is_err());
        assert!(build_topology(TopologyKind::FlattenedButterfly, 50).is_err());
    }

    #[test]
    fn invariants_hold_for_all_paper_topologies() {
        for kind in [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
            let t = build_topology(kind, 64).unwrap();
            check_topology_invariants(t.as_ref());
        }
    }

    #[test]
    fn invariants_hold_for_small_instances() {
        check_topology_invariants(&Mesh::new(16).unwrap());
        check_topology_invariants(&CMesh::new(16).unwrap());
        check_topology_invariants(&FlattenedButterfly::new(16).unwrap());
    }
}
