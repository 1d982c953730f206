//! 2-D mesh and concentrated mesh (Balfour & Dally, ICS 2006): one router
//! grid, differing only in how many terminals hang off each router.

use crate::Topology;
use vix_core::{ConfigError, NodeId, PortId, RouterId, TopologyKind};

/// Port indices of a mesh router. Directional ports first, local last,
/// matching the [`Topology`] convention.
pub mod port {
    use vix_core::PortId;

    /// Toward increasing X.
    pub const EAST: PortId = PortId(0);
    /// Toward decreasing X.
    pub const WEST: PortId = PortId(1);
    /// Toward increasing Y.
    pub const NORTH: PortId = PortId(2);
    /// Toward decreasing Y.
    pub const SOUTH: PortId = PortId(3);
    /// First terminal port (the only one on a plain mesh).
    pub const LOCAL: PortId = PortId(4);
}

/// Directional ports before the local ports.
const DIRS: usize = 4;

/// A `k × k` router grid with `c` terminals per router (radix `4 + c`).
///
/// [`Mesh::new`] builds the plain mesh (`c = 1`, radix-5 routers),
/// [`CMesh::new`] the concentrated mesh (`c = 4`, radix 8 — Table 1 of the
/// paper). Terminal `n` attaches to router `n / c` through local port
/// `4 + n % c`; router `r` sits at `(r % k, r / k)`. Routing is
/// deterministic X-then-Y dimension order (deadlock-free without VC
/// restrictions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    k: usize,
    /// log₂ `c`: both concentrations are powers of two, so attaching a
    /// terminal is a shift and a mask where `route` would otherwise divide.
    shift: u32,
}

/// The concentrated mesh: not a type of its own but the constructor of a
/// [`Mesh`] with four terminals per router.
#[derive(Debug, Clone, Copy)]
pub struct CMesh;

impl CMesh {
    /// Creates a concentrated mesh for `nodes` terminals.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadNodeCount`] unless `nodes` is 4 × a
    /// perfect square of side ≥ 2.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(nodes: usize) -> Result<Mesh, ConfigError> {
        Mesh::grid(nodes, 2, "concentrated mesh requires 4 x a perfect square >= 4")
    }
}

impl Mesh {
    /// Creates a mesh for `nodes` terminals, one per router.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadNodeCount`] unless `nodes` is a perfect
    /// square of side ≥ 2.
    pub fn new(nodes: usize) -> Result<Self, ConfigError> {
        Mesh::grid(nodes, 0, "mesh requires a perfect square >= 4")
    }

    fn grid(nodes: usize, shift: u32, requirement: &'static str) -> Result<Self, ConfigError> {
        let k = ((nodes >> shift) as f64).sqrt().round() as usize;
        if k < 2 || (k * k) << shift != nodes {
            return Err(ConfigError::BadNodeCount { nodes, requirement });
        }
        Ok(Mesh { k, shift })
    }

    /// Side length of the router grid.
    #[must_use]
    pub fn side(&self) -> usize {
        self.k
    }

    fn coords(&self, r: RouterId) -> (usize, usize) {
        (r.0 % self.k, r.0 / self.k)
    }

    fn router_at(&self, x: usize, y: usize) -> RouterId {
        RouterId(y * self.k + x)
    }
}

impl Topology for Mesh {
    fn kind(&self) -> TopologyKind {
        if self.shift == 0 {
            TopologyKind::Mesh
        } else {
            TopologyKind::CMesh
        }
    }

    fn nodes(&self) -> usize {
        (self.k * self.k) << self.shift
    }

    fn routers(&self) -> usize {
        self.k * self.k
    }

    fn radix(&self) -> usize {
        DIRS + self.concentration()
    }

    fn concentration(&self) -> usize {
        1 << self.shift
    }

    fn router_of(&self, node: NodeId) -> RouterId {
        assert!(node.0 < self.nodes(), "node {node} out of range");
        RouterId(node.0 >> self.shift)
    }

    fn local_port_of(&self, node: NodeId) -> PortId {
        assert!(node.0 < self.nodes(), "node {node} out of range");
        PortId(DIRS + (node.0 & (self.concentration() - 1)))
    }

    fn node_at(&self, router: RouterId, p: PortId) -> Option<NodeId> {
        (p.0 >= DIRS && p.0 < self.radix())
            .then(|| NodeId((router.0 << self.shift) + (p.0 - DIRS)))
    }

    fn neighbor(&self, router: RouterId, p: PortId) -> Option<(RouterId, PortId)> {
        let (x, y) = self.coords(router);
        match p {
            port::EAST if x + 1 < self.k => Some((self.router_at(x + 1, y), port::WEST)),
            port::WEST if x > 0 => Some((self.router_at(x - 1, y), port::EAST)),
            port::NORTH if y + 1 < self.k => Some((self.router_at(x, y + 1), port::SOUTH)),
            port::SOUTH if y > 0 => Some((self.router_at(x, y - 1), port::NORTH)),
            _ => None,
        }
    }

    fn route(&self, at: RouterId, dest: NodeId) -> PortId {
        let (x, y) = self.coords(at);
        let (dx, dy) = self.coords(self.router_of(dest));
        if x < dx {
            port::EAST
        } else if x > dx {
            port::WEST
        } else if y < dy {
            port::NORTH
        } else if y > dy {
            port::SOUTH
        } else {
            self.local_port_of(dest)
        }
    }

    fn port_dimension(&self, p: PortId) -> usize {
        match p {
            port::EAST | port::WEST => 0,
            port::NORTH | port::SOUTH => 1,
            _ => 2,
        }
    }

    fn min_hops(&self, src: NodeId, dest: NodeId) -> usize {
        let (sx, sy) = self.coords(self.router_of(src));
        let (dx, dy) = self.coords(self.router_of(dest));
        sx.abs_diff(dx) + sy.abs_diff(dy) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_by_eight_matches_paper() {
        let m = Mesh::new(64).unwrap();
        assert_eq!(m.kind(), TopologyKind::Mesh);
        assert_eq!(m.side(), 8);
        assert_eq!(m.routers(), 64);
        assert_eq!(m.radix(), 5);
    }

    #[test]
    fn xy_routing_corrects_x_first() {
        let m = Mesh::new(64).unwrap();
        // From (0,0) to node 63 at (7,7): go East until x = 7.
        assert_eq!(m.route(RouterId(0), NodeId(63)), port::EAST);
        // From (7,0) to (7,7): go North.
        assert_eq!(m.route(RouterId(7), NodeId(63)), port::NORTH);
        // At destination router: eject.
        assert_eq!(m.route(RouterId(63), NodeId(63)), port::LOCAL);
    }

    #[test]
    fn edges_have_no_neighbors_outward() {
        let m = Mesh::new(16).unwrap();
        assert!(m.neighbor(RouterId(0), port::WEST).is_none());
        assert!(m.neighbor(RouterId(0), port::SOUTH).is_none());
        assert!(m.neighbor(RouterId(15), port::EAST).is_none());
        assert!(m.neighbor(RouterId(15), port::NORTH).is_none());
    }

    #[test]
    fn links_are_symmetric() {
        let m = Mesh::new(16).unwrap();
        let (r, p) = m.neighbor(RouterId(5), port::EAST).unwrap();
        assert_eq!(r, RouterId(6));
        assert_eq!(p, port::WEST);
        assert_eq!(m.neighbor(r, port::WEST).unwrap().0, RouterId(5));
    }

    #[test]
    fn min_hops_is_manhattan_plus_ejection() {
        let m = Mesh::new(64).unwrap();
        assert_eq!(m.min_hops(NodeId(0), NodeId(0)), 1);
        assert_eq!(m.min_hops(NodeId(0), NodeId(7)), 8);
        assert_eq!(m.min_hops(NodeId(0), NodeId(63)), 15);
    }

    #[test]
    fn port_dimensions_follow_axes() {
        let m = Mesh::new(16).unwrap();
        assert_eq!(m.port_dimension(port::EAST), 0);
        assert_eq!(m.port_dimension(port::WEST), 0);
        assert_eq!(m.port_dimension(port::NORTH), 1);
        assert_eq!(m.port_dimension(port::SOUTH), 1);
        assert_eq!(m.port_dimension(port::LOCAL), 2);
    }

    #[test]
    fn rejects_non_square_node_counts() {
        assert!(Mesh::new(60).is_err());
        assert!(Mesh::new(1).is_err());
        assert!(Mesh::new(0).is_err());
    }

    #[test]
    fn cmesh_sixty_four_terminals_matches_paper() {
        let c = CMesh::new(64).unwrap();
        assert_eq!(c.kind(), TopologyKind::CMesh);
        assert_eq!(c.side(), 4);
        assert_eq!(c.routers(), 16);
        assert_eq!(c.radix(), 8, "Table 1: CMesh radix 8");
    }

    #[test]
    fn cmesh_four_terminals_share_a_router() {
        let c = CMesh::new(64).unwrap();
        for n in 0..4 {
            assert_eq!(c.router_of(NodeId(n)), RouterId(0));
        }
        assert_eq!(c.router_of(NodeId(4)), RouterId(1));
        assert_eq!(c.local_port_of(NodeId(0)), PortId(4));
        assert_eq!(c.local_port_of(NodeId(3)), PortId(7));
    }

    #[test]
    fn cmesh_node_at_inverts_attachment() {
        let c = CMesh::new(64).unwrap();
        for n in (0..64).map(NodeId) {
            assert_eq!(c.node_at(c.router_of(n), c.local_port_of(n)), Some(n));
        }
        assert_eq!(c.node_at(RouterId(0), port::EAST), None);
    }

    #[test]
    fn cmesh_routing_to_sibling_terminal_is_one_hop() {
        let c = CMesh::new(64).unwrap();
        // Nodes 0 and 3 share router 0: direct ejection.
        assert_eq!(c.route(RouterId(0), NodeId(3)), PortId(7));
        assert_eq!(c.min_hops(NodeId(0), NodeId(3)), 1);
    }

    #[test]
    fn cmesh_xy_routing_across_grid() {
        let c = CMesh::new(64).unwrap();
        // Node 63 lives at router 15 = (3,3); from router 0 go East first.
        assert_eq!(c.route(RouterId(0), NodeId(63)), port::EAST);
        assert_eq!(c.route(RouterId(3), NodeId(63)), port::NORTH);
        assert_eq!(c.min_hops(NodeId(0), NodeId(63)), 7);
    }

    #[test]
    fn cmesh_rejects_bad_counts() {
        assert!(CMesh::new(63).is_err());
        assert!(CMesh::new(8).is_err()); // 2 routers: not a square grid
        assert!(CMesh::new(4).is_err()); // single router
    }
}
