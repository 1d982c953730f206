//! Cycle-accurate virtual-channel router micro-architecture.
//!
//! Implements the paper's optimised 3-stage pipeline (Fig. 6(b)): lookahead
//! routing (performed by the network when it delivers a flit), combined
//! VC-allocation + speculative switch-allocation stage, switch traversal,
//! and link traversal (modelled as channel latency by the network crate).
//! As in that stage, [`Router::step_into`] allocates VCs and posts switch
//! requests in one pass over the occupied VCs.
//!
//! The router is topology-agnostic: the network delivers flits with their
//! output port (`Flit::out_port`) and downstream output port
//! (`Flit::lookahead_port`) already resolved, and a static
//! [`RouterEnv`] carries the per-port dimension table that drives the VIX
//! dimension-aware VC assignment of §2.3.
//!
//! # Example
//!
//! ```
//! use vix_router::{Router, RouterEnv};
//! use vix_core::{AllocatorKind, RouterConfig, Cycle};
//! use vix_alloc::build_allocator;
//!
//! let cfg = RouterConfig::paper_default(5);
//! let alloc = build_allocator(AllocatorKind::InputFirst, &cfg);
//! let env = RouterEnv::new(vec![0, 0, 1, 1, 2], vec![false, false, false, false, true]);
//! let mut router = Router::new(vix_core::RouterId(0), cfg, alloc, env);
//! let out = router.step(Cycle(0));
//! assert!(out.flits.is_empty(), "an idle router moves nothing");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod input;
mod output;
mod pipeline;
mod vc_alloc;

use std::sync::Arc;

pub use input::InputVcs;
pub use output::OutputVcs;
pub use pipeline::{Router, RouterOutput};
pub use vc_alloc::{preferred_group, select_output_vc, VcAllocPolicy};

/// Static per-router environment derived from the topology. Every router
/// of a network has the same one, so a clone shares the tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterEnv {
    /// `dims[p]` — dimension port `p` moves a packet along (0 = X, 1 = Y,
    /// 2 = local). Drives dimension-aware VC assignment.
    pub port_dims: Arc<[usize]>,
    /// `sinks[p]` — true when output port `p` ejects to a terminal
    /// (infinite downstream credit).
    pub sink_ports: Arc<[bool]>,
}

impl RouterEnv {
    /// Creates the environment.
    ///
    /// # Panics
    ///
    /// Panics if the two tables have different lengths.
    #[must_use]
    pub fn new(port_dims: Vec<usize>, sink_ports: Vec<bool>) -> Self {
        assert_eq!(port_dims.len(), sink_ports.len(), "environment tables must align");
        RouterEnv { port_dims: port_dims.into(), sink_ports: sink_ports.into() }
    }

    /// A uniform environment for tests: all ports dimension 0, the last
    /// `locals` ports are sinks.
    #[must_use]
    pub fn uniform(ports: usize, locals: usize) -> Self {
        assert!(locals <= ports, "more local ports than ports");
        let sink_ports = (0..ports).map(|p| p >= ports - locals).collect();
        RouterEnv { port_dims: vec![0; ports].into(), sink_ports }
    }
}
