//! Cycle-accurate network-on-chip simulator.
//!
//! Assembles [`vix_router`] routers over a [`vix_topology`] topology with
//! credit-based wormhole flow control, drives them with [`vix_traffic`]
//! workloads, and measures the statistics the paper reports: average packet
//! latency, accepted throughput, and per-node fairness (§3, §4).
//!
//! Two harnesses:
//!
//! * [`NetworkSim`] — the full 64-node network simulation (Figs. 8–12);
//! * [`SingleRouterHarness`] — the isolated single-router allocation
//!   efficiency study (Fig. 7).
//!
//! Sweeps over offered load ([`LoadSweep`]) execute their points across
//! a worker pool — see [`runner`] for the parallel execution engine and
//! its determinism guarantees. A *single* large run can additionally be
//! cut into slices stepped on their own threads with
//! [`SimConfig::shards`] — see [`shard`] for the cycle protocol and its
//! parallel driver (bit-identical for every shard count).
//!
//! [`SimConfig::shards`]: vix_core::SimConfig::shards
//!
//! # Example
//!
//! ```
//! use vix_sim::NetworkSim;
//! use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
//!
//! let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
//! let cfg = SimConfig::new(net, 0.02).with_windows(200, 1000, 400);
//! let stats = NetworkSim::build(cfg)?.run();
//! assert!(stats.accepted_flits_per_node_cycle() > 0.0);
//! # Ok::<(), vix_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod barrier;
mod channel;
mod cycle;
mod network;
pub mod runner;
pub mod shard;
mod single_router;
mod source;
mod stats;
mod sweep;

pub use barrier::{BarrierPoisoned, SpinBarrier, SpinWaiter};
pub use channel::Pipe;
pub use network::{EjectedPacket, NetworkSim};
pub use runner::{derive_seed, parallel_map, resolve_jobs};
pub use single_router::{SingleRouterHarness, SingleRouterResult};
pub use source::SourceQueue;
pub use stats::NetworkStats;
pub use sweep::{LoadSweep, SweepPoint};

/// Inter-router flit latency in cycles. Switch allocation and traversal
/// are evaluated in one simulator step, so a grant at cycle `t` buffers the
/// flit downstream at `t + FLIT_LATENCY`; the value 3 reproduces the
/// 3-stage pipeline of Fig. 6(b) (VA/SA, ST, LT → next allocation 3 cycles
/// later).
pub const FLIT_LATENCY: u64 = 3;

/// Credit return latency in cycles (ST stage + credit wire).
pub const CREDIT_LATENCY: u64 = 2;
