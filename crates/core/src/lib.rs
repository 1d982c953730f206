//! Core vocabulary for the VIX network-on-chip simulator.
//!
//! This crate defines the types shared by every other crate in the
//! workspace: identifier newtypes ([`ids`]), flits and packets ([`flit`]),
//! router/network/simulation configuration ([`config`]), the switch
//! allocation request/grant vocabulary ([`request`]), the VIX virtual-input
//! partition ([`vix`]), activity counters consumed by the energy model
//! ([`activity`]), and error types ([`error`]).
//!
//! A [`RequestSet`] holds one cycle's switch requests as what a request is:
//! per-port active and speculative VC masks plus each VC's requested
//! output (and its age, on a set built with ages); each allocator gathers
//! the request rows it arbitrates over from it.
//!
//! The crate is dependency-free so that leaf crates (delay and power models,
//! arbiters) can consume it without pulling in the simulator.
//!
//! # Example
//!
//! ```
//! use vix_core::config::{RouterConfig, VirtualInputs};
//! use vix_core::request::RequestSet;
//! use vix_core::ids::PortId;
//!
//! let cfg = RouterConfig::new(5, 6, 5).with_virtual_inputs(VirtualInputs::PerPort(2));
//! let mut reqs = RequestSet::new(cfg.ports(), cfg.vcs_per_port());
//! reqs.request(PortId(0), vix_core::ids::VcId(2), PortId(4));
//! assert_eq!(reqs.active_requests().count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod bits;
pub mod config;
pub mod error;
pub mod flit;
pub mod ids;
pub mod request;
pub mod vix;

pub use activity::ActivityCounters;
pub use config::{AllocatorKind, NetworkConfig, PipelineKind, RouterConfig, SimConfig, TelemetrySettings, TopologyKind, VirtualInputs};
pub use error::ConfigError;
pub use flit::{Flit, FlitKind, PacketDescriptor};
pub use ids::{Cycle, NodeId, PacketId, PortId, RouterId, VcId, VirtualInputId};
pub use request::{Grant, GrantSet, RequestSet, SwitchRequest};
pub use vix::VixPartition;
