//! # VIX — Virtual Input Crossbars for Efficient Switch Allocation
//!
//! A from-scratch, cycle-accurate network-on-chip simulation stack
//! reproducing *VIX: Virtual Input Crossbar for Efficient Switch
//! Allocation* (Rao et al., DAC 2014).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — flits, packets, configs, request/grant sets,
//!   the VC → virtual-input partition.
//! * [`arbiter`] — round-robin / matrix arbiters.
//! * [`alloc`] — switch allocators: input-first separable,
//!   VIX, wavefront, augmented-path maximum matching, packet chaining,
//!   iSLIP, and the ideal VC-level matcher.
//! * [`topology`] — mesh, concentrated mesh, flattened
//!   butterfly with lookahead dimension-order routing.
//! * [`router`] — the 3-stage speculative VC router
//!   micro-architecture with credit-based wormhole flow control.
//! * [`sim`] — the network simulator, statistics, and the
//!   single-router allocation-efficiency harness.
//! * [`telemetry`] — flit-lifecycle tracing (JSONL + Chrome
//!   trace-event exporters), the zero-overhead metrics registry, and the
//!   allocator matching-efficiency record.
//! * [`traffic`] — synthetic traffic patterns.
//! * [`delay`] — 45 nm-calibrated analytical circuit delay
//!   models (Tables 1 and 3 of the paper).
//! * [`power`] — the event-energy model (Fig. 11).
//! * [`manycore`] — the trace-driven 64-core CMP substrate
//!   (Table 4).
//!
//! # Quickstart
//!
//! ```
//! use vix::prelude::*;
//!
//! // 8x8 mesh, uniform random traffic, baseline vs VIX allocation.
//! let base = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::InputFirst);
//! let cfg = SimConfig::new(base, 0.02).with_windows(200, 1000, 500);
//! let stats = NetworkSim::build(cfg)?.run();
//! assert!(stats.avg_packet_latency() > 0.0);
//! # Ok::<(), vix::ConfigError>(())
//! ```

pub use vix_alloc as alloc;
pub use vix_alloc::arbiter;
pub use vix_core as core;
pub use vix_delay as delay;
pub use vix_manycore as manycore;
pub use vix_power as power;
pub use vix_router as router;
pub use vix_sim as sim;
pub use vix_telemetry as telemetry;
pub use vix_topology as topology;
pub use vix_traffic as traffic;

pub use vix_core::{
    ActivityCounters, AllocatorKind, ConfigError, Cycle, Flit, FlitKind, NetworkConfig, NodeId,
    PacketDescriptor, PacketId, PipelineKind, PortId, RouterConfig, RouterId, SimConfig,
    TelemetrySettings, TopologyKind, VcId, VirtualInputId, VirtualInputs, VixPartition,
};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use vix_alloc::{build_allocator, Allocator};
    pub use vix_core::{
        AllocatorKind, ConfigError, NetworkConfig, RouterConfig, SimConfig, TelemetrySettings,
        TopologyKind, VirtualInputs,
    };
    pub use vix_sim::{LoadSweep, NetworkSim, NetworkStats, SingleRouterHarness};
    pub use vix_telemetry::{MatchingSummary, TelemetrySink};
    pub use vix_topology::Topology;
    pub use vix_traffic::TrafficPattern;
}
