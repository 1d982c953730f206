//! Router, network, and simulation configuration.
//!
//! Configurations are built with lightweight builder-style `with_*` methods
//! and validated with [`RouterConfig::validate`] / [`SimConfig::validate`]
//! before a simulator is constructed. All experiments in the paper are
//! expressible as a [`SimConfig`].

use crate::error::ConfigError;
use crate::vix::VixPartition;

/// How many virtual inputs connect each input port to the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VirtualInputs {
    /// Baseline router: one crossbar input per port (no VIX).
    #[default]
    None,
    /// `k` virtual inputs per port; the paper's practical design is
    /// `PerPort(2)` (a "1:2 VIX").
    PerPort(usize),
    /// One virtual input per VC — the paper's "ideal VIX" upper bound.
    Ideal,
}

impl VirtualInputs {
    /// Resolves to the concrete number of virtual inputs for a router with
    /// `vcs` virtual channels per port.
    #[must_use]
    pub fn count(self, vcs: usize) -> usize {
        match self {
            VirtualInputs::None => 1,
            VirtualInputs::PerPort(k) => k,
            VirtualInputs::Ideal => vcs,
        }
    }
}

/// Router pipeline organisation (Fig. 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineKind {
    /// Fig. 6(b): lookahead routing folds RC into the previous hop and
    /// switch allocation is attempted speculatively alongside VC
    /// allocation — the paper's evaluated router.
    #[default]
    ThreeStage,
    /// Fig. 6(a): a conventional five-stage router — route computation
    /// occupies its own cycle when a head flit reaches the front of its
    /// VC, and VA and SA run in separate cycles (no speculation).
    FiveStage,
}

/// Switch allocation scheme, matching §4.1 of the paper plus the packet
/// chaining comparison of §4.4 and an iSLIP-style iterative extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// Input-first separable allocator (the paper's baseline, "IF").
    InputFirst,
    /// Output-first separable allocator ("OF") — the dual scheme from
    /// Becker & Dally's design-space study; an extension baseline.
    OutputFirst,
    /// Wavefront allocator ("WF", Tamir & Chi).
    Wavefront,
    /// Augmented-path maximum matching ("AP", Ford–Fulkerson).
    AugmentingPath,
    /// Separable allocation over virtual inputs — the paper's contribution.
    /// The router's [`VirtualInputs`] setting determines the crossbar shape.
    Vix,
    /// Wavefront allocation over virtual inputs — an extension beyond the
    /// paper combining WF's intra-cycle conflict resolution with VIX's
    /// lifted input-port constraint.
    WavefrontVix,
    /// Packet chaining (*SameInput, anyVC*) on top of the separable
    /// allocator (Michelogiannakis et al., MICRO-44).
    PacketChaining,
    /// Iterative separable allocation with `n` iterations (iSLIP-style);
    /// included as an extension baseline.
    Islip(usize),
}

impl AllocatorKind {
    /// Short label used in printed tables (matches the paper's legends).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::InputFirst => "IF",
            AllocatorKind::OutputFirst => "OF",
            AllocatorKind::Wavefront => "WF",
            AllocatorKind::AugmentingPath => "AP",
            AllocatorKind::Vix => "VIX",
            AllocatorKind::WavefrontVix => "WF-VIX",
            AllocatorKind::PacketChaining => "PC",
            AllocatorKind::Islip(_) => "iSLIP",
        }
    }
}

/// Network topology, per §3 of the paper. All three connect 64 terminals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// k×k mesh, one terminal per router, radix-5 routers.
    Mesh,
    /// Concentrated mesh: 4 terminals per router, radix-8 routers.
    CMesh,
    /// Flattened butterfly: 4 terminals per router, routers fully connected
    /// within each row and column, radix-10 routers for 64 terminals.
    FlattenedButterfly,
}

impl TopologyKind {
    /// Router radix for a 64-terminal instance of this topology
    /// (Table 1 of the paper).
    #[must_use]
    pub fn radix_64(self) -> usize {
        match self {
            TopologyKind::Mesh => 5,
            TopologyKind::CMesh => 8,
            TopologyKind::FlattenedButterfly => 10,
        }
    }

    /// Terminals attached to each router.
    #[must_use]
    pub fn concentration(self) -> usize {
        match self {
            TopologyKind::Mesh => 1,
            TopologyKind::CMesh | TopologyKind::FlattenedButterfly => 4,
        }
    }
}

/// Micro-architectural parameters of one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouterConfig {
    ports: usize,
    vcs_per_port: usize,
    buffer_depth: usize,
    virtual_inputs: VirtualInputs,
    /// Datapath (flit) width in bits; the paper fixes 128.
    pub flit_width_bits: usize,
    /// Whether switch allocation may be attempted speculatively in the same
    /// cycle as VC allocation (3-stage pipeline of Fig. 6(b)).
    pub speculative_sa: bool,
    /// Whether VC allocation uses the VIX dimension-aware sub-group
    /// assignment with load balancing (§2.3). Ignored by non-VIX routers.
    pub dimension_aware_va: bool,
    /// Whether separable switch allocation prioritises the oldest request
    /// (SPAROFLO-style, §5) instead of pure rotating arbitration.
    pub age_based_sa: bool,
    /// Pipeline organisation (Fig. 6). [`PipelineKind::FiveStage`] forces
    /// `speculative_sa` off behaviourally and adds a route-computation
    /// cycle per hop.
    pub pipeline: PipelineKind,
}

impl RouterConfig {
    /// Creates a baseline configuration: `ports` physical ports,
    /// `vcs_per_port` VCs, `buffer_depth` flits per VC, no virtual inputs,
    /// 128-bit datapath, speculation on.
    #[must_use]
    pub fn new(ports: usize, vcs_per_port: usize, buffer_depth: usize) -> Self {
        RouterConfig {
            ports,
            vcs_per_port,
            buffer_depth,
            virtual_inputs: VirtualInputs::None,
            flit_width_bits: 128,
            speculative_sa: true,
            dimension_aware_va: true,
            age_based_sa: false,
            pipeline: PipelineKind::ThreeStage,
        }
    }

    /// The paper's default router: 6 VCs per port, 5-flit buffers (§3).
    #[must_use]
    pub fn paper_default(ports: usize) -> Self {
        RouterConfig::new(ports, 6, 5)
    }

    /// Sets the virtual-input organisation.
    #[must_use]
    pub fn with_virtual_inputs(mut self, vi: VirtualInputs) -> Self {
        self.virtual_inputs = vi;
        self
    }

    /// Sets the number of physical ports (e.g. to a topology's radix).
    #[must_use]
    pub fn with_ports(mut self, ports: usize) -> Self {
        self.ports = ports;
        self
    }

    /// Sets the number of VCs per port.
    #[must_use]
    pub fn with_vcs(mut self, vcs: usize) -> Self {
        self.vcs_per_port = vcs;
        self
    }

    /// Sets the per-VC buffer depth in flits.
    #[must_use]
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Enables or disables speculative switch allocation.
    #[must_use]
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculative_sa = on;
        self
    }

    /// Enables or disables dimension-aware VIX VC assignment (§2.3).
    #[must_use]
    pub fn with_dimension_aware_va(mut self, on: bool) -> Self {
        self.dimension_aware_va = on;
        self
    }

    /// Selects the pipeline organisation of Fig. 6.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineKind) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Enables or disables oldest-first switch allocation (SPAROFLO-style
    /// prioritisation, an extension the paper's §5 describes as easily
    /// integrable with VIX).
    #[must_use]
    pub fn with_age_based_sa(mut self, on: bool) -> Self {
        self.age_based_sa = on;
        self
    }

    /// Number of physical ports (the router radix).
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Virtual channels per port.
    #[must_use]
    pub fn vcs_per_port(&self) -> usize {
        self.vcs_per_port
    }

    /// Buffer depth per VC, in flits.
    #[must_use]
    pub fn buffer_depth(&self) -> usize {
        self.buffer_depth
    }

    /// Virtual-input organisation.
    #[must_use]
    pub fn virtual_inputs(&self) -> VirtualInputs {
        self.virtual_inputs
    }

    /// Concrete number of virtual inputs per port.
    #[must_use]
    pub fn virtual_inputs_per_port(&self) -> usize {
        self.virtual_inputs.count(self.vcs_per_port)
    }

    /// Total crossbar inputs (`ports × virtual inputs per port`).
    #[must_use]
    pub fn crossbar_inputs(&self) -> usize {
        self.ports * self.virtual_inputs_per_port()
    }

    /// The VC → virtual input partition implied by this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnevenPartition`] (via
    /// [`VixPartition::even`]) if the VC count does not divide evenly.
    pub fn partition(&self) -> Result<VixPartition, ConfigError> {
        VixPartition::even(self.vcs_per_port, self.virtual_inputs_per_port())
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ports < 2 {
            return Err(ConfigError::TooFewPorts { ports: self.ports });
        }
        // A flit packs its port and VC ids into one byte each, 255 being
        // the "no VC" sentinel (`Flit`'s type-level limits).
        if self.ports > 256 {
            return Err(ConfigError::TooManyPorts { ports: self.ports });
        }
        if self.vcs_per_port == 0 {
            return Err(ConfigError::NoVirtualChannels);
        }
        if self.vcs_per_port > 255 {
            return Err(ConfigError::TooManyVirtualChannels { vcs: self.vcs_per_port });
        }
        if self.buffer_depth == 0 {
            return Err(ConfigError::ZeroBufferDepth);
        }
        let vi = self.virtual_inputs_per_port();
        if vi == 0 || vi > self.vcs_per_port {
            return Err(ConfigError::BadVirtualInputs { virtual_inputs: vi, vcs: self.vcs_per_port });
        }
        self.partition()?;
        // No cap on the crossbar width: the word-parallel allocator kernels
        // store ceil(width / 64) words per request row (DESIGN.md §6d), so
        // any product of the radix and VC counts accepted above is
        // representable.
        Ok(())
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig::paper_default(5)
    }
}

/// Network-level configuration: topology plus per-router parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetworkConfig {
    /// Topology connecting the terminals.
    pub topology: TopologyKind,
    /// Number of terminals (the paper always uses 64).
    pub nodes: usize,
    /// Per-router micro-architecture. The port count here is overridden by
    /// the topology's radix when the network is built.
    pub router: RouterConfig,
    /// Switch allocation scheme used by every router.
    pub allocator: AllocatorKind,
}

impl NetworkConfig {
    /// A 64-node instance of `topology` with the paper's default router and
    /// the given allocator.
    #[must_use]
    pub fn paper_default(topology: TopologyKind, allocator: AllocatorKind) -> Self {
        let radix = topology.radix_64();
        let mut router = RouterConfig::paper_default(radix);
        if matches!(allocator, AllocatorKind::Vix | AllocatorKind::WavefrontVix) {
            router = router.with_virtual_inputs(VirtualInputs::PerPort(2));
        }
        NetworkConfig { topology, nodes: 64, router, allocator }
    }

    /// Replaces the router configuration (the topology still dictates the
    /// port count when the network is built).
    #[must_use]
    pub fn with_router(mut self, router: RouterConfig) -> Self {
        self.router = router;
        self
    }
}

/// What the simulator's telemetry sink should record.
///
/// This is plain `Copy` configuration — the actual sink (ring buffer,
/// metrics registry) is built by the simulator from these settings at
/// network-construction time. The default is everything off, which the
/// simulator maps to a sink that never allocates and reduces every
/// recording call to one branch, preserving the zero-allocation and
/// determinism guarantees of an uninstrumented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySettings {
    /// Record flit-lifecycle trace events (Inject … CreditReturn).
    pub tracing: bool,
    /// Record counters/gauges/histograms (stall breakdowns, VC
    /// occupancy, scheduler gauges).
    pub metrics: bool,
    /// Capacity of the preallocated trace ring; once full, the oldest
    /// events are overwritten (and counted as dropped).
    pub trace_capacity: usize,
    /// Record engine self-profiling phase spans (wall-clock timers around
    /// the pipeline phases, traffic gen, stats merges, and shard barrier
    /// waits). Profiling observes only the host clock — never simulation
    /// state — so it cannot perturb results.
    pub profiling: bool,
    /// Emit a health heartbeat snapshot (cycles/sec, active routers,
    /// wake-calendar depth, buffered flits, per-shard busy/barrier split)
    /// every this many cycles (`0` = never). Requires `profiling`.
    pub heartbeat_every: u64,
    /// Stream each heartbeat as a JSONL line on stderr the moment it is
    /// sampled (live liveness signal for long runs), in addition to
    /// retaining it for end-of-run export.
    pub heartbeat_stream: bool,
}

impl TelemetrySettings {
    /// Default ring capacity when tracing is enabled (events, not bytes).
    pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

    /// Capacity of the preallocated span ring a profiled run records into
    /// (spans, not bytes), shared out among the shards of a sharded run;
    /// once full, the oldest spans are overwritten (and counted as
    /// dropped).
    pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

    /// Everything off (the default).
    #[must_use]
    pub fn disabled() -> Self {
        TelemetrySettings {
            tracing: false,
            metrics: false,
            trace_capacity: 0,
            profiling: false,
            heartbeat_every: 0,
            heartbeat_stream: false,
        }
    }

    /// Tracing and metrics both on, with the default ring capacity.
    /// Profiling stays off — it is an orthogonal, engine-side concern
    /// enabled explicitly with [`TelemetrySettings::with_profiling`].
    #[must_use]
    pub fn enabled() -> Self {
        TelemetrySettings {
            tracing: true,
            metrics: true,
            trace_capacity: Self::DEFAULT_TRACE_CAPACITY,
            ..Self::disabled()
        }
    }

    /// Enables or disables event tracing, keeping the ring capacity
    /// (or setting the default if none was chosen yet).
    #[must_use]
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        if on && self.trace_capacity == 0 {
            self.trace_capacity = Self::DEFAULT_TRACE_CAPACITY;
        }
        self
    }

    /// Enables or disables the metrics registry.
    #[must_use]
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Sets the trace ring capacity in events.
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables or disables engine self-profiling, with span rings of
    /// [`TelemetrySettings::DEFAULT_SPAN_CAPACITY`] spans in all.
    ///
    /// Profiling only reads the host's monotonic clock: it never touches
    /// simulation state, so results stay bit-identical. A sharded run
    /// records one span track per shard.
    #[must_use]
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Emits a health heartbeat every `every` cycles (`0` = never) and
    /// turns profiling on when `every` is non-zero.
    #[must_use]
    pub fn with_heartbeat(mut self, every: u64) -> Self {
        self.heartbeat_every = every;
        if every > 0 {
            self = self.with_profiling(true);
        }
        self
    }

    /// Streams each heartbeat to stderr as it is sampled, in addition to
    /// retaining it for end-of-run export.
    #[must_use]
    pub fn with_heartbeat_stream(mut self, on: bool) -> Self {
        self.heartbeat_stream = on;
        self
    }
}

impl Default for TelemetrySettings {
    fn default() -> Self {
        TelemetrySettings::disabled()
    }
}

/// Full simulation run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Network under test.
    pub network: NetworkConfig,
    /// Offered load in packets/cycle/node.
    pub injection_rate: f64,
    /// Flits per packet (paper: 4 for 512-bit packets, 1 in §4.4).
    pub packet_len: usize,
    /// Warmup cycles excluded from statistics.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Extra drain cycles after measurement (lets measured packets finish).
    pub drain: u64,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Shards a *single* simulation run across threads: the router graph
    /// is cut at build into contiguous slices that exchange cross-slice
    /// flits and credits at cycle boundaries, and `run_cycles` steps each
    /// on its own thread (`0` = all available parallelism, `1` = one
    /// slice, the default). The count includes the calling thread, which
    /// steps slice 0 itself.
    ///
    /// Unlike a sweep's worker count (`LoadSweep::with_jobs` in
    /// `vix-sim`), which fans out *independent* runs, `shards`
    /// parallelises one run. A sharded run is
    /// bit-identical to a one-slice run for every shard count — same
    /// statistics, same ejection order, same activity counters (enforced by
    /// `tests/shard_parity.rs`; see DESIGN.md §8 for the determinism
    /// argument), and so is everything [`SimConfig::telemetry`] records.
    /// The count is clamped to the router count.
    pub shards: usize,
    /// What the run's telemetry sink records (default: nothing).
    pub telemetry: TelemetrySettings,
}

impl SimConfig {
    /// Paper-default run: warmup 10 000, measure 50 000, drain 10 000,
    /// 4-flit packets.
    #[must_use]
    pub fn new(network: NetworkConfig, injection_rate: f64) -> Self {
        SimConfig {
            network,
            injection_rate,
            packet_len: 4,
            warmup: 10_000,
            measure: 50_000,
            drain: 10_000,
            seed: 0xC0FFEE,
            shards: 1,
            telemetry: TelemetrySettings::disabled(),
        }
    }

    /// Sets the packet length in flits.
    #[must_use]
    pub fn with_packet_len(mut self, len: usize) -> Self {
        self.packet_len = len;
        self
    }

    /// Sets warmup/measure/drain windows.
    #[must_use]
    pub fn with_windows(mut self, warmup: u64, measure: u64, drain: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self.drain = drain;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shard count for a *single* simulation run: the router
    /// graph is partitioned across this many worker threads, `0` uses all
    /// available parallelism, `1` (the default) runs serially. Results are
    /// bit-identical for every value — shard count is a scheduling choice,
    /// never an experimental parameter.
    ///
    /// ```
    /// use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
    ///
    /// let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    /// let cfg = SimConfig::new(net, 0.05);
    /// assert_eq!(cfg.shards, 1, "library default stays serial");
    /// assert_eq!(cfg.with_shards(0).shards, 0); // all cores
    /// ```
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Chooses what the run's telemetry sink records (default: nothing).
    /// Telemetry is pure observation: enabling it never changes grant
    /// order, statistics, or RNG draws.
    ///
    /// ```
    /// use vix_core::config::TelemetrySettings;
    /// use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
    ///
    /// let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    /// let cfg = SimConfig::new(net, 0.05);
    /// assert_eq!(cfg.telemetry, TelemetrySettings::disabled());
    /// let traced = cfg.with_telemetry(TelemetrySettings::enabled());
    /// assert!(traced.telemetry.tracing && traced.telemetry.metrics);
    /// ```
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetrySettings) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Checks all structural invariants (including the router's).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.network.router.validate()?;
        if self.network.allocator == AllocatorKind::Islip(0) {
            return Err(ConfigError::ZeroIslipIterations);
        }
        if self.network.nodes > 1 << 16 {
            return Err(ConfigError::TooManyNodes { nodes: self.network.nodes });
        }
        if self.packet_len == 0 {
            return Err(ConfigError::ZeroPacketLength);
        }
        if self.packet_len > u16::MAX as usize {
            return Err(ConfigError::PacketTooLong { flits: self.packet_len });
        }
        // Both comparisons are false for a NaN rate.
        let rate = self.injection_rate;
        let in_range = rate >= 0.0 && rate * self.packet_len as f64 <= 1.0 + 1e-9;
        if !in_range {
            return Err(ConfigError::BadInjectionRate { rate });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_router_has_one_virtual_input() {
        let cfg = RouterConfig::paper_default(5);
        assert_eq!(cfg.virtual_inputs_per_port(), 1);
        assert_eq!(cfg.crossbar_inputs(), 5);
        cfg.validate().unwrap();
    }

    #[test]
    fn vix_router_doubles_crossbar_inputs() {
        let cfg = RouterConfig::paper_default(5).with_virtual_inputs(VirtualInputs::PerPort(2));
        assert_eq!(cfg.virtual_inputs_per_port(), 2);
        assert_eq!(cfg.crossbar_inputs(), 10);
        cfg.validate().unwrap();
    }

    #[test]
    fn ideal_vix_has_one_input_per_vc() {
        let cfg = RouterConfig::paper_default(10).with_virtual_inputs(VirtualInputs::Ideal);
        assert_eq!(cfg.virtual_inputs_per_port(), 6);
        assert_eq!(cfg.crossbar_inputs(), 60);
        cfg.validate().unwrap();
    }

    #[test]
    fn uneven_partition_rejected() {
        let cfg = RouterConfig::new(5, 5, 5).with_virtual_inputs(VirtualInputs::PerPort(2));
        assert!(matches!(cfg.validate(), Err(ConfigError::UnevenPartition { .. })));
    }

    #[test]
    fn too_many_virtual_inputs_rejected() {
        let cfg = RouterConfig::new(5, 2, 5).with_virtual_inputs(VirtualInputs::PerPort(4));
        assert!(matches!(cfg.validate(), Err(ConfigError::BadVirtualInputs { .. })));
    }

    #[test]
    fn shapes_wider_than_one_word_validate() {
        // Request rows store ceil(width / 64) words each, so shapes
        // past 64 ports, VCs, or crossbar inputs are all legal now.
        RouterConfig::new(65, 2, 5).validate().unwrap();
        // 33 ports × 2 virtual inputs = 66 crossbar inputs.
        let cfg = RouterConfig::new(33, 2, 5).with_virtual_inputs(VirtualInputs::PerPort(2));
        cfg.validate().unwrap();
        // Radix-16 × 8 VCs under ideal VIX: 128 virtual inputs.
        let wide = RouterConfig::new(16, 8, 5).with_virtual_inputs(VirtualInputs::Ideal);
        wide.validate().unwrap();
        assert_eq!(wide.crossbar_inputs(), 128);
    }

    #[test]
    fn degenerate_routers_rejected() {
        assert!(RouterConfig::new(1, 6, 5).validate().is_err());
        assert!(RouterConfig::new(5, 0, 5).validate().is_err());
        assert!(RouterConfig::new(5, 6, 0).validate().is_err());
        // The widest router a flit's packed port and VC ids can address.
        assert_eq!(RouterConfig::new(256, 255, 5).validate(), Ok(()));
        assert_eq!(
            RouterConfig::new(257, 6, 5).validate(),
            Err(ConfigError::TooManyPorts { ports: 257 })
        );
        assert_eq!(
            RouterConfig::new(5, 256, 5).validate(),
            Err(ConfigError::TooManyVirtualChannels { vcs: 256 })
        );
    }

    #[test]
    fn topology_radices_match_table1() {
        assert_eq!(TopologyKind::Mesh.radix_64(), 5);
        assert_eq!(TopologyKind::CMesh.radix_64(), 8);
        assert_eq!(TopologyKind::FlattenedButterfly.radix_64(), 10);
    }

    #[test]
    fn paper_default_network_wires_vix() {
        let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
        assert_eq!(net.router.virtual_inputs_per_port(), 2);
        let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::InputFirst);
        assert_eq!(net.router.virtual_inputs_per_port(), 1);
    }

    #[test]
    fn sim_config_validation() {
        let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::InputFirst);
        assert!(SimConfig::new(net, 0.05).validate().is_ok());
        assert!(SimConfig::new(net, 0.30).validate().is_err(), "0.30 pkts × 4 flits > 1 flit/cycle");
        for rate in [-1.0, f64::NAN] {
            assert!(
                matches!(
                    SimConfig::new(net, rate).validate(),
                    Err(ConfigError::BadInjectionRate { .. })
                ),
                "rate {rate}"
            );
        }
        assert_eq!(
            SimConfig::new(net, 0.05).with_packet_len(0).validate(),
            Err(ConfigError::ZeroPacketLength)
        );
        let islip0 = NetworkConfig { allocator: AllocatorKind::Islip(0), ..net };
        assert_eq!(SimConfig::new(islip0, 0.05).validate(), Err(ConfigError::ZeroIslipIterations));
        // The widest shapes a flit's 16-bit destination and index address.
        let rate = 1e-6;
        assert_eq!(SimConfig::new(net, rate).with_packet_len(65_535).validate(), Ok(()));
        assert_eq!(
            SimConfig::new(net, rate).with_packet_len(65_536).validate(),
            Err(ConfigError::PacketTooLong { flits: 65_536 })
        );
        let wide = |nodes| SimConfig::new(NetworkConfig { nodes, ..net }, 0.05);
        assert_eq!(wide(65_536).validate(), Ok(()));
        assert_eq!(wide(65_537).validate(), Err(ConfigError::TooManyNodes { nodes: 65_537 }));
    }

    #[test]
    fn shards_default_serial_and_builder() {
        let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
        let cfg = SimConfig::new(net, 0.05);
        assert_eq!(cfg.shards, 1, "library default must stay serial");
        assert_eq!(cfg.with_shards(0).shards, 0);
        assert_eq!(cfg.with_shards(8).shards, 8);
        cfg.with_shards(0).validate().unwrap();
    }

    #[test]
    fn allocator_labels() {
        assert_eq!(AllocatorKind::InputFirst.label(), "IF");
        assert_eq!(AllocatorKind::Vix.label(), "VIX");
        assert_eq!(AllocatorKind::Wavefront.label(), "WF");
        assert_eq!(AllocatorKind::AugmentingPath.label(), "AP");
        assert_eq!(AllocatorKind::PacketChaining.label(), "PC");
        assert_eq!(AllocatorKind::Islip(2).label(), "iSLIP");
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = RouterConfig::new(8, 4, 3)
            .with_vcs(6)
            .with_buffer_depth(5)
            .with_speculation(false)
            .with_dimension_aware_va(false)
            .with_virtual_inputs(VirtualInputs::PerPort(3));
        assert_eq!(cfg.vcs_per_port(), 6);
        assert_eq!(cfg.buffer_depth(), 5);
        assert!(!cfg.speculative_sa);
        assert!(!cfg.dimension_aware_va);
        assert_eq!(cfg.virtual_inputs_per_port(), 3);
        cfg.validate().unwrap();
    }
}
