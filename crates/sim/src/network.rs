//! Whole-network simulation: routers, links, sources, and the
//! warmup/measure/drain protocol.

use crate::channel::Pipe;
use crate::source::SourceQueue;
use crate::stats::NetworkStats;
use crate::{CREDIT_LATENCY, FLIT_LATENCY};
use vix_rng::rngs::StdRng;
use vix_rng::SeedableRng;
use vix_alloc::build_allocator;
use vix_core::{
    ActivityCounters, ConfigError, Cycle, Flit, NodeId, PacketDescriptor, PacketId, PortId,
    RouterId, SimConfig, VcId,
};
use vix_router::{Router, RouterEnv};
use vix_telemetry::{
    HistogramId, MatchingSummary, SpanKind, TelemetrySink, TraceEvent, TraceEventKind, NO_ID,
};
use vix_topology::{build_topology, Topology};
use vix_traffic::{BernoulliInjector, TrafficPattern};

/// Routing resolution shared by sources and lookahead rewriting: the
/// output port at `router`, the output port at the next router, and the
/// dimension of the first port.
pub(crate) fn resolve_route(
    topology: &dyn Topology,
    router: RouterId,
    dest: NodeId,
) -> (PortId, PortId, usize) {
    let out = topology.route(router, dest);
    let lookahead = if topology.is_local_port(out) {
        out
    } else {
        let (next, _) = topology.neighbor(router, out).expect("route uses connected ports");
        topology.route(next, dest)
    };
    (out, lookahead, topology.port_dimension(out))
}

/// Precomputed [`resolve_route`] and [`Topology::neighbor`] over the whole
/// (static) topology: entry `router * nodes + dest` packs the three routing
/// results into three bytes, entry `router * radix + port` holds the far end
/// of a link. Routing is deterministic and the topology never changes after
/// build, so the hot per-flit lookahead rewrite and link fan-out become table
/// loads instead of virtual topology calls (a mesh's `neighbor` divides by
/// the mesh side to recover coordinates).
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    nodes: usize,
    radix: usize,
    /// `(out_port, lookahead_port, dimension)` per `(router, dest)` pair.
    entries: Vec<(u8, u8, u8)>,
    /// `(downstream router, its input port)` per `(router, port)` pair;
    /// `None` on local and unconnected ports.
    links: Vec<Option<(u32, u8)>>,
}

impl RouteTable {
    fn build(topology: &dyn Topology) -> Self {
        let nodes = topology.nodes();
        let mut entries = Vec::with_capacity(topology.routers() * nodes);
        for r in 0..topology.routers() {
            for d in 0..nodes {
                let (out, la, dim) = resolve_route(topology, RouterId(r), NodeId(d));
                entries.push((
                    u8::try_from(out.0).expect("port id fits a byte"),
                    u8::try_from(la.0).expect("port id fits a byte"),
                    u8::try_from(dim).expect("dimension fits a byte"),
                ));
            }
        }
        let radix = topology.radix();
        let links = (0..topology.routers() * radix)
            .map(|i| {
                let (next, port) = topology.neighbor(RouterId(i / radix), PortId(i % radix))?;
                Some((
                    u32::try_from(next.0).expect("router id fits 32 bits"),
                    u8::try_from(port.0).expect("port id fits a byte"),
                ))
            })
            .collect();
        RouteTable { nodes, radix, entries, links }
    }

    /// The table form of [`Topology::neighbor`] — identical results by
    /// construction.
    #[inline]
    pub(crate) fn neighbor(&self, router: RouterId, port: PortId) -> Option<(RouterId, PortId)> {
        let (next, next_port) = self.links[router.0 * self.radix + port.0]?;
        Some((RouterId(next as usize), PortId(next_port as usize)))
    }

    /// The table form of [`resolve_route`] — identical results by
    /// construction.
    #[inline]
    pub(crate) fn resolve(&self, router: RouterId, dest: NodeId) -> (PortId, PortId, usize) {
        let (out, la, dim) = self.entries[router.0 * self.nodes + dest.0];
        (PortId(out as usize), PortId(la as usize), dim as usize)
    }
}

/// A packet delivered to its destination terminal (tail flit ejected),
/// as reported by [`NetworkSim::take_ejections`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EjectedPacket {
    /// The delivered packet.
    pub packet: PacketDescriptor,
    /// Cycle its tail flit left the network.
    pub at: Cycle,
}

/// Where credits leaving a router input port are returned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CreditDest {
    /// Upstream router's output port.
    Upstream(RouterId, PortId),
    /// A terminal's source queue.
    Source(NodeId),
    /// Unconnected port (mesh edge); no credit ever flows.
    Unconnected,
}

/// Size of the wake-calendar ring. Must exceed every pipe latency in the
/// network (flit links, credit links, and the 1-cycle injection link) so a
/// slot is always fully drained before an event can be scheduled back into
/// it.
pub(crate) const WAKE_RING: usize = 4;
const _: () = {
    assert!(WAKE_RING as u64 > FLIT_LATENCY);
    assert!(WAKE_RING as u64 > CREDIT_LATENCY);
};

/// A deferred delivery: drain this pipe when its due cycle arrives and wake
/// the receiving router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeEvent {
    /// Injection link of node `n` has a flit due.
    Inject(usize),
    /// Flit link leaving router `r` through port `p` has flits due.
    FlitLink(usize, usize),
    /// Credit link leaving router `r`'s input port `p` has credits due.
    CreditLink(usize, usize),
}

/// Bookkeeping for activity-gated scheduling (see DESIGN.md §6c).
///
/// The gated [`NetworkSim::step`] touches only *active* routers and pipes
/// with something due, instead of sweeping every router and every link each
/// cycle. Correctness contract: a gated run is bit-identical to an ungated
/// run — skipped cycles are replayed through
/// [`vix_router::Router::note_idle_cycles`] before a router steps again.
#[derive(Debug)]
pub(crate) struct GatingState {
    /// `calendar[t % WAKE_RING]` — deliveries due at cycle `t`.
    pub(crate) calendar: [Vec<WakeEvent>; WAKE_RING],
    /// Routers to step this cycle (sorted ascending before phase 5 so that
    /// stats accumulation and ejection order match the ungated sweep).
    pub(crate) work: Vec<usize>,
    /// Routers pre-activated for the next cycle (retention: a router only
    /// leaves the active set after a step that begins *and* ends quiescent).
    pub(crate) pending: Vec<usize>,
    /// `active_mark[r]` — last cycle router `r` was queued for; dedups
    /// multiple wakeups in one cycle.
    pub(crate) active_mark: Vec<u64>,
    /// `stepped_until[r]` — cycles of router `r`'s history that have been
    /// executed or replayed; the gap to `now` is replayed lazily via
    /// `note_idle_cycles` when the router re-activates.
    pub(crate) stepped_until: Vec<u64>,
    /// Per-pipe scheduled-stamp dedup: the due cycle already scheduled, so
    /// multiple same-cycle pushes (e.g. VIX multi-grant credits) enqueue
    /// one event.
    pub(crate) inject_sched: Vec<u64>,
    pub(crate) flit_sched: Vec<Vec<u64>>,
    pub(crate) credit_sched: Vec<Vec<u64>>,
    /// Total `Router::step_into` calls over the run (gated and ungated);
    /// the observable for O(active) scheduling tests.
    pub(crate) router_steps: u64,
}

impl GatingState {
    pub(crate) fn new(nodes: usize, routers: usize, radix: usize) -> Self {
        // Worst-case slot population: every injection link plus every flit
        // and credit link delivers on the same cycle. Reserving it up front
        // keeps the steady-state gated step allocation-free.
        let slot_cap = nodes + 2 * routers * radix;
        GatingState {
            calendar: std::array::from_fn(|_| Vec::with_capacity(slot_cap)),
            work: Vec::with_capacity(routers),
            pending: Vec::with_capacity(routers),
            active_mark: vec![u64::MAX; routers],
            stepped_until: vec![0; routers],
            inject_sched: vec![u64::MAX; nodes],
            flit_sched: vec![vec![u64::MAX; radix]; routers],
            credit_sched: vec![vec![u64::MAX; radix]; routers],
            router_steps: 0,
        }
    }
}

/// A cycle-accurate simulation of one network configuration.
///
/// Build with [`NetworkSim::build`], then either call [`NetworkSim::run`]
/// for the full warmup/measure/drain protocol, or clock it manually with
/// [`NetworkSim::step`].
#[derive(Debug)]
pub struct NetworkSim {
    pub(crate) cfg: SimConfig,
    pub(crate) topology: Box<dyn Topology>,
    /// Precomputed routing table (see [`RouteTable`]).
    pub(crate) routes: RouteTable,
    pub(crate) routers: Vec<Router>,
    /// `flit_pipes[r][p]` — link leaving router `r` through port `p`.
    pub(crate) flit_pipes: Vec<Vec<Option<Pipe<Flit>>>>,
    /// `credit_pipes[r][p]` — credits leaving router `r`'s *input* port `p`.
    pub(crate) credit_pipes: Vec<Vec<Pipe<VcId>>>,
    pub(crate) credit_dests: Vec<Vec<CreditDest>>,
    pub(crate) inject_pipes: Vec<Pipe<Flit>>,
    pub(crate) sources: Vec<SourceQueue>,
    pub(crate) pattern: TrafficPattern,
    pub(crate) injector: BernoulliInjector,
    pub(crate) rng: StdRng,
    pub(crate) now: Cycle,
    pub(crate) next_packet: u64,
    pub(crate) stats: NetworkStats,
    pub(crate) ejected: Vec<EjectedPacket>,
    /// Reused router-output buffer: [`vix_router::Router::step_into`]
    /// writes each router's flits and credits here every cycle, so the
    /// steady-state network step performs no heap allocation.
    step_out: vix_router::RouterOutput,
    /// Activity-gated scheduling state (used when
    /// [`SimConfig::activity_gating`] is on).
    pub(crate) gating: GatingState,
    /// Event/metric sink built from [`SimConfig::telemetry`]; disabled by
    /// default, in which case every hook below compiles to a cheap branch.
    pub(crate) telemetry: TelemetrySink,
    /// Per-router cost weights for the sharded engine's partition
    /// ([`ShardPlan::weighted`](crate::ShardPlan::weighted)); `None` means
    /// the uniform equal split. Set via [`NetworkSim::set_shard_weights`].
    pub(crate) shard_weights: Option<Vec<u64>>,
    /// Per-router VC-occupancy histogram ids (empty when metrics are off).
    vc_occupancy: Vec<HistogramId>,
}

impl NetworkSim {
    /// Builds the network described by `cfg` with uniform-random traffic
    /// (the paper's workload). Use [`NetworkSim::build_with_pattern`] for
    /// other spatial patterns.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is structurally
    /// invalid or the topology cannot host the node count.
    pub fn build(cfg: SimConfig) -> Result<Self, ConfigError> {
        NetworkSim::build_with_pattern(cfg, TrafficPattern::UniformRandom)
    }

    /// Builds the network with an explicit traffic pattern.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is structurally
    /// invalid or the topology cannot host the node count.
    pub fn build_with_pattern(cfg: SimConfig, pattern: TrafficPattern) -> Result<Self, ConfigError> {
        let topology = build_topology(cfg.network.topology, cfg.network.nodes)?;
        let radix = topology.radix();
        let router_cfg = cfg.network.router.with_ports(radix);
        let run_cfg = SimConfig { network: vix_core::NetworkConfig { router: router_cfg, ..cfg.network }, ..cfg };
        run_cfg.validate()?;

        let env = RouterEnv::new(
            (0..radix).map(|p| topology.port_dimension(PortId(p))).collect(),
            (0..radix).map(|p| topology.is_local_port(PortId(p))).collect(),
        );
        let routers: Vec<Router> = (0..topology.routers())
            .map(|r| {
                Router::new(
                    RouterId(r),
                    router_cfg,
                    build_allocator(run_cfg.network.allocator, &router_cfg),
                    // Build-time only: two radix-sized Vecs per router,
                    // never cloned again after construction.
                    env.clone(),
                )
            })
            .collect();

        let flit_pipes = (0..topology.routers())
            .map(|r| {
                (0..radix)
                    .map(|p| {
                        topology
                            .neighbor(RouterId(r), PortId(p))
                            .map(|_| Pipe::new(FLIT_LATENCY))
                    })
                    .collect()
            })
            .collect();
        // A VIX router lifts the one-grant-per-input-port constraint, so a
        // single input port can free up to `vcs` buffer slots in one cycle;
        // size the credit rings for that burst rate.
        let credit_pipes = (0..topology.routers())
            .map(|_| {
                (0..radix)
                    .map(|_| Pipe::with_rate(CREDIT_LATENCY, router_cfg.vcs_per_port()))
                    .collect()
            })
            .collect();
        let credit_dests = (0..topology.routers())
            .map(|r| {
                (0..radix)
                    .map(|p| {
                        let (r, p) = (RouterId(r), PortId(p));
                        if let Some(node) = topology.node_at(r, p) {
                            CreditDest::Source(node)
                        } else if let Some((ur, up)) = topology.neighbor(r, p) {
                            CreditDest::Upstream(ur, up)
                        } else {
                            CreditDest::Unconnected
                        }
                    })
                    .collect()
            })
            .collect();

        let groups = router_cfg.virtual_inputs_per_port();
        let sources = (0..cfg.network.nodes)
            .map(|n| {
                SourceQueue::new(
                    NodeId(n),
                    router_cfg.vcs_per_port(),
                    router_cfg.buffer_depth(),
                    groups,
                    router_cfg.dimension_aware_va,
                )
            })
            .collect();
        let inject_pipes = (0..cfg.network.nodes).map(|_| Pipe::new(1)).collect();

        let injector = BernoulliInjector::new(cfg.injection_rate)?;
        let stats = NetworkStats::new(cfg.network.nodes, cfg.measure, cfg.packet_len);
        let gating = GatingState::new(cfg.network.nodes, topology.routers(), radix);
        let mut telemetry = TelemetrySink::new(run_cfg.telemetry);
        let occupancy_bounds: Vec<u64> = (0..=router_cfg.buffer_depth() as u64).collect();
        let vc_occupancy = (0..topology.routers())
            .filter_map(|r| {
                telemetry.register_histogram(&format!("router{r}.vc_occupancy"), &occupancy_bounds)
            })
            .collect();
        let routes = RouteTable::build(topology.as_ref());
        Ok(NetworkSim {
            cfg: run_cfg,
            topology,
            routes,
            routers,
            flit_pipes,
            credit_pipes,
            credit_dests,
            inject_pipes,
            sources,
            pattern,
            injector,
            rng: StdRng::seed_from_u64(cfg.seed),
            now: Cycle::ZERO,
            next_packet: 0,
            stats,
            ejected: Vec::new(),
            step_out: vix_router::RouterOutput::default(),
            gating,
            telemetry,
            vc_occupancy,
            shard_weights: None,
        })
    }

    /// Injects an externally-generated packet (e.g. a cache miss from the
    /// manycore model) at `source`, destined for `dest`, of `len` flits,
    /// carrying an opaque `tag`. Returns the assigned packet id.
    ///
    /// External packets share the source queues with pattern traffic; run
    /// external workloads with `injection_rate = 0` to drive the network
    /// exclusively.
    ///
    /// # Panics
    ///
    /// Panics if `source`/`dest` are out of range or `len == 0`.
    pub fn inject(&mut self, source: NodeId, dest: NodeId, len: usize, tag: u64) -> PacketId {
        assert!(source.0 < self.cfg.network.nodes, "source {source} out of range");
        assert!(dest.0 < self.cfg.network.nodes, "dest {dest} out of range");
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let packet = PacketDescriptor::new(id, source, dest, len, self.now).with_tag(tag);
        self.sources[source.0].enqueue(packet);
        id
    }

    /// Drains the packets fully delivered since the last call (every
    /// window, not just the measurement window).
    pub fn take_ejections(&mut self) -> Vec<EjectedPacket> {
        std::mem::take(&mut self.ejected)
    }

    /// Like [`NetworkSim::take_ejections`], but appends into a
    /// caller-owned buffer so the internal ejection list keeps its
    /// capacity — a per-cycle drain loop that reuses one `Vec` performs no
    /// heap allocation in steady state.
    pub fn take_ejections_into(&mut self, out: &mut Vec<EjectedPacket>) {
        out.append(&mut self.ejected);
    }

    /// The simulation configuration (with the router port count resolved
    /// to the topology's radix).
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The topology under simulation.
    #[must_use]
    pub fn topology(&self) -> &dyn Topology {
        self.topology.as_ref()
    }

    /// Resolves routing for a packet about to leave `router`: its output
    /// port there, the output port at the following router (lookahead),
    /// and the dimension of the first port.
    fn resolve_route(&self, router: RouterId, dest: NodeId) -> (PortId, PortId, usize) {
        self.routes.resolve(router, dest)
    }

    /// Runs one cycle of the whole network.
    ///
    /// With [`SimConfig::activity_gating`] on (the default) the step visits
    /// only active routers and links with a delivery due; quiescent routers
    /// are skipped and their idle history replayed on re-activation. The two
    /// paths are bit-identical — same statistics, same activity counters,
    /// same ejection order (`tests/gating_parity.rs` holds them side by
    /// side for every allocator).
    pub fn step(&mut self) {
        if self.cfg.activity_gating {
            self.step_gated();
        } else {
            self.step_ungated();
        }
        // VC-occupancy sampling is pure observation over *all* routers
        // (gated or not), so gated and ungated runs report identical
        // histograms.
        if !self.vc_occupancy.is_empty() {
            let ports = self.topology.radix();
            let vcs = self.cfg.network.router.vcs_per_port();
            for (r, &hist) in self.vc_occupancy.iter().enumerate() {
                for p in 0..ports {
                    for v in 0..vcs {
                        let occ = self.routers[r].buffer_occupancy(PortId(p), VcId(v));
                        self.telemetry.observe(hist, occ as u64);
                    }
                }
            }
        }
        if self.telemetry.profiling() {
            self.maybe_heartbeat();
        }
    }

    /// Samples a serial-engine health heartbeat when the just-finished
    /// cycle lands on the configured interval. (The sharded engine
    /// samples from its calling thread instead — see `shard::run_sharded`.)
    fn maybe_heartbeat(&mut self) {
        let cycle = self.now.0;
        let every = self.telemetry.profiler().map_or(0, vix_telemetry::Profiler::beat_every);
        if every == 0 || cycle == 0 || !cycle.is_multiple_of(every) {
            return;
        }
        let wake_depth: u64 = if self.cfg.activity_gating {
            self.gating.calendar.iter().map(|slot| slot.len() as u64).sum()
        } else {
            0
        };
        let buffered: u64 = self.routers.iter().map(|r| r.buffered_flits() as u64).sum();
        let steps = self.gating.router_steps;
        if let Some(p) = self.telemetry.profiler_mut() {
            p.heartbeat(cycle, steps, wake_depth, buffered, &[]);
        }
    }

    /// The ungated reference step: sweeps every node, link, and router.
    fn step_ungated(&mut self) {
        let now = self.now;
        let warm_plus_measure = self.cfg.warmup + self.cfg.measure;
        let in_window = now.0 >= self.cfg.warmup && now.0 < warm_plus_measure;
        // Profiling lap chain: one clock read per phase boundary, zero
        // reads (one branch per lap) when profiling is off.
        let mut span = self.telemetry.span_start();

        // 1. Traffic generation (open loop; stops when the drain begins).
        if now.0 < warm_plus_measure {
            for n in 0..self.cfg.network.nodes {
                if self.injector.fires(&mut self.rng) {
                    let dest = self.pattern.pick_dest(NodeId(n), self.cfg.network.nodes, &mut self.rng);
                    let packet = PacketDescriptor::new(
                        PacketId(self.next_packet),
                        NodeId(n),
                        dest,
                        self.cfg.packet_len,
                        now,
                    );
                    self.next_packet += 1;
                    self.sources[n].enqueue(packet);
                    if in_window {
                        self.stats.record_offered(1);
                    }
                }
            }
        }

        span = self.telemetry.span_lap(SpanKind::TrafficGen, now.0, span);

        // 2. Sources stream flits toward their routers.
        for n in 0..self.cfg.network.nodes {
            let router = self.topology.router_of(NodeId(n));
            let routes = &self.routes;
            let resolve = |dest: NodeId| routes.resolve(router, dest);
            if let Some(flit) = self.sources[n].try_send(now, resolve) {
                self.inject_pipes[n].push(now, flit);
            }
        }
        span = self.telemetry.span_lap(SpanKind::SourceInject, now.0, span);

        // 3. Deliver flits due this cycle (injection + inter-router links).
        for n in 0..self.cfg.network.nodes {
            let node = NodeId(n);
            let router = self.topology.router_of(node);
            let port = self.topology.local_port_of(node);
            while let Some(flit) = self.inject_pipes[n].pop_ready(now) {
                if self.telemetry.tracing() {
                    self.telemetry.trace(TraceEvent {
                        router: router.0 as u32,
                        port: port.0 as u32,
                        vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
                        packet: flit.packet.id.0,
                        flit: flit.index() as u32,
                        ..TraceEvent::at(now, TraceEventKind::Inject)
                    });
                }
                self.routers[router.0].accept_flit(port, flit);
            }
        }
        for r in 0..self.routers.len() {
            for p in 0..self.topology.radix() {
                let Some(pipe) = self.flit_pipes[r][p].as_mut() else { continue };
                if !pipe.has_ready(now) {
                    continue;
                }
                let (down, down_port) = self
                    .routes
                    .neighbor(RouterId(r), PortId(p))
                    .expect("flit pipe exists only on connected ports");
                while let Some(flit) = self.flit_pipes[r][p]
                    .as_mut()
                    .expect("checked above")
                    .pop_ready(now)
                {
                    self.routers[down.0].accept_flit(down_port, flit);
                }
            }
        }
        span = self.telemetry.span_lap(SpanKind::Deliver, now.0, span);

        // 4. Deliver credits due this cycle.
        for r in 0..self.routers.len() {
            for p in 0..self.topology.radix() {
                if !self.credit_pipes[r][p].has_ready(now) {
                    continue;
                }
                match self.credit_dests[r][p] {
                    CreditDest::Upstream(ur, up) => {
                        while let Some(vc) = self.credit_pipes[r][p].pop_ready(now) {
                            self.routers[ur.0].credit_return(up, vc);
                        }
                    }
                    CreditDest::Source(node) => {
                        while let Some(vc) = self.credit_pipes[r][p].pop_ready(now) {
                            self.sources[node.0].credit_return(vc);
                        }
                    }
                    CreditDest::Unconnected => {
                        unreachable!("credit on unconnected port {p} of router {r}")
                    }
                }
            }
        }
        span = self.telemetry.span_lap(SpanKind::CreditDeliver, now.0, span);

        // 5. Clock every router; fan out its flits and credits. One
        // RouterOutput is reused across every router and every cycle.
        let mut out = std::mem::take(&mut self.step_out);
        for r in 0..self.routers.len() {
            self.routers[r].step_into(now, &mut out, &mut self.telemetry);
            self.gating.router_steps += 1;
            for (p, mut flit) in out.flits.drain(..) {
                if self.topology.is_local_port(p) {
                    debug_assert_eq!(
                        self.topology.node_at(RouterId(r), p),
                        Some(flit.packet.dest),
                        "flit ejected at the wrong terminal"
                    );
                    if self.telemetry.tracing() {
                        self.telemetry.trace(TraceEvent {
                            router: r as u32,
                            port: p.0 as u32,
                            vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
                            packet: flit.packet.id.0,
                            flit: flit.index() as u32,
                            ..TraceEvent::at(now, TraceEventKind::Eject)
                        });
                    }
                    if in_window {
                        self.stats.record_ejection(
                            flit.packet.source,
                            flit.is_tail(),
                            flit.packet.created_at,
                            now,
                        );
                    }
                    if flit.is_tail() {
                        self.ejected.push(EjectedPacket { packet: flit.packet, at: now });
                    }
                } else {
                    // Lookahead routing: rewrite the routing fields for the
                    // downstream router before the flit enters the link.
                    let (down, _) =
                        self.routes.neighbor(RouterId(r), p).expect("route uses connected ports");
                    let (out_port, lookahead, _) = self.resolve_route(down, flit.packet.dest);
                    flit.set_route(out_port, lookahead);
                    if self.telemetry.tracing() {
                        self.telemetry.trace(TraceEvent {
                            router: r as u32,
                            port: p.0 as u32,
                            vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
                            packet: flit.packet.id.0,
                            flit: flit.index() as u32,
                            ..TraceEvent::at(now, TraceEventKind::LinkTraversal)
                        });
                    }
                    self.flit_pipes[r][p.0]
                        .as_mut()
                        .expect("connected port has a pipe")
                        .push(now, flit);
                }
            }
            for (p, vc) in out.credits.drain(..) {
                if self.telemetry.tracing() {
                    self.telemetry.trace(TraceEvent {
                        router: r as u32,
                        port: p.0 as u32,
                        vc: vc.0 as u32,
                        ..TraceEvent::at(now, TraceEventKind::CreditReturn)
                    });
                }
                self.credit_pipes[r][p.0].push(now, vc);
            }
        }
        self.step_out = out;
        self.telemetry.span_lap(SpanKind::RouterStep, now.0, span);

        self.now = now.plus(1);
    }

    /// Marks router `r` active for cycle `at`, queueing it in `queue`
    /// unless already queued for that cycle.
    pub(crate) fn activate(
        active_mark: &mut [u64],
        queue: &mut Vec<usize>,
        r: usize,
        at: u64,
    ) {
        if active_mark[r] != at {
            active_mark[r] = at;
            queue.push(r);
        }
    }

    /// The activity-gated step. Phases 1–2 are identical to the ungated
    /// path (per-node RNG draws and `try_send` calls must happen every
    /// cycle for bit-identity; an idle source's `try_send` is a pure
    /// no-op). Phases 3–4 drain the wake calendar instead of sweeping every
    /// link, and phase 5 steps only the active routers, in ascending index
    /// order, replaying each one's skipped quiescent cycles first.
    fn step_gated(&mut self) {
        let now = self.now;
        let warm_plus_measure = self.cfg.warmup + self.cfg.measure;
        let in_window = now.0 >= self.cfg.warmup && now.0 < warm_plus_measure;
        // Profiling lap chain: one clock read per phase boundary, zero
        // reads (one branch per lap) when profiling is off. The combined
        // flit+credit calendar drain is recorded as one `Deliver` span.
        let mut span = self.telemetry.span_start();

        // 1. Traffic generation — all nodes, every cycle (RNG bit-identity).
        if now.0 < warm_plus_measure {
            for n in 0..self.cfg.network.nodes {
                if self.injector.fires(&mut self.rng) {
                    let dest = self.pattern.pick_dest(NodeId(n), self.cfg.network.nodes, &mut self.rng);
                    let packet = PacketDescriptor::new(
                        PacketId(self.next_packet),
                        NodeId(n),
                        dest,
                        self.cfg.packet_len,
                        now,
                    );
                    self.next_packet += 1;
                    self.sources[n].enqueue(packet);
                    if in_window {
                        self.stats.record_offered(1);
                    }
                }
            }
        }

        span = self.telemetry.span_lap(SpanKind::TrafficGen, now.0, span);

        // 2. Sources stream flits toward their routers. A push schedules
        // the injection link's delivery one cycle out.
        for n in 0..self.cfg.network.nodes {
            let router = self.topology.router_of(NodeId(n));
            let routes = &self.routes;
            let resolve = |dest: NodeId| routes.resolve(router, dest);
            if let Some(flit) = self.sources[n].try_send(now, resolve) {
                self.inject_pipes[n].push(now, flit);
                let due = now.0 + 1;
                if self.gating.inject_sched[n] != due {
                    self.gating.inject_sched[n] = due;
                    self.gating.calendar[(due % WAKE_RING as u64) as usize]
                        .push(WakeEvent::Inject(n));
                }
            }
        }
        span = self.telemetry.span_lap(SpanKind::SourceInject, now.0, span);

        // 3 + 4. Deliver everything due this cycle. Distinct events touch
        // disjoint state (each pipe feeds one buffer; credits are counter
        // increments), so calendar order is interchangeable with the
        // ungated sweep order. Every delivery wakes the receiving router.
        let slot = (now.0 % WAKE_RING as u64) as usize;
        let mut events = std::mem::take(&mut self.gating.calendar[slot]);
        self.telemetry.gauge(self.telemetry.ids.sched_wake_events, events.len() as u64);
        for &ev in &events {
            match ev {
                WakeEvent::Inject(n) => {
                    let node = NodeId(n);
                    let router = self.topology.router_of(node);
                    let port = self.topology.local_port_of(node);
                    while let Some(flit) = self.inject_pipes[n].pop_ready(now) {
                        if self.telemetry.tracing() {
                            self.telemetry.trace(TraceEvent {
                                router: router.0 as u32,
                                port: port.0 as u32,
                                vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
                                packet: flit.packet.id.0,
                                flit: flit.index() as u32,
                                ..TraceEvent::at(now, TraceEventKind::Inject)
                            });
                        }
                        self.routers[router.0].accept_flit(port, flit);
                    }
                    Self::activate(
                        &mut self.gating.active_mark,
                        &mut self.gating.work,
                        router.0,
                        now.0,
                    );
                }
                WakeEvent::FlitLink(r, p) => {
                    let (down, down_port) = self
                        .routes
                        .neighbor(RouterId(r), PortId(p))
                        .expect("flit pipe exists only on connected ports");
                    while let Some(flit) = self.flit_pipes[r][p]
                        .as_mut()
                        .expect("connected port has a pipe")
                        .pop_ready(now)
                    {
                        self.routers[down.0].accept_flit(down_port, flit);
                    }
                    Self::activate(
                        &mut self.gating.active_mark,
                        &mut self.gating.work,
                        down.0,
                        now.0,
                    );
                }
                // Credit deliveries never wake a router: a credit only
                // increments an output-side counter, and output state is
                // unread by an empty cycle — a quiescent router has no flit
                // the credit could release. A non-quiescent receiver is
                // already in the active set (flit delivery activated it and
                // retention holds it until it drains), so the credit is
                // applied before its step either way.
                WakeEvent::CreditLink(r, p) => match self.credit_dests[r][p] {
                    CreditDest::Upstream(ur, up) => {
                        while let Some(vc) = self.credit_pipes[r][p].pop_ready(now) {
                            self.routers[ur.0].credit_return(up, vc);
                        }
                    }
                    CreditDest::Source(node) => {
                        while let Some(vc) = self.credit_pipes[r][p].pop_ready(now) {
                            self.sources[node.0].credit_return(vc);
                        }
                    }
                    CreditDest::Unconnected => {
                        unreachable!("credit on unconnected port {p} of router {r}")
                    }
                },
            }
        }
        events.clear();
        self.gating.calendar[slot] = events;
        span = self.telemetry.span_lap(SpanKind::Deliver, now.0, span);

        // 5. Step the active routers in ascending index order (stats
        // accumulation and ejection order must match the ungated sweep).
        // Skipped quiescent cycles are replayed first; a router leaves the
        // set only after a step that begins and ends quiescent, so its last
        // executed cycle before a skip is always a real empty cycle.
        let mut out = std::mem::take(&mut self.step_out);
        let mut work = std::mem::take(&mut self.gating.work);
        work.sort_unstable();
        self.telemetry.gauge(self.telemetry.ids.sched_active_routers, work.len() as u64);
        for &r in &work {
            let was_quiescent = self.routers[r].is_quiescent();
            let gap = now.0 - self.gating.stepped_until[r];
            if gap > 0 {
                self.routers[r].note_idle_cycles(gap);
            }
            self.routers[r].step_into(now, &mut out, &mut self.telemetry);
            self.gating.router_steps += 1;
            self.gating.stepped_until[r] = now.0 + 1;
            for (p, mut flit) in out.flits.drain(..) {
                if self.topology.is_local_port(p) {
                    debug_assert_eq!(
                        self.topology.node_at(RouterId(r), p),
                        Some(flit.packet.dest),
                        "flit ejected at the wrong terminal"
                    );
                    if self.telemetry.tracing() {
                        self.telemetry.trace(TraceEvent {
                            router: r as u32,
                            port: p.0 as u32,
                            vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
                            packet: flit.packet.id.0,
                            flit: flit.index() as u32,
                            ..TraceEvent::at(now, TraceEventKind::Eject)
                        });
                    }
                    if in_window {
                        self.stats.record_ejection(
                            flit.packet.source,
                            flit.is_tail(),
                            flit.packet.created_at,
                            now,
                        );
                    }
                    if flit.is_tail() {
                        self.ejected.push(EjectedPacket { packet: flit.packet, at: now });
                    }
                } else {
                    let (down, _) =
                        self.routes.neighbor(RouterId(r), p).expect("route uses connected ports");
                    let (out_port, lookahead, _) = self.resolve_route(down, flit.packet.dest);
                    flit.set_route(out_port, lookahead);
                    if self.telemetry.tracing() {
                        self.telemetry.trace(TraceEvent {
                            router: r as u32,
                            port: p.0 as u32,
                            vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
                            packet: flit.packet.id.0,
                            flit: flit.index() as u32,
                            ..TraceEvent::at(now, TraceEventKind::LinkTraversal)
                        });
                    }
                    self.flit_pipes[r][p.0]
                        .as_mut()
                        .expect("connected port has a pipe")
                        .push(now, flit);
                    let due = now.0 + FLIT_LATENCY;
                    if self.gating.flit_sched[r][p.0] != due {
                        self.gating.flit_sched[r][p.0] = due;
                        self.gating.calendar[(due % WAKE_RING as u64) as usize]
                            .push(WakeEvent::FlitLink(r, p.0));
                    }
                }
            }
            for (p, vc) in out.credits.drain(..) {
                if self.telemetry.tracing() {
                    self.telemetry.trace(TraceEvent {
                        router: r as u32,
                        port: p.0 as u32,
                        vc: vc.0 as u32,
                        ..TraceEvent::at(now, TraceEventKind::CreditReturn)
                    });
                }
                self.credit_pipes[r][p.0].push(now, vc);
                let due = now.0 + CREDIT_LATENCY;
                if self.gating.credit_sched[r][p.0] != due {
                    self.gating.credit_sched[r][p.0] = due;
                    self.gating.calendar[(due % WAKE_RING as u64) as usize]
                        .push(WakeEvent::CreditLink(r, p.0));
                }
            }
            if !(was_quiescent && self.routers[r].is_quiescent()) {
                Self::activate(
                    &mut self.gating.active_mark,
                    &mut self.gating.pending,
                    r,
                    now.0 + 1,
                );
            }
        }
        work.clear();
        self.gating.work = work;
        std::mem::swap(&mut self.gating.work, &mut self.gating.pending);
        self.step_out = out;
        self.telemetry.span_lap(SpanKind::RouterStep, now.0, span);

        self.now = now.plus(1);
    }

    /// Total [`vix_router::Router::step_into`] calls so far. Under activity
    /// gating this counts only the routers actually visited — an idle
    /// network performs zero router steps per cycle.
    #[must_use]
    pub fn router_steps(&self) -> u64 {
        self.gating.router_steps
    }

    /// True when no flit remains anywhere (buffers, links, sources).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.routers.iter().all(Router::is_empty)
            && self.sources.iter().all(SourceQueue::is_idle)
            && self.inject_pipes.iter().all(Pipe::is_empty)
            && self
                .flit_pipes
                .iter()
                .flatten()
                .all(|p| p.as_ref().is_none_or(Pipe::is_empty))
    }

    /// Activity counters of router `r`, with the cycles a gated run has
    /// not yet replayed credited back, so gated and ungated runs report
    /// identical activity (and, through `vix-power`, identical energy).
    fn router_activity(&self, r: usize) -> ActivityCounters {
        let mut a = *self.routers[r].activity();
        if self.cfg.activity_gating {
            a.cycles += self.now.0 - self.gating.stepped_until[r];
        }
        a
    }

    /// Per-router activity counters (index = router id), e.g. for energy
    /// or hotspot maps.
    #[must_use]
    pub fn per_router_activity(&self) -> Vec<ActivityCounters> {
        (0..self.routers.len()).map(|r| self.router_activity(r)).collect()
    }

    /// Per-router crossbar utilisation over the run so far: flits
    /// traversed / (cycles × output ports) — a hotspot map of the network
    /// (values in `[0, 1]`).
    #[must_use]
    pub fn utilization_map(&self) -> Vec<f64> {
        let ports = self.topology.radix() as f64;
        (0..self.routers.len())
            .map(|r| {
                let a = self.router_activity(r);
                if a.cycles == 0 {
                    0.0
                } else {
                    a.crossbar_traversals as f64 / (a.cycles as f64 * ports)
                }
            })
            .collect()
    }

    /// Sum of activity counters across all routers.
    #[must_use]
    pub fn aggregate_activity(&self) -> ActivityCounters {
        let mut total = ActivityCounters::new();
        for r in 0..self.routers.len() {
            total.merge(&self.router_activity(r));
        }
        total
    }

    /// Allocator matching record merged over every router (paper §4's
    /// matching-efficiency metric). Always available — the allocators keep
    /// these counters regardless of the telemetry configuration.
    #[must_use]
    pub fn matching_summary(&self) -> MatchingSummary {
        let mut total = MatchingSummary::default();
        for r in &self.routers {
            total.merge(&r.matching_summary());
        }
        total
    }

    /// The telemetry sink (trace ring and metrics registry) accumulated so
    /// far.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Consumes the sim and hands back its telemetry sink — for callers
    /// that step manually and only need the trace/metrics afterwards.
    #[must_use]
    pub fn into_telemetry(self) -> TelemetrySink {
        self.telemetry
    }

    /// Sets per-router cost weights for the sharded engine's partition:
    /// the next sharded [`NetworkSim::run_cycles`] uses
    /// [`ShardPlan::weighted`](crate::ShardPlan::weighted) over these
    /// instead of the uniform equal split. Weights are relative (only
    /// ratios matter) — e.g. per-router utilization from a prior run, or
    /// a prior run's per-shard busy ratios spread over each shard's
    /// routers (`vixsim --shard-weights`).
    ///
    /// Any contiguous partition is bit-identical to serial, so this is
    /// purely a load-balance knob; results never change.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one weight per router and every
    /// weight is finite, non-negative, and at least one is positive.
    pub fn set_shard_weights(&mut self, weights: &[f64]) {
        assert_eq!(
            weights.len(),
            self.routers.len(),
            "need exactly one shard weight per router"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "shard weights must be finite and non-negative"
        );
        let max = weights.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 0.0, "at least one shard weight must be positive");
        // Fixed-point scale: the heaviest router costs 65536, everything
        // else proportional, floors clamped to 1 so no router is free.
        self.shard_weights = Some(
            weights
                .iter()
                .map(|w| ((w / max * 65536.0).round() as u64).max(1))
                .collect(),
        );
    }

    /// Clears weights set by [`NetworkSim::set_shard_weights`], restoring
    /// the uniform equal-split partition.
    pub fn clear_shard_weights(&mut self) {
        self.shard_weights = None;
    }

    /// Resolves [`SimConfig::shards`] to the thread count a
    /// [`NetworkSim::run_cycles`] call will actually use — the calling
    /// thread steps shard 0, so `S` shards are `S` threads, not `S + 1`:
    /// `0` (auto) becomes [`std::thread::available_parallelism`] capped
    /// so that each shard owns at least
    /// [`MIN_AUTO_ROUTERS`](Self::MIN_AUTO_ROUTERS) routers (tiny shards
    /// are barrier-dominated), any explicit count is
    /// clamped to the router count (a shard must own at least one
    /// router), and runs with telemetry recording enabled (tracing or
    /// metrics) fall back to `1` — trace-event order and per-cycle
    /// scheduler gauges are defined by the serial schedulers.
    #[must_use]
    pub fn effective_shards(&self) -> usize {
        if self.cfg.shards == 1
            || self.cfg.telemetry.tracing
            || self.cfg.telemetry.metrics
        {
            return 1;
        }
        let requested = if self.cfg.shards == 0 {
            let cap = (self.routers.len() / Self::MIN_AUTO_ROUTERS).max(1);
            crate::runner::resolve_jobs(0).min(cap)
        } else {
            self.cfg.shards
        };
        requested.clamp(1, self.routers.len())
    }

    /// Minimum routers per shard the `--shards auto` heuristic will
    /// accept: below this, per-cycle work is too small to amortize even a
    /// spin barrier and extra shards slow the run down. Explicit shard
    /// counts are not constrained (parity tests drive 1-router shards).
    pub const MIN_AUTO_ROUTERS: usize = 4;

    /// Advances the simulation by `cycles` cycles, using the sharded
    /// parallel engine when [`NetworkSim::effective_shards`] resolves to
    /// more than one shard and plain [`NetworkSim::step`] calls
    /// otherwise.
    ///
    /// The sharded engine is bit-identical to serial stepping for every
    /// shard count (`tests/shard_parity.rs`; DESIGN.md §8), and the
    /// simulation can be handed back and forth between the two paths:
    /// after a sharded stretch, serial `step()` calls continue from a
    /// fully reconstructed scheduler state.
    pub fn run_cycles(&mut self, cycles: u64) {
        let shards = self.effective_shards();
        if shards <= 1 {
            if self.cfg.shards != 1
                && (self.cfg.telemetry.tracing || self.cfg.telemetry.metrics)
            {
                // A loud warning, not an info line: the user explicitly
                // asked for a multi-shard run and is silently getting a
                // serial one. Trace-event order and per-cycle scheduler
                // gauges are defined by the serial schedulers (DESIGN.md
                // §8); engine self-profiling does NOT force this fallback.
                vix_telemetry::warn!(
                    "shards={} requested but flit tracing/metrics recording is on: \
                     falling back to the serial engine (recording sinks are \
                     serial-only, DESIGN.md §8); results are bit-identical, only \
                     wall-clock differs. Engine profiling (--profile-out/--heartbeat) \
                     does not force this fallback.",
                    self.cfg.shards,
                );
            }
            for _ in 0..cycles {
                self.step();
            }
        } else {
            crate::shard::run_sharded(self, cycles, shards);
        }
    }

    /// Runs the full warmup + measure + drain protocol and returns the
    /// measurement-window statistics.
    #[must_use]
    pub fn run(self) -> NetworkStats {
        self.run_with_telemetry().0
    }

    /// Like [`NetworkSim::run`], but also hands back the telemetry sink so
    /// the caller can export the flit trace and metrics registry.
    #[must_use]
    pub fn run_with_telemetry(mut self) -> (NetworkStats, TelemetrySink) {
        let total = self.cfg.warmup + self.cfg.measure + self.cfg.drain;
        self.run_cycles(total);
        // `self` is consumed: move the stats out instead of deep-copying
        // the per-source latency sample vectors.
        let activity = self.aggregate_activity();
        let matching = self.matching_summary();
        let mut stats = self.stats;
        stats.set_activity(activity);
        stats.set_matching(matching);
        (stats, self.telemetry)
    }

    /// Measurement statistics collected so far (useful when stepping
    /// manually).
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::{AllocatorKind, NetworkConfig, TopologyKind};

    fn small_cfg(alloc: AllocatorKind, rate: f64) -> SimConfig {
        let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, alloc);
        net.nodes = 16;
        SimConfig::new(net, rate).with_windows(200, 800, 400)
    }

    #[test]
    fn packets_flow_end_to_end() {
        let stats = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.02)).unwrap().run();
        assert!(stats.packets_ejected() > 50, "got {}", stats.packets_ejected());
        assert!(stats.avg_packet_latency() > 0.0);
    }

    #[test]
    fn low_load_accepted_equals_offered() {
        let stats = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.02)).unwrap().run();
        let offered = stats.offered_packets_per_node_cycle();
        let accepted = stats.accepted_packets_per_node_cycle();
        assert!(
            (offered - accepted).abs() / offered < 0.1,
            "offered {offered} vs accepted {accepted}"
        );
    }

    #[test]
    fn network_drains_after_run() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.05)).unwrap();
        for _ in 0..(200 + 800 + 400) {
            sim.step();
        }
        assert!(sim.is_drained(), "all packets must leave during the drain window");
    }

    #[test]
    fn zero_load_latency_matches_pipeline_model() {
        // At very low load there is no contention. A packet injected at t
        // reaches its first router at t+1 (injection link), traverses a
        // switch on arrival, and each of the remaining H−1 routers costs
        // FLIT_LATENCY: latency = 1 + (H−1)·FLIT_LATENCY.
        let mut cfg = small_cfg(AllocatorKind::InputFirst, 0.005);
        cfg.packet_len = 1;
        let stats = NetworkSim::build(cfg).unwrap().run();
        // 4x4 mesh, uniform non-self pairs: avg Manhattan distance 8/3,
        // so H = 8/3 + 1 ≈ 3.67 routers.
        let avg_hops = 8.0 / 3.0 + 1.0;
        let expected = 1.0 + (avg_hops - 1.0) * FLIT_LATENCY as f64;
        let got = stats.avg_packet_latency();
        assert!(
            (got - expected).abs() < 3.0,
            "zero-load latency {got} far from model {expected}"
        );
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = NetworkSim::build(small_cfg(AllocatorKind::Vix, 0.05)).unwrap().run();
        let b = NetworkSim::build(small_cfg(AllocatorKind::Vix, 0.05)).unwrap().run();
        assert_eq!(a.packets_ejected(), b.packets_ejected());
        assert_eq!(a.avg_packet_latency(), b.avg_packet_latency());
        assert_eq!(a.per_source_packets(), b.per_source_packets());
    }

    #[test]
    fn different_seeds_differ() {
        let a = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.05)).unwrap().run();
        let b = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.05).with_seed(99))
            .unwrap()
            .run();
        assert_ne!(a.packets_ejected(), b.packets_ejected());
    }

    #[test]
    fn all_allocators_run_on_all_topologies() {
        for topo in [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
            for alloc in [
                AllocatorKind::InputFirst,
                AllocatorKind::Vix,
                AllocatorKind::Wavefront,
                AllocatorKind::WavefrontVix,
                AllocatorKind::AugmentingPath,
                AllocatorKind::PacketChaining,
            ] {
                let net = NetworkConfig::paper_default(topo, alloc);
                let cfg = SimConfig::new(net, 0.02).with_windows(100, 300, 300);
                let stats = NetworkSim::build(cfg).unwrap().run();
                assert!(
                    stats.packets_ejected() > 0,
                    "{alloc:?} moved nothing on {topo:?}"
                );
            }
        }
    }

    #[test]
    fn activity_counters_are_consistent() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.05)).unwrap();
        for _ in 0..1400 {
            sim.step();
        }
        let a = sim.aggregate_activity();
        assert_eq!(a.buffer_reads, a.crossbar_traversals, "every read crosses the switch");
        assert_eq!(
            a.buffer_writes, a.buffer_reads,
            "drained network: every buffered flit left again"
        );
        assert_eq!(
            a.crossbar_traversals,
            a.link_traversals + a.ejections,
            "a crossed flit either leaves on a link or ejects"
        );
        assert!(a.ejections > 0);
    }

    #[test]
    fn external_injection_delivers_with_tags() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.0)).unwrap();
        let id = sim.inject(NodeId(0), NodeId(15), 4, 77);
        for _ in 0..100 {
            sim.step();
        }
        let ejected = sim.take_ejections();
        assert_eq!(ejected.len(), 1);
        assert_eq!(ejected[0].packet.id, id);
        assert_eq!(ejected[0].packet.dest, NodeId(15));
        assert_eq!(ejected[0].packet.tag, 77);
        assert!(sim.take_ejections().is_empty(), "take drains the queue");
    }

    #[test]
    fn external_injection_latency_is_plausible() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.0)).unwrap();
        sim.inject(NodeId(0), NodeId(3), 1, 0); // 3 hops east + eject
        let mut seen = None;
        for _ in 0..50 {
            sim.step();
            if let Some(e) = sim.take_ejections().pop() {
                seen = Some(e);
                break;
            }
        }
        let e = seen.expect("packet must arrive");
        // H = 4 routers: latency = 1 + 3·FLIT_LATENCY.
        assert_eq!(e.at.since(e.packet.created_at), 1 + 3 * FLIT_LATENCY);
    }

    #[test]
    fn utilization_map_is_bounded_and_loaded() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.08)).unwrap();
        for _ in 0..1500 {
            sim.step();
        }
        let map = sim.utilization_map();
        assert_eq!(map.len(), 16);
        assert!(map.iter().all(|&u| (0.0..=1.0).contains(&u)));
        assert!(map.iter().any(|&u| u > 0.01), "traffic must register in the map");
        // Centre routers carry through-traffic: busier than corner 0.
        let centre = map[5].max(map[6]).max(map[9]).max(map[10]);
        assert!(centre >= map[0], "centre {centre} vs corner {}", map[0]);
    }

    #[test]
    fn per_router_activity_sums_to_aggregate() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.05)).unwrap();
        for _ in 0..500 {
            sim.step();
        }
        let per = sim.per_router_activity();
        assert_eq!(per.len(), 16);
        let total = sim.aggregate_activity();
        assert_eq!(per.iter().map(|a| a.buffer_writes).sum::<u64>(), total.buffer_writes);
        assert_eq!(per.iter().map(|a| a.ejections).sum::<u64>(), total.ejections);
    }

    #[test]
    fn vix_network_uses_vix_allocator() {
        let sim = NetworkSim::build(small_cfg(AllocatorKind::Vix, 0.01)).unwrap();
        assert_eq!(sim.config().network.router.virtual_inputs_per_port(), 2);
    }

    #[test]
    fn gated_and_ungated_runs_are_bit_identical() {
        for alloc in [AllocatorKind::Vix, AllocatorKind::PacketChaining] {
            let cfg = small_cfg(alloc, 0.05);
            let gated = NetworkSim::build(cfg.with_activity_gating(true)).unwrap().run();
            let ungated = NetworkSim::build(cfg.with_activity_gating(false)).unwrap().run();
            assert_eq!(gated.packets_ejected(), ungated.packets_ejected());
            assert_eq!(gated.avg_packet_latency(), ungated.avg_packet_latency());
            assert_eq!(gated.per_source_packets(), ungated.per_source_packets());
            assert_eq!(gated.activity(), ungated.activity(), "{alloc:?} activity differs");
        }
    }

    #[test]
    fn gated_idle_network_steps_no_routers() {
        let cfg = small_cfg(AllocatorKind::InputFirst, 0.0);
        let mut gated = NetworkSim::build(cfg).unwrap();
        let mut ungated = NetworkSim::build(cfg.with_activity_gating(false)).unwrap();
        for _ in 0..100 {
            gated.step();
            ungated.step();
        }
        assert_eq!(gated.router_steps(), 0, "idle routers must never be visited");
        assert_eq!(ungated.router_steps(), 100 * 16);
        assert_eq!(gated.aggregate_activity(), ungated.aggregate_activity());
        assert_eq!(gated.per_router_activity(), ungated.per_router_activity());
        assert_eq!(gated.utilization_map(), ungated.utilization_map());
    }

    #[test]
    fn gated_network_requiesces_after_traffic_drains() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::Vix, 0.0)).unwrap();
        sim.inject(NodeId(0), NodeId(15), 4, 0);
        for _ in 0..100 {
            sim.step();
        }
        assert_eq!(sim.take_ejections().len(), 1);
        assert!(sim.is_drained());
        let busy_steps = sim.router_steps();
        assert!(busy_steps > 0);
        for _ in 0..50 {
            sim.step();
        }
        assert_eq!(sim.router_steps(), busy_steps, "drained network must go fully quiescent");
    }

    #[test]
    fn gated_stepping_matches_ungated_at_every_cycle() {
        // Lockstep, not just end-of-run: per-cycle ejections and activity
        // must agree while packets are still in flight.
        let cfg = small_cfg(AllocatorKind::WavefrontVix, 0.08);
        let mut gated = NetworkSim::build(cfg.with_activity_gating(true)).unwrap();
        let mut ungated = NetworkSim::build(cfg.with_activity_gating(false)).unwrap();
        for cycle in 0..600 {
            gated.step();
            ungated.step();
            assert_eq!(
                gated.take_ejections(),
                ungated.take_ejections(),
                "ejections diverge at cycle {cycle}"
            );
            if cycle % 97 == 0 {
                assert_eq!(
                    gated.aggregate_activity(),
                    ungated.aggregate_activity(),
                    "activity diverges at cycle {cycle}"
                );
            }
        }
    }
}
