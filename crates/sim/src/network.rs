//! Whole-network simulation: routers, links, sources, and the
//! warmup/measure/drain protocol.
//!
//! [`NetworkSim`] owns the network — the static [`Wiring`] and the slices
//! it is cut into at build (`Slice` in `cycle.rs`) — the run's one traffic
//! generator ([`TrafficGen`], phase 1 of a cycle), the packet ledger and
//! the statistics. No cycle is written here: every stepping method runs
//! [`crate::shard`]'s cycle protocol over the slices.

use crate::cycle::{GatingState, PacketLedger, PacketLog, Slice};
use crate::shard::{Exchange, ShardPlan};
use crate::source::SourceQueue;
use crate::stats::NetworkStats;
use vix_rng::rngs::StdRng;
use vix_rng::SeedableRng;
use vix_alloc::build_allocator;
use vix_core::config::TelemetrySettings;
use vix_core::{
    ActivityCounters, ConfigError, Cycle, NodeId, PacketDescriptor, PacketId, PortId, RouterId,
    SimConfig,
};
use vix_router::{Router, RouterEnv};
use vix_telemetry::{HistogramId, MatchingSummary, TelemetrySink, ENGINE_TRACK};
use vix_topology::{build_topology, Topology};
use vix_traffic::{BernoulliInjector, TrafficPattern};

/// The far end of the two links through one router port: the flit link
/// leaving the router through it, and the credit link leaving its input
/// side. Links are bidirectional, so both end at the same place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Far {
    /// Router `.0`: flits enter its input port `.1`, credits return to its
    /// output port `.1`.
    Router(u32, u8),
    /// A terminal: flits eject to it, credits return to its source queue.
    Terminal(u32),
    /// Unconnected (mesh edge); nothing ever flows.
    Open,
}

/// Everything static about the network, read off the [`Topology`] once at
/// build: routes, link ends and terminal attachments. Routing is
/// deterministic and the topology never changes, so the cycle body does
/// table loads where it would otherwise make virtual topology calls (a
/// mesh's `neighbor` divides by the mesh side to recover coordinates).
#[derive(Debug, Clone)]
pub(crate) struct Wiring {
    nodes: usize,
    pub(crate) radix: usize,
    /// `(out_port, lookahead_port, dimension)` per `(router, dest)` pair.
    routes: Vec<(u8, u8, u8)>,
    /// Far end per `(router, port)` pair.
    far: Vec<Far>,
    /// `(router, local port)` per terminal.
    attach: Vec<(u32, u8)>,
}

impl Wiring {
    fn build(topology: &dyn Topology) -> Self {
        let (routers, nodes, radix) = (topology.routers(), topology.nodes(), topology.radix());
        let port = |p: PortId| u8::try_from(p.0).expect("validated: port ids fit a byte");
        let id = |i: usize| u32::try_from(i).expect("router and node ids fit 32 bits");
        let mut routes = Vec::with_capacity(routers * nodes);
        for r in (0..routers).map(RouterId) {
            for d in (0..nodes).map(NodeId) {
                let out = topology.route(r, d);
                let lookahead = if topology.is_local_port(out) {
                    out
                } else {
                    let (next, _) = topology.neighbor(r, out).expect("route uses connected ports");
                    topology.route(next, d)
                };
                let dim = u8::try_from(topology.port_dimension(out)).expect("dimension fits a byte");
                routes.push((port(out), port(lookahead), dim));
            }
        }
        let far = (0..routers * radix)
            .map(|i| {
                let (r, p) = (RouterId(i / radix), PortId(i % radix));
                if let Some(node) = topology.node_at(r, p) {
                    Far::Terminal(id(node.0))
                } else if let Some((next, next_port)) = topology.neighbor(r, p) {
                    Far::Router(id(next.0), port(next_port))
                } else {
                    Far::Open
                }
            })
            .collect();
        let attach = (0..nodes)
            .map(NodeId)
            .map(|n| (id(topology.router_of(n).0), port(topology.local_port_of(n))))
            .collect();
        Wiring { nodes, radix, routes, far, attach }
    }

    /// The output port a packet for `dest` takes at `router`, the port it
    /// takes at the router after that (lookahead routing), and the
    /// dimension of the first.
    #[inline]
    pub(crate) fn resolve(&self, router: usize, dest: NodeId) -> (PortId, PortId, usize) {
        let (out, la, dim) = self.routes[router * self.nodes + dest.0];
        (PortId(out as usize), PortId(la as usize), dim as usize)
    }

    /// Where the links through port `port` of `router` end.
    #[inline]
    pub(crate) fn far(&self, router: usize, port: usize) -> Far {
        self.far[router * self.radix + port]
    }

    /// The router terminal `node` attaches to, and the local port it uses.
    #[inline]
    pub(crate) fn attachment(&self, node: usize) -> (usize, PortId) {
        let (router, port) = self.attach[node];
        (router as usize, PortId(port as usize))
    }
}

/// A packet delivered to its destination terminal (tail flit ejected), as
/// [`NetworkSim::step_into`] and [`NetworkSim::run_cycles_into`] append it
/// to the caller's buffer. The engine builds one only for such a buffer:
/// it keeps no record of delivered packets itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EjectedPacket {
    /// The delivered packet.
    pub packet: PacketDescriptor,
    /// Cycle its tail flit left the network.
    pub at: Cycle,
}

/// One router with its share of the scheduler's bookkeeping (DESIGN.md
/// §6c). What is in flight on its links rides its slice's wheels.
#[derive(Debug)]
pub(crate) struct RouterRecord {
    pub(crate) router: Router,
    /// Cycles of this router's history that have been executed or
    /// replayed; the gap to `now` is replayed lazily via
    /// `note_idle_cycles` when the router re-activates.
    pub(crate) stepped_until: u64,
}

/// Phase 1 of a cycle, and the run's single RNG: open-loop traffic
/// generation. One owner draws for every node in serial node order, so
/// the random stream, the packet-id sequence and the offered-packet count
/// do not depend on who steps the network afterwards.
#[derive(Debug)]
pub(crate) struct TrafficGen {
    pattern: TrafficPattern,
    injector: BernoulliInjector,
    rng: StdRng,
    /// Next packet id — shared with [`NetworkSim::inject`].
    next_packet: u64,
}

impl TrafficGen {
    /// Generates cycle `cycle`'s packets and hands each to `deliver`
    /// (nothing once the drain has begun). All nodes draw every cycle —
    /// RNG bit-identity.
    pub(crate) fn generate(
        &mut self,
        cycle: u64,
        cfg: &SimConfig,
        stats: &mut NetworkStats,
        mut deliver: impl FnMut(PacketDescriptor),
    ) {
        if cycle >= cfg.warmup + cfg.measure {
            return;
        }
        let nodes = cfg.network.nodes;
        for n in 0..nodes {
            if self.injector.fires(&mut self.rng) {
                let dest = self.pattern.pick_dest(NodeId(n), nodes, &mut self.rng);
                let id = PacketId(self.next_packet);
                self.next_packet += 1;
                deliver(PacketDescriptor::new(id, NodeId(n), dest, cfg.packet_len, Cycle(cycle)));
                if cycle >= cfg.warmup {
                    stats.record_offered(1);
                }
            }
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
    /// What the network was built from; the cycle body reads only the
    /// [`Wiring`] derived from it.
    pub(crate) topology: Box<dyn Topology>,
    pub(crate) wiring: Wiring,
    /// How the routers are cut into slices, once, at build.
    pub(crate) plan: ShardPlan,
    /// The network, slice by slice in router order.
    pub(crate) slices: Vec<Slice>,
    /// The slots the slices exchange through.
    pub(crate) exchange: Exchange,
    pub(crate) traffic: TrafficGen,
    pub(crate) now: Cycle,
    pub(crate) stats: NetworkStats,
    /// Descriptors of the packets in flight; see [`PacketLedger`].
    pub(crate) ledger: PacketLedger,
    /// Event/metric sink built from [`SimConfig::telemetry`]; disabled by
    /// default, in which case every hook compiles to a cheap branch. It
    /// takes in the slices' sinks whenever a stepping call returns.
    pub(crate) telemetry: TelemetrySink,
    /// Per-router VC-occupancy histogram ids (empty when metrics are off).
    pub(crate) vc_occupancy: Vec<HistogramId>,
}

/// Resolves [`SimConfig::shards`] to a slice count for `routers` routers;
/// see [`NetworkSim::effective_shards`].
fn resolve_shards(shards: usize, routers: usize) -> usize {
    let requested = match shards {
        0 => crate::runner::resolve_jobs(0).min((routers / NetworkSim::MIN_AUTO_ROUTERS).max(1)),
        n => n,
    };
    requested.clamp(1, routers)
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
    /// invalid, the topology cannot host the node count, or the pattern
    /// cannot address it ([`TrafficPattern::validate`]).
    pub fn build_with_pattern(cfg: SimConfig, pattern: TrafficPattern) -> Result<Self, ConfigError> {
        let topology = build_topology(cfg.network.topology, cfg.network.nodes)?;
        let radix = topology.radix();
        let router_cfg = cfg.network.router.with_ports(radix);
        let run_cfg = SimConfig { network: vix_core::NetworkConfig { router: router_cfg, ..cfg.network }, ..cfg };
        run_cfg.validate()?;
        pattern.validate(cfg.network.nodes)?;

        let env = RouterEnv::new(
            (0..radix).map(|p| topology.port_dimension(PortId(p))).collect(),
            (0..radix).map(|p| topology.is_local_port(PortId(p))).collect(),
        );
        let wiring = Wiring::build(topology.as_ref());
        let mut routers = (0..topology.routers())
            .map(|r| RouterRecord {
                router: Router::new(
                    RouterId(r),
                    router_cfg,
                    build_allocator(run_cfg.network.allocator, &router_cfg),
                    env.clone(),
                ),
                stepped_until: 0,
            });

        let groups = router_cfg.virtual_inputs_per_port();
        let mut terminals = (0..cfg.network.nodes).map(|n| {
            let (vcs, depth) = (router_cfg.vcs_per_port(), router_cfg.buffer_depth());
            SourceQueue::new(NodeId(n), vcs, depth, groups, router_cfg.dimension_aware_va)
        });

        let injector = BernoulliInjector::new(cfg.injection_rate)?;
        let stats = NetworkStats::new(cfg.network.nodes, cfg.measure, cfg.packet_len);
        let mut telemetry = TelemetrySink::new(run_cfg.telemetry);
        let occupancy_bounds: Vec<u64> = if telemetry.metrics_enabled() {
            (0..=router_cfg.buffer_depth() as u64).collect()
        } else {
            Vec::new()
        };
        let vc_occupancy: Vec<HistogramId> = (0..topology.routers())
            .filter_map(|r| {
                telemetry.register_histogram(&format!("router{r}.vc_occupancy"), &occupancy_bounds)
            })
            .collect();

        // The slices, cut once. Each records on its own profiling track
        // with its share of the span capacity; a lone slice's track is
        // the engine's, as the run has only the one thread.
        let shards = resolve_shards(cfg.shards, topology.routers());
        let plan = ShardPlan::new(topology.as_ref(), shards);
        let span_cap = (TelemetrySettings::DEFAULT_SPAN_CAPACITY / shards).max(1024);
        let slices: Vec<Slice> = (0..shards)
            .map(|s| {
                let (range, nodes) = (plan.router_range(s), plan.node_range(topology.as_ref(), s));
                let track = if shards == 1 { ENGINE_TRACK } else { s as u32 };
                Slice {
                    idx: s,
                    router_off: range.start,
                    node_off: nodes.start,
                    routers: routers.by_ref().take(range.len()).collect(),
                    terminals: terminals.by_ref().take(nodes.len()).collect(),
                    // An input port frees at most one buffer slot per
                    // virtual input a cycle.
                    gating: GatingState::new(&wiring, plan, s, nodes.len(), groups),
                    log: PacketLog::default(),
                    sink: telemetry.for_shard(track, span_cap),
                    panic_at: None,
                }
            })
            .collect();
        let exchange = Exchange::new(&slices, &wiring, plan, groups);
        Ok(NetworkSim {
            cfg: run_cfg,
            topology,
            wiring,
            plan,
            slices,
            exchange,
            traffic: TrafficGen {
                pattern,
                injector,
                rng: StdRng::seed_from_u64(cfg.seed),
                next_packet: 0,
            },
            now: Cycle::ZERO,
            stats,
            ledger: PacketLedger::default(),
            telemetry,
            vc_occupancy,
        })
    }

    /// Test fault hook: slice `shard` panics at the top of cycle `cycle`
    /// (`tests/shard_panic.rs`). A run that panicked is not resumable.
    #[doc(hidden)]
    pub fn inject_shard_panic(&mut self, cycle: u64, shard: usize) {
        self.slices[shard].panic_at = Some(cycle);
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
    /// Panics if `source`/`dest` are out of range or `len` is not in 1..=65535.
    pub fn inject(&mut self, source: NodeId, dest: NodeId, len: usize, tag: u64) -> PacketId {
        assert!(source.0 < self.cfg.network.nodes, "source {source} out of range");
        assert!(dest.0 < self.cfg.network.nodes, "dest {dest} out of range");
        assert!((1..=u16::MAX as usize).contains(&len), "packet length {len} outside 1..=65535 flits");
        let id = PacketId(self.traffic.next_packet);
        self.traffic.next_packet += 1;
        let packet = PacketDescriptor::new(id, source, dest, len, self.now).with_tag(tag);
        let (router, _) = self.wiring.attachment(source.0);
        self.slices[self.plan.shard_of_router(router)].enqueue(packet);
        id
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

    /// Runs one cycle of the whole network on the calling thread:
    /// [`crate::shard`]'s cycle protocol — phase 1 from the run's traffic
    /// generator, then the cycle body over each slice in order, then the
    /// slices' packet logs into the ledger, the statistics, the scheduler
    /// gauges and, on a heartbeat cycle, the heartbeat. It spawns no
    /// thread and meets no barrier; with one slice (the default) it takes
    /// no lock either.
    ///
    /// The body visits only active routers and links with a delivery due;
    /// quiescent routers are skipped and their idle history replayed on
    /// re-activation, so statistics, activity counters and ejection order
    /// are those of stepping every router every cycle
    /// (`tests/reference_parity.rs` holds them to an independent simulator
    /// that does). The cycle's delivered packets are not kept; see
    /// [`NetworkSim::step_into`].
    pub fn step(&mut self) {
        self.drive(1, false, None);
    }

    /// Like [`NetworkSim::step`], and appends the packets this cycle
    /// delivers (in every window) to `delivered`, in ejection order:
    /// ascending router, and each router's ejections in output order.
    pub fn step_into(&mut self, delivered: &mut Vec<EjectedPacket>) {
        self.drive(1, false, Some(delivered));
    }

    /// Total [`vix_router::Router::step_into`] calls so far: only the
    /// routers actually visited — an idle network performs zero router
    /// steps per cycle.
    #[must_use]
    pub fn router_steps(&self) -> u64 {
        self.slices.iter().map(|s| s.gating.router_steps).sum()
    }

    /// Every router record, in router order.
    fn routers(&self) -> impl Iterator<Item = &RouterRecord> {
        self.slices.iter().flat_map(|s| &s.routers)
    }

    /// True when no flit remains anywhere (buffers, links, sources) and the
    /// ledger is empty. A flit on a link is part of a packet the ledger
    /// holds, so the ledger speaks for the links.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.slices.iter().all(|s| s.terminals.iter().all(SourceQueue::is_idle))
            && self.routers().all(|r| r.router.is_empty())
            && self.ledger.is_empty()
    }

    /// Activity counters of `rec`'s router, with the skipped cycles the
    /// scheduler has not yet replayed credited back, so a run reports the
    /// activity (and, through `vix-power`, the energy) of stepping every
    /// router every cycle.
    fn router_activity(&self, rec: &RouterRecord) -> ActivityCounters {
        let mut a = *rec.router.activity();
        a.cycles += self.now.0 - rec.stepped_until;
        a
    }

    /// Per-router activity counters (index = router id), e.g. for energy
    /// or hotspot maps.
    #[must_use]
    pub fn per_router_activity(&self) -> Vec<ActivityCounters> {
        self.routers().map(|rec| self.router_activity(rec)).collect()
    }

    /// Sum of activity counters across all routers.
    #[must_use]
    pub fn aggregate_activity(&self) -> ActivityCounters {
        let mut total = ActivityCounters::new();
        for rec in self.routers() {
            total.merge(&self.router_activity(rec));
        }
        total
    }

    /// Allocator matching record merged over every router (paper §4's
    /// matching-efficiency metric). Always available — the allocators keep
    /// these counters regardless of the telemetry configuration.
    #[must_use]
    pub fn matching_summary(&self) -> MatchingSummary {
        let mut total = MatchingSummary::default();
        for r in self.routers() {
            total.merge(&r.router.matching_summary());
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

    /// The number of slices the network was cut into at build, which is
    /// the thread count a [`NetworkSim::run_cycles`] call uses — the
    /// calling thread steps slice 0, so `S` slices are `S` threads, not
    /// `S + 1`. [`SimConfig::shards`] resolves to it: `0` (auto) becomes
    /// [`std::thread::available_parallelism`] capped so that each slice
    /// owns at least [`MIN_AUTO_ROUTERS`](Self::MIN_AUTO_ROUTERS) routers
    /// (tiny slices are barrier-dominated), and any explicit count is
    /// clamped to the router count (a slice must own at least one router).
    #[must_use]
    pub fn effective_shards(&self) -> usize {
        self.slices.len()
    }

    /// Minimum routers per shard the `--shards auto` heuristic will
    /// accept: below this, per-cycle work is too small to amortize even a
    /// spin barrier and extra shards slow the run down. Explicit shard
    /// counts are not constrained (parity tests drive 1-router shards).
    pub const MIN_AUTO_ROUTERS: usize = 4;

    /// Advances the simulation by `cycles` cycles: with more than one
    /// slice ([`NetworkSim::effective_shards`]) on one thread per slice,
    /// and with one on the calling thread alone.
    ///
    /// Either way the run is bit-identical to `cycles` [`NetworkSim::step`]
    /// calls, recordings included (`tests/shard_parity.rs`; DESIGN.md §8),
    /// and the two mix freely: `step()` and `run_cycles` run the same cycle
    /// protocol over the same slices.
    pub fn run_cycles(&mut self, cycles: u64) {
        self.drive(cycles, true, None);
    }

    /// Like [`NetworkSim::run_cycles`], and appends the packets the
    /// `cycles` cycles deliver to `delivered`, cycle by cycle in
    /// [`NetworkSim::step_into`]'s order.
    pub fn run_cycles_into(&mut self, cycles: u64, delivered: &mut Vec<EjectedPacket>) {
        self.drive(cycles, true, Some(delivered));
    }

    /// The one driver behind every stepping method: `cycles` cycles on one
    /// thread per slice if `threads` and there is more than one slice, on
    /// the calling thread otherwise; then the slices' sinks into the run's.
    fn drive(&mut self, cycles: u64, threads: bool, delivered: Option<&mut Vec<EjectedPacket>>) {
        if threads && self.slices.len() > 1 {
            crate::shard::run_threads(self, cycles, delivered);
        } else {
            crate::shard::step_cycles(self, cycles, delivered);
        }
        for (s, slice) in self.slices.iter_mut().enumerate() {
            self.telemetry.absorb(s, &mut slice.sink);
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
        // `self` is consumed: move the stats out instead of cloning them.
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
    use crate::FLIT_LATENCY;
    use vix_core::{AllocatorKind, NetworkConfig, TopologyKind};

    fn small_cfg(alloc: AllocatorKind, rate: f64) -> SimConfig {
        let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, alloc);
        net.nodes = 16;
        SimConfig::new(net, rate).with_windows(200, 800, 400)
    }

    #[test]
    fn wiring_matches_topology() {
        let kinds = [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly];
        let sizes = kinds.iter().flat_map(|&k| [16, 64, 256].map(|n| (k, n)));
        for (kind, nodes) in sizes.chain([(TopologyKind::Mesh, 36)]) {
            let t = build_topology(kind, nodes).unwrap();
            let w = Wiring::build(t.as_ref());
            assert_eq!(w.radix, t.radix());
            for n in (0..nodes).map(NodeId) {
                let attached = (t.router_of(n).0, t.local_port_of(n));
                assert_eq!(w.attachment(n.0), attached, "{kind:?}/{nodes}: attachment of {n}");
            }
            for r in (0..t.routers()).map(RouterId) {
                for p in (0..t.radix()).map(PortId) {
                    let far = match (t.node_at(r, p), t.neighbor(r, p)) {
                        (Some(node), None) => Far::Terminal(node.0 as u32),
                        (None, Some((next, port))) => Far::Router(next.0 as u32, port.0 as u8),
                        (None, None) => Far::Open,
                        (Some(_), Some(_)) => panic!("{kind:?}/{nodes}: {r} {p} has two far ends"),
                    };
                    assert_eq!(w.far(r.0, p.0), far, "{kind:?}/{nodes}: far end of {r} {p}");
                }
                for d in (0..nodes).map(NodeId) {
                    let out = t.route(r, d);
                    let lookahead = t.neighbor(r, out).map_or(out, |(next, _)| t.route(next, d));
                    assert_eq!(
                        w.resolve(r.0, d),
                        (out, lookahead, t.port_dimension(out)),
                        "{kind:?}/{nodes}: route at {r} to {d}"
                    );
                }
            }
        }
    }

    /// Flits in router buffers, on flit links and on injection links:
    /// on the slices' wheels, or in a mailbox between two slices.
    fn flits_in_network(sim: &NetworkSim) -> usize {
        let buffered: usize = sim.routers().map(|r| r.router.buffered_flits()).sum();
        let wheels: usize = sim.slices.iter().map(|s| s.gating.arrivals.len()).sum();
        buffered + wheels + sim.exchange.mail_len()
    }

    #[test]
    fn ledger_holds_only_packets_in_flight() {
        // Saturated mesh-64 VIX: the source queues back up, the ledger
        // must not. A ledger entry is a packet with a flit in a buffer or
        // on a link, or — one per node — a packet whose head has ejected
        // while its tail still waits at the source.
        let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
        let cfg = SimConfig::new(net, 0.25).with_windows(0, 500, 0);
        for shards in [1, 3] {
            let mut sim = NetworkSim::build(cfg.with_shards(shards)).unwrap();
            let (mut peak, mut backlog) = (0, 0);
            loop {
                sim.run_cycles(if shards == 1 { 1 } else { 20 });
                let bound = flits_in_network(&sim) + sim.config().network.nodes;
                let live = sim.ledger.len();
                assert!(live <= bound, "shards {shards}, {}: {live} packets, bound {bound}", sim.now());
                peak = peak.max(live);
                let terminals = sim.slices.iter().flat_map(|s| &s.terminals);
                backlog = backlog.max(terminals.map(SourceQueue::backlog).sum());
                if sim.is_drained() {
                    break;
                }
                assert!(sim.now().0 < 5_000, "shards {shards}: no drain by cycle {}", sim.now());
            }
            assert_eq!(sim.ledger.len(), 0, "shards {shards}: drained, yet descriptors remain");
            assert!(backlog > 2 * peak, "shards {shards}: not saturated (backlog {backlog}, ledger {peak})");
        }
    }

    #[test]
    fn serial_heartbeat_wake_depth_is_the_wheels_length() {
        // A heartbeat's `wake_depth` counts the deliveries in flight as the
        // beat's cycle ends; with one slice, every one of them is on a wheel.
        let telemetry = vix_core::config::TelemetrySettings::disabled().with_heartbeat(50);
        let cfg = small_cfg(AllocatorKind::Vix, 0.1).with_telemetry(telemetry);
        let mut sim = NetworkSim::build(cfg).unwrap();
        for _ in 0..10 {
            sim.run_cycles(50);
            let beats = sim.telemetry().profiler().expect("heartbeats run the profiler").heartbeats();
            let beat = beats.last().expect("a beat every 50 cycles");
            let gating = &sim.slices[0].gating;
            let wheels = (gating.arrivals.len() + gating.returns.len()) as u64;
            assert_eq!(beat.cycle, sim.now().0);
            assert!(wheels > 0, "{}: nothing in flight", sim.now());
            assert_eq!(beat.wake_depth, wheels, "{}", sim.now());
        }
    }

    #[test]
    fn zero_cycle_calls_step_nothing() {
        // Not even phase 1: a zero-cycle call must leave the random stream
        // where it was, on either driver.
        let cfg = small_cfg(AllocatorKind::Vix, 0.05).with_shards(3);
        let (mut sim, mut twin) = (NetworkSim::build(cfg).unwrap(), NetworkSim::build(cfg).unwrap());
        for _ in 0..20 {
            sim.run_cycles(0);
            sim.run_cycles(7);
            twin.run_cycles(7);
        }
        assert_eq!(sim.now(), twin.now());
        assert_eq!(sim.stats(), twin.stats());
        assert_eq!(sim.per_router_activity(), twin.per_router_activity());
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
        let mut ejected = Vec::new();
        sim.run_cycles_into(100, &mut ejected);
        assert_eq!(ejected.len(), 1);
        assert_eq!(ejected[0].packet.id, id);
        assert_eq!(ejected[0].packet.dest, NodeId(15));
        assert_eq!(ejected[0].packet.tag, 77);
        sim.run_cycles_into(100, &mut ejected);
        assert_eq!(ejected.len(), 1, "a packet is delivered once");
    }

    #[test]
    fn external_injection_latency_is_plausible() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.0)).unwrap();
        sim.inject(NodeId(0), NodeId(3), 1, 0); // 3 hops east + eject
        let mut ejected = Vec::new();
        for _ in 0..50 {
            sim.step_into(&mut ejected);
            if !ejected.is_empty() {
                break;
            }
        }
        let e = ejected.pop().expect("packet must arrive");
        // H = 4 routers: latency = 1 + 3·FLIT_LATENCY.
        assert_eq!(e.at.since(e.packet.created_at), 1 + 3 * FLIT_LATENCY);
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
    fn gated_idle_network_steps_no_routers() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::InputFirst, 0.0)).unwrap();
        for _ in 0..100 {
            sim.step();
        }
        assert_eq!(sim.router_steps(), 0, "idle routers must never be visited");
        // The skipped cycles are credited back: every router reports the
        // whole run, as if it had been stepped every cycle.
        let idle = ActivityCounters { cycles: 100, routers: 1, ..ActivityCounters::new() };
        assert_eq!(sim.per_router_activity(), vec![idle; 16]);
        assert_eq!(sim.aggregate_activity(), ActivityCounters { routers: 16, ..idle });
        assert_eq!(sim.aggregate_activity().crossbar_traversals, 0);
    }

    #[test]
    fn gated_network_requiesces_after_traffic_drains() {
        let mut sim = NetworkSim::build(small_cfg(AllocatorKind::Vix, 0.0)).unwrap();
        sim.inject(NodeId(0), NodeId(15), 4, 0);
        let mut ejected = Vec::new();
        for _ in 0..100 {
            sim.step_into(&mut ejected);
        }
        assert_eq!(ejected.len(), 1);
        assert!(sim.is_drained());
        let busy_steps = sim.router_steps();
        assert!(busy_steps > 0);
        for _ in 0..50 {
            sim.step();
        }
        assert_eq!(sim.router_steps(), busy_steps, "drained network must go fully quiescent");
    }
}
