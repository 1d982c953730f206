//! A plain reference network simulator: the oracle `tests/reference_parity.rs`
//! and `tests/gating_parity.rs` hold the production engine to.
//!
//! It is written from the definitions — the cycle of DESIGN.md §6c, the
//! router of Fig. 6(b) and the VC allocation of the paper's §2.3 — not from
//! the engine, and it shares none of the engine's network, router or source
//! state. What it borrows is the public vocabulary above the router:
//!
//! * the [`Topology`] trait, for every route, link end and port dimension;
//! * [`build_allocator`] with [`RequestSet`], [`GrantSet`] and
//!   [`SwitchRequest`] — the allocator is the one shared component, and the
//!   kernels have oracles of their own (the in-crate differential suite and
//!   `tests/exhaustive_separable.rs`);
//! * `vix-traffic`'s injector and patterns over a `vix-rng` stream, so both
//!   simulators see the same offered packets.
//!
//! Everything is the plainest form that works:
//!
//! * one loop clocks every router every cycle, in ascending order, with no
//!   activity gating and no idle replay;
//! * a link is a `VecDeque` of `(due cycle, item)`;
//! * a fat flit carries its whole packet descriptor, and its route at each
//!   hop is computed from the topology when it arrives;
//! * an input VC is a `VecDeque` plus its output-VC binding, route flag and
//!   head-of-line stamp;
//! * the request set is built from scratch every cycle, and the allocator is
//!   called every cycle, empty set or not. A disagreement on an idle cycle is
//!   a bug in the allocator's idle-replay contract, which the engine relies
//!   on when it skips quiescent routers.

use std::cmp::Reverse;
use std::collections::VecDeque;
use vix::alloc::{build_allocator, Allocator};
use vix::core::{GrantSet, RequestSet, SwitchRequest};
use vix::sim::{CREDIT_LATENCY, FLIT_LATENCY};
use vix::telemetry::MatchingSummary;
use vix::topology::{build_topology, Topology};
use vix::traffic::{BernoulliInjector, TrafficPattern};
use vix::{
    ActivityCounters, Cycle, NodeId, PacketDescriptor, PacketId, PortId, RouterConfig,
    RouterId, SimConfig, VcId,
};
use vix_rng::rngs::StdRng;
use vix_rng::SeedableRng;

/// A flit that carries everything about its packet.
#[derive(Debug, Clone, Copy)]
struct FatFlit {
    packet: PacketDescriptor,
    index: usize,
    /// The input VC it occupies at the router it is travelling to or
    /// buffered in.
    vc: usize,
    /// Its output port at that router.
    out: usize,
    /// Dimension of the output port it will take at the router after that:
    /// the downstream preference of dimension-aware VC allocation.
    next_dim: usize,
}

impl FatFlit {
    fn is_head(&self) -> bool {
        self.index == 0
    }

    fn is_tail(&self) -> bool {
        self.index + 1 == self.packet.len_flits
    }
}

/// Router parameters every router of the network shares.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ports: usize,
    vcs: usize,
    depth: usize,
    /// Virtual inputs (VC sub-groups) per input port.
    groups: usize,
    /// Dimension-aware VC choice (§2.3), which needs more than one group.
    dimension_aware: bool,
    five_stage: bool,
    speculative: bool,
    flit_bits: u64,
}

impl Shape {
    fn of(router: &RouterConfig) -> Self {
        // Fig. 6 has two pipelines: the default three-stage one (b) and
        // the five-stage one (a).
        let five_stage = router.pipeline != Default::default();
        Shape {
            ports: router.ports(),
            vcs: router.vcs_per_port(),
            depth: router.buffer_depth(),
            groups: router.virtual_inputs_per_port(),
            dimension_aware: router.dimension_aware_va && router.virtual_inputs_per_port() > 1,
            five_stage,
            speculative: router.speculative_sa && !five_stage,
            flit_bits: router.flit_width_bits as u64,
        }
    }

    /// §2.3: X-bound packets prefer sub-group 0 and Y-bound ones sub-group
    /// 1; a packet about to eject has no preference.
    fn preferred_subgroup(&self, dim: usize) -> Option<usize> {
        (self.dimension_aware && dim < 2).then_some(dim)
    }
}

/// One input virtual channel.
#[derive(Debug, Default)]
struct InputVc {
    fifo: VecDeque<FatFlit>,
    /// Downstream VC granted to the packet at the front by VC allocation.
    bound: Option<usize>,
    /// Five-stage routers: the front packet spent its route-computation
    /// cycle.
    routed: bool,
    /// Cycle the front flit started waiting at the front: its arrival into
    /// an empty VC, or the departure of the flit ahead of it.
    since: u64,
}

impl InputVc {
    /// The front flit is a head still without a downstream VC.
    fn awaits_va(&self) -> bool {
        self.bound.is_none() && self.fifo.front().is_some_and(FatFlit::is_head)
    }
}

/// One router, clocked every cycle.
#[derive(Debug)]
struct RefRouter {
    /// Indexed `port · vcs + vc`.
    inputs: Vec<InputVc>,
    /// Free slots of each downstream VC, indexed `output port · vcs + vc`.
    credits: Vec<usize>,
    /// Downstream VCs held by a packet, from its VC allocation until its
    /// tail leaves.
    held: Vec<bool>,
    /// Output ports that eject to a terminal: no downstream VC to win, no
    /// credit to spend.
    sink: Vec<bool>,
    /// Where the next cycle's VC allocation starts its cyclic scan.
    va_start: usize,
    alloc: Allocator,
    activity: ActivityCounters,
}

/// What one router step sends: flits by output port, freed slots by input
/// `(port, VC)`.
type Sent = (Vec<(usize, FatFlit)>, Vec<(usize, usize)>);

impl RefRouter {
    fn new(shape: &Shape, sink: Vec<bool>, alloc: Allocator) -> Self {
        let n = shape.ports * shape.vcs;
        RefRouter {
            inputs: (0..n).map(|_| InputVc::default()).collect(),
            credits: vec![shape.depth; n],
            held: vec![false; n],
            sink,
            va_start: 0,
            alloc,
            activity: ActivityCounters { routers: 1, ..ActivityCounters::default() },
        }
    }

    fn accept(&mut self, shape: &Shape, port: usize, flit: FatFlit, now: u64) {
        let vc = &mut self.inputs[port * shape.vcs + flit.vc];
        assert!(vc.fifo.len() < shape.depth, "input VC overflow: upstream ignored credits");
        if vc.fifo.is_empty() {
            vc.since = now;
        }
        vc.fifo.push_back(flit);
        self.activity.buffer_writes += 1;
    }

    fn credit(&mut self, shape: &Shape, out: usize, vc: usize) {
        let slots = &mut self.credits[out * shape.vcs + vc];
        assert!(*slots < shape.depth, "credit returned past the buffer depth");
        *slots += 1;
    }

    fn can_send(&self, shape: &Shape, out: usize, vc: usize) -> bool {
        self.sink[out] || self.credits[out * shape.vcs + vc] > 0
    }

    /// The downstream VC behind output `out` that VC allocation gives a
    /// head whose next output moves along `next_dim`, if one is free
    /// (§2.3): the preferred sub-group first, then the sub-group with the
    /// fewest held VCs, then the most credits, then the lowest index.
    /// Without dimension awareness only credits and index count.
    fn choose_vc(&self, shape: &Shape, out: usize, next_dim: usize) -> Option<usize> {
        let base = out * shape.vcs;
        let size = shape.vcs / shape.groups;
        let held_in = |g: usize| (g * size..(g + 1) * size).filter(|&v| self.held[base + v]).count();
        let free = (0..shape.vcs).filter(|&v| !self.held[base + v]);
        if shape.dimension_aware {
            let preferred = shape.preferred_subgroup(next_dim);
            free.max_by_key(|&v| {
                let g = v / size;
                (preferred == Some(g), Reverse(held_in(g)), self.credits[base + v], Reverse(v))
            })
        } else {
            free.max_by_key(|&v| (self.credits[base + v], Reverse(v)))
        }
    }

    /// One cycle: route computation (five-stage only), VC allocation,
    /// switch allocation (speculative where enabled), switch traversal.
    fn step(&mut self, shape: &Shape, now: u64) -> Sent {
        let total = self.inputs.len();
        let candidates: Vec<bool> = self.inputs.iter().map(InputVc::awaits_va).collect();

        // Route computation: a five-stage head spends one cycle here before
        // it may compete in VC allocation.
        let mut routing = vec![false; total];
        if shape.five_stage {
            for (i, vc) in self.inputs.iter_mut().enumerate() {
                if candidates[i] && !vc.routed {
                    vc.routed = true;
                    routing[i] = true;
                }
            }
        }

        // VC allocation, visiting candidates cyclically from `va_start`.
        // `allocated[i]`: VC `i` competed this cycle, and whether it won.
        let mut allocated: Vec<Option<bool>> = vec![None; total];
        for k in 0..total {
            let i = (self.va_start + k) % total;
            if !candidates[i] || routing[i] {
                continue;
            }
            self.activity.va_arbitrations += 1;
            let head = self.inputs[i].fifo[0];
            let won = if self.sink[head.out] {
                Some(0)
            } else {
                self.choose_vc(shape, head.out, head.next_dim)
            };
            if let Some(w) = won {
                if !self.sink[head.out] {
                    self.held[head.out * shape.vcs + w] = true;
                }
                self.inputs[i].bound = Some(w);
            }
            allocated[i] = Some(won.is_some());
        }
        self.va_start = (self.va_start + 1) % total;

        // Switch requests, from scratch: a packet bound before this cycle
        // asks only when a credit guarantees the traversal; one that went
        // through VC allocation this cycle asks speculatively, if at all.
        let mut requests = RequestSet::new(shape.ports, shape.vcs);
        for (i, vc) in self.inputs.iter().enumerate() {
            let Some(front) = vc.fifo.front() else { continue };
            let speculative = match (vc.bound, allocated[i]) {
                (Some(w), None) if self.can_send(shape, front.out, w) => false,
                (_, Some(_)) if shape.speculative => true,
                _ => continue,
            };
            requests.push(SwitchRequest {
                port: PortId(i / shape.vcs),
                vc: VcId(i % shape.vcs),
                out_port: PortId(front.out),
                speculative,
                age: now - vc.since,
            });
        }
        self.activity.sa_arbitrations += requests.len() as u64;
        let mut grants = GrantSet::new();
        self.alloc.allocate_into(&requests, &mut grants);
        if let Err(e) = grants.validate_against(&requests, self.alloc.partition()) {
            panic!("allocator granted an invalid set at cycle {now}: {e}");
        }

        // Switch traversal. A grant whose VC allocation failed, or that
        // has no credit, is wasted.
        let (mut flits, mut freed) = (Vec::new(), Vec::new());
        let mut traversed = GrantSet::new();
        for g in grants.iter() {
            let i = g.port.0 * shape.vcs + g.vc.0;
            let out = g.out_port.0;
            let Some(w) = self.inputs[i].bound else { continue };
            if !self.can_send(shape, out, w) {
                continue;
            }
            let vc = &mut self.inputs[i];
            let mut flit = vc.fifo.pop_front().expect("a granted VC holds a flit");
            vc.since = now;
            if flit.is_tail() {
                vc.bound = None;
                vc.routed = false;
            }
            if !self.sink[out] {
                self.credits[out * shape.vcs + w] -= 1;
                if flit.is_tail() {
                    self.held[out * shape.vcs + w] = false;
                }
            }
            let a = &mut self.activity;
            a.buffer_reads += 1;
            a.crossbar_traversals += 1;
            if self.sink[out] {
                a.ejections += 1;
                a.bits_delivered += shape.flit_bits;
            } else {
                a.link_traversals += 1;
            }
            flit.vc = w;
            flits.push((out, flit));
            freed.push((g.port.0, g.vc.0));
            traversed.add(*g);
        }
        self.alloc.observe_traversals(&traversed);
        self.activity.cycles += 1;
        (flits, freed)
    }
}

/// One terminal's injection side.
#[derive(Debug)]
struct Source {
    queue: VecDeque<PacketDescriptor>,
    /// Free slots of each VC of the router's local input port.
    credits: Vec<usize>,
    /// The packet being sent: descriptor, next flit index, its VC.
    current: Option<(PacketDescriptor, usize, usize)>,
}

impl Source {
    /// The VC a new packet whose first output moves along `dim` takes: the
    /// preferred sub-group first, then the most credits, then the lowest
    /// index; `None` while every VC is out of credits.
    fn choose_vc(&self, shape: &Shape, dim: usize) -> Option<usize> {
        let size = shape.vcs / shape.groups;
        let preferred = shape.preferred_subgroup(dim);
        (0..shape.vcs)
            .filter(|&v| self.credits[v] > 0)
            .max_by_key(|&v| (preferred == Some(v / size), self.credits[v], Reverse(v)))
    }
}

/// Measurement-window accounting, kept the way §4.1 defines it.
#[derive(Debug)]
pub struct Window {
    /// Flits ejected inside the window.
    pub flits: u64,
    /// Packets whose tail ejected inside the window.
    pub packets: u64,
    /// Those packets, by source.
    pub per_source: Vec<u64>,
    /// Sum of their creation-to-tail-ejection latencies.
    pub latency_sum: u64,
    /// Packets created inside the window.
    pub offered: u64,
}

impl Window {
    /// Mean packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets as f64
        }
    }
}

/// A link: items in flight with the cycle each arrives.
type Link<T> = VecDeque<(u64, T)>;

/// Takes what `link` delivers by cycle `now`.
fn arrivals<T>(link: &mut Link<T>, now: u64) -> Vec<T> {
    let mut due = Vec::new();
    while link.front().is_some_and(|&(at, _)| at <= now) {
        due.push(link.pop_front().expect("front checked").1);
    }
    due
}

/// `(output port, dimension of the output after it)` of a packet for `dest`
/// at router `at`.
fn hop(t: &dyn Topology, at: usize, dest: NodeId) -> (usize, usize) {
    let out = t.route(RouterId(at), dest);
    let next_dim = match t.neighbor(RouterId(at), out) {
        Some((next, _)) => t.port_dimension(t.route(next, dest)),
        None => t.port_dimension(out),
    };
    (out.0, next_dim)
}

/// The reference network.
#[derive(Debug)]
pub struct ReferenceNet {
    cfg: SimConfig,
    shape: Shape,
    topology: Box<dyn Topology>,
    routers: Vec<RefRouter>,
    sources: Vec<Source>,
    /// Flits travelling to `(router, input port)`, indexed `router · ports
    /// + port` — from a terminal (1 cycle) or another router.
    flit_links: Vec<Link<FatFlit>>,
    /// Credits travelling to `(router, output port)`.
    credit_links: Vec<Link<usize>>,
    /// Credits travelling back to each terminal's source.
    source_links: Vec<Link<usize>>,
    pattern: TrafficPattern,
    injector: BernoulliInjector,
    rng: StdRng,
    next_packet: u64,
    now: u64,
    window: Window,
}

impl ReferenceNet {
    /// The network `cfg` describes, offered `pattern` traffic.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: SimConfig, pattern: TrafficPattern) -> Self {
        let topology = build_topology(cfg.network.topology, cfg.network.nodes).expect("valid topology");
        let router = cfg.network.router.with_ports(topology.radix());
        let shape = Shape::of(&router);
        let (routers, nodes, ports) = (topology.routers(), topology.nodes(), shape.ports);
        let routers = (0..routers)
            .map(|r| {
                let sink = (0..ports).map(|p| topology.node_at(RouterId(r), PortId(p)).is_some()).collect();
                RefRouter::new(&shape, sink, build_allocator(cfg.network.allocator, &router))
            })
            .collect();
        let sources = (0..nodes)
            .map(|_| Source { queue: VecDeque::new(), credits: vec![shape.depth; shape.vcs], current: None })
            .collect();
        ReferenceNet {
            shape,
            routers,
            sources,
            flit_links: (0..topology.routers() * ports).map(|_| Link::new()).collect(),
            credit_links: (0..topology.routers() * ports).map(|_| Link::new()).collect(),
            source_links: (0..nodes).map(|_| Link::new()).collect(),
            pattern,
            injector: BernoulliInjector::new(cfg.injection_rate).expect("valid rate"),
            rng: StdRng::seed_from_u64(cfg.seed),
            next_packet: 0,
            now: 0,
            window: Window { flits: 0, packets: 0, per_source: vec![0; nodes], latency_sum: 0, offered: 0 },
            topology,
            cfg,
        }
    }

    /// Runs one cycle — generate, source send, deliver everything due,
    /// step every router, fan out — and returns the packets whose tails
    /// ejected in it, in router order.
    pub fn step(&mut self) -> Vec<(PacketDescriptor, Cycle)> {
        let now = self.now;
        let shape = self.shape;
        let ports = shape.ports;
        let topology = self.topology.as_ref();

        // Generate: every node draws every cycle until the drain.
        if now < self.cfg.warmup + self.cfg.measure {
            let nodes = self.sources.len();
            for n in 0..nodes {
                if self.injector.fires(&mut self.rng) {
                    let dest = self.pattern.pick_dest(NodeId(n), nodes, &mut self.rng);
                    let id = PacketId(self.next_packet);
                    self.next_packet += 1;
                    let packet = PacketDescriptor::new(id, NodeId(n), dest, self.cfg.packet_len, Cycle(now));
                    self.sources[n].queue.push_back(packet);
                    if now >= self.cfg.warmup {
                        self.window.offered += 1;
                    }
                }
            }
        }

        // Source send: at most one flit per terminal onto its injection
        // link; a packet picks its VC when its head is about to leave.
        for n in 0..self.sources.len() {
            let router = topology.router_of(NodeId(n)).0;
            let local = topology.local_port_of(NodeId(n)).0;
            let src = &mut self.sources[n];
            if src.current.is_none() {
                let Some(&packet) = src.queue.front() else { continue };
                let (out, _) = hop(topology, router, packet.dest);
                let Some(vc) = src.choose_vc(&shape, topology.port_dimension(PortId(out))) else {
                    continue;
                };
                src.queue.pop_front();
                src.current = Some((packet, 0, vc));
            }
            let (packet, index, vc) = src.current.expect("a packet is being sent");
            if src.credits[vc] == 0 {
                continue;
            }
            src.credits[vc] -= 1;
            src.current = (index + 1 < packet.len_flits).then_some((packet, index + 1, vc));
            let (out, next_dim) = hop(topology, router, packet.dest);
            let flit = FatFlit { packet, index, vc, out, next_dim };
            self.flit_links[router * ports + local].push_back((now + 1, flit));
        }

        // Deliver everything due.
        for (at, link) in self.flit_links.iter_mut().enumerate() {
            for flit in arrivals(link, now) {
                self.routers[at / ports].accept(&shape, at % ports, flit, now);
            }
        }
        for (at, link) in self.credit_links.iter_mut().enumerate() {
            for vc in arrivals(link, now) {
                self.routers[at / ports].credit(&shape, at % ports, vc);
            }
        }
        for (n, link) in self.source_links.iter_mut().enumerate() {
            for vc in arrivals(link, now) {
                let slots = &mut self.sources[n].credits[vc];
                assert!(*slots < shape.depth, "source credit returned past the buffer depth");
                *slots += 1;
            }
        }

        // Step every router, then fan its output out onto the links.
        let in_window = now >= self.cfg.warmup && now < self.cfg.warmup + self.cfg.measure;
        let mut ejected = Vec::new();
        for r in 0..self.routers.len() {
            let (flits, freed) = self.routers[r].step(&shape, now);
            for (out, mut flit) in flits {
                let dest = flit.packet.dest;
                match topology.node_at(RouterId(r), PortId(out)) {
                    Some(node) => {
                        assert_eq!(node, dest, "flit ejected at the wrong terminal");
                        if in_window {
                            self.window.flits += 1;
                        }
                        if flit.is_tail() {
                            if in_window {
                                self.window.packets += 1;
                                self.window.per_source[flit.packet.source.0] += 1;
                                self.window.latency_sum += now - flit.packet.created_at.0;
                            }
                            ejected.push((flit.packet, Cycle(now)));
                        }
                    }
                    None => {
                        let (down, down_port) =
                            topology.neighbor(RouterId(r), PortId(out)).expect("routes use connected ports");
                        (flit.out, flit.next_dim) = hop(topology, down.0, dest);
                        let due = now + FLIT_LATENCY;
                        self.flit_links[down.0 * ports + down_port.0].push_back((due, flit));
                    }
                }
            }
            for (port, vc) in freed {
                let due = now + CREDIT_LATENCY;
                match topology.node_at(RouterId(r), PortId(port)) {
                    Some(node) => self.source_links[node.0].push_back((due, vc)),
                    None => {
                        let (up, up_port) =
                            topology.neighbor(RouterId(r), PortId(port)).expect("a connected input port");
                        self.credit_links[up.0 * ports + up_port.0].push_back((due, vc));
                    }
                }
            }
        }
        self.now += 1;
        ejected
    }

    /// Activity counters of every router, by router index.
    pub fn per_router_activity(&self) -> Vec<ActivityCounters> {
        self.routers.iter().map(|r| r.activity).collect()
    }

    /// Every router's activity merged.
    pub fn aggregate_activity(&self) -> ActivityCounters {
        let mut total = ActivityCounters::default();
        for r in &self.routers {
            total.merge(&r.activity);
        }
        total
    }

    /// Every router's allocator matching record merged.
    pub fn matching_summary(&self) -> MatchingSummary {
        let mut total = MatchingSummary::default();
        for r in &self.routers {
            total.merge(&r.alloc.matching_stats().summary());
        }
        total
    }

    /// The measurement window so far.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// The router configuration every router was built with.
    pub fn router_config(&self) -> RouterConfig {
        self.cfg.network.router.with_ports(self.shape.ports)
    }
}
