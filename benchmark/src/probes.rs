//! Layer probes: small benchmark-owned drivers that time one layer's
//! public entry points in isolation (`router.step_ns.*`,
//! `alloc.ns_per_call.*`, `channel.*`, `traffic.*`, `topology.*`,
//! `stats.*`). They run in the traced run only and do not depend on the
//! workload, so the same row can be compared across all five traces.

use crate::measure::{fastest, ns_per_call, timed};
use crate::spans::Recorder;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use vix_alloc::build_allocator;
use vix_core::{
    AllocatorKind, Cycle, Flit, GrantSet, NodeId, PacketDescriptor, PacketId, PortId, RequestSet,
    RouterConfig, RouterId, SwitchRequest, TopologyKind, VcId, VirtualInputs,
};
use vix_rng::rngs::StdRng;
use vix_rng::{Rng, SeedableRng};
use vix_router::{Router, RouterEnv, RouterOutput};
use vix_sim::{NetworkStats, Pipe, CREDIT_LATENCY, FLIT_LATENCY};
use vix_telemetry::TelemetrySink;
use vix_topology::build_topology;
use vix_traffic::{BernoulliInjector, TrafficPattern};

const VCS: usize = 6;
const DEPTH: usize = 5;
const PACKET_LEN: usize = 4;
/// Timed samples per probe; the fastest is reported.
const SAMPLES: usize = 5;

/// Calls per sample; unit tests only check that the probes run.
const fn iters(n: u64) -> u64 {
    if cfg!(test) {
        n / 100
    } else {
        n
    }
}

fn router_config(radix: usize, alloc: AllocatorKind) -> RouterConfig {
    let cfg = RouterConfig::paper_default(radix);
    if alloc == AllocatorKind::Vix {
        cfg.with_virtual_inputs(VirtualInputs::PerPort(2))
    } else {
        cfg
    }
}

/// One router fed by an ideal upstream on every port and drained by an
/// ideal downstream: the pattern of `crates/router/tests/microarchitecture.rs`
/// turned into a steady-state driver. Each input port receives at most one
/// flit per cycle (link bandwidth), packets are 4 flits, credits return
/// after [`CREDIT_LATENCY`] cycles.
struct RouterDriver {
    router: Router,
    ports: usize,
    locals: usize,
    rng: StdRng,
    /// Probability that a port whose link is free this cycle starts a new
    /// packet (1.0 = saturated).
    start_prob: f64,
    /// Free buffer slots per input `(port, vc)` as the upstream sees them.
    credits: Vec<usize>,
    /// Packet in progress on each input `(port, vc)`: next flit index.
    sending: Vec<Option<(PacketDescriptor, usize, PortId, PortId)>>,
    next_vc: Vec<usize>,
    next_packet: u64,
    /// Credits owed to the router's outputs: `(due cycle, port, vc)`.
    returning: VecDeque<(u64, PortId, VcId)>,
    out: RouterOutput,
    tel: TelemetrySink,
    now: u64,
}

impl RouterDriver {
    /// `radix` 5 is the mesh router (4 network ports + 1 local), `radix`
    /// 10 the flattened-butterfly one (6 network + 4 local).
    fn new(radix: usize, alloc: AllocatorKind, start_prob: f64, seed: u64) -> Self {
        let locals = if radix == 5 { 1 } else { 4 };
        let network = radix - locals;
        let dims = (0..radix)
            .map(|p| if p >= network { 2 } else { p * 2 / network })
            .collect();
        let sinks = (0..radix).map(|p| p >= network).collect();
        let cfg = router_config(radix, alloc);
        let router = Router::new(
            RouterId(0),
            cfg,
            build_allocator(alloc, &cfg),
            RouterEnv::new(dims, sinks),
        );
        RouterDriver {
            router,
            ports: radix,
            locals,
            rng: StdRng::seed_from_u64(seed),
            start_prob,
            credits: vec![DEPTH; radix * VCS],
            sending: vec![None; radix * VCS],
            next_vc: vec![0; radix],
            next_packet: 0,
            returning: VecDeque::new(),
            out: RouterOutput::default(),
            tel: TelemetrySink::disabled(),
            now: 0,
        }
    }

    fn cycle(&mut self) {
        let network = self.ports - self.locals;
        while self
            .returning
            .front()
            .is_some_and(|&(due, ..)| due <= self.now)
        {
            let (_, port, vc) = self.returning.pop_front().expect("front checked");
            self.router.credit_return(port, vc);
        }
        for port in 0..self.ports {
            // A link carries one flit per cycle: continue a packet in
            // progress if any of its VCs has a free slot, else maybe
            // start a new packet on an idle VC.
            let ready = |sending: bool, this: &Self| {
                (0..VCS)
                    .map(|k| (this.next_vc[port] + k) % VCS)
                    .find(|&vc| {
                        let flat = port * VCS + vc;
                        this.sending[flat].is_some() == sending && this.credits[flat] > 0
                    })
            };
            let vc = match ready(true, self) {
                Some(vc) => vc,
                None if self.start_prob >= 1.0 || self.rng.gen_bool(self.start_prob) => {
                    let Some(vc) = ready(false, self) else {
                        continue;
                    };
                    // No U-turns; the lookahead port is any network port.
                    let mut out = self.rng.gen_range(0..self.ports - 1);
                    if out >= port {
                        out += 1;
                    }
                    let lookahead = self.rng.gen_range(0..network);
                    let packet = PacketDescriptor::new(
                        PacketId(self.next_packet),
                        NodeId(0),
                        NodeId(1),
                        PACKET_LEN,
                        Cycle(self.now),
                    );
                    self.next_packet += 1;
                    self.sending[port * VCS + vc] =
                        Some((packet, 0, PortId(out), PortId(lookahead)));
                    vc
                }
                None => continue,
            };
            let flat = port * VCS + vc;
            let (packet, index, out, lookahead) =
                self.sending[flat].expect("chosen VC has a packet in progress");
            let flit = Flit::new(
                packet,
                index,
                out,
                lookahead,
                Some(VcId(vc)),
                Cycle(self.now),
            );
            self.router.accept_flit(PortId(port), flit);
            self.credits[flat] -= 1;
            self.sending[flat] =
                (index + 1 < PACKET_LEN).then_some((packet, index + 1, out, lookahead));
            self.next_vc[port] = (vc + 1) % VCS;
        }
        self.router
            .step_into(Cycle(self.now), &mut self.out, &mut self.tel);
        for &(port, vc) in &self.out.credits {
            self.credits[port.0 * VCS + vc.0] += 1;
        }
        for (port, flit) in &self.out.flits {
            if port.0 < network {
                let vc = flit
                    .out_vc()
                    .expect("a traversed flit carries its downstream VC");
                self.returning
                    .push_back((self.now + CREDIT_LATENCY, *port, vc));
            }
        }
        self.now += 1;
    }
}

/// Nanoseconds per driver cycle (feed + `step_into` + drain).
fn router_step_ns(radix: usize, alloc: AllocatorKind, start_prob: f64, seed: u64) -> f64 {
    let mut driver = RouterDriver::new(radix, alloc, start_prob, seed);
    ns_per_call(SAMPLES, iters(20_000), || driver.cycle())
}

/// Nanoseconds per `allocate_into` + `observe_traversals` over a
/// seeded 64-set request trace at ~60 % VC occupancy.
fn alloc_ns_per_call(radix: usize, alloc: AllocatorKind, seed: u64) -> f64 {
    let cfg = router_config(radix, alloc);
    let mut allocator = build_allocator(alloc, &cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let trace: Vec<RequestSet> = (0..64)
        .map(|_| {
            let mut set = RequestSet::new(radix, VCS);
            for port in 0..radix {
                for vc in 0..VCS {
                    if rng.gen_bool(0.6) {
                        set.push(SwitchRequest {
                            port: PortId(port),
                            vc: VcId(vc),
                            out_port: PortId(rng.gen_range(0..radix)),
                            speculative: rng.gen_bool(0.25),
                            age: rng.gen_range(0..16u64),
                        });
                    }
                }
            }
            set
        })
        .collect();
    let mut grants = GrantSet::with_capacity(radix * 2);
    let mut i = 0;
    ns_per_call(SAMPLES, iters(20_000), || {
        allocator.allocate_into(black_box(&trace[i % trace.len()]), &mut grants);
        allocator.observe_traversals(&grants);
        black_box(&grants);
        i += 1;
    })
}

/// Nanoseconds per item through a [`Pipe`] at link latency: one
/// push and one ready pop per cycle.
fn pipe_ns_per_item() -> f64 {
    let mut pipe: Pipe<u64> = Pipe::new(FLIT_LATENCY);
    let mut now = 0u64;
    ns_per_call(SAMPLES, iters(200_000), || {
        pipe.push(Cycle(now), now);
        black_box(pipe.pop_ready(Cycle(now)));
        now += 1;
    })
}

/// Nanoseconds per node per cycle of Bernoulli generation with a
/// uniform destination pick, over 64 nodes.
fn traffic_ns_per_node_cycle(rate: f64, seed: u64) -> f64 {
    let injector = BernoulliInjector::new(rate).expect("benchmark rates are in [0, 1]");
    let pattern = TrafficPattern::UniformRandom;
    let mut rng = StdRng::seed_from_u64(seed);
    let per_cycle = ns_per_call(SAMPLES, iters(20_000), || {
        for node in 0..64 {
            if injector.fires(&mut rng) {
                black_box(pattern.pick_dest(NodeId(node), 64, &mut rng));
            }
        }
    });
    per_cycle / 64.0
}

fn topology_build_ms_mesh256() -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| timed(|| black_box(build_topology(TopologyKind::Mesh, 256))).1 * 1e3)
        .collect();
    fastest(&samples)
}

fn topology_route_ns(seed: u64) -> f64 {
    let mesh = build_topology(TopologyKind::Mesh, 64).expect("8x8 mesh is valid");
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(RouterId, NodeId)> = (0..1024)
        .map(|_| (RouterId(rng.gen_range(0..64)), NodeId(rng.gen_range(0..64))))
        .collect();
    let mut i = 0;
    ns_per_call(SAMPLES, iters(200_000), || {
        let (at, dest) = pairs[i % pairs.len()];
        black_box(mesh.route(black_box(at), dest));
        i += 1;
    })
}

/// Microseconds per percentile query over 100 000 recorded
/// latencies (alternating p50/p99, cache warm after the first).
fn stats_percentile_query_us(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = NetworkStats::new(64, 100_000, PACKET_LEN);
    for _ in 0..100_000 {
        let latency = 20 + rng.gen_range(0..400u64);
        stats.record_ejection(NodeId(rng.gen_range(0..64)), true, Cycle(0), Cycle(latency));
    }
    let mut p99 = false;
    ns_per_call(SAMPLES, 20, || {
        p99 = !p99;
        black_box(stats.latency_percentile(if p99 { 99.0 } else { 50.0 }));
    }) / 1e3
}

/// Runs every probe under its own span and returns `(metric, value)`.
pub fn run_all(rec: &Recorder, parent: u32, seed: u64) -> Vec<(&'static str, f64)> {
    use AllocatorKind::{InputFirst, Vix};
    let mut values = Vec::new();
    let mut probe = |name: &'static str, f: &dyn Fn() -> f64| {
        values.push((name, rec.scope(name, Some(parent), |_| f()).0));
    };
    for (name, radix, alloc, start_prob) in [
        ("router.step_ns.r5.if.sat", 5, InputFirst, 1.0),
        ("router.step_ns.r5.vix.sat", 5, Vix, 1.0),
        ("router.step_ns.r5.vix.light", 5, Vix, 0.025),
        ("router.step_ns.r10.vix.sat", 10, Vix, 1.0),
    ] {
        probe(name, &|| router_step_ns(radix, alloc, start_prob, seed));
    }
    for (name, radix, alloc) in [
        ("alloc.ns_per_call.r5.if", 5, InputFirst),
        ("alloc.ns_per_call.r5.vix", 5, Vix),
        ("alloc.ns_per_call.r8.if", 8, InputFirst),
        ("alloc.ns_per_call.r8.vix", 8, Vix),
        ("alloc.ns_per_call.r10.if", 10, InputFirst),
        ("alloc.ns_per_call.r10.vix", 10, Vix),
    ] {
        probe(name, &|| alloc_ns_per_call(radix, alloc, seed));
    }
    probe("channel.pipe_ns_per_item", &pipe_ns_per_item);
    probe("traffic.ns_per_node_cycle.low", &|| {
        traffic_ns_per_node_cycle(0.005, seed)
    });
    probe("traffic.ns_per_node_cycle.sat", &|| {
        traffic_ns_per_node_cycle(0.11, seed)
    });
    probe("topology.build_ms.mesh256", &topology_build_ms_mesh256);
    probe("topology.route_ns", &|| topology_route_ns(seed));
    probe("stats.percentile_query_us", &|| {
        stats_percentile_query_us(seed)
    });
    values
}

/// Times `n` calls of `step`, one clock read pair per call, and returns
/// the per-call durations in microseconds, ascending.
pub fn time_steps(n: u64, mut step: impl FnMut()) -> Vec<f64> {
    let mut us: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            step();
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_driver_moves_flits_in_both_regimes() {
        for (radix, alloc, prob) in [
            (5, AllocatorKind::InputFirst, 1.0),
            (5, AllocatorKind::Vix, 1.0),
            (5, AllocatorKind::Vix, 0.025),
            (10, AllocatorKind::Vix, 1.0),
        ] {
            let mut d = RouterDriver::new(radix, alloc, prob, 3);
            for _ in 0..3000 {
                d.cycle();
            }
            let a = d.router.activity();
            let per_cycle = a.crossbar_traversals as f64 / 3000.0;
            if prob == 1.0 {
                assert!(
                    per_cycle > radix as f64 * 0.4,
                    "radix {radix} {alloc:?}: {per_cycle} flits/cycle"
                );
            } else {
                assert!(
                    per_cycle > 0.01 && per_cycle < 1.0,
                    "light load moved {per_cycle} flits/cycle"
                );
            }
            assert!(a.buffer_writes >= a.buffer_reads);
        }
    }

    #[test]
    fn saturated_vix_router_outruns_input_first() {
        let flits = |alloc| {
            let mut d = RouterDriver::new(5, alloc, 1.0, 9);
            for _ in 0..4000 {
                d.cycle();
            }
            d.router.activity().crossbar_traversals
        };
        assert!(flits(AllocatorKind::Vix) > flits(AllocatorKind::InputFirst));
    }
}
