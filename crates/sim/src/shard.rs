//! The cycle protocol of a [`NetworkSim`], and its deterministic parallel
//! execution.
//!
//! [`LoadSweep`](crate::LoadSweep) parallelises *across* simulations; this
//! module parallelises *within* one. A [`NetworkSim`] is cut once, at
//! build, into [`SimConfig::shards`] contiguous slices of the router
//! graph whose sizes differ by at most one router (`ShardPlan`); each
//! slice owns its routers, terminals, timing wheels, outboxes, packet log
//! and telemetry sink (`Slice` in `cycle.rs`). Cross-slice traffic rides
//! the ≥ 2-cycle link latency as conservative lookahead: what a slice
//! sends another at cycle `t` is due at `t + 2` or later, so a single
//! end-of-cycle exchange per slice pair, filed on the receiver's wheels
//! at the start of cycle `t + 1`, is enough and no rollback is ever
//! needed.
//!
//! # Cycle protocol
//!
//! One protocol, two drivers. Cycle `t` is: stage (phase 1, the run's
//! single generator, in serial node order: `stage_cycle`, the one
//! generation path) → every slice files its inbound mailboxes, runs the
//! cycle body and posts its outboxes (`Slice::run_cycle`) → the packet
//! logs are replayed into the ledger, the statistics and the run's sink in
//! slice order, which *is* ascending router order (`merge_cycle`, the one
//! replay path).
//!
//! * [`NetworkSim::step`] and [`NetworkSim::step_into`] run it on the
//!   calling thread over the slices in order, and so does
//!   [`NetworkSim::run_cycles`] with one slice: no thread, no barrier,
//!   and with one slice no mailbox and no lock either.
//! * [`NetworkSim::run_cycles`] with `S > 1` slices runs it on `S`
//!   threads — the calling thread steps slice 0, a
//!   [`std::thread::scope`] pool the rest — in lockstep behind one
//!   [`SpinBarrier`] per cycle, created per call so a poisoned barrier
//!   never outlives it. The calling thread stays the run's sole RNG and
//!   stats owner: per cycle `t` it merges cycle `t − 1`'s logs, steps
//!   slice 0, and stages cycle `t + 1`'s traffic one cycle ahead so the
//!   other slices never wait for it, each slice's packets with one lock
//!   acquisition.
//!
//! Every cross-thread slot is double-buffered by cycle parity, so each
//! `Mutex` is uncontended by construction; a panicking participant
//! poisons the barrier instead of leaving the others blocked. Between
//! calls nothing is staged, every cycle is merged, and the last cycle's
//! cross-slice sends wait in their mailboxes for the next cycle to file
//! them — whichever driver runs it.
//!
//! # Determinism
//!
//! A run is **bit-identical** for every slice count and either driver,
//! recorded trace and metrics included (`tests/shard_parity.rs`;
//! `tests/reference_parity.rs` also holds a sharded run to the independent
//! reference simulator). The proof obligations, spelled out in DESIGN.md
//! §8: one RNG with one owner; interchangeable delivery order (distinct
//! links feed disjoint buffers, credits are commutative increments); and
//! an ordered merge of integer statistics, one packet ledger, and trace
//! events — each slice records into its own [`TelemetrySink::for_shard`]
//! sink, whose events the merge pushes in serial order and whose counters
//! and histograms the run's sink absorbs as sums.
//!
//! [`SimConfig::shards`]: vix_core::SimConfig::shards

use crate::barrier::{PoisonOnPanic, SpinBarrier, SpinWaiter};
use crate::cycle::{Env, Mail, PacketLedger, PacketLog, Slice, SliceBeat};
use crate::network::{EjectedPacket, NetworkSim, TrafficGen, Wiring};
use crate::stats::NetworkStats;
use std::ops::Range;
use std::sync::Mutex;
use vix_core::{NodeId, PacketDescriptor};
use vix_telemetry::{SpanKind, TelemetrySink, TraceEvent, TraceEventKind};
use vix_topology::Topology;

/// A partition of the router graph into contiguous, balanced shards:
/// the first `routers % shards` shards take one extra router.
///
/// Routers `router_range(s)` and the terminals attached to them belong to
/// shard `s`. Contiguity keeps the shard-order merge equal to
/// ascending-router order (the determinism requirement) and matches
/// dimension-order locality on the mesh, so most links stay inside a
/// shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardPlan {
    shards: usize,
    /// Routers in every shard but the first `extra`, which hold one more.
    base: usize,
    extra: usize,
}

impl ShardPlan {
    /// Partitions `topology` into `shards` contiguous router ranges of
    /// near-equal size.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the router count, or if the
    /// topology's node→router attachment is not monotone (every shipped
    /// topology attaches nodes in router order).
    pub(crate) fn new(topology: &dyn Topology, shards: usize) -> Self {
        let routers = topology.routers();
        assert!(shards >= 1 && shards <= routers, "shards must be in 1..={routers}");
        // Shards must own their terminals: a node's packets are staged to
        // the shard of its router, and its flits and credits travel over
        // that router's local port, never between shards.
        let router_of = |n| topology.router_of(NodeId(n)).0;
        assert!(
            (1..topology.nodes()).all(|n| router_of(n - 1) <= router_of(n)),
            "node→router attachment must be monotone"
        );
        ShardPlan { shards, base: routers / shards, extra: routers % shards }
    }

    /// The number of shards.
    pub(crate) fn shards(self) -> usize {
        self.shards
    }

    /// The first router of shard `s` (the router count for `s = shards`).
    fn start(self, s: usize) -> usize {
        s * self.base + s.min(self.extra)
    }

    /// Routers owned by shard `s`.
    pub(crate) fn router_range(self, s: usize) -> Range<usize> {
        self.start(s)..self.start(s + 1)
    }

    /// Terminals owned by shard `s`.
    pub(crate) fn node_range(self, topology: &dyn Topology, s: usize) -> Range<usize> {
        let nodes = topology.nodes();
        let first = |r| (0..nodes).position(|n| topology.router_of(NodeId(n)).0 >= r).unwrap_or(nodes);
        first(self.start(s))..first(self.start(s + 1))
    }

    /// The shard owning router `r`.
    #[inline]
    pub(crate) fn shard_of_router(self, r: usize) -> usize {
        let big = (self.base + 1) * self.extra;
        if r < big {
            r / (self.base + 1)
        } else {
            self.extra + (r - big) / self.base
        }
    }
}

/// What a slice stepped by a spawned thread exchanges with the calling
/// thread in the cycles of one parity: cycle `t`'s staged packets, filled
/// during cycle `t − 1`, and its packet log, merged during cycle `t + 1`.
#[derive(Debug, Default)]
struct Post {
    staged: Vec<PacketDescriptor>,
    log: PacketLog,
}

/// The slots the slices of a run exchange through, owned by the engine
/// and allocated at build: the mailboxes, one [`Post`] per cycle parity
/// and slice the calling thread does not step itself (`posts[p][s − 1]`),
/// and the calling thread's staging buffer per such slice. With one slice
/// all three are empty.
#[derive(Debug)]
pub(crate) struct Exchange {
    mail: Mail,
    posts: [Vec<Mutex<Post>>; 2],
    staging: Vec<Vec<PacketDescriptor>>,
}

impl Exchange {
    /// The exchange between `slices`, cut by `plan`, each reserved for
    /// the most one cycle can put in it: a slice's sources fire at most
    /// once a cycle each, so a staging buffer holds one packet per source.
    pub(crate) fn new(slices: &[Slice], wiring: &Wiring, plan: ShardPlan, credits_per_port: usize) -> Self {
        let staged = |s: &Slice| Vec::with_capacity(s.terminals.len());
        let post = |s: &Slice| Mutex::new(Post { staged: staged(s), ..Post::default() });
        Exchange {
            mail: Mail::new(wiring, plan, credits_per_port),
            posts: [slices[1..].iter().map(post).collect(), slices[1..].iter().map(post).collect()],
            staging: slices[1..].iter().map(staged).collect(),
        }
    }
}

#[cfg(test)]
impl Exchange {
    /// Flits waiting in a mailbox.
    pub(crate) fn mail_len(&self) -> usize {
        self.mail.arrivals()
    }
}

/// Phase 1 for cycle `u`, the run's one generation path: the single
/// generator draws for every node in serial node order, so the random
/// stream, the packet-id sequence and the offered count do not depend on
/// the slice count, and hands each packet to `deliver` with the slice that
/// owns its source.
fn stage_cycle(
    u: u64,
    traffic: &mut TrafficGen,
    stats: &mut NetworkStats,
    env: Env<'_>,
    mut deliver: impl FnMut(usize, PacketDescriptor),
) {
    traffic.generate(u, env.cfg, stats, |packet| {
        let (router, _) = env.wiring.attachment(packet.source.0);
        deliver(env.plan.shard_of_router(router), packet);
    });
}

/// Replays cycle `t`'s packet logs — handed over one at a time, in slice
/// order, by each call of `logs` — into the ledger, the statistics, the
/// run's sink and the caller's delivery buffer (if any). Slice order is
/// ascending router order, the serial order — except that a cycle traces
/// every `Inject` before any router event, so each slice's leading
/// `Inject`s go first.
fn merge_cycle(
    t: u64,
    mut logs: impl FnMut(&mut dyn FnMut(&mut PacketLog)),
    ledger: &mut PacketLedger,
    stats: &mut NetworkStats,
    mut delivered: Option<&mut Vec<EjectedPacket>>,
    sink: &mut TelemetrySink,
) {
    let inject = |ev: &TraceEvent| ev.kind == TraceEventKind::Inject;
    if sink.tracing() {
        logs(&mut |log| log.trace.iter().take_while(|ev| inject(ev)).for_each(|&ev| sink.trace(ev)));
    }
    let (mut active, mut wake) = (0, 0);
    // Every slice has a beat on a heartbeat cycle, and none otherwise.
    let mut beats = Vec::new();
    logs(&mut |log| {
        log.replay(ledger, stats, delivered.as_deref_mut());
        log.trace.drain(..).skip_while(inject).for_each(|ev| sink.trace(ev));
        (active, wake) = (active + log.active_routers, wake + log.wake_events);
        beats.extend(log.beat.take());
    });
    sink.gauge(sink.ids.sched_active_routers, active);
    sink.gauge(sink.ids.sched_wake_events, wake);
    if !beats.is_empty() {
        SliceBeat::record(&beats, t + 1, sink);
    }
}

/// Runs `cycles` cycles of the protocol on the calling thread, over the
/// slices in order.
pub(crate) fn step_cycles(sim: &mut NetworkSim, cycles: u64, mut delivered: Option<&mut Vec<EjectedPacket>>) {
    let NetworkSim { cfg, wiring, vc_occupancy, plan, slices, exchange, traffic, now, stats, ledger, telemetry, .. } =
        sim;
    let env = Env { cfg, wiring, vc_occupancy, plan: *plan };
    // Profiling lap chain: one clock read per phase boundary, zero reads
    // (one branch per lap) when profiling is off.
    let mut span = telemetry.span_start();
    for t in now.0..now.0 + cycles {
        stage_cycle(t, traffic, stats, env, |s, packet| slices[s].enqueue(packet));
        span = telemetry.span_lap(SpanKind::TrafficGen, t, span);
        for slice in slices.iter_mut() {
            span = slice.run_cycle(env, t, &exchange.mail, span);
            span = slice.sink.span_lap(SpanKind::Exchange, t, span);
        }
        let logs = |f: &mut dyn FnMut(&mut PacketLog)| slices.iter_mut().for_each(|s| f(&mut s.log));
        merge_cycle(t, logs, ledger, stats, delivered.as_deref_mut(), telemetry);
        span = telemetry.span_lap(SpanKind::StatsMerge, t, span);
    }
    now.0 += cycles;
}

/// Runs `cycles` cycles of the protocol on one thread per slice — this
/// one, which steps slice 0 and owns the generator and the merge, plus a
/// spawned one for each other slice — bit-identically to
/// [`step_cycles`].
pub(crate) fn run_threads(sim: &mut NetworkSim, cycles: u64, mut delivered: Option<&mut Vec<EjectedPacket>>) {
    if cycles == 0 {
        return;
    }
    let NetworkSim { cfg, wiring, vc_occupancy, plan, slices, exchange, traffic, now, stats, ledger, telemetry, .. } =
        sim;
    let env = Env { cfg, wiring, vc_occupancy, plan: *plan };
    let (start, end) = (now.0, now.0 + cycles);
    let Exchange { mail, posts, staging } = exchange;
    let (mail, posts) = (&*mail, &*posts);
    let barrier = SpinBarrier::new(slices.len());
    let (slice0, remote) = slices.split_first_mut().expect("a network has a slice");

    let mut span = telemetry.span_start();
    stage_remote(start, traffic, stats, env, slice0, staging, posts);
    span = telemetry.span_lap(SpanKind::TrafficGen, start, span);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(remote.len());
        for (i, slice) in remote.iter_mut().enumerate() {
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                // A panic anywhere in the cycle poisons the barrier on
                // unwind, releasing the other slices instead of
                // deadlocking them.
                let _poison = PoisonOnPanic(barrier);
                let mut waiter = SpinWaiter::new();
                let mut span = slice.sink.span_start();
                for t in start..end {
                    let post = &posts[(t % 2) as usize][i];
                    for packet in post.lock().expect("the stager did not panic").staged.drain(..) {
                        slice.enqueue(packet);
                    }
                    span = slice.run_cycle(env, t, mail, span);
                    std::mem::swap(&mut post.lock().expect("the merger did not panic").log, &mut slice.log);
                    span = slice.sink.span_lap(SpanKind::Exchange, t, span);
                    if barrier.wait(&mut waiter).is_err() {
                        break;
                    }
                    span = slice.sink.span_lap(SpanKind::BarrierWait, t, span);
                }
            }));
        }
        // This thread: the stats/RNG owner, and slice 0. In cycle `t` it
        // merges cycle `t − 1`, steps slice 0 and stages cycle `t + 1` —
        // except past the end of this call: cycle `end`'s draws belong to
        // whichever call steps it. The guard covers the duties and slice
        // 0's step alike: either panic unwinds straight out of the scope.
        let _poison = PoisonOnPanic(&barrier);
        let mut waiter = SpinWaiter::new();
        let mut poisoned = false;
        for t in start..end {
            if t > start {
                merge_remote(t - 1, slice0, posts, ledger, stats, delivered.as_deref_mut(), telemetry);
                span = telemetry.span_lap(SpanKind::StatsMerge, t, span);
            }
            span = slice0.run_cycle(env, t, mail, span);
            span = slice0.sink.span_lap(SpanKind::Exchange, t, span);
            if t + 1 < end {
                stage_remote(t + 1, traffic, stats, env, slice0, staging, posts);
                span = telemetry.span_lap(SpanKind::TrafficGen, t, span);
            }
            if barrier.wait(&mut waiter).is_err() {
                poisoned = true;
                break;
            }
            span = slice0.sink.span_lap(SpanKind::BarrierWait, t, span);
        }
        if !poisoned {
            merge_remote(end - 1, slice0, posts, ledger, stats, delivered, telemetry);
            telemetry.span_lap(SpanKind::StatsMerge, end, span);
        }
        for h in handles {
            // Re-throw a slice's panic on this thread; the barrier is
            // already poisoned, so the remaining slices have unwound (or
            // will at their next wait) and the scope can close.
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        assert!(!poisoned, "slice barrier poisoned but every slice joined cleanly");
    });
    now.0 = end;
}

/// [`stage_cycle`] on S threads, run by the calling thread: slice 0's
/// packets go straight to its sources — its cycle `u − 1` is done — and
/// every other slice's into its post for cycle `u`, which it drains at the
/// start of `u`. The post was drained two cycles ago, so the swap hands
/// back an empty buffer and the steady state stays allocation-free.
fn stage_remote(
    u: u64,
    traffic: &mut TrafficGen,
    stats: &mut NetworkStats,
    env: Env<'_>,
    slice0: &mut Slice,
    staging: &mut [Vec<PacketDescriptor>],
    posts: &[Vec<Mutex<Post>>; 2],
) {
    stage_cycle(u, traffic, stats, env, |s, packet| match s {
        0 => slice0.enqueue(packet),
        s => staging[s - 1].push(packet),
    });
    for (buf, post) in staging.iter_mut().zip(&posts[(u % 2) as usize]) {
        if !buf.is_empty() {
            std::mem::swap(&mut post.lock().expect("no slice panicked holding its post").staged, buf);
        }
    }
}

/// [`merge_cycle`] on S threads: slice 0's log is this thread's own, the
/// others wait in their posts for cycle `t`.
fn merge_remote(
    t: u64,
    slice0: &mut Slice,
    posts: &[Vec<Mutex<Post>>; 2],
    ledger: &mut PacketLedger,
    stats: &mut NetworkStats,
    delivered: Option<&mut Vec<EjectedPacket>>,
    sink: &mut TelemetrySink,
) {
    let logs = |f: &mut dyn FnMut(&mut PacketLog)| {
        f(&mut slice0.log);
        for post in &posts[(t % 2) as usize] {
            f(&mut post.lock().expect("no slice panicked holding its post").log);
        }
    };
    merge_cycle(t, logs, ledger, stats, delivered, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::TopologyKind;
    use vix_topology::build_topology;

    #[test]
    fn plan_partitions_routers_and_nodes_contiguously() {
        for kind in [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
            let topo = build_topology(kind, 64).unwrap();
            for shards in [1, 2, 3, 4, 7, 8, topo.routers()] {
                let plan = ShardPlan::new(topo.as_ref(), shards);
                // Router and node ranges tile [0, routers) and [0, nodes) in order.
                let (mut next, mut next_node) = (0, 0);
                for s in 0..shards {
                    let range = plan.router_range(s);
                    assert_eq!(range.start, next);
                    assert!(!range.is_empty(), "{kind:?}/{shards}: empty shard {s}");
                    next = range.end;
                    for r in range {
                        assert_eq!(plan.shard_of_router(r), s);
                    }
                    let nodes = plan.node_range(topo.as_ref(), s);
                    assert_eq!(nodes.start, next_node);
                    next_node = nodes.end;
                    // Every node lands in the shard of its router.
                    for n in nodes {
                        assert_eq!(plan.shard_of_router(topo.router_of(NodeId(n)).0), s);
                    }
                }
                assert_eq!((next, next_node), (topo.routers(), topo.nodes()));
            }
        }
    }

    #[test]
    fn plan_balances_shard_sizes() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        let plan = ShardPlan::new(topo.as_ref(), 7);
        let sizes: Vec<usize> = (0..7).map(|s| plan.router_range(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        assert!(sizes.iter().all(|&n| n == 9 || n == 10), "{sizes:?}");
    }

    #[test]
    #[should_panic(expected = "shards must be in")]
    fn plan_rejects_more_shards_than_routers() {
        let topo = build_topology(TopologyKind::Mesh, 16).unwrap();
        let _ = ShardPlan::new(topo.as_ref(), 17);
    }
}
