//! Deterministic sharded execution of a single [`NetworkSim`] run.
//!
//! [`LoadSweep`](crate::LoadSweep) parallelises *across* simulations; this
//! module parallelises *within* one. The router graph is partitioned into
//! contiguous shards whose sizes differ by at most one router, each owned
//! by one thread — shard 0 by the thread that called
//! [`NetworkSim::run_cycles`], shards `1..S` by a [`std::thread::scope`]
//! pool — and the `S` threads advance in lockstep one cycle at a time.
//! Cross-shard traffic rides the ≥ 2-cycle link latency as conservative
//! lookahead: what a shard sends another at cycle `t` is due at `t + 2`
//! or later, so a single end-of-cycle exchange per shard pair, filed on
//! the receiver's timing wheels at the start of cycle `t + 1`, is enough
//! and no rollback is ever needed.
//!
//! # Cycle protocol
//!
//! **One barrier per cycle** (a [`SpinBarrier`] over `S` participants, on
//! `S` threads). The calling thread is the run's sole RNG and stats owner;
//! per cycle `t`, before it steps shard 0, it
//!
//! 1. replays cycle `t − 1`'s packet logs into the packet ledger, the
//!    statistics and the run's telemetry sink in ascending shard order,
//!    which *is* ascending router order — the serial order — and
//! 2. generates cycle `t + 1`'s traffic in serial node order, one cycle
//!    ahead so the other shards never wait for it, staging each shard's
//!    packets with one lock acquisition per shard.
//!
//! Every shard (`ShardWorker::run_cycle`) drains its staged packets,
//! files the entries of its inbound mailboxes on its wheels, runs the cycle
//! body (`NetSlice::step` in `cycle.rs`, the very method
//! [`NetworkSim::step`] runs over the whole network) over its slice —
//! which puts each send to another shard's router in the outbox for that
//! shard, with its due cycle — swaps its outboxes into the mailboxes, and
//! publishes its packet log, trace events, gauge counts and heartbeat
//! gauges included. — *barrier* — This module holds
//! no copy of the cycle:
//! only the partition, the exchange around the body, and the hand-off of
//! scheduler state in and out of a sharded stretch. Every cross-thread
//! slot is double-buffered by cycle parity, so each `Mutex` is uncontended
//! by construction; a panicking participant poisons the barrier instead of
//! leaving the others blocked.
//!
//! # Determinism
//!
//! A sharded run is **bit-identical** to the serial path for every shard
//! count, recorded trace and metrics included (`tests/shard_parity.rs`;
//! `tests/reference_parity.rs` also holds a sharded run to the independent
//! reference simulator). The proof obligations, spelled out in DESIGN.md
//! §8: one RNG with one owner; interchangeable delivery order (distinct
//! links feed disjoint buffers, credits are commutative increments); and
//! an ordered merge of integer statistics, one packet ledger, and trace
//! events — each shard records into its own [`TelemetrySink::for_shard`]
//! sink, whose events the merge pushes in serial order and whose counters
//! and histograms the run's sink absorbs as sums.
//!
//! Activity gating runs unchanged inside each shard, and a cross-shard
//! delivery wakes the receiving router the same cycle it would serially.
//! On entry the serial wheels are split by the shard that owns each
//! entry's destination; on exit the shard wheels and the final cycle's
//! mailboxes are merged back in shard order, so a simulation moves freely
//! between the serial and sharded engines.

use crate::barrier::{BarrierPoisoned, PoisonOnPanic, SpinBarrier, SpinWaiter};
use crate::cycle::{GatingState, NetSlice, Outbox, PacketLedger, PacketLog, SliceBeat, WAKE_RING};
use crate::network::{EjectedPacket, Far, NetworkSim, TrafficGen};
use crate::stats::NetworkStats;
use std::sync::Mutex;
use vix_core::bits::{set_bit, set_low_bits, test_bit};
use vix_core::{Cycle, NodeId, PacketDescriptor, SimConfig};
use vix_core::config::TelemetrySettings;
use vix_telemetry::{Profiler, SpanKind, TelemetrySink, TraceEvent, TraceEventKind};
use vix_topology::Topology;

/// A partition of the router graph into contiguous, balanced shards.
///
/// Routers `[router_start[s], router_start[s + 1])` and the terminals
/// attached to them belong to shard `s`. Contiguity keeps the
/// shard-order merge equal to ascending-router order (the determinism
/// requirement) and matches dimension-order locality on the mesh, so
/// most links stay inside a shard.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// `shards + 1` fenceposts over router indices.
    router_start: Vec<usize>,
    /// `shards + 1` fenceposts over node indices.
    node_start: Vec<usize>,
}

impl ShardPlan {
    /// Partitions `topology` into `shards` contiguous router ranges of
    /// near-equal size (the first `routers % shards` shards take one
    /// extra router).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the router count, or if the
    /// topology's node→router attachment is not monotone (every shipped
    /// topology attaches nodes in router order).
    pub(crate) fn new(topology: &dyn Topology, shards: usize) -> Self {
        let routers = topology.routers();
        assert!(shards >= 1 && shards <= routers, "shards must be in 1..={routers}");
        let base = routers / shards;
        let extra = routers % shards;
        let mut router_start = Vec::with_capacity(shards + 1);
        let mut at = 0;
        router_start.push(0);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            router_start.push(at);
        }
        let nodes = topology.nodes();
        let node_start: Vec<usize> = router_start
            .iter()
            .map(|&r| {
                (0..nodes)
                    .position(|n| topology.router_of(NodeId(n)).0 >= r)
                    .unwrap_or(nodes)
            })
            .collect();
        let plan = ShardPlan { router_start, node_start };
        // Shards must own their terminals: a node staged to shard `s`
        // is enqueued on a source slice owned by `s`, and its flits and
        // credits travel over its router's local port, never between
        // shards.
        for n in 0..nodes {
            let owner = plan.shard_of_router(topology.router_of(NodeId(n)).0);
            assert!(
                plan.node_range(owner).contains(&n),
                "node {n} not contiguous with its router's shard; \
                 node→router attachment must be monotone"
            );
        }
        plan
    }

    /// Routers owned by shard `s`.
    fn router_range(&self, s: usize) -> std::ops::Range<usize> {
        self.router_start[s]..self.router_start[s + 1]
    }

    /// Terminals owned by shard `s`.
    fn node_range(&self, s: usize) -> std::ops::Range<usize> {
        self.node_start[s]..self.node_start[s + 1]
    }

    /// The shard owning router `r`.
    fn shard_of_router(&self, r: usize) -> usize {
        // Fenceposts are sorted; partition_point returns the first start
        // beyond `r`, whose predecessor is the owning shard.
        self.router_start.partition_point(|&start| start <= r) - 1
    }

    /// The shard owning terminal `n`.
    fn shard_of_node(&self, n: usize) -> usize {
        self.node_start.partition_point(|&start| start <= n) - 1
    }

    /// The shard owning the far end `far` of a link.
    fn shard_of(&self, far: Far) -> usize {
        match far {
            Far::Router(r, _) => self.shard_of_router(r as usize),
            Far::Terminal(n) => self.shard_of_node(n as usize),
            Far::Open => unreachable!("nothing travels to an unconnected port"),
        }
    }
}

/// `grid[dst][src]`: one locked outbox per ordered shard pair. The
/// `Mutex` is uncontended by construction — each (dst, src, parity) slot
/// is filled and drained in barrier-separated windows.
type MailGrid = Vec<Vec<Mutex<Outbox>>>;

/// Cross-shard mailboxes, double-buffered by cycle parity: `mail[t % 2]`
/// holds what the shards sent at cycle `t`, which the receivers file on
/// their wheels at the start of cycle `t + 1`.
fn mailboxes(shards: usize) -> [MailGrid; 2] {
    let grid = || (0..shards).map(|_| (0..shards).map(|_| Mutex::default()).collect()).collect();
    [grid(), grid()]
}

/// What the shards of one sharded stretch share: the rendezvous and the
/// parity-double-buffered exchange slots.
struct Stretch<'a> {
    panic_inject: Option<(u64, usize)>,
    barrier: &'a SpinBarrier,
    mail: &'a [MailGrid; 2],
    staged: &'a [Vec<Mutex<Vec<PacketDescriptor>>>; 2],
    outs: &'a [Vec<Mutex<PacketLog>>; 2],
}

/// One shard: its slice of the network plus the private state the cycle
/// body runs on.
struct ShardWorker<'a> {
    idx: usize,
    net: NetSlice<'a>,
    /// Shard-local scheduler state, sized for this shard's slice, with an
    /// outbox per shard.
    gating: GatingState,
    /// This shard's sink ([`TelemetrySink::for_shard`]), absorbed into the
    /// run's when the stretch ends; its trace travels in the packet log.
    sink: TelemetrySink,
    log: PacketLog,
    /// This shard's private sense flag for the cycle barrier.
    waiter: SpinWaiter,
}

impl ShardWorker<'_> {
    /// One participant's whole cycle `t` — this shard's part of it, then
    /// the end-of-cycle barrier — run alike by the calling thread (shard
    /// 0) and the spawned ones. The cycle-`t` parity slots are never
    /// contended: `staged` was filled before cycle `t` began, `mail[t % 2]`
    /// is drained during cycle `t + 1` (or by the hand-off, after the
    /// stretch's final cycle) and `outs` is drained during cycle `t + 1`.
    fn run_cycle(&mut self, t: u64, sh: &Stretch<'_>) -> Result<(), BarrierPoisoned> {
        if sh.panic_inject == Some((t, self.idx)) {
            panic!("injected shard panic at cycle {t} shard {}", self.idx);
        }
        let parity = (t % 2) as usize;
        // Profiling lap chain: the staged and mailbox drains and the
        // outbox posts are `Exchange`; the cycle body laps its own phases.
        let mut span = self.sink.span_start();

        // 0. Packets generated for this cycle one cycle ago (phase 1).
        let staged = &sh.staged[parity][self.idx];
        for packet in staged.lock().expect("no panic while staging").drain(..) {
            let i = packet.source.0 - self.net.node_off;
            self.net.terminals[i].enqueue(packet);
            set_bit(&mut self.gating.sources, i);
        }

        // 1. File what the other shards sent this shard last cycle. All of
        // it is due at `t + 1` or later: every router link has ≥ 2 cycles
        // of latency.
        for (src, slot) in sh.mail[1 - parity][self.idx].iter().enumerate() {
            if src != self.idx {
                let mut inbox = slot.lock().expect("sender not panicked");
                for (due, arrival) in inbox.arrivals.drain(..) {
                    self.gating.arrivals.push(due, arrival);
                }
                for (due, credit) in inbox.returns.drain(..) {
                    self.gating.returns.push(due, credit);
                }
            }
        }
        span = self.sink.span_lap(SpanKind::Exchange, t, span);

        // 2–5. The cycle body, over this shard's slice.
        span = self.net.step(Cycle(t), &mut self.gating, &mut self.sink, &mut self.log, span);

        // 6. Post this cycle's sends to the other shards. The swap gets
        // back the outbox the receiver drained last cycle, keeping the
        // steady state allocation-free.
        for (dst, outbox) in self.gating.outboxes.iter_mut().enumerate() {
            if outbox.len() > 0 {
                let mut slot = sh.mail[parity][dst][self.idx].lock().expect("receiver not panicked");
                std::mem::swap(&mut *slot, outbox);
            }
        }

        // 7. Publish this cycle's packet log, trace events and heartbeat
        // gauges for the calling thread's merge, swapped like the outboxes.
        if let Some(beat) = &mut self.log.beat {
            (beat.busy_ns, beat.barrier_ns) =
                self.sink.profiler().map_or((0, 0), Profiler::own_busy_barrier_ns);
        }
        self.sink.take_trace(&mut self.log.trace);
        std::mem::swap(
            &mut *sh.outs[parity][self.idx].lock().expect("merger not panicked"),
            &mut self.log,
        );
        self.sink.span_lap(SpanKind::Exchange, t, span);
        // — the end-of-cycle barrier —
        let span = self.sink.span_start();
        sh.barrier.wait(&mut self.waiter)?;
        self.sink.span_lap(SpanKind::BarrierWait, t, span);
        Ok(())
    }
}

/// Replays cycle `t`'s per-shard packet logs into the network's ledger,
/// statistics, sink and the caller's delivery buffer (if any), in shard
/// order = ascending router order = serial order — except that a serial
/// cycle traces every `Inject` before any router event, so each shard's
/// leading `Inject`s go first.
fn merge_cycle(
    t: u64,
    outs: &[Mutex<PacketLog>],
    ledger: &mut PacketLedger,
    stats: &mut NetworkStats,
    mut delivered: Option<&mut Vec<EjectedPacket>>,
    sink: &mut TelemetrySink,
) {
    let inject = |ev: &TraceEvent| ev.kind == TraceEventKind::Inject;
    if sink.tracing() {
        for slot in outs {
            let out = slot.lock().expect("shard not panicked");
            out.trace.iter().take_while(|ev| inject(ev)).for_each(|&ev| sink.trace(ev));
        }
    }
    let (mut active, mut wake) = (0, 0);
    // Every shard has a beat on a heartbeat cycle, and none otherwise.
    let mut beats = Vec::new();
    for slot in outs {
        let mut out = slot.lock().expect("shard not panicked");
        out.replay(ledger, stats, delivered.as_deref_mut());
        out.trace.drain(..).skip_while(inject).for_each(|ev| sink.trace(ev));
        (active, wake) = (active + out.active_routers, wake + out.wake_events);
        beats.extend(out.beat.take());
    }
    sink.gauge(sink.ids.sched_active_routers, active);
    sink.gauge(sink.ids.sched_wake_events, wake);
    if !beats.is_empty() {
        SliceBeat::record(&beats, true, t + 1, sink);
    }
}

/// Phase 1 for cycle `u`, run by the calling thread one cycle ahead of
/// the shards: the run's one generator batches each shard's packets into
/// a caller-owned buffer, which is then swapped into the shared staging
/// slot with one lock acquisition per (non-idle) shard. The slot was
/// drained by its shard two cycles ago, so the swap hands back an empty
/// vector and the steady state stays allocation-free.
fn stage_cycle(
    u: u64,
    traffic: &mut TrafficGen,
    cfg: &SimConfig,
    stats: &mut NetworkStats,
    plan: &ShardPlan,
    gen_bufs: &mut [Vec<PacketDescriptor>],
    staged: &[Mutex<Vec<PacketDescriptor>>],
) {
    traffic.generate(u, cfg, stats, |packet| {
        gen_bufs[plan.shard_of_node(packet.source.0)].push(packet);
    });
    for (buf, slot) in gen_bufs.iter_mut().zip(staged) {
        if !buf.is_empty() {
            std::mem::swap(&mut *slot.lock().expect("shard not panicked"), buf);
        }
    }
}

/// Advances `sim` by `cycles` cycles across `shards` threads — this one,
/// which steps shard 0, plus `shards − 1` spawned ones —
/// bit-identically to `cycles` serial [`NetworkSim::step_into`] calls
/// (`delivered` receives the same packets in the same order).
///
/// The caller ([`NetworkSim::run_cycles`]) guarantees `shards` is in
/// `2..=routers`.
pub(crate) fn run_sharded(
    sim: &mut NetworkSim,
    cycles: u64,
    shards: usize,
    mut delivered: Option<&mut Vec<EjectedPacket>>,
) {
    if cycles == 0 {
        return;
    }
    let start = sim.now.0;
    let end = start + cycles;
    let plan = ShardPlan::new(sim.topology.as_ref(), shards);
    let credits_per_port = sim.cfg.network.router.virtual_inputs_per_port();
    let mut mail = mailboxes(shards);

    // Engine self-profiling: each shard's sink carries its own span track
    // (no sharing, no locks on the hot path), with its share of the span
    // capacity.
    let span_cap = (TelemetrySettings::DEFAULT_SPAN_CAPACITY / shards).max(1024);

    // Split the network into per-shard slices.
    let mut workers: Vec<ShardWorker> = Vec::with_capacity(shards);
    let mut rest = sim.net.slice(&sim.cfg, &sim.vc_occupancy);
    for s in 0..shards {
        let (range, nodes) = (plan.router_range(s), plan.node_range(s).len());
        let (net, tail) = rest.split_at(range.len(), nodes);
        rest = tail;
        let mut gating = GatingState::new(net.wiring, range.clone(), nodes, credits_per_port);
        gating.outboxes = (0..shards).map(|_| Outbox::default()).collect();
        gating.fences.clone_from(&plan.router_start);
        if s == 0 {
            // The shards' step counts then sum to the run's, as a
            // heartbeat reports it.
            gating.router_steps = sim.gating.router_steps;
        }
        for r in range.clone().filter(|&r| test_bit(&sim.gating.work, r)) {
            set_bit(&mut gating.work, r - range.start);
        }
        workers.push(ShardWorker {
            idx: s,
            net,
            gating,
            sink: sim.telemetry.for_shard(s as u32, span_cap),
            log: PacketLog::default(),
            waiter: SpinWaiter::new(),
        });
    }
    // Split the serial wheels: each entry goes, in order, to the same slot
    // of the wheel of the shard that owns its destination.
    for slot in 0..WAKE_RING {
        for arrival in sim.gating.arrivals.slots[slot].drain(..) {
            workers[plan.shard_of_router(arrival.0 as usize)].gating.arrivals.slots[slot].push(arrival);
        }
        for credit in sim.gating.returns.slots[slot].drain(..) {
            workers[plan.shard_of(credit.0)].gating.returns.slots[slot].push(credit);
        }
    }

    // Staging and record slots are double-buffered by cycle parity too:
    // during cycle `t` the calling thread's duties fill
    // `staged[(t + 1) % 2]` and drain `outs[(t - 1) % 2]` while the shards
    // touch only the `t % 2` slots, so every lock is uncontended and
    // taken once per cycle.
    let staged: [Vec<Mutex<Vec<PacketDescriptor>>>; 2] = [
        (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
    ];
    let outs: [Vec<Mutex<PacketLog>>; 2] = [
        (0..shards).map(|_| Mutex::new(PacketLog::default())).collect(),
        (0..shards).map(|_| Mutex::new(PacketLog::default())).collect(),
    ];
    let mut gen_bufs: Vec<Vec<PacketDescriptor>> = vec![Vec::new(); shards];
    let barrier = SpinBarrier::new(shards);
    let sh = Stretch {
        panic_inject: sim.shard_panic_at,
        barrier: &barrier,
        mail: &mail,
        staged: &staged,
        outs: &outs,
    };

    // Pipeline fill: cycle `start`'s packets are staged before the other
    // shards exist (spawning publishes them), so the in-loop generation
    // can run one cycle ahead from the very first barrier.
    stage_cycle(
        start,
        &mut sim.traffic,
        &sim.cfg,
        &mut sim.stats,
        &plan,
        &mut gen_bufs,
        &staged[(start % 2) as usize],
    );

    let mut workers = workers.into_iter();
    let mut shard0 = workers.next().expect("a sharded stretch has at least two shards");
    let finished: Vec<ShardWorker> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards - 1);
        for mut w in workers {
            let sh = &sh;
            handles.push(scope.spawn(move || {
                // A panic anywhere in the cycle body poisons the barrier
                // on unwind, releasing the other shards instead of
                // deadlocking them.
                let _poison = PoisonOnPanic(sh.barrier);
                for t in start..end {
                    if w.run_cycle(t, sh).is_err() {
                        break;
                    }
                }
                w
            }));
        }
        // This thread: the stats/RNG owner, and shard 0. Before stepping
        // cycle `t` it merges cycle `t − 1`'s packet logs and generates cycle
        // `t + 1`'s traffic with the run's single generator, so the random
        // stream and packet-id sequence are shard-count-invariant. The
        // guard covers duties and shard 0's step alike: either panic
        // unwinds straight out of the scope.
        let _poison = PoisonOnPanic(&barrier);
        let mut poisoned = false;
        for t in start..end {
            let mut csp = sim.telemetry.span_start();
            if t > start {
                let out = &outs[((t - 1) % 2) as usize];
                let ejected = delivered.as_deref_mut();
                merge_cycle(t - 1, out, &mut sim.ledger, &mut sim.stats, ejected, &mut sim.telemetry);
                csp = sim.telemetry.span_lap(SpanKind::StatsMerge, t, csp);
            }
            // Stage cycle `t + 1` — except past the end of this sharded
            // stretch: cycle `end`'s draws belong to whichever engine
            // steps cycle `end`.
            if t + 1 < end {
                stage_cycle(
                    t + 1,
                    &mut sim.traffic,
                    &sim.cfg,
                    &mut sim.stats,
                    &plan,
                    &mut gen_bufs,
                    &staged[((t + 1) % 2) as usize],
                );
                sim.telemetry.span_lap(SpanKind::TrafficGen, t, csp);
            }
            if shard0.run_cycle(t, &sh).is_err() {
                poisoned = true;
                break;
            }
        }
        if !poisoned {
            let out = &outs[((end - 1) % 2) as usize];
            merge_cycle(end - 1, out, &mut sim.ledger, &mut sim.stats, delivered, &mut sim.telemetry);
        }
        let mut finished = vec![shard0];
        for h in handles {
            match h.join() {
                Ok(w) => finished.push(w),
                // Re-throw the shard's panic on this thread; the barrier
                // is already poisoned, so the remaining shards have
                // unwound (or will at their next wait) and the scope can
                // close.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        assert!(!poisoned, "shard barrier poisoned but every shard joined cleanly");
        finished
    });

    // Reassemble the serial scheduler's state so `step()` (or a later
    // `run_cycles`) can continue from cycle `end` seamlessly: merge the
    // shard wheels slot by slot in shard order, then file the final cycle's
    // sends, still in their mailboxes.
    sim.gating.work.fill(0);
    sim.gating.router_steps = 0;
    for mut w in finished {
        sim.gating.router_steps += w.gating.router_steps;
        sim.telemetry.absorb(w.sink);
        // Every router still holding a flit is in its shard's work set for
        // cycle `end`.
        for ri in (0..w.net.routers.len()).filter(|&ri| test_bit(&w.gating.work, ri)) {
            set_bit(&mut sim.gating.work, w.net.router_off + ri);
        }
        for slot in 0..WAKE_RING {
            sim.gating.arrivals.slots[slot].append(&mut w.gating.arrivals.slots[slot]);
            sim.gating.returns.slots[slot].append(&mut w.gating.returns.slots[slot]);
        }
    }
    for slot in mail[((end - 1) % 2) as usize].iter_mut().flatten() {
        let outbox = slot.get_mut().expect("every shard joined cleanly");
        for (due, arrival) in outbox.arrivals.drain(..) {
            sim.gating.arrivals.push(due, arrival);
        }
        for (due, credit) in outbox.returns.drain(..) {
            sim.gating.returns.push(due, credit);
        }
    }
    set_low_bits(&mut sim.gating.sources, sim.net.terminals.len());
    sim.now = Cycle(end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_topology::build_topology;
    use vix_core::TopologyKind;

    #[test]
    fn plan_partitions_routers_and_nodes_contiguously() {
        for kind in [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
            let topo = build_topology(kind, 64).unwrap();
            for shards in [1, 2, 3, 4, 7, 8, topo.routers()] {
                let plan = ShardPlan::new(topo.as_ref(), shards);
                // Router ranges tile [0, routers) in order.
                let mut next = 0;
                for s in 0..shards {
                    let range = plan.router_range(s);
                    assert_eq!(range.start, next);
                    assert!(!range.is_empty(), "{kind:?}/{shards}: empty shard {s}");
                    next = range.end;
                    for r in range {
                        assert_eq!(plan.shard_of_router(r), s);
                    }
                }
                assert_eq!(next, topo.routers());
                // Every node lands in the shard of its router.
                for n in 0..topo.nodes() {
                    let s = plan.shard_of_node(n);
                    assert!(plan.node_range(s).contains(&n));
                    assert_eq!(s, plan.shard_of_router(topo.router_of(NodeId(n)).0));
                }
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
