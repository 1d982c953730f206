//! Deterministic sharded execution of a single [`NetworkSim`] run.
//!
//! [`LoadSweep`](crate::LoadSweep) parallelises *across* simulations; this
//! module parallelises *within* one. The router graph is partitioned into
//! contiguous shards ([`ShardPlan`] — equal-sized by default, or weighted
//! by per-router cost via [`ShardPlan::weighted`]), each owned by one
//! thread — shard 0 by the thread that called
//! [`NetworkSim::run_cycles`], shards `1..S` by a [`std::thread::scope`]
//! pool — and the `S` threads advance in lockstep one cycle at a time.
//! Cross-shard traffic rides the ≥ 2-cycle link latency as conservative
//! lookahead: everything a boundary pipe will deliver at cycle `t + 1` is
//! already in flight (and final) by the end of cycle `t`, so a single
//! end-of-cycle exchange per neighbour pair is enough and no rollback is
//! ever needed.
//!
//! # Cycle protocol
//!
//! **One barrier per cycle** (a [`SpinBarrier`] over `shards`
//! participants — `S` shards run on `S` threads, never `S + 1`). The
//! calling thread is the run's sole RNG and stats owner; per cycle `t`,
//! before it steps shard 0, it does the run's serial duties:
//!
//! 1. merges cycle `t − 1`'s ejection records shard-by-shard in ascending
//!    shard order (which *is* ascending router order, so statistics
//!    accumulate in exactly the serial order), and
//! 2. runs phase 1 traffic generation for cycle `t + 1` in serial node
//!    order — one cycle ahead, so shards `1..S` never wait for it —
//!    batching each shard's packets into a caller-owned staging buffer
//!    that is swapped into the shared slot with **one** lock acquisition
//!    per shard per cycle.
//!
//! Then everybody meets at the single end-of-cycle barrier and the next
//! cycle begins. The lookahead is safe because the inputs of cycle `t`
//! were fully staged before `t` started: cycle `start`'s packets are
//! generated before the other shards are spawned, and cycle `t + 1`'s are
//! final at the barrier that closes `t` — a shard never observes a
//! staging buffer mid-write.
//!
//! Every shard, per cycle `t` (`ShardWorker::run_cycle`, the one body
//! the calling thread and the spawned threads share): drain staged
//! packets and inbound cross-shard mailboxes, execute the shard-local
//! copy of the serial step (gated or ungated, phases 2–5), then pop every
//! boundary pipe up to `t + 1` into the destination shard's mailbox for
//! the next cycle, and publish the cycle's ejection records. — *barrier* —
//!
//! Mailboxes, staging slots, and record slots are all double-buffered by
//! cycle parity, so the side that fills a cycle-`t + 1` buffer never
//! contends with the side draining the cycle-`t` one: every `Mutex` in
//! the protocol is uncontended by construction and acquired at most once
//! per shard per cycle.
//!
//! A panicking participant poisons the barrier through a `PoisonOnPanic`
//! guard instead of leaving everyone else blocked; survivors observe the
//! poison at their next wait and unwind. A shard-0 (or duties) panic
//! unwinds straight out of the scope on the calling thread; a spawned
//! shard's comes back through its `join` and is re-thrown there.
//!
//! # Determinism
//!
//! A sharded run is **bit-identical** to the serial path for every shard
//! count (pinned by `tests/shard_parity.rs` across all eight allocator
//! configurations). The proof obligations, spelled out in DESIGN.md §8:
//!
//! * **One RNG, one owner** — traffic generation never leaves the
//!   calling thread, so the random stream is byte-for-byte the serial one
//!   regardless of shard count; shard seeds are never derived.
//! * **Interchangeable delivery order** — distinct pipes feed disjoint
//!   `(port, vc)` buffers and credits are commutative counter
//!   increments, so draining mailboxes before local pipes is
//!   indistinguishable from the serial sweep order (the same invariant
//!   the activity-gated scheduler already relies on).
//! * **Ordered merge** — per-shard ejection records are concatenated in
//!   shard order = global ascending router order, reproducing the serial
//!   `NetworkStats` accumulation order exactly; all accumulation is
//!   integer, so no floating-point reassociation can leak in.
//!
//! Activity gating runs unchanged inside each shard: the wake calendar,
//! active set, retention, and idle replay are all per-router state, and a
//! cross-shard delivery wakes the receiving router the same cycle it
//! would have in a serial run. On entry and exit the calendars are
//! rebuilt from pipe contents ([`Pipe::dues`]), so a simulation can move
//! freely between the serial and sharded schedulers mid-run.

use crate::barrier::{BarrierPoisoned, PoisonOnPanic, SpinBarrier, SpinWaiter};
use crate::channel::Pipe;
use crate::network::{
    CreditDest, EjectedPacket, GatingState, NetworkSim, WakeEvent, WAKE_RING,
};
use crate::source::SourceQueue;
use crate::stats::NetworkStats;
use std::sync::Mutex;
use vix_core::{
    Cycle, Flit, NodeId, PacketDescriptor, PacketId, PortId, RouterId, SimConfig,
    TelemetrySettings, VcId,
};
use vix_rng::rngs::StdRng;
use vix_router::{Router, RouterOutput};
use vix_telemetry::{HealthBoard, Profiler, SpanKind, SpanStart, TelemetrySink};
use vix_topology::Topology;
use vix_traffic::{BernoulliInjector, TrafficPattern};

/// A partition of the router graph into contiguous, balanced shards.
///
/// Routers `[router_start[s], router_start[s + 1])` and the terminals
/// attached to them belong to shard `s`. Contiguity keeps the
/// shard-order merge equal to ascending-router order (the determinism
/// requirement) and matches dimension-order locality on the mesh, so
/// most links stay inside a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
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
    #[must_use]
    pub fn new(topology: &dyn Topology, shards: usize) -> Self {
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
        ShardPlan::from_router_starts(topology, router_start)
    }

    /// Partitions `topology` into `shards` contiguous router ranges whose
    /// per-shard **weight** sums are as even as a contiguous split allows:
    /// each cut is placed where adding the next router would overshoot the
    /// remaining-weight-per-remaining-shard target by more than stopping
    /// short undershoots it. With uniform weights this reduces to the
    /// equal split of [`ShardPlan::new`] (sizes differ by at most one).
    ///
    /// `weights[r]` is the relative cost of stepping router `r` — e.g. a
    /// prior run's per-shard busy ratios or per-router utilization spread
    /// over the routers (see `vixsim --shard-weights`). Zero weights are
    /// treated as 1 so every shard stays non-empty.
    ///
    /// Any contiguous partition is bit-identical to serial (the merge
    /// order is still ascending router order), so the weighting is purely
    /// a load-balance knob — `tests/shard_parity.rs` pins this.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the router count, or if
    /// `weights.len()` differs from the router count, or on a non-monotone
    /// node→router attachment (as [`ShardPlan::new`]).
    #[must_use]
    pub fn weighted(topology: &dyn Topology, shards: usize, weights: &[u64]) -> Self {
        let routers = topology.routers();
        assert!(shards >= 1 && shards <= routers, "shards must be in 1..={routers}");
        assert_eq!(weights.len(), routers, "need exactly one weight per router");
        let w = |r: usize| u128::from(weights[r].max(1));
        let mut rem_w: u128 = (0..routers).map(w).sum();
        let mut router_start = Vec::with_capacity(shards + 1);
        router_start.push(0);
        let mut at = 0usize;
        for s in 0..shards - 1 {
            let rem_shards = (shards - s) as u128;
            // Every shard still to come needs at least one router.
            let max_take = routers - at - (shards - s - 1);
            let mut acc: u128 = 0;
            let mut take = 0usize;
            while take < max_take {
                let next = w(at + take);
                // Stop once acc + next/2 exceeds rem_w / rem_shards,
                // i.e. once adding `next` moves further past the target
                // than stopping short stays below it (integer form).
                if take >= 1 && (2 * acc + next) * rem_shards > 2 * rem_w {
                    break;
                }
                acc += next;
                take += 1;
            }
            at += take;
            rem_w -= acc;
            router_start.push(at);
        }
        router_start.push(routers);
        ShardPlan::from_router_starts(topology, router_start)
    }

    /// Finishes a plan from router fenceposts: derives the node
    /// fenceposts and checks the node→router attachment is monotone.
    fn from_router_starts(topology: &dyn Topology, router_start: Vec<usize>) -> Self {
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
        // is enqueued on a source slice owned by `s`, and a source's
        // credit pipe lives on the router it is attached to.
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

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.router_start.len() - 1
    }

    /// Routers owned by shard `s`.
    #[must_use]
    pub fn router_range(&self, s: usize) -> std::ops::Range<usize> {
        self.router_start[s]..self.router_start[s + 1]
    }

    /// Terminals owned by shard `s`.
    #[must_use]
    pub fn node_range(&self, s: usize) -> std::ops::Range<usize> {
        self.node_start[s]..self.node_start[s + 1]
    }

    /// The shard owning router `r`.
    #[must_use]
    pub fn shard_of_router(&self, r: usize) -> usize {
        // Fenceposts are sorted; partition_point returns the first start
        // beyond `r`, whose predecessor is the owning shard.
        self.router_start.partition_point(|&start| start <= r) - 1
    }

    /// The shard owning terminal `n`.
    #[must_use]
    pub fn shard_of_node(&self, n: usize) -> usize {
        self.node_start.partition_point(|&start| start <= n) - 1
    }
}

/// A flit link whose downstream router lives in another shard: drained
/// by the owning shard's boundary scan instead of its wake calendar.
#[derive(Debug, Clone, Copy)]
struct FlitBoundary {
    from: usize,
    port: usize,
    down: RouterId,
    down_port: PortId,
    dst_shard: usize,
}

/// A credit link whose upstream router lives in another shard.
#[derive(Debug, Clone, Copy)]
struct CreditBoundary {
    from: usize,
    port: usize,
    up: RouterId,
    up_port: PortId,
    dst_shard: usize,
}

/// One ejection as the serial path would have recorded it into
/// [`NetworkStats`]; replayed by the calling thread in merge order.
#[derive(Debug, Clone, Copy)]
struct StatRecord {
    source: NodeId,
    is_tail: bool,
    created_at: Cycle,
    at: Cycle,
}

/// One cycle's observable output of one shard, swapped to the merging
/// thread through a `Mutex` (uncontended: the two sides touch it in
/// barrier-separated windows).
#[derive(Debug, Default)]
struct CycleOut {
    recs: Vec<StatRecord>,
    ejects: Vec<EjectedPacket>,
}

/// `grid[dst][src]`: one locked delivery queue per ordered shard pair.
/// The `Mutex` is uncontended by construction — each (dst, src, parity)
/// slot is filled and drained in barrier-separated windows.
type MailGrid<T> = Vec<Vec<Mutex<Vec<T>>>>;

/// Per-pair cross-shard delivery queues, double-buffered by cycle
/// parity: `flits[t % 2][dst][src]` holds deliveries due at cycle `t`.
#[derive(Debug)]
struct Mailboxes {
    flits: [MailGrid<(RouterId, PortId, Flit)>; 2],
    credits: [MailGrid<(RouterId, PortId, VcId)>; 2],
}

impl Mailboxes {
    fn new(shards: usize) -> Self {
        fn grid<T>(shards: usize) -> MailGrid<T> {
            (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect()
        }
        Mailboxes {
            flits: [grid(shards), grid(shards)],
            credits: [grid(shards), grid(shards)],
        }
    }
}

/// What the shards of one sharded stretch share: the rendezvous, the
/// parity-double-buffered exchange slots, and the health board.
struct Stretch<'a> {
    end: u64,
    panic_inject: Option<(u64, usize)>,
    barrier: &'a SpinBarrier,
    mail: &'a Mailboxes,
    staged: &'a [Vec<Mutex<Vec<PacketDescriptor>>>; 2],
    outs: &'a [Vec<Mutex<CycleOut>>; 2],
    board: Option<&'a HealthBoard>,
    beat_every: u64,
}

/// One shard's owned slice of the network plus its private
/// scheduler state. Router, pipe, and source indices arriving from
/// shared structures are global; the `router_off` / `node_off` offsets
/// translate them into the local slices.
struct ShardWorker<'a> {
    idx: usize,
    cfg: SimConfig,
    plan: &'a ShardPlan,
    topology: &'a dyn Topology,
    /// Shared precomputed routing table (read-only across shards).
    routes: &'a crate::network::RouteTable,
    router_off: usize,
    node_off: usize,
    routers: &'a mut [Router],
    flit_pipes: &'a mut [Vec<Option<Pipe<Flit>>>],
    credit_pipes: &'a mut [Vec<Pipe<VcId>>],
    credit_dests: &'a [Vec<CreditDest>],
    inject_pipes: &'a mut [Pipe<Flit>],
    sources: &'a mut [SourceQueue],
    flit_boundary: Vec<FlitBoundary>,
    credit_boundary: Vec<CreditBoundary>,
    /// Shard-local gating state (globally indexed; only this shard's
    /// entries are ever touched).
    gating: GatingState,
    out: RouterOutput,
    /// Disabled sink: telemetry-recording runs never reach the sharded
    /// engine (see [`NetworkSim::effective_shards`]).
    sink: TelemetrySink,
    /// This shard's engine self-profiler (its own flame track), sharing
    /// the engine track's epoch; `None` when profiling is off. Profiling
    /// only reads the host clock, so — unlike the recording sink above —
    /// it runs fine under the sharded engine.
    prof: Option<Box<Profiler>>,
    recs: Vec<StatRecord>,
    ejects: Vec<EjectedPacket>,
    /// This shard's private sense flag for the cycle barrier.
    waiter: SpinWaiter,
}

impl ShardWorker<'_> {
    /// Starts a profiling span chain (no clock read when profiling is
    /// off).
    #[inline]
    fn sp_start(&self) -> SpanStart {
        match &self.prof {
            Some(p) => p.start(),
            None => SpanStart::DISABLED,
        }
    }

    /// Closes the span begun at `from` as `kind` for cycle `t` and
    /// starts the next one at the same instant.
    #[inline]
    fn sp_lap(&mut self, kind: SpanKind, t: u64, from: SpanStart) -> SpanStart {
        match &mut self.prof {
            Some(p) => p.lap(kind, t, from),
            None => SpanStart::DISABLED,
        }
    }

    /// Publishes this shard's cumulative busy/barrier wall-clock to the
    /// health board every cycle (two relaxed stores), plus the
    /// heartbeat-cycle gauges (router steps, wake-calendar depth,
    /// buffered flits) when cycle `t` closes a heartbeat interval. Runs
    /// before the end-of-cycle barrier, which orders the stores ahead of
    /// the heartbeat's reads.
    fn publish_health(&self, board: &HealthBoard, t: u64, beat_every: u64) {
        let Some(p) = &self.prof else { return };
        let (busy, barrier) = p.own_busy_barrier_ns();
        board.publish_time(self.idx, busy, barrier);
        if beat_every > 0 && (t + 1).is_multiple_of(beat_every) {
            let wake: u64 = if self.cfg.activity_gating {
                self.gating.calendar.iter().map(|slot| slot.len() as u64).sum()
            } else {
                0
            };
            let buffered: u64 = self.routers.iter().map(|r| r.buffered_flits() as u64).sum();
            board.publish_gauges(self.idx, self.gating.router_steps, wake, buffered);
        }
    }

    /// Rebuilds this shard's wake calendar from the contents of its own
    /// pipes. Every in-flight item's due cycle lies within `WAKE_RING`
    /// of `now`, so slots never alias. Boundary pipes are skipped — the
    /// unconditional boundary scan replaces their calendar events.
    fn rebuild_calendar(&mut self) {
        for (i, pipe) in self.inject_pipes.iter().enumerate() {
            let n = self.node_off + i;
            for due in pipe.dues() {
                self.gating.inject_sched[n] = due;
                self.gating.calendar[(due % WAKE_RING as u64) as usize]
                    .push(WakeEvent::Inject(n));
            }
        }
        for ri in 0..self.routers.len() {
            let r = self.router_off + ri;
            for p in 0..self.flit_pipes[ri].len() {
                let Some(pipe) = self.flit_pipes[ri][p].as_ref() else { continue };
                if pipe.is_empty() {
                    continue;
                }
                let (down, _) = self
                    .routes
                    .neighbor(RouterId(r), PortId(p))
                    .expect("flit pipe exists only on connected ports");
                if self.plan.shard_of_router(down.0) != self.idx {
                    continue;
                }
                for due in pipe.dues() {
                    self.gating.flit_sched[r][p] = due;
                    self.gating.calendar[(due % WAKE_RING as u64) as usize]
                        .push(WakeEvent::FlitLink(r, p));
                }
            }
            for p in 0..self.credit_pipes[ri].len() {
                if self.credit_pipes[ri][p].is_empty() {
                    continue;
                }
                let local = match self.credit_dests[ri][p] {
                    CreditDest::Upstream(ur, _) => self.plan.shard_of_router(ur.0) == self.idx,
                    CreditDest::Source(_) => true,
                    CreditDest::Unconnected => {
                        unreachable!("credit in flight on unconnected port {p} of router {r}")
                    }
                };
                if !local {
                    continue;
                }
                for due in self.credit_pipes[ri][p].dues() {
                    self.gating.credit_sched[r][p] = due;
                    self.gating.calendar[(due % WAKE_RING as u64) as usize]
                        .push(WakeEvent::CreditLink(r, p));
                }
            }
        }
    }

    /// One participant's whole cycle `t` — this shard's part of it, then
    /// the end-of-cycle barrier — run alike by the calling thread (shard
    /// 0) and the spawned ones. The cycle-`t` parity slots are never
    /// contended: `staged` was filled before cycle `t` began and `outs` is
    /// drained during cycle `t + 1`. The stretch's final cycle skips the
    /// boundary scan: there is no cycle `t + 1` in this run to drain the
    /// mailboxes, and whichever engine continues (serial stepping or the
    /// next stretch's pre-scan) delivers straight from the pipes.
    fn run_cycle(&mut self, t: u64, sh: &Stretch<'_>) -> Result<(), BarrierPoisoned> {
        if sh.panic_inject == Some((t, self.idx)) {
            panic!("injected shard panic (VIX_SHARD_PANIC_AT) at cycle {t} shard {}", self.idx);
        }
        let now = Cycle(t);
        let gated = self.cfg.activity_gating;
        let parity = (t % 2) as usize;
        // Profiling lap chain: staged/mailbox drains and the boundary
        // scan are `Exchange`; the step phases lap themselves.
        let mut span = self.sp_start();

        // 0. Packets generated for this cycle one cycle ago (phase 1).
        let staged = &sh.staged[parity][self.idx];
        for packet in staged.lock().expect("no panic while staging").drain(..) {
            self.sources[packet.source.0 - self.node_off].enqueue(packet);
        }

        // 1. Inbound cross-shard deliveries due this cycle. Flit
        // deliveries wake the receiving router exactly as a calendar
        // event would; credits follow the credit-no-wake rule.
        for src in 0..self.plan.shards() {
            if src == self.idx {
                continue;
            }
            {
                let mut inbox =
                    sh.mail.flits[parity][self.idx][src].lock().expect("sender not panicked");
                for (down, port, flit) in inbox.drain(..) {
                    self.routers[down.0 - self.router_off].accept_flit(port, flit);
                    if gated {
                        NetworkSim::activate(
                            &mut self.gating.active_mark,
                            &mut self.gating.work,
                            down.0,
                            t,
                        );
                    }
                }
            }
            let mut inbox =
                sh.mail.credits[parity][self.idx][src].lock().expect("sender not panicked");
            for (up, port, vc) in inbox.drain(..) {
                self.routers[up.0 - self.router_off].credit_return(port, vc);
            }
        }

        span = self.sp_lap(SpanKind::Exchange, t, span);

        // 2–5. The serial step restricted to this shard.
        span = if gated { self.step_gated(now, span) } else { self.step_ungated(now, span) };

        // 6. Boundary scan — skipped on the stretch's final cycle.
        if t + 1 < sh.end {
            self.boundary_scan(t + 1, sh.mail);
        }

        // 7. Publish this cycle's records for the calling thread's merge.
        // The swap gets back the vectors it drained last cycle, keeping
        // the steady state allocation-free.
        {
            let mut slot = sh.outs[parity][self.idx].lock().expect("merger not panicked");
            std::mem::swap(&mut slot.recs, &mut self.recs);
            std::mem::swap(&mut slot.ejects, &mut self.ejects);
        }
        self.sp_lap(SpanKind::Exchange, t, span);
        if let Some(board) = sh.board {
            self.publish_health(board, t, sh.beat_every);
        }
        // — the end-of-cycle barrier —
        let span = self.sp_start();
        sh.barrier.wait(&mut self.waiter)?;
        self.sp_lap(SpanKind::BarrierWait, t, span);
        Ok(())
    }

    /// Hands everything this shard's cross-shard pipes deliver at cycle
    /// `due` to the destination shards' mailboxes for that cycle. It is
    /// final at the end of cycle `due − 1`: that cycle's own pushes are
    /// due ≥ `due + 1`, since every inter-router pipe has ≥ 2 cycles of
    /// latency.
    fn boundary_scan(&mut self, due: u64, mail: &Mailboxes) {
        let parity = (due % 2) as usize;
        for b in &self.flit_boundary {
            let pipe = self.flit_pipes[b.from - self.router_off][b.port]
                .as_mut()
                .expect("boundary port is connected");
            if !pipe.has_ready(Cycle(due)) {
                continue;
            }
            let mut outbox = mail.flits[parity][b.dst_shard][self.idx]
                .lock()
                .expect("receiver not panicked");
            while let Some(flit) = pipe.pop_ready(Cycle(due)) {
                outbox.push((b.down, b.down_port, flit));
            }
        }
        for b in &self.credit_boundary {
            let pipe = &mut self.credit_pipes[b.from - self.router_off][b.port];
            if !pipe.has_ready(Cycle(due)) {
                continue;
            }
            let mut outbox = mail.credits[parity][b.dst_shard][self.idx]
                .lock()
                .expect("receiver not panicked");
            while let Some(vc) = pipe.pop_ready(Cycle(due)) {
                outbox.push((b.up, b.up_port, vc));
            }
        }
    }

    /// Phases 2–5 of the ungated serial step over this shard's routers.
    /// Boundary pipes never have anything due mid-cycle (the boundary
    /// scan drained through `t` at the end of cycle `t − 1`), so the
    /// sweep naturally skips them.
    fn step_ungated(&mut self, now: Cycle, mut span: SpanStart) -> SpanStart {
        let warm_plus_measure = self.cfg.warmup + self.cfg.measure;
        let in_window = now.0 >= self.cfg.warmup && now.0 < warm_plus_measure;
        let radix = self.topology.radix();

        // 2. Sources stream flits toward their routers.
        for i in 0..self.sources.len() {
            let router = self.topology.router_of(NodeId(self.node_off + i));
            let routes = self.routes;
            let resolve = |dest: NodeId| routes.resolve(router, dest);
            if let Some(flit) = self.sources[i].try_send(now, resolve) {
                self.inject_pipes[i].push(now, flit);
            }
        }
        span = self.sp_lap(SpanKind::SourceInject, now.0, span);

        // 3. Deliver flits due this cycle.
        for i in 0..self.inject_pipes.len() {
            let node = NodeId(self.node_off + i);
            let router = self.topology.router_of(node);
            let port = self.topology.local_port_of(node);
            while let Some(flit) = self.inject_pipes[i].pop_ready(now) {
                self.routers[router.0 - self.router_off].accept_flit(port, flit);
            }
        }
        for ri in 0..self.routers.len() {
            let r = self.router_off + ri;
            for p in 0..radix {
                let Some(pipe) = self.flit_pipes[ri][p].as_mut() else { continue };
                if !pipe.has_ready(now) {
                    continue;
                }
                let (down, down_port) = self
                    .routes
                    .neighbor(RouterId(r), PortId(p))
                    .expect("flit pipe exists only on connected ports");
                debug_assert_eq!(
                    self.plan.shard_of_router(down.0),
                    self.idx,
                    "boundary pipe had a delivery due mid-cycle"
                );
                while let Some(flit) =
                    self.flit_pipes[ri][p].as_mut().expect("checked above").pop_ready(now)
                {
                    self.routers[down.0 - self.router_off].accept_flit(down_port, flit);
                }
            }
        }
        span = self.sp_lap(SpanKind::Deliver, now.0, span);

        // 4. Deliver credits due this cycle.
        for ri in 0..self.routers.len() {
            for p in 0..radix {
                if !self.credit_pipes[ri][p].has_ready(now) {
                    continue;
                }
                match self.credit_dests[ri][p] {
                    CreditDest::Upstream(ur, up) => {
                        while let Some(vc) = self.credit_pipes[ri][p].pop_ready(now) {
                            self.routers[ur.0 - self.router_off].credit_return(up, vc);
                        }
                    }
                    CreditDest::Source(node) => {
                        while let Some(vc) = self.credit_pipes[ri][p].pop_ready(now) {
                            self.sources[node.0 - self.node_off].credit_return(vc);
                        }
                    }
                    CreditDest::Unconnected => {
                        unreachable!("credit on unconnected port {p} of shard router {ri}")
                    }
                }
            }
        }
        span = self.sp_lap(SpanKind::CreditDeliver, now.0, span);

        // 5. Clock every router in the shard, ascending.
        let mut out = std::mem::take(&mut self.out);
        for ri in 0..self.routers.len() {
            let r = self.router_off + ri;
            self.routers[ri].step_into(now, &mut out, &mut self.sink);
            self.gating.router_steps += 1;
            self.fan_out(r, now, in_window, &mut out, false);
        }
        self.out = out;
        self.sp_lap(SpanKind::RouterStep, now.0, span)
    }

    /// Phases 2–5 of the activity-gated serial step over this shard.
    fn step_gated(&mut self, now: Cycle, mut span: SpanStart) -> SpanStart {
        let warm_plus_measure = self.cfg.warmup + self.cfg.measure;
        let in_window = now.0 >= self.cfg.warmup && now.0 < warm_plus_measure;

        // 2. Sources; a push schedules the injection link's delivery.
        for i in 0..self.sources.len() {
            let n = self.node_off + i;
            let router = self.topology.router_of(NodeId(n));
            let routes = self.routes;
            let resolve = |dest: NodeId| routes.resolve(router, dest);
            if let Some(flit) = self.sources[i].try_send(now, resolve) {
                self.inject_pipes[i].push(now, flit);
                let due = now.0 + 1;
                if self.gating.inject_sched[n] != due {
                    self.gating.inject_sched[n] = due;
                    self.gating.calendar[(due % WAKE_RING as u64) as usize]
                        .push(WakeEvent::Inject(n));
                }
            }
        }
        span = self.sp_lap(SpanKind::SourceInject, now.0, span);

        // 3 + 4. Drain this cycle's calendar slot (intra-shard events
        // only by construction; boundary traffic arrived via mailboxes).
        let slot = (now.0 % WAKE_RING as u64) as usize;
        let mut events = std::mem::take(&mut self.gating.calendar[slot]);
        for &ev in &events {
            match ev {
                WakeEvent::Inject(n) => {
                    let node = NodeId(n);
                    let router = self.topology.router_of(node);
                    let port = self.topology.local_port_of(node);
                    while let Some(flit) = self.inject_pipes[n - self.node_off].pop_ready(now) {
                        self.routers[router.0 - self.router_off].accept_flit(port, flit);
                    }
                    NetworkSim::activate(
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
                    while let Some(flit) = self.flit_pipes[r - self.router_off][p]
                        .as_mut()
                        .expect("connected port has a pipe")
                        .pop_ready(now)
                    {
                        self.routers[down.0 - self.router_off].accept_flit(down_port, flit);
                    }
                    NetworkSim::activate(
                        &mut self.gating.active_mark,
                        &mut self.gating.work,
                        down.0,
                        now.0,
                    );
                }
                WakeEvent::CreditLink(r, p) => {
                    let ri = r - self.router_off;
                    match self.credit_dests[ri][p] {
                        CreditDest::Upstream(ur, up) => {
                            while let Some(vc) = self.credit_pipes[ri][p].pop_ready(now) {
                                self.routers[ur.0 - self.router_off].credit_return(up, vc);
                            }
                        }
                        CreditDest::Source(node) => {
                            while let Some(vc) = self.credit_pipes[ri][p].pop_ready(now) {
                                self.sources[node.0 - self.node_off].credit_return(vc);
                            }
                        }
                        CreditDest::Unconnected => {
                            unreachable!("credit on unconnected port {p} of router {r}")
                        }
                    }
                }
            }
        }
        events.clear();
        self.gating.calendar[slot] = events;
        span = self.sp_lap(SpanKind::Deliver, now.0, span);

        // 5. Step the active routers in ascending order.
        let mut out = std::mem::take(&mut self.out);
        let mut work = std::mem::take(&mut self.gating.work);
        work.sort_unstable();
        for &r in &work {
            let ri = r - self.router_off;
            let was_quiescent = self.routers[ri].is_quiescent();
            let gap = now.0 - self.gating.stepped_until[r];
            if gap > 0 {
                self.routers[ri].note_idle_cycles(gap);
            }
            self.routers[ri].step_into(now, &mut out, &mut self.sink);
            self.gating.router_steps += 1;
            self.gating.stepped_until[r] = now.0 + 1;
            self.fan_out(r, now, in_window, &mut out, true);
            if !(was_quiescent && self.routers[ri].is_quiescent()) {
                NetworkSim::activate(
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
        self.out = out;
        self.sp_lap(SpanKind::RouterStep, now.0, span)
    }

    /// Fans one router's step outputs out to ejection records and link
    /// pipes. With `gated` set, intra-shard pushes schedule calendar
    /// events; boundary pushes schedule nothing — the boundary scan
    /// visits those pipes unconditionally.
    fn fan_out(&mut self, r: usize, now: Cycle, in_window: bool, out: &mut RouterOutput, gated: bool) {
        let ri = r - self.router_off;
        for (p, mut flit) in out.flits.drain(..) {
            if self.topology.is_local_port(p) {
                debug_assert_eq!(
                    self.topology.node_at(RouterId(r), p),
                    Some(flit.packet.dest),
                    "flit ejected at the wrong terminal"
                );
                if in_window {
                    self.recs.push(StatRecord {
                        source: flit.packet.source,
                        is_tail: flit.is_tail(),
                        created_at: flit.packet.created_at,
                        at: now,
                    });
                }
                if flit.is_tail() {
                    self.ejects.push(EjectedPacket { packet: flit.packet, at: now });
                }
            } else {
                let (down, _) = self
                    .routes
                    .neighbor(RouterId(r), p)
                    .expect("route uses connected ports");
                let (out_port, lookahead, _) = self.routes.resolve(down, flit.packet.dest);
                flit.set_route(out_port, lookahead);
                self.flit_pipes[ri][p.0]
                    .as_mut()
                    .expect("connected port has a pipe")
                    .push(now, flit);
                if gated && self.plan.shard_of_router(down.0) == self.idx {
                    let due = now.0 + crate::FLIT_LATENCY;
                    if self.gating.flit_sched[r][p.0] != due {
                        self.gating.flit_sched[r][p.0] = due;
                        self.gating.calendar[(due % WAKE_RING as u64) as usize]
                            .push(WakeEvent::FlitLink(r, p.0));
                    }
                }
            }
        }
        for (p, vc) in out.credits.drain(..) {
            self.credit_pipes[ri][p.0].push(now, vc);
            if gated {
                let local = match self.credit_dests[ri][p.0] {
                    CreditDest::Upstream(ur, _) => self.plan.shard_of_router(ur.0) == self.idx,
                    CreditDest::Source(_) => true,
                    CreditDest::Unconnected => {
                        unreachable!("credit on unconnected port {p} of router {r}")
                    }
                };
                if local {
                    let due = now.0 + crate::CREDIT_LATENCY;
                    if self.gating.credit_sched[r][p.0] != due {
                        self.gating.credit_sched[r][p.0] = due;
                        self.gating.calendar[(due % WAKE_RING as u64) as usize]
                            .push(WakeEvent::CreditLink(r, p.0));
                    }
                }
            }
        }
    }
}

/// Replays one cycle's per-shard ejection records into the network's
/// statistics, in shard order = ascending router order = serial order.
fn merge_cycle(outs: &[Mutex<CycleOut>], stats: &mut NetworkStats, ejected: &mut Vec<EjectedPacket>) {
    for slot in outs {
        let mut out = slot.lock().expect("shard not panicked");
        for rec in out.recs.drain(..) {
            stats.record_ejection(rec.source, rec.is_tail, rec.created_at, rec.at);
        }
        ejected.append(&mut out.ejects);
    }
}

/// Phase 1 traffic generation for cycle `u`, run by the calling thread
/// one cycle ahead of the shards. Draws from the run's single RNG in
/// serial node order — so the random stream, packet-id sequence, and
/// offered-packet count are exactly what the serial `step()` for cycle
/// `u` would produce — batching each shard's packets into a
/// caller-owned buffer that is then swapped into the shared staging
/// slot with one lock acquisition per (non-idle) shard.
///
/// The caller guarantees `u < warmup + measure` (generation stops with
/// the serial schedule) and that slot `staged[...]` was drained by its
/// shard two cycles ago, so the swap hands back an empty vector and the
/// steady state stays allocation-free.
#[allow(clippy::too_many_arguments)]
fn generate_cycle(
    u: u64,
    cfg: &SimConfig,
    plan: &ShardPlan,
    injector: &BernoulliInjector,
    pattern: &TrafficPattern,
    rng: &mut StdRng,
    next_packet: &mut u64,
    stats: &mut NetworkStats,
    gen_bufs: &mut [Vec<PacketDescriptor>],
    staged: &[Mutex<Vec<PacketDescriptor>>],
) {
    let nodes_total = cfg.network.nodes;
    let in_window = u >= cfg.warmup;
    for n in 0..nodes_total {
        if injector.fires(rng) {
            let dest = pattern.pick_dest(NodeId(n), nodes_total, rng);
            let packet = PacketDescriptor::new(
                PacketId(*next_packet),
                NodeId(n),
                dest,
                cfg.packet_len,
                Cycle(u),
            );
            *next_packet += 1;
            gen_bufs[plan.shard_of_node(n)].push(packet);
            if in_window {
                stats.record_offered(1);
            }
        }
    }
    for (buf, slot) in gen_bufs.iter_mut().zip(staged) {
        if buf.is_empty() {
            continue;
        }
        std::mem::swap(&mut *slot.lock().expect("shard not panicked"), buf);
    }
}

/// Advances `sim` by `cycles` cycles across `shards` threads — this one,
/// which steps shard 0, plus `shards − 1` spawned ones —
/// bit-identically to `cycles` serial [`NetworkSim::step`] calls.
///
/// The caller ([`NetworkSim::run_cycles`]) guarantees `shards` is in
/// `2..=routers` and telemetry recording is off.
pub(crate) fn run_sharded(sim: &mut NetworkSim, cycles: u64, shards: usize) {
    if cycles == 0 {
        return;
    }
    let start = sim.now.0;
    let end = start + cycles;
    let plan = match sim.shard_weights.as_deref() {
        Some(weights) => ShardPlan::weighted(sim.topology.as_ref(), shards, weights),
        None => ShardPlan::new(sim.topology.as_ref(), shards),
    };
    // Test-only fault hook: `VIX_SHARD_PANIC_AT=cycle:shard` makes that
    // shard panic at the top of that cycle, exercising the barrier
    // poisoning path end-to-end (tests/shard_panic.rs).
    let panic_inject: Option<(u64, usize)> = std::env::var("VIX_SHARD_PANIC_AT")
        .ok()
        .and_then(|spec| {
            let (t, s) = spec.split_once(':')?;
            Some((t.parse().ok()?, s.parse().ok()?))
        });
    let radix = sim.topology.radix();
    let routers_total = sim.routers.len();
    let nodes_total = sim.cfg.network.nodes;
    let gated = sim.cfg.activity_gating;

    // Classify every link once; boundary lists are grouped by the shard
    // that owns (and therefore drains) the pipe.
    let mut flit_boundary: Vec<Vec<FlitBoundary>> = vec![Vec::new(); shards];
    let mut credit_boundary: Vec<Vec<CreditBoundary>> = vec![Vec::new(); shards];
    for r in 0..routers_total {
        let s = plan.shard_of_router(r);
        for p in 0..radix {
            if sim.flit_pipes[r][p].is_some() {
                let (down, down_port) = sim
                    .routes
                    .neighbor(RouterId(r), PortId(p))
                    .expect("flit pipe exists only on connected ports");
                let dst_shard = plan.shard_of_router(down.0);
                if dst_shard != s {
                    flit_boundary[s].push(FlitBoundary {
                        from: r,
                        port: p,
                        down,
                        down_port,
                        dst_shard,
                    });
                }
            }
            if let CreditDest::Upstream(up, up_port) = sim.credit_dests[r][p] {
                let dst_shard = plan.shard_of_router(up.0);
                if dst_shard != s {
                    credit_boundary[s].push(CreditBoundary {
                        from: r,
                        port: p,
                        up,
                        up_port,
                        dst_shard,
                    });
                }
            }
        }
    }

    let mail = Mailboxes::new(shards);

    // Engine self-profiling: each shard gets its own span track (no
    // sharing, no locks on the hot path); health gauges ride a lock-free
    // atomic board the calling thread samples on the heartbeat interval.
    let profiling = sim.telemetry.profiling();
    let epoch = sim.telemetry.profiler().map(vix_telemetry::Profiler::epoch);
    let span_cap = if profiling {
        (sim.cfg.telemetry.profile_span_capacity / shards).max(1024)
    } else {
        0
    };
    let beat_every = sim.telemetry.profiler().map_or(0, vix_telemetry::Profiler::beat_every);
    let board = profiling.then(|| HealthBoard::new(shards));
    let steps_base = sim.gating.router_steps;

    // Split the network into per-shard mutable slices.
    let mut workers: Vec<ShardWorker> = Vec::with_capacity(shards);
    {
        let mut routers_rest: &mut [Router] = &mut sim.routers;
        let mut flit_rest: &mut [Vec<Option<Pipe<Flit>>>] = &mut sim.flit_pipes;
        let mut credit_rest: &mut [Vec<Pipe<VcId>>] = &mut sim.credit_pipes;
        let mut cdest_rest: &[Vec<CreditDest>] = &sim.credit_dests;
        let mut inject_rest: &mut [Pipe<Flit>] = &mut sim.inject_pipes;
        let mut source_rest: &mut [SourceQueue] = &mut sim.sources;
        for s in 0..shards {
            let routers_here = plan.router_range(s).len();
            let nodes_here = plan.node_range(s).len();
            let (routers, rest) = routers_rest.split_at_mut(routers_here);
            routers_rest = rest;
            let (flit_pipes, rest) = flit_rest.split_at_mut(routers_here);
            flit_rest = rest;
            let (credit_pipes, rest) = credit_rest.split_at_mut(routers_here);
            credit_rest = rest;
            let (credit_dests, rest) = cdest_rest.split_at(routers_here);
            cdest_rest = rest;
            let (inject_pipes, rest) = inject_rest.split_at_mut(nodes_here);
            inject_rest = rest;
            let (sources, rest) = source_rest.split_at_mut(nodes_here);
            source_rest = rest;

            let mut gating = GatingState::new(nodes_total, routers_total, radix);
            if gated {
                gating.active_mark.copy_from_slice(&sim.gating.active_mark);
                gating.stepped_until.copy_from_slice(&sim.gating.stepped_until);
                for &r in &sim.gating.work {
                    if plan.shard_of_router(r) == s {
                        gating.work.push(r);
                    }
                }
            }
            workers.push(ShardWorker {
                idx: s,
                cfg: sim.cfg,
                plan: &plan,
                topology: sim.topology.as_ref(),
                routes: &sim.routes,
                router_off: plan.router_range(s).start,
                node_off: plan.node_range(s).start,
                routers,
                flit_pipes,
                credit_pipes,
                credit_dests,
                inject_pipes,
                sources,
                flit_boundary: std::mem::take(&mut flit_boundary[s]),
                credit_boundary: std::mem::take(&mut credit_boundary[s]),
                gating,
                out: RouterOutput::default(),
                sink: TelemetrySink::new(TelemetrySettings::disabled()),
                prof: epoch
                    .map(|e| Box::new(Profiler::for_shard(s as u32, e, span_cap, 0, false))),
                recs: Vec::new(),
                ejects: Vec::new(),
                waiter: SpinWaiter::new(),
            });
        }
    }
    if gated {
        // The serial calendar interleaves shards and references boundary
        // pipes; rebuild each shard's calendar from its own pipe contents
        // instead of trying to split it.
        for w in &mut workers {
            w.rebuild_calendar();
        }
    }
    // Pre-scan: deliveries already due at `start` on boundary pipes
    // would normally have been exchanged at the end of cycle `start − 1`
    // (which ran under a different scheduler), so stage them now.
    for w in &mut workers {
        w.boundary_scan(start, &mail);
    }

    // Staging and record slots are double-buffered by cycle parity, like
    // the mailboxes: during cycle `t` the calling thread's duties fill
    // `staged[(t + 1) % 2]` and drain `outs[(t - 1) % 2]` while the shards
    // touch only the `t % 2` slots, so every lock is uncontended and
    // taken once per cycle.
    let staged: [Vec<Mutex<Vec<PacketDescriptor>>>; 2] = [
        (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
    ];
    let outs: [Vec<Mutex<CycleOut>>; 2] = [
        (0..shards).map(|_| Mutex::new(CycleOut::default())).collect(),
        (0..shards).map(|_| Mutex::new(CycleOut::default())).collect(),
    ];
    let mut gen_bufs: Vec<Vec<PacketDescriptor>> = vec![Vec::new(); shards];
    let barrier = SpinBarrier::new(shards);
    let warm_plus_measure = sim.cfg.warmup + sim.cfg.measure;
    let sh = Stretch {
        end,
        panic_inject,
        barrier: &barrier,
        mail: &mail,
        staged: &staged,
        outs: &outs,
        board: board.as_ref(),
        beat_every,
    };

    // Pipeline fill: cycle `start`'s packets are staged before the other
    // shards exist (spawning publishes them), so the in-loop generation
    // can run one cycle ahead from the very first barrier.
    if start < warm_plus_measure {
        generate_cycle(
            start,
            &sim.cfg,
            &plan,
            &sim.injector,
            &sim.pattern,
            &mut sim.rng,
            &mut sim.next_packet,
            &mut sim.stats,
            &mut gen_bufs,
            &staged[(start % 2) as usize],
        );
    }

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
        // cycle `t` it merges cycle `t − 1`'s records and generates cycle
        // `t + 1`'s traffic with the run's single RNG in exact serial
        // order, so the random stream and packet-id sequence are
        // shard-count-invariant. The guard covers duties and shard 0's
        // step alike: either panic unwinds straight out of the scope.
        let _poison = PoisonOnPanic(&barrier);
        let mut poisoned = false;
        for t in start..end {
            let mut csp = sim.telemetry.span_start();
            if t > start {
                merge_cycle(&outs[((t - 1) % 2) as usize], &mut sim.stats, &mut sim.ejected);
                csp = sim.telemetry.span_lap(SpanKind::StatsMerge, t, csp);
            }
            // Stage cycle `t + 1`. Generation stops at the serial
            // schedule's horizon (`warmup + measure`) and at the end of
            // this sharded stretch — cycle `end`'s draws belong to
            // whichever engine steps cycle `end`.
            if t + 1 < end && t + 1 < warm_plus_measure {
                generate_cycle(
                    t + 1,
                    &sim.cfg,
                    &plan,
                    &sim.injector,
                    &sim.pattern,
                    &mut sim.rng,
                    &mut sim.next_packet,
                    &mut sim.stats,
                    &mut gen_bufs,
                    &staged[((t + 1) % 2) as usize],
                );
                sim.telemetry.span_lap(SpanKind::TrafficGen, t, csp);
            }
            if shard0.run_cycle(t, &sh).is_err() {
                poisoned = true;
                break;
            }
            if beat_every > 0 && (t + 1).is_multiple_of(beat_every) {
                if let Some(b) = sh.board {
                    let busy = HealthBoard::read(&b.busy_ns);
                    let barrier_ns = HealthBoard::read(&b.barrier_ns);
                    let shard_cum: Vec<(u64, u64)> =
                        busy.iter().zip(&barrier_ns).map(|(&b, &w)| (b, w)).collect();
                    let steps =
                        steps_base + HealthBoard::read(&b.router_steps).iter().sum::<u64>();
                    let wake = HealthBoard::read(&b.wake_depth).iter().sum::<u64>();
                    let buffered = HealthBoard::read(&b.buffered_flits).iter().sum::<u64>();
                    sim.telemetry
                        .profiler_mut()
                        .expect("heartbeat interval implies profiling")
                        .heartbeat(t + 1, steps, wake, buffered, &shard_cum);
                }
            }
        }
        if !poisoned {
            merge_cycle(&outs[((end - 1) % 2) as usize], &mut sim.stats, &mut sim.ejected);
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

    // Reassemble a serial-scheduler view of the world so `step()` (or a
    // later `run_cycles`) can continue from cycle `end` seamlessly.
    // Extract the owned scheduler state first: the workers hold the
    // mutable borrows of the network, which the rebuild below needs back.
    let shard_state: Vec<(usize, Vec<u64>, Vec<usize>)> = finished
        .into_iter()
        .map(|w| {
            sim.gating.router_steps += w.gating.router_steps;
            if let Some(p) = w.prof {
                if let Some(engine) = sim.telemetry.profiler_mut() {
                    engine.absorb(*p);
                }
            }
            (w.idx, w.gating.stepped_until, w.gating.work)
        })
        .collect();
    if gated {
        for (idx, stepped_until, _) in &shard_state {
            let range = plan.router_range(*idx);
            sim.gating.stepped_until[range.clone()].copy_from_slice(&stepped_until[range]);
        }
        sim.gating.work.clear();
        sim.gating.pending.clear();
        for slot in &mut sim.gating.calendar {
            slot.clear();
        }
        sim.gating.inject_sched.fill(u64::MAX);
        for row in &mut sim.gating.flit_sched {
            row.fill(u64::MAX);
        }
        for row in &mut sim.gating.credit_sched {
            row.fill(u64::MAX);
        }
        for (n, pipe) in sim.inject_pipes.iter().enumerate() {
            for due in pipe.dues() {
                sim.gating.inject_sched[n] = due;
                sim.gating.calendar[(due % WAKE_RING as u64) as usize]
                    .push(WakeEvent::Inject(n));
            }
        }
        for r in 0..routers_total {
            for p in 0..radix {
                if let Some(pipe) = sim.flit_pipes[r][p].as_ref() {
                    for due in pipe.dues() {
                        sim.gating.flit_sched[r][p] = due;
                        sim.gating.calendar[(due % WAKE_RING as u64) as usize]
                            .push(WakeEvent::FlitLink(r, p));
                    }
                }
                for due in sim.credit_pipes[r][p].dues() {
                    sim.gating.credit_sched[r][p] = due;
                    sim.gating.calendar[(due % WAKE_RING as u64) as usize]
                        .push(WakeEvent::CreditLink(r, p));
                }
            }
        }
        // Retention already put every non-quiescent router in its
        // shard's work list; re-activate them for cycle `end`.
        for (_, _, work) in &shard_state {
            for &r in work {
                NetworkSim::activate(&mut sim.gating.active_mark, &mut sim.gating.work, r, end);
            }
        }
    }
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
                assert_eq!(plan.shards(), shards);
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

    #[test]
    fn weighted_plan_with_uniform_weights_stays_balanced() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        for shards in [1, 2, 3, 4, 7, 8, 64] {
            let plan = ShardPlan::weighted(topo.as_ref(), shards, &[1; 64]);
            assert_eq!(plan.shards(), shards);
            let mut next = 0;
            for s in 0..shards {
                let range = plan.router_range(s);
                assert_eq!(range.start, next);
                next = range.end;
                let size = range.len();
                assert!(
                    size == 64 / shards || size == 64 / shards + 1,
                    "shards={shards}: shard {s} owns {size} routers"
                );
            }
            assert_eq!(next, 64);
        }
    }

    #[test]
    fn weighted_plan_moves_cuts_toward_heavy_routers() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        // Routers 0..8 cost 8×: a 2-way split should give the heavy
        // prefix far fewer routers than the uniform 32/32.
        let mut weights = [1u64; 64];
        for w in &mut weights[..8] {
            *w = 8;
        }
        let plan = ShardPlan::weighted(topo.as_ref(), 2, &weights);
        let first = plan.router_range(0).len();
        assert!(first < 20, "heavy prefix took {first} routers, expected < 20");
        // Shard weights should be near-even: total 64 + 8*7 = 120.
        let sum = |r: std::ops::Range<usize>| r.map(|i| weights[i]).sum::<u64>();
        let (a, b) = (sum(plan.router_range(0)), sum(plan.router_range(1)));
        assert!(a.abs_diff(b) <= 8, "weight split {a}/{b} too lopsided");
    }

    #[test]
    fn weighted_plan_clamps_zero_weights_and_keeps_shards_nonempty() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        // All-zero weights degrade to the uniform split, not to empty
        // shards or a division by zero.
        let plan = ShardPlan::weighted(topo.as_ref(), 8, &[0; 64]);
        for s in 0..8 {
            assert_eq!(plan.router_range(s).len(), 8);
        }
        // One extreme outlier: everyone else still gets ≥ 1 router.
        let mut weights = [0u64; 64];
        weights[0] = u64::MAX / 2;
        let plan = ShardPlan::weighted(topo.as_ref(), 8, &weights);
        for s in 0..8 {
            assert!(!plan.router_range(s).is_empty(), "shard {s} empty");
        }
        assert_eq!(plan.router_range(0).len(), 1, "outlier router should sit alone");
    }

    #[test]
    #[should_panic(expected = "one weight per router")]
    fn weighted_plan_rejects_wrong_weight_count() {
        let topo = build_topology(TopologyKind::Mesh, 64).unwrap();
        let _ = ShardPlan::weighted(topo.as_ref(), 4, &[1; 63]);
    }
}
