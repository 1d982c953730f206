//! The cycle body: phases 2–5 of one simulated cycle over a contiguous
//! slice of the network, written once.
//!
//! A cycle is generate → source inject → deliver → router step → fan-out.
//! Phase 1 (generation) draws from the run's single RNG and belongs to
//! whoever owns it ([`TrafficGen`](crate::network::TrafficGen)); the rest
//! is [`NetSlice::step`], and it has exactly two callers:
//!
//! * [`NetworkSim::step`](crate::NetworkSim::step) runs it over the whole
//!   network — offsets 0, every link local — with its own sink, and
//!   replays the ejection log into `NetworkStats` straight after. No lock,
//!   no mailbox, no barrier.
//! * `ShardWorker::run_cycle` ([`crate::shard`]) runs the same method over
//!   its shard's slice, between the cross-shard exchange and the barrier.
//!
//! The body is the activity-gated scheduler ([`GatingState`], DESIGN.md
//! §6c). The ungated sweep survives beside it, sharing the delivery and
//! fan-out helpers, as the serial-only reference `tests/gating_parity.rs`
//! holds the gated scheduler against.

use crate::channel::Pipe;
use crate::network::{CreditDest, EjectedPacket, RouteTable};
use crate::source::SourceQueue;
use crate::stats::NetworkStats;
use crate::{CREDIT_LATENCY, FLIT_LATENCY};
use vix_core::{Cycle, Flit, NodeId, PortId, RouterId, SimConfig, VcId};
use vix_router::{Router, RouterOutput};
use vix_telemetry::{SpanKind, SpanStart, TelemetrySink, TraceEvent, TraceEventKind, NO_ID};
use vix_topology::Topology;

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
/// The gated cycle body touches only *active* routers and pipes with
/// something due, instead of sweeping every router and every link each
/// cycle. Correctness contract: a gated run is bit-identical to an ungated
/// run — skipped cycles are replayed through
/// [`vix_router::Router::note_idle_cycles`] before a router steps again.
///
/// Every index is global, so a shard's private state is addressed exactly
/// like the whole network's (only its own entries are ever touched).
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
    inject_sched: Vec<u64>,
    flit_sched: Vec<Vec<u64>>,
    credit_sched: Vec<Vec<u64>>,
    /// Set only by `NetworkSim::build_ungated_reference`: sweep, not schedule.
    pub(crate) reference_sweep: bool,
    /// Total `Router::step_into` calls over the run; the observable for
    /// O(active) scheduling tests.
    pub(crate) router_steps: u64,
    /// Reused router-output buffer: [`vix_router::Router::step_into`]
    /// writes each router's flits and credits here, so the steady-state
    /// cycle body performs no heap allocation.
    step_out: RouterOutput,
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
            reference_sweep: false,
            router_steps: 0,
            step_out: RouterOutput::default(),
        }
    }

    /// Marks router `r` active for cycle `at`, queueing it in `queue`
    /// unless already queued for that cycle.
    #[inline]
    pub(crate) fn activate(active_mark: &mut [u64], queue: &mut Vec<usize>, r: usize, at: u64) {
        if active_mark[r] != at {
            active_mark[r] = at;
            queue.push(r);
        }
    }

    /// Puts `ev`'s pipe on the calendar for cycle `due`, once per pipe and
    /// due cycle. (`inline(always)`: see the note at `deliver_injection`.)
    #[inline(always)]
    fn schedule(&mut self, ev: WakeEvent, due: u64) {
        let stamp = match ev {
            WakeEvent::Inject(n) => &mut self.inject_sched[n],
            WakeEvent::FlitLink(r, p) => &mut self.flit_sched[r][p],
            WakeEvent::CreditLink(r, p) => &mut self.credit_sched[r][p],
        };
        if *stamp != due {
            *stamp = due;
            self.calendar[(due % WAKE_RING as u64) as usize].push(ev);
        }
    }

    /// Pending wake events over the whole calendar (a heartbeat gauge).
    pub(crate) fn wake_depth(&self) -> u64 {
        self.calendar.iter().map(|slot| slot.len() as u64).sum()
    }
}

/// One measurement-window ejection as [`NetworkStats::record_ejection`]
/// takes it.
#[derive(Debug, Clone, Copy)]
struct StatRecord {
    source: NodeId,
    is_tail: bool,
    created_at: Cycle,
    at: Cycle,
}

/// What the cycle body observed leaving the network, in ascending router
/// order: the statistics owner replays `recs` into [`NetworkStats`] (the
/// serial engine straight after the body, the sharded engine shard by
/// shard a cycle later), `ejects` feeds
/// [`NetworkSim::take_ejections`](crate::NetworkSim::take_ejections).
#[derive(Debug, Default)]
pub(crate) struct EjectionLog {
    recs: Vec<StatRecord>,
    /// Packets whose tail flit ejected (every window).
    pub(crate) ejects: Vec<EjectedPacket>,
}

impl EjectionLog {
    /// Drains the measurement-window records into `stats` in logged order.
    pub(crate) fn replay_into(&mut self, stats: &mut NetworkStats) {
        for rec in self.recs.drain(..) {
            stats.record_ejection(rec.source, rec.is_tail, rec.created_at, rec.at);
        }
    }
}

/// A borrowed view of a contiguous slice of the network: routers
/// `router_off..router_off + routers.len()`, the terminals attached to
/// them, and every pipe those own. Router, pipe, and source indices
/// arriving from shared structures (routes, credit destinations, wake
/// events) are global; the offsets translate them into the slices.
///
/// A link is *local* when its far end lies in the same slice. The body
/// delivers and schedules local links only; the sharded engine's boundary
/// scan carries the rest, and drains each one cycle ahead, so a non-local
/// pipe never has anything due mid-cycle.
pub(crate) struct NetSlice<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) topology: &'a dyn Topology,
    pub(crate) routes: &'a RouteTable,
    pub(crate) router_off: usize,
    pub(crate) node_off: usize,
    pub(crate) routers: &'a mut [Router],
    /// `flit_pipes[r][p]` — link leaving router `r` through port `p`.
    pub(crate) flit_pipes: &'a mut [Vec<Option<Pipe<Flit>>>],
    /// `credit_pipes[r][p]` — credits leaving router `r`'s *input* port `p`.
    pub(crate) credit_pipes: &'a mut [Vec<Pipe<VcId>>],
    pub(crate) credit_dests: &'a [Vec<CreditDest>],
    pub(crate) inject_pipes: &'a mut [Pipe<Flit>],
    pub(crate) sources: &'a mut [SourceQueue],
}

/// The trace record of `flit` seen at (`router`, `port`).
fn flit_event(kind: TraceEventKind, now: Cycle, router: usize, port: PortId, flit: &Flit) -> TraceEvent {
    TraceEvent {
        router: router as u32,
        port: port.0 as u32,
        vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
        packet: flit.packet.id.0,
        flit: flit.index() as u32,
        ..TraceEvent::at(now, kind)
    }
}

impl<'a> NetSlice<'a> {
    /// Splits the first `routers` routers and `nodes` terminals off as
    /// their own slice; the second slice is the rest.
    pub(crate) fn split_at(self, routers: usize, nodes: usize) -> (Self, Self) {
        let (routers_a, routers_b) = self.routers.split_at_mut(routers);
        let (flits_a, flits_b) = self.flit_pipes.split_at_mut(routers);
        let (credits_a, credits_b) = self.credit_pipes.split_at_mut(routers);
        let (dests_a, dests_b) = self.credit_dests.split_at(routers);
        let (inject_a, inject_b) = self.inject_pipes.split_at_mut(nodes);
        let (sources_a, sources_b) = self.sources.split_at_mut(nodes);
        let head = NetSlice {
            routers: routers_a,
            flit_pipes: flits_a,
            credit_pipes: credits_a,
            credit_dests: dests_a,
            inject_pipes: inject_a,
            sources: sources_a,
            ..self
        };
        let tail = NetSlice {
            router_off: self.router_off + routers,
            node_off: self.node_off + nodes,
            routers: routers_b,
            flit_pipes: flits_b,
            credit_pipes: credits_b,
            credit_dests: dests_b,
            inject_pipes: inject_b,
            sources: sources_b,
            ..self
        };
        (head, tail)
    }

    /// True when router `r` (global index) is in this slice.
    #[inline]
    fn owns(&self, r: usize) -> bool {
        r.wrapping_sub(self.router_off) < self.routers.len()
    }

    /// True when the links through port `p` of this slice's router `ri` —
    /// the flit link leaving it and the credit link of its input side —
    /// end in this slice: at the router's own terminal, or at a neighbour
    /// this slice owns.
    #[inline]
    fn port_is_local(&self, ri: usize, p: usize) -> bool {
        let far = self.routes.neighbor(RouterId(self.router_off + ri), PortId(p));
        far.is_none_or(|(router, _)| self.owns(router.0))
    }

    /// Heartbeat gauges of this slice: wake-calendar depth and flits
    /// buffered in router inputs.
    pub(crate) fn health_gauges(&self, gating: &GatingState) -> (u64, u64) {
        (gating.wake_depth(), self.routers.iter().map(|r| r.buffered_flits() as u64).sum())
    }

    /// Rebuilds `gating`'s wake calendar from the contents of this slice's
    /// local pipes — how a network moves between the serial and the
    /// sharded scheduler mid-run, in either direction. Every in-flight
    /// item's due cycle lies within `WAKE_RING` of `now`, so slots never
    /// alias.
    pub(crate) fn rebuild_calendar(&self, gating: &mut GatingState) {
        for slot in &mut gating.calendar {
            slot.clear();
        }
        gating.inject_sched.fill(u64::MAX);
        for row in gating.flit_sched.iter_mut().chain(&mut gating.credit_sched) {
            row.fill(u64::MAX);
        }
        for (i, pipe) in self.inject_pipes.iter().enumerate() {
            for due in pipe.dues() {
                gating.schedule(WakeEvent::Inject(self.node_off + i), due);
            }
        }
        for ri in 0..self.routers.len() {
            let r = self.router_off + ri;
            for p in (0..self.credit_pipes[ri].len()).filter(|&p| self.port_is_local(ri, p)) {
                for due in self.flit_pipes[ri][p].iter().flat_map(Pipe::dues) {
                    gating.schedule(WakeEvent::FlitLink(r, p), due);
                }
                for due in self.credit_pipes[ri][p].dues() {
                    gating.schedule(WakeEvent::CreditLink(r, p), due);
                }
            }
        }
    }

    /// Phases 2–5 of cycle `now` over this slice. `span` is the caller's
    /// open profiling lap chain (one clock read per phase boundary, one
    /// branch per lap when profiling is off); the chain is handed back
    /// after the `RouterStep` lap.
    pub(crate) fn step(
        &mut self,
        now: Cycle,
        gating: &mut GatingState,
        sink: &mut TelemetrySink,
        log: &mut EjectionLog,
        mut span: SpanStart,
    ) -> SpanStart {
        let gated = !gating.reference_sweep;

        // 2. Sources stream flits toward their routers — all of them,
        // every cycle (an idle source's `try_send` is a pure no-op). Under
        // gating a push schedules the injection link's delivery one cycle
        // out.
        for i in 0..self.sources.len() {
            let n = self.node_off + i;
            let router = self.topology.router_of(NodeId(n));
            let routes = self.routes;
            if let Some(flit) = self.sources[i].try_send(now, |dest| routes.resolve(router, dest)) {
                self.inject_pipes[i].push(now, flit);
                if gated {
                    gating.schedule(WakeEvent::Inject(n), now.0 + 1);
                }
            }
        }
        span = sink.span_lap(SpanKind::SourceInject, now.0, span);

        // One RouterOutput is reused across every router and every cycle.
        let mut out = std::mem::take(&mut gating.step_out);
        if !gated {
            span = self.sweep_ungated(now, gating, sink, log, &mut out, span);
            gating.step_out = out;
            return sink.span_lap(SpanKind::RouterStep, now.0, span);
        }

        // 3 + 4. Deliver everything on this cycle's calendar slot (one
        // `Deliver` span for flits and credits together). Distinct events
        // touch disjoint state (each pipe feeds one buffer; credits are
        // counter increments), so calendar order is interchangeable with
        // the ungated sweep order. Every flit delivery wakes the receiving
        // router.
        let slot = (now.0 % WAKE_RING as u64) as usize;
        let mut events = std::mem::take(&mut gating.calendar[slot]);
        sink.gauge(sink.ids.sched_wake_events, events.len() as u64);
        for &ev in &events {
            match ev {
                WakeEvent::Inject(n) => {
                    let router = self.deliver_injection(n - self.node_off, now, sink);
                    GatingState::activate(&mut gating.active_mark, &mut gating.work, router, now.0);
                }
                WakeEvent::FlitLink(r, p) => {
                    let down = self.deliver_flits(r - self.router_off, p, now);
                    GatingState::activate(&mut gating.active_mark, &mut gating.work, down, now.0);
                }
                // Credit deliveries never wake a router: a credit only
                // increments an output-side counter, and output state is
                // unread by an empty cycle — a quiescent router has no flit
                // the credit could release. A non-quiescent receiver is
                // already in the active set (flit delivery activated it and
                // retention holds it until it drains), so the credit is
                // applied before its step either way.
                WakeEvent::CreditLink(r, p) => self.deliver_credits(r - self.router_off, p, now),
            }
        }
        events.clear();
        gating.calendar[slot] = events;
        span = sink.span_lap(SpanKind::Deliver, now.0, span);

        // 5. Step the active routers in ascending index order (stats
        // accumulation and ejection order must match the ungated sweep).
        // Skipped quiescent cycles are replayed first; a router leaves the
        // set only after a step that begins and ends quiescent, so its last
        // executed cycle before a skip is always a real empty cycle.
        let mut work = std::mem::take(&mut gating.work);
        work.sort_unstable();
        sink.gauge(sink.ids.sched_active_routers, work.len() as u64);
        for &r in &work {
            let ri = r - self.router_off;
            let was_quiescent = self.routers[ri].is_quiescent();
            let gap = now.0 - gating.stepped_until[r];
            if gap > 0 {
                self.routers[ri].note_idle_cycles(gap);
            }
            self.routers[ri].step_into(now, &mut out, sink);
            gating.router_steps += 1;
            gating.stepped_until[r] = now.0 + 1;
            self.fan_out(ri, now, &mut out, gating, sink, log);
            if !(was_quiescent && self.routers[ri].is_quiescent()) {
                GatingState::activate(&mut gating.active_mark, &mut gating.pending, r, now.0 + 1);
            }
        }
        work.clear();
        gating.work = work;
        std::mem::swap(&mut gating.work, &mut gating.pending);
        gating.step_out = out;
        sink.span_lap(SpanKind::RouterStep, now.0, span)
    }

    /// 3–5, ungated — the reference the gated scheduler is held against:
    /// sweep every injection link, every flit and credit link, and clock
    /// every router, ascending.
    fn sweep_ungated(
        &mut self,
        now: Cycle,
        gating: &mut GatingState,
        sink: &mut TelemetrySink,
        log: &mut EjectionLog,
        out: &mut RouterOutput,
        mut span: SpanStart,
    ) -> SpanStart {
        for i in 0..self.inject_pipes.len() {
            self.deliver_injection(i, now, sink);
        }
        for ri in 0..self.routers.len() {
            for p in 0..self.flit_pipes[ri].len() {
                if self.flit_pipes[ri][p].as_ref().is_some_and(|pipe| pipe.has_ready(now)) {
                    self.deliver_flits(ri, p, now);
                }
            }
        }
        span = sink.span_lap(SpanKind::Deliver, now.0, span);
        for ri in 0..self.routers.len() {
            for p in 0..self.credit_pipes[ri].len() {
                if self.credit_pipes[ri][p].has_ready(now) {
                    self.deliver_credits(ri, p, now);
                }
            }
        }
        span = sink.span_lap(SpanKind::CreditDeliver, now.0, span);
        for ri in 0..self.routers.len() {
            self.routers[ri].step_into(now, out, sink);
            gating.router_steps += 1;
            gating.stepped_until[self.router_off + ri] = now.0 + 1;
            self.fan_out(ri, now, out, gating, sink, log);
        }
        span
    }

    // The delivery helpers and the fan-out below are shared by the gated
    // body and the ungated reference, so each has two call sites and LLVM
    // leaves them out of line by default — measured at −9 % on `mesh64-low`
    // against the hand-duplicated loops they replace. `inline(always)`
    // gives the gated body back its straight-line code.

    /// Moves what is due on terminal `i`'s injection link into its
    /// router's local input port; returns that router's global index.
    #[inline(always)]
    fn deliver_injection(&mut self, i: usize, now: Cycle, sink: &mut TelemetrySink) -> usize {
        let node = NodeId(self.node_off + i);
        let router = self.topology.router_of(node).0;
        let port = self.topology.local_port_of(node);
        while let Some(flit) = self.inject_pipes[i].pop_ready(now) {
            if sink.tracing() {
                sink.trace(flit_event(TraceEventKind::Inject, now, router, port, &flit));
            }
            self.routers[router - self.router_off].accept_flit(port, flit);
        }
        router
    }

    /// Moves what is due on the flit link leaving this slice's router `ri`
    /// through port `p` into the downstream router's input buffer; returns
    /// that router's global index.
    #[inline(always)]
    fn deliver_flits(&mut self, ri: usize, p: usize, now: Cycle) -> usize {
        let (down, down_port) = self
            .routes
            .neighbor(RouterId(self.router_off + ri), PortId(p))
            .expect("flit pipe exists only on connected ports");
        debug_assert!(self.owns(down.0), "boundary pipe had a delivery due mid-cycle");
        let pipe = self.flit_pipes[ri][p].as_mut().expect("connected port has a pipe");
        while let Some(flit) = pipe.pop_ready(now) {
            self.routers[down.0 - self.router_off].accept_flit(down_port, flit);
        }
        down.0
    }

    /// Returns the credits due on the link leaving input port `p` of this
    /// slice's router `ri` to the upstream router or source.
    #[inline(always)]
    fn deliver_credits(&mut self, ri: usize, p: usize, now: Cycle) {
        let pipe = &mut self.credit_pipes[ri][p];
        match self.credit_dests[ri][p] {
            CreditDest::Upstream(up, up_port) => {
                while let Some(vc) = pipe.pop_ready(now) {
                    self.routers[up.0 - self.router_off].credit_return(up_port, vc);
                }
            }
            CreditDest::Source(node) => {
                while let Some(vc) = pipe.pop_ready(now) {
                    self.sources[node.0 - self.node_off].credit_return(vc);
                }
            }
            CreditDest::Unconnected => {
                unreachable!("credit on unconnected port {p} of router {}", self.router_off + ri)
            }
        }
    }

    /// Fans the step outputs of this slice's router `ri` out to the
    /// ejection log and the link pipes. Under gating a push onto a local
    /// link schedules its delivery; a push onto a non-local link schedules
    /// nothing — the boundary scan visits those pipes unconditionally.
    #[inline(always)]
    fn fan_out(
        &mut self,
        ri: usize,
        now: Cycle,
        out: &mut RouterOutput,
        gating: &mut GatingState,
        sink: &mut TelemetrySink,
        log: &mut EjectionLog,
    ) {
        let r = self.router_off + ri;
        let gated = !gating.reference_sweep;
        let in_window = now.0 >= self.cfg.warmup && now.0 < self.cfg.warmup + self.cfg.measure;
        for (p, mut flit) in out.flits.drain(..) {
            if self.topology.is_local_port(p) {
                debug_assert_eq!(
                    self.topology.node_at(RouterId(r), p),
                    Some(flit.packet.dest),
                    "flit ejected at the wrong terminal"
                );
                if sink.tracing() {
                    sink.trace(flit_event(TraceEventKind::Eject, now, r, p, &flit));
                }
                if in_window {
                    log.recs.push(StatRecord {
                        source: flit.packet.source,
                        is_tail: flit.is_tail(),
                        created_at: flit.packet.created_at,
                        at: now,
                    });
                }
                if flit.is_tail() {
                    log.ejects.push(EjectedPacket { packet: flit.packet, at: now });
                }
            } else {
                // Lookahead routing: rewrite the routing fields for the
                // downstream router before the flit enters the link.
                let (down, _) =
                    self.routes.neighbor(RouterId(r), p).expect("route uses connected ports");
                let (out_port, lookahead, _) = self.routes.resolve(down, flit.packet.dest);
                flit.set_route(out_port, lookahead);
                if sink.tracing() {
                    sink.trace(flit_event(TraceEventKind::LinkTraversal, now, r, p, &flit));
                }
                self.flit_pipes[ri][p.0]
                    .as_mut()
                    .expect("connected port has a pipe")
                    .push(now, flit);
                if gated && self.owns(down.0) {
                    gating.schedule(WakeEvent::FlitLink(r, p.0), now.0 + FLIT_LATENCY);
                }
            }
        }
        for (p, vc) in out.credits.drain(..) {
            if sink.tracing() {
                sink.trace(TraceEvent {
                    router: r as u32,
                    port: p.0 as u32,
                    vc: vc.0 as u32,
                    ..TraceEvent::at(now, TraceEventKind::CreditReturn)
                });
            }
            self.credit_pipes[ri][p.0].push(now, vc);
            if gated && self.port_is_local(ri, p.0) {
                gating.schedule(WakeEvent::CreditLink(r, p.0), now.0 + CREDIT_LATENCY);
            }
        }
    }
}
