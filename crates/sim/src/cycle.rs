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
//!   replays the packet log into the ledger, `NetworkStats`, the
//!   scheduler gauges and the heartbeat straight after. No lock, no
//!   mailbox, no barrier.
//! * `ShardWorker::run_cycle` ([`crate::shard`]) runs the same method over
//!   its shard's slice with the shard's sink, between the cross-shard
//!   exchange and the barrier.
//!
//! The body is the activity-gated scheduler ([`GatingState`], DESIGN.md
//! §6c), the only one there is: it steps the routers with work and replays
//! the idle cycles of the rest, and `tests/reference_parity.rs` holds it to
//! an independent simulator that steps every router every cycle.

use crate::network::{EjectedPacket, Far, RouterRecord, Wiring};
use crate::source::SourceQueue;
use crate::stats::NetworkStats;
use crate::{CREDIT_LATENCY, FLIT_LATENCY};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use vix_core::bits::{count_ones, set_bit, set_low_bits};
use vix_core::{Cycle, Flit, NodeId, PacketDescriptor, PortId, SimConfig, VcId};
use vix_router::RouterOutput;
use vix_telemetry::{
    HistogramId, SpanKind, SpanStart, TelemetrySink, TraceEvent, TraceEventKind, NO_ID,
};

/// Slots of a timing wheel. Must exceed every link latency (flit links,
/// credit links, and the 1-cycle injection link) so a slot is always fully
/// drained before anything can be filed back into it.
pub(crate) const WAKE_RING: usize = 4;
const _: () = {
    assert!(WAKE_RING as u64 > FLIT_LATENCY);
    assert!(WAKE_RING as u64 > CREDIT_LATENCY);
};

/// A flit on its way into input port `.1` of router `.0` (global index),
/// over a router link or a terminal's 1-cycle injection link.
pub(crate) type Arrival = (u32, u8, Flit);

/// A credit for VC `.1` on its way back to `.0`: an upstream router's
/// output port, or a terminal's source.
pub(crate) type Return = (Far, VcId);

/// A timing wheel: `slots[t % WAKE_RING]` holds what is due at cycle `t`,
/// in the order it was filed.
#[derive(Debug)]
pub(crate) struct Wheel<T> {
    pub(crate) slots: [Vec<T>; WAKE_RING],
}

impl<T> Wheel<T> {
    /// A wheel whose every slot holds `cap` entries without growing.
    fn with_capacity(cap: usize) -> Self {
        Wheel { slots: std::array::from_fn(|_| Vec::with_capacity(cap)) }
    }

    /// Files `item` for cycle `due`. (`inline(always)`: see the note at
    /// `source_send`.)
    #[inline(always)]
    pub(crate) fn push(&mut self, due: u64, item: T) {
        self.slots[(due % WAKE_RING as u64) as usize].push(item);
    }

    /// Entries on the wheel.
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

/// What one shard sent in one cycle to routers of one other shard, each
/// entry with its due cycle: the entries the receiver files on its wheels.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub(crate) arrivals: Vec<(u64, Arrival)>,
    pub(crate) returns: Vec<(u64, Return)>,
}

impl Outbox {
    /// Entries in the outbox.
    pub(crate) fn len(&self) -> usize {
        self.arrivals.len() + self.returns.len()
    }
}

/// Bookkeeping for activity-gated scheduling (see DESIGN.md §6c).
///
/// The cycle body touches only *active* routers and the deliveries due,
/// instead of sweeping every router and every link each cycle.
/// Correctness contract: a run is bit-identical to stepping every router
/// every cycle — skipped cycles are replayed through
/// [`vix_router::Router::note_idle_cycles`] before a router steps again.
///
/// This is the part of the scheduler that belongs to whoever steps a
/// slice — the whole network's, or one shard's, sized for what it steps.
/// What belongs to a router (its replay horizon) lives in its record.
#[derive(Debug)]
pub(crate) struct GatingState {
    /// Flits in flight to this slice's routers, by due cycle (global
    /// router indices). The links are the calendar: a flit is filed at
    /// `now + FLIT_LATENCY` (`now + 1` off an injection link) and
    /// delivered when its slot comes round.
    pub(crate) arrivals: Wheel<Arrival>,
    /// Credits in flight to this slice's routers and sources, filed at
    /// `now + CREDIT_LATENCY`.
    pub(crate) returns: Wheel<Return>,
    /// A shard's sends of this cycle to other shards' routers, by
    /// destination shard; empty when one slice is the whole network.
    pub(crate) outboxes: Vec<Outbox>,
    /// The shards' first routers, which route a send to its outbox.
    pub(crate) fences: Vec<usize>,
    /// Routers to step this cycle, one bit per router of the slice: a set
    /// absorbs repeated wakeups, and reads out in ascending order — the
    /// order of stats accumulation and ejection.
    /// Between cycles it holds the routers that still buffer a flit.
    pub(crate) work: Vec<u64>,
    /// Terminals whose source may hold a packet (all, at first), one bit
    /// per terminal of the slice: set wherever a packet is enqueued,
    /// cleared once phase 2 finds the source idle.
    pub(crate) sources: Vec<u64>,
    /// Total `Router::step_into` calls over the run; the observable for
    /// O(active) scheduling tests.
    pub(crate) router_steps: u64,
    /// Reused router-output buffer: [`vix_router::Router::step_into`]
    /// writes each router's flits and credits here, so the steady-state
    /// cycle body performs no heap allocation.
    step_out: RouterOutput,
}

impl GatingState {
    /// Scheduler state for the slice of `routers` and its `nodes`
    /// terminals, whose input ports each free up to `credits_per_port`
    /// buffer slots a cycle.
    pub(crate) fn new(wiring: &Wiring, routers: Range<usize>, nodes: usize, credits_per_port: usize) -> Self {
        // Worst-case slot populations, reserved up front so the steady-state
        // gated step stays allocation-free: a flit off every injection link
        // and every router link into the slice due on the same cycle, and a
        // credit from every virtual input whose credits end in the slice.
        let links = routers.clone().flat_map(|r| (0..wiring.radix).map(move |p| wiring.far(r, p)));
        let links = links.filter(|far| matches!(far, Far::Router(..))).count();
        let mut sources = vec![0; nodes.div_ceil(64)];
        set_low_bits(&mut sources, nodes);
        GatingState {
            arrivals: Wheel::with_capacity(nodes + links),
            returns: Wheel::with_capacity(routers.len() * wiring.radix * credits_per_port),
            outboxes: Vec::new(),
            fences: Vec::new(),
            work: vec![0; routers.len().div_ceil(64)],
            sources,
            router_steps: 0,
            step_out: RouterOutput::default(),
        }
    }

    /// The outbox toward the shard that owns router `r`.
    fn outbox(&mut self, r: usize) -> &mut Outbox {
        let shard = self.fences.partition_point(|&start| start <= r) - 1;
        &mut self.outboxes[shard]
    }

    /// Deliveries in flight (a heartbeat gauge): the wheels' entries and
    /// this cycle's sends still in an outbox.
    pub(crate) fn in_flight(&self) -> u64 {
        let outboxes: usize = self.outboxes.iter().map(Outbox::len).sum();
        (self.arrivals.len() + self.returns.len() + outboxes) as u64
    }
}

/// Hashes a packet id with one multiply by an odd constant: ids are dense
/// and sequential, and the product's low bits are a permutation of theirs.
#[derive(Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let id = u64::from_ne_bytes(bytes.try_into().expect("packet ids hash as one u64"));
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What a packet's flits do not carry of its descriptor — `(source, created_at,
/// tag, len_flits)` — by packet id, from the cycle its head leaves the source to
/// the cycle its tail ejects; touched only through [`PacketLog::replay`].
pub(crate) type PacketLedger = HashMap<u64, (NodeId, Cycle, u64, usize), BuildHasherDefault<IdHasher>>;

/// Packets entering and flits leaving the network in one cycle of the body, in
/// source and router order, for the run's statistics owner to replay: the
/// serial engine straight after the body, the sharded engine a cycle later.
#[derive(Debug, Default)]
pub(crate) struct PacketLog {
    /// Descriptors of the packets whose head flit left its source.
    injected: Vec<PacketDescriptor>,
    /// `(flit, cycle, measured)` per flit that left the network at its
    /// destination: every tail, and every flit inside the measurement window.
    ejected: Vec<(Flit, Cycle, bool)>,
    /// A shard's trace events of the cycle (the serial body records
    /// straight into the run's ring).
    pub(crate) trace: Vec<TraceEvent>,
    /// The slice's parts of the two scheduler gauges, which the
    /// statistics owner sums and records.
    pub(crate) active_routers: u64,
    pub(crate) wake_events: u64,
    /// The slice's part of a heartbeat, on a cycle that closes a
    /// heartbeat interval; the statistics owner sums the parts.
    pub(crate) beat: Option<SliceBeat>,
}

/// One slice's heartbeat gauges at the end of a cycle. The body fills the
/// first three; a shard adds its track's wall-clock split.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SliceBeat {
    /// Router steps since the run began (a sharded stretch's shard 0
    /// carries the steps taken before the stretch).
    pub(crate) router_steps: u64,
    /// Deliveries in flight toward the slice: its wheels' entries and
    /// its outboxes' (see [`GatingState::in_flight`]).
    pub(crate) wake_depth: u64,
    /// Flits buffered in the slice's router inputs.
    pub(crate) buffered_flits: u64,
    /// The shard track's cumulative busy and barrier-wait nanoseconds.
    pub(crate) busy_ns: u64,
    pub(crate) barrier_ns: u64,
}

impl SliceBeat {
    /// Records the heartbeat that `cycle` closes in `sink`: the sum of the
    /// slices' `beats`, which are in shard order, with each shard's
    /// wall-clock split when `per_shard` (the serial engine's one track
    /// counts as busy for the whole interval).
    pub(crate) fn record(beats: &[SliceBeat], per_shard: bool, cycle: u64, sink: &mut TelemetrySink) {
        let Some(prof) = sink.profiler_mut() else { return };
        let sum = |field: fn(&SliceBeat) -> u64| beats.iter().map(field).sum();
        let split: Vec<(u64, u64)> =
            if per_shard { beats.iter().map(|b| (b.busy_ns, b.barrier_ns)).collect() } else { Vec::new() };
        let (steps, wake, buffered) =
            (sum(|b| b.router_steps), sum(|b| b.wake_depth), sum(|b| b.buffered_flits));
        prof.heartbeat(cycle, steps, wake, buffered, &split);
    }
}

impl PacketLog {
    /// Drains the log in order: injected packets enter `ledger`; an ejection is
    /// recorded in `stats` if measured, and a tail retires its packet from
    /// `ledger` (loudly, if missing) into `delivered`, if the caller keeps
    /// deliveries. A head leaves its source a cycle or more before its tail
    /// ejects, so the entry is always there.
    pub(crate) fn replay(
        &mut self,
        ledger: &mut PacketLedger,
        stats: &mut NetworkStats,
        mut delivered: Option<&mut Vec<EjectedPacket>>,
    ) {
        for p in self.injected.drain(..) {
            ledger.insert(p.id.0, (p.source, p.created_at, p.tag, p.len_flits));
        }
        for (flit, at, measured) in self.ejected.drain(..) {
            if !flit.is_tail() {
                // Only a tail's record reads the source and creation cycle.
                stats.record_ejection(NodeId(0), false, Cycle::ZERO, at);
                continue;
            }
            let (id, dest) = (flit.packet_id(), flit.dest());
            let (source, created_at, tag, len_flits) =
                ledger.remove(&id.0).expect("tail ejected for a packet the ledger does not hold");
            if measured {
                stats.record_ejection(source, true, created_at, at);
            }
            if let Some(out) = delivered.as_deref_mut() {
                let packet = PacketDescriptor { id, source, dest, len_flits, created_at, tag };
                out.push(EjectedPacket { packet, at });
            }
        }
    }
}

/// A borrowed view of a contiguous slice of the network: the records of
/// routers `router_off..router_off + routers.len()` and of the terminals
/// attached to them. Router and terminal indices arriving from shared
/// structures (the wiring, wheel entries) are global; the offsets translate
/// them into the slices.
///
/// A link is *local* when its far end lies in the same slice. The body
/// files what it sends over local links on its own wheels, and what it
/// sends over the rest in the outbox of the shard that owns the far end,
/// which files it on that shard's wheels a cycle later — before it is due,
/// since every router link has ≥ 2 cycles of latency.
pub(crate) struct NetSlice<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) wiring: &'a Wiring,
    /// VC-occupancy histogram per router of the whole network (global
    /// index); empty when metrics are off.
    pub(crate) vc_occupancy: &'a [HistogramId],
    pub(crate) router_off: usize,
    pub(crate) node_off: usize,
    pub(crate) routers: &'a mut [RouterRecord],
    pub(crate) terminals: &'a mut [SourceQueue],
}

/// True when the cycle before `cycle` closes a heartbeat interval.
#[inline]
fn beat_due(sink: &TelemetrySink, cycle: u64) -> bool {
    sink.profiler().is_some_and(|p| p.beat_every() > 0 && cycle.is_multiple_of(p.beat_every()))
}

/// The trace record of `flit` seen at (`router`, `port`).
fn flit_event(kind: TraceEventKind, now: Cycle, router: usize, port: PortId, flit: &Flit) -> TraceEvent {
    TraceEvent {
        router: router as u32,
        port: port.0 as u32,
        vc: flit.out_vc().map_or(NO_ID, |v| v.0 as u32),
        packet: flit.packet_id().0,
        flit: flit.index() as u32,
        ..TraceEvent::at(now, kind)
    }
}

/// The trace record of a credit for VC `vc` leaving input port `port` of
/// `router`.
fn credit_event(now: Cycle, router: usize, port: PortId, vc: VcId) -> TraceEvent {
    let (router, port, vc) = (router as u32, port.0 as u32, vc.0 as u32);
    TraceEvent { router, port, vc, ..TraceEvent::at(now, TraceEventKind::CreditReturn) }
}

impl<'a> NetSlice<'a> {
    /// Splits the first `routers` routers and `nodes` terminals off as
    /// their own slice; the second slice is the rest.
    pub(crate) fn split_at(self, routers: usize, nodes: usize) -> (Self, Self) {
        let (routers_a, routers_b) = self.routers.split_at_mut(routers);
        let (terminals_a, terminals_b) = self.terminals.split_at_mut(nodes);
        let head = NetSlice { routers: routers_a, terminals: terminals_a, ..self };
        let tail = NetSlice {
            router_off: self.router_off + routers,
            node_off: self.node_off + nodes,
            routers: routers_b,
            terminals: terminals_b,
            ..self
        };
        (head, tail)
    }

    /// True when router `r` (global index) is in this slice.
    #[inline]
    fn owns(&self, r: usize) -> bool {
        r.wrapping_sub(self.router_off) < self.routers.len()
    }

    /// This slice's heartbeat gauges as cycle `now` leaves them.
    #[cold]
    #[inline(never)]
    fn beat(&self, gating: &GatingState) -> SliceBeat {
        SliceBeat {
            router_steps: gating.router_steps,
            wake_depth: gating.in_flight(),
            buffered_flits: self.routers.iter().map(|r| r.router.buffered_flits() as u64).sum(),
            ..SliceBeat::default()
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
        log: &mut PacketLog,
        mut span: SpanStart,
    ) -> SpanStart {
        // 2. Sources stream flits toward their routers, in ascending
        // terminal order: only those that may hold a packet (an idle
        // source's `try_send` is a pure no-op), each dropped from the set
        // once idle.
        for w in 0..gating.sources.len() {
            let (mut bits, mut backlogged) = (gating.sources[w], 0);
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                if !self.source_send(w * 64 + bit.trailing_zeros() as usize, now, gating, log) {
                    backlogged |= bit;
                }
            }
            gating.sources[w] = backlogged;
        }
        span = sink.span_lap(SpanKind::SourceInject, now.0, span);

        // One RouterOutput is reused across every router and every cycle.
        let mut out = std::mem::take(&mut gating.step_out);

        // 3 + 4. Deliver everything due this cycle (one `Deliver` span for
        // flits and credits together). Distinct entries touch disjoint state
        // (a link carries one flit a cycle into its own input port; credits
        // are counter increments), so wheel order is interchangeable with any
        // other delivery order. Every flit wakes its router; one off an
        // injection link is traced here, and those were filed in ascending
        // terminal order by the previous cycle's phase 2.
        let slot = (now.0 % WAKE_RING as u64) as usize;
        let (arrivals, returns) = (&mut gating.arrivals.slots[slot], &mut gating.returns.slots[slot]);
        log.wake_events = (arrivals.len() + returns.len()) as u64;
        for &(r, p, flit) in arrivals.iter() {
            let (r, ri, port) = (r as usize, r as usize - self.router_off, PortId(p as usize));
            if sink.tracing() && matches!(self.wiring.far(r, port.0), Far::Terminal(_)) {
                sink.trace(flit_event(TraceEventKind::Inject, now, r, port, &flit));
            }
            self.routers[ri].router.accept_flit(port, flit);
            set_bit(&mut gating.work, ri);
        }
        // Credit deliveries never wake a router: a credit only increments an
        // output-side counter, and output state is unread by an empty cycle —
        // a quiescent router has no flit the credit could release. A
        // non-quiescent receiver is already in the active set (it stays there
        // while it holds a flit), so the credit is applied before its step
        // either way.
        for &(far, vc) in returns.iter() {
            match far {
                Far::Router(up, port) => {
                    let up = &mut self.routers[up as usize - self.router_off].router;
                    up.credit_return(PortId(port as usize), vc);
                }
                Far::Terminal(node) => self.terminals[node as usize - self.node_off].credit_return(vc),
                Far::Open => unreachable!("credit returned through an unconnected port"),
            }
        }
        arrivals.clear();
        returns.clear();
        span = sink.span_lap(SpanKind::Deliver, now.0, span);

        // 5. Step the active routers in ascending index order, the order
        // of stats accumulation and ejection, replaying their skipped
        // cycles first. An empty step is exactly
        // `note_idle_cycles(1)`, so only routers a step leaves holding a
        // flit carry over as next cycle's set.
        log.active_routers = u64::from(count_ones(&gating.work));
        for w in 0..gating.work.len() {
            let (mut bits, mut busy) = (gating.work[w], 0);
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let ri = w * 64 + bit.trailing_zeros() as usize;
                let rec = &mut self.routers[ri];
                debug_assert!(!rec.router.is_quiescent(), "woke router {ri} holds no flit");
                let gap = now.0 - rec.stepped_until;
                if gap > 0 {
                    rec.router.note_idle_cycles(gap);
                }
                self.step_router(ri, now, &mut out, gating, sink, log);
                if !self.routers[ri].router.is_quiescent() {
                    busy |= bit;
                }
            }
            gating.work[w] = busy;
        }
        gating.step_out = out;

        // VC-occupancy sampling: every router of the slice, stepped this
        // cycle or not, as the body leaves it.
        if !self.vc_occupancy.is_empty() {
            let vcs = self.cfg.network.router.vcs_per_port();
            for (ri, rec) in self.routers.iter().enumerate() {
                let hist = self.vc_occupancy[self.router_off + ri];
                for p in (0..self.wiring.radix).map(PortId) {
                    for v in (0..vcs).map(VcId) {
                        sink.observe(hist, rec.router.buffer_occupancy(p, v) as u64);
                    }
                }
            }
        }
        if beat_due(sink, now.0 + 1) {
            log.beat = Some(self.beat(gating));
        }
        sink.span_lap(SpanKind::RouterStep, now.0, span)
    }

    // The helpers below stay `inline(always)`: left out of line by LLVM,
    // they measured 9 % slower on `mesh64-low` than the hand-written loops
    // they replaced. Re-measure before dropping the attribute.

    /// Lets terminal `i`'s source emit its next flit onto the injection
    /// link, filing its arrival one cycle out; returns whether the source
    /// is idle afterwards.
    #[inline(always)]
    fn source_send(&mut self, i: usize, now: Cycle, gating: &mut GatingState, log: &mut PacketLog) -> bool {
        let (router, port) = self.wiring.attachment(self.node_off + i);
        let source = &mut self.terminals[i];
        if let Some(flit) = source.try_send(now, |dest| self.wiring.resolve(router, dest), &mut log.injected) {
            gating.arrivals.push(now.0 + 1, (router as u32, port.0 as u8, flit));
        }
        source.is_idle()
    }

    /// Clocks this slice's router `ri` (its idle history already replayed)
    /// and fans its outputs out to the packet log and the wheels: its own
    /// for a local link, an outbox for a link into another shard.
    #[inline(always)]
    fn step_router(
        &mut self,
        ri: usize,
        now: Cycle,
        out: &mut RouterOutput,
        gating: &mut GatingState,
        sink: &mut TelemetrySink,
        log: &mut PacketLog,
    ) {
        let r = self.router_off + ri;
        let in_window = now.0 >= self.cfg.warmup && now.0 < self.cfg.warmup + self.cfg.measure;
        let rec = &mut self.routers[ri];
        rec.router.step_into(now, out, sink);
        gating.router_steps += 1;
        rec.stepped_until = now.0 + 1;
        for (p, mut flit) in out.flits.drain(..) {
            match self.wiring.far(r, p.0) {
                Far::Terminal(node) => {
                    debug_assert_eq!(
                        NodeId(node as usize),
                        flit.dest(),
                        "flit ejected at the wrong terminal"
                    );
                    sink.trace(flit_event(TraceEventKind::Eject, now, r, p, &flit));
                    if in_window || flit.is_tail() {
                        log.ejected.push((flit, now, in_window));
                    }
                }
                Far::Router(down, down_port) => {
                    // Lookahead routing: rewrite the routing fields for the
                    // downstream router before the flit enters the link.
                    let (out_port, lookahead, _) =
                        self.wiring.resolve(down as usize, flit.dest());
                    flit.set_route(out_port, lookahead);
                    sink.trace(flit_event(TraceEventKind::LinkTraversal, now, r, p, &flit));
                    let (due, arrival) = (now.0 + FLIT_LATENCY, (down, down_port, flit));
                    if self.owns(down as usize) {
                        gating.arrivals.push(due, arrival);
                    } else {
                        gating.outbox(down as usize).arrivals.push((due, arrival));
                    }
                }
                Far::Open => unreachable!("route through unconnected port {p} of router {r}"),
            }
        }
        for (p, vc) in out.credits.drain(..) {
            sink.trace(credit_event(now, r, p, vc));
            let (far, due) = (self.wiring.far(r, p.0), now.0 + CREDIT_LATENCY);
            match far {
                Far::Router(up, _) if !self.owns(up as usize) => {
                    gating.outbox(up as usize).returns.push((due, (far, vc)));
                }
                _ => gating.returns.push(due, (far, vc)),
            }
        }
    }
}
