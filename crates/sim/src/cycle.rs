//! A slice of the network and the cycle body: phases 2–5 of one
//! simulated cycle over it, written once.
//!
//! A cycle is generate → source inject → deliver → router step → fan-out.
//! Phase 1 (generation) draws from the run's single RNG and belongs to
//! the run ([`TrafficGen`](crate::network::TrafficGen)); the rest is
//! [`Slice::run_cycle`], which [`crate::shard`]'s cycle protocol runs over
//! every slice, on the calling thread or on one thread per slice. A
//! [`NetworkSim`](crate::NetworkSim) is its slices from build on: each
//! owns its routers, terminals, scheduler state, packet log and sink, and
//! nothing is cut, split or merged back between cycles.
//!
//! The body is the activity-gated scheduler ([`GatingState`], DESIGN.md
//! §6c), the only one there is: it steps the routers with work and replays
//! the idle cycles of the rest, and `tests/reference_parity.rs` holds it to
//! an independent simulator that steps every router every cycle.

use crate::network::{EjectedPacket, Far, RouterRecord, Wiring};
use crate::shard::ShardPlan;
use crate::source::SourceQueue;
use crate::stats::NetworkStats;
use crate::{CREDIT_LATENCY, FLIT_LATENCY};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard};
use vix_core::bits::{count_ones, set_bit, set_low_bits};
use vix_core::{Cycle, Flit, NodeId, PacketDescriptor, PortId, SimConfig, VcId};
use vix_router::RouterOutput;
use vix_telemetry::{
    HistogramId, Profiler, SpanKind, SpanStart, TelemetrySink, TraceEvent, TraceEventKind, NO_ID,
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
    /// An outbox that holds one cycle of what slice `src` can send slice
    /// `dst` without growing: a flit per router link from the one into the
    /// other, and a credit per virtual input behind each such link.
    fn between(wiring: &Wiring, plan: ShardPlan, src: usize, dst: usize, credits_per_port: usize) -> Self {
        let routers = plan.router_range(src);
        let fars = routers.flat_map(|r| (0..wiring.radix).map(move |p| wiring.far(r, p)));
        let links = fars.filter(|&far| matches!(far, Far::Router(r, _) if plan.shard_of_router(r as usize) == dst));
        let links = links.count();
        Outbox { arrivals: Vec::with_capacity(links), returns: Vec::with_capacity(links * credits_per_port) }
    }

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
/// Each [`Slice`] owns one, sized for what it steps. What belongs to a
/// router (its replay horizon) lives in its record.
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
    /// This cycle's sends to the other slices' routers, one outbox per
    /// other slice in slice order; none when one slice is the whole
    /// network.
    pub(crate) outboxes: Vec<Outbox>,
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
    /// Scheduler state for slice `me` of `plan` and its `nodes`
    /// terminals, whose input ports each free up to `credits_per_port`
    /// buffer slots a cycle.
    pub(crate) fn new(wiring: &Wiring, plan: ShardPlan, me: usize, nodes: usize, credits_per_port: usize) -> Self {
        let routers = plan.router_range(me);
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
            outboxes: (0..plan.shards())
                .filter(|&dst| dst != me)
                .map(|dst| Outbox::between(wiring, plan, me, dst, credits_per_port))
                .collect(),
            work: vec![0; routers.len().div_ceil(64)],
            sources,
            router_steps: 0,
            step_out: RouterOutput::default(),
        }
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

/// Packets entering and flits leaving the network in one cycle of a slice, in
/// source and router order, for the run's statistics owner to replay
/// (`merge_cycle` in [`crate::shard`]): at the end of the cycle on one
/// thread, during the next one on S threads.
#[derive(Debug, Default)]
pub(crate) struct PacketLog {
    /// Descriptors of the packets whose head flit left its source.
    injected: Vec<PacketDescriptor>,
    /// `(flit, cycle, measured)` per flit that left the network at its
    /// destination: every tail, and every flit inside the measurement window.
    ejected: Vec<(Flit, Cycle, bool)>,
    /// The slice's trace events of the cycle.
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
/// first three; [`Slice::run_cycle`] adds its track's wall-clock split.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SliceBeat {
    /// The slice's router steps since the run began.
    pub(crate) router_steps: u64,
    /// Deliveries in flight toward the slice: its wheels' entries and
    /// its outboxes' (see [`GatingState::in_flight`]).
    pub(crate) wake_depth: u64,
    /// Flits buffered in the slice's router inputs.
    pub(crate) buffered_flits: u64,
    /// The slice track's cumulative busy and barrier-wait nanoseconds.
    pub(crate) busy_ns: u64,
    pub(crate) barrier_ns: u64,
}

impl SliceBeat {
    /// Records the heartbeat that `cycle` closes in `sink`: the sum of the
    /// slices' `beats`, which are in slice order, with each slice's
    /// wall-clock split.
    pub(crate) fn record(beats: &[SliceBeat], cycle: u64, sink: &mut TelemetrySink) {
        let Some(prof) = sink.profiler_mut() else { return };
        let sum = |field: fn(&SliceBeat) -> u64| beats.iter().map(field).sum();
        let split: Vec<(u64, u64)> = beats.iter().map(|b| (b.busy_ns, b.barrier_ns)).collect();
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

/// What every slice reads and none writes: the run's configuration, the
/// wiring, the per-router histogram ids (global index; empty when metrics
/// are off) and the plan that names the slice owning each router.
#[derive(Clone, Copy)]
pub(crate) struct Env<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) wiring: &'a Wiring,
    pub(crate) vc_occupancy: &'a [HistogramId],
    pub(crate) plan: ShardPlan,
}

/// Cross-slice mailboxes, one per ordered pair of distinct slices and
/// cycle parity: `mail[(t % 2, dst, src)]` holds what slice `src` sent
/// slice `dst`'s routers at cycle `t`, each entry with its due cycle, and
/// `dst` files it on its wheels at the start of cycle `t + 1` — before it
/// is due, since every router link has ≥ 2 cycles of latency. Each
/// `Mutex` is uncontended by construction: its sender fills it in cycle
/// `t`, its receiver drains it in cycle `t + 1`, and the other parity's
/// slot is the one in use meanwhile. With one slice there are none.
#[derive(Debug)]
pub(crate) struct Mail {
    slices: usize,
    slots: Vec<Mutex<Outbox>>,
}

impl Mail {
    /// The mailboxes between the slices of `plan`, each reserved like the
    /// outbox its sender swaps into it.
    pub(crate) fn new(wiring: &Wiring, plan: ShardPlan, credits_per_port: usize) -> Self {
        let slices = plan.shards();
        let pairs = (0..slices)
            .flat_map(|dst| (0..slices).filter(move |&src| src != dst).map(move |src| (dst, src)));
        let slots = [pairs.clone(), pairs]
            .into_iter()
            .flatten()
            .map(|(dst, src)| Mutex::new(Outbox::between(wiring, plan, src, dst, credits_per_port)))
            .collect();
        Mail { slices, slots }
    }

    /// The mailbox of the sends from slice `src` to slice `dst` in the
    /// cycles of parity `parity`.
    fn slot(&self, parity: usize, dst: usize, src: usize) -> MutexGuard<'_, Outbox> {
        let others = self.slices - 1;
        let i = (parity * self.slices + dst) * others + other(dst, src);
        self.slots[i].lock().expect("no slice panicked holding a mailbox")
    }
}

#[cfg(test)]
impl Mail {
    /// Flits waiting in a mailbox.
    pub(crate) fn arrivals(&self) -> usize {
        self.slots.iter().map(|m| m.lock().expect("no slice panicked").arrivals.len()).sum()
    }
}

/// Index of slice `s` among the slices other than `me`.
#[inline]
fn other(me: usize, s: usize) -> usize {
    s - usize::from(s > me)
}

/// A contiguous slice of the network — routers
/// `router_off..router_off + routers.len()` and the terminals attached to
/// them — with everything that steps it: its scheduler state, packet log
/// and telemetry sink. Router and terminal indices arriving from shared
/// structures (the wiring, wheel entries) are global; the offsets
/// translate them into the slice.
///
/// A link is *local* when its far end lies in the same slice. The body
/// files what it sends over local links on its own wheels, and what it
/// sends over the rest in the outbox of the slice that owns the far end.
#[derive(Debug)]
pub(crate) struct Slice {
    /// Position among the network's slices, which names its outboxes
    /// and mailboxes.
    pub(crate) idx: usize,
    pub(crate) router_off: usize,
    pub(crate) node_off: usize,
    pub(crate) routers: Vec<RouterRecord>,
    pub(crate) terminals: Vec<SourceQueue>,
    pub(crate) gating: GatingState,
    /// This cycle's packet log; the cycle protocol replays it.
    pub(crate) log: PacketLog,
    /// This slice's sink ([`TelemetrySink::for_shard`]), absorbed into the
    /// run's when a stepping call returns; its trace travels in the log.
    pub(crate) sink: TelemetrySink,
    /// Set only by [`NetworkSim::inject_shard_panic`](crate::NetworkSim::inject_shard_panic).
    pub(crate) panic_at: Option<u64>,
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

impl Slice {
    /// Enqueues `packet` at its source, which this slice owns.
    pub(crate) fn enqueue(&mut self, packet: PacketDescriptor) {
        let i = packet.source.0 - self.node_off;
        self.terminals[i].enqueue(packet);
        set_bit(&mut self.gating.sources, i);
    }

    /// This slice's part of cycle `t`: files what the other slices sent
    /// it at `t − 1` (all of it due at `t + 1` or later), runs the body,
    /// posts this cycle's sends to the other slices, and closes its packet
    /// log — trace events and heartbeat split included — for the merge.
    /// With one slice nothing crosses, so this takes no lock. `span` is
    /// the open profiling lap chain on this slice's sink; the chain is
    /// handed back open, for the caller to close as `Exchange` once the
    /// log is where the merge reads it.
    pub(crate) fn run_cycle(&mut self, env: Env<'_>, t: u64, mail: &Mail, mut span: SpanStart) -> SpanStart {
        if self.panic_at == Some(t) {
            panic!("injected shard panic at cycle {t} shard {}", self.idx);
        }
        let (me, parity) = (self.idx, (t % 2) as usize);
        for src in (0..mail.slices).filter(|&src| src != me) {
            let mut inbox = mail.slot(1 - parity, me, src);
            for (due, arrival) in inbox.arrivals.drain(..) {
                self.gating.arrivals.push(due, arrival);
            }
            for (due, credit) in inbox.returns.drain(..) {
                self.gating.returns.push(due, credit);
            }
        }
        span = self.sink.span_lap(SpanKind::Exchange, t, span);
        let mut body = Body {
            env,
            me,
            router_off: self.router_off,
            node_off: self.node_off,
            routers: &mut self.routers,
            terminals: &mut self.terminals,
        };
        span = body.step(Cycle(t), &mut self.gating, &mut self.sink, &mut self.log, span);
        // The swap gets back the outbox the receiver drained last cycle,
        // keeping the steady state allocation-free.
        for (i, outbox) in self.gating.outboxes.iter_mut().enumerate() {
            if outbox.len() > 0 {
                let dst = i + usize::from(i >= me);
                std::mem::swap(&mut *mail.slot(parity, dst, me), outbox);
            }
        }
        if let Some(beat) = &mut self.log.beat {
            (beat.busy_ns, beat.barrier_ns) = self.sink.profiler().map_or((0, 0), Profiler::own_busy_barrier_ns);
        }
        if self.sink.tracing() {
            self.sink.take_trace(&mut self.log.trace);
        }
        span
    }
}

/// The cycle body's view of a slice: its records as plain slices, with
/// the scheduler state, sink and log handed to [`Body::step`] as
/// arguments of their own. Kept apart, none of them can alias another,
/// so the compiler holds the slice's bookkeeping in registers across every
/// router step instead of reloading it after each call that is handed the
/// sink or the log.
struct Body<'a> {
    env: Env<'a>,
    /// The slice's index, which names its outboxes.
    me: usize,
    router_off: usize,
    node_off: usize,
    routers: &'a mut [RouterRecord],
    terminals: &'a mut [SourceQueue],
}

impl Body<'_> {
    /// True when router `r` (global index) is in this slice.
    #[inline]
    fn owns(&self, r: usize) -> bool {
        r.wrapping_sub(self.router_off) < self.routers.len()
    }

    /// The outbox in `gating` toward the slice that owns router `r`.
    fn outbox<'g>(&self, gating: &'g mut GatingState, r: usize) -> &'g mut Outbox {
        &mut gating.outboxes[other(self.me, self.env.plan.shard_of_router(r))]
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
    fn step(
        &mut self,
        now: Cycle,
        gating: &mut GatingState,
        sink: &mut TelemetrySink,
        log: &mut PacketLog,
        mut span: SpanStart,
    ) -> SpanStart {
        let env = self.env;
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
            if sink.tracing() && matches!(env.wiring.far(r, port.0), Far::Terminal(_)) {
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
        if !env.vc_occupancy.is_empty() {
            let vcs = env.cfg.network.router.vcs_per_port();
            for (ri, rec) in self.routers.iter().enumerate() {
                let hist = env.vc_occupancy[self.router_off + ri];
                for p in (0..env.wiring.radix).map(PortId) {
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
        let wiring = self.env.wiring;
        let (router, port) = wiring.attachment(self.node_off + i);
        let source = &mut self.terminals[i];
        if let Some(flit) = source.try_send(now, |dest| wiring.resolve(router, dest), &mut log.injected) {
            gating.arrivals.push(now.0 + 1, (router as u32, port.0 as u8, flit));
        }
        source.is_idle()
    }

    /// Clocks this slice's router `ri` (its idle history already replayed)
    /// and fans its outputs out to the packet log and the wheels: its own
    /// for a local link, an outbox for a link into another slice.
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
        let (cfg, wiring) = (self.env.cfg, self.env.wiring);
        let r = self.router_off + ri;
        let in_window = now.0 >= cfg.warmup && now.0 < cfg.warmup + cfg.measure;
        let rec = &mut self.routers[ri];
        rec.router.step_into(now, out, sink);
        gating.router_steps += 1;
        rec.stepped_until = now.0 + 1;
        for (p, mut flit) in out.flits.drain(..) {
            match wiring.far(r, p.0) {
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
                    let (out_port, lookahead, _) = wiring.resolve(down as usize, flit.dest());
                    flit.set_route(out_port, lookahead);
                    sink.trace(flit_event(TraceEventKind::LinkTraversal, now, r, p, &flit));
                    let (due, arrival) = (now.0 + FLIT_LATENCY, (down, down_port, flit));
                    if self.owns(down as usize) {
                        gating.arrivals.push(due, arrival);
                    } else {
                        self.outbox(gating, down as usize).arrivals.push((due, arrival));
                    }
                }
                Far::Open => unreachable!("route through unconnected port {p} of router {r}"),
            }
        }
        for (p, vc) in out.credits.drain(..) {
            sink.trace(credit_event(now, r, p, vc));
            let (far, due) = (wiring.far(r, p.0), now.0 + CREDIT_LATENCY);
            let credit = (far, vc);
            match far {
                Far::Router(up, _) if !self.owns(up as usize) => {
                    self.outbox(gating, up as usize).returns.push((due, credit));
                }
                _ => gating.returns.push(due, credit),
            }
        }
    }
}
