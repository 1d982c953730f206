//! Engine self-profiling: phase spans, shard health, and heartbeats.
//!
//! Everything in this module observes the *host* — monotonic wall-clock
//! time around the simulator's pipeline phases — and never simulation
//! state, so profiling cannot perturb results: a profiled run is
//! bit-identical to an unprofiled one. Each shard of a sharded run
//! profiles on its own track.
//!
//! The layer has three parts:
//!
//! - **Phase spans** ([`SpanKind`], [`Profiler::lap`]): scoped timers
//!   around the five pipeline phases plus traffic generation, stats
//!   merges, cross-shard exchange, and barrier waits. Each span is
//!   accumulated into a fixed-slot log₂-nanosecond histogram
//!   ([`PhaseSlot`]) and, capacity permitting, retained individually in
//!   a preallocated ring ([`SpanRecord`]) for flame-graph export.
//!   Adjacent phases share one clock read: `lap` returns the `Instant`
//!   it just took, which becomes the next phase's start.
//! - **Health snapshots** ([`SimHealth`], [`Profiler::heartbeat`]):
//!   cycles/sec, active-router count, wake-calendar depth, aggregate VC
//!   occupancy, and the per-shard busy/barrier split, sampled on a
//!   configurable cycle interval. The simulator gathers each sample
//!   where it merges a cycle's records, so it describes exactly the
//!   cycle it names, for any shard count.
//! - **Exporters**: span JSONL, heartbeat JSONL, a Chrome trace-event
//!   file (one `tid` per shard — Perfetto renders a per-shard flame
//!   track), and a human-readable end-of-run [`PhaseBreakdown`].
//!
//! Overhead budget: with profiling enabled the engine takes ~6 clock
//! reads per cycle (lap-chained), ≈150 ns on Linux — well under the 5 %
//! budget `benches/hotpath.rs` enforces against a 64-node mesh. With
//! profiling disabled (the default) no [`Profiler`] exists at all and
//! every hook is a single `Option` branch.

use std::io::{self, Write};
use std::time::Instant;

/// Number of log₂-nanosecond histogram buckets per phase slot. Bucket
/// `i` counts spans with `dur_ns` in `[2^i, 2^(i+1))` (bucket 0 also
/// takes 0 ns; the last bucket takes everything ≥ 2^22 ns ≈ 4 ms).
pub const NS_BUCKETS: usize = 23;

/// Track id of the calling thread's run-wide duties, and of a one-slice
/// run's only slice. The slices of a sharded run use their index.
pub const ENGINE_TRACK: u32 = u32::MAX;

/// The instrumented engine phases.
///
/// Every cycle records `TrafficGen` and `StatsMerge` — the calling
/// thread's run-wide duties, and nothing else — on the engine track, and
/// `Exchange` (mailbox filing and posting, and a spawned slice's staged
/// packets and log hand-over), `SourceInject`, `Deliver` and
/// `RouterStep` on each slice's track. The engine delivers flits and
/// credits in one wake-calendar drain, recorded as `Deliver`, so it never
/// records `CreditDeliver`; the kind keeps its slot because the span
/// schema and the phase-share reports name every kind. A run on several
/// threads adds one `BarrierWait` per cycle on every slice's track (the
/// single end-of-cycle spin barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Phase 1: the calling thread's per-node traffic generation (one
    /// cycle ahead when the slices run on their own threads).
    TrafficGen = 0,
    /// Phase 2: source-queue head flits offered to injection links.
    SourceInject = 1,
    /// Phases 3 and 4: the wake-calendar drain that delivers flits and
    /// credits together.
    Deliver = 2,
    /// Phase 4 on its own: credit-link delivery. The engine folds it into
    /// `Deliver` and never records this kind.
    CreditDeliver = 3,
    /// Phase 5: router pipeline stepping and output fan-out.
    RouterStep = 4,
    /// A slice's cross-slice traffic: filing its inbound mailboxes,
    /// posting its outboxes and, on its own thread, draining its staged
    /// packets and handing over its packet log.
    Exchange = 5,
    /// Merging a finished cycle's per-slice packet logs into the run
    /// statistics.
    StatsMerge = 6,
    /// Time a shard spent at the end-of-cycle barrier,
    /// spinning/yielding for stragglers. The share of wall-clock spent
    /// here is the shard engine's synchronization + imbalance cost.
    BarrierWait = 7,
}

impl SpanKind {
    /// Number of span kinds (slot-array length).
    pub const COUNT: usize = 8;

    /// Every kind, in slot order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::TrafficGen,
        SpanKind::SourceInject,
        SpanKind::Deliver,
        SpanKind::CreditDeliver,
        SpanKind::RouterStep,
        SpanKind::Exchange,
        SpanKind::StatsMerge,
        SpanKind::BarrierWait,
    ];

    /// Stable lower-snake-case name used in JSONL and Chrome exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::TrafficGen => "traffic_gen",
            SpanKind::SourceInject => "source_inject",
            SpanKind::Deliver => "deliver",
            SpanKind::CreditDeliver => "credit_deliver",
            SpanKind::RouterStep => "router_step",
            SpanKind::Exchange => "exchange",
            SpanKind::StatsMerge => "stats_merge",
            SpanKind::BarrierWait => "barrier_wait",
        }
    }
}

/// Opaque start-of-span token; `None` when profiling is disabled, so a
/// disabled hook costs one branch and zero clock reads.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(pub(crate) Option<Instant>);

impl SpanStart {
    /// The token a disabled profiler hands out: laps against it are
    /// no-ops.
    pub const DISABLED: SpanStart = SpanStart(None);
}

/// Fixed-slot accumulator for one phase on one track: count, total,
/// max, and a log₂-ns histogram. `Copy` so the slot array lives inline
/// in the [`Profiler`] with no per-span allocation.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSlot {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
    /// Log₂-nanosecond duration histogram (see [`NS_BUCKETS`]).
    pub buckets: [u64; NS_BUCKETS],
}

impl PhaseSlot {
    const EMPTY: PhaseSlot =
        PhaseSlot { count: 0, total_ns: 0, max_ns: 0, buckets: [0; NS_BUCKETS] };

    fn record(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
        let bucket = (64 - u64::leading_zeros(dur_ns) as usize).saturating_sub(1);
        self.buckets[bucket.min(NS_BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, other: &PhaseSlot) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Mean span duration in nanoseconds (0 when empty).
    #[must_use]
    fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One retained span: what, when (relative to the profiler epoch), and
/// for which cycle.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Which phase this span timed.
    pub kind: SpanKind,
    /// Simulation cycle the span belongs to.
    pub cycle: u64,
    /// Start offset from the profiler epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

/// Fixed-capacity span ring: preallocated up front, overwrites the
/// oldest span once full (mirroring the flit-trace ring's contract) so
/// the steady-state hot path never allocates.
#[derive(Debug, Clone)]
pub struct SpanRing {
    buf: Vec<SpanRecord>,
    cap: usize,
    start: usize,
    dropped: u64,
}

impl SpanRing {
    fn new(cap: usize) -> Self {
        SpanRing { buf: Vec::with_capacity(cap), ..SpanRing::unallocated(cap) }
    }

    /// A ring of capacity `cap` that allocates as it fills.
    fn unallocated(cap: usize) -> Self {
        SpanRing { buf: Vec::new(), cap, start: 0, dropped: 0 }
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.cap == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.start] = rec;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Retained spans, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.buf[self.start..].iter().chain(self.buf[..self.start].iter())
    }

    /// Number of spans retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no spans are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans evicted (or refused, when capacity is 0) since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Moves the retained spans, oldest first, and the drop count onto
    /// `into`, and leaves this ring empty, its storage kept.
    fn move_into(&mut self, into: &mut SpanRing) {
        for &rec in self.iter() {
            into.push(rec);
        }
        into.dropped += self.dropped;
        (self.start, self.dropped) = (0, 0);
        self.buf.clear();
    }
}

/// Per-track profile state: the histogram slots and the span ring for
/// one execution track (the engine track or one shard).
#[derive(Debug, Clone)]
struct TrackProf {
    track: u32,
    slots: [PhaseSlot; SpanKind::COUNT],
    ring: SpanRing,
}

impl TrackProf {
    fn new(track: u32, span_capacity: usize) -> Self {
        TrackProf {
            track,
            slots: [PhaseSlot::EMPTY; SpanKind::COUNT],
            ring: SpanRing::new(span_capacity),
        }
    }

    fn busy_barrier_ns(&self) -> (u64, u64) {
        let barrier = self.slots[SpanKind::BarrierWait as usize].total_ns;
        let busy: u64 = SpanKind::ALL
            .iter()
            .filter(|k| !matches!(k, SpanKind::BarrierWait))
            .map(|&k| self.slots[k as usize].total_ns)
            .sum();
        (busy, barrier)
    }
}

/// Human-readable name for a track id.
#[must_use]
fn track_name(track: u32) -> String {
    if track == ENGINE_TRACK {
        "engine".to_string()
    } else {
        format!("shard{track}")
    }
}

/// One shard's slice of a [`SimHealth`] heartbeat: wall-clock spent
/// working vs waiting at the end-of-cycle barrier during the sampling
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardBeat {
    /// Slice index (`0` for a one-slice run).
    pub shard: u32,
    /// Nanoseconds spent inside the cycle work during the interval.
    pub busy_ns: u64,
    /// Nanoseconds spent blocked on barriers during the interval.
    pub barrier_ns: u64,
}

impl ShardBeat {
    /// Fraction of the shard's accounted wall-clock spent working
    /// (1.0 when nothing was accounted).
    #[must_use]
    pub fn busy_ratio(&self) -> f64 {
        let total = self.busy_ns + self.barrier_ns;
        if total == 0 {
            1.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// One engine health snapshot, sampled every
/// [`heartbeat_every`](vix_core::config::TelemetrySettings::heartbeat_every)
/// cycles. All rate/delta fields cover the interval since the previous
/// heartbeat (or the profiler epoch for the first one).
#[derive(Debug, Clone, PartialEq)]
pub struct SimHealth {
    /// Simulation cycle the snapshot was taken at.
    pub cycle: u64,
    /// Wall-clock offset from the profiler epoch, nanoseconds.
    pub wall_ns: u64,
    /// Cycles elapsed since the previous heartbeat.
    pub interval_cycles: u64,
    /// Simulated cycles per wall-clock second over the interval.
    pub cycles_per_sec: f64,
    /// Router pipeline steps executed during the interval.
    pub router_steps: u64,
    /// Mean routers stepped per cycle over the interval — under
    /// activity gating this is the live active-router count.
    pub active_routers_avg: f64,
    /// Deliveries in flight at the snapshot: every flit and credit on a
    /// link, whether on the scheduler's timing wheels or, in a sharded
    /// run, among a cycle's cross-shard sends not yet filed on the
    /// receiver's wheels. The same for every shard count.
    pub wake_depth: u64,
    /// Aggregate VC-slab occupancy: flits buffered in router inputs at
    /// the snapshot.
    pub buffered_flits: u64,
    /// Per-slice busy/barrier split for the interval; a single entry
    /// for a one-slice run.
    pub shards: Vec<ShardBeat>,
    /// Busy-time imbalance across shards over the interval:
    /// `(max − min) / max × 100` (0 for a single track).
    pub imbalance_pct: f64,
}

impl SimHealth {
    /// The snapshot as one JSONL line (no trailing newline). The key
    /// set is pinned by `tests/telemetry_schema.rs`.
    #[must_use]
    fn to_jsonl_line(&self) -> String {
        let mut line = format!(
            "{{\"cycle\":{},\"wall_ns\":{},\"interval_cycles\":{},\"cycles_per_sec\":{:.1},\
             \"router_steps\":{},\"active_routers_avg\":{:.2},\"wake_depth\":{},\
             \"buffered_flits\":{},\"imbalance_pct\":{:.2},\"shards\":[",
            self.cycle,
            self.wall_ns,
            self.interval_cycles,
            self.cycles_per_sec,
            self.router_steps,
            self.active_routers_avg,
            self.wake_depth,
            self.buffered_flits,
            self.imbalance_pct,
        );
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{{\"shard\":{},\"busy_ns\":{},\"barrier_ns\":{},\"busy_ratio\":{:.3}}}",
                s.shard,
                s.busy_ns,
                s.barrier_ns,
                s.busy_ratio(),
            ));
        }
        line.push_str("]}");
        line
    }
}

/// The engine self-profiler: one instance per execution track, merged
/// into the engine track's instance when a sharded run finishes.
///
/// ```
/// use vix_telemetry::prof::{Profiler, SpanKind, ENGINE_TRACK};
///
/// let mut p = Profiler::new(ENGINE_TRACK, 1024, 0, false);
/// let t = p.start();
/// let t = p.lap(SpanKind::TrafficGen, 0, t);
/// p.lap(SpanKind::RouterStep, 0, t);
/// let b = p.breakdown();
/// assert_eq!(b.totals[SpanKind::TrafficGen as usize].count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    epoch: Instant,
    own: TrackProf,
    absorbed: Vec<TrackProf>,
    beat_every: u64,
    stream: bool,
    heartbeats: Vec<SimHealth>,
    last_beat_ns: u64,
    last_beat_cycle: u64,
    last_beat_steps: u64,
    last_shard_cum: Vec<(u64, u64)>,
}

impl Profiler {
    /// A profiler for `track` with its own epoch (use
    /// [`Profiler::for_shard`] to share an existing epoch).
    #[must_use]
    pub fn new(track: u32, span_capacity: usize, beat_every: u64, stream: bool) -> Self {
        Profiler::for_shard(track, Instant::now(), span_capacity, beat_every, stream)
    }

    /// A shard-track profiler sharing the engine track's `epoch`, so
    /// span timestamps from every track live on one timeline.
    #[must_use]
    pub fn for_shard(
        track: u32,
        epoch: Instant,
        span_capacity: usize,
        beat_every: u64,
        stream: bool,
    ) -> Self {
        Profiler {
            epoch,
            own: TrackProf::new(track, span_capacity),
            absorbed: Vec::new(),
            beat_every,
            stream,
            heartbeats: Vec::new(),
            last_beat_ns: 0,
            last_beat_cycle: 0,
            last_beat_steps: 0,
            last_shard_cum: Vec::new(),
        }
    }

    /// The shared time origin all span timestamps are relative to.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Heartbeat interval in cycles (0 = never).
    #[must_use]
    pub fn beat_every(&self) -> u64 {
        self.beat_every
    }

    /// Takes the clock: the returned token starts the next span.
    #[must_use]
    pub fn start(&self) -> SpanStart {
        SpanStart(Some(Instant::now()))
    }

    /// Closes the span that began at `from` as one `kind` span for
    /// `cycle`, and returns a token starting the next span at the same
    /// instant — adjacent phases share a single clock read.
    pub fn lap(&mut self, kind: SpanKind, cycle: u64, from: SpanStart) -> SpanStart {
        let Some(t0) = from.0 else { return SpanStart::DISABLED };
        let now = Instant::now();
        let start_ns = t0.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = now.saturating_duration_since(t0).as_nanos() as u64;
        self.own.slots[kind as usize].record(dur_ns);
        self.own.ring.push(SpanRecord { kind, cycle, start_ns, dur_ns });
        SpanStart(Some(now))
    }

    /// Merges a finished worker's profiler into this one: its slots and
    /// span ring become an additional export track.
    pub fn absorb(&mut self, other: Profiler) {
        self.absorbed.push(other.own);
        self.absorbed.extend(other.absorbed);
        self.heartbeats.extend(other.heartbeats);
    }

    /// Brings this profiler's copy of shard `index`'s track up to date
    /// with `shard`, that shard's live profiler: the copy takes its phase
    /// totals and the spans it retained since the last call. Shards are
    /// mirrored in index order from 0, the first call for each adding
    /// its track by adopting the shard's span ring whole (the shard
    /// records on into an empty ring of the same capacity that grows only
    /// as far as the spans of one interval between calls), so a track
    /// keeps one full ring, not two. `shard` keeps counting, so its
    /// cumulative busy and barrier time stays its own to report.
    ///
    /// # Panics
    ///
    /// Panics if `index` skips a shard that was never mirrored.
    pub fn mirror(&mut self, index: usize, shard: &mut Profiler) {
        if index == self.absorbed.len() {
            let empty = SpanRing::unallocated(shard.own.ring.cap);
            let ring = std::mem::replace(&mut shard.own.ring, empty);
            self.absorbed.push(TrackProf { track: shard.own.track, slots: shard.own.slots, ring });
            return;
        }
        let copy = &mut self.absorbed[index];
        copy.slots = shard.own.slots;
        shard.own.ring.move_into(&mut copy.ring);
    }

    /// Samples a heartbeat at `cycle`. `router_steps_cum`, `wake_depth`
    /// (deliveries in flight, see [`SimHealth::wake_depth`]) and
    /// `buffered_flits` are engine-wide values; `shard_cum` carries
    /// each shard's *cumulative* `(busy_ns, barrier_ns)` split (an
    /// empty split accounts the whole interval to one busy track).
    pub fn heartbeat(
        &mut self,
        cycle: u64,
        router_steps_cum: u64,
        wake_depth: u64,
        buffered_flits: u64,
        shard_cum: &[(u64, u64)],
    ) {
        let wall_ns = self.epoch.elapsed().as_nanos() as u64;
        let interval_ns = wall_ns.saturating_sub(self.last_beat_ns).max(1);
        let interval_cycles = cycle.saturating_sub(self.last_beat_cycle);
        let steps = router_steps_cum.saturating_sub(self.last_beat_steps);
        let shards: Vec<ShardBeat> = if shard_cum.is_empty() {
            vec![ShardBeat { shard: 0, busy_ns: interval_ns, barrier_ns: 0 }]
        } else {
            self.last_shard_cum.resize(shard_cum.len(), (0, 0));
            shard_cum
                .iter()
                .zip(self.last_shard_cum.iter())
                .enumerate()
                .map(|(i, (&(busy, barrier), &(last_busy, last_barrier)))| ShardBeat {
                    shard: i as u32,
                    busy_ns: busy.saturating_sub(last_busy),
                    barrier_ns: barrier.saturating_sub(last_barrier),
                })
                .collect()
        };
        let max_busy = shards.iter().map(|s| s.busy_ns).max().unwrap_or(0);
        let min_busy = shards.iter().map(|s| s.busy_ns).min().unwrap_or(0);
        let imbalance_pct = if shards.len() < 2 || max_busy == 0 {
            0.0
        } else {
            (max_busy - min_busy) as f64 / max_busy as f64 * 100.0
        };
        let health = SimHealth {
            cycle,
            wall_ns,
            interval_cycles,
            cycles_per_sec: interval_cycles as f64 * 1e9 / interval_ns as f64,
            router_steps: steps,
            active_routers_avg: if interval_cycles == 0 {
                0.0
            } else {
                steps as f64 / interval_cycles as f64
            },
            wake_depth,
            buffered_flits,
            shards,
            imbalance_pct,
        };
        if self.stream {
            eprintln!("{}", health.to_jsonl_line());
        }
        self.last_beat_ns = wall_ns;
        self.last_beat_cycle = cycle;
        self.last_beat_steps = router_steps_cum;
        self.last_shard_cum.clear();
        self.last_shard_cum.extend_from_slice(shard_cum);
        self.heartbeats.push(health);
    }

    /// Heartbeats sampled so far, oldest first.
    #[must_use]
    pub fn heartbeats(&self) -> &[SimHealth] {
        &self.heartbeats
    }

    /// Cumulative `(busy_ns, barrier_ns)` of this profiler's own track —
    /// what a shard reports for a heartbeat (a handful of integer adds,
    /// no allocation).
    #[must_use]
    pub fn own_busy_barrier_ns(&self) -> (u64, u64) {
        self.own.busy_barrier_ns()
    }

    /// Spans retained across all tracks (own + absorbed), unordered;
    /// exporters sort by `start_ns`.
    fn all_spans(&self) -> Vec<(u32, SpanRecord)> {
        let mut spans: Vec<(u32, SpanRecord)> = std::iter::once(&self.own)
            .chain(self.absorbed.iter())
            .flat_map(|t| t.ring.iter().map(move |r| (t.track, *r)))
            .collect();
        spans.sort_by_key(|(_, r)| r.start_ns);
        spans
    }

    /// Spans evicted from the rings across all tracks.
    #[must_use]
    pub fn dropped_spans(&self) -> u64 {
        std::iter::once(&self.own)
            .chain(self.absorbed.iter())
            .map(|t| t.ring.dropped())
            .sum()
    }

    /// Aggregates every track into a [`PhaseBreakdown`].
    #[must_use]
    pub fn breakdown(&self) -> PhaseBreakdown {
        let mut totals = [PhaseSlot::EMPTY; SpanKind::COUNT];
        let mut per_track = Vec::new();
        for t in std::iter::once(&self.own).chain(self.absorbed.iter()) {
            for (total, slot) in totals.iter_mut().zip(t.slots.iter()) {
                total.merge(slot);
            }
            let (busy, barrier) = t.busy_barrier_ns();
            per_track.push(TrackSummary { track: t.track, busy_ns: busy, barrier_ns: barrier });
        }
        per_track.sort_by_key(|t| t.track);
        PhaseBreakdown { totals, per_track, wall_ns: self.epoch.elapsed().as_nanos() as u64 }
    }

    /// Writes every retained span as JSONL, ordered by start time. The
    /// key set is pinned by `tests/telemetry_schema.rs`:
    ///
    /// ```json
    /// {"span":"router_step","track":"shard0","cycle":41,"start_ns":1200,"dur_ns":900}
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_spans_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for (track, r) in self.all_spans() {
            writeln!(
                out,
                "{{\"span\":\"{}\",\"track\":\"{}\",\"cycle\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                r.kind.name(),
                track_name(track),
                r.cycle,
                r.start_ns,
                r.dur_ns,
            )?;
        }
        Ok(())
    }

    /// Writes every heartbeat as JSONL, one line per heartbeat; the key set
    /// is pinned by `tests/telemetry_schema.rs`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_health_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for h in &self.heartbeats {
            writeln!(out, "{}", h.to_jsonl_line())?;
        }
        Ok(())
    }

    /// Writes the retained spans as a Chrome trace-event file (load in
    /// Perfetto / `chrome://tracing`): one `pid`, one `tid` per track
    /// with `thread_name` metadata, complete (`"ph":"X"`) events in
    /// microseconds, and heartbeats as counter (`"ph":"C"`) events.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_chrome_trace<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let mut tracks: Vec<u32> = std::iter::once(self.own.track)
            .chain(self.absorbed.iter().map(|t| t.track))
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        writeln!(out, "{{\"traceEvents\":[")?;
        let mut first = true;
        let mut emit = |out: &mut W, line: String| -> io::Result<()> {
            if first {
                first = false;
            } else {
                writeln!(out, ",")?;
            }
            write!(out, "{line}")?;
            Ok(())
        };
        emit(
            out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"vix engine\"}}"
                .to_string(),
        )?;
        for &track in &tracks {
            emit(
                out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    chrome_tid(track),
                    track_name(track),
                ),
            )?;
        }
        for (track, r) in self.all_spans() {
            emit(
                out,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
                     \"dur\":{:.3},\"args\":{{\"cycle\":{}}}}}",
                    r.kind.name(),
                    chrome_tid(track),
                    r.start_ns as f64 / 1e3,
                    r.dur_ns as f64 / 1e3,
                    r.cycle,
                ),
            )?;
        }
        for h in &self.heartbeats {
            let ts = h.wall_ns as f64 / 1e3;
            emit(
                out,
                format!(
                    "{{\"name\":\"cycles_per_sec\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{ts:.3},\
                     \"args\":{{\"value\":{:.1}}}}}",
                    h.cycles_per_sec,
                ),
            )?;
            emit(
                out,
                format!(
                    "{{\"name\":\"buffered_flits\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{ts:.3},\
                     \"args\":{{\"value\":{}}}}}",
                    h.buffered_flits,
                ),
            )?;
            emit(
                out,
                format!(
                    "{{\"name\":\"active_routers\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{ts:.3},\
                     \"args\":{{\"value\":{:.2}}}}}",
                    h.active_routers_avg,
                ),
            )?;
        }
        writeln!(out)?;
        writeln!(out, "]}}")?;
        Ok(())
    }
}

/// Chrome-trace thread id for a track: the engine track is tid 0,
/// shard `s` is tid `s + 1`.
fn chrome_tid(track: u32) -> u32 {
    if track == ENGINE_TRACK {
        0
    } else {
        track + 1
    }
}

/// Per-track busy/barrier summary inside a [`PhaseBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackSummary {
    /// Track id ([`ENGINE_TRACK`] or a shard index).
    pub track: u32,
    /// Total nanoseconds inside non-barrier spans.
    pub busy_ns: u64,
    /// Total nanoseconds inside barrier-wait spans.
    pub barrier_ns: u64,
}

/// End-of-run aggregation of all tracks: per-phase totals plus the
/// per-track busy/barrier split.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Per-phase slots summed over every track, indexed by
    /// `SpanKind as usize`.
    pub totals: [PhaseSlot; SpanKind::COUNT],
    /// Busy/barrier split per track, sorted by track id (the engine
    /// track sorts last).
    pub per_track: Vec<TrackSummary>,
    /// Wall-clock from the profiler epoch to the aggregation.
    pub wall_ns: u64,
}

impl PhaseBreakdown {
    /// Total nanoseconds across every phase and track.
    #[must_use]
    fn accounted_ns(&self) -> u64 {
        self.totals.iter().map(|s| s.total_ns).sum()
    }

    /// The human-readable end-of-run report `vixsim` prints.
    #[must_use]
    pub fn render(&self) -> String {
        let accounted = self.accounted_ns().max(1);
        let mut phases: Vec<(SpanKind, &PhaseSlot)> = SpanKind::ALL
            .iter()
            .map(|&k| (k, &self.totals[k as usize]))
            .filter(|(_, s)| s.count > 0)
            .collect();
        phases.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
        let mut out = String::from("phase breakdown (share of accounted span time):\n");
        for (kind, slot) in phases {
            out.push_str(&format!(
                "  {:<14} {:>5.1}%  total {:>9}  mean {:>9}  max {:>9}  n={}\n",
                kind.name(),
                slot.total_ns as f64 / accounted as f64 * 100.0,
                fmt_ns(slot.total_ns as f64),
                fmt_ns(slot.mean_ns()),
                fmt_ns(slot.max_ns as f64),
                slot.count,
            ));
        }
        if self.per_track.len() > 1 {
            out.push_str("  per-track busy/barrier:");
            for t in &self.per_track {
                let total = (t.busy_ns + t.barrier_ns).max(1);
                out.push_str(&format!(
                    " {} {:.0}%/{:.0}%",
                    track_name(t.track),
                    t.busy_ns as f64 / total as f64 * 100.0,
                    t.barrier_ns as f64 / total as f64 * 100.0,
                ));
            }
            out.push('\n');
        }
        out
    }

    /// The breakdown as one JSON object (phases with share-of-accounted
    /// percentages, per-track busy/barrier) — the form the bench
    /// harnesses embed in their BENCH json.
    #[must_use]
    pub fn to_json(&self) -> String {
        let accounted = self.accounted_ns().max(1);
        let mut out = String::from("{\"phases\": {");
        let mut first = true;
        for kind in SpanKind::ALL {
            let slot = &self.totals[kind as usize];
            if slot.count == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "\"{}\": {{\"pct\": {:.2}, \"total_ns\": {}, \"mean_ns\": {:.1}, \
                 \"max_ns\": {}, \"count\": {}}}",
                kind.name(),
                slot.total_ns as f64 / accounted as f64 * 100.0,
                slot.total_ns,
                slot.mean_ns(),
                slot.max_ns,
                slot.count,
            ));
        }
        out.push_str("}, \"tracks\": [");
        for (i, t) in self.per_track.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"track\": \"{}\", \"busy_ns\": {}, \"barrier_ns\": {}}}",
                track_name(t.track),
                t.busy_ns,
                t.barrier_ns,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_chains_and_accumulates() {
        let mut p = Profiler::new(ENGINE_TRACK, 16, 0, false);
        let mut t = p.start();
        for cycle in 0..4 {
            t = p.lap(SpanKind::TrafficGen, cycle, t);
            t = p.lap(SpanKind::RouterStep, cycle, t);
        }
        let b = p.breakdown();
        assert_eq!(b.totals[SpanKind::TrafficGen as usize].count, 4);
        assert_eq!(b.totals[SpanKind::RouterStep as usize].count, 4);
        assert_eq!(p.own.ring.len(), 8);
        assert_eq!(p.dropped_spans(), 0);
    }

    #[test]
    fn disabled_token_records_nothing() {
        let mut p = Profiler::new(ENGINE_TRACK, 16, 0, false);
        let t = p.lap(SpanKind::Deliver, 0, SpanStart::DISABLED);
        assert!(t.0.is_none(), "a disabled token must stay disabled through laps");
        assert_eq!(p.breakdown().accounted_ns(), 0);
    }

    #[test]
    fn span_ring_overwrites_oldest_once_full() {
        let mut ring = SpanRing::new(3);
        for i in 0..5u64 {
            ring.push(SpanRecord {
                kind: SpanKind::Deliver,
                cycle: i,
                start_ns: i * 10,
                dur_ns: 1,
            });
        }
        let cycles: Vec<u64> = ring.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, [2, 3, 4], "oldest spans evicted first");
        assert_eq!(ring.dropped(), 2);
        assert!(!ring.is_empty());
    }

    #[test]
    fn phase_slot_buckets_are_log2() {
        let mut slot = PhaseSlot::EMPTY;
        slot.record(0); // bucket 0
        slot.record(1); // bucket 0
        slot.record(2); // bucket 1
        slot.record(1023); // bucket 9
        slot.record(u64::MAX); // clamped to the last bucket
        assert_eq!(slot.buckets[0], 2);
        assert_eq!(slot.buckets[1], 1);
        assert_eq!(slot.buckets[9], 1);
        assert_eq!(slot.buckets[NS_BUCKETS - 1], 1);
        assert_eq!(slot.count, 5);
        assert_eq!(slot.max_ns, u64::MAX);
    }

    #[test]
    fn absorb_merges_tracks_and_heartbeats() {
        let mut coord = Profiler::new(ENGINE_TRACK, 16, 0, false);
        let mut w0 = Profiler::for_shard(0, coord.epoch(), 16, 0, false);
        let mut w1 = Profiler::for_shard(1, coord.epoch(), 16, 0, false);
        let t = w0.start();
        w0.lap(SpanKind::RouterStep, 7, t);
        let t = w1.start();
        w1.lap(SpanKind::BarrierWait, 7, t);
        coord.absorb(w0);
        coord.absorb(w1);
        let b = coord.breakdown();
        assert_eq!(b.per_track.len(), 3);
        assert_eq!(b.per_track[0].track, 0);
        assert_eq!(b.per_track[2].track, ENGINE_TRACK, "engine track sorts last");
        assert_eq!(b.totals[SpanKind::RouterStep as usize].count, 1);
        assert!(b.per_track[1].barrier_ns > 0);
    }

    #[test]
    fn mirrored_shards_keep_one_track_each_and_every_span_once() {
        let mut engine = Profiler::new(ENGINE_TRACK, 16, 0, false);
        let mut shard = Profiler::for_shard(0, engine.epoch(), 4, 0, false);
        for round in 0..3 {
            for cycle in 0..3 {
                let t = shard.start();
                shard.lap(SpanKind::RouterStep, round * 3 + cycle, t);
            }
            engine.mirror(0, &mut shard);
        }
        let b = engine.breakdown();
        assert_eq!(b.per_track.len(), 2, "one mirror track, however often it syncs");
        assert_eq!(b.totals[SpanKind::RouterStep as usize].count, 9);
        let mut out = Vec::new();
        engine.write_spans_jsonl(&mut out).unwrap();
        assert_eq!(out.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count(), 4, "the latest spans");
        assert_eq!(engine.dropped_spans(), 5);
        assert_eq!(shard.own_busy_barrier_ns(), (b.per_track[0].busy_ns, b.per_track[0].barrier_ns));
    }

    #[test]
    fn a_mirrored_track_keeps_one_full_ring() {
        const CAP: usize = 64;
        let mut engine = Profiler::new(ENGINE_TRACK, 16, 0, false);
        let mut shard = Profiler::for_shard(0, engine.epoch(), CAP, 0, false);
        let lap = |shard: &mut Profiler, cycles: std::ops::Range<u64>| {
            for cycle in cycles {
                let t = shard.start();
                shard.lap(SpanKind::RouterStep, cycle, t);
            }
        };
        lap(&mut shard, 0..100);
        engine.mirror(0, &mut shard);
        let retained = |p: &Profiler| p.own.ring.buf.capacity();
        assert_eq!(engine.absorbed[0].ring.buf.capacity(), CAP, "the copy adopts the shard's ring");
        assert_eq!(retained(&shard), 0, "the shard keeps no second full ring");
        for round in 1..4 {
            lap(&mut shard, round * 100..round * 100 + 5);
            engine.mirror(0, &mut shard);
            assert!(retained(&shard) < CAP, "the shard's ring grows only to one interval's spans");
        }
        assert_eq!(engine.absorbed[0].ring.len(), CAP);
        assert_eq!(engine.dropped_spans(), 115 - CAP as u64);
        let last: Vec<u64> = engine.absorbed[0].ring.iter().map(|r| r.cycle).skip(CAP - 5).collect();
        assert_eq!(last, [300, 301, 302, 303, 304], "oldest first, newest last");
    }

    #[test]
    fn heartbeat_intervals_are_deltas() {
        let mut p = Profiler::new(ENGINE_TRACK, 16, 100, false);
        p.heartbeat(100, 1_000, 5, 42, &[]);
        p.heartbeat(200, 1_800, 6, 40, &[]);
        let beats = p.heartbeats();
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[1].interval_cycles, 100);
        assert_eq!(beats[1].router_steps, 800);
        assert_eq!(beats[1].active_routers_avg, 8.0);
        assert_eq!(beats[1].shards.len(), 1, "serial engine gets one synthetic shard beat");
        assert_eq!(beats[1].imbalance_pct, 0.0);
    }

    #[test]
    fn heartbeat_imbalance_uses_interval_busy_deltas() {
        let mut p = Profiler::new(ENGINE_TRACK, 16, 100, false);
        p.heartbeat(100, 0, 0, 0, &[(1_000, 100), (1_000, 100)]);
        // Interval deltas: shard0 +1000, shard1 +3000 → 66.7% imbalance.
        p.heartbeat(200, 0, 0, 0, &[(2_000, 200), (4_000, 150)]);
        let h = &p.heartbeats()[1];
        assert_eq!(h.shards[0].busy_ns, 1_000);
        assert_eq!(h.shards[1].busy_ns, 3_000);
        assert!((h.imbalance_pct - 200.0 / 3.0).abs() < 1e-6);
        assert!((h.shards[0].busy_ratio() - 1_000.0 / 1_100.0).abs() < 1e-9);
    }

    #[test]
    fn exports_are_well_formed() {
        let mut p = Profiler::new(ENGINE_TRACK, 16, 10, false);
        let t = p.start();
        let t = p.lap(SpanKind::TrafficGen, 3, t);
        p.lap(SpanKind::RouterStep, 3, t);
        p.heartbeat(10, 64, 2, 7, &[]);
        let mut spans = Vec::new();
        p.write_spans_jsonl(&mut spans).unwrap();
        let spans = String::from_utf8(spans).unwrap();
        assert_eq!(spans.lines().count(), 2);
        assert!(spans.contains("\"span\":\"traffic_gen\""));
        assert!(spans.contains("\"track\":\"engine\""));

        let mut health = Vec::new();
        p.write_health_jsonl(&mut health).unwrap();
        let health = String::from_utf8(health).unwrap();
        assert_eq!(health.lines().count(), 1);
        assert!(health.contains("\"buffered_flits\":7"));

        let mut chrome = Vec::new();
        p.write_chrome_trace(&mut chrome).unwrap();
        let chrome = String::from_utf8(chrome).unwrap();
        let doc = crate::json::parse(&chrome).expect("chrome trace parses as JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 1 process_name + 1 thread_name + 2 spans + 3 heartbeat counters.
        assert_eq!(events.len(), 7);
    }

    #[test]
    fn breakdown_render_and_json_cover_recorded_phases() {
        let mut p = Profiler::new(ENGINE_TRACK, 16, 0, false);
        let t = p.start();
        p.lap(SpanKind::Deliver, 0, t);
        let b = p.breakdown();
        let text = b.render();
        assert!(text.contains("deliver"));
        let json = crate::json::parse(&b.to_json()).expect("breakdown json parses");
        assert!(json.get("phases").and_then(|p| p.get("deliver")).is_some());
    }
}
