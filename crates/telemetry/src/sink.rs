//! The [`TelemetrySink`] — the single handle the simulator threads
//! through the router pipeline.
//!
//! # Sink contract
//!
//! * The simulator owns exactly one sink, built from
//!   [`TelemetrySettings`] at network-construction time; routers and the
//!   scheduler receive `&mut TelemetrySink` per step.
//! * Each slice of the simulated network records into its own
//!   [`for_shard`](TelemetrySink::for_shard) sink; the run's sink takes
//!   in their trace events every cycle, in serial order, and
//!   [`absorb`](TelemetrySink::absorb)s the rest when a stepping call
//!   returns (DESIGN.md §7).
//! * Every recording method is a no-op behind a single branch when its
//!   facility is off. A fully disabled sink ([`TelemetrySink::disabled`])
//!   never allocates — its trace ring has zero capacity and its registry
//!   is empty — so handing it through the hot path preserves the
//!   zero-allocation and determinism guarantees.
//! * Hot call sites hand [`trace`](TelemetrySink::trace) an event built by
//!   a plain constructor, which the inlined check discards unbuilt; only a
//!   payload that needs a lookup (one that may panic, so it cannot be
//!   sunk) is guarded behind [`tracing`](TelemetrySink::tracing) itself.
//!
//! # Overhead budget
//!
//! Disabled: one predictable branch per would-be record; no allocation,
//! no stores. Enabled tracing: one bounds-checked store into a
//! preallocated ring per event. Enabled metrics: one array index + add
//! per counter/gauge/histogram touch. Nothing in this crate takes a lock
//! or performs I/O until an exporter is invoked after the run.

use crate::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use crate::prof::{Profiler, SpanKind, SpanStart, ENGINE_TRACK};
use crate::trace::{TraceEvent, TraceRing};
use vix_core::config::TelemetrySettings;

/// Handles to the metrics every simulation registers up front, so hot
/// paths never look anything up by name.
#[derive(Debug, Clone, Copy, Default)]
pub struct WellKnownMetrics {
    /// Cycles a packet's head flit lost VC allocation (no free VC).
    pub stall_va_no_free_vc: CounterId,
    /// Switch requests that did not receive a grant this cycle.
    pub stall_sa_no_grant: CounterId,
    /// Grants dropped because their speculative VC allocation failed.
    pub stall_sa_spec_dropped: CounterId,
    /// Grants dropped for lack of downstream credit.
    pub stall_sa_no_credit: CounterId,
    /// Active-router set size per gated-scheduler cycle.
    pub sched_active_routers: GaugeId,
    /// Deliveries (flits and credits) due per gated-scheduler cycle: the
    /// timing-wheel entries the cycle drains.
    pub sched_wake_events: GaugeId,
}

/// The funnel for all telemetry of one simulation run.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    tracing: bool,
    metrics: bool,
    ring: TraceRing,
    registry: MetricsRegistry,
    /// Engine self-profiler; `None` (no allocation, one branch per
    /// hook) unless `settings.profiling` asked for it.
    prof: Option<Box<Profiler>>,
    /// Pre-registered metric handles (all zero when metrics are off —
    /// every recording method is guarded, so the dummy IDs are inert).
    pub ids: WellKnownMetrics,
}

impl TelemetrySink {
    /// Builds a sink according to `settings`.
    #[must_use]
    pub fn new(settings: TelemetrySettings) -> Self {
        let ring = if settings.tracing {
            TraceRing::with_capacity(settings.trace_capacity)
        } else {
            TraceRing::disabled()
        };
        let mut registry = MetricsRegistry::new();
        let ids = if settings.metrics {
            WellKnownMetrics {
                stall_va_no_free_vc: registry.register_counter("stall.va_no_free_vc"),
                stall_sa_no_grant: registry.register_counter("stall.sa_no_grant"),
                stall_sa_spec_dropped: registry.register_counter("stall.sa_spec_dropped"),
                stall_sa_no_credit: registry.register_counter("stall.sa_no_credit"),
                sched_active_routers: registry.register_gauge("sched.active_routers"),
                sched_wake_events: registry.register_gauge("sched.wake_events"),
            }
        } else {
            WellKnownMetrics::default()
        };
        let prof = settings.profiling.then(|| {
            Box::new(Profiler::new(
                ENGINE_TRACK,
                TelemetrySettings::DEFAULT_SPAN_CAPACITY,
                settings.heartbeat_every,
                settings.heartbeat_stream,
            ))
        });
        TelemetrySink {
            tracing: settings.tracing,
            metrics: settings.metrics,
            ring,
            registry,
            prof,
            ids,
        }
    }

    /// The default sink: everything off, nothing allocated.
    #[must_use]
    pub fn disabled() -> Self {
        TelemetrySink {
            tracing: false,
            metrics: false,
            ring: TraceRing::disabled(),
            registry: MetricsRegistry::new(),
            prof: None,
            ids: WellKnownMetrics::default(),
        }
    }

    /// The sink for shard `shard` of this sink's simulation. It records
    /// what this sink records: trace events into an unbounded ring the
    /// shard empties every cycle ([`take_trace`](TelemetrySink::take_trace)),
    /// metrics into a [`zeroed`](MetricsRegistry::zeroed) registry copy,
    /// spans on a shard track of this sink's profiler epoch, whose
    /// heartbeat interval it shares (the run's sink samples the beats).
    #[must_use]
    pub fn for_shard(&self, shard: u32, span_capacity: usize) -> Self {
        let prof = self.prof.as_ref().map(|p| {
            Box::new(Profiler::for_shard(shard, p.epoch(), span_capacity, p.beat_every(), false))
        });
        let ring = if self.tracing { TraceRing::unbounded() } else { TraceRing::disabled() };
        TelemetrySink {
            tracing: self.tracing,
            metrics: self.metrics,
            ring,
            registry: self.registry.zeroed(),
            prof,
            ids: self.ids,
        }
    }

    /// Takes in what `shard`, the [`for_shard`](TelemetrySink::for_shard)
    /// sink of shard `index`, recorded since the last call: its counters
    /// and histograms as sums (leaving its own zero), and its profiler
    /// track as this profiler's copy of it ([`Profiler::mirror`]). Its
    /// trace events and gauge counts travel per cycle instead.
    pub fn absorb(&mut self, index: usize, shard: &mut TelemetrySink) {
        self.registry.absorb(&mut shard.registry);
        if let (Some(p), Some(engine)) = (shard.prof.as_deref_mut(), self.prof.as_deref_mut()) {
            engine.mirror(index, p);
        }
    }

    /// Moves the trace events recorded since the last call, oldest first,
    /// onto the end of `out`.
    pub fn take_trace(&mut self, out: &mut Vec<TraceEvent>) {
        self.ring.take_into(out);
    }

    /// True when flit-lifecycle tracing is on. Guard an event payload that
    /// needs a lookup behind this; [`trace`](TelemetrySink::trace) checks.
    #[inline]
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// True when the metrics registry is live.
    #[inline]
    #[must_use]
    pub fn metrics_enabled(&self) -> bool {
        self.metrics
    }

    /// Records a trace event (dropped silently when tracing is off).
    #[inline]
    pub fn trace(&mut self, ev: TraceEvent) {
        if self.tracing {
            self.ring.push(ev);
        }
    }

    /// Adds `n` to a counter (no-op when metrics are off).
    #[inline]
    pub fn count(&mut self, id: CounterId, n: u64) {
        if self.metrics && n > 0 {
            self.registry.add(id, n);
        }
    }

    /// Records a gauge sample (no-op when metrics are off).
    #[inline]
    pub fn gauge(&mut self, id: GaugeId, value: u64) {
        if self.metrics {
            self.registry.set(id, value);
        }
    }

    /// Records a histogram sample (no-op when metrics are off).
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        if self.metrics {
            self.registry.observe(id, value);
        }
    }

    /// Registers an extra histogram (e.g. one per router). Returns
    /// `None` when metrics are off; pair it with an
    /// [`observe`](TelemetrySink::observe) guarded on the same
    /// condition.
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) -> Option<HistogramId> {
        if self.metrics {
            Some(self.registry.register_histogram(name, bounds))
        } else {
            None
        }
    }

    /// True when the engine self-profiler is live.
    #[inline]
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.prof.is_some()
    }

    /// Starts a profiling span chain: the returned token is the first
    /// phase's start. [`SpanStart::DISABLED`] (no clock read) when
    /// profiling is off.
    #[inline]
    #[must_use]
    pub fn span_start(&self) -> SpanStart {
        match &self.prof {
            Some(p) => p.start(),
            None => SpanStart::DISABLED,
        }
    }

    /// Closes the span begun at `from` as `kind` for `cycle` and starts
    /// the next one at the same instant. One branch, no clock read,
    /// when profiling is off.
    #[inline]
    pub fn span_lap(&mut self, kind: SpanKind, cycle: u64, from: SpanStart) -> SpanStart {
        match &mut self.prof {
            Some(p) => p.lap(kind, cycle, from),
            None => SpanStart::DISABLED,
        }
    }

    /// The engine self-profiler, when enabled.
    #[must_use]
    pub fn profiler(&self) -> Option<&Profiler> {
        self.prof.as_deref()
    }

    /// Mutable access to the engine self-profiler, when enabled
    /// (heartbeat sampling, absorbing worker profilers).
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.prof.as_deref_mut()
    }

    /// Consumes the sink and hands back its profiler — for aggregating
    /// phase breakdowns across a sweep's independent simulations.
    #[must_use]
    pub fn into_profiler(self) -> Option<Box<Profiler>> {
        self.prof
    }

    /// The recorded trace, for the exporters.
    #[must_use]
    pub fn trace_ring(&self) -> &TraceRing {
        &self.ring
    }

    /// The metrics registry, for export and assertions.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl Default for TelemetrySink {
    fn default() -> Self {
        TelemetrySink::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEventKind;
    use vix_core::Cycle;

    #[test]
    fn disabled_sink_swallows_everything() {
        let mut sink = TelemetrySink::disabled();
        assert!(!sink.tracing());
        assert!(!sink.metrics_enabled());
        sink.trace(TraceEvent::at(Cycle(0), TraceEventKind::Inject));
        sink.count(sink.ids.stall_sa_no_grant, 5);
        sink.gauge(sink.ids.sched_active_routers, 5);
        assert!(sink.trace_ring().is_empty());
        assert!(sink.registry().is_empty());
        assert!(sink.register_histogram("h", &[1]).is_none());
    }

    #[test]
    fn enabled_sink_records_events_and_metrics() {
        let settings = TelemetrySettings::enabled().with_trace_capacity(16);
        let mut sink = TelemetrySink::new(settings);
        assert!(sink.tracing() && sink.metrics_enabled());
        sink.trace(TraceEvent::at(Cycle(3), TraceEventKind::SaGrant));
        sink.count(sink.ids.stall_sa_no_credit, 2);
        let h = sink.register_histogram("router0.vc_occupancy", &[0, 2, 4]).unwrap();
        sink.observe(h, 3);
        assert_eq!(sink.trace_ring().len(), 1);
        assert_eq!(sink.registry().counter("stall.sa_no_credit"), Some(2));
        assert_eq!(sink.registry().histogram("router0.vc_occupancy").unwrap().1, 1);
    }

    #[test]
    fn profiling_sink_laps_and_disabled_sink_does_not() {
        let mut off = TelemetrySink::disabled();
        assert!(!off.profiling());
        let t = off.span_start();
        let t = off.span_lap(SpanKind::RouterStep, 0, t);
        assert!(t.0.is_none(), "disabled sink must never take the clock");
        assert!(off.profiler().is_none());

        let mut on = TelemetrySink::new(TelemetrySettings::disabled().with_profiling(true));
        assert!(on.profiling() && !on.tracing() && !on.metrics_enabled());
        let t = on.span_start();
        on.span_lap(SpanKind::RouterStep, 0, t);
        let b = on.profiler().unwrap().breakdown();
        assert_eq!(b.totals[SpanKind::RouterStep as usize].count, 1);
    }

    #[test]
    fn shard_sinks_record_and_the_run_sink_absorbs_their_sums() {
        let mut run = TelemetrySink::new(TelemetrySettings::enabled().with_trace_capacity(4));
        run.count(run.ids.stall_sa_no_grant, 1);
        let mut shard = run.for_shard(1, 16);
        assert!(shard.tracing() && shard.metrics_enabled());
        for c in 0..6 {
            shard.trace(TraceEvent::at(Cycle(c), TraceEventKind::Eject));
        }
        shard.count(shard.ids.stall_sa_no_grant, 2);
        let mut events = Vec::new();
        shard.take_trace(&mut events);
        assert_eq!(events.len(), 6, "a shard's ring never wraps");
        run.absorb(0, &mut shard);
        run.absorb(0, &mut shard);
        assert_eq!(run.registry().counter("stall.sa_no_grant"), Some(3), "each count absorbed once");
        assert!(run.trace_ring().is_empty(), "trace events travel per cycle, not by absorb");
    }

    #[test]
    fn counting_zero_is_free_even_when_enabled() {
        let mut sink = TelemetrySink::new(TelemetrySettings::enabled());
        sink.count(sink.ids.stall_sa_no_grant, 0);
        assert_eq!(sink.registry().counter("stall.sa_no_grant"), Some(0));
    }
}
