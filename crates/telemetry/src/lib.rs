//! Observability for the VIX network-on-chip simulator.
//!
//! The simulator's steady-state hot path is allocation-free and
//! bit-reproducible, so observability has to be *opt-in and free when
//! off*. This crate provides five pieces, all designed around that
//! constraint:
//!
//! * [`trace`] — a flit-lifecycle event tracer. Eight event kinds
//!   ([`TraceEventKind`]) cover a flit's life from injection to ejection
//!   (plus the credit round-trip); events land in a preallocated
//!   [`TraceRing`] and export to JSONL or to the Chrome trace-event JSON
//!   format, which opens directly in Perfetto / `chrome://tracing`.
//! * [`metrics`] — a [`MetricsRegistry`] of counters, gauges and
//!   fixed-bucket histograms. Names are resolved to dense integer IDs at
//!   registration time; the hot-path operation is an array index and an
//!   add.
//! * [`matching`] — [`MatchingStats`], the per-allocator
//!   matching-efficiency instrumentation behind the paper's §4 metric:
//!   requests offered, requests surviving input arbitration, grants
//!   issued, and the per-cycle matching upper bound.
//! * [`log`] — a tiny leveled logger (`VIX_LOG=warn|info|debug`) so
//!   benches and CI runs are quiet by default.
//! * [`prof`] — engine self-profiling: monotonic-clock phase spans
//!   ([`Profiler`], exported as per-shard Perfetto flame tracks) and
//!   periodic [`SimHealth`] heartbeats (cycles/sec, active routers,
//!   wake-calendar depth, VC-slab occupancy, per-shard busy/barrier
//!   split). The simulator samples a heartbeat where it merges a cycle's
//!   records, from gauges every shard hands over with them, so its
//!   simulation columns do not depend on the shard count. Profiling
//!   observes only the host clock — never simulation state — so it
//!   cannot perturb results.
//!
//! Everything funnels through a [`TelemetrySink`]: the simulator owns one
//! sink, built from [`vix_core::config::TelemetrySettings`], and threads
//! `&mut` references down through the router pipeline. A disabled sink
//! ([`TelemetrySink::disabled`]) never allocates and reduces every
//! recording call to a single predictable branch, which is what keeps the
//! `tests/zero_alloc.rs` gates, the determinism goldens and the
//! activity-gating parity suite intact.
//!
//! # Example
//!
//! ```
//! use vix_telemetry::{TelemetrySink, TraceEvent, TraceEventKind};
//! use vix_core::config::TelemetrySettings;
//! use vix_core::Cycle;
//!
//! let mut sink = TelemetrySink::new(TelemetrySettings::enabled());
//! if sink.tracing() {
//!     sink.trace(TraceEvent { router: 3, ..TraceEvent::at(Cycle(7), TraceEventKind::Inject) });
//! }
//! let mut out = Vec::new();
//! sink.trace_ring().write_jsonl(&mut out).unwrap();
//! assert!(String::from_utf8(out).unwrap().contains("\"Inject\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod log;
pub mod matching;
pub mod metrics;
pub mod prof;
pub mod sink;
pub mod trace;

pub use log::LogLevel;
pub use matching::{MatchingStats, MatchingSummary};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use prof::{
    PhaseBreakdown, Profiler, ShardBeat, SimHealth, SpanKind, SpanRecord, SpanStart, ENGINE_TRACK,
};
pub use sink::{TelemetrySink, WellKnownMetrics};
pub use trace::{TraceEvent, TraceEventKind, TraceRing, NO_FLIT, NO_ID, NO_PACKET};
