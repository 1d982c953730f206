//! Flit-lifecycle trace events, the preallocated ring they land in, and
//! the JSONL / Chrome trace-event exporters.
//!
//! # Event taxonomy and JSONL schema
//!
//! Every event carries `cycle` and `event` (the kind name). The remaining
//! keys are kind-specific; a field equal to the [`NO_ID`] / [`NO_PACKET`]
//! / [`NO_FLIT`] sentinel is omitted from the JSONL line entirely:
//!
//! | `event`           | required keys beyond `cycle`/`event`                        |
//! |-------------------|-------------------------------------------------------------|
//! | `Inject`          | `router`, `port`, `vc`, `packet`, `flit`                    |
//! | `VcAlloc`         | `router`, `port`, `vc`, `out_port`, `out_vc`, `packet`      |
//! | `SaRequest`       | `router`, `port`, `vc`, `out_port`, `packet`, `speculative` |
//! | `SaGrant`         | `router`, `port`, `vc`, `out_port`, `packet`                |
//! | `SwitchTraversal` | `router`, `port`, `vc`, `out_port`, `packet`, `flit`        |
//! | `LinkTraversal`   | `router`, `port`, `vc`, `packet`, `flit`                    |
//! | `Eject`           | `router`, `port`, `vc`, `packet`, `flit`                    |
//! | `CreditReturn`    | `router`, `port`, `vc`                                      |
//!
//! `port`/`vc` are always the *input* side of the named router except for
//! `LinkTraversal`, where `port` is the output port the flit left through
//! and `vc` the downstream VC it was stamped with. The schema is pinned
//! by `tests/telemetry_schema.rs`.
//!
//! # Chrome trace-event export
//!
//! [`TraceRing::write_chrome_trace`] maps each event to an instant event
//! (`"ph":"i"`) with `ts` = cycle, `pid` = router and `tid` = input port,
//! plus one `process_name` metadata record per router. Because events are
//! recorded in simulation order, `ts` is non-decreasing on every
//! `(pid, tid)` track, which is what Perfetto and `chrome://tracing`
//! expect of an unsorted trace.

use crate::json::escape;
use std::io::{self, Write};
use vix_core::Cycle;

/// Sentinel for "`u32` field not applicable to this event kind".
pub const NO_ID: u32 = u32::MAX;
/// Sentinel for "no packet attached to this event".
pub const NO_PACKET: u64 = u64::MAX;
/// Sentinel for "no flit index attached to this event".
pub const NO_FLIT: u32 = u32::MAX;

/// The eight stations of a flit's life cycle (plus the credit
/// round-trip) that the tracer records.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// A source handed the flit to its local injection link.
    Inject,
    /// A packet's head flit won VC allocation at a router.
    VcAlloc,
    /// An input VC posted a switch-allocation request.
    SaRequest,
    /// The switch allocator granted a crossbar connection.
    SaGrant,
    /// A flit actually crossed the crossbar (a grant can still be
    /// dropped for failed speculation or missing credit).
    SwitchTraversal,
    /// A flit left the router on an output link.
    LinkTraversal,
    /// A flit reached its destination's ejection port.
    Eject,
    /// A credit arrived back at the upstream router.
    CreditReturn,
}

impl TraceEventKind {
    /// All kinds, in pipeline order.
    pub const ALL: [TraceEventKind; 8] = [
        TraceEventKind::Inject,
        TraceEventKind::VcAlloc,
        TraceEventKind::SaRequest,
        TraceEventKind::SaGrant,
        TraceEventKind::SwitchTraversal,
        TraceEventKind::LinkTraversal,
        TraceEventKind::Eject,
        TraceEventKind::CreditReturn,
    ];

    /// The kind's name as emitted in the `event` key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Inject => "Inject",
            TraceEventKind::VcAlloc => "VcAlloc",
            TraceEventKind::SaRequest => "SaRequest",
            TraceEventKind::SaGrant => "SaGrant",
            TraceEventKind::SwitchTraversal => "SwitchTraversal",
            TraceEventKind::LinkTraversal => "LinkTraversal",
            TraceEventKind::Eject => "Eject",
            TraceEventKind::CreditReturn => "CreditReturn",
        }
    }
}

/// One recorded event. Fixed-size and `Copy` so the ring buffer is a
/// flat preallocated array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle the event happened in.
    pub cycle: Cycle,
    /// What happened.
    pub kind: TraceEventKind,
    /// Router (for [`Inject`](TraceEventKind::Inject): the source node's
    /// router) the event happened at.
    pub router: u32,
    /// Input port — except [`LinkTraversal`](TraceEventKind::LinkTraversal),
    /// where it is the output port the flit departed through.
    pub port: u32,
    /// Virtual channel of the event (downstream VC for `LinkTraversal`).
    pub vc: u32,
    /// Requested / granted output port, when the kind has one.
    pub out_port: u32,
    /// Owning packet id, or [`NO_PACKET`].
    pub packet: u64,
    /// Flit index within the packet, or [`NO_FLIT`].
    pub flit: u32,
    /// Kind-specific payload: the granted downstream VC for `VcAlloc`,
    /// 1 for a speculative `SaRequest`; otherwise [`NO_ID`].
    pub extra: u32,
}

impl TraceEvent {
    /// A blank event of `kind` at `cycle`, every other field set to its
    /// sentinel. Call sites fill in the relevant fields with struct
    /// update syntax.
    #[inline]
    #[must_use]
    pub fn at(cycle: Cycle, kind: TraceEventKind) -> Self {
        TraceEvent {
            cycle,
            kind,
            router: NO_ID,
            port: NO_ID,
            vc: NO_ID,
            out_port: NO_ID,
            packet: NO_PACKET,
            flit: NO_FLIT,
            extra: NO_ID,
        }
    }
}

/// A preallocated ring of [`TraceEvent`]s.
///
/// The ring never grows (unless [`unbounded`](TraceRing::unbounded)): once
/// `capacity` events are held, each new event overwrites the oldest and
/// bumps [`dropped`](TraceRing::dropped).
/// Iteration order is always chronological (oldest surviving event
/// first), so exports stay sorted even after wrap-around.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    start: usize,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events. The full backing store
    /// is reserved up front; recording never allocates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing { buf: Vec::with_capacity(capacity), cap: capacity, start: 0, dropped: 0 }
    }

    /// A zero-capacity ring: every push is dropped without touching the
    /// heap. This is the ring inside [`TelemetrySink::disabled`].
    ///
    /// [`TelemetrySink::disabled`]: crate::TelemetrySink::disabled
    #[must_use]
    pub fn disabled() -> Self {
        TraceRing::with_capacity(0)
    }

    /// A ring that grows instead of wrapping, emptied by
    /// [`take_into`](TraceRing::take_into): a shard's per-cycle buffer.
    #[must_use]
    pub fn unbounded() -> Self {
        TraceRing { buf: Vec::new(), cap: usize::MAX, start: 0, dropped: 0 }
    }

    /// Moves the retained events, oldest first, onto the end of `out` and
    /// leaves the ring empty, its storage kept.
    pub fn take_into(&mut self, out: &mut Vec<TraceEvent>) {
        self.buf.rotate_left(self.start);
        self.start = 0;
        out.append(&mut self.buf);
    }

    /// Records an event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events the ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events lost to wrap-around (or to a zero-capacity ring).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chronological iterator over the retained events.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }

    /// Writes the retained events as JSON Lines — one self-contained JSON
    /// object per line, per the schema in the [module docs](self).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for ev in self.iter() {
            write_jsonl_event(w, ev)?;
            writeln!(w)?;
        }
        Ok(())
    }

    /// Writes the retained events as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...]}`) that opens directly in Perfetto or
    /// `chrome://tracing`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(w, "{{\"traceEvents\":[")?;
        let mut first = true;
        // One process_name metadata record per router seen, so Perfetto
        // labels the tracks. Routers are small dense ids; collect them
        // with a bitset-ish sorted vec (export path, allocation is fine).
        let mut routers: Vec<u32> = self.iter().map(|e| e.router).filter(|&r| r != NO_ID).collect();
        routers.sort_unstable();
        routers.dedup();
        for r in routers {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":0,\
                 \"args\":{{\"name\":\"router {r}\"}}}}"
            )?;
        }
        for ev in self.iter() {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write_chrome_event(w, ev)?;
        }
        writeln!(w, "]}}")?;
        Ok(())
    }
}

fn write_jsonl_event<W: Write>(w: &mut W, ev: &TraceEvent) -> io::Result<()> {
    write!(w, "{{\"cycle\":{},\"event\":\"{}\"", ev.cycle.0, ev.kind.name())?;
    for (key, value) in
        [("router", ev.router), ("port", ev.port), ("vc", ev.vc), ("out_port", ev.out_port)]
    {
        if value != NO_ID {
            write!(w, ",\"{key}\":{value}")?;
        }
    }
    if ev.packet != NO_PACKET {
        write!(w, ",\"packet\":{}", ev.packet)?;
    }
    if ev.flit != NO_FLIT {
        write!(w, ",\"flit\":{}", ev.flit)?;
    }
    if ev.extra != NO_ID {
        match ev.kind {
            TraceEventKind::VcAlloc => write!(w, ",\"out_vc\":{}", ev.extra)?,
            TraceEventKind::SaRequest => {
                write!(w, ",\"speculative\":{}", if ev.extra != 0 { "true" } else { "false" })?;
            }
            _ => write!(w, ",\"extra\":{}", ev.extra)?,
        }
    }
    write!(w, "}}")
}

fn write_chrome_event<W: Write>(w: &mut W, ev: &TraceEvent) -> io::Result<()> {
    let pid = if ev.router == NO_ID { 0 } else { ev.router };
    let tid = if ev.port == NO_ID { 0 } else { ev.port };
    write!(
        w,
        "{{\"name\":\"{}\",\"cat\":\"vix\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{",
        escape(ev.kind.name()),
        ev.cycle.0
    )?;
    let mut first = true;
    let mut arg = |w: &mut W, key: &str, value: u64| -> io::Result<()> {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        write!(w, "\"{key}\":{value}")
    };
    if ev.vc != NO_ID {
        arg(w, "vc", u64::from(ev.vc))?;
    }
    if ev.out_port != NO_ID {
        arg(w, "out_port", u64::from(ev.out_port))?;
    }
    if ev.packet != NO_PACKET {
        arg(w, "packet", ev.packet)?;
    }
    if ev.flit != NO_FLIT {
        arg(w, "flit", u64::from(ev.flit))?;
    }
    if ev.extra != NO_ID {
        arg(w, "extra", u64::from(ev.extra))?;
    }
    write!(w, "}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(cycle: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { router: 1, port: 2, vc: 3, ..TraceEvent::at(Cycle(cycle), kind) }
    }

    #[test]
    fn ring_retains_in_order() {
        let mut ring = TraceRing::with_capacity(8);
        for c in 0..5 {
            ring.push(ev(c, TraceEventKind::Inject));
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 0);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle.0).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_wraps_dropping_oldest() {
        let mut ring = TraceRing::with_capacity(4);
        for c in 0..10 {
            ring.push(ev(c, TraceEventKind::Eject));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle.0).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn take_into_moves_events_oldest_first_and_empties_the_ring() {
        let mut out = Vec::new();
        let mut wrapped = TraceRing::with_capacity(3);
        for c in 0..5 {
            wrapped.push(ev(c, TraceEventKind::Eject));
        }
        wrapped.take_into(&mut out);
        let mut grown = TraceRing::unbounded();
        for c in 5..9 {
            grown.push(ev(c, TraceEventKind::Eject));
        }
        grown.take_into(&mut out);
        assert_eq!(out.iter().map(|e| e.cycle.0).collect::<Vec<_>>(), vec![2, 3, 4, 5, 6, 7, 8]);
        assert!(wrapped.is_empty() && grown.is_empty());
        assert_eq!((wrapped.dropped(), grown.dropped()), (2, 0));
    }

    #[test]
    fn disabled_ring_never_holds_anything() {
        let mut ring = TraceRing::disabled();
        ring.push(ev(0, TraceEventKind::Inject));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.capacity(), 0);
    }

    #[test]
    fn jsonl_omits_sentinel_fields() {
        let mut ring = TraceRing::with_capacity(4);
        ring.push(ev(3, TraceEventKind::CreditReturn));
        let mut out = Vec::new();
        ring.write_jsonl(&mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        assert_eq!(
            line.trim(),
            "{\"cycle\":3,\"event\":\"CreditReturn\",\"router\":1,\"port\":2,\"vc\":3}"
        );
    }

    #[test]
    fn jsonl_speculative_is_boolean() {
        let mut ring = TraceRing::with_capacity(4);
        ring.push(TraceEvent {
            out_port: 4,
            packet: 9,
            extra: 1,
            ..ev(5, TraceEventKind::SaRequest)
        });
        let mut out = Vec::new();
        ring.write_jsonl(&mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        assert!(line.contains("\"speculative\":true"), "{line}");
        let parsed = json::parse(line.trim()).unwrap();
        assert_eq!(parsed.get("speculative").and_then(json::JsonValue::as_bool), Some(true));
    }

    #[test]
    fn chrome_trace_parses_and_ts_matches_cycles() {
        let mut ring = TraceRing::with_capacity(8);
        for c in 0..6 {
            ring.push(TraceEvent { out_port: 0, packet: c, ..ev(c, TraceEventKind::SaGrant) });
        }
        let mut out = Vec::new();
        ring.write_chrome_trace(&mut out).unwrap();
        let doc = json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(json::JsonValue::as_array).unwrap();
        let instants: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::JsonValue::as_str) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 6);
        let ts: Vec<u64> =
            instants.iter().filter_map(|e| e.get("ts").and_then(json::JsonValue::as_u64)).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4, 5]);
    }
}
