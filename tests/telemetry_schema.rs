//! Golden-schema test for the trace exporters.
//!
//! Runs a 2×2 mesh for 200 cycles with tracing enabled, then:
//!
//! - validates every JSONL line against the per-kind schema documented in
//!   `vix_telemetry::trace` (exact key set, correct value types), and
//! - checks the Chrome trace export is well-formed JSON whose instant
//!   events have monotonically non-decreasing `ts` on every `(pid, tid)`
//!   track.
//!
//! The schema is a contract with external tooling (Perfetto, jq
//! pipelines); this test pins it so a field rename or a sentinel leaking
//! into the output is a test failure, not a downstream surprise.
//!
//! The second half pins the engine self-profiling exports the same way
//! (DESIGN.md §7): span JSONL, heartbeat JSONL, the per-shard Chrome
//! trace, and the contract that profiling never perturbs results.

use std::collections::{HashMap, HashSet};

use vix::prelude::*;
use vix::telemetry::json::{self, JsonValue};
use vix::telemetry::{SpanKind, TraceEventKind, TraceRing};

/// Builds and steps a 2×2 mesh for 200 cycles with tracing on, returning
/// the sink.
fn traced_run() -> TelemetrySink {
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 4; // 2×2 mesh
    let telemetry = TelemetrySettings::disabled().with_tracing(true).with_metrics(true);
    let cfg = SimConfig::new(network, 0.1).with_windows(201, 1, 1).with_telemetry(telemetry);
    let mut sim = NetworkSim::build(cfg).expect("valid config");
    for _ in 0..200 {
        sim.step();
    }
    sim.into_telemetry()
}

/// The documented required-key set for each event kind, beyond the
/// always-present `cycle` and `event`. Must match the table in the
/// `vix_telemetry::trace` module docs.
fn required_keys(kind: &str) -> &'static [&'static str] {
    match kind {
        "Inject" => &["router", "port", "vc", "packet", "flit"],
        "VcAlloc" => &["router", "port", "vc", "out_port", "out_vc", "packet"],
        "SaRequest" => &["router", "port", "vc", "out_port", "packet", "speculative"],
        "SaGrant" => &["router", "port", "vc", "out_port", "packet"],
        "SwitchTraversal" => &["router", "port", "vc", "out_port", "packet", "flit"],
        "LinkTraversal" => &["router", "port", "vc", "packet", "flit"],
        "Eject" => &["router", "port", "vc", "packet", "flit"],
        "CreditReturn" => &["router", "port", "vc"],
        other => panic!("undocumented event kind {other:?}"),
    }
}

#[test]
fn jsonl_events_match_documented_schema() {
    let tel = traced_run();
    let ring: &TraceRing = tel.trace_ring();
    assert_eq!(ring.dropped(), 0, "200 cycles of a 2×2 mesh must fit the default ring");
    assert!(!ring.is_empty(), "a loaded 200-cycle run must record events");

    let mut out = Vec::new();
    ring.write_jsonl(&mut out).expect("write to Vec cannot fail");
    let text = String::from_utf8(out).expect("JSONL output is UTF-8");

    let mut kinds_seen: HashMap<String, usize> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let value = json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: invalid JSON ({e}): {line}", lineno + 1));
        let members = value
            .as_object()
            .unwrap_or_else(|| panic!("line {}: not a JSON object: {line}", lineno + 1));

        value
            .get("cycle")
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("line {}: missing/invalid `cycle`: {line}", lineno + 1));
        let kind = value
            .get("event")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("line {}: missing/invalid `event`: {line}", lineno + 1))
            .to_owned();
        *kinds_seen.entry(kind.clone()).or_insert(0) += 1;

        let required = required_keys(&kind);
        for &key in required {
            let field = value
                .get(key)
                .unwrap_or_else(|| panic!("line {}: {kind} missing `{key}`: {line}", lineno + 1));
            let ok = match key {
                "speculative" => field.as_bool().is_some(),
                _ => field.as_u64().is_some(),
            };
            assert!(ok, "line {}: {kind} `{key}` has wrong type: {line}", lineno + 1);
        }
        // No undocumented keys: the object is exactly cycle + event +
        // the required set (sentinel-valued fields must stay omitted).
        assert_eq!(
            members.len(),
            2 + required.len(),
            "line {}: {kind} has extra keys beyond the documented schema: {line}",
            lineno + 1
        );
        for (key, _) in members {
            assert!(
                key == "cycle" || key == "event" || required.contains(&key.as_str()),
                "line {}: {kind} has undocumented key `{key}`: {line}",
                lineno + 1
            );
        }
    }

    // A loaded 200-cycle run must exercise the full lifecycle.
    for kind in TraceEventKind::ALL {
        assert!(
            kinds_seen.contains_key(kind.name()),
            "no {} event in 200 cycles (saw: {kinds_seen:?})",
            kind.name()
        );
    }
}

#[test]
fn chrome_trace_is_well_formed_with_monotone_tracks() {
    let tel = traced_run();

    let mut out = Vec::new();
    tel.trace_ring().write_chrome_trace(&mut out).expect("write to Vec cannot fail");
    let text = String::from_utf8(out).expect("Chrome trace output is UTF-8");

    let doc = json::parse(&text).expect("Chrome trace must be well-formed JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("top-level `traceEvents` array");
    assert!(!events.is_empty(), "a loaded run must export events");

    let mut last_ts: HashMap<(u64, u64), u64> = HashMap::new();
    let mut instants = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("every event has `ph`");
        let pid = ev.get("pid").and_then(JsonValue::as_u64).expect("every event has `pid`");
        let tid = ev.get("tid").and_then(JsonValue::as_u64).expect("every event has `tid`");
        match ph {
            "M" => {
                // Metadata record: names the router's track, no timestamp.
                assert_eq!(ev.get("name").and_then(JsonValue::as_str), Some("process_name"));
            }
            "i" => {
                instants += 1;
                ev.get("name").and_then(JsonValue::as_str).expect("instant event has `name`");
                let ts = ev.get("ts").and_then(JsonValue::as_u64).expect("instant event has `ts`");
                if let Some(&prev) = last_ts.get(&(pid, tid)) {
                    assert!(
                        ts >= prev,
                        "track (pid {pid}, tid {tid}): ts went backwards ({prev} -> {ts})"
                    );
                }
                last_ts.insert((pid, tid), ts);
            }
            other => panic!("unexpected phase {other:?} in Chrome trace"),
        }
    }
    assert!(instants > 0, "Chrome trace holds only metadata records");
    assert!(last_ts.keys().any(|&(pid, _)| pid > 0), "expected events from more than one router");
}

/// Builds and runs a 16×16 mesh across `shards` shards with profiling
/// and a heartbeat every 100 cycles, returning the sink.
fn profiled_sharded_run(shards: usize) -> TelemetrySink {
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 256; // 16×16 mesh — the acceptance-criteria shape
    let telemetry = TelemetrySettings::disabled().with_heartbeat(100);
    let cfg = SimConfig::new(network, 0.05)
        .with_windows(100, 150, 50)
        .with_shards(shards)
        .with_telemetry(telemetry);
    let sim = NetworkSim::build(cfg).expect("valid config");
    sim.run_with_telemetry().1
}

/// The pinned key set of one span JSONL line.
const SPAN_KEYS: [&str; 5] = ["span", "track", "cycle", "start_ns", "dur_ns"];

#[test]
fn profile_span_jsonl_matches_documented_schema() {
    let tel = profiled_sharded_run(1);
    let prof = tel.profiler().expect("profiling was enabled");

    let mut out = Vec::new();
    prof.write_spans_jsonl(&mut out).expect("write to Vec cannot fail");
    let text = String::from_utf8(out).expect("span JSONL output is UTF-8");
    assert!(!text.is_empty(), "a profiled run must record spans");

    let span_names: HashSet<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
    let mut seen: HashSet<String> = HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let value = json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: invalid JSON ({e}): {line}", lineno + 1));
        let members = value
            .as_object()
            .unwrap_or_else(|| panic!("line {}: not a JSON object: {line}", lineno + 1));
        assert_eq!(
            members.len(),
            SPAN_KEYS.len(),
            "line {}: key set drifted from the pinned schema: {line}",
            lineno + 1
        );
        for key in SPAN_KEYS {
            assert!(value.get(key).is_some(), "line {}: missing `{key}`: {line}", lineno + 1);
        }
        let span = value.get("span").and_then(JsonValue::as_str).expect("span is a string");
        assert!(span_names.contains(span), "line {}: unknown span kind {span:?}", lineno + 1);
        seen.insert(span.to_owned());
        assert_eq!(
            value.get("track").and_then(JsonValue::as_str),
            Some("engine"),
            "a serial run records only the engine track"
        );
        for key in ["cycle", "start_ns", "dur_ns"] {
            assert!(
                value.get(key).and_then(JsonValue::as_u64).is_some(),
                "line {}: `{key}` must be an unsigned integer: {line}",
                lineno + 1
            );
        }
    }
    for kind in [SpanKind::TrafficGen, SpanKind::SourceInject, SpanKind::RouterStep] {
        assert!(seen.contains(kind.name()), "no {} span recorded (saw {seen:?})", kind.name());
    }
}

/// The pinned key sets of one heartbeat JSONL line and its `shards`
/// entries.
const HEARTBEAT_KEYS: [&str; 10] = [
    "cycle",
    "wall_ns",
    "interval_cycles",
    "cycles_per_sec",
    "router_steps",
    "active_routers_avg",
    "wake_depth",
    "buffered_flits",
    "imbalance_pct",
    "shards",
];
const SHARD_BEAT_KEYS: [&str; 4] = ["shard", "busy_ns", "barrier_ns", "busy_ratio"];

fn assert_heartbeat_schema(text: &str, expect_shards: usize) {
    assert!(!text.is_empty(), "a heartbeat-enabled run must emit heartbeats");
    for (lineno, line) in text.lines().enumerate() {
        let value = json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: invalid JSON ({e}): {line}", lineno + 1));
        let members = value
            .as_object()
            .unwrap_or_else(|| panic!("line {}: not a JSON object: {line}", lineno + 1));
        assert_eq!(
            members.len(),
            HEARTBEAT_KEYS.len(),
            "line {}: key set drifted from the pinned schema: {line}",
            lineno + 1
        );
        for key in HEARTBEAT_KEYS {
            assert!(value.get(key).is_some(), "line {}: missing `{key}`: {line}", lineno + 1);
        }
        for key in ["cycle", "wall_ns", "interval_cycles", "router_steps", "wake_depth",
            "buffered_flits"]
        {
            assert!(
                value.get(key).and_then(JsonValue::as_u64).is_some(),
                "line {}: `{key}` must be an unsigned integer: {line}",
                lineno + 1
            );
        }
        for key in ["cycles_per_sec", "active_routers_avg", "imbalance_pct"] {
            assert!(
                value.get(key).and_then(JsonValue::as_f64).is_some(),
                "line {}: `{key}` must be a number: {line}",
                lineno + 1
            );
        }
        let shards =
            value.get("shards").and_then(JsonValue::as_array).expect("shards is an array");
        assert_eq!(shards.len(), expect_shards, "line {}: wrong shard count", lineno + 1);
        for beat in shards {
            let beat_members = beat.as_object().expect("shard beat is an object");
            assert_eq!(
                beat_members.len(),
                SHARD_BEAT_KEYS.len(),
                "line {}: shard-beat key set drifted: {line}",
                lineno + 1
            );
            for key in SHARD_BEAT_KEYS {
                assert!(
                    beat.get(key).and_then(JsonValue::as_f64).is_some(),
                    "line {}: shard beat missing numeric `{key}`: {line}",
                    lineno + 1
                );
            }
        }
    }
}

#[test]
fn heartbeat_jsonl_matches_documented_schema_serial_and_sharded() {
    // One slice: one shard beat per interval.
    let tel = profiled_sharded_run(1);
    let mut out = Vec::new();
    tel.profiler()
        .expect("profiling was enabled")
        .write_health_jsonl(&mut out)
        .expect("write to Vec cannot fail");
    assert_heartbeat_schema(&String::from_utf8(out).expect("UTF-8"), 1);

    // Two slices: one beat per slice, summed from their packet logs.
    let tel = profiled_sharded_run(2);
    let mut out = Vec::new();
    tel.profiler()
        .expect("profiling was enabled")
        .write_health_jsonl(&mut out)
        .expect("write to Vec cannot fail");
    assert_heartbeat_schema(&String::from_utf8(out).expect("UTF-8"), 2);
}

#[test]
fn heartbeat_gauges_do_not_depend_on_the_shard_count() {
    // Each slice writes its gauges into its packet log on a heartbeat
    // cycle and the stats owner sums them, so every column that reads
    // simulation state — not the wall clock — is the one-slice run's,
    // the sends still in an outbox included.
    let gauges = |tel: TelemetrySink| {
        let beats = tel.profiler().expect("profiling was enabled").heartbeats().to_vec();
        beats
            .iter()
            .map(|h| {
                let avg = h.active_routers_avg.to_bits();
                (h.cycle, h.interval_cycles, h.router_steps, avg, h.wake_depth, h.buffered_flits)
            })
            .collect::<Vec<_>>()
    };
    let serial = gauges(profiled_sharded_run(1));
    assert_eq!(serial.len(), 3, "a 300-cycle run beats at 100, 200 and 300");
    for shards in [2, 4] {
        let sharded = gauges(profiled_sharded_run(shards));
        assert_eq!(sharded, serial, "shards={shards}: heartbeat gauges diverged");
    }
    // `step()`s on the calling thread first, then a threaded
    // `run_cycles`: its beats carry the router steps taken before it.
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 256;
    let cfg = SimConfig::new(network, 0.05)
        .with_windows(100, 150, 50)
        .with_shards(4)
        .with_telemetry(TelemetrySettings::disabled().with_heartbeat(100));
    let mut sim = NetworkSim::build(cfg).expect("valid config");
    for _ in 0..150 {
        sim.step();
    }
    sim.run_cycles(150);
    assert_eq!(gauges(sim.into_telemetry()), serial, "serial-then-sharded heartbeat gauges diverged");
}

#[test]
fn profiled_sharded_chrome_trace_has_per_shard_tracks() {
    let tel = profiled_sharded_run(2);
    let prof = tel.profiler().expect("profiling was enabled");

    let mut out = Vec::new();
    prof.write_chrome_trace(&mut out).expect("write to Vec cannot fail");
    let text = String::from_utf8(out).expect("Chrome trace output is UTF-8");

    let doc = json::parse(&text).expect("Chrome trace must be well-formed JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("top-level `traceEvents` array");

    let mut track_names: HashMap<u64, String> = HashMap::new();
    let mut span_names: HashSet<(u64, String)> = HashSet::new();
    let mut counters = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("every event has `ph`");
        let tid = ev.get("tid").and_then(JsonValue::as_u64).expect("every event has `tid`");
        match ph {
            "M" => {
                let name = ev.get("name").and_then(JsonValue::as_str).expect("metadata name");
                if name == "thread_name" {
                    let value = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .expect("thread_name metadata carries args.name");
                    track_names.insert(tid, value.to_owned());
                }
            }
            "X" => {
                // Complete event: needs ts + dur for Perfetto to lay the
                // flame track out.
                assert!(ev.get("ts").and_then(JsonValue::as_f64).is_some(), "X event has ts");
                assert!(ev.get("dur").and_then(JsonValue::as_f64).is_some(), "X event has dur");
                let name = ev.get("name").and_then(JsonValue::as_str).expect("X event has name");
                span_names.insert((tid, name.to_owned()));
            }
            "C" => counters += 1,
            other => panic!("unexpected phase {other:?} in profile trace"),
        }
    }
    assert_eq!(track_names.get(&1).map(String::as_str), Some("shard0"));
    assert_eq!(track_names.get(&2).map(String::as_str), Some("shard1"));
    // The engine track holds the calling thread's serial duties and
    // nothing else: that thread steps shard 0, so its barrier wait is on
    // shard 0's track like every other shard's.
    let on = |tid: u64, name: &str| span_names.contains(&(tid, name.to_owned()));
    assert!(on(0, "stats_merge") && on(0, "traffic_gen"), "duties go on the engine track");
    assert!(
        span_names.iter().all(|(tid, name)| *tid != 0 || name == "stats_merge" || name == "traffic_gen"),
        "engine track must hold only the serial duties: {span_names:?}"
    );
    assert!(on(1, "router_step") && on(2, "router_step"), "both shards must record spans");
    assert!(on(1, "barrier_wait") && on(2, "barrier_wait"), "every shard records its own wait");
    assert!(counters > 0, "heartbeats must export counter tracks");
}

#[test]
fn profiling_never_perturbs_results() {
    let build = |profiling: bool, shards: usize| {
        let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
        network.nodes = 64;
        let telemetry = if profiling {
            TelemetrySettings::disabled().with_heartbeat(50)
        } else {
            TelemetrySettings::disabled()
        };
        let cfg = SimConfig::new(network, 0.08)
            .with_windows(100, 200, 100)
            .with_shards(shards)
            .with_telemetry(telemetry);
        NetworkSim::build(cfg).expect("valid config").run()
    };
    // The profiler only reads the wall clock, so stats must stay
    // bit-identical with it on — serial and sharded.
    assert_eq!(build(false, 1), build(true, 1), "serial run perturbed by profiling");
    assert_eq!(build(false, 4), build(true, 4), "sharded run perturbed by profiling");
}

#[test]
fn disabled_profiling_records_nothing() {
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 16;
    let cfg = SimConfig::new(network, 0.05).with_windows(50, 100, 50);
    let sim = NetworkSim::build(cfg).expect("valid config");
    let (_, tel) = sim.run_with_telemetry();
    assert!(!tel.profiling(), "profiling must default to off");
    assert!(tel.profiler().is_none(), "no profiler may exist on a default run");
}
