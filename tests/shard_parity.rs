//! Bit-identity of a run cut into several slices against the same run in
//! one (DESIGN.md §8).
//!
//! `SimConfig::shards` is a pure performance knob: for every shard
//! count and every allocator, a sharded run must produce byte-for-byte
//! the statistics, ejection trace, activity counters, matching record,
//! recorded flit trace and metrics of a one-slice run, whether its
//! cycles run on one thread per slice (`run_cycles`) or on the calling
//! thread (`step`). These tests hold the slice counts side by side; the
//! one-slice run itself is held to an independent reference simulator by
//! `tests/reference_parity.rs`.

use vix::prelude::*;

/// All eight allocator configurations exercised by the golden traces.
const ALL_ALLOCATORS: [AllocatorKind; 8] = [
    AllocatorKind::InputFirst,
    AllocatorKind::OutputFirst,
    AllocatorKind::Wavefront,
    AllocatorKind::AugmentingPath,
    AllocatorKind::Vix,
    AllocatorKind::WavefrontVix,
    AllocatorKind::PacketChaining,
    AllocatorKind::Islip(2),
];

/// Shard counts the acceptance criteria pin on the 16-router mesh:
/// serial, even splits, an uneven 6/5/5 cut, and one router per shard.
const SHARD_COUNTS: [usize; 6] = [1, 2, 3, 4, 8, 16];

fn config(kind: AllocatorKind) -> SimConfig {
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
    network.nodes = 16;
    // Congested-but-stable load: buffers fill, credits stall, and
    // routers oscillate between active and quiescent — the regime where
    // a cross-shard ordering bug would surface.
    SimConfig::new(network, 0.06).with_windows(300, 1_200, 500).with_seed(0xD1CE)
}

/// FNV-1a over a stream of `u64` words (same construction as the golden
/// grant-trace hashes in `tests/determinism.rs`).
fn fnv1a(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// What a run's sink recorded: the flit trace as JSON lines, the metrics
/// registry as JSON, and the events the trace ring dropped.
struct Recording {
    trace: Vec<u8>,
    metrics: String,
    dropped: u64,
}

/// Telemetry recording on, with a ring of `capacity` events.
fn recorded(cfg: SimConfig, capacity: usize) -> SimConfig {
    cfg.with_telemetry(TelemetrySettings::enabled().with_trace_capacity(capacity))
}

/// Runs the full protocol plus an ejection-trace hash folded over
/// chunked `run_cycles` calls, so calls start and stop at odd cycles,
/// and hands back what the run's sink recorded too.
fn trace_and_stats(cfg: SimConfig) -> (u64, NetworkStats, Recording) {
    let mut sim = NetworkSim::build(cfg).expect("paper-default configs are valid");
    let total = cfg.warmup + cfg.measure + cfg.drain;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut at = 0;
    let mut delivered = Vec::new();
    // Uneven chunks so runs start and stop at odd cycle offsets.
    for chunk in [171, 503, 97, 1_229, u64::MAX] {
        let n = chunk.min(total - at);
        sim.run_cycles_into(n, &mut delivered);
        at += n;
        for e in delivered.drain(..) {
            fnv1a(&mut h, e.at.0);
            fnv1a(&mut h, e.packet.id.0);
            fnv1a(&mut h, e.packet.source.0 as u64);
            fnv1a(&mut h, e.packet.dest.0 as u64);
        }
        if at == total {
            break;
        }
    }
    let mut stats = sim.stats().clone();
    stats.set_activity(sim.aggregate_activity());
    stats.set_matching(sim.matching_summary());
    let tel = sim.telemetry();
    let mut trace = Vec::new();
    tel.trace_ring().write_jsonl(&mut trace).expect("write to Vec cannot fail");
    let recording = Recording { trace, metrics: tel.registry().to_json(), dropped: tel.trace_ring().dropped() };
    (h, stats, recording)
}

#[test]
fn sharded_runs_match_serial_for_every_allocator_and_shard_count() {
    for kind in ALL_ALLOCATORS {
        let (serial_hash, serial, _) = trace_and_stats(config(kind));
        for shards in SHARD_COUNTS {
            if shards == 1 {
                continue;
            }
            let (hash, stats, _) = trace_and_stats(config(kind).with_shards(shards));
            assert_eq!(hash, serial_hash, "{kind:?} shards={shards}: ejection trace diverged");
            assert_eq!(stats, serial, "{kind:?} shards={shards}: statistics diverged");
        }
    }
}

#[test]
fn sharded_run_protocol_matches_serial_end_to_end() {
    // The plain `run()` protocol (what every experiment binary calls),
    // including activity and matching stamping.
    for kind in [AllocatorKind::Vix, AllocatorKind::Wavefront] {
        let serial = NetworkSim::build(config(kind)).unwrap().run();
        for shards in [2, 3, 5, 16] {
            let sharded =
                NetworkSim::build(config(kind).with_shards(shards)).unwrap().run();
            assert_eq!(sharded, serial, "{kind:?} shards={shards}");
            assert_eq!(sharded.activity(), serial.activity(), "{kind:?} shards={shards}");
            assert_eq!(sharded.matching(), serial.matching(), "{kind:?} shards={shards}");
        }
    }
}

#[test]
fn serial_stepping_resumes_cleanly_after_a_sharded_stretch() {
    // Lockstep: a sliced sim that alternates threaded `run_cycles` calls
    // with `step()`s — the same cycle protocol over the same slices, on
    // the calling thread — must show the exact per-cycle ejections of a
    // one-slice twin. Calls of `k` cycles for `k` in 1..=7 start at every
    // phase of the timing wheels; at `k` = 1 and 2 nearly every cycle
    // files the previous call's last cross-slice sends, still in their
    // mailboxes, under the other driver. Three slices cut the mesh 6/5/5
    // (asymmetric boundaries), sixteen put every router link across one.
    for shards in [3, 4, 16] {
        let cfg = config(AllocatorKind::Vix);
        let mut sharded = NetworkSim::build(cfg.with_shards(shards)).unwrap();
        let mut serial = NetworkSim::build(cfg).unwrap();
        // Load the network first so the hand-offs carry in-flight state.
        let (mut got, mut expected) = (Vec::new(), Vec::new());
        sharded.run_cycles_into(300, &mut got);
        serial.run_cycles_into(300, &mut expected);
        assert_eq!(got, expected, "shards={shards}");
        let mut seen = 0;
        for round in 0..12 {
            for k in 1..=7u64 {
                let at = sharded.now();
                got.clear();
                expected.clear();
                sharded.run_cycles_into(k, &mut got);
                for _ in 0..k {
                    serial.step_into(&mut expected);
                }
                assert_eq!(got, expected, "shards={shards} round={round}: {k}-cycle stretch from {at} diverged");
                for cycle in 0..k {
                    got.clear();
                    expected.clear();
                    sharded.step_into(&mut got);
                    serial.step_into(&mut expected);
                    seen += expected.len();
                    assert_eq!(
                        got,
                        expected,
                        "shards={shards} round={round}: diverged {cycle} cycles after \
                         the {k}-cycle stretch from {at}"
                    );
                }
                assert_eq!(sharded.router_steps(), serial.router_steps(), "shards={shards}");
                assert_eq!(
                    sharded.per_router_activity(),
                    serial.per_router_activity(),
                    "shards={shards} k={k}"
                );
            }
        }
        assert!(seen > 100, "shards={shards}: only {seen} ejections — the test saw no traffic");
    }
}

#[test]
fn collecting_deliveries_leaves_the_run_unchanged() {
    // `run_cycles_into` is `run_cycles` plus a caller-owned buffer: a twin
    // that collects its deliveries must end with the statistics, activity,
    // matching record and step count of one that does not, on either
    // engine.
    for shards in [1, 4] {
        let cfg = config(AllocatorKind::Vix).with_shards(shards);
        let total = cfg.warmup + cfg.measure + cfg.drain;
        let mut plain = NetworkSim::build(cfg).unwrap();
        let mut collecting = NetworkSim::build(cfg).unwrap();
        plain.run_cycles(total);
        let mut delivered = Vec::new();
        collecting.run_cycles_into(total, &mut delivered);
        assert_eq!(collecting.stats(), plain.stats(), "shards={shards}: statistics");
        assert_eq!(collecting.per_router_activity(), plain.per_router_activity(), "shards={shards}");
        assert_eq!(collecting.matching_summary(), plain.matching_summary(), "shards={shards}");
        assert_eq!(collecting.router_steps(), plain.router_steps(), "shards={shards}");
        // Every window's deliveries, each packet once.
        let mut ids: Vec<u64> = delivered.iter().map(|e| e.packet.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), delivered.len(), "shards={shards}: a packet delivered twice");
        assert!(
            delivered.len() as u64 > plain.stats().packets_ejected(),
            "shards={shards}: {} deliveries, {} in the window alone",
            delivered.len(),
            plain.stats().packets_ejected()
        );
    }
}

#[test]
fn degenerate_shard_counts_clamp_and_stay_identical() {
    let serial = NetworkSim::build(config(AllocatorKind::Vix)).unwrap().run();
    // More shards than routers: clamped to one router per shard.
    let over = NetworkSim::build(config(AllocatorKind::Vix).with_shards(1_000)).unwrap();
    assert_eq!(over.effective_shards(), 16, "clamp to the router count");
    assert_eq!(over.run(), serial);
    // shards = 0 resolves to available parallelism, still clamped.
    let auto = NetworkSim::build(config(AllocatorKind::Vix).with_shards(0)).unwrap();
    assert!(auto.effective_shards() >= 1);
    assert!(auto.effective_shards() <= 16);
    assert_eq!(auto.run(), serial);
}

/// Records `cfg` serially and at each of `shard_counts`, through the
/// chunked schedule of [`trace_and_stats`], and holds every sharded
/// recording to the serial one byte for byte.
fn assert_recording_is_shard_invariant(what: &str, cfg: SimConfig, shard_counts: &[usize]) {
    let (_, _, serial) = trace_and_stats(cfg);
    assert!(!serial.trace.is_empty(), "{what}: nothing was traced");
    for &shards in shard_counts {
        let cfg = cfg.with_shards(shards);
        assert_eq!(NetworkSim::build(cfg).unwrap().effective_shards(), shards, "{what}");
        let (_, _, rec) = trace_and_stats(cfg);
        assert!(rec.trace == serial.trace, "{what} shards={shards}: trace JSONL diverged");
        assert_eq!(rec.metrics, serial.metrics, "{what} shards={shards}: metrics diverged");
        assert_eq!(rec.dropped, serial.dropped, "{what} shards={shards}: ring drops diverged");
    }
}

#[test]
fn recorded_telemetry_does_not_depend_on_the_shard_count() {
    // Each slice records into its own sink; the run's sink takes the
    // trace events in serial order every cycle and the counters and
    // histograms as sums when a call returns. So recording never changes
    // the engine, and what it records is the one-slice run's, byte for
    // byte — across the chunked calls' boundaries too.
    for kind in ALL_ALLOCATORS {
        let cfg = recorded(config(kind), 1 << 16);
        assert_recording_is_shard_invariant(&format!("{kind:?}"), cfg, &SHARD_COUNTS[1..]);
    }
    // Four terminals per router, and the fbfly's long-range links.
    for topo in [TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
        let network = NetworkConfig::paper_default(topo, AllocatorKind::Vix);
        let cfg = SimConfig::new(network, 0.05).with_windows(200, 800, 400).with_seed(42);
        assert_recording_is_shard_invariant(&format!("{topo:?}"), recorded(cfg, 1 << 16), &[4]);
    }
    // A ring that holds a few cycles: it wraps many times, across every
    // stretch boundary of the chunked schedule.
    let cfg = recorded(config(AllocatorKind::Vix), 1_000);
    assert_recording_is_shard_invariant("1000-event ring", cfg, &[4]);
}

#[test]
fn sharding_is_invariant_on_concentrated_topologies() {
    // CMesh and FlattenedButterfly attach 4 terminals per router and
    // the fbfly has long-range links — more boundary crossings per
    // shard than the mesh.
    for topo in [TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
        let network = NetworkConfig::paper_default(topo, AllocatorKind::Vix);
        let cfg = SimConfig::new(network, 0.05).with_windows(200, 800, 400).with_seed(42);
        let serial = NetworkSim::build(cfg).unwrap().run();
        for shards in [2, 4, 8] {
            let sharded = NetworkSim::build(cfg.with_shards(shards)).unwrap().run();
            assert_eq!(sharded, serial, "{topo:?} shards={shards}");
        }
    }
}
