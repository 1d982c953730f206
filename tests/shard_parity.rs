//! Bit-identity of the sharded single-run engine against the serial
//! path (DESIGN.md §8).
//!
//! `SimConfig::shards` is a pure performance knob: for every shard
//! count and every allocator, a sharded run must produce byte-for-byte
//! the statistics, ejection trace, activity counters, and matching record
//! of a serial run. These tests hold the two engines side by side; the
//! serial engine itself is held to an independent reference simulator by
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

/// Shard counts the acceptance criteria pin: serial, even splits, and
/// one that does not divide the 16-router mesh evenly.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

/// Runs the full protocol plus an ejection-trace hash folded over
/// chunked `run_cycles` calls, exercising serial↔sharded hand-off.
fn trace_and_stats(cfg: SimConfig) -> (u64, NetworkStats) {
    trace_and_stats_weighted(cfg, None)
}

/// As [`trace_and_stats`], with optional per-router cost weights for the
/// sharded partition.
fn trace_and_stats_weighted(cfg: SimConfig, weights: Option<&[f64]>) -> (u64, NetworkStats) {
    let mut sim = NetworkSim::build(cfg).expect("paper-default configs are valid");
    if let Some(w) = weights {
        sim.set_shard_weights(w);
    }
    let total = cfg.warmup + cfg.measure + cfg.drain;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut at = 0;
    // Uneven chunks so runs start and stop at odd cycle offsets.
    for chunk in [171, 503, 97, 1_229, u64::MAX] {
        let n = chunk.min(total - at);
        sim.run_cycles(n);
        at += n;
        for e in sim.take_ejections() {
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
    (h, stats)
}

#[test]
fn sharded_runs_match_serial_for_every_allocator_and_shard_count() {
    for kind in ALL_ALLOCATORS {
        let (serial_hash, serial) = trace_and_stats(config(kind));
        for shards in SHARD_COUNTS {
            if shards == 1 {
                continue;
            }
            let (hash, stats) = trace_and_stats(config(kind).with_shards(shards));
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
    // Lockstep: a sim that ping-pongs between sharded stretches and serial
    // `step()`s must show the exact per-cycle ejections of an all-serial
    // twin — the scheduler-state hand-off, in both directions, is what's
    // on trial. Stretches of `k` cycles for `k` in 1..=7 start at every
    // phase of the wake-calendar ring; `k` = 1 and 2 are all entry
    // pre-scan and skipped final boundary scan.
    let cfg = config(AllocatorKind::Vix);
    let mut sharded = NetworkSim::build(cfg.with_shards(4)).unwrap();
    let mut serial = NetworkSim::build(cfg).unwrap();
    // Load the network first so the hand-offs carry in-flight state.
    sharded.run_cycles(300);
    serial.run_cycles(300);
    assert_eq!(sharded.take_ejections(), serial.take_ejections());
    let mut seen = 0;
    for round in 0..12 {
        for k in 1..=7u64 {
            let at = sharded.now();
            sharded.run_cycles(k);
            let mut expected = Vec::new();
            for _ in 0..k {
                serial.step();
                expected.extend(serial.take_ejections());
            }
            assert_eq!(
                sharded.take_ejections(),
                expected,
                "round={round}: {k}-cycle stretch from {at} diverged"
            );
            for cycle in 0..k {
                sharded.step();
                serial.step();
                let ejected = serial.take_ejections();
                seen += ejected.len();
                assert_eq!(
                    sharded.take_ejections(),
                    ejected,
                    "round={round}: diverged {cycle} cycles after \
                     the {k}-cycle stretch from {at}"
                );
            }
            assert_eq!(sharded.router_steps(), serial.router_steps());
            assert_eq!(
                sharded.per_router_activity(),
                serial.per_router_activity(),
                "k={k}"
            );
        }
    }
    assert!(seen > 100, "only {seen} ejections — the test saw no traffic");
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

#[test]
fn weighted_shard_plans_stay_bit_identical() {
    // Any contiguous partition merges in ascending router order, so
    // skewing the cut points (the `--shard-weights` load-balance knob)
    // must never change a single bit of the results — including across
    // serial↔sharded hand-offs and for cut layouts that leave some
    // shard a single router.
    let (serial_hash, serial) = trace_and_stats(config(AllocatorKind::Vix));
    let heavy_front: Vec<f64> = (0..16).map(|r| if r < 4 { 50.0 } else { 1.0 }).collect();
    let heavy_back: Vec<f64> = (0..16).map(|r| if r >= 12 { 9.0 } else { 0.25 }).collect();
    let sawtooth: Vec<f64> = (0..16).map(|r| f64::from(1 + (r * 7) % 5)).collect();
    for weights in [&heavy_front, &heavy_back, &sawtooth] {
        for shards in [2, 4, 8] {
            let (hash, stats) = trace_and_stats_weighted(
                config(AllocatorKind::Vix).with_shards(shards),
                Some(weights),
            );
            assert_eq!(hash, serial_hash, "weights={weights:?} shards={shards}: trace diverged");
            assert_eq!(stats, serial, "weights={weights:?} shards={shards}: stats diverged");
        }
    }
}

#[test]
fn telemetry_recording_forces_serial_execution() {
    // Trace-event order is a serial-scheduler artifact, so telemetry
    // runs must fall back to one shard rather than record a different
    // (even if statistically identical) trace.
    let cfg = config(AllocatorKind::Vix)
        .with_shards(4)
        .with_telemetry(TelemetrySettings::enabled());
    let sim = NetworkSim::build(cfg).unwrap();
    assert_eq!(sim.effective_shards(), 1);
    let (stats, telemetry) = sim.run_with_telemetry();
    let serial = NetworkSim::build(config(AllocatorKind::Vix)).unwrap().run();
    assert_eq!(stats.packets_ejected(), serial.packets_ejected());
    assert!(telemetry.tracing(), "telemetry stayed on");
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
