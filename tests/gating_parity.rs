//! Lockstep parity between the activity-gated and ungated network
//! schedulers.
//!
//! The gated scheduler — the only one a configuration can reach — is a
//! pure performance optimisation: it may only skip work whose result is
//! provably a no-op. These tests hold it side by side with the ungated
//! reference sweep (`NetworkSim::build_ungated_reference`, a test-only
//! entry point) — same config, same seed — for 2,000 cycles across every allocator and assert
//! that the ejection trace (hashed FNV-1a, the network-level analogue of
//! the golden grant traces in `tests/determinism.rs`), the measurement
//! statistics, the activity counters, and the derived energy are all
//! bit-identical.

use vix::power::{EnergyBreakdown, EnergyModel};
use vix::prelude::*;

/// FNV-1a over a stream of `u64` words (same construction as the golden
/// grant-trace hashes in `tests/determinism.rs`).
fn fnv1a(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

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

fn build(kind: AllocatorKind, gated: bool) -> NetworkSim {
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
    network.nodes = 16;
    // Rate in the congested-but-stable band so buffers fill, credits
    // stall, speculation fails, and routers oscillate between active and
    // quiescent — the regime where a gating bug would surface.
    let cfg = SimConfig::new(network, 0.06).with_windows(300, 1_200, 500).with_seed(0xD1CE);
    build_sim(cfg, gated)
}

/// The simulation of `cfg` under the gated scheduler or the ungated
/// reference sweep.
fn build_sim(cfg: SimConfig, gated: bool) -> NetworkSim {
    let built =
        if gated { NetworkSim::build(cfg) } else { NetworkSim::build_ungated_reference(cfg) };
    built.expect("paper-default configs are valid")
}

/// Steps `sim` for 2,000 cycles, folding every ejected packet (cycle,
/// id, source, dest, tag) into an FNV-1a trace hash.
fn ejection_trace_hash(sim: &mut NetworkSim) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cycle in 0..2_000u64 {
        sim.step();
        for e in sim.take_ejections() {
            fnv1a(&mut h, cycle);
            fnv1a(&mut h, e.packet.id.0);
            fnv1a(&mut h, e.packet.source.0 as u64);
            fnv1a(&mut h, e.packet.dest.0 as u64);
            fnv1a(&mut h, e.at.0);
        }
    }
    h
}

#[test]
fn gated_and_ungated_traces_match_for_every_allocator() {
    for kind in ALL_ALLOCATORS {
        let mut gated = build(kind, true);
        let mut ungated = build(kind, false);
        assert_eq!(
            ejection_trace_hash(&mut gated),
            ejection_trace_hash(&mut ungated),
            "{kind:?}: ejection trace diverged between gated and ungated runs"
        );
        // End-of-run state, not just the trace: measurement statistics,
        // per-router and aggregate activity, and the hotspot map.
        let (gs, us) = (gated.stats(), ungated.stats());
        assert_eq!(gs.packets_ejected(), us.packets_ejected(), "{kind:?}");
        assert_eq!(gs.flits_ejected(), us.flits_ejected(), "{kind:?}");
        assert_eq!(gs.per_source_packets(), us.per_source_packets(), "{kind:?}");
        assert_eq!(gs.avg_packet_latency(), us.avg_packet_latency(), "{kind:?}");
        assert_eq!(
            gated.per_router_activity(),
            ungated.per_router_activity(),
            "{kind:?}: per-router activity diverged"
        );
        assert_eq!(gated.aggregate_activity(), ungated.aggregate_activity(), "{kind:?}");
        assert_eq!(gated.utilization_map(), ungated.utilization_map(), "{kind:?}");
    }
}

#[test]
fn full_run_protocol_matches_for_every_allocator() {
    // `run()` (warmup + measure + drain, stats stamped with aggregate
    // activity) is what every experiment binary calls.
    for kind in ALL_ALLOCATORS {
        let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
        network.nodes = 16;
        let cfg = SimConfig::new(network, 0.05).with_windows(200, 800, 400).with_seed(7);
        let gated = build_sim(cfg, true).run();
        let ungated = build_sim(cfg, false).run();
        assert_eq!(gated.packets_ejected(), ungated.packets_ejected(), "{kind:?}");
        assert_eq!(gated.avg_packet_latency(), ungated.avg_packet_latency(), "{kind:?}");
        assert_eq!(gated.activity(), ungated.activity(), "{kind:?}: activity diverged");
        // Matching records skip empty allocation cycles by construction, so
        // the gated scheduler (which never even calls the allocator on an
        // empty cycle) must report identical counters.
        assert_eq!(gated.matching(), ungated.matching(), "{kind:?}: matching diverged");
    }
}

#[test]
fn gated_and_ungated_runs_report_identical_energy() {
    // The power model multiplies `routers × cycles` for clock and leakage
    // energy, so any idle-cycle under-counting by the gated scheduler (or
    // double-counting through `ActivityCounters::merge`) would surface
    // here as an energy delta.
    let model = EnergyModel::cmos45();
    for kind in [AllocatorKind::InputFirst, AllocatorKind::Vix] {
        let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
        network.nodes = 16;
        let cfg = SimConfig::new(network, 0.04).with_windows(200, 800, 400).with_seed(3);
        let span = EnergyModel::span_factor(&cfg.network.router);
        let energy = |gating: bool| {
            let stats = build_sim(cfg, gating).run();
            EnergyBreakdown::from_activity(&model, stats.activity(), span)
        };
        let (gated, ungated) = (energy(true), energy(false));
        assert_eq!(gated.total_pj(), ungated.total_pj(), "{kind:?}: total energy diverged");
        assert_eq!(
            gated.energy_per_bit(),
            ungated.energy_per_bit(),
            "{kind:?}: energy/bit diverged"
        );
        for ((name, g), (_, u)) in gated.components().iter().zip(ungated.components().iter()) {
            assert_eq!(g, u, "{kind:?}: {name} energy diverged");
        }
    }
}
