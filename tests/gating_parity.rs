//! Lockstep parity between the activity-gated and ungated network
//! schedulers.
//!
//! The gated scheduler — the only one a configuration can reach — is a
//! pure performance optimisation: it may only skip work whose result is
//! provably a no-op. These tests hold it side by side with the ungated
//! reference sweep (`NetworkSim::build_ungated_reference`, a test-only
//! entry point) — same config, same seed — for 2,000 cycles across every allocator and
//! every router configuration the ablations reach, and assert that the
//! ejection trace (hashed FNV-1a, the network-level analogue of the golden
//! grant traces in `tests/determinism.rs`), the measurement statistics, the
//! activity counters, and the derived energy are all bit-identical. One
//! more test pins the gated scheduler's router-step count.

use vix::power::{EnergyBreakdown, EnergyModel};
use vix::prelude::*;
use vix::PipelineKind;

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

/// A 4×4 mesh of `kind` routers.
fn mesh16(kind: AllocatorKind) -> NetworkConfig {
    NetworkConfig { nodes: 16, ..NetworkConfig::paper_default(TopologyKind::Mesh, kind) }
}

fn build(network: NetworkConfig, gated: bool) -> NetworkSim {
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

/// Runs `network` gated and ungated side by side and asserts the ejection
/// trace and the end-of-run state agree.
fn assert_gating_parity(network: NetworkConfig, what: &str) {
    let mut gated = build(network, true);
    let mut ungated = build(network, false);
    assert_eq!(
        ejection_trace_hash(&mut gated),
        ejection_trace_hash(&mut ungated),
        "{what}: ejection trace diverged between gated and ungated runs"
    );
    // End-of-run state, not just the trace: measurement statistics,
    // per-router and aggregate activity, and the hotspot map.
    let (gs, us) = (gated.stats(), ungated.stats());
    assert_eq!(gs.packets_ejected(), us.packets_ejected(), "{what}");
    assert_eq!(gs.flits_ejected(), us.flits_ejected(), "{what}");
    assert_eq!(gs.per_source_packets(), us.per_source_packets(), "{what}");
    assert_eq!(gs.avg_packet_latency(), us.avg_packet_latency(), "{what}");
    assert_eq!(
        gated.per_router_activity(),
        ungated.per_router_activity(),
        "{what}: per-router activity diverged"
    );
    assert_eq!(gated.aggregate_activity(), ungated.aggregate_activity(), "{what}");
    assert_eq!(gated.utilization_map(), ungated.utilization_map(), "{what}");
}

#[test]
fn gated_and_ungated_traces_match_for_every_allocator() {
    for kind in ALL_ALLOCATORS {
        assert_gating_parity(mesh16(kind), &format!("{kind:?}"));
    }
}

#[test]
fn gated_and_ungated_traces_match_for_ablation_router_configs() {
    // The gated scheduler replays a router's skipped cycles as
    // `note_idle_cycles`, so every router configuration an experiment can
    // reach must hold to "an empty step changes nothing else" — not just
    // the paper default.
    let (base, vix) = (mesh16(AllocatorKind::InputFirst), mesh16(AllocatorKind::Vix));
    let variants = [
        ("five-stage", base.with_router(base.router.with_pipeline(PipelineKind::FiveStage))),
        ("non-speculative", vix.with_router(vix.router.with_speculation(false))),
        ("dimension-oblivious VA", vix.with_router(vix.router.with_dimension_aware_va(false))),
        ("VIX k = 3", vix.with_router(vix.router.with_virtual_inputs(VirtualInputs::PerPort(3)))),
        ("oldest-first SA", vix.with_router(vix.router.with_age_based_sa(true))),
    ];
    for (what, network) in variants {
        assert_gating_parity(network, what);
    }
}

#[test]
fn router_steps_are_pinned() {
    // A deterministic work counter: the exact number of router steps the
    // gated scheduler takes on a fixed-seed, fixed-window light-load run
    // of the paper's 8×8 VIX mesh. A scheduling regression (a router
    // stepped with nothing to do) fails here instead of hiding in
    // wall-clock noise; a lower count is progress — re-pin it. It stood at
    // 29 296 while a drained router stayed active for one more, empty,
    // step. The ungated reference steps every router every cycle.
    const GATED_ROUTER_STEPS: u64 = 23_739;
    const CYCLES: u64 = 4_000;
    let network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    let cfg = SimConfig::new(network, 0.005).with_windows(1_000, 2_000, 1_000).with_seed(2014);
    let steps = |gated| {
        let mut sim = build_sim(cfg, gated);
        for _ in 0..CYCLES {
            sim.step();
        }
        sim.router_steps()
    };
    assert_eq!(steps(false), 64 * CYCLES, "the reference must step every router every cycle");
    assert_eq!(steps(true), GATED_ROUTER_STEPS, "gated router steps moved");
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
