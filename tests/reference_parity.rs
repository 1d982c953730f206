//! The production engine, held cycle by cycle to the reference simulator
//! in `tests/reference/` — a second, plain implementation of the same
//! network that shares nothing with the engine below the allocator.
//!
//! Every cycle both must eject the same packets at the same cycle in the
//! same order. Every 97 cycles and at the end, every router's activity
//! counters, the merged allocator matching record, the measurement-window
//! statistics and the derived energy must agree too. The configurations
//! cover all eight allocators, every router variant the ablations reach,
//! the concentrated and flattened-butterfly topologies, a permutation
//! pattern, the full `run()` protocol and the sharded engine.
//! `tests/gating_parity.rs` adds the light-load and energy checks aimed
//! at the engine's activity gating.

mod lockstep;
mod reference;

use lockstep::{
    ablation_variants, assert_lockstep, assert_same_state, ejections, mesh16, total_cycles,
    ALL_ALLOCATORS, CHECK_EVERY,
};
use reference::ReferenceNet;
use vix::prelude::*;

#[test]
fn every_allocator_matches_the_reference_cycle_by_cycle() {
    for kind in ALL_ALLOCATORS {
        assert_lockstep(mesh16(kind), TrafficPattern::UniformRandom, &format!("{kind:?}"));
    }
}

#[test]
fn ablation_router_configs_match_the_reference() {
    for (what, cfg) in ablation_variants() {
        assert_lockstep(cfg, TrafficPattern::UniformRandom, what);
    }
}

#[test]
fn concentrated_topologies_match_the_reference() {
    for topology in [TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
        let network = NetworkConfig::paper_default(topology, AllocatorKind::Vix);
        let cfg = SimConfig::new(network, 0.05).with_windows(200, 800, 400).with_seed(42);
        assert_lockstep(cfg, TrafficPattern::UniformRandom, &format!("{topology:?}"));
    }
}

#[test]
fn transpose_traffic_matches_the_reference() {
    assert_lockstep(mesh16(AllocatorKind::Vix), TrafficPattern::Transpose, "transpose");
}

#[test]
fn full_run_protocol_matches_the_reference() {
    // `run()` stamps the window statistics with the whole run's activity
    // and matching record: what every experiment binary reads.
    let cfg = mesh16(AllocatorKind::PacketChaining).with_seed(7);
    let stats = NetworkSim::build(cfg).expect("valid config").run();
    let mut model = ReferenceNet::new(cfg, TrafficPattern::UniformRandom);
    for _ in 0..total_cycles(&cfg) {
        model.step();
    }
    let window = model.window();
    assert_eq!(stats.packets_ejected(), window.packets);
    assert_eq!(stats.flits_ejected(), window.flits);
    assert_eq!(stats.per_source_packets(), window.per_source);
    assert_eq!(stats.avg_packet_latency(), window.avg_latency());
    assert_eq!(stats.offered_packets_per_node_cycle(), window.offered as f64 / cfg.measure as f64 / 16.0);
    assert_eq!(*stats.activity(), model.aggregate_activity());
    assert_eq!(*stats.matching(), model.matching_summary());
}

#[test]
fn sharded_engine_matches_the_reference() {
    // Three shards over the 16-router mesh (6 + 5 + 5 routers), advanced
    // a stretch of `CHECK_EVERY` cycles at a time: every ejection is
    // compared with its cycle stamp, and the full state at each stretch end.
    let cfg = mesh16(AllocatorKind::Vix).with_shards(3);
    let mut sim = NetworkSim::build(cfg).expect("valid config");
    assert_eq!(sim.effective_shards(), 3);
    let mut model = ReferenceNet::new(cfg, TrafficPattern::UniformRandom);
    let cycles = total_cycles(&cfg);
    while sim.now().0 < cycles {
        let stretch = CHECK_EVERY.min(cycles - sim.now().0);
        let at = sim.now();
        let expected: Vec<_> = (0..stretch).flat_map(|_| model.step()).collect();
        assert_eq!(ejections(&mut sim, stretch), expected, "ejections diverge in the stretch from {at}");
        assert_same_state(&sim, &model, "3 shards");
    }
}

#[test]
fn router_steps_are_pinned() {
    // A deterministic work counter: the exact number of router steps the
    // engine takes on a fixed-seed, fixed-window light-load run of the
    // paper's 8×8 VIX mesh. A scheduling regression (a router stepped with
    // nothing to do) fails here instead of hiding in wall-clock noise; a
    // lower count is progress — re-pin it. It stood at 29 296 while a
    // drained router stayed active for one more, empty, step. Stepping
    // every router every cycle would take 64 × 4 000.
    const ROUTER_STEPS: u64 = 23_739;
    let network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    let cfg = SimConfig::new(network, 0.005).with_windows(1_000, 2_000, 1_000).with_seed(2014);
    let mut sim = NetworkSim::build(cfg).expect("valid config");
    for _ in 0..4_000 {
        sim.step();
    }
    assert_eq!(sim.router_steps(), ROUTER_STEPS, "router steps moved");
}
