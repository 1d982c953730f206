//! The lockstep harness shared by the suites that hold the production
//! engine to the reference simulator in `tests/reference/`: the common
//! configurations, the full-state comparison and the cycle-by-cycle loop.

use crate::reference::ReferenceNet;
use vix::power::{EnergyBreakdown, EnergyModel};
use vix::prelude::*;
use vix::{Cycle, PacketDescriptor, PipelineKind};

/// All eight allocator configurations exercised by the golden traces.
pub const ALL_ALLOCATORS: [AllocatorKind; 8] = [
    AllocatorKind::InputFirst,
    AllocatorKind::OutputFirst,
    AllocatorKind::Wavefront,
    AllocatorKind::AugmentingPath,
    AllocatorKind::Vix,
    AllocatorKind::WavefrontVix,
    AllocatorKind::PacketChaining,
    AllocatorKind::Islip(2),
];

/// Cycles between full-state comparisons.
pub const CHECK_EVERY: u64 = 97;

/// A 4×4 mesh of `kind` routers at a congested-but-stable load: buffers
/// fill, credits stall, speculation fails, and routers go quiet and wake
/// again — where an engine shortcut would show.
pub fn mesh16(kind: AllocatorKind) -> SimConfig {
    let network = NetworkConfig { nodes: 16, ..NetworkConfig::paper_default(TopologyKind::Mesh, kind) };
    SimConfig::new(network, 0.06).with_windows(300, 1_200, 500).with_seed(0xD1CE)
}

/// [`mesh16`] under each router variant the ablations reach: every router
/// step branch the default IF and VIX routers leave untaken.
pub fn ablation_variants() -> [(&'static str, SimConfig); 5] {
    let (base, vix) = (mesh16(AllocatorKind::InputFirst), mesh16(AllocatorKind::Vix));
    let with = |cfg: SimConfig, router: RouterConfig| SimConfig {
        network: cfg.network.with_router(router),
        ..cfg
    };
    let (base_router, vix_router) = (base.network.router, vix.network.router);
    [
        ("five-stage", with(base, base_router.with_pipeline(PipelineKind::FiveStage))),
        ("non-speculative", with(vix, vix_router.with_speculation(false))),
        ("dimension-oblivious VA", with(vix, vix_router.with_dimension_aware_va(false))),
        ("VIX k = 3", with(vix, vix_router.with_virtual_inputs(VirtualInputs::PerPort(3)))),
        ("oldest-first SA", with(vix, vix_router.with_age_based_sa(true))),
    ]
}

pub fn total_cycles(cfg: &SimConfig) -> u64 {
    cfg.warmup + cfg.measure + cfg.drain
}

/// Asserts that everything the engine reports about the run so far equals
/// the model's account of it.
pub fn assert_same_state(sim: &NetworkSim, model: &ReferenceNet, what: &str) {
    let at = sim.now();
    assert_eq!(sim.per_router_activity(), model.per_router_activity(), "{what} @ {at}: router activity");
    assert_eq!(sim.aggregate_activity(), model.aggregate_activity(), "{what} @ {at}: aggregate activity");
    assert_eq!(sim.matching_summary(), model.matching_summary(), "{what} @ {at}: matching record");
    let (stats, window) = (sim.stats(), model.window());
    assert_eq!(stats.packets_ejected(), window.packets, "{what} @ {at}: packets");
    assert_eq!(stats.flits_ejected(), window.flits, "{what} @ {at}: flits");
    assert_eq!(stats.per_source_packets(), window.per_source, "{what} @ {at}: per-source packets");
    assert_eq!(stats.avg_packet_latency(), window.avg_latency(), "{what} @ {at}: latency");
    let energy = EnergyModel::cmos45();
    let span = EnergyModel::span_factor(&model.router_config());
    assert_eq!(
        EnergyBreakdown::from_activity(&energy, &sim.aggregate_activity(), span),
        EnergyBreakdown::from_activity(&energy, &model.aggregate_activity(), span),
        "{what} @ {at}: energy"
    );
}

/// Advances the engine by `cycles` cycles and returns the packets they
/// delivered, in the model's terms.
pub fn ejections(sim: &mut NetworkSim, cycles: u64) -> Vec<(PacketDescriptor, Cycle)> {
    let mut delivered = Vec::new();
    sim.run_cycles_into(cycles, &mut delivered);
    delivered.into_iter().map(|e| (e.packet, e.at)).collect()
}

/// Runs `cfg` on both simulators in lockstep, one cycle at a time, for
/// the whole warmup + measure + drain protocol.
pub fn assert_lockstep(cfg: SimConfig, pattern: TrafficPattern, what: &str) {
    let mut sim = NetworkSim::build_with_pattern(cfg, pattern.clone()).expect("valid config");
    let mut model = ReferenceNet::new(cfg, pattern);
    let cycles = total_cycles(&cfg);
    let mut delivered = 0;
    for cycle in 1..=cycles {
        let expected = model.step();
        delivered += expected.len();
        assert_eq!(ejections(&mut sim, 1), expected, "{what}: ejections diverge at cycle {}", cycle - 1);
        if cycle % CHECK_EVERY == 0 || cycle == cycles {
            assert_same_state(&sim, &model, what);
        }
    }
    assert!(delivered > 100, "{what}: only {delivered} packets delivered — no traffic to compare");
}
