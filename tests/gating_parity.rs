//! The activity-gated engine against an ungated schedule.
//!
//! The engine steps a router only when it has work and replays the
//! skipped cycles as `note_idle_cycles`; the reference simulator in
//! `tests/reference/` clocks every router every cycle and calls the
//! allocator on every cycle, empty request set or not. Gating is a pure
//! optimisation, so the two must agree exactly: ejection by ejection, and
//! in the activity counters the power model turns into clock and leakage
//! energy. `tests/reference_parity.rs` holds the engine to the same model
//! across every configuration at congested load.

mod lockstep;
mod reference;

use lockstep::{ablation_variants, assert_lockstep, mesh16, total_cycles, ALL_ALLOCATORS};
use reference::ReferenceNet;
use vix::power::{EnergyBreakdown, EnergyModel};
use vix::prelude::*;

#[test]
fn gated_and_ungated_traces_match_for_every_allocator() {
    // Light load: most routers sit quiescent most cycles, so the engine
    // skips them and replays their idle cycles while the model clocks
    // every one of them — the regime where a gating bug would surface. A
    // woken router mostly holds one occupied VC and takes the light step,
    // so every router variant runs here too; the five-stage one keeps the
    // general step. In a non-speculative wavefront router a VA-only light
    // step must replay the allocator's empty-cycle drift, which no other
    // input exercises.
    let defaults = ALL_ALLOCATORS.map(|kind| (format!("{kind:?}"), mesh16(kind)));
    let variants = ablation_variants().map(|(what, cfg)| (what.to_string(), cfg));
    let wf = mesh16(AllocatorKind::Wavefront);
    let wf_router = wf.network.router.with_speculation(false);
    let wf = SimConfig { network: wf.network.with_router(wf_router), ..wf };
    let extra = [("non-speculative Wavefront".to_string(), wf)];
    for (what, cfg) in defaults.into_iter().chain(variants).chain(extra) {
        let cfg = SimConfig { injection_rate: 0.01, ..cfg };
        assert_lockstep(cfg, TrafficPattern::UniformRandom, &format!("{what} at light load"));
    }
}

#[test]
fn gated_and_ungated_runs_report_identical_energy() {
    // The power model multiplies `routers × cycles` for clock and leakage
    // energy, so any idle-cycle under-counting by the gated engine (or
    // double-counting through `ActivityCounters::merge`) would surface
    // here as an energy delta.
    let model = EnergyModel::cmos45();
    for kind in [AllocatorKind::InputFirst, AllocatorKind::Vix] {
        let network = NetworkConfig { nodes: 16, ..NetworkConfig::paper_default(TopologyKind::Mesh, kind) };
        let cfg = SimConfig::new(network, 0.04).with_windows(200, 800, 400).with_seed(3);
        let span = EnergyModel::span_factor(&cfg.network.router);
        let stats = NetworkSim::build(cfg).expect("valid config").run();
        let mut reference = ReferenceNet::new(cfg, TrafficPattern::UniformRandom);
        for _ in 0..total_cycles(&cfg) {
            reference.step();
        }
        let window = reference.window();
        assert_eq!(stats.packets_ejected(), window.packets, "{kind:?}: packets");
        assert_eq!(stats.flits_ejected(), window.flits, "{kind:?}: flits");
        assert_eq!(
            stats.offered_packets_per_node_cycle(),
            window.offered as f64 / cfg.measure as f64 / 16.0,
            "{kind:?}: offered load"
        );
        let gated = EnergyBreakdown::from_activity(&model, stats.activity(), span);
        let ungated = EnergyBreakdown::from_activity(&model, &reference.aggregate_activity(), span);
        assert_eq!(gated.total_pj(), ungated.total_pj(), "{kind:?}: total energy diverged");
        assert_eq!(gated.energy_per_bit(), ungated.energy_per_bit(), "{kind:?}: energy/bit diverged");
        for ((name, g), (_, u)) in gated.components().iter().zip(ungated.components().iter()) {
            assert_eq!(g, u, "{kind:?}: {name} energy diverged");
        }
    }
}
