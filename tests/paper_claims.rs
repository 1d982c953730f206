//! Fast checks of the paper's quantitative claims that do not need long
//! network runs: circuit delays (Tables 1 and 3), single-router
//! allocation efficiency (Fig. 7), and the energy model (Fig. 11).

use vix::alloc::{build_allocator, Allocator, AllocatorConfig, MaxMatchingAllocator};
use vix::delay::{allocator_delay, RouterDesign};
use vix::power::{EnergyBreakdown, EnergyModel};
use vix::prelude::*;
use vix::{ActivityCounters, RouterConfig, VirtualInputs};

#[test]
fn table1_stage_delays_within_five_percent() {
    let paper: [(f64, f64, f64); 6] = [
        (300.0, 280.0, 167.0),
        (300.0, 290.0, 205.0),
        (340.0, 315.0, 205.0),
        (340.0, 330.0, 289.0),
        (360.0, 340.0, 238.0),
        (360.0, 345.0, 359.0),
    ];
    for (design, (va, sa, xbar)) in RouterDesign::table1().into_iter().zip(paper) {
        let d = design.stage_delays();
        for (got, expect, stage) in [(d.va.0, va, "VA"), (d.sa.0, sa, "SA"), (d.crossbar.0, xbar, "Xbar")] {
            assert!(
                (got - expect).abs() / expect < 0.05,
                "{} {stage}: {got:.0} vs paper {expect}",
                design.name
            );
        }
    }
}

#[test]
fn table3_separable_vs_wavefront() {
    let sep = allocator_delay(AllocatorKind::InputFirst, 5, 6, 1).picoseconds().unwrap();
    let wf = allocator_delay(AllocatorKind::Wavefront, 5, 6, 1).picoseconds().unwrap();
    assert!((wf.relative_to(sep) - 0.39).abs() < 0.05, "WF must cost ~39% more than separable");
    assert!(allocator_delay(AllocatorKind::AugmentingPath, 5, 6, 1).picoseconds().is_none());
}

#[test]
fn fig7_single_router_efficiency_ordering() {
    let throughput = |kind: AllocatorKind, radix: usize| {
        let mut router = RouterConfig::paper_default(radix);
        if kind == AllocatorKind::Vix {
            router = router.with_virtual_inputs(VirtualInputs::PerPort(2));
        }
        SingleRouterHarness::new(build_allocator(kind, &router), radix, 6, 1)
            .run(8_000)
            .flits_per_cycle()
    };
    for radix in [5, 8, 10] {
        let fi = throughput(AllocatorKind::InputFirst, radix);
        let vix = throughput(AllocatorKind::Vix, radix);
        let ap = throughput(AllocatorKind::AugmentingPath, radix);
        assert!(vix > fi * 1.20, "radix {radix}: VIX {vix:.2} vs IF {fi:.2}");
        assert!(ap > fi * 1.30, "radix {radix}: AP {ap:.2} vs IF {fi:.2}");

        let ideal_router = RouterConfig::paper_default(radix).with_virtual_inputs(VirtualInputs::Ideal);
        let ideal_alloc = MaxMatchingAllocator::new(AllocatorConfig::from_router(&ideal_router));
        let ideal = SingleRouterHarness::new(Allocator::MaxMatching(Box::new(ideal_alloc)), radix, 6, 1)
            .run(8_000)
            .flits_per_cycle();
        assert!(ideal >= ap * 0.995, "ideal must top AP");
        assert!(vix > 0.84 * ideal, "radix {radix}: VIX must be near ideal (Fig. 7)");
    }
}

#[test]
fn vix_never_slows_the_router_clock() {
    for topo in [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly] {
        let base = RouterDesign::paper(topo, false).stage_delays();
        let vix = RouterDesign::paper(topo, true).stage_delays();
        assert_eq!(base.cycle_time(), vix.cycle_time(), "{topo:?}");
        assert!(vix.crossbar_off_critical_path(), "{topo:?}: crossbar became critical");
    }
}

#[test]
fn fig11_vix_energy_premium_is_small() {
    // Identical traffic, only the crossbar span differs.
    let activity = ActivityCounters {
        cycles: 10_000,
        routers: 64,
        buffer_writes: 1_600_000,
        buffer_reads: 1_600_000,
        crossbar_traversals: 1_600_000,
        link_traversals: 1_350_000,
        ejections: 250_000,
        sa_arbitrations: 3_000_000,
        va_arbitrations: 60_000,
        bits_delivered: 250_000 * 128,
    };
    let model = EnergyModel::cmos45();
    let base = EnergyBreakdown::from_activity(&model, &activity, 1.0);
    let vix = EnergyBreakdown::from_activity(&model, &activity, 1.5);
    let premium = vix.total_pj() / base.total_pj() - 1.0;
    assert!((0.015..=0.07).contains(&premium), "VIX energy premium {premium:.3} (paper: ~4%)");
}

#[test]
fn buffer_reduction_claim_holds_at_allocator_level() {
    // §4.6 at the single-router level: a 4-VC VIX router outperforms a
    // 6-VC baseline router.
    let six = SingleRouterHarness::new(
        build_allocator(AllocatorKind::InputFirst, &RouterConfig::new(5, 6, 5)),
        5,
        6,
        9,
    )
    .run(8_000)
    .flits_per_cycle();
    let four_vix = SingleRouterHarness::new(
        build_allocator(
            AllocatorKind::Vix,
            &RouterConfig::new(5, 4, 5).with_virtual_inputs(VirtualInputs::PerPort(2)),
        ),
        5,
        4,
        9,
    )
    .run(8_000)
    .flits_per_cycle();
    assert!(four_vix > six * 1.05, "4-VC VIX {four_vix:.2} vs 6-VC IF {six:.2}");
}
