//! Allocator showdown: every switch-allocation scheme in the crate, on
//! both harness levels the paper uses — a single saturated router (Fig. 7)
//! and the full 64-node mesh (Figs. 8–10) — plus the circuit-delay story
//! (Table 3) that motivates VIX in the first place.
//!
//! Run with: `cargo run --release --example allocator_showdown`

use vix::alloc::{AllocatorConfig, MaxMatchingAllocator};
use vix::delay::allocator_delay;
use vix::prelude::*;
use vix::{RouterConfig, VirtualInputs};

fn main() -> Result<(), ConfigError> {
    let kinds = [
        AllocatorKind::InputFirst,
        AllocatorKind::Wavefront,
        AllocatorKind::AugmentingPath,
        AllocatorKind::PacketChaining,
        AllocatorKind::Islip(2),
        AllocatorKind::Vix,
    ];

    // --- Level 1: a single saturated radix-5 router (Fig. 7's setup).
    println!("single saturated radix-5 router, 6 VCs (flits/cycle; max 5):\n");
    for kind in kinds {
        let mut router = RouterConfig::paper_default(5);
        if kind == AllocatorKind::Vix {
            router = router.with_virtual_inputs(VirtualInputs::PerPort(2));
        }
        let mut harness = SingleRouterHarness::new(build_allocator(kind, &router), 5, 6, 7);
        let flits = harness.run(10_000).flits_per_cycle();
        let delay = allocator_delay(kind, 5, 6, router.virtual_inputs_per_port());
        println!("  {:<6} {:>5.2} flits/cycle   circuit: {}", kind.label(), flits, delay);
    }
    let ideal_router = RouterConfig::paper_default(5).with_virtual_inputs(VirtualInputs::Ideal);
    let ideal_alloc = MaxMatchingAllocator::new(AllocatorConfig::from_router(&ideal_router));
    let mut ideal = SingleRouterHarness::new(Allocator::MaxMatching(Box::new(ideal_alloc)), 5, 6, 7);
    println!("  {:<6} {:>5.2} flits/cycle   circuit: n/a (upper bound)", "Ideal", ideal.run(10_000).flits_per_cycle());

    // --- Level 2: the full 64-node mesh at high load.
    println!("\n64-node mesh at 0.11 pkt/cycle/node (near saturation):\n");
    for kind in kinds {
        let network = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
        let cfg = SimConfig::new(network, 0.11).with_windows(1_500, 6_000, 2_000);
        let stats = NetworkSim::build(cfg)?.run();
        println!(
            "  {:<6} accepted {:.4} pkt/n/c   latency {:>6.1}   fairness max/min {:>5.2}",
            kind.label(),
            stats.accepted_packets_per_node_cycle(),
            stats.avg_packet_latency(),
            stats.fairness_ratio()
        );
    }

    println!();
    println!("The paper's punchline reproduces: schemes that win inside one router");
    println!("(AP's maximum matching) can lose at the network level to fairness, while");
    println!("VIX wins both levels at separable-allocator circuit cost.");
    Ok(())
}
