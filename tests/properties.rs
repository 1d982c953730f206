//! Workspace-level randomized tests: arbitrary (small) configurations must
//! simulate cleanly and respect conservation invariants.
//!
//! Each case is a pure function of its seed — a failure message names the
//! seed to replay.

use vix::prelude::*;
use vix_rng::rngs::StdRng;
use vix_rng::{Rng, SeedableRng};

const ALLOCATORS: [AllocatorKind; 6] = [
    AllocatorKind::InputFirst,
    AllocatorKind::Vix,
    AllocatorKind::Wavefront,
    AllocatorKind::AugmentingPath,
    AllocatorKind::PacketChaining,
    AllocatorKind::Islip(2),
];

/// Any sane configuration runs to completion, drains, and conserves flits
/// — on every topology, stepped serially and across shard boundaries. A
/// drained network also holds no packet descriptor: every packet that
/// entered the ledger left it when its tail ejected.
#[test]
fn random_configs_conserve_flits() {
    let topologies = [
        (TopologyKind::Mesh, 16),
        (TopologyKind::CMesh, 36),
        (TopologyKind::FlattenedButterfly, 36),
    ];
    for (t, &(topology, nodes)) in topologies.iter().enumerate() {
        for case in 0..8u64 {
            let seed = case * 100 + t as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let allocator = ALLOCATORS[rng.gen_range(0..ALLOCATORS.len())];
            let mut network = NetworkConfig::paper_default(topology, allocator);
            network.nodes = nodes;
            network.router = network
                .router
                .with_vcs([2, 4, 6][rng.gen_range(0..3usize)])
                .with_buffer_depth(rng.gen_range(2..6usize));
            let packet_len = rng.gen_range(1..5usize);
            let rate = (rng.gen_range(5..80u64) as f64 / 1000.0).min(0.9 / packet_len as f64);
            let cfg = SimConfig::new(network, rate)
                .with_packet_len(packet_len)
                .with_windows(100, 600, 1_200)
                .with_seed(rng.gen_range(0..1000u64));
            let ctx = format!("seed {seed}: {topology:?}/{nodes}, {}, rate {rate}", allocator.label());

            let mut activity = Vec::new();
            for shards in [1, 3] {
                let mut sim = NetworkSim::build(cfg.with_shards(shards)).expect("valid config");
                sim.run_cycles(1_900);
                assert!(
                    sim.is_drained(),
                    "{ctx}, shards {shards}: flits or packet descriptors left after the drain"
                );
                let a = sim.aggregate_activity();
                assert_eq!(a.buffer_writes, a.buffer_reads, "{ctx}, shards {shards}: flits lost");
                assert_eq!(
                    a.crossbar_traversals,
                    a.link_traversals + a.ejections,
                    "{ctx}, shards {shards}: a crossed flit neither left on a link nor ejected"
                );
                assert!(a.ejections > 0, "{ctx}, shards {shards}: nothing moved");
                activity.push(a);
            }
            assert_eq!(activity[0], activity[1], "{ctx}: sharded run diverged from serial");
        }
    }
}

/// Offered and accepted traffic agree at low load for every allocator.
#[test]
fn low_load_work_conservation() {
    for (seed, allocator) in (0..12u64).zip(ALLOCATORS.iter().cycle()) {
        let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, *allocator);
        network.nodes = 16;
        let cfg = SimConfig::new(network, 0.02).with_windows(200, 1_500, 1_200).with_seed(seed);
        let stats = NetworkSim::build(cfg).expect("valid").run();
        let offered = stats.offered_packets_per_node_cycle();
        let accepted = stats.accepted_packets_per_node_cycle();
        assert!(offered > 0.0, "seed {seed}: nothing offered");
        assert!(
            (offered - accepted).abs() / offered < 0.2,
            "seed {seed}, {}: offered {offered} accepted {accepted}",
            allocator.label()
        );
    }
}
