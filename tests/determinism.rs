//! Reproducibility: identical seeds must give bit-identical results at
//! every level of the stack — the property that makes the benchmark
//! harness's numbers citable.

use vix::manycore::{ManycoreSystem, Mix};
use vix::prelude::*;

#[test]
fn network_runs_are_bit_identical() {
    let make = || {
        let network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
        let cfg = SimConfig::new(network, 0.08).with_windows(300, 1_200, 800).with_seed(1234);
        NetworkSim::build(cfg).unwrap().run()
    };
    let a = make();
    let b = make();
    assert_eq!(a.packets_ejected(), b.packets_ejected());
    assert_eq!(a.flits_ejected(), b.flits_ejected());
    assert_eq!(a.per_source_packets(), b.per_source_packets());
    assert_eq!(a.avg_packet_latency(), b.avg_packet_latency());
    assert_eq!(a.activity(), b.activity());
}

#[test]
fn seeds_actually_matter() {
    let run = |seed| {
        let network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::InputFirst);
        let cfg = SimConfig::new(network, 0.08).with_windows(300, 1_200, 800).with_seed(seed);
        NetworkSim::build(cfg).unwrap().run().packets_ejected()
    };
    assert_ne!(run(1), run(2), "different seeds must explore different traffic");
}

#[test]
fn manycore_runs_are_bit_identical() {
    let mix = &Mix::table4()[1];
    let a = ManycoreSystem::build(mix, AllocatorKind::InputFirst, 99).run_windows(200, 800);
    let b = ManycoreSystem::build(mix, AllocatorKind::InputFirst, 99).run_windows(200, 800);
    assert_eq!(a, b);
}

#[test]
fn parallel_sweeps_match_serial_point_for_point() {
    let sweep = |jobs: usize| {
        let network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
        let base = SimConfig::new(network, 0.0).with_windows(300, 1_200, 800).with_seed(9);
        LoadSweep::new(base)
            .with_rates(&[0.02, 0.05, 0.08, 0.10])
            .with_replications(2)
            .with_jobs(jobs)
            .run()
            .unwrap()
            .points()
            .to_vec()
    };
    let serial = sweep(1);
    for jobs in [4, 0] {
        let parallel = sweep(jobs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.rate, p.rate, "jobs={jobs} must preserve point order");
            let (a, b) = (&s.stats, &p.stats);
            assert_eq!(a.packets_ejected(), b.packets_ejected(), "jobs={jobs}");
            assert_eq!(a.flits_ejected(), b.flits_ejected(), "jobs={jobs}");
            assert_eq!(a.per_source_packets(), b.per_source_packets(), "jobs={jobs}");
            assert_eq!(a.avg_packet_latency(), b.avg_packet_latency(), "jobs={jobs}");
            assert_eq!(a.activity(), b.activity(), "jobs={jobs}");
        }
    }
}

#[test]
fn sweeps_are_invariant_over_the_shards_x_jobs_grid() {
    // The two parallelism axes — `jobs` worker threads across sweep
    // points, `shards` worker threads inside each simulation — must
    // compose without leaking into the results: every (shards, jobs)
    // combination reproduces the (1, 1) sweep bit-for-bit, for every
    // allocator configuration.
    let allocators = [
        AllocatorKind::InputFirst,
        AllocatorKind::OutputFirst,
        AllocatorKind::Wavefront,
        AllocatorKind::AugmentingPath,
        AllocatorKind::Vix,
        AllocatorKind::WavefrontVix,
        AllocatorKind::PacketChaining,
        AllocatorKind::Islip(2),
    ];
    for kind in allocators {
        let sweep = |shards: usize, jobs: usize| {
            let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
            network.nodes = 16;
            let base = SimConfig::new(network, 0.0)
                .with_windows(200, 600, 400)
                .with_seed(0xD5EED)
                .with_shards(shards);
            LoadSweep::new(base)
                .with_rates(&[0.03, 0.06])
                .with_jobs(jobs)
                .run()
                .unwrap()
                .points()
                .to_vec()
        };
        let reference = sweep(1, 1);
        // The last cell is `shards = auto` under a two-worker pool: the
        // sweep resolves it to each job's share of the cores.
        for (shards, jobs) in [(2, 1), (2, 2), (4, 1), (4, 2), (0, 2)] {
            assert_eq!(
                sweep(shards, jobs),
                reference,
                "{kind:?}: shards={shards} x jobs={jobs} leaked into sweep results"
            );
        }
    }
}

/// FNV-1a over a stream of `u64` words. Hand-rolled because the golden
/// constants below must survive Rust upgrades, and `DefaultHasher`'s
/// output is explicitly not guaranteed stable across releases.
fn fnv1a(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Drives one allocator for 500 cycles of pseudo-random request traffic
/// (speculative bits, ages, and packet-chaining feedback included) and
/// hashes the full grant trace: cycle number plus every granted
/// `(port, vc, out_port)` triple in emission order.
fn grant_trace_hash(kind: vix::AllocatorKind) -> u64 {
    use vix::alloc::build_allocator;
    use vix::core::{
        AllocatorKind, PortId, RequestSet, RouterConfig, SwitchRequest, VcId, VirtualInputs,
    };
    use vix_rng::{rngs::StdRng, Rng, SeedableRng};

    const PORTS: usize = 5;
    const VCS: usize = 6;
    let mut router = RouterConfig::paper_default(PORTS);
    if matches!(kind, AllocatorKind::Vix | AllocatorKind::WavefrontVix) {
        router = router.with_virtual_inputs(VirtualInputs::PerPort(2));
    }
    let mut alloc = build_allocator(kind, &router);
    let mut rng = StdRng::seed_from_u64(0x51C4_B0A7);
    let mut requests = RequestSet::new(PORTS, VCS);
    let mut grants = vix::core::GrantSet::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cycle in 0..500u64 {
        requests.clear();
        for port in 0..PORTS {
            for vc in 0..VCS {
                if rng.gen_range(0..100_u64) < 55 {
                    requests.push(SwitchRequest {
                        port: PortId(port),
                        vc: VcId(vc),
                        out_port: PortId(rng.gen_range(0..PORTS)),
                        speculative: rng.gen_range(0..4_u64) == 0,
                        age: rng.gen_range(0..16_u64),
                    });
                }
            }
        }
        alloc.allocate_into(&requests, &mut grants);
        grants.validate_against(&requests, alloc.partition()).expect("grants must be legal");
        fnv1a(&mut h, cycle);
        for g in grants.iter() {
            fnv1a(&mut h, g.port.0 as u64);
            fnv1a(&mut h, g.vc.0 as u64);
            fnv1a(&mut h, g.out_port.0 as u64);
        }
        alloc.observe_traversals(&grants);
    }
    h
}

/// Golden grant traces recorded from the pre-refactor allocators (the
/// `allocate(&RequestSet) -> GrantSet` era). The buffer-reuse refactor —
/// `allocate_into` plus owned scratch — must reproduce every trace
/// bit-for-bit; a mismatch here means allocator *behaviour* changed, not
/// just its memory profile.
#[test]
fn grant_traces_match_goldens() {
    use vix::AllocatorKind;
    let goldens: &[(AllocatorKind, u64)] = &[
        (AllocatorKind::InputFirst, 0x2D7B_8B20_18DD_3E10),
        (AllocatorKind::OutputFirst, 0x8B40_4CBC_BCF9_F828),
        (AllocatorKind::Wavefront, 0x0AB1_07F0_3969_6126),
        (AllocatorKind::AugmentingPath, 0xDFE1_36EF_FB69_7997),
        (AllocatorKind::Vix, 0x5964_013F_FFC2_7D9B),
        (AllocatorKind::WavefrontVix, 0x330B_6E69_AF93_401D),
        (AllocatorKind::PacketChaining, 0x78FA_F35F_1509_8A3B),
        (AllocatorKind::Islip(2), 0xA2C7_4231_3DFD_01A2),
    ];
    for &(kind, expected) in goldens {
        let got = grant_trace_hash(kind);
        assert_eq!(got, expected, "{kind:?}: grant trace diverged from recorded golden");
    }
}

#[test]
fn single_router_harness_is_deterministic() {
    use vix::alloc::build_allocator;
    use vix::RouterConfig;
    let run = || {
        let router = RouterConfig::paper_default(5);
        SingleRouterHarness::new(build_allocator(AllocatorKind::Wavefront, &router), 5, 6, 77)
            .run(2_000)
            .flits_per_cycle()
    };
    assert_eq!(run(), run());
}

/// Runs mesh-16 under `router` and `allocator` at `rate` with tracing on,
/// for a `measure`-cycle window, and hashes the recorded trace: every byte
/// of its JSON lines, then the event count.
fn recorded_trace_hash(
    allocator: AllocatorKind,
    router: RouterConfig,
    rate: f64,
    measure: u64,
) -> (u64, usize) {
    let mut network =
        NetworkConfig::paper_default(TopologyKind::Mesh, allocator).with_router(router);
    network.nodes = 16;
    let telemetry = TelemetrySettings::enabled().with_trace_capacity(1 << 20);
    let cfg = SimConfig::new(network, rate)
        .with_windows(200, measure, 400)
        .with_seed(0x7A_CE)
        .with_telemetry(telemetry);
    let mut sim = NetworkSim::build(cfg).expect("valid config");
    sim.run_cycles(cfg.warmup + cfg.measure + cfg.drain);
    let ring = sim.telemetry().trace_ring();
    assert_eq!(ring.dropped(), 0, "the ring must hold the whole run");
    let mut bytes = Vec::new();
    ring.write_jsonl(&mut bytes).expect("write to Vec cannot fail");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fnv1a(&mut h, u64::from_le_bytes(word));
    }
    fnv1a(&mut h, bytes.len() as u64);
    (h, ring.len())
}

/// Golden network-level traces: every `VcAlloc`, `SaRequest`, `SaGrant`
/// and `SwitchTraversal` event the routers record, byte for byte, under
/// four pipeline configurations that between them take every branch of
/// the router step (speculative and non-speculative requests, five-stage
/// RC, age-based SA, dimension-aware and max-credit VA, packet chaining),
/// plus a light-load run in which most router steps find a single occupied
/// input VC. A mismatch means the simulated behaviour or its trace order
/// changed.
#[test]
fn recorded_traces_match_goldens() {
    let paper = RouterConfig::paper_default(5);
    let vix2 = paper.with_virtual_inputs(VirtualInputs::PerPort(2));
    let cases: [(&str, AllocatorKind, RouterConfig, f64, u64, u64, usize); 5] = [
        ("VIX k=2, speculative", AllocatorKind::Vix, vix2, 0.06, 600, 0x85CF_6AAA_6E6F_F5FC, 62_038),
        (
            "IF five-stage",
            AllocatorKind::InputFirst,
            paper.with_pipeline(vix::PipelineKind::FiveStage),
            0.06,
            600,
            0xA65F_24A4_3056_0904,
            63_593,
        ),
        (
            "VIX k=3, no speculation, age-based SA, max-credit VA",
            AllocatorKind::Vix,
            paper
                .with_virtual_inputs(VirtualInputs::PerPort(3))
                .with_speculation(false)
                .with_age_based_sa(true)
                .with_dimension_aware_va(false),
            0.06,
            600,
            0x583F_98DD_3658_F762,
            63_107,
        ),
        ("packet chaining", AllocatorKind::PacketChaining, paper, 0.06, 600, 0xCFD3_F4DE_F3B4_CBB7, 61_683),
        ("VIX k=2, light load", AllocatorKind::Vix, vix2, 0.005, 2_400, 0x8809_4E77_FF5C_3B44, 15_239),
    ];
    for (what, allocator, router, rate, measure, hash, events) in cases {
        let got = recorded_trace_hash(allocator, router, rate, measure);
        assert_eq!(got, (hash, events), "{what}: recorded trace diverged from its golden");
    }
}
