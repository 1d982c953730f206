//! Scalar-vs-bitset differential suite.
//!
//! The word-parallel kernels (`KernelKind::Bitset`) are a pure
//! micro-architecture change: for every allocator, every partition, every
//! arbiter flavour, and every cycle of a stateful trace they must emit the
//! *exact* grant sequence of the scalar reference kernels — same grants,
//! same order. This suite drives scalar/bitset twins through seeded random
//! traffic (speculative bits, ages, traversal feedback, idle gaps) and
//! fails on the first divergence.
//!
//! A shrinking, generative variant of the same property lives behind the
//! off-by-default `proptest` feature in `tests/properties.rs`; this file is
//! the deterministic tier-1 version that always runs.

use vix_alloc::{
    AllocatorConfig, IslipAllocator, KernelKind, MaxMatchingAllocator, OutputFirstAllocator,
    PacketChainingAllocator, PriorityPolicy, SeparableAllocator, SwitchAllocator,
    WavefrontAllocator,
};
use vix_arbiter::ArbiterKind;
use vix_core::{PortId, RequestSet, SwitchRequest, VcId, VixPartition};
use vix_rng::{rngs::StdRng, Rng, SeedableRng};

/// One allocator flavour under test: a display label plus a factory that
/// builds it with either kernel (everything else identical).
struct Flavour {
    label: &'static str,
    ports: usize,
    vcs: usize,
    build: Box<dyn Fn(KernelKind) -> Box<dyn SwitchAllocator>>,
}

fn flavour(
    label: &'static str,
    ports: usize,
    vcs: usize,
    build: impl Fn(KernelKind) -> Box<dyn SwitchAllocator> + 'static,
) -> Flavour {
    Flavour { label, ports, vcs, build: Box::new(build) }
}

/// Every allocator × partition × arbiter × priority combination with a
/// distinct bitset code path. The 16-port shapes push output-first's flat
/// `ports × vcs` arbiter domain past 64 bits (multi-word `peek_words`) and
/// give the ideal matcher the paper's 64-virtual-input geometry.
fn flavours() -> Vec<Flavour> {
    let base5 = AllocatorConfig::new(5, VixPartition::baseline(6));
    let vix2 = AllocatorConfig::new(5, VixPartition::even(6, 2).unwrap());
    let vix3 = AllocatorConfig::new(5, VixPartition::even(6, 3).unwrap());
    let ideal5 = AllocatorConfig::new(5, VixPartition::even(6, 6).unwrap());
    let base16 = AllocatorConfig::new(16, VixPartition::baseline(6));
    let vix16 = AllocatorConfig::new(16, VixPartition::even(4, 4).unwrap());
    vec![
        flavour("IF", 5, 6, move |k| Box::new(SeparableAllocator::new(base5.with_kernel(k)))),
        flavour("VIX-2", 5, 6, move |k| Box::new(SeparableAllocator::new(vix2.with_kernel(k)))),
        flavour("VIX-2/oldest", 5, 6, move |k| {
            Box::new(SeparableAllocator::new(
                vix2.with_priority(PriorityPolicy::OldestFirst).with_kernel(k),
            ))
        }),
        flavour("VIX-2/matrix", 5, 6, move |k| {
            Box::new(SeparableAllocator::new(vix2.with_arbiter(ArbiterKind::Matrix).with_kernel(k)))
        }),
        flavour("VIX-3/static", 5, 6, move |k| {
            Box::new(SeparableAllocator::new(vix3.with_arbiter(ArbiterKind::Static).with_kernel(k)))
        }),
        flavour("VIX-4x16", 16, 4, move |k| {
            Box::new(SeparableAllocator::new(vix16.with_kernel(k)))
        }),
        flavour("WF", 5, 6, move |k| Box::new(WavefrontAllocator::new(base5.with_kernel(k)))),
        flavour("WF-VIX2", 5, 6, move |k| Box::new(WavefrontAllocator::new(vix2.with_kernel(k)))),
        flavour("WF-VIX4x16", 16, 4, move |k| {
            Box::new(WavefrontAllocator::new(vix16.with_kernel(k)))
        }),
        flavour("AP", 5, 6, move |k| Box::new(MaxMatchingAllocator::new(base5.with_kernel(k)))),
        flavour("Ideal", 5, 6, move |k| Box::new(MaxMatchingAllocator::new(ideal5.with_kernel(k)))),
        flavour("Ideal-4x16", 16, 4, move |k| {
            Box::new(MaxMatchingAllocator::new(vix16.with_kernel(k)))
        }),
        flavour("OF", 5, 6, move |k| Box::new(OutputFirstAllocator::new(base5.with_kernel(k)))),
        flavour("OF-16x6", 16, 6, move |k| {
            Box::new(OutputFirstAllocator::new(base16.with_kernel(k)))
        }),
        flavour("PC", 5, 6, move |k| Box::new(PacketChainingAllocator::new(base5.with_kernel(k)))),
        flavour("PC/matrix", 5, 6, move |k| {
            Box::new(PacketChainingAllocator::new(
                base5.with_arbiter(ArbiterKind::Matrix).with_kernel(k),
            ))
        }),
        flavour("iSLIP-1", 5, 6, move |k| Box::new(IslipAllocator::new(base5.with_kernel(k), 1))),
        flavour("iSLIP-2", 5, 6, move |k| Box::new(IslipAllocator::new(base5.with_kernel(k), 2))),
    ]
}

/// Shapes that overflow a single 64-bit word somewhere in the bit-view —
/// the configurations the bitset kernels used to reject outright:
///
/// * radix-16 × 8 VC mesh shapes, up to the ideal partition's 128 virtual
///   inputs (two-word unit masks in separable/wavefront, a 128-requestor
///   flat arbiter in output-first, 128 left vertices in the matcher);
/// * a 32-port × 8 VC flattened-butterfly shape with k = 4 VIX groups
///   (128 virtual inputs across a two-word port domain);
/// * 68-port shapes whose per-output requester masks and Kuhn
///   right-vertex domain span two words (68 > 64 outputs).
fn wide_flavours() -> Vec<Flavour> {
    let mesh16x8_ideal = AllocatorConfig::new(16, VixPartition::even(8, 8).unwrap());
    let mesh16x8_vix4 = AllocatorConfig::new(16, VixPartition::even(8, 4).unwrap());
    let mesh16x8 = AllocatorConfig::new(16, VixPartition::baseline(8));
    let fbfly32x8_vix4 = AllocatorConfig::new(32, VixPartition::even(8, 4).unwrap());
    let wide68 = AllocatorConfig::new(68, VixPartition::baseline(2));
    let wide68_vix2 = AllocatorConfig::new(68, VixPartition::even(4, 2).unwrap());
    vec![
        flavour("VIX-16x8x8", 16, 8, move |k| {
            Box::new(SeparableAllocator::new(mesh16x8_ideal.with_kernel(k)))
        }),
        flavour("WF-16x8x4", 16, 8, move |k| {
            Box::new(WavefrontAllocator::new(mesh16x8_vix4.with_kernel(k)))
        }),
        flavour("Ideal-16x8", 16, 8, move |k| {
            Box::new(MaxMatchingAllocator::new(mesh16x8_ideal.with_kernel(k)))
        }),
        flavour("OF-16x8", 16, 8, move |k| {
            Box::new(OutputFirstAllocator::new(mesh16x8.with_kernel(k)))
        }),
        flavour("VIX-fbfly32x8x4", 32, 8, move |k| {
            Box::new(SeparableAllocator::new(fbfly32x8_vix4.with_kernel(k)))
        }),
        flavour("WF-fbfly32x8x4", 32, 8, move |k| {
            Box::new(WavefrontAllocator::new(fbfly32x8_vix4.with_kernel(k)))
        }),
        flavour("IF-68x2", 68, 2, move |k| {
            Box::new(SeparableAllocator::new(wide68.with_kernel(k)))
        }),
        flavour("VIX-68x4x2", 68, 4, move |k| {
            Box::new(SeparableAllocator::new(wide68_vix2.with_kernel(k)))
        }),
        flavour("AP-68", 68, 2, move |k| {
            Box::new(MaxMatchingAllocator::new(wide68.with_kernel(k)))
        }),
        flavour("OF-68x2", 68, 2, move |k| {
            Box::new(OutputFirstAllocator::new(wide68.with_kernel(k)))
        }),
        flavour("PC-68x2", 68, 2, move |k| {
            Box::new(PacketChainingAllocator::new(wide68.with_kernel(k)))
        }),
        flavour("iSLIP-68x2", 68, 2, move |k| {
            Box::new(IslipAllocator::new(wide68.with_kernel(k), 2))
        }),
    ]
}

fn random_requests(rng: &mut StdRng, ports: usize, vcs: usize, load_pct: u64) -> RequestSet {
    let mut rs = RequestSet::new(ports, vcs);
    for port in 0..ports {
        for vc in 0..vcs {
            if rng.gen_range(0..100_u64) < load_pct {
                rs.push(SwitchRequest {
                    port: PortId(port),
                    vc: VcId(vc),
                    out_port: PortId(rng.gen_range(0..ports)),
                    speculative: rng.gen_range(0..4_u64) == 0,
                    age: rng.gen_range(0..16_u64),
                });
            }
        }
    }
    rs
}

/// Drives a scalar/bitset twin pair through `cycles` cycles of identical
/// seeded traffic and asserts the grant traces never diverge. Traversal
/// feedback and idle-cycle fast-forwards are applied to both twins so the
/// comparison covers stateful behaviour (pointers, chains, offsets), not
/// just single-shot allocation.
fn assert_twins_agree(f: &Flavour, seed: u64, cycles: u64) {
    let mut scalar = (f.build)(KernelKind::Scalar);
    let mut bitset = (f.build)(KernelKind::Bitset);
    let mut rng = StdRng::seed_from_u64(seed);
    for cycle in 0..cycles {
        // Mix of loads, including empty cycles and saturation.
        let load = [0, 15, 55, 85, 100][rng.gen_range(0..5_usize)];
        let requests = random_requests(&mut rng, f.ports, f.vcs, load);
        let sg = scalar.allocate(&requests);
        let bg = bitset.allocate(&requests);
        sg.validate_against(&requests, scalar.partition())
            .unwrap_or_else(|v| panic!("{}: scalar grants invalid at cycle {cycle}: {v}", f.label));
        let sv: Vec<_> = sg.iter().collect();
        let bv: Vec<_> = bg.iter().collect();
        assert_eq!(
            sv, bv,
            "{}: kernels diverged at cycle {cycle} (seed {seed:#x})",
            f.label
        );
        scalar.observe_traversals(&sg);
        bitset.observe_traversals(&bg);
        if rng.gen_range(0..16_u64) == 0 {
            let idle = rng.gen_range(1..8_u64);
            scalar.note_idle_cycles(idle);
            bitset.note_idle_cycles(idle);
        }
    }
    // The scalar kernels scan the request set for the matching record; the
    // separable bitset kernel hands over counts from its own sweep.
    assert_eq!(
        scalar.matching_summary(),
        bitset.matching_summary(),
        "{}: matching records diverged (seed {seed:#x})",
        f.label
    );
}

#[test]
fn bitset_kernels_match_scalar_over_long_traces() {
    for f in flavours() {
        assert_twins_agree(&f, 0xD1FF_5EED, 400);
    }
}

#[test]
fn bitset_kernels_match_scalar_across_seeds() {
    for f in flavours() {
        for seed in [1_u64, 0xBEEF, 0x5CA1_AB1E] {
            assert_twins_agree(&f, seed, 120);
        }
    }
}

#[test]
fn wide_shapes_bitset_kernels_match_scalar_over_long_traces() {
    for f in wide_flavours() {
        assert_twins_agree(&f, 0xA1DE_5EED, 400);
    }
}

#[test]
fn wide_shapes_bitset_kernels_match_scalar_across_seeds() {
    for f in wide_flavours() {
        for seed in [2_u64, 0xFACE] {
            assert_twins_agree(&f, seed, 120);
        }
    }
}
