//! Scalar-vs-bitset differential suite, and the seeded properties every
//! allocator must satisfy.
//!
//! The word-parallel kernels replaced the scalar loops as a pure
//! micro-architecture change: for every allocator, every partition, every
//! arbiter flavour, and every cycle of a stateful trace they must emit the
//! *exact* grant sequence of the scalar reference kernels
//! ([`Allocator::allocate_scalar_into`], compiled for tests only) —
//! same grants, same order. The first half of this module drives twins of
//! one allocator flavour — one through each kernel — over seeded random
//! traffic (speculative bits, ages, traversal feedback, idle gaps) and
//! fails on the first divergence.
//!
//! The second half throws seeded random request sets at freshly-built
//! allocators: every grant set must satisfy the crossbar invariants, and
//! the documented dominance relations between allocators must hold
//! instance by instance. Every failure names the seed that reproduces it.

use crate::{
    Allocator, AllocatorConfig, IslipAllocator, MaxMatchingAllocator, OutputFirstAllocator,
    PacketChainingAllocator, PriorityPolicy, SeparableAllocator, WavefrontAllocator,
};
use crate::arbiter::ArbiterKind;
use vix_core::{GrantSet, PortId, RequestSet, SwitchRequest, VcId, VixPartition};
use vix_rng::{rngs::StdRng, Rng, SeedableRng};

/// One allocator flavour under test: a display label plus a factory; the
/// suite builds two and runs one through each kernel.
struct Flavour {
    label: String,
    ports: usize,
    vcs: usize,
    build: Box<dyn Fn() -> Allocator>,
}

fn flavour(
    label: impl Into<String>,
    ports: usize,
    vcs: usize,
    build: impl Fn() -> Allocator + 'static,
) -> Flavour {
    Flavour { label: label.into(), ports, vcs, build: Box::new(build) }
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
        flavour("IF", 5, 6, move || Allocator::Separable(SeparableAllocator::new(base5))),
        flavour("VIX-2", 5, 6, move || Allocator::Separable(SeparableAllocator::new(vix2))),
        flavour("VIX-2/oldest", 5, 6, move || {
            Allocator::Separable(SeparableAllocator::new(
                vix2.with_priority(PriorityPolicy::OldestFirst),
            ))
        }),
        flavour("VIX-2/matrix", 5, 6, move || {
            Allocator::Separable(SeparableAllocator::new(vix2.with_arbiter(ArbiterKind::Matrix)))
        }),
        flavour("VIX-3/static", 5, 6, move || {
            Allocator::Separable(SeparableAllocator::new(vix3.with_arbiter(ArbiterKind::Static)))
        }),
        flavour("VIX-4x16", 16, 4, move || {
            Allocator::Separable(SeparableAllocator::new(vix16))
        }),
        flavour("WF", 5, 6, move || Allocator::Wavefront(WavefrontAllocator::new(base5))),
        flavour("WF-VIX2", 5, 6, move || Allocator::Wavefront(WavefrontAllocator::new(vix2))),
        flavour("WF-VIX4x16", 16, 4, move || {
            Allocator::Wavefront(WavefrontAllocator::new(vix16))
        }),
        flavour("AP", 5, 6, move || Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(base5)))),
        flavour("Ideal", 5, 6, move || Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(ideal5)))),
        flavour("Ideal-4x16", 16, 4, move || {
            Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(vix16)))
        }),
        flavour("OF", 5, 6, move || Allocator::OutputFirst(OutputFirstAllocator::new(base5))),
        flavour("OF-16x6", 16, 6, move || {
            Allocator::OutputFirst(OutputFirstAllocator::new(base16))
        }),
        flavour("PC", 5, 6, move || Allocator::PacketChaining(Box::new(PacketChainingAllocator::new(base5)))),
        flavour("PC/matrix", 5, 6, move || {
            Allocator::PacketChaining(Box::new(PacketChainingAllocator::new(
                base5.with_arbiter(ArbiterKind::Matrix),
            )))
        }),
        flavour("iSLIP-1", 5, 6, move || Allocator::Islip(Box::new(IslipAllocator::new(base5, 1)))),
        flavour("iSLIP-2", 5, 6, move || Allocator::Islip(Box::new(IslipAllocator::new(base5, 2)))),
    ]
}

/// Shapes that overflow a single 64-bit word somewhere in the request rows —
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
        flavour("VIX-16x8x8", 16, 8, move || {
            Allocator::Separable(SeparableAllocator::new(mesh16x8_ideal))
        }),
        flavour("WF-16x8x4", 16, 8, move || {
            Allocator::Wavefront(WavefrontAllocator::new(mesh16x8_vix4))
        }),
        flavour("Ideal-16x8", 16, 8, move || {
            Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(mesh16x8_ideal)))
        }),
        flavour("OF-16x8", 16, 8, move || {
            Allocator::OutputFirst(OutputFirstAllocator::new(mesh16x8))
        }),
        flavour("VIX-fbfly32x8x4", 32, 8, move || {
            Allocator::Separable(SeparableAllocator::new(fbfly32x8_vix4))
        }),
        flavour("WF-fbfly32x8x4", 32, 8, move || {
            Allocator::Wavefront(WavefrontAllocator::new(fbfly32x8_vix4))
        }),
        flavour("IF-68x2", 68, 2, move || {
            Allocator::Separable(SeparableAllocator::new(wide68))
        }),
        flavour("VIX-68x4x2", 68, 4, move || {
            Allocator::Separable(SeparableAllocator::new(wide68_vix2))
        }),
        flavour("AP-68", 68, 2, move || {
            Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(wide68)))
        }),
        flavour("OF-68x2", 68, 2, move || {
            Allocator::OutputFirst(OutputFirstAllocator::new(wide68))
        }),
        flavour("PC-68x2", 68, 2, move || {
            Allocator::PacketChaining(Box::new(PacketChainingAllocator::new(wide68)))
        }),
        flavour("iSLIP-68x2", 68, 2, move || {
            Allocator::Islip(Box::new(IslipAllocator::new(wide68, 2)))
        }),
    ]
}

/// Shapes with a row at exactly one word and just past it, so each kernel
/// runs its one-word and its multi-word instantiation (picked from the
/// shape at construction) against the scalar oracle:
///
/// * separable under every arbiter kind and under oldest-first priority:
///   32 ports × k = 2 is 64 virtual inputs (one word), 33 × 2 is 66; IF
///   with 64 VCs per port has one-word VC lines, with 65 two-word ones;
/// * iSLIP-1 and iSLIP-2 under every arbiter kind at 64 and 65 ports, and
///   at 64 and 65 VCs per port.
fn boundary_flavours() -> Vec<Flavour> {
    let shapes = [
        ("VIX-32x4x2", 32, 4, VixPartition::even(4, 2).unwrap()),
        ("VIX-33x4x2", 33, 4, VixPartition::even(4, 2).unwrap()),
        ("IF-5x64", 5, 64, VixPartition::baseline(64)),
        ("IF-5x65", 5, 65, VixPartition::baseline(65)),
    ];
    let variants = [
        ("rr", ArbiterKind::RoundRobin, PriorityPolicy::Rotating),
        ("matrix", ArbiterKind::Matrix, PriorityPolicy::Rotating),
        ("static", ArbiterKind::Static, PriorityPolicy::Rotating),
        ("oldest", ArbiterKind::RoundRobin, PriorityPolicy::OldestFirst),
    ];
    let mut flavours = Vec::new();
    for (shape, ports, vcs, partition) in shapes {
        for (variant, arbiter, priority) in variants {
            let cfg = AllocatorConfig::new(ports, partition)
                .with_arbiter(arbiter)
                .with_priority(priority);
            flavours.push(flavour(format!("{shape}/{variant}"), ports, vcs, move || {
                Allocator::Separable(SeparableAllocator::new(cfg))
            }));
        }
    }
    for (ports, vcs) in [(64, 2), (65, 2), (5, 64), (5, 65)] {
        for (variant, arbiter, _) in &variants[..3] {
            let cfg = AllocatorConfig::new(ports, VixPartition::baseline(vcs)).with_arbiter(*arbiter);
            for iters in [1, 2] {
                let label = format!("iSLIP-{iters}-{ports}x{vcs}/{variant}");
                flavours.push(flavour(label, ports, vcs, move || {
                    Allocator::Islip(Box::new(IslipAllocator::new(cfg, iters)))
                }));
            }
        }
    }
    flavours
}

/// A random request from `(port, vc)`: any output, speculative one time in
/// four, any age below 16.
fn random_request(rng: &mut StdRng, ports: usize, port: usize, vc: usize) -> SwitchRequest {
    SwitchRequest {
        port: PortId(port),
        vc: VcId(vc),
        out_port: PortId(rng.gen_range(0..ports)),
        speculative: rng.gen_range(0..4_u64) == 0,
        age: rng.gen_range(0..16_u64),
    }
}

fn random_requests(rng: &mut StdRng, ports: usize, vcs: usize, load_pct: u64) -> RequestSet {
    let mut rs = RequestSet::new(ports, vcs);
    for port in 0..ports {
        for vc in 0..vcs {
            if rng.gen_range(0..100_u64) < load_pct {
                rs.push(random_request(rng, ports, port, vc));
            }
        }
    }
    rs
}

/// A set holding one random request, from any VC of any port.
fn lone_request(rng: &mut StdRng, ports: usize, vcs: usize) -> RequestSet {
    let mut rs = RequestSet::new(ports, vcs);
    let (port, vc) = (rng.gen_range(0..ports), rng.gen_range(0..vcs));
    rs.push(random_request(rng, ports, port, vc));
    rs
}

/// Drives a scalar/bitset twin pair through `cycles` cycles of identical
/// seeded traffic and asserts the grant traces never diverge. Traversal
/// feedback and idle-cycle fast-forwards are applied to both twins so the
/// comparison covers stateful behaviour (pointers, chains, offsets), not
/// just single-shot allocation. The bitset twin takes every one-request
/// cycle through [`Allocator::allocate_one`], the lone entry a
/// lightly loaded router calls.
fn assert_twins_agree(f: &Flavour, seed: u64, cycles: u64) {
    let mut scalar = (f.build)();
    let mut bitset = (f.build)();
    let (mut sg, mut bg) = (GrantSet::new(), GrantSet::new());
    let mut scratch = RequestSet::new(f.ports, f.vcs);
    let mut rng = StdRng::seed_from_u64(seed);
    for cycle in 0..cycles {
        // Mix of loads: empty cycles, a lone request, up to saturation.
        let requests = match rng.gen_range(0..6_usize) {
            0 => lone_request(&mut rng, f.ports, f.vcs),
            level => random_requests(&mut rng, f.ports, f.vcs, [0, 15, 55, 85, 100][level - 1]),
        };
        scalar.allocate_scalar_into(&requests, &mut sg);
        match requests.active_requests().collect::<Vec<_>>()[..] {
            [lone] => bitset.allocate_one(lone, &mut scratch, &mut bg),
            _ => bitset.allocate_into(&requests, &mut bg),
        }
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
    // separable kernel hands over counts from its own sweep.
    assert_eq!(
        scalar.matching_stats().summary(),
        bitset.matching_stats().summary(),
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

#[test]
fn word_boundary_kernels_match_scalar() {
    for f in boundary_flavours() {
        for (seed, cycles) in [(0xB0_0DA7, 400), (3_u64, 120)] {
            assert_twins_agree(&f, seed, cycles);
        }
    }
}

const PORTS: usize = 5;
const VCS: usize = 6;
/// Seeded cases per property.
const CASES: u64 = 256;

/// An arbitrary request set for a 5-port, 6-VC router: each VC
/// independently requests a random output or stays idle.
fn request_set(rng: &mut StdRng) -> RequestSet {
    let mut rs = RequestSet::new(PORTS, VCS);
    for cell in 0..PORTS * VCS {
        if rng.gen_bool(0.5) {
            rs.request(PortId(cell / VCS), VcId(cell % VCS), PortId(rng.gen_range(0..PORTS)));
        }
    }
    rs
}

/// Runs `check` on [`CASES`] seeded generators; a failing `check` names
/// its seed in the assertion message.
fn for_each_seed(base: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for seed in base..base + CASES {
        check(seed, &mut StdRng::seed_from_u64(seed));
    }
}

fn all_allocators() -> Vec<Allocator> {
    let baseline = AllocatorConfig::new(PORTS, VixPartition::baseline(VCS));
    let vix2 = AllocatorConfig::new(PORTS, VixPartition::even(VCS, 2).unwrap());
    let ideal = AllocatorConfig::new(PORTS, VixPartition::even(VCS, VCS).unwrap());
    vec![
        Allocator::Separable(SeparableAllocator::new(baseline)),
        Allocator::Separable(SeparableAllocator::new(vix2)),
        Allocator::Separable(SeparableAllocator::new(vix2.with_priority(PriorityPolicy::OldestFirst))),
        Allocator::Wavefront(WavefrontAllocator::new(baseline)),
        Allocator::Wavefront(WavefrontAllocator::new(vix2)),
        Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(baseline))),
        Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(ideal))),
        Allocator::PacketChaining(Box::new(PacketChainingAllocator::new(baseline))),
        Allocator::Islip(Box::new(IslipAllocator::new(baseline, 2))),
    ]
}

/// Every allocator produces a structurally valid grant set on any request
/// set (one grant per output / VC / sub-group).
#[test]
fn every_allocator_produces_valid_grants() {
    for_each_seed(0x1000, |seed, rng| {
        let reqs = request_set(rng);
        for mut alloc in all_allocators() {
            let grants = alloc.allocate(&reqs);
            if let Err(v) = grants.validate_against(&reqs, alloc.partition()) {
                panic!("{} violated crossbar invariant (seed {seed:#x}): {v}", alloc.name());
            }
        }
    });
}

/// Grant sets stay valid across stateful multi-cycle operation
/// (arbitration pointers, chains).
#[test]
fn statefulness_never_breaks_invariants() {
    for_each_seed(0x2000, |seed, rng| {
        let trace: Vec<RequestSet> =
            (0..rng.gen_range(1..12_usize)).map(|_| request_set(rng)).collect();
        for mut alloc in all_allocators() {
            for reqs in &trace {
                let grants = alloc.allocate(reqs);
                assert!(
                    grants.validate_against(reqs, alloc.partition()).is_ok(),
                    "{} broke an invariant mid-trace (seed {seed:#x})",
                    alloc.name()
                );
                alloc.observe_traversals(&grants);
            }
        }
    });
}

/// The augmented-path allocator finds a maximum port-level matching: no
/// port-level allocator may ever beat it.
#[test]
fn ap_dominates_all_port_level_allocators() {
    for_each_seed(0x3000, |seed, rng| {
        let reqs = request_set(rng);
        let baseline = AllocatorConfig::new(PORTS, VixPartition::baseline(VCS));
        let ap = MaxMatchingAllocator::new(baseline).allocate(&reqs).len();
        let seps = SeparableAllocator::new(baseline).allocate(&reqs).len();
        let wf = WavefrontAllocator::new(baseline).allocate(&reqs).len();
        let islip = IslipAllocator::new(baseline, 4).allocate(&reqs).len();
        assert!(ap >= seps, "AP {ap} < IF {seps} (seed {seed:#x})");
        assert!(ap >= wf, "AP {ap} < WF {wf} (seed {seed:#x})");
        assert!(ap >= islip, "AP {ap} < iSLIP {islip} (seed {seed:#x})");
    });
}

/// The ideal VC-level matcher dominates everything, including VIX.
#[test]
fn ideal_dominates_everything() {
    for_each_seed(0x4000, |seed, rng| {
        let reqs = request_set(rng);
        let ideal_cfg = AllocatorConfig::new(PORTS, VixPartition::even(VCS, VCS).unwrap());
        let ideal = MaxMatchingAllocator::new(ideal_cfg).allocate(&reqs).len();
        for mut alloc in all_allocators() {
            let n = alloc.allocate(&reqs).len();
            assert!(ideal >= n, "ideal {ideal} < {} {n} (seed {seed:#x})", alloc.name());
        }
    });
}

/// Wavefront produces a *maximal* matching: no request is left with both
/// its input port and output port free.
#[test]
fn wavefront_matching_is_maximal() {
    for_each_seed(0x5000, |seed, rng| {
        let reqs = request_set(rng);
        let baseline = AllocatorConfig::new(PORTS, VixPartition::baseline(VCS));
        let grants = WavefrontAllocator::new(baseline).allocate(&reqs);
        for r in reqs.active_requests() {
            let input_free = grants.count_for_input(r.port) == 0;
            let output_free = grants.for_output(r.out_port).is_none();
            assert!(
                !(input_free && output_free),
                "request ({}, {}) unmatched though both sides free (seed {seed:#x})",
                r.port,
                r.out_port
            );
        }
    });
}

/// Work conservation at the single-output level: if exactly one VC
/// requests exactly one output, every allocator grants it. The domain is
/// small enough to enumerate.
#[test]
fn lone_request_always_granted() {
    for cell in 0..PORTS * VCS * PORTS {
        let (port, vc, out) = (cell / (VCS * PORTS), cell / PORTS % VCS, cell % PORTS);
        let mut reqs = RequestSet::new(PORTS, VCS);
        reqs.request(PortId(port), VcId(vc), PortId(out));
        for mut alloc in all_allocators() {
            assert_eq!(
                alloc.allocate(&reqs).len(),
                1,
                "{} dropped the lone request ({port}, {vc}) → {out}",
                alloc.name()
            );
        }
    }
}
