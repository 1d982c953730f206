//! Seeded randomized properties of the delay models: structural
//! monotonicity.
//!
//! Each case is a pure function of its seed, drawn from `vix-rng`; a
//! failing assertion names the seed that reproduces it.

use vix_core::AllocatorKind;
use vix_delay::{allocator_delay, crossbar_delay, sa_delay, va_delay, RouterDesign};
use vix_rng::rngs::StdRng;
use vix_rng::{Rng, SeedableRng};

/// Seeded cases per property.
const CASES: u64 = 256;

/// Runs `check` on [`CASES`] seeded generators starting at `base`.
fn for_each_seed(base: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for seed in base..base + CASES {
        check(seed, &mut StdRng::seed_from_u64(seed));
    }
}

/// Crossbar delay grows monotonically in each dimension.
#[test]
fn crossbar_monotone() {
    for_each_seed(0x100, |seed, rng| {
        let (i, o) = (rng.gen_range(2..32usize), rng.gen_range(2..32usize));
        assert!(crossbar_delay(i + 1, o) > crossbar_delay(i, o), "seed {seed}: {i}x{o}");
        assert!(crossbar_delay(i, o + 1) > crossbar_delay(i, o), "seed {seed}: {i}x{o}");
    });
}

/// Allocation stage delays grow with the problem size.
#[test]
fn va_sa_monotone() {
    for_each_seed(0x200, |seed, rng| {
        let (ports, vcs) = (rng.gen_range(2..16usize), rng.gen_range(2..12usize));
        assert!(va_delay(ports + 1, vcs) > va_delay(ports, vcs), "seed {seed}: {ports} ports");
        assert!(va_delay(ports, vcs + 1) > va_delay(ports, vcs), "seed {seed}: {vcs} VCs");
        assert!(sa_delay(ports + 1, vcs, 1) > sa_delay(ports, vcs, 1), "seed {seed}: {ports} ports");
    });
}

/// VIX's SA overhead is a fixed mux term: independent of radix.
#[test]
fn vix_sa_overhead_is_constant() {
    for_each_seed(0x300, |seed, rng| {
        let ports = rng.gen_range(2..16usize);
        let (base, vix) = (sa_delay(ports, 6, 1), sa_delay(ports, 6, 2));
        assert!((vix.0 - base.0 - 10.0).abs() < 1e-9, "seed {seed}: {ports} ports");
    });
}

/// Wavefront is always slower than separable, at any radix from 3. (At
/// radix 2 the log-depth separable stage is actually the slower circuit;
/// the paper only considers radix ≥ 5.)
#[test]
fn wavefront_always_slower() {
    for_each_seed(0x400, |seed, rng| {
        let ports = rng.gen_range(3..16usize);
        let sep = allocator_delay(AllocatorKind::InputFirst, ports, 6, 1).picoseconds().unwrap();
        let wf = allocator_delay(AllocatorKind::Wavefront, ports, 6, 1).picoseconds().unwrap();
        assert!(wf > sep, "seed {seed}: radix {ports}: wavefront {wf} vs separable {sep}");
    });
}

/// In the paper's radix range (≤ 10), a 1:2 VIX crossbar never becomes
/// the critical pipeline stage.
#[test]
fn vix_feasible_through_radix_ten() {
    for_each_seed(0x500, |seed, rng| {
        let radix = rng.gen_range(2..11usize);
        let d = RouterDesign { name: "sweep", radix, vcs: 6, virtual_inputs: 2 }.stage_delays();
        assert!(
            d.crossbar_off_critical_path(),
            "seed {seed}: radix {radix}: crossbar {} vs VA {}",
            d.crossbar,
            d.va
        );
    });
}
