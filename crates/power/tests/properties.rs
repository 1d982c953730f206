//! Seeded randomized properties of the energy model.
//!
//! Each case is a pure function of its seed, drawn from `vix-rng`; a
//! failing assertion names the seed that reproduces it.

use vix_core::ActivityCounters;
use vix_power::{EnergyBreakdown, EnergyModel};
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

fn activity(flits: u64, cycles: u64) -> ActivityCounters {
    ActivityCounters {
        cycles,
        routers: 64,
        buffer_writes: flits * 6,
        buffer_reads: flits * 6,
        crossbar_traversals: flits * 6,
        link_traversals: flits * 5,
        ejections: flits,
        sa_arbitrations: flits * 12,
        va_arbitrations: flits,
        bits_delivered: flits * 128,
    }
}

/// Total energy grows with traffic; energy per bit falls (static energy
/// amortises).
#[test]
fn energy_scales_sanely() {
    let m = EnergyModel::cmos45();
    for_each_seed(0x100, |seed, rng| {
        let (flits, cycles) = (rng.gen_range(1..100_000u64), rng.gen_range(1_000..50_000u64));
        let small = EnergyBreakdown::from_activity(&m, &activity(flits, cycles), 1.0);
        let big = EnergyBreakdown::from_activity(&m, &activity(flits * 2, cycles), 1.0);
        assert!(big.total_pj() > small.total_pj(), "seed {seed}");
        assert!(
            big.energy_per_bit().unwrap() < small.energy_per_bit().unwrap(),
            "seed {seed}: more traffic must amortise static energy"
        );
    });
}

/// A larger crossbar span can only increase energy, and only through the
/// crossbar and leakage components.
#[test]
fn span_factor_isolated() {
    let m = EnergyModel::cmos45();
    for_each_seed(0x200, |seed, rng| {
        let (flits, span) = (rng.gen_range(1..10_000u64), rng.gen_range(10..30u64) as f64 / 10.0);
        let a = activity(flits, 10_000);
        let base = EnergyBreakdown::from_activity(&m, &a, 1.0);
        let wide = EnergyBreakdown::from_activity(&m, &a, span);
        assert!(wide.total_pj() >= base.total_pj(), "seed {seed}");
        assert_eq!(wide.buffer_pj, base.buffer_pj, "seed {seed}");
        assert_eq!(wide.link_pj, base.link_pj, "seed {seed}");
        assert_eq!(wide.clock_pj, base.clock_pj, "seed {seed}");
        assert!(wide.crossbar_pj >= base.crossbar_pj, "seed {seed}");
        assert!(wide.leakage_pj >= base.leakage_pj, "seed {seed}");
    });
}

/// Components always sum to the total.
#[test]
fn components_sum() {
    let m = EnergyModel::cmos45();
    for_each_seed(0x300, |seed, rng| {
        let (flits, cycles) = (rng.gen_range(0..10_000u64), rng.gen_range(1..10_000u64));
        let b = EnergyBreakdown::from_activity(&m, &activity(flits, cycles), 1.5);
        let sum: f64 = b.components().iter().map(|(_, pj)| pj).sum();
        assert!((sum - b.total_pj()).abs() < 1e-6, "seed {seed}");
    });
}
