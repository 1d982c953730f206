//! Seeded randomized properties of the CMP substrate components.
//!
//! Each case is a pure function of its seed, drawn from `vix-rng`; a
//! failing assertion names the seed that reproduces it.

use std::collections::HashMap;
use vix_manycore::{MshrFile, MshrOutcome, SetAssocCache};
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

/// A cache never holds more blocks than its capacity, and a just-inserted
/// block is always resident.
#[test]
fn cache_capacity_respected() {
    for_each_seed(0x100, |seed, rng| {
        let mut cache = SetAssocCache::new(16 * 64, 4, 64); // 16 blocks
        for _ in 0..rng.gen_range(1..300usize) {
            let block = rng.gen_range(0..64u64);
            cache.access(block);
            cache.insert(block);
            assert!(cache.probe(block), "seed {seed}: inserted block {block} must be resident");
        }
        let resident = (0..64).filter(|&b| cache.probe(b)).count();
        assert!(resident <= 16, "seed {seed}: capacity exceeded: {resident}");
    });
}

/// A working set that fits never misses after the first pass, regardless
/// of access order.
#[test]
fn fitting_working_set_converges() {
    for seed in 0..1000u64 {
        let mut cache = SetAssocCache::new(64 * 64, 64, 64); // fully assoc., 64 blocks
        // Two passes over 32 blocks in a seed-dependent order.
        let perm: Vec<u64> = (0..32).map(|i| (i * 7 + seed) % 32).collect();
        for &b in &perm {
            cache.access(b);
            cache.insert(b);
        }
        for &b in &perm {
            assert!(cache.access(b), "seed {seed}: second pass must hit block {b}");
        }
    }
}

/// The MSHR file never tracks more than its capacity in distinct blocks,
/// and completing always returns every merged waiter.
#[test]
fn mshr_bookkeeping() {
    for_each_seed(0x300, |seed, rng| {
        let mut mshr = MshrFile::new(4);
        let mut expected: HashMap<u64, Vec<u64>> = HashMap::new();
        for _ in 0..rng.gen_range(1..100usize) {
            let (block, txn) = (rng.gen_range(0..8u64), rng.gen_range(0..1000u64));
            match mshr.allocate(block, txn) {
                MshrOutcome::Primary => {
                    expected.insert(block, vec![txn]);
                }
                MshrOutcome::Secondary => {
                    expected.get_mut(&block).expect("secondary implies primary").push(txn);
                }
                MshrOutcome::Full => {
                    assert!(expected.len() >= 4, "seed {seed}: Full only when at capacity");
                }
            }
            assert!(mshr.in_flight() <= 4, "seed {seed}");
        }
        for (block, waiters) in expected {
            assert_eq!(mshr.complete(block), waiters, "seed {seed}: block {block}");
        }
        assert_eq!(mshr.in_flight(), 0, "seed {seed}");
    });
}
