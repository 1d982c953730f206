//! Seeded randomized properties of every arbiter kind.
//!
//! Each case is a pure function of its seed, drawn from `vix-rng`; a
//! failing assertion names the seed that reproduces it.

use super::{Arbiter, ArbiterKind, MatrixArbiter, RoundRobinArbiter};
use vix_rng::rngs::StdRng;
use vix_rng::{Rng, SeedableRng};

const KINDS: [ArbiterKind; 3] = [ArbiterKind::RoundRobin, ArbiterKind::Matrix, ArbiterKind::Static];
/// Seeded cases per property.
const CASES: u64 = 256;

/// Runs `check` on [`CASES`] seeded generators starting at `base`.
fn for_each_seed(base: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for seed in base..base + CASES {
        check(seed, &mut StdRng::seed_from_u64(seed));
    }
}

/// 1–63 request vectors of `size` independently asserted lines.
fn request_trace(rng: &mut StdRng, size: usize) -> Vec<Vec<bool>> {
    (0..rng.gen_range(1..64usize)).map(|_| (0..size).map(|_| rng.gen_bool(0.5)).collect()).collect()
}

/// No arbiter ever grants a silent requestor, for any request trace.
#[test]
fn grants_are_always_requested() {
    for_each_seed(0x100, |seed, rng| {
        let trace = request_trace(rng, 6);
        for kind in KINDS {
            let mut arb = kind.build(6);
            for reqs in &trace {
                if let Some(w) = arb.arbitrate(reqs) {
                    assert!(reqs[w], "{kind:?} granted silent requestor {w} (seed {seed})");
                }
            }
        }
    });
}

/// Every arbiter is work-conserving: a grant is issued whenever at least
/// one requestor is asserted.
#[test]
fn work_conservation() {
    for_each_seed(0x200, |seed, rng| {
        let trace = request_trace(rng, 5);
        for kind in KINDS {
            let mut arb = kind.build(5);
            for reqs in &trace {
                let any = reqs.iter().any(|&r| r);
                assert_eq!(arb.arbitrate(reqs).is_some(), any, "{kind:?} (seed {seed})");
            }
        }
    });
}

/// Round-robin strong fairness: under persistent contention, any two
/// requestors' grant counts never differ by more than one.
#[test]
fn round_robin_strong_fairness() {
    for_each_seed(0x300, |seed, rng| {
        let size = rng.gen_range(2..8usize);
        let mut arb = RoundRobinArbiter::new(size);
        let reqs = vec![true; size];
        let mut counts = vec![0i64; size];
        for _ in 0..rng.gen_range(1..200usize) {
            counts[arb.arbitrate(&reqs).unwrap()] += 1;
        }
        let (max, min) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
        assert!(max - min <= 1, "counts {counts:?} not within 1 (seed {seed})");
    });
}

/// Matrix arbiter: a winner exists for every non-empty request vector (the
/// priority matrix stays a total order across arbitrary grant sequences).
#[test]
fn matrix_total_order_invariant() {
    for_each_seed(0x400, |seed, rng| {
        let mut arb = MatrixArbiter::new(7);
        for reqs in &request_trace(rng, 7) {
            let any = reqs.iter().any(|&r| r);
            assert_eq!(arb.arbitrate(reqs).is_some(), any, "seed {seed}");
        }
    });
}

/// Matrix arbiter never grants the same requestor twice in a row while
/// another requestor is waiting.
#[test]
fn matrix_no_double_grant_under_contention() {
    for_each_seed(0x500, |seed, rng| {
        let size = rng.gen_range(2..8usize);
        let mut arb = MatrixArbiter::new(size);
        let reqs = vec![true; size];
        let mut last = None;
        for _ in 0..rng.gen_range(2..100usize) {
            let w = arb.arbitrate(&reqs).unwrap();
            assert_ne!(Some(w), last, "granted {w} twice in a row (seed {seed})");
            last = Some(w);
        }
    });
}

/// The word-parallel `peek_words` returns exactly what `peek` does on the
/// equivalent boolean slice, for every kind, across the one-word boundary
/// (sizes 1–130) and as the state evolves.
#[test]
fn peek_words_agrees_with_peek_at_any_width() {
    for_each_seed(0x600, |seed, rng| {
        let sizes = [rng.gen_range(1..65usize), 64, 65, rng.gen_range(65..131usize)];
        let size = sizes[(seed % 4) as usize];
        for kind in KINDS {
            let mut arb = kind.build(size);
            for reqs in &request_trace(rng, size) {
                let mut words = vec![0u64; size.div_ceil(64)];
                for i in (0..size).filter(|&i| reqs[i]) {
                    words[i / 64] |= 1 << (i % 64);
                }
                let scalar = arb.peek(reqs);
                assert_eq!(arb.peek_words(&words), scalar, "{kind:?}/{size} (seed {seed})");
                if let Some(w) = scalar {
                    arb.commit(w);
                }
            }
        }
    });
}
