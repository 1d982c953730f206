//! Synthetic traffic generation for NoC simulation.
//!
//! The paper's evaluation (§4.1) drives networks with uniform-random
//! Bernoulli traffic; §2.3 additionally motivates VIX's load-balanced VC
//! assignment with *adversarial* patterns, so the classic permutation
//! patterns are included too:
//!
//! * [`TrafficPattern::UniformRandom`] — each packet picks an independent
//!   uniformly-random destination (the paper's workload);
//! * [`TrafficPattern::Transpose`] — node `(x, y)` sends to `(y, x)`;
//! * [`TrafficPattern::BitComplement`] — node `i` sends to `!i`;
//! * [`TrafficPattern::BitReverse`] — address bits reversed;
//! * [`TrafficPattern::Hotspot`] — a fraction of packets target a fixed
//!   set of hotspot nodes, the rest are uniform.
//!
//! [`BernoulliInjector`] turns an offered load (packets/cycle/node) into
//! per-cycle injection decisions, deterministically from a seeded RNG.
//!
//! # Example
//!
//! ```
//! use vix_traffic::{BernoulliInjector, TrafficPattern};
//! use vix_core::NodeId;
//! use vix_rng::SeedableRng;
//!
//! let mut rng = vix_rng::rngs::StdRng::seed_from_u64(7);
//! let pattern = TrafficPattern::UniformRandom;
//! let dest = pattern.pick_dest(NodeId(3), 64, &mut rng);
//! assert_ne!(dest, NodeId(3), "uniform traffic never self-addresses");
//!
//! let injector = BernoulliInjector::new(0.1)?;
//! let fired = injector.fires(&mut rng);
//! assert!(fired == true || fired == false);
//! # Ok::<(), vix_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use vix_rng::Rng;
use vix_core::{ConfigError, NodeId};

/// Spatial traffic pattern: how sources choose destinations.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// Independent uniformly-random destination (excluding the source).
    UniformRandom,
    /// `(x, y) → (y, x)` on the square node grid; self-pairs fall back to
    /// uniform so diagonal nodes still load the network.
    Transpose,
    /// `i → !i` over `log2(nodes)` bits.
    BitComplement,
    /// Destination is the source's address with its bits reversed;
    /// self-pairs fall back to uniform.
    BitReverse,
    /// Perfect shuffle: address bits rotated left by one; self-pairs fall
    /// back to uniform.
    Shuffle,
    /// Node `i` sends to `(i + 1) mod N` — the friendliest possible
    /// pattern (single-hop on a ring embedding, mostly short on a mesh).
    NearestNeighbor,
    /// With probability `fraction`, target a uniformly-chosen member of
    /// `spots`; otherwise uniform random.
    Hotspot {
        /// Hotspot destinations.
        spots: Vec<NodeId>,
        /// Fraction of packets directed at a hotspot, in `[0, 1]`.
        fraction: f64,
    },
}

impl TrafficPattern {
    /// Checks that the pattern can address a `nodes`-terminal network, so
    /// that [`TrafficPattern::pick_dest`] never panics on it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadTrafficPattern`] unless there are at
    /// least two nodes and: bit complement, bit reverse and shuffle have a
    /// power-of-two node count; transpose has a square one; a hotspot
    /// pattern has at least one spot, every spot is a node of the network,
    /// and its fraction lies in `[0, 1]`.
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        let requirement = match self {
            _ if nodes < 2 => "needs at least two nodes",
            Self::BitComplement | Self::BitReverse | Self::Shuffle if !nodes.is_power_of_two() => {
                "needs a power-of-two node count"
            }
            Self::Transpose if exact_sqrt(nodes).is_none() => "needs a square node count",
            Self::Hotspot { spots, .. } if spots.is_empty() => "needs at least one hotspot",
            Self::Hotspot { spots, .. } if spots.iter().any(|s| s.0 >= nodes) => {
                "every hotspot must be a node of the network"
            }
            Self::Hotspot { fraction, .. } if !(0.0..=1.0).contains(fraction) => {
                "the hotspot fraction must lie in [0, 1]"
            }
            _ => return Ok(()),
        };
        Err(ConfigError::BadTrafficPattern { pattern: self.label(), nodes, requirement })
    }

    /// Picks a destination for one packet from `src` in a `nodes`-terminal
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range, or if
    /// [`TrafficPattern::validate`] rejects `nodes`.
    pub fn pick_dest<R: Rng>(&self, src: NodeId, nodes: usize, rng: &mut R) -> NodeId {
        assert!(nodes >= 2, "need at least two nodes for traffic");
        assert!(src.0 < nodes, "source {src} out of range");
        match self {
            TrafficPattern::UniformRandom => uniform_excluding(src, nodes, rng),
            TrafficPattern::Transpose => {
                let k = exact_sqrt(nodes).expect("transpose needs a square node count");
                let (x, y) = (src.0 % k, src.0 / k);
                let dest = NodeId(x * k + y);
                if dest == src {
                    uniform_excluding(src, nodes, rng)
                } else {
                    dest
                }
            }
            TrafficPattern::BitComplement => {
                assert!(nodes.is_power_of_two(), "bit complement needs a power-of-two node count");
                NodeId(!src.0 & (nodes - 1))
            }
            TrafficPattern::BitReverse => {
                assert!(nodes.is_power_of_two(), "bit reverse needs a power-of-two node count");
                let bits = nodes.trailing_zeros();
                let dest = NodeId((src.0.reverse_bits() >> (usize::BITS - bits)) & (nodes - 1));
                if dest == src {
                    uniform_excluding(src, nodes, rng)
                } else {
                    dest
                }
            }
            TrafficPattern::Shuffle => {
                assert!(nodes.is_power_of_two(), "shuffle needs a power-of-two node count");
                let bits = nodes.trailing_zeros();
                let top = (src.0 >> (bits - 1)) & 1;
                let dest = NodeId(((src.0 << 1) | top) & (nodes - 1));
                if dest == src {
                    uniform_excluding(src, nodes, rng)
                } else {
                    dest
                }
            }
            TrafficPattern::NearestNeighbor => NodeId((src.0 + 1) % nodes),
            TrafficPattern::Hotspot { spots, fraction } => {
                assert!(!spots.is_empty(), "hotspot pattern needs at least one spot");
                assert!((0.0..=1.0).contains(fraction), "hotspot fraction must be in [0, 1]");
                if rng.gen_bool(*fraction) {
                    let spot = spots[rng.gen_range(0..spots.len())];
                    assert!(spot.0 < nodes, "hotspot {spot} out of range");
                    if spot == src {
                        uniform_excluding(src, nodes, rng)
                    } else {
                        spot
                    }
                } else {
                    uniform_excluding(src, nodes, rng)
                }
            }
        }
    }

    /// Short label for tables and logs.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitComplement => "bitcomp",
            TrafficPattern::BitReverse => "bitrev",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::NearestNeighbor => "neighbor",
            TrafficPattern::Hotspot { .. } => "hotspot",
        }
    }
}

fn uniform_excluding<R: Rng>(src: NodeId, nodes: usize, rng: &mut R) -> NodeId {
    // Sample from nodes-1 choices and skip over the source.
    let raw = rng.gen_range(0..nodes - 1);
    NodeId(if raw >= src.0 { raw + 1 } else { raw })
}

fn exact_sqrt(n: usize) -> Option<usize> {
    let k = (n as f64).sqrt().round() as usize;
    (k * k == n).then_some(k)
}

/// Bernoulli (geometric inter-arrival) injection process.
///
/// Each cycle each node flips a biased coin with probability `rate`
/// (packets/cycle/node); heads creates one packet. This is the open-loop
/// injection model of §4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliInjector {
    rate: f64,
}

impl BernoulliInjector {
    /// Creates an injector with the given offered load in
    /// packets/cycle/node.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadInjectionRate`] unless `rate ∈ [0, 1]`.
    pub fn new(rate: f64) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
            return Err(ConfigError::BadInjectionRate { rate });
        }
        Ok(BernoulliInjector { rate })
    }

    /// Offered load in packets/cycle/node.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// One coin flip: does this node inject a packet this cycle?
    pub fn fires<R: Rng>(&self, rng: &mut R) -> bool {
        self.rate > 0.0 && rng.gen_bool(self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_rng::rngs::StdRng;
    use vix_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_never_self_addresses_and_covers_all() {
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = TrafficPattern::UniformRandom.pick_dest(NodeId(5), 16, &mut r);
            assert_ne!(d, NodeId(5));
            seen[d.0] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, 15, "all non-self nodes must be reachable");
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut r = rng();
        let mut counts = [0u32; 16];
        let trials = 30_000;
        for _ in 0..trials {
            counts[TrafficPattern::UniformRandom.pick_dest(NodeId(0), 16, &mut r).0] += 1;
        }
        let expect = trials as f64 / 15.0;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64) > expect * 0.8 && (c as f64) < expect * 1.2,
                "node {i} count {c} deviates from {expect}"
            );
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut r = rng();
        // Node 1 = (1,0) in a 4x4 grid → (0,1) = node 4.
        assert_eq!(TrafficPattern::Transpose.pick_dest(NodeId(1), 16, &mut r), NodeId(4));
        assert_eq!(TrafficPattern::Transpose.pick_dest(NodeId(7), 16, &mut r), NodeId(13));
    }

    #[test]
    fn transpose_diagonal_falls_back_to_uniform() {
        let mut r = rng();
        // Node 5 = (1,1) maps to itself; must not self-address.
        let d = TrafficPattern::Transpose.pick_dest(NodeId(5), 16, &mut r);
        assert_ne!(d, NodeId(5));
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let mut r = rng();
        for n in 0..64 {
            let d = TrafficPattern::BitComplement.pick_dest(NodeId(n), 64, &mut r);
            let back = TrafficPattern::BitComplement.pick_dest(d, 64, &mut r);
            assert_eq!(back, NodeId(n));
            assert_ne!(d, NodeId(n), "complement never maps to self");
        }
    }

    #[test]
    fn bit_reverse_examples() {
        let mut r = rng();
        // 64 nodes = 6 bits; 0b000001 reversed = 0b100000 = 32.
        assert_eq!(TrafficPattern::BitReverse.pick_dest(NodeId(1), 64, &mut r), NodeId(32));
        assert_eq!(TrafficPattern::BitReverse.pick_dest(NodeId(3), 64, &mut r), NodeId(48));
    }

    #[test]
    fn shuffle_rotates_bits() {
        let mut r = rng();
        // 16 nodes = 4 bits; 0b0011 -> 0b0110 = 6.
        assert_eq!(TrafficPattern::Shuffle.pick_dest(NodeId(3), 16, &mut r), NodeId(6));
        // 0b1000 -> 0b0001.
        assert_eq!(TrafficPattern::Shuffle.pick_dest(NodeId(8), 16, &mut r), NodeId(1));
    }

    #[test]
    fn shuffle_fixed_points_fall_back() {
        let mut r = rng();
        // 0 and 15 are fixed points of the rotation.
        assert_ne!(TrafficPattern::Shuffle.pick_dest(NodeId(0), 16, &mut r), NodeId(0));
        assert_ne!(TrafficPattern::Shuffle.pick_dest(NodeId(15), 16, &mut r), NodeId(15));
    }

    #[test]
    fn nearest_neighbor_wraps() {
        let mut r = rng();
        assert_eq!(TrafficPattern::NearestNeighbor.pick_dest(NodeId(3), 16, &mut r), NodeId(4));
        assert_eq!(TrafficPattern::NearestNeighbor.pick_dest(NodeId(15), 16, &mut r), NodeId(0));
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut r = rng();
        let pattern =
            TrafficPattern::Hotspot { spots: vec![NodeId(0)], fraction: 0.5 };
        let mut hits = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if pattern.pick_dest(NodeId(9), 64, &mut r) == NodeId(0) {
                hits += 1;
            }
        }
        // 50% direct + small uniform contribution.
        assert!(hits > trials * 45 / 100, "hotspot must absorb ~half the traffic, got {hits}");
        assert!(hits < trials * 60 / 100);
    }

    #[test]
    fn injector_rate_zero_never_fires_one_always() {
        let mut r = rng();
        let never = BernoulliInjector::new(0.0).unwrap();
        let always = BernoulliInjector::new(1.0).unwrap();
        for _ in 0..100 {
            assert!(!never.fires(&mut r));
            assert!(always.fires(&mut r));
        }
    }

    #[test]
    fn injector_matches_rate_statistically() {
        let mut r = rng();
        let inj = BernoulliInjector::new(0.25).unwrap();
        let fired = (0..40_000).filter(|_| inj.fires(&mut r)).count();
        let rate = fired as f64 / 40_000.0;
        assert!((rate - 0.25).abs() < 0.01, "measured rate {rate}");
    }

    #[test]
    fn injector_rejects_bad_rates() {
        assert!(BernoulliInjector::new(-0.1).is_err());
        assert!(BernoulliInjector::new(1.5).is_err());
        assert!(BernoulliInjector::new(f64::NAN).is_err());
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let pattern = TrafficPattern::UniformRandom;
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(
                pattern.pick_dest(NodeId(0), 64, &mut a),
                pattern.pick_dest(NodeId(0), 64, &mut b)
            );
        }
    }

    #[test]
    fn validate_names_the_pattern_and_the_violated_requirement() {
        let rejects = |pattern: TrafficPattern, nodes: usize, requirement: &str| {
            match pattern.validate(nodes) {
                Err(ConfigError::BadTrafficPattern { pattern: label, nodes: n, requirement: r }) => {
                    assert_eq!((label, n, r), (pattern.label(), nodes, requirement));
                }
                other => panic!("{pattern:?} on {nodes} nodes: {other:?}"),
            }
        };
        let two = "needs a power-of-two node count";
        for pattern in [TrafficPattern::BitComplement, TrafficPattern::BitReverse, TrafficPattern::Shuffle] {
            rejects(pattern.clone(), 36, two);
            assert_eq!(pattern.validate(64), Ok(()));
        }
        rejects(TrafficPattern::Transpose, 32, "needs a square node count");
        assert_eq!(TrafficPattern::Transpose.validate(36), Ok(()));
        rejects(TrafficPattern::UniformRandom, 1, "needs at least two nodes");
        let hotspot = |spots: Vec<usize>, fraction| TrafficPattern::Hotspot {
            spots: spots.into_iter().map(NodeId).collect(),
            fraction,
        };
        rejects(hotspot(vec![], 0.5), 16, "needs at least one hotspot");
        rejects(hotspot(vec![0, 16], 0.5), 16, "every hotspot must be a node of the network");
        rejects(hotspot(vec![0], 1.5), 16, "the hotspot fraction must lie in [0, 1]");
        rejects(hotspot(vec![0], f64::NAN), 16, "the hotspot fraction must lie in [0, 1]");
        assert_eq!(hotspot(vec![0, 15], 1.0).validate(16), Ok(()));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TrafficPattern::UniformRandom.label(), "uniform");
        assert_eq!(
            TrafficPattern::Hotspot { spots: vec![NodeId(0)], fraction: 0.1 }.label(),
            "hotspot"
        );
    }
}
