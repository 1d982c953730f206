//! Seeded model test for `RequestSet`: the bit planes are the only request
//! representation, so every mutator must leave them exactly as a
//! from-scratch rebuild would, at every width.
//!
//! Each case is a pure function of its seed — a failure message names the
//! seed and shape to replay.

use std::collections::BTreeMap;

use vix::core::{PortId, RequestSet, SwitchRequest, VcId};
use vix_rng::rngs::StdRng;
use vix_rng::{Rng, SeedableRng};

/// `(ports, vcs)` shapes: the paper's, single-word edges, and rows past 64
/// bits in either or both dimensions.
const SHAPES: [(usize, usize); 7] = [(5, 6), (10, 8), (2, 64), (3, 130), (70, 3), (65, 65), (1, 1)];

type Model = BTreeMap<(usize, usize), SwitchRequest>;

fn assert_matches_model(rs: &RequestSet, model: &Model, ctx: &str) {
    let (ports, vcs) = (rs.ports(), rs.vcs_per_port());
    // Planes: identical to pushing the surviving requests into a new set.
    let mut rebuilt = RequestSet::new(ports, vcs);
    for req in model.values() {
        rebuilt.push(*req);
    }
    assert_eq!(rs.bits(), rebuilt.bits(), "{ctx}: planes diverged from a rebuild");
    // Scalar views against the naive model. BTreeMap order is (port, vc)
    // order, which is what `active_requests` promises.
    let listed: Vec<SwitchRequest> = rs.active_requests().collect();
    let expected: Vec<SwitchRequest> = model.values().copied().collect();
    assert_eq!(listed, expected, "{ctx}: active_requests");
    assert_eq!(rs.len(), model.len(), "{ctx}: len");
    assert_eq!(rs.is_empty(), model.is_empty(), "{ctx}: is_empty");
    let speculative = model.values().filter(|r| r.speculative).count();
    assert_eq!(rs.speculative_len(), speculative, "{ctx}: speculative_len");
    for p in 0..ports {
        let from_port = model.keys().any(|&(mp, _)| mp == p);
        assert_eq!(rs.port_is_active(PortId(p)), from_port, "{ctx}: port_is_active({p})");
        for v in 0..vcs {
            assert_eq!(rs.get(PortId(p), VcId(v)), model.get(&(p, v)).copied(), "{ctx}: get({p},{v})");
        }
    }
}

#[test]
fn random_mutation_sequences_match_a_naive_model() {
    for (case, &(ports, vcs)) in SHAPES.iter().enumerate() {
        // Wide shapes rebuild ~100 KB of planes per step; give them fewer.
        let steps = if ports * ports * vcs > 10_000 { 120 } else { 400 };
        for seed in 0..3u64 {
            let seed = seed * 1_000 + case as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rs = RequestSet::new(ports, vcs);
            let mut model = Model::new();
            for step in 0..steps {
                let ctx = format!("seed {seed}, {ports}x{vcs}, step {step}");
                let (p, v) = (rng.gen_range(0..ports), rng.gen_range(0..vcs));
                match rng.gen_range(0..20usize) {
                    0 => {
                        rs.clear();
                        model.clear();
                        let empty = RequestSet::new(ports, vcs);
                        assert_eq!(rs.bits(), empty.bits(), "{ctx}: a plane word survived clear()");
                    }
                    1..=4 => {
                        let removed = rs.remove(PortId(p), VcId(v));
                        assert_eq!(removed, model.remove(&(p, v)), "{ctx}: remove");
                    }
                    // Push; about a third land on an occupied VC once the set
                    // fills up, which exercises replacement.
                    _ => {
                        let req = SwitchRequest {
                            port: PortId(p),
                            vc: VcId(v),
                            out_port: PortId(rng.gen_range(0..ports)),
                            speculative: rng.gen_bool(0.3),
                            age: rng.gen_range(0..1_000u64),
                        };
                        rs.push(req);
                        model.insert((p, v), req);
                    }
                }
                assert_matches_model(&rs, &model, &ctx);
            }
        }
    }
}
