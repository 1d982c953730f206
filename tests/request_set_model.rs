//! Seeded model test for `RequestSet`: after every mutation, the set's VC
//! masks must be exactly what a from-scratch rebuild gives, and every
//! scalar view must match a naive map model, at every width.
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
    // Masks: identical to pushing the surviving requests into a new set.
    let mut rebuilt = RequestSet::new(ports, vcs);
    for req in model.values() {
        rebuilt.push(*req);
    }
    for p in (0..ports).map(PortId) {
        assert_eq!(rs.active_vcs(p), rebuilt.active_vcs(p), "{ctx}: active mask of {p}");
        assert_eq!(rs.spec_vcs(p), rebuilt.spec_vcs(p), "{ctx}: speculative mask of {p}");
    }
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
        // Wide shapes check thousands of scalar views per step; give them
        // fewer.
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
                        for p in (0..ports).map(PortId) {
                            let words = rs.active_vcs(p).iter().chain(rs.spec_vcs(p));
                            assert!(words.into_iter().all(|&w| w == 0), "{ctx}: a mask word survived clear()");
                        }
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
