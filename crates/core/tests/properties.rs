//! Seeded randomized properties of the core vocabulary types.
//!
//! Each case is a pure function of its seed, drawn from `vix-rng`, or an
//! exhaustive walk of a small range; a failing assertion names the seed or
//! the values that reproduce it.

use std::collections::HashMap;
use vix_core::{
    Cycle, Grant, GrantSet, NodeId, PacketDescriptor, PacketId, PortId, RequestSet, RouterConfig, VcId,
    VirtualInputs, VixPartition,
};
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

/// Every even partition is a true partition: each VC belongs to exactly
/// one sub-group, and sub-groups are contiguous and equal.
#[test]
fn partitions_partition() {
    for vcs in 1..24 {
        for groups in (1..=vcs).filter(|g| vcs % g == 0) {
            let p = VixPartition::even(vcs, groups).expect("divisor");
            assert_eq!(p.group_size() * p.groups(), p.vcs(), "{vcs} VCs in {groups} groups");
            let mut counts = vec![0usize; groups];
            for vc in 0..vcs {
                let g = p.group_of(VcId(vc)).0;
                assert_eq!(g, vc / p.group_size(), "{vcs} VCs in {groups} groups: VC {vc}");
                counts[g] += 1;
            }
            assert!(counts.iter().all(|&c| c == p.group_size()), "{vcs} VCs in {groups} groups");
        }
    }
}

/// Request sets behave like a map keyed by (port, vc).
#[test]
fn request_set_is_a_map() {
    for_each_seed(0x100, |seed, rng| {
        let mut rs = RequestSet::new(5, 6);
        let mut model = HashMap::new();
        for _ in 0..rng.gen_range(0..60usize) {
            let (p, v, o) = (rng.gen_range(0..5usize), rng.gen_range(0..6usize), rng.gen_range(0..5usize));
            rs.request(PortId(p), VcId(v), PortId(o));
            model.insert((p, v), o);
        }
        assert_eq!(rs.len(), model.len(), "seed {seed}");
        for (&(p, v), &o) in &model {
            assert_eq!(rs.get(PortId(p), VcId(v)).map(|r| r.out_port), Some(PortId(o)), "seed {seed}");
        }
        for r in rs.active_requests() {
            assert_eq!(model.get(&(r.port.0, r.vc.0)), Some(&r.out_port.0), "seed {seed}");
        }
    });
}

/// A conflict-free grant set built from a permutation always validates;
/// duplicating one of its grants always fails.
#[test]
fn grant_validation_is_sound() {
    for seed in 0..500usize {
        let mut rs = RequestSet::new(5, 6);
        let mut grants = GrantSet::new();
        for p in 0..5 {
            let (o, v) = ((p + seed) % 5, (seed + p) % 6);
            rs.request(PortId(p), VcId(v), PortId(o));
            grants.add(Grant { port: PortId(p), vc: VcId(v), out_port: PortId(o) });
        }
        let part = VixPartition::baseline(6);
        assert!(grants.validate_against(&rs, &part).is_ok(), "seed {seed}");
        let dup = *grants.iter().next().expect("five grants");
        grants.add(dup);
        assert!(grants.validate_against(&rs, &part).is_err(), "seed {seed}");
    }
}

/// Router configuration validation accepts exactly the divisible
/// virtual-input counts.
#[test]
fn router_validation_matches_divisibility() {
    for ports in 2..12 {
        for vcs in 1..12 {
            for k in 1..12 {
                let cfg = RouterConfig::new(ports, vcs, 5).with_virtual_inputs(VirtualInputs::PerPort(k));
                let should_pass = k <= vcs && vcs % k == 0;
                assert_eq!(cfg.validate().is_ok(), should_pass, "ports={ports} vcs={vcs} k={k}");
                if should_pass {
                    assert_eq!(cfg.crossbar_inputs(), ports * k, "ports={ports} vcs={vcs} k={k}");
                }
            }
        }
    }
}

/// Flit kinds tile a packet: one head, one tail, bodies between.
#[test]
fn flit_kinds_tile_packets() {
    for len in 1..20 {
        let d = PacketDescriptor::new(PacketId(1), NodeId(0), NodeId(1), len, Cycle(0));
        assert_eq!((0..len).filter(|&i| d.flit_kind(i).is_head()).count(), 1, "len {len}");
        assert_eq!((0..len).filter(|&i| d.flit_kind(i).is_tail()).count(), 1, "len {len}");
        assert!(d.flit_kind(0).is_head(), "len {len}");
        assert!(d.flit_kind(len - 1).is_tail(), "len {len}");
    }
}
