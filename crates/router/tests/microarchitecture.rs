//! Micro-architectural integration tests for the router pipeline:
//! speculation penalties, VC allocation policies, credit protocol abuse,
//! and age plumbing — exercised through the public API only.

use vix_alloc::build_allocator;
use vix_core::{
    AllocatorKind, Cycle, Flit, NodeId, PacketDescriptor, PacketId, PortId, RouterConfig,
    RouterId, VcId, VirtualInputs,
};
use vix_router::{Router, RouterEnv};

/// A 4-port router: ports 0/1/2 are network ports, port 3 is a sink.
fn router(kind: AllocatorKind, cfg: RouterConfig) -> Router {
    let alloc = build_allocator(kind, &cfg);
    let env = RouterEnv::new(vec![0, 0, 1, 2], vec![false, false, false, true]);
    Router::new(RouterId(0), cfg, alloc, env)
}

fn packet(id: u64, len: usize) -> PacketDescriptor {
    PacketDescriptor::new(PacketId(id), NodeId(0), NodeId(1), len, Cycle(0))
}

fn flit_of(p: PacketDescriptor, index: usize, out: PortId, vc: VcId) -> Flit {
    Flit::new(p, index, out, out, Some(vc), Cycle(0))
}

#[test]
fn wasted_speculation_leaves_output_idle() {
    // Packet A holds the only VC of output 1 mid-packet. Packet B's head
    // speculates, fails VA, and its speculative grant is dropped — output
    // 1 idles that cycle even though B's grant "won".
    let cfg = RouterConfig::new(4, 1, 4);
    let mut r = router(AllocatorKind::InputFirst, cfg);
    r.accept_flit(PortId(0), flit_of(packet(1, 3), 0, PortId(1), VcId(0)));
    let out = r.step(Cycle(0));
    assert_eq!(out.flits.len(), 1, "A's head traverses");

    // B arrives on another port wanting the same output; A's VC is held.
    r.accept_flit(PortId(2), flit_of(packet(2, 1), 0, PortId(1), VcId(0)));
    let out = r.step(Cycle(1));
    // A has no flit buffered this cycle (body not yet arrived): B's
    // speculative request is the only one, wins SA, but VA failed.
    assert!(out.flits.is_empty(), "failed speculation must not traverse");

    // Deliver A's remaining flits; B proceeds after the tail frees the VC.
    r.accept_flit(PortId(0), flit_of(packet(1, 3), 1, PortId(1), VcId(0)));
    r.accept_flit(PortId(0), flit_of(packet(1, 3), 2, PortId(1), VcId(0)));
    let moved: usize = (2..6).map(|c| r.step(Cycle(c)).flits.len()).sum();
    assert_eq!(moved, 3, "A's body+tail and then B must all traverse");
    assert!(r.is_empty());
}

#[test]
fn dimension_aware_va_separates_subgroups_at_router_level() {
    // A VIX router forwarding two packets whose *downstream* ports are in
    // different dimensions must bind them to different sub-groups.
    let cfg = RouterConfig::new(4, 4, 4).with_virtual_inputs(VirtualInputs::PerPort(2));
    let mut r = router(AllocatorKind::Vix, cfg);
    // Both head to output 0 (non-sink), with lookahead in X (dim 0 → port
    // 0/1) vs Y (dim 1 → port 2).
    let mut a = flit_of(packet(1, 1), 0, PortId(0), VcId(0));
    a.set_route(a.out_port(), PortId(1)); // X downstream
    let mut b = flit_of(packet(2, 1), 0, PortId(0), VcId(1));
    b.set_route(b.out_port(), PortId(2)); // Y downstream
    r.accept_flit(PortId(1), a);
    r.accept_flit(PortId(2), b);
    let mut out_vcs = Vec::new();
    for c in 0..4 {
        for (_, f) in r.step(Cycle(c)).flits {
            out_vcs.push(f.out_vc().expect("assigned").0);
        }
    }
    assert_eq!(out_vcs.len(), 2);
    // Sub-groups of 4 VCs / 2 groups: {0,1} and {2,3}.
    let groups: Vec<usize> = out_vcs.iter().map(|v| v / 2).collect();
    assert_ne!(groups[0], groups[1], "X and Y packets must land in different sub-groups");
}

#[test]
fn max_credits_policy_without_dimension_awareness() {
    let cfg = RouterConfig::new(4, 4, 4)
        .with_virtual_inputs(VirtualInputs::PerPort(2))
        .with_dimension_aware_va(false);
    let mut r = router(AllocatorKind::Vix, cfg);
    r.accept_flit(PortId(0), flit_of(packet(1, 1), 0, PortId(1), VcId(0)));
    let moved: usize = (0..3).map(|c| r.step(Cycle(c)).flits.len()).sum();
    assert_eq!(moved, 1, "plain max-credits VA still routes packets");
}

#[test]
#[should_panic(expected = "buffer overflow")]
fn credit_violation_is_loud() {
    // Delivering more flits than the buffer depth without credits is a
    // protocol violation the router must catch, not absorb.
    let cfg = RouterConfig::new(4, 1, 2);
    let mut r = router(AllocatorKind::InputFirst, cfg);
    for i in 0..3 {
        r.accept_flit(PortId(0), flit_of(packet(1, 4), i, PortId(1), VcId(0)));
    }
}

#[test]
fn age_based_router_prefers_starved_vc() {
    // Two VCs at different ports contend for the sink. With age-based SA,
    // after VC A loses a few rounds its age exceeds the fresh packets'
    // and it must win.
    let cfg = RouterConfig::new(4, 2, 4).with_age_based_sa(true);
    let mut r = router(AllocatorKind::InputFirst, cfg);
    // Register a long-waiting packet on port 0.
    r.accept_flit(PortId(0), flit_of(packet(1, 1), 0, PortId(3), VcId(0)));
    // And a stream of rivals on port 1 (one per cycle).
    let mut winners = Vec::new();
    for c in 0..4u64 {
        let rival = PacketDescriptor::new(PacketId(100 + c), NodeId(2), NodeId(1), 1, Cycle(c));
        r.accept_flit(PortId(1), flit_of(rival, 0, PortId(3), VcId(0)));
        for (_, f) in r.step(Cycle(c)).flits {
            winners.push(f.packet_id());
        }
    }
    assert!(
        winners.contains(&PacketId(1)),
        "the aged packet must win within a few cycles: {winners:?}"
    );
}

#[test]
fn all_allocators_drive_the_same_router_datapath() {
    for kind in [
        AllocatorKind::InputFirst,
        AllocatorKind::Wavefront,
        AllocatorKind::AugmentingPath,
        AllocatorKind::PacketChaining,
        AllocatorKind::Islip(2),
    ] {
        let cfg = RouterConfig::new(4, 2, 4);
        let mut r = router(kind, cfg);
        r.accept_flit(PortId(0), flit_of(packet(1, 2), 0, PortId(3), VcId(0)));
        r.accept_flit(PortId(0), flit_of(packet(1, 2), 1, PortId(3), VcId(0)));
        r.accept_flit(PortId(1), flit_of(packet(2, 1), 0, PortId(2), VcId(1)));
        let moved: usize = (0..6).map(|c| r.step(Cycle(c)).flits.len()).sum();
        assert_eq!(moved, 3, "{kind:?} must deliver all three flits");
        assert!(r.is_empty(), "{kind:?} left flits behind");
    }
}

#[test]
fn vix_and_wfvix_routers_move_two_flits_per_port() {
    for kind in [AllocatorKind::Vix, AllocatorKind::WavefrontVix] {
        let cfg = RouterConfig::new(4, 2, 4).with_virtual_inputs(VirtualInputs::PerPort(2));
        let mut r = router(kind, cfg);
        r.accept_flit(PortId(0), flit_of(packet(1, 1), 0, PortId(2), VcId(0)));
        r.accept_flit(PortId(0), flit_of(packet(2, 1), 0, PortId(3), VcId(1)));
        let out = r.step(Cycle(0));
        assert_eq!(out.flits.len(), 2, "{kind:?} must use both virtual inputs");
    }
}
