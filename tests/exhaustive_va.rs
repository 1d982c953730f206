//! Exhaustive small-scope check of VC allocation: instead of sampling
//! output-port states, enumerate every one a 6-VC port can be in.
//!
//! Each downstream VC is free or allocated (2⁶ masks) and holds 0, 1 or 2
//! credits (3⁶ vectors): 46 656 port states. Every state is offered to
//! `select_output_vc` under both policies, for k ∈ {1, 2, 3} sub-groups
//! and downstream dimension X, Y and local — 839 808 calls. Each pick must
//! be the exact argmax of a brute-force ranking written from §2.3 of the
//! paper, which shares no code with the selection:
//!
//! * max-credits VA takes the free VC with the most credits, the lowest
//!   index on ties;
//! * dimension-aware VA takes a free VC of the sub-group matching the
//!   packet's downstream dimension (X → sub-group 0, Y → sub-group 1;
//!   local traffic has no preference), then of the sub-group holding the
//!   fewest allocated VCs, then the most credits, then the lowest index.
//!
//! And directly: no allocated VC is ever picked, the pick is `None` exactly
//! when every VC is allocated, and dimension-aware VA never leaves the
//! preferred sub-group while that sub-group has a free VC.

use std::cmp::Ordering;
use vix::core::{PortId, VcId, VixPartition};
use vix::router::{select_output_vc, OutputVcs, VcAllocPolicy};

const VCS: usize = 6;
const DEPTH: usize = 2;
const OUT: PortId = PortId(0);

/// One enumerated port state: allocation flags and credits per VC.
struct PortState {
    allocated: [bool; VCS],
    credits: [usize; VCS],
}

impl PortState {
    /// State number `mask` (allocation bits) and `code` (base-3 credits).
    fn decode(mask: usize, mut code: usize) -> Self {
        let mut state = PortState { allocated: [false; VCS], credits: [0; VCS] };
        for v in 0..VCS {
            state.allocated[v] = mask >> v & 1 == 1;
            state.credits[v] = code % 3;
            code /= 3;
        }
        state
    }

    /// The same state as the router's output registers.
    fn outputs(&self) -> OutputVcs {
        let mut out = OutputVcs::new(1, VCS, DEPTH, &[false]);
        for v in 0..VCS {
            if self.allocated[v] {
                out.allocate(OUT, VcId(v), v);
            }
            for _ in self.credits[v]..DEPTH {
                out.consume_credit(OUT, VcId(v));
            }
        }
        out
    }
}

/// The sub-group a packet bound along `dim` prefers among `k`, if any.
fn preferred(dim: usize, k: usize, dimension_aware: bool) -> Option<usize> {
    (dimension_aware && k > 1 && dim < 2).then_some(dim % k)
}

/// Brute-force VA: sorts every free VC by the §2.3 ranking and takes the
/// first.
fn brute_force(state: &PortState, k: usize, dim: usize, dimension_aware: bool) -> Option<VcId> {
    let size = VCS / k;
    let group = |v: usize| v / size;
    let load = |g: usize| (g * size..(g + 1) * size).filter(|&v| state.allocated[v]).count();
    let pref = preferred(dim, k, dimension_aware);
    let rank = |a: &usize, b: &usize| -> Ordering {
        let (a, b) = (*a, *b);
        let mut order = Ordering::Equal;
        if dimension_aware {
            // Preferred sub-group first, then the lighter sub-group.
            order = (pref == Some(group(b)))
                .cmp(&(pref == Some(group(a))))
                .then(load(group(a)).cmp(&load(group(b))));
        }
        order.then(state.credits[b].cmp(&state.credits[a])).then(a.cmp(&b))
    };
    let mut free: Vec<usize> = (0..VCS).filter(|&v| !state.allocated[v]).collect();
    free.sort_by(rank);
    free.first().map(|&v| VcId(v))
}

#[test]
fn vc_allocation_is_the_exact_argmax_on_every_port_state() {
    let policies = [(VcAllocPolicy::MaxCredits, false), (VcAllocPolicy::DimensionAware, true)];
    let mut calls = 0u64;
    for mask in 0..1 << VCS {
        for code in 0..3usize.pow(VCS as u32) {
            let state = PortState::decode(mask, code);
            let outputs = state.outputs();
            for k in [1, 2, 3] {
                let partition = VixPartition::even(VCS, k).unwrap();
                let size = VCS / k;
                for dim in 0..3 {
                    for (policy, dimension_aware) in policies {
                        let what = || {
                            let credits = state.credits;
                            format!("mask {mask:06b}, credits {credits:?}, k {k}, dim {dim}, {policy:?}")
                        };
                        let got = select_output_vc(policy, &outputs, OUT, &partition, dim);
                        calls += 1;
                        assert_eq!(
                            got.is_none(),
                            mask == (1 << VCS) - 1,
                            "{}: None iff all allocated",
                            what()
                        );
                        if let Some(v) = got {
                            assert!(!state.allocated[v.0], "{}: picked allocated VC {v}", what());
                        }
                        if let (Some(v), Some(p)) = (got, preferred(dim, k, dimension_aware)) {
                            let group_has_free =
                                (p * size..(p + 1) * size).any(|v| !state.allocated[v]);
                            if group_has_free {
                                assert_eq!(
                                    v.0 / size,
                                    p,
                                    "{}: left the preferred sub-group",
                                    what()
                                );
                            }
                        }
                        let expected = brute_force(&state, k, dim, dimension_aware);
                        assert_eq!(got, expected, "{}: not the argmax", what());
                    }
                }
            }
        }
    }
    assert_eq!(calls, 64 * 729 * 3 * 3 * 2);
}
