//! VC allocation policy, including the VIX dimension-aware sub-group
//! assignment with load balancing (§2.3 of the paper).

use crate::output::{OutputVcs, NO_OWNER};
use std::cmp::Reverse;
use vix_core::{PortId, VcId, VixPartition};

/// Preferred VC sub-group for a packet whose *downstream* output port moves
/// along `dimension` (0 = X, 1 = Y, 2 = local/ejection).
///
/// X and Y requests map to distinct sub-groups so that, at the downstream
/// router, requests for different output dimensions arrive on different
/// virtual inputs — fewer output-port conflicts, per §2.3. Local traffic
/// has no dimension preference (`None`): it is placed purely by load
/// balancing.
#[must_use]
pub fn preferred_group(dimension: usize, groups: usize) -> Option<usize> {
    match dimension {
        d @ (0 | 1) if groups > 1 => Some(d % groups),
        _ => None,
    }
}

/// How VC allocation chooses among free downstream VCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcAllocPolicy {
    /// The paper's baseline: the free VC with the most credits.
    MaxCredits,
    /// The paper's VIX policy (§2.3): prefer the sub-group matching the
    /// packet's downstream direction, balance load across sub-groups, then
    /// break ties by credits.
    DimensionAware,
}

/// Picks a downstream VC for a packet at VC allocation time.
///
/// `out` is the output port being allocated, `downstream_dim` the
/// dimension of the output port the packet will request at the downstream
/// router (its lookahead port). `partition` describes the downstream input
/// port's sub-groups. Returns `None` when every VC is held by another
/// packet.
///
/// The selection never picks an allocated VC, so atomic (non-interleaved)
/// VC usage is preserved.
#[must_use]
pub fn select_output_vc(
    policy: VcAllocPolicy,
    outputs: &OutputVcs,
    out: PortId,
    partition: &VixPartition,
    downstream_dim: usize,
) -> Option<VcId> {
    let (credits, owners) = outputs.port_registers(out);
    // MaxCredits ranks the whole port as one sub-group with no preference.
    let (groups, size, preferred) = match policy {
        VcAllocPolicy::MaxCredits => (1, credits.len(), None),
        VcAllocPolicy::DimensionAware => {
            let groups = partition.groups();
            (groups, partition.group_size(), preferred_group(downstream_dim, groups))
        }
    };
    debug_assert_eq!(groups * size, credits.len(), "partition does not cover the port");
    // Rank: preferred sub-group first, then lightest-loaded sub-group, then
    // most credits, then lowest index. Within a sub-group only credits and
    // index differ, so each sub-group's first free VC with the most credits
    // challenges the leader; a strict `>` keeps the lower index on ties.
    // The initial key is below every real one (loads stay under `MAX`).
    let (mut best_key, mut best) = ((false, Reverse(usize::MAX), 0), None);
    for group in 0..groups {
        let mut load = 0; // allocated VCs of the sub-group
        let mut pick: Option<usize> = None;
        for v in group * size..(group + 1) * size {
            if owners[v] != NO_OWNER {
                load += 1;
            } else if pick.is_none_or(|p| credits[v] > credits[p]) {
                pick = Some(v);
            }
        }
        if let Some(v) = pick {
            let key = (preferred == Some(group), Reverse(load), credits[v]);
            if key > best_key {
                (best_key, best) = (key, Some(VcId(v)));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: PortId = PortId(0);

    fn port_with(vcs: usize, depth: usize) -> OutputVcs {
        OutputVcs::new(1, vcs, depth, &[false])
    }

    #[test]
    fn preferred_group_maps_dimensions() {
        assert_eq!(preferred_group(0, 2), Some(0));
        assert_eq!(preferred_group(1, 2), Some(1));
        assert_eq!(preferred_group(2, 2), None, "local traffic has no preference");
        assert_eq!(preferred_group(0, 1), None, "baseline routers have no sub-groups");
    }

    #[test]
    fn max_credits_picks_fullest_vc() {
        let mut port = port_with(3, 5);
        port.consume_credit(OUT, VcId(0));
        port.consume_credit(OUT, VcId(0));
        port.consume_credit(OUT, VcId(1));
        let part = VixPartition::baseline(3);
        let vc = select_output_vc(VcAllocPolicy::MaxCredits, &port, OUT, &part, 0);
        assert_eq!(vc, Some(VcId(2)));
    }

    #[test]
    fn max_credits_ties_break_to_lowest_index() {
        let port = port_with(3, 5);
        let part = VixPartition::baseline(3);
        assert_eq!(
            select_output_vc(VcAllocPolicy::MaxCredits, &port, OUT, &part, 0),
            Some(VcId(0))
        );
    }

    #[test]
    fn allocated_vcs_never_selected() {
        let mut port = port_with(2, 5);
        port.allocate(OUT, VcId(0), 0);
        let part = VixPartition::baseline(2);
        assert_eq!(
            select_output_vc(VcAllocPolicy::MaxCredits, &port, OUT, &part, 0),
            Some(VcId(1))
        );
        port.allocate(OUT, VcId(1), 1);
        assert_eq!(select_output_vc(VcAllocPolicy::MaxCredits, &port, OUT, &part, 0), None);
    }

    #[test]
    fn dimension_aware_prefers_matching_subgroup() {
        // 6 VCs, 2 sub-groups: {0,1,2} and {3,4,5}.
        let port = port_with(6, 5);
        let part = VixPartition::even(6, 2).unwrap();
        // X-bound packet → sub-group 0; Y-bound → sub-group 1.
        let x = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 0).unwrap();
        assert_eq!(part.group_of(x).0, 0);
        let y = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 1).unwrap();
        assert_eq!(part.group_of(y).0, 1);
    }

    #[test]
    fn dimension_aware_falls_back_when_preferred_full() {
        let mut port = port_with(4, 5);
        let part = VixPartition::even(4, 2).unwrap();
        port.allocate(OUT, VcId(0), 0);
        port.allocate(OUT, VcId(1), 1); // sub-group 0 exhausted
        let vc = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 0).unwrap();
        assert_eq!(part.group_of(vc).0, 1, "must fall back to the other sub-group");
    }

    #[test]
    fn local_traffic_balances_load() {
        let mut port = port_with(4, 5);
        let part = VixPartition::even(4, 2).unwrap();
        port.allocate(OUT, VcId(0), 0); // sub-group 0 carries one packet
        let vc = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 2).unwrap();
        assert_eq!(part.group_of(vc).0, 1, "local packet goes to the lighter sub-group");
    }

    /// The ranking as first written: every candidate VC recounts its
    /// sub-group's load. Kept as the reference the group-major form must
    /// reproduce.
    fn dimension_aware_reference(
        outputs: &OutputVcs,
        partition: &VixPartition,
        downstream_dim: usize,
    ) -> Option<VcId> {
        let preferred = preferred_group(downstream_dim, partition.groups());
        let load = |group: usize| {
            partition
                .vcs_in_group(vix_core::VirtualInputId(group))
                .filter(|&vc| outputs.is_allocated(OUT, vc))
                .count()
        };
        (0..outputs.vc_count()).map(VcId).filter(|&vc| !outputs.is_allocated(OUT, vc)).max_by_key(
            |&vc| {
                let group = partition.group_of(vc).0;
                (
                    usize::from(preferred == Some(group)),
                    std::cmp::Reverse(load(group)),
                    outputs.credits(OUT, vc),
                    std::cmp::Reverse(vc.0),
                )
            },
        )
    }

    #[test]
    fn dimension_aware_matches_reference_on_random_states() {
        use vix_rng::rngs::StdRng;
        use vix_rng::{Rng, SeedableRng};
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (vcs, groups) = [(6, 2), (6, 3), (6, 6), (8, 2), (4, 1), (12, 4)][seed as usize % 6];
            let depth = 5;
            let part = VixPartition::even(vcs, groups).unwrap();
            let mut port = port_with(vcs, depth);
            for v in (0..vcs).map(VcId) {
                if rng.gen_bool(0.4) {
                    port.allocate(OUT, v, v.0);
                }
                for _ in 0..rng.gen_range(0..depth + 1) {
                    port.consume_credit(OUT, v);
                }
            }
            for dim in 0..3 {
                assert_eq!(
                    select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, dim),
                    dimension_aware_reference(&port, &part, dim),
                    "seed {seed}, {vcs} VCs in {groups} groups, dimension {dim}"
                );
            }
        }
    }

    #[test]
    fn dimension_aware_on_baseline_degenerates_to_credits() {
        let mut port = port_with(3, 5);
        port.consume_credit(OUT, VcId(0));
        let part = VixPartition::baseline(3);
        let vc = select_output_vc(VcAllocPolicy::DimensionAware, &port, OUT, &part, 0);
        assert_eq!(vc, Some(VcId(1)));
    }
}
