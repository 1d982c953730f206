//! The VC → virtual-input partition at the heart of VIX (§2.1 of the paper).
//!
//! A VIX router partitions the `v` virtual channels of each input port into
//! `k` *sub-groups*; each sub-group feeds one virtual input of the crossbar
//! through a `v/k : 1` multiplexer. At most one VC per sub-group can
//! traverse the crossbar per cycle, but VCs in *different* sub-groups of the
//! same port can transmit simultaneously.

use crate::error::ConfigError;
use crate::ids::{VcId, VirtualInputId};

/// An even partition of `vcs` virtual channels into `groups` sub-groups of
/// `vcs / groups` consecutive VCs each.
///
/// With `groups == 1` this degenerates to the baseline router (every VC
/// behind the single crossbar input of its port); with `groups == vcs` it is
/// the paper's "ideal VIX".
///
/// `group_size` and its fixed-point reciprocal are derived once here: the
/// accessors sit on per-cycle allocator and VC-allocation loops, which
/// perform no runtime division (DESIGN.md §6d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VixPartition {
    vcs: usize,
    groups: usize,
    /// `vcs / groups`.
    group_size: usize,
    /// `floor(2^32 / group_size) + 1`: `(vc * group_recip) >> 32` equals
    /// `vc / group_size` exactly while `vc * group_size < 2^32`.
    group_recip: u64,
}

/// Largest VC count [`VixPartition::group_of`]'s reciprocal multiply is
/// exact for (`vcs² ≤ 2^32`) — far past the 255 VCs a
/// [`Flit`](crate::Flit) can name.
const MAX_VCS: usize = 1 << 16;

impl VixPartition {
    /// Creates an even partition.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnevenPartition`] if `groups` does not divide
    /// `vcs`, and [`ConfigError::BadVirtualInputs`] if `groups` is zero or
    /// exceeds `vcs`.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` exceeds 65 536 (no router can address that many).
    pub fn even(vcs: usize, groups: usize) -> Result<Self, ConfigError> {
        if groups == 0 || groups > vcs {
            return Err(ConfigError::BadVirtualInputs { virtual_inputs: groups, vcs });
        }
        if !vcs.is_multiple_of(groups) {
            return Err(ConfigError::UnevenPartition { vcs, virtual_inputs: groups });
        }
        assert!(vcs <= MAX_VCS, "{vcs} VCs per port exceeds the supported {MAX_VCS}");
        let group_size = vcs / groups;
        Ok(VixPartition { vcs, groups, group_size, group_recip: (1 << 32) / group_size as u64 + 1 })
    }

    /// Partition with a single group (baseline router, no VIX).
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero.
    #[must_use]
    pub fn baseline(vcs: usize) -> Self {
        VixPartition::even(vcs, 1).expect("vcs must be nonzero")
    }

    /// Total VCs per port.
    #[must_use]
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Number of sub-groups (virtual inputs per port).
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// VCs per sub-group.
    #[must_use]
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Sub-group (virtual input) a VC belongs to.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `vc` is out of range. This accessor sits
    /// on allocator inner loops, so the bounds check is a `debug_assert`.
    #[inline]
    #[must_use]
    pub fn group_of(&self, vc: VcId) -> VirtualInputId {
        debug_assert!(vc.0 < self.vcs, "VC {vc} out of range (vcs = {})", self.vcs);
        VirtualInputId(((vc.0 as u64 * self.group_recip) >> 32) as usize)
    }

    /// First flat VC index of one sub-group — the start of the
    /// `group_size()`-bit window the bitset allocator kernels carve out of
    /// a [`RequestSet`](crate::RequestSet) VC row with
    /// [`extract_range`](crate::bits::extract_range), which works for any
    /// VC width.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `group` is out of range. This accessor
    /// sits on allocator inner loops, so the bounds check is a
    /// `debug_assert`.
    #[inline]
    #[must_use]
    pub fn group_start(&self, group: VirtualInputId) -> usize {
        debug_assert!(
            group.0 < self.groups,
            "sub-group {group} out of range (groups = {})",
            self.groups
        );
        group.0 * self.group_size()
    }

    /// Iterator over the VCs of one sub-group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn vcs_in_group(&self, group: VirtualInputId) -> impl Iterator<Item = VcId> + '_ {
        assert!(group.0 < self.groups, "sub-group {group} out of range (groups = {})", self.groups);
        let size = self.group_size();
        (group.0 * size..(group.0 + 1) * size).map(VcId)
    }

    /// Iterator over all sub-group ids.
    #[cfg(test)]
    fn group_ids(&self) -> impl Iterator<Item = VirtualInputId> {
        (0..self.groups).map(VirtualInputId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_vcs_two_groups() {
        let p = VixPartition::even(6, 2).unwrap();
        assert_eq!(p.group_size(), 3);
        assert_eq!(p.group_of(VcId(0)), VirtualInputId(0));
        assert_eq!(p.group_of(VcId(2)), VirtualInputId(0));
        assert_eq!(p.group_of(VcId(3)), VirtualInputId(1));
        assert_eq!(p.group_of(VcId(5)), VirtualInputId(1));
    }

    #[test]
    fn group_of_matches_division_for_every_divisor() {
        // The reciprocal multiply must agree with `vc / group_size` for
        // every even partition, including the widest supported one.
        for vcs in (1..=300).chain([4096, MAX_VCS]) {
            for groups in (1..=vcs).filter(|g| vcs % g == 0) {
                let p = VixPartition::even(vcs, groups).unwrap();
                let step = if vcs > 300 { 61 } else { 1 };
                for vc in (0..vcs).step_by(step).chain([vcs - 1]) {
                    assert_eq!(p.group_of(VcId(vc)).0, vc / (vcs / groups), "{vcs}/{groups} vc {vc}");
                }
            }
        }
    }

    #[test]
    fn group_members_partition_the_vcs() {
        let p = VixPartition::even(6, 3).unwrap();
        let mut all: Vec<VcId> = p.group_ids().flat_map(|g| p.vcs_in_group(g)).collect();
        all.sort();
        assert_eq!(all, (0..6).map(VcId).collect::<Vec<_>>());
    }

    #[test]
    fn baseline_puts_all_vcs_in_group_zero() {
        let p = VixPartition::baseline(4);
        for vc in 0..4 {
            assert_eq!(p.group_of(VcId(vc)), VirtualInputId(0));
        }
    }

    #[test]
    fn ideal_puts_each_vc_in_own_group() {
        let p = VixPartition::even(4, 4).unwrap();
        for vc in 0..4 {
            assert_eq!(p.group_of(VcId(vc)), VirtualInputId(vc));
        }
    }

    #[test]
    fn uneven_partition_is_an_error() {
        assert!(VixPartition::even(5, 2).is_err());
        assert!(VixPartition::even(6, 4).is_err());
    }

    #[test]
    fn zero_or_oversized_groups_rejected() {
        assert!(VixPartition::even(4, 0).is_err());
        assert!(VixPartition::even(4, 5).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn group_of_bounds_checked() {
        let p = VixPartition::even(4, 2).unwrap();
        let _ = p.group_of(VcId(4));
    }

    #[test]
    fn membership_is_consistent_with_group_of() {
        let p = VixPartition::even(8, 4).unwrap();
        for g in p.group_ids() {
            for vc in p.vcs_in_group(g) {
                assert_eq!(p.group_of(vc), g);
            }
        }
    }
}
