//! Switch allocation vocabulary: request sets and grant sets.
//!
//! Every cycle, each input VC that has a flit ready to traverse the switch
//! posts a [`SwitchRequest`] for its output port. A switch allocator turns
//! the resulting [`RequestSet`] into a [`GrantSet`] subject to the crossbar's
//! structural constraints:
//!
//! * at most one grant per output port,
//! * at most one grant per input VC,
//! * at most one grant per *virtual input* — which for a baseline router
//!   means one per input port, and for a 1:2 VIX router means up to two per
//!   port (one per VC sub-group).
//!
//! [`GrantSet::validate_against`] checks those invariants and is used by the
//! property-based tests of every allocator.

use crate::bits::{test_bit, RequestBits};
use crate::ids::{PortId, VcId};
use crate::vix::VixPartition;
use std::fmt;

/// One input VC's request for an output port in the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRequest {
    /// Requesting input port.
    pub port: PortId,
    /// Requesting VC within the port.
    pub vc: VcId,
    /// Output port the head-of-line flit needs.
    pub out_port: PortId,
    /// True when the request is speculative (issued in parallel with VC
    /// allocation); non-speculative requests are prioritised.
    pub speculative: bool,
    /// Age or priority key — larger means older / more urgent. Used by
    /// prioritising allocators; plain round-robin allocators ignore it.
    pub age: u64,
}

/// The requests of one allocation cycle, stored once: the word-parallel
/// bit planes ([`RequestBits`]) say *which* `(port, VC)` pairs request what
/// and in which speculation class; two flat per-VC arrays carry the rest of
/// each request. There is no second per-slot copy to keep in sync
/// (DESIGN.md §6d).
#[derive(Debug, Clone)]
pub struct RequestSet {
    ports: usize,
    vcs: usize,
    /// Posted requests, kept in sync by `push`/`remove`/`clear` so `len`
    /// and emptiness checks are O(1) in the allocators' hot loops.
    active: usize,
    /// Posted speculative requests; lets allocators skip a whole
    /// speculation pass when the class is empty.
    speculative: usize,
    /// Requested output / age of flat VC `port * vcs + vc`; meaningful only
    /// while the VC's bit in the planes' active mask is set, so `clear`
    /// never touches them.
    out_port: Vec<PortId>,
    age: Vec<u64>,
    bits: RequestBits,
}

impl RequestSet {
    /// Creates an empty request set for a router with `ports` ports and
    /// `vcs` VCs per port.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero. There is no upper width limit:
    /// the bit planes store `ceil(width / 64)` words per row
    /// (DESIGN.md §6d).
    #[must_use]
    pub fn new(ports: usize, vcs: usize) -> Self {
        assert!(ports > 0 && vcs > 0, "request set dimensions must be nonzero");
        RequestSet {
            ports,
            vcs,
            active: 0,
            speculative: 0,
            out_port: vec![PortId(0); ports * vcs],
            age: vec![0; ports * vcs],
            bits: RequestBits::new(ports, vcs),
        }
    }

    // Read-side bounds are debug-only: `idx` sits on every allocator's
    // innermost loop. `push` — the only writer — checks in release too.
    fn idx(&self, port: PortId, vc: VcId) -> usize {
        debug_assert!(port.0 < self.ports, "port {port} out of range ({})", self.ports);
        debug_assert!(vc.0 < self.vcs, "vc {vc} out of range ({})", self.vcs);
        port.0 * self.vcs + vc.0
    }

    /// Posts a non-speculative request from `(port, vc)` for `out_port`,
    /// replacing any previous request from that VC.
    pub fn request(&mut self, port: PortId, vc: VcId, out_port: PortId) {
        self.push(SwitchRequest { port, vc, out_port, speculative: false, age: 0 });
    }

    /// Posts a fully-specified request, replacing any previous request from
    /// the same VC.
    ///
    /// # Panics
    ///
    /// Panics if the request's port, VC or output port is out of range: the
    /// planes share one allocation, so a stray index would land in a
    /// neighbouring plane instead of past the end.
    #[inline(always)]
    pub fn push(&mut self, req: SwitchRequest) {
        assert!(
            req.port.0 < self.ports && req.vc.0 < self.vcs && req.out_port.0 < self.ports,
            "request {}:{} -> {} out of range",
            req.port,
            req.vc,
            req.out_port
        );
        if test_bit(self.bits.active_vcs(req.port), req.vc.0) {
            self.remove(req.port, req.vc);
        }
        let i = self.idx(req.port, req.vc);
        self.active += 1;
        self.speculative += usize::from(req.speculative);
        self.out_port[i] = req.out_port;
        self.age[i] = req.age;
        self.bits.insert(req.port.0, req.vc.0, req.out_port.0, req.speculative);
    }

    /// Removes the request from `(port, vc)`, if any.
    pub fn remove(&mut self, port: PortId, vc: VcId) -> Option<SwitchRequest> {
        let old = self.get(port, vc)?;
        self.active -= 1;
        self.speculative -= usize::from(old.speculative);
        self.bits.remove(port.0, vc.0, old.out_port.0, old.speculative);
        Some(old)
    }

    /// Clears all requests, reusing the allocation: one flat fill over the
    /// bit planes, whatever the number of posted requests. An empty set is
    /// already all-zero (every mutator keeps the planes in lockstep with
    /// `active`), so it is left alone.
    #[inline]
    pub fn clear(&mut self) {
        if self.active != 0 {
            self.bits.clear();
            self.active = 0;
            self.speculative = 0;
        }
    }

    /// The request posted by `(port, vc)`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, port: PortId, vc: VcId) -> Option<SwitchRequest> {
        let i = self.idx(port, vc);
        test_bit(self.bits.active_vcs(port), vc.0).then(|| SwitchRequest {
            port,
            vc,
            out_port: self.out_port[i],
            speculative: test_bit(self.bits.spec_vcs(port), vc.0),
            age: self.age[i],
        })
    }

    /// Number of physical input ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// VCs per port.
    #[must_use]
    pub fn vcs_per_port(&self) -> usize {
        self.vcs
    }

    /// Iterator over all posted requests, in (port, vc) order.
    pub fn active_requests(&self) -> impl Iterator<Item = SwitchRequest> + '_ {
        (0..self.ports).flat_map(move |p| self.requests_from(PortId(p)))
    }

    /// Iterator over the requests from one input port, in VC order.
    fn requests_from(&self, port: PortId) -> impl Iterator<Item = SwitchRequest> + '_ {
        (0..self.vcs).filter_map(move |v| self.get(port, VcId(v)))
    }

    /// True if no VC posted a request.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// Number of posted requests (O(1)).
    #[must_use]
    pub fn len(&self) -> usize {
        self.active
    }

    /// Number of posted speculative requests (O(1)). Allocators use this
    /// to skip a whole speculative arbitration pass when the class is
    /// empty — an empty pass can never grant or move arbiter state.
    #[must_use]
    pub fn speculative_len(&self) -> usize {
        self.speculative
    }

    /// True when one of the VCs of `port` posted a request (O(words) —
    /// a word scan of the planes' per-port activity mask).
    #[must_use]
    pub fn port_is_active(&self, port: PortId) -> bool {
        crate::bits::any_set(self.bits.active_vcs(port))
    }

    /// The dense word-parallel planes of this set, maintained by every
    /// mutator. Bitset allocator kernels read whole request rows from here.
    #[must_use]
    pub fn bits(&self) -> &RequestBits {
        &self.bits
    }
}

/// One granted crossbar connection for the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Winning input port.
    pub port: PortId,
    /// Winning VC within the port.
    pub vc: VcId,
    /// Output port granted to that VC.
    pub out_port: PortId,
}

/// A violated crossbar invariant, reported by
/// [`GrantSet::validate_against`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrantViolation {
    /// A grant was issued to a VC that had not requested anything, or for a
    /// different output than requested.
    UnrequestedGrant(Grant),
    /// Two grants drive the same output port.
    OutputConflict(PortId),
    /// The same VC was granted twice.
    DuplicateVc(PortId, VcId),
    /// More grants at one input port than it has virtual inputs.
    InputOverSubscribed {
        /// Over-subscribed port.
        port: PortId,
        /// Grants issued at the port.
        granted: usize,
        /// Virtual inputs (capacity) available at the port.
        capacity: usize,
    },
    /// Two VCs in the same virtual-input sub-group were granted at once.
    SubgroupConflict(PortId, VcId, VcId),
}

impl fmt::Display for GrantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrantViolation::UnrequestedGrant(g) => {
                write!(f, "grant {}:{} -> {} matches no request", g.port, g.vc, g.out_port)
            }
            GrantViolation::OutputConflict(p) => write!(f, "output port {p} granted twice"),
            GrantViolation::DuplicateVc(p, v) => write!(f, "vc {p}:{v} granted twice"),
            GrantViolation::InputOverSubscribed { port, granted, capacity } => {
                write!(f, "input port {port} received {granted} grants but has {capacity} virtual inputs")
            }
            GrantViolation::SubgroupConflict(p, a, b) => {
                write!(f, "vcs {p}:{a} and {p}:{b} share a virtual input but were both granted")
            }
        }
    }
}

impl std::error::Error for GrantViolation {}

/// The set of crossbar connections granted in one cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrantSet {
    grants: Vec<Grant>,
}

impl GrantSet {
    /// Creates an empty grant set.
    #[must_use]
    pub fn new() -> Self {
        GrantSet { grants: Vec::new() }
    }

    /// Creates an empty grant set with room for `capacity` grants, so a
    /// reused set reaches its steady-state footprint without reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        GrantSet { grants: Vec::with_capacity(capacity) }
    }

    /// Empties the set, retaining its allocation. Pairing `clear` with
    /// refills like `vix_alloc::Allocator::allocate_into` is the hot loop's
    /// reuse contract: after warmup the backing `Vec` never grows again.
    pub fn clear(&mut self) {
        self.grants.clear();
    }

    /// Adds a grant. Structural invariants are checked lazily by
    /// [`validate_against`](GrantSet::validate_against), not here, so that
    /// intentionally-buggy allocators can be probed in tests.
    #[inline]
    pub fn add(&mut self, grant: Grant) {
        self.grants.push(grant);
    }

    /// Iterator over all grants.
    pub fn iter(&self) -> impl Iterator<Item = &Grant> {
        self.grants.iter()
    }

    /// Number of grants (flits that will traverse the switch).
    #[must_use]
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// True if nothing was granted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Grant driving `out_port`, if any.
    #[must_use]
    pub fn for_output(&self, out_port: PortId) -> Option<&Grant> {
        self.grants.iter().find(|g| g.out_port == out_port)
    }

    /// The output granted to `(port, vc)`, if any.
    #[must_use]
    pub fn output_of(&self, port: PortId, vc: VcId) -> Option<PortId> {
        self.grants.iter().find(|g| g.port == port && g.vc == vc).map(|g| g.out_port)
    }

    /// Number of grants issued at `port`.
    #[must_use]
    pub fn count_for_input(&self, port: PortId) -> usize {
        self.grants.iter().filter(|g| g.port == port).count()
    }

    /// Checks every crossbar invariant against the originating requests.
    ///
    /// `partition` describes the VC → virtual input mapping of the router;
    /// pass [`VixPartition::baseline`] for a conventional router.
    ///
    /// # Errors
    ///
    /// Returns the first [`GrantViolation`] found.
    pub fn validate_against(
        &self,
        requests: &RequestSet,
        partition: &VixPartition,
    ) -> Result<(), GrantViolation> {
        // Pairwise scans over the (small, ≤ ports × groups) grant list
        // instead of `seen` collections: this runs inside per-cycle
        // `debug_assert!`s, so it must never heap-allocate.
        for (i, g) in self.grants.iter().enumerate() {
            match requests.get(g.port, g.vc) {
                Some(r) if r.out_port == g.out_port => {}
                _ => return Err(GrantViolation::UnrequestedGrant(*g)),
            }
            if self.grants[..i].iter().any(|e| e.out_port == g.out_port) {
                return Err(GrantViolation::OutputConflict(g.out_port));
            }
            if self.grants[..i].iter().any(|e| (e.port, e.vc) == (g.port, g.vc)) {
                return Err(GrantViolation::DuplicateVc(g.port, g.vc));
            }
        }
        // Per-port capacity and per-sub-group exclusivity.
        for port in (0..requests.ports()).map(PortId) {
            let granted = self.grants.iter().filter(|g| g.port == port).count();
            if granted > partition.groups() {
                return Err(GrantViolation::InputOverSubscribed {
                    port,
                    granted,
                    capacity: partition.groups(),
                });
            }
            for (i, a) in self.grants.iter().enumerate().filter(|(_, g)| g.port == port) {
                for b in self.grants[i + 1..].iter().filter(|g| g.port == port) {
                    if partition.group_of(a.vc) == partition.group_of(b.vc) {
                        return Err(GrantViolation::SubgroupConflict(port, a.vc, b.vc));
                    }
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<Grant> for GrantSet {
    fn from_iter<I: IntoIterator<Item = Grant>>(iter: I) -> Self {
        GrantSet { grants: iter.into_iter().collect() }
    }
}

impl Extend<Grant> for GrantSet {
    fn extend<I: IntoIterator<Item = Grant>>(&mut self, iter: I) {
        self.grants.extend(iter);
    }
}

impl<'a> IntoIterator for &'a GrantSet {
    type Item = &'a Grant;
    type IntoIter = std::slice::Iter<'a, Grant>;

    fn into_iter(self) -> Self::IntoIter {
        self.grants.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(p: usize, v: usize, o: usize) -> Grant {
        Grant { port: PortId(p), vc: VcId(v), out_port: PortId(o) }
    }

    #[test]
    fn request_roundtrip() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(1), VcId(2), PortId(3));
        assert_eq!(rs.len(), 1);
        let r = rs.get(PortId(1), VcId(2)).unwrap();
        assert_eq!(r.out_port, PortId(3));
        assert!(!r.speculative);
        assert!(rs.get(PortId(0), VcId(0)).is_none());
        assert_eq!(rs.remove(PortId(1), VcId(2)).unwrap().out_port, PortId(3));
        assert!(rs.is_empty());
    }

    #[test]
    fn request_replaces_previous() {
        let mut rs = RequestSet::new(2, 2);
        rs.request(PortId(0), VcId(0), PortId(1));
        rs.request(PortId(0), VcId(0), PortId(0));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(PortId(0), VcId(0)).unwrap().out_port, PortId(0));
    }

    #[test]
    fn per_port_views() {
        let mut rs = RequestSet::new(3, 2);
        rs.request(PortId(0), VcId(0), PortId(2));
        rs.request(PortId(0), VcId(1), PortId(1));
        rs.request(PortId(2), VcId(0), PortId(2));
        assert_eq!(rs.requests_from(PortId(0)).count(), 2);
        assert_eq!(rs.requests_from(PortId(1)).count(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut rs = RequestSet::new(2, 2);
        rs.request(PortId(0), VcId(0), PortId(1));
        rs.clear();
        assert!(rs.is_empty());
        assert_eq!(rs.active_requests().count(), 0);
    }

    #[test]
    fn valid_grants_pass_validation() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        rs.request(PortId(1), VcId(3), PortId(2));
        let gs: GrantSet = [grant(0, 0, 4), grant(1, 3, 2)].into_iter().collect();
        gs.validate_against(&rs, &VixPartition::baseline(6)).unwrap();
    }

    #[test]
    fn unrequested_grant_detected() {
        let rs = RequestSet::new(5, 6);
        let gs: GrantSet = [grant(0, 0, 4)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::baseline(6)),
            Err(GrantViolation::UnrequestedGrant(_))
        ));
    }

    #[test]
    fn wrong_output_grant_detected() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        let gs: GrantSet = [grant(0, 0, 3)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::baseline(6)),
            Err(GrantViolation::UnrequestedGrant(_))
        ));
    }

    #[test]
    fn output_conflict_detected() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        rs.request(PortId(1), VcId(0), PortId(4));
        let gs: GrantSet = [grant(0, 0, 4), grant(1, 0, 4)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::baseline(6)),
            Err(GrantViolation::OutputConflict(_))
        ));
    }

    #[test]
    fn baseline_port_cannot_send_two_flits() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        rs.request(PortId(0), VcId(3), PortId(2));
        let gs: GrantSet = [grant(0, 0, 4), grant(0, 3, 2)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::baseline(6)),
            Err(GrantViolation::InputOverSubscribed { .. })
        ));
    }

    #[test]
    fn vix_port_can_send_two_flits_from_different_subgroups() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4)); // sub-group 0 (VCs 0-2)
        rs.request(PortId(0), VcId(3), PortId(2)); // sub-group 1 (VCs 3-5)
        let gs: GrantSet = [grant(0, 0, 4), grant(0, 3, 2)].into_iter().collect();
        gs.validate_against(&rs, &VixPartition::even(6, 2).unwrap()).unwrap();
    }

    #[test]
    fn vix_same_subgroup_conflict_detected() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        rs.request(PortId(0), VcId(1), PortId(2)); // same sub-group as VC 0
        let gs: GrantSet = [grant(0, 0, 4), grant(0, 1, 2)].into_iter().collect();
        assert!(matches!(
            gs.validate_against(&rs, &VixPartition::even(6, 2).unwrap()),
            Err(GrantViolation::SubgroupConflict(..))
        ));
    }

    #[test]
    fn duplicate_vc_detected() {
        let mut rs = RequestSet::new(5, 6);
        rs.request(PortId(0), VcId(0), PortId(4));
        let gs: GrantSet = [grant(0, 0, 4), grant(0, 0, 4)].into_iter().collect();
        // Output conflict fires first (same output twice) — either violation
        // is acceptable but something must fire.
        assert!(gs.validate_against(&rs, &VixPartition::baseline(6)).is_err());
    }

    #[test]
    fn grant_set_lookups() {
        let gs: GrantSet = [grant(0, 0, 4), grant(1, 3, 2)].into_iter().collect();
        assert_eq!(gs.len(), 2);
        assert!(!gs.is_empty());
        assert_eq!(gs.for_output(PortId(4)).unwrap().port, PortId(0));
        assert!(gs.for_output(PortId(0)).is_none());
        assert_eq!(gs.output_of(PortId(1), VcId(3)), Some(PortId(2)));
        assert_eq!(gs.output_of(PortId(1), VcId(0)), None);
        assert_eq!(gs.count_for_input(PortId(0)), 1);
        assert_eq!(gs.count_for_input(PortId(3)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn request_bounds_checked() {
        let mut rs = RequestSet::new(2, 2);
        rs.request(PortId(2), VcId(0), PortId(0));
    }
}
