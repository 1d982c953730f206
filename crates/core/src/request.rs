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

use crate::bits::{any_set, extract_range, mask_up_to, range_any_set, test_bit, words_for};
use crate::ids::{PortId, VcId};
use crate::vix::VixPartition;
use std::fmt;
use std::ops::Range;

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

/// The requests of one allocation cycle, as what a request is: two VC
/// masks per input port (every posted request, and the speculative ones)
/// plus the requested output of every VC, and its age on a set built with
/// ages. Each allocator gathers the request rows it arbitrates over from
/// these (DESIGN.md §6d).
#[derive(Debug, Clone)]
pub struct RequestSet {
    ports: usize,
    vcs: usize,
    /// `ceil(vcs / 64)` — stride of every VC-mask row.
    vc_words: usize,
    /// Posted requests, kept in sync by every mutator so `len` and
    /// emptiness checks are O(1) in the allocators' hot loops.
    active: usize,
    /// Posted speculative requests; lets allocators skip a whole
    /// speculation pass when the class is empty.
    speculative: usize,
    /// `[port]` → VC mask of the posted requests, then `[port]` → VC mask
    /// of the speculative ones, `vc_words` words a row.
    masks: Vec<u64>,
    /// Requested output of flat VC `port * vcs + vc`: meaningful only while
    /// the VC's active bit is set, so `clear` never touches it, and a
    /// router writes it when the VC binds ([`RequestSet::record_out_port`]).
    out_port: Vec<u8>,
    /// Age of flat VC `port * vcs + vc` under the same rule; empty on an
    /// [`unaged`](RequestSet::unaged) set.
    age: Vec<u64>,
}

impl RequestSet {
    /// Creates an empty request set for a router with `ports` ports and
    /// `vcs` VCs per port, keeping each request's age.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `ports` exceeds 256 (output
    /// ports are stored in a byte). VC rows have no width limit: the masks
    /// store `ceil(vcs / 64)` words per row (DESIGN.md §6d).
    #[must_use]
    pub fn new(ports: usize, vcs: usize) -> Self {
        let mut set = RequestSet::unaged(ports, vcs);
        set.age = vec![0; ports * vcs];
        set
    }

    /// [`RequestSet::new`] without the age column, for a router whose
    /// allocator never reads ages: a pushed age is dropped and every
    /// request reads back with age 0.
    ///
    /// # Panics
    ///
    /// As [`RequestSet::new`].
    #[must_use]
    pub fn unaged(ports: usize, vcs: usize) -> Self {
        assert!(ports > 0 && vcs > 0, "request set dimensions must be nonzero");
        assert!(ports <= 256, "request set of {ports} ports: output ports must fit a byte");
        let vc_words = words_for(vcs);
        RequestSet {
            ports,
            vcs,
            vc_words,
            active: 0,
            speculative: 0,
            masks: vec![0; 2 * ports * vc_words],
            out_port: vec![0; ports * vcs],
            age: Vec::new(),
        }
    }

    // Read-side bounds are debug-only: `idx` sits on every allocator's
    // innermost loop. `push` checks in release too.
    fn idx(&self, port: PortId, vc: VcId) -> usize {
        debug_assert!(port.0 < self.ports, "port {port} out of range ({})", self.ports);
        debug_assert!(vc.0 < self.vcs, "vc {vc} out of range ({})", self.vcs);
        port.0 * self.vcs + vc.0
    }

    /// Word index of VC `vc`'s bit in `port`'s active row; the speculative
    /// row's word is `ports * vc_words` further.
    #[inline]
    fn word(&self, port: PortId, vc: VcId) -> usize {
        port.0 * self.vc_words + vc.0 / 64
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
    /// masks share one allocation, so a stray index would land in a
    /// neighbouring row instead of past the end.
    #[inline(always)]
    pub fn push(&mut self, req: SwitchRequest) {
        assert!(
            req.port.0 < self.ports && req.vc.0 < self.vcs && req.out_port.0 < self.ports,
            "request {}:{} -> {} out of range",
            req.port,
            req.vc,
            req.out_port
        );
        if test_bit(self.active_vcs(req.port), req.vc.0) {
            self.remove(req.port, req.vc);
        }
        let (i, w) = (self.idx(req.port, req.vc), self.word(req.port, req.vc));
        let bit = 1u64 << (req.vc.0 % 64);
        self.active += 1;
        self.speculative += usize::from(req.speculative);
        self.out_port[i] = req.out_port.0 as u8;
        if let Some(age) = self.age.get_mut(i) {
            *age = req.age;
        }
        self.masks[w] |= bit;
        self.masks[self.ports * self.vc_words + w] |= if req.speculative { bit } else { 0 };
    }

    /// Records `out_port` as the output `(port, vc)` requests from now on —
    /// a router calls it when the VC's packet binds, so the VC's later
    /// non-speculative requests ([`RequestSet::post_ready`]) need no
    /// per-VC write. Posts nothing.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn record_out_port(&mut self, port: PortId, vc: VcId, out_port: PortId) {
        assert!(out_port.0 < self.ports, "output port {out_port} out of range");
        let i = self.idx(port, vc);
        self.out_port[i] = out_port.0 as u8;
    }

    /// Posts a non-speculative request from every VC set in `ready`, a mask
    /// over flat VC indices `port * vcs + vc`, each for the output recorded
    /// for it ([`RequestSet::record_out_port`] or an earlier push): one
    /// word extraction per port. The set must be empty.
    #[inline]
    pub fn post_ready(&mut self, ready: &[u64]) {
        debug_assert!(self.is_empty(), "post_ready on a set that holds requests");
        debug_assert_eq!(ready.len(), words_for(self.ports * self.vcs), "flat mask width");
        let (vcs, vc_words) = (self.vcs, self.vc_words);
        let rows = &mut self.masks[..self.ports * vc_words];
        if let [word] = *ready {
            // Every port's line is a shift of the one flat word.
            for (port, row) in rows.iter_mut().enumerate() {
                *row = (word >> (port * vcs)) & mask_up_to(vcs);
            }
            self.active = word.count_ones() as usize;
            return;
        }
        let mut posted = 0;
        for (port, row) in rows.chunks_exact_mut(vc_words).enumerate() {
            extract_range(ready, port * vcs, vcs, row);
            posted += row.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
        self.active = posted;
    }

    /// Sets the age of the request `(port, vc)` posts, if the set keeps
    /// ages (a no-op on an [`unaged`](RequestSet::unaged) set).
    #[inline]
    pub fn set_age(&mut self, port: PortId, vc: VcId, age: u64) {
        let i = self.idx(port, vc);
        if let Some(slot) = self.age.get_mut(i) {
            *slot = age;
        }
    }

    /// Removes the request from `(port, vc)`, if any.
    pub fn remove(&mut self, port: PortId, vc: VcId) -> Option<SwitchRequest> {
        let old = self.get(port, vc)?;
        let (w, bit) = (self.word(port, vc), 1u64 << (vc.0 % 64));
        self.active -= 1;
        self.speculative -= usize::from(old.speculative);
        self.masks[w] &= !bit;
        self.masks[self.ports * self.vc_words + w] &= !bit;
        Some(old)
    }

    /// Clears all requests, reusing the allocation: one flat fill over the
    /// two mask families, whatever the number of posted requests. An empty
    /// set is already all-zero, so it is left alone. The per-VC output and
    /// age columns are never cleared.
    #[inline]
    pub fn clear(&mut self) {
        if self.active != 0 {
            self.masks.fill(0);
            self.active = 0;
            self.speculative = 0;
        }
    }

    /// The request posted by `(port, vc)`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, port: PortId, vc: VcId) -> Option<SwitchRequest> {
        let i = self.idx(port, vc);
        test_bit(self.active_vcs(port), vc.0).then(|| SwitchRequest {
            port,
            vc,
            out_port: PortId(self.out_port[i].into()),
            speculative: test_bit(self.spec_vcs(port), vc.0),
            age: self.age(port, vc),
        })
    }

    /// The output the request from `(port, vc)` names — meaningful only
    /// while that VC has a request posted. The separable kernels read it
    /// for each stage-1 champion instead of assembling a whole request.
    #[inline]
    #[must_use]
    pub fn out_port(&self, port: PortId, vc: VcId) -> PortId {
        PortId(self.out_port[self.idx(port, vc)].into())
    }

    /// Calls `f(vc, out, speculative)` for every request posted at `port`,
    /// in VC order: the walk over the set bits of the port's VC mask that
    /// every allocator gathers its request rows with.
    #[inline(always)]
    pub fn for_each_request_at(&self, port: PortId, f: impl FnMut(VcId, PortId, bool)) {
        let outs = &self.out_port[port.0 * self.vcs..][..self.vcs];
        walk_row(self.active_vcs(port), self.spec_vcs(port), outs, f);
    }

    /// [`for_each_request_at`](RequestSet::for_each_request_at) over every
    /// port: `f(port, vc, out, speculative)` in (port, vc) order.
    #[inline(always)]
    pub fn for_each_request(&self, mut f: impl FnMut(PortId, VcId, PortId, bool)) {
        let (active, spec) = self.masks.split_at(self.ports * self.vc_words);
        let rows = active.chunks_exact(self.vc_words).zip(spec.chunks_exact(self.vc_words));
        for (port, ((active, spec), outs)) in rows.zip(self.out_port.chunks_exact(self.vcs)).enumerate() {
            walk_row(active, spec, outs, |vc, out, speculative| f(PortId(port), vc, out, speculative));
        }
    }

    /// The age of the request from `(port, vc)` — meaningful only while
    /// that VC has a request posted; 0 on an [`unaged`](RequestSet::unaged)
    /// set.
    #[inline]
    #[must_use]
    pub fn age(&self, port: PortId, vc: VcId) -> u64 {
        self.age.get(self.idx(port, vc)).copied().unwrap_or(0)
    }

    /// Writes into `line` the mask of `port`'s requests for `out` among
    /// the VCs `vcs` (bit `i` ⇔ VC `vcs.start + i`), of one speculation
    /// class or of either with `None`. The allocators read the line of a
    /// `(virtual input, output)` pair only when they grant it, so they never
    /// build the whole `[class][port][out]` matrix.
    #[inline]
    pub fn vcs_requesting(
        &self,
        port: PortId,
        out: PortId,
        speculative: Option<bool>,
        vcs: Range<usize>,
        line: &mut [u64],
    ) {
        debug_assert!(vcs.end <= self.vcs && vcs.len() <= line.len() * 64, "VC window {vcs:?} out of range");
        let outs = &self.out_port[port.0 * self.vcs..][..self.vcs];
        let (active, spec) = (self.active_vcs(port), self.spec_vcs(port));
        // Branch-free, one register per line word: which VC requests `out`
        // is data, not control flow.
        for (i, dst) in line.iter_mut().enumerate() {
            let window = vcs.start + i * 64..vcs.end.min(vcs.start + (i + 1) * 64);
            let mut hits = 0u64;
            for (j, v) in window.enumerate() {
                let class = speculative.is_none_or(|s| test_bit(spec, v) == s);
                hits |= u64::from(test_bit(active, v) & class & (outs[v] == out.0 as u8)) << j;
            }
            *dst = hits;
        }
    }

    /// Number of virtual inputs of `partition` with a request posted — the
    /// matching record's survivor count (O(ports × groups) window tests).
    #[must_use]
    pub fn active_virtual_inputs(&self, partition: &VixPartition) -> usize {
        let (groups, size) = (partition.groups(), partition.group_size());
        (0..self.ports)
            .map(|p| (0..groups).filter(|&g| range_any_set(self.active_vcs(PortId(p)), g * size, size)).count())
            .sum()
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

    /// Words per VC-mask row: `ceil(vcs / 64)`.
    #[inline]
    #[must_use]
    pub fn vc_words(&self) -> usize {
        self.vc_words
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

    /// True when one of the VCs of `port` posted a request (O(words)).
    #[must_use]
    pub fn port_is_active(&self, port: PortId) -> bool {
        any_set(self.active_vcs(port))
    }

    /// VC mask of every request posted at `port` (bit `v` ⇔ VC `v`).
    #[inline]
    #[must_use]
    pub fn active_vcs(&self, port: PortId) -> &[u64] {
        debug_assert!(port.0 < self.ports, "port {port} out of range ({})", self.ports);
        &self.masks[port.0 * self.vc_words..][..self.vc_words]
    }

    /// VC mask of the speculative requests posted at `port`.
    #[inline]
    #[must_use]
    pub fn spec_vcs(&self, port: PortId) -> &[u64] {
        debug_assert!(port.0 < self.ports, "port {port} out of range ({})", self.ports);
        &self.masks[(self.ports + port.0) * self.vc_words..][..self.vc_words]
    }
}

/// The set bits of one port's `active` row, each with its VC's output in
/// `outs` and its bit in `spec`.
#[inline(always)]
fn walk_row(active: &[u64], spec: &[u64], outs: &[u8], mut f: impl FnMut(VcId, PortId, bool)) {
    for (w, &word) in active.iter().enumerate() {
        let mut scan = word;
        while scan != 0 {
            let bit = scan.trailing_zeros();
            scan &= scan - 1;
            let vc = w * 64 + bit as usize;
            // Read lazily, so a caller that ignores the class never loads it.
            let speculative = spec.get(w).is_some_and(|&s| (s >> bit) & 1 != 0);
            f(VcId(vc), PortId(outs[vc].into()), speculative);
        }
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

    fn req(p: usize, v: usize, o: usize, speculative: bool) -> SwitchRequest {
        SwitchRequest { port: PortId(p), vc: VcId(v), out_port: PortId(o), speculative, age: 0 }
    }

    /// Compares the masks and counts of `rs` with a from-scratch rebuild of
    /// its listed requests — the invariant every mutator must preserve.
    fn assert_consistent(rs: &RequestSet) {
        let mut rebuilt = RequestSet::new(rs.ports(), rs.vcs_per_port());
        for r in rs.active_requests() {
            rebuilt.push(r);
        }
        for port in (0..rs.ports()).map(PortId) {
            assert_eq!(rs.active_vcs(port), rebuilt.active_vcs(port), "active mask of {port}");
            assert_eq!(rs.spec_vcs(port), rebuilt.spec_vcs(port), "speculative mask of {port}");
        }
        assert_eq!((rs.len(), rs.speculative_len()), (rebuilt.len(), rebuilt.speculative_len()));
    }

    #[test]
    fn masks_track_push_remove_clear() {
        let mut rs = RequestSet::new(4, 3);
        rs.push(req(1, 0, 2, false));
        rs.push(req(1, 2, 2, true));
        rs.push(req(3, 1, 0, false));
        assert_consistent(&rs);
        assert_eq!(rs.active_vcs(PortId(1)), [0b101]);
        assert_eq!(rs.spec_vcs(PortId(1)), [0b100]);
        rs.remove(PortId(1), VcId(0));
        assert_consistent(&rs);
        assert_eq!(rs.active_vcs(PortId(1)), [0b100]);
        rs.clear();
        assert_consistent(&rs);
        assert_eq!(rs.active_vcs(PortId(3)), [0]);
    }

    #[test]
    fn replacing_a_request_moves_its_bits() {
        let mut rs = RequestSet::new(3, 2);
        rs.push(req(0, 1, 2, true));
        // Same VC, new output, new class: the old bits must vanish.
        rs.push(req(0, 1, 1, false));
        assert_consistent(&rs);
        assert_eq!(rs.spec_vcs(PortId(0)), [0]);
        assert_eq!(rs.out_port(PortId(0), VcId(1)), PortId(1));
    }

    #[test]
    fn random_churn_stays_consistent() {
        // Deterministic pseudo-random insert/remove/clear churn.
        let mut rs = RequestSet::new(6, 4);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..2_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (p, v, o) = ((x % 6) as usize, ((x >> 8) % 4) as usize, ((x >> 16) % 6) as usize);
            match (x >> 24) % 10 {
                0 => rs.clear(),
                1 | 2 => drop(rs.remove(PortId(p), VcId(v))),
                _ => rs.push(req(p, v, o, (x >> 32).is_multiple_of(3))),
            }
            if step.is_multiple_of(97) {
                assert_consistent(&rs);
            }
        }
        assert_consistent(&rs);
    }

    #[test]
    fn wide_vc_rows_span_multiple_words() {
        // 3 ports × 130 VCs: every VC mask is three words.
        let mut rs = RequestSet::new(3, 130);
        rs.push(req(0, 129, 2, false));
        rs.push(req(0, 64, 2, true));
        rs.push(req(0, 63, 1, false));
        assert_consistent(&rs);
        assert_eq!(rs.vc_words(), 3);
        assert_eq!(rs.active_vcs(PortId(0)), [1u64 << 63, 1, 1u64 << 1]);
        assert_eq!(rs.spec_vcs(PortId(0)), [0, 1, 0]);
        let mut line = [0u64; 3];
        rs.vcs_requesting(PortId(0), PortId(2), Some(false), 0..130, &mut line);
        assert_eq!(line, [0, 0, 1u64 << 1]);
        rs.vcs_requesting(PortId(0), PortId(2), None, 0..130, &mut line);
        assert_eq!(line, [0, 1, 1u64 << 1]);
        // A window straddling a word boundary, rebased to bit 0.
        let mut window = [0u64; 2];
        rs.vcs_requesting(PortId(0), PortId(2), None, 60..130, &mut window);
        assert_eq!(window, [1u64 << 4, 1u64 << 5]);
        rs.vcs_requesting(PortId(0), PortId(1), Some(true), 60..130, &mut window);
        assert_eq!(window, [0, 0]);
        rs.clear();
        assert_consistent(&rs);
    }

    #[test]
    fn post_ready_posts_the_recorded_outputs() {
        // 3 ports × 30 VCs: port 2's window straddles the flat word boundary.
        let mut rs = RequestSet::new(3, 30);
        rs.record_out_port(PortId(0), VcId(4), PortId(2));
        rs.record_out_port(PortId(2), VcId(3), PortId(1));
        rs.record_out_port(PortId(2), VcId(29), PortId(0));
        let mut ready = [0u64; 2];
        for flat in [4, 63, 89] {
            crate::bits::set_bit(&mut ready, flat);
        }
        rs.post_ready(&ready);
        assert_consistent(&rs);
        assert_eq!(rs.speculative_len(), 0);
        let listed: Vec<_> = rs.active_requests().map(|r| (r.port.0, r.vc.0, r.out_port.0)).collect();
        assert_eq!(listed, [(0, 4, 2), (2, 3, 1), (2, 29, 0)]);
        // One flat word: the shift path posts the same.
        let mut narrow = RequestSet::new(2, 3);
        narrow.record_out_port(PortId(1), VcId(2), PortId(0));
        narrow.post_ready(&[1 << 5]);
        assert_eq!(narrow.get(PortId(1), VcId(2)).map(|r| r.out_port), Some(PortId(0)));
    }

    #[test]
    fn unaged_sets_drop_ages() {
        let mut rs = RequestSet::unaged(2, 2);
        rs.push(SwitchRequest { age: 9, ..req(1, 1, 0, false) });
        rs.set_age(PortId(1), VcId(1), 7);
        assert_eq!(rs.get(PortId(1), VcId(1)).map(|r| r.age), Some(0));
        let mut aged = RequestSet::new(2, 2);
        aged.push(SwitchRequest { age: 9, ..req(1, 1, 0, false) });
        aged.set_age(PortId(1), VcId(1), 7);
        assert_eq!(aged.get(PortId(1), VcId(1)).map(|r| r.age), Some(7));
    }

    #[test]
    fn active_virtual_inputs_counts_requesting_subgroups() {
        let mut rs = RequestSet::new(3, 6);
        rs.push(req(0, 0, 1, false)); // port 0, sub-group 0 of 2
        rs.push(req(0, 1, 2, true)); // same sub-group
        rs.push(req(2, 5, 0, false)); // port 2, sub-group 1
        assert_eq!(rs.active_virtual_inputs(&VixPartition::baseline(6)), 2);
        assert_eq!(rs.active_virtual_inputs(&VixPartition::even(6, 2).unwrap()), 2);
        assert_eq!(rs.active_virtual_inputs(&VixPartition::even(6, 6).unwrap()), 3);
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
