//! Input-side state: per-VC flit buffers in structure-of-arrays layout
//! over one contiguous slab.
//!
//! Every scalar register of a virtual channel — output-VC binding,
//! head-of-line timestamp, route-computation flag — lives in its own
//! flat array indexed by `(port, vc)`. The FIFO contents of *all* VCs
//! live in a single `Vec<Flit>` slab of `ports × vcs × depth` slots:
//! VC `(port, vc)` owns the `depth` consecutive slots starting at
//! `(port · vcs + vc) · depth` and treats them as a ring via per-VC
//! `head`/`len` cursors (branch-free conditional-subtract wrap, so `depth`
//! need not be a power of two). One allocation at construction, zero
//! pointer chasing per access, and neighbouring VCs share cache lines —
//! the pipeline's sweeps (the five-stage RC scan, the VA/request pass)
//! each touch one array linearly.
//!
//! A parallel occupancy bitset (one bit per VC, multi-word beyond 64 VCs)
//! lets those sweeps skip empty VCs entirely; at typical loads only a
//! handful of a router's VCs hold flits. A second bitset marks the VCs
//! whose head-of-line flit awaits VC allocation, so RC and VA run for
//! those alone — about one in eight occupied VCs at saturation. A third,
//! `ready`, marks the VCs bound to a downstream VC that holds a credit:
//! `occupied & ready` is a step's non-speculative switch requests, with
//! no per-VC visit (DESIGN.md §6d).

use vix_core::bits::{clear_bit, set_bit, words_for};
use vix_core::{Cycle, Flit, PortId, VcId};

/// Output-VC register value of an unbound VC (validated VC ids are ≤ 254).
const NO_VC: u8 = u8::MAX;

/// Head-of-line timestamp of a VC whose head arrived into an empty buffer
/// and has not yet been seen by a step.
const UNSTAMPED: u64 = u64::MAX;

/// Rows of [`InputVcs`]'s bitset allocation.
const OCCUPIED: usize = 0;
const WANTS_VA: usize = 1;
const READY: usize = 2;

/// All input virtual channels of a router: scalar registers in
/// structure-of-arrays layout (flat index `port * vc_count + vc`), FIFO
/// contents in one contiguous ring-buffer slab.
#[derive(Debug, Clone)]
pub struct InputVcs {
    ports: usize,
    vcs: usize,
    depth: usize,
    /// The flit slab: slot `i * depth + k` is ring slot `k` of flat VC `i`.
    slab: Vec<Flit>,
    /// Ring cursor of each VC: index of the head-of-line slot, `0 .. depth`.
    head: Vec<u32>,
    /// Buffered flit count of each VC, `0 ..= depth`.
    len: Vec<u32>,
    /// Three bitsets over flat VC indices, `row_words` words each:
    /// * occupied — bit set ⇔ `len > 0`;
    /// * wants_va — bit set ⇔ [`InputVcs::needs_va`], kept by `push` /
    ///   `pop` / `bind_out_vc`, the only operations that can change it;
    /// * ready — bit set ⇔ the VC is bound and its downstream VC holds a
    ///   credit, kept by `bind_out_vc`, `set_ready` and a tail's `pop`.
    bits: Vec<u64>,
    row_words: usize,
    /// Output VC (at the downstream router) assigned to the head-of-line
    /// packet by VC allocation; `NO_VC` while the HOL head flit awaits VA.
    out_vc: Vec<u8>,
    /// Cycle the head-of-line flit started waiting: the pop that uncovered
    /// it, or the first step after it arrived into an empty VC. Its age
    /// (for age-based allocation) is `now − hol_since`: no sweep ages it.
    hol_since: Vec<u64>,
    /// Whether route computation has run for the HOL packet (only
    /// meaningful for five-stage pipelines; three-stage routers use
    /// lookahead routing and never consult it).
    rc_done: Vec<bool>,
}

impl InputVcs {
    /// Creates `ports × vcs` empty virtual channels of `depth` flits each.
    /// The whole slab is allocated here; no later operation touches the
    /// heap.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero — a zero-depth VC could never buffer a
    /// flit.
    #[must_use]
    pub fn new(ports: usize, vcs: usize, depth: usize) -> Self {
        assert!(depth >= 1, "VC buffers need at least one slot");
        let n = ports * vcs;
        InputVcs {
            ports,
            vcs,
            depth,
            slab: vec![Flit::default(); n * depth],
            head: vec![0; n],
            len: vec![0; n],
            bits: vec![0; 3 * words_for(n.max(1))],
            row_words: words_for(n.max(1)),
            out_vc: vec![NO_VC; n],
            hol_since: vec![UNSTAMPED; n],
            rc_done: vec![false; n],
        }
    }

    /// Number of input ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of VCs per port.
    #[must_use]
    pub fn vc_count(&self) -> usize {
        self.vcs
    }

    /// Ring capacity of each VC in flits.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    #[inline]
    fn idx(&self, port: PortId, vc: VcId) -> usize {
        debug_assert!(port.0 < self.ports, "input port {port} out of range");
        debug_assert!(vc.0 < self.vcs, "input VC {vc} out of range");
        port.0 * self.vcs + vc.0
    }

    /// Slab index of ring slot `offset` past the head of flat VC `i`
    /// (branch-free wrap: `head + offset < 2 · depth` always holds).
    #[inline]
    fn slot(&self, i: usize, offset: usize) -> usize {
        let mut pos = self.head[i] as usize + offset;
        debug_assert!(offset < self.depth, "ring offset beyond capacity");
        if pos >= self.depth {
            pos -= self.depth;
        }
        i * self.depth + pos
    }

    /// Bitset row `row` (`OCCUPIED`, `WANTS_VA` or `READY`).
    #[inline]
    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.row_words..][..self.row_words]
    }

    #[inline]
    fn row_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.bits[row * self.row_words..][..self.row_words]
    }

    /// The occupancy bitset: bit `port * vc_count + vc` is set exactly
    /// when that VC buffers at least one flit. Sweeps over candidate VCs
    /// iterate its set bits instead of probing every `(port, vc)` pair.
    #[inline]
    #[must_use]
    pub fn occupied_words(&self) -> &[u64] {
        self.row(OCCUPIED)
    }

    /// The VA-candidate bitset: bit `port * vc_count + vc` is set exactly
    /// when [`InputVcs::needs_va`] holds for that VC. Every candidate is
    /// occupied.
    #[inline]
    #[must_use]
    pub fn wants_va_words(&self) -> &[u64] {
        self.row(WANTS_VA)
    }

    /// The ready bitset: bit `port * vc_count + vc` is set exactly when
    /// the VC is bound ([`InputVcs::out_vc`]) and the downstream VC it is
    /// bound to can take a flit — the router keeps it with
    /// [`InputVcs::set_ready`] as credits cross zero. No VA candidate is
    /// ready; an empty bound VC may be.
    #[inline]
    #[must_use]
    pub fn ready_words(&self) -> &[u64] {
        self.row(READY)
    }

    /// Sets or clears flat VC `flat`'s ready bit: the credit state of the
    /// downstream VC it is bound to changed.
    #[inline]
    pub fn set_ready(&mut self, flat: usize, ready: bool) {
        debug_assert!(!ready || self.out_vc[flat] != NO_VC, "an unbound VC cannot be ready");
        let row = self.row_mut(READY);
        if ready {
            set_bit(row, flat);
        } else {
            clear_bit(row, flat);
        }
    }

    /// Buffered flit count of one VC.
    #[must_use]
    pub fn occupancy(&self, port: PortId, vc: VcId) -> usize {
        self.len[self.idx(port, vc)] as usize
    }

    /// True when no flits are buffered in the VC.
    #[must_use]
    pub fn is_empty(&self, port: PortId, vc: VcId) -> bool {
        self.len[self.idx(port, vc)] == 0
    }

    /// Head-of-line flit of the VC, if any.
    #[inline]
    #[must_use]
    pub fn head(&self, port: PortId, vc: VcId) -> Option<&Flit> {
        let i = self.idx(port, vc);
        if self.len[i] == 0 {
            None
        } else {
            Some(&self.slab[self.slot(i, 0)])
        }
    }

    /// Output VC bound to the HOL packet.
    #[inline]
    #[must_use]
    pub fn out_vc(&self, port: PortId, vc: VcId) -> Option<VcId> {
        let bound = self.out_vc[self.idx(port, vc)];
        (bound != NO_VC).then_some(VcId(bound as usize))
    }

    /// Binds the HOL packet to a downstream VC (VC allocation result);
    /// `ready` says whether that VC can take a flit now.
    ///
    /// # Panics
    ///
    /// Panics if `bound` does not fit the one-byte register (VC ids ≤ 254).
    #[inline]
    pub fn bind_out_vc(&mut self, port: PortId, vc: VcId, bound: VcId, ready: bool) {
        let i = self.idx(port, vc);
        debug_assert!(self.out_vc[i] == NO_VC, "rebinding an already-bound VC");
        assert!(bound.0 < NO_VC as usize, "VC id overflows the output-VC register");
        self.out_vc[i] = bound.0 as u8;
        clear_bit(self.row_mut(WANTS_VA), i);
        self.set_ready(i, ready);
    }

    /// True when the HOL flit is a head awaiting VC allocation. The
    /// definition [`InputVcs::wants_va_words`] is maintained against.
    #[must_use]
    pub fn needs_va(&self, port: PortId, vc: VcId) -> bool {
        let i = self.idx(port, vc);
        self.out_vc[i] == NO_VC
            && self.len[i] > 0
            && self.slab[self.slot(i, 0)].is_head()
    }

    /// Appends an arriving flit (buffer write into the VC's next free ring
    /// slot).
    ///
    /// # Panics
    ///
    /// Panics if the ring already holds `depth` flits — that is a credit
    /// protocol violation upstream, never legal backpressure.
    #[inline(always)]
    pub fn push(&mut self, port: PortId, vc: VcId, flit: Flit) {
        let i = self.idx(port, vc);
        let len = self.len[i] as usize;
        assert!(len < self.depth, "buffer overflow: upstream violated credits");
        let slot = self.slot(i, len);
        self.slab[slot] = flit;
        if len == 0 {
            set_bit(self.row_mut(OCCUPIED), i);
            self.hol_since[i] = UNSTAMPED;
            if flit.is_head() && self.out_vc[i] == NO_VC {
                set_bit(self.row_mut(WANTS_VA), i);
            }
        }
        self.len[i] += 1;
    }

    /// Removes and returns the HOL flit (switch traversal at cycle `now`);
    /// clears the output-VC binding (and with it `ready`) when the
    /// packet's tail leaves, and the flit left behind starts waiting at
    /// `now`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    #[inline]
    pub fn pop(&mut self, port: PortId, vc: VcId, now: Cycle) -> Flit {
        let i = self.idx(port, vc);
        assert!(self.len[i] > 0, "pop from empty VC");
        let flit = self.slab[self.slot(i, 0)];
        let mut head = self.head[i] + 1;
        if head as usize == self.depth {
            head = 0;
        }
        self.head[i] = head;
        self.len[i] -= 1;
        if self.len[i] == 0 {
            clear_bit(self.row_mut(OCCUPIED), i);
        }
        // The flit left behind a tail is the next packet's head, unbound;
        // behind anything else sits the same packet's body, never a
        // candidate.
        clear_bit(self.row_mut(WANTS_VA), i);
        if flit.is_tail() {
            self.out_vc[i] = NO_VC;
            self.rc_done[i] = false;
            clear_bit(self.row_mut(READY), i);
            if self.len[i] > 0 && self.slab[self.slot(i, 0)].is_head() {
                set_bit(self.row_mut(WANTS_VA), i);
            }
        }
        self.hol_since[i] = now.0;
        flit
    }

    /// Whether route computation has completed for the HOL packet.
    #[must_use]
    pub fn rc_done(&self, port: PortId, vc: VcId) -> bool {
        self.rc_done[self.idx(port, vc)]
    }

    /// Marks the HOL packet's route as computed (five-stage RC stage).
    pub fn mark_rc_done(&mut self, port: PortId, vc: VcId) {
        let i = self.idx(port, vc);
        self.rc_done[i] = true;
    }

    /// Cycles the head-of-line flit of an occupied VC has waited at the
    /// front by cycle `now`. A head that arrived into an empty VC starts
    /// waiting at the first call, so a router whose allocator reads ages
    /// asks for every occupied VC on every step.
    #[inline]
    pub fn hol_age(&mut self, port: PortId, vc: VcId, now: Cycle) -> u64 {
        let i = self.idx(port, vc);
        debug_assert!(self.len[i] > 0, "age of an empty VC");
        if self.hol_since[i] == UNSTAMPED {
            self.hol_since[i] = now.0;
        }
        now.0 - self.hol_since[i]
    }

    /// Total buffered flits in one port's VCs.
    #[cfg(test)]
    fn port_occupancy(&self, port: PortId) -> usize {
        debug_assert!(port.0 < self.ports, "input port {port} out of range");
        self.len[port.0 * self.vcs..(port.0 + 1) * self.vcs]
            .iter()
            .map(|&l| l as usize)
            .sum()
    }

    /// Total buffered flits across all ports and VCs.
    #[must_use]
    pub fn total_occupancy(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::{NodeId, PacketDescriptor, PacketId};

    fn flit(len: usize, index: usize) -> Flit {
        let packet = PacketDescriptor::new(PacketId(1), NodeId(0), NodeId(1), len, Cycle(0));
        Flit::new(packet, index, PortId(0), PortId(0), None, Cycle(0))
    }

    const P: PortId = PortId(0);
    const V: VcId = VcId(0);

    #[test]
    fn fifo_order_preserved() {
        let mut vcs = InputVcs::new(1, 1, 5);
        for i in 0..3 {
            vcs.push(P, V, flit(3, i));
        }
        assert_eq!(vcs.occupancy(P, V), 3);
        for i in 0..3 {
            assert_eq!(vcs.pop(P, V, Cycle(0)).index(), i);
        }
        assert!(vcs.is_empty(P, V));
    }

    #[test]
    fn needs_va_only_for_unbound_head() {
        let mut vcs = InputVcs::new(1, 1, 5);
        assert!(!vcs.needs_va(P, V), "empty VC needs no VA");
        vcs.push(P, V, flit(2, 0));
        assert!(vcs.needs_va(P, V));
        vcs.bind_out_vc(P, V, VcId(3), true);
        assert!(!vcs.needs_va(P, V));
        assert_eq!(vcs.out_vc(P, V), Some(VcId(3)));
    }

    #[test]
    #[should_panic(expected = "VC id overflows")]
    fn oversized_binding_rejected() {
        let mut vcs = InputVcs::new(1, 1, 5);
        vcs.push(P, V, flit(1, 0));
        vcs.bind_out_vc(P, V, VcId(255), true);
    }

    #[test]
    fn tail_pop_clears_binding() {
        let mut vcs = InputVcs::new(1, 1, 5);
        vcs.push(P, V, flit(2, 0));
        vcs.push(P, V, flit(2, 1));
        vcs.bind_out_vc(P, V, VcId(2), true);
        vcs.pop(P, V, Cycle(0)); // head
        assert_eq!(vcs.out_vc(P, V), Some(VcId(2)), "binding persists for body/tail");
        vcs.pop(P, V, Cycle(0)); // tail
        assert_eq!(vcs.out_vc(P, V), None, "tail departure frees the binding");
    }

    #[test]
    fn body_flit_at_hol_does_not_need_va() {
        let mut vcs = InputVcs::new(1, 1, 5);
        vcs.push(P, V, flit(3, 1));
        assert!(!vcs.needs_va(P, V), "body flits never trigger VA");
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn overflow_detected() {
        let mut vcs = InputVcs::new(1, 1, 1);
        vcs.push(P, V, flit(1, 0));
        vcs.push(P, V, flit(1, 0));
    }

    #[test]
    fn full_ring_stalls_without_overwriting() {
        // Fill one VC to exactly `depth`; every buffered flit must survive
        // intact (backpressure is expressed upstream through credits — the
        // ring itself never overwrites) and drain in FIFO order.
        let depth = 4;
        let mut vcs = InputVcs::new(1, 1, depth);
        for i in 0..depth {
            vcs.push(P, V, flit(depth, i));
        }
        assert_eq!(vcs.occupancy(P, V), depth, "exactly full, nothing dropped");
        assert_eq!(vcs.head(P, V).map(Flit::index), Some(0), "head slot not overwritten");
        for i in 0..depth {
            assert_eq!(vcs.pop(P, V, Cycle(0)).index(), i, "FIFO order across the full ring");
        }
    }

    #[test]
    fn ring_wraps_across_slot_boundary() {
        // Interleave pops and pushes so the cursors wrap the physical slab
        // region several times; FIFO order must hold throughout.
        let mut vcs = InputVcs::new(1, 1, 3);
        let mut next_push = 0usize;
        let mut next_pop = 0usize;
        for _ in 0..3 {
            vcs.push(P, V, flit(64, next_push));
            next_push += 1;
        }
        for _ in 0..10 {
            assert_eq!(vcs.pop(P, V, Cycle(0)).index(), next_pop);
            next_pop += 1;
            vcs.push(P, V, flit(64, next_push));
            next_push += 1;
        }
        while !vcs.is_empty(P, V) {
            assert_eq!(vcs.pop(P, V, Cycle(0)).index(), next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push, "every pushed flit came back out");
    }

    #[test]
    fn occupied_bitset_tracks_nonempty_vcs() {
        let mut vcs = InputVcs::new(3, 4, 2);
        assert!(vcs.occupied_words().iter().all(|&w| w == 0));
        vcs.push(PortId(2), VcId(3), flit(2, 0)); // flat 11
        vcs.push(PortId(0), VcId(1), flit(1, 0)); // flat 1
        assert_eq!(vcs.occupied_words()[0], (1 << 11) | (1 << 1));
        vcs.push(PortId(2), VcId(3), flit(2, 1));
        assert_eq!(vcs.occupied_words()[0], (1 << 11) | (1 << 1), "second flit sets no new bit");
        vcs.pop(PortId(2), VcId(3), Cycle(0));
        assert_eq!(vcs.occupied_words()[0], (1 << 11) | (1 << 1), "still one flit left");
        vcs.pop(PortId(2), VcId(3), Cycle(0));
        assert_eq!(vcs.occupied_words()[0], 1 << 1, "drained VC clears its bit");
    }

    /// Seeded push / bind / pop sequences over well-formed per-VC flit
    /// streams (bound and unbound pops alike): after every operation the
    /// VA-candidate bitset equals `needs_va` recomputed for every VC,
    /// including on shapes wider than one word.
    #[test]
    fn wants_va_bitset_matches_needs_va_after_every_operation() {
        use vix_rng::{rngs::StdRng, Rng, SeedableRng};
        for (seed, (ports, vcs, depth)) in
            [(1, 1, 1), (3, 4, 2), (5, 6, 5), (10, 8, 3), (12, 6, 4)].into_iter().enumerate()
        {
            let n = ports * vcs;
            let mut rng = StdRng::seed_from_u64(0x5A7E + seed as u64);
            let mut q = InputVcs::new(ports, vcs, depth);
            // Per VC: (packet length, index of the next flit to arrive).
            let mut stream = vec![(1usize, 0usize); n];
            for op in 0..4000 {
                let flat = rng.gen_range(0..n);
                let (port, vc) = (PortId(flat / vcs), VcId(flat % vcs));
                match rng.gen_range(0..3usize) {
                    0 if q.occupancy(port, vc) < depth => {
                        let (len, index) = &mut stream[flat];
                        if *index == *len {
                            (*len, *index) = (rng.gen_range(1..5usize), 0);
                        }
                        q.push(port, vc, flit(*len, *index));
                        *index += 1;
                    }
                    1 if q.needs_va(port, vc) => q.bind_out_vc(port, vc, VcId(0), op % 2 == 0),
                    2 if !q.is_empty(port, vc) => drop(q.pop(port, vc, Cycle(op as u64))),
                    _ => continue,
                }
                let mut expect = vec![0u64; words_for(n)];
                for i in (0..n).filter(|&i| q.needs_va(PortId(i / vcs), VcId(i % vcs))) {
                    set_bit(&mut expect, i);
                }
                assert_eq!(
                    q.wants_va_words(),
                    expect,
                    "{ports}x{vcs}x{depth}: after op {op} on VC {flat}"
                );
            }
        }
    }

    #[test]
    fn rc_state_resets_per_packet() {
        let mut vcs = InputVcs::new(1, 1, 5);
        vcs.push(P, V, flit(1, 0));
        assert!(!vcs.rc_done(P, V));
        vcs.mark_rc_done(P, V);
        assert!(vcs.rc_done(P, V));
        vcs.pop(P, V, Cycle(0)); // head-tail: packet done
        assert!(!vcs.rc_done(P, V), "next packet needs its own RC");
    }

    #[test]
    fn hol_age_tracks_stalled_head() {
        let mut vcs = InputVcs::new(1, 1, 5);
        vcs.push(P, V, flit(2, 0));
        vcs.push(P, V, flit(2, 1));
        assert_eq!(vcs.hol_age(P, V, Cycle(10)), 0, "an arrival starts waiting at its first step");
        assert_eq!(vcs.hol_age(P, V, Cycle(12)), 2);
        vcs.pop(P, V, Cycle(12));
        assert_eq!(vcs.hol_age(P, V, Cycle(13)), 1, "the uncovered flit waits from the pop");
        vcs.pop(P, V, Cycle(13));
        vcs.push(P, V, flit(1, 0));
        assert_eq!(vcs.hol_age(P, V, Cycle(25)), 0, "a drained VC forgets its last stamp");
        assert_eq!(vcs.hol_age(P, V, Cycle(26)), 1);
    }

    #[test]
    fn per_vc_state_is_independent() {
        // Scalar registers and ring regions of (port, vc) pairs must not
        // alias across the slab.
        let mut vcs = InputVcs::new(3, 4, 5);
        vcs.push(PortId(2), VcId(3), flit(2, 0));
        vcs.push(PortId(1), VcId(0), flit(1, 0));
        vcs.bind_out_vc(PortId(2), VcId(3), VcId(1), false);
        vcs.mark_rc_done(PortId(1), VcId(0));
        assert_eq!(vcs.out_vc(PortId(2), VcId(3)), Some(VcId(1)));
        assert_eq!(vcs.out_vc(PortId(1), VcId(0)), None);
        assert!(vcs.rc_done(PortId(1), VcId(0)));
        assert!(!vcs.rc_done(PortId(2), VcId(3)));
        assert_eq!(vcs.occupancy(PortId(2), VcId(3)), 1);
        assert_eq!(vcs.occupancy(PortId(2), VcId(0)), 0);
    }

    #[test]
    fn occupancy_aggregates_per_port_and_total() {
        let mut vcs = InputVcs::new(2, 4, 5);
        vcs.push(PortId(0), VcId(0), flit(1, 0));
        vcs.push(PortId(0), VcId(3), flit(1, 0));
        vcs.push(PortId(1), VcId(2), flit(1, 0));
        assert_eq!(vcs.port_occupancy(PortId(0)), 2);
        assert_eq!(vcs.port_occupancy(PortId(1)), 1);
        assert_eq!(vcs.total_occupancy(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_rejected() {
        let _ = InputVcs::new(1, 1, 0);
    }
}
