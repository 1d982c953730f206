//! Output-side state: downstream VC credit and allocation tracking in
//! structure-of-arrays layout.
//!
//! Credits and owner registers for every `(output port, downstream VC)`
//! pair live in two flat parallel arrays; the per-port sink flag is its
//! own array. The VC-allocation policy scans and the credit checks on the
//! traversal path walk these arrays directly instead of chasing per-VC
//! structs. The owner register names the input VC a downstream VC is
//! bound to, so a credit that crosses zero tells the router whose
//! `ready` bit to flip (DESIGN.md §6d).

use vix_core::{PortId, VcId};

/// Owner register value of a downstream VC no packet holds.
pub(crate) const NO_OWNER: u16 = u16::MAX;

/// Credit/allocation state of every downstream virtual channel reachable
/// from this router's output ports, structure-of-arrays: flat index
/// `port * vc_count + vc` in each parallel array. A *sink* port (terminal
/// ejection) always allocates, never exhausts credit and records no owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputVcs {
    ports: usize,
    vcs: usize,
    /// Free flit slots in each downstream buffer.
    credits: Vec<usize>,
    /// The flat input VC (`port * vcs + vc`) whose packet holds the VC
    /// (head bound, tail not yet sent), or `NO_OWNER`.
    owner: Vec<u16>,
    /// Per-port: true for terminal ejection ports.
    sink: Vec<bool>,
}

impl OutputVcs {
    /// Creates the output state: every non-sink port feeds a downstream
    /// input with `vcs` VCs of `depth`-flit buffers; ports flagged in
    /// `sink_ports` are terminal ejection ports with infinite credit.
    ///
    /// # Panics
    ///
    /// Panics if `sink_ports.len() != ports`.
    #[must_use]
    pub fn new(ports: usize, vcs: usize, depth: usize, sink_ports: &[bool]) -> Self {
        assert_eq!(sink_ports.len(), ports, "sink table size mismatch");
        let credits = sink_ports
            .iter()
            .flat_map(|&s| std::iter::repeat_n(if s { usize::MAX } else { depth }, vcs))
            .collect();
        OutputVcs {
            ports,
            vcs,
            credits,
            owner: vec![NO_OWNER; ports * vcs],
            sink: sink_ports.to_vec(),
        }
    }

    /// Number of output ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of downstream VCs per port.
    #[must_use]
    pub fn vc_count(&self) -> usize {
        self.vcs
    }

    #[inline]
    fn idx(&self, port: PortId, vc: VcId) -> usize {
        debug_assert!(port.0 < self.ports, "output port {port} out of range");
        debug_assert!(vc.0 < self.vcs, "output VC {vc} out of range");
        port.0 * self.vcs + vc.0
    }

    /// True for terminal ejection ports.
    #[inline]
    #[must_use]
    pub fn is_sink(&self, port: PortId) -> bool {
        self.sink[port.0]
    }

    /// Free flit slots in the downstream buffer behind `(port, vc)`.
    #[cfg(test)]
    pub(crate) fn credits(&self, port: PortId, vc: VcId) -> usize {
        self.credits[self.idx(port, vc)]
    }

    /// The credit and owner registers of every downstream VC of `port`,
    /// indexed by VC (`NO_OWNER` for a free VC).
    #[inline]
    pub(crate) fn port_registers(&self, port: PortId) -> (&[usize], &[u16]) {
        let vcs = port.0 * self.vcs..(port.0 + 1) * self.vcs;
        (&self.credits[vcs.clone()], &self.owner[vcs])
    }

    /// The flat input VC whose packet holds `(port, vc)`, if any.
    #[must_use]
    pub fn owner(&self, port: PortId, vc: VcId) -> Option<usize> {
        let owner = self.owner[self.idx(port, vc)];
        (owner != NO_OWNER).then_some(owner.into())
    }

    /// True while a packet holds `(port, vc)`.
    #[cfg(test)]
    pub(crate) fn is_allocated(&self, port: PortId, vc: VcId) -> bool {
        self.owner(port, vc).is_some()
    }

    /// True when a flit may be sent into downstream VC `(port, vc)` right
    /// now.
    #[inline]
    #[must_use]
    pub fn can_send(&self, port: PortId, vc: VcId) -> bool {
        self.sink[port.0] || self.credits[self.idx(port, vc)] > 0
    }

    /// Marks `(port, vc)` as held by the packet of flat input VC `owner`
    /// (VC allocation). No-op on sinks.
    ///
    /// # Panics
    ///
    /// Panics if the VC is already allocated (double allocation is a VA
    /// protocol bug) or `owner` does not fit the register.
    #[inline]
    pub fn allocate(&mut self, port: PortId, vc: VcId, owner: usize) {
        if self.sink[port.0] {
            return;
        }
        let i = self.idx(port, vc);
        assert!(self.owner[i] == NO_OWNER, "output VC {vc} double-allocated");
        assert!(owner < NO_OWNER.into(), "input VC {owner} overflows the owner register");
        self.owner[i] = owner as u16;
    }

    /// Releases `(port, vc)` when the holding packet's tail traverses.
    /// No-op on sinks.
    #[inline]
    pub fn release(&mut self, port: PortId, vc: VcId) {
        if self.sink[port.0] {
            return;
        }
        let i = self.idx(port, vc);
        self.owner[i] = NO_OWNER;
    }

    /// Consumes one credit as a flit departs through `(port, vc)`, and
    /// returns the owner when that was its last credit. No-op on sinks.
    ///
    /// # Panics
    ///
    /// Panics if no credit is available (flow-control bug).
    #[inline]
    pub fn consume_credit(&mut self, port: PortId, vc: VcId) -> Option<usize> {
        if self.sink[port.0] {
            return None;
        }
        let i = self.idx(port, vc);
        assert!(self.credits[i] > 0, "credit underflow on output VC {vc}");
        self.credits[i] -= 1;
        (self.credits[i] == 0 && self.owner[i] != NO_OWNER).then_some(self.owner[i].into())
    }

    /// Returns one credit as the downstream buffer slot frees, and returns
    /// the owner when the VC had none left. No-op on sinks.
    ///
    /// # Panics
    ///
    /// Panics if the VC already holds `depth` credits (flow-control bug).
    #[inline]
    pub fn return_credit(&mut self, port: PortId, vc: VcId, depth: usize) -> Option<usize> {
        if self.sink[port.0] {
            return None;
        }
        let i = self.idx(port, vc);
        assert!(self.credits[i] < depth, "credit overflow on output VC {vc}");
        self.credits[i] += 1;
        (self.credits[i] == 1 && self.owner[i] != NO_OWNER).then_some(self.owner[i].into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port_state(ports: usize, vcs: usize, depth: usize) -> OutputVcs {
        OutputVcs::new(ports, vcs, depth, &vec![false; ports])
    }

    #[test]
    fn credits_crossing_zero_name_the_owner() {
        let mut out = port_state(1, 2, 2);
        let (p, v) = (PortId(0), VcId(1));
        assert_eq!(out.consume_credit(p, v), None, "credits left");
        assert_eq!(out.consume_credit(p, v), None, "no owner to tell");
        assert_eq!(out.return_credit(p, v, 2), None, "no owner to tell");
        out.allocate(p, v, 5);
        assert_eq!(out.consume_credit(p, v), Some(5), "the last credit went");
        assert_eq!(out.return_credit(p, v, 2), Some(5), "the first credit came back");
        assert_eq!(out.return_credit(p, v, 2), None, "already sendable");
    }

    #[test]
    fn credit_lifecycle() {
        let mut out = port_state(2, 2, 3);
        let (p, v) = (PortId(1), VcId(0));
        assert_eq!(out.credits(p, v), 3);
        assert!(out.can_send(p, v));
        out.consume_credit(p, v);
        out.consume_credit(p, v);
        out.consume_credit(p, v);
        assert!(!out.can_send(p, v));
        out.return_credit(p, v, 3);
        assert!(out.can_send(p, v));
    }

    #[test]
    #[should_panic(expected = "credit underflow")]
    fn underflow_detected() {
        let mut out = port_state(1, 1, 1);
        out.consume_credit(PortId(0), VcId(0));
        out.consume_credit(PortId(0), VcId(0));
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn overflow_detected() {
        let mut out = port_state(1, 1, 2);
        out.return_credit(PortId(0), VcId(0), 2);
    }

    #[test]
    fn allocation_lifecycle() {
        let mut out = port_state(1, 2, 3);
        let (p, v) = (PortId(0), VcId(1));
        assert!(!out.is_allocated(p, v));
        out.allocate(p, v, 7);
        assert!(out.is_allocated(p, v));
        assert_eq!(out.owner(p, v), Some(7));
        out.release(p, v);
        assert!(!out.is_allocated(p, v));
    }

    #[test]
    #[should_panic(expected = "double-allocated")]
    fn double_allocation_detected() {
        let mut out = port_state(1, 1, 3);
        out.allocate(PortId(0), VcId(0), 0);
        out.allocate(PortId(0), VcId(0), 1);
    }

    #[test]
    fn per_port_state_is_independent() {
        // Credits and allocation flags of different (port, vc) pairs must
        // not alias across the flat arrays.
        let mut out = port_state(3, 2, 4);
        out.consume_credit(PortId(1), VcId(1));
        out.allocate(PortId(2), VcId(0), 3);
        assert_eq!(out.credits(PortId(1), VcId(1)), 3);
        assert_eq!(out.credits(PortId(1), VcId(0)), 4);
        assert_eq!(out.credits(PortId(2), VcId(1)), 4);
        assert!(out.is_allocated(PortId(2), VcId(0)));
        assert!(!out.is_allocated(PortId(1), VcId(0)));
    }

    #[test]
    fn sink_never_exhausts() {
        let mut out = OutputVcs::new(2, 2, 3, &[false, true]);
        let (p, v) = (PortId(1), VcId(0));
        assert!(out.is_sink(p));
        assert!(!out.is_sink(PortId(0)));
        for _ in 0..1000 {
            assert!(out.can_send(p, v));
            out.consume_credit(p, v);
        }
        // Allocation on a sink is a no-op and never conflicts.
        out.allocate(p, v, 0);
        out.allocate(p, v, 1);
        assert!(!out.is_allocated(p, v));
    }
}
