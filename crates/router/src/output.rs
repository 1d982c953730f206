//! Output-side state: downstream VC credit and allocation tracking in
//! structure-of-arrays layout.
//!
//! Credits and allocation flags for every `(output port, downstream VC)`
//! pair live in two flat parallel arrays; the per-port sink flag is its
//! own array. The VC-allocation policy scans and the credit checks on the
//! traversal path walk these arrays directly instead of chasing per-VC
//! structs.

use vix_core::{PortId, VcId};

/// Credit/allocation state of every downstream virtual channel reachable
/// from this router's output ports, structure-of-arrays: flat index
/// `port * vc_count + vc` in each parallel array. A *sink* port (terminal
/// ejection) always allocates and never exhausts credit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputVcs {
    ports: usize,
    vcs: usize,
    /// Free flit slots in each downstream buffer.
    credits: Vec<usize>,
    /// True while a packet holds the VC (head granted, tail not yet sent).
    allocated: Vec<bool>,
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
            allocated: vec![false; ports * vcs],
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

    /// The credit and allocation registers of every downstream VC of
    /// `port`, indexed by VC.
    #[inline]
    pub(crate) fn port_registers(&self, port: PortId) -> (&[usize], &[bool]) {
        let vcs = port.0 * self.vcs..(port.0 + 1) * self.vcs;
        (&self.credits[vcs.clone()], &self.allocated[vcs])
    }

    /// True while a packet holds `(port, vc)`.
    #[must_use]
    pub fn is_allocated(&self, port: PortId, vc: VcId) -> bool {
        self.allocated[self.idx(port, vc)]
    }

    /// True when a flit may be sent into downstream VC `(port, vc)` right
    /// now.
    #[inline]
    #[must_use]
    pub fn can_send(&self, port: PortId, vc: VcId) -> bool {
        self.sink[port.0] || self.credits[self.idx(port, vc)] > 0
    }

    /// Marks `(port, vc)` as held by a packet (VC allocation). No-op on
    /// sinks.
    ///
    /// # Panics
    ///
    /// Panics if the VC is already allocated (double allocation is a VA
    /// protocol bug).
    #[inline]
    pub fn allocate(&mut self, port: PortId, vc: VcId) {
        if self.sink[port.0] {
            return;
        }
        let i = self.idx(port, vc);
        assert!(!self.allocated[i], "output VC {vc} double-allocated");
        self.allocated[i] = true;
    }

    /// Releases `(port, vc)` when the holding packet's tail traverses.
    /// No-op on sinks.
    #[inline]
    pub fn release(&mut self, port: PortId, vc: VcId) {
        if self.sink[port.0] {
            return;
        }
        let i = self.idx(port, vc);
        self.allocated[i] = false;
    }

    /// Consumes one credit as a flit departs through `(port, vc)`. No-op
    /// on sinks.
    ///
    /// # Panics
    ///
    /// Panics if no credit is available (flow-control bug).
    #[inline]
    pub fn consume_credit(&mut self, port: PortId, vc: VcId) {
        if self.sink[port.0] {
            return;
        }
        let i = self.idx(port, vc);
        assert!(self.credits[i] > 0, "credit underflow on output VC {vc}");
        self.credits[i] -= 1;
    }

    /// Returns one credit as the downstream buffer slot frees. No-op on
    /// sinks.
    ///
    /// # Panics
    ///
    /// Panics if the VC already holds `depth` credits (flow-control bug).
    #[inline]
    pub fn return_credit(&mut self, port: PortId, vc: VcId, depth: usize) {
        if self.sink[port.0] {
            return;
        }
        let i = self.idx(port, vc);
        assert!(self.credits[i] < depth, "credit overflow on output VC {vc}");
        self.credits[i] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port_state(ports: usize, vcs: usize, depth: usize) -> OutputVcs {
        OutputVcs::new(ports, vcs, depth, &vec![false; ports])
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
        out.allocate(p, v);
        assert!(out.is_allocated(p, v));
        out.release(p, v);
        assert!(!out.is_allocated(p, v));
    }

    #[test]
    #[should_panic(expected = "double-allocated")]
    fn double_allocation_detected() {
        let mut out = port_state(1, 1, 3);
        out.allocate(PortId(0), VcId(0));
        out.allocate(PortId(0), VcId(0));
    }

    #[test]
    fn per_port_state_is_independent() {
        // Credits and allocation flags of different (port, vc) pairs must
        // not alias across the flat arrays.
        let mut out = port_state(3, 2, 4);
        out.consume_credit(PortId(1), VcId(1));
        out.allocate(PortId(2), VcId(0));
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
        out.allocate(p, v);
        out.allocate(p, v);
        assert!(!out.is_allocated(p, v));
    }
}
