//! Flits and packet descriptors.
//!
//! A packet is the unit of routing; a flit is the unit of flow control and
//! link traversal. Packets are segmented into flits at injection: one head
//! flit (carrying the route), zero or more body flits, and one tail flit. A
//! single-flit packet uses [`FlitKind::HeadTail`].

use crate::ids::{Cycle, NodeId, PacketId, PortId, VcId};

/// Position of a flit inside its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; triggers route computation and VC
    /// allocation downstream.
    Head,
    /// Interior flit; follows the head on the same VC.
    Body,
    /// Last flit; frees the VC it traversed.
    Tail,
    /// Sole flit of a single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// True for flits that open a packet ([`Head`](FlitKind::Head) or
    /// [`HeadTail`](FlitKind::HeadTail)).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for flits that close a packet ([`Tail`](FlitKind::Tail) or
    /// [`HeadTail`](FlitKind::HeadTail)).
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// Static description of a packet, shared by all of its flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDescriptor {
    /// Unique id assigned at injection.
    pub id: PacketId,
    /// Injecting terminal.
    pub source: NodeId,
    /// Destination terminal.
    pub dest: NodeId,
    /// Number of flits in the packet (≥ 1).
    pub len_flits: usize,
    /// Cycle the packet was created at the source queue (measures queuing
    /// delay as well as network delay).
    pub created_at: Cycle,
    /// Opaque tag for upper layers (e.g. the manycore model stores a
    /// transaction id here). Zero when unused.
    pub tag: u64,
}

impl PacketDescriptor {
    /// Creates a descriptor for a packet of `len_flits` flits.
    ///
    /// # Panics
    ///
    /// Panics if `len_flits` is zero.
    #[must_use]
    pub fn new(id: PacketId, source: NodeId, dest: NodeId, len_flits: usize, created_at: Cycle) -> Self {
        assert!(len_flits >= 1, "a packet must contain at least one flit");
        PacketDescriptor { id, source, dest, len_flits, created_at, tag: 0 }
    }

    /// Returns the descriptor with an upper-layer tag attached.
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Kind of the flit at position `index` within this packet.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len_flits`.
    #[must_use]
    pub fn flit_kind(&self, index: usize) -> FlitKind {
        assert!(index < self.len_flits, "flit index out of range");
        match (self.len_flits, index) {
            (1, _) => FlitKind::HeadTail,
            (_, 0) => FlitKind::Head,
            (n, i) if i + 1 == n => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

/// Sentinel for an unassigned output VC in [`Flit`]'s packed field.
const NO_VC: u8 = u8::MAX;

/// One flow-control unit in flight through the network.
///
/// The routing fields ([`Flit::out_port`], [`Flit::lookahead_port`]) are
/// *state*, rewritten hop by hop: `out_port` is the output port the flit
/// requests at the router currently buffering it, and `lookahead_port` is
/// the port it will request at the next router (computed one hop ahead,
/// per lookahead routing).
///
/// The per-hop fields are packed into narrow integers so a flit fills
/// exactly one 64-byte cache line: flit buffers and link pipes store flits
/// by value in flat slabs, and the slot size decides how many slots each
/// cache fill covers. The packing limits port ids to ≤ 255 and VC ids to
/// ≤ 254 (255 means "no VC") — hence the 256-port and 255-VC caps in
/// [`RouterConfig::validate`](crate::RouterConfig::validate) — and a
/// packet to ≤ 2³² flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketDescriptor,
    /// Cycle the flit entered the network proper (left the source queue).
    pub injected_at: Cycle,
    index: u32,
    out_port: u8,
    lookahead_port: u8,
    out_vc: u8,
}

/// The cache-line contract the transport slabs are sized around.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Flit>() == 64, "Flit must stay one cache line");

impl Flit {
    /// Creates a flit.
    ///
    /// # Panics
    ///
    /// Panics if `index`, a port id, or the VC id overflows its packed
    /// field (see the type-level limits).
    #[must_use]
    pub fn new(
        packet: PacketDescriptor,
        index: usize,
        out_port: PortId,
        lookahead_port: PortId,
        out_vc: Option<VcId>,
        injected_at: Cycle,
    ) -> Self {
        let mut flit = Flit {
            packet,
            injected_at,
            index: u32::try_from(index).expect("flit index overflows the packed field"),
            out_port: 0,
            lookahead_port: 0,
            out_vc: NO_VC,
        };
        flit.set_route(out_port, lookahead_port);
        flit.set_out_vc(out_vc);
        flit
    }

    /// Position of this flit within the packet, `0 .. len_flits`.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// Output port requested at the current router.
    #[must_use]
    pub fn out_port(&self) -> PortId {
        PortId(self.out_port as usize)
    }

    /// Output port that will be requested at the downstream router
    /// (valid for head flits once lookahead route computation has run).
    #[must_use]
    pub fn lookahead_port(&self) -> PortId {
        PortId(self.lookahead_port as usize)
    }

    /// Output VC assigned by VC allocation at the current router; this is
    /// the VC the flit will occupy at the *downstream* router.
    #[must_use]
    pub fn out_vc(&self) -> Option<VcId> {
        if self.out_vc == NO_VC {
            None
        } else {
            Some(VcId(self.out_vc as usize))
        }
    }

    /// Rewrites both routing fields for the next hop (lookahead routing).
    ///
    /// # Panics
    ///
    /// Panics if either port id overflows the packed field.
    pub fn set_route(&mut self, out_port: PortId, lookahead_port: PortId) {
        self.out_port = u8::try_from(out_port.0).expect("port id overflows the packed field");
        self.lookahead_port =
            u8::try_from(lookahead_port.0).expect("port id overflows the packed field");
    }

    /// Sets or clears the output-VC assignment.
    ///
    /// # Panics
    ///
    /// Panics if the VC id overflows the packed field.
    pub fn set_out_vc(&mut self, out_vc: Option<VcId>) {
        self.out_vc = match out_vc {
            None => NO_VC,
            Some(v) => {
                let packed = u8::try_from(v.0).expect("VC id overflows the packed field");
                assert!(packed != NO_VC, "VC id overflows the packed field");
                packed
            }
        };
    }

    /// Kind of this flit (derived from its index and the packet length).
    #[must_use]
    pub fn kind(&self) -> FlitKind {
        self.packet.flit_kind(self.index as usize)
    }

    /// True if this flit opens its packet.
    #[must_use]
    pub fn is_head(&self) -> bool {
        self.kind().is_head()
    }

    /// True if this flit closes its packet.
    #[must_use]
    pub fn is_tail(&self) -> bool {
        self.kind().is_tail()
    }
}

/// A placeholder flit (single-flit packet 0, all ids zero) used to pre-fill
/// buffer slabs; it is never observable through a correctly-maintained ring
/// cursor.
impl Default for Flit {
    fn default() -> Self {
        let packet =
            PacketDescriptor::new(PacketId(0), NodeId(0), NodeId(0), 1, Cycle(0));
        Flit::new(packet, 0, PortId(0), PortId(0), None, Cycle(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descr(len: usize) -> PacketDescriptor {
        PacketDescriptor::new(PacketId(1), NodeId(0), NodeId(5), len, Cycle(0))
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let d = descr(1);
        assert_eq!(d.flit_kind(0), FlitKind::HeadTail);
        assert!(d.flit_kind(0).is_head());
        assert!(d.flit_kind(0).is_tail());
    }

    #[test]
    fn four_flit_packet_kinds() {
        let d = descr(4);
        assert_eq!(d.flit_kind(0), FlitKind::Head);
        assert_eq!(d.flit_kind(1), FlitKind::Body);
        assert_eq!(d.flit_kind(2), FlitKind::Body);
        assert_eq!(d.flit_kind(3), FlitKind::Tail);
    }

    #[test]
    fn two_flit_packet_has_no_body() {
        let d = descr(2);
        assert_eq!(d.flit_kind(0), FlitKind::Head);
        assert_eq!(d.flit_kind(1), FlitKind::Tail);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_rejected() {
        let _ = descr(0);
    }

    #[test]
    #[should_panic(expected = "flit index out of range")]
    fn flit_kind_bounds_checked() {
        let _ = descr(2).flit_kind(2);
    }

    #[test]
    fn tag_roundtrip() {
        let d = descr(1).with_tag(42);
        assert_eq!(d.tag, 42);
    }

    #[test]
    fn flit_head_tail_predicates() {
        let d = descr(3);
        let mk = |i| Flit::new(d, i, PortId(0), PortId(0), None, Cycle(0));
        assert!(mk(0).is_head());
        assert!(!mk(0).is_tail());
        assert!(!mk(1).is_head());
        assert!(!mk(1).is_tail());
        assert!(mk(2).is_tail());
    }

    #[test]
    fn packed_fields_round_trip() {
        let mut f = Flit::new(descr(2), 1, PortId(3), PortId(7), Some(VcId(5)), Cycle(9));
        assert_eq!(f.index(), 1);
        assert_eq!(f.out_port(), PortId(3));
        assert_eq!(f.lookahead_port(), PortId(7));
        assert_eq!(f.out_vc(), Some(VcId(5)));
        assert_eq!(f.injected_at, Cycle(9));
        f.set_route(PortId(254), PortId(0));
        f.set_out_vc(None);
        assert_eq!(f.out_port(), PortId(254));
        assert_eq!(f.lookahead_port(), PortId(0));
        assert_eq!(f.out_vc(), None);
    }

    #[test]
    fn flit_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Flit>(), 64);
    }

    #[test]
    #[should_panic(expected = "port id overflows")]
    fn oversized_port_rejected() {
        let _ = Flit::new(descr(1), 0, PortId(256), PortId(0), None, Cycle(0));
    }

    #[test]
    #[should_panic(expected = "VC id overflows")]
    fn oversized_vc_rejected() {
        let _ = Flit::new(descr(1), 0, PortId(0), PortId(0), Some(VcId(255)), Cycle(0));
    }
}
