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

/// One flow-control unit in flight through the network: a 16-byte handle
/// holding its packet's id and destination, its position in the packet,
/// and per-hop routing state. The rest of the [`PacketDescriptor`] stays
/// with the simulator, once per packet, keyed by [`Flit::packet_id`].
///
/// The routing fields ([`Flit::out_port`], [`Flit::lookahead_port`]) are
/// *state*, rewritten hop by hop: `out_port` is the output port the flit
/// requests at the router currently buffering it, and `lookahead_port` is
/// the port it will request at the next router (computed one hop ahead,
/// per lookahead routing).
///
/// Flit buffers and link pipes store flits by value in flat slabs, so the
/// slot size decides how many slots each cache fill covers: four flits per
/// 64-byte line. The packing limits port ids to ≤ 255 and VC ids to ≤ 254
/// (255 means "no VC") — hence the 256-port and 255-VC caps in
/// [`RouterConfig::validate`](crate::RouterConfig::validate) — and
/// destinations and flit indices to 16 bits — hence the 65 536-node and
/// 65 535-flit caps in [`SimConfig::validate`](crate::SimConfig::validate).
///
/// `Default` is an all-zero placeholder that pre-fills buffer slabs; it is
/// never observable through a correctly-maintained ring cursor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    id: u64,
    dest: u16,
    index: u16,
    out_port: u8,
    lookahead_port: u8,
    out_vc: u8,
    tail: bool,
}

/// The slot size the transport slabs are sized around.
const _: () = assert!(std::mem::size_of::<Flit>() == 16, "Flit must stay a 16-byte handle");

impl Flit {
    /// Creates flit `index` of `packet`. The last argument, the injection
    /// cycle, is unused: a flit carries no timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below `packet.len_flits`, or if `index`,
    /// the destination, a port id, or the VC id overflows its packed field
    /// (see the type-level limits).
    #[must_use]
    pub fn new(
        packet: PacketDescriptor,
        index: usize,
        out_port: PortId,
        lookahead_port: PortId,
        out_vc: Option<VcId>,
        _injected_at: Cycle,
    ) -> Self {
        assert!(index < packet.len_flits, "flit index out of range");
        let mut flit = Flit {
            id: packet.id.0,
            dest: u16::try_from(packet.dest.0).expect("destination overflows the packed field"),
            index: u16::try_from(index).expect("flit index overflows the packed field"),
            out_port: 0,
            lookahead_port: 0,
            out_vc: NO_VC,
            tail: index + 1 == packet.len_flits,
        };
        flit.set_route(out_port, lookahead_port);
        flit.set_out_vc(out_vc);
        flit
    }

    /// The packet this flit belongs to.
    #[must_use]
    pub fn packet_id(&self) -> PacketId {
        PacketId(self.id)
    }

    /// The packet's destination terminal.
    #[must_use]
    pub fn dest(&self) -> NodeId {
        NodeId(self.dest as usize)
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
    #[inline]
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
    #[inline]
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

    /// True if this flit opens its packet.
    #[must_use]
    pub fn is_head(&self) -> bool {
        self.index == 0
    }

    /// True if this flit closes its packet.
    #[must_use]
    pub fn is_tail(&self) -> bool {
        self.tail
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
        for len in 1..5 {
            let d = descr(len);
            for i in 0..len {
                let f = Flit::new(d, i, PortId(0), PortId(0), None, Cycle(0));
                assert_eq!(f.is_head(), d.flit_kind(i).is_head(), "flit {i} of {len}");
                assert_eq!(f.is_tail(), d.flit_kind(i).is_tail(), "flit {i} of {len}");
            }
        }
    }

    #[test]
    fn packed_fields_round_trip() {
        let mut f = Flit::new(descr(2), 1, PortId(3), PortId(7), Some(VcId(5)), Cycle(9));
        assert_eq!(f.index(), 1);
        assert_eq!(f.out_port(), PortId(3));
        assert_eq!(f.lookahead_port(), PortId(7));
        assert_eq!(f.out_vc(), Some(VcId(5)));
        assert_eq!(f.packet_id(), PacketId(1));
        assert_eq!(f.dest(), NodeId(5));
        f.set_route(PortId(254), PortId(0));
        f.set_out_vc(None);
        assert_eq!(f.out_port(), PortId(254));
        assert_eq!(f.lookahead_port(), PortId(0));
        assert_eq!(f.out_vc(), None);
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

    #[test]
    fn widest_packing_round_trips() {
        let d = PacketDescriptor::new(PacketId(u64::MAX), NodeId(0), NodeId(65_535), 65_535, Cycle(0));
        let f = Flit::new(d, 65_534, PortId(0), PortId(0), None, Cycle(0));
        assert_eq!((f.packet_id(), f.dest(), f.index()), (PacketId(u64::MAX), NodeId(65_535), 65_534));
        assert!(f.is_tail());
    }

    #[test]
    #[should_panic(expected = "destination overflows")]
    fn oversized_dest_rejected() {
        let d = PacketDescriptor::new(PacketId(1), NodeId(0), NodeId(65_536), 1, Cycle(0));
        let _ = Flit::new(d, 0, PortId(0), PortId(0), None, Cycle(0));
    }

    #[test]
    #[should_panic(expected = "flit index overflows")]
    fn oversized_index_rejected() {
        let _ = Flit::new(descr(65_537), 65_536, PortId(0), PortId(0), None, Cycle(0));
    }
}
