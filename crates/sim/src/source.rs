//! Per-terminal source queue: packet segmentation and injection-side VC
//! selection.

use std::collections::VecDeque;
use vix_core::{Cycle, Flit, NodeId, PacketDescriptor, PortId, VcId};
use vix_router::preferred_group;

/// The injection side of one terminal.
///
/// Packets wait in an unbounded FIFO (open-loop injection, §4.1 of the
/// paper); the queue segments the head packet into flits and streams them
/// into the attached router's local input port, one flit per cycle,
/// respecting that port's buffer credits. VC choice at injection follows
/// the same policy as in-network VC allocation: dimension-aware sub-group
/// preference when VIX is active, most-credits otherwise.
#[derive(Debug, Clone)]
pub struct SourceQueue {
    node: NodeId,
    vcs: usize,
    buffer_depth: usize,
    groups: usize,
    dimension_aware: bool,
    /// Waiting packets. Deliberately a `VecDeque` rather than a ring slab:
    /// open-loop injection (§4.1) makes this queue unbounded by design, it
    /// is touched once per *packet* (not per flit), and the steady-state
    /// operations are a `front()` peek and an amortised push — cold next
    /// to the per-flit transport rings.
    queue: VecDeque<PacketDescriptor>,
    credits: Vec<usize>,
    /// In-progress packet: descriptor, next flit index, chosen VC.
    current: Option<(PacketDescriptor, usize, VcId)>,
    /// Total packets ever enqueued (offered load bookkeeping).
    offered: u64,
}

impl SourceQueue {
    /// Creates the source for `node` feeding a local input port with `vcs`
    /// VCs of `buffer_depth` flits. `groups`/`dimension_aware` mirror the
    /// router's VIX configuration.
    #[must_use]
    pub fn new(node: NodeId, vcs: usize, buffer_depth: usize, groups: usize, dimension_aware: bool) -> Self {
        assert!(vcs > 0 && buffer_depth > 0, "source needs VCs and buffers");
        SourceQueue {
            node,
            vcs,
            buffer_depth,
            groups,
            dimension_aware,
            // Seeded with enough slots that moderate-load runs (the
            // zero-allocation gate measures at 0.08 packets/node/cycle)
            // never regrow it; saturation runs may still expand it — the
            // queue is unbounded by design.
            queue: VecDeque::with_capacity(32),
            credits: vec![buffer_depth; vcs],
            current: None,
            offered: 0,
        }
    }

    /// The terminal this source belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Packets waiting (not counting the one being streamed).
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Total packets ever offered to this source.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// True when no packet is queued or in flight from this source.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.current.is_none()
    }

    /// Enqueues a freshly generated packet.
    pub fn enqueue(&mut self, packet: PacketDescriptor) {
        self.offered += 1;
        self.queue.push_back(packet);
    }

    /// Returns one buffer credit for local-port VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics on credit overflow (protocol violation).
    pub fn credit_return(&mut self, vc: VcId) {
        assert!(self.credits[vc.0] < self.buffer_depth, "source credit overflow on {vc}");
        self.credits[vc.0] += 1;
    }

    /// Tries to emit the next flit at cycle `now`.
    ///
    /// `route` maps a destination to the output port the packet needs at
    /// the attached router, the port it needs at the router after that
    /// (resolved by the network from the topology), and the dimension of
    /// the first, used for dimension-aware VC choice.
    /// A head flit hands its packet's descriptor over on `injected`: flits
    /// carry only the id and destination, and the network keeps the rest.
    pub fn try_send(
        &mut self,
        now: Cycle,
        route: impl Fn(NodeId) -> (PortId, PortId, usize),
        injected: &mut Vec<PacketDescriptor>,
    ) -> Option<Flit> {
        // Start a new packet if idle.
        if self.current.is_none() {
            let packet = self.queue.front().copied()?;
            let (_, _, dim) = route(packet.dest);
            let vc = self.choose_vc(dim)?;
            self.queue.pop_front();
            self.current = Some((packet, 0, vc));
        }
        let (packet, index, vc) = self.current.expect("just ensured");
        if self.credits[vc.0] == 0 {
            return None;
        }
        let (out_port, lookahead_port, _) = route(packet.dest);
        self.credits[vc.0] -= 1;
        let flit = Flit::new(packet, index, out_port, lookahead_port, Some(vc), now);
        if index == 0 {
            injected.push(packet);
        }
        if index + 1 == packet.len_flits {
            self.current = None;
        } else {
            self.current = Some((packet, index + 1, vc));
        }
        Some(flit)
    }

    /// Injection-side VC choice: dimension-aware sub-group preference with
    /// load balancing by credits, or plain most-credits.
    fn choose_vc(&self, first_hop_dim: usize) -> Option<VcId> {
        let candidates = (0..self.vcs).filter(|&v| self.credits[v] > 0);
        if self.dimension_aware && self.groups > 1 {
            let preferred = preferred_group(first_hop_dim, self.groups);
            let group_size = self.vcs / self.groups;
            candidates
                .max_by_key(|&v| {
                    let group = v / group_size;
                    (usize::from(preferred == Some(group)), self.credits[v], std::cmp::Reverse(v))
                })
                .map(VcId)
        } else {
            candidates.max_by_key(|&v| (self.credits[v], std::cmp::Reverse(v))).map(VcId)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::PacketId;

    fn packet(len: usize) -> PacketDescriptor {
        PacketDescriptor::new(PacketId(1), NodeId(0), NodeId(5), len, Cycle(0))
    }

    fn fixed_route(_dest: NodeId) -> (PortId, PortId, usize) {
        (PortId(0), PortId(1), 0)
    }

    /// `try_send` for tests that ignore the handed-over descriptors.
    fn send(
        src: &mut SourceQueue,
        now: Cycle,
        route: impl Fn(NodeId) -> (PortId, PortId, usize),
    ) -> Option<Flit> {
        src.try_send(now, route, &mut Vec::new())
    }

    #[test]
    fn streams_packet_flit_by_flit() {
        let mut src = SourceQueue::new(NodeId(0), 2, 5, 1, false);
        src.enqueue(packet(3));
        for i in 0..3 {
            let f = send(&mut src, Cycle(i as u64), fixed_route).expect("credit available");
            assert_eq!(f.index(), i);
            assert_eq!(f.out_port(), PortId(0));
            assert_eq!(f.out_vc(), Some(VcId(0)));
        }
        assert!(send(&mut src, Cycle(3), fixed_route).is_none(), "queue drained");
        assert!(src.is_idle());
    }

    #[test]
    fn head_flit_hands_over_its_descriptor() {
        let mut src = SourceQueue::new(NodeId(0), 2, 5, 1, false);
        src.enqueue(packet(2));
        let mut injected = Vec::new();
        let head = src.try_send(Cycle(0), fixed_route, &mut injected).unwrap();
        assert_eq!(injected, [packet(2)], "the head hands over the descriptor");
        let tail = src.try_send(Cycle(1), fixed_route, &mut injected).unwrap();
        assert_eq!(injected.len(), 1, "later flits hand over nothing");
        assert_eq!((head.packet_id(), tail.packet_id()), (PacketId(1), PacketId(1)));
        assert_eq!(tail.dest(), NodeId(5));
        assert!(tail.is_tail());
    }

    #[test]
    fn respects_credits() {
        let mut src = SourceQueue::new(NodeId(0), 1, 2, 1, false);
        src.enqueue(packet(4));
        assert!(send(&mut src, Cycle(0), fixed_route).is_some());
        assert!(send(&mut src, Cycle(1), fixed_route).is_some());
        assert!(send(&mut src, Cycle(2), fixed_route).is_none(), "out of credits");
        src.credit_return(VcId(0));
        assert!(send(&mut src, Cycle(3), fixed_route).is_some());
    }

    #[test]
    fn whole_packet_stays_on_one_vc() {
        let mut src = SourceQueue::new(NodeId(0), 3, 5, 1, false);
        src.enqueue(packet(3));
        let vcs: Vec<_> =
            (0..3).map(|i| send(&mut src, Cycle(i), fixed_route).unwrap().out_vc()).collect();
        assert!(vcs.iter().all(|&v| v == vcs[0]), "wormhole: one VC per packet");
    }

    #[test]
    fn dimension_aware_vc_choice() {
        // 4 VCs in 2 groups; X-bound packet (dim 0) takes group 0, Y-bound
        // (dim 1) takes group 1.
        let mut src = SourceQueue::new(NodeId(0), 4, 5, 2, true);
        src.enqueue(packet(1));
        let f = send(&mut src, Cycle(0), |_| (PortId(0), PortId(0), 1)).unwrap();
        assert!(f.out_vc().unwrap().0 >= 2, "Y-bound packet must use sub-group 1");
        src.enqueue(packet(1));
        let f = send(&mut src, Cycle(1), |_| (PortId(0), PortId(0), 0)).unwrap();
        assert!(f.out_vc().unwrap().0 < 2, "X-bound packet must use sub-group 0");
    }

    #[test]
    fn offered_counts_every_enqueue() {
        let mut src = SourceQueue::new(NodeId(3), 2, 5, 1, false);
        assert_eq!(src.offered(), 0);
        src.enqueue(packet(1));
        src.enqueue(packet(1));
        assert_eq!(src.offered(), 2);
        assert_eq!(src.backlog(), 2);
        assert_eq!(src.node(), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_detected() {
        let mut src = SourceQueue::new(NodeId(0), 1, 1, 1, false);
        src.credit_return(VcId(0));
    }

    #[test]
    fn blocked_vc_does_not_stall_new_packet_choice() {
        // Two VCs; drain VC0's credits with one packet, then a new packet
        // must pick VC1.
        let mut src = SourceQueue::new(NodeId(0), 2, 1, 1, false);
        src.enqueue(packet(1));
        let f0 = send(&mut src, Cycle(0), fixed_route).unwrap();
        assert_eq!(f0.out_vc(), Some(VcId(0)));
        src.enqueue(packet(1));
        let f1 = send(&mut src, Cycle(1), fixed_route).unwrap();
        assert_eq!(f1.out_vc(), Some(VcId(1)), "second packet avoids the creditless VC");
    }
}
