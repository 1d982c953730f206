//! A fixed-latency pipelined channel.
//!
//! [`Pipe`] is a flat ring buffer in structure-of-arrays layout: delivery
//! cycles and payloads live in two parallel `Vec`s sized once from the
//! pipe's latency and push rate, so steady-state traffic recirculates
//! through preallocated slots and due-cycle scans never touch payload
//! cache lines.
//!
//! The engine no longer uses it: every link of the network has the same
//! flit or credit latency, so what is in flight rides the scheduler's two
//! timing wheels instead (DESIGN.md §6b). It stays public for the
//! benchmark's channel probe.

use vix_core::Cycle;

/// A fixed-latency FIFO pipe: items pushed at cycle `t` become available at
/// `t + latency`. Models link traversal and credit return wires.
///
/// Storage is a power-of-two ring with a head cursor and length; slots are
/// written lazily in physical order on first use, then reused in place
/// forever. If a consumer falls behind the sized capacity (items are only
/// removed by [`Pipe::pop_ready`], so an undrained pipe can exceed
/// `latency × rate` in flight), the ring doubles — a cold path that never
/// fires in a correctly-clocked simulation loop.
#[derive(Debug, Clone)]
pub struct Pipe<T> {
    latency: u64,
    /// Delivery cycles, parallel to `items` (separate array so due scans
    /// stay out of the payload cache lines).
    dues: Vec<u64>,
    items: Vec<T>,
    /// Physical index of the oldest in-flight item.
    head: usize,
    /// Items in flight.
    len: usize,
    /// Ring capacity, always a power of two.
    cap: usize,
}

impl<T: Copy> Pipe<T> {
    /// Creates a pipe with the given latency in cycles (≥ 1), sized for
    /// one push per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero — a zero-latency pipe would create a
    /// combinational loop between routers.
    #[must_use]
    pub fn new(latency: u64) -> Self {
        Pipe::with_rate(latency, 1)
    }

    /// Creates a pipe with the given latency, sized for up to `per_cycle`
    /// pushes per cycle (e.g. a credit pipe behind a VIX router, where one
    /// input port can free a buffer slot per virtual input in a cycle).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    fn with_rate(latency: u64, per_cycle: usize) -> Self {
        assert!(latency >= 1, "channel latency must be at least one cycle");
        // Items pushed at cycle `t` leave at `t + latency`, so at most
        // `(latency + 1) × rate` can coexist within one delivery window.
        let cap = ((latency as usize + 1) * per_cycle.max(1)).next_power_of_two();
        Pipe {
            latency,
            dues: Vec::with_capacity(cap),
            items: Vec::with_capacity(cap),
            head: 0,
            len: 0,
            cap,
        }
    }

    /// The pipe's latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Items currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.len
    }

    /// True when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current ring capacity in slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Enqueues an item at cycle `now`; it arrives at `now + latency`.
    pub fn push(&mut self, now: Cycle, item: T) {
        let deliver = now.0 + self.latency;
        debug_assert!(
            self.len == 0 || self.dues[(self.head + self.len - 1) & (self.cap - 1)] <= deliver,
            "pipe pushes must be in time order"
        );
        if self.len == self.cap {
            self.grow();
        }
        let idx = (self.head + self.len) & (self.cap - 1);
        if idx == self.items.len() {
            // Fresh slot. The physical push index advances by exactly one
            // per push (pops leave `head + len` unchanged, and the resets
            // in `pop_ready`/`grow` only move it downward), so untouched
            // slots are claimed strictly in order 0, 1, … — `idx` can
            // never skip past `items.len()`. The capacity was reserved up
            // front, so this push does not allocate.
            self.items.push(item);
            self.dues.push(deliver);
        } else {
            self.items[idx] = item;
            self.dues[idx] = deliver;
        }
        self.len += 1;
    }

    /// Doubles the ring after linearizing it (head back to slot 0). Only
    /// reachable when `len == cap`, which implies every slot is live and
    /// both arrays are fully initialized.
    fn grow(&mut self) {
        debug_assert_eq!(self.items.len(), self.cap, "full ring must be fully initialized");
        self.items.rotate_left(self.head);
        self.dues.rotate_left(self.head);
        self.head = 0;
        self.cap *= 2;
        self.items.reserve_exact(self.cap - self.items.len());
        self.dues.reserve_exact(self.cap - self.dues.len());
    }

    /// Removes and returns the next item due at or before cycle `now`, if
    /// any. Loop with `while let Some(..) = pipe.pop_ready(now)` to drain
    /// without allocating.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.len == 0 || self.dues[self.head] > now.0 {
            return None;
        }
        let item = self.items[self.head];
        self.head = (self.head + 1) & (self.cap - 1);
        self.len -= 1;
        if self.len == 0 {
            // Empty ring: rewind to the already-initialized prefix so a
            // long-idle pipe re-fills the same slots instead of touching
            // fresh ones.
            self.head = 0;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: drains every ready item into a `Vec` via the
    /// non-allocating [`Pipe::pop_ready`] loop the hot path uses.
    fn drain<T: Copy>(pipe: &mut Pipe<T>, now: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = pipe.pop_ready(now) {
            out.push(item);
        }
        out
    }

    #[test]
    fn delivers_after_latency() {
        let mut pipe = Pipe::new(2);
        pipe.push(Cycle(10), "a");
        assert!(drain(&mut pipe, Cycle(10)).is_empty());
        assert!(drain(&mut pipe, Cycle(11)).is_empty());
        assert_eq!(drain(&mut pipe, Cycle(12)), vec!["a"]);
        assert!(pipe.is_empty());
    }

    #[test]
    fn preserves_order_and_batches() {
        let mut pipe = Pipe::new(1);
        pipe.push(Cycle(0), 1);
        pipe.push(Cycle(0), 2);
        pipe.push(Cycle(1), 3);
        assert_eq!(drain(&mut pipe, Cycle(1)), vec![1, 2]);
        assert_eq!(drain(&mut pipe, Cycle(2)), vec![3]);
    }

    #[test]
    fn late_drain_returns_everything_due() {
        let mut pipe = Pipe::new(1);
        pipe.push(Cycle(0), 'x');
        pipe.push(Cycle(5), 'y');
        assert_eq!(drain(&mut pipe, Cycle(100)), vec!['x', 'y']);
    }

    #[test]
    fn in_flight_counts() {
        let mut pipe = Pipe::new(3);
        assert_eq!(pipe.in_flight(), 0);
        pipe.push(Cycle(0), ());
        pipe.push(Cycle(1), ());
        assert_eq!(pipe.in_flight(), 2);
    }

    #[test]
    fn ring_wraps_in_place_at_steady_state() {
        // A rate-1 pipe pushed and drained every cycle recirculates through
        // its fixed slots: many times the capacity passes through without
        // the ring growing.
        let mut pipe = Pipe::new(3);
        let cap = pipe.capacity();
        for t in 0..10 * cap as u64 {
            pipe.push(Cycle(t), t);
            if let Some(v) = pipe.pop_ready(Cycle(t)) {
                assert_eq!(v + 3, t, "FIFO order across wrap-around");
            }
        }
        assert_eq!(pipe.capacity(), cap, "steady-state traffic must not grow the ring");
        assert_eq!(pipe.in_flight(), 3);
    }

    #[test]
    fn overfilled_ring_grows_and_keeps_order() {
        // An undrained pipe (consumer stalled) exceeds the sized capacity;
        // the ring doubles and FIFO order survives the linearization.
        let mut pipe = Pipe::with_rate(1, 1);
        let cap = pipe.capacity();
        // Wrap the head first so growth exercises the rotate path.
        pipe.push(Cycle(0), 999);
        let _ = pipe.pop_ready(Cycle(1));
        let n = 3 * cap as u64;
        for t in 0..n {
            pipe.push(Cycle(t + 1), t);
        }
        assert!(pipe.capacity() > cap);
        assert_eq!(drain(&mut pipe, Cycle(n + 2)), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn growth_with_interleaved_pops_preserves_order() {
        // The linearize-and-double path with a wrapped head and pops
        // interleaved between growths: FIFO delivery order must survive
        // every rotation.
        let mut pipe = Pipe::new(2);
        let cap = pipe.capacity();
        let mut popped = Vec::new();
        let mut t = 0u64;
        // Fill to capacity, one value per cycle.
        for _ in 0..cap {
            pipe.push(Cycle(t), t);
            t += 1;
        }
        // Advance the head mid-ring so the first growth must rotate.
        popped.push(pipe.pop_ready(Cycle(t + 2)).expect("all items due by now"));
        popped.push(pipe.pop_ready(Cycle(t + 2)).expect("all items due by now"));
        // Push through two doublings, popping whenever the ring just
        // crossed its old capacity so head motion interleaves with growth.
        for _ in 0..3 * cap {
            pipe.push(Cycle(t), t);
            t += 1;
            if pipe.in_flight() == cap + 1 {
                popped.push(pipe.pop_ready(Cycle(t + 2)).expect("all items due by now"));
            }
        }
        assert!(pipe.capacity() > cap, "the undrained ring must have grown");
        while let Some(v) = pipe.pop_ready(Cycle(t + 2)) {
            popped.push(v);
        }
        assert_eq!(popped, (0..t).collect::<Vec<_>>(), "FIFO order across rotations");
    }

    #[test]
    fn with_rate_sizes_for_burst_pushes() {
        // `vcs` credits can enter a VIX credit pipe in one cycle; the ring
        // must absorb `latency` cycles of such bursts without growing.
        let mut pipe = Pipe::with_rate(2, 8);
        let cap = pipe.capacity();
        for t in 0..20u64 {
            for k in 0..8u64 {
                pipe.push(Cycle(t), (t, k));
            }
            while pipe.pop_ready(Cycle(t)).is_some() {}
        }
        assert_eq!(pipe.capacity(), cap, "sized bursts must not grow the ring");
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _: Pipe<u8> = Pipe::new(0);
    }
}
