//! The router pipeline: VC allocation, (speculative) switch allocation,
//! and switch traversal, per Fig. 6(b) of the paper.

use crate::input::InputVcs;
use crate::output::OutputVcs;
use crate::vc_alloc::{select_output_vc, VcAllocPolicy};
use crate::RouterEnv;
use vix_alloc::Allocator;
use vix_core::bits::{set_bit, test_bit, words_for};
use vix_core::{
    ActivityCounters, Cycle, Flit, Grant, GrantSet, PipelineKind, PortId, RequestSet, RouterConfig,
    RouterId, SwitchRequest, VcId, VixPartition,
};
use vix_telemetry::{MatchingSummary, TelemetrySink, TraceEvent, TraceEventKind, NO_ID, NO_PACKET};

/// Flits and credits leaving a router in one cycle.
#[derive(Debug, Clone, Default)]
pub struct RouterOutput {
    /// `(output port, flit)` pairs that traversed the switch this cycle.
    /// The flit's `out_vc` names the input VC it occupies downstream.
    pub flits: Vec<(PortId, Flit)>,
    /// `(input port, vc)` buffer slots freed this cycle; the network
    /// returns each as a credit to the upstream router (or source queue).
    pub credits: Vec<(PortId, VcId)>,
}

impl RouterOutput {
    /// Empties both lists, retaining their allocations. [`Router::step_into`]
    /// calls this on entry, so a caller that drains and re-passes the same
    /// `RouterOutput` every cycle never reallocates it.
    pub fn clear(&mut self) {
        self.flits.clear();
        self.credits.clear();
    }
}

/// A virtual-channel router with configurable switch allocation and
/// virtual-input (VIX) datapath.
///
/// The router is clocked by [`Router::step`]; the network delivers flits
/// with [`Router::accept_flit`] and returns credits with
/// [`Router::credit_return`] *before* stepping, so one `step` models one
/// allocation + traversal cycle.
#[derive(Debug)]
pub struct Router {
    id: RouterId,
    cfg: RouterConfig,
    /// `cfg.partition()`, derived once (building it divides).
    partition: VixPartition,
    env: RouterEnv,
    allocator: Allocator,
    /// Input-side VC state, structure-of-arrays over `(port, vc)`.
    inputs: InputVcs,
    /// Output-side credit/allocation state, structure-of-arrays over
    /// `(port, vc)`.
    outputs: OutputVcs,
    /// Rotating start index for VC-allocation fairness.
    va_pointer: usize,
    /// Flits currently buffered across all input VCs — maintained
    /// incrementally so [`Router::is_quiescent`] is O(1) on the network
    /// scheduler's hot path.
    buffered: usize,
    activity: ActivityCounters,
    /// Per-cycle buffers below are owned by the router and reused by every
    /// [`Router::step_into`] call: cleared, refilled, never reallocated in
    /// steady state.
    ///
    /// The step's switch requests. Its out-port column is written when a
    /// VC binds, so a bound VC's requests are posted from masks alone.
    requests: RequestSet,
    grants: GrantSet,
    /// The grants that traversed this cycle, built for packet chaining,
    /// its one reader (unallocated under every other allocator).
    traversed: GrantSet,
    /// The VCs whose head spends this cycle in route computation
    /// (five-stage pipelines only, unallocated otherwise), over flat VC
    /// indices.
    rc_this_cycle: Vec<u64>,
    /// A flat VC mask the step computes and then walks while it mutates
    /// the inputs: the ready VCs it posts, the VA candidates it binds, the
    /// occupied VCs it ages.
    scratch: Vec<u64>,
    /// Flat VC index → `(port, vc)` bytes, so the sweeps never divide by
    /// the runtime VC count (DESIGN.md §6d).
    flat_to_vc: Vec<(u8, u8)>,
}

/// Entry `flat` of a router's `flat_to_vc` table, as ids.
fn vc_at(flat_to_vc: &[(u8, u8)], flat: usize) -> (PortId, VcId) {
    let (port, vc) = flat_to_vc[flat];
    (PortId(port.into()), VcId(vc.into()))
}

/// Visits the set bits of `words` within index range `[lo, hi)` in
/// ascending order.
#[inline(always)]
fn for_each_set_in(words: &[u64], lo: usize, hi: usize, f: &mut impl FnMut(usize)) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    for (i, &bits) in words[first..=last].iter().enumerate() {
        let (w, mut word) = (first + i, bits);
        if w == first {
            word &= !0u64 << (lo % 64);
        }
        if w == last {
            let used = hi - w * 64;
            if used < 64 {
                word &= (1u64 << used) - 1;
            }
        }
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Visits the set bits of `words` over `[0, total)` in cyclic ascending
/// order starting at `start` — the masked equivalent of
/// `for k in 0..total { visit((start + k) % total) }`.
#[inline(always)]
fn for_each_set_cyclic(words: &[u64], total: usize, start: usize, mut f: impl FnMut(usize)) {
    for (lo, hi) in [(start, total), (0, start)] {
        for_each_set_in(words, lo, hi, &mut f);
    }
}

/// Fills `out` with the word-wise AND of `a` and `b`.
#[inline(always)]
fn and_into(out: &mut Vec<u64>, a: &[u64], b: &[u64]) {
    out.clear();
    out.extend(a.iter().zip(b).map(|(&a, &b)| a & b));
}

/// VC allocation's result: input VC `flat` = `(port, vc)` binds its packet
/// to downstream VC `w` of `out_port`. The owner register names the input
/// VC, and its `ready` bit starts as the downstream VC's credit state.
#[inline(always)]
fn bind_vc(
    inputs: &mut InputVcs,
    outputs: &mut OutputVcs,
    flat: usize,
    (port, vc): (PortId, VcId),
    out_port: PortId,
    w: VcId,
) {
    outputs.allocate(out_port, w, flat);
    inputs.bind_out_vc(port, vc, w, outputs.can_send(out_port, w));
}

/// A flit of the packet bound to downstream VC `(out_port, w)` leaves:
/// one credit is consumed, and the owner stops being ready with the last.
#[inline(always)]
fn consume_credit(inputs: &mut InputVcs, outputs: &mut OutputVcs, out_port: PortId, w: VcId) {
    if let Some(owner) = outputs.consume_credit(out_port, w) {
        inputs.set_ready(owner, false);
    }
}

/// One credit comes back to downstream VC `(port, vc)`; its owner becomes
/// ready again if the VC had none left.
#[inline(always)]
fn return_credit(inputs: &mut InputVcs, outputs: &mut OutputVcs, port: PortId, vc: VcId, depth: usize) {
    if let Some(owner) = outputs.return_credit(port, vc, depth) {
        inputs.set_ready(owner, true);
    }
}

/// The index of the only set bit of `words`, if exactly one is set.
#[inline(always)]
fn lone_set_bit(words: &[u64]) -> Option<usize> {
    let w = words.iter().position(|&word| word != 0)?;
    let (word, rest) = (words[w], &words[w + 1..]);
    (word & (word - 1) == 0 && rest.iter().all(|&r| r == 0)).then(|| w * 64 + word.trailing_zeros() as usize)
}

impl Router {
    /// Builds a router.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the environment tables do
    /// not match the port count.
    #[must_use]
    pub fn new(id: RouterId, cfg: RouterConfig, allocator: Allocator, env: RouterEnv) -> Self {
        cfg.validate().expect("router config must be valid");
        assert_eq!(env.port_dims.len(), cfg.ports(), "dimension table size mismatch");
        assert_eq!(env.sink_ports.len(), cfg.ports(), "sink table size mismatch");
        let inputs = InputVcs::new(cfg.ports(), cfg.vcs_per_port(), cfg.buffer_depth());
        let outputs =
            OutputVcs::new(cfg.ports(), cfg.vcs_per_port(), cfg.buffer_depth(), &env.sink_ports);
        let mut activity = ActivityCounters::new();
        activity.routers = 1;
        let total_vcs = cfg.ports() * cfg.vcs_per_port();
        let five_stage = cfg.pipeline == PipelineKind::FiveStage;
        let chains = allocator.reads_traversals();
        let byte = |i: usize| u8::try_from(i).expect("validated: port and VC ids fit a byte");
        let mut flat_to_vc = Vec::with_capacity(total_vcs);
        for port in 0..cfg.ports() {
            flat_to_vc.extend((0..cfg.vcs_per_port()).map(|vc| (byte(port), byte(vc))));
        }
        Router {
            id,
            partition: cfg.partition().expect("validated config"),
            env,
            allocator,
            inputs,
            outputs,
            va_pointer: 0,
            buffered: 0,
            activity,
            // Only an age-based allocator reads ages.
            requests: if cfg.age_based_sa {
                RequestSet::new(cfg.ports(), cfg.vcs_per_port())
            } else {
                RequestSet::unaged(cfg.ports(), cfg.vcs_per_port())
            },
            // At most one grant per output port per cycle — preallocating
            // that bound keeps the first full-crossbar cycle off the heap.
            grants: GrantSet::with_capacity(cfg.ports()),
            traversed: GrantSet::with_capacity(if chains { cfg.ports() } else { 0 }),
            rc_this_cycle: if five_stage { vec![0; words_for(total_vcs.max(1))] } else { Vec::new() },
            scratch: Vec::with_capacity(words_for(total_vcs.max(1))),
            flat_to_vc,
            cfg,
        }
    }

    /// This router's id.
    #[must_use]
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// The router's configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Activity counters accumulated since construction.
    #[must_use]
    pub fn activity(&self) -> &ActivityCounters {
        &self.activity
    }

    /// Matching-efficiency record of the switch allocator (see
    /// [`Allocator::matching_stats`]).
    #[must_use]
    pub fn matching_summary(&self) -> MatchingSummary {
        self.allocator.matching_stats().summary()
    }

    /// Buffered flits in input VC `(port, vc)`.
    #[must_use]
    pub fn buffer_occupancy(&self, port: PortId, vc: VcId) -> usize {
        self.inputs.occupancy(port, vc)
    }

    /// Credits available on output `(port, vc)`.
    #[cfg(test)]
    fn output_credits(&self, port: PortId, vc: VcId) -> usize {
        self.outputs.credits(port, vc)
    }

    /// True when no flit is buffered anywhere in the router.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        debug_assert_eq!(
            self.buffered,
            self.inputs.total_occupancy(),
            "incremental occupancy count out of sync"
        );
        self.buffered == 0
    }

    /// Flits currently buffered across all input VCs — the incremental
    /// occupancy count behind [`Router::is_empty`], exposed for
    /// aggregate VC-slab occupancy sampling (engine health heartbeats).
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.buffered
    }

    /// True when stepping this router would be a provable no-op apart from
    /// the per-cycle bookkeeping that [`Router::note_idle_cycles`] can
    /// replay: every input VC FIFO is empty, so no RC/VA candidate, no
    /// switch request, and no traversal can arise. Output-side state —
    /// mid-packet VC bindings and outstanding downstream credits — is
    /// never read or written by an empty cycle, so it is irrelevant here;
    /// the events that change it (flit or credit delivery) re-activate the
    /// router in the network scheduler.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.is_empty()
    }

    /// Fast-forwards the router over `n` skipped quiescent cycles, leaving
    /// it in exactly the state `n` empty [`Router::step_into`] calls would
    /// have produced: the VA fairness pointer rotates, the cycle counter
    /// advances, and the allocator replays its own empty-cycle drift via
    /// [`Allocator::note_idle_cycles`]. Everything else an
    /// empty step touches (request/grant scratch, RC bitset) is
    /// rebuilt from scratch at the start of the next real step.
    pub fn note_idle_cycles(&mut self, n: u64) {
        // `va_pointer < total_vcs` and the reduced `n` is too, so one
        // conditional subtract wraps the sum.
        let total_vcs = self.flat_to_vc.len();
        self.va_pointer += (n % total_vcs as u64) as usize;
        if self.va_pointer >= total_vcs {
            self.va_pointer -= total_vcs;
        }
        self.activity.cycles += n;
        self.allocator.note_idle_cycles(n);
    }

    /// Delivers a flit into input VC `(port, flit.out_vc)` — the VC the
    /// upstream router's VC allocation picked.
    ///
    /// # Panics
    ///
    /// Panics if the flit carries no VC or the buffer is full (either is a
    /// flow-control protocol violation).
    #[inline]
    pub fn accept_flit(&mut self, port: PortId, flit: Flit) {
        let vc = flit.out_vc().expect("delivered flit must carry its input VC");
        self.inputs.push(port, vc, flit);
        self.buffered += 1;
        self.activity.buffer_writes += 1;
    }

    /// Returns one credit for output `(port, vc)` (a downstream buffer slot
    /// freed).
    #[inline]
    pub fn credit_return(&mut self, port: PortId, vc: VcId) {
        return_credit(&mut self.inputs, &mut self.outputs, port, vc, self.cfg.buffer_depth());
    }

    /// Runs one cycle: VC allocation, switch allocation, switch traversal.
    ///
    /// Convenience wrapper over [`Router::step_into`] returning a fresh
    /// [`RouterOutput`]; per-cycle loops should reuse one output buffer via
    /// `step_into` instead.
    pub fn step(&mut self, now: Cycle) -> RouterOutput {
        let mut out = RouterOutput::default();
        let mut tel = TelemetrySink::disabled();
        self.step_into(now, &mut out, &mut tel);
        out
    }

    /// Runs one cycle — VC allocation, switch allocation, switch traversal
    /// — writing the outbound flits and freed-buffer credits into the
    /// caller-owned `out` (cleared on entry).
    ///
    /// The switch requests come from three bit rows of the inputs. Before
    /// any VA, every occupied VC whose `ready` bit is set (bound, and its
    /// downstream VC holds a credit) posts its non-speculative request
    /// with word operations; then only the VA candidates are visited, in
    /// cyclic order from the fairness pointer: each is allocated a VC and,
    /// if the router speculates, requests speculatively. A three-stage
    /// router holding exactly one occupied VC takes the light step
    /// instead: it visits that VC alone and hands its request, if any,
    /// straight to [`Allocator::allocate_one`] (DESIGN.md §6d).
    ///
    /// All per-cycle working state (request/grant sets, RC bitset, the
    /// allocator's scratch) is owned and reused, so a steady-state call
    /// performs zero heap allocations. `tel` receives the router-level
    /// lifecycle events (`VcAlloc`, `SaRequest`, `SaGrant`,
    /// `SwitchTraversal`) and pipeline-stall counters; a
    /// [`TelemetrySink::disabled`] sink makes every hook a no-op. A router
    /// holding a flit must be stepped every cycle (ages are cycle counts).
    pub fn step_into(&mut self, now: Cycle, out: &mut RouterOutput, tel: &mut TelemetrySink) {
        out.clear();
        let router = self.id.0 as u32;
        // The trace record of `kind` at input VC (`port`, `vc`) of this
        // router, toward `out_port`, for `packet`; `extra` as
        // [`TraceEvent::extra`].
        let vc_event = |kind, (port, vc): (PortId, VcId), out_port: PortId, packet, extra| {
            let (port, vc, out_port) = (port.0 as u32, vc.0 as u32, out_port.0 as u32);
            TraceEvent { router, port, vc, out_port, packet, extra, ..TraceEvent::at(now, kind) }
        };
        let total_vcs = self.flat_to_vc.len();

        let five_stage = self.cfg.pipeline == PipelineKind::FiveStage;
        let speculation = self.cfg.speculative_sa && !five_stage;
        let aged = self.cfg.age_based_sa;

        let Self {
            cfg,
            partition,
            env,
            allocator,
            inputs,
            outputs,
            va_pointer,
            buffered,
            activity,
            requests,
            grants,
            traversed,
            rc_this_cycle,
            scratch,
            flat_to_vc,
            ..
        } = self;
        let chains = allocator.reads_traversals();

        // A light step's single VC: the cyclic pass would visit it alone,
        // whatever the fairness pointer. Five-stage routers always take the
        // general step.
        let lone = if five_stage { None } else { lone_set_bit(inputs.occupied_words()) };
        if lone.is_none() {
            // The non-speculative requests, from the masks before any VA:
            // VA binds only candidates, which are never ready, and reads no
            // credit a request depends on. Each VC's out port was recorded
            // at its bind.
            debug_assert!(
                inputs.wants_va_words().iter().zip(inputs.ready_words()).all(|(&w, &r)| w & r == 0),
                "a VA candidate is ready"
            );
            requests.clear();
            and_into(scratch, inputs.occupied_words(), inputs.ready_words());
            requests.post_ready(scratch);
            // The VA candidates, a snapshot the pass walks while it binds
            // them.
            and_into(scratch, inputs.occupied_words(), inputs.wants_va_words());
        }

        // ---- Route computation stage (five-stage pipeline only): a head
        // flit reaching the front of its VC spends one cycle in RC before
        // becoming a VA candidate. Three-stage routers skip this — the
        // route arrived with the flit (lookahead).
        if five_stage {
            rc_this_cycle.fill(0);
            for_each_set_in(scratch, 0, total_vcs, &mut |flat| {
                let (port, vc) = vc_at(flat_to_vc, flat);
                if !inputs.rc_done(port, vc) {
                    inputs.mark_rc_done(port, vc);
                    set_bit(rc_this_cycle, flat);
                }
            });
        }

        // ---- VC allocation and the speculative request of one VA
        // candidate; on the light step, also the request of a bound VC.
        // The general step posts into `requests`; the light step keeps its
        // request by value and leaves `requests` to the next general step,
        // which clears it first.
        let policy = if cfg.dimension_aware_va && partition.groups() > 1 {
            VcAllocPolicy::DimensionAware
        } else {
            VcAllocPolicy::MaxCredits
        };
        let mut lone_request = None;
        // (A block's tail is where a `let`-bound closure may carry an attribute.)
        let mut visit = {
            #[inline(always)]
            |flat: usize, light: bool| {
                let (port, vc) = vc_at(flat_to_vc, flat);
                let age = if aged { inputs.hol_age(port, vc, now) } else { 0 };
                // Read the head by slot reference; only the routing fields and
                // packet id are needed, not a whole-flit copy.
                let (out_port, lookahead_port, packet_id) = {
                    let head = inputs.head(port, vc).expect("occupied VC has a head");
                    (head.out_port(), head.lookahead_port(), head.packet_id().0)
                };
                if !test_bit(inputs.wants_va_words(), flat) {
                    // A bound VC, reached on the light step only: it
                    // requests when a credit guarantees the traversal.
                    debug_assert!(light, "the general step visits VA candidates only");
                    if test_bit(inputs.ready_words(), flat) {
                        lone_request = Some(SwitchRequest { port, vc, out_port, speculative: false, age });
                    }
                    return;
                }
                debug_assert!(inputs.needs_va(port, vc), "stale VA-candidate bit");
                if five_stage && test_bit(rc_this_cycle, flat) {
                    return; // RC occupied this cycle; VA starts next cycle
                }
                activity.va_arbitrations += 1;
                // Ejection has no downstream VC contention to track.
                let bound = if outputs.is_sink(out_port) {
                    Some(VcId(0))
                } else {
                    let dim = env.port_dims[lookahead_port.0];
                    select_output_vc(policy, outputs, out_port, partition, dim)
                };
                match bound {
                    Some(w) => {
                        bind_vc(inputs, outputs, flat, (port, vc), out_port, w);
                        requests.record_out_port(port, vc, out_port);
                        let out_vc = w.0 as u32;
                        tel.trace(vc_event(TraceEventKind::VcAlloc, (port, vc), out_port, packet_id, out_vc));
                    }
                    None => tel.count(tel.ids.stall_va_no_free_vc, 1),
                }
                // VA happened (or failed) this very cycle: the SA request is
                // speculative. A grant to a VC whose VA failed is dropped at
                // traversal — the wasted-grant cost of speculation.
                if speculation {
                    let r = SwitchRequest { port, vc, out_port, speculative: true, age };
                    if light { lone_request = Some(r) } else { requests.push(r) }
                }
            }
        };
        // The general step visits the VA candidates in cyclic order from
        // the fairness pointer; push order does not matter to the request
        // set (DESIGN.md §6d).
        match lone {
            Some(flat) => visit(flat, true),
            None => for_each_set_cyclic(scratch, total_vcs, *va_pointer, #[inline(always)] |flat| visit(flat, false)),
        }
        if aged && lone.is_none() {
            // Every occupied VC is aged on every step (an arrival starts
            // waiting at its first step); only requesters' ages are read.
            scratch.clear();
            scratch.extend_from_slice(inputs.occupied_words());
            for_each_set_in(scratch, 0, total_vcs, &mut |flat| {
                let (port, vc) = vc_at(flat_to_vc, flat);
                requests.set_age(port, vc, inputs.hol_age(port, vc, now));
            });
        }
        *va_pointer += 1;
        if *va_pointer == total_vcs {
            *va_pointer = 0;
        }
        // Requests are traced after every `VcAlloc`, in `(port, vc)` order.
        if tel.tracing() {
            let general = lone.is_none().then(|| requests.active_requests());
            for r in lone_request.into_iter().chain(general.into_iter().flatten()) {
                let packet = inputs.head(r.port, r.vc).map_or(NO_PACKET, |f| f.packet_id().0);
                let extra = u32::from(r.speculative);
                tel.trace(vc_event(TraceEventKind::SaRequest, (r.port, r.vc), r.out_port, packet, extra));
            }
        }

        // ---- Switch allocation. An empty request set can neither grant
        // nor commit an arbiter, and every allocator replays the rest of
        // its empty-cycle drift (wavefront diagonals, scan offsets, broken
        // chains) through `note_idle_cycles` — the same contract gating
        // already leans on for skipped cycles, pinned by the
        // `note_idle_cycles_matches_empty_allocations` test. So a woken
        // router with nothing to request skips the full kernel call.
        let offered = if lone.is_some() { usize::from(lone_request.is_some()) } else { requests.len() };
        activity.sa_arbitrations += offered as u64;
        if offered == 0 {
            grants.clear();
            allocator.note_idle_cycles(1);
        } else if let Some(r) = lone_request {
            allocator.allocate_one(r, requests, grants);
            let only = Grant { port: r.port, vc: r.vc, out_port: r.out_port };
            debug_assert!(grants.iter().eq([&only]), "a lone request must be granted alone");
        } else {
            allocator.allocate_into(requests, grants);
            debug_assert!(
                grants.validate_against(requests, partition).is_ok(),
                "allocator produced conflicting grants"
            );
        }
        tel.count(tel.ids.stall_sa_no_grant, (offered - grants.len()) as u64);

        // ---- Switch traversal.
        traversed.clear();
        for g in grants.iter() {
            if tel.tracing() {
                let packet = inputs.head(g.port, g.vc).map_or(NO_PACKET, |f| f.packet_id().0);
                tel.trace(vc_event(TraceEventKind::SaGrant, (g.port, g.vc), g.out_port, packet, NO_ID));
            }
            let Some(w) = inputs.out_vc(g.port, g.vc) else {
                // Failed speculation: the grant is wasted.
                tel.count(tel.ids.stall_sa_spec_dropped, 1);
                continue;
            };
            if !outputs.can_send(g.out_port, w) {
                // Speculative grant without a credit.
                tel.count(tel.ids.stall_sa_no_credit, 1);
                continue;
            }
            let mut flit = inputs.pop(g.port, g.vc, now);
            debug_assert_eq!(flit.out_port(), g.out_port, "a packet's flits share its route");
            *buffered -= 1;
            flit.set_out_vc(Some(w));
            consume_credit(inputs, outputs, g.out_port, w);
            if flit.is_tail() {
                outputs.release(g.out_port, w);
            }
            activity.buffer_reads += 1;
            activity.crossbar_traversals += 1;
            if outputs.is_sink(g.out_port) {
                activity.ejections += 1;
                activity.bits_delivered += cfg.flit_width_bits as u64;
            } else {
                activity.link_traversals += 1;
            }
            let packet = flit.packet_id().0;
            let ev = vc_event(TraceEventKind::SwitchTraversal, (g.port, g.vc), g.out_port, packet, NO_ID);
            tel.trace(TraceEvent { flit: flit.index() as u32, ..ev });
            out.credits.push((g.port, g.vc));
            out.flits.push((g.out_port, flit));
            if chains {
                traversed.add(*g);
            }
        }
        if chains {
            allocator.observe_traversals(traversed);
        }
        activity.cycles += 1;
    }
}

/// The per-VC request build the bit rows replaced, kept as the executable
/// specification of [`Router::step_into`]'s general step: one visit of
/// every occupied VC in cyclic order from the fairness pointer, VC
/// allocation on a candidate, and a bound VC's request when a credit
/// allows. It runs on copies of the router's VC state, so the router is
/// left untouched, and returns the requests that step must post.
#[cfg(test)]
fn per_vc_requests(r: &Router, now: Cycle) -> RequestSet {
    let (mut inputs, mut outputs) = (r.inputs.clone(), r.outputs.clone());
    let (cfg, total_vcs) = (&r.cfg, r.flat_to_vc.len());
    let five_stage = cfg.pipeline == PipelineKind::FiveStage;
    let speculation = cfg.speculative_sa && !five_stage;
    let occupied = inputs.occupied_words().to_vec();
    let mut rc_this_cycle = vec![0; words_for(total_vcs)];
    if five_stage {
        for_each_set_in(&occupied, 0, total_vcs, &mut |flat| {
            let (port, vc) = vc_at(&r.flat_to_vc, flat);
            if test_bit(inputs.wants_va_words(), flat) && !inputs.rc_done(port, vc) {
                inputs.mark_rc_done(port, vc);
                set_bit(&mut rc_this_cycle, flat);
            }
        });
    }
    let policy = if cfg.dimension_aware_va && r.partition.groups() > 1 {
        VcAllocPolicy::DimensionAware
    } else {
        VcAllocPolicy::MaxCredits
    };
    let mut requests = RequestSet::new(cfg.ports(), cfg.vcs_per_port());
    for_each_set_cyclic(&occupied, total_vcs, r.va_pointer, |flat| {
        let (port, vc) = vc_at(&r.flat_to_vc, flat);
        let age = if cfg.age_based_sa { inputs.hol_age(port, vc, now) } else { 0 };
        let head = inputs.head(port, vc).expect("occupied VC has a head");
        let (out_port, lookahead_port) = (head.out_port(), head.lookahead_port());
        if !test_bit(inputs.wants_va_words(), flat) {
            if inputs.out_vc(port, vc).is_some_and(|w| outputs.can_send(out_port, w)) {
                requests.push(SwitchRequest { port, vc, out_port, speculative: false, age });
            }
            return;
        }
        if five_stage && test_bit(&rc_this_cycle, flat) {
            return;
        }
        let bound = if outputs.is_sink(out_port) {
            Some(VcId(0))
        } else {
            let dim = r.env.port_dims[lookahead_port.0];
            select_output_vc(policy, &outputs, out_port, &r.partition, dim)
        };
        if let Some(w) = bound {
            bind_vc(&mut inputs, &mut outputs, flat, (port, vc), out_port, w);
        }
        if speculation {
            requests.push(SwitchRequest { port, vc, out_port, speculative: true, age });
        }
    });
    requests
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_alloc::build_allocator;
    use vix_core::{AllocatorKind, NodeId, PacketDescriptor, PacketId, VirtualInputs};

    /// A 3-port test router: ports 0 and 1 are network ports, port 2 is a
    /// terminal sink.
    fn test_router(kind: AllocatorKind, cfg: RouterConfig) -> Router {
        let alloc = build_allocator(kind, &cfg);
        let env = RouterEnv::new(vec![0, 1, 2], vec![false, false, true]);
        Router::new(RouterId(0), cfg, alloc, env)
    }

    fn flit_to(out: PortId, len: usize, index: usize, vc: VcId) -> Flit {
        let packet = PacketDescriptor::new(PacketId(7), NodeId(0), NodeId(1), len, Cycle(0));
        Flit::new(packet, index, out, out, Some(vc), Cycle(0))
    }

    #[test]
    fn single_flit_traverses_to_sink_in_one_cycle() {
        let cfg = RouterConfig::new(3, 2, 4);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        r.accept_flit(PortId(0), flit_to(PortId(2), 1, 0, VcId(0)));
        let out = r.step(Cycle(0));
        assert_eq!(out.flits.len(), 1, "speculative VA+SA traverses the same cycle");
        assert_eq!(out.flits[0].0, PortId(2));
        assert_eq!(out.credits, vec![(PortId(0), VcId(0))]);
        assert!(r.is_empty());
    }

    #[test]
    fn five_stage_pipeline_takes_two_extra_cycles() {
        use vix_core::PipelineKind;
        // Fig. 6(a): RC and VA each occupy a cycle before SA/ST, and
        // speculation is off.
        let cfg = RouterConfig::new(3, 2, 4).with_pipeline(PipelineKind::FiveStage);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        r.accept_flit(PortId(0), flit_to(PortId(2), 1, 0, VcId(0)));
        assert!(r.step(Cycle(0)).flits.is_empty(), "cycle 0: RC");
        assert!(r.step(Cycle(1)).flits.is_empty(), "cycle 1: VA");
        assert_eq!(r.step(Cycle(2)).flits.len(), 1, "cycle 2: SA + ST");
    }

    #[test]
    fn five_stage_body_flits_stream_without_rc() {
        use vix_core::PipelineKind;
        let cfg = RouterConfig::new(3, 2, 4).with_pipeline(PipelineKind::FiveStage);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        for i in 0..3 {
            r.accept_flit(PortId(0), flit_to(PortId(2), 3, i, VcId(0)));
        }
        let moved: Vec<usize> = (0..5).map(|c| r.step(Cycle(c)).flits.len()).collect();
        assert_eq!(moved, vec![0, 0, 1, 1, 1], "head pays RC+VA; body/tail stream");
    }

    #[test]
    fn non_speculative_pipeline_takes_an_extra_cycle() {
        let cfg = RouterConfig::new(3, 2, 4).with_speculation(false);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        r.accept_flit(PortId(0), flit_to(PortId(2), 1, 0, VcId(0)));
        assert!(r.step(Cycle(0)).flits.is_empty(), "cycle 0: VA only");
        assert_eq!(r.step(Cycle(1)).flits.len(), 1, "cycle 1: SA + ST");
    }

    #[test]
    fn wormhole_streams_one_flit_per_cycle() {
        let cfg = RouterConfig::new(3, 2, 4);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        for i in 0..3 {
            r.accept_flit(PortId(0), flit_to(PortId(2), 3, i, VcId(1)));
        }
        for cycle in 0..3u64 {
            let out = r.step(Cycle(cycle));
            assert_eq!(out.flits.len(), 1, "cycle {cycle}");
            assert_eq!(out.flits[0].1.index(), cycle as usize, "flits stay in order");
        }
        assert!(r.is_empty());
    }

    #[test]
    fn credits_throttle_traversal() {
        // Non-sink output with depth 2: two flits go, the third waits for a
        // credit return.
        let cfg = RouterConfig::new(3, 2, 2);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        r.accept_flit(PortId(0), flit_to(PortId(1), 4, 0, VcId(0)));
        r.accept_flit(PortId(0), flit_to(PortId(1), 4, 1, VcId(0)));
        assert_eq!(r.step(Cycle(0)).flits.len(), 1);
        r.accept_flit(PortId(0), flit_to(PortId(1), 4, 2, VcId(0)));
        assert_eq!(r.step(Cycle(1)).flits.len(), 1);
        // Credits exhausted.
        assert_eq!(r.step(Cycle(2)).flits.len(), 0, "no credit, no traversal");
        let w = VcId(0);
        assert_eq!(r.output_credits(PortId(1), w), 0);
        r.credit_return(PortId(1), w);
        assert_eq!(r.step(Cycle(3)).flits.len(), 1);
    }

    #[test]
    fn downstream_vc_binding_travels_with_flit() {
        let cfg = RouterConfig::new(3, 4, 4);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        r.accept_flit(PortId(0), flit_to(PortId(1), 2, 0, VcId(2)));
        r.accept_flit(PortId(0), flit_to(PortId(1), 2, 1, VcId(2)));
        let out1 = r.step(Cycle(0));
        let w = out1.flits[0].1.out_vc().unwrap();
        let out2 = r.step(Cycle(1));
        assert_eq!(out2.flits[0].1.out_vc(), Some(w), "body follows the head's VC");
    }

    #[test]
    fn tail_frees_output_vc_for_next_packet() {
        let cfg = RouterConfig::new(3, 1, 4); // single VC: contention is forced
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        r.accept_flit(PortId(0), flit_to(PortId(1), 1, 0, VcId(0)));
        let _ = r.step(Cycle(0));
        // Second packet from the other input port can claim the freed VC.
        r.accept_flit(PortId(1), flit_to(PortId(0), 1, 0, VcId(0)));
        let out = r.step(Cycle(1));
        assert_eq!(out.flits.len(), 1);
    }

    #[test]
    fn vc_held_mid_packet_blocks_other_packets() {
        // Packet A (2 flits) holds the only output VC of port 1; packet
        // B's head, arriving on the *other physical port* (so only VC
        // contention, not the input-port constraint, can block it), must
        // wait for A's tail.
        let cfg = RouterConfig::new(3, 1, 4);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        r.accept_flit(PortId(0), flit_to(PortId(1), 2, 0, VcId(0)));
        let out = r.step(Cycle(0));
        assert_eq!(out.flits.len(), 1, "A's head goes");
        let b = PacketDescriptor::new(PacketId(9), NodeId(2), NodeId(1), 1, Cycle(0));
        r.accept_flit(PortId(1), Flit::new(b, 0, PortId(1), PortId(1), Some(VcId(0)), Cycle(0)));
        // A's tail hasn't arrived yet; B cannot take the allocated VC.
        let out = r.step(Cycle(1));
        assert!(out.flits.is_empty(), "B must wait while A holds the VC");
        // A's tail arrives and leaves; then B proceeds.
        r.accept_flit(PortId(0), flit_to(PortId(1), 2, 1, VcId(0)));
        let out = r.step(Cycle(2));
        assert_eq!(out.flits.len(), 1);
        assert_eq!(out.flits[0].1.packet_id(), PacketId(7), "A's tail first");
        let out = r.step(Cycle(3));
        assert_eq!(out.flits.len(), 1);
        assert_eq!(out.flits[0].1.packet_id(), PacketId(9), "B follows");
    }

    #[test]
    fn baseline_port_sends_one_flit_per_cycle() {
        let cfg = RouterConfig::new(3, 2, 4);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        // Two single-flit packets on different VCs of port 0, different
        // outputs.
        r.accept_flit(PortId(0), flit_to(PortId(1), 1, 0, VcId(0)));
        r.accept_flit(PortId(0), flit_to(PortId(2), 1, 0, VcId(1)));
        let out = r.step(Cycle(0));
        assert_eq!(out.flits.len(), 1, "input-port constraint without VIX");
    }

    #[test]
    fn vix_port_sends_two_flits_per_cycle() {
        let cfg = RouterConfig::new(3, 2, 4).with_virtual_inputs(VirtualInputs::PerPort(2));
        let mut r = test_router(AllocatorKind::Vix, cfg);
        // VC0 (sub-group 0) → port 1; VC1 (sub-group 1) → sink port 2.
        r.accept_flit(PortId(0), flit_to(PortId(1), 1, 0, VcId(0)));
        r.accept_flit(PortId(0), flit_to(PortId(2), 1, 0, VcId(1)));
        let out = r.step(Cycle(0));
        assert_eq!(out.flits.len(), 2, "virtual inputs lift the port constraint (Fig. 4)");
    }

    #[test]
    fn activity_counters_track_events() {
        let cfg = RouterConfig::new(3, 2, 4);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        r.accept_flit(PortId(0), flit_to(PortId(2), 1, 0, VcId(0)));
        let _ = r.step(Cycle(0));
        let a = r.activity();
        assert_eq!(a.buffer_writes, 1);
        assert_eq!(a.buffer_reads, 1);
        assert_eq!(a.crossbar_traversals, 1);
        assert_eq!(a.ejections, 1);
        assert_eq!(a.link_traversals, 0, "sink traversal is an ejection, not a link");
        assert_eq!(a.bits_delivered, 128);
        assert_eq!(a.cycles, 1);
    }

    #[test]
    #[should_panic(expected = "must carry its input VC")]
    fn flit_without_vc_rejected() {
        let cfg = RouterConfig::new(3, 2, 4);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        let mut f = flit_to(PortId(2), 1, 0, VcId(0));
        f.set_out_vc(None);
        r.accept_flit(PortId(0), f);
    }

    #[test]
    fn note_idle_cycles_matches_empty_steps() {
        // 3 ports x 4 VCs: the VA pointer wraps at 12. Gaps below, at, and
        // far above one lap must land where that many empty steps would,
        // from every starting offset.
        let cfg = RouterConfig::new(3, 4, 4);
        for start in 0..12u64 {
            for n in [0u64, 1, 5, 11, 12, 13, 24, 31, 1_000_003] {
                let mut stepped = test_router(AllocatorKind::InputFirst, cfg);
                let mut skipped = test_router(AllocatorKind::InputFirst, cfg);
                for c in 0..start {
                    stepped.step(Cycle(c));
                    skipped.step(Cycle(c));
                }
                skipped.note_idle_cycles(n);
                assert_eq!(skipped.va_pointer as u64, (start + n) % 12, "start {start}, gap {n}");
                assert_eq!(skipped.activity().cycles, start + n);
                if n < 100 {
                    for c in 0..n {
                        stepped.step(Cycle(start + c));
                    }
                    assert_eq!(skipped.va_pointer, stepped.va_pointer, "start {start}, gap {n}");
                }
            }
        }
    }

    /// Random traffic through one router: well-formed packet streams into
    /// random input VCs (at most one flit per port a cycle, within buffer
    /// space), and every credit returned a random 1–4 cycles after its
    /// flit left.
    struct Driver {
        router: Router,
        rng: vix_rng::rngs::StdRng,
        /// Per flat input VC: (packet length, next flit index, out port,
        /// lookahead port) of the packet arriving on it.
        streams: Vec<(usize, usize, PortId, PortId)>,
        credits: Vec<(u64, PortId, VcId)>,
        packets: u64,
    }

    impl Driver {
        fn new(kind: AllocatorKind, cfg: RouterConfig, seed: u64) -> Self {
            use vix_rng::SeedableRng;
            let ports = cfg.ports();
            let env = RouterEnv::new((0..ports).map(|p| p % 3).collect(), (0..ports).map(|p| p + 2 >= ports).collect());
            let router = Router::new(RouterId(0), cfg, build_allocator(kind, &cfg), env);
            let streams = vec![(0, 0, PortId(0), PortId(0)); ports * cfg.vcs_per_port()];
            let rng = vix_rng::rngs::StdRng::seed_from_u64(seed);
            Driver { router, rng, streams, credits: Vec::new(), packets: 0 }
        }

        /// Delivers this cycle's credits and arrivals.
        fn feed(&mut self, now: u64, load: f64) {
            use vix_rng::Rng;
            let (ports, vcs, depth) = (self.router.cfg.ports(), self.router.cfg.vcs_per_port(), self.router.cfg.buffer_depth());
            let due: Vec<_> = self.credits.iter().filter(|c| c.0 == now).map(|c| (c.1, c.2)).collect();
            self.credits.retain(|c| c.0 != now);
            for (port, vc) in due {
                self.router.credit_return(port, vc);
            }
            for port in 0..ports {
                let vc = self.rng.gen_range(0..vcs);
                if !self.rng.gen_bool(load) || self.router.buffer_occupancy(PortId(port), VcId(vc)) == depth {
                    continue;
                }
                let stream = &mut self.streams[port * vcs + vc];
                if stream.1 == stream.0 {
                    let out = PortId(self.rng.gen_range(0..ports));
                    *stream = (self.rng.gen_range(1..5), 0, out, PortId(self.rng.gen_range(0..ports)));
                    self.packets += 1;
                }
                let packet = PacketDescriptor::new(PacketId(self.packets), NodeId(0), NodeId(1), stream.0, Cycle(0));
                let flit = Flit::new(packet, stream.1, stream.2, stream.3, Some(VcId(vc)), Cycle(now));
                stream.1 += 1;
                self.router.accept_flit(PortId(port), flit);
            }
        }

        /// Steps the router and schedules the credits of what left.
        fn step(&mut self, now: u64) {
            use vix_rng::Rng;
            for (port, flit) in self.router.step(Cycle(now)).flits {
                if !self.router.outputs.is_sink(port) {
                    let vc = flit.out_vc().expect("a departing flit carries its downstream VC");
                    self.credits.push((now + self.rng.gen_range(1..5), port, vc));
                }
            }
        }
    }

    /// The mask build posts exactly the requests of the per-VC build —
    /// classes, out ports and ages — on every general step of random
    /// traffic, for every router shape: three- and five-stage,
    /// non-speculative, age-based SA, VIX, packet chaining, and more than
    /// 64 VCs.
    #[test]
    fn requests_match_the_per_vc_build() {
        use vix_core::PipelineKind;
        let base = |ports, vcs| RouterConfig::new(ports, vcs, 3);
        let cases = [
            (AllocatorKind::InputFirst, base(5, 6)),
            (AllocatorKind::Vix, base(5, 6).with_virtual_inputs(VirtualInputs::PerPort(2))),
            (AllocatorKind::InputFirst, base(5, 6).with_speculation(false).with_age_based_sa(true)),
            (AllocatorKind::InputFirst, base(5, 6).with_pipeline(PipelineKind::FiveStage)),
            (AllocatorKind::Vix, base(12, 6).with_virtual_inputs(VirtualInputs::PerPort(2)).with_age_based_sa(true)),
            (AllocatorKind::PacketChaining, base(12, 6).with_pipeline(PipelineKind::FiveStage)),
            (AllocatorKind::Wavefront, base(5, 4).with_age_based_sa(true)),
        ];
        for (case, (kind, cfg)) in cases.into_iter().enumerate() {
            let mut d = Driver::new(kind, cfg, 0xB17 + case as u64);
            let mut general = 0;
            for now in 0..1_500u64 {
                d.feed(now, if now % 500 < 250 { 0.9 } else { 0.15 });
                let r = &d.router;
                let light = r.cfg.pipeline == PipelineKind::ThreeStage && lone_set_bit(r.inputs.occupied_words()).is_some();
                let spec = (!light).then(|| per_vc_requests(r, Cycle(now)));
                d.step(now);
                if let Some(spec) = spec {
                    general += 1;
                    let posted: Vec<_> = d.router.requests.active_requests().collect();
                    let expected: Vec<_> = spec.active_requests().collect();
                    assert_eq!(posted, expected, "case {case} ({kind:?}), cycle {now}");
                }
            }
            assert!(general > 1_000, "case {case}: only {general} general steps");
        }
    }

    /// Seeded push / bind / traversal / credit-return sequences over the
    /// input and output VC state, through the helpers the router uses:
    /// after every operation `ready` holds exactly for the bound VCs whose
    /// downstream VC can take a flit, and every owner register names the
    /// input VC bound to it — one-word and multi-word shapes, with sinks.
    #[test]
    fn ready_and_owner_registers_stay_exact_after_every_operation() {
        use vix_rng::{rngs::StdRng, Rng, SeedableRng};
        for (seed, (ports, vcs, depth)) in [(3, 2, 2), (5, 6, 3), (12, 6, 2)].into_iter().enumerate() {
            let n = ports * vcs;
            let sinks: Vec<bool> = (0..ports).map(|p| p == ports - 1).collect();
            let mut rng = StdRng::seed_from_u64(0xEAD1 + seed as u64);
            let (mut inputs, mut outputs) = (InputVcs::new(ports, vcs, depth), OutputVcs::new(ports, vcs, depth, &sinks));
            // Per input VC: (packet length, next flit index, out port) of its
            // arriving packet, and the downstream VC its HOL packet is bound to.
            let mut stream = vec![(1usize, 1usize, PortId(0)); n];
            let mut bound: Vec<Option<(PortId, VcId)>> = vec![None; n];
            // Credits out per downstream VC, returned at random.
            let mut in_flight = vec![0usize; n];
            for op in 0..6_000u64 {
                let flat = rng.gen_range(0..n);
                let (port, vc) = (PortId(flat / vcs), VcId(flat % vcs));
                match rng.gen_range(0..4usize) {
                    0 if inputs.occupancy(port, vc) < depth => {
                        let s = &mut stream[flat];
                        if s.1 == s.0 {
                            *s = (rng.gen_range(1..4), 0, PortId(rng.gen_range(0..ports)));
                        }
                        let packet = PacketDescriptor::new(PacketId(op), NodeId(0), NodeId(1), s.0, Cycle(0));
                        inputs.push(port, vc, Flit::new(packet, s.1, s.2, s.2, Some(vc), Cycle(op)));
                        s.1 += 1;
                    }
                    1 if inputs.needs_va(port, vc) => {
                        let out = inputs.head(port, vc).unwrap().out_port();
                        let free = (0..vcs).map(VcId).find(|&w| outputs.owner(out, w).is_none());
                        let Some(w) = (if outputs.is_sink(out) { Some(VcId(0)) } else { free }) else { continue };
                        bind_vc(&mut inputs, &mut outputs, flat, (port, vc), out, w);
                        bound[flat] = Some((out, w));
                    }
                    2 => {
                        let Some((out, w)) = bound[flat] else { continue };
                        if inputs.is_empty(port, vc) || !outputs.can_send(out, w) {
                            continue;
                        }
                        let flit = inputs.pop(port, vc, Cycle(op));
                        consume_credit(&mut inputs, &mut outputs, out, w);
                        if !outputs.is_sink(out) {
                            in_flight[out.0 * vcs + w.0] += 1;
                        }
                        if flit.is_tail() {
                            outputs.release(out, w);
                            bound[flat] = None;
                        }
                    }
                    3 => {
                        let (out, w) = (PortId(flat / vcs), VcId(flat % vcs));
                        if in_flight[flat] == 0 {
                            continue;
                        }
                        in_flight[flat] -= 1;
                        return_credit(&mut inputs, &mut outputs, out, w, depth);
                    }
                    _ => continue,
                }
                for i in 0..n {
                    let (p, v) = (PortId(i / vcs), VcId(i % vcs));
                    let ready = bound[i].is_some_and(|(out, w)| outputs.can_send(out, w));
                    let ctx = format!("{ports}x{vcs}: VC {i} after op {op} on VC {flat}");
                    assert_eq!(test_bit(inputs.ready_words(), i), ready, "ready of {ctx}");
                    assert_eq!(inputs.out_vc(p, v), bound[i].map(|b| b.1), "binding of {ctx}");
                    if let Some((out, w)) = bound[i].filter(|b| !outputs.is_sink(b.0)) {
                        assert_eq!(outputs.owner(out, w), Some(i), "owner of the VC bound by {ctx}");
                    }
                    let (out, w) = (PortId(i / vcs), VcId(i % vcs));
                    if let Some(owner) = outputs.owner(out, w) {
                        assert_eq!(bound[owner], Some((out, w)), "owner register of downstream {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_router_steps_are_idempotent() {
        let cfg = RouterConfig::new(3, 2, 4);
        let mut r = test_router(AllocatorKind::InputFirst, cfg);
        for c in 0..5 {
            let out = r.step(Cycle(c));
            assert!(out.flits.is_empty());
            assert!(out.credits.is_empty());
        }
        assert_eq!(r.activity().cycles, 5);
    }
}
