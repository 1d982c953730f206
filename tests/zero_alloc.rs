//! Allocation-regression gate for the steady-state hot path.
//!
//! A counting `GlobalAlloc` wraps the system allocator; after a warmup
//! phase that grows every reusable buffer (router request/grant sets,
//! allocator scratch, source queues, the packet ledger) to its
//! steady-state size, clocking the network must stay off the heap: exactly
//! zero allocations over 1,000 cycles. A run keeps nothing per delivered
//! packet — deliveries go only into a buffer the caller passes in, and
//! latencies into a histogram that grows with the worst latency, not with
//! the packet count — so a run inside the measurement window is held to a
//! small constant number of bytes as well.
//!
//! This lives in its own integration-test binary because the
//! `#[global_allocator]` attribute is process-wide. The *counter* is
//! per-thread: the test harness runs the tests of one binary on parallel
//! threads, and a thread-local count bills each test only its own
//! allocations. Every measured region runs on the test's thread, except
//! a threaded `run_cycles`, whose count is its calling thread's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vix::prelude::*;

/// System allocator wrapper that counts every `alloc`/`realloc` call made
/// by the calling thread, and the bytes each one requested.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading them never
    // allocates or registers a TLS dtor, so they are safe inside the
    // allocator.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    ALLOC_CALLS.with(|calls| calls.set(calls.get() + 1));
    ALLOC_BYTES.with(|total| total.set(total.get() + bytes as u64));
}

/// Allocations made so far by the calling thread.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Bytes requested so far by the calling thread's allocations (a
/// `realloc` counts its new size).
fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_in_steady_state(kind: AllocatorKind, telemetry: TelemetrySettings) -> u64 {
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
    network.nodes = 64; // 8×8 mesh
    allocations_in_steady_state_for(network, 0.08, telemetry)
}

fn allocations_in_steady_state_for(network: NetworkConfig, rate: f64, telemetry: TelemetrySettings) -> u64 {
    allocations_in_steady_state_sharded(network, rate, telemetry, 1)
}

fn allocations_in_steady_state_sharded(
    network: NetworkConfig,
    rate: f64,
    telemetry: TelemetrySettings,
    shards: usize,
) -> u64 {
    const WARMUP_CYCLES: usize = 500;
    const MEASURED_CYCLES: usize = 1_000;

    // Keep the whole run inside the sim's warmup window: traffic flows the
    // entire time and the measurement stats never record, so nothing may
    // grow at all (the measured window has its own, byte-counted gate).
    let cfg = SimConfig::new(network, rate)
        .with_windows((WARMUP_CYCLES + MEASURED_CYCLES + 1) as u64, 1, 1)
        .with_shards(shards)
        .with_telemetry(telemetry);
    let mut sim = NetworkSim::build(cfg).expect("valid config");

    // Warmup: every reusable buffer reaches its steady-state capacity.
    for _ in 0..WARMUP_CYCLES {
        sim.step();
    }

    let before = alloc_calls();
    for _ in 0..MEASURED_CYCLES {
        sim.step();
    }
    let after = alloc_calls();
    drop(sim);
    after - before
}

#[test]
fn wide_config_steady_state_stays_off_the_heap() {
    // 16 VCs with ideal virtual inputs on the mesh's 5-port router: 80
    // crossbar inputs, so every bitset row, arbiter mask, and matcher
    // adjacency row spans two 64-bit words. The multi-word scratch must be
    // preallocated exactly like the narrow case — same gate, same cycles.
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 64;
    network.router = network.router.with_vcs(16).with_virtual_inputs(VirtualInputs::Ideal);
    let allocs = allocations_in_steady_state_for(network, 0.08, TelemetrySettings::disabled());
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations in 1,000 steady-state cycles of an 8×8 mesh \
         with 80 crossbar inputs per router (gate: exactly 0)"
    );
}

#[test]
fn three_credit_bursts_stay_off_the_heap() {
    // VIX with three virtual inputs per port near saturation: an input
    // port can free three buffer slots in one cycle, so up to three
    // credits leave it together and land in one slot of the credit
    // wheel, which is reserved for that worst case at build.
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 64;
    network.router = network.router.with_virtual_inputs(VirtualInputs::PerPort(3));
    let allocs = allocations_in_steady_state_for(network, 0.11, TelemetrySettings::disabled());
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations in 1,000 steady-state cycles of an 8×8 VIX k = 3 mesh \
         near saturation (gate: exactly 0)"
    );
}

#[test]
fn steady_state_network_steps_stay_off_the_heap() {
    for kind in [AllocatorKind::InputFirst, AllocatorKind::Vix] {
        let allocs = allocations_in_steady_state(kind, TelemetrySettings::disabled());
        assert_eq!(
            allocs, 0,
            "{kind:?}: {allocs} heap allocations in 1,000 steady-state cycles \
             of an 8×8 mesh (gate: exactly 0)"
        );
    }
}

#[test]
fn sliced_network_steps_on_one_thread_stay_off_the_heap() {
    // Four slices clocked by `step()`: the calling thread runs the cycle
    // protocol over every slice in turn, cross-slice sends travelling
    // through the mailboxes, and must stay as allocation-free as one slice.
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 64;
    let allocs = allocations_in_steady_state_sharded(network, 0.08, TelemetrySettings::disabled(), 4);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations in 1,000 steady-state cycles of an 8×8 VIX mesh in \
         four slices stepped on one thread (gate: exactly 0)"
    );
}

#[test]
fn a_threaded_stretch_allocates_only_its_thread_spawns() {
    // `run_cycles` on four slices spawns three threads per call, and that
    // is all it may allocate on the calling thread: the slots the slices
    // exchange through are the engine's, built once, so a stretch ten
    // times longer costs exactly as much. (Before the slices were cut at
    // build, a stretch rebuilt them and their scheduler state each time:
    // 126 allocations for 1,000 cycles, 134 for 10,000.)
    const SPAWNS_GATE: u64 = 126;
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 64;
    let cfg = SimConfig::new(network, 0.08)
        .with_windows(500 + 1_000 + 10_000 + 1, 1, 1)
        .with_shards(4)
        .with_telemetry(TelemetrySettings::disabled());
    let mut sim = NetworkSim::build(cfg).expect("valid config");
    sim.run_cycles(500);
    let stretch = |sim: &mut NetworkSim, cycles: u64| {
        let before = alloc_calls();
        sim.run_cycles(cycles);
        alloc_calls() - before
    };
    let short = stretch(&mut sim, 1_000);
    let long = stretch(&mut sim, 10_000);
    assert_eq!(short, long, "a stretch's allocations grew with its length: {short} vs {long}");
    assert!(short <= SPAWNS_GATE, "{short} allocations per stretch (gate: ≤ {SPAWNS_GATE})");
}

#[test]
fn ring_transport_recirculates_with_zero_allocations() {
    // The gate with deliveries collected, proving the slab/wheel transport
    // is fully preallocated: with every cycle's delivered packets appended
    // to one reused caller-owned buffer (`step_into`), 1,000 steady-state
    // cycles — thousands of VC-slab pushes/pops and timing-wheel slot
    // refills — must perform exactly ZERO heap allocations. The run
    // is seeded and deterministic, so the assertion cannot flake.
    const WARMUP_CYCLES: usize = 500;
    const MEASURED_CYCLES: usize = 1_000;
    for kind in [AllocatorKind::InputFirst, AllocatorKind::Vix] {
        let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
        network.nodes = 64;
        let cfg = SimConfig::new(network, 0.08)
            .with_windows((WARMUP_CYCLES + MEASURED_CYCLES + 1) as u64, 1, 1)
            .with_telemetry(TelemetrySettings::disabled());
        let mut sim = NetworkSim::build(cfg).expect("valid config");

        let mut ejected = Vec::new();
        for _ in 0..WARMUP_CYCLES {
            sim.step_into(&mut ejected);
            ejected.clear();
        }

        let before = alloc_calls();
        for _ in 0..MEASURED_CYCLES {
            sim.step_into(&mut ejected);
            ejected.clear();
        }
        let after = alloc_calls();
        assert_eq!(
            after - before,
            0,
            "{kind:?}: {} heap allocations in {MEASURED_CYCLES} steady-state cycles \
             of an 8×8 mesh with per-cycle ejection drain (gate: exactly 0)",
            after - before
        );
    }
}

#[test]
fn disabled_telemetry_sink_adds_no_allocations() {
    // The zero-overhead claim, pinned: with the sink explicitly Disabled
    // the instrumented hot path (trace hooks in the router and network,
    // matching counters in every allocator, metric hooks in the gated
    // scheduler) must hold the exact same allocation gate as the
    // uninstrumented code did.
    for kind in [AllocatorKind::InputFirst, AllocatorKind::Vix] {
        // `with_profiling(false)` keeps the engine self-profiler covered
        // by the same gate: a disabled profiler is `None` — one branch
        // per span hook, no clock reads, no allocation (DESIGN.md §7).
        let allocs = allocations_in_steady_state(
            kind,
            TelemetrySettings::disabled()
                .with_tracing(false)
                .with_metrics(false)
                .with_profiling(false),
        );
        assert_eq!(
            allocs, 0,
            "{kind:?}: {allocs} heap allocations in 1,000 steady-state cycles \
             with the Disabled telemetry sink (gate unchanged: exactly 0)"
        );
    }
}

#[test]
fn idle_network_cycles_are_constant_time_and_heap_free() {
    // Zero injection: with activity gating (the default) no router is ever
    // woken, so 10,000 cycles of an idle 8×8 mesh must perform zero router
    // steps — O(1) per-cycle work instead of 64 router visits — and stay
    // off the heap entirely.
    const CYCLES: u64 = 10_000;
    let mut network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 64;
    let cfg = SimConfig::new(network, 0.0).with_windows(CYCLES + 1, 1, 1);
    let mut sim = NetworkSim::build(cfg).expect("valid config");

    let before = alloc_calls();
    for _ in 0..CYCLES {
        sim.step();
    }
    let after = alloc_calls();

    assert_eq!(sim.router_steps(), 0, "an idle network must never visit a router");
    assert_eq!(
        after - before,
        0,
        "{} heap allocations over {CYCLES} idle cycles (gate: exactly 0)",
        after - before
    );
    // The skipped cycles are still accounted: reported activity matches a
    // sim that really stepped every router every cycle.
    let total = sim.aggregate_activity();
    assert_eq!(total.cycles, CYCLES);
    assert_eq!(total.routers, 64);
    assert_eq!(total.crossbar_traversals, 0);
}

#[test]
fn network_build_footprint_is_pinned() {
    // The build-time footprint counters (ROADMAP item 2(a)): heap blocks
    // and bytes `NetworkSim::build` requests for the paper's 8×8 VIX mesh.
    // The build is deterministic, so both are exact. The blocks stood at
    // 5 016 (78.4 per router) while every (router, port) table was its own
    // nested `Vec`; the bytes at 1 481 085 (23.1 KB per router) while every
    // buffered flit carried its packet's whole descriptor in 64 bytes, and
    // at 915 453 while credit rings were sized for a grant per VC rather
    // than per virtual input. The blocks stood at 4 752 (bytes 792 573)
    // while each separable allocator boxed its 15 arbiters one by one and
    // kept two scratch rows its kernels no longer need, and at 3 664
    // (bytes 774 141) while each router kept two more per-step outcome
    // bitsets (VA bound, VA failed) between its VA and request sweeps, and
    // at 3 536 (bytes 770 045) while every link had its own pipe ring (two
    // blocks each for 224 flit, 320 credit and 64 injection links) and
    // every router a `Vec` of them, before in-flight items moved onto the
    // scheduler's two timing wheels, at 2 260 (bytes 642 045) while
    // every router kept its own copy of the network's two port tables, at
    // 2 134 (bytes 638 901) while every router boxed its allocator, and at
    // 2 070 (bytes 638 389) while every router kept the full request
    // planes, an age column, a chaining grant set and an RC bitset its
    // allocator and pipeline never read, and two input bitsets apart.
    const BUILD_ALLOCATIONS: u64 = 1_814;
    const BUILD_BYTES: u64 = 563_381;
    let network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    let cfg = SimConfig::new(network, 0.05).with_telemetry(TelemetrySettings::disabled());
    let (calls, bytes) = (alloc_calls(), alloc_bytes());
    let sim = NetworkSim::build(cfg).expect("valid config");
    let (allocs, bytes) = (alloc_calls() - calls, alloc_bytes() - bytes);
    drop(sim);
    assert_eq!(
        allocs, BUILD_ALLOCATIONS,
        "NetworkSim::build for mesh-64 VIX made {allocs} heap allocations; a lower \
         count is progress — re-pin it — a higher one is a footprint regression"
    );
    assert_eq!(
        bytes, BUILD_BYTES,
        "NetworkSim::build for mesh-64 VIX requested {bytes} heap bytes; a lower \
         count is progress — re-pin it — a higher one is a footprint regression"
    );
    assert!(bytes / 64 <= 15_000, "{} bytes per router exceed the 15 KB budget", bytes / 64);
}

#[test]
fn measured_window_requests_a_bounded_number_of_bytes() {
    // What a run retains is the build plus what is in flight: 4 000
    // cycles inside the measurement window of the paper's 8×8 VIX mesh at
    // 0.08 packets/node/cycle — some 20 000 packets delivered and
    // measured, none collected — request a few KiB (the latency histogram
    // growing to the worst latency seen), not a record per packet.
    const WARMUP_CYCLES: u64 = 1_000;
    const MEASURED_CYCLES: u64 = 4_000;
    const GATE_BYTES: u64 = 64 * 1024;
    let network = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    let cfg = SimConfig::new(network, 0.08)
        .with_windows(WARMUP_CYCLES, MEASURED_CYCLES, 1)
        .with_telemetry(TelemetrySettings::disabled());
    let mut sim = NetworkSim::build(cfg).expect("valid config");
    for _ in 0..WARMUP_CYCLES {
        sim.step();
    }
    let before = alloc_bytes();
    for _ in 0..MEASURED_CYCLES {
        sim.step();
    }
    let bytes = alloc_bytes() - before;
    let packets = sim.stats().packets_ejected();
    assert!(packets > 10_000, "only {packets} packets measured — the window saw too little traffic");
    assert!(
        bytes < GATE_BYTES,
        "{bytes} heap bytes requested over {MEASURED_CYCLES} measured cycles ({packets} packets) \
         of an 8×8 mesh (gate: < {GATE_BYTES})"
    );
}
