//! A shard that panics mid-cycle must not deadlock the run.
//!
//! Before the spin-barrier rewrite, a panicking shard simply never
//! arrived at the cycle barrier and every other participant blocked in
//! `Barrier::wait` forever. The sense-reversing
//! [`vix::sim::SpinBarrier`] is poisoned from a panic guard instead, so
//! survivors unwind and the original panic propagates out of
//! `run_cycles`: straight up the stack when it is shard 0's (the calling
//! thread steps that shard itself), as a re-thrown join failure when it
//! is a spawned shard's.
//!
//! The panic is injected per simulation with the test-only
//! `NetworkSim::inject_shard_panic(cycle, shard)`. This file is its own
//! integration-test binary — and therefore its own process — because the
//! panic hook the test installs is process-global; keeping it out of the
//! other suites' processes means it cannot perturb them even though the
//! Rust test harness runs tests concurrently.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use vix::prelude::*;

const SHARDS: usize = 4;

fn config() -> SimConfig {
    let mut network =
        NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    network.nodes = 16;
    SimConfig::new(network, 0.08)
        .with_windows(100, 400, 100)
        .with_seed(0xBAD)
        .with_shards(SHARDS)
}

/// One test, not several: the panic hook is process-global, so every
/// panic phase and every clean-reuse phase must run sequentially.
#[test]
fn worker_panic_propagates_instead_of_deadlocking() {
    let mut serial = NetworkSim::build(config().with_shards(1)).unwrap();
    serial.run_cycles(200);

    // The hook runs on the thread that panics, before unwinding starts;
    // a payload re-thrown from a `join` does not pass through it again.
    // Anything but the injected panic (a failing assertion below, say)
    // is still reported by the default hook.
    let panicked_on: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook({
        let panicked_on = Arc::clone(&panicked_on);
        Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|msg| msg.contains("injected shard panic"));
            if injected {
                panicked_on.lock().unwrap().push(std::thread::current().id());
            } else {
                default_hook(info);
            }
        })
    });

    // Shard 0 (stepped by the calling thread), a middle shard and the
    // last one each die at cycle 50, mid-stretch, while the other three
    // are in their own cycle or spinning at the barrier.
    for shard in [0, 2, SHARDS - 1] {
        let result = std::panic::catch_unwind(|| {
            let mut sim = NetworkSim::build(config()).unwrap();
            sim.inject_shard_panic(50, shard);
            sim.run_cycles(200);
        });
        let payload = result.expect_err("injected shard panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_owned());
        assert!(
            msg.contains(&format!("injected shard panic at cycle 50 shard {shard}")),
            "propagated panic should be shard {shard}'s own payload, got: {msg}"
        );

        // Exactly one thread panicked — the survivors leave through the
        // poisoned barrier, not through panics of their own — and it is
        // this thread exactly when the shard is shard 0.
        let threads = std::mem::take(&mut *panicked_on.lock().unwrap());
        assert_eq!(threads.len(), 1, "shard {shard}: one panic, got {threads:?}");
        assert_eq!(
            threads[0] == std::thread::current().id(),
            shard == 0,
            "shard 0 runs on the calling thread, every other shard on a spawned one"
        );

        // Same process, a simulation without the injector: the engine must
        // be fully reusable (each stretch builds a fresh barrier, so the
        // poison cannot leak into later runs) and still bit-identical.
        let mut sim = NetworkSim::build(config()).unwrap();
        sim.run_cycles(200);
        assert_eq!(
            sim.stats(),
            serial.stats(),
            "sharded run after shard {shard}'s panic must still be bit-identical"
        );
    }
    drop(std::panic::take_hook()); // back to the default hook
}
