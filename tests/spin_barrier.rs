//! Stress suite for the sharded engine's sense-reversing spin barrier
//! (`vix_sim::barrier`), run by name in CI alongside the parity suites.
//!
//! The unit tests in the module prove the protocol shape; these tests
//! hammer it the way the shard engine does — tens of thousands of
//! reuses, worker counts above the host's core count (forcing the
//! spin→yield downgrade), and a coordinator+workers topology with a
//! mid-flight panic — looking for torn rounds and lost wakeups.

use std::sync::atomic::{AtomicU64, Ordering};
use vix::sim::{SpinBarrier, SpinWaiter};

/// Phased counters: in round `r`, every thread increments `counts[r]`
/// before the barrier and asserts it is full directly after. A single
/// missed sense reversal anywhere in 20 000 rounds shows up as a torn
/// (partial) count.
#[test]
fn sense_reversal_survives_twenty_thousand_rounds() {
    const THREADS: u64 = 4;
    const ROUNDS: usize = 20_000;
    let barrier = SpinBarrier::new(THREADS as usize);
    let counts: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (barrier, counts) = (&barrier, &counts);
            scope.spawn(move || {
                let mut w = SpinWaiter::new();
                for cell in counts {
                    cell.fetch_add(1, Ordering::Relaxed);
                    barrier.wait(&mut w).unwrap();
                    assert_eq!(cell.load(Ordering::Relaxed), THREADS, "torn round");
                    barrier.wait(&mut w).unwrap();
                }
            });
        }
    });
}

/// Oversubscription: more participants than this host has cores (CI
/// runners have ≤ 16), so most waits must take the yield path — the
/// regime an over-sharded simulation puts the barrier in. The round
/// phases must still never tear.
#[test]
fn oversubscribed_rounds_never_tear() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = (cores * 4).max(8) as u64;
    const ROUNDS: usize = 2_000;
    let barrier = SpinBarrier::new(threads as usize);
    let phase = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (barrier, phase) = (&barrier, &phase);
            scope.spawn(move || {
                let mut w = SpinWaiter::new();
                for round in 1..=ROUNDS as u64 {
                    phase.fetch_add(1, Ordering::Relaxed);
                    barrier.wait(&mut w).unwrap();
                    // All arrivals of this round happened; none of the
                    // next round's can land before everyone passes the
                    // second barrier below.
                    assert_eq!(phase.load(Ordering::Relaxed), round * threads);
                    barrier.wait(&mut w).unwrap();
                }
            });
        }
    });
    assert_eq!(phase.load(Ordering::Relaxed), ROUNDS as u64 * threads);
}

/// The shard-engine topology: spawned threads plus the thread that
/// spawned them meeting at one barrier per cycle (here the spawner only
/// waits, the worst case), with one worker panicking mid-run. Everyone
/// else must unwind promptly via the poison instead of deadlocking —
/// the same path `tests/shard_panic.rs` drives through the full engine.
#[test]
fn coordinator_and_workers_unwind_on_mid_run_panic() {
    const WORKERS: usize = 4;
    const DEATH_ROUND: u64 = 137;
    let barrier = SpinBarrier::new(WORKERS + 1);
    let survivors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for id in 0..WORKERS as u64 {
            let (barrier, survivors) = (&barrier, &survivors);
            handles.push(scope.spawn(move || {
                let mut w = SpinWaiter::new();
                for round in 0..10_000u64 {
                    if id == 1 && round == DEATH_ROUND {
                        barrier.poison(); // stand-in for the panic guard
                        panic!("worker 1 dies");
                    }
                    if barrier.wait(&mut w).is_err() {
                        survivors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    assert!(round <= DEATH_ROUND, "round {round} ran past the poison");
                }
                unreachable!("the poison must end the loop early");
            }));
        }
        // Coordinator loop.
        let mut w = SpinWaiter::new();
        for _ in 0..10_000u64 {
            if barrier.wait(&mut w).is_err() {
                survivors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        let mut panics = 0;
        for h in handles {
            panics += usize::from(h.join().is_err());
        }
        assert_eq!(panics, 1, "exactly one worker must have panicked");
    });
    // Coordinator + the three surviving workers all saw the poison.
    assert_eq!(survivors.load(Ordering::Relaxed), WORKERS as u64);
}
