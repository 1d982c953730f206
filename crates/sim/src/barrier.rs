//! A cache-line-padded sense-reversing spin barrier for the sharded
//! engine's cycle lockstep.
//!
//! [`std::sync::Barrier`] parks every waiter in the kernel (futex), which
//! costs a syscall pair per thread per wait — at one barrier per simulated
//! cycle that syscall traffic dominates the shard workers' wall-clock (the
//! PR 9 profiler measured ~75% of worker time in `BarrierWait` at 4 shards).
//! [`SpinBarrier`] keeps the rendezvous in user space: each arrival is one
//! atomic `fetch_add`, each wait is a bounded spin on a single cache line
//! followed by [`std::thread::yield_now`] once the spin budget is spent, so
//! oversubscribed hosts (shards > cores) degrade to cooperative scheduling
//! instead of burning a full timeslice.
//!
//! # Sense reversal
//!
//! A generation counter would need a wrap-around story; sense reversal
//! needs one bit. Every participant keeps a private sense flag
//! ([`SpinWaiter`]) that it flips on each arrival. The last arriver resets
//! the arrival counter and publishes the new global sense with `Release`;
//! everyone else spins until the global sense (`Acquire`) matches their
//! private flag. The global sense cannot flip again until every spinner of
//! the previous round has observed it — the counter can only refill to
//! `participants` after all of them arrived at the *next* barrier — so the
//! barrier is safely reusable for millions of rounds with no other state.
//!
//! # Poisoning
//!
//! A futex barrier has no failure path: if a participant dies, everyone
//! else blocks forever (the worker-panic deadlock this module was built to
//! fix). [`SpinBarrier::poison`] sets a flag that every spinner polls and
//! every arrival checks, turning a lost participant into a clean
//! [`BarrierPoisoned`] error at the next wait. Poisoning is sticky — the
//! barrier never un-poisons — which is exactly right for "a thread
//! panicked, unwind everywhere".

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Atomic spins on the arrival counter before each waiter downgrades to
/// `yield_now`. Shard barriers close in single-digit microseconds when the
/// load is balanced, so a short spin captures the common case; anything
/// longer means a straggler (or an oversubscribed host) and the CPU is
/// better handed back to the scheduler.
const SPIN_LIMIT: u32 = 256;

/// Pads (and aligns) a value to its own cache line so the arrival counter,
/// the global sense, and the poison flag never false-share. 128 bytes
/// covers the spatial-prefetcher pair on x86 and the 128-byte lines on
/// some aarch64 parts.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CacheLine<T>(T);

/// Error returned by [`SpinBarrier::wait`] after [`SpinBarrier::poison`]:
/// some participant abandoned the protocol (it panicked mid-cycle), so the
/// rendezvous will never complete and the caller should unwind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPoisoned;

impl std::fmt::Display for BarrierPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("spin barrier poisoned: a participant panicked")
    }
}

impl std::error::Error for BarrierPoisoned {}

/// One participant's private sense flag. Each thread that waits on a
/// [`SpinBarrier`] owns exactly one `SpinWaiter` and passes it to every
/// [`SpinBarrier::wait`] call; sharing one across threads (or using two on
/// one thread) breaks the sense-reversal invariant.
#[derive(Debug, Default)]
pub struct SpinWaiter {
    sense: bool,
}

impl SpinWaiter {
    /// A fresh waiter, in phase with a fresh barrier.
    #[must_use]
    pub fn new() -> Self {
        SpinWaiter::default()
    }
}

/// A reusable sense-reversing barrier that spins, then yields.
///
/// See the [module docs](self) for the protocol and the poisoning story.
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use vix_sim::barrier::{SpinBarrier, SpinWaiter};
///
/// let barrier = SpinBarrier::new(4);
/// let hits = AtomicUsize::new(0);
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| {
///             let mut w = SpinWaiter::new();
///             for round in 1..=100 {
///                 hits.fetch_add(1, Ordering::Relaxed);
///                 barrier.wait(&mut w).unwrap();
///                 // Every participant has hit `round` times by now.
///                 assert!(hits.load(Ordering::Relaxed) >= 4 * round);
///             }
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct SpinBarrier {
    participants: usize,
    arrived: CacheLine<AtomicUsize>,
    sense: CacheLine<AtomicBool>,
    poisoned: CacheLine<AtomicBool>,
}

impl SpinBarrier {
    /// A barrier for `participants` threads.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    #[must_use]
    pub fn new(participants: usize) -> Self {
        assert!(participants >= 1, "a barrier needs at least one participant");
        SpinBarrier {
            participants,
            arrived: CacheLine(AtomicUsize::new(0)),
            sense: CacheLine(AtomicBool::new(false)),
            poisoned: CacheLine(AtomicBool::new(false)),
        }
    }

    /// Number of threads that must arrive before any proceeds.
    #[must_use]
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Blocks (spinning, then yielding) until all participants have
    /// arrived, or until the barrier is poisoned.
    ///
    /// # Errors
    ///
    /// Returns [`BarrierPoisoned`] if [`SpinBarrier::poison`] was called;
    /// the rendezvous this waiter is part of may never complete, so the
    /// caller must stop waiting and unwind.
    pub fn wait(&self, w: &mut SpinWaiter) -> Result<(), BarrierPoisoned> {
        let sense = !w.sense;
        w.sense = sense;
        if self.arrived.0.fetch_add(1, Ordering::AcqRel) + 1 == self.participants {
            // Last arriver: reset the counter *before* publishing the new
            // sense. The Release store orders the reset ahead of every
            // spinner's Acquire load, and nobody can re-arrive (and
            // re-increment) until they have observed the flip.
            self.arrived.0.store(0, Ordering::Relaxed);
            self.sense.0.store(sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.0.load(Ordering::Acquire) != sense {
                if self.poisoned.0.load(Ordering::Relaxed) {
                    return Err(BarrierPoisoned);
                }
                if spins < SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        if self.poisoned.0.load(Ordering::Relaxed) {
            return Err(BarrierPoisoned);
        }
        Ok(())
    }

    /// Marks the barrier dead: every current and future [`SpinBarrier::wait`]
    /// returns [`BarrierPoisoned`] (current spinners notice within one poll
    /// iteration). Sticky; called from panic guards.
    pub fn poison(&self) {
        self.poisoned.0.store(true, Ordering::Release);
    }

    /// Whether [`SpinBarrier::poison`] has been called.
    #[cfg(test)]
    fn is_poisoned(&self) -> bool {
        self.poisoned.0.load(Ordering::Relaxed)
    }
}

/// Poisons `barrier` if the holding thread unwinds while this guard is
/// live; disarmed on orderly return by being dropped without a panic in
/// flight. Each sharded-run participant (the calling thread and every
/// spawned shard) holds one so that any panic releases everyone else from
/// the rendezvous.
#[derive(Debug)]
pub(crate) struct PoisonOnPanic<'a>(pub(crate) &'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_participant_never_blocks() {
        let barrier = SpinBarrier::new(1);
        let mut w = SpinWaiter::new();
        for _ in 0..1000 {
            barrier.wait(&mut w).unwrap();
        }
    }

    /// Sense reversal must survive tens of thousands of reuses: each round
    /// every thread adds its id to a per-round cell, and after the barrier
    /// the cell must hold the full sum — a torn round (some thread still in
    /// round `k` while others run `k + 1`) would read a partial sum.
    #[test]
    fn lockstep_holds_across_ten_thousand_rounds() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 10_000;
        let barrier = SpinBarrier::new(THREADS);
        let cells: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
        let expect: u64 = (1..=THREADS as u64).sum();
        std::thread::scope(|scope| {
            for id in 1..=THREADS as u64 {
                let (barrier, cells) = (&barrier, &cells);
                scope.spawn(move || {
                    let mut w = SpinWaiter::new();
                    for cell in cells {
                        cell.fetch_add(id, Ordering::Relaxed);
                        barrier.wait(&mut w).unwrap();
                        assert_eq!(cell.load(Ordering::Relaxed), expect);
                        barrier.wait(&mut w).unwrap();
                    }
                });
            }
        });
    }

    /// Oversubscription: far more participants than this host has cores,
    /// forcing the yield path. The barrier must still close every round.
    #[test]
    fn oversubscribed_threads_fall_back_to_yield() {
        const THREADS: usize = 16;
        const ROUNDS: usize = 200;
        let barrier = SpinBarrier::new(THREADS);
        let round_sum = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let (barrier, round_sum) = (&barrier, &round_sum);
                scope.spawn(move || {
                    let mut w = SpinWaiter::new();
                    for round in 1..=ROUNDS as u64 {
                        round_sum.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(&mut w).unwrap();
                        assert!(round_sum.load(Ordering::Relaxed) >= round * THREADS as u64);
                        barrier.wait(&mut w).unwrap();
                    }
                });
            }
        });
        assert_eq!(round_sum.load(Ordering::Relaxed), (ROUNDS * THREADS) as u64);
    }

    /// A poisoned barrier releases spinners with an error instead of
    /// hanging them — the deadlock fix the sharded engine relies on.
    #[test]
    fn poison_releases_spinners() {
        let barrier = SpinBarrier::new(3);
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut w = SpinWaiter::new();
                        barrier.wait(&mut w)
                    })
                })
                .collect();
            // The third participant never arrives; it "panics" instead.
            barrier.poison();
            for h in waiters {
                assert_eq!(h.join().unwrap(), Err(BarrierPoisoned));
            }
        });
        assert!(barrier.is_poisoned());
        // Sticky: later waits fail immediately, even as last arriver.
        let mut w = SpinWaiter::new();
        assert_eq!(SpinBarrier::new(1).wait(&mut w), Ok(()));
        assert_eq!(barrier.wait(&mut w), Err(BarrierPoisoned));
    }

    #[test]
    fn panic_guard_poisons_only_on_unwind() {
        let barrier = SpinBarrier::new(2);
        {
            let _guard = PoisonOnPanic(&barrier);
        }
        assert!(!barrier.is_poisoned());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = PoisonOnPanic(&barrier);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert!(barrier.is_poisoned());
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = SpinBarrier::new(0);
    }
}
