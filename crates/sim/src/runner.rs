//! Parallel execution engine for sweeps and replication batches.
//!
//! An injection-rate sweep is embarrassingly parallel: every
//! `(rate, replication)` point is an independent simulation with its own
//! seed. This module expands a sweep into work items,
//! executes them across a scoped worker pool ([`parallel_map`], built on
//! [`std::thread::scope`] — no external dependencies), and reassembles
//! the results in deterministic order.
//!
//! # Determinism
//!
//! Each work item's RNG seed is derived with [`derive_seed`] from the
//! *position* of the item — `(base seed, rate index, replication
//! index)` — never from scheduling. Results are therefore bit-identical
//! regardless of worker count or interleaving: `jobs = 1` and
//! `jobs = 32` produce byte-for-byte the same statistics, and a crash
//! report citing a seed can be replayed serially.
//!
//! # Example
//!
//! ```
//! use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
//! use vix_sim::LoadSweep;
//!
//! let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
//! let base = SimConfig::new(net, 0.0).with_windows(200, 800, 400);
//! let serial = LoadSweep::new(base).with_rates(&[0.02, 0.05]).with_jobs(1).run()?;
//! let parallel = LoadSweep::new(base).with_rates(&[0.02, 0.05]).with_jobs(4).run()?;
//! assert_eq!(serial.points(), parallel.points()); // bit-identical
//! # Ok::<(), vix_core::ConfigError>(())
//! ```

use crate::network::NetworkSim;
use crate::sweep::SweepPoint;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use vix_core::{ConfigError, SimConfig};
use vix_traffic::TrafficPattern;

/// Resolves a `jobs` setting to a concrete worker count:
/// `0` becomes [`std::thread::available_parallelism`] (or 1 if the
/// platform cannot report it), anything else is taken as-is.
///
/// ```
/// assert!(vix_sim::runner::resolve_jobs(0) >= 1);
/// assert_eq!(vix_sim::runner::resolve_jobs(3), 3);
/// ```
#[must_use]
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    }
}

/// Derives the RNG seed for one sweep work item from the base seed and
/// the item's position.
///
/// The three inputs are combined through two rounds of
/// [`vix_rng::split_mix64`] with odd multipliers separating the index
/// axes, so adjacent points get statistically independent streams and no
/// `(rate_index, replication)` pair collides with another within a
/// sweep. The derivation is pure: it depends only on values recorded in
/// the experiment configuration, never on scheduling, which is what
/// makes parallel sweeps reproducible.
///
/// ```
/// use vix_sim::runner::derive_seed;
///
/// // Pure and collision-free across a sweep's index grid.
/// assert_eq!(derive_seed(42, 3, 1), derive_seed(42, 3, 1));
/// assert_ne!(derive_seed(42, 3, 1), derive_seed(42, 1, 3));
/// assert_ne!(derive_seed(42, 0, 0), derive_seed(43, 0, 0));
/// ```
#[must_use]
pub fn derive_seed(base_seed: u64, rate_index: usize, replication: u64) -> u64 {
    let lane = (rate_index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(replication.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    vix_rng::split_mix64(vix_rng::split_mix64(base_seed ^ lane).wrapping_add(lane))
}

/// One expanded unit of sweep work: a single simulation at one rate
/// under one replication's seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SweepJob {
    /// Index of the rate in the sweep's rate list.
    pub rate_index: usize,
    /// Replication number at this rate (0-based).
    pub replication: usize,
    /// Offered load in packets/cycle/node.
    pub rate: f64,
    /// Seed for this item, from [`derive_seed`].
    pub seed: u64,
}

/// Expands a sweep definition into its independent work items, in the
/// deterministic order results are later reported in: rates in sweep
/// order, replications within each rate.
fn expand_sweep(base_seed: u64, rates: &[f64], replications: usize) -> Vec<SweepJob> {
    let mut items = Vec::with_capacity(rates.len() * replications);
    for (rate_index, &rate) in rates.iter().enumerate() {
        for replication in 0..replications {
            items.push(SweepJob {
                rate_index,
                replication,
                rate,
                seed: derive_seed(base_seed, rate_index, replication as u64),
            });
        }
    }
    items
}

/// Applies `f` to every item of `items` across `jobs` worker threads
/// (after [`resolve_jobs`]) and returns the outputs in input order.
///
/// Workers pull items from a shared atomic cursor, so long and short
/// items balance automatically; each output lands in its input's slot,
/// so the result order — and therefore every consumer downstream — is
/// independent of scheduling. With one worker (or one item) no threads
/// are spawned at all.
///
/// This is the building block under [`LoadSweep::run`]: use it directly
/// to fan out any independent simulations, e.g. one per allocator:
///
/// ```
/// use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
/// use vix_sim::{runner::parallel_map, NetworkSim};
///
/// let allocs = [AllocatorKind::InputFirst, AllocatorKind::Vix];
/// let stats = parallel_map(0, &allocs, |_, &alloc| {
///     let net = NetworkConfig::paper_default(TopologyKind::Mesh, alloc);
///     let cfg = SimConfig::new(net, 0.02).with_windows(200, 800, 400);
///     NetworkSim::build(cfg).expect("paper defaults are valid").run()
/// });
/// assert_eq!(stats.len(), 2);
/// ```
///
/// # Panics
///
/// Propagates the first panic raised by `f` once all workers have
/// joined. A panicking worker stops; the others keep draining the
/// queue — a panic does not cancel outstanding work.
///
/// [`LoadSweep::run`]: crate::LoadSweep::run
pub fn parallel_map<I, O, F>(jobs: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let workers = resolve_jobs(jobs).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    // One slot per item; the atomic cursor hands each index to exactly
    // one worker, so the per-slot locks are never contended.
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(i, item);
                *slots[i].lock().expect("no worker panicked holding a slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("lock cannot be poisoned after scope join")
                .expect("scope joined all workers, every slot is filled")
        })
        .collect()
}

/// The `shards` setting each of `workers` concurrent sweep jobs runs
/// with. Left to itself every job would resolve `0` (auto) to the whole
/// host, `workers` times over; resolved here, once, to one job's share
/// of the `cores`, the two pools together never start more threads than
/// cores. A lone worker keeps auto (and its routers-per-shard floor, see
/// [`NetworkSim::effective_shards`]); an explicit count is the caller's.
fn shards_per_job(shards: usize, cores: usize, workers: usize) -> usize {
    if shards == 0 && workers > 1 {
        (cores / workers).max(1)
    } else {
        shards
    }
}

/// Expands and executes a full sweep — the engine behind
/// [`LoadSweep::run`]: every rate in `rates` times `replications`, each
/// under its [`derive_seed`] seed, across `jobs` workers. Points come back
/// in deterministic `(rate, replication)` order regardless of scheduling,
/// with the merged engine profile when `base.telemetry.profiling` is on:
/// every point's profiler is absorbed into one, in deterministic
/// work-item order, so the phase breakdown covers the whole sweep. `None`
/// when profiling is off.
///
/// Work items are *dispatched* longest first — descending rate, ties in
/// work-item order: a point's cost grows with its load, and a pool that
/// claims its most expensive items last idles longest at the end — and
/// scattered back to work-item order before anything reads them.
///
/// # Errors
///
/// Returns the first configuration error in work-item order (e.g. a
/// rate exceeding the flit bandwidth). The other items still execute —
/// the pool does not cancel — but their results are discarded.
///
/// [`LoadSweep::run`]: crate::LoadSweep::run
pub fn run_sweep_with_profile(
    base: SimConfig,
    pattern: &TrafficPattern,
    rates: &[f64],
    replications: usize,
    jobs: usize,
) -> Result<(Vec<SweepPoint>, Option<Box<vix_telemetry::Profiler>>), ConfigError> {
    let items = expand_sweep(base.seed, rates, replications);
    let workers = resolve_jobs(jobs).min(items.len().max(1));
    vix_telemetry::info!(
        "sweep: {} rates x {} replications across {} workers",
        rates.len(),
        replications,
        workers,
    );
    let base = SimConfig { shards: shards_per_job(base.shards, resolve_jobs(0), workers), ..base };
    let mut dispatch: Vec<usize> = (0..items.len()).collect();
    // A stable sort: equal rates stay in work-item order.
    dispatch.sort_by(|&a, &b| items[b].rate.total_cmp(&items[a].rate));
    let results = parallel_map(jobs, &dispatch, |_, &i| {
        let job = &items[i];
        vix_telemetry::debug!(
            "sweep job: rate {} replication {} seed {:#018x}",
            job.rate,
            job.replication,
            job.seed,
        );
        let cfg = SimConfig { injection_rate: job.rate, ..base }.with_seed(job.seed);
        NetworkSim::build_with_pattern(cfg, pattern.clone()).map(|sim| {
            let (stats, sink) = sim.run_with_telemetry();
            (SweepPoint { rate: job.rate, stats }, sink.into_profiler())
        })
    });
    let mut results: Vec<_> = dispatch.into_iter().zip(results).collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    let mut points = Vec::with_capacity(results.len());
    let mut profile: Option<Box<vix_telemetry::Profiler>> = None;
    for (_, result) in results {
        let (point, prof) = result?;
        points.push(point);
        if let Some(p) = prof {
            match &mut profile {
                Some(merged) => merged.absorb(*p),
                None => profile = Some(p),
            }
        }
    }
    Ok((points, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::{AllocatorKind, NetworkConfig, TopologyKind};

    fn base() -> SimConfig {
        let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::InputFirst);
        net.nodes = 16;
        SimConfig::new(net, 0.0).with_windows(100, 400, 200)
    }

    #[test]
    fn resolve_jobs_zero_is_auto() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
    }

    #[test]
    fn derived_seeds_are_unique_over_a_grid() {
        let mut seen = std::collections::HashSet::new();
        for rate_index in 0..50 {
            for rep in 0..50 {
                assert!(
                    seen.insert(derive_seed(0xC0FFEE, rate_index, rep)),
                    "seed collision at ({rate_index}, {rep})"
                );
            }
        }
    }

    #[test]
    fn derived_seeds_depend_on_every_input() {
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
        assert_ne!(derive_seed(1, 0, 0), derive_seed(1, 1, 0));
        assert_ne!(derive_seed(1, 0, 0), derive_seed(1, 0, 1));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 3, 2), "axes must not commute");
    }

    #[test]
    fn expand_orders_rate_major() {
        let items = expand_sweep(9, &[0.1, 0.2, 0.3], 2);
        let order: Vec<(usize, usize)> =
            items.iter().map(|j| (j.rate_index, j.replication)).collect();
        assert_eq!(order, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        assert_eq!(items[2].rate, 0.2);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_serial() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(1, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_map_balances_uneven_items() {
        // Fewer workers than items: the atomic cursor must hand every
        // item out exactly once.
        let items: Vec<usize> = (0..37).collect();
        let got = parallel_map(3, &items, |_, &x| x);
        assert_eq!(got, items);
    }

    /// Rate lists in ascending, descending and shuffled order: dispatch
    /// is by descending rate, results must come back in list order.
    const RATE_ORDERS: [[f64; 4]; 3] =
        [[0.02, 0.05, 0.1, 0.15], [0.15, 0.1, 0.05, 0.02], [0.05, 0.15, 0.02, 0.1]];

    #[test]
    fn expand_sweep_orders_rates_then_replications_with_own_seeds() {
        let jobs = expand_sweep(7, &[0.01, 0.02], 2);
        assert_eq!(jobs.len(), 4);
        assert_eq!((jobs[3].rate_index, jobs[3].replication), (1, 1));
        let seeds: std::collections::HashSet<u64> = jobs.iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), 4, "every item gets its own seed");
    }

    /// The points of a sweep, without its profile.
    fn run_sweep(
        base: SimConfig,
        pattern: &TrafficPattern,
        rates: &[f64],
        replications: usize,
        jobs: usize,
    ) -> Result<Vec<SweepPoint>, ConfigError> {
        run_sweep_with_profile(base, pattern, rates, replications, jobs).map(|(points, _)| points)
    }

    #[test]
    fn run_sweep_is_jobs_and_rate_order_invariant() {
        for rates in RATE_ORDERS {
            // The reference never sees the pool: one run per work item.
            let expected: Vec<SweepPoint> = expand_sweep(base().seed, &rates, 2)
                .iter()
                .map(|job| {
                    let cfg = SimConfig { injection_rate: job.rate, ..base() }.with_seed(job.seed);
                    SweepPoint { rate: job.rate, stats: NetworkSim::build(cfg).unwrap().run() }
                })
                .collect();
            for jobs in [1, 2, 4] {
                let got = run_sweep(base(), &TrafficPattern::UniformRandom, &rates, 2, jobs);
                assert_eq!(got.unwrap(), expected, "jobs={jobs}, rates {rates:?}");
            }
        }
    }

    #[test]
    fn run_sweep_reports_first_error_in_order() {
        // 0.5 and 0.6 pkt/cycle of 4-flit packets exceed the flit
        // bandwidth; whichever comes first in the list is reported, not
        // whichever was dispatched or finished first.
        for (rates, first_bad) in
            [([0.01, 0.5, 0.6], 0.5), ([0.6, 0.5, 0.01], 0.6), ([0.5, 0.01, 0.6], 0.5)]
        {
            for jobs in [1, 2, 4] {
                let err = run_sweep(base(), &TrafficPattern::UniformRandom, &rates, 1, jobs);
                assert!(
                    matches!(err, Err(ConfigError::BadInjectionRate { rate }) if rate == first_bad),
                    "jobs={jobs}, rates {rates:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn auto_shards_split_the_cores_between_sweep_workers() {
        // auto on 8 cores: alone it stays auto (the whole host); beside
        // others, a share — never zero, however large the pool.
        assert_eq!(shards_per_job(0, 8, 1), 0);
        assert_eq!(shards_per_job(0, 8, 2), 4);
        assert_eq!(shards_per_job(0, 8, 3), 2);
        assert_eq!(shards_per_job(0, 8, 8), 1);
        assert_eq!(shards_per_job(0, 2, 48), 1);
        // An explicit count is left alone.
        assert_eq!(shards_per_job(4, 8, 8), 4);
        assert_eq!(shards_per_job(1, 8, 1), 1);
    }
}
