//! Injection-rate sweeps and saturation-point estimation.
//!
//! The paper's network-level figures are latency/throughput curves over
//! offered load (Fig. 8) and saturation-throughput bars (Figs. 10, 12).
//! This module packages that methodology: build a [`LoadSweep`], run it,
//! and read the curve or its saturation summary.

use crate::runner;
use crate::stats::NetworkStats;
use vix_core::{ConfigError, SimConfig};
use vix_traffic::TrafficPattern;

/// One point of a load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered load in packets/cycle/node.
    pub rate: f64,
    /// Full measurement statistics at this rate.
    pub stats: NetworkStats,
}

/// An injection-rate sweep over one network configuration.
///
/// # Example
///
/// ```
/// use vix_sim::LoadSweep;
/// use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
///
/// let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
/// let base = SimConfig::new(net, 0.0).with_windows(200, 800, 400);
/// let sweep = LoadSweep::new(base).with_rates(&[0.01, 0.02]).run()?;
/// assert_eq!(sweep.len(), 2);
/// assert!(sweep.saturation_throughput() > 0.0);
/// # Ok::<(), vix_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LoadSweep {
    base: SimConfig,
    pattern: TrafficPattern,
    rates: Vec<f64>,
    replications: usize,
    jobs: usize,
    points: Vec<SweepPoint>,
    profile: Option<Box<vix_telemetry::Profiler>>,
}

impl LoadSweep {
    /// Creates a sweep from a base configuration (its `injection_rate` is
    /// overridden point by point) with uniform-random traffic and ten
    /// evenly-spaced rates up to the flit-bandwidth limit, run on one
    /// worker unless [`LoadSweep::with_jobs`] says otherwise.
    #[must_use]
    pub fn new(base: SimConfig) -> Self {
        let max = 1.0 / base.packet_len as f64;
        let rates = (1..=10).map(|i| max * i as f64 / 10.0).collect();
        LoadSweep {
            base,
            pattern: TrafficPattern::UniformRandom,
            rates,
            replications: 1,
            jobs: 1,
            points: Vec::new(),
            profile: None,
        }
    }

    /// Overrides the swept rates (packets/cycle/node, ascending).
    #[must_use]
    pub fn with_rates(mut self, rates: &[f64]) -> Self {
        self.rates = rates.to_vec();
        self
    }

    /// Overrides the traffic pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Runs each rate `n` times under different seeds and keeps every
    /// replication as its own point (same `rate`, different stats) —
    /// the raw data for error bars.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_replications(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one replication per point");
        self.replications = n;
        self
    }

    /// Sets the worker-thread count used by [`LoadSweep::run`]: `0` uses
    /// all available parallelism, `1` (the default) runs serially. Results
    /// are bit-identical for every value — see [`runner`].
    ///
    /// ```
    /// use vix_sim::LoadSweep;
    /// use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
    ///
    /// let net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    /// let base = SimConfig::new(net, 0.0).with_windows(200, 800, 400);
    /// let sweep = LoadSweep::new(base).with_rates(&[0.01, 0.02]).with_jobs(0).run()?;
    /// assert_eq!(sweep.len(), 2);
    /// # Ok::<(), vix_core::ConfigError>(())
    /// ```
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Runs every point across the configured worker pool (see
    /// [`LoadSweep::with_jobs`]). Each point derives its seed from the
    /// base seed and its `(rate, replication)` index via
    /// [`runner::derive_seed`], so sweeps are reproducible — and
    /// bit-identical for every worker count — while points stay
    /// statistically independent.
    ///
    /// # Errors
    ///
    /// Returns the first configuration error encountered (e.g. a rate
    /// exceeding the flit bandwidth).
    pub fn run(mut self) -> Result<LoadSweep, ConfigError> {
        let (points, profile) = runner::run_sweep_with_profile(
            self.base,
            &self.pattern,
            &self.rates,
            self.replications,
            self.jobs,
        )?;
        self.points = points;
        self.profile = profile;
        Ok(self)
    }

    /// Writes the sweep as CSV (`rate,accepted_pkt_node_cycle,avg_latency,
    /// p50,p99,fairness`) for external plotting.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "rate,accepted_pkt_node_cycle,avg_latency,p50_latency,p99_latency,fairness")?;
        for p in &self.points {
            writeln!(
                writer,
                "{},{},{},{},{},{}",
                p.rate,
                p.stats.accepted_packets_per_node_cycle(),
                p.stats.avg_packet_latency(),
                p.stats.median_packet_latency().unwrap_or(0),
                p.stats.p99_packet_latency().unwrap_or(0),
                p.stats.fairness_ratio()
            )?;
        }
        Ok(())
    }

    /// Points measured so far (empty before [`LoadSweep::run`]).
    #[must_use]
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The engine profile merged across every point's simulation, when
    /// the base configuration enabled
    /// [`TelemetrySettings::profiling`](vix_core::TelemetrySettings) —
    /// its [`breakdown`](vix_telemetry::Profiler::breakdown) shows where
    /// the whole sweep spent its time. `None` when profiling is off or
    /// the sweep has not run.
    #[must_use]
    pub fn profile(&self) -> Option<&vix_telemetry::Profiler> {
        self.profile.as_deref()
    }

    /// Number of measured points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True before the sweep has run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Saturation throughput: the maximum accepted packets/cycle/node over
    /// the sweep (the number quoted in §4.3/§4.6 of the paper).
    #[must_use]
    pub fn saturation_throughput(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.stats.accepted_packets_per_node_cycle())
            .fold(0.0, f64::max)
    }

    /// The lowest offered rate at which accepted throughput falls more
    /// than `tolerance` (fractional) below offered — the latency knee.
    /// `None` if the network keeps up everywhere.
    #[must_use]
    pub fn saturation_rate(&self, tolerance: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| {
                let offered = p.stats.offered_packets_per_node_cycle();
                offered > 0.0
                    && p.stats.accepted_packets_per_node_cycle() < offered * (1.0 - tolerance)
            })
            .map(|p| p.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vix_core::{AllocatorKind, NetworkConfig, TopologyKind};

    fn base(alloc: AllocatorKind) -> SimConfig {
        let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, alloc);
        net.nodes = 16;
        SimConfig::new(net, 0.0).with_windows(200, 800, 400)
    }

    #[test]
    fn sweep_runs_all_points() {
        let sweep = LoadSweep::new(base(AllocatorKind::InputFirst))
            .with_rates(&[0.01, 0.05, 0.15])
            .run()
            .unwrap();
        assert_eq!(sweep.len(), 3);
        assert!(!sweep.is_empty());
        assert_eq!(sweep.points()[0].rate, 0.01);
        assert!(sweep.points()[0].stats.packets_ejected() > 0);
    }

    #[test]
    fn throughput_saturates_and_knee_found() {
        let sweep = LoadSweep::new(base(AllocatorKind::InputFirst))
            .with_rates(&[0.02, 0.10, 0.2, 0.25])
            .run()
            .unwrap();
        let sat = sweep.saturation_throughput();
        assert!(sat > 0.05, "saturation {sat}");
        assert!(
            sweep.saturation_rate(0.1).is_some(),
            "a 4x4 mesh cannot keep up with 0.25 pkt/node/cycle of 4-flit packets"
        );
    }

    #[test]
    fn no_knee_at_trivial_load() {
        let sweep = LoadSweep::new(base(AllocatorKind::InputFirst))
            .with_rates(&[0.005, 0.01])
            .run()
            .unwrap();
        assert_eq!(sweep.saturation_rate(0.1), None);
    }

    #[test]
    fn default_rates_cover_the_bandwidth_range() {
        let sweep = LoadSweep::new(base(AllocatorKind::Vix));
        assert_eq!(sweep.rates.len(), 10);
        let max = sweep.rates.last().copied().unwrap();
        assert!((max - 0.25).abs() < 1e-12, "4-flit packets cap at 0.25 pkt/node/cycle");
    }

    #[test]
    fn replications_multiply_points() {
        let sweep = LoadSweep::new(base(AllocatorKind::InputFirst))
            .with_rates(&[0.02, 0.05])
            .with_replications(3)
            .run()
            .unwrap();
        assert_eq!(sweep.len(), 6);
        for (rate, points) in [0.02, 0.05].into_iter().zip(sweep.points().chunks(3)) {
            assert!(points.iter().all(|p| p.rate == rate), "replications sit together in rate order");
            assert!(points.iter().all(|p| p.stats.packets_ejected() > 0), "rate {rate} moved nothing");
            assert_ne!(points[0].stats, points[1].stats, "rate {rate}: each replication has its own seed");
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        let go = |jobs| {
            LoadSweep::new(base(AllocatorKind::Vix))
                .with_rates(&[0.02, 0.05, 0.1])
                .with_replications(2)
                .with_jobs(jobs)
                .run()
                .unwrap()
        };
        let serial = go(1);
        for jobs in [2, 4, 0] {
            assert_eq!(serial.points(), go(jobs).points(), "jobs={jobs} diverged");
        }
    }

    #[test]
    fn jobs_default_to_one_worker() {
        let sweep = LoadSweep::new(base(AllocatorKind::Vix));
        assert_eq!(sweep.jobs, 1, "library default must stay serial");
        assert_eq!(sweep.with_jobs(3).jobs, 3);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let sweep = LoadSweep::new(base(AllocatorKind::InputFirst))
            .with_rates(&[0.02])
            .run()
            .unwrap();
        let mut buf = Vec::new();
        sweep.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("rate,accepted"));
        assert!(lines[1].starts_with("0.02,"));
    }

    #[test]
    fn patterns_are_respected() {
        let sweep = LoadSweep::new(base(AllocatorKind::InputFirst))
            .with_pattern(TrafficPattern::Transpose)
            .with_rates(&[0.02])
            .run()
            .unwrap();
        assert!(sweep.points()[0].stats.packets_ejected() > 0);
    }
}
