//! Regenerates every table and figure of the paper, plus the ablations
//! and extensions beyond it, through one driver:
//!
//! ```sh
//! cargo run --release -p vix-bench --bin paper -- all
//! cargo run --release -p vix-bench --bin paper -- fig8 fig12 --jobs 4
//! ```
//!
//! [`FIGURES`] is the single list of what `paper` can print: each entry's
//! name, one-line description and the function that prints it. `paper`
//! with no argument lists them; `all` runs them in that order.
//!
//! The figures share one [`Paper`]: the worker count for their
//! independent simulations (`--jobs <n>`, default `0` = all cores) and the
//! saturation searches already run, so a ladder two figures ask for is
//! simulated once. Results are bit-identical for every worker count — see
//! `vix_sim::runner`.

#![warn(missing_docs)]

mod figures;

use vix_core::{
    AllocatorKind, NetworkConfig, RouterConfig, SimConfig, TopologyKind, VirtualInputs,
};
use vix_sim::{LoadSweep, NetworkSim, NetworkStats};
use vix_traffic::TrafficPattern;

/// Default measurement windows for the network experiments: long enough
/// for stable saturation estimates, short enough to sweep many points.
const WARMUP: u64 = 2_000;
/// Measured cycles.
const MEASURE: u64 = 10_000;
/// Drain cycles.
const DRAIN: u64 = 3_000;

/// A table or figure: its name, a one-line description, and the function
/// that prints it.
pub type Figure = (&'static str, &'static str, fn(&mut Paper));

/// Every table and figure `paper` regenerates, in the order `paper all`
/// prints them.
pub const FIGURES: [Figure; 17] = [
    ("table1", "Router pipeline stage delays", figures::table1),
    ("table3", "Allocation scheme delays", figures::table3),
    ("fig4_fig5", "The motivating allocation scenarios, executed", figures::fig4_fig5),
    ("fig7", "Single-router allocation efficiency vs radix", figures::fig7),
    ("fig8", "Mesh latency/throughput vs injection rate", figures::fig8),
    ("fig9", "Network fairness (max/min node throughput)", figures::fig9),
    ("fig10", "Packet chaining comparison (single-flit packets)", figures::fig10),
    ("fig11", "Network energy per bit", figures::fig11),
    ("fig12", "Virtual-input count sweep (3 topologies x 4/6 VCs)", figures::fig12),
    ("table4", "Application mix speedups on the 64-core CMP", figures::table4),
    ("ablation_vc_assign", "Dimension-aware vs max-credits VC assignment", figures::ablation_vc_assign),
    ("ablation_spec", "Speculative vs non-speculative SA", figures::ablation_spec),
    ("ablation_arbiter", "Arbiter circuit inside the separable allocators", figures::ablation_arbiter),
    ("ablation_virtual_inputs", "Virtual inputs per port k in {1, 2, 3, 6}", figures::ablation_virtual_inputs),
    ("ablation_priority", "Oldest-first SA priority (SPAROFLO-style)", figures::ablation_priority),
    ("ablation_pipeline", "Five-stage vs three-stage router pipeline", figures::ablation_pipeline),
    ("extension_wfvix", "OF and WF-VIX extension allocators", figures::extension_wfvix),
];

/// One network experiment point: `topology` with 64 nodes, `router` and
/// `allocator`, the [`WARMUP`]/[`MEASURE`]/[`DRAIN`] windows, and the
/// defaults of [`SimConfig::new`] (4-flit packets) for everything else.
/// Callers set the seed, and the rate where they run a single point.
#[must_use]
pub(crate) fn network(topology: TopologyKind, allocator: AllocatorKind, router: RouterConfig) -> SimConfig {
    let network = NetworkConfig { topology, nodes: 64, router, allocator };
    SimConfig::new(network, 0.0).with_windows(WARMUP, MEASURE, DRAIN)
}

/// Runs `cfg` at `rate` packets/cycle/node and returns its measurement
/// statistics.
///
/// # Panics
///
/// Panics if the configuration is invalid (the experiment definitions in
/// this crate are all valid by construction).
#[must_use]
pub(crate) fn run(cfg: SimConfig, rate: f64) -> NetworkStats {
    let cfg = SimConfig { injection_rate: rate, ..cfg };
    NetworkSim::build(cfg).expect("experiment configs are valid").run()
}

/// The paper's router for `topology` with `vcs` VCs and `virtual_inputs`
/// per port.
#[must_use]
pub(crate) fn router_for(topology: TopologyKind, vcs: usize, virtual_inputs: usize) -> RouterConfig {
    let vi = match virtual_inputs {
        1 => VirtualInputs::None,
        k if k == vcs => VirtualInputs::Ideal,
        k => VirtualInputs::PerPort(k),
    };
    RouterConfig::paper_default(topology.radix_64()).with_vcs(vcs).with_virtual_inputs(vi)
}

/// What the figures of one `paper` run share: the worker count, and the
/// saturation searches already run.
#[derive(Debug)]
pub struct Paper {
    /// Worker threads for a figure's independent simulations (`0` = all
    /// available cores). Results are identical for every value.
    pub(crate) jobs: usize,
    /// Every distinct saturation request so far, with its answer.
    saturations: Vec<(SimConfig, TrafficPattern, f64)>,
    /// Saturation requests so far, repeats included.
    requested: usize,
}

impl Paper {
    /// A run with `jobs` worker threads and no saturation search done yet.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Paper { jobs, saturations: Vec::new(), requested: 0 }
    }

    /// Runs `cfg` over an explicit rate grid across [`Paper::jobs`]
    /// workers and returns the per-rate statistics in grid order. Each
    /// point's seed derives from `(cfg.seed, rate index)` via
    /// `vix_sim::runner::derive_seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub(crate) fn sweep(&self, cfg: SimConfig, rates: &[f64]) -> Vec<NetworkStats> {
        LoadSweep::new(cfg)
            .with_rates(rates)
            .with_jobs(self.jobs)
            .run()
            .expect("experiment configs are valid")
            .points()
            .iter()
            .map(|p| p.stats.clone())
            .collect()
    }

    /// Estimates saturation throughput: sweeps `cfg` under `pattern`
    /// across the default ten-rate ladder and returns the maximum accepted
    /// throughput observed (packets/cycle/node). This is the "network
    /// throughput" number quoted in §4.3/§4.6.
    ///
    /// The answer is remembered for the whole request, config and pattern
    /// alike. A repeat returns it without simulating: the same config and
    /// seed always give the same statistics (`tests/determinism.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub(crate) fn saturation(&mut self, cfg: SimConfig, pattern: TrafficPattern) -> f64 {
        self.requested += 1;
        if let Some(&(.., thr)) = self.saturations.iter().find(|(c, p, _)| *c == cfg && *p == pattern) {
            return thr;
        }
        let thr = LoadSweep::new(cfg)
            .with_pattern(pattern.clone())
            .with_jobs(self.jobs)
            .run()
            .expect("experiment configs are valid")
            .saturation_throughput();
        self.saturations.push((cfg, pattern, thr));
        thr
    }

    /// Saturation searches `(requested, simulated)` so far: every one the
    /// figures asked for, and the distinct ones among them.
    #[must_use]
    pub fn saturation_counts(&self) -> (usize, usize) {
        (self.requested, self.saturations.len())
    }
}

/// Formats a relative difference as `+x.x %`.
#[must_use]
pub(crate) fn pct(new: f64, base: f64) -> String {
    format!("{:+.1}%", (new / base - 1.0) * 100.0)
}

/// Cycles of the calibration matcher per [`anchor_ns`] (~0.4 ms).
const ANCHOR_CYCLES: usize = 20_000;

/// Nanoseconds per cycle of a frozen calibration kernel that runs no
/// simulator code: the unit of the `alloc_kernels` and `hotpath` perf
/// guards, which time it before each sample and record a row as its time
/// over the anchor's, so a host's slow phase slows both sides alike.
///
/// The kernel, a round-robin matcher (8 inputs, 16 outputs) replaying 64
/// fixed request rows, slowed most like the allocator kernels when a busy
/// neighbour shared the host (1.5x against their 1.8x; a register-only
/// xorshift loop 1.0-1.3x). It must never change: every recorded ratio is
/// relative to it.
#[inline(never)]
#[must_use]
pub fn anchor_ns() -> f64 {
    const INPUTS: usize = 8;
    const ROWS: usize = 64;
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut draw = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let trace: Vec<u64> = (0..ROWS * INPUTS).map(|_| draw() & draw() & 0xFFFF).collect();
    let (mut in_ptr, mut out_owner, mut grants) = ([0u32; INPUTS], [0usize; 16], 0u64);
    let start = std::time::Instant::now();
    for cycle in 0..ANCHOR_CYCLES {
        let row = &trace[(std::hint::black_box(cycle) % ROWS) * INPUTS..][..INPUTS];
        let mut taken = 0u64;
        for (input, &wants) in row.iter().enumerate() {
            let free = wants & !taken;
            if free == 0 {
                continue;
            }
            let upper = free & (!0 << in_ptr[input]);
            let out = (if upper != 0 { upper } else { free }).trailing_zeros() as usize;
            if out_owner[out] > input {
                out_owner[out] = 0;
                continue;
            }
            taken |= 1 << out;
            in_ptr[input] = (out as u32 + 1) & 15;
            out_owner[out] = input + 1;
            grants += 1;
        }
    }
    let elapsed = start.elapsed();
    std::hint::black_box((grants, in_ptr, out_owner));
    elapsed.as_nanos() as f64 / ANCHOR_CYCLES as f64
}

/// The host a recording was taken on: CPU model and available cores.
#[must_use]
pub fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown CPU", str::trim);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    format!("{model}, {cores} cores")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_traffic() {
        let cfg = network(TopologyKind::Mesh, AllocatorKind::InputFirst, router_for(TopologyKind::Mesh, 6, 1));
        let stats = run(cfg.with_seed(1), 0.02);
        assert!(stats.packets_ejected() > 0);
    }

    #[test]
    fn router_for_shapes() {
        assert_eq!(router_for(TopologyKind::Mesh, 6, 1).virtual_inputs_per_port(), 1);
        assert_eq!(router_for(TopologyKind::Mesh, 6, 2).virtual_inputs_per_port(), 2);
        assert_eq!(router_for(TopologyKind::CMesh, 4, 4).virtual_inputs_per_port(), 4);
        assert_eq!(router_for(TopologyKind::FlattenedButterfly, 6, 1).ports(), 10);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.16, 1.0), "+16.0%");
        assert_eq!(pct(0.9, 1.0), "-10.0%");
    }

    /// A saturation request with windows short enough for a unit test.
    fn tiny() -> SimConfig {
        let router = router_for(TopologyKind::Mesh, 6, 2);
        network(TopologyKind::Mesh, AllocatorKind::Vix, router).with_windows(50, 200, 100).with_seed(3)
    }

    #[test]
    fn identical_saturation_requests_simulate_once() {
        let mut paper = Paper::new(2);
        let first = paper.saturation(tiny(), TrafficPattern::UniformRandom);
        let again = paper.saturation(tiny(), TrafficPattern::UniformRandom);
        assert!(first > 0.0);
        assert_eq!(first.to_bits(), again.to_bits());
        assert_eq!(paper.saturation_counts(), (2, 1));
    }

    #[test]
    fn saturation_requests_differing_in_seed_length_or_pattern_are_separate() {
        let mut paper = Paper::new(2);
        for cfg in [tiny(), tiny().with_seed(4), tiny().with_packet_len(1)] {
            paper.saturation(cfg, TrafficPattern::UniformRandom);
        }
        paper.saturation(tiny(), TrafficPattern::Transpose);
        assert_eq!(paper.saturation_counts(), (4, 4));
    }

    #[test]
    fn experiments_md_has_a_section_for_every_figure() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        for (name, ..) in FIGURES {
            assert!(doc.contains(&format!("`{name}`")), "EXPERIMENTS.md never names {name}");
        }
    }
}
