//! Shared harness code for the table/figure regenerators.
//!
//! Every table and figure of the paper has a binary in `src/bin` that
//! prints the corresponding rows or series:
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table1` | Router pipeline stage delays |
//! | `table3` | Allocation scheme delays |
//! | `fig7` | Single-router allocation efficiency vs radix |
//! | `fig8` | Mesh latency/throughput vs injection rate |
//! | `fig9` | Network fairness (max/min node throughput) |
//! | `fig10` | Packet chaining comparison (single-flit packets) |
//! | `fig11` | Network energy per bit |
//! | `fig12` | Virtual-input count sweep (3 topologies × 4/6 VCs) |
//! | `table4` | Application mix speedups |
//! | `fig4_fig5` | The motivating allocation scenarios, executed |
//! | `ablation_*` | Design-choice studies beyond the paper |
//! | `extension_wfvix` | OF and WF-VIX extension allocators |
//!
//! Run them with `cargo run --release -p vix-bench --bin <name>`.
//! Every simulation-driven binary accepts `--jobs <n>` (or the
//! `VIX_JOBS` environment variable) to bound its worker threads; the
//! default `0` uses all cores. Results are bit-identical for every
//! worker count — see `vix_sim::runner`.

#![warn(missing_docs)]

use vix_core::{
    AllocatorKind, NetworkConfig, RouterConfig, SimConfig, TopologyKind, VirtualInputs,
};
use vix_sim::{LoadSweep, NetworkSim, NetworkStats};

/// Default measurement windows for the network experiments: long enough
/// for stable saturation estimates, short enough to sweep many points.
pub const WARMUP: u64 = 2_000;
/// Measured cycles.
pub const MEASURE: u64 = 10_000;
/// Drain cycles.
pub const DRAIN: u64 = 3_000;

/// Runs one network configuration at one injection rate and returns its
/// measurement statistics.
///
/// # Panics
///
/// Panics if the configuration is invalid (the experiment definitions in
/// this crate are all valid by construction).
#[must_use]
pub fn run_network(
    topology: TopologyKind,
    allocator: AllocatorKind,
    router: RouterConfig,
    rate: f64,
    packet_len: usize,
    seed: u64,
) -> NetworkStats {
    let network = NetworkConfig { topology, nodes: 64, router, allocator };
    let cfg = SimConfig::new(network, rate)
        .with_packet_len(packet_len)
        .with_windows(WARMUP, MEASURE, DRAIN)
        .with_seed(seed);
    NetworkSim::build(cfg).expect("experiment configs are valid").run()
}

/// The paper's router for `topology` with `vcs` VCs and `virtual_inputs`
/// per port.
#[must_use]
pub fn router_for(topology: TopologyKind, vcs: usize, virtual_inputs: usize) -> RouterConfig {
    let vi = match virtual_inputs {
        1 => VirtualInputs::None,
        k if k == vcs => VirtualInputs::Ideal,
        k => VirtualInputs::PerPort(k),
    };
    RouterConfig::paper_default(topology.radix_64()).with_vcs(vcs).with_virtual_inputs(vi)
}

/// Worker-thread count for this invocation: the value of a `--jobs <n>`
/// (or `-j <n>`) command-line flag if present, else the `VIX_JOBS`
/// environment variable, else `0` (= all available cores). Every
/// simulation-driven figure binary routes its sweeps through this.
///
/// Unparseable values fall through to the next source rather than
/// aborting a long regeneration run.
#[must_use]
pub fn cli_jobs() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (flag, value) in args.iter().zip(args.iter().skip(1)) {
        if flag == "--jobs" || flag == "-j" {
            if let Ok(n) = value.parse() {
                return n;
            }
        }
    }
    std::env::var("VIX_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Runs one network configuration over an explicit rate grid across
/// `jobs` worker threads and returns the per-rate statistics in grid
/// order. Each point's seed derives from `(seed, rate index)` via
/// `vix_sim::runner::derive_seed`, so the returned numbers are
/// bit-identical for every `jobs` value.
///
/// # Panics
///
/// Panics if the configuration is invalid (the experiment definitions in
/// this crate are all valid by construction).
#[must_use]
pub fn sweep_network(
    topology: TopologyKind,
    allocator: AllocatorKind,
    router: RouterConfig,
    rates: &[f64],
    packet_len: usize,
    seed: u64,
    jobs: usize,
) -> Vec<NetworkStats> {
    let network = NetworkConfig { topology, nodes: 64, router, allocator };
    let base = SimConfig::new(network, 0.0)
        .with_packet_len(packet_len)
        .with_windows(WARMUP, MEASURE, DRAIN)
        .with_seed(seed);
    LoadSweep::new(base)
        .with_rates(rates)
        .with_jobs(jobs)
        .run()
        .expect("experiment configs are valid")
        .points()
        .iter()
        .map(|p| p.stats.clone())
        .collect()
}

/// Estimates saturation throughput: sweeps the injection rate upward
/// across `jobs` worker threads and returns the maximum accepted
/// throughput observed (packets/cycle/node). This is the "network
/// throughput" number quoted in §4.3/§4.6.
#[must_use]
pub fn saturation_throughput(
    topology: TopologyKind,
    allocator: AllocatorKind,
    router: RouterConfig,
    packet_len: usize,
    jobs: usize,
) -> f64 {
    let network = NetworkConfig { topology, nodes: 64, router, allocator };
    let base = SimConfig::new(network, 0.0)
        .with_packet_len(packet_len)
        .with_windows(WARMUP, MEASURE, DRAIN)
        .with_seed(0xFEED);
    LoadSweep::new(base).with_jobs(jobs).run().expect("experiment configs are valid").saturation_throughput()
}

/// Formats a relative difference as `+x.x %`.
#[must_use]
pub fn pct(new: f64, base: f64) -> String {
    format!("{:+.1}%", (new / base - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_network_produces_traffic() {
        let router = router_for(TopologyKind::Mesh, 6, 1);
        let stats = run_network(TopologyKind::Mesh, AllocatorKind::InputFirst, router, 0.02, 4, 1);
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
}
