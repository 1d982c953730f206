//! Ablation (§2.3): dimension-aware VC sub-group assignment with load
//! balancing vs plain max-credits assignment, for the 1:2 VIX mesh —
//! under uniform random and adversarial (transpose) traffic.
//!
//! Accepts `--jobs <n>` (default: all cores); each saturation estimate
//! sweeps ten rates across the worker pool.

use vix_bench::{cli_jobs, pct, router_for, DRAIN, MEASURE, WARMUP};
use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
use vix_sim::LoadSweep;
use vix_traffic::TrafficPattern;

fn sat(dimension_aware: bool, pattern: TrafficPattern, jobs: usize) -> f64 {
    let router = router_for(TopologyKind::Mesh, 6, 2).with_dimension_aware_va(dimension_aware);
    let network = NetworkConfig {
        topology: TopologyKind::Mesh,
        nodes: 64,
        router,
        allocator: AllocatorKind::Vix,
    };
    let base = SimConfig::new(network, 0.0)
        .with_windows(WARMUP, MEASURE, DRAIN)
        .with_seed(7);
    LoadSweep::new(base)
        .with_pattern(pattern)
        .with_jobs(jobs)
        .run()
        .expect("valid")
        .saturation_throughput()
}

fn main() {
    let jobs = cli_jobs();
    println!("Ablation: VIX VC assignment policy (1:2 VIX, 8x8 mesh, saturation throughput)");
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose, TrafficPattern::BitComplement] {
        let plain = sat(false, pattern.clone(), jobs);
        let dim = sat(true, pattern.clone(), jobs);
        println!(
            "  {:<10} max-credits {:.4}  dimension-aware {:.4}  ({})",
            pattern.label(),
            plain,
            dim,
            pct(dim, plain)
        );
    }
    println!();
    println!("the paper (§2.3) argues dimension-aware assignment helps most on adversarial patterns.");
}
