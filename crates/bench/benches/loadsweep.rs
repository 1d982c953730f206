//! Load-sweep benchmark for the activity-gated scheduler: steady-state
//! simulator cycles per second at 5%, 30%, and 95% of saturation load on
//! an 8×8 mesh, gated vs ungated, for the IF and VIX allocators. Written
//! to `BENCH_loadsweep.json` at the workspace root.
//!
//! Run with `cargo bench -p vix-bench --bench loadsweep`; pass `--smoke`
//! for a quick CI-sized run (one sample, fewer cycles, speedups printed
//! but not enforced).
//!
//! Load points are percentages of each allocator's *measured* saturation
//! throughput (the accepted-throughput plateau of a long run at offered
//! load past saturation), following the paper's methodology — not the
//! theoretical 0.125 pkt/node/cycle bisection limit, which neither
//! allocator reaches. At 5% load most routers are quiescent most cycles —
//! the regime activity gating targets (≥3× cycles/sec); at 95% nearly
//! every router is busy every cycle, so gating must cost nothing (≤2%
//! regression).

use std::time::Instant;
use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TopologyKind};
use vix_sim::NetworkSim;
use vix_telemetry::json;

/// 8×8 mesh.
const NODES: usize = 64;

/// Measured saturation throughput (accepted packets/node/cycle plateau)
/// of the 8×8 mesh under the paper's uniform 4-flit traffic.
fn saturation(kind: AllocatorKind) -> f64 {
    match kind {
        AllocatorKind::Vix => 0.1175,
        _ => 0.100,
    }
}
/// Fractions of saturation swept.
const LOAD_POINTS: [(&str, f64); 3] = [("5%", 0.05), ("30%", 0.30), ("95%", 0.95)];

struct BenchParams {
    warmup_cycles: u64,
    measured_cycles: u64,
    samples: usize,
}

const FULL: BenchParams = BenchParams { warmup_cycles: 300, measured_cycles: 2_000, samples: 5 };
const SMOKE: BenchParams = BenchParams { warmup_cycles: 100, measured_cycles: 300, samples: 1 };

struct SweepResult {
    allocator: &'static str,
    load_label: &'static str,
    rate: f64,
    gated_cps: f64,
    ungated_cps: f64,
    speedup: f64,
}

/// Median ns/cycle over `samples` steady-state runs of one configuration.
fn measure(kind: AllocatorKind, rate: f64, gating: bool, p: &BenchParams) -> f64 {
    let mut per_cycle_ns: Vec<f64> = (0..p.samples)
        .map(|_| {
            let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
            net.nodes = NODES;
            // Whole measurement inside the sim's warmup window: the bench
            // times the cycle loop, not the statistics pipeline.
            let cfg = SimConfig::new(net, rate)
                .with_windows(p.warmup_cycles + p.measured_cycles + 1, 1, 1);
            let built = if gating {
                NetworkSim::build(cfg)
            } else {
                NetworkSim::build_ungated_reference(cfg)
            };
            let mut sim = built.expect("valid config");
            for _ in 0..p.warmup_cycles {
                sim.step();
            }
            let start = Instant::now();
            for _ in 0..p.measured_cycles {
                sim.step();
            }
            let elapsed = start.elapsed();
            std::hint::black_box(&sim);
            elapsed.as_nanos() as f64 / p.measured_cycles as f64
        })
        .collect();
    per_cycle_ns.sort_by(|a, b| a.total_cmp(b));
    per_cycle_ns[p.samples / 2]
}

/// Reads `(allocator, load) -> gated_cycles_per_sec` rows out of the
/// checked-in `BENCH_loadsweep.json`.
fn read_recorded(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{path}: missing results array"))?;
    rows.iter()
        .map(|v| {
            let allocator = v
                .get("allocator")
                .and_then(|s| s.as_str())
                .ok_or_else(|| format!("{path}: row without allocator"))?;
            let load = v
                .get("load")
                .and_then(|s| s.as_str())
                .ok_or_else(|| format!("{path}: row without load"))?;
            let cps = v
                .get("gated_cycles_per_sec")
                .and_then(|n| n.as_f64())
                .ok_or_else(|| format!("{path}: row without gated_cycles_per_sec"))?;
            Ok((allocator.to_string(), load.to_string(), cps))
        })
        .collect()
}

/// One-line speedup summary of this run's gated rates against the
/// checked-in `BENCH_loadsweep.json`, if present — printed before the
/// file is overwritten so the trajectory is visible in the bench log.
fn print_baseline_delta(results: &[SweepResult], path: &str) {
    let Ok(recorded) = read_recorded(path) else {
        return;
    };
    let mut deltas = Vec::new();
    for r in results {
        if let Some((_, _, base)) =
            recorded.iter().find(|(a, l, _)| a == r.allocator && l == r.load_label)
        {
            deltas.push(format!("{}@{} {:.2}x", r.allocator, r.load_label, r.gated_cps / base));
        }
    }
    if !deltas.is_empty() {
        println!("loadsweep gated vs recorded: {}", deltas.join("  "));
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let p = if smoke { &SMOKE } else { &FULL };

    println!(
        "loadsweep ({}×{} mesh, measured saturation, {} cycles/sample{}):",
        8,
        8,
        p.measured_cycles,
        if smoke { ", smoke mode" } else { "" }
    );

    let mut results: Vec<SweepResult> = Vec::new();
    for kind in [AllocatorKind::InputFirst, AllocatorKind::Vix] {
        for &(load_label, fraction) in &LOAD_POINTS {
            let rate = saturation(kind) * fraction;
            let gated_ns = measure(kind, rate, true, p);
            let ungated_ns = measure(kind, rate, false, p);
            let r = SweepResult {
                allocator: kind.label(),
                load_label,
                rate,
                gated_cps: 1e9 / gated_ns,
                ungated_cps: 1e9 / ungated_ns,
                speedup: ungated_ns / gated_ns,
            };
            println!(
                "{:<4} load={:<4} rate={:.5}  gated {:>11.0} c/s  ungated {:>11.0} c/s  speedup {:.2}x",
                r.allocator, r.load_label, r.rate, r.gated_cps, r.ungated_cps, r.speedup
            );
            results.push(r);
        }
    }

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_loadsweep.json");
    print_baseline_delta(&results, &path);

    if smoke {
        // CI smoke: correctness of the harness, not the perf targets —
        // shared runners are too noisy to gate on speedups.
        assert!(
            results.iter().all(|r| r.gated_cps > 0.0 && r.ungated_cps > 0.0),
            "benchmark produced a non-positive rate"
        );
        vix_telemetry::info!("smoke mode: skipping BENCH_loadsweep.json");
        return;
    }

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"loadsweep\",\n");
    json.push_str(&format!("  \"mesh_nodes\": {NODES},\n"));
    json.push_str(&format!(
        "  \"saturation_rate\": {{\"IF\": {}, \"VIX\": {}}},\n",
        saturation(AllocatorKind::InputFirst),
        saturation(AllocatorKind::Vix)
    ));
    json.push_str(&format!("  \"warmup_cycles\": {},\n", p.warmup_cycles));
    json.push_str(&format!("  \"measured_cycles\": {},\n", p.measured_cycles));
    json.push_str(&format!("  \"samples\": {},\n", p.samples));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"allocator\": \"{}\", \"load\": \"{}\", \"rate\": {:.5}, \
             \"gated_cycles_per_sec\": {:.1}, \"ungated_cycles_per_sec\": {:.1}, \
             \"speedup\": {:.3}}}{}\n",
            r.allocator,
            r.load_label,
            r.rate,
            r.gated_cps,
            r.ungated_cps,
            r.speedup,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&path, &json).expect("write BENCH_loadsweep.json");
    vix_telemetry::info!("wrote {path}");
}
