//! Hot-path benchmark: steady-state simulator cycles per second, written
//! to `BENCH_hotpath.json` at the workspace root so successive PRs have a
//! machine-readable perf trajectory to compare against.
//!
//! Run with `cargo bench -p vix-bench --bench hotpath`. With `--check`
//! the fresh run is compared against the checked-in JSON instead (any
//! row more than 25 % slower than its recorded figure fails the run,
//! after one noise retry) — `scripts/verify.sh` and CI run it.
//!
//! The figure `--check` judges is each row's `anchor_ratio`: its median
//! ns per cycle over the median of the [`vix_bench::anchor_ns`]
//! calibration loops timed between its samples, so a host's slow phase
//! slows both sides alike (the `alloc_kernels` guard does the same).
//!
//! Every run also measures the engine self-profiler's overhead
//! (DESIGN.md §7): the headline allocators are re-timed with profiling
//! on in alternating slices against a profiler-off twin, the one-line
//! `profiler overhead:` summary reports the delta, and `--check`
//! enforces the [`OVERHEAD_BUDGET_PCT`] budget (with the same one-retry
//! noise policy as the rate rows).
//!
//! Methodology: each configuration builds one 2-D mesh network at a
//! moderate load (0.08 packets/node/cycle), warms it up for
//! [`WARMUP_CYCLES`] cycles so buffers, queues, and scratch reach their
//! steady-state footprint, then times [`MEASURED_CYCLES`] further cycles.
//! The median of several samples is reported as `cycles_per_sec`.
//!
//! When `BENCH_hotpath_baseline.json` (the figures recorded before the
//! flat ring-buffer transport landed) is present, every run also prints a
//! one-line speedup summary against it.

use std::time::Instant;
use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TelemetrySettings, TopologyKind};
use vix_sim::NetworkSim;
use vix_telemetry::json;

/// Cycles stepped before timing starts (buffer/scratch warmup).
const WARMUP_CYCLES: u64 = 300;
/// Cycles timed per sample.
const MEASURED_CYCLES: u64 = 2_000;
/// Samples per configuration; the median is reported.
const SAMPLES: usize = 5;
/// `--check` budget: a row may be at most this much slower than its
/// recorded figure before it counts as a regression.
const CHECK_TOLERANCE: f64 = 1.25;
/// `--check` budget for the engine self-profiler: turning profiling on
/// may slow the hot path by at most this many percent (DESIGN.md §7).
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

struct HotpathResult {
    allocator: &'static str,
    nodes: usize,
    cycles_per_sec: f64,
    ns_per_cycle: f64,
    /// `ns_per_cycle` over the median anchor timed between the samples.
    anchor_ratio: f64,
}

/// Times `MEASURED_CYCLES` steady-state cycles of one configuration and
/// returns the median cycles/sec across `SAMPLES` runs, each sample after
/// one [`vix_bench::anchor_ns`].
fn measure(kind: AllocatorKind, nodes: usize) -> HotpathResult {
    let mut anchors = [0.0; SAMPLES];
    let mut per_cycle_ns: Vec<f64> = (0..SAMPLES)
        .map(|sample| {
            anchors[sample] = vix_bench::anchor_ns();
            let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
            net.nodes = nodes;
            // Windows sized so the whole measurement stays in warmup: the
            // bench times the cycle loop, not the statistics pipeline.
            let cfg = SimConfig::new(net, 0.08)
                .with_windows(WARMUP_CYCLES + MEASURED_CYCLES + 1, 1, 1);
            let mut sim = NetworkSim::build(cfg).expect("valid config");
            for _ in 0..WARMUP_CYCLES {
                sim.step();
            }
            let start = Instant::now();
            for _ in 0..MEASURED_CYCLES {
                sim.step();
            }
            let elapsed = start.elapsed();
            std::hint::black_box(&sim);
            elapsed.as_nanos() as f64 / MEASURED_CYCLES as f64
        })
        .collect();
    per_cycle_ns.sort_by(|a, b| a.total_cmp(b));
    anchors.sort_by(|a, b| a.total_cmp(b));
    let ns_per_cycle = per_cycle_ns[SAMPLES / 2];
    HotpathResult {
        allocator: kind.label(),
        nodes,
        cycles_per_sec: 1e9 / ns_per_cycle,
        ns_per_cycle,
        anchor_ratio: ns_per_cycle / anchors[SAMPLES / 2],
    }
}

/// One profiler-overhead row: the same configuration timed with
/// profiling off and on, in alternating back-to-back slices so clock
/// drift lands on both sides of the comparison equally.
struct OverheadRow {
    allocator: &'static str,
    nodes: usize,
    plain_ns: f64,
    profiled_ns: f64,
    breakdown: String,
}

impl OverheadRow {
    /// Slowdown of the profiled run in percent, clamped at zero (noise
    /// can make the profiled run come out faster).
    fn overhead_pct(&self) -> f64 {
        ((self.profiled_ns / self.plain_ns - 1.0) * 100.0).max(0.0)
    }
}

/// Rows re-measured with profiling on: the two headline allocators at
/// the paper's 64-node mesh.
const OVERHEAD_CONFIGS: &[(AllocatorKind, usize)] =
    &[(AllocatorKind::InputFirst, 64), (AllocatorKind::Vix, 64)];

/// Timed slices alternated between the plain and profiled twin.
const OVERHEAD_SLICES: usize = 12;
/// Cycles per overhead slice.
const OVERHEAD_SLICE_CYCLES: u64 = 500;

fn measure_overhead_row(kind: AllocatorKind, nodes: usize) -> OverheadRow {
    // Two identically-seeded sims — profiling never perturbs results, so
    // both step the exact same workload — are timed in alternating short
    // slices, and each side keeps its fastest slice. Interference on a
    // shared machine is strictly additive, so the two minima are the
    // honest pair to compare; timing the two sides as separate sample
    // blocks instead lets a transient stall land on one block only and
    // read as double-digit phantom "overhead".
    let build = |profiling: bool| {
        let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, kind);
        net.nodes = nodes;
        let cycles = WARMUP_CYCLES + OVERHEAD_SLICES as u64 * OVERHEAD_SLICE_CYCLES;
        let cfg = SimConfig::new(net, 0.08)
            .with_windows(cycles + 1, 1, 1)
            .with_telemetry(TelemetrySettings::disabled().with_profiling(profiling));
        NetworkSim::build(cfg).expect("valid config")
    };
    let mut plain_sim = build(false);
    let mut profiled_sim = build(true);
    for _ in 0..WARMUP_CYCLES {
        plain_sim.step();
        profiled_sim.step();
    }
    let mut plain_ns = f64::INFINITY;
    let mut profiled_ns = f64::INFINITY;
    let slice = |sim: &mut NetworkSim| {
        let start = Instant::now();
        for _ in 0..OVERHEAD_SLICE_CYCLES {
            sim.step();
        }
        let elapsed = start.elapsed();
        std::hint::black_box(&sim);
        elapsed.as_nanos() as f64 / OVERHEAD_SLICE_CYCLES as f64
    };
    for _ in 0..OVERHEAD_SLICES {
        plain_ns = plain_ns.min(slice(&mut plain_sim));
        profiled_ns = profiled_ns.min(slice(&mut profiled_sim));
    }
    let breakdown =
        profiled_sim.telemetry().profiler().expect("profiling on").breakdown().to_json();
    OverheadRow { allocator: kind.label(), nodes, plain_ns, profiled_ns, breakdown }
}

fn measure_overhead() -> Vec<OverheadRow> {
    let rows: Vec<OverheadRow> =
        OVERHEAD_CONFIGS.iter().map(|&(kind, nodes)| measure_overhead_row(kind, nodes)).collect();
    let line = rows
        .iter()
        .map(|r| format!("{}@{} +{:.1}%", r.allocator, r.nodes, r.overhead_pct()))
        .collect::<Vec<_>>()
        .join("  ");
    println!("profiler overhead: {line}  (budget <={OVERHEAD_BUDGET_PCT:.0}%)");
    rows
}

/// `--check`: the profiler-on runs must stay within
/// [`OVERHEAD_BUDGET_PCT`] of their profiler-off twins. Like the rate
/// check, a row over budget is re-measured once before it fails.
fn check_overhead(rows: &[OverheadRow]) -> Result<(), String> {
    let mut failures = Vec::new();
    for r in rows {
        let mut pct = r.overhead_pct();
        if pct > OVERHEAD_BUDGET_PCT {
            let (kind, nodes) = *OVERHEAD_CONFIGS
                .iter()
                .find(|(k, n)| k.label() == r.allocator && *n == r.nodes)
                .expect("row came from this matrix");
            let retry = measure_overhead_row(kind, nodes);
            println!(
                "{:<14} nodes={:<3} profiler overhead +{:.1}% over budget, retried: +{:.1}%",
                r.allocator,
                r.nodes,
                pct,
                retry.overhead_pct()
            );
            pct = pct.min(retry.overhead_pct());
        }
        if pct > OVERHEAD_BUDGET_PCT {
            failures.push(format!(
                "{}@{}: profiler overhead +{:.1}% exceeds the {:.0}% budget",
                r.allocator, r.nodes, pct, OVERHEAD_BUDGET_PCT
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "profiler overhead check passed: all rows within {OVERHEAD_BUDGET_PCT:.0}% of \
             profiler-off rates"
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The benchmark matrix: the paper's two headline allocators at both mesh
/// sizes, plus one 64-node row per remaining allocator family.
const CONFIGS: &[(AllocatorKind, usize)] = &[
    (AllocatorKind::InputFirst, 16),
    (AllocatorKind::InputFirst, 64),
    (AllocatorKind::Vix, 16),
    (AllocatorKind::Vix, 64),
    (AllocatorKind::Wavefront, 64),
    (AllocatorKind::AugmentingPath, 64),
    (AllocatorKind::PacketChaining, 64),
    (AllocatorKind::Islip(2), 64),
];

fn run_matrix() -> Vec<HotpathResult> {
    println!("hotpath (steady-state mesh cycles/sec, {MEASURED_CYCLES} cycles/sample):");
    CONFIGS
        .iter()
        .map(|&(kind, nodes)| {
            let r = measure(kind, nodes);
            println!(
                "{:<14} nodes={:<3} {:>12.0} cycles/sec  ({:.0} ns/cycle, {:.0}x anchor)",
                r.allocator, r.nodes, r.cycles_per_sec, r.ns_per_cycle, r.anchor_ratio
            );
            r
        })
        .collect()
}

// The bench runs from the workspace; both JSON files live next to the
// workspace Cargo.toml so they are easy to find and diff across PRs.
fn workspace_json_path() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    format!("{root}/BENCH_hotpath.json")
}

fn baseline_json_path() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    format!("{root}/BENCH_hotpath_baseline.json")
}

fn write_json(results: &[HotpathResult], overhead: &[OverheadRow]) {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"hotpath\",\n");
    out.push_str(&format!("  \"warmup_cycles\": {WARMUP_CYCLES},\n"));
    out.push_str(&format!("  \"measured_cycles\": {MEASURED_CYCLES},\n"));
    out.push_str(&format!("  \"samples\": {SAMPLES},\n"));
    out.push_str(&format!("  \"host\": \"{}\",\n", vix_bench::host()));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"allocator\": \"{}\", \"mesh_nodes\": {}, \"cycles_per_sec\": {:.1}, \"ns_per_cycle\": {:.1}, \"anchor_ratio\": {:.1}}}{}\n",
            r.allocator,
            r.nodes,
            r.cycles_per_sec,
            r.ns_per_cycle,
            r.anchor_ratio,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"profiler_overhead_budget_pct\": {OVERHEAD_BUDGET_PCT:.1},\n"));
    out.push_str("  \"profiler\": [\n");
    for (i, r) in overhead.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"allocator\": \"{}\", \"mesh_nodes\": {}, \"overhead_pct\": {:.1}, \"breakdown\": {}}}{}\n",
            r.allocator,
            r.nodes,
            r.overhead_pct(),
            r.breakdown,
            if i + 1 == overhead.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = workspace_json_path();
    std::fs::write(&path, &out).expect("write BENCH_hotpath.json");
    vix_telemetry::info!("wrote {path}");
}

/// Reads `(allocator, mesh_nodes) -> field` rows out of one of the two
/// recorded-figure files.
fn read_recorded(path: &str, field: &str) -> Result<Vec<(String, usize, f64)>, String> {
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
            let nodes = v
                .get("mesh_nodes")
                .and_then(|n| n.as_f64())
                .ok_or_else(|| format!("{path}: row without mesh_nodes"))?;
            let value = v
                .get(field)
                .and_then(|n| n.as_f64())
                .ok_or_else(|| format!("{path}: row without {field}"))?;
            Ok((allocator.to_string(), nodes as usize, value))
        })
        .collect()
}

/// One-line speedup summary of `results` against the pre-ring-transport
/// figures in `BENCH_hotpath_baseline.json`, if that file exists.
fn print_baseline_delta(results: &[HotpathResult]) {
    let Ok(baseline) = read_recorded(&baseline_json_path(), "cycles_per_sec") else {
        return;
    };
    let mut deltas = Vec::new();
    for r in results {
        if let Some((_, _, base)) =
            baseline.iter().find(|(a, n, _)| a == r.allocator && *n == r.nodes)
        {
            deltas.push(format!("{}@{} {:.2}x", r.allocator, r.nodes, r.cycles_per_sec / base));
        }
    }
    if !deltas.is_empty() {
        println!("hotpath vs baseline: {}", deltas.join("  "));
    }
}

/// `--check`: compare a fresh run's anchor ratios against the checked-in
/// JSON; exit non-zero if any row regressed past [`CHECK_TOLERANCE`].
///
/// A row over budget is re-measured once before it counts as a failure —
/// a shared CI machine can hand one run a noisy slice of the clock, and
/// the retry keeps a transient stall from failing the guard while a
/// genuine slowdown still reproduces.
fn check_against_recorded(results: &[HotpathResult]) -> Result<(), String> {
    let path = workspace_json_path();
    let recorded = read_recorded(&path, "anchor_ratio")
        .map_err(|e| format!("{e} (run the bench without --check first)"))?;
    let mut failures = Vec::new();
    for r in results {
        let Some((_, _, recorded_ratio)) =
            recorded.iter().find(|(a, n, _)| a == r.allocator && *n == r.nodes)
        else {
            // A new configuration has no recorded figure yet; the next
            // plain bench run records it.
            println!("{:<14} nodes={:<3} no recorded baseline, skipping", r.allocator, r.nodes);
            continue;
        };
        let mut ratio = r.anchor_ratio;
        if ratio / recorded_ratio > CHECK_TOLERANCE {
            let (kind, nodes) = *CONFIGS
                .iter()
                .find(|(k, n)| k.label() == r.allocator && *n == r.nodes)
                .expect("result came from this matrix");
            let retry = measure(kind, nodes);
            println!(
                "{:<14} nodes={:<3} over budget ({:.0}x anchor), retried: {:.0}x anchor",
                r.allocator, r.nodes, ratio, retry.anchor_ratio
            );
            ratio = ratio.min(retry.anchor_ratio);
        }
        let growth = ratio / recorded_ratio;
        if growth > CHECK_TOLERANCE {
            failures.push(format!(
                "{}@{}: {:.0}x anchor vs recorded {:.0}x ({:.2}x slower > {:.2}x budget)",
                r.allocator, r.nodes, ratio, recorded_ratio, growth, CHECK_TOLERANCE
            ));
        }
    }
    if failures.is_empty() {
        println!("perf check passed: all rows within {CHECK_TOLERANCE}x of recorded anchor ratios");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let results = run_matrix();
    print_baseline_delta(&results);
    let overhead = measure_overhead();
    if check_mode {
        if let Err(report) = check_against_recorded(&results) {
            eprintln!("perf regression detected:\n{report}");
            std::process::exit(1);
        }
        if let Err(report) = check_overhead(&overhead) {
            eprintln!("profiler overhead regression detected:\n{report}");
            std::process::exit(1);
        }
    } else {
        write_json(&results, &overhead);
    }
}
