//! Shard-scaling benchmark for the deterministic sharded simulation
//! engine (DESIGN.md §8): steady-state simulator cycles per second on a
//! 16×16 mesh near saturation, for `--shards` ∈ {1, 2, 4, 8}. Written to
//! `BENCH_shardscaling.json` at the workspace root.
//!
//! Run with `cargo bench -p vix-bench --bench shardscaling`; pass
//! `--smoke` for a quick CI-sized run (one sample, fewer cycles, no JSON)
//! and `--check` to re-measure and compare against the checked-in JSON
//! instead of overwriting it (the CI perf-regression guard, run from
//! `scripts/verify.sh`).
//!
//! Sharding is a pure performance knob — every shard count produces
//! bit-identical results (`tests/shard_parity.rs`) — so the only
//! questions here are (a) does `shards=1` stay exactly as fast as the
//! serial engine it bypasses to, and (b) how far does wall-clock drop as
//! shards spread over real cores. The recorded JSON carries `host_cores`
//! because (b) is meaningless without it: `S` shards are `S` threads
//! (the bench's own thread steps shard 0), and wherever `S` exceeds the
//! core count they timeshare and the barrier overhead makes the figure a
//! slowdown, honestly recorded as such. `--check`
//! therefore always enforces the `shards=1` no-regression budget, but
//! only enforces the ≥2× speedup floor at 4 shards when the *current*
//! host actually has ≥4 cores to scale over.

use std::time::Instant;
use vix_core::{AllocatorKind, NetworkConfig, SimConfig, TelemetrySettings, TopologyKind};
use vix_sim::NetworkSim;
use vix_telemetry::{json, ENGINE_TRACK};

/// 16×16 mesh — large enough that each of 8 shards still owns a
/// multi-router slab and per-cycle work dwarfs the barrier cost.
const NODES: usize = 256;

/// Offered load near the 16×16 mesh's saturation point: every router is
/// busy nearly every cycle, the regime where sharding has work to split.
const RATE: f64 = 0.10;

/// Shard counts pinned by the acceptance criteria: serial bypass, even
/// splits, and the full 8-way fan-out.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// `--check`: maximum tolerated `shards=1` slowdown vs the recorded
/// figure (same budget as the alloc-kernel guard).
const CHECK_TOLERANCE: f64 = 1.25;

/// `--check`: minimum speedup of 4 shards over 1, enforced only on hosts
/// with at least [`SPEEDUP_CORES`] cores.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Core count below which the speedup floor cannot physically be met and
/// is therefore skipped (with a loud note) rather than fabricated.
const SPEEDUP_CORES: usize = 4;

struct BenchParams {
    warmup_cycles: u64,
    measured_cycles: u64,
    samples: usize,
}

const FULL: BenchParams = BenchParams { warmup_cycles: 200, measured_cycles: 1_500, samples: 3 };
const SMOKE: BenchParams = BenchParams { warmup_cycles: 50, measured_cycles: 150, samples: 1 };

struct ShardResult {
    shards: usize,
    ns_per_cycle: f64,
    cycles_per_sec: f64,
    speedup_vs_serial: f64,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Median ns/cycle over `samples` steady-state runs at one shard count.
fn measure(shards: usize, p: &BenchParams) -> f64 {
    let mut per_cycle_ns: Vec<f64> = (0..p.samples)
        .map(|_| {
            let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
            net.nodes = NODES;
            // Whole measurement inside the sim's warmup window: the bench
            // times the cycle loop, not the statistics pipeline.
            let cfg = SimConfig::new(net, RATE)
                .with_windows(p.warmup_cycles + p.measured_cycles + 1, 1, 1)
                .with_shards(shards);
            let mut sim = NetworkSim::build(cfg).expect("valid config");
            sim.run_cycles(p.warmup_cycles);
            let start = Instant::now();
            sim.run_cycles(p.measured_cycles);
            let elapsed = start.elapsed();
            std::hint::black_box(&sim);
            elapsed.as_nanos() as f64 / p.measured_cycles as f64
        })
        .collect();
    per_cycle_ns.sort_by(|a, b| a.total_cmp(b));
    per_cycle_ns[p.samples / 2]
}

fn run_matrix(p: &BenchParams) -> Vec<ShardResult> {
    let mut results: Vec<ShardResult> = Vec::new();
    for shards in SHARD_COUNTS {
        let ns = measure(shards, p);
        let serial_ns = results.first().map_or(ns, |r| r.ns_per_cycle);
        let r = ShardResult {
            shards,
            ns_per_cycle: ns,
            cycles_per_sec: 1e9 / ns,
            speedup_vs_serial: serial_ns / ns,
        };
        println!(
            "shards={:<2} {:>11.0} c/s  ({:>8.0} ns/cycle)  speedup {:.2}x",
            r.shards, r.cycles_per_sec, r.ns_per_cycle, r.speedup_vs_serial
        );
        results.push(r);
    }
    results
}

/// Per-shard busy/barrier balance of one profiled run (engine
/// self-profiling, DESIGN.md §7). Separate from the timed matrix so the
/// `--check` budgets keep comparing profiler-off numbers.
struct ShardProfile {
    shards: usize,
    /// Fraction of each shard's span time spent outside barrier waits.
    busy_ratio: Vec<f64>,
    /// `(max − min) / max` busy time across shards, in percent.
    imbalance_pct: f64,
    /// `BarrierWait` share of all shard-track span time, in percent —
    /// the number the one-barrier, no-idle-thread protocol exists to
    /// shrink, and where a regression in the calling thread's serial
    /// duties shows before it shows in wall clock. Read it through
    /// `host_cores`: with fewer cores than shards it measures the host's
    /// scheduler, not the protocol.
    barrier_share_pct: f64,
}

/// Runs the bench configuration once with profiling on and reads the
/// per-shard busy/barrier split out of the phase breakdown.
fn profile_run(shards: usize, p: &BenchParams) -> ShardProfile {
    let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, AllocatorKind::Vix);
    net.nodes = NODES;
    let cfg = SimConfig::new(net, RATE)
        .with_windows(p.warmup_cycles + p.measured_cycles + 1, 1, 1)
        .with_shards(shards)
        .with_telemetry(TelemetrySettings::disabled().with_profiling(true));
    let mut sim = NetworkSim::build(cfg).expect("valid config");
    sim.run_cycles(p.warmup_cycles + p.measured_cycles);
    let breakdown = sim.telemetry().profiler().expect("profiling on").breakdown();
    let shard_tracks: Vec<_> =
        breakdown.per_track.iter().filter(|t| t.track != ENGINE_TRACK).collect();
    let busy_ratio = shard_tracks
        .iter()
        .map(|t| t.busy_ns as f64 / (t.busy_ns + t.barrier_ns).max(1) as f64)
        .collect();
    let max = shard_tracks.iter().map(|t| t.busy_ns).max().unwrap_or(0);
    let min = shard_tracks.iter().map(|t| t.busy_ns).min().unwrap_or(0);
    let imbalance_pct = if max > 0 { (max - min) as f64 / max as f64 * 100.0 } else { 0.0 };
    let busy_total: u64 = shard_tracks.iter().map(|t| t.busy_ns).sum();
    let barrier_total: u64 = shard_tracks.iter().map(|t| t.barrier_ns).sum();
    let barrier_share_pct =
        barrier_total as f64 / (busy_total + barrier_total).max(1) as f64 * 100.0;
    ShardProfile { shards, busy_ratio, imbalance_pct, barrier_share_pct }
}

fn print_profile(profile: &ShardProfile) {
    let ratios = profile
        .busy_ratio
        .iter()
        .map(|r| format!("{:.0}%", r * 100.0))
        .collect::<Vec<_>>()
        .join("/");
    println!(
        "shards={} profile: busy {ratios}  barrier share {:.1}%  imbalance {:.1}%",
        profile.shards, profile.barrier_share_pct, profile.imbalance_pct
    );
}

fn workspace_json_path() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    format!("{root}/BENCH_shardscaling.json")
}

fn write_json(results: &[ShardResult], profile: &ShardProfile, p: &BenchParams) {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"shardscaling\",\n");
    out.push_str(&format!("  \"mesh_nodes\": {NODES},\n"));
    out.push_str(&format!("  \"rate\": {RATE},\n"));
    out.push_str(&format!("  \"warmup_cycles\": {},\n", p.warmup_cycles));
    out.push_str(&format!("  \"measured_cycles\": {},\n", p.measured_cycles));
    out.push_str(&format!("  \"samples\": {},\n", p.samples));
    out.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
    // Protocol tag: which sharded cycle protocol produced the figures
    // (two futex barriers per cycle before PR 10; one spin barrier with a
    // dedicated coordinator thread, S + 1 threads, until PR 18; S threads
    // with the caller stepping shard 0 since), so recordings across the
    // trajectory stay legible.
    out.push_str("  \"protocol\": \"spin-barrier-caller-steps-shard-0\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"ns_per_cycle\": {:.1}, \"cycles_per_sec\": {:.1}, \
             \"speedup_vs_serial\": {:.3}}}{}\n",
            r.shards,
            r.ns_per_cycle,
            r.cycles_per_sec,
            r.speedup_vs_serial,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    let ratios = profile
        .busy_ratio
        .iter()
        .map(|r| format!("{r:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!(
        "  \"profile\": {{\"shards\": {}, \"busy_ratio\": [{ratios}], \
         \"barrier_share_pct\": {:.1}, \"imbalance_pct\": {:.1}}}\n",
        profile.shards, profile.barrier_share_pct, profile.imbalance_pct
    ));
    out.push_str("}\n");
    let path = workspace_json_path();
    std::fs::write(&path, &out).expect("write BENCH_shardscaling.json");
    vix_telemetry::info!("wrote {path}");
}

/// `--check`: the `shards=1` path must stay within [`CHECK_TOLERANCE`] of
/// its recorded figure (one retry absorbs a noisy CI slice, exactly like
/// the alloc-kernel guard), and on a host with ≥ [`SPEEDUP_CORES`] cores
/// the fresh 4-shard run must clear the [`SPEEDUP_FLOOR`].
fn check_against_recorded(results: &[ShardResult], p: &BenchParams) -> Result<(), String> {
    let path = workspace_json_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {path}: {e} (run the bench without --check first)"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let recorded = doc
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{path}: missing results array"))?;
    let recorded_serial_ns = recorded
        .iter()
        .find(|v| v.get("shards").and_then(|s| s.as_f64()) == Some(1.0))
        .and_then(|v| v.get("ns_per_cycle"))
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("{path}: no shards=1 entry"))?;

    let mut failures = Vec::new();

    let mut serial_ns =
        results.iter().find(|r| r.shards == 1).expect("matrix includes shards=1").ns_per_cycle;
    if serial_ns / recorded_serial_ns > CHECK_TOLERANCE {
        let retry_ns = measure(1, p);
        println!("shards=1 over budget ({serial_ns:.0} ns), retried: {retry_ns:.0} ns");
        serial_ns = serial_ns.min(retry_ns);
    }
    let ratio = serial_ns / recorded_serial_ns;
    if ratio > CHECK_TOLERANCE {
        failures.push(format!(
            "shards=1: {serial_ns:.0} ns/cycle vs recorded {recorded_serial_ns:.0} ns \
             ({ratio:.2}x > {CHECK_TOLERANCE:.2}x budget)"
        ));
    }

    let cores = host_cores();
    if cores >= SPEEDUP_CORES {
        let four = results.iter().find(|r| r.shards == 4).expect("matrix includes shards=4");
        if four.speedup_vs_serial < SPEEDUP_FLOOR {
            failures.push(format!(
                "shards=4: speedup {:.2}x < {SPEEDUP_FLOOR:.1}x floor on a {cores}-core host",
                four.speedup_vs_serial
            ));
        }
    } else {
        println!(
            "note: host has {cores} core(s) < {SPEEDUP_CORES}; the {SPEEDUP_FLOOR:.1}x \
             speedup floor cannot be exercised here and is skipped"
        );
    }

    if failures.is_empty() {
        println!("shard-scaling check passed (host_cores={cores})");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check_mode = std::env::args().any(|a| a == "--check");
    let p = if smoke { &SMOKE } else { &FULL };

    println!(
        "shardscaling (16×16 mesh, rate {RATE}, {} cycles/sample, host_cores={}{}):",
        p.measured_cycles,
        host_cores(),
        if smoke { ", smoke mode" } else { "" }
    );
    let results = run_matrix(p);
    let profile = profile_run(4, p);
    print_profile(&profile);

    if smoke && !check_mode {
        assert!(
            results.iter().all(|r| r.cycles_per_sec > 0.0),
            "benchmark produced a non-positive rate"
        );
        assert_eq!(profile.busy_ratio.len(), 4, "profiled run must report every shard");
        vix_telemetry::info!("smoke mode: skipping BENCH_shardscaling.json");
        return;
    }
    if check_mode {
        if let Err(report) = check_against_recorded(&results, p) {
            eprintln!("perf regression detected:\n{report}");
            std::process::exit(1);
        }
    } else {
        write_json(&results, &profile, p);
    }
}
