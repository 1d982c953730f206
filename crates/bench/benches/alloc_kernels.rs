//! Kernel benchmark: the word-parallel bitset kernel of every switch
//! allocator, written to `BENCH_allockernels.json` at the workspace root.
//!
//! Run with `cargo bench -p vix-bench --bench alloc_kernels`.
//! Pass `-- --check` to re-measure and compare the timings against the
//! checked-in JSON instead of overwriting it: any allocator more than
//! [`CHECK_TOLERANCE`] slower than its recorded figure fails the run (the
//! CI perf-regression guard, run from `scripts/verify.sh`).
//!
//! Methodology: three router shapes from the paper's evaluation — the
//! 5-port 2-D mesh, the 8-port concentrated mesh, and the 16-port
//! flattened butterfly partitioned into 64 virtual inputs — plus a
//! 128-virtual-input shape whose request rows span two 64-bit words,
//! exercising the multi-word paths of the kernels. For each
//! shape × allocator the harness replays a fixed pseudo-random
//! request trace (~55 % load, speculative bits and ages included) through
//! a warmed-up allocator and reports the fastest-sample ns per
//! `allocate_into` call.

use std::time::Instant;
use vix_alloc::{
    Allocator, AllocatorConfig, IslipAllocator, MaxMatchingAllocator, OutputFirstAllocator,
    PacketChainingAllocator, SeparableAllocator, WavefrontAllocator,
};
use vix_core::{GrantSet, PortId, RequestSet, SwitchRequest, VcId, VixPartition};
use vix_telemetry::json;

/// Allocation calls before timing starts (scratch warmup).
const WARMUP_CALLS: usize = 500;
/// Allocation calls timed per sample.
const MEASURED_CALLS: usize = 4_000;
/// Samples per configuration; the fastest is reported (the
/// least-perturbed run — robust against transient machine noise, which
/// only ever inflates timings).
const SAMPLES: usize = 5;
/// Distinct request sets in the replayed trace.
const TRACE_LEN: usize = 64;
/// `--check` mode: maximum tolerated slowdown vs the recorded bitset
/// timing (1.25 = 25 % — headroom for machine noise, not for regressions).
const CHECK_TOLERANCE: f64 = 1.25;

/// Splitmix-style xorshift; keeps the trace identical across runs without
/// pulling the simulator's RNG crate into the bench.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A fixed trace of request sets at roughly 55 % load with the same
/// speculative/age mix the golden-hash determinism test uses.
fn build_trace(ports: usize, vcs: usize) -> Vec<RequestSet> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    (0..TRACE_LEN)
        .map(|_| {
            let mut rs = RequestSet::new(ports, vcs);
            for port in 0..ports {
                for vc in 0..vcs {
                    if rng.next() % 100 < 55 {
                        rs.push(SwitchRequest {
                            port: PortId(port),
                            vc: VcId(vc),
                            out_port: PortId((rng.next() % ports as u64) as usize),
                            speculative: rng.next().is_multiple_of(4),
                            age: rng.next() % 16,
                        });
                    }
                }
            }
            rs
        })
        .collect()
}

/// Fastest-sample ns per `allocate_into` call over the trace, with
/// traversal feedback applied so stateful allocators run their real cycle.
fn measure(build: &dyn Fn() -> Allocator, trace: &[RequestSet]) -> f64 {
    let mut per_call_ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut alloc = build();
            let mut grants = GrantSet::new();
            for i in 0..WARMUP_CALLS {
                alloc.allocate_into(&trace[i % TRACE_LEN], &mut grants);
                alloc.observe_traversals(&grants);
            }
            let start = Instant::now();
            for i in 0..MEASURED_CALLS {
                alloc.allocate_into(std::hint::black_box(&trace[i % TRACE_LEN]), &mut grants);
                alloc.observe_traversals(&grants);
            }
            let elapsed = start.elapsed();
            std::hint::black_box(&grants);
            elapsed.as_nanos() as f64 / MEASURED_CALLS as f64
        })
        .collect();
    per_call_ns.sort_by(|a, b| a.total_cmp(b));
    per_call_ns[0]
}

struct Config {
    shape: &'static str,
    allocator: &'static str,
    ports: usize,
    vcs: usize,
    build: Box<dyn Fn() -> Allocator>,
}

fn config(
    shape: &'static str,
    allocator: &'static str,
    ports: usize,
    vcs: usize,
    build: impl Fn() -> Allocator + 'static,
) -> Config {
    Config { shape, allocator, ports, vcs, build: Box::new(build) }
}

/// The benchmark matrix: every allocator family at the 5-port mesh, the
/// radix-scaling subset at the 8-port concentrated mesh, the
/// VIX-partitioned allocators at the 64-virtual-input flattened butterfly
/// (paper Fig. 12's widest configuration), and a radix-16 × 8 VC shape
/// with 128 virtual inputs — beyond one 64-bit word, so every request
/// row, arbiter mask, and adjacency row runs the multi-word kernel path.
fn configs() -> Vec<Config> {
    let mesh = AllocatorConfig::new(5, VixPartition::baseline(6));
    let mesh_vix = AllocatorConfig::new(5, VixPartition::even(6, 2).unwrap());
    let cmesh = AllocatorConfig::new(8, VixPartition::baseline(6));
    let cmesh_vix = AllocatorConfig::new(8, VixPartition::even(6, 2).unwrap());
    let fbfly = AllocatorConfig::new(16, VixPartition::even(4, 4).unwrap());
    let wide = AllocatorConfig::new(16, VixPartition::even(8, 8).unwrap());
    vec![
        config("mesh-5p", "IF", 5, 6, move || Allocator::Separable(SeparableAllocator::new(mesh))),
        config("mesh-5p", "VIX", 5, 6, move || Allocator::Separable(SeparableAllocator::new(mesh_vix))),
        config("mesh-5p", "WF", 5, 6, move || Allocator::Wavefront(WavefrontAllocator::new(mesh))),
        config("mesh-5p", "AP", 5, 6, move || Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(mesh)))),
        config("mesh-5p", "OF", 5, 6, move || Allocator::OutputFirst(OutputFirstAllocator::new(mesh))),
        config("mesh-5p", "PC", 5, 6, move || Allocator::PacketChaining(Box::new(PacketChainingAllocator::new(mesh)))),
        config("mesh-5p", "iSLIP-2", 5, 6, move || Allocator::Islip(Box::new(IslipAllocator::new(mesh, 2)))),
        config("cmesh-8p", "IF", 8, 6, move || Allocator::Separable(SeparableAllocator::new(cmesh))),
        config("cmesh-8p", "VIX", 8, 6, move || Allocator::Separable(SeparableAllocator::new(cmesh_vix))),
        config("cmesh-8p", "WF", 8, 6, move || Allocator::Wavefront(WavefrontAllocator::new(cmesh))),
        config("cmesh-8p", "AP", 8, 6, move || Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(cmesh)))),
        config("fbfly-64vi", "VIX", 16, 4, move || Allocator::Separable(SeparableAllocator::new(fbfly))),
        config("fbfly-64vi", "WF-VIX", 16, 4, move || Allocator::Wavefront(WavefrontAllocator::new(fbfly))),
        config("fbfly-64vi", "Ideal", 16, 4, move || Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(fbfly)))),
        config("wide-128vi", "VIX", 16, 8, move || Allocator::Separable(SeparableAllocator::new(wide))),
        config("wide-128vi", "WF-VIX", 16, 8, move || Allocator::Wavefront(WavefrontAllocator::new(wide))),
        config("wide-128vi", "Ideal", 16, 8, move || Allocator::MaxMatching(Box::new(MaxMatchingAllocator::new(wide)))),
    ]
}

struct KernelResult {
    shape: &'static str,
    allocator: &'static str,
    bitset_ns: f64,
}

fn run_matrix() -> Vec<KernelResult> {
    println!("alloc_kernels (fastest-sample ns/alloc, {MEASURED_CALLS} calls/sample, ~55% load):");
    configs()
        .iter()
        .map(|c| {
            let trace = build_trace(c.ports, c.vcs);
            let bitset_ns = measure(&c.build, &trace);
            println!("{:<11} {:<8} {:>8.1} ns", c.shape, c.allocator, bitset_ns);
            KernelResult { shape: c.shape, allocator: c.allocator, bitset_ns }
        })
        .collect()
}

fn workspace_json_path() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    format!("{root}/BENCH_allockernels.json")
}

fn write_json(results: &[KernelResult]) {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"alloc_kernels\",\n");
    out.push_str(&format!("  \"warmup_calls\": {WARMUP_CALLS},\n"));
    out.push_str(&format!("  \"measured_calls\": {MEASURED_CALLS},\n"));
    out.push_str(&format!("  \"samples\": {SAMPLES},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shape\": \"{}\", \"allocator\": \"{}\", \"bitset_ns\": {:.1}}}{}\n",
            r.shape,
            r.allocator,
            r.bitset_ns,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = workspace_json_path();
    std::fs::write(&path, &out).expect("write BENCH_allockernels.json");
    vix_telemetry::info!("wrote {path}");
}

/// `--check`: compare a fresh run's timings against the checked-in
/// JSON; exit non-zero if any allocator regressed past [`CHECK_TOLERANCE`].
///
/// A configuration over budget is re-measured once before it counts as a
/// failure — a shared CI machine can hand one run a noisy slice of the
/// clock, and the retry keeps a transient stall from failing the guard
/// while a genuine slowdown still reproduces.
fn check_against_recorded(results: &[KernelResult]) -> Result<(), String> {
    let path = workspace_json_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {path}: {e} (run the bench without --check first)"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let recorded = doc
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{path}: missing results array"))?;
    let all_configs = configs();
    let mut failures = Vec::new();
    for r in results {
        let baseline = recorded.iter().find(|v| {
            v.get("shape").and_then(|s| s.as_str()) == Some(r.shape)
                && v.get("allocator").and_then(|s| s.as_str()) == Some(r.allocator)
        });
        let Some(baseline_ns) =
            baseline.and_then(|v| v.get("bitset_ns")).and_then(|v| v.as_f64())
        else {
            // A new configuration has no recorded figure yet; the next
            // plain bench run records it.
            println!("{:<11} {:<8} no recorded baseline, skipping", r.shape, r.allocator);
            continue;
        };
        let mut bitset_ns = r.bitset_ns;
        if bitset_ns / baseline_ns > CHECK_TOLERANCE {
            let cfg = all_configs
                .iter()
                .find(|c| c.shape == r.shape && c.allocator == r.allocator)
                .expect("result came from this matrix");
            let trace = build_trace(cfg.ports, cfg.vcs);
            let retry_ns = measure(&cfg.build, &trace);
            println!(
                "{:<11} {:<8} over budget ({:.1} ns), retried: {:.1} ns",
                r.shape, r.allocator, bitset_ns, retry_ns
            );
            bitset_ns = bitset_ns.min(retry_ns);
        }
        let ratio = bitset_ns / baseline_ns;
        if ratio > CHECK_TOLERANCE {
            failures.push(format!(
                "{}/{}: bitset {:.1} ns vs recorded {:.1} ns ({:.2}x > {:.2}x budget)",
                r.shape, r.allocator, bitset_ns, baseline_ns, ratio, CHECK_TOLERANCE
            ));
        }
    }
    if failures.is_empty() {
        println!("perf check passed: all kernels within {CHECK_TOLERANCE}x of recorded timings");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let results = run_matrix();
    if check_mode {
        if let Err(report) = check_against_recorded(&results) {
            eprintln!("perf regression detected:\n{report}");
            std::process::exit(1);
        }
    } else {
        write_json(&results);
    }
}
