//! `vixsim` — command-line front-end for the VIX NoC simulator.
//!
//! ```text
//! vixsim [--topology mesh|cmesh|fbfly] [--allocator if|vix|wf|wfvix|ap|pc|islip]
//!        [--nodes N] [--rate R] [--packet-len N] [--vcs V] [--virtual-inputs K]
//!        [--pattern uniform|transpose|bitcomp|bitrev|shuffle|neighbor]
//!        [--warmup N] [--measure N] [--drain N] [--seed S] [--jobs N]
//!        [--shards N|auto]
//!        [--no-speculation] [--no-dimension-aware] [--age-based-sa]
//!        [--trace-out FILE] [--metrics-out FILE]
//!        [--profile-out FILE] [--heartbeat N] [--heartbeat-out FILE]
//! ```
//!
//! Example: `vixsim --allocator vix --rate 0.10 --pattern transpose`
//!
//! `--trace-out` records the flit-lifecycle trace of a single run: a
//! `.json` path gets the Chrome trace-event format (open in Perfetto or
//! `chrome://tracing`), anything else line-delimited JSON. `--metrics-out`
//! writes the metrics registry and the allocator matching-efficiency
//! record as JSON; in sweep mode it holds the per-rate matching records.
//!
//! `--profile-out` turns on engine self-profiling (phase spans over the
//! pipeline phases, stats merge, and shard barrier waits — DESIGN.md §7)
//! and writes it out: `.json` = Chrome trace-event with one Perfetto
//! track per shard, otherwise span JSON lines; in sweep mode it holds
//! the merged phase-breakdown JSON. `--heartbeat N` samples a
//! [`SimHealth`](vix::telemetry::SimHealth) snapshot every `N` cycles
//! and streams it to stderr live; `--heartbeat-out` writes the snapshots
//! as JSON lines instead (both imply profiling).
//!
//! Every output composes with `--shards`. The trace and metrics files are
//! byte-identical for any shard count: each shard records into its own
//! sink and the run merges them in serial order. A profile gets one track
//! per shard, which is where the per-shard busy/barrier balance comes
//! from.
//!
//! `--shards N` runs one simulation on `N` threads, the calling one
//! included; `auto` picks `N` from the host's available parallelism
//! (capped so each shard owns enough routers to amortize the cycle
//! barrier; inside a `--jobs J` sweep, each point's share `cores / J`).
//! The shards are contiguous router ranges of near-equal size. Both
//! `--jobs` and `--shards` are pure performance knobs: results,
//! recordings and the heartbeats' simulation gauges are bit-identical
//! for every value (DESIGN.md §8).

use std::io::{BufWriter, Write};
use std::process::ExitCode;
use vix::prelude::*;
use vix::{NodeId, VirtualInputs};

struct Options {
    topology: TopologyKind,
    allocator: AllocatorKind,
    nodes: usize,
    rate: f64,
    packet_len: usize,
    vcs: usize,
    virtual_inputs: usize,
    pattern: TrafficPattern,
    warmup: u64,
    measure: u64,
    drain: u64,
    seed: u64,
    jobs: usize,
    shards: usize,
    speculation: bool,
    dimension_aware: bool,
    age_based_sa: bool,
    five_stage: bool,
    sweep_csv: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile_out: Option<String>,
    heartbeat: u64,
    heartbeat_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            topology: TopologyKind::Mesh,
            allocator: AllocatorKind::Vix,
            nodes: 64,
            rate: 0.05,
            packet_len: 4,
            vcs: 6,
            virtual_inputs: 0, // 0 = derive from allocator
            pattern: TrafficPattern::UniformRandom,
            warmup: 2_000,
            measure: 10_000,
            drain: 3_000,
            seed: 0xC0FFEE,
            jobs: 0,   // sweeps use all cores unless pinned
            shards: 1, // single runs are serial unless asked
            speculation: true,
            dimension_aware: true,
            age_based_sa: false,
            five_stage: false,
            sweep_csv: None,
            trace_out: None,
            metrics_out: None,
            profile_out: None,
            heartbeat: 0,
            heartbeat_out: None,
        }
    }
}

const USAGE: &str = "usage: vixsim [options]
  --topology mesh|cmesh|fbfly      (default mesh)
  --allocator if|of|vix|wf|wfvix|ap|pc|islip   (default vix)
  --nodes <n>                      terminal count, a perfect square of the
                                   topology's concentration grid (default 64)
  --rate <pkts/cycle/node>         (default 0.05)
  --packet-len <flits>             (default 4)
  --vcs <n>                        (default 6)
  --virtual-inputs <k>             (default: 2 for vix/wfvix, else 1)
  --pattern uniform|transpose|bitcomp|bitrev|shuffle|neighbor
  --warmup/--measure/--drain <cycles>
  --seed <n>
  --jobs <n>                       sweep worker threads; 0 = all cores
                                   (default 0; results identical for any value)
  --shards <n|auto>                threads inside each simulation, the
                                   calling one included; auto (= 0) is one
                                   per core, split between the --jobs
                                   workers of a sweep (default 1; results,
                                   traces and metrics identical for any
                                   value — DESIGN.md §8)
  --no-speculation  --no-dimension-aware  --age-based-sa  --five-stage
  --sweep-csv <file>               run a 10-point rate sweep, write CSV
  --trace-out <file>               record the flit-lifecycle trace (single
                                   run only): .json = Chrome trace-event
                                   (Perfetto), otherwise JSON lines.
                                   Composes with --shards.
  --metrics-out <file>             write metrics + matching efficiency JSON.
                                   Composes with --shards.
  --profile-out <file>             engine self-profile: .json = Chrome
                                   trace-event with one track per shard
                                   (Perfetto), otherwise span JSON lines;
                                   sweep mode writes the phase-breakdown
                                   JSON. Composes with --shards.
  --heartbeat <cycles>             stream a SimHealth snapshot to stderr
                                   every N cycles (implies profiling)
  --heartbeat-out <file>           write heartbeat snapshots as JSON lines
                                   (single run; default interval 1000)";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opt = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--topology" => {
                opt.topology = match value()?.as_str() {
                    "mesh" => TopologyKind::Mesh,
                    "cmesh" => TopologyKind::CMesh,
                    "fbfly" => TopologyKind::FlattenedButterfly,
                    other => return Err(format!("unknown topology {other}")),
                }
            }
            "--allocator" => {
                opt.allocator = match value()?.as_str() {
                    "if" => AllocatorKind::InputFirst,
                    "of" => AllocatorKind::OutputFirst,
                    "vix" => AllocatorKind::Vix,
                    "wf" => AllocatorKind::Wavefront,
                    "wfvix" => AllocatorKind::WavefrontVix,
                    "ap" => AllocatorKind::AugmentingPath,
                    "pc" => AllocatorKind::PacketChaining,
                    "islip" => AllocatorKind::Islip(2),
                    other => return Err(format!("unknown allocator {other}")),
                }
            }
            "--nodes" => opt.nodes = value()?.parse().map_err(|e| format!("bad nodes: {e}"))?,
            "--rate" => opt.rate = value()?.parse().map_err(|e| format!("bad rate: {e}"))?,
            "--packet-len" => {
                opt.packet_len = value()?.parse().map_err(|e| format!("bad packet length: {e}"))?
            }
            "--vcs" => opt.vcs = value()?.parse().map_err(|e| format!("bad vc count: {e}"))?,
            "--virtual-inputs" => {
                opt.virtual_inputs =
                    value()?.parse().map_err(|e| format!("bad virtual inputs: {e}"))?
            }
            "--pattern" => {
                opt.pattern = match value()?.as_str() {
                    "uniform" => TrafficPattern::UniformRandom,
                    "transpose" => TrafficPattern::Transpose,
                    "bitcomp" => TrafficPattern::BitComplement,
                    "bitrev" => TrafficPattern::BitReverse,
                    "shuffle" => TrafficPattern::Shuffle,
                    "neighbor" => TrafficPattern::NearestNeighbor,
                    "hotspot" => TrafficPattern::Hotspot {
                        spots: vec![NodeId(0), NodeId(63)],
                        fraction: 0.2,
                    },
                    other => return Err(format!("unknown pattern {other}")),
                }
            }
            "--warmup" => opt.warmup = value()?.parse().map_err(|e| format!("bad warmup: {e}"))?,
            "--measure" => opt.measure = value()?.parse().map_err(|e| format!("bad measure: {e}"))?,
            "--drain" => opt.drain = value()?.parse().map_err(|e| format!("bad drain: {e}"))?,
            "--seed" => opt.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--jobs" => opt.jobs = value()?.parse().map_err(|e| format!("bad jobs: {e}"))?,
            "--shards" => {
                opt.shards = match value()?.as_str() {
                    "auto" => 0,
                    n => n.parse().map_err(|e| format!("bad shards: {e}"))?,
                }
            }
            "--no-speculation" => opt.speculation = false,
            "--five-stage" => opt.five_stage = true,
            "--sweep-csv" => opt.sweep_csv = Some(value()?.clone()),
            "--trace-out" => opt.trace_out = Some(value()?.clone()),
            "--metrics-out" => opt.metrics_out = Some(value()?.clone()),
            "--profile-out" => opt.profile_out = Some(value()?.clone()),
            "--heartbeat" => {
                opt.heartbeat = value()?.parse().map_err(|e| format!("bad heartbeat: {e}"))?
            }
            "--heartbeat-out" => opt.heartbeat_out = Some(value()?.clone()),
            "--no-dimension-aware" => opt.dimension_aware = false,
            "--age-based-sa" => opt.age_based_sa = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opt)
}

/// An output file created before the run starts, so that a mistyped
/// directory fails in milliseconds instead of after the simulation.
struct OutFile<'a> {
    path: &'a str,
    w: BufWriter<std::fs::File>,
}

impl<'a> OutFile<'a> {
    /// Creates `path`; reports a failure on stderr.
    fn create(path: &'a str) -> Result<Self, ()> {
        match std::fs::File::create(path) {
            Ok(file) => Ok(OutFile { path, w: BufWriter::new(file) }),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                Err(())
            }
        }
    }

    /// Creates the file behind an output flag, if the flag was given.
    fn create_if(path: &'a Option<String>) -> Result<Option<Self>, ()> {
        path.as_deref().map(OutFile::create).transpose()
    }

    /// Writes the file through `fill` and flushes it; reports a failure on
    /// stderr.
    fn finish(
        mut self,
        fill: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
    ) -> Result<&'a str, ()> {
        match fill(&mut self.w).and_then(|()| self.w.flush()) {
            Ok(()) => Ok(self.path),
            Err(e) => {
                eprintln!("error: writing {}: {e}", self.path);
                Err(())
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opt = match parse(&args) {
        Ok(opt) => opt,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let TrafficPattern::Hotspot { spots, .. } = &mut opt.pattern {
        // The hot spots are the network corners; retarget them when
        // --nodes moves the last terminal away from 63.
        *spots = vec![NodeId(0), NodeId(opt.nodes.saturating_sub(1))];
    }

    let needs_vi = matches!(opt.allocator, AllocatorKind::Vix | AllocatorKind::WavefrontVix);
    let k = match opt.virtual_inputs {
        0 if needs_vi => 2,
        0 => 1,
        k => k,
    };
    let vi = match k {
        1 => VirtualInputs::None,
        k if k == opt.vcs => VirtualInputs::Ideal,
        k => VirtualInputs::PerPort(k),
    };
    // Derive the router radix from an actual topology instance so
    // `--nodes` works for any valid terminal count, not just the paper's
    // 64 (the fbfly radix grows with the mesh side).
    let radix = match vix::topology::build_topology(opt.topology, opt.nodes) {
        Ok(t) => t.radix(),
        Err(e) => {
            eprintln!("error: invalid configuration: {e}");
            return ExitCode::FAILURE;
        }
    };
    let router = vix::RouterConfig::paper_default(radix)
        .with_vcs(opt.vcs)
        .with_virtual_inputs(vi)
        .with_speculation(opt.speculation)
        .with_dimension_aware_va(opt.dimension_aware)
        .with_age_based_sa(opt.age_based_sa)
        .with_pipeline(if opt.five_stage {
            vix::PipelineKind::FiveStage
        } else {
            vix::PipelineKind::ThreeStage
        });
    let network =
        NetworkConfig { topology: opt.topology, nodes: opt.nodes, router, allocator: opt.allocator };
    let profiling =
        opt.profile_out.is_some() || opt.heartbeat > 0 || opt.heartbeat_out.is_some();
    // --heartbeat-out without an explicit interval samples every 1000
    // cycles; --heartbeat alone streams to stderr live.
    let beat_every = if opt.heartbeat > 0 {
        opt.heartbeat
    } else if opt.heartbeat_out.is_some() {
        1_000
    } else {
        0
    };
    let telemetry = TelemetrySettings::disabled()
        .with_tracing(opt.trace_out.is_some())
        .with_metrics(opt.metrics_out.is_some() && opt.sweep_csv.is_none())
        .with_profiling(profiling)
        .with_heartbeat(beat_every)
        .with_heartbeat_stream(opt.heartbeat > 0);
    let cfg = SimConfig::new(network, opt.rate)
        .with_packet_len(opt.packet_len)
        .with_windows(opt.warmup, opt.measure, opt.drain)
        .with_seed(opt.seed)
        .with_shards(opt.shards)
        .with_telemetry(telemetry);

    if let Some(path) = &opt.sweep_csv {
        if opt.trace_out.is_some() {
            eprintln!("error: --trace-out records a single run; drop --sweep-csv");
            return ExitCode::FAILURE;
        }
        if opt.heartbeat_out.is_some() {
            eprintln!("error: --heartbeat-out records a single run; drop --sweep-csv");
            return ExitCode::FAILURE;
        }
        let (Ok(csv), Ok(metrics_out), Ok(profile_out)) = (
            OutFile::create(path),
            OutFile::create_if(&opt.metrics_out),
            OutFile::create_if(&opt.profile_out),
        ) else {
            return ExitCode::FAILURE;
        };
        let sweep = LoadSweep::new(cfg).with_pattern(opt.pattern.clone()).with_jobs(opt.jobs);
        let sweep = match sweep.run() {
            Ok(sweep) => sweep,
            Err(e) => {
                eprintln!("error: invalid configuration: {e}");
                return ExitCode::FAILURE;
            }
        };
        if csv.finish(|w| sweep.write_csv(w)).is_err() {
            return ExitCode::FAILURE;
        }
        if let Some(out) = metrics_out {
            // Per-rate matching records, in sweep order: deterministic for
            // any --jobs value because each point's stats are.
            let mut doc = String::from("{\"sweep\":[");
            for (i, point) in sweep.points().iter().enumerate() {
                if i > 0 {
                    doc.push(',');
                }
                doc.push_str(&format!(
                    "{{\"rate\":{},\"matching\":{}}}",
                    point.rate,
                    point.stats.matching().to_json()
                ));
            }
            doc.push_str("]}");
            let Ok(mpath) = out.finish(|w| w.write_all(doc.as_bytes())) else {
                return ExitCode::FAILURE;
            };
            println!("wrote per-rate matching metrics to {mpath}");
        }
        if let Some(prof) = sweep.profile() {
            let breakdown = prof.breakdown();
            if let Some(out) = profile_out {
                let Ok(ppath) = out.finish(|w| w.write_all(breakdown.to_json().as_bytes()))
                else {
                    return ExitCode::FAILURE;
                };
                println!("wrote sweep phase breakdown to {ppath}");
            }
            print!("{}", breakdown.render());
        }
        println!(
            "wrote {} sweep points to {path} (saturation {:.4} pkt/node/cycle)",
            sweep.len(),
            sweep.saturation_throughput()
        );
        return ExitCode::SUCCESS;
    }

    let (Ok(trace_out), Ok(metrics_out), Ok(profile_out), Ok(heartbeat_out)) = (
        OutFile::create_if(&opt.trace_out),
        OutFile::create_if(&opt.metrics_out),
        OutFile::create_if(&opt.profile_out),
        OutFile::create_if(&opt.heartbeat_out),
    ) else {
        return ExitCode::FAILURE;
    };
    let sim = match NetworkSim::build_with_pattern(cfg, opt.pattern.clone()) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("error: invalid configuration: {e}");
            return ExitCode::FAILURE;
        }
    };
    vix::telemetry::info!(
        "vixsim: {:?} / {} / {} traffic @ {} pkt/cycle/node, {} VCs, {} virtual input(s)",
        opt.topology,
        opt.allocator.label(),
        opt.pattern.label(),
        opt.rate,
        opt.vcs,
        k
    );
    let (stats, tel) = sim.run_with_telemetry();
    if let Some(out) = trace_out {
        let chrome = out.path.ends_with(".json");
        let Ok(path) = out.finish(|w| {
            if chrome {
                tel.trace_ring().write_chrome_trace(w)
            } else {
                tel.trace_ring().write_jsonl(w)
            }
        }) else {
            return ExitCode::FAILURE;
        };
        println!(
            "wrote {} trace events to {path}{}",
            tel.trace_ring().len(),
            if tel.trace_ring().dropped() > 0 {
                format!(" ({} oldest dropped by the ring)", tel.trace_ring().dropped())
            } else {
                String::new()
            }
        );
    }
    if let Some(out) = metrics_out {
        let doc = format!(
            "{{\"matching\":{},\"registry\":{}}}",
            stats.matching().to_json(),
            tel.registry().to_json()
        );
        let Ok(path) = out.finish(|w| w.write_all(doc.as_bytes())) else {
            return ExitCode::FAILURE;
        };
        println!("wrote metrics to {path}");
    }
    if let Some(prof) = tel.profiler() {
        if let Some(out) = profile_out {
            let chrome = out.path.ends_with(".json");
            let Ok(path) = out.finish(|w| {
                if chrome {
                    prof.write_chrome_trace(w)
                } else {
                    prof.write_spans_jsonl(w)
                }
            }) else {
                return ExitCode::FAILURE;
            };
            println!(
                "wrote engine profile to {path}{}",
                if prof.dropped_spans() > 0 {
                    format!(" ({} oldest spans dropped by the ring)", prof.dropped_spans())
                } else {
                    String::new()
                }
            );
        }
        if let Some(out) = heartbeat_out {
            let Ok(path) = out.finish(|w| prof.write_health_jsonl(w)) else {
                return ExitCode::FAILURE;
            };
            println!("wrote {} heartbeats to {path}", prof.heartbeats().len());
        }
        print!("{}", prof.breakdown().render());
    }
    println!("  offered   {:.4} pkt/node/cycle", stats.offered_packets_per_node_cycle());
    println!("  accepted  {:.4} pkt/node/cycle ({:.4} flits/node/cycle)",
        stats.accepted_packets_per_node_cycle(), stats.accepted_flits_per_node_cycle());
    println!("  latency   avg {:.1}  p50 {}  p99 {}  max {} cycles",
        stats.avg_packet_latency(),
        stats.median_packet_latency().unwrap_or(0),
        stats.p99_packet_latency().unwrap_or(0),
        stats.max_packet_latency());
    println!("  fairness  max/min = {:.2}", stats.fairness_ratio());
    println!(
        "  matching  efficiency {:.4} ({} grants / {} bound over {} allocation cycles)",
        stats.matching().efficiency(),
        stats.matching().grants,
        stats.matching().match_bound,
        stats.matching().cycles
    );
    println!("  packets   {} delivered over {} measured cycles",
        stats.packets_ejected(), stats.measured_cycles());
    ExitCode::SUCCESS
}
