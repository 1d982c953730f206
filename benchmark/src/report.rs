//! The metric catalogue (names, units, direction, bounds, which end-to-end
//! metric each layer metric should move) and the JSON the benchmark prints.

use crate::bench::Measured;
use crate::measure::{Host, Summary};
use std::fmt::Write as _;
use vix_telemetry::json::{self, JsonValue};

/// Measure window of one run in seconds; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 20;
/// Seed of the recorded `sim_digest`s.
pub const DEFAULT_SEED: u64 = 2014;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How two runs of the same code must agree on a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agreement {
    /// Host time: medians within this share of each other.
    Within(f64),
    /// Simulated statistics and counts: identical for a fixed seed.
    Exact,
    /// Reported, not compared (shares and tails of short traced runs).
    Informative,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Crate or module the metric belongs to (`""` for end-to-end).
    pub layer: &'static str,
    pub agreement: Agreement,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    agreement: Agreement,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer: "",
        agreement,
        moves: &[],
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    agreement: Agreement,
    moves: &'static [(&'static str, &'static str)],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer,
        agreement,
        moves,
    }
}

use Agreement::{Exact, Informative, Within};
use Better::{Higher, Lower};

/// End-to-end metrics every workload prints with `--trace 0`; these are
/// `BENCHMARK.json`'s `end_to_end`, with its bounds. The time bounds are
/// the contract's widest: on the recording host (a 2-vCPU VM) the speed of
/// the whole machine drifts by 15-20 % over minutes, so ten runs of the
/// same binary spread 2-5 % in a quiet quarter of an hour and 14-17 % in
/// a busy one. Compare commits in alternating pairs, not across sessions.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, Within(0.25)),
    e2e("wall_s", "s", Lower, Within(0.25)),
    e2e("sim_cycles_per_s", "cycles/s", Higher, Within(0.25)),
    e2e("peak_rss_mb", "MiB", Lower, Within(0.20)),
];

/// End-to-end metrics `run` prints besides [`END_TO_END`]. `fail_share` is
/// always 0 on a healthy tree and the simulated ones exist on some
/// workloads only, which the driver's `end_to_end` list cannot hold; the
/// simulated ones are repeated under the `model` layer of [`PER_LAYER`].
pub const RUN_ONLY: [MetricDef; 5] = [
    e2e("fail_share", "share", Lower, Exact),
    e2e(
        "sim_accepted_flits_per_node_cycle",
        "flits/node/cycle",
        Higher,
        Exact,
    ),
    e2e("sim_latency_cycles", "cycles", Lower, Exact),
    e2e("sim_ipc", "ipc", Higher, Exact),
    e2e("fidelity_gap_pp", "pp", Lower, Exact),
];

const SAT: &str = "mesh64-sat";
const LOW: &str = "mesh64-low";
const SWEEP: &str = "sweep-3topo";
const SHARD: &str = "mesh256-shard";
const MANY: &str = "manycore-mix";

/// Per-layer metrics every workload prints with `--trace 1`, 0 where the
/// workload never enters the layer; `BENCHMARK.json`'s `per_layer`.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: [MetricDef; 60] = [
    // vix_sim::network — engine phases from the public profiler.
    layer("engine.traffic_gen_share", "share", Lower, "engine", Informative, &[("sim_cycles_per_s", LOW)]),
    layer("engine.source_inject_share", "share", Lower, "engine", Informative, &[("sim_cycles_per_s", LOW)]),
    layer("engine.deliver_share", "share", Lower, "engine", Informative, &[("wall_s", SAT)]),
    layer("engine.credit_deliver_share", "share", Lower, "engine", Informative, &[]),
    layer("engine.router_step_share", "share", Lower, "engine", Informative, &[("wall_s", SAT), ("wall_s", SHARD)]),
    layer("engine.exchange_share", "share", Lower, "engine", Informative, &[("wall_s", SHARD)]),
    layer("engine.stats_merge_share", "share", Lower, "engine", Informative, &[("wall_s", SHARD)]),
    layer("engine.barrier_wait_share", "share", Lower, "engine", Informative, &[("wall_s", SHARD)]),
    layer("engine.ns_per_cycle", "ns", Lower, "engine", Informative, &[("sim_cycles_per_s", SAT), ("sim_cycles_per_s", LOW)]),
    layer("engine.router_step_ns_per_step", "ns", Lower, "engine", Informative, &[("wall_s", SAT), ("wall_s", SHARD)]),
    layer("engine.router_steps", "count", Lower, "engine", Exact, &[("sim_cycles_per_s", LOW)]),
    layer("engine.active_router_share", "share", Lower, "engine", Exact, &[("sim_cycles_per_s", LOW)]),
    layer("engine.step_us_p50", "us", Lower, "engine", Informative, &[("wall_s", SAT), ("wall_s", LOW)]),
    layer("engine.step_us_p99", "us", Lower, "engine", Informative, &[("wall_s", SAT)]),
    layer("engine.step_us_max", "us", Lower, "engine", Informative, &[("wall_s", SAT)]),
    layer("engine.build_ms", "ms", Lower, "engine", Informative, &[("wall_s", SWEEP), ("setup_s", SAT)]),
    // vix-router — single-router driver and whole-workload activity counts.
    layer("router.step_ns.r5.if.sat", "ns", Lower, "router", Informative, &[("wall_s", SAT)]),
    layer("router.step_ns.r5.vix.sat", "ns", Lower, "router", Informative, &[("wall_s", SAT), ("wall_s", SHARD)]),
    layer("router.step_ns.r5.vix.light", "ns", Lower, "router", Informative, &[("wall_s", LOW)]),
    layer("router.step_ns.r10.vix.sat", "ns", Lower, "router", Informative, &[("wall_s", SWEEP)]),
    layer("router.buffer_writes", "count", Lower, "router", Exact, &[]),
    layer("router.crossbar_traversals", "count", Higher, "router", Exact, &[]),
    layer("router.sa_arbitrations", "count", Lower, "router", Exact, &[]),
    layer("router.va_arbitrations", "count", Lower, "router", Exact, &[]),
    // vix-alloc (with vix-arbiter inside it).
    layer("alloc.ns_per_call.r5.if", "ns", Lower, "alloc", Informative, &[("wall_s", SAT)]),
    layer("alloc.ns_per_call.r5.vix", "ns", Lower, "alloc", Informative, &[("wall_s", SAT)]),
    layer("alloc.ns_per_call.r8.if", "ns", Lower, "alloc", Informative, &[("wall_s", SWEEP)]),
    layer("alloc.ns_per_call.r8.vix", "ns", Lower, "alloc", Informative, &[("wall_s", SWEEP)]),
    layer("alloc.ns_per_call.r10.if", "ns", Lower, "alloc", Informative, &[("wall_s", SWEEP)]),
    layer("alloc.ns_per_call.r10.vix", "ns", Lower, "alloc", Informative, &[("wall_s", SWEEP)]),
    layer("alloc.matching_efficiency.if", "share", Higher, "alloc", Exact, &[("sim_accepted_flits_per_node_cycle", SWEEP)]),
    layer("alloc.matching_efficiency.vix", "share", Higher, "alloc", Exact, &[("sim_accepted_flits_per_node_cycle", SWEEP), ("fidelity_gap_pp", SWEEP)]),
    layer("alloc.grants", "count", Higher, "alloc", Exact, &[]),
    layer("alloc.allocation_cycles", "count", Lower, "alloc", Exact, &[]),
    layer("channel.pipe_ns_per_item", "ns", Lower, "channel", Informative, &[("wall_s", SAT)]),
    layer("traffic.ns_per_node_cycle.low", "ns", Lower, "traffic", Informative, &[("sim_cycles_per_s", LOW)]),
    layer("traffic.ns_per_node_cycle.sat", "ns", Lower, "traffic", Informative, &[("sim_cycles_per_s", SAT)]),
    layer("topology.build_ms.mesh256", "ms", Lower, "topology", Informative, &[("setup_s", SHARD)]),
    layer("topology.route_ns", "ns", Lower, "topology", Informative, &[("setup_s", SHARD)]),
    layer("stats.percentile_query_us", "us", Lower, "stats", Informative, &[]),
    // vix_sim::shard + barrier.
    layer("shard.speedup_vs_serial", "x", Higher, "shard", Informative, &[("wall_s", SHARD)]),
    layer("shard.barrier_share", "share", Lower, "shard", Informative, &[("wall_s", SHARD)]),
    layer("shard.imbalance_pct", "%", Lower, "shard", Informative, &[("wall_s", SHARD)]),
    layer("shard.busy_ratio_min", "share", Higher, "shard", Informative, &[("wall_s", SHARD)]),
    // vix_sim::runner.
    layer("runner.worker_utilisation", "share", Higher, "runner", Informative, &[("wall_s", SWEEP)]),
    layer("runner.longest_job_share", "share", Lower, "runner", Informative, &[("wall_s", SWEEP)]),
    layer("runner.job_ms_p50", "ms", Lower, "runner", Informative, &[("wall_s", SWEEP)]),
    layer("runner.job_ms_max", "ms", Lower, "runner", Informative, &[("wall_s", SWEEP)]),
    layer("runner.points", "count", Higher, "runner", Exact, &[]),
    // vix-manycore.
    layer("manycore.step_us_p50", "us", Lower, "manycore", Informative, &[("wall_s", MANY)]),
    layer("manycore.step_us_p99", "us", Lower, "manycore", Informative, &[("wall_s", MANY)]),
    layer("manycore.build_ms", "ms", Lower, "manycore", Informative, &[("setup_s", MANY)]),
    layer("manycore.misses_issued", "count", Higher, "manycore", Exact, &[("sim_ipc", MANY)]),
    layer("manycore.memory_requests", "count", Lower, "manycore", Exact, &[("sim_ipc", MANY)]),
    layer("manycore.l2_miss_ratio", "share", Lower, "manycore", Exact, &[("sim_ipc", MANY)]),
    layer("telemetry.prof_overhead_pct", "%", Lower, "telemetry", Informative, &[]),
    // The modelled design: simulated time, identical for a fixed seed.
    layer("sim_accepted_flits_per_node_cycle", "flits/node/cycle", Higher, "model", Exact, &[]),
    layer("sim_latency_cycles", "cycles", Lower, "model", Exact, &[]),
    layer("sim_ipc", "ipc", Higher, "model", Exact, &[]),
    layer("fidelity_gap_pp", "pp", Lower, "model", Exact, &[]),
];

/// The definition of any metric the benchmark prints.
pub fn definition(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&RUN_ONLY)
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
}

/// The contract's naming rule: starts with a letter or digit, at most 64
/// of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A finite JSON number with all its digits (non-finite values become 0:
/// JSON has no NaN).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, the latter holding exactly the metrics of `defs`.
pub fn driver_line(m: &Measured, defs: &[MetricDef]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0,
        m.attempted.max(1),
        m.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let value = m.metrics.get(d.name).map_or(0.0, |s| s.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            number(value),
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// Everything the process measured, for the parent command that spawned
/// it: one line, prefixed `#detail `.
pub fn detail_line(workload: &str, seed: u64, trace: bool, threads: usize, m: &Measured) -> String {
    let mut out = format!(
        "#detail {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"threads\": {threads}, \
         \"load1\": {}, \"digest\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"failures\": [",
        u8::from(trace),
        number(m.load1),
        m.digest,
        m.attempted,
        m.failed
    );
    for (i, f) in m.failures.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", json::escape(f));
    }
    out.push_str("], \"metrics\": {");
    for (i, (name, s)) in m.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
            number(s.value),
            number(s.median),
            number(s.min),
            number(s.max),
            s.n
        );
    }
    out.push_str("}}");
    out
}

/// A child's `#detail` line, parsed back.
#[derive(Debug, Clone)]
pub struct Detail {
    pub workload: String,
    pub digest: String,
    pub load1: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// In the child's (alphabetical) order.
    pub metrics: Vec<(String, Summary)>,
}

impl Detail {
    pub fn parse(line: &str) -> Option<Detail> {
        let v = json::parse(line.strip_prefix("#detail ")?).ok()?;
        let metrics = v
            .get("metrics")?
            .as_object()?
            .iter()
            .map(|(name, s)| {
                Some((
                    name.clone(),
                    Summary {
                        value: s.get("value")?.as_f64()?,
                        median: s.get("median")?.as_f64()?,
                        min: s.get("min")?.as_f64()?,
                        max: s.get("max")?.as_f64()?,
                        n: s.get("n")?.as_u64()? as usize,
                    },
                ))
            })
            .collect::<Option<_>>()?;
        Some(Detail {
            workload: v.get("workload")?.as_str()?.to_string(),
            digest: v.get("digest")?.as_str()?.to_string(),
            load1: v.get("load1")?.as_f64()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            failures: v
                .get("failures")?
                .as_array()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// The table `run` and `trace` print per workload.
pub fn render_table(d: &Detail, digest_status: &str) -> String {
    let mut out = format!(
        "== {} ==  load1 {:.2}  runs {}  failed {}  sim_digest {} ({digest_status})\n",
        d.workload, d.load1, d.attempted, d.failed, d.digest
    );
    for (name, s) in &d.metrics {
        let unit = definition(name).map_or("", |def| def.unit);
        let _ = writeln!(
            out,
            "  {name:<38} {:>16} {unit:<16} median {:<12} min {:<12} max {:<12} n={}",
            short(s.value),
            short(s.median),
            short(s.min),
            short(s.max),
            s.n
        );
    }
    for f in &d.failures {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    out
}

/// Six significant digits for tables (the JSON keeps every digit).
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.001 && v.abs() < 1e7 {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.5e}")
    }
}

/// The self-describing record `--out` writes: what the benchmark is, the
/// host it ran on, and what it measured.
pub fn record_json(
    command: &str,
    seed: u64,
    seconds: f64,
    host: &Host,
    details: &[Detail],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"name\": \"vix-benchmark\",");
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(
        out,
        "  \"commands\": [\"vix-benchmark run\", \"vix-benchmark trace\", \"vix-benchmark selfcheck\"],"
    );
    let _ = writeln!(out, "  \"recorded_by\": \"vix-benchmark {command}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"measure_seconds\": {},", number(seconds));
    let _ = writeln!(
        out,
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"jobs\": {}, \"shards\": {}}},",
        host.nproc,
        json::escape(&host.cpu_model),
        json::escape(&host.rustc),
        json::escape(&host.commit),
        host.threads,
        host.threads
    );
    out.push_str("  \"workloads\": [\n");
    let catalog = crate::workloads::catalog();
    for (i, w) in catalog.iter().enumerate() {
        let sep = if i + 1 == catalog.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name,
            json::escape(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<&MetricDef> = END_TO_END.iter().chain(&RUN_ONLY).collect();
    for (i, d) in e2e.iter().enumerate() {
        let sep = if i + 1 == e2e.len() { "" } else { "," };
        let bound = match d.agreement {
            Within(b) => number(b),
            _ => "\"exact\"".to_string(),
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let moves: Vec<String> = d
            .moves
            .iter()
            .map(|(m, w)| format!("{{\"metric\": \"{m}\", \"workload\": \"{w}\"}}"))
            .collect();
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"layer\": \"{}\", \"moves\": [{}]}}{sep}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.layer,
            moves.join(", ")
        );
    }
    out.push_str("  ],\n  \"results\": [\n");
    for (i, d) in details.iter().enumerate() {
        let sep = if i + 1 == details.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"sim_digest\": \"{}\", \"load1_before\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            d.workload,
            d.digest,
            number(d.load1),
            d.attempted,
            d.failed
        );
        for (j, (name, s)) in d.metrics.iter().enumerate() {
            let msep = if j + 1 == d.metrics.len() { "" } else { "," };
            let unit = definition(name).map_or("", |def| def.unit);
            let _ = writeln!(
                out,
                "      \"{name}\": {{\"value\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"unit\": \"{unit}\"}}{msep}",
                number(s.value),
                number(s.median),
                number(s.min),
                number(s.max),
                s.n
            );
        }
        let _ = writeln!(out, "    }}}}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// `workload → sim_digest` of a record written by [`record_json`].
pub fn recorded_digests(record: &JsonValue) -> Vec<(String, String)> {
    record
        .get("results")
        .and_then(JsonValue::as_array)
        .map(|results| {
            results
                .iter()
                .filter_map(|r| {
                    Some((
                        r.get("workload")?.as_str()?.to_string(),
                        r.get("sim_digest")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root"))
            .unwrap()
    }

    fn listed(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        benchmark_json()
            .get(section)
            .and_then(JsonValue::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                    m.get("better").unwrap().as_str().unwrap().to_string(),
                    m.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_driver_lines_print() {
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = listed(section);
            assert_eq!(listed.len(), defs.len(), "{section}");
            for ((name, unit, better, bound), d) in listed.iter().zip(defs) {
                assert_eq!(
                    (name.as_str(), unit.as_str(), better.as_str()),
                    (d.name, d.unit, d.better.as_str())
                );
                match (section, d.agreement) {
                    ("end_to_end", Within(b)) => assert_eq!(*bound, Some(b), "{name}"),
                    ("end_to_end", _) => panic!("{name}: an end-to-end metric needs a bound"),
                    _ => assert_eq!(*bound, None, "{name}: per-layer metrics have no bound"),
                }
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_workload_catalogue_and_run_length() {
        let doc = benchmark_json();
        let workloads = doc.get("workloads").and_then(JsonValue::as_array).unwrap();
        let catalog = crate::workloads::catalog();
        assert_eq!(workloads.len(), catalog.len());
        for (listed, w) in workloads.iter().zip(&catalog) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(listed.get("why").unwrap().as_str(), Some(w.why));
        }
        assert_eq!(doc.get("run_seconds").unwrap().as_u64(), Some(RUN_SECONDS));
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = Vec::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed_name(d.name), "{}", d.name);
            assert!(!seen.contains(&d.name), "{} listed twice", d.name);
            seen.push(d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                d.name,
                d.unit
            );
            for (metric, workload) in d.moves {
                assert!(
                    definition(metric).is_some_and(|m| m.layer.is_empty() || m.layer == "model"),
                    "{metric}"
                );
                assert!(crate::workloads::by_name(workload).is_some(), "{workload}");
            }
        }
        for d in &RUN_ONLY {
            assert!(well_formed_name(d.name));
        }
        assert!(!well_formed_name("") && !well_formed_name(".x") && !well_formed_name("a b"));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
        let widest = END_TO_END.iter().map(|d| match d.agreement {
            Within(b) => b,
            _ => 0.0,
        });
        assert_eq!(
            widest.fold(0.0, f64::max),
            0.25,
            "setup_s carries the largest bound"
        );
    }

    fn sample() -> Measured {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "wall_s",
            Summary {
                value: 1.0,
                median: 1.25,
                min: 1.0,
                max: 1.5,
                n: 3,
            },
        );
        metrics.insert("setup_s", Summary::exact(0.003));
        Measured {
            metrics,
            attempted: 8,
            failed: 0,
            failures: vec!["a \"quoted\" reason".into()],
            digest: 0xabc,
            load1: 0.5,
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&sample(), &END_TO_END);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|d| d.name));
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("wall_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("wall_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn detail_line_round_trips() {
        let line = detail_line("mesh64-sat", 2014, false, 2, &sample());
        let d = Detail::parse(&line).expect("parses");
        assert_eq!(
            (d.workload.as_str(), d.digest.as_str()),
            ("mesh64-sat", "0000000000000abc")
        );
        assert_eq!(
            d.metric("wall_s"),
            Some(&Summary {
                value: 1.0,
                median: 1.25,
                min: 1.0,
                max: 1.5,
                n: 3
            })
        );
        assert_eq!(d.failures, ["a \"quoted\" reason"]);
        let record = record_json("run", 2014, 12.0, &Host::probe(), &[d]);
        let parsed = json::parse(&record).expect("the record is JSON");
        assert_eq!(
            recorded_digests(&parsed),
            [("mesh64-sat".to_string(), "0000000000000abc".to_string())]
        );
        assert_eq!(
            parsed.get("per_layer").unwrap().as_array().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(short(1234.5678), "1234.57");
        assert_eq!(short(0.0), "0");
        assert_eq!(short(0.000471897), "4.71897e-4");
    }
}
