//! The five named workloads: what each one builds (set-up), what it runs
//! (the timed region), and how a finished run is checked and digested.
//!
//! Every workload uses 4-flit packets, 6 VCs, depth-5 buffers, uniform
//! traffic, `paper_default` routers and the default activity gating. The
//! simulator receives only the generated configuration: the benchmark's
//! `--seed` is expanded to one seed per simulation run with
//! [`vix_sim::derive_seed`], so equal seeds give bit-identical runs.

use crate::measure::Digest;
use vix_core::{
    ActivityCounters, AllocatorKind, ConfigError, NetworkConfig, SimConfig, TelemetrySettings,
    TopologyKind,
};
use vix_manycore::{ManycoreSystem, Mix, SystemResult};
use vix_sim::{derive_seed, LoadSweep, NetworkSim, NetworkStats};
use vix_telemetry::{MatchingSummary, PhaseBreakdown};

/// Simulation windows in cycles. `manycore-mix` uses `warmup` and
/// `measure` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    pub warmup: u64,
    pub measure: u64,
    pub drain: u64,
}

impl Windows {
    pub const fn new(warmup: u64, measure: u64, drain: u64) -> Self {
        Windows {
            warmup,
            measure,
            drain,
        }
    }

    pub fn total(&self) -> u64 {
        self.warmup + self.measure + self.drain
    }
}

/// Offered loads at 95 % of each allocator's 8×8-mesh saturation rate.
pub const IF_SAT_RATE: f64 = 0.095;
pub const VIX_SAT_RATE: f64 = 0.1116;
/// `mesh64-low`: about one router in nine steps in a cycle.
pub const LOW_RATE: f64 = 0.005;
/// `mesh256-shard`: just past the 16×16 mesh's saturation point, so every
/// shard has work every cycle.
pub const SHARD_RATE: f64 = 0.08;
/// `sweep-3topo`: rates as multiples of each topology's nominal
/// saturation rate (pkt/node/cycle).
pub const SWEEP_MULTIPLIERS: [f64; 8] = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.3];
pub const SWEEP_TOPOLOGIES: [(TopologyKind, &str, f64); 3] = [
    (TopologyKind::Mesh, "mesh", 0.11),
    (TopologyKind::CMesh, "cmesh", 0.055),
    (TopologyKind::FlattenedButterfly, "fbfly", 0.165),
];
/// Sweep points at or below this multiple of nominal saturation must
/// deliver what was offered; above it the network may hold a backlog.
const BELOW_SATURATION: f64 = 0.7;
/// Paper §4.3: VIX's saturation-throughput gain over IF on the 8×8 mesh.
pub const PAPER_MESH_GAIN_PCT: f64 = 16.2;
/// `manycore-mix`: indices into [`Mix::table4`] (Mix1 15 MPKI, Mix8 66.8).
pub const MANYCORE_MIXES: [usize; 2] = [0, 7];

const ALLOCATORS: [(AllocatorKind, &str); 2] = [
    (AllocatorKind::InputFirst, "if"),
    (AllocatorKind::Vix, "vix"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mesh64Sat,
    Mesh64Low,
    Sweep3Topo,
    Mesh256Shard,
    ManycoreMix,
}

/// One named workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    pub windows: Windows,
}

/// The benchmark's workloads at their measured sizes. The shapes (nodes,
/// rates, allocators, run counts) are the issue's; the measure windows
/// are scaled so one repeat takes about a second on a 2-core host and ten
/// repeats fit the contract's run length (unscaled windows in comments).
pub fn catalog() -> [Workload; 5] {
    [
        Workload {
            name: "mesh64-sat",
            why: "8x8 mesh, IF then VIX at 95% of saturation: every router busy every cycle, so router and allocator code is ~85% of the work and gating does none",
            kind: Kind::Mesh64Sat,
            windows: Windows::new(2000, 4000, 3000), // issue: 2000/20000/3000
        },
        Workload {
            name: "mesh64-low",
            why: "8x8 mesh, VIX at 0.005 pkt/node/cycle: ~11% of routers step, so per-cycle fixed costs (traffic generation, inject, wake calendar) dominate and dense-request optimisations move nothing",
            kind: Kind::Mesh64Low,
            windows: Windows::new(2000, 300_000, 3000), // issue: 2000/1500000/3000
        },
        Workload {
            name: "sweep-3topo",
            why: "six LoadSweeps, {mesh,cmesh,fbfly} x {IF,VIX}, 8 rates each on the runner pool: the path a user regenerating Fig. 8/12 takes, 48 builds and radix-8/10 allocators",
            kind: Kind::Sweep3Topo,
            windows: Windows::new(600, 1400, 600), // issue: 1000/4000/1500
        },
        Workload {
            name: "mesh256-shard",
            why: "16x16 mesh, VIX, one run sharded over S threads: the only workload where vix_sim::shard and the spin barrier run",
            kind: Kind::Mesh256Shard,
            windows: Windows::new(500, 3000, 1500), // issue: 500/8000/1500
        },
        Workload {
            name: "manycore-mix",
            why: "ManycoreSystem Mix1 and Mix8 x {IF,VIX}: closed-loop request/reply traffic through inject/take_ejections plus cache, MSHR and memory models instead of the open-loop generator",
            kind: Kind::ManycoreMix,
            windows: Windows::new(3000, 8000, 0), // issue: run_windows(3000, 60000)
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    catalog().into_iter().find(|w| w.name == name)
}

/// Whether set-up builds simulators with the engine's self-profiler on
/// (the traced run) or with all telemetry off (end-to-end runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Profiled,
}

/// What set-up hands to the timed region.
#[derive(Debug)]
pub enum Prepared {
    Nets(Vec<NetworkSim>),
    Sweeps(Vec<LoadSweep>),
    Systems(Vec<ManycoreSystem>),
}

/// What the timed region hands back, untouched until the clock stops.
#[derive(Debug)]
pub enum Raw {
    Nets(Vec<NetworkSim>),
    Sweeps(Vec<Result<LoadSweep, ConfigError>>),
    Systems(Vec<SystemResult>),
}

/// One direct network run of a workload.
#[derive(Debug, Clone, Copy)]
pub struct NetSpec {
    pub label: &'static str,
    pub nodes: usize,
    pub alloc: AllocatorKind,
    pub rate: f64,
    /// Shard the run over the benchmark's thread count.
    pub sharded: bool,
    /// The network keeps up with this load, so it must drain and deliver
    /// what was offered.
    pub below_saturation: bool,
}

impl Workload {
    #[cfg(test)]
    pub fn with_windows(mut self, windows: Windows) -> Self {
        self.windows = windows;
        self
    }

    /// The direct `NetworkSim` runs of this workload, in execution order
    /// (empty for the sweep and manycore workloads).
    pub fn net_specs(&self) -> Vec<NetSpec> {
        let spec = |label, nodes, alloc, rate, sharded| NetSpec {
            label,
            nodes,
            alloc,
            rate,
            sharded,
            below_saturation: !sharded,
        };
        match self.kind {
            Kind::Mesh64Sat => vec![
                spec(
                    "mesh64/if",
                    64,
                    AllocatorKind::InputFirst,
                    IF_SAT_RATE,
                    false,
                ),
                spec("mesh64/vix", 64, AllocatorKind::Vix, VIX_SAT_RATE, false),
            ],
            Kind::Mesh64Low => vec![spec("mesh64/vix", 64, AllocatorKind::Vix, LOW_RATE, false)],
            // 0.08 pkt/node/cycle is past the 16x16 mesh's saturation
            // point: the sharded run ends with a backlog by design.
            Kind::Mesh256Shard => vec![spec(
                "mesh256/vix",
                256,
                AllocatorKind::Vix,
                SHARD_RATE,
                true,
            )],
            Kind::Sweep3Topo | Kind::ManycoreMix => Vec::new(),
        }
    }

    /// Configuration of direct run `index`; `shards` applies to sharded
    /// specs only.
    pub fn net_config(
        &self,
        index: usize,
        spec: &NetSpec,
        seed: u64,
        mode: Mode,
        shards: usize,
    ) -> SimConfig {
        let mut net = NetworkConfig::paper_default(TopologyKind::Mesh, spec.alloc);
        net.nodes = spec.nodes;
        let w = self.windows;
        SimConfig::new(net, spec.rate)
            .with_windows(w.warmup, w.measure, w.drain)
            .with_seed(derive_seed(seed, index, 0))
            .with_shards(if spec.sharded { shards } else { 1 })
            .with_telemetry(telemetry(mode))
    }

    /// The six sweep base configurations with their labels and rates, in
    /// execution order: topology-major, IF before VIX.
    pub fn sweep_bases(
        &self,
        seed: u64,
        mode: Mode,
    ) -> Vec<(String, AllocatorKind, SimConfig, Vec<f64>)> {
        let w = self.windows;
        let mut bases = Vec::new();
        for (topology, tname, nominal) in SWEEP_TOPOLOGIES {
            for (alloc, aname) in ALLOCATORS {
                let cfg = SimConfig::new(NetworkConfig::paper_default(topology, alloc), 0.0)
                    .with_windows(w.warmup, w.measure, w.drain)
                    .with_seed(derive_seed(seed, bases.len(), 0))
                    .with_telemetry(telemetry(mode));
                let rates = SWEEP_MULTIPLIERS.iter().map(|m| m * nominal).collect();
                bases.push((format!("{tname}/{aname}"), alloc, cfg, rates));
            }
        }
        bases
    }

    /// The four manycore runs: `(label, mix, allocator, seed)`. Both
    /// allocators of a mix share its seed, so the speed-up compares the
    /// same instruction streams.
    pub fn manycore_specs(&self, seed: u64) -> Vec<(String, Mix, AllocatorKind, u64)> {
        let table = Mix::table4();
        let mut specs = Vec::new();
        for (m, &index) in MANYCORE_MIXES.iter().enumerate() {
            for (alloc, aname) in ALLOCATORS {
                let mix = table[index].clone();
                specs.push((
                    format!("{}/{aname}", mix.name),
                    mix,
                    alloc,
                    derive_seed(seed, m, 0),
                ));
            }
        }
        specs
    }

    /// Set-up: generates the inputs from `seed` and makes every `build`
    /// call that happens outside the timed region. The sweep builds its
    /// 48 points inside the timed region (as a user's sweep does); its
    /// set-up builds each of the six base configurations once to validate
    /// them before the long run starts.
    pub fn prepare(&self, seed: u64, mode: Mode, threads: usize) -> Result<Prepared, ConfigError> {
        match self.kind {
            Kind::Mesh64Sat | Kind::Mesh64Low | Kind::Mesh256Shard => self
                .net_specs()
                .iter()
                .enumerate()
                .map(|(i, spec)| NetworkSim::build(self.net_config(i, spec, seed, mode, threads)))
                .collect::<Result<_, _>>()
                .map(Prepared::Nets),
            Kind::Sweep3Topo => self
                .sweep_bases(seed, mode)
                .into_iter()
                .map(|(_, _, cfg, rates)| {
                    NetworkSim::build(SimConfig {
                        injection_rate: rates[0],
                        ..cfg
                    })?;
                    Ok(LoadSweep::new(cfg).with_rates(&rates).with_jobs(threads))
                })
                .collect::<Result<_, _>>()
                .map(Prepared::Sweeps),
            Kind::ManycoreMix => Ok(Prepared::Systems(
                self.manycore_specs(seed)
                    .iter()
                    .map(|(_, mix, alloc, seed)| ManycoreSystem::build(mix, *alloc, *seed))
                    .collect(),
            )),
        }
    }

    /// The timed region: runs everything set-up built, back to back.
    pub fn execute(&self, prepared: Prepared) -> Raw {
        match prepared {
            Prepared::Nets(mut sims) => {
                for sim in &mut sims {
                    sim.run_cycles(self.windows.total());
                }
                Raw::Nets(sims)
            }
            Prepared::Sweeps(sweeps) => {
                Raw::Sweeps(sweeps.into_iter().map(LoadSweep::run).collect())
            }
            Prepared::Systems(mut systems) => Raw::Systems(
                systems
                    .iter_mut()
                    .map(|s| s.run_windows(self.windows.warmup, self.windows.measure))
                    .collect(),
            ),
        }
    }

    /// Simulated cycles one repeat advances, summed over its runs.
    pub fn sim_cycles(&self) -> u64 {
        let runs = match self.kind {
            Kind::Mesh64Sat => 2,
            Kind::Mesh64Low | Kind::Mesh256Shard => 1,
            Kind::Sweep3Topo => {
                (SWEEP_TOPOLOGIES.len() * ALLOCATORS.len() * SWEEP_MULTIPLIERS.len()) as u64
            }
            Kind::ManycoreMix => (MANYCORE_MIXES.len() * ALLOCATORS.len()) as u64,
        };
        runs * self.windows.total()
    }

    /// Checks and digests a finished repeat (outside the timed region).
    pub fn analyze(&self, raw: &Raw, seed: u64) -> Outcome {
        let runs: Vec<RunRecord> = match raw {
            Raw::Nets(sims) => self
                .net_specs()
                .iter()
                .zip(sims)
                .map(|(spec, sim)| net_record(spec.label, spec.alloc, sim, spec.below_saturation))
                .collect(),
            Raw::Sweeps(sweeps) => self
                .sweep_bases(seed, Mode::Plain)
                .iter()
                .zip(sweeps)
                .flat_map(|((label, alloc, ..), sweep)| sweep_records(label, *alloc, sweep))
                .collect(),
            Raw::Systems(results) => self
                .manycore_specs(seed)
                .iter()
                .zip(results)
                .map(|((label, _, alloc, _), result)| {
                    system_record(label, *alloc, result, self.windows.measure)
                })
                .collect(),
        };
        let headline = self.headline(&runs, seed);
        Outcome { runs, headline }
    }

    /// The simulated-time results a user reads off this workload.
    fn headline(&self, runs: &[RunRecord], seed: u64) -> Headline {
        let mut h = Headline::default();
        match self.kind {
            Kind::Mesh64Sat | Kind::Mesh64Low | Kind::Mesh256Shard => {
                if let Some(vix) = runs.iter().find(|r| r.vix) {
                    h.accepted = Some(vix.accepted_flits);
                    h.latency = Some(vix.latency);
                }
            }
            Kind::Sweep3Topo => {
                let saturation = |prefix: &str| {
                    runs.iter()
                        .filter(|r| r.label.starts_with(prefix))
                        .map(|r| r.accepted_flits)
                        .fold(0.0, f64::max)
                };
                let (base, vix) = (saturation("mesh/if@"), saturation("mesh/vix@"));
                h.accepted = Some(vix);
                h.latency = runs
                    .iter()
                    .find(|r| r.label.starts_with("mesh/vix@"))
                    .map(|r| r.latency);
                if base > 0.0 {
                    h.fidelity_gap_pp =
                        Some(((vix / base - 1.0) * 100.0 - PAPER_MESH_GAIN_PCT).abs());
                }
            }
            Kind::ManycoreMix => {
                let ipc = |r: &RunRecord| r.system.as_ref().map_or(0.0, SystemResult::total_ipc);
                let vix: Vec<f64> = runs.iter().filter(|r| r.vix).map(ipc).collect();
                let base: Vec<f64> = runs.iter().filter(|r| !r.vix).map(ipc).collect();
                if !vix.is_empty() && vix.len() == base.len() && base.iter().all(|&b| b > 0.0) {
                    h.ipc = Some(vix.iter().sum::<f64>() / vix.len() as f64);
                    let geomean =
                        |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
                    let speedups: Vec<f64> = vix.iter().zip(&base).map(|(v, b)| v / b).collect();
                    let paper: Vec<f64> = self
                        .manycore_specs(seed)
                        .iter()
                        .filter(|(_, _, alloc, _)| *alloc == AllocatorKind::Vix)
                        .map(|(_, mix, ..)| mix.paper_speedup)
                        .collect();
                    h.fidelity_gap_pp = Some((geomean(&speedups) - geomean(&paper)).abs() * 100.0);
                }
            }
        }
        h
    }
}

fn telemetry(mode: Mode) -> TelemetrySettings {
    TelemetrySettings::disabled().with_profiling(mode == Mode::Profiled)
}

/// One simulation run of a repeat, checked and digested.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub label: String,
    pub vix: bool,
    pub digest: u64,
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
    /// Accepted flits/node/cycle in the measurement window (network runs).
    pub accepted_flits: f64,
    /// Mean packet latency in cycles (network runs).
    pub latency: f64,
    pub activity: ActivityCounters,
    pub matching: MatchingSummary,
    /// `Router::step_into` calls and router count; 0 where the public API
    /// does not expose them (sweep points run by `LoadSweep`, manycore).
    pub router_steps: u64,
    pub routers: u64,
    /// Engine phase breakdown when the run was built with profiling on.
    pub phases: Option<PhaseBreakdown>,
    pub system: Option<SystemResult>,
}

impl RunRecord {
    /// A record with nothing measured yet.
    fn empty(label: &str, alloc: AllocatorKind) -> Self {
        RunRecord {
            label: label.to_string(),
            vix: alloc == AllocatorKind::Vix,
            digest: 0,
            failure: None,
            accepted_flits: 0.0,
            latency: 0.0,
            activity: ActivityCounters::new(),
            matching: MatchingSummary::default(),
            router_steps: 0,
            routers: 0,
            phases: None,
            system: None,
        }
    }
}

/// Simulated-time headline numbers; `None` where a workload has none.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Headline {
    pub accepted: Option<f64>,
    pub latency: Option<f64>,
    pub ipc: Option<f64>,
    pub fidelity_gap_pp: Option<f64>,
}

impl Headline {
    /// The headline numbers under their metric names.
    pub fn metrics(&self) -> [(&'static str, Option<f64>); 4] {
        [
            ("sim_accepted_flits_per_node_cycle", self.accepted),
            ("sim_latency_cycles", self.latency),
            ("sim_ipc", self.ipc),
            ("fidelity_gap_pp", self.fidelity_gap_pp),
        ]
    }
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub runs: Vec<RunRecord>,
    pub headline: Headline,
}

impl Outcome {
    /// Hash of every run's digest, in run order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for r in &self.runs {
            d.word(r.digest);
        }
        d.finish()
    }

    #[cfg(test)]
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.failure.is_some()).count()
    }
}

/// Checks one network run's conservation laws and hashes its results.
///
/// `below_saturation` runs must have delivered what was offered: after the
/// drain window no flit may remain (`drained`, or — for sweep points,
/// where the simulator is out of reach — every buffered flit was read
/// again) and the window's accepted packets must match its offered packets
/// up to the packets in flight at the window's two edges.
fn check_and_digest(
    stats: &NetworkStats,
    activity: &ActivityCounters,
    matching: &MatchingSummary,
    drained: Option<bool>,
    below_saturation: bool,
) -> (u64, Option<String>) {
    let len = stats.packet_len() as u64;
    let mut failure = None;
    let mut fail = |why: String| {
        failure.get_or_insert(why);
    };
    if stats.packets_ejected() == 0 {
        fail("no packet was delivered in the measurement window".into());
    }
    if activity.buffer_reads > activity.buffer_writes
        || activity.crossbar_traversals != activity.buffer_reads
        || activity.ejections + activity.link_traversals != activity.crossbar_traversals
    {
        fail(format!("flit conservation violated: {activity:?}"));
    }
    // At each edge of the window a node can hold one partly ejected
    // packet per VC, so flits and packets x length differ by at most that.
    let edge = 2 * stats.nodes() as u64 * 6 * len;
    if stats
        .flits_ejected()
        .abs_diff(stats.packets_ejected() * len)
        > edge
    {
        fail(format!(
            "flits {} != packets {} x length {len}",
            stats.flits_ejected(),
            stats.packets_ejected()
        ));
    }
    if below_saturation {
        let whole_packets = activity.ejections.is_multiple_of(len)
            && activity.buffer_reads == activity.buffer_writes;
        if drained == Some(false) || !whole_packets {
            fail("network not drained after the drain window below saturation".into());
        }
        let offered = stats.offered_packets_per_node_cycle()
            * stats.measured_cycles() as f64
            * stats.nodes() as f64;
        let delivered = stats.packets_ejected() as f64;
        if (offered - delivered).abs() > (0.02 * offered).max(edge as f64) {
            fail(format!(
                "offered {offered} != delivered {delivered} below saturation"
            ));
        }
    }

    let mut d = Digest::new();
    d.word(stats.packets_ejected());
    d.word(stats.flits_ejected());
    for &p in stats.per_source_packets() {
        d.word(p);
    }
    // The latency sum is avg x packets; hash the exact operands instead.
    d.float(stats.avg_packet_latency());
    d.word(stats.max_packet_latency());
    d.float(stats.offered_packets_per_node_cycle());
    for w in [
        activity.cycles,
        activity.routers,
        activity.buffer_writes,
        activity.buffer_reads,
        activity.crossbar_traversals,
        activity.link_traversals,
        activity.ejections,
        activity.sa_arbitrations,
        activity.va_arbitrations,
        activity.bits_delivered,
        matching.cycles,
        matching.requests,
        matching.survivors,
        matching.grants,
        matching.match_bound,
        matching.virtual_inputs,
    ] {
        d.word(w);
    }
    (d.finish(), failure)
}

/// Record of a network run from its statistics and whole-run counters.
fn network_record(
    label: &str,
    alloc: AllocatorKind,
    stats: &NetworkStats,
    activity: ActivityCounters,
    matching: MatchingSummary,
    drained: Option<bool>,
    below_saturation: bool,
) -> RunRecord {
    let (digest, failure) =
        check_and_digest(stats, &activity, &matching, drained, below_saturation);
    RunRecord {
        digest,
        failure,
        accepted_flits: stats.accepted_flits_per_node_cycle(),
        latency: stats.avg_packet_latency(),
        activity,
        matching,
        ..RunRecord::empty(label, alloc)
    }
}

/// Record of a simulator the benchmark ran itself (`run_cycles` done).
pub fn net_record(
    label: &str,
    alloc: AllocatorKind,
    sim: &NetworkSim,
    below_saturation: bool,
) -> RunRecord {
    RunRecord {
        router_steps: sim.router_steps(),
        routers: sim.topology().routers() as u64,
        phases: sim
            .telemetry()
            .profiler()
            .map(vix_telemetry::Profiler::breakdown),
        ..network_record(
            label,
            alloc,
            sim.stats(),
            sim.aggregate_activity(),
            sim.matching_summary(),
            Some(sim.is_drained()),
            below_saturation,
        )
    }
}

/// Label of sweep point `index` of the sweep called `sweep`.
pub fn sweep_point_label(sweep: &str, index: usize) -> String {
    format!("{sweep}@{}", SWEEP_MULTIPLIERS[index])
}

/// Whether sweep point `index` must deliver everything offered.
pub fn sweep_point_below_saturation(index: usize) -> bool {
    SWEEP_MULTIPLIERS[index] <= BELOW_SATURATION
}

fn sweep_records(
    label: &str,
    alloc: AllocatorKind,
    sweep: &Result<LoadSweep, ConfigError>,
) -> Vec<RunRecord> {
    let failed = |index: usize, why: String| RunRecord {
        failure: Some(why),
        ..RunRecord::empty(&sweep_point_label(label, index), alloc)
    };
    match sweep {
        Err(e) => (0..SWEEP_MULTIPLIERS.len())
            .map(|i| failed(i, format!("sweep failed: {e}")))
            .collect(),
        Ok(sweep) if sweep.len() != SWEEP_MULTIPLIERS.len() => (0..SWEEP_MULTIPLIERS.len())
            .map(|i| failed(i, format!("sweep returned {} points", sweep.len())))
            .collect(),
        Ok(sweep) => sweep
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                stats_record(
                    &sweep_point_label(label, i),
                    alloc,
                    &p.stats,
                    sweep_point_below_saturation(i),
                )
            })
            .collect(),
    }
}

/// Record of a run known only by its final statistics (a sweep point).
fn stats_record(
    label: &str,
    alloc: AllocatorKind,
    stats: &NetworkStats,
    below_saturation: bool,
) -> RunRecord {
    network_record(
        label,
        alloc,
        stats,
        *stats.activity(),
        *stats.matching(),
        None,
        below_saturation,
    )
}

fn system_record(
    label: &str,
    alloc: AllocatorKind,
    result: &SystemResult,
    measure: u64,
) -> RunRecord {
    let mut failure = None;
    if result.cycles != measure || result.per_core_ipc.len() != 64 {
        failure = Some(format!(
            "ran {} cycles on {} cores",
            result.cycles,
            result.per_core_ipc.len()
        ));
    } else if result
        .per_core_ipc
        .iter()
        .any(|&ipc| !(ipc > 0.0 && ipc <= 2.0))
    {
        failure = Some("a core's IPC is outside (0, 2]".to_string());
    } else if result.misses_issued == 0 || result.memory_requests > result.misses_issued {
        failure = Some(format!(
            "{} misses issued, {} memory requests",
            result.misses_issued, result.memory_requests
        ));
    }
    let mut d = Digest::new();
    for &ipc in &result.per_core_ipc {
        d.float(ipc);
    }
    d.word(result.misses_issued);
    d.word(result.writebacks_issued);
    d.word(result.memory_requests);
    d.float(result.l2_miss_ratio);
    RunRecord {
        digest: d.finish(),
        failure,
        system: Some(result.clone()),
        ..RunRecord::empty(label, alloc)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Windows small enough for `cargo test` (tens of milliseconds).
    pub(crate) fn tiny(w: Workload) -> Workload {
        w.with_windows(match w.kind {
            Kind::Mesh64Low => Windows::new(200, 4000, 600),
            Kind::ManycoreMix => Windows::new(200, 600, 0),
            _ => Windows::new(200, 400, 600),
        })
    }

    pub(crate) fn run_once(w: &Workload, seed: u64) -> Outcome {
        let prepared = w
            .prepare(seed, Mode::Plain, 2)
            .expect("benchmark configurations are valid");
        w.analyze(&w.execute(prepared), seed)
    }

    #[test]
    fn every_workload_runs_clean_repeats_exactly_and_follows_its_seed() {
        for w in catalog().map(tiny) {
            let first = run_once(&w, 2014);
            assert_eq!(
                first.failed(),
                0,
                "{}: {:?}",
                w.name,
                first.runs.iter().find_map(|r| r.failure.clone())
            );
            assert_eq!(
                first.runs.len() as u64 * w.windows.total(),
                w.sim_cycles(),
                "{}",
                w.name
            );
            let again = run_once(&w, 2014);
            assert_eq!(
                first.digest(),
                again.digest(),
                "{}: same seed, same digest",
                w.name
            );
            assert_eq!(first.headline, again.headline);
            let other = run_once(&w, 2015);
            assert_ne!(
                first.digest(),
                other.digest(),
                "{}: a new seed changes the digest",
                w.name
            );
            for (a, b) in first.runs.iter().zip(&other.runs) {
                assert_ne!(
                    a.digest, b.digest,
                    "{} {}: every run follows the seed",
                    w.name, a.label
                );
            }
        }
    }

    #[test]
    fn headlines_are_defined_where_the_issue_defines_them() {
        for w in catalog().map(tiny) {
            let h = run_once(&w, 7).headline;
            let network = w.kind != Kind::ManycoreMix;
            assert_eq!(h.accepted.is_some(), network, "{}", w.name);
            assert_eq!(h.latency.is_some(), network, "{}", w.name);
            assert_eq!(h.ipc.is_some(), w.kind == Kind::ManycoreMix, "{}", w.name);
            let has_reference = matches!(w.kind, Kind::Sweep3Topo | Kind::ManycoreMix);
            assert_eq!(h.fidelity_gap_pp.is_some(), has_reference, "{}", w.name);
        }
    }

    #[test]
    fn a_broken_conservation_law_fails_the_run() {
        let w = tiny(by_name("mesh64-low").unwrap());
        let Prepared::Nets(mut sims) = w.prepare(1, Mode::Plain, 1).unwrap() else {
            unreachable!()
        };
        // Stop before the drain window ends: flits are still in flight,
        // which a below-saturation run must report as a failure.
        sims[0].run_cycles(w.windows.warmup + w.windows.measure);
        sims[0].inject(vix_core::NodeId(0), vix_core::NodeId(63), 4, 0);
        sims[0].run_cycles(2);
        let record = net_record("cut-short", AllocatorKind::Vix, &sims[0], true);
        assert!(record.failure.is_some());
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let names: Vec<&str> = catalog().iter().map(|w| w.name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(crate::report::well_formed_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} listed twice");
            let w = by_name(n).unwrap();
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{n}: why must be one short line"
            );
        }
    }
}
