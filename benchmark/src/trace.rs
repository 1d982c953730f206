//! The traced run of one workload: the same work as the end-to-end run,
//! but with the engine's public self-profiler on, benchmark-owned spans
//! around every call into a layer, per-step timing, twin runs that check
//! parallel results against serial ones, and the layer probes.
//!
//! It yields every per-layer metric and `out/trace.<workload>.jsonl`.

use crate::bench::{account, prepare, repeat, Measured};
use crate::measure::{fastest, percentile_sorted, Summary};
use crate::probes;
use crate::report::PER_LAYER;
use crate::spans::Recorder;
use crate::workloads::{
    net_record, sweep_point_below_saturation, sweep_point_label, Headline, Kind, Mode, Outcome,
    Prepared, RunRecord, Workload,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use vix_core::SimConfig;
use vix_manycore::ManycoreSystem;
use vix_sim::{derive_seed, parallel_map, NetworkSim};
use vix_telemetry::{SpanKind, ENGINE_TRACK};

/// Plain/profiled pairs a traced run makes at least and at most (even:
/// pairs alternate their order).
const MIN_PAIRS: usize = 2;
const MAX_PAIRS: usize = 6;

struct Tracer<'a> {
    w: &'a Workload,
    seed: u64,
    threads: usize,
    rec: &'a Recorder,
    root: u32,
    measured: Measured,
    values: BTreeMap<&'static str, f64>,
    reference: Option<Outcome>,
    /// Seconds per `NetworkSim::build` / `ManycoreSystem::build` call.
    net_builds: Vec<f64>,
    system_builds: Vec<f64>,
}

/// Span names of a workload's set-up and timed region: the layer the
/// benchmark calls into.
fn span_names(kind: Kind) -> (&'static str, &'static str) {
    match kind {
        Kind::Mesh64Sat | Kind::Mesh64Low => ("engine.build", "engine.run"),
        Kind::Mesh256Shard => ("engine.build", "shard.run"),
        Kind::Sweep3Topo => ("runner.setup", "runner.sweep"),
        Kind::ManycoreMix => ("manycore.build", "manycore.run"),
    }
}

impl Tracer<'_> {
    /// Set-up plus one repeat under spans (`run_name` names the layer the
    /// timed region calls into); returns the outcome and the timed
    /// region's wall seconds.
    fn spanned_repeat(
        &mut self,
        mode: Mode,
        threads: usize,
        run_name: &str,
    ) -> Result<(Option<Outcome>, f64), String> {
        let (w, seed, rec, root) = (self.w, self.seed, self.rec, self.root);
        let (prepared, setup_s) = rec.scope(span_names(w.kind).0, Some(root), |_| {
            prepare(w, seed, mode, threads)
        });
        let prepared = prepared?;
        match &prepared {
            Prepared::Nets(sims) => self.net_builds.push(setup_s / sims.len() as f64),
            Prepared::Sweeps(sweeps) => self.net_builds.push(setup_s / sweeps.len() as f64),
            Prepared::Systems(systems) => self.system_builds.push(setup_s / systems.len() as f64),
        }
        let ((outcome, wall), _) = rec.scope(run_name, Some(root), |_| repeat(w, prepared, seed));
        self.account(&outcome);
        Ok((outcome, wall))
    }

    /// Failure accounting; every repeat, replay and twin must reproduce
    /// the first repeat's digests run by run.
    fn account(&mut self, outcome: &Option<Outcome>) {
        account(self.w, outcome, self.reference.as_ref(), &mut self.measured);
        if self.reference.is_none() {
            self.reference.clone_from(outcome);
        }
    }

    /// `sweep-3topo` only: the same 48 points through `parallel_map` with
    /// `derive_seed` seeds, a span per job, profiling on.
    fn replay_sweep(&mut self) -> Result<(Vec<RunRecord>, f64), String> {
        let total = self.w.windows.total();
        let mut records = Vec::new();
        let (mut job_ms, mut region_s) = (Vec::new(), 0.0);
        let rec = self.rec;
        for (label, alloc, base, rates) in self.w.sweep_bases(self.seed, Mode::Profiled) {
            let (results, secs) = rec.scope("runner.sweep", Some(self.root), |sweep_span| {
                parallel_map(self.threads, &rates, |i, &rate| {
                    let cfg = SimConfig {
                        injection_rate: rate,
                        ..base
                    }
                    .with_seed(derive_seed(base.seed, i, 0));
                    let (result, job_s) = rec.scope("runner.job", Some(sweep_span), |job| {
                        let (sim, build_s) =
                            rec.scope("engine.build", Some(job), |_| NetworkSim::build(cfg));
                        sim.map(|mut sim| {
                            rec.scope("engine.run", Some(job), |_| sim.run_cycles(total));
                            let point = sweep_point_label(&label, i);
                            (
                                net_record(&point, alloc, &sim, sweep_point_below_saturation(i)),
                                build_s,
                            )
                        })
                    });
                    result.map(|(record, build_s)| (record, build_s, job_s))
                })
            });
            region_s += secs;
            for result in results {
                let (record, build_s, job_s) =
                    result.map_err(|e| format!("sweep replay failed: {e}"))?;
                self.net_builds.push(build_s);
                job_ms.push(job_s * 1e3);
                records.push(record);
            }
        }
        job_ms.sort_by(f64::total_cmp);
        let busy_s = job_ms.iter().sum::<f64>() / 1e3;
        let workers = self.threads.min(crate::workloads::SWEEP_MULTIPLIERS.len()) as f64;
        self.values
            .insert("runner.worker_utilisation", busy_s / (workers * region_s));
        self.values.insert(
            "runner.longest_job_share",
            job_ms[job_ms.len() - 1] / 1e3 / region_s,
        );
        self.values
            .insert("runner.job_ms_p50", percentile_sorted(&job_ms, 50.0));
        self.values
            .insert("runner.job_ms_max", job_ms[job_ms.len() - 1]);
        self.values.insert("runner.points", job_ms.len() as f64);
        Ok((records, region_s))
    }

    /// Serial network workloads: every `NetworkSim::step()` timed.
    fn time_engine_steps(&mut self) -> Result<(), String> {
        let prepared = prepare(self.w, self.seed, Mode::Plain, 1)?;
        let Prepared::Nets(mut sims) = prepared else {
            return Ok(());
        };
        let total = self.w.windows.total();
        let (us, _) = self.rec.scope("engine.step_loop", Some(self.root), |_| {
            let mut us: Vec<f64> = sims
                .iter_mut()
                .flat_map(|sim| probes::time_steps(total, || sim.step()))
                .collect();
            us.sort_by(f64::total_cmp);
            us
        });
        self.values
            .insert("engine.step_us_p50", percentile_sorted(&us, 50.0));
        self.values
            .insert("engine.step_us_p99", percentile_sorted(&us, 99.0));
        self.values.insert("engine.step_us_max", us[us.len() - 1]);
        Ok(())
    }

    /// `manycore-mix`: every `ManycoreSystem::step()` of one VIX system on
    /// the memory-intensive mix timed.
    fn time_manycore_steps(&mut self) {
        let specs = self.w.manycore_specs(self.seed);
        let (_, mix, alloc, seed) = &specs[specs.len() - 1];
        let mut system = ManycoreSystem::build(mix, *alloc, *seed);
        let cycles = self.w.windows.warmup + self.w.windows.measure;
        let (us, _) = self.rec.scope("manycore.step_loop", Some(self.root), |_| {
            probes::time_steps(cycles, || system.step())
        });
        self.values
            .insert("manycore.step_us_p50", percentile_sorted(&us, 50.0));
        self.values
            .insert("manycore.step_us_p99", percentile_sorted(&us, 99.0));
    }

    /// Per-layer values read off the runs of one profiled repeat.
    fn record_runs(&mut self, runs: &[RunRecord]) {
        let sum = |f: &dyn Fn(&RunRecord) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        self.values
            .insert("router.buffer_writes", sum(&|r| r.activity.buffer_writes));
        self.values.insert(
            "router.crossbar_traversals",
            sum(&|r| r.activity.crossbar_traversals),
        );
        self.values.insert(
            "router.sa_arbitrations",
            sum(&|r| r.activity.sa_arbitrations),
        );
        self.values.insert(
            "router.va_arbitrations",
            sum(&|r| r.activity.va_arbitrations),
        );
        self.values
            .insert("alloc.grants", sum(&|r| r.matching.grants));
        self.values
            .insert("alloc.allocation_cycles", sum(&|r| r.matching.cycles));
        for (name, vix) in [
            ("alloc.matching_efficiency.if", false),
            ("alloc.matching_efficiency.vix", true),
        ] {
            let mut merged = vix_telemetry::MatchingSummary::default();
            runs.iter()
                .filter(|r| r.vix == vix)
                .for_each(|r| merged.merge(&r.matching));
            self.values.insert(
                name,
                if merged.cycles == 0 {
                    0.0
                } else {
                    merged.efficiency()
                },
            );
        }

        let steps = sum(&|r| r.router_steps);
        let slots = sum(&|r| r.routers * self.w.windows.total());
        self.values.insert("engine.router_steps", steps);
        self.values.insert(
            "engine.active_router_share",
            if slots > 0.0 { steps / slots } else { 0.0 },
        );

        let mut phase_ns = [0u64; SpanKind::COUNT];
        let (mut busy, mut barrier) = (Vec::new(), Vec::new());
        for phases in runs.iter().filter_map(|r| r.phases.as_ref()) {
            for kind in SpanKind::ALL {
                phase_ns[kind as usize] += phases.totals[kind as usize].total_ns;
            }
            for track in phases.per_track.iter().filter(|t| t.track != ENGINE_TRACK) {
                busy.push(track.busy_ns as f64);
                barrier.push(track.barrier_ns as f64);
            }
        }
        let accounted = phase_ns.iter().sum::<u64>() as f64;
        if accounted > 0.0 {
            const SHARES: [&str; SpanKind::COUNT] = [
                "engine.traffic_gen_share",
                "engine.source_inject_share",
                "engine.deliver_share",
                "engine.credit_deliver_share",
                "engine.router_step_share",
                "engine.exchange_share",
                "engine.stats_merge_share",
                "engine.barrier_wait_share",
            ];
            for kind in SpanKind::ALL {
                self.values.insert(
                    SHARES[kind as usize],
                    phase_ns[kind as usize] as f64 / accounted,
                );
            }
            if steps > 0.0 {
                self.values.insert(
                    "engine.router_step_ns_per_step",
                    phase_ns[SpanKind::RouterStep as usize] as f64 / steps,
                );
            }
        }
        if busy.len() > 1 {
            let (busy_sum, barrier_sum): (f64, f64) = (busy.iter().sum(), barrier.iter().sum());
            let max = busy.iter().copied().fold(0.0, f64::max);
            let min = busy.iter().copied().fold(f64::INFINITY, f64::min);
            let ratio_min = busy
                .iter()
                .zip(&barrier)
                .map(|(b, w)| b / (b + w).max(1.0))
                .fold(f64::INFINITY, f64::min);
            self.values.insert(
                "shard.barrier_share",
                barrier_sum / (busy_sum + barrier_sum).max(1.0),
            );
            self.values.insert(
                "shard.imbalance_pct",
                if max > 0.0 {
                    (max - min) / max * 100.0
                } else {
                    0.0
                },
            );
            self.values.insert("shard.busy_ratio_min", ratio_min);
        }

        let systems: Vec<_> = runs.iter().filter_map(|r| r.system.as_ref()).collect();
        if !systems.is_empty() {
            let n = systems.len() as f64;
            self.values.insert(
                "manycore.misses_issued",
                systems.iter().map(|s| s.misses_issued).sum::<u64>() as f64,
            );
            self.values.insert(
                "manycore.memory_requests",
                systems.iter().map(|s| s.memory_requests).sum::<u64>() as f64,
            );
            self.values.insert(
                "manycore.l2_miss_ratio",
                systems.iter().map(|s| s.l2_miss_ratio).sum::<f64>() / n,
            );
        }
    }
}

impl Tracer<'_> {
    /// The whole traced run; `seconds` bounds the plain/profiled pairs.
    fn run(&mut self, seconds: f64) -> Result<(), String> {
        let started = Instant::now();
        let run_name = span_names(self.w.kind).1;
        let (mut plain, mut profiled) = (Vec::new(), Vec::new());
        let mut profiled_runs = None;
        // One discarded repeat, as in the end-to-end run.
        self.spanned_repeat(Mode::Plain, self.threads, run_name)?;
        for pair in 0..MAX_PAIRS {
            let pair_start = Instant::now();
            // Plain-profiled, then profiled-plain: over two pairs a steady
            // drift of the host's speed cancels.
            for mode in if pair % 2 == 0 {
                [Mode::Plain, Mode::Profiled]
            } else {
                [Mode::Profiled, Mode::Plain]
            } {
                match (mode, self.w.kind) {
                    (Mode::Plain, _) => {
                        plain.push(self.spanned_repeat(Mode::Plain, self.threads, run_name)?.1);
                    }
                    // `ManycoreSystem` builds its network with telemetry
                    // off and keeps it private: no profiled variant.
                    (Mode::Profiled, Kind::ManycoreMix) => {}
                    (Mode::Profiled, Kind::Sweep3Topo) => {
                        let (runs, wall) = self.replay_sweep()?;
                        profiled.push(wall);
                        let replay = Some(Outcome {
                            runs,
                            headline: Headline::default(),
                        });
                        self.account(&replay);
                        profiled_runs = replay.map(|o| o.runs);
                    }
                    (Mode::Profiled, _) => {
                        let (outcome, wall) =
                            self.spanned_repeat(Mode::Profiled, self.threads, run_name)?;
                        profiled.push(wall);
                        profiled_runs = outcome.map(|o| o.runs);
                    }
                }
            }
            let next_ends = started.elapsed() + 2 * pair_start.elapsed();
            if pair % 2 == 1 && pair + 1 >= MIN_PAIRS && next_ends.as_secs_f64() > seconds * 0.8 {
                break;
            }
        }

        let plain_s = fastest(&plain);
        self.values.insert(
            "engine.ns_per_cycle",
            plain_s * 1e9 / self.w.sim_cycles() as f64,
        );
        if !profiled.is_empty() {
            self.values.insert(
                "telemetry.prof_overhead_pct",
                (fastest(&profiled) / plain_s - 1.0) * 100.0,
            );
        }
        match profiled_runs.or_else(|| self.reference.as_ref().map(|o| o.runs.clone())) {
            Some(runs) => self.record_runs(&runs),
            None => return Err(format!("{}: no repeat finished", self.w.name)),
        }

        // Twins on one thread: same digests, and the parallel speed-up.
        match self.w.kind {
            Kind::Mesh256Shard => {
                let (_, serial_s) = self.spanned_repeat(Mode::Plain, 1, "engine.run")?;
                self.values
                    .insert("shard.speedup_vs_serial", serial_s / plain_s);
            }
            Kind::Sweep3Topo => {
                self.spanned_repeat(Mode::Plain, 1, run_name)?;
            }
            Kind::Mesh64Sat | Kind::Mesh64Low => self.time_engine_steps()?,
            Kind::ManycoreMix => self.time_manycore_steps(),
        }

        if !self.net_builds.is_empty() {
            self.values
                .insert("engine.build_ms", fastest(&self.net_builds) * 1e3);
        }
        if !self.system_builds.is_empty() {
            self.values
                .insert("manycore.build_ms", fastest(&self.system_builds) * 1e3);
        }
        let (rec, root) = (self.rec, self.root);
        let (probe_values, _) = rec.scope("probes.all", Some(root), |span| {
            probes::run_all(rec, span, self.seed)
        });
        self.values.extend(probe_values);

        if let Some(reference) = &self.reference {
            self.measured.digest = reference.digest();
            for (name, value) in reference.headline.metrics() {
                self.values.insert(name, value.unwrap_or(0.0));
            }
        }
        Ok(())
    }
}

/// Runs the traced variant of `w` (plain/profiled pairs for about 0.8 of
/// `seconds`, then twins, step timing and probes) and writes its spans to
/// `out_dir/trace.<workload>.jsonl`. Every per-layer metric is reported;
/// one the workload never exercises reads 0.
pub fn run_trace(
    w: &Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    out_dir: &Path,
) -> Result<Measured, String> {
    let rec = Recorder::new(w.name);
    let (tracer, _) = rec.scope(&format!("workload.{}", w.name), None, |root| {
        let mut t = Tracer {
            w,
            seed,
            threads,
            rec: &rec,
            root,
            measured: Measured::new(),
            values: BTreeMap::new(),
            reference: None,
            net_builds: Vec::new(),
            system_builds: Vec::new(),
        };
        t.run(seconds).map(|()| t)
    });
    let Tracer {
        mut measured,
        values,
        ..
    } = tracer?;

    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace.{}.jsonl", w.name));
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    rec.write_jsonl(&mut std::io::BufWriter::new(file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let spans = rec.spans();
    println!(
        "{}: {} spans -> {}; self time by layer:",
        w.name,
        spans.len(),
        path.display()
    );
    for (layer, ns) in crate::spans::layer_self_times(&spans) {
        println!("  {layer:<10} {:>10.3} ms", ns as f64 / 1e6);
    }
    for def in &PER_LAYER {
        measured.metrics.insert(
            def.name,
            Summary::exact(values.get(def.name).copied().unwrap_or(0.0)),
        );
    }
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{catalog, tests::tiny};

    #[test]
    fn every_workload_traces_every_per_layer_metric_and_one_span_file() {
        let dir =
            std::env::temp_dir().join(format!("vix-benchmark-trace-test-{}", std::process::id()));
        for w in catalog().map(tiny) {
            let m = run_trace(&w, 2014, 0.0, 2, &dir).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(m.failed, 0, "{}: {:?}", w.name, m.failures);
            let names: Vec<&str> = m.metrics.keys().copied().collect();
            let mut expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
            expected.sort_unstable();
            assert_eq!(names, expected, "{}", w.name);
            assert!(m
                .metrics
                .values()
                .all(|s| s.value.is_finite() && s.value >= -100.0));
            // Probes and the engine clock are independent of the workload.
            for always in [
                "router.step_ns.r5.vix.sat",
                "alloc.ns_per_call.r10.vix",
                "engine.ns_per_cycle",
            ] {
                assert!(m.metrics[always].value > 0.0, "{}: {always}", w.name);
            }
            let layer_hit = |name: &str| m.metrics[name].value > 0.0;
            assert_eq!(
                layer_hit("shard.speedup_vs_serial"),
                w.kind == Kind::Mesh256Shard,
                "{}",
                w.name
            );
            assert_eq!(
                layer_hit("runner.points"),
                w.kind == Kind::Sweep3Topo,
                "{}",
                w.name
            );
            assert_eq!(
                layer_hit("manycore.misses_issued"),
                w.kind == Kind::ManycoreMix,
                "{}",
                w.name
            );
            assert_eq!(
                layer_hit("engine.router_step_share"),
                w.kind != Kind::ManycoreMix,
                "{}",
                w.name
            );
            assert_eq!(
                layer_hit("engine.step_us_p50"),
                matches!(w.kind, Kind::Mesh64Sat | Kind::Mesh64Low)
            );

            let text =
                std::fs::read_to_string(dir.join(format!("trace.{}.jsonl", w.name))).unwrap();
            let roots = text
                .lines()
                .filter(|l| l.contains("\"parent\":null"))
                .count();
            assert_eq!(roots, 1, "{}: one root span", w.name);
            assert!(
                text.lines().count() > 20,
                "{}: spans around every layer call",
                w.name
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
