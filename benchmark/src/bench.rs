//! The end-to-end run of one workload in this process: set-up repeated,
//! one discarded repeat, then timed repeats of identical work until the
//! measure window is used up; each time is reported as its fastest sample.
//! Telemetry and profiling are off.

use crate::measure::{loadavg1, peak_rss_mb, timed, Summary};
use crate::workloads::{Mode, Outcome, Prepared, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Timed repeats a run makes even when the measure window is already over.
pub const MIN_REPEATS: usize = 3;
/// Set-up is repeated at least this often, and until it has used
/// [`SETUP_BUDGET`], so `setup_s` is not one cold sample.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// Everything one process measured for one workload.
#[derive(Debug)]
pub struct Measured {
    /// Metric name → samples summary, in catalogue order where it matters.
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Simulation runs attempted and failed, over every repeat.
    pub attempted: u64,
    pub failed: u64,
    /// First failure reasons (at most a handful), for the report.
    pub failures: Vec<String>,
    pub digest: u64,
    pub load1: f64,
}

impl Measured {
    pub fn new() -> Self {
        Measured {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: 0,
            load1: loadavg1(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Runs `prepare` once, turning a configuration error into a failure
/// message (benchmark configurations are constants, so this is a bug).
pub fn prepare(w: &Workload, seed: u64, mode: Mode, threads: usize) -> Result<Prepared, String> {
    w.prepare(seed, mode, threads)
        .map_err(|e| format!("{}: set-up failed: {e}", w.name))
}

/// One repeat: the timed region, then checks outside it. A panic inside
/// the simulator fails every run of the repeat instead of the benchmark.
pub fn repeat(w: &Workload, prepared: Prepared, seed: u64) -> (Option<Outcome>, f64) {
    let (raw, wall) = timed(|| catch_unwind(AssertUnwindSafe(|| w.execute(prepared))));
    (raw.ok().map(|raw| w.analyze(&raw, seed)), wall)
}

/// Folds one repeat into the failure accounting: a run fails on its own
/// checks or when it disagrees with the same run of the first repeat.
pub fn account(
    w: &Workload,
    outcome: &Option<Outcome>,
    reference: Option<&Outcome>,
    measured: &mut Measured,
) {
    let runs = w.sim_cycles() / w.windows.total();
    measured.attempted += runs;
    let Some(outcome) = outcome else {
        measured.fail(format!("{}: the simulator panicked", w.name));
        measured.failed += runs - 1;
        return;
    };
    for (i, run) in outcome.runs.iter().enumerate() {
        if let Some(why) = &run.failure {
            measured.fail(format!("{} {}: {why}", w.name, run.label));
        } else if reference.is_some_and(|r| r.runs[i].digest != run.digest) {
            measured.fail(format!(
                "{} {}: differs from another repeat of the same seed",
                w.name, run.label
            ));
        }
    }
}

pub fn run_e2e(w: &Workload, seed: u64, seconds: f64, threads: usize) -> Result<Measured, String> {
    let mut measured = Measured::new();

    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let mut prepared = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setup_start.elapsed() < SETUP_BUDGET)
    {
        drop(prepared.take());
        let (p, secs) = timed(|| prepare(w, seed, Mode::Plain, threads));
        prepared = Some(p?);
        setups.push(secs);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut discarded = false;
    loop {
        let p = match prepared.take() {
            Some(p) => p,
            None => {
                let (p, secs) = timed(|| prepare(w, seed, Mode::Plain, threads));
                setups.push(secs);
                p?
            }
        };
        let (outcome, wall) = repeat(w, p, seed);
        account(w, &outcome, first.as_ref(), &mut measured);
        if first.is_none() {
            first = outcome;
        }
        if discarded {
            walls.push(wall);
        } else {
            // Sampled after set-up and one whole repeat: from the second
            // repeat on, the high-water mark depends on whether malloc
            // happens to reuse the first repeat's freed blocks (observed:
            // 11.2 or 14.2 MiB for the same work), which is not the
            // program's memory need.
            measured
                .metrics
                .insert("peak_rss_mb", Summary::exact(peak_rss_mb()));
            discarded = true;
        }
        // Stop when the next repeat would end after the measure window.
        if walls.len() >= MIN_REPEATS && Instant::now() + Duration::from_secs_f64(wall) > deadline {
            break;
        }
    }

    let wall = Summary::of_times(&walls);
    let cycles = w.sim_cycles() as f64;
    // The rate of the fastest repeat; min and max swap with the division.
    let rate = Summary {
        value: cycles / wall.value,
        median: cycles / wall.median,
        min: cycles / wall.max,
        max: cycles / wall.min,
        n: wall.n,
    };
    measured
        .metrics
        .insert("setup_s", Summary::of_times(&setups));
    measured.metrics.insert("wall_s", wall);
    measured.metrics.insert("sim_cycles_per_s", rate);
    measured.metrics.insert(
        "fail_share",
        Summary::exact(measured.failed as f64 / measured.attempted.max(1) as f64),
    );
    if let Some(outcome) = &first {
        measured.digest = outcome.digest();
        for (name, value) in outcome.headline.metrics() {
            if let Some(v) = value {
                measured.metrics.insert(name, Summary::exact(v));
            }
        }
    }
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, tests::tiny};

    #[test]
    fn e2e_run_reports_every_driver_metric_and_counts_runs() {
        let w = tiny(by_name("mesh64-sat").unwrap());
        let m = run_e2e(&w, 2014, 0.0, 2).unwrap();
        for name in crate::report::END_TO_END.iter().map(|d| d.name) {
            let s = m
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(s.value > 0.0 && s.value.is_finite(), "{name} = {}", s.value);
        }
        // One discarded and MIN_REPEATS timed repeats of two runs each.
        assert_eq!(m.attempted, 2 * (1 + MIN_REPEATS as u64));
        assert_eq!((m.failed, m.metrics["fail_share"].value), (0, 0.0));
        assert_eq!(m.metrics["wall_s"].n, MIN_REPEATS);
        assert!(m.metrics["setup_s"].n >= MIN_SETUPS);
        assert_ne!(m.digest, 0);
    }

    #[test]
    fn a_repeat_that_disagrees_with_the_first_is_a_failure() {
        let w = tiny(by_name("mesh64-low").unwrap());
        let mut m = Measured::new();
        let a = repeat(&w, w.prepare(1, Mode::Plain, 1).unwrap(), 1).0;
        let b = repeat(&w, w.prepare(2, Mode::Plain, 1).unwrap(), 2).0;
        account(&w, &a, None, &mut m);
        account(&w, &b, a.as_ref(), &mut m);
        account(&w, &None, a.as_ref(), &mut m);
        assert_eq!((m.attempted, m.failed), (3, 2));
        assert_eq!(m.failures.len(), 2);
    }
}
