//! Small statistics helpers, process/host probes and the sample summary
//! every timed metric is reported through.

use std::time::Instant;

/// Median of `values` (mean of the two middle elements for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller owns at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(
        !sorted.is_empty() && p > 0.0 && p <= 100.0,
        "bad percentile query"
    );
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fastest of `values`. Every timing the benchmark reports is the fastest
/// of its samples: the samples time identical work, and a shared host only
/// ever adds time (measured on the recording host: over ten runs the
/// fastest repeat spreads 1-4 %, the median repeat 4-18 %).
///
/// # Panics
///
/// Panics on an empty slice: every caller owns at least one sample.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The reported value of a metric with the median, range and count of its
/// samples printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Samples of a time: the fastest (smallest) is reported.
    pub fn of_times(values: &[f64]) -> Self {
        let (min, max) = (
            fastest(values),
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        Summary {
            value: min,
            median: median(values),
            min,
            max,
            n: values.len(),
        }
    }

    /// A value known exactly (counts, simulated statistics).
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

/// Runs `f` once and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times `samples` batches of `iters` calls of `f` after one warm-up batch
/// and returns the fastest batch's nanoseconds per call.
pub fn ns_per_call(samples: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    fastest(&per_call)
}

/// 64-bit FNV-1a over a stream of words: the `sim_digest` hash. Stable
/// across hosts and runs (no `HashMap`, no pointer values).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One-minute load average, or 0 where `/proc` does not report it.
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// Threads the benchmark may use: `J = S = min(nproc, 4)`.
pub fn resolved_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// The host header recorded beside results.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    pub threads: usize,
}

impl Host {
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
            threads: resolved_threads(),
        }
    }
}

/// First stdout line of a short-lived helper command, `"unknown"` when it
/// is missing or fails (a checkout need not be a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn times_report_their_fastest_sample() {
        let s = Summary::of_times(&[1.5, 1.0, 1.25, 3.0]);
        assert_eq!(
            (s.value, s.min, s.median, s.max, s.n),
            (1.0, 1.0, 1.375, 3.0, 4)
        );
        assert_eq!(Summary::exact(7.0).value, 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 99.0), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.word(1);
        c.word(2);
        assert_eq!(a.finish(), c.finish());
        // Pinned value: the hash must not drift between toolchains.
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::new();
        d.word(0);
        assert_eq!(d.finish(), 0xa8c7_f832_281a_39c5);
    }
}
