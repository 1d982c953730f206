//! `vix-benchmark` — the repo benchmark.
//!
//! ```text
//! vix-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the result
//!     object the benchmark contract asks for (BENCHMARK.json's command)
//! vix-benchmark run       [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//! vix-benchmark trace     [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//! vix-benchmark selfcheck [--workload NAME] [--seed N] [--seconds S]
//! ```
//!
//! `run` prints every end-to-end metric per workload and checks
//! correctness; `trace` is the separate traced run that yields the
//! per-layer metrics and `out/trace.<workload>.jsonl`; `selfcheck` runs
//! both twice and fails unless the two sets agree. Each of them runs every
//! workload in a fresh child process, so `peak_rss_mb` is per workload.

mod bench;
mod measure;
mod probes;
mod report;
mod spans;
mod trace;
mod workloads;

use measure::{resolved_threads, Host};
use report::{Agreement, Detail, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: vix-benchmark [run|trace|selfcheck] [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// `None` = one workload in this process (the contract's command).
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        if !["run", "trace", "selfcheck"].contains(&first.as_str()) {
            return Err(format!("unknown command {first:?}"));
        }
        parsed.command = it.next().cloned();
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workloads::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::catalog().iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {value:?}; choose one of {}",
                        names.join(", ")
                    )
                })?;
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.command.is_none() && parsed.workload.is_none() {
        return Err("--workload is required without a command".to_string());
    }
    Ok(parsed)
}

/// The benchmark's own directory, from the repo root or from inside it.
fn home_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(".")
    }
}

/// One workload, in this process. Prints the detail line for a parent
/// command and, last, the contract's result object; a run that printed
/// its result succeeded as a process, whatever `correct` says.
fn run_here(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let w = workloads::by_name(name).expect("checked by parse_args");
    let threads = resolved_threads();
    let (measured, defs) = if args.trace {
        (
            trace::run_trace(
                &w,
                args.seed,
                args.seconds,
                threads,
                &home_dir().join("out"),
            )?,
            &PER_LAYER[..],
        )
    } else {
        (
            bench::run_e2e(&w, args.seed, args.seconds, threads)?,
            &END_TO_END[..],
        )
    };
    println!(
        "{}",
        report::detail_line(w.name, args.seed, args.trace, threads, &measured)
    );
    println!("{}", report::driver_line(&measured, defs));
    Ok(true)
}

/// Runs the selected workloads, each in a fresh child process, and prints
/// one table per workload.
fn run_children(
    args: &Args,
    trace: bool,
    baseline: &[(String, String)],
) -> Result<Vec<Detail>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut details = Vec::new();
    for w in workloads::catalog()
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
    {
        let output = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let detail = stdout.lines().find_map(Detail::parse).ok_or_else(|| {
            format!(
                "the {} child exited with {} and no result:\n{stdout}",
                w.name, output.status
            )
        })?;
        let status = match baseline.iter().find(|(name, _)| name == w.name) {
            _ if args.seed != DEFAULT_SEED => "no record for this seed",
            Some((_, digest)) if *digest == detail.digest => "same",
            Some(_) => "changed",
            None => "not recorded",
        };
        print!("{}", report::render_table(&detail, status));
        // The child's own notes (the traced run's self time by layer).
        for note in stdout.lines().filter(|l| !l.starts_with(['#', '{'])) {
            println!("  {note}");
        }
        details.push(detail);
    }
    Ok(details)
}

/// The `sim_digest`s recorded for seed 2014 in `baseline/run.json`.
fn baseline_digests() -> Vec<(String, String)> {
    std::fs::read_to_string(home_dir().join("baseline/run.json"))
        .ok()
        .and_then(|text| vix_telemetry::json::parse(&text).ok())
        .map(|record| report::recorded_digests(&record))
        .unwrap_or_default()
}

fn run_command(args: &Args, trace: bool) -> Result<bool, String> {
    let host = Host::probe();
    println!(
        "host: {} cores, {}, {}, commit {}, J = S = {}; seed {}, measure window {} s",
        host.nproc, host.cpu_model, host.rustc, host.commit, host.threads, args.seed, args.seconds
    );
    let details = run_children(args, trace, &baseline_digests())?;
    if let Some(path) = &args.out {
        let command = if trace { "trace" } else { "run" };
        let record = report::record_json(command, args.seed, args.seconds, &host, &details);
        std::fs::write(path, record)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let failed: u64 = details.iter().map(|d| d.failed).sum();
    println!(
        "fail_share overall: {failed} of {} runs",
        details.iter().map(|d| d.attempted).sum::<u64>()
    );
    Ok(failed == 0)
}

/// Runs the full set twice and compares the two: timed end-to-end metrics
/// within their bounds, simulated metrics, digests and counts identical.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    for round in 1..=2 {
        println!("---- selfcheck round {round} of 2 ----");
        let run = run_children(args, false, &[])?;
        let trace = run_children(args, true, &[])?;
        sets.push((run, trace));
    }
    let (second, first) = (
        sets.pop().expect("two rounds"),
        sets.pop().expect("two rounds"),
    );
    let mut ok = true;
    println!("---- selfcheck: observed spread between the two rounds ----");
    for (a, b) in first
        .0
        .iter()
        .chain(&first.1)
        .zip(second.0.iter().chain(&second.1))
    {
        if a.digest != b.digest || a.failed + b.failed > 0 {
            println!(
                "{}: DISAGREE digest {} vs {}, failed {} vs {}",
                a.workload, a.digest, b.digest, a.failed, b.failed
            );
            ok = false;
        }
        for (name, sa) in &a.metrics {
            let (Some(sb), Some(def)) = (b.metric(name), report::definition(name)) else {
                continue;
            };
            let spread = if sa.value == sb.value {
                0.0
            } else {
                (sa.value - sb.value).abs()
                    / sa.value.abs().min(sb.value.abs()).max(f64::MIN_POSITIVE)
            };
            let verdict = match def.agreement {
                Agreement::Within(bound) if spread <= bound => format!("ok (bound {bound})"),
                Agreement::Exact if spread == 0.0 => "ok (exact)".to_string(),
                Agreement::Informative => "informative".to_string(),
                Agreement::Within(bound) => {
                    ok = false;
                    format!("DISAGREE (bound {bound})")
                }
                Agreement::Exact => {
                    ok = false;
                    "DISAGREE (must be identical)".to_string()
                }
            };
            println!(
                "{:<14} {name:<38} {:>14.6} {:>14.6}  spread {:>7.3}%  {verdict}",
                a.workload,
                sa.value,
                sb.value,
                spread * 100.0
            );
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match parsed.command.as_deref() {
        None => run_here(&parsed),
        Some("run") => run_command(&parsed, false),
        Some("trace") => run_command(&parsed, true),
        Some(_) => selfcheck(&parsed),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args(&[
            "--workload",
            "mesh64-low",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.command, a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (None, Some("mesh64-low"), 7, 3.0, true)
        );
        let d = args(&["run"]).unwrap();
        assert_eq!(
            (d.command.as_deref(), d.seed, d.seconds),
            (Some("run"), DEFAULT_SEED, RUN_SECONDS as f64)
        );
        assert_eq!(
            args(&["trace", "--out", "x.json"]).unwrap().out,
            Some(PathBuf::from("x.json"))
        );
    }

    #[test]
    fn bad_command_lines_are_errors_not_panics() {
        for bad in [
            &[][..],
            &["--seed", "1"],
            &["frobnicate"],
            &["--workload", "nope"],
            &["--workload"],
            &["run", "--seed", "x"],
            &["run", "--seconds", "-1"],
            &["run", "--trace", "2"],
            &["run", "--bogus", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
