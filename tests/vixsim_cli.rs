//! `vixsim` rejects bad input before it simulates anything: an output
//! path that cannot be created costs milliseconds, not the run, and a bad
//! value reports the constraint it violates.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A run this long takes hours; a `vixsim` that starts it is killed at the
/// deadline and fails the test.
const ENDLESS: [&str; 2] = ["--measure", "4000000000"];
const DEADLINE: Duration = Duration::from_secs(20);

/// Runs `vixsim` with `args` on top of [`ENDLESS`] and returns its stderr.
///
/// # Panics
///
/// Panics if the process succeeds, or is still running at the deadline.
fn rejected(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vixsim"))
        .args(ENDLESS)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("vixsim starts");
    let started = Instant::now();
    while child.try_wait().expect("vixsim can be polled").is_none() {
        if started.elapsed() > DEADLINE {
            child.kill().expect("vixsim can be killed");
            panic!("vixsim {args:?} started simulating instead of failing fast");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().expect("vixsim output");
    assert!(!out.status.success(), "vixsim {args:?} must fail");
    String::from_utf8(out.stderr).expect("stderr is UTF-8")
}

/// A path under the test scratch directory, named per process so that two
/// test runs sharing a target directory never write the same file.
fn scratch_file(name: &str) -> String {
    format!("{}/vixsim_cli_{}_{name}", env!("CARGO_TARGET_TMPDIR"), std::process::id())
}

#[test]
fn unwritable_output_paths_fail_before_the_run() {
    let tmp = env!("CARGO_TARGET_TMPDIR");
    let bad = format!("{tmp}/no-such-dir/out.json");
    let csv = scratch_file("sweep.csv");
    let cases: [&[&str]; 7] = [
        &["--trace-out", &bad],
        &["--metrics-out", &bad],
        &["--profile-out", &bad],
        &["--heartbeat-out", &bad],
        &["--sweep-csv", &bad],
        &["--sweep-csv", &csv, "--metrics-out", &bad],
        &["--sweep-csv", &csv, "--profile-out", &bad],
    ];
    for args in cases {
        let stderr = rejected(args);
        assert!(
            stderr.contains(&format!("error: cannot create {bad}")),
            "vixsim {args:?} printed: {stderr}"
        );
    }
    // The rejected runs may or may not have created the sweep file.
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn shard_weights_is_an_unknown_option() {
    // A sharded run has one plan, the balanced contiguous cut; the old
    // per-router weighting flag must not be silently accepted.
    let weights = scratch_file("weights.txt");
    std::fs::write(&weights, "1\n".repeat(16)).expect("weights file is writable");
    let stderr = rejected(&["--nodes", "16", "--shards", "2", "--shard-weights", &weights]);
    std::fs::remove_file(&weights).expect("cleanup");
    assert!(stderr.contains("error: unknown flag --shard-weights"), "printed: {stderr}");
}

#[test]
fn zero_packet_length_names_its_own_constraint() {
    let stderr = rejected(&["--packet-len", "0"]);
    assert!(stderr.contains("packet length must be at least one flit"), "printed: {stderr}");
}

#[test]
fn vc_count_beyond_the_flit_encoding_is_a_config_error() {
    // 256 VCs used to be accepted and panic mid-run, when VC id 255 first
    // collided with the flit's packed "no VC" value.
    let stderr =
        rejected(&["--nodes", "16", "--vcs", "256", "--allocator", "if", "--rate", "0.9", "--packet-len", "1"]);
    assert!(
        stderr.contains("error: invalid configuration: at most 255 virtual channels per port"),
        "printed: {stderr}"
    );
}

#[test]
fn packet_length_beyond_the_flit_encoding_is_a_config_error() {
    // A flit numbers its position in the packet with 16 bits.
    let stderr = rejected(&["--packet-len", "70000", "--rate", "0.00001"]);
    assert!(
        stderr.contains("error: invalid configuration: packet length must be at most 65535 flits"),
        "printed: {stderr}"
    );
}

#[test]
fn patterns_that_cannot_address_the_nodes_are_config_errors() {
    // A 6×6 mesh builds, but the bit permutations need a power-of-two node
    // count: these used to panic mid-run, inside the sweep's worker threads
    // under --sweep-csv.
    let csv = scratch_file("pattern.csv");
    for pattern in ["bitcomp", "bitrev", "shuffle"] {
        let single: &[&str] = &["--nodes", "36", "--pattern", pattern];
        for args in [single.to_vec(), [single, &["--sweep-csv", &csv]].concat()] {
            let stderr = rejected(&args);
            let expected = format!(
                "error: invalid configuration: {pattern} traffic cannot run on 36 nodes: \
                 needs a power-of-two node count"
            );
            assert!(stderr.contains(&expected), "vixsim {args:?} printed: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn sharded_recording_writes_the_serial_runs_bytes() {
    // Recording does not choose the engine: a traced, metered run at
    // --shards 4 runs sharded and writes exactly the serial run's files.
    let run = |shards: &str| {
        let (trace, metrics) = (scratch_file(&format!("s{shards}.jsonl")), scratch_file(&format!("s{shards}.json")));
        let out = Command::new(env!("CARGO_BIN_EXE_vixsim"))
            .args(["--nodes", "64", "--rate", "0.08", "--warmup", "100", "--measure", "300"])
            .args(["--drain", "100", "--shards", shards, "--trace-out", &trace, "--metrics-out", &metrics])
            .output()
            .expect("vixsim runs");
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(out.status.success(), "vixsim --shards {shards} failed: {stderr}");
        assert!(!stderr.contains("falling back"), "vixsim --shards {shards} printed: {stderr}");
        let files = (std::fs::read(&trace).expect("trace"), std::fs::read(&metrics).expect("metrics"));
        std::fs::remove_file(trace).and_then(|()| std::fs::remove_file(metrics)).expect("cleanup");
        files
    };
    let (serial, sharded) = (run("1"), run("4"));
    assert!(!serial.0.is_empty(), "nothing was traced");
    assert!(sharded.0 == serial.0, "--shards 4 wrote a different trace");
    assert!(sharded.1 == serial.1, "--shards 4 wrote different metrics");
}
