#!/usr/bin/env bash
# Full offline verification: build, test, doc-lint.
#
# Mirrors CI (.github/workflows/ci.yml). Needs no network access — the
# workspace has zero crates.io dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace --release"
cargo test -q --workspace --release

# Paper driver smoke: the analytic tables plus two quick simulated
# figures through the `paper` driver must print the same bytes at
# --jobs 1 and --jobs 2.
echo "==> paper driver smoke (--jobs 1 and --jobs 2)"
for jobs in 1 2; do
    cargo run --release -p vix-bench --bin paper -- \
        table1 table3 fig4_fig5 fig7 fig9 --jobs $jobs > target/paper-smoke-$jobs.txt
    test -s target/paper-smoke-$jobs.txt
done
cmp target/paper-smoke-1.txt target/paper-smoke-2.txt

# Traced smoke sim: short instrumented runs must produce a loadable
# Chrome trace and a metrics JSON end to end, and the same bytes at
# --shards 1, 3 and 4 (CI uploads the 4-shard VIX pair; the odd split
# leaves asymmetric boundary links). Besides
# the default VIX router, a five-stage IF router and a non-speculative
# VIX router with age-based SA take the router step's other branches,
# a long light-load VIX run is mostly one-VC light router steps, and
# wavefront and packet-chaining routers run the allocators that fill
# their own request rows (PC also reads the traversed grants).
echo "==> vixsim traced smoke runs (serial and sharded)"
for config in "telemetry-smoke:--allocator vix --rate 0.08 --measure 500" \
    "telemetry-smoke-five-stage:--allocator if --five-stage --rate 0.08 --measure 500" \
    "telemetry-smoke-no-spec:--allocator vix --no-speculation --age-based-sa --rate 0.08 --measure 500" \
    "telemetry-smoke-light:--allocator vix --rate 0.005 --measure 4000" \
    "telemetry-smoke-wf:--allocator wf --rate 0.08 --measure 500" \
    "telemetry-smoke-pc:--allocator pc --rate 0.08 --measure 500"; do
    name=${config%%:*}
    flags=${config#*:}
    for shards in 1 3 4; do
        out=target/$name-$shards
        mkdir -p $out
        cargo run --release --bin vixsim -- $flags \
            --warmup 200 --drain 300 --shards $shards \
            --trace-out $out/trace.json --metrics-out $out/metrics.json
        test -s $out/trace.json
        test -s $out/metrics.json
    done
    for shards in 3 4; do
        cmp target/$name-1/trace.json target/$name-$shards/trace.json
        cmp target/$name-1/metrics.json target/$name-$shards/metrics.json
    done
done

# Profiled smoke sim: a short run with engine self-profiling on must
# produce a Perfetto-loadable per-shard trace and a heartbeat JSONL end to
# end (CI uploads the sharded pair; schema pinned by
# tests/telemetry_schema.rs), and its heartbeats' simulation gauges must
# be the same at --shards 1 and --shards 4 once the wall-clock keys go.
echo "==> vixsim profiled smoke run (serial and sharded)"
for shards in 1 4; do
    out=target/profile-smoke-$shards
    mkdir -p $out
    cargo run --release --bin vixsim -- --allocator vix --nodes 256 \
        --rate 0.05 --shards $shards --warmup 200 --measure 600 --drain 300 \
        --heartbeat 200 \
        --profile-out $out/profile.json \
        --heartbeat-out $out/health.jsonl
    test -s $out/profile.json
    test -s $out/health.jsonl
    sed -E 's/,"(wall_ns|cycles_per_sec|imbalance_pct|shards)":(\[.*\]|[0-9.]+)//g' \
        $out/health.jsonl > $out/gauges.jsonl
done
cmp target/profile-smoke-1/gauges.jsonl target/profile-smoke-4/gauges.jsonl

# Bounded-memory smoke: a run keeps nothing per delivered packet, so a
# 50x longer measurement window may not cost more than 2 MiB of peak RSS
# (ru_maxrss of the one child each python3 process waits for, in KiB).
echo "==> vixsim bounded-memory smoke (--measure 20000 vs 1000000)"
rss_kib() {
    python3 -c 'import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
        target/release/vixsim --allocator vix --rate 0.005 --measure "$1"
}
short=$(rss_kib 20000)
long=$(rss_kib 1000000)
echo "peak RSS: --measure 20000 ${short} KiB, --measure 1000000 ${long} KiB"
test $((long - short)) -le 2048

# Allocator-kernel perf guard: fresh kernel timings must stay within 25%
# of the recorded BENCH_allockernels.json figures.
echo "==> cargo bench -p vix-bench --bench alloc_kernels -- --check"
cargo bench -p vix-bench --bench alloc_kernels -- --check

# Sharded-engine perf guard: the serial (shards=1) path must stay within
# 25% of the recorded BENCH_shardscaling.json figure; hosts with ≥4 cores
# additionally enforce the ≥2x speedup floor at 4 shards.
echo "==> cargo bench -p vix-bench --bench shardscaling -- --check"
cargo bench -p vix-bench --bench shardscaling -- --check

# Hot-path perf guard: fresh steady-state cycles/sec must stay within
# 25% of the recorded BENCH_hotpath.json rates, and the engine
# self-profiler's measured overhead must stay within its 5% budget;
# also prints the one-line speedup summary vs the pre-ring-transport
# BENCH_hotpath_baseline.json.
echo "==> cargo bench -p vix-bench --bench hotpath -- --check"
cargo bench -p vix-bench --bench hotpath -- --check

# Bit-identity gate through the repo benchmark: all five workloads must
# reproduce the recorded seed-2014 sim_digests with no failed run.
echo "==> scripts/check_benchmark_identity.sh"
scripts/check_benchmark_identity.sh

# The benchmark is its own offline crate and workspace, so nothing above
# compiles it: run its unit tests here so a library change that breaks
# its use of the public API fails before the benchmark pipeline does.
echo "==> cargo test -q --offline --manifest-path benchmark/Cargo.toml"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> scripts/unused_pub.sh"
scripts/unused_pub.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Informational: total / production (non-`#[cfg(test)]`) lines per crate,
# the table CHANGES.md and ROADMAP quote for simplicity PRs.
echo "==> scripts/loc.sh"
scripts/loc.sh

echo "==> all checks passed"
