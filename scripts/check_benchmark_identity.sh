#!/usr/bin/env bash
# Bit-identity gate through the repo benchmark's public contract.
#
# A short `vix-benchmark run` (2 s measure window per workload) must
# report every workload's `sim_digest` as `(same)` — identical to the
# seed-2014 digests recorded in benchmark/baseline/run.json — and no
# failed simulation run. A speed-only change leaves both untouched; a
# change that moves simulated behaviour has to re-record the baseline in
# a PR of its own (benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --seconds 2)
echo "$out"

same=$(grep -c 'sim_digest [0-9a-f]* (same)' <<<"$out" || true)
if [[ "$same" -ne 5 ]]; then
    echo "benchmark identity: $same of 5 workloads report sim_digest (same)" >&2
    exit 1
fi
if ! grep -q '^fail_share overall: 0 ' <<<"$out"; then
    echo "benchmark identity: a simulation run failed" >&2
    exit 1
fi
echo "benchmark identity: 5 of 5 digests same, no failed run"
