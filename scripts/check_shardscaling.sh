#!/usr/bin/env bash
# Sharded-engine perf-regression guard.
#
# Re-runs the shardscaling benchmark and compares the fresh `shards=1`
# timing against the checked-in BENCH_shardscaling.json: more than 25 %
# slower than the recorded figure fails the run (the serial path must not
# pay for the sharded engine's existence). On hosts with ≥4 cores the
# check additionally enforces the ≥2× speedup floor at 4 shards; on
# smaller hosts that floor is physically unreachable and is skipped with
# a note (the comparison itself lives in the bench's `--check` mode).
#
# The recorded profile section carries `barrier_share_pct` — the share
# of shard span time spent at the single end-of-cycle spin barrier
# (DESIGN.md §8). S shards run on S threads: the calling thread merges
# statistics, generates traffic and then steps shard 0, so those two
# duties ARE on shard 0's critical path (2-3 % of its saturated cycle).
# A regression that fattens them, or that puts a thread back which only
# waits, shows up in that figure and in the recorded `imbalance_pct`
# before it shows up in wall clock, so eyeball both when regenerating —
# and read them through `host_cores`: with fewer cores than shards they
# measure the host's scheduler, not the protocol.
#
# Regenerate the recorded figures after an intentional perf change with:
#   cargo bench -p vix-bench --bench shardscaling
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -f BENCH_shardscaling.json ]]; then
    echo "BENCH_shardscaling.json missing; record it first with" >&2
    echo "  cargo bench -p vix-bench --bench shardscaling" >&2
    exit 1
fi

cargo bench -p vix-bench --bench shardscaling -- --check
