#!/usr/bin/env bash
# Paired timing of two revisions through the repo benchmark's contract
# command (BENCHMARK.json): per workload, N alternating A/B runs, then per
# side the best (fastest, or least RSS), Q1, median and Q3 of
# sim_cycles_per_s, wall_s, setup_s and peak_rss_mb, the pairs B won on
# each, and B's median gap against A's IQR.
#
#   scripts/bench_pairs.sh REV_A REV_B WORKLOAD[,WORKLOAD...] N [SECONDS]   (SEED=2014)
#
# Each revision is exported once (`git archive`) under $TMPDIR and its
# vix-benchmark built there, so every workload in the list is timed on the
# same pair of builds; the exports go away on exit. An interim tool until
# `vix-benchmark compare` lands (ROADMAP item 3(c)).
set -euo pipefail
[[ $# -ge 4 ]] || { echo "usage: $0 REV_A REV_B WORKLOAD[,WORKLOAD...] N [SECONDS]" >&2; exit 2; }
declare -A revs=([A]="$1" [B]="$2")
IFS=, read -ra workloads <<<"$3"
n=$4 seconds=${5:-20}
repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
for s in A B; do
    mkdir "$tmp/$s"
    git -C "$repo" archive "${revs[$s]}" | tar -x -C "$tmp/$s"
    cargo build --release --offline --quiet --manifest-path "$tmp/$s/benchmark/Cargo.toml"
done
run() { # side workload -> "sim_cycles_per_s wall_s setup_s peak_rss_mb" of one contract run
    (cd "$tmp/$1" && cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$2" --seed "${SEED:-2014}" --seconds "$seconds" --trace 0 2>/dev/null) |
        tail -n 1 | awk 'function v(m, s) {
            if (!match($0, "\"" m "\": [{]\"value\": [-0-9.e+]+")) return "nan"
            s = substr($0, RSTART, RLENGTH); sub(/.*: /, "", s); return s }
            { print v("sim_cycles_per_s"), v("wall_s"), v("setup_s"), v("peak_rss_mb") }'
}
for workload in "${workloads[@]}"; do
    : >"$tmp/runs"
    for i in $(seq "$n"); do
        order="A B"; (( i % 2 )) || order="B A"
        for s in $order; do echo "$workload $i $s $(run "$s" "$workload")" | tee -a "$tmp/runs"; done
    done
    echo "== $workload: A=${revs[A]} B=${revs[B]}, $n pairs, --seconds $seconds, seed ${SEED:-2014}"
    awk -v n="$n" '
    function q(arr, k, p,   h, lo) { h = (k - 1) * p; lo = int(h); return arr[lo + 1] + (arr[lo + 2] - arr[lo + 1]) * (h - lo) }
    function sorted(side, m,   i, j, t) {
        for (i = 1; i <= n; i++) x[i] = val[side, m, i]
        for (i = 2; i <= n; i++) for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
        x[n + 1] = x[n] }
    { for (m = 1; m <= 4; m++) val[$3, m, $2] = $(m + 3) + 0 }
    END {
        split("sim_cycles_per_s wall_s setup_s peak_rss_mb", name); split("1 -1 -1 -1", up)
        printf "%-17s %4s %12s %12s %12s %12s %6s\n", "metric", "side", "best", "Q1", "median", "Q3", "B won"
        for (m = 1; m <= 4; m++) {
            won = 0; for (i = 1; i <= n; i++) won += (val["B", m, i] - val["A", m, i]) * up[m] > 0
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "A" : "B"; sorted(side, m)
                med[side] = q(x, n, 0.5); iqr[side] = q(x, n, 0.75) - q(x, n, 0.25)
                printf "%-17s %4s %12.6g %12.6g %12.6g %12.6g %6s\n", name[m], side, (up[m] > 0 ? x[n] : x[1]), q(x, n, 0.25), med[side], q(x, n, 0.75), (s == 2 ? won "/" n : "")
            }
            printf "%-17s B/A median %.4f, gap %.6g vs A IQR %.6g\n", name[m], med["B"] / med["A"], med["B"] - med["A"], iqr["A"]
        } }' "$tmp/runs"
done
