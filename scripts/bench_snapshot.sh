#!/usr/bin/env bash
# Writes a perf snapshot in the format of the committed BENCH_<PR>.json
# files (schema 2), and with a baseline, gates it against that one.
#
# The snapshot holds:
# - for each workload BENCHMARK.json declares, the last line of an untraced
#   and of a traced examples/apf_benchmark run, unchanged: "correct", the
#   job counts and every metric, throughputs scaled to the nominal host
#   speed. All runs use the window and seed below.
# - E9's geometry-kernel µs per call at n = 32 and 128 (`harness e9`, which
#   times `time_kernels(n, 20)`), the least of one E9 run after each
#   benchmark run, in the "kernels" shape of schema 1, so kernel rows
#   compare across both schemas.
#
# With BASELINE, every run must report "correct":true, each workload's
# untraced trials_per_s must stay above FLOOR times the baseline's, and each
# kernel below CEILING times the baseline's and below RELATIVE_CEILING times
# the median kernel's ratio. The ratios come from scripts/bench_trend.sh,
# the one reader of snapshot files.
#
# Usage: scripts/bench_snapshot.sh OUT [BASELINE]
#   e.g. scripts/bench_snapshot.sh BENCH_26.json
# Exit codes: 0 ok, 1 a run failed or a check is out of band, 2 usage.
set -euo pipefail
cd "$(dirname "$0")/.."

WINDOW_S=3             # apf_benchmark --seconds of every run
SEED=1                 # apf_benchmark --seed of every run
FLOOR=0.555            # least trials_per_s ratio, new over baseline, that passes
CEILING=1.8            # most kernel µs ratio, new over baseline, that passes
RELATIVE_CEILING=1.5   # most kernel ratio over the median kernel ratio that passes

[ "$#" -ge 1 ] && [ "$#" -le 2 ] \
    || { echo "usage: scripts/bench_snapshot.sh OUT [BASELINE]" >&2; exit 2; }
OUT="$1"
BASELINE="${2:-}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mapfile -t WORKLOADS < <(sed -n 's/^ *{"name": "\([a-z-]*\)", "why":.*/\1/p' BENCHMARK.json)
[ "${#WORKLOADS[@]}" -gt 0 ] || { echo "BENCHMARK.json names no workloads" >&2; exit 1; }

{
    printf '{"schema":2,"seed":%s,"seconds":%s,"runs":[\n' "$SEED" "$WINDOW_S"
    sep=""
    for w in "${WORKLOADS[@]}"; do
        for trace in 0 1; do
            cargo run -q --offline --release --manifest-path examples/apf_benchmark/Cargo.toml \
                -- --workload "$w" --seed "$SEED" --seconds "$WINDOW_S" --trace "$trace" \
                --out "$TMP" > "$TMP/run.txt" \
                || { tail -3 "$TMP/run.txt" >&2
                     echo "apf_benchmark --workload $w --trace $trace failed" >&2; exit 1; }
            printf '%s{"workload":"%s","trace":%s,"result":%s}' \
                "$sep" "$w" "$trace" "$(tail -1 "$TMP/run.txt")"
            sep=$',\n'
            # One E9 run after each benchmark run; each kernel keeps its
            # least µs. One E9 run times a small kernel for well under a
            # millisecond, and the host's speed swings within seconds:
            # single runs of one kernel differed by up to 2.4x over 30
            # back-to-back runs on 2 vCPUs.
            cargo run -q --release -p apf-bench --bin harness -- \
                --json "$TMP/e9-$w-$trace.json" e9 > /dev/null
        done
    done
    printf '\n],\n'
    # The least of E9's rows for n = $1 as schema 1's kernel object. The
    # table's columns are n, SEC, rho, views, reg(P) and shifted.
    kernels() {
        cat "$TMP"/e9-*.json | grep -o "\[\"$1\",[^]]*\]" | tr -d '[]"' \
            | awk -F, -v runs=$((2 * ${#WORKLOADS[@]})) '
            { for (i = 2; i <= 6; i++) if (NR == 1 || $i + 0 < m[i] + 0) m[i] = $i }
            END {
                if (NR != runs) exit 1
                printf "{\"regular_us\":%s,\"rho_us\":%s,\"sec_us\":%s,\"shifted_us\":%s,\"views_us\":%s}",
                       m[5], m[3], m[2], m[6], m[4]
            }'
    }
    N32="$(kernels 32)" && N128="$(kernels 128)" \
        || { echo "harness e9 reported no n = 32 or n = 128 row" >&2; exit 1; }
    printf '"kernels":{"n128":%s,"n32":%s}}\n' "$N128" "$N32"
} > "$TMP/snapshot.json"
# Only a complete snapshot replaces OUT.
cp "$TMP/snapshot.json" "$OUT"
[ -n "$BASELINE" ] || exit 0

if grep '^{"workload":' "$OUT" | grep -v '"correct":true'; then
    echo "a benchmark run above reported incorrect results"
    exit 1
fi
# With two snapshots, a trend row is: metric, baseline value, new value, ...
# The median kernel ratio is the host's own speed change between the two
# snapshots, which moves every kernel alike: a kernel that slows past
# RELATIVE_CEILING times it fails even when the host got faster.
scripts/bench_trend.sh "$BASELINE" "$OUT" | tee "$TMP/trend.txt"
awk -v floor="$FLOOR" -v ceiling="$CEILING" -v relative="$RELATIVE_CEILING" '
    $1 ~ /\.trials_per_s$|^kernel\./ {
        if ($2 !~ /^[0-9]/ || $3 !~ /^[0-9]/ || $2 == 0) {
            printf "perf gate: %s has no value to compare\n", $1
            bad = 1
            next
        }
        r = $3 / $2
        if ($1 ~ /\.trials_per_s$/ && r < floor) {
            printf "perf regression: %s fell to x%.3f of the baseline (floor x%s)\n",
                   $1, r, floor
            bad = 1
        }
        if ($1 ~ /^kernel\./) {
            k++
            name[k] = $1
            ratio[k] = r
        }
    }
    END {
        for (i = 1; i <= k; i++) {
            for (j = i - 1; j >= 1 && sorted[j] > ratio[i]; j--) sorted[j + 1] = sorted[j]
            sorted[j + 1] = ratio[i]
        }
        host = (sorted[int((k + 1) / 2)] + sorted[int(k / 2) + 1]) / 2
        for (i = 1; i <= k; i++) {
            if (ratio[i] > ceiling || ratio[i] > relative * host) {
                printf "perf regression: %s slowed to x%.3f of the baseline, x%.3f of the " \
                       "median kernel ratio (ceilings x%s and x%s)\n",
                       name[i], ratio[i], ratio[i] / host, ceiling, relative
                bad = 1
            }
        }
        exit bad
    }' "$TMP/trend.txt"
