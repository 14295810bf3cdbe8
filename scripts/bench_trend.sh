#!/usr/bin/env bash
# Per-metric perf trajectory across every committed BENCH_*.json snapshot.
#
# Prints one row per metric with one column per snapshot in version order,
# plus the oldest→newest ratio, so drift that stays inside the check.sh
# band on every single hop is still visible when it compounds across PRs:
# - `<workload>.trials_per_s`: the host-scaled throughput of each repo
#   benchmark workload's untraced run, from schema-2 snapshots (`-` in
#   schema-1 ones, which timed E2 campaigns instead);
# - `kernel.<n>.<kernel>`: E9's kernel µs per call at n = 32 and 128, from
#   both schemas.
# scripts/bench_snapshot.sh gates on these rows. Two informational rows per
# workload follow the throughputs and gate nothing: `geometry.sec.calls` and
# `sim.compute.calls` of the traced run (`-` in schema-1 snapshots), exact
# counts that host speed does not move, which show how many Welzl runs each
# Compute costs. Exits 1 when a snapshot
# lacks a value the gate reads: a kernel, or in a schema-2 snapshot, the
# trials_per_s of a workload another snapshot has.
#
# Usage: scripts/bench_trend.sh [BENCH_a.json BENCH_b.json ...]
#   With no arguments, all BENCH_*.json at the repo root, sorted -V.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    SNAPS=("$@")
else
    mapfile -t SNAPS < <(ls BENCH_*.json 2>/dev/null | sort -V)
fi
[ "${#SNAPS[@]}" -ge 1 ] || { echo "no BENCH_*.json snapshots found"; exit 1; }
for s in "${SNAPS[@]}"; do
    [ -r "$s" ] || { echo "cannot read snapshot $s"; exit 1; }
done

# Untraced host-scaled throughput of workload $2 (schema 2): higher is better.
tps() {
    sed -n "s/^{\"workload\":\"$2\",\"trace\":0,.*\"trials_per_s\":{\"unit\":\"1\/s\",\"value\":\([0-9.eE+-]*\)}.*/\1/p" "$1"
}
# Count $3 of workload $2's traced run (schema 2): exact, informational.
traced_count() {
    sed -n "s/^{\"workload\":\"$2\",\"trace\":1,.*\"${3//./\\.}\":{\"unit\":\"count\",\"value\":\([0-9]*\)}.*/\1/p" "$1"
}
# Kernel latency: lower is better. $2 = n32|n128, $3 = metric key.
kus() {
    sed -n "s/.*\"$2\":{\([^}]*\)}.*/\1/p" "$1" \
        | sed -n "s/.*\"$3\":\([0-9.eE+-]*\).*/\1/p"
}

# Header.
printf '%-36s' "metric"
for s in "${SNAPS[@]}"; do
    name="$(basename "$s" .json)"
    printf ' %12s' "${name#BENCH_}"
done
printf ' %10s %s\n' "old->new" "direction"

# One row; ROW_FORMAT is the printf format of each value.
ROW_FORMAT='%12.3f'
row() {
    local label="$1" direction="$2"; shift 2
    local first="" last="" v
    printf '%-36s' "$label"
    for v in "$@"; do
        if [ -n "$v" ]; then
            printf " $ROW_FORMAT" "$v"
            [ -n "$first" ] || first="$v"
            last="$v"
        else
            printf ' %12s' "-"
        fi
    done
    if [ -n "$first" ] && [ -n "$last" ]; then
        awk -v a="$first" -v b="$last" -v d="$direction" 'BEGIN {
            printf "    x%.2f    %s\n", b / a, d
        }'
    else
        printf ' %10s %s\n' "-" "$direction"
    fi
}

MISSING=()
mapfile -t WORKLOADS < <(sed -n 's/^{"workload":"\([a-z-]*\)","trace":0,.*/\1/p' "${SNAPS[@]}" \
    | awk '!seen[$0]++')
for w in ${WORKLOADS[@]+"${WORKLOADS[@]}"}; do
    vals=()
    for s in "${SNAPS[@]}"; do
        v="$(tps "$s" "$w")"
        if [ -z "$v" ] && grep -q '"schema":2' "$s"; then MISSING+=("$s: $w.trials_per_s"); fi
        vals+=("$v")
    done
    row "$w.trials_per_s" "trials/s, higher better" "${vals[@]}"
done
ROW_FORMAT='%12.0f'
for w in ${WORKLOADS[@]+"${WORKLOADS[@]}"}; do
    for m in geometry.sec.calls sim.compute.calls; do
        vals=()
        for s in "${SNAPS[@]}"; do
            vals+=("$(traced_count "$s" "$w" "$m")")
        done
        row "$w.$m" "count, traced, not gated" "${vals[@]}"
    done
done
ROW_FORMAT='%12.3f'
for nk in n32 n128; do
    for k in sec_us rho_us views_us regular_us shifted_us; do
        vals=()
        for s in "${SNAPS[@]}"; do
            v="$(kus "$s" "$nk" "$k")"
            [ -n "$v" ] || MISSING+=("$s: kernel.$nk.$k")
            vals+=("$v")
        done
        row "kernel.$nk.$k" "us, lower better" "${vals[@]}"
    done
done
if [ "${#MISSING[@]}" -gt 0 ]; then
    printf 'snapshot lacks %s\n' "${MISSING[@]}"
    exit 1
fi
