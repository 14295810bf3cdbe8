#!/usr/bin/env bash
# Repo gate: formatting, lints, tests, and a smoke run of the experiment
# harness on the parallel engine. CI and pre-push both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> apf-lint (determinism & randomness-budget static analysis)"
# Each rule's crate scope and allowlisted files are part of its entry in
# crates/lint/src/rules.rs (`lint --list-rules` prints them); suppress a
# single line with `// apf-lint: allow(<rule>) — <reason>`. The run gates on
# drift against the checked-in baseline (both directions: new findings AND
# findings the baseline still lists but the tree no longer produces), so
# this fails before clippy. Exit 1 = findings/drift, 2 = usage or I/O error.
cargo run -q --release --bin apf-cli -- lint --json --baseline lint-baseline.txt
# Publish the same run as a SARIF 2.1.0 artifact for code-scanning UIs.
mkdir -p target
./target/release/apf-cli lint --sarif > target/apf-lint.sarif
echo "    SARIF artifact: target/apf-lint.sarif"
# --explain smoke: every registered rule (the 14 of apf-lint's RULES) must
# resolve to a rationale page. The count check fails the step when the
# listing stops parsing, instead of explaining nothing and passing.
explained=0
for rule in $(./target/release/apf-cli lint --list-rules | awk '$1 ~ /^[A-Z][0-9]+$/ { print $2 }'); do
    ./target/release/apf-cli lint --explain "$rule" > /dev/null \
        || { echo "lint --explain $rule failed"; exit 1; }
    explained=$((explained + 1))
done
[ "$explained" -eq 14 ] || { echo "lint --explain covered $explained rules, expected 14"; exit 1; }

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Catches doc links left stale by a rename or deletion. The vendored
# stand-in crates are excluded: they are third-party API surface, which
# apf-lint does not scan either.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps \
    --exclude rand --exclude proptest --exclude criterion

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> conformance: golden corpus digest check"
cargo run -q --release --bin apf-cli -- conformance corpus

echo "==> conformance: fixed-seed fuzzer smoke"
# Deterministic in the seed for any --jobs value; any counterexample is
# shrunk and dumped as a replayable script.
FUZZ_DIR="$(mktemp -d)"
SERVE_PIDS=()
trap 'rm -rf "$FUZZ_DIR" "${TRACE_DIR:-}" "${SERVE_DIR:-}";
      for p in ${SERVE_PIDS[@]+"${SERVE_PIDS[@]}"}; do kill "$p" 2>/dev/null || true; done' EXIT
cargo run -q --release --bin apf-cli -- conformance fuzz \
    --schedules 16 --seed 12648430 --jobs 2 --dump-dir "$FUZZ_DIR"

echo "==> conformance: geometry-space fuzzer (30s budget, zero violations)"
# Seeded degenerate instance families (epsilon-perturbed symmetricity,
# collinear, SEC-boundary, near-multiplicity) checked against the real
# classifiers and the scheduler matrix until the wall-clock budget runs out.
# Any violation is shrunk over geometry and schedules and dumped.
cargo run -q --release --bin apf-cli -- conformance geo-fuzz \
    --budget 30 --seed 48879 --jobs 2 --dump-dir "$FUZZ_DIR"

echo "==> harness --quick --jobs 2 e1"
cargo run -q --release -p apf-bench --bin harness -- --quick --jobs 2 e1

echo "==> trace smoke: harness --trace-out + apf-cli trace"
# E6's deterministic baseline always stalls on symmetric configs, so the
# harness is guaranteed to dump failure traces; each must be well-formed
# JSONL that the inspector replays without legality violations.
TRACE_DIR="$(mktemp -d)"
cargo run -q --release -p apf-bench --bin harness -- --quick --jobs 2 --trace-out "$TRACE_DIR" e6
found=0
for f in "$TRACE_DIR"/*.jsonl; do
    [ -e "$f" ] || break
    found=1
    cargo run -q --release --bin apf-cli -- trace "$f" > /dev/null \
        || { echo "trace inspection failed: $f"; exit 1; }
done
[ "$found" = 1 ] || { echo "harness --trace-out produced no traces"; exit 1; }

# Starts an apf-serve process on an ephemeral port with the given extra
# flags, logging to $1; sets ADDR to the bound host:port and records the PID
# in SERVE_PIDS for the exit trap.
start_serve() {
    local log="$1"; shift
    ./target/release/apf-cli serve --addr 127.0.0.1:0 "$@" \
        > "$log" 2> "$log.err" &
    SERVE_PIDS+=("$!")
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's#^apf-serve listening on http://##p' "$log")"
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "serve never reported its address ($log)"; exit 1; }
}

# Polls GET /v1/jobs/$2 on $1 until the job reaches a terminal state; fails
# the gate unless that state is "done".
wait_job_done() {
    local addr="$1" id="$2" status=""
    for _ in $(seq 1 600); do
        status="$(curl -fsS "http://$addr/v1/jobs/$id" \
            | sed -n 's/.*"status":"\([a-z]*\)".*/\1/p')"
        case "$status" in
            done) return 0 ;;
            failed|cancelled) echo "job $id ended $status"; exit 1 ;;
            *) sleep 0.1 ;;
        esac
    done
    echo "job $id never finished (last status: $status)"
    exit 1
}

# Unwraps the `{"id":N,"result":{...},"status":"..."}` job envelope and
# drops the timing-noisy / transport-only fields, so what remains is exactly
# the deterministic aggregate `job-digest --report` prints (both sides
# render sorted keys via the same Json type). awk so the output always ends
# in a newline, matching the CLI's println.
strip_noise() {
    awk '{
        sub(/^\{"id":[0-9]+,"result":/, "");
        sub(/,"status":"[a-z]+"\}$/, "");
        gsub(/,"wall_secs":[0-9.eE+-]*/, "");
        gsub(/"cached":true,/, "");
        print
    }'
}

echo "==> serve smoke: /v1 API, digest parity, result cache"
# Start the campaign service on an ephemeral port, submit a tiny E1-shaped
# job over a real socket, and require its per-trial digests and aggregate to
# match a direct `job-digest` run of the same spec bit for bit. Then submit
# the identical spec again: the content-addressed cache must answer it
# without re-running, and (with --cache-verify 1) the hit must trigger a
# re-verification replay that compares clean. SIGTERM must drain and exit 0.
SERVE_DIR="$(mktemp -d)"
SPEC='{"name":"smoke","seed":1,"trials":3,"n":8,"rho":4,"budget":2000000}'
printf '%s' "$SPEC" > "$SERVE_DIR/spec.json"
cargo run -q --release --bin apf-cli -- job-digest "$SERVE_DIR/spec.json" \
    > "$SERVE_DIR/expected.txt"
./target/release/apf-cli job-digest --report "$SERVE_DIR/spec.json" \
    > "$SERVE_DIR/expected_report.json"
start_serve "$SERVE_DIR/serve.log" --jobs 1 --queue-depth 8 --cache-verify 1
curl -fsS "http://$ADDR/healthz" > /dev/null
curl -fsS "http://$ADDR/v1/healthz" > /dev/null
# Capture before grepping: `curl | grep -q` trips pipefail once the body
# outgrows the pipe buffer (grep exits at the first match, curl gets EPIPE).
curl -fsS "http://$ADDR/metrics" > "$SERVE_DIR/metrics0.txt"
grep -q '^apf_jobs_total' "$SERVE_DIR/metrics0.txt" \
    || { echo "/metrics scrape missing apf_jobs_total"; exit 1; }
JOB_ID="$(curl -fsS -D "$SERVE_DIR/submit_hdrs.txt" -X POST \
    --data-binary @"$SERVE_DIR/spec.json" "http://$ADDR/v1/jobs" \
    | sed -n 's/.*"id":\([0-9]*\).*/\1/p')"
[ -n "$JOB_ID" ] || { echo "job submission returned no id"; exit 1; }
# Every submission response carries the request id that threads through the
# access log and, on coordinators, onward to the backends.
grep -qi '^X-Apf-Request-Id: ' "$SERVE_DIR/submit_hdrs.txt" \
    || { echo "submission response missing X-Apf-Request-Id"; exit 1; }
wait_job_done "$ADDR" "$JOB_ID"
curl -fsS "http://$ADDR/v1/jobs/$JOB_ID/result" > "$SERVE_DIR/result.json"
tr -d ' ' < "$SERVE_DIR/result.json" \
    | sed -n 's/.*"digests":\[\([0-9,]*\)\].*/\1\n/p' | tr ',' '\n' \
    > "$SERVE_DIR/served.txt"
diff -u "$SERVE_DIR/expected.txt" "$SERVE_DIR/served.txt" \
    || { echo "served digests diverge from the direct engine run"; exit 1; }
strip_noise < "$SERVE_DIR/result.json" > "$SERVE_DIR/served_report.json"
diff -u "$SERVE_DIR/expected_report.json" "$SERVE_DIR/served_report.json" \
    || { echo "served aggregate diverges from the direct engine run"; exit 1; }
# The latency histograms must be live: at least one HTTP request handled and
# one job queued and executed by now. Captured to a file like metrics0.txt:
# `printf | grep -q` trips pipefail too, whenever grep exits before printf's
# last write.
curl -fsS "http://$ADDR/metrics" > "$SERVE_DIR/metrics1.txt"
for h in apf_http_request_seconds apf_job_queue_wait_seconds apf_job_exec_seconds; do
    grep -q "^# TYPE $h histogram" "$SERVE_DIR/metrics1.txt" \
        || { echo "/metrics missing histogram $h"; exit 1; }
done
grep -q '^apf_job_exec_seconds_count [1-9]' "$SERVE_DIR/metrics1.txt" \
    || { echo "job execution histogram never observed a job"; exit 1; }
grep -q '^apf_http_request_seconds_bucket{le="+Inf"} [1-9]' "$SERVE_DIR/metrics1.txt" \
    || { echo "request latency histogram never observed a request"; exit 1; }
# Same spec again: must be answered from the cache, bit-identically.
RESP2="$(curl -fsS -X POST --data-binary @"$SERVE_DIR/spec.json" \
    "http://$ADDR/v1/jobs")"
printf '%s' "$RESP2" | grep -q '"cached":true' \
    || { echo "repeat submission was not a cache hit: $RESP2"; exit 1; }
JOB2="$(printf '%s' "$RESP2" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')"
curl -fsS "http://$ADDR/v1/jobs/$JOB2/result" | strip_noise \
    > "$SERVE_DIR/cached_report.json"
diff -u "$SERVE_DIR/expected_report.json" "$SERVE_DIR/cached_report.json" \
    || { echo "cached aggregate diverges from the direct engine run"; exit 1; }
# --cache-verify 1 replays every hit against the engine in the background;
# wait for the verification to land and require it to have compared clean.
VERIFIED=""
for _ in $(seq 1 600); do
    curl -fsS "http://$ADDR/metrics" > "$SERVE_DIR/metrics2.txt"
    grep -q '^apf_cache_total{event="verify_fail"} 0$' "$SERVE_DIR/metrics2.txt" \
        || { echo "cache re-verification FAILED:"
             grep '^apf_cache_total' "$SERVE_DIR/metrics2.txt"; exit 1; }
    if grep -q '^apf_cache_total{event="verify_ok"} [1-9]' "$SERVE_DIR/metrics2.txt"; then
        VERIFIED=1
        break
    fi
    sleep 0.1
done
[ -n "$VERIFIED" ] || { echo "cache re-verification never ran"; exit 1; }
SMOKE_PID="${SERVE_PIDS[0]}"
kill -TERM "$SMOKE_PID"
wait "$SMOKE_PID" || { echo "serve did not exit 0 on SIGTERM"; exit 1; }
SERVE_PIDS=()
# A full job table evicts its oldest finished jobs instead of refusing new
# submissions: a --max-jobs 4 server accepts 8 sequential jobs.
start_serve "$SERVE_DIR/evict.log" --jobs 1 --queue-depth 8 --max-jobs 4
for k in $(seq 1 8); do
    EID="$(curl -fsS -X POST "http://$ADDR/v1/jobs" \
        -d "{\"name\":\"evict\",\"seed\":$k,\"trials\":1,\"budget\":2000000}" \
        | sed -n 's/.*"id":\([0-9]*\).*/\1/p')" \
        || { echo "--max-jobs 4 server refused sequential job $k"; exit 1; }
    wait_job_done "$ADDR" "$EID"
done
kill -TERM "${SERVE_PIDS[0]}"
wait "${SERVE_PIDS[0]}" || { echo "serve did not exit 0 on SIGTERM"; exit 1; }
SERVE_PIDS=()

echo "==> coordinator: campaign merge bit-identical, soak counts as one backend"
# Two backend workers plus a coordinator fanning trial-range shards out to
# them; the merged digests and aggregate must equal the direct engine run of
# the same spec bit for bit (the "determinism => distributability" gate).
CSPEC='{"name":"coord-smoke","seed":7,"trials":6,"n":8,"rho":4,"budget":2000000}'
printf '%s' "$CSPEC" > "$SERVE_DIR/cspec.json"
./target/release/apf-cli job-digest --report "$SERVE_DIR/cspec.json" \
    > "$SERVE_DIR/cexpected.json"
start_serve "$SERVE_DIR/b1.log" --jobs 1 --queue-depth 8
B1_ADDR="$ADDR"
start_serve "$SERVE_DIR/b2.log" --jobs 1 --queue-depth 8
B2_ADDR="$ADDR"
start_serve "$SERVE_DIR/coord.log" --jobs 1 --queue-depth 8 \
    --backend "$B1_ADDR" --backend "$B2_ADDR" --shards-per-backend 2
COORD_ADDR="$ADDR"
CJOB="$(curl -fsS -X POST --data-binary @"$SERVE_DIR/cspec.json" \
    "http://$COORD_ADDR/v1/jobs" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')"
[ -n "$CJOB" ] || { echo "coordinator job submission returned no id"; exit 1; }
wait_job_done "$COORD_ADDR" "$CJOB"
curl -fsS "http://$COORD_ADDR/v1/jobs/$CJOB/result" | strip_noise \
    > "$SERVE_DIR/cserved.json"
diff -u "$SERVE_DIR/cexpected.json" "$SERVE_DIR/cserved.json" \
    || { echo "coordinator merge diverges from the direct engine run"; exit 1; }
curl -fsS "http://$COORD_ADDR/metrics" > "$SERVE_DIR/coord_metrics.txt"
grep -q '^apf_shards_total{event="dispatched"} [1-9]' \
    "$SERVE_DIR/coord_metrics.txt" \
    || { echo "coordinator reported no dispatched shards"; exit 1; }
grep -q '^apf_shard_roundtrip_seconds_count [1-9]' \
    "$SERVE_DIR/coord_metrics.txt" \
    || { echo "coordinator recorded no shard round-trip latencies"; exit 1; }
# Soak jobs take the same shard dispatch: a case-bounded soak sharded over
# the backends must count exactly what one backend counts running it whole.
# Prints the soak's deterministic counts (every field but wall_secs).
soak_counts() {
    local addr="$1" id
    id="$(curl -fsS -X POST -d '{"seed":5,"cases":8,"robots":8}' \
        "http://$addr/v1/soak" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')"
    [ -n "$id" ] || { echo "soak submission to $addr returned no id"; exit 1; }
    wait_job_done "$addr" "$id"
    curl -fsS "http://$addr/v1/jobs/$id/result" \
        | grep -o '"\(cases\|clean\|violations\|shrink_steps\)":[0-9]*'
}
soak_counts "$COORD_ADDR" > "$SERVE_DIR/soak_coord.txt"
soak_counts "$B1_ADDR" > "$SERVE_DIR/soak_backend.txt"
grep -qx '"cases":8' "$SERVE_DIR/soak_backend.txt" \
    || { echo "backend soak did not run 8 cases"; exit 1; }
diff -u "$SERVE_DIR/soak_backend.txt" "$SERVE_DIR/soak_coord.txt" \
    || { echo "coordinated soak counts diverge from a single backend"; exit 1; }
for p in "${SERVE_PIDS[@]}"; do kill -TERM "$p"; done
for p in "${SERVE_PIDS[@]}"; do
    wait "$p" || { echo "a serve process did not exit 0 on SIGTERM"; exit 1; }
done
SERVE_PIDS=()

echo "==> soak smoke: --soak self-submission, apf_soak_* metrics, SIGTERM drain"
# `serve --soak 60` self-submits a timed geometry-fuzz soak through the
# normal queue. The gate waits for the soak counters to move, then SIGTERMs
# mid-campaign: the soak job must drain cooperatively and the process exit 0
# long before the 60 s budget elapses.
start_serve "$SERVE_DIR/soak.log" --jobs 1 --queue-depth 8 --soak 60
SOAKED=""
for _ in $(seq 1 600); do
    curl -fsS "http://$ADDR/metrics" > "$SERVE_DIR/soak_metrics.txt" || true
    if grep -q '^apf_soak_cases_total [1-9]' "$SERVE_DIR/soak_metrics.txt"; then
        SOAKED=1
        break
    fi
    sleep 0.1
done
[ -n "$SOAKED" ] || { echo "soak campaign never counted a case"; exit 1; }
grep -q '^apf_soak_violations_total 0$' "$SERVE_DIR/soak_metrics.txt" \
    || { echo "soak campaign found violations:"; \
         grep '^apf_soak' "$SERVE_DIR/soak_metrics.txt"; exit 1; }
for m in apf_soak_cases_total apf_soak_violations_total \
         apf_soak_shrink_steps_total apf_soak_wall_seconds_total; do
    grep -q "^$m " "$SERVE_DIR/soak_metrics.txt" \
        || { echo "/metrics missing $m"; exit 1; }
done
SOAK_PID="${SERVE_PIDS[0]}"
kill -TERM "$SOAK_PID"
wait "$SOAK_PID" || { echo "serve did not exit 0 on SIGTERM mid-soak"; exit 1; }
SERVE_PIDS=()

echo "==> profile smoke: collapsed stacks + digest identity with spans on"
# Span profiling must be observationally free: running the smoke spec with
# the profiler installed must reproduce `job-digest --report` byte for byte.
# The folded output must be non-empty, well-formed collapsed stacks
# (`frame;frame;... self_ns`), and on the kernel workload the heaviest
# leaf frame must be one of the five instrumented geometry kernels (which
# one leads is a perf fact that moves between releases, not a smoke check).
./target/release/apf-cli profile --spec "$SERVE_DIR/spec.json" --jobs 2 \
    --fold "$SERVE_DIR/prof.folded" \
    --report-out "$SERVE_DIR/prof_report.json" > /dev/null
diff -u "$SERVE_DIR/expected_report.json" "$SERVE_DIR/prof_report.json" \
    || { echo "profiling changed the campaign aggregate"; exit 1; }
[ -s "$SERVE_DIR/prof.folded" ] \
    || { echo "profile wrote an empty fold file"; exit 1; }
if grep -qvE '^[a-z_]+(;[a-z_]+)* [0-9]+$' "$SERVE_DIR/prof.folded"; then
    echo "malformed collapsed-stacks line(s):"
    grep -vE '^[a-z_]+(;[a-z_]+)* [0-9]+$' "$SERVE_DIR/prof.folded"
    exit 1
fi
./target/release/apf-cli profile --kernels 64 --reps 3 \
    --fold "$SERVE_DIR/kern.folded" > /dev/null
TOP_STACK="$(sort -t' ' -k2 -rn "$SERVE_DIR/kern.folded" | head -1 \
    | cut -d' ' -f1)"
case "${TOP_STACK##*;}" in
    sec|views|rho|regular|shifted) ;;
    *) echo "hottest kernel frame is '${TOP_STACK##*;}', expected a geometry kernel"
       exit 1 ;;
esac

echo "==> repo benchmark smoke: every workload at ~1/20 scale, correctness only"
# The benchmark in BENCHMARK.json, untraced then traced. It exits nonzero
# when a run's own checks fail (re-runs must reproduce their digests, a
# replay of a re-run's results must reproduce its aggregate, elections must
# keep Theorem 1's bit budget), when traced and untraced runs disagree on
# output_digest, or when the metric names and units it prints differ from
# BENCHMARK.json. See examples/apf_benchmark/README.md for the checks.
cargo run -q --offline --release --manifest-path examples/apf_benchmark/Cargo.toml -- --smoke \
    | tee "$SERVE_DIR/bench-smoke.txt"
# The smoke's own checks only compare a workload's runs with each other, so
# pin each workload's output_digest too: a perf change must not alter what
# the program computes. A change that alters behaviour on purpose updates
# these values and says why in CHANGES.md.
for pin in direct-election=f58cf4dc8d5b8f49 direct-formation=a87d97e181714b63 \
           served-mixed=30fc012c89668c25 served-sharded=57c26694883b06fc; do
    w="${pin%%=*}"
    GOT="$(sed -n "s/^smoke $w .* digest=\([0-9a-f]*\) .*/\1/p" "$SERVE_DIR/bench-smoke.txt" \
        | sort -u | tr '\n' ' ')"
    [ "$GOT" = "${pin#*=} " ] \
        || { echo "benchmark smoke: $w output_digest '${GOT% }', pinned ${pin#*=}"; exit 1; }
done
echo "    output_digests match the pinned values"

echo "==> perf snapshot vs committed BENCH_*.json (tolerance band)"
# Regenerate the fixed perf workload and compare campaign throughput against
# the newest committed snapshot. Wall-clock numbers are machine- and
# load-dependent, so the band stays loose — but several PRs of history (see
# scripts/bench_trend.sh) show run-to-run noise well under 40%, so the gate
# is tightened from the original 2.5x to 1.8x: only a >1.8x slowdown fails.
# Regenerate the committed snapshot via
# `apf-cli perf-snapshot --out BENCH_<PR>.json` when the workload changes.
PREV="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
tps() {
    sed -n "s/.*\"$2\":{\"trials\":[0-9]*,\"trials_per_sec\":\([0-9.eE+-]*\),.*/\1/p" "$1"
}
kus() {
    sed -n "s/.*\"$2\":{\([^}]*\)}.*/\1/p" "$1" \
        | sed -n "s/.*\"$3\":\([0-9.eE+-]*\).*/\1/p"
}
# Compares one snapshot against $PREV; subshell body, so `exit 1` only
# fails this attempt, not the whole script.
perf_band_check() (
    snap="$1"
    for c in e2_ours e2_yy; do
        OLD="$(tps "$PREV" "$c")"
        NEW="$(tps "$snap" "$c")"
        [ -n "$OLD" ] && [ -n "$NEW" ] \
            || { echo "perf snapshot missing campaign $c"; exit 1; }
        awk -v old="$OLD" -v new="$NEW" -v c="$c" -v snap="$PREV" 'BEGIN {
            ratio = new / old;
            printf "    %-8s %8.2f -> %8.2f trials/s (x%.2f vs %s)\n",
                   c, old, new, ratio, snap;
            if (ratio < 0.555) {
                printf "perf regression: %s dropped to x%.2f of %s\n",
                       c, ratio, snap;
                exit 1;
            }
        }' || exit 1
    done
    # Kernel-level latencies (µs — LOWER is better, so the band flips):
    # only a >1.8x slowdown on an instrumented kernel fails the gate.
    for nk in n32 n128; do
        for k in sec_us rho_us views_us regular_us shifted_us; do
            OLD="$(kus "$PREV" "$nk" "$k")"
            NEW="$(kus "$snap" "$nk" "$k")"
            [ -n "$OLD" ] && [ -n "$NEW" ] \
                || { echo "perf snapshot missing kernels.$nk.$k"; exit 1; }
            awk -v old="$OLD" -v new="$NEW" -v k="$nk.$k" -v snap="$PREV" \
                'BEGIN {
                ratio = new / old;
                printf "    %-20s %10.2f -> %10.2f us (x%.2f vs %s)\n",
                       k, old, new, ratio, snap;
                if (ratio > 1.8) {
                    printf "perf regression: kernel %s slowed to x%.2f of %s\n",
                           k, ratio, snap;
                    exit 1;
                }
            }' || exit 1
        done
    done
)
if [ -n "$PREV" ]; then
    # The sub-10µs kernels can catch a bad scheduling slice right after the
    # heavy soak stages; a genuine regression reproduces, noise does not.
    # Best-of-3: each attempt takes a fresh snapshot, any in-band run passes.
    ATTEMPT=1
    while :; do
        ./target/release/apf-cli perf-snapshot --out "$SERVE_DIR/perf.json"
        perf_band_check "$SERVE_DIR/perf.json" && break
        [ "$ATTEMPT" -lt 3 ] \
            || { echo "perf regression persisted across $ATTEMPT snapshots"; exit 1; }
        ATTEMPT=$((ATTEMPT + 1))
        echo "    out-of-band sample; re-measuring (attempt $ATTEMPT/3)"
    done
else
    echo "    no committed BENCH_*.json yet; skipping the diff"
fi

echo "OK"
