//! Prometheus text-format metrics for the campaign service.
//!
//! The exposition follows the text format version 0.0.4: `# HELP` and
//! `# TYPE` comment lines, then one sample per line, label values escaped.
//! Counters are monotonic for the life of the process; gauges describe the
//! current queue/worker state. Trial-level counters come from summing every
//! job's [`apf_bench::engine::LiveStats`] snapshot (jobs are retained for
//! the life of the process, so the sums never go backwards); per-phase
//! totals and the longest-trial gauge are folded in when a job finishes.
//!
//! Latency is tracked by [`Log2Histogram`], the same log-2 nanosecond
//! histogram the engine's span profile keeps per label: `observe` is two
//! relaxed atomic adds, lock-free on the request path. A scrape renders
//! the cumulative `_bucket{le=...}` / `_sum` / `_count` triplet Prometheus
//! expects from a `histogram`, over a fixed window of its buckets.

use apf_bench::engine::StreamingAggregate;
use apf_trace::{Log2Histogram, PhaseKind};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The log-2 buckets a scrape renders as finite `le` bounds: 2^16 ns
/// (65.5 µs) through 2^31 ns (2.15 s), then `+Inf`. Doubling bounds keep
/// the table small while spanning sub-millisecond HTTP handling and
/// multi-second campaign execution.
const LE_BUCKETS: std::ops::RangeInclusive<usize> = 16..=31;

/// Process-wide counters the request path and workers update.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs accepted by `POST /jobs`.
    pub jobs_submitted: AtomicU64,
    /// Jobs finished successfully.
    pub jobs_done: AtomicU64,
    /// Jobs cancelled (queued or mid-run).
    pub jobs_cancelled: AtomicU64,
    /// Jobs whose worker panicked.
    pub jobs_failed: AtomicU64,
    /// Submissions rejected with 429 (queue full).
    pub jobs_rejected: AtomicU64,
    /// Submissions rejected with 429 (per-client quota exhausted).
    pub quota_rejected: AtomicU64,
    /// Cache lookups that answered a submission without running.
    pub cache_hits: AtomicU64,
    /// Cache lookups that missed (cacheable specs only).
    pub cache_misses: AtomicU64,
    /// Results stored into the cache.
    pub cache_stores: AtomicU64,
    /// Integrity replays whose digests matched the cached outcome.
    pub cache_verify_ok: AtomicU64,
    /// Integrity replays that contradicted the cache (entry evicted).
    pub cache_verify_fail: AtomicU64,
    /// Shards dispatched to backends (coordinator mode).
    pub shards_dispatched: AtomicU64,
    /// Shards requeued after a backend error (coordinator mode).
    pub shard_retries: AtomicU64,
    /// Geometry-fuzz cases executed by soak jobs.
    pub soak_cases: AtomicU64,
    /// Minimized counterexamples soak jobs found (0 on a healthy stack).
    pub soak_violations: AtomicU64,
    /// Shrink candidates soak jobs evaluated while minimizing violations.
    pub soak_shrink_steps: AtomicU64,
    /// Soak wall time in microseconds (rendered as seconds).
    pub soak_wall_micros: AtomicU64,
    /// HTTP responses by status class: 2xx, 4xx, 5xx.
    pub http_2xx: AtomicU64,
    /// 4xx responses.
    pub http_4xx: AtomicU64,
    /// 5xx responses.
    pub http_5xx: AtomicU64,
    /// Wall time from accepting a connection to having its response ready.
    pub http_request_seconds: Log2Histogram,
    /// Wall time jobs spent queued before a worker claimed them.
    pub job_queue_wait_seconds: Log2Histogram,
    /// Wall time workers spent executing jobs (local engine or coordinated).
    pub job_exec_seconds: Log2Histogram,
    /// Wall time of one successful shard round-trip: submit, poll to
    /// completion, fetch the detail result (coordinator mode).
    pub shard_roundtrip_seconds: Log2Histogram,
    folded: Mutex<Folded>,
}

/// Totals folded in at job completion (needs the merged aggregate, which
/// only exists once a campaign ends).
#[derive(Debug, Default)]
struct Folded {
    phase_cycles: [f64; PhaseKind::COUNT],
    phase_bits: [f64; PhaseKind::COUNT],
    longest_trial_secs: f64,
}

impl Metrics {
    /// Folds a finished job's aggregate into the per-phase totals and the
    /// longest-trial gauge.
    pub fn fold_report(&self, stats: &StreamingAggregate, longest_trial: Option<Duration>) {
        let mut f = self.folded();
        for kind in PhaseKind::ALL {
            f.phase_cycles[kind.index()] += stats.phase_cycles_total(kind);
            f.phase_bits[kind.index()] += stats.phase_bits_total(kind);
        }
        if let Some(d) = longest_trial {
            if d.as_secs_f64() > f.longest_trial_secs {
                f.longest_trial_secs = d.as_secs_f64();
            }
        }
    }

    /// Counts one HTTP response toward its status class.
    pub fn count_response(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.http_2xx,
            500..=599 => &self.http_5xx,
            _ => &self.http_4xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn folded(&self) -> std::sync::MutexGuard<'_, Folded> {
        // apf-lint: allow(panic-policy, panic-reachability) — no code path panics while holding this lock, so poisoning is impossible; losing metrics integrity should kill the worker
        self.folded.lock().expect("metrics lock poisoned")
    }

    /// Renders the exposition body. The caller supplies the live queue and
    /// worker state plus the summed trial counters.
    pub fn render(&self, live: &LiveView) -> String {
        let mut out = String::with_capacity(2048);

        counter(
            &mut out,
            "apf_jobs_total",
            "Jobs by terminal or queue-transition state.",
            &[
                ("state", "submitted", self.jobs_submitted.load(Ordering::Relaxed) as f64),
                ("state", "done", self.jobs_done.load(Ordering::Relaxed) as f64),
                ("state", "cancelled", self.jobs_cancelled.load(Ordering::Relaxed) as f64),
                ("state", "failed", self.jobs_failed.load(Ordering::Relaxed) as f64),
                ("state", "rejected", self.jobs_rejected.load(Ordering::Relaxed) as f64),
            ],
        );
        counter(
            &mut out,
            "apf_cache_total",
            "Content-addressed result cache events.",
            &[
                ("event", "hit", self.cache_hits.load(Ordering::Relaxed) as f64),
                ("event", "miss", self.cache_misses.load(Ordering::Relaxed) as f64),
                ("event", "store", self.cache_stores.load(Ordering::Relaxed) as f64),
                ("event", "verify_ok", self.cache_verify_ok.load(Ordering::Relaxed) as f64),
                ("event", "verify_fail", self.cache_verify_fail.load(Ordering::Relaxed) as f64),
            ],
        );
        counter(
            &mut out,
            "apf_shards_total",
            "Coordinator shard dispatch events.",
            &[
                ("event", "dispatched", self.shards_dispatched.load(Ordering::Relaxed) as f64),
                ("event", "retried", self.shard_retries.load(Ordering::Relaxed) as f64),
            ],
        );
        simple_counter(
            &mut out,
            "apf_soak_cases_total",
            "Geometry-fuzz cases executed by soak jobs.",
            self.soak_cases.load(Ordering::Relaxed) as f64,
        );
        simple_counter(
            &mut out,
            "apf_soak_violations_total",
            "Minimized soak counterexamples (0 on a healthy stack).",
            self.soak_violations.load(Ordering::Relaxed) as f64,
        );
        simple_counter(
            &mut out,
            "apf_soak_shrink_steps_total",
            "Shrink candidates evaluated while minimizing soak violations.",
            self.soak_shrink_steps.load(Ordering::Relaxed) as f64,
        );
        simple_counter(
            &mut out,
            "apf_soak_wall_seconds_total",
            "Wall time soak jobs spent fuzzing.",
            self.soak_wall_micros.load(Ordering::Relaxed) as f64 / 1e6,
        );
        simple_counter(
            &mut out,
            "apf_quota_rejected_total",
            "Submissions rejected by the per-client quota.",
            self.quota_rejected.load(Ordering::Relaxed) as f64,
        );
        counter(
            &mut out,
            "apf_http_responses_total",
            "HTTP responses by status class.",
            &[
                ("class", "2xx", self.http_2xx.load(Ordering::Relaxed) as f64),
                ("class", "4xx", self.http_4xx.load(Ordering::Relaxed) as f64),
                ("class", "5xx", self.http_5xx.load(Ordering::Relaxed) as f64),
            ],
        );

        histogram(
            &mut out,
            "apf_http_request_seconds",
            "HTTP request handling latency (accept to response ready).",
            &self.http_request_seconds,
        );
        histogram(
            &mut out,
            "apf_job_queue_wait_seconds",
            "Time jobs waited in the queue before a worker claimed them.",
            &self.job_queue_wait_seconds,
        );
        histogram(
            &mut out,
            "apf_job_exec_seconds",
            "Job execution wall time (local engine run or coordinated fan-out).",
            &self.job_exec_seconds,
        );
        histogram(
            &mut out,
            "apf_shard_roundtrip_seconds",
            "Successful shard round-trips: submit, poll, result fetch (coordinator mode).",
            &self.shard_roundtrip_seconds,
        );

        gauge(&mut out, "apf_queue_depth", "Jobs waiting in the queue.", live.queued as f64);
        gauge(&mut out, "apf_jobs_running", "Jobs currently executing.", live.running as f64);
        gauge(&mut out, "apf_workers", "Worker threads in the pool.", live.workers as f64);
        gauge(
            &mut out,
            "apf_worker_utilization",
            "Fraction of worker wall-clock spent inside trials since start.",
            live.utilization,
        );

        simple_counter(
            &mut out,
            "apf_trials_total",
            "Trials completed across all jobs.",
            live.trials as f64,
        );
        simple_counter(
            &mut out,
            "apf_trials_formed_total",
            "Trials that formed the pattern.",
            live.formed as f64,
        );
        simple_counter(
            &mut out,
            "apf_cycles_total",
            "LCM cycles across all completed trials.",
            live.cycles as f64,
        );
        simple_counter(
            &mut out,
            "apf_random_bits_total",
            "Random bits drawn across all completed trials.",
            live.bits as f64,
        );
        simple_counter(
            &mut out,
            "apf_worker_busy_seconds_total",
            "Worker time spent inside trials.",
            live.busy_secs,
        );

        let f = self.folded();
        let phase_cycles: Vec<(&str, &str, f64)> = PhaseKind::ALL
            .into_iter()
            .map(|k| ("phase", k.label(), f.phase_cycles[k.index()]))
            .filter(|&(_, _, v)| v > 0.0)
            .collect();
        if !phase_cycles.is_empty() {
            counter(
                &mut out,
                "apf_phase_cycles_total",
                "Cycles successful trials spent per algorithm phase (finished jobs).",
                &phase_cycles,
            );
        }
        let phase_bits: Vec<(&str, &str, f64)> = PhaseKind::ALL
            .into_iter()
            .map(|k| ("phase", k.label(), f.phase_bits[k.index()]))
            .filter(|&(_, _, v)| v > 0.0)
            .collect();
        if !phase_bits.is_empty() {
            counter(
                &mut out,
                "apf_phase_random_bits_total",
                "Random bits successful trials drew per algorithm phase (finished jobs).",
                &phase_bits,
            );
        }
        gauge(
            &mut out,
            "apf_longest_trial_seconds",
            "Wall time of the slowest single trial seen in any finished job.",
            f.longest_trial_secs,
        );
        drop(f);

        gauge(
            &mut out,
            "apf_trials_per_second",
            "Trial throughput since process start.",
            if live.uptime_secs > 0.0 { live.trials as f64 / live.uptime_secs } else { 0.0 },
        );
        gauge(
            &mut out,
            "apf_uptime_seconds",
            "Seconds since the server started.",
            live.uptime_secs,
        );

        out
    }
}

/// The point-in-time state the server computes for a scrape.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveView {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Worker threads.
    pub workers: usize,
    /// Trials completed across all jobs.
    pub trials: u64,
    /// Successful trials across all jobs.
    pub formed: u64,
    /// Cycles across all completed trials.
    pub cycles: u64,
    /// Random bits across all completed trials.
    pub bits: u64,
    /// Worker busy seconds across all jobs.
    pub busy_secs: f64,
    /// busy / (workers × uptime), clamped to [0, 1].
    pub utilization: f64,
    /// Seconds since server start.
    pub uptime_secs: f64,
}

fn simple_counter(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {}", num(value));
}

fn counter(out: &mut String, name: &str, help: &str, samples: &[(&str, &str, f64)]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for (label, label_value, value) in samples {
        let _ = writeln!(out, "{name}{{{label}=\"{label_value}\"}} {}", num(*value));
    }
}

/// Renders one `histogram` block: cumulative counts at the `LE_BUCKETS`
/// bounds (in seconds), `+Inf`, `_sum` in seconds, and `_count`.
fn histogram(out: &mut String, name: &str, help: &str, h: &Log2Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for k in LE_BUCKETS {
        let le = Log2Histogram::upper_bound_ns(k) as f64 / 1e9;
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {}", num(le), h.cumulative(k));
    }
    let count = h.count();
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
    let _ = writeln!(out, "{name}_sum {}", num(h.sum_ns() as f64 / 1e9));
    let _ = writeln!(out, "{name}_count {count}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {}", num(value));
}

/// Prometheus floats: finite values with Rust's shortest formatting.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny structural validator for the exposition format: every
    /// non-comment line is `name[{label="value"}] number`, and every metric
    /// name is introduced by HELP and TYPE lines first.
    fn assert_valid_prometheus(text: &str) {
        let mut announced: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.splitn(3, ' ');
                let kw = parts.next().unwrap_or("");
                let name = parts.next().unwrap_or("");
                assert!(kw == "HELP" || kw == "TYPE", "bad comment: {line}");
                assert!(!name.is_empty(), "comment without metric name: {line}");
                if kw == "TYPE" {
                    let t = parts.next().unwrap_or("");
                    assert!(t == "counter" || t == "gauge" || t == "histogram", "bad type: {line}");
                    announced.insert(name.to_string());
                    if t == "histogram" {
                        // A histogram's samples use derived names.
                        announced.insert(format!("{name}_bucket"));
                        announced.insert(format!("{name}_sum"));
                        announced.insert(format!("{name}_count"));
                    }
                }
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
            let name = name_part.split('{').next().unwrap_or(name_part);
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name: {line}"
            );
            assert!(announced.contains(name), "sample before TYPE: {line}");
            assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
            if let Some(labels) = name_part.strip_prefix(name) {
                if !labels.is_empty() {
                    assert!(labels.starts_with('{') && labels.ends_with('}'), "bad labels: {line}");
                }
            }
        }
        assert!(!announced.is_empty());
    }

    #[test]
    fn renders_valid_exposition_format() {
        let m = Metrics::default();
        m.jobs_submitted.fetch_add(3, Ordering::Relaxed);
        m.count_response(200);
        m.count_response(404);
        let view = LiveView {
            queued: 1,
            running: 2,
            workers: 2,
            trials: 40,
            formed: 39,
            cycles: 1200,
            bits: 600,
            busy_secs: 1.25,
            utilization: 0.625,
            uptime_secs: 2.0,
        };
        m.soak_cases.fetch_add(16, Ordering::Relaxed);
        m.soak_wall_micros.fetch_add(2_500_000, Ordering::Relaxed);
        let text = m.render(&view);
        assert_valid_prometheus(&text);
        assert!(text.contains("apf_jobs_total{state=\"submitted\"} 3"), "{text}");
        assert!(text.contains("apf_queue_depth 1"));
        assert!(text.contains("apf_trials_total 40"));
        assert!(text.contains("apf_trials_per_second 20"));
        // The soak counters are always announced, even before any soak job
        // runs — check.sh's mini-soak gate greps for them.
        assert!(text.contains("apf_soak_cases_total 16"), "{text}");
        assert!(text.contains("apf_soak_violations_total 0"), "{text}");
        assert!(text.contains("apf_soak_shrink_steps_total 0"), "{text}");
        assert!(text.contains("apf_soak_wall_seconds_total 2.5"), "{text}");
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let m = Metrics::default();
        m.http_request_seconds.observe(Duration::from_micros(50)); // below first bound
        m.http_request_seconds.observe(Duration::from_nanos(1 << 16)); // on the first bound
        m.http_request_seconds.observe(Duration::from_millis(3)); // mid-table
        m.http_request_seconds.observe(Duration::from_secs(60)); // beyond last bound
        let text = m.render(&LiveView::default());
        assert_valid_prometheus(&text);
        assert!(text.contains("# TYPE apf_http_request_seconds histogram"), "{text}");

        // The window's bounds, in seconds: 2^16 ns .. 2^31 ns, then +Inf.
        let bounds: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("apf_http_request_seconds_bucket{le=\""))
            .map(|l| l.split('"').next().unwrap())
            .collect();
        assert_eq!(bounds.len(), LE_BUCKETS.count() + 1);
        assert_eq!(bounds[0], "0.000065536");
        assert_eq!(bounds[bounds.len() - 2], "2.147483648");
        assert_eq!(bounds[bounds.len() - 1], "+Inf");

        // Cumulative bucket counts never decrease, and +Inf equals _count.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("apf_http_request_seconds_bucket")) {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= prev, "non-monotonic cumulative bucket: {line}");
            prev = v;
        }
        // An observation of exactly 2^16 ns counts at le = 2^16 ns.
        assert!(text.contains("apf_http_request_seconds_bucket{le=\"0.000065536\"} 2"), "{text}");
        assert!(text.contains("apf_http_request_seconds_bucket{le=\"0.004194304\"} 3"), "{text}");
        // The 60s observation overflows every finite bucket.
        assert!(text.contains("apf_http_request_seconds_bucket{le=\"2.147483648\"} 3"), "{text}");
        assert!(text.contains("apf_http_request_seconds_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("apf_http_request_seconds_count 4"), "{text}");
        assert_eq!(m.http_request_seconds.count(), 4);

        // The other three histograms are always announced, even when empty,
        // so scrapers (and check.sh) can rely on their presence.
        for name in
            ["apf_job_queue_wait_seconds", "apf_job_exec_seconds", "apf_shard_roundtrip_seconds"]
        {
            assert!(text.contains(&format!("# TYPE {name} histogram")), "{name} missing");
            assert!(text.contains(&format!("{name}_count 0")), "{name} should be empty");
        }
    }

    #[test]
    fn histogram_sum_accumulates_seconds() {
        let h = Log2Histogram::default();
        h.observe(Duration::from_millis(250));
        h.observe(Duration::from_millis(750));
        let mut out = String::new();
        histogram(&mut out, "x_seconds", "test", &h);
        assert!(out.contains("x_seconds_sum 1"), "{out}");
        assert!(out.contains("x_seconds_count 2"), "{out}");
    }

    #[test]
    fn phase_totals_appear_after_fold() {
        use apf_bench::engine::StreamingAggregate;
        use apf_bench::RunResult;
        let m = Metrics::default();
        let mut agg = StreamingAggregate::default();
        let mut r = RunResult { formed: true, cycles: 10, bits: 5, ..RunResult::default() };
        r.phase_cycles[PhaseKind::RsbElection.index()] = 7;
        agg.push(&r);
        m.fold_report(&agg, Some(Duration::from_millis(250)));
        let text = m.render(&LiveView::default());
        assert_valid_prometheus(&text);
        assert!(text.contains("apf_phase_cycles_total{phase=\"rsb-election\"} 7"), "{text}");
        assert!(text.contains("apf_longest_trial_seconds 0.25"));
    }
}
