//! Integration tests for coordinator mode and the content-addressed result
//! cache, over real TCP sockets: shard fan-out merged bit-identically to a
//! single-process engine run, retry after backend loss without
//! double-counting, cache hits with integrity re-verification, and the
//! cache-vs-engine equality property.

use apf_bench::engine::Engine;
use apf_bench::spec::CanonicalSpec;
use apf_serve::cache::{CacheConfig, ResultCache};
use apf_serve::coordinator::CoordinatorConfig;
use apf_serve::json::{self, Json};
use apf_serve::{JobOutcome, Server, ServerConfig, ShutdownHandle, SoakOutcome};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

struct TestServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(cfg: ServerConfig) -> TestServer {
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    TestServer { addr, handle, join }
}

impl TestServer {
    fn stop(self) {
        self.handle.shutdown();
        self.join.join().expect("server thread").expect("clean shutdown");
    }
}

fn backend_config() -> ServerConfig {
    ServerConfig { workers: 2, queue_depth: 32, ..ServerConfig::default() }
}

fn coordinator_config(backends: &[&TestServer]) -> ServerConfig {
    ServerConfig {
        workers: 1,
        coordinator: CoordinatorConfig {
            backends: backends.iter().map(|b| b.addr.to_string()).collect(),
            poll_interval: Duration::from_millis(10),
            ..CoordinatorConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("UTF-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("framed response");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head.to_string(), payload.to_string())
}

fn submit(addr: SocketAddr, body: &str) -> Json {
    let (status, _head, payload) = request(addr, "POST", "/v1/jobs", body);
    let v = json::parse(&payload).unwrap_or(Json::Null);
    assert_eq!(status, 202, "{v:?}");
    v
}

fn wait_done(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "job {id} disappeared");
        let v = json::parse(&body).expect("status json");
        let s = v.get("status").and_then(Json::as_str).expect("status field").to_string();
        if matches!(s.as_str(), "done" | "cancelled" | "failed") {
            assert_eq!(s, "done", "job {id} ended as {s}: {v:?}");
            return v;
        }
        assert!(Instant::now() < deadline, "timed out on job {id} (last: {s})");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fetch_outcome(addr: SocketAddr, id: u64) -> JobOutcome {
    let (status, _, body) = request(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    assert_eq!(status, 200);
    let v = json::parse(&body).expect("result json");
    JobOutcome::from_json(v.get("result").expect("result member")).expect("parse outcome")
}

fn fetch_soak_outcome(addr: SocketAddr, id: u64) -> SoakOutcome {
    let (status, _, body) = request(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    assert_eq!(status, 200);
    let v = json::parse(&body).expect("result json");
    SoakOutcome::from_json(v.get("result").expect("result member")).expect("parse soak outcome")
}

/// The value of the `/metrics` sample whose line starts with `sample`.
fn scrape(addr: SocketAddr, sample: &str) -> f64 {
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(sample))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {sample:?} sample:\n{metrics}"))
}

/// The single-process ground truth for `spec`, via the same construction
/// path `apf-cli job-digest` uses.
fn direct_run(spec: &CanonicalSpec) -> (Vec<u64>, apf_bench::Aggregate, u64) {
    let report = Engine::new().jobs(2).trace_digests(true).run(&spec.to_campaign());
    (report.digests.clone().expect("digests"), report.aggregate(), report.stats.formed())
}

/// Bitwise equality between a coordinator outcome and the direct run.
fn assert_bit_identical(outcome: &JobOutcome, spec: &CanonicalSpec) {
    let (digests, agg, formed) = direct_run(spec);
    assert_eq!(outcome.digests, digests, "per-trial digests diverged");
    assert_eq!(outcome.trials as u64, spec.trials);
    assert_eq!(outcome.formed, formed);
    assert_eq!(outcome.success.to_bits(), agg.success.to_bits());
    assert_eq!(outcome.mean_cycles.to_bits(), agg.mean_cycles.to_bits());
    assert_eq!(outcome.median_cycles.to_bits(), agg.median_cycles.to_bits());
    assert_eq!(outcome.p95_cycles.to_bits(), agg.p95_cycles.to_bits());
    assert_eq!(outcome.mean_bits.to_bits(), agg.mean_bits.to_bits());
    assert_eq!(outcome.bits_per_cycle.to_bits(), agg.bits_per_cycle.to_bits());
}

#[test]
fn coordinator_merge_is_bit_identical_to_single_process_run() {
    let b1 = start(backend_config());
    let b2 = start(backend_config());
    let coord = start(coordinator_config(&[&b1, &b2]));

    // 7 trials over 2 backends x 2 shards = shards of 2,2,2,1 — uneven
    // split including a single-trial shard.
    let spec = CanonicalSpec { name: "dist".to_string(), trials: 7, ..CanonicalSpec::default() };
    let v = submit(coord.addr, r#"{"name":"dist","trials":7}"#);
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    wait_done(coord.addr, id);
    let outcome = fetch_outcome(coord.addr, id);
    assert_bit_identical(&outcome, &spec);
    assert!(!outcome.cached);
    // The coordinator records its own wall clock (sharding + dispatch +
    // merge), not a placeholder.
    assert!(outcome.wall_secs > 0.0, "coordinated outcome must carry real wall time");

    // The fan-out's shard round-trips landed in the latency histogram.
    let (_, _, metrics) = request(coord.addr, "GET", "/metrics", "");
    let roundtrips = metrics
        .lines()
        .find_map(|l| l.strip_prefix("apf_shard_roundtrip_seconds_count "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("shard round-trip histogram");
    assert!(roundtrips >= 4, "expected >= 4 shard round-trips, saw {roundtrips}:\n{metrics}");

    // A single-trial campaign: fewer trials than shard slots.
    let spec1 = CanonicalSpec { name: "one".to_string(), trials: 1, ..CanonicalSpec::default() };
    let v = submit(coord.addr, r#"{"name":"one","trials":1}"#);
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    wait_done(coord.addr, id);
    assert_bit_identical(&fetch_outcome(coord.addr, id), &spec1);

    // An empty shard range executes zero trials and still completes.
    let v = submit(coord.addr, r#"{"name":"dist","trials":7,"range":[3,3],"detail":true}"#);
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    wait_done(coord.addr, id);
    let empty = fetch_outcome(coord.addr, id);
    assert_eq!(empty.trials, 0);
    assert_eq!(empty.requested, 0);
    assert!(empty.digests.is_empty());
    assert_eq!(empty.detail.as_deref(), Some(&[][..]));

    // A sub-range equals the same slice of the full run.
    let v = submit(coord.addr, r#"{"name":"dist","trials":7,"range":[2,6]}"#);
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    wait_done(coord.addr, id);
    let sliced = fetch_outcome(coord.addr, id);
    let (full_digests, _, _) = direct_run(&spec);
    assert_eq!(sliced.digests, full_digests[2..6]);

    coord.stop();
    b1.stop();
    b2.stop();
}

#[test]
fn dead_backend_shards_are_retried_on_survivors_without_double_count() {
    // A backend address that refuses connections: bind an ephemeral port,
    // then drop the listener before anything connects.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let live = start(backend_config());
    let coord = start(ServerConfig {
        workers: 1,
        coordinator: CoordinatorConfig {
            backends: vec![dead_addr, live.addr.to_string()],
            poll_interval: Duration::from_millis(10),
            request_timeout: Duration::from_secs(2),
            ..CoordinatorConfig::default()
        },
        ..ServerConfig::default()
    });

    let spec = CanonicalSpec { name: "retry".to_string(), trials: 5, ..CanonicalSpec::default() };
    let v = submit(coord.addr, r#"{"name":"retry","trials":5}"#);
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    wait_done(coord.addr, id);
    let outcome = fetch_outcome(coord.addr, id);

    // Every shard landed exactly once (digest vector length == trials) and
    // the merge is still bit-identical — re-dispatch did not double-count.
    assert_bit_identical(&outcome, &spec);

    // The dead backend's failures are visible as retries.
    let (_, _, metrics) = request(coord.addr, "GET", "/metrics", "");
    let retried = metrics
        .lines()
        .find_map(|l| l.strip_prefix("apf_shards_total{event=\"retried\"} "))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("retry counter");
    assert!(retried >= 1.0, "expected retries against the dead backend:\n{metrics}");

    coord.stop();
    live.stop();
}

#[test]
fn backend_shutdown_mid_job_moves_work_to_survivor() {
    let b1 = start(backend_config());
    let b2 = start(backend_config());
    let coord = start(coordinator_config(&[&b1, &b2]));

    // Enough trials that the job outlives the backend we take down.
    let spec = CanonicalSpec { name: "mid".to_string(), trials: 64, ..CanonicalSpec::default() };
    let v = submit(coord.addr, r#"{"name":"mid","trials":64}"#);
    let id = v.get("id").and_then(Json::as_u64).expect("id");

    // Take a backend down while (most likely) mid-shard. Its in-flight
    // shard reports backend-side cancellation, which the coordinator must
    // treat as retryable — never as a legitimate partial result.
    std::thread::sleep(Duration::from_millis(50));
    b2.stop();

    wait_done(coord.addr, id);
    let outcome = fetch_outcome(coord.addr, id);
    assert_bit_identical(&outcome, &spec);

    coord.stop();
    b1.stop();
}

#[test]
fn dead_backend_mid_soak_shards_are_retried_without_double_count() {
    // A backend address that refuses connections: bind an ephemeral port,
    // then drop the listener before anything connects.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let live = start(backend_config());
    let coord = start(ServerConfig {
        workers: 1,
        coordinator: CoordinatorConfig {
            backends: vec![dead_addr, live.addr.to_string()],
            poll_interval: Duration::from_millis(10),
            request_timeout: Duration::from_secs(2),
            ..CoordinatorConfig::default()
        },
        ..ServerConfig::default()
    });

    let (status, head, payload) =
        request(coord.addr, "POST", "/v1/soak", r#"{"seed":5,"cases":12,"robots":8}"#);
    assert_eq!(status, 202, "{head}\n{payload}");
    let v = json::parse(&payload).expect("submit json");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("soak"));
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    wait_done(coord.addr, id);

    // Exactly the requested case count survives the dead backend's
    // retries: shards moved to the survivor land once each, never twice.
    let outcome = fetch_soak_outcome(coord.addr, id);
    assert_eq!(outcome.cases, 12, "retries must not drop or double-count cases");
    assert_eq!(outcome.violations, 0, "real classifiers must fuzz clean");
    assert_eq!(outcome.clean, 12);
    assert!(outcome.wall_secs > 0.0);

    // The coordinator's own soak counter agrees (each shard is counted at
    // most once, on acceptance), and the dead backend's connection
    // failures are visible as shard retries.
    let soaked = scrape(coord.addr, "apf_soak_cases_total ");
    assert!((soaked - 12.0).abs() < f64::EPSILON, "coordinator counted {soaked} cases");
    let retried = scrape(coord.addr, "apf_shards_total{event=\"retried\"} ");
    assert!(retried >= 1.0, "expected retries against the dead backend, saw {retried}");

    coord.stop();
    live.stop();
}

#[test]
fn timed_coordinated_soak_dispatches_whole_rounds() {
    let b1 = start(backend_config());
    let b2 = start(backend_config());
    let mut cfg = coordinator_config(&[&b1, &b2]);
    cfg.coordinator.shards_per_backend = 1;
    let coord = start(cfg);

    let (status, head, payload) =
        request(coord.addr, "POST", "/v1/soak", r#"{"seconds":1,"robots":8}"#);
    assert_eq!(status, 202, "{head}\n{payload}");
    let id = json::parse(&payload).ok().and_then(|v| v.get("id").and_then(Json::as_u64));
    let id = id.expect("id");
    wait_done(coord.addr, id);

    // A round is backends x shards_per_backend x 8 cases, and the timed
    // loop only ever dispatches whole rounds, each counted once on landing.
    let outcome = fetch_soak_outcome(coord.addr, id);
    assert!(outcome.cases > 0 && outcome.cases.is_multiple_of(16), "{} cases", outcome.cases);
    let soaked = scrape(coord.addr, "apf_soak_cases_total ");
    assert!((soaked - outcome.cases as f64).abs() < f64::EPSILON, "counted {soaked} cases");

    coord.stop();
    b1.stop();
    b2.stop();
}

#[test]
fn repeated_spec_is_answered_from_cache_and_reverified() {
    let ts = start(ServerConfig {
        workers: 1,
        cache: CacheConfig { dir: None, max_entries: 16, verify_every: 1 },
        ..ServerConfig::default()
    });

    let body = r#"{"name":"cache","trials":2,"seed":3}"#;
    let v = submit(ts.addr, body);
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    assert_ne!(v.get("cached"), Some(&Json::Bool(true)), "first run cannot be cached");
    wait_done(ts.addr, id);
    let first = fetch_outcome(ts.addr, id);

    // The repeat is terminal on arrival, marked cached, and bit-identical.
    let v = submit(ts.addr, body);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(v.get("cached"), Some(&Json::Bool(true)));
    let id2 = v.get("id").and_then(Json::as_u64).expect("id");
    let second = fetch_outcome(ts.addr, id2);
    assert!(second.cached);
    assert_eq!(second.digests, first.digests);
    assert_eq!(second.success.to_bits(), first.success.to_bits());
    assert_eq!(second.mean_cycles.to_bits(), first.mean_cycles.to_bits());

    // verify_every=1 enqueued an integrity replay (job id2+1); it must
    // complete and agree with the cached bytes.
    wait_done(ts.addr, id2 + 1);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, _, metrics) = request(ts.addr, "GET", "/metrics", "");
        assert!(
            !metrics.contains("apf_cache_total{event=\"verify_fail\"} 1"),
            "cache verification failed:\n{metrics}"
        );
        if metrics.contains("apf_cache_total{event=\"verify_ok\"} 1") {
            assert!(metrics.contains("apf_cache_total{event=\"hit\"} 1"), "{metrics}");
            assert!(metrics.contains("apf_cache_total{event=\"store\"}"), "{metrics}");
            break;
        }
        assert!(Instant::now() < deadline, "verify_ok never appeared:\n{metrics}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Shard/detail submissions bypass the cache even when the canonical
    // spec matches.
    let v = submit(ts.addr, r#"{"name":"cache","trials":2,"seed":3,"range":[0,1]}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("queued"));

    ts.stop();
}

#[test]
fn cache_persists_across_server_restarts() {
    let dir = std::env::temp_dir().join(format!("apf-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheConfig { dir: Some(dir.clone()), max_entries: 16, verify_every: 0 };
    let body = r#"{"name":"persist","trials":2,"seed":9}"#;

    let first = {
        let ts = start(ServerConfig { cache: cache.clone(), ..ServerConfig::default() });
        let v = submit(ts.addr, body);
        let id = v.get("id").and_then(Json::as_u64).expect("id");
        wait_done(ts.addr, id);
        let outcome = fetch_outcome(ts.addr, id);
        ts.stop();
        outcome
    };

    // A fresh process over the same directory answers from disk.
    let ts = start(ServerConfig { cache, ..ServerConfig::default() });
    let v = submit(ts.addr, body);
    assert_eq!(v.get("cached"), Some(&Json::Bool(true)), "{v:?}");
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    let outcome = fetch_outcome(ts.addr, id);
    assert_eq!(outcome.digests, first.digests);
    assert_eq!(outcome.mean_cycles.to_bits(), first.mean_cycles.to_bits());
    ts.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The cache-hit-equals-engine-run property: storing a run's outcome
    /// through the cache's disk format and reading it back yields exactly
    /// what a fresh engine run of the same spec produces — digests and
    /// statistics bit for bit, for arbitrary specs.
    #[test]
    fn cache_hit_equals_fresh_engine_run(
        seed in any::<u64>(),
        trials in 1u64..4,
        generator_sym in any::<bool>(),
    ) {
        let spec = CanonicalSpec {
            name: "prop".to_string(),
            seed,
            trials,
            generator: if generator_sym {
                apf_bench::spec::Generator::Symmetric
            } else {
                apf_bench::spec::Generator::Asymmetric
            },
            budget: 500_000,
            ..CanonicalSpec::default()
        };
        prop_assert!(spec.validate().is_ok());

        let report = Engine::new().trace_digests(true).run(&spec.to_campaign());
        let agg = report.aggregate();
        let outcome = JobOutcome {
            trials: report.trials,
            requested: report.requested,
            formed: report.stats.formed(),
            success: agg.success,
            mean_cycles: agg.mean_cycles,
            median_cycles: agg.median_cycles,
            p95_cycles: agg.p95_cycles,
            mean_bits: agg.mean_bits,
            bits_per_cycle: agg.bits_per_cycle,
            digests: report.digests.clone().expect("digests"),
            wall_secs: report.wall.as_secs_f64(),
            detail: None,
            cached: false,
        };

        let dir = std::env::temp_dir()
            .join(format!("apf-cache-prop-{}-{seed:016x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig { dir: Some(dir.clone()), max_entries: 4, verify_every: 0 };
        ResultCache::open(cfg.clone()).expect("open").store(&spec, &outcome);

        // Reopen (forcing the disk round trip) and compare the hit against
        // a second, independent engine run.
        let cache = ResultCache::open(cfg).expect("reopen");
        let hit = cache.lookup(spec.digest()).expect("hit");
        let fresh = Engine::new().jobs(2).trace_digests(true).run(&spec.to_campaign());
        let fresh_agg = fresh.aggregate();
        prop_assert_eq!(&hit.outcome.digests, fresh.digests.as_ref().expect("digests"));
        prop_assert_eq!(hit.outcome.success.to_bits(), fresh_agg.success.to_bits());
        prop_assert_eq!(hit.outcome.mean_cycles.to_bits(), fresh_agg.mean_cycles.to_bits());
        prop_assert_eq!(hit.outcome.median_cycles.to_bits(), fresh_agg.median_cycles.to_bits());
        prop_assert_eq!(hit.outcome.p95_cycles.to_bits(), fresh_agg.p95_cycles.to_bits());
        prop_assert_eq!(hit.outcome.mean_bits.to_bits(), fresh_agg.mean_bits.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
