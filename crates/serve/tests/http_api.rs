//! Integration tests driving the campaign service over a real TCP socket:
//! raw HTTP/1.1 client, job lifecycle, digest parity with direct engine
//! runs, backpressure, cancellation, metrics, and graceful shutdown.

use apf_serve::json::{self, Json};
use apf_serve::{CacheConfig, Server, ServerConfig, ShutdownHandle};
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

/// A raw one-shot HTTP/1.1 exchange.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    request_with_headers(addr, method, path, &[], body)
}

/// A raw exchange with extra request headers.
fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let extra: String = headers.iter().map(|(n, v)| format!("{n}: {v}\r\n")).collect();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra}Content-Length: {}\r\n\r\n{body}",
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

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, _head, body) = request(addr, "GET", path, "");
    (status, json::parse(&body).unwrap_or(Json::Null))
}

fn submit(addr: SocketAddr, body: &str) -> (u16, Json) {
    let (status, _head, payload) = request(addr, "POST", "/v1/jobs", body);
    (status, json::parse(&payload).unwrap_or(Json::Null))
}

/// Polls `GET /v1/jobs/{id}` until its status satisfies `pred`.
fn wait_for_status(addr: SocketAddr, id: u64, pred: impl Fn(&str) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, v) = get_json(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status, 200, "job {id} disappeared");
        let s = v.get("status").and_then(Json::as_str).expect("status field").to_string();
        if pred(&s) {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting on job {id} (last: {s})");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn terminal(s: &str) -> bool {
    matches!(s, "done" | "cancelled" | "failed")
}

#[test]
fn healthz_routes_and_errors() {
    let ts = start(ServerConfig::default());

    // Infrastructure endpoints answer both bare and under /v1.
    for path in ["/healthz", "/v1/healthz"] {
        let (status, v) = get_json(ts.addr, path);
        assert_eq!(status, 200);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    }

    let (status, _, _) = request(ts.addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(ts.addr, "DELETE", "/metrics", "");
    assert_eq!(status, 405);
    let (status, _, _) = request(ts.addr, "GET", "/v1/jobs/7", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(ts.addr, "GET", "/v1/jobs/bogus", "");
    assert_eq!(status, 404);

    // The job API lives under /v1 only; the unversioned paths are unknown.
    for (method, path) in
        [("POST", "/jobs"), ("GET", "/jobs"), ("GET", "/jobs/7"), ("GET", "/jobs/7/result")]
    {
        let (status, head, _) = request(ts.addr, method, path, "");
        assert_eq!(status, 404, "{method} {path}: {head}");
    }

    let (status, v) = submit(ts.addr, "this is not json");
    assert_eq!(status, 400);
    assert!(v.get("error").is_some());
    let (status, _) = submit(ts.addr, r#"{"n":4}"#);
    assert_eq!(status, 400);

    // A malformed request line is a 400, not a dropped connection.
    let mut stream = TcpStream::connect(ts.addr).expect("connect");
    stream.write_all(b"TOTALLY WRONG\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");

    ts.stop();
}

#[test]
fn symmetric_specs_the_generator_cannot_build_are_400s() {
    let ts = start(ServerConfig::default());

    // One orbit is a regular polygon, which always has an axis; 18 orbits
    // jam the generator's radius draw. Neither may take the accept loop
    // down: both are refused, and the server keeps answering.
    for body in [r#"{"n":8,"rho":8}"#, r#"{"n":36,"rho":2}"#] {
        let (status, v) = submit(ts.addr, body);
        assert_eq!(status, 400, "{body}: {v:?}");
        let why = v.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(why.contains("n / rho"), "{body}: {why}");
    }
    let (status, _) = get_json(ts.addr, "/v1/healthz");
    assert_eq!(status, 200);

    ts.stop();
}

#[test]
fn soak_job_at_the_minimum_robot_count_ends_done() {
    let ts = start(ServerConfig::default());

    // Theorem 2's n >= 7 bounds a soak's instances from below.
    let (status, _, _) = request(ts.addr, "POST", "/v1/soak", r#"{"cases":4,"robots":6}"#);
    assert_eq!(status, 400);

    // Seven robots is prime: the perturbed-rho template is one orbit.
    let (status, _, payload) = request(ts.addr, "POST", "/v1/soak", r#"{"cases":4,"robots":7}"#);
    assert_eq!(status, 202, "{payload}");
    let v = json::parse(&payload).expect("submit json");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("soak"));
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    let v = wait_for_status(ts.addr, id, terminal);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("done"), "{v:?}");
    assert_eq!(v.get("soak").and_then(|s| s.get("robots")).and_then(Json::as_u64), Some(7));

    let (status, result) = get_json(ts.addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(status, 200);
    let count = |k: &str| result.get("result").and_then(|r| r.get(k)).and_then(Json::as_u64);
    assert_eq!((count("cases"), count("violations")), (Some(4), Some(0)), "{result:?}");

    ts.stop();
}

#[test]
fn http_job_reproduces_direct_engine_digests() {
    let ts = start(ServerConfig::default());

    let body = r#"{"name":"parity","trials":3,"seed":1,"n":8,"rho":4,"budget":2000000}"#;
    let (status, v) = submit(ts.addr, body);
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("id").and_then(Json::as_u64).expect("job id");

    let v = wait_for_status(ts.addr, id, terminal);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("done"));

    let (status, result) = get_json(ts.addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(status, 200);
    let server_digests: Vec<u64> = result
        .get("result")
        .and_then(|r| r.get("digests"))
        .and_then(Json::as_arr)
        .expect("digests array")
        .iter()
        .map(|d| d.as_u64().expect("u64 digest"))
        .collect();
    assert_eq!(server_digests.len(), 3);

    // The same spec executed directly through the engine — the path
    // `apf-cli job-digest` takes — must produce identical trace digests.
    let spec = apf_serve::JobSpec {
        canonical: apf_bench::spec::CanonicalSpec {
            name: "parity".to_string(),
            trials: 3,
            ..apf_bench::spec::CanonicalSpec::default()
        },
        ..apf_serve::JobSpec::default()
    };
    let report =
        apf_bench::engine::Engine::new().jobs(2).trace_digests(true).run(&spec.to_campaign());
    assert_eq!(report.digests.as_deref().expect("local digests"), &server_digests[..]);

    // The live counters and the result agree on trial counts.
    let trials =
        result.get("result").and_then(|r| r.get("trials")).and_then(Json::as_u64).expect("trials");
    assert_eq!(trials, 3);

    ts.stop();
}

#[test]
fn queue_backpressure_and_cancellation() {
    let ts = start(ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });

    // A long job occupies the single worker; the next fills the queue; the
    // third must bounce with 429 + Retry-After.
    let long = r#"{"name":"long","trials":800,"budget":2000000}"#;
    let (status, a) = submit(ts.addr, long);
    assert_eq!(status, 202);
    let id_a = a.get("id").and_then(Json::as_u64).expect("id");
    wait_for_status(ts.addr, id_a, |s| s == "running");

    let (status, b) = submit(ts.addr, long);
    assert_eq!(status, 202);
    let id_b = b.get("id").and_then(Json::as_u64).expect("id");

    let (status, head, _) = request(ts.addr, "POST", "/v1/jobs", long);
    assert_eq!(status, 429, "{head}");
    assert!(head.contains("Retry-After:"), "{head}");

    // A result query on an unfinished job is a 409.
    let (status, _, _) = request(ts.addr, "GET", &format!("/v1/jobs/{id_a}/result"), "");
    assert_eq!(status, 409);

    // Cancel both; the running one keeps a well-formed partial prefix.
    let (status, _, _) = request(ts.addr, "DELETE", &format!("/v1/jobs/{id_a}"), "");
    assert_eq!(status, 200);
    let (status, _, _) = request(ts.addr, "DELETE", &format!("/v1/jobs/{id_b}"), "");
    assert_eq!(status, 200);

    let va = wait_for_status(ts.addr, id_a, terminal);
    let vb = wait_for_status(ts.addr, id_b, terminal);
    assert_eq!(vb.get("status").and_then(Json::as_str), Some("cancelled"));
    let sa = va.get("status").and_then(Json::as_str).expect("status");
    assert!(terminal(sa) && sa != "failed", "job A ended as {sa}");
    if sa == "cancelled" {
        let result = va.get("result").expect("partial result recorded");
        let trials = result.get("trials").and_then(Json::as_u64).expect("trials");
        let digests = result.get("digests").and_then(Json::as_arr).expect("digests");
        assert!(trials < 800, "cancelled job ran everything");
        assert_eq!(digests.len() as u64, trials, "digest vector matches executed prefix");
    }

    ts.stop();
}

/// The `apf_trials_total` counter from a `/metrics` scrape.
fn trials_total(addr: SocketAddr) -> u64 {
    let (status, _, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|l| l.strip_prefix("apf_trials_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no apf_trials_total sample:\n{body}"))
}

#[test]
fn full_job_table_evicts_the_oldest_finished_jobs() {
    // Cache off, so every job executes and counts its trial.
    let cache = CacheConfig { max_entries: 0, ..CacheConfig::default() };
    let ts = start(ServerConfig { max_jobs: 3, cache, ..ServerConfig::default() });

    let mut ids = Vec::new();
    for k in 0..6u64 {
        let body = format!(r#"{{"name":"evict","seed":{k},"trials":1,"budget":2000000}}"#);
        let (status, v) = submit(ts.addr, &body);
        assert_eq!(status, 202, "job {k} refused: {v:?}");
        let id = v.get("id").and_then(Json::as_u64).expect("job id");
        wait_for_status(ts.addr, id, terminal);
        ids.push(id);
        // Evicted jobs' counters are retired, not dropped: the total counts
        // every finished trial.
        assert_eq!(trials_total(ts.addr), k + 1, "after job {k}");
    }

    // The newest three stay queryable; the oldest answer 404.
    for (k, id) in ids.iter().enumerate() {
        let (status, _, _) = request(ts.addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, if k < 3 { 404 } else { 200 }, "job {k} (id {id})");
    }

    ts.stop();
}

#[test]
fn result_poll_of_an_unfinished_job_is_held_until_it_finishes() {
    let ts = start(ServerConfig { workers: 1, queue_depth: 2, ..ServerConfig::default() });
    // A long job occupies the single worker, so the second one stays queued.
    let long = r#"{"name":"long","trials":800,"budget":2000000}"#;
    let (_, a) = submit(ts.addr, long);
    let id_a = a.get("id").and_then(Json::as_u64).expect("id");
    wait_for_status(ts.addr, id_a, |s| s == "running");
    let (_, b) = submit(ts.addr, long);
    let id_b = b.get("id").and_then(Json::as_u64).expect("id");
    let path_b = format!("/v1/jobs/{id_b}/result");

    // A poll of the queued job is held before it is answered 409.
    let t = Instant::now();
    let (status, _, _) = request(ts.addr, "GET", &path_b, "");
    assert_eq!(status, 409);
    assert!(t.elapsed() >= Duration::from_millis(40), "answered after {:?}", t.elapsed());

    // A poll held while the job is cancelled answers with its final state.
    let addr = ts.addr;
    let poller = std::thread::spawn(move || loop {
        let (status, v) = get_json(addr, &path_b);
        if status != 409 {
            return (status, v);
        }
    });
    std::thread::sleep(Duration::from_millis(10));
    let (status, _, _) = request(ts.addr, "DELETE", &format!("/v1/jobs/{id_b}"), "");
    assert_eq!(status, 200);
    let (status, v) = poller.join().expect("poller thread");
    assert_eq!(status, 200);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("cancelled"));

    request(ts.addr, "DELETE", &format!("/v1/jobs/{id_a}"), "");
    ts.stop();
}

#[test]
fn metrics_scrape_is_valid_prometheus_text() {
    let ts = start(ServerConfig::default());

    let (status, _) = submit(ts.addr, r#"{"name":"m","trials":2,"budget":2000000}"#);
    assert_eq!(status, 202);
    wait_for_status(ts.addr, 1, terminal);

    let (status, head, body) = request(ts.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");

    // Structural validation: samples only for TYPE-announced names, every
    // value a float, labels well-formed.
    let mut announced = std::collections::BTreeSet::new();
    let mut samples = 0usize;
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().expect("type name");
            let kind = it.next().expect("type kind");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
            announced.insert(name.to_string());
            if kind == "histogram" {
                // Histogram samples use derived names.
                announced.insert(format!("{name}_bucket"));
                announced.insert(format!("{name}_sum"));
                announced.insert(format!("{name}_count"));
            }
        } else if !line.starts_with('#') {
            let (name_labels, value) = line.rsplit_once(' ').expect("sample line");
            let name = name_labels.split('{').next().expect("name");
            assert!(announced.contains(name), "sample before TYPE: {line}");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value: {line}"));
            samples += 1;
        }
    }
    assert!(samples >= 10, "suspiciously few samples:\n{body}");

    // The counters reflect the finished job.
    assert!(body.contains("apf_jobs_total{state=\"submitted\"} 1"), "{body}");
    assert!(body.contains("apf_jobs_total{state=\"done\"} 1"), "{body}");
    assert!(body.contains("apf_trials_total 2"), "{body}");
    assert!(body.contains("apf_queue_depth 0"), "{body}");
    assert!(body.contains("apf_phase_cycles_total"), "{body}");

    // The latency histograms saw the HTTP traffic and the job's lifecycle.
    assert!(body.contains("# TYPE apf_http_request_seconds histogram"), "{body}");
    assert!(body.contains("apf_http_request_seconds_bucket{le=\"+Inf\"}"), "{body}");
    assert!(body.contains("apf_job_queue_wait_seconds_count 1"), "{body}");
    assert!(body.contains("apf_job_exec_seconds_count 1"), "{body}");

    ts.stop();
}

#[test]
fn submit_echoes_and_generates_request_ids() {
    let ts = start(ServerConfig::default());

    // A well-formed client-supplied id is echoed back verbatim.
    let (status, head, _) = request_with_headers(
        ts.addr,
        "POST",
        "/v1/jobs",
        &[("X-Apf-Request-Id", "coord-7f.3")],
        r#"{"name":"rid","trials":1,"budget":2000000}"#,
    );
    assert_eq!(status, 202);
    assert!(head.contains("X-Apf-Request-Id: coord-7f.3"), "{head}");

    // A malformed id is replaced by a fresh 16-hex-digit one.
    let (status, head, _) = request_with_headers(
        ts.addr,
        "POST",
        "/v1/jobs",
        &[("X-Apf-Request-Id", "bad id with spaces")],
        r#"{"name":"rid2","trials":1,"budget":2000000}"#,
    );
    assert_eq!(status, 202);
    let rid = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Apf-Request-Id: "))
        .expect("generated request id")
        .trim();
    assert_eq!(rid.len(), 16, "{head}");
    assert!(rid.bytes().all(|b| b.is_ascii_hexdigit()), "{head}");

    ts.stop();
}

#[test]
fn graceful_shutdown_drains_running_job() {
    let ts = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let (status, v) = submit(ts.addr, r#"{"name":"drain","trials":800,"budget":2000000}"#);
    assert_eq!(status, 202);
    let id = v.get("id").and_then(Json::as_u64).expect("id");
    wait_for_status(ts.addr, id, |s| s == "running");

    // Shut down mid-job: run() must drain the in-flight trial, record the
    // partial result, and return cleanly.
    ts.handle.shutdown();
    ts.join.join().expect("server thread").expect("clean shutdown");

    // New connections are refused once the listener is gone.
    assert!(
        TcpStream::connect(ts.addr).is_err() || {
            // The OS may accept briefly on some platforms; a request must fail.
            let mut s = TcpStream::connect(ts.addr).expect("connect");
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").ok();
            let mut out = String::new();
            s.read_to_string(&mut out).map(|n| n == 0).unwrap_or(true)
        }
    );
}

#[test]
fn spec_digest_endpoint_matches_canonicalization() {
    let ts = start(ServerConfig::default());

    // Field order must not matter — both orderings canonicalize to the
    // same digest, and the digest matches the library's own computation.
    let (status, _, a) =
        request(ts.addr, "POST", "/v1/spec-digest", r#"{"seed":7,"trials":4,"name":"x"}"#);
    assert_eq!(status, 200);
    let (status, _, b) =
        request(ts.addr, "POST", "/v1/spec-digest", r#"{"name":"x","trials":4,"seed":7}"#);
    assert_eq!(status, 200);
    let a = json::parse(&a).expect("json");
    let b = json::parse(&b).expect("json");
    let digest = a.get("digest").and_then(Json::as_str).expect("digest").to_string();
    assert_eq!(Some(digest.as_str()), b.get("digest").and_then(Json::as_str));
    assert_eq!(a.get("cacheable"), Some(&Json::Bool(true)));

    let expected = apf_bench::spec::CanonicalSpec {
        name: "x".to_string(),
        seed: 7,
        trials: 4,
        ..apf_bench::spec::CanonicalSpec::default()
    };
    assert_eq!(digest, format!("{:016x}", expected.digest()));
    assert_eq!(a.get("canonical").and_then(|c| c.get("seed")).and_then(Json::as_u64), Some(7));

    // Sharded/detail specs canonicalize to the same digest but are not
    // cacheable.
    let (status, _, c) = request(
        ts.addr,
        "POST",
        "/v1/spec-digest",
        r#"{"seed":7,"trials":4,"name":"x","range":[0,2],"detail":true}"#,
    );
    assert_eq!(status, 200);
    let c = json::parse(&c).expect("json");
    assert_eq!(c.get("digest").and_then(Json::as_str), Some(digest.as_str()));
    assert_eq!(c.get("cacheable"), Some(&Json::Bool(false)));

    let (status, _, _) = request(ts.addr, "POST", "/v1/spec-digest", "not json");
    assert_eq!(status, 400);

    ts.stop();
}

#[test]
fn per_client_quota_rejects_with_429() {
    let ts = start(ServerConfig { quota_per_minute: 2, ..ServerConfig::default() });

    // The test's connections all come from loopback, so distinct client
    // identities need the x-client-id header.
    let send = |client: &str| {
        let mut stream = TcpStream::connect(ts.addr).expect("connect");
        let body = r#"{"name":"q","trials":1}"#;
        let req = format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nx-client-id: {client}\r\nContent-Length: \
             {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()).expect("status")
    };
    assert_eq!(send("alice"), 202);
    assert_eq!(send("alice"), 202);
    assert_eq!(send("alice"), 429, "third submission in the window must bounce");
    assert_eq!(send("bob"), 202, "quota is per client");

    let (_, _, metrics) = request(ts.addr, "GET", "/metrics", "");
    assert!(metrics.contains("apf_quota_rejected_total 1"), "{metrics}");

    ts.stop();
}

#[test]
fn submissions_during_shutdown_are_rejected() {
    let ts = start(ServerConfig::default());
    ts.handle.shutdown();
    // The accept loop may serve a final connection before it notices the
    // flag; either the connect fails (listener closed) or the server
    // answers 503.
    for _ in 0..50 {
        let Ok(mut stream) = TcpStream::connect(ts.addr) else { break };
        let body = r#"{"name":"x"}"#;
        let req = format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if stream.write_all(req.as_bytes()).is_err() {
            break;
        }
        let mut out = String::new();
        if stream.read_to_string(&mut out).unwrap_or(0) == 0 {
            break;
        }
        assert!(out.starts_with("HTTP/1.1 503 "), "accepted a job during shutdown: {out}");
        std::thread::sleep(Duration::from_millis(10));
    }
    ts.join.join().expect("server thread").expect("clean shutdown");
}
