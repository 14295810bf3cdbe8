//! Served workloads: in-process `apf-serve` nodes driven by closed-loop HTTP
//! clients.
//!
//! Clients go through `apf_serve::client::request`, one connection per
//! request, exactly like the coordinator talks to its backends. Server-side
//! numbers come from `/metrics` scrapes taken before and after the window.

use crate::host::Timeline;
use crate::metrics::Sheet;
use crate::run::{JobRecord, Window};
use crate::spans::SpanLog;
use crate::stats::{percentile, sorted};
use crate::workload::{served_spec, Scale, Workload, REPEAT_SALT};
use apf_bench::engine::trial_seed;
use apf_serve::client;
use apf_serve::json::{self, Json};
use apf_serve::{CacheConfig, CoordinatorConfig, JobOutcome, JobSpec, Server, ServerConfig};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);
/// How long a client waits between result polls.
const POLL: Duration = Duration::from_millis(2);
/// A job without a result after this long counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);
/// Repeats pick among this many of the client's most recently completed
/// specs; with two clients that stays far inside the 256-entry cache.
const RECENT: usize = 32;

/// One running server: its address, stop handle and thread.
struct Node {
    addr: String,
    stop: apf_serve::ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Node {
    fn start(cfg: ServerConfig) -> Result<Node, String> {
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let stop = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Node { addr, stop, thread })
    }

    fn stop(self) -> Result<(), String> {
        self.stop.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server {} failed: {e}", self.addr)),
            Err(_) => Err(format!("server {} panicked", self.addr)),
        }
    }
}

/// The nodes of one workload; the first is the one clients talk to.
struct Service {
    nodes: Vec<Node>,
}

impl Service {
    fn start(w: Workload) -> Result<Service, String> {
        let mut nodes = Vec::new();
        if w == Workload::ServedSharded {
            let backends =
                vec![Node::start(ServerConfig::default())?, Node::start(ServerConfig::default())?];
            let coordinator = CoordinatorConfig {
                backends: backends.iter().map(|b| b.addr.clone()).collect(),
                ..CoordinatorConfig::default()
            };
            let cache = CacheConfig { max_entries: 0, ..CacheConfig::default() };
            nodes.push(Node::start(ServerConfig {
                coordinator,
                cache,
                ..ServerConfig::default()
            })?);
            nodes.extend(backends);
        } else {
            nodes.push(Node::start(ServerConfig::default())?);
        }
        for node in &nodes {
            wait_healthy(&node.addr)?;
        }
        Ok(Service { nodes })
    }

    fn entry(&self) -> &str {
        &self.nodes[0].addr
    }

    /// Stops every node (a failing one does not keep the rest running) and
    /// reports the first failure.
    fn stop(self) -> Result<(), String> {
        let results: Vec<Result<(), String>> = self.nodes.into_iter().map(Node::stop).collect();
        results.into_iter().collect()
    }
}

fn wait_healthy(addr: &str) -> Result<(), String> {
    let t = Instant::now();
    loop {
        match client::request(addr, "GET", "/healthz", &[], b"", TIMEOUT) {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if t.elapsed() > TIMEOUT => return Err(format!("{addr} never became healthy")),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

type Prom = BTreeMap<String, f64>;

/// Reads a `/metrics` page into `name{labels}` → value.
fn scrape(addr: &str) -> Result<Prom, String> {
    let r = client::request(addr, "GET", "/metrics", &[], b"", TIMEOUT)
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    let text = String::from_utf8(r.body).map_err(|_| format!("scrape {addr}: not UTF-8"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect())
}

fn delta(before: &Prom, after: &Prom, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Each client's request bodies, generated and validated during set-up.
struct Inputs {
    bodies: Vec<Vec<String>>,
}

impl Inputs {
    fn generate(w: Workload, seed: u64, clients: usize, pool: usize) -> Result<Inputs, String> {
        let bodies = (0..clients)
            .map(|c| {
                (0..pool)
                    .map(|j| {
                        let spec = served_spec(w, seed, c, j);
                        spec.validate()?;
                        Ok(spec.canonical_json())
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .collect::<Result<_, _>>()?;
        Ok(Inputs { bodies })
    }

    /// Client `c`'s spec `j`, generated on the fly past the set-up pool.
    fn body(&self, w: Workload, seed: u64, c: usize, j: usize) -> String {
        match self.bodies[c].get(j) {
            Some(body) => body.clone(),
            None => served_spec(w, seed, c, j).canonical_json(),
        }
    }
}

/// What one client measured.
struct ClientOut {
    records: Vec<JobRecord>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    spans: SpanLog,
    request_ms: Vec<f64>,
    polls: u64,
    status: BTreeMap<u16, u64>,
    parse_us: Vec<f64>,
    result_bytes: Vec<f64>,
    bodies: Vec<String>,
}

/// One closed-loop client. It keeps its place in its input stream across
/// the window's segments.
struct Client<'a> {
    w: Workload,
    seed: u64,
    id: usize,
    addr: &'a str,
    inputs: &'a Inputs,
    trace: bool,
    /// Submissions so far.
    k: usize,
    /// New specs submitted so far.
    next_new: usize,
    /// The most recently completed specs, which repeats pick from.
    recent: VecDeque<usize>,
    /// Digests of every completed spec.
    known: HashMap<usize, Vec<u64>>,
    out: ClientOut,
}

impl Client<'_> {
    fn request(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<client::ClientResponse, String> {
        let client_id = format!("bench-{}", self.id);
        let headers = [("X-Client-Id", client_id.as_str())];
        let span = self.out.spans.begin(name, parent, None);
        let t = Instant::now();
        let r = client::request(self.addr, method, path, &headers, body, TIMEOUT);
        self.out.request_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.out.spans.end(span);
        let r = r.map_err(|e| format!("{method} {path}: {e}"))?;
        *self.out.status.entry(r.status).or_default() += 1;
        Ok(r)
    }

    /// Submits one spec and polls it to a terminal result. Returns the
    /// outcome, whether the cache answered, and the submit-to-result time.
    fn run_job(&mut self, body: &str) -> Result<(JobOutcome, bool, Duration), String> {
        let job = self.out.spans.begin("job", None, None);
        let t = Instant::now();
        let submit = self.request("http.submit", job, "POST", "/v1/jobs", body.as_bytes())?;
        if submit.status != 202 {
            return Err(format!("submit answered {}", submit.status));
        }
        let v = parse_body(&submit.body)?;
        let id = v.get("id").and_then(Json::as_u64).ok_or("submit response without id")?;
        self.out.spans.set_job(job, id);
        let hit = matches!(v.get("cached"), Some(Json::Bool(true)));
        let path = format!("/v1/jobs/{id}/result");
        let result = loop {
            if !hit {
                std::thread::sleep(POLL);
            }
            let r = self.request("http.result", job, "GET", &path, b"")?;
            match r.status {
                200 => break r,
                409 if t.elapsed() < JOB_DEADLINE => self.out.polls += 1,
                other => return Err(format!("result answered {other}")),
            }
        };
        let latency = t.elapsed();
        let parse = self.out.spans.begin("json.result_parse", job, None);
        let tp = Instant::now();
        let v = parse_body(&result.body)?;
        let status = v.get("status").and_then(Json::as_str).unwrap_or("?").to_string();
        let outcome = v.get("result").map(JobOutcome::from_json);
        if self.trace {
            self.out.parse_us.push(tp.elapsed().as_secs_f64() * 1e6);
            self.out.result_bytes.push(result.body.len() as f64);
        }
        self.out.spans.end(parse);
        self.out.spans.end(job);
        match (status.as_str(), outcome) {
            ("done", Some(Ok(outcome))) => Ok((outcome, hit, latency)),
            ("done", Some(Err(why))) => Err(format!("result unparsable: {why}")),
            (other, _) => Err(format!("job ended {other}")),
        }
    }

    /// Runs one segment of the window: submissions until `len` seconds
    /// after `t0` have passed and, in the `last` segment, `min_jobs` have
    /// been made. Mixed clients stop on a multiple of three submissions, so
    /// exactly one in three was a repeat.
    fn run_segment(&mut self, segment: usize, t0: Instant, len: f64, last: bool, min_jobs: usize) {
        let repeats = self.w == Workload::ServedMixed;
        loop {
            let k = self.k;
            let over = t0.elapsed().as_secs_f64() >= len && (!last || k >= min_jobs);
            if over && (!repeats || k.is_multiple_of(3)) {
                break;
            }
            self.k += 1;
            let repeat = repeats && k % 3 == 2 && !self.recent.is_empty();
            let spec = if repeat {
                let h = trial_seed(self.seed ^ REPEAT_SALT, ((self.id as u64) << 32) | k as u64);
                self.recent[(h % self.recent.len() as u64) as usize]
            } else {
                self.next_new += 1;
                self.next_new - 1
            };
            let body = self.inputs.body(self.w, self.seed, self.id, spec);
            self.out.attempted += 1;
            let (outcome, hit, latency) = match self.run_job(&body) {
                Ok(done) => done,
                Err(why) => {
                    eprintln!("client {} job {k}: {why}", self.id);
                    self.out.failed += 1;
                    continue;
                }
            };
            self.out.bodies.push(body);
            if outcome.digests.len() != outcome.trials || outcome.trials != outcome.requested {
                self.out.problems.push(format!(
                    "client {} job {k}: {} trials of {} with {} digests",
                    self.id,
                    outcome.trials,
                    outcome.requested,
                    outcome.digests.len()
                ));
            }
            if hit != repeat || hit != outcome.cached {
                self.out.problems.push(format!(
                    "client {} job {k}: repeat={repeat} but cache hit={hit}",
                    self.id
                ));
            }
            match self.known.get(&spec) {
                Some(first) if *first != outcome.digests => self.out.problems.push(format!(
                    "client {} spec {spec}: cached digests differ from the executed ones",
                    self.id
                )),
                Some(_) => {}
                None => {
                    self.known.insert(spec, outcome.digests.clone());
                    self.recent.push_back(spec);
                    if self.recent.len() > RECENT {
                        self.recent.pop_front();
                    }
                }
            }
            self.out.records.push(JobRecord {
                client: self.id,
                index: k,
                spec,
                segment,
                latency,
                trials: outcome.trials as u64,
                cycles: outcome.mean_cycles * outcome.formed as f64,
                hit,
                digests: outcome.digests,
            });
        }
    }
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    json::parse(text).map_err(|e| e.to_string())
}

/// Runs a served workload: set-up, the timed window, then the server-side
/// accounting. Per-layer `serve.*` values go into `layers`.
pub fn run(
    w: Workload,
    seed: u64,
    scale: Scale,
    window: f64,
    trace: bool,
    spans: &mut SpanLog,
    layers: &mut Sheet,
) -> Window {
    let clients = if w == Workload::ServedMixed { 2 } else { 1 };
    let mut out = Window::default();
    let mut ready = None;
    for rep in 0..scale.setup_reps {
        let span = spans.begin("setup", None, None);
        let t = Instant::now();
        let started = Inputs::generate(w, seed, clients, scale.pool)
            .and_then(|inputs| Service::start(w).map(|service| (inputs, service)));
        out.setup.push(t.elapsed().as_secs_f64());
        spans.end(span);
        match started {
            Ok(up) if rep + 1 == scale.setup_reps => ready = Some(up),
            Ok((_, service)) => {
                if let Err(why) = service.stop() {
                    out.problems.push(why);
                }
            }
            Err(why) => {
                out.problems.push(format!("set-up failed: {why}"));
                return out;
            }
        }
    }
    let Some((inputs, service)) = ready else { return out };
    let before: Vec<Result<Prom, String>> = service.nodes.iter().map(|n| scrape(&n.addr)).collect();

    let mut clients: Vec<Client> = (0..clients)
        .map(|id| Client {
            w,
            seed,
            id,
            addr: service.entry(),
            inputs: &inputs,
            trace,
            k: 0,
            next_new: 0,
            recent: VecDeque::new(),
            known: HashMap::new(),
            out: ClientOut {
                records: Vec::new(),
                attempted: 0,
                failed: 0,
                problems: Vec::new(),
                spans: SpanLog::new(trace, spans.epoch()),
                request_ms: Vec::new(),
                polls: 0,
                status: BTreeMap::new(),
                parse_us: Vec::new(),
                result_bytes: Vec::new(),
                bodies: Vec::new(),
            },
        })
        .collect();
    // Traced runs report no timing that is scaled, so they skip the probes.
    let mut timeline = Timeline::start(!trace);
    for segment in 0..scale.segments {
        let last = segment + 1 == scale.segments;
        let len = window / scale.segments as f64;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in &mut clients {
                s.spawn(move || c.run_segment(segment, t0, len, last, scale.min_jobs));
            }
        });
        timeline.close(t0.elapsed().as_secs_f64());
    }
    let window_s = timeline.wall_s();
    let after: Vec<Result<Prom, String>> = service.nodes.iter().map(|n| scrape(&n.addr)).collect();

    // Cache-integrity replays may still be queued; the verify counters are
    // read once the server is idle.
    let settled = settle(service.entry());

    let mut request_ms = Vec::new();
    let mut status: BTreeMap<u16, u64> = BTreeMap::new();
    let (mut polls, mut parse_us, mut result_bytes, mut bodies) =
        (0, Vec::new(), Vec::new(), Vec::new());
    for c in clients.into_iter().map(|c| c.out) {
        out.records.extend(c.records);
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.problems.extend(c.problems);
        spans.append(c.spans);
        request_ms.extend(c.request_ms);
        for (code, n) in c.status {
            *status.entry(code).or_default() += n;
        }
        polls += c.polls;
        parse_us.extend(c.parse_us);
        result_bytes.extend(c.result_bytes);
        bodies.extend(c.bodies);
    }
    if let Err(why) = service.stop() {
        out.problems.push(why);
    }

    let prom = |v: Vec<Result<Prom, String>>, problems: &mut Vec<String>| -> Vec<Prom> {
        v.into_iter()
            .map(|r| {
                r.unwrap_or_else(|why| {
                    problems.push(why);
                    Prom::new()
                })
            })
            .collect()
    };
    let before = prom(before, &mut out.problems);
    let after = prom(after, &mut out.problems);
    let settled = match settled {
        Ok(m) => m,
        Err(why) => {
            out.problems.push(why);
            Prom::new()
        }
    };
    let verify_fail = settled.get("apf_cache_total{event=\"verify_fail\"}").copied().unwrap_or(0.0);
    if verify_fail > 0.0 {
        out.problems.push(format!("{verify_fail} cache verify replays disagreed with the cache"));
    }

    // Per-layer accounting.
    let executed = out.records.iter().filter(|r| !r.hit).count() as f64;
    let hit_ms = sorted(
        &out.records
            .iter()
            .filter(|r| r.hit)
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let request_sorted = sorted(&request_ms);
    let client_s = request_ms.iter().sum::<f64>() / 1e3;
    let (b, a) = (&before[0], &after[0]);
    let server_s = delta(b, a, "apf_http_request_seconds_sum");
    let count_of = |code: u16| status.get(&code).copied().unwrap_or(0) as f64;
    let status_5xx: u64 = status.range(500..600).map(|(_, n)| n).sum();
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let cache = |event: &str| {
        let key = format!("apf_cache_total{{event=\"{event}\"}}");
        delta(b, &settled, &key)
    };
    let wait_s = delta(b, a, "apf_job_queue_wait_seconds_sum");
    let waits = delta(b, a, "apf_job_queue_wait_seconds_count");
    let busy_s = delta(b, a, "apf_job_exec_seconds_sum");
    let rtt_s = delta(b, a, "apf_shard_roundtrip_seconds_sum");
    let rtts = delta(b, a, "apf_shard_roundtrip_seconds_count");
    let backend_exec_s: f64 = before
        .iter()
        .zip(&after)
        .skip(1)
        .fold(0.0, |sum, (b, a)| sum + delta(b, a, "apf_job_exec_seconds_sum"));
    let spec_parse_us = if trace { time_spec_parse(&bodies, &mut out.problems) } else { 0.0 };

    layers.set("serve.http.requests", request_ms.len() as f64);
    layers.set("serve.http.server_s", server_s);
    layers.set("serve.http.client_s", client_s);
    layers.set("serve.http.outside_server_frac", 1.0 - server_s / client_s);
    layers.set("serve.http.polls_per_job", polls as f64 / executed);
    layers.set("serve.http.status_409", count_of(409));
    layers.set("serve.http.status_429", count_of(429));
    layers.set("serve.http.status_5xx", status_5xx as f64);
    layers.note(
        "serve.http.request_p50_ms",
        percentile(&request_sorted, 0.5),
        format!("n={}", request_sorted.len()),
    );
    layers.note(
        "serve.http.request_p99_ms",
        percentile(&request_sorted, 0.99),
        format!("n={}", request_sorted.len()),
    );
    layers.set("serve.job.spec_parse_us", spec_parse_us);
    layers.set("serve.json.result_parse_us", mean(&parse_us));
    layers.set("serve.json.result_bytes", mean(&result_bytes));
    layers.set("serve.queue.wait_s", wait_s);
    layers.set("serve.queue.wait_mean_ms", wait_s / waits * 1e3);
    layers.set("serve.exec.busy_s", busy_s);
    layers.set("serve.worker.utilization", busy_s / window_s);
    layers.set("serve.cache.hits", cache("hit"));
    layers.set("serve.cache.misses", cache("miss"));
    layers.set("serve.cache.stores", cache("store"));
    layers.set("serve.cache.hit_ratio", cache("hit") / (cache("hit") + cache("miss")));
    layers.set("serve.cache.verify_replays", cache("verify_ok") + cache("verify_fail"));
    layers.set("serve.cache.verify_fail", cache("verify_fail"));
    layers.note("serve.cache.hit_p50_ms", percentile(&hit_ms, 0.5), format!("n={}", hit_ms.len()));
    layers.note("serve.cache.hit_p90_ms", percentile(&hit_ms, 0.9), format!("n={}", hit_ms.len()));
    layers.set("serve.coordinator.shards", delta(b, a, "apf_shards_total{event=\"dispatched\"}"));
    layers.set("serve.coordinator.retries", delta(b, a, "apf_shards_total{event=\"retried\"}"));
    layers.set("serve.coordinator.shard_rtt_s", rtt_s);
    layers.set("serve.coordinator.shard_rtt_mean_ms", rtt_s / rtts * 1e3);
    layers.set("serve.coordinator.backend_exec_s", backend_exec_s);
    layers.set(
        "serve.coordinator.wait_frac",
        if rtt_s > 0.0 { 1.0 - backend_exec_s / rtt_s } else { 0.0 },
    );
    layers.set("serve.failed_frac", out.failed as f64 / out.attempted as f64);
    out.timeline = timeline;
    out
}

/// Waits until the entry node has no queued or running job, then scrapes.
fn settle(addr: &str) -> Result<Prom, String> {
    let t = Instant::now();
    loop {
        let m = scrape(addr)?;
        let busy = m.get("apf_queue_depth").copied().unwrap_or(0.0)
            + m.get("apf_jobs_running").copied().unwrap_or(0.0);
        if busy == 0.0 {
            return Ok(m);
        }
        if t.elapsed() > JOB_DEADLINE {
            return Err(format!("{addr} still busy after the window"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Mean time `JobSpec::from_json_bytes` (parse plus validation, which
/// builds every trial's world) takes on the bodies the clients submitted.
fn time_spec_parse(bodies: &[String], problems: &mut Vec<String>) -> f64 {
    let t = Instant::now();
    for body in bodies {
        if let Err(why) = JobSpec::from_json_bytes(body.as_bytes()) {
            problems.push(format!("a submitted spec does not parse: {why}"));
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / bodies.len().max(1) as f64
}
