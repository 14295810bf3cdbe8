//! The campaign service: accept loop, router, job queue, worker pool, and
//! graceful lifecycle.
//!
//! # Architecture
//!
//! One thread owns the listener, blocks in `accept`, and handles
//! connections inline — requests are tiny and every handler is
//! lock-bounded, so a single HTTP lane plus [`crate::http::READ_TIMEOUT`]
//! keeps the transport simple and starvation-free, and a request waits for
//! no timer before it is read. The one exception is a result poll of an
//! unfinished job: the listener hands it to a timekeeper thread, which
//! answers it when the job finishes or after 50 ms (409), so pollers learn
//! of a result at once without polling in a tight loop. Job execution
//! happens on a separate pool of `workers` threads feeding from a bounded
//! queue; the engine's determinism guarantees mean a job's digests are
//! identical no matter which worker runs it or how the queue interleaved.
//!
//! # One pipeline for both job kinds
//!
//! A campaign (`POST /v1/jobs`) and a soak (`POST /v1/soak`, or
//! `serve --soak`) are both a [`Work`]: they pass the same admission
//! sequence, the same enqueue helper, the same worker step and the same
//! result route, and differ only where `execute` matches on the work.
//!
//! # API surface
//!
//! The job API is versioned under `/v1/` (`POST /v1/jobs`, `POST /v1/soak`,
//! `GET /v1/jobs/{id}`, `GET /v1/jobs/{id}/result`, `DELETE /v1/jobs/{id}`,
//! `GET|POST /v1/spec-digest`). The infrastructure endpoints `/healthz` and
//! `/metrics` stay available both bare and under `/v1/`.
//!
//! # Coordinator mode and the cache
//!
//! With backends configured ([`ServerConfig::coordinator`]), workers do not
//! run the engine: they shard each job across the backends and merge the
//! results (see [`crate::coordinator`]). Independently,
//! cacheable submissions are answered from the content-addressed result
//! cache when the canonical-spec digest matches ([`crate::cache`]), with
//! every Nth hit re-verified by a replay job whose digests must match the
//! cached outcome.
//!
//! # Lifecycle
//!
//! Shutdown is cooperative: a SIGTERM/SIGINT (via [`crate::signal`]) or a
//! [`ShutdownHandle`] raises a flag; the timekeeper, which checks the flag
//! every 10 ms, answers the held polls and connects to the listener to
//! unblock `accept`, the accept loop stops accepting, every job's
//! [`apf_bench::engine::CancelToken`] fires, workers finish the trial in
//! flight, record partial results, drain the queue as cancelled, and join.
//! `run` then returns `Ok(())` so the process can exit 0.

use crate::cache::{CacheConfig, ClientQuotas, ResultCache};
use crate::coordinator::{self, CoordinatorConfig};
use crate::http::{read_request, RecvError, Request, Response};
use crate::job::{Job, JobOutcome, JobSpec, JobStatus, Outcome, Work};
use crate::json::Json;
use crate::metrics::{LiveView, Metrics};
use crate::signal;
use crate::soak::{self, SoakSpec};
use apf_bench::engine::{Engine, LiveSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the server is shaped; every knob has a CLI flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing jobs (concurrent campaigns).
    pub workers: usize,
    /// Bounded queue depth; a full queue rejects with 429 + `Retry-After`.
    pub queue_depth: usize,
    /// Engine threads per job (1 = sequential trials; digests are identical
    /// for any value).
    pub engine_jobs: usize,
    /// Maximum jobs retained in memory. A submission that finds the table
    /// full evicts the oldest finished (done, cancelled or failed) jobs,
    /// lowest id first, so the newest `max_jobs` jobs stay queryable; an
    /// evicted id answers 404, and its result can still be fetched by
    /// resubmitting its spec, which the result cache answers. Only a table
    /// full of queued or running jobs rejects with 429. A retained job
    /// costs about 1 KB, so the default (64) keeps a busy server's memory
    /// flat while still covering every job a polling client waits on.
    pub max_jobs: usize,
    /// Emit a JSONL request-log line to stderr per request.
    pub log_requests: bool,
    /// Coordinator mode: non-empty `backends` makes workers shard campaigns
    /// across backend `apf-serve` processes instead of running the engine.
    pub coordinator: CoordinatorConfig,
    /// Content-addressed result cache (`max_entries == 0` disables it).
    pub cache: CacheConfig,
    /// Per-client submissions per minute (0 = unlimited).
    pub quota_per_minute: u64,
    /// Self-submit a timed soak job of this many seconds at startup
    /// (`serve --soak SECS`; 0 = off). The job runs through the normal
    /// queue, so it churns the same worker/cancellation/drain paths as an
    /// HTTP-submitted soak.
    pub soak_seconds: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 16,
            engine_jobs: 1,
            max_jobs: 64,
            log_requests: false,
            coordinator: CoordinatorConfig::default(),
            cache: CacheConfig::default(),
            quota_per_minute: 0,
            soak_seconds: 0,
        }
    }
}

/// Cancels a running server from another thread (tests, embedders). The
/// process-level SIGTERM/SIGINT path sets the same kind of flag.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown; `Server::run` drains and returns.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Release);
    }
}

struct JobTable {
    next_id: u64,
    all: BTreeMap<u64, Arc<Job>>,
    queue: VecDeque<Arc<Job>>,
    /// Live counters of evicted jobs, so the `/metrics` totals never
    /// decrease.
    retired: LiveSnapshot,
}

impl JobTable {
    /// Evicts the oldest terminal jobs, lowest id first, until `extra` more
    /// jobs fit under `max_jobs`. False when they cannot fit because every
    /// retained job is queued or running.
    fn make_room(&mut self, extra: usize, max_jobs: usize) -> bool {
        while self.all.len() + extra > max_jobs {
            let oldest = self.all.iter().find(|(_, job)| job.status().is_terminal());
            let Some((&id, job)) = oldest else { return false };
            let live = job.live.snapshot();
            self.retired.trials += live.trials;
            self.retired.formed += live.formed;
            self.retired.cycles += live.cycles;
            self.retired.bits += live.bits;
            self.retired.busy += live.busy;
            self.all.remove(&id);
        }
        true
    }
}

struct Shared {
    cfg: ServerConfig,
    metrics: Metrics,
    jobs: Mutex<JobTable>,
    queue_cv: Condvar,
    cache: ResultCache,
    quotas: ClientQuotas,
    shutdown: Arc<AtomicBool>,
    running: AtomicUsize,
    started: Instant,
    /// Result polls of unfinished jobs, answered by the timekeeper thread.
    held: Mutex<Vec<HeldPoll>>,
    /// Notified when a poll is held and when a job may have finished.
    held_cv: Condvar,
}

/// A `GET /v1/jobs/{id}/result` of an unfinished job, held until the job
/// finishes or [`HOLD`] passes, then answered like any other request.
struct HeldPoll {
    stream: TcpStream,
    peer: SocketAddr,
    req: Request,
    job: Arc<Job>,
    /// When the request started (its latency includes the hold).
    t0: Instant,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || signal::shutdown_requested()
    }

    fn coordinating(&self) -> bool {
        !self.cfg.coordinator.backends.is_empty()
    }

    fn cache_enabled(&self) -> bool {
        self.cfg.cache.max_entries > 0
    }

    fn lock_jobs(&self) -> MutexGuard<'_, JobTable> {
        // apf-lint: allow(panic-policy) — poisoning means a handler panicked; propagate the bug
        self.jobs.lock().expect("job table lock poisoned")
    }

    fn lock_held(&self) -> MutexGuard<'_, Vec<HeldPoll>> {
        // apf-lint: allow(panic-policy) — poisoning means a handler panicked; propagate the bug
        self.held.lock().expect("held-poll lock poisoned")
    }

    /// Tells the timekeeper a job may have finished.
    fn wake_held(&self) {
        self.held_cv.notify_all();
    }

    fn live_view(&self) -> LiveView {
        let (queued, snaps): (usize, Vec<_>) = {
            let t = self.lock_jobs();
            let live = t.all.values().map(|j| j.live.snapshot());
            (t.queue.len(), std::iter::once(t.retired).chain(live).collect())
        };
        let mut view = LiveView {
            queued,
            running: self.running.load(Ordering::Relaxed),
            workers: self.cfg.workers,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            ..LiveView::default()
        };
        for s in snaps {
            view.trials += s.trials;
            view.formed += s.formed;
            view.cycles += s.cycles;
            view.bits += s.bits;
            view.busy_secs += s.busy.as_secs_f64();
        }
        let budget = view.uptime_secs * self.cfg.workers as f64;
        view.utilization = if budget > 0.0 { (view.busy_secs / budget).min(1.0) } else { 0.0 };
        view
    }
}

/// The bound service; [`Server::run`] blocks until shutdown.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, opens the result cache, and builds the (not yet
    /// running) service.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration and cache-directory errors.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = ResultCache::open(cfg.cache.clone())?;
        let quotas = ClientQuotas::new(cfg.quota_per_minute);
        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(Shared {
                cfg,
                metrics: Metrics::default(),
                jobs: Mutex::new(JobTable {
                    next_id: 1,
                    all: BTreeMap::new(),
                    queue: VecDeque::new(),
                    retired: LiveSnapshot::default(),
                }),
                queue_cv: Condvar::new(),
                cache,
                quotas,
                shutdown: Arc::new(AtomicBool::new(false)),
                running: AtomicUsize::new(0),
                started: Instant::now(),
                held: Mutex::new(Vec::new()),
                held_cv: Condvar::new(),
            }),
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared.shutdown))
    }

    /// Serves until SIGTERM/SIGINT or a [`ShutdownHandle`] fires, then
    /// drains: running trials finish (cooperative cancel at the next trial
    /// boundary), queued jobs cancel, workers join.
    ///
    /// # Errors
    ///
    /// Propagates listener errors other than `Interrupted`.
    pub fn run(self) -> std::io::Result<()> {
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for _ in 0..shared.cfg.workers.max(1) {
                scope.spawn(|| worker_loop(shared));
            }

            // `--soak SECS`: self-submit a timed soak job through the normal
            // queue (no HTTP round-trip to our own socket needed).
            if shared.cfg.soak_seconds > 0 {
                let spec = SoakSpec { seconds: shared.cfg.soak_seconds, ..SoakSpec::default() };
                if enqueue(shared, Work::Soak(spec), String::new()).is_none() {
                    eprintln!("serve --soak: the job table has no room; soak job not submitted");
                }
            }

            let wake = wake_addr(self.local_addr);
            scope.spawn(move || timekeeper(shared, wake));

            let result = loop {
                let accepted = self.listener.accept();
                if shared.is_shutdown() {
                    break Ok(());
                }
                match accepted {
                    Ok((stream, peer)) => handle_connection(shared, stream, peer),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };

            // Drain: cancel everything, wake the workers, let them finish.
            // (The flag also lets the timekeeper exit after a listener
            // error.)
            shared.shutdown.store(true, Ordering::Release);
            {
                let t = shared.lock_jobs();
                for job in t.all.values() {
                    if !job.status().is_terminal() {
                        job.cancel.cancel();
                    }
                }
            }
            shared.queue_cv.notify_all();
            result
            // scope joins the workers here
        })
    }
}

/// How long a result poll of an unfinished job is held before it is
/// answered 409. A poller hears of the result as soon as the job finishes,
/// without polling in a tight loop.
const HOLD: Duration = Duration::from_millis(50);

/// How often the timekeeper looks for a shutdown request.
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);

/// Answers held result polls and wakes the listener on shutdown.
///
/// The listener blocks in `accept`, so a request is read as soon as it
/// arrives; this thread turns a shutdown request (handle or signal) into
/// one connection to the listener's address `wake`, which unblocks it.
/// Until then it answers each held poll once its job is terminal or its
/// [`HOLD`] has passed, sleeping until the next of those moments.
fn timekeeper(shared: &Shared, wake: SocketAddr) {
    let mut held = shared.lock_held();
    loop {
        let shutdown = shared.is_shutdown();
        let now = Instant::now();
        let (due, waiting): (Vec<HeldPoll>, Vec<HeldPoll>) = std::mem::take(&mut *held)
            .into_iter()
            .partition(|h| shutdown || now >= h.t0 + HOLD || h.job.status().is_terminal());
        *held = waiting;
        if !due.is_empty() {
            drop(held);
            for h in due {
                // A handler bug fails this request, not the thread that
                // answers every held poll and wakes the listener.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(shared, &h.req, h.peer)
                }))
                .unwrap_or_else(|_| Response::error(500, "internal error"));
                respond(shared, h.stream, h.t0, &h.req.method, &h.req.path, response);
            }
            held = shared.lock_held();
            continue;
        }
        if shutdown {
            drop(held);
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            return;
        }
        let next = held.iter().map(|h| h.t0 + HOLD).min().map_or(SHUTDOWN_POLL, |deadline| {
            deadline.saturating_duration_since(now).min(SHUTDOWN_POLL)
        });
        held = shared
            .held_cv
            .wait_timeout(held, next)
            // apf-lint: allow(panic-policy) — poisoning means a handler panicked; propagate the bug
            .expect("held-poll lock poisoned")
            .0;
    }
}

/// Where the timekeeper connects on shutdown: the listener's address,
/// with an unspecified (wildcard) IP replaced by the loopback address.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut t = shared.lock_jobs();
            loop {
                if let Some(job) = t.queue.pop_front() {
                    break Some(job);
                }
                if shared.is_shutdown() {
                    break None;
                }
                let (guard, _timeout) = shared
                    .queue_cv
                    .wait_timeout(t, Duration::from_millis(100))
                    // apf-lint: allow(panic-policy) — poisoning means a handler panicked; propagate
                    .expect("job table lock poisoned");
                t = guard;
            }
        };
        let Some(job) = job else { return };

        if !job.start() {
            shared.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            shared.wake_held();
            continue;
        }
        shared.metrics.job_queue_wait_seconds.observe(job.submitted.elapsed());

        shared.running.fetch_add(1, Ordering::Relaxed);
        // The work was fully validated at submission, so execution cannot
        // fail validation; catch_unwind turns any residual bug into a
        // Failed job instead of a dead worker.
        let exec_t0 = Instant::now();
        let executed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(shared, &job)));
        shared.metrics.job_exec_seconds.observe(exec_t0.elapsed());
        shared.running.fetch_sub(1, Ordering::Relaxed);

        match executed {
            Ok(Ok((status, outcome))) => {
                let counter = match status {
                    JobStatus::Cancelled => &shared.metrics.jobs_cancelled,
                    _ => &shared.metrics.jobs_done,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                finish_job(shared, &job, status, outcome);
            }
            Ok(Err(why)) => {
                eprintln!("job {} failed: {why}", job.id);
                shared.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                job.finish(JobStatus::Failed, None);
            }
            Err(_) => {
                shared.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                job.finish(JobStatus::Failed, None);
            }
        }
        shared.wake_held();
    }
}

/// Runs a job's work: a campaign on the local engine, a soak on the local
/// fuzz loop, or either sharded across the backends in coordinator mode
/// (where an outcome's `wall_secs` is the coordinator's own clock).
fn execute(shared: &Shared, job: &Job) -> Result<(JobStatus, Outcome), String> {
    let (cfg, metrics) = (&shared.cfg.coordinator, &shared.metrics);
    let (cancelled, outcome) = match &job.work {
        Work::Campaign(spec) => {
            let (cancelled, outcome) = if shared.coordinating() {
                coordinator::run_job(cfg, spec, &job.request_id, &job.cancel, &job.live, metrics)?
            } else {
                run_local(shared, job, spec)
            };
            (cancelled, Outcome::Campaign(outcome))
        }
        Work::Soak(spec) => {
            let (cancelled, outcome) = if shared.coordinating() {
                coordinator::run_soak_job(cfg, spec, &job.request_id, &job.cancel, metrics)?
            } else {
                soak::run_soak(spec, shared.cfg.engine_jobs.max(1), &job.cancel, metrics)
            };
            (cancelled, Outcome::Soak(outcome))
        }
    };
    let status = if cancelled { JobStatus::Cancelled } else { JobStatus::Done };
    Ok((status, outcome))
}

/// Runs a campaign on the local engine; returns whether cancellation cut it
/// short, plus the outcome.
fn run_local(shared: &Shared, job: &Job, spec: &JobSpec) -> (bool, JobOutcome) {
    let campaign = spec.to_campaign();
    let engine = Engine::new()
        .jobs(shared.cfg.engine_jobs.max(1))
        .trace_digests(true)
        .collect_results(spec.detail)
        .cancel_token(job.cancel.clone())
        .live_stats(Arc::clone(&job.live));
    let report = engine.run(&campaign);
    shared.metrics.fold_report(&report.stats, report.longest_trial.map(|(_, d)| d));
    let cancelled = report.cancelled && report.trials < report.requested;
    let outcome = JobOutcome::new(
        &report.stats,
        report.requested,
        report.digests.unwrap_or_default(),
        report.wall.as_secs_f64(),
        report.results,
    );
    (cancelled, outcome)
}

/// Records a finished job, feeding a campaign's outcome to the cache and
/// the verify pipeline.
fn finish_job(shared: &Shared, job: &Job, status: JobStatus, outcome: Outcome) {
    if let (Work::Campaign(spec), Outcome::Campaign(outcome)) = (&job.work, &outcome) {
        let complete = status == JobStatus::Done && outcome.trials == outcome.requested;
        match job.verify_against {
            Some(digest) => {
                // A cache-integrity replay: compare against the cached entry
                // instead of publishing anything new.
                if complete {
                    match shared.cache.peek(digest) {
                        Some(cached) if same_result(&cached, outcome) => {
                            shared.metrics.cache_verify_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(_) => {
                            shared.metrics.cache_verify_fail.fetch_add(1, Ordering::Relaxed);
                            shared.cache.evict(digest);
                            eprintln!(
                                "cache verify FAILED for spec digest {digest:016x}: evicted \
                                 (cached bytes and a fresh engine run disagree)"
                            );
                        }
                        None => {} // evicted meanwhile; nothing to verify
                    }
                }
            }
            None => {
                if complete && shared.cache_enabled() && spec.cacheable() {
                    shared.cache.store(&spec.canonical, outcome);
                    shared.metrics.cache_stores.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    job.finish(status, Some(outcome));
}

/// Result equality for cache verification: every deterministic field, i.e.
/// everything except `wall_secs` (timing) and the response-only flags.
fn same_result(cached: &JobOutcome, fresh: &JobOutcome) -> bool {
    cached.trials == fresh.trials
        && cached.requested == fresh.requested
        && cached.formed == fresh.formed
        && cached.success.to_bits() == fresh.success.to_bits()
        && cached.mean_cycles.to_bits() == fresh.mean_cycles.to_bits()
        && cached.median_cycles.to_bits() == fresh.median_cycles.to_bits()
        && cached.p95_cycles.to_bits() == fresh.p95_cycles.to_bits()
        && cached.mean_bits.to_bits() == fresh.mean_bits.to_bits()
        && cached.bits_per_cycle.to_bits() == fresh.bits_per_cycle.to_bits()
        && cached.digests == fresh.digests
}

fn handle_connection(shared: &Shared, mut stream: TcpStream, peer: SocketAddr) {
    let t0 = Instant::now();
    match read_request(&mut stream) {
        Ok(req) => {
            if let Some(job) = unfinished_result_poll(shared, &req) {
                let mut held = shared.lock_held();
                // Checked under the lock the timekeeper drains with on
                // shutdown, so no poll is held after its last pass.
                if !shared.is_shutdown() {
                    held.push(HeldPoll { stream, peer, req, job, t0 });
                    drop(held);
                    shared.wake_held();
                    return;
                }
            }
            let response = route(shared, &req, peer);
            respond(shared, stream, t0, &req.method, &req.path, response);
        }
        Err(err) => {
            let response = match err {
                RecvError::BadRequest(why) => Response::error(400, why),
                RecvError::HeadTooLarge => Response::error(400, "request head too large"),
                RecvError::BodyTooLarge => Response::error(413, "request body too large"),
                RecvError::Io(std::io::ErrorKind::WouldBlock) => {
                    Response::error(408, "read timeout")
                }
                RecvError::Io(_) => Response::error(400, "read error"),
            };
            respond(shared, stream, t0, "-", "-", response);
        }
    }
}

/// The job of a `GET /v1/jobs/{id}/result` whose job is not finished yet:
/// such a poll is held, not answered.
fn unfinished_result_poll(shared: &Shared, req: &Request) -> Option<Arc<Job>> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let ("GET", ["v1", "jobs", id, "result"]) = (req.method.as_str(), segments.as_slice()) else {
        return None;
    };
    let id = id.parse::<u64>().ok()?;
    let job = shared.lock_jobs().all.get(&id).cloned()?;
    (!job.status().is_terminal()).then_some(job)
}

/// Sends `response`, counting and (optionally) logging the request that
/// started at `t0`.
fn respond(
    shared: &Shared,
    mut stream: TcpStream,
    t0: Instant,
    method: &str,
    path: &str,
    response: Response,
) {
    shared.metrics.count_response(response.status);
    let took = t0.elapsed();
    shared.metrics.http_request_seconds.observe(took);
    if shared.cfg.log_requests {
        // The response header carries the request id whether it was echoed
        // from the client or generated by submit_job.
        let request_id = response
            .headers
            .iter()
            .find(|(n, _)| *n == coordinator::REQUEST_ID_HEADER)
            .map(|(_, v)| v.as_str());
        log_request(method, path, response.status, took, request_id);
    }
    // The client may already be gone; nothing useful to do with the error.
    let _ = response.send(&mut stream);
}

/// One JSONL request-log line on stderr, rendered through the shared JSON
/// codec so the attacker-controlled parts (method, path, request id) are
/// escaped and the log stream stays one parseable event per line.
fn log_request(method: &str, path: &str, status: u16, took: Duration, request_id: Option<&str>) {
    let mut members = vec![
        ("ev", Json::str("http")),
        ("method", Json::str(method)),
        ("path", Json::str(path)),
        ("status", Json::u64(u64::from(status))),
        ("micros", Json::u64(took.as_micros().try_into().unwrap_or(u64::MAX))),
    ];
    if let Some(id) = request_id {
        members.push(("request_id", Json::str(id)));
    }
    let line = Json::obj(members).render();
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = writeln!(handle, "{line}");
}

fn route(shared: &Shared, req: &Request, peer: SocketAddr) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        // Infrastructure endpoints: available bare and under /v1.
        ("GET", ["healthz"] | ["v1", "healthz"]) => Response::json(
            200,
            &Json::obj([
                ("status", Json::str("ok")),
                ("shutting_down", Json::Bool(shared.is_shutdown())),
            ]),
        ),
        ("GET", ["metrics"] | ["v1", "metrics"]) => {
            let body = shared.metrics.render(&shared.live_view());
            Response {
                status: 200,
                headers: Vec::new(),
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: body.into_bytes(),
            }
        }

        // The versioned job API.
        ("POST", ["v1", "jobs"]) => {
            submit(shared, req, peer, |body| JobSpec::from_json_bytes(body).map(Work::Campaign))
        }
        ("POST", ["v1", "soak"]) => {
            submit(shared, req, peer, |body| SoakSpec::from_json_bytes(body).map(Work::Soak))
        }
        ("GET", ["v1", "jobs"]) => {
            let t = shared.lock_jobs();
            let list: Vec<Json> = t
                .all
                .values()
                .map(|j| {
                    Json::obj([("id", Json::u64(j.id)), ("status", Json::str(j.status().label()))])
                })
                .collect();
            Response::json(200, &Json::obj([("jobs", Json::Arr(list))]))
        }
        ("GET", ["v1", "jobs", id]) => {
            with_job(shared, id, |job| Response::json(200, &job.status_json()))
        }
        ("GET", ["v1", "jobs", id, "result"]) => with_job(shared, id, |job| {
            let status = job.status();
            match job.outcome() {
                Some(outcome) if status.is_terminal() => Response::json(
                    200,
                    &Json::obj([
                        ("id", Json::u64(job.id)),
                        ("status", Json::str(status.label())),
                        ("result", outcome.to_json()),
                    ]),
                ),
                _ if status.is_terminal() => Response::json(
                    200,
                    &Json::obj([("id", Json::u64(job.id)), ("status", Json::str(status.label()))]),
                ),
                _ => Response::error(409, "job not finished").header("Retry-After", "1"),
            }
        }),
        ("DELETE", ["v1", "jobs", id]) => with_job(shared, id, |job| {
            let status = job.request_cancel();
            shared.wake_held();
            Response::json(
                200,
                &Json::obj([("id", Json::u64(job.id)), ("status", Json::str(status.label()))]),
            )
        }),

        // Canonicalization as a service: the digest the cache would key on.
        ("GET" | "POST", ["v1", "spec-digest"]) => match JobSpec::from_json_bytes(&req.body) {
            Ok(spec) => Response::json(
                200,
                &Json::obj([
                    ("digest", Json::str(format!("{:016x}", spec.canonical.digest()))),
                    (
                        "canonical",
                        crate::json::parse(&spec.canonical.canonical_json()).unwrap_or(Json::Null),
                    ),
                    ("cacheable", Json::Bool(spec.cacheable())),
                ]),
            ),
            Err(why) => Response::error(400, &why),
        },

        (
            _,
            ["healthz" | "metrics"]
            | ["v1", "healthz" | "metrics" | "jobs" | "spec-digest" | "soak"]
            | ["v1", "jobs", _]
            | ["v1", "jobs", _, "result"],
        ) => Response::error(405, "method not allowed").header("Allow", "GET, POST, DELETE"),
        _ => Response::error(404, "no such route"),
    }
}

fn with_job(shared: &Shared, id: &str, f: impl FnOnce(&Job) -> Response) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(404, "job ids are integers");
    };
    let job = {
        let t = shared.lock_jobs();
        t.all.get(&id).cloned()
    };
    match job {
        Some(job) => f(&job),
        None => Response::error(404, "no such job"),
    }
}

/// The request id for a submission: a well-formed `X-Apf-Request-Id` (an
/// upstream coordinator propagating its id, or a client threading its own
/// correlation id) is reused; anything absent or malformed gets a fresh
/// process-unique id. The id is echoed on every submit response and
/// forwarded to backends on every shard call, so one submission's requests
/// correlate across the whole fleet.
fn request_id_of(req: &Request) -> String {
    let well_formed = |id: &str| {
        !id.is_empty()
            && id.len() <= 64
            && id.bytes().all(|b| b.is_ascii_alphanumeric() || b"-_.".contains(&b))
    };
    match req.header("x-apf-request-id") {
        Some(id) if well_formed(id) => id.to_string(),
        _ => next_request_id(),
    }
}

/// A fresh request id: FNV-1a over the wall clock and a process counter,
/// rendered as 16 hex digits. The counter alone guarantees uniqueness
/// within the process; the clock makes ids distinct across restarts.
fn next_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let now =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap_or_default();
    let bytes: Vec<u8> = [now.as_secs(), u64::from(now.subsec_nanos()), count]
        .iter()
        .flat_map(|word| word.to_le_bytes())
        .collect();
    format!("{:016x}", apf_trace::fnv1a_64(&bytes))
}

/// `POST /v1/jobs` and `POST /v1/soak`: one admission sequence for both job
/// kinds — shutdown check, `parse`, request id, per-client quota, then the
/// result cache (campaigns only) and the bounded queue.
fn submit(
    shared: &Shared,
    req: &Request,
    peer: SocketAddr,
    parse: fn(&[u8]) -> Result<Work, String>,
) -> Response {
    if shared.is_shutdown() {
        return Response::error(503, "shutting down");
    }
    let work = match parse(&req.body) {
        Ok(work) => work,
        Err(why) => return Response::error(400, &why),
    };
    let request_id = request_id_of(req);

    // Per-client quota: explicit client id first, peer address as fallback.
    let client = req.header("x-client-id").map_or_else(|| peer.ip().to_string(), str::to_string);
    let response = 'admit: {
        if !shared.quotas.admit(&client) {
            shared.metrics.quota_rejected.fetch_add(1, Ordering::Relaxed);
            break 'admit Response::error(429, "client quota exceeded").header("Retry-After", "60");
        }
        if let Work::Campaign(spec) = &work {
            if let Some(hit) = submit_cached(shared, spec, &request_id) {
                break 'admit hit;
            }
        }
        // A soak's 202 also names its kind.
        let kind = matches!(work, Work::Soak(_)).then(|| ("kind", Json::str("soak")));
        match enqueue(shared, work, request_id.clone()) {
            Some(id) => {
                let queued = [("id", Json::u64(id)), ("status", Json::str("queued"))];
                Response::json(202, &Json::obj(queued.into_iter().chain(kind)))
            }
            None => Response::error(429, "queue full").header("Retry-After", "1"),
        }
    };
    response.header(coordinator::REQUEST_ID_HEADER, request_id)
}

/// Answers a repeated cacheable campaign from the content-addressed cache
/// without running it; every Nth hit also enqueues an integrity replay.
/// `None` on a miss (or with the cache off), and the caller queues the job.
fn submit_cached(shared: &Shared, spec: &JobSpec, request_id: &str) -> Option<Response> {
    if !(shared.cache_enabled() && spec.cacheable()) {
        return None;
    }
    let digest = spec.canonical.digest();
    let Some(hit) = shared.cache.lookup(digest) else {
        shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        return None;
    };
    shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
    let id = {
        let mut t = shared.lock_jobs();
        // Opportunistic: replay only if the queue and the table have room
        // for it next to the hit.
        let verify = hit.verify
            && t.queue.len() < shared.cfg.queue_depth
            && t.make_room(2, shared.cfg.max_jobs);
        if !verify && !t.make_room(1, shared.cfg.max_jobs) {
            shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Some(Response::error(429, "job table full").header("Retry-After", "1"));
        }
        let id = t.next_id;
        t.next_id += 1;
        let job = Job::new_done(id, spec.clone(), hit.outcome).with_request_id(request_id.into());
        t.all.insert(id, Arc::new(job));
        if verify {
            let vid = t.next_id;
            t.next_id += 1;
            let verify = Arc::new(
                Job::new_verify(vid, spec.clone(), digest).with_request_id(request_id.into()),
            );
            t.all.insert(vid, Arc::clone(&verify));
            t.queue.push_back(verify);
            shared.queue_cv.notify_one();
        }
        id
    };
    shared.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    Some(Response::json(
        202,
        &Json::obj([
            ("id", Json::u64(id)),
            ("status", Json::str("done")),
            ("cached", Json::Bool(true)),
        ]),
    ))
}

/// Queues a new job of `work` and returns its id, unless the queue is full
/// or the job table has no room (`None`, counted as a rejection).
fn enqueue(shared: &Shared, work: Work, request_id: String) -> Option<u64> {
    let id = {
        let mut t = shared.lock_jobs();
        if t.queue.len() >= shared.cfg.queue_depth || !t.make_room(1, shared.cfg.max_jobs) {
            drop(t);
            shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let id = t.next_id;
        t.next_id += 1;
        let job = Arc::new(Job::new(id, work).with_request_id(request_id));
        t.all.insert(id, Arc::clone(&job));
        t.queue.push_back(job);
        id
    };
    shared.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    shared.queue_cv.notify_one();
    Some(id)
}
