//! Coordinator mode: fan a job out over backend `apf-serve` workers and
//! merge the shards — a campaign bit-identically to a single-process run,
//! a soak by summing case counts. Both kinds share one dispatch loop; what
//! differs per kind (route, shard body, payload check, landing hook) sits
//! behind the private `ShardWork` trait.
//!
//! # Why this is sound
//!
//! The engine's determinism makes trials embarrassingly distributable: a
//! trial's entire behaviour is a function of its spec (absolute index ⇒
//! derived seed and generator offsets), never of which process runs it. A
//! shard `[lo, hi)` therefore produces per-trial results and digests equal
//! to the corresponding slice of a full run, no matter which backend
//! executes it — or re-executes it after a disconnect.
//!
//! # Why the merge transports per-trial records
//!
//! Welford/percentile merges are order-sensitive in the last ulps, so
//! merging shard-*level* aggregates would NOT reproduce a single-process
//! run bit for bit. Backends instead return per-trial [`RunResult`]s
//! (`detail: true`), and the coordinator folds the concatenation in shard
//! order with [`StreamingAggregate::replay`] — the very call `Engine::run`
//! makes, so the statistics are bitwise equal by construction. Digests
//! concatenate in shard order, which is trial order. `check.sh` gates on
//! both equalities over real sockets.
//!
//! # Failure handling
//!
//! Each backend gets one dispatch thread feeding from a shared shard
//! queue. A transport error, backend-side failure, or malformed payload
//! requeues the shard — whichever live backend drains it next re-runs it.
//! Re-execution cannot double-count: every shard has exactly one result
//! slot, filled once, and determinism makes any re-run bit-identical. A
//! backend with several consecutive transport failures is retired; the job
//! fails only if a shard exhausts its attempt budget or no backend remains.

use crate::client::{self, ClientError};
use crate::job::{JobOutcome, JobSpec};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::shard::{split_trials, Shard};
use crate::soak::{SoakOutcome, SoakSpec};
use apf_bench::engine::{CancelToken, LiveStats, StreamingAggregate, PERCENTILE_CAP};
use apf_bench::RunResult;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The header carrying the coordinator-generated request id to backends,
/// tying one submission's shard jobs together across process boundaries.
pub const REQUEST_ID_HEADER: &str = "X-Apf-Request-Id";

/// Consecutive transport failures after which a backend is retired.
const BACKEND_STRIKES: usize = 3;

/// Shortest wait between two result polls of one shard.
const MIN_POLL: Duration = Duration::from_millis(2);

/// How the coordinator is shaped; every knob has a CLI flag.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Backend `host:port` addresses (non-empty ⇒ coordinator mode).
    pub backends: Vec<String>,
    /// Shards created per backend (load-balancing granularity; the shard
    /// count is capped by the trial count).
    pub shards_per_backend: usize,
    /// Longest wait between two result polls of one shard (the wait is an
    /// eighth of the shard's run time so far, at least 2 ms), and the
    /// pause before a failed shard is dispatched again.
    pub poll_interval: Duration,
    /// Per-request timeout for backend calls.
    pub request_timeout: Duration,
    /// Dispatch attempts per shard before the job fails.
    pub max_attempts: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            backends: Vec::new(),
            shards_per_backend: 2,
            poll_interval: Duration::from_millis(50),
            request_timeout: client::REQUEST_TIMEOUT,
            max_attempts: 8,
        }
    }
}

/// What differs between the job kinds a coordinator shards: campaigns split
/// by trial range, soaks by case range. Everything else — the shard queue,
/// retries, backend retirement and result slots — is shared.
trait ShardWork: Sync {
    /// One completed shard's contribution to the merge.
    type Result: Send;
    /// Names a shard in error messages.
    const NOUN: &'static str;
    /// The backend route a shard is submitted to.
    const SUBMIT_PATH: &'static str;

    /// The request body that runs `shard` on a backend.
    fn body(&self, shard: Shard) -> String;

    /// Parses a backend's `result` member and checks it against `shard`.
    fn parse(&self, result: &Json, shard: Shard) -> Result<Self::Result, String>;

    /// Counts a shard's result once, when its slot is filled.
    fn land(&self, result: &Self::Result);
}

/// Campaign shards: trial ranges run with `detail`, so the merge can replay
/// per-trial records.
struct CampaignShards<'a> {
    spec: &'a JobSpec,
    live: &'a LiveStats,
}

/// One campaign shard's execution record.
#[derive(Debug)]
struct ShardResult {
    digests: Vec<u64>,
    records: Vec<RunResult>,
    /// Executed < requested (backend was cancelled mid-shard).
    partial: bool,
}

impl ShardWork for CampaignShards<'_> {
    type Result = ShardResult;
    const NOUN: &'static str = "shard";
    const SUBMIT_PATH: &'static str = "/v1/jobs";

    fn body(&self, shard: Shard) -> String {
        let shard_spec = JobSpec {
            canonical: self.spec.canonical.clone(),
            range: Some((shard.lo, shard.hi)),
            detail: true,
        };
        shard_spec.to_json().render()
    }

    fn parse(&self, result: &Json, shard: Shard) -> Result<ShardResult, String> {
        let outcome = JobOutcome::from_json(result)?;
        let records = outcome.detail.ok_or("shard result missing detail")?;
        let executed = outcome.trials;
        if executed > shard.len() as usize
            || records.len() != executed
            || outcome.digests.len() != executed
        {
            return Err(format!(
                "shard payload inconsistent: {executed} trials, {} records, {} digests",
                records.len(),
                outcome.digests.len()
            ));
        }
        Ok(ShardResult {
            digests: outcome.digests,
            records,
            partial: executed < shard.len() as usize,
        })
    }

    fn land(&self, result: &ShardResult) {
        for r in &result.records {
            // Busy time is a backend-side quantity the shard result does not
            // carry per trial; zero keeps utilization honest (coordinator
            // workers are not busy *executing*).
            self.live.record(r, Duration::ZERO);
        }
    }
}

/// Soak shards: case ranges, summed.
struct SoakShards<'a> {
    spec: &'a SoakSpec,
    metrics: &'a Metrics,
}

impl ShardWork for SoakShards<'_> {
    type Result = SoakOutcome;
    const NOUN: &'static str = "soak shard";
    const SUBMIT_PATH: &'static str = "/v1/soak";

    fn body(&self, shard: Shard) -> String {
        let shard_spec = SoakSpec {
            seed: self.spec.seed,
            cases: shard.hi,
            seconds: 0,
            robots: self.spec.robots,
            range: Some((shard.lo, shard.hi)),
        };
        shard_spec.to_json().render()
    }

    fn parse(&self, result: &Json, shard: Shard) -> Result<SoakOutcome, String> {
        let outcome = SoakOutcome::from_json(result)?;
        if outcome.cases > shard.len() || outcome.clean > outcome.cases {
            return Err(format!(
                "soak shard payload inconsistent: {} cases of {}, {} clean",
                outcome.cases,
                shard.len(),
                outcome.clean
            ));
        }
        Ok(outcome)
    }

    fn land(&self, outcome: &SoakOutcome) {
        self.metrics.soak_cases.fetch_add(outcome.cases, Ordering::Relaxed);
        self.metrics.soak_violations.fetch_add(outcome.violations, Ordering::Relaxed);
        self.metrics.soak_shrink_steps.fetch_add(outcome.shrink_steps, Ordering::Relaxed);
    }
}

/// Shared shard-dispatch state. Exactly one result slot per shard — the
/// no-double-count invariant for both job kinds.
struct Dispatch<R> {
    queue: VecDeque<usize>,
    attempts: Vec<usize>,
    results: Vec<Option<R>>,
    live_backends: usize,
    failure: Option<String>,
}

impl<R> Dispatch<R> {
    fn new(shards: usize, backends: usize) -> Dispatch<R> {
        Dispatch {
            queue: (0..shards).collect(),
            attempts: vec![0; shards],
            results: (0..shards).map(|_| None).collect(),
            live_backends: backends,
            failure: None,
        }
    }

    fn abort(&mut self, why: String) {
        if self.failure.is_none() {
            self.failure = Some(why);
        }
        self.queue.clear();
    }
}

/// A [`Dispatch`] behind its lock, with the condition variable an idle
/// backend loop waits on. Every change an idle loop acts on — a slot
/// filled, a shard requeued, the job aborted — notifies it, so the job
/// ends as soon as its last shard lands.
struct Board<R> {
    dispatch: Mutex<Dispatch<R>>,
    changed: Condvar,
}

impl<R> Board<R> {
    fn new(shards: usize, backends: usize) -> Board<R> {
        Board { dispatch: Mutex::new(Dispatch::new(shards, backends)), changed: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, Dispatch<R>> {
        // apf-lint: allow(panic-policy, panic-reachability) — poisoning means a dispatch thread already panicked; propagating the crash is the intended semantics
        self.dispatch.lock().expect("dispatch lock poisoned")
    }

    /// Applies `f` to the dispatch state and wakes the idle loops.
    fn update<T>(&self, f: impl FnOnce(&mut Dispatch<R>) -> T) -> T {
        let out = f(&mut self.lock());
        self.changed.notify_all();
        out
    }

    /// Releases `d` until the state changes or `timeout` passes; the
    /// timeout bounds how late an idle loop sees a cancellation.
    fn wait(&self, d: MutexGuard<'_, Dispatch<R>>, timeout: Duration) {
        // apf-lint: allow(panic-policy, panic-reachability) — poisoning means a dispatch thread already panicked; propagating the crash is the intended semantics
        drop(self.changed.wait_timeout(d, timeout).expect("dispatch lock poisoned"));
    }
}

/// How long to wait before polling a shard again, given how long it has
/// run: an eighth of that, at least [`MIN_POLL`] and at most
/// `cfg.poll_interval`. A result that lands between two held polls is
/// then seen within about an eighth of the shard's own run time, on a
/// fast host or a slow one, and a long shard is polled only every
/// `poll_interval` plus the hold.
fn next_poll(cfg: &CoordinatorConfig, waited: Duration) -> Duration {
    (waited / 8).clamp(MIN_POLL, cfg.poll_interval.max(MIN_POLL))
}

/// Runs `spec` by sharding it across `cfg.backends` and returns whether
/// cancellation cut it short, plus the merged outcome (digests and
/// statistics bit-identical to a single-process run of the executed
/// prefix; `wall_secs` is the coordinator's own clock).
///
/// Progress folds into `live` per completed shard; `cancel` stops dispatch
/// at the next poll and cancels in-flight backend jobs. `request_id` is
/// forwarded to every backend call as [`REQUEST_ID_HEADER`] so backend
/// request logs correlate with the coordinator submission.
///
/// # Errors
///
/// Returns the failure description when a shard exhausts its attempts, all
/// backends are retired, or a backend reports a failed job.
pub(crate) fn run_job(
    cfg: &CoordinatorConfig,
    spec: &JobSpec,
    request_id: &str,
    cancel: &CancelToken,
    live: &LiveStats,
    metrics: &Metrics,
) -> Result<(bool, JobOutcome), String> {
    let t0 = Instant::now();
    let (lo, hi) = spec.range.unwrap_or((0, spec.canonical.trials));
    let work = CampaignShards { spec, live };
    let results = dispatch(cfg, &work, request_id, lo, hi, cancel, metrics)?;

    // Merge the longest contiguous prefix of completed shards (all of them,
    // unless cancelled) — mirroring the engine's cancelled-run guarantee
    // that executed trials form a contiguous prefix in trial order.
    let mut digests = Vec::with_capacity((hi - lo) as usize);
    let mut records: Vec<RunResult> = Vec::with_capacity((hi - lo) as usize);
    for slot in results {
        let Some(result) = slot else { break };
        digests.extend(&result.digests);
        records.extend(result.records);
        if result.partial {
            break;
        }
    }

    let stats = StreamingAggregate::replay(&records, PERCENTILE_CAP);
    let outcome = JobOutcome::new(
        &stats,
        (hi - lo) as usize,
        digests,
        // The coordinator's own wall clock: sharding, dispatch, polling, and
        // the merge — what the submitter actually waited for.
        t0.elapsed().as_secs_f64(),
        spec.detail.then_some(records),
    );
    let cancelled = cancel.is_cancelled() && outcome.trials < outcome.requested;
    Ok((cancelled, outcome))
}

/// Runs a soak job by sharding its case range across `cfg.backends`. A
/// timed soak (`seconds > 0`) dispatches successive rounds of
/// `backends × shards_per_backend × 8` cases until the deadline; a
/// case-bounded soak dispatches one round covering `range` (or all cases).
/// Returns whether cancellation cut it short, plus the summed outcome.
///
/// # Errors
///
/// As [`run_job`].
pub(crate) fn run_soak_job(
    cfg: &CoordinatorConfig,
    spec: &SoakSpec,
    request_id: &str,
    cancel: &CancelToken,
    metrics: &Metrics,
) -> Result<(bool, SoakOutcome), String> {
    let t0 = Instant::now();
    let work = SoakShards { spec, metrics };
    let mut total = SoakOutcome::default();
    let mut round = |lo: u64, hi: u64| -> Result<bool, String> {
        for outcome in dispatch(cfg, &work, request_id, lo, hi, cancel, metrics)?.iter().flatten() {
            total.absorb(outcome);
        }
        Ok(cancel.is_cancelled())
    };
    let cancelled = if spec.seconds == 0 {
        let (lo, hi) = spec.range.unwrap_or((0, spec.cases));
        round(lo, hi)?
    } else {
        let deadline = t0 + Duration::from_secs(spec.seconds);
        let size = (cfg.backends.len() * cfg.shards_per_backend.max(1)) as u64 * 8;
        let mut next = 0u64;
        loop {
            if cancel.is_cancelled() {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            if round(next, next + size)? {
                break true;
            }
            next += size;
        }
    };
    // The coordinator's own clock, not the sum of backend clocks: what the
    // submitter actually waited for.
    total.wall_secs = t0.elapsed().as_secs_f64();
    Ok((cancelled, total))
}

/// Splits `lo..hi` into shards, runs them on one dispatch thread per
/// backend, and returns every shard's result slot in shard order. Slots
/// stay empty only when cancellation stopped the run.
///
/// # Errors
///
/// As [`run_job`].
fn dispatch<W: ShardWork>(
    cfg: &CoordinatorConfig,
    work: &W,
    request_id: &str,
    lo: u64,
    hi: u64,
    cancel: &CancelToken,
    metrics: &Metrics,
) -> Result<Vec<Option<W::Result>>, String> {
    assert!(!cfg.backends.is_empty(), "coordinator mode needs at least one backend");
    let shards = split_trials(hi - lo, cfg.backends.len() * cfg.shards_per_backend.max(1))
        .into_iter()
        .map(|s| Shard { lo: lo + s.lo, hi: lo + s.hi })
        .collect::<Vec<_>>();
    let board = Board::new(shards.len(), cfg.backends.len());

    std::thread::scope(|scope| {
        for backend in &cfg.backends {
            let board = &board;
            let shards = &shards;
            scope.spawn(move || {
                backend_loop(cfg, work, request_id, backend, shards, board, cancel, metrics)
            });
        }
    });

    let mut d = board.lock();
    if let Some(why) = d.failure.take() {
        return Err(why);
    }
    if !cancel.is_cancelled() {
        if let Some(k) = d.results.iter().position(Option::is_none) {
            // Only cancellation may leave holes; anything else is a retired
            // backend set, which must have recorded a failure above.
            return Err(format!("{} {k} never completed (all backends retired)", W::NOUN));
        }
    }
    Ok(std::mem::take(&mut d.results))
}

#[allow(clippy::too_many_arguments)]
fn backend_loop<W: ShardWork>(
    cfg: &CoordinatorConfig,
    work: &W,
    request_id: &str,
    backend: &str,
    shards: &[Shard],
    board: &Board<W::Result>,
    cancel: &CancelToken,
    metrics: &Metrics,
) {
    let mut strikes = 0;
    loop {
        if cancel.is_cancelled() {
            return;
        }
        let popped = {
            let mut d = board.lock();
            match d.queue.pop_front() {
                Some(k) => {
                    d.attempts[k] += 1;
                    if d.attempts[k] > cfg.max_attempts {
                        d.abort(format!(
                            "{} {k} failed {} dispatch attempts",
                            W::NOUN,
                            cfg.max_attempts
                        ));
                        drop(d);
                        board.changed.notify_all();
                        return;
                    }
                    Some(k)
                }
                None => {
                    // The queue is empty, but a shard in flight on another
                    // backend may yet fail and be requeued — exit only once
                    // every slot is filled or the job aborted; otherwise
                    // wait to pick up requeued work.
                    if d.failure.is_some() || d.results.iter().all(Option::is_some) {
                        return;
                    }
                    board.wait(d, cfg.poll_interval);
                    None
                }
            }
        };
        let Some(k) = popped else { continue };
        let shard = shards[k];
        metrics.shards_dispatched.fetch_add(1, Ordering::Relaxed);
        let shard_t0 = Instant::now();
        match run_shard(cfg, work, request_id, backend, shard, cancel) {
            Ok(result) => {
                metrics.shard_roundtrip_seconds.observe(shard_t0.elapsed());
                strikes = 0;
                work.land(&result);
                board.update(|d| d.results[k] = Some(result));
            }
            Err(ShardError::Cancelled) => {
                // Leave the shard unfinished; the caller keeps what landed.
                // (Do not requeue: the whole job is stopping.)
                return;
            }
            Err(ShardError::Fatal(why)) => {
                board.update(|d| d.abort(format!("{} {k} on {backend}: {why}", W::NOUN)));
                return;
            }
            Err(ShardError::Transient(why)) => {
                metrics.shard_retries.fetch_add(1, Ordering::Relaxed);
                strikes += 1;
                if requeue(board, k, strikes, &why) {
                    return;
                }
                std::thread::sleep(cfg.poll_interval);
            }
        }
    }
}

/// Puts shard `k` back after a transient failure. On the backend's
/// [`BACKEND_STRIKES`]th failure in a row it is retired instead (the shard
/// stays queued for the survivors) and this returns true; the job aborts
/// when no backend remains.
fn requeue<R>(board: &Board<R>, k: usize, strikes: usize, why: &str) -> bool {
    board.update(|d| {
        d.queue.push_back(k);
        if strikes < BACKEND_STRIKES {
            return false;
        }
        d.live_backends -= 1;
        if d.live_backends == 0 {
            d.abort(format!("no live backends remain (last error: {why})"));
        }
        true
    })
}

enum ShardError {
    /// Retry-able: backend unreachable, overloaded, or mid-shard disconnect.
    Transient(String),
    /// The job is stopping; leave the shard unfinished.
    Cancelled,
    /// Deterministic failure (a backend worker panic is a bug, not noise).
    Fatal(String),
}

/// Submits one shard to `backend`, polls it to completion, and parses the
/// result. Every call carries the coordinator's request id.
fn run_shard<W: ShardWork>(
    cfg: &CoordinatorConfig,
    work: &W,
    request_id: &str,
    backend: &str,
    shard: Shard,
    cancel: &CancelToken,
) -> Result<W::Result, ShardError> {
    let body = work.body(shard);
    let submit = call(cfg, backend, request_id, "POST", W::SUBMIT_PATH, body.as_bytes())
        .map_err(ShardError::Transient)?;
    if submit.0 == 429 || submit.0 == 503 {
        return Err(ShardError::Transient(format!("backend busy ({})", submit.0)));
    }
    if submit.0 != 202 {
        // A 4xx on a spec the coordinator itself validated is a protocol
        // bug; retrying elsewhere would loop forever.
        return Err(ShardError::Fatal(format!("submit returned {}", submit.0)));
    }
    let id = submit
        .1
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ShardError::Fatal("submit response missing id".to_string()))?;
    let v = await_result(cfg, backend, request_id, id, cancel, W::NOUN)?;
    let result = v
        .get("result")
        .ok_or_else(|| ShardError::Transient("result fetch missing result".to_string()))?;
    work.parse(result, shard).map_err(ShardError::Transient)
}

/// Polls backend job `id`'s result until the job is terminal and returns
/// the response, whose `result` field holds the outcome. The backend holds
/// each poll until the job finishes or a short hold passes, answering 409
/// in the latter case; between polls this waits per [`next_poll`]. `kind`
/// names the job in error messages.
fn await_result(
    cfg: &CoordinatorConfig,
    backend: &str,
    request_id: &str,
    id: u64,
    cancel: &CancelToken,
    kind: &str,
) -> Result<Json, ShardError> {
    let job_path = format!("/v1/jobs/{id}");
    let result_path = format!("{job_path}/result");
    let submitted = Instant::now();
    loop {
        if cancel.is_cancelled() {
            // Best effort: stop the backend's work too, then bail.
            let headers = [(REQUEST_ID_HEADER, request_id)];
            let _ =
                client::request(backend, "DELETE", &job_path, &headers, b"", cfg.request_timeout);
            return Err(ShardError::Cancelled);
        }
        let (status, v) = call(cfg, backend, request_id, "GET", &result_path, b"")
            .map_err(ShardError::Transient)?;
        match (status, v.get("status").and_then(Json::as_str)) {
            (409, _) => std::thread::sleep(next_poll(cfg, submitted.elapsed())),
            (200, Some("done")) => return Ok(v),
            // Our own cancellation propagated; keep the prefix.
            (200, Some("cancelled")) if cancel.is_cancelled() => return Ok(v),
            (200, Some("cancelled")) => {
                // The backend cancelled unilaterally (it is shutting down):
                // the shard must be re-run in full on a surviving backend.
                // Its partial results are discarded, never merged — which
                // is what keeps re-execution from double-counting.
                return Err(ShardError::Transient(format!(
                    "backend cancelled the {kind} (backend shutting down?)"
                )));
            }
            (200, Some("failed")) => {
                return Err(ShardError::Fatal(format!("backend reports a failed {kind}")))
            }
            _ => return Err(ShardError::Transient(format!("result poll returned {status}"))),
        }
    }
}

/// One backend call returning the parsed JSON body, tagged with the
/// coordinator's request id.
fn call(
    cfg: &CoordinatorConfig,
    backend: &str,
    request_id: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Json), String> {
    let headers = [(REQUEST_ID_HEADER, request_id)];
    let resp = client::request(backend, method, path, &headers, body, cfg.request_timeout)
        .map_err(|e: ClientError| format!("{method} {path}: {e}"))?;
    let text =
        std::str::from_utf8(&resp.body).map_err(|_| format!("{method} {path}: non-UTF-8 body"))?;
    let v = json::parse(text).map_err(|e| format!("{method} {path}: {e}"))?;
    Ok((resp.status, v))
}
