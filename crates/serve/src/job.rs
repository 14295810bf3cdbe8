//! Job specifications and lifecycle state.
//!
//! A [`Job`] carries one [`Work`] — a campaign or a geometry-fuzz soak — and,
//! once finished, one [`Outcome`] of the same kind. Both kinds share the
//! queue, the workers, the result route and the coordinator's shard
//! dispatch; only campaign outcomes enter the result cache.
//!
//! A campaign is described over the wire by [`JobSpec`], a thin
//! transport wrapper around [`apf_bench::spec::CanonicalSpec`] — the single
//! shared campaign-spec type — plus two serve-only extensions: an optional
//! trial sub-range (shard execution for the coordinator) and a `detail`
//! flag (include per-trial records in the result, the coordinator's merge
//! input). The canonical core is the single code path from a spec to a
//! `Campaign`, to `apf-cli job-digest`, and to the content-address the
//! result cache keys on, so a job submitted over HTTP reproduces a CLI run
//! of the same spec **bit for bit**, digests included. That parity is
//! asserted by the integration tests and the `check.sh` smoke step.

use crate::json::{self, Json};
use crate::soak::{SoakOutcome, SoakSpec};
use apf_bench::engine::{Campaign, CancelToken, LiveStats, StreamingAggregate};
use apf_bench::spec::{scheduler_from_label, scheduler_label, CanonicalSpec, Generator};
use apf_bench::RunResult;
use apf_trace::PhaseKind;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use apf_bench::spec::{MAX_BUDGET, MAX_ROBOTS, MAX_TRIALS};

/// A validated campaign description, as submitted over the wire: the shared
/// canonical spec plus serve-only transport extensions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobSpec {
    /// The canonical campaign description (shared with `apf-bench` and the
    /// CLI; the content-addressed identity of the job).
    pub canonical: CanonicalSpec,
    /// Execute only trials `lo..hi` of the campaign (a coordinator shard).
    /// Absolute indices: trial `i` here is bit-identical to trial `i` of
    /// the full campaign. `None` = all trials.
    pub range: Option<(u64, u64)>,
    /// Include per-trial records in the result (`result.detail`), the input
    /// a coordinator needs to merge shards bit-identically.
    pub detail: bool,
}

impl std::ops::Deref for JobSpec {
    type Target = CanonicalSpec;

    fn deref(&self) -> &CanonicalSpec {
        &self.canonical
    }
}

impl JobSpec {
    /// Parses and validates a spec from a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (the 400 body) on malformed JSON,
    /// unknown fields, or out-of-range values.
    pub fn from_json_bytes(body: &[u8]) -> Result<JobSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let Json::Obj(map) = &v else {
            return Err("body must be a JSON object".to_string());
        };

        let mut spec = JobSpec::default();
        for (key, value) in map {
            match key.as_str() {
                "name" => {
                    let s = value.as_str().ok_or("\"name\" must be a string")?;
                    spec.canonical.name = s.to_string();
                }
                "seed" => spec.canonical.seed = req_u64(value, "seed")?,
                "trials" => spec.canonical.trials = req_u64(value, "trials")?,
                "n" => spec.canonical.n = req_u64(value, "n")? as usize,
                "rho" => spec.canonical.rho = req_u64(value, "rho")? as usize,
                "generator" => {
                    spec.canonical.generator = value
                        .as_str()
                        .and_then(Generator::from_label)
                        .ok_or("\"generator\" must be \"symmetric\" or \"asymmetric\"")?;
                }
                "scheduler" => {
                    spec.canonical.scheduler =
                        value.as_str().and_then(scheduler_from_label).ok_or(
                            "\"scheduler\" must be one of \"fsync\", \"ssync\", \"async\", \
                             \"round_robin\"",
                        )?;
                }
                "budget" => spec.canonical.budget = req_u64(value, "budget")?,
                "range" => {
                    let arr = value.as_arr().ok_or("\"range\" must be [lo, hi]")?;
                    let [lo, hi] = arr else {
                        return Err("\"range\" must be [lo, hi]".to_string());
                    };
                    spec.range = Some((req_u64(lo, "range[0]")?, req_u64(hi, "range[1]")?));
                }
                "detail" => {
                    spec.detail = match value {
                        Json::Bool(b) => *b,
                        _ => return Err("\"detail\" must be a boolean".to_string()),
                    };
                }
                other => return Err(format!("unknown field {other:?}")),
            }
        }

        spec.validate()?;
        Ok(spec)
    }

    /// Range-checks the spec (canonical core plus the shard range) and
    /// verifies every trial's instance builds — after this, running the
    /// campaign cannot fail validation.
    ///
    /// # Errors
    ///
    /// Returns the 400 body text.
    pub fn validate(&self) -> Result<(), String> {
        self.canonical.validate()?;
        if let Some((lo, hi)) = self.range {
            if lo > hi || hi > self.canonical.trials {
                return Err(format!(
                    "\"range\" [{lo}, {hi}] must satisfy lo <= hi <= trials ({})",
                    self.canonical.trials
                ));
            }
        }
        Ok(())
    }

    /// The campaign this job executes: the full canonical campaign, or the
    /// shard slice when a range is set. Either way the construction is the
    /// single shared `CanonicalSpec` path — identical to a CLI run.
    pub fn to_campaign(&self) -> Campaign {
        match self.range {
            Some((lo, hi)) => self.canonical.to_campaign_range(lo, hi),
            None => self.canonical.to_campaign(),
        }
    }

    /// Whether the result may be served from / stored into the
    /// content-addressed cache: only whole-campaign, no-detail runs — the
    /// cache is keyed on the canonical spec alone, and shard/detail results
    /// describe something narrower than the key.
    pub fn cacheable(&self) -> bool {
        self.range.is_none() && !self.detail
    }

    /// The spec as response JSON (echoed in job status). Canonical fields
    /// always; transport extensions only when set.
    pub fn to_json(&self) -> Json {
        let c = &self.canonical;
        let mut members = vec![
            ("name", Json::str(c.name.clone())),
            ("seed", Json::u64(c.seed)),
            ("trials", Json::u64(c.trials)),
            ("n", Json::usize(c.n)),
            ("rho", Json::usize(c.rho)),
            ("generator", Json::str(c.generator.label())),
            ("scheduler", Json::str(scheduler_label(c.scheduler))),
            ("budget", Json::u64(c.budget)),
        ];
        if let Some((lo, hi)) = self.range {
            members.push(("range", Json::Arr(vec![Json::u64(lo), Json::u64(hi)])));
        }
        if self.detail {
            members.push(("detail", Json::Bool(true)));
        }
        Json::obj(members)
    }
}

fn req_u64(value: &Json, key: &str) -> Result<u64, String> {
    value.as_u64().ok_or_else(|| format!("{key:?} must be a non-negative integer"))
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// In the queue, not yet started.
    Queued,
    /// A worker is executing it.
    Running,
    /// Completed every trial.
    Done,
    /// Stopped by `DELETE /v1/jobs/{id}` or shutdown; partial results kept.
    Cancelled,
    /// The worker panicked (a bug, surfaced rather than hidden).
    Failed,
}

impl JobStatus {
    /// Lowercase wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed)
    }
}

/// The final outcome a worker records.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Trials executed (a prefix of the campaign when cancelled).
    pub trials: usize,
    /// Trials the spec requested.
    pub requested: usize,
    /// Successful trials.
    pub formed: u64,
    /// Success fraction over executed trials.
    pub success: f64,
    /// Mean cycles over successful trials.
    pub mean_cycles: f64,
    /// Median cycles over successful trials.
    pub median_cycles: f64,
    /// 95th-percentile cycles over successful trials.
    pub p95_cycles: f64,
    /// Mean random bits over successful trials.
    pub mean_bits: f64,
    /// Random bits per cycle over successful trials.
    pub bits_per_cycle: f64,
    /// Per-trial FNV-1a trace digests, in trial order.
    pub digests: Vec<u64>,
    /// Campaign wall-clock seconds (timing-noisy; excluded from equality
    /// comparisons done by the cache verifier and check.sh).
    pub wall_secs: f64,
    /// Per-trial results in trial order (only when the spec set `detail`).
    pub detail: Option<Vec<RunResult>>,
    /// Whether this outcome was answered from the content-addressed cache
    /// rather than executed.
    pub cached: bool,
}

impl JobOutcome {
    /// The outcome of a campaign fold: every statistic comes from `stats`
    /// (trials executed included), the rest are transport fields. The
    /// worker, the coordinator's merge and `apf-cli job-digest --report`
    /// all build their outcome here, so they cannot disagree on a field.
    pub fn new(
        stats: &StreamingAggregate,
        requested: usize,
        digests: Vec<u64>,
        wall_secs: f64,
        detail: Option<Vec<RunResult>>,
    ) -> JobOutcome {
        let agg = stats.to_aggregate();
        JobOutcome {
            trials: agg.runs,
            requested,
            formed: stats.formed(),
            success: agg.success,
            mean_cycles: agg.mean_cycles,
            median_cycles: agg.median_cycles,
            p95_cycles: agg.p95_cycles,
            mean_bits: agg.mean_bits,
            bits_per_cycle: agg.bits_per_cycle,
            digests,
            wall_secs,
            detail,
            cached: false,
        }
    }

    /// The outcome as response JSON.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("trials", Json::usize(self.trials)),
            ("requested", Json::usize(self.requested)),
            ("formed", Json::u64(self.formed)),
            ("success", Json::f64(self.success)),
            ("mean_cycles", Json::f64(self.mean_cycles)),
            ("median_cycles", Json::f64(self.median_cycles)),
            ("p95_cycles", Json::f64(self.p95_cycles)),
            ("mean_bits", Json::f64(self.mean_bits)),
            ("bits_per_cycle", Json::f64(self.bits_per_cycle)),
            ("digests", json::u64_array(&self.digests)),
            ("wall_secs", Json::f64(self.wall_secs)),
        ];
        if let Some(detail) = &self.detail {
            members.push(("detail", Json::Arr(detail.iter().map(trial_to_json).collect())));
        }
        if self.cached {
            members.push(("cached", Json::Bool(true)));
        }
        Json::obj(members)
    }

    /// Parses an outcome back from its [`JobOutcome::to_json`] form (the
    /// cache's disk format; also how the coordinator reads backend results).
    /// Numeric fields round-trip exactly: `u64` tokens are parsed as `u64`,
    /// and `f64` values use Rust's shortest-round-trip formatting.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<JobOutcome, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result missing {k:?}"));
        let u = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("{k:?} must be a u64"));
        let f = |k: &str| field(k)?.as_f64().ok_or_else(|| format!("{k:?} must be a number"));
        let digests = field("digests")?
            .as_arr()
            .ok_or("\"digests\" must be an array")?
            .iter()
            .map(|d| d.as_u64().ok_or_else(|| "digest must be a u64".to_string()))
            .collect::<Result<Vec<u64>, String>>()?;
        let detail = match v.get("detail") {
            None => None,
            Some(Json::Arr(items)) => {
                Some(items.iter().map(trial_from_json).collect::<Result<Vec<_>, _>>()?)
            }
            Some(_) => return Err("\"detail\" must be an array".to_string()),
        };
        Ok(JobOutcome {
            trials: u("trials")? as usize,
            requested: u("requested")? as usize,
            formed: u("formed")?,
            success: f("success")?,
            mean_cycles: f("mean_cycles")?,
            median_cycles: f("median_cycles")?,
            p95_cycles: f("p95_cycles")?,
            mean_bits: f("mean_bits")?,
            bits_per_cycle: f("bits_per_cycle")?,
            digests,
            wall_secs: f("wall_secs")?,
            detail,
            cached: matches!(v.get("cached"), Some(Json::Bool(true))),
        })
    }
}

/// One per-trial record on the wire. `distance` is the only float; Rust's
/// shortest formatting plus the token-preserving parser round-trips it bit
/// for bit, which the coordinator's bitwise merge depends on.
fn trial_to_json(r: &RunResult) -> Json {
    Json::obj([
        ("formed", Json::Bool(r.formed)),
        ("steps", Json::u64(r.steps)),
        ("cycles", Json::u64(r.cycles)),
        ("bits", Json::u64(r.bits)),
        ("distance", Json::f64(r.distance)),
        ("phase_cycles", json::u64_array(&r.phase_cycles)),
        ("phase_bits", json::u64_array(&r.phase_bits)),
    ])
}

/// Parses one per-trial record (inverse of [`trial_to_json`]).
fn trial_from_json(v: &Json) -> Result<RunResult, String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("trial record missing {k:?}"));
    let u = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("{k:?} must be a u64"));
    let phases = |k: &str| -> Result<[u64; PhaseKind::COUNT], String> {
        let arr = field(k)?.as_arr().ok_or_else(|| format!("{k:?} must be an array"))?;
        if arr.len() != PhaseKind::COUNT {
            return Err(format!("{k:?} must have {} entries", PhaseKind::COUNT));
        }
        let mut out = [0u64; PhaseKind::COUNT];
        for (slot, item) in out.iter_mut().zip(arr) {
            *slot = item.as_u64().ok_or_else(|| format!("{k:?} entries must be u64"))?;
        }
        Ok(out)
    };
    Ok(RunResult {
        formed: match field("formed")? {
            Json::Bool(b) => *b,
            _ => return Err("\"formed\" must be a boolean".to_string()),
        },
        steps: u("steps")?,
        cycles: u("cycles")?,
        bits: u("bits")?,
        distance: field("distance")?.as_f64().ok_or("\"distance\" must be a number")?,
        phase_cycles: phases("phase_cycles")?,
        phase_bits: phases("phase_bits")?,
    })
}

/// What a job runs: a campaign of the paper's algorithm, or a geometry-fuzz
/// soak ([`crate::soak`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// A campaign (`POST /v1/jobs`).
    Campaign(JobSpec),
    /// A soak (`POST /v1/soak` or `serve --soak`).
    Soak(SoakSpec),
}

/// A finished job's outcome, of the same kind as its [`Work`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A campaign's statistics and digests.
    Campaign(JobOutcome),
    /// A soak's case counts.
    Soak(SoakOutcome),
}

impl Outcome {
    /// The outcome as response JSON (the `result` member).
    pub fn to_json(&self) -> Json {
        match self {
            Outcome::Campaign(outcome) => outcome.to_json(),
            Outcome::Soak(outcome) => outcome.to_json(),
        }
    }
}

/// One submitted job: work, lifecycle state, live counters, cancel token.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id.
    pub id: u64,
    /// The validated work.
    pub work: Work,
    /// Cooperative cancellation for `DELETE` and shutdown.
    pub cancel: CancelToken,
    /// Live per-trial counters the engine updates while running (campaigns
    /// only; a soak reports through the `apf_soak_*` metrics).
    pub live: Arc<LiveStats>,
    /// When set, this job is a cache-integrity replay: after it finishes,
    /// the worker compares its digests against the cached outcome for this
    /// canonical-spec digest instead of double-counting a user job.
    pub verify_against: Option<u64>,
    /// The request id this job was submitted under (client-supplied
    /// `X-Apf-Request-Id` or coordinator-generated). Empty for jobs created
    /// outside the HTTP path (tests, embedders, `serve --soak`).
    pub request_id: String,
    /// When the job entered the queue; queue-wait latency is measured from
    /// here to the worker claiming it.
    pub submitted: Instant,
    state: Mutex<JobState>,
}

#[derive(Debug)]
struct JobState {
    status: JobStatus,
    outcome: Option<Outcome>,
}

impl Job {
    /// A freshly queued job.
    pub fn new(id: u64, work: Work) -> Job {
        Job {
            id,
            work,
            cancel: CancelToken::new(),
            live: Arc::new(LiveStats::default()),
            verify_against: None,
            request_id: String::new(),
            submitted: Instant::now(),
            state: Mutex::new(JobState { status: JobStatus::Queued, outcome: None }),
        }
    }

    /// Tags the job with the request id it was submitted under.
    pub fn with_request_id(mut self, request_id: String) -> Job {
        self.request_id = request_id;
        self
    }

    /// A freshly completed campaign (a cache hit: terminal on arrival).
    pub fn new_done(id: u64, spec: JobSpec, outcome: JobOutcome) -> Job {
        let job = Job::new(id, Work::Campaign(spec));
        job.finish(JobStatus::Done, Some(Outcome::Campaign(outcome)));
        job
    }

    /// A cache-integrity replay of `spec`, verified against the cached
    /// outcome keyed by `digest` when it finishes.
    pub fn new_verify(id: u64, spec: JobSpec, digest: u64) -> Job {
        let mut job = Job::new(id, Work::Campaign(spec));
        job.verify_against = Some(digest);
        job
    }

    /// Current status.
    pub fn status(&self) -> JobStatus {
        self.lock().status
    }

    /// Transitions `Queued -> Running`; false if the job was already
    /// cancelled (the worker then skips it).
    pub fn start(&self) -> bool {
        let mut s = self.lock();
        if s.status == JobStatus::Queued && !self.cancel.is_cancelled() {
            s.status = JobStatus::Running;
            true
        } else {
            if s.status == JobStatus::Queued {
                s.status = JobStatus::Cancelled;
            }
            false
        }
    }

    /// Records the terminal state and outcome.
    pub fn finish(&self, status: JobStatus, outcome: Option<Outcome>) {
        let mut s = self.lock();
        s.status = status;
        s.outcome = outcome;
    }

    /// Requests cancellation; returns the status after the request.
    pub fn request_cancel(&self) -> JobStatus {
        self.cancel.cancel();
        let mut s = self.lock();
        if s.status == JobStatus::Queued {
            s.status = JobStatus::Cancelled;
        }
        s.status
    }

    /// A clone of the outcome, if terminal.
    pub fn outcome(&self) -> Option<Outcome> {
        self.lock().outcome.clone()
    }

    /// Status JSON for `GET /v1/jobs/{id}`: the work echoed under `"spec"`
    /// (campaigns) or `"soak"`, and the outcome under `"result"` once
    /// recorded.
    pub fn status_json(&self) -> Json {
        let (status, result) = {
            let s = self.lock();
            (s.status, s.outcome.as_ref().map(Outcome::to_json))
        };
        let echo = match &self.work {
            Work::Campaign(spec) => ("spec", spec.to_json()),
            Work::Soak(spec) => ("soak", spec.to_json()),
        };
        let snap = self.live.snapshot();
        let mut members = vec![
            ("id", Json::u64(self.id)),
            ("status", Json::str(status.label())),
            echo,
            (
                "live",
                Json::obj([
                    ("trials", Json::u64(snap.trials)),
                    ("formed", Json::u64(snap.formed)),
                    ("cycles", Json::u64(snap.cycles)),
                    ("bits", Json::u64(snap.bits)),
                    ("busy_secs", Json::f64(snap.busy.as_secs_f64())),
                ]),
            ),
        ];
        if let Some(result) = result {
            members.push(("result", result));
        }
        Json::obj(members)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobState> {
        // apf-lint: allow(panic-policy, panic-reachability) — lock poisoning means a worker already panicked; propagating the crash is the intended semantics
        self.state.lock().expect("job state lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips_through_json() {
        let spec = JobSpec::default();
        let body = spec.to_json().render();
        let back = JobSpec::from_json_bytes(body.as_bytes()).unwrap();
        assert_eq!(back, spec);

        let sharded = JobSpec { range: Some((2, 5)), detail: true, ..JobSpec::default() };
        let body = sharded.to_json().render();
        let back = JobSpec::from_json_bytes(body.as_bytes()).unwrap();
        assert_eq!(back, sharded);
    }

    #[test]
    fn rejects_bad_specs() {
        for (body, why) in [
            (r#"[]"#, "not an object"),
            (r#"{"trials":0}"#, "zero trials"),
            (r#"{"trials":1000000}"#, "too many trials"),
            (r#"{"n":4}"#, "too few robots"),
            (r#"{"n":8,"rho":3}"#, "rho does not divide n"),
            (r#"{"budget":0}"#, "zero budget"),
            (r#"{"seed":-1}"#, "negative seed"),
            (r#"{"seed":1.5}"#, "fractional seed"),
            (r#"{"bogus":1}"#, "unknown field"),
            (r#"{"scheduler":"serial"}"#, "unknown scheduler"),
            (r#"{"range":[5,2]}"#, "backwards range"),
            (r#"{"range":[0,9]}"#, "range beyond trials"),
            (r#"{"range":[0]}"#, "range not a pair"),
            (r#"{"detail":1}"#, "non-boolean detail"),
            (r#"not json"#, "malformed"),
        ] {
            assert!(JobSpec::from_json_bytes(body.as_bytes()).is_err(), "accepted {why}: {body}");
        }
    }

    #[test]
    fn canonicalization_is_field_order_independent() {
        // Submitting the same values with fields in any order (and defaults
        // spelled out or omitted) must hit the same content address — the
        // cache-key property.
        let a = JobSpec::from_json_bytes(br#"{"seed":7,"trials":4,"name":"x"}"#).unwrap();
        let b = JobSpec::from_json_bytes(
            br#"{"name":"x","budget":2000000,"trials":4,"rho":4,"generator":"symmetric","n":8,"seed":7}"#,
        )
        .unwrap();
        assert_eq!(a.canonical.digest(), b.canonical.digest());
        assert_eq!(a.canonical.canonical_json(), b.canonical.canonical_json());
        // The transport extensions do not perturb the canonical identity.
        let c = JobSpec::from_json_bytes(
            br#"{"seed":7,"trials":4,"name":"x","range":[0,2],"detail":true}"#,
        )
        .unwrap();
        assert_eq!(a.canonical.digest(), c.canonical.digest());
        assert!(!c.cacheable());
        assert!(a.cacheable());
    }

    #[test]
    fn outcome_round_trips_through_json_bitwise() {
        let mut trial = RunResult {
            formed: true,
            steps: 12345,
            cycles: 678,
            bits: 91,
            distance: 0.1 + 0.2, // a value with no short decimal form
            ..RunResult::default()
        };
        trial.phase_cycles[3] = 17;
        trial.phase_bits[5] = u64::MAX;
        let outcome = JobOutcome {
            trials: 2,
            requested: 3,
            formed: 1,
            success: 1.0 / 3.0,
            mean_cycles: 678.0,
            median_cycles: 678.0,
            p95_cycles: 678.0,
            mean_bits: 91.0,
            bits_per_cycle: 91.0 / 678.0,
            digests: vec![u64::MAX, 0, 0xDEAD_BEEF],
            wall_secs: 0.25,
            detail: Some(vec![trial, RunResult::default()]),
            cached: false,
        };
        let back = JobOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back, outcome);
        // Bitwise, not approximately: the floats must survive exactly.
        assert_eq!(back.success.to_bits(), outcome.success.to_bits());
        assert_eq!(
            back.detail.as_ref().unwrap()[0].distance.to_bits(),
            outcome.detail.as_ref().unwrap()[0].distance.to_bits()
        );
    }

    #[test]
    fn job_lifecycle_transitions() {
        let job = Job::new(1, Work::Campaign(JobSpec::default()));
        assert_eq!(job.status(), JobStatus::Queued);
        assert!(job.start());
        assert_eq!(job.status(), JobStatus::Running);
        job.finish(JobStatus::Done, None);
        assert!(job.status().is_terminal());

        let cancelled = Job::new(2, Work::Soak(SoakSpec::default()));
        assert_eq!(cancelled.request_cancel(), JobStatus::Cancelled);
        assert!(!cancelled.start(), "cancelled-in-queue job must not start");
        assert_eq!(cancelled.status(), JobStatus::Cancelled);
    }
}
