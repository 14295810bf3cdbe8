//! `apf-serve` — a long-running campaign service over the deterministic
//! trial engine.
//!
//! The experiment harness runs campaigns one process at a time; this crate
//! turns the same `RunSpec`/`Campaign`/`Engine` machinery into a daemon
//! with a queue, so large randomized validation campaigns (the workload the
//! paper's claims are checked by) can be submitted, watched, cancelled, and
//! scraped continuously:
//!
//! * **Versioned job API** — `POST /v1/jobs` submits a campaign spec
//!   (JSON), `GET /v1/jobs/{id}` returns status plus live streaming
//!   counters, `GET /v1/jobs/{id}/result` the final report (per-trial FNV
//!   trace digests included), `DELETE /v1/jobs/{id}` cancels cooperatively,
//!   and `GET|POST /v1/spec-digest` canonicalizes a spec without running
//!   it.
//! * **One job pipeline** — a [`Job`] carries a [`Work`] (a campaign or a
//!   soak) and one [`Outcome`] slot; submission, the worker step, the
//!   result route and the coordinator's shard dispatch each exist once,
//!   with the per-kind shard details behind one private trait in
//!   [`coordinator`].
//! * **Determinism preserved** — a job's campaign is constructed through
//!   the shared [`apf_bench::spec::CanonicalSpec`] path, exactly like a CLI
//!   run of the same spec, so server-side results and digests are
//!   bit-identical to `apf-cli job-digest` output. The service adds
//!   scheduling, never randomness.
//! * **Coordinator mode** — with backends configured, jobs are split into
//!   trial-range shards, fanned out to backend `apf-serve` processes, and
//!   merged **bit-identically** to a single-process run ([`coordinator`]).
//! * **Content-addressed result cache** — a repeated cacheable spec is
//!   answered from the cache keyed by its canonical digest, with every Nth
//!   hit re-verified by an engine replay ([`cache`]).
//! * **Backpressure** — the queue is bounded and submissions are quota'd
//!   per client; rejection answers 429 with `Retry-After` instead of
//!   buffering unboundedly.
//! * **Soak campaigns** — `POST /v1/soak` (or `serve --soak SECS`, which
//!   self-submits a timed run at startup) executes geometry-fuzz sweeps
//!   from `apf-conformance` as jobs of the same pipeline ([`soak`]):
//!   case-bounded or timed, cancellable, SIGTERM-drainable, with
//!   `apf_soak_*` counters and case-range sharding across coordinator
//!   backends (deterministic per `(seed, index)`, so retries never
//!   double-count).
//! * **Metrics** — `GET /metrics` renders Prometheus text format 0.0.4:
//!   queue/worker gauges, job/HTTP/cache/shard counters, trial/cycle/
//!   random-bit totals, per-phase breakdowns, worker utilization.
//! * **Graceful lifecycle** — SIGTERM/SIGINT (or a [`ShutdownHandle`])
//!   stops accepting, fires every job's [`apf_bench::engine::CancelToken`],
//!   lets in-flight trials finish, records partial (well-formed, prefix)
//!   results, and returns from [`Server::run`] so the process exits 0.
//!
//! The HTTP/1.1 transport (server and client sides) and JSON codec are
//! hand-rolled std-only subsets — this workspace is offline and vendors no
//! server or serde dependencies.
//!
//! The crate contains the workspace's only `unsafe` block (the `signal(2)`
//! registration in [`signal`]); everything else inherits the workspace-wide
//! `unsafe_code = "deny"`.

pub mod cache;
pub mod client;
pub mod coordinator;
pub mod http;
pub mod job;
pub mod json;
pub mod metrics;
pub mod server;
pub mod shard;
pub mod signal;
pub mod soak;

pub use cache::{CacheConfig, ClientQuotas, ResultCache};
pub use coordinator::CoordinatorConfig;
pub use job::{Job, JobOutcome, JobSpec, JobStatus, Outcome, Work};
pub use json::Json;
pub use metrics::{LiveView, Metrics};
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use soak::{SoakOutcome, SoakSpec};
