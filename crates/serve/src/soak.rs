//! Soak jobs: long-running geometry-fuzz campaigns as a background job
//! type (`POST /v1/soak`).
//!
//! A soak job churns the service's queue, cancellation, and SIGTERM-drain
//! paths while adversarially fuzzing the geometry classifiers
//! ([`apf_conformance::geometry_fuzz`]). It is bounded either by a case
//! count (`cases`, shardable across coordinator backends by case range) or
//! by wall time (`seconds`), and reports cases / violations / shrink steps
//! rather than trial statistics. Every case is deterministic in
//! `(seed, case index)`, so a shard re-run after a backend death produces
//! identical counts — the coordinator's no-double-count property for soak
//! shards rests on exactly this.
//!
//! Soak results never enter the content-addressed result cache: the cache
//! is keyed on campaign specs, and a soak outcome describes a fuzz sweep,
//! not a campaign.

use crate::json::{self, Json};
use crate::metrics::Metrics;
use apf_bench::engine::CancelToken;
use apf_conformance::geometry_fuzz::{geo_fuzz_rounds, GeoFuzzConfig, GeoOracle};
use apf_conformance::{MAX_ROBOTS, MIN_ROBOTS};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Hard cap on the cases one case-bounded soak (or one shard of a soak)
/// runs.
pub const MAX_SOAK_CASES: u64 = 1_000_000;
/// Hard cap on a time-bounded soak (one day).
pub const MAX_SOAK_SECONDS: u64 = 24 * 3600;

/// Cases per scheduling chunk: the granularity at which a soak loop checks
/// cancellation, the deadline, and publishes metrics.
const CHUNK_CASES: u64 = 8;

/// A validated soak-job description, as submitted over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakSpec {
    /// Campaign seed; case `i` derives its instance seed from `(seed, i)`.
    pub seed: u64,
    /// Case-count bound (ignored when `seconds > 0`).
    pub cases: u64,
    /// Wall-time bound in seconds; `0` means case-bounded.
    pub seconds: u64,
    /// Robots per generated instance.
    pub robots: usize,
    /// Execute only case indices `lo..hi` (a coordinator shard). Absolute
    /// indices: case `i` here is bit-identical to case `i` of the full
    /// soak. `None` = all cases.
    pub range: Option<(u64, u64)>,
}

impl Default for SoakSpec {
    fn default() -> Self {
        SoakSpec { seed: 0, cases: 256, seconds: 0, robots: 8, range: None }
    }
}

impl SoakSpec {
    /// Parses and validates a soak spec from a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (the 400 body) on malformed JSON,
    /// unknown fields, or out-of-range values.
    pub fn from_json_bytes(body: &[u8]) -> Result<SoakSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let Json::Obj(map) = &v else {
            return Err("body must be a JSON object".to_string());
        };
        let req_u64 = |value: &Json, key: &str| {
            value.as_u64().ok_or_else(|| format!("{key:?} must be a non-negative integer"))
        };
        let mut spec = SoakSpec::default();
        for (key, value) in map {
            match key.as_str() {
                "seed" => spec.seed = req_u64(value, "seed")?,
                "cases" => spec.cases = req_u64(value, "cases")?,
                "seconds" => spec.seconds = req_u64(value, "seconds")?,
                "robots" => spec.robots = req_u64(value, "robots")? as usize,
                "range" => {
                    let arr = value.as_arr().ok_or("\"range\" must be [lo, hi]")?;
                    let [lo, hi] = arr else {
                        return Err("\"range\" must be [lo, hi]".to_string());
                    };
                    spec.range = Some((req_u64(lo, "range[0]")?, req_u64(hi, "range[1]")?));
                }
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Range-checks the spec.
    ///
    /// # Errors
    ///
    /// Returns the 400 body text.
    pub fn validate(&self) -> Result<(), String> {
        if !(MIN_ROBOTS..=MAX_ROBOTS).contains(&self.robots) {
            return Err(format!(
                "\"robots\" must be in [{MIN_ROBOTS}, {MAX_ROBOTS}] (got {})",
                self.robots
            ));
        }
        if self.seconds > MAX_SOAK_SECONDS {
            return Err(format!(
                "\"seconds\" must be <= {MAX_SOAK_SECONDS} (got {})",
                self.seconds
            ));
        }
        if self.seconds > 0 {
            if self.range.is_some() {
                return Err("a timed soak (\"seconds\" > 0) cannot carry a \"range\"".to_string());
            }
            return Ok(());
        }
        if self.cases == 0 {
            return Err("\"cases\" must be at least 1".to_string());
        }
        // The cap applies to the cases this spec runs: a shard of a timed
        // soak may sit past index MAX_SOAK_CASES.
        let (lo, hi) = self.range.unwrap_or((0, self.cases));
        if lo > hi || hi > self.cases {
            return Err(format!(
                "\"range\" [{lo}, {hi}] must satisfy lo <= hi <= cases ({})",
                self.cases
            ));
        }
        if hi - lo > MAX_SOAK_CASES {
            return Err(format!("a soak runs at most {MAX_SOAK_CASES} cases (got {})", hi - lo));
        }
        Ok(())
    }

    /// The spec as response JSON (echoed in job status). `range` only when
    /// set, mirroring [`crate::job::JobSpec::to_json`].
    pub fn to_json(&self) -> Json {
        let mut obj = match Json::obj([
            ("seed", Json::u64(self.seed)),
            ("cases", Json::u64(self.cases)),
            ("seconds", Json::u64(self.seconds)),
            ("robots", Json::usize(self.robots)),
        ]) {
            Json::Obj(m) => m,
            // apf-lint: allow(panic-reachability) — Json::obj always returns Json::Obj; the arm is statically dead
            _ => unreachable!("Json::obj returns an object"),
        };
        if let Some((lo, hi)) = self.range {
            obj.insert("range".to_string(), Json::Arr(vec![Json::u64(lo), Json::u64(hi)]));
        }
        Json::Obj(obj)
    }
}

/// The final outcome a soak worker records. All counts are deterministic in
/// the spec; only `wall_secs` is timing-noisy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakOutcome {
    /// Fuzz cases executed.
    pub cases: u64,
    /// Cases with no violation.
    pub clean: u64,
    /// Minimized counterexamples found (0 on a healthy stack).
    pub violations: u64,
    /// Shrink candidates evaluated while minimizing violations.
    pub shrink_steps: u64,
    /// Soak wall-clock seconds.
    pub wall_secs: f64,
}

impl SoakOutcome {
    /// Folds a shard or chunk outcome into this one (counts sum; wall time
    /// accumulates the executing side's clock).
    pub fn absorb(&mut self, other: &SoakOutcome) {
        self.cases += other.cases;
        self.clean += other.clean;
        self.violations += other.violations;
        self.shrink_steps += other.shrink_steps;
        self.wall_secs += other.wall_secs;
    }

    /// The outcome as response JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cases", Json::u64(self.cases)),
            ("clean", Json::u64(self.clean)),
            ("violations", Json::u64(self.violations)),
            ("shrink_steps", Json::u64(self.shrink_steps)),
            ("wall_secs", Json::f64(self.wall_secs)),
        ])
    }

    /// Parses an outcome back from its [`SoakOutcome::to_json`] form (how
    /// the coordinator reads backend soak-shard results).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<SoakOutcome, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("soak result missing {k:?}"));
        let u = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("{k:?} must be a u64"));
        Ok(SoakOutcome {
            cases: u("cases")?,
            clean: u("clean")?,
            violations: u("violations")?,
            shrink_steps: u("shrink_steps")?,
            wall_secs: field("wall_secs")?.as_f64().ok_or("\"wall_secs\" must be a number")?,
        })
    }
}

/// Runs a soak job on the local machine: chunks of geometry-fuzz cases,
/// with cancellation, the deadline, and `apf_soak_*` metrics checked and
/// published between chunks. Returns whether cancellation cut it short,
/// plus the outcome.
pub fn run_soak(
    spec: &SoakSpec,
    jobs: usize,
    cancel: &CancelToken,
    metrics: &Metrics,
) -> (bool, SoakOutcome) {
    let t0 = Instant::now();
    let cfg = GeoFuzzConfig { robots: spec.robots, ..GeoFuzzConfig::default() };
    let oracle = GeoOracle::default();
    let deadline = (spec.seconds > 0).then(|| t0 + Duration::from_secs(spec.seconds));
    let (mut next, target) = match (deadline.is_some(), spec.range) {
        // Timed soaks run contiguous case indices until the clock runs out.
        (true, _) => (0, u64::MAX),
        (false, Some((lo, hi))) => (lo, hi),
        (false, None) => (0, spec.cases),
    };

    let mut outcome = SoakOutcome::default();
    let mut cancelled = false;
    while next < target {
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                break;
            }
        }
        let chunk_t0 = Instant::now();
        let count = CHUNK_CASES.min(target - next);
        let report = geo_fuzz_rounds(&cfg, &oracle, spec.seed, next, count, jobs);
        next += count;
        outcome.cases += report.cases;
        outcome.clean += report.clean;
        outcome.violations += report.counterexamples.len() as u64;
        outcome.shrink_steps += report.shrink_steps;
        metrics.soak_cases.fetch_add(report.cases, Ordering::Relaxed);
        metrics.soak_violations.fetch_add(report.counterexamples.len() as u64, Ordering::Relaxed);
        metrics.soak_shrink_steps.fetch_add(report.shrink_steps, Ordering::Relaxed);
        let micros = u64::try_from(chunk_t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        metrics.soak_wall_micros.fetch_add(micros, Ordering::Relaxed);
    }
    outcome.wall_secs = t0.elapsed().as_secs_f64();
    (cancelled, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [
            SoakSpec::default(),
            SoakSpec { cases: 64, range: Some((8, 24)), ..SoakSpec::default() },
            // A timed coordinated soak's shard past case MAX_SOAK_CASES, as
            // the coordinator sends it: the cap applies to the range.
            SoakSpec { cases: 1_000_022, range: Some((999_990, 1_000_022)), ..SoakSpec::default() },
        ] {
            let body = spec.to_json().render();
            assert_eq!(SoakSpec::from_json_bytes(body.as_bytes()), Ok(spec));
        }
    }

    #[test]
    fn rejects_bad_specs() {
        for (body, why) in [
            (r#"[]"#, "not an object"),
            (r#"{"cases":0}"#, "zero cases"),
            (r#"{"cases":10000000}"#, "too many cases"),
            (r#"{"robots":2}"#, "too few robots"),
            (r#"{"robots":6}"#, "fewer robots than Theorem 2 needs"),
            (r#"{"robots":1000}"#, "too many robots"),
            (r#"{"seconds":100000}"#, "seconds beyond cap"),
            (r#"{"seconds":5,"range":[0,2]}"#, "timed soak with a range"),
            (r#"{"range":[9,3]}"#, "backwards range"),
            (r#"{"cases":4,"range":[0,9]}"#, "range beyond cases"),
            (r#"{"cases":2000001,"range":[0,1000001]}"#, "range longer than the cap"),
            (r#"{"bogus":1}"#, "unknown field"),
            (r#"{"seed":-1}"#, "negative seed"),
        ] {
            assert!(SoakSpec::from_json_bytes(body.as_bytes()).is_err(), "accepted {why}: {body}");
        }
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let outcome = SoakOutcome {
            cases: 40,
            clean: 39,
            violations: 1,
            shrink_steps: 123,
            wall_secs: 0.1 + 0.2,
        };
        let back = SoakOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(back.wall_secs.to_bits(), outcome.wall_secs.to_bits());
    }

    #[test]
    fn run_soak_executes_and_counts_deterministically() {
        let spec = SoakSpec { cases: 4, robots: 8, ..SoakSpec::default() };
        let metrics = Metrics::default();
        let (cancelled, a) = run_soak(&spec, 2, &CancelToken::new(), &metrics);
        assert!(!cancelled);
        assert_eq!(a.cases, 4);
        assert_eq!(a.clean + a_dirty(&a), 4);
        assert_eq!(metrics.soak_cases.load(Ordering::Relaxed), 4);
        // Same spec, different jobs value: identical counts.
        let (_, b) = run_soak(&spec, 1, &CancelToken::new(), &Metrics::default());
        assert_eq!(
            (a.cases, a.clean, a.violations, a.shrink_steps),
            (b.cases, b.clean, b.violations, b.shrink_steps)
        );
    }

    fn a_dirty(o: &SoakOutcome) -> u64 {
        o.cases - o.clean
    }

    #[test]
    fn shard_counts_equal_whole_slice() {
        // A shard [lo, hi) of a soak counts exactly like the same index
        // slice of a whole run — the coordinator merge's soundness.
        let whole = SoakSpec { cases: 6, robots: 8, seed: 5, ..SoakSpec::default() };
        let shard_a = SoakSpec { range: Some((0, 3)), ..whole.clone() };
        let shard_b = SoakSpec { range: Some((3, 6)), ..whole.clone() };
        let cancel = CancelToken::new();
        let (_, w) = run_soak(&whole, 2, &cancel, &Metrics::default());
        let (_, a) = run_soak(&shard_a, 2, &cancel, &Metrics::default());
        let (_, b) = run_soak(&shard_b, 2, &cancel, &Metrics::default());
        let mut merged = SoakOutcome::default();
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(
            (w.cases, w.clean, w.violations, w.shrink_steps),
            (merged.cases, merged.clean, merged.violations, merged.shrink_steps)
        );
    }

    #[test]
    fn cancellation_stops_between_chunks() {
        let spec = SoakSpec { cases: 1000, robots: 8, ..SoakSpec::default() };
        let cancel = CancelToken::new();
        cancel.cancel();
        let (cancelled, outcome) = run_soak(&spec, 2, &cancel, &Metrics::default());
        assert!(cancelled);
        assert_eq!(outcome.cases, 0, "pre-cancelled soak must not run cases");
    }
}
