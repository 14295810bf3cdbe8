//! Correctness tooling for the APF simulator: golden-trace conformance and
//! adversarial schedule fuzzing.
//!
//! The simulator's experiment claims (bits per cycle, formation
//! probability, adversary resilience) are only as good as the engine's
//! behavioral stability. This crate pins that stability down three ways:
//!
//! * **[`corpus`]** — a checked-in set of golden JSONL traces (small
//!   instances across every scheduler kind, with and without multiplicity)
//!   whose FNV-1a digests are recorded in a manifest. Any change to the
//!   geometry/core/sim/scheduler stack that alters *any* event of *any*
//!   golden execution fails CI with a readable event diff. Intentional
//!   changes regenerate the corpus via `scripts/regen_corpus.sh` (or
//!   `apf-cli conformance regen`), making behavioral drift an explicit,
//!   reviewable artifact.
//! * **[`fuzz`]** — a seeded generator of pathological ASYNC schedules
//!   (mid-move pauses, stale snapshots, bounded starvation, dense
//!   interleavings) with trace-level property checks — stream legality,
//!   the ≤ 1 bit/election-cycle claim, phase legality, rigid-motion
//!   safety, no `compute-error`, eventual formation.
//! * **[`geometry_fuzz`]** — the same adversarial treatment for *instance
//!   geometry*: seeded degenerate families (ε-perturbed symmetricity,
//!   collinear, SEC-boundary, near-multiplicity) with perturbations
//!   laddered across both sides of the classifier tolerance bands, checked
//!   by a pure-geometry oracle and then under the FSYNC/SSYNC/ASYNC
//!   scheduler matrix. Violations also shrink over geometry (robot drops,
//!   snaps toward the template).
//!
//! Both fuzzers share one driver: world run, scripted replay
//! ([`ScriptedScheduler`](apf_scheduler::ScriptedScheduler)), shrinker
//! (prefix truncation, then ddmin), a case pool whose reports are
//! bit-identical for any `--jobs` value, and one `.repro` file per
//! [`Counterexample`] with its initial positions and script. The CLI and
//! soak specs accept [`MIN_ROBOTS`]..=[`MAX_ROBOTS`] robots.
//!
//! Crash forensics ride on `apf-trace`'s `CrashDumpSink`: engine invariant
//! violations flush a last-N event window to disk before panicking (see
//! `World::step` and `TraceSink::crash_dump`).

#![forbid(unsafe_code)]

pub mod corpus;
mod driver;
pub mod fuzz;
pub mod geometry_fuzz;

pub use corpus::{
    cases, default_corpus_dir, event_diff, read_manifest, regenerate, verify, write_manifest,
    CaseReport, CorpusCase, ManifestEntry,
};
pub use driver::{
    dump_counterexample, script_from_text, script_to_text, Counterexample, FuzzReport, Violation,
    MAX_ROBOTS, MIN_ROBOTS,
};
pub use fuzz::{fuzz_campaign, replay_violates, FuzzConfig};
pub use geometry_fuzz::{
    check_instance, degenerate_instance, geo_fuzz_rounds, geo_fuzz_timed, geo_fuzz_until,
    shrink_geometry, Expectation, GeoFamily, GeoFuzzConfig, GeoInstance, GeoOracle,
};
