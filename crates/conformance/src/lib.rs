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
//!   safety, eventual formation — and ddmin-style shrinking of violating
//!   schedules to minimal [`ScriptedScheduler`](apf_scheduler::ScriptedScheduler)
//!   reproducers. Campaigns are bit-deterministic in their seed for any
//!   `--jobs` value.
//! * **[`geometry_fuzz`]** — the same adversarial treatment for *instance
//!   geometry*: seeded degenerate families (ε-perturbed symmetricity,
//!   collinear, SEC-boundary, near-multiplicity) with perturbations
//!   laddered across both sides of the classifier tolerance bands, checked
//!   by a pure-geometry oracle and then under the full scheduler matrix.
//!   Violations shrink over geometry *and* schedules to minimal
//!   `(positions, script)` reproducers.
//!
//! Crash forensics ride on `apf-trace`'s `CrashDumpSink`: engine invariant
//! violations flush a last-N event window to disk before panicking (see
//! `World::step` and `TraceSink::crash_dump`).

#![forbid(unsafe_code)]

pub mod corpus;
pub mod fuzz;
pub mod geometry_fuzz;

pub use corpus::{
    cases, default_corpus_dir, event_diff, read_manifest, regenerate, verify, write_manifest,
    CaseReport, CorpusCase, ManifestEntry,
};
pub use fuzz::{
    dump_counterexample, fuzz_campaign, replay_violates, script_from_text, script_to_text, shrink,
    Counterexample, FuzzConfig, FuzzReport, Violation,
};
pub use geometry_fuzz::{
    check_instance, degenerate_instance, dump_geo_counterexample, geo_fuzz_campaign,
    geo_fuzz_rounds, geo_fuzz_timed, shrink_geometry, Expectation, GeoCounterexample, GeoFamily,
    GeoFuzzConfig, GeoFuzzReport, GeoInstance, GeoOracle,
};
