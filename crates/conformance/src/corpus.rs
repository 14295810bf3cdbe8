//! The golden-trace conformance corpus.
//!
//! A corpus case is a fully specified [`RunSpec`] (instance, scheduler,
//! seed, budget, world options) whose serialized event trace is checked into
//! `tests/corpus/` together with its FNV-1a digest. Replaying a case through
//! the current engine and comparing digests pins down the *entire execution*
//! — every Look, coin flip, decision, move slice, and interruption — so any
//! unintended behavioral change anywhere in the geometry/core/sim/scheduler
//! stack shows up as digest drift, with a readable event diff pointing at
//! the first divergence.
//!
//! Three digests are compared per case:
//!
//! 1. the **manifest** digest (recorded at generation time),
//! 2. the **file** digest (FNV-1a over the golden file's bytes — detects a
//!    corrupted or hand-edited golden),
//! 3. the **live** digest (re-running the spec through a `HashSink`).
//!
//! `HashSink` hashes each serialized line plus `\n`, so (2) and (3) agree
//! byte-for-byte with the on-disk format by construction.

use apf_bench::engine::{AlgorithmSpec, RunSpec};
use apf_scheduler::{AsyncConfig, SchedulerKind};
use apf_trace::{describe, fnv1a_64, parse_line, to_json_line, TraceEvent, TraceSummary, VecSink};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One golden-trace case: everything needed to reproduce its event stream.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Unique slug; also the golden file's stem (`<name>.jsonl`).
    pub name: &'static str,
    /// Scheduler kind driving the case.
    pub kind: SchedulerKind,
    /// Robot count.
    pub n: usize,
    /// `Some(rho)` starts from a `rho`-symmetric configuration, `None` from
    /// an asymmetric one.
    pub symmetric: Option<usize>,
    /// `Some(family)` overrides the generator with a degenerate instance
    /// from the geometry fuzzer's seeded families (collinear start,
    /// ε-perturbed symmetricity, SEC-boundary robot, near-multiplicity
    /// pair), freezing the engine's behaviour at classifier boundaries.
    pub degenerate: Option<crate::geometry_fuzz::GeoFamily>,
    /// Whether the target pattern contains multiplicity points (and the
    /// world enables multiplicity detection).
    pub multiplicity: bool,
    /// Whether the two innermost points of the random pattern move to
    /// `c(F)`: Appendix C's case, formed through `F̃` and the gather step.
    /// Needs `multiplicity`.
    pub center: bool,
    /// Whether robots get random local frames.
    pub randomize_frames: bool,
    /// Non-default ASYNC adversary knobs.
    pub async_config: Option<AsyncConfig>,
    /// World seed.
    pub seed: u64,
    /// Engine-step budget. Small on purpose: goldens freeze a *prefix* of
    /// the execution, which drifts exactly when a full run would, at a
    /// fraction of the checked-in bytes.
    pub budget: u64,
}

impl CorpusCase {
    /// The spec replaying this case.
    pub fn spec(&self) -> RunSpec {
        let initial = match (self.degenerate, self.symmetric) {
            (Some(family), _) => {
                crate::geometry_fuzz::degenerate_instance(family, self.n, self.seed ^ 0xD6)
                    .positions
            }
            (None, Some(rho)) => {
                apf_patterns::symmetric_configuration(self.n, rho, self.seed ^ 0xA5)
            }
            (None, None) => apf_patterns::asymmetric_configuration(self.n, self.seed ^ 0xA5),
        };
        let pattern = if self.center {
            apf_patterns::pattern_with_center_points(self.n, 2, self.seed ^ 0x5A)
        } else if self.multiplicity {
            apf_patterns::pattern_with_multiplicity(self.n, self.n - 2, self.seed ^ 0x5A)
        } else {
            apf_patterns::random_pattern(self.n, self.seed ^ 0x5A)
        };
        let mut spec = RunSpec::new(initial, pattern)
            .algorithm(AlgorithmSpec::FormPattern)
            .scheduler(self.kind)
            .seed(self.seed)
            .budget(self.budget)
            .multiplicity_detection(self.multiplicity)
            .randomize_frames(self.randomize_frames)
            // Budgets here are trace-size caps, not formation attempts;
            // validation would reject nothing anyway, but being explicit
            // keeps goldens independent of validator evolution.
            .validate(false);
        if let Some(cfg) = self.async_config {
            spec = spec.async_config(cfg);
        }
        spec
    }

    /// The golden file path for this case under `dir`.
    pub fn golden_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.jsonl", self.name))
    }

    /// Replays the case and returns its full event stream.
    pub fn replay_events(&self) -> Vec<TraceEvent> {
        let shared = Arc::new(Mutex::new(VecSink::new()));
        self.spec()
            .try_run_with_sink(Box::new(Arc::clone(&shared)))
            // apf-lint: allow(panic-policy) — corpus specs are fixed, pre-validated instances
            .expect("corpus specs skip validation");
        // apf-lint: allow(panic-policy) — poisoning requires a panic that already failed the replay
        let events = shared.lock().expect("no panics hold the sink").events().to_vec();
        events
    }
}

/// The checked-in corpus: small-n cases across every scheduler kind,
/// with and without multiplicity, symmetric and asymmetric starts, shared
/// and randomized frames, default and aggressive ASYNC adversaries, and
/// degenerate-geometry starts from the fuzzer's instance families.
pub fn cases() -> Vec<CorpusCase> {
    let base = CorpusCase {
        name: "",
        kind: SchedulerKind::Fsync,
        n: 7,
        symmetric: None,
        degenerate: None,
        multiplicity: false,
        center: false,
        randomize_frames: true,
        async_config: None,
        seed: 0,
        budget: 200,
    };
    vec![
        CorpusCase { name: "fsync-asym-n7", kind: SchedulerKind::Fsync, seed: 11, ..base.clone() },
        CorpusCase {
            name: "fsync-mult-n8",
            kind: SchedulerKind::Fsync,
            n: 8,
            multiplicity: true,
            seed: 12,
            budget: 160,
            ..base.clone()
        },
        CorpusCase {
            name: "ssync-asym-n7",
            kind: SchedulerKind::Ssync,
            seed: 13,
            budget: 300,
            ..base.clone()
        },
        CorpusCase {
            name: "ssync-noframes-n8",
            kind: SchedulerKind::Ssync,
            n: 8,
            randomize_frames: false,
            seed: 14,
            budget: 240,
            ..base.clone()
        },
        CorpusCase {
            name: "async-asym-n7",
            kind: SchedulerKind::Async,
            seed: 15,
            budget: 400,
            ..base.clone()
        },
        CorpusCase {
            name: "async-aggressive-n7",
            kind: SchedulerKind::Async,
            async_config: Some(AsyncConfig {
                pause_prob: 0.45,
                stop_prob: 0.55,
                max_slice_fraction: 0.2,
                batch_size: 3,
                starvation_bound: 24,
            }),
            seed: 16,
            budget: 400,
            ..base.clone()
        },
        CorpusCase {
            name: "async-mult-n9",
            kind: SchedulerKind::Async,
            n: 9,
            multiplicity: true,
            seed: 17,
            budget: 320,
            ..base.clone()
        },
        CorpusCase {
            name: "rr-asym-n7",
            kind: SchedulerKind::RoundRobin,
            seed: 18,
            budget: 260,
            ..base.clone()
        },
        CorpusCase {
            name: "rr-sym-n8",
            kind: SchedulerKind::RoundRobin,
            n: 8,
            symmetric: Some(2),
            seed: 19,
            budget: 260,
            ..base.clone()
        },
        CorpusCase {
            name: "fsync-sym-n9",
            kind: SchedulerKind::Fsync,
            n: 9,
            symmetric: Some(3),
            seed: 20,
            budget: 200,
            ..base.clone()
        },
        // Degenerate-family starts from the geometry fuzzer: the seeds are
        // chosen so each instance sits on the intended side of its
        // classifier boundary (asserted by `degenerate_cases_sit_on_the_
        // intended_boundary_side` below).
        CorpusCase {
            name: "fsync-collinear-n8",
            kind: SchedulerKind::Fsync,
            n: 8,
            degenerate: Some(crate::geometry_fuzz::GeoFamily::Collinear),
            seed: 21,
            budget: 200,
            ..base.clone()
        },
        CorpusCase {
            name: "ssync-rho2-eps-n8",
            kind: SchedulerKind::Ssync,
            n: 8,
            degenerate: Some(crate::geometry_fuzz::GeoFamily::PerturbedRho),
            seed: 30,
            budget: 240,
            ..base.clone()
        },
        CorpusCase {
            name: "async-secboundary-n8",
            kind: SchedulerKind::Async,
            n: 8,
            degenerate: Some(crate::geometry_fuzz::GeoFamily::SecBoundary),
            seed: 28,
            budget: 320,
            ..base.clone()
        },
        CorpusCase {
            name: "rr-nearmult-n9",
            kind: SchedulerKind::RoundRobin,
            n: 9,
            degenerate: Some(crate::geometry_fuzz::GeoFamily::NearMultiplicity),
            seed: 23,
            budget: 260,
            ..base.clone()
        },
        CorpusCase {
            name: "ssync-center-n8",
            kind: SchedulerKind::Ssync,
            n: 8,
            multiplicity: true,
            center: true,
            seed: 24,
            budget: 300,
            ..base
        },
    ]
}

/// The repository's corpus directory (`tests/corpus` at the workspace
/// root), resolved relative to this crate so tests and the CLI agree.
pub fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// One manifest entry: `<name> <digest:016x> <events>` per line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Case name.
    pub name: String,
    /// Recorded stream digest.
    pub digest: u64,
    /// Recorded event count.
    pub events: u64,
}

/// Reads `manifest.txt` from `dir`.
///
/// # Errors
///
/// I/O errors reading the file; malformed lines become
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_manifest(dir: &Path) -> std::io::Result<Vec<ManifestEntry>> {
    let text = std::fs::read_to_string(dir.join("manifest.txt"))?;
    let bad = |line: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed manifest line: {line:?}"),
        )
    };
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(digest), Some(events), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad(line));
        };
        entries.push(ManifestEntry {
            name: name.to_string(),
            digest: u64::from_str_radix(digest, 16).map_err(|_| bad(line))?,
            events: events.parse().map_err(|_| bad(line))?,
        });
    }
    Ok(entries)
}

/// Writes `manifest.txt` into `dir`.
///
/// # Errors
///
/// I/O errors writing the file.
pub fn write_manifest(dir: &Path, entries: &[ManifestEntry]) -> std::io::Result<()> {
    let mut text = String::from(
        "# Golden-trace corpus manifest: <case> <fnv1a digest> <events>\n\
         # Regenerate with scripts/regen_corpus.sh (or `apf-cli conformance regen`).\n",
    );
    for e in entries {
        let _ = writeln!(text, "{} {:016x} {}", e.name, e.digest, e.events);
    }
    std::fs::write(dir.join("manifest.txt"), text)
}

/// Verdict of one case's conformance check.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Case name.
    pub name: String,
    /// Digest recorded in the manifest, if the case is listed.
    pub manifest_digest: Option<u64>,
    /// Digest of the golden file's bytes, if the file exists.
    pub file_digest: Option<u64>,
    /// Digest of a live replay through the current engine.
    pub live_digest: u64,
    /// Events emitted by the live replay.
    pub live_events: u64,
    /// Human-readable event diff; non-empty exactly when the live stream
    /// diverges from the golden file.
    pub diff: String,
}

impl CaseReport {
    /// Whether all three digests agree.
    pub fn ok(&self) -> bool {
        self.manifest_digest == Some(self.live_digest)
            && self.file_digest == Some(self.live_digest)
            && self.diff.is_empty()
    }
}

/// Replays every corpus case against the goldens in `dir`.
///
/// # Errors
///
/// I/O errors reading the manifest (a missing golden *file* is reported in
/// the case's [`CaseReport`], not as an error).
pub fn verify(dir: &Path) -> std::io::Result<Vec<CaseReport>> {
    let manifest = read_manifest(dir)?;
    let mut reports = Vec::new();
    for case in cases() {
        let manifest_digest = manifest.iter().find(|e| e.name == case.name).map(|e| e.digest);
        let golden = case.golden_path(dir);
        let file_bytes = std::fs::read(&golden).ok();
        let file_digest = file_bytes.as_deref().map(fnv1a_64);
        let (_result, live_digest) =
            // apf-lint: allow(panic-policy) — corpus specs are fixed, pre-validated instances
            case.spec().try_run_digest().expect("corpus specs skip validation");
        let live = case.replay_events();
        let diff = match &file_bytes {
            Some(bytes) if file_digest != Some(live_digest) => {
                event_diff(&String::from_utf8_lossy(bytes), &live)
            }
            Some(_) => String::new(),
            None => format!("golden file missing: {}\n", golden.display()),
        };
        reports.push(CaseReport {
            name: case.name.to_string(),
            manifest_digest,
            file_digest,
            live_digest,
            live_events: live.len() as u64,
            diff,
        });
    }
    Ok(reports)
}

/// Regenerates every golden file and the manifest in `dir` from the current
/// engine. Returns the new manifest entries.
///
/// # Errors
///
/// I/O errors creating `dir` or writing any file.
pub fn regenerate(dir: &Path) -> std::io::Result<Vec<ManifestEntry>> {
    std::fs::create_dir_all(dir)?;
    let mut entries = Vec::new();
    for case in cases() {
        let events = case.replay_events();
        let mut text = String::new();
        for e in &events {
            text.push_str(&to_json_line(e));
            text.push('\n');
        }
        std::fs::write(case.golden_path(dir), &text)?;
        entries.push(ManifestEntry {
            name: case.name.to_string(),
            digest: fnv1a_64(text.as_bytes()),
            events: events.len() as u64,
        });
    }
    write_manifest(dir, &entries)?;
    Ok(entries)
}

/// Context lines shown on each side of the first divergence.
const DIFF_CONTEXT: usize = 3;

/// Renders a human-readable diff between a golden trace (raw JSONL text)
/// and a live event stream: the first divergent index, a few context events
/// before it, both versions of the divergent event via
/// [`describe`], and summary-level deltas (cycles/bits/interrupts) so a
/// reviewer can tell a benign drift (intentional algorithm change) from a
/// corrupted one. Empty when the streams are byte-identical.
pub fn event_diff(golden_text: &str, live: &[TraceEvent]) -> String {
    let golden: Vec<(usize, Result<TraceEvent, String>)> = golden_text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, parse_line(l).map_err(|e| e.to_string())))
        .collect();
    let mut out = String::new();
    let n = golden.len().max(live.len());
    for i in 0..n {
        let g = golden.get(i);
        let l = live.get(i);
        let divergent = match (g, l) {
            (Some((_, Ok(ge))), Some(le)) => to_json_line(ge) != to_json_line(le),
            (Some((_, Err(_))), _) => true,
            (None, _) | (_, None) => true,
        };
        if !divergent {
            continue;
        }
        let _ = writeln!(out, "first divergence at event {} (1-based):", i + 1);
        let lo = i.saturating_sub(DIFF_CONTEXT);
        for (line_no, parsed) in golden.iter().take(i).skip(lo) {
            if let Ok(e) = parsed {
                let _ = writeln!(out, "        = [{line_no:>5}] {}", describe(e));
            }
        }
        match g {
            Some((line_no, Ok(e))) => {
                let _ = writeln!(out, "  golden< [{line_no:>5}] {}", describe(e));
            }
            Some((line_no, Err(err))) => {
                let _ = writeln!(out, "  golden< [{line_no:>5}] unparsable: {err}");
            }
            None => {
                let _ = writeln!(out, "  golden< (stream ends: {} events)", golden.len());
            }
        }
        match l {
            Some(e) => {
                let _ = writeln!(out, "  live  > [{:>5}] {}", i + 1, describe(e));
            }
            None => {
                let _ = writeln!(out, "  live  > (stream ends: {} events)", live.len());
            }
        }
        break;
    }
    if out.is_empty() {
        return out;
    }
    // Summary-level deltas put the pointwise divergence in context.
    let golden_events: Vec<TraceEvent> =
        golden.iter().filter_map(|(_, r)| r.as_ref().ok()).copied().collect();
    let gs = TraceSummary::from_events(&golden_events);
    let ls = TraceSummary::from_events(live);
    let _ = writeln!(
        out,
        "  golden: {} events, {} cycles, {} bits, {} interrupts",
        golden_events.len(),
        gs.cycles,
        gs.bits,
        gs.interrupts
    );
    let _ = writeln!(
        out,
        "  live  : {} events, {} cycles, {} bits, {} interrupts",
        live.len(),
        ls.cycles,
        ls.bits,
        ls.interrupts
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_trace::PhaseKind;

    #[test]
    fn case_names_are_unique_and_match_files() {
        let cs = cases();
        assert!(cs.len() >= 10, "corpus must stay broad: {}", cs.len());
        let mut names: Vec<&str> = cs.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cs.len(), "duplicate case names");
        for c in &cs {
            assert!(c.golden_path(Path::new("x")).to_string_lossy().ends_with(".jsonl"));
        }
    }

    #[test]
    fn degenerate_cases_sit_on_the_intended_boundary_side() {
        use crate::geometry_fuzz::{degenerate_instance, Expectation, GeoFamily};
        let cs = cases();
        let degenerate: Vec<&CorpusCase> = cs.iter().filter(|c| c.degenerate.is_some()).collect();
        assert_eq!(degenerate.len(), 4, "one corpus case per degenerate family");
        let mut families: Vec<GeoFamily> =
            degenerate.iter().map(|c| c.degenerate.expect("filtered on degenerate")).collect();
        families.sort_by_key(|f| f.label());
        families.dedup();
        assert_eq!(families.len(), 4, "every family is represented");
        for c in &degenerate {
            let family = c.degenerate.expect("filtered on degenerate");
            let inst = degenerate_instance(family, c.n, c.seed ^ 0xD6);
            assert_eq!(inst.positions.len(), c.n);
            match family {
                // The near-multiplicity pair must be separated *above* the
                // tolerance threshold: two distinct points the algorithm
                // tolerates, not an accidental multiplicity.
                GeoFamily::NearMultiplicity => {
                    assert_eq!(inst.expectation, Expectation::MustNotHold);
                    assert!(inst.perturbation > inst.threshold);
                }
                // The other three are epsilon-perturbed *within* tolerance:
                // nonzero perturbation the classifiers must absorb.
                _ => {
                    assert_eq!(inst.expectation, Expectation::MustHold);
                    assert!(inst.perturbation > 0.0);
                    assert!(inst.perturbation <= inst.threshold);
                }
            }
        }
    }

    #[test]
    fn every_scheduler_kind_is_covered() {
        let cs = cases();
        for kind in SchedulerKind::all() {
            assert!(cs.iter().any(|c| c.kind == kind), "no corpus case for {kind:?}");
        }
        assert!(cs.iter().any(|c| c.multiplicity));
        assert!(cs.iter().any(|c| !c.multiplicity));
        assert!(cs.iter().any(|c| c.symmetric.is_some()));
        assert!(cs.iter().any(|c| c.async_config.is_some()));
        assert!(cs.iter().any(|c| !c.randomize_frames));
    }

    #[test]
    fn live_digest_matches_serialized_bytes() {
        // The two digest paths (HashSink during the run, FNV over the
        // serialized lines) must agree — this is the contract that lets
        // `verify` compare a file digest against a live one.
        let case = &cases()[0];
        let (_r, live) = case.spec().try_run_digest().unwrap();
        let events = case.replay_events();
        let mut text = String::new();
        for e in &events {
            text.push_str(&to_json_line(e));
            text.push('\n');
        }
        assert_eq!(fnv1a_64(text.as_bytes()), live);
    }

    #[test]
    fn replays_are_deterministic() {
        let case = &cases()[4]; // async case: the most scheduler-dependent
        let (_, a) = case.spec().try_run_digest().unwrap();
        let (_, b) = case.spec().try_run_digest().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn center_case_covers_the_gather_step() {
        // The only golden whose pattern has points at c(F): it must pin the
        // F̃ detour all the way through Appendix C's gather step.
        let cs = cases();
        let case = cs.iter().find(|c| c.center).expect("a center-pattern case");
        let gathers = case
            .replay_events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decide { phase: PhaseKind::Gather, .. }))
            .count();
        assert!(gathers > 0, "{} never reaches the gather step", case.name);
    }

    #[test]
    fn manifest_round_trips() {
        let dir = std::env::temp_dir().join("apf-conformance-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let entries = vec![
            ManifestEntry { name: "a".into(), digest: 0xdead_beef, events: 42 },
            ManifestEntry { name: "b".into(), digest: u64::MAX, events: 0 },
        ];
        write_manifest(&dir, &entries).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_diff_pinpoints_a_perturbation() {
        let case = &cases()[0];
        let events = case.replay_events();
        assert!(events.len() > 8, "corpus case too short to perturb");
        let mut text = String::new();
        for (i, e) in events.iter().enumerate() {
            let mut e = *e;
            // Shift one event mid-stream to a bogus step.
            if i == 6 {
                if let TraceEvent::StepBegin { step, .. }
                | TraceEvent::Look { step, .. }
                | TraceEvent::CoinFlip { step, .. }
                | TraceEvent::RandomWord { step, .. }
                | TraceEvent::Decide { step, .. }
                | TraceEvent::PhaseChange { step, .. }
                | TraceEvent::MoveSlice { step, .. }
                | TraceEvent::Interrupt { step, .. }
                | TraceEvent::Formed { step }
                | TraceEvent::TrialEnd { step, .. } = &mut e
                {
                    *step += 1000;
                }
            }
            text.push_str(&to_json_line(&e));
            text.push('\n');
        }
        let diff = event_diff(&text, &events);
        assert!(diff.contains("first divergence"), "{diff}");
        assert!(diff.contains("golden<"), "{diff}");
        assert!(diff.contains("live  >"), "{diff}");
        // And identical streams produce no diff at all.
        let mut clean = String::new();
        for e in &events {
            clean.push_str(&to_json_line(e));
            clean.push('\n');
        }
        assert!(event_diff(&clean, &events).is_empty());
    }
}
