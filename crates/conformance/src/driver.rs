//! The fuzz driver both fuzzers share.
//!
//! A fuzzer supplies a start (initial positions, target pattern, world seed)
//! and a scheduler; the driver does the rest. It records the scheduler's
//! first batches, runs the world, checks the run's outcome and trace,
//! replays recorded scripts through [`ScriptedScheduler`], shrinks them,
//! runs cases on worker threads with a report that is the same for any
//! worker count, and writes reproducers. A replay is the same world run as
//! the original, so every shrunk script replays to its violation.

use crate::fuzz::FuzzConfig;
use crate::geometry_fuzz::GeoFamily;
use apf_bench::engine::trial_seed;
use apf_geometry::Point;
use apf_scheduler::{Action, PhaseView, Scheduler, ScriptedScheduler};
use apf_sim::{Outcome, StopReason, World, WorldConfig};
use apf_trace::{PhaseKind, TraceEvent, TraceSummary, VecSink};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Fewest robots a fuzz campaign or soak accepts from its caller: the
/// paper's algorithm needs `n >= 7` (Theorem 2), so every world run below
/// it ends in a `compute-error`.
pub const MIN_ROBOTS: usize = 7;
/// Most robots a fuzz campaign or soak accepts (instances beyond this are
/// slow without finding qualitatively new boundaries).
pub const MAX_ROBOTS: usize = 64;

/// One property violation found in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable kind slug (`compute-error`, `stream-legality`,
    /// `election-bits`, `phase-legality`, `rigid-motion`, `no-formation`,
    /// and the geometry oracle's kinds).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// Checks every fuzzed property of a finished run: its outcome (an
/// algorithm error, formation) and its event stream.
fn check_run(cfg: &FuzzConfig, events: &[TraceEvent], outcome: &Outcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    if let StopReason::AlgorithmError(e) = &outcome.reason {
        violations.push(Violation {
            kind: "compute-error",
            detail: format!("algorithm rejected a snapshot: {e}"),
        });
    }
    let summary = TraceSummary::from_events(events);
    for v in &summary.violations {
        violations.push(Violation { kind: "stream-legality", detail: v.clone() });
    }
    if summary.max_election_bits > 1 {
        violations.push(Violation {
            kind: "election-bits",
            detail: format!(
                "{} bits drawn in one election cycle (paper: at most 1)",
                summary.max_election_bits
            ),
        });
    }
    let delta = WorldConfig::default().delta;
    for e in events {
        match *e {
            TraceEvent::Decide { step, robot, phase, moved, .. } => {
                if moved && matches!(phase, PhaseKind::Terminal | PhaseKind::DpfIdle) {
                    violations.push(Violation {
                        kind: "phase-legality",
                        detail: format!("r{robot} moved out of {phase} at step {step}"),
                    });
                }
                if phase == PhaseKind::Gather && !cfg.multiplicity {
                    violations.push(Violation {
                        kind: "phase-legality",
                        detail: format!(
                            "r{robot} entered gather without multiplicity detection at step {step}"
                        ),
                    });
                }
            }
            TraceEvent::MoveSlice { step, robot, advanced, traveled, length, arrived, .. } => {
                if advanced < -1e-9 {
                    violations.push(Violation {
                        kind: "rigid-motion",
                        detail: format!("r{robot} moved backwards {advanced} at step {step}"),
                    });
                }
                if traveled > length + 1e-9 {
                    violations.push(Violation {
                        kind: "rigid-motion",
                        detail: format!(
                            "r{robot} traveled {traveled} past length {length} at step {step}"
                        ),
                    });
                }
                if arrived && (length - traveled) > 1e-9 {
                    violations.push(Violation {
                        kind: "rigid-motion",
                        detail: format!(
                            "r{robot} arrived {traveled}/{length} short of the destination \
                             at step {step}"
                        ),
                    });
                }
            }
            TraceEvent::Interrupt { step, robot, traveled, length }
                if traveled + 1e-9 < delta.min(length) =>
            {
                violations.push(Violation {
                    kind: "rigid-motion",
                    detail: format!(
                        "r{robot} interrupted after {traveled} < delta {delta} at step {step}"
                    ),
                });
            }
            _ => {}
        }
    }
    if cfg.require_formation && !outcome.formed {
        violations.push(Violation {
            kind: "no-formation",
            detail: format!(
                "pattern not formed within {} steps under a fair schedule",
                cfg.step_budget
            ),
        });
    }
    violations
}

/// Records the first `limit` batches the wrapped scheduler emits, so the run
/// can be replayed through [`ScriptedScheduler`].
struct Recorder {
    inner: Box<dyn Scheduler>,
    script: Rc<RefCell<Vec<Vec<Action>>>>,
    limit: u64,
}

impl Scheduler for Recorder {
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
        self.inner.next(phases, batch);
        let mut script = self.script.borrow_mut();
        if (script.len() as u64) < self.limit {
            script.push(batch.clone());
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Runs the world from `positions` toward `pattern` (world seed `seed`)
/// under `scheduler` for up to `cfg.step_budget` steps. Returns the first
/// `cfg.script_steps` batches the scheduler emitted and the violations.
pub(crate) fn run(
    cfg: &FuzzConfig,
    positions: &[Point],
    pattern: &[Point],
    seed: u64,
    scheduler: Box<dyn Scheduler>,
) -> (Vec<Vec<Action>>, Vec<Violation>) {
    let script = Rc::new(RefCell::new(Vec::new()));
    let recorder =
        Recorder { inner: scheduler, script: Rc::clone(&script), limit: cfg.script_steps };
    let config = WorldConfig { multiplicity_detection: cfg.multiplicity, ..WorldConfig::default() };
    let algorithm = (cfg.algorithm)();
    let mut world = World::new(
        positions.to_vec(),
        pattern.to_vec(),
        algorithm,
        Box::new(recorder),
        config,
        seed,
    );
    let sink = Arc::new(Mutex::new(VecSink::new()));
    world.set_sink(Box::new(Arc::clone(&sink)));
    let outcome = world.run(cfg.step_budget);
    // apf-lint: allow(panic-policy) — single-threaded use; poisoning needs a prior panic
    let events = sink.lock().expect("fuzz sink lock");
    (script.take(), check_run(cfg, events.events(), &outcome))
}

/// Whether replaying `script` from the same start still violates `kind`:
/// [`run`] under a scripted scheduler for exactly one step per batch (not
/// the tail its fallback would append), with no formation requirement (a
/// cut-down script trivially fails to form).
pub(crate) fn replays(
    cfg: &FuzzConfig,
    positions: &[Point],
    pattern: &[Point],
    seed: u64,
    script: &[Vec<Action>],
    kind: &str,
) -> bool {
    let cfg = FuzzConfig {
        step_budget: script.len() as u64,
        script_steps: 0,
        require_formation: false,
        ..*cfg
    };
    let scheduler = Box::new(ScriptedScheduler::new(script.to_vec()));
    run(&cfg, positions, pattern, seed, scheduler).1.iter().any(|v| v.kind == kind)
}

/// Shrinks a violating script to a locally minimal one for which `violates`
/// still holds: prefix truncation first (violations show up in replay
/// order, so the shortest violating prefix is usually much shorter), then
/// ddmin (drop chunks of batches, halving the chunk down to one batch).
/// Every candidate is checked, so the result still violates whatever its
/// size. Returns the script and the number of candidates tried.
pub(crate) fn shrink(
    script: Vec<Vec<Action>>,
    violates: impl Fn(&[Vec<Action>]) -> bool,
) -> (Vec<Vec<Action>>, u64) {
    let mut current = script;
    let mut steps = 0u64;
    let mut lo = 0usize;
    let mut hi = current.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        steps += 1;
        if violates(&current[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    current.truncate(hi);
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            steps += 1;
            if !candidate.is_empty() && violates(&candidate) {
                current = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            return (current, steps);
        }
        chunk /= 2;
    }
}

/// A violating run, shrunk to a minimal reproducer.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Index of the case within its campaign.
    pub case_index: u64,
    /// The case's derived seed (rebuilds the same world).
    pub seed: u64,
    /// The degenerate family (`None` for the schedule fuzzer).
    pub family: Option<GeoFamily>,
    /// The scheduler the violation occurred under ([`Scheduler::name`]), or
    /// `"geometry"` for the geometry fuzzer's pure-geometry oracle.
    pub scheduler: &'static str,
    /// Violations of the original run.
    pub violations: Vec<Violation>,
    /// The shrunk initial positions.
    pub positions: Vec<Point>,
    /// The shrunk script. It replays to the first violation kind, except a
    /// schedule-fuzzer `no-formation`, which lives in the unrecorded fair
    /// tail and is not shrunk. Empty for pure-geometry violations.
    pub script: Vec<Vec<Action>>,
    /// Robot count before shrinking.
    pub original_robots: usize,
    /// Length of the recorded script before shrinking.
    pub original_len: usize,
    /// Shrink candidates tried.
    pub shrink_steps: u64,
}

/// Campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Cases with no violation.
    pub clean: u64,
    /// Counterexamples, shrunk, in case order.
    pub counterexamples: Vec<Counterexample>,
    /// Total shrink candidates tried.
    pub shrink_steps: u64,
}

impl FuzzReport {
    /// Whether the campaign found no violations.
    pub fn is_clean(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Folds another report into this one (timed campaigns run in rounds).
    pub fn merge(&mut self, other: FuzzReport) {
        self.cases += other.cases;
        self.clean += other.clean;
        self.shrink_steps += other.shrink_steps;
        self.counterexamples.extend(other.counterexamples);
    }
}

/// Runs case indices `first..first + cases` on `jobs` worker threads;
/// `case(index, seed)` returns that case's counterexamples, its seed derived
/// from `campaign_seed` and the index by [`trial_seed`]. The report is
/// identical for any `jobs` value: each case depends only on its index, and
/// results are folded in index order.
pub(crate) fn run_cases(
    campaign_seed: u64,
    first: u64,
    cases: u64,
    jobs: usize,
    case: impl Fn(u64, u64) -> Vec<Counterexample> + Sync,
) -> FuzzReport {
    let end = first + cases;
    let next = AtomicU64::new(first);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..cases.min(jobs.max(1) as u64) {
            let (tx, next, case) = (tx.clone(), &next, &case);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= end {
                    break;
                }
                // The receiver outlives the scope, so the send cannot fail.
                let _ = tx.send((i, case(i, trial_seed(campaign_seed, i))));
            });
        }
    });
    drop(tx);
    let mut results: Vec<(u64, Vec<Counterexample>)> = rx.into_iter().collect();
    results.sort_by_key(|r| r.0);
    let mut report = FuzzReport { cases, ..FuzzReport::default() };
    for (_, ces) in results {
        report.clean += u64::from(ces.is_empty());
        report.shrink_steps += ces.iter().map(|ce| ce.shrink_steps).sum::<u64>();
        report.counterexamples.extend(ces);
    }
    report
}

/// Serializes a script as a line-oriented reproducer (`look R` /
/// `move R DIST END`), the format [`script_from_text`] parses back.
pub fn script_to_text(script: &[Vec<Action>]) -> String {
    let mut out = String::new();
    for batch in script {
        for (i, action) in batch.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            match *action {
                Action::Look { robot } => {
                    let _ = write!(out, "look {robot}");
                }
                Action::Move { robot, distance, end_phase } => {
                    let _ = write!(out, "move {robot} {distance} {end_phase}");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parses a reproducer written by [`script_to_text`]; `#` lines are
/// comments.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn script_from_text(text: &str) -> Result<Vec<Vec<Action>>, String> {
    let mut script = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut batch = Vec::new();
        for part in line.split(';') {
            let fields: Vec<&str> = part.split_whitespace().collect();
            let action = match fields.as_slice() {
                ["look", r] => {
                    Action::Look { robot: r.parse().map_err(|e| format!("line {}: {e}", no + 1))? }
                }
                ["move", r, d, e] => Action::Move {
                    robot: r.parse().map_err(|e| format!("line {}: {e}", no + 1))?,
                    distance: d.parse().map_err(|e| format!("line {}: {e}", no + 1))?,
                    end_phase: e.parse().map_err(|e| format!("line {}: {e}", no + 1))?,
                },
                _ => return Err(format!("line {}: unrecognized action {part:?}", no + 1)),
            };
            batch.push(action);
        }
        if !batch.is_empty() {
            script.push(batch);
        }
    }
    Ok(script)
}

/// Writes a counterexample reproducer into `dir`, one file per
/// counterexample: `fuzz-<case>.repro` for the schedule fuzzer,
/// `geo-<case>-<scheduler>.repro` for the geometry fuzzer. A `#` header
/// names the case, seed, family, scheduler, sizes and violations; the
/// `# position I X Y` lines hold the initial positions bit for bit; the
/// shrunk script follows in [`script_to_text`] format.
///
/// # Errors
///
/// I/O errors creating the directory or writing the file.
pub fn dump_counterexample(dir: &Path, ce: &Counterexample) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = match ce.family {
        None => format!("fuzz-{}.repro", ce.case_index),
        Some(_) => format!("geo-{}-{}.repro", ce.case_index, ce.scheduler),
    };
    let path = dir.join(name);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# case {} seed {:#018x} family {} scheduler {}\n\
         # robots: {} (shrunk from {}); script: {} batches (shrunk from {}); {} shrink steps",
        ce.case_index,
        ce.seed,
        ce.family.map_or("none", GeoFamily::label),
        ce.scheduler,
        ce.positions.len(),
        ce.original_robots,
        ce.script.len(),
        ce.original_len,
        ce.shrink_steps
    );
    for v in &ce.violations {
        let _ = writeln!(text, "# violation[{}]: {}", v.kind, v.detail);
    }
    for (i, p) in ce.positions.iter().enumerate() {
        let _ = writeln!(text, "# position {i} {:?} {:?}", p.x, p.y);
    }
    text.push_str(&script_to_text(&ce.script));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_text_round_trips() {
        let script = vec![
            vec![Action::Look { robot: 0 }, Action::Look { robot: 3 }],
            vec![Action::Move { robot: 0, distance: 0.125, end_phase: false }],
            vec![Action::Move { robot: 3, distance: 1.5, end_phase: true }],
        ];
        let text = script_to_text(&script);
        assert_eq!(script_from_text(&text).unwrap(), script);
        assert!(script_from_text("look x").is_err());
        assert!(script_from_text("jump 3").is_err());
        assert_eq!(script_from_text("# comment\n\n").unwrap(), Vec::<Vec<Action>>::new());
    }
}
