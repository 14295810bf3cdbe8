//! Fuzzer end-to-end: campaigns are jobs-independent and seed-deterministic,
//! planted property violations are caught and shrunk to minimal reproducers,
//! and engine invariant violations flush a crash dump to disk.

use apf_bench::engine::trial_seed;
use apf_conformance::fuzz::replay_violates;
use apf_conformance::geometry_fuzz::run_geo_case;
use apf_conformance::{
    dump_counterexample, fuzz_campaign, script_from_text, script_to_text, FuzzConfig,
    GeoFuzzConfig, GeoOracle,
};
use apf_geometry::{Path, Point};
use apf_scheduler::{Action, PhaseView, Scheduler, ScriptedScheduler};
use apf_sim::{BitSource, ComputeError, Decision, RobotAlgorithm, Snapshot, World, WorldConfig};
use apf_trace::{CrashDumpSink, PhaseKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn quick_cfg() -> FuzzConfig {
    FuzzConfig { script_steps: 100, step_budget: 150_000, ..FuzzConfig::default() }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("apf-fuzz-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn campaign_reports_are_identical_for_any_jobs_value() {
    let cfg = quick_cfg();
    let a = fuzz_campaign(&cfg, 0xC0FFEE, 6, 1);
    let b = fuzz_campaign(&cfg, 0xC0FFEE, 6, 4);
    assert_eq!(a.cases, b.cases);
    assert_eq!(a.clean, b.clean);
    assert_eq!(a.counterexamples.len(), b.counterexamples.len());
    for (x, y) in a.counterexamples.iter().zip(&b.counterexamples) {
        assert_eq!(x.case_index, y.case_index);
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.violations, y.violations);
        assert_eq!(script_to_text(&x.script), script_to_text(&y.script));
    }
}

#[test]
fn ci_smoke_seed_is_clean() {
    // The seed scripts/check.sh gates on: the paper's algorithm survives
    // these adversarial schedules with zero violations.
    let report = fuzz_campaign(&quick_cfg(), 0xC0FFEE, 6, 2);
    assert!(
        report.is_clean(),
        "CI smoke seed found counterexamples: {:?}",
        report.counterexamples.iter().map(|ce| (ce.case_index, &ce.violations)).collect::<Vec<_>>()
    );
}

/// A planted bug: every decision moves while tagged as a terminal phase —
/// the phase-legality property must flag it and the shrinker must cut the
/// schedule down to (nearly) a single activation.
struct TerminalMover;

impl RobotAlgorithm for TerminalMover {
    fn compute(
        &self,
        _snapshot: &Snapshot,
        _bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        let step = Path::straight(Point::ORIGIN, Point::new(1.0, 0.0));
        Ok((Decision::Move(step), PhaseKind::Terminal))
    }

    fn name(&self) -> &'static str {
        "terminal-mover"
    }
}

#[test]
fn planted_phase_violation_is_caught_and_shrunk() {
    let cfg = FuzzConfig {
        robots: 5,
        script_steps: 60,
        step_budget: 200,
        require_formation: false,
        algorithm: || Box::new(TerminalMover),
        ..FuzzConfig::default()
    };
    let report = fuzz_campaign(&cfg, 7, 3, 2);
    assert_eq!(report.clean, 0, "every schedule hits the planted bug");
    assert_eq!(report.counterexamples.len(), 3);
    for ce in &report.counterexamples {
        assert!(
            ce.violations.iter().any(|v| v.kind == "phase-legality"),
            "expected phase-legality, got {:?}",
            ce.violations
        );
        assert!(ce.script.len() <= ce.original_len);
        assert!(
            ce.script.len() <= 2,
            "the minimal reproducer is one Look activation, got {} batches:\n{}",
            ce.script.len(),
            script_to_text(&ce.script)
        );
        // The shrunk script still reproduces when replayed standalone.
        assert!(replay_violates(&cfg, ce.seed, &ce.script, "phase-legality"));
    }
}

/// A planted bug against the paper's headline claim: two coin flips in a
/// single election cycle.
struct GreedyElector;

impl RobotAlgorithm for GreedyElector {
    fn compute(
        &self,
        _snapshot: &Snapshot,
        bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        let _ = bits.bit();
        let _ = bits.bit();
        Ok((Decision::Stay, PhaseKind::RsbElection))
    }

    fn name(&self) -> &'static str {
        "greedy-elector"
    }
}

#[test]
fn planted_two_bit_election_is_caught() {
    let cfg = FuzzConfig {
        robots: 5,
        script_steps: 40,
        step_budget: 120,
        require_formation: false,
        algorithm: || Box::new(GreedyElector),
        ..FuzzConfig::default()
    };
    let report = fuzz_campaign(&cfg, 21, 1, 1);
    assert_eq!(report.counterexamples.len(), 1);
    let ce = &report.counterexamples[0];
    assert!(
        ce.violations.iter().any(|v| v.kind == "election-bits"),
        "expected election-bits, got {:?}",
        ce.violations
    );
    assert!(replay_violates(&cfg, ce.seed, &ce.script, "election-bits"));
}

/// A planted bug: each robot walks to the centroid of its snapshot and
/// rejects a snapshot whose centroid lies within 0.05 of it. The failure is
/// a function of the snapshot alone, as the `RobotAlgorithm` contract
/// requires, and the fuzzed starts put no robot that close, so every
/// schedule reaches it only after some robot has moved.
struct FailsNearCentroid;

impl RobotAlgorithm for FailsNearCentroid {
    fn compute(
        &self,
        snapshot: &Snapshot,
        _bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        let centroid = apf_geometry::weber::centroid(snapshot.robots());
        if centroid.dist(Point::ORIGIN) < 0.05 {
            return Err(ComputeError::new("planted failure near the centroid"));
        }
        Ok((Decision::Move(Path::straight(Point::ORIGIN, centroid)), PhaseKind::Untagged))
    }

    fn name(&self) -> &'static str {
        "fails-near-centroid"
    }
}

#[test]
fn planted_compute_error_reproducers_replay() {
    // The run adds `compute-error` from the world's outcome; the replay
    // must do the same, or the shrinker never accepts a candidate and the
    // reported script fails its own replay.
    let cfg = FuzzConfig {
        require_formation: false,
        algorithm: || Box::new(FailsNearCentroid),
        ..FuzzConfig::default()
    };
    let report = fuzz_campaign(&cfg, 7, 3, 2);
    assert_eq!(report.counterexamples.len(), 3, "every schedule hits the planted bug");
    for ce in &report.counterexamples {
        assert_eq!(ce.violations[0].kind, "compute-error", "{:?}", ce.violations);
        assert!(ce.script.len() <= ce.original_len);
        assert!(
            ce.script.iter().flatten().any(|a| matches!(a, Action::Move { .. })),
            "case {}: the failure needs a Move first",
            ce.case_index
        );
        assert!(
            replay_violates(&cfg, ce.seed, &ce.script, "compute-error"),
            "case {}: the {}-batch reproducer does not replay:\n{}",
            ce.case_index,
            ce.script.len(),
            script_to_text(&ce.script)
        );
    }
}

#[test]
fn every_counterexample_gets_its_own_reproducer_file() {
    // Below Theorem 2's n >= 7 every world run of a geometry case is a
    // compute-error: one counterexample per scheduler, each in its own file
    // whose positions and script parse back exactly.
    let cfg = GeoFuzzConfig { robots: 6, ..GeoFuzzConfig::default() };
    let ces = run_geo_case(&cfg, &GeoOracle::default(), 0, trial_seed(48879, 0));
    assert_eq!(ces.len(), 3, "one counterexample per scheduler");
    let dir = std::env::temp_dir().join(format!("apf-fuzz-repro-{}", std::process::id()));
    let mut paths = Vec::new();
    for ce in &ces {
        let path = dump_counterexample(&dir, ce).expect("reproducer written");
        let text = std::fs::read_to_string(&path).expect("reproducer read back");
        let positions: Vec<(u64, u64)> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# position "))
            .map(|line| {
                let fields: Vec<f64> =
                    line.split_whitespace().skip(1).map(|f| f.parse().unwrap()).collect();
                (fields[0].to_bits(), fields[1].to_bits())
            })
            .collect();
        let expected: Vec<(u64, u64)> =
            ce.positions.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
        assert_eq!(positions, expected, "{}", path.display());
        assert_eq!(script_from_text(&text).unwrap(), ce.script, "{}", path.display());
        assert!(!paths.contains(&path), "{} written twice", path.display());
        paths.push(path);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A scheduler that behaves legally for `fuse` steps, then violates the
/// engine contract by returning an empty batch.
struct TimeBomb {
    fuse: usize,
    rotor: usize,
}

impl Scheduler for TimeBomb {
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
        if self.fuse == 0 {
            return;
        }
        self.fuse -= 1;
        let robot = self.rotor % phases.len();
        self.rotor += 1;
        batch.push(match phases[robot] {
            PhaseView::Idle => Action::Look { robot },
            p @ PhaseView::Pending { .. } => {
                Action::Move { robot, distance: p.remaining(), end_phase: true }
            }
        });
    }

    fn name(&self) -> &'static str {
        "time-bomb"
    }
}

fn crash_world(scheduler: Box<dyn Scheduler>) -> World {
    let initial = apf_patterns::asymmetric_configuration(7, 9);
    let pattern = apf_patterns::random_pattern(7, 10);
    World::new(
        initial,
        pattern,
        Box::new(apf_core::FormPattern::new()),
        scheduler,
        WorldConfig::default(),
        1,
    )
}

#[test]
fn misbehaving_scheduler_flushes_a_crash_dump() {
    let path = temp_path("scheduler-crash");
    std::fs::remove_file(&path).ok();
    let mut world = crash_world(Box::new(TimeBomb { fuse: 5, rotor: 0 }));
    world.set_sink(Box::new(CrashDumpSink::new(&path, 32)));
    let result = catch_unwind(AssertUnwindSafe(|| {
        world.run(20);
    }));
    let err = result.expect_err("an empty batch must be an engine invariant violation");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| (*err.downcast_ref::<&str>().expect("panic payload")).to_string());
    assert!(msg.contains("engine invariant violated"), "{msg}");
    let dump = std::fs::read_to_string(&path).expect("crash dump written before the panic");
    assert!(!dump.trim().is_empty(), "dump holds the last-N event window");
    for line in dump.lines() {
        apf_trace::parse_line(line).expect("dump lines are valid trace JSONL");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_invariant_violation_flushes_a_crash_dump() {
    // The test-only hook exercises the same flush-then-panic path without
    // needing a misbehaving scheduler.
    let path = temp_path("injected-crash");
    std::fs::remove_file(&path).ok();
    let mut world = crash_world(Box::new(ScriptedScheduler::new(Vec::new())));
    world.set_sink(Box::new(CrashDumpSink::new(&path, 32)));
    world.run(5);
    let result = catch_unwind(AssertUnwindSafe(|| {
        world.debug_fail_invariant("injected for the crash-dump test");
    }));
    assert!(result.is_err());
    let dump = std::fs::read_to_string(&path).expect("crash dump written before the panic");
    assert!(!dump.trim().is_empty());
    for line in dump.lines() {
        apf_trace::parse_line(line).expect("dump lines are valid trace JSONL");
    }
    std::fs::remove_file(&path).ok();
}
