//! Nothing kept between Computes changes a run. A world reuses a robot's
//! last coin-free decision while no position has changed, and
//! `FormPattern`'s pattern memo answers every Compute after a robot's first.
//! A world driven by one `FormPattern` leaves the same events, bit for bit,
//! as a world whose algorithm builds a fresh `FormPattern` on every Compute
//! and makes a draw call of no bits first, so that the world reuses none of
//! its decisions.

use apf_core::FormPattern;
use apf_geometry::Point;
use apf_scheduler::{Action, SchedulerKind, ScriptedScheduler};
use apf_sim::{
    BitSource, ComputeError, Decision, Outcome, PhaseKind, RobotAlgorithm, Snapshot, TraceEvent,
    World, WorldConfig,
};
use apf_trace::span::{self, VecSpanSink};
use apf_trace::VecSink;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// `FormPattern` with nothing kept between Computes: a fresh instance per
/// Compute, after a draw call of no bits, which the world never reuses.
struct Fresh;

impl RobotAlgorithm for Fresh {
    fn compute(
        &self,
        snapshot: &Snapshot,
        bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        bits.word(0);
        FormPattern::new().compute(snapshot, bits)
    }

    fn name(&self) -> &'static str {
        FormPattern::new().name()
    }
}

/// `FormPattern`, counting its Computes in `calls`.
struct Counted {
    inner: FormPattern,
    calls: Rc<Cell<u64>>,
}

impl Counted {
    fn new() -> (Self, Rc<Cell<u64>>) {
        let calls = Rc::new(Cell::new(0));
        (Counted { inner: FormPattern::new(), calls: Rc::clone(&calls) }, calls)
    }
}

impl RobotAlgorithm for Counted {
    fn compute(
        &self,
        snapshot: &Snapshot,
        bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        self.calls.set(self.calls.get() + 1);
        self.inner.compute(snapshot, bits)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn build_world(
    alg: Box<dyn RobotAlgorithm>,
    initial: &[Point],
    pattern: &[Point],
    multiplicity_detection: bool,
    scheduler: Box<dyn apf_scheduler::Scheduler>,
    seed: u64,
) -> World {
    let config =
        WorldConfig { randomize_frames: true, multiplicity_detection, ..WorldConfig::default() };
    World::new(initial.to_vec(), pattern.to_vec(), alg, scheduler, config, seed)
}

/// Runs `world` to its end, recording its events.
fn run(mut world: World) -> (Outcome, Vec<TraceEvent>) {
    let sink = Arc::new(Mutex::new(VecSink::new()));
    world.set_sink(Box::new(Arc::clone(&sink)));
    let outcome = world.run(100_000);
    let events = sink.lock().unwrap().events().to_vec();
    (outcome, events)
}

fn assert_reuse_changes_nothing(initial: &[Point], pattern: &[Point], multiplicity: bool) {
    for kind in SchedulerKind::all() {
        let seed = 3;
        let build = |alg| build_world(alg, initial, pattern, multiplicity, kind.build(seed), seed);
        let (kept, kept_events) = run(build(Box::new(FormPattern::new())));
        let (fresh, fresh_events) = run(build(Box::new(Fresh)));
        let fresh_events: Vec<TraceEvent> = fresh_events
            .into_iter()
            .filter(|e| !matches!(e, TraceEvent::RandomWord { bits: 0, .. }))
            .collect();
        assert!(kept_events == fresh_events, "{kind:?}: the event streams differ");
        assert_eq!(kept, fresh, "{kind:?}: the outcomes differ");
        assert!(kept.formed, "{kind:?}: the run must form the pattern to cover every phase");
    }
}

#[test]
fn reuse_keeps_traces_bit_identical_for_a_random_pattern() {
    let initial = apf_patterns::symmetric_configuration(8, 2, 5);
    let pattern = apf_patterns::random_pattern(8, 6);
    assert_reuse_changes_nothing(&initial, &pattern, false);
}

#[test]
fn reuse_keeps_traces_bit_identical_for_a_center_pattern() {
    // Two points at c(F): the F̃ detour and Appendix C's gather step.
    let pattern = apf_patterns::pattern_with_center_points(8, 2, 23);
    let initial = apf_patterns::asymmetric_configuration(8, 5);
    assert_reuse_changes_nothing(&initial, &pattern, true);
}

#[test]
fn reuse_keeps_traces_bit_identical_for_an_election_shape() {
    // The benchmark's election shape: ρ = 4, so every run elects a robot.
    let initial = apf_patterns::symmetric_configuration(12, 4, 7);
    let pattern = apf_patterns::random_pattern(12, 8);
    assert_reuse_changes_nothing(&initial, &pattern, false);
}

#[test]
fn reuse_answers_at_least_the_repeats_the_decision_memo_did() {
    // How many Computes `FormPattern`'s former decision memo, keyed by the
    // exact bits of its last 2·n coin-free snapshots, answered on the
    // election shape above, measured before the world took its place.
    const MEMO_HITS: [(SchedulerKind, u64); 4] = [
        (SchedulerKind::Fsync, 0),
        (SchedulerKind::Ssync, 81),
        (SchedulerKind::Async, 6_172),
        (SchedulerKind::RoundRobin, 310),
    ];
    let initial = apf_patterns::symmetric_configuration(12, 4, 7);
    let pattern = apf_patterns::random_pattern(12, 8);
    for (kind, memo_hits) in MEMO_HITS {
        let (alg, calls) = Counted::new();
        let (outcome, _) =
            run(build_world(Box::new(alg), &initial, &pattern, false, kind.build(3), 3));
        assert!(outcome.formed, "{kind:?}");
        let reused = outcome.metrics.cycles() - calls.get();
        assert!(
            reused >= memo_hits,
            "{kind:?}: {reused} Looks reused, the memo answered {memo_hits}"
        );
    }
}

/// A world on `initial` whose robots act as `script` says, with the spans
/// of each step, one entry per step.
fn scripted_steps(
    alg: Box<dyn RobotAlgorithm>,
    initial: &[Point],
    pattern: &[Point],
    script: Vec<Vec<Action>>,
) -> (World, Vec<Vec<apf_trace::Span>>, Vec<TraceEvent>) {
    let steps = script.len();
    let scheduler = Box::new(ScriptedScheduler::new(script));
    let mut world = build_world(alg, initial, pattern, false, scheduler, 1);
    let sink = Arc::new(Mutex::new(VecSink::new()));
    world.set_sink(Box::new(Arc::clone(&sink)));
    let mut spans = Vec::new();
    for _ in 0..steps {
        let handle: Arc<Mutex<VecSpanSink>> = Arc::default();
        assert!(span::install(Box::new(Arc::clone(&handle))).is_none());
        world.step().unwrap();
        drop(span::take());
        spans.push(std::mem::take(&mut handle.lock().unwrap().spans));
    }
    let events = sink.lock().unwrap().events().to_vec();
    (world, spans, events)
}

/// The `Decide` events of `events`.
fn decisions(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events.iter().filter(|e| matches!(e, TraceEvent::Decide { .. })).copied().collect()
}

#[test]
fn a_repeated_look_in_an_unchanged_world_runs_no_compute() {
    let initial = apf_patterns::asymmetric_configuration(8, 5);
    let pattern = apf_patterns::random_pattern(8, 6);
    let twice = |robot| vec![vec![Action::Look { robot }], vec![Action::Look { robot }]];
    // A robot whose first Look stays, so that it can Look again.
    let robot = (0..initial.len())
        .find(|&r| {
            let (world, ..) =
                scripted_steps(Box::new(FormPattern::new()), &initial, &pattern, twice(r));
            !world.any_pending()
        })
        .expect("some robot stays");
    let (alg, calls) = Counted::new();
    let (world, spans, events) = scripted_steps(Box::new(alg), &initial, &pattern, twice(robot));
    assert_eq!(world.metrics().random_bits(), 0, "the workload must be coin-free");
    assert_eq!((world.metrics().cycles(), calls.get()), (2, 1));
    let labels = |step: &[apf_trace::Span]| step.iter().map(|s| s.label).collect::<Vec<_>>();
    assert!(spans[0].iter().any(|s| s.label.is_kernel()), "the first Look runs the kernels");
    assert_eq!(labels(&spans[1]), [apf_trace::SpanLabel::Look], "the repeat runs no Compute");

    // A world that reuses nothing recomputes the second Look, and decides
    // the same.
    let (_, _, recomputed) = scripted_steps(Box::new(Fresh), &initial, &pattern, twice(robot));
    let reused = decisions(&events);
    assert_eq!(reused.len(), 2);
    assert_eq!(reused, decisions(&recomputed));
}

#[test]
fn a_probe_neither_fills_nor_answers_a_reuse_slot() {
    // A regular 8-ring: every robot's Look is the election's, with a coin.
    let ring = apf_patterns::regular_polygon(8, 1.0, 0.0);
    let pattern = apf_patterns::random_pattern(8, 5);
    let (alg, calls) = Counted::new();
    let look = Box::new(ScriptedScheduler::new(vec![vec![Action::Look { robot: 2 }]]));
    let mut ring_world = build_world(Box::new(alg), &ring, &pattern, false, look, 9);
    ring_world.would_any_move().unwrap();
    let probed = calls.get();
    assert!(probed >= 1);
    ring_world.step().unwrap();
    assert_eq!(calls.get(), probed + 1, "the probe left nothing to reuse");
    assert_eq!(ring_world.metrics().random_bits(), 1, "the real Look flips its own coin");
    assert_eq!(ring_world.metrics().phase(PhaseKind::RsbElection).cycles, 1);

    // A formed configuration: every robot stays, drawing nothing.
    let (alg, calls) = Counted::new();
    let round: Vec<Action> = (0..8).map(|robot| Action::Look { robot }).collect();
    let rounds = Box::new(ScriptedScheduler::new(vec![round; 2]));
    let mut formed = build_world(Box::new(alg), &pattern, &pattern, false, rounds, 9);
    formed.step().unwrap();
    assert_eq!(calls.get(), 8);
    assert!(!formed.would_any_move().unwrap());
    assert_eq!(calls.get(), 16, "the probe computes for every robot");
    formed.step().unwrap();
    assert_eq!(calls.get(), 16, "and leaves the robots' own decisions to reuse");
}
