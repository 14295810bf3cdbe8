//! The memos change nothing: a world driven by one `FormPattern`, whose
//! pattern memo answers every Look after a robot's first and whose decision
//! memo answers every repeated bit-free snapshot, leaves the same trace, bit
//! for bit, as a world whose algorithm builds a fresh `FormPattern` — and so
//! analyses the pattern and the snapshot anew — on every Compute.
//! A repeat of a snapshot whose Compute drew a coin still draws its own.

use apf_core::FormPattern;
use apf_geometry::{Point, Tol};
use apf_scheduler::SchedulerKind;
use apf_sim::{
    BitSource, ComputeError, CountingBits, Decision, NullBits, PhaseKind, RobotAlgorithm, Snapshot,
    World, WorldConfig,
};
use apf_trace::span::{self, VecSpanSink};
use apf_trace::HashSink;
use std::sync::{Arc, Mutex};

/// `FormPattern` with nothing kept between Computes.
struct Fresh;

impl RobotAlgorithm for Fresh {
    fn compute(
        &self,
        snapshot: &Snapshot,
        bits: &mut dyn BitSource,
    ) -> Result<Decision, ComputeError> {
        FormPattern::new().compute(snapshot, bits)
    }

    fn compute_tagged(
        &self,
        snapshot: &Snapshot,
        bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        FormPattern::new().compute_tagged(snapshot, bits)
    }

    fn name(&self) -> &'static str {
        FormPattern::new().name()
    }
}

/// Runs one world with randomized frames; returns its trace digest and
/// whether it formed the pattern.
fn run(
    alg: Box<dyn RobotAlgorithm>,
    initial: &[Point],
    pattern: &[Point],
    multiplicity_detection: bool,
    kind: SchedulerKind,
    seed: u64,
) -> (u64, bool) {
    let config =
        WorldConfig { randomize_frames: true, multiplicity_detection, ..WorldConfig::default() };
    let mut world =
        World::new(initial.to_vec(), pattern.to_vec(), alg, kind.build(seed), config, seed);
    let sink = HashSink::new();
    let probe = sink.probe();
    world.set_sink(Box::new(sink));
    let outcome = world.run(100_000);
    (probe.digest(), outcome.formed)
}

fn assert_memo_changes_nothing(initial: &[Point], pattern: &[Point], multiplicity: bool) {
    for kind in SchedulerKind::all() {
        let seed = 3;
        let memo = run(Box::new(FormPattern::new()), initial, pattern, multiplicity, kind, seed);
        let fresh = run(Box::new(Fresh), initial, pattern, multiplicity, kind, seed);
        assert_eq!(memo, fresh, "{kind:?}: (digest, formed) differ");
        assert!(memo.1, "{kind:?}: the run must form the pattern to cover every phase");
    }
}

#[test]
fn memo_keeps_traces_bit_identical_for_a_random_pattern() {
    let initial = apf_patterns::symmetric_configuration(8, 2, 5);
    let pattern = apf_patterns::random_pattern(8, 6);
    assert_memo_changes_nothing(&initial, &pattern, false);
}

#[test]
fn memo_keeps_traces_bit_identical_for_a_center_pattern() {
    // Two points at c(F): the F̃ detour and Appendix C's gather step.
    let pattern = apf_patterns::pattern_with_center_points(8, 2, 23);
    let initial = apf_patterns::asymmetric_configuration(8, 5);
    assert_memo_changes_nothing(&initial, &pattern, true);
}

#[test]
fn memo_keeps_traces_bit_identical_for_an_election_shape() {
    // The benchmark's election shape: ρ = 4, so every run elects a robot.
    let initial = apf_patterns::symmetric_configuration(12, 4, 7);
    let pattern = apf_patterns::random_pattern(12, 8);
    assert_memo_changes_nothing(&initial, &pattern, false);
}

/// The snapshot of robot `me` of `points`, translated to put it at the
/// origin.
fn snapshot_of(points: &[Point], me: usize, pattern: Vec<Point>) -> Snapshot {
    let off = points[me];
    let local: Vec<Point> = points.iter().map(|&p| (p - off).to_point()).collect();
    Snapshot::new(local, pattern, false, Tol::default())
}

#[test]
fn a_probe_with_null_bits_does_not_answer_a_real_election_compute() {
    // A regular 8-ring observed by a closest member: the election's coin.
    let ring = apf_patterns::regular_polygon(8, 1.0, 0.0);
    let snap = snapshot_of(&ring, 2, apf_patterns::random_pattern(8, 5));
    let alg = FormPattern::new();
    let (_, probed) = alg.compute_tagged(&snap, &mut NullBits).unwrap();
    assert_eq!(probed, PhaseKind::RsbElection);
    let mut bits = CountingBits::new(9);
    let (_, phase) = alg.compute_tagged(&snap, &mut bits).unwrap();
    assert_eq!(phase, PhaseKind::RsbElection);
    assert_eq!(bits.bits_drawn(), 1, "the real Compute flips its own coin");
}

#[test]
fn a_repeated_bit_free_snapshot_runs_no_kernel() {
    let initial = apf_patterns::asymmetric_configuration(8, 5);
    let snap = snapshot_of(&initial, 0, apf_patterns::random_pattern(8, 6));
    let alg = FormPattern::new();
    let handle: Arc<Mutex<VecSpanSink>> = Arc::default();
    assert!(span::install(Box::new(Arc::clone(&handle))).is_none());
    let mut bits = CountingBits::new(1);
    let first = alg.compute_tagged(&snap, &mut bits).unwrap();
    let after_first = handle.lock().unwrap().spans.len();
    let second = alg.compute_tagged(&snap, &mut bits).unwrap();
    drop(span::take());
    let spans = std::mem::take(&mut handle.lock().unwrap().spans);
    assert_eq!(bits.bits_drawn(), 0, "the workload must be bit-free");
    assert!(
        spans[..after_first].iter().any(|s| s.label.is_kernel()),
        "the first Compute runs the kernels"
    );
    assert!(spans[after_first..].is_empty(), "the repeat recorded {:?}", &spans[after_first..]);
    assert_eq!(first, second);
}
