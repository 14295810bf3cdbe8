//! The pattern memo changes nothing: a world driven by one `FormPattern`,
//! whose memo answers every Look after a robot's first, leaves the same
//! trace, bit for bit, as a world whose algorithm builds a fresh
//! `FormPattern` — and so analyses the pattern from scratch — on every
//! Compute.

use apf_core::FormPattern;
use apf_geometry::Point;
use apf_scheduler::SchedulerKind;
use apf_sim::{
    BitSource, ComputeError, Decision, PhaseKind, RobotAlgorithm, Snapshot, World, WorldConfig,
};
use apf_trace::HashSink;

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
