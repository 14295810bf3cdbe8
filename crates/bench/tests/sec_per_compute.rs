//! Similarity tests reject most candidate sets before Welzl: on the
//! benchmark's direct shapes, a profiled campaign opens at most
//! [`SEC_PER_COMPUTE`] `sec` spans per `compute` span.
//!
//! Each Compute tests `P ≈ F`, and its completion check tests `P − {r} ≈
//! F′` for the robots its radius screen keeps. Without the centroid-spread
//! screen in `SimilarityTarget::match_set`, each of those tests runs Welzl
//! before it can fail, about five per Compute on these shapes; with it, a
//! little over one.

use apf_bench::engine::{Campaign, Engine, RunSpec};
use apf_scheduler::SchedulerKind::{self, Fsync, RoundRobin, Ssync};
use apf_trace::SpanLabel;

/// The most `sec` spans a campaign may open per `compute` span.
const SEC_PER_COMPUTE: f64 = 2.0;

/// Two jobs' worth of trials of the benchmark's `direct-formation` or
/// `direct-election` shapes: (robots, symmetricity, scheduler), with 1 an
/// asymmetric start.
fn campaign(name: &str, shapes: [(usize, usize, SchedulerKind); 4]) -> Campaign {
    let mut c = Campaign::new(name, 29);
    c.add_trials(8, |i, _seed| {
        let (n, rho, kind) = shapes[i as usize % shapes.len()];
        let initial = if rho > 1 {
            apf_patterns::symmetric_configuration(n, rho, 500 + i)
        } else {
            apf_patterns::asymmetric_configuration(n, 500 + i)
        };
        RunSpec::new(initial, apf_patterns::random_pattern(n, 1500 + i))
            .scheduler(kind)
            .budget(5_000)
    });
    c
}

/// `sec` spans per `compute` span over `c`'s profiled run.
fn sec_per_compute(c: &Campaign) -> f64 {
    let report = Engine::new().jobs(2).profile_spans(true).run(c);
    assert_eq!(report.stats.formed(), c.len() as u64, "every {} trial forms", c.name());
    let profile = report.profile.expect("profile requested");
    let count = |label| profile.label(label).map_or(0, |stats| stats.count());
    count(SpanLabel::Sec) as f64 / count(SpanLabel::Compute) as f64
}

#[test]
fn formation_and_election_shapes_run_few_welzl_per_compute() {
    let formation = sec_per_compute(&campaign(
        "formation",
        [(20, 1, Ssync), (16, 1, Ssync), (16, 1, Fsync), (16, 1, Fsync)],
    ));
    let election = sec_per_compute(&campaign(
        "election",
        [(12, 4, RoundRobin), (12, 4, RoundRobin), (9, 3, RoundRobin), (8, 4, RoundRobin)],
    ));
    assert!(
        formation <= SEC_PER_COMPUTE && election <= SEC_PER_COMPUTE,
        "sec spans per compute span: formation {formation:.2}, election {election:.2}; \
         at most {SEC_PER_COMPUTE}"
    );
}
