//! The engine's central guarantee: output is bit-identical for any worker
//! count. Per-trial results AND merged statistics from `--jobs 1` must equal
//! those from `--jobs 4` exactly — including every floating-point digit.

use apf_bench::engine::{
    AlgorithmSpec, Campaign, Engine, RunSpec, StreamingAggregate, PERCENTILE_CAP,
};
use apf_scheduler::SchedulerKind;

fn campaign() -> Campaign {
    let mut c = Campaign::new("determinism", 0xDE7E_4213);
    // A deliberately uneven mix (sizes, schedulers, algorithms) so workers
    // finish chunks out of order and any ordering bug shows.
    c.add_trials(12, |i, _seed| {
        let n = 7 + (i as usize % 3);
        let kind = match i % 3 {
            0 => SchedulerKind::RoundRobin,
            1 => SchedulerKind::Ssync,
            _ => SchedulerKind::Async,
        };
        RunSpec::new(
            apf_patterns::asymmetric_configuration(n, 100 + i),
            apf_patterns::random_pattern(n, 200 + i),
        )
        .scheduler(kind)
        .budget(150_000)
    });
    c.add_trials(4, |i, _seed| {
        RunSpec::new(
            apf_patterns::symmetric_configuration(8, 4, 300 + i),
            apf_patterns::random_pattern(8, 400 + i),
        )
        .scheduler(SchedulerKind::RoundRobin)
        .budget(150_000)
    });
    c.add_trials(2, |i, _seed| {
        RunSpec::new(
            apf_patterns::asymmetric_configuration(8, 500 + i),
            apf_patterns::random_pattern(8, 600 + i),
        )
        .algorithm(AlgorithmSpec::YyStyle)
        .scheduler(SchedulerKind::RoundRobin)
        .budget(150_000)
    });
    c
}

#[test]
fn jobs_1_and_jobs_4_are_bit_identical() {
    let c = campaign();
    let sequential = Engine::new().jobs(1).collect_results(true).run(&c);
    let parallel = Engine::new().jobs(4).collect_results(true).run(&c);

    assert_eq!(sequential.trials, c.len());
    assert_eq!(parallel.trials, c.len());

    // Per-trial results: same values, same order.
    let seq_results = sequential.results.as_ref().expect("collect_results was on");
    let par_results = parallel.results.as_ref().expect("collect_results was on");
    assert_eq!(seq_results.len(), par_results.len());
    for (i, (a, b)) in seq_results.iter().zip(par_results).enumerate() {
        assert_eq!(a, b, "trial {i} differs between jobs=1 and jobs=4");
    }

    // Merged streaming statistics: bitwise identical (PartialEq on f64
    // fields — no tolerance).
    assert_eq!(sequential.stats, parallel.stats);
    assert_eq!(sequential.aggregate(), parallel.aggregate());
}

#[test]
fn repeated_runs_are_reproducible() {
    let c = campaign();
    let engine = Engine::new().jobs(3).collect_results(true);
    let a = engine.run(&c);
    let b = engine.run(&c);
    assert_eq!(a.results, b.results);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn replay_rebuilds_merged_stats_bit_for_bit() {
    // The distributed-merge contract: per-trial results in trial order,
    // refolded through StreamingAggregate::replay, must equal the engine's
    // merged statistics exactly — this is what lets a coordinator merge
    // remote shard results without perturbing a single ulp.
    let c = campaign();
    let report = Engine::new().jobs(4).collect_results(true).run(&c);
    let results = report.results.as_ref().expect("collect_results was on");
    let replayed = StreamingAggregate::replay(results, PERCENTILE_CAP);
    assert_eq!(replayed, report.stats);

    // A thinning-small percentile cap exercises the stride-merge path. The
    // cap thins only the percentile samples: runs, the formed count and
    // every mean stay bit-identical, and the median and p95 it reads are
    // still cycle counts of formed trials.
    let capped = StreamingAggregate::replay(results, 4);
    assert_eq!(capped.formed(), replayed.formed());
    assert_eq!(capped.distance(), replayed.distance());
    let formed_cycles: Vec<f64> =
        results.iter().filter(|r| r.formed).map(|r| r.cycles as f64).collect();
    assert!(formed_cycles.len() > 4, "the cap must thin: {} formed", formed_cycles.len());
    let (mut thin, full) = (capped.to_aggregate(), replayed.to_aggregate());
    assert!(formed_cycles.contains(&thin.median_cycles), "median {}", thin.median_cycles);
    assert!(formed_cycles.contains(&thin.p95_cycles), "p95 {}", thin.p95_cycles);
    // Every other field (runs, success, the means) is bit-identical.
    (thin.median_cycles, thin.p95_cycles) = (full.median_cycles, full.p95_cycles);
    assert_eq!(thin, full);
}

#[test]
fn sharded_slices_concatenate_to_the_full_run() {
    // Shard execution parity: running slices [0,6), [6,7), [7,7), [7,18)
    // and concatenating per-trial outputs in shard order reproduces the
    // full run's results and digests exactly (including an empty shard and
    // a single-trial shard).
    let c = campaign();
    let engine = Engine::new().jobs(2).collect_results(true).trace_digests(true);
    let full = engine.run(&c);
    let mut results = Vec::new();
    let mut digests = Vec::new();
    for (lo, hi) in [(0, 6), (6, 7), (7, 7), (7, c.len())] {
        let shard = engine.run(&c.slice(lo, hi));
        assert_eq!(shard.trials, hi - lo);
        results.extend(shard.results.expect("collect_results was on"));
        digests.extend(shard.digests.expect("trace_digests was on"));
    }
    assert_eq!(Some(&results), full.results.as_ref());
    assert_eq!(Some(&digests), full.digests.as_ref());
    assert_eq!(StreamingAggregate::replay(&results, PERCENTILE_CAP), full.stats);
}

#[test]
fn campaign_seed_changes_trial_outcomes() {
    let mut c1 = Campaign::new("s1", 1);
    let mut c2 = Campaign::new("s2", 2);
    for c in [&mut c1, &mut c2] {
        c.add_trials(4, |i, _seed| {
            RunSpec::new(
                apf_patterns::symmetric_configuration(8, 4, 700 + i),
                apf_patterns::random_pattern(8, 800 + i),
            )
            .scheduler(SchedulerKind::RoundRobin)
            .budget(150_000)
        });
    }
    let e = Engine::new().jobs(2).collect_results(true);
    let r1 = e.run(&c1);
    let r2 = e.run(&c2);
    // Same instances, different campaign seeds → different randomness. (The
    // cycle counts could coincide by luck for one trial, not for all.)
    assert_ne!(r1.results, r2.results);
}
