//! `World::run(budget)` repeats no formation check while the positions are
//! those of the last failed one. It must stop exactly where a loop that
//! checks `is_formed()` before every `step()` stops, with the same outcome:
//! steps, stop reason, metrics and final positions, bit for bit.

use apf_core::FormPattern;
use apf_geometry::{Frame, Point};
use apf_scheduler::SchedulerKind::{self, Async, Fsync, RoundRobin, Ssync};
use apf_sim::{Metrics, StopReason, World, WorldConfig};

/// Robots, symmetricity (1 = asymmetric start), scheduler and seed.
type Shape = (usize, usize, SchedulerKind, u64);

fn build(initial: Vec<Point>, pattern: Vec<Point>, kind: SchedulerKind, seed: u64) -> World {
    World::new(
        initial,
        pattern,
        Box::new(FormPattern::new()),
        kind.build(seed),
        WorldConfig::default(),
        seed,
    )
}

fn world((n, rho, kind, seed): Shape) -> World {
    let initial = if rho > 1 {
        apf_patterns::symmetric_configuration(n, rho, seed)
    } else {
        apf_patterns::asymmetric_configuration(n, seed)
    };
    build(initial, apf_patterns::random_pattern(n, seed + 1), kind, seed)
}

/// What a run ends with: steps and metrics, stop reason, and the final
/// positions' bits.
type Ending = (Metrics, StopReason, Vec<(u64, u64)>);

fn bits(positions: &[Point]) -> Vec<(u64, u64)> {
    positions.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
}

fn by_run(mut world: World, budget: u64) -> Ending {
    let outcome = world.run(budget);
    assert_eq!(outcome.formed, outcome.reason == StopReason::Formed);
    (outcome.metrics, outcome.reason, bits(&outcome.final_positions))
}

/// The reference: `is_formed()` before every step and after the last.
fn by_checking_every_step(mut world: World, budget: u64) -> Ending {
    let mut reason = None;
    for _ in 0..budget {
        if world.is_formed() {
            reason = Some(StopReason::Formed);
            break;
        }
        if let Err(e) = world.step() {
            reason = Some(StopReason::AlgorithmError(e));
            break;
        }
    }
    let reason = reason.unwrap_or(if world.is_formed() {
        StopReason::Formed
    } else {
        StopReason::StepBudget
    });
    (world.metrics(), reason, bits(world.positions()))
}

fn assert_same(make: impl Fn() -> World, budget: u64, what: &str) -> Ending {
    let ending = by_run(make(), budget);
    assert_eq!(ending, by_checking_every_step(make(), budget), "{what}, budget {budget}");
    ending
}

#[test]
fn run_ends_as_a_loop_checking_every_step() {
    let shapes: [Shape; 6] = [
        (12, 4, RoundRobin, 11),
        (9, 3, RoundRobin, 12),
        (20, 1, Ssync, 13),
        (16, 1, Fsync, 14),
        (8, 1, Async, 15),
        (8, 4, Async, 16),
    ];
    for shape in shapes {
        let what = format!("{shape:?}");
        let (metrics, reason, _) = assert_same(|| world(shape), 5_000, &what);
        assert_eq!(reason, StopReason::Formed, "{what} did not form");
        // Formed by its last Move: the check after the loop sees it; one
        // step less runs out of budget.
        let steps = metrics.steps;
        assert_eq!(assert_same(|| world(shape), steps, &what).1, StopReason::Formed);
        assert_eq!(assert_same(|| world(shape), steps - 1, &what).1, StopReason::StepBudget);
    }
}

#[test]
fn a_world_formed_at_construction_stops_before_its_first_step() {
    let pattern = apf_patterns::random_pattern(9, 3);
    // `F` under a mirrored similarity.
    let place = Frame::new(Point::new(2.0, -1.0), 0.7, 1.5, true);
    let initial: Vec<Point> = pattern.iter().map(|&p| place.to_global(p)).collect();
    for kind in [RoundRobin, Ssync, Fsync, Async] {
        let make = || build(initial.clone(), pattern.clone(), kind, 5);
        assert!(make().is_formed());
        for budget in [0, 1, 100] {
            let (metrics, reason, _) = assert_same(make, budget, &format!("{kind:?}"));
            assert_eq!((metrics.steps, reason), (0, StopReason::Formed));
        }
    }
}
