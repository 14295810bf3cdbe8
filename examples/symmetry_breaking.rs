//! The probabilistic election in action: start from a rotationally
//! symmetric configuration (`ρ(I) = 4`) — a situation in which *no
//! deterministic algorithm can form an asymmetric pattern* — and watch the
//! single-random-bit election break the symmetry.
//!
//! ```text
//! cargo run --release --example symmetry_breaking
//! ```

use apf::core::analysis::Analysis;
use apf::core::PatternMemo;
use apf::geometry::{Point, Tol};
use apf::prelude::*;
use apf::sim::Snapshot;

fn main() {
    let n = 8;
    let initial = apf::patterns::symmetric_configuration(n, 4, 2024);
    let target = apf::patterns::random_pattern(n, 99);

    {
        let cfg = Configuration::new(initial.clone());
        let tol = Tol::default();
        let rho = apf::geometry::symmetry::symmetricity(&cfg, cfg.sec().center, &tol);
        println!("initial symmetricity rho(I) = {rho} (deterministically unbreakable)");
    }

    let mut world = SimulationBuilder::new(initial, target.clone())
        .scheduler(SchedulerKind::RoundRobin)
        .seed(7)
        .record_trace(true)
        .build()
        .expect("valid instance");

    let outcome = world.run(2_000_000);
    assert!(outcome.formed);

    // Post-hoc: find the first configuration of the trace with a selected
    // robot (the election's finish line).
    let mut selected_at = None;
    let memo = PatternMemo::default();
    for (t, cfg) in world.trace().iter().enumerate() {
        let local: Vec<Point> = cfg.iter().map(|&p| (p - cfg[0]).to_point()).collect();
        let snap = Snapshot::new(local, target.clone(), false, Tol::default());
        if let Ok(a) = Analysis::new(&snap, &memo) {
            if a.selected().is_some() {
                selected_at = Some(t);
                break;
            }
        }
    }
    println!(
        "election won at engine step {:?} of {}; {} random bits drawn in total ({:.3} per cycle)",
        selected_at,
        outcome.metrics.steps,
        outcome.metrics.random_bits(),
        outcome.metrics.bits_per_cycle()
    );
    println!("pattern formed = {} after {} cycles", outcome.formed, outcome.metrics.cycles());
}
