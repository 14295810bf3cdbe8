//! The headline model claim: **no common chirality, no common North**.
//!
//! Robots observe the world through private frames with random rotation,
//! scale and handedness; the algorithm's global behavior must not depend on
//! them. These tests compare runs with shared vs randomized frames and
//! verify mirror-invariance of the geometric core — each simulation-driving
//! scenario under every scheduler kind (FSYNC, SSYNC, ASYNC).

mod common;

use apf::geometry::{Frame, Point, Tol};
use apf::prelude::*;
use apf::sim::Snapshot;
use apf_sim::{Decision, NullBits, RobotAlgorithm};
use common::for_each_scheduler;

#[test]
fn random_frames_do_not_affect_success() {
    // Frames may legitimately change *which* of two mirror-equivalent
    // choices a robot makes (e.g. the similarity witness used for the final
    // move), so trajectories are not bit-identical — but success, and the
    // fact that the final configuration realizes the pattern, must be
    // frame-independent.
    let initial = apf::patterns::asymmetric_configuration(8, 7);
    let target = apf::patterns::random_pattern(8, 8);
    for_each_scheduler(|kind| {
        for randomize in [false, true] {
            let mut w = SimulationBuilder::new(initial.clone(), target.clone())
                .scheduler(kind)
                .seed(99)
                .randomize_frames(randomize)
                .build()
                .unwrap();
            let o = w.run(2_000_000);
            assert!(o.formed, "randomize_frames={randomize}: {:?}", o.reason);
            assert!(apf::geometry::are_similar(&o.final_positions, &target, &Tol::default()));
        }
    });
}

#[test]
fn every_robot_agrees_under_arbitrary_frames() {
    // For a fixed global configuration, compute each robot's decision under
    // wildly different frames (rotations, scales, mirror) and check that at
    // most the *acting* robot moves — i.e. all frames agree on who acts.
    let pts = apf::patterns::asymmetric_configuration(9, 17);
    let target = apf::patterns::random_pattern(9, 18);
    let alg = apf::core::FormPattern::new();

    let mut movers = Vec::new();
    for me in 0..pts.len() {
        let mut decisions = Vec::new();
        for (rot, scale, mirrored) in
            [(0.0, 1.0, false), (1.1, 0.6, false), (2.7, 1.9, true), (4.0, 1.0, true)]
        {
            let frame = Frame::new(pts[me], rot, scale, mirrored);
            let local: Vec<Point> = pts.iter().map(|&p| frame.to_local(p)).collect();
            let snap = Snapshot::new(local, target.clone(), false, Tol::default());
            let mut bits = NullBits;
            let d = alg.compute(&snap, &mut bits).expect("compute").0;
            // Map a movement decision back to a global destination.
            let dest = match &d {
                Decision::Stay => None,
                Decision::Move(p) => Some(frame.to_global(p.destination())),
            };
            decisions.push(dest);
        }
        // All frames agree on this robot's global action.
        let first = decisions[0];
        for d in &decisions[1..] {
            match (first, d) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(a.approx_eq(*b, &Tol::new(1e-6)), "{a} vs {b} for robot {me}")
                }
                other => panic!("frame-dependent decision for robot {me}: {other:?}"),
            }
        }
        if first.is_some() {
            movers.push(me);
        }
    }
    assert_eq!(movers.len(), 1, "exactly one robot acts in the Qc branch: {movers:?}");
}

#[test]
fn mirrored_world_runs_equivalently() {
    // Mirror the entire instance (initial + pattern): the run must succeed
    // identically — formation is chirality-free end-to-end.
    let initial = apf::patterns::symmetric_configuration(8, 2, 27);
    let target = apf::patterns::random_pattern(8, 28);
    let mirror =
        |pts: &[Point]| -> Vec<Point> { pts.iter().map(|p| Point::new(p.x, -p.y)).collect() };
    for_each_scheduler(|kind| {
        let mut straight = SimulationBuilder::new(initial.clone(), target.clone())
            .scheduler(kind)
            .seed(31)
            .build()
            .unwrap();
        let mut mirrored = SimulationBuilder::new(mirror(&initial), mirror(&target))
            .scheduler(kind)
            .seed(31)
            .build()
            .unwrap();
        let a = straight.run(3_000_000);
        let b = mirrored.run(3_000_000);
        assert!(a.formed && b.formed);
    });
}

#[test]
fn pattern_can_be_formed_as_mirror_image() {
    // The similarity relation ≈ includes reflection: a chiral pattern (no
    // axis of symmetry) may legitimately be formed as its own mirror image.
    let initial = apf::patterns::asymmetric_configuration(8, 37);
    let target = apf::patterns::random_pattern(8, 38);
    for_each_scheduler(|kind| {
        let mut w = SimulationBuilder::new(initial.clone(), target.clone())
            .scheduler(kind)
            .seed(41)
            .build()
            .unwrap();
        let o = w.run(3_000_000);
        assert!(o.formed);
        assert!(apf::geometry::are_similar(&o.final_positions, &target, &Tol::default()));
    });
}
