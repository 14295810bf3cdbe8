//! Property-based tests of the algorithm's per-cycle contract: on any valid
//! snapshot, `compute` succeeds, returns well-formed paths, and is invariant
//! under the observer's frame.

use apf_core::FormPattern;
use apf_geometry::{Frame, Point, Tol};
use apf_sim::{BitSource, CountingBits, Decision, NullBits, RobotAlgorithm, Snapshot};
use proptest::prelude::*;

fn snapshot_for(pts: &[Point], me: usize, pattern: &[Point], frame: &Frame) -> Snapshot {
    let mut f = *frame;
    f.origin = pts[me];
    let local: Vec<Point> = pts.iter().map(|&p| f.to_local(p)).collect();
    Snapshot::new(local, pattern.to_vec(), false, Tol::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compute_succeeds_on_any_valid_instance(
        seed in 0..10_000u64,
        me in 0..8usize,
        sym in any::<bool>(),
        rot in 0.0..std::f64::consts::TAU,
        scale in 0.3..3.0f64,
        mirror in any::<bool>(),
    ) {
        let pts = if sym {
            apf_patterns::symmetric_configuration(8, 4, seed)
        } else {
            apf_patterns::asymmetric_configuration(8, seed)
        };
        let pattern = apf_patterns::random_pattern(8, seed ^ 0xABCD);
        let frame = Frame::new(Point::ORIGIN, rot, scale, mirror);
        let snap = snapshot_for(&pts, me, &pattern, &frame);
        let alg = FormPattern::new();
        let mut bits = CountingBits::new(seed);
        let d = alg.compute(&snap, &mut bits);
        prop_assert!(d.is_ok(), "compute failed: {:?}", d.err());
        if let Ok((Decision::Move(path), _)) = d {
            // Paths start at the observer (local origin) and are finite.
            prop_assert!(path.start().dist(Point::ORIGIN) < 1e-6);
            prop_assert!(path.length().is_finite());
            prop_assert!(path.length() > 0.0);
        }
        // The election draws at most one bit per cycle.
        prop_assert!(bits.bits_drawn() <= 1, "bits = {}", bits.bits_drawn());
    }

    #[test]
    fn at_most_one_mover_in_asymmetric_configs(seed in 0..2_000u64) {
        // ψ_RSB|Qc: exactly one robot (the unique max-view robot) moves.
        let pts = apf_patterns::asymmetric_configuration(8, seed);
        let pattern = apf_patterns::random_pattern(8, seed ^ 0x1234);
        let alg = FormPattern::new();
        let mut movers = 0;
        for me in 0..8 {
            let snap = snapshot_for(&pts, me, &pattern, &Frame::identity());
            let mut bits = NullBits;
            if let Decision::Move(_) = alg.compute(&snap, &mut bits).unwrap().0 {
                movers += 1;
            }
        }
        prop_assert!(movers <= 1, "{movers} movers in a Qc configuration");
    }

    #[test]
    fn election_moves_are_strictly_radial(seed in 0..500u64, me in 0..8usize) {
        // In a regular configuration without a shift, any move produced by
        // the election is radial (preserves the half-line structure —
        // paper Property 2 (M1)) or an on-circle shift-creation arc.
        let pts = apf_patterns::regular_polygon(8, 1.0, (seed as f64) * 0.01);
        let pattern = apf_patterns::random_pattern(8, seed ^ 0x77);
        let snap = snapshot_for(&pts, me, &pattern, &Frame::identity());
        let alg = FormPattern::new();
        let mut bits = CountingBits::new(seed);
        if let Decision::Move(path) = alg.compute(&snap, &mut bits).unwrap().0 {
            // The configuration center in local coordinates.
            let c_local = (Point::ORIGIN - pts[me].to_vector()).to_vector().to_point();
            let r0 = path.start().dist(c_local);
            let r1 = path.destination().dist(c_local);
            let radial = {
                let v1 = path.start() - c_local;
                let v2 = path.destination() - c_local;
                v1.cross(v2).abs() < 1e-9
            };
            let on_circle = (r0 - r1).abs() < 1e-9;
            prop_assert!(radial || on_circle, "move is neither radial nor on-circle");
        }
    }

    #[test]
    fn terminal_configurations_are_silent(seed in 0..1_000u64, me in 0..8usize) {
        // A configuration that already forms F (exactly) orders no moves.
        let pattern = apf_patterns::random_pattern(8, seed);
        // Place robots exactly at a rotated/scaled copy of the pattern.
        let pts: Vec<Point> = pattern
            .iter()
            .map(|p| Point::new(2.0 * p.y + 1.0, -2.0 * p.x + 0.5))
            .collect();
        let snap = snapshot_for(&pts, me, &pattern, &Frame::identity());
        let alg = FormPattern::new();
        let mut bits = NullBits;
        prop_assert_eq!(alg.compute(&snap, &mut bits).unwrap().0, Decision::Stay);
    }
}
