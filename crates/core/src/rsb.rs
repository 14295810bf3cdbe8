//! `ψ_RSB` — the randomized symmetry-breaking algorithm (Section 3).
//!
//! Goal: starting from any configuration without a selected robot, reach a
//! configuration with a *selected* robot (strictly closest to the center by
//! a factor 2 and inside `D(l_F/2)`), using one random bit per robot per
//! cycle.
//!
//! Two sub-algorithms with disjoint active sets:
//!
//! * `ψ_RSB|Q` — the configuration contains a (possibly shifted) regular
//!   set: a probabilistic *election* among the members closest to the
//!   center (each flips one fair coin per activation: step toward or away
//!   from the center), followed by a deterministic "shift protocol" on the
//!   elected robot's circle that announces each stage of the descent
//!   (ε = 1/8: members, descend to my circle; ε = 1/4: I am descending to
//!   become selected);
//! * `ψ_RSB|Qc` — no regular structure: the configuration is asymmetric, so
//!   the unique maximal-view robot deterministically descends toward the
//!   center until it is selected.
//!
//! # Engineering notes (documented deviations)
//!
//! * `handlePartiallyFormedPattern` (Appendix A) guards against the election
//!   accidentally completing the pattern with `n−1` robots. Our workload
//!   generators never produce configurations in that corner, and the main
//!   dispatch already checks the "pattern-minus-one" exit condition first,
//!   so the pre-phase is omitted (see DESIGN.md).
//! * In `ψ_RSB|Qc` the paper stops `r_max` at the first point of
//!   `[r_max, c(P))` where the whole configuration would become regular.
//!   Radial movement never changes half-line structure around `c(P)`, so
//!   such a point can only exist for regularity around *other* centers — a
//!   measure-zero event under our generators; `r_max` descends directly to
//!   the selected radius.

use crate::analysis::Analysis;
use apf_geometry::angle::signed_angle_diff;
use apf_geometry::{path, Point, PolarPoint};
use apf_sim::{BitSource, ComputeError, Decision, PhaseKind};

/// Fraction of the feasible radius the descending robot targets: must leave
/// it strictly inside `D(l_F/2)` and strictly alone in `D(2|r|)`.
const SELECTED_RADIUS_FACTOR: f64 = 0.4;

/// Runs one activation of `ψ_RSB` for the observer.
///
/// The returned [`PhaseKind`] names the sub-phase that produced the
/// decision: [`PhaseKind::RsbShift`] for the shift protocol,
/// [`PhaseKind::RsbElected`]/[`PhaseKind::RsbElection`] inside `ψ_RSB|Q`,
/// and [`PhaseKind::RsbAsymmetric`] for the deterministic `ψ_RSB|Qc`
/// descent. Only the election ever draws randomness — the inspector checks
/// its cycles against the paper's one-bit bound.
///
/// # Errors
///
/// Returns [`ComputeError`] if the configuration is outside every branch's
/// domain (no regular structure *and* no unique maximal-view robot) — by
/// Property 1 this cannot happen for valid inputs.
pub fn select_a_robot(
    a: &Analysis,
    bits: &mut dyn BitSource,
) -> Result<(Decision, PhaseKind), ComputeError> {
    if let Some(shifted) = a.shifted() {
        return Ok((act_shifted(a, shifted), PhaseKind::RsbShift));
    }
    if let Some(regular) = a.regular() {
        return act_regular(a, regular, bits);
    }
    Ok((act_asymmetric(a)?, PhaseKind::RsbAsymmetric))
}

/// The configuration contains an ε-shifted regular set: drive the shift
/// protocol forward.
fn act_shifted(a: &Analysis, sh: &apf_geometry::symmetry::ShiftedRegularSet) -> Decision {
    let tol = &a.tol;
    let c = sh.center;
    let re = sh.shifted_robot;
    let my_pos = a.my_pos();

    // Members (other than the shifted robot) that are farther out than the
    // shifted robot's circle.
    let s: Vec<usize> = sh
        .indices
        .iter()
        .copied()
        .filter(|&i| i != re && tol.gt(a.config.point(i).dist(c), sh.min_radius))
        .collect();

    let eps_is = |target: f64| (sh.epsilon - target).abs() <= 1e-3;

    if !s.is_empty() && !eps_is(0.125) {
        // Stage 1: the shifted robot tunes its shift to exactly 1/8.
        if a.me == re {
            return rotate_to_shift(a, sh, 0.125);
        }
        return Decision::Stay;
    }
    if !s.is_empty() && eps_is(0.125) {
        // Stage 2: outer members descend radially to the shifted robot's
        // circle.
        if s.contains(&a.me) {
            let p = path::radial_to(c, my_pos, sh.min_radius);
            return Decision::Move(a.denormalize_path(&p));
        }
        return Decision::Stay;
    }
    // All members are on the shifted robot's circle.
    if sh.epsilon < 0.25 - 1e-3 {
        // Stage 3: announce the descent by widening the shift to 1/4.
        if a.me == re {
            return rotate_to_shift(a, sh, 0.25);
        }
        return Decision::Stay;
    }
    // Stage 4: descend radially toward the center until selected.
    if a.me == re {
        let others_min = (0..a.n())
            .filter(|&i| i != re)
            .map(|i| a.config.point(i).dist(c))
            .fold(f64::INFINITY, f64::min);
        let target = SELECTED_RADIUS_FACTOR * a.pattern.l_f().min(others_min);
        let my_r = my_pos.dist(c);
        if my_r > target + tol.eps {
            let p = path::radial_to(c, my_pos, target);
            return Decision::Move(a.denormalize_path(&p));
        }
    }
    Decision::Stay
}

/// Rotates the shifted robot on its circle so that its shift becomes exactly
/// `target` (in units of `α_min(P')`).
fn rotate_to_shift(
    a: &Analysis,
    sh: &apf_geometry::symmetry::ShiftedRegularSet,
    target: f64,
) -> Decision {
    let c = sh.center;
    let my_pos = a.my_pos();
    let my_angle = PolarPoint::from_cartesian(my_pos, c).angle;
    let assoc_angle = PolarPoint::from_cartesian(sh.associated_position, c).angle;
    // Signed current shift: positive when the robot is CCW of its slot.
    let sigma = signed_angle_diff(assoc_angle, my_angle);
    // α_min(P') recovered from the detected ε (ε = |σ| / α_min(P')).
    let alpha_min = sigma.abs() / sh.epsilon;
    let target_abs = target * alpha_min;
    let desired = sigma.signum() * target_abs;
    let delta = desired - sigma;
    if delta.abs() <= a.tol.angle_eps {
        return Decision::Stay;
    }
    let p = path::rotate_on_circle(c, my_pos, delta);
    Decision::Move(a.denormalize_path(&p))
}

/// The configuration contains an (unshifted) regular set: run the
/// probabilistic election among its members.
fn act_regular(
    a: &Analysis,
    q: &apf_geometry::symmetry::RegularSet,
    bits: &mut dyn BitSource,
) -> Result<(Decision, PhaseKind), ComputeError> {
    let tol = &a.tol;
    let c = q.center;
    if !q.indices.contains(&a.me) {
        // Non-members hold still during the election.
        return Ok((Decision::Stay, PhaseKind::RsbElection));
    }
    let my_pos = a.my_pos();
    let my_r = my_pos.dist(c);
    let members_min = q
        .indices
        .iter()
        .copied()
        .filter(|&i| i != a.me)
        .map(|i| a.config.point(i).dist(c))
        .fold(f64::INFINITY, f64::min);

    if my_r < 0.875 * members_min {
        // I am elected and aware of it: create a 1/8-shifted regular set by
        // moving on my circle toward my angularly nearest neighbor.
        return Ok((create_shift(a, c), PhaseKind::RsbElected));
    }
    if tol.lt(members_min, my_r) {
        // Someone is strictly closer: wait.
        return Ok((Decision::Stay, PhaseKind::RsbElection));
    }
    // I am among the closest members: flip the cycle's coin.
    let d = (0..a.n())
        .filter(|&i| !q.indices.contains(&i))
        .map(|i| a.config.point(i).dist(c))
        .fold(f64::INFINITY, f64::min);
    let decision = if bits.bit() {
        // Toward the center by |r|/8.
        let p = path::radial_to(c, my_pos, my_r * (1.0 - 0.125));
        Decision::Move(a.denormalize_path(&p))
    } else {
        // Away by min((d − |r|)/2, |r|/7) — possibly a null move. Unlike the
        // paper's exact-arithmetic robots, we additionally keep members a
        // *macroscopic* margin below the innermost non-member circle `d`:
        // the paper's halving alone converges below the tolerance in a few
        // dozen flips, after which members and non-members become
        // radius-indistinguishable and set detection misreads membership.
        let ceiling = if d.is_finite() { 0.9 * d } else { f64::INFINITY };
        let away = if d.is_finite() {
            ((d - my_r) / 2.0).min(my_r / 7.0).min(ceiling - my_r)
        } else {
            my_r / 7.0
        };
        if away <= tol.eps {
            return Ok((Decision::Stay, PhaseKind::RsbElection));
        }
        let p = path::radial_to(c, my_pos, my_r + away);
        Decision::Move(a.denormalize_path(&p))
    };
    Ok((decision, PhaseKind::RsbElection))
}

/// The elected robot moves on its circle by `α_min(P)/8` toward its
/// angularly nearest half-line, creating a 1/8-shifted regular set.
fn create_shift(a: &Analysis, c: Point) -> Decision {
    let my_pos = a.my_pos();
    let my_angle = PolarPoint::from_cartesian(my_pos, c).angle;
    // Signed angular distances to every other robot's half-line.
    let mut nearest: Option<f64> = None; // signed diff to the nearest
    let mut alpha_min = f64::INFINITY;
    for i in 0..a.n() {
        if i == a.me {
            continue;
        }
        let other = PolarPoint::from_cartesian(a.config.point(i), c);
        if a.tol.is_zero(other.radius) {
            continue;
        }
        let d = signed_angle_diff(my_angle, other.angle);
        if d.abs() <= a.tol.angle_eps {
            continue; // same half-line
        }
        if d.abs() < alpha_min {
            alpha_min = d.abs();
            nearest = Some(d);
        }
    }
    let Some(nearest) = nearest else { return Decision::Stay };
    let delta = nearest.signum() * alpha_min / 8.0;
    let p = path::rotate_on_circle(c, my_pos, delta);
    Decision::Move(a.denormalize_path(&p))
}

/// `ψ_RSB|Qc`: no regular structure — the unique maximal-view robot descends
/// toward the center until it is selected.
fn act_asymmetric(a: &Analysis) -> Result<Decision, ComputeError> {
    let views = a.views();
    // Maximal view among robots that do not hold C(P).
    let holders = a.config.sec_holders(&a.tol);
    let eligible: Vec<usize> = (0..a.n()).filter(|&i| !holders[i]).collect();
    if eligible.is_empty() {
        return Err(ComputeError::new(
            "every robot holds C(P); asymmetric descent has no candidate",
        ));
    }
    let rmax = *eligible
        .iter()
        .max_by(|&&x, &&y| views.view(x).cmp(views.view(y)))
        // apf-lint: allow(panic-policy) — guarded by the eligible.is_empty() error above
        .expect("eligible is non-empty");
    // Uniqueness of the maximum among eligible robots.
    let max_count = eligible.iter().filter(|&&i| views.view(i) == views.view(rmax)).count();
    if max_count != 1 {
        return Err(ComputeError::new(
            "no unique maximal view in an allegedly asymmetric configuration",
        ));
    }
    if a.me != rmax {
        return Ok(Decision::Stay);
    }
    let my_pos = a.my_pos();
    let my_r = my_pos.dist(Point::ORIGIN);
    let others_min =
        (0..a.n()).filter(|&i| i != a.me).map(|i| a.radius(i)).fold(f64::INFINITY, f64::min);
    let target = SELECTED_RADIUS_FACTOR * a.pattern.l_f().min(others_min);
    if my_r <= target + a.tol.eps {
        return Ok(Decision::Stay);
    }
    let p = path::radial_to(Point::ORIGIN, my_pos, target);
    Ok(Decision::Move(a.denormalize_path(&p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternMemo;
    use apf_geometry::Tol;
    use apf_sim::{CountingBits, NullBits, Snapshot};
    use std::f64::consts::TAU;

    fn ring(n: usize, r: f64, phase: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = TAU * i as f64 / n as f64 + phase;
                Point::new(r * a.cos(), r * a.sin())
            })
            .collect()
    }

    /// Builds an analysis with the observer being robot `me` (positions are
    /// translated so the observer sits at the local origin).
    fn analysis_for(points: &[Point], me: usize, pattern: Vec<Point>) -> Analysis {
        let off = points[me];
        let local: Vec<Point> = points.iter().map(|&p| (p - off).to_point()).collect();
        let snap = Snapshot::new(local, pattern, false, Tol::default());
        let a = Analysis::new(&snap, &PatternMemo::default()).unwrap();
        assert_eq!(a.me, me);
        a
    }

    fn pattern7() -> Vec<Point> {
        apf_patterns::random_pattern(7, 1)
    }

    #[test]
    fn asymmetric_branch_moves_only_rmax() {
        let pts = apf_patterns::asymmetric_configuration(7, 3);
        // Identify rmax by running the branch for every robot: exactly one
        // robot moves.
        let mut movers = 0;
        for me in 0..7 {
            let a = analysis_for(&pts, me, pattern7());
            assert!(a.regular().is_none() && a.shifted().is_none(), "workload must be in Qc");
            let mut bits = NullBits;
            let (decision, phase) = select_a_robot(&a, &mut bits).unwrap();
            assert_eq!(phase, PhaseKind::RsbAsymmetric);
            match decision {
                Decision::Move(_) => movers += 1,
                Decision::Stay => {}
            }
        }
        assert_eq!(movers, 1);
    }

    #[test]
    fn asymmetric_descent_reaches_selected() {
        let pts = apf_patterns::asymmetric_configuration(8, 11);
        // Find the mover and apply its full path; afterwards a selected
        // robot must exist.
        let mut current = pts.clone();
        for _ in 0..4 {
            let mut moved = false;
            for me in 0..current.len() {
                let a = analysis_for(
                    &current,
                    me,
                    pattern7().into_iter().chain([Point::new(0.9, 0.9)]).collect(),
                );
                if a.selected().is_some() {
                    return; // done
                }
                let mut bits = NullBits;
                if let (Decision::Move(p), _) = select_a_robot(&a, &mut bits).unwrap() {
                    // p is in the observer's local frame = global translated
                    // by -current[me]; map destination back to global.
                    let dest = p.destination();
                    current[me] = (dest.to_vector() + current[me].to_vector()).to_point();
                    moved = true;
                    break;
                }
            }
            assert!(moved, "descent must make progress");
        }
        // After at most a few full moves, selected must exist.
        let a = analysis_for(
            &current,
            0,
            pattern7().into_iter().chain([Point::new(0.9, 0.9)]).collect(),
        );
        assert!(a.selected().is_some(), "selected robot expected after descent");
    }

    #[test]
    fn election_flips_exactly_one_bit_per_closest_member() {
        let pts = ring(8, 1.0, 0.0);
        let a = analysis_for(&pts, 2, apf_patterns::random_pattern(8, 5));
        assert!(a.regular().is_some());
        let mut bits = CountingBits::new(9);
        let (_, phase) = select_a_robot(&a, &mut bits).unwrap();
        assert_eq!(phase, PhaseKind::RsbElection);
        assert_eq!(bits.bits_drawn(), 1, "one random bit per election cycle");
    }

    #[test]
    fn election_moves_are_radial() {
        let pts = ring(8, 1.0, 0.3);
        for seed in 0..8u64 {
            let a = analysis_for(&pts, 0, apf_patterns::random_pattern(8, 5));
            let mut bits = CountingBits::new(seed);
            if let (Decision::Move(p), _) = select_a_robot(&a, &mut bits).unwrap() {
                // The move must stay on the robot's half-line from the
                // center: start, end and center are collinear.
                let start = p.start();
                let end = p.destination();
                // Local frame: the configuration center is at -pts[0] in
                // local coordinates (observer at origin).
                let c_local = (Point::ORIGIN - pts[0].to_vector()).to_vector().to_point();
                let v1 = start - c_local;
                let v2 = end - c_local;
                assert!(v1.cross(v2).abs() < 1e-9, "radial move expected");
            }
        }
    }

    #[test]
    fn elected_robot_creates_shift() {
        // Ring of 8 with robot 0 pulled inward far enough to be elected.
        let mut pts = ring(8, 1.0, 0.0);
        pts[0] = Point::new(0.6, 0.0);
        let a = analysis_for(&pts, 0, apf_patterns::random_pattern(8, 5));
        assert!(a.regular().is_some(), "radius-perturbed ring keeps its regular set");
        let mut bits = NullBits;
        let (d, phase) = select_a_robot(&a, &mut bits).unwrap();
        assert_eq!(phase, PhaseKind::RsbElected);
        match d {
            Decision::Move(p) => {
                // The move is on the robot's circle: constant distance to the
                // center.
                let c_local = (Point::ORIGIN - pts[0].to_vector()).to_vector().to_point();
                let r0 = p.start().dist(c_local);
                let r1 = p.destination().dist(c_local);
                assert!((r0 - r1).abs() < 1e-9, "shift creation moves on the circle");
                assert!(p.length() > 1e-6);
            }
            Decision::Stay => panic!("elected robot must create the shift"),
        }
    }

    #[test]
    fn shifted_members_descend_at_one_eighth() {
        // Build a 1/8-shifted 8-set where members are on a larger circle
        // than the shifted robot.
        let alpha = TAU / 8.0;
        let mut pts: Vec<Point> = (0..8)
            .map(|i| {
                let mut ang = alpha * i as f64;
                let r = if i == 0 { 0.6 } else { 1.0 };
                if i == 0 {
                    ang += alpha / 8.0;
                }
                Point::new(r * ang.cos(), r * ang.sin())
            })
            .collect();
        // Nudge nothing else; robot 0 is shifted by ε = 1/8 (α_min = α here).
        let pattern = apf_patterns::random_pattern(8, 6);
        // A member (robot 3) should descend radially to radius 0.6.
        let a = analysis_for(&pts, 3, pattern.clone());
        let sh = a.shifted().expect("shifted set expected");
        assert_eq!(sh.shifted_robot, 0);
        assert!((sh.epsilon - 0.125).abs() < 1e-2, "epsilon = {}", sh.epsilon);
        let mut bits = NullBits;
        match select_a_robot(&a, &mut bits).unwrap() {
            (Decision::Move(p), phase) => {
                assert_eq!(phase, PhaseKind::RsbShift);
                let c_local = (Point::ORIGIN - pts[3].to_vector()).to_vector().to_point();
                assert!((p.destination().dist(c_local) - 0.6).abs() < 1e-6);
            }
            (Decision::Stay, _) => panic!("member must descend"),
        }
        // The shifted robot itself stays during stage 2.
        let a0 = analysis_for(&pts, 0, pattern.clone());
        let mut bits0 = NullBits;
        assert_eq!(select_a_robot(&a0, &mut bits0).unwrap().0, Decision::Stay);

        // Once everyone is on the same circle, the shifted robot widens the
        // shift toward 1/4.
        for p in pts.iter_mut().skip(1) {
            *p = Point::new(p.x * 0.6, p.y * 0.6);
        }
        let a1 = analysis_for(&pts, 0, pattern);
        let sh1 = a1.shifted().expect("still shifted");
        assert_eq!(sh1.shifted_robot, 0);
        let mut bits1 = NullBits;
        match select_a_robot(&a1, &mut bits1).unwrap().0 {
            Decision::Move(p) => {
                let c_local = (Point::ORIGIN - pts[0].to_vector()).to_vector().to_point();
                let r0 = p.start().dist(c_local);
                let r1 = p.destination().dist(c_local);
                assert!((r0 - r1).abs() < 1e-9, "stage 3 moves on the circle");
            }
            Decision::Stay => panic!("shifted robot must widen the shift"),
        }
    }
}
