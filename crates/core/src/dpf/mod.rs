//! `ψ_DPF` — deterministic pattern formation without chirality (Section 4).
//!
//! Precondition: the configuration contains a *selected* robot `r_s` (the
//! output of `ψ_RSB`), or the pattern is one robot move away from complete.
//! Because a selected robot exists, the symmetricity is 1 and every robot
//! can derive the same global, *oriented* coordinate system `Z` — without
//! any chirality assumption — as follows (Phase 1):
//!
//! * center: `c(P)` (= the origin of normalized coordinates);
//! * reference direction: the half-line to `r_max`, the unique robot that is
//!   both radially minimal in `P − {r_s}` and angularly closest to `r_s`
//!   (Phase 1 *creates* this configuration when it does not hold);
//! * orientation: the rotational direction that maximizes `r_s`'s
//!   coordinates — a convention both mirror images agree on.
//!
//! Phases 2 and 3 then populate each target circle with the right number of
//! robots and rotate them into the exact pattern positions, all while
//! preserving `C(P)` and the robots' `Z`-order (no two robots ever swap).

mod index;
mod phase1;
mod phase2;
mod phase3;

use crate::analysis::Analysis;
use crate::pattern::PatternAnalysis;
use apf_geometry::angle::normalize_angle;
use apf_geometry::symmetry::LazyViews;
use apf_geometry::{Point, PolarPoint};
use apf_sim::{ComputeError, Decision, PhaseKind};
use index::Index;

pub use phase1::ZFrame;

/// Runs one activation of `ψ_DPF` for the observer, given the selected
/// robot.
///
/// The returned [`PhaseKind`] names the paper phase that produced the
/// decision: [`PhaseKind::DpfFrame`] while Phase 1 establishes `Z`,
/// [`PhaseKind::DpfPopulate`] for Phase 2 and its pre-phases,
/// [`PhaseKind::DpfRotate`] for Phase 3, and [`PhaseKind::DpfIdle`] when no
/// phase has work for this robot this cycle.
///
/// # Errors
///
/// Returns [`ComputeError`] on configurations that violate the phase
/// invariants (which would indicate a bug upstream, not a legal input).
pub fn act(a: &Analysis, rs: usize) -> Result<(Decision, PhaseKind), ComputeError> {
    let plan = a.pattern.target_plan()?;

    // Phase 1: establish the global coordinate system.
    match phase1::ensure_frame(a, rs, plan)? {
        phase1::FrameStatus::Acting(decision) => Ok((decision, PhaseKind::DpfFrame)),
        phase1::FrameStatus::Ready(zf) => {
            let ix = Index::new(a, rs, &zf, &plan.circles);
            // Pre-phase: no robot other than r_max may sit on the zero ray.
            if let Some(d) = phase2::clear_zero_ray(a, &ix, rs, &zf, plan) {
                return Ok((d, PhaseKind::DpfPopulate));
            }
            // Special pre-phase when only two pattern points lie on C(F).
            if let Some(d) = phase2::fix_enclosing_circle(a, &ix, rs, &zf, plan)? {
                return Ok((d, PhaseKind::DpfPopulate));
            }
            // Phase 2: populate the circles outside-in.
            if let Some(d) = phase2::populate_circles(a, &ix, rs, &zf, plan)? {
                return Ok((d, PhaseKind::DpfPopulate));
            }
            // Phase 3: rotate robots to their final positions.
            if let Some(d) = phase3::rotate_to_targets(a, &ix, rs, &zf, plan)? {
                return Ok((d, PhaseKind::DpfRotate));
            }
            Ok((Decision::Stay, PhaseKind::DpfIdle))
        }
    }
}

/// The pattern decomposition used by every phase: `f_s` (the selected
/// robot's final destination), `F' = F − {f_s}`, `f_max` (the view-maximal
/// point of `F'`), the target circles with their targets, and Phase 1's
/// clearance. It depends on the pattern alone, so the pattern's
/// [`PatternAnalysis`] builds it once.
#[derive(Debug)]
pub struct TargetPlan {
    /// Index (into the normalized pattern) of `f_s`.
    pub fs: usize,
    /// `F'` as points (normalized coordinates, pattern frame).
    pub f_prime: Vec<Point>,
    /// Index into [`Self::f_prime`] of `f_max`.
    pub fmax: usize,
    /// `|f_max|`.
    pub fmax_radius: f64,
    /// Index into [`Self::circles`] of `f_max`'s circle.
    pub fmax_circle: usize,
    /// `min(θ_F', θ_safe)`: the angular clearance around the zero ray that
    /// Phase 1's condition (iv) compares the wedge with. `θ_F'` is the
    /// clearance around `f_max`; `θ_safe` is the angular distance from the
    /// zero ray to the nearest off-ray target.
    pub clearance: f64,
    /// Target circle radii, strictly decreasing; `circles[0]` is `C(F)`.
    pub circles: Vec<f64>,
    /// The `Z`-angles of the targets on each circle, ascending; their
    /// number is the number of robots the circle must receive.
    pub circle_targets: Vec<Vec<f64>>,
    /// `F'` in polar form relative to `f_max` (angle measured in `F'`'s
    /// view-maximizing orientation): the Z-coordinates of every target.
    pub targets: Vec<PolarPoint>,
}

impl TargetPlan {
    /// Computes the plan from the normalized pattern.
    ///
    /// # Errors
    ///
    /// Fails when the pattern has no view-maximal non-holding point (needs
    /// `|F| ≥ 4`) — rejected at analysis time for valid inputs.
    pub fn new(pattern: &PatternAnalysis) -> Result<Self, ComputeError> {
        let tol = pattern.tol();
        let Some(fp) = pattern.f_prime() else {
            return Err(ComputeError::new("pattern has no max-view non-holding point"));
        };
        let (fs, f_prime) = (fp.fs, fp.points.clone());

        // f_max anchors the zero ray of Z and is the slot reserved for
        // r_max. The paper picks a view-maximal point of F'; we pick an
        // *innermost* point of F' (ties broken by maximal view, then either
        // mirror partner — their anchored target lists coincide). This keeps
        // r_max radially minimal (Phase-1 condition i) all the way to its
        // final slot, which the view-maximal choice does not guarantee (a
        // view-maximal f_max on C(F) would force the frame anchor onto the
        // enclosing circle mid-formation). See DESIGN.md.
        // Views of F' are compared only among the innermost points, so only
        // those are computed.
        let views = LazyViews::new(&f_prime, Point::ORIGIN, tol);
        let min_radius = f_prime
            .iter()
            .map(|p| p.dist(Point::ORIGIN))
            .filter(|&r| !tol.is_zero(r))
            .fold(f64::INFINITY, f64::min);
        // Among the innermost-radius candidates, prefer a location that is
        // NOT a multiplicity point (a singleton anchor keeps the zero ray
        // free of stacked targets), then break ties by maximal view.
        let multiplicity_of =
            |i: usize| f_prime.iter().filter(|p| p.approx_eq(f_prime[i], tol)).count();
        let fmax = (0..f_prime.len())
            .filter(|&i| tol.eq(f_prime[i].dist(Point::ORIGIN), min_radius))
            .max_by(|&x, &y| {
                multiplicity_of(y)
                    .cmp(&multiplicity_of(x)) // fewer duplicates wins
                    .then(views.view(x).cmp(views.view(y)))
            })
            // apf-lint: allow(panic-policy) — caller checked F' non-empty (plan precondition)
            .expect("F' is non-empty");
        let fmax_polar = PolarPoint::from_cartesian(f_prime[fmax], Point::ORIGIN);
        if tol.is_zero(fmax_polar.radius) {
            return Err(ComputeError::new("f_max at the pattern center is unsupported"));
        }

        // θ_F' = min(π, angles between f_max and other same-radius
        // max-view points). Points on f_max's own ray (its multiplicity
        // duplicates) do not constrain the wedge — they sit at angular
        // distance zero by construction, not by accident.
        let mut theta_f = std::f64::consts::PI;
        for (i, &fp) in f_prime.iter().enumerate() {
            if i == fmax {
                continue;
            }
            let p = PolarPoint::from_cartesian(fp, Point::ORIGIN);
            if !tol.eq(p.radius, fmax_polar.radius) || views.view(i) != views.view(fmax) {
                continue;
            }
            let ang = apf_geometry::angle::angle_dist(p.angle, fmax_polar.angle);
            if ang > tol.angle_eps && ang < theta_f {
                theta_f = ang;
            }
        }

        // Orientation of F': the one maximizing f_max's view; mirror images
        // of the pattern are both acceptable outcomes (the similarity
        // relation ≈ includes reflections), so either flag works when both
        // orientations tie.
        let orient = if views.robot(fmax).ccw_max { 1.0 } else { -1.0 };
        let targets: Vec<PolarPoint> = f_prime
            .iter()
            .map(|&p| {
                let pp = PolarPoint::from_cartesian(p, Point::ORIGIN);
                if tol.is_zero(pp.radius) {
                    PolarPoint { radius: 0.0, angle: 0.0 }
                } else {
                    let mut angle = normalize_angle(orient * (pp.angle - fmax_polar.angle));
                    // Canonicalize zero-ray targets: a point collinear with
                    // f_max computes as 0 or 2π−ε depending on the robot's
                    // (mirrored/rotated) pattern copy, and the sort order of
                    // the target list must not differ between robots.
                    if std::f64::consts::TAU - angle <= 1e-9 {
                        angle = 0.0;
                    }
                    PolarPoint { radius: pp.radius, angle }
                }
            })
            .collect();

        // Distinct circle radii, strictly decreasing.
        let mut radii: Vec<f64> = targets.iter().map(|t| t.radius).collect();
        radii.sort_by(|x, y| y.total_cmp(x));
        let mut circles: Vec<f64> = Vec::new();
        for r in radii {
            if tol.is_zero(r) {
                continue; // center targets are handled by multiplicity mode
            }
            if circles.last().is_none_or(|&last| tol.lt(r, last)) {
                circles.push(r);
            }
        }
        let circle_targets: Vec<Vec<f64>> = circles
            .iter()
            .map(|&c| {
                let mut on_c: Vec<f64> =
                    targets.iter().filter(|t| tol.eq(t.radius, c)).map(|t| t.angle).collect();
                on_c.sort_by(f64::total_cmp);
                on_c
            })
            .collect();
        let fmax_circle = circles
            .iter()
            .position(|&c| tol.eq(c, fmax_polar.radius))
            .ok_or_else(|| ComputeError::new("f_max not on any target circle"))?;

        // θ_safe: no off-ray target may sit inside the clearance either.
        let mut clearance = theta_f;
        for (i, t) in targets.iter().enumerate() {
            if i == fmax || tol.is_zero(t.radius) {
                continue;
            }
            // Distance of the target's ray to the zero ray (in [0, π]).
            let d = apf_geometry::angle::angle_dist(t.angle, 0.0);
            if d > tol.angle_eps && d < clearance {
                clearance = d;
            }
        }

        Ok(TargetPlan {
            fs,
            f_prime,
            fmax,
            fmax_radius: fmax_polar.radius,
            fmax_circle,
            clearance,
            circles,
            circle_targets,
            targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternMemo;
    use apf_geometry::Tol;
    use apf_sim::Snapshot;
    use std::f64::consts::TAU;

    fn ring(n: usize, r: f64, phase: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let t = TAU * i as f64 / n as f64 + phase;
                Point::new(r * t.cos(), r * t.sin())
            })
            .collect()
    }

    fn analysis(points: &[Point], me: usize, pattern: Vec<Point>) -> Analysis {
        let off = points[me];
        let local: Vec<Point> = points.iter().map(|&p| (p - off).to_point()).collect();
        let snap = Snapshot::new(local, pattern, false, Tol::default());
        Analysis::new(&snap, &PatternMemo::default()).unwrap()
    }

    #[test]
    fn target_plan_counts_circles() {
        // Pattern: 4 points on the unit circle, 3 on an inner circle.
        let mut pattern = ring(4, 1.0, 0.1);
        pattern.extend(ring(3, 0.5, 0.7));
        let robots = ring(7, 1.0, 0.0);
        let a = analysis(&robots, 0, pattern);
        let plan = TargetPlan::new(&a.pattern).unwrap();
        // F' = F − {fs}: fs is a non-holder, so it comes from a circle that
        // keeps at least 2 points... total targets = 6.
        assert_eq!(plan.f_prime.len(), 6);
        assert_eq!(plan.circles.len(), 2);
        assert!(plan.circles[0] > plan.circles[1]);
        assert_eq!(plan.circle_targets.iter().map(Vec::len).sum::<usize>(), 6);
    }

    #[test]
    fn targets_are_fmax_anchored() {
        let mut pattern = ring(5, 1.0, 0.3);
        pattern.extend(ring(3, 0.4, 0.9));
        let robots = ring(8, 1.0, 0.0);
        let a = analysis(&robots, 0, pattern);
        let plan = TargetPlan::new(&a.pattern).unwrap();
        // f_max itself maps to angle 0.
        let t = &plan.targets[plan.fmax];
        assert!(t.angle.abs() < 1e-9 || (TAU - t.angle) < 1e-9);
        assert!((t.radius - plan.fmax_radius).abs() < 1e-9);
        assert!(plan.clearance > 0.0 && plan.clearance <= std::f64::consts::PI);
    }

    #[test]
    fn plan_is_mirror_invariant_in_shape() {
        // Mirroring the pattern must give the same multiset of target polar
        // coordinates (the plan is chirality-free).
        let mut pattern = ring(5, 1.0, 0.3);
        pattern.push(Point::new(0.4, 0.2));
        pattern.push(Point::new(-0.3, 0.6));
        let mirrored: Vec<Point> = pattern.iter().map(|p| Point::new(p.x, -p.y)).collect();
        let robots = ring(7, 1.0, 0.0);
        let a1 = analysis(&robots, 0, pattern);
        let a2 = analysis(&robots, 0, mirrored);
        let p1 = TargetPlan::new(&a1.pattern).unwrap();
        let p2 = TargetPlan::new(&a2.pattern).unwrap();
        let mut k1: Vec<(i64, i64)> = p1
            .targets
            .iter()
            .map(|t| ((t.radius * 1e6).round() as i64, (t.angle * 1e6).round() as i64))
            .collect();
        let mut k2: Vec<(i64, i64)> = p2
            .targets
            .iter()
            .map(|t| ((t.radius * 1e6).round() as i64, (t.angle * 1e6).round() as i64))
            .collect();
        k1.sort_unstable();
        k2.sort_unstable();
        assert_eq!(k1, k2);
    }
}
