//! Phase 1: create the global oriented coordinate system `Z`.
//!
//! `Z` is anchored on the selected robot `r_s` and a reference robot
//! `r_max`: center `c(P)`, zero ray through `r_max`, and the rotational
//! orientation that maximizes `r_s`'s polar angle. For `Z` to be stable the
//! configuration must satisfy (Phase Condition):
//!
//! 1. `r_max` is radially minimal in `P − {r_s}`;
//! 2. `r_max` is the unique robot angularly closest to `r_s`;
//! 3. `|r_max| ≤ |f_max|`;
//! 4. the wedge between `r_s` and `r_max` is much narrower than the
//!    clearance around the zero ray — the paper requires
//!    `2·angmin(r_s, c, r_max) < θ_F'`; we strengthen this to
//!    `4·angmin < min(θ_F', θ_safe)` where `θ_safe` is the angular distance
//!    from the zero ray to the nearest off-ray target, so that no target
//!    (hence no settled robot) can ever enter the wedge and steal the
//!    "angularly closest" role from `r_max` during Phases 2–3.
//!
//! When the condition fails, the *selected robot repairs it*: it descends to
//! `c(P)` and re-emerges at a tiny angle next to the closest robot, making
//! that robot the unique `r_max`. If only condition 3 fails, `r_max` itself
//! descends radially to `|f_max|`.

use crate::analysis::Analysis;
use crate::dpf::TargetPlan;
use apf_geometry::angle::{normalize_angle, signed_angle_diff};
use apf_geometry::{path, Path, Point, PolarPoint};
use apf_sim::{ComputeError, Decision};

/// Margin factor between the wedge angle and the target clearance.
const WEDGE_FACTOR: f64 = 4.0;
/// Fraction of the feasible radius used when placing the selected robot.
const SELECTED_RADIUS_FACTOR: f64 = 0.4;

/// The global oriented coordinate system `Z`.
#[derive(Debug, Clone, Copy)]
pub struct ZFrame {
    /// Index of the reference robot (zero ray).
    pub rmax: usize,
    /// Angle of `r_max` in normalized coordinates.
    base_angle: f64,
    /// `+1.0` (CCW) or `-1.0` (CW): the direction of increasing `Z`-angles.
    orient: f64,
    /// The selected robot's `Z`-angle (`2π − δ`).
    pub rs_angle: f64,
    /// The wedge half-width `δ = angmin(r_s, c, r_max)`.
    pub delta: f64,
}

impl ZFrame {
    /// The frame with zero ray through `r_max`, oriented so that the
    /// selected robot `r_s` has the greater `Z`-angle, with wedge
    /// half-width `delta`.
    pub(super) fn new(a: &Analysis, rmax: usize, rs: usize, delta: f64) -> Self {
        let base_angle = a.polar(rmax).angle;
        let rs_raw = normalize_angle(a.polar(rs).angle - base_angle);
        let orient = if rs_raw >= std::f64::consts::PI { 1.0 } else { -1.0 };
        let rs_angle = if orient > 0.0 { rs_raw } else { normalize_angle(-rs_raw) };
        ZFrame { rmax, base_angle, orient, rs_angle, delta }
    }

    /// `Z`-angle of a normalized point, in `[0, 2π)`.
    pub fn angle_of(&self, p: Point) -> f64 {
        self.z_angle(PolarPoint::from_cartesian(p, Point::ORIGIN).angle)
    }

    /// `Z`-angle, in `[0, 2π)`, of the normalized direction `angle`.
    ///
    /// Values within numerical noise of `2π` snap to `0`: a robot standing
    /// exactly on the zero ray must sort *first*, not last, or assignment
    /// and blocking logic splits at the wraparound.
    pub(super) fn z_angle(&self, angle: f64) -> f64 {
        let z = normalize_angle(self.orient * (angle - self.base_angle));
        // The band is deliberately wider than the placement tolerance
        // (robots arrive at zero-ray targets within ~1e-6): a robot parked
        // on the ray must snap under *every* observer's frame noise, or
        // observers disagree on the ordering.
        if std::f64::consts::TAU - z <= 1e-5 {
            0.0
        } else {
            z
        }
    }

    /// Normalized point at the given `Z`-polar coordinates.
    pub fn to_point(&self, radius: f64, z_angle: f64) -> Point {
        let a = self.base_angle + self.orient * z_angle;
        Point::new(radius * a.cos(), radius * a.sin())
    }

    /// Arc path rotating `p` on its circle by `dz` in `Z`-angle (positive =
    /// the `Z` "direct" orientation).
    pub fn rotate(&self, p: Point, dz: f64) -> Path {
        path::rotate_on_circle(Point::ORIGIN, p, self.orient * dz)
    }

    /// Angular ceiling for Phase 2/3 placements: robots must stay below the
    /// selected robot's wedge.
    pub fn upper_bound(&self) -> f64 {
        std::f64::consts::TAU - 3.0 * self.delta
    }
}

/// Result of the Phase-1 dispatcher.
#[derive(Debug)]
pub enum FrameStatus {
    /// The frame exists; later phases may proceed.
    Ready(ZFrame),
    /// Phase 1 is active: the observer's decision this cycle.
    Acting(Decision),
}

/// Establishes the `Z` frame or returns the Phase-1 repair action.
///
/// # Errors
///
/// Never fails for valid inputs; reserved for invariant violations.
pub fn ensure_frame(
    a: &Analysis,
    rs: usize,
    plan: &TargetPlan,
) -> Result<FrameStatus, ComputeError> {
    let tol = &a.tol;
    let rs_pos = a.config.point(rs);
    let others: Vec<usize> = (0..a.n()).filter(|&i| i != rs).collect();
    if others.is_empty() {
        return Err(ComputeError::new("pattern formation needs more than one robot"));
    }

    // "At the center" is a relative notion: normalization noise keeps a
    // parked robot a few ulps off the exact origin, so compare against the
    // configuration scale instead of the absolute tolerance.
    let min_r = others.iter().map(|&i| a.radius(i)).fold(f64::INFINITY, f64::min);
    if a.radius(rs) <= 0.01 * min_r.min(a.pattern.l_f()) {
        // r_s is at the center: re-emerge next to the closest robot.
        if a.me != rs {
            return Ok(FrameStatus::Acting(Decision::Stay));
        }
        return Ok(FrameStatus::Acting(emerge_from_center(a, &others, plan.clearance)));
    }

    // Identify the candidate r_max: radially minimal AND angularly closest.
    // `angmin(r_s, c(P), r_i)`, by `ang_min`'s float operations on the
    // cached directions.
    let ang = |i: usize| {
        let x = normalize_angle(a.direction(i) - a.direction(rs));
        x.min(std::f64::consts::TAU - x)
    };
    let ang_min_all = others.iter().map(|&i| ang(i)).fold(f64::INFINITY, f64::min);
    let candidates: Vec<usize> = others
        .iter()
        .copied()
        .filter(|&i| tol.eq(a.radius(i), min_r) && ang(i) <= ang_min_all + tol.angle_eps)
        .collect();

    // Robots stacked on a multiplicity point tie in both radius and angle;
    // they are anonymous and interchangeable, so a fully co-located
    // candidate set is as good as a unique robot.
    let co_located = candidates.len() > 1
        && candidates.windows(2).all(|w| a.config.point(w[0]).approx_eq(a.config.point(w[1]), tol));
    if candidates.len() == 1 || co_located {
        let rmax = candidates[0];
        let delta = ang(rmax);
        // Strengthened condition (iv): the wedge is narrow enough.
        if WEDGE_FACTOR * delta < plan.clearance && delta > tol.angle_eps {
            if tol.le(a.radius(rmax), plan.fmax_radius) {
                return Ok(FrameStatus::Ready(ZFrame::new(a, rmax, rs, delta)));
            }
            // Condition (iii) fails: r_max descends radially to |f_max|.
            if a.me == rmax {
                let p = path::radial_to(Point::ORIGIN, a.config.point(rmax), plan.fmax_radius);
                return Ok(FrameStatus::Acting(Decision::Move(a.denormalize_path(&p))));
            }
            return Ok(FrameStatus::Acting(Decision::Stay));
        }
    }

    // No usable r_max: the selected robot descends to the center to rebuild
    // the frame from scratch.
    if a.me == rs {
        let p = Path::straight(rs_pos, Point::ORIGIN);
        return Ok(FrameStatus::Acting(Decision::Move(a.denormalize_path(&p))));
    }
    Ok(FrameStatus::Acting(Decision::Stay))
}

/// The selected robot re-emerges from the center at a controlled tiny angle
/// next to the closest robot, creating a unique valid `r_max`.
fn emerge_from_center(a: &Analysis, others: &[usize], clearance: f64) -> Decision {
    let tol = &a.tol;
    // r*: the closest robot (ties broken deterministically by angle so the
    // destination is well defined; only r_s acts here, so no cross-robot
    // agreement is needed).
    let rstar = *others
        .iter()
        .min_by(|&&x, &&y| {
            a.radius(x).total_cmp(&a.radius(y)).then(a.polar(x).angle.total_cmp(&a.polar(y).angle))
        })
        // apf-lint: allow(panic-policy) — n ≥ 2 is a formPattern precondition, so others ≠ ∅
        .expect("others is non-empty");
    let rstar_polar = a.polar(rstar);
    // Angular gap from r* to its nearest other robot.
    let mut gap = std::f64::consts::PI;
    for &i in others {
        if i == rstar {
            continue;
        }
        let d = signed_angle_diff(rstar_polar.angle, a.polar(i).angle).abs();
        if d > tol.angle_eps && d < gap {
            gap = d;
        }
    }
    let dtheta = (clearance.min(gap) / (2.0 * WEDGE_FACTOR)).max(tol.angle_eps * 16.0);
    let dist = SELECTED_RADIUS_FACTOR * a.pattern.l_f().min(rstar_polar.radius);
    let dest_angle = rstar_polar.angle - dtheta;
    let dest = Point::new(dist * dest_angle.cos(), dist * dest_angle.sin());
    let p = Path::straight(a.my_pos(), dest);
    Decision::Move(a.denormalize_path(&p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternMemo;
    use apf_geometry::Tol;
    use apf_sim::Snapshot;
    use std::f64::consts::TAU;

    fn analysis(points: &[Point], me: usize, pattern: Vec<Point>) -> Analysis {
        let off = points[me];
        let local: Vec<Point> = points.iter().map(|&p| (p - off).to_point()).collect();
        let snap = Snapshot::new(local, pattern, false, Tol::default());
        Analysis::new(&snap, &PatternMemo::default()).unwrap()
    }

    fn ring(n: usize, r: f64, phase: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let t = TAU * i as f64 / n as f64 + phase;
                Point::new(r * t.cos(), r * t.sin())
            })
            .collect()
    }

    /// A configuration with a proper selected robot and a valid r_max next
    /// to it. The r_max radius is calibrated against the plan's f_max radius
    /// so Phase-1 condition (iii) holds.
    fn good_frame_config() -> (Vec<Point>, usize, usize) {
        // Probe the plan with a throwaway configuration to learn |f_max|.
        let probe = ring(8, 1.0, 0.0);
        let a = analysis(&probe, 0, pattern8());
        let plan = TargetPlan::new(&a.pattern).unwrap();
        let rmax_r = plan.fmax_radius * 0.9;

        let mut pts = ring(6, 1.0, 0.4);
        // r_max close to the center at angle 0.
        pts.push(Point::new(rmax_r, 0.0));
        // r_s just clockwise of r_max, very close to the center.
        let delta = 0.002f64;
        let rs_r = rmax_r / 3.0;
        pts.push(Point::new(rs_r * (-delta).cos(), rs_r * (-delta).sin()));
        (pts, 7, 6) // (points, rs index, rmax index)
    }

    fn pattern8() -> Vec<Point> {
        // 6 on the unit circle, one inner anchor, one near-center point
        // (the f_s the selected robot will eventually take).
        let mut f = ring(6, 1.0, 0.2);
        f.push(Point::new(0.45, 0.3));
        f.push(Point::new(0.1, -0.15));
        f
    }

    #[test]
    fn frame_is_ready_on_good_config() {
        let (pts, rs, rmax) = good_frame_config();
        let a = analysis(&pts, 0, pattern8());
        assert_eq!(a.selected(), Some(rs));
        match ensure_frame(&a, rs, &TargetPlan::new(&a.pattern).unwrap()).unwrap() {
            FrameStatus::Ready(zf) => {
                assert_eq!(zf.rmax, rmax);
                // r_s's Z-angle is in the upper half (orientation maximizes it).
                assert!(zf.rs_angle >= std::f64::consts::PI);
                // r_max itself has Z-angle 0.
                let za = zf.angle_of(a.config.point(rmax));
                assert!(za < 1e-9 || TAU - za < 1e-9);
            }
            FrameStatus::Acting(_) => panic!("frame should be ready"),
        }
    }

    #[test]
    fn z_frame_roundtrip() {
        let (pts, rs, _) = good_frame_config();
        let a = analysis(&pts, 0, pattern8());
        let plan = TargetPlan::new(&a.pattern).unwrap();
        let FrameStatus::Ready(zf) = ensure_frame(&a, rs, &plan).unwrap() else {
            panic!("frame expected")
        };
        for i in 0..a.n() {
            let p = a.config.point(i);
            let r = p.dist(Point::ORIGIN);
            let z = zf.angle_of(p);
            let back = zf.to_point(r, z);
            assert!(back.approx_eq(p, &Tol::new(1e-9)), "robot {i}");
        }
    }

    #[test]
    fn rs_descends_when_no_rmax() {
        // Selected robot with the radially-minimal robot NOT angularly
        // closest: phase 1 sends r_s toward the center.
        let mut pts = ring(6, 1.0, 0.0);
        pts.push(Point::new(-0.3, 0.0)); // radially minimal, far from rs angularly
        pts.push(Point::new(0.05, 0.04)); // rs, closest to other robots' rays
        let rs = 7;
        let a = analysis(&pts, rs, pattern8());
        assert_eq!(a.selected(), Some(rs));
        let plan = TargetPlan::new(&a.pattern).unwrap();
        match ensure_frame(&a, rs, &plan).unwrap() {
            FrameStatus::Acting(Decision::Move(p)) => {
                // Destination is the center (local frame: center of C(P)).
                let dest = p.destination();
                let c_local = a.denorm_point(Point::ORIGIN);
                assert!(dest.approx_eq(c_local, &Tol::new(1e-6)));
            }
            other => panic!("expected rs to descend, got {other:?}"),
        }
    }

    #[test]
    fn rs_emerges_from_center() {
        let mut pts = ring(6, 1.0, 0.4);
        pts.push(Point::new(0.3, 0.0)); // closest robot r*
        pts.push(Point::ORIGIN); // rs at the center
        let rs = 7;
        let a = analysis(&pts, rs, pattern8());
        let plan = TargetPlan::new(&a.pattern).unwrap();
        match ensure_frame(&a, rs, &plan).unwrap() {
            FrameStatus::Acting(Decision::Move(p)) => {
                let dest = p.destination();
                // Destination is near r*'s ray, strictly inside, non-zero.
                let c_local = a.denorm_point(Point::ORIGIN);
                let d = dest.dist(c_local);
                assert!(d > 1e-4 && d < 0.3);
            }
            other => panic!("expected rs to emerge, got {other:?}"),
        }
    }

    #[test]
    fn non_actors_stay_during_phase1() {
        let mut pts = ring(6, 1.0, 0.0);
        pts.push(Point::new(-0.3, 0.0));
        pts.push(Point::new(0.05, 0.04));
        let rs = 7;
        // Observer = a ring robot: must Stay while rs repairs the frame.
        let a = analysis(&pts, 2, pattern8());
        let plan = TargetPlan::new(&a.pattern).unwrap();
        match ensure_frame(&a, rs, &plan).unwrap() {
            FrameStatus::Acting(d) => assert_eq!(d, Decision::Stay),
            FrameStatus::Ready(_) => panic!("frame should not be ready"),
        }
    }

    #[test]
    fn rmax_descends_when_condition_iii_fails() {
        // Valid wedge but r_max farther out than |f_max|: r_max must descend.
        let mut pts = ring(6, 1.0, 0.4);
        pts.push(Point::new(0.9, -0.003)); // candidate r_max at radius 0.9
        pts.push(Point::new(0.04, -0.0004)); // rs in the wedge just below
        let rs = 7;
        let rmax = 6;
        let a = analysis(&pts, rmax, pattern8());
        assert_eq!(a.selected(), Some(rs));
        let plan = TargetPlan::new(&a.pattern).unwrap();
        assert!(plan.fmax_radius < 0.9, "fmax radius {}", plan.fmax_radius);
        match ensure_frame(&a, rs, &plan).unwrap() {
            FrameStatus::Acting(Decision::Move(p)) => {
                let c_local = a.denorm_point(Point::ORIGIN);
                let end_r = p.destination().dist(c_local);
                assert!((end_r - plan.fmax_radius).abs() < 1e-6);
            }
            other => panic!("expected rmax descent, got {other:?}"),
        }
    }
}
