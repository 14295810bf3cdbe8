//! The multiplicity extension (Section 5, Appendix C).
//!
//! With multiplicity detection, the algorithm forms patterns that contain
//! multiplicity points: robots sharing a destination are simply allowed to
//! land on the same spot (the phase-3 blocking rule exempts robots standing
//! exactly on one's own destination).
//!
//! The one case needing surgery is a pattern point at `c(F)` itself (with
//! any count `m ≥ 1`): no robot can be *placed* at the center without
//! destroying every center-anchored predicate. Following Appendix C, the
//! algorithm first forms `F̃` — `F` with the center points relocated to
//! `g_F`, the midpoint between `c(F)` and the off-center point with maximal
//! view — and finishes with a *gather step*: when the `m` closest robots
//! stand on a single half-line from the center and everyone else forms
//! `F − {(c(F), m)}`, those `m` robots walk to the center.

use crate::analysis::Analysis;
use crate::pattern::PatternAnalysis;
use apf_geometry::symmetry::ViewAnalysis;
use apf_geometry::{Path, Point, SimilarityTarget};
use apf_sim::{ComputeError, Decision};
use std::rc::Rc;

/// What the multiplicity preprocessing decided.
#[derive(Debug)]
pub enum MultiStep {
    /// No center point in `F`: continue with the (possibly multiset)
    /// pattern as-is.
    Proceed,
    /// `F` had center points: continue with the transformed pattern `F̃`
    /// (already swapped into the analysis).
    Transformed,
    /// The gather condition holds: this is the observer's decision.
    Gather(Decision),
}

/// What the multiplicity extension derives from the pattern alone.
#[derive(Debug)]
pub struct PatternMultiplicity {
    /// Whether some pattern location holds several points.
    pub has_multiplicity: bool,
    /// Whether every pattern point shares one location.
    pub single_location: bool,
    /// The pattern points at `c(F)`, if there are any.
    pub center: Option<CenterGroup>,
}

/// The pattern points at `c(F)` and what Appendix C replaces them with.
#[derive(Debug)]
pub struct CenterGroup {
    /// Indices of the pattern points at `c(F)`.
    pub members: Vec<usize>,
    /// `F − {(c(F), m)}`, prepared for the gather check.
    pub rest: SimilarityTarget,
    /// `F̃`: `F` with the center points moved to `g_F`.
    pub f_tilde: Rc<PatternAnalysis>,
}

impl PatternMultiplicity {
    /// Computes the multiplicity groups of `pattern` and, when some of its
    /// points sit at `c(F)`, `g_F` and `F̃`.
    pub(crate) fn new(pattern: &PatternAnalysis) -> Self {
        let tol = *pattern.tol();
        let points = pattern.points();
        let groups = pattern.config().multiplicity_groups(&tol);
        let has_multiplicity = groups.iter().any(|(_, m)| m.len() > 1);
        let single_location = groups.len() == 1;
        // Center group: pattern points at c(F) (the normalized origin).
        let members: Vec<usize> = groups
            .into_iter()
            .find(|(rep, _)| rep.approx_eq(Point::ORIGIN, &tol))
            .map(|(_, members)| members)
            .unwrap_or_default();
        if single_location || members.is_empty() {
            return PatternMultiplicity { has_multiplicity, single_location, center: None };
        }

        // g_F: on the half-line toward the off-center max-view point, at half
        // the smallest off-center pattern radius. (The paper uses the midpoint
        // of [c(F), f_max]; we halve the *innermost* radius instead so the
        // relocated group is guaranteed to be the m closest robots, which is
        // what the gather-step detection keys on.)
        let va = ViewAnalysis::compute(pattern.config(), Point::ORIGIN, &tol);
        let fmax = (0..points.len())
            .filter(|&i| !tol.is_zero(points[i].dist(Point::ORIGIN)))
            .max_by(|&x, &y| va.view(x).cmp(va.view(y)))
            // apf-lint: allow(panic-policy) — a second pattern location exists (not single_location)
            .expect("more than one distinct pattern location");
        let r_min = points
            .iter()
            .map(|p| p.dist(Point::ORIGIN))
            .filter(|&r| !tol.is_zero(r))
            .fold(f64::INFINITY, f64::min);
        // apf-lint: allow(panic-policy) — fmax was filtered to off-center points just above
        let dir = (points[fmax] - Point::ORIGIN).normalized().expect("f_max is off-center");
        let g_f = Point::ORIGIN + dir * (r_min / 2.0);

        let rest: Vec<Point> = points
            .iter()
            .enumerate()
            .filter(|&(i, _)| !members.contains(&i))
            .map(|(_, &p)| p)
            .collect();
        let mut f_tilde = points.to_vec();
        for &i in &members {
            f_tilde[i] = g_f;
        }
        PatternMultiplicity {
            has_multiplicity,
            single_location,
            center: Some(CenterGroup {
                members,
                rest: SimilarityTarget::new(&rest, &tol),
                f_tilde: Rc::new(PatternAnalysis::normalized(f_tilde, &tol)),
            }),
        }
    }
}

/// Applies the Appendix C transformation when `F` contains `c(F)`.
///
/// # Errors
///
/// * the pattern has multiplicity but the snapshot does not expose
///   multiplicities;
/// * the pattern is a single multiplicity point (the Gathering problem —
///   out of scope, as in the paper).
pub fn preprocess(a: &mut Analysis) -> Result<MultiStep, ComputeError> {
    let pattern = Rc::clone(&a.pattern);
    let multi = pattern.multiplicity();
    if multi.has_multiplicity && !a.multiplicity_detection {
        return Err(ComputeError::new(
            "pattern contains multiplicity points but multiplicity detection is off",
        ));
    }
    if multi.single_location {
        return Err(ComputeError::new(
            "pattern is a single multiplicity point: that is the Gathering problem, out of scope",
        ));
    }
    let Some(center) = &multi.center else {
        return Ok(MultiStep::Proceed);
    };

    // Gather condition: the m closest robots are on one half-line from the
    // center (or already at it) and the rest form F − {(c, m)}.
    if let Some(d) = gather_step(a, center) {
        return Ok(MultiStep::Gather(d));
    }

    // Switch to F̃.
    a.pattern = Rc::clone(&center.f_tilde);
    Ok(MultiStep::Transformed)
}

/// Checks the gather condition and, when it holds, returns the observer's
/// decision (inner robots walk to the center, everyone else stays).
fn gather_step(a: &Analysis, center: &CenterGroup) -> Option<Decision> {
    let tol = a.tol;
    let n = a.n();
    let m = center.members.len();
    if m >= n {
        return None;
    }
    // The m closest robots.
    let mut by_radius: Vec<usize> = (0..n).collect();
    by_radius.sort_by(|&x, &y| a.radius(x).total_cmp(&a.radius(y)));
    let inner = &by_radius[..m];
    let rest = &by_radius[m..];
    // The boundary must be unambiguous.
    if m > 0 && !tol.lt(a.radius(inner[m - 1]), a.radius(rest[0])) {
        return None;
    }
    // Inner robots on one half-line from the origin (robots at the origin
    // are trivially on it).
    let mut angle: Option<f64> = None;
    for &i in inner {
        let p = a.polar(i);
        if tol.is_zero(p.radius) {
            continue;
        }
        match angle {
            None => angle = Some(p.angle),
            Some(ang) => {
                if apf_geometry::angle::angle_dist(ang, p.angle) > tol.angle_eps.max(1e-6) {
                    return None;
                }
            }
        }
    }
    // Rest forms F minus the center points.
    let rest_pts: Vec<Point> = rest.iter().map(|&i| a.config.point(i)).collect();
    center.rest.match_set(&rest_pts)?;
    // Gather: inner robots not yet at the center walk straight to it.
    if inner.contains(&a.me) && !tol.is_zero(a.radius(a.me)) {
        let p = Path::straight(a.my_pos(), Point::ORIGIN);
        return Some(Decision::Move(a.denormalize_path(&p)));
    }
    Some(Decision::Stay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternMemo;
    use apf_geometry::Tol;
    use apf_sim::Snapshot;
    use std::f64::consts::TAU;

    #[test]
    fn preprocess_switches_to_the_memoized_f_tilde() {
        // A hexagon plus two points at its center c(F).
        let tol = Tol::default();
        let mut pattern: Vec<Point> = (0..6)
            .map(|i| {
                let t = TAU * f64::from(i) / 6.0;
                Point::new(t.cos(), t.sin())
            })
            .collect();
        pattern.extend([Point::ORIGIN; 2]);
        let robots = apf_patterns::asymmetric_configuration(8, 5);
        let local: Vec<Point> = robots.iter().map(|&p| (p - robots[0]).to_point()).collect();
        let memo = PatternMemo::default();
        let look = || {
            let snap = Snapshot::new(local.clone(), pattern.clone(), true, tol);
            let mut a = Analysis::new(&snap, &memo).unwrap();
            assert!(matches!(preprocess(&mut a).unwrap(), MultiStep::Transformed));
            a.pattern
        };

        let f_tilde = look();
        assert!(Rc::ptr_eq(&f_tilde, &look()), "every Look switches to the same F̃");
        let g_f = f_tilde.points()[6];
        assert!(tol.eq(g_f.dist(Point::ORIGIN), 0.5), "g_F halves the innermost radius");
        assert_eq!(f_tilde.points()[7], g_f);
        let f = memo.analysis_of(&pattern, &tol).unwrap();
        assert_eq!(f_tilde.points()[..6], f.points()[..6]);
        assert_eq!(f_tilde.l_f(), g_f.dist(Point::ORIGIN));
    }
}
