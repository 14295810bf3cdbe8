//! ε-shifted regular sets (Definition 3).
//!
//! A configuration contains an *ε-shifted-m-regular set* when moving a single
//! robot `r` (one of the robots closest to the center) along its circle to a
//! position `r'` yields a configuration containing a regular set through
//! `r'`. The shift `ε = angmin(r, c, r') / α_min(P')` lives in `(0, 1/4]`.
//! The election phase of the algorithm communicates through shifts: a shift
//! of exactly `1/8` tells the other members to descend to the shifted
//! robot's circle; a growing shift toward `1/4` announces the final descent
//! of the elected robot toward the center.
//!
//! Detection recovers the associated regular position `r'` by *completing*
//! the regular structure of the other member robots (which sit at exact
//! regular positions — only the shifted robot deviates): the merged angular
//! gap left by the shifted robot is located and split according to the
//! equiangular or bi-angled gap model. For whole-configuration shifted sets
//! the center is unknown and is recovered with the Gauss–Newton slot fit of
//! [`super::regular`], seeded by the Weber point.

use crate::angle::{ang_min, normalize_angle, signed_angle_diff};
use crate::config::Configuration;
use crate::point::Point;
use crate::polar::PolarPoint;
use crate::symmetry::consts::{
    epsilon_cap, BIANGULAR_LOOSE_BAND_FRAC, EQUIANGULAR_LOOSE_GAP_FRAC, SHIFTED_RADIUS_BAND,
};
use crate::symmetry::regular::{
    check_regular_around, fit_slot_model, regular_set_of, slot_angle, RegularKind,
};
use crate::tol::Tol;
use crate::weber::weber_point;
use std::f64::consts::TAU;

/// A detected ε-shifted regular set.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedRegularSet {
    /// Member robot indices (including the shifted robot), sorted by angle
    /// around [`Self::center`].
    pub indices: Vec<usize>,
    /// Regularity center of the associated regular set.
    pub center: Point,
    /// Angular structure of the associated regular set.
    pub kind: RegularKind,
    /// Index of the shifted robot.
    pub shifted_robot: usize,
    /// The associated regular position `r'` of the shifted robot.
    pub associated_position: Point,
    /// The shift `ε ∈ (0, 1/4]`.
    pub epsilon: f64,
    /// `|r| = |r'|`: the minimal distance to the center.
    pub min_radius: f64,
}

impl ShiftedRegularSet {
    /// Number of members `m` (including the shifted robot).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Detects an ε-shifted regular set in the configuration (Definition 3).
///
/// Tries, in order: a shifted set that is a strict subset of the
/// configuration (center = `c(P)`), then a whole-configuration shifted set
/// (center recovered numerically). Returns the first verified detection;
/// by Theorem 1 the shifted set is unique for `n ≥ 7`, so the order only
/// matters for degenerate small configurations.
pub fn find_shifted_regular(config: &Configuration, tol: &Tol) -> Option<ShiftedRegularSet> {
    let _span = apf_trace::span::enter(apf_trace::SpanLabel::Shifted);
    find_shifted_subset(config, tol).or_else(|| find_shifted_whole(config, tol))
}

/// Subset case: the shifted regular set is a strict subset, center `c(P)`.
fn find_shifted_subset(config: &Configuration, tol: &Tol) -> Option<ShiftedRegularSet> {
    let n = config.len();
    if n < 3 {
        return None;
    }
    let c = config.sec().center;
    if config.points().iter().any(|p| p.approx_eq(c, tol)) {
        return None;
    }
    let radii: Vec<f64> = config.points().iter().map(|p| p.dist(c)).collect();
    let min_r = radii.iter().cloned().fold(f64::INFINITY, f64::min);

    // Candidate shifted robots: at minimal radius (Definition 3 (c)).
    let candidates: Vec<usize> = (0..n).filter(|&i| tol.eq(radii[i], min_r)).collect();

    for &r_idx in &candidates {
        // Member candidates: radius prefixes of the other robots (the
        // election keeps members strictly inside the innermost non-member).
        let mut others: Vec<usize> = (0..n).filter(|&i| i != r_idx).collect();
        others.sort_by(|&a, &b| radii[a].total_cmp(&radii[b]));
        for j in 1..others.len() {
            // Prefix of size j is well defined only at strict boundaries.
            if j < others.len() && !tol.lt(radii[others[j - 1]], radii[others[j]]) {
                continue;
            }
            let members = &others[..j];
            if let Some(found) = try_complete(config, c, r_idx, members, false, tol) {
                return Some(found);
            }
        }
    }
    None
}

/// Whole-configuration case: every robot is a member; the center must be
/// recovered numerically.
fn find_shifted_whole(config: &Configuration, tol: &Tol) -> Option<ShiftedRegularSet> {
    let n = config.len();
    if n < 4 {
        return None;
    }
    let c0 = weber_point(config.points());
    let radii: Vec<f64> = config.points().iter().map(|p| p.dist(c0)).collect();
    let min_r = radii.iter().cloned().fold(f64::INFINITY, f64::min);
    // Generous band: the Weber point of the shifted configuration is only an
    // approximation of the true center.
    let candidates: Vec<usize> =
        (0..n).filter(|&i| radii[i] <= min_r * SHIFTED_RADIUS_BAND + tol.eps).collect();

    for &r_idx in &candidates {
        let members: Vec<usize> = (0..n).filter(|&i| i != r_idx).collect();
        if let Some(found) = try_complete(config, c0, r_idx, &members, true, tol) {
            return Some(found);
        }
    }
    None
}

/// Attempts to complete `members ∪ {r'}` into a regular set around an (exact
/// or approximate) center, verifying all Definition 3 conditions.
///
/// `members` never contains `r_idx`. When `fit_center` is true, the center
/// is re-estimated with the slot model (whole-configuration case); otherwise
/// `center` is exact (`c(P)`).
///
/// # Candidate filters
///
/// Insertion angles are tried in a fixed order and the first one that
/// verifies is the result. The filters below only drop insertions that
/// cannot verify, and keep the order of the rest, so the result is the same
/// bit for bit as trying every insertion.
///
/// * Exact center: an equiangular completion leaves exactly one gap off `α`
///   (the merged one), and a bi-angled completion leaves the gaps in at most
///   three clusters (`a`, `b` and the merged gap). Both are checked (in
///   `O(k)` and `O(k log k)`) before the `O(k²)` insertion loops.
/// * Approximate center: equiangular insertion `t` is fitted only when the
///   loose gap model ([`EQUIANGULAR_LOOSE_GAP_FRAC`]) holds with the merged
///   gap at `t` *or at `t + 1`*. The second arm keeps insertion `t* − 1` of
///   the true merged gap `t*`: its hint `θ_{t*−1} + α` lands at the start of
///   the merged gap, and since it is tried before `t*`, it is often the one
///   that verifies first (most visibly when the merged gap straddles angle
///   0, so the hole takes a different slot). That fit's floats differ from
///   the fit for `t*` by a few ulps, so filtering on `t` alone would change
///   the detected center and `ε` in their last bits.
fn try_complete(
    config: &Configuration,
    center: Point,
    r_idx: usize,
    members: &[usize],
    fit_center: bool,
    tol: &Tol,
) -> Option<ShiftedRegularSet> {
    let k = members.len(); // q = k + 1 total members with r'
    let q = k + 1;
    if q < 2 {
        return None;
    }
    let member_pts: Vec<Point> = members.iter().map(|&i| config.point(i)).collect();
    // Members must all be off-center, on distinct half-lines.
    let mut polar: Vec<(usize, PolarPoint)> = member_pts
        .iter()
        .enumerate()
        .map(|(i, &p)| (i, PolarPoint::from_cartesian(p, center)))
        .collect();
    if polar.iter().any(|(_, pp)| tol.is_zero(pp.radius)) {
        return None;
    }
    polar.sort_by(|a, b| a.1.angle.total_cmp(&b.1.angle));
    let angles: Vec<f64> = polar.iter().map(|(_, pp)| pp.angle).collect();
    let gaps: Vec<f64> = (0..k).map(|i| normalize_angle(angles[(i + 1) % k] - angles[i])).collect();
    if k >= 2 && gaps.iter().any(|&g| tol.ang_is_zero(g)) {
        return None;
    }

    // Enumerate candidate insertion angles θ' for r'.
    let mut insertions: Vec<(f64, bool)> = Vec::new(); // (theta', biangular)

    if k == 1 {
        // Completing to a 2-regular (antipodal) pair.
        insertions.push((normalize_angle(angles[0] + std::f64::consts::PI), false));
    } else {
        // Equiangular completion: every gap but one ≈ α = 2π/q, the merged
        // gap ≈ 2α.
        let alpha_eq = TAU / q as f64;
        if fit_center {
            // Under an approximate center (whole-config case) the gaps are
            // only approximately right: a loose test gates the slot fit.
            let loose =
                |g: f64, target: f64| (g - target).abs() < alpha_eq * EQUIANGULAR_LOOSE_GAP_FRAC;
            for (t, &angle_t) in angles.iter().enumerate() {
                if merged_at(&gaps, t, alpha_eq, loose)
                    || merged_at(&gaps, (t + 1) % k, alpha_eq, loose)
                {
                    insertions.push((normalize_angle(angle_t + alpha_eq), false));
                }
            }
        } else if gaps.iter().filter(|&&g| !tol.ang_eq(g, alpha_eq)).count() <= 1 {
            for (t, &angle_t) in angles.iter().enumerate() {
                if merged_at(&gaps, t, alpha_eq, |g, target| tol.ang_eq(g, target)) {
                    insertions.push((normalize_angle(angle_t + alpha_eq), false));
                }
            }
        }
        // Bi-angled completion: gaps alternate a, b with one merged (a + b).
        if q >= 4 && q.is_multiple_of(2) && (fit_center || in_three_clusters(&gaps, tol)) {
            for t in 0..k {
                for first_sub_is_even in [true, false] {
                    if let Some(theta) = biangular_insertion(
                        &angles,
                        &gaps,
                        t,
                        q,
                        first_sub_is_even,
                        fit_center,
                        tol,
                    ) {
                        insertions.push((theta, true));
                    }
                }
            }
        }
    }

    let r_pos = config.point(r_idx);
    for (theta_raw, biangular) in insertions {
        // Refine the center (and θ') for whole-configuration sets.
        let (c_use, theta) = if fit_center {
            match refine_center(&member_pts, center, theta_raw, q, biangular) {
                Some(v) => v,
                None => continue,
            }
        } else {
            (center, theta_raw)
        };
        let r_radius = r_pos.dist(c_use);
        // Definition 3 (c): |r| must be minimal over P around the center.
        let min_all = config.points().iter().map(|p| p.dist(c_use)).fold(f64::INFINITY, f64::min);
        if !tol.eq(r_radius, min_all) {
            continue;
        }
        let r_prime =
            Point::new(c_use.x + r_radius * theta.cos(), c_use.y + r_radius * theta.sin());
        if let Some(found) = verify_shifted(config, c_use, r_idx, members, r_prime, tol) {
            return Some(found);
        }
    }
    None
}

/// Whether the gaps fit the equiangular completion with the merged gap at
/// `t`: `close(gap, target)` holds for gap `t` against `2α` and for every
/// other gap against `α`.
fn merged_at(gaps: &[f64], t: usize, alpha: f64, close: impl Fn(f64, f64) -> bool) -> bool {
    gaps.iter().enumerate().all(|(i, &g)| close(g, if i == t { 2.0 * alpha } else { alpha }))
}

/// Whether the gaps fit in at most three clusters of width `2·angle_eps`,
/// which an exact-center bi-angled completion needs: [`biangular_insertion`]
/// keeps every unsplit gap within `angle_eps` of its class mean `a` or `b`,
/// and the merged gap is the third cluster. The width carries a few ulps of
/// margin for the rounding of the class means, so this never rejects a
/// completion that would pass.
fn in_three_clusters(gaps: &[f64], tol: &Tol) -> bool {
    let width = 2.0 * tol.angle_eps + 8.0 * f64::EPSILON * TAU;
    let mut sorted = gaps.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut clusters = 0;
    let mut start = f64::NEG_INFINITY;
    for g in sorted {
        if g - start > width {
            clusters += 1;
            if clusters > 3 {
                return false;
            }
            start = g;
        }
    }
    true
}

/// Splits merged gap `t` under the bi-angled model and returns the insertion
/// angle, or `None` if the remaining gaps do not alternate consistently.
fn biangular_insertion(
    angles: &[f64],
    gaps: &[f64],
    t: usize,
    q: usize,
    first_sub_is_even: bool,
    loose: bool,
    tol: &Tol,
) -> Option<f64> {
    debug_assert_eq!(gaps.len(), q - 1);
    // Full gap sequence: positions 0..q-1; position of the first sub-gap of
    // the split is `t` (full index), second is t+1; gaps after the split
    // shift by one.
    // Parity classes: full[j] = a if j even else b. Collect constraints from
    // the k−1 unsplit gaps.
    let mut a_est: Vec<f64> = Vec::new();
    let mut b_est: Vec<f64> = Vec::new();
    for (i, &g) in gaps.iter().enumerate() {
        if i == t {
            continue;
        }
        // Full position of this gap.
        let full_pos = if i < t { i } else { i + 1 };
        // Parity convention: let the first sub-gap's parity be fixed by
        // `first_sub_is_even` and infer everything relative to position 0.
        let even = if first_sub_is_even { full_pos % 2 == 0 } else { full_pos % 2 == 1 };
        if even {
            a_est.push(g);
        } else {
            b_est.push(g);
        }
    }
    if a_est.is_empty() || b_est.is_empty() {
        return None;
    }
    let a = a_est.iter().sum::<f64>() / a_est.len() as f64;
    let b = b_est.iter().sum::<f64>() / b_est.len() as f64;
    let band = if loose { BIANGULAR_LOOSE_BAND_FRAC * (a + b) } else { tol.angle_eps };
    if a_est.iter().any(|&g| (g - a).abs() > band) || b_est.iter().any(|&g| (g - b).abs() > band) {
        return None;
    }
    // The two sub-gaps at full positions t and t+1.
    let sub_first = if t.is_multiple_of(2) == first_sub_is_even { a } else { b };
    let sub_second = if (t + 1).is_multiple_of(2) == first_sub_is_even { a } else { b };
    if (sub_first + sub_second - gaps[t]).abs() > band.max(tol.angle_eps) * 2.0 {
        return None;
    }
    // Sanity: the full structure must close up: q/2 * (a + b) = 2π.
    if ((q / 2) as f64 * (a + b) - TAU).abs() > band.max(tol.angle_eps) * q as f64 {
        return None;
    }
    // Equiangular degenerate case is handled elsewhere.
    if (a - b).abs() <= tol.angle_eps {
        return None;
    }
    Some(normalize_angle(angles[t] + sub_first))
}

/// Whole-configuration center refinement: fit the slot model to the members
/// (slots leave a hole where θ' goes) and return the polished center and
/// hole angle.
fn refine_center(
    member_pts: &[Point],
    init: Point,
    theta_hint: f64,
    q: usize,
    biangular: bool,
) -> Option<(Point, f64)> {
    // Build slot assignment: order members and the virtual hole by angle.
    let mut entries: Vec<(f64, Option<usize>)> = member_pts
        .iter()
        .enumerate()
        .map(|(i, &p)| (PolarPoint::from_cartesian(p, init).angle, Some(i)))
        .collect();
    entries.push((normalize_angle(theta_hint), None));
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));
    let hole_slot = entries.iter().position(|(_, i)| i.is_none())?;
    let mut slots: Vec<usize> = Vec::with_capacity(member_pts.len());
    let mut ordered_pts: Vec<Point> = Vec::with_capacity(member_pts.len());
    for (slot, (_, idx)) in entries.iter().enumerate() {
        if let Some(i) = idx {
            slots.push(slot);
            ordered_pts.push(member_pts[*i]);
        }
    }
    let fit = fit_slot_model(&ordered_pts, &slots, q, biangular, init)?;
    let theta = normalize_angle(fit.phi + slot_angle(hole_slot, q, fit.alpha, biangular));
    Some((fit.center, theta))
}

/// Final verification of all Definition 3 conditions for a concrete `r'`.
///
/// Every check is a pure rejection, so their order cannot change a result;
/// the cheap angular ones run before the `reg(P')` rebuild.
fn verify_shifted(
    config: &Configuration,
    center: Point,
    r_idx: usize,
    members: &[usize],
    r_prime: Point,
    tol: &Tol,
) -> Option<ShiftedRegularSet> {
    let r_pos = config.point(r_idx);
    // Non-trivial shift.
    let shift_angle = ang_min(r_pos, center, r_prime);
    if shift_angle <= tol.angle_eps {
        return None;
    }

    // The completed member set must be regular around the center.
    let mut full_pts: Vec<Point> = members.iter().map(|&i| config.point(i)).collect();
    full_pts.push(r_prime);
    let kind = check_regular_around(&full_pts, center, tol)?;

    // ε = angmin(r, c, r') / α_min(P'), must be in (0, 1/4].
    let p_prime = config.with_point_moved(r_idx, r_prime);
    let alpha_min = alpha_min_config(&p_prime, center, tol)?;
    let epsilon = shift_angle / alpha_min;
    if epsilon <= 0.0 || epsilon > epsilon_cap(tol) {
        return None;
    }
    // Condition (b): the shift strictly decreased the robot's minimum angle.
    let amin_r = alpha_min_of_point(config, center, r_pos, r_idx, tol)?;
    let amin_rp = alpha_min_of_point(&p_prime, center, r_prime, r_idx, tol)?;
    if amin_r >= amin_rp {
        return None;
    }

    // Let the Definition 2 machinery confirm the regular set: reg(P') must
    // be exactly the completed set (same size and members: all `members`
    // plus the moved robot).
    let reg = regular_set_of(&p_prime, tol)?;
    if reg.len() != members.len() + 1 {
        return None;
    }
    if !reg.indices.contains(&r_idx) {
        return None;
    }
    if !members.iter().all(|i| reg.indices.contains(i)) {
        return None;
    }

    let mut indices: Vec<usize> = members.to_vec();
    indices.push(r_idx);
    indices.sort_by(|&a, &b| {
        let pa = PolarPoint::from_cartesian(config.point(a), center).angle;
        let pb = PolarPoint::from_cartesian(config.point(b), center).angle;
        pa.total_cmp(&pb)
    });
    Some(ShiftedRegularSet {
        indices,
        center,
        kind,
        shifted_robot: r_idx,
        associated_position: r_prime,
        epsilon,
        min_radius: r_pos.dist(center),
    })
}

/// `α_min(P)` around `center`: the minimum non-zero angle between two
/// half-lines through robots. Returns `None` if a robot is at the center.
fn alpha_min_config(config: &Configuration, center: Point, tol: &Tol) -> Option<f64> {
    let mut angles: Vec<f64> = Vec::with_capacity(config.len());
    for p in config.points() {
        let pp = PolarPoint::from_cartesian(*p, center);
        if tol.is_zero(pp.radius) {
            return None;
        }
        angles.push(pp.angle);
    }
    angles.sort_by(f64::total_cmp);
    let n = angles.len();
    let mut best = f64::INFINITY;
    for i in 0..n {
        let g = normalize_angle(angles[(i + 1) % n] - angles[i]);
        if g > tol.angle_eps && g < best {
            best = g;
        }
    }
    if best.is_finite() {
        Some(best)
    } else {
        None
    }
}

/// `α_min(p, M)` around `center`: the minimum non-zero angle between `p`'s
/// half-line and another robot's half-line. `self_idx` marks which robot in
/// the configuration *is* `p` (it is skipped).
fn alpha_min_of_point(
    config: &Configuration,
    center: Point,
    p: Point,
    self_idx: usize,
    tol: &Tol,
) -> Option<f64> {
    let pa = PolarPoint::from_cartesian(p, center);
    if tol.is_zero(pa.radius) {
        return None;
    }
    let mut best = f64::INFINITY;
    for (i, q) in config.points().iter().enumerate() {
        if i == self_idx {
            continue;
        }
        let qa = PolarPoint::from_cartesian(*q, center);
        if tol.is_zero(qa.radius) {
            continue;
        }
        let d = signed_angle_diff(pa.angle, qa.angle).abs();
        if d > tol.angle_eps && d < best {
            best = d;
        }
    }
    if best.is_finite() {
        Some(best)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> Tol {
        Tol::default()
    }

    /// An equiangular set of `m` robots around `c` with the given radii,
    /// where robot `shift_idx` is rotated by `shift_frac · α_min` on its
    /// circle (toward its successor), plus `outer` extra robots farther out
    /// forming an `m`-compatible ring when `outer > 0`.
    fn shifted_equiangular(
        c: Point,
        m: usize,
        radii: &[f64],
        shift_idx: usize,
        shift_frac: f64,
    ) -> Vec<Point> {
        let alpha = TAU / m as f64;
        (0..m)
            .map(|i| {
                let mut a = alpha * i as f64 + 0.3;
                if i == shift_idx {
                    a += shift_frac * alpha;
                }
                let r = radii[i % radii.len()];
                Point::new(c.x + r * a.cos(), c.y + r * a.sin())
            })
            .collect()
    }

    #[test]
    fn whole_config_shifted_equiangular_same_radius() {
        let c = Point::new(1.0, -2.0);
        let pts = shifted_equiangular(c, 8, &[2.0], 3, 0.125);
        let cfg = Configuration::new(pts);
        let s = find_shifted_regular(&cfg, &tol()).expect("shifted set expected");
        assert_eq!(s.shifted_robot, 3);
        assert_eq!(s.len(), 8);
        assert!(s.center.approx_eq(c, &Tol::new(1e-5)), "center {}", s.center);
        assert!((s.epsilon - 0.125).abs() < 1e-3, "epsilon {}", s.epsilon);
    }

    #[test]
    fn whole_config_shifted_detects_smallest_radius_condition() {
        // The shifted robot must be at minimal radius; here it is.
        let c = Point::ORIGIN;
        let mut pts = shifted_equiangular(c, 7, &[1.0], 2, 0.2);
        // Push all non-shifted robots out a bit so robot 2 is strictly
        // closest — radial moves preserve regularity.
        for (i, p) in pts.iter_mut().enumerate() {
            if i != 2 {
                *p = Point::new(p.x * 1.5, p.y * 1.5);
            }
        }
        let cfg = Configuration::new(pts);
        let s = find_shifted_regular(&cfg, &tol()).expect("shifted set expected");
        assert_eq!(s.shifted_robot, 2);
        assert!((s.epsilon - 0.2).abs() < 1e-3);
    }

    #[test]
    fn subset_shifted_set_around_sec_center() {
        // Outer ring of 6 at radius 2 (rest), inner shifted 3-set at radius
        // ~0.8 around the SEC center.
        let mut pts: Vec<Point> = Vec::new();
        // Inner equiangular 3-set with robot 0 shifted by ε = 1/8 of
        // α_min(P'). α_min(P') is set by the 0.05 offset between robot 0's
        // regular half-line and the outer robot at angle 0; the shift must
        // *decrease* that minimum angle (Definition 3 (b)), i.e. go toward
        // the outer robot's half-line.
        let alpha = TAU / 3.0;
        for i in 0..3 {
            let mut a = alpha * i as f64 + 0.05;
            if i == 0 {
                a -= 0.125 * 0.05;
            }
            pts.push(Point::new(0.8 * a.cos(), 0.8 * a.sin()));
        }
        // Outer ring of 6 (ρ = 6, 3 | 6).
        for i in 0..6 {
            let a = TAU * i as f64 / 6.0;
            pts.push(Point::new(2.0 * a.cos(), 2.0 * a.sin()));
        }
        let cfg = Configuration::new(pts);
        let s = find_shifted_regular(&cfg, &tol()).expect("subset shifted set expected");
        assert_eq!(s.shifted_robot, 0);
        assert_eq!(s.len(), 3);
        assert!(s.center.approx_eq(Point::ORIGIN, &Tol::new(1e-6)));
        assert!(s.epsilon > 0.0 && s.epsilon <= 0.25 + 1e-6);
    }

    #[test]
    fn unshifted_regular_config_is_not_shifted() {
        let pts = shifted_equiangular(Point::ORIGIN, 8, &[1.0, 1.5], 0, 0.0);
        let cfg = Configuration::new(pts);
        assert!(find_shifted_regular(&cfg, &tol()).is_none());
    }

    #[test]
    fn random_config_is_not_shifted() {
        let pts = vec![
            Point::new(0.9, 0.1),
            Point::new(-0.3, 1.1),
            Point::new(-1.0, -0.4),
            Point::new(0.2, -0.8),
            Point::new(0.6, 0.7),
            Point::new(-0.7, 0.5),
            Point::new(0.1, 0.4),
        ];
        let cfg = Configuration::new(pts);
        assert!(find_shifted_regular(&cfg, &tol()).is_none());
    }

    #[test]
    fn shift_beyond_quarter_is_rejected() {
        let pts = shifted_equiangular(Point::ORIGIN, 8, &[1.0], 3, 0.4);
        let cfg = Configuration::new(pts);
        assert!(find_shifted_regular(&cfg, &tol()).is_none());
    }

    #[test]
    fn biangular_whole_config_shifted() {
        // Bi-angled 8-set (pairs 0.35 / (π/2 − 0.35)), equal radii, robot 1
        // shifted by 1/8 of α_min = 1/8 · 0.35.
        let alpha = 0.35;
        let beta = TAU / 4.0 - alpha;
        let mut pts = Vec::new();
        let mut angle: f64 = 0.1;
        for i in 0..8 {
            let mut a = angle;
            if i == 1 {
                a -= alpha * 0.125; // shift toward predecessor
            }
            pts.push(Point::new(a.cos(), a.sin()));
            angle += if i % 2 == 0 { alpha } else { beta };
        }
        let cfg = Configuration::new(pts);
        let s = find_shifted_regular(&cfg, &tol()).expect("biangular shifted set");
        assert_eq!(s.shifted_robot, 1);
        assert!(s.kind.is_biangular());
        assert!((s.epsilon - 0.125).abs() < 1e-2, "epsilon {}", s.epsilon);
    }

    #[test]
    fn shifted_detection_unique_for_large_n() {
        // Theorem 1: uniqueness for n ≥ 7 — the detector must identify the
        // one true shifted robot, not an alternative completion.
        for m in [7usize, 9, 12] {
            let pts = shifted_equiangular(Point::new(0.5, 0.5), m, &[1.0], 1, 0.125);
            let cfg = Configuration::new(pts);
            let s = find_shifted_regular(&cfg, &tol()).expect("shifted set expected");
            assert_eq!(s.shifted_robot, 1, "m = {m}");
        }
    }

    #[test]
    fn alpha_min_helpers() {
        let pts = vec![Point::new(1.0, 0.0), Point::new(0.0, 1.0), Point::new(-1.0, 0.2)];
        let cfg = Configuration::new(pts);
        let am = alpha_min_config(&cfg, Point::ORIGIN, &tol()).unwrap();
        assert!(am > 0.0 && am <= TAU / 3.0 + 1.0);
        let ap = alpha_min_of_point(&cfg, Point::ORIGIN, Point::new(1.0, 0.0), 0, &tol()).unwrap();
        assert!((ap - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn radial_member_moves_preserve_shifted_detection() {
        // After the shift is created, members may move radially (M4): the
        // shifted set must remain detectable with the same shifted robot.
        let c = Point::ORIGIN;
        let mut pts = shifted_equiangular(c, 8, &[1.0], 3, 0.125);
        // Move two non-shifted members radially outwards.
        pts[0] = Point::new(pts[0].x * 1.4, pts[0].y * 1.4);
        pts[5] = Point::new(pts[5].x * 1.2, pts[5].y * 1.2);
        let cfg = Configuration::new(pts);
        let s = find_shifted_regular(&cfg, &tol()).expect("still shifted");
        assert_eq!(s.shifted_robot, 3);
    }
}
