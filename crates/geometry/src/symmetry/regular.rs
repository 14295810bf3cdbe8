//! `m`-regular and bi-angled sets (Definition 1) and the regular set
//! `reg(P)` of a configuration (Definition 2).
//!
//! A set `M` of `m ≥ 2` robots is *`m`-regular* around a center `c` when the
//! half-lines from `c` through the robots have pairwise-equal consecutive
//! angles `α = 2π/m`, and *bi-angled* (the paper's "`m/2`-regular") when the
//! consecutive angles alternate between two values `α, β`. Exactly one robot
//! sits on each half-line; radii are arbitrary — which is what lets robots
//! move radially (toward/away from `c`) without destroying regularity.
//!
//! The center of a regular set is its Weber point (Anderegg–Cieliebak–
//! Prencipe); we find it with a fast path (the smallest-enclosing-circle
//! center), a Weiszfeld iteration fallback, and a Gauss–Newton polish, then
//! *verify* the angular structure around the candidate center, so a returned
//! center is always a checked one.

use crate::angle::{normalize_angle, signed_angle_diff};
use crate::config::Configuration;
use crate::point::Point;
use crate::polar::PolarPoint;
use crate::symmetry::consts::{coarse_tol, SLOT_FIT_STALL_FACTOR};
use crate::symmetry::rho::{reflection_maps_to_self, symmetricity};
use crate::symmetry::views::ViewAnalysis;
use crate::tol::Tol;
use crate::weber::weber_point;
use std::f64::consts::{PI, TAU};

/// The angular structure of a regular set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegularKind {
    /// Equiangular: all consecutive half-line angles equal `alpha = 2π/m`.
    Equiangular {
        /// The common angle between consecutive half-lines.
        alpha: f64,
    },
    /// Bi-angled: consecutive angles alternate `alpha, beta` (with
    /// `alpha ≠ beta`); `first_gap_is_alpha` records the phase relative to
    /// the robots sorted by angle around the center.
    Biangular {
        /// Gap after the angularly-first robot (by convention).
        alpha: f64,
        /// The alternating gap.
        beta: f64,
    },
}

impl RegularKind {
    /// The minimum consecutive half-line angle of the set.
    pub fn min_gap(&self) -> f64 {
        match *self {
            RegularKind::Equiangular { alpha } => alpha,
            RegularKind::Biangular { alpha, beta } => alpha.min(beta),
        }
    }

    /// Whether the structure is bi-angled.
    pub fn is_biangular(&self) -> bool {
        matches!(self, RegularKind::Biangular { .. })
    }
}

/// A detected regular set inside a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RegularSet {
    /// Indices (into the configuration) of the member robots, sorted by
    /// angle around [`Self::center`].
    pub indices: Vec<usize>,
    /// The regularity center (equals `c(P)` whenever the set is a strict
    /// subset of the configuration).
    pub center: Point,
    /// Angular structure.
    pub kind: RegularKind,
}

impl RegularSet {
    /// Number of member robots `m`.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Never empty (regular sets have `m ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The paper's `m` for condition (b) of Definition 2: the rotational
    /// order of the half-line structure — the cardinality for equiangular
    /// sets, half of it for bi-angled sets (a bi-angled set of `q` robots is
    /// the paper's "`q/2`-regular" set).
    pub fn divisor_m(&self) -> usize {
        if self.kind.is_biangular() {
            self.indices.len() / 2
        } else {
            self.indices.len()
        }
    }

    /// Virtual axes of symmetry (bi-angled sets only): the bisector lines of
    /// consecutive half-line pairs, as angles in `[0, π)`.
    pub fn virtual_axes(&self, config: &Configuration, tol: &Tol) -> Vec<f64> {
        if !self.kind.is_biangular() {
            return vec![];
        }
        let polar: Vec<PolarPoint> = self
            .indices
            .iter()
            .map(|&i| PolarPoint::from_cartesian(config.point(i), self.center))
            .collect();
        let mut angles: Vec<f64> = polar.iter().map(|p| p.angle).collect();
        angles.sort_by(f64::total_cmp);
        let m = angles.len();
        let mut axes: Vec<f64> = (0..m)
            .map(|i| {
                let a = angles[i];
                let b = angles[(i + 1) % m];
                let gap = normalize_angle(b - a);
                normalize_angle(a + gap / 2.0) % PI
            })
            .collect();
        axes.sort_by(f64::total_cmp);
        axes.dedup_by(|a, b| (*a - *b).abs() <= tol.angle_eps);
        axes
    }

    /// Member positions, sorted by angle around the center.
    pub fn points(&self, config: &Configuration) -> Vec<Point> {
        self.indices.iter().map(|&i| config.point(i)).collect()
    }
}

/// Checks whether `points` form a regular (equiangular or bi-angled) set
/// around the given `center` (Definition 1).
///
/// Returns the detected [`RegularKind`], or `None` if the set is not regular
/// around that center: fewer than two points, a point on the center, two
/// points on one half-line, or irregular gaps.
pub fn check_regular_around(points: &[Point], center: Point, tol: &Tol) -> Option<RegularKind> {
    let m = points.len();
    if m < 2 {
        return None;
    }
    let mut polar: Vec<PolarPoint> =
        points.iter().map(|&p| PolarPoint::from_cartesian(p, center)).collect();
    if polar.iter().any(|p| tol.is_zero(p.radius)) {
        return None;
    }
    polar.sort_by(|a, b| a.angle.total_cmp(&b.angle));

    let gaps: Vec<f64> =
        (0..m).map(|i| normalize_angle(polar[(i + 1) % m].angle - polar[i].angle)).collect();
    // Two robots on one half-line make a (near-)zero gap.
    if gaps.iter().any(|&g| tol.ang_is_zero(g)) {
        return None;
    }
    debug_assert!((gaps.iter().sum::<f64>() - TAU).abs() < 1e-6);

    let alpha_eq = TAU / m as f64;
    if gaps.iter().all(|&g| tol.ang_eq(g, alpha_eq)) {
        return Some(RegularKind::Equiangular { alpha: alpha_eq });
    }

    if m.is_multiple_of(2) {
        let a = gaps[0];
        let b = gaps[1];
        let alternates = gaps.iter().enumerate().all(|(i, &g)| {
            if i % 2 == 0 {
                tol.ang_eq(g, a)
            } else {
                tol.ang_eq(g, b)
            }
        });
        if alternates && !tol.ang_eq(a, b) {
            return Some(RegularKind::Biangular { alpha: a, beta: b });
        }
    }
    None
}

/// Finds a center around which `points` form a regular set, if any.
///
/// Strategy: try the smallest-enclosing-circle center (exact for same-radius
/// regular sets), then the Weber point via Weiszfeld iteration with a
/// Gauss–Newton polish. Every candidate is *verified* with
/// [`check_regular_around`] before being returned.
pub fn find_regular_center(points: &[Point], tol: &Tol) -> Option<(Point, RegularKind)> {
    if points.len() < 2 {
        return None;
    }
    // Fast path: SEC center.
    let sec = crate::circle::smallest_enclosing_circle(points);
    if let Some(kind) = check_regular_around(points, sec.center, tol) {
        return Some((sec.center, kind));
    }
    if points.len() == 2 {
        // Any two distinct points are bi-angled around their midpoint — but a
        // 2-point set is only *equiangular* (α = π) around any point of the
        // open segment; the canonical center is the midpoint = SEC center,
        // already tried. Nothing else to find.
        return None;
    }

    // Weber point candidate.
    let w = weber_point(points);
    let coarse = coarse_tol(tol);
    if check_regular_around(points, w, &coarse).is_some() {
        // Polish to full tolerance.
        for biangular in [false, true] {
            if let Some(c) = polish_regular_center(points, w, biangular, tol) {
                if let Some(kind) = check_regular_around(points, c, tol) {
                    return Some((c, kind));
                }
            }
        }
        // Maybe Weiszfeld already converged tightly enough.
        if let Some(kind) = check_regular_around(points, w, tol) {
            return Some((w, kind));
        }
    }
    None
}

/// Computes the regular set `reg(P)` of a configuration (Definition 2).
///
/// * If the whole configuration is regular (around *some* center — its Weber
///   point), `reg(P) = P`.
/// * Otherwise `reg(P)` is the largest candidate subset `Q` such that
///   (a) `Q` is regular around `c(P)`, (b) the rotational order `m` of `Q`
///   (its size for equiangular sets, half of it for bi-angled ones) divides
///   `ρ(P ∖ Q)`, and (c) if `Q` is bi-angled its virtual axes are axes of
///   symmetry of `P ∖ Q`.
///
/// # Candidate enumeration (engineering decision)
///
/// The paper enumerates prefixes of the robots ordered by decreasing local
/// view. That ordering is *not stable* under the radial election movements
/// the algorithm performs on the set (radial moves change views but must
/// preserve the detected set — paper Property 2). We therefore enumerate, in
/// order of preference:
///
/// 1. **radius prefixes** — the `j` robots closest to `c(P)` (well defined
///    only at strict radius boundaries). These are exactly the sets the
///    election manages: movements (M1)/(M4) keep members strictly inside the
///    innermost non-member (`D_max`), so membership is stable across steps;
/// 2. **view prefixes** — the paper's `Q_i` sequence (robots that do not
///    hold `C(P)`, ordered by decreasing view, cut at view-class
///    boundaries), as a fallback for configurations whose regular structure
///    is not radially innermost.
///
/// Both enumerations are computed identically by every robot from the
/// snapshot, so the choice is canonical. Within a family the *largest*
/// qualifying set wins, as in the paper.
///
/// Returns `None` when the configuration contains a robot at `c(P)` (the
/// paper's definitions assume `c(P) ∉ P`) or no candidate qualifies.
pub fn regular_set_of(config: &Configuration, tol: &Tol) -> Option<RegularSet> {
    let _span = apf_trace::span::enter(apf_trace::SpanLabel::Regular);
    let n = config.len();
    let c_sec = config.sec().center;
    if config.points().iter().any(|p| p.approx_eq(c_sec, tol)) {
        return None;
    }

    // Family 1: radius prefixes, largest first.
    //
    // Checked *before* the whole-configuration case (a deliberate deviation
    // from Definition 2's ordering): when a proper subset qualifies, the
    // election operates on it with the innermost non-member circle as a
    // hard outer barrier, which keeps the configuration's scale stable. A
    // whole-configuration regular set gives the election no barrier
    // (`d = ∞`), and the subsequent "descend to the shifted robot's circle"
    // stage then contracts the entire configuration — legitimate under
    // exact arithmetic, but it degrades the conditioning of every
    // tolerance-based predicate. See DESIGN.md.
    let mut by_radius: Vec<usize> = (0..n).collect();
    by_radius.sort_by(|&a, &b| {
        let ra = config.point(a).dist(c_sec);
        let rb = config.point(b).dist(c_sec);
        ra.total_cmp(&rb)
    });
    let radii: Vec<f64> = by_radius.iter().map(|&i| config.point(i).dist(c_sec)).collect();
    let mut radius_cuts: Vec<usize> = Vec::new();
    for j in 2..n {
        // Prefix of size j is well defined iff radius strictly increases.
        if tol.lt(radii[j - 1], radii[j]) {
            radius_cuts.push(j);
        }
    }
    for &j in radius_cuts.iter().rev() {
        if let Some(rs) = qualify_candidate(config, &by_radius[..j], c_sec, tol) {
            return Some(rs);
        }
    }

    // Whole-configuration regular set (center may differ from c(P)).
    if let Some((center, kind)) = find_regular_center(config.points(), tol) {
        let mut indices: Vec<usize> = (0..n).collect();
        sort_by_angle(&mut indices, config, center);
        return Some(RegularSet { indices, center, kind });
    }

    // Family 2: the paper's view-prefix sequence.
    let va = ViewAnalysis::compute(config, c_sec, tol);
    let holders = config.sec_holders(tol);
    let eligible: Vec<usize> =
        va.indices_by_view_desc().into_iter().filter(|&i| !holders[i]).collect();
    let mut cuts: Vec<usize> = Vec::new();
    for i in 0..eligible.len() {
        let boundary = i + 1 == eligible.len() || va.view(eligible[i + 1]) != va.view(eligible[i]);
        if boundary {
            cuts.push(i + 1);
        }
    }
    for &sz in cuts.iter().rev() {
        if sz < 2 || sz >= n {
            continue;
        }
        if let Some(rs) = qualify_candidate(config, &eligible[..sz], c_sec, tol) {
            return Some(rs);
        }
    }
    None
}

/// Checks Definition 2's conditions (a)–(c) for one candidate member set.
fn qualify_candidate(
    config: &Configuration,
    q: &[usize],
    c_sec: Point,
    tol: &Tol,
) -> Option<RegularSet> {
    let n = config.len();
    if q.len() < 2 || q.len() >= n {
        return None;
    }
    let q_points: Vec<Point> = q.iter().map(|&i| config.point(i)).collect();
    let kind = check_regular_around(&q_points, c_sec, tol)?;

    let rest: Vec<Point> = (0..n).filter(|i| !q.contains(i)).map(|i| config.point(i)).collect();
    // Condition (b): the rotational order of the half-line structure divides
    // ρ(rest).
    let m = if kind.is_biangular() { q.len() / 2 } else { q.len() };
    if !rest.is_empty() && m > 1 {
        let rest_cfg = Configuration::new(rest.clone());
        let rho_rest = symmetricity(&rest_cfg, c_sec, tol);
        if !rho_rest.is_multiple_of(m) {
            return None;
        }
    }
    let mut idx_sorted = q.to_vec();
    sort_by_angle(&mut idx_sorted, config, c_sec);
    let candidate = RegularSet { indices: idx_sorted, center: c_sec, kind };
    // Condition (c): bi-angled virtual axes must be axes of the rest.
    if kind.is_biangular() && !rest.is_empty() {
        let axes = candidate.virtual_axes(config, tol);
        let rest_polar: Vec<PolarPoint> =
            rest.iter().map(|&p| PolarPoint::from_cartesian(p, c_sec)).collect();
        if !axes.iter().all(|&phi| reflection_maps_to_self(&rest_polar, phi, tol)) {
            return None;
        }
    }
    Some(candidate)
}

fn sort_by_angle(indices: &mut [usize], config: &Configuration, center: Point) {
    indices.sort_by(|&a, &b| {
        let pa = PolarPoint::from_cartesian(config.point(a), center);
        let pb = PolarPoint::from_cartesian(config.point(b), center);
        pa.angle.total_cmp(&pb.angle)
    });
}

/// Gauss–Newton refinement of a regular-set center from an initial guess.
///
/// Fits the model `θ_i(c) = φ + slot_i(α)` (slots fixed by the angular order
/// around the initial guess) for the unknowns `c = (cx, cy)`, the phase `φ`,
/// and — for bi-angled sets — the gap `α` (with `β = 4π/m − α`).
fn polish_regular_center(
    points: &[Point],
    init: Point,
    biangular: bool,
    tol: &Tol,
) -> Option<Point> {
    let m = points.len();
    let slots: Vec<usize> = (0..m).collect();
    fit_slot_model(points, &slots, m, biangular, init, tol).map(|fit| fit.center)
}

/// Result of a slot-model fit (see [`fit_slot_model`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotFit {
    /// Fitted center of regularity.
    pub center: Point,
    /// Fitted phase: the angle of slot 0.
    pub phi: f64,
    /// Fitted first gap `α` (equals `2π/total_slots` for equiangular fits).
    pub alpha: f64,
}

/// Gauss–Newton iterations a slot fit runs at most.
const SLOT_FIT_MAX_ITERATIONS: usize = 80;

/// Fits the "regular set with slots" model: `points[i]` sits on the half-line
/// at angle `φ + slot_angle(slots[i])` from an unknown center, where the
/// full structure has `total_slots` half-lines with gap `α` (equiangular) or
/// alternating `α, β = 4π/total_slots − α` (biangular).
///
/// `points` are matched to `slots` in *angular order around `init`*; the
/// caller supplies `slots` sorted ascending (slot indices may skip values —
/// that is how a "regular set with a hole" is fitted for shifted-set
/// recovery).
///
/// Returns `None` when the system is singular, a point collapses onto the
/// center, the iteration leaves the model's domain, or the fit stalls on a
/// misfit: a step moves the iterate by less than 1e-12 while the largest
/// residual is still above [`SLOT_FIT_STALL_FACTOR`] times `tol.angle_eps`.
/// No center that passes the caller's `tol` check leaves such a residual
/// (see the constant), and a stalled iterate creeps on by less than 1e-9 up
/// to the iteration cap, so the exit only skips fits that cannot verify.
/// The fit is *not* verified here — callers must re-check regularity around
/// the returned center.
pub(crate) fn fit_slot_model(
    points: &[Point],
    slots: &[usize],
    total_slots: usize,
    biangular: bool,
    init: Point,
    tol: &Tol,
) -> Option<SlotFit> {
    let mut fit = SlotIteration::start(points, slots, total_slots, biangular, init)?;
    let stall_resid = SLOT_FIT_STALL_FACTOR * tol.angle_eps;
    for _ in 0..SLOT_FIT_MAX_ITERATIONS {
        let (step, max_resid) = fit.step()?;
        if step < 1e-14 && max_resid < 1e-10 {
            break;
        }
        if step < 1e-12 && max_resid > stall_resid {
            return None;
        }
    }
    Some(fit.current())
}

/// One Gauss–Newton run of the slot model: the points' angular order around
/// the initial guess, fixed at the start, and the current iterate.
struct SlotIteration<'a> {
    points: &'a [Point],
    slots: &'a [usize],
    order: Vec<usize>,
    total_slots: usize,
    biangular: bool,
    center: Point,
    phi: f64,
    alpha: f64,
}

impl<'a> SlotIteration<'a> {
    /// Orders the points around `init` and seeds the phase and gap from the
    /// first two; `None` for a bi-angled model with an odd slot count.
    fn start(
        points: &'a [Point],
        slots: &'a [usize],
        total_slots: usize,
        biangular: bool,
        init: Point,
    ) -> Option<Self> {
        assert_eq!(points.len(), slots.len());
        let m = total_slots;
        if biangular && !m.is_multiple_of(2) {
            return None;
        }
        // Order points by angle around the initial center; slots follow that
        // order.
        let mut order: Vec<usize> = (0..points.len()).collect();
        let init_polar: Vec<PolarPoint> =
            points.iter().map(|&p| PolarPoint::from_cartesian(p, init)).collect();
        order.sort_by(|&a, &b| init_polar[a].angle.total_cmp(&init_polar[b].angle));

        let alpha = if biangular {
            // Initial guess: the gap between the first two points scaled to
            // the slot distance between them, clamped into the valid range.
            let g = normalize_angle(init_polar[order[1]].angle - init_polar[order[0]].angle);
            let span = (slots[1] - slots[0]).max(1);
            (g / span as f64).clamp(1e-3, 2.0 * TAU / m as f64 - 1e-3)
        } else {
            TAU / m as f64
        };
        let phi = init_polar[order[0]].angle - slot_angle(slots[0], m, alpha, biangular);
        Some(SlotIteration {
            points,
            slots,
            order,
            total_slots,
            biangular,
            center: init,
            phi,
            alpha,
        })
    }

    /// One Gauss–Newton step. Returns the step length over the unknowns
    /// `(cx, cy, φ[, α])` and the largest residual at the iterate the step
    /// started from, or `None` when the system is singular, a point
    /// collapses onto the center, or `α` leaves the model's domain.
    fn step(&mut self) -> Option<(f64, f64)> {
        let m = self.total_slots;
        let biangular = self.biangular;
        // Unknowns (cx, cy, φ[, α]) in fixed-size arrays: the equiangular
        // fit uses the leading 3×3 block only.
        let unknowns = if biangular { 4 } else { 3 };
        // Build normal equations J^T J x = J^T r.
        let mut ata = [[0.0; 4]; 4];
        let mut atb = [0.0; 4];
        let mut max_resid: f64 = 0.0;
        for (pos, &pi) in self.order.iter().enumerate() {
            let slot = self.slots[pos];
            let v = self.points[pi] - self.center;
            let r = v.norm();
            if r < 1e-12 {
                return None;
            }
            let theta = v.angle();
            let model = self.phi + slot_angle(slot, m, self.alpha, biangular);
            let resid = signed_angle_diff(normalize_angle(model), normalize_angle(theta));
            max_resid = max_resid.max(resid.abs());
            // d(theta)/d(cx) = sin(theta)/r ; d(theta)/d(cy) = -cos(theta)/r
            // residual = theta - model, so d(resid)/d(param):
            let d_alpha = if biangular { -slot_alpha_derivative(slot, m) } else { 0.0 };
            let jrow = [theta.sin() / r, -theta.cos() / r, -1.0, d_alpha];
            for a in 0..unknowns {
                for b in 0..unknowns {
                    ata[a][b] += jrow[a] * jrow[b];
                }
                atb[a] += jrow[a] * resid;
            }
        }
        let dx = solve_linear(&mut ata, &mut atb, unknowns)?;
        self.center = Point::new(self.center.x - dx[0], self.center.y - dx[1]);
        self.phi -= dx[2];
        if biangular {
            self.alpha -= dx[3];
            if !(1e-9..TAU).contains(&self.alpha) {
                return None;
            }
        }
        let step = (dx[..unknowns].iter().map(|d| d * d).sum::<f64>()).sqrt();
        Some((step, max_resid))
    }

    /// The current iterate as a fit.
    fn current(&self) -> SlotFit {
        SlotFit { center: self.center, phi: normalize_angle(self.phi), alpha: self.alpha }
    }
}

/// Angle offset of slot `i` from slot 0, under the gap model.
pub(crate) fn slot_angle(i: usize, m: usize, alpha: f64, biangular: bool) -> f64 {
    if !biangular {
        return i as f64 * alpha;
    }
    let beta = 2.0 * TAU / m as f64 - alpha;
    let a_count = i.div_ceil(2) as f64;
    let b_count = (i / 2) as f64;
    a_count * alpha + b_count * beta
}

/// `d(slot_angle)/d(alpha)` for the bi-angled model (`β = 4π/m − α`).
fn slot_alpha_derivative(i: usize, _m: usize) -> f64 {
    let a_count = i.div_ceil(2) as f64;
    let b_count = (i / 2) as f64;
    a_count - b_count
}

/// Solves the leading `n × n` block (`n ≤ 4`) of a small dense linear system
/// in place by Gaussian elimination with partial pivoting. Returns `None` for
/// (near-)singular systems; entries of the solution past `n` are zero.
fn solve_linear(a: &mut [[f64; 4]; 4], b: &mut [f64; 4], n: usize) -> Option<[f64; 4]> {
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for row in (col + 1)..n {
            if a[row][col].abs() > a[piv][col].abs() {
                piv = row;
            }
        }
        if a[piv][col].abs() < 1e-14 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        for row in (col + 1)..n {
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot = &pivot_rows[col];
            let cur = &mut rest[0];
            let f = cur[col] / pivot[col];
            // apf-lint: allow(zip-length-mismatch) — both sides are the col..n range of same-length matrix rows
            for (x, p) in cur[col..n].iter_mut().zip(&pivot[col..n]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; 4];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in (col + 1)..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> Tol {
        Tol::default()
    }

    fn equiangular(c: Point, m: usize, phase: f64, radii: &[f64]) -> Vec<Point> {
        (0..m)
            .map(|i| {
                let a = TAU * i as f64 / m as f64 + phase;
                let r = radii[i % radii.len()];
                Point::new(c.x + r * a.cos(), c.y + r * a.sin())
            })
            .collect()
    }

    fn biangular(c: Point, pairs: usize, alpha: f64, phase: f64, radii: &[f64]) -> Vec<Point> {
        let m = 2 * pairs;
        let beta = 2.0 * TAU / m as f64 - alpha;
        let mut angle = phase;
        (0..m)
            .map(|i| {
                let r = radii[i % radii.len()];
                let p = Point::new(c.x + r * angle.cos(), c.y + r * angle.sin());
                angle += if i % 2 == 0 { alpha } else { beta };
                p
            })
            .collect()
    }

    #[test]
    fn check_equiangular_same_radius() {
        let pts = equiangular(Point::ORIGIN, 5, 0.3, &[1.0]);
        let kind = check_regular_around(&pts, Point::ORIGIN, &tol()).unwrap();
        assert!(matches!(kind, RegularKind::Equiangular { .. }));
        assert!((kind.min_gap() - TAU / 5.0).abs() < 1e-9);
    }

    #[test]
    fn check_equiangular_mixed_radii() {
        let pts = equiangular(Point::new(2.0, -1.0), 7, 0.1, &[1.0, 2.5, 0.8]);
        assert!(check_regular_around(&pts, Point::new(2.0, -1.0), &tol()).is_some());
    }

    #[test]
    fn check_biangular() {
        let pts = biangular(Point::ORIGIN, 3, 0.5, 0.2, &[1.0, 1.7]);
        let kind = check_regular_around(&pts, Point::ORIGIN, &tol()).unwrap();
        assert!(kind.is_biangular());
        assert!((kind.min_gap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reject_irregular() {
        let pts = vec![
            Point::new(1.0, 0.0),
            Point::new(0.2, 0.9),
            Point::new(-1.0, 0.3),
            Point::new(0.1, -1.2),
            Point::new(0.8, -0.6),
        ];
        assert!(check_regular_around(&pts, Point::ORIGIN, &tol()).is_none());
    }

    #[test]
    fn reject_two_on_same_halfline() {
        let pts = vec![
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0), // same half-line as the first
            Point::new(-1.0, 1.0),
            Point::new(-1.0, -1.0),
        ];
        assert!(check_regular_around(&pts, Point::ORIGIN, &tol()).is_none());
    }

    #[test]
    fn reject_point_at_center() {
        let mut pts = equiangular(Point::ORIGIN, 4, 0.0, &[1.0]);
        pts.push(Point::ORIGIN);
        assert!(check_regular_around(&pts, Point::ORIGIN, &tol()).is_none());
    }

    #[test]
    fn find_center_same_radius_via_sec() {
        let c = Point::new(3.0, 4.0);
        let pts = equiangular(c, 6, 0.7, &[2.0]);
        let (found, kind) = find_regular_center(&pts, &tol()).unwrap();
        assert!(found.approx_eq(c, &Tol::new(1e-6)));
        assert!(matches!(kind, RegularKind::Equiangular { .. }));
    }

    #[test]
    fn find_center_mixed_radii_via_weber() {
        // Radii differ, so the SEC center is NOT the regular center; the
        // Weber path must recover it.
        let c = Point::new(-1.0, 2.0);
        let pts = equiangular(c, 7, 0.25, &[1.0, 2.0, 1.4, 0.7]);
        let (found, kind) = find_regular_center(&pts, &tol()).unwrap();
        assert!(found.approx_eq(c, &Tol::new(1e-6)), "found {found}");
        assert!(matches!(kind, RegularKind::Equiangular { .. }));
    }

    #[test]
    fn find_center_biangular_mixed_radii() {
        let c = Point::new(0.5, -0.5);
        // Symmetric radii pattern keeps the Weber point at the center.
        let pts = biangular(c, 4, 0.4, 0.15, &[1.0, 1.8]);
        let (found, kind) = find_regular_center(&pts, &tol()).unwrap();
        assert!(found.approx_eq(c, &Tol::new(1e-6)), "found {found}");
        assert!(kind.is_biangular());
    }

    #[test]
    fn find_center_none_for_random_points() {
        let pts = vec![
            Point::new(0.9, 0.1),
            Point::new(-0.3, 1.1),
            Point::new(-1.0, -0.4),
            Point::new(0.2, -0.8),
            Point::new(0.6, 0.7),
        ];
        assert!(find_regular_center(&pts, &tol()).is_none());
    }

    #[test]
    fn whole_config_regular_set() {
        // All robots on one circle around an off-origin center: no radius
        // prefix exists (no strict radius boundary), so the whole
        // configuration is returned with its true (Weber) center.
        let c = Point::new(1.0, 1.0);
        let pts = equiangular(c, 8, 0.0, &[1.0]);
        let cfg = Configuration::new(pts);
        let reg = regular_set_of(&cfg, &tol()).expect("whole config is regular");
        assert_eq!(reg.len(), 8);
        assert!(reg.center.approx_eq(c, &Tol::new(1e-6)));
    }

    #[test]
    fn radius_prefix_preferred_over_whole_config() {
        // Mixed radii: the innermost equiangular subset qualifies as a
        // radius prefix and is preferred over the whole-configuration set
        // (see the candidate-enumeration note on `regular_set_of`).
        let c = Point::new(1.0, 1.0);
        let pts = equiangular(c, 8, 0.0, &[1.0, 1.5]);
        let cfg = Configuration::new(pts);
        let reg = regular_set_of(&cfg, &tol()).expect("regular structure expected");
        // Whichever family wins, the result is a genuine regular set.
        let member_pts = reg.points(&cfg);
        assert!(check_regular_around(&member_pts, reg.center, &tol()).is_some());
        assert!(reg.len() == 4 || reg.len() == 8, "got {}", reg.len());
    }

    #[test]
    fn strict_subset_regular_set() {
        // Outer ring of 8 (holds the SEC, ρ = 8) + inner square rotated so it
        // is NOT part of the 8-fold symmetry: inner 4 have the greatest view
        // (closest to center ⇒ largest scaled radii? view order may vary) —
        // we only require that *a* regular set containing the inner square is
        // found with center c(P).
        let mut pts = equiangular(Point::ORIGIN, 8, 0.0, &[2.0]);
        pts.extend(equiangular(Point::ORIGIN, 4, 0.11, &[1.0]));
        let cfg = Configuration::new(pts);
        let reg = regular_set_of(&cfg, &tol()).expect("should contain a regular set");
        assert!(reg.center.approx_eq(Point::ORIGIN, &Tol::new(1e-6)));
        // |Q| divides rho(rest): 4 divides 8, or the whole 12 isn't regular.
        assert!(reg.len() == 4, "got {}", reg.len());
        assert!(matches!(reg.kind, RegularKind::Equiangular { .. }));
    }

    #[test]
    fn biangular_subset_with_virtual_axes() {
        // Figure 2a-style: an outer structure with ρ = 2 and axes + an inner
        // bi-angled 2-regular pair.
        // Outer: rectangle (ρ = 2, two axes).
        let mut pts = vec![
            Point::new(2.0, 1.0),
            Point::new(-2.0, 1.0),
            Point::new(-2.0, -1.0),
            Point::new(2.0, -1.0),
        ];
        // Inner pair on the x-axis, symmetric: bi-angled 2-regular set whose
        // virtual axes are the x and y axes = axes of the rectangle.
        pts.push(Point::new(0.5, 0.0));
        pts.push(Point::new(-0.5, 0.0));
        let cfg = Configuration::new(pts);
        let reg = regular_set_of(&cfg, &tol()).expect("regular set expected");
        assert!(reg.center.dist(Point::ORIGIN) < 1e-6);
        // Depending on the view order, reg(P) is either the inner 2-regular
        // pair (rest = rectangle, ρ = 2, 2 | 2) or the bi-angled rectangle
        // (m = 4/2 = 2 | ρ(pair) = 2, virtual axes = the two coordinate
        // axes, which are axes of the pair). Both satisfy Definition 2; the
        // construction picks the larger prefix when both qualify.
        assert!(reg.len() == 2 || reg.len() == 4, "got {}", reg.len());
    }

    #[test]
    fn no_regular_set_in_asymmetric_config() {
        let pts = vec![
            Point::new(1.0, 0.0),
            Point::new(0.32, 0.91),
            Point::new(-0.83, 0.14),
            Point::new(-0.21, -0.72),
            Point::new(0.55, -0.43),
            Point::new(0.05, 0.31),
            Point::new(-0.4, -0.2),
        ];
        let cfg = Configuration::new(pts);
        // Asymmetric configurations may still *contain* degenerate regular
        // subsets only if the divisibility conditions hold; for this config
        // none should.
        let reg = regular_set_of(&cfg, &tol());
        if let Some(r) = &reg {
            // If something is found it must genuinely satisfy (a): verify.
            let pts = r.points(&cfg);
            assert!(check_regular_around(&pts, r.center, &tol()).is_some());
        }
    }

    #[test]
    fn property1_symmetric_config_contains_regular_set() {
        // Property 1: ρ(P) > 1 ⇒ P contains a regular set.
        for m in [2usize, 3, 4] {
            let mut pts = Vec::new();
            // Two rings of m robots each (rotationally symmetric with ρ = m),
            // radii chosen so nobody is at the center.
            pts.extend(equiangular(Point::ORIGIN, m, 0.2, &[2.0]));
            pts.extend(equiangular(Point::ORIGIN, m, 0.9, &[1.0]));
            let cfg = Configuration::new(pts);
            assert!(symmetricity(&cfg, Point::ORIGIN, &tol()) >= m);
            assert!(
                regular_set_of(&cfg, &tol()).is_some(),
                "m = {m}: symmetric config must contain a regular set"
            );
        }
    }

    #[test]
    fn virtual_axes_of_biangular_square() {
        let pts = biangular(Point::ORIGIN, 2, 0.6, 0.0, &[1.0]);
        let cfg = Configuration::new(pts);
        let kind = check_regular_around(cfg.points(), Point::ORIGIN, &tol()).unwrap();
        let reg = RegularSet { indices: vec![0, 1, 2, 3], center: Point::ORIGIN, kind };
        let axes = reg.virtual_axes(&cfg, &tol());
        assert_eq!(axes.len(), 2);
    }

    #[test]
    fn radial_moves_preserve_regularity() {
        // Property 2 (M1): moving a member radially keeps the set regular
        // with the same center.
        let c = Point::new(1.0, 0.0);
        let mut pts = equiangular(c, 6, 0.5, &[1.0, 1.3]);
        let (c0, _) = find_regular_center(&pts, &tol()).unwrap();
        // Move robot 2 halfway toward the center.
        pts[2] = pts[2].lerp(c, 0.5);
        let (c1, _) = find_regular_center(&pts, &tol()).expect("still regular");
        assert!(c0.approx_eq(c1, &Tol::new(1e-5)));
    }

    #[test]
    fn solve_linear_small_system() {
        // Entries outside the leading 2×2 block must be ignored.
        let mut a = [[2.0, 1.0, 9.0, 9.0], [1.0, 3.0, 9.0, 9.0], [9.0; 4], [9.0; 4]];
        let mut b = [5.0, 10.0, 9.0, 9.0];
        let x = solve_linear(&mut a, &mut b, 2).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_singular_is_none() {
        let mut a = [[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0], [0.0; 4], [0.0; 4]];
        let mut b = [1.0, 2.0, 0.0, 0.0];
        assert!(solve_linear(&mut a, &mut b, 2).is_none());
    }

    /// Three rings of four robots around the origin, each at its own phase:
    /// a ρ = 4, n = 12 start like the election workloads'.
    fn rho4_start() -> Vec<Point> {
        let mut pts = Vec::new();
        for (r, phase) in [(0.45, 0.31), (0.8, 1.17), (1.2, 0.62)] {
            pts.extend(equiangular(Point::ORIGIN, 4, phase, &[r]));
        }
        pts
    }

    /// Runs a fit from its start to the iteration cap, as fits ran before
    /// the stall exit, and requires it to do so: no step fails, none meets
    /// the convergence rule, and some step stalls on a residual above the
    /// exit's bound. Returns the center at the first stalled step and the
    /// fit at the cap.
    fn run_to_cap(
        points: &[Point],
        slots: &[usize],
        total_slots: usize,
        biangular: bool,
        init: Point,
    ) -> (Point, SlotFit) {
        let mut fit = SlotIteration::start(points, slots, total_slots, biangular, init).unwrap();
        let stall_resid = SLOT_FIT_STALL_FACTOR * tol().angle_eps;
        let mut stalled = None;
        for k in 0..SLOT_FIT_MAX_ITERATIONS {
            let (step, max_resid) = fit.step().unwrap_or_else(|| panic!("step {k} failed"));
            assert!(!(step < 1e-14 && max_resid < 1e-10), "step {k} converged");
            if stalled.is_none() && step < 1e-12 && max_resid > stall_resid {
                stalled = Some(fit.center);
            }
        }
        (stalled.expect("the fit never stalled"), fit.current())
    }

    #[test]
    fn misfit_with_a_hole_stops_at_the_stall() {
        // The whole-configuration shifted-set branch on a ρ = 4 start: the
        // other 11 robots against a 12-slot bi-angled model, the hole at the
        // innermost robot, seeded from the Weber point.
        let start = rho4_start();
        let w = weber_point(&start);
        let inner = (0..start.len())
            .min_by(|&a, &b| start[a].dist(w).total_cmp(&start[b].dist(w)))
            .unwrap();
        let mut entries: Vec<(f64, Option<Point>)> = start
            .iter()
            .enumerate()
            .map(|(i, &p)| (PolarPoint::from_cartesian(p, w).angle, (i != inner).then_some(p)))
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        let hole_slot = entries.iter().position(|(_, p)| p.is_none()).unwrap();
        let (slots, members): (Vec<usize>, Vec<Point>) =
            entries.iter().enumerate().filter_map(|(slot, (_, p))| p.map(|p| (slot, p))).unzip();

        assert!(fit_slot_model(&members, &slots, 12, true, w, &tol()).is_none());

        // Run on to the cap: the center barely moves, and the completed set
        // still fails the caller's check there.
        let (stalled, cap) = run_to_cap(&members, &slots, 12, true, w);
        assert!(stalled.dist(cap.center) < 1e-9, "moved {}", stalled.dist(cap.center));
        let theta = cap.phi + slot_angle(hole_slot, 12, cap.alpha, true);
        let r = start[inner].dist(cap.center);
        let mut completed = members.clone();
        completed.push(Point::new(cap.center.x + r * theta.cos(), cap.center.y + r * theta.sin()));
        assert!(check_regular_around(&completed, cap.center, &tol()).is_none());
    }

    #[test]
    fn polish_stops_at_the_stall() {
        let start = rho4_start();
        let w = weber_point(&start);
        let slots: Vec<usize> = (0..start.len()).collect();
        for biangular in [false, true] {
            assert!(polish_regular_center(&start, w, biangular, &tol()).is_none());
            let (stalled, cap) = run_to_cap(&start, &slots, start.len(), biangular, w);
            assert!(stalled.dist(cap.center) < 1e-9, "moved {}", stalled.dist(cap.center));
            assert!(check_regular_around(&start, cap.center, &tol()).is_none());
        }
    }

    #[test]
    fn converging_fits_keep_their_bits() {
        // Exact sets with a hole, seeded off their center. The bits were
        // taken before the stall exit existed.
        let c = Point::new(0.7, -0.4);
        let init = Point::new(0.71, -0.42);
        let cases = [
            (
                equiangular(c, 9, 0.35, &[1.0, 1.6, 0.8]),
                4,
                false,
                [0x3fe6666666666663, 0xbfd999999999999e, 0x3fd6666666666664, 0x3fe657184ae74487],
            ),
            (
                biangular(c, 5, 0.4, 0.2, &[1.0, 1.6, 0.8]),
                7,
                true,
                [0x3fe6666666666664, 0xbfd999999999999c, 0x3fc999999999999a, 0x3fd999999999999c],
            ),
        ];
        for (full, hole, is_biangular, bits) in cases {
            let total = full.len();
            let slots: Vec<usize> = (0..total).filter(|&i| i != hole).collect();
            let members: Vec<Point> = slots.iter().map(|&i| full[i]).collect();
            let fit = fit_slot_model(&members, &slots, total, is_biangular, init, &tol()).unwrap();
            let got = [fit.center.x, fit.center.y, fit.phi, fit.alpha].map(f64::to_bits);
            assert_eq!(got, bits, "biangular: {is_biangular}");
        }
    }
}
