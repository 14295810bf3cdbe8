//! Local views and the view order.
//!
//! The *local view* `Z_r` of a robot `r ≠ c(P)` is the multiset of robot
//! positions in the polar coordinate system centered at `c(P)` in which `r`
//! sits at `(1, 0)`, taken with the rotational orientation that maximizes the
//! view in the lexicographic order. Views are scale- and chirality-free, so
//! every robot computes the same view for the same robot regardless of its
//! local frame — they are the paper's (and the field's) standard mechanism
//! for anonymous robots to rank each other.
//!
//! # Implementation notes
//!
//! Views are *quantized* onto an integer grid derived from the tolerance
//! before comparison. This gives a genuine total order (`Ord`) — a naive
//! `f64`-with-epsilon comparison is not transitive and could make different
//! robots disagree on the ranking, which would break the algorithm's
//! agreement arguments.

use crate::angle::{normalize_angle, Orientation};
use crate::config::Configuration;
use crate::point::Point;
use crate::polar::{to_polar, PolarPoint};
use crate::tol::Tol;
use std::cell::OnceCell;
use std::f64::consts::TAU;

/// A quantized local view: the lexicographically comparable fingerprint of
/// what one robot sees.
///
/// Views compare with the standard derived `Ord`; a larger view means a
/// "greater" robot in the paper's ordering. The empty view (robot exactly at
/// the center) is minimal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct View {
    /// Sorted `(angle, radius)` pairs on the quantization grid.
    coords: Vec<(i64, i64)>,
}

impl View {
    /// The coordinates (quantized `(angle, radius)` pairs, sorted).
    pub fn coords(&self) -> &[(i64, i64)] {
        &self.coords
    }

    /// Whether this is the distinguished minimal view of a center robot.
    pub fn is_center_view(&self) -> bool {
        self.coords.is_empty()
    }
}

/// Per-robot view information produced by [`ViewAnalysis`].
#[derive(Debug, Clone)]
pub struct RobotView {
    /// The maximal view over both orientations.
    pub view: View,
    /// Global orientation(s) attaining the maximum.
    pub ccw_max: bool,
    /// Whether the clockwise orientation also attains the maximum.
    pub cw_max: bool,
}

impl RobotView {
    /// Whether the robot's view is invariant under orientation flip — i.e.
    /// the robot lies on an axis of symmetry of the configuration.
    pub fn on_axis(&self) -> bool {
        self.ccw_max && self.cw_max
    }
}

/// View analysis of a whole configuration around a center.
///
/// # Example
///
/// ```
/// use apf_geometry::{Configuration, Point, Tol};
/// use apf_geometry::symmetry::ViewAnalysis;
///
/// // A square: all four robots are equivalent (same view).
/// let cfg = Configuration::new(vec![
///     Point::new(1.0, 0.0), Point::new(0.0, 1.0),
///     Point::new(-1.0, 0.0), Point::new(0.0, -1.0),
/// ]);
/// let va = ViewAnalysis::compute(&cfg, Point::new(0.0, 0.0), &Tol::default());
/// assert_eq!(va.equivalence_classes().len(), 1);
/// assert_eq!(va.max_view_indices(), vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct ViewAnalysis {
    robots: Vec<RobotView>,
}

impl ViewAnalysis {
    /// Computes every robot's maximal local view around `center`.
    ///
    /// Robots located (within tolerance) at `center` receive the minimal
    /// "center view".
    pub fn compute(config: &Configuration, center: Point, tol: &Tol) -> Self {
        let _span = apf_trace::span::enter(apf_trace::SpanLabel::Views);
        let polar = config.polar_around(center);
        let mut scratch = Vec::new();
        let robots = (0..config.len()).map(|i| robot_view(&polar, i, tol, &mut scratch)).collect();
        ViewAnalysis { robots }
    }

    /// Per-robot views, indexed like the configuration.
    pub fn robots(&self) -> &[RobotView] {
        &self.robots
    }

    /// The view of robot `i`.
    pub fn view(&self, i: usize) -> &View {
        &self.robots[i].view
    }

    /// Indices of the robots whose view is maximal.
    pub fn max_view_indices(&self) -> Vec<usize> {
        let max = self.robots.iter().map(|r| &r.view).max();
        match max {
            None => vec![],
            Some(max) => self
                .robots
                .iter()
                .enumerate()
                .filter(|(_, r)| &r.view == max)
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// Robot indices sorted by view, *descending* (greatest view first).
    /// Ties are broken by index for determinism of iteration, but callers
    /// that need the paper's unique `Q_i` sequence must only cut at
    /// boundaries where the view changes — see
    /// [`Self::descending_class_boundaries`].
    pub fn indices_by_view_desc(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.robots.len()).collect();
        idx.sort_by(|&a, &b| self.robots[b].view.cmp(&self.robots[a].view).then(a.cmp(&b)));
        idx
    }

    /// Prefix lengths `i` of [`Self::indices_by_view_desc`] at which the view
    /// strictly drops — the only prefix sizes for which "the `i` robots with
    /// greatest view" is well defined.
    pub fn descending_class_boundaries(&self) -> Vec<usize> {
        let order = self.indices_by_view_desc();
        let mut cuts = Vec::new();
        for i in 0..order.len() {
            let last_of_class = i + 1 == order.len()
                || self.robots[order[i + 1]].view != self.robots[order[i]].view;
            if last_of_class {
                cuts.push(i + 1);
            }
        }
        cuts
    }

    /// Groups robots into equivalence classes: robots with the same view
    /// attained in the same orientation. Classes are returned largest view
    /// first.
    pub fn equivalence_classes(&self) -> Vec<Vec<usize>> {
        type ClassKey<'a> = (&'a View, bool, bool);
        let mut keys: Vec<(usize, ClassKey<'_>)> = self
            .robots
            .iter()
            .enumerate()
            .map(|(i, r)| (i, (&r.view, r.ccw_max, r.cw_max)))
            .collect();
        keys.sort_by(|a, b| b.1 .0.cmp(a.1 .0).then(a.0.cmp(&b.0)));
        let mut classes: Vec<(ClassKey<'_>, Vec<usize>)> = Vec::new();
        for (i, k) in keys {
            if let Some(c) = classes.iter_mut().find(|(ck, _)| *ck == k) {
                c.1.push(i);
            } else {
                classes.push((k, vec![i]));
            }
        }
        classes.into_iter().map(|(_, v)| v).collect()
    }

    /// Whether every robot has a distinct view (no two robots are
    /// equivalent and none shares a view with a different orientation).
    pub fn all_views_distinct(&self) -> bool {
        let mut vs: Vec<&View> = self.robots.iter().map(|r| &r.view).collect();
        vs.sort();
        vs.windows(2).all(|w| w[0] != w[1])
    }
}

/// Robot views around a center, each computed on first use — for callers
/// that compare only a few robots' views. A robot's view equals the one
/// [`ViewAnalysis::compute`] gives it, and each computation opens the same
/// `views` span.
///
/// # Example
///
/// ```
/// use apf_geometry::{Point, Tol};
/// use apf_geometry::symmetry::LazyViews;
///
/// let pts = [Point::new(1.0, 0.0), Point::new(0.0, 1.0), Point::new(-0.5, -0.5)];
/// let views = LazyViews::new(&pts, Point::new(0.0, 0.0), &Tol::default());
/// assert!(views.view(0) != views.view(2)); // only these two are computed
/// ```
#[derive(Debug)]
pub struct LazyViews {
    polar: Vec<PolarPoint>,
    tol: Tol,
    robots: Vec<OnceCell<RobotView>>,
}

impl LazyViews {
    /// Prepares the views of `points` around `center`; computes none yet.
    pub fn new(points: &[Point], center: Point, tol: &Tol) -> Self {
        LazyViews {
            polar: to_polar(points, center),
            tol: *tol,
            robots: points.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// Robot `i`'s view information.
    pub fn robot(&self, i: usize) -> &RobotView {
        self.robots[i].get_or_init(|| {
            let _span = apf_trace::span::enter(apf_trace::SpanLabel::Views);
            robot_view(&self.polar, i, &self.tol, &mut Vec::new())
        })
    }

    /// Robot `i`'s maximal view.
    pub fn view(&self, i: usize) -> &View {
        &self.robot(i).view
    }
}

/// Computes robot `i`'s maximal view over both orientations. The view that
/// loses the comparison is left in `scratch`, whose buffer the next call
/// reuses.
fn robot_view(
    polar: &[PolarPoint],
    i: usize,
    tol: &Tol,
    scratch: &mut Vec<(i64, i64)>,
) -> RobotView {
    let me = polar[i];
    if me.radius <= tol.eps {
        // Center robot: distinguished minimal view.
        return RobotView { view: View { coords: vec![] }, ccw_max: true, cw_max: true };
    }
    let mut ccw = std::mem::take(scratch);
    oriented_view(polar, i, Orientation::Ccw, tol, &mut ccw);
    oriented_view(polar, i, Orientation::Cw, tol, scratch);
    let (coords, ccw_max, cw_max) = match ccw.cmp(scratch) {
        std::cmp::Ordering::Greater => (ccw, true, false),
        std::cmp::Ordering::Less => (std::mem::replace(scratch, ccw), false, true),
        std::cmp::Ordering::Equal => (ccw, true, true),
    };
    RobotView { view: View { coords }, ccw_max, cw_max }
}

/// The view of robot `i` in one fixed global orientation, written into
/// `coords`: all robots' `(angle − angle_i, radius / radius_i)` pairs,
/// quantized and sorted.
fn oriented_view(
    polar: &[PolarPoint],
    i: usize,
    orientation: Orientation,
    tol: &Tol,
    coords: &mut Vec<(i64, i64)>,
) {
    let me = polar[i];
    coords.clear();
    coords.extend(polar.iter().map(|p| {
        let rel_angle = if p.radius <= tol.eps {
            0.0 // center robots have no meaningful angle
        } else {
            normalize_angle(orientation.sign() * (p.angle - me.angle))
        };
        (quantize(rel_angle, tol.angle_eps, TAU), quantize(p.radius / me.radius, tol.eps, 0.0))
    }));
    coords.sort();
}

/// Quantizes `x` to an integer grid with step `4 * eps`, wrapping values that
/// round up to `wrap` (for angles) back to zero.
fn quantize(x: f64, eps: f64, wrap: f64) -> i64 {
    let step = 4.0 * eps;
    // apf-lint: allow(no-float-int-casts-in-digest-paths) — the audited quantizer itself: x/step is far below 2^53 and .round() lands on an exact integer
    let q = (x / step).round() as i64;
    if wrap > 0.0 {
        // apf-lint: allow(no-float-int-casts-in-digest-paths) — same audited quantizer, applied to the wrap period
        let wrap_q = (wrap / step).round() as i64;
        q.rem_euclid(wrap_q)
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn tol() -> Tol {
        Tol::default()
    }

    fn ring(n: usize, r: f64, phase: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = TAU * i as f64 / n as f64 + phase;
                Point::new(r * a.cos(), r * a.sin())
            })
            .collect()
    }

    #[test]
    fn square_all_equivalent() {
        let cfg = Configuration::new(ring(4, 1.0, 0.2));
        let va = ViewAnalysis::compute(&cfg, Point::ORIGIN, &tol());
        assert_eq!(va.equivalence_classes().len(), 1);
        assert_eq!(va.max_view_indices().len(), 4);
    }

    #[test]
    fn asymmetric_config_has_distinct_views() {
        let cfg = Configuration::new(vec![
            Point::new(1.0, 0.0),
            Point::new(0.3, 0.9),
            Point::new(-0.8, 0.1),
            Point::new(-0.2, -0.7),
            Point::new(0.5, -0.4),
        ]);
        let va = ViewAnalysis::compute(&cfg, cfg.sec().center, &tol());
        assert!(va.all_views_distinct());
        assert_eq!(va.max_view_indices().len(), 1);
    }

    #[test]
    fn mirror_partners_share_view_opposite_orientation() {
        // Axially symmetric (but not rotationally): an isoceles-like config.
        let pts = vec![
            Point::new(0.0, 1.0),   // apex on the axis
            Point::new(0.6, -0.4),  // mirror pair
            Point::new(-0.6, -0.4), // mirror pair
            Point::new(0.0, -0.9),  // on the axis
        ];
        let cfg = Configuration::new(pts);
        let va = ViewAnalysis::compute(&cfg, cfg.sec().center, &tol());
        let r = va.robots();
        assert_eq!(r[1].view, r[2].view);
        // The mirror pair attains its max in opposite orientations.
        assert_ne!(r[1].ccw_max, r[2].ccw_max);
        assert!(!r[1].on_axis() && !r[2].on_axis());
    }

    #[test]
    fn axis_robot_view_is_orientation_invariant() {
        let pts = vec![Point::new(0.0, 1.0), Point::new(0.6, -0.4), Point::new(-0.6, -0.4)];
        let cfg = Configuration::new(pts);
        let va = ViewAnalysis::compute(&cfg, cfg.sec().center, &tol());
        assert!(va.robots()[0].on_axis());
    }

    #[test]
    fn center_robot_has_minimal_view() {
        let mut pts = ring(5, 1.0, 0.0);
        pts.push(Point::ORIGIN);
        let cfg = Configuration::new(pts);
        let va = ViewAnalysis::compute(&cfg, Point::ORIGIN, &tol());
        assert!(va.view(5).is_center_view());
        assert!(va.robots().iter().take(5).all(|r| &r.view > va.view(5)));
    }

    #[test]
    fn rho_classes_in_rotational_config() {
        // Two concentric squares rotated relative to each other: ρ = 4, two
        // equivalence classes of 4.
        let mut pts = ring(4, 1.0, 0.0);
        pts.extend(ring(4, 0.5, 0.3));
        let cfg = Configuration::new(pts);
        let va = ViewAnalysis::compute(&cfg, Point::ORIGIN, &tol());
        let classes = va.equivalence_classes();
        assert_eq!(classes.len(), 2);
        assert!(classes.iter().all(|c| c.len() == 4));
    }

    #[test]
    fn class_boundaries_respect_ties() {
        let mut pts = ring(4, 1.0, 0.0);
        pts.extend(ring(4, 0.5, 0.3));
        let cfg = Configuration::new(pts);
        let va = ViewAnalysis::compute(&cfg, Point::ORIGIN, &tol());
        let cuts = va.descending_class_boundaries();
        assert_eq!(cuts, vec![4, 8]);
    }

    #[test]
    fn views_scale_invariant() {
        let a = Configuration::new(vec![
            Point::new(1.0, 0.0),
            Point::new(0.3, 0.9),
            Point::new(-0.8, 0.1),
            Point::new(-0.2, -0.7),
        ]);
        let scaled = Configuration::new(
            a.points().iter().map(|p| Point::new(p.x * 7.0 + 3.0, p.y * 7.0 - 1.0)).collect(),
        );
        let va = ViewAnalysis::compute(&a, a.sec().center, &tol());
        let vb = ViewAnalysis::compute(&scaled, scaled.sec().center, &tol());
        assert_eq!(va.indices_by_view_desc(), vb.indices_by_view_desc());
    }

    #[test]
    fn views_chirality_invariant_ranking() {
        // Mirroring the whole configuration must preserve the view ranking
        // (views try both orientations).
        let pts = vec![
            Point::new(1.0, 0.0),
            Point::new(0.3, 0.9),
            Point::new(-0.8, 0.1),
            Point::new(-0.2, -0.7),
            Point::new(0.5, -0.4),
        ];
        let mirrored: Vec<Point> = pts.iter().map(|p| Point::new(p.x, -p.y)).collect();
        let a = Configuration::new(pts);
        let b = Configuration::new(mirrored);
        let va = ViewAnalysis::compute(&a, a.sec().center, &tol());
        let vb = ViewAnalysis::compute(&b, b.sec().center, &tol());
        // Same robots (by index) have the same view either way.
        for i in 0..a.len() {
            assert_eq!(va.view(i), vb.view(i), "robot {i}");
        }
    }

    #[test]
    fn lazy_views_equal_the_full_analysis() {
        let mut pts = ring(5, 1.0, 0.3);
        pts.push(Point::new(0.2, -0.1));
        pts.push(Point::ORIGIN);
        let cfg = Configuration::new(pts.clone());
        let va = ViewAnalysis::compute(&cfg, Point::ORIGIN, &tol());
        let lazy = LazyViews::new(&pts, Point::ORIGIN, &tol());
        for i in (0..pts.len()).rev() {
            let (full, one) = (&va.robots()[i], lazy.robot(i));
            assert_eq!(
                (&full.view, full.ccw_max, full.cw_max),
                (&one.view, one.ccw_max, one.cw_max)
            );
        }
    }

    #[test]
    fn max_view_unique_in_near_symmetric_config() {
        // Break a square's symmetry by nudging one robot inward: that robot's
        // class splits off.
        let mut pts = ring(4, 1.0, 0.0);
        pts[0] = Point::new(0.8, 0.0);
        // Keep SEC stable with an extra anchor ring far out.
        pts.extend(ring(3, 2.0, 0.1));
        let cfg = Configuration::new(pts);
        let va = ViewAnalysis::compute(&cfg, cfg.sec().center, &tol());
        assert!(va.all_views_distinct() || va.equivalence_classes().len() > 2);
    }
}
