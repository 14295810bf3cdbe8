//! Robot configurations: finite point (multi)sets with cached analysis.

use crate::circle::{smallest_enclosing_circle, Circle};
use crate::point::Point;
use crate::polar::{to_polar, PolarPoint};
use crate::tol::Tol;
use std::sync::OnceLock;

/// A configuration `P`: the positions of the robots at some instant, in one
/// common (global or local) coordinate system.
///
/// The smallest enclosing circle `C(P)` is computed on first use and cached,
/// so configurations that only need views, `ρ` or multiplicity groups never
/// run Welzl; equality compares the positions only. Multiplicity points
/// (several robots at one position) are representable — the vector may
/// contain (approximately) duplicate points.
///
/// # Example
///
/// ```
/// use apf_geometry::{Configuration, Point, Tol};
/// let cfg = Configuration::new(vec![
///     Point::new(-1.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(0.0, 0.5),
/// ]);
/// assert_eq!(cfg.len(), 3);
/// assert!(Tol::default().eq(cfg.sec().radius, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Configuration {
    points: Vec<Point>,
    sec: OnceLock<Circle>,
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl Configuration {
    /// Creates a configuration from robot positions.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(!points.is_empty(), "a configuration needs at least one robot");
        Configuration { points, sec: OnceLock::new() }
    }

    /// The robot positions.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of robots.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the configuration is empty (never true: construction requires
    /// at least one robot).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The smallest enclosing circle `C(P)` (computed on first use).
    pub fn sec(&self) -> Circle {
        *self.sec.get_or_init(|| smallest_enclosing_circle(&self.points))
    }

    /// For every robot, whether it *holds* `C(P)`: whether removing it
    /// changes the smallest enclosing circle (the paper's "`r` holds `C(P)`").
    ///
    /// A robot strictly inside `C(P)` never holds it; for a robot on the
    /// circumference the circle of the remaining robots is computed and
    /// compared with `C(P)` within tolerance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a single robot.
    pub fn sec_holders(&self, tol: &Tol) -> Vec<bool> {
        assert!(self.len() >= 2, "holding C(P) needs at least two robots");
        let full = self.sec();
        (0..self.len())
            .map(|i| {
                !full.strictly_contains(self.points[i], tol)
                    && !smallest_enclosing_circle(&self.without(i)).approx_eq(&full, tol)
            })
            .collect()
    }

    /// Position of robot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// Polar coordinates of all robots around `center`.
    pub fn polar_around(&self, center: Point) -> Vec<PolarPoint> {
        to_polar(&self.points, center)
    }

    /// Distances of all robots from `center`, sorted ascending.
    pub fn sorted_radii(&self, center: Point) -> Vec<f64> {
        let mut r: Vec<f64> = self.points.iter().map(|p| p.dist(center)).collect();
        r.sort_by(f64::total_cmp);
        r
    }

    /// The paper's `l_P`: the distance to `center` of the *second closest*
    /// robot (used to define the "selected" disc `D(l_F / 2)`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than two robots.
    pub fn second_closest_distance(&self, center: Point) -> f64 {
        assert!(self.len() >= 2, "second closest distance needs two robots");
        self.sorted_radii(center)[1]
    }

    /// Indices of robots strictly inside the open disc `D(radius)` around
    /// `center`.
    pub fn indices_in_open_disc(&self, center: Point, radius: f64, tol: &Tol) -> Vec<usize> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| tol.lt(p.dist(center), radius))
            .map(|(i, _)| i)
            .collect()
    }

    /// A new configuration with robot `i` moved to `p`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn with_point_moved(&self, i: usize, p: Point) -> Configuration {
        let mut pts = self.points.clone();
        pts[i] = p;
        Configuration::new(pts)
    }

    /// The positions with robot `i` removed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the configuration has a single robot.
    pub fn without(&self, i: usize) -> Vec<Point> {
        assert!(self.len() > 1, "cannot remove the only robot");
        assert!(i < self.len(), "index out of range");
        self.points.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &p)| p).collect()
    }

    /// Groups (approximately) coincident robots; returns, for each group, the
    /// representative position and the member indices. Singleton groups mean
    /// no multiplicity.
    pub fn multiplicity_groups(&self, tol: &Tol) -> Vec<(Point, Vec<usize>)> {
        let mut groups: Vec<(Point, Vec<usize>)> = Vec::new();
        for (i, &p) in self.points.iter().enumerate() {
            if let Some(g) = groups.iter_mut().find(|(rep, _)| rep.approx_eq(p, tol)) {
                g.1.push(i);
            } else {
                groups.push((p, vec![i]));
            }
        }
        groups
    }

    /// Whether any position hosts more than one robot.
    pub fn has_multiplicity(&self, tol: &Tol) -> bool {
        self.multiplicity_groups(tol).iter().any(|(_, m)| m.len() > 1)
    }

    /// A copy translated and scaled so that `C(P)` is the unit circle at the
    /// origin. Returns the normalized configuration.
    ///
    /// # Panics
    ///
    /// Panics if all robots coincide (`C(P)` has zero radius).
    pub fn normalized(&self) -> Configuration {
        let sec = self.sec();
        assert!(sec.radius > 0.0, "cannot normalize a single-location configuration");
        let c = sec.center;
        let s = 1.0 / sec.radius;
        Configuration::new(self.points.iter().map(|&p| ((p - c) * s).to_point()).collect())
    }
}

impl From<Vec<Point>> for Configuration {
    fn from(points: Vec<Point>) -> Self {
        Configuration::new(points)
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sec = self.sec();
        write!(f, "Configuration[{} robots, C(P) = {} r {:.4}]", self.len(), sec.center, sec.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn tol() -> Tol {
        Tol::new(1e-7)
    }

    fn ring(n: usize, r: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = TAU * i as f64 / n as f64;
                Point::new(r * a.cos(), r * a.sin())
            })
            .collect()
    }

    #[test]
    fn sec_is_cached_and_correct() {
        let cfg = Configuration::new(ring(8, 2.0));
        assert!(cfg.sec().center.approx_eq(Point::ORIGIN, &tol()));
        assert!(tol().eq(cfg.sec().radius, 2.0));
    }

    #[test]
    fn sec_holders_detects_critical_points() {
        // No single corner of a square holds its circle: the three others
        // still span the same circumcircle.
        let square = Configuration::new(ring(4, 1.0));
        assert_eq!(square.sec_holders(&tol()), vec![false; 4]);
        // Two antipodal points: each holds the circle.
        let pair = Configuration::new(vec![Point::new(-1.0, 0.0), Point::new(1.0, 0.0)]);
        assert_eq!(pair.sec_holders(&tol()), vec![true, true]);
        // An interior point never holds, nor does a boundary point whose
        // removal leaves an antipodal pair spanning the same circle.
        let with_inner = Configuration::new(vec![
            Point::new(-1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(0.2, 0.1),
        ]);
        assert_eq!(with_inner.sec_holders(&tol()), vec![true, true, false, false]);
        // Acute triangle: removing any vertex shrinks the circle.
        assert_eq!(Configuration::new(ring(3, 1.0)).sec_holders(&tol()), vec![true; 3]);
    }

    #[test]
    fn second_closest_distance_matches_paper_lp() {
        let mut pts = ring(5, 2.0);
        pts.push(Point::new(0.1, 0.0));
        pts.push(Point::new(0.0, 0.5));
        let cfg = Configuration::new(pts);
        let lp = cfg.second_closest_distance(Point::ORIGIN);
        assert!(tol().eq(lp, 0.5));
    }

    #[test]
    fn open_disc_membership_is_strict() {
        let cfg = Configuration::new(vec![
            Point::new(0.2, 0.0),
            Point::new(1.0, 0.0),
            Point::new(-2.0, 0.0),
        ]);
        let inside = cfg.indices_in_open_disc(Point::ORIGIN, 1.0, &tol());
        assert_eq!(inside, vec![0]); // the boundary point (1,0) is excluded
    }

    #[test]
    fn with_point_moved_recomputes_sec() {
        let cfg = Configuration::new(ring(4, 1.0));
        let moved = cfg.with_point_moved(0, Point::new(5.0, 0.0));
        assert!(moved.sec().radius > cfg.sec().radius);
        assert_eq!(cfg.point(0), Point::new(1.0, 0.0)); // original untouched
    }

    #[test]
    fn without_removes_exactly_one() {
        let cfg = Configuration::new(ring(4, 1.0));
        let rest = cfg.without(2);
        assert_eq!(rest.len(), 3);
        assert!(!rest.iter().any(|p| p.approx_eq(Point::new(-1.0, 0.0), &tol())));
    }

    #[test]
    fn multiplicity_groups_cluster_duplicates() {
        let cfg = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1e-12),
            Point::new(2.0, 0.0),
        ]);
        let groups = cfg.multiplicity_groups(&tol());
        assert_eq!(groups.len(), 3);
        assert!(cfg.has_multiplicity(&tol()));
        let pure = Configuration::new(ring(5, 1.0));
        assert!(!pure.has_multiplicity(&tol()));
    }

    #[test]
    fn normalization_yields_unit_sec() {
        let pts: Vec<Point> =
            ring(7, 3.0).into_iter().map(|p| Point::new(p.x + 4.0, p.y - 2.0)).collect();
        let cfg = Configuration::new(pts).normalized();
        assert!(cfg.sec().center.approx_eq(Point::ORIGIN, &tol()));
        assert!(tol().eq(cfg.sec().radius, 1.0));
    }

    #[test]
    fn sorted_radii_ascending() {
        let cfg = Configuration::new(vec![
            Point::new(3.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 2.0),
        ]);
        let r = cfg.sorted_radii(Point::ORIGIN);
        assert!(r[0] <= r[1] && r[1] <= r[2]);
        assert!(tol().eq(r[0], 1.0) && tol().eq(r[2], 3.0));
    }

    #[test]
    #[should_panic(expected = "at least one robot")]
    fn empty_configuration_panics() {
        Configuration::new(vec![]);
    }
}
