//! Circles, discs, and the smallest enclosing circle (Welzl's algorithm).

use crate::point::Point;
use crate::tol::Tol;

/// A circle given by center and radius.
///
/// Throughout the workspace, `C(P)` denotes the smallest enclosing circle of
/// the configuration `P` as computed by [`smallest_enclosing_circle`], and
/// configurations are normalized so `C(P)` has radius 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(radius.is_finite() && radius >= 0.0, "invalid circle radius {radius}");
        Circle { center, radius }
    }

    /// Whether `p` lies inside or on the circle, within tolerance.
    pub fn contains(&self, p: Point, tol: &Tol) -> bool {
        tol.le(self.center.dist(p), self.radius)
    }

    /// Whether `p` lies strictly inside the circle (not on the circumference).
    pub fn strictly_contains(&self, p: Point, tol: &Tol) -> bool {
        tol.lt(self.center.dist(p), self.radius)
    }

    /// Whether `p` lies on the circumference, within tolerance.
    pub fn on_circumference(&self, p: Point, tol: &Tol) -> bool {
        tol.eq(self.center.dist(p), self.radius)
    }

    /// Whether `p` lies strictly outside the circle.
    pub fn strictly_outside(&self, p: Point, tol: &Tol) -> bool {
        tol.gt(self.center.dist(p), self.radius)
    }

    /// Whether two circles coincide within tolerance.
    pub fn approx_eq(&self, other: &Circle, tol: &Tol) -> bool {
        self.center.approx_eq(other.center, tol) && tol.eq(self.radius, other.radius)
    }

    /// The point on the circumference at the given angle (global frame).
    pub fn point_at_angle(&self, angle: f64) -> Point {
        Point::new(
            self.center.x + self.radius * angle.cos(),
            self.center.y + self.radius * angle.sin(),
        )
    }
}

/// Computes the smallest enclosing circle of a non-empty set of points using
/// Welzl's move-to-front algorithm (expected linear time).
///
/// The algorithm is made deterministic by a fixed internal permutation so that
/// simulations are reproducible run-to-run.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn smallest_enclosing_circle(points: &[Point]) -> Circle {
    assert!(!points.is_empty(), "smallest enclosing circle of an empty set is undefined");
    let _span = apf_trace::span::enter(apf_trace::SpanLabel::Sec);
    let mut pts: Vec<Point> = points.to_vec();
    deterministic_shuffle(&mut pts);

    let mut c = Circle::new(pts[0], 0.0);
    for i in 1..pts.len() {
        if !welzl_contains(&c, pts[i]) {
            c = circle_with_one_boundary(&pts[..i], pts[i]);
        }
    }
    c
}

/// Circle through exactly two points (as diameter).
pub fn circle_from_two(a: Point, b: Point) -> Circle {
    Circle::new(a.midpoint(b), a.dist(b) / 2.0)
}

/// Circumscribed circle through three points.
///
/// Returns `None` when the points are (numerically) collinear.
pub fn circle_from_three(a: Point, b: Point, c: Point) -> Option<Circle> {
    let d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
    if d.abs() < 1e-12 * (a.dist(b) + b.dist(c) + c.dist(a)).max(1.0) {
        return None;
    }
    let a2 = a.x * a.x + a.y * a.y;
    let b2 = b.x * b.x + b.y * b.y;
    let c2 = c.x * c.x + c.y * c.y;
    let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
    let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
    let center = Point::new(ux, uy);
    Some(Circle::new(center, center.dist(a)))
}

// Containment check used inside Welzl's recursion: slightly inflated to keep
// the algorithm stable when many points lie exactly on the circle.
fn welzl_contains(c: &Circle, p: Point) -> bool {
    c.center.dist(p) <= c.radius * (1.0 + 1e-12) + 1e-12
}

fn circle_with_one_boundary(pts: &[Point], q: Point) -> Circle {
    let mut c = Circle::new(q, 0.0);
    for i in 0..pts.len() {
        if !welzl_contains(&c, pts[i]) {
            c = circle_with_two_boundary(&pts[..i], pts[i], q);
        }
    }
    c
}

fn circle_with_two_boundary(pts: &[Point], p: Point, q: Point) -> Circle {
    let mut c = circle_from_two(p, q);
    for &r in pts {
        if !welzl_contains(&c, r) {
            c = circle_from_three(p, q, r).unwrap_or_else(|| {
                // Collinear triple: take the two farthest apart as diameter.
                let (a, b) = farthest_pair(&[p, q, r]);
                circle_from_two(a, b)
            });
        }
    }
    c
}

fn farthest_pair(pts: &[Point]) -> (Point, Point) {
    let mut best = (pts[0], pts[0]);
    let mut best_d = -1.0;
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            let d = pts[i].dist(pts[j]);
            if d > best_d {
                best_d = d;
                best = (pts[i], pts[j]);
            }
        }
    }
    best
}

// A deterministic pseudo-random permutation (xorshift-driven Fisher–Yates)
// so SEC computation order does not depend on input order pathologies while
// remaining reproducible.
fn deterministic_shuffle(pts: &mut [Point]) {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in (1..pts.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        pts.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    const T: Tol = Tol { eps: 1e-7, angle_eps: 1e-7 };

    #[test]
    fn sec_single_point_is_degenerate() {
        let c = smallest_enclosing_circle(&[Point::new(2.0, 3.0)]);
        assert!(c.center.approx_eq(Point::new(2.0, 3.0), &T));
        assert!(T.is_zero(c.radius));
    }

    #[test]
    fn sec_two_points_is_diameter() {
        let c = smallest_enclosing_circle(&[Point::new(-1.0, 0.0), Point::new(1.0, 0.0)]);
        assert!(c.center.approx_eq(Point::ORIGIN, &T));
        assert!(T.eq(c.radius, 1.0));
    }

    #[test]
    fn sec_obtuse_triangle_uses_longest_side() {
        // Obtuse at the origin: SEC is the diameter circle of the long side.
        let pts = [Point::new(0.0, 0.1), Point::new(-2.0, 0.0), Point::new(2.0, 0.0)];
        let c = smallest_enclosing_circle(&pts);
        assert!(c.center.approx_eq(Point::ORIGIN, &T));
        assert!(T.eq(c.radius, 2.0));
    }

    #[test]
    fn sec_equilateral_triangle_is_circumcircle() {
        let pts: Vec<Point> = (0..3)
            .map(|i| {
                let a = TAU * i as f64 / 3.0;
                Point::new(a.cos(), a.sin())
            })
            .collect();
        let c = smallest_enclosing_circle(&pts);
        assert!(c.center.approx_eq(Point::ORIGIN, &T));
        assert!(T.eq(c.radius, 1.0));
    }

    #[test]
    fn sec_regular_ngon_any_size() {
        for n in [4usize, 5, 7, 12, 33] {
            let pts: Vec<Point> = (0..n)
                .map(|i| {
                    let a = TAU * i as f64 / n as f64 + 0.37;
                    Point::new(3.0 + 2.0 * a.cos(), -1.0 + 2.0 * a.sin())
                })
                .collect();
            let c = smallest_enclosing_circle(&pts);
            assert!(c.center.approx_eq(Point::new(3.0, -1.0), &T), "n = {n}");
            assert!(T.eq(c.radius, 2.0), "n = {n}");
        }
    }

    #[test]
    fn sec_contains_all_points() {
        // Deterministic scattered points.
        let pts: Vec<Point> = (0..50)
            .map(|i| {
                let x = ((i * 37) % 101) as f64 / 10.0;
                let y = ((i * 61) % 89) as f64 / 10.0;
                Point::new(x, y)
            })
            .collect();
        let c = smallest_enclosing_circle(&pts);
        for p in &pts {
            assert!(c.contains(*p, &T));
        }
    }

    #[test]
    fn sec_interior_points_do_not_matter() {
        let mut pts = vec![
            Point::new(-1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(0.0, -1.0),
        ];
        let base = smallest_enclosing_circle(&pts);
        pts.push(Point::new(0.1, 0.2));
        pts.push(Point::new(-0.3, 0.4));
        let c = smallest_enclosing_circle(&pts);
        assert!(c.approx_eq(&base, &T));
    }

    #[test]
    fn collinear_points_sec() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(4.0, 0.0)];
        let c = smallest_enclosing_circle(&pts);
        assert!(c.center.approx_eq(Point::new(2.0, 0.0), &T));
        assert!(T.eq(c.radius, 2.0));
    }

    #[test]
    fn circle_from_three_collinear_is_none() {
        assert!(circle_from_three(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0)
        )
        .is_none());
    }

    #[test]
    fn point_at_angle_on_circumference() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        for k in 0..8 {
            let a = TAU * k as f64 / 8.0;
            assert!(c.on_circumference(c.point_at_angle(a), &T));
        }
    }

    #[test]
    fn containment_predicates() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!(c.contains(Point::new(0.5, 0.0), &T));
        assert!(c.strictly_contains(Point::new(0.5, 0.0), &T));
        assert!(c.contains(Point::new(1.0, 0.0), &T));
        assert!(!c.strictly_contains(Point::new(1.0, 0.0), &T));
        assert!(c.on_circumference(Point::new(0.0, 1.0), &T));
        assert!(c.strictly_outside(Point::new(1.5, 0.0), &T));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sec_empty_panics() {
        smallest_enclosing_circle(&[]);
    }
}
