//! Polar coordinates around a configuration center.

use crate::angle::normalize_angle;
use crate::point::Point;
use crate::tol::Tol;

/// A point expressed in polar coordinates `(radius, angle)` around an
/// implicit center, with `angle ∈ [0, 2π)`.
///
/// Polar points are the working representation of the symmetry engine: views,
/// regularity checks and the deterministic formation phases all reason about
/// `(radius, angle)` pairs around `c(P)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarPoint {
    /// Distance from the center (non-negative).
    pub radius: f64,
    /// Angle in `[0, 2π)` in the frame at hand.
    pub angle: f64,
}

impl PolarPoint {
    /// Creates a polar point, normalizing the angle to `[0, 2π)`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(radius: f64, angle: f64) -> Self {
        assert!(radius.is_finite() && radius >= 0.0, "invalid polar radius {radius}");
        PolarPoint { radius, angle: normalize_angle(angle) }
    }

    /// Converts a Cartesian point to polar coordinates around `center`.
    ///
    /// A point coinciding with the center gets radius 0 and angle 0.
    pub fn from_cartesian(p: Point, center: Point) -> Self {
        let v = p - center;
        PolarPoint::from_norm_and_direction(v.norm(), v.angle())
    }

    /// The polar form of a vector from its length and its `atan2`
    /// direction, exactly as [`Self::from_cartesian`] computes it: a
    /// zero-length vector gets angle 0.
    pub fn from_norm_and_direction(radius: f64, direction: f64) -> Self {
        // apf-lint: allow(no-float-eq) — exact-zero guard: only r == 0 leaves the angle undefined
        if radius == 0.0 {
            PolarPoint { radius: 0.0, angle: 0.0 }
        } else {
            PolarPoint { radius, angle: normalize_angle(direction) }
        }
    }

    /// Converts back to Cartesian coordinates around `center`.
    pub fn to_cartesian(self, center: Point) -> Point {
        Point::new(
            center.x + self.radius * self.angle.cos(),
            center.y + self.radius * self.angle.sin(),
        )
    }

    /// Whether two polar points coincide within tolerance. Points at radius
    /// ~0 are equal regardless of angle.
    pub fn approx_eq(self, other: PolarPoint, tol: &Tol) -> bool {
        if tol.is_zero(self.radius) && tol.is_zero(other.radius) {
            return true;
        }
        tol.eq(self.radius, other.radius)
            && crate::angle::angle_dist(self.angle, other.angle) <= tol.angle_eps
    }
}

/// Converts a slice of Cartesian points to polar coordinates around `center`.
pub fn to_polar(points: &[Point], center: Point) -> Vec<PolarPoint> {
    points.iter().map(|&p| PolarPoint::from_cartesian(p, center)).collect()
}

/// Sorts indices of `polar` by angle (ascending), breaking ties by radius.
pub fn indices_by_angle(polar: &[PolarPoint]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..polar.len()).collect();
    idx.sort_by(|&a, &b| {
        polar[a].angle.total_cmp(&polar[b].angle).then(polar[a].radius.total_cmp(&polar[b].radius))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    const T: Tol = Tol { eps: 1e-9, angle_eps: 1e-9 };

    #[test]
    fn roundtrip_cartesian_polar() {
        let center = Point::new(1.0, -2.0);
        for &(x, y) in &[(3.0, -2.0), (1.0, 5.0), (-4.0, -3.5), (1.1, -2.1)] {
            let p = Point::new(x, y);
            let pp = PolarPoint::from_cartesian(p, center);
            assert!(pp.to_cartesian(center).approx_eq(p, &T));
        }
    }

    #[test]
    fn center_point_has_zero_radius() {
        let c = Point::new(2.0, 2.0);
        let pp = PolarPoint::from_cartesian(c, c);
        assert_eq!(pp.radius, 0.0);
        assert_eq!(pp.angle, 0.0);
    }

    #[test]
    fn angles_are_normalized() {
        let pp = PolarPoint::new(1.0, -FRAC_PI_2);
        assert!((pp.angle - 3.0 * FRAC_PI_2).abs() < 1e-12);
        let pp2 = PolarPoint::new(1.0, TAU + PI);
        assert!((pp2.angle - PI).abs() < 1e-12);
    }

    #[test]
    fn approx_eq_handles_wraparound_and_center() {
        let a = PolarPoint::new(1.0, 1e-10);
        let b = PolarPoint::new(1.0, TAU - 1e-10);
        assert!(a.approx_eq(b, &T));
        let z1 = PolarPoint::new(0.0, 0.0);
        let z2 = PolarPoint { radius: 0.0, angle: 2.0 };
        assert!(z1.approx_eq(z2, &T));
    }

    #[test]
    fn sorting_by_angle() {
        let pts =
            vec![PolarPoint::new(1.0, 3.0), PolarPoint::new(2.0, 1.0), PolarPoint::new(0.5, 2.0)];
        let idx = indices_by_angle(&pts);
        assert_eq!(idx, vec![1, 2, 0]);
    }

    #[test]
    fn sorting_ties_broken_by_radius() {
        let pts = vec![PolarPoint::new(2.0, 1.0), PolarPoint::new(1.0, 1.0)];
        let idx = indices_by_angle(&pts);
        assert_eq!(idx, vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "invalid polar radius")]
    fn negative_radius_panics() {
        PolarPoint::new(-1.0, 0.0);
    }
}
