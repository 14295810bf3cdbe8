//! Tolerance framework for floating-point geometric decisions.
//!
//! Every geometric predicate in this crate (point coincidence, on-circle
//! tests, angular regularity, view comparison, …) is parameterized by a
//! [`Tol`]. Simulated configurations are constructed so that true geometric
//! distinctions are orders of magnitude larger than the tolerance, which makes
//! the predicates stable decision procedures rather than exact-arithmetic
//! approximations.

/// Comparison tolerances for lengths and angles.
///
/// Two separate tolerances are kept because the algorithm mixes decisions on
/// distances (which scale with the configuration, normalized so the smallest
/// enclosing circle has radius 1) and on angles (which are scale-free).
///
/// # Example
///
/// ```
/// use apf_geometry::Tol;
/// let tol = Tol::default();
/// assert!(tol.eq(1.0, 1.0 + 1e-10));
/// assert!(tol.lt(1.0, 1.1));
/// assert!(!tol.lt(1.0, 1.0 + 1e-10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tol {
    /// Absolute tolerance for length comparisons (configurations are
    /// normalized to unit enclosing-circle radius, so absolute ≈ relative).
    pub eps: f64,
    /// Absolute tolerance for angle comparisons, in radians.
    pub angle_eps: f64,
}

impl Default for Tol {
    fn default() -> Self {
        Tol { eps: 1e-7, angle_eps: 1e-7 }
    }
}

impl Tol {
    /// Creates a tolerance with the given length epsilon and a matching
    /// angular epsilon.
    pub fn new(eps: f64) -> Self {
        Tol { eps, angle_eps: eps }
    }

    /// A looser tolerance used by iterative numeric routines (Weiszfeld,
    /// center refinement) when verifying their own fixed points.
    pub fn coarse() -> Self {
        Tol { eps: 1e-5, angle_eps: 1e-5 }
    }

    /// `a == b` within the length tolerance.
    #[inline]
    pub fn eq(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.eps
    }

    /// `a < b` strictly, beyond the length tolerance.
    #[inline]
    pub fn lt(&self, a: f64, b: f64) -> bool {
        b - a > self.eps
    }

    /// `a <= b` within the length tolerance.
    #[inline]
    pub fn le(&self, a: f64, b: f64) -> bool {
        a - b <= self.eps
    }

    /// `a > b` strictly, beyond the length tolerance.
    #[inline]
    pub fn gt(&self, a: f64, b: f64) -> bool {
        a - b > self.eps
    }

    /// `a >= b` within the length tolerance.
    #[inline]
    pub fn ge(&self, a: f64, b: f64) -> bool {
        b - a <= self.eps
    }

    /// `a == 0` within the length tolerance.
    #[inline]
    pub fn is_zero(&self, a: f64) -> bool {
        a.abs() <= self.eps
    }

    /// `a == b` within the angular tolerance.
    #[inline]
    pub fn ang_eq(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.angle_eps
    }

    /// `a == 0` within the angular tolerance.
    #[inline]
    pub fn ang_is_zero(&self, a: f64) -> bool {
        a.abs() <= self.angle_eps
    }

    /// `a < b` strictly, beyond the angular tolerance.
    #[inline]
    pub fn ang_lt(&self, a: f64, b: f64) -> bool {
        b - a > self.angle_eps
    }

    /// Three-way comparison of lengths with tolerance: returns
    /// `Ordering::Equal` when the two values are within `eps`.
    #[inline]
    pub fn cmp(&self, a: f64, b: f64) -> std::cmp::Ordering {
        if self.eq(a, b) {
            std::cmp::Ordering::Equal
        } else if a < b {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn eq_within_eps() {
        let t = Tol::new(1e-6);
        assert!(t.eq(1.0, 1.0 + 5e-7));
        assert!(!t.eq(1.0, 1.0 + 2e-6));
    }

    #[test]
    fn strict_orders_are_exclusive() {
        let t = Tol::new(1e-6);
        assert!(t.lt(0.0, 1.0));
        assert!(!t.lt(1.0, 1.0 + 1e-8));
        assert!(t.gt(1.0, 0.0));
        assert!(!t.gt(1.0 + 1e-8, 1.0));
    }

    #[test]
    fn le_ge_include_equality_band() {
        let t = Tol::new(1e-6);
        assert!(t.le(1.0 + 1e-8, 1.0));
        assert!(t.ge(1.0 - 1e-8, 1.0));
        assert!(!t.le(1.1, 1.0));
        assert!(!t.ge(0.9, 1.0));
    }

    #[test]
    fn cmp_collapses_equality_band() {
        let t = Tol::new(1e-6);
        assert_eq!(t.cmp(1.0, 1.0 + 1e-9), Ordering::Equal);
        assert_eq!(t.cmp(0.5, 1.0), Ordering::Less);
        assert_eq!(t.cmp(2.0, 1.0), Ordering::Greater);
    }

    #[test]
    fn angular_comparisons_use_angle_eps() {
        let t = Tol { eps: 1e-12, angle_eps: 1e-3 };
        assert!(t.ang_eq(1.0, 1.0005));
        assert!(!t.eq(1.0, 1.0005));
        assert!(t.ang_lt(0.0, 0.01));
        assert!(!t.ang_lt(0.0, 0.0005));
    }

    #[test]
    fn zero_checks() {
        let t = Tol::new(1e-6);
        assert!(t.is_zero(1e-9));
        assert!(!t.is_zero(1e-3));
        assert!(t.ang_is_zero(-1e-9));
    }

    #[test]
    fn default_is_tight() {
        let t = Tol::default();
        assert!(t.eps <= 1e-6);
        assert!(t.angle_eps <= 1e-6);
    }
}
