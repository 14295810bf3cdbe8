//! Pattern and initial-configuration generators.
//!
//! The pattern formation problem is parameterized by an initial configuration
//! `I` and a target pattern `F`. This crate generates both:
//!
//! * arbitrary (asymmetric) configurations and patterns — the general case;
//! * configurations with a prescribed symmetricity `ρ(I)` — the hard inputs
//!   for symmetry breaking, and the inputs deterministic algorithms provably
//!   cannot handle unless `ρ(I) | ρ(F)`;
//! * regular polygons, bi-angled configurations, lines, grids, stars — the
//!   structured workloads of the experiment harness;
//! * patterns with multiplicity points (Section 5 extension), including a
//!   multiplicity point at the pattern's center (Appendix C).
//!
//! All generators are deterministic in their `seed` so every experiment is
//! reproducible.

#![forbid(unsafe_code)]

use apf_geometry::symmetry::{has_axis_of_symmetry, symmetricity};
use apf_geometry::{Configuration, Point, Tol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// A regular `n`-gon of the given radius centered at the origin, starting at
/// angle `phase`.
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0`.
pub fn regular_polygon(n: usize, radius: f64, phase: f64) -> Vec<Point> {
    assert!(n > 0, "polygon needs at least one vertex");
    assert!(radius > 0.0, "radius must be positive");
    (0..n)
        .map(|i| {
            let a = TAU * i as f64 / n as f64 + phase;
            Point::new(radius * a.cos(), radius * a.sin())
        })
        .collect()
}

/// A bi-angled configuration: `pairs * 2` robots on a circle with
/// alternating angular gaps `alpha` and `4π/(2·pairs) − alpha`.
///
/// # Panics
///
/// Panics if `pairs == 0`, `radius <= 0`, or `alpha` is not in
/// `(0, 2π/pairs)`.
pub fn biangular(pairs: usize, radius: f64, alpha: f64, phase: f64) -> Vec<Point> {
    assert!(pairs > 0, "needs at least one pair");
    assert!(radius > 0.0, "radius must be positive");
    let m = 2 * pairs;
    let beta = 2.0 * TAU / m as f64 - alpha;
    assert!(alpha > 0.0 && beta > 0.0, "alpha out of range");
    let mut angle = phase;
    (0..m)
        .map(|i| {
            let p = Point::new(radius * angle.cos(), radius * angle.sin());
            angle += if i % 2 == 0 { alpha } else { beta };
            p
        })
        .collect()
}

/// `n` collinear points with unit spacing (a "line" pattern).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: usize) -> Vec<Point> {
    assert!(n > 0);
    (0..n).map(|i| Point::new(i as f64, 0.0)).collect()
}

/// A `rows × cols` unit grid pattern.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Vec<Point> {
    assert!(rows > 0 && cols > 0);
    let mut pts = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            pts.push(Point::new(c as f64, r as f64));
        }
    }
    pts
}

/// A star: `spikes` outer vertices interleaved with `spikes` inner vertices.
///
/// # Panics
///
/// Panics if `spikes < 2` or radii are non-positive or `inner >= outer`.
pub fn star(spikes: usize, outer: f64, inner: f64) -> Vec<Point> {
    assert!(spikes >= 2, "a star needs at least two spikes");
    assert!(inner > 0.0 && outer > inner, "need 0 < inner < outer");
    (0..2 * spikes)
        .map(|i| {
            let a = TAU * i as f64 / (2 * spikes) as f64;
            let r = if i % 2 == 0 { outer } else { inner };
            Point::new(r * a.cos(), r * a.sin())
        })
        .collect()
}

/// An arbitrary pattern of `n` distinct points (general position, no
/// multiplicity), deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_pattern(n: usize, seed: u64) -> Vec<Point> {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let tol = Tol::default();
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    while pts.len() < n {
        let p = Point::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        // Keep points well separated so tolerance decisions are easy.
        if pts.iter().all(|q| q.dist(p) > 0.05) && !p.approx_eq(Point::ORIGIN, &tol) {
            pts.push(p);
        }
    }
    pts
}

/// An asymmetric initial configuration: `n` distinct points with `ρ = 1` and
/// no axis of symmetry, nobody at the center of the smallest enclosing
/// circle. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n < 3` (smaller sets are always symmetric).
pub fn asymmetric_configuration(n: usize, seed: u64) -> Vec<Point> {
    assert!(n >= 3, "asymmetry needs at least three robots");
    let tol = Tol::default();
    for attempt in 0..256 {
        let pts = random_pattern(n, seed.wrapping_add(attempt * 0x9E37_79B9));
        let cfg = Configuration::new(pts.clone());
        let c = cfg.sec().center;
        if pts.iter().any(|p| p.approx_eq(c, &tol)) {
            continue;
        }
        if symmetricity(&cfg, c, &tol) == 1 && !has_axis_of_symmetry(&cfg, c, &tol) {
            return pts;
        }
    }
    unreachable!("random point sets are asymmetric with overwhelming probability");
}

/// A configuration with symmetricity **exactly** `rho`: `n / rho` random
/// orbit seeds replicated by rotation around the origin. Deterministic in
/// `seed`.
///
/// # Panics
///
/// Panics if `rho < 2`, or `rho` does not divide `n`, or `n / rho < 1`.
pub fn symmetric_configuration(n: usize, rho: usize, seed: u64) -> Vec<Point> {
    assert!(rho >= 2, "use asymmetric_configuration for rho = 1");
    assert!(n.is_multiple_of(rho) && n / rho >= 1, "rho must divide n");
    let orbits = n / rho;
    let tol = Tol::default();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..256 {
        // Random orbit seeds in the fundamental sector, distinct radii so
        // orbits do not merge and the symmetry is not accidentally larger.
        let mut pts = Vec::with_capacity(n);
        let mut radii: Vec<f64> = Vec::new();
        for _ in 0..orbits {
            let mut r;
            loop {
                r = rng.gen_range(0.3..1.5);
                if radii.iter().all(|&q: &f64| (q - r).abs() > 0.05) {
                    break;
                }
            }
            radii.push(r);
            let a = rng.gen_range(0.02..(TAU / rho as f64 - 0.02));
            for k in 0..rho {
                let t = a + TAU * k as f64 / rho as f64;
                pts.push(Point::new(r * t.cos(), r * t.sin()));
            }
        }
        let cfg = Configuration::new(pts.clone());
        if symmetricity(&cfg, Point::ORIGIN, &tol) == rho
            && !has_axis_of_symmetry(&cfg, Point::ORIGIN, &tol)
        {
            return pts;
        }
    }
    unreachable!("random orbit seeds realize exact symmetricity with overwhelming probability");
}

/// A pattern containing multiplicity points: `n` total robots over
/// `distinct` distinct positions (the surplus doubles up on the first
/// positions).
///
/// # Panics
///
/// Panics if `distinct < 2` or `n < distinct`.
pub fn pattern_with_multiplicity(n: usize, distinct: usize, seed: u64) -> Vec<Point> {
    assert!(distinct >= 2, "need at least two distinct positions");
    assert!(n >= distinct, "n must cover all distinct positions");
    let base = random_pattern(distinct, seed);
    let mut pts = base.clone();
    let mut i = 0;
    while pts.len() < n {
        pts.push(base[i % distinct]);
        i += 1;
    }
    pts
}

/// A random `n`-point pattern whose `m` innermost points are moved onto
/// `c(F)`, the center of its smallest enclosing circle: a multiplicity
/// point at the center, formed through Appendix C's `F̃` and gather step.
///
/// # Panics
///
/// Panics if `m > n`.
pub fn pattern_with_center_points(n: usize, m: usize, seed: u64) -> Vec<Point> {
    assert!(m <= n, "cannot move more points than the pattern has");
    let mut pts = random_pattern(n, seed);
    let c = Configuration::new(pts.clone()).sec().center;
    let mut by_radius: Vec<usize> = (0..n).collect();
    by_radius.sort_by(|&x, &y| pts[x].dist(c).total_cmp(&pts[y].dist(c)));
    for &i in &by_radius[..m] {
        pts[i] = c;
    }
    pts
}

/// Scales and translates a point set so its smallest enclosing circle is the
/// unit circle at the origin.
///
/// # Panics
///
/// Panics if all points coincide.
pub fn normalize(points: &[Point]) -> Vec<Point> {
    Configuration::new(points.to_vec()).normalized().points().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> Tol {
        Tol::default()
    }

    #[test]
    fn polygon_has_full_symmetry() {
        for n in [3usize, 5, 8] {
            let cfg = Configuration::new(regular_polygon(n, 1.0, 0.3));
            assert_eq!(symmetricity(&cfg, Point::ORIGIN, &tol()), n);
        }
    }

    #[test]
    fn biangular_structure() {
        let pts = biangular(3, 1.0, 0.4, 0.1);
        assert_eq!(pts.len(), 6);
        let cfg = Configuration::new(pts);
        use apf_geometry::symmetry::check_regular_around;
        let kind = check_regular_around(cfg.points(), Point::ORIGIN, &tol()).unwrap();
        assert!(kind.is_biangular());
    }

    #[test]
    fn random_pattern_is_distinct_and_deterministic() {
        let a = random_pattern(20, 99);
        let b = random_pattern(20, 99);
        assert_eq!(a, b);
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert!(a[i].dist(a[j]) > 0.04);
            }
        }
        assert_ne!(random_pattern(20, 100), a);
    }

    #[test]
    fn asymmetric_configuration_has_trivial_symmetry() {
        for seed in [1u64, 2, 3] {
            let pts = asymmetric_configuration(9, seed);
            let cfg = Configuration::new(pts);
            let c = cfg.sec().center;
            assert_eq!(symmetricity(&cfg, c, &tol()), 1);
            assert!(!has_axis_of_symmetry(&cfg, c, &tol()));
        }
    }

    #[test]
    fn symmetric_configuration_exact_rho() {
        for (n, rho) in [(8usize, 2usize), (9, 3), (12, 4), (12, 6)] {
            let pts = symmetric_configuration(n, rho, 5);
            assert_eq!(pts.len(), n);
            let cfg = Configuration::new(pts);
            assert_eq!(symmetricity(&cfg, Point::ORIGIN, &tol()), rho, "n={n} rho={rho}");
        }
    }

    #[test]
    fn multiplicity_pattern_counts() {
        let pts = pattern_with_multiplicity(10, 6, 3);
        assert_eq!(pts.len(), 10);
        let cfg = Configuration::new(pts);
        assert!(cfg.has_multiplicity(&tol()));
        assert_eq!(cfg.multiplicity_groups(&tol()).len(), 6);
    }

    #[test]
    fn normalize_unit_sec() {
        let pts = normalize(&grid(3, 4));
        let cfg = Configuration::new(pts);
        assert!(cfg.sec().center.approx_eq(Point::ORIGIN, &tol()));
        assert!(tol().eq(cfg.sec().radius, 1.0));
    }

    #[test]
    fn line_grid_star_shapes() {
        assert_eq!(line(5).len(), 5);
        assert_eq!(grid(2, 3).len(), 6);
        let s = star(5, 2.0, 1.0);
        assert_eq!(s.len(), 10);
        let cfg = Configuration::new(s);
        assert_eq!(symmetricity(&cfg, Point::ORIGIN, &tol()), 5);
    }

    #[test]
    #[should_panic(expected = "rho must divide")]
    fn symmetric_config_bad_rho_panics() {
        symmetric_configuration(10, 3, 0);
    }
}
