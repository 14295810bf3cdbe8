//! Similarity of point sets (the paper's `A ≈ B` relation).
//!
//! Two sets are *similar* when one can be obtained from the other by
//! translation, uniform scaling, rotation, and/or reflection. The pattern
//! formation problem is exactly "reach a configuration similar to `F`".

use crate::angle::{angle_dist, normalize_angle};
use crate::circle::{smallest_enclosing_circle, Circle};
use crate::point::Point;
use crate::polar::PolarPoint;
use crate::tol::Tol;

/// A concrete witness that `src ≈ dst`: the similarity transform mapping the
/// source set onto the destination set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityMap {
    /// Center of the source set (its smallest-enclosing-circle center).
    pub src_center: Point,
    /// Center of the destination set.
    pub dst_center: Point,
    /// Rotation applied after recentring, radians.
    pub rotation: f64,
    /// Scale factor `dst / src`.
    pub scale: f64,
    /// Whether a reflection (across the x-axis, pre-rotation) is applied.
    pub mirrored: bool,
}

impl SimilarityMap {
    /// Applies the transform to a point of the source set.
    pub fn apply(&self, p: Point) -> Point {
        let mut v = p - self.src_center;
        if self.mirrored {
            v.y = -v.y;
        }
        self.dst_center + v.rotate(self.rotation) * self.scale
    }
}

/// Whether `a ≈ b`: equal-size sets matching up to translation, scaling,
/// rotation and reflection (both orientations are always tried — similarity
/// is chirality-free, like the robots).
///
/// Duplicate points (multiplicity) are honored as multisets.
///
/// # Example
///
/// ```
/// use apf_geometry::{are_similar, Point, Tol};
/// let a = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 1.0)];
/// // Scaled by 2, rotated 90° and translated:
/// let b = vec![Point::new(5.0, 5.0), Point::new(5.0, 7.0), Point::new(3.0, 5.0)];
/// assert!(are_similar(&a, &b, &Tol::default()));
/// ```
pub fn are_similar(a: &[Point], b: &[Point], tol: &Tol) -> bool {
    match_up_to_similarity(a, b, tol).is_some()
}

/// Finds a similarity transform mapping `a` onto `b` (as multisets), if one
/// exists.
///
/// Returns `None` when the sets have different sizes or no rotation /
/// reflection aligns them within tolerance.
pub fn match_up_to_similarity(a: &[Point], b: &[Point], tol: &Tol) -> Option<SimilarityMap> {
    if a.len() != b.len() {
        return None;
    }
    SimilarityTarget::new(b, tol).match_set(a)
}

/// A destination set `b` prepared once for [`match_up_to_similarity`]
/// against many source sets: its smallest enclosing circle, its polar form
/// normalized to unit enclosing radius, and its sorted normalized radii.
///
/// `SimilarityTarget::new(b, tol).match_set(a)` equals
/// `match_up_to_similarity(a, b, tol)` bit for bit; the completion move
/// prepares `F − {f}` once and matches `P − {r}` for every robot `r` that
/// its radius screen keeps.
#[derive(Debug, Clone)]
pub struct SimilarityTarget {
    len: usize,
    sec: Circle,
    tol: Tol,
    /// Normalized polar coordinates; empty when all points coincide.
    polar: Vec<PolarPoint>,
    /// The normalized radii, ascending.
    sorted_radii: Vec<f64>,
}

impl SimilarityTarget {
    /// Prepares `b` as the destination of similarity matches under `tol`.
    pub fn new(b: &[Point], tol: &Tol) -> Self {
        let sec = if b.is_empty() {
            Circle { center: Point::ORIGIN, radius: 0.0 }
        } else {
            smallest_enclosing_circle(b)
        };
        let polar = if tol.is_zero(sec.radius) {
            Vec::new()
        } else {
            b.iter()
                .map(|&p| {
                    let pp = PolarPoint::from_cartesian(p, sec.center);
                    PolarPoint { radius: pp.radius / sec.radius, angle: pp.angle }
                })
                .collect()
        };
        let mut sorted_radii: Vec<f64> = polar.iter().map(|pp| pp.radius).collect();
        sorted_radii.sort_by(f64::total_cmp);
        SimilarityTarget { len: b.len(), sec, tol: *tol, polar, sorted_radii }
    }

    /// The target's distances from the center of its enclosing circle, in
    /// units of that circle's radius, ascending — the sequence
    /// [`Self::match_set`] compares rank by rank. Empty when all points
    /// coincide.
    pub fn sorted_radii(&self) -> &[f64] {
        &self.sorted_radii
    }

    /// The similarity transform mapping `a` onto the target, if one exists
    /// (see [`match_up_to_similarity`]).
    ///
    /// Before any angular work, `a` is rejected when its sorted normalized
    /// radii differ from the target's by more than `eps` at some rank. The
    /// reject is exact: an accepted match pairs every radius of `a` with one
    /// of the target within `eps`, and because floating-point subtraction is
    /// monotone, uncrossing such a pairing keeps every pair within `eps` —
    /// so the sorted pairing is within `eps` too. Rank 0 is tested first,
    /// on `a`'s minimum normalized radius, before anything is allocated or
    /// sorted; most mismatches end there.
    pub fn match_set(&self, a: &[Point]) -> Option<SimilarityMap> {
        let tol = &self.tol;
        if a.len() != self.len {
            return None;
        }
        if a.is_empty() {
            return Some(SimilarityMap {
                src_center: Point::ORIGIN,
                dst_center: Point::ORIGIN,
                rotation: 0.0,
                scale: 1.0,
                mirrored: false,
            });
        }

        let ca = smallest_enclosing_circle(a);
        let cb = self.sec;

        // Degenerate: all points coincide.
        if tol.is_zero(ca.radius) || tol.is_zero(cb.radius) {
            if tol.is_zero(ca.radius) && tol.is_zero(cb.radius) {
                return Some(SimilarityMap {
                    src_center: ca.center,
                    dst_center: cb.center,
                    rotation: 0.0,
                    scale: 1.0,
                    mirrored: false,
                });
            }
            return None;
        }

        let scale = cb.radius / ca.radius;

        // Normalized radii (unit enclosing radius), as `PolarPoint` computes
        // them, and the exact reject on their sorted sequences. Radii are
        // never NaN or -0.0, so the minimum is rank 0 of the sorted radii.
        let radius_of = |p: Point| p.dist(ca.center) / ca.radius;
        let min_radius = a.iter().map(|&p| radius_of(p)).fold(f64::INFINITY, f64::min);
        if !tol.eq(min_radius, self.sorted_radii[0]) {
            return None;
        }
        let mut sorted: Vec<f64> = a.iter().map(|&p| radius_of(p)).collect();
        sorted.sort_by(f64::total_cmp);
        if sorted.iter().enumerate().any(|(k, &r)| !tol.eq(r, self.sorted_radii[k])) {
            return None;
        }

        // Normalized polar coordinates.
        let mut pa: Vec<PolarPoint> = a
            .iter()
            .map(|&p| PolarPoint {
                radius: radius_of(p),
                angle: PolarPoint::from_cartesian(p, ca.center).angle,
            })
            .collect();
        let pb = &self.polar;

        // Anchor: a point of `a` with maximal radius (on the unit circle).
        let anchor = pa
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.radius.total_cmp(&y.1.radius))
            .map(|(i, _)| i)?;
        let ra = pa[anchor].radius;

        let mut used = Vec::new();
        for mirrored in [false, true] {
            if mirrored {
                for pp in &mut pa {
                    pp.angle = normalize_angle(-pp.angle);
                }
            }
            // Try aligning the anchor with every point of b of matching radius.
            for target in pb.iter().filter(|pp| tol.eq(pp.radius, ra)) {
                let rot = normalize_angle(target.angle - pa[anchor].angle);
                if polar_multisets_match(&pa, pb, rot, tol, &mut used) {
                    return Some(SimilarityMap {
                        src_center: ca.center,
                        dst_center: cb.center,
                        rotation: rot,
                        scale,
                        mirrored,
                    });
                }
            }
        }
        None
    }
}

/// Whether rotating every point of `a` by `rot` yields the multiset `b`
/// (both already normalized polar sets around their centers). `used` is
/// scratch space for the points of `b` already matched.
fn polar_multisets_match(
    a: &[PolarPoint],
    b: &[PolarPoint],
    rot: f64,
    tol: &Tol,
    used: &mut Vec<bool>,
) -> bool {
    debug_assert_eq!(a.len(), b.len());
    used.clear();
    used.resize(b.len(), false);
    for pa in a {
        let cand = PolarPoint { radius: pa.radius, angle: normalize_angle(pa.angle + rot) };
        let mut found = false;
        for (j, pb) in b.iter().enumerate() {
            if used[j] {
                continue;
            }
            let ok = if tol.is_zero(cand.radius) && tol.is_zero(pb.radius) {
                true
            } else {
                tol.eq(cand.radius, pb.radius)
                    && angle_dist(cand.angle, pb.angle) * cand.radius.max(pb.radius)
                        <= tol.eps.max(tol.angle_eps)
            };
            if ok {
                used[j] = true;
                found = true;
                break;
            }
        }
        if !found {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_3, TAU};

    fn tol() -> Tol {
        Tol::new(1e-6)
    }

    fn transform(
        pts: &[Point],
        rot: f64,
        scale: f64,
        dx: f64,
        dy: f64,
        mirror: bool,
    ) -> Vec<Point> {
        pts.iter()
            .map(|&p| {
                let mut v = p.to_vector();
                if mirror {
                    v.y = -v.y;
                }
                (v.rotate(rot) * scale).to_point() + crate::point::Vector::new(dx, dy)
            })
            .collect()
    }

    fn scalene() -> Vec<Point> {
        vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(1.0, 2.0), Point::new(2.5, 0.5)]
    }

    #[test]
    fn identical_sets_are_similar() {
        let a = scalene();
        assert!(are_similar(&a, &a, &tol()));
    }

    #[test]
    fn translation_scale_rotation() {
        let a = scalene();
        let b = transform(&a, 1.234, 3.5, -7.0, 2.0, false);
        let m = match_up_to_similarity(&a, &b, &tol()).expect("should match");
        assert!(!m.mirrored);
        assert_eq!(a.len(), b.len());
        // apf-lint: allow(zip-length-mismatch) — lengths asserted equal just above
        for (pa, pb_expect) in a.iter().zip(b.iter()) {
            // The map sends each source point to *some* point of b; for a
            // rigid transform of a scalene set it must be the corresponding
            // one.
            assert!(m.apply(*pa).approx_eq(*pb_expect, &Tol::new(1e-5)));
        }
    }

    #[test]
    fn reflection_is_similarity() {
        let a = scalene();
        let b = transform(&a, 0.0, 1.0, 0.0, 0.0, true);
        let m = match_up_to_similarity(&a, &b, &tol()).expect("mirror should match");
        assert!(m.mirrored);
    }

    #[test]
    fn different_shapes_are_not_similar() {
        let a = scalene();
        let mut b = scalene();
        b[2] = Point::new(1.1, 2.3); // perturb one point
        assert!(!are_similar(&a, &b, &tol()));
    }

    #[test]
    fn different_sizes_are_not_similar() {
        let a = scalene();
        let b = &a[..3];
        assert!(!are_similar(&a, b, &tol()));
    }

    #[test]
    fn regular_polygons_similar_across_rotations() {
        let hex_a: Vec<Point> = (0..6)
            .map(|i| {
                let t = TAU * i as f64 / 6.0;
                Point::new(t.cos(), t.sin())
            })
            .collect();
        let hex_b: Vec<Point> = (0..6)
            .map(|i| {
                let t = TAU * i as f64 / 6.0 + FRAC_PI_3 / 2.0;
                Point::new(10.0 + 5.0 * t.cos(), 3.0 + 5.0 * t.sin())
            })
            .collect();
        assert!(are_similar(&hex_a, &hex_b, &tol()));
    }

    #[test]
    fn polygon_vs_slightly_irregular_not_similar() {
        let hex: Vec<Point> = (0..6)
            .map(|i| {
                let t = TAU * i as f64 / 6.0;
                Point::new(t.cos(), t.sin())
            })
            .collect();
        let mut irr = hex.clone();
        let t = TAU / 6.0 + 0.1;
        irr[1] = Point::new(t.cos(), t.sin());
        assert!(!are_similar(&hex, &irr, &tol()));
    }

    #[test]
    fn multiset_multiplicity_respected() {
        // Scalene base (no mirror symmetry), one doubled point.
        let a = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 2.0),
            Point::new(1.0, 2.0), // doubled point
        ];
        let b_same = transform(&a, 0.4, 2.0, 1.0, 1.0, false);
        assert!(are_similar(&a, &b_same, &tol()));
        // Move the duplicate onto a different base point: multiplicities no
        // longer match (and the base has no symmetry to hide it).
        let mut b_diff = b_same.clone();
        b_diff[3] = b_diff[0];
        assert!(!are_similar(&a, &b_diff, &tol()));
    }

    #[test]
    fn coincident_sets() {
        let a = vec![Point::new(1.0, 1.0); 4];
        let b = vec![Point::new(-2.0, 5.0); 4];
        assert!(are_similar(&a, &b, &tol()));
        let c = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        assert!(!are_similar(&a[..2], &c, &tol()));
    }

    #[test]
    fn empty_sets_are_similar() {
        assert!(are_similar(&[], &[], &tol()));
    }

    #[test]
    fn center_point_plus_ring() {
        // A point at the very center plus a ring; rotation must still match.
        let mut a: Vec<Point> = (0..5)
            .map(|i| {
                let t = TAU * i as f64 / 5.0;
                Point::new(t.cos(), t.sin())
            })
            .collect();
        a.push(Point::ORIGIN);
        let b = transform(&a, 2.0, 0.5, 3.0, -1.0, false);
        assert!(are_similar(&a, &b, &tol()));
    }
}
