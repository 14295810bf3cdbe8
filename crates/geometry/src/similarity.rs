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

/// How far the centroid spread (see [`centroid_spread`]) of a set that
/// [`SimilarityTarget::match_set`] accepts may sit from the target's, in
/// units of `δ = eps + max(eps, angle_eps)`.
///
/// An accepted set, normalized to its enclosing circle and rotated or
/// mirrored onto the target, lies pointwise within `δ` of the normalized
/// target: each matched pair is within `eps` in radius and then within an
/// arc of `max(eps, angle_eps)`, or has both points within `eps` of the
/// center. The spread ignores the normalization, the rotation and the
/// mirroring. Under the perturbation the centroid moves at most `δ`, so
/// each centroid distance moves at most `2δ`; the largest centroid distance
/// is at least the enclosing radius, 1, so it stays above `1 − 2δ`. With
/// `u`, `U` the smallest and largest centroid distances, `u/U` then moves
/// at most `4δ/(1 − 2δ)` and the spread `(u/U)²` at most `8δ/(1 − 2δ)`:
/// 8.02·`δ` for every `δ` up to [`SPREAD_MAX_DELTA`]. The slack is 100·`δ`,
/// a margin of 12×. The margin also covers Welzl's containment slack,
/// which can leave a computed circle a few parts per million above the
/// minimum (see `SEC_SLACK` in apf-core) and so lowers the bound 1 on the
/// largest centroid distance by as much. Rounding is bounded apart (see
/// [`SPREAD_ROUNDING`]) and added to `δ`.
const SPREAD_SLACK: f64 = 100.0;

/// The largest `δ = eps + max(eps, angle_eps)` for which `match_set` runs
/// its spread screen. Beyond it `1 − 2δ` is no longer close to 1 and the
/// screen would reject little anyway.
const SPREAD_MAX_DELTA: f64 = 1e-3;

/// A destination set `b` prepared once for [`match_up_to_similarity`]
/// against many source sets: its smallest enclosing circle, its polar form
/// normalized to unit enclosing radius, its sorted normalized radii, and
/// the centroid spread behind [`Self::match_set`]'s first reject.
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
    /// The target's centroid spread and the widest gap from it that a set
    /// the full match accepts can show; `None` when the screen is skipped
    /// (all points coincide, or `δ` above [`SPREAD_MAX_DELTA`]).
    spread: Option<(f64, f64)>,
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
        let delta = tol.eps + tol.eps.max(tol.angle_eps);
        let spread = (!tol.is_zero(sec.radius) && delta <= SPREAD_MAX_DELTA).then(|| {
            let rounding = SPREAD_ROUNDING * b.len() as f64 * f64::EPSILON;
            (centroid_spread(b), SPREAD_SLACK * (delta + rounding))
        });
        SimilarityTarget { len: b.len(), sec, tol: *tol, polar, sorted_radii, spread }
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
    /// First, with no enclosing circle: `a` is rejected when its centroid
    /// spread `min |x − x̄|² / max |x − x̄|²` (`x̄` the centroid, a number
    /// no similarity changes) differs from the target's by more than 100
    /// times `δ = eps + max(eps, angle_eps)`, plus a rounding allowance.
    /// Any set the full match accepts differs by at most `8δ/(1 − 2δ)`, so
    /// the reject is exact with a margin of 12×. The screen is skipped when
    /// the target's points coincide or `δ` exceeds 1e-3, and a NaN spread
    /// falls through. Most sets that are not similar to the target end
    /// here, after two passes over `a` and no allocation.
    ///
    /// Then Welzl runs on `a`, and before any angular work `a` is rejected
    /// when its sorted normalized radii differ from the target's by more
    /// than `eps` at some rank. The reject is exact: an accepted match
    /// pairs every radius of `a` with one of the target within `eps`, and
    /// because floating-point subtraction is monotone, uncrossing such a
    /// pairing keeps every pair within `eps` — so the sorted pairing is
    /// within `eps` too. Rank 0 is tested first, on `a`'s minimum
    /// normalized radius, before anything is allocated or sorted.
    pub fn match_set(&self, a: &[Point]) -> Option<SimilarityMap> {
        if let Some((spread, slack)) = self.spread {
            // A NaN spread compares false and falls through.
            if (centroid_spread(a) - spread).abs() > slack {
                return None;
            }
        }
        self.full_match(a)
    }

    /// [`Self::match_set`] without the spread screen.
    fn full_match(&self, a: &[Point]) -> Option<SimilarityMap> {
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

/// Rounding in one computed [`centroid_spread`], in units of
/// `n · f64::EPSILON`.
///
/// Coordinates are taken relative to the first point, so every operand is
/// at most the set's diameter `2R` (`R` its smallest enclosing radius):
/// the centroid is off by at most `2nR·u` (`u = EPSILON/2`) per coordinate,
/// each centroid offset by `(2n + 4)R·u`, and each squared distance, at
/// most `4R²`, by `(11.3n + 35)R²·u`. The largest squared distance is at
/// least `R²`, so the spread is off by at most `(22.6n + 71)·u`, below
/// `47n·EPSILON`; the target's and `a`'s together below `94n·EPSILON`.
const SPREAD_ROUNDING: f64 = 94.0;

/// The centroid spread `min |x − x̄|² / max |x − x̄|²` of `points`, `x̄`
/// their centroid: a number in `[0, 1]` that translation, rotation,
/// reflection and scaling leave unchanged. Two passes, no square root and
/// no allocation. NaN when there are no points, when they all coincide or
/// when a coordinate is not finite.
fn centroid_spread(points: &[Point]) -> f64 {
    let Some(&o) = points.first() else {
        return f64::NAN;
    };
    let n = points.len() as f64;
    let (sx, sy) =
        points.iter().fold((0.0, 0.0), |(sx, sy), p| (sx + (p.x - o.x), sy + (p.y - o.y)));
    let (cx, cy) = (sx / n, sy / n);
    if !(cx.is_finite() && cy.is_finite()) {
        return f64::NAN;
    }
    let (mut lo, mut hi) = (f64::INFINITY, 0.0_f64);
    for p in points {
        let (dx, dy) = (p.x - o.x - cx, p.y - o.y - cy);
        let d = dx * dx + dy * dy;
        lo = lo.min(d);
        hi = hi.max(d);
    }
    lo / hi
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    /// `m` with every float as its bits, for exact comparison.
    fn map_bits(m: Option<SimilarityMap>) -> Option<[u64; 7]> {
        m.map(|m| {
            [
                m.src_center.x.to_bits(),
                m.src_center.y.to_bits(),
                m.dst_center.x.to_bits(),
                m.dst_center.y.to_bits(),
                m.rotation.to_bits(),
                m.scale.to_bits(),
                u64::from(m.mirrored),
            ]
        })
    }

    /// A random target of 4–24 points in `[-1, 1]²`. One in sixteen has
    /// all its points coincide; otherwise one in four has a point at the
    /// center of the others' enclosing circle, and one in four repeats a
    /// point.
    fn random_target(rng: &mut StdRng) -> Vec<Point> {
        let n = rng.gen_range(4..=24usize);
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        if rng.gen_bool(1.0 / 16.0) {
            return vec![pts[0]; n];
        }
        if rng.gen_bool(0.25) {
            pts[0] = smallest_enclosing_circle(&pts[1..]).center;
        }
        if rng.gen_bool(0.25) {
            let i = rng.gen_range(1..n);
            pts[i] = pts[rng.gen_range(0..i)];
        }
        pts
    }

    /// `pts` under a random similarity (rotation, scale 0.25–4, a mirror
    /// half the time, translation up to ±10), each image point then pushed
    /// in a random direction by up to `push` times the image's enclosing
    /// radius.
    fn random_image(pts: &[Point], push: f64, rng: &mut StdRng) -> Vec<Point> {
        let (rot, scale, mirror) =
            (rng.gen_range(0.0..TAU), rng.gen_range(0.25..4.0), rng.gen_bool(0.5));
        let (dx, dy) = (rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
        let image = transform(pts, rot, scale, dx, dy, mirror);
        let radius = smallest_enclosing_circle(&image).radius;
        image
            .into_iter()
            .map(|p| {
                let (angle, length) = (rng.gen_range(0.0..TAU), rng.gen_range(0.0..=push) * radius);
                Point::new(p.x + length * angle.cos(), p.y + length * angle.sin())
            })
            .collect()
    }

    #[test]
    fn the_spread_screen_never_changes_an_answer() {
        let tols = [
            Tol::default(),
            Tol::new(1e-6),
            Tol::new(1e-9),
            Tol { eps: 1e-9, angle_eps: 1e-6 },
            Tol::coarse(),
        ];
        let mut rng = StdRng::seed_from_u64(0x5bd1_e995);
        let (mut accepted, mut screened, mut passed_then_rejected) = (0, 0, 0);
        let mut widest = 0.0_f64;
        for case in 0..100_000 {
            let tol = tols[case % tols.len()];
            let delta = tol.eps + tol.eps.max(tol.angle_eps);
            let b = random_target(&mut rng);
            let target = SimilarityTarget::new(&b, &tol);
            let a = match case / tols.len() % 4 {
                // Straddles acceptance: every point pushed 0–1.5 δ.
                0 | 1 => random_image(&b, rng.gen_range(0.0..1.5) * delta, &mut rng),
                2 => random_target(&mut rng),
                _ => {
                    let mut image = random_image(&b, 0.0, &mut rng);
                    if rng.gen_bool(0.5) {
                        image.pop();
                    } else {
                        image.push(Point::new(rng.gen_range(-10.0..10.0), 0.0));
                    }
                    image
                }
            };
            let full = target.full_match(&a);
            assert_eq!(
                map_bits(target.match_set(&a)),
                map_bits(full),
                "case {case}: target {b:?}, set {a:?}"
            );
            let gap =
                target.spread.map(|(spread, slack)| ((centroid_spread(&a) - spread).abs(), slack));
            if full.is_some() {
                accepted += 1;
                widest = widest.max(gap.map_or(0.0, |(gap, _)| gap) / delta);
            } else if gap.is_some_and(|(gap, slack)| gap > slack) {
                screened += 1;
            } else {
                passed_then_rejected += 1;
            }
        }
        // The bound the slack is built on, `8δ/(1 − 2δ)`, holds for every
        // accepted set, and all three outcomes occur.
        assert!(widest <= 8.02, "an accepted spread sat {widest} δ from the target's");
        assert!(accepted > 10_000, "{accepted} accepted");
        assert!(screened > 10_000, "{screened} screened");
        assert!(passed_then_rejected > 1_000, "{passed_then_rejected} rejected by the full match");
    }

    #[test]
    fn a_screened_reject_opens_no_sec_span() {
        use apf_trace::span::{self, VecSpanSink};
        use apf_trace::SpanLabel;
        use std::sync::{Arc, Mutex};

        let target = SimilarityTarget::new(&scalene(), &tol());
        let square = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let sec_spans = |run: &dyn Fn() -> Option<SimilarityMap>| {
            let handle: Arc<Mutex<VecSpanSink>> = Arc::default();
            assert!(span::install(Box::new(Arc::clone(&handle))).is_none());
            assert!(run().is_none());
            drop(span::take());
            let spans = &handle.lock().expect("no recording thread panicked").spans;
            spans.iter().filter(|s| s.label == SpanLabel::Sec).count()
        };
        assert_eq!(sec_spans(&|| target.match_set(&square)), 0);
        assert_eq!(sec_spans(&|| target.full_match(&square)), 1, "the full match runs Welzl");
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
