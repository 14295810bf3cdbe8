//! Golden test of the similarity matcher and the `C(P)` holder sweep.
//!
//! `match_up_to_similarity` decides the terminal check `P ≈ F` and the
//! completion move's `P − {r} ≈ F − {f}`, and its witness maps the last free
//! pattern point into the configuration; the holder mask picks the selected
//! robot's destination. Both reach every trace digest, so a faster
//! implementation must return the same result bit for bit, not merely an
//! equivalent one. This test runs both on 2,000 seeded pairs and compares one
//! line per pair with `similarity_golden.txt`:
//!
//! * exact images under rotation, scale, mirroring and translation, in
//!   shuffled order (random sets and rotationally symmetric ones);
//! * images with one point moved by 0.5–2 × `eps` in normalized radius or
//!   arc length, on both sides of the tolerance;
//! * completion pairs: a configuration one robot away from a pattern, checked
//!   robot by robot against `F − {f}` as the completion move does;
//! * sets with repeated points, and unrelated sets.
//!
//! A line holds `None` or the witness (`m=` mirrored flag, then the
//! `to_bits()` of the rotation, the scale and both centers), then each set's
//! holder mask (`1` = the point holds `C(P)`). Completion lines hold the
//! finalists and the witness mapping `F − {f}` onto the first finalist's
//! `P − {r}`. Regenerate the fixture only for an intentional change of the
//! matcher's output:
//!
//! ```text
//! APF_BLESS=1 cargo test -p apf-geometry --test similarity_golden
//! ```

use apf_geometry::similarity::SimilarityMap;
use apf_geometry::{
    match_up_to_similarity, smallest_enclosing_circle, Configuration, Point, SimilarityTarget, Tol,
};
use std::f64::consts::TAU;
use std::fmt::Write as _;

const PAIRS: u64 = 2_000;
const SEED: u64 = 0x51_3A1A;
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/similarity_golden.txt");

/// SplitMix64: a self-contained generator, so the fixture does not depend on
/// any other crate's sampling code.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

fn at(c: Point, r: f64, a: f64) -> Point {
    Point::new(c.x + r * a.cos(), c.y + r * a.sin())
}

/// The tolerances the matcher runs with: the simulator's default, and a
/// looser one so the tolerance band itself varies.
fn tol_of(rng: &mut Rng) -> Tol {
    rng.pick(&[Tol::default(), Tol::default(), Tol::new(1e-6)])
}

fn random_set(rng: &mut Rng, n: usize) -> Vec<Point> {
    (0..n).map(|_| Point::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0))).collect()
}

/// A rotationally symmetric set: one or two rings of `k` points, optionally
/// with a point at the center, so the anchor has many candidate targets.
fn symmetric_set(rng: &mut Rng) -> Vec<Point> {
    let k = 3 + rng.below(6);
    let phase = rng.range(0.0, TAU);
    let mut pts: Vec<Point> =
        (0..k).map(|i| at(Point::ORIGIN, 1.0, phase + TAU * i as f64 / k as f64)).collect();
    if rng.below(2) == 0 {
        let (r, shift) = (rng.range(0.2, 0.8), rng.range(0.0, TAU / k as f64));
        pts.extend((0..k).map(|i| at(Point::ORIGIN, r, phase + shift + TAU * i as f64 / k as f64)));
    }
    if rng.below(3) == 0 {
        pts.push(Point::ORIGIN);
    }
    pts
}

/// A random similarity image of `pts` (rotation, scale, optional mirror,
/// translation), point `i` mapped to point `i`.
fn image(rng: &mut Rng, pts: &[Point]) -> Vec<Point> {
    let rot = rng.range(0.0, TAU);
    let scale = match rng.below(4) {
        0 => 1.0,
        1 => rng.range(0.01, 0.5),
        2 => rng.range(0.5, 2.0),
        _ => rng.range(2.0, 100.0),
    };
    let mirror = rng.below(2) == 0;
    let (dx, dy) = (rng.range(-50.0, 50.0), rng.range(-50.0, 50.0));
    pts.iter()
        .map(|&p| {
            let mut v = p.to_vector();
            if mirror {
                v.y = -v.y;
            }
            let w = v.rotate(rot) * scale;
            Point::new(w.x + dx, w.y + dy)
        })
        .collect()
}

/// [`image`] in shuffled order.
fn shuffled_image(rng: &mut Rng, pts: &[Point]) -> Vec<Point> {
    let mut out = image(rng, pts);
    rng.shuffle(&mut out);
    out
}

/// Moves one point of `pts` by `0.5–2 × eps` in normalized units: radially
/// away from `c(P)`, or along its circle around `c(P)`.
fn nudge(rng: &mut Rng, pts: &mut [Point], eps: f64) {
    let sec = smallest_enclosing_circle(pts);
    let i = rng.below(pts.len());
    let v = pts[i] - sec.center;
    let r = v.norm();
    if r <= 1e-9 * sec.radius {
        return;
    }
    let delta = rng.range(0.5, 2.0) * eps * sec.radius * rng.pick(&[1.0, -1.0]);
    let a = v.angle();
    pts[i] = if rng.below(2) == 0 {
        at(sec.center, r + delta, a)
    } else {
        at(sec.center, r, a + delta / r)
    };
}

/// A set with repeated points: a random base with one or two points doubled
/// (exactly, or 1e-12 apart).
fn with_repeats(rng: &mut Rng) -> Vec<Point> {
    let n = 4 + rng.below(8);
    let mut pts = random_set(rng, n);
    for _ in 0..1 + rng.below(2) {
        let p = pts[rng.below(n)];
        let off = rng.pick(&[0.0, 1e-12]);
        pts.push(Point::new(p.x + off, p.y));
    }
    pts
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn witness(m: &Option<SimilarityMap>) -> String {
    match m {
        None => "None".to_string(),
        Some(m) => format!(
            "m={} rot={} scale={} src={},{} dst={},{}",
            u8::from(m.mirrored),
            bits(m.rotation),
            bits(m.scale),
            bits(m.src_center.x),
            bits(m.src_center.y),
            bits(m.dst_center.x),
            bits(m.dst_center.y),
        ),
    }
}

/// The holder mask of a set: `1` where removing the point changes `C(P)`.
fn holders(pts: &[Point], tol: &Tol) -> String {
    if pts.len() < 2 {
        return "-".to_string();
    }
    let mask = Configuration::new(pts.to_vec()).sec_holders(tol);
    mask.iter().map(|&h| if h { '1' } else { '0' }).collect()
}

fn pair_line(family: &str, a: &[Point], b: &[Point], tol: &Tol) -> String {
    let m = match_up_to_similarity(a, b, tol);
    format!("{family} {} ha={} hb={}", witness(&m), holders(a, tol), holders(b, tol))
}

/// A completion pair: pattern `F`, its point `f`, and an image `P` of `F`
/// whose robot at `f`'s image usually stands elsewhere, so that `P − {r}` is
/// an image of `F − {f}` for that robot (sometimes with one more point
/// nudged by about `eps`). Lists the robots `r` with `P − {r} ≈ F − {f}`,
/// matched against one target prepared from `F − {f}`, and the witness for
/// the first of them, as the completion move computes them.
fn completion_line(rng: &mut Rng, tol: &Tol) -> String {
    let n = 7 + rng.below(10);
    let f = if rng.below(4) == 0 { symmetric_set(rng) } else { random_set(rng, n) };
    let fi = rng.below(f.len());
    let mut p = image(rng, &f);
    if rng.below(3) != 0 {
        let sec = smallest_enclosing_circle(&p);
        p[fi] = at(sec.center, rng.range(0.0, 0.9) * sec.radius, rng.range(0.0, TAU));
    }
    if rng.below(4) == 0 {
        nudge(rng, &mut p, tol.eps);
    }
    rng.shuffle(&mut p);
    let f_rest: Vec<Point> =
        f.iter().enumerate().filter(|&(i, _)| i != fi).map(|(_, &q)| q).collect();
    let without = |r: usize| -> Vec<Point> {
        p.iter().enumerate().filter(|&(i, _)| i != r).map(|(_, &q)| q).collect()
    };
    let target = SimilarityTarget::new(&f_rest, tol);
    let finalists: Vec<usize> =
        (0..p.len()).filter(|&r| target.match_set(&without(r)).is_some()).collect();
    let map = finalists.first().map(|&r| match_up_to_similarity(&f_rest, &without(r), tol));
    let fin: Vec<String> = finalists.iter().map(usize::to_string).collect();
    format!(
        "completion fin={} {} ha={} hb={}",
        if fin.is_empty() { "-".to_string() } else { fin.join(".") },
        map.map_or_else(|| "-".to_string(), |m| witness(&m)),
        holders(&p, tol),
        holders(&f, tol),
    )
}

/// Pair `i`: one fixture line without its index.
fn pair(i: u64) -> String {
    let mut rng = Rng(SEED ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let tol = tol_of(&mut rng);
    match i % 10 {
        0..=2 => {
            let b = if rng.below(3) == 0 {
                symmetric_set(&mut rng)
            } else {
                let n = 3 + rng.below(18);
                random_set(&mut rng, n)
            };
            let a = shuffled_image(&mut rng, &b);
            pair_line("exact", &a, &b, &tol)
        }
        3 | 4 => {
            let b = if rng.below(4) == 0 {
                symmetric_set(&mut rng)
            } else {
                let n = 4 + rng.below(14);
                random_set(&mut rng, n)
            };
            let mut a = shuffled_image(&mut rng, &b);
            nudge(&mut rng, &mut a, tol.eps);
            pair_line("nudged", &a, &b, &tol)
        }
        5..=7 => completion_line(&mut rng, &tol),
        8 => {
            let b = with_repeats(&mut rng);
            let mut a = shuffled_image(&mut rng, &b);
            if rng.below(2) == 0 {
                // Move one point onto another: the multiplicities differ.
                let (x, y) = (rng.below(a.len()), rng.below(a.len()));
                a[x] = a[y];
            }
            pair_line("repeated", &a, &b, &tol)
        }
        _ => {
            let n = 3 + rng.below(14);
            let b = random_set(&mut rng, n);
            let a = match rng.below(5) {
                0 => vec![Point::new(rng.range(-5.0, 5.0), rng.range(-5.0, 5.0)); n],
                1 => {
                    let m = 3 + rng.below(14);
                    random_set(&mut rng, m)
                }
                _ => random_set(&mut rng, n),
            };
            pair_line("unrelated", &a, &b, &tol)
        }
    }
}

fn live_output() -> String {
    let mut out = String::from("# pair family result holders (floats as to_bits hex)\n");
    for i in 0..PAIRS {
        // Writing into a String cannot fail.
        let _ = writeln!(out, "{i:04} {}", pair(i));
    }
    out
}

#[test]
fn matcher_output_matches_the_golden_fixture() {
    let live = live_output();
    if std::env::var_os("APF_BLESS").is_some() {
        std::fs::write(FIXTURE, &live).expect("write the golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE).expect("read the golden fixture");
    let (golden, live): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), live.lines().collect());
    assert_eq!(golden.len(), live.len(), "pair count changed");
    let drifted: Vec<(&str, &str)> =
        (0..golden.len()).filter(|&i| golden[i] != live[i]).map(|i| (golden[i], live[i])).collect();
    assert!(
        drifted.is_empty(),
        "{} of {PAIRS} pairs drifted; first:\n{}",
        drifted.len(),
        drifted
            .iter()
            .take(5)
            .map(|(g, l)| format!("  golden {g}\n  live   {l}"))
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

#[test]
fn fixture_covers_matches_and_near_misses() {
    // Guards the fixture's value as a regression net: every family must
    // contribute real matches, and the nudged family must fall on both sides
    // of the tolerance.
    let golden = std::fs::read_to_string(FIXTURE).expect("read the golden fixture");
    let count = |family: &str, matched: bool| {
        golden
            .lines()
            .filter(|l| l.split(' ').nth(1) == Some(family))
            .filter(|l| l.contains(" m=") == matched)
            .count()
    };
    for family in ["exact", "nudged", "completion", "repeated"] {
        assert!(
            count(family, true) >= 50,
            "family {family} has only {} matches",
            count(family, true)
        );
    }
    for family in ["nudged", "completion", "repeated", "unrelated"] {
        assert!(
            count(family, false) >= 30,
            "family {family} has only {} misses",
            count(family, false)
        );
    }
}
