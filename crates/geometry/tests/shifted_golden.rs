//! Golden test of the ε-shifted-set detector's exact output.
//!
//! `find_shifted_regular` feeds the election's shift protocol, so its result
//! reaches every trace digest: a faster detector must return the same
//! detection bit for bit, not merely an equivalent one. This test runs the
//! detector on 2,000 seeded instances and compares one line per instance
//! with `shifted_golden.txt`:
//!
//! * whole-configuration equiangular shifted sets (n = 7–16, radii 0.5–10,
//!   both shift directions, a third of them with the merged gap straddling
//!   angle 0 around the center);
//! * whole-configuration bi-angled shifted sets (n = 8–16);
//! * subset shifted sets inside an outer ring (center `c(P)`);
//! * near misses: unshifted regular sets, shifts beyond 1/4, perturbed
//!   shifted sets and random configurations.
//!
//! A line holds `None`, or the shifted robot, the member indices, the kind
//! and the `to_bits()` of every float in the detection. Regenerate the
//! fixture only for an intentional change of the detector's output:
//!
//! ```text
//! APF_BLESS=1 cargo test -p apf-geometry --test shifted_golden
//! ```

use apf_geometry::symmetry::{find_shifted_regular, RegularKind, ShiftedRegularSet};
use apf_geometry::{Configuration, Point, PolarPoint, Tol};
use std::f64::consts::TAU;
use std::fmt::Write as _;

const INSTANCES: u64 = 2_000;
const SEED: u64 = 0x5_41F7;
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/shifted_golden.txt");

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

    fn sign(&mut self) -> f64 {
        self.pick(&[1.0, -1.0])
    }
}

fn at(c: Point, r: f64, a: f64) -> Point {
    Point::new(c.x + r * a.cos(), c.y + r * a.sin())
}

/// A shift fraction in `(0, 1/4]`, with the protocol's landmarks `1/8` and
/// `1/4` drawn often.
fn shift_fraction(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => 0.125,
        1 => 0.25,
        _ => rng.range(0.005, 0.25),
    }
}

/// Angular noise: mostly none, sometimes far below or near `Tol::angle_eps`,
/// sometimes far above it.
fn angular_noise(rng: &mut Rng) -> f64 {
    rng.pick(&[0.0, 0.0, 0.0, 1e-12, 1e-9, 1e-6, 1e-3])
}

/// Half-line angles of a whole-configuration set: equiangular, or bi-angled
/// with gaps `a, b` (`a + b = 4π/n`) when `biangular` is set.
fn ring_angles(rng: &mut Rng, n: usize, biangular: bool) -> (Vec<f64>, f64) {
    let (a, b) = if biangular {
        let sum = 2.0 * TAU / n as f64;
        let f = if rng.below(2) == 0 { rng.range(0.2, 0.45) } else { rng.range(0.55, 0.8) };
        (f * sum, (1.0 - f) * sum)
    } else {
        (TAU / n as f64, TAU / n as f64)
    };
    let mut angles = Vec::with_capacity(n);
    let mut angle = 0.0;
    for i in 0..n {
        angles.push(angle);
        angle += if i % 2 == 0 { a } else { b };
    }
    (angles, a.min(b))
}

/// A whole-configuration shifted set: every robot is a member, robot `s` at
/// the minimum radius is rotated by `dir · ε · α_min` off its half-line.
fn whole(rng: &mut Rng, biangular: bool, eps: f64, noise: f64) -> Vec<Point> {
    let n = if biangular { 2 * (4 + rng.below(5)) } else { 7 + rng.below(10) };
    let (angles, alpha_min) = ring_angles(rng, n, biangular);
    let c = Point::new(rng.range(-3.0, 3.0), rng.range(-3.0, 3.0));
    let r0 = rng.range(0.5, 10.0);
    let spread = rng.pick(&[0.0, 0.0, 0.0, 1e-3, 0.2]);
    let s = rng.below(n);
    // A third of the instances put the shifted robot's regular position near
    // angle 0, so the merged gap of the other members straddles it.
    let phase = if rng.below(3) == 0 {
        rng.range(-0.4, 0.4) * alpha_min - angles[s]
    } else {
        rng.range(0.0, TAU)
    };
    let dir = rng.sign();
    (0..n)
        .map(|i| {
            let mut a = phase + angles[i] + noise * rng.range(-1.0, 1.0);
            let mut r = r0;
            if i == s {
                a += dir * eps * alpha_min;
            } else {
                r *= 1.0 + spread * rng.unit();
            }
            at(c, r, a)
        })
        .collect()
}

/// `α_min` of a point set around `c`: the smallest angle between two
/// consecutive half-lines.
fn alpha_min(pts: &[Point], c: Point) -> f64 {
    let mut angles: Vec<f64> =
        pts.iter().map(|&p| PolarPoint::from_cartesian(p, c).angle).collect();
    angles.sort_by(f64::total_cmp);
    let n = angles.len();
    (0..n)
        .map(|i| if i + 1 < n { angles[i + 1] - angles[i] } else { angles[0] + TAU - angles[i] })
        .fold(f64::INFINITY, f64::min)
}

/// A subset shifted set: an inner `m`-set (equiangular or bi-angled) inside
/// an outer ring whose size is a multiple of `m`, so the ring holds the
/// enclosing circle and the regularity center is `c(P)`.
fn subset(rng: &mut Rng, eps: f64) -> Vec<Point> {
    let m = 2 + rng.below(7);
    let biangular = m >= 4 && m.is_multiple_of(2) && rng.below(2) == 0;
    let (angles, inner_min) = ring_angles(rng, m, biangular);
    let c = Point::new(rng.range(-3.0, 3.0), rng.range(-3.0, 3.0));
    let scale = rng.range(0.5, 10.0);
    let phase = rng.range(0.0, TAU);
    let r_in = rng.range(0.2, 0.9);
    let spread = rng.pick(&[0.0, 0.0, 0.5]);
    let s = rng.below(m);
    let mut pts: Vec<Point> = (0..m)
        .map(|i| {
            let r = if i == s { r_in } else { r_in * (1.0 + spread * rng.unit()) };
            at(c, scale * r, phase + angles[i])
        })
        .collect();
    let ring = m * rng.pick(&[1, 2, 3]).max(3usize.div_ceil(m));
    // Bi-angled members need their virtual axes to be axes of the ring;
    // half the bi-angled instances align the ring to the first bisector.
    let ring_phase =
        if biangular && rng.below(2) == 0 { phase + inner_min / 2.0 } else { rng.range(0.0, TAU) };
    for j in 0..ring {
        pts.push(at(c, 2.0 * scale, ring_phase + TAU * j as f64 / ring as f64));
    }
    let amin = alpha_min(&pts, c);
    let shifted = phase + angles[s] + rng.sign() * eps * amin;
    pts[s] = at(c, scale * r_in, shifted);
    pts
}

fn random_points(rng: &mut Rng) -> Vec<Point> {
    let n = 5 + rng.below(12);
    (0..n).map(|_| Point::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0))).collect()
}

/// Instance `i`: its family name and its positions.
fn instance(i: u64) -> (&'static str, Vec<Point>) {
    let mut rng = Rng(SEED ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    match i % 10 {
        0..=2 => {
            let (eps, noise) = (shift_fraction(&mut rng), angular_noise(&mut rng));
            ("whole-eq", whole(&mut rng, false, eps, noise))
        }
        3 | 4 => {
            let (eps, noise) = (shift_fraction(&mut rng), angular_noise(&mut rng));
            ("whole-bi", whole(&mut rng, true, eps, noise))
        }
        5..=7 => {
            let eps = shift_fraction(&mut rng);
            ("subset", subset(&mut rng, eps))
        }
        _ => match rng.below(4) {
            0 => {
                let biangular = rng.below(2) == 0;
                ("unshifted", whole(&mut rng, biangular, 0.0, 0.0))
            }
            1 => {
                let eps = rng.range(0.26, 0.49);
                ("beyond-quarter", whole(&mut rng, false, eps, 0.0))
            }
            2 => {
                let eps = shift_fraction(&mut rng);
                let noise = rng.pick(&[1e-6, 1e-4, 1e-2]);
                ("perturbed", whole(&mut rng, false, eps, noise))
            }
            _ => ("random", random_points(&mut rng)),
        },
    }
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn describe(found: &Option<ShiftedRegularSet>) -> String {
    let Some(s) = found else {
        return "None".to_string();
    };
    let kind = match s.kind {
        RegularKind::Equiangular { alpha } => format!("E:{}", bits(alpha)),
        RegularKind::Biangular { alpha, beta } => format!("B:{}:{}", bits(alpha), bits(beta)),
    };
    let members: Vec<String> = s.indices.iter().map(usize::to_string).collect();
    format!(
        "r={} m={} kind={kind} eps={} c={},{} rp={},{} rmin={}",
        s.shifted_robot,
        members.join("."),
        bits(s.epsilon),
        bits(s.center.x),
        bits(s.center.y),
        bits(s.associated_position.x),
        bits(s.associated_position.y),
        bits(s.min_radius),
    )
}

fn live_output() -> String {
    let tol = Tol::default();
    let mut out = String::from("# instance family detection (floats as to_bits hex)\n");
    for i in 0..INSTANCES {
        let (family, pts) = instance(i);
        let found = find_shifted_regular(&Configuration::new(pts), &tol);
        // Writing into a String cannot fail.
        let _ = writeln!(out, "{i:04} {family} {}", describe(&found));
    }
    out
}

#[test]
fn detector_output_matches_the_golden_fixture() {
    let live = live_output();
    if std::env::var_os("APF_BLESS").is_some() {
        std::fs::write(FIXTURE, &live).expect("write the golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE).expect("read the golden fixture");
    let (golden, live): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), live.lines().collect());
    assert_eq!(golden.len(), live.len(), "instance count changed");
    let drifted: Vec<(&str, &str)> =
        (0..golden.len()).filter(|&i| golden[i] != live[i]).map(|i| (golden[i], live[i])).collect();
    assert!(
        drifted.is_empty(),
        "{} of {INSTANCES} detections drifted; first:\n{}",
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
fn fixture_covers_every_family_with_detections() {
    // Guards the fixture's value as a regression net: each shifted family
    // must contribute real detections, not just `None` lines.
    let golden = std::fs::read_to_string(FIXTURE).expect("read the golden fixture");
    for family in ["whole-eq", "whole-bi", "subset"] {
        let hits = golden
            .lines()
            .filter(|l| l.split(' ').nth(1) == Some(family) && !l.ends_with("None"))
            .count();
        assert!(hits >= 50, "family {family} has only {hits} detections");
    }
    let biangular = golden.lines().filter(|l| l.contains("kind=B:")).count();
    assert!(biangular >= 50, "only {biangular} bi-angled detections");
}
