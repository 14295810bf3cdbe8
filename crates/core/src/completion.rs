//! The main loop's completion check (lines 1–4 of `formPattern`): is
//! `P − {r} ≈ F − {f_s}` for some robot `r`?
//!
//! The full check runs Welzl on `P − {r}` and compares its sorted normalized
//! radii with those of `F' = F − {f_s}`. A robot strictly inside `C(P)`
//! cannot change the circle, so for it the radius comparison can be made
//! about `c(P)` instead: one sort of `P`'s radii and one prefix/suffix scan
//! rule out every interior robot whose removal leaves the wrong radii, and
//! only the rest — the robots on or near `C(P)` and the interior robots the
//! scan keeps — run the full check.

use crate::analysis::Analysis;
use crate::pattern::FPrime;
use apf_geometry::{match_up_to_similarity, Path};
use apf_sim::{ComputeError, Decision};

/// How far, in normalized lengths, `C(P − {r})` as Welzl computes it may
/// drift from `C(P)` for a robot `r` strictly inside `C(P)`.
///
/// In exact arithmetic removing such a robot leaves the circle unchanged.
/// In floating point the two Welzl runs visit the points in different
/// orders and accept containment within `1e-12`, so the circles may differ
/// by about that much. Robots inside `C(P)` by more than `eps + SEC_SLACK`
/// are screened about `c(P)` with the same margin; the rest keep the full
/// check. The number of full checks on the benchmark workloads is the same
/// for any value from `1e-9` to `1e-4`.
const SEC_SLACK: f64 = 1e-6;

/// The main algorithm's completion check (lines 1–4): if removing one agreed
/// robot leaves exactly `F` minus one maximal-view point, that robot walks
/// to the free point.
///
/// Exposed for the baseline algorithms, which share the deterministic tail.
///
/// # Errors
///
/// Returns [`ComputeError`] when the similarity witness cannot be
/// reconstructed (cannot happen for configurations the check accepted).
pub fn completion_move(a: &Analysis) -> Result<Option<Decision>, ComputeError> {
    let Some(f_prime) = a.pattern.f_prime() else {
        return Ok(None);
    };
    let finalists = finalists(a, f_prime);
    if finalists.is_empty() {
        return Ok(None);
    }
    // Agree on the mover: a unique finalist, else the selected robot, else
    // the unique maximal-view robot.
    let mover = if finalists.len() == 1 {
        finalists[0]
    } else if let Some(rs) = a.selected().filter(|rs| finalists.contains(rs)) {
        rs
    } else {
        let maxi = a.views().max_view_indices();
        match maxi.as_slice() {
            [r] if finalists.contains(r) => *r,
            _ => return Ok(None),
        }
    };

    if a.me != mover {
        return Ok(Some(Decision::Stay));
    }
    // Map the free pattern point into configuration coordinates via the
    // similarity witness.
    let p_rest = a.config.without(mover);
    let map = match_up_to_similarity(&f_prime.points, &p_rest, &a.tol)
        .ok_or_else(|| ComputeError::new("similarity witness vanished"))?;
    let target = map.apply(a.pattern.points()[f_prime.fs]);
    let path = Path::straight(a.my_pos(), target);
    if path.length() <= a.tol.eps {
        return Ok(Some(Decision::Stay));
    }
    Ok(Some(Decision::Move(a.denormalize_path(&path))))
}

/// The robots `r` with `P − {r} ≈ F'`, ascending: exactly those for which
/// `f_prime.target.match_set(&a.config.without(r))` succeeds.
///
/// An interior robot whose removal leaves `P`'s radii about `c(P)` more
/// than `eps + SEC_SLACK` away from `F'`'s at some rank is dropped without
/// the full check, which would reject it: about `C(P − {r})`, within
/// `SEC_SLACK` of `C(P)`, the same rank still misses by more than `eps`.
fn finalists(a: &Analysis, f_prime: &FPrime) -> Vec<usize> {
    let bound = a.tol.eps + SEC_SLACK;
    let fits = radius_fits(a, f_prime.target.sorted_radii(), bound);
    // Robots on or near `C(P)` may hold it: the scan does not apply.
    (0..a.n())
        .filter(|&r| 1.0 - a.radius(r) <= bound || fits[r])
        .filter(|&r| f_prime.target.match_set(&a.config.without(r)).is_some())
        .collect()
}

/// For every robot `r`, whether `P`'s radii about `c(P)` without `r`'s,
/// sorted, stay within `bound` of `target` at every rank.
///
/// With `P`'s radii sorted as `s`, removing the robot of rank `k` leaves
/// `s[..k]` facing `target[..k]` and `s[k + 1..]` facing `target[k..]`:
/// one prefix and one suffix scan settle every rank. A target that is not
/// one radius shorter than `P` (a pattern of another size, or an `F'` whose
/// points all coincide) screens no robot and leaves all to the full check.
fn radius_fits(a: &Analysis, target: &[f64], bound: f64) -> Vec<bool> {
    let n = a.n();
    if target.len() + 1 != n {
        return vec![true; n];
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| a.radius(x).total_cmp(&a.radius(y)));
    let near = |rank: usize, t: usize| (a.radius(order[rank]) - target[t]).abs() <= bound;
    // suffix[k]: ranks k + 1.. of `s` fit `target[k..]`.
    let mut suffix = vec![true; n];
    for k in (0..n - 1).rev() {
        suffix[k] = suffix[k + 1] && near(k + 1, k);
    }
    let mut fits = vec![false; n];
    // Whether ranks ..k of `s` fit `target[..k]`.
    let mut prefix = true;
    for (k, &r) in order.iter().enumerate() {
        fits[r] = prefix && suffix[k];
        prefix = prefix && (k + 1 == n || near(k, k));
    }
    fits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplicity::{self, MultiStep};
    use crate::pattern::{PatternAnalysis, PatternMemo};
    use crate::FormPattern;
    use apf_geometry::{smallest_enclosing_circle, Frame, Point, Tol};
    use apf_scheduler::SchedulerKind;
    use apf_sim::{BitSource, PhaseKind, RobotAlgorithm, Snapshot, World, WorldConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::f64::consts::TAU;
    use std::rc::Rc;

    /// The robots `r` with `P − {r} ≈ F'`, one full check per robot.
    fn exhaustive(a: &Analysis, f_prime: &FPrime) -> Vec<usize> {
        (0..a.n()).filter(|&r| f_prime.target.match_set(&a.config.without(r)).is_some()).collect()
    }

    /// A random 8-point `F` and, in world coordinates, the image of `F'`
    /// under a mirrored similarity plus one free robot (robot 0).
    struct Instance {
        pattern: Vec<Point>,
        robots: Vec<Point>,
        /// The image of `f_s`.
        fs_image: Point,
        /// The radius of `F'`'s image's enclosing circle.
        radius: f64,
    }

    /// The free robot sits `rho` radii of `C(F')`'s image from its center,
    /// at a random angle.
    fn instance(seed: u64, rho: f64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let pattern = apf_patterns::random_pattern(8, seed ^ 0x5eed);
        let analysis = PatternAnalysis::new(&pattern, &Tol::default()).unwrap();
        let fs = analysis.f_prime().expect("a random pattern has a non-holder").fs;
        let origin = Point::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
        let place = Frame::new(origin, rng.gen_range(0.0..TAU), rng.gen_range(0.3..3.0), true);
        let mut robots: Vec<Point> = pattern
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != fs)
            .map(|(_, &p)| place.to_global(p))
            .collect();
        let circle = smallest_enclosing_circle(&robots);
        let angle = rng.gen_range(0.0..TAU);
        let free = Point::new(
            circle.center.x + rho * circle.radius * angle.cos(),
            circle.center.y + rho * circle.radius * angle.sin(),
        );
        robots.insert(0, free);
        Instance { fs_image: place.to_global(pattern[fs]), pattern, robots, radius: circle.radius }
    }

    /// Robot `me`'s Look at `robots` through a random frame of its own.
    fn look(robots: &[Point], me: usize, pattern: &[Point], seed: u64) -> (Snapshot, Frame) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(me as u64));
        let frame = Frame::new(
            robots[me],
            rng.gen_range(0.0..TAU),
            rng.gen_range(0.5..2.0),
            rng.gen_bool(0.5),
        );
        let local = robots.iter().map(|&p| frame.to_local(p)).collect();
        (Snapshot::new(local, pattern.to_vec(), false, Tol::default()), frame)
    }

    /// Every robot's completion decision on `inst`: the free robot walks
    /// to `f_s`'s image and everyone else stays.
    fn assert_free_robot_completes(inst: &Instance, seed: u64) {
        let memo = PatternMemo::default();
        for me in 0..inst.robots.len() {
            let (snap, frame) = look(&inst.robots, me, &inst.pattern, seed);
            let a = Analysis::new(&snap, &memo).unwrap();
            match completion_move(&a).unwrap() {
                Some(Decision::Move(path)) if me == 0 => {
                    let miss = frame.to_global(path.destination()).dist(inst.fs_image);
                    assert!(miss <= a.tol.eps * inst.radius, "seed {seed}: misses f_s by {miss}");
                }
                Some(Decision::Stay) if me != 0 => {}
                other => panic!("seed {seed}, robot {me}: {other:?}"),
            }
        }
    }

    #[test]
    fn an_interior_free_robot_walks_to_f_s() {
        for seed in 0..16 {
            assert_free_robot_completes(&instance(seed, 0.6), seed);
        }
    }

    #[test]
    fn a_free_robot_holding_c_p_walks_to_f_s() {
        for seed in 0..16 {
            assert_free_robot_completes(&instance(seed, 1.5), seed);
        }
    }

    #[test]
    fn no_robot_completes_far_from_f() {
        let memo = PatternMemo::default();
        for seed in 0..16 {
            let robots = apf_patterns::asymmetric_configuration(8, seed);
            let pattern = apf_patterns::random_pattern(8, seed ^ 0x5eed);
            for me in 0..8 {
                let (snap, _) = look(&robots, me, &pattern, seed);
                let a = Analysis::new(&snap, &memo).unwrap();
                assert_eq!(completion_move(&a).unwrap(), None, "seed {seed}, robot {me}");
            }
        }
    }

    #[test]
    fn finalists_equal_the_full_check_near_completion() {
        let bound = Tol::default().eps + SEC_SLACK;
        // The free robot's distance from `c(F')`, in radii of `C(F')`:
        // interior, just inside `C(P)` on both sides of the interior bound,
        // on `C(P)`, and outside `C(F')` (holding `C(P)`).
        let mut places = vec![0.2, 0.7, 1.0, 1.4, 2.5];
        places.extend([0.5, 1.0, 2.0, 4.0].map(|k| 1.0 - k * bound));
        let memo = PatternMemo::default();
        for seed in 0..24 {
            for &rho in &places {
                let inst = instance(seed, rho);
                for me in 0..inst.robots.len() {
                    let (snap, _) = look(&inst.robots, me, &inst.pattern, seed);
                    let a = Analysis::new(&snap, &memo).unwrap();
                    let f_prime = a.pattern.f_prime().unwrap();
                    let full = exhaustive(&a, f_prime);
                    assert_eq!(full, [0], "seed {seed}, rho {rho}: the free robot completes F");
                    assert_eq!(finalists(&a, f_prime), full, "seed {seed}, rho {rho}, robot {me}");
                }
            }
        }
    }

    /// `FormPattern`, checking on every Look that the finalists equal the
    /// full check's and counting the finalists.
    struct CrossChecked {
        inner: FormPattern,
        memo: PatternMemo,
        accepted: Rc<Cell<usize>>,
    }

    impl RobotAlgorithm for CrossChecked {
        fn compute(
            &self,
            snapshot: &Snapshot,
            bits: &mut dyn BitSource,
        ) -> Result<Decision, ComputeError> {
            self.compute_tagged(snapshot, bits).map(|(decision, _)| decision)
        }

        fn compute_tagged(
            &self,
            snapshot: &Snapshot,
            bits: &mut dyn BitSource,
        ) -> Result<(Decision, PhaseKind), ComputeError> {
            let mut a = Analysis::new(snapshot, &self.memo)?;
            if !matches!(multiplicity::preprocess(&mut a)?, MultiStep::Gather(_)) {
                if let Some(f_prime) = a.pattern.f_prime() {
                    let full = exhaustive(&a, f_prime);
                    assert_eq!(finalists(&a, f_prime), full);
                    self.accepted.set(self.accepted.get() + full.len());
                }
            }
            self.inner.compute_tagged(snapshot, bits)
        }

        fn name(&self) -> &'static str {
            "cross-checked"
        }
    }

    #[test]
    fn finalists_equal_the_full_check_on_every_look() {
        use SchedulerKind::{Fsync, RoundRobin, Ssync};
        // Formation (asymmetric) and election (symmetric) trial shapes.
        let shapes = [
            (20, 1, Ssync),
            (16, 1, Fsync),
            (12, 4, RoundRobin),
            (9, 3, RoundRobin),
            (8, 4, RoundRobin),
        ];
        for (k, (n, rho, kind)) in shapes.into_iter().enumerate() {
            let g = 17 * k as u64 + 3;
            let initial = if rho > 1 {
                apf_patterns::symmetric_configuration(n, rho, g)
            } else {
                apf_patterns::asymmetric_configuration(n, g)
            };
            let accepted = Rc::new(Cell::new(0));
            let alg = CrossChecked {
                inner: FormPattern::new(),
                memo: PatternMemo::default(),
                accepted: Rc::clone(&accepted),
            };
            let pattern = apf_patterns::random_pattern(n, g + 1);
            let mut world = World::new(
                initial,
                pattern,
                Box::new(alg),
                kind.build(g),
                WorldConfig::default(),
                g,
            );
            let outcome = world.run(5_000);
            assert!(outcome.formed, "shape {k} did not form");
            assert!(accepted.get() > 0, "shape {k} never accepted a finalist");
        }
    }
}
