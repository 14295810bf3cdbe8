//! Everything the algorithm derives from the target pattern alone.
//!
//! Every robot receives the target pattern `F`, in its own frame, as the
//! algorithm's input. What ψ_DPF and the completion check derive from `F`
//! alone — the normalized pattern, `l_F`, `f_s` and `F' = F − {f_s}`, the
//! similarity targets, the [`TargetPlan`] and Appendix C's `F̃` — is
//! therefore the same on every Look of that robot. [`PatternAnalysis`]
//! holds these values, each computed on first use, and [`PatternMemo`]
//! keeps one analysis per distinct pattern input, keyed by its exact bits.
//! A memo hit returns exactly what recomputation would, so every decision
//! is still a function of the snapshot alone: obliviousness erases past
//! configurations, and the memo never sees a robot position.

use crate::dpf::TargetPlan;
use crate::multiplicity::PatternMultiplicity;
use apf_geometry::symmetry::ViewAnalysis;
use apf_geometry::{smallest_enclosing_circle, Configuration, Point, SimilarityTarget, Tol};
use apf_sim::ComputeError;
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

/// The normalized target pattern (`C(F)` = unit circle at the origin) and
/// the pattern-only values derived from it, each computed on first use.
#[derive(Debug)]
pub struct PatternAnalysis {
    config: Configuration,
    l_f: f64,
    tol: Tol,
    target: OnceCell<SimilarityTarget>,
    f_prime: OnceCell<Option<FPrime>>,
    plan: OnceCell<Result<TargetPlan, ComputeError>>,
    multiplicity: OnceCell<PatternMultiplicity>,
}

/// `F' = F − {f_s}`: what the completion check matches `P − {r}`
/// against, and what ψ_DPF's [`TargetPlan`] lays out.
#[derive(Debug)]
pub struct FPrime {
    /// Index of `f_s` in the normalized pattern.
    pub fs: usize,
    /// The points of `F'`.
    pub points: Vec<Point>,
    /// `F'` prepared as the destination of similarity matches.
    pub target: SimilarityTarget,
}

impl PatternAnalysis {
    /// Normalizes `raw` so that `C(F)` is the unit circle at the origin.
    ///
    /// # Errors
    ///
    /// Returns [`ComputeError`] when the pattern has fewer than four points
    /// or all of its points coincide.
    pub fn new(raw: &[Point], tol: &Tol) -> Result<Self, ComputeError> {
        if raw.len() < 4 {
            return Err(ComputeError::new("pattern needs at least four points"));
        }
        let sec = smallest_enclosing_circle(raw);
        if tol.is_zero(sec.radius) {
            return Err(ComputeError::new("degenerate pattern (single location)"));
        }
        let points = raw.iter().map(|&p| ((p - sec.center) / sec.radius).to_point()).collect();
        Ok(Self::normalized(points, tol))
    }

    /// Wraps a pattern that is already normalized (Appendix C's `F̃`).
    pub(crate) fn normalized(points: Vec<Point>, tol: &Tol) -> Self {
        let config = Configuration::new(points);
        let l_f = config.second_closest_distance(Point::ORIGIN);
        PatternAnalysis {
            config,
            l_f,
            tol: *tol,
            target: OnceCell::new(),
            f_prime: OnceCell::new(),
            plan: OnceCell::new(),
            multiplicity: OnceCell::new(),
        }
    }

    /// The normalized pattern points.
    pub fn points(&self) -> &[Point] {
        self.config.points()
    }

    /// `l_F`: distance from the center of the second-closest point of `F`.
    pub fn l_f(&self) -> f64 {
        self.l_f
    }

    /// The tolerance the pattern was analysed under.
    pub(crate) fn tol(&self) -> &Tol {
        &self.tol
    }

    /// The pattern as a configuration (its `C(F)` is cached).
    pub(crate) fn config(&self) -> &Configuration {
        &self.config
    }

    /// Whether `points` is similar to the pattern (`P ≈ F`); equal to
    /// `are_similar(points, self.points(), self.tol())`.
    pub fn is_formed_by(&self, points: &[Point]) -> bool {
        self.target
            .get_or_init(|| SimilarityTarget::new(self.points(), &self.tol))
            .match_set(points)
            .is_some()
    }

    /// `F'` for the selected robot's destination `f_s`, the first pattern
    /// point of maximal view among those that do not hold `C(F)`; `None`
    /// when every point holds `C(F)`.
    pub(crate) fn f_prime(&self) -> Option<&FPrime> {
        self.f_prime
            .get_or_init(|| {
                let va = ViewAnalysis::compute(&self.config, Point::ORIGIN, &self.tol);
                let holders = self.config.sec_holders(&self.tol);
                let fs = (0..self.config.len()).filter(|&i| !holders[i]).reduce(|b, i| {
                    if va.view(i) > va.view(b) {
                        i
                    } else {
                        b
                    }
                })?;
                let points: Vec<Point> = self
                    .points()
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != fs)
                    .map(|(_, &p)| p)
                    .collect();
                let target = SimilarityTarget::new(&points, &self.tol);
                Some(FPrime { fs, points, target })
            })
            .as_ref()
    }

    /// The ψ_DPF target plan of this pattern.
    ///
    /// # Errors
    ///
    /// Those of [`TargetPlan::new`].
    pub(crate) fn target_plan(&self) -> Result<&TargetPlan, ComputeError> {
        self.plan.get_or_init(|| TargetPlan::new(self)).as_ref().map_err(Clone::clone)
    }

    /// What Appendix C needs from the pattern: its multiplicity groups and,
    /// when `F` has points at `c(F)`, `F̃`.
    pub(crate) fn multiplicity(&self) -> &PatternMultiplicity {
        self.multiplicity.get_or_init(|| PatternMultiplicity::new(self))
    }
}

/// Pattern analyses kept across Computes, one per distinct pattern input.
///
/// Entries are keyed by the exact bits of every pattern coordinate and of
/// the tolerance — not by `==`, which equates `-0.0` with `0.0` although
/// the two normalize to different angles. A world owns its algorithm and
/// hands each robot the same local copy of `F` on every Look, so the memo
/// of an algorithm driving one world holds at most one entry per robot;
/// it never evicts.
#[derive(Debug, Default)]
pub struct PatternMemo {
    entries: RefCell<Vec<(Vec<u64>, Rc<PatternAnalysis>)>>,
}

impl PatternMemo {
    /// The analysis of `pattern` under `tol`, built on its first request.
    ///
    /// # Errors
    ///
    /// Those of [`PatternAnalysis::new`]; a rejected pattern is not stored.
    pub fn analysis_of(
        &self,
        pattern: &[Point],
        tol: &Tol,
    ) -> Result<Rc<PatternAnalysis>, ComputeError> {
        let key = memo_key(pattern, tol);
        if let Some((_, hit)) = self.entries.borrow().iter().find(|(k, _)| *k == key) {
            return Ok(Rc::clone(hit));
        }
        let fresh = Rc::new(PatternAnalysis::new(pattern, tol)?);
        self.entries.borrow_mut().push((key, Rc::clone(&fresh)));
        Ok(fresh)
    }
}

/// The exact bits of `tol` and of every coordinate of `pattern`.
fn memo_key(pattern: &[Point], tol: &Tol) -> Vec<u64> {
    let mut key = vec![tol.eps.to_bits(), tol.angle_eps.to_bits()];
    key.extend(pattern.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()]));
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn ring(n: usize, r: f64, phase: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = TAU * i as f64 / n as f64 + phase;
                Point::new(r * a.cos(), r * a.sin())
            })
            .collect()
    }

    #[test]
    fn f_prime_drops_the_first_max_view_nonholder() {
        let mut raw = ring(6, 1.0, 0.0);
        raw.push(Point::new(0.3, 0.2));
        let pa = PatternAnalysis::new(&raw, &Tol::default()).unwrap();
        let f_prime = pa.f_prime().expect("a non-holder exists");
        assert_eq!(f_prime.fs, 1);
        let mut expected = pa.points().to_vec();
        expected.remove(1);
        assert_eq!(f_prime.points, expected);
    }

    #[test]
    fn memo_hits_only_on_identical_bits() {
        let tol = Tol::default();
        let memo = PatternMemo::default();
        let mut base = ring(7, 1.0, 0.4);
        base[0] = Point::new(0.0, 0.5);
        let first = memo.analysis_of(&base, &tol).unwrap();
        assert!(Rc::ptr_eq(&first, &memo.analysis_of(&base.clone(), &tol).unwrap()));

        // `-0.0 == 0.0`, so a key compared with `==` would share this entry.
        let mut signed = base.clone();
        signed[0].x = -0.0;
        assert!(!Rc::ptr_eq(&first, &memo.analysis_of(&signed, &tol).unwrap()));
        // One ulp apart: `approx_eq` would share this entry.
        let mut ulp = base.clone();
        ulp[3].y = f64::from_bits(ulp[3].y.to_bits() + 1);
        assert!(!Rc::ptr_eq(&first, &memo.analysis_of(&ulp, &tol).unwrap()));
        // The tolerance is part of the key.
        assert!(!Rc::ptr_eq(&first, &memo.analysis_of(&base, &Tol::new(1e-6)).unwrap()));
        assert_eq!(memo.entries.borrow().len(), 4);
    }

    #[test]
    fn rejected_patterns_are_not_stored() {
        let tol = Tol::default();
        let memo = PatternMemo::default();
        assert!(memo.analysis_of(&ring(3, 1.0, 0.0), &tol).is_err());
        assert!(memo.analysis_of(&[Point::new(1.0, 2.0); 5], &tol).is_err());
        assert!(memo.entries.borrow().is_empty());
    }
}
