//! Per-snapshot analysis shared by every phase of the algorithm.
//!
//! All geometric reasoning happens in a *normalized* copy of the snapshot:
//! translated and scaled so that `C(P)` is the unit circle at the origin
//! (the paper's "robots can translate and scale their local coordinate
//! system so that `C(P) = C(F)`"). The target pattern is normalized the same
//! way, once per pattern, by [`PatternAnalysis`]. Decisions are made in
//! normalized coordinates and the resulting paths are mapped back to the
//! robot's local frame by [`Analysis::denormalize_path`].

use crate::pattern::{PatternAnalysis, PatternMemo};
use apf_geometry::symmetry::{
    find_shifted_regular, regular_set_of, RegularSet, ShiftedRegularSet, ViewAnalysis,
};
use apf_geometry::{
    smallest_enclosing_circle, Configuration, Path, PathSegment, Point, PolarPoint, Tol,
};
use apf_sim::{ComputeError, Snapshot};
use std::cell::OnceCell;
use std::rc::Rc;

/// Everything a robot derives from one Look, in normalized coordinates.
#[derive(Debug)]
pub struct Analysis {
    /// Normalized configuration: `C(P)` = unit circle at origin.
    pub config: Configuration,
    /// The observer's index into [`Self::config`].
    pub me: usize,
    /// The working pattern: `F`, or Appendix C's `F̃` once the multiplicity
    /// preprocessing has switched to it.
    pub pattern: Rc<PatternAnalysis>,
    /// Simulation tolerance.
    pub tol: Tol,
    /// Whether the snapshot exposes multiplicities.
    pub multiplicity_detection: bool,
    /// Center of `C(P)` and scale of the original snapshot (for
    /// denormalization back into the robot's local frame).
    norm_center: Point,
    norm_scale: f64,
    /// Distance of every robot from the origin, indexed like `config`.
    radii: Vec<f64>,
    /// Lazily computed `atan2` direction of every robot from the origin.
    directions: OnceCell<Vec<f64>>,
    /// Lazily computed view analysis around the origin.
    views: OnceCell<ViewAnalysis>,
    /// Lazily computed regular set.
    regular: OnceCell<Option<RegularSet>>,
    /// Lazily computed shifted regular set.
    shifted: OnceCell<Option<ShiftedRegularSet>>,
}

impl Analysis {
    /// Builds the analysis from a snapshot, taking the pattern's analysis
    /// from `memo`.
    ///
    /// # Errors
    ///
    /// Returns [`ComputeError`] when the snapshot has fewer than two robots,
    /// all robots coincide (the gathered configuration is unreachable by
    /// assumption and unnormalizable), or [`PatternAnalysis::new`] rejects
    /// the pattern — checked in that order.
    pub fn new(snapshot: &Snapshot, memo: &PatternMemo) -> Result<Self, ComputeError> {
        let tol = *snapshot.tol();
        let raw = snapshot.robots();
        if raw.len() < 2 {
            return Err(ComputeError::new("need at least two robots"));
        }
        let sec = smallest_enclosing_circle(raw);
        if tol.is_zero(sec.radius) {
            return Err(ComputeError::new("all robots coincide; configuration unnormalizable"));
        }
        let norm = |p: Point| ((p - sec.center) / sec.radius).to_point();
        let config = Configuration::new(raw.iter().map(|&p| norm(p)).collect());
        let radii = config.points().iter().map(|p| p.dist(Point::ORIGIN)).collect();
        let pattern = memo.analysis_of(snapshot.pattern(), &tol)?;

        Ok(Analysis {
            config,
            me: snapshot.self_index(),
            pattern,
            tol,
            multiplicity_detection: snapshot.multiplicity_detection(),
            norm_center: sec.center,
            norm_scale: sec.radius,
            radii,
            directions: OnceCell::new(),
            views: OnceCell::new(),
            regular: OnceCell::new(),
            shifted: OnceCell::new(),
        })
    }

    /// Number of robots.
    pub fn n(&self) -> usize {
        self.config.len()
    }

    /// The observer's normalized position.
    pub fn my_pos(&self) -> Point {
        self.config.point(self.me)
    }

    /// Distance of robot `i` from the origin (= `c(P)` = center of `C(P)`).
    pub fn radius(&self, i: usize) -> f64 {
        self.radii[i]
    }

    /// Polar coordinates of robot `i` around the origin; equal to
    /// `PolarPoint::from_cartesian(self.config.point(i), Point::ORIGIN)`.
    pub fn polar(&self, i: usize) -> PolarPoint {
        PolarPoint::from_norm_and_direction(self.radii[i], self.direction(i))
    }

    /// The raw `atan2` direction of robot `i` from the origin, in
    /// `[-π, π]` (cached for every robot on first use).
    pub(crate) fn direction(&self, i: usize) -> f64 {
        self.directions.get_or_init(|| {
            self.config.points().iter().map(|&p| (p - Point::ORIGIN).angle()).collect()
        })[i]
    }

    /// View analysis around the origin (cached).
    pub fn views(&self) -> &ViewAnalysis {
        self.views.get_or_init(|| ViewAnalysis::compute(&self.config, Point::ORIGIN, &self.tol))
    }

    /// `reg(P)` (cached).
    pub fn regular(&self) -> Option<&RegularSet> {
        self.regular.get_or_init(|| regular_set_of(&self.config, &self.tol)).as_ref()
    }

    /// The ε-shifted regular set (cached).
    pub fn shifted(&self) -> Option<&ShiftedRegularSet> {
        self.shifted.get_or_init(|| find_shifted_regular(&self.config, &self.tol)).as_ref()
    }

    /// The selected robot, if any: the robot `r` with `|r| < l_F / 2` that is
    /// alone in the open disc `D(2|r|)`.
    ///
    /// A robot at (or numerically indistinguishable from) the center counts
    /// as selected — Phase 1 of `ψ_DPF` deliberately parks the selected
    /// robot at `c(P)` while rebuilding the coordinate frame, and it must
    /// not lose its role there. At most one robot can be selected (two
    /// would have to be within a factor 2 of each other both ways); if the
    /// predicate ever matches several robots (degenerate near-center ties)
    /// no robot is selected.
    pub fn selected(&self) -> Option<usize> {
        let hits: Vec<usize> = (0..self.n())
            .filter(|&i| {
                let r = self.radius(i);
                if !self.tol.lt(r, self.pattern.l_f() / 2.0) {
                    return false;
                }
                (0..self.n()).all(|j| j == i || self.tol.ge(self.radius(j), 2.0 * r))
            })
            .collect();
        match hits.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Maps a normalized-coordinates path back into the robot's local
    /// (snapshot) frame.
    pub fn denormalize_path(&self, path: &Path) -> Path {
        let segs: Vec<PathSegment> = path
            .segments()
            .iter()
            .map(|seg| match *seg {
                PathSegment::Line { from, to } => {
                    PathSegment::line(self.denorm_point(from), self.denorm_point(to))
                }
                PathSegment::Arc { center, radius, start_angle, sweep, orientation } => {
                    PathSegment::arc(
                        self.denorm_point(center),
                        radius * self.norm_scale,
                        start_angle,
                        sweep,
                        orientation,
                    )
                }
            })
            .collect();
        Path::from_segments(segs)
    }

    /// Maps a normalized point back into the robot's local frame.
    pub fn denorm_point(&self, p: Point) -> Point {
        (p.to_vector() * self.norm_scale).to_point() + self.norm_center.to_vector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_sim::Snapshot;
    use std::f64::consts::TAU;

    fn ring(n: usize, r: f64, phase: f64, c: Point) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = TAU * i as f64 / n as f64 + phase;
                Point::new(c.x + r * a.cos(), c.y + r * a.sin())
            })
            .collect()
    }

    fn snapshot_of(robots: Vec<Point>, pattern: Vec<Point>) -> Snapshot {
        Snapshot::new(robots, pattern, false, Tol::default())
    }

    #[test]
    fn normalization_centers_and_scales() {
        let c = Point::new(3.0, -1.0);
        let mut robots = ring(7, 2.0, 0.1, c);
        robots[0] = c; // observer at origin requirement: move observer
        let mut robots_local: Vec<Point> = robots.iter().map(|&p| (p - c).to_point()).collect();
        robots_local[0] = Point::ORIGIN;
        let pattern = ring(7, 5.0, 0.0, Point::new(10.0, 10.0));
        let snap = snapshot_of(robots_local, pattern);
        let a = Analysis::new(&snap, &PatternMemo::default()).unwrap();
        assert!(a.tol.eq(a.config.sec().radius, 1.0));
        assert!(a.config.sec().center.approx_eq(Point::ORIGIN, &a.tol));
        // Pattern normalized too.
        assert!(a.tol.eq(smallest_enclosing_circle(a.pattern.points()).radius, 1.0));
    }

    #[test]
    fn selected_robot_detection() {
        // Pattern with l_F around 0.5; a robot close to the center and alone
        // within twice its radius is selected.
        let mut pattern = ring(6, 1.0, 0.0, Point::ORIGIN);
        pattern.push(Point::new(0.5, 0.0)); // second closest at 0.5 → l_F = 0.5... need "second closest": closest=0.5, second=1.0. l_F=1.0?? -> recompute below
        let mut robots = ring(6, 1.0, 0.2, Point::ORIGIN);
        robots.push(Point::new(0.05, 0.0));
        // Observer must be at origin: translate all so robot 6 is origin.
        let off = robots[6];
        let local: Vec<Point> = robots.iter().map(|&p| (p - off).to_point()).collect();
        let snap = snapshot_of(local, pattern);
        let a = Analysis::new(&snap, &PatternMemo::default()).unwrap();
        // normalized: SEC ~ unit, robot 6 at ~0.05 from center, others at 1.
        // l_F here is the 2nd closest of the pattern = 1.0 (one point at 0.5,
        // six at 1.0). Selected requires |r| < 0.5 and alone in D(2|r|).
        let sel = a.selected();
        assert_eq!(sel, Some(6));
    }

    #[test]
    fn no_selected_in_uniform_ring() {
        let robots = ring(8, 1.0, 0.0, Point::ORIGIN);
        let local: Vec<Point> = robots.iter().map(|&p| (p - robots[0]).to_point()).collect();
        let pattern = ring(8, 1.0, 0.3, Point::ORIGIN);
        let snap = snapshot_of(local, pattern);
        let a = Analysis::new(&snap, &PatternMemo::default()).unwrap();
        assert_eq!(a.selected(), None);
    }

    #[test]
    fn denormalize_roundtrip() {
        let c = Point::new(5.0, 5.0);
        let robots = ring(7, 3.0, 0.0, c);
        let local: Vec<Point> = robots.iter().map(|&p| (p - robots[0]).to_point()).collect();
        let pattern = ring(7, 1.0, 0.0, Point::ORIGIN);
        let snap = snapshot_of(local, pattern);
        let a = Analysis::new(&snap, &PatternMemo::default()).unwrap();
        // The observer's normalized position denormalizes back to its local
        // position (the local origin).
        let back = a.denorm_point(a.my_pos());
        assert!(back.approx_eq(Point::ORIGIN, &Tol::new(1e-9)));
    }

    #[test]
    fn too_small_pattern_is_rejected() {
        let robots = vec![Point::ORIGIN, Point::new(1.0, 0.0)];
        let snap = snapshot_of(robots, vec![Point::ORIGIN; 2]);
        assert!(Analysis::new(&snap, &PatternMemo::default()).is_err());
    }
}
