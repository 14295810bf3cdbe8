//! Snapshots: what a robot sees during its Look phase.

use apf_geometry::{Configuration, Point, Tol};

/// The result of one Look: all robot positions and the target pattern, both
/// in the observing robot's **local** coordinate system.
///
/// The observer itself is always at the local origin `(0, 0)` (frames are
/// ego-centered). Positions carry no identities; when multiplicity detection
/// is off, co-located robots collapse to a single point.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    robots: Vec<Point>,
    pattern: Vec<Point>,
    multiplicity_detection: bool,
    tol: Tol,
}

impl Snapshot {
    /// Assembles a snapshot from local-frame data.
    ///
    /// `robots` must contain the observer (a point at the origin). When
    /// `multiplicity_detection` is false, co-located robots (within `tol`)
    /// are collapsed to one point.
    ///
    /// # Panics
    ///
    /// Panics if `robots` is empty or contains no point at the local origin.
    pub fn new(
        mut robots: Vec<Point>,
        pattern: Vec<Point>,
        multiplicity_detection: bool,
        tol: Tol,
    ) -> Self {
        assert!(!robots.is_empty(), "a snapshot contains at least the observer");
        assert!(
            robots.iter().any(|p| p.approx_eq(Point::ORIGIN, &tol)),
            "the observer must be at the local origin"
        );
        // The collapse keeps the first of every cluster of close points, so
        // when no two points are close it keeps them all: no copy is made.
        let close_pair =
            || (1..robots.len()).any(|i| robots[..i].iter().any(|q| q.approx_eq(robots[i], &tol)));
        if !multiplicity_detection && close_pair() {
            let mut dedup: Vec<Point> = Vec::with_capacity(robots.len());
            for p in robots.drain(..) {
                if !dedup.iter().any(|q| q.approx_eq(p, &tol)) {
                    dedup.push(p);
                }
            }
            robots = dedup;
        }
        Snapshot { robots, pattern, multiplicity_detection, tol }
    }

    /// The observed robot positions (local frame). With multiplicity
    /// detection, duplicates represent true multiplicities.
    pub fn robots(&self) -> &[Point] {
        &self.robots
    }

    /// The target pattern `F` in the observer's local frame.
    pub fn pattern(&self) -> &[Point] {
        &self.pattern
    }

    /// Whether multiplicities are visible.
    pub fn multiplicity_detection(&self) -> bool {
        self.multiplicity_detection
    }

    /// The tolerance the simulation runs at (part of the model parameters an
    /// algorithm may use for geometric decisions).
    pub fn tol(&self) -> &Tol {
        &self.tol
    }

    /// Number of observed points (robots or multiplicity-collapsed points).
    pub fn len(&self) -> usize {
        self.robots.len()
    }

    /// Never true.
    pub fn is_empty(&self) -> bool {
        self.robots.is_empty()
    }

    /// Takes the snapshot apart into its robot positions and its pattern,
    /// so that a simulator can reuse their buffers for a later Look.
    pub fn into_parts(self) -> (Vec<Point>, Vec<Point>) {
        (self.robots, self.pattern)
    }

    /// The observed configuration as a [`Configuration`].
    pub fn configuration(&self) -> Configuration {
        Configuration::new(self.robots.clone())
    }

    /// Index (into [`Self::robots`]) of the observer — the point at the
    /// local origin. With multiplicity points several robots may sit there;
    /// the first match is returned, which is harmless because co-located
    /// anonymous robots are interchangeable.
    pub fn self_index(&self) -> usize {
        self.robots
            .iter()
            .position(|p| p.approx_eq(Point::ORIGIN, &self.tol))
            // apf-lint: allow(panic-policy) — Snapshot constructors put the observer at origin
            .expect("snapshot invariant: observer at origin")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> Tol {
        Tol::default()
    }

    #[test]
    fn self_index_finds_origin() {
        let s = Snapshot::new(
            vec![Point::new(1.0, 0.0), Point::ORIGIN, Point::new(0.0, 2.0)],
            vec![],
            true,
            tol(),
        );
        assert_eq!(s.self_index(), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn multiplicity_collapse() {
        let pts =
            vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 1.0)];
        let with = Snapshot::new(pts.clone(), vec![], true, tol());
        assert_eq!(with.len(), 4);
        let without = Snapshot::new(pts, vec![], false, tol());
        assert_eq!(without.len(), 3);
    }

    #[test]
    fn pattern_is_carried_through() {
        let f = vec![Point::new(2.0, 2.0)];
        let s = Snapshot::new(vec![Point::ORIGIN], f.clone(), true, tol());
        assert_eq!(s.pattern(), f.as_slice());
        assert_eq!(s.into_parts(), (vec![Point::ORIGIN], f));
    }

    #[test]
    fn collapse_keeps_the_first_of_each_cluster() {
        let near = Point::new(1.0 + 1e-12, 0.0);
        let pts = vec![Point::new(1.0, 0.0), Point::ORIGIN, near, Point::new(0.0, 1.0)];
        let without = Snapshot::new(pts.clone(), vec![], false, tol());
        assert_eq!(without.robots(), [pts[0], pts[1], pts[3]]);
        // Without close points nothing collapses, and the points keep their
        // order and bits.
        let apart = vec![Point::new(-0.0, 1.0), Point::ORIGIN, Point::new(2.0, -0.0)];
        let (robots, _) = Snapshot::new(apart.clone(), vec![], false, tol()).into_parts();
        let bits =
            |v: &[Point]| v.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&robots), bits(&apart));
    }

    #[test]
    #[should_panic(expected = "origin")]
    fn missing_observer_panics() {
        Snapshot::new(vec![Point::new(1.0, 1.0)], vec![], true, tol());
    }
}
