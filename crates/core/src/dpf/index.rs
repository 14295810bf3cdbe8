//! The per-Look view of the configuration that Phases 2 and 3 read: every
//! robot's `Z`-angle and, for each target circle, the robots on it and the
//! robots strictly between it and the next circle out.
//!
//! [`super::act`] builds it once, after Phase 1 has established `Z`. Its
//! lists are exactly what the per-circle filters `tol.eq(|r|, c_k)` and
//! `tol.lt(c_k, |r|) && tol.lt(|r|, c_{k−1})` over the robots other than
//! `r_s` select, in the same order. Each robot is placed by two binary
//! searches over the circle radii: they descend, and floating-point
//! subtraction is monotone, so `|r| − c_k` ascends in `k`. The circles a
//! robot lies on are therefore one contiguous range, and a robot on none
//! lies strictly between at most one pair of neighbouring circles.

use crate::analysis::Analysis;
use crate::dpf::phase1::ZFrame;
use std::ops::Range;

/// Robot lists of one kind, one per circle, in one allocation:
/// list `k` is `items[start[k]..start[k + 1]]`.
#[derive(Debug)]
struct Lists {
    items: Vec<usize>,
    start: Vec<usize>,
}

impl Lists {
    /// Puts every robot `i` of `0..n` into the lists `lists_of(i)` of `k`
    /// lists, keeping each list in ascending robot order.
    fn bucket(n: usize, k: usize, lists_of: impl Fn(usize) -> Range<usize>) -> Self {
        let mut start = vec![0; k + 1];
        for i in 0..n {
            for c in lists_of(i) {
                start[c] += 1;
            }
        }
        // Running sums: `start[c]` becomes the end of list `c`. Filling each
        // list from its end, robots descending, leaves `start[c]` at its
        // beginning.
        for c in 1..=k {
            start[c] += start[c - 1];
        }
        let mut items = vec![0; start[k]];
        for i in (0..n).rev() {
            for c in lists_of(i) {
                start[c] -= 1;
                items[start[c]] = i;
            }
        }
        Lists { items, start }
    }

    fn get(&self, k: usize) -> &[usize] {
        &self.items[self.start[k]..self.start[k + 1]]
    }
}

/// Every robot's `Z`-angle and the robots of each target circle.
#[derive(Debug)]
pub(super) struct Index {
    z: Vec<f64>,
    /// The robots other than `r_s` on each circle, ascending.
    on: Lists,
    /// The lists of `on`, each stably sorted by `Z`-angle.
    on_z: Vec<usize>,
    /// The robots other than `r_s` strictly between circle `k` and circle
    /// `k − 1`, ascending; empty for `k = 0`.
    band: Lists,
}

impl Index {
    /// Indexes `a`'s robots in the frame `zf` against the target circle
    /// radii `circles`, which strictly decrease.
    pub(super) fn new(a: &Analysis, rs: usize, zf: &ZFrame, circles: &[f64]) -> Self {
        let (n, k, eps) = (a.n(), circles.len(), a.tol.eps);
        let z: Vec<f64> = (0..n).map(|i| zf.z_angle(a.polar(i).angle)).collect();
        // Robot `i` lies on circles `lo..hi`: it is below the first `lo`
        // circles by more than `eps` and above circles `hi..` by more than
        // `eps`. With `lo == hi`, it is on none and strictly between circles
        // `lo − 1` and `lo`.
        let spans: Vec<Range<usize>> = (0..n)
            .map(|i| {
                if i == rs {
                    return 0..0;
                }
                let r = a.radius(i);
                circles.partition_point(|&c| r - c < -eps)
                    ..circles.partition_point(|&c| r - c <= eps)
            })
            .collect();
        let on = Lists::bucket(n, k, |i| spans[i].clone());
        let band = Lists::bucket(n, k, |i| match spans[i] {
            Range { start, end } if start == end && 0 < start && start < k => start..start + 1,
            _ => 0..0,
        });
        let mut on_z = on.items.clone();
        for c in 0..k {
            on_z[on.start[c]..on.start[c + 1]].sort_by(|&x, &y| z[x].total_cmp(&z[y]));
        }
        Index { z, on, on_z, band }
    }

    /// The `Z`-angle of robot `i`; equal to
    /// `zf.angle_of(a.config.point(i))`.
    pub(super) fn z(&self, i: usize) -> f64 {
        self.z[i]
    }

    /// The robots other than `r_s` on circle `k`, ascending.
    pub(super) fn on(&self, k: usize) -> &[usize] {
        self.on.get(k)
    }

    /// [`Self::on`]`(k)`, stably sorted by `Z`-angle.
    pub(super) fn on_z(&self, k: usize) -> &[usize] {
        &self.on_z[self.on.start[k]..self.on.start[k + 1]]
    }

    /// The robots other than `r_s` strictly between circle `k` and circle
    /// `k − 1`, ascending; empty for `k = 0`.
    pub(super) fn band(&self, k: usize) -> &[usize] {
        self.band.get(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpf::phase1::{ensure_frame, FrameStatus};
    use crate::multiplicity;
    use crate::pattern::PatternMemo;
    use crate::FormPattern;
    use apf_geometry::{Point, Tol};
    use apf_scheduler::SchedulerKind;
    use apf_sim::{
        BitSource, ComputeError, Decision, PhaseKind, RobotAlgorithm, Snapshot, World, WorldConfig,
    };
    use std::cell::Cell;
    use std::f64::consts::TAU;
    use std::rc::Rc;

    /// The robots other than `rs` on the circle of radius `c`, as ψ_DPF
    /// filtered them before the index.
    fn filtered_on(a: &Analysis, rs: usize, c: f64) -> Vec<usize> {
        (0..a.n()).filter(|&i| i != rs && a.tol.eq(a.radius(i), c)).collect()
    }

    /// The robots other than `rs` strictly between circles `k` and `k − 1`,
    /// as `cleanExterior` filtered them before the index.
    fn filtered_band(a: &Analysis, rs: usize, circles: &[f64], k: usize) -> Vec<usize> {
        if k == 0 {
            return Vec::new();
        }
        (0..a.n())
            .filter(|&i| i != rs)
            .filter(|&i| a.tol.lt(circles[k], a.radius(i)) && a.tol.lt(a.radius(i), circles[k - 1]))
            .collect()
    }

    fn assert_matches_filters(a: &Analysis, rs: usize, zf: &ZFrame, circles: &[f64], ix: &Index) {
        let z = |i: usize| zf.angle_of(a.config.point(i));
        for i in 0..a.n() {
            assert_eq!(ix.z(i).to_bits(), z(i).to_bits(), "Z-angle of robot {i}");
        }
        for (k, &c) in circles.iter().enumerate() {
            let mut on = filtered_on(a, rs, c);
            assert_eq!(ix.on(k), on, "robots on circle {k}");
            on.sort_by(|&x, &y| z(x).total_cmp(&z(y)));
            assert_eq!(ix.on_z(k), on, "robots on circle {k} by Z-angle");
            assert_eq!(ix.band(k), filtered_band(a, rs, circles, k), "band {k}");
        }
    }

    /// A power of two, so that `c + m·EPS` is exact for the circles below
    /// and `|r| − c` is exactly `m·EPS`.
    const EPS: f64 = 1.0 / (1u64 << 24) as f64;

    #[test]
    fn index_equals_the_filters_at_the_tolerance_boundaries() {
        // Circles 1 and 2 lie 1.5·EPS apart, so a robot between them is on
        // both.
        let circles = [0.75, 0.5, 0.5 - 1.5 * EPS, 0.25];
        let mut radii = vec![0.5 - 0.75 * EPS];
        for &c in &circles {
            for m in [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0] {
                radii.push(c + m * EPS);
            }
            for edge in [c - EPS, c + EPS] {
                radii.push(f64::from_bits(edge.to_bits() - 1));
                radii.push(f64::from_bits(edge.to_bits() + 1));
            }
        }
        // The observer sits at the center, inside the innermost circle; the
        // two robots at radius 1 hold `C(P)` outside `C_1`. On the axes,
        // normalization and `|r|` are exact.
        let mut robots = vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(-1.0, 0.0)];
        let axes = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)];
        for (j, &r) in radii.iter().enumerate() {
            let (x, y) = axes[j % 4];
            robots.push(Point::new(x * r, y * r));
        }
        let pattern: Vec<Point> = (0..8)
            .map(|i| Point::new((TAU * i as f64 / 8.0).cos(), (TAU * i as f64 / 8.0).sin()))
            .collect();
        let snap = Snapshot::new(robots, pattern, true, Tol::new(EPS));
        let a = Analysis::new(&snap, &PatternMemo::default()).unwrap();
        for (j, &r) in radii.iter().enumerate() {
            assert_eq!(a.radius(j + 3), r, "robot {} is not at its exact radius", j + 3);
        }
        // r_s is the robot exactly on circle 1; r_max anchors `Z` anywhere.
        let rs = 3 + 1 + 9 + 4 + 4;
        assert_eq!(a.radius(rs), circles[1]);
        let zf = ZFrame::new(&a, 5, rs, 0.01);
        let ix = Index::new(&a, rs, &zf, &circles);
        assert_matches_filters(&a, rs, &zf, &circles, &ix);
        // The boundaries are exercised: robots exactly `EPS` off a circle
        // are on it, one ulp farther they are not, and a robot between
        // circles 1 and 2 is on both.
        assert_eq!(ix.on(0).len(), 5 + 2);
        assert!(ix.on(1).contains(&3) && ix.on(2).contains(&3));
        assert!(!ix.band(1).is_empty() && !ix.band(3).is_empty());
    }

    /// What the cross-checked trials saw.
    #[derive(Default)]
    struct Seen {
        populate: Cell<usize>,
        rotate: Cell<usize>,
        two_on_c_f: Cell<bool>,
    }

    /// `FormPattern`, checking on every ψ_DPF Look past Phase 1 that the
    /// index equals the filters.
    struct CrossChecked {
        inner: FormPattern,
        memo: PatternMemo,
        seen: Rc<Seen>,
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
            let (decision, kind) = self.inner.compute_tagged(snapshot, bits)?;
            let seen = &self.seen;
            match kind {
                PhaseKind::DpfPopulate => seen.populate.set(seen.populate.get() + 1),
                PhaseKind::DpfRotate => seen.rotate.set(seen.rotate.get() + 1),
                PhaseKind::DpfIdle => {}
                _ => return Ok((decision, kind)),
            }
            let mut a = Analysis::new(snapshot, &self.memo)?;
            multiplicity::preprocess(&mut a)?;
            let rs = a.selected().expect("ψ_DPF acts with a selected robot");
            let plan = a.pattern.target_plan()?;
            let FrameStatus::Ready(zf) = ensure_frame(&a, rs, plan)? else {
                panic!("ψ_DPF acted past Phase 1 without a frame");
            };
            let ix = Index::new(&a, rs, &zf, &plan.circles);
            assert_matches_filters(&a, rs, &zf, &plan.circles, &ix);
            if plan.circle_targets[0].len() == 2 {
                seen.two_on_c_f.set(true);
            }
            Ok((decision, kind))
        }

        fn name(&self) -> &'static str {
            "cross-checked"
        }
    }

    #[test]
    fn index_equals_the_filters_on_every_look() {
        use SchedulerKind::{Fsync, RoundRobin, Ssync};
        let seen = Rc::new(Seen::default());
        // Formation (asymmetric) and election (symmetric) trial shapes.
        for (n, rho, kind, g) in [(20, 1, Ssync, 3), (16, 1, Fsync, 20), (8, 4, RoundRobin, 37)] {
            let initial = if rho > 1 {
                apf_patterns::symmetric_configuration(n, rho, g)
            } else {
                apf_patterns::asymmetric_configuration(n, g)
            };
            let alg = CrossChecked {
                inner: FormPattern::new(),
                memo: PatternMemo::default(),
                seen: Rc::clone(&seen),
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
            assert!(world.run(5_000).formed, "n = {n}, seed {g} did not form");
        }
        assert!(seen.populate.get() > 0 && seen.rotate.get() > 0);
        assert!(seen.two_on_c_f.get(), "no trial's F' has exactly two points on C(F)");
    }
}
