//! Baseline algorithms for the experiment harness.
//!
//! Three comparison points frame the paper's contribution:
//!
//! * [`YyStyleFormation`] — a Yamauchi–Yamashita-style *randomized* pattern
//!   formation: symmetry is broken by drawing a point **uniformly at random
//!   from a continuous segment** (modelled as a 64-bit draw per decision, vs
//!   the paper's single bit per cycle). The deterministic tail is shared
//!   with our implementation, so the measured difference isolates the
//!   randomness interface of the symmetry-breaking phase — which is exactly
//!   the axis the paper compares on (its reference 13).
//! * [`DeterministicFormation`] — no randomness at all: succeeds from
//!   asymmetric configurations (unique maximal view), but on configurations
//!   with `ρ(P) > 1` or an axis of symmetry it *provably cannot make
//!   progress* (it stays forever). This exhibits the
//!   `ρ(I) | ρ(F)` impossibility that the probabilistic algorithm removes.
//! * [`GatherToCenter`] — every robot walks to the center of `C(P)`; a
//!   trivial workload for calibrating simulator overhead in benchmarks.

#![forbid(unsafe_code)]

use apf_core::analysis::Analysis;
use apf_core::{dpf, FormPattern, PatternMemo};
use apf_geometry::{Path, Point};
use apf_sim::{BitSource, ComputeError, Decision, PhaseKind, RobotAlgorithm, Snapshot};

/// Yamauchi–Yamashita-style randomized formation (continuous randomness).
///
/// Election: every robot in the *closest band* (radius within tolerance of
/// the minimum) draws a uniform random fraction (one 64-bit word — the
/// discrete stand-in for "a point chosen uniformly at random in a continuous
/// segment") and steps that fraction of a quarter of its radius toward the
/// center. Distinct draws break ties with probability 1; once one robot is
/// strictly closest it descends to the selected radius and the shared
/// deterministic phase finishes the pattern.
#[derive(Debug, Default)]
pub struct YyStyleFormation {
    memo: PatternMemo,
}

impl YyStyleFormation {
    /// Creates the baseline.
    pub fn new() -> Self {
        YyStyleFormation::default()
    }
}

impl RobotAlgorithm for YyStyleFormation {
    fn compute(
        &self,
        snapshot: &Snapshot,
        bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        let a = Analysis::new(snapshot, &self.memo)?;
        if a.n() != a.pattern.points().len() {
            return Err(ComputeError::new("robot/pattern size mismatch"));
        }
        if a.pattern.is_formed_by(a.config.points()) {
            return Ok((Decision::Stay, PhaseKind::Terminal));
        }
        if let Some(d) = apf_core::completion_move(&a)? {
            return Ok((d, PhaseKind::Completion));
        }
        match a.selected() {
            Some(rs) => dpf::act(&a, rs),
            // The continuous-randomness election is this baseline's analogue
            // of ψ_RSB's election — tagging it the same makes the per-phase
            // bits/cycle comparison line up across algorithms (and lets the
            // trace inspector show exactly where the 64-bit draws happen).
            None => Ok((yy_select(&a, bits), PhaseKind::RsbElection)),
        }
    }

    fn name(&self) -> &'static str {
        "yy-style-continuous-randomness"
    }
}

/// One election cycle of the continuous-randomness baseline.
fn yy_select(a: &Analysis, bits: &mut dyn BitSource) -> Decision {
    let tol = &a.tol;
    let my_r = a.radius(a.me);
    let min_r = (0..a.n()).map(|i| a.radius(i)).fold(f64::INFINITY, f64::min);
    let others_min =
        (0..a.n()).filter(|&i| i != a.me).map(|i| a.radius(i)).fold(f64::INFINITY, f64::min);

    if tol.lt(my_r, others_min) {
        // Unique closest: descend deterministically to the selected radius.
        let target = 0.4 * a.pattern.l_f().min(others_min);
        if my_r <= target + tol.eps {
            return Decision::Stay;
        }
        let p = apf_geometry::path::radial_to(Point::ORIGIN, a.my_pos(), target);
        return Decision::Move(a.denormalize_path(&p));
    }
    if !tol.eq(my_r, min_r) {
        return Decision::Stay;
    }
    // Closest band: draw a continuous random fraction (64 bits) and step
    // inward by that fraction of a quarter radius.
    let u = bits.word(64) as f64 / u64::MAX as f64;
    let step = my_r * 0.25 * u;
    if step <= tol.eps {
        return Decision::Stay;
    }
    let target_radius = my_r - step;
    let p = apf_geometry::path::radial_to(Point::ORIGIN, a.my_pos(), target_radius);
    Decision::Move(a.denormalize_path(&p))
}

/// Purely deterministic formation: our shared deterministic machinery with
/// the asymmetric-descent leader election, and *no* fallback for symmetric
/// configurations — on those it stays put forever, exhibiting the
/// deterministic impossibility.
#[derive(Debug, Default)]
pub struct DeterministicFormation {
    memo: PatternMemo,
    /// The paper's algorithm, for the asymmetric branch.
    fallback: FormPattern,
}

impl DeterministicFormation {
    /// Creates the baseline.
    pub fn new() -> Self {
        DeterministicFormation::default()
    }
}

impl RobotAlgorithm for DeterministicFormation {
    fn compute(
        &self,
        snapshot: &Snapshot,
        _bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        let a = Analysis::new(snapshot, &self.memo)?;
        if a.n() != a.pattern.points().len() {
            return Err(ComputeError::new("robot/pattern size mismatch"));
        }
        if a.pattern.is_formed_by(a.config.points()) {
            return Ok((Decision::Stay, PhaseKind::Terminal));
        }
        // Symmetric configuration: a deterministic algorithm cannot break
        // the symmetry — every robot of an equivalence class would act
        // identically. Stall (this IS the baseline's defining failure).
        // Deliberately Untagged: the stall belongs to no paper phase, and
        // stalled trials show up in per-phase tables as untagged cycles.
        let c = a.config.sec().center;
        let rho = apf_geometry::symmetry::symmetricity(&a.config, c, &a.tol);
        if rho > 1 || apf_geometry::symmetry::has_axis_of_symmetry(&a.config, c, &a.tol) {
            return Ok((Decision::Stay, PhaseKind::Untagged));
        }
        if let Some(d) = apf_core::completion_move(&a)? {
            return Ok((d, PhaseKind::Completion));
        }
        match a.selected() {
            Some(rs) => dpf::act(&a, rs),
            None => {
                // Reuse the paper's asymmetric branch through the public
                // entry point (it draws no bits on the asymmetric path).
                let mut null = apf_sim::NullBits;
                self.fallback.compute(snapshot, &mut null)
            }
        }
    }

    fn name(&self) -> &'static str {
        "deterministic-max-view"
    }
}

/// Trivial baseline: every robot walks to the center of the smallest
/// enclosing circle. Used to calibrate simulator overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatherToCenter;

impl GatherToCenter {
    /// Creates the baseline.
    pub fn new() -> Self {
        GatherToCenter
    }
}

impl RobotAlgorithm for GatherToCenter {
    fn compute(
        &self,
        snapshot: &Snapshot,
        _bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        let cfg = snapshot.configuration();
        let c = cfg.sec().center;
        let me = snapshot.robots()[snapshot.self_index()];
        if me.dist(c) <= snapshot.tol().eps {
            return Ok((Decision::Stay, PhaseKind::Untagged));
        }
        Ok((Decision::Move(Path::straight(me, c)), PhaseKind::Untagged))
    }

    fn name(&self) -> &'static str {
        "gather-to-center"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_scheduler::SchedulerKind;
    use apf_sim::{World, WorldConfig};

    fn world_with(
        alg: Box<dyn RobotAlgorithm>,
        initial: Vec<Point>,
        pattern: Vec<Point>,
        kind: SchedulerKind,
        seed: u64,
        randomize_frames: bool,
    ) -> World {
        let config = WorldConfig { randomize_frames, ..WorldConfig::default() };
        World::new(initial, pattern, alg, kind.build(seed), config, seed)
    }

    #[test]
    fn yy_forms_pattern_from_symmetric_config() {
        let initial = apf_patterns::symmetric_configuration(8, 4, 7);
        let target = apf_patterns::random_pattern(8, 9);
        let mut w = world_with(
            Box::new(YyStyleFormation::new()),
            initial,
            target,
            SchedulerKind::RoundRobin,
            3,
            true,
        );
        let o = w.run(300_000);
        assert!(o.formed, "YY baseline should form: {:?}", o.reason);
        // Continuous randomness: many bits per drawing cycle.
        assert!(o.metrics.random_bits() >= 64, "bits = {}", o.metrics.random_bits());
    }

    #[test]
    fn yy_uses_an_order_of_magnitude_more_bits() {
        let initial = apf_patterns::symmetric_configuration(8, 4, 11);
        let target = apf_patterns::random_pattern(8, 12);
        let mut yy = world_with(
            Box::new(YyStyleFormation::new()),
            initial.clone(),
            target.clone(),
            SchedulerKind::RoundRobin,
            5,
            true,
        );
        let o_yy = yy.run(300_000);
        let mut ours = apf_core::SimulationBuilder::new(initial, target)
            .scheduler(SchedulerKind::RoundRobin)
            .seed(5)
            .build()
            .unwrap();
        let o_ours = ours.run(300_000);
        assert!(o_yy.formed && o_ours.formed);
        assert!(
            o_yy.metrics.random_bits() >= 8 * o_ours.metrics.random_bits().max(1),
            "yy {} vs ours {}",
            o_yy.metrics.random_bits(),
            o_ours.metrics.random_bits()
        );
    }

    #[test]
    fn deterministic_forms_from_asymmetric() {
        let initial = apf_patterns::asymmetric_configuration(8, 21);
        let target = apf_patterns::random_pattern(8, 22);
        let mut w = world_with(
            Box::new(DeterministicFormation::new()),
            initial,
            target,
            SchedulerKind::RoundRobin,
            1,
            true,
        );
        let o = w.run(300_000);
        assert!(o.formed, "deterministic baseline must form from asymmetric: {:?}", o.reason);
        assert_eq!(o.metrics.random_bits(), 0, "it must not consume randomness");
    }

    #[test]
    fn deterministic_stalls_on_symmetric() {
        let initial = apf_patterns::symmetric_configuration(8, 4, 31);
        let target = apf_patterns::random_pattern(8, 32);
        let start = initial.clone();
        let mut w = world_with(
            Box::new(DeterministicFormation::new()),
            initial,
            target,
            SchedulerKind::RoundRobin,
            1,
            true,
        );
        let o = w.run(20_000);
        assert!(!o.formed, "deterministic baseline cannot break symmetry");
        // Nobody ever moved.
        for (p, q) in o.final_positions.iter().zip(start.iter()) {
            assert!(p.approx_eq(*q, &apf_geometry::Tol::default()));
        }
    }

    #[test]
    fn gather_contracts_to_center() {
        let initial = apf_patterns::asymmetric_configuration(8, 41);
        let pattern = initial.clone();
        let mut w = world_with(
            Box::new(GatherToCenter::new()),
            initial,
            pattern,
            SchedulerKind::Fsync,
            1,
            true,
        );
        for _ in 0..200 {
            let _ = w.step();
        }
        let cfg = w.configuration();
        let c = cfg.sec().center;
        let spread: f64 = cfg.points().iter().map(|p| p.dist(c)).fold(0.0, f64::max);
        assert!(spread < 0.05, "robots should contract, spread = {spread}");
    }
}
