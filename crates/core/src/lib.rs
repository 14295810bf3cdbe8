//! The Bramas–Tixeuil probabilistic asynchronous arbitrary pattern
//! formation algorithm.
//!
//! [`FormPattern`] implements the paper's `formPattern` — the combination
//! `Ψ = {ψ_RSB, ψ_DPF}` of the randomized symmetry-breaking phase and the
//! deterministic, chirality-free formation phase — as an oblivious
//! [`apf_sim::RobotAlgorithm`]: a pure function from one local snapshot (and
//! one random bit) to one movement decision.
//!
//! Dispatch per cycle (the paper's main loop, with each phase ignored when
//! its condition already holds):
//!
//! 1. **Done** — the configuration is similar to `F`: stay (termination
//!    awareness);
//! 2. **Multiplicity preprocessing** (Section 5 / Appendix C) — center
//!    pattern points are relocated into `F̃`, and the final *gather step*
//!    walks the innermost group to the center;
//! 3. **Completion move** — `P − {r} ≈ F − {f}` for an agreed robot `r`:
//!    that robot walks to the last free pattern point;
//! 4. **No selected robot** → [`rsb::select_a_robot`] (randomized election);
//! 5. **Selected robot exists** → [`dpf::act`] (deterministic formation).
//!
//! # Example
//!
//! ```
//! use apf_core::SimulationBuilder;
//! use apf_scheduler::SchedulerKind;
//!
//! let initial = apf_patterns::asymmetric_configuration(7, 42);
//! let target = apf_patterns::random_pattern(7, 7);
//! let mut world = SimulationBuilder::new(initial, target)
//!     .scheduler(SchedulerKind::RoundRobin)
//!     .seed(1)
//!     .build()
//!     .expect("valid instance");
//! let outcome = world.run(200_000);
//! assert!(outcome.formed);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod dpf;
pub mod multiplicity;
pub mod pattern;
pub mod rsb;

pub use analysis::Analysis;
pub use builder::{validate_instance, BuildError, SimulationBuilder};
pub use pattern::{PatternAnalysis, PatternMemo};

use apf_geometry::{match_up_to_similarity, Path};
use apf_sim::{BitSource, ComputeError, Decision, PhaseKind, RobotAlgorithm, Snapshot};

/// The paper's algorithm as an oblivious robot algorithm.
///
/// Every decision is a function of the snapshot alone, which is exactly the
/// oblivious-robot model. What depends only on the snapshot's pattern — the
/// algorithm's input — is analysed once per distinct pattern and kept in a
/// [`PatternMemo`]; the memo never sees a robot position.
#[derive(Debug, Default)]
pub struct FormPattern {
    memo: PatternMemo,
}

impl FormPattern {
    /// Creates the algorithm.
    pub fn new() -> Self {
        FormPattern::default()
    }
}

impl RobotAlgorithm for FormPattern {
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
        if a.n() < 7 {
            return Err(ComputeError::new(format!(
                "the algorithm requires n >= 7 robots (Theorem 2), got {}",
                a.n()
            )));
        }
        if a.n() != a.pattern.points().len() {
            return Err(ComputeError::new(format!(
                "{} robots cannot form a {}-point pattern",
                a.n(),
                a.pattern.points().len()
            )));
        }

        // 1. Terminal configuration: stay.
        if a.pattern.is_formed_by(a.config.points()) {
            return Ok((Decision::Stay, PhaseKind::Terminal));
        }

        // 2. Multiplicity extension: relocate center points (F̃) and run the
        //    final gather step when its condition holds.
        match multiplicity::preprocess(&mut a)? {
            multiplicity::MultiStep::Gather(d) => return Ok((d, PhaseKind::Gather)),
            multiplicity::MultiStep::Proceed => {}
            multiplicity::MultiStep::Transformed => {
                // With F̃ swapped in, the terminal check applies to F̃ as well.
                if a.pattern.is_formed_by(a.config.points()) {
                    return Ok((Decision::Stay, PhaseKind::Terminal));
                }
            }
        }

        // 3. Completion move: one robot is one move away from finishing.
        if let Some(d) = completion_move(&a)? {
            return Ok((d, PhaseKind::Completion));
        }

        // 4./5. Symmetry breaking, then deterministic formation.
        match a.selected() {
            None => rsb::select_a_robot(&a, bits),
            Some(rs) => dpf::act(&a, rs),
        }
    }

    fn name(&self) -> &'static str {
        "bramas-tixeuil-apf"
    }
}

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
    let finalists: Vec<usize> =
        (0..a.n()).filter(|&r| f_prime.target.match_set(&a.config.without(r)).is_some()).collect();
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
