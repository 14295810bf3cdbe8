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
mod completion;
pub mod dpf;
pub mod multiplicity;
pub mod pattern;
pub mod rsb;

pub use analysis::Analysis;
pub use builder::{validate_instance, BuildError, SimulationBuilder};
pub use completion::completion_move;
pub use pattern::{PatternAnalysis, PatternMemo};

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
