//! Adversarial schedulers for Look-Compute-Move robot simulations.
//!
//! The ASYNC model quantifies over *all* fair activation schedules: the
//! adversary decides when each robot Looks, how long it Computes, how far it
//! travels in each slice of its Move phase, and when it pauses — subject to
//! (i) fairness (every robot is activated infinitely often) and (ii) the
//! minimum-progress rule (a Move phase ends only after the robot traveled at
//! least `δ` toward its destination, unless it arrived).
//!
//! The simulation engine (`apf-sim`) is event-driven: at every step it asks
//! the [`Scheduler`] for a batch of [`Action`]s given a view of each robot's
//! phase. Staleness arises naturally: a robot Looks at one step and Moves at
//! later steps, with other robots acting in between — and a paused robot is
//! observed mid-move exactly like a static one.
//!
//! Provided schedulers:
//!
//! * [`FsyncScheduler`] — lock-step rounds: everyone Looks, then everyone
//!   Moves to completion;
//! * [`SsyncScheduler`] — a random non-empty subset per round, each
//!   performing an atomic Look + full Move;
//! * [`AsyncScheduler`] — the full adversary: random interleavings, partial
//!   moves, pauses (with an aging bonus that enforces fairness);
//! * [`RoundRobinScheduler`] — a deterministic ASYNC schedule for
//!   reproducible unit tests;
//! * [`ScriptedScheduler`] — replays a recorded action script with legality
//!   filtering, so edited/shrunk schedules stay executable (the conformance
//!   fuzzer's counterexample reducer is built on it).

#![forbid(unsafe_code)]

pub mod action;
pub mod asynchronous;
pub mod fsync;
pub mod kind;
pub mod round_robin;
pub mod scripted;
pub mod ssync;

pub use action::{Action, PhaseView};
pub use asynchronous::{AsyncConfig, AsyncScheduler};
pub use fsync::FsyncScheduler;
pub use kind::SchedulerKind;
pub use round_robin::RoundRobinScheduler;
pub use scripted::ScriptedScheduler;
pub use ssync::SsyncScheduler;

/// A scheduling adversary: decides which robots act, and how far moving
/// robots travel, at each engine step.
///
/// Implementations must be *fair*: every robot is scheduled infinitely often
/// in an infinite execution (deterministically or with probability 1).
pub trait Scheduler {
    /// Pushes the actions for the next engine step onto `batch`, which
    /// arrives empty: the engine lends one buffer for every step, so a
    /// scheduler allocates nothing for its batches once that buffer has
    /// grown.
    ///
    /// `phases[i]` describes robot `i`'s current phase. The batch must be
    /// non-empty whenever at least one robot exists, and must only
    /// reference legal transitions (Look for idle robots, Move for robots
    /// with a pending path); the engine validates and panics on violations,
    /// since a buggy scheduler would silently invalidate every experiment.
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>);

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The batch `scheduler` emits for `phases`, in a fresh vector.
#[cfg(test)]
fn next_batch<S: Scheduler + ?Sized>(scheduler: &mut S, phases: &[PhaseView]) -> Vec<Action> {
    let mut batch = Vec::new();
    scheduler.next(phases, &mut batch);
    batch
}
