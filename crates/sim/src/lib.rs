//! Oblivious mobile-robot (Look-Compute-Move) simulator with adversarial
//! asynchrony.
//!
//! The simulator realizes the paper's model faithfully:
//!
//! * **Anonymity & uniformity** — every robot runs the same
//!   [`RobotAlgorithm`]; snapshots carry no identities;
//! * **Obliviousness** — the algorithm is a pure function of the current
//!   snapshot (the trait takes `&self` and receives no history), so a
//!   robot that Looks again before any position changed is answered with
//!   its last coin-free decision, without a Compute;
//! * **Disoriented local frames** — each robot observes the world through
//!   its own [`apf_geometry::Frame`] with random rotation, scale and
//!   *handedness*: there is no common North and no common chirality. The
//!   target pattern is likewise handed to each robot pre-transformed into
//!   its own frame;
//! * **Full asynchrony** — Look and Move are separate events interleaved by
//!   an [`apf_scheduler::Scheduler`]; robots move along computed paths in
//!   adversary-chosen slices, may pause mid-move (and are then observed at
//!   intermediate positions), and must travel at least `δ` per Move phase
//!   unless they arrive;
//! * **Randomization accounting** — algorithms draw randomness only through
//!   a [`BitSource`]; every bit is counted, which is how the "one random bit
//!   per cycle" claim is measured;
//! * **Optional multiplicity detection** — snapshots either expose exact
//!   multiplicities or collapse co-located robots, matching the paper's
//!   extension in Section 5.

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod metrics;
pub mod snapshot;
pub mod world;

pub use algorithm::{BitSource, ComputeError, CountingBits, Decision, NullBits, RobotAlgorithm};
pub use metrics::{Metrics, PhaseMetrics};
pub use snapshot::Snapshot;
pub use world::{Outcome, StopReason, World, WorldConfig};

// Algorithms tag their decisions with these and engines install sinks;
// re-exported so downstream crates do not need a separate apf-trace import
// for the common cases.
pub use apf_trace::{PhaseKind, TraceEvent, TraceSink};

// The bench crate's parallel trial engine moves run results and specs across
// worker threads; keep these types `Send + Sync` by construction. A trait
// bound change that breaks this fails here, at compile time, instead of
// deep inside `std::thread::scope` spawns.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Outcome>();
    assert_send_sync::<Metrics>();
    assert_send_sync::<StopReason>();
    assert_send_sync::<ComputeError>();
    assert_send_sync::<WorldConfig>();
    assert_send_sync::<Decision>();
};
