//! The robot algorithm interface and randomness accounting.

use crate::snapshot::Snapshot;
use apf_geometry::Path;
use apf_trace::PhaseKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// What a robot decides to do after a Look.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Do not move this cycle (the configuration is "empty" for this robot).
    Stay,
    /// Follow the given path, expressed in the robot's **local** frame.
    Move(Path),
}

/// Error raised by an algorithm on a snapshot it cannot handle (e.g. fewer
/// robots than its correctness precondition requires).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeError {
    message: String,
}

impl ComputeError {
    /// Creates an error with a human-readable explanation.
    pub fn new(message: impl Into<String>) -> Self {
        ComputeError { message: message.into() }
    }
}

impl fmt::Display for ComputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compute failed: {}", self.message)
    }
}

impl std::error::Error for ComputeError {}

/// A counted source of randomness.
///
/// Every random decision of an algorithm goes through this trait so the
/// harness can compare randomness budgets: the paper's algorithm draws one
/// [`BitSource::bit`] per cycle in its election phase; the
/// Yamauchi–Yamashita-style baseline draws whole words (modelling its
/// continuous random choices).
pub trait BitSource {
    /// One fair random bit.
    fn bit(&mut self) -> bool;

    /// `n ≤ 64` random bits as the low bits of a word.
    fn word(&mut self, n: u32) -> u64;

    /// Number of bits drawn so far.
    fn bits_drawn(&self) -> u64;
}

/// A [`BitSource`] backed by a seeded PRNG, counting every bit.
#[derive(Debug, Clone)]
pub struct CountingBits {
    rng: StdRng,
    drawn: u64,
}

impl CountingBits {
    /// Creates a counted bit source from a seed.
    pub fn new(seed: u64) -> Self {
        CountingBits { rng: StdRng::seed_from_u64(seed), drawn: 0 }
    }
}

impl BitSource for CountingBits {
    fn bit(&mut self) -> bool {
        self.drawn += 1;
        self.rng.gen()
    }

    fn word(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "at most 64 bits per word");
        self.drawn += u64::from(n);
        if n == 0 {
            0
        } else {
            self.rng.gen::<u64>() >> (64 - n)
        }
    }

    fn bits_drawn(&self) -> u64 {
        self.drawn
    }
}

/// A [`BitSource`] that yields constant bits and counts nothing — used for
/// side-effect-free "would this robot move?" probes (e.g. stationarity
/// checks) that must not perturb the experiment's randomness accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullBits;

impl BitSource for NullBits {
    fn bit(&mut self) -> bool {
        false
    }

    fn word(&mut self, _n: u32) -> u64 {
        0
    }

    fn bits_drawn(&self) -> u64 {
        0
    }
}

/// A distributed mobile-robot algorithm: the Compute step of the LCM cycle.
///
/// Implementations must be:
///
/// * **oblivious** — the decision may depend only on `snapshot` (and
///   randomness); the `&self` receiver carries configuration (e.g. the
///   target pattern, tolerances), never execution state. It may memoize
///   pure functions of the snapshot's pattern — the algorithm's input —
///   keyed by the pattern's exact bits, since a memo hit returns exactly
///   what recomputation would;
/// * **frame-agnostic** — the snapshot is in an arbitrary local frame whose
///   rotation, scale and handedness vary per robot; a correct algorithm's
///   *global* behavior is invariant under these (the simulator's
///   chirality-randomization tests exercise exactly this).
pub trait RobotAlgorithm {
    /// Computes this cycle's decision from a local-frame snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ComputeError`] when the snapshot violates the algorithm's
    /// documented preconditions.
    fn compute(
        &self,
        snapshot: &Snapshot,
        bits: &mut dyn BitSource,
    ) -> Result<Decision, ComputeError>;

    /// Like [`RobotAlgorithm::compute`], additionally tagging the decision
    /// with the algorithm phase that produced it (for per-phase metrics and
    /// tracing). The default tags everything [`PhaseKind::Untagged`].
    ///
    /// Implementations overriding this must keep `compute` behaviorally
    /// identical (same decisions, same randomness draws) — the engine uses
    /// `compute_tagged` for real cycles and `compute` for side-effect-free
    /// probes, and the two must agree. The easiest way is to put the logic
    /// here and delegate `compute` to `self.compute_tagged(..).map(|(d, _)| d)`.
    ///
    /// # Errors
    ///
    /// Returns [`ComputeError`] when the snapshot violates the algorithm's
    /// documented preconditions.
    fn compute_tagged(
        &self,
        snapshot: &Snapshot,
        bits: &mut dyn BitSource,
    ) -> Result<(Decision, PhaseKind), ComputeError> {
        Ok((self.compute(snapshot, bits)?, PhaseKind::Untagged))
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_bits_counts() {
        let mut b = CountingBits::new(1);
        let _ = b.bit();
        let _ = b.bit();
        assert_eq!(b.bits_drawn(), 2);
        let _ = b.word(10);
        assert_eq!(b.bits_drawn(), 12);
        let _ = b.word(0);
        assert_eq!(b.bits_drawn(), 12);
    }

    #[test]
    fn counting_bits_deterministic_per_seed() {
        let mut a = CountingBits::new(7);
        let mut b = CountingBits::new(7);
        for _ in 0..64 {
            assert_eq!(a.bit(), b.bit());
        }
        assert_eq!(a.word(32), b.word(32));
    }

    #[test]
    fn counting_bits_fairish() {
        let mut b = CountingBits::new(99);
        let ones: u32 = (0..10_000).map(|_| u32::from(b.bit())).sum();
        assert!((3000..7000).contains(&ones), "wildly biased bit source: {ones}");
    }

    #[test]
    fn null_bits_never_count() {
        let mut n = NullBits;
        assert!(!n.bit());
        assert_eq!(n.word(64), 0);
        assert_eq!(n.bits_drawn(), 0);
    }

    #[test]
    #[should_panic(expected = "64")]
    fn word_too_wide_panics() {
        CountingBits::new(0).word(65);
    }

    #[test]
    fn compute_error_displays() {
        let e = ComputeError::new("needs n >= 7");
        assert!(e.to_string().contains("needs n >= 7"));
    }
}
