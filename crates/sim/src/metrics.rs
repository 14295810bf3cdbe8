//! Execution metrics: cycles, randomness, distance — broken down per
//! algorithm phase.
//!
//! The paper's complexity claims are *per phase*: `ψ_RSB` draws one random
//! bit per election cycle, `ψ_DPF` draws none at all. A single flat counter
//! cannot check either, so [`Metrics`] keeps one [`PhaseMetrics`] bucket per
//! [`PhaseKind`] and derives the run-wide totals by summation. The totals
//! round-trip exactly: every increment lands in exactly one bucket, so
//! e.g. [`Metrics::cycles`] equals what the old flat `cycles` field counted.

use apf_trace::PhaseKind;

/// Counters for one algorithm phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseMetrics {
    /// Look events (= LCM cycles) whose Compute was tagged with this phase.
    pub cycles: u64,
    /// Cycles in which the robot decided to move.
    pub active_cycles: u64,
    /// Random bits drawn by Computes tagged with this phase.
    pub random_bits: u64,
    /// Distance traveled along paths computed in this phase.
    pub distance: f64,
    /// Move phases cut short by the adversary (traveled ≥ δ but < full
    /// path), attributed to the phase that computed the path.
    pub interrupted_moves: u64,
}

impl PhaseMetrics {
    /// Whether nothing was recorded in this phase.
    pub fn is_empty(&self) -> bool {
        *self == PhaseMetrics::default()
    }

    /// Random bits per cycle within this phase (0.0 when no cycle ran).
    pub fn bits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.random_bits as f64 / self.cycles as f64
        }
    }
}

/// Counters accumulated over a simulation run, per algorithm phase.
///
/// All counter arithmetic saturates: a run can in principle be driven for
/// longer than any `u64` budget (e.g. fuzzing with an adversarial
/// scheduler), and a wrapped counter would silently corrupt an experiment
/// table, while a pinned-at-max one is visibly wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// Engine steps executed (scheduler batches; not phase-attributable).
    pub steps: u64,
    /// Per-phase buckets, indexed by [`PhaseKind::index`].
    pub per_phase: [PhaseMetrics; PhaseKind::COUNT],
}

impl Metrics {
    /// The bucket for one phase.
    pub fn phase(&self, kind: PhaseKind) -> &PhaseMetrics {
        &self.per_phase[kind.index()]
    }

    /// Iterates the non-empty phase buckets in [`PhaseKind`] order.
    pub fn phases(&self) -> impl Iterator<Item = (PhaseKind, &PhaseMetrics)> {
        PhaseKind::ALL.iter().map(move |&k| (k, self.phase(k))).filter(|(_, m)| !m.is_empty())
    }

    /// Records one Look/Compute cycle tagged with `kind`.
    pub fn record_cycle(&mut self, kind: PhaseKind) {
        let p = &mut self.per_phase[kind.index()];
        p.cycles = p.cycles.saturating_add(1);
    }

    /// Records that the cycle produced a pending move.
    pub fn record_active(&mut self, kind: PhaseKind) {
        let p = &mut self.per_phase[kind.index()];
        p.active_cycles = p.active_cycles.saturating_add(1);
    }

    /// Records `bits` random bits drawn during a `kind`-tagged Compute.
    pub fn record_bits(&mut self, kind: PhaseKind, bits: u64) {
        let p = &mut self.per_phase[kind.index()];
        p.random_bits = p.random_bits.saturating_add(bits);
    }

    /// Records distance traveled along a path computed in phase `kind`.
    pub fn record_distance(&mut self, kind: PhaseKind, distance: f64) {
        self.per_phase[kind.index()].distance += distance;
    }

    /// Records an adversary-interrupted move of a `kind`-computed path.
    pub fn record_interrupt(&mut self, kind: PhaseKind) {
        let p = &mut self.per_phase[kind.index()];
        p.interrupted_moves = p.interrupted_moves.saturating_add(1);
    }

    /// Look events (= LCM cycles started) across all robots and phases.
    pub fn cycles(&self) -> u64 {
        self.per_phase.iter().fold(0u64, |a, p| a.saturating_add(p.cycles))
    }

    /// Cycles in which the robot decided to move.
    pub fn active_cycles(&self) -> u64 {
        self.per_phase.iter().fold(0u64, |a, p| a.saturating_add(p.active_cycles))
    }

    /// Random bits drawn by the algorithm across all robots and phases.
    pub fn random_bits(&self) -> u64 {
        self.per_phase.iter().fold(0u64, |a, p| a.saturating_add(p.random_bits))
    }

    /// Total distance traveled by all robots.
    pub fn distance(&self) -> f64 {
        self.per_phase.iter().map(|p| p.distance).sum()
    }

    /// Move phases cut short by the adversary (traveled ≥ δ but < full path).
    pub fn interrupted_moves(&self) -> u64 {
        self.per_phase.iter().fold(0u64, |a, p| a.saturating_add(p.interrupted_moves))
    }

    /// Random bits per cycle — the paper's headline randomness measure.
    ///
    /// Returns 0.0 when no cycle has run. That is deliberate: a zero-cycle
    /// run drew zero bits, and 0.0 (rather than NaN or an error) keeps the
    /// measure aggregatable — it never poisons a mean and sorts first, which
    /// is the right place for "no evidence either way" in every report this
    /// workspace produces.
    pub fn bits_per_cycle(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            0.0
        } else {
            self.random_bits() as f64 / cycles as f64
        }
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "steps={} cycles={} active={} bits={} ({:.3}/cycle) dist={:.3} interrupted={}",
            self.steps,
            self.cycles(),
            self.active_cycles(),
            self.random_bits(),
            self.bits_per_cycle(),
            self.distance(),
            self.interrupted_moves()
        )?;
        for (kind, p) in self.phases() {
            write!(f, " [{}: c={} b={}]", kind, p.cycles, p.random_bits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_cycle_handles_zero_cycles() {
        // A run that never completed a Look has no cycles: the measure is
        // defined as 0.0, not NaN — see the method docs.
        let m = Metrics::default();
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.bits_per_cycle(), 0.0);
        assert!(!m.bits_per_cycle().is_nan());
        assert_eq!(PhaseMetrics::default().bits_per_cycle(), 0.0);

        let mut m = Metrics::default();
        m.record_cycle(PhaseKind::Untagged);
        m.record_cycle(PhaseKind::Untagged);
        m.record_cycle(PhaseKind::Untagged);
        m.record_cycle(PhaseKind::Untagged);
        m.record_bits(PhaseKind::Untagged, 2);
        assert!((m.bits_per_cycle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn totals_round_trip_the_per_phase_breakdown() {
        let mut m = Metrics { steps: 9, ..Metrics::default() };
        m.record_cycle(PhaseKind::RsbElection);
        m.record_bits(PhaseKind::RsbElection, 1);
        m.record_cycle(PhaseKind::RsbElection);
        m.record_bits(PhaseKind::RsbElection, 1);
        m.record_active(PhaseKind::RsbElection);
        m.record_cycle(PhaseKind::DpfRotate);
        m.record_active(PhaseKind::DpfRotate);
        m.record_distance(PhaseKind::DpfRotate, 1.5);
        m.record_distance(PhaseKind::RsbElection, 0.5);
        m.record_interrupt(PhaseKind::DpfRotate);

        assert_eq!(m.cycles(), 3);
        assert_eq!(m.active_cycles(), 2);
        assert_eq!(m.random_bits(), 2);
        assert!((m.distance() - 2.0).abs() < 1e-12);
        assert_eq!(m.interrupted_moves(), 1);

        // The totals are exactly the sums of the buckets.
        let sum: u64 = m.per_phase.iter().map(|p| p.cycles).sum();
        assert_eq!(sum, m.cycles());
        let e = m.phase(PhaseKind::RsbElection);
        assert_eq!((e.cycles, e.random_bits), (2, 2));
        assert!((e.bits_per_cycle() - 1.0).abs() < 1e-12);
        assert_eq!(m.phase(PhaseKind::DpfRotate).interrupted_moves, 1);
        assert_eq!(m.phases().count(), 2, "only non-empty buckets iterate");
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut m = Metrics::default();
        m.per_phase[PhaseKind::Untagged.index()].cycles = u64::MAX;
        m.per_phase[PhaseKind::Untagged.index()].random_bits = u64::MAX - 1;
        m.record_cycle(PhaseKind::Untagged);
        m.record_bits(PhaseKind::Untagged, 5);
        assert_eq!(m.phase(PhaseKind::Untagged).cycles, u64::MAX);
        assert_eq!(m.phase(PhaseKind::Untagged).random_bits, u64::MAX);

        // Totals saturate across buckets too: MAX + anything pins at MAX.
        m.record_cycle(PhaseKind::DpfFrame);
        assert_eq!(m.cycles(), u64::MAX);
        assert_eq!(m.random_bits(), u64::MAX);
        // A saturated count must not wrap the derived measure negative.
        assert!(m.bits_per_cycle() >= 0.0);
    }

    #[test]
    fn display_is_nonempty_and_mentions_phases() {
        assert!(!Metrics::default().to_string().is_empty());
        let mut m = Metrics::default();
        m.record_cycle(PhaseKind::RsbElection);
        assert!(m.to_string().contains("rsb-election"));
    }
}
