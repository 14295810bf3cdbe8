//! The typed trace vocabulary: algorithm phases and engine events.

/// Which part of the algorithm produced a decision.
///
/// `ψ = {ψ_RSB, ψ_DPF}` is the paper's decomposition; the variants here are
/// one level finer so traces can show the election, the shift protocol, and
/// the three deterministic formation phases separately. Algorithms that do
/// not tag their decisions fall into [`PhaseKind::Untagged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum PhaseKind {
    /// The algorithm did not tag this cycle (an algorithm without phases).
    #[default]
    Untagged = 0,
    /// The configuration is similar to the pattern: terminal stay.
    Terminal,
    /// Multiplicity extension: the final gather step (Appendix C).
    Gather,
    /// The pattern is one agreed move away from complete.
    Completion,
    /// `ψ_RSB|Q`: probabilistic election among closest members (the
    /// one-coin-per-cycle phase).
    RsbElection,
    /// `ψ_RSB|Q`: the elected robot creates the 1/8-shifted regular set.
    RsbElected,
    /// `ψ_RSB|Q`: shift-protocol stages (tune ε, descend, announce).
    RsbShift,
    /// `ψ_RSB|Qc`: deterministic maximal-view descent (no regular set).
    RsbAsymmetric,
    /// `ψ_DPF` Phase 1: establish the oriented coordinate system `Z`.
    DpfFrame,
    /// `ψ_DPF` Phase 2 (and its pre-phases): populate the target circles.
    DpfPopulate,
    /// `ψ_DPF` Phase 3: rotate robots into their final positions.
    DpfRotate,
    /// `ψ_DPF` ran out of work for this robot this cycle (settled wait).
    DpfIdle,
}

impl PhaseKind {
    /// Number of variants (array-index domain).
    pub const COUNT: usize = 12;

    /// Every variant, in index order.
    pub const ALL: [PhaseKind; PhaseKind::COUNT] = [
        PhaseKind::Untagged,
        PhaseKind::Terminal,
        PhaseKind::Gather,
        PhaseKind::Completion,
        PhaseKind::RsbElection,
        PhaseKind::RsbElected,
        PhaseKind::RsbShift,
        PhaseKind::RsbAsymmetric,
        PhaseKind::DpfFrame,
        PhaseKind::DpfPopulate,
        PhaseKind::DpfRotate,
        PhaseKind::DpfIdle,
    ];

    /// Dense array index of this variant.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable label (used by the JSONL codec).
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Untagged => "untagged",
            PhaseKind::Terminal => "terminal",
            PhaseKind::Gather => "gather",
            PhaseKind::Completion => "completion",
            PhaseKind::RsbElection => "rsb-election",
            PhaseKind::RsbElected => "rsb-elected",
            PhaseKind::RsbShift => "rsb-shift",
            PhaseKind::RsbAsymmetric => "rsb-asym",
            PhaseKind::DpfFrame => "dpf-frame",
            PhaseKind::DpfPopulate => "dpf-populate",
            PhaseKind::DpfRotate => "dpf-rotate",
            PhaseKind::DpfIdle => "dpf-idle",
        }
    }

    /// Inverse of [`PhaseKind::label`].
    pub fn from_label(label: &str) -> Option<PhaseKind> {
        PhaseKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Whether this is a `ψ_RSB` sub-phase.
    pub fn is_rsb(self) -> bool {
        matches!(
            self,
            PhaseKind::RsbElection
                | PhaseKind::RsbElected
                | PhaseKind::RsbShift
                | PhaseKind::RsbAsymmetric
        )
    }

    /// Whether this is a `ψ_DPF` sub-phase.
    pub fn is_dpf(self) -> bool {
        matches!(
            self,
            PhaseKind::DpfFrame
                | PhaseKind::DpfPopulate
                | PhaseKind::DpfRotate
                | PhaseKind::DpfIdle
        )
    }
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured trace event.
///
/// Events are `Copy` and carry only primitives, so a *disabled* trace never
/// allocates and an *enabled* one costs a handful of stores per event.
/// `step` is the engine step that produced the event; `robot` is a stable
/// simulator-side index (robots are anonymous to each other, not to the
/// observer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A trial begins.
    TrialStart {
        /// Number of robots.
        robots: u32,
        /// World seed (robot randomness + frames; the scheduler derives its
        /// own seed from it).
        seed: u64,
    },
    /// One engine step (one scheduler batch) begins.
    StepBegin {
        /// Engine step counter (1-based, matches `Metrics::steps`).
        step: u64,
        /// Look actions in this batch.
        looks: u32,
        /// Move actions in this batch.
        moves: u32,
    },
    /// A robot takes a snapshot (the Look of an LCM cycle).
    Look {
        /// Engine step.
        step: u64,
        /// Robot index.
        robot: u32,
    },
    /// The algorithm drew one fair coin through its `BitSource`.
    CoinFlip {
        /// Engine step.
        step: u64,
        /// Robot index.
        robot: u32,
        /// The flip's outcome.
        heads: bool,
    },
    /// The algorithm drew an `n`-bit word through its `BitSource`.
    RandomWord {
        /// Engine step.
        step: u64,
        /// Robot index.
        robot: u32,
        /// Number of bits drawn.
        bits: u32,
    },
    /// The Compute of an LCM cycle finished.
    Decide {
        /// Engine step.
        step: u64,
        /// Robot index.
        robot: u32,
        /// Which algorithm phase produced the decision.
        phase: PhaseKind,
        /// Whether a pending move was created (a sub-tolerance path counts
        /// as a stay, mirroring the engine).
        moved: bool,
        /// Global-frame length of the computed path (0 for stays).
        path_len: f64,
    },
    /// A robot's tagged phase changed between consecutive cycles.
    PhaseChange {
        /// Engine step.
        step: u64,
        /// Robot index.
        robot: u32,
        /// Previous phase.
        from: PhaseKind,
        /// New phase.
        to: PhaseKind,
    },
    /// The adversary advanced a robot along its pending path.
    MoveSlice {
        /// Engine step.
        step: u64,
        /// Robot index.
        robot: u32,
        /// Distance actually traveled in this slice (after clamping and the
        /// minimum-progress rule).
        advanced: f64,
        /// Cumulative distance traveled along the path.
        traveled: f64,
        /// Total path length.
        length: f64,
        /// Whether the adversary ended the Move phase here.
        end_phase: bool,
        /// Whether the destination was reached.
        arrived: bool,
    },
    /// The adversary ended a Move phase before the destination (traveled
    /// ≥ δ but < full path) — the robot stays mid-path, observable there.
    Interrupt {
        /// Engine step.
        step: u64,
        /// Robot index.
        robot: u32,
        /// Distance traveled when interrupted.
        traveled: f64,
        /// Total path length.
        length: f64,
    },
    /// The success condition (similar + all idle) first became true.
    Formed {
        /// Engine step.
        step: u64,
    },
    /// The trial ended.
    TrialEnd {
        /// Final engine step count.
        step: u64,
        /// Whether the pattern was formed.
        formed: bool,
        /// Total LCM cycles (Look events).
        cycles: u64,
        /// Total random bits drawn.
        bits: u64,
    },
}

impl TraceEvent {
    /// The engine step this event belongs to (0 for [`TraceEvent::TrialStart`]).
    pub fn step(&self) -> u64 {
        match *self {
            TraceEvent::TrialStart { .. } => 0,
            TraceEvent::StepBegin { step, .. }
            | TraceEvent::Look { step, .. }
            | TraceEvent::CoinFlip { step, .. }
            | TraceEvent::RandomWord { step, .. }
            | TraceEvent::Decide { step, .. }
            | TraceEvent::PhaseChange { step, .. }
            | TraceEvent::MoveSlice { step, .. }
            | TraceEvent::Interrupt { step, .. }
            | TraceEvent::Formed { step }
            | TraceEvent::TrialEnd { step, .. } => step,
        }
    }

    /// The robot this event concerns, if it is robot-scoped.
    pub fn robot(&self) -> Option<u32> {
        match *self {
            TraceEvent::Look { robot, .. }
            | TraceEvent::CoinFlip { robot, .. }
            | TraceEvent::RandomWord { robot, .. }
            | TraceEvent::Decide { robot, .. }
            | TraceEvent::PhaseChange { robot, .. }
            | TraceEvent::MoveSlice { robot, .. }
            | TraceEvent::Interrupt { robot, .. } => Some(robot),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for k in PhaseKind::ALL {
            assert_eq!(PhaseKind::from_label(k.label()), Some(k), "{k:?}");
        }
        assert_eq!(PhaseKind::from_label("nope"), None);
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, k) in PhaseKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn rsb_dpf_split_is_a_partition_of_psi() {
        let rsb = PhaseKind::ALL.iter().filter(|k| k.is_rsb()).count();
        let dpf = PhaseKind::ALL.iter().filter(|k| k.is_dpf()).count();
        assert_eq!(rsb, 4);
        assert_eq!(dpf, 4);
        assert!(!PhaseKind::Untagged.is_rsb() && !PhaseKind::Untagged.is_dpf());
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::Decide {
            step: 7,
            robot: 3,
            phase: PhaseKind::RsbElection,
            moved: true,
            path_len: 0.5,
        };
        assert_eq!(e.step(), 7);
        assert_eq!(e.robot(), Some(3));
        assert_eq!(TraceEvent::Formed { step: 9 }.robot(), None);
        assert_eq!(TraceEvent::TrialStart { robots: 8, seed: 1 }.step(), 0);
    }
}
