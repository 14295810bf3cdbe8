//! Scheduler selection by name.

use crate::{
    AsyncConfig, AsyncScheduler, FsyncScheduler, RoundRobinScheduler, Scheduler, SsyncScheduler,
};

/// The three execution models of the literature plus the deterministic test
/// schedule, as a value (handy for sweeping experiments over models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Fully synchronous lock-step rounds.
    Fsync,
    /// Semi-synchronous: random subsets, atomic cycles.
    Ssync,
    /// Fully asynchronous adversary (partial moves, pauses, stale views).
    Async,
    /// Deterministic round-robin ASYNC schedule.
    RoundRobin,
}

impl SchedulerKind {
    /// Instantiates the scheduler with the given seed (ignored by the
    /// deterministic kinds).
    pub fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fsync => Box::new(FsyncScheduler::new()),
            SchedulerKind::Ssync => Box::new(SsyncScheduler::new(seed, 0.5)),
            SchedulerKind::Async => Box::new(AsyncScheduler::new(seed)),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new(3)),
        }
    }

    /// Instantiates an ASYNC scheduler with explicit adversary knobs
    /// (other kinds ignore the config).
    pub fn build_with_async_config(self, seed: u64, config: AsyncConfig) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Async => Box::new(AsyncScheduler::with_config(seed, config)),
            other => other.build(seed),
        }
    }

    /// All kinds, for experiment sweeps.
    pub fn all() -> [SchedulerKind; 4] {
        [
            SchedulerKind::Fsync,
            SchedulerKind::Ssync,
            SchedulerKind::Async,
            SchedulerKind::RoundRobin,
        ]
    }

    /// Lowercase wire label: how job specs and their canonical form spell
    /// the kind.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Fsync => "fsync",
            SchedulerKind::Ssync => "ssync",
            SchedulerKind::Async => "async",
            SchedulerKind::RoundRobin => "round_robin",
        }
    }

    /// The kind a wire label names, the inverse of [`SchedulerKind::label`].
    pub fn from_label(label: &str) -> Option<SchedulerKind> {
        SchedulerKind::all().into_iter().find(|k| k.label() == label)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulerKind::Fsync => "FSYNC",
            SchedulerKind::Ssync => "SSYNC",
            SchedulerKind::Async => "ASYNC",
            SchedulerKind::RoundRobin => "ROUND-ROBIN",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhaseView;

    #[test]
    fn build_produces_working_schedulers() {
        let idle = vec![PhaseView::Idle; 4];
        for kind in SchedulerKind::all() {
            let mut s = kind.build(7);
            assert!(!crate::next_batch(&mut *s, &idle).is_empty(), "{kind}");
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn labels_round_trip() {
        for kind in SchedulerKind::all() {
            assert_eq!(SchedulerKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(SchedulerKind::from_label("rr"), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(SchedulerKind::Async.to_string(), "ASYNC");
        assert_eq!(SchedulerKind::Fsync.to_string(), "FSYNC");
    }
}
