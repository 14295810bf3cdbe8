//! Fully synchronous (FSYNC) scheduler.

use crate::{Action, PhaseView, Scheduler};

/// Lock-step rounds: when all robots are idle, everyone Looks
/// simultaneously; afterwards everyone completes its full Move in one batch.
///
/// Snapshots in a round are mutually consistent (all taken in the same
/// batch, before any movement), which is exactly the FSYNC model.
#[derive(Debug, Default, Clone)]
pub struct FsyncScheduler;

impl FsyncScheduler {
    /// Creates an FSYNC scheduler.
    pub fn new() -> Self {
        FsyncScheduler
    }
}

impl Scheduler for FsyncScheduler {
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
        if phases.iter().all(|p| p.is_idle()) {
            batch.extend((0..phases.len()).map(|robot| Action::Look { robot }));
        } else {
            batch.extend(phases.iter().enumerate().filter(|(_, p)| !p.is_idle()).map(
                |(robot, p)| Action::Move { robot, distance: p.remaining(), end_phase: true },
            ));
        }
    }

    fn name(&self) -> &'static str {
        "fsync"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::next_batch;

    #[test]
    fn alternates_look_and_move_rounds() {
        let mut s = FsyncScheduler::new();
        let idle = vec![PhaseView::Idle; 3];
        let looks = next_batch(&mut s, &idle);
        assert_eq!(looks.len(), 3);
        assert!(looks.iter().all(|a| matches!(a, Action::Look { .. })));

        let pending = vec![PhaseView::Pending { length: 1.0, traveled: 0.0 }; 3];
        let moves = next_batch(&mut s, &pending);
        assert_eq!(moves.len(), 3);
        assert!(moves.iter().all(|a| matches!(a, Action::Move { end_phase: true, .. })));
    }

    #[test]
    fn mixed_phase_moves_only_pending() {
        let mut s = FsyncScheduler::new();
        let phases = vec![PhaseView::Idle, PhaseView::Pending { length: 2.0, traveled: 0.5 }];
        let acts = next_batch(&mut s, &phases);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].robot(), 1);
    }
}
