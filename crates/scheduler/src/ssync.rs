//! Semi-synchronous (SSYNC) scheduler.

use crate::{Action, PhaseView, Scheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SSYNC: in each round a non-empty random subset of the idle robots
/// performs an *atomic* Look-Compute-Move cycle.
///
/// Atomicity is realized by finishing every pending Move (issued in the
/// previous round) before the next Look batch, so no robot ever observes
/// another robot mid-move — the defining property of SSYNC.
///
/// Fairness: each robot joins a round independently with probability
/// `p_active`, plus a forced inclusion when it has been left out for
/// `starvation_bound` consecutive rounds.
#[derive(Debug, Clone)]
pub struct SsyncScheduler {
    rng: StdRng,
    p_active: f64,
    starvation_bound: u32,
    skipped: Vec<u32>,
}

impl SsyncScheduler {
    /// Creates an SSYNC scheduler with activation probability `p_active`.
    ///
    /// # Panics
    ///
    /// Panics if `p_active` is not in `(0, 1]`.
    pub fn new(seed: u64, p_active: f64) -> Self {
        assert!(p_active > 0.0 && p_active <= 1.0, "p_active must be in (0, 1]");
        SsyncScheduler {
            rng: StdRng::seed_from_u64(seed),
            p_active,
            starvation_bound: 64,
            skipped: Vec::new(),
        }
    }
}

impl Scheduler for SsyncScheduler {
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
        let n = phases.len();
        self.skipped.resize(n, 0);

        // Finish every pending move first: SSYNC cycles are atomic.
        batch.extend(
            phases
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.is_idle())
                .map(|(robot, p)| Action::Move { robot, distance: p.remaining(), end_phase: true }),
        );
        if !batch.is_empty() {
            return;
        }

        // All idle: pick the next round's participants.
        for robot in 0..n {
            let forced = self.skipped[robot] >= self.starvation_bound;
            if forced || self.rng.gen_bool(self.p_active) {
                self.skipped[robot] = 0;
                batch.push(Action::Look { robot });
            } else {
                self.skipped[robot] += 1;
            }
        }
        if batch.is_empty() {
            // A round activates at least one robot.
            let robot = self.rng.gen_range(0..n);
            self.skipped[robot] = 0;
            batch.push(Action::Look { robot });
        }
    }

    fn name(&self) -> &'static str {
        "ssync"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::next_batch;

    #[test]
    fn pending_moves_complete_before_next_round() {
        let mut s = SsyncScheduler::new(7, 0.5);
        let phases = vec![PhaseView::Pending { length: 1.0, traveled: 0.2 }, PhaseView::Idle];
        let acts = next_batch(&mut s, &phases);
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], Action::Move { robot: 0, end_phase: true, .. }));
    }

    #[test]
    fn rounds_are_nonempty() {
        let mut s = SsyncScheduler::new(3, 0.01);
        let idle = vec![PhaseView::Idle; 5];
        for _ in 0..100 {
            assert!(!next_batch(&mut s, &idle).is_empty());
        }
    }

    #[test]
    fn no_starvation() {
        let mut s = SsyncScheduler::new(11, 0.2);
        let idle = vec![PhaseView::Idle; 8];
        let mut seen = vec![0u32; 8];
        for _ in 0..2000 {
            for a in next_batch(&mut s, &idle) {
                seen[a.robot()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "all robots must be activated: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "p_active")]
    fn invalid_probability_panics() {
        SsyncScheduler::new(0, 0.0);
    }
}
