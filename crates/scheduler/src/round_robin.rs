//! Deterministic round-robin ASYNC scheduler (for reproducible tests).

use crate::{Action, PhaseView, Scheduler};

/// Activates robots one at a time in index order; each activation either
/// Looks (idle robot) or advances the pending path by a fixed number of
/// slices before ending the phase.
///
/// This is an ASYNC schedule (Look and Move of different robots interleave),
/// but a fully deterministic one — useful for unit tests that need exact
/// repeatability without seeding.
#[derive(Debug, Clone)]
pub struct RoundRobinScheduler {
    cursor: usize,
    slices: u32,
    progress: u32,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler that splits each Move phase into
    /// `slices` equal slices.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is zero.
    pub fn new(slices: u32) -> Self {
        assert!(slices > 0, "slices must be positive");
        RoundRobinScheduler { cursor: 0, slices, progress: 0 }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
        let n = phases.len();
        let robot = self.cursor % n;
        batch.push(match phases[robot] {
            PhaseView::Idle => {
                self.cursor += 1;
                self.progress = 0;
                Action::Look { robot }
            }
            p @ PhaseView::Pending { .. } => {
                self.progress += 1;
                let end_phase = self.progress >= self.slices;
                let distance = if end_phase {
                    p.remaining()
                } else {
                    p.remaining() / (self.slices - self.progress + 1) as f64
                };
                if end_phase {
                    self.cursor += 1;
                    self.progress = 0;
                }
                Action::Move { robot, distance, end_phase }
            }
        });
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::next_batch;

    #[test]
    fn visits_all_robots_in_order() {
        let mut s = RoundRobinScheduler::new(1);
        let idle = vec![PhaseView::Idle; 3];
        for expect in [0usize, 1, 2, 0, 1] {
            let acts = next_batch(&mut s, &idle);
            assert_eq!(acts, vec![Action::Look { robot: expect }]);
        }
    }

    #[test]
    fn slices_split_the_move() {
        let mut s = RoundRobinScheduler::new(2);
        let idle = vec![PhaseView::Idle; 1];
        assert_eq!(next_batch(&mut s, &idle), vec![Action::Look { robot: 0 }]);
        let pending = vec![PhaseView::Pending { length: 2.0, traveled: 0.0 }];
        let first = next_batch(&mut s, &pending);
        match first[0] {
            Action::Move { distance, end_phase, .. } => {
                assert!(!end_phase);
                assert!((distance - 1.0).abs() < 1e-12);
            }
            _ => panic!("expected a move"),
        }
        let half = vec![PhaseView::Pending { length: 2.0, traveled: 1.0 }];
        let second = next_batch(&mut s, &half);
        match second[0] {
            Action::Move { distance, end_phase, .. } => {
                assert!(end_phase);
                assert!((distance - 1.0).abs() < 1e-12);
            }
            _ => panic!("expected a move"),
        }
    }

    #[test]
    #[should_panic(expected = "slices")]
    fn zero_slices_panics() {
        RoundRobinScheduler::new(0);
    }
}
