//! Fully asynchronous (ASYNC) adversarial scheduler.

use crate::{Action, PhaseView, Scheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs of the ASYNC adversary.
#[derive(Debug, Clone, Copy)]
pub struct AsyncConfig {
    /// Probability that a robot with a pending path *pauses* this step
    /// (stays mid-move, observable by others) instead of progressing.
    pub pause_prob: f64,
    /// Probability that a Move slice ends the phase (given the progress rule
    /// is satisfiable); lower values produce longer, more fragmented moves.
    pub stop_prob: f64,
    /// Largest fraction of the remaining path traveled per slice.
    pub max_slice_fraction: f64,
    /// Number of robots considered per step.
    pub batch_size: usize,
    /// Forced activation after this many consecutive idle steps (fairness).
    pub starvation_bound: u32,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            pause_prob: 0.25,
            stop_prob: 0.4,
            max_slice_fraction: 0.6,
            batch_size: 2,
            starvation_bound: 256,
        }
    }
}

/// The full ASYNC adversary: arbitrary interleavings of Look and Move
/// events, partial moves, and pauses.
///
/// Each step it samples a batch of robots; idle robots Look, pending robots
/// either pause (with [`AsyncConfig::pause_prob`]) or travel a random slice
/// of their remaining path, ending the phase with
/// [`AsyncConfig::stop_prob`]. An aging counter forces activation of any
/// robot ignored for [`AsyncConfig::starvation_bound`] steps, making every
/// schedule fair by construction.
#[derive(Debug, Clone)]
pub struct AsyncScheduler {
    rng: StdRng,
    config: AsyncConfig,
    idle_steps: Vec<u32>,
}

impl AsyncScheduler {
    /// Creates an ASYNC scheduler with default adversary knobs.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, AsyncConfig::default())
    }

    /// Creates an ASYNC scheduler with explicit adversary knobs.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are outside `[0, 1]`, the slice fraction is
    /// not in `(0, 1]`, or `batch_size` is zero.
    pub fn with_config(seed: u64, config: AsyncConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.pause_prob), "pause_prob out of range");
        assert!((0.0..=1.0).contains(&config.stop_prob), "stop_prob out of range");
        assert!(
            config.max_slice_fraction > 0.0 && config.max_slice_fraction <= 1.0,
            "max_slice_fraction must be in (0, 1]"
        );
        assert!(config.batch_size > 0, "batch_size must be positive");
        AsyncScheduler { rng: StdRng::seed_from_u64(seed), config, idle_steps: Vec::new() }
    }

    fn act_on(&mut self, robot: usize, phase: PhaseView) -> Option<Action> {
        match phase {
            PhaseView::Idle => Some(Action::Look { robot }),
            PhaseView::Pending { .. } => {
                if self.rng.gen_bool(self.config.pause_prob) {
                    return None; // pause: observable mid-move
                }
                let remaining = phase.remaining();
                let frac = self.rng.gen_range(0.0..=self.config.max_slice_fraction);
                let distance = remaining * frac;
                let end_phase = self.rng.gen_bool(self.config.stop_prob);
                Some(Action::Move { robot, distance, end_phase })
            }
        }
    }
}

impl Scheduler for AsyncScheduler {
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
        let n = phases.len();
        self.idle_steps.resize(n, 0);
        for c in self.idle_steps.iter_mut() {
            *c += 1;
        }

        // Forced activations first (fairness).
        for (robot, phase) in phases.iter().enumerate() {
            if self.idle_steps[robot] >= self.config.starvation_bound {
                self.idle_steps[robot] = 0;
                // A starved pending robot must make progress, not pause.
                let act = match *phase {
                    PhaseView::Idle => Action::Look { robot },
                    p @ PhaseView::Pending { .. } => {
                        Action::Move { robot, distance: p.remaining(), end_phase: true }
                    }
                };
                batch.push(act);
            }
        }

        for _ in 0..self.config.batch_size {
            let robot = self.rng.gen_range(0..n);
            if batch.iter().any(|a| a.robot() == robot) {
                continue;
            }
            if let Some(act) = self.act_on(robot, phases[robot]) {
                self.idle_steps[robot] = 0;
                batch.push(act);
            }
        }

        if batch.is_empty() {
            // Never return an empty step: pick one robot and force progress.
            let robot = self.rng.gen_range(0..n);
            self.idle_steps[robot] = 0;
            batch.push(match phases[robot] {
                PhaseView::Idle => Action::Look { robot },
                p @ PhaseView::Pending { .. } => {
                    Action::Move { robot, distance: p.remaining() * 0.5, end_phase: false }
                }
            });
        }
    }

    fn name(&self) -> &'static str {
        "async"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::next_batch;

    #[test]
    fn deterministic_given_seed() {
        let phases = vec![PhaseView::Idle; 6];
        let mut a = AsyncScheduler::new(42);
        let mut b = AsyncScheduler::new(42);
        for _ in 0..50 {
            assert_eq!(next_batch(&mut a, &phases), next_batch(&mut b, &phases));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let phases = vec![PhaseView::Idle; 6];
        let mut a = AsyncScheduler::new(1);
        let mut b = AsyncScheduler::new(2);
        let seq_a: Vec<_> = (0..20).flat_map(|_| next_batch(&mut a, &phases)).collect();
        let seq_b: Vec<_> = (0..20).flat_map(|_| next_batch(&mut b, &phases)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn steps_are_never_empty() {
        let mut s = AsyncScheduler::with_config(
            9,
            AsyncConfig { pause_prob: 0.99, ..AsyncConfig::default() },
        );
        let phases = vec![PhaseView::Pending { length: 1.0, traveled: 0.0 }; 4];
        for _ in 0..200 {
            assert!(!next_batch(&mut s, &phases).is_empty());
        }
    }

    #[test]
    fn fairness_under_heavy_pausing() {
        let mut s = AsyncScheduler::with_config(
            5,
            AsyncConfig { pause_prob: 0.9, starvation_bound: 50, ..AsyncConfig::default() },
        );
        let phases = vec![PhaseView::Idle; 10];
        let mut seen = vec![0u32; 10];
        for _ in 0..5000 {
            for a in next_batch(&mut s, &phases) {
                seen[a.robot()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "fairness violated: {seen:?}");
    }

    #[test]
    fn moves_target_pending_robots_only() {
        let mut s = AsyncScheduler::new(3);
        let phases = vec![PhaseView::Idle, PhaseView::Pending { length: 2.0, traveled: 1.0 }];
        for _ in 0..200 {
            for a in next_batch(&mut s, &phases) {
                match a {
                    Action::Look { robot } => assert_eq!(robot, 0),
                    Action::Move { robot, .. } => assert_eq!(robot, 1),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_panics() {
        AsyncScheduler::with_config(0, AsyncConfig { batch_size: 0, ..AsyncConfig::default() });
    }
}
