//! A scheduler that replays a recorded action script.

use crate::{Action, PhaseView, Scheduler};

/// Replays a pre-recorded schedule (a list of action batches), filtering
/// out actions that are illegal in the world's *current* state.
///
/// The filter is what makes scripts **editable**: a schedule recorded from
/// a live run stays legal verbatim, but a shrinker that deletes batches (or
/// a human trimming a reproducer by hand) leaves dangling actions — a Move
/// for a robot whose Look was deleted, a Look for a robot still mid-move.
/// Instead of panicking the engine, those actions are silently dropped and
/// the remaining prefix keeps its meaning. This is exactly the replay
/// mechanism the conformance fuzzer's counterexample shrinking relies on.
///
/// When a batch filters to empty (or the script is exhausted) the scheduler
/// substitutes one legal fallback action, rotating through robots so the
/// fallback itself is fair: the engine's non-empty-step invariant holds for
/// any script.
#[derive(Debug, Clone)]
pub struct ScriptedScheduler {
    script: Vec<Vec<Action>>,
    cursor: usize,
    fallback_rotor: usize,
}

impl ScriptedScheduler {
    /// A scheduler replaying `script` batch by batch.
    pub fn new(script: Vec<Vec<Action>>) -> Self {
        ScriptedScheduler { script, cursor: 0, fallback_rotor: 0 }
    }

    /// Batches not yet replayed.
    pub fn remaining(&self) -> usize {
        self.script.len().saturating_sub(self.cursor)
    }

    /// Whether the script has been fully consumed.
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn legal(action: &Action, phases: &[PhaseView]) -> bool {
        let robot = action.robot();
        match phases.get(robot) {
            Some(p) => {
                if action.is_look() {
                    p.is_idle()
                } else {
                    !p.is_idle()
                }
            }
            None => false,
        }
    }

    /// One legal action for the current state, rotating the starting robot
    /// so repeated fallbacks activate everyone.
    fn fallback(&mut self, phases: &[PhaseView]) -> Action {
        let n = phases.len();
        assert!(n > 0, "cannot schedule an empty world");
        // Any robot has a legal action (Look if idle, Move otherwise), so a
        // plain rotor is enough for fairness.
        let robot = self.fallback_rotor % n;
        self.fallback_rotor = self.fallback_rotor.wrapping_add(1);
        match phases[robot] {
            PhaseView::Idle => Action::Look { robot },
            p @ PhaseView::Pending { .. } => {
                Action::Move { robot, distance: p.remaining(), end_phase: true }
            }
        }
    }

    /// The number of batches consumed so far (including filtered ones).
    pub fn consumed(&self) -> usize {
        self.cursor
    }
}

impl Scheduler for ScriptedScheduler {
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
        while self.cursor < self.script.len() {
            let scripted = &self.script[self.cursor];
            self.cursor += 1;
            for action in scripted {
                // Keep the first action per robot; a deleted Look can
                // otherwise leave two Moves racing for the same robot.
                if Self::legal(action, phases) && !batch.iter().any(|a| a.robot() == action.robot())
                {
                    batch.push(*action);
                }
            }
            if !batch.is_empty() {
                return;
            }
            // The whole batch was illegal after edits: fall through to the
            // next scripted batch rather than inventing actions mid-script.
        }
        batch.push(self.fallback(phases));
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::next_batch;

    fn idle(n: usize) -> Vec<PhaseView> {
        vec![PhaseView::Idle; n]
    }

    #[test]
    fn replays_legal_batches_verbatim() {
        let script = vec![
            vec![Action::Look { robot: 0 }, Action::Look { robot: 1 }],
            vec![Action::Look { robot: 2 }],
        ];
        let mut s = ScriptedScheduler::new(script.clone());
        assert_eq!(next_batch(&mut s, &idle(3)), script[0]);
        assert_eq!(next_batch(&mut s, &idle(3)), script[1]);
        assert!(s.exhausted());
    }

    #[test]
    fn filters_illegal_actions_after_edits() {
        // A Move for an idle robot (its Look was "deleted") is dropped;
        // the legal Look in the same batch survives.
        let script = vec![vec![
            Action::Move { robot: 0, distance: 1.0, end_phase: true },
            Action::Look { robot: 1 },
        ]];
        let mut s = ScriptedScheduler::new(script);
        assert_eq!(next_batch(&mut s, &idle(2)), vec![Action::Look { robot: 1 }]);
    }

    #[test]
    fn duplicate_robot_actions_keep_only_the_first() {
        let phases = vec![PhaseView::Pending { length: 2.0, traveled: 0.0 }];
        let script = vec![vec![
            Action::Move { robot: 0, distance: 0.5, end_phase: false },
            Action::Move { robot: 0, distance: 1.5, end_phase: true },
        ]];
        let mut s = ScriptedScheduler::new(script);
        assert_eq!(
            next_batch(&mut s, &phases),
            vec![Action::Move { robot: 0, distance: 0.5, end_phase: false }]
        );
    }

    #[test]
    fn empty_batches_skip_to_the_next_scripted_batch() {
        let script = vec![
            vec![Action::Move { robot: 0, distance: 1.0, end_phase: true }], // illegal
            vec![Action::Look { robot: 1 }],                                 // legal
        ];
        let mut s = ScriptedScheduler::new(script);
        assert_eq!(next_batch(&mut s, &idle(2)), vec![Action::Look { robot: 1 }]);
        assert_eq!(s.consumed(), 2, "the illegal batch was consumed, not stalled on");
    }

    #[test]
    fn exhausted_script_falls_back_fairly_and_never_empties() {
        let mut s = ScriptedScheduler::new(Vec::new());
        let mut seen = [false; 3];
        for _ in 0..9 {
            let batch = next_batch(&mut s, &idle(3));
            assert_eq!(batch.len(), 1);
            seen[batch[0].robot()] = true;
        }
        assert!(seen.iter().all(|&b| b), "fallback must rotate robots: {seen:?}");
    }

    #[test]
    fn fallback_moves_pending_robots_to_completion() {
        let mut s = ScriptedScheduler::new(Vec::new());
        let phases = vec![PhaseView::Pending { length: 3.0, traveled: 1.0 }];
        match next_batch(&mut s, &phases)[0] {
            Action::Move { robot: 0, distance, end_phase: true } => {
                assert!((distance - 2.0).abs() < 1e-12);
            }
            other => panic!("expected a finishing move, got {other:?}"),
        }
    }
}
