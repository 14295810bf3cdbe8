//! The adversarial schedule fuzzer.
//!
//! The ASYNC model quantifies over *all* fair schedules, but the stock
//! [`apf_scheduler::AsyncScheduler`] samples only a mild neighborhood of
//! them. This module generates deliberately pathological schedules —
//! mid-move pauses, stale-snapshot Computes, starvation-skewed activation,
//! dense pending-move interleavings — runs the paper's algorithm under
//! them, and checks execution-level properties on the resulting trace:
//!
//! * stream legality (Look/Move state machine, monotonic steps) via
//!   [`apf_trace::TraceSummary`];
//! * the paper's ≤ 1 random bit per election cycle claim;
//! * phase legality: [`apf_trace::PhaseKind::Terminal`] and
//!   [`apf_trace::PhaseKind::DpfIdle`] decisions never move,
//!   [`apf_trace::PhaseKind::Gather`] appears only with multiplicity
//!   detection;
//! * rigid-motion safety: slices never travel backwards or past the path,
//!   arrivals land at the destination, and interrupts respect the
//!   minimum-progress rule `δ`;
//! * no `compute-error`: the algorithm accepts every snapshot;
//! * eventual formation within a generous step budget (the schedule's
//!   adversarial prefix is bounded, after which activation stays fair).
//!
//! The shared fuzz driver records each schedule's adversarial prefix as an
//! action script; a violating schedule is shrunk (prefix truncation, then
//! chunked ddmin over script batches) to a minimal reproducer that still
//! triggers the same violation kind when replayed through
//! [`apf_scheduler::ScriptedScheduler`].

use crate::driver::{self, Counterexample, FuzzReport};
use apf_core::FormPattern;
use apf_geometry::Point;
use apf_scheduler::{Action, PhaseView, Scheduler};
use apf_sim::RobotAlgorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fuzzer knobs. Defaults are sized for CI smoke runs: seconds per
/// schedule, deterministic from the campaign seed.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Robot count per schedule.
    pub robots: usize,
    /// Length of the recorded adversarial prefix (engine steps).
    pub script_steps: u64,
    /// Total step budget per schedule (prefix + fair tail). Formation must
    /// happen within it.
    pub step_budget: u64,
    /// Whether the target pattern includes multiplicity points (and the
    /// world detects them).
    pub multiplicity: bool,
    /// Whether to flag budget exhaustion without formation as a violation.
    /// On by default; turn off for short exploratory runs.
    pub require_formation: bool,
    /// Construct the algorithm under test (defaults to the paper's).
    pub algorithm: fn() -> Box<dyn RobotAlgorithm>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            // The paper's algorithm requires n >= 7 (Theorem 2).
            robots: 7,
            script_steps: 400,
            step_budget: 400_000,
            multiplicity: false,
            require_formation: true,
            algorithm: || Box::new(FormPattern::new()),
        }
    }
}

/// Per-schedule adversary shape, drawn from the schedule's seed. Each
/// schedule gets its own point in this space so a campaign covers many
/// qualitatively different adversaries.
#[derive(Debug, Clone, Copy)]
struct ScheduleParams {
    /// Probability an idle robot in the batch Looks (lower = more stale
    /// snapshots lying around).
    look_prob: f64,
    /// Probability a Move slice ends the phase.
    end_prob: f64,
    /// Upper bound of the per-slice fraction of the remaining path (small
    /// = many mid-move pauses).
    max_slice_fraction: f64,
    /// Max robots activated per step (high = dense interleavings).
    batch_max: usize,
    /// The starved robot.
    victim: usize,
    /// The victim is activated at most once per this many steps (bounded,
    /// so schedules stay fair).
    victim_period: u64,
}

impl ScheduleParams {
    fn draw(rng: &mut StdRng, robots: usize) -> Self {
        ScheduleParams {
            look_prob: rng.gen_range(0.25..1.0),
            end_prob: rng.gen_range(0.05..0.9),
            max_slice_fraction: rng.gen_range(0.05..1.0),
            batch_max: rng.gen_range(1..=robots.max(2)),
            victim: rng.gen_range(0..robots),
            victim_period: rng.gen_range(2..40u64),
        }
    }
}

/// Generates a pathological schedule step by step. After `script_steps`
/// the generator keeps the same behavior but stops starving the victim, so
/// the tail is an ordinary fair ASYNC schedule and the formation check is
/// meaningful.
struct FuzzScheduler {
    rng: StdRng,
    params: ScheduleParams,
    steps: u64,
    script_steps: u64,
    last_victim_step: u64,
    rotor: usize,
}

impl FuzzScheduler {
    /// Schedule `seed`'s adversary, its shape drawn from the seed.
    fn new(cfg: &FuzzConfig, seed: u64) -> Self {
        let params = ScheduleParams::draw(&mut StdRng::seed_from_u64(seed ^ 0xFA22), cfg.robots);
        FuzzScheduler {
            rng: StdRng::seed_from_u64(seed ^ 0x5C4E),
            params,
            steps: 0,
            script_steps: cfg.script_steps,
            last_victim_step: 0,
            rotor: 0,
        }
    }

    fn action_for(&mut self, robot: usize, phase: PhaseView) -> Option<Action> {
        match phase {
            PhaseView::Idle => {
                // Skipping a Look leaves the robot idle while others act —
                // when it finally Looks, its snapshot is maximally stale.
                self.rng.gen_bool(self.params.look_prob).then_some(Action::Look { robot })
            }
            p @ PhaseView::Pending { .. } => {
                let frac = self.rng.gen_range(0.0..self.params.max_slice_fraction);
                Some(Action::Move {
                    robot,
                    distance: p.remaining() * frac,
                    end_phase: self.rng.gen_bool(self.params.end_prob),
                })
            }
        }
    }
}

impl Scheduler for FuzzScheduler {
    fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
        self.steps += 1;
        let n = phases.len();
        let starving = self.steps <= self.script_steps;
        let victim_due = self.steps - self.last_victim_step >= self.params.victim_period;
        let batch_size = self.rng.gen_range(1..=self.params.batch_max.min(n));
        let start = self.rng.gen_range(0..n);
        for i in 0..n {
            if batch.len() >= batch_size {
                break;
            }
            let robot = (start + i) % n;
            if starving && robot == self.params.victim && !victim_due {
                continue;
            }
            if let Some(action) = self.action_for(robot, phases[robot]) {
                if robot == self.params.victim {
                    self.last_victim_step = self.steps;
                }
                batch.push(action);
            }
        }
        if batch.is_empty() {
            // Deterministic legal fallback (rotor for fairness) — the
            // engine requires a non-empty batch.
            let robot = self.rotor % n;
            self.rotor += 1;
            batch.push(match phases[robot] {
                PhaseView::Idle => Action::Look { robot },
                p @ PhaseView::Pending { .. } => {
                    Action::Move { robot, distance: p.remaining(), end_phase: true }
                }
            });
        }
    }

    fn name(&self) -> &'static str {
        "fuzz-adversary"
    }
}

/// The world instance a schedule runs on. Derived deterministically from
/// the schedule seed; instances are kept asymmetric (the validated setting
/// of the paper's Theorem 1 extension the simulator targets end-to-end).
fn instance_for(cfg: &FuzzConfig, seed: u64) -> (Vec<Point>, Vec<Point>) {
    let initial = apf_patterns::asymmetric_configuration(cfg.robots, seed ^ 0x1157);
    let pattern = if cfg.multiplicity {
        apf_patterns::pattern_with_multiplicity(cfg.robots, cfg.robots - 2, seed ^ 0x7E11)
    } else {
        apf_patterns::random_pattern(cfg.robots, seed ^ 0x7E11)
    };
    (initial, pattern)
}

/// Replays `script` on schedule `seed`'s world and reports whether a
/// violation of `kind` still occurs.
pub fn replay_violates(cfg: &FuzzConfig, seed: u64, script: &[Vec<Action>], kind: &str) -> bool {
    let (positions, pattern) = instance_for(cfg, seed);
    driver::replays(cfg, &positions, &pattern, seed, script, kind)
}

/// Runs `schedules` fuzzed schedules with seeds derived from
/// `campaign_seed`, on `jobs` worker threads. The report is **identical
/// for any `jobs` value**: every schedule's behavior depends only on its
/// derived seed.
pub fn fuzz_campaign(
    cfg: &FuzzConfig,
    campaign_seed: u64,
    schedules: u64,
    jobs: usize,
) -> FuzzReport {
    driver::run_cases(campaign_seed, 0, schedules, jobs, |index, seed| {
        let (positions, pattern) = instance_for(cfg, seed);
        let adversary = Box::new(FuzzScheduler::new(cfg, seed));
        let (script, violations) = driver::run(cfg, &positions, &pattern, seed, adversary);
        if violations.is_empty() {
            return Vec::new();
        }
        let original_len = script.len();
        // Shrink only trace-level violations: `no-formation` is a property
        // of the (unrecorded) fair tail, not of the prefix script.
        let (script, shrink_steps) = match violations.iter().find(|v| v.kind != "no-formation") {
            Some(v) => driver::shrink(script, |s| replay_violates(cfg, seed, s, v.kind)),
            None => (script, 0),
        };
        vec![Counterexample {
            case_index: index,
            seed,
            family: None,
            scheduler: "fuzz-adversary",
            violations,
            original_robots: positions.len(),
            positions,
            script,
            original_len,
            shrink_steps,
        }]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Violation;

    fn quick_cfg() -> FuzzConfig {
        FuzzConfig { script_steps: 120, step_budget: 150_000, ..FuzzConfig::default() }
    }

    /// Schedule `seed` under its adversary: the recorded script and the
    /// violations.
    fn run_schedule(cfg: &FuzzConfig, seed: u64) -> (Vec<Vec<Action>>, Vec<Violation>) {
        let (positions, pattern) = instance_for(cfg, seed);
        driver::run(cfg, &positions, &pattern, seed, Box::new(FuzzScheduler::new(cfg, seed)))
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = quick_cfg();
        let (s1, v1) = run_schedule(&cfg, 7);
        let (s2, v2) = run_schedule(&cfg, 7);
        assert_eq!(s1, s2);
        assert_eq!(v1, v2);
        let (s3, _) = run_schedule(&cfg, 8);
        assert_ne!(s1, s3, "different seeds must explore different schedules");
    }

    #[test]
    fn starvation_is_bounded() {
        // The victim must still be activated at least once per period while
        // it has work: fairness is a hard modeling requirement, not a
        // statistical accident.
        let cfg = quick_cfg();
        let (script, _) = run_schedule(&cfg, 3);
        assert!(!script.is_empty());
        let activated: std::collections::HashSet<usize> =
            script.iter().flatten().map(Action::robot).collect();
        assert_eq!(activated.len(), cfg.robots, "all robots activated: {activated:?}");
    }
}
