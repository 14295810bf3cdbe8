//! Trace inspection: replay an event stream, validate it against the
//! engine's legality rules and the paper's randomness claim, and summarize
//! it per robot and per phase.

use crate::event::{PhaseKind, TraceEvent};

/// Aggregates for one [`PhaseKind`] across a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTally {
    /// LCM cycles whose Compute was tagged with this phase.
    pub cycles: u64,
    /// Random bits drawn during those cycles.
    pub bits: u64,
    /// Cycles that produced a pending move.
    pub moves: u64,
    /// Sum of computed path lengths.
    pub path_len: f64,
}

impl PhaseTally {
    /// Bits per cycle within this phase (0.0 when no cycles ran).
    pub fn bits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bits as f64 / self.cycles as f64
        }
    }
}

/// Aggregates for one robot across a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RobotTally {
    /// Look events (= LCM cycles observed for this robot).
    pub looks: u64,
    /// Compute decisions.
    pub decides: u64,
    /// Decisions that produced a pending move.
    pub moves: u64,
    /// Adversary move slices applied.
    pub slices: u64,
    /// Moves the adversary ended before the destination.
    pub interrupts: u64,
    /// Random bits drawn.
    pub bits: u64,
    /// Total distance traveled.
    pub distance: f64,
    /// Last tagged phase seen for this robot.
    pub last_phase: PhaseKind,
}

/// What the inspector knows about a robot's position in the LCM cycle.
/// `Unknown` is the entry state for windowed traces (e.g. a
/// [`CrashDumpSink`] window that starts mid-run) — no legality checks fire
/// until the robot's first Look re-synchronizes it.
///
/// [`CrashDumpSink`]: crate::sink::CrashDumpSink
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobotState {
    Unknown,
    Idle,
    Computing,
    Moving,
}

/// A replayed, validated view of a trace event stream.
///
/// Built by streaming events through [`TraceSummary::from_events`] (or the
/// line-oriented [`TraceSummary::from_lines`]): the inspector simulates each
/// robot's Look→Compute→Move legality, attributes every random bit to the
/// cycle (and therefore phase) that drew it, and cross-checks the stream's
/// own `trial_end` totals. Violations are collected, not panicked on — a
/// trace is evidence, and broken evidence is the interesting kind.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Robot count from `trial_start` (or max robot index + 1 if windowed).
    pub robots: u32,
    /// World seed, when the stream includes `trial_start`.
    pub seed: Option<u64>,
    /// Events replayed.
    pub events: u64,
    /// Highest engine step seen.
    pub last_step: u64,
    /// Whether the stream included `trial_start` (false for windowed
    /// captures; legality checks are relaxed accordingly).
    pub has_start: bool,
    /// Whether the stream included `trial_end`.
    pub complete: bool,
    /// Outcome from `trial_end`.
    pub formed: Option<bool>,
    /// Step at which `formed` was first emitted.
    pub formed_step: Option<u64>,
    /// Total Look events (= LCM cycles).
    pub cycles: u64,
    /// Total random bits drawn.
    pub bits: u64,
    /// Total distance traveled (sum of move-slice advances).
    pub distance: f64,
    /// Total adversary interruptions.
    pub interrupts: u64,
    /// Most bits drawn in any single election cycle (the paper claims ≤ 1).
    pub max_election_bits: u64,
    /// Per-phase aggregates, indexed by [`PhaseKind::index`].
    pub per_phase: [PhaseTally; PhaseKind::COUNT],
    /// Per-robot aggregates.
    pub per_robot: Vec<RobotTally>,
    /// Legality/consistency violations, in discovery order (capped).
    pub violations: Vec<String>,
    /// Violations beyond the cap.
    pub violations_dropped: u64,
}

const MAX_VIOLATIONS: usize = 32;

impl TraceSummary {
    /// Replays a stream of events.
    pub fn from_events<'a, I>(events: I) -> TraceSummary
    where
        I: IntoIterator<Item = &'a TraceEvent>,
    {
        let mut r = Replayer::default();
        for e in events {
            r.feed(e);
        }
        r.finish()
    }

    /// Replays JSONL lines, returning the line number (1-based) and error
    /// for the first malformed line. Blank lines are skipped.
    pub fn from_lines<'a, I>(lines: I) -> Result<TraceSummary, (usize, crate::jsonl::ParseError)>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut r = Replayer::default();
        for (i, line) in lines.into_iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = crate::jsonl::parse_line(line).map_err(|e| (i + 1, e))?;
            r.feed(&event);
        }
        Ok(r.finish())
    }

    /// Whether the replay found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.violations_dropped == 0
    }

    /// Bits per cycle over the whole trace (0.0 when no cycles ran).
    pub fn bits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bits as f64 / self.cycles as f64
        }
    }

    /// Renders a human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "trace summary");
        let _ = writeln!(
            out,
            "  robots {:>5}   seed {}   events {}   steps {}",
            self.robots,
            self.seed.map_or_else(|| "-".to_string(), |s| s.to_string()),
            self.events,
            self.last_step,
        );
        let outcome = match (self.complete, self.formed) {
            (true, Some(true)) => "formed".to_string(),
            (true, _) => "not formed".to_string(),
            (false, _) => "incomplete (no trial_end)".to_string(),
        };
        let formed_at = self.formed_step.map_or_else(String::new, |s| format!(" at step {s}"));
        let _ = writeln!(out, "  outcome: {outcome}{formed_at}");
        let _ = writeln!(
            out,
            "  cycles {}   bits {}   bits/cycle {:.4}   distance {:.3}   interrupts {}",
            self.cycles,
            self.bits,
            self.bits_per_cycle(),
            self.distance,
            self.interrupts,
        );
        let elections = self.per_phase[PhaseKind::RsbElection.index()].cycles;
        if elections > 0 {
            let verdict = if self.max_election_bits <= 1 { "ok" } else { "VIOLATED" };
            let _ = writeln!(
                out,
                "  election cycles {}   max bits in one election cycle {}   (paper claim <= 1: {})",
                elections, self.max_election_bits, verdict,
            );
        }
        let _ = writeln!(out, "  per-phase:");
        let _ = writeln!(
            out,
            "    {:<14} {:>9} {:>10} {:>9} {:>10} {:>11}",
            "phase", "cycles", "bits", "moves", "bits/cyc", "path-len"
        );
        for kind in PhaseKind::ALL {
            let t = self.per_phase[kind.index()];
            if t.cycles == 0 && t.bits == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "    {:<14} {:>9} {:>10} {:>9} {:>10.4} {:>11.3}",
                kind.label(),
                t.cycles,
                t.bits,
                t.moves,
                t.bits_per_cycle(),
                t.path_len,
            );
        }
        let _ = writeln!(out, "  per-robot:");
        let _ = writeln!(
            out,
            "    {:<6} {:>7} {:>7} {:>7} {:>7} {:>6} {:>9} {:>13}",
            "robot", "looks", "moves", "slices", "intr", "bits", "dist", "last-phase"
        );
        for (i, t) in self.per_robot.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {:<6} {:>7} {:>7} {:>7} {:>7} {:>6} {:>9.3} {:>13}",
                i, t.looks, t.moves, t.slices, t.interrupts, t.bits, t.distance, t.last_phase,
            );
        }
        if self.is_clean() {
            let _ = writeln!(out, "  violations: none");
        } else {
            let total = self.violations.len() as u64 + self.violations_dropped;
            let _ = writeln!(out, "  violations: {total}");
            for v in &self.violations {
                let _ = writeln!(out, "    - {v}");
            }
            if self.violations_dropped > 0 {
                let _ = writeln!(out, "    - ... and {} more", self.violations_dropped);
            }
        }
        out
    }
}

/// One-line human description of an event, for `--replay` output.
pub fn describe(event: &TraceEvent) -> String {
    match *event {
        TraceEvent::TrialStart { robots, seed } => {
            format!("trial start: {robots} robots, seed {seed}")
        }
        TraceEvent::StepBegin { step, looks, moves } => {
            format!("[{step:>6}] step begin ({looks} looks, {moves} moves)")
        }
        TraceEvent::Look { step, robot } => format!("[{step:>6}] r{robot} look"),
        TraceEvent::CoinFlip { step, robot, heads } => {
            format!("[{step:>6}] r{robot} coin -> {}", if heads { "heads" } else { "tails" })
        }
        TraceEvent::RandomWord { step, robot, bits } => {
            format!("[{step:>6}] r{robot} drew {bits}-bit word")
        }
        TraceEvent::Decide { step, robot, phase, moved, path_len } => {
            if moved {
                format!("[{step:>6}] r{robot} decide [{phase}] move len {path_len:.4}")
            } else {
                format!("[{step:>6}] r{robot} decide [{phase}] stay")
            }
        }
        TraceEvent::PhaseChange { step, robot, from, to } => {
            format!("[{step:>6}] r{robot} phase {from} -> {to}")
        }
        TraceEvent::MoveSlice { step, robot, advanced, traveled, length, end_phase, arrived } => {
            let tail = if arrived {
                " (arrived)"
            } else if end_phase {
                " (phase ended)"
            } else {
                ""
            };
            format!("[{step:>6}] r{robot} move +{advanced:.4} ({traveled:.4}/{length:.4}){tail}")
        }
        TraceEvent::Interrupt { step, robot, traveled, length } => {
            format!("[{step:>6}] r{robot} INTERRUPTED at {traveled:.4}/{length:.4}")
        }
        TraceEvent::Formed { step } => format!("[{step:>6}] pattern formed"),
        TraceEvent::TrialEnd { step, formed, cycles, bits } => format!(
            "trial end at step {step}: {} ({cycles} cycles, {bits} bits)",
            if formed { "formed" } else { "not formed" }
        ),
    }
}

/// Streaming replay state.
#[derive(Debug, Default)]
struct Replayer {
    summary: TraceSummary,
    states: Vec<RobotState>,
    /// Bits drawn in each robot's current (open) Compute.
    open_bits: Vec<u64>,
    ended: bool,
}

impl Replayer {
    fn violate(&mut self, msg: String) {
        if self.summary.violations.len() < MAX_VIOLATIONS {
            self.summary.violations.push(msg);
        } else {
            self.summary.violations_dropped += 1;
        }
    }

    fn robot(&mut self, robot: u32) -> usize {
        let idx = robot as usize;
        if idx >= self.states.len() {
            self.states.resize(idx + 1, RobotState::Unknown);
            self.open_bits.resize(idx + 1, 0);
            self.summary.per_robot.resize(idx + 1, RobotTally::default());
        }
        idx
    }

    fn feed(&mut self, event: &TraceEvent) {
        self.summary.events += 1;
        let step = event.step();
        if step > 0 {
            if step < self.summary.last_step {
                self.violate(format!(
                    "step went backwards: {} after {}",
                    step, self.summary.last_step
                ));
            }
            self.summary.last_step = self.summary.last_step.max(step);
        }
        if self.ended && !matches!(event, TraceEvent::TrialEnd { .. }) {
            self.violate(format!("event after trial_end at step {step}"));
        }
        if let Some(r) = event.robot() {
            if self.summary.has_start && r >= self.summary.robots {
                self.violate(format!("robot index {r} out of range (n = {})", self.summary.robots));
            }
        }
        match *event {
            TraceEvent::TrialStart { robots, seed } => {
                if self.summary.has_start || self.summary.events > 1 {
                    self.violate("trial_start not at stream head".to_string());
                }
                self.summary.has_start = true;
                self.summary.robots = robots;
                self.summary.seed = Some(seed);
                self.states = vec![RobotState::Idle; robots as usize];
                self.open_bits = vec![0; robots as usize];
                self.summary.per_robot = vec![RobotTally::default(); robots as usize];
            }
            TraceEvent::StepBegin { .. } => {}
            TraceEvent::Look { robot, step } => {
                let i = self.robot(robot);
                match self.states[i] {
                    RobotState::Idle | RobotState::Unknown => {}
                    s => self.violate(format!("r{robot} look while {s:?} at step {step}")),
                }
                self.states[i] = RobotState::Computing;
                self.open_bits[i] = 0;
                self.summary.cycles += 1;
                self.summary.per_robot[i].looks += 1;
            }
            TraceEvent::CoinFlip { robot, step, .. } => {
                self.draw(robot, step, 1);
            }
            TraceEvent::RandomWord { robot, step, bits } => {
                self.draw(robot, step, u64::from(bits));
            }
            TraceEvent::Decide { robot, step, phase, moved, path_len } => {
                let i = self.robot(robot);
                match self.states[i] {
                    RobotState::Computing | RobotState::Unknown => {}
                    s => self.violate(format!("r{robot} decide while {s:?} at step {step}")),
                }
                let drew = self.open_bits[i];
                self.open_bits[i] = 0;
                self.states[i] = if moved { RobotState::Moving } else { RobotState::Idle };
                let tally = &mut self.summary.per_phase[phase.index()];
                tally.cycles += 1;
                tally.bits += drew;
                tally.path_len += path_len;
                if moved {
                    tally.moves += 1;
                    self.summary.per_robot[i].moves += 1;
                }
                if phase == PhaseKind::RsbElection {
                    self.summary.max_election_bits = self.summary.max_election_bits.max(drew);
                }
                self.summary.per_robot[i].decides += 1;
                self.summary.per_robot[i].last_phase = phase;
            }
            TraceEvent::PhaseChange { .. } => {}
            TraceEvent::MoveSlice {
                robot,
                step,
                advanced,
                traveled,
                length,
                end_phase,
                arrived,
            } => {
                let i = self.robot(robot);
                match self.states[i] {
                    RobotState::Moving | RobotState::Unknown => {}
                    s => self.violate(format!("r{robot} move slice while {s:?} at step {step}")),
                }
                if traveled > length + 1e-9 {
                    self.violate(format!(
                        "r{robot} traveled {traveled} past path length {length} at step {step}"
                    ));
                }
                self.states[i] =
                    if end_phase || arrived { RobotState::Idle } else { RobotState::Moving };
                self.summary.distance += advanced;
                self.summary.per_robot[i].distance += advanced;
                self.summary.per_robot[i].slices += 1;
            }
            TraceEvent::Interrupt { robot, .. } => {
                let i = self.robot(robot);
                self.summary.interrupts += 1;
                self.summary.per_robot[i].interrupts += 1;
            }
            TraceEvent::Formed { step } => {
                if self.summary.formed_step.is_none() {
                    self.summary.formed_step = Some(step);
                }
            }
            TraceEvent::TrialEnd { step, formed, cycles, bits } => {
                if self.ended {
                    self.violate("duplicate trial_end".to_string());
                }
                self.ended = true;
                self.summary.complete = true;
                self.summary.formed = Some(formed);
                // Cross-check only full captures: a windowed trace
                // legitimately misses early events.
                if self.summary.has_start {
                    if cycles != self.summary.cycles {
                        self.violate(format!(
                            "trial_end cycles {} != replayed looks {}",
                            cycles, self.summary.cycles
                        ));
                    }
                    if bits != self.summary.bits {
                        self.violate(format!(
                            "trial_end bits {} != replayed bits {}",
                            bits, self.summary.bits
                        ));
                    }
                }
                let _ = step;
            }
        }
    }

    fn draw(&mut self, robot: u32, step: u64, bits: u64) {
        let i = self.robot(robot);
        match self.states[i] {
            RobotState::Computing | RobotState::Unknown => {}
            s => self.violate(format!("r{robot} drew randomness while {s:?} at step {step}")),
        }
        self.open_bits[i] += bits;
        self.summary.bits += bits;
        self.summary.per_robot[i].bits += bits;
    }

    fn finish(mut self) -> TraceSummary {
        if !self.summary.has_start {
            self.summary.robots = self.summary.per_robot.len() as u32;
        }
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::to_json_line;

    /// A minimal legal trace: 2 robots, one election cycle each, one move.
    fn legal_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TrialStart { robots: 2, seed: 42 },
            TraceEvent::StepBegin { step: 1, looks: 2, moves: 0 },
            TraceEvent::Look { step: 1, robot: 0 },
            TraceEvent::CoinFlip { step: 1, robot: 0, heads: true },
            TraceEvent::Decide {
                step: 1,
                robot: 0,
                phase: PhaseKind::RsbElection,
                moved: true,
                path_len: 0.5,
            },
            TraceEvent::Look { step: 1, robot: 1 },
            TraceEvent::Decide {
                step: 1,
                robot: 1,
                phase: PhaseKind::RsbElection,
                moved: false,
                path_len: 0.0,
            },
            TraceEvent::StepBegin { step: 2, looks: 0, moves: 1 },
            TraceEvent::MoveSlice {
                step: 2,
                robot: 0,
                advanced: 0.3,
                traveled: 0.3,
                length: 0.5,
                end_phase: false,
                arrived: false,
            },
            TraceEvent::StepBegin { step: 3, looks: 0, moves: 1 },
            TraceEvent::MoveSlice {
                step: 3,
                robot: 0,
                advanced: 0.2,
                traveled: 0.5,
                length: 0.5,
                end_phase: true,
                arrived: true,
            },
            TraceEvent::Formed { step: 3 },
            TraceEvent::TrialEnd { step: 3, formed: true, cycles: 2, bits: 1 },
        ]
    }

    #[test]
    fn legal_trace_is_clean_and_tallied() {
        let s = TraceSummary::from_events(&legal_trace());
        assert!(s.is_clean(), "violations: {:?}", s.violations);
        assert!(s.complete && s.has_start);
        assert_eq!(s.robots, 2);
        assert_eq!(s.cycles, 2);
        assert_eq!(s.bits, 1);
        assert_eq!(s.formed, Some(true));
        assert_eq!(s.formed_step, Some(3));
        assert_eq!(s.max_election_bits, 1);
        let e = s.per_phase[PhaseKind::RsbElection.index()];
        assert_eq!(e.cycles, 2);
        assert_eq!(e.bits, 1);
        assert_eq!(e.moves, 1);
        assert!((s.distance - 0.5).abs() < 1e-12);
        assert_eq!(s.per_robot[0].looks, 1);
        assert_eq!(s.per_robot[0].slices, 2);
        assert_eq!(s.per_robot[1].moves, 0);
        assert!((s.bits_per_cycle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_lines_round_trips_and_flags_bad_lines() {
        let lines: Vec<String> = legal_trace().iter().map(to_json_line).collect();
        let s = TraceSummary::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert!(s.is_clean());
        assert_eq!(s.events, legal_trace().len() as u64);

        let mut broken = lines.clone();
        broken[3] = "{\"ev\":\"coin\"".to_string();
        let err = TraceSummary::from_lines(broken.iter().map(String::as_str)).unwrap_err();
        assert_eq!(err.0, 4, "1-based line number of the bad line");
    }

    #[test]
    fn illegal_transitions_are_violations() {
        // A Look while a move is pending.
        let events = vec![
            TraceEvent::TrialStart { robots: 1, seed: 0 },
            TraceEvent::Look { step: 1, robot: 0 },
            TraceEvent::Decide {
                step: 1,
                robot: 0,
                phase: PhaseKind::DpfRotate,
                moved: true,
                path_len: 1.0,
            },
            TraceEvent::Look { step: 2, robot: 0 },
        ];
        let s = TraceSummary::from_events(&events);
        assert!(!s.is_clean());
        assert!(s.violations[0].contains("look while Moving"), "{:?}", s.violations);

        // A move slice for an idle robot.
        let events = vec![
            TraceEvent::TrialStart { robots: 1, seed: 0 },
            TraceEvent::MoveSlice {
                step: 1,
                robot: 0,
                advanced: 0.1,
                traveled: 0.1,
                length: 0.2,
                end_phase: false,
                arrived: false,
            },
        ];
        let s = TraceSummary::from_events(&events);
        assert!(!s.is_clean());
    }

    #[test]
    fn election_cycles_with_multiple_bits_are_flagged_via_max() {
        let events = vec![
            TraceEvent::TrialStart { robots: 1, seed: 0 },
            TraceEvent::Look { step: 1, robot: 0 },
            TraceEvent::CoinFlip { step: 1, robot: 0, heads: true },
            TraceEvent::CoinFlip { step: 1, robot: 0, heads: false },
            TraceEvent::Decide {
                step: 1,
                robot: 0,
                phase: PhaseKind::RsbElection,
                moved: false,
                path_len: 0.0,
            },
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.max_election_bits, 2, "two coins in one election cycle");
    }

    #[test]
    fn trial_end_mismatch_is_a_violation() {
        let events = vec![
            TraceEvent::TrialStart { robots: 1, seed: 0 },
            TraceEvent::Look { step: 1, robot: 0 },
            TraceEvent::Decide {
                step: 1,
                robot: 0,
                phase: PhaseKind::Terminal,
                moved: false,
                path_len: 0.0,
            },
            TraceEvent::TrialEnd { step: 1, formed: true, cycles: 5, bits: 9 },
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.violations.len(), 2, "{:?}", s.violations);
    }

    #[test]
    fn windowed_traces_relax_checks() {
        // Starts mid-run: no trial_start, first event is a move slice.
        let events = vec![
            TraceEvent::MoveSlice {
                step: 40,
                robot: 3,
                advanced: 0.1,
                traveled: 0.4,
                length: 0.9,
                end_phase: false,
                arrived: false,
            },
            TraceEvent::Look { step: 41, robot: 2 },
            TraceEvent::Decide {
                step: 41,
                robot: 2,
                phase: PhaseKind::DpfPopulate,
                moved: false,
                path_len: 0.0,
            },
        ];
        let s = TraceSummary::from_events(&events);
        assert!(s.is_clean(), "{:?}", s.violations);
        assert!(!s.has_start && !s.complete);
        assert_eq!(s.robots, 4, "inferred from max robot index");
    }

    #[test]
    fn backwards_steps_are_violations() {
        let events = vec![
            TraceEvent::TrialStart { robots: 1, seed: 0 },
            TraceEvent::StepBegin { step: 5, looks: 0, moves: 0 },
            TraceEvent::StepBegin { step: 4, looks: 0, moves: 0 },
        ];
        let s = TraceSummary::from_events(&events);
        assert!(!s.is_clean());
        assert!(s.violations[0].contains("backwards"));
    }

    #[test]
    fn render_mentions_the_paper_claim() {
        let s = TraceSummary::from_events(&legal_trace());
        let text = s.render();
        assert!(text.contains("paper claim <= 1: ok"), "{text}");
        assert!(text.contains("rsb-election"));
        assert!(text.contains("violations: none"));
    }
}
