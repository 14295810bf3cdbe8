//! The simulation engine: global state, event application, invariants.

use crate::algorithm::{BitSource, ComputeError, CountingBits, Decision, NullBits, RobotAlgorithm};
use crate::metrics::Metrics;
use crate::snapshot::Snapshot;
use apf_geometry::{Configuration, Frame, Path, Point, SimilarityTarget, Tol};
use apf_scheduler::{Action, PhaseView, Scheduler};
use apf_trace::{PhaseKind, TraceEvent, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;

/// Model parameters of a simulation.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Minimum progress per Move phase: the adversary cannot end a phase
    /// before the robot traveled `delta`, unless it reached its destination.
    pub delta: f64,
    /// Geometric tolerance of the simulated sensors/actuators.
    pub tol: Tol,
    /// Whether snapshots expose multiplicities (Section 5 extension).
    pub multiplicity_detection: bool,
    /// Whether robots get random local frames (rotation, scale, handedness).
    /// Disable to give all robots the global frame (useful to demonstrate
    /// *baseline* algorithms that require chirality).
    pub randomize_frames: bool,
    /// Whether to record every configuration for later rendering.
    pub record_trace: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            delta: 1e-3,
            tol: Tol::default(),
            multiplicity_detection: false,
            randomize_frames: true,
            record_trace: false,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum StopReason {
    /// The target pattern is formed and all robots are idle.
    Formed,
    /// The step budget was exhausted first.
    StepBudget,
    /// The algorithm rejected a snapshot.
    AlgorithmError(ComputeError),
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether the pattern was formed (stationarily).
    pub formed: bool,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Accumulated metrics.
    pub metrics: Metrics,
    /// Final robot positions (global frame).
    pub final_positions: Vec<Point>,
}

#[derive(Debug, Clone)]
struct PendingMove {
    path: Path, // global frame
    traveled: f64,
    /// Phase that computed the path; move distance and interruptions are
    /// attributed to it.
    phase: PhaseKind,
}

/// A robot's bit source for one Compute. It notes whether the algorithm
/// made a draw call, which [`BitSource::bits_drawn`] cannot tell (`word(0)`
/// draws no bit), and emits one trace event per draw when a sink is
/// installed.
struct LookBits<'a> {
    inner: &'a mut CountingBits,
    sink: Option<&'a mut dyn TraceSink>,
    step: u64,
    robot: u32,
    drew: bool,
}

impl BitSource for LookBits<'_> {
    fn bit(&mut self) -> bool {
        self.drew = true;
        let heads = self.inner.bit();
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&TraceEvent::CoinFlip { step: self.step, robot: self.robot, heads });
        }
        heads
    }

    fn word(&mut self, n: u32) -> u64 {
        self.drew = true;
        let word = self.inner.word(n);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&TraceEvent::RandomWord { step: self.step, robot: self.robot, bits: n });
        }
        word
    }

    fn bits_drawn(&self) -> u64 {
        self.inner.bits_drawn()
    }
}

/// A robot's last Compute that returned `Ok` and made no draw call, with
/// the epoch of the positions it saw.
struct Reusable {
    epoch: u64,
    decision: Decision,
    phase: PhaseKind,
}

/// The global simulation state: robot positions, in-flight moves, frames,
/// randomness, and the adversary.
pub struct World {
    positions: Vec<Point>,
    frames: Vec<Frame>,
    pending: Vec<Option<PendingMove>>,
    algorithm: Box<dyn RobotAlgorithm>,
    pattern_global: Vec<Point>,
    pattern_local: Vec<Vec<Point>>,
    scheduler: Box<dyn Scheduler>,
    bits: Vec<CountingBits>,
    config: WorldConfig,
    metrics: Metrics,
    trace: Vec<Vec<Point>>,
    seed: u64,
    /// Last tagged phase per robot (drives `PhaseChange` events).
    robot_phase: Vec<PhaseKind>,
    /// Installed trace sink, if any. `None` is the fast path: no event is
    /// constructed at all.
    sink: Option<Box<dyn TraceSink>>,
    /// `F` prepared for the formation check, built on its first use: a
    /// world built only to be validated never pays for it.
    formation_target: OnceCell<SimilarityTarget>,
    /// Goes up whenever a Move changes the bits of some position, so two
    /// moments with equal epochs have bit-identical positions.
    epoch: u64,
    /// The epoch of the last formation check, if it found `P ≉ F`.
    unformed_at: Option<u64>,
    /// Per robot, its last coin-free decision. While the epoch is the one
    /// stamped on it, the robot's snapshot is what that Compute saw, bit
    /// for bit, and a Look is answered from here.
    reusable: Vec<Option<Reusable>>,
    /// The scheduler's view of every robot, refilled on each step.
    phases: Vec<PhaseView>,
    /// The step's batch, lent empty to the scheduler on each step.
    actions: Vec<Action>,
    /// The buffer of the next snapshot's robot positions.
    look_buffer: Vec<Point>,
}

impl World {
    /// Creates a simulation.
    ///
    /// `seed` drives the robots' random bits and (when
    /// [`WorldConfig::randomize_frames`] is set) the random local frames;
    /// the scheduler carries its own seed.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or `pattern` size differs from the robot
    /// count.
    pub fn new(
        initial: Vec<Point>,
        pattern: Vec<Point>,
        algorithm: Box<dyn RobotAlgorithm>,
        scheduler: Box<dyn Scheduler>,
        config: WorldConfig,
        seed: u64,
    ) -> Self {
        assert!(!initial.is_empty(), "a simulation needs at least one robot");
        assert_eq!(initial.len(), pattern.len(), "pattern must have exactly one point per robot");
        let n = initial.len();
        let mut frame_rng = StdRng::seed_from_u64(seed ^ 0xF0F0_F0F0_F0F0_F0F0);
        let frames: Vec<Frame> = (0..n)
            .map(|_| {
                if config.randomize_frames {
                    Frame::new(
                        Point::ORIGIN, // origin tracks the robot at Look time
                        frame_rng.gen_range(0.0..std::f64::consts::TAU),
                        frame_rng.gen_range(0.5..2.0),
                        frame_rng.gen(),
                    )
                } else {
                    Frame::identity()
                }
            })
            .collect();
        // Per-robot local copy of the pattern: an independent random
        // similarity image (rotation, scale, mirror, translation), exercising
        // the algorithm's similarity-invariance for real.
        let pattern_local: Vec<Vec<Point>> = (0..n)
            .map(|_| {
                if config.randomize_frames {
                    let rot = frame_rng.gen_range(0.0..std::f64::consts::TAU);
                    let scale = frame_rng.gen_range(0.5..2.0);
                    let mirror: bool = frame_rng.gen();
                    let dx = frame_rng.gen_range(-1.0..1.0);
                    let dy = frame_rng.gen_range(-1.0..1.0);
                    pattern
                        .iter()
                        .map(|&p| {
                            let mut v = p.to_vector();
                            if mirror {
                                v.y = -v.y;
                            }
                            (v.rotate(rot) * scale).to_point() + apf_geometry::Vector::new(dx, dy)
                        })
                        .collect()
                } else {
                    pattern.clone()
                }
            })
            .collect();
        let bits = (0..n).map(|i| CountingBits::new(seed.wrapping_add(i as u64 * 7919))).collect();
        let trace = if config.record_trace { vec![initial.clone()] } else { Vec::new() };
        World {
            positions: initial,
            frames,
            pending: vec![None; n],
            algorithm,
            pattern_global: pattern,
            pattern_local,
            scheduler,
            bits,
            config,
            metrics: Metrics::default(),
            trace,
            seed,
            robot_phase: vec![PhaseKind::Untagged; n],
            sink: None,
            formation_target: OnceCell::new(),
            epoch: 0,
            unformed_at: None,
            reusable: (0..n).map(|_| None).collect(),
            phases: Vec::new(),
            actions: Vec::new(),
            look_buffer: Vec::new(),
        }
    }

    /// Installs a trace sink. Sinks reporting [`TraceSink::enabled`]` ==
    /// false` are dropped on the spot — installing one is exactly
    /// equivalent to installing none, which is what makes the disabled
    /// path cost a single `Option` branch per event site.
    ///
    /// Emits [`TraceEvent::TrialStart`] into the sink immediately.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        if !sink.enabled() {
            self.sink = None;
            return;
        }
        let mut sink = sink;
        sink.record(&TraceEvent::TrialStart {
            robots: self.positions.len() as u32,
            seed: self.seed,
        });
        self.sink = Some(sink);
    }

    /// Whether an (enabled) sink is installed.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Flushes and removes the installed sink, returning it.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.sink.take();
        if let Some(s) = sink.as_deref_mut() {
            s.flush_sink();
        }
        sink
    }

    /// Current robot positions (global frame).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Current configuration.
    pub fn configuration(&self) -> Configuration {
        Configuration::new(self.positions.clone())
    }

    /// The target pattern in the global frame (canonical copy).
    pub fn pattern(&self) -> &[Point] {
        &self.pattern_global
    }

    /// Metrics accumulated so far. Random bits are attributed per cycle
    /// (and therefore per phase) as each Compute returns.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Recorded configurations (empty unless
    /// [`WorldConfig::record_trace`] was set).
    pub fn trace(&self) -> &[Vec<Point>] {
        &self.trace
    }

    /// Whether some robot is mid-cycle (pending path).
    pub fn any_pending(&self) -> bool {
        self.pending.iter().any(Option::is_some)
    }

    /// Whether the configuration is similar to the pattern and every robot
    /// is idle — the run's success condition. Equal to
    /// `!self.any_pending() && are_similar(self.positions(), self.pattern(), tol)`.
    pub fn is_formed(&self) -> bool {
        !self.any_pending()
            && self
                .formation_target
                .get_or_init(|| SimilarityTarget::new(&self.pattern_global, &self.config.tol))
                .match_set(&self.positions)
                .is_some()
    }

    /// [`Self::is_formed`], without the similarity test while the positions
    /// are those of the last test that failed: robots that Look and stay
    /// leave the answer as it was.
    fn formed_since_last_check(&mut self) -> bool {
        if self.unformed_at == Some(self.epoch) || self.any_pending() {
            return false;
        }
        let formed = self.is_formed();
        self.unformed_at = (!formed).then_some(self.epoch);
        formed
    }

    /// Probes whether any robot would move from the current configuration
    /// (deterministic, side-effect-free: randomness is stubbed with
    /// [`NullBits`]). Used by stationarity assertions in tests. Each robot
    /// it asks computes anew: the probe neither reads nor fills the slots
    /// from which a Look reuses a decision.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's [`ComputeError`].
    pub fn would_any_move(&mut self) -> Result<bool, ComputeError> {
        for r in 0..self.positions.len() {
            let snapshot = self.begin_look(r);
            let result = self.algorithm.compute(&snapshot, &mut NullBits);
            self.end_look(r, snapshot);
            match result?.0 {
                Decision::Stay => {}
                Decision::Move(path) => {
                    if path.length() > self.config.tol.eps {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Executes one engine step (one scheduler batch).
    ///
    /// # Errors
    ///
    /// Returns the algorithm's error if a Compute fails; the world is left
    /// consistent (the failing robot simply stays idle).
    pub fn step(&mut self) -> Result<(), ComputeError> {
        self.metrics.steps += 1;
        self.phases.clear();
        self.phases.extend(self.pending.iter().map(|p| match p {
            None => PhaseView::Idle,
            Some(pm) => PhaseView::Pending { length: pm.path.length(), traveled: pm.traveled },
        }));
        self.actions.clear();
        self.scheduler.next(&self.phases, &mut self.actions);
        if self.actions.is_empty() {
            self.invariant_failure("scheduler returned an empty step");
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            let looks = self.actions.iter().filter(|a| a.is_look()).count() as u32;
            sink.record(&TraceEvent::StepBegin {
                step: self.metrics.steps,
                looks,
                moves: self.actions.len() as u32 - looks,
            });
        }

        // Apply Looks first, then Moves (any serialization of a batch is a
        // legal ASYNC behavior; this one makes FSYNC rounds exact). Looks move
        // no robot, so every Look observes the step's initial configuration.
        // Actions are `Copy`, so each is read by index while `self` applies it.
        for i in 0..self.actions.len() {
            if let Action::Look { robot } = self.actions[i] {
                if self.pending[robot].is_some() {
                    self.invariant_failure(&format!(
                        "scheduler issued Look for a non-idle robot {robot}"
                    ));
                }
                self.apply_look(robot)?;
            }
        }
        for i in 0..self.actions.len() {
            if let Action::Move { robot, distance, end_phase } = self.actions[i] {
                if self.pending[robot].is_none() {
                    self.invariant_failure(&format!(
                        "scheduler issued Move for an idle robot {robot}"
                    ));
                }
                self.apply_move(robot, distance, end_phase);
            }
        }
        if self.config.record_trace {
            self.trace.push(self.positions.clone());
        }
        Ok(())
    }

    /// Runs until the pattern is formed or the step budget is exhausted.
    ///
    /// Checks [`Self::is_formed`] before every step, and once more after the
    /// last, but repeats no similarity test while no Move has changed a
    /// position since the last failed one.
    ///
    /// When a sink is installed, emits [`TraceEvent::Formed`] (on success)
    /// and a closing [`TraceEvent::TrialEnd`], then flushes the sink.
    pub fn run(&mut self, max_steps: u64) -> Outcome {
        for _ in 0..max_steps {
            if self.formed_since_last_check() {
                return self.finish(StopReason::Formed);
            }
            if let Err(e) = self.step() {
                return self.finish(StopReason::AlgorithmError(e));
            }
        }
        if self.formed_since_last_check() {
            self.finish(StopReason::Formed)
        } else {
            self.finish(StopReason::StepBudget)
        }
    }

    /// Reports an engine invariant violation: gives the installed sink one
    /// last chance to persist post-mortem evidence (see
    /// [`TraceSink::crash_dump`] — a `CrashDumpSink` writes its last-N
    /// event window to disk here), then panics with `msg`. The crash-dump
    /// hook runs *before* the unwind starts, so evidence survives even
    /// under `panic = "abort"`.
    #[cold]
    fn invariant_failure(&mut self, msg: &str) -> ! {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.crash_dump();
        }
        panic!("engine invariant violated: {msg}");
    }

    /// Injects an invariant violation, exercising the crash-dump path
    /// end-to-end. Test-only: real violations come from buggy schedulers,
    /// which conformance tests cannot construct through safe public APIs.
    #[doc(hidden)]
    pub fn debug_fail_invariant(&mut self, msg: &str) -> ! {
        self.invariant_failure(msg)
    }

    fn finish(&mut self, reason: StopReason) -> Outcome {
        let outcome = self.outcome(reason);
        if let Some(sink) = self.sink.as_deref_mut() {
            if outcome.formed {
                sink.record(&TraceEvent::Formed { step: outcome.metrics.steps });
            }
            sink.record(&TraceEvent::TrialEnd {
                step: outcome.metrics.steps,
                formed: outcome.formed,
                cycles: outcome.metrics.cycles(),
                bits: outcome.metrics.random_bits(),
            });
            sink.flush_sink();
        }
        outcome
    }

    fn outcome(&self, reason: StopReason) -> Outcome {
        Outcome {
            formed: matches!(reason, StopReason::Formed),
            reason,
            metrics: self.metrics(),
            final_positions: self.positions.clone(),
        }
    }

    /// The frame `robot` observes the current positions through.
    fn frame_of(&self, robot: usize) -> Frame {
        Frame { origin: self.positions[robot], ..self.frames[robot] }
    }

    /// What `robot` sees: the current positions and its copy of `F`, in its
    /// frame. The snapshot holds the world's buffers until
    /// [`Self::end_look`] returns them.
    fn begin_look(&mut self, robot: usize) -> Snapshot {
        let frame = self.frame_of(robot);
        let mut local = std::mem::take(&mut self.look_buffer);
        local.clear();
        local.extend(self.positions.iter().map(|&p| frame.to_local(p)));
        let pattern = std::mem::take(&mut self.pattern_local[robot]);
        Snapshot::new(local, pattern, self.config.multiplicity_detection, self.config.tol)
    }

    /// Takes back the buffers of `robot`'s snapshot.
    fn end_look(&mut self, robot: usize, snapshot: Snapshot) {
        (self.look_buffer, self.pattern_local[robot]) = snapshot.into_parts();
    }

    /// `robot`'s Look and Compute. A robot that Looks again before any
    /// position changed, and whose last Compute drew nothing, sees the same
    /// snapshot, bit for bit; an oblivious algorithm decides the same on
    /// it, so the decision is reused and no snapshot is built.
    fn apply_look(&mut self, robot: usize) -> Result<(), ComputeError> {
        let _look_span = apf_trace::span::enter_robot(apf_trace::SpanLabel::Look, robot as u32);
        let step = self.metrics.steps;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&TraceEvent::Look { step, robot: robot as u32 });
        }
        let (decision, phase, coin_free) = match self.reusable[robot].take() {
            Some(slot) if slot.epoch == self.epoch => (slot.decision, slot.phase, true),
            _ => self.compute(robot, step)?,
        };
        self.metrics.record_cycle(phase);
        let mut moved = false;
        let mut path_len = 0.0;
        if let Decision::Move(local_path) = &decision {
            let frame = self.frame_of(robot);
            debug_assert!(
                local_path.start().dist(Point::ORIGIN) < 1e-6,
                "computed paths must start at the robot (local origin)"
            );
            let global = frame.path_to_global(local_path);
            if global.length() > self.config.tol.eps {
                self.metrics.record_active(phase);
                moved = true;
                path_len = global.length();
                self.pending[robot] = Some(PendingMove { path: global, traveled: 0.0, phase });
            }
        }
        if coin_free {
            self.reusable[robot] = Some(Reusable { epoch: self.epoch, decision, phase });
        }
        let previous = self.robot_phase[robot];
        self.robot_phase[robot] = phase;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&TraceEvent::Decide { step, robot: robot as u32, phase, moved, path_len });
            if previous != phase {
                sink.record(&TraceEvent::PhaseChange {
                    step,
                    robot: robot as u32,
                    from: previous,
                    to: phase,
                });
            }
        }
        Ok(())
    }

    /// Runs `robot`'s Compute on a fresh snapshot and counts the bits it
    /// drew. Returns the decision, its phase and whether the Compute made
    /// no draw call.
    fn compute(
        &mut self,
        robot: usize,
        step: u64,
    ) -> Result<(Decision, PhaseKind, bool), ComputeError> {
        let snapshot = self.begin_look(robot);
        let bits_before = self.bits[robot].bits_drawn();
        let mut bits = LookBits {
            inner: &mut self.bits[robot],
            sink: self.sink.as_deref_mut().map(|sink| sink as &mut dyn TraceSink),
            step,
            robot: robot as u32,
            drew: false,
        };
        let result = {
            let _compute_span = apf_trace::span::enter(apf_trace::SpanLabel::Compute);
            self.algorithm.compute(&snapshot, &mut bits)
        };
        let coin_free = !bits.drew;
        self.end_look(robot, snapshot);
        let drawn = self.bits[robot].bits_drawn() - bits_before;
        match result {
            Ok((decision, phase)) => {
                self.metrics.record_bits(phase, drawn);
                Ok((decision, phase, coin_free))
            }
            Err(e) => {
                // The failing Compute still consumed a cycle and its bits.
                self.metrics.record_cycle(PhaseKind::Untagged);
                self.metrics.record_bits(PhaseKind::Untagged, drawn);
                Err(e)
            }
        }
    }

    fn apply_move(&mut self, robot: usize, distance: f64, end_phase: bool) {
        let _move_span = apf_trace::span::enter_robot(apf_trace::SpanLabel::Move, robot as u32);
        let step = self.metrics.steps;
        // apf-lint: allow(panic-policy) — step() rejects Move for robots without a pending path
        let pm = self.pending[robot].as_mut().expect("validated by step()");
        let length = pm.path.length();
        let mut target = (pm.traveled + distance.max(0.0)).min(length);
        if end_phase {
            // Minimum-progress rule: the phase cannot end before δ progress
            // unless the destination is reached.
            let floor = self.config.delta.min(length);
            if target < floor {
                target = floor;
            }
        }
        let advanced = target - pm.traveled;
        pm.traveled = target;
        let traveled = pm.traveled;
        let phase = pm.phase;
        let new_pos = pm.path.point_at(target);
        self.metrics.record_distance(phase, advanced);
        let arrived = target >= length - 1e-12;
        if end_phase && !arrived {
            self.metrics.record_interrupt(phase);
        }
        let old = self.positions[robot];
        if (old.x.to_bits(), old.y.to_bits()) != (new_pos.x.to_bits(), new_pos.y.to_bits()) {
            self.epoch += 1;
        }
        self.positions[robot] = new_pos;
        if end_phase || arrived {
            self.pending[robot] = None;
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&TraceEvent::MoveSlice {
                step,
                robot: robot as u32,
                advanced,
                traveled,
                length,
                end_phase,
                arrived,
            });
            if end_phase && !arrived {
                sink.record(&TraceEvent::Interrupt { step, robot: robot as u32, traveled, length });
            }
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("robots", &self.positions.len())
            .field("algorithm", &self.algorithm.name())
            .field("scheduler", &self.scheduler.name())
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_scheduler::{FsyncScheduler, RoundRobinScheduler, ScriptedScheduler};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Toy algorithm: walk toward the centroid of the observed points (stops
    /// when within tol). Frame-agnostic by construction.
    struct ToCentroid;

    impl RobotAlgorithm for ToCentroid {
        fn compute(
            &self,
            snapshot: &Snapshot,
            _bits: &mut dyn BitSource,
        ) -> Result<(Decision, PhaseKind), ComputeError> {
            let c = apf_geometry::weber::centroid(snapshot.robots());
            let decision = if c.dist(Point::ORIGIN) <= 1e-6 {
                Decision::Stay
            } else {
                Decision::Move(Path::straight(Point::ORIGIN, c))
            };
            Ok((decision, PhaseKind::Untagged))
        }

        fn name(&self) -> &'static str {
            "to-centroid"
        }
    }

    /// Toy algorithm that draws one bit per cycle and never moves.
    struct BitBurner;

    impl RobotAlgorithm for BitBurner {
        fn compute(
            &self,
            _snapshot: &Snapshot,
            bits: &mut dyn BitSource,
        ) -> Result<(Decision, PhaseKind), ComputeError> {
            let _ = bits.bit();
            Ok((Decision::Stay, PhaseKind::Untagged))
        }

        fn name(&self) -> &'static str {
            "bit-burner"
        }
    }

    fn square() -> Vec<Point> {
        vec![
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(-1.0, 0.0),
            Point::new(0.0, -1.0),
        ]
    }

    fn world_with(alg: Box<dyn RobotAlgorithm>, sched: Box<dyn Scheduler>) -> World {
        let init = square();
        let pattern = init.clone();
        World::new(init, pattern, alg, sched, WorldConfig::default(), 42)
    }

    #[test]
    fn centroid_convergence_under_fsync() {
        // Robots converge toward the centroid; positions contract.
        let mut w = world_with(Box::new(ToCentroid), Box::new(FsyncScheduler::new()));
        let before: f64 = w.positions().iter().map(|p| p.dist(Point::ORIGIN)).sum();
        for _ in 0..20 {
            w.step().unwrap();
        }
        let after: f64 = w.positions().iter().map(|p| p.dist(Point::ORIGIN)).sum();
        assert!(after < before * 0.5, "no contraction: {before} -> {after}");
    }

    #[test]
    fn frames_do_not_change_global_behavior() {
        // The same algorithm with and without randomized frames must follow
        // the same global trajectory under a deterministic scheduler.
        let init = square();
        let run = |randomize: bool| {
            let cfg = WorldConfig { randomize_frames: randomize, ..WorldConfig::default() };
            let mut w = World::new(
                init.clone(),
                init.clone(),
                Box::new(ToCentroid),
                Box::new(RoundRobinScheduler::new(2)),
                cfg,
                7,
            );
            for _ in 0..40 {
                w.step().unwrap();
            }
            w.positions().to_vec()
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a.len(), b.len());
        // apf-lint: allow(zip-length-mismatch) — lengths asserted equal just above
        for (pa, pb) in a.iter().zip(b.iter()) {
            assert!(pa.approx_eq(*pb, &Tol::new(1e-6)), "{pa} vs {pb}");
        }
    }

    #[test]
    fn delta_progress_is_enforced() {
        // A scheduler that tries to end phases with zero progress still
        // yields >= delta movement.
        struct StingyScheduler;
        impl Scheduler for StingyScheduler {
            fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
                batch.push(match phases.iter().position(|p| !p.is_idle()) {
                    Some(robot) => Action::Move { robot, distance: 0.0, end_phase: true },
                    None => Action::Look { robot: 0 },
                });
            }
            fn name(&self) -> &'static str {
                "stingy"
            }
        }
        let cfg = WorldConfig { delta: 0.05, ..WorldConfig::default() };
        let init = square();
        let mut w = World::new(
            init.clone(),
            init.clone(),
            Box::new(ToCentroid),
            Box::new(StingyScheduler),
            cfg,
            1,
        );
        w.step().unwrap(); // Look by robot 0
        let before = w.positions()[0];
        w.step().unwrap(); // Move with distance 0 but end_phase
        let after = w.positions()[0];
        assert!(before.dist(after) >= 0.05 - 1e-9, "delta violated: {}", before.dist(after));
        assert!(!w.any_pending());
    }

    #[test]
    fn cycles_and_bits_are_counted() {
        let mut w = world_with(Box::new(BitBurner), Box::new(FsyncScheduler::new()));
        for _ in 0..6 {
            w.step().unwrap();
        }
        let m = w.metrics();
        // FSYNC: every step with all-idle robots performs 4 looks; BitBurner
        // never moves so every step is a Look round.
        assert_eq!(m.cycles(), 24);
        assert_eq!(m.random_bits(), 24);
        assert!((m.bits_per_cycle() - 1.0).abs() < 1e-12);
        assert_eq!(m.active_cycles(), 0);
        // BitBurner tags every decision Untagged: everything lands in that
        // bucket and totals round-trip it.
        assert_eq!(m.phase(apf_trace::PhaseKind::Untagged).cycles, 24);
    }

    #[test]
    fn formed_detection_is_similarity_based() {
        // Robots already form the (rotated, scaled) pattern: formed
        // immediately.
        let init = square();
        let pattern: Vec<Point> =
            init.iter().map(|p| Point::new(3.0 * p.y + 1.0, -3.0 * p.x)).collect();
        let w = World::new(
            init,
            pattern,
            Box::new(ToCentroid),
            Box::new(FsyncScheduler::new()),
            WorldConfig::default(),
            9,
        );
        assert!(w.is_formed());
    }

    #[test]
    fn run_stops_on_budget() {
        let mut w = world_with(Box::new(BitBurner), Box::new(FsyncScheduler::new()));
        // BitBurner never moves; initial config == pattern so it is formed.
        let outcome = w.run(10);
        assert!(outcome.formed);

        // Now with a pattern that can never be formed by staying put.
        let init = square();
        let pattern = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.1, 0.0),
        ];
        let mut w2 = World::new(
            init,
            pattern,
            Box::new(BitBurner),
            Box::new(FsyncScheduler::new()),
            WorldConfig::default(),
            3,
        );
        let o2 = w2.run(25);
        assert!(!o2.formed);
        assert_eq!(o2.reason, StopReason::StepBudget);
        assert_eq!(o2.metrics.steps, 25);
    }

    #[test]
    fn trace_records_configurations() {
        let cfg = WorldConfig { record_trace: true, ..WorldConfig::default() };
        let init = square();
        let mut w = World::new(
            init.clone(),
            init,
            Box::new(ToCentroid),
            Box::new(FsyncScheduler::new()),
            cfg,
            5,
        );
        for _ in 0..4 {
            w.step().unwrap();
        }
        assert_eq!(w.trace().len(), 5); // initial + 4 steps
    }

    #[test]
    fn pause_keeps_robot_mid_move_observable() {
        // Advance a robot partway without ending the phase: its observed
        // position is strictly between start and destination.
        struct OneSlice;
        impl Scheduler for OneSlice {
            fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
                batch.push(match phases.iter().enumerate().find(|(_, p)| !p.is_idle()) {
                    Some((robot, p)) => {
                        Action::Move { robot, distance: p.remaining() * 0.5, end_phase: false }
                    }
                    None => Action::Look { robot: 0 },
                });
            }
            fn name(&self) -> &'static str {
                "one-slice"
            }
        }
        let init = square();
        let mut w = World::new(
            init.clone(),
            init.clone(),
            Box::new(ToCentroid),
            Box::new(OneSlice),
            WorldConfig::default(),
            2,
        );
        w.step().unwrap(); // Look
        w.step().unwrap(); // half move
        let mid = w.positions()[0];
        assert!(mid.dist(init[0]) > 1e-6);
        assert!(w.any_pending());
    }

    #[test]
    fn would_any_move_is_side_effect_free() {
        let mut w = world_with(Box::new(ToCentroid), Box::new(FsyncScheduler::new()));
        let bits_before = w.metrics().random_bits();
        let moved = w.would_any_move().unwrap();
        assert!(moved);
        assert_eq!(w.metrics().random_bits(), bits_before);
        assert!(!w.any_pending());
    }

    /// Toy algorithm that stays after making the draw calls of `draw`, and
    /// counts its Computes in `calls`.
    struct CountedStayer {
        calls: Rc<Cell<u32>>,
        draw: fn(&mut dyn BitSource),
    }

    impl RobotAlgorithm for CountedStayer {
        fn compute(
            &self,
            _snapshot: &Snapshot,
            bits: &mut dyn BitSource,
        ) -> Result<(Decision, PhaseKind), ComputeError> {
            self.calls.set(self.calls.get() + 1);
            (self.draw)(bits);
            Ok((Decision::Stay, PhaseKind::Untagged))
        }

        fn name(&self) -> &'static str {
            "counted-stayer"
        }
    }

    #[test]
    fn only_decisions_made_without_a_draw_call_are_reused() {
        let computes = |draw: fn(&mut dyn BitSource)| {
            let calls = Rc::new(Cell::new(0));
            let alg = CountedStayer { calls: Rc::clone(&calls), draw };
            let mut w = world_with(Box::new(alg), Box::new(FsyncScheduler::new()));
            for _ in 0..3 {
                w.step().unwrap();
            }
            assert_eq!(w.metrics().cycles(), 12);
            calls.get()
        };
        assert_eq!(computes(|_| {}), 4, "nothing moves, so only the first round computes");
        assert_eq!(
            computes(|bits| {
                bits.bit();
            }),
            12
        );
        assert_eq!(
            computes(|bits| {
                bits.word(0);
            }),
            12,
            "a draw call is a draw even when it takes no bits"
        );
    }

    /// Toy algorithm that counts its Computes in `calls` and walks to the
    /// centroid when it is more than 2 away from it.
    struct CountedStraggler {
        calls: Rc<Cell<u32>>,
    }

    impl RobotAlgorithm for CountedStraggler {
        fn compute(
            &self,
            snapshot: &Snapshot,
            _bits: &mut dyn BitSource,
        ) -> Result<(Decision, PhaseKind), ComputeError> {
            self.calls.set(self.calls.get() + 1);
            let c = apf_geometry::weber::centroid(snapshot.robots());
            let decision = if c.dist(Point::ORIGIN) > 2.0 {
                Decision::Move(Path::straight(Point::ORIGIN, c))
            } else {
                Decision::Stay
            };
            Ok((decision, PhaseKind::Untagged))
        }

        fn name(&self) -> &'static str {
            "counted-straggler"
        }
    }

    #[test]
    fn a_move_ends_the_reuse_of_every_robots_decision() {
        let calls = Rc::new(Cell::new(0));
        let mut initial = square();
        initial[0] = Point::new(4.0, 0.0);
        let look = |robot| vec![Action::Look { robot }];
        let script = vec![
            look(1),
            look(1),
            look(0),
            vec![Action::Move { robot: 0, distance: 0.5, end_phase: true }],
            look(1),
            look(1),
        ];
        let mut w = World::new(
            initial.clone(),
            initial,
            Box::new(CountedStraggler { calls: Rc::clone(&calls) }),
            Box::new(ScriptedScheduler::new(script)),
            WorldConfig { randomize_frames: false, ..WorldConfig::default() },
            1,
        );
        let mut computes = Vec::new();
        for _ in 0..6 {
            w.step().unwrap();
            computes.push(calls.get());
        }
        assert_eq!(computes, [1, 1, 2, 2, 3, 3], "robot 0's Move ends robot 1's reuse");
        assert_eq!(w.metrics().cycles(), 5);
    }

    #[test]
    fn tracing_emits_a_consistent_stream() {
        use apf_trace::{TraceEvent, TraceSummary, VecSink};
        use std::sync::{Arc, Mutex};

        let init = square();
        let pattern = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.1, 0.0),
        ];
        let mut w = World::new(
            init,
            pattern,
            Box::new(BitBurner),
            Box::new(FsyncScheduler::new()),
            WorldConfig::default(),
            11,
        );
        let shared = Arc::new(Mutex::new(VecSink::new()));
        w.set_sink(Box::new(Arc::clone(&shared)));
        assert!(w.has_sink());
        let outcome = w.run(8);
        let events = shared.lock().unwrap().events().to_vec();
        assert!(matches!(events[0], TraceEvent::TrialStart { robots: 4, seed: 11 }));
        assert!(matches!(events.last(), Some(TraceEvent::TrialEnd { .. })));

        let summary = TraceSummary::from_events(&events);
        assert!(summary.is_clean(), "violations: {:?}", summary.violations);
        assert!(summary.complete);
        // The replayed stream agrees with the engine's own metrics.
        assert_eq!(summary.cycles, outcome.metrics.cycles());
        assert_eq!(summary.bits, outcome.metrics.random_bits());
        assert_eq!(summary.last_step, outcome.metrics.steps);
    }

    #[test]
    fn tracing_covers_moves_and_interrupts() {
        use apf_trace::{TraceEvent, TraceSummary, VecSink};
        use std::sync::{Arc, Mutex};

        // End every move phase after a half-length slice: each move is
        // interrupted exactly once (half > delta, half < full).
        struct Chopper;
        impl Scheduler for Chopper {
            fn next(&mut self, phases: &[PhaseView], batch: &mut Vec<Action>) {
                batch.push(match phases.iter().enumerate().find(|(_, p)| !p.is_idle()) {
                    Some((robot, p)) => {
                        Action::Move { robot, distance: p.remaining() * 0.5, end_phase: true }
                    }
                    None => Action::Look { robot: 0 },
                });
            }
            fn name(&self) -> &'static str {
                "chopper"
            }
        }
        let init = square();
        let mut w = World::new(
            init.clone(),
            init,
            Box::new(ToCentroid),
            Box::new(Chopper),
            WorldConfig::default(),
            4,
        );
        let shared = Arc::new(Mutex::new(VecSink::new()));
        w.set_sink(Box::new(Arc::clone(&shared)));
        w.step().unwrap(); // Look -> pending move
        w.step().unwrap(); // half slice + end_phase -> interrupt
        let events = shared.lock().unwrap().events().to_vec();
        assert!(events.iter().any(|e| matches!(e, TraceEvent::MoveSlice { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Interrupt { .. })));
        let summary = TraceSummary::from_events(&events);
        assert!(summary.is_clean(), "violations: {:?}", summary.violations);
        assert_eq!(summary.interrupts, 1);
        assert_eq!(w.metrics().interrupted_moves(), 1);
        assert!((summary.distance - w.metrics().distance()).abs() < 1e-12);
    }

    #[test]
    fn disabled_sinks_are_dropped_and_change_nothing() {
        use apf_trace::NullSink;

        let run = |install_disabled: bool| {
            let mut w = world_with(Box::new(BitBurner), Box::new(FsyncScheduler::new()));
            if install_disabled {
                w.set_sink(Box::new(NullSink));
                assert!(!w.has_sink(), "disabled sinks must be dropped at install");
            }
            for _ in 0..6 {
                w.step().unwrap();
            }
            (w.metrics(), w.positions().to_vec())
        };
        let (m_plain, p_plain) = run(false);
        let (m_null, p_null) = run(true);
        assert_eq!(m_plain, m_null);
        assert_eq!(p_plain, p_null);
    }

    #[test]
    fn take_sink_flushes_and_detaches() {
        use apf_trace::VecSink;
        use std::sync::{Arc, Mutex};

        let mut w = world_with(Box::new(BitBurner), Box::new(FsyncScheduler::new()));
        let shared = Arc::new(Mutex::new(VecSink::new()));
        let count = || shared.lock().unwrap().events().len();
        w.set_sink(Box::new(Arc::clone(&shared)));
        w.step().unwrap();
        let sink = w.take_sink();
        assert!(sink.is_some());
        assert!(!w.has_sink());
        let after_take = count();
        assert!(after_take > 0);
        w.step().unwrap();
        assert_eq!(count(), after_take, "detached sink sees no more events");
        // The boxed handle still forwards if reinstalled.
        let mut sink = sink.unwrap();
        sink.record(&apf_trace::TraceEvent::Formed { step: 1 });
        assert_eq!(count(), after_take + 1);
    }

    #[test]
    #[should_panic(expected = "one point per robot")]
    fn mismatched_pattern_size_panics() {
        World::new(
            square(),
            vec![Point::ORIGIN],
            Box::new(ToCentroid),
            Box::new(FsyncScheduler::new()),
            WorldConfig::default(),
            0,
        );
    }
}
