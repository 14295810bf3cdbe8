//! Deterministic parallel trial engine.
//!
//! The E1–E9 suite needs orders of magnitude more Monte Carlo trials than a
//! sequential for-loop affords. This module provides:
//!
//! * [`RunSpec`] — a builder describing **one** reproducible simulation
//!   trial (instance, algorithm, scheduler, seed, budget, world options);
//! * [`Campaign`] — an explicit list of `RunSpec`s sharing a campaign seed,
//!   with per-trial seeds derived by a splitmix64-style function of
//!   `(campaign_seed, trial_index)`;
//! * [`Engine`] — a work-stealing executor over `std::thread::scope` (no
//!   third-party dependencies) whose output is **bit-identical** for any
//!   worker count;
//! * [`StreamingAggregate`] — mergeable Welford mean/variance plus a bounded
//!   percentile buffer, and [`StreamingAggregate::replay`], the one fold
//!   from per-trial [`RunResult`]s to campaign statistics.
//!
//! # Determinism
//!
//! Three properties make `--jobs 1` and `--jobs N` produce identical
//! output:
//!
//! 1. every trial's randomness comes only from its spec (`seed`, derived
//!    from the campaign seed and the trial **index**, never from scheduling);
//! 2. workers claim one trial at a time and store its result and digest by
//!    trial index, so nothing a worker keeps depends on which worker ran it;
//! 3. after all workers join, [`StreamingAggregate::replay`] folds the
//!    results **in trial order**, so floating-point reduction order is
//!    fixed — and a coordinator replaying the same results gets the same
//!    bytes by construction.

use crate::profile::SpanProfile;
use crate::{Aggregate, RunResult};
use apf_baselines::{DeterministicFormation, YyStyleFormation};
use apf_core::{validate_instance, BuildError, FormPattern};
use apf_geometry::Point;
use apf_scheduler::{AsyncConfig, SchedulerKind};
use apf_sim::{RobotAlgorithm, World, WorldConfig};
use apf_trace::span::{self, SpanLabel};
use apf_trace::{HashSink, JsonlSink, PhaseKind, TraceSink};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Samples the campaign fold's percentile buffer keeps: the engine, the
/// coordinator's merge and [`StreamingAggregate::default`] all use it, so
/// their medians and p95s agree.
pub const PERCENTILE_CAP: usize = 1 << 16;

/// Splitmix64 finalizer: the per-trial seed function.
///
/// `trial_seed(c, i)` is a high-quality hash of `(c, i)`, so trial streams
/// are decorrelated even for adjacent indices and campaign seeds.
pub fn trial_seed(campaign_seed: u64, trial_index: u64) -> u64 {
    let mut z = campaign_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(trial_index.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which algorithm a trial runs. A value, not a boxed trait object, so specs
/// stay `Send + Sync + Clone` and each worker instantiates its own
/// (stateless) algorithm.
#[derive(Debug, Clone, Copy)]
pub enum AlgorithmSpec {
    /// The paper's algorithm (`ψ_RSB` + `ψ_DPF`).
    FormPattern,
    /// Yamauchi–Yamashita-style baseline (continuous randomness).
    YyStyle,
    /// Deterministic baseline (cannot break symmetry).
    Deterministic,
}

impl AlgorithmSpec {
    fn instantiate(&self) -> Box<dyn RobotAlgorithm> {
        match self {
            AlgorithmSpec::FormPattern => Box::new(FormPattern::new()),
            AlgorithmSpec::YyStyle => Box::new(YyStyleFormation::new()),
            AlgorithmSpec::Deterministic => Box::new(DeterministicFormation::new()),
        }
    }
}

/// One reproducible simulation trial, built fluently:
///
/// ```
/// use apf_bench::engine::RunSpec;
/// use apf_scheduler::SchedulerKind;
///
/// let r = RunSpec::new(
///     apf_patterns::asymmetric_configuration(7, 5),
///     apf_patterns::random_pattern(7, 6),
/// )
/// .scheduler(SchedulerKind::RoundRobin)
/// .seed(1)
/// .budget(100_000)
/// .run();
/// assert!(r.formed);
/// ```
///
/// This replaces the old positional `run_formation(initial, pattern, kind,
/// seed, budget)` / `run_algorithm(..7 args..)` free functions.
#[derive(Debug, Clone)]
pub struct RunSpec {
    initial: Vec<Point>,
    pattern: Vec<Point>,
    algorithm: AlgorithmSpec,
    kind: SchedulerKind,
    async_config: Option<AsyncConfig>,
    seed: u64,
    budget: u64,
    config: WorldConfig,
    validate: Option<bool>,
}

impl RunSpec {
    /// Starts a spec from an instance. Defaults: the paper's algorithm, the
    /// ASYNC scheduler, seed 0, a 1 M-step budget, default world config.
    pub fn new(initial: Vec<Point>, pattern: Vec<Point>) -> Self {
        RunSpec {
            initial,
            pattern,
            algorithm: AlgorithmSpec::FormPattern,
            kind: SchedulerKind::Async,
            async_config: None,
            seed: 0,
            budget: 1_000_000,
            config: WorldConfig::default(),
            validate: None,
        }
    }

    /// Chooses the scheduler kind.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the ASYNC adversary knobs (ignored by other kinds).
    pub fn async_config(mut self, config: AsyncConfig) -> Self {
        self.async_config = Some(config);
        self
    }

    /// Seeds the robots' randomness, the frames, and the scheduler.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the engine-step budget.
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Chooses the algorithm (default: the paper's [`AlgorithmSpec::FormPattern`]).
    pub fn algorithm(mut self, algorithm: AlgorithmSpec) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the minimum per-Move progress `δ`.
    pub fn delta(mut self, delta: f64) -> Self {
        self.config.delta = delta;
        self
    }

    /// Enables multiplicity detection (required for multiplicity patterns).
    pub fn multiplicity_detection(mut self, on: bool) -> Self {
        self.config.multiplicity_detection = on;
        self
    }

    /// Whether robots get random (rotated/scaled/mirrored) local frames.
    pub fn randomize_frames(mut self, on: bool) -> Self {
        self.config.randomize_frames = on;
        self
    }

    /// Forces instance validation on or off. Default: validate exactly when
    /// running the paper's algorithm (baselines are routinely pointed at
    /// instances outside the paper's preconditions).
    pub fn validate(mut self, on: bool) -> Self {
        self.validate = Some(on);
        self
    }

    fn should_validate(&self) -> bool {
        self.validate.unwrap_or(matches!(self.algorithm, AlgorithmSpec::FormPattern))
    }

    /// Builds the world without running it.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when validation is enabled and the instance
    /// violates the paper's preconditions.
    pub fn build_world(&self) -> Result<World, BuildError> {
        if self.should_validate() {
            validate_instance(&self.initial, &self.pattern, &self.config)?;
        }
        let scheduler_seed = self.seed.wrapping_add(0x5EED);
        let scheduler = match self.async_config {
            Some(cfg) => self.kind.build_with_async_config(scheduler_seed, cfg),
            None => self.kind.build(scheduler_seed),
        };
        Ok(World::new(
            self.initial.clone(),
            self.pattern.clone(),
            self.algorithm.instantiate(),
            scheduler,
            self.config,
            self.seed,
        ))
    }

    /// Runs the trial to completion or budget exhaustion.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when validation rejects the instance.
    pub fn try_run(&self) -> Result<RunResult, BuildError> {
        Ok(self.build_world()?.run(self.budget).into())
    }

    /// Runs the trial.
    ///
    /// # Panics
    ///
    /// Panics if the instance is invalid (the experiment generators only
    /// emit valid ones).
    pub fn run(&self) -> RunResult {
        // apf-lint: allow(panic-policy, panic-reachability) — documented panic (# Panics): generators emit valid instances, and a worker that does hit an invalid one must abort the campaign loudly
        self.try_run().expect("experiment instance must be valid")
    }

    /// Runs the trial with a trace sink installed on the world.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when validation rejects the instance.
    pub fn try_run_with_sink(&self, sink: Box<dyn TraceSink>) -> Result<RunResult, BuildError> {
        let mut world = self.build_world()?;
        world.set_sink(sink);
        Ok(world.run(self.budget).into())
    }

    /// Runs the trial with a [`HashSink`] installed and returns the result
    /// together with the FNV-1a digest of the serialized event stream.
    ///
    /// The digest equals `HashSink`'s over the exact JSONL byte stream, so
    /// it can be compared directly against a digest computed from a trace
    /// file's bytes — the contract the golden-trace conformance corpus
    /// (`apf-conformance`) checks on every CI run.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when validation rejects the instance.
    pub fn try_run_digest(&self) -> Result<(RunResult, u64), BuildError> {
        let sink = HashSink::new();
        let probe = sink.probe();
        let result = self.try_run_with_sink(Box::new(sink))?;
        Ok((result, probe.digest()))
    }

    /// Re-runs the trial streaming its full event trace as JSONL into
    /// `writer` (at most `limit` events; use [`TRACE_EVENT_LIMIT`] for the
    /// harness default). Because trials are deterministic in their spec,
    /// running a spec traced reproduces the untraced run event for event.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when validation rejects the instance.
    ///
    /// # Panics
    ///
    /// Panics if a tracing thread panicked while holding the sink lock
    /// (cannot happen: the sink is only used from this call).
    pub fn run_traced<W: Write + Send + 'static>(
        &self,
        writer: W,
        limit: u64,
    ) -> Result<TracedRun<W>, BuildError> {
        let mut world = self.build_world()?;
        let shared = Arc::new(Mutex::new(JsonlSink::with_limit(writer, limit)));
        world.set_sink(Box::new(Arc::clone(&shared)));
        let result: RunResult = world.run(self.budget).into();
        drop(world); // releases the world's handle; `shared` is now unique
        let sink = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| unreachable!("world dropped its sink handle"))
            .into_inner()
            // apf-lint: allow(panic-policy) — poisoning requires a panic that already failed the trial
            .expect("trace sink lock poisoned");
        Ok(TracedRun {
            result,
            events: sink.written(),
            truncated: sink.truncated(),
            io_error: sink.io_error(),
            writer: sink.into_inner(),
        })
    }
}

/// Default per-trace event cap for harness-written JSONL dumps: enough for
/// any formed trial, bounded for budget-exhausted ones (~20 MB of JSONL).
pub const TRACE_EVENT_LIMIT: u64 = 250_000;

/// The outcome of [`RunSpec::run_traced`]: the trial result plus the trace
/// accounting and the recovered writer.
#[derive(Debug)]
pub struct TracedRun<W> {
    /// The trial's distilled result (identical to an untraced run).
    pub result: RunResult,
    /// Events written to the JSONL stream.
    pub events: u64,
    /// Whether the event cap cut the stream short.
    pub truncated: bool,
    /// The first I/O error the sink hit, if any.
    pub io_error: Option<std::io::ErrorKind>,
    /// The writer, flushed and returned.
    pub writer: W,
}

/// Re-runs and dumps JSONL traces of a campaign's *failed* and *outlier*
/// trials into `dir` (`<campaign>-trial<idx>-failed.jsonl` /
/// `-outlier.jsonl`), at most `max_traces` files. An outlier is a formed
/// trial needing more than 4× the median cycles of formed trials.
///
/// `results` must be the campaign's per-trial results in trial order (run
/// the engine with [`Engine::collect_results`]).
///
/// # Errors
///
/// Returns the first filesystem or trace-stream I/O error.
///
/// # Panics
///
/// Panics if a spec's instance is invalid (it already ran once to produce
/// `results`).
pub fn trace_failures(
    campaign: &Campaign,
    results: &[RunResult],
    dir: &Path,
    max_traces: usize,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut formed_cycles: Vec<u64> =
        results.iter().filter(|r| r.formed).map(|r| r.cycles).collect();
    formed_cycles.sort_unstable();
    let median = formed_cycles.get(formed_cycles.len() / 2).copied().unwrap_or(0);
    let slug: String =
        campaign.name().chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();

    let mut written = Vec::new();
    for (idx, (spec, result)) in campaign.specs().iter().zip(results).enumerate() {
        if written.len() >= max_traces {
            break;
        }
        let label = if !result.formed {
            "failed"
        } else if median > 0 && result.cycles > 4 * median {
            "outlier"
        } else {
            continue;
        };
        let path = dir.join(format!("{slug}-trial{idx}-{label}.jsonl"));
        let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let traced = spec
            .run_traced(file, TRACE_EVENT_LIMIT)
            // apf-lint: allow(panic-policy) — same spec built and ran earlier in this campaign
            .expect("spec already ran once; it must still build");
        if let Some(kind) = traced.io_error {
            return Err(std::io::Error::new(kind, format!("writing {}", path.display())));
        }
        traced.writer.into_inner().map_err(std::io::IntoInnerError::into_error)?;
        written.push(path);
    }
    Ok(written)
}

/// An explicit list of trials sharing a campaign seed.
#[derive(Debug, Clone)]
pub struct Campaign {
    name: String,
    seed: u64,
    specs: Vec<RunSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Campaign { name: name.into(), seed, specs: Vec::new() }
    }

    /// The campaign's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-trial seed this campaign derives for `trial_index`.
    pub fn seed_for(&self, trial_index: u64) -> u64 {
        trial_seed(self.seed, trial_index)
    }

    /// Appends one explicit spec (its seed is kept as-is).
    pub fn push(&mut self, spec: RunSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Appends `count` trials built by `make(trial_index, derived_seed)`.
    ///
    /// The returned spec's seed is **overwritten** with the derived seed, so
    /// per-trial randomness always follows the campaign-seed scheme; use
    /// `trial_index` for anything that must stay stable across campaign
    /// seeds (e.g. instance-generator seeds).
    pub fn add_trials(
        &mut self,
        count: u64,
        mut make: impl FnMut(u64, u64) -> RunSpec,
    ) -> &mut Self {
        for i in 0..count {
            let base = self.specs.len() as u64;
            let seed = self.seed_for(base);
            let mut spec = make(i, seed);
            spec.seed = seed;
            self.specs.push(spec);
        }
        self
    }

    /// The trial list, in index order.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// The sub-campaign holding trials `lo..hi` (a shard), keeping the name
    /// and campaign seed. Specs are copied verbatim — their already-derived
    /// per-trial seeds come along — so running the slice produces results
    /// and digests bit-identical to the corresponding range of a full run.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.len()`.
    pub fn slice(&self, lo: usize, hi: usize) -> Campaign {
        assert!(lo <= hi && hi <= self.specs.len(), "invalid trial range {lo}..{hi}");
        Campaign { name: self.name.clone(), seed: self.seed, specs: self.specs[lo..hi].to_vec() }
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the campaign has no trials.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Welford running mean/variance (parallel-mergeable, Chan et al.).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Merges another accumulator into this one (order-sensitive in the
    /// last floating-point ulps — the campaign fold always merges in trial
    /// order).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.count += other.count;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

/// Bounded percentile buffer: keeps at most `cap` samples by deterministic
/// stride thinning (every `stride`-th sample by arrival order survives), so
/// the buffer's own size stays bounded however many samples it sees, while
/// percentiles remain **exact** whenever the total sample count fits the cap.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileBuffer {
    cap: usize,
    stride: u64,
    seen: u64,
    samples: Vec<f64>,
}

impl PercentileBuffer {
    /// A buffer keeping at most `cap` samples (`cap ≥ 2`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "percentile buffer needs capacity >= 2");
        PercentileBuffer { cap, stride: 1, seen: 0, samples: Vec::new() }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.samples.len() == self.cap {
                self.thin();
            }
            self.samples.push(x);
        }
        self.seen += 1;
    }

    fn thin(&mut self) {
        let mut keep = 0;
        for i in (0..self.samples.len()).step_by(2) {
            self.samples[keep] = self.samples[i];
            keep += 1;
        }
        self.samples.truncate(keep);
        self.stride *= 2;
    }

    /// Merges another buffer (samples of `other` follow `self` in arrival
    /// order; the campaign fold merges in trial order, so the result is
    /// independent of the worker count).
    ///
    /// A retained sample survives when its global arrival index — counted
    /// from `self`'s first sample, with `other`'s offset by `self.seen()` —
    /// is a multiple of the merged stride, the rule [`Self::push`] keeps.
    /// So a fold of one-sample buffers equals pushing the same samples in
    /// order.
    pub fn merge(&mut self, other: &PercentileBuffer) {
        let stride = self.stride.max(other.stride);
        let mut merged: Vec<f64> = Vec::with_capacity(self.samples.len() + other.samples.len());
        for (offset, buf) in [(0, &*self), (self.seen, other)] {
            merged.extend(
                buf.samples
                    .iter()
                    .zip((offset..).step_by(buf.stride as usize))
                    .filter(|&(_, index)| index.is_multiple_of(stride))
                    .map(|(&x, _)| x),
            );
        }
        self.samples = merged;
        self.stride = stride;
        self.seen += other.seen;
        while self.samples.len() > self.cap {
            self.thin();
        }
    }

    /// Number of retained samples.
    pub fn retained(&self) -> usize {
        self.samples.len()
    }

    /// Total observations pushed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether percentile queries are exact (no thinning has occurred).
    pub fn is_exact(&self) -> bool {
        self.stride == 1
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) under the same nearest-rank convention
    /// as [`Aggregate::of`]; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        v[((v.len() as f64 - 1.0) * q).round() as usize]
    }
}

/// Mergeable campaign statistics: O(1) work per trial, and a size of its own
/// that stays bounded (the percentile buffer is capped). It does not bound a
/// campaign's memory: [`Engine::run`] and the coordinator first hold every
/// executed trial's [`RunResult`], then fold them with
/// [`StreamingAggregate::replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingAggregate {
    runs: u64,
    formed: u64,
    cycles: Welford,
    bits: Welford,
    distance: Welford,
    total_cycles: f64,
    total_bits: f64,
    phase_cycles: [f64; PhaseKind::COUNT],
    phase_bits: [f64; PhaseKind::COUNT],
    cycle_percentiles: PercentileBuffer,
}

impl Default for StreamingAggregate {
    fn default() -> Self {
        Self::with_capacity(PERCENTILE_CAP)
    }
}

impl StreamingAggregate {
    /// An empty aggregate whose percentile buffer keeps `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        StreamingAggregate {
            runs: 0,
            formed: 0,
            cycles: Welford::default(),
            bits: Welford::default(),
            distance: Welford::default(),
            total_cycles: 0.0,
            total_bits: 0.0,
            phase_cycles: [0.0; PhaseKind::COUNT],
            phase_bits: [0.0; PhaseKind::COUNT],
            cycle_percentiles: PercentileBuffer::new(cap),
        }
    }

    /// Folds in one trial result. Means/percentiles cover **successful**
    /// runs, matching [`Aggregate::of`].
    pub fn push(&mut self, r: &RunResult) {
        self.runs += 1;
        if r.formed {
            self.formed += 1;
            self.cycles.push(r.cycles as f64);
            self.bits.push(r.bits as f64);
            self.distance.push(r.distance);
            self.total_cycles += r.cycles as f64;
            self.total_bits += r.bits as f64;
            for i in 0..PhaseKind::COUNT {
                self.phase_cycles[i] += r.phase_cycles[i] as f64;
                self.phase_bits[i] += r.phase_bits[i] as f64;
            }
            self.cycle_percentiles.push(r.cycles as f64);
        }
    }

    /// Merges another aggregate ([`StreamingAggregate::replay`] calls this
    /// in trial order).
    pub fn merge(&mut self, other: &StreamingAggregate) {
        self.runs += other.runs;
        self.formed += other.formed;
        self.cycles.merge(&other.cycles);
        self.bits.merge(&other.bits);
        self.distance.merge(&other.distance);
        self.total_cycles += other.total_cycles;
        self.total_bits += other.total_bits;
        for i in 0..PhaseKind::COUNT {
            self.phase_cycles[i] += other.phase_cycles[i];
            self.phase_bits[i] += other.phase_bits[i];
        }
        self.cycle_percentiles.merge(&other.cycle_percentiles);
    }

    /// Trials folded in.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Successful trials.
    pub fn formed(&self) -> u64 {
        self.formed
    }

    /// Welford accumulator over successful runs' cycles.
    pub fn cycles(&self) -> &Welford {
        &self.cycles
    }

    /// Welford accumulator over successful runs' random bits.
    pub fn bits(&self) -> &Welford {
        &self.bits
    }

    /// Welford accumulator over successful runs' travel distance.
    pub fn distance(&self) -> &Welford {
        &self.distance
    }

    /// Total cycles successful runs spent in `kind`.
    pub fn phase_cycles_total(&self, kind: PhaseKind) -> f64 {
        self.phase_cycles[kind.index()]
    }

    /// Total random bits successful runs drew in `kind`.
    pub fn phase_bits_total(&self, kind: PhaseKind) -> f64 {
        self.phase_bits[kind.index()]
    }

    /// The campaign fold: per-trial results, in trial order, folded into
    /// one aggregate. [`Engine::run`] computes `CampaignReport::stats` with
    /// this call (cap [`PERCENTILE_CAP`]), so a coordinator that transports
    /// per-trial [`RunResult`]s and replays them reproduces a
    /// single-process run **bit for bit** by construction.
    ///
    /// Each trial gets a fresh accumulator that is then merged into the
    /// total, in trial order. Welford's `push` and `merge` differ in the
    /// last ulps, so pushing every result into one accumulator would change
    /// every aggregate byte; shard-*level* aggregates cannot be merged for
    /// the same reason.
    pub fn replay(results: &[RunResult], percentile_cap: usize) -> StreamingAggregate {
        let mut total = StreamingAggregate::with_capacity(percentile_cap);
        for r in results {
            let mut agg = StreamingAggregate::with_capacity(percentile_cap);
            agg.push(r);
            total.merge(&agg);
        }
        total
    }

    /// The classic [`Aggregate`] view of this accumulator.
    pub fn to_aggregate(&self) -> Aggregate {
        Aggregate {
            runs: self.runs as usize,
            success: if self.runs == 0 { 0.0 } else { self.formed as f64 / self.runs as f64 },
            mean_cycles: self.cycles.mean(),
            median_cycles: self.cycle_percentiles.percentile(0.5),
            p95_cycles: self.cycle_percentiles.percentile(0.95),
            mean_bits: self.bits.mean(),
            bits_per_cycle: if self.total_cycles == 0.0 {
                0.0
            } else {
                self.total_bits / self.total_cycles
            },
        }
    }
}

/// Cooperative cancellation flag for a running campaign.
///
/// Cloning shares the flag. Workers check it **before claiming each trial**
/// and never abandon a claimed trial, so after [`CancelToken::cancel`] the
/// executed trials form a contiguous prefix `0..k` of the campaign in trial
/// order — partial aggregates, collected results, and digest vectors stay
/// well-formed and deterministic for whatever `k` the cancellation reached.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Shared live counters a running campaign updates after every trial, for
/// concurrent readers (progress displays, a `/metrics` scrape). All fields
/// are monotonic; [`LiveStats::snapshot`] reads them individually, so a
/// snapshot taken mid-update may be internally skewed by at most one trial —
/// fine for observability, never part of the deterministic output.
#[derive(Debug, Default)]
pub struct LiveStats {
    trials: AtomicU64,
    formed: AtomicU64,
    cycles: AtomicU64,
    bits: AtomicU64,
    busy_ns: AtomicU64,
}

impl LiveStats {
    /// Folds one completed trial into the counters. The engine calls this
    /// per trial; a coordinator folding remotely-executed shard results
    /// calls it too, so live progress reads the same either way.
    pub fn record(&self, r: &RunResult, busy: Duration) {
        self.trials.fetch_add(1, Ordering::Relaxed);
        if r.formed {
            self.formed.fetch_add(1, Ordering::Relaxed);
        }
        self.cycles.fetch_add(r.cycles, Ordering::Relaxed);
        self.bits.fetch_add(r.bits, Ordering::Relaxed);
        self.busy_ns.fetch_add(busy.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot {
            trials: self.trials.load(Ordering::Relaxed),
            formed: self.formed.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
            bits: self.bits.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
        }
    }
}

/// One reading of [`LiveStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Trials completed so far.
    pub trials: u64,
    /// Successful trials so far.
    pub formed: u64,
    /// Total cycles across completed trials (formed or not).
    pub cycles: u64,
    /// Total random bits across completed trials.
    pub bits: u64,
    /// Total worker time spent inside trials.
    pub busy: Duration,
}

/// One worker thread's execution accounting for a campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Trials this worker executed.
    pub trials: usize,
    /// Time this worker spent inside trials (excludes queue idling).
    pub busy: Duration,
}

/// A campaign's merged outcome plus throughput accounting.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign's name.
    pub name: String,
    /// Trials executed. Equal to [`CampaignReport::requested`] unless the
    /// run was cancelled, in which case the executed trials are the prefix
    /// `0..trials` of the campaign in trial order.
    pub trials: usize,
    /// Trials the campaign asked for.
    pub requested: usize,
    /// Whether a [`CancelToken`] stopped the run before completion.
    pub cancelled: bool,
    /// Worker threads used.
    pub jobs: usize,
    /// Merged streaming statistics.
    pub stats: StreamingAggregate,
    /// Per-trial results in trial order (only with
    /// [`Engine::collect_results`]).
    pub results: Option<Vec<RunResult>>,
    /// Per-trial trace digests in trial order (only with
    /// [`Engine::trace_digests`]).
    pub digests: Option<Vec<u64>>,
    /// Per-worker busy time and trial counts (timing-noisy; never part of
    /// the deterministic output).
    pub workers: Vec<WorkerStats>,
    /// The slowest single trial: `(trial index, wall time)`.
    pub longest_trial: Option<(usize, Duration)>,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
    /// Merged span profile (only with [`Engine::profile_spans`]). Timing
    /// data only — never part of the deterministic output.
    pub profile: Option<crate::profile::SpanProfile>,
}

impl CampaignReport {
    /// The classic aggregate view.
    pub fn aggregate(&self) -> Aggregate {
        self.stats.to_aggregate()
    }

    /// Trials per wall-clock second.
    pub fn trials_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.trials as f64 / s
        }
    }

    /// Fraction of worker wall-clock spent inside trials (1.0 = perfectly
    /// load-balanced, no idle tails).
    pub fn utilization(&self) -> f64 {
        let budget = self.wall.as_secs_f64() * self.workers.len() as f64;
        if budget == 0.0 {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        (busy / budget).min(1.0)
    }
}

/// The parallel executor. Construct once, reuse for many campaigns.
#[derive(Debug, Clone)]
pub struct Engine {
    jobs: usize,
    collect: bool,
    digests: bool,
    progress: bool,
    profile: bool,
    cancel: Option<CancelToken>,
    live: Option<Arc<LiveStats>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine using every available core.
    pub fn new() -> Self {
        let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Engine {
            jobs,
            collect: false,
            digests: false,
            progress: false,
            profile: false,
            cancel: None,
            live: None,
        }
    }

    /// Sets the worker count (0 = auto-detect).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            jobs
        };
        self
    }

    /// The resolved worker count (auto-detection already applied).
    pub fn effective_jobs(&self) -> usize {
        self.jobs
    }

    /// Also returns every per-trial [`RunResult`] (in trial order). Off by
    /// default: the engine then keeps them only for the fold.
    pub fn collect_results(mut self, on: bool) -> Self {
        self.collect = on;
        self
    }

    /// Also records a per-trial FNV digest of each trial's serialized event
    /// stream (in trial order). Two campaign runs produce equal digest
    /// vectors iff every trial's *trace*, not just its result, is
    /// bit-identical — the determinism check for any `--jobs` value.
    pub fn trace_digests(mut self, on: bool) -> Self {
        self.digests = on;
        self
    }

    /// Prints a live progress line to stderr while the campaign runs.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Also records wall-time spans (phases + analysis kernels) into a
    /// merged [`crate::profile::SpanProfile`] on the report. Spans travel a
    /// channel separate from trace events, so enabling this changes no
    /// digest and no aggregate byte — only timing columns appear.
    pub fn profile_spans(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Installs a cooperative [`CancelToken`]: workers check it before
    /// claiming each trial and stop claiming once it fires, so cancellation
    /// latency is bounded by one trial. Executed trials always form a
    /// contiguous prefix of the campaign (see [`CancelToken`]).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Publishes per-trial counters into `live` while the campaign runs, for
    /// concurrent readers such as a metrics scrape.
    pub fn live_stats(mut self, live: Arc<LiveStats>) -> Self {
        self.live = Some(live);
        self
    }

    /// Runs every trial of `campaign` and merges the outcome.
    ///
    /// The result — including every floating-point digit of the merged
    /// statistics and the order of collected results — is identical for any
    /// worker count (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if a spec's instance is invalid, or if a worker thread
    /// panics.
    pub fn run(&self, campaign: &Campaign) -> CampaignReport {
        let specs = campaign.specs();
        let n = specs.len();
        let workers = self.jobs.min(n.max(1)).max(1);
        let cursor = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let finished = AtomicBool::new(false);
        let cancel = self.cancel.as_ref();
        let live = self.live.as_deref();
        let t0 = Instant::now();

        type TrialOut = (usize, RunResult, u64);
        type WorkerOut =
            (Vec<TrialOut>, WorkerStats, Option<(usize, Duration)>, Option<SpanProfile>);
        let mut results = vec![RunResult::default(); n];
        let mut digests = vec![0; n];
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);
        let mut longest_trial: Option<(usize, Duration)> = None;
        let mut profile = self.profile.then(SpanProfile::new);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let done = &done;
                    scope.spawn(move || -> WorkerOut {
                        let mut out: Vec<TrialOut> = Vec::new();
                        let mut stats = WorkerStats::default();
                        let mut longest: Option<(usize, Duration)> = None;
                        // Span recording is thread-local: each worker
                        // installs a shared-handle profile once and reads
                        // it back when it runs out of trials.
                        let profile_handle = self.profile.then(|| {
                            let handle = Arc::new(Mutex::new(SpanProfile::new()));
                            drop(span::install(Box::new(Arc::clone(&handle))));
                            handle
                        });
                        loop {
                            if cancel.is_some_and(CancelToken::is_cancelled) {
                                break;
                            }
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let t_trial = Instant::now();
                            span::set_trial(Some(i as u64));
                            let _trial_span = span::enter(SpanLabel::Trial);
                            let (r, digest) = if self.digests {
                                specs[i]
                                    .try_run_digest()
                                    // apf-lint: allow(panic-policy, panic-reachability) — generators emit valid instances (see run()); an invalid one must abort the campaign, not be skipped
                                    .expect("experiment instance must be valid")
                            } else {
                                (specs[i].run(), 0)
                            };
                            let dt = t_trial.elapsed();
                            stats.trials += 1;
                            stats.busy += dt;
                            if longest.is_none_or(|(_, best)| dt > best) {
                                longest = Some((i, dt));
                            }
                            if let Some(l) = live {
                                l.record(&r, dt);
                            }
                            out.push((i, r, digest));
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        let worker_profile = profile_handle.map(|handle| {
                            drop(span::take());
                            // apf-lint: allow(panic-policy, panic-reachability) — only this thread recorded into the handle, so the lock cannot be poisoned
                            handle.lock().expect("span profile lock").clone()
                        });
                        (out, stats, longest, worker_profile)
                    })
                })
                .collect();

            if self.progress {
                let done = &done;
                let finished = &finished;
                let name = campaign.name();
                scope.spawn(move || loop {
                    let d = done.load(Ordering::Relaxed);
                    let s = t0.elapsed().as_secs_f64();
                    let rate = if s > 0.0 { d as f64 / s } else { 0.0 };
                    eprint!(
                        "\r[{name}] {d}/{n} trials ({:.0}%) {:.1}/s  ",
                        100.0 * d as f64 / n.max(1) as f64,
                        rate
                    );
                    // `finished` (not `d >= n`) ends the loop so a cancelled
                    // campaign — which never reaches n — still stops it.
                    if d >= n || finished.load(Ordering::Acquire) {
                        eprintln!();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(200));
                });
            }

            for handle in handles {
                // apf-lint: allow(panic-policy, panic-reachability) — a worker panic must abort the campaign, not hang it; this join runs on the coordinating thread
                let joined = handle.join().expect("engine worker panicked");
                let (trials, stats, longest, worker_profile) = joined;
                for (i, r, digest) in trials {
                    results[i] = r;
                    digests[i] = digest;
                }
                worker_stats.push(stats);
                if let Some((idx, dt)) = longest {
                    if longest_trial.is_none_or(|(_, best)| dt > best) {
                        longest_trial = Some((idx, dt));
                    }
                }
                if let (Some(total), Some(wp)) = (profile.as_mut(), worker_profile.as_ref()) {
                    total.merge(wp);
                }
            }
            finished.store(true, Ordering::Release);
        });

        // Workers claim indices from one cursor and never abandon a claimed
        // trial, so the executed trials are exactly the prefix
        // `0..executed`; only cancellation leaves the rest unclaimed.
        let cancelled = cancel.is_some_and(CancelToken::is_cancelled);
        let executed: usize = worker_stats.iter().map(|w| w.trials).sum();
        assert!(cancelled || executed == n, "unclaimed trial in an uncancelled campaign");
        results.truncate(executed);
        digests.truncate(executed);
        let stats = StreamingAggregate::replay(&results, PERCENTILE_CAP);

        CampaignReport {
            name: campaign.name().to_string(),
            trials: executed,
            requested: n,
            cancelled,
            jobs: workers,
            stats,
            results: self.collect.then_some(results),
            digests: self.digests.then_some(digests),
            workers: worker_stats,
            longest_trial,
            wall: t0.elapsed(),
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_scheduler::SchedulerKind;

    fn result(formed: bool, cycles: u64, bits: u64) -> RunResult {
        RunResult { formed, cycles, bits, distance: cycles as f64 * 0.5, ..RunResult::default() }
    }

    #[test]
    fn trial_seeds_are_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for c in 0..8u64 {
            for i in 0..64u64 {
                assert!(seen.insert(trial_seed(c, i)), "seed collision at ({c}, {i})");
            }
        }
    }

    #[test]
    fn welford_matches_naive_moments() {
        let data = [3.0, 1.5, 8.25, -2.0, 4.0, 4.0, 19.5];
        let mut w = Welford::default();
        for x in data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_matches_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin() * 40.0).collect();
        let mut whole = Welford::default();
        for x in &data {
            whole.push(*x);
        }
        let mut left = Welford::default();
        let mut right = Welford::default();
        for x in &data[..37] {
            left.push(*x);
        }
        for x in &data[37..] {
            right.push(*x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentile_buffer_exact_under_cap() {
        let mut buf = PercentileBuffer::new(256);
        let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        for x in &data {
            buf.push(*x);
        }
        assert!(buf.is_exact());
        // Same nearest-rank convention as Aggregate::of.
        assert_eq!(buf.percentile(0.5), 50.0);
        assert_eq!(buf.percentile(0.95), 94.0);
        assert_eq!(buf.percentile(0.0), 0.0);
        assert_eq!(buf.percentile(1.0), 99.0);
    }

    #[test]
    fn percentile_buffer_thins_deterministically() {
        let mut a = PercentileBuffer::new(16);
        for i in 0..1000 {
            a.push(i as f64);
        }
        assert!(a.retained() <= 16);
        assert_eq!(a.seen(), 1000);
        // Approximate but sane: the thinned median is within 15% of truth.
        assert!((a.percentile(0.5) - 500.0).abs() < 150.0, "median {}", a.percentile(0.5));
    }

    #[test]
    fn replay_keeps_the_samples_sequential_pushes_keep() {
        for (cap, trials) in [(4, 200), (16, 1_000), (4, 1_000), (16, 200)] {
            let results: Vec<RunResult> =
                (0..trials).map(|i| result(true, (i * 37) % 1_009 + 1, 0)).collect();
            let folded = StreamingAggregate::replay(&results, cap).cycle_percentiles;
            let mut pushed = PercentileBuffer::new(cap);
            for r in &results {
                pushed.push(r.cycles as f64);
            }
            // The same samples, stride and count: so the same retained
            // count, median and p95.
            assert_eq!(folded, pushed, "cap {cap}, {trials} trials");
        }
    }

    #[test]
    fn streaming_aggregate_matches_aggregate_of() {
        let results: Vec<RunResult> =
            (0..200).map(|i| result(i % 5 != 0, (i * 31) % 400 + 1, (i * 7) % 50)).collect();
        let reference = Aggregate::of(&results);
        let mut streaming = StreamingAggregate::default();
        for r in &results {
            streaming.push(r);
        }
        let got = streaming.to_aggregate();
        assert_eq!(got.runs, reference.runs);
        assert!((got.success - reference.success).abs() < 1e-12);
        assert!((got.mean_cycles - reference.mean_cycles).abs() < 1e-9);
        assert_eq!(got.median_cycles, reference.median_cycles);
        assert_eq!(got.p95_cycles, reference.p95_cycles);
        assert!((got.mean_bits - reference.mean_bits).abs() < 1e-9);
        assert!((got.bits_per_cycle - reference.bits_per_cycle).abs() < 1e-12);
    }

    #[test]
    fn streaming_merge_matches_aggregate_of() {
        let results: Vec<RunResult> =
            (0..150).map(|i| result(i % 7 != 0, (i * 13) % 300 + 1, i % 40)).collect();
        let reference = Aggregate::of(&results);
        // Merge in a fixed order, as the campaign fold does.
        let mut merged = StreamingAggregate::default();
        for chunk in results.chunks(16) {
            let mut part = StreamingAggregate::default();
            for r in chunk {
                part.push(r);
            }
            merged.merge(&part);
        }
        let got = merged.to_aggregate();
        assert_eq!(got.runs, reference.runs);
        assert!((got.mean_cycles - reference.mean_cycles).abs() < 1e-9);
        assert_eq!(got.median_cycles, reference.median_cycles);
        assert_eq!(got.p95_cycles, reference.p95_cycles);
        assert!((got.bits_per_cycle - reference.bits_per_cycle).abs() < 1e-12);
    }

    #[test]
    fn empty_aggregate_is_zeroed() {
        let a = StreamingAggregate::default().to_aggregate();
        assert_eq!(a.runs, 0);
        assert_eq!(a.success, 0.0);
        assert_eq!(a.mean_cycles, 0.0);
    }

    #[test]
    fn runspec_smoke_formation() {
        let r = RunSpec::new(
            apf_patterns::asymmetric_configuration(7, 5),
            apf_patterns::random_pattern(7, 6),
        )
        .scheduler(SchedulerKind::RoundRobin)
        .seed(1)
        .budget(100_000)
        .run();
        assert!(r.formed);
        assert!(r.cycles > 0);
    }

    #[test]
    fn runspec_validation_rejects_small_instances() {
        let err = RunSpec::new(
            apf_patterns::asymmetric_configuration(5, 1),
            apf_patterns::random_pattern(5, 2),
        )
        .try_run()
        .unwrap_err();
        assert_eq!(err, BuildError::TooFewRobots(5));
    }

    #[test]
    fn runspec_baselines_skip_validation_by_default() {
        // 5 robots violate the paper's n >= 7 precondition, but baselines
        // may still run; the deterministic baseline just won't form.
        let r = RunSpec::new(
            apf_patterns::asymmetric_configuration(5, 1),
            apf_patterns::random_pattern(5, 2),
        )
        .algorithm(AlgorithmSpec::Deterministic)
        .scheduler(SchedulerKind::RoundRobin)
        .budget(100)
        .try_run();
        assert!(r.is_ok());
    }

    #[test]
    fn campaign_derives_and_overrides_seeds() {
        let mut c = Campaign::new("t", 99);
        c.add_trials(4, |i, seed| {
            assert_eq!(seed, trial_seed(99, i));
            RunSpec::new(Vec::new(), Vec::new()).seed(12345) // overwritten
        });
        for (i, spec) in c.specs().iter().enumerate() {
            assert_eq!(spec.seed, trial_seed(99, i as u64));
        }
    }

    fn smoke_campaign(trials: u64) -> Campaign {
        let mut c = Campaign::new("cancel-smoke", 7);
        c.add_trials(trials, |i, _seed| {
            RunSpec::new(
                apf_patterns::asymmetric_configuration(7, 10 + i),
                apf_patterns::random_pattern(7, 20 + i),
            )
            .scheduler(SchedulerKind::RoundRobin)
            .budget(200_000)
        });
        c
    }

    #[test]
    fn cancel_before_run_yields_wellformed_empty_report() {
        let token = CancelToken::new();
        token.cancel();
        let c = smoke_campaign(5);
        let report = Engine::new()
            .jobs(2)
            .collect_results(true)
            .trace_digests(true)
            .cancel_token(token)
            .run(&c);
        assert!(report.cancelled);
        assert_eq!(report.requested, 5);
        assert_eq!(report.trials, 0);
        assert_eq!(report.stats.runs(), 0);
        assert_eq!(report.results.as_ref().unwrap().len(), 0);
        assert_eq!(report.digests.as_ref().unwrap().len(), 0);
        let agg = report.aggregate();
        assert_eq!(agg.runs, 0);
        assert_eq!(agg.success, 0.0);
    }

    #[test]
    fn cancel_mid_run_keeps_partial_aggregates_wellformed() {
        let c = smoke_campaign(8);
        let reference = Engine::new().jobs(1).collect_results(true).trace_digests(true).run(&c);
        let ref_digests = reference.digests.as_ref().unwrap();

        let token = CancelToken::new();
        let live = Arc::new(LiveStats::default());
        let report = std::thread::scope(|s| {
            let handle = {
                let token = token.clone();
                let live = Arc::clone(&live);
                let c = &c;
                s.spawn(move || {
                    Engine::new()
                        .jobs(2)
                        .collect_results(true)
                        .trace_digests(true)
                        .cancel_token(token)
                        .live_stats(live)
                        .run(c)
                })
            };
            while live.snapshot().trials < 2 {
                std::thread::sleep(Duration::from_micros(200));
            }
            token.cancel();
            handle.join().unwrap()
        });

        // The cancel raced trial completion, so the executed count is
        // anywhere in 2..=8 — but whatever it is, the report must be a
        // self-consistent prefix of the uncancelled reference run.
        let k = report.trials;
        assert!((2..=8).contains(&k), "executed {k} of 8");
        assert_eq!(report.requested, 8);
        assert_eq!(report.stats.runs() as usize, k);
        assert_eq!(report.results.as_ref().unwrap().len(), k);
        assert_eq!(report.digests.as_ref().unwrap().len(), k);
        assert_eq!(report.digests.as_ref().unwrap()[..], ref_digests[..k]);
        // The cancelled run's fold is the fold of the reference run's
        // first k results, bit for bit.
        let ref_results = reference.results.as_ref().unwrap();
        assert_eq!(report.stats, StreamingAggregate::replay(&ref_results[..k], PERCENTILE_CAP));
        let agg = report.aggregate();
        assert_eq!(agg.runs, k);
        assert!((0.0..=1.0).contains(&agg.success));
        let snap = live.snapshot();
        assert_eq!(snap.trials as usize, k);
        assert_eq!(snap.formed, report.stats.formed());
        assert!(snap.busy >= Duration::ZERO);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let c = smoke_campaign(4);
        let plain = Engine::new().jobs(2).trace_digests(true).run(&c);
        let tokened =
            Engine::new().jobs(2).trace_digests(true).cancel_token(CancelToken::new()).run(&c);
        assert!(!tokened.cancelled);
        assert_eq!(tokened.trials, tokened.requested);
        assert_eq!(plain.digests, tokened.digests);
    }

    #[test]
    fn live_stats_totals_match_report() {
        let c = smoke_campaign(5);
        let live = Arc::new(LiveStats::default());
        let report = Engine::new().jobs(2).live_stats(Arc::clone(&live)).run(&c);
        let snap = live.snapshot();
        assert_eq!(snap.trials, 5);
        assert_eq!(snap.formed, report.stats.formed());
        let busy: Duration = report.workers.iter().map(|w| w.busy).sum();
        // Same trials timed with the same clock, accumulated in ns.
        assert!(snap.busy <= busy + Duration::from_millis(1));
    }

    #[test]
    fn engine_runs_small_campaign() {
        let mut c = Campaign::new("smoke", 7);
        c.add_trials(5, |i, _seed| {
            RunSpec::new(
                apf_patterns::asymmetric_configuration(7, 10 + i),
                apf_patterns::random_pattern(7, 20 + i),
            )
            .scheduler(SchedulerKind::RoundRobin)
            .budget(200_000)
        });
        let report = Engine::new().jobs(2).collect_results(true).run(&c);
        assert_eq!(report.trials, 5);
        assert_eq!(report.stats.runs(), 5);
        assert_eq!(report.results.as_ref().unwrap().len(), 5);
        let agg = report.aggregate();
        assert!(agg.success > 0.0);
    }
}
