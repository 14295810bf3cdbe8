//! Re-running jobs on the direct engine after the window: the digest check
//! of every run, and in a traced run the per-layer attribution.
//!
//! A traced run re-executes a fixed set of jobs twice each, once plain and
//! once with `Engine::profile_spans` (the program's own kernel and
//! Look/Compute/Move spans), alternating which goes first. The plain
//! executions give the tracing overhead; the profiled ones give the layer
//! times; the set being fixed makes every count exact and repeatable.

use crate::metrics::{Sheet, KERNELS};
use crate::spans::SpanLog;
use crate::workload::ENGINE_WORKERS;
use apf_bench::engine::{Campaign, CampaignReport, Engine, StreamingAggregate};
use apf_bench::profile::SpanProfile;
use apf_trace::span::SpanLabel;
use apf_trace::PhaseKind;
use std::time::Instant;

/// One job to re-run and the digests its first execution produced.
pub struct Rerun {
    pub label: String,
    pub campaign: Campaign,
    pub expected: Vec<u64>,
}

/// What the re-runs measured.
#[derive(Default)]
pub struct Attribution {
    /// Phase totals of the plain re-runs, merged in job order.
    pub stats: StreamingAggregate,
    profile: Option<SpanProfile>,
    plain_s: f64,
    traced_s: f64,
    build_world_s: f64,
    fold_s: f64,
    trials: u64,
    jobs: u64,
    load: Load,
}

/// Worker time, worker capacity and the slowest trial over engine runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Load {
    busy_s: f64,
    capacity_s: f64,
    longest_s: f64,
}

impl Load {
    pub fn add(&mut self, report: &CampaignReport) {
        self.busy_s += report.workers.iter().map(|w| w.busy.as_secs_f64()).sum::<f64>();
        self.capacity_s += report.wall.as_secs_f64() * report.workers.len() as f64;
        if let Some((_, d)) = report.longest_trial {
            self.longest_s = self.longest_s.max(d.as_secs_f64());
        }
    }

    /// Sets `engine.utilization` and `engine.longest_trial_s`.
    pub fn fill(&self, layers: &mut Sheet) {
        layers.set("engine.utilization", self.busy_s / self.capacity_s);
        layers.set("engine.longest_trial_s", self.longest_s);
    }
}

/// Re-runs `jobs` in order, checking each execution's digests against the
/// expected ones. With `profile`, each job also runs with spans on.
pub fn rerun(
    jobs: &[Rerun],
    profile: bool,
    spans: &mut SpanLog,
    problems: &mut Vec<String>,
) -> Attribution {
    let plain = Engine::new().jobs(ENGINE_WORKERS).trace_digests(true).collect_results(true);
    let traced = plain.clone().profile_spans(true);
    let mut a = Attribution { profile: profile.then(SpanProfile::new), ..Attribution::default() };
    for (i, job) in jobs.iter().enumerate() {
        let parent = spans.begin("rerun.job", None, Some(i as u64));
        let order: &[bool] = match (profile, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &profiled in order {
            let (engine, name) =
                if profiled { (&traced, "rerun.traced") } else { (&plain, "rerun.plain") };
            let span = spans.begin(name, parent, Some(i as u64));
            let t = Instant::now();
            let report = engine.run(&job.campaign);
            let wall = t.elapsed().as_secs_f64();
            spans.end(span);
            if report.digests.as_deref() != Some(job.expected.as_slice()) {
                let run = if profiled { "traced re-run" } else { "re-run" };
                problems
                    .push(format!("{}: {run} digests differ from the first execution", job.label));
            }
            if profiled {
                a.traced_s += wall;
                if let (Some(total), Some(p)) = (a.profile.as_mut(), report.profile.as_ref()) {
                    total.merge(p);
                }
            } else {
                a.plain_s += wall;
                a.account(&report);
                if profile {
                    a.time_layers(job, &report, spans, parent, problems);
                }
            }
        }
        spans.end(parent);
    }
    a
}

impl Attribution {
    fn account(&mut self, report: &CampaignReport) {
        self.stats.merge(&report.stats);
        self.trials += report.trials as u64;
        self.jobs += 1;
        self.load.add(report);
    }

    /// Times world construction and the result fold from outside, through
    /// `RunSpec::build_world` and `StreamingAggregate::replay`.
    fn time_layers(
        &mut self,
        job: &Rerun,
        report: &CampaignReport,
        spans: &mut SpanLog,
        parent: Option<usize>,
        problems: &mut Vec<String>,
    ) {
        let span = spans.begin("build_world", parent, None);
        let t = Instant::now();
        for spec in job.campaign.specs() {
            std::hint::black_box(spec.build_world().is_ok());
        }
        self.build_world_s += t.elapsed().as_secs_f64();
        spans.end(span);

        let results = report.results.as_deref().unwrap_or_default();
        let span = spans.begin("fold", parent, None);
        let t = Instant::now();
        let replayed = StreamingAggregate::replay(results, 1 << 16);
        self.fold_s += t.elapsed().as_secs_f64();
        spans.end(span);
        if replayed != report.stats {
            problems
                .push(format!("{}: replaying the results does not reproduce the fold", job.label));
        }
    }

    /// Fills the geometry, core, sim, engine and trace metrics.
    pub fn fill(&self, layers: &mut Sheet) {
        let empty = SpanProfile::new();
        let p = self.profile.as_ref().unwrap_or(&empty);
        let label = |l: SpanLabel| p.label(l).cloned().unwrap_or_default();
        let all_self: u64 = SpanLabel::ALL.into_iter().map(|l| label(l).self_ns).sum();
        for (name, l) in KERNELS.into_iter().zip([
            SpanLabel::Sec,
            SpanLabel::Views,
            SpanLabel::Rho,
            SpanLabel::Regular,
            SpanLabel::Shifted,
        ]) {
            let s = label(l);
            layers.set(&format!("geometry.{name}.calls"), s.count() as f64);
            layers.set(&format!("geometry.{name}.self_s"), s.self_ns as f64 / 1e9);
            layers.set(&format!("geometry.{name}.mean_us"), s.welford.mean() / 1e3);
        }
        layers.set(
            "geometry.shifted.share",
            label(SpanLabel::Shifted).self_ns as f64 / all_self as f64,
        );
        layers.set("core.compute_self_s", label(SpanLabel::Compute).self_ns as f64 / 1e9);
        for kind in PhaseKind::ALL {
            layers
                .set(&format!("core.{}.cycles", kind.label()), self.stats.phase_cycles_total(kind));
        }
        let (bits, cycles) = election(&self.stats);
        layers.set("core.rsb-election.bits", bits);
        layers.set("core.bits_per_election_cycle", bits / cycles);
        layers.set("sim.look.calls", label(SpanLabel::Look).count() as f64);
        layers.set("sim.compute.calls", label(SpanLabel::Compute).count() as f64);
        layers.set("sim.move.calls", label(SpanLabel::Move).count() as f64);
        layers.set("sim.look.self_s", label(SpanLabel::Look).self_ns as f64 / 1e9);
        layers.set("sim.move.self_s", label(SpanLabel::Move).self_ns as f64 / 1e9);
        layers.set("engine.trials", self.trials as f64);
        self.load.fill(layers);
        layers.set("engine.build_world_us", self.build_world_s * 1e6 / self.trials as f64);
        layers.set("engine.fold_us", self.fold_s * 1e6 / self.jobs as f64);
        layers.set("trace.overhead_frac", self.traced_s / self.plain_s - 1.0);
    }
}

/// Random bits drawn and cycles spent in the election phase (formed trials).
pub fn election(stats: &StreamingAggregate) -> (f64, f64) {
    (
        stats.phase_bits_total(PhaseKind::RsbElection),
        stats.phase_cycles_total(PhaseKind::RsbElection),
    )
}
