//! Direct workloads: a stream of campaigns on one `Engine`.

use crate::attrib::Load;
use crate::host::Timeline;
use crate::run::{JobRecord, Window};
use crate::spans::SpanLog;
use crate::workload::{direct_job, Scale, Workload, ENGINE_WORKERS};
use apf_bench::engine::{Campaign, Engine};
use std::time::Instant;

/// Generates and validates the job pool (every trial's world is built once,
/// as a careful caller would before a long campaign).
fn setup(w: Workload, seed: u64, pool: usize, problems: &mut Vec<String>) -> Vec<Campaign> {
    let jobs: Vec<Campaign> = (0..pool).map(|k| direct_job(w, seed, k)).collect();
    for (k, job) in jobs.iter().enumerate() {
        for spec in job.specs() {
            if let Err(e) = spec.build_world() {
                problems.push(format!("job {k} has an invalid trial: {e}"));
            }
        }
    }
    jobs
}

/// Runs the timed window: jobs back to back, in `scale.segments` segments
/// of equal length (see [`crate::host`]); the last one also runs until at
/// least `min_jobs` are done.
pub fn run(
    w: Workload,
    seed: u64,
    scale: Scale,
    window: f64,
    probing: bool,
    spans: &mut SpanLog,
) -> Window {
    let mut out = Window::default();
    let mut pool = Vec::new();
    for _ in 0..scale.setup_reps {
        let span = spans.begin("setup", None, None);
        let t = Instant::now();
        pool = setup(w, seed, scale.pool, &mut out.problems);
        out.setup.push(t.elapsed().as_secs_f64());
        spans.end(span);
    }

    let engine = Engine::new().jobs(ENGINE_WORKERS).trace_digests(true);
    let mut load = Load::default();
    let mut timeline = Timeline::start(probing);
    let mut k = 0;
    for segment in 0..scale.segments {
        let last = segment + 1 == scale.segments;
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < window / scale.segments as f64
            || (last && k < scale.min_jobs)
        {
            let spec = k % pool.len();
            let span = spans.begin("engine.run", None, Some(k as u64));
            let t = Instant::now();
            let report = engine.run(&pool[spec]);
            let latency = t.elapsed();
            spans.end(span);
            out.attempted += 1;
            load.add(&report);
            let stats = &report.stats;
            let digests = report.digests.clone().unwrap_or_default();
            // A run that outlasts the pool repeats it: a repetition must
            // reproduce its first execution exactly.
            if let Some(first) = out.records.iter().find(|r| r.spec == spec) {
                if first.digests != digests {
                    out.problems.push(format!("job {spec} repeated with different digests"));
                }
            }
            out.records.push(JobRecord {
                client: 0,
                index: k,
                spec,
                segment,
                latency,
                trials: report.trials as u64,
                cycles: stats.cycles().mean() * stats.formed() as f64,
                hit: false,
                digests,
            });
            out.stats.merge(stats);
            k += 1;
        }
        timeline.close(t0.elapsed().as_secs_f64());
    }
    out.load = Some(load);
    out.timeline = timeline;
    out
}
