//! One run of one workload: set-up, the timed window, the re-run checks,
//! and the metrics computed from them.

use crate::attrib::{self, Load, Rerun};
use crate::host::Timeline;
use crate::metrics::{self, Sheet};
use crate::spans::SpanLog;
use crate::stats::{fnv_fold, median, percentile, sorted, FNV_BASIS};
use crate::workload::{direct_job, served_spec, Scale, Workload};
use crate::{direct, served};
use apf_bench::engine::StreamingAggregate;
use std::time::{Duration, Instant};

/// One job as its submitter saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The submitting client (0 for direct workloads).
    pub client: usize,
    /// Submission index within the client's stream.
    pub index: usize,
    /// Index of the spec in the client's input stream (repeats share it).
    pub spec: usize,
    /// The window segment the job completed in.
    pub segment: usize,
    /// Submit (or engine call) to result.
    pub latency: Duration,
    pub trials: u64,
    /// LCM cycles of the formed trials.
    pub cycles: f64,
    /// Answered from the service's result cache.
    pub hit: bool,
    pub digests: Vec<u64>,
}

/// What the timed window of a workload produced.
#[derive(Default)]
pub struct Window {
    pub records: Vec<JobRecord>,
    /// Seconds per set-up repetition.
    pub setup: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Phase totals of the window's own engine runs (direct workloads).
    pub stats: StreamingAggregate,
    /// Engine load over the window (direct workloads; served ones run the
    /// engine inside the server).
    pub load: Option<Load>,
    /// The window's segments and host probes.
    pub timeline: Timeline,
}

/// Everything a run reports.
pub struct Outcome {
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub output_digest: u64,
    pub spans: SpanLog,
    pub timeline: Timeline,
}

/// Runs workload `w` once. Untraced runs fill the end-to-end sheet;
/// traced runs spend half the time on the window and the rest re-running
/// a fixed set of jobs with the program's spans on, and fill the per-layer
/// sheet.
pub fn run(w: Workload, seed: u64, scale: Scale, trace: bool) -> Outcome {
    let mut spans = SpanLog::new(trace, Instant::now());
    let mut layers = Sheet::new(metrics::per_layer());
    let window_s = if trace { scale.seconds / 2.0 } else { scale.seconds };
    // Traced runs report no timing that is scaled, so they skip the probes.
    let mut window = if w.is_served() {
        served::run(w, seed, scale, window_s, trace, &mut spans, &mut layers)
    } else {
        direct::run(w, seed, scale, window_s, !trace, &mut spans)
    };

    let reruns = rerun_set(w, seed, scale, trace, &window.records);
    let attribution = attrib::rerun(&reruns, trace, &mut spans, &mut window.problems);
    if !window.records.is_empty() && reruns.is_empty() {
        window.problems.push("no job was re-run".to_string());
    }
    for (stats, what) in [(&window.stats, "window"), (&attribution.stats, "re-runs")] {
        let (bits, cycles) = attrib::election(stats);
        if bits > cycles {
            window.problems.push(format!(
                "{what}: {bits} election bits over {cycles} election cycles breaks Theorem 1"
            ));
        }
    }

    let sheet = if trace {
        attribution.fill(&mut layers);
        if let Some(load) = window.load {
            load.fill(&mut layers);
        }
        layers
    } else {
        end_to_end(&window)
    };
    Outcome {
        output_digest: output_digest(&window.records, scale.min_jobs),
        sheet,
        attempted: window.attempted,
        failed: window.failed,
        problems: window.problems,
        spans,
        timeline: window.timeline,
    }
}

/// The jobs re-run on the direct engine after the window. Untraced: one
/// executed job in eight, a spot check of determinism. Traced: the first
/// `attrib_jobs` executed specs, a fixed set every run of the seed
/// completes (the window runs at least `min_jobs` per client).
fn rerun_set(
    w: Workload,
    seed: u64,
    scale: Scale,
    trace: bool,
    records: &[JobRecord],
) -> Vec<Rerun> {
    let mut firsts: Vec<&JobRecord> = records.iter().filter(|r| !r.hit).collect();
    firsts.sort_by_key(|r| (r.spec, r.client, r.index));
    firsts.dedup_by_key(|r| (r.spec, r.client));
    let chosen: Vec<&JobRecord> = if trace {
        firsts.into_iter().take(scale.attrib_jobs).collect()
    } else {
        firsts.into_iter().filter(|r| r.spec % 8 == 0).collect()
    };
    chosen
        .into_iter()
        .map(|r| Rerun {
            label: format!("client {} spec {}", r.client, r.spec),
            campaign: if w.is_served() {
                served_spec(w, seed, r.client, r.spec).to_campaign()
            } else {
                direct_job(w, seed, r.spec)
            },
            expected: r.digests.clone(),
        })
        .collect()
}

/// FNV fold of the per-trial digests of each client's first `min_jobs`
/// submissions: the same set on every run of a seed, whatever the clock.
fn output_digest(records: &[JobRecord], min_jobs: usize) -> u64 {
    let mut first: Vec<&JobRecord> = records.iter().filter(|r| r.index < min_jobs).collect();
    first.sort_by_key(|r| (r.client, r.index));
    first.iter().flat_map(|r| &r.digests).fold(FNV_BASIS, |h, &d| fnv_fold(h, d))
}

/// The end-to-end sheet. Throughputs are totals over the window's
/// segments, each from its start to its last completion: a median over
/// segments reads noisier across runs, each segment being a small sample
/// of uneven jobs. Every timing is scaled to the nominal host speed, each
/// job's by its own segment's probes (see [`crate::host`]); the note beside a
/// value gives it as measured.
fn end_to_end(window: &Window) -> Sheet {
    let timeline = &window.timeline;
    let mut sheet = Sheet::end_to_end();
    let records = &window.records;
    let (wall, nominal) = (timeline.wall_s(), timeline.nominal_s());
    let jobs = format!("{} jobs in {wall:.3} s", records.len());
    let trials: u64 = records.iter().map(|r| r.trials).sum();
    for (name, done) in [
        ("trials_per_s", trials as f64),
        ("cycles_per_s", records.iter().map(|r| r.cycles).sum::<f64>()),
        ("jobs_per_s", records.len() as f64),
    ] {
        let note = format!("{:.4} as measured; {jobs}", done / wall);
        sheet.note(name, done / nominal, note);
    }
    // Executed jobs' latencies in ms, as measured and scaled.
    let (measured, scaled): (Vec<f64>, Vec<f64>) = records
        .iter()
        .filter(|r| !r.hit)
        .map(|r| {
            let ms = r.latency.as_secs_f64() * 1e3;
            (ms, ms / timeline.slow(r.segment))
        })
        .unzip();
    let (measured, scaled) = (sorted(&measured), sorted(&scaled));
    // p75 is the highest percentile with at least ten jobs beyond it on
    // every workload while the direct ones complete 40 or more jobs a
    // window, as they do at the host's usual speed (26 in a slow hour).
    for (name, q) in [("job_p50_ms", 0.5), ("job_p75_ms", 0.75)] {
        let note = format!("{:.4} as measured; n={}", percentile(&measured, q), measured.len());
        sheet.note(name, percentile(&scaled, q), note);
    }
    let setup = median(&window.setup);
    let shown: Vec<String> = window.setup.iter().map(|v| format!("{v:.4}")).collect();
    let note = format!("{setup:.4} as measured; median of {}", shown.join(" "));
    sheet.note("setup_s", setup / timeline.setup_slow(), note);
    sheet.set("peak_rss_mb", peak_rss_mb());
    sheet
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where `/proc` is
/// missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
