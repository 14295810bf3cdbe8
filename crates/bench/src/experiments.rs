//! The E1–E9 experiment suite (see DESIGN.md's experiment index).
//!
//! Every experiment regenerates one table of EXPERIMENTS.md; each maps to a
//! formal claim of the paper. `quick` mode shrinks seeds/sizes for CI.
//!
//! Trials are described by [`RunSpec`], grouped per table row into
//! [`Campaign`]s, and executed by the deterministic parallel [`Engine`] —
//! tables are bit-identical for any `--jobs` value. Instance generators are
//! seeded by the **trial index** (stable across campaign seeds); world/
//! scheduler randomness comes from the campaign-derived per-trial seed.

use crate::engine::{trace_failures, AlgorithmSpec, Campaign, Engine, RunSpec};
use crate::profile::SpanProfile;
use crate::report::{ExperimentReport, PhaseLine};
use crate::Aggregate;
use apf_geometry::{Configuration, Tol};
use apf_scheduler::{AsyncConfig, SchedulerKind};
use apf_trace::PhaseKind;
use std::path::PathBuf;
use std::time::Instant;

/// Traces dumped per campaign (row) under `--trace-out`: enough to debug a
/// failure mode without re-tracing an entire sweep.
const MAX_TRACES_PER_ROW: usize = 2;

/// Shared experiment context: CI-speed mode plus the engine's worker count.
#[derive(Debug, Clone, Default)]
pub struct ExpCtx {
    /// Shrink seeds/sizes for CI-speed runs.
    pub quick: bool,
    /// Engine worker threads (0 = auto-detect).
    pub jobs: usize,
    /// Dump JSONL traces of failed/outlier trials into this directory.
    pub trace_out: Option<PathBuf>,
    /// Print a live per-campaign progress line to stderr.
    pub progress: bool,
    /// Record wall-time spans and surface per-kernel latency tables.
    pub profile: bool,
}

impl ExpCtx {
    /// The engine every experiment runs on.
    pub fn engine(&self) -> Engine {
        Engine::new()
            .jobs(self.jobs)
            .progress(self.progress)
            .collect_results(self.trace_out.is_some())
            .profile_spans(self.profile)
    }

    fn seeds(&self, full: u64) -> u64 {
        if self.quick {
            8.min(full)
        } else {
            full
        }
    }
}

/// Per-experiment accounting shared by every table row: trial totals, the
/// per-phase cycle/bit breakdown, and `--trace-out` trace dumping.
struct Rows {
    engine: Engine,
    trace_out: Option<PathBuf>,
    trials: usize,
    phase_cycles: [f64; PhaseKind::COUNT],
    phase_bits: [f64; PhaseKind::COUNT],
    profile: SpanProfile,
    traces: Vec<String>,
}

impl Rows {
    fn new(ctx: &ExpCtx) -> Self {
        Rows {
            engine: ctx.engine(),
            trace_out: ctx.trace_out.clone(),
            trials: 0,
            phase_cycles: [0.0; PhaseKind::COUNT],
            phase_bits: [0.0; PhaseKind::COUNT],
            profile: SpanProfile::new(),
            traces: Vec::new(),
        }
    }

    /// Runs one campaign (one table row) and folds it into the accounting.
    fn row(&mut self, campaign: &Campaign) -> Aggregate {
        let report = self.engine.run(campaign);
        self.trials += report.trials;
        for kind in PhaseKind::ALL {
            self.phase_cycles[kind.index()] += report.stats.phase_cycles_total(kind);
            self.phase_bits[kind.index()] += report.stats.phase_bits_total(kind);
        }
        if let Some(p) = &report.profile {
            self.profile.merge(p);
        }
        if let (Some(dir), Some(results)) = (&self.trace_out, &report.results) {
            match trace_failures(campaign, results, dir, MAX_TRACES_PER_ROW) {
                Ok(paths) => {
                    self.traces.extend(paths.iter().map(|p| p.display().to_string()));
                }
                Err(e) => eprintln!("warning: cannot write traces for {}: {e}", campaign.name()),
            }
        }
        report.aggregate()
    }

    /// Finishes the experiment's report.
    fn report(
        self,
        id: &str,
        title: &str,
        header: &[&str],
        rows: Vec<Vec<String>>,
        t0: Instant,
    ) -> ExperimentReport {
        let phases = PhaseKind::ALL
            .into_iter()
            .filter(|k| self.phase_cycles[k.index()] > 0.0 || self.phase_bits[k.index()] > 0.0)
            .map(|k| PhaseLine {
                label: k.label().to_string(),
                cycles: self.phase_cycles[k.index()],
                bits: self.phase_bits[k.index()],
            })
            .collect();
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows,
            trials: self.trials,
            wall_s: t0.elapsed().as_secs_f64(),
            phases,
            kernels: self.profile.rows(),
            traces: self.traces,
        }
    }
}

/// An experiment entry point.
pub type ExpFn = fn(&ExpCtx) -> ExperimentReport;

/// Every experiment: `(id, one-line description, entry point)`.
pub const REGISTRY: &[(&str, &str, ExpFn)] = &[
    ("e1", "election terminates with probability 1 (Lemmas 1-2)", e1),
    ("e2", "random bits: 1 bit/cycle (ours) vs continuous draws (YY-style)", e2),
    ("e3", "arbitrary pattern formation across schedulers (Theorem 2)", e3),
    ("e4", "ASYNC adversary with pauses, sweeping minimum progress delta", e4),
    ("e5", "chirality independence: mirrored/rotated frames", e5),
    ("e6", "rho(I) does not divide rho(F): randomized vs deterministic", e6),
    ("e7", "multiplicity-point patterns with detection (Appendix C)", e7),
    ("e8", "adversary ablation: ASYNC pause probability", e8),
    ("e9", "analysis kernel cost (timing, no Monte Carlo trials)", e9),
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<ExpFn> {
    REGISTRY.iter().find(|(name, _, _)| *name == id).map(|&(_, _, f)| f)
}

/// E1 — Election terminates with probability 1 (Lemmas 1–2): cycles to
/// completion from worst-case symmetric configurations, sweeping `n`.
pub fn e1(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rr = Rows::new(ctx);
    let sizes: &[(usize, usize)] =
        if ctx.quick { &[(8, 4), (12, 4)] } else { &[(8, 2), (8, 4), (12, 4), (16, 4), (20, 4)] };
    let mut rows = Vec::new();
    for &(n, rho) in sizes {
        let mut c = Campaign::new(format!("e1 n={n} rho={rho}"), 1);
        c.add_trials(ctx.seeds(16), |i, _seed| {
            RunSpec::new(
                apf_patterns::symmetric_configuration(n, rho, 1000 + i),
                apf_patterns::random_pattern(n, 2000 + i),
            )
            .scheduler(SchedulerKind::RoundRobin)
            .budget(2_000_000)
        });
        let a = rr.row(&c);
        rows.push(vec![
            n.to_string(),
            rho.to_string(),
            format!("{:.2}", a.success),
            format!("{:.0}", a.mean_cycles),
            format!("{:.0}", a.median_cycles),
            format!("{:.0}", a.p95_cycles),
            format!("{:.1}", a.mean_bits),
        ]);
    }
    rr.report(
        "e1",
        "E1: formation from symmetric configs (election path), probability-1 termination",
        &["n", "rho(I)", "success", "mean cyc", "med cyc", "p95 cyc", "mean bits"],
        rows,
        t0,
    )
}

/// E2 — Randomness budget: 1 bit/cycle (ours) vs continuous draws (YY-style).
pub fn e2(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rr = Rows::new(ctx);
    let mut rows = Vec::new();
    for &n in if ctx.quick { &[8usize, 12][..] } else { &[8usize, 12, 16, 24][..] } {
        let rho = if n % 4 == 0 { 4 } else { 3 };
        let spec = |i: u64| {
            RunSpec::new(
                apf_patterns::symmetric_configuration(n, rho, 3000 + i),
                apf_patterns::random_pattern(n, 4000 + i),
            )
            .scheduler(SchedulerKind::RoundRobin)
            .budget(2_000_000)
        };
        let mut ours = Campaign::new(format!("e2 ours n={n}"), 2);
        ours.add_trials(ctx.seeds(16), |i, _| spec(i));
        let mut yy = Campaign::new(format!("e2 yy n={n}"), 2);
        yy.add_trials(ctx.seeds(16), |i, _| spec(i).algorithm(AlgorithmSpec::YyStyle));
        let ao = rr.row(&ours);
        let ay = rr.row(&yy);
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", ao.success),
            format!("{:.1}", ao.mean_bits),
            format!("{:.3}", ao.bits_per_cycle),
            format!("{:.2}", ay.success),
            format!("{:.1}", ay.mean_bits),
            format!("{:.3}", ay.bits_per_cycle),
            format!(
                "{:.0}x",
                if ao.mean_bits > 0.0 { ay.mean_bits / ao.mean_bits } else { f64::NAN }
            ),
        ]);
    }
    rr.report(
        "e2",
        "E2: random bits — ours (1 bit/active election cycle) vs YY-style (64-bit continuous draws)",
        &["n", "ours ok", "ours bits", "ours b/cyc", "yy ok", "yy bits", "yy b/cyc", "ratio"],
        rows,
        t0,
    )
}

/// E3 — Theorem 2: any pattern from any configuration, across schedulers.
pub fn e3(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rr = Rows::new(ctx);
    let mut rows = Vec::new();
    let kinds = [
        SchedulerKind::Fsync,
        SchedulerKind::Ssync,
        SchedulerKind::Async,
        SchedulerKind::RoundRobin,
    ];
    for kind in kinds {
        for &(n, sym) in if ctx.quick {
            &[(8usize, false), (8, true)][..]
        } else {
            &[(8usize, false), (8, true), (16, false), (16, true)][..]
        } {
            let mut c = Campaign::new(format!("e3 {kind} n={n} sym={sym}"), 3);
            c.add_trials(ctx.seeds(10), |i, _| {
                let init = if sym {
                    apf_patterns::symmetric_configuration(n, 4, 5000 + i)
                } else {
                    apf_patterns::asymmetric_configuration(n, 5000 + i)
                };
                RunSpec::new(init, apf_patterns::random_pattern(n, 6000 + i))
                    .scheduler(kind)
                    .budget(600_000)
            });
            let a = rr.row(&c);
            rows.push(vec![
                kind.to_string(),
                n.to_string(),
                if sym { "ρ=4".into() } else { "ρ=1".to_string() },
                format!("{:.2}", a.success),
                format!("{:.0}", a.mean_cycles),
                format!("{:.0}", a.p95_cycles),
            ]);
        }
    }
    rr.report(
        "e3",
        "E3: arbitrary pattern formation across execution models (Theorem 2)",
        &["scheduler", "n", "sym", "success", "mean cyc", "p95 cyc"],
        rows,
        t0,
    )
}

/// E4 — Full asynchrony with pauses and tiny δ (non-rigid movement).
pub fn e4(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rr = Rows::new(ctx);
    let mut rows = Vec::new();
    let deltas: &[f64] = if ctx.quick { &[1e-1, 1e-3] } else { &[1.0, 1e-1, 1e-2, 1e-3, 1e-4] };
    for &delta in deltas {
        let mut c = Campaign::new(format!("e4 delta={delta:.0e}"), 4);
        c.add_trials(ctx.seeds(12), |i, _| {
            RunSpec::new(
                apf_patterns::symmetric_configuration(8, 4, 7000 + i),
                apf_patterns::random_pattern(8, 8000 + i),
            )
            .scheduler(SchedulerKind::Async)
            .delta(delta)
            .budget(1_000_000)
        });
        let a = rr.row(&c);
        rows.push(vec![
            format!("{delta:.0e}"),
            format!("{:.2}", a.success),
            format!("{:.0}", a.mean_cycles),
            format!("{:.0}", a.p95_cycles),
            format!("{:.1}", a.mean_bits),
        ]);
    }
    rr.report(
        "e4",
        "E4: ASYNC adversary with pauses, sweeping the minimum-progress δ",
        &["delta", "success", "mean cyc", "p95 cyc", "mean bits"],
        rows,
        t0,
    )
}

/// E5 — Chirality independence: random per-robot handedness vs a shared
/// global frame; identical success for ours.
pub fn e5(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rr = Rows::new(ctx);
    let mut rows = Vec::new();
    for (label, randomize) in [("shared frame", false), ("random chirality", true)] {
        for &sym in &[false, true] {
            let mut c = Campaign::new(format!("e5 {label} sym={sym}"), 5);
            c.add_trials(ctx.seeds(16), |i, _| {
                let init = if sym {
                    apf_patterns::symmetric_configuration(8, 4, 9000 + i)
                } else {
                    apf_patterns::asymmetric_configuration(8, 9000 + i)
                };
                RunSpec::new(init, apf_patterns::random_pattern(8, 9500 + i))
                    .scheduler(SchedulerKind::RoundRobin)
                    .randomize_frames(randomize)
                    .budget(2_000_000)
            });
            let a = rr.row(&c);
            rows.push(vec![
                label.to_string(),
                if sym { "ρ=4".into() } else { "ρ=1".to_string() },
                format!("{:.2}", a.success),
                format!("{:.0}", a.mean_cycles),
            ]);
        }
    }
    rr.report(
        "e5",
        "E5: no chirality assumption — identical success with mirrored/rotated frames",
        &["frames", "sym", "success", "mean cyc"],
        rows,
        t0,
    )
}

/// E6 — Forming patterns with `ρ(I) ∤ ρ(F)`: impossible deterministically,
/// done by the randomized algorithm.
pub fn e6(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rr = Rows::new(ctx);
    let mut rows = Vec::new();
    for &(n, rho) in if ctx.quick {
        &[(8usize, 4usize)][..]
    } else {
        &[(8usize, 2usize), (8, 4), (9, 3), (12, 6)][..]
    } {
        let spec = |i: u64| {
            let init = apf_patterns::symmetric_configuration(n, rho, 11_000 + i);
            // ρ(F) = 1 targets: ρ(I) does not divide ρ(F).
            let pat = apf_patterns::random_pattern(n, 12_000 + i);
            RunSpec::new(init, pat).scheduler(SchedulerKind::RoundRobin)
        };
        let mut ours = Campaign::new(format!("e6 ours n={n}"), 6);
        ours.add_trials(ctx.seeds(12), |i, _| spec(i).budget(2_000_000));
        let mut det = Campaign::new(format!("e6 det n={n}"), 6);
        det.add_trials(ctx.seeds(12), |i, _| {
            // It stalls by design; a short budget proves it.
            spec(i).algorithm(AlgorithmSpec::Deterministic).budget(5_000)
        });
        let ao = rr.row(&ours);
        let ad = rr.row(&det);
        rows.push(vec![
            n.to_string(),
            rho.to_string(),
            "1".into(),
            format!("{:.2}", ao.success),
            format!("{:.2}", ad.success),
        ]);
    }
    rr.report(
        "e6",
        "E6: ρ(I) ∤ ρ(F) instances — randomized succeeds, deterministic cannot",
        &["n", "rho(I)", "rho(F)", "ours success", "deterministic success"],
        rows,
        t0,
    )
}

/// E7 — Patterns with multiplicity points (Section 5 / Appendix C).
pub fn e7(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rr = Rows::new(ctx);
    let mut rows = Vec::new();
    let cases: &[(usize, usize, bool)] = if ctx.quick {
        &[(8, 6, false), (8, 6, true)]
    } else {
        &[(8, 6, false), (8, 6, true), (12, 9, false), (12, 8, true)]
    };
    for &(n, distinct, center) in cases {
        let mut c = Campaign::new(format!("e7 n={n} distinct={distinct} center={center}"), 7);
        c.add_trials(ctx.seeds(12), |i, _| {
            let init = apf_patterns::asymmetric_configuration(n, 13_000 + i);
            let mut pat = apf_patterns::pattern_with_multiplicity(n, distinct, 14_000 + i);
            if center {
                // Relocate the heaviest multiplicity group to the pattern
                // center.
                let cfg = Configuration::new(pat.clone());
                let c = cfg.sec().center;
                let groups = cfg.multiplicity_groups(&Tol::default());
                // apf-lint: allow(panic-policy) — pattern_with_multiplicity always yields ≥ 1 group
                let (_, members) = groups.iter().max_by_key(|(_, m)| m.len()).unwrap().clone();
                for i in members {
                    pat[i] = c;
                }
            }
            RunSpec::new(init, pat)
                .scheduler(SchedulerKind::RoundRobin)
                .multiplicity_detection(true)
                .budget(2_000_000)
        });
        let a = rr.row(&c);
        rows.push(vec![
            n.to_string(),
            distinct.to_string(),
            if center { "yes".into() } else { "no".to_string() },
            format!("{:.2}", a.success),
            format!("{:.0}", a.mean_cycles),
        ]);
    }
    rr.report(
        "e7",
        "E7: multiplicity-point patterns with multiplicity detection (Appendix C)",
        &["n", "distinct", "center mult", "success", "mean cyc"],
        rows,
        t0,
    )
}

/// E8 — Ablation of the adversary knobs (pause probability, batch size).
pub fn e8(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rr = Rows::new(ctx);
    let mut rows = Vec::new();
    let pauses: &[f64] = if ctx.quick { &[0.0, 0.5] } else { &[0.0, 0.25, 0.5, 0.75, 0.9] };
    for &pause in pauses {
        let mut c = Campaign::new(format!("e8 pause={pause:.2}"), 8);
        c.add_trials(ctx.seeds(12), |i, _| {
            RunSpec::new(
                apf_patterns::symmetric_configuration(8, 4, 15_000 + i),
                apf_patterns::random_pattern(8, 16_000 + i),
            )
            .scheduler(SchedulerKind::Async)
            .async_config(AsyncConfig { pause_prob: pause, ..AsyncConfig::default() })
            .budget(3_000_000)
        });
        let a = rr.row(&c);
        rows.push(vec![
            format!("{pause:.2}"),
            format!("{:.2}", a.success),
            format!("{:.0}", a.mean_cycles),
            format!("{:.0}", a.p95_cycles),
        ]);
    }
    rr.report(
        "e8",
        "E8: adversary ablation — pause probability of the ASYNC scheduler",
        &["pause prob", "success", "mean cyc", "p95 cyc"],
        rows,
        t0,
    )
}

/// Times the five geometry kernels on E9's input, the asymmetric
/// configuration `asymmetric_configuration(n, 17_000 + n)` (n at least 3):
/// runs each kernel `reps` times (at least once) and returns µs per call in
/// the order SEC, ρ, views, reg(P), shifted. E9 (whose `n = 32` and
/// `n = 128` rows `scripts/bench_snapshot.sh` reads for each
/// `BENCH_<PR>.json`) and `apf-cli profile --kernels` both time through this
/// function; with a span sink installed the kernels' own spans are recorded
/// too.
pub fn time_kernels(n: usize, reps: u32) -> [f64; 5] {
    let n = n.max(3);
    let reps = reps.max(1);
    let pts = apf_patterns::asymmetric_configuration(n, 17_000 + n as u64);
    let cfg = Configuration::new(pts.clone());
    let tol = Tol::default();
    let center = cfg.sec().center;
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() / f64::from(reps) * 1e6
    };
    [
        time(&mut || {
            let _ = apf_geometry::smallest_enclosing_circle(&pts);
        }),
        time(&mut || {
            let _ = apf_geometry::symmetry::symmetricity(&cfg, center, &tol);
        }),
        time(&mut || {
            let _ = apf_geometry::symmetry::ViewAnalysis::compute(&cfg, center, &tol);
        }),
        time(&mut || {
            let _ = apf_geometry::symmetry::regular_set_of(&cfg, &tol);
        }),
        time(&mut || {
            let _ = apf_geometry::symmetry::find_shifted_regular(&cfg, &tol);
        }),
    ]
}

/// E9 — Analysis-kernel scalability: wall time of the geometric kernels.
///
/// Timing-only (no Monte Carlo trials), so it stays sequential: parallel
/// workers would perturb the very wall-clock numbers it reports.
pub fn e9(ctx: &ExpCtx) -> ExperimentReport {
    let t0 = Instant::now();
    let mut rows = Vec::new();
    // Under --profile the kernels' own spans are collected too (the
    // kernels run on this thread, so the sink installs here).
    let profile_handle = ctx.profile.then(|| {
        let handle = std::sync::Arc::new(std::sync::Mutex::new(SpanProfile::new()));
        drop(apf_trace::span::install(Box::new(std::sync::Arc::clone(&handle))));
        handle
    });
    let sizes: &[usize] = if ctx.quick { &[8, 32] } else { &[8, 16, 32, 64, 128, 256] };
    for &n in sizes {
        let micros = time_kernels(n, if ctx.quick { 5 } else { 20 });
        let mut row = vec![n.to_string()];
        row.extend(micros.iter().map(|us| format!("{us:.1}")));
        rows.push(row);
    }
    let kernels = profile_handle
        .map(|handle| {
            drop(apf_trace::span::take());
            // apf-lint: allow(panic-policy) — only this thread recorded into the handle, so the lock cannot be poisoned
            handle.lock().expect("span profile lock").rows()
        })
        .unwrap_or_default();
    ExperimentReport {
        id: "e9".into(),
        title: "E9: analysis kernel cost (µs per call, asymmetric configs)".into(),
        header: ["n", "SEC", "rho", "views", "reg(P)", "shifted"].map(String::from).to_vec(),
        rows,
        trials: 0,
        wall_s: t0.elapsed().as_secs_f64(),
        phases: Vec::new(),
        kernels,
        traces: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = REGISTRY.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"]);
    }

    #[test]
    fn find_resolves_known_ids_only() {
        assert!(find("e1").is_some());
        assert!(find("e9").is_some());
        assert!(find("e10").is_none());
        assert!(find("all").is_none());
    }
}
