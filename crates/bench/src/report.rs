//! Experiment reports: printable tables plus machine-readable JSON.
//!
//! The JSON goes through the workspace's one codec ([`apf_trace::json`]):
//! a suite object wrapping one object per experiment with its table and
//! throughput accounting, keys sorted.

use crate::print_table;
use crate::profile::{fmt_ns, ProfileRow};
use apf_trace::json::Json;

/// One algorithm phase's share of an experiment's successful trials.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseLine {
    /// The phase label (e.g. `"rsb-election"`).
    pub label: String,
    /// Total LCM cycles spent in this phase.
    pub cycles: f64,
    /// Total random bits drawn in this phase.
    pub bits: f64,
}

impl PhaseLine {
    /// Bits per cycle within this phase (0 when no cycles).
    pub fn bits_per_cycle(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.bits / self.cycles
        }
    }
}

/// One experiment's finished table plus throughput accounting.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (`"e1"` … `"e9"`).
    pub id: String,
    /// Human title (the table caption).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Table rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Monte Carlo trials executed (0 for timing-only experiments).
    pub trials: usize,
    /// Wall-clock seconds for the whole experiment.
    pub wall_s: f64,
    /// Per-phase cycle/bit totals over every successful trial of the
    /// experiment (empty for timing-only experiments).
    pub phases: Vec<PhaseLine>,
    /// Wall-time span statistics per phase/kernel label, hottest first
    /// (empty unless the experiment ran with `--profile`). Timing-noisy by
    /// nature; never part of the deterministic table.
    pub kernels: Vec<ProfileRow>,
    /// JSONL trace files written for failed/outlier trials (`--trace-out`).
    pub traces: Vec<String>,
}

impl ExperimentReport {
    /// Trials per wall-clock second (0 when no trials ran).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_s == 0.0 || self.trials == 0 {
            0.0
        } else {
            self.trials as f64 / self.wall_s
        }
    }

    /// Prints the table, the per-phase breakdown, and a timing footer.
    pub fn print(&self) {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        print_table(&self.title, &header, &self.rows);
        if !self.phases.is_empty() {
            println!("per-phase (successful trials):");
            for p in &self.phases {
                println!(
                    "  {:<14} cycles {:>12.0}  bits {:>10.0}  bits/cycle {:.3}",
                    p.label,
                    p.cycles,
                    p.bits,
                    p.bits_per_cycle()
                );
            }
        }
        if !self.kernels.is_empty() {
            println!("span profile (wall time, hottest first):");
            for k in &self.kernels {
                println!(
                    "  {:<10} count {:>10}  mean {:>9}  p50 {:>9}  p95 {:>9}  max {:>9}  self {:>9}",
                    k.label.label(),
                    k.count,
                    fmt_ns(k.mean_ns),
                    fmt_ns(k.p50_ns as f64),
                    fmt_ns(k.p95_ns as f64),
                    fmt_ns(k.max_ns as f64),
                    fmt_ns(k.self_ns as f64),
                );
            }
        }
        for t in &self.traces {
            println!("trace: {t}");
        }
        if self.trials > 0 {
            println!(
                "[{}] {} trials in {:.2}s ({:.1} trials/s)",
                self.id,
                self.trials,
                self.wall_s,
                self.trials_per_sec()
            );
        } else {
            println!("[{}] completed in {:.2}s", self.id, self.wall_s);
        }
    }

    /// This report as a JSON object.
    pub fn to_json(&self) -> Json {
        let phases = self.phases.iter().map(|p| {
            Json::obj([
                ("phase", Json::str(&p.label)),
                ("cycles", Json::f64(p.cycles)),
                ("bits", Json::f64(p.bits)),
                ("bits_per_cycle", Json::f64(p.bits_per_cycle())),
            ])
        });
        Json::obj([
            ("id", Json::str(&self.id)),
            ("title", Json::str(&self.title)),
            ("header", strings(&self.header)),
            ("rows", Json::Arr(self.rows.iter().map(|row| strings(row)).collect())),
            ("trials", Json::usize(self.trials)),
            ("wall_s", Json::f64(self.wall_s)),
            ("trials_per_sec", Json::f64(self.trials_per_sec())),
            ("phases", Json::Arr(phases.collect())),
            ("kernels", Json::Arr(self.kernels.iter().map(ProfileRow::to_json).collect())),
            ("traces", strings(&self.traces)),
        ])
    }
}

/// A JSON array of strings.
fn strings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(Json::str).collect())
}

/// The whole suite as one JSON document (newline-terminated).
pub fn suite_json(reports: &[ExperimentReport], quick: bool, jobs: usize, wall_s: f64) -> String {
    let doc = Json::obj([
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("jobs", Json::usize(jobs)),
        ("trials", Json::usize(reports.iter().map(|r| r.trials).sum())),
        ("wall_s", Json::f64(wall_s)),
        ("experiments", Json::Arr(reports.iter().map(ExperimentReport::to_json).collect())),
    ]);
    format!("{}\n", doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_trace::json;

    fn sample() -> ExperimentReport {
        ExperimentReport {
            id: "e1".into(),
            title: "title with \"quotes\" and ρ".into(),
            header: vec!["n".into(), "success".into()],
            rows: vec![vec!["8".into(), "1.00".into()]],
            trials: 16,
            wall_s: 2.0,
            phases: vec![PhaseLine { label: "rsb-election".into(), cycles: 100.0, bits: 40.0 }],
            kernels: vec![ProfileRow {
                label: apf_trace::SpanLabel::Shifted,
                count: 12,
                mean_ns: 1500.0,
                p50_ns: 2048,
                p95_ns: 4096,
                max_ns: 3900,
                total_ns: 18_000,
                self_ns: 18_000,
            }],
            traces: vec!["out/e1-trial0-failed.jsonl".into()],
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let j = json::parse(&sample().to_json().render()).expect("report JSON parses");
        let want = json::parse(
            r#"{"id":"e1","title":"title with \"quotes\" and ρ","header":["n","success"],
                "rows":[["8","1.00"]],"trials":16,"wall_s":2,"trials_per_sec":8,
                "phases":[{"phase":"rsb-election","cycles":100,"bits":40,"bits_per_cycle":0.4}],
                "kernels":[{"label":"shifted","count":12,"mean_ns":1500,"p50_ns":2048,
                            "p95_ns":4096,"max_ns":3900,"total_ns":18000,"self_ns":18000}],
                "traces":["out/e1-trial0-failed.jsonl"]}"#,
        );
        assert_eq!(j, want.unwrap());
        assert_eq!(j.get("title").and_then(Json::as_str), Some(sample().title.as_str()));
    }

    #[test]
    fn phase_line_rate_handles_zero_cycles() {
        let p = PhaseLine { label: "gather".into(), cycles: 0.0, bits: 0.0 };
        assert_eq!(p.bits_per_cycle(), 0.0);
    }

    #[test]
    fn suite_json_wraps_reports() {
        let doc = suite_json(&[sample()], true, 4, 2.5);
        assert!(doc.ends_with("}\n") && doc.matches('\n').count() == 1, "one line: {doc}");
        let j = json::parse(&doc).expect("suite JSON parses");
        assert_eq!(j.get("mode").and_then(Json::as_str), Some("quick"));
        assert_eq!(j.get("jobs").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("trials").and_then(Json::as_u64), Some(16));
        assert_eq!(j.get("wall_s").and_then(Json::as_f64), Some(2.5));
        let experiments = j.get("experiments").and_then(Json::as_arr).expect("experiments array");
        assert_eq!(experiments, [json::parse(&sample().to_json().render()).unwrap()]);
    }

    #[test]
    fn zero_trials_report_has_zero_rate() {
        let mut r = sample();
        r.trials = 0;
        assert_eq!(r.trials_per_sec(), 0.0);
    }
}
