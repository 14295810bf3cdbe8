//! Experiment reports: printable tables plus machine-readable JSON.
//!
//! There is no serde in this workspace (offline build), so JSON is emitted
//! by hand — the shape is small and fixed: a suite object wrapping one
//! object per experiment with its table and throughput accounting.

use crate::print_table;
use crate::profile::{fmt_ns, ProfileRow};

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
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        s.push_str(&format!("\"id\":{},", json_string(&self.id)));
        s.push_str(&format!("\"title\":{},", json_string(&self.title)));
        s.push_str(&format!("\"header\":{},", json_string_array(&self.header)));
        s.push_str("\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_string_array(row));
        }
        s.push_str("],");
        s.push_str(&format!("\"trials\":{},", self.trials));
        s.push_str(&format!("\"wall_s\":{},", json_f64(self.wall_s)));
        s.push_str(&format!("\"trials_per_sec\":{},", json_f64(self.trials_per_sec())));
        s.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"phase\":{},\"cycles\":{},\"bits\":{},\"bits_per_cycle\":{}}}",
                json_string(&p.label),
                json_f64(p.cycles),
                json_f64(p.bits),
                json_f64(p.bits_per_cycle())
            ));
        }
        s.push_str("],");
        s.push_str("\"kernels\":[");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"label\":{},\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\
                 \"max_ns\":{},\"total_ns\":{},\"self_ns\":{}}}",
                json_string(k.label.label()),
                k.count,
                json_f64(k.mean_ns),
                k.p50_ns,
                k.p95_ns,
                k.max_ns,
                k.total_ns,
                k.self_ns
            ));
        }
        s.push_str("],");
        s.push_str(&format!("\"traces\":{}", json_string_array(&self.traces)));
        s.push('}');
        s
    }
}

/// The whole suite as one JSON document.
pub fn suite_json(reports: &[ExperimentReport], quick: bool, jobs: usize, wall_s: f64) -> String {
    let trials: usize = reports.iter().map(|r| r.trials).sum();
    let mut s = String::new();
    s.push('{');
    s.push_str(&format!("\"mode\":{},", json_string(if quick { "quick" } else { "full" })));
    s.push_str(&format!("\"jobs\":{jobs},"));
    s.push_str(&format!("\"trials\":{trials},"));
    s.push_str(&format!("\"wall_s\":{},", json_f64(wall_s)));
    s.push_str("\"experiments\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&r.to_json());
    }
    s.push_str("]}");
    s.push('\n');
    s
}

/// JSON string literal with escaping.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    apf_trace::escape_json_str(s, &mut out);
    out.push('"');
    out
}

fn json_string_array(items: &[String]) -> String {
    let mut s = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json_string(item));
    }
    s.push(']');
    s
}

/// Finite floats print plainly; NaN/inf (not valid JSON) become null.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"id\":\"e1\""));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"trials\":16"));
        assert!(j.contains("\"trials_per_sec\":8"));
        assert!(j.contains("\"phases\":[{\"phase\":\"rsb-election\""));
        assert!(j.contains("\"bits_per_cycle\":0.4"));
        assert!(j.contains("\"kernels\":[{\"label\":\"shifted\",\"count\":12,\"mean_ns\":1500"));
        assert!(j.contains("\"traces\":[\"out/e1-trial0-failed.jsonl\"]"));
    }

    #[test]
    fn phase_line_rate_handles_zero_cycles() {
        let p = PhaseLine { label: "gather".into(), cycles: 0.0, bits: 0.0 };
        assert_eq!(p.bits_per_cycle(), 0.0);
    }

    #[test]
    fn suite_json_wraps_reports() {
        let j = suite_json(&[sample()], true, 4, 2.5);
        assert!(j.contains("\"mode\":\"quick\""));
        assert!(j.contains("\"jobs\":4"));
        assert!(j.contains("\"experiments\":[{"));
        assert!(j.ends_with("]}\n"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn zero_trials_report_has_zero_rate() {
        let mut r = sample();
        r.trials = 0;
        assert_eq!(r.trials_per_sec(), 0.0);
    }
}
