//! The metric catalogue and the result a run prints.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; `--smoke`
//! checks that the two agree for every workload.

use apf_serve::Json;
use apf_trace::PhaseKind;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("trials_per_s", "1/s"),
    ("cycles_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p75_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The five geometry kernels the program times with its own spans.
pub const KERNELS: [&str; 5] = ["sec", "views", "rho", "regular", "shifted"];

/// Per-layer metrics (traced runs), in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit: &'static str| out.push((name, unit));
    for k in KERNELS {
        push(format!("geometry.{k}.calls"), "count");
        push(format!("geometry.{k}.self_s"), "s");
        push(format!("geometry.{k}.mean_us"), "us");
    }
    push("geometry.shifted.share".into(), "ratio");
    push("core.compute_self_s".into(), "s");
    for kind in PhaseKind::ALL {
        push(format!("core.{}.cycles", kind.label()), "count");
    }
    push("core.rsb-election.bits".into(), "count");
    push("core.bits_per_election_cycle".into(), "ratio");
    for (name, unit) in [
        ("sim.look.calls", "count"),
        ("sim.compute.calls", "count"),
        ("sim.move.calls", "count"),
        ("sim.look.self_s", "s"),
        ("sim.move.self_s", "s"),
        ("engine.trials", "count"),
        ("engine.utilization", "ratio"),
        ("engine.longest_trial_s", "s"),
        ("engine.build_world_us", "us"),
        ("engine.fold_us", "us"),
        ("trace.overhead_frac", "ratio"),
        ("serve.http.requests", "count"),
        ("serve.http.server_s", "s"),
        ("serve.http.client_s", "s"),
        ("serve.http.outside_server_frac", "ratio"),
        ("serve.http.polls_per_job", "ratio"),
        ("serve.http.status_409", "count"),
        ("serve.http.status_429", "count"),
        ("serve.http.status_5xx", "count"),
        ("serve.http.request_p50_ms", "ms"),
        ("serve.http.request_p99_ms", "ms"),
        ("serve.job.spec_parse_us", "us"),
        ("serve.json.result_parse_us", "us"),
        ("serve.json.result_bytes", "bytes"),
        ("serve.queue.wait_s", "s"),
        ("serve.queue.wait_mean_ms", "ms"),
        ("serve.exec.busy_s", "s"),
        ("serve.worker.utilization", "ratio"),
        ("serve.cache.hits", "count"),
        ("serve.cache.misses", "count"),
        ("serve.cache.stores", "count"),
        ("serve.cache.hit_ratio", "ratio"),
        ("serve.cache.verify_replays", "count"),
        ("serve.cache.verify_fail", "count"),
        ("serve.cache.hit_p50_ms", "ms"),
        ("serve.cache.hit_p90_ms", "ms"),
        ("serve.coordinator.shards", "count"),
        ("serve.coordinator.retries", "count"),
        ("serve.coordinator.shard_rtt_s", "s"),
        ("serve.coordinator.shard_rtt_mean_ms", "ms"),
        ("serve.coordinator.backend_exec_s", "s"),
        ("serve.coordinator.wait_frac", "ratio"),
        ("serve.failed_frac", "ratio"),
    ] {
        push(name.into(), unit);
    }
    out
}

/// Named metric values with optional notes (sample and job counts).
/// Setting a name the catalogue lacks is a bug and panics.
#[derive(Debug)]
pub struct Sheet {
    order: Vec<(String, &'static str)>,
    values: BTreeMap<String, (f64, String)>,
}

impl Sheet {
    /// A sheet over `catalogue`, every value starting at 0.
    pub fn new(catalogue: Vec<(String, &'static str)>) -> Sheet {
        let values = catalogue.iter().map(|(n, _)| (n.clone(), (0.0, String::new()))).collect();
        Sheet { order: catalogue, values }
    }

    pub fn end_to_end() -> Sheet {
        Sheet::new(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.note(name, value, String::new());
    }

    pub fn note(&mut self, name: &str, value: f64, note: String) {
        let slot = self.values.get_mut(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        // Ratios over an empty base read 0, never NaN (JSON has no NaN).
        *slot = (if value.is_finite() { value } else { 0.0 }, note);
    }

    /// `(name, unit)` in print order.
    pub fn catalogue(&self) -> &[(String, &'static str)] {
        &self.order
    }

    /// `name value unit`, one per line, notes after.
    pub fn print(&self) {
        for (name, unit) in &self.order {
            let (value, note) = &self.values[name];
            if note.is_empty() {
                println!("{name} {value} {unit}");
            } else {
                println!("{name} {value} {unit} ({note})");
            }
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.order
                .iter()
                .map(|(name, unit)| {
                    let value = Json::f64(self.values[name].0);
                    (name.clone(), Json::obj([("value", value), ("unit", Json::str(*unit))]))
                })
                .collect(),
        )
    }
}
