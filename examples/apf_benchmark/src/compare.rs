//! `BENCHMARK.json` and the `compare` subcommand.
//!
//! `compare PARENT_DIR CHANGE_DIR` reads the result files that interleaved
//! runs of the parent and the change wrote (`--out DIR`), pairs runs of the
//! same workload and seed, and gives each workload × metric a verdict:
//!
//! * **improved** — the change wins at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ by more than the distance
//!   between the parent's quartiles;
//! * **unresolved** — the parent's own spread is wider than the metric's
//!   bound, and not every change run beats every parent run;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound;
//! * **within bound** — otherwise. Per-layer metrics have no bound: they
//!   read improved or "no bound".

use crate::stats::quartiles;
use apf_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
pub struct Benchmark {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

impl Benchmark {
    pub fn load(path: &Path) -> Result<Benchmark, String> {
        let v = read_json(path)?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            let items = v.get(key).and_then(Json::as_arr).ok_or(format!("{key} is not a list"))?;
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key} entry without {k}"))
                    };
                    Ok(Declared {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Benchmark { end_to_end: list("end_to_end")?, per_layer: list("per_layer")? })
    }

    /// The declared `(name, unit)` pairs a run of the given kind prints.
    pub fn names(&self, trace: bool) -> Vec<(String, String)> {
        let list = if trace { &self.per_layer } else { &self.end_to_end };
        list.iter().map(|d| (d.name.clone(), d.unit.clone())).collect()
    }
}

/// One result file: which run, and its metric values.
struct RunFile {
    workload: String,
    trace: u64,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load_runs(dir: &Path) -> Result<Vec<RunFile>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let v = read_json(&path)?;
        let field = |k: &str| v.get(k).ok_or(format!("{}: no {k}", path.display()));
        let metrics = match field("metrics")? {
            Json::Obj(m) => {
                m.iter().filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?))).collect()
            }
            _ => return Err(format!("{}: metrics is not an object", path.display())),
        };
        runs.push(RunFile {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            trace: field("trace")?.as_u64().unwrap_or(0),
            seed: field("seed")?.as_u64().unwrap_or(0),
            metrics,
        });
    }
    Ok(runs)
}

/// The verdict for one workload × metric, and how many pairs the change won.
fn verdict(
    d: &Declared,
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
) -> (&'static str, usize) {
    let better = |a: f64, b: f64| if d.higher_is_better { a > b } else { a < b };
    let (p1, pm, p3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let improved = !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(cm, pm)
        && (cm - pm).abs() > p3 - p1;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse_by = if d.higher_is_better { pm - cm } else { cm - pm };
    let v = match d.bound {
        None if improved => "improved",
        None => "no bound",
        Some(bound) if p3 - p1 > bound * pm.abs() && !all_better => "unresolved",
        Some(_) if improved => "improved",
        Some(bound) if worse_by > bound * pm.abs() => "worse",
        Some(_) => "within bound",
    };
    (v, wins)
}

/// Prints the comparison table; returns whether any metric got worse.
pub fn compare(bench: &Benchmark, parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let parent = load_runs(parent_dir)?;
    let change = load_runs(change_dir)?;
    let mut groups: Vec<(String, u64)> =
        parent.iter().map(|r| (r.workload.clone(), r.trace)).collect();
    groups.sort();
    groups.dedup();
    let mut any_worse = false;
    println!(
        "{:<17} {:<36} {:>12} {:>25} {:>12} {:>25} {:>7}  verdict",
        "workload", "metric", "parent med", "parent q1..q3", "change med", "change q1..q3", "won"
    );
    for (workload, trace) in groups {
        let side = |runs: &[RunFile]| -> Vec<(u64, BTreeMap<String, f64>)> {
            runs.iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .map(|r| (r.seed, r.metrics.clone()))
                .collect()
        };
        let (p, c) = (side(&parent), side(&change));
        if c.is_empty() {
            println!("{workload:<17} (no change runs)");
            continue;
        }
        let declared = if trace == 1 { &bench.per_layer } else { &bench.end_to_end };
        for d in declared {
            let values = |s: &[(u64, BTreeMap<String, f64>)]| -> Vec<f64> {
                s.iter().filter_map(|(_, m)| m.get(&d.name).copied()).collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|(seed, pm)| {
                    let (_, cm) = c.iter().find(|(s, _)| s == seed)?;
                    Some((*pm.get(&d.name)?, *cm.get(&d.name)?))
                })
                .collect();
            let (v, wins) = verdict(d, &pv, &cv, &pairs);
            any_worse |= v == "worse";
            let (p1, pm, p3) = quartiles(&pv);
            let (c1, cm, c3) = quartiles(&cv);
            println!(
                "{workload:<17} {:<36} {pm:>12.4} {:>25} {cm:>12.4} {:>25} {:>7}  {v}",
                d.name,
                format!("{p1:.4}..{p3:.4}"),
                format!("{c1:.4}..{c3:.4}"),
                format!("{wins}/{}", pairs.len()),
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(bound: Option<f64>) -> Declared {
        Declared { name: "x".into(), unit: "1/s".into(), higher_is_better: true, bound }
    }

    fn paired(parent: &[f64], change: &[f64]) -> (&'static str, usize) {
        let pairs: Vec<(f64, f64)> = parent.iter().copied().zip(change.iter().copied()).collect();
        verdict(&rate(Some(0.1)), parent, change, &pairs)
    }

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9];
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(paired(&parent, &faster), ("improved", 10));
        assert_eq!(paired(&parent, &slower), ("worse", 0));
        assert_eq!(paired(&parent, &same).0, "within bound");
        // A parent spread wider than the bound leaves a small change open.
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0];
        let shifted: Vec<f64> = noisy.iter().map(|p| p * 0.95).collect();
        assert_eq!(paired(&noisy, &shifted).0, "unresolved");
        let pairs: Vec<(f64, f64)> = parent.iter().copied().zip(faster.iter().copied()).collect();
        assert_eq!(verdict(&rate(None), &parent, &faster, &pairs).0, "improved");
    }
}
