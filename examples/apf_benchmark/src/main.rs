//! The repository benchmark: four workloads over the campaign engine and
//! the campaign service, end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run. See README.md beside this
//! package for the workloads, the metrics and how to compare two commits.
//!
//! ```text
//! apf_benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
//! apf_benchmark --smoke [--seed N]
//! apf_benchmark compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Exit codes: 0 ok, 1 a correctness check failed (or `compare` found a
//! metric worse than its bound), 2 usage or I/O error.

mod attrib;
mod compare;
mod direct;
mod host;
mod metrics;
mod run;
mod served;
mod spans;
mod stats;
mod workload;

use apf_serve::Json;
use compare::Benchmark;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;
use workload::{Scale, Workload};

/// Measurement window of one run; `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 24.0;
const DEFAULT_OUT: &str = "target/apf-benchmark";
const BENCHMARK_JSON: &str = "BENCHMARK.json";

const USAGE: &str = "usage:
  apf_benchmark --workload NAME --seed N [--seconds S] [--trace [0|1]] [--out DIR]
  apf_benchmark --smoke [--seed N]
  apf_benchmark compare PARENT_DIR CHANGE_DIR
workloads: direct-election direct-formation served-mixed served-sharded";

fn usage_error(why: &str) -> ! {
    eprintln!("error: {why}\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = args.as_slice() else {
            usage_error("compare needs two directories")
        };
        let bench = load_benchmark();
        match compare::compare(&bench, Path::new(parent), Path::new(change)) {
            Ok(any_worse) => exit(i32::from(any_worse)),
            Err(why) => {
                eprintln!("error: {why}");
                exit(2);
            }
        }
    }

    let (mut workload, mut seed, mut seconds) = (None, 1u64, DEFAULT_SECONDS);
    let (mut trace, mut smoke, mut out) = (false, false, PathBuf::from(DEFAULT_OUT));
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value =
            || it.next().cloned().unwrap_or_else(|| usage_error(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                seed = value().parse().unwrap_or_else(|_| usage_error("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage_error("--seconds takes a positive number"))
            }
            // `--trace 0`, `--trace 1`, or a bare `--trace` meaning on.
            "--trace" => {
                trace = it.peek().is_none_or(|v| *v != "0");
                if it.peek().is_some_and(|v| *v == "0" || *v == "1") {
                    it.next();
                }
            }
            "--out" => out = PathBuf::from(value()),
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }

    if smoke {
        exit(run_smoke(seed));
    }
    let Some(w) = workload else { usage_error("--workload is required") };
    exit(run_one(w, seed, seconds, trace, &out));
}

fn load_benchmark() -> Benchmark {
    Benchmark::load(Path::new(BENCHMARK_JSON)).unwrap_or_else(|why| {
        eprintln!("error: {why}");
        exit(2);
    })
}

fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool, out: &Path) -> i32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {} seed={seed} seconds={seconds} trace={} engine_workers={} available_parallelism={cores}",
        w.name(),
        u8::from(trace),
        workload::ENGINE_WORKERS
    );
    let started = Instant::now();
    let outcome = run::run(w, seed, Scale::full(w, seconds), trace);
    if !trace {
        println!("# {}", outcome.timeline.describe());
    }
    outcome.sheet.print();
    println!("output_digest {:016x}", outcome.output_digest);
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    let mut problems = outcome.problems;
    if trace {
        print_span_table(&outcome.spans);
        let path = out.join(format!("{}-s{seed}.spans.jsonl", w.name()));
        if let Err(e) = outcome.spans.write_jsonl(&path) {
            problems.push(format!("writing {}: {e}", path.display()));
        }
    }
    let correct = problems.is_empty();
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    println!("# {} s in all", started.elapsed().as_secs_f64());

    let result = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(outcome.attempted)),
        ("failed", Json::u64(outcome.failed)),
        ("metrics", outcome.sheet.to_json()),
    ];
    // The result file also names the run, for `compare`.
    let file = Json::obj(result.iter().cloned().chain([
        ("workload", Json::str(w.name())),
        ("seed", Json::u64(seed)),
        ("trace", Json::u64(u64::from(trace))),
        ("output_digest", Json::str(format!("{:016x}", outcome.output_digest))),
    ]));
    let path = out.join(format!("{}-s{seed}-t{}.json", w.name(), u8::from(trace)));
    let written = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, file.render()));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!("{}", Json::obj(result).render());
    if correct {
        0
    } else {
        1
    }
}

fn print_span_table(spans: &spans::SpanLog) {
    println!("# benchmark boundary spans: name count total_s self_s");
    for (name, t) in spans.totals() {
        println!(
            "#   {name:<20} {:>8} {:>12.6} {:>12.6}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
}

/// Every workload at about 1/20 size, untraced then traced. Besides each
/// run's own checks: the printed metric names and units must be exactly
/// the ones BENCHMARK.json declares, and both runs of a workload must
/// produce the same `output_digest`.
fn run_smoke(seed: u64) -> i32 {
    let bench = load_benchmark();
    let started = Instant::now();
    let mut failures = 0;
    for w in Workload::ALL {
        let mut untraced_digest = None;
        for trace in [false, true] {
            let outcome = run::run(w, seed, Scale::smoke(), trace);
            let printed: Vec<(String, String)> =
                outcome.sheet.catalogue().iter().map(|(n, u)| (n.clone(), u.to_string())).collect();
            let mut problems = outcome.problems;
            if printed != bench.names(trace) {
                problems.push(format!("metric names differ from {BENCHMARK_JSON}"));
            }
            if outcome.attempted == 0 {
                problems.push("no job was attempted".to_string());
            }
            match untraced_digest {
                None => untraced_digest = Some(outcome.output_digest),
                Some(d) if d != outcome.output_digest => {
                    problems.push("traced and untraced runs disagree on output_digest".into());
                }
                Some(_) => {}
            }
            let status = if problems.is_empty() { "ok" } else { "FAILED" };
            println!(
                "smoke {:<17} trace={} jobs={} failed={} digest={:016x} {status}",
                w.name(),
                u8::from(trace),
                outcome.attempted,
                outcome.failed,
                outcome.output_digest
            );
            for p in &problems {
                println!("  {p}");
            }
            failures += usize::from(!problems.is_empty());
        }
    }
    println!("smoke took {:.1} s", started.elapsed().as_secs_f64());
    i32::from(failures > 0)
}
