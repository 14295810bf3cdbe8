//! Command-line simulation runner and trace inspector.
//!
//! ```text
//! apf-cli [--n 8] [--sym RHO | --asym] [--pattern random|line|grid|star|polygon]
//!         [--scheduler fsync|ssync|async|rr] [--seed S] [--budget STEPS]
//!         [--delta D] [--multiplicity] [--svg PATH] [--trace PATH] [--quiet]
//! apf-cli trace FILE [--replay] [--robot N]
//! ```
//!
//! Runs one pattern-formation simulation and reports the outcome; with
//! `--svg` it also renders the trajectories, with `--trace` it streams the
//! run's full event trace as JSONL.
//!
//! The `trace` subcommand inspects a JSONL trace (as written by `--trace`
//! or the harness's `--trace-out`): by default it prints a summary —
//! per-phase cycle/bit tallies including the paper's ≤ 1 bit/cycle check,
//! per-robot timelines, and any legality violations; with `--replay` it
//! prints every event as a human-readable line (optionally for one robot
//! only). Exit codes: 0 clean, 1 violations found, 2 malformed JSONL.
//!
//! The `conformance` subcommand drives the golden-trace corpus and the
//! adversarial schedule fuzzer (`apf-conformance`):
//!
//! ```text
//! apf-cli conformance corpus [--dir DIR]
//! apf-cli conformance regen  [--dir DIR]
//! apf-cli conformance fuzz   [--schedules N] [--seed S] [--jobs J]
//!                            [--dump-dir DIR] [--no-formation-check]
//! ```
//!
//! `corpus` replays every golden and fails (exit 1) on digest drift,
//! printing the event diff at the first divergence; `regen` rewrites the
//! goldens and manifest from the current engine (run it when drift is
//! intentional, and review the diff); `fuzz` runs a seeded campaign of
//! pathological schedules, shrinking any violation to a minimal reproducer
//! (written under `--dump-dir`). Exit codes: 0 clean, 1 findings, 2 usage
//! or I/O errors.
//!
//! The `lint` subcommand runs the workspace's own determinism &
//! randomness-budget static analysis (`apf-lint`):
//!
//! ```text
//! apf-cli lint [--json|--sarif] [--root DIR] [--list-rules] [--explain RULE]
//!              [--baseline PATH] [--write-baseline PATH]
//! ```
//!
//! It scans every workspace crate's sources against apf-lint's rule table,
//! where each rule states its crate scope and allowlisted files (unseeded
//! entropy, random draws outside ψ_RSB, wall clocks in simulation crates,
//! hash containers / float↔int casts / unstable sorts in digest paths,
//! exact float comparisons, unjustified unwrap/expect, and the call-graph
//! rules D10–D13), and prints findings as
//! `file:line:col · rule · message` (or JSON with `--json`). Exit codes:
//! 0 clean, 1 findings, 2 usage or I/O errors.
//!
//! The `serve` subcommand runs the long-running campaign service
//! (`apf-serve`): a JSON job API over the deterministic trial engine plus a
//! Prometheus-text `/metrics` endpoint:
//!
//! ```text
//! apf-cli serve [--addr HOST:PORT] [--jobs N] [--queue-depth N]
//!               [--engine-jobs N] [--max-jobs N] [--quiet]
//!               [--backend HOST:PORT]... [--shards-per-backend N]
//!               [--cache-dir DIR] [--cache-entries N] [--cache-verify N]
//!               [--quota N]
//! apf-cli job-digest FILE [--jobs N] [--report]
//! apf-cli spec-digest FILE
//! ```
//!
//! `serve` prints the bound address (`--addr 127.0.0.1:0` picks an
//! ephemeral port) and runs until SIGTERM/SIGINT, draining in-flight trials
//! before exiting 0. With one or more `--backend` flags it runs as a
//! *coordinator*: each campaign is split into trial-range shards, fanned
//! out to the backend `apf-serve` processes, and merged bit-identically to
//! a single-process run. The content-addressed result cache answers
//! repeated specs without re-running them (`--cache-dir` persists it;
//! every `--cache-verify`'th hit is replayed against the engine and
//! compared). `job-digest` runs a job-spec file (the same JSON body
//! `POST /v1/jobs` accepts) straight through the engine and prints one
//! per-trial FNV trace digest per line (`--report`: the deterministic
//! aggregate as JSON) — submitting the same spec to the service must
//! reproduce exactly these digests, which `scripts/check.sh` verifies over
//! a real socket. `spec-digest` prints a spec's canonical JSON and content
//! address without running it.
//!
//! The `profile` subcommand records wall-time spans (LCM phases + analysis
//! kernels) while running a campaign — or hammers the kernels directly with
//! `--kernels N` — prints per-kernel latency statistics, and exports
//! collapsed-stacks fold files for flamegraph rendering:
//!
//! ```text
//! apf-cli profile [--spec FILE] [--jobs N] [--report-out PATH]
//!                 [--kernels N] [--reps R] [--fold PATH] [--json PATH]
//! ```
//!
//! Span recording is structurally segregated from trace digesting, so a
//! profiled campaign's digests and aggregates are bit-identical to an
//! unprofiled run (`--report-out` emits exactly the `job-digest --report`
//! object; check.sh diffs the two).
//!
//! Perf snapshots (`BENCH_<PR>.json`) are not a subcommand: the script
//! `scripts/bench_snapshot.sh OUT` writes one from the repo benchmark's
//! workloads and E9's kernels, and `scripts/check.sh` gates a fresh one
//! against the newest committed snapshot.

use apf::prelude::*;
use apf::render::{Style, SvgScene};
use apf::scheduler::SchedulerKind;
use apf::trace::json::Json;
use apf::trace::{describe, parse_line, JsonlSink, TraceSummary};

struct Args {
    n: usize,
    rho: Option<usize>,
    pattern: String,
    scheduler: SchedulerKind,
    seed: u64,
    budget: u64,
    delta: f64,
    multiplicity: bool,
    svg: Option<String>,
    trace: Option<String>,
    quiet: bool,
}

/// The `trace` subcommand: summarize or replay a JSONL trace file.
fn trace_main(args: &[String]) -> ! {
    let mut file: Option<String> = None;
    let mut replay = false;
    let mut robot: Option<u32> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--replay" => replay = true,
            "--robot" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("error: --robot needs a value");
                    std::process::exit(2);
                });
                robot = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("error: --robot: {e}");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "apf-cli trace FILE [--replay] [--robot N]\n\
                     summarize (default) or replay a JSONL event trace\n\
                     exit codes: 0 clean, 1 violations, 2 malformed"
                );
                std::process::exit(0);
            }
            f if f.starts_with('-') => {
                eprintln!("error: unknown flag {f} (try --help)");
                std::process::exit(2);
            }
            _ if file.is_none() => file = Some(arg.clone()),
            _ => {
                eprintln!("error: more than one trace file given");
                std::process::exit(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("error: trace needs a FILE (try --help)");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("error: cannot read {file}: {e}");
        std::process::exit(2);
    });
    if replay {
        for (i, line) in text.lines().enumerate() {
            let event = parse_line(line).unwrap_or_else(|e| {
                eprintln!("error: {file}:{}: {e}", i + 1);
                std::process::exit(2);
            });
            if robot.is_none_or(|r| event.robot() == Some(r)) {
                println!("{:>8}  {}", i + 1, describe(&event));
            }
        }
    }
    let summary = match TraceSummary::from_lines(text.lines()) {
        Ok(s) => s,
        Err((line_no, e)) => {
            eprintln!("error: {file}:{line_no}: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", summary.render());
    std::process::exit(if summary.is_clean() { 0 } else { 1 });
}

/// The `lint` subcommand: the apf-lint determinism & randomness-budget
/// static-analysis pass over the workspace sources.
fn lint_main(args: &[String]) -> ! {
    let usage = "apf-cli lint [--json|--sarif] [--root DIR] [--list-rules] [--explain RULE]\n\
                 \x20            [--baseline PATH] [--write-baseline PATH]\n\
                 static analysis: determinism & randomness-budget rules (D1-D13, P1);\n\
                 D10-D13 are inter-procedural (workspace call graph)\n\
                 --list-rules           print every rule with its crate scope and allowlist\n\
                 --explain RULE         print the long-form rationale for one rule\n\
                 --baseline PATH        gate on drift against a checked-in baseline\n\
                 --write-baseline PATH  write current findings as the new baseline\n\
                 exit codes: 0 clean, 1 findings/drift, 2 usage or I/O errors";
    let mut json = false;
    let mut sarif = false;
    let mut root = String::from(".");
    let mut list_rules = false;
    let mut explain: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--root" => root = value(),
            // Deferred until the whole command line has parsed, so trailing
            // garbage after --list-rules still exits 2 instead of 0.
            "--list-rules" => list_rules = true,
            "--explain" => explain = Some(value()),
            "--baseline" => baseline_path = Some(value()),
            "--write-baseline" => write_baseline = Some(value()),
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    if json && sarif {
        eprintln!("error: --json and --sarif are mutually exclusive");
        std::process::exit(2);
    }
    if list_rules {
        print!("{}", apf_lint::report::render_rules());
        std::process::exit(0);
    }
    if let Some(rule) = explain {
        match apf_lint::report::render_explain(&rule) {
            Some(page) => {
                print!("{page}");
                std::process::exit(0);
            }
            None => {
                eprintln!("error: unknown rule `{rule}` (try --list-rules)");
                std::process::exit(2);
            }
        }
    }
    let findings = match apf_lint::lint_workspace(std::path::Path::new(&root)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: scanning {root}: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = write_baseline {
        if let Err(e) = std::fs::write(&path, apf_lint::baseline::render(&findings)) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("apf-lint: wrote {} finding(s) to {path}", findings.len());
        std::process::exit(0);
    }
    if sarif {
        print!("{}", apf_lint::report::render_sarif(&findings));
    } else if json {
        print!("{}", apf_lint::report::render_json(&findings));
    } else {
        print!("{}", apf_lint::report::render_text(&findings));
    }
    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                std::process::exit(2);
            }
        };
        let accepted = match apf_lint::baseline::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        };
        let drift = apf_lint::baseline::diff(&findings, &accepted);
        for (file, rule, msg) in &drift.new {
            eprintln!("baseline drift (new): {file} · {rule} · {msg}");
        }
        for (file, rule, msg) in &drift.fixed {
            eprintln!("baseline drift (fixed, remove from baseline): {file} · {rule} · {msg}");
        }
        std::process::exit(i32::from(!drift.is_clean()));
    }
    std::process::exit(if findings.is_empty() { 0 } else { 1 });
}

/// The `conformance` subcommand: corpus verification/regeneration and the
/// schedule and geometry fuzzers.
fn conformance_main(args: &[String]) -> ! {
    let usage = format!(
        "apf-cli conformance corpus|regen [--dir DIR]\n\
         apf-cli conformance fuzz [--schedules N] [--robots N] [--seed S] [--jobs J]\n\
         \x20                        [--dump-dir DIR] [--no-formation-check]\n\
         apf-cli conformance geo-fuzz [--cases N | --budget SECS] [--seed S]\n\
         \x20                            [--jobs J] [--robots N] [--dump-dir DIR]\n\
         \n\
         --robots takes {}..={} (the paper's algorithm needs n >= 7); the\n\
         default is 7 for fuzz and 8 for geo-fuzz. A flag the mode does not\n\
         read is a usage error. --dump-dir writes one .repro file per\n\
         counterexample: its initial positions and shrunk schedule.\n\
         \n\
         The fuzzer checks the *dynamic* invariants: movement legality,\n\
         phase-transition legality, the <= 1 random bit per election cycle\n\
         budget, and (unless --no-formation-check) eventual formation.\n\
         Freedom from ambient entropy and draws outside the psi_RSB module\n\
         is guaranteed *statically* by `apf-cli lint` (rules D1/D2) and is\n\
         not re-checked here.\n\
         \n\
         geo-fuzz explores *geometry* space instead of schedule space:\n\
         seeded degenerate instance families (epsilon-perturbed symmetry,\n\
         collinear, SEC-boundary, near-multiplicity) are checked against\n\
         the symmetricity/SEC classifiers and then run under the\n\
         FSYNC/SSYNC/ASYNC matrix; violations shrink over both geometry\n\
         and schedules. --budget runs until the wall-clock budget expires\n\
         instead of a fixed case count.",
        apf_conformance::MIN_ROBOTS,
        apf_conformance::MAX_ROBOTS
    );
    let Some(mode) = args.first().map(String::as_str) else {
        eprintln!("error: conformance needs a mode\n{usage}");
        std::process::exit(2);
    };
    if matches!(mode, "--help" | "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    // The flags each mode reads; any other flag is a usage error.
    let reads: &[&str] = match mode {
        "corpus" | "regen" => &["--dir"],
        "fuzz" => {
            &["--schedules", "--robots", "--seed", "--jobs", "--dump-dir", "--no-formation-check"]
        }
        "geo-fuzz" => &["--cases", "--budget", "--robots", "--seed", "--jobs", "--dump-dir"],
        other => {
            eprintln!("error: unknown conformance mode {other}\n{usage}");
            std::process::exit(2);
        }
    };
    let mut dir = apf_conformance::default_corpus_dir();
    let mut schedules: u64 = 16;
    let mut cases: u64 = 64;
    let mut budget: Option<u64> = None;
    let mut robots: Option<usize> = None;
    let mut seed: u64 = 0xC0FFEE;
    let mut jobs: usize = 1;
    let mut dump_dir: Option<String> = None;
    let mut formation_check = true;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        let parse_fail = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("error: {flag}: {e}");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            f if !reads.contains(&f) => {
                eprintln!("error: conformance {mode} does not take {f}\n{usage}");
                std::process::exit(2);
            }
            "--dir" => dir = value().into(),
            "--schedules" => {
                schedules = value().parse().unwrap_or_else(|e| parse_fail(&e));
            }
            "--cases" => cases = value().parse().unwrap_or_else(|e| parse_fail(&e)),
            "--budget" => budget = Some(value().parse().unwrap_or_else(|e| parse_fail(&e))),
            "--robots" => {
                let n: usize = value().parse().unwrap_or_else(|e| parse_fail(&e));
                let (lo, hi) = (apf_conformance::MIN_ROBOTS, apf_conformance::MAX_ROBOTS);
                if !(lo..=hi).contains(&n) {
                    parse_fail(&format!("must be in [{lo}, {hi}] (got {n})"));
                }
                robots = Some(n);
            }
            "--seed" => seed = value().parse().unwrap_or_else(|e| parse_fail(&e)),
            "--jobs" => jobs = value().parse().unwrap_or_else(|e| parse_fail(&e)),
            "--dump-dir" => dump_dir = Some(value()),
            "--no-formation-check" => formation_check = false,
            other => unreachable!("{other} is in `reads`, and every flag there has an arm"),
        }
    }
    let report = match mode {
        "corpus" => {
            let reports = apf_conformance::verify(&dir).unwrap_or_else(|e| {
                eprintln!("error: reading corpus in {}: {e}", dir.display());
                std::process::exit(2);
            });
            let mut drifted = 0;
            for r in &reports {
                if r.ok() {
                    println!("ok    {} ({:016x}, {} events)", r.name, r.live_digest, r.live_events);
                } else {
                    drifted += 1;
                    println!(
                        "DRIFT {} manifest={} file={} live={:016x}",
                        r.name,
                        r.manifest_digest.map_or("missing".into(), |d| format!("{d:016x}")),
                        r.file_digest.map_or("missing".into(), |d| format!("{d:016x}")),
                        r.live_digest
                    );
                    print!("{}", r.diff);
                }
            }
            if drifted > 0 {
                println!(
                    "{drifted}/{} cases drifted; regenerate with `apf-cli conformance regen` \
                     if intentional",
                    reports.len()
                );
            }
            std::process::exit(if drifted == 0 { 0 } else { 1 });
        }
        "regen" => {
            let entries = apf_conformance::regenerate(&dir).unwrap_or_else(|e| {
                eprintln!("error: writing corpus in {}: {e}", dir.display());
                std::process::exit(2);
            });
            for e in &entries {
                println!("wrote {} ({:016x}, {} events)", e.name, e.digest, e.events);
            }
            println!("manifest: {}", dir.join("manifest.txt").display());
            std::process::exit(0);
        }
        "fuzz" => {
            let mut cfg = apf_conformance::FuzzConfig {
                require_formation: formation_check,
                ..apf_conformance::FuzzConfig::default()
            };
            cfg.robots = robots.unwrap_or(cfg.robots);
            let report = apf_conformance::fuzz_campaign(&cfg, seed, schedules, jobs);
            println!(
                "fuzz: {} schedules, {} clean, {} counterexamples (seed {seed:#x})",
                report.cases,
                report.clean,
                report.counterexamples.len()
            );
            report
        }
        _ => {
            // geo-fuzz: `reads` rejected every other mode.
            let mut cfg = apf_conformance::GeoFuzzConfig::default();
            cfg.robots = robots.unwrap_or(cfg.robots);
            let oracle = apf_conformance::GeoOracle::default();
            let report = match budget {
                Some(secs) => apf_conformance::geo_fuzz_timed(
                    &cfg,
                    &oracle,
                    seed,
                    std::time::Duration::from_secs(secs),
                    jobs,
                ),
                None => apf_conformance::geo_fuzz_rounds(&cfg, &oracle, seed, 0, cases, jobs),
            };
            println!(
                "geo-fuzz: {} cases, {} clean, {} counterexamples, {} shrink steps (seed \
                 {seed:#x})",
                report.cases,
                report.clean,
                report.counterexamples.len(),
                report.shrink_steps
            );
            report
        }
    };
    for ce in &report.counterexamples {
        println!(
            "  case {}{} under {}: {} ({} robots, shrunk from {}; {} batches, shrunk from {})",
            ce.case_index,
            ce.family.map_or(String::new(), |f| format!(" [{f}]")),
            ce.scheduler,
            ce.violations.iter().map(|v| v.kind).collect::<Vec<_>>().join(","),
            ce.positions.len(),
            ce.original_robots,
            ce.script.len(),
            ce.original_len
        );
        for v in &ce.violations {
            println!("    [{}] {}", v.kind, v.detail);
        }
        if let Some(dump) = &dump_dir {
            match apf_conformance::dump_counterexample(std::path::Path::new(dump), ce) {
                Ok(p) => println!("    reproducer: {}", p.display()),
                Err(e) => {
                    eprintln!("error: writing reproducer: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// The `serve` subcommand: the long-running campaign service (`apf-serve`).
fn serve_main(args: &[String]) -> ! {
    let usage = "apf-cli serve [--addr HOST:PORT] [--jobs N] [--queue-depth N]\n\
                 \x20             [--engine-jobs N] [--max-jobs N] [--quiet]\n\
                 \x20             [--backend HOST:PORT]... [--shards-per-backend N]\n\
                 \x20             [--cache-dir DIR] [--cache-entries N] [--cache-verify N]\n\
                 \x20             [--quota N] [--soak SECS]\n\
                 campaign service: versioned JSON job API + Prometheus /metrics\n\
                 --soak self-submits a timed geometry-fuzz soak campaign at startup\n\
                 (same job type as POST /v1/soak); progress appears as apf_soak_*\n\
                 metrics and the job drains cleanly on SIGTERM\n\
                 --backend (repeatable) switches on coordinator mode: campaigns are\n\
                 sharded across the given backend apf-serve processes and merged\n\
                 bit-identically to a single-process run\n\
                 --cache-dir persists the content-addressed result cache; every\n\
                 --cache-verify'th hit is re-verified against a fresh engine run\n\
                 exit codes: 0 clean shutdown, 2 usage or bind errors";
    let mut cfg =
        apf_serve::ServerConfig { log_requests: true, ..apf_serve::ServerConfig::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        let parse_fail = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("error: {flag}: {e}");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value(),
            "--jobs" => cfg.workers = value().parse().unwrap_or_else(|e| parse_fail(&e)),
            "--queue-depth" => {
                cfg.queue_depth = value().parse().unwrap_or_else(|e| parse_fail(&e));
            }
            "--engine-jobs" => {
                cfg.engine_jobs = value().parse().unwrap_or_else(|e| parse_fail(&e));
            }
            "--max-jobs" => cfg.max_jobs = value().parse().unwrap_or_else(|e| parse_fail(&e)),
            "--backend" => cfg.coordinator.backends.push(value()),
            "--shards-per-backend" => {
                cfg.coordinator.shards_per_backend =
                    value().parse().unwrap_or_else(|e| parse_fail(&e));
            }
            "--cache-dir" => cfg.cache.dir = Some(value().into()),
            "--cache-entries" => {
                cfg.cache.max_entries = value().parse().unwrap_or_else(|e| parse_fail(&e));
            }
            "--cache-verify" => {
                cfg.cache.verify_every = value().parse().unwrap_or_else(|e| parse_fail(&e));
            }
            "--quota" => {
                cfg.quota_per_minute = value().parse().unwrap_or_else(|e| parse_fail(&e));
            }
            "--soak" => cfg.soak_seconds = value().parse().unwrap_or_else(|e| parse_fail(&e)),
            "--quiet" => cfg.log_requests = false,
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    if cfg.workers == 0 || cfg.queue_depth == 0 {
        eprintln!("error: --jobs and --queue-depth must be >= 1\n{usage}");
        std::process::exit(2);
    }
    apf_serve::signal::install_handlers();
    let server = match apf_serve::Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind: {e}");
            std::process::exit(2);
        }
    };
    // The smoke harness parses this line to discover the ephemeral port.
    println!("apf-serve listening on http://{}", server.local_addr());
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: serve: {e}");
            std::process::exit(1);
        }
    }
}

/// The `job-digest` subcommand: run a service job spec directly through the
/// engine and print its per-trial FNV trace digests. This is the local half
/// of the bit-for-bit reproduction check: the same spec submitted to
/// `apf-cli serve` must report exactly these digests.
/// A campaign's deterministic aggregate rendered as the service's result
/// JSON object (minus the timing-noisy wall clock). Shared by
/// `job-digest --report` and `profile --report-out` so the two renderings
/// are byte-comparable: `diff` between them proves span recording changed
/// no digest and no aggregate byte.
fn job_report_json(report: &apf_bench::engine::CampaignReport) -> Json {
    let digests = report.digests.clone().unwrap_or_default();
    let outcome = apf_serve::JobOutcome::new(&report.stats, report.requested, digests, 0.0, None);
    let mut json = outcome.to_json();
    if let Json::Obj(members) = &mut json {
        members.remove("wall_secs");
    }
    json
}

fn job_digest_main(args: &[String]) -> ! {
    let usage = "apf-cli job-digest FILE [--jobs N] [--report]\n\
                 run a job spec (JSON, as POSTed to /v1/jobs) locally and print\n\
                 one FNV-1a trace digest per trial, in trial order; --report\n\
                 instead prints the deterministic aggregate as one JSON object\n\
                 (the /v1/jobs result minus timing), for bit-exact comparison\n\
                 against a service or coordinator run of the same spec\n\
                 exit codes: 0 ok, 2 bad spec or I/O errors";
    let mut file: Option<String> = None;
    let mut jobs: usize = 1;
    let mut report_json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("error: --jobs needs a value");
                    std::process::exit(2);
                });
                jobs = v.parse().unwrap_or_else(|e| {
                    eprintln!("error: --jobs: {e}");
                    std::process::exit(2);
                });
            }
            "--report" => report_json = true,
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            f if f.starts_with('-') => {
                eprintln!("error: unknown flag {f}\n{usage}");
                std::process::exit(2);
            }
            _ if file.is_none() => file = Some(arg.clone()),
            _ => {
                eprintln!("error: more than one spec file given");
                std::process::exit(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("error: job-digest needs a FILE\n{usage}");
        std::process::exit(2);
    };
    let body = std::fs::read(&file).unwrap_or_else(|e| {
        eprintln!("error: cannot read {file}: {e}");
        std::process::exit(2);
    });
    let spec = apf_serve::JobSpec::from_json_bytes(&body).unwrap_or_else(|e| {
        eprintln!("error: {file}: {e}");
        std::process::exit(2);
    });
    let report = apf_bench::engine::Engine::new()
        .jobs(jobs.max(1))
        .trace_digests(true)
        .run(&spec.to_campaign());
    if report_json {
        // The same fields and renderer as the service's result JSON, minus
        // the timing-noisy wall clock — so `diff` against a served result
        // (with "wall_secs" stripped) is a bitwise aggregate comparison.
        println!("{}", job_report_json(&report).render());
    } else {
        for d in report.digests.as_deref().unwrap_or_default() {
            println!("{d}");
        }
    }
    std::process::exit(0);
}

/// The `spec-digest` subcommand: canonicalize a job spec and print its
/// content address — the digest the result cache keys on and the
/// `GET /v1/spec-digest` endpoint reports — without running anything.
fn spec_digest_main(args: &[String]) -> ! {
    let usage = "apf-cli spec-digest FILE\n\
                 canonicalize a job spec (JSON, as POSTed to /v1/jobs) and print\n\
                 its 16-hex FNV-1a content address, then the canonical JSON\n\
                 exit codes: 0 ok, 2 bad spec or I/O errors";
    let mut file: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            f if f.starts_with('-') => {
                eprintln!("error: unknown flag {f}\n{usage}");
                std::process::exit(2);
            }
            _ if file.is_none() => file = Some(arg.clone()),
            _ => {
                eprintln!("error: more than one spec file given");
                std::process::exit(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("error: spec-digest needs a FILE\n{usage}");
        std::process::exit(2);
    };
    let body = std::fs::read(&file).unwrap_or_else(|e| {
        eprintln!("error: cannot read {file}: {e}");
        std::process::exit(2);
    });
    let spec = apf_serve::JobSpec::from_json_bytes(&body).unwrap_or_else(|e| {
        eprintln!("error: {file}: {e}");
        std::process::exit(2);
    });
    println!("{:016x}", spec.canonical.digest());
    println!("{}", spec.canonical.canonical_json());
    std::process::exit(0);
}

/// The `profile` subcommand: wall-time span profiling with collapsed-stacks
/// (flamegraph) export. Two modes:
///
/// * campaign mode (default, or `--spec FILE`): run a campaign through the
///   engine with span recording on — digests and aggregates stay
///   bit-identical to an unprofiled run (`--report-out` writes exactly the
///   `job-digest --report` object so check.sh can diff the two);
/// * `--kernels N` mode: hammer the five E9 analysis kernels directly on an
///   asymmetric n-robot configuration (`--reps R` times), the quickest way
///   to see where analysis wall time goes at a given scale.
fn profile_main(args: &[String]) -> ! {
    use apf_bench::engine::{Campaign, Engine, RunSpec};
    use apf_bench::profile::{fmt_ns, SpanProfile};
    let usage = "apf-cli profile [--spec FILE] [--jobs N] [--report-out PATH]\n\
                 \x20           [--kernels N] [--reps R]\n\
                 \x20           [--fold PATH] [--json PATH]\n\
                 record wall-time spans (phases + analysis kernels) and print\n\
                 per-kernel latency stats; --fold writes collapsed-stacks lines\n\
                 (`a;b;c self_ns`, feed to inferno/flamegraph.pl), --json the\n\
                 full profile; campaign mode runs --spec (a /v1/jobs JSON body)\n\
                 or a small built-in campaign, and --report-out writes the\n\
                 job-digest --report object for bitwise digest comparison;\n\
                 --kernels N times the five analysis kernels at size N instead\n\
                 exit codes: 0 ok, 2 usage, bad spec, or I/O errors";
    let mut spec_file: Option<String> = None;
    let mut jobs: usize = 2;
    let mut kernels_n: Option<usize> = None;
    let mut reps: u32 = 20;
    let mut fold: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut report_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {arg} needs a value");
                std::process::exit(2);
            })
        };
        let parse_fail = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("error: {arg}: {e}");
            std::process::exit(2);
        };
        match arg.as_str() {
            "--spec" => spec_file = Some(value()),
            "--jobs" => jobs = value().parse().unwrap_or_else(|e| parse_fail(&e)),
            "--kernels" => kernels_n = Some(value().parse().unwrap_or_else(|e| parse_fail(&e))),
            "--reps" => reps = value().parse().unwrap_or_else(|e| parse_fail(&e)),
            "--fold" => fold = Some(value()),
            "--json" => json_out = Some(value()),
            "--report-out" => report_out = Some(value()),
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument {other}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    if kernels_n.is_some() && (spec_file.is_some() || report_out.is_some()) {
        eprintln!("error: --kernels runs no campaign; drop --spec/--report-out\n{usage}");
        std::process::exit(2);
    }

    let profile: SpanProfile = if let Some(n) = kernels_n {
        // Kernel mode: the kernels run on this thread, so install here.
        let handle = std::sync::Arc::new(std::sync::Mutex::new(SpanProfile::new()));
        drop(apf::trace::span::install(Box::new(std::sync::Arc::clone(&handle))));
        // The recorded spans are this mode's output, not the returned µs.
        let _ = apf_bench::experiments::time_kernels(n, reps);
        drop(apf::trace::span::take());
        let p = handle.lock().unwrap_or_else(|_| {
            eprintln!("error: span profile lock poisoned");
            std::process::exit(2);
        });
        p.clone()
    } else {
        let campaign = match &spec_file {
            Some(file) => {
                let body = std::fs::read(file).unwrap_or_else(|e| {
                    eprintln!("error: cannot read {file}: {e}");
                    std::process::exit(2);
                });
                let spec = apf_serve::JobSpec::from_json_bytes(&body).unwrap_or_else(|e| {
                    eprintln!("error: {file}: {e}");
                    std::process::exit(2);
                });
                spec.to_campaign()
            }
            None => {
                // A small built-in campaign: quick-forming symmetric
                // instances, enough steps to exercise every kernel.
                let mut c = Campaign::new("profile", 2);
                c.add_trials(8, |i, _| {
                    RunSpec::new(
                        apf::patterns::symmetric_configuration(8, 4, 3000 + i),
                        apf::patterns::random_pattern(8, 4000 + i),
                    )
                    .scheduler(SchedulerKind::RoundRobin)
                    .budget(100_000)
                });
                c
            }
        };
        let report =
            Engine::new().jobs(jobs.max(1)).trace_digests(true).profile_spans(true).run(&campaign);
        if let Some(path) = &report_out {
            let doc = format!("{}\n", job_report_json(&report).render());
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
        report.profile.unwrap_or_else(|| {
            eprintln!("error: engine returned no profile");
            std::process::exit(2);
        })
    };

    println!("span profile (wall time, hottest first):");
    for k in profile.rows() {
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
    if let Some(hot) = profile.hottest_leaf() {
        println!("hottest frame: {}", hot.label());
    }
    if profile.truncated() > 0 {
        eprintln!("warning: {} spans exceeded the depth limit", profile.truncated());
    }
    if let Some(path) = &fold {
        let mut buf = Vec::new();
        profile.write_folded(&mut buf).unwrap_or_else(|e| {
            eprintln!("error: folding: {e}");
            std::process::exit(2);
        });
        if let Err(e) = std::fs::write(path, buf) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("folded stacks written to {path}");
    }
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", profile.to_json().render())) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("profile JSON written to {path}");
    }
    std::process::exit(0);
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 8,
        rho: None,
        pattern: "random".into(),
        scheduler: SchedulerKind::Async,
        seed: 0,
        budget: 2_000_000,
        delta: 1e-3,
        multiplicity: false,
        svg: None,
        trace: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--n" => args.n = value(&mut it)?.parse().map_err(|e| format!("--n: {e}"))?,
            "--sym" => args.rho = Some(value(&mut it)?.parse().map_err(|e| format!("--sym: {e}"))?),
            "--asym" => args.rho = None,
            "--pattern" => args.pattern = value(&mut it)?,
            "--scheduler" => {
                args.scheduler = match value(&mut it)?.as_str() {
                    "fsync" => SchedulerKind::Fsync,
                    "ssync" => SchedulerKind::Ssync,
                    "async" => SchedulerKind::Async,
                    "rr" | "round-robin" => SchedulerKind::RoundRobin,
                    other => return Err(format!("unknown scheduler {other}")),
                }
            }
            "--seed" => args.seed = value(&mut it)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--budget" => {
                args.budget = value(&mut it)?.parse().map_err(|e| format!("--budget: {e}"))?
            }
            "--delta" => {
                args.delta = value(&mut it)?.parse().map_err(|e| format!("--delta: {e}"))?
            }
            "--multiplicity" => args.multiplicity = true,
            "--svg" => args.svg = Some(value(&mut it)?),
            "--trace" => args.trace = Some(value(&mut it)?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "apf-cli: run one pattern-formation simulation\n\
                     flags: --n N --sym RHO|--asym --pattern random|line|grid|star|polygon\n\
                     \x20      --scheduler fsync|ssync|async|rr --seed S --budget STEPS\n\
                     \x20      --delta D --multiplicity --svg PATH --trace PATH --quiet\n\
                     subcommands: trace FILE [--replay] [--robot N]  inspect a JSONL trace\n\
                     \x20            conformance corpus|regen|fuzz      golden traces & fuzzing\n\
                     \x20            lint [--json] [--list-rules]       determinism static analysis\n\
                     \x20            serve [--addr A] [--backend A]...  campaign service (HTTP)\n\
                     \x20            job-digest FILE [--report]         job spec -> digests/aggregate\n\
                     \x20            spec-digest FILE                   job spec -> content address\n\
                     \x20            profile [--spec FILE] [--fold PATH] wall-time span profiling\n\
                     perf snapshots: scripts/bench_snapshot.sh BENCH_<PR>.json"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn pattern_for(args: &Args) -> Result<Vec<apf::geometry::Point>, String> {
    Ok(match args.pattern.as_str() {
        "random" => apf::patterns::random_pattern(args.n, args.seed ^ 0xBEEF),
        "line" => apf::patterns::line(args.n),
        "grid" => {
            let cols = (args.n as f64).sqrt().ceil() as usize;
            let rows = args.n.div_ceil(cols);
            let mut g = apf::patterns::grid(rows, cols);
            g.truncate(args.n);
            if g.len() != args.n {
                return Err("grid cannot realize this n".into());
            }
            g
        }
        "star" => {
            if !args.n.is_multiple_of(2) || args.n < 4 {
                return Err("star needs an even n >= 4".into());
            }
            apf::patterns::star(args.n / 2, 2.0, 1.0)
        }
        "polygon" => apf::patterns::regular_polygon(args.n, 1.0, 0.1),
        "multiplicity" => {
            apf::patterns::pattern_with_multiplicity(args.n, args.n - 2, args.seed ^ 0xF00D)
        }
        other => return Err(format!("unknown pattern {other}")),
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("trace") {
        trace_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("conformance") {
        conformance_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("lint") {
        lint_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("serve") {
        serve_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("job-digest") {
        job_digest_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("spec-digest") {
        spec_digest_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("profile") {
        profile_main(&raw[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let initial = match args.rho {
        Some(rho) => apf::patterns::try_symmetric_configuration(args.n, rho, args.seed ^ 0xAB),
        None => apf::patterns::asymmetric_precondition(args.n)
            .map(|()| apf::patterns::asymmetric_configuration(args.n, args.seed ^ 0xAB)),
    };
    let initial = initial.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let pattern = match pattern_for(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut world = match SimulationBuilder::new(initial.clone(), pattern)
        .scheduler(args.scheduler)
        .seed(args.seed)
        .delta(args.delta)
        .multiplicity_detection(args.multiplicity)
        .record_trace(args.svg.is_some())
        .build()
    {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &args.trace {
        match std::fs::File::create(path) {
            Ok(f) => world.set_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f)))),
            Err(e) => {
                eprintln!("error: cannot create trace file {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    let outcome = world.run(args.budget);
    if let Some(path) = &args.trace {
        // The run flushed the sink; dropping it here flushes the BufWriter.
        drop(world.take_sink());
        if !args.quiet {
            println!("wrote trace {path}");
        }
    }
    if !args.quiet {
        println!(
            "formed = {} ({:?})\nmetrics: {}",
            outcome.formed, outcome.reason, outcome.metrics
        );
    }
    if let Some(path) = &args.svg {
        let mut scene = SvgScene::new();
        for robot in 0..args.n {
            let traj: Vec<apf::geometry::Point> =
                world.trace().iter().map(|cfg| cfg[robot]).collect();
            scene.trajectory(&traj, "#88f");
        }
        scene.configuration(&initial, "#d33");
        for &p in &outcome.final_positions {
            scene.point(p, 0.03, &Style::dot("#3a3"));
        }
        if let Err(e) = std::fs::write(path, scene.finish()) {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        }
        if !args.quiet {
            println!("wrote {path}");
        }
    }
    std::process::exit(if outcome.formed { 0 } else { 1 });
}
