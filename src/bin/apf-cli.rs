//! `apf-cli`: the command-line front end of the workspace.
//!
//! Every subcommand prints its flags with `apf-cli <subcommand> --help`;
//! `apf-cli --help` prints the default run's flags and lists the
//! subcommands. Every command line is read whole before anything runs: an
//! unknown flag, a flag given twice, a missing or unparsable value and a
//! stray argument each exit 2 with one `error: …` line. `--help` (or `-h`)
//! prints the usage and exits 0.
//!
//! With no subcommand, `apf-cli` runs one pattern-formation simulation and
//! reports the outcome; `--svg` also renders the trajectories and `--trace`
//! streams the run's full event trace as JSONL. Exit codes: 0 formed, 1 not
//! formed, 2 usage or I/O errors.
//!
//! `trace` inspects a JSONL trace (as written by `--trace` or the harness's
//! `--trace-out`): by default it prints a summary — per-phase cycle/bit
//! tallies including the paper's ≤ 1 bit/cycle check, per-robot timelines,
//! and any legality violations; with `--replay` it prints every event as a
//! human-readable line (optionally for one robot only). Exit codes: 0 clean,
//! 1 violations found, 2 malformed JSONL.
//!
//! `conformance` drives the golden-trace corpus and the fuzzers
//! (`apf-conformance`). `corpus` replays every golden and fails on digest
//! drift, printing the event diff at the first divergence; `regen` rewrites
//! the goldens and manifest from the current engine (run it when drift is
//! intentional, and review the diff); `fuzz` runs a seeded campaign of
//! pathological schedules and `geo-fuzz` one of degenerate geometries, each
//! shrinking any violation to a minimal reproducer. Exit codes: 0 clean, 1
//! findings, 2 usage or I/O errors.
//!
//! `lint` runs the workspace's own determinism and randomness-budget static
//! analysis (`apf-lint`): every workspace crate's sources against the rule
//! table, which states each rule's crate scope and allowlisted files
//! (unseeded entropy, random draws outside ψ_RSB, wall clocks in simulation
//! crates, hash containers / float↔int casts / unstable sorts in digest
//! paths, exact float comparisons, unjustified unwrap/expect, and the
//! call-graph rules D10–D13). Exit codes: 0 clean, 1 findings or baseline
//! drift, 2 usage or I/O errors.
//!
//! `serve` runs the campaign service (`apf-serve`): a JSON job API over the
//! deterministic trial engine plus a Prometheus-text `/metrics` endpoint. It
//! prints the bound address (`--addr 127.0.0.1:0` picks an ephemeral port)
//! and runs until SIGTERM/SIGINT, draining in-flight trials. With one or more
//! `--backend` flags it runs as a *coordinator*: each campaign is split into
//! trial-range shards, fanned out to the backends, and merged bit-identically
//! to a single-process run. Exit codes: 0 clean shutdown, 2 usage, bind or
//! I/O errors.
//!
//! `job-digest` runs a job-spec file (the JSON body `POST /v1/jobs` accepts)
//! straight through the engine and prints one per-trial FNV trace digest per
//! line, or with `--report` the deterministic aggregate as JSON; submitting
//! the same spec to the service must reproduce exactly these digests, which
//! `scripts/check.sh` verifies over a real socket. Exit codes: 0 ok, 2 bad
//! spec or I/O errors.
//!
//! `spec-digest` prints a job spec's content address (the key of the
//! service's result cache) and canonical JSON without running it. Exit
//! codes: 0 ok, 2 bad spec or I/O errors.
//!
//! `profile` records wall-time spans (LCM phases and analysis kernels) while
//! running a campaign, or hammers the kernels directly with `--kernels N`,
//! prints per-kernel latency statistics, and exports collapsed-stacks fold
//! files for flamegraph rendering. Span recording is segregated from trace
//! digesting, so `--report-out` writes exactly the `job-digest --report`
//! object of an unprofiled run (check.sh diffs the two). Exit codes: 0 ok, 2
//! usage, bad spec or I/O errors.
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
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// A subcommand's result: its exit code, or the message `main` prints after
/// `error: ` before exiting 2.
type Outcome = Result<u8, String>;

/// A subcommand's entry point: its arguments to its outcome.
type Subcommand = fn(&[String]) -> Outcome;

/// The subcommands: name, the summary `apf-cli --help` lists, entry point.
const SUBCOMMANDS: [(&str, &str, Subcommand); 7] = [
    ("trace", "summarize or replay a JSONL event trace", trace),
    ("conformance", "golden-trace corpus and schedule/geometry fuzzers", conformance),
    ("lint", "determinism and randomness-budget static analysis", lint),
    ("serve", "campaign service: JSON job API and /metrics", serve),
    ("job-digest", "run a job spec: per-trial digests or aggregate", job_digest),
    ("spec-digest", "a job spec's content address and canonical JSON", spec_digest),
    ("profile", "wall-time span profiling and flamegraph export", profile),
];

/// The command line one subcommand accepts.
#[derive(Default)]
struct Grammar<'a> {
    /// The words after `apf-cli` that select it, for the `--help` hint.
    cmd: &'a str,
    /// What `--help` prints.
    usage: &'a str,
    /// Flags that take a value.
    values: &'a [&'a str],
    /// Flags that take none.
    switches: &'a [&'a str],
    /// Value flags that may be given more than once.
    repeats: &'a [&'a str],
    /// Required positional arguments, by name.
    positionals: &'a [&'a str],
}

/// A command line its [`Grammar`] accepted.
struct Flags<'a> {
    cmd: &'a str,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positionals: Vec<&'a str>,
}

impl<'a> Grammar<'a> {
    /// Reads the whole of `args`, or prints the usage and returns `None` at
    /// `--help`.
    fn read(&self, args: &'a [String]) -> Result<Option<Flags<'a>>, String> {
        let mut flags = Flags {
            cmd: self.cmd,
            values: Vec::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            let given = flags.switches.contains(&arg) || flags.value(arg).is_some();
            if given && !self.repeats.contains(&arg) {
                return Err(flags.usage(format!("{arg} given twice")));
            }
            if arg == "--help" || arg == "-h" {
                println!("{}", self.usage);
                return Ok(None);
            } else if self.switches.contains(&arg) {
                flags.switches.push(arg);
            } else if self.values.contains(&arg) {
                let value = it.next().ok_or_else(|| flags.usage(format!("{arg} needs a value")))?;
                flags.values.push((arg, value));
            } else if arg.starts_with('-') {
                return Err(flags.usage(format!("unknown flag {arg}")));
            } else if flags.positionals.len() < self.positionals.len() {
                flags.positionals.push(arg);
            } else {
                return Err(flags.usage(format!("unexpected argument {arg}")));
            }
        }
        match self.positionals.get(flags.positionals.len()) {
            Some(name) => Err(flags.usage(format!("{} needs {name}", self.cmd))),
            None => Ok(Some(flags)),
        }
    }
}

impl<'a> Flags<'a> {
    /// `msg` as a usage error: it ends with the `--help` hint.
    fn usage(&self, msg: impl Display) -> String {
        let sep = if self.cmd.is_empty() { "" } else { " " };
        format!("{msg} (try `apf-cli{sep}{} --help`)", self.cmd)
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// Every value given for `flag`, in order.
    fn all<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.values.iter().filter(move |(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// The value given for `flag`, if any.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.all(flag).next()
    }

    /// The value given for `flag` parsed as `T`, if any.
    fn opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parse = |v: &str| v.parse().map_err(|e| self.usage(format!("{flag}: {e}")));
        self.value(flag).map(parse).transpose()
    }

    /// [`Flags::opt`], or `default` when `flag` was not given.
    fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.opt(flag)?.unwrap_or(default))
    }
}

/// Reads and validates a job-spec file (the JSON body `POST /v1/jobs`
/// accepts).
fn load_spec(path: &str) -> Result<apf_serve::JobSpec, String> {
    let body = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    apf_serve::JobSpec::from_json_bytes(&body).map_err(|e| format!("{path}: {e}"))
}

/// The `trace` subcommand: summarize or replay a JSONL trace file.
fn trace(args: &[String]) -> Outcome {
    let Some(a) = Grammar {
        cmd: "trace",
        usage: "apf-cli trace FILE [--replay] [--robot N]\n\
                summarize (default) or replay a JSONL event trace\n\
                exit codes: 0 clean, 1 violations, 2 malformed",
        values: &["--robot"],
        switches: &["--replay"],
        positionals: &["FILE"],
        ..Grammar::default()
    }
    .read(args)?
    else {
        return Ok(0);
    };
    let robot: Option<u32> = a.opt("--robot")?;
    let file = a.positionals[0];
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    if a.has("--replay") {
        for (i, line) in text.lines().enumerate() {
            let event = parse_line(line).map_err(|e| format!("{file}:{}: {e}", i + 1))?;
            if robot.is_none_or(|r| event.robot() == Some(r)) {
                println!("{:>8}  {}", i + 1, describe(&event));
            }
        }
    }
    let summary = TraceSummary::from_lines(text.lines())
        .map_err(|(line_no, e)| format!("{file}:{line_no}: {e}"))?;
    print!("{}", summary.render());
    Ok(u8::from(!summary.is_clean()))
}

/// The `lint` subcommand: the apf-lint determinism & randomness-budget
/// static-analysis pass over the workspace sources.
fn lint(args: &[String]) -> Outcome {
    use apf_lint::{baseline, report};
    let Some(a) = Grammar {
        cmd: "lint",
        usage: "apf-cli lint [--json|--sarif] [--root DIR] [--list-rules] [--explain RULE]\n\
                \x20            [--baseline PATH] [--write-baseline PATH]\n\
                static analysis: determinism & randomness-budget rules (D1-D13, P1);\n\
                D10-D13 are inter-procedural (workspace call graph)\n\
                --list-rules           print every rule with its crate scope and allowlist\n\
                --explain RULE         print the long-form rationale for one rule\n\
                --baseline PATH        gate on drift against a checked-in baseline\n\
                --write-baseline PATH  write current findings as the new baseline\n\
                exit codes: 0 clean, 1 findings/drift, 2 usage or I/O errors",
        values: &["--root", "--explain", "--baseline", "--write-baseline"],
        switches: &["--json", "--sarif", "--list-rules"],
        ..Grammar::default()
    }
    .read(args)?
    else {
        return Ok(0);
    };
    if a.has("--json") && a.has("--sarif") {
        return Err(a.usage("--json and --sarif are mutually exclusive"));
    }
    if a.has("--list-rules") {
        print!("{}", report::render_rules());
        return Ok(0);
    }
    if let Some(rule) = a.value("--explain") {
        let page = report::render_explain(rule)
            .ok_or_else(|| format!("unknown rule `{rule}` (try --list-rules)"))?;
        print!("{page}");
        return Ok(0);
    }
    let root = a.value("--root").unwrap_or(".");
    let findings = apf_lint::lint_workspace(std::path::Path::new(root))
        .map_err(|e| format!("scanning {root}: {e}"))?;
    if let Some(path) = a.value("--write-baseline") {
        std::fs::write(path, baseline::render(&findings))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("apf-lint: wrote {} finding(s) to {path}", findings.len());
        return Ok(0);
    }
    let render = match (a.has("--sarif"), a.has("--json")) {
        (true, _) => report::render_sarif,
        (_, true) => report::render_json,
        _ => report::render_text,
    };
    print!("{}", render(&findings));
    let Some(path) = a.value("--baseline") else {
        return Ok(u8::from(!findings.is_empty()));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let accepted = baseline::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let drift = baseline::diff(&findings, &accepted);
    for (file, rule, msg) in &drift.new {
        eprintln!("baseline drift (new): {file} · {rule} · {msg}");
    }
    for (file, rule, msg) in &drift.fixed {
        eprintln!("baseline drift (fixed, remove from baseline): {file} · {rule} · {msg}");
    }
    Ok(u8::from(!drift.is_clean()))
}

/// The `conformance` subcommand: corpus verification/regeneration and the
/// schedule and geometry fuzzers.
fn conformance(args: &[String]) -> Outcome {
    use apf_conformance::{MAX_ROBOTS, MIN_ROBOTS};
    let usage = format!(
        "apf-cli conformance corpus|regen [--dir DIR]\n\
         apf-cli conformance fuzz [--schedules N] [--robots N] [--seed S] [--jobs J]\n\
         \x20                        [--dump-dir DIR] [--no-formation-check]\n\
         apf-cli conformance geo-fuzz [--cases N | --budget SECS] [--seed S]\n\
         \x20                            [--jobs J] [--robots N] [--dump-dir DIR]\n\
         \n\
         --robots takes {MIN_ROBOTS}..={MAX_ROBOTS} (the paper's algorithm needs n >= 7); the\n\
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
         instead of a fixed case count.\n\
         exit codes: 0 clean, 1 findings, 2 usage or I/O errors"
    );
    let mode_only = Grammar {
        cmd: "conformance",
        usage: &usage,
        positionals: &["a mode"],
        ..Grammar::default()
    };
    let Some(m) = mode_only.read(&args[..args.len().min(1)])? else {
        return Ok(0);
    };
    let mode = m.positionals[0];
    // The flags each mode reads; any other flag is a usage error.
    let (values, switches): (&[&str], &[&str]) = match mode {
        "corpus" | "regen" => (&["--dir"], &[]),
        "fuzz" => (
            &["--schedules", "--robots", "--seed", "--jobs", "--dump-dir"],
            &["--no-formation-check"],
        ),
        "geo-fuzz" => (&["--cases", "--budget", "--robots", "--seed", "--jobs", "--dump-dir"], &[]),
        other => return Err(m.usage(format!("unknown conformance mode {other}"))),
    };
    let cmd = format!("conformance {mode}");
    let grammar = Grammar { cmd: &cmd, usage: &usage, values, switches, ..Grammar::default() };
    let Some(a) = grammar.read(&args[1..])? else {
        return Ok(0);
    };
    let robots: Option<usize> = a.opt("--robots")?;
    if let Some(n) = robots.filter(|n| !(MIN_ROBOTS..=MAX_ROBOTS).contains(n)) {
        return Err(a.usage(format!("--robots: must be in [{MIN_ROBOTS}, {MAX_ROBOTS}] (got {n})")));
    }
    let seed = a.get("--seed", 0xC0FFEE)?;
    let jobs = a.get("--jobs", 1)?;
    let dump_dir = a.value("--dump-dir");
    let dir = a.value("--dir").map_or_else(apf_conformance::default_corpus_dir, Into::into);
    let report = match mode {
        "corpus" => {
            let reports = apf_conformance::verify(&dir)
                .map_err(|e| format!("reading corpus in {}: {e}", dir.display()))?;
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
            return Ok(u8::from(drifted > 0));
        }
        "regen" => {
            let entries = apf_conformance::regenerate(&dir)
                .map_err(|e| format!("writing corpus in {}: {e}", dir.display()))?;
            for e in &entries {
                println!("wrote {} ({:016x}, {} events)", e.name, e.digest, e.events);
            }
            println!("manifest: {}", dir.join("manifest.txt").display());
            return Ok(0);
        }
        "fuzz" => {
            let schedules = a.get("--schedules", 16)?;
            let mut cfg = apf_conformance::FuzzConfig {
                require_formation: !a.has("--no-formation-check"),
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
            // geo-fuzz: the match above refused every other mode.
            let cases = a.get("--cases", 64)?;
            let budget: Option<u64> = a.opt("--budget")?;
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
        if let Some(dump) = dump_dir {
            let p = apf_conformance::dump_counterexample(std::path::Path::new(dump), ce)
                .map_err(|e| format!("writing reproducer: {e}"))?;
            println!("    reproducer: {}", p.display());
        }
    }
    Ok(u8::from(!report.is_clean()))
}

/// The `serve` subcommand: the long-running campaign service (`apf-serve`).
fn serve(args: &[String]) -> Outcome {
    let Some(a) = Grammar {
        cmd: "serve",
        usage: "apf-cli serve [--addr HOST:PORT] [--jobs N] [--queue-depth N]\n\
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
                exit codes: 0 clean shutdown, 2 usage, bind or I/O errors",
        values: &[
            "--addr",
            "--jobs",
            "--queue-depth",
            "--engine-jobs",
            "--max-jobs",
            "--backend",
            "--shards-per-backend",
            "--cache-dir",
            "--cache-entries",
            "--cache-verify",
            "--quota",
            "--soak",
        ],
        switches: &["--quiet"],
        repeats: &["--backend"],
        ..Grammar::default()
    }
    .read(args)?
    else {
        return Ok(0);
    };
    let d = apf_serve::ServerConfig::default();
    let cfg = apf_serve::ServerConfig {
        addr: a.value("--addr").map_or(d.addr, String::from),
        workers: a.get("--jobs", d.workers)?,
        queue_depth: a.get("--queue-depth", d.queue_depth)?,
        engine_jobs: a.get("--engine-jobs", d.engine_jobs)?,
        max_jobs: a.get("--max-jobs", d.max_jobs)?,
        log_requests: !a.has("--quiet"),
        coordinator: apf_serve::CoordinatorConfig {
            backends: a.all("--backend").map(String::from).collect(),
            shards_per_backend: a.get("--shards-per-backend", d.coordinator.shards_per_backend)?,
            ..d.coordinator
        },
        cache: apf_serve::CacheConfig {
            dir: a.value("--cache-dir").map(Into::into),
            max_entries: a.get("--cache-entries", d.cache.max_entries)?,
            verify_every: a.get("--cache-verify", d.cache.verify_every)?,
        },
        quota_per_minute: a.get("--quota", d.quota_per_minute)?,
        soak_seconds: a.get("--soak", d.soak_seconds)?,
    };
    if cfg.workers == 0 || cfg.queue_depth == 0 {
        return Err(a.usage("--jobs and --queue-depth must be >= 1"));
    }
    apf_serve::signal::install_handlers();
    let server = apf_serve::Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    // The smoke harness parses this line to discover the ephemeral port.
    println!("apf-serve listening on http://{}", server.local_addr());
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(0)
}

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

/// The `job-digest` subcommand: run a service job spec directly through the
/// engine and print its per-trial FNV trace digests. This is the local half
/// of the bit-for-bit reproduction check: the same spec submitted to
/// `apf-cli serve` must report exactly these digests.
fn job_digest(args: &[String]) -> Outcome {
    let Some(a) = Grammar {
        cmd: "job-digest",
        usage: "apf-cli job-digest FILE [--jobs N] [--report]\n\
                run a job spec (JSON, as POSTed to /v1/jobs) locally and print\n\
                one FNV-1a trace digest per trial, in trial order; --report\n\
                instead prints the deterministic aggregate as one JSON object\n\
                (the /v1/jobs result minus timing), for bit-exact comparison\n\
                against a service or coordinator run of the same spec\n\
                exit codes: 0 ok, 2 bad spec or I/O errors",
        values: &["--jobs"],
        switches: &["--report"],
        positionals: &["FILE"],
        ..Grammar::default()
    }
    .read(args)?
    else {
        return Ok(0);
    };
    let jobs: usize = a.get("--jobs", 1)?;
    let spec = load_spec(a.positionals[0])?;
    let report = apf_bench::engine::Engine::new()
        .jobs(jobs.max(1))
        .trace_digests(true)
        .run(&spec.to_campaign());
    if a.has("--report") {
        // The same fields and renderer as the service's result JSON, minus
        // the timing-noisy wall clock — so `diff` against a served result
        // (with "wall_secs" stripped) is a bitwise aggregate comparison.
        println!("{}", job_report_json(&report).render());
    } else {
        for d in report.digests.as_deref().unwrap_or_default() {
            println!("{d}");
        }
    }
    Ok(0)
}

/// The `spec-digest` subcommand: canonicalize a job spec and print its
/// content address — the digest the result cache keys on and the
/// `GET /v1/spec-digest` endpoint reports — without running anything.
fn spec_digest(args: &[String]) -> Outcome {
    let Some(a) = Grammar {
        cmd: "spec-digest",
        usage: "apf-cli spec-digest FILE\n\
                canonicalize a job spec (JSON, as POSTed to /v1/jobs) and print\n\
                its 16-hex FNV-1a content address, then the canonical JSON\n\
                exit codes: 0 ok, 2 bad spec or I/O errors",
        positionals: &["FILE"],
        ..Grammar::default()
    }
    .read(args)?
    else {
        return Ok(0);
    };
    let spec = load_spec(a.positionals[0])?;
    println!("{:016x}", spec.canonical.digest());
    println!("{}", spec.canonical.canonical_json());
    Ok(0)
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
fn profile(args: &[String]) -> Outcome {
    use apf_bench::engine::{Campaign, Engine, RunSpec};
    use apf_bench::profile::{fmt_ns, SpanProfile};
    let Some(a) = Grammar {
        cmd: "profile",
        usage: "apf-cli profile [--spec FILE] [--jobs N] [--report-out PATH]\n\
                \x20           [--kernels N] [--reps R]\n\
                \x20           [--fold PATH] [--json PATH]\n\
                record wall-time spans (phases + analysis kernels) and print\n\
                per-kernel latency stats; --fold writes collapsed-stacks lines\n\
                (`a;b;c self_ns`, feed to inferno/flamegraph.pl), --json the\n\
                full profile; campaign mode runs --spec (a /v1/jobs JSON body)\n\
                or a small built-in campaign, and --report-out writes the\n\
                job-digest --report object for bitwise digest comparison;\n\
                --kernels N times the five analysis kernels at size N instead\n\
                exit codes: 0 ok, 2 usage, bad spec, or I/O errors",
        values: &["--spec", "--jobs", "--kernels", "--reps", "--fold", "--json", "--report-out"],
        ..Grammar::default()
    }
    .read(args)?
    else {
        return Ok(0);
    };
    let jobs: usize = a.get("--jobs", 2)?;
    let kernels: Option<usize> = a.opt("--kernels")?;
    let reps: u32 = a.get("--reps", 20)?;
    let (spec, report_out) = (a.value("--spec"), a.value("--report-out"));
    if kernels.is_some() && (spec.is_some() || report_out.is_some()) {
        return Err(a.usage("--kernels runs no campaign; drop --spec/--report-out"));
    }

    let profile: SpanProfile = if let Some(n) = kernels {
        // Kernel mode: the kernels run on this thread, so install here.
        let handle = std::sync::Arc::new(std::sync::Mutex::new(SpanProfile::new()));
        drop(apf::trace::span::install(Box::new(std::sync::Arc::clone(&handle))));
        // The recorded spans are this mode's output, not the returned µs.
        let _ = apf_bench::experiments::time_kernels(n, reps);
        drop(apf::trace::span::take());
        let p = handle.lock().map_err(|_| "span profile lock poisoned")?.clone();
        p
    } else {
        let campaign = match spec {
            Some(path) => load_spec(path)?.to_campaign(),
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
        if let Some(path) = report_out {
            let doc = format!("{}\n", job_report_json(&report).render());
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        report.profile.ok_or("engine returned no profile")?
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
    if let Some(path) = a.value("--fold") {
        let mut buf = Vec::new();
        profile.write_folded(&mut buf).map_err(|e| format!("folding: {e}"))?;
        std::fs::write(path, buf).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("folded stacks written to {path}");
    }
    if let Some(path) = a.value("--json") {
        std::fs::write(path, format!("{}\n", profile.to_json().render()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("profile JSON written to {path}");
    }
    Ok(0)
}

/// The `--scheduler` value: a wire label, or the aliases `rr` and
/// `round-robin`.
fn scheduler_kind(label: &str) -> Option<SchedulerKind> {
    match label {
        "rr" | "round-robin" => Some(SchedulerKind::RoundRobin),
        _ => SchedulerKind::from_label(label),
    }
}

fn pattern_for(pattern: &str, n: usize, seed: u64) -> Result<Vec<apf::geometry::Point>, String> {
    Ok(match pattern {
        "random" => apf::patterns::random_pattern(n, seed ^ 0xBEEF),
        "line" => apf::patterns::line(n),
        "grid" => {
            let cols = (n as f64).sqrt().ceil() as usize;
            let mut g = apf::patterns::grid(n.div_ceil(cols), cols);
            g.truncate(n);
            if g.len() != n {
                return Err("grid cannot realize this n".into());
            }
            g
        }
        "star" => {
            if !n.is_multiple_of(2) || n < 4 {
                return Err("star needs an even n >= 4".into());
            }
            apf::patterns::star(n / 2, 2.0, 1.0)
        }
        "polygon" => apf::patterns::regular_polygon(n, 1.0, 0.1),
        "multiplicity" => apf::patterns::pattern_with_multiplicity(n, n - 2, seed ^ 0xF00D),
        other => return Err(format!("unknown pattern {other}")),
    })
}

/// The default run: one pattern-formation simulation.
fn simulate(args: &[String]) -> Outcome {
    let mut usage = String::from(
        "apf-cli: run one pattern-formation simulation\n\
         apf-cli [--n N] [--sym RHO | --asym] [--pattern random|line|grid|star|polygon]\n\
         \x20       [--scheduler fsync|ssync|async|round_robin|rr] [--seed S] [--budget STEPS]\n\
         \x20       [--delta D] [--multiplicity] [--svg PATH] [--trace PATH] [--quiet]\n\
         exit codes: 0 formed, 1 not formed, 2 usage or I/O errors\n\
         subcommands (flags: apf-cli SUBCOMMAND --help):",
    );
    for (name, summary, _) in SUBCOMMANDS {
        usage += &format!("\n  {name:<12} {summary}");
    }
    usage += "\nperf snapshots: scripts/bench_snapshot.sh BENCH_<PR>.json";
    let Some(a) = Grammar {
        cmd: "",
        usage: &usage,
        values: &[
            "--n",
            "--sym",
            "--pattern",
            "--scheduler",
            "--seed",
            "--budget",
            "--delta",
            "--svg",
            "--trace",
        ],
        switches: &["--asym", "--multiplicity", "--quiet"],
        ..Grammar::default()
    }
    .read(args)?
    else {
        return Ok(0);
    };
    let n: usize = a.get("--n", 8)?;
    let rho: Option<usize> = a.opt("--sym")?;
    if rho.is_some() && a.has("--asym") {
        return Err(a.usage("--sym and --asym are mutually exclusive"));
    }
    let scheduler = match a.value("--scheduler") {
        Some(label) => scheduler_kind(label)
            .ok_or_else(|| a.usage(format!("--scheduler: unknown scheduler {label}")))?,
        None => SchedulerKind::Async,
    };
    let seed: u64 = a.get("--seed", 0)?;
    let budget: u64 = a.get("--budget", 2_000_000)?;
    let delta: f64 = a.get("--delta", 1e-3)?;
    let (svg, trace, quiet) = (a.value("--svg"), a.value("--trace"), a.has("--quiet"));

    let initial = match rho {
        Some(rho) => apf::patterns::try_symmetric_configuration(n, rho, seed ^ 0xAB),
        None => apf::patterns::asymmetric_precondition(n)
            .map(|()| apf::patterns::asymmetric_configuration(n, seed ^ 0xAB)),
    }?;
    let pattern = pattern_for(a.value("--pattern").unwrap_or("random"), n, seed)?;
    let mut world = SimulationBuilder::new(initial.clone(), pattern)
        .scheduler(scheduler)
        .seed(seed)
        .delta(delta)
        .multiplicity_detection(a.has("--multiplicity"))
        .record_trace(svg.is_some())
        .build()
        .map_err(|e| e.to_string())?;
    if let Some(path) = trace {
        let f = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        world.set_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f))));
    }

    let outcome = world.run(budget);
    if let Some(path) = trace {
        // The run flushed the sink; dropping it here flushes the BufWriter.
        drop(world.take_sink());
        if !quiet {
            println!("wrote trace {path}");
        }
    }
    if !quiet {
        println!(
            "formed = {} ({:?})\nmetrics: {}",
            outcome.formed, outcome.reason, outcome.metrics
        );
    }
    if let Some(path) = svg {
        let mut scene = SvgScene::new();
        for robot in 0..n {
            let traj: Vec<apf::geometry::Point> =
                world.trace().iter().map(|cfg| cfg[robot]).collect();
            scene.trajectory(&traj, "#88f");
        }
        scene.configuration(&initial, "#d33");
        for &p in &outcome.final_positions {
            scene.point(p, 0.03, &Style::dot("#3a3"));
        }
        std::fs::write(path, scene.finish()).map_err(|e| format!("writing {path}: {e}"))?;
        if !quiet {
            println!("wrote {path}");
        }
    }
    Ok(u8::from(!outcome.formed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        match SUBCOMMANDS.iter().find(|(name, ..)| args.first().is_some_and(|a| a == name)) {
            Some((_, _, run)) => run(&args[1..]),
            None => simulate(&args),
        };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
