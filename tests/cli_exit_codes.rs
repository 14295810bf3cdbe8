//! Exit-code contract for `apf-cli`: every malformed invocation exits
//! nonzero (2) with usage on stderr, across every subcommand's parser.
//!
//! Regression focus: flags that *act and exit* while the command line is
//! still being parsed (historically `lint --list-rules`) must not mask
//! trailing garbage — the whole invocation has to validate before anything
//! succeeds with exit 0. `--help` is the one documented exception: it is an
//! explicit request for usage and short-circuits by convention.
//!
//! Also covers the `job-digest` subcommand end to end: its stdout must be
//! exactly the per-trial FNV digests of the spec's campaign, which is the
//! local reference half of the service's bit-for-bit reproduction check.

use std::path::PathBuf;
use std::process::{Command, Output};

fn apf_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apf-cli")).args(args).output().expect("spawn apf-cli")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Asserts the invocation failed with the usage exit code (2) and said why
/// on stderr.
fn assert_usage_error(args: &[&str]) {
    let out = apf_cli(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "apf-cli {args:?} should exit 2, got {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        stdout_of(&out),
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(err.contains("error:"), "apf-cli {args:?} stderr lacks an error line: {err}");
}

#[test]
fn list_rules_with_trailing_garbage_exits_nonzero() {
    // The regression: --list-rules used to print and exit 0 mid-parse,
    // silently accepting anything after it.
    let out = apf_cli(&["lint", "--list-rules", "--bogus"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown flag --bogus"));

    // The flag itself still works once the whole line parses.
    let ok = apf_cli(&["lint", "--list-rules"]);
    assert_eq!(ok.status.code(), Some(0), "stderr: {}", stderr_of(&ok));
    assert!(stdout_of(&ok).contains("D1"), "rule listing missing: {}", stdout_of(&ok));
}

#[test]
fn malformed_invocations_exit_nonzero_with_usage() {
    // Default mode.
    assert_usage_error(&["--bogus"]);
    assert_usage_error(&["bogus-subcommand"]);
    assert_usage_error(&["--seed"]); // missing value
    assert_usage_error(&["--scheduler", "warp"]);
    // trace
    assert_usage_error(&["trace"]); // missing FILE
    assert_usage_error(&["trace", "--bogus"]);
    assert_usage_error(&["trace", "a.jsonl", "b.jsonl"]);
    // conformance
    assert_usage_error(&["conformance"]);
    assert_usage_error(&["conformance", "warp"]);
    assert_usage_error(&["conformance", "fuzz", "--schedules", "nope"]);
    assert_usage_error(&["conformance", "fuzz", "--bogus"]);
    // Robot counts outside [7, 64]: below 7 every world run is a Theorem 2
    // compute-error, and a 3-robot geometry instance cannot be built.
    assert_usage_error(&["conformance", "fuzz", "--robots", "5", "--schedules", "1"]);
    assert_usage_error(&["conformance", "fuzz", "--robots", "65", "--schedules", "1"]);
    assert_usage_error(&["conformance", "geo-fuzz", "--robots", "3", "--cases", "1"]);
    assert_usage_error(&["conformance", "geo-fuzz", "--robots", "6", "--cases", "1"]);
    // A flag the mode does not read.
    assert_usage_error(&["conformance", "fuzz", "--budget", "5", "--schedules", "1"]);
    assert_usage_error(&["conformance", "fuzz", "--cases", "2", "--schedules", "1"]);
    assert_usage_error(&["conformance", "geo-fuzz", "--schedules", "2", "--cases", "1"]);
    assert_usage_error(&["conformance", "geo-fuzz", "--no-formation-check", "--cases", "1"]);
    assert_usage_error(&["conformance", "corpus", "--seed", "1"]);
    let regen_dir = std::env::temp_dir().join(format!("apf-cli-regen-{}", std::process::id()));
    let regen_dir = regen_dir.to_str().expect("temp path is UTF-8");
    assert_usage_error(&["conformance", "regen", "--dir", regen_dir, "--jobs", "2"]);
    std::fs::remove_dir_all(regen_dir).ok();
    // lint
    assert_usage_error(&["lint", "--bogus"]);
    assert_usage_error(&["lint", "--root"]); // missing value
    assert_usage_error(&["lint", "--explain"]); // missing value
    assert_usage_error(&["lint", "--baseline"]); // missing value
    assert_usage_error(&["lint", "--write-baseline"]); // missing value
    assert_usage_error(&["lint", "--json", "--sarif"]); // mutually exclusive
    assert_usage_error(&["lint", "--explain", "no-such-rule"]);
    assert_usage_error(&["lint", "--baseline", "/nonexistent/baseline.txt"]);
    assert_usage_error(&["lint", "--config", "lint.toml"]); // the policy lives in the rule table
                                                            // serve
    assert_usage_error(&["serve", "--bogus"]);
    assert_usage_error(&["serve", "--jobs"]); // missing value
    assert_usage_error(&["serve", "--jobs", "many"]); // not a number
    assert_usage_error(&["serve", "--jobs", "0"]);
    assert_usage_error(&["serve", "--queue-depth", "0"]);
    // job-digest
    assert_usage_error(&["job-digest"]); // missing FILE
    assert_usage_error(&["job-digest", "--bogus"]);
    assert_usage_error(&["job-digest", "/nonexistent/spec.json"]);
}

#[test]
fn help_short_circuits_with_exit_zero() {
    for args in [
        vec!["--help"],
        vec!["trace", "--help"],
        vec!["conformance", "--help"],
        vec!["lint", "--help"],
        vec!["serve", "--help"],
        vec!["job-digest", "--help"],
    ] {
        let out = apf_cli(&args);
        assert_eq!(out.status.code(), Some(0), "apf-cli {args:?}: {}", stderr_of(&out));
        assert!(!stdout_of(&out).is_empty(), "apf-cli {args:?} printed no usage");
    }
}

#[test]
fn lint_explain_resolves_rules_by_name_and_code() {
    // By name and by D-code, both exit 0 with the rationale page.
    let by_name = apf_cli(&["lint", "--explain", "panic-reachability"]);
    assert_eq!(by_name.status.code(), Some(0), "stderr: {}", stderr_of(&by_name));
    assert!(stdout_of(&by_name).contains("D13"), "{}", stdout_of(&by_name));

    let by_code = apf_cli(&["lint", "--explain", "D10"]);
    assert_eq!(by_code.status.code(), Some(0), "stderr: {}", stderr_of(&by_code));
    assert!(stdout_of(&by_code).contains("digest-purity-taint"), "{}", stdout_of(&by_code));
}

#[test]
fn lint_explain_names_each_allowlisted_file() {
    // The page prints the allowlist the linter applies, by path.
    for (rule, file) in [
        ("D2", "crates/core/src/rsb.rs"),
        ("D3", "crates/trace/src/span.rs"),
        ("D11", "crates/core/src/rsb.rs"),
    ] {
        let out = apf_cli(&["lint", "--explain", rule]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
        let page = stdout_of(&out);
        assert!(page.contains(&format!("allowlisted: {file}")), "{rule}: {page}");
    }
    let page = stdout_of(&apf_cli(&["lint", "--explain", "P1"]));
    assert!(page.contains("allowlisted: none"), "{page}");
}

#[test]
fn lint_sarif_emits_a_2_1_0_log_on_the_clean_tree() {
    let out = apf_cli(&["lint", "--sarif"]);
    assert_eq!(out.status.code(), Some(0), "clean tree exits 0; stderr: {}", stderr_of(&out));
    let log = stdout_of(&out);
    assert!(log.contains("\"version\":\"2.1.0\""), "{log}");
    assert!(log.contains("\"name\":\"apf-lint\""), "{log}");
}

#[test]
fn lint_baseline_gates_drift_in_both_directions() {
    // Against the checked-in (empty) baseline the clean tree passes.
    let clean = apf_cli(&["lint", "--baseline", "lint-baseline.txt"]);
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", stderr_of(&clean));

    // A baseline accepting a finding the tree no longer produces is drift
    // too: exit 1 and a "fixed" line telling the reviewer to prune it.
    let dir = std::env::temp_dir().join(format!("apf-cli-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stale = dir.join("stale-baseline.txt");
    std::fs::write(&stale, "src/lib.rs\tpanic-policy\tphantom accepted finding\n").unwrap();
    let out = apf_cli(&["lint", "--baseline", stale.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("baseline drift (fixed"), "{}", stderr_of(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_digest_rejects_malformed_specs() {
    let dir = std::env::temp_dir().join(format!("apf-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = |name: &str, body: &str| -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, body).unwrap();
        p
    };
    let not_json = bad("not-json.json", "{");
    let unknown_field = bad("unknown-field.json", r#"{"trials":2,"frobnicate":1}"#);
    let out_of_range = bad("out-of-range.json", r#"{"n":3}"#);
    for p in [&not_json, &unknown_field, &out_of_range] {
        let out = apf_cli(&["job-digest", p.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{}: {}", p.display(), stderr_of(&out));
        assert!(stderr_of(&out).contains("error:"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_digest_matches_direct_engine_run() {
    let dir = std::env::temp_dir().join(format!("apf-cli-digest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.json");
    let body = r#"{"name":"cli-parity","seed":1,"trials":3,"n":8,"rho":4,"budget":2000000}"#;
    std::fs::write(&spec_path, body).unwrap();

    let out = apf_cli(&["job-digest", spec_path.to_str().unwrap(), "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let printed: Vec<u64> =
        stdout_of(&out).lines().map(|l| l.parse().expect("digest lines are decimal u64")).collect();

    let spec = apf_serve::JobSpec::from_json_bytes(body.as_bytes()).unwrap();
    let report = apf_bench::engine::Engine::new().trace_digests(true).run(&spec.to_campaign());
    let expected = report.digests.expect("trace_digests(true) fills digests");
    assert_eq!(printed, expected, "CLI digests drifted from the engine's");
    std::fs::remove_dir_all(&dir).ok();
}
