//! Self-test against the real workspace: the committed tree must lint clean,
//! and the call-graph analyses' anchors must resolve in its sources.

use apf_lint::{lint_workspace, DIGEST_ROOTS, ELECTION_ENTRYPOINTS};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
}

#[test]
fn workspace_lints_clean() {
    let findings = lint_workspace(workspace_root()).expect("lint run succeeds");
    assert!(
        findings.is_empty(),
        "the committed workspace must lint clean; found:\n{}",
        apf_lint::report::render_text(&findings)
    );
}

/// Stale-pragma hygiene, stated on its own even though `workspace_lints_clean`
/// subsumes it: every `// apf-lint: allow(...)` in the committed tree must
/// still suppress at least one finding.
#[test]
fn workspace_has_no_stale_pragmas() {
    let findings = lint_workspace(workspace_root()).expect("lint run succeeds");
    let stale: Vec<_> = findings.iter().filter(|f| f.message.starts_with("stale pragma")).collect();
    assert!(stale.is_empty(), "stale pragmas in the committed tree: {stale:?}");
}

/// D10's roots and D11's entrypoints must resolve against the live sources —
/// a root that matches nothing would silently turn D10/D11 into a no-op.
#[test]
fn analysis_anchors_resolve_in_live_sources() {
    let root = workspace_root();
    let sources = [
        ("crates/trace/src/sink.rs", "apf-trace"),
        ("crates/bench/src/spec.rs", "apf-bench"),
        ("crates/core/src/rsb.rs", "apf-core"),
    ];
    let mut files = Vec::new();
    let mut parsed = Vec::new();
    for (rel, krate) in sources {
        let text = std::fs::read_to_string(root.join(rel)).expect("anchor file exists");
        parsed.push(apf_lint::parser::parse(&apf_lint::lexer::scan(&text), rel));
        files.push((rel.to_string(), krate.to_string()));
    }
    let sym = apf_lint::symbols::Symbols::build(&files, &parsed);
    for pat in DIGEST_ROOTS {
        assert!(!sym.matching(pat).is_empty(), "digest root `{pat}` matches no function");
    }
    for pat in ELECTION_ENTRYPOINTS {
        assert!(!sym.matching(pat).is_empty(), "election entrypoint `{pat}` matches no function");
    }
}

#[test]
fn workspace_discovers_every_crate() {
    let pkgs = apf_lint::discover_packages(workspace_root()).expect("discovery succeeds");
    let names: Vec<&str> = pkgs.iter().map(|p| p.name.as_str()).collect();
    for expected in [
        "apf",
        "apf-baselines",
        "apf-bench",
        "apf-conformance",
        "apf-core",
        "apf-geometry",
        "apf-lint",
        "apf-patterns",
        "apf-render",
        "apf-scheduler",
        "apf-serve",
        "apf-sim",
        "apf-trace",
    ] {
        assert!(names.contains(&expected), "missing {expected}; discovered {names:?}");
    }
}
