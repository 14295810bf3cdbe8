#![forbid(unsafe_code)]
//! apf-lint — determinism & randomness-budget static analysis.
//!
//! The dynamic layers (trace inspector, conformance corpus, schedule
//! fuzzer) check the paper's headline invariants — one random bit per robot
//! per election cycle, bit-identical replay — only on the executions a run
//! happens to take. This crate proves the cheap half of those claims at the
//! *source* level, before any trial runs: no ambient entropy anywhere, no
//! random draw outside `ψ_RSB`, and — in the crates whose behavior feeds
//! trace digests — no wall clocks, hash-iteration order, exact float
//! equality, unaudited float↔int `as` casts, or unstable sorts.
//!
//! Since PR 9 the pass is *inter-procedural*: a token-tree
//! [`parser`] over the masking [`lexer`] extracts items and call sites, a
//! workspace [symbol table](symbols) resolves callees best-effort, and a
//! [call graph](callgraph) answers reachability queries for the taint
//! rules D10–D13 (digest purity, randomness reachability, lock order,
//! panic reachability — see the private `taint` module).
//!
//! The pass is deliberately std-only and dependency-free: it is the first
//! gate in `scripts/check.sh` and must build in the offline container
//! before anything else compiles.
//!
//! Entry points: [`lint_workspace`] walks every workspace crate;
//! [`lint_files`] lints a set of in-memory sources as one workspace (the
//! fixture tests build multi-crate scenarios this way); [`lint_source`] is
//! the single-file convenience wrapper. All return [`Finding`]s that render
//! as `file:line:col · rule · message` (see [`report`]).

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symbols;
mod taint;

pub use rules::{RuleDef, BAD_PRAGMA, RULES};
pub use taint::{DIGEST_ROOTS, ELECTION_ENTRYPOINTS};

use lexer::Scanned;
use rules::Matcher;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Rule name (`panic-policy`, …, or `bad-pragma`).
    pub rule: String,
    /// Human-readable explanation, starting with the matched token.
    pub message: String,
}

/// How a source file participates in rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Regular library code — every applicable rule fires.
    Library,
    /// `src/bin/` or `src/main.rs` — exempt from bin-exempt rules (P1).
    Binary,
    /// `tests/`, `benches/`, `examples/` — exempt from test-exempt rules.
    Test,
}

impl FileKind {
    /// Classifies a workspace-relative path.
    #[must_use]
    pub fn of(rel_path: &str) -> FileKind {
        let comps: Vec<&str> = rel_path.split('/').collect();
        if comps.contains(&"tests") || comps.contains(&"benches") || comps.contains(&"examples") {
            return FileKind::Test;
        }
        if rel_path.contains("src/bin/") || rel_path.ends_with("src/main.rs") {
            return FileKind::Binary;
        }
        FileKind::Library
    }
}

/// One in-memory source file for [`lint_files`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Package name the file belongs to (`apf-core`, …).
    pub crate_name: String,
    /// The source text.
    pub source: String,
}

/// Lints one source text as if it lived at `rel_path` inside `crate_name`.
#[must_use]
pub fn lint_source(rel_path: &str, crate_name: &str, source: &str) -> Vec<Finding> {
    lint_files(&[SourceFile {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        source: source.to_string(),
    }])
}

/// Lints a set of sources as one workspace: per-line rules on each file,
/// then the inter-procedural rules (D10–D13) over the combined call graph,
/// then pragma hygiene — including *stale* pragmas (well-formed `allow`s
/// that suppressed nothing anywhere in the run).
#[must_use]
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let entries: Vec<taint::FileEntry> = files
        .iter()
        .map(|f| taint::FileEntry {
            rel_path: f.rel_path.clone(),
            crate_name: f.crate_name.clone(),
            kind: FileKind::of(&f.rel_path),
            scanned: lexer::scan(&f.source),
        })
        .collect();
    let parsed: Vec<parser::ParsedFile> =
        entries.iter().map(|e| parser::parse(&e.scanned, &e.rel_path)).collect();
    let name_pairs: Vec<(String, String)> =
        entries.iter().map(|e| (e.rel_path.clone(), e.crate_name.clone())).collect();
    let sym = symbols::Symbols::build(&name_pairs, &parsed);
    let graph = callgraph::CallGraph::build(&parsed, &sym);

    let mut pragma_used: Vec<Vec<bool>> =
        entries.iter().map(|e| vec![false; e.scanned.pragmas.len()]).collect();
    let mut findings = Vec::new();

    for (fi, e) in entries.iter().enumerate() {
        for rule in RULES {
            if !matches!(rule.matcher, Matcher::CallGraph) && rule.applies_to(e) {
                run_rule(rule, &e.scanned, &e.rel_path, &mut pragma_used[fi], &mut findings);
            }
        }
    }

    {
        let ws = taint::Ws { files: &entries, parsed: &parsed, sym: &sym, graph: &graph };
        let mut emit =
            |rule: &'static RuleDef, fi: usize, line: usize, col: usize, message: String| {
                let e = &entries[fi];
                if !rule.applies_to(e) || (e.scanned.is_test_line(line) && !rule.applies_in_tests) {
                    return;
                }
                if let Some(pi) = find_suppressor(&e.scanned, rule.name, line) {
                    pragma_used[fi][pi] = true;
                    return;
                }
                findings.push(Finding {
                    file: e.rel_path.clone(),
                    line,
                    col,
                    rule: rule.name.to_string(),
                    message,
                });
            };
        taint::run(&ws, &mut emit);
    }

    for (fi, e) in entries.iter().enumerate() {
        pragma_diagnostics(&e.scanned, &e.rel_path, &mut findings);
        for (pi, p) in e.scanned.pragmas.iter().enumerate() {
            let well_formed = p.error.is_none()
                && p.has_reason
                && p.rules.iter().all(|r| rules::is_known_rule(r));
            if well_formed && !pragma_used[fi][pi] {
                findings.push(Finding {
                    file: e.rel_path.clone(),
                    line: p.line,
                    col: 1,
                    rule: BAD_PRAGMA.to_string(),
                    message: format!(
                        "stale pragma: allow({}) suppresses no findings — the code it \
                         excused changed or the rule no longer applies here; delete it \
                         or re-justify",
                        p.rules.join(", ")
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule.as_str(),
        ))
    });
    findings.dedup();
    findings
}

fn run_rule(
    rule: &RuleDef,
    scanned: &Scanned,
    rel_path: &str,
    pragma_used: &mut [bool],
    findings: &mut Vec<Finding>,
) {
    for (idx, line_text) in scanned.masked.split('\n').enumerate() {
        let line_no = idx + 1;
        if scanned.is_test_line(line_no) && !rule.applies_in_tests {
            continue;
        }
        let hits: Vec<(usize, &str)> = match rule.matcher {
            Matcher::Needles(needles) => needles
                .iter()
                .flat_map(|&n| {
                    rules::needle_matches(line_text, n).into_iter().map(move |at| (at, n.text()))
                })
                .collect(),
            Matcher::FloatEq => rules::float_eq_matches(line_text)
                .into_iter()
                .map(|at| (at, "float ==/!="))
                .collect(),
            Matcher::FloatIntCast => rules::float_int_cast_matches(line_text)
                .into_iter()
                .map(|at| (at, "float<->int `as` cast"))
                .collect(),
            Matcher::CallGraph => Vec::new(),
        };
        for (at, token) in hits {
            if let Some(pi) = find_suppressor(scanned, rule.name, line_no) {
                pragma_used[pi] = true;
                continue;
            }
            findings.push(Finding {
                file: rel_path.to_string(),
                line: line_no,
                col: at + 1,
                rule: rule.name.to_string(),
                message: format!("`{}` — {} [{}]", token.trim(), rule.message, rule.code),
            });
        }
    }
}

/// A finding on `line` is suppressed by a trailing pragma on the same line,
/// or by an own-line pragma on exactly the previous line. A pragma without a
/// reason suppresses nothing — it is itself a [`BAD_PRAGMA`] finding, and
/// honoring it would let an unauditable suppression ride on a failing run.
/// Returns the index of the suppressing pragma so callers can track usage
/// (an `allow` that never suppresses anything is *stale* and reported).
fn find_suppressor(scanned: &Scanned, rule_name: &str, line: usize) -> Option<usize> {
    scanned.pragmas.iter().position(|p| {
        p.error.is_none()
            && p.has_reason
            && p.rules.iter().any(|r| r == rule_name)
            && ((!p.own_line && p.line == line) || (p.own_line && p.line + 1 == line))
    })
}

/// Malformed pragmas, pragmas without a reason, and pragmas naming unknown
/// rules are themselves findings: a suppression nobody can audit is a hole.
fn pragma_diagnostics(scanned: &Scanned, rel_path: &str, findings: &mut Vec<Finding>) {
    for p in &scanned.pragmas {
        let mut bad = |message: String| {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: p.line,
                col: 1,
                rule: BAD_PRAGMA.to_string(),
                message,
            });
        };
        if let Some(err) = &p.error {
            bad(format!("malformed apf-lint pragma: {err}"));
            continue;
        }
        for r in &p.rules {
            if !rules::is_known_rule(r) {
                bad(format!("pragma names unknown rule `{r}`"));
            }
        }
        if !p.has_reason {
            bad("pragma without a reason; write `// apf-lint: allow(<rule>) — <why>`".to_string());
        }
    }
}

/// A workspace member to scan.
#[derive(Debug, Clone)]
pub struct Package {
    /// Package name from `Cargo.toml` (`apf-core`, …).
    pub name: String,
    /// Workspace-relative directory ("" for the root package).
    pub rel_dir: String,
    /// Absolute directory.
    pub dir: PathBuf,
}

/// Extracts `name = "…"` from a `[package]` section.
#[must_use]
pub fn package_name(cargo_toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in cargo_toml.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('[') {
            in_package = rest.trim_end_matches(']').trim() == "package";
            continue;
        }
        if in_package {
            if let Some((k, v)) = line.split_once('=') {
                if k.trim() == "name" {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The directory holding the workspace's member crates. The root package
/// is scanned only in its [`SOURCE_DIRS`], so the vendored stand-in crates
/// (`vendor/`) and build output (`target/`) are never linted.
const CRATE_ROOT: &str = "crates";

/// Discovers the packages to lint: the root package plus every crate under
/// `crates/`.
///
/// # Errors
///
/// Returns [`io::ErrorKind::NotFound`] when `root` holds neither a
/// `Cargo.toml` nor a `crates/` directory (a mistyped or missing root,
/// which would otherwise lint nothing and pass), and propagates I/O errors
/// from directory walking.
pub fn discover_packages(root: &Path) -> io::Result<Vec<Package>> {
    let mut packages = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    let dir = root.join(CRATE_ROOT);
    if !root_manifest.is_file() && !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no workspace here: neither Cargo.toml nor {CRATE_ROOT}/ exists"),
        ));
    }
    if root_manifest.is_file() {
        if let Some(name) = package_name(&std::fs::read_to_string(&root_manifest)?) {
            packages.push(Package { name, rel_dir: String::new(), dir: root.to_path_buf() });
        }
    }
    if !dir.is_dir() {
        return Ok(packages);
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(&dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        let Some(dir_name) = entry.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let manifest = entry.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        if let Some(name) = package_name(&std::fs::read_to_string(&manifest)?) {
            packages.push(Package {
                name,
                rel_dir: format!("{CRATE_ROOT}/{dir_name}"),
                dir: entry,
            });
        }
    }
    Ok(packages)
}

/// The source subtrees scanned inside every package.
const SOURCE_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Lints every `.rs` file of every discovered package.
///
/// # Errors
///
/// Propagates I/O errors; unreadable files fail the run rather than being
/// silently skipped (a gate that skips is not a gate).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for pkg in discover_packages(root)? {
        let mut files = Vec::new();
        for sub in SOURCE_DIRS {
            let dir = pkg.dir.join(sub);
            if dir.is_dir() {
                collect_rs_files(&dir, &mut files)?;
            }
        }
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            let source = std::fs::read_to_string(&file)?;
            sources.push(SourceFile { rel_path: rel, crate_name: pkg.name.clone(), source });
        }
    }
    Ok(lint_files(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_kind_classification() {
        assert_eq!(FileKind::of("crates/core/src/rsb.rs"), FileKind::Library);
        assert_eq!(FileKind::of("crates/core/tests/props.rs"), FileKind::Test);
        assert_eq!(FileKind::of("tests/chirality.rs"), FileKind::Test);
        assert_eq!(FileKind::of("examples/quickstart.rs"), FileKind::Test);
        assert_eq!(FileKind::of("crates/bench/benches/snapshot_pipeline.rs"), FileKind::Test);
        assert_eq!(FileKind::of("src/bin/apf-cli.rs"), FileKind::Binary);
        assert_eq!(FileKind::of("src/main.rs"), FileKind::Binary);
        assert_eq!(FileKind::of("src/lib.rs"), FileKind::Library);
    }

    #[test]
    fn package_name_parses() {
        let toml = "[workspace]\nmembers = [\"x\"]\n\n[package]\nname = \"apf\"\nversion = \"1\"\n";
        assert_eq!(package_name(toml).as_deref(), Some("apf"));
        assert_eq!(package_name("[workspace]\n"), None);
    }
}
