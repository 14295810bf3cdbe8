//! Rendering findings for humans (`file:line:col · rule · message`) and
//! machines (`--json`, `--sarif`), plus the `--explain <rule>` pages.

use crate::rules::{RuleDef, RULES};
use crate::Finding;
use std::fmt::Write as _;

/// One line per finding plus a summary tail line.
#[must_use]
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}:{} · {} · {}", f.file, f.line, f.col, f.rule, f.message);
    }
    if findings.is_empty() {
        out.push_str("apf-lint: clean\n");
    } else {
        let _ = writeln!(out, "apf-lint: {} finding(s)", findings.len());
    }
    out
}

/// Machine format: `{"count": N, "findings": [{...}]}`. Hand-rolled rather
/// than built on `apf_trace::json`: the linter stays dependency-free.
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"count\":{},\"findings\":[", findings.len());
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}}}",
            json_string(&f.file),
            f.line,
            f.col,
            json_string(&f.rule),
            json_string(&f.message)
        );
    }
    out.push_str("]}\n");
    out
}

/// A rule's crate scope as printed: `all crates` or the crate list.
fn scope(r: &RuleDef) -> String {
    r.crates.map_or_else(|| "all crates".to_string(), |list| list.join(", "))
}

/// The rule table for `--list-rules`: each rule's scope, summary, and
/// allowlisted files when it has any.
#[must_use]
pub fn render_rules() -> String {
    let mut out = String::new();
    for r in RULES {
        let _ = writeln!(out, "{:>3}  {:<36} [{}]", r.code, r.name, scope(r));
        let _ = writeln!(out, "     {}", r.summary);
        if !r.allow_files.is_empty() {
            let _ = writeln!(out, "     allowlisted: {}", r.allow_files.join(", "));
        }
    }
    out.push_str(
        "\npragma: // apf-lint: allow(<rule>[, <rule>]) — <reason>\n\
         scope:  trailing comment = that line; own line = the next line only\n",
    );
    out
}

/// SARIF 2.1.0 — the static-analysis interchange format CI dashboards and
/// code hosts ingest. One run, one driver (`apf-lint`), the full rule
/// table under `tool.driver.rules`, one `result` per finding with a
/// physical location. Hand-rolled on the same escaper as [`render_json`].
#[must_use]
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\"version\":\"2.1.0\",");
    out.push_str(
        "\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",",
    );
    out.push_str("\"runs\":[{\"tool\":{\"driver\":{\"name\":\"apf-lint\",");
    out.push_str("\"informationUri\":\"https://example.invalid/apf-lint\",\"rules\":[");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":{},\"shortDescription\":{{\"text\":{}}},\
             \"fullDescription\":{{\"text\":{}}}}}",
            json_string(r.name),
            json_string(r.code),
            json_string(r.summary),
            json_string(r.explain)
        );
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
             {{\"uri\":{}}},\"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
            json_string(&f.rule),
            json_string(&f.message),
            json_string(&f.file),
            f.line,
            f.col
        );
    }
    out.push_str("]}]}\n");
    out
}

/// The `--explain <rule>` page: code, scope, allowlisted files, and the
/// long-form rationale. Returns `None` for an unknown rule name or code.
#[must_use]
pub fn render_explain(rule: &str) -> Option<String> {
    let r = RULES.iter().find(|r| r.name == rule || r.code == rule)?;
    let allowlisted =
        if r.allow_files.is_empty() { "none".to_string() } else { r.allow_files.join(", ") };
    let mut out = String::new();
    let _ = writeln!(out, "{} · {}", r.code, r.name);
    let _ = writeln!(out, "scope: {}", scope(r));
    let _ = writeln!(out, "allowlisted: {allowlisted}");
    let _ = writeln!(out, "in tests: {} · in bins: {}", r.applies_in_tests, r.applies_in_bins);
    let _ = writeln!(out, "\n{}\n", r.summary);
    let _ = writeln!(out, "{}", r.explain);
    let _ = writeln!(out, "\nsuppress: // apf-lint: allow({}) — <why this site is sound>", r.name);
    Some(out)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            file: "crates/core/src/lib.rs".into(),
            line: 3,
            col: 7,
            rule: "panic-policy".into(),
            message: "`.unwrap()` — say \"why\"".into(),
        }
    }

    #[test]
    fn text_format() {
        let t = render_text(&[finding()]);
        assert!(t.starts_with("crates/core/src/lib.rs:3:7 · panic-policy · "), "{t}");
        assert!(t.contains("1 finding(s)"));
        assert_eq!(render_text(&[]), "apf-lint: clean\n");
    }

    #[test]
    fn json_escapes() {
        let j = render_json(&[finding()]);
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("say \\\"why\\\""));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
    }

    #[test]
    fn rules_table_mentions_every_rule() {
        let t = render_rules();
        for r in RULES {
            assert!(t.contains(r.name), "missing {}", r.name);
        }
    }

    #[test]
    fn sarif_contains_rules_and_results() {
        let s = render_sarif(&[finding()]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"apf-lint\""));
        assert!(s.contains("\"ruleId\":\"panic-policy\""));
        assert!(s.contains("\"startLine\":3"));
        for r in RULES {
            assert!(s.contains(&format!("\"id\":\"{}\"", r.name)), "missing {}", r.name);
        }
    }

    #[test]
    fn explain_resolves_names_and_codes() {
        for r in RULES {
            let by_name = render_explain(r.name).unwrap();
            assert!(by_name.contains(r.code), "{} page lacks its code", r.name);
            assert!(by_name.contains(r.explain.split_whitespace().next().unwrap()));
            assert!(render_explain(r.code).is_some(), "{} not found by code", r.code);
        }
        assert!(render_explain("no-such-rule").is_none());
    }
}
