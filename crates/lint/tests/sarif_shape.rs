//! Report shape validation: `render_sarif` and `render_json` output is
//! re-parsed with the workspace's JSON parser (`apf_trace::json`, a
//! dev-dependency — the linter itself stays std-only). SARIF is walked
//! against the subset of the 2.1.0 schema that code scanners consume:
//! versioned run, tool driver with a rule index, and results whose
//! physical locations carry uri + line + column. The `--json` report must
//! carry every finding's fields verbatim.

use apf_lint::report::{render_json, render_sarif};
use apf_lint::rules::RULES;
use apf_lint::{lint_source, Finding};
use apf_trace::json::{self, Json};

fn sample_findings() -> Vec<Finding> {
    // Two real rules firing on a fixture, so results carry distinct ids,
    // lines and messages.
    let src = "fn f(o: Option<u8>) -> u8 { let mut rng = rand::thread_rng(); o.unwrap() }\n";
    let findings = lint_source("crates/sim/src/world.rs", "apf-sim", src);
    assert!(findings.len() >= 2, "fixture must produce several findings: {findings:?}");
    findings
}

fn parse_sarif(findings: &[Finding]) -> Json {
    let text = render_sarif(findings);
    json::parse(&text).expect("render_sarif emits valid JSON")
}

#[test]
fn sarif_log_has_the_2_1_0_envelope() {
    let log = parse_sarif(&sample_findings());
    assert_eq!(log.get("version").and_then(Json::as_str), Some("2.1.0"));
    let schema = log.get("$schema").and_then(Json::as_str).expect("$schema present");
    assert!(schema.contains("2.1.0"), "schema uri pins the version: {schema}");
    let runs = log.get("runs").and_then(Json::as_arr).expect("runs is an array");
    assert_eq!(runs.len(), 1, "one run per invocation");
}

#[test]
fn sarif_driver_indexes_every_registered_rule() {
    let log = parse_sarif(&sample_findings());
    let driver = log.get("runs").and_then(Json::as_arr).unwrap()[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver present");
    assert_eq!(driver.get("name").and_then(Json::as_str), Some("apf-lint"));
    let rules = driver.get("rules").and_then(Json::as_arr).expect("driver.rules array");
    // `id` is the stable rule name (what `result.ruleId` references);
    // `name` carries the short D-code.
    let ids: Vec<&str> = rules.iter().filter_map(|r| r.get("id").and_then(Json::as_str)).collect();
    assert_eq!(ids.len(), rules.len(), "every rule entry has an id");
    for def in RULES {
        assert!(ids.contains(&def.name), "rule {} ({}) missing from driver", def.code, def.name);
    }
    for r in rules {
        assert!(r.get("name").and_then(Json::as_str).is_some(), "rule name present");
        let short = r
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(Json::as_str)
            .expect("shortDescription.text present");
        assert!(!short.is_empty());
    }
}

#[test]
fn sarif_results_carry_physical_locations() {
    let findings = sample_findings();
    let log = parse_sarif(&findings);
    let run = &log.get("runs").and_then(Json::as_arr).unwrap()[0];
    let rule_ids: Vec<&str> = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    let results = run.get("results").and_then(Json::as_arr).expect("results array");
    assert_eq!(results.len(), findings.len(), "one result per finding");
    for (res, f) in results.iter().zip(&findings) {
        let rule_id = res.get("ruleId").and_then(Json::as_str).expect("ruleId present");
        assert!(rule_ids.contains(&rule_id), "result ruleId {rule_id} indexed by the driver");
        assert!(res.get("level").and_then(Json::as_str).is_some(), "level present");
        let msg = res
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .expect("message.text present");
        assert_eq!(msg, f.message);
        let loc = &res.get("locations").and_then(Json::as_arr).expect("locations array")[0];
        let phys = loc.get("physicalLocation").expect("physicalLocation present");
        let uri = phys
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str)
            .expect("artifactLocation.uri present");
        assert_eq!(uri, f.file);
        let region = phys.get("region").expect("region present");
        assert_eq!(region.get("startLine").and_then(Json::as_u64), Some(f.line as u64));
        assert_eq!(region.get("startColumn").and_then(Json::as_u64), Some(f.col as u64));
    }
}

#[test]
fn sarif_escapes_hostile_message_content() {
    // Pragma reasons and file content can inject quotes/backslashes into
    // messages; the emitted SARIF must survive a round-trip regardless.
    let src = "fn f() { let x = \"\\\\ \\\" payload\"; let mut rng = rand::thread_rng(); }\n";
    let findings = lint_source("crates/sim/src/world.rs", "apf-sim", src);
    let log = parse_sarif(&findings);
    assert!(log.get("runs").is_some());
}

#[test]
fn json_report_carries_every_finding() {
    let findings = sample_findings();
    let text = render_json(&findings);
    assert!(text.ends_with("}\n") && text.matches('\n').count() == 1, "one line: {text}");
    let report = json::parse(&text).expect("render_json emits valid JSON");
    assert_eq!(report.get("count").and_then(Json::as_u64), Some(findings.len() as u64));
    let items = report.get("findings").and_then(Json::as_arr).expect("findings array");
    assert_eq!(items.len(), findings.len(), "one entry per finding");
    for (item, f) in items.iter().zip(&findings) {
        assert_eq!(item.get("file").and_then(Json::as_str), Some(f.file.as_str()));
        assert_eq!(item.get("line").and_then(Json::as_u64), Some(f.line as u64));
        assert_eq!(item.get("col").and_then(Json::as_u64), Some(f.col as u64));
        assert_eq!(item.get("rule").and_then(Json::as_str), Some(f.rule.as_str()));
        assert_eq!(item.get("message").and_then(Json::as_str), Some(f.message.as_str()));
    }
    let empty = json::parse(&render_json(&[])).expect("an empty report is valid JSON");
    assert_eq!(empty.get("count").and_then(Json::as_u64), Some(0));
    assert_eq!(empty.get("findings").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
}
