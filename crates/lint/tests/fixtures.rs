//! Rule-by-rule fixture tests: each synthetic source exercises one rule's
//! firing condition, its scoping (crate, test, binary), and its pragma
//! suppression. Fixture code lives in string literals, which the masking
//! lexer blanks out — so these fixtures can never trip the linter on this
//! file itself.

use apf_lint::{lint_source, FileKind, Finding};

fn rules_fired(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

fn lint(rel_path: &str, crate_name: &str, source: &str) -> Vec<Finding> {
    lint_source(rel_path, crate_name, source)
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_unseeded_randomness_fires_everywhere() {
    let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
    for (path, krate) in [
        ("crates/core/src/rsb.rs", "apf-core"),
        ("crates/bench/src/engine.rs", "apf-bench"),
        ("src/bin/apf-cli.rs", "apf"),
        ("crates/sim/tests/world.rs", "apf-sim"),
    ] {
        let f = lint(path, krate, src);
        assert_eq!(rules_fired(&f), vec!["no-unseeded-randomness"], "at {path}");
    }
}

#[test]
fn d1_catches_every_entropy_source() {
    for needle in ["rand::random::<f64>()", "SmallRng::from_entropy()", "OsRng.fill(&mut b)"] {
        let src = format!("fn f() {{ let x = {needle}; }}\n");
        let f = lint("crates/core/src/lib.rs", "apf-core", &src);
        assert!(
            f.iter().any(|f| f.rule == "no-unseeded-randomness"),
            "`{needle}` not caught: {f:?}"
        );
    }
}

#[test]
fn d1_ident_boundaries_respected() {
    // `my_thread_rng_cache` contains the needle as a substring but not as an
    // identifier — must not fire.
    let src = "fn f(my_thread_rng_cache: u64) -> u64 { my_thread_rng_cache }\n";
    assert!(lint("crates/core/src/lib.rs", "apf-core", src).is_empty());
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fires_on_random_draw_outside_rsb_module() {
    // The acceptance fixture: a random bit drawn in a deterministic-phase
    // module of apf-core (anywhere but the allowlisted rsb.rs) must fire.
    let src = "fn elect(rng: &mut Rng) -> bool { rng.gen_bool(0.5) }\n";
    let f = lint("crates/core/src/dpf/phase1.rs", "apf-core", src);
    assert_eq!(rules_fired(&f), vec!["randomness-budget"]);
}

#[test]
fn d2_allows_the_rsb_election_module() {
    let src = "fn elect(rng: &mut Rng) -> bool { rng.gen_bool(0.5) }\n";
    let f = lint("crates/core/src/rsb.rs", "apf-core", src);
    assert!(f.is_empty(), "rsb.rs is the one sanctioned draw site: {f:?}");
}

#[test]
fn d2_out_of_scope_in_scheduler_and_sim() {
    // Adversary draws (scheduler) and frame randomization (sim) are separate
    // seeded streams, not part of the algorithm's randomness budget.
    let src = "fn pick(rng: &mut Rng) -> usize { rng.gen_range(0..9) }\n";
    assert!(lint("crates/scheduler/src/lib.rs", "apf-scheduler", src).is_empty());
    assert!(lint("crates/sim/src/frame.rs", "apf-sim", src).is_empty());
}

#[test]
fn d2_dot_gen_matches_call_but_not_gen_bool_ident() {
    let f = lint("crates/core/src/dpf/mod.rs", "apf-core", "fn f(r: &mut R) -> u8 { r.gen() }\n");
    assert_eq!(rules_fired(&f), vec!["randomness-budget"]);
    // `.gen` must not double-fire on `.gen_bool` (ExactNotIdent stops at a
    // longer identifier), but gen_bool itself still fires once via its own
    // needle.
    let f2 = lint(
        "crates/core/src/dpf/mod.rs",
        "apf-core",
        "fn f(r: &mut R) -> bool { r.gen_bool(0.5) }\n",
    );
    assert_eq!(f2.len(), 1, "{f2:?}");
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_wallclock_fires_in_sim_crates_only() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    let f = lint("crates/sim/src/world.rs", "apf-sim", src);
    assert_eq!(rules_fired(&f), vec!["no-wallclock-in-sim"]);
    // apf-bench measures real wall time on purpose — out of scope.
    assert!(lint("crates/bench/src/engine.rs", "apf-bench", src).is_empty());
}

#[test]
fn d3_trace_is_in_scope_with_only_the_span_module_allowlisted() {
    // apf-trace's event/digest paths must stay clock-free: a wall-clock read
    // anywhere in the crate fires ...
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    let f = lint("crates/trace/src/sink.rs", "apf-trace", src);
    assert_eq!(rules_fired(&f), vec!["no-wallclock-in-sim"]);
    // ... except in the span profiler, the one sanctioned monotonic-clock
    // site (structurally separate from every digest path).
    assert!(lint("crates/trace/src/span.rs", "apf-trace", src).is_empty());
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_hash_containers_fire_in_digest_crates_only() {
    let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
    let f = lint("crates/trace/src/lib.rs", "apf-trace", src);
    assert!(f.iter().all(|f| f.rule == "no-hash-iteration-in-digest-paths"));
    assert_eq!(f.len(), 2, "one per mention: {f:?}");
    // apf-render never feeds a digest.
    assert!(lint("crates/render/src/lib.rs", "apf-render", src).is_empty());
}

// ---------------------------------------------------------------- D5

#[test]
fn d5_float_eq_fires_on_literal_comparisons() {
    for expr in ["x == 0.0", "x != 1.5", "0.0 == x", "x == 1e-3", "x == 2.5f64", "x == f64::NAN"] {
        let src = format!("fn f(x: f64) -> bool {{ {expr} }}\n");
        let f = lint("crates/geometry/src/tol.rs", "apf-geometry", &src);
        assert_eq!(rules_fired(&f), vec!["no-float-eq"], "`{expr}`");
    }
}

#[test]
fn d5_ignores_integers_tuples_and_ordering() {
    for expr in ["n == 0", "pair.0 == n", "x <= 0.0", "x >= 1.0", "a == b"] {
        let src = format!(
            "fn f(n: usize, x: f64, a: u8, b: u8, pair: (usize, u8)) -> bool {{ {expr} }}\n"
        );
        let f = lint("crates/geometry/src/tol.rs", "apf-geometry", &src);
        assert!(f.is_empty(), "`{expr}` should not fire: {f:?}");
    }
}

#[test]
fn d5_out_of_scope_outside_geometry_and_core() {
    let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
    assert!(lint("crates/bench/src/lib.rs", "apf-bench", src).is_empty());
}

// ---------------------------------------------------------------- D6

#[test]
fn d6_float_int_casts_fire_in_digest_crates_only() {
    for expr in [
        "(x * 1e6).round() as i64",
        "x.floor() as u32",
        "x.ceil() as usize",
        "x.trunc() as i32",
        "1.5 as i64",
        "x as f32",
    ] {
        let src = format!("fn f(x: f64) -> i64 {{ let v = {expr}; v as i64 }}\n");
        let f = lint("crates/trace/src/event.rs", "apf-trace", &src);
        assert!(
            f.iter().any(|f| f.rule == "no-float-int-casts-in-digest-paths"),
            "`{expr}` should fire: {f:?}"
        );
        // apf-render draws pictures, not digests — out of scope.
        assert!(lint("crates/render/src/lib.rs", "apf-render", &src).is_empty(), "`{expr}`");
    }
}

#[test]
fn d6_stays_silent_without_float_evidence() {
    for expr in ["n as f64", "n as u64", "idx as usize", "b as char", "v.len() as u64"] {
        let src = format!("fn f(n: u32, idx: i32, b: u8, v: &[u8]) {{ let _ = {expr}; }}\n");
        let f = lint("crates/trace/src/event.rs", "apf-trace", &src);
        assert!(f.is_empty(), "`{expr}` should not fire: {f:?}");
    }
}

#[test]
fn d6_pragma_suppresses_an_audited_quantizer() {
    let src = "fn q(x: f64) -> i64 {\n\
               \x20   // apf-lint: allow(no-float-int-casts-in-digest-paths) — audited, < 2^53\n\
               \x20   x.round() as i64\n\
               }\n";
    assert!(lint("crates/geometry/src/quant.rs", "apf-geometry", src).is_empty());
}

#[test]
fn d6_exempt_in_tests_of_scoped_crates() {
    let src = "fn f(x: f64) -> i64 { x.round() as i64 }\n";
    assert!(lint("crates/trace/tests/roundtrip.rs", "apf-trace", src).is_empty());
}

// ---------------------------------------------------------------- D7

#[test]
fn d7_unstable_sorts_fire_in_digest_crates_only() {
    for expr in
        ["v.sort_unstable()", "v.sort_unstable_by(|a, b| a.cmp(b))", "v.sort_unstable_by_key(k)"]
    {
        let src = format!("fn f(v: &mut Vec<u32>) {{ {expr}; }}\n");
        let f = lint("crates/conformance/src/corpus.rs", "apf-conformance", &src);
        assert_eq!(rules_fired(&f), vec!["stable-sort-in-digest-paths"], "`{expr}`");
        assert!(lint("crates/bench/src/engine.rs", "apf-bench", &src).is_empty(), "`{expr}`");
    }
}

#[test]
fn d7_stable_sorts_do_not_fire() {
    let src =
        "fn f(v: &mut Vec<u32>) { v.sort(); v.sort_by(|a, b| a.cmp(b)); v.sort_by_key(k); }\n";
    assert!(lint("crates/conformance/src/corpus.rs", "apf-conformance", src).is_empty());
}

#[test]
fn d7_exempt_in_tests_of_scoped_crates() {
    let src = "fn f(v: &mut Vec<u32>) { v.sort_unstable(); }\n";
    assert!(lint("crates/conformance/tests/golden.rs", "apf-conformance", src).is_empty());
}

// ---------------------------------------------------------------- D8

#[test]
fn d8_f32_fires_in_geometry_only() {
    for src in ["fn f(x: f32) -> f32 { x * 2.0 }\n", "fn f(x: f64) -> f64 { (x as f32) as f64 }\n"]
    {
        let f = lint("crates/geometry/src/tol.rs", "apf-geometry", src);
        assert!(f.iter().any(|f| f.rule == "no-f32-in-geometry"), "`{src}`: {f:?}");
        let f = lint("crates/bench/src/engine.rs", "apf-bench", src);
        assert!(!f.iter().any(|f| f.rule == "no-f32-in-geometry"), "`{src}`: {f:?}");
    }
}

#[test]
fn d8_applies_inside_geometry_tests() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _x: f32 = 1.0; }\n}\n";
    let f = lint("crates/geometry/src/tol.rs", "apf-geometry", src);
    assert_eq!(rules_fired(&f), vec!["no-f32-in-geometry"]);
}

#[test]
fn d8_ident_boundaries_respected() {
    // `f32x4` or `to_f32_bits` style identifiers are not the `f32` type token.
    let src = "fn f(x: F32Wrapper) { x.not_f32_really(); }\nstruct F32Wrapper;\n";
    assert!(lint("crates/geometry/src/tol.rs", "apf-geometry", src).is_empty());
}

// ---------------------------------------------------------------- D9

#[test]
fn d9_zip_fires_in_robot_fold_crates_only() {
    let src = "fn f(a: &[u8], b: &[u8]) -> usize { a.iter().zip(b.iter()).count() }\n";
    for (path, krate) in [
        ("crates/core/src/dpf/phase2.rs", "apf-core"),
        ("crates/geometry/src/similarity.rs", "apf-geometry"),
        ("crates/sim/src/world.rs", "apf-sim"),
    ] {
        assert_eq!(rules_fired(&lint(path, krate, src)), vec!["zip-length-mismatch"], "{krate}");
    }
    assert!(lint("crates/bench/src/engine.rs", "apf-bench", src).is_empty());
}

#[test]
fn d9_applies_in_tests_of_scoped_crates() {
    // zip truncation in a test silently weakens the assertion loop.
    let src = "fn f(a: &[u8], b: &[u8]) -> usize { a.iter().zip(b.iter()).count() }\n";
    let f = lint("crates/sim/tests/world.rs", "apf-sim", src);
    assert_eq!(rules_fired(&f), vec!["zip-length-mismatch"]);
}

#[test]
fn d9_pragma_with_length_argument_suppresses() {
    let src = "fn f(a: &[u8], b: &[u8]) -> usize {\n\
               \x20   // apf-lint: allow(zip-length-mismatch) — both m1 long by construction\n\
               \x20   a.iter().zip(b.iter()).count()\n\
               }\n";
    assert!(lint("crates/core/src/dpf/phase2.rs", "apf-core", src).is_empty());
}

#[test]
fn d9_ignores_zip_shaped_identifiers() {
    // `unzip(` and a bare `zip(` call are not `Iterator::zip`.
    let src =
        "fn f(v: Vec<(u8, u8)>) { let (_a, _b): (Vec<_>, Vec<_>) = v.into_iter().unzip(); }\n";
    assert!(lint("crates/core/src/lib.rs", "apf-core", src).is_empty());
}

// ---------------------------------------------------------------- P1

#[test]
fn p1_unwrap_fires_in_library_code_only() {
    let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
    assert_eq!(rules_fired(&lint("crates/sim/src/world.rs", "apf-sim", src)), vec!["panic-policy"]);
    // Binaries and test sources are exempt.
    assert!(lint("src/bin/apf-cli.rs", "apf", src).is_empty());
    assert!(lint("crates/sim/tests/world.rs", "apf-sim", src).is_empty());
    assert!(lint("crates/sim/benches/speed.rs", "apf-sim", src).is_empty());
}

#[test]
fn p1_exempt_inside_cfg_test_modules() {
    let src = "fn lib() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { Some(1).unwrap(); }\n\
               }\n";
    let f = lint("crates/sim/src/world.rs", "apf-sim", src);
    assert!(f.is_empty(), "cfg(test) region must be exempt: {f:?}");
}

// ---------------------------------------------------------------- file kinds

#[test]
fn file_kind_classification() {
    assert_eq!(FileKind::of("crates/sim/src/world.rs"), FileKind::Library);
    assert_eq!(FileKind::of("crates/sim/tests/world.rs"), FileKind::Test);
    assert_eq!(FileKind::of("crates/sim/benches/speed.rs"), FileKind::Test);
    assert_eq!(FileKind::of("crates/sim/examples/demo.rs"), FileKind::Test);
    assert_eq!(FileKind::of("src/bin/apf-cli.rs"), FileKind::Binary);
    assert_eq!(FileKind::of("src/main.rs"), FileKind::Binary);
    assert_eq!(FileKind::of("src/lib.rs"), FileKind::Library);
}

// ---------------------------------------------------------------- pragmas

#[test]
fn trailing_pragma_suppresses_its_own_line() {
    let src =
        "fn f(o: Option<u8>) -> u8 { o.unwrap() } // apf-lint: allow(panic-policy) — fixture\n";
    assert!(lint("crates/sim/src/a.rs", "apf-sim", src).is_empty());
}

#[test]
fn own_line_pragma_suppresses_exactly_the_next_line() {
    let src = "// apf-lint: allow(panic-policy) — fixture reason\n\
               fn f(o: Option<u8>) -> u8 { o.unwrap() }\n\
               fn g(o: Option<u8>) -> u8 { o.unwrap() }\n";
    let f = lint("crates/sim/src/a.rs", "apf-sim", src);
    assert_eq!(f.len(), 1, "only the second unwrap survives: {f:?}");
    assert_eq!(f[0].line, 3);
}

#[test]
fn pragma_with_blank_line_between_does_not_reach() {
    let src = "// apf-lint: allow(panic-policy) — fixture reason\n\
               \n\
               fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
    let f = lint("crates/sim/src/a.rs", "apf-sim", src);
    // The out-of-reach pragma suppresses nothing, so it is also stale.
    assert_eq!(
        rules_fired(&f),
        vec!["bad-pragma", "panic-policy"],
        "blank line breaks the pragma scope"
    );
}

#[test]
fn pragma_for_one_rule_does_not_suppress_another() {
    let src = "// apf-lint: allow(no-float-eq) — fixture reason\n\
               fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
    let f = lint("crates/sim/src/a.rs", "apf-sim", src);
    // The no-float-eq allowance never fires here, so the pragma is stale.
    assert_eq!(rules_fired(&f), vec!["bad-pragma", "panic-policy"]);
}

#[test]
fn reasonless_pragma_is_a_finding_and_does_not_suppress() {
    let src = "// apf-lint: allow(panic-policy)\n\
               fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
    let findings = lint("crates/sim/src/a.rs", "apf-sim", src);
    let mut rules = rules_fired(&findings);
    rules.sort_unstable();
    assert_eq!(rules, vec!["bad-pragma", "panic-policy"]);
}

#[test]
fn pragma_naming_unknown_rule_is_a_finding() {
    let src = "// apf-lint: allow(no-such-rule) — reason\nfn f() {}\n";
    let f = lint("crates/sim/src/a.rs", "apf-sim", src);
    assert_eq!(rules_fired(&f), vec!["bad-pragma"]);
    assert!(f[0].message.contains("no-such-rule"));
}
