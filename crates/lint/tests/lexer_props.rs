//! Property tests for the masking lexer: rule needles buried in comments,
//! string literals, or raw strings must never produce findings, and the
//! masked text must stay byte-aligned with the source.
//!
//! The filler alphabet deliberately cannot spell `apf-lint`, `*/`, `"`, or
//! `\`, so a generated payload can neither form an accidental pragma nor
//! escape the literal it is embedded in.

use apf_lint::{lexer, lint_source};
use proptest::prelude::*;

/// Every needle any rule matches on, plus a float comparison for D5.
const NEEDLES: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "rand::random",
    "from_entropy",
    "OsRng",
    ".gen()",
    "gen_bool",
    "gen_range",
    "random_bit",
    "Instant::now",
    "SystemTime",
    "HashMap",
    "HashSet",
    "x == 0.0",
    "x != 1e-3",
    ".unwrap()",
    ".expect(",
];

/// Safe in every literal/comment context (no quote, backslash, `/`, `*`,
/// `#`, or newline) and unable to spell `apf-lint` (letters are a, b, Z
/// only).
const FILLER: &[char] =
    &['a', 'b', 'Z', '_', '0', '9', ' ', '.', ';', ':', '(', ')', '=', '!', '<', '>', '+', '-'];

fn filler() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FILLER.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| FILLER[i]).collect())
}

/// `<filler><needle><filler>` — hostile content for a non-code region.
fn payload() -> impl Strategy<Value = String> {
    (filler(), 0..NEEDLES.len(), filler()).prop_map(|(a, i, b)| format!("{a}{}{b}", NEEDLES[i]))
}

/// Wraps a payload in one of the non-code contexts the lexer must mask.
fn embed(kind: usize, payload: &str) -> String {
    match kind {
        0 => format!("fn f() {{}} // {payload}\n"),
        1 => format!("fn f() {{ /* {payload} */ }}\n"),
        2 => format!("/* outer /* {payload} */ still comment */\nfn f() {{}}\n"),
        3 => format!("fn f() -> String {{ String::from(\"{payload}\") }}\n"),
        4 => format!("fn f() -> &'static str {{ r#\"{payload}\"# }}\n"),
        _ => format!("fn f() -> u8 {{ b\"{payload}\"[0] }}\n"),
    }
}

/// A path/crate pair where every rule is in scope under the default config.
const HOT_PATH: &str = "crates/core/src/dpf/fixture.rs";
const HOT_CRATE: &str = "apf-core";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn needles_never_fire_inside_non_code_regions(kind in 0..6usize, p in payload()) {
        let src = embed(kind, &p);
        let findings = lint_source(HOT_PATH, HOT_CRATE, &src);
        prop_assert!(findings.is_empty(), "{src:?} -> {findings:?}");
    }

    #[test]
    fn masking_preserves_length_and_newlines(
        kinds in prop::collection::vec(0..6usize, 1..6),
        p in payload(),
    ) {
        let src: String = kinds.iter().map(|&k| embed(k, &p)).collect();
        let scanned = lexer::scan(&src);
        prop_assert_eq!(scanned.masked.len(), src.len());
        for (a, b) in src.bytes().zip(scanned.masked.bytes()) {
            prop_assert_eq!(a == b'\n', b == b'\n', "newline alignment broken");
        }
    }

    #[test]
    fn violations_next_to_hostile_comments_still_fire(p in payload()) {
        // Real code before a comment stuffed with needles: exactly the code's
        // own finding must survive, nothing from the comment.
        let src = format!("fn f(o: Option<u8>) -> u8 {{ o.unwrap() }} // {p}\n");
        let findings = lint_source(HOT_PATH, HOT_CRATE, &src);
        prop_assert_eq!(findings.len(), 1, "{findings:?}");
        prop_assert_eq!(findings[0].rule.as_str(), "panic-policy");
        prop_assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn own_line_pragma_suppresses_exactly_one_line(k in 1..6usize) {
        // One pragma, then k identical violating lines: only the first is
        // suppressed, whatever k is.
        let mut src = String::from("// apf-lint: allow(panic-policy) — generated fixture\n");
        for _ in 0..k {
            src.push_str("fn f(o: Option<u8>) -> u8 { o.unwrap() }\n");
        }
        let findings = lint_source(HOT_PATH, HOT_CRATE, &src);
        prop_assert_eq!(findings.len(), k - 1, "{findings:?}");
        for (i, f) in findings.iter().enumerate() {
            prop_assert_eq!(f.line, i + 3); // line 2 is the suppressed one
        }
    }

    #[test]
    fn string_split_across_tokens_does_not_leak(a in filler(), b in filler()) {
        // The classic lexer trap: a string whose content looks like the start
        // of a comment or the end of one.
        let src = format!(
            "fn f() -> String {{ format!(\"{a}/* not a comment {b}\") }}\n\
             fn g() -> String {{ format!(\"{a}*/ not an end {b}\") }}\n"
        );
        let scanned = lexer::scan(&src);
        // Everything after `g` must still be code (the `*/` inside the string
        // must not terminate anything).
        prop_assert!(scanned.masked.contains("fn g()"), "{:?}", scanned.masked);
    }
}

/// Deterministic spot checks that complement the generated cases above.
#[test]
fn char_literal_and_lifetime_disambiguation() {
    // `'a` in a generic position is a lifetime, not an unterminated char —
    // the needle after it must still fire.
    let src = "fn f<'a>(o: &'a Option<u8>) -> u8 { o.unwrap() }\n";
    let findings = lint_source(HOT_PATH, HOT_CRATE, src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    // A real char literal containing a quote-ish escape must be masked.
    let src2 = "fn g() -> char { '\\'' }\nfn h(o: Option<u8>) -> u8 { o.unwrap() }\n";
    let f2 = lint_source(HOT_PATH, HOT_CRATE, src2);
    assert_eq!(f2.len(), 1, "{f2:?}");
    assert_eq!(f2[0].line, 2);
}
