//! A masking lexer for Rust sources.
//!
//! Rules must match *code*, never prose: a `thread_rng` mentioned in a doc
//! comment or a `".unwrap()"` inside a test fixture string is not a
//! violation. Instead of tokenizing fully, the lexer produces a **masked**
//! copy of the source — byte-for-byte the same length, with every byte that
//! belongs to a comment, string literal, char literal, or raw string
//! replaced by a space (newlines are preserved so line/column arithmetic
//! holds). Rule needles then run over the masked text only.
//!
//! Alongside the mask the lexer extracts:
//!
//! * **pragmas** — `// apf-lint: allow(<rule>[, <rule>]) — <reason>`
//!   comments, with their line number and whether the comment stands alone
//!   on its line (which decides their scope, see [`Pragma`]);
//! * **test regions** — lines covered by a `#[cfg(test)]`-gated item, so
//!   rules that exempt test code (e.g. the panic policy) can skip them.

/// One `apf-lint:` control comment.
///
/// A pragma that shares its line with code suppresses findings on **that
/// line**; a pragma standing alone suppresses findings on **exactly the one
/// line that follows** (never more — a whole file belongs in its rule's
/// [`allow_files`](crate::RuleDef::allow_files), where it is visible in
/// review).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based source line of the comment.
    pub line: usize,
    /// The comment is the only non-whitespace content on its line.
    pub own_line: bool,
    /// Rule names inside `allow(...)`.
    pub rules: Vec<String>,
    /// Non-empty justification text followed the `allow(...)` clause.
    pub has_reason: bool,
    /// Set when the comment invokes `apf-lint:` but does not parse.
    pub error: Option<String>,
}

/// A scanned source file: mask, pragmas, and test-line classification.
#[derive(Debug)]
pub struct Scanned {
    /// Same byte length as the input; non-code bytes are spaces, newlines
    /// survive.
    pub masked: String,
    /// Every `apf-lint:` comment found, in source order.
    pub pragmas: Vec<Pragma>,
    /// `test_lines[i]` is true when 1-based line `i + 1` is inside a
    /// `#[cfg(test)]` item.
    pub test_lines: Vec<bool>,
}

impl Scanned {
    /// True when 1-based `line` lies inside a `#[cfg(test)]` region.
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        line.checked_sub(1).and_then(|i| self.test_lines.get(i).copied()).unwrap_or(false)
    }
}

/// Scans one source file.
#[must_use]
pub fn scan(source: &str) -> Scanned {
    let bytes = source.as_bytes();
    let mut masked = bytes.to_vec();
    let mut pragmas = Vec::new();

    let mut i = 0;
    let mut line = 1usize;
    // Non-whitespace code has been seen on the current line (decides whether
    // a trailing `//` comment is "own line").
    let mut line_has_code = false;

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let text = &source[start..i];
                if let Some(p) = parse_pragma(text, line, !line_has_code) {
                    pragmas.push(p);
                }
                mask_range(&mut masked, start, i);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                mask_range_keep_newlines(&mut masked, start, i);
            }
            b'"' => {
                let end = skip_string(bytes, i + 1, 0);
                line += count_newlines(&bytes[i..end]);
                mask_range_keep_newlines(&mut masked, i, end);
                i = end;
                line_has_code = true;
            }
            b'r' | b'b' if !prev_is_ident(bytes, i) => {
                // Raw strings r"..." / r#"..."#, byte strings b"...",
                // raw byte strings br#"..."#, byte chars b'x'.
                let mut j = i;
                if bytes[j] == b'b' {
                    j += 1;
                    if bytes.get(j) == Some(&b'\'') {
                        let end = skip_char_literal(bytes, j + 1);
                        mask_range(&mut masked, i, end);
                        i = end;
                        line_has_code = true;
                        continue;
                    }
                }
                if bytes.get(j) == Some(&b'r') {
                    j += 1;
                }
                let mut hashes = 0usize;
                while bytes.get(j + hashes) == Some(&b'#') {
                    hashes += 1;
                }
                if bytes.get(j + hashes) == Some(&b'"') && (j > i || hashes > 0) {
                    let end = skip_raw_string(bytes, j + hashes + 1, hashes);
                    line += count_newlines(&bytes[i..end]);
                    mask_range_keep_newlines(&mut masked, i, end);
                    i = end;
                    line_has_code = true;
                } else if bytes.get(j) == Some(&b'"') && j > i {
                    // b"...": ordinary escapes apply.
                    let end = skip_string(bytes, j + 1, 0);
                    line += count_newlines(&bytes[i..end]);
                    mask_range_keep_newlines(&mut masked, i, end);
                    i = end;
                    line_has_code = true;
                } else {
                    line_has_code = true;
                    i += 1;
                }
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    mask_range(&mut masked, i, end);
                    i = end;
                    line_has_code = true;
                } else {
                    // A lifetime — plain code.
                    line_has_code = true;
                    i += 1;
                }
            }
            _ => {
                if !b.is_ascii_whitespace() {
                    line_has_code = true;
                }
                i += 1;
            }
        }
    }

    let masked = String::from_utf8(masked).unwrap_or_default();
    let test_lines = test_regions(&masked);
    Scanned { masked, pragmas, test_lines }
}

fn mask_range(masked: &mut [u8], start: usize, end: usize) {
    for b in &mut masked[start..end] {
        *b = b' ';
    }
}

fn mask_range_keep_newlines(masked: &mut [u8], start: usize, end: usize) {
    for b in &mut masked[start..end] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Returns the index one past the closing quote of a `"` string whose body
/// starts at `from`. Unterminated strings run to EOF.
fn skip_string(bytes: &[u8], from: usize, _hashes: usize) -> usize {
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Returns the index one past the closing `"###` of a raw string with
/// `hashes` hash marks, whose body starts at `from`.
fn skip_raw_string(bytes: &[u8], from: usize, hashes: usize) -> usize {
    let mut i = from;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut k = 0;
            while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    bytes.len()
}

/// Index one past the closing quote of a (byte) char literal whose body
/// starts at `from` (the byte after the opening quote).
fn skip_char_literal(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    if bytes.get(i) == Some(&b'\\') {
        i += 2;
    } else {
        i += 1;
    }
    while i < bytes.len() && bytes[i] != b'\'' && bytes[i] != b'\n' {
        i += 1;
    }
    (i + 1).min(bytes.len())
}

/// Distinguishes a char literal starting at `i` (which points at `'`) from a
/// lifetime. Returns the end index (one past the closing quote) for char
/// literals, `None` for lifetimes.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        return Some(skip_char_literal(bytes, i + 1));
    }
    if next == b'\'' {
        // `''` is not valid Rust; treat as code and move on.
        return None;
    }
    // Width of the (possibly multibyte) char after the quote.
    let width = utf8_width(next);
    if bytes.get(i + 1 + width) == Some(&b'\'') {
        Some(i + 2 + width)
    } else {
        None // `'a` — a lifetime
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Parses one line comment into a [`Pragma`] if it invokes `apf-lint:`.
fn parse_pragma(comment: &str, line: usize, own_line: bool) -> Option<Pragma> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("apf-lint:")?.trim();
    let bad = |msg: &str| {
        Some(Pragma {
            line,
            own_line,
            rules: Vec::new(),
            has_reason: false,
            error: Some(msg.to_string()),
        })
    };
    let Some(rest) = rest.strip_prefix("allow") else {
        return bad("expected `allow(<rule>)` after `apf-lint:`");
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return bad("expected `(` after `allow`");
    };
    let Some(close) = rest.find(')') else {
        return bad("unclosed `allow(`");
    };
    let rules: Vec<String> =
        rest[..close].split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
    if rules.is_empty() {
        return bad("empty rule list in `allow()`");
    }
    // The justification: everything after `)`, minus separator punctuation.
    let reason = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
        .trim();
    Some(Pragma { line, own_line, rules, has_reason: !reason.is_empty(), error: None })
}

/// Marks the lines covered by `#[cfg(test)]`-gated items.
///
/// Works on the masked text so braces inside strings or comments cannot
/// desynchronize the matcher. The attribute's item is the next `{ ... }`
/// block; an item ending in `;` before any `{` (e.g. a gated `use`) covers
/// only its own lines.
fn test_regions(masked: &str) -> Vec<bool> {
    let line_count = masked.split('\n').count();
    let mut flags = vec![false; line_count];
    let bytes = masked.as_bytes();
    let mut search = 0;
    while let Some(pos) = find_from(masked, "#[cfg(test)]", search) {
        search = pos + 1;
        let start_line = line_of(bytes, pos);
        // Find the item's opening brace (or terminating semicolon).
        let mut i = pos + "#[cfg(test)]".len();
        let mut end_line = start_line;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    let close = match_brace(bytes, i);
                    end_line = line_of(bytes, close.min(bytes.len().saturating_sub(1)));
                    break;
                }
                b';' => {
                    end_line = line_of(bytes, i);
                    break;
                }
                _ => i += 1,
            }
        }
        for f in flags.iter_mut().take(end_line).skip(start_line - 1) {
            *f = true;
        }
    }
    flags
}

fn find_from(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    haystack.get(from..).and_then(|h| h.find(needle)).map(|p| p + from)
}

/// 1-based line number of byte offset `pos`.
fn line_of(bytes: &[u8], pos: usize) -> usize {
    1 + bytes[..pos.min(bytes.len())].iter().filter(|&&b| b == b'\n').count()
}

/// Index of the brace matching the `{` at `open` (or EOF if unbalanced).
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked(src: &str) -> String {
        scan(src).masked
    }

    #[test]
    fn line_comments_are_masked() {
        let m = masked("let x = 1; // thread_rng here\nlet y = 2;");
        assert!(!m.contains("thread_rng"));
        assert!(m.contains("let x = 1;"));
        assert!(m.contains("let y = 2;"));
    }

    #[test]
    fn doc_comments_are_masked() {
        let m = masked("/// calls thread_rng\n//! and SystemTime\nfn f() {}\n");
        assert!(!m.contains("thread_rng"));
        assert!(!m.contains("SystemTime"));
        assert!(m.contains("fn f() {}"));
    }

    #[test]
    fn nested_block_comments_are_masked() {
        let m = masked("a /* x /* thread_rng */ y */ b");
        assert!(!m.contains("thread_rng"));
        assert!(m.starts_with('a'));
        assert!(m.trim_end().ends_with('b'));
    }

    #[test]
    fn strings_are_masked_with_escapes() {
        let m = masked(r#"let s = "thread_rng \" still thread_rng"; let t = 1;"#);
        assert!(!m.contains("thread_rng"));
        assert!(m.contains("let t = 1;"));
    }

    #[test]
    fn raw_strings_are_masked() {
        let m = masked("let s = r#\"has \"quotes\" and thread_rng\"#; next();");
        assert!(!m.contains("thread_rng"));
        assert!(m.contains("next();"));
    }

    #[test]
    fn byte_and_char_literals_are_masked() {
        let m = masked("let a = b'x'; let c = '\\n'; let d = 'q'; f::<'a, 'b>(x)");
        assert!(!m.contains('q'), "char literal body leaked: {m}");
        // Lifetimes survive as code.
        assert!(m.contains("f::<'a, 'b>(x)"));
    }

    #[test]
    fn multibyte_char_literal() {
        let m = masked("let c = 'é'; done()");
        assert!(m.contains("done()"));
        assert!(!m.contains('é'));
    }

    #[test]
    fn multiline_string_keeps_line_count() {
        let src = "let s = \"a\nb\nc\";\nfn g() {}\n";
        let m = masked(src);
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
        assert!(m.contains("fn g() {}"));
    }

    #[test]
    fn mask_length_is_preserved() {
        let src = "let s = \"héllo\"; // ünicode comment\nlet c = 'é';\n";
        assert_eq!(masked(src).len(), src.len());
    }

    #[test]
    fn pragma_trailing_and_own_line() {
        let s = scan(
            "x(); // apf-lint: allow(panic-policy) — lock can't poison\n\
                      // apf-lint: allow(no-float-eq) — exact zero guard\ny();\n",
        );
        assert_eq!(s.pragmas.len(), 2);
        assert_eq!(s.pragmas[0].line, 1);
        assert!(!s.pragmas[0].own_line);
        assert!(s.pragmas[0].has_reason);
        assert_eq!(s.pragmas[0].rules, vec!["panic-policy".to_string()]);
        assert_eq!(s.pragmas[1].line, 2);
        assert!(s.pragmas[1].own_line);
    }

    #[test]
    fn pragma_without_reason_or_malformed() {
        let s =
            scan("// apf-lint: allow(panic-policy)\n// apf-lint: allow(\n// apf-lint: deny(x)\n");
        assert!(!s.pragmas[0].has_reason);
        assert!(s.pragmas[0].error.is_none());
        assert!(s.pragmas[1].error.is_some());
        assert!(s.pragmas[2].error.is_some());
    }

    #[test]
    fn pragma_multiple_rules() {
        let s = scan("// apf-lint: allow(panic-policy, no-float-eq) — both fine here\n");
        assert_eq!(s.pragmas[0].rules.len(), 2);
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let s = scan(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(3));
        assert!(s.is_test_line(4));
        assert!(s.is_test_line(5));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn cfg_test_on_use_item_covers_only_itself() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() { let x = vec![1]; }\n";
        let s = scan(src);
        assert!(s.is_test_line(2));
        assert!(!s.is_test_line(3));
    }

    #[test]
    fn braces_in_test_strings_do_not_desync() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}\";\n    fn t() {}\n}\nfn lib() {}\n";
        let s = scan(src);
        assert!(s.is_test_line(4));
        assert!(!s.is_test_line(6));
    }
}
