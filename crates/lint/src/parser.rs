//! A token-tree parser over the masking lexer.
//!
//! The per-line rules only need needles; the inter-procedural rules
//! (D10–D13) need to know *which function* a token belongs to and *who
//! calls whom*. This module tokenizes the [lexer's](crate::lexer) masked
//! text (comments/strings are already spaces, so every token is code),
//! matches its bracket trees, and extracts:
//!
//! * **items** — `fn` definitions (free, inherent-impl, trait-impl and
//!   trait-default methods), with their module path, owner type, body token
//!   range and line span;
//! * **call sites** — `path::to::f(...)`, bare `f(...)`, and `.method(...)`
//!   calls inside each body, with enough shape (`self` receiver, path
//!   segments) for the symbol table's best-effort resolution;
//! * **spawn closures** — closure literals passed to a `spawn(...)` call.
//!   They are the roots of the panic-reachability analysis, and the only
//!   place where code starts running on another thread;
//! * **`catch_unwind` guards** — the argument ranges of `catch_unwind(...)`
//!   calls, the code whose panics the analysis counts as contained;
//! * **`use` declarations** — alias → path mappings used to qualify
//!   single-segment calls and to pin cross-crate paths.
//!
//! This is deliberately *not* a Rust parser: it does not understand
//! expressions, types, or macros. It understands exactly the token shapes
//! the call-graph needs, and over-approximates everything else (see
//! DESIGN.md for the soundness trade-offs).

use crate::lexer::Scanned;
use std::collections::BTreeMap;

/// Sentinel for "no matching bracket" in [`ParsedFile::match_idx`].
pub const NO_MATCH: usize = usize::MAX;

/// One token of masked source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// `'a` — lifetime or loop label (never a char literal; those are
    /// masked).
    Lifetime,
    /// A numeric literal (value irrelevant to the analyses).
    Num,
    /// `::`
    ColonColon,
    /// `->`
    Arrow,
    /// `=>`
    FatArrow,
    /// Any other single byte of punctuation.
    Punct(u8),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: usize,
    /// 1-based byte column the token starts at.
    pub col: usize,
    /// What the token is.
    pub kind: TokKind,
}

impl Tok {
    /// The identifier text, if this token is one.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the single punctuation byte `b`.
    #[must_use]
    pub fn is_punct(&self, b: u8) -> bool {
        self.kind == TokKind::Punct(b)
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `a::b::f(...)` or bare `f(...)` — path segments in source order.
    Path(Vec<String>),
    /// `.name(...)`; `on_self` is true for a plain `self.name(...)`.
    Method {
        /// Method name.
        name: String,
        /// Receiver is literally `self` (enables impl-owner resolution).
        on_self: bool,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line of the callee token.
    pub line: usize,
    /// Token index of the first callee token.
    pub tok: usize,
    /// Callee shape.
    pub callee: Callee,
}

/// A closure literal passed to a `spawn(...)` call — a thread root.
#[derive(Debug, Clone)]
pub struct SpawnClosure {
    /// 1-based line of the `spawn` token.
    pub line: usize,
    /// Token range (start, end) of the spawn call's argument list.
    pub body: (usize, usize),
}

/// One `fn` item (definition or bodyless trait declaration).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// Impl/trait type owner (`HashSink` for `impl HashSink { fn f }`).
    pub owner: Option<String>,
    /// `module::path::Owner::name` within the file (no crate prefix).
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the closing body brace (== `line` for decls).
    pub end_line: usize,
    /// Token range (start, end) of the body, both 0 for bodyless decls.
    pub body: (usize, usize),
    /// The definition sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Call sites in the body (excluding nested `fn` bodies).
    pub calls: Vec<CallSite>,
    /// Closures passed to `spawn(...)` inside the body.
    pub spawns: Vec<SpawnClosure>,
    /// Token ranges (start, end) of the argument lists of the
    /// `catch_unwind(...)` calls in the body: the code a panic-containment
    /// boundary guards.
    pub guards: Vec<(usize, usize)>,
}

/// A parsed file: tokens, bracket matching, items, and `use` aliases.
#[derive(Debug)]
pub struct ParsedFile {
    /// Token stream of the masked source.
    pub toks: Vec<Tok>,
    /// `match_idx[i]` is the index of the bracket matching an open/close
    /// `(){}[]` at `i`, or [`NO_MATCH`].
    pub match_idx: Vec<usize>,
    /// All `fn` items in source order.
    pub fns: Vec<FnItem>,
    /// `use` alias → full path segments (`Json` → `["apf_serve","Json"]`).
    pub uses: BTreeMap<String, Vec<String>>,
}

/// Module path derived from a workspace-relative file path: the segments
/// after `src/`, minus `lib.rs`/`main.rs`/`mod.rs` terminals.
#[must_use]
pub fn file_module_path(rel_path: &str) -> Vec<String> {
    let comps: Vec<&str> = rel_path.split('/').collect();
    let Some(src_at) = comps.iter().position(|c| *c == "src") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, c) in comps.iter().enumerate().skip(src_at + 1) {
        let last = i + 1 == comps.len();
        if last {
            let stem = c.strip_suffix(".rs").unwrap_or(c);
            if !matches!(stem, "lib" | "main" | "mod") {
                out.push(stem.to_string());
            }
        } else if *c == "bin" {
            // `src/bin/<target>.rs` is its own crate root, not a module.
            return Vec::new();
        } else {
            out.push((*c).to_string());
        }
    }
    out
}

/// Tokenizes masked source text.
#[must_use]
pub fn tokenize(masked: &str) -> Vec<Tok> {
    let bytes = masked.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut line_start = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let col = i - line_start + 1;
        match b {
            b'\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                toks.push(Tok { line, col, kind: TokKind::Ident(masked[start..i].to_string()) });
            }
            b'0'..=b'9' => {
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                // `1.5`, `1.5e-3`: consume the fraction only when a digit
                // follows the dot, so `x[0].lock()` keeps its `.` token.
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                }
                toks.push(Tok { line, col, kind: TokKind::Num });
            }
            b'\'' if bytes.get(i + 1).is_some_and(|&c| is_ident_byte(c)) => {
                i += 1;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                toks.push(Tok { line, col, kind: TokKind::Lifetime });
            }
            b':' if bytes.get(i + 1) == Some(&b':') => {
                toks.push(Tok { line, col, kind: TokKind::ColonColon });
                i += 2;
            }
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                toks.push(Tok { line, col, kind: TokKind::Arrow });
                i += 2;
            }
            b'=' if bytes.get(i + 1) == Some(&b'>') => {
                toks.push(Tok { line, col, kind: TokKind::FatArrow });
                i += 2;
            }
            _ => {
                toks.push(Tok { line, col, kind: TokKind::Punct(b) });
                i += 1;
            }
        }
    }
    toks
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Matches `(){}[]` pairs over a token stream. Unbalanced brackets map to
/// [`NO_MATCH`] — the parser tolerates them rather than failing the file.
#[must_use]
pub fn match_brackets(toks: &[Tok]) -> Vec<usize> {
    let mut out = vec![NO_MATCH; toks.len()];
    let mut stack: Vec<(u8, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct(b @ (b'(' | b'{' | b'[')) => stack.push((b, i)),
            TokKind::Punct(b @ (b')' | b'}' | b']')) => {
                let want = match b {
                    b')' => b'(',
                    b'}' => b'{',
                    _ => b'[',
                };
                if let Some(&(open, at)) = stack.last() {
                    if open == want {
                        stack.pop();
                        out[at] = i;
                        out[i] = at;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "mut",
    "ref", "move", "fn", "pub", "use", "mod", "impl", "trait", "struct", "enum", "union", "type",
    "where", "unsafe", "as", "in", "dyn", "crate", "super", "self", "Self", "const", "static",
    "extern", "async", "await", "box", "true", "false",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses one scanned file into items, calls, and spawn closures.
#[must_use]
pub fn parse(scanned: &Scanned, rel_path: &str) -> ParsedFile {
    let toks = tokenize(&scanned.masked);
    let match_idx = match_brackets(&toks);
    let mut p = ParsedFile { toks, match_idx, fns: Vec::new(), uses: BTreeMap::new() };
    let file_mods = file_module_path(rel_path);
    collect_items(&mut p, scanned, &file_mods);
    collect_bodies(&mut p);
    p
}

/// What an open brace belongs to, for the scope stack. Braces that are
/// neither a `mod` nor an impl/trait body (fn bodies, blocks, match arms)
/// never enter the stack — item collection just walks past them.
#[derive(Debug, Clone)]
enum ScopeKind {
    Mod(String),
    Owner(String),
}

fn collect_items(p: &mut ParsedFile, scanned: &Scanned, file_mods: &[String]) {
    // (kind, token index of the closing brace)
    let mut scopes: Vec<(ScopeKind, usize)> = Vec::new();
    let n = p.toks.len();
    let mut i = 0;
    while i < n {
        while scopes.last().is_some_and(|&(_, close)| close <= i) {
            scopes.pop();
        }
        let Some(word) = p.toks[i].ident() else {
            i += 1;
            continue;
        };
        match word {
            "mod" => {
                if let (Some(name), true) = (
                    p.toks.get(i + 1).and_then(Tok::ident),
                    p.toks.get(i + 2).is_some_and(|t| t.is_punct(b'{')),
                ) {
                    let close = p.match_idx[i + 2];
                    if close != NO_MATCH {
                        scopes.push((ScopeKind::Mod(name.to_string()), close));
                    }
                    i += 3;
                    continue;
                }
                i += 1;
            }
            "impl" => {
                if let Some((ty, body_open)) = parse_impl_header(p, i + 1) {
                    let close = p.match_idx[body_open];
                    if close != NO_MATCH {
                        scopes.push((ScopeKind::Owner(ty), close));
                    }
                    i = body_open + 1;
                    continue;
                }
                i += 1;
            }
            "trait" => {
                if let Some(name) = p.toks.get(i + 1).and_then(Tok::ident) {
                    if let Some(open) = find_body_open(p, i + 2) {
                        let close = p.match_idx[open];
                        if close != NO_MATCH {
                            scopes.push((ScopeKind::Owner(name.to_string()), close));
                        }
                        i = open + 1;
                        continue;
                    }
                }
                i += 1;
            }
            "fn" => {
                if let Some(name) = p.toks.get(i + 1).and_then(Tok::ident) {
                    let owner = scopes.iter().rev().find_map(|(k, _)| match k {
                        ScopeKind::Owner(t) => Some(t.clone()),
                        _ => None,
                    });
                    let mods: Vec<&str> = file_mods
                        .iter()
                        .map(String::as_str)
                        .chain(scopes.iter().filter_map(|(k, _)| match k {
                            ScopeKind::Mod(m) => Some(m.as_str()),
                            _ => None,
                        }))
                        .collect();
                    let mut qual = String::new();
                    for m in &mods {
                        qual.push_str(m);
                        qual.push_str("::");
                    }
                    if let Some(o) = &owner {
                        qual.push_str(o);
                        qual.push_str("::");
                    }
                    qual.push_str(name);
                    let line = p.toks[i].line;
                    let (body, end_line, next) = match find_fn_body(p, i + 2) {
                        Some((open, close)) => ((open + 1, close), p.toks[close].line, open + 1),
                        None => ((0, 0), line, i + 2),
                    };
                    p.fns.push(FnItem {
                        name: name.to_string(),
                        owner,
                        qual,
                        line,
                        end_line,
                        body,
                        is_test: scanned.is_test_line(line),
                        calls: Vec::new(),
                        spawns: Vec::new(),
                        guards: Vec::new(),
                    });
                    i = next;
                    continue;
                }
                i += 1;
            }
            "use" => {
                i = parse_use(p, i + 1);
            }
            _ => i += 1,
        }
    }
}

/// After `impl`, skips generics and reads `[Trait for] Type`, returning the
/// type's last path segment and the index of the body `{`.
fn parse_impl_header(p: &ParsedFile, mut i: usize) -> Option<(String, usize)> {
    i = skip_generics(p, i);
    let mut last_seg: Option<String> = None;
    loop {
        let t = p.toks.get(i)?;
        match &t.kind {
            TokKind::Ident(w) if w == "for" => {
                // `impl Trait for Type`: restart, the type comes next.
                last_seg = None;
                i += 1;
            }
            TokKind::Ident(w) if w == "where" => {
                let open = find_body_open(p, i)?;
                return Some((last_seg?, open));
            }
            TokKind::Ident(w) if matches!(w.as_str(), "dyn" | "mut" | "const") => i += 1,
            TokKind::Ident(w) => {
                last_seg = Some(w.clone());
                i = skip_generics(p, i + 1);
            }
            TokKind::ColonColon | TokKind::Lifetime => i += 1,
            TokKind::Punct(b'&') => i += 1,
            TokKind::Punct(b'{') => return Some((last_seg?, i)),
            // Tuple / slice / pointer impl targets — give up on a name.
            _ => return None,
        }
    }
}

/// Skips a balanced `<...>` group starting at `i` (if any); returns the
/// index after it. Angle depth counting is safe here because `->` and `=>`
/// are single tokens.
fn skip_generics(p: &ParsedFile, i: usize) -> usize {
    if !p.toks.get(i).is_some_and(|t| t.is_punct(b'<')) {
        return i;
    }
    let mut depth = 0i64;
    let mut j = i;
    while j < p.toks.len() {
        match p.toks[j].kind {
            TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b'>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    i
}

/// Finds the next `{` at angle-depth 0, skipping `(...)`/`[...]` groups.
fn find_body_open(p: &ParsedFile, mut i: usize) -> Option<usize> {
    let mut angle = 0i64;
    while i < p.toks.len() {
        match p.toks[i].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => angle = (angle - 1).max(0),
            TokKind::Punct(b'(' | b'[') => {
                let m = p.match_idx[i];
                if m == NO_MATCH {
                    return None;
                }
                i = m;
            }
            TokKind::Punct(b'{') if angle == 0 => return Some(i),
            TokKind::Punct(b';') if angle == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// From just after a fn's name: skips generics and the parameter list, then
/// finds the body `{` (or `None` for a `;`-terminated declaration).
/// Returns (open index, close index).
fn find_fn_body(p: &ParsedFile, i: usize) -> Option<(usize, usize)> {
    let i = skip_generics(p, i);
    if !p.toks.get(i).is_some_and(|t| t.is_punct(b'(')) {
        return None;
    }
    let params_close = p.match_idx[i];
    if params_close == NO_MATCH {
        return None;
    }
    let open = find_body_open(p, params_close + 1)?;
    let close = p.match_idx[open];
    if close == NO_MATCH {
        return None;
    }
    Some((open, close))
}

/// Parses a `use` declaration starting after the `use` keyword; fills
/// `p.uses` and returns the index after the terminating `;`.
fn parse_use(p: &mut ParsedFile, mut i: usize) -> usize {
    let mut prefix: Vec<String> = Vec::new();
    let mut aliases: Vec<(String, Vec<String>)> = Vec::new();
    parse_use_tree(p, &mut i, &mut prefix, &mut aliases);
    while i < p.toks.len() && !p.toks[i].is_punct(b';') {
        i += 1;
    }
    for (alias, path) in aliases {
        p.uses.insert(alias, path);
    }
    i + 1
}

fn parse_use_tree(
    p: &ParsedFile,
    i: &mut usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<(String, Vec<String>)>,
) {
    let depth_at_entry = prefix.len();
    let mut last: Option<String> = None;
    while *i < p.toks.len() {
        match &p.toks[*i].kind {
            TokKind::Ident(w) if w == "as" => {
                *i += 1;
                if let Some(alias) = p.toks.get(*i).and_then(Tok::ident) {
                    let mut path = prefix.clone();
                    if let Some(l) = last.take() {
                        path.push(l);
                    }
                    out.push((alias.to_string(), path));
                    *i += 1;
                }
            }
            TokKind::Ident(w) => {
                if let Some(l) = last.replace(w.clone()) {
                    prefix.push(l);
                }
                *i += 1;
            }
            TokKind::ColonColon => *i += 1,
            TokKind::Punct(b'{') => {
                if let Some(l) = last.take() {
                    prefix.push(l);
                }
                *i += 1;
                parse_use_tree(p, i, prefix, out);
            }
            TokKind::Punct(b',') => {
                if let Some(l) = last.take() {
                    let mut path = prefix.clone();
                    path.push(l.clone());
                    out.push((l, path));
                }
                prefix.truncate(depth_at_entry);
                *i += 1;
            }
            TokKind::Punct(b'}' | b';') => {
                if let Some(l) = last.take() {
                    let mut path = prefix.clone();
                    path.push(l.clone());
                    out.push((l, path));
                }
                prefix.truncate(depth_at_entry.min(prefix.len()));
                if p.toks[*i].is_punct(b'}') {
                    *i += 1;
                }
                return;
            }
            TokKind::Punct(b'*') => {
                last = None;
                *i += 1;
            }
            _ => {
                *i += 1;
                return;
            }
        }
    }
}

/// Second pass: per-fn call sites, spawn closures, and `catch_unwind`
/// guards, skipping nested `fn` bodies (their calls belong to the nested
/// item).
fn collect_bodies(p: &mut ParsedFile) {
    let ranges: Vec<(usize, usize)> = p.fns.iter().map(|f| f.body).collect();
    for k in 0..p.fns.len() {
        let (start, end) = ranges[k];
        if start >= end {
            continue;
        }
        // Nested fn bodies strictly inside this one.
        let skips: Vec<(usize, usize)> =
            ranges.iter().filter(|&&(s, e)| s > start && e < end && s < e).copied().collect();
        let calls = calls_in_range(p, start, end, &skips, false);
        let spawns = call_args(p, start, end, &skips, "spawn");
        let guards = call_args(p, start, end, &skips, "catch_unwind");
        let f = &mut p.fns[k];
        f.calls = calls;
        f.spawns = spawns.into_iter().map(|(line, body)| SpawnClosure { line, body }).collect();
        f.guards = guards.into_iter().map(|(_, args)| args).collect();
    }
}

fn in_skips(skips: &[(usize, usize)], i: usize) -> Option<usize> {
    skips.iter().find(|&&(s, e)| i >= s && i < e).map(|&(_, e)| e)
}

/// Extracts call sites in a token range. With `include_bare_refs`, path
/// expressions *not* followed by `(` are also reported (used for function
/// values passed to `spawn`).
pub(crate) fn calls_in_range(
    p: &ParsedFile,
    start: usize,
    end: usize,
    skips: &[(usize, usize)],
    include_bare_refs: bool,
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut i = start;
    let end = end.min(p.toks.len());
    while i < end {
        if let Some(e) = in_skips(skips, i) {
            i = e;
            continue;
        }
        let t = &p.toks[i];
        // `.method(` and `.method::<T>(`
        if t.is_punct(b'.') {
            if let Some(name) = p.toks.get(i + 1).and_then(Tok::ident) {
                let mut j = i + 2;
                if p.toks.get(j).map(|t| &t.kind) == Some(&TokKind::ColonColon) {
                    j = skip_generics(p, j + 1);
                }
                if p.toks.get(j).is_some_and(|t| t.is_punct(b'(')) && !is_keyword(name) {
                    let on_self = i >= 1
                        && p.toks[i - 1].ident() == Some("self")
                        && (i < 2 || !p.toks[i - 2].is_punct(b'.'));
                    out.push(CallSite {
                        line: p.toks[i + 1].line,
                        tok: i + 1,
                        callee: Callee::Method { name: name.to_string(), on_self },
                    });
                    // Resume at the argument paren: turbofish generics hold
                    // types (`::<Vec<Box<dyn Fn()>>>`), not calls.
                    i = j;
                    continue;
                }
                i += 2;
                continue;
            }
            i += 1;
            continue;
        }
        // Path calls: `a::b::f(` / `f(` / `Self::f(`.
        if let Some(first) = t.ident() {
            // Not a path start if preceded by `.` (method, handled above)
            // or `fn` (definition header) or `::` (mid-path).
            let prev_blocks = i > start
                && (p.toks[i - 1].is_punct(b'.')
                    || p.toks[i - 1].ident().is_some_and(|w| w == "fn")
                    || p.toks[i - 1].kind == TokKind::ColonColon);
            if prev_blocks || (is_keyword(first) && !matches!(first, "crate" | "self" | "Self")) {
                i += 1;
                continue;
            }
            let mut segs = vec![first.to_string()];
            let mut j = i + 1;
            while p.toks.get(j).map(|t| &t.kind) == Some(&TokKind::ColonColon) {
                if let Some(w) = p.toks.get(j + 1).and_then(Tok::ident) {
                    segs.push(w.to_string());
                    j += 2;
                } else if p.toks.get(j + 1).is_some_and(|t| t.is_punct(b'<')) {
                    j = skip_generics(p, j + 1);
                } else {
                    break;
                }
            }
            let is_call = p.toks.get(j).is_some_and(|t| t.is_punct(b'('));
            let lone_keyword = segs.len() == 1
                && (is_keyword(&segs[0])
                    // Fn-trait bounds in types (`Box<dyn Fn() -> u64>`)
                    // look exactly like calls; they never are.
                    || matches!(segs[0].as_str(), "Fn" | "FnMut" | "FnOnce"));
            if !lone_keyword && (is_call || include_bare_refs) {
                out.push(CallSite { line: t.line, tok: i, callee: Callee::Path(segs) });
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// The `name(...)` calls in a token range: each one's line and the token
/// range of its argument list. For `spawn` the whole argument list is the
/// thread root, which covers both `spawn(move || ...)` and `spawn(worker)`
/// (a function value); for `catch_unwind` it is the guarded code.
fn call_args(
    p: &ParsedFile,
    start: usize,
    end: usize,
    skips: &[(usize, usize)],
    name: &str,
) -> Vec<(usize, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = start;
    let end = end.min(p.toks.len());
    while i < end {
        if let Some(e) = in_skips(skips, i) {
            i = e;
            continue;
        }
        if p.toks[i].ident() == Some(name) && p.toks.get(i + 1).is_some_and(|t| t.is_punct(b'(')) {
            let close = p.match_idx[i + 1];
            if close != NO_MATCH && close > i + 2 {
                out.push((p.toks[i].line, (i + 2, close)));
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Whether the source position `(line, col)` lies inside one of the token
/// `ranges` of `p`.
pub(crate) fn in_token_ranges(
    p: &ParsedFile,
    ranges: &[(usize, usize)],
    line: usize,
    col: usize,
) -> bool {
    let at = |t: usize| (p.toks[t].line, p.toks[t].col);
    ranges.iter().any(|&(s, e)| at(s) <= (line, col) && (line, col) < at(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lexer::scan(src), "crates/x/src/lib.rs")
    }

    #[test]
    fn file_module_paths() {
        assert!(file_module_path("crates/trace/src/lib.rs").is_empty());
        assert_eq!(file_module_path("crates/trace/src/sink.rs"), vec!["sink"]);
        assert_eq!(file_module_path("crates/core/src/dpf/phase2.rs"), vec!["dpf", "phase2"]);
        assert_eq!(file_module_path("crates/core/src/dpf/mod.rs"), vec!["dpf"]);
        assert!(file_module_path("src/bin/apf-cli.rs").is_empty());
    }

    #[test]
    fn free_fn_and_calls() {
        let p = parsed("fn a() { b(); c::d(); x.e(); }\nfn b() {}\n");
        assert_eq!(p.fns.len(), 2);
        let a = &p.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.qual, "a");
        let names: Vec<String> = a
            .calls
            .iter()
            .map(|c| match &c.callee {
                Callee::Path(s) => s.join("::"),
                Callee::Method { name, .. } => format!(".{name}"),
            })
            .collect();
        assert_eq!(names, vec!["b", "c::d", ".e"]);
    }

    #[test]
    fn impl_methods_get_owner() {
        let p = parsed("struct S;\nimpl S { fn m(&self) { self.n(); } fn n(&self) {} }\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].owner.as_deref(), Some("S"));
        assert_eq!(p.fns[0].qual, "S::m");
        match &p.fns[0].calls[0].callee {
            Callee::Method { name, on_self } => {
                assert_eq!(name, "n");
                assert!(on_self);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trait_impl_and_generics() {
        let p = parsed(
            "impl<T: Clone> Sink for Holder<T> { fn put(&mut self, x: T) { helper(x); } }\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Holder"));
        assert_eq!(p.fns[0].name, "put");
    }

    #[test]
    fn nested_fn_calls_stay_with_the_nested_item() {
        let p = parsed("fn outer() { inner(); fn inner() { deep(); } }\n");
        let outer = &p.fns[0];
        let inner = &p.fns[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(inner.calls.len(), 1);
        match &inner.calls[0].callee {
            Callee::Path(s) => assert_eq!(s, &vec!["deep".to_string()]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mod_nesting_qualifies() {
        let p = parsed("mod a { mod b { fn f() {} } }\n");
        assert_eq!(p.fns[0].qual, "a::b::f");
    }

    #[test]
    fn use_aliases() {
        let p = parsed(
            "use apf_trace::{sink::HashSink, Event as Ev};\nuse std::time::Instant;\nfn f() {}\n",
        );
        assert_eq!(
            p.uses.get("HashSink"),
            Some(&vec!["apf_trace".to_string(), "sink".to_string(), "HashSink".to_string()])
        );
        assert_eq!(p.uses.get("Ev"), Some(&vec!["apf_trace".to_string(), "Event".to_string()]));
        assert_eq!(
            p.uses.get("Instant"),
            Some(&vec!["std".to_string(), "time".to_string(), "Instant".to_string()])
        );
    }

    #[test]
    fn spawn_closures_and_guards() {
        let p = parsed(
            "fn run() {\n    scope.spawn(move || { work(); });\n    \
             scope.spawn(move || { let _ = catch_unwind(|| work()); });\n}\n",
        );
        let f = &p.fns[0];
        assert_eq!(f.spawns.len(), 2);
        assert_eq!(f.spawns[0].line, 2);
        assert_eq!(f.guards.len(), 1);
        let (s, e) = f.guards[0];
        assert!(f.spawns[1].body.0 < s && e < f.spawns[1].body.1, "the guard sits in the closure");
        let work = s + 2;
        assert_eq!(p.toks[work].ident(), Some("work"));
        assert!(in_token_ranges(&p, &f.guards, 3, p.toks[work].col));
        assert!(!in_token_ranges(&p, &f.guards, 2, p.toks[work].col), "the unguarded spawn");
    }

    #[test]
    fn macros_are_not_calls() {
        let p = parsed("fn f() { println!(\"{}\", x); assert_eq!(a, b); g(); }\n");
        assert_eq!(p.fns[0].calls.len(), 1);
    }

    #[test]
    fn turbofish_method_call() {
        let p = parsed("fn f() { it.collect::<Vec<Box<dyn Fn() -> u64>>>(); }\n");
        assert_eq!(p.fns[0].calls.len(), 1);
        match &p.fns[0].calls[0].callee {
            Callee::Method { name, .. } => assert_eq!(name, "collect"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bodyless_trait_decl() {
        let p =
            parsed("trait T { fn sig(&self) -> u64; fn with_default(&self) { self.sig(); } }\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body, (0, 0));
        assert_eq!(p.fns[0].owner.as_deref(), Some("T"));
        assert_eq!(p.fns[1].calls.len(), 1);
    }

    #[test]
    fn cfg_test_marks_fns() {
        let p = parse(
            &lexer::scan("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lib(); }\n}\n"),
            "crates/x/src/lib.rs",
        );
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }
}
