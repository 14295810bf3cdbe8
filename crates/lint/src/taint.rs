//! The inter-procedural rules: D10–D13.
//!
//! All four run over the workspace [`CallGraph`]:
//!
//! * **D10 `digest-purity-taint`** — forward reachability from the digest
//!   roots ([`DIGEST_ROOTS`]: the `HashSink` fold, `fnv1a_64`,
//!   `CanonicalSpec` addressing). Every reachable function must
//!   stay digest-pure: no wall clocks, no hash-container iteration, no
//!   float↔int `as` casts — regardless of which crate it lives in. This is
//!   the call-graph upgrade of the D4/D6/D7 crate lists: those guard the
//!   *producers* of digested values by crate, D10 guards the digest
//!   *computation* itself by reachability.
//! * **D11 `randomness-reachability`** — every call path to a random draw
//!   must pass through an election entrypoint ([`ELECTION_ENTRYPOINTS`]:
//!   `rsb::select_a_robot`). Draw sites are functions in D2's crates whose
//!   bodies hit a D2 needle. The entrypoints are removed from the graph;
//!   any function that still reaches a draw found a way around the
//!   election — a static witness against Theorem 1's ≤ 1 bit per election
//!   cycle budget.
//! * **D12 `lock-order`** — a mutex-acquisition order graph over the
//!   service crates. `a.lock()` while holding `b` adds the edge `b → a`;
//!   held sets propagate through calls (everything a callee eventually
//!   locks is ordered after what the caller holds). A cycle is a potential
//!   deadlock.
//! * **D13 `panic-reachability`** — `unwrap`/`expect`/`panic!` sites
//!   reachable from a `spawn(...)` closure with no `catch_unwind` boundary
//!   on the path. A panic there kills a worker thread (or poisons its
//!   locks) instead of failing the request.
//!
//! Everything is a *static over-approximation* (dyn dispatch fans out to
//! every impl, method calls resolve by name); see DESIGN.md for what that
//! means for each rule's verdicts.

use crate::callgraph::CallGraph;
use crate::lexer::Scanned;
use crate::parser::{self, ParsedFile};
use crate::rules::{self, Matcher, Needle, RuleDef};
use crate::symbols::Symbols;
use crate::FileKind;
use std::collections::{BTreeMap, BTreeSet};

/// Per-file metadata the analyses need (owned by `lint_files`).
pub(crate) struct FileEntry {
    pub rel_path: String,
    pub crate_name: String,
    pub kind: FileKind,
    pub scanned: Scanned,
}

/// The assembled workspace model.
pub(crate) struct Ws<'a> {
    pub files: &'a [FileEntry],
    pub parsed: &'a [ParsedFile],
    pub sym: &'a Symbols,
    pub graph: &'a CallGraph,
}

/// Emission callback: `(rule, file index, line, col, message)`. The caller
/// applies scoping, test/bin exemptions and pragma suppression.
pub(crate) type Emit<'a> = dyn FnMut(&'static RuleDef, usize, usize, usize, String) + 'a;

/// D10's roots: the digest and trace-hash computation whose forward call
/// cone must stay digest-pure. A pattern names a function bare
/// (`fnv1a_64`) or qualified (`HashSink::record`); a qualified pattern
/// matches any function whose qualified name ends with it on a `::`
/// boundary.
pub const DIGEST_ROOTS: &[&str] =
    &["HashSink::record", "HashSink::digest", "fnv1a_64", "CanonicalSpec::digest"];

/// D11's gateways: the sanctioned ψ_RSB election entrypoints that every
/// call path to a random draw must pass through. Patterns as in
/// [`DIGEST_ROOTS`].
pub const ELECTION_ENTRYPOINTS: &[&str] = &["select_a_robot"];

/// Runs all four inter-procedural rules.
pub(crate) fn run(ws: &Ws<'_>, emit: &mut Emit<'_>) {
    let lines: Vec<Vec<&str>> =
        ws.files.iter().map(|f| f.scanned.masked.split('\n').collect()).collect();
    let owned = owned_lines(ws);
    digest_purity(ws, &lines, &owned, emit);
    randomness_reachability(ws, &lines, &owned, emit);
    lock_order(ws, emit);
    panic_reachability(ws, &lines, &owned, emit);
}

fn rule(name: &str) -> &'static RuleDef {
    // apf-lint: allow(panic-policy) — rule names here come from the static RULES table
    rules::RULES.iter().find(|r| r.name == name).expect("registered rule")
}

/// For every fn node: the 1-based lines it owns — its `line..=end_line`
/// span minus the spans of nested `fn` items (their lines belong to them).
fn owned_lines(ws: &Ws<'_>) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(ws.sym.fns.len());
    for fsym in &ws.sym.fns {
        let p = &ws.parsed[fsym.file];
        let f = &p.fns[fsym.fn_idx];
        let children: Vec<(usize, usize)> = p
            .fns
            .iter()
            .filter(|c| c.line > f.line && c.end_line <= f.end_line && c.body.0 > f.body.0)
            .map(|c| (c.line, c.end_line))
            .collect();
        let mut mine = Vec::new();
        for line in f.line..=f.end_line {
            if !children.iter().any(|&(s, e)| line >= s && line <= e) {
                mine.push(line);
            }
        }
        out.push(mine);
    }
    out
}

/// Needle hits `(line, col, token)` over a set of lines of one file.
fn hits_on_lines(
    lines: &[&str],
    which: &[usize],
    needles: &[Needle],
    casts: bool,
) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for &ln in which {
        let Some(text) = lines.get(ln - 1) else { continue };
        for &n in needles {
            for at in rules::needle_matches(text, n) {
                out.push((ln, at + 1, n.text().trim().to_string()));
            }
        }
        if casts {
            for at in rules::float_int_cast_matches(text) {
                out.push((ln, at + 1, "float<->int `as` cast".to_string()));
            }
        }
    }
    out
}

fn node_label(ws: &Ws<'_>, n: usize) -> String {
    if n < ws.sym.fns.len() {
        ws.sym.fns[n].qual.clone()
    } else {
        let cl = &ws.graph.closures[n - ws.sym.fns.len()];
        format!("{{closure@{}:{}}}", ws.files[cl.file].rel_path, cl.line)
    }
}

// ---------------------------------------------------------------- D10

const WALLCLOCK_NEEDLES: &[Needle] = &[Needle::Exact("Instant::now"), Needle::Ident("SystemTime")];
const HASH_NEEDLES: &[Needle] = &[Needle::Ident("HashMap"), Needle::Ident("HashSet")];

fn digest_purity(ws: &Ws<'_>, lines: &[Vec<&str>], owned: &[Vec<usize>], emit: &mut Emit<'_>) {
    let d10 = rule("digest-purity-taint");
    let roots: Vec<usize> = DIGEST_ROOTS.iter().flat_map(|pat| ws.sym.matching(pat)).collect();
    if roots.is_empty() {
        return;
    }
    let reach = ws.graph.reach_forward(&roots, &vec![false; ws.graph.len()]);
    for (node, fsym) in ws.sym.fns.iter().enumerate() {
        if reach[node].is_none() {
            continue;
        }
        let mut sinks = hits_on_lines(&lines[fsym.file], &owned[node], WALLCLOCK_NEEDLES, false);
        sinks.extend(hits_on_lines(&lines[fsym.file], &owned[node], HASH_NEEDLES, false));
        sinks.extend(hits_on_lines(&lines[fsym.file], &owned[node], &[], true));
        if sinks.is_empty() {
            continue;
        }
        let chain = ws.graph.chain(&reach, node, &|n| node_label(ws, n));
        for (line, col, tok) in sinks {
            emit(
                d10,
                fsym.file,
                line,
                col,
                format!(
                    "`{tok}` — impure sink reachable from digest computation \
                     (via {chain}); wall clocks, hash iteration and float↔int \
                     casts here shift trace digests — keep the digest cone pure, \
                     route through an allowlisted sink, or pragma with the \
                     determinism argument [{}]",
                    d10.code
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- D11

fn randomness_reachability(
    ws: &Ws<'_>,
    lines: &[Vec<&str>],
    owned: &[Vec<usize>],
    emit: &mut Emit<'_>,
) {
    let d11 = rule("randomness-reachability");
    // Draw sites are read from D2's crates but not D2's allowlist: the
    // draws live in the allowlisted election module.
    let d2 = rule("randomness-budget");
    let Matcher::Needles(d2_needles) = d2.matcher else { return };

    let mut draws: Vec<usize> = Vec::new();
    for (node, fsym) in ws.sym.fns.iter().enumerate() {
        if !d2.covers_crate(&fsym.crate_name) || fsym.is_test {
            continue;
        }
        if ws.files[fsym.file].kind == FileKind::Test {
            continue;
        }
        if !hits_on_lines(&lines[fsym.file], &owned[node], d2_needles, false).is_empty() {
            draws.push(node);
        }
    }
    if draws.is_empty() {
        return;
    }
    let mut blocked = vec![false; ws.graph.len()];
    let mut entrypoints: BTreeSet<usize> = BTreeSet::new();
    for pat in ELECTION_ENTRYPOINTS {
        for n in ws.sym.matching(pat) {
            blocked[n] = true;
            entrypoints.insert(n);
        }
    }
    let back = ws.graph.reach_backward(&draws, &blocked);
    let draw_set: BTreeSet<usize> = draws.iter().copied().collect();
    for (node, fsym) in ws.sym.fns.iter().enumerate() {
        if back[node].is_none() || draw_set.contains(&node) || entrypoints.contains(&node) {
            continue;
        }
        // Chain from the offender toward the draw it reaches.
        let mut path = vec![node];
        let mut at = node;
        while let Some(prev) = back[at] {
            if prev == at || path.len() > 12 {
                break;
            }
            at = prev;
            path.push(at);
        }
        let chain: Vec<String> = path.iter().map(|&n| node_label(ws, n)).collect();
        emit(
            d11,
            fsym.file,
            fsym.line,
            1,
            format!(
                "`{}` — reaches a random draw without passing through an \
                 election entrypoint ({}); every draw must flow through \
                 ψ_RSB's `select_a_robot` so the ≤ 1 bit per election cycle \
                 budget (Theorem 1) is enforced by construction [{}]",
                fsym.name,
                chain.join(" → "),
                d11.code
            ),
        );
    }
}

// ---------------------------------------------------------------- D12

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LockKey {
    crate_name: String,
    name: String,
}

impl LockKey {
    fn short(&self) -> &str {
        &self.name
    }
}

/// Site of the first occurrence of a lock-order edge.
type EdgeMap = BTreeMap<(LockKey, LockKey), (usize, usize)>;

fn lock_order(ws: &Ws<'_>, emit: &mut Emit<'_>) {
    let d12 = rule("lock-order");
    let in_scope: Vec<bool> =
        ws.sym.fns.iter().map(|f| d12.applies_to(&ws.files[f.file]) && !f.is_test).collect();

    let mut local: Vec<BTreeSet<LockKey>> = vec![BTreeSet::new(); ws.sym.fns.len()];
    let mut edges: EdgeMap = BTreeMap::new();
    // (held locks, callee node, file, line)
    let mut held_calls: Vec<(Vec<LockKey>, usize, usize, usize)> = Vec::new();

    for (node, fsym) in ws.sym.fns.iter().enumerate() {
        if !in_scope[node] {
            continue;
        }
        walk_locks(ws, node, fsym.file, &mut local[node], &mut edges, &mut held_calls);
    }

    // Transitive acquisitions: everything a callee (within scope) may lock.
    let mut trans = local.clone();
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds <= ws.sym.fns.len() {
        changed = false;
        rounds += 1;
        for node in 0..ws.sym.fns.len() {
            if !in_scope[node] {
                continue;
            }
            let mut add: Vec<LockKey> = Vec::new();
            for &(callee, _) in &ws.graph.edges[node] {
                if callee < ws.sym.fns.len() && in_scope[callee] {
                    for k in &trans[callee] {
                        if !trans[node].contains(k) {
                            add.push(k.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[node].extend(add);
            }
        }
    }
    for (held, callee, file, line) in held_calls {
        if callee >= ws.sym.fns.len() || !in_scope[callee] {
            continue;
        }
        for h in &held {
            for l in &trans[callee] {
                edges.entry((h.clone(), l.clone())).or_insert((file, line));
            }
        }
    }

    report_lock_cycles(ws, d12, &edges, emit);
}

/// Token walk over one fn body: direct acquisitions, order edges between
/// held locks, and calls made while holding.
fn walk_locks(
    ws: &Ws<'_>,
    node: usize,
    file: usize,
    local: &mut BTreeSet<LockKey>,
    edges: &mut EdgeMap,
    held_calls: &mut Vec<(Vec<LockKey>, usize, usize, usize)>,
) {
    let fsym = &ws.sym.fns[node];
    let p = &ws.parsed[file];
    let f = &p.fns[fsym.fn_idx];
    let (start, end) = f.body;
    if start >= end {
        return;
    }
    let skips: Vec<(usize, usize)> =
        p.fns.iter().map(|c| c.body).filter(|&(s, e)| s > start && e < end && s < e).collect();
    let calls_by_tok: BTreeMap<usize, &parser::CallSite> =
        f.calls.iter().map(|c| (c.tok, c)).collect();
    let ctx = crate::symbols::ResolveCtx {
        crate_name: &fsym.crate_name,
        owner: fsym.owner.as_deref(),
        uses: &p.uses,
    };

    let mut held: Vec<(LockKey, usize)> = Vec::new();
    let mut i = start;
    while i < end {
        if let Some(e) = skips.iter().find(|&&(s, e)| i >= s && i < e).map(|&(_, e)| e) {
            i = e;
            continue;
        }
        held.retain(|&(_, until)| until > i);
        // `<receiver>.lock()` — empty-argument lock call.
        let is_lock = p.toks[i].kind == parser::TokKind::Punct(b'.')
            && p.toks.get(i + 1).is_some_and(|t| t.kind == parser::TokKind::Ident("lock".into()))
            && p.toks.get(i + 2).is_some_and(|t| t.kind == parser::TokKind::Punct(b'('))
            && p.match_idx.get(i + 2) == Some(&(i + 3));
        if is_lock {
            if let Some(name) = lock_receiver(p, i) {
                let key = LockKey { crate_name: fsym.crate_name.clone(), name };
                let line = p.toks[i].line;
                for (h, _) in &held {
                    edges.entry((h.clone(), key.clone())).or_insert((file, line));
                }
                local.insert(key.clone());
                let until = release_index(p, i, end);
                held.push((key, until));
            }
            i += 4;
            continue;
        }
        if let Some(call) = calls_by_tok.get(&i) {
            if !held.is_empty() {
                let held_keys: Vec<LockKey> = held.iter().map(|(k, _)| k.clone()).collect();
                for target in ws.sym.resolve(&call.callee, ctx) {
                    held_calls.push((held_keys.clone(), target, file, call.line));
                }
            }
        }
        i += 1;
    }
}

/// The field/binding name a `.lock()` at token `dot` acquires: the last
/// identifier of the receiver chain, skipping a leading `self`. `None` for
/// a bare `self.lock()` (a method call, handled by the call graph) or an
/// unnameable receiver (call result).
fn lock_receiver(p: &ParsedFile, dot: usize) -> Option<String> {
    let mut j = dot;
    let mut name: Option<String> = None;
    loop {
        if j == 0 {
            break;
        }
        let t = &p.toks[j - 1];
        match &t.kind {
            parser::TokKind::Ident(w) => {
                if name.is_none() {
                    if w == "self" {
                        return None;
                    }
                    name = Some(w.clone());
                }
                // Keep walking the chain to consume `a.b.c`.
                if j >= 2 && p.toks[j - 2].kind == parser::TokKind::Punct(b'.') {
                    j -= 2;
                } else {
                    break;
                }
            }
            parser::TokKind::Punct(b')' | b']') => return name,
            _ => break,
        }
    }
    name
}

/// Where the guard from an acquisition at token `i` dies:
/// * `let _ = …` / no binding → the next `;` at the same bracket depth;
/// * `let g = …` → `drop(g)` inside the enclosing block, else the block's
///   closing brace.
fn release_index(p: &ParsedFile, i: usize, body_end: usize) -> usize {
    // Backward to the statement start, collecting a possible `let` binding.
    let mut j = i;
    let mut rel = 0i64;
    let mut guard: Option<String> = None;
    let mut saw_let = false;
    while j > 0 {
        j -= 1;
        match &p.toks[j].kind {
            parser::TokKind::Punct(b')' | b'}' | b']') => rel += 1,
            parser::TokKind::Punct(b'(' | b'[') if rel > 0 => rel -= 1,
            parser::TokKind::Punct(b'(' | b'[') => break,
            parser::TokKind::Punct(b'{') if rel > 0 => rel -= 1,
            parser::TokKind::Punct(b'{' | b';') => break,
            parser::TokKind::Ident(w) if rel == 0 && w == "let" => {
                saw_let = true;
                break;
            }
            parser::TokKind::Punct(b'=') if rel == 0 => {
                // Remember the binding ident just before `=`.
                if let Some(parser::TokKind::Ident(g)) = j.checked_sub(1).map(|k| &p.toks[k].kind) {
                    guard = Some(g.clone());
                }
            }
            _ => {}
        }
    }
    let block_close = enclosing_close(p, i, body_end);
    if saw_let {
        match guard.as_deref() {
            None | Some("_") => next_semi(p, i, body_end),
            Some(g) => {
                // drop(g) releases early.
                let mut k = i;
                while k < block_close {
                    if p.toks[k].ident() == Some("drop")
                        && p.toks.get(k + 1).is_some_and(|t| t.is_punct(b'('))
                        && p.toks.get(k + 2).and_then(parser::Tok::ident) == Some(g)
                        && p.toks.get(k + 3).is_some_and(|t| t.is_punct(b')'))
                    {
                        return k;
                    }
                    k += 1;
                }
                block_close
            }
        }
    } else {
        next_semi(p, i, body_end)
    }
}

/// Next `;` at the acquisition's own bracket depth.
fn next_semi(p: &ParsedFile, i: usize, body_end: usize) -> usize {
    let mut rel = 0i64;
    let mut j = i;
    while j < body_end.min(p.toks.len()) {
        match p.toks[j].kind {
            parser::TokKind::Punct(b'(' | b'{' | b'[') => rel += 1,
            parser::TokKind::Punct(b')' | b'}' | b']') => {
                rel -= 1;
                if rel < 0 {
                    return j;
                }
            }
            parser::TokKind::Punct(b';') if rel == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    body_end
}

/// The `}` closing the innermost block containing token `i`.
fn enclosing_close(p: &ParsedFile, i: usize, body_end: usize) -> usize {
    let mut rel = 0i64;
    let mut j = i;
    while j < body_end.min(p.toks.len()) {
        match p.toks[j].kind {
            parser::TokKind::Punct(b'(' | b'{' | b'[') => rel += 1,
            parser::TokKind::Punct(b')' | b'}' | b']') => {
                rel -= 1;
                if rel < 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    body_end
}

fn report_lock_cycles(ws: &Ws<'_>, d12: &'static RuleDef, edges: &EdgeMap, emit: &mut Emit<'_>) {
    let mut adj: BTreeMap<&LockKey, Vec<&LockKey>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut seen: BTreeSet<Vec<LockKey>> = BTreeSet::new();
    for start in adj.keys().copied() {
        if let Some(cycle) = find_cycle(&adj, start) {
            let mut sig: Vec<LockKey> = cycle.clone();
            sig.sort();
            sig.dedup();
            if !seen.insert(sig) {
                continue;
            }
            // Render `a → b → a` and each edge's site.
            let mut names: Vec<String> = cycle.iter().map(|k| format!("`{}`", k.short())).collect();
            names.push(format!("`{}`", cycle[0].short()));
            let mut sites = Vec::new();
            for w in 0..cycle.len() {
                let from = cycle[w].clone();
                let to = cycle[(w + 1) % cycle.len()].clone();
                if let Some(&(file, line)) = edges.get(&(from.clone(), to.clone())) {
                    sites.push(format!(
                        "`{}` → `{}` at {}:{line}",
                        from.short(),
                        to.short(),
                        ws.files[file].rel_path
                    ));
                }
            }
            let &(file, line) =
                edges.get(&(cycle[0].clone(), cycle[1 % cycle.len()].clone())).unwrap_or(&(0, 1));
            emit(
                d12,
                file,
                line,
                1,
                format!(
                    "potential deadlock: lock-order cycle {} ({}); two threads \
                     taking these locks in opposite orders block forever — pick \
                     one global order or merge the critical sections [{}]",
                    names.join(" → "),
                    sites.join("; "),
                    d12.code
                ),
            );
        }
    }
}

/// Finds a directed cycle through `start`, if any (DFS, deterministic).
fn find_cycle<'k>(
    adj: &BTreeMap<&'k LockKey, Vec<&'k LockKey>>,
    start: &'k LockKey,
) -> Option<Vec<LockKey>> {
    let mut stack: Vec<(&LockKey, usize)> = vec![(start, 0)];
    let mut path: Vec<&LockKey> = vec![start];
    let mut visited: BTreeSet<&LockKey> = BTreeSet::new();
    visited.insert(start);
    while let Some((at, next)) = stack.last_mut() {
        let outs = adj.get(*at).map_or(&[][..], Vec::as_slice);
        if *next >= outs.len() {
            stack.pop();
            path.pop();
            continue;
        }
        let to = outs[*next];
        *next += 1;
        if to == start {
            return Some(path.iter().map(|&k| k.clone()).collect());
        }
        if visited.insert(to) {
            stack.push((to, 0));
            path.push(to);
        }
    }
    None
}

// ---------------------------------------------------------------- D13

const PANIC_NEEDLES: &[Needle] = &[
    Needle::Exact(".unwrap()"),
    Needle::Exact(".expect("),
    Needle::Exact("panic!"),
    Needle::Exact("unreachable!"),
];

fn panic_reachability(ws: &Ws<'_>, lines: &[Vec<&str>], owned: &[Vec<usize>], emit: &mut Emit<'_>) {
    let d13 = rule("panic-reachability");
    let nf = ws.sym.fns.len();
    let mut blocked = vec![false; ws.graph.len()];
    for (node, fsym) in ws.sym.fns.iter().enumerate() {
        let f = &ws.parsed[fsym.file].fns[fsym.fn_idx];
        if f.has_catch_unwind || !d13.covers_crate(&fsym.crate_name) {
            blocked[node] = true;
        }
    }
    let mut reported: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    for (k, cl) in ws.graph.closures.iter().enumerate() {
        let file = &ws.files[cl.file];
        if cl.guarded || cl.is_test || !d13.applies_to(file) {
            continue;
        }
        let root = nf + k;
        let reach = ws.graph.reach_forward(&[root], &blocked);
        let spawn_site = format!("{}:{}", file.rel_path, cl.line);
        // The closure's own body first (its lines belong to the parent fn,
        // which is usually not itself reachable from the closure).
        let p = &ws.parsed[cl.file];
        let body_lines: Vec<usize> = closure_lines(p, cl.body);
        for (line, col, tok) in hits_on_lines(&lines[cl.file], &body_lines, PANIC_NEEDLES, false) {
            if reported.insert((cl.file, line, col)) {
                emit(d13, cl.file, line, col, panic_message(d13, &tok, &spawn_site, None));
            }
        }
        for (node, fsym) in ws.sym.fns.iter().enumerate() {
            if reach[node].is_none() || node == root {
                continue;
            }
            let hits = hits_on_lines(&lines[fsym.file], &owned[node], PANIC_NEEDLES, false);
            if hits.is_empty() {
                continue;
            }
            let chain = ws.graph.chain(&reach, node, &|n| node_label(ws, n));
            for (line, col, tok) in hits {
                if reported.insert((fsym.file, line, col)) {
                    emit(
                        d13,
                        fsym.file,
                        line,
                        col,
                        panic_message(d13, &tok, &spawn_site, Some(&chain)),
                    );
                }
            }
        }
    }
}

/// 1-based lines spanned by a token range, minus nested `fn` bodies.
fn closure_lines(p: &ParsedFile, body: (usize, usize)) -> Vec<usize> {
    let (s, e) = body;
    if s >= e || e > p.toks.len() {
        return Vec::new();
    }
    let first = p.toks[s].line;
    let last = p.toks[e - 1].line;
    let children: Vec<(usize, usize)> = p
        .fns
        .iter()
        .filter(|c| c.body.0 > s && c.body.1 < e)
        .map(|c| (c.line, c.end_line))
        .collect();
    (first..=last).filter(|&l| !children.iter().any(|&(cs, ce)| l >= cs && l <= ce)).collect()
}

fn panic_message(d13: &RuleDef, tok: &str, spawn_site: &str, chain: Option<&str>) -> String {
    let via = chain.map(|c| format!("; via {c}")).unwrap_or_default();
    format!(
        "`{tok}` — panic site reachable from the worker thread spawned at \
         {spawn_site} with no catch_unwind boundary on the path{via}; a panic \
         here kills the worker (and poisons its locks) instead of failing one \
         request — return an error across the thread boundary, add a \
         catch_unwind at the root, or pragma with why the panic is the \
         intended crash semantics [{}]",
        d13.code
    )
}
