//! The project-specific rule set.
//!
//! Every rule mechanizes one determinism or randomness invariant that the
//! dynamic layers (trace inspector, conformance corpus, schedule fuzzer)
//! otherwise only check on the executions a run happens to take:
//!
//! | rule | code | invariant |
//! |------|------|-----------|
//! | `no-unseeded-randomness` | D1 | all randomness flows from splitmix64 per-trial seeds |
//! | `randomness-budget` | D2 | random draws only in `ψ_RSB` (≤ 1 bit/election cycle) |
//! | `no-wallclock-in-sim` | D3 | simulation crates never read wall clocks |
//! | `no-hash-iteration-in-digest-paths` | D4 | digest-feeding crates use ordered containers |
//! | `no-float-eq` | D5 | geometry/core compare floats via epsilon helpers |
//! | `no-float-int-casts-in-digest-paths` | D6 | digest-feeding crates avoid `as` float↔int casts |
//! | `stable-sort-in-digest-paths` | D7 | digest-feeding crates sort stably |
//! | `no-f32-in-geometry` | D8 | the geometric substrate computes in f64 only |
//! | `zip-length-mismatch` | D9 | per-robot folds must not truncate via `Iterator::zip` |
//! | `digest-purity-taint` | D10 | everything reachable from digest computation stays pure |
//! | `randomness-reachability` | D11 | all paths to a draw pass the election entrypoint |
//! | `lock-order` | D12 | the mutex-acquisition order graph is acyclic |
//! | `panic-reachability` | D13 | worker threads cannot reach an unguarded panic |
//! | `panic-policy` | P1 | library `unwrap`/`expect` needs a justified pragma |
//!
//! D1–D9 and P1 match token needles over the [lexer's](crate::lexer)
//! masked text, so comments, strings and char literals can never fire
//! them. D10–D13 are inter-procedural: they run in the private `taint`
//! module over the workspace [call graph](crate::callgraph) and use
//! [`Matcher::CallGraph`] here only as a registration marker.
//!
//! Each [`RuleDef`] is the whole statement of its rule's policy: the crates
//! it covers and the files it exempts are fields of the table below, and
//! `apf-cli lint --list-rules` / `--explain` print exactly those fields.
//! Suppression granularity, narrowest first:
//!
//! 1. an inline [pragma](crate::lexer::Pragma), with its reason (one line);
//! 2. [`RuleDef::allow_files`] (a whole file whose job is what the rule
//!    forbids elsewhere, with the reason in a comment beside the entry);
//! 3. [`RuleDef::crates`] (the rule's scope: the invariant's blast radius).

use crate::taint::FileEntry;
use crate::FileKind;

/// How a needle anchors to the surrounding characters.
#[derive(Debug, Clone, Copy)]
pub enum Needle {
    /// An identifier: the characters before and after must not be
    /// identifier characters.
    Ident(&'static str),
    /// An exact substring.
    Exact(&'static str),
    /// An exact substring whose *next* character must not be an identifier
    /// character (`.gen` matches `.gen(` / `.gen::<`, not `.gen_bool(`).
    ExactNotIdent(&'static str),
}

impl Needle {
    /// The literal text searched for.
    #[must_use]
    pub fn text(self) -> &'static str {
        match self {
            Needle::Ident(t) | Needle::Exact(t) | Needle::ExactNotIdent(t) => t,
        }
    }
}

/// What a rule matches.
#[derive(Debug, Clone, Copy)]
pub enum Matcher {
    /// Any of a set of token needles.
    Needles(&'static [Needle]),
    /// `==` / `!=` with a float literal (or float constant) operand.
    FloatEq,
    /// An `as` cast between float and integer representations: `as f32`
    /// anywhere, or `as <int>` whose left operand is recognizably a float
    /// (a float literal or a `.round()`/`.floor()`/`.ceil()`/`.trunc()`
    /// call).
    FloatIntCast,
    /// Inter-procedural rule: findings come from the call-graph analyses
    /// in the private `taint` module, not from per-line matching.
    CallGraph,
}

/// A static-analysis rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDef {
    /// Stable rule name — used in pragmas and the findings baseline.
    pub name: &'static str,
    /// Short code used in docs (D1…D13, P1).
    pub code: &'static str,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// The crates the rule applies to, by package name; `None` means every
    /// scanned crate.
    pub crates: Option<&'static [&'static str]>,
    /// Workspace-relative files exempt from the rule as a whole.
    pub allow_files: &'static [&'static str],
    /// The rule also applies inside `#[cfg(test)]` items and `tests/`,
    /// `benches/`, `examples/` sources.
    pub applies_in_tests: bool,
    /// The rule also applies to binary sources (`src/bin/`, `src/main.rs`).
    pub applies_in_bins: bool,
    /// What to look for.
    pub matcher: Matcher,
    /// Finding message (the matched token is prepended).
    pub message: &'static str,
    /// Long-form rationale printed by `apf-cli lint --explain <rule>`:
    /// what the rule enforces, why the invariant matters for this
    /// codebase, and how to fix or justify a finding.
    pub explain: &'static str,
}

impl RuleDef {
    /// Whether `crate_name` is in the rule's crate scope.
    pub(crate) fn covers_crate(&self, crate_name: &str) -> bool {
        self.crates.is_none_or(|list| list.contains(&crate_name))
    }

    /// Whether the rule reports findings in `file`: its crate is in scope,
    /// it is not allowlisted, and a test or binary source only when the
    /// rule applies there.
    pub(crate) fn applies_to(&self, file: &FileEntry) -> bool {
        self.covers_crate(&file.crate_name)
            && !self.allow_files.contains(&file.rel_path.as_str())
            && match file.kind {
                FileKind::Library => true,
                FileKind::Binary => self.applies_in_bins,
                FileKind::Test => self.applies_in_tests,
            }
    }
}

/// Diagnostics about the pragmas themselves (malformed, reasonless,
/// unknown rule) are reported under this pseudo-rule name.
pub const BAD_PRAGMA: &str = "bad-pragma";

/// The digest blast radius, shared by D4, D6 and D7: everything these
/// crates compute can end up in a trace event and therefore in a
/// conformance digest.
const DIGEST_FEEDING_CRATES: &[&str] =
    &["apf-core", "apf-sim", "apf-scheduler", "apf-geometry", "apf-trace", "apf-conformance"];

/// The rule table. Order is the reporting order for same-position findings.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        name: "no-unseeded-randomness",
        code: "D1",
        summary: "ambient entropy sources are forbidden everywhere; randomness must \
                  derive from the engine's splitmix64 per-trial seeds",
        crates: None,
        allow_files: &[],
        applies_in_tests: true,
        applies_in_bins: true,
        matcher: Matcher::Needles(&[
            Needle::Ident("thread_rng"),
            Needle::Ident("ThreadRng"),
            Needle::Exact("rand::random"),
            Needle::Ident("from_entropy"),
            Needle::Ident("OsRng"),
            Needle::Ident("getrandom"),
        ]),
        message: "unseeded entropy source; derive randomness from a per-trial seed \
                  (see apf_bench::engine::trial_seed) so every run replays bit-identically",
        explain: "Every random bit in this workspace must derive from a splitmix64 \
                  per-trial seed, so that any run — a single trial, a campaign shard, a \
                  fuzz case — replays bit-identically from its seed alone. Ambient \
                  entropy (thread_rng, OsRng, getrandom, from_entropy) breaks replay, \
                  cache keys and cross-shard digest agreement at once. Fix: thread a \
                  seed in from the trial engine; there is no justified use of ambient \
                  entropy anywhere, including tests.",
    },
    RuleDef {
        name: "randomness-budget",
        code: "D2",
        summary: "random draws are permitted only in the ψ_RSB election module; \
                  mechanizes the paper's ≤ 1 bit per robot per election cycle",
        // The algorithm is what Theorem 1's budget is about; see `explain`.
        crates: Some(&["apf-core"]),
        // The one module allowed to draw: the ψ_RSB election.
        allow_files: &["crates/core/src/rsb.rs"],
        applies_in_tests: false,
        applies_in_bins: true,
        matcher: Matcher::Needles(&[
            Needle::ExactNotIdent(".gen"),
            Needle::Ident("gen_bool"),
            Needle::Ident("gen_range"),
            Needle::Ident("random_bit"),
            Needle::Exact(".bit("),
            Needle::Exact(".word("),
        ]),
        message: "random draw outside the ψ_RSB election module; the algorithm's whole \
                  randomness budget is one coin flip per election cycle (Theorem 1)",
        explain: "Bramas & Tixeuil's Theorem 1 bounds the algorithm's randomness at one \
                  fair coin flip per robot per election cycle, all of it inside the \
                  ψ_RSB leader-election phase. This rule pins the *textual* budget: \
                  draw primitives (.gen/.bit()/gen_bool/…) may appear in apf-core only \
                  in the election module, crates/core/src/rsb.rs, the rule's one \
                  allowlisted file. The scope is apf-core alone because the budget is \
                  about the algorithm: scheduler and fuzzer draws (apf-scheduler, \
                  apf-conformance) model the adversary, and apf-sim's frame \
                  randomization models the robots' unknown local coordinate systems; \
                  both are separately seeded per trial and spend none of the \
                  algorithm's randomness. Its inter-procedural upgrade is D11 \
                  randomness-reachability, which pins the *call paths*. Fix: route the \
                  decision through the election entrypoint instead of drawing locally.",
    },
    RuleDef {
        name: "no-wallclock-in-sim",
        code: "D3",
        summary: "simulation crates must not read wall clocks; time only exists as \
                  scheduler steps",
        crates: Some(&["apf-core", "apf-sim", "apf-scheduler", "apf-geometry", "apf-trace"]),
        // The span profiler's monotonic clock: the only wall-clock read in
        // scope, structurally separate from every digest path.
        allow_files: &["crates/trace/src/span.rs"],
        applies_in_tests: false,
        applies_in_bins: true,
        matcher: Matcher::Needles(&[Needle::Exact("Instant::now"), Needle::Ident("SystemTime")]),
        message: "wall-clock read in a simulation crate; simulated time is scheduler \
                  steps, and wall time here would leak host timing into results",
        explain: "Inside the simulation crates, time exists only as scheduler steps — \
                  the ASYNC adversary decides who moves, not the host clock. An \
                  Instant::now()/SystemTime read in apf-core/sim/scheduler/geometry/\
                  trace leaks host timing into supposedly deterministic results. \
                  apf-bench (worker timing, harness wall-clock reporting) is outside \
                  the scope on purpose: that is where timing code belongs. apf-trace \
                  is in scope because its event and digest paths must stay clock-free; \
                  its span profiler (crates/trace/src/span.rs, the rule's one \
                  allowlisted file) measures *around* the simulation, never inside it. \
                  Fix: move the measurement to the bench harness or count steps.",
    },
    RuleDef {
        name: "no-hash-iteration-in-digest-paths",
        code: "D4",
        summary: "crates feeding trace digests must use BTreeMap/BTreeSet or sorted \
                  vectors, never hash containers",
        crates: Some(DIGEST_FEEDING_CRATES),
        allow_files: &[],
        applies_in_tests: false,
        applies_in_bins: true,
        matcher: Matcher::Needles(&[Needle::Ident("HashMap"), Needle::Ident("HashSet")]),
        message: "hash container in a digest-feeding crate; iteration order is \
                  nondeterministic across runs — use BTreeMap/BTreeSet or a sorted Vec",
        explain: "Trace digests are FNV-1a folds over iteration order, so a \
                  HashMap/HashSet anywhere the digested values flow makes the digest a \
                  function of the hasher's random state. This rule scopes by *crate \
                  list* (the digest-feeding crates, whose values can reach a trace \
                  event); D10 digest-purity-taint re-derives the same invariant by \
                  *reachability* from the digest fold itself, which also covers \
                  helpers outside the listed crates. Fix: BTreeMap/BTreeSet, or \
                  collect-and-sort before iterating.",
    },
    RuleDef {
        name: "no-float-eq",
        code: "D5",
        summary: "float `==`/`!=` in geometry/core; use the Tol epsilon helpers",
        crates: Some(&["apf-geometry", "apf-core"]),
        allow_files: &[],
        applies_in_tests: false,
        applies_in_bins: true,
        matcher: Matcher::FloatEq,
        message: "exact float comparison; use the Tol epsilon helpers (tol.eq / \
                  tol.is_zero) or pragma an intentional exact-zero singularity guard",
        explain: "Geometry decisions (symmetricity, Weber points, view ordering) flip \
                  on borderline comparisons, and exact float == / != makes the flip \
                  depend on rounding noise. The Tol helpers compare under an explicit \
                  epsilon so every borderline is decided the same way everywhere. \
                  Exact comparison is legitimate only for singularity guards \
                  (division-by-exact-zero) — pragma those with the argument.",
    },
    RuleDef {
        name: "no-float-int-casts-in-digest-paths",
        code: "D6",
        summary: "digest-feeding crates avoid `as` float↔int casts; truncation and f32 \
                  narrowing make digested values representation-fragile",
        crates: Some(DIGEST_FEEDING_CRATES),
        allow_files: &[],
        applies_in_tests: false,
        applies_in_bins: true,
        matcher: Matcher::FloatIntCast,
        message: "float↔int `as` cast in a digest-feeding crate; `as` silently truncates \
                  and saturates — quantize through an audited helper, or pragma the site \
                  with the argument for why the value is exactly representable",
        explain: "`as` casts between float and int silently truncate, saturate, and (to \
                  f32) halve precision — all representation hazards for values that \
                  feed digests. The audited quantizer in views.rs is the one sanctioned \
                  float→int path. This rule scopes by crate list; D10 \
                  digest-purity-taint covers the same sink by reachability from the \
                  digest fold. Fix: go through the quantizer, or pragma with the \
                  exact-representability argument.",
    },
    RuleDef {
        name: "stable-sort-in-digest-paths",
        code: "D7",
        summary: "digest-feeding crates sort stably; `sort_unstable` reorders equal keys \
                  implementation-dependently",
        crates: Some(DIGEST_FEEDING_CRATES),
        allow_files: &[],
        applies_in_tests: false,
        applies_in_bins: true,
        matcher: Matcher::Needles(&[Needle::Exact(".sort_unstable")]),
        message: "unstable sort on data that can feed trace/digest output; equal-key \
                  order is unspecified and may drift across std versions — use a stable \
                  sort, or pragma with the argument for why keys are total",
        explain: "sort_unstable reorders equal keys in an implementation-defined way, so \
                  two std versions (or two architectures) can produce different digests \
                  from identical inputs. In digest-feeding crates use a stable sort, or \
                  pragma with the proof that the sort key is total (no equal keys, so \
                  stability is vacuous).",
    },
    RuleDef {
        name: "no-f32-in-geometry",
        code: "D8",
        summary: "the geometric substrate computes in f64 only; any `f32` silently \
                  halves precision under every tolerance in the crate",
        crates: Some(&["apf-geometry"]),
        allow_files: &[],
        // An f32 comparison in a geometry test weakens the assertion it makes.
        applies_in_tests: true,
        applies_in_bins: true,
        matcher: Matcher::Needles(&[Needle::Ident("f32")]),
        message: "`f32` in the geometric substrate; every tolerance, digest and \
                  symmetry decision assumes f64 — a single f32 round-trip quietly \
                  halves precision and can flip borderline classifications",
        explain: "Every tolerance constant, quantizer step and symmetry threshold in \
                  apf-geometry is calibrated for f64. One f32 round-trip quietly halves \
                  the mantissa, which is enough to flip borderline symmetricity or \
                  Weber-point classifications that the formation algorithm then acts \
                  on. There is no sanctioned f32 use in the geometric substrate.",
    },
    RuleDef {
        name: "zip-length-mismatch",
        code: "D9",
        summary: "`Iterator::zip` silently truncates to the shorter side; per-robot \
                  folds must justify equal lengths with a pragma",
        // The crates that fold over robot collections.
        crates: Some(&["apf-core", "apf-geometry", "apf-sim"]),
        allow_files: &[],
        // A truncating zip weakens a test's assertion loop.
        applies_in_tests: true,
        applies_in_bins: true,
        matcher: Matcher::Needles(&[Needle::Exact(".zip(")]),
        message: "`Iterator::zip` truncates to the shorter input without panicking; a \
                  per-robot fold over mismatched lengths silently drops robots — use an \
                  indexed loop, or pragma the site with why the lengths are equal by \
                  construction",
        explain: "Iterator::zip stops at the shorter input without complaint. In a \
                  per-robot fold (positions against lights, views against targets) a \
                  length mismatch then silently drops robots instead of failing loudly \
                  — exactly the pattern-formation bug class that is hardest to see in \
                  traces. Use an indexed loop with an explicit length assertion, or \
                  pragma with why the lengths are equal by construction.",
    },
    RuleDef {
        name: "panic-policy",
        code: "P1",
        summary: "unwrap/expect in non-test library code needs a pragma with a reason",
        crates: None,
        // No file allowlist on purpose: reasons belong next to the call sites.
        allow_files: &[],
        applies_in_tests: false,
        applies_in_bins: false,
        matcher: Matcher::Needles(&[Needle::Exact(".unwrap()"), Needle::Exact(".expect(")]),
        message: "unwrap/expect in library code; return an error, restructure, or \
                  justify with `// apf-lint: allow(panic-policy) — <why this cannot fail>`",
        explain: "Library code should return errors, not crash the process. Every \
                  unwrap/expect in non-test library sources needs a pragma whose reason \
                  states why the failure is impossible (or why crashing is the intended \
                  semantics). Tests and binaries are exempt: panicking is their normal \
                  failure mode. See also D13 panic-reachability, which tracks whether a \
                  justified panic can still take down a worker thread.",
    },
    RuleDef {
        name: "digest-purity-taint",
        code: "D10",
        summary: "functions reachable from digest/trace-hash computation must not reach \
                  wall clocks, hash iteration, or float↔int casts",
        // No crate scope on purpose: reachability follows the calls wherever
        // they go, which is what the D4/D6/D7 crate lists cannot do.
        crates: None,
        allow_files: &[],
        applies_in_tests: false,
        applies_in_bins: true,
        matcher: Matcher::CallGraph,
        message: "impure sink reachable from digest computation",
        explain: "The digest roots (the HashSink fold, fnv1a_64 and CanonicalSpec \
                  addressing; DIGEST_ROOTS in apf-lint) define a forward cone in the \
                  call graph: everything those functions can transitively call. \
                  Anything in that cone that reads a wall clock, iterates a hash \
                  container, or does a float↔int `as` cast makes the digest a function \
                  of host state instead of the trace — which breaks replay, the \
                  content-addressed result cache and cross-shard agreement at once. \
                  Unlike D4/D6/D7 this is not scoped by crate lists; reachability \
                  follows the calls wherever they go. Fix: keep the cone pure, or \
                  pragma the site with the determinism argument.",
    },
    RuleDef {
        name: "randomness-reachability",
        code: "D11",
        summary: "every call path to a random draw passes through the ψ_RSB election \
                  entrypoint — the call-graph form of the Theorem 1 budget",
        crates: None,
        // The election module hosts the draws; findings anchor at functions
        // outside it that sneak past the entrypoint.
        allow_files: &["crates/core/src/rsb.rs"],
        applies_in_tests: false,
        applies_in_bins: true,
        matcher: Matcher::CallGraph,
        message: "reaches a random draw without passing through an election entrypoint",
        explain: "Theorem 1's ≤ 1 bit per robot per election cycle budget holds only if \
                  the election entrypoint (select_a_robot; ELECTION_ENTRYPOINTS in \
                  apf-lint) is the sole gateway to the draw sites. The check: find \
                  every function whose body performs a draw (the D2 needles, in D2's \
                  crates; D2's allowlist does not apply, since the draws live in \
                  rsb.rs), delete the entrypoints from the call graph, and walk the \
                  reverse edges. Any function that still reaches a draw has a path \
                  around the election — a static counterexample to the budget \
                  argument. The election module itself, crates/core/src/rsb.rs, hosts \
                  the draws and is the rule's one allowlisted file. Fix: call through \
                  the entrypoint; a new sanctioned gateway goes into \
                  ELECTION_ENTRYPOINTS.",
    },
    RuleDef {
        name: "lock-order",
        code: "D12",
        summary: "the mutex-acquisition order graph across the service crates must be \
                  acyclic; a cycle is a potential deadlock",
        // The crates that run multi-threaded with shared locks.
        crates: Some(&["apf-serve", "apf-bench"]),
        allow_files: &[],
        applies_in_tests: false,
        applies_in_bins: false,
        matcher: Matcher::CallGraph,
        message: "lock-order cycle",
        explain: "Each `x.lock()` taken while another guard is live adds the edge \
                  held → x to a workspace-wide lock-order graph; held sets also \
                  propagate through calls, so a callee's acquisitions are ordered \
                  after everything its caller holds. If that graph has a cycle, two \
                  threads can take the locks in opposite orders and block forever — \
                  the classic AB/BA deadlock, which no amount of testing reliably \
                  surfaces because it needs the losing interleaving. Fix: pick one \
                  global acquisition order (document it), or merge the critical \
                  sections so only one lock is held at a time.",
    },
    RuleDef {
        name: "panic-reachability",
        code: "D13",
        summary: "panic sites (unwrap/expect/panic!) reachable from worker-thread \
                  closures outside a catch_unwind boundary",
        // Same scope as D12: the crates whose worker threads outlive a request.
        crates: Some(&["apf-serve", "apf-bench"]),
        allow_files: &[],
        applies_in_tests: false,
        applies_in_bins: false,
        matcher: Matcher::CallGraph,
        message: "panic site reachable from a worker thread without catch_unwind",
        explain: "A panic on a spawned worker thread does not fail the request that \
                  caused it — it kills the worker, poisons every mutex it held, and \
                  degrades the service until restart. This rule takes each \
                  `spawn(...)` closure as a root, walks the call graph, and reports \
                  every unwrap/expect/panic! it can reach, unless a catch_unwind \
                  boundary guards the path (functions containing catch_unwind are \
                  traversal boundaries). P1 asks \"is this panic justified?\"; D13 asks \
                  \"who dies if it fires?\". Fix: return errors across the thread \
                  boundary, add a catch_unwind at the worker root, or pragma with why \
                  crashing the worker is the intended semantics.",
    },
];

/// True when `name` is a rule name (or the pragma pseudo-rule).
#[must_use]
pub fn is_known_rule(name: &str) -> bool {
    name == BAD_PRAGMA || RULES.iter().any(|r| r.name == name)
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offsets (within `line`) where `needle` matches.
pub(crate) fn needle_matches(line: &str, needle: Needle) -> Vec<usize> {
    let text = needle.text();
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line.get(from..).and_then(|h| h.find(text)) {
        let at = from + rel;
        from = at + 1;
        let ok = match needle {
            Needle::Exact(_) => true,
            Needle::ExactNotIdent(_) => {
                bytes.get(at + text.len()).copied().is_none_or(|c| !is_ident_char(c))
            }
            Needle::Ident(_) => {
                let before_ok = at == 0 || !is_ident_char(bytes[at - 1]);
                let after_ok =
                    bytes.get(at + text.len()).copied().is_none_or(|c| !is_ident_char(c));
                before_ok && after_ok
            }
        };
        if ok {
            out.push(at);
        }
    }
    out
}

/// Byte offsets of `==`/`!=` operators with a float-literal (or float
/// constant) operand on either side.
///
/// This is a literal-adjacency heuristic, not a type check: it catches the
/// `x == 0.0` / `r != 1.5` / `d == f64::INFINITY` shapes that actually
/// occur, and stays silent on comparisons of two non-literal expressions
/// (clippy's `float_cmp` covers broader shapes at type level).
pub(crate) fn float_eq_matches(line: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let is_op = (bytes[i] == b'=' || bytes[i] == b'!') && bytes[i + 1] == b'=';
        if !is_op
            // `a == b` not `a === b` (not Rust, but stay strict) nor `<=`/`>=`.
            || (i > 0 && matches!(bytes[i - 1], b'=' | b'!' | b'<' | b'>'))
            || bytes.get(i + 2) == Some(&b'=')
        {
            i += 1;
            continue;
        }
        if float_on_right(bytes, i + 2) || float_on_left(bytes, i) {
            out.push(i);
        }
        i += 2;
    }
    out
}

fn float_on_right(bytes: &[u8], mut i: usize) -> bool {
    while bytes.get(i) == Some(&b' ') {
        i += 1;
    }
    if bytes.get(i) == Some(&b'-') {
        i += 1;
    }
    let start = i;
    while i < bytes.len()
        && (is_ident_char(bytes[i])
            || bytes[i] == b'.'
            || bytes[i] == b':'
            || (matches!(bytes[i], b'+' | b'-')
                && i > start
                && matches!(bytes[i - 1], b'e' | b'E')))
    {
        i += 1;
    }
    token_is_float(&bytes[start..i])
}

fn float_on_left(bytes: &[u8], op: usize) -> bool {
    let mut i = op;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let end = i;
    while i > 0
        && (is_ident_char(bytes[i - 1])
            || bytes[i - 1] == b'.'
            || bytes[i - 1] == b':'
            || (matches!(bytes[i - 1], b'+' | b'-')
                && i >= 2
                && matches!(bytes[i - 2], b'e' | b'E')))
    {
        i -= 1;
    }
    token_is_float(&bytes[i..end])
}

/// Byte offsets of `as` casts between float and integer representations.
///
/// Two shapes fire, mirroring how digest-value fragility actually enters:
/// `as f32` (narrowing a digested value to half precision) with any
/// operand, and `as <int-type>` whose left operand is recognizably a float
/// — a float literal or a `.round()` / `.floor()` / `.ceil()` / `.trunc()`
/// call. Plain `n as f64` (int widening, exact for every value this
/// workspace digests) stays silent, as does `x as i64` of an opaque
/// expression — like [`float_eq_matches`], this is a literal-adjacency
/// heuristic, not a type check.
pub(crate) fn float_int_cast_matches(line: &str) -> Vec<usize> {
    const INT_TYPES: &[&str] =
        &["i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize"];
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for at in needle_matches(line, Needle::Ident("as")) {
        let mut i = at + 2;
        while bytes.get(i) == Some(&b' ') {
            i += 1;
        }
        let ty_start = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        let ty = &line[ty_start..i];
        if ty == "f32" || (INT_TYPES.contains(&ty) && float_cast_operand_on_left(bytes, at)) {
            out.push(at);
        }
    }
    out
}

/// Whether the expression ending just before the `as` at `as_pos` is
/// recognizably a float: a rounding-method call or a float literal.
fn float_cast_operand_on_left(bytes: &[u8], as_pos: usize) -> bool {
    let mut i = as_pos;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    if bytes[i - 1] == b')' {
        // Walk back over the balanced call parens to the method name.
        let mut depth = 0usize;
        let mut j = i;
        loop {
            if j == 0 {
                return false; // call spans lines; stay silent
            }
            j -= 1;
            match bytes[j] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        let name_end = j;
        let mut k = name_end;
        while k > 0 && is_ident_char(bytes[k - 1]) {
            k -= 1;
        }
        matches!(&bytes[k..name_end], b"round" | b"floor" | b"ceil" | b"trunc")
            && k > 0
            && bytes[k - 1] == b'.'
    } else {
        let end = i;
        let mut k = i;
        while k > 0 && (is_ident_char(bytes[k - 1]) || bytes[k - 1] == b'.' || bytes[k - 1] == b':')
        {
            k -= 1;
        }
        token_is_float(&bytes[k..end])
    }
}

/// Decides whether a scanned token is a float literal (`0.0`, `1.`, `1e-3`,
/// `2.5f64`) or a named float constant (`f64::INFINITY`, `f32::NAN`, …).
fn token_is_float(token: &[u8]) -> bool {
    if token.is_empty() {
        return false;
    }
    const CONSTS: &[&str] = &["INFINITY", "NEG_INFINITY", "NAN", "EPSILON", "MIN_POSITIVE"];
    if let Ok(s) = std::str::from_utf8(token) {
        if CONSTS.iter().any(|c| s == *c || s.ends_with(&format!("::{c}"))) {
            return true;
        }
    }
    if !token[0].is_ascii_digit() {
        // Tuple-field access like `pair.0` starts with an identifier, not a
        // digit, and must not count as a float literal.
        return false;
    }
    let mut i = 0;
    while i < token.len() && (token[i].is_ascii_digit() || token[i] == b'_') {
        i += 1;
    }
    match token.get(i) {
        Some(b'.') => {
            // `1.0`, `1.` — but not a method call `1.max(x)` (needle scan
            // stops at `(` so a trailing ident after `.` means path/method).
            let rest = &token[i + 1..];
            rest.is_empty() || rest[0].is_ascii_digit()
        }
        Some(b'e' | b'E') => {
            token[i + 1..].first().is_some_and(|&c| c.is_ascii_digit() || c == b'+' || c == b'-')
        }
        Some(b'f') => matches!(&token[i..], b"f32" | b"f64"),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needle_boundaries() {
        assert_eq!(needle_matches("let r = thread_rng();", Needle::Ident("thread_rng")).len(), 1);
        assert!(needle_matches("my_thread_rng()", Needle::Ident("thread_rng")).is_empty());
        assert!(needle_matches("thread_rng2()", Needle::Ident("thread_rng")).is_empty());
        assert_eq!(needle_matches("rng.gen::<bool>()", Needle::ExactNotIdent(".gen")).len(), 1);
        assert_eq!(needle_matches("rng.gen()", Needle::ExactNotIdent(".gen")).len(), 1);
        assert!(needle_matches("rng.gen_bool(0.5)", Needle::ExactNotIdent(".gen")).is_empty());
        assert_eq!(needle_matches("x.unwrap().y.unwrap()", Needle::Exact(".unwrap()")).len(), 2);
        assert!(needle_matches("x.unwrap_or(3)", Needle::Exact(".unwrap()")).is_empty());
        assert!(needle_matches("x.expect_err(msg)", Needle::Exact(".expect(")).is_empty());
    }

    #[test]
    fn float_eq_shapes() {
        assert_eq!(float_eq_matches("if r == 0.0 {").len(), 1);
        assert_eq!(float_eq_matches("if 0.0 == r {").len(), 1);
        assert_eq!(float_eq_matches("if r != 1.5e-3 {").len(), 1);
        assert_eq!(float_eq_matches("if d == f64::INFINITY {").len(), 1);
        assert_eq!(float_eq_matches("if d == -1.0 {").len(), 1);
        assert_eq!(float_eq_matches("if x == 2.5f64 {").len(), 1);
    }

    #[test]
    fn float_eq_non_matches() {
        assert!(float_eq_matches("if a == b {").is_empty());
        assert!(float_eq_matches("if n == 0 {").is_empty());
        assert!(float_eq_matches("if n <= 0.5 {").is_empty());
        assert!(float_eq_matches("if n >= 0.5 {").is_empty());
        assert!(float_eq_matches("if pair.0 == other {").is_empty());
        assert!(float_eq_matches("let f = |x| x == y;").is_empty());
        assert!(float_eq_matches("a => b").is_empty());
    }

    #[test]
    fn float_int_cast_shapes() {
        assert_eq!(float_int_cast_matches("let q = (x * SCALE).round() as i64;").len(), 1);
        assert_eq!(float_int_cast_matches("let q = y.floor() as u32;").len(), 1);
        assert_eq!(float_int_cast_matches("let q = z.ceil() as usize;").len(), 1);
        assert_eq!(float_int_cast_matches("let q = w.trunc() as i32;").len(), 1);
        assert_eq!(float_int_cast_matches("let q = 1.5 as i64;").len(), 1);
        assert_eq!(float_int_cast_matches("let lossy = x as f32;").len(), 1);
        assert_eq!(float_int_cast_matches("f(a.round() as i64, b.round() as i64)").len(), 2);
    }

    #[test]
    fn float_int_cast_non_matches() {
        // Int widening into f64 is exact for everything digested here.
        assert!(float_int_cast_matches("let f = n as f64;").is_empty());
        // Opaque expressions: no adjacency evidence, no finding.
        assert!(float_int_cast_matches("let q = x as i64;").is_empty());
        assert!(float_int_cast_matches("let q = idx as usize;").is_empty());
        // Non-numeric casts and trait casts.
        assert!(float_int_cast_matches("let c = b as char;").is_empty());
        assert!(float_int_cast_matches("<T as Default>::default()").is_empty());
        // Rounding call without a cast, and non-rounding method calls.
        assert!(float_int_cast_matches("let r = x.round();").is_empty());
        assert!(float_int_cast_matches("let q = v.len() as u64;").is_empty());
        // `as` inside identifiers.
        assert!(float_int_cast_matches("let q = x.as_ref();").is_empty());
    }

    #[test]
    fn sort_unstable_needle_covers_all_variants() {
        let needle = Needle::Exact(".sort_unstable");
        assert_eq!(needle_matches("v.sort_unstable();", needle).len(), 1);
        assert_eq!(needle_matches("v.sort_unstable_by(cmp);", needle).len(), 1);
        assert_eq!(needle_matches("v.sort_unstable_by_key(|x| x.0);", needle).len(), 1);
        assert!(needle_matches("v.sort_by(cmp);", needle).is_empty());
        assert!(needle_matches("v.sort();", needle).is_empty());
    }

    #[test]
    fn rule_names_are_unique_and_known() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(is_known_rule(r.name));
            assert!(RULES[i + 1..].iter().all(|o| o.name != r.name), "dup {}", r.name);
        }
        assert!(is_known_rule(BAD_PRAGMA));
        assert!(!is_known_rule("no-such-rule"));
    }
}
