//! Fixtures for the inter-procedural rules (D10–D13): multi-file in-memory
//! workspaces run through `lint_files`, one scenario per firing condition,
//! plus the allowlist boundary and out-of-scope cases for each rule.
//!
//! Fixture code lives in string literals, which the masking lexer blanks
//! out — so these fixtures can never trip the linter on this file itself.

use apf_lint::{lint_files, Finding, SourceFile};

fn ws(files: &[(&str, &str, &str)]) -> Vec<SourceFile> {
    files
        .iter()
        .map(|(rel, krate, src)| SourceFile {
            rel_path: (*rel).to_string(),
            crate_name: (*krate).to_string(),
            source: (*src).to_string(),
        })
        .collect()
}

fn run(files: &[(&str, &str, &str)]) -> Vec<Finding> {
    lint_files(&ws(files))
}

fn fired<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------- D10

/// The acceptance fixture: an artificial wall-clock call reachable from the
/// digest fold — across a crate boundary, in a crate (apf-serve) that no
/// D3/D4/D6 file list covers — must be caught.
#[test]
fn d10_wallclock_reachable_from_digest_fold_is_caught() {
    let f = run(&[
        (
            "crates/trace/src/sink.rs",
            "apf-trace",
            "use apf_serve::util::mix;\n\
             pub struct HashSink { h: u64 }\n\
             impl HashSink {\n\
                 pub fn record(&mut self, v: u64) { self.h = mix(self.h, v); }\n\
             }\n",
        ),
        (
            "crates/serve/src/util.rs",
            "apf-serve",
            "pub fn mix(h: u64, v: u64) -> u64 { h ^ stamp(v) }\n\
             fn stamp(v: u64) -> u64 { Instant::now().elapsed().as_nanos() as u64 ^ v }\n",
        ),
    ]);
    let d10 = fired(&f, "digest-purity-taint");
    assert!(!d10.is_empty(), "wall clock in the digest cone must fire: {f:?}");
    let hit = d10.iter().find(|f| f.message.contains("Instant::now")).expect("clock sink");
    assert_eq!(hit.file, "crates/serve/src/util.rs");
    assert!(hit.message.contains("record"), "witness chain names the root: {}", hit.message);
}

#[test]
fn d10_hash_iteration_reachable_from_digest_root_is_caught() {
    let f = run(&[(
        "crates/trace/src/spec.rs",
        "apf-trace",
        "pub fn fnv1a_64(bytes: &[u8]) -> u64 { fold(bytes) }\n\
         fn fold(bytes: &[u8]) -> u64 {\n\
             let m: HashMap<u8, u64> = HashMap::new();\n\
             m.values().sum()\n\
         }\n",
    )]);
    let d10 = fired(&f, "digest-purity-taint");
    assert!(!d10.is_empty(), "HashMap in the digest cone must fire: {f:?}");
    assert_eq!(d10[0].line, 3);
}

/// Impure code that the digest roots never reach is not D10's business —
/// and in a crate outside every per-crate file list, nothing else fires.
#[test]
fn d10_unreachable_impurity_is_clean() {
    let f = run(&[(
        "crates/serve/src/metrics.rs",
        "apf-serve",
        "pub fn uptime_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
    )]);
    assert!(fired(&f, "digest-purity-taint").is_empty(), "no digest root reaches it: {f:?}");
}

// ---------------------------------------------------------------- D11

/// A deterministic-phase function that reaches a random draw *around* the
/// election entrypoint is a static witness against the Theorem 1 budget.
#[test]
fn d11_draw_reachable_around_the_election_is_caught() {
    let f = run(&[
        (
            "crates/core/src/rsb.rs",
            "apf-core",
            "pub fn select_a_robot(rng: &mut Rng) -> usize { draw_bit(rng) as usize }\n\
             pub fn draw_bit(rng: &mut Rng) -> bool { rng.gen_bool(0.5) }\n",
        ),
        (
            "crates/core/src/dpf.rs",
            "apf-core",
            "use crate::rsb::draw_bit;\n\
             pub fn sneaky_tiebreak(rng: &mut Rng) -> bool { draw_bit(rng) }\n",
        ),
    ]);
    let d11 = fired(&f, "randomness-reachability");
    assert_eq!(d11.len(), 1, "exactly the bypass fires: {f:?}");
    assert_eq!(d11[0].file, "crates/core/src/dpf.rs");
    assert!(d11[0].message.contains("sneaky_tiebreak"));
    assert!(d11[0].message.contains("draw_bit"), "chain names the draw: {}", d11[0].message);
}

/// Call paths that flow through `select_a_robot` are the sanctioned shape:
/// removing the entrypoint from the graph disconnects the caller from the
/// draw, so nothing fires.
#[test]
fn d11_paths_through_the_entrypoint_are_clean() {
    let f = run(&[
        (
            "crates/core/src/rsb.rs",
            "apf-core",
            "pub fn select_a_robot(rng: &mut Rng) -> usize { draw_bit(rng) as usize }\n\
             fn draw_bit(rng: &mut Rng) -> bool { rng.gen_bool(0.5) }\n",
        ),
        (
            "crates/core/src/dpf.rs",
            "apf-core",
            "use crate::rsb::select_a_robot;\n\
             pub fn elect(rng: &mut Rng) -> usize { select_a_robot(rng) }\n",
        ),
    ]);
    assert!(
        fired(&f, "randomness-reachability").is_empty(),
        "the election gateway is the sanctioned path: {f:?}"
    );
}

/// Draws outside the D2 crate scope (the adversary's scheduler stream) are
/// not algorithm randomness and define no D11 targets.
#[test]
fn d11_out_of_scope_draws_define_no_targets() {
    let f = run(&[(
        "crates/scheduler/src/lib.rs",
        "apf-scheduler",
        "pub fn pick(rng: &mut Rng) -> usize { step(rng) }\n\
         fn step(rng: &mut Rng) -> usize { rng.gen_range(0..9) }\n",
    )]);
    assert!(fired(&f, "randomness-reachability").is_empty(), "adversary draws exempt: {f:?}");
}

// ---------------------------------------------------------------- D12

/// The acceptance fixture: a synthetic AB/BA lock cycle must be caught.
#[test]
fn d12_ab_ba_lock_cycle_is_caught() {
    let f = run(&[(
        "crates/serve/src/state.rs",
        "apf-serve",
        "impl State {\n\
             fn submit(&self) {\n\
                 let g = self.queue.lock();\n\
                 let h = self.results.lock();\n\
             }\n\
             fn collect(&self) {\n\
                 let g = self.results.lock();\n\
                 let h = self.queue.lock();\n\
             }\n\
         }\n",
    )]);
    let d12 = fired(&f, "lock-order");
    assert!(!d12.is_empty(), "AB/BA ordering must fire: {f:?}");
    assert!(d12[0].message.contains("queue") && d12[0].message.contains("results"));
    assert!(d12[0].message.contains("deadlock"));
}

/// The cycle is still found when one leg of the inversion happens inside a
/// callee: held locks order everything the callee transitively acquires.
#[test]
fn d12_transitive_cycle_through_calls_is_caught() {
    let f = run(&[(
        "crates/serve/src/state.rs",
        "apf-serve",
        "fn submit(s: &State) {\n\
             let g = s.queue.lock();\n\
             flush(s);\n\
         }\n\
         fn flush(s: &State) {\n\
             let g = s.results.lock();\n\
         }\n\
         fn collect(s: &State) {\n\
             let g = s.results.lock();\n\
             requeue(s);\n\
         }\n\
         fn requeue(s: &State) {\n\
             let g = s.queue.lock();\n\
         }\n",
    )]);
    let d12 = fired(&f, "lock-order");
    assert!(!d12.is_empty(), "transitive AB/BA through calls must fire: {f:?}");
}

/// One global order — every function takes `queue` before `results` — is
/// exactly the fix the rule asks for, and is clean.
#[test]
fn d12_consistent_global_order_is_clean() {
    let f = run(&[(
        "crates/serve/src/state.rs",
        "apf-serve",
        "impl State {\n\
             fn submit(&self) {\n\
                 let g = self.queue.lock();\n\
                 let h = self.results.lock();\n\
             }\n\
             fn collect(&self) {\n\
                 let g = self.queue.lock();\n\
                 let h = self.results.lock();\n\
             }\n\
         }\n",
    )]);
    assert!(fired(&f, "lock-order").is_empty(), "one global order is clean: {f:?}");
}

/// Dropping the first guard before taking the second breaks the hold-while
/// -acquiring edge, so opposite orders without overlap are clean.
#[test]
fn d12_drop_before_second_acquire_is_clean() {
    let f = run(&[(
        "crates/serve/src/state.rs",
        "apf-serve",
        "impl State {\n\
             fn submit(&self) {\n\
                 let g = self.queue.lock();\n\
                 drop(g);\n\
                 let h = self.results.lock();\n\
             }\n\
             fn collect(&self) {\n\
                 let g = self.results.lock();\n\
                 drop(g);\n\
                 let h = self.queue.lock();\n\
             }\n\
         }\n",
    )]);
    assert!(fired(&f, "lock-order").is_empty(), "non-overlapping guards are clean: {f:?}");
}

/// The rule's scope is the crates whose worker threads share locks;
/// single-threaded algorithm code is out of scope.
#[test]
fn d12_out_of_scope_crate_is_clean() {
    let f = run(&[(
        "crates/core/src/state.rs",
        "apf-core",
        "impl State {\n\
             fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.y.lock(); let h = self.x.lock(); }\n\
         }\n",
    )]);
    assert!(fired(&f, "lock-order").is_empty(), "apf-core is out of D12 scope: {f:?}");
}

// ---------------------------------------------------------------- D13

#[test]
fn d13_panic_in_spawned_closure_is_caught() {
    let f = run(&[(
        "crates/serve/src/pool.rs",
        "apf-serve",
        "fn start(q: Queue) {\n\
             thread::spawn(move || {\n\
                 let job = q.pop().unwrap();\n\
             });\n\
         }\n",
    )]);
    let d13 = fired(&f, "panic-reachability");
    assert_eq!(d13.len(), 1, "unwrap in an unguarded worker fires: {f:?}");
    assert_eq!(d13[0].line, 3);
    assert!(d13[0].message.contains("crates/serve/src/pool.rs:2"), "names the spawn site");
}

/// The panic need not be textually inside the closure: any function the
/// worker reaches is on the worker's stack.
#[test]
fn d13_panic_reachable_through_calls_is_caught() {
    let f = run(&[(
        "crates/serve/src/pool.rs",
        "apf-serve",
        "fn start(q: Queue) {\n\
             thread::spawn(move || worker(q));\n\
         }\n\
         fn worker(q: Queue) {\n\
             let job = q.pop().expect(\"queue open\");\n\
         }\n",
    )]);
    let d13 = fired(&f, "panic-reachability");
    assert_eq!(d13.len(), 1, "reachable expect fires: {f:?}");
    assert_eq!(d13[0].line, 5);
    assert!(d13[0].message.contains("via"), "witness chain present: {}", d13[0].message);
}

/// A `catch_unwind` in the spawned closure marks the whole worker guarded;
/// one inside a reachable function blocks traversal past that function.
#[test]
fn d13_catch_unwind_boundaries_block_the_path() {
    let f = run(&[(
        "crates/serve/src/pool.rs",
        "apf-serve",
        "fn start(q: Queue) {\n\
             thread::spawn(move || { let _ = catch_unwind(|| q.pop().unwrap()); });\n\
             thread::spawn(move || shielded(q));\n\
         }\n\
         fn shielded(q: Queue) {\n\
             let _ = catch_unwind(|| inner(q));\n\
         }\n\
         fn inner(q: Queue) {\n\
             let job = q.pop().unwrap();\n\
         }\n",
    )]);
    assert!(
        fired(&f, "panic-reachability").is_empty(),
        "catch_unwind is the containment boundary: {f:?}"
    );
}

/// Spawns outside the worker crates (or in test sources) are exempt.
#[test]
fn d13_out_of_scope_and_test_spawns_are_clean() {
    let f = run(&[
        (
            "crates/sim/src/runner.rs",
            "apf-sim",
            "fn start() { thread::spawn(move || { Some(1).unwrap(); }); }\n",
        ),
        (
            "crates/serve/tests/soak.rs",
            "apf-serve",
            "fn start() { thread::spawn(move || { Some(1).unwrap(); }); }\n",
        ),
    ]);
    assert!(fired(&f, "panic-reachability").is_empty(), "scope/test exemptions hold: {f:?}");
}

/// An inline pragma suppresses the finding at the panic site — the same
/// suppression grammar every intra-file rule uses.
#[test]
fn d13_pragma_suppresses_at_the_panic_site() {
    let f = run(&[(
        "crates/serve/src/pool.rs",
        "apf-serve",
        "fn start(q: Queue) {\n\
             thread::spawn(move || {\n\
                 // apf-lint: allow(panic-policy, panic-reachability) — fixture: crash wanted\n\
                 let job = q.pop().unwrap();\n\
             });\n\
         }\n",
    )]);
    assert!(fired(&f, "panic-reachability").is_empty(), "pragma suppresses: {f:?}");
    assert!(fired(&f, "bad-pragma").is_empty(), "pragma is live, not stale: {f:?}");
}
