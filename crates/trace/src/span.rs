//! Wall-time span profiling, structurally segregated from the event stream.
//!
//! Trace *events* ([`crate::TraceEvent`]) are deterministic: they feed FNV
//! digests, the golden corpus, and the conformance fuzzer, so a single
//! wall-clock nanosecond in that stream would make every digest
//! machine-dependent. Spans are the opposite — pure timing — and therefore
//! flow through a **separate channel**: a [`SpanSink`] installed per thread,
//! never through [`crate::TraceSink`], never serialized into JSONL, never
//! digested. Enabling spans cannot change a trace digest by construction
//! (and `scripts/check.sh` gates on it anyway).
//!
//! # Vocabulary
//!
//! A [`Span`] is one timed region: a phase of the LCM cycle (`trial`,
//! `look`, `compute`, `move`) or one of the analysis kernels E9 identifies
//! as the scalability ceiling (`sec`, `views`, `rho`, `regular`,
//! `shifted`). Spans nest: the thread keeps an open-span stack, so every
//! recorded span carries its full ancestry ([`SpanStack`]) plus inclusive
//! (`total_ns`) and exclusive (`self_ns`) time — exactly what a
//! collapsed-stacks/flamegraph fold needs.
//!
//! # Cost model
//!
//! * **Disabled** (no sink installed): [`enter`] reads one `const`
//!   thread-local `Cell<bool>` and returns an unarmed guard. No clock read,
//!   no allocation, no `RefCell` borrow — one predictable branch. A test in
//!   `tests/span_alloc.rs` proves the zero-allocation claim with a counting
//!   allocator.
//! * **Enabled**: two monotonic clock reads per span plus whatever the
//!   installed [`SpanSink`] does with the record.
//!
//! This module is the **only sanctioned wall-clock site** inside the
//! simulation crates: apf-lint rule D3 (`no-wallclock-in-sim`) scopes over
//! `apf-trace` with exactly this file allowlisted, so `Instant::now`
//! anywhere else in sim/core/geometry/trace is a lint failure. Simulation
//! code that needs a timestamp calls [`clock_ns`].

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Maximum nesting depth a recorded span can carry. Deeper spans are not
/// recorded (the drop is counted via [`take`]'s sink — see
/// [`SpanSink::record_truncated`]); the pipeline's natural depth is
/// `trial > look > compute > kernel > kernel` ≈ 5–6.
pub const MAX_DEPTH: usize = 12;

/// What a span measures: an LCM-cycle phase or an analysis kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanLabel {
    /// One whole trial (engine-level).
    Trial,
    /// One robot's Look (snapshot + compute, sim-level).
    Look,
    /// The Compute inside a Look (the algorithm's decision).
    Compute,
    /// One robot's Move slice application.
    Move,
    /// Welzl smallest-enclosing-circle kernel.
    Sec,
    /// View ordering kernel (`ViewAnalysis::compute`-shaped).
    Views,
    /// Symmetricity ρ(P) kernel.
    Rho,
    /// Regular-set reg(P) kernel.
    Regular,
    /// ε-shifted regular-set matching kernel (the E9 dominator).
    Shifted,
}

impl SpanLabel {
    /// Number of labels (dense indices `0..COUNT`).
    pub const COUNT: usize = 9;

    /// Every label, in index order.
    pub const ALL: [SpanLabel; SpanLabel::COUNT] = [
        SpanLabel::Trial,
        SpanLabel::Look,
        SpanLabel::Compute,
        SpanLabel::Move,
        SpanLabel::Sec,
        SpanLabel::Views,
        SpanLabel::Rho,
        SpanLabel::Regular,
        SpanLabel::Shifted,
    ];

    /// Dense index (`0..COUNT`).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake-case name (used as the flamegraph frame name).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanLabel::Trial => "trial",
            SpanLabel::Look => "look",
            SpanLabel::Compute => "compute",
            SpanLabel::Move => "move",
            SpanLabel::Sec => "sec",
            SpanLabel::Views => "views",
            SpanLabel::Rho => "rho",
            SpanLabel::Regular => "regular",
            SpanLabel::Shifted => "shifted",
        }
    }

    /// Parses a [`SpanLabel::label`] name back.
    #[must_use]
    pub fn from_label(s: &str) -> Option<SpanLabel> {
        SpanLabel::ALL.into_iter().find(|l| l.label() == s)
    }

    /// Whether this label is an analysis kernel (vs an LCM-cycle phase).
    #[must_use]
    pub fn is_kernel(self) -> bool {
        matches!(
            self,
            SpanLabel::Sec
                | SpanLabel::Views
                | SpanLabel::Rho
                | SpanLabel::Regular
                | SpanLabel::Shifted
        )
    }
}

/// A span's ancestry, root-first, ending with the span's own label.
///
/// Unused slots are normalized to `SpanLabel::Trial` so the derived
/// ordering (frames lexicographically, then length) is total and
/// deterministic — fold maps key on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanStack {
    frames: [SpanLabel; MAX_DEPTH],
    len: u8,
}

impl SpanStack {
    /// An empty stack.
    #[must_use]
    pub fn new() -> SpanStack {
        SpanStack { frames: [SpanLabel::Trial; MAX_DEPTH], len: 0 }
    }

    /// Builds a stack from root-first frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` exceeds [`MAX_DEPTH`].
    #[must_use]
    pub fn of(frames: &[SpanLabel]) -> SpanStack {
        assert!(frames.len() <= MAX_DEPTH, "span stack deeper than MAX_DEPTH");
        let mut s = SpanStack::new();
        for &f in frames {
            s.push(f);
        }
        s
    }

    fn push(&mut self, label: SpanLabel) {
        self.frames[self.len as usize] = label;
        self.len += 1;
    }

    /// Frames, root-first; the last frame is the span's own label.
    #[must_use]
    pub fn frames(&self) -> &[SpanLabel] {
        &self.frames[..self.len as usize]
    }

    /// Number of frames.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.len as usize
    }

    /// The leaf frame (the span's own label), if any.
    #[must_use]
    pub fn leaf(&self) -> Option<SpanLabel> {
        self.frames().last().copied()
    }

    /// The collapsed-stacks frame path: `trial;look;compute;shifted`.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.frames().iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(f.label());
        }
        out
    }
}

impl Default for SpanStack {
    fn default() -> Self {
        SpanStack::new()
    }
}

/// One completed timed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed (equals `stack.leaf()`).
    pub label: SpanLabel,
    /// Full ancestry, root-first, including `label` as the last frame.
    pub stack: SpanStack,
    /// The robot the span is attributed to: its own, or the nearest
    /// enclosing span's (kernels inherit the robot of the Look that called
    /// them). `None` for engine-level spans.
    pub robot: Option<u32>,
    /// Trial index attribution (set per thread via [`set_trial`]).
    pub trial: Option<u64>,
    /// Start time, monotonic nanoseconds (see [`clock_ns`]).
    pub start_ns: u64,
    /// Inclusive wall time (children included).
    pub total_ns: u64,
    /// Exclusive wall time (`total_ns` minus direct children's totals).
    pub self_ns: u64,
}

/// Consumer of completed spans, installed per thread via [`install`] —
/// the timing analogue of [`crate::TraceSink`], kept as a separate trait
/// (and separate channel) so timing can never leak into digest paths.
pub trait SpanSink {
    /// A sink reporting `false` is dropped at [`install`] time: span
    /// recording stays fully disabled (one branch per [`enter`], zero
    /// allocations).
    fn enabled(&self) -> bool {
        true
    }

    /// One completed span. Called innermost-first (a span is recorded when
    /// it closes), on the thread that recorded it.
    fn record_span(&mut self, span: &Span);

    /// A span was dropped because the open stack exceeded [`MAX_DEPTH`].
    /// Default: ignore.
    fn record_truncated(&mut self) {}
}

/// Collects every span in completion order (tests, small captures).
#[derive(Debug, Clone, Default)]
pub struct VecSpanSink {
    /// Completed spans, innermost-first.
    pub spans: Vec<Span>,
    /// Spans dropped for exceeding [`MAX_DEPTH`].
    pub truncated: u64,
}

impl SpanSink for VecSpanSink {
    fn record_span(&mut self, span: &Span) {
        self.spans.push(*span);
    }

    fn record_truncated(&mut self) {
        self.truncated += 1;
    }
}

/// Shared-handle installation: install an `Arc<Mutex<S>>` clone and keep
/// the other end to read the collected data back after [`take`] — the same
/// pattern [`crate::TraceSink`] supports for install-then-read-back.
impl<S: SpanSink> SpanSink for Arc<Mutex<S>> {
    fn enabled(&self) -> bool {
        // apf-lint: allow(panic-policy) — lock poisoning means a recording thread panicked; propagate
        self.lock().expect("span sink lock poisoned").enabled()
    }

    fn record_span(&mut self, span: &Span) {
        // apf-lint: allow(panic-policy) — lock poisoning means a recording thread panicked; propagate
        self.lock().expect("span sink lock poisoned").record_span(span);
    }

    fn record_truncated(&mut self) {
        // apf-lint: allow(panic-policy) — lock poisoning means a recording thread panicked; propagate
        self.lock().expect("span sink lock poisoned").record_truncated();
    }
}

/// One open (not yet closed) span on the thread's stack.
#[derive(Clone, Copy)]
struct Open {
    label: SpanLabel,
    robot: Option<u32>,
    start_ns: u64,
    child_ns: u64,
}

/// Per-thread recording state. Fixed-size stack: pushing and popping spans
/// allocates nothing; only the installed sink may allocate.
struct SpanState {
    sink: Option<Box<dyn SpanSink>>,
    stack: [Open; MAX_DEPTH],
    depth: usize,
    trial: Option<u64>,
}

impl SpanState {
    const fn new() -> SpanState {
        const IDLE: Open = Open { label: SpanLabel::Trial, robot: None, start_ns: 0, child_ns: 0 };
        SpanState { sink: None, stack: [IDLE; MAX_DEPTH], depth: 0, trial: None }
    }
}

thread_local! {
    /// Fast-path flag, mirrored from `STATE.sink.is_some()`. `const`
    /// initialization keeps the disabled-path read allocation-free.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<SpanState> = const { RefCell::new(SpanState::new()) };
}

/// Monotonic nanoseconds since a process-local epoch.
///
/// This is the workspace's single sanctioned wall-clock read for
/// simulation-side timing (see the module docs and lint rule D3): sim code
/// wanting a timestamp calls this instead of `Instant::now`.
#[must_use]
pub fn clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    // u128 → u64 nanosecond narrowing: saturates after ~584 years of uptime.
    u64::try_from(Instant::now().duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// A lock-free log-2 latency histogram over nanoseconds: the span profile's
/// per-label quantiles and the service's Prometheus histograms both read
/// it.
///
/// Bucket `k` holds observations in `(2^(k−1), 2^k]` ns (bucket 0 holds 0
/// and 1 ns; the last ends at `u64::MAX`). Upper bounds are inclusive, so
/// [`Log2Histogram::cumulative`]`(k)` is exactly a Prometheus `le = 2^k ns`
/// count. Counts are relaxed atomics, so recording takes `&self`; the
/// total count is the buckets' sum, so it always agrees with them.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; Log2Histogram::BUCKETS],
    sum_ns: AtomicU64,
}

impl Log2Histogram {
    /// Number of buckets: enough for every `u64` nanosecond count.
    const BUCKETS: usize = 65;

    /// The bucket holding an observation of `ns` nanoseconds.
    fn bucket_of(ns: u64) -> usize {
        (u64::BITS - ns.saturating_sub(1).leading_zeros()) as usize
    }

    /// Bucket `k`'s inclusive upper bound, 2^k ns (`u64::MAX` for the last).
    #[must_use]
    pub fn upper_bound_ns(k: usize) -> u64 {
        u32::try_from(k).ok().and_then(|k| 1u64.checked_shl(k)).unwrap_or(u64::MAX)
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one duration (saturating at `u64::MAX` ns).
    pub fn observe(&self, took: Duration) {
        self.record(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every observation of `other` to this histogram.
    pub fn merge(&self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(other.sum_ns(), Ordering::Relaxed);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of every observation, in nanoseconds (wraps past `u64::MAX`).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Observations of at most 2^k ns: buckets `0..=k`.
    #[must_use]
    pub fn cumulative(&self, k: usize) -> u64 {
        self.buckets.iter().take(k.saturating_add(1)).map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile, within a factor of 2: the upper bound of the first
    /// non-empty bucket whose cumulative count reaches `q · count` (0 when
    /// empty).
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let want = q.clamp(0.0, 1.0) * self.count() as f64;
        let mut seen = 0u64;
        for (k, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen > 0 && seen as f64 >= want {
                return Self::upper_bound_ns(k);
            }
        }
        0
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Clone for Log2Histogram {
    fn clone(&self) -> Self {
        let copy = Log2Histogram::default();
        copy.merge(self);
        copy
    }
}

impl PartialEq for Log2Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.sum_ns() == other.sum_ns()
            && self
                .buckets
                .iter()
                .zip(&other.buckets)
                .all(|(a, b)| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed))
    }
}

/// Installs `sink` as this thread's span recorder and returns the previous
/// one, if any. A sink with [`SpanSink::enabled`]` == false` is dropped
/// immediately — recording stays disabled and [`enter`] stays free.
pub fn install(sink: Box<dyn SpanSink>) -> Option<Box<dyn SpanSink>> {
    let previous = take();
    if !sink.enabled() {
        return previous;
    }
    STATE.with(|s| s.borrow_mut().sink = Some(sink));
    ACTIVE.with(|a| a.set(true));
    previous
}

/// Uninstalls and returns this thread's span recorder (open spans stay on
/// the stack; they are simply not recorded while no sink is installed).
pub fn take() -> Option<Box<dyn SpanSink>> {
    ACTIVE.with(|a| a.set(false));
    STATE.with(|s| s.borrow_mut().sink.take())
}

/// Whether a span sink is installed on this thread.
#[must_use]
pub fn is_active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Sets the trial index stamped on subsequently recorded spans.
pub fn set_trial(trial: Option<u64>) {
    if !is_active() {
        return;
    }
    STATE.with(|s| s.borrow_mut().trial = trial);
}

/// Opens a span; the returned guard closes (and records) it on drop.
pub fn enter(label: SpanLabel) -> SpanGuard {
    enter_inner(label, None)
}

/// Opens a span attributed to `robot` (nested kernel spans inherit it).
pub fn enter_robot(label: SpanLabel, robot: u32) -> SpanGuard {
    enter_inner(label, Some(robot))
}

fn enter_inner(label: SpanLabel, robot: Option<u32>) -> SpanGuard {
    if !ACTIVE.with(Cell::get) {
        return SpanGuard { armed: false };
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.depth >= MAX_DEPTH {
            if let Some(sink) = s.sink.as_mut() {
                sink.record_truncated();
            }
            return SpanGuard { armed: false };
        }
        let depth = s.depth;
        s.stack[depth] = Open { label, robot, start_ns: clock_ns(), child_ns: 0 };
        s.depth += 1;
        SpanGuard { armed: true }
    })
}

/// Closes the innermost open span. Guards drop LIFO (Rust scoping), so the
/// popped span is always the guard's own.
fn exit_innermost() {
    let end_ns = clock_ns();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.depth == 0 {
            return; // take()/install() churn mid-span; nothing to record
        }
        s.depth -= 1;
        let open = s.stack[s.depth];
        let total_ns = end_ns.saturating_sub(open.start_ns);
        let self_ns = total_ns.saturating_sub(open.child_ns);
        if s.depth > 0 {
            let parent = s.depth - 1;
            s.stack[parent].child_ns = s.stack[parent].child_ns.saturating_add(total_ns);
        }
        let mut stack = SpanStack::new();
        for frame in &s.stack[..s.depth] {
            stack.push(frame.label);
        }
        stack.push(open.label);
        // A span without its own attribution inherits the innermost
        // enclosing robot (kernels inherit the Look that called them).
        let robot = open.robot.or_else(|| s.stack[..s.depth].iter().rev().find_map(|f| f.robot));
        let span = Span {
            label: open.label,
            stack,
            robot,
            trial: s.trial,
            start_ns: open.start_ns,
            total_ns,
            self_ns,
        };
        if let Some(sink) = s.sink.as_mut() {
            sink.record_span(&span);
        }
    });
}

/// Closes its span on drop. Unarmed guards (spans entered while disabled
/// or beyond [`MAX_DEPTH`]) do nothing.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            exit_innermost();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(f: impl FnOnce()) -> VecSpanSink {
        let handle: Arc<Mutex<VecSpanSink>> = Arc::default();
        assert!(install(Box::new(Arc::clone(&handle))).is_none());
        f();
        drop(take());
        let mut sink = handle.lock().unwrap();
        std::mem::take(&mut *sink)
    }

    #[test]
    fn disabled_enter_is_inert() {
        assert!(!is_active());
        let g = enter(SpanLabel::Sec);
        drop(g);
        // No sink installed: nothing observable happened, and nothing
        // panicked. (The zero-allocation claim is proven by the counting-
        // allocator test in tests/span_alloc.rs.)
        assert!(!is_active());
    }

    #[test]
    fn spans_nest_with_self_time_attribution() {
        let sink = collect(|| {
            set_trial(Some(7));
            let _t = enter(SpanLabel::Trial);
            {
                let _l = enter_robot(SpanLabel::Look, 3);
                let _k = enter(SpanLabel::Sec);
            }
        });
        assert_eq!(sink.spans.len(), 3, "{:?}", sink.spans);
        // Innermost-first completion order.
        let (sec, look, trial) = (&sink.spans[0], &sink.spans[1], &sink.spans[2]);
        assert_eq!(sec.label, SpanLabel::Sec);
        assert_eq!(sec.stack.folded(), "trial;look;sec");
        assert_eq!(sec.robot, Some(3), "kernel inherits the enclosing Look's robot");
        assert_eq!(sec.trial, Some(7));
        assert_eq!(look.label, SpanLabel::Look);
        assert_eq!(look.robot, Some(3));
        assert!(look.total_ns >= sec.total_ns);
        assert_eq!(look.self_ns, look.total_ns - sec.total_ns);
        assert_eq!(trial.stack.folded(), "trial");
        assert_eq!(trial.robot, None);
        assert!(trial.total_ns >= look.total_ns);
    }

    #[test]
    fn depth_overflow_truncates_instead_of_corrupting() {
        let sink = collect(|| {
            let guards: Vec<SpanGuard> =
                (0..MAX_DEPTH + 3).map(|_| enter(SpanLabel::Compute)).collect();
            drop(guards);
        });
        assert_eq!(sink.spans.len(), MAX_DEPTH);
        assert_eq!(sink.truncated, 3);
        assert_eq!(sink.spans.last().unwrap().stack.depth(), 1, "root closes last");
    }

    #[test]
    fn disabled_sink_is_dropped_at_install() {
        struct Disabled;
        impl SpanSink for Disabled {
            fn enabled(&self) -> bool {
                false
            }

            fn record_span(&mut self, _span: &Span) {}
        }
        assert!(install(Box::new(Disabled)).is_none());
        assert!(!is_active());
        assert!(take().is_none());
    }

    #[test]
    fn install_returns_previous_sink() {
        let first: Arc<Mutex<VecSpanSink>> = Arc::default();
        assert!(install(Box::new(Arc::clone(&first))).is_none());
        let second: Arc<Mutex<VecSpanSink>> = Arc::default();
        let prev = install(Box::new(Arc::clone(&second)));
        assert!(prev.is_some());
        drop(take());
        assert!(!is_active());
    }

    #[test]
    fn log2_buckets_include_their_upper_bound() {
        for k in 0..64 {
            let h = Log2Histogram::default();
            h.record(1 << k);
            assert_eq!(Log2Histogram::bucket_of(1 << k), k);
            assert_eq!(h.cumulative(k), 1, "2^{k} ns counts at le = 2^{k}");
            if k > 0 {
                assert_eq!(h.cumulative(k - 1), 0, "2^{k} ns is above le = 2^{}", k - 1);
            }
            assert_eq!(h.quantile_ns(0.5), Log2Histogram::upper_bound_ns(k));
            assert_eq!(Log2Histogram::bucket_of((1 << k) + 1), k + 1);
        }
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), Log2Histogram::BUCKETS - 1);
        assert_eq!(Log2Histogram::upper_bound_ns(Log2Histogram::BUCKETS - 1), u64::MAX);
        assert_eq!(Log2Histogram::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn log2_merge_and_clone_equal_the_union() {
        let (left, right) = ([0, 1, 7, 64, 65, 1 << 40], [2, 3, 64, u64::MAX]);
        let (a, b, union) =
            (Log2Histogram::default(), Log2Histogram::default(), Log2Histogram::default());
        for ns in left {
            a.record(ns);
            union.record(ns);
        }
        for ns in right {
            b.observe(Duration::from_nanos(ns));
            union.record(ns);
        }
        a.merge(&b);
        assert_eq!(a, union);
        assert_eq!(a.clone(), union);
        assert_eq!(a.count(), 10);
        assert_eq!(a.cumulative(Log2Histogram::BUCKETS - 1), a.count());
        assert_eq!(a.sum_ns(), union.sum_ns());
        assert_ne!(a, b);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = clock_ns();
        let b = clock_ns();
        assert!(b >= a);
    }

    #[test]
    fn labels_round_trip_and_index_densely() {
        for (i, l) in SpanLabel::ALL.into_iter().enumerate() {
            assert_eq!(l.index(), i);
            assert_eq!(SpanLabel::from_label(l.label()), Some(l));
        }
        assert_eq!(SpanLabel::from_label("nope"), None);
        assert!(SpanLabel::Shifted.is_kernel());
        assert!(!SpanLabel::Look.is_kernel());
    }

    #[test]
    fn stack_fold_and_ordering() {
        let a = SpanStack::of(&[SpanLabel::Trial, SpanLabel::Look]);
        let b = SpanStack::of(&[SpanLabel::Trial, SpanLabel::Look, SpanLabel::Sec]);
        assert_eq!(a.folded(), "trial;look");
        assert_eq!(b.folded(), "trial;look;sec");
        assert_eq!(b.leaf(), Some(SpanLabel::Sec));
        assert!(a < b, "prefix orders before its extension");
    }
}
