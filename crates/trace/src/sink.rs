//! Trace consumers: the [`TraceSink`] trait and the provided sinks.

use crate::event::TraceEvent;
use crate::jsonl::write_json_line;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A consumer of the simulation's trace event stream.
///
/// The engine holds the installed sink as `Option<Box<dyn TraceSink>>` and
/// drops sinks whose [`TraceSink::enabled`] is false at installation time,
/// so the *disabled* path is one `Option::is_some` branch per event site —
/// no event is even constructed. Implementations must be cheap: `record` is
/// called from the simulation hot loop.
pub trait TraceSink: Send {
    /// Whether this sink wants events at all. A `false` here lets callers
    /// keep one code path while paying nothing for tracing (the engine
    /// discards the sink on installation).
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output (writers). Called by the engine when the
    /// run finishes; a no-op for in-memory sinks.
    fn flush_sink(&mut self) {}

    /// The engine is about to panic on an internal invariant violation:
    /// persist whatever post-mortem evidence this sink holds. A no-op for
    /// ordinary sinks; [`CrashDumpSink`] writes its retained window to disk.
    fn crash_dump(&mut self) {}
}

/// A sink that consumes nothing and reports itself disabled. Installing it
/// is exactly equivalent to installing no sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// Collects every event in memory. For tests and short runs — an unbounded
/// trace of a budget-exhausted trial can reach millions of events; prefer
/// [`RingSink`] or [`JsonlSink`] there.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// Keeps the *last* `cap` events — a bounded flight recorder: memory stays
/// fixed on arbitrarily long runs, and on failure the window ending at the
/// failure is exactly what a post-mortem wants.
#[derive(Debug, Clone)]
pub struct RingSink {
    cap: usize,
    dropped: u64,
    events: VecDeque<TraceEvent>,
}

impl RingSink {
    /// A ring keeping at most `cap` events. `cap == 0` is legal and retains
    /// nothing (every event counts as dropped) — useful to disable a crash
    /// window without special-casing the caller.
    pub fn new(cap: usize) -> Self {
        RingSink { cap, dropped: 0, events: VecDeque::with_capacity(cap) }
    }

    /// The configured window capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The retained window, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events evicted from the front of the window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(*event);
    }
}

/// Counts events without storing them (tests, throughput probes).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    count: u64,
}

impl CountingSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events seen.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _event: &TraceEvent) {
        self.count += 1;
    }
}

/// A shared read handle onto a [`HashSink`]'s digest.
#[derive(Debug, Clone)]
pub struct HashProbe(Arc<AtomicU64>);

impl HashProbe {
    /// The digest accumulated so far.
    pub fn digest(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string: the fold [`HashSink`] applies to the
/// serialized event stream, so hashing a golden file's bytes reproduces the
/// digest of the run that wrote it.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Continues the FNV-1a 64 digest `h` over `bytes`.
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Order-sensitive FNV-1a digest over the serialized (JSONL) event stream.
///
/// Two runs have equal digests iff their serialized traces are byte-equal —
/// the cheap way to assert that an *event stream*, not just the final
/// result, is bit-identical (e.g. across `--jobs` values). The digest is
/// published through an atomic so the probe can outlive the sink, which the
/// engine consumes by value.
#[derive(Debug)]
pub struct HashSink {
    state: u64,
    line: String,
    shared: Arc<AtomicU64>,
}

impl Default for HashSink {
    fn default() -> Self {
        Self::new()
    }
}

impl HashSink {
    /// A fresh digest.
    pub fn new() -> Self {
        HashSink {
            state: FNV_OFFSET,
            line: String::new(),
            shared: Arc::new(AtomicU64::new(FNV_OFFSET)),
        }
    }

    /// A handle that reads the digest while (and after) the sink is owned
    /// elsewhere.
    pub fn probe(&self) -> HashProbe {
        HashProbe(Arc::clone(&self.shared))
    }

    /// The digest accumulated so far.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

impl TraceSink for HashSink {
    fn record(&mut self, event: &TraceEvent) {
        write_json_line(event, &mut self.line);
        // The newline separates events, matching the on-disk format.
        let h = fnv1a_fold(fnv1a_fold(self.state, self.line.as_bytes()), b"\n");
        self.state = h;
        self.shared.store(h, Ordering::Release);
    }
}

/// Forwarding through a shared handle lets a caller install a sink into an
/// engine (which takes ownership) and still read it afterwards:
/// `Box::new(Arc::clone(&shared))` goes in, the original `Arc` stays out.
impl<T: TraceSink> TraceSink for Arc<std::sync::Mutex<T>> {
    fn enabled(&self) -> bool {
        self.lock().map(|s| s.enabled()).unwrap_or(false)
    }

    fn record(&mut self, event: &TraceEvent) {
        if let Ok(mut s) = self.lock() {
            s.record(event);
        }
    }

    fn flush_sink(&mut self) {
        if let Ok(mut s) = self.lock() {
            s.flush_sink();
        }
    }

    fn crash_dump(&mut self) {
        if let Ok(mut s) = self.lock() {
            s.crash_dump();
        }
    }
}

/// Fans every event out to two sinks — e.g. a live in-memory [`VecSink`] for
/// an invariant checker plus a [`CrashDumpSink`] flight recorder. Compose
/// tees for more than two consumers.
pub struct TeeSink {
    a: Box<dyn TraceSink>,
    b: Box<dyn TraceSink>,
}

impl TeeSink {
    /// A sink forwarding to both `a` and `b` (in that order).
    pub fn new(a: Box<dyn TraceSink>, b: Box<dyn TraceSink>) -> Self {
        TeeSink { a, b }
    }
}

impl TraceSink for TeeSink {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        self.a.record(event);
        self.b.record(event);
    }

    fn flush_sink(&mut self) {
        self.a.flush_sink();
        self.b.flush_sink();
    }

    fn crash_dump(&mut self) {
        self.a.crash_dump();
        self.b.crash_dump();
    }
}

/// A bounded flight recorder that writes its window to disk when the run
/// dies: a [`RingSink`] plus a dump path.
///
/// The window is persisted as plain JSONL (replayable by the inspector as a
/// windowed trace) through three triggers:
///
/// * the engine's [`TraceSink::crash_dump`] hook — fired by `World` just
///   before it panics on an internal invariant violation;
/// * `Drop` **during a panic unwind** — covers panics the engine did not
///   anticipate (algorithm bugs, scheduler bugs), because the unwinding
///   stack drops the `World` and with it this sink;
/// * an explicit [`CrashDumpSink::dump_now`] — for harnesses (e.g. the
///   conformance fuzzer) that detect a violation outside the engine.
///
/// Each trigger writes at most once; I/O errors are swallowed on the panic
/// paths (a crash dump must never turn one failure into two) and surfaced by
/// `dump_now`.
pub struct CrashDumpSink {
    ring: RingSink,
    path: PathBuf,
    dumped: bool,
}

impl CrashDumpSink {
    /// A crash dump sink retaining the last `cap` events, writing them to
    /// `path` when triggered.
    pub fn new(path: impl Into<PathBuf>, cap: usize) -> Self {
        CrashDumpSink { ring: RingSink::new(cap), path: path.into(), dumped: false }
    }

    /// The dump destination.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a dump was already written.
    pub fn has_dumped(&self) -> bool {
        self.dumped
    }

    /// Events currently retained in the window.
    pub fn window_len(&self) -> usize {
        self.ring.len()
    }

    /// Events evicted from the window so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Writes the retained window to the dump path now (idempotent: later
    /// triggers are no-ops once a dump exists).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating or writing the dump file.
    pub fn dump_now(&mut self) -> std::io::Result<&Path> {
        if !self.dumped {
            let mut text = String::with_capacity(self.ring.len() * 96);
            let mut line = String::with_capacity(96);
            for event in self.ring.events() {
                write_json_line(event, &mut line);
                text.push_str(&line);
                text.push('\n');
            }
            std::fs::write(&self.path, text)?;
            self.dumped = true;
        }
        Ok(&self.path)
    }
}

impl TraceSink for CrashDumpSink {
    fn record(&mut self, event: &TraceEvent) {
        self.ring.record(event);
    }

    fn crash_dump(&mut self) {
        let _ = self.dump_now();
    }
}

impl Drop for CrashDumpSink {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.dump_now();
        }
    }
}

/// Streams events as JSON lines into any [`Write`], one event per line,
/// reusing a single line buffer (no per-event allocation).
///
/// An optional event limit bounds trace size on runaway trials: once
/// reached, the sink writes one `trial_end`-shaped marker comment and drops
/// further events. I/O errors are sticky and exposed via
/// [`JsonlSink::io_error`]; `record` itself stays infallible because it is
/// called from the simulation hot loop.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: W,
    line: String,
    written: u64,
    limit: u64,
    truncated: bool,
    io_error: Option<std::io::ErrorKind>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink with no event limit.
    pub fn new(writer: W) -> Self {
        Self::with_limit(writer, u64::MAX)
    }

    /// A sink that stops writing after `limit` events.
    pub fn with_limit(writer: W, limit: u64) -> Self {
        JsonlSink {
            writer,
            line: String::with_capacity(128),
            written: 0,
            limit,
            truncated: false,
            io_error: None,
        }
    }

    /// Events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Whether the event limit was hit.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The first I/O error encountered, if any.
    pub fn io_error(&self) -> Option<std::io::ErrorKind> {
        self.io_error
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.io_error.is_some() || self.truncated {
            return;
        }
        if self.written >= self.limit {
            self.truncated = true;
            // A parseable marker: inspectors see the stream was cut here.
            let _ = self.writer.write_all(
                format!("{{\"ev\":\"step\",\"step\":{},\"looks\":0,\"moves\":0}}\n", event.step())
                    .as_bytes(),
            );
            return;
        }
        write_json_line(event, &mut self.line);
        self.line.push('\n');
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            self.io_error = Some(e.kind());
        }
        self.written += 1;
    }

    fn flush_sink(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.io_error.get_or_insert(e.kind());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PhaseKind;
    use crate::jsonl::parse_line;

    fn ev(step: u64) -> TraceEvent {
        TraceEvent::Look { step, robot: (step % 5) as u32 }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(VecSink::new().enabled());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut s = VecSink::new();
        for i in 0..4 {
            s.record(&ev(i));
        }
        let steps: Vec<u64> = s.events().iter().map(TraceEvent::step).collect();
        assert_eq!(steps, [0, 1, 2, 3]);
        assert_eq!(s.into_events().len(), 4);
    }

    #[test]
    fn ring_sink_keeps_the_tail() {
        let mut s = RingSink::new(3);
        for i in 0..10 {
            s.record(&ev(i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 7);
        let steps: Vec<u64> = s.events().map(TraceEvent::step).collect();
        assert_eq!(steps, [7, 8, 9]);
    }

    #[test]
    fn ring_sink_window_is_exact_across_many_wrap_cycles() {
        // The retained window must be exactly the last `cap` events no
        // matter how many times the ring wrapped.
        for cap in [1usize, 2, 3, 7] {
            let mut s = RingSink::new(cap);
            let total: u64 = (cap as u64) * 5 + 3; // several full wrap cycles
            for i in 0..total {
                s.record(&ev(i));
                // Invariant after every record: window = last min(i+1, cap).
                let expect_len = ((i + 1) as usize).min(cap);
                assert_eq!(s.len(), expect_len, "cap {cap} after {i}");
            }
            assert_eq!(s.capacity(), cap);
            assert_eq!(s.dropped(), total - cap as u64);
            let got: Vec<u64> = s.events().map(TraceEvent::step).collect();
            let want: Vec<u64> = (total - cap as u64..total).collect();
            assert_eq!(got, want, "cap {cap}");
        }
    }

    #[test]
    fn ring_sink_cap_zero_retains_nothing() {
        let mut s = RingSink::new(0);
        for i in 0..10 {
            s.record(&ev(i));
        }
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 10, "every event counts as dropped");
        assert_eq!(s.events().count(), 0);
    }

    #[test]
    fn ring_sink_cap_one_keeps_only_the_newest() {
        let mut s = RingSink::new(1);
        assert!(s.is_empty());
        for i in 0..4 {
            s.record(&ev(i));
            let got: Vec<u64> = s.events().map(TraceEvent::step).collect();
            assert_eq!(got, [i]);
        }
        assert_eq!(s.dropped(), 3);
    }

    #[test]
    fn tee_sink_fans_out_to_both() {
        use std::sync::Mutex;
        let left = Arc::new(Mutex::new(VecSink::new()));
        let right = Arc::new(Mutex::new(CountingSink::new()));
        let mut tee = TeeSink::new(Box::new(Arc::clone(&left)), Box::new(Arc::clone(&right)));
        assert!(tee.enabled());
        for i in 0..3 {
            tee.record(&ev(i));
        }
        tee.flush_sink();
        assert_eq!(left.lock().unwrap().events().len(), 3);
        assert_eq!(right.lock().unwrap().count(), 3);
    }

    #[test]
    fn crash_dump_sink_writes_window_on_demand() {
        let dir = std::env::temp_dir().join("apf-crash-dump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("on-demand.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut s = CrashDumpSink::new(&path, 4);
        for i in 0..10 {
            s.record(&ev(i));
        }
        assert!(!s.has_dumped());
        assert_eq!(s.window_len(), 4);
        assert_eq!(s.dropped(), 6);
        s.dump_now().unwrap();
        assert!(s.has_dumped());
        let text = std::fs::read_to_string(&path).unwrap();
        let steps: Vec<u64> = text.lines().map(|l| parse_line(l).unwrap().step()).collect();
        assert_eq!(steps, [6, 7, 8, 9], "exactly the last-N window");
        // Idempotent: a second trigger does not rewrite.
        s.record(&ev(99));
        s.crash_dump();
        let text2 = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, text2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_dump_sink_flushes_on_panic_unwind() {
        let dir = std::env::temp_dir().join("apf-crash-dump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unwind.jsonl");
        let _ = std::fs::remove_file(&path);
        let path_clone = path.clone();
        let result = std::panic::catch_unwind(move || {
            let mut s = CrashDumpSink::new(&path_clone, 8);
            s.record(&ev(1));
            s.record(&ev(2));
            panic!("simulated engine failure");
        });
        assert!(result.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "window flushed by Drop during unwind");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::new();
        for i in 0..5 {
            s.record(&ev(i));
        }
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_sink_is_order_sensitive_and_probe_matches() {
        let mut a = HashSink::new();
        let mut b = HashSink::new();
        let pa = a.probe();
        a.record(&ev(1));
        a.record(&ev(2));
        b.record(&ev(2));
        b.record(&ev(1));
        assert_ne!(a.digest(), b.digest(), "order must matter");
        assert_eq!(pa.digest(), a.digest());

        let mut c = HashSink::new();
        c.record(&ev(1));
        c.record(&ev(2));
        assert_eq!(c.digest(), a.digest(), "same stream, same digest");
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(&TraceEvent::TrialStart { robots: 8, seed: 3 });
        s.record(&TraceEvent::Decide {
            step: 1,
            robot: 2,
            phase: PhaseKind::DpfRotate,
            moved: false,
            path_len: 0.0,
        });
        s.flush_sink();
        assert_eq!(s.written(), 2);
        assert!(s.io_error().is_none());
        let bytes = s.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            parse_line(line).unwrap();
        }
    }

    #[test]
    fn shared_sinks_forward_through_the_handle() {
        use std::sync::Mutex;
        let shared = Arc::new(Mutex::new(VecSink::new()));
        let mut boxed: Box<dyn TraceSink> = Box::new(Arc::clone(&shared));
        assert!(boxed.enabled());
        boxed.record(&ev(1));
        boxed.record(&ev(2));
        drop(boxed);
        assert_eq!(shared.lock().unwrap().events().len(), 2);
    }

    #[test]
    fn jsonl_sink_truncates_at_limit() {
        let mut s = JsonlSink::with_limit(Vec::new(), 3);
        for i in 0..10 {
            s.record(&ev(i));
        }
        assert_eq!(s.written(), 3);
        assert!(s.truncated());
        let text = String::from_utf8(s.into_inner()).unwrap();
        // 3 events + 1 truncation marker, all parseable.
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            parse_line(line).unwrap();
        }
    }
}
