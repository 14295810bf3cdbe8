//! Structured event tracing for the APF simulator.
//!
//! The paper's claims are about *execution dynamics* — one random bit per
//! LCM cycle, `ψ_RSB` → `ψ_DPF` phase transitions, adversarial move
//! interruptions under ASYNC — and an end-of-run counter struct cannot show
//! any of them. This crate provides the observability layer the rest of the
//! workspace plugs into:
//!
//! * [`TraceEvent`] — a typed, allocation-free event vocabulary covering the
//!   whole LCM cycle (Look, Compute decision, Move slices), the randomness
//!   interface (coin flips, word draws), algorithm phases
//!   ([`PhaseKind`] transitions), and adversary interruptions;
//! * [`TraceSink`] — the consumer trait the simulation engine threads
//!   through `World::step`. A sink reporting [`TraceSink::enabled`]` ==
//!   false` is dropped at installation time, so a disabled trace costs one
//!   `Option` branch per event site and constructs no events at all;
//! * sinks: [`VecSink`] (collect everything), [`JsonlSink`] (streaming
//!   JSON-lines writer, one event per line, hand-rolled — no serde in this
//!   offline workspace), [`HashSink`] (order-sensitive FNV-1a digest of the
//!   serialized stream, for bit-identical determinism checks),
//!   [`CrashDumpSink`] (a flight recorder that keeps a bounded last-N
//!   window and persists it to disk on engine invariant violations and
//!   panic unwinds) and [`NullSink`] (tests);
//! * [`jsonl`] — the serialization format and its parser, so captured
//!   traces round-trip;
//! * [`json`] — the workspace's one JSON codec ([`json::Json`], its parser
//!   and its sorted-key renderer), which the trace parser, the bench
//!   reports, the canonical campaign spec, the service and the CLI share;
//! * [`inspect`] — [`inspect::TraceSummary`]: replays an event stream,
//!   validates it (Look/Move legality, monotonic steps, the paper's
//!   ≤ 1-bit-per-election-cycle claim), and renders per-robot timelines and
//!   per-phase statistics;
//! * [`span`] — wall-time span profiling ([`Span`]/[`SpanSink`]): a
//!   *separate* channel from the event stream, so timing data can never
//!   perturb trace digests. Zero-allocation and branch-cheap when no sink
//!   is installed. Its [`Log2Histogram`] is the one latency histogram: the
//!   span profile's quantiles and the service's `/metrics` both read it.
//!
//! This crate is a dependency *leaf*: `apf-sim` emits into it, `apf-core`
//! tags decisions with its [`PhaseKind`], `apf-bench`/the CLI consume
//! traces through it, and every JSON reader and writer above it (apf-lint
//! aside, which is std-only) goes through its [`json`] codec.

#![forbid(unsafe_code)]

pub mod event;
pub mod inspect;
pub mod json;
pub mod jsonl;
pub mod sink;
pub mod span;

pub use event::{PhaseKind, TraceEvent};
pub use inspect::{describe, PhaseTally, RobotTally, TraceSummary};
pub use jsonl::{parse_line, to_json_line, ParseError};
pub use sink::{
    fnv1a_64, CrashDumpSink, HashProbe, HashSink, JsonlSink, NullSink, TraceSink, VecSink,
};
pub use span::{Log2Histogram, Span, SpanGuard, SpanLabel, SpanSink, SpanStack, VecSpanSink};
