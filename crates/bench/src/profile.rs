//! Span aggregation: per-kernel latency histograms and collapsed-stacks
//! (flamegraph) folding.
//!
//! [`SpanProfile`] is the engine-side consumer of
//! [`apf_trace::span::SpanSink`]: each worker thread installs one, records
//! every span the trial emits, and the engine merges the per-worker
//! profiles (commutatively — per-label stats are order-free and the fold
//! map is keyed) into the campaign report. Nothing here touches digests:
//! spans arrive on a channel that is structurally separate from
//! [`apf_trace::TraceSink`], so a profiled campaign's digests and
//! aggregates are byte-identical to an unprofiled run (gated in
//! `scripts/check.sh`).
//!
//! Two views of the same data:
//!
//! * **Per-label stats** ([`LabelStats`]): count, Welford mean/variance of
//!   span inclusive time, exclusive/inclusive totals, min/max, and a
//!   [`Log2Histogram`] of inclusive times (bucket `k` holds
//!   `(2^(k−1), 2^k]` ns — the same type and buckets the service's
//!   `/metrics` renders) from which approximate p50/p95 are read.
//! * **Folded stacks**: `stack;path;leaf  self_ns`, one line per distinct
//!   ancestry, in collapsed-stacks format — pipe into inferno or
//!   `flamegraph.pl` to render. Weights are *exclusive* nanoseconds so
//!   frame widths add up correctly in the flame.

use crate::engine::Welford;
use apf_trace::json::Json;
use apf_trace::span::{Log2Histogram, Span, SpanLabel, SpanSink, SpanStack};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Streaming statistics for one [`SpanLabel`].
#[derive(Debug, Clone)]
pub struct LabelStats {
    /// Welford accumulator over inclusive span time (nanoseconds).
    pub welford: Welford,
    /// Total exclusive nanoseconds.
    pub self_ns: u64,
    /// Fastest span (inclusive), `u64::MAX` when empty.
    pub min_ns: u64,
    /// Slowest span (inclusive).
    pub max_ns: u64,
    /// Log-2 histogram of inclusive span times (its sum is their total).
    pub histogram: Log2Histogram,
}

impl Default for LabelStats {
    fn default() -> Self {
        LabelStats {
            welford: Welford::default(),
            self_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            histogram: Log2Histogram::default(),
        }
    }
}

impl LabelStats {
    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    fn record(&mut self, span: &Span) {
        self.welford.push(span.total_ns as f64);
        self.self_ns = self.self_ns.saturating_add(span.self_ns);
        self.min_ns = self.min_ns.min(span.total_ns);
        self.max_ns = self.max_ns.max(span.total_ns);
        self.histogram.record(span.total_ns);
    }

    fn merge(&mut self, other: &LabelStats) {
        self.welford.merge(&other.welford);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.histogram.merge(&other.histogram);
    }
}

/// Aggregated span data: per-label histograms plus folded stacks.
///
/// Implements [`SpanSink`] so it can be installed directly (via
/// `Arc<Mutex<SpanProfile>>` for read-back). Merging is commutative, so
/// worker profiles can be combined in any order without affecting the
/// reported statistics beyond float ulps in the Welford means (the engine
/// merges in worker index order for exact reproducibility).
#[derive(Debug, Clone, Default)]
pub struct SpanProfile {
    labels: Vec<LabelStats>,
    folded: BTreeMap<SpanStack, FoldCell>,
    truncated: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct FoldCell {
    count: u64,
    self_ns: u64,
}

impl SpanProfile {
    /// An empty profile.
    pub fn new() -> SpanProfile {
        SpanProfile {
            labels: vec![LabelStats::default(); SpanLabel::COUNT],
            folded: BTreeMap::new(),
            truncated: 0,
        }
    }

    fn ensure_labels(&mut self) {
        if self.labels.is_empty() {
            self.labels = vec![LabelStats::default(); SpanLabel::COUNT];
        }
    }

    /// Statistics for one label.
    pub fn label(&self, label: SpanLabel) -> Option<&LabelStats> {
        self.labels.get(label.index())
    }

    /// Total spans recorded across all labels.
    pub fn span_count(&self) -> u64 {
        self.labels.iter().map(LabelStats::count).sum()
    }

    /// Spans dropped for exceeding the recorder's depth limit.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Folds `other` into `self` (commutative up to Welford float ulps).
    pub fn merge(&mut self, other: &SpanProfile) {
        self.ensure_labels();
        for (mine, theirs) in self.labels.iter_mut().zip(other.labels.iter()) {
            mine.merge(theirs);
        }
        for (stack, cell) in &other.folded {
            let mine = self.folded.entry(*stack).or_default();
            mine.count += cell.count;
            mine.self_ns = mine.self_ns.saturating_add(cell.self_ns);
        }
        self.truncated += other.truncated;
    }

    /// The leaf label of the fold entry with the most exclusive time — the
    /// flamegraph's widest frame, i.e. where the wall clock actually went.
    pub fn hottest_leaf(&self) -> Option<SpanLabel> {
        self.folded.iter().max_by_key(|(_, cell)| cell.self_ns).and_then(|(stack, _)| stack.leaf())
    }

    /// Writes collapsed-stacks lines (`a;b;c <self_ns>`), one per distinct
    /// ancestry, in deterministic (stack-ordered) order. The output is
    /// directly consumable by inferno / `flamegraph.pl`.
    pub fn write_folded<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (stack, cell) in &self.folded {
            if stack.depth() == 0 {
                continue;
            }
            writeln!(w, "{} {}", stack.folded(), cell.self_ns)?;
        }
        Ok(())
    }

    /// Per-label table rows for labels that recorded at least one span,
    /// hottest (by exclusive time) first.
    pub fn rows(&self) -> Vec<ProfileRow> {
        let mut rows: Vec<ProfileRow> = SpanLabel::ALL
            .into_iter()
            .filter_map(|label| {
                let stats = self.label(label)?;
                if stats.count() == 0 {
                    return None;
                }
                Some(ProfileRow {
                    label,
                    count: stats.count(),
                    mean_ns: stats.welford.mean(),
                    p50_ns: stats.histogram.quantile_ns(0.50),
                    p95_ns: stats.histogram.quantile_ns(0.95),
                    max_ns: stats.max_ns,
                    total_ns: stats.histogram.sum_ns(),
                    self_ns: stats.self_ns,
                })
            })
            .collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.label.cmp(&b.label)));
        rows
    }

    /// Per-label stats plus the fold table, as a JSON object.
    pub fn to_json(&self) -> Json {
        let folded = self.folded.iter().map(|(stack, cell)| {
            Json::obj([
                ("stack", Json::str(stack.folded())),
                ("count", Json::u64(cell.count)),
                ("self_ns", Json::u64(cell.self_ns)),
            ])
        });
        Json::obj([
            ("spans", Json::u64(self.span_count())),
            ("truncated", Json::u64(self.truncated)),
            ("labels", Json::Arr(self.rows().iter().map(ProfileRow::to_json).collect())),
            ("folded", Json::Arr(folded.collect())),
        ])
    }
}

impl SpanSink for SpanProfile {
    fn record_span(&mut self, span: &Span) {
        self.ensure_labels();
        if let Some(stats) = self.labels.get_mut(span.label.index()) {
            stats.record(span);
        }
        let cell = self.folded.entry(span.stack).or_default();
        cell.count += 1;
        cell.self_ns = cell.self_ns.saturating_add(span.self_ns);
    }

    fn record_truncated(&mut self) {
        self.truncated += 1;
    }
}

/// One rendered profile table row.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// What was timed.
    pub label: SpanLabel,
    /// Spans recorded.
    pub count: u64,
    /// Mean inclusive time (Welford), nanoseconds.
    pub mean_ns: f64,
    /// Approximate median inclusive time (its log-2 bucket's upper bound).
    pub p50_ns: u64,
    /// Approximate 95th percentile inclusive time.
    pub p95_ns: u64,
    /// Slowest span, nanoseconds.
    pub max_ns: u64,
    /// Total inclusive nanoseconds.
    pub total_ns: u64,
    /// Total exclusive nanoseconds.
    pub self_ns: u64,
}

impl ProfileRow {
    /// The row as a JSON object (the `--json` outputs of `harness` and
    /// `apf-cli profile` share it).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.label())),
            ("count", Json::u64(self.count)),
            ("mean_ns", Json::f64(self.mean_ns)),
            ("p50_ns", Json::u64(self.p50_ns)),
            ("p95_ns", Json::u64(self.p95_ns)),
            ("max_ns", Json::u64(self.max_ns)),
            ("total_ns", Json::u64(self.total_ns)),
            ("self_ns", Json::u64(self.self_ns)),
        ])
    }
}

/// Formats nanoseconds human-first: `412ns`, `3.1µs`, `99.9ms`, `2.50s`.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_trace::json;

    fn span(stack: &[SpanLabel], total_ns: u64, self_ns: u64) -> Span {
        let stack = SpanStack::of(stack);
        Span {
            label: stack.leaf().expect("non-empty stack"),
            stack,
            robot: None,
            trial: None,
            start_ns: 0,
            total_ns,
            self_ns,
        }
    }

    #[test]
    fn records_fold_and_stats() {
        let mut p = SpanProfile::new();
        p.record_span(&span(&[SpanLabel::Trial, SpanLabel::Look, SpanLabel::Sec], 100, 100));
        p.record_span(&span(&[SpanLabel::Trial, SpanLabel::Look, SpanLabel::Sec], 300, 300));
        p.record_span(&span(&[SpanLabel::Trial, SpanLabel::Look], 1000, 600));
        let sec = p.label(SpanLabel::Sec).unwrap();
        assert_eq!(sec.count(), 2);
        assert_eq!(sec.histogram.sum_ns(), 400);
        assert_eq!(sec.min_ns, 100);
        assert_eq!(sec.max_ns, 300);
        let mut out = Vec::new();
        p.write_folded(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "trial;look 600\ntrial;look;sec 400\n");
        assert_eq!(p.hottest_leaf(), Some(SpanLabel::Look));
        assert_eq!(p.span_count(), 3);
    }

    #[test]
    fn merge_is_commutative_on_integers() {
        let mut a = SpanProfile::new();
        a.record_span(&span(&[SpanLabel::Trial, SpanLabel::Shifted], 50, 50));
        let mut b = SpanProfile::new();
        b.record_span(&span(&[SpanLabel::Trial, SpanLabel::Shifted], 70, 70));
        b.record_span(&span(&[SpanLabel::Trial], 200, 80));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.span_count(), ba.span_count());
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        ab.write_folded(&mut fa).unwrap();
        ba.write_folded(&mut fb).unwrap();
        assert_eq!(fa, fb, "fold tables are order-independent");
        assert_eq!(ab.hottest_leaf(), Some(SpanLabel::Shifted));
    }

    #[test]
    fn quantiles_come_from_buckets() {
        let mut s = LabelStats::default();
        for _ in 0..99 {
            s.record(&span(&[SpanLabel::Rho], 100, 100)); // bucket 7: (64,128]
        }
        s.record(&span(&[SpanLabel::Rho], 1_000_000, 1_000_000));
        assert_eq!(s.histogram.quantile_ns(0.50), 128);
        assert!(s.histogram.quantile_ns(0.999) >= 1 << 19);
        let mut merged = LabelStats::default();
        merged.merge(&s);
        assert_eq!(merged.histogram, s.histogram);
        assert_eq!(merged.count(), 100);
        let empty = LabelStats::default();
        assert_eq!(empty.histogram.quantile_ns(0.5), 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut p = SpanProfile::new();
        p.record_span(&span(&[SpanLabel::Trial, SpanLabel::Views], 42, 42));
        p.record_truncated();
        let j = json::parse(&p.to_json().render()).expect("profile JSON parses");
        let want = json::parse(
            r#"{"spans":1,"truncated":1,
                "labels":[{"label":"views","count":1,"mean_ns":42,"p50_ns":64,"p95_ns":64,
                           "max_ns":42,"total_ns":42,"self_ns":42}],
                "folded":[{"stack":"trial;views","count":1,"self_ns":42}]}"#,
        );
        assert_eq!(j, want.unwrap());
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(412.0), "412ns");
        assert_eq!(fmt_ns(3_100.0), "3.1µs");
        assert_eq!(fmt_ns(99_900_000.0), "99.9ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.50s");
    }
}
