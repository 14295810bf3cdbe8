//! The benchmark's own boundary spans.
//!
//! Spans are recorded around the benchmark's calls into the program's
//! public API (an engine run, one HTTP request, a JSON parse), never inside
//! the program. Each thread keeps its own [`SpanLog`] in memory; the logs
//! are merged and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` indexes the same log.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub job: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span recorder. A disabled log records nothing and hands out
/// `None` ids, so untraced runs pay one branch per boundary.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanLog {
    pub fn new(on: bool, epoch: Instant) -> SpanLog {
        SpanLog { on, epoch, spans: Vec::new() }
    }

    /// The instant span times count from; logs meant to be merged share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span { name, parent, job, start_ns: now, end_ns: now });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`SpanLog::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Sets the job id of an open span (a served job learns its id from the
    /// submit response).
    pub fn set_job(&mut self, id: Option<usize>, job: u64) {
        if let Some(i) = id {
            self.spans[i].job = Some(job);
        }
    }

    /// Moves every span of `other` (recorded against the same epoch) into
    /// this log.
    pub fn append(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Count, inclusive and self time per span name. A span's self time is
    /// its duration minus the part of it that its children cover (children
    /// may overlap, so their union is subtracted, not their sum).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// Writes one JSON object per span: id, name, start, end, parent, job.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |x: Option<u64>| x.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(true, Instant::now());
        log.spans = vec![
            Span { name: "job", parent: None, job: None, start_ns: 0, end_ns: 100 },
            Span { name: "req", parent: Some(0), job: None, start_ns: 10, end_ns: 40 },
            Span { name: "req", parent: Some(0), job: None, start_ns: 30, end_ns: 50 },
            Span { name: "req", parent: Some(0), job: None, start_ns: 90, end_ns: 120 },
        ];
        let t = log.totals();
        assert_eq!(t["job"].self_ns, 100 - 40 - 10);
        assert_eq!(t["req"].count, 3);
        assert_eq!(t["req"].total_ns, 30 + 20 + 30);
    }
}
