//! Content-addressed result cache and per-client submission quotas.
//!
//! # Content addressing
//!
//! The cache key is [`CanonicalSpec::digest`] — FNV-1a 64 over the spec's
//! canonical JSON. Engine determinism turns that key into a soundness
//! argument: equal digests ⇒ equal canonical specs ⇒ bit-identical
//! campaign results, so answering a repeated spec from the cache returns
//! exactly the bytes a fresh run would have produced (modulo `wall_secs`,
//! which records the original run). Only whole-campaign, no-detail
//! submissions are cached (`JobSpec::cacheable`).
//!
//! # Trust, but re-verify
//!
//! Disk bytes rot and code changes; a cache serving stale results would
//! silently violate the reproducibility story. Every `verify_every`-th hit
//! therefore also enqueues a **replay**: a real engine run of the same
//! spec whose digests are compared against the cached outcome. A mismatch
//! evicts the entry and increments `apf_cache_total{event="verify_fail"}`
//! (a page-worthy signal — it means cached bytes and the engine disagree).
//!
//! # Quotas
//!
//! Submissions are budgeted per client (the `x-client-id` header, falling
//! back to the peer IP) over a fixed one-minute window — enough to keep a
//! single classroom script from monopolizing the queue while staying
//! entirely in-memory.

use crate::job::JobOutcome;
use crate::json::{self, Json};
use apf_bench::spec::CanonicalSpec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Cache shape; every knob has a CLI flag.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Directory for persisted entries (`None` = in-memory only).
    pub dir: Option<PathBuf>,
    /// Maximum retained entries; the least-recently-used entry is evicted
    /// (and its file removed) beyond this.
    pub max_entries: usize,
    /// Re-verify every Nth cache hit by replaying the spec against the
    /// engine (0 = never).
    pub verify_every: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { dir: None, max_entries: 256, verify_every: 16 }
    }
}

#[derive(Debug)]
struct Entry {
    outcome: JobOutcome,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: BTreeMap<u64, Entry>,
    seq: u64,
    hits: u64,
}

/// The content-addressed result cache.
#[derive(Debug)]
pub struct ResultCache {
    cfg: CacheConfig,
    inner: Mutex<Inner>,
}

/// What a cache lookup produced.
#[derive(Debug)]
pub struct CacheHit {
    /// The cached outcome (with `cached: true` set).
    pub outcome: JobOutcome,
    /// Whether this hit was selected for integrity re-verification (the
    /// caller enqueues a replay job).
    pub verify: bool,
}

impl ResultCache {
    /// Opens the cache, creating the directory and loading persisted
    /// entries (oldest filenames first, then LRU-trimmed to `max_entries`).
    /// Unparsable files are skipped (and deleted), never fatal: a corrupt
    /// cache must degrade to a miss, not take the service down.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/listing errors.
    pub fn open(cfg: CacheConfig) -> std::io::Result<ResultCache> {
        let cache = ResultCache { cfg, inner: Mutex::new(Inner::default()) };
        if let Some(dir) = &cache.cfg.dir {
            std::fs::create_dir_all(dir)?;
            let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            names.sort();
            let mut inner = cache.lock();
            for path in names {
                match Self::load_entry(&path) {
                    Some((digest, outcome)) => {
                        inner.seq += 1;
                        let last_used = inner.seq;
                        inner.entries.insert(digest, Entry { outcome, last_used });
                    }
                    None => {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
            drop(inner);
            cache.trim();
        }
        Ok(cache)
    }

    fn load_entry(path: &PathBuf) -> Option<(u64, JobOutcome)> {
        let digest = u64::from_str_radix(path.file_stem()?.to_str()?, 16).ok()?;
        let text = std::fs::read_to_string(path).ok()?;
        let v = json::parse(&text).ok()?;
        let outcome = JobOutcome::from_json(v.get("result")?).ok()?;
        Some((digest, outcome))
    }

    /// Looks up a spec's digest; a hit bumps recency, marks the outcome
    /// `cached`, and flags every `verify_every`-th hit for replay.
    pub fn lookup(&self, digest: u64) -> Option<CacheHit> {
        let mut inner = self.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let verify_every = self.cfg.verify_every;
        let entry = inner.entries.get_mut(&digest)?;
        entry.last_used = seq;
        let mut outcome = entry.outcome.clone();
        outcome.cached = true;
        inner.hits += 1;
        let verify = verify_every > 0 && inner.hits.is_multiple_of(verify_every);
        Some(CacheHit { outcome, verify })
    }

    /// Inserts (or refreshes) an entry and persists it; evicts beyond the
    /// capacity. The stored outcome keeps `cached: false` — the flag
    /// describes a *response*, not the entry.
    pub fn store(&self, spec: &CanonicalSpec, outcome: &JobOutcome) {
        let digest = spec.digest();
        let mut stored = outcome.clone();
        stored.cached = false;
        stored.detail = None;
        if let Some(dir) = &self.cfg.dir {
            let body = Json::obj([
                ("canonical", spec.to_json()),
                ("digest", Json::str(format!("{digest:016x}"))),
                ("result", stored.to_json()),
            ])
            .render();
            // Persistence is best-effort: a full disk degrades to an
            // in-memory entry, not an error path the submitter sees.
            let _ = std::fs::write(dir.join(format!("{digest:016x}.json")), body);
        }
        let mut inner = self.lock();
        inner.seq += 1;
        let last_used = inner.seq;
        inner.entries.insert(digest, Entry { outcome: stored, last_used });
        drop(inner);
        self.trim();
    }

    /// Reads an entry without touching recency or the hit counter — the
    /// verify path's comparison read, which must not itself count as a hit
    /// (that would perturb the verify cadence it is part of).
    pub fn peek(&self, digest: u64) -> Option<JobOutcome> {
        self.lock().entries.get(&digest).map(|e| e.outcome.clone())
    }

    /// Removes an entry (verification mismatch) and its file.
    pub fn evict(&self, digest: u64) {
        self.lock().entries.remove(&digest);
        if let Some(dir) = &self.cfg.dir {
            let _ = std::fs::remove_file(dir.join(format!("{digest:016x}.json")));
        }
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn trim(&self) {
        loop {
            let evicted = {
                let mut inner = self.lock();
                if inner.entries.len() <= self.cfg.max_entries.max(1) {
                    break;
                }
                let oldest = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&digest, _)| digest);
                match oldest {
                    Some(digest) => {
                        inner.entries.remove(&digest);
                        digest
                    }
                    None => break,
                }
            };
            if let Some(dir) = &self.cfg.dir {
                let _ = std::fs::remove_file(dir.join(format!("{evicted:016x}.json")));
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // apf-lint: allow(panic-policy, panic-reachability) — no code path panics while holding this lock, so poisoning is impossible; if it happens anyway the cache is corrupt and the worker must die
        self.inner.lock().expect("cache lock poisoned")
    }
}

/// Fixed-window per-client submission quotas (0 = unlimited).
#[derive(Debug)]
pub struct ClientQuotas {
    per_minute: u64,
    windows: Mutex<BTreeMap<String, (Instant, u64)>>,
}

impl ClientQuotas {
    /// A quota of `per_minute` submissions per client per minute.
    pub fn new(per_minute: u64) -> ClientQuotas {
        ClientQuotas { per_minute, windows: Mutex::new(BTreeMap::new()) }
    }

    /// Records a submission attempt by `client`; `false` means the quota is
    /// exhausted (the caller answers 429).
    pub fn admit(&self, client: &str) -> bool {
        if self.per_minute == 0 {
            return true;
        }
        let now = Instant::now();
        // apf-lint: allow(panic-policy) — no code path panics while holding this lock
        let mut windows = self.windows.lock().expect("quota lock poisoned");
        // Bound memory under client-id churn: drop expired windows once the
        // table gets large.
        if windows.len() > 4096 {
            windows.retain(|_, (start, _)| now.duration_since(*start).as_secs() < 60);
        }
        let slot = windows.entry(client.to_string()).or_insert((now, 0));
        if now.duration_since(slot.0).as_secs() >= 60 {
            *slot = (now, 0);
        }
        slot.1 += 1;
        slot.1 <= self.per_minute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(trials: usize) -> JobOutcome {
        JobOutcome {
            trials,
            requested: trials,
            formed: trials as u64,
            success: 1.0,
            mean_cycles: 10.5,
            median_cycles: 10.0,
            p95_cycles: 12.0,
            mean_bits: 3.0,
            bits_per_cycle: 0.2857142857142857,
            digests: vec![1, 2, 3],
            wall_secs: 0.1,
            detail: None,
            cached: false,
        }
    }

    fn spec(seed: u64) -> CanonicalSpec {
        CanonicalSpec { seed, ..CanonicalSpec::default() }
    }

    #[test]
    fn hit_miss_and_verify_cadence() {
        let cache =
            ResultCache::open(CacheConfig { dir: None, max_entries: 8, verify_every: 2 }).unwrap();
        let s = spec(1);
        assert!(cache.lookup(s.digest()).is_none());
        cache.store(&s, &outcome(8));
        let first = cache.lookup(s.digest()).unwrap();
        assert!(first.outcome.cached);
        assert_eq!(first.outcome.digests, vec![1, 2, 3]);
        assert!(!first.verify, "first hit should not verify");
        let second = cache.lookup(s.digest()).unwrap();
        assert!(second.verify, "every 2nd hit must verify");
        assert!(!cache.lookup(s.digest()).unwrap().verify);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache =
            ResultCache::open(CacheConfig { dir: None, max_entries: 2, verify_every: 0 }).unwrap();
        let (a, b, c) = (spec(1), spec(2), spec(3));
        cache.store(&a, &outcome(1));
        cache.store(&b, &outcome(2));
        assert!(cache.lookup(a.digest()).is_some()); // a is now fresher than b
        cache.store(&c, &outcome(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(b.digest()).is_none(), "b was LRU and must be gone");
        assert!(cache.lookup(a.digest()).is_some());
        assert!(cache.lookup(c.digest()).is_some());
    }

    #[test]
    fn disk_round_trip_and_corrupt_file_tolerance() {
        let dir = std::env::temp_dir().join(format!("apf-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig { dir: Some(dir.clone()), max_entries: 8, verify_every: 0 };
        let s = spec(7);
        {
            let cache = ResultCache::open(cfg.clone()).unwrap();
            cache.store(&s, &outcome(4));
        }
        // Corruption next to a good entry must not poison the reload.
        std::fs::write(dir.join("zzzz.json"), b"not json").unwrap();
        {
            let cache = ResultCache::open(cfg.clone()).unwrap();
            assert_eq!(cache.len(), 1);
            let hit = cache.lookup(s.digest()).unwrap();
            assert_eq!(hit.outcome.trials, 4);
            assert_eq!(hit.outcome.digests, vec![1, 2, 3]);
            // The corrupt file was cleaned up.
            assert!(!dir.join("zzzz.json").exists());
            cache.evict(s.digest());
            assert!(cache.is_empty());
            assert!(!dir.join(format!("{:016x}.json", s.digest())).exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quotas_admit_within_budget_and_reject_beyond() {
        let q = ClientQuotas::new(2);
        assert!(q.admit("alice"));
        assert!(q.admit("alice"));
        assert!(!q.admit("alice"), "third submission in the window must be rejected");
        assert!(q.admit("bob"), "quotas are per client");
        let unlimited = ClientQuotas::new(0);
        for _ in 0..100 {
            assert!(unlimited.admit("alice"));
        }
    }
}
