//! The content-addressed solve cache.
//!
//! It holds two kinds of entry under one LRU and one byte budget: result
//! bodies, keyed by the whole request, and [`Stage`]s, keyed by
//! (benchmark, ladder). A stage is what every request on that pair
//! shares whatever its deadline, op or regulator, so a cold request whose
//! stage is resident pays only for its own solve.
//!
//! Keys are 64-bit [`dvs_compiler::fingerprint::Fnv64`] digests of a
//! canonical encoding; because 64 bits can collide in principle, every
//! entry also stores the canonical string itself and a lookup only hits
//! when the strings match — a collision degrades to a miss, never to a
//! wrong answer.
//!
//! Eviction is least-recently-used under a byte budget. Recency is an
//! ordered index from stamp to key holding one record per resident entry:
//! a touch moves the entry's record to a fresh stamp, and eviction pops
//! the first record. Touches and evictions are O(log n), and the index
//! never outgrows the entries it ranks.

use dvs_compiler::DeadlineScheme;
use dvs_ir::{BlockModeCost, Cfg, LocalPath, Profile};
use std::collections::{BTreeMap, HashMap};
use std::mem::size_of;
use std::sync::Arc;

/// Fixed per-entry bookkeeping cost charged against the byte budget, on
/// top of the canonical string and the value.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// The deadline-independent part of a solve request: the profile of a
/// benchmark's default input on one ladder, and the deadline scheme that
/// places its five deadlines. Neither depends on the deadline, the op or
/// the regulator.
#[derive(Debug)]
pub struct Stage {
    profile: Profile,
    scheme: DeadlineScheme,
    /// Estimated heap bytes of the two, charged against the cache budget.
    bytes: usize,
}

impl Stage {
    /// Wraps a profile of `cfg` and the scheme measured on the same trace,
    /// estimating the bytes the stage holds.
    #[must_use]
    pub fn new(cfg: &Cfg, profile: Profile, scheme: DeadlineScheme) -> Stage {
        let per_block = size_of::<Vec<BlockModeCost>>()
            + profile.num_modes() * size_of::<BlockModeCost>()
            + size_of::<u64>();
        // B-tree nodes run about two-thirds full.
        let per_path = size_of::<(LocalPath, u64)>() * 3 / 2;
        let bytes = size_of::<Stage>()
            + profile.num_blocks() * per_block
            + cfg.num_edges() * size_of::<u64>()
            + profile.local_paths().count() * per_path;
        Stage {
            profile,
            scheme,
            bytes,
        }
    }

    /// Per-block time and energy per mode, and the edge and path counts.
    #[must_use]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The reference runtimes the deadlines are placed between.
    #[must_use]
    pub fn scheme(&self) -> &DeadlineScheme {
        &self.scheme
    }

    /// The estimated bytes the stage holds, its charge in the cache.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bytes
    }
}

enum Value {
    /// A result body (a serialized JSON value).
    Body(String),
    Stage(Arc<Stage>),
}

struct Entry {
    /// Canonical string — the collision guard.
    canonical: String,
    value: Value,
    /// Recency stamp: the key of the entry's record in the index.
    stamp: u64,
}

impl Entry {
    fn cost(&self) -> usize {
        let value = match &self.value {
            Value::Body(body) => body.len(),
            Value::Stage(stage) => stage.heap_bytes(),
        };
        self.canonical.len() + value + ENTRY_OVERHEAD_BYTES
    }
}

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Body lookups that returned a stored body.
    pub hits: u64,
    /// Body lookups that found nothing (or a colliding digest).
    pub misses: u64,
    /// Stage lookups that returned a stored stage.
    pub stage_hits: u64,
    /// Stage lookups that found nothing (or a colliding digest).
    pub stage_misses: u64,
    /// Entries of either kind removed to satisfy the byte budget.
    pub evictions: u64,
    /// Entries of either kind stored (excluding over-budget entries that
    /// were skipped).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub used_bytes: usize,
    /// The configured budget.
    pub capacity_bytes: usize,
}

/// An LRU, byte-budgeted map from digest to result body or [`Stage`].
///
/// Not internally synchronized — the server wraps it in a `Mutex`.
pub struct SolveCache {
    entries: HashMap<u64, Entry>,
    /// Stamp → key, one record per entry; the first is the least
    /// recently used.
    recency: BTreeMap<u64, u64>,
    next_stamp: u64,
    used_bytes: usize,
    capacity_bytes: usize,
    hits: u64,
    misses: u64,
    stage_hits: u64,
    stage_misses: u64,
    evictions: u64,
    insertions: u64,
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCache")
            .field("entries", &self.entries.len())
            .field("used_bytes", &self.used_bytes)
            .field("capacity_bytes", &self.capacity_bytes)
            .finish_non_exhaustive()
    }
}

impl SolveCache {
    /// An empty cache that will hold at most `capacity_bytes` of entries
    /// (canonical keys + values + fixed per-entry overhead).
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        SolveCache {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            next_stamp: 0,
            used_bytes: 0,
            capacity_bytes,
            hits: 0,
            misses: 0,
            stage_hits: 0,
            stage_misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    fn touch(stamp: &mut u64, next: &mut u64, recency: &mut BTreeMap<u64, u64>, key: u64) {
        recency.remove(stamp);
        *next += 1;
        *stamp = *next;
        recency.insert(*next, key);
    }

    /// Reads the entry under `key` through `read` when its canonical
    /// string matches, refreshing its recency if `read` finds a value.
    fn lookup<T>(
        &mut self,
        key: u64,
        canonical: &str,
        read: impl FnOnce(&Value) -> Option<T>,
    ) -> Option<T> {
        let e = self
            .entries
            .get_mut(&key)
            .filter(|e| e.canonical == canonical)?;
        let found = read(&e.value)?;
        Self::touch(&mut e.stamp, &mut self.next_stamp, &mut self.recency, key);
        Some(found)
    }

    /// Looks up the body under `key`, verifying the canonical string, and
    /// refreshes the entry's recency on a hit. Records the hit/miss in
    /// both the local stats and the `serve.cache.*` dvs-obs counters.
    pub fn get(&mut self, key: u64, canonical: &str) -> Option<String> {
        let body = self.lookup(key, canonical, |v| match v {
            Value::Body(body) => Some(body.clone()),
            Value::Stage(_) => None,
        });
        if body.is_some() {
            self.hits += 1;
            if dvs_obs::enabled() {
                dvs_obs::counter("serve.cache.hits", 1);
            }
        } else {
            self.misses += 1;
            if dvs_obs::enabled() {
                dvs_obs::counter("serve.cache.misses", 1);
            }
        }
        body
    }

    /// [`SolveCache::get`] for a stage; counted in `stage_hits` and
    /// `stage_misses` and the `serve.stage.*` dvs-obs counters.
    pub fn get_stage(&mut self, key: u64, canonical: &str) -> Option<Arc<Stage>> {
        let stage = self.lookup(key, canonical, |v| match v {
            Value::Stage(stage) => Some(Arc::clone(stage)),
            Value::Body(_) => None,
        });
        if stage.is_some() {
            self.stage_hits += 1;
            if dvs_obs::enabled() {
                dvs_obs::counter("serve.stage.hits", 1);
            }
        } else {
            self.stage_misses += 1;
            if dvs_obs::enabled() {
                dvs_obs::counter("serve.stage.misses", 1);
            }
        }
        stage
    }

    /// Stores `body` under `key`, evicting least-recently-used entries
    /// until the budget holds. A body too large to ever fit is skipped
    /// (the cache keeps every other entry, but drops what `key` held);
    /// re-inserting an existing key replaces its value and refreshes its
    /// recency.
    pub fn insert(&mut self, key: u64, canonical: &str, body: String) {
        self.store(key, canonical, Value::Body(body));
    }

    /// [`SolveCache::insert`] for a stage, charged at
    /// [`Stage::heap_bytes`].
    pub fn insert_stage(&mut self, key: u64, canonical: &str, stage: Arc<Stage>) {
        self.store(key, canonical, Value::Stage(stage));
    }

    fn store(&mut self, key: u64, canonical: &str, value: Value) {
        if let Some(old) = self.entries.remove(&key) {
            self.used_bytes -= old.cost();
            self.recency.remove(&old.stamp);
        }
        let entry = Entry {
            canonical: canonical.to_string(),
            value,
            stamp: 0,
        };
        if entry.cost() > self.capacity_bytes {
            self.publish_gauge();
            return;
        }
        self.used_bytes += entry.cost();
        self.entries.insert(key, entry);
        let e = self.entries.get_mut(&key).expect("just inserted");
        Self::touch(&mut e.stamp, &mut self.next_stamp, &mut self.recency, key);
        self.insertions += 1;
        self.evict_to_budget();
        self.publish_gauge();
    }

    fn evict_to_budget(&mut self) {
        while self.used_bytes > self.capacity_bytes {
            let Some((_, key)) = self.recency.pop_first() else {
                debug_assert!(
                    false,
                    "byte accounting drifted: over budget with no entries"
                );
                return;
            };
            let e = self
                .entries
                .remove(&key)
                .expect("one record per resident entry");
            self.used_bytes -= e.cost();
            self.evictions += 1;
            if dvs_obs::enabled() {
                dvs_obs::counter("serve.cache.evictions", 1);
            }
        }
    }

    fn publish_gauge(&self) {
        if dvs_obs::enabled() {
            #[allow(clippy::cast_precision_loss)]
            dvs_obs::gauge("serve.cache.bytes", self.used_bytes as f64);
        }
    }

    /// A snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            stage_hits: self.stage_hits,
            stage_misses: self.stage_misses,
            evictions: self.evictions,
            insertions: self.insertions,
            entries: self.entries.len(),
            used_bytes: self.used_bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(n: usize) -> String {
        "x".repeat(n)
    }

    #[test]
    fn hit_returns_stored_body_and_counts() {
        let mut c = SolveCache::new(4096);
        assert_eq!(c.get(1, "req-1"), None);
        c.insert(1, "req-1", body(10));
        assert_eq!(c.get(1, "req-1").as_deref(), Some(&body(10)[..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.insertions), (1, 1, 1, 1));
    }

    #[test]
    fn digest_collision_is_a_miss_not_a_wrong_answer() {
        let mut c = SolveCache::new(4096);
        c.insert(1, "req-a", body(10));
        // Same digest, different canonical request: must not return req-a's
        // body.
        assert_eq!(c.get(1, "req-b"), None);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn evicts_least_recently_used_under_byte_pressure() {
        // Each entry costs 100 + canonical + overhead; make room for ~3.
        let per = 100 + 5 + ENTRY_OVERHEAD_BYTES;
        let mut c = SolveCache::new(3 * per);
        c.insert(1, "req-1", body(100));
        c.insert(2, "req-2", body(100));
        c.insert(3, "req-3", body(100));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1, "req-1").is_some());
        c.insert(4, "req-4", body(100));
        assert_eq!(c.get(2, "req-2"), None, "LRU entry evicted");
        assert!(c.get(1, "req-1").is_some(), "recently used survives");
        assert!(c.get(3, "req-3").is_some());
        assert!(c.get(4, "req-4").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 3);
        assert!(s.used_bytes <= s.capacity_bytes);
    }

    #[test]
    fn oversized_body_is_skipped_without_wiping_the_cache() {
        let mut c = SolveCache::new(300);
        c.insert(1, "req-1", body(50));
        c.insert(2, "req-2", body(10_000));
        assert!(c.get(1, "req-1").is_some(), "existing entry untouched");
        assert_eq!(c.get(2, "req-2"), None);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn reinsert_replaces_body_and_accounting_stays_exact() {
        let mut c = SolveCache::new(4096);
        c.insert(1, "req-1", body(100));
        let used_before = c.stats().used_bytes;
        c.insert(1, "req-1", body(10));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.used_bytes, used_before - 90);
        assert_eq!(c.get(1, "req-1").as_deref(), Some(&body(10)[..]));
    }

    #[test]
    fn eviction_follows_the_last_touch_not_the_touch_count() {
        let per = 100 + 5 + ENTRY_OVERHEAD_BYTES;
        let mut c = SolveCache::new(2 * per);
        c.insert(1, "req-1", body(100));
        for _ in 0..50 {
            assert!(c.get(1, "req-1").is_some());
        }
        c.insert(2, "req-2", body(100));
        c.insert(3, "req-3", body(100));
        // Key 1's last touch is older than 2's insert, so fitting 3 evicts
        // key 1: exactly one eviction, and byte accounting holds.
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.used_bytes <= s.capacity_bytes);
        assert!(c.get(3, "req-3").is_some(), "newest entry resident");
        assert_eq!(c.get(1, "req-1"), None, "least recently used evicted");
    }

    #[test]
    fn recency_holds_one_record_per_resident_entry() {
        let mut c = SolveCache::new(4096);
        c.insert(1, "req-1", body(10));
        c.insert(2, "req-2", body(10));
        for _ in 0..10_000 {
            assert!(c.get(1, "req-1").is_some());
        }
        c.insert(2, "req-2", body(20));
        assert_eq!(c.stats().evictions, 0, "the cache stayed within budget");
        assert_eq!(c.recency.len(), c.stats().entries);
        assert_eq!(c.recency.values().copied().collect::<Vec<_>>(), [1, 2]);
    }
}
