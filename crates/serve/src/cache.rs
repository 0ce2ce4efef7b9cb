//! The LRU result cache.
//!
//! Mining is deterministic over an immutable [`PreparedDb`]: the same
//! canonical request against the same corpus bytes always yields the same
//! patterns, bit for bit (the equivalence suite and the serve e2e test
//! both pin this). That makes caching *correct by construction* — a cache
//! key is `(image checksum, canonical request key)` and an entry never
//! goes stale while the process holds the snapshot.
//!
//! Entries are whole rendered response payloads, not pattern objects:
//! a hit costs one map lookup and one string clone, no re-rendering.
//!
//! The clippy lints at the top of this module keep it free of panics,
//! `unwrap`/`expect` and bare indexing. Lock poisoning is absorbed with
//! [`PoisonError::into_inner`] — the state is a plain map plus counters,
//! always valid even if a holder panicked.
//!
//! [`PreparedDb`]: rgs_core::PreparedDb

// A panic here would kill a worker thread and silently shrink the pool.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A cached mining result: the rendered patterns array plus the envelope
/// fields a response needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// The rendered JSON array of patterns, exactly as first served.
    pub patterns_json: String,
    /// Number of patterns in the array.
    pub count: usize,
    /// Whether the original run hit an output budget (`max_patterns`).
    pub truncated: bool,
}

#[derive(Debug)]
struct Entry {
    result: CachedResult,
    /// This entry's position in the LRU order (key into `order`).
    tick: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<String, Entry>,
    /// LRU order: oldest tick first. Values are keys into `entries`.
    order: BTreeMap<u64, String>,
    /// Monotonic use counter; bumped on every insert and hit.
    next_tick: u64,
}

/// Point-in-time cache statistics for `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries pushed out by the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Configured capacity (0 = disabled).
    pub capacity: usize,
}

/// A thread-safe LRU cache of rendered mining results.
///
/// Capacity 0 disables caching entirely: every lookup misses and inserts
/// are dropped, but the counters still run so `/stats` stays meaningful.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Creates a cache holding up to `capacity` results.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            state: Mutex::new(CacheState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Builds the full cache key from the corpus identity and the
    /// canonical request key. Heap-built databases have no image checksum;
    /// they share the `"heap"` namespace, which is correct as long as one
    /// server process holds exactly one `PreparedDb` — the server never
    /// swaps corpora in place.
    pub fn key(image_checksum: Option<u64>, canonical_request: &str) -> String {
        match image_checksum {
            Some(sum) => format!("{sum:016x}|{canonical_request}"),
            None => format!("heap|{canonical_request}"),
        }
    }

    /// Looks up `key`, refreshing its LRU position on a hit.
    pub fn get(&self, key: &str) -> Option<CachedResult> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let tick = state.next_tick;
        state.next_tick += 1;
        if let Some(entry) = state.entries.get_mut(key) {
            let old_tick = entry.tick;
            entry.tick = tick;
            let result = entry.result.clone();
            state.order.remove(&old_tick);
            state.order.insert(tick, key.to_owned());
            drop(state);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(result)
        } else {
            drop(state);
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// one if the cache is full. A no-op when capacity is 0.
    pub fn insert(&self, key: String, result: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let tick = state.next_tick;
        state.next_tick += 1;
        if let Some(existing) = state.entries.get_mut(&key) {
            let old_tick = existing.tick;
            existing.result = result;
            existing.tick = tick;
            state.order.remove(&old_tick);
            state.order.insert(tick, key);
            drop(state);
            self.insertions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut evicted = 0u64;
        while state.entries.len() >= self.capacity {
            if let Some((_, victim)) = state.order.pop_first() {
                state.entries.remove(&victim);
                evicted += 1;
            } else {
                // order and entries disagree; clear both rather than loop.
                state.entries.clear();
                break;
            }
        }
        state.order.insert(tick, key.clone());
        state.entries.insert(key, Entry { result, tick });
        drop(state);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Reads the counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let len = self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str) -> CachedResult {
        CachedResult {
            patterns_json: format!("[\"{tag}\"]"),
            count: 1,
            truncated: false,
        }
    }

    #[test]
    fn hit_after_insert_and_counters_track() {
        let cache = ResultCache::new(4);
        let key = ResultCache::key(Some(0xdead_beef), "v1;sup=2");
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), result("a"));
        assert_eq!(cache.get(&key).expect("hit").patterns_json, "[\"a\"]");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ResultCache::new(2);
        cache.insert("a".to_owned(), result("a"));
        cache.insert("b".to_owned(), result("b"));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.get("a").is_some());
        cache.insert("c".to_owned(), result("c"));
        assert!(cache.get("a").is_some(), "recently used survives");
        assert!(cache.get("b").is_none(), "cold entry evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_a_key_refreshes_without_growing() {
        let cache = ResultCache::new(2);
        cache.insert("a".to_owned(), result("a1"));
        cache.insert("a".to_owned(), result("a2"));
        assert_eq!(cache.stats().len, 1);
        assert_eq!(cache.get("a").expect("hit").patterns_json, "[\"a2\"]");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn capacity_zero_disables_storage_but_not_counters() {
        let cache = ResultCache::new(0);
        cache.insert("a".to_owned(), result("a"));
        assert!(cache.get("a").is_none());
        let stats = cache.stats();
        assert_eq!(stats.len, 0);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 0);
    }

    #[test]
    fn heap_and_image_namespaces_do_not_collide() {
        let heap = ResultCache::key(None, "v1;sup=2");
        let image = ResultCache::key(Some(2), "v1;sup=2");
        assert_ne!(heap, image);
        assert!(heap.starts_with("heap|"));
        assert!(image.starts_with("0000000000000002|"));
    }
}
