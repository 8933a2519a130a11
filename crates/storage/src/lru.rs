//! A generic lock-striped LRU cache with monotone hit/miss counters.
//!
//! [`crate::buffer::BufferPool`] applies this discipline to pages; the
//! query-cache hierarchy in `tklus-core` applies it to decoded values —
//! geohash circle covers, decoded postings lists, thread popularities.
//! The striping is identical to the buffer pool's: up to 16 shards, each
//! its own `Mutex<HashMap>`, entries routed by key hash. The LRU clock and
//! the hit/miss counters are striped with the shards — every lookup
//! already holds its shard lock, so bumping plain per-shard fields there
//! is free, whereas a global atomic clock is write-shared by every cache
//! hit on every shard and bounces its cache line across cores. Eviction
//! is per shard, so per-shard stamps order exactly the comparisons
//! eviction makes; cross-shard stamp order was never observable. Stats
//! reads merge the shards.
//!
//! Unlike the buffer pool, a miss here does **not** hold the shard lock
//! while the caller computes the missing value: cached values are derived
//! from layers that take their own locks (DFS, B⁺-trees), and computing
//! under a shard lock would serialize unrelated keys that happen to share
//! a shard. Two threads may therefore race to compute the same key — both
//! compute, both insert, and because every cached value is a pure function
//! of immutable build-time state, both arrive at the identical value.
//!
//! Capacity 0 disables the cache: `get` always misses without counting,
//! `insert` is a no-op, and [`ShardedLruCache::is_enabled`] reports
//! `false` so callers can skip probing entirely.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};

/// Most shards the cache is split into; effective per-shard capacity is
/// `capacity / shards` (so tiny caches still evict correctly).
const MAX_SHARDS: usize = 16;

/// A point-in-time view of one cache layer's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLayerStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the caller's compute path.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Configured entry budget (0 = layer disabled).
    pub capacity: usize,
}

impl CacheLayerStats {
    /// Hit fraction of all lookups (0 when the layer saw none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sized-bounded, lock-striped LRU map from `K` to `V`.
///
/// Values are cloned out on hit, so `V` is typically an `Arc` or a small
/// `Copy` type. All operations take `&self`; the cache is `Sync` whenever
/// `K` and `V` are `Send`.
pub struct ShardedLruCache<K, V> {
    /// Per-shard entry budget (`capacity / shards.len()`).
    shard_capacity: usize,
    capacity: usize,
    shards: Vec<Mutex<Shard<K, V>>>,
    hasher: RandomState,
}

/// One stripe: its entries plus its own LRU clock and counters, all
/// guarded by the stripe's mutex so the hot path touches no shared
/// atomics.
struct Shard<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash, V: Clone> ShardedLruCache<K, V> {
    /// A cache holding at most `capacity` entries (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        let num_shards = capacity.clamp(1, MAX_SHARDS);
        let shard_capacity = capacity / num_shards;
        let shards = (0..num_shards)
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::with_capacity(shard_capacity.min(1024)),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                })
            })
            .collect();
        Self { shard_capacity, capacity, shards, hasher: RandomState::new() }
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured entry budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries (across all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far, merged over shards. Monotone
    /// non-decreasing.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().hits).sum()
    }

    /// Lookups that missed so far, merged over shards. Monotone
    /// non-decreasing.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().misses).sum()
    }

    /// Counters plus occupancy in one snapshot, merged over shards.
    pub fn stats(&self) -> CacheLayerStats {
        let mut stats = CacheLayerStats { hits: 0, misses: 0, entries: 0, capacity: self.capacity };
        for shard in &self.shards {
            let shard = shard.lock();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.entries += shard.map.len();
        }
        stats
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up, refreshing its LRU stamp and counting a hit or a
    /// miss. A disabled cache always returns `None` without counting.
    pub fn get(&self, key: &K) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let mut shard = self.shard(key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some((value, stamp)) => {
                *stamp = tick;
                let value = value.clone();
                shard.hits += 1;
                Some(value)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-stamped
    /// entry of its shard when the shard is at budget. No-op when disabled.
    pub fn insert(&self, key: K, value: V)
    where
        K: Clone,
    {
        if self.shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(&key).lock();
        shard.tick += 1;
        let stamp = shard.tick;
        if let Some(slot) = shard.map.get_mut(&key) {
            *slot = (value, stamp);
            return;
        }
        if shard.map.len() >= self.shard_capacity {
            if let Some(victim) =
                shard.map.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k.clone())
            {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(key, (value, stamp));
    }

    /// Removes `key`, returning its value if it was cached. Neither a hit
    /// nor a miss is counted: removal is an invalidation, not a lookup.
    /// This is the coherence hook for mutable engines — a live ingest path
    /// evicts entries whose inputs it just changed (e.g. the thread
    /// popularity of every ancestor of a newly ingested reply) so the next
    /// lookup recomputes from current state.
    pub fn remove(&self, key: &K) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        self.shard(key).lock().map.remove(key).map(|(v, _)| v)
    }

    /// Drops every entry, keeping the counters. The invalidation for a
    /// key space that changed wholesale (e.g. term ids renumbered by an
    /// index merge).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn hit_miss_counting_and_values() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(8);
        assert!(cache.is_enabled());
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.capacity), (1, 1, 1, 8));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn remove_invalidates_without_counting() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(8);
        cache.insert(1, 10);
        assert_eq!(cache.remove(&1), Some(10));
        assert_eq!(cache.remove(&1), None);
        // The failed lookup after removal counts as a miss; the removals
        // themselves counted nothing.
        assert_eq!(cache.get(&1), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Disabled cache: remove is a no-op.
        let off: ShardedLruCache<u64, u64> = ShardedLruCache::new(0);
        assert_eq!(off.remove(&1), None);
    }

    #[test]
    fn capacity_zero_disables() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(0);
        assert!(!cache.is_enabled());
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), None);
        // Disabled caches never count: probes are free to skip.
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_respects_lru_within_budget() {
        // Capacity 1 → a single shard with one slot, so eviction order is
        // exact: each insert displaces the previous entry.
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(1);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(2, 20); // evicts 1
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn budget_holds_under_insert_pressure() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(4);
        for k in 0..100 {
            cache.insert(k, k);
        }
        assert!(cache.len() <= 4, "len={}", cache.len());
        // Keys inserted last are the plausible survivors; at least one
        // recent key must still be resident.
        assert!((96..100).any(|k| cache.get(&k).is_some()));
    }

    #[test]
    fn refresh_does_not_grow() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(4);
        for _ in 0..10 {
            cache.insert(7, 70);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&7), Some(70));
    }

    #[test]
    fn concurrent_use_stays_within_budget_and_consistent() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(64);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 31 + i) % 200;
                        match cache.get(&k) {
                            Some(v) => assert_eq!(v, k * 3),
                            None => cache.insert(k, k * 3),
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 64, "len={}", cache.len());
        assert_eq!(cache.hits() + cache.misses(), 8 * 500);
    }
}
