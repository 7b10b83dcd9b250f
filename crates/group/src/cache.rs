//! A sharded, read-mostly LRU cache for expensive per-base precomputation
//! (fixed-base comb tables).
//!
//! The previous comb-table cache was a `Mutex<Vec>` FIFO: every lookup —
//! hit or miss — serialized on one lock, and eviction ignored recency, so
//! two concurrent sessions rotating more distinct joint keys than the
//! capacity would evict each other's hot tables on every insert.
//!
//! This cache fixes both:
//!
//! * **Reads don't serialize.** Keys hash to one of several shards, each
//!   behind its own `RwLock`; a hit takes only that shard's *read* lock, so
//!   concurrent sessions exponentiating under different joint keys proceed
//!   without contention.
//! * **Hits bump recency.** Each entry carries an atomic stamp from a
//!   global clock; a hit stores a fresh stamp without upgrading to a write
//!   lock. Eviction (on insert into a full shard) removes the entry with
//!   the *oldest* stamp — true LRU, so a hot table survives a stream of
//!   one-shot keys.
//!
//! Values are handed out as `Arc<V>`, so an evicted table stays alive for
//! whoever is still using it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{PoisonError, RwLock};

struct Entry<K, V> {
    key: K,
    value: Arc<V>,
    /// Last-touch tick from the cache-wide clock (atomic so a read-locked
    /// hit can bump it).
    stamp: AtomicU64,
}

/// Point-in-time hit/miss/eviction counters for a [`ShardedLru`],
/// scrape-ready for a metrics snapshot.
///
/// Counters are monotonically increasing over the cache's lifetime
/// (`entries` excepted — it is the current population). They are updated
/// with relaxed atomics: exact under quiescence, approximate only while
/// racing writers are mid-flight, which is all a scrape needs.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the value.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently cached across all shards.
    pub entries: u64,
}

/// A sharded LRU map from `K` to `Arc<V>` with per-shard capacity bounds.
pub struct ShardedLru<K, V> {
    shards: Vec<RwLock<Vec<Entry<K, V>>>>,
    cap_per_shard: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> ShardedLru<K, V> {
    /// Creates a cache with `shards` independent shards holding at most
    /// `cap_per_shard` entries each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(shards: usize, cap_per_shard: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(cap_per_shard > 0, "need capacity for at least one entry");
        ShardedLru {
            shards: (0..shards).map(|_| RwLock::new(Vec::new())).collect(),
            cap_per_shard,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current [`CacheStats`] — hit/miss/eviction counters plus the live
    /// entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_for(&self, key: &K) -> &RwLock<Vec<Entry<K, V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Returns the cached value for `key`, building and inserting it on a
    /// miss. The build runs under the shard's write lock, so concurrent
    /// requests for the same key build it exactly once; requests for keys
    /// in *other* shards are unaffected, and hits anywhere take only a
    /// read lock.
    pub fn get_or_insert_with(&self, key: &K, build: impl FnOnce() -> V) -> Arc<V> {
        let shard = self.shard_for(key);
        {
            let guard = shard.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(e) = guard.iter().find(|e| &e.key == key) {
                // fetch_max, not store: two hits racing under the read lock
                // can draw ticks in one order and write them in the other —
                // a plain store would let the older tick overwrite the
                // newer one, aging an entry that was just touched (and
                // making it an eviction candidate it should not be).
                e.stamp.fetch_max(self.tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return e.value.clone();
            }
        }
        let mut guard = shard.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have inserted while we waited for the lock.
        if let Some(e) = guard.iter().find(|e| &e.key == key) {
            e.stamp.fetch_max(self.tick(), Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return e.value.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(build());
        if guard.len() >= self.cap_per_shard {
            if let Some(oldest) = guard
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(i, _)| i)
            {
                guard.swap_remove(oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        guard.push(Entry {
            key: key.clone(),
            value: value.clone(),
            stamp: AtomicU64::new(self.tick()),
        });
        value
    }

    /// Whether `key` is currently cached (does not bump recency).
    pub fn contains(&self, key: &K) -> bool {
        self.shard_for(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .any(|e| &e.key == key)
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("cap_per_shard", &self.cap_per_shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_same_arc() {
        let cache: ShardedLru<u64, String> = ShardedLru::new(2, 4);
        let a = cache.get_or_insert_with(&7, || "seven".into());
        let b = cache.get_or_insert_with(&7, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_not_oldest_inserted() {
        // Single shard so eviction is deterministic.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(1, 3);
        for k in 0..3 {
            cache.get_or_insert_with(&k, || k * 10);
        }
        // Touch 0 — under FIFO it would still be the first evicted; under
        // LRU the untouched 1 goes instead.
        cache.get_or_insert_with(&0, || unreachable!());
        cache.get_or_insert_with(&3, || 30);
        assert_eq!(cache.len(), 3);
        assert!(cache.contains(&0), "recently hit entry must survive");
        assert!(!cache.contains(&1), "least recently used entry evicted");
        assert!(cache.contains(&2));
        assert!(cache.contains(&3));
    }

    #[test]
    fn rotation_beyond_capacity_keeps_the_hot_key() {
        // The thrash scenario: one hot key plus a stream of one-shot keys
        // larger than capacity. FIFO would evict the hot key every
        // `capacity` inserts; LRU keeps it as long as it stays hot.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(1, 4);
        let mut hot_builds = 0u32;
        for cold in 100..130 {
            cache.get_or_insert_with(&1, || {
                hot_builds += 1;
                11
            });
            cache.get_or_insert_with(&cold, || cold);
        }
        assert_eq!(hot_builds, 1, "hot key must never be rebuilt");
        assert!(cache.contains(&1));
    }

    #[test]
    fn joint_key_churn_at_real_geometry_never_evicts_the_generator() {
        // The comb cache's deployed geometry (see `EcGroup::COMB_CACHE_*`):
        // a long-lived session keeps hitting the generator's table while
        // the keygen-offline pool mints a fresh joint key per stocked
        // session. Far more distinct joint keys than total capacity must
        // not push the generator's table out mid-session.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(
            crate::ec::EcGroup::COMB_CACHE_SHARDS,
            crate::ec::EcGroup::COMB_CACHE_CAP,
        );
        let generator = 0u64;
        let mut generator_builds = 0u32;
        for joint_key in 1..=512u64 {
            cache.get_or_insert_with(&generator, || {
                generator_builds += 1;
                0
            });
            cache.get_or_insert_with(&joint_key, || joint_key);
        }
        assert_eq!(
            generator_builds, 1,
            "generator table must be built exactly once"
        );
        assert!(cache.contains(&generator));
        assert!(
            cache.len()
                <= crate::ec::EcGroup::COMB_CACHE_SHARDS * crate::ec::EcGroup::COMB_CACHE_CAP
        );
    }

    #[test]
    fn shards_bound_capacity_independently() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(4, 2);
        for k in 0..64 {
            cache.get_or_insert_with(&k, || k);
        }
        assert!(cache.len() <= 4 * 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(1, 2);
        assert_eq!(cache.stats(), CacheStats::default());
        cache.get_or_insert_with(&1, || 1); // miss
        cache.get_or_insert_with(&1, || unreachable!()); // hit
        cache.get_or_insert_with(&2, || 2); // miss
        cache.get_or_insert_with(&3, || 3); // miss + eviction (cap 2)
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn racing_hits_never_regress_a_recency_stamp() {
        // The regression the instrumentation uncovered: two hits racing
        // under the read lock could `store` their ticks out of draw order,
        // leaving the entry's stamp *older* than a hit that already
        // happened. With fetch_max the stamp is monotone: after any storm
        // of concurrent hits on one key, a subsequent one-shot insert must
        // never evict the hot key.
        let cache: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(1, 2));
        cache.get_or_insert_with(&0, || 0); // the hot key
        cache.get_or_insert_with(&1, || 1); // the fill key
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for _ in 0..500 {
                        cache.get_or_insert_with(&0, || unreachable!());
                    }
                });
            }
        });
        // Insert a new key: the untouched fill key is the LRU entry and
        // must be the one evicted — the hot key's stamp must still
        // dominate despite the racing hits.
        cache.get_or_insert_with(&2, || 2);
        assert!(cache.contains(&0), "hot key evicted: stamp regressed");
    }

    #[test]
    fn concurrent_hits_and_misses_are_safe() {
        let cache: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(4, 4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = (i + t) % 8;
                        let v = cache.get_or_insert_with(&k, || k * 2);
                        assert_eq!(*v, k * 2);
                    }
                });
            }
        });
        assert!(cache.len() <= 16);
    }
}
