//! LRU cache for repeated symptom-set queries.
//!
//! Clinic traffic repeats symptom combinations heavily (common conditions
//! dominate — the corpus generator itself draws syndromes from a skewed
//! prevalence), so the serving layer memoizes rankings keyed by the
//! *sorted* symptom-id set plus `k`. Sorting makes the key order-
//! insensitive: `{cough, fever}` and `{fever, cough}` hit the same entry.
//!
//! The implementation is a classic O(1) LRU: a `HashMap` from key to slot
//! index into a slab of doubly-linked entries, head = most recent. Std
//! only, no external crates.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache: capacity must be positive");
        Self {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = self.map.get(key).copied()?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slab[i].value)
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry when at capacity. Returns the evicted key, if any.
    ///
    /// Costs exactly one key clone (the slab and the index map each need
    /// an owner); the evicted key is *moved* out of its slab slot via
    /// `mem::replace`, never cloned.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        if self.map.len() == self.capacity {
            // Reuse the LRU slot in place: swap the new entry in, move the
            // old key out for the map removal and the caller.
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let old = std::mem::replace(
                &mut self.slab[lru],
                Entry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                },
            );
            self.map.remove(&old.key);
            self.map.insert(key, lru);
            self.push_front(lru);
            return Some(old.key);
        }
        self.slab.push(Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        let slot = self.slab.len() - 1;
        self.map.insert(key, slot);
        self.push_front(slot);
        None
    }
}

/// Hit/miss/stale counters of a [`GenerationalCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenCacheStats {
    /// Same-generation hits.
    pub hits: u64,
    /// Keys never cached.
    pub misses: u64,
    /// Entries found but tagged with an older generation (served as
    /// misses; the re-insert overwrites them in place).
    pub stale: u64,
}

impl GenCacheStats {
    /// Hit rate in `[0, 1]` (0 when nothing was looked up). Stale lookups
    /// count as misses — they cost a scoring pass.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU whose entries carry the model generation that produced them.
///
/// A hot model swap would otherwise require `clear()` under the write
/// lock — O(capacity) work at the worst possible moment, right when the
/// batcher is cutting over. Tagging instead invalidates **lazily**: a
/// lookup compares the entry's tag against the caller's current
/// generation and treats older entries as misses; the subsequent insert
/// overwrites the slot in place, and entries for queries that never recur
/// age out through normal LRU eviction. Swaps therefore cost O(1) on the
/// cache no matter its size.
pub struct GenerationalCache<K, V> {
    inner: LruCache<K, (u64, V)>,
    stats: GenCacheStats,
}

impl<K: Eq + Hash + Clone, V> GenerationalCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: LruCache::new(capacity),
            stats: GenCacheStats::default(),
        }
    }

    /// Looks up `key`, treating entries tagged with a generation other
    /// than `generation` as misses.
    pub fn get(&mut self, key: &K, generation: u64) -> Option<&V> {
        // One probe: `inner` and `stats` are disjoint fields, so the
        // counters update while the returned reference is live.
        match self.inner.get(key) {
            Some(&(tag, ref value)) if tag == generation => {
                self.stats.hits += 1;
                Some(value)
            }
            Some(_) => {
                self.stats.stale += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `key` tagged with `generation`, overwriting any entry from
    /// an older generation in place.
    pub fn insert(&mut self, key: K, generation: u64, value: V) {
        self.inner.insert(key, (generation, value));
    }

    /// Current number of cached entries (any generation).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GenCacheStats {
        self.stats
    }
}

/// Canonical cache key for a symptom-set query: the sorted, deduplicated
/// symptom ids plus the requested `k`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Sorted, deduplicated symptom ids.
    pub symptoms: Vec<u32>,
    /// Requested ranking depth.
    pub k: usize,
}

impl QueryKey {
    /// Builds the canonical key from a raw (possibly unsorted, possibly
    /// repeating) symptom list.
    ///
    /// Fast path: clinic clients overwhelmingly send already-canonical
    /// (strictly ascending) symptom lists, which skip the sort + dedup
    /// entirely — one `windows(2)` scan decides.
    pub fn new(symptoms: &[u32], k: usize) -> Self {
        let mut s = symptoms.to_vec();
        if !s.windows(2).all(|w| w[0] < w[1]) {
            s.sort_unstable();
            s.dedup();
        }
        Self { symptoms: s, k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_inserted_value_and_promotes() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.get(&1), Some(&"one")); // 1 is now MRU
        assert_eq!(c.insert(3, "three"), Some(2), "2 was LRU");
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), Some(&"three"));
    }

    #[test]
    fn eviction_bounded_by_capacity() {
        let mut c: LruCache<u64, u64> = LruCache::new(8);
        for i in 0..1000u64 {
            c.insert(i, i * 2);
            assert!(c.len() <= 8, "len {} exceeded capacity", c.len());
        }
        // The last 8 keys survive, in order.
        for i in 992..1000u64 {
            assert_eq!(c.get(&i), Some(&(i * 2)));
        }
        assert_eq!(c.get(&0), None);
    }

    #[test]
    fn reinsert_replaces_without_evicting() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None, "replacement never evicts");
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    fn capacity_one_degenerates_gracefully() {
        let mut c: LruCache<u8, u8> = LruCache::new(1);
        assert_eq!(c.insert(1, 1), None);
        assert_eq!(c.insert(2, 2), Some(1));
        assert_eq!(c.get(&2), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn generational_cache_invalidates_lazily_on_swap() {
        let mut c: GenerationalCache<u32, &str> = GenerationalCache::new(4);
        c.insert(1, 0, "gen0");
        assert_eq!(c.get(&1, 0), Some(&"gen0"));
        // Model swap: same key, newer generation — stale, served as miss.
        assert_eq!(c.get(&1, 1), None);
        assert_eq!(c.len(), 1, "stale entry lingers until overwritten");
        c.insert(1, 1, "gen1");
        assert_eq!(c.get(&1, 1), Some(&"gen1"));
        assert_eq!(c.len(), 1, "re-insert overwrote in place");
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.stale), (2, 0, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn generational_cache_counts_plain_misses() {
        let mut c: GenerationalCache<u8, u8> = GenerationalCache::new(2);
        assert_eq!(c.get(&7, 0), None);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_rate(), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn query_key_is_order_and_duplicate_insensitive() {
        assert_eq!(
            QueryKey::new(&[3, 1, 2], 5),
            QueryKey::new(&[2, 3, 1, 1], 5)
        );
        assert_ne!(QueryKey::new(&[1, 2], 5), QueryKey::new(&[1, 2], 6));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u8, u8>::new(0);
    }

    /// Randomized property check against a naive reference model.
    #[test]
    fn matches_naive_reference_model() {
        // Tiny deterministic generator; avoids a dev-dependency cycle on
        // the proptest shim from inside the serve crate.
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut lru: LruCache<u64, u64> = LruCache::new(4);
        let mut reference: Vec<(u64, u64)> = Vec::new(); // MRU-first
        for step in 0..5000u64 {
            let key = next(10);
            if next(2) == 0 {
                let val = step;
                if let Some(pos) = reference.iter().position(|&(k, _)| k == key) {
                    reference.remove(pos);
                } else if reference.len() == 4 {
                    reference.pop();
                }
                reference.insert(0, (key, val));
                lru.insert(key, val);
            } else {
                let expect = reference.iter().position(|&(k, _)| k == key).map(|pos| {
                    let entry = reference.remove(pos);
                    reference.insert(0, entry);
                    entry.1
                });
                assert_eq!(lru.get(&key).copied(), expect, "step {step} key {key}");
            }
            assert_eq!(lru.len(), reference.len());
        }
    }
}
