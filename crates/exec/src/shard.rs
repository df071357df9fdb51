//! A sharded, mutex-protected hash map for read-mostly shared caches.
//!
//! `DataOracle` memoises contingency tables, entropies and verdicts;
//! under parallel discovery many workers hit those caches at once. A single
//! `Mutex<HashMap>` serialises every lookup; a `ShardedMap` splits the
//! key space over independently locked shards so disjoint lookups
//! proceed concurrently. Values are cloned out of the shard (the
//! workspace stores `Arc`s and small floats), so no lock is held while
//! a caller computes.
//!
//! Writes are last-wins. For the deterministic caches this map serves,
//! two racing writers always compute the *same* value for a key (the
//! value is a pure function of the key and the underlying data), so
//! which insertion lands is unobservable.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::Mutex;

/// Default shard count (a power of two; enough to make contention on a
/// ≤ 64-way machine unlikely while keeping full scans cheap).
const DEFAULT_SHARDS: usize = 16;

/// A concurrent hash map sharded over independently locked segments.
pub struct ShardedMap<K, V, S = std::collections::hash_map::RandomState> {
    shards: Box<[Mutex<HashMap<K, V, S>>]>,
    hasher: S,
}

impl<K: Hash + Eq, V, S: BuildHasher + Default> Default for ShardedMap<K, V, S> {
    fn default() -> Self {
        ShardedMap::with_shards(DEFAULT_SHARDS)
    }
}

impl<K: Hash + Eq, V, S: BuildHasher + Default> ShardedMap<K, V, S> {
    /// Creates a map with `shards` segments (rounded up to ≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedMap {
            shards: (0..shards)
                .map(|_| Mutex::new(HashMap::with_hasher(S::default())))
                .collect(),
            hasher: S::default(),
        }
    }

    fn shard<Q>(&self, key: &Q) -> &Mutex<HashMap<K, V, S>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let h = self.hasher.hash_one(key);
        // Use the high bits: FxHash-style multiply hashers concentrate
        // entropy there.
        let idx = (h >> 57) as usize % self.shards.len();
        &self.shards[idx]
    }

    fn lock<'a>(m: &'a Mutex<HashMap<K, V, S>>) -> std::sync::MutexGuard<'a, HashMap<K, V, S>> {
        // Poisoning is ignored: the maps hold pure cache entries that
        // stay structurally valid if a panic unwinds mid-update.
        m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Clones the value stored under `key`, if any.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        Self::lock(self.shard(key)).get(key).cloned()
    }

    /// Inserts (or overwrites) `key → value`.
    pub fn insert(&self, key: K, value: V) {
        Self::lock(self.shard(&key)).insert(key, value);
    }

    /// Clones the value stored under `key`, first inserting `make()`
    /// when the key is absent — one shard lock for the lookup and the
    /// insertion, so racing callers of one key all get the value the
    /// first of them inserted. `make` runs under the shard lock: keep it
    /// cheap (an empty cell the caller fills afterwards, not the work).
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V
    where
        V: Clone,
    {
        Self::lock(self.shard(&key))
            .entry(key)
            .or_insert_with(make)
            .clone()
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| Self::lock(s).is_empty())
    }

    /// Removes every entry.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            Self::lock(s).clear();
        }
    }

    /// Folds over every entry, locking one shard at a time.
    ///
    /// The visit order is unspecified (shard then bucket order), so
    /// callers needing a deterministic outcome must reduce with an
    /// order-insensitive function — e.g. a minimum under a *total*
    /// order, as the oracle's smallest-superset search does.
    pub fn fold<A, F>(&self, init: A, mut f: F) -> A
    where
        F: FnMut(A, &K, &V) -> A,
    {
        let mut acc = init;
        for s in self.shards.iter() {
            let guard = Self::lock(s);
            for (k, v) in guard.iter() {
                acc = f(acc, k, v);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Map = ShardedMap<Vec<u32>, u64>;

    #[test]
    fn insert_get_roundtrip() {
        let m = Map::default();
        assert!(m.is_empty());
        m.insert(vec![1, 2], 7);
        m.insert(vec![3], 9);
        assert_eq!(m.get(&vec![1, 2]), Some(7));
        assert_eq!(m.get(&vec![3]), Some(9));
        assert_eq!(m.get(&vec![9]), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overwrite_is_last_wins() {
        let m = Map::default();
        m.insert(vec![1], 1);
        m.insert(vec![1], 2);
        assert_eq!(m.get(&vec![1]), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_or_insert_with_is_first_wins_and_lazy() {
        let m = Map::default();
        assert_eq!(m.get_or_insert_with(vec![1], || 1), 1);
        assert_eq!(m.get_or_insert_with(vec![1], || unreachable!()), 1);
        assert_eq!(m.len(), 1);
        // Racing callers of one key share the first insertion.
        let made = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = m.get_or_insert_with(vec![2], || {
                        made.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 10
                    });
                    assert_eq!(v, 10);
                });
            }
        });
        assert_eq!(made.into_inner(), 1);
    }

    #[test]
    fn fold_sees_every_entry() {
        let m = Map::default();
        for i in 0..100 {
            m.insert(vec![i], u64::from(i));
        }
        let sum = m.fold(0u64, |acc, _, &v| acc + v);
        assert_eq!(sum, (0..100).sum());
        // Order-insensitive min under a total order is deterministic.
        let min = m.fold(None::<(usize, Vec<u32>)>, |best, k, _| {
            let cand = (k.len(), k.clone());
            match best {
                Some(b) if b <= cand => Some(b),
                _ => Some(cand),
            }
        });
        assert_eq!(min, Some((1, vec![0])));
    }

    #[test]
    fn clear_empties_all_shards() {
        let m = Map::with_shards(4);
        for i in 0..64 {
            m.insert(vec![i], 0);
        }
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn concurrent_mixed_access() {
        let m = Map::default();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..500u32 {
                        m.insert(vec![t, i], u64::from(i));
                        assert_eq!(m.get(&vec![t, i]), Some(u64::from(i)));
                    }
                });
            }
        });
        assert_eq!(m.len(), 8 * 500);
    }

    #[test]
    fn single_shard_still_works() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(1);
        m.insert(5, 6);
        assert_eq!(m.get(&5), Some(6));
    }
}
