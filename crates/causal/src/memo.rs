//! The once-per-key memo behind every cache of the oracle: §6's
//! materialised contingency tables and cached entropies, a selection's
//! logical-dependency reports, and each oracle's verdict memo.
//!
//! Every value is a pure function of its key, so a [`Memo`] builds it
//! once and hands out clones. The map lock is held only to find or
//! insert a key's cell, never while the cell initialises: an `init` may
//! read the same memo (a contingency table is marginalised from a
//! cached superset, which is itself a memo entry), and askers of other
//! keys never wait on a build. Askers racing one key wait on its cell for
//! the first one's value instead of building it again. A panicking
//! `init` leaves its cell empty, so the next asker builds it afresh.

use hypdb_obs::sync::Mutex;
use hypdb_table::hash::FxHashMap;
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// A concurrent map from keys to values built at most once per key.
pub(crate) struct Memo<K, V> {
    cells: Mutex<FxHashMap<K, Arc<OnceLock<V>>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            cells: Mutex::new(FxHashMap::default()),
        }
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// The value under `key`, built by `init` unless a call built it
    /// before, and whether this call built it. The key is cloned into
    /// the map only on a miss.
    pub(crate) fn get_or_init<Q>(&self, key: &Q, init: impl FnOnce() -> V) -> (V, bool)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let cell = {
            let mut cells = self.cells.lock();
            match cells.get(key) {
                Some(cell) => Arc::clone(cell),
                None => Arc::clone(cells.entry(key.to_owned()).or_default()),
            }
        };
        let mut built = false;
        let value = cell.get_or_init(|| {
            built = true;
            init()
        });
        (value.clone(), built)
    }

    /// Number of keys asked for (a build in progress included).
    pub(crate) fn len(&self) -> usize {
        self.cells.lock().len()
    }

    /// Every built value, skipping cells still being built, in the hash
    /// map's order: what a brute-force search over the memo reads.
    #[cfg(test)]
    pub(crate) fn built(&self) -> Vec<V> {
        let cells = self.cells.lock();
        cells
            .values()
            .filter_map(|cell| cell.get().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    type Map = Memo<Vec<u32>, u64>;

    #[test]
    fn a_value_is_built_once_and_lazily() {
        let m = Map::default();
        assert_eq!(m.get_or_init(&[1u32][..], || 7), (7, true));
        assert_eq!(m.get_or_init(&[1u32][..], || unreachable!()), (7, false));
        assert_eq!(m.get_or_init(&vec![2], || 9), (9, true));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn racing_askers_see_one_build_per_key() {
        const KEYS: u32 = 16;
        for threads in [1, 2, 8] {
            let m = Map::default();
            let inits = AtomicUsize::new(0);
            let builds = AtomicUsize::new(0);
            let start = Barrier::new(threads);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        start.wait();
                        for k in 0..KEYS {
                            let (v, built) = m.get_or_init(&[k][..], || {
                                inits.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                                u64::from(k) * 3
                            });
                            assert_eq!(v, u64::from(k) * 3);
                            builds.fetch_add(usize::from(built), Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(inits.into_inner(), KEYS as usize, "{threads} threads");
            assert_eq!(builds.into_inner(), KEYS as usize, "{threads} threads");
            assert_eq!(m.len(), KEYS as usize);
        }
    }

    #[test]
    fn an_init_may_read_the_same_memo() {
        let m = Map::default();
        let (v, built) = m.get_or_init(&[1, 2][..], || {
            let (part, _) = m.get_or_init(&[1][..], || 5);
            let others: u64 = m.built().iter().sum();
            part + others
        });
        assert_eq!((v, built), (10, true));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn a_panicking_init_leaves_its_key_retryable() {
        let m = Map::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.get_or_init(&[4][..], || panic!("init failed"))
        }));
        assert!(caught.is_err());
        assert!(m.built().is_empty(), "nothing was built");
        assert_eq!(m.get_or_init(&[4][..], || 8), (8, true));
        assert_eq!(m.get_or_init(&[4][..], || unreachable!()), (8, false));
    }
}
