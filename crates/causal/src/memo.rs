//! The once-per-key memo behind every cache of the oracle: §6's
//! materialised contingency tables and cached entropies, a selection's
//! logical-dependency reports, and each oracle's verdict memo.
//!
//! Every value is a pure function of its key, so a [`Memo`] builds it
//! once and hands out clones. The map lock is held only to find or
//! insert a key's cell, never while the cell initialises: an `init` may
//! read the same memo (a contingency table is marginalised from a
//! cached superset found by [`Memo::fold`]), and askers of other keys
//! never wait on a build. Askers racing one key wait on its cell for
//! the first one's value instead of building it again. A panicking
//! `init` leaves its cell empty, so the next asker builds it afresh.

use hypdb_table::hash::FxHashMap;
use hypdb_table::sync::Mutex;
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

    /// Folds over every built entry under the map lock, skipping cells
    /// still being built. The visit order is the hash map's, so a
    /// caller that needs a deterministic outcome must reduce with an
    /// order-insensitive function — e.g. a minimum under a *total*
    /// order, as the oracle's smallest-superset search does.
    pub(crate) fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        self.cells
            .lock()
            .iter()
            .fold(init, |acc, (key, cell)| match cell.get() {
                Some(value) => f(acc, key, value),
                None => acc,
            })
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
            let others = m.fold(0, |acc, _, &v| acc + v);
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
        assert_eq!(m.fold(0, |n, _, _| n + 1), 0, "nothing was built");
        assert_eq!(m.get_or_init(&[4][..], || 8), (8, true));
        assert_eq!(m.get_or_init(&[4][..], || unreachable!()), (8, false));
    }

    #[test]
    fn fold_sees_every_built_entry() {
        let m = Map::default();
        for i in 0..100 {
            m.get_or_init(&[i][..], || u64::from(i));
        }
        assert_eq!(m.fold(0u64, |acc, _, &v| acc + v), (0..100).sum());
        // An order-insensitive min under a total order is deterministic.
        let min = m.fold(None::<Vec<u32>>, |best, k, _| match best {
            Some(b) if b <= *k => Some(b),
            _ => Some(k.clone()),
        });
        assert_eq!(min, Some(vec![0]));
    }
}
