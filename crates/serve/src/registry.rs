//! The dataset registry: named, shared, immutable tables — plus the
//! shared **oracle-cache slots** that let concurrent requests against
//! one `(dataset, WHERE selection)` pool their discovery work.
//!
//! The registry holds every dataset as an `Arc<Table>` built once at
//! startup and handed out to request workers without copying. Lookups
//! are lock-free reads of an immutable vector.
//!
//! Oracle slots: every `/analyze`–`/detect` request resolves its WHERE
//! selection up front and asks the registry for the
//! [`OracleCache`](hypdb_core::OracleCache) keyed by `(dataset, exact
//! row set)`. In-flight and future requests over the same selection
//! share one cache, so their independence statements hit one
//! another's contingency tables and entropies. Cache entries are pure functions of
//! the selected data (requests with different seeds, treatments, or
//! variable lists still share soundly), so sharing changes work, never
//! bytes.

use hypdb_core::{OracleCache, OracleStats};
use hypdb_table::sync::Mutex;
use hypdb_table::{RowSet, Table};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Upper bound on resident oracle-cache slots; beyond it the
/// least-recently-used slot (and its memoised tables) is dropped.
const MAX_ORACLE_SLOTS: usize = 64;

/// One shared oracle cache, bound to an exact `(dataset, selection)`.
struct OracleSlot {
    key: u64,
    /// The exact selection, compared on every probe: the 64-bit key is
    /// a hash and must never alias two different row sets into one
    /// cache (entries are pure functions of the *selection*).
    rows: RowSet,
    cache: Arc<OracleCache>,
    used: u64,
}

#[derive(Default)]
struct OracleSlots {
    slots: Vec<OracleSlot>,
    tick: u64,
    /// Counters of evicted slots, folded in at eviction time so the
    /// exported totals stay monotonic (a Prometheus counter that
    /// decreases reads as a reset and wrecks `rate()`).
    retired: OracleStats,
}

/// A name → table map, immutable once the server starts (the oracle
/// slots are interior-mutable and shared across clones).
#[derive(Clone, Default)]
pub struct Registry {
    entries: Vec<(String, Arc<Table>)>,
    oracles: Arc<Mutex<OracleSlots>>,
}

/// One row of `GET /datasets`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetInfo {
    /// Registry key (the `dataset` field of a request).
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Attribute names, schema order.
    pub attrs: Vec<String>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a copy of `table` under `name`. Last insert wins on
    /// duplicate names.
    pub fn insert(&mut self, name: impl Into<String>, table: &Table) -> &mut Self {
        let name = name.into();
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, Arc::new(table.clone())));
        self
    }

    /// Looks a dataset up by name (cheap `Arc` clone).
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| Arc::clone(t))
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `GET /datasets` listing, registration order.
    pub fn infos(&self) -> Vec<DatasetInfo> {
        self.entries
            .iter()
            .map(|(name, t)| DatasetInfo {
                name: name.clone(),
                rows: t.nrows(),
                attrs: t.schema().attrs().iter().map(|a| a.name.clone()).collect(),
            })
            .collect()
    }

    /// The shared [`OracleCache`] for one `(dataset, selection)` pair,
    /// created on first use. Concurrent requests that resolve to the
    /// same exact row set receive the same `Arc`, so their discovery
    /// phases serve one another's contingency/entropy lookups. Slots are bounded: the
    /// least-recently-used one is evicted past [`MAX_ORACLE_SLOTS`].
    pub fn oracle_cache(&self, dataset: &str, rows: &RowSet) -> Arc<OracleCache> {
        let key = selection_fingerprint(dataset, rows);
        let mut inner = self.oracles.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner
            .slots
            .iter_mut()
            .find(|s| s.key == key && s.rows == *rows)
        {
            slot.used = tick;
            return Arc::clone(&slot.cache);
        }
        let cache = Arc::new(OracleCache::new());
        inner.slots.push(OracleSlot {
            key,
            rows: rows.clone(),
            cache: Arc::clone(&cache),
            used: tick,
        });
        if inner.slots.len() > MAX_ORACLE_SLOTS {
            let victim = inner
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.used)
                .map(|(i, _)| i);
            // `if let` instead of `expect`: an empty slot list (cannot
            // happen past the length guard) skips eviction rather than
            // panicking the request worker holding the lock.
            if let Some(victim) = victim {
                let evicted = inner.slots.swap_remove(victim);
                inner.retired = inner.retired.merge(&evicted.cache.stats());
            }
        }
        cache
    }

    /// Aggregated work counters: every resident oracle slot plus the
    /// retired totals of evicted ones — the `/metrics` export of
    /// [`OracleStats`] (scans, cache hits, marginalisations, entropies,
    /// and the permutation counters), kept monotonic across slot
    /// eviction.
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle_snapshot().stats
    }

    /// Number of resident oracle-cache slots.
    pub fn oracle_slots(&self) -> usize {
        self.oracles.lock().slots.len()
    }

    /// Work counters *and* resident bytes from one pass under one lock
    /// — the snapshot `/metrics` and the CLI footer both render, so the
    /// two surfaces can never disagree (the old pair of
    /// [`Self::oracle_stats`]/[`Self::oracle_cache_bytes`] calls took
    /// the lock twice, and a request landing between them skewed bytes
    /// against counters).
    pub fn oracle_snapshot(&self) -> crate::metrics::OracleSnapshot {
        let inner = self.oracles.lock();
        crate::metrics::OracleSnapshot {
            stats: inner
                .slots
                .iter()
                .fold(inner.retired, |acc, s| acc.merge(&s.cache.stats())),
            cache_bytes: inner.slots.iter().map(|s| s.cache.cache_bytes()).sum(),
        }
    }

    /// Bytes pinned by contingency tables across every *resident*
    /// oracle slot — a gauge, not a counter: evicting a slot releases
    /// its tables, so the value falls with them (unlike the work
    /// counters, which fold into `retired` to stay monotonic).
    pub fn oracle_cache_bytes(&self) -> u64 {
        self.oracle_snapshot().cache_bytes
    }

    /// Names of the built-in demo datasets ([`Registry::builtin`]).
    pub const BUILTIN_NAMES: &'static [&'static str] = &["cancer", "adult", "berkeley"];

    /// Generates one built-in dataset by name at roughly `rows` rows
    /// (`None` for unknown names). Generation is seeded, so every
    /// process builds the identical table — what makes `hypdb analyze`
    /// byte-equal to a `hypdb serve` instance it never talked to.
    pub fn builtin_dataset(name: &str, rows: usize) -> Option<Table> {
        match name {
            "cancer" => Some(hypdb_datasets::cancer_data(rows, 1)),
            "adult" => Some(hypdb_datasets::adult_data(&hypdb_datasets::AdultConfig {
                rows,
                seed: 1994,
            })),
            "berkeley" => Some(hypdb_datasets::berkeley_data()),
            _ => None,
        }
    }

    /// All built-in demo datasets — what `hypdb serve` loads when no
    /// CSVs are given, and what the bench/CI smoke tests hammer.
    pub fn builtin(rows: usize) -> Registry {
        let mut reg = Registry::new();
        for name in Self::BUILTIN_NAMES {
            reg.insert(
                *name,
                // lint:allow(unwrap-in-request-path) — startup-only loading of BUILTIN_NAMES, every name is matched by builtin_dataset; no request is being served yet
                &Self::builtin_dataset(name, rows).expect("known builtin"),
            );
        }
        reg
    }
}

/// A stable 64-bit fingerprint of one `(dataset, exact selection)`: the
/// wire layer's FNV-1a over the name, folded through the seed mixer
/// with the selection's kind and row count and, for an explicit id
/// list, every id. A whole table is `(tag, n)` — no per-row work.
/// Probes still compare the full row set (see [`OracleSlot::rows`]);
/// the hash only routes.
fn selection_fingerprint(dataset: &str, rows: &RowSet) -> u64 {
    let (tag, ids): (u64, &[u32]) = match rows {
        RowSet::All(_) => (0xA11, &[]),
        RowSet::Ids(ids) => (0x1D5, ids),
    };
    let labels = [tag, rows.len() as u64].into_iter();
    hypdb_exec::seed::mix_all(
        hypdb_core::wire::fnv1a64(dataset.as_bytes()),
        labels.chain(ids.iter().map(|&row| u64::from(row))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_table::TableBuilder;

    fn tiny() -> Table {
        let mut b = TableBuilder::new(["T", "Y"]);
        b.push_row(["a", "0"]).unwrap();
        b.push_row(["b", "1"]).unwrap();
        b.finish()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut reg = Registry::new();
        assert!(reg.is_empty());
        reg.insert("tiny", &tiny());
        assert_eq!(reg.len(), 1);
        let t = reg.get("tiny").expect("registered");
        assert_eq!(t.nrows(), 2);
        assert!(reg.get("absent").is_none());
    }

    #[test]
    fn duplicate_names_last_wins() {
        let mut reg = Registry::new();
        reg.insert("d", &tiny());
        let mut b = TableBuilder::new(["T", "Y"]);
        b.push_row(["x", "9"]).unwrap();
        reg.insert("d", &b.finish());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("d").unwrap().nrows(), 1);
    }

    #[test]
    fn infos_describe_datasets() {
        let mut reg = Registry::new();
        reg.insert("tiny", &tiny());
        let infos = reg.infos();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].name, "tiny");
        assert_eq!(infos[0].rows, 2);
        assert_eq!(infos[0].attrs, vec!["T", "Y"]);
        // The listing serializes (it backs `GET /datasets`).
        let json = serde_json::to_string(&infos).unwrap();
        let back: Vec<DatasetInfo> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, infos);
    }

    #[test]
    fn oracle_slots_are_shared_per_selection() {
        let mut reg = Registry::new();
        reg.insert("tiny", &tiny());
        let all = RowSet::All(2);
        let a = reg.oracle_cache("tiny", &all);
        let b = reg.oracle_cache("tiny", &all);
        assert!(Arc::ptr_eq(&a, &b), "same selection shares one cache");
        assert_eq!(reg.oracle_slots(), 1);
        // A different selection (or dataset) gets its own slot.
        let sub = RowSet::Ids(vec![0]);
        let c = reg.oracle_cache("tiny", &sub);
        assert!(!Arc::ptr_eq(&a, &c));
        let d = reg.oracle_cache("other", &all);
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(reg.oracle_slots(), 3);
        // Clones of the registry (the server shares it across workers)
        // see the same slots.
        let clone = reg.clone();
        assert!(Arc::ptr_eq(&a, &clone.oracle_cache("tiny", &all)));
        assert_eq!(clone.oracle_slots(), 3);
    }

    #[test]
    fn whole_tables_route_on_tag_and_count_alone() {
        use hypdb_exec::seed::mix_all;
        let name = hypdb_core::wire::fnv1a64(b"d");
        // The key of `All(n)` is a closed form of (name, tag, n): nothing
        // iterates the rows, so the largest table costs what the
        // smallest does — `All(u32::MAX)` here, which a per-row loop
        // would never get through.
        for n in [0, 2, 150_000, u32::MAX] {
            let key = selection_fingerprint("d", &RowSet::All(n));
            assert_eq!(key, mix_all(name, [0xA11, u64::from(n)]), "n = {n}");
        }
        let reg = Registry::new();
        let huge = RowSet::All(u32::MAX);
        assert!(Arc::ptr_eq(
            &reg.oracle_cache("d", &huge),
            &reg.oracle_cache("d", &huge)
        ));
        // Two tables of different sizes never share a key…
        let keys: Vec<u64> = (0..2_000u32)
            .map(|n| selection_fingerprint("d", &RowSet::All(n)))
            .collect();
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), keys.len());
        // …and a whole table never shares a *slot* with the id list that
        // happens to name the same rows: `rows ==` tells them apart, and
        // the tag keeps their keys apart too.
        for n in [0u32, 1, 2, 1_000] {
            let (all, ids) = (RowSet::All(n), RowSet::Ids((0..n).collect()));
            assert_ne!(all, ids);
            assert_ne!(
                selection_fingerprint("d", &all),
                selection_fingerprint("d", &ids),
                "n = {n}"
            );
            let before = reg.oracle_slots();
            let (a, b) = (reg.oracle_cache("d", &all), reg.oracle_cache("d", &ids));
            assert!(!Arc::ptr_eq(&a, &b), "n = {n}");
            assert_eq!(reg.oracle_slots(), before + 2);
            assert!(Arc::ptr_eq(&a, &reg.oracle_cache("d", &all)));
            assert!(Arc::ptr_eq(&b, &reg.oracle_cache("d", &ids)));
        }
    }

    #[test]
    fn a_key_collision_never_merges_two_selections() {
        // Whatever the hash does, a probe compares the rows: force two
        // different selections onto one key and they still get two slots.
        let reg = Registry::new();
        let (a, b) = (RowSet::Ids(vec![1, 2]), RowSet::Ids(vec![3]));
        let first = reg.oracle_cache("d", &a);
        reg.oracles.lock().slots[0].key = selection_fingerprint("d", &b);
        assert!(!Arc::ptr_eq(&first, &reg.oracle_cache("d", &b)));
        assert_eq!(reg.oracle_slots(), 2);
    }

    #[test]
    fn oracle_slots_are_bounded() {
        let reg = Registry::new();
        for i in 0..(MAX_ORACLE_SLOTS + 10) {
            reg.oracle_cache("d", &RowSet::Ids(vec![i as u32]));
        }
        assert_eq!(reg.oracle_slots(), MAX_ORACLE_SLOTS);
    }

    #[test]
    fn evicting_a_slot_drops_its_preprocess_memo() {
        let mut reg = Registry::new();
        reg.insert("tiny", &tiny());
        let table = reg.get("tiny").unwrap();
        let attrs: Vec<_> = table.schema().attr_ids().collect();
        let pcfg = hypdb_core::HypDbConfig::default()
            .preprocess
            .expect("on by default");
        let all = RowSet::All(2);
        let memo = |reg: &Registry| {
            let image = hypdb_table::SelectionImage::new(&table, &all);
            reg.oracle_cache("tiny", &all)
                .preprocess(&image, &attrs, &pcfg)
        };
        let first = {
            let report = memo(&reg);
            assert!(Arc::ptr_eq(&report, &memo(&reg)), "resident slot: a hit");
            Arc::downgrade(&report)
        };
        assert!(first.upgrade().is_some(), "held by the slot alone");
        // Touch enough other selections to push the slot out.
        for i in 0..MAX_ORACLE_SLOTS {
            reg.oracle_cache("tiny", &RowSet::Ids(vec![i as u32]));
        }
        assert!(first.upgrade().is_none(), "the memo went with its slot");
        // The selection starts over on a fresh slot.
        assert!(Arc::ptr_eq(&memo(&reg), &memo(&reg)));
    }

    #[test]
    fn oracle_stats_aggregate_slots() {
        let reg = Registry::new();
        let rows = RowSet::All(4);
        let cache = reg.oracle_cache("d", &rows);
        assert_eq!(reg.oracle_stats(), OracleStats::default());
        // Counters accumulated through the shared cache surface in the
        // aggregate (reset via the cache handle works too).
        cache.reset_stats();
        assert_eq!(reg.oracle_stats().tests, 0);
    }

    #[test]
    fn oracle_cache_bytes_track_resident_slots() {
        let reg = Registry::new();
        assert_eq!(reg.oracle_cache_bytes(), 0);
        // Fresh slots hold no tables yet; the gauge stays zero until an
        // analysis materialises contingency tables through the cache
        // (exercised end-to-end by the server integration tests).
        reg.oracle_cache("d", &RowSet::All(4));
        assert_eq!(reg.oracle_cache_bytes(), 0);
    }

    #[test]
    fn builtin_has_the_demo_datasets() {
        let reg = Registry::builtin(200);
        for name in ["cancer", "adult", "berkeley"] {
            assert!(reg.get(name).is_some(), "missing builtin `{name}`");
        }
    }
}
