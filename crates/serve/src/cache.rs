//! The byte-bounded LRU report cache.
//!
//! PR 4's report cache grew without bound: every distinct request body
//! pinned its response bytes forever. This cache accounts the resident
//! bytes of every entry (canonical request + response body + fixed
//! bookkeeping overhead) against a budget and evicts least-recently-
//! used entries once the budget is exceeded. Entries are still keyed by
//! request fingerprint with the canonical request bytes compared on
//! every probe — a 64-bit fingerprint can collide, and a collision must
//! recompute, never serve the wrong report.
//!
//! One mutex guards the whole cache (recency updates need a global
//! order anyway); the critical sections are a hash probe or an O(n)
//! eviction scan, both trivial next to a pipeline run, and bodies are
//! handed out as `Arc<String>` so no lock is held while a response is
//! written.

use hypdb_table::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Fixed per-entry bookkeeping charge (hash-map slot, recency tick,
/// `Arc` headers) added to the measured string bytes.
const ENTRY_OVERHEAD: usize = 128;

/// One cached response: the canonical request it answers and the body.
struct Entry {
    request: String,
    body: Arc<String>,
    bytes: usize,
    /// Recency stamp (monotone; larger = more recent).
    used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
    resident_bytes: usize,
    evictions: u64,
    evicted_bytes: u64,
}

/// Point-in-time cache accounting (exported via `/metrics`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Resident entries.
    pub entries: usize,
    /// Bytes currently pinned by resident entries.
    pub resident_bytes: usize,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Total bytes reclaimed by eviction.
    pub evicted_bytes: u64,
}

/// A byte-bounded, last-recently-used-evicting response cache.
pub struct ByteLruCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ByteLruCache {
    /// A cache bounded at `capacity` resident bytes (min 1 — a zero
    /// budget degenerates to "never cache", which still works).
    pub fn new(capacity: usize) -> ByteLruCache {
        ByteLruCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured byte budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Probes for `key`, serving the body only when the stored
    /// canonical request byte-equals `request` (collision safety).
    /// A hit refreshes the entry's recency.
    pub fn get(&self, key: u64, request: &str) -> Option<Arc<String>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(&key)?;
        if entry.request != request {
            return None;
        }
        entry.used = tick;
        Some(Arc::clone(&entry.body))
    }

    /// Inserts (or overwrites) `key → (request, body)` and evicts
    /// least-recently-used entries until the budget holds again. An
    /// entry larger than the whole budget is evicted immediately —
    /// oversized responses are simply never resident.
    pub fn insert(&self, key: u64, request: String, body: Arc<String>) {
        let bytes = request.len() + body.len() + ENTRY_OVERHEAD;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let entry = Entry {
            request,
            body,
            bytes,
            used: inner.tick,
        };
        if let Some(old) = inner.map.insert(key, entry) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        while inner.resident_bytes > self.capacity {
            // O(n) LRU scan: the cache holds at most a few thousand
            // reports, and eviction is off the common (hit) path. The
            // `let … else` arms make an empty map end the loop instead
            // of panicking the request worker.
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(k, e)| (e.used, **k))
                .map(|(&k, _)| k)
            else {
                break;
            };
            let Some(evicted) = inner.map.remove(&victim) else {
                break;
            };
            inner.resident_bytes -= evicted.bytes;
            inner.evictions += 1;
            inner.evicted_bytes += evicted.bytes as u64;
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().map.is_empty()
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            entries: inner.map.len(),
            resident_bytes: inner.resident_bytes,
            evictions: inner.evictions,
            evicted_bytes: inner.evicted_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn hit_requires_matching_request_bytes() {
        let c = ByteLruCache::new(1 << 20);
        c.insert(7, "req-a".into(), body("report-a"));
        assert_eq!(
            c.get(7, "req-a").as_deref().map(String::as_str),
            Some("report-a")
        );
        // Same fingerprint, different canonical bytes: a collision must
        // miss, never serve the colliding victim's report.
        assert!(c.get(7, "req-b").is_none());
        assert!(c.get(8, "req-a").is_none());
    }

    #[test]
    fn eviction_is_lru_and_accounted() {
        // Budget for roughly two entries.
        let c = ByteLruCache::new(2 * (10 + ENTRY_OVERHEAD) + 16);
        c.insert(1, "1234".into(), body("aaaaaa")); // 10 string bytes
        c.insert(2, "1234".into(), body("bbbbbb"));
        assert_eq!(c.len(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1, "1234").is_some());
        c.insert(3, "1234".into(), body("cccccc"));
        assert_eq!(c.len(), 2);
        assert!(c.get(2, "1234").is_none(), "LRU entry evicted");
        assert!(c.get(1, "1234").is_some());
        assert!(c.get(3, "1234").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.evicted_bytes > 0);
        assert!(s.resident_bytes <= c.capacity());
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn overwrite_replaces_accounting() {
        let c = ByteLruCache::new(1 << 20);
        c.insert(1, "r".into(), body("short"));
        let before = c.stats().resident_bytes;
        c.insert(1, "r".into(), body("a much longer body than before"));
        let after = c.stats().resident_bytes;
        assert_eq!(c.len(), 1);
        assert!(after > before);
        c.insert(1, "r".into(), body("short"));
        assert_eq!(c.stats().resident_bytes, before, "accounting is exact");
    }

    #[test]
    fn oversized_entries_never_stay_resident() {
        let c = ByteLruCache::new(64);
        c.insert(1, "r".into(), body(&"x".repeat(500)));
        assert!(c.is_empty(), "entry larger than the budget is dropped");
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = ByteLruCache::new(1 << 20);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = t * 1000 + i;
                        c.insert(key, format!("req-{key}"), body("resp"));
                        assert!(c.get(key, &format!("req-{key}")).is_some());
                    }
                });
            }
        });
        assert_eq!(c.len(), 8 * 200);
    }
}
