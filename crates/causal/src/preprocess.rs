//! Dropping logical dependencies before discovery (§4).
//!
//! Integrity constraints confuse constraint-based discovery: an
//! approximate FD `X ⇒ T` (e.g. `AirportWAC ⇒ Airport`) makes `T`
//! conditionally independent of everything given `X`, severing it from
//! the DAG; key-like attributes (`ID`, `FlightNum`, `TailNum`)
//! participate in such FDs by construction. HypDB therefore
//!
//! 1. discards attributes *equivalent* to another attribute
//!    (`H(X|Y) ≈ 0 ∧ H(Y|X) ≈ 0`), keeping one representative,
//! 2. discards *key-like* attributes, detected by the paper's
//!    entropy-scaling heuristic: entropy is a property of the generative
//!    distribution, not of the sample size — an attribute whose entropy
//!    keeps growing with the sample size is a key fragment, not a
//!    category.

use hypdb_exec::ThreadPool;
use hypdb_stats::entropy::entropy_plugin;
use hypdb_table::{AttrId, RowSet, SelectionImage, Table};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration for logical-dependency dropping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreprocessConfig {
    /// `ε` for the approximate-FD test `H(X|Y) ≤ ε ∧ H(Y|X) ≤ ε`.
    pub fd_epsilon: f64,
    /// Number of nested subsample sizes for the key heuristic.
    pub key_levels: usize,
    /// Entropy growth (nats) per doubling of the sample size above which
    /// an attribute is considered key-like.
    pub key_growth_threshold: f64,
    /// Seed for the subsampling.
    pub seed: u64,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            fd_epsilon: 0.05,
            key_levels: 4,
            key_growth_threshold: 0.35,
            seed: 0xFD,
        }
    }
}

impl PreprocessConfig {
    /// The configuration as exact bits — the memo key of
    /// [`crate::oracle::OracleCache::preprocess`] (two configurations
    /// share a report only when every field is identical).
    pub(crate) fn bits(&self) -> [u64; 4] {
        [
            self.fd_epsilon.to_bits(),
            self.key_levels as u64,
            self.key_growth_threshold.to_bits(),
            self.seed,
        ]
    }
}

/// What was dropped and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreprocessReport {
    /// Attributes that survive.
    pub kept: Vec<AttrId>,
    /// `(dropped, kept_representative)` pairs from the FD test.
    pub dropped_fd: Vec<(AttrId, AttrId)>,
    /// Attributes dropped as key-like.
    pub dropped_keys: Vec<AttrId>,
}

/// Runs both filters over `attrs` of `table` restricted to `rows`: an
/// image of the selection for this one call, then
/// [`drop_logical_dependencies_in`].
pub fn drop_logical_dependencies(
    table: &Table,
    rows: &RowSet,
    attrs: &[AttrId],
    cfg: &PreprocessConfig,
) -> PreprocessReport {
    drop_logical_dependencies_in(&SelectionImage::new(table, rows), attrs, cfg)
}

/// Runs both filters over `attrs` of the selection `image` holds.
///
/// The per-attribute work of both filters — the entropy-scaling scan of
/// the key heuristic and the marginal entropies the FD test compares —
/// fans out over the global worker pool; each attribute's verdict is
/// independent of the others, so the report is identical at any thread
/// count.
pub fn drop_logical_dependencies_in(
    image: &SelectionImage<'_>,
    attrs: &[AttrId],
    cfg: &PreprocessConfig,
) -> PreprocessReport {
    let table = image.table();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pool = ThreadPool::current();

    // --- Key-like attributes (entropy-vs-sample-size scaling). ---
    let n = image.rows().len();
    let mut dropped_keys = Vec::new();
    let mut survivors: Vec<AttrId> = Vec::new();
    if n >= 16 {
        // Nested subsamples of sizes n, n/2, n/4, …
        let mut sizes = Vec::new();
        let mut s = n;
        for _ in 0..cfg.key_levels {
            sizes.push(s);
            s /= 2;
            if s < 8 {
                break;
            }
        }
        sizes.reverse(); // ascending

        // One shared shuffled order of the selection's positions =>
        // nested samples (drawn once, up front, so the parallel
        // per-attribute scans share it read-only).
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        // A sample is a set: what each size adds to the one before is
        // tallied as one run of ascending positions, a forward walk of
        // the image's column. `step[p]` is the size that takes `p`.
        let mut step = vec![0u8; n];
        let mut runs: Vec<Vec<u32>> = Vec::with_capacity(sizes.len());
        let mut taken = 0;
        for (k, &size) in sizes.iter().enumerate() {
            for &p in &order[taken..size] {
                step[p as usize] = k as u8;
            }
            runs.push(Vec::with_capacity(size - taken));
            taken = size;
        }
        if !runs.is_empty() {
            for (p, &k) in step.iter().enumerate() {
                runs[k as usize].push(p as u32);
            }
        }
        let key_like_flags = pool.parallel_map(attrs, |_, &a| {
            let card = table.cardinality(a).max(1) as usize;
            let mut prev_h: Option<f64> = None;
            let mut growths = Vec::new();
            let mut counts = vec![0u64; card];
            for run in &runs {
                image.tally(a, run, &mut counts);
                let h = entropy_plugin(counts.iter().copied());
                if let Some(p) = prev_h {
                    growths.push(h - p);
                }
                prev_h = Some(h);
            }
            // Key-like: entropy grows by more than the threshold at
            // every doubling (monotone scaling with sample size).
            !growths.is_empty() && growths.iter().all(|&g| g > cfg.key_growth_threshold)
        });
        for (&a, key_like) in attrs.iter().zip(key_like_flags) {
            if key_like {
                dropped_keys.push(a);
            } else {
                survivors.push(a);
            }
        }
    } else {
        survivors = attrs.to_vec();
    }

    // --- Approximate-FD equivalences among survivors. ---
    // Marginal entropies in parallel up front; the pairwise scan below
    // is inherently sequential (each verdict depends on what is already
    // kept), but each attribute's *round* of candidate joint entropies
    // is submitted as one parallel batch: the verdict only needs the
    // first matching representative in kept order, which is recovered
    // from the batch results exactly as the sequential scan would.
    let marginal_entropies = pool.parallel_map(&survivors, |_, &a| {
        image
            .count(&[a])
            .entropy(hypdb_stats::EntropyEstimator::PlugIn)
    });
    let mut dropped_fd = Vec::new();
    let mut kept: Vec<AttrId> = Vec::new();
    let mut entropies: Vec<f64> = Vec::new();
    for (&a, &h_a) in survivors.iter().zip(&marginal_entropies) {
        // Quick reject: equivalence needs similar entropies; only the
        // candidates passing the screen pay a joint-table pass.
        let cand_idx: Vec<usize> = kept
            .iter()
            .enumerate()
            .filter(|(i, _)| (h_a - entropies[*i]).abs() <= 2.0 * cfg.fd_epsilon)
            .map(|(i, _)| i)
            .collect();
        let joint_entropies = pool.parallel_map(&cand_idx, |_, &i| {
            image
                .count(&[a, kept[i]])
                .entropy(hypdb_stats::EntropyEstimator::PlugIn)
        });
        let mut representative: Option<AttrId> = None;
        for (&i, &h_ab) in cand_idx.iter().zip(&joint_entropies) {
            let h_a_given_b = h_ab - entropies[i];
            let h_b_given_a = h_ab - h_a;
            if h_a_given_b <= cfg.fd_epsilon && h_b_given_a <= cfg.fd_epsilon {
                representative = Some(kept[i]);
                break;
            }
        }
        match representative {
            Some(b) => dropped_fd.push((a, b)),
            None => {
                kept.push(a);
                entropies.push(h_a);
            }
        }
    }

    PreprocessReport {
        kept,
        dropped_fd,
        dropped_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_table::contingency::ContingencyTable;
    use hypdb_table::{Table, TableBuilder};

    /// carrier/airport categorical data + `wac` (bijective with
    /// airport) + `id` (unique per row).
    fn sample(n: usize) -> Table {
        let mut b = TableBuilder::new(["carrier", "airport", "wac", "id"]);
        let airports = ["COS", "MFE", "MTJ", "ROC"];
        let wacs = ["41", "74", "82", "22"]; // one per airport
        for i in 0..n {
            let a = i % 4;
            let carrier = if (i / 4) % 2 == 0 { "AA" } else { "UA" };
            let id = i.to_string();
            b.push_row([carrier, airports[a], wacs[a], id.as_str()])
                .unwrap();
        }
        b.finish()
    }

    /// [`drop_logical_dependencies`] as it was before the selection
    /// image: the key heuristic reads `codes[order[i] as usize]` through a
    /// shuffled list of row ids, the FD test counts from storage.
    fn reference(
        table: &Table,
        rows: &RowSet,
        attrs: &[AttrId],
        cfg: &PreprocessConfig,
    ) -> PreprocessReport {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let pool = ThreadPool::current();

        // --- Key-like attributes (entropy-vs-sample-size scaling). ---
        let row_ids: Vec<u32> = rows.iter().collect();
        let n = row_ids.len();
        let mut dropped_keys = Vec::new();
        let mut survivors: Vec<AttrId> = Vec::new();
        if n >= 16 {
            // Nested subsamples of sizes n, n/2, n/4, …
            let mut sizes = Vec::new();
            let mut s = n;
            for _ in 0..cfg.key_levels {
                sizes.push(s);
                s /= 2;
                if s < 8 {
                    break;
                }
            }
            sizes.reverse(); // ascending

            // One shared shuffled order => nested samples (drawn once, up
            // front, so the parallel per-attribute scans share it read-only).
            let mut order = row_ids.clone();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let key_like_flags = pool.parallel_map(attrs, |_, &a| {
                let codes = table.codes(a);
                let card = table.cardinality(a).max(1) as usize;
                let mut prev_h: Option<f64> = None;
                let mut growths = Vec::new();
                let mut counts = vec![0u64; card];
                let mut consumed = 0usize;
                for &size in &sizes {
                    while consumed < size {
                        counts[codes[order[consumed] as usize] as usize] += 1;
                        consumed += 1;
                    }
                    let h = entropy_plugin(counts.iter().copied());
                    if let Some(p) = prev_h {
                        growths.push(h - p);
                    }
                    prev_h = Some(h);
                }
                // Key-like: entropy grows by more than the threshold at
                // every doubling (monotone scaling with sample size).
                !growths.is_empty() && growths.iter().all(|&g| g > cfg.key_growth_threshold)
            });
            for (&a, key_like) in attrs.iter().zip(key_like_flags) {
                if key_like {
                    dropped_keys.push(a);
                } else {
                    survivors.push(a);
                }
            }
        } else {
            survivors = attrs.to_vec();
        }

        // --- Approximate-FD equivalences among survivors. ---
        // Marginal entropies in parallel up front; the pairwise scan below
        // is inherently sequential (each verdict depends on what is already
        // kept), but each attribute's *round* of candidate joint entropies
        // is submitted as one parallel batch: the verdict only needs the
        // first matching representative in kept order, which is recovered
        // from the batch results exactly as the sequential scan would.
        let marginal_entropies = pool.parallel_map(&survivors, |_, &a| {
            ContingencyTable::from_table(table, rows, &[a])
                .entropy(hypdb_stats::EntropyEstimator::PlugIn)
        });
        let mut dropped_fd = Vec::new();
        let mut kept: Vec<AttrId> = Vec::new();
        let mut entropies: Vec<f64> = Vec::new();
        for (&a, &h_a) in survivors.iter().zip(&marginal_entropies) {
            // Quick reject: equivalence needs similar entropies; only the
            // candidates passing the screen pay a joint-table pass.
            let cand_idx: Vec<usize> = kept
                .iter()
                .enumerate()
                .filter(|(i, _)| (h_a - entropies[*i]).abs() <= 2.0 * cfg.fd_epsilon)
                .map(|(i, _)| i)
                .collect();
            let joint_entropies = pool.parallel_map(&cand_idx, |_, &i| {
                ContingencyTable::from_table(table, rows, &[a, kept[i]])
                    .entropy(hypdb_stats::EntropyEstimator::PlugIn)
            });
            let mut representative: Option<AttrId> = None;
            for (&i, &h_ab) in cand_idx.iter().zip(&joint_entropies) {
                let h_a_given_b = h_ab - entropies[i];
                let h_b_given_a = h_ab - h_a;
                if h_a_given_b <= cfg.fd_epsilon && h_b_given_a <= cfg.fd_epsilon {
                    representative = Some(kept[i]);
                    break;
                }
            }
            match representative {
                Some(b) => dropped_fd.push((a, b)),
                None => {
                    kept.push(a);
                    entropies.push(h_a);
                }
            }
        }

        PreprocessReport {
            kept,
            dropped_fd,
            dropped_keys,
        }
    }

    /// The reports the old loops wrote, on every dataset shape: key-like
    /// attributes and FD twins (flight), a wide key (adult), neither
    /// (cancer, random data), selections of every size around the
    /// sixteen-row threshold, whole tables and id lists.
    #[test]
    fn reports_equal_the_reference() {
        use hypdb_datasets as ds;
        let flight = ds::flight_data(&ds::FlightConfig {
            rows: 6_000,
            total_attrs: 24,
            seed: 7,
        });
        let adult = ds::adult_data(&ds::AdultConfig {
            rows: 5_000,
            seed: 3,
        });
        let cancer = ds::cancer_data(2_000, 11);
        let random = ds::random_data(&ds::RandomDataConfig {
            rows: 3_000,
            seed: 5,
            ..Default::default()
        })
        .table;
        let base = PreprocessConfig::default();
        let configs = [
            base,
            PreprocessConfig { seed: 99, ..base },
            PreprocessConfig {
                key_levels: 9,
                key_growth_threshold: 0.1,
                ..base
            },
            PreprocessConfig {
                key_levels: 0,
                fd_epsilon: 0.5,
                ..base
            },
        ];
        let mut keys = 0;
        let mut twins = 0;
        for (name, t) in [
            ("flight", &flight),
            ("adult", &adult),
            ("cancer", &cancer),
            ("random", &random),
        ] {
            let attrs: Vec<AttrId> = t.schema().attr_ids().collect();
            let n = t.nrows() as u32;
            let third = RowSet::Ids((0..n).filter(|r| r % 3 != 1).collect());
            let mut selections = vec![t.all_rows(), third];
            // Around the threshold below which no key is looked for.
            selections
                .extend([0, 15, 16, 17, 31].map(|k| RowSet::Ids((0..k).map(|r| r * 7).collect())));
            for rows in &selections {
                for cfg in &configs {
                    let want = reference(t, rows, &attrs, cfg);
                    let what = format!("{name}, {} rows, {cfg:?}", rows.len());
                    assert_eq!(
                        drop_logical_dependencies(t, rows, &attrs, cfg),
                        want,
                        "{what}"
                    );
                    assert_eq!(
                        drop_logical_dependencies(t, rows, &attrs[1..], cfg),
                        reference(t, rows, &attrs[1..], cfg),
                        "{what}, without the first attribute"
                    );
                    keys += want.dropped_keys.len();
                    twins += want.dropped_fd.len();
                }
            }
        }
        assert!(keys > 0 && twins > 0, "{keys} keys, {twins} twins dropped");
        // …and at any thread count.
        let attrs: Vec<AttrId> = flight.schema().attr_ids().collect();
        let want = reference(&flight, &flight.all_rows(), &attrs, &base);
        assert!(!want.dropped_keys.is_empty() && !want.dropped_fd.is_empty());
        for threads in [2, 4] {
            hypdb_exec::set_global_threads(threads);
            let got = drop_logical_dependencies(&flight, &flight.all_rows(), &attrs, &base);
            hypdb_exec::set_global_threads(0);
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn detects_bijective_fd() {
        let t = sample(1024);
        let attrs: Vec<AttrId> = t.schema().attr_ids().collect();
        let rows = t.all_rows();
        let rep = drop_logical_dependencies(&t, &rows, &attrs, &PreprocessConfig::default());
        let airport = t.attr("airport").unwrap();
        let wac = t.attr("wac").unwrap();
        // wac should be dropped in favour of airport (first-kept wins).
        assert!(rep.dropped_fd.contains(&(wac, airport)), "{rep:?}");
        assert!(rep.kept.contains(&airport));
    }

    #[test]
    fn detects_key_attribute() {
        let t = sample(1024);
        let attrs: Vec<AttrId> = t.schema().attr_ids().collect();
        let rows = t.all_rows();
        let rep = drop_logical_dependencies(&t, &rows, &attrs, &PreprocessConfig::default());
        let id = t.attr("id").unwrap();
        assert!(rep.dropped_keys.contains(&id), "{rep:?}");
        assert!(!rep.kept.contains(&id));
    }

    #[test]
    fn keeps_ordinary_attributes() {
        let t = sample(1024);
        let attrs: Vec<AttrId> = t.schema().attr_ids().collect();
        let rows = t.all_rows();
        let rep = drop_logical_dependencies(&t, &rows, &attrs, &PreprocessConfig::default());
        assert!(rep.kept.contains(&t.attr("carrier").unwrap()));
        assert!(rep.kept.contains(&t.attr("airport").unwrap()));
        // Exactly airport+carrier survive.
        assert_eq!(rep.kept.len(), 2);
    }

    #[test]
    fn tiny_tables_skip_key_heuristic() {
        let t = sample(8);
        let attrs: Vec<AttrId> = t.schema().attr_ids().collect();
        let rows = t.all_rows();
        let rep = drop_logical_dependencies(&t, &rows, &attrs, &PreprocessConfig::default());
        assert!(rep.dropped_keys.is_empty());
    }

    #[test]
    fn self_equivalence_not_tested() {
        // A single attribute can never be dropped.
        let t = sample(256);
        let carrier = t.attr("carrier").unwrap();
        let rows = t.all_rows();
        let rep = drop_logical_dependencies(&t, &rows, &[carrier], &PreprocessConfig::default());
        assert_eq!(rep.kept, vec![carrier]);
    }

    #[test]
    fn memo_is_keyed_by_candidates_and_every_config_bit() {
        use crate::oracle::OracleCache;
        use std::sync::Arc;
        let t = sample(1024);
        let rows = t.all_rows();
        let all: Vec<AttrId> = t.schema().attr_ids().collect();
        let cache = OracleCache::new();
        let base = PreprocessConfig::default();
        // Keeps the bijective twin; shuffles differently; never calls a
        // key a key.
        let variants = [
            base,
            PreprocessConfig {
                fd_epsilon: -1.0,
                ..base
            },
            PreprocessConfig { seed: 7, ..base },
            PreprocessConfig {
                key_levels: 1,
                ..base
            },
            PreprocessConfig {
                key_growth_threshold: 100.0,
                ..base
            },
        ];
        let mut held = Vec::new();
        for attrs in [&all[..], &all[1..], &all[..3]] {
            for cfg in &variants {
                let image = SelectionImage::new(&t, &rows);
                let first = cache.preprocess(&image, attrs, cfg);
                assert_eq!(*first, drop_logical_dependencies(&t, &rows, attrs, cfg));
                let again = cache.preprocess(&image, attrs, cfg);
                assert!(Arc::ptr_eq(&first, &again), "the second call is a hit");
                held.push(first);
            }
        }
        for (i, a) in held.iter().enumerate() {
            for b in &held[i + 1..] {
                assert!(!Arc::ptr_eq(a, b), "two keys never share an entry");
            }
        }
        let reports: Vec<&PreprocessReport> = held.iter().map(|r| &**r).collect();
        assert_ne!(reports[0], reports[1], "ε < 0 keeps `wac`");
        assert_ne!(reports[0], reports[3], "one subsample size finds no key");
        assert_ne!(reports[0], reports[5], "another candidate list");
    }
}
