//! Conditional-independence oracles (§4 assumes one; §5–§6 build it).
//!
//! The [`CiOracle`] trait is what every discovery algorithm consumes.
//! Two implementations:
//!
//! * [`DataOracle`] — backed by a table selection. Implements the §6
//!   optimisations behind feature flags: **entropy caching** (shared
//!   entropies across CMI statements) and **contingency-table
//!   materialisation** (marginals derived from cached supersets instead
//!   of re-scanning rows). The test procedure is configurable: χ², MIT
//!   with group sampling, or the HyMIT hybrid. Each distinct statement
//!   is settled once per oracle (its verdict memo), by one dispatch:
//!   χ² from the cached entropies, or a screened [`MitJob`] for
//!   [`mit_settle_one`]. HyMIT's switch and the acceptance gate
//!   ([`CiOracle::reliable`]) both read [`MitConfig::regime`].
//! * [`GraphOracle`] — exact d-separation on a known DAG; the
//!   noise-free oracle used to validate discovery algorithms.
//!
//! Both count their work in an [`OracleStats`] behind a mutex; the
//! counters only grow. [`OracleStats::EXPORTED`] declares each exported
//! counter's `/metrics` family and help text once.

use crate::preprocess::{drop_logical_dependencies_in, PreprocessConfig, PreprocessReport};
use hypdb_exec::{seed, ShardedMap};
use hypdb_graph::dag::Dag;
use hypdb_graph::dsep::d_separated_pair;
use hypdb_stats::independence::{
    mit_settle_one, MitConfig, MitJob, Regime, Screening, StageReport, Strata, TestMethod,
    TestOutcome,
};
use hypdb_stats::EntropyEstimator;
use hypdb_table::contingency::ContingencyTable;
use hypdb_table::hash::FxBuildHasher;
use hypdb_table::sync::Mutex;
use hypdb_table::{AttrId, RowSet, SelectionImage, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Variable index within an oracle (0-based, oracle-local).
pub type Var = usize;

/// Which independence-test procedure a [`DataOracle`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IndependenceTestKind {
    /// Asymptotic χ² (G) test.
    ChiSquared,
    /// MIT over a weighted sample of at most `max_groups` conditioning
    /// groups (exact MIT when there are no more groups than that).
    MitSampled {
        /// Maximum number of groups to keep.
        max_groups: usize,
    },
    /// HyMIT: χ² unless [`MitConfig::regime`] calls the statement
    /// sparse, MIT (with auto group sampling) otherwise.
    HyMit,
}

/// Oracle configuration. The CMI the oracle reports and caches is
/// always the Miller–Madow estimate (§2); permutation tests compare
/// plug-in statistics inside [`hypdb_stats::independence`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CiConfig {
    /// Significance level for `independent` decisions (§7.3 uses 0.01).
    pub alpha: f64,
    /// Test procedure.
    pub kind: IndependenceTestKind,
    /// Permutation-test parameters (m, β).
    pub mit: MitConfig,
    /// §6 "Caching entropy".
    pub cache_entropies: bool,
    /// §6 "Materializing contingency tables".
    pub materialize: bool,
    /// RNG seed for the permutation tests.
    pub seed: u64,
}

impl Default for CiConfig {
    fn default() -> Self {
        CiConfig {
            alpha: 0.01,
            kind: IndependenceTestKind::HyMit,
            mit: MitConfig::default(),
            cache_entropies: true,
            materialize: true,
            seed: 0x48_7970_4442, // "HypDB"
        }
    }
}

/// An [`OracleStats::EXPORTED`] entry: family name, help text, field.
type Exported = (&'static str, &'static str, fn(&mut OracleStats) -> &mut u64);

/// Work counters, the instrumentation behind Fig 6(a)/(c).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStats {
    /// Statements asked: every `test` call, whether it was settled or
    /// answered from the oracle's verdict memo ([`Self::verdict_hits`]).
    pub tests: u64,
    /// Full row scans to build a contingency table.
    pub table_scans: u64,
    /// Contingency tables served from the materialisation cache.
    pub count_cache_hits: u64,
    /// Contingency tables derived by marginalising a cached superset.
    pub marginalizations: u64,
    /// Entropy values served from the entropy cache.
    pub entropy_hits: u64,
    /// Entropy values computed.
    pub entropy_misses: u64,
    /// Always 0: statements are settled one call at a time. The field
    /// stays until the perf ledger's `causal.batched_statements` row
    /// (which reads it) is dropped.
    pub batched_statements: u64,
    /// Always 0, kept for the ledger's `causal.speculative_skipped`
    /// row like [`Self::batched_statements`].
    pub speculative_skipped: u64,
    /// Permutations actually evaluated across every settled MIT job
    /// (the staged engine's work metric; screening savings show here).
    pub mit_permutations: u64,
    /// Permutation jobs whose verdict settled at a screening
    /// checkpoint, never paying the full budget.
    pub mit_stage1_settled: u64,
    /// Screened permutation jobs that landed near alpha and escalated
    /// to their full budget.
    pub mit_escalated: u64,
    /// Statements answered from the oracle's verdict memo: asked
    /// before on the same oracle, so not settled again (and not in the
    /// `mit_*` counters a second time).
    pub verdict_hits: u64,
}

impl OracleStats {
    /// Every exported counter, in `/metrics` order: its family name,
    /// help text and field — the one list that [`Self::merge`],
    /// [`Self::since`] and the `/metrics` render loop over. The always-0
    /// [`Self::batched_statements`] and [`Self::speculative_skipped`]
    /// are not exported.
    #[rustfmt::skip]
    pub const EXPORTED: [Exported; 10] = [
        ("hypdb_oracle_tests_total", "independence statements asked", |s| &mut s.tests),
        ("hypdb_oracle_verdict_hits_total", "statements answered from an oracle's verdict memo", |s| &mut s.verdict_hits),
        ("hypdb_oracle_table_scans_total", "full row scans to build a contingency table", |s| &mut s.table_scans),
        ("hypdb_oracle_count_cache_hits_total", "contingency tables served from the materialisation cache", |s| &mut s.count_cache_hits),
        ("hypdb_oracle_marginalizations_total", "contingency tables derived from a cached superset", |s| &mut s.marginalizations),
        ("hypdb_oracle_entropy_hits_total", "entropies served from the entropy cache", |s| &mut s.entropy_hits),
        ("hypdb_oracle_entropy_misses_total", "entropies computed", |s| &mut s.entropy_misses),
        ("hypdb_mit_permutations_total", "permutations evaluated across settled MIT jobs", |s| &mut s.mit_permutations),
        ("hypdb_mit_stage1_settled_total", "MIT jobs settled at a screening checkpoint", |s| &mut s.mit_stage1_settled),
        ("hypdb_mit_escalated_total", "screened MIT jobs escalated to their full budget", |s| &mut s.mit_escalated),
    ];

    /// Element-wise sum of the exported counters (the always-0 pair is
    /// `self`'s) — aggregating the counters of several shared caches
    /// (e.g. every serving slot) into one exportable total.
    pub fn merge(&self, other: &OracleStats) -> OracleStats {
        let (mut sum, mut other) = (*self, *other);
        for (_, _, field) in Self::EXPORTED {
            *field(&mut sum) += *field(&mut other);
        }
        sum
    }

    /// Element-wise difference of the exported counters — the work
    /// attributable to one request when `earlier` was snapshotted from
    /// the same shared cache before it ran (the flight recorder's
    /// per-request oracle delta). The counters only grow; the
    /// subtraction saturates anyway, so snapshots passed in the wrong
    /// order clamp to zero rather than wrap to a giant.
    pub fn since(&self, earlier: &OracleStats) -> OracleStats {
        let (mut delta, mut earlier) = (*self, *earlier);
        for (_, _, field) in Self::EXPORTED {
            *field(&mut delta) = field(&mut delta).saturating_sub(*field(&mut earlier));
        }
        delta
    }

    /// Folds one settled permutation job's [`StageReport`] into the
    /// staged-testing counters.
    fn note_stage(&mut self, report: &StageReport) {
        self.mit_permutations += report.permutations as u64;
        match report.screening {
            Screening::Settled => self.mit_stage1_settled += 1,
            Screening::Escalated => self.mit_escalated += 1,
            Screening::Unscreened => {}
        }
    }
}

/// The shareable half of a [`DataOracle`]: its contingency/entropy
/// caches and work counters, split out so several oracles over the
/// *same* `(table, selection)` can pool their work.
///
/// Keys are sorted [`AttrId`] sets — table-global names, not
/// oracle-local variable indices — so oracles with different variable
/// lists (e.g. two concurrent `/analyze` requests with different
/// treatments over one dataset selection) hit one another's entries.
/// Every entry is a pure function of `(table, rows, attrs)`: sharing
/// changes which work is *skipped*, never any value.
#[derive(Default)]
pub struct OracleCache {
    /// One cell per table key, like the verdict memo: the first asker
    /// builds the table inside the cell, and an asker racing it waits
    /// instead of scanning or marginalising again.
    counts: ShardedMap<Vec<AttrId>, Arc<OnceLock<Arc<ContingencyTable>>>, FxBuildHasher>,
    entropies: ShardedMap<Vec<AttrId>, f64, FxBuildHasher>,
    /// Logical-dependency reports of this selection, by (candidate
    /// attributes, [`PreprocessConfig`] bits): like every other entry a
    /// pure function of the selected data — no request's seed reaches
    /// the subsampling — so a selection pays for each once.
    preprocess: ShardedMap<(Vec<AttrId>, [u64; 4]), Arc<PreprocessReport>, FxBuildHasher>,
    /// Resident contingency-table bytes (≈ support × key width),
    /// exported as the `hypdb_oracle_cache_bytes` gauge.
    table_bytes: AtomicU64,
    /// Work counters of every oracle sharing this cache. A bump is one
    /// brief lock; none sits inside a permutation loop.
    counters: Mutex<OracleStats>,
}

impl OracleCache {
    /// A fresh, empty cache.
    pub fn new() -> OracleCache {
        OracleCache::default()
    }

    /// [`drop_logical_dependencies_in`] over this cache's selection
    /// (which `image` must be of), computed on the first call for
    /// `(attrs, cfg)` and remembered. A hit shows as a `cached` span
    /// (under the caller's `preprocess`) and never touches the image.
    pub fn preprocess(
        &self,
        image: &SelectionImage<'_>,
        attrs: &[AttrId],
        cfg: &PreprocessConfig,
    ) -> Arc<PreprocessReport> {
        let key = (attrs.to_vec(), cfg.bits());
        if let Some(report) = self.preprocess.get(&key) {
            return hypdb_obs::span("cached", || report);
        }
        let report = Arc::new(drop_logical_dependencies_in(image, attrs, cfg));
        self.preprocess.insert(key, Arc::clone(&report));
        report
    }

    /// Approximate bytes held by the materialised contingency tables.
    pub fn cache_bytes(&self) -> u64 {
        self.table_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the work counters accumulated through this cache
    /// (across every oracle that shared it).
    pub fn stats(&self) -> OracleStats {
        *self.counters.lock()
    }

    /// Number of materialised contingency tables.
    pub fn num_tables(&self) -> usize {
        self.counts.len()
    }
}

/// The conditional-independence oracle interface.
pub trait CiOracle {
    /// Number of variables `0..n` the oracle ranges over.
    fn num_vars(&self) -> usize;

    /// Tests `X ⊥⊥ Y | Z`; `x`, `y` must be distinct and absent from `z`.
    fn test(&self, x: Var, y: Var, z: &[Var]) -> TestOutcome;

    /// Decision threshold.
    fn alpha(&self) -> f64;

    /// True when the test does **not** reject independence.
    fn independent(&self, x: Var, y: Var, z: &[Var]) -> bool {
        self.test(x, y, z).independent(self.alpha())
    }

    /// True when dependence is significant.
    fn dependent(&self, x: Var, y: Var, z: &[Var]) -> bool {
        !self.independent(x, y, z)
    }

    /// Association strength heuristic (used by IAMB's ordering); default
    /// is the test statistic (estimated CMI).
    fn assoc(&self, x: Var, y: Var, z: &[Var]) -> f64 {
        self.test(x, y, z).statistic
    }

    /// Whether an *acceptance* of `X ⊥⊥ Y | Z` would be reliable — i.e.
    /// whether there is enough data per degree of freedom for a failure
    /// to reject to mean anything. Constraint-based discovery must not
    /// conclude a separation from an underpowered test (§4's "not
    /// robust to sparse subpopulations" failure mode); callers skip
    /// unreliable tests instead. Exact oracles are always reliable.
    fn reliable(&self, _x: Var, _y: Var, _z: &[Var]) -> bool {
        true
    }

    /// Whether a *rejection* (a dependence verdict) would be reliable.
    /// This is a calibration question, not a power question: a
    /// permutation test's rejection is trustworthy even on shattered
    /// data (the paper's core argument for MIT), whereas a sparse χ²
    /// rejection is anti-conservative. Defaults to the acceptance rule.
    fn reliable_dependence(&self, x: Var, y: Var, z: &[Var]) -> bool {
        self.reliable(x, y, z)
    }

    /// Work counters (they only grow).
    fn stats(&self) -> OracleStats;
}

/// Data-backed oracle over a selection of a [`Table`].
///
/// The oracle is `Sync` and safe to drive from many worker threads at
/// once (CD's phases fan independence tests out over the global pool):
/// the contingency/entropy caches are sharded maps whose entries are
/// pure functions of the underlying data, the work counters sit behind
/// one mutex, and every test's RNG is seeded *per statement* — a
/// deterministic mix of the configured seed with `(x, y, sorted z)` —
/// so each outcome is a pure function of (data, config, statement), no
/// matter which thread runs it or in what order.
///
/// Because an outcome is such a function, the oracle settles each
/// distinct statement **once**: a repeat `test` (CD's outcome runs
/// re-deriving blankets the treatment's run settled, Grow–Shrink's
/// fixpoint re-pass, phase-I collider tests repeating grow-phase ones)
/// returns the remembered outcome, bit for bit what settling it again
/// would give. A racing asker waits for the first one instead of
/// recomputing, so the work done — and every `mit_*` counter — is the
/// same at any thread count. The memo lives and dies with the oracle;
/// it is not in the [`OracleCache`], whose slots outlive requests whose
/// seeds all differ.
pub struct DataOracle<'a> {
    /// The selection, as the counting kernel reads it: every scan of
    /// this oracle gathers from, and shares, this one image.
    image: SelectionImage<'a>,
    vars: Vec<AttrId>,
    cfg: CiConfig,
    /// Contingency/entropy caches + counters, attr-keyed and shareable
    /// across oracles over the same `(table, rows)` (see
    /// [`OracleCache`]); a fresh oracle owns a fresh cache.
    cache: Arc<OracleCache>,
    /// One cell per statement asked, keyed by [`statement_key`] — the
    /// verdict memo.
    verdicts: ShardedMap<Vec<Var>, Arc<OnceLock<TestOutcome>>, FxBuildHasher>,
}

impl<'a> DataOracle<'a> {
    /// Builds an oracle over `vars` (oracle variable `i` ↔ `vars[i]`)
    /// restricted to `rows`.
    pub fn new(table: &'a Table, rows: RowSet, vars: Vec<AttrId>, cfg: CiConfig) -> Self {
        DataOracle::with_cache(table, rows, vars, cfg, Arc::new(OracleCache::new()))
    }

    /// Like [`DataOracle::new`], but sharing an existing cache. The
    /// cache **must** belong to the same `(table, rows)` pair — its
    /// entries are pure functions of that data, so sharing across
    /// oracles (different variable lists, seeds, or test kinds are all
    /// fine) lets concurrent analyses hit one another's contingency
    /// tables and entropies.
    pub fn with_cache(
        table: &'a Table,
        rows: RowSet,
        vars: Vec<AttrId>,
        cfg: CiConfig,
        cache: Arc<OracleCache>,
    ) -> Self {
        DataOracle::over_image(SelectionImage::new(table, rows), vars, cfg, cache)
    }

    /// Like [`DataOracle::with_cache`], over a selection image the
    /// caller already has (and may have gathered columns into).
    pub fn over_image(
        image: SelectionImage<'a>,
        vars: Vec<AttrId>,
        cfg: CiConfig,
        cache: Arc<OracleCache>,
    ) -> Self {
        DataOracle {
            image,
            vars,
            cfg,
            cache,
            verdicts: ShardedMap::default(),
        }
    }

    /// Oracle over every attribute of the table.
    pub fn over_all_attrs(table: &'a Table, rows: RowSet, cfg: CiConfig) -> Self {
        let vars: Vec<AttrId> = table.schema().attr_ids().collect();
        DataOracle::new(table, rows, vars, cfg)
    }

    /// The (possibly shared) cache behind this oracle.
    pub fn shared_cache(&self) -> &Arc<OracleCache> {
        &self.cache
    }

    /// The attribute backing an oracle variable.
    pub fn attr_of(&self, v: Var) -> AttrId {
        self.vars[v]
    }

    /// The oracle variable of an attribute, if covered.
    pub fn var_of(&self, a: AttrId) -> Option<Var> {
        self.vars.iter().position(|&x| x == a)
    }

    /// The variable list.
    pub fn vars(&self) -> &[AttrId] {
        &self.vars
    }

    /// Number of selected rows.
    pub fn num_rows(&self) -> usize {
        self.image.rows().len()
    }

    /// The oracle's configuration.
    pub fn config(&self) -> &CiConfig {
        &self.cfg
    }

    /// The canonical cache key of a variable set: its attribute ids,
    /// sorted. Table-global, so oracles with different variable lists
    /// share entries through one [`OracleCache`].
    fn canonical_attrs(&self, vars: &[Var]) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = vars.iter().map(|&v| self.vars[v]).collect();
        attrs.sort_unstable();
        attrs
    }

    /// Counts over `vars` in the *given* order. Internally normalises to
    /// a sorted-attribute cache key and derives reorderings/marginals
    /// from cached supersets when materialisation is enabled.
    pub fn counts_for(&self, vars: &[Var]) -> Arc<ContingencyTable> {
        let mut sorted: Vec<Var> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        debug_assert_eq!(
            sorted.len(),
            vars.len(),
            "duplicate variables in counts_for"
        );
        let attrs = self.canonical_attrs(&sorted);
        let base = self.canonical_counts(&attrs);
        let requested: Vec<AttrId> = vars.iter().map(|&v| self.vars[v]).collect();
        if requested == attrs {
            return base;
        }
        // Reorder by marginalising onto the requested permutation. The
        // result's counts are exact integer sums of the base's, so a
        // reordered table equals a direct scan in that order cell for
        // cell (every downstream consumer — strata, entropies, cross
        // tabs — is iteration-order-insensitive on top of that).
        let positions: Vec<usize> = requested
            .iter()
            .map(|a| attrs.binary_search(a).expect("attr present"))
            .collect();
        Arc::new(base.marginal(&positions))
    }

    /// The cached contingency table over a canonical (sorted) attribute
    /// set — the one place rows are ever scanned.
    ///
    /// On a miss (§6's materialisation): derive the table from the
    /// cached superset with the fewest non-zero cells (ties by
    /// `(len, key)`) when that has fewer cells than the selection has
    /// rows — walking it is then less work than counting the rows —
    /// else scan. Whichever way the table is built, its cells are
    /// identical: the choice decides work, never content. Each key is
    /// built once per cache — racing askers wait for the first — so
    /// `table_scans + marginalizations` is the number of tables.
    fn canonical_counts(&self, attrs: &[AttrId]) -> Arc<ContingencyTable> {
        let counters = &self.cache.counters;
        if !self.cfg.materialize {
            counters.lock().table_scans += 1;
            let tick = hypdb_obs::Tick::now();
            let ct = Arc::new(self.image.count(attrs));
            hypdb_obs::CONTINGENCY_BUILD.observe(tick.elapsed_secs());
            return ct;
        }
        let cell = match self.cache.counts.get(attrs) {
            Some(cell) => cell,
            None => self
                .cache
                .counts
                .get_or_insert_with(attrs.to_vec(), Default::default),
        };
        let mut built = false;
        let ct = cell.get_or_init(|| {
            built = true;
            self.build_counts(attrs)
        });
        if !built {
            counters.lock().count_cache_hits += 1;
        }
        Arc::clone(ct)
    }

    /// Builds the table of a cache miss (see [`Self::canonical_counts`])
    /// and charges its resident bytes. Runs once per key and cache.
    fn build_counts(&self, attrs: &[AttrId]) -> Arc<ContingencyTable> {
        let counters = &self.cache.counters;
        // Minimising over the *total* order (support, len, key) keeps
        // the choice independent of the shard/bucket visit order. A
        // table still being built by another asker is skipped: which
        // superset a build reads decides work, never cells.
        // lint:allow(nondeterministic-iteration) — fold computes a min over the total order (support, len, key), which is the same for every visit order
        let superset = self
            .cache
            .counts
            .fold(
                None::<(u64, Vec<AttrId>, Arc<ContingencyTable>)>,
                |best, key, cell| {
                    let Some(ct) = cell.get() else {
                        return best;
                    };
                    if !is_subset(attrs, key) {
                        return best;
                    }
                    let support = ct.support();
                    match &best {
                        Some((bs, bk, _))
                            if (*bs, bk.len(), bk.as_slice())
                                <= (support, key.len(), key.as_slice()) =>
                        {
                            best
                        }
                        _ => Some((support, key.clone(), ct.clone())),
                    }
                },
            )
            .filter(|(support, _, _)| *support < self.num_rows() as u64);
        let tick = hypdb_obs::Tick::now();
        let ct = match superset {
            Some((_, key, sup)) => {
                counters.lock().marginalizations += 1;
                let positions: Vec<usize> = attrs
                    .iter()
                    .map(|a| key.binary_search(a).expect("subset"))
                    .collect();
                Arc::new(sup.marginal(&positions))
            }
            None => {
                counters.lock().table_scans += 1;
                Arc::new(self.image.count(attrs))
            }
        };
        hypdb_obs::CONTINGENCY_BUILD.observe(tick.elapsed_secs());
        self.cache
            .table_bytes
            .fetch_add(ct.approx_bytes(), Ordering::Relaxed);
        ct
    }

    /// Miller–Madow entropy (§2) of the joint distribution of `vars`,
    /// cached when enabled. The empty set has entropy 0.
    pub fn entropy(&self, vars: &[Var]) -> f64 {
        if vars.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<Var> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let attrs = self.canonical_attrs(&sorted);
        if self.cfg.cache_entropies {
            if let Some(h) = self.cache.entropies.get(attrs.as_slice()) {
                self.cache.counters.lock().entropy_hits += 1;
                return h;
            }
        }
        self.cache.counters.lock().entropy_misses += 1;
        let h = self
            .canonical_counts(&attrs)
            .entropy(EntropyEstimator::MillerMadow);
        if self.cfg.cache_entropies {
            self.cache.entropies.insert(attrs, h);
        }
        h
    }

    /// The statement-local RNG seed: a deterministic mix of the
    /// configured seed with `(x, y, sorted z)`. Every permutation test
    /// for a given statement therefore draws the same stream no matter
    /// which worker thread issues it, in which order — the keystone of
    /// the parallel-discovery determinism guarantee.
    fn statement_seed(&self, x: Var, y: Var, z: &[Var]) -> u64 {
        let key = statement_key(x, y, z);
        seed::mix_all(self.cfg.seed, key.into_iter().map(|v| v as u64))
    }

    /// Estimated Miller–Madow CMI `Î(X;Y|Z)`, via the
    /// entropy identity (this is where entropy caching pays off: `H(XZ)`
    /// and `H(Z)` are shared across many statements).
    pub fn cmi(&self, x: Var, y: Var, z: &[Var]) -> f64 {
        let mut xz = z.to_vec();
        xz.push(x);
        let mut yz = z.to_vec();
        yz.push(y);
        let mut xyz = z.to_vec();
        xyz.push(x);
        xyz.push(y);
        self.entropy(&xz) + self.entropy(&yz) - self.entropy(&xyz) - self.entropy(z)
    }

    /// The paper's degrees-of-freedom formula
    /// `(|Π_X|−1)(|Π_Y|−1)|Π_Z|`, with supports measured on the current
    /// selection.
    fn paper_dof(&self, x: Var, y: Var, z: &[Var]) -> f64 {
        let sx = self.counts_for(&[x]).support().max(1);
        let sy = self.counts_for(&[y]).support().max(1);
        let sz = if z.is_empty() {
            1
        } else {
            let mut zs = z.to_vec();
            zs.sort_unstable();
            self.canonical_counts(&self.canonical_attrs(&zs))
                .support()
                .max(1)
        };
        ((sx - 1) * (sy - 1) * sz) as f64
    }

    /// Builds the stratified summary of `(x, y)` given `z` straight
    /// from the (possibly cached) canonical joint table — no reordered
    /// copy of it in between. Groups are in ascending order of their
    /// key over the sorted `z`: that order drives both the CMI's
    /// floating-point sum and MIT's per-group RNG consumption, and it
    /// must not depend on how the table was built (scan vs cached
    /// marginalisation — timing-dependent under parallel discovery).
    fn strata(&self, x: Var, y: Var, z: &[Var]) -> Strata {
        let mut zs = z.to_vec();
        zs.sort_unstable();
        let mut vars = zs.clone();
        vars.extend([x, y]);
        let attrs = self.canonical_attrs(&vars);
        let ct = self.canonical_counts(&attrs);
        let pos = |v: Var| attrs.binary_search(&self.vars[v]).expect("attr present");
        let zpos: Vec<usize> = zs.iter().map(|&v| pos(v)).collect();
        ct.strata(pos(x), pos(y), &zpos)
    }

    /// The statement's [`Regime`]: the paper's df against the selected
    /// rows.
    fn regime(&self, x: Var, y: Var, z: &[Var]) -> Regime {
        let df = self.paper_dof(x, y, z);
        self.cfg.mit.regime(df, self.num_rows() as u64)
    }

    /// One statement, start to finish. One dispatch on the configured
    /// kind: χ² — the kind itself, or HyMIT outside the sparse regime —
    /// settles inline from the cached entropies; otherwise the
    /// statement becomes a [`MitJob`] on its strata, screened at the
    /// oracle's alpha, and [`mit_settle_one`] runs it on a generator
    /// seeded from the statement alone.
    fn settle(&self, x: Var, y: Var, z: &[Var]) -> TestOutcome {
        let strata;
        let group_sample = match self.cfg.kind {
            IndependenceTestKind::MitSampled { max_groups } => {
                strata = self.strata(x, y, z);
                Some(max_groups)
            }
            IndependenceTestKind::HyMit if self.regime(x, y, z) == Regime::Sparse => {
                strata = self.strata(x, y, z);
                MitConfig::auto_group_sampling(strata.num_groups())
            }
            IndependenceTestKind::ChiSquared | IndependenceTestKind::HyMit => {
                let stat = self.cmi(x, y, z);
                let df = self.paper_dof(x, y, z);
                return TestOutcome::chi2(stat, self.num_rows() as u64, df);
            }
        };
        let job = MitJob {
            strata: &strata,
            permutations: self.cfg.mit.permutations,
            group_sample,
            screen: Some(self.cfg.alpha),
        };
        let mut rng = StdRng::seed_from_u64(self.statement_seed(x, y, z));
        let tick = hypdb_obs::Tick::now();
        let (mut out, report) = hypdb_obs::span("mit_settle", || mit_settle_one(&job, &mut rng));
        hypdb_obs::MIT_SETTLE.observe(tick.elapsed_secs());
        self.cache.counters.lock().note_stage(&report);
        // Report the Miller–Madow CMI, as the χ² path does.
        out.statistic = self.cmi(x, y, z);
        out
    }
}

/// A statement's identity, `[x, y, sorted z…]`: the verdict memo's key
/// and what [`DataOracle::statement_seed`] mixes. `(x, y)` keep their
/// order — it is part of the seed, so `test(y, x, z)` is another
/// statement — while `z` is a set.
fn statement_key(x: Var, y: Var, z: &[Var]) -> Vec<Var> {
    let mut key = Vec::with_capacity(2 + z.len());
    key.extend([x, y]);
    key.extend_from_slice(z);
    key[2..].sort_unstable();
    key
}

fn is_subset<T: Ord>(small: &[T], big: &[T]) -> bool {
    // Both sorted.
    let mut it = big.iter();
    'outer: for s in small {
        for b in it.by_ref() {
            if b == s {
                continue 'outer;
            }
            if b > s {
                return false;
            }
        }
        return false;
    }
    true
}

impl CiOracle for DataOracle<'_> {
    fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Settles each distinct statement once per oracle: the first ask
    /// runs [`DataOracle::settle`], every later one (or one racing it,
    /// which waits) returns that outcome and counts a `verdict_hit`.
    fn test(&self, x: Var, y: Var, z: &[Var]) -> TestOutcome {
        assert!(x != y && !z.contains(&x) && !z.contains(&y));
        self.cache.counters.lock().tests += 1;
        let cell = self
            .verdicts
            .get_or_insert_with(statement_key(x, y, z), Default::default);
        let mut settled = false;
        let out = cell.get_or_init(|| {
            settled = true;
            self.settle(x, y, z)
        });
        if !settled {
            self.cache.counters.lock().verdict_hits += 1;
        }
        out.clone()
    }

    fn alpha(&self) -> f64 {
        self.cfg.alpha
    }

    fn assoc(&self, x: Var, y: Var, z: &[Var]) -> f64 {
        self.cmi(x, y, z)
    }

    /// The χ²-style power heuristic: an acceptance is reliable only in
    /// the asymptotic regime (the rule HyMIT uses to trust χ², §6; a
    /// degenerate statement supports no acceptance — see
    /// [`MitConfig::regime`]).
    fn reliable(&self, x: Var, y: Var, z: &[Var]) -> bool {
        self.regime(x, y, z) == Regime::Asymptotic
    }

    /// Dependence verdicts are calibrated for the permutation-based
    /// procedures regardless of sparseness (HyMIT switches to MIT
    /// exactly when χ² would be untrustworthy); the pure χ² oracle
    /// keeps the power gate.
    fn reliable_dependence(&self, x: Var, y: Var, z: &[Var]) -> bool {
        match self.cfg.kind {
            IndependenceTestKind::ChiSquared => self.reliable(x, y, z),
            IndependenceTestKind::MitSampled { .. } | IndependenceTestKind::HyMit => {
                // Still require a non-degenerate pair (both variables
                // must vary in the selection).
                self.counts_for(&[x]).support() > 1 && self.counts_for(&[y]).support() > 1
            }
        }
    }

    fn stats(&self) -> OracleStats {
        self.cache.stats()
    }
}

/// Exact d-separation oracle over a known DAG (for tests & calibration).
pub struct GraphOracle {
    dag: Dag,
    counters: Mutex<OracleStats>,
}

impl GraphOracle {
    /// Wraps a DAG; variable `i` is DAG node `i`.
    pub fn new(dag: Dag) -> Self {
        GraphOracle {
            dag,
            counters: Mutex::new(OracleStats::default()),
        }
    }

    /// The wrapped DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }
}

impl CiOracle for GraphOracle {
    fn num_vars(&self) -> usize {
        self.dag.len()
    }

    fn test(&self, x: Var, y: Var, z: &[Var]) -> TestOutcome {
        self.counters.lock().tests += 1;
        let sep = d_separated_pair(&self.dag, x, y, z);
        TestOutcome {
            statistic: if sep { 0.0 } else { 1.0 },
            p_value: if sep { 1.0 } else { 0.0 },
            ci95: None,
            df: None,
            method: TestMethod::ChiSquared,
            permutations: None,
        }
    }

    fn alpha(&self) -> f64 {
        0.5
    }

    fn stats(&self) -> OracleStats {
        *self.counters.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_graph::bayes::BayesNet;

    /// Z -> X, Z -> Y (X ⊥ Y | Z), n = 20k.
    fn fork_table() -> Table {
        let mut dag = Dag::with_names(["X", "Y", "Z"]);
        dag.add_edge(2, 0);
        dag.add_edge(2, 1);
        let mut net = BayesNet::uniform(dag, vec![2, 2, 2]);
        net.set_cpt(2, vec![0.5, 0.5]);
        net.set_cpt(0, vec![0.85, 0.15, 0.15, 0.85]);
        net.set_cpt(1, vec![0.2, 0.8, 0.8, 0.2]);
        let mut rng = StdRng::seed_from_u64(11);
        net.sample_table(&mut rng, 20_000)
    }

    fn oracle(table: &Table, kind: IndependenceTestKind) -> DataOracle<'_> {
        let cfg = CiConfig {
            kind,
            ..CiConfig::default()
        };
        DataOracle::over_all_attrs(table, table.all_rows(), cfg)
    }

    /// HyMIT with β out of reach: every statement with df > 0 is
    /// settled by permutations.
    fn permutation_config() -> CiConfig {
        let mut cfg = CiConfig::default();
        cfg.mit.beta = 1e12;
        cfg
    }

    fn permutation_oracle(table: &Table) -> DataOracle<'_> {
        DataOracle::over_all_attrs(table, table.all_rows(), permutation_config())
    }

    /// True when `out` came from a permutation test.
    fn permuted(out: &TestOutcome) -> bool {
        out.method != TestMethod::ChiSquared && out.permutations.is_some()
    }

    #[test]
    fn chi2_oracle_fork_structure() {
        let t = fork_table();
        let o = oracle(&t, IndependenceTestKind::ChiSquared);
        assert!(o.dependent(0, 1, &[]), "X, Y marginally dependent");
        assert!(o.independent(0, 1, &[2]), "X ⊥ Y | Z");
        assert!(o.dependent(0, 2, &[]));
        assert_eq!(o.stats().tests, 3);
    }

    #[test]
    fn all_test_kinds_agree_on_fork() {
        let t = fork_table();
        for kind in [
            IndependenceTestKind::ChiSquared,
            IndependenceTestKind::MitSampled { max_groups: 8 },
            IndependenceTestKind::HyMit,
        ] {
            let o = oracle(&t, kind);
            assert!(o.dependent(0, 1, &[]), "{kind:?}: marginal dependence");
            assert!(o.independent(0, 1, &[2]), "{kind:?}: conditional indep");
        }
        let o = permutation_oracle(&t);
        assert!(
            o.dependent(0, 1, &[]),
            "HyMIT, β = 1e12: marginal dependence"
        );
        assert!(
            o.independent(0, 1, &[2]),
            "HyMIT, β = 1e12: conditional indep"
        );
        assert!(permuted(&o.test(0, 1, &[])) && permuted(&o.test(0, 1, &[2])));
    }

    #[test]
    fn entropy_cache_hits() {
        let t = fork_table();
        let o = oracle(&t, IndependenceTestKind::ChiSquared);
        o.cmi(0, 1, &[2]);
        let s1 = o.stats();
        assert!(s1.entropy_misses >= 4);
        o.cmi(0, 2, &[1]); // shares H(XYZ)... and more
        let s2 = o.stats();
        assert!(s2.entropy_hits > 0, "shared entropies must hit the cache");
    }

    #[test]
    fn caching_off_recomputes() {
        let t = fork_table();
        let cfg = CiConfig {
            kind: IndependenceTestKind::ChiSquared,
            cache_entropies: false,
            materialize: false,
            ..CiConfig::default()
        };
        let o = DataOracle::over_all_attrs(&t, t.all_rows(), cfg);
        o.cmi(0, 1, &[2]);
        o.cmi(0, 1, &[2]);
        let s = o.stats();
        assert_eq!(s.entropy_hits, 0);
        assert_eq!(s.count_cache_hits, 0);
        assert!(s.table_scans >= 8);
    }

    #[test]
    fn materialization_derives_marginals() {
        let t = fork_table();
        let o = oracle(&t, IndependenceTestKind::ChiSquared);
        // Prime with the full joint.
        o.counts_for(&[0, 1, 2]);
        let before = o.stats();
        // All strict subsets should now derive, not scan.
        o.entropy(&[0, 1]);
        o.entropy(&[2]);
        let after = o.stats();
        assert_eq!(after.table_scans, before.table_scans);
        assert_eq!(after.marginalizations, before.marginalizations + 2);
    }

    #[test]
    fn cache_bytes_track_resident_tables() {
        let t = fork_table();
        let o = oracle(&t, IndependenceTestKind::ChiSquared);
        assert_eq!(o.shared_cache().cache_bytes(), 0);
        let joint = o.counts_for(&[0, 1, 2]);
        let after_joint = o.shared_cache().cache_bytes();
        assert_eq!(after_joint, joint.approx_bytes());
        // Re-requesting the same table must not double-charge.
        o.counts_for(&[0, 1, 2]);
        assert_eq!(o.shared_cache().cache_bytes(), after_joint);
        // A derived marginal adds its own footprint.
        let pair = o.counts_for(&[0, 1]);
        assert_eq!(
            o.shared_cache().cache_bytes(),
            after_joint + pair.approx_bytes()
        );
    }

    #[test]
    fn strata_builders_agree_with_dense_tables() {
        // One statement, three routes to its strata: the oracle's
        // (canonical table, marginalised from a cached superset or —
        // materialisation off — scanned), `Stratified::build` (its own
        // count over the
        // rows), and dense per-group tables filled row by row. The
        // variable list runs against the attribute order, and x and y
        // sit in the middle of it, so the projection has to reorder.
        use hypdb_stats::CrossTab;
        use hypdb_table::{Predicate, Stratified, TableBuilder};
        use rand::Rng;
        use std::collections::BTreeMap;
        let cards = [3u32, 4, 5, 2, 6];
        let mut rng = StdRng::seed_from_u64(0x57A7);
        let mut b = TableBuilder::new(["a", "b", "c", "d", "e"]);
        for _ in 0..3_000 {
            let vals: Vec<String> = cards
                .iter()
                .map(|&k| (rng.gen_range(0..k * k) % k).to_string())
                .collect();
            b.push_row(vals.iter().map(String::as_str)).unwrap();
        }
        let t = b.finish();
        let mut vars: Vec<AttrId> = t.schema().attr_ids().collect();
        vars.reverse();
        let (x, y, z) = (1usize, 3usize, [4usize, 0]);
        let rows = Predicate::eq(&t, "c", "1").unwrap().select(&t);

        let (ax, ay, az) = (vars[x], vars[y], [vars[0], vars[4]]);
        let (r, c) = (t.cardinality(ax) as usize, t.cardinality(ay) as usize);
        let mut tabs: BTreeMap<Vec<u32>, CrossTab> = BTreeMap::new();
        for row in rows.iter() {
            let key: Vec<u32> = az.iter().map(|&a| t.codes(a)[row as usize]).collect();
            tabs.entry(key)
                .or_insert_with(|| CrossTab::zeros(r, c))
                .add(
                    t.codes(ax)[row as usize] as usize,
                    t.codes(ay)[row as usize] as usize,
                    1,
                );
        }
        let dense = Strata::new(tabs.into_values().collect());
        assert!(dense.num_groups() > 10 && dense.total() == rows.len() as u64);
        assert_eq!(Stratified::build(&t, &rows, ax, ay, &az), dense);

        for materialize in [true, false] {
            let cfg = CiConfig {
                materialize,
                ..CiConfig::default()
            };
            let o = DataOracle::new(&t, rows.clone(), vars.clone(), cfg);
            // A cached superset to derive from, when tables are kept.
            o.counts_for(&[0, 1, 2, 3, 4]);
            assert_eq!(o.strata(x, y, &z), dense, "materialize={materialize}");
            let derived = o.stats().marginalizations;
            assert_eq!(derived > 0, materialize, "materialize={materialize}");
        }
    }

    #[test]
    fn counts_respect_order() {
        let t = fork_table();
        let o = oracle(&t, IndependenceTestKind::ChiSquared);
        let xy = o.counts_for(&[0, 1]);
        let yx = o.counts_for(&[1, 0]);
        assert_eq!(xy.get(&[0, 1]), yx.get(&[1, 0]));
        assert_eq!(xy.total(), yx.total());
    }

    #[test]
    fn graph_oracle_is_exact() {
        let mut dag = Dag::new(3);
        dag.add_edge(0, 2);
        dag.add_edge(1, 2);
        let o = GraphOracle::new(dag);
        assert!(o.independent(0, 1, &[]));
        assert!(o.dependent(0, 1, &[2]));
        assert!(o.dependent(0, 2, &[1]));
        assert_eq!(o.stats().tests, 3);
        // Counters only grow: a later delta counts the later work alone.
        let before = o.stats();
        assert!(o.dependent(1, 2, &[]));
        assert_eq!(o.stats().since(&before).tests, 1);
    }

    /// An `OracleStats` with every field drawn at random. The literal
    /// names every field (no `..`), so a new field fails to compile here.
    fn arbitrary_stats(rng: &mut StdRng) -> OracleStats {
        use rand::Rng;
        let mut draw = || rng.gen_range(0..1u64 << 40);
        OracleStats {
            tests: draw(),
            table_scans: draw(),
            count_cache_hits: draw(),
            marginalizations: draw(),
            entropy_hits: draw(),
            entropy_misses: draw(),
            batched_statements: draw(),
            speculative_skipped: draw(),
            mit_permutations: draw(),
            mit_stage1_settled: draw(),
            mit_escalated: draw(),
            verdict_hits: draw(),
        }
    }

    #[test]
    fn since_undoes_merge() {
        let mut rng = StdRng::seed_from_u64(0x5_1CE);
        for _ in 0..500 {
            let (a, b) = (arbitrary_stats(&mut rng), arbitrary_stats(&mut rng));
            assert_eq!(a.merge(&b).since(&b), a);
            // Out of order, the delta clamps to zero.
            assert_eq!(b.since(&b.merge(&a)).tests, 0);
        }
    }

    #[test]
    fn every_counter_is_exported_once_or_named_always_zero() {
        // Give each listed counter its own value, then read every field
        // back through a destructuring without `..`: a field added to
        // `OracleStats` fails to compile here until it is named, and
        // fails the test until it is in `EXPORTED` or the always-0 pair.
        let mut s = OracleStats::default();
        for (i, (_, _, field)) in OracleStats::EXPORTED.iter().enumerate() {
            *field(&mut s) = i as u64 + 1;
        }
        let OracleStats {
            tests,
            table_scans,
            count_cache_hits,
            marginalizations,
            entropy_hits,
            entropy_misses,
            batched_statements,
            speculative_skipped,
            mit_permutations,
            mit_stage1_settled,
            mit_escalated,
            verdict_hits,
        } = s;
        let mut exported = [
            tests,
            table_scans,
            count_cache_hits,
            marginalizations,
            entropy_hits,
            entropy_misses,
            mit_permutations,
            mit_stage1_settled,
            mit_escalated,
            verdict_hits,
        ];
        exported.sort_unstable();
        assert_eq!(exported.to_vec(), (1..=10).collect::<Vec<u64>>());
        assert_eq!((batched_statements, speculative_skipped), (0, 0));
        let mut names: Vec<&str> = OracleStats::EXPORTED.iter().map(|e| e.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OracleStats::EXPORTED.len());
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[0]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    fn reliability_gates_are_asymmetric() {
        // A table with a wide key-like column: conditioning on it
        // shatters the data, so acceptances must be unreliable.
        use hypdb_table::TableBuilder;
        let mut b = TableBuilder::new(["x", "y", "k"]);
        for i in 0..400u32 {
            let x = (i % 2).to_string();
            let y = ((i / 2) % 2).to_string();
            let k = (i % 199).to_string();
            b.push_row([x.as_str(), y.as_str(), k.as_str()]).unwrap();
        }
        let t = b.finish();
        // χ² oracle: both gates use the power rule.
        let chi = DataOracle::over_all_attrs(
            &t,
            t.all_rows(),
            CiConfig {
                kind: IndependenceTestKind::ChiSquared,
                ..CiConfig::default()
            },
        );
        assert!(
            !chi.reliable(0, 1, &[2]),
            "shattered: acceptance unreliable"
        );
        assert!(
            !chi.reliable_dependence(0, 1, &[2]),
            "sparse χ² rejection is anti-conservative"
        );
        assert!(chi.reliable(0, 1, &[]), "marginal test is fine");
        // Permutation oracle: rejections stay trustworthy.
        let mitc = DataOracle::over_all_attrs(
            &t,
            t.all_rows(),
            CiConfig {
                kind: IndependenceTestKind::HyMit,
                ..CiConfig::default()
            },
        );
        assert!(!mitc.reliable(0, 1, &[2]));
        assert!(mitc.reliable_dependence(0, 1, &[2]));
    }

    #[test]
    fn degenerate_variable_never_reliable() {
        use hypdb_table::TableBuilder;
        let mut b = TableBuilder::new(["x", "c"]);
        for i in 0..50u32 {
            b.push_row([(i % 2).to_string().as_str(), "const"]).unwrap();
        }
        let t = b.finish();
        let o = DataOracle::over_all_attrs(&t, t.all_rows(), CiConfig::default());
        // `c` has a single value: df = 0 -> no test is informative.
        assert!(!o.reliable(0, 1, &[]));
        assert!(!o.reliable_dependence(0, 1, &[]));
    }

    #[test]
    fn hymit_and_the_acceptance_gate_read_one_regime() {
        // A dense statement, a shattered one (conditioning on a
        // near-key) and a degenerate one (a constant variable): an
        // acceptance is reliable iff the regime is asymptotic, and
        // HyMIT settles by χ² iff the regime is not sparse.
        use hypdb_table::TableBuilder;
        let mut b = TableBuilder::new(["x", "y", "k", "c"]);
        for i in 0..400u32 {
            let row = [i % 2, (i / 2) % 2, i % 199].map(|v| v.to_string());
            b.push_row([row[0].as_str(), row[1].as_str(), row[2].as_str(), "const"])
                .unwrap();
        }
        let t = b.finish();
        let o = oracle(&t, IndependenceTestKind::HyMit);
        let cases: [(Var, Var, &[Var], Regime); 3] = [
            (0, 1, &[], Regime::Asymptotic),
            (0, 1, &[2], Regime::Sparse),
            (0, 3, &[], Regime::Degenerate),
        ];
        for (x, y, z, regime) in cases {
            assert_eq!(o.regime(x, y, z), regime);
            assert_eq!(
                o.reliable(x, y, z),
                regime == Regime::Asymptotic,
                "{regime:?}"
            );
            let out = o.test(x, y, z);
            assert_eq!(!permuted(&out), regime != Regime::Sparse, "{regime:?}");
            if regime == Regime::Degenerate {
                assert_eq!(out.p_value, 1.0);
            }
        }
    }

    #[test]
    fn statement_seeding_makes_tests_pure() {
        // The same statement must give the same outcome on repeat and
        // under concurrent access from pool workers — the property that
        // lets CD fan tests out without changing any verdict. A fresh
        // oracle per call (one shared cache) settles every time: a
        // memoised repeat would pass without computing anything.
        let t = fork_table();
        let cache = Arc::new(OracleCache::new());
        let all: Vec<AttrId> = t.schema().attr_ids().collect();
        let cfg = permutation_config();
        let fresh = || DataOracle::with_cache(&t, t.all_rows(), all.clone(), cfg, cache.clone());
        let base = fresh().test(0, 1, &[2]);
        assert!(permuted(&base));
        assert_eq!(fresh().test(0, 1, &[2]), base, "repeat call");
        let outs = hypdb_exec::ThreadPool::new(4).map_indices(8, |_| fresh().test(0, 1, &[2]));
        for out in outs {
            assert_eq!(out, base, "concurrent call");
        }
        let stats = cache.stats();
        assert_eq!((stats.tests, stats.verdict_hits), (10, 0), "{stats:?}");
        // The z-set seed is order-insensitive (z is a set).
        let t2 = fork_table();
        let o2 = permutation_oracle(&t2);
        assert_eq!(o2.test(0, 1, &[2]), base, "fresh oracle, same data");
    }

    /// Four binary-ish attributes with some dependence, for a
    /// [`permutation_oracle`] over them.
    fn mit_oracle_table() -> Table {
        use hypdb_table::TableBuilder;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x0E_4D1C);
        let mut b = TableBuilder::new(["a", "b", "c", "d"]);
        for _ in 0..2_000 {
            let a = rng.gen_range(0..3u32);
            let b_ = (a + rng.gen_range(0..2u32)) % 3;
            let c = rng.gen_range(0..2u32);
            let d = (b_ + c + rng.gen_range(0..3u32)) % 4;
            let row = [a, b_, c, d].map(|v| v.to_string());
            b.push_row(row.iter().map(String::as_str)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn a_repeated_statement_is_answered_from_the_memo() {
        let t = mit_oracle_table();
        let o = permutation_oracle(&t);
        let first = o.test(0, 3, &[1, 2]);
        assert!(permuted(&first));
        let settled = o.stats();
        assert!(settled.mit_permutations > 0 && settled.verdict_hits == 0);
        // The identical outcome; nothing is settled again.
        assert_eq!(o.test(0, 3, &[1, 2]), first);
        let after = o.stats();
        assert_eq!(after.mit_permutations, settled.mit_permutations);
        assert_eq!(after.verdict_hits, 1);
        assert_eq!(after.tests, 2, "a hit is still a statement asked");
        // z is a set: another order is the same statement.
        assert_eq!(o.test(0, 3, &[2, 1]), first);
        let after = o.stats();
        assert_eq!(after.mit_permutations, settled.mit_permutations);
        assert_eq!(after.verdict_hits, 2);
    }

    #[test]
    fn swapping_x_and_y_is_another_statement() {
        // (x, y) order is part of the seed, so test(y, x, z) is settled
        // on its own and equals what a fresh oracle computes for it.
        let t = mit_oracle_table();
        let o = permutation_oracle(&t);
        o.test(0, 3, &[1, 2]);
        let before = o.stats();
        let swapped = o.test(3, 0, &[1, 2]);
        assert!(permuted(&swapped));
        let after = o.stats();
        assert_eq!(after.verdict_hits, 0);
        assert!(after.mit_permutations > before.mit_permutations);
        let fresh = permutation_oracle(&t);
        assert_eq!(fresh.test(3, 0, &[2, 1]), swapped);
    }

    #[test]
    fn shared_cache_serves_oracles_with_different_var_lists() {
        // Two oracles over the same (table, rows) but different
        // variable lists must share contingency work through one
        // attr-keyed cache — the cross-request serving scenario.
        let t = fork_table();
        let cache = Arc::new(OracleCache::new());
        let all: Vec<AttrId> = t.schema().attr_ids().collect();
        let a = DataOracle::with_cache(
            &t,
            t.all_rows(),
            all.clone(),
            CiConfig::default(),
            Arc::clone(&cache),
        );
        // Prime the full joint through oracle A.
        a.counts_for(&[0, 1, 2]);
        let scans_after_prime = cache.stats().table_scans;
        // Oracle B sees the variables in a different order; its lookups
        // must hit A's entries (attr-keyed), not scan again.
        let reordered = vec![all[2], all[0], all[1]];
        let b = DataOracle::with_cache(
            &t,
            t.all_rows(),
            reordered,
            CiConfig {
                seed: 999, // different seed is irrelevant to the caches
                ..CiConfig::default()
            },
            Arc::clone(&cache),
        );
        b.entropy(&[0, 1, 2]);
        b.entropy(&[0]);
        let s = cache.stats();
        assert_eq!(s.table_scans, scans_after_prime, "no new scans");
        assert!(s.marginalizations > 0 || s.count_cache_hits > 0);
        // And the verdict equals a fresh oracle's (sharing is invisible).
        let fresh = DataOracle::over_all_attrs(
            &t,
            t.all_rows(),
            CiConfig {
                seed: 999,
                ..CiConfig::default()
            },
        );
        // b's var 1 is attr all[0] = X, var 2 is attr all[1] = Y, var 0 is Z.
        assert_eq!(b.test(1, 2, &[0]), fresh.test(0, 1, &[2]));
    }

    #[test]
    fn restricted_var_set_maps_attrs() {
        let t = fork_table();
        let ids = t.attrs(["Z", "X"]).unwrap();
        let o = DataOracle::new(&t, t.all_rows(), ids.clone(), CiConfig::default());
        assert_eq!(o.num_vars(), 2);
        assert_eq!(o.attr_of(0), ids[0]);
        assert_eq!(o.var_of(ids[1]), Some(1));
        assert!(o.dependent(0, 1, &[])); // Z and X are dependent
    }
}
