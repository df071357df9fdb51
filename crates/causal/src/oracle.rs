//! Conditional-independence oracles (§4 assumes one; §5–§6 build it).
//!
//! The [`CiOracle`] trait is what every discovery algorithm consumes.
//! Two implementations:
//!
//! * [`DataOracle`] — backed by a table selection. Implements the §6
//!   optimisations behind feature flags: **entropy caching** (shared
//!   entropies across CMI statements) and **contingency-table
//!   materialisation** (marginals derived from cached supersets instead
//!   of re-scanning rows). The test procedure is configurable: χ², MIT,
//!   MIT with group sampling, or the HyMIT hybrid.
//! * [`GraphOracle`] — exact d-separation on a known DAG; the
//!   noise-free oracle used to validate discovery algorithms.

use crate::plan::{
    support_bound, BatchConfig, CiStatement, CostModel, Plan, PlanForce, PlanGroup,
    SPECULATION_WAVE,
};
use crate::preprocess::{drop_logical_dependencies_in, PreprocessConfig, PreprocessReport};
use hypdb_exec::{seed, ShardedMap, ThreadPool};
use hypdb_graph::dag::Dag;
use hypdb_graph::dsep::d_separated_pair;
use hypdb_stats::independence::{
    mit_batch_staged, mit_resume, mit_settle_one, mit_stage1, MitConfig, MitJob, MitPartial,
    StagePass, StageReport, StageSchedule, Strata, TestMethod, TestOutcome,
};
use hypdb_stats::math::chi2_sf;
use hypdb_stats::EntropyEstimator;
use hypdb_table::contingency::ContingencyTable;
use hypdb_table::hash::FxBuildHasher;
use hypdb_table::sync::Mutex;
use hypdb_table::{AttrId, RowSet, Scan, SelectionImage, Table};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Variable index within an oracle (0-based, oracle-local).
pub type Var = usize;

/// Which independence-test procedure a [`DataOracle`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IndependenceTestKind {
    /// Asymptotic χ² (G) test.
    ChiSquared,
    /// MIT permutation test over all conditioning groups.
    Mit,
    /// MIT over a weighted sample of conditioning groups.
    MitSampled {
        /// Maximum number of groups to keep.
        max_groups: usize,
    },
    /// HyMIT: χ² when `df·β ≤ n`, MIT (with auto group sampling)
    /// otherwise.
    HyMit,
}

/// Oracle configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CiConfig {
    /// Significance level for `independent` decisions (§7.3 uses 0.01).
    pub alpha: f64,
    /// Test procedure.
    pub kind: IndependenceTestKind,
    /// Permutation-test parameters (m, β).
    pub mit: MitConfig,
    /// Entropy estimator for reported CMI statistics (§2 uses
    /// Miller–Madow).
    pub estimator: EntropyEstimator,
    /// §6 "Caching entropy".
    pub cache_entropies: bool,
    /// §6 "Materializing contingency tables".
    pub materialize: bool,
    /// RNG seed for the permutation tests.
    pub seed: u64,
    /// Multi-query batching of independence statements (the
    /// Analyze-operator optimisation; see [`crate::plan`]).
    pub batch: BatchConfig,
}

impl Default for CiConfig {
    fn default() -> Self {
        CiConfig {
            alpha: 0.01,
            kind: IndependenceTestKind::HyMit,
            mit: MitConfig::default(),
            estimator: EntropyEstimator::MillerMadow,
            cache_entropies: true,
            materialize: true,
            seed: 0x48_7970_4442, // "HypDB"
            batch: BatchConfig::default(),
        }
    }
}

/// Lock-free work counters ([`OracleStats`] is the snapshot form).
/// Relaxed ordering suffices: the counts are statistics, not
/// synchronisation, and each event is a single atomic increment.
#[derive(Debug, Default)]
struct AtomicStats {
    tests: AtomicU64,
    table_scans: AtomicU64,
    count_cache_hits: AtomicU64,
    marginalizations: AtomicU64,
    entropy_hits: AtomicU64,
    entropy_misses: AtomicU64,
    batched_statements: AtomicU64,
    groups_planned: AtomicU64,
    scans_direct: AtomicU64,
    marginalised_from_superset: AtomicU64,
    lattice_intermediates: AtomicU64,
    speculative_skipped: AtomicU64,
    mit_permutations: AtomicU64,
    mit_stage1_settled: AtomicU64,
    mit_escalated: AtomicU64,
}

impl AtomicStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> OracleStats {
        OracleStats {
            tests: self.tests.load(Ordering::Relaxed),
            table_scans: self.table_scans.load(Ordering::Relaxed),
            count_cache_hits: self.count_cache_hits.load(Ordering::Relaxed),
            marginalizations: self.marginalizations.load(Ordering::Relaxed),
            entropy_hits: self.entropy_hits.load(Ordering::Relaxed),
            entropy_misses: self.entropy_misses.load(Ordering::Relaxed),
            batched_statements: self.batched_statements.load(Ordering::Relaxed),
            groups_planned: self.groups_planned.load(Ordering::Relaxed),
            scans_direct: self.scans_direct.load(Ordering::Relaxed),
            marginalised_from_superset: self.marginalised_from_superset.load(Ordering::Relaxed),
            lattice_intermediates: self.lattice_intermediates.load(Ordering::Relaxed),
            speculative_skipped: self.speculative_skipped.load(Ordering::Relaxed),
            mit_permutations: self.mit_permutations.load(Ordering::Relaxed),
            mit_stage1_settled: self.mit_stage1_settled.load(Ordering::Relaxed),
            mit_escalated: self.mit_escalated.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.tests.store(0, Ordering::Relaxed);
        self.table_scans.store(0, Ordering::Relaxed);
        self.count_cache_hits.store(0, Ordering::Relaxed);
        self.marginalizations.store(0, Ordering::Relaxed);
        self.entropy_hits.store(0, Ordering::Relaxed);
        self.entropy_misses.store(0, Ordering::Relaxed);
        self.batched_statements.store(0, Ordering::Relaxed);
        self.groups_planned.store(0, Ordering::Relaxed);
        self.scans_direct.store(0, Ordering::Relaxed);
        self.marginalised_from_superset.store(0, Ordering::Relaxed);
        self.lattice_intermediates.store(0, Ordering::Relaxed);
        self.speculative_skipped.store(0, Ordering::Relaxed);
        self.mit_permutations.store(0, Ordering::Relaxed);
        self.mit_stage1_settled.store(0, Ordering::Relaxed);
        self.mit_escalated.store(0, Ordering::Relaxed);
    }

    /// Folds one settled permutation job's [`StageReport`] into the
    /// staged-testing counters.
    fn note_stage(&self, report: &StageReport) {
        Self::add(&self.mit_permutations, report.permutations as u64);
        if report.settled_early() {
            Self::bump(&self.mit_stage1_settled);
        }
        if report.escalated() {
            Self::bump(&self.mit_escalated);
        }
    }
}

/// Work counters, the instrumentation behind Fig 6(a)/(c) — plus the
/// multi-query planner's batching counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStats {
    /// Independence tests performed.
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
    /// Statements submitted through the batch API and planned.
    pub batched_statements: u64,
    /// Statement groups (shared conditioning sets) the planner formed.
    pub groups_planned: u64,
    /// Planner decisions: tables the cost model chose to build by a
    /// direct row scan (a cached superset existed but was too wide).
    pub scans_direct: u64,
    /// Planner decisions: tables derived by walking a cached superset
    /// (the cost model's marginalisation choice).
    pub marginalised_from_superset: u64,
    /// Intermediate lattice tables materialised during top-down
    /// descent between a group's joint and its member tables.
    pub lattice_intermediates: u64,
    /// Speculative statements the round-wise issuers skipped because a
    /// decisive verdict landed in an earlier wave.
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
}

impl OracleStats {
    /// Element-wise sum — aggregating the counters of several shared
    /// caches (e.g. every serving slot) into one exportable total.
    pub fn merge(&self, other: &OracleStats) -> OracleStats {
        OracleStats {
            tests: self.tests + other.tests,
            table_scans: self.table_scans + other.table_scans,
            count_cache_hits: self.count_cache_hits + other.count_cache_hits,
            marginalizations: self.marginalizations + other.marginalizations,
            entropy_hits: self.entropy_hits + other.entropy_hits,
            entropy_misses: self.entropy_misses + other.entropy_misses,
            batched_statements: self.batched_statements + other.batched_statements,
            groups_planned: self.groups_planned + other.groups_planned,
            scans_direct: self.scans_direct + other.scans_direct,
            marginalised_from_superset: self.marginalised_from_superset
                + other.marginalised_from_superset,
            lattice_intermediates: self.lattice_intermediates + other.lattice_intermediates,
            speculative_skipped: self.speculative_skipped + other.speculative_skipped,
            mit_permutations: self.mit_permutations + other.mit_permutations,
            mit_stage1_settled: self.mit_stage1_settled + other.mit_stage1_settled,
            mit_escalated: self.mit_escalated + other.mit_escalated,
        }
    }

    /// Element-wise saturating difference — the work attributable to
    /// one request when `earlier` was snapshotted from the same shared
    /// cache before it ran (the flight recorder's per-request planner
    /// delta). Saturating because a concurrent `reset_stats` can move
    /// counters backwards; a clamped zero beats a wrapped giant.
    pub fn since(&self, earlier: &OracleStats) -> OracleStats {
        OracleStats {
            tests: self.tests.saturating_sub(earlier.tests),
            table_scans: self.table_scans.saturating_sub(earlier.table_scans),
            count_cache_hits: self
                .count_cache_hits
                .saturating_sub(earlier.count_cache_hits),
            marginalizations: self
                .marginalizations
                .saturating_sub(earlier.marginalizations),
            entropy_hits: self.entropy_hits.saturating_sub(earlier.entropy_hits),
            entropy_misses: self.entropy_misses.saturating_sub(earlier.entropy_misses),
            batched_statements: self
                .batched_statements
                .saturating_sub(earlier.batched_statements),
            groups_planned: self.groups_planned.saturating_sub(earlier.groups_planned),
            scans_direct: self.scans_direct.saturating_sub(earlier.scans_direct),
            marginalised_from_superset: self
                .marginalised_from_superset
                .saturating_sub(earlier.marginalised_from_superset),
            lattice_intermediates: self
                .lattice_intermediates
                .saturating_sub(earlier.lattice_intermediates),
            speculative_skipped: self
                .speculative_skipped
                .saturating_sub(earlier.speculative_skipped),
            mit_permutations: self
                .mit_permutations
                .saturating_sub(earlier.mit_permutations),
            mit_stage1_settled: self
                .mit_stage1_settled
                .saturating_sub(earlier.mit_stage1_settled),
            mit_escalated: self.mit_escalated.saturating_sub(earlier.mit_escalated),
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
    counts: ShardedMap<Vec<AttrId>, Arc<ContingencyTable>, FxBuildHasher>,
    entropies: ShardedMap<Vec<AttrId>, f64, FxBuildHasher>,
    /// Observed supports (non-zero cell counts) of every table built
    /// through this cache — the planner's support-feedback seam. A
    /// subset's support never exceeds a superset's, so these refine
    /// the a-priori `min(∏ dims, rows)` bound online.
    supports: ShardedMap<Vec<AttrId>, u64, FxBuildHasher>,
    /// Logical-dependency reports of this selection, by (candidate
    /// attributes, [`PreprocessConfig`] bits): like every other entry a
    /// pure function of the selected data — no request's seed reaches
    /// the subsampling — so a selection pays for each once.
    preprocess: ShardedMap<(Vec<AttrId>, [u64; 4]), Arc<PreprocessReport>, FxBuildHasher>,
    /// Resident contingency-table bytes (≈ support × key width),
    /// exported as the `hypdb_oracle_cache_bytes` gauge.
    table_bytes: AtomicU64,
    counters: AtomicStats,
}

impl OracleCache {
    /// A fresh, empty cache.
    pub fn new() -> OracleCache {
        OracleCache::default()
    }

    /// Records a materialised table: memoises it, notes its observed
    /// support for the planner's predictor, and accounts its resident
    /// bytes exactly once (racing builders of the same key compute
    /// identical tables; only the first insert is charged).
    fn store_table(&self, key: Vec<AttrId>, ct: &Arc<ContingencyTable>) {
        self.supports.insert(key.clone(), ct.support());
        if self.counts.insert_new(key, Arc::clone(ct)) {
            self.table_bytes
                .fetch_add(ct.approx_bytes(), Ordering::Relaxed);
        }
    }

    /// [`drop_logical_dependencies_in`] over this cache's selection
    /// (which `image` must be of), computed on the first call for
    /// `(attrs, cfg)` and remembered. A hit shows as a `cached` span
    /// (under the caller's `preprocess`) and never touches the image.
    pub fn preprocess<S: Scan + ?Sized>(
        &self,
        image: &SelectionImage<'_, S>,
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
        self.counters.snapshot()
    }

    /// Resets the work counters (cache contents are kept).
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// Number of materialised contingency tables.
    pub fn num_tables(&self) -> usize {
        self.counts.len()
    }

    /// Number of cached entropies.
    pub fn num_entropies(&self) -> usize {
        self.entropies.len()
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

    /// True when this oracle profits from whole-round statement
    /// batches ([`Self::test_batch`]). Issuers consult it before
    /// assembling a round: an oracle that answers call-at-a-time (the
    /// default — e.g. an exact d-separation oracle, or a data oracle
    /// with batching disabled) keeps the lazy early-exit scan instead,
    /// so "batching off" costs exactly what the pre-planner code did.
    fn prefers_batches(&self) -> bool {
        false
    }

    /// Tests a whole batch of statements, one outcome per submitted
    /// statement (in submission order). The default evaluates
    /// call-at-a-time; implementations may plan and batch
    /// ([`DataOracle`] groups statements by conditioning set so one
    /// shared contingency pass answers a group), but every outcome
    /// **must** equal the corresponding `test(x, y, z)` exactly —
    /// batching is a pure performance choice.
    fn test_batch(&self, stmts: &[CiStatement]) -> Vec<TestOutcome> {
        stmts.iter().map(|s| self.test(s.x, s.y, &s.z)).collect()
    }

    /// Batched `independent` verdicts (submission order).
    fn independent_batch(&self, stmts: &[CiStatement]) -> Vec<bool> {
        let alpha = self.alpha();
        self.test_batch(stmts)
            .iter()
            .map(|o| o.independent(alpha))
            .collect()
    }

    /// The round-wise issuer primitive: the index of the first
    /// statement whose `independent` verdict equals `want`, or `None`.
    /// Grow rounds ask for the first dependence, shrink rounds for the
    /// first independence — either way the round's sequential
    /// semantics discard every verdict past the hit, so lazy
    /// evaluation is exact. The default is the call-at-a-time
    /// early-exit scan; [`DataOracle`] overrides it to evaluate in
    /// deterministic speculation waves (batch parallelism without
    /// paying for the whole round). The returned index is identical
    /// for every implementation — only the work differs.
    fn find_first(&self, stmts: &[CiStatement], want: bool) -> Option<usize> {
        stmts
            .iter()
            .position(|s| self.independent(s.x, s.y, &s.z) == want)
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

    /// Work counters.
    fn stats(&self) -> OracleStats;

    /// Resets work counters.
    fn reset_stats(&self);
}

/// Data-backed oracle over a selection of any [`Scan`] storage
/// (defaults to the monolithic [`Table`]; `hypdb-store`'s
/// `ShardedTable` plugs in identically — contingency scans fan out per
/// shard and the counts are byte-identical either way).
///
/// The oracle is `Sync` and safe to drive from many worker threads at
/// once (CD's phases fan independence tests out over the global pool):
/// the contingency/entropy caches are sharded maps whose entries are
/// pure functions of the underlying data, the work counters are
/// atomics, and every test's RNG is seeded *per statement* — a
/// deterministic mix of the configured seed with `(x, y, sorted z)` —
/// so each outcome is a pure function of (data, config, statement), no
/// matter which thread runs it or in what order.
pub struct DataOracle<'a, S: Scan + ?Sized = Table> {
    /// The selection, as the counting kernel reads it: every scan of
    /// this oracle gathers from, and shares, this one image.
    image: SelectionImage<'a, S>,
    vars: Vec<AttrId>,
    cfg: CiConfig,
    /// Contingency/entropy caches + counters, attr-keyed and shareable
    /// across oracles over the same `(table, rows)` (see
    /// [`OracleCache`]); a fresh oracle owns a fresh cache.
    cache: Arc<OracleCache>,
}

impl<'a, S: Scan + ?Sized> DataOracle<'a, S> {
    /// Builds an oracle over `vars` (oracle variable `i` ↔ `vars[i]`)
    /// restricted to `rows`.
    pub fn new(table: &'a S, rows: RowSet, vars: Vec<AttrId>, cfg: CiConfig) -> Self {
        DataOracle::with_cache(table, rows, vars, cfg, Arc::new(OracleCache::new()))
    }

    /// Like [`DataOracle::new`], but sharing an existing cache. The
    /// cache **must** belong to the same `(table, rows)` pair — its
    /// entries are pure functions of that data, so sharing across
    /// oracles (different variable lists, seeds, or test kinds are all
    /// fine) lets concurrent analyses hit one another's contingency
    /// tables and entropies.
    pub fn with_cache(
        table: &'a S,
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
        image: SelectionImage<'a, S>,
        vars: Vec<AttrId>,
        cfg: CiConfig,
        cache: Arc<OracleCache>,
    ) -> Self {
        DataOracle {
            image,
            vars,
            cfg,
            cache,
        }
    }

    /// Oracle over every attribute of the table.
    pub fn over_all_attrs(table: &'a S, rows: RowSet, cfg: CiConfig) -> Self {
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

    /// The cost model over this oracle's selection: scan cost is the
    /// row count, marginal cost is the parent's support — both times
    /// the key width. This is a *work* model, not a wall-clock model:
    /// it deliberately ignores the worker-pool size, so a strategy
    /// decision depends only on the data and the cache contents at the
    /// moment it is made, never on `HYPDB_THREADS` — parallelism
    /// speeds the chosen plan up, it never changes which plan is
    /// cheapest. (Aggregate decision *counters* can still differ
    /// between worker counts when concurrent analyses interleave their
    /// cache population; the verdicts and reports never do.)
    fn cost_model(&self) -> CostModel {
        CostModel::new(self.num_rows() as u64, 1)
    }

    /// Predicted support of a table over `attrs` (sorted): the
    /// a-priori `min(∏ dims, rows)` bound, refined by every observed
    /// support of a superset already built through the cache (a
    /// marginal cannot have more non-zero cells than its parent).
    /// Exact once the set itself has been built.
    fn predict_support(&self, attrs: &[AttrId]) -> u64 {
        if let Some(observed) = self.cache.supports.get(attrs) {
            return observed;
        }
        let dims: Vec<u32> = attrs
            .iter()
            .map(|&a| self.image.table().cardinality(a).max(1))
            .collect();
        let bound = support_bound(&dims, self.num_rows() as u64);
        // lint:allow(nondeterministic-iteration) — fold computes a min over u64 supports, which is the same for every visit order
        self.cache.supports.fold(bound, |best, key, &sup| {
            if sup < best && is_subset(attrs, key) {
                sup
            } else {
                best
            }
        })
    }

    /// Predicted cost of making `attrs` (sorted) available: zero when
    /// already cached, otherwise the cheaper of a segment scan and a
    /// marginal walk of the best cached superset.
    fn predict_build_cost(&self, attrs: &[AttrId], cm: &CostModel) -> u64 {
        if self.cache.counts.get(attrs).is_some() {
            return 0;
        }
        let scan = cm.scan_cost(attrs.len());
        // lint:allow(nondeterministic-iteration) — fold computes a min over u64 costs, which is the same for every visit order
        self.cache.counts.fold(scan, |best, key, ct| {
            if is_subset(attrs, key) {
                best.min(cm.marginal_cost(ct.support(), attrs.len()))
            } else {
                best
            }
        })
    }

    /// The cached contingency table over a canonical (sorted) attribute
    /// set — the one place rows are ever scanned.
    ///
    /// On a miss the *cheapest cached superset* (by predicted marginal
    /// cost, tie-broken by `(len, key)`) competes against a direct
    /// segment scan under the cost model; `PlanForce` can pin either
    /// side. Whichever way the table is built, its cells are identical
    /// — the strategy decides work, never content.
    fn canonical_counts(&self, attrs: &[AttrId]) -> Arc<ContingencyTable> {
        let counters = &self.cache.counters;
        if !self.cfg.materialize {
            AtomicStats::bump(&counters.table_scans);
            let tick = hypdb_obs::Tick::now();
            let ct = Arc::new(self.image.count(attrs));
            hypdb_obs::CONTINGENCY_BUILD.observe(tick.elapsed_secs());
            return ct;
        }
        if let Some(hit) = self.cache.counts.get(attrs) {
            AtomicStats::bump(&counters.count_cache_hits);
            return hit;
        }
        let force = self.cfg.batch.force;
        let cm = self.cost_model();
        // Minimising over the *total* order (cost, len, key) keeps the
        // choice independent of the shard/bucket visit order; two
        // workers racing here compute identical tables either way.
        let superset = if force == PlanForce::Scan {
            None
        } else {
            // lint:allow(nondeterministic-iteration) — fold computes a min over the total order (cost, len, key), which is the same for every visit order
            self.cache.counts.fold(
                None::<(u64, Vec<AttrId>, Arc<ContingencyTable>)>,
                |best, key, ct| {
                    if !is_subset(attrs, key) {
                        return best;
                    }
                    let cost = cm.marginal_cost(ct.support(), attrs.len());
                    match &best {
                        Some((bc, bk, _))
                            if (*bc, bk.len(), bk.as_slice())
                                <= (cost, key.len(), key.as_slice()) =>
                        {
                            best
                        }
                        _ => Some((cost, key.clone(), ct.clone())),
                    }
                },
            )
        };
        let derive = match (&superset, force) {
            (Some(_), PlanForce::Marginalise) => true,
            (Some((cost, _, _)), PlanForce::Cost) => *cost < cm.scan_cost(attrs.len()),
            _ => false,
        };
        let tick = hypdb_obs::Tick::now();
        let ct = if derive {
            let (_, key, sup) = superset.expect("derive implies a superset");
            AtomicStats::bump(&counters.marginalizations);
            AtomicStats::bump(&counters.marginalised_from_superset);
            let positions: Vec<usize> = attrs
                .iter()
                .map(|a| key.binary_search(a).expect("subset"))
                .collect();
            Arc::new(sup.marginal(&positions))
        } else {
            AtomicStats::bump(&counters.table_scans);
            AtomicStats::bump(&counters.scans_direct);
            Arc::new(self.image.count(attrs))
        };
        hypdb_obs::CONTINGENCY_BUILD.observe(tick.elapsed_secs());
        self.cache.store_table(attrs.to_vec(), &ct);
        ct
    }

    /// Entropy (config estimator) of the joint distribution of `vars`,
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
                AtomicStats::bump(&self.cache.counters.entropy_hits);
                return h;
            }
        }
        AtomicStats::bump(&self.cache.counters.entropy_misses);
        let h = self.canonical_counts(&attrs).entropy(self.cfg.estimator);
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
        let mut zs: Vec<u64> = z.iter().map(|&v| v as u64).collect();
        zs.sort_unstable();
        seed::mix_all(self.cfg.seed, [x as u64, y as u64].into_iter().chain(zs))
    }

    /// Estimated CMI `Î(X;Y|Z)` with the configured estimator, via the
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

    fn chi2_outcome(&self, x: Var, y: Var, z: &[Var]) -> TestOutcome {
        let stat = self.cmi(x, y, z);
        let n = self.num_rows() as f64;
        let df = self.paper_dof(x, y, z);
        let g = 2.0 * n * stat.max(0.0);
        let p = if df == 0.0 { 1.0 } else { chi2_sf(g, df) };
        TestOutcome {
            statistic: stat,
            p_value: p,
            ci95: None,
            df: Some(df),
            method: TestMethod::ChiSquared,
            permutations: None,
        }
    }

    /// Replicates `test`'s dispatch for one statement, but *defers* the
    /// expensive permutation run into a [`MitJob`] so a whole group can
    /// settle together in `mit_batch`. χ² outcomes (and HyMIT's χ²
    /// shortcut) complete inline — they only touch the shared caches.
    fn prepare_statement(&self, x: Var, y: Var, z: &[Var]) -> PreparedTest {
        assert!(x != y && !z.contains(&x) && !z.contains(&y));
        AtomicStats::bump(&self.cache.counters.tests);
        let seed = self.statement_seed(x, y, z);
        let early = self.cfg.mit.early_stop;
        let m = self.cfg.mit.permutations;
        match self.cfg.kind {
            IndependenceTestKind::ChiSquared => PreparedTest::Done(self.chi2_outcome(x, y, z)),
            IndependenceTestKind::Mit => {
                let strata = self.strata(x, y, z);
                let schedule = StageSchedule::derive(&strata, &self.cfg.mit, self.cfg.alpha);
                PreparedTest::Perm(MitJob {
                    strata,
                    permutations: m,
                    group_sample: None,
                    early_stop: early,
                    seed,
                    schedule,
                })
            }
            IndependenceTestKind::MitSampled { max_groups } => {
                let strata = self.strata(x, y, z);
                let schedule = StageSchedule::derive(&strata, &self.cfg.mit, self.cfg.alpha);
                PreparedTest::Perm(MitJob {
                    strata,
                    permutations: m,
                    group_sample: Some(max_groups),
                    early_stop: early,
                    seed,
                    schedule,
                })
            }
            IndependenceTestKind::HyMit => {
                let n = self.num_rows() as f64;
                let df = self.paper_dof(x, y, z);
                if df == 0.0 || df * self.cfg.mit.beta <= n {
                    PreparedTest::Done(self.chi2_outcome(x, y, z))
                } else {
                    let strata = self.strata(x, y, z);
                    let schedule = StageSchedule::derive(&strata, &self.cfg.mit, self.cfg.alpha);
                    PreparedTest::Perm(MitJob {
                        group_sample: MitConfig::auto_group_sampling(strata.num_groups()),
                        strata,
                        permutations: m,
                        early_stop: early,
                        seed,
                        schedule,
                    })
                }
            }
        }
    }

    /// Executes one planned group: a parallel *prepare* pass builds
    /// every member's strata against the (just-materialised) shared
    /// joint, then `mit_batch` settles all deferred permutation tests
    /// together. Outcomes are returned in member order, each with its
    /// statement's stage budget (the EXPLAIN record), and are
    /// byte-identical to calling `test` per member.
    fn test_group(
        &self,
        unique: &[CiStatement],
        members: &[usize],
    ) -> Vec<(TestOutcome, Vec<usize>)> {
        let pool = ThreadPool::current();
        let prepared = pool.parallel_map(members, |_, &m| {
            let s = &unique[m];
            self.prepare_statement(s.x, s.y, &s.z)
        });
        let budgets: Vec<Vec<usize>> = prepared.iter().map(PreparedTest::stage_budget).collect();
        let mut jobs: Vec<MitJob> = Vec::new();
        let done: Vec<Option<TestOutcome>> = prepared
            .into_iter()
            .map(|p| match p {
                PreparedTest::Done(out) => Some(out),
                PreparedTest::Perm(job) => {
                    jobs.push(job);
                    None
                }
            })
            .collect();
        let mut perm_outs = mit_batch_staged(&jobs).into_iter();
        members
            .iter()
            .zip(done)
            .map(|(&m, done)| {
                done.unwrap_or_else(|| {
                    let s = &unique[m];
                    let (mut out, report) = perm_outs.next().expect("one outcome per job");
                    self.cache.counters.note_stage(&report);
                    // Report the configured estimator's CMI, exactly as
                    // the call-at-a-time path does after its run.
                    out.statistic = self.cmi(s.x, s.y, &s.z);
                    out
                })
            })
            .zip(budgets)
            .collect()
    }

    /// The per-group strategy choice: decide whether the group's
    /// shared joint pays for itself and materialise accordingly.
    ///
    /// Each member statement `X ⊥⊥ Y | Z` works from the table over
    /// `{x, y} ∪ z` (its strata and entropies all derive from it). The
    /// joint strategy builds the group's full joint once, then walks
    /// it per member table (`support × width` each); the direct
    /// strategy builds every member table on demand (each priced as
    /// the cheaper of a scan and the best cached superset). The cost
    /// model picks the cheaper plan; `PlanForce` pins either side.
    /// When the joint wins and fans out widely, a lattice descent
    /// additionally materialises cost-approved intermediate marginals
    /// between the joint and the member tables.
    fn stage_group(&self, unique: &[CiStatement], group: &PlanGroup) {
        let force = self.cfg.batch.force;
        if force == PlanForce::Scan {
            return; // members build their own tables on demand
        }
        let joint = self.canonical_attrs(&group.joint);
        // Distinct member target tables, sorted for a deterministic
        // descent order.
        let mut targets: Vec<Vec<AttrId>> = group
            .members
            .iter()
            .map(|&m| {
                let s = &unique[m];
                let mut vars = s.z.clone();
                vars.push(s.x);
                vars.push(s.y);
                self.canonical_attrs(&vars)
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let cm = self.cost_model();
        let materialise_joint = match force {
            PlanForce::Marginalise => true,
            _ => {
                let sup_joint = self.predict_support(&joint);
                let joint_cost = self.predict_build_cost(&joint, &cm)
                    + targets
                        .iter()
                        .filter(|t| *t != &joint)
                        .map(|t| cm.marginal_cost(sup_joint, t.len()))
                        .sum::<u64>();
                let direct_cost = targets
                    .iter()
                    .map(|t| self.predict_build_cost(t, &cm))
                    .sum::<u64>();
                joint_cost < direct_cost
            }
        };
        if materialise_joint {
            let _ = self.canonical_counts(&joint);
            if force == PlanForce::Cost {
                self.lattice_descend(&joint, &targets, &cm, 0);
            }
        }
    }

    /// Top-down lattice descent from a freshly materialised parent
    /// towards the member target tables: split the targets into
    /// halves, and when a half's union is strictly narrower than the
    /// parent *and* routing the half through that intermediate is
    /// predicted cheaper than walking the parent per member, build the
    /// intermediate and recurse into the half. Members then derive
    /// from the narrowest cost-winning ancestor automatically (the
    /// cheapest-superset search in [`Self::canonical_counts`]).
    fn lattice_descend(
        &self,
        parent: &[AttrId],
        targets: &[Vec<AttrId>],
        cm: &CostModel,
        depth: usize,
    ) {
        const MIN_FANOUT: usize = 4;
        const MAX_DEPTH: usize = 4;
        if depth >= MAX_DEPTH || targets.len() < MIN_FANOUT {
            return;
        }
        let sup_parent = self.predict_support(parent);
        let mid = targets.len() / 2;
        for half in [&targets[..mid], &targets[mid..]] {
            let mut inter: Vec<AttrId> = half.iter().flatten().copied().collect();
            inter.sort_unstable();
            inter.dedup();
            if inter.len() >= parent.len() {
                continue; // no narrowing: the intermediate is the parent
            }
            let sup_inter = self.predict_support(&inter);
            let with_inter = cm.marginal_cost(sup_parent, inter.len())
                + half
                    .iter()
                    .map(|t| cm.marginal_cost(sup_inter, t.len()))
                    .sum::<u64>();
            let without = half
                .iter()
                .map(|t| cm.marginal_cost(sup_parent, t.len()))
                .sum::<u64>();
            if with_inter < without {
                if self.cache.counts.get(inter.as_slice()).is_none() {
                    AtomicStats::bump(&self.cache.counters.lattice_intermediates);
                    let _ = self.canonical_counts(&inter);
                }
                self.lattice_descend(&inter, half, cm, depth + 1);
            }
        }
    }

    /// Builds one planner round's EXPLAIN record: the
    /// data-deterministic facts only — attribute sets, cardinalities,
    /// row count, group structure, and (for speculative rounds) the
    /// decisive hit index. Never live cache state or counters; the
    /// cost replay happens later in [`crate::explain::assemble`].
    /// `budgets` holds the stage budget of every unique statement the
    /// round prepared; only the ones it skipped are derived here.
    fn explain_round(
        &self,
        kind: &str,
        stmts: &[CiStatement],
        plan: &Plan,
        hit: Option<usize>,
        budgets: &[Option<Vec<usize>>],
    ) -> crate::explain::RoundRecord {
        use crate::explain::{GroupRecord, RoundRecord};
        let mut used: Vec<AttrId> = Vec::new();
        let mut target_attrs: Vec<Vec<AttrId>> = Vec::with_capacity(plan.num_unique());
        for s in plan.unique() {
            let mut vars = s.z.clone();
            vars.push(s.x);
            vars.push(s.y);
            let attrs = self.canonical_attrs(&vars);
            used.extend_from_slice(&attrs);
            target_attrs.push(attrs);
        }
        used.sort_unstable();
        used.dedup();
        // Ascending-index sets over the dictionary preserve the
        // planner's `AttrId` lexicographic order exactly.
        let to_idx = |attrs: &[AttrId]| -> Vec<usize> {
            attrs
                .iter()
                .map(|a| used.binary_search(a).expect("attr in dictionary"))
                .collect()
        };
        RoundRecord {
            kind: kind.to_string(),
            rows: self.num_rows() as u64,
            statements: stmts.len(),
            hit,
            slots: plan.slots().to_vec(),
            attrs: used
                .iter()
                .map(|&a| {
                    (
                        self.image.table().schema().name(a).to_string(),
                        u64::from(self.image.table().cardinality(a).max(1)),
                    )
                })
                .collect(),
            unique_targets: target_attrs.iter().map(|t| to_idx(t)).collect(),
            stage_budgets: plan
                .unique()
                .iter()
                .zip(budgets)
                .map(|(s, known)| match known {
                    Some(budget) => budget.clone(),
                    None => self.stage_budget(s.x, s.y, &s.z),
                })
                .collect(),
            groups: plan
                .groups()
                .iter()
                .map(|g| GroupRecord {
                    z: to_idx(&self.canonical_attrs(&g.z)),
                    joint: to_idx(&self.canonical_attrs(&g.joint)),
                    members: g.members.clone(),
                })
                .collect(),
        }
    }

    /// The a-priori staged budget checkpoints of one statement the
    /// round never prepared — the EXPLAIN per-statement stage record,
    /// as [`PreparedTest::stage_budget`] gives it for the prepared
    /// ones. `[m]` when the schedule is
    /// pinned single-stage, empty when the statement settles inline
    /// (χ² dispatch, HyMIT's χ² shortcut). A pure function of the
    /// strata shape and the MIT config, so the
    /// record is byte-identical across threads, shards, and
    /// `HYPDB_PLAN_FORCE`.
    fn stage_budget(&self, x: Var, y: Var, z: &[Var]) -> Vec<usize> {
        let derive = || {
            let strata = self.strata(x, y, z);
            StageSchedule::derive(&strata, &self.cfg.mit, self.cfg.alpha)
                .stages()
                .to_vec()
        };
        match self.cfg.kind {
            IndependenceTestKind::ChiSquared => Vec::new(),
            IndependenceTestKind::Mit | IndependenceTestKind::MitSampled { .. } => derive(),
            IndependenceTestKind::HyMit => {
                let n = self.num_rows() as f64;
                let df = self.paper_dof(x, y, z);
                if df == 0.0 || df * self.cfg.mit.beta <= n {
                    Vec::new()
                } else {
                    derive()
                }
            }
        }
    }

    /// Stage-aware wave settlement for [`Self::find_first_planned`]:
    /// verdict-only, so the speculation round composes with staged
    /// budgets. Every wave member runs its screening pass in one
    /// fan-out; then, if a screening checkpoint already produced the
    /// wave's first `want` hit, only the near-alpha survivors sitting
    /// at *earlier* window positions escalate (they could still move
    /// the hit forward) — survivors at or past the hit are left
    /// unsettled, their verdict never consulted because the round
    /// returns at the hit. The returned index is therefore identical
    /// to full-budget evaluation; only the work differs. A skipped
    /// survivor's verdict stays `None`: if a later round needs it, the
    /// statement seed re-derives the same stream deterministically.
    ///
    /// Skipped survivors' screening permutations are charged to
    /// `mit_permutations` without a settled/escalated bump — they
    /// reached no verdict.
    fn settle_wave(
        &self,
        unique: &[CiStatement],
        members: &[usize],
        window: &[usize],
        verdicts: &mut [Option<bool>],
        budgets: &mut [Option<Vec<usize>>],
        want: bool,
    ) {
        let pool = ThreadPool::current();
        let prepared = pool.parallel_map(members, |_, &m| {
            let s = &unique[m];
            self.prepare_statement(s.x, s.y, &s.z)
        });
        for (&m, p) in members.iter().zip(&prepared) {
            budgets[m] = Some(p.stage_budget());
        }
        let alpha = self.cfg.alpha;
        hypdb_obs::span("mit_settle", || {
            let deferred: Vec<usize> = prepared
                .iter()
                .enumerate()
                .filter_map(|(j, p)| matches!(p, PreparedTest::Perm(_)).then_some(j))
                .collect();
            let passes: Vec<StagePass> = hypdb_obs::span("mit_stage", || {
                pool.parallel_map(&deferred, |_, &j| {
                    let PreparedTest::Perm(job) = &prepared[j] else {
                        unreachable!("deferred positions hold jobs");
                    };
                    let tick = hypdb_obs::Tick::now();
                    let pass = mit_stage1(job);
                    hypdb_obs::MIT_SETTLE.observe(tick.elapsed_secs());
                    pass
                })
            });
            // Verdicts known without escalation: χ² inline results plus
            // decisively screened jobs.
            let mut outcome_of: Vec<Option<TestOutcome>> = prepared
                .iter()
                .map(|p| match p {
                    PreparedTest::Done(out) => Some(out.clone()),
                    PreparedTest::Perm(_) => None,
                })
                .collect();
            for (&j, pass) in deferred.iter().zip(&passes) {
                if let StagePass::Settled { outcome, stage } = pass {
                    let PreparedTest::Perm(job) = &prepared[j] else {
                        unreachable!("deferred positions hold jobs");
                    };
                    self.cache
                        .counters
                        .note_stage(&StageReport::of(job, Some(*stage), outcome));
                    outcome_of[j] = Some(outcome.clone());
                }
            }
            // The earliest window position already holding the wanted
            // verdict, and each member's earliest window position.
            let member_at = |u: usize| members.binary_search(&u).ok();
            let hit_pos = window.iter().position(|&u| {
                member_at(u)
                    .and_then(|j| outcome_of[j].as_ref())
                    .map(|out| out.independent(alpha) == want)
                    .unwrap_or(false)
            });
            let earliest = |j: usize| -> usize {
                window
                    .iter()
                    .position(|&u| u == members[j])
                    .unwrap_or(usize::MAX)
            };
            let survivors: Vec<(usize, &MitPartial)> = deferred
                .iter()
                .zip(&passes)
                .filter_map(|(&j, pass)| match pass {
                    StagePass::Escalate(partial) => Some((j, partial)),
                    StagePass::Settled { .. } => None,
                })
                .collect();
            let run: Vec<usize> = survivors
                .iter()
                .enumerate()
                .filter_map(|(k, &(j, _))| match hit_pos {
                    Some(h) => (earliest(j) < h).then_some(k),
                    None => Some(k),
                })
                .collect();
            if !run.is_empty() {
                let resumed: Vec<TestOutcome> = hypdb_obs::span("mit_stage", || {
                    pool.parallel_map(&run, |_, &k| {
                        let (j, partial) = survivors[k];
                        let PreparedTest::Perm(job) = &prepared[j] else {
                            unreachable!("deferred positions hold jobs");
                        };
                        let tick = hypdb_obs::Tick::now();
                        let out = mit_resume(partial, job.early_stop);
                        hypdb_obs::MIT_SETTLE.observe(tick.elapsed_secs());
                        out
                    })
                });
                for (&k, out) in run.iter().zip(resumed) {
                    let (j, _) = survivors[k];
                    let PreparedTest::Perm(job) = &prepared[j] else {
                        unreachable!("deferred positions hold jobs");
                    };
                    self.cache
                        .counters
                        .note_stage(&StageReport::of(job, None, &out));
                    outcome_of[j] = Some(out);
                }
            }
            // Screening work of the survivors the hit made moot.
            for (k, &(_, partial)) in survivors.iter().enumerate() {
                if !run.contains(&k) {
                    AtomicStats::add(
                        &self.cache.counters.mit_permutations,
                        partial.permutations_done() as u64,
                    );
                }
            }
            for (&m, out) in members.iter().zip(&outcome_of) {
                if let Some(out) = out {
                    verdicts[m] = Some(out.independent(alpha));
                }
            }
        });
    }

    /// The planned body of [`CiOracle::find_first`], split out so the
    /// round can be spanned and its EXPLAIN record capture the result:
    /// the hit, and the stage budget of every statement it prepared.
    fn find_first_planned(
        &self,
        stmts: &[CiStatement],
        plan: &Plan,
        want: bool,
    ) -> (Option<usize>, Vec<Option<Vec<usize>>>) {
        let group_of: Vec<usize> = {
            let mut g = vec![0usize; plan.num_unique()];
            for (gi, group) in plan.groups().iter().enumerate() {
                for &m in &group.members {
                    g[m] = gi;
                }
            }
            g
        };
        let mut staged = vec![false; plan.groups().len()];
        let slots = plan.slots();
        let mut verdicts: Vec<Option<bool>> = vec![None; plan.num_unique()];
        let mut budgets: Vec<Option<Vec<usize>>> = vec![None; plan.num_unique()];
        let mut i = 0;
        let mut wave = 1usize;
        while i < stmts.len() {
            let end = (i + wave).min(stmts.len());
            wave = (wave * 2).min(SPECULATION_WAVE);
            let mut members: Vec<usize> = slots[i..end]
                .iter()
                .copied()
                .filter(|&u| verdicts[u].is_none())
                .collect();
            members.sort_unstable();
            members.dedup();
            if !members.is_empty() {
                if self.cfg.materialize {
                    for &u in &members {
                        let gi = group_of[u];
                        if !staged[gi] {
                            staged[gi] = true;
                            self.stage_group(plan.unique(), &plan.groups()[gi]);
                        }
                    }
                }
                AtomicStats::add(
                    &self.cache.counters.batched_statements,
                    members.len() as u64,
                );
                self.settle_wave(
                    plan.unique(),
                    &members,
                    &slots[i..end],
                    &mut verdicts,
                    &mut budgets,
                    want,
                );
            }
            for (k, &u) in slots[i..end].iter().enumerate() {
                if verdicts[u] == Some(want) {
                    AtomicStats::add(
                        &self.cache.counters.speculative_skipped,
                        (stmts.len() - end) as u64,
                    );
                    return (Some(i + k), budgets);
                }
            }
            i = end;
        }
        (None, budgets)
    }
}

/// A statement after the cheap dispatch phase of batched execution:
/// either already settled (χ² paths) or a deferred permutation job.
enum PreparedTest {
    Done(TestOutcome),
    Perm(MitJob),
}

impl PreparedTest {
    /// The statement's staged budget checkpoints: those of the job's
    /// schedule, none when it settled inline.
    fn stage_budget(&self) -> Vec<usize> {
        match self {
            PreparedTest::Done(_) => Vec::new(),
            PreparedTest::Perm(job) => job.schedule.stages().to_vec(),
        }
    }
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

impl<S: Scan + ?Sized> CiOracle for DataOracle<'_, S> {
    fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// One statement, settled through the same staged procedure the
    /// batched paths run ([`mit_settle_one`] agrees bit for bit with
    /// [`mit_batch_staged`]), so call-at-a-time and batched execution
    /// stay byte-identical at every `HYPDB_MIT_STAGES` setting.
    fn test(&self, x: Var, y: Var, z: &[Var]) -> TestOutcome {
        match self.prepare_statement(x, y, z) {
            PreparedTest::Done(out) => out,
            PreparedTest::Perm(job) => {
                let tick = hypdb_obs::Tick::now();
                let (mut out, report) = mit_settle_one(&job);
                hypdb_obs::MIT_SETTLE.observe(tick.elapsed_secs());
                self.cache.counters.note_stage(&report);
                out.statistic = self.cmi(x, y, z);
                out
            }
        }
    }

    fn alpha(&self) -> f64 {
        self.cfg.alpha
    }

    fn assoc(&self, x: Var, y: Var, z: &[Var]) -> f64 {
        self.cmi(x, y, z)
    }

    /// The χ²-style power heuristic: a test is reliable when
    /// `df · β ≤ n` (the same rule HyMIT uses to trust the asymptotic
    /// approximation, §6).
    fn reliable(&self, x: Var, y: Var, z: &[Var]) -> bool {
        let df = self.paper_dof(x, y, z);
        df > 0.0 && df * self.cfg.mit.beta <= self.num_rows() as f64
    }

    /// Dependence verdicts are calibrated for the permutation-based
    /// procedures regardless of sparseness (HyMIT switches to MIT
    /// exactly when χ² would be untrustworthy); the pure χ² oracle
    /// keeps the power gate.
    fn reliable_dependence(&self, x: Var, y: Var, z: &[Var]) -> bool {
        match self.cfg.kind {
            IndependenceTestKind::ChiSquared => self.reliable(x, y, z),
            IndependenceTestKind::Mit
            | IndependenceTestKind::MitSampled { .. }
            | IndependenceTestKind::HyMit => {
                // Still require a non-degenerate pair (both variables
                // must vary in the selection).
                self.counts_for(&[x]).support() > 1 && self.counts_for(&[y]).support() > 1
            }
        }
    }

    fn prefers_batches(&self) -> bool {
        self.cfg.batch.enabled
    }

    /// Plan-then-execute: canonicalise + dedupe the statements, group
    /// them by conditioning set, materialise each group's shared joint
    /// contingency table (largest first, so smaller groups marginalise
    /// from cached supersets), then settle every group's permutation
    /// tests in one pool fan-out with per-statement seeds. Verdicts are
    /// byte-identical to call-at-a-time `test` — grouping and group
    /// order only change which scans are *skipped*.
    fn test_batch(&self, stmts: &[CiStatement]) -> Vec<TestOutcome> {
        if !self.cfg.batch.enabled || stmts.len() <= 1 {
            return stmts.iter().map(|s| self.test(s.x, s.y, &s.z)).collect();
        }
        let plan = Plan::build(stmts);
        let counters = &self.cache.counters;
        AtomicStats::add(&counters.batched_statements, stmts.len() as u64);
        AtomicStats::add(&counters.groups_planned, plan.groups().len() as u64);
        let mut outcomes: Vec<Option<TestOutcome>> = vec![None; plan.num_unique()];
        let mut budgets: Vec<Option<Vec<usize>>> = vec![None; plan.num_unique()];
        hypdb_obs::span("planner_round", || {
            for group in plan.groups() {
                // The shared pass: when the cost model approves (or a
                // forced strategy demands it), one scan — plus any
                // lattice-descent intermediates — covers every member's
                // contingency and entropy work for this conditioning set.
                if self.cfg.materialize {
                    self.stage_group(plan.unique(), group);
                }
                let settled = self.test_group(plan.unique(), &group.members);
                for (&m, (out, budget)) in group.members.iter().zip(settled) {
                    outcomes[m] = Some(out);
                    budgets[m] = Some(budget);
                }
            }
        });
        hypdb_obs::record_explain(|| {
            self.explain_round("batch", stmts, &plan, None, &budgets)
                .to_json()
        });
        plan.slots()
            .iter()
            .map(|&u| {
                outcomes[u]
                    .clone()
                    .expect("every unique statement executed")
            })
            .collect()
    }

    /// Speculation-pruned round evaluation: plan the round once (so
    /// conditioning-set groups share staged joints and lattice
    /// intermediates), then settle verdicts in waves of at most
    /// [`SPECULATION_WAVE`] statements in submission order, stopping at
    /// the first wave containing a hit. Everything past the hit — the
    /// statements the round's sequential semantics must discard — is
    /// skipped unevaluated and counted as `speculative_skipped`. A
    /// statement group is staged (its shared joint and lattice
    /// intermediates materialised) only when a wave first touches it,
    /// so work planned for skipped statements is never paid. The
    /// returned index is identical to the default linear scan — only
    /// the work differs.
    fn find_first(&self, stmts: &[CiStatement], want: bool) -> Option<usize> {
        if !self.cfg.batch.enabled || stmts.len() <= 1 {
            return stmts
                .iter()
                .position(|s| self.independent(s.x, s.y, &s.z) == want);
        }
        let plan = Plan::build(stmts);
        AtomicStats::add(
            &self.cache.counters.groups_planned,
            plan.groups().len() as u64,
        );
        let (hit, budgets) = hypdb_obs::span("planner_round", || {
            self.find_first_planned(stmts, &plan, want)
        });
        hypdb_obs::record_explain(|| {
            self.explain_round("find_first", stmts, &plan, hit, &budgets)
                .to_json()
        });
        hit
    }

    fn stats(&self) -> OracleStats {
        self.cache.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.cache.counters.reset();
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

    fn reset_stats(&self) {
        *self.counters.lock() = OracleStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypdb_graph::bayes::BayesNet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            IndependenceTestKind::Mit,
            IndependenceTestKind::MitSampled { max_groups: 8 },
            IndependenceTestKind::HyMit,
        ] {
            let o = oracle(&t, kind);
            assert!(o.dependent(0, 1, &[]), "{kind:?}: marginal dependence");
            assert!(o.independent(0, 1, &[2]), "{kind:?}: conditional indep");
        }
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
    fn support_predictor_bounds_and_refines() {
        use hypdb_table::TableBuilder;
        let mut b = TableBuilder::new(["x", "y", "k"]);
        for r in 0..400u32 {
            let i = r / 4; // 100 distinct rows, each seen four times
            let x = (i % 2).to_string();
            let y = ((i / 2) % 2).to_string();
            let k = i.to_string();
            b.push_row([x.as_str(), y.as_str(), k.as_str()]).unwrap();
        }
        let t = b.finish();
        let o = oracle(&t, IndependenceTestKind::ChiSquared);
        let cm = o.cost_model();
        let attrs = |vars: &[Var]| o.canonical_attrs(vars);
        // Cold: the predictor is the pure min(∏ dims, rows) bound.
        assert_eq!(o.predict_support(&attrs(&[0, 1])), 4);
        assert_eq!(o.predict_support(&attrs(&[0, 2])), 200); // 2·100 < 400 rows
                                                             // Building a table makes its own prediction exact…
        let joint = o.counts_for(&[0, 1, 2]);
        assert_eq!(joint.support(), 100);
        assert_eq!(o.predict_support(&attrs(&[0, 1, 2])), 100);
        // …and refines every subset: a marginal cannot out-support its
        // parent, so the [0, 2] estimate halves (and is exact here).
        assert_eq!(o.predict_support(&attrs(&[0, 2])), 100);
        assert_eq!(o.counts_for(&[0, 2]).support(), 100);
        // A cached table costs nothing to "build"; deriving a fresh
        // marginal from the cached joint is priced below a scan.
        assert_eq!(o.predict_build_cost(&attrs(&[0, 1, 2]), &cm), 0);
        assert!(o.predict_build_cost(&attrs(&[1, 2]), &cm) < cm.scan_cost(2));
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
    fn find_first_matches_lazy_scan() {
        let t = fork_table();
        // In the fork X ← Z → Y: X ⊥⊥ Y | Z, everything else dependent.
        let stmts = vec![
            CiStatement::new(0, 2, vec![]),
            CiStatement::new(1, 2, vec![0]),
            CiStatement::new(0, 1, vec![2]),
            CiStatement::new(0, 1, vec![]),
            CiStatement::new(1, 2, vec![]),
        ];
        for force in [PlanForce::Cost, PlanForce::Scan, PlanForce::Marginalise] {
            let mut cfg = CiConfig::default();
            cfg.batch.force = force;
            let o = DataOracle::over_all_attrs(&t, t.all_rows(), cfg);
            for want in [true, false] {
                let lazy = stmts
                    .iter()
                    .position(|s| o.independent(s.x, s.y, &s.z) == want);
                assert_eq!(o.find_first(&stmts, want), lazy, "want={want}");
            }
            // An all-miss round returns None.
            let all_dep = vec![
                CiStatement::new(0, 2, vec![]),
                CiStatement::new(1, 2, vec![]),
            ];
            assert_eq!(o.find_first(&all_dep, true), None);
        }
    }

    #[test]
    fn forced_strategies_agree_and_count_decisions() {
        let t = fork_table();
        let stmts = vec![
            CiStatement::new(0, 1, vec![2]),
            CiStatement::new(0, 2, vec![]),
            CiStatement::new(1, 2, vec![]),
            CiStatement::new(0, 1, vec![]),
        ];
        let mut baseline = None;
        for force in [PlanForce::Cost, PlanForce::Scan, PlanForce::Marginalise] {
            let mut cfg = CiConfig::default();
            cfg.batch.force = force;
            let o = DataOracle::over_all_attrs(&t, t.all_rows(), cfg);
            let outs = o.test_batch(&stmts);
            let key: Vec<(u64, u64)> = outs
                .iter()
                .map(|o| (o.statistic.to_bits(), o.p_value.to_bits()))
                .collect();
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(&key, b, "strategy {force:?} changed outcomes"),
            }
            let s = o.stats();
            match force {
                // Every table built fresh: no superset derivations.
                PlanForce::Scan => assert_eq!(s.marginalised_from_superset, 0),
                // The group joint always materialises, so the
                // single-stratum tables derive from it.
                PlanForce::Marginalise => assert!(s.marginalised_from_superset > 0),
                PlanForce::Cost => {}
            }
            assert_eq!(s.scans_direct, s.table_scans);
        }
    }

    #[test]
    fn strata_builders_agree_with_dense_tables() {
        // One statement, three routes to its strata: the oracle's
        // (canonical cached table, scanned or marginalised from a
        // superset), `Stratified::build` (its own count over the
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
            let key: Vec<u32> = az.iter().map(|&a| t.col(a).at(row)).collect();
            tabs.entry(key)
                .or_insert_with(|| CrossTab::zeros(r, c))
                .add(t.col(ax).at(row) as usize, t.col(ay).at(row) as usize, 1);
        }
        let dense = Strata::new(tabs.into_values().collect());
        assert!(dense.num_groups() > 10 && dense.total() == rows.len() as u64);
        assert_eq!(Stratified::build(&t, &rows, ax, ay, &az), dense);

        for force in [PlanForce::Cost, PlanForce::Scan] {
            let mut cfg = CiConfig::default();
            cfg.batch.force = force;
            let o = DataOracle::new(&t, rows.clone(), vars.clone(), cfg);
            // A cached superset for the cost model to derive from.
            o.counts_for(&[0, 1, 2, 3, 4]);
            assert_eq!(o.strata(x, y, &z), dense, "{force:?}");
            let derived = o.stats().marginalised_from_superset;
            assert_eq!(derived > 0, force == PlanForce::Cost, "{force:?}");
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
        o.reset_stats();
        assert_eq!(o.stats().tests, 0);
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
    fn statement_seeding_makes_tests_pure() {
        // The same statement must give the same outcome on repeat and
        // under concurrent access from pool workers — the property that
        // lets CD fan tests out without changing any verdict.
        let t = fork_table();
        let o = oracle(&t, IndependenceTestKind::Mit);
        let base = o.test(0, 1, &[2]);
        assert_eq!(o.test(0, 1, &[2]), base, "repeat call");
        let outs = hypdb_exec::ThreadPool::new(4).map_indices(8, |_| o.test(0, 1, &[2]));
        for out in outs {
            assert_eq!(out, base, "concurrent call");
        }
        // The z-set seed is order-insensitive (z is a set).
        let t2 = fork_table();
        let o2 = DataOracle::over_all_attrs(
            &t2,
            t2.all_rows(),
            CiConfig {
                kind: IndependenceTestKind::Mit,
                ..CiConfig::default()
            },
        );
        assert_eq!(o2.test(0, 1, &[2]), base, "fresh oracle, same data");
    }

    #[test]
    fn oracle_honours_early_stop() {
        // A key-like column shatters the selection so HyMit takes the
        // permutation path; with early_stop set, a clear verdict must
        // settle before the full budget (and identically on repeat).
        use hypdb_table::TableBuilder;
        let mut b = TableBuilder::new(["x", "y", "k"]);
        for i in 0..400u32 {
            let x = (i % 2).to_string();
            let y = (i % 2).to_string(); // x == y: maximal dependence
            let k = (i % 199).to_string();
            b.push_row([x.as_str(), y.as_str(), k.as_str()]).unwrap();
        }
        let t = b.finish();
        let budget = 2_048;
        let mk = |early| {
            let cfg = CiConfig {
                kind: IndependenceTestKind::HyMit,
                mit: MitConfig {
                    permutations: budget,
                    early_stop: early,
                    // Pinned single-stage: this test is about the
                    // early-termination rule's own budget cut; staging
                    // would settle the statement at a screening
                    // checkpoint first and mask it.
                    staged: false,
                    ..MitConfig::default()
                },
                ..CiConfig::default()
            };
            DataOracle::over_all_attrs(&t, t.all_rows(), cfg)
        };
        let stopped = mk(Some(0.01)).test(0, 1, &[2]);
        assert_ne!(stopped.method, TestMethod::ChiSquared);
        let done = stopped.permutations.expect("permutation test");
        assert!(done < budget, "early_stop must cut the budget ({done})");
        let full = mk(None).test(0, 1, &[2]);
        assert_eq!(full.permutations, Some(budget));
        // Same verdict either way.
        assert_eq!(
            stopped.dependent(0.01),
            full.dependent(0.01),
            "stopped p={} full p={}",
            stopped.p_value,
            full.p_value
        );
    }

    #[test]
    fn batched_outcomes_equal_call_at_a_time() {
        // The planner invariant: grouping, dedup, and group order never
        // change a single verdict byte. Compare against a *separate*
        // oracle so the batched run cannot lean on sequentially warmed
        // caches.
        let t = fork_table();
        for kind in [
            IndependenceTestKind::ChiSquared,
            IndependenceTestKind::Mit,
            IndependenceTestKind::MitSampled { max_groups: 8 },
            IndependenceTestKind::HyMit,
        ] {
            let stmts = vec![
                CiStatement::new(0, 1, vec![]),
                CiStatement::new(0, 1, vec![2]),
                CiStatement::new(1, 0, vec![2]), // orientation is distinct
                CiStatement::new(0, 2, vec![]),
                CiStatement::new(0, 1, vec![2]), // duplicate
                CiStatement::new(1, 2, vec![0]),
            ];
            let sequential: Vec<TestOutcome> = {
                let o = oracle(&t, kind);
                stmts.iter().map(|s| o.test(s.x, s.y, &s.z)).collect()
            };
            let batched = oracle(&t, kind).test_batch(&stmts);
            assert_eq!(batched, sequential, "{kind:?}");
        }
    }

    #[test]
    fn batching_counts_statements_and_saves_scans() {
        // A Grow–Shrink-shaped round: every candidate against the same
        // (empty) boundary — one shared joint answers all of them.
        let t = fork_table();
        let stmts: Vec<CiStatement> = vec![
            CiStatement::new(0, 1, vec![]),
            CiStatement::new(0, 2, vec![]),
            CiStatement::new(1, 2, vec![]),
        ];
        let batched = oracle(&t, IndependenceTestKind::ChiSquared);
        batched.test_batch(&stmts);
        let bs = batched.stats();
        assert_eq!(bs.batched_statements, 3);
        assert_eq!(bs.groups_planned, 1, "{bs:?}");
        let sequential = oracle(&t, IndependenceTestKind::ChiSquared);
        for s in &stmts {
            sequential.test(s.x, s.y, &s.z);
        }
        let ss = sequential.stats();
        assert_eq!(ss.batched_statements, 0);
        assert!(
            bs.table_scans < ss.table_scans,
            "batched {} vs sequential {} scans",
            bs.table_scans,
            ss.table_scans
        );
    }

    #[test]
    fn batch_disabled_falls_back_to_sequential() {
        let t = fork_table();
        let cfg = CiConfig {
            kind: IndependenceTestKind::HyMit,
            batch: crate::plan::BatchConfig {
                enabled: false,
                ..crate::plan::BatchConfig::default()
            },
            ..CiConfig::default()
        };
        let o = DataOracle::over_all_attrs(&t, t.all_rows(), cfg);
        let stmts = vec![
            CiStatement::new(0, 1, vec![2]),
            CiStatement::new(0, 2, vec![]),
        ];
        let outs = o.test_batch(&stmts);
        assert_eq!(o.stats().batched_statements, 0, "planner bypassed");
        let o2 = oracle(&t, IndependenceTestKind::HyMit);
        assert_eq!(outs[0], o2.test(0, 1, &[2]));
        assert_eq!(outs[1], o2.test(0, 2, &[]));
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
