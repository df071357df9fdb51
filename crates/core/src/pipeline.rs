//! The HypDB façade: detect → explain → resolve, end to end.

use crate::context::{distinct, marginal, strata, Context, Selection};
use crate::detect::{bias_total, detect_bias, BiasReport};
use crate::effect::{
    adjusted_averages, block_averages, level_labels, natural_direct_effect, EffectEstimate,
};
use crate::error::{Error, Result};
use crate::explain::{coarse_explanations, fine_explanations, Explanations};
use crate::query::Query;
use crate::rewrite::{render_rewrites, RewriteResult};
use hypdb_causal::cd::CovariateDiscovery;
use hypdb_causal::oracle::{CiConfig, CiOracle, DataOracle, OracleCache};
use hypdb_causal::preprocess::PreprocessConfig;
use hypdb_causal::CdConfig;
use hypdb_obs::Tick;
use hypdb_stats::independence::{hymit, TestOutcome};
use hypdb_table::{AttrId, SelectionImage, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Pipeline configuration.
///
/// Every fan-out below — preprocessing's per-attribute maps, the one
/// scheduled CD discovery of T and the outcomes, MIT permutation
/// chunks — runs on the global pool (`HYPDB_THREADS` /
/// `available_parallelism`; see [`hypdb_exec::global_threads`]).
/// Thread counts never change results — only wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypDbConfig {
    /// Independence-test configuration (shared by detection and
    /// discovery).
    pub ci: CiConfig,
    /// CD-algorithm configuration.
    pub cd: CdConfig,
    /// Logical-dependency preprocessing; `None` disables it.
    pub preprocess: Option<PreprocessConfig>,
    /// Fine-grained explanations to report.
    pub top_k: usize,
    /// Whether to estimate direct effects (requires learning `PA_Y`).
    pub compute_direct: bool,
}

impl Default for HypDbConfig {
    fn default() -> Self {
        HypDbConfig {
            ci: CiConfig::default(),
            cd: CdConfig::default(),
            preprocess: Some(PreprocessConfig::default()),
            top_k: 2,
            compute_direct: true,
        }
    }
}

/// Wall-clock timings of the three phases (Table 1's columns), in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Timings {
    /// Covariate/mediator discovery + bias detection.
    pub detection: f64,
    /// Explanation generation.
    pub explanation: f64,
    /// Query rewriting / effect estimation.
    pub resolution: f64,
}

/// Per-context analysis output (one row-block of a Fig 3/4 report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextReport {
    /// Context label (`Quarter=1, …` or `(all)`).
    pub label: String,
    /// Rows in the context.
    pub n_rows: usize,
    /// Compared treatment levels (rendered values, code-ascending).
    pub levels: Vec<String>,
    /// The original query's answers: `sql_answers[level][outcome]`.
    pub sql_answers: Vec<Vec<f64>>,
    /// Naive difference per outcome (two-level comparisons).
    pub sql_diff: Option<Vec<f64>>,
    /// Significance of the naive difference: `I(T;Y_o) = 0` tests.
    pub sql_significance: Vec<TestOutcome>,
    /// Balance test w.r.t. the covariates (total-effect bias).
    pub bias_total: BiasReport,
    /// Balance test w.r.t. covariates ∪ mediators, per outcome
    /// (direct-effect bias).
    pub bias_direct: Vec<BiasReport>,
    /// Rewritten-query answers for the total effect.
    pub total_effect: Option<EffectEstimate>,
    /// Rewritten-query answers for the direct effect, per outcome.
    pub direct_effects: Vec<EffectEstimate>,
    /// Coarse- and fine-grained explanations.
    pub explanations: Explanations,
}

/// The full analysis output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Relation name.
    pub from: String,
    /// Treatment attribute name.
    pub treatment: String,
    /// Outcome attribute names.
    pub outcomes: Vec<String>,
    /// Discovered (or supplied) covariates `Z`.
    pub covariates: Vec<String>,
    /// Mediators `M_j` per outcome.
    pub mediators: Vec<Vec<String>>,
    /// True when CD found no parents and `MB(T)` was used instead (§4).
    pub used_fallback: bool,
    /// Attributes dropped as FDs: `(dropped, kept)` names.
    pub dropped_fd: Vec<(String, String)>,
    /// Attributes dropped as key-like.
    pub dropped_keys: Vec<String>,
    /// Per-context results.
    pub contexts: Vec<ContextReport>,
    /// Rewritten SQL (total + direct).
    pub rewritten: RewriteResult,
    /// Phase timings.
    pub timings: Timings,
}

/// Discovery output (exposed for benchmarks that time it separately).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Discovery {
    /// Covariates `Z = PA_T` (or the `MB(T)` fallback).
    pub covariates: Vec<AttrId>,
    /// Mediators per outcome: `M_j = PA_{Y_j} − {T} − Z`.
    pub mediators: Vec<Vec<AttrId>>,
    /// Whether the fallback was used for `Z`.
    pub used_fallback: bool,
    /// FD drops `(dropped, kept)`.
    pub dropped_fd: Vec<(AttrId, AttrId)>,
    /// Key-like drops.
    pub dropped_keys: Vec<AttrId>,
}

/// The HypDB system bound to a [`Table`]: WHERE selection, discovery,
/// detection, explanation and effect estimation over its rows.
pub struct HypDb<'a> {
    table: &'a Table,
    cfg: HypDbConfig,
    covariates: Option<Vec<AttrId>>,
    mediators: Option<Vec<AttrId>>,
    oracle_cache: Option<Arc<OracleCache>>,
}

impl<'a> HypDb<'a> {
    /// Binds HypDB to a table with default configuration.
    pub fn new(table: &'a Table) -> Self {
        HypDb {
            table,
            cfg: HypDbConfig::default(),
            covariates: None,
            mediators: None,
            oracle_cache: None,
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, cfg: HypDbConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Shares an existing oracle cache with this pipeline's discovery
    /// phase. The cache **must** belong to the same `(table, WHERE
    /// selection)` — its contingency tables and entropies are pure
    /// functions of that data, so concurrent analyses over one
    /// selection (e.g. in-flight server requests) hit one another's
    /// entries; the caller can
    /// also read the accumulated [`hypdb_causal::OracleStats`] back
    /// out of it after the run.
    pub fn with_oracle_cache(mut self, cache: Arc<OracleCache>) -> Self {
        self.oracle_cache = Some(cache);
        self
    }

    /// Supplies known covariates, skipping automatic discovery.
    pub fn with_covariates<N: AsRef<str>>(
        mut self,
        names: impl IntoIterator<Item = N>,
    ) -> Result<Self> {
        self.covariates = Some(self.attrs(names)?);
        Ok(self)
    }

    /// Supplies known mediators (applied to every outcome), skipping
    /// automatic discovery.
    pub fn with_mediators<N: AsRef<str>>(
        mut self,
        names: impl IntoIterator<Item = N>,
    ) -> Result<Self> {
        self.mediators = Some(self.attrs(names)?);
        Ok(self)
    }

    fn attrs<N: AsRef<str>>(&self, names: impl IntoIterator<Item = N>) -> Result<Vec<AttrId>> {
        let ids = names.into_iter().map(|n| self.table.attr(n.as_ref()));
        Ok(ids.collect::<std::result::Result<_, _>>()?)
    }

    /// The bound table.
    pub fn table(&self) -> &Table {
        self.table
    }

    /// [`Self::discover_selected`] after running `query`'s WHERE scan.
    pub fn discover(&self, query: &Query) -> Result<Discovery> {
        self.discover_selected(&Selection::new(self.table, query.clone()))
    }

    /// Discovers covariates and mediators for a query (§4): logical
    /// dependencies are dropped, then CD learns `PA_T` (and `PA_{Y_j}`
    /// for direct effects) on the WHERE-selected sub-population.
    pub fn discover_selected(&self, selection: &Selection) -> Result<Discovery> {
        let Selection { query, rows } = selection;
        if rows.is_empty() {
            return Err(Error::EmptySelection);
        }

        // Never treat the query's own attributes as droppable or as
        // adjustment candidates.
        let referenced = query.referenced();
        let others: Vec<AttrId> = self
            .table
            .schema()
            .attr_ids()
            .filter(|a| !referenced.contains(a))
            .collect();
        // The one image of this call: preprocessing and the oracle
        // gather each attribute they scan into it once, and a request
        // that finds everything cached gathers nothing. Whichever
        // preprocessing step or Grow–Shrink root asks for a column
        // first gathers it, so every `gather` span records under this
        // frame, not under the asker's.
        let here = hypdb_obs::capture();
        let image = SelectionImage::new(self.table, rows).with_gather_hook(move |gather| {
            hypdb_obs::install(&here, || hypdb_obs::span("gather", gather))
        });
        let cache = self.oracle_cache.clone().unwrap_or_default();
        // Nothing in the report is request-specific, so a shared cache
        // remembers it with the rest of the selection's facts.
        let dropped = hypdb_obs::span("preprocess", || {
            let pcfg = self.cfg.preprocess.as_ref()?;
            Some(cache.preprocess(&image, &others, pcfg))
        });
        let candidate_attrs = dropped.as_ref().map_or(&others, |rep| &rep.kept);

        // Oracle variables: treatment + outcomes + surviving candidates.
        let mut vars: Vec<AttrId> = vec![query.treatment];
        vars.extend(&query.outcomes);
        vars.extend(candidate_attrs);
        let oracle = DataOracle::over_image(image, vars.clone(), self.cfg.ci, cache);

        // One CD schedule for every target discovery needs: T (oracle
        // variable 0) unless covariates are given, and each outcome
        // (variable 1 + j) when mediators are to be discovered.
        let mut targets: Vec<usize> = Vec::new();
        if self.covariates.is_none() {
            targets.push(0);
        }
        if self.cfg.compute_direct && self.mediators.is_none() {
            targets.extend(1..=query.outcomes.len());
        }
        let mut found = hypdb_obs::span("discovery", || {
            CovariateDiscovery::new(&oracle, self.cfg.cd).discover_all(&targets)
        })
        .into_iter();

        let (covariates, used_fallback) = match &self.covariates {
            Some(z) => (z.clone(), false),
            None => {
                let out = found.next().expect("T's outcome");
                let excluded: Vec<AttrId> = query.referenced();
                let to_attrs = |vs: &[usize]| -> Vec<AttrId> {
                    vs.iter()
                        .map(|&v| vars[v])
                        .filter(|a| !excluded.contains(a))
                        .collect()
                };
                let parents = to_attrs(&out.parents);
                if parents.is_empty() {
                    // §4 fallback: Z = MB(T) − {Y}.
                    (to_attrs(&out.markov_boundary), true)
                } else {
                    (parents, false)
                }
            }
        };

        let mediators: Vec<Vec<AttrId>> = if !self.cfg.compute_direct {
            vec![Vec::new(); query.outcomes.len()]
        } else if let Some(m) = &self.mediators {
            vec![m.clone(); query.outcomes.len()]
        } else {
            let admissible = |a: &AttrId| {
                *a != query.treatment
                    && !covariates.contains(a)
                    && !query.outcomes.contains(a)
                    && !query.grouping.contains(a)
            };
            hypdb_obs::span("discovery", || {
                found
                    .map(|out| {
                        let parents: Vec<AttrId> = out
                            .parents
                            .iter()
                            .map(|&v| vars[v])
                            .filter(admissible)
                            .collect();
                        if !parents.is_empty() {
                            return parents;
                        }
                        // Fallback mirroring §4's Z-fallback: when Y's
                        // parents cannot be oriented, take MB(Y)
                        // filtered to attributes that are (marginally)
                        // dependent on the treatment — a mediator must
                        // be a descendant of T. Like the paper's own
                        // Ex 1.1 output (which lists ArrDelay as
                        // "mediating"), this can admit descendants of
                        // Y; the NDE then conditions on them
                        // conservatively.
                        out.markov_boundary
                            .iter()
                            .filter(|&&v| {
                                v != 0 && oracle.reliable(0, v, &[]) && oracle.dependent(0, v, &[])
                            })
                            .map(|&v| vars[v])
                            .filter(admissible)
                            .collect()
                    })
                    .collect()
            })
        };

        Ok(Discovery {
            covariates,
            mediators,
            used_fallback,
            dropped_fd: dropped
                .as_ref()
                .map_or(Vec::new(), |rep| rep.dropped_fd.clone()),
            dropped_keys: dropped.map_or(Vec::new(), |rep| rep.dropped_keys.clone()),
        })
    }

    /// [`Self::analyze_selected`] after running `query`'s WHERE scan.
    pub fn analyze(&self, query: &Query) -> Result<AnalysisReport> {
        self.analyze_selected(&Selection::new(self.table, query.clone()))
    }

    /// Full pipeline: discovery, then per-context detection,
    /// explanation and resolution.
    pub fn analyze_selected(&self, selection: &Selection) -> Result<AnalysisReport> {
        // Feeds Timings, which the wire layer zeroes before
        // serialization (wire.rs canonical_report_bytes).
        let t0 = Tick::now();
        let query = &selection.query;
        let discovery = self.discover_selected(selection)?;
        let mut timings = Timings::default();
        let name = |a: &AttrId| self.table.schema().name(*a).to_string();

        // One independent analysis per context (the row-blocks of a
        // Fig 3/4 report), one after another; a context's heavy
        // statements still spread their permutation chunks over the
        // pool. Every context derives its RNG seeds from the
        // configuration alone, so the reports are identical at any
        // thread count. Each phase's time is the wall clock it took,
        // summed over the contexts.
        let ctxs = selection.contexts(self.table);
        let mut context_reports = Vec::with_capacity(ctxs.len());
        for ctx in &ctxs {
            let (report, t) = self.analyze_context(query, &discovery, ctx)?;
            timings.detection += t.detection;
            timings.explanation += t.explanation;
            timings.resolution += t.resolution;
            context_reports.push(report);
        }
        // Attribute the un-phased remainder (discovery, bookkeeping) to
        // detection. The phases are disjoint stretches of this call's
        // wall clock, so the remainder is negative only by the rounding
        // of separately read clocks; never subtract in that case.
        let unattributed =
            t0.elapsed_secs() - (timings.detection + timings.explanation + timings.resolution);
        if unattributed > 0.0 {
            timings.detection += unattributed;
        }

        // Union of all mediator sets for the direct rewrite text.
        let med_union = distinct(discovery.mediators.iter().flatten().copied());
        let rewritten = hypdb_obs::span("rewrite", || {
            render_rewrites(self.table, query, &discovery.covariates, &med_union)
        });

        Ok(AnalysisReport {
            from: query.from.clone(),
            treatment: name(&query.treatment),
            outcomes: query.outcomes.iter().map(&name).collect(),
            covariates: discovery.covariates.iter().map(name).collect(),
            mediators: discovery
                .mediators
                .iter()
                .map(|ms| ms.iter().map(name).collect())
                .collect(),
            used_fallback: discovery.used_fallback,
            dropped_fd: discovery
                .dropped_fd
                .iter()
                .map(|(a, b)| (name(a), name(b)))
                .collect(),
            dropped_keys: discovery.dropped_keys.iter().map(name).collect(),
            contexts: context_reports,
            rewritten,
            timings,
        })
    }

    fn analyze_context(
        &self,
        query: &Query,
        discovery: &Discovery,
        ctx: &Context,
    ) -> Result<(ContextReport, Timings)> {
        let mut timings = Timings::default();
        let table = self.table;
        let t = query.treatment;
        let seed = self.cfg.ci.seed;
        let mit_cfg = self.cfg.ci.mit;

        // The one scan of this context: everything below reads counts.
        let all_mediators = discovery.mediators.iter().flatten();
        let named = query.outcomes.iter().chain(&discovery.covariates);
        let counts = ctx.counts(
            table,
            std::iter::once(t).chain(named.chain(all_mediators.clone()).copied()),
        );

        // Observed treatment levels in this context.
        let mut levels: Vec<u32> = Vec::new();
        marginal(&counts, &[t]).for_each(|key, _| levels.push(key[0]));

        // --- The original query's answers: the adjustment formula
        // with nothing to adjust for. ---
        let sql = block_averages(table, &counts, t, &levels, &query.outcomes, &[], &[])?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        let sql_significance: Vec<TestOutcome> = query
            .outcomes
            .iter()
            .map(|&y| hymit(&strata(&counts, t, y, &[]), &mit_cfg, &mut rng))
            .collect();

        // --- Detection. ---
        // Phase ticks feed Timings, which the wire layer zeroes before
        // serialization (wire.rs canonical_report_bytes).
        let td = Tick::now();
        let (bias_total, bias_direct) = hypdb_obs::span("detect", || {
            let bias_total = bias_total(
                table,
                &ctx.rows,
                &counts,
                t,
                &discovery.covariates,
                &self.cfg.ci,
            );
            let bias_direct: Vec<BiasReport> = discovery
                .mediators
                .iter()
                .map(|ms| {
                    let mut v = discovery.covariates.clone();
                    v.extend(ms);
                    detect_bias(
                        table,
                        &ctx.rows,
                        &counts,
                        t,
                        &v,
                        self.cfg.ci.alpha,
                        &mit_cfg,
                        seed ^ 0xD1,
                    )
                })
                .collect();
            (bias_total, bias_direct)
        });
        timings.detection += td.elapsed_secs();

        // --- Explanation. ---
        let te = Tick::now();
        let explanations = hypdb_obs::span("explain", || {
            let explain_attrs = distinct(discovery.covariates.iter().chain(all_mediators).copied());
            let coarse = coarse_explanations(table, &counts, t, &explain_attrs);
            let fine = match (coarse.first(), query.outcomes.first()) {
                (Some(top), Some(&y)) if top.mutual_information > 0.0 => {
                    fine_explanations(table, &counts, t, y, top.attr, self.cfg.top_k)
                }
                _ => Vec::new(),
            };
            Explanations { coarse, fine }
        });
        timings.explanation += te.elapsed_secs();

        // --- Resolution. ---
        let tr = Tick::now();
        let (total_effect, direct_effects) = hypdb_obs::span("effect", || -> Result<_> {
            if levels.len() >= 2 {
                let total = adjusted_averages(
                    table,
                    &counts,
                    t,
                    &levels,
                    &query.outcomes,
                    &discovery.covariates,
                    &mit_cfg,
                    seed ^ 0xA7E,
                )?;
                let directs = query
                    .outcomes
                    .iter()
                    .zip(&discovery.mediators)
                    .map(|(&y, ms)| {
                        natural_direct_effect(
                            table,
                            &counts,
                            t,
                            &levels,
                            &[y],
                            &discovery.covariates,
                            ms,
                            &mit_cfg,
                            seed ^ 0xDE,
                        )
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok((Some(total), directs))
            } else {
                Ok((None, Vec::new()))
            }
        })?;
        timings.resolution += tr.elapsed_secs();

        Ok((
            ContextReport {
                label: ctx.label(table),
                n_rows: ctx.rows.len(),
                levels: level_labels(table, t, &levels),
                sql_answers: sql.adjusted,
                sql_diff: sql.diff,
                sql_significance,
                bias_total,
                bias_direct,
                total_effect,
                direct_effects,
                explanations,
            },
            timings,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use hypdb_graph::bayes::BayesNet;
    use hypdb_graph::dag::Dag;
    use hypdb_table::TableBuilder;

    /// Confounded generator: Z -> T, Z -> Y; no T -> Y edge.
    fn confounded_net(n: usize, seed: u64) -> Table {
        let mut dag = Dag::with_names(["Z", "T", "Y"]);
        dag.add_edge(0, 1);
        dag.add_edge(0, 2);
        let mut net = BayesNet::uniform(dag, vec![2, 2, 2]);
        net.set_cpt(0, vec![0.5, 0.5]);
        net.set_cpt(1, vec![0.8, 0.2, 0.2, 0.8]);
        net.set_cpt(2, vec![0.75, 0.25, 0.25, 0.75]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        net.sample_table(&mut rng, n)
    }

    #[test]
    fn end_to_end_confounded_query() {
        let table = confounded_net(20_000, 42);
        let q = QueryBuilder::new("T").outcome("Y").build(&table).unwrap();
        let report = HypDb::new(&table).analyze(&q).unwrap();

        // Discovery must find Z as the covariate.
        assert_eq!(
            report.covariates,
            vec!["Z"],
            "fallback={}",
            report.used_fallback
        );
        assert_eq!(report.contexts.len(), 1);
        let ctx = &report.contexts[0];

        // The naive query shows a large, significant difference…
        assert!(ctx.sql_diff.as_ref().unwrap()[0].abs() > 0.1);
        assert!(ctx.sql_significance[0].p_value < 0.01);
        // …and is detected as biased.
        assert!(ctx.bias_total.biased);
        // The adjusted difference vanishes.
        let total = ctx.total_effect.as_ref().unwrap();
        assert!(
            total.diff.as_ref().unwrap()[0].abs() < 0.03,
            "adjusted diff {:?}",
            total.diff
        );
        assert!(total.significance[0].p_value > 0.01);
        // Z gets all the responsibility.
        assert_eq!(ctx.explanations.coarse[0].name, "Z");
        assert!(ctx.explanations.coarse[0].responsibility > 0.9);
        assert!(!ctx.explanations.fine.is_empty());
        // Rewritten SQL mentions the covariate.
        assert!(report.rewritten.total_sql.contains("Z"));
    }

    #[test]
    fn known_covariates_skip_discovery() {
        let table = confounded_net(5_000, 7);
        let q = QueryBuilder::new("T").outcome("Y").build(&table).unwrap();
        let report = HypDb::new(&table)
            .with_covariates(["Z"])
            .unwrap()
            .analyze(&q)
            .unwrap();
        assert_eq!(report.covariates, vec!["Z"]);
        assert!(!report.used_fallback);
    }

    #[test]
    fn unbiased_randomized_data() {
        // T randomised: no covariate imbalance possible.
        let mut dag = Dag::with_names(["Z", "T", "Y"]);
        dag.add_edge(0, 2); // Z -> Y only
        dag.add_edge(1, 2); // T -> Y
        let mut net = BayesNet::uniform(dag, vec![2, 2, 2]);
        net.set_cpt(0, vec![0.5, 0.5]);
        net.set_cpt(1, vec![0.5, 0.5]);
        net.set_cpt(2, vec![0.9, 0.1, 0.6, 0.4, 0.4, 0.6, 0.1, 0.9]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let table = net.sample_table(&mut rng, 20_000);
        let q = QueryBuilder::new("T").outcome("Y").build(&table).unwrap();
        let report = HypDb::new(&table)
            .with_covariates(["Z"])
            .unwrap()
            .analyze(&q)
            .unwrap();
        let ctx = &report.contexts[0];
        assert!(!ctx.bias_total.biased, "randomised T cannot be biased");
        // Naive and adjusted agree on a real effect.
        let naive = ctx.sql_diff.as_ref().unwrap()[0];
        let adj = ctx.total_effect.as_ref().unwrap().diff.as_ref().unwrap()[0];
        assert!((naive - adj).abs() < 0.05);
        assert!(adj.abs() > 0.2);
    }

    #[test]
    fn empty_selection_is_an_error() {
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        b.push_row(["a", "1", "x"]).unwrap();
        let table = b.finish();
        let q = QueryBuilder::new("T")
            .outcome("Y")
            .filter_eq("Z", "nope")
            .build(&table)
            .unwrap();
        assert!(matches!(
            HypDb::new(&table).analyze(&q),
            Err(Error::EmptySelection)
        ));
    }

    #[test]
    fn grouping_produces_context_per_value() {
        let table = confounded_net(4_000, 9);
        let q = QueryBuilder::new("T")
            .outcome("Y")
            .group_by("Z")
            .build(&table)
            .unwrap();
        let report = HypDb::new(&table)
            .with_covariates(Vec::<String>::new())
            .unwrap()
            .analyze(&q)
            .unwrap();
        assert_eq!(report.contexts.len(), 2);
        assert!(report.contexts.iter().any(|c| c.label == "Z=0"));
        // Within a Z stratum, T ⊥ Y: no significant naive difference.
        for ctx in &report.contexts {
            assert!(ctx.sql_significance[0].p_value > 0.001);
        }
    }

    #[test]
    fn compute_direct_false_skips_mediators() {
        let table = confounded_net(3_000, 2);
        let q = QueryBuilder::new("T").outcome("Y").build(&table).unwrap();
        let cfg = HypDbConfig {
            compute_direct: false,
            ..HypDbConfig::default()
        };
        let report = HypDb::new(&table).with_config(cfg).analyze(&q).unwrap();
        assert!(report.mediators.iter().all(Vec::is_empty));
        assert!(report.rewritten.direct_sql.is_none());
    }

    #[test]
    fn mediator_override_respected() {
        let table = confounded_net(3_000, 6);
        let q = QueryBuilder::new("T").outcome("Y").build(&table).unwrap();
        let report = HypDb::new(&table)
            .with_covariates(Vec::<String>::new())
            .unwrap()
            .with_mediators(["Z"])
            .unwrap()
            .analyze(&q)
            .unwrap();
        assert_eq!(report.mediators, vec![vec!["Z".to_string()]]);
        assert!(report
            .rewritten
            .direct_sql
            .as_ref()
            .is_some_and(|s| s.contains("Z")));
    }

    #[test]
    fn report_serializes_to_json() {
        let table = confounded_net(2_000, 8);
        let q = QueryBuilder::new("T").outcome("Y").build(&table).unwrap();
        let report = HypDb::new(&table)
            .with_covariates(["Z"])
            .unwrap()
            .analyze(&q)
            .unwrap();
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("\"covariates\":[\"Z\"]"));
        let back: AnalysisReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.covariates, report.covariates);
        assert_eq!(back.contexts.len(), report.contexts.len());
    }

    #[test]
    fn timings_are_recorded() {
        let table = confounded_net(2_000, 1);
        let q = QueryBuilder::new("T").outcome("Y").build(&table).unwrap();
        let report = HypDb::new(&table).analyze(&q).unwrap();
        let t = report.timings;
        assert!(t.detection >= 0.0 && t.explanation >= 0.0 && t.resolution >= 0.0);
        assert!(t.detection + t.explanation + t.resolution > 0.0);
    }
}
