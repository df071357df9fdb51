//! The estimators as they stood before the context's table of counts
//! (PR 14's tree), kept verbatim as the reference of the differential
//! tests below: every one of them re-reads the context's rows — the
//! effect loops and the cross tab through a map keyed by a freshly
//! boxed key per row, the explanations through one scan per entropy.
//! The production code reads one [`ContingencyTable`] per context and
//! must produce the same bits.

use crate::effect::{EffectEstimate, EffectKind};
use crate::error::{Error, Result};
use crate::explain::{pair_contributions, FineExplanation, Responsibility};
use hypdb_stats::borda::borda_aggregate;
use hypdb_stats::crosstab::CrossTab;
use hypdb_stats::independence::{mit_auto, MitConfig};
use hypdb_stats::EntropyEstimator;
use hypdb_table::contingency::{ContingencyTable, Stratified};
use hypdb_table::hash::FxHashMap;
use hypdb_table::{AttrId, ColRef, RowSet, Scan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

struct BlockAcc {
    total: u64,
    /// Per compared level: (count, per-outcome sum).
    per_level: Vec<(u64, Vec<f64>)>,
}

/// The adjustment formula (Eq 2) with exact matching: groups the
/// context rows into blocks homogeneous on `z`, discards blocks missing
/// any of `levels`, and returns the weighted per-level averages where
/// weights are the retained blocks' probabilities.
///
/// With `z = ∅` this degenerates to the plain SQL answer.
#[allow(clippy::too_many_arguments)]
pub fn adjusted_averages<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    t: AttrId,
    levels: &[u32],
    outcomes: &[AttrId],
    z: &[AttrId],
    mit_cfg: &MitConfig,
    seed: u64,
) -> Result<EffectEstimate> {
    if rows.is_empty() {
        return Err(Error::EmptySelection);
    }
    if levels.len() < 2 {
        return Err(Error::DegenerateTreatment {
            attr: table.schema().name(t).to_string(),
            levels: levels.len(),
        });
    }
    let numeric: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|&y| table.numeric_codes(y))
        .collect::<std::result::Result<_, _>>()?;
    let tcol = table.col(t);
    let ycols: Vec<ColRef<'_>> = outcomes.iter().map(|&y| table.col(y)).collect();
    let zcols: Vec<ColRef<'_>> = z.iter().map(|&a| table.col(a)).collect();
    let level_of: FxHashMap<u32, usize> = levels.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    // Blocks in canonical key order: the matched-block weights feed a
    // floating-point sum, so the visit order must not depend on hash
    // bucket layout.
    let mut blocks: BTreeMap<Box<[u32]>, BlockAcc> = BTreeMap::new();
    let mut key = vec![0u32; z.len()];
    for row in rows.iter() {
        for (slot, col) in key.iter_mut().zip(&zcols) {
            *slot = col.at(row);
        }
        let acc = blocks
            .entry(key.clone().into_boxed_slice())
            .or_insert_with(|| BlockAcc {
                total: 0,
                per_level: vec![(0, vec![0.0; outcomes.len()]); levels.len()],
            });
        acc.total += 1;
        if let Some(&li) = level_of.get(&tcol.at(row)) {
            let (count, sums) = &mut acc.per_level[li];
            *count += 1;
            for ((s, vals), col) in sums.iter_mut().zip(&numeric).zip(&ycols) {
                *s += vals[col.at(row) as usize];
            }
        }
    }

    let total_blocks = blocks.len();
    let matched: Vec<&BlockAcc> = blocks
        .values()
        .filter(|b| b.per_level.iter().all(|(c, _)| *c > 0))
        .collect();
    let matched_blocks = matched.len();
    let matched_total: u64 = matched.iter().map(|b| b.total).sum();
    let mut adjusted = vec![vec![0.0; outcomes.len()]; levels.len()];
    if matched_total > 0 {
        for b in &matched {
            let w = b.total as f64 / matched_total as f64;
            for (li, (count, sums)) in b.per_level.iter().enumerate() {
                for (o, s) in sums.iter().enumerate() {
                    adjusted[li][o] += w * (s / *count as f64);
                }
            }
        }
    }

    let diff = (levels.len() == 2).then(|| {
        (0..outcomes.len())
            .map(|o| adjusted[1][o] - adjusted[0][o])
            .collect()
    });

    // Significance of the adjusted difference: I(Y; T | Z) = 0 iff the
    // rewritten query reports no difference. Per §7.1 this is always a
    // permutation test (the χ² shortcut is anti-conservative on the
    // finely-stratified blocks the rewriter produces).
    let mut rng = StdRng::seed_from_u64(seed);
    let significance = outcomes
        .iter()
        .map(|&y| {
            let strata = Stratified::build(table, rows, t, y, z);
            mit_auto(&strata, mit_cfg.permutations, &mut rng)
        })
        .collect();

    Ok(EffectEstimate {
        kind: EffectKind::Total,
        levels: levels.to_vec(),
        adjusted,
        diff,
        significance,
        matched_blocks,
        total_blocks,
        matched_fraction: matched_total as f64 / rows.len() as f64,
    })
}

/// The mediator formula (Eq 3 / Pearl 2001) with exact matching over
/// `(z, m)` blocks:
///
/// `value(t) = Σ_z P(z) Σ_m P(m | t_ctrl, z) · E[Y | T = t, z, m]`
///
/// reported for every compared level `t`, with the mediator
/// distribution held at the **control** level `levels[0]`; the NDE is
/// `value(levels[1]) − value(levels[0])`. We condition the inner
/// expectation on `z` as well as `m` (the standard mediation formula);
/// the paper's printed Eq 3 conditions on `m` only, which coincides
/// when `Y ⊥ Z | T, M`.
#[allow(clippy::too_many_arguments)]
pub fn natural_direct_effect<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    t: AttrId,
    levels: &[u32],
    outcomes: &[AttrId],
    z: &[AttrId],
    mediators: &[AttrId],
    mit_cfg: &MitConfig,
    seed: u64,
) -> Result<EffectEstimate> {
    if rows.is_empty() {
        return Err(Error::EmptySelection);
    }
    if levels.len() < 2 {
        return Err(Error::DegenerateTreatment {
            attr: table.schema().name(t).to_string(),
            levels: levels.len(),
        });
    }
    let numeric: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|&y| table.numeric_codes(y))
        .collect::<std::result::Result<_, _>>()?;
    let tcol = table.col(t);
    let ycols: Vec<ColRef<'_>> = outcomes.iter().map(|&y| table.col(y)).collect();
    let zcols: Vec<ColRef<'_>> = z.iter().map(|&a| table.col(a)).collect();
    let mcols: Vec<ColRef<'_>> = mediators.iter().map(|&a| table.col(a)).collect();
    let level_of: FxHashMap<u32, usize> = levels.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    // Blocks keyed by (z, m); stored grouped under their z-part so the
    // conditional P(m | t_ctrl, z) can be renormalised within z.
    struct ZmAcc {
        per_level: Vec<(u64, Vec<f64>)>,
    }
    #[derive(Default)]
    struct ZAcc {
        total: u64,
        ms: BTreeMap<Box<[u32]>, ZmAcc>,
    }
    // Canonical key order at both levels: the nested weighted float
    // sums below must visit (z, m) blocks in a hash-independent order.
    let mut zblocks: BTreeMap<Box<[u32]>, ZAcc> = BTreeMap::new();
    let mut zkey = vec![0u32; z.len()];
    let mut mkey = vec![0u32; mediators.len()];
    for row in rows.iter() {
        for (slot, col) in zkey.iter_mut().zip(&zcols) {
            *slot = col.at(row);
        }
        for (slot, col) in mkey.iter_mut().zip(&mcols) {
            *slot = col.at(row);
        }
        let zacc = zblocks.entry(zkey.clone().into_boxed_slice()).or_default();
        zacc.total += 1;
        let macc = zacc
            .ms
            .entry(mkey.clone().into_boxed_slice())
            .or_insert_with(|| ZmAcc {
                per_level: vec![(0, vec![0.0; outcomes.len()]); levels.len()],
            });
        if let Some(&li) = level_of.get(&tcol.at(row)) {
            let (count, sums) = &mut macc.per_level[li];
            *count += 1;
            for ((s, vals), col) in sums.iter_mut().zip(&numeric).zip(&ycols) {
                *s += vals[col.at(row) as usize];
            }
        }
    }

    // Exact matching on (z, m): keep blocks with every level present.
    let ctrl = 0usize; // mediator distribution fixed at levels[0]
    let mut total_blocks = 0usize;
    let mut matched_blocks = 0usize;
    let mut matched_rows = 0u64;
    // First pass: per z, the retained m's and the control counts.
    struct ZRetained<'a> {
        z_total: u64,
        ctrl_total: u64,
        ms: Vec<&'a ZmAcc>,
    }
    let mut retained: Vec<ZRetained<'_>> = Vec::new();
    for zacc in zblocks.values() {
        let mut keep = Vec::new();
        let mut ctrl_total = 0u64;
        for macc in zacc.ms.values() {
            total_blocks += 1;
            if macc.per_level.iter().all(|(c, _)| *c > 0) {
                matched_blocks += 1;
                ctrl_total += macc.per_level[ctrl].0;
                matched_rows += macc.per_level.iter().map(|(c, _)| c).sum::<u64>();
                keep.push(macc);
            }
        }
        if !keep.is_empty() && ctrl_total > 0 {
            retained.push(ZRetained {
                z_total: zacc.total,
                ctrl_total,
                ms: keep,
            });
        }
    }
    let retained_z_total: u64 = retained.iter().map(|r| r.z_total).sum();

    let mut adjusted = vec![vec![0.0; outcomes.len()]; levels.len()];
    if retained_z_total > 0 {
        for r in &retained {
            let pz = r.z_total as f64 / retained_z_total as f64;
            for macc in &r.ms {
                let pm = macc.per_level[ctrl].0 as f64 / r.ctrl_total as f64;
                for (li, (count, sums)) in macc.per_level.iter().enumerate() {
                    for (o, s) in sums.iter().enumerate() {
                        adjusted[li][o] += pz * pm * (s / *count as f64);
                    }
                }
            }
        }
    }

    let diff = (levels.len() == 2).then(|| {
        (0..outcomes.len())
            .map(|o| adjusted[1][o] - adjusted[0][o])
            .collect()
    });

    // Significance: I(Y; T | Z ∪ M), by permutation test (§7.1).
    let mut cond: Vec<AttrId> = z.to_vec();
    cond.extend_from_slice(mediators);
    let mut rng = StdRng::seed_from_u64(seed);
    let significance = outcomes
        .iter()
        .map(|&y| {
            let strata = Stratified::build(table, rows, t, y, &cond);
            mit_auto(&strata, mit_cfg.permutations, &mut rng)
        })
        .collect();

    Ok(EffectEstimate {
        kind: EffectKind::Direct,
        levels: levels.to_vec(),
        adjusted,
        diff,
        significance,
        matched_blocks,
        total_blocks,
        matched_fraction: matched_rows as f64 / rows.len() as f64,
    })
}

/// Builds the `T × joint(V)` cross tab over the context rows. The joint
/// domain of `V` is compacted to its observed combinations (first-seen
/// order), which keeps the table linear in the data.
pub fn joint_crosstab<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    t: AttrId,
    v: &[AttrId],
) -> CrossTab {
    let r = table.cardinality(t).max(1) as usize;
    let tcol = table.col(t);
    let vcols: Vec<ColRef<'_>> = v.iter().map(|&a| table.col(a)).collect();
    // First pass: index observed V-combinations.
    let mut index: FxHashMap<Box<[u32]>, usize> = FxHashMap::default();
    let mut cells: Vec<(usize, usize)> = Vec::with_capacity(rows.len());
    let mut key = vec![0u32; v.len()];
    for row in rows.iter() {
        for (slot, col) in key.iter_mut().zip(&vcols) {
            *slot = col.at(row);
        }
        let next = index.len();
        let j = *index.entry(key.clone().into_boxed_slice()).or_insert(next);
        cells.push((tcol.at(row) as usize, j));
    }
    let c = index.len().max(1);
    let mut tab = CrossTab::zeros(r, c);
    for (i, j) in cells {
        tab.add(i, j, 1);
    }
    tab
}

/// Computes the coarse-grained ranking over `v` in the context `rows`.
pub fn coarse_explanations<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    t: AttrId,
    v: &[AttrId],
) -> Vec<Responsibility> {
    let est = EntropyEstimator::MillerMadow;
    let h = |attrs: &[AttrId]| ContingencyTable::from_table(table, rows, attrs).entropy(est);
    let h_t = h(&[t]);
    let mut rows_out: Vec<Responsibility> = v
        .iter()
        .map(|&z| {
            let mi = (h_t + h(&[z]) - h(&[t, z])).max(0.0);
            Responsibility {
                attr: z,
                name: table.schema().name(z).to_string(),
                responsibility: 0.0,
                mutual_information: mi,
            }
        })
        .collect();
    let total: f64 = rows_out.iter().map(|r| r.mutual_information).sum();
    if total > 0.0 {
        for r in &mut rows_out {
            r.responsibility = r.mutual_information / total;
        }
    }
    rows_out.sort_by(|a, b| {
        b.responsibility
            .partial_cmp(&a.responsibility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows_out
}

/// Runs FGE (Alg 3) for covariate `z`: ranks the observed triples
/// `(t, y, z)` by their contributions to `I(T;Z)` and `I(Y;Z)` and
/// Borda-aggregates the two rankings. Returns the top-`k`.
pub fn fine_explanations<S: Scan + ?Sized>(
    table: &S,
    rows: &RowSet,
    t: AttrId,
    y: AttrId,
    z: AttrId,
    k: usize,
) -> Vec<FineExplanation> {
    let tz = pair_contributions(&ContingencyTable::from_table(table, rows, &[t, z]));
    let yz = pair_contributions(&ContingencyTable::from_table(table, rows, &[y, z]));
    let triples = ContingencyTable::from_table(table, rows, &[t, y, z]);
    let mut keys: Vec<(u32, u32, u32)> = Vec::new();
    triples.for_each(|key, _| keys.push((key[0], key[1], key[2])));
    if keys.is_empty() {
        return Vec::new();
    }
    let kappa_t: Vec<f64> = keys
        .iter()
        .map(|&(tc, _, zc)| tz.get(&(tc, zc)).copied().unwrap_or(0.0))
        .collect();
    let kappa_y: Vec<f64> = keys
        .iter()
        .map(|&(_, yc, zc)| yz.get(&(yc, zc)).copied().unwrap_or(0.0))
        .collect();
    let order = borda_aggregate(&[kappa_t.clone(), kappa_y.clone()]);
    order
        .into_iter()
        .take(k)
        .map(|i| {
            let (tc, yc, zc) = keys[i];
            FineExplanation {
                t_value: table.dict(t).value(tc).to_string(),
                y_value: table.dict(y).value(yc).to_string(),
                z_value: table.dict(z).value(zc).to_string(),
                kappa_tz: kappa_t[i],
                kappa_yz: kappa_y[i],
            }
        })
        .collect()
}

mod differential {
    use crate::context::{contexts, strata};
    use crate::effect::block_averages;
    use crate::query::QueryBuilder;
    use crate::{detect, effect, explain};
    use hypdb_datasets as ds;
    use hypdb_stats::independence::{hymit, MitConfig, Strata};
    use hypdb_store::ShardedTable;
    use hypdb_table::contingency::{ContingencyTable, Stratified};
    use hypdb_table::groupby::{group_average, group_counts};
    use hypdb_table::{AttrId, Column, Scan, Schema, Table};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Equal down to the bits of every float: `Debug` prints the
    /// shortest digits that round-trip, sign of zero included.
    fn same<T: std::fmt::Debug>(cube: &T, reference: &T, what: &str) {
        assert_eq!(format!("{cube:?}"), format!("{reference:?}"), "{what}");
    }

    /// One dataset and one way of asking about it.
    struct Case {
        name: &'static str,
        table: Table,
        t: &'static str,
        outcomes: Vec<&'static str>,
        z: Vec<&'static str>,
        m: Vec<&'static str>,
        filter: (&'static str, Vec<&'static str>),
        group: &'static str,
    }

    fn cases() -> Vec<Case> {
        let adult = ds::adult_data(&ds::AdultConfig {
            rows: 4_000,
            seed: 7,
        });
        let staples = ds::staples_data(&ds::StaplesConfig {
            rows: 6_000,
            seed: 11,
        });
        let flight = ds::flight_data(&ds::FlightConfig {
            rows: 6_000,
            total_attrs: 18,
            seed: 5,
        });
        let random = ds::random_data(&ds::RandomDataConfig {
            rows: 5_000,
            seed: 3,
            ..ds::RandomDataConfig::default()
        })
        .table;
        // `random_data` names its nodes itself; leak them once so every
        // case can hold `&'static str`.
        let node: Vec<&'static str> = random
            .schema()
            .attrs()
            .iter()
            .map(|a| &*Box::leak(a.name.clone().into_boxed_str()))
            .collect();
        vec![
            Case {
                name: "cancer",
                table: ds::cancer_data(3_000, 17),
                t: "Lung_Cancer",
                outcomes: vec!["Car_Accident", "Fatigue"],
                z: vec!["Smoking", "Genetics"],
                m: vec!["Attention_Disorder"],
                filter: ("Anxiety", vec!["1"]),
                group: "Allergy",
            },
            Case {
                name: "berkeley",
                table: ds::berkeley_data(),
                t: "Gender",
                outcomes: vec!["Accepted"],
                z: vec!["Department"],
                m: vec![],
                filter: ("Department", vec!["A", "B", "C"]),
                group: "Department",
            },
            Case {
                name: "berkeley, six levels",
                table: ds::berkeley_data(),
                t: "Department",
                outcomes: vec!["Accepted"],
                z: vec![],
                m: vec!["Gender"],
                filter: ("Gender", vec!["Female"]),
                group: "Gender",
            },
            Case {
                name: "staples",
                table: staples.clone(),
                t: "Income",
                outcomes: vec!["Price"],
                z: vec!["Distance"],
                m: vec!["Urban"],
                filter: ("Age", vec!["18-30", "51+"]),
                group: "Age",
            },
            Case {
                name: "staples, three levels",
                table: staples,
                t: "Urban",
                outcomes: vec!["Price", "Income"],
                z: vec!["Distance"],
                m: vec!["Age"],
                filter: ("Age", vec!["31-50"]),
                group: "Distance",
            },
            Case {
                name: "adult",
                table: adult.clone(),
                t: "Gender",
                outcomes: vec!["Income", "CapitalGain"],
                z: vec!["Education", "MaritalStatus"],
                m: vec!["HoursPerWeek", "Occupation"],
                filter: ("Race", vec!["White", "Black"]),
                group: "WorkClass",
            },
            Case {
                name: "adult, three levels",
                table: adult,
                t: "MaritalStatus",
                outcomes: vec!["Income", "CapitalLoss"],
                z: vec!["Age", "Education"],
                m: vec!["HoursPerWeek"],
                filter: ("NativeCountry", vec!["US"]),
                group: "Race",
            },
            Case {
                name: "flight",
                table: flight.clone(),
                t: "Carrier",
                outcomes: vec!["Delayed", "ArrDelay15"],
                z: vec!["Airport", "Year"],
                m: vec!["DepTimeBin"],
                filter: ("Carrier", vec!["AA", "UA"]),
                group: "Quarter",
            },
            // A joint domain past 2^20: the counts go sparse and, for
            // Z ∪ M, the first-seen numbering goes by binary search.
            Case {
                name: "flight, sparse counts",
                table: flight,
                t: "Carrier",
                outcomes: vec!["Delayed"],
                z: vec!["Day", "Month", "DayOfWeek", "Dest", "Airport", "Year"],
                m: vec!["DepTimeBin", "Quarter"],
                filter: ("Airport", vec!["COS", "MFE", "MTJ", "ROC"]),
                group: "Filler00",
            },
            Case {
                name: "random_data",
                table: random,
                t: node[0],
                outcomes: vec![node[1], node[2]],
                z: vec![node[3], node[4]],
                m: vec![node[5]],
                filter: (node[6], vec!["0", "1"]),
                group: node[7],
            },
        ]
    }

    /// Every downstream quantity of one query's contexts, the counts
    /// route against the row loops.
    fn check<S: Scan + ?Sized>(table: &S, case: &Case, shape: &str, outcomes: &[&str]) {
        let what = format!("{} / {shape} / {} outcome(s)", case.name, outcomes.len());
        let ids = |names: &[&str]| -> Vec<AttrId> {
            names.iter().map(|n| table.attr(n).expect("attr")).collect()
        };
        let mut builder = QueryBuilder::new(case.t);
        for &y in outcomes {
            builder = builder.outcome(y);
        }
        match shape {
            "where" => {
                builder = builder.filter_in(case.filter.0, case.filter.1.iter().copied());
            }
            "grouped" => builder = builder.group_by(case.group),
            _ => {}
        }
        let query = builder.build(table).expect("query");
        let (t, ys, z, m) = (query.treatment, &query.outcomes, ids(&case.z), ids(&case.m));
        let zm: Vec<AttrId> = z.iter().chain(&m).copied().collect();
        let cfg = MitConfig {
            permutations: 24,
            ..MitConfig::default()
        };
        // β this high sends every balance test down the permutation
        // path, which consumes the cross tab column by column.
        let permuting = MitConfig { beta: 1e12, ..cfg };

        if case.name.ends_with("sparse counts") {
            let domain: u64 = zm
                .iter()
                .map(|&a| u64::from(table.cardinality(a)))
                .product();
            assert!(
                domain > 1 << 20,
                "{what}: Z ∪ M spans only {domain} combinations"
            );
        }
        let ctxs = contexts(table, &query);
        assert!(!ctxs.is_empty(), "{what}");
        for ctx in &ctxs {
            let rows = &ctx.rows;
            let counts = ctx.counts(
                table,
                std::iter::once(t).chain(ys.iter().chain(&zm).copied()),
            );

            let levels: Vec<u32> = group_counts(table, rows, &[t])
                .iter()
                .map(|g| g.key[0])
                .collect();
            let answers: Vec<Vec<f64>> = group_average(table, rows, &[t], ys)
                .expect("numeric outcomes")
                .into_iter()
                .map(|g| g.averages)
                .collect();
            let head = block_averages(table, &counts, t, &levels, ys, &[], &[]).expect("head");
            same(&head.adjusted, &answers, &what);
            assert_eq!(head.diff.is_some(), levels.len() == 2, "{what}");
            for &y in ys {
                same(
                    &strata(&counts, t, y, &zm),
                    &Stratified::build(table, rows, t, y, &zm),
                    &what,
                );
            }

            for v in [&z, &zm].into_iter().filter(|v| !v.is_empty()) {
                let old = super::joint_crosstab(table, rows, t, v);
                same(
                    &detect::joint_crosstab(table, rows, &counts, t, v),
                    &old,
                    &what,
                );
                let verdict = hymit(
                    &Strata::single(old),
                    &permuting,
                    &mut StdRng::seed_from_u64(1),
                );
                let report = detect::detect_bias(table, rows, &counts, t, v, 0.01, &permuting, 1);
                same(&report.test, &verdict, &what);
            }

            let coarse = explain::coarse_explanations(table, &counts, t, &zm);
            same(
                &coarse,
                &super::coarse_explanations(table, rows, t, &zm),
                &what,
            );
            for &a in &zm {
                same(
                    &explain::fine_explanations(table, &counts, t, ys[0], a, 3),
                    &super::fine_explanations(table, rows, t, ys[0], a, 3),
                    &what,
                );
            }

            if levels.len() < 2 {
                continue;
            }
            same(
                &effect::adjusted_averages(table, &counts, t, &levels, ys, &z, &cfg, 9),
                &super::adjusted_averages(table, rows, t, &levels, ys, &z, &cfg, 9),
                &what,
            );
            for &y in ys {
                same(
                    &effect::natural_direct_effect(
                        table,
                        &counts,
                        t,
                        &levels,
                        &[y],
                        &z,
                        &m,
                        &cfg,
                        5,
                    ),
                    &super::natural_direct_effect(table, rows, t, &levels, &[y], &z, &m, &cfg, 5),
                    &what,
                );
            }
        }
    }

    #[test]
    fn counts_route_equals_the_row_loops_bit_for_bit() {
        for case in cases() {
            let sharded = ShardedTable::from_table(&case.table, case.table.nrows() / 4 + 1);
            assert_eq!(sharded.n_shards(), 4);
            for shape in ["whole", "where", "grouped"] {
                for n in 1..=case.outcomes.len() {
                    check(&case.table, &case, shape, &case.outcomes[..n]);
                    check(&sharded, &case, shape, &case.outcomes[..n]);
                }
            }
        }
    }

    /// A table of `n` rows over fixed dictionaries: T (3 levels), Z (4),
    /// M (2) and an outcome whose values are not integers.
    fn fractional(rng: &mut StdRng, n: usize) -> Vec<[u32; 4]> {
        (0..n)
            .map(|_| {
                let z = rng.gen_range(0..4u32);
                let t = (z + rng.gen_range(0..3u32)) % 3;
                [t, rng.gen_range(0..7u32), z, rng.gen_range(0..2u32)]
            })
            .collect()
    }

    /// Builds the table of `rows`, dictionaries interned up front so two
    /// orderings of the same rows share every code.
    fn table_of(rows: &[[u32; 4]], values: &[String]) -> Table {
        let codes = |card: usize| (0..card).map(|c| c.to_string()).collect::<Vec<_>>();
        let domains = [codes(3), values.to_vec(), codes(4), codes(2)];
        let mut schema = Schema::default();
        let mut columns = Vec::new();
        for (i, (name, domain)) in ["T", "Y", "Z", "M"].iter().zip(&domains).enumerate() {
            schema.push(name.to_string());
            let mut col = Column::new();
            for value in domain {
                col.dict_mut().intern(value);
            }
            for row in rows {
                col.push_code(row[i]);
            }
            columns.push(col);
        }
        Table::from_columns(schema, columns).expect("consistent columns")
    }

    #[test]
    fn fractional_outcomes_are_row_order_free_and_close_to_the_row_sum() {
        let mut rng = StdRng::seed_from_u64(0xF7AC);
        let cfg = MitConfig {
            permutations: 8,
            ..MitConfig::default()
        };
        for case in 0..40 {
            let values: Vec<String> = (0..7)
                .map(|_| format!("{:.3}", rng.gen_range(-50.0..50.0f64)))
                .collect();
            let mut rows = fractional(&mut rng, 200 + 37 * case);
            let table = table_of(&rows, &values);
            rows.shuffle(&mut rng);
            let twin = table_of(&rows, &values);
            let [t, y, z, m] = ["T", "Y", "Z", "M"].map(|n| table.attr(n).expect("attr"));

            let run = |tab: &Table| {
                let counts = ContingencyTable::from_table(tab, &tab.all_rows(), &[t, y, z, m]);
                let levels = [0, 1, 2];
                (
                    effect::adjusted_averages(tab, &counts, t, &levels, &[y], &[z], &cfg, 1)
                        .expect("ate"),
                    effect::natural_direct_effect(
                        tab,
                        &counts,
                        t,
                        &levels,
                        &[y],
                        &[z],
                        &[m],
                        &cfg,
                        1,
                    )
                    .expect("nde"),
                )
            };
            let (ate, nde) = run(&table);
            same(
                &(&ate, &nde),
                &(&run(&twin).0, &run(&twin).1),
                "shuffled twin",
            );

            let rows_of = table.all_rows();
            let old_ate =
                super::adjusted_averages(&table, &rows_of, t, &[0, 1, 2], &[y], &[z], &cfg, 1)
                    .expect("ate");
            let old_nde = super::natural_direct_effect(
                &table,
                &rows_of,
                t,
                &[0, 1, 2],
                &[y],
                &[z],
                &[m],
                &cfg,
                1,
            )
            .expect("nde");
            for (new, old) in [(&ate, &old_ate), (&nde, &old_nde)] {
                assert_eq!(new.matched_blocks, old.matched_blocks);
                assert_eq!(new.matched_fraction, old.matched_fraction);
                for (a, b) in new.adjusted.iter().zip(&old.adjusted) {
                    assert!(
                        (a[0] - b[0]).abs() <= 1e-12 * b[0].abs().max(1.0),
                        "{} vs {}",
                        a[0],
                        b[0]
                    );
                }
            }
        }
    }
}
