//! Effect estimation: the adjustment formula (Eq 2) for the total
//! effect and the mediator formula (Eq 3) for the natural direct
//! effect, both with **exact matching** (§3.3): blocks that do not
//! contain every compared treatment level are discarded and the block
//! weights renormalised — the SQL `HAVING count(DISTINCT T) = k` guard.
//!
//! Like the rewritten query (Listing 2) the estimators are group-bys:
//! they read the context's table of counts
//! ([`crate::context::Context::counts`]), never its rows.

use crate::context::{marginal, strata};
use crate::error::{Error, Result};
use hypdb_stats::independence::{mit_auto, MitConfig, TestOutcome};
use hypdb_table::contingency::ContingencyTable;
use hypdb_table::{AttrId, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Total (ATE) vs natural direct (NDE) effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EffectKind {
    /// Average treatment effect: all causal paths `T ⇝ Y`.
    Total,
    /// Natural direct effect: only the direct edge `T → Y`, mediators
    /// held at their natural (control) values.
    Direct,
}

/// An adjusted-effect estimate for one context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EffectEstimate {
    /// Which effect this estimates.
    pub kind: EffectKind,
    /// Compared treatment levels (dictionary codes, ascending).
    pub levels: Vec<u32>,
    /// Adjusted `avg(Y_o)` per `levels[i]`: `adjusted[i][o]`.
    pub adjusted: Vec<Vec<f64>>,
    /// `adjusted[1] − adjusted[0]` per outcome when exactly two levels
    /// are compared (the ATE / NDE estimate).
    pub diff: Option<Vec<f64>>,
    /// Significance of the adjusted difference per outcome: the test of
    /// `I(Y_o; T | Z[, M]) = 0` (§7.1).
    pub significance: Vec<TestOutcome>,
    /// Blocks that satisfied the overlap guard.
    pub matched_blocks: usize,
    /// All blocks in the context.
    pub total_blocks: usize,
    /// Fraction of the context's rows that lie in matched blocks. Every
    /// row of a matched block counts, whatever its treatment level (the
    /// pipeline compares all observed levels, so a matched block holds
    /// no others).
    pub matched_fraction: f64,
}

/// One exact-matching block: the rows sharing a `(z, m)` combination.
struct Block {
    /// First block of its `z` group (blocks arrive in key order).
    opens_z: bool,
    /// Every row of the block, compared level or not.
    total: u64,
    /// Rows per compared level.
    counts: Vec<u64>,
    /// Outcome sums, `sums[level * outcomes + o]`.
    sums: Vec<f64>,
}

impl Block {
    fn matched(&self) -> bool {
        self.counts.iter().all(|&c| c > 0)
    }
}

/// The estimate of Eq 3 short of its significance tests (left empty):
///
/// `value(t) = Σ_z P(z) Σ_m P(m | levels[0], z) · E[Y | T = t, z, m]`
///
/// over the matched `(z, m)` blocks, weights renormalised to them. With
/// `m = ∅` the inner weight is exactly 1 and this is Eq 2; with `z = ∅`
/// as well it is the SQL `avg(Y) GROUP BY T`, and needs no second level.
///
/// One walk over the `(z…, m…, t, y…)` marginal of `counts`, whose
/// cells come in ascending key order: blocks are visited in the
/// lexicographic order of their keys, and a block's outcome sum is
/// `Σ_y n(z, m, t, y) · v(y)` in ascending order of the outcome codes
/// `y` (jointly, when there are several outcomes). For
/// integer-valued outcomes (every dataset here) that sum is exact, so it
/// equals the row-by-row sum; for any outcome it is the same whatever
/// the order of the rows.
pub(crate) fn block_averages(
    table: &Table,
    counts: &ContingencyTable,
    t: AttrId,
    levels: &[u32],
    outcomes: &[AttrId],
    z: &[AttrId],
    m: &[AttrId],
) -> Result<EffectEstimate> {
    let numeric: Vec<Vec<f64>> = outcomes
        .iter()
        .map(|&y| table.numeric_codes(y))
        .collect::<std::result::Result<_, _>>()?;
    let (nl, no) = (levels.len(), outcomes.len());
    // Key layout of the marginal: z | m | t | outcomes.
    let (zw, bw) = (z.len(), z.len() + m.len());
    let key_attrs = [z, m, &[t], outcomes].concat();

    let mut blocks: Vec<Block> = Vec::new();
    let mut block_key: Vec<u32> = Vec::new();
    marginal(counts, &key_attrs).for_each(|key, n| {
        let opens_z = blocks.is_empty() || key[..zw] != block_key[..zw];
        if opens_z || key[zw..bw] != block_key[zw..bw] {
            block_key.clear();
            block_key.extend_from_slice(&key[..bw]);
            blocks.push(Block {
                opens_z,
                total: 0,
                counts: vec![0; nl],
                sums: vec![0.0; nl * no],
            });
        }
        let block = blocks.last_mut().expect("pushed above");
        block.total += n;
        if let Some(li) = levels.iter().position(|&c| c == key[bw]) {
            block.counts[li] += n;
            for (o, vals) in numeric.iter().enumerate() {
                block.sums[li * no + o] += n as f64 * vals[key[bw + 1 + o] as usize];
            }
        }
    });

    // Per z group with a matched block: its blocks, its rows, and its
    // control-level rows inside matched blocks (the P(m | t_ctrl, z)
    // denominator).
    let groups: Vec<(&[Block], u64, u64)> = blocks
        .chunk_by(|_, next| !next.opens_z)
        .filter_map(|group| {
            let matched = group.iter().filter(|b| b.matched());
            let ctrl: u64 = matched.map(|b| b.counts[0]).sum();
            (ctrl > 0).then(|| (group, group.iter().map(|b| b.total).sum(), ctrl))
        })
        .collect();
    let retained: u64 = groups.iter().map(|&(_, z_total, _)| z_total).sum();
    let mut adjusted = vec![vec![0.0; no]; nl];
    for &(group, z_total, ctrl) in &groups {
        let pz = z_total as f64 / retained as f64;
        for block in group.iter().filter(|b| b.matched()) {
            let pm = block.counts[0] as f64 / ctrl as f64;
            for (li, row) in adjusted.iter_mut().enumerate() {
                for (o, a) in row.iter_mut().enumerate() {
                    *a += pz * pm * (block.sums[li * no + o] / block.counts[li] as f64);
                }
            }
        }
    }

    let matched_rows: u64 = blocks.iter().filter(|b| b.matched()).map(|b| b.total).sum();
    Ok(EffectEstimate {
        kind: EffectKind::Direct,
        levels: levels.to_vec(),
        diff: (nl == 2).then(|| (0..no).map(|o| adjusted[1][o] - adjusted[0][o]).collect()),
        adjusted,
        significance: Vec::new(),
        matched_blocks: blocks.iter().filter(|b| b.matched()).count(),
        total_blocks: blocks.len(),
        matched_fraction: matched_rows as f64 / counts.total() as f64,
    })
}

/// The adjustment formula (Eq 2) with exact matching: groups the
/// context into blocks homogeneous on `z`, discards blocks missing any
/// of `levels`, and returns the weighted per-level averages where
/// weights are the retained blocks' probabilities — the mediator
/// formula with no mediators.
///
/// `counts` is the context's table of counts and must cover `t`,
/// `outcomes` and `z`. With `z = ∅` this degenerates to the plain SQL
/// answer.
#[allow(clippy::too_many_arguments)]
pub fn adjusted_averages(
    table: &Table,
    counts: &ContingencyTable,
    t: AttrId,
    levels: &[u32],
    outcomes: &[AttrId],
    z: &[AttrId],
    mit_cfg: &MitConfig,
    seed: u64,
) -> Result<EffectEstimate> {
    let direct = natural_direct_effect(table, counts, t, levels, outcomes, z, &[], mit_cfg, seed)?;
    Ok(EffectEstimate {
        kind: EffectKind::Total,
        ..direct
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
/// when `Y ⊥ Z | T, M`. `counts` must cover `t`, `outcomes`, `z` and
/// `mediators`.
#[allow(clippy::too_many_arguments)]
pub fn natural_direct_effect(
    table: &Table,
    counts: &ContingencyTable,
    t: AttrId,
    levels: &[u32],
    outcomes: &[AttrId],
    z: &[AttrId],
    mediators: &[AttrId],
    mit_cfg: &MitConfig,
    seed: u64,
) -> Result<EffectEstimate> {
    if counts.total() == 0 {
        return Err(Error::EmptySelection);
    }
    if levels.len() < 2 {
        return Err(Error::DegenerateTreatment {
            attr: table.schema().name(t).to_string(),
            levels: levels.len(),
        });
    }
    let mut estimate = block_averages(table, counts, t, levels, outcomes, z, mediators)?;
    // Significance of the adjusted difference: I(Y; T | Z ∪ M) = 0 iff
    // the rewritten query reports no difference. Per §7.1 this is always
    // a permutation test (the χ² shortcut is anti-conservative on the
    // finely-stratified blocks the rewriter produces).
    let cond: Vec<AttrId> = z.iter().chain(mediators).copied().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    estimate.significance = outcomes
        .iter()
        .map(|&y| mit_auto(&strata(counts, t, y, &cond), mit_cfg.permutations, &mut rng))
        .collect();
    Ok(estimate)
}

/// Renders the compared levels as strings.
pub fn level_labels(table: &Table, t: AttrId, levels: &[u32]) -> Vec<String> {
    levels
        .iter()
        .map(|&c| table.dict(t).value(c).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::all_counts;
    use hypdb_table::{Table, TableBuilder};

    /// The quickstart confounding example: Z -> T, Z -> Y; true
    /// conditional effect of T on Y is zero within each Z block by
    /// construction, but the naive difference is large.
    fn confounded() -> Table {
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        for (t, y, z, n) in [
            // Z=a: P(Y=1) = 0.75 for both T levels; T skewed to t1.
            ("t1", "1", "a", 30u32),
            ("t1", "0", "a", 10),
            ("t0", "1", "a", 6),
            ("t0", "0", "a", 2),
            // Z=b: P(Y=1) = 0.2 for both T levels; T skewed to t0.
            ("t1", "1", "b", 2),
            ("t1", "0", "b", 8),
            ("t0", "1", "b", 10),
            ("t0", "0", "b", 40),
        ] {
            for _ in 0..n {
                b.push_row([t, y, z]).unwrap();
            }
        }
        b.finish()
    }

    fn ids(t: &Table) -> (AttrId, AttrId, AttrId) {
        (
            t.attr("T").unwrap(),
            t.attr("Y").unwrap(),
            t.attr("Z").unwrap(),
        )
    }

    #[test]
    fn adjustment_removes_confounding() {
        let tab = confounded();
        let (t, y, z) = ids(&tab);
        let counts = all_counts(&tab);
        let levels = [0u32, 1u32]; // t1 first-seen => code 0; t0 => 1

        // Naive (unadjusted) difference is large:
        let naive = adjusted_averages(
            &tab,
            &counts,
            t,
            &levels,
            &[y],
            &[],
            &MitConfig::default(),
            1,
        )
        .unwrap();
        let naive_diff = naive.diff.clone().unwrap()[0].abs();
        assert!(naive_diff > 0.2, "naive diff {naive_diff}");

        // Adjusted difference vanishes (Y ⊥ T | Z by construction).
        let adj = adjusted_averages(
            &tab,
            &counts,
            t,
            &levels,
            &[y],
            &[z],
            &MitConfig::default(),
            1,
        )
        .unwrap();
        let adj_diff = adj.diff.clone().unwrap()[0].abs();
        assert!(adj_diff < 1e-9, "adjusted diff {adj_diff}");
        assert_eq!(adj.matched_blocks, 2);
        assert!((adj.matched_fraction - 1.0).abs() < 1e-12);
        // And the significance test agrees: not significant.
        assert!(adj.significance[0].p_value > 0.05);
        // While the naive association is significant.
        assert!(naive.significance[0].p_value < 0.01);
    }

    #[test]
    fn adjusted_values_match_hand_computation() {
        let tab = confounded();
        let (t, y, z) = ids(&tab);
        let adj = adjusted_averages(
            &tab,
            &all_counts(&tab),
            t,
            &[0, 1],
            &[y],
            &[z],
            &MitConfig::default(),
            1,
        )
        .unwrap();
        // P(a) = 48/108, P(b) = 60/108; E[Y|*, a] = .75, E[Y|*, b] = .2.
        let expect = 48.0 / 108.0 * 0.75 + 60.0 / 108.0 * 0.2;
        assert!((adj.adjusted[0][0] - expect).abs() < 1e-12);
        assert!((adj.adjusted[1][0] - expect).abs() < 1e-12);
    }

    #[test]
    fn exact_matching_drops_unmatched_blocks() {
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        for (t, y, z, n) in [
            ("t0", "1", "a", 5u32),
            ("t1", "0", "a", 5),
            // Z=b only has t0: must be pruned.
            ("t0", "1", "b", 50),
        ] {
            for _ in 0..n {
                b.push_row([t, y, z]).unwrap();
            }
        }
        let tab = b.finish();
        let (t, y, z) = ids(&tab);
        let adj = adjusted_averages(
            &tab,
            &all_counts(&tab),
            t,
            &[0, 1],
            &[y],
            &[z],
            &MitConfig::default(),
            1,
        )
        .unwrap();
        assert_eq!(adj.total_blocks, 2);
        assert_eq!(adj.matched_blocks, 1);
        assert!((adj.matched_fraction - 10.0 / 60.0).abs() < 1e-12);
        // Within the matched block: E[Y|t0]=1, E[Y|t1]=0.
        assert_eq!(adj.adjusted[0][0], 1.0);
        assert_eq!(adj.adjusted[1][0], 0.0);
    }

    #[test]
    fn degenerate_treatment_rejected() {
        let tab = confounded();
        let (t, y, _) = ids(&tab);
        let err = adjusted_averages(
            &tab,
            &all_counts(&tab),
            t,
            &[0],
            &[y],
            &[],
            &MitConfig::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, Error::DegenerateTreatment { .. }));
    }

    /// Pure mediation: T -> M -> Y, no direct edge. Total effect is
    /// nonzero; direct effect must be ≈ 0.
    fn mediated() -> Table {
        let mut b = TableBuilder::new(["T", "M", "Y"]);
        // P(M=1|T=1)=0.8, P(M=1|T=0)=0.2; Y = M deterministically.
        for (t, m, y, n) in [
            ("0", "0", "0", 40u32),
            ("0", "1", "1", 10),
            ("1", "0", "0", 10),
            ("1", "1", "1", 40),
        ] {
            for _ in 0..n {
                b.push_row([t, m, y]).unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn nde_vanishes_under_pure_mediation() {
        let tab = mediated();
        let t = tab.attr("T").unwrap();
        let m = tab.attr("M").unwrap();
        let y = tab.attr("Y").unwrap();
        let nde = natural_direct_effect(
            &tab,
            &all_counts(&tab),
            t,
            &[0, 1],
            &[y],
            &[],
            &[m],
            &MitConfig::default(),
            1,
        )
        .unwrap();
        let d = nde.diff.clone().unwrap()[0].abs();
        assert!(d < 1e-9, "direct effect should vanish, got {d}");
        // Total effect is large by contrast.
        let ate = adjusted_averages(
            &tab,
            &all_counts(&tab),
            t,
            &[0, 1],
            &[y],
            &[],
            &MitConfig::default(),
            1,
        )
        .unwrap();
        assert!(ate.diff.unwrap()[0] > 0.5);
        // Significance of the direct effect: I(T;Y|M) = 0 here.
        assert!(nde.significance[0].p_value > 0.05);
    }

    /// Pure direct effect: T -> Y with a spectator mediator candidate.
    #[test]
    fn nde_equals_ate_without_mediation() {
        let mut b = TableBuilder::new(["T", "M", "Y"]);
        for (t, m, y, n) in [
            ("0", "0", "0", 20u32),
            ("0", "1", "0", 20),
            ("0", "0", "1", 5),
            ("0", "1", "1", 5),
            ("1", "0", "1", 20),
            ("1", "1", "1", 20),
            ("1", "0", "0", 5),
            ("1", "1", "0", 5),
        ] {
            for _ in 0..n {
                b.push_row([t, m, y]).unwrap();
            }
        }
        let tab = b.finish();
        let t = tab.attr("T").unwrap();
        let m = tab.attr("M").unwrap();
        let y = tab.attr("Y").unwrap();
        let nde = natural_direct_effect(
            &tab,
            &all_counts(&tab),
            t,
            &[0, 1],
            &[y],
            &[],
            &[m],
            &MitConfig::default(),
            1,
        )
        .unwrap();
        let ate = adjusted_averages(
            &tab,
            &all_counts(&tab),
            t,
            &[0, 1],
            &[y],
            &[],
            &MitConfig::default(),
            1,
        )
        .unwrap();
        let d_nde = nde.diff.unwrap()[0];
        let d_ate = ate.diff.unwrap()[0];
        assert!((d_nde - d_ate).abs() < 1e-9, "{d_nde} vs {d_ate}");
        assert!(d_nde > 0.5);
    }

    /// Three treatment levels; block `c` lacks `t2` and is pruned.
    fn three_levels() -> Table {
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        for (t, y, z, n) in [
            ("t0", "1", "a", 6u32),
            ("t0", "0", "a", 2),
            ("t1", "1", "a", 3),
            ("t1", "0", "a", 9),
            ("t2", "1", "a", 5),
            ("t2", "0", "a", 5),
            ("t0", "1", "b", 1),
            ("t0", "0", "b", 7),
            ("t1", "1", "b", 4),
            ("t1", "0", "b", 4),
            ("t2", "1", "b", 9),
            ("t2", "0", "b", 3),
            ("t0", "1", "c", 10),
            ("t1", "0", "c", 10),
        ] {
            for _ in 0..n {
                b.push_row([t, y, z]).unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn ate_is_the_nde_without_mediators_on_three_levels() {
        let tab = three_levels();
        let (t, y, z) = ids(&tab);
        let cfg = MitConfig::default();
        let ate = adjusted_averages(&tab, &all_counts(&tab), t, &[0, 1, 2], &[y], &[z], &cfg, 1)
            .expect("ate");
        let nde = natural_direct_effect(
            &tab,
            &all_counts(&tab),
            t,
            &[0, 1, 2],
            &[y],
            &[z],
            &[],
            &cfg,
            1,
        )
        .expect("nde");
        assert_eq!(ate.adjusted, nde.adjusted);
        assert_eq!(ate.significance, nde.significance);
        assert!(ate.diff.is_none() && nde.diff.is_none());
        for e in [&ate, &nde] {
            assert_eq!((e.matched_blocks, e.total_blocks), (2, 3));
            // 30 + 28 of the 78 rows sit in the two matched blocks.
            assert_eq!(e.matched_fraction, 58.0 / 78.0);
        }
        // P(a) = 30/58, P(b) = 28/58 over the matched blocks.
        let expect = |in_a: f64, in_b: f64| 30.0 / 58.0 * in_a + 28.0 / 58.0 * in_b;
        let want = [
            expect(6.0 / 8.0, 1.0 / 8.0),
            expect(3.0 / 12.0, 4.0 / 8.0),
            expect(5.0 / 10.0, 9.0 / 12.0),
        ];
        for (got, want) in ate.adjusted.iter().zip(want) {
            assert!((got[0] - want).abs() < 1e-12, "{} vs {want}", got[0]);
        }
    }

    #[test]
    fn matched_fraction_counts_every_row_of_a_matched_block() {
        // Comparing t0 with t1 only: block c now matches too, and the
        // t2 rows of a and b still belong to their (matched) blocks.
        let tab = three_levels();
        let (t, y, z) = ids(&tab);
        let cfg = MitConfig::default();
        let ate = adjusted_averages(&tab, &all_counts(&tab), t, &[0, 1], &[y], &[z], &cfg, 1)
            .expect("ate");
        let nde = natural_direct_effect(
            &tab,
            &all_counts(&tab),
            t,
            &[0, 1],
            &[y],
            &[z],
            &[],
            &cfg,
            1,
        )
        .expect("nde");
        for e in [&ate, &nde] {
            assert_eq!((e.matched_blocks, e.total_blocks), (3, 3));
            assert_eq!(e.matched_fraction, 1.0);
        }
    }

    #[test]
    fn level_labels_render() {
        let tab = confounded();
        let (t, _, _) = ids(&tab);
        assert_eq!(level_labels(&tab, t, &[0, 1]), vec!["t1", "t0"]);
    }
}
