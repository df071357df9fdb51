//! Randomized property tests on the core invariants:
//! information-theoretic identities, Patefield marginal preservation,
//! the adjustment formula's degenerate cases, d-separation axioms, and
//! SQL round-trips.
//!
//! Written against the in-repo `rand` stub rather than proptest (the
//! offline build has no registry access): each property is checked on a
//! few hundred seeded pseudo-random cases, so failures reproduce
//! deterministically.

use hypdb::core::effect::adjusted_averages;
use hypdb::graph::dag::Dag;
use hypdb::graph::dsep::d_separated_pair;
use hypdb::stats::crosstab::CrossTab;
use hypdb::stats::entropy::{entropy_miller_madow, entropy_plugin, mi_from_matrix};
use hypdb::stats::independence::{chi2_test, MitConfig, Strata};
use hypdb::stats::math::{chi2_sf, gamma_p, gamma_q, ln_gamma};
use hypdb::stats::patefield::sample_table;
use hypdb::table::contingency::ContingencyTable;
use hypdb::table::groupby::group_counts;
use hypdb::table::{AttrId, Predicate, RowSet, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 200;

fn counts_vec(rng: &mut StdRng, len: usize, max: u64) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(0..max)).collect()
}

/// Plug-in entropy is within [0, ln(#categories)] and invariant to
/// zero-count categories; Miller–Madow dominates plug-in.
#[test]
fn entropy_bounds() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..CASES {
        let len = rng.gen_range(1..20usize);
        let counts = counts_vec(&mut rng, len, 500);
        let support = counts.iter().filter(|&&c| c > 0).count();
        let h = entropy_plugin(counts.iter().copied());
        assert!(h >= 0.0);
        assert!(h <= (support.max(1) as f64).ln() + 1e-9);
        let hmm = entropy_miller_madow(counts.iter().copied());
        assert!(hmm + 1e-12 >= h);
        // Zero-count invariance.
        let mut padded = counts.clone();
        padded.push(0);
        assert!((entropy_plugin(padded.iter().copied()) - h).abs() < 1e-12);
    }
}

/// Mutual information is non-negative, symmetric, and bounded by
/// min(H(X), H(Y)).
#[test]
fn mi_properties() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..CASES {
        let cells = counts_vec(&mut rng, 6, 200);
        let (r, c) = (2usize, 3usize);
        let mi = mi_from_matrix(&cells, r, c);
        assert!(mi >= 0.0);
        // Symmetry: transpose.
        let mut tr = vec![0u64; 6];
        for i in 0..r {
            for j in 0..c {
                tr[j * r + i] = cells[i * c + j];
            }
        }
        let mi_t = mi_from_matrix(&tr, c, r);
        assert!((mi - mi_t).abs() < 1e-10);
        // Bound by marginal entropies.
        let rows: Vec<u64> = (0..r)
            .map(|i| cells[i * c..(i + 1) * c].iter().sum())
            .collect();
        let cols: Vec<u64> = (0..c)
            .map(|j| (0..r).map(|i| cells[i * c + j]).sum())
            .collect();
        let hx = entropy_plugin(rows);
        let hy = entropy_plugin(cols);
        assert!(mi <= hx.min(hy) + 1e-9);
    }
}

/// Patefield tables preserve the marginals of any observed table.
#[test]
fn patefield_preserves_marginals() {
    let mut rng = StdRng::seed_from_u64(103);
    for seed in 0..CASES as u64 {
        let cells = counts_vec(&mut rng, 12, 60);
        let tab = CrossTab::new(3, 4, cells);
        if tab.total() == 0 {
            continue;
        }
        let compact = tab.compact();
        let mut sampler = StdRng::seed_from_u64(seed);
        let sampled = sample_table(&mut sampler, &compact.row_sums(), &compact.col_sums());
        assert_eq!(sampled.row_sums(), compact.row_sums());
        assert_eq!(sampled.col_sums(), compact.col_sums());
        assert_eq!(sampled.total(), compact.total());
    }
}

/// Gamma-family identities: P + Q = 1, ln Γ satisfies the recurrence
/// Γ(x+1) = x·Γ(x), and the χ² survival function is monotone.
#[test]
fn gamma_identities() {
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..CASES {
        let a = rng.gen_range(0.1f64..30.0);
        let x = rng.gen_range(0.0f64..60.0);
        assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-9);
        let lhs = ln_gamma(a + 1.0);
        let rhs = a.ln() + ln_gamma(a);
        assert!((lhs - rhs).abs() < 1e-8, "recurrence at {a}");
        // Monotonicity of the survival function in x.
        let df = a.max(0.5);
        assert!(chi2_sf(x, df) + 1e-12 >= chi2_sf(x + 1.0, df));
    }
}

/// The χ² test is invariant to swapping X and Y.
#[test]
fn chi2_symmetric() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..CASES {
        let cells: Vec<u64> = (0..4).map(|_| rng.gen_range(1..100u64)).collect();
        let tab = CrossTab::new(2, 2, cells.clone());
        let swapped = CrossTab::new(2, 2, vec![cells[0], cells[2], cells[1], cells[3]]);
        let a = chi2_test(&Strata::single(tab));
        let b = chi2_test(&Strata::single(swapped));
        assert!((a.p_value - b.p_value).abs() < 1e-9);
    }
}

fn random_dag(rng: &mut StdRng, nodes: usize, max_edges: usize) -> Dag {
    let mut g = Dag::new(nodes);
    for _ in 0..rng.gen_range(0..max_edges) {
        let u = rng.gen_range(0..nodes);
        let v = rng.gen_range(0..nodes);
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// d-separation is symmetric in its first two arguments.
#[test]
fn dsep_symmetry() {
    let mut rng = StdRng::seed_from_u64(106);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 7, 15);
        let x = rng.gen_range(0..7usize);
        let y = rng.gen_range(0..7usize);
        let z = rng.gen_range(0..7usize);
        if x == y {
            continue;
        }
        let cond: Vec<usize> = if z != x && z != y { vec![z] } else { vec![] };
        assert_eq!(
            d_separated_pair(&g, x, y, &cond),
            d_separated_pair(&g, y, x, &cond)
        );
    }
}

/// Local Markov property: a node is d-separated from every
/// non-descendant non-parent given its parents.
#[test]
fn dsep_local_markov() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..CASES {
        let g = random_dag(&mut rng, 6, 12);
        for v in 0..6 {
            let parents = g.parent_set(v);
            let descendants = g.descendants(v);
            for w in 0..6 {
                if w == v || parents.contains(&w) || descendants.contains(&w) {
                    continue;
                }
                assert!(
                    d_separated_pair(&g, v, w, &parents),
                    "node {v} not separated from non-descendant {w} by parents {parents:?}"
                );
            }
        }
    }
}

/// Discovery against truth: on an exact d-separation oracle both
/// blanket learners return the DAG's Markov boundary, and CD — with the
/// separating-set cap out of reach — returns only parents, and all of
/// them whenever every parent has another parent it is not adjacent to
/// (Prop 4.1's premise).
#[test]
fn discovery_on_an_exact_oracle_recovers_the_dag() {
    use hypdb::causal::cd::{discover_parents, CdConfig};
    use hypdb::causal::{grow_shrink, iamb, GraphOracle};
    let mut rng = StdRng::seed_from_u64(121);
    let mut complete = 0;
    for case in 0..40 {
        let nodes = rng.gen_range(5..=8usize);
        let dag = random_dag(&mut rng, nodes, 2 * nodes);
        let oracle = GraphOracle::new(dag.clone());
        let cfg = CdConfig { max_sepset: nodes };
        for v in 0..nodes {
            let at = format!("case {case}, node {v} of {dag:?}");
            let boundary = dag.markov_boundary(v);
            assert_eq!(grow_shrink(&oracle, v), boundary, "Grow-Shrink, {at}");
            assert_eq!(iamb(&oracle, v), boundary, "IAMB, {at}");
            let parents = dag.parent_set(v);
            let found = discover_parents(&oracle, v, cfg).parents;
            assert!(
                found.iter().all(|p| parents.contains(p)),
                "CD found {found:?}, parents are {parents:?}, {at}"
            );
            let premise = parents
                .iter()
                .all(|&p| parents.iter().any(|&q| q != p && !dag.adjacent(p, q)));
            if premise {
                assert_eq!(found, parents, "{at}");
                complete += usize::from(!parents.is_empty());
            }
        }
    }
    assert!(complete >= 20, "only {complete} nodes met the premise");
}

/// The adjustment formula with Z = ∅ equals the plain group-by
/// average, and adjusted averages always lie in the outcome's range.
#[test]
fn adjustment_degenerate_case() {
    let mut rng = StdRng::seed_from_u64(108);
    for _ in 0..40 {
        let n = rng.gen_range(40..200usize);
        let rows: Vec<(u32, u32, u32)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..2u32),
                    rng.gen_range(0..2u32),
                    rng.gen_range(0..3u32),
                )
            })
            .collect();
        // Need both treatment levels present.
        if !(rows.iter().any(|r| r.0 == 0) && rows.iter().any(|r| r.0 == 1)) {
            continue;
        }
        let mut b = TableBuilder::new(["T", "Y", "Z"]);
        for (t, y, z) in &rows {
            b.push_row([
                t.to_string().as_str(),
                y.to_string().as_str(),
                z.to_string().as_str(),
            ])
            .expect("arity");
        }
        let table = b.finish();
        let t = table.attr("T").expect("attr");
        let y = table.attr("Y").expect("attr");
        let z = table.attr("Z").expect("attr");
        let all = table.all_rows();
        let cfg = MitConfig {
            permutations: 20,
            ..MitConfig::default()
        };
        let counts = ContingencyTable::from_table(&table, &all, &[t, y, z]);
        let naive =
            adjusted_averages(&table, &counts, t, &[0, 1], &[y], &[], &cfg, 1).expect("estimate");
        // Against direct group averages.
        let g = hypdb::table::groupby::group_average(&table, &all, &[t], &[y]).expect("avg");
        for (i, row) in g.iter().enumerate() {
            assert!((naive.adjusted[i][0] - row.averages[0]).abs() < 1e-12);
        }
        // Adjusted estimates stay within [0, 1] for a 0/1 outcome.
        let adj =
            adjusted_averages(&table, &counts, t, &[0, 1], &[y], &[z], &cfg, 1).expect("estimate");
        for level in &adj.adjusted {
            assert!(level[0] >= -1e-12 && level[0] <= 1.0 + 1e-12);
        }
        assert!(adj.matched_blocks <= adj.total_blocks);
        assert!(adj.matched_fraction >= 0.0 && adj.matched_fraction <= 1.0 + 1e-12);
    }
}

/// Predicate algebra: select(p AND q) == select(p) ∩ select(q) and
/// select(NOT p) is the complement.
#[test]
fn predicate_algebra() {
    let mut rng = StdRng::seed_from_u64(109);
    for _ in 0..CASES {
        let n = rng.gen_range(10..80usize);
        let mut b = TableBuilder::new(["a", "b"]);
        for _ in 0..n {
            let x = rng.gen_range(0..3u32);
            let y = rng.gen_range(0..3u32);
            b.push_row([x.to_string().as_str(), y.to_string().as_str()])
                .expect("arity");
        }
        let t = b.finish();
        let a = t.attr("a").expect("attr");
        let bb = t.attr("b").expect("attr");
        let p = Predicate::Eq(a, 0);
        let q = Predicate::Eq(bb, 1);
        let and = Predicate::and([p.clone(), q.clone()]).select(&t);
        let isect = p.select(&t).intersect(&q.select(&t));
        assert_eq!(and, isect);
        let not_p = Predicate::Not(Box::new(p.clone())).select(&t);
        let comp = p.select(&t).complement(t.nrows() as u32);
        assert_eq!(not_p, comp);
    }
}

/// `RowSet::slice` agrees with the materialised iterator on every
/// chunk layout — including uneven chunks, single-element chunks, and
/// empty tails. This is the
/// contract the parallel counting kernels (fixed-chunk partials merged
/// in order) rely on.
#[test]
fn rowset_slice_chunk_boundaries() {
    let mut rng = StdRng::seed_from_u64(111);
    for _ in 0..CASES {
        let n = rng.gen_range(0..200usize);
        let rows = if rng.gen_range(0..2) == 0 {
            RowSet::All(n as u32)
        } else {
            let mut ids: Vec<u32> = (0..n as u32)
                .filter(|_| rng.gen_range(0..3u32) > 0)
                .collect();
            ids.dedup();
            RowSet::Ids(ids)
        };
        let all: Vec<u32> = rows.iter().collect();
        let len = rows.len();
        assert_eq!(all.len(), len);
        // Fixed-size chunks, including a chunk size that never divides
        // evenly and the degenerate 1-row chunk.
        for chunk in [1usize, 7, 64, len.max(1)] {
            let mut glued: Vec<u32> = Vec::with_capacity(len);
            let mut lo = 0usize;
            while lo < len {
                let hi = (lo + chunk).min(len);
                glued.extend(rows.slice(lo..hi));
                lo = hi;
            }
            assert_eq!(glued, all, "chunk={chunk}");
        }
        // Empty slices at every boundary position.
        for pos in [0, len / 2, len] {
            assert_eq!(rows.slice(pos..pos).count(), 0);
        }
    }
}

/// Empty selections and the full-table fast path produce the same
/// contingency/group-by answers as the materialised id list.
#[test]
fn selection_edge_cases() {
    let mut b = TableBuilder::new(["t", "z"]);
    for i in 0..100u32 {
        b.push_row([
            ((i * 7) % 5).to_string().as_str(),
            (i % 3).to_string().as_str(),
        ])
        .unwrap();
    }
    let t = b.finish();
    let attrs: Vec<AttrId> = t.schema().attr_ids().collect();
    // Empty selection: no groups, zero-total table.
    let empty = RowSet::Ids(vec![]);
    assert!(group_counts(&t, &empty, &attrs).is_empty());
    assert_eq!(ContingencyTable::from_table(&t, &empty, &attrs).total(), 0);
    // Predicate fast paths.
    assert_eq!(Predicate::True.select(&t), RowSet::All(100));
    assert!(Predicate::False.select(&t).is_empty());
    // Full-table fast path (RowSet::All) equals the materialised id list.
    let all_ids = RowSet::Ids((0..100).collect());
    assert_eq!(
        ContingencyTable::from_table(&t, &t.all_rows(), &attrs).cells(),
        ContingencyTable::from_table(&t, &all_ids, &attrs).cells()
    );
}

/// Contingency counting against the definition: a `HashMap` from a
/// row's codes to how often they occur. Random tables of 1-6 columns
/// whose level counts reach past one and two bytes of code, any
/// attribute list (repeats included), whole table and random id lists,
/// one image serving several counts.
#[test]
fn counts_match_a_naive_hash_count() {
    use hypdb::table::SelectionImage;
    use std::collections::HashMap;
    let mut rng = StdRng::seed_from_u64(117);
    for case in 0..60 {
        let n = rng.gen_range(0..700usize);
        let ncols = rng.gen_range(1..7usize);
        let levels: Vec<u32> = (0..ncols)
            .map(|_| [1, 2, 3, 40, 300, 70_000][rng.gen_range(0..6usize)])
            .collect();
        let names: Vec<String> = (0..ncols).map(|c| format!("c{c}")).collect();
        let mut b = TableBuilder::new(names);
        for _ in 0..n {
            let row: Vec<String> = levels
                .iter()
                .map(|&k| rng.gen_range(0..k).to_string())
                .collect();
            b.push_row(row.iter().map(String::as_str)).expect("arity");
        }
        let mono = b.finish();
        let ids: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.4)).collect();
        for rows in [mono.all_rows(), RowSet::Ids(ids)] {
            let image = SelectionImage::new(&mono, &rows);
            for _ in 0..4 {
                let attrs: Vec<AttrId> = (0..rng.gen_range(0..5usize))
                    .map(|_| AttrId(rng.gen_range(0..ncols) as u32))
                    .collect();
                let mut naive: HashMap<Vec<u32>, u64> = HashMap::new();
                for row in rows.iter() {
                    let key = attrs.iter().map(|&a| mono.code(a, row)).collect();
                    *naive.entry(key).or_insert(0) += 1;
                }
                let mut want: Vec<(Box<[u32]>, u64)> = naive
                    .into_iter()
                    .map(|(key, count)| (key.into_boxed_slice(), count))
                    .collect();
                want.sort();
                let what = format!("case {case}: {attrs:?} over {} rows", rows.len());
                for ct in [
                    ContingencyTable::from_table(&mono, &rows, &attrs),
                    image.count(&attrs),
                ] {
                    assert_eq!(ct.cells(), want, "{what}");
                    assert_eq!(ct.total(), rows.len() as u64, "{what}");
                    assert_eq!(ct.support(), want.len() as u64, "{what}");
                    let dims: Vec<u32> =
                        attrs.iter().map(|&a| mono.cardinality(a).max(1)).collect();
                    assert_eq!(ct.dims(), dims, "{what}");
                    for (key, count) in &want {
                        assert_eq!(ct.get(key), *count, "{what}");
                    }
                }
            }
        }
    }
}

/// CSV round trip: random tables of 1-4 columns whose values draw from
/// the separator, the quote, both line terminators, the empty string
/// and multi-byte UTF-8 read back as written — schema, dictionaries in
/// code order, codes.
#[test]
fn csv_roundtrip() {
    use hypdb::table::csv::{read_csv, write_csv};
    const PIECES: [&str; 8] = [",", "\"", "\r", "\n", "a", "é", "漢", " "];
    let mut rng = StdRng::seed_from_u64(113);
    for case in 0..CASES {
        let cols = rng.gen_range(1..5usize);
        let rows = rng.gen_range(0..30usize);
        let mut b = TableBuilder::new((0..cols).map(|c| format!("c{c}")));
        for _ in 0..rows {
            let row: Vec<String> = (0..cols)
                .map(|_| {
                    // Zero pieces is the empty string; few pieces, so
                    // values repeat and dictionaries stay small.
                    let pieces = rng.gen_range(0..3usize);
                    (0..pieces)
                        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                        .collect()
                })
                .collect();
            b.push_row(row.iter().map(String::as_str)).expect("arity");
        }
        let table = b.finish();
        let mut csv = Vec::new();
        write_csv(&table, &mut csv).expect("write");
        let back = read_csv(&csv[..]).expect("read");
        assert_eq!(back.nrows(), table.nrows(), "case {case}");
        assert_eq!(back.nattrs(), table.nattrs(), "case {case}");
        for a in table.schema().attr_ids() {
            assert_eq!(back.schema().name(a), table.schema().name(a));
            let (got, want) = (back.column(a), table.column(a));
            assert_eq!(got.dict().values(), want.dict().values(), "case {case}");
            assert_eq!(got.codes(), want.codes(), "case {case}");
        }
    }
}

/// SQL statements survive a render → parse round trip.
#[test]
fn sql_roundtrip() {
    let mut rng = StdRng::seed_from_u64(110);
    let letters: Vec<char> = ('A'..='Z').collect();
    for _ in 0..CASES {
        let carrier: String = (0..2).map(|_| letters[rng.gen_range(0..26usize)]).collect();
        let airport: String = (0..3).map(|_| letters[rng.gen_range(0..26usize)]).collect();
        let sql = format!(
            "SELECT Carrier, avg(Delayed) FROM F WHERE Carrier = '{carrier}' \
             AND Airport IN ('{airport}', 'XXX') GROUP BY Carrier"
        );
        let stmt = hypdb::sql::parse_query(&sql).expect("parse");
        let rendered = stmt.to_string();
        let reparsed = hypdb::sql::parse_query(&rendered).expect("reparse");
        assert_eq!(stmt, reparsed);
    }
    // Quoted text is the UTF-8 it arrived as: a non-ASCII literal
    // survives render → parse and selects exactly the rows that hold
    // it, under a plain or a quoted non-ASCII column name.
    let mut b = TableBuilder::new(["city", "Città"]);
    for city in ["café", "cafe", "日本", "café"] {
        b.push_row([city, city]).expect("arity");
    }
    let table = b.finish();
    for (value, want) in [("café", "2"), ("日本", "1"), ("cafÃ©", "0")] {
        let sql = format!("SELECT count(*) FROM t WHERE city = '{value}'");
        let stmt = hypdb::sql::parse_query(&sql).expect("parse");
        let reparsed = hypdb::sql::parse_query(&stmt.to_string()).expect("reparse");
        assert_eq!(stmt, reparsed);
        for sql in [sql.clone(), sql.replace("city", "\"Città\"")] {
            let stmt = hypdb::sql::parse_query(&sql).expect("parse");
            let got = hypdb::sql::execute(&stmt, &table).expect("execute");
            let count = got.rows.first().map_or("0", |r| r[0].as_str());
            assert_eq!(count, want, "{sql}");
        }
    }
}

/// Any statement survives render → parse, whatever its names: spaces,
/// non-ASCII, leading digits, embedded `"`, the empty name, and the
/// grammar's reserved words in any case — the names that must be quoted
/// — beside plain ones, which must not be.
#[test]
fn sql_roundtrip_quotes_the_names_that_need_it() {
    use hypdb::sql::{parse_query, Expr, Literal, SelectItem, Statement};
    const NAMES: [&str; 12] = [
        "Carrier",
        "_x9",
        "Departure Time",
        "Città",
        "日本",
        "9lives",
        "say \"hi\"",
        "\"",
        "",
        " ",
        "a.b",
        "count(*)",
    ];
    const RESERVED: [&str; 13] = [
        "select", "from", "where", "group", "by", "and", "or", "not", "in", "avg", "count",
        "distinct", "having",
    ];
    const VALUES: [&str; 6] = ["AA", "", "O'Hare", "café", "''", "1"];
    fn name(rng: &mut StdRng) -> String {
        if rng.gen_range(0..3u32) > 0 {
            return NAMES[rng.gen_range(0..NAMES.len())].to_string();
        }
        // A reserved word, each letter in a random case.
        let word = RESERVED[rng.gen_range(0..RESERVED.len())];
        word.chars()
            .map(|c| {
                if rng.gen_bool(0.5) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }
    fn literals(rng: &mut StdRng, n: usize) -> Vec<Literal> {
        (0..n)
            .map(|_| Literal(VALUES[rng.gen_range(0..VALUES.len())].to_string()))
            .collect()
    }
    fn expr(rng: &mut StdRng, depth: u32) -> Expr {
        let boxed = |rng: &mut StdRng| Box::new(expr(rng, depth - 1));
        match if depth == 0 {
            0
        } else {
            rng.gen_range(0..6u32)
        } {
            0 | 1 => Expr::Eq(name(rng), literals(rng, 1).remove(0)),
            2 => Expr::NotEq(name(rng), literals(rng, 1).remove(0)),
            3 => {
                let n = rng.gen_range(1..4usize);
                Expr::In(name(rng), literals(rng, n))
            }
            4 => Expr::And(boxed(rng), boxed(rng)),
            _ if rng.gen_bool(0.5) => Expr::Or(boxed(rng), boxed(rng)),
            _ => Expr::Not(boxed(rng)),
        }
    }
    let mut rng = StdRng::seed_from_u64(0x5EED_0025);
    let mut quoted = 0;
    for case in 0..2_000 {
        let items = (0..rng.gen_range(1..4usize))
            .map(|_| match rng.gen_range(0..4u32) {
                0 => SelectItem::Column(name(&mut rng)),
                1 => SelectItem::Avg(name(&mut rng)),
                2 => SelectItem::CountStar,
                _ => SelectItem::CountDistinct(name(&mut rng)),
            })
            .collect();
        let stmt = Statement {
            items,
            from: name(&mut rng),
            where_clause: rng.gen_bool(0.7).then(|| expr(&mut rng, 3)),
            group_by: (0..rng.gen_range(0..3usize))
                .map(|_| name(&mut rng))
                .collect(),
        };
        let text = stmt.to_string();
        quoted += usize::from(text.contains('"'));
        assert_eq!(parse_query(&text), Ok(stmt), "case {case}: {text}");
    }
    assert!(
        (500..2_000).contains(&quoted),
        "{quoted} of 2000 quoted a name"
    );
    // Plain names stay bare, and every built-in dataset's names are
    // plain, so their bodies (Listing-2 SQL included) keep their bytes.
    let plain = "SELECT Carrier, avg(Delayed) FROM FlightData WHERE Airport IN ('COS', 'ROC') \
                 GROUP BY Carrier";
    assert_eq!(parse_query(plain).expect("parse").to_string(), plain);
    use hypdb::datasets as ds;
    let flight = ds::FlightConfig {
        rows: 50,
        ..ds::FlightConfig::default()
    };
    for table in [
        ds::adult_data(&ds::AdultConfig { rows: 50, seed: 1 }),
        ds::berkeley_data(),
        ds::cancer_data(50, 1),
        ds::flight_data(&flight),
        ds::staples_data(&ds::StaplesConfig { rows: 50, seed: 1 }),
    ] {
        let names = table.schema().attr_ids().map(|a| table.schema().name(a));
        let stmt = Statement {
            items: names.map(|n| SelectItem::Column(n.to_string())).collect(),
            from: "t".into(),
            where_clause: None,
            group_by: Vec::new(),
        };
        assert!(!stmt.to_string().contains('"'), "{stmt}");
    }
}

/// One hostile edit of a text, on characters so the result is still a
/// `&str` (what both parsers take): the `http.rs` fuzzer's edit set.
fn mutate_text(rng: &mut StdRng, text: &mut Vec<char>) {
    const PUNCT: &[char] = &[
        '(', ')', '\'', '"', ',', '=', '<', '>', '!', '.', '*', '[', ']', '{', '}', ':', '\\', ' ',
        '-', '0', 'é', '日', '\u{a0}', '\0',
    ];
    let at = rng.gen_range(0..text.len() + 1);
    let punct = PUNCT[rng.gen_range(0..PUNCT.len())];
    match rng.gen_range(0..6u32) {
        0 if !text.is_empty() => drop(text.remove(at % text.len())),
        1 => text.insert(at, punct),
        2 => text.truncate(at),
        3 if !text.is_empty() => {
            let i = at % text.len();
            text[i] = punct;
        }
        4 if !text.is_empty() => {
            let (i, j) = (at % text.len(), rng.gen_range(0..text.len()));
            text.swap(i, j);
        }
        // Repeat a chunk — `(`, `NOT `, `[`, ` AND x = 1` … — often
        // past the parsers' nesting bounds.
        _ => {
            let len = rng.gen_range(1..9usize).min(text.len() - at);
            let chunk: Vec<char> = text[at..at + len].to_vec();
            let times = rng.gen_range(1..300usize);
            let repeated = chunk.iter().cycle().take(len * times).copied();
            text.splice(at..at, repeated.collect::<Vec<char>>());
        }
    }
}

/// Hostile text never panics a parser or what runs behind it, and every
/// refusal says why: 15 000 mutated queries through `parse_query` →
/// `Query::from_sql` → `execute` on a small adult table, 5 000 mutated
/// request bodies through `wire::parse_request`.
#[test]
fn hostile_sql_and_wire_json_are_refused_with_a_message() {
    use hypdb::core::{wire, Query};
    let table = hypdb::datasets::adult_data(&hypdb::datasets::AdultConfig { rows: 300, seed: 7 });
    let queries = [
        "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
        "SELECT Gender, avg(Income), count(*) FROM AdultData WHERE Race IN ('White','Black') \
         AND NOT (Education = 'Masters' OR \"MaritalStatus\" <> 'Single') GROUP BY Gender, Race",
        "SELECT count(DISTINCT Gender) FROM AdultData WHERE HoursPerWeek != 'part' AND EducationNum = 13",
    ];
    let mut request = wire::AnalyzeRequest::new("adult", queries[1]);
    request.treatment = Some("Gender".into());
    request.covariates = Some(vec!["Race".into(), "Education".into()]);
    request.mediators = Some(vec!["Occupation".into()]);
    request.top_k = Some(3);
    request.compute_direct = Some(true);
    request.seed = Some(11);
    let body = request.canonical_json();

    let mut rng = StdRng::seed_from_u64(0x5EED_0024);
    let mutated = |rng: &mut StdRng, seed: &str| {
        let mut text: Vec<char> = seed.chars().collect();
        for _ in 0..1 + rng.gen_range(0..3u32) {
            mutate_text(rng, &mut text);
        }
        text.into_iter().collect::<String>()
    };
    // (parsed, bound, executed, refused with a message)
    let mut sql_outcomes = [0u32; 4];
    for case in 0..15_000 {
        let sql = mutated(&mut rng, queries[case % queries.len()]);
        let refused = |message: String| assert!(!message.is_empty(), "case {case}: {sql}");
        match hypdb::sql::parse_query(&sql) {
            Err(e) => {
                refused(e.to_string());
                sql_outcomes[3] += 1;
                assert!(Query::from_sql(&sql, &table).is_err(), "case {case}: {sql}");
            }
            Ok(stmt) => {
                sql_outcomes[0] += 1;
                match Query::from_sql(&sql, &table) {
                    Ok(_) => sql_outcomes[1] += 1,
                    Err(e) => refused(e.to_string()),
                }
                match hypdb::sql::execute(&stmt, &table) {
                    Ok(_) => sql_outcomes[2] += 1,
                    Err(e) => refused(e.to_string()),
                }
            }
        }
    }
    let mut json_outcomes = [0u32; 2];
    for case in 0..5_000 {
        let text = mutated(&mut rng, &body);
        match wire::parse_request(&text) {
            Ok(_) => json_outcomes[0] += 1,
            Err(e) => {
                assert!(!e.to_string().is_empty(), "case {case}: {text}");
                json_outcomes[1] += 1;
            }
        }
    }
    // The edits bite without drowning the happy paths.
    assert!(
        sql_outcomes.iter().all(|&n| n >= 100),
        "parsed / bound / executed / refused: {sql_outcomes:?}"
    );
    assert!(
        json_outcomes.iter().all(|&n| n >= 100),
        "accepted / refused: {json_outcomes:?}"
    );
}
