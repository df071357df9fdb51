//! Fig 6(c), Fig 6(d) and Fig 8(b): efficacy of the §6 optimisations —
//! entropy caching, contingency-table materialisation, and precomputed
//! data cubes. The "cube" here is what production's is
//! (`hypdb_core`'s `Context::counts`): one joint contingency table,
//! every aggregate a `marginal` of it.

use crate::report::MdTable;
use crate::{timed, Scale};
use hypdb_causal::cd::{discover_parents, CdConfig};
use hypdb_causal::oracle::{CiConfig, DataOracle, IndependenceTestKind};
use hypdb_datasets::random_data::{random_data, RandomDataConfig};
use hypdb_table::contingency::ContingencyTable;
use hypdb_table::AttrId;

/// Fig 6(c): CD runtime under the four cache configurations, plus the
/// warm-cache floor ("precomputed entropies").
pub fn run_fig6c(scale: Scale) {
    crate::report::section("Fig 6(c) — efficacy of entropy caching & contingency-table materialisation (CD runtime, seconds)");
    let sizes: Vec<usize> = scale.pick(
        vec![10_000, 50_000, 150_000],
        vec![10_000, 50_000, 150_000, 500_000, 1_500_000],
    );
    let configs: [(&str, bool, bool); 4] = [
        ("no caching, no materialisation", false, false),
        ("caching only", true, false),
        ("materialisation only", false, true),
        ("both", true, true),
    ];
    let mut t = MdTable::new([
        "rows",
        "plain",
        "+caching",
        "+materialisation",
        "+both",
        "warm (precomputed entropies)",
    ]);
    for &rows in &sizes {
        let d = random_data(&RandomDataConfig {
            nodes: 8,
            expected_edges: 12.0,
            rows,
            min_categories: 2,
            max_categories: 5,
            seed: 0x6C,
            ..RandomDataConfig::default()
        });
        let mut cells = vec![rows.to_string()];
        let mut warm_secs = 0.0;
        for (_, cache, mat) in configs {
            let cfg = CiConfig {
                kind: IndependenceTestKind::ChiSquared,
                cache_entropies: cache,
                materialize: mat,
                ..CiConfig::default()
            };
            let oracle = DataOracle::over_all_attrs(&d.table, d.table.all_rows(), cfg);
            let (_, secs) = timed(|| discover_parents(&oracle, 0, CdConfig::default()));
            cells.push(format!("{secs:.3}"));
            if cache && mat {
                // Warm pass: every entropy/count already cached. A fresh
                // oracle over the same cache, so each statement is
                // settled again rather than read from the first
                // oracle's verdict memo.
                let warm = DataOracle::with_cache(
                    &d.table,
                    d.table.all_rows(),
                    oracle.vars().to_vec(),
                    cfg,
                    oracle.shared_cache().clone(),
                );
                let (_, w) = timed(|| discover_parents(&warm, 0, CdConfig::default()));
                warm_secs = w;
            }
        }
        cells.push(format!("{warm_secs:.3}"));
        t.row(cells);
    }
    t.print();
    println!(
        "\n(paper, for shape: both optimisations help and compose; the gap to \
         the warm run shows entropy computation dominates CD's cost)"
    );
}

/// The cube workload: `count(*) GROUP BY S` for every non-empty subset
/// `S` of at most `max_width` of the table's attributes, each subset as
/// schema positions.
fn subset_workload(nattrs: usize, max_width: usize) -> Vec<Vec<usize>> {
    let positions: Vec<usize> = (0..nattrs).collect();
    hypdb_causal::subsets::subsets_ascending(&positions, max_width)
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect()
}

fn time_cube_workload(rows: usize, attrs: usize, seed: u64) -> (f64, f64) {
    let d = random_data(&RandomDataConfig {
        nodes: attrs,
        expected_edges: attrs as f64,
        rows,
        min_categories: 2,
        max_categories: 2, // binary, like the paper's cube experiment
        seed,
        ..RandomDataConfig::default()
    });
    let table = &d.table;
    // Every attribute in schema order, so a subset's schema positions
    // are also its positions in the joint.
    let all: Vec<AttrId> = table.schema().attr_ids().collect();
    let workload = subset_workload(attrs, 3);
    // No cube: every aggregate scans the base table.
    let (scanned, cold) = timed(|| {
        let mut checksum = 0u64;
        for subset in &workload {
            let ids: Vec<AttrId> = subset.iter().map(|&p| all[p]).collect();
            let ct = ContingencyTable::from_table(table, &table.all_rows(), &ids);
            checksum ^= ct.support();
        }
        checksum
    });
    // Cube: count the joint once, serve every aggregate as a marginal.
    let (derived, cubed) = timed(|| {
        let joint = ContingencyTable::from_table(table, &table.all_rows(), &all);
        let mut checksum = 0u64;
        for subset in &workload {
            checksum ^= joint.marginal(subset).support();
        }
        checksum
    });
    assert_eq!(scanned, derived, "marginals of the joint are the scans");
    (cold, cubed)
}

/// Fig 6(d): cube vs no cube, varying input size (binary attributes).
pub fn run_fig6d(scale: Scale) {
    crate::report::section("Fig 6(d) — data-cube benefit vs input size (seconds, 8 binary attrs, all <=3-way aggregates)");
    let sizes: Vec<usize> = scale.pick(
        vec![100_000, 300_000, 1_000_000],
        vec![100_000, 300_000, 1_000_000, 3_000_000, 10_000_000],
    );
    let mut t = MdTable::new(["rows", "no cube", "cube (build + queries)", "speedup"]);
    for &rows in &sizes {
        let (cold, cubed) = time_cube_workload(rows, 8, 0x6D);
        t.row([
            rows.to_string(),
            format!("{cold:.3}"),
            format!("{cubed:.3}"),
            format!("{:.1}x", cold / cubed.max(1e-9)),
        ]);
    }
    t.print();
    println!(
        "\n(paper, for shape: the cube advantage grows with input size — the \
         cube summarises the data once, after which aggregates no longer touch \
         the raw rows)"
    );
}

/// Fig 8(b): cube vs no cube, varying attribute count at fixed size.
pub fn run_fig8b(scale: Scale) {
    crate::report::section("Fig 8(b) — data-cube benefit vs number of attributes (seconds)");
    let rows = scale.pick(200_000, 1_000_000);
    let mut t = MdTable::new(["attrs", "no cube", "cube (build + queries)", "speedup"]);
    for attrs in [8usize, 10, 12] {
        let (cold, cubed) = time_cube_workload(rows, attrs, 0x8B);
        t.row([
            attrs.to_string(),
            format!("{cold:.3}"),
            format!("{cubed:.3}"),
            format!("{:.1}x", cold / cubed.max(1e-9)),
        ]);
    }
    t.print();
    println!(
        "\n(paper, for shape: the benefit persists as width grows, up to the \
         12 attributes PostgreSQL's cube operator allows; rows = {rows})"
    );
}
