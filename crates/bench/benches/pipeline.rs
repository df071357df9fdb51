//! Criterion benches behind Table 1: end-to-end HypDB analysis per
//! dataset (detect + explain + resolve), plus the exact-matching
//! ablation on the rewriter.

use criterion::{criterion_group, criterion_main, Criterion};
use hypdb_core::effect::adjusted_averages;
use hypdb_core::{HypDb, Query};
use hypdb_datasets as ds;
use hypdb_stats::independence::MitConfig;
use hypdb_table::contingency::ContingencyTable;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    let cancer = ds::cancer_data(2_000, 17);
    group.bench_function("cancer_2k", |b| {
        let q = Query::from_sql(
            "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData GROUP BY Lung_Cancer",
            &cancer,
        )
        .expect("query");
        b.iter(|| HypDb::new(&cancer).analyze(&q).expect("analysis"))
    });

    let berkeley = ds::berkeley_data();
    group.bench_function("berkeley_4.5k", |b| {
        let q = Query::from_sql(
            "SELECT Gender, avg(Accepted) FROM BerkeleyData GROUP BY Gender",
            &berkeley,
        )
        .expect("query");
        b.iter(|| HypDb::new(&berkeley).analyze(&q).expect("analysis"))
    });

    let flight = ds::flight_data(&ds::FlightConfig {
        rows: 20_000,
        total_attrs: 40,
        ..ds::FlightConfig::default()
    });
    group.bench_function("flight_20k_40attrs", |b| {
        let q = Query::from_sql(
            "SELECT Carrier, avg(Delayed) FROM FlightData \
             WHERE Carrier IN ('AA','UA') AND Airport IN ('COS','MFE','MTJ','ROC') \
             GROUP BY Carrier",
            &flight,
        )
        .expect("query");
        b.iter(|| HypDb::new(&flight).analyze(&q).expect("analysis"))
    });

    group.finish();
}

fn bench_rewriter(c: &mut Criterion) {
    // Ablation: the adjustment-formula evaluation itself (Listing 2),
    // with and without covariates.
    let mut group = c.benchmark_group("rewriter");
    group.sample_size(20);
    let t = ds::staples_data(&ds::StaplesConfig {
        rows: 200_000,
        ..ds::StaplesConfig::default()
    });
    let income = t.attr("Income").expect("attr");
    let price = t.attr("Price").expect("attr");
    let distance = t.attr("Distance").expect("attr");
    let urban = t.attr("Urban").expect("attr");
    let mit = MitConfig::default();
    // Each iteration counts the rows once, as a context does, then
    // evaluates the formula on the counts.
    group.bench_function("naive_group_by", |b| {
        b.iter(|| {
            let counts = ContingencyTable::from_table(&t, &t.all_rows(), &[income, price]);
            adjusted_averages(&t, &counts, income, &[0, 1], &[price], &[], &mit, 1)
                .expect("estimate")
        })
    });
    group.bench_function("adjusted_two_covariates", |b| {
        b.iter(|| {
            let z = [distance, urban];
            let counts =
                ContingencyTable::from_table(&t, &t.all_rows(), &[income, price, distance, urban]);
            adjusted_averages(&t, &counts, income, &[0, 1], &[price], &z, &mit, 1)
                .expect("estimate")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_rewriter);
criterion_main!(benches);
