//! Benchmarks state-space generation: MD construction from the Kronecker
//! expression and symbolic reachability (the image fixpoint of
//! `mdl_mdd::Mdd::reachable`) into the MDD — the "gen time" column of
//! Table 1.

use criterion::{criterion_group, criterion_main, Criterion};

use mdl_models::shared_repair::{SharedRepairConfig, SharedRepairModel};
use mdl_models::tandem::{TandemConfig, TandemModel};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);

    let tandem = TandemModel::new(TandemConfig {
        jobs: 1,
        ..TandemConfig::default()
    });
    group.bench_function("tandem_j1_md", |b| {
        b.iter(|| tandem.composed().kronecker().to_md().expect("md builds"))
    });
    group.bench_function("tandem_j1_reachability", |b| {
        b.iter(|| tandem.composed().reachable().expect("reachable"))
    });

    let repair = SharedRepairModel::new(SharedRepairConfig {
        machines: 10,
        ..SharedRepairConfig::default()
    });
    group.bench_function("shared_repair_m10_full_pipeline", |b| {
        b.iter(|| repair.build_md_mrp().expect("mrp builds"))
    });

    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
