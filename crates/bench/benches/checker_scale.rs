//! Criterion benchmarks of certification at scale: batch and windowed
//! streaming witness checking on long synthetic histories, plus the exact
//! search far past the old 128-op exact frontier.

use criterion::{criterion_group, criterion_main, Criterion};
use regular_core::checker::certificate::WitnessModel;
use regular_core::checker::models::{check, Model};
use regular_core::{check_witness, ComponentSplit};
use regular_sweep::{certify_streaming, synthetic_history};

fn bench_checker_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker_scale");
    group.sample_size(10);

    for &n in &[10_000usize, 100_000] {
        let (history, witness) = synthetic_history(n, 8);
        group.bench_function(format!("witness_full_{n}_ops"), |b| {
            b.iter(|| check_witness(&history, &witness, WitnessModel::Regular).unwrap())
        });
        group.bench_function(format!("witness_streaming_{n}_ops"), |b| {
            b.iter(|| certify_streaming(&history, &witness, WitnessModel::Regular).unwrap())
        });
        group.bench_function(format!("component_split_{n}_ops"), |b| {
            b.iter(|| ComponentSplit::split(&history).len())
        });
    }

    // The exact search (plain search, saturation only as the fallback)
    // *finding* a witness, not just validating one.
    let (search_history, _) = synthetic_history(2_000, 4);
    group.bench_function("search_rsc_2000_ops", |b| {
        b.iter(|| {
            assert!(check(&search_history, Model::RegularSequentialConsistency).unwrap().satisfied)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_checker_scale);
criterion_main!(benches);
