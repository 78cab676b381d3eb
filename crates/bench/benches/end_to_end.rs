//! End-to-end wall time of the full Sentomist pipeline on each case study
//! (emulate → trace → anatomize → featurize → detect → rank), the numbers
//! behind the paper's "greatly speeds up debugging" claim.

use criterion::{criterion_group, criterion_main, Criterion};
use sentomist_apps::{Case1Config, Case2Config, Case3Config, Study};

/// Emulates and mines one study; its sample count keeps the work alive.
fn run(study: Study) -> usize {
    study.run().unwrap().0.sample_count
}

fn bench_cases(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.bench_function("case1_five_runs_10s", |b| {
        b.iter(|| run(Case1Config::default().study().unwrap()))
    });
    group.bench_function("case2_chain_20s", |b| {
        b.iter(|| run(Case2Config::default().study().unwrap()))
    });
    group.bench_function("case3_tree_15s", |b| {
        b.iter(|| run(Case3Config::default().study().unwrap()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5));
    targets = bench_cases
}
criterion_main!(benches);
