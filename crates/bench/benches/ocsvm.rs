//! Detector benchmarks: SMO one-class SVM solve time versus sample count
//! and ν, and a wall-time comparison of all plug-in detectors on the same
//! sample set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlcore::{
    FeatureMatrix, Kernel, KnnDetector, MahalanobisDetector, OneClassSvm, OutlierDetector,
    PcaDetector, Scaler,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sentomist_core::{sample::SampleMeta, Pipeline, SampleIndex, SampleSet};
use sentomist_trace::EventInterval;

/// Synthetic instruction-counter-like samples: a dense normal cluster with
/// correlated dimensions plus a sprinkle of outliers.
fn samples(n: usize, d: usize, seed: u64) -> FeatureMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut m = FeatureMatrix::with_capacity(n, d);
    for i in 0..n {
        let outlier = i % 97 == 96;
        let row = m.add_row();
        for (j, slot) in row.iter_mut().enumerate() {
            let base = ((j * 13) % 7) as f64 * 10.0;
            let noise: f64 = rng.gen_range(-1.0..1.0);
            *slot = if outlier && j % 5 == 0 {
                base * 2.0 + 40.0 + noise
            } else {
                base + noise
            };
        }
    }
    m
}

/// Shaped like a case-I ranking: `n` rows, each a copy of one of
/// `distinct` rows of [`samples`].
fn repeated_samples(n: usize, distinct: usize, d: usize, seed: u64) -> FeatureMatrix {
    let palette = samples(distinct, d, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mut m = FeatureMatrix::with_capacity(n, d);
    for _ in 0..n {
        m.push_row(palette.row(rng.gen_range(0..distinct)));
    }
    m
}

/// The sample sets of the Gram and rank-path groups: all-distinct rows
/// (the worst case for the row grouping) and a duplicate-heavy set of
/// 1,141 rows drawn from 44 distinct ones.
fn gram_inputs(seed: u64) -> Vec<(String, FeatureMatrix)> {
    let mut inputs: Vec<(String, FeatureMatrix)> = [400usize, 1000]
        .into_iter()
        .map(|n| (n.to_string(), samples(n, 64, seed)))
        .collect();
    inputs.push(("1141x44".into(), repeated_samples(1141, 44, 64, seed)));
    inputs
}

/// RBF Gram-matrix construction — the O(n²d) kernel of every SMO solve.
fn bench_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram_construction");
    for (name, raw) in gram_inputs(7) {
        let data = Scaler::fit_transform(&raw);
        let kernel = Kernel::Rbf { gamma: 1.0 / 64.0 };
        group.bench_with_input(BenchmarkId::from_parameter(name), &data, |b, d| {
            b.iter(|| kernel.gram(d).rows())
        });
    }
    group.finish();
}

/// The featurize→scale→detect→rank vertical on pre-built samples.
fn bench_rank_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank_path");
    for (name, features) in gram_inputs(9) {
        let n = features.rows();
        let meta: Vec<SampleMeta> = (0..n)
            .map(|i| SampleMeta {
                index: SampleIndex::Seq(i as u32 + 1),
                interval: EventInterval {
                    irq: 1,
                    start_index: i * 4,
                    end_index: i * 4 + 3,
                    last_run_index: None,
                    start_cycle: i as u64 * 100,
                    end_cycle: i as u64 * 100 + 80,
                    task_count: 1,
                },
            })
            .collect();
        let built = SampleSet { meta, features };
        let pipeline = Pipeline::default_ocsvm(0.05);
        group.bench_with_input(BenchmarkId::from_parameter(name), &built, |b, s| {
            b.iter(|| pipeline.rank_set(s.clone()).unwrap().ranking.len())
        });
    }
    group.finish();
}

fn bench_ocsvm_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ocsvm_samples");
    for n in [100usize, 400, 1000] {
        let data = Scaler::fit_transform(&samples(n, 64, 1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, d| {
            b.iter(|| OneClassSvm::with_nu(0.05).score(d).unwrap().len())
        });
    }
    group.finish();
}

fn bench_ocsvm_nu(c: &mut Criterion) {
    let data = Scaler::fit_transform(&samples(400, 64, 2));
    let mut group = c.benchmark_group("ocsvm_nu");
    for nu in [0.02f64, 0.05, 0.2, 0.5] {
        group.bench_with_input(BenchmarkId::from_parameter(nu), &data, |b, d| {
            b.iter(|| OneClassSvm::with_nu(nu).score(d).unwrap().len())
        });
    }
    group.finish();
}

fn bench_detector_comparison(c: &mut Criterion) {
    let data = Scaler::fit_transform(&samples(400, 64, 3));
    let detectors: Vec<Box<dyn OutlierDetector>> = vec![
        Box::new(OneClassSvm::with_nu(0.05)),
        Box::new(PcaDetector::default()),
        Box::new(KnnDetector::default()),
        Box::new(MahalanobisDetector::default()),
    ];
    let mut group = c.benchmark_group("detector_wall_time");
    for det in detectors {
        let name = det.name();
        group.bench_with_input(BenchmarkId::from_parameter(name), &data, |b, d| {
            b.iter(|| det.score(d).unwrap().len())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_gram, bench_rank_path, bench_ocsvm_scaling, bench_ocsvm_nu, bench_detector_comparison
}
criterion_main!(benches);
