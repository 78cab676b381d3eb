//! How campaign wall-clock time scales with the worker-thread count.
//!
//! The pool's determinism contract says thread count changes only
//! *when* outcomes are produced, never their content — this bench measures
//! the "when": a short 8-seed case-I trigger sweep driven by 1, 2 and 4
//! workers of the supervised pool. On a multi-core host the 4-thread sweep
//! should take well under half the single-thread time; on a single core
//! all three are equal.
//!
//! Run with: `cargo bench -p sentomist-bench --bench campaign_scaling`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentomist_apps::Mode;
use sentomist_core::supervise::{run_supervised, SupervisorOptions};
use std::sync::Arc;

fn campaign_scaling(c: &mut Criterion) {
    let seeds: Vec<u64> = (1000..1008).collect();
    // 2-second runs keep the bench quick while still dominating the
    // per-job time with real emulation + mining work.
    let job = Arc::new(
        sentomist_bench::outcome_job(Mode::Trigger {
            period: 20,
            seconds: 2,
            nu: 0.05,
        })
        .expect("oscilloscope assembles"),
    );

    let mut group = c.benchmark_group("campaign_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(seeds.len() as u64));
    for threads in [1usize, 2, 4] {
        let options = SupervisorOptions {
            threads,
            ..SupervisorOptions::default()
        };
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &options,
            |b, options| {
                b.iter(|| run_supervised(&seeds, options, Arc::clone(&job), |_| {}));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, campaign_scaling);
criterion_main!(benches);
