//! Clean-path overhead of the supervised worker pool.
//!
//! `run_supervised` buys panic isolation (`catch_unwind` per attempt), a
//! watchdog channel, retry bookkeeping and a per-seed completion
//! callback. On a healthy campaign none of that machinery fires, so its
//! cost must be negligible — the robustness acceptance bar is ≤5%
//! overhead versus calling the same job seed by seed in a plain loop.
//! The pool runs one worker thread so both sides do the same work on
//! one core.
//!
//! Two job shapes bracket the claim:
//!
//! * `synthetic` — a ~1 ms SplitMix64 spin, small enough that any
//!   per-run fixed cost would show up;
//! * `trigger` — the real case-I emulate→mine job, the shape production
//!   sweeps actually run.
//!
//! Run with: `cargo bench -p sentomist-bench --bench supervised_overhead`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentomist_apps::Mode;
use sentomist_core::campaign::{RunOutcome, Verdict};
use sentomist_core::supervise::{run_supervised, RunContext, RunFailure, SupervisorOptions};
use std::sync::Arc;

/// ~1 ms of seed-dependent integer work with a data-dependent result,
/// so neither side can skip it.
fn synthetic_job(ctx: &RunContext) -> Result<RunOutcome, RunFailure> {
    let seed = ctx.seed();
    let mut x = seed;
    for _ in 0..200_000 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    Ok(RunOutcome {
        seed,
        samples: (x % 16) as usize,
        symptoms: 0,
        buggy_ranks: vec![],
        verdict: Verdict::Clean,
        trace_digest: format!("{x:016x}"),
        wall_time_ms: 0,
    })
}

/// The reference: the job called seed by seed, no pool.
fn plain_loop<F>(seeds: &[u64], job: &F) -> Vec<Result<RunOutcome, RunFailure>>
where
    F: Fn(&RunContext) -> Result<RunOutcome, RunFailure>,
{
    seeds
        .iter()
        .map(|&seed| job(&RunContext::new(seed, 1, None)))
        .collect()
}

fn supervised_overhead(c: &mut Criterion) {
    let seeds: Vec<u64> = (1000..1032).collect();
    let options = SupervisorOptions::default(); // one worker thread

    let mut group = c.benchmark_group("supervised_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(seeds.len() as u64));

    let synthetic = Arc::new(synthetic_job);
    group.bench_with_input(BenchmarkId::new("synthetic", "loop"), &(), |b, ()| {
        b.iter(|| plain_loop(&seeds, &*synthetic));
    });
    group.bench_with_input(BenchmarkId::new("synthetic", "supervised"), &(), |b, ()| {
        b.iter(|| run_supervised(&seeds, &options, Arc::clone(&synthetic), |_| {}));
    });

    // The real case-I trigger sweep: emulate + mine per seed, the job
    // shape `campaign` runs in production.
    let trigger_seeds: Vec<u64> = (1000..1008).collect();
    let trigger = Arc::new(
        sentomist_bench::outcome_job(Mode::Trigger {
            period: 20,
            seconds: 1,
            nu: 0.05,
        })
        .expect("oscilloscope assembles"),
    );
    group.bench_with_input(BenchmarkId::new("trigger", "loop"), &(), |b, ()| {
        b.iter(|| plain_loop(&trigger_seeds, &*trigger));
    });
    group.bench_with_input(BenchmarkId::new("trigger", "supervised"), &(), |b, ()| {
        b.iter(|| run_supervised(&trigger_seeds, &options, Arc::clone(&trigger), |_| {}));
    });

    group.finish();
}

criterion_group!(benches, supervised_overhead);
criterion_main!(benches);
