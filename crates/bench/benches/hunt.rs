//! Cost profile of the hunt subsystem's per-seed work.
//!
//! A hunt iteration is the heaviest per-seed job in the repo: scenario
//! generation, emulation, two mining passes (live + the
//! `mining_determinism` re-mine) and the invariant registry. These
//! benchmarks split that cost so regressions are attributable:
//!
//! * `scenario_gen` — pure seeded generation across all three cases;
//!   this must stay in the nanoseconds, it runs once per seed per
//!   target and proptest hammers it;
//! * `iteration` — the full emulate→mine→re-mine→check job per case on
//!   the buggy variant, i.e. the wall-clock unit a campaign's
//!   `--iterations` knob multiplies;
//! * `invariant_check` — the registry alone on prebuilt evidence, which
//!   must be noise compared to mining.
//!
//! Run with: `cargo bench -p sentomist-bench --bench hunt`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentomist_apps::{hunt_iteration, scenario, scenario_evidence, HuntCase, Variant};
use sentomist_core::hunt::{check_invariants, InvariantPolicy};

fn hunt_benches(c: &mut Criterion) {
    let policy = InvariantPolicy::default();

    let mut group = c.benchmark_group("hunt");

    // Seeded scenario generation: pure, total, and cheap enough that a
    // campaign's seed sweep never notices it.
    group.throughput(Throughput::Elements(64));
    group.bench_function("scenario_gen", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for seed in 0..64u64 {
                for case in HuntCase::ALL {
                    acc ^= scenario(case, Variant::Buggy, seed).node_seed;
                }
            }
            acc
        });
    });

    // The full per-seed job, one case at a time. Sample size is small:
    // each iteration emulates seconds of simulated network time.
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));
    for case in HuntCase::ALL {
        group.bench_with_input(
            BenchmarkId::new("iteration", case.name()),
            &case,
            |b, &case| {
                b.iter(|| {
                    hunt_iteration(case, Variant::Buggy, 0xBEEF, &policy, None)
                        .expect("hunt iteration succeeds")
                });
            },
        );
    }

    // The invariant registry on already-mined evidence: bookkeeping
    // only, so it should be invisible next to the mining above.
    let (record, traces) = hunt_iteration(
        HuntCase::Oscilloscope,
        Variant::Buggy,
        0xBEEF,
        &policy,
        None,
    )
    .expect("hunt iteration succeeds");
    drop(traces);
    let s = scenario(HuntCase::Oscilloscope, Variant::Buggy, 0xBEEF);
    let mined = sentomist_apps::mine_scenario(
        &s,
        &sentomist_apps::emulate_scenario(&s).expect("emulation succeeds"),
    )
    .expect("mining succeeds");
    let evidence = scenario_evidence(&s, &mined, true);
    group.sample_size(50);
    group.bench_function("invariant_check", |b| {
        b.iter(|| check_invariants(&evidence, &policy));
    });
    assert_eq!(record.outcome.seed, 0xBEEF);

    group.finish();
}

criterion_group!(benches, hunt_benches);
criterion_main!(benches);
