//! Campaign determinism and replay contracts (the seed-sweep pool's two
//! load-bearing guarantees):
//!
//! 1. **Thread-count invariance** — a seed sweep aggregated by the
//!    supervised pool serializes to *byte-identical* JSON whether 1 or 4
//!    worker threads ran it; scheduling must never leak into results.
//! 2. **Reproduce-by-seed** — re-running any flagged seed through the
//!    same job reproduces the original outcome exactly, down to the
//!    trace digest (which fingerprints the full recorded execution).

use sentomist::apps::trigger_job;
use sentomist::core::campaign::{summarize, CampaignResult, RunOutcome, Verdict};
use sentomist::core::supervise::{
    run_supervised, supervise_once, RunContext, RunFailure, SupervisorOptions,
};
use serde::Serialize;
use std::sync::Arc;

/// 2-second runs at the race-friendliest period keep the sweep quick
/// while still triggering the bug in a healthy fraction of seeds. Each
/// call builds a fresh job (fresh program assembly, fresh pipeline).
fn job() -> Arc<impl Fn(&RunContext) -> Result<RunOutcome, RunFailure> + Send + Sync> {
    let traced = trigger_job(20, 2, 0.05).expect("oscilloscope assembles");
    Arc::new(move |ctx: &RunContext| traced(ctx).map(|(outcome, _)| outcome))
}

fn sweep(threads: usize) -> CampaignResult {
    let seeds: Vec<u64> = (1000..1016).collect();
    let options = SupervisorOptions {
        threads,
        ..SupervisorOptions::default()
    };
    run_supervised(&seeds, &options, job(), |_| {})
}

/// The serialized campaign document a consumer would persist: outcomes,
/// errors and the aggregate summary.
fn document(result: &CampaignResult) -> String {
    let doc = serde::Value::Map(vec![
        (
            "outcomes".to_string(),
            Serialize::to_value(&result.outcomes),
        ),
        ("errors".to_string(), Serialize::to_value(&result.errors)),
        (
            "summary".to_string(),
            Serialize::to_value(&result.summary()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("campaign document serializes")
}

#[test]
fn sixteen_seed_sweep_is_byte_identical_across_thread_counts() {
    let single = sweep(1);
    let parallel = sweep(4);

    assert_eq!(single.outcomes.len(), 16, "all seeds complete");
    assert!(single.errors.is_empty(), "no seed faults");

    // The structures agree field for field (timing excluded)...
    for (a, b) in single.outcomes.iter().zip(&parallel.outcomes) {
        assert!(
            a.matches(b),
            "seed {} diverged across thread counts",
            a.seed
        );
    }
    // ...and the serialized documents are byte-identical.
    assert_eq!(document(&single), document(&parallel));
}

#[test]
fn sweep_triggers_and_ranks_the_race() {
    let result = sweep(2);
    let summary = summarize(&result.outcomes);
    assert_eq!(summary.runs, 16);
    // At D = 20 ms the race fires in most 2 s runs.
    assert!(
        summary.triggered >= 8,
        "expected a majority of seeds to trigger, got {}/16",
        summary.triggered
    );
    // Whenever the bug fires, mining surfaces it near the top.
    assert!(summary.hits_top3 >= summary.triggered / 2);
    for o in result.triggered() {
        assert_eq!(o.verdict, Verdict::Triggered);
        assert!(o.symptoms > 0);
        assert!(!o.buggy_ranks.is_empty());
    }
}

#[test]
fn replaying_a_flagged_seed_reproduces_outcome_and_digest() {
    let result = sweep(2);
    let flagged = result
        .triggered()
        .next()
        .expect("at least one seed triggers the race");

    // A fresh job — only the seed carries over, exactly the
    // reproduce-by-seed workflow.
    let replayed = supervise_once(flagged.seed, &SupervisorOptions::default(), job())
        .outcome
        .expect("replay completes");

    assert!(
        replayed.matches(flagged),
        "replay of seed {} diverged: {:?} vs {:?}",
        flagged.seed,
        replayed,
        flagged
    );
    assert_eq!(replayed.trace_digest, flagged.trace_digest);
    assert_eq!(replayed.buggy_ranks, flagged.buggy_ranks);
}

#[test]
fn outcome_lookup_finds_every_seed() {
    let result = sweep(2);
    for o in &result.outcomes {
        assert_eq!(result.outcome_for(o.seed).unwrap().seed, o.seed);
    }
    assert!(result.outcome_for(999).is_none());
}

#[test]
fn trigger_job_stops_cooperatively_on_cancellation_and_budget() {
    let traced = trigger_job(20, 2, 0.05).expect("oscilloscope assembles");
    let outcome = |ctx: &RunContext| traced(ctx).map(|(outcome, _)| outcome);

    // A watchdog that fired before the first slice stops the run at once.
    let cancelled = RunContext::new(1000, 1, None);
    cancelled.cancel();
    assert_eq!(
        outcome(&cancelled),
        Err(RunFailure::TimedOut(
            "cancelled by the watchdog at cycle 0".to_string()
        ))
    );

    // A budget shorter than the 2-s run stops it with a typed timeout.
    assert_eq!(
        outcome(&RunContext::new(1000, 1, Some(1_000_000))),
        Err(RunFailure::TimedOut(
            "cycle budget 1000000 exhausted before the 2000000-cycle run finished".to_string()
        ))
    );

    // A budget exactly as long as the run changes nothing.
    let unbounded = outcome(&RunContext::new(1000, 1, None)).expect("run completes");
    let budgeted = outcome(&RunContext::new(1000, 1, Some(2_000_000))).expect("run completes");
    assert_eq!(budgeted, unbounded);
}
