//! Seed-sweep campaign results.
//!
//! The paper's §IV premise — transient bugs need *many* randomized
//! testing scenarios before they trigger — makes single-run evaluation
//! misleading: what matters is a *campaign*, a sweep of independent
//! runs over a seed range, with the mining pipeline applied to each run
//! in isolation. The sweep itself runs on the supervised worker pool
//! ([`crate::supervise::run_supervised`]); this module holds what it
//! produces:
//!
//! * [`RunOutcome`] / [`RunError`] — one seed's structured result or
//!   typed failure, and [`CampaignResult`], both lists **sorted by
//!   seed**, so the aggregated result is identical whether 1 or 16
//!   threads ran it;
//! * [`summarize`] / [`summarize_result`] reduce the outcomes to
//!   permutation-invariant campaign statistics (trigger rate, rank
//!   quality, sample volumes, failure counts);
//! * any flagged run is replayable by running the same job on the same
//!   seed ([`crate::supervise::supervise_once`]) — the
//!   [`RunOutcome::trace_digest`] proves the replay reproduced the
//!   original execution bit for bit.
//!
//! Wall-clock timing is observability, not result: the per-run
//! [`RunOutcome::wall_time_ms`] is `#[serde(skip)]`ed so serialized
//! campaign documents stay byte-identical across machines and thread
//! counts.

use serde::{Deserialize, Serialize};

/// Did the run trigger the bug (produce any true symptom interval)?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// No symptom interval in this run.
    Clean,
    /// At least one symptom interval — the bug fired.
    Triggered,
}

/// Structured result of one campaign run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Seed of the run (the replay key).
    pub seed: u64,
    /// Event-handling intervals mined from the run.
    pub samples: usize,
    /// Ground-truth symptom intervals among them.
    pub symptoms: usize,
    /// 1-based ranks of the symptom intervals in the run's own
    /// suspicion ranking, ascending; empty for clean runs.
    pub buggy_ranks: Vec<usize>,
    /// Whether the bug triggered.
    pub verdict: Verdict,
    /// FNV-1a digest of the recorded trace(s), as 16 hex digits —
    /// the replay-verification token.
    pub trace_digest: String,
    /// Wall-clock time of the run in milliseconds. Observability only:
    /// excluded from serialization and from [`RunOutcome::matches`].
    #[serde(skip)]
    pub wall_time_ms: u64,
}

impl RunOutcome {
    /// Replay equivalence: every result field agrees (timing ignored).
    pub fn matches(&self, other: &RunOutcome) -> bool {
        self.seed == other.seed
            && self.samples == other.samples
            && self.symptoms == other.symptoms
            && self.buggy_ranks == other.buggy_ranks
            && self.verdict == other.verdict
            && self.trace_digest == other.trace_digest
    }
}

/// How a failed run failed. Plain job errors, caught panics and watchdog
/// kills are distinct: only the first two can be retried, and operators
/// triage them differently (a timeout usually means the scenario hung,
/// not that it crashed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The job returned an error.
    #[default]
    Error,
    /// The job panicked; the supervisor caught it.
    Panic,
    /// The watchdog killed the run (wall-clock or cycle budget exceeded).
    TimedOut,
}

impl FailureKind {
    /// Stable lowercase slug, used by stored manifests.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Error => "error",
            FailureKind::Panic => "panic",
            FailureKind::TimedOut => "timeout",
        }
    }

    /// Inverse of [`FailureKind::as_str`]; unknown (including empty, from
    /// manifests predating failure typing) parses as [`FailureKind::Error`].
    pub fn parse(s: &str) -> FailureKind {
        match s {
            "panic" => FailureKind::Panic,
            "timeout" => FailureKind::TimedOut,
            _ => FailureKind::Error,
        }
    }
}

/// A run that failed outright (VM fault, pipeline error, caught panic,
/// watchdog kill).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunError {
    /// Seed of the failed run.
    pub seed: u64,
    /// The error rendered as text.
    pub message: String,
    /// What class of failure this was.
    pub kind: FailureKind,
    /// Attempts spent on the seed before giving up (1 = no retries).
    pub attempts: u32,
}

impl RunError {
    /// A plain single-attempt job error.
    pub fn new(seed: u64, message: impl Into<String>) -> RunError {
        RunError {
            seed,
            message: message.into(),
            kind: FailureKind::Error,
            attempts: 1,
        }
    }
}

/// Aggregated result of a campaign: outcomes and errors, both sorted by
/// seed, so the whole structure is deterministic regardless of worker
/// scheduling.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Per-run outcomes, ascending by seed.
    pub outcomes: Vec<RunOutcome>,
    /// Failed runs, ascending by seed.
    pub errors: Vec<RunError>,
}

impl CampaignResult {
    /// Permutation-invariant summary statistics of the outcomes *and*
    /// failures.
    pub fn summary(&self) -> CampaignSummary {
        summarize_result(&self.outcomes, &self.errors)
    }

    /// Outcomes whose verdict is [`Verdict::Triggered`].
    pub fn triggered(&self) -> impl Iterator<Item = &RunOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.verdict == Verdict::Triggered)
    }

    /// The outcome for `seed`, if that run completed.
    pub fn outcome_for(&self, seed: u64) -> Option<&RunOutcome> {
        self.outcomes
            .binary_search_by_key(&seed, |o| o.seed)
            .ok()
            .map(|i| &self.outcomes[i])
    }

    /// Total wall-clock milliseconds spent inside jobs (across all
    /// workers; with N threads the elapsed time is roughly this / N).
    pub fn cpu_time_ms(&self) -> u64 {
        self.outcomes.iter().map(|o| o.wall_time_ms).sum()
    }
}

/// Campaign-level statistics. Every field is a sum, count, extremum or
/// exact ratio over the outcome *set*, so the summary is invariant under
/// any permutation of the outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Completed runs.
    pub runs: usize,
    /// Runs whose verdict is [`Verdict::Triggered`].
    pub triggered: usize,
    /// `triggered / runs` (0 for an empty campaign).
    pub trigger_rate: f64,
    /// Sum of mined intervals across runs.
    pub total_samples: usize,
    /// Sum of symptom intervals across runs.
    pub total_symptoms: usize,
    /// Fewest intervals mined in one run (0 for an empty campaign).
    pub min_samples: usize,
    /// Most intervals mined in one run.
    pub max_samples: usize,
    /// Mean intervals per run.
    pub mean_samples: f64,
    /// Triggered runs whose best symptom ranked 1st.
    pub hits_top1: usize,
    /// Triggered runs whose best symptom ranked in the top 3.
    pub hits_top3: usize,
    /// Triggered runs whose best symptom ranked in the top 10.
    pub hits_top10: usize,
    /// Runs that failed (job error, panic or watchdog kill) after
    /// exhausting their retry budget.
    pub failed: usize,
    /// Failed runs whose last attempt panicked.
    pub panicked: usize,
    /// Failed runs killed by the watchdog.
    pub timed_out: usize,
    /// Attempts spent on runs that ultimately failed (retries included).
    pub failed_attempts: u64,
    /// `failed / (runs + failed)` (0 for an empty campaign).
    pub failure_rate: f64,
}

/// Reduces outcomes to [`CampaignSummary`]; order-independent. Failure
/// statistics are all zero — use [`summarize_result`] (or
/// [`CampaignResult::summary`]) when the campaign had errors to count.
pub fn summarize(outcomes: &[RunOutcome]) -> CampaignSummary {
    summarize_result(outcomes, &[])
}

/// Reduces outcomes *and* failures to [`CampaignSummary`];
/// order-independent in both lists. The failure fields are computed from
/// the error list alone, so a re-mined corpus (which carries its live
/// campaign's errors in the store manifest) reproduces them exactly.
pub fn summarize_result(outcomes: &[RunOutcome], errors: &[RunError]) -> CampaignSummary {
    let runs = outcomes.len();
    let triggered = outcomes
        .iter()
        .filter(|o| o.verdict == Verdict::Triggered)
        .count();
    let total_samples: usize = outcomes.iter().map(|o| o.samples).sum();
    let total_symptoms: usize = outcomes.iter().map(|o| o.symptoms).sum();
    let hits_within = |k: usize| {
        outcomes
            .iter()
            .filter(|o| o.buggy_ranks.first().is_some_and(|&r| r <= k))
            .count()
    };
    CampaignSummary {
        runs,
        triggered,
        trigger_rate: if runs == 0 {
            0.0
        } else {
            triggered as f64 / runs as f64
        },
        total_samples,
        total_symptoms,
        min_samples: outcomes.iter().map(|o| o.samples).min().unwrap_or(0),
        max_samples: outcomes.iter().map(|o| o.samples).max().unwrap_or(0),
        mean_samples: if runs == 0 {
            0.0
        } else {
            total_samples as f64 / runs as f64
        },
        hits_top1: hits_within(1),
        hits_top3: hits_within(3),
        hits_top10: hits_within(10),
        failed: errors.len(),
        panicked: errors
            .iter()
            .filter(|e| e.kind == FailureKind::Panic)
            .count(),
        timed_out: errors
            .iter()
            .filter(|e| e.kind == FailureKind::TimedOut)
            .count(),
        failed_attempts: errors.iter().map(|e| u64::from(e.attempts)).sum(),
        failure_rate: if runs + errors.len() == 0 {
            0.0
        } else {
            errors.len() as f64 / (runs + errors.len()) as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::SupervisorOptions;
    use crate::supervise::{run_supervised, supervise_once, RunContext, RunFailure};
    use std::sync::Arc;

    fn fake_job(ctx: &RunContext) -> Result<RunOutcome, RunFailure> {
        let seed = ctx.seed();
        if seed == 13 {
            return Err(RunFailure::Fatal("unlucky".into()));
        }
        let symptoms = seed.is_multiple_of(3) as usize;
        Ok(RunOutcome {
            seed,
            samples: 10 + (seed % 5) as usize,
            symptoms,
            buggy_ranks: if symptoms > 0 {
                vec![(seed % 7) as usize + 1]
            } else {
                vec![]
            },
            verdict: if symptoms > 0 {
                Verdict::Triggered
            } else {
                Verdict::Clean
            },
            trace_digest: format!("{:016x}", seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            wall_time_ms: 0,
        })
    }

    fn sweep(seeds: &[u64], threads: usize) -> CampaignResult {
        let options = SupervisorOptions {
            threads,
            ..SupervisorOptions::default()
        };
        run_supervised(seeds, &options, Arc::new(fake_job), |_| {})
    }

    #[test]
    fn outcomes_sorted_by_seed_for_any_thread_count() {
        let seeds: Vec<u64> = (0..24).rev().collect(); // deliberately unsorted
        let one = sweep(&seeds, 1);
        let four = sweep(&seeds, 4);
        // Timing differs run to run; compare result content.
        assert_eq!(one.errors, four.errors);
        assert_eq!(one.outcomes.len(), four.outcomes.len());
        for (a, b) in one.outcomes.iter().zip(&four.outcomes) {
            assert!(a.matches(b), "seed {} diverged", a.seed);
        }
        let seeds_out: Vec<u64> = one.outcomes.iter().map(|o| o.seed).collect();
        let mut sorted = seeds_out.clone();
        sorted.sort_unstable();
        assert_eq!(seeds_out, sorted);
        assert_eq!(one.errors.len(), 1);
        assert_eq!(one.errors[0].seed, 13);
    }

    #[test]
    fn summary_on_hand_computed_outcomes() {
        let outcomes = vec![
            RunOutcome {
                seed: 1,
                samples: 100,
                symptoms: 0,
                buggy_ranks: vec![],
                verdict: Verdict::Clean,
                trace_digest: "0".repeat(16),
                wall_time_ms: 5,
            },
            RunOutcome {
                seed: 2,
                samples: 300,
                symptoms: 2,
                buggy_ranks: vec![1, 4],
                verdict: Verdict::Triggered,
                trace_digest: "1".repeat(16),
                wall_time_ms: 7,
            },
            RunOutcome {
                seed: 3,
                samples: 200,
                symptoms: 1,
                buggy_ranks: vec![5],
                verdict: Verdict::Triggered,
                trace_digest: "2".repeat(16),
                wall_time_ms: 9,
            },
        ];
        let s = summarize(&outcomes);
        assert_eq!(s.runs, 3);
        assert_eq!(s.triggered, 2);
        assert!((s.trigger_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.total_samples, 600);
        assert_eq!(s.total_symptoms, 3);
        assert_eq!((s.min_samples, s.max_samples), (100, 300));
        assert!((s.mean_samples - 200.0).abs() < 1e-12);
        assert_eq!((s.hits_top1, s.hits_top3, s.hits_top10), (1, 1, 2));
    }

    #[test]
    fn failure_statistics_come_from_the_error_list() {
        let seeds: Vec<u64> = (10..16).collect(); // includes the failing 13
        let result = sweep(&seeds, 1);
        let s = result.summary();
        assert_eq!(s.runs, 5);
        assert_eq!(s.failed, 1);
        assert_eq!((s.panicked, s.timed_out), (0, 0));
        assert_eq!(s.failed_attempts, 1);
        assert!((s.failure_rate - 1.0 / 6.0).abs() < 1e-12);
        // summarize() over outcomes alone reports clean-path zeros.
        assert_eq!(summarize(&result.outcomes).failed, 0);
        assert_eq!(summarize(&result.outcomes).failure_rate, 0.0);
    }

    #[test]
    fn failure_kind_slugs_round_trip() {
        for kind in [
            FailureKind::Error,
            FailureKind::Panic,
            FailureKind::TimedOut,
        ] {
            assert_eq!(FailureKind::parse(kind.as_str()), kind);
        }
        assert_eq!(FailureKind::parse(""), FailureKind::Error);
        assert_eq!(FailureKind::parse("gremlins"), FailureKind::Error);
    }

    #[test]
    fn empty_campaign_summary_is_all_zero() {
        let s = summarize(&[]);
        assert_eq!(s.runs, 0);
        assert_eq!(s.trigger_rate, 0.0);
        assert_eq!(s.mean_samples, 0.0);
        assert_eq!(s.min_samples, 0);
    }

    #[test]
    fn replay_matches_campaign_entry() {
        let seeds: Vec<u64> = (0..10).collect();
        let result = sweep(&seeds, 2);
        let flagged = result.triggered().next().expect("some run triggers");
        let replayed = supervise_once(
            flagged.seed,
            &SupervisorOptions::default(),
            Arc::new(fake_job),
        );
        assert!(replayed.outcome.expect("replay succeeds").matches(flagged));
    }

    #[test]
    fn wall_time_stays_out_of_json() {
        let outcome = fake_job(&RunContext::new(2, 1, None)).unwrap();
        let v = serde::Serialize::to_value(&outcome);
        let map = v.as_map().expect("outcome serializes as a map");
        assert!(map.iter().all(|(k, _)| k != "wall_time_ms"));
        assert!(map.iter().any(|(k, _)| k == "trace_digest"));
    }
}
