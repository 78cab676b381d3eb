//! Shared helpers for the evaluation-table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section (Figure 5(a)–(c) and the §VI-E detector
//! discussion); this library renders the common report format and
//! builds the seed-sweep job the binaries and benches run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sentomist_apps::{CaseResult, JobError, Mode};
use sentomist_core::campaign::{CampaignResult, RunOutcome, Verdict};
use sentomist_core::supervise::{RunContext, RunFailure};

/// `mode`'s campaign job with the recorded traces dropped — what the
/// evaluation binaries and benches sweep, since none of them persists
/// its runs.
///
/// # Errors
///
/// Program assembly failures while building the job.
pub fn outcome_job(
    mode: Mode,
) -> Result<impl Fn(&RunContext) -> Result<RunOutcome, RunFailure> + Send + Sync, JobError> {
    let traced = mode.supervised_traced_job()?;
    Ok(move |ctx: &RunContext| traced(ctx).map(|(outcome, _)| outcome))
}

/// Renders one case-study outcome: the Figure-5-style table, the
/// ground-truth symptom ranks, and the paper-vs-measured summary line.
pub fn render_case(
    title: &str,
    paper_samples: usize,
    paper_ranks: &str,
    result: &CaseResult,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "=== {title} ===");
    let _ = writeln!(out);
    let _ = write!(out, "{}", result.report.table(8, 2));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "samples:        {} measured vs {} in the paper",
        result.sample_count, paper_samples
    );
    let _ = writeln!(
        out,
        "true symptoms:  {} interval(s), ranked {:?}",
        result.buggy.len(),
        result.buggy_ranks
    );
    let _ = writeln!(out, "paper ranks:    {paper_ranks}");
    let verdict = if result.buggy.is_empty() {
        "NO SYMPTOM TRIGGERED (re-run with another seed)"
    } else if result.all_buggy_in_top(result.buggy.len().max(4)) {
        "REPRODUCED: symptoms at the very top of the ranking"
    } else if result
        .worst_buggy_rank()
        .is_some_and(|r| r <= result.sample_count / 20 + 5)
    {
        "REPRODUCED (shape): symptoms within the top ~5%"
    } else {
        "NOT REPRODUCED: symptoms buried in the ranking"
    };
    let _ = writeln!(out, "verdict:        {verdict}");
    out
}

/// Renders a seed-sweep campaign: one row per run plus the
/// detection-rate summary. `replay_hint` is printed verbatim as the
/// reproduce-by-seed instruction for flagged rows.
pub fn render_campaign(title: &str, result: &CampaignResult, replay_hint: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let s = result.summary();
    let _ = writeln!(out, "=== {title} ===");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>9} {:>10} {:>10} {:>17}",
        "seed", "samples", "symptoms", "verdict", "best rank", "trace digest"
    );
    for o in &result.outcomes {
        let best = o
            .buggy_ranks
            .first()
            .map_or_else(|| "-".to_string(), ToString::to_string);
        let verdict = match o.verdict {
            Verdict::Triggered => "triggered",
            Verdict::Clean => "clean",
        };
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>9} {:>10} {:>10} {:>17}",
            o.seed, o.samples, o.symptoms, verdict, best, o.trace_digest
        );
    }
    for e in &result.errors {
        let _ = writeln!(out, "{:>6} FAILED: {}", e.seed, e.message);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "trigger rate:   {}/{} runs ({:.0}%)",
        s.triggered,
        s.runs,
        100.0 * s.trigger_rate
    );
    let _ = writeln!(
        out,
        "detection:      best symptom in top-1 for {}, top-3 for {}, top-10 for {} \
         of the {} triggered runs",
        s.hits_top1, s.hits_top3, s.hits_top10, s.triggered
    );
    let _ = writeln!(
        out,
        "intervals:      {} total ({}..{} per run, mean {:.1})",
        s.total_samples, s.min_samples, s.max_samples, s.mean_samples
    );
    let _ = writeln!(out, "replay a row:   {replay_hint}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentomist_apps::Case2Config;

    #[test]
    fn render_includes_table_and_verdict() {
        let result = Case2Config::default().study().unwrap().run().unwrap().0;
        let s = render_case("Case study II", 195, "1, 2, 3", &result);
        assert!(s.contains("Instance Index"));
        assert!(s.contains("REPRODUCED"));
        assert!(s.contains("vs 195 in the paper"));
    }
}
