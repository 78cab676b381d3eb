//! Invariant-driven bug-bounty hunting: seeded scenario campaigns whose
//! output is a *test verdict*, not a figure.
//!
//! A hunt fans seeded scenarios over the supervised worker pool
//! ([`run_supervised_typed`]), mines every run, and checks each run's
//! [`Evidence`] against an explicit invariant registry
//! ([`INVARIANTS`]). Violations aggregate into a
//! [`HuntReport`]: per-invariant detection rates, the violating seeds,
//! and a copy-pasteable `hunt --replay --seed N` repro line per bug —
//! the shape of a VOPR-style fuzzing bug report.
//!
//! The registry checks two kinds of properties:
//!
//! * **application correctness** — [`InvariantId::TransientSymptomFree`]
//!   fails exactly when an injected transient bug manifests in a run, so
//!   its violation rate on a buggy variant *is* the bug's detection
//!   rate, and a fixed variant must never trip it;
//! * **pipeline self-consistency** — top-k ranking of known-buggy
//!   intervals, no corroborated negative outlier on fixed variants
//!   (the end-to-end false-positive check), agreement between the
//!   static analyzer and dynamic localization, and re-mine determinism.
//!   A healthy pipeline never trips these; any violation is a bug in
//!   Sentomist itself.
//!
//! Everything here is deterministic: records are sorted by seed, no
//! wall-clock times are serialized, and the rendered report is
//! byte-identical for every worker-thread count.

use crate::campaign::{RunError, RunOutcome, Verdict};
use crate::supervise::{run_supervised_typed, RunContext, RunFailure, SupervisorOptions};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt::Write as _;
use std::sync::Arc;

/// The invariants a hunt checks after mining each run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InvariantId {
    /// No event-handling interval exhibits an injected transient-bug
    /// symptom (ground-truth oracle). Violated exactly when the bug
    /// under test manifests — the hunt's actual bug detector.
    TransientSymptomFree,
    /// When ground-truth symptoms exist, the best-ranked one must sit
    /// within the top *k* of the suspicion ranking.
    KnownBuggyIntervalRanksTopK,
    /// A fixed (race-free) variant must produce neither ground-truth
    /// symptoms nor a negative-score outlier that corroborates a static
    /// warning — the end-to-end false-positive check.
    FixedVariantHasNoNegativeOutliers,
    /// Static analysis and dynamic evidence must agree: a triggered run
    /// must localize to a statically flagged site, and a fixed variant
    /// must lint clean.
    StaticlintDynamicAgreement,
    /// Re-mining the recorded traces must reproduce the live outcome
    /// (digest, verdict, ranking) bit for bit.
    MiningDeterminism,
    /// When causal-chain reconstruction ran: a chain emitted for a
    /// triggered run must cover the injected bug site, and a fixed
    /// variant must emit no chain at all.
    CausalChainContainsBugSite,
}

/// Every invariant, in registry (and report) order.
pub const INVARIANTS: [InvariantId; 6] = [
    InvariantId::TransientSymptomFree,
    InvariantId::KnownBuggyIntervalRanksTopK,
    InvariantId::FixedVariantHasNoNegativeOutliers,
    InvariantId::StaticlintDynamicAgreement,
    InvariantId::MiningDeterminism,
    InvariantId::CausalChainContainsBugSite,
];

impl InvariantId {
    /// Stable snake_case identifier (JSON encoding, report headings).
    pub fn slug(self) -> &'static str {
        match self {
            InvariantId::TransientSymptomFree => "transient_symptom_free",
            InvariantId::KnownBuggyIntervalRanksTopK => "known_buggy_interval_ranks_top_k",
            InvariantId::FixedVariantHasNoNegativeOutliers => {
                "fixed_variant_has_no_negative_outliers"
            }
            InvariantId::StaticlintDynamicAgreement => "staticlint_dynamic_agreement",
            InvariantId::MiningDeterminism => "mining_determinism",
            InvariantId::CausalChainContainsBugSite => "causal_chain_contains_bug_site",
        }
    }

    /// One-line statement of the property.
    pub fn description(self) -> &'static str {
        match self {
            InvariantId::TransientSymptomFree => {
                "no event-handling interval exhibits the injected transient-bug symptom"
            }
            InvariantId::KnownBuggyIntervalRanksTopK => {
                "the best-ranked ground-truth symptom sits within the ranking's top k"
            }
            InvariantId::FixedVariantHasNoNegativeOutliers => {
                "a fixed variant yields no symptoms and no corroborated negative outlier"
            }
            InvariantId::StaticlintDynamicAgreement => {
                "static warnings and dynamic localization corroborate each other"
            }
            InvariantId::MiningDeterminism => {
                "re-mining the recorded traces reproduces the live outcome bit for bit"
            }
            InvariantId::CausalChainContainsBugSite => {
                "the reconstructed causal chain covers the injected bug site \
                 (and fixed variants emit no chain)"
            }
        }
    }

    /// Parses a slug back into its id.
    pub fn parse(slug: &str) -> Option<InvariantId> {
        INVARIANTS.into_iter().find(|i| i.slug() == slug)
    }
}

impl Serialize for InvariantId {
    fn to_value(&self) -> Value {
        Value::Str(self.slug().to_string())
    }
}

impl Deserialize for InvariantId {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => {
                InvariantId::parse(s).ok_or_else(|| DeError::custom("unknown invariant slug"))
            }
            _ => Err(DeError::expected("string", "InvariantId")),
        }
    }
}

/// Tunable thresholds for the invariant checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantPolicy {
    /// `k` for [`InvariantId::KnownBuggyIntervalRanksTopK`].
    pub top_k: usize,
}

impl Default for InvariantPolicy {
    fn default() -> Self {
        InvariantPolicy { top_k: 3 }
    }
}

/// What one mined scenario run presents to the invariant registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// The run's mined campaign outcome (symptoms = ground-truth count).
    pub outcome: RunOutcome,
    /// Whether the scenario ran the fixed (race-free) program variant.
    pub fixed_variant: bool,
    /// Samples with a negative normalized suspicion score. Informational
    /// only: an OC-SVM can legitimately score *every* sample of a
    /// healthy run negative (no positive anchor survives normalization),
    /// so no invariant thresholds this count.
    pub negative_scores: usize,
    /// The ν the detector actually ran with (after any small-sample
    /// clamping) — the rarity yardstick for the top-k invariant.
    pub nu: f64,
    /// Static-analyzer warning count for the program(s) under test.
    pub static_warnings: usize,
    /// Did dynamic localization of the top suspect implicate at least
    /// one statically flagged site? On triggered runs the suspect is the
    /// best-ranked ground-truth symptom; on clean fixed runs it is the
    /// top-ranked negative outlier (the false-positive probe). `None`
    /// when localization did not run (nothing to localize).
    pub corroborated: Option<bool>,
    /// Did a second mining pass over the recorded traces reproduce the
    /// live outcome exactly?
    pub remine_matches: bool,
    /// Whether causal-chain reconstruction emitted a chain for the run's
    /// localized suspect. `None` when localization did not run (nothing
    /// to slice from).
    pub chain_emitted: Option<bool>,
    /// Whether the emitted chain covers the case's injected bug site
    /// (vacuously `false` when no chain was emitted).
    pub chain_contains_bug_site: bool,
    /// Human-readable description of the symptom when triggered (used in
    /// violation messages), e.g. "nested ADC interrupt".
    pub symptom_note: String,
}

impl Evidence {
    /// Whether the run's symptoms are rare enough for outlier mining to
    /// be answerable for them: an OC-SVM with parameter ν can only
    /// carve out about `ν · samples` outliers, so once symptoms exceed
    /// that capacity they are the *norm*, not deviations, and the top-k
    /// ranking guarantee is vacuous by the paper's own premise
    /// (transient bugs manifest in a small minority of intervals).
    pub fn symptoms_are_rare(&self) -> bool {
        self.outcome.symptoms > 0
            && (self.outcome.symptoms as f64) <= (self.nu * self.outcome.samples as f64).ceil()
    }
}

/// One invariant violation observed on one seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: InvariantId,
    /// The violating scenario seed.
    pub seed: u64,
    /// What exactly went wrong.
    pub message: String,
}

struct InvariantDef {
    id: InvariantId,
    applies: fn(&Evidence) -> bool,
    check: fn(&Evidence, &InvariantPolicy) -> Option<String>,
}

/// The invariant registry: which invariants apply to a run's evidence
/// and how each is checked. Order is the report order.
fn registry() -> [InvariantDef; 6] {
    [
        InvariantDef {
            id: InvariantId::TransientSymptomFree,
            applies: |_| true,
            check: |ev, _| {
                (ev.outcome.symptoms > 0).then(|| {
                    format!(
                        "{} of {} interval(s) exhibit the symptom ({})",
                        ev.outcome.symptoms, ev.outcome.samples, ev.symptom_note
                    )
                })
            },
        },
        InvariantDef {
            id: InvariantId::KnownBuggyIntervalRanksTopK,
            applies: Evidence::symptoms_are_rare,
            check: |ev, policy| match ev.outcome.buggy_ranks.first() {
                Some(&best) if best <= policy.top_k => None,
                Some(&best) => Some(format!(
                    "best symptom rank {best} is outside the top {}",
                    policy.top_k
                )),
                None => Some("symptom intervals missing from the ranking".to_string()),
            },
        },
        InvariantDef {
            id: InvariantId::FixedVariantHasNoNegativeOutliers,
            applies: |ev| ev.fixed_variant,
            check: |ev, _| {
                if ev.outcome.symptoms > 0 {
                    Some(format!(
                        "fixed variant produced {} ground-truth symptom(s)",
                        ev.outcome.symptoms
                    ))
                } else if ev.corroborated == Some(true) {
                    Some(format!(
                        "top-ranked negative outlier ({} of {} samples score negative) \
                         corroborates a static warning on the fixed variant",
                        ev.negative_scores, ev.outcome.samples
                    ))
                } else {
                    None
                }
            },
        },
        InvariantDef {
            id: InvariantId::StaticlintDynamicAgreement,
            applies: |_| true,
            check: |ev, _| {
                if ev.fixed_variant {
                    return (ev.static_warnings > 0).then(|| {
                        format!(
                            "static analyzer reports {} warning(s) on the fixed variant",
                            ev.static_warnings
                        )
                    });
                }
                if ev.outcome.verdict != Verdict::Triggered {
                    return None;
                }
                if ev.static_warnings == 0 {
                    return Some(
                        "run triggered the bug but the static analyzer sees nothing".to_string(),
                    );
                }
                match ev.corroborated {
                    Some(false) => Some(
                        "localization of the best-ranked symptom implicates no \
                         statically flagged site"
                            .to_string(),
                    ),
                    _ => None,
                }
            },
        },
        InvariantDef {
            id: InvariantId::MiningDeterminism,
            applies: |_| true,
            check: |ev, _| {
                (!ev.remine_matches)
                    .then(|| "re-mined outcome diverges from the live outcome".to_string())
            },
        },
        InvariantDef {
            id: InvariantId::CausalChainContainsBugSite,
            applies: |ev| ev.chain_emitted.is_some(),
            check: |ev, _| {
                if ev.fixed_variant {
                    return (ev.chain_emitted == Some(true)).then(|| {
                        "causal chain emitted on the fixed variant \
                         (warning-gated pruning failed)"
                            .to_string()
                    });
                }
                // A triggered run may legitimately lack a chain — the
                // concurrent writer of the stale value need not have
                // executed before the first symptom — but a chain that
                // *was* emitted for a triggered run must cover the bug.
                if ev.outcome.verdict != Verdict::Triggered {
                    return None;
                }
                (ev.chain_emitted == Some(true) && !ev.chain_contains_bug_site)
                    .then(|| "causal chain misses the injected bug site".to_string())
            },
        },
    ]
}

/// Runs the full registry against one run's evidence, returning which
/// invariants applied and every violation found.
pub fn check_invariants(
    evidence: &Evidence,
    policy: &InvariantPolicy,
) -> (Vec<InvariantId>, Vec<Violation>) {
    let mut checked = Vec::new();
    let mut violations = Vec::new();
    for def in registry() {
        if !(def.applies)(evidence) {
            continue;
        }
        checked.push(def.id);
        if let Some(message) = (def.check)(evidence, policy) {
            violations.push(Violation {
                invariant: def.id,
                seed: evidence.outcome.seed,
                message,
            });
        }
    }
    (checked, violations)
}

/// One completed hunt iteration: the mined outcome plus the registry's
/// verdicts on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// The scenario seed (`campaign_seed + iteration`).
    pub seed: u64,
    /// The mined campaign outcome.
    pub outcome: RunOutcome,
    /// Invariants that applied to this run.
    pub checked: Vec<InvariantId>,
    /// Violations found (empty on a healthy run).
    pub violations: Vec<Violation>,
}

/// Per-invariant aggregation over one hunt target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvariantStats {
    /// The invariant.
    pub invariant: InvariantId,
    /// Runs the invariant applied to.
    pub checked: usize,
    /// Runs that violated it.
    pub violations: usize,
    /// `violations / checked` (0 when never applicable).
    pub detection_rate: f64,
    /// Violating seeds, ascending.
    pub violating_seeds: Vec<u64>,
}

/// The aggregated result of hunting one target (one case × variant).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetReport {
    /// Target name, e.g. `oscilloscope`.
    pub target: String,
    /// Program variant, `buggy` or `fixed`.
    pub variant: String,
    /// Repro command template; `{seed}` is replaced per violation.
    pub repro_template: String,
    /// Iterations that produced an outcome.
    pub runs: usize,
    /// Runs whose mined verdict was `Triggered`.
    pub triggered: usize,
    /// Per-invariant statistics, registry order.
    pub invariants: Vec<InvariantStats>,
    /// Every iteration, ascending by seed.
    pub records: Vec<IterationRecord>,
    /// Seeds that failed to run (after retries), ascending by seed.
    pub errors: Vec<RunError>,
}

impl TargetReport {
    /// Aggregates the supervised pool's output for one target.
    pub fn from_records(
        target: &str,
        variant: &str,
        repro_template: &str,
        records: Vec<IterationRecord>,
        errors: Vec<RunError>,
    ) -> TargetReport {
        let mut invariants: Vec<InvariantStats> = INVARIANTS
            .into_iter()
            .map(|invariant| InvariantStats {
                invariant,
                checked: 0,
                violations: 0,
                detection_rate: 0.0,
                violating_seeds: Vec::new(),
            })
            .collect();
        let mut triggered = 0;
        for record in &records {
            if record.outcome.verdict == Verdict::Triggered {
                triggered += 1;
            }
            for stat in invariants.iter_mut() {
                if record.checked.contains(&stat.invariant) {
                    stat.checked += 1;
                }
                if record
                    .violations
                    .iter()
                    .any(|v| v.invariant == stat.invariant)
                {
                    stat.violations += 1;
                    stat.violating_seeds.push(record.seed);
                }
            }
        }
        for stat in invariants.iter_mut() {
            if stat.checked > 0 {
                stat.detection_rate = stat.violations as f64 / stat.checked as f64;
            }
        }
        TargetReport {
            target: target.to_string(),
            variant: variant.to_string(),
            repro_template: repro_template.to_string(),
            runs: records.len(),
            triggered,
            invariants,
            records,
            errors,
        }
    }

    /// Repro command for one seed.
    pub fn repro(&self, seed: u64) -> String {
        self.repro_template.replace("{seed}", &seed.to_string())
    }

    /// All violations of this target, registry order then seed order.
    pub fn violations(&self) -> Vec<&Violation> {
        let mut all: Vec<&Violation> = self
            .records
            .iter()
            .flat_map(|r| r.violations.iter())
            .collect();
        all.sort_by_key(|v| (v.invariant, v.seed));
        all
    }
}

/// The hunt's aggregated artifact: rendered to `BUG_REPORT.md` and
/// serialized to `bug_report.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HuntReport {
    /// The campaign seed the scenario seeds were derived from.
    pub campaign_seed: u64,
    /// Iterations per target.
    pub iterations: u64,
    /// `k` used by the top-k ranking invariant.
    pub top_k: usize,
    /// One report per hunted target.
    pub targets: Vec<TargetReport>,
}

impl HuntReport {
    /// Total invariant violations across all targets.
    pub fn violation_count(&self) -> usize {
        self.targets
            .iter()
            .map(|t| t.records.iter().map(|r| r.violations.len()).sum::<usize>())
            .sum()
    }

    /// Total failed runs across all targets.
    pub fn error_count(&self) -> usize {
        self.targets.iter().map(|t| t.errors.len()).sum()
    }

    /// Renders the kimberlite-style `BUG_REPORT.md` document:
    /// an executive summary, then one section per target with
    /// per-invariant detection rates, violating seeds and a repro line.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Bug Report — invariant-driven hunt\n");
        let _ = writeln!(
            out,
            "Campaign seed `{:#x}` ({}), {} iteration(s) per target, \
             top-k = {}.\n",
            self.campaign_seed, self.campaign_seed, self.iterations, self.top_k
        );
        let _ = writeln!(out, "## Executive summary\n");
        let _ = writeln!(
            out,
            "| target | variant | runs | triggered | violations | failed runs |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for t in &self.targets {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                t.target,
                t.variant,
                t.runs,
                t.triggered,
                t.records.iter().map(|r| r.violations.len()).sum::<usize>(),
                t.errors.len()
            );
        }
        let _ = writeln!(out);
        for t in &self.targets {
            let _ = writeln!(out, "## {} ({})\n", t.target, t.variant);
            for stat in &t.invariants {
                if stat.checked == 0 {
                    continue;
                }
                let _ = writeln!(out, "### `{}`\n", stat.invariant.slug());
                let _ = writeln!(out, "{}.\n", stat.invariant.description());
                let _ = writeln!(
                    out,
                    "- Detection rate: {}/{} checked run(s) ({:.1}%)",
                    stat.violations,
                    stat.checked,
                    100.0 * stat.detection_rate
                );
                if stat.violations == 0 {
                    let _ = writeln!(out, "- No violations.\n");
                    continue;
                }
                let seeds: Vec<String> = stat.violating_seeds.iter().map(u64::to_string).collect();
                let _ = writeln!(out, "- Violating seeds: {}", seeds.join(", "));
                let first = stat.violating_seeds[0];
                if let Some(v) = t
                    .records
                    .iter()
                    .find(|r| r.seed == first)
                    .and_then(|r| r.violations.iter().find(|v| v.invariant == stat.invariant))
                {
                    let _ = writeln!(out, "- Example (seed {first}): {}", v.message);
                }
                let _ = writeln!(out, "- Reproduction:\n");
                let _ = writeln!(out, "      sentomist {}\n", t.repro(first));
            }
            if !t.errors.is_empty() {
                let _ = writeln!(out, "### failed runs\n");
                for e in &t.errors {
                    let _ = writeln!(
                        out,
                        "- seed {} [{}, {} attempt(s)]: {}",
                        e.seed,
                        e.kind.as_str(),
                        e.attempts,
                        e.message
                    );
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

/// What hunting one target through the supervised pool produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetOutcome {
    /// One record per completed iteration, ascending by seed.
    pub records: Vec<IterationRecord>,
    /// Seeds that ultimately failed, ascending by seed.
    pub errors: Vec<RunError>,
}

/// Fans the scenario seeds of one target over the supervised worker pool
/// (panic isolation, watchdog, deterministic retry — see
/// [`supervise`](crate::supervise)) and collects the iteration records,
/// sorted by seed so the result is identical for every thread count.
pub fn run_hunt_target<F>(seeds: &[u64], options: &SupervisorOptions, job: Arc<F>) -> TargetOutcome
where
    F: Fn(&RunContext) -> Result<IterationRecord, RunFailure> + Send + Sync + 'static,
{
    let result = run_supervised_typed(seeds, options, job, |_| {});
    TargetOutcome {
        records: result.outcomes.into_iter().map(|(_, r)| r).collect(),
        errors: result.errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::FailureKind;

    fn outcome(seed: u64, symptoms: usize, ranks: Vec<usize>) -> RunOutcome {
        RunOutcome {
            seed,
            samples: 40,
            symptoms,
            buggy_ranks: ranks,
            verdict: if symptoms > 0 {
                Verdict::Triggered
            } else {
                Verdict::Clean
            },
            trace_digest: format!("{seed:016x}"),
            wall_time_ms: 0,
        }
    }

    fn healthy_buggy_evidence(seed: u64) -> Evidence {
        Evidence {
            outcome: outcome(seed, 2, vec![1, 2]),
            fixed_variant: false,
            negative_scores: 2,
            nu: 0.05,
            static_warnings: 1,
            corroborated: Some(true),
            remine_matches: true,
            chain_emitted: Some(true),
            chain_contains_bug_site: true,
            symptom_note: "nested ADC interrupt".into(),
        }
    }

    #[test]
    fn slugs_round_trip() {
        for id in INVARIANTS {
            assert_eq!(InvariantId::parse(id.slug()), Some(id));
            let v = Serialize::to_value(&id);
            assert_eq!(InvariantId::from_value(&v).unwrap(), id);
        }
        assert_eq!(InvariantId::parse("nope"), None);
    }

    #[test]
    fn triggered_run_trips_only_the_symptom_invariant() {
        let (checked, violations) =
            check_invariants(&healthy_buggy_evidence(7), &InvariantPolicy::default());
        assert!(checked.contains(&InvariantId::TransientSymptomFree));
        assert!(checked.contains(&InvariantId::KnownBuggyIntervalRanksTopK));
        assert!(!checked.contains(&InvariantId::FixedVariantHasNoNegativeOutliers));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, InvariantId::TransientSymptomFree);
        assert_eq!(violations[0].seed, 7);
    }

    #[test]
    fn clean_fixed_run_is_violation_free() {
        let ev = Evidence {
            outcome: outcome(3, 0, vec![]),
            fixed_variant: true,
            negative_scores: 2,
            nu: 0.05,
            static_warnings: 0,
            corroborated: None,
            remine_matches: true,
            chain_emitted: None,
            chain_contains_bug_site: false,
            symptom_note: String::new(),
        };
        let (checked, violations) = check_invariants(&ev, &InvariantPolicy::default());
        assert!(violations.is_empty(), "{violations:?}");
        assert!(checked.contains(&InvariantId::FixedVariantHasNoNegativeOutliers));
        assert!(!checked.contains(&InvariantId::KnownBuggyIntervalRanksTopK));
        assert!(!checked.contains(&InvariantId::CausalChainContainsBugSite));
    }

    #[test]
    fn pipeline_self_check_invariants_fire() {
        let mut ev = healthy_buggy_evidence(9);
        ev.outcome.buggy_ranks = vec![17];
        ev.corroborated = Some(false);
        ev.remine_matches = false;
        let (_, violations) = check_invariants(&ev, &InvariantPolicy::default());
        let kinds: Vec<InvariantId> = violations.iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&InvariantId::KnownBuggyIntervalRanksTopK));
        assert!(kinds.contains(&InvariantId::StaticlintDynamicAgreement));
        assert!(kinds.contains(&InvariantId::MiningDeterminism));
        // A fixed variant whose top negative outlier corroborates a
        // static warning is an end-to-end false positive.
        let ev = Evidence {
            outcome: outcome(4, 0, vec![]),
            fixed_variant: true,
            negative_scores: 3,
            nu: 0.05,
            static_warnings: 0,
            corroborated: Some(true),
            remine_matches: true,
            chain_emitted: None,
            chain_contains_bug_site: false,
            symptom_note: String::new(),
        };
        let (_, violations) = check_invariants(&ev, &InvariantPolicy::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(
            violations[0].invariant,
            InvariantId::FixedVariantHasNoNegativeOutliers
        );
        // But an uncorroborated (even all-negative) clean fixed run is
        // healthy: score signs alone carry no alarm.
        let ev = Evidence {
            negative_scores: 40,
            corroborated: Some(false),
            ..ev
        };
        let (_, violations) = check_invariants(&ev, &InvariantPolicy::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn causal_chain_invariant_gates_on_emission() {
        // Healthy triggered run with a bug-site-covering chain: clean.
        let ev = healthy_buggy_evidence(11);
        let (checked, violations) = check_invariants(&ev, &InvariantPolicy::default());
        assert!(checked.contains(&InvariantId::CausalChainContainsBugSite));
        assert!(!violations
            .iter()
            .any(|v| v.invariant == InvariantId::CausalChainContainsBugSite));
        // Triggered but chainless is *not* a violation: the concurrent
        // writer may never have executed before the first symptom, so
        // there is dynamically nothing to anchor a hop with.
        let ev = Evidence {
            chain_emitted: Some(false),
            chain_contains_bug_site: false,
            ..healthy_buggy_evidence(12)
        };
        let (checked, violations) = check_invariants(&ev, &InvariantPolicy::default());
        assert!(checked.contains(&InvariantId::CausalChainContainsBugSite));
        assert!(!violations
            .iter()
            .any(|v| v.invariant == InvariantId::CausalChainContainsBugSite));
        // Chain emitted but missing the bug site: violation.
        let ev = Evidence {
            chain_contains_bug_site: false,
            ..healthy_buggy_evidence(13)
        };
        let (_, violations) = check_invariants(&ev, &InvariantPolicy::default());
        assert!(violations
            .iter()
            .any(|v| v.invariant == InvariantId::CausalChainContainsBugSite));
        // A fixed variant that emits a chain is a pruning failure.
        let ev = Evidence {
            outcome: outcome(14, 0, vec![]),
            fixed_variant: true,
            negative_scores: 0,
            nu: 0.05,
            static_warnings: 0,
            corroborated: Some(false),
            remine_matches: true,
            chain_emitted: Some(true),
            chain_contains_bug_site: false,
            symptom_note: String::new(),
        };
        let (_, violations) = check_invariants(&ev, &InvariantPolicy::default());
        assert!(violations
            .iter()
            .any(|v| v.invariant == InvariantId::CausalChainContainsBugSite));
        // And one that emits none is clean on this invariant.
        let ev = Evidence {
            chain_emitted: Some(false),
            ..ev
        };
        let (_, violations) = check_invariants(&ev, &InvariantPolicy::default());
        assert!(!violations
            .iter()
            .any(|v| v.invariant == InvariantId::CausalChainContainsBugSite));
    }

    #[test]
    fn report_aggregates_rates_and_renders_repro_lines() {
        let records = vec![
            IterationRecord {
                seed: 100,
                outcome: outcome(100, 0, vec![]),
                checked: vec![
                    InvariantId::TransientSymptomFree,
                    InvariantId::MiningDeterminism,
                ],
                violations: vec![],
            },
            IterationRecord {
                seed: 101,
                outcome: outcome(101, 1, vec![1]),
                checked: vec![
                    InvariantId::TransientSymptomFree,
                    InvariantId::KnownBuggyIntervalRanksTopK,
                    InvariantId::MiningDeterminism,
                ],
                violations: vec![Violation {
                    invariant: InvariantId::TransientSymptomFree,
                    seed: 101,
                    message: "1 of 40 interval(s) exhibit the symptom (test)".into(),
                }],
            },
        ];
        let errors = vec![RunError {
            seed: 102,
            message: "boom".into(),
            kind: FailureKind::Panic,
            attempts: 2,
        }];
        let target = TargetReport::from_records(
            "oscilloscope",
            "buggy",
            "hunt --case 1 --replay --seed {seed}",
            records,
            errors,
        );
        assert_eq!(target.runs, 2);
        assert_eq!(target.triggered, 1);
        let symptom = &target.invariants[0];
        assert_eq!(symptom.invariant, InvariantId::TransientSymptomFree);
        assert_eq!((symptom.checked, symptom.violations), (2, 1));
        assert!((symptom.detection_rate - 0.5).abs() < 1e-12);
        assert_eq!(symptom.violating_seeds, vec![101]);
        assert_eq!(target.repro(101), "hunt --case 1 --replay --seed 101");

        let report = HuntReport {
            campaign_seed: 0xBEEF,
            iterations: 2,
            top_k: 3,
            targets: vec![target],
        };
        assert_eq!(report.violation_count(), 1);
        assert_eq!(report.error_count(), 1);
        let md = report.to_markdown();
        assert!(md.contains("# Bug Report"), "{md}");
        assert!(md.contains("transient_symptom_free"), "{md}");
        assert!(md.contains("50.0%"), "{md}");
        assert!(
            md.contains("sentomist hunt --case 1 --replay --seed 101"),
            "{md}"
        );
        assert!(md.contains("failed runs"), "{md}");
        // And the artifact round-trips through JSON.
        let json = serde_json::to_string(&report).unwrap();
        let back: HuntReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
