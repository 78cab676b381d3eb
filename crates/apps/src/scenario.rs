//! Seeded scenario generation for the hunt subsystem.
//!
//! A scenario is one concrete mutation of a case study: workload timing,
//! interrupt-schedule knobs, per-hop link loss/latency, app parameters
//! and the detector's ν, all drawn from a [`splitmix64`] stream keyed by
//! the scenario seed — so [`scenario`] is a *pure function* of
//! `(case, variant, seed)` and every run is replayable from its seed
//! alone. The buggy and fixed variants of the same seed see the
//! identical workload (draws are salted by case only); the variant
//! merely selects which program runs.
//!
//! [`hunt_iteration`] is the full per-seed job the hunt campaign fans
//! out: emulate the scenario, mine it, re-mine it (from a trace store
//! when one is given), assemble [`Evidence`] and check the [invariant
//! registry](sentomist_core::hunt). Each scenario runs as a
//! [`Study`] built from its case's nodes, so emulation and
//! harvesting are the case studies' own. Granular pieces
//! ([`emulate_scenario`], [`mine_scenario`]) are public for callers that
//! examine or time the steps apart.

use crate::experiments::{
    chain_digest, ctp_tree, forwarder_chain, oscilloscope_alone, CaseResult, DetectorKind, Pool,
    Study,
};
use crate::jobs::fnv64;
use crate::{ctp, forwarder, oscilloscope};
use netsim::LinkConfig;
use sentomist_core::hunt::{check_invariants, Evidence, InvariantPolicy, IterationRecord};
use sentomist_core::supervise::{splitmix64, RunFailure};
use sentomist_core::{
    causal_chain, corroborate_with_chain, localize_set, CausalChain, SampleIndex,
};
use sentomist_trace::Trace;
use sentomist_tracestore::TraceStore;
use staticlint::lint;
use std::sync::Arc;
use tinyvm::devices::{AdcConfig, NodeConfig};
use tinyvm::Program;

/// z-score threshold for localizing a flagged interval (the CLI's
/// default): modest on purpose — corroboration then filters the hits
/// against the static warnings.
const LOCALIZE_MIN_Z: f64 = 1.0;

/// A counted splitmix64 draw stream: every value is a pure function of
/// `(key, draw ordinal)`, so inserting a draw never shifts later ones
/// read through a different helper.
struct Draws {
    key: u64,
    counter: u64,
}

impl Draws {
    fn new(seed: u64, salt: u64) -> Draws {
        Draws {
            key: splitmix64(seed ^ salt),
            counter: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.counter += 1;
        splitmix64(
            self.key
                .wrapping_add(self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// Uniform draw from the inclusive range `[lo, hi]`.
    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform draw from `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform pick from a non-empty slice.
    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next() % options.len() as u64) as usize]
    }
}

/// Which case study a scenario mutates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuntCase {
    /// Case I: the oscilloscope data-pollution race (single node).
    Oscilloscope,
    /// Case II: the forwarder's busy-flag active drop (3-node chain).
    Forwarder,
    /// Case III: the CTP unhandled send failure (9-node tree).
    Ctp,
}

impl HuntCase {
    /// Every case, in case-number order.
    pub const ALL: [HuntCase; 3] = [HuntCase::Oscilloscope, HuntCase::Forwarder, HuntCase::Ctp];

    /// The target name used in stores and reports.
    pub fn name(self) -> &'static str {
        match self {
            HuntCase::Oscilloscope => "oscilloscope",
            HuntCase::Forwarder => "forwarder",
            HuntCase::Ctp => "ctp",
        }
    }

    /// The paper's case number (1–3).
    pub fn number(self) -> u8 {
        match self {
            HuntCase::Oscilloscope => 1,
            HuntCase::Forwarder => 2,
            HuntCase::Ctp => 3,
        }
    }

    /// Inverse of [`HuntCase::number`].
    pub fn from_number(n: u64) -> Option<HuntCase> {
        HuntCase::ALL
            .into_iter()
            .find(|c| u64::from(c.number()) == n)
    }

    /// Per-case draw-stream salt: distinct so the same seed yields
    /// independent mutations in each case.
    fn salt(self) -> u64 {
        match self {
            HuntCase::Oscilloscope => 0x5EA7_0001_0000_0001,
            HuntCase::Forwarder => 0x5EA7_0002_0000_0002,
            HuntCase::Ctp => 0x5EA7_0003_0000_0003,
        }
    }

    /// How a triggered symptom of this case reads in violation messages.
    pub fn symptom_note(self) -> &'static str {
        match self {
            HuntCase::Oscilloscope => "nested ADC interrupt",
            HuntCase::Forwarder => "active packet drop at fwd_drop",
            HuntCase::Ctp => "CTP send failure at ctp_fail",
        }
    }

    /// The routine carrying the injected bug — the site a reconstructed
    /// causal chain must cover on a triggered run.
    pub fn bug_site_routine(self) -> &'static str {
        match self {
            HuntCase::Oscilloscope => "on_read_done",
            HuntCase::Forwarder => "fwd_drop",
            HuntCase::Ctp => "ctp_fail",
        }
    }
}

/// Which program variant a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's injected transient bug.
    Buggy,
    /// The race-free repair.
    Fixed,
}

impl Variant {
    /// The variant name used in stores and reports.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Buggy => "buggy",
            Variant::Fixed => "fixed",
        }
    }

    /// Whether this is the fixed variant.
    pub fn is_fixed(self) -> bool {
        self == Variant::Fixed
    }
}

/// The mutated per-case knobs of one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioParams {
    /// Case I knobs: app timing plus the ADC interrupt schedule.
    Oscilloscope {
        /// Application workload parameters.
        params: oscilloscope::OscilloscopeParams,
        /// ADC conversion latency/jitter (the interrupt-schedule knob).
        adc: AdcConfig,
    },
    /// Case II knobs: source workload plus per-hop link conditions.
    Forwarder {
        /// Source workload parameters.
        params: forwarder::ForwarderParams,
        /// Link sink—relay.
        downlink: LinkConfig,
        /// Link relay—source.
        uplink: LinkConfig,
    },
    /// Case III knobs: protocol timing.
    Ctp {
        /// Protocol timing parameters.
        params: ctp::CtpParams,
    },
}

/// One fully instantiated hunt scenario — everything a run needs, all of
/// it derived from `(case, variant, seed)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HuntScenario {
    /// The case study under mutation.
    pub case: HuntCase,
    /// Which program variant runs.
    pub variant: Variant,
    /// The scenario seed (`campaign_seed + iteration`).
    pub seed: u64,
    /// Derived RNG seed for the emulated node(s)/simulation.
    pub node_seed: u64,
    /// Emulated duration in simulated seconds.
    pub run_seconds: u64,
    /// Detector ν.
    pub nu: f64,
    /// The mutated knobs.
    pub params: ScenarioParams,
}

/// Generates the scenario for `(case, variant, seed)` — a total, pure
/// function: same inputs, same scenario, on every call, thread and
/// machine. Draws are salted by case only, so the buggy and fixed
/// variants of one seed exercise the identical workload.
pub fn scenario(case: HuntCase, variant: Variant, seed: u64) -> HuntScenario {
    let mut d = Draws::new(seed, case.salt());
    let (params, run_seconds, nu) = match case {
        HuntCase::Oscilloscope => {
            let params = oscilloscope::OscilloscopeParams {
                sample_period_ms: d.in_range(10, 60) as u32,
                hk_period_ms: d.in_range(25, 50) as u32,
                hk_short_iters: d.in_range(400, 1200) as u16,
                hk_long_iters: d.in_range(6_000, 12_000) as u16,
                hk_very_long_iters: d.in_range(15_000, 30_000) as u16,
            };
            let adc = AdcConfig::with_timing(d.in_range(100, 400), d.in_range(0, 256));
            (
                ScenarioParams::Oscilloscope { params, adc },
                d.in_range(2, 4),
                d.pick(&[0.03, 0.05, 0.08]),
            )
        }
        HuntCase::Forwarder => {
            let params = forwarder::ForwarderParams {
                gap_base_ticks: d.in_range(150, 350) as u16,
                gap_jitter_mask: d.pick(&[127, 255, 511]),
                burst_mask: d.pick(&[15, 31, 63]),
                quick_gap_ticks: d.in_range(16, 32) as u16,
            };
            let link = |d: &mut Draws| LinkConfig {
                latency_cycles: d.in_range(64, 2_000),
                loss_prob: d.unit() * 0.10,
            };
            let downlink = link(&mut d);
            let uplink = link(&mut d);
            (
                ScenarioParams::Forwarder {
                    params,
                    downlink,
                    uplink,
                },
                d.in_range(6, 10),
                d.pick(&[0.03, 0.05, 0.08]),
            )
        }
        HuntCase::Ctp => {
            let params = ctp::CtpParams {
                hb_period_ticks: d.in_range(1_800, 2_199) as u16,
                report_base_ticks: d.in_range(2_100, 2_599) as u16,
                hb_pad_words: d.in_range(16, 32) as u16,
            };
            (
                ScenarioParams::Ctp { params },
                d.in_range(6, 9),
                d.pick(&[0.08, 0.10, 0.12]),
            )
        }
    };
    HuntScenario {
        case,
        variant,
        seed,
        node_seed: d.next(),
        run_seconds,
        nu,
        params,
    }
}

/// The program under test of a scenario — the one that carries (or
/// fixes) the injected bug and that lint/localization reason about:
/// the oscilloscope app, the forwarder *relay*, or the CTP node program.
///
/// # Errors
///
/// Assembly errors, rendered as text.
pub fn scenario_program(s: &HuntScenario) -> Result<Arc<Program>, String> {
    let program = match (&s.params, s.variant) {
        (ScenarioParams::Oscilloscope { params, .. }, Variant::Buggy) => {
            oscilloscope::buggy(params)
        }
        (ScenarioParams::Oscilloscope { params, .. }, Variant::Fixed) => {
            oscilloscope::fixed(params)
        }
        (ScenarioParams::Forwarder { .. }, Variant::Buggy) => forwarder::relay_program_buggy(),
        (ScenarioParams::Forwarder { .. }, Variant::Fixed) => forwarder::relay_program_fixed(),
        (ScenarioParams::Ctp { params }, Variant::Buggy) => ctp::buggy(params),
        (ScenarioParams::Ctp { params }, Variant::Fixed) => ctp::fixed(params),
    };
    program.map_err(|e| format!("assembling {} program: {e}", s.case.name()))
}

/// The scenario's [`Study`], running `program` (the scenario's
/// [`scenario_program`]) as the program under test.
fn scenario_study(s: &HuntScenario, program: Arc<Program>) -> Result<Study, String> {
    let name = s.case.name();
    let detector = DetectorKind::OcSvm { nu: s.nu };
    let study = match &s.params {
        ScenarioParams::Oscilloscope { adc, .. } => {
            let config = NodeConfig {
                seed: s.node_seed,
                adc: *adc,
                ..NodeConfig::default()
            };
            Ok(oscilloscope_alone(
                name,
                vec![(program, config)],
                s.run_seconds,
                Pool::Node(0),
                detector,
            ))
        }
        ScenarioParams::Forwarder {
            params,
            downlink,
            uplink,
        } => forwarder_chain(
            name,
            program,
            params,
            [*downlink, *uplink],
            s.node_seed,
            s.run_seconds,
            detector,
        ),
        ScenarioParams::Ctp { .. } => ctp_tree(name, program, s.node_seed, s.run_seconds, detector),
    };
    study.map_err(|e| format!("{name} scenario: {e}"))
}

/// Emulates one scenario, returning the recorded traces in node-id
/// order (case I records a single node).
///
/// # Errors
///
/// Assembly and emulation faults, rendered as text.
pub fn emulate_scenario(s: &HuntScenario) -> Result<Vec<Trace>, String> {
    let emulation = scenario_study(s, scenario_program(s)?)?
        .emulate(None)
        .map_err(|failure| format!("{} scenario: {}", s.case.name(), failure.message()))?;
    Ok(emulation.traces)
}

/// One mined scenario run: the case result plus the extra evidence the
/// invariant registry consumes.
#[derive(Debug, Clone)]
pub struct MinedScenario {
    /// Ranking, oracle hits and trace digest.
    pub result: CaseResult,
    /// Samples with a negative normalized score.
    pub negative_scores: usize,
    /// The ν the detector actually ran with: the scenario's draw,
    /// clamped up on small sample sets (OC-SVM requires `ν·l ≥ 1`).
    pub effective_nu: f64,
    /// Static-analyzer warning count on the program under test.
    pub static_warnings: usize,
    /// Whether localizing the top suspect implicated a statically
    /// flagged site: the best-ranked ground-truth symptom on triggered
    /// runs, the top-ranked negative outlier on clean fixed runs (the
    /// false-positive probe). `None` when there was nothing to localize.
    pub corroborated: Option<bool>,
    /// The causal chain reconstructed for the localized suspect's
    /// interval, when one exists (fixed variants lint clean, so their
    /// chains are pruned away by construction).
    pub chain: Option<CausalChain>,
    /// Whether the chain covers the case's injected bug routine.
    pub chain_contains_bug_site: bool,
}

/// Whether a chain's evidence touches `routine`: a hop endpoint inside
/// it, or an executed-slice pc enclosed by it.
fn chain_covers_routine(chain: &CausalChain, program: &Program, routine: &str) -> bool {
    chain.touches_routine(routine)
        || chain
            .sliced_executed
            .iter()
            .any(|&pc| program.enclosing_label(pc) == Some(routine))
}

/// Harvests, oracles and ranks one scenario's traces — deterministic for
/// given `(scenario, traces)`, and shared by the live path and
/// store-replayed re-mining (which is exactly what the
/// `mining_determinism` invariant exploits).
///
/// # Errors
///
/// Wrong trace count, extraction and pipeline errors, as text.
pub fn mine_scenario(s: &HuntScenario, traces: &[Trace]) -> Result<MinedScenario, String> {
    let program = scenario_program(s)?;
    let study = scenario_study(s, program.clone())?;
    let (set, buggy) = study
        .harvest(traces)
        .map_err(|e| format!("{} scenario: {e}", s.case.name()))?;
    // The repaired variants make the oracle events harmless by
    // construction (no pollution, failure handled), so a fixed run has
    // no ground-truth symptom intervals — mirroring case II, whose fixed
    // relay has no drop branch to hit at all.
    let buggy = if s.variant.is_fixed() {
        Vec::new()
    } else {
        buggy
    };
    let trace_digest = chain_digest(traces.iter().map(Trace::digest));
    let sample_count = set.len();
    // OC-SVM requires ν·l ≥ 1; short runs clamp ν up deterministically.
    let effective_nu = s.nu.max(2.0 / sample_count.max(2) as f64).min(1.0);
    let report = DetectorKind::OcSvm { nu: effective_nu }
        .pipeline()
        .rank_set(set.clone())
        .map_err(|e| format!("ranking {} samples: {e}", sample_count))?;
    let negative_scores = report.ranking.iter().filter(|r| r.score < 0.0).count();
    let lint_report = lint(&program);
    let result = CaseResult::new(report, sample_count, buggy, trace_digest);
    // Corroboration: localize the top suspect and join its implicated
    // instructions against the static warnings. On triggered runs the
    // suspect is the best-ranked ground-truth symptom; on clean fixed
    // runs it is the top-ranked negative outlier, probing the pipeline
    // for an end-to-end false positive.
    let flagged_index = match result.buggy_ranks.first() {
        Some(&best_rank) => Some(result.report.ranking[best_rank - 1].index),
        None if s.variant.is_fixed() => result
            .report
            .ranking
            .first()
            .filter(|r| r.score < 0.0)
            .map(|r| r.index),
        None => None,
    };
    let (corroborated, chain) = match flagged_index {
        None => (None, None),
        Some(flagged_index) => {
            let flagged_row = set
                .meta
                .iter()
                .position(|m| m.index == flagged_index)
                .ok_or("ranked sample missing from its own set")?;
            let hits = localize_set(&set, flagged_row, &program, LOCALIZE_MIN_Z);
            // Causal reconstruction: slice backward from the deviating
            // pcs and intersect with the flagged interval's execution,
            // on the trace of the node that produced the sample.
            let node = match (&study.pool, flagged_index) {
                (Pool::Node(node), _) => *node,
                (_, SampleIndex::NodeSeq { node, .. }) => node,
                _ => 0,
            };
            let trace = traces
                .get(usize::from(node))
                .ok_or("flagged sample names a node without a trace")?;
            let interval = set.meta[flagged_row].interval;
            let seeds: Vec<u16> = hits.iter().map(|h| h.pc).collect();
            let chain = causal_chain(&program, trace, &interval, &seeds, &lint_report)
                .map_err(|e| format!("reconstructing the causal chain: {e}"))?;
            let corroborated = corroborate_with_chain(&hits, &lint_report, chain.as_ref())
                .iter()
                .any(|c| c.corroborated());
            (Some(corroborated), chain)
        }
    };
    let chain_contains_bug_site = chain
        .as_ref()
        .is_some_and(|c| chain_covers_routine(c, &program, s.case.bug_site_routine()));
    Ok(MinedScenario {
        result,
        negative_scores,
        effective_nu,
        static_warnings: lint_report.warnings.len(),
        corroborated,
        chain,
        chain_contains_bug_site,
    })
}

/// Assembles the invariant registry's [`Evidence`] for one mined run.
pub fn scenario_evidence(
    s: &HuntScenario,
    mined: &MinedScenario,
    remine_matches: bool,
) -> Evidence {
    Evidence {
        outcome: mined.result.to_outcome(s.seed),
        fixed_variant: s.variant.is_fixed(),
        negative_scores: mined.negative_scores,
        nu: mined.effective_nu,
        static_warnings: mined.static_warnings,
        corroborated: mined.corroborated,
        remine_matches,
        chain_emitted: mined.corroborated.map(|_| mined.chain.is_some()),
        chain_contains_bug_site: mined.chain_contains_bug_site,
        symptom_note: s.case.symptom_note().to_string(),
    }
}

/// Whether two mining passes over the same traces agree exactly — the
/// `mining_determinism` predicate.
fn mined_matches(s: &HuntScenario, a: &MinedScenario, b: &MinedScenario) -> bool {
    a.result.to_outcome(s.seed) == b.result.to_outcome(s.seed)
        && a.negative_scores == b.negative_scores
        && a.effective_nu == b.effective_nu
        && a.static_warnings == b.static_warnings
        && a.corroborated == b.corroborated
        && a.chain == b.chain
}

/// The complete per-seed hunt job: generate the scenario, emulate it,
/// mine it twice (live + re-mine, feeding `mining_determinism`), check
/// every applicable invariant, and return the iteration record along
/// with the recorded traces.
///
/// With a `store`, the run is saved under mode `hunt-<case>-<variant>`,
/// keyed by the FNV-1a digest of the program's disassembly, and the
/// re-mine reads the traces back from it, so `mining_determinism` also
/// covers the stored, digest-verified bytes.
///
/// # Errors
///
/// Emulation, assembly and mining failures are [`RunFailure::Fatal`]:
/// they are deterministic for a seed, so a retry cannot clear them.
/// Storing or loading the run is [`RunFailure::Transient`].
pub fn hunt_iteration(
    case: HuntCase,
    variant: Variant,
    seed: u64,
    policy: &InvariantPolicy,
    store: Option<&TraceStore>,
) -> Result<(IterationRecord, Vec<Trace>), RunFailure> {
    let s = scenario(case, variant, seed);
    let traces = emulate_scenario(&s).map_err(RunFailure::Fatal)?;
    let mined = mine_scenario(&s, &traces).map_err(RunFailure::Fatal)?;
    let remined = match store {
        None => mine_scenario(&s, &traces),
        Some(store) => {
            let program = scenario_program(&s).map_err(RunFailure::Fatal)?;
            let digest = fnv64(tinyvm::disassemble(&program).as_bytes());
            let mode = format!("hunt-{}-{}", case.name(), variant.name());
            let manifest = store
                .save_run(seed, &mode, digest, &traces)
                .map_err(|e| RunFailure::Transient(format!("storing run: {e}")))?;
            let loaded = store
                .load_traces(&manifest)
                .map_err(|e| RunFailure::Transient(format!("loading stored run: {e}")))?;
            mine_scenario(&s, &loaded)
        }
    }
    .map_err(RunFailure::Fatal)?;
    let remine_matches = mined_matches(&s, &mined, &remined);
    let evidence = scenario_evidence(&s, &mined, remine_matches);
    let (checked, violations) = check_invariants(&evidence, policy);
    Ok((
        IterationRecord {
            seed,
            outcome: evidence.outcome,
            checked,
            violations,
        },
        traces,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_pure_and_variant_independent() {
        for case in HuntCase::ALL {
            for seed in [0u64, 1, 0xBEEF, u64::MAX] {
                let a = scenario(case, Variant::Buggy, seed);
                let b = scenario(case, Variant::Buggy, seed);
                assert_eq!(a, b, "{case:?} seed {seed} not pure");
                let fixed = scenario(case, Variant::Fixed, seed);
                assert_eq!(
                    (a.node_seed, a.run_seconds, a.nu, a.params),
                    (fixed.node_seed, fixed.run_seconds, fixed.nu, fixed.params),
                    "{case:?} seed {seed}: variant changed the workload"
                );
            }
        }
    }

    #[test]
    fn draws_differ_across_cases_and_seeds() {
        let a = scenario(HuntCase::Oscilloscope, Variant::Buggy, 7);
        let b = scenario(HuntCase::Oscilloscope, Variant::Buggy, 8);
        assert_ne!(a.node_seed, b.node_seed);
        let c = scenario(HuntCase::Forwarder, Variant::Buggy, 7);
        assert_ne!(a.node_seed, c.node_seed);
    }

    #[test]
    fn a_small_oscilloscope_iteration_round_trips() {
        let policy = InvariantPolicy::default();
        let (record, traces) =
            hunt_iteration(HuntCase::Oscilloscope, Variant::Buggy, 3, &policy, None).unwrap();
        assert_eq!(record.seed, 3);
        assert_eq!(traces.len(), 1);
        assert!(record.outcome.samples > 0);
        // Mining the same traces again agrees with itself.
        let s = scenario(HuntCase::Oscilloscope, Variant::Buggy, 3);
        let m1 = mine_scenario(&s, &traces).unwrap();
        let m2 = mine_scenario(&s, &traces).unwrap();
        assert!(mined_matches(&s, &m1, &m2));
    }
}
