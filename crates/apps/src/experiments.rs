//! The paper's three evaluation case studies as runnable experiments.
//!
//! Each `run_case*` function executes the workload on the emulator,
//! anatomizes the traces into event-handling intervals, featurizes them as
//! instruction counters, ranks them with a plug-in detector, and — unlike
//! the paper, which relied on manual inspection — also computes the
//! ground-truth set of bug-symptom intervals from independent oracles, so
//! the ranking quality is machine-checkable.

use crate::{ctp, forwarder, oscilloscope};
use mlcore::{
    EnsembleDetector, KdeDetector, KfdDetector, KnnDetector, MahalanobisDetector, PcaDetector,
};
use sentomist_core::campaign::{RunOutcome, Verdict};
use sentomist_core::supervise::{RunContext, RunFailure};
use sentomist_core::{harvest_set, Pipeline, Report, SampleIndex, SampleSet};
use sentomist_trace::{EventInterval, Recorder, Trace};
use std::error::Error;
use tinyvm::devices::NodeConfig;
use tinyvm::isa::irq;
use tinyvm::node::Node;
use tinyvm::LifecycleItem;

/// Simulated clock rate (cycles per second).
pub const CYCLES_PER_SECOND: u64 = tinyvm::isa::DEFAULT_CLOCK_HZ;

/// Which plug-in detector to use (paper §VI-E: the detector is a plug-in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// One-class SVM with the given ν (the paper's default).
    OcSvm {
        /// ν parameter.
        nu: f64,
    },
    /// PCA reconstruction error.
    Pca,
    /// kNN mean distance.
    Knn,
    /// Mahalanobis distance with shrinkage.
    Mahalanobis,
    /// Parzen-window kernel density.
    Kde,
    /// One-class Kernel Fisher Discriminant.
    Kfd,
    /// Rank-averaging committee (OC-SVM + Mahalanobis + kNN).
    Ensemble {
        /// ν for the OC-SVM member.
        nu: f64,
    },
}

impl DetectorKind {
    /// All detector kinds, for ablation sweeps.
    pub fn all(nu: f64) -> [DetectorKind; 7] {
        [
            DetectorKind::OcSvm { nu },
            DetectorKind::Pca,
            DetectorKind::Knn,
            DetectorKind::Mahalanobis,
            DetectorKind::Kde,
            DetectorKind::Kfd,
            DetectorKind::Ensemble { nu },
        ]
    }

    /// The kind whose [`name`](DetectorKind::name) is `name`, with `nu`
    /// for the kinds that take one; `None` for an unknown name.
    pub fn from_name(name: &str, nu: f64) -> Option<DetectorKind> {
        DetectorKind::all(nu).into_iter().find(|k| k.name() == name)
    }

    /// Builds the pipeline for this detector.
    pub fn pipeline(self) -> Pipeline {
        match self {
            DetectorKind::OcSvm { nu } => Pipeline::default_ocsvm(nu),
            DetectorKind::Pca => Pipeline::new(Box::new(PcaDetector::default())),
            DetectorKind::Knn => Pipeline::new(Box::new(KnnDetector::default())),
            DetectorKind::Mahalanobis => Pipeline::new(Box::new(MahalanobisDetector::default())),
            DetectorKind::Kde => Pipeline::new(Box::new(KdeDetector::default())),
            DetectorKind::Kfd => Pipeline::new(Box::new(KfdDetector::default())),
            DetectorKind::Ensemble { nu } => {
                Pipeline::new(Box::new(EnsembleDetector::committee(nu)))
            }
        }
    }

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::OcSvm { .. } => "ocsvm",
            DetectorKind::Pca => "pca",
            DetectorKind::Knn => "knn",
            DetectorKind::Mahalanobis => "mahalanobis",
            DetectorKind::Kde => "kde",
            DetectorKind::Kfd => "kfd",
            DetectorKind::Ensemble { .. } => "ensemble",
        }
    }
}

/// Outcome of one case study.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The suspicion ranking (Figure-5 table material).
    pub report: Report,
    /// Total samples mined.
    pub sample_count: usize,
    /// Ground-truth bug-symptom samples (oracle-flagged), in sample order.
    pub buggy: Vec<SampleIndex>,
    /// 1-based ranks of the buggy samples, ascending.
    pub buggy_ranks: Vec<usize>,
    /// FNV-1a digest chained over every recorded trace of the case (node
    /// order) — the campaign replay-verification token.
    pub trace_digest: u64,
}

impl CaseResult {
    pub(crate) fn new(
        report: Report,
        sample_count: usize,
        buggy: Vec<SampleIndex>,
        trace_digest: u64,
    ) -> CaseResult {
        let mut buggy_ranks: Vec<usize> =
            buggy.iter().filter_map(|&ix| report.rank_of(ix)).collect();
        buggy_ranks.sort_unstable();
        CaseResult {
            report,
            sample_count,
            buggy,
            buggy_ranks,
            trace_digest,
        }
    }

    /// Condenses this case outcome into a campaign [`RunOutcome`].
    pub fn to_outcome(&self, seed: u64) -> RunOutcome {
        RunOutcome {
            seed,
            samples: self.sample_count,
            symptoms: self.buggy.len(),
            buggy_ranks: self.buggy_ranks.clone(),
            verdict: if self.buggy.is_empty() {
                Verdict::Clean
            } else {
                Verdict::Triggered
            },
            trace_digest: format!("{:016x}", self.trace_digest),
            wall_time_ms: 0,
        }
    }

    /// Whether every ground-truth buggy sample ranks within the top `k`.
    pub fn all_buggy_in_top(&self, k: usize) -> bool {
        !self.buggy_ranks.is_empty() && self.buggy_ranks.iter().all(|&r| r <= k)
    }

    /// The worst (largest) rank of a buggy sample.
    pub fn worst_buggy_rank(&self) -> Option<usize> {
        self.buggy_ranks.last().copied()
    }
}

/// True when `interval` contains a *nested* interrupt of the same line —
/// the paper's outlier pattern for case study I ("ADC interrupt, posting
/// a task, interrupt exit, ADC interrupt, interrupt exit, running the
/// task").
pub(crate) fn contains_nested_int(trace: &Trace, interval: &EventInterval, line: u8) -> bool {
    (interval.start_index + 1..interval.end_index)
        .any(|i| trace.events[i].item == LifecycleItem::Int(line))
}

/// Chains per-trace digests (in a fixed order) into one case-level
/// digest, FNV-1a style.
pub(crate) fn chain_digest(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        h = (h ^ d).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------
// Case study I: data pollution in single-hop data collection
// ---------------------------------------------------------------------

/// Configuration for case study I.
#[derive(Debug, Clone)]
pub struct Case1Config {
    /// Sampling periods `D` (ms), one testing run each (paper: 20..100).
    pub periods_ms: Vec<u32>,
    /// Duration of each testing run in simulated seconds (paper: 10 s).
    pub run_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Detector plug-in.
    pub detector: DetectorKind,
    /// Use the fixed (race-free) application instead of the buggy one.
    pub use_fixed: bool,
}

impl Default for Case1Config {
    fn default() -> Self {
        Case1Config {
            periods_ms: vec![20, 40, 60, 80, 100],
            run_seconds: 10,
            seed: 45,
            detector: DetectorKind::OcSvm { nu: 0.05 },
            use_fixed: false,
        }
    }
}

/// Emulates case study I's testing runs: one trace per sampling period,
/// plus the total count of polluted UART packets (the independent data
/// oracle).
fn case1_emulate(config: &Case1Config) -> Result<(Vec<Trace>, usize), Box<dyn Error>> {
    let mut traces = Vec::with_capacity(config.periods_ms.len());
    let mut polluted_packets = 0usize;
    for (r, &period) in config.periods_ms.iter().enumerate() {
        let params = oscilloscope::OscilloscopeParams::with_period_ms(period);
        let program = if config.use_fixed {
            oscilloscope::fixed(&params)?
        } else {
            oscilloscope::buggy(&params)?
        };
        let mut node = Node::new(
            program.clone(),
            NodeConfig {
                seed: config.seed.wrapping_add(r as u64),
                ..NodeConfig::default()
            },
        );
        let mut recorder = Recorder::new(program.len());
        node.run(config.run_seconds * CYCLES_PER_SECOND, &mut recorder)?;
        polluted_packets += oscilloscope::parse_uart(node.uart())
            .iter()
            .filter(|p| p.polluted())
            .count();
        traces.push(recorder.into_trace());
    }
    Ok((traces, polluted_packets))
}

/// Mines case study I from its recorded traces (one per sampling period,
/// in `periods_ms` order). This is the single mining code path shared by
/// the live [`run_case1`] and store-replayed re-mining, which is what
/// makes re-ranking a stored corpus bit-identical to the live run.
///
/// # Errors
///
/// Propagates trace extraction and pipeline errors.
pub fn mine_case1(config: &Case1Config, traces: &[Trace]) -> Result<CaseResult, Box<dyn Error>> {
    let mut all_samples = SampleSet::empty();
    let mut buggy: Vec<SampleIndex> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    for (r, trace) in traces.iter().enumerate() {
        digests.push(trace.digest());
        let run_no = r as u32 + 1;
        let set = harvest_set(trace, irq::ADC, |seq, _| SampleIndex::RunSeq {
            run: run_no,
            seq,
        })?;
        for m in &set.meta {
            if contains_nested_int(trace, &m.interval, irq::ADC) {
                buggy.push(m.index);
            }
        }
        all_samples.append(&set);
    }
    let sample_count = all_samples.len();
    let report = config.detector.pipeline().rank_set(all_samples)?;
    Ok(CaseResult::new(
        report,
        sample_count,
        buggy,
        chain_digest(digests),
    ))
}

/// Runs case study I and ranks the ADC event-handling intervals.
///
/// Ground truth: an interval is a bug symptom iff another ADC interrupt
/// fired inside it (the data race's only trigger pattern); the UART data
/// oracle (actual packet pollution) is checked for agreement.
///
/// # Errors
///
/// Propagates VM faults, trace extraction and pipeline errors.
pub fn run_case1(config: &Case1Config) -> Result<CaseResult, Box<dyn Error>> {
    run_case1_traced(config).map(|(result, _)| result)
}

/// Like [`run_case1`], but also hands back the recorded traces (one per
/// sampling period) so callers can persist them to a trace store.
///
/// # Errors
///
/// Propagates VM faults, trace extraction and pipeline errors.
pub fn run_case1_traced(config: &Case1Config) -> Result<(CaseResult, Vec<Trace>), Box<dyn Error>> {
    let (traces, polluted_packets) = case1_emulate(config)?;
    let result = mine_case1(config, &traces)?;
    // Cross-check the two independent oracles: every polluted packet stems
    // from a nested-interrupt interval. (The trace oracle can flag one
    // extra interval at the horizon whose packet never got sent.)
    debug_assert!(
        result.buggy.len() >= polluted_packets,
        "oracles disagree: {} intervals vs {} polluted packets",
        result.buggy.len(),
        polluted_packets
    );
    Ok((result, traces))
}

// ---------------------------------------------------------------------
// Case study II: packet loss in multi-hop forwarding
// ---------------------------------------------------------------------

/// Configuration for case study II.
#[derive(Debug, Clone)]
pub struct Case2Config {
    /// Workload parameters.
    pub params: forwarder::ForwarderParams,
    /// Test duration in simulated seconds (paper: 20 s).
    pub run_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Detector plug-in.
    pub detector: DetectorKind,
    /// Use the fixed relay instead of the buggy one.
    pub use_fixed: bool,
    /// Independent per-packet radio loss probability on every link — the
    /// "common wireless losses" the paper says the bug hides among.
    pub link_loss: f64,
}

impl Default for Case2Config {
    fn default() -> Self {
        Case2Config {
            params: forwarder::ForwarderParams::default(),
            run_seconds: 20,
            seed: 4,
            detector: DetectorKind::OcSvm { nu: 0.05 },
            use_fixed: false,
            link_loss: 0.04,
        }
    }
}

/// Emulates case study II: a 3-node chain (sink, relay, source), returning
/// the traces in node-id order.
fn case2_emulate(config: &Case2Config) -> Result<Vec<Trace>, Box<dyn Error>> {
    let relay = if config.use_fixed {
        forwarder::relay_program_fixed()?
    } else {
        forwarder::relay_program_buggy()?
    };
    let link = netsim::LinkConfig {
        loss_prob: config.link_loss,
        ..netsim::LinkConfig::default()
    };
    let mut sim = netsim::NetSim::new(netsim::Topology::chain(3, link)?, config.seed);
    sim.add_node(
        forwarder::sink_program()?,
        forwarder::node_config(forwarder::nodes::SINK, config.seed),
    )?;
    sim.add_node(
        relay.clone(),
        forwarder::node_config(forwarder::nodes::RELAY, config.seed + 1),
    )?;
    sim.add_node(
        forwarder::source_program(&config.params)?,
        forwarder::node_config(forwarder::nodes::SOURCE, config.seed + 2),
    )?;
    let mut recorders = vec![
        Recorder::new(sim.node(0).program().len()),
        Recorder::new(relay.len()),
        Recorder::new(sim.node(2).program().len()),
    ];
    sim.run(config.run_seconds * CYCLES_PER_SECOND, &mut recorders)?;
    Ok(recorders.into_iter().map(Recorder::into_trace).collect())
}

/// Mines case study II from its recorded traces (sink, relay, source in
/// node-id order); shared by [`run_case2`] and store-replayed re-mining.
///
/// # Errors
///
/// Fails on a wrong trace count; propagates assembly, extraction and
/// pipeline errors.
pub fn mine_case2(config: &Case2Config, traces: &[Trace]) -> Result<CaseResult, Box<dyn Error>> {
    if traces.len() != 3 {
        return Err(format!("case II expects 3 node traces, got {}", traces.len()).into());
    }
    // Re-assemble the relay only to locate the ground-truth drop label;
    // assembly is deterministic, so the label matches the recorded run.
    let relay = if config.use_fixed {
        forwarder::relay_program_fixed()?
    } else {
        forwarder::relay_program_buggy()?
    };
    let drop_pc = relay.label("fwd_drop");
    let trace_digest = chain_digest(traces.iter().map(Trace::digest));
    let relay_trace = &traces[1];
    let set = harvest_set(relay_trace, irq::RX, |seq, _| SampleIndex::Seq(seq))?;
    let buggy: Vec<SampleIndex> = match drop_pc {
        Some(pc) => set
            .meta
            .iter()
            .zip(set.features.rows_iter())
            .filter(|(_, row)| row[pc as usize] > 0.0)
            .map(|(m, _)| m.index)
            .collect(),
        None => Vec::new(), // fixed relay has no drop branch to hit
    };
    let sample_count = set.len();
    let report = config.detector.pipeline().rank_set(set)?;
    Ok(CaseResult::new(report, sample_count, buggy, trace_digest))
}

/// Runs case study II and ranks the relay's packet-arrival intervals.
///
/// Ground truth: an interval is a bug symptom iff the relay executed its
/// active-drop branch during it (located by the `fwd_drop` label).
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case2(config: &Case2Config) -> Result<CaseResult, Box<dyn Error>> {
    run_case2_traced(config).map(|(result, _)| result)
}

/// Like [`run_case2`], but also hands back the three recorded node traces
/// for persistence.
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case2_traced(config: &Case2Config) -> Result<(CaseResult, Vec<Trace>), Box<dyn Error>> {
    let traces = case2_emulate(config)?;
    let result = mine_case2(config, &traces)?;
    Ok((result, traces))
}

// ---------------------------------------------------------------------
// Case study III: unhandled failure from two co-existing protocols
// ---------------------------------------------------------------------

/// Configuration for case study III.
#[derive(Debug, Clone)]
pub struct Case3Config {
    /// Workload parameters.
    pub params: ctp::CtpParams,
    /// Test duration in simulated seconds (paper: 15 s).
    pub run_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Detector plug-in.
    pub detector: DetectorKind,
    /// Use the fixed variant instead of the buggy one.
    pub use_fixed: bool,
}

impl Default for Case3Config {
    fn default() -> Self {
        Case3Config {
            params: ctp::CtpParams::default(),
            run_seconds: 15,
            seed: 3,
            detector: DetectorKind::OcSvm { nu: 0.1 },
            use_fixed: false,
        }
    }
}

/// Runs case study III and ranks the report-timer intervals of the four
/// source nodes (pooled, as in the paper's 95-sample table).
///
/// Ground truth: an interval is a bug symptom iff the CTP send-failure
/// branch executed during it (located by the `ctp_fail` label).
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case3(config: &Case3Config) -> Result<CaseResult, Box<dyn Error>> {
    run_case3_traced(config).map(|(result, _)| result)
}

/// Emulates case study III: all CTP nodes on the paper's topology,
/// returning one trace per node in id order.
fn case3_emulate(config: &Case3Config) -> Result<Vec<Trace>, Box<dyn Error>> {
    let program = if config.use_fixed {
        ctp::fixed(&config.params)?
    } else {
        ctp::buggy(&config.params)?
    };
    let mut sim = netsim::NetSim::new(ctp::topology()?, config.seed);
    for id in 0..ctp::NODE_COUNT {
        sim.add_node(program.clone(), ctp::node_config(id, config.seed))?;
    }
    let mut recorders: Vec<Recorder> = (0..ctp::NODE_COUNT)
        .map(|_| Recorder::new(program.len()))
        .collect();
    sim.run(config.run_seconds * CYCLES_PER_SECOND, &mut recorders)?;
    Ok(recorders.into_iter().map(Recorder::into_trace).collect())
}

/// Mines case study III from its recorded traces (one per node, in node-id
/// order); shared by [`run_case3`] and store-replayed re-mining.
///
/// # Errors
///
/// Fails on a wrong trace count; propagates assembly, extraction and
/// pipeline errors.
pub fn mine_case3(config: &Case3Config, traces: &[Trace]) -> Result<CaseResult, Box<dyn Error>> {
    if traces.len() != ctp::NODE_COUNT as usize {
        return Err(format!(
            "case III expects {} node traces, got {}",
            ctp::NODE_COUNT,
            traces.len()
        )
        .into());
    }
    // Re-assemble only to locate the ground-truth failure label;
    // assembly is deterministic, so the label matches the recorded run.
    let program = if config.use_fixed {
        ctp::fixed(&config.params)?
    } else {
        ctp::buggy(&config.params)?
    };
    let fail_pc = program
        .label("ctp_fail")
        .ok_or("ctp program lacks the ctp_fail label")? as usize;
    let trace_digest = chain_digest(traces.iter().map(Trace::digest));
    let mut all_samples = SampleSet::empty();
    let mut buggy = Vec::new();
    for (id, trace) in traces.iter().enumerate() {
        let node = id as u16;
        if !ctp::SOURCES.contains(&node) {
            continue;
        }
        let set = harvest_set(trace, irq::TIMER0, |seq, _| SampleIndex::NodeSeq {
            node,
            seq,
        })?;
        for (m, row) in set.meta.iter().zip(set.features.rows_iter()) {
            if row[fail_pc] > 0.0 {
                buggy.push(m.index);
            }
        }
        all_samples.append(&set);
    }
    let sample_count = all_samples.len();
    let report = config.detector.pipeline().rank_set(all_samples)?;
    Ok(CaseResult::new(report, sample_count, buggy, trace_digest))
}

/// Like [`run_case3`], but also hands back every node's recorded trace
/// for persistence.
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case3_traced(config: &Case3Config) -> Result<(CaseResult, Vec<Trace>), Box<dyn Error>> {
    let traces = case3_emulate(config)?;
    let result = mine_case3(config, &traces)?;
    Ok((result, traces))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_kinds_build_pipelines() {
        for kind in DetectorKind::all(0.1) {
            let p = kind.pipeline();
            assert_eq!(p.detector_name(), kind.name());
        }
    }

    #[test]
    fn case_result_rank_bookkeeping() {
        use sentomist_core::{RankedSample, Report};
        use sentomist_trace::EventInterval;
        let iv = EventInterval {
            irq: 0,
            start_index: 0,
            end_index: 1,
            last_run_index: None,
            start_cycle: 0,
            end_cycle: 1,
            task_count: 0,
        };
        let report = Report {
            detector: "test".into(),
            ranking: (1..=5)
                .map(|i| RankedSample {
                    index: SampleIndex::Seq(i),
                    score: i as f64,
                    interval: iv,
                })
                .collect(),
        };
        let result = CaseResult::new(report, 5, vec![SampleIndex::Seq(2), SampleIndex::Seq(1)], 0);
        assert_eq!(result.buggy_ranks, vec![1, 2]);
        assert!(result.all_buggy_in_top(2));
        assert!(!result.all_buggy_in_top(1));
        assert_eq!(result.worst_buggy_rank(), Some(2));
    }
}

// ---------------------------------------------------------------------
// Emulator-fidelity study (§VI-E: why Avrora, not TOSSIM)
// ---------------------------------------------------------------------

/// Outcome of running case study I's workload under one timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidelityOutcome {
    /// Packets whose content was polluted by the race.
    pub polluted_packets: usize,
    /// ADC intervals containing a nested ADC interrupt (the symptom).
    pub symptom_intervals: usize,
    /// Total ADC intervals observed.
    pub intervals: usize,
    /// Whether any handler nesting occurred at all in the trace.
    pub any_preemption: bool,
}

/// Runs the case-I workload (one testing run) under the given timing
/// model. Under [`tinyvm::TimingModel::CycleAccurate`] (the Avrora-like
/// default) the data race manifests; under
/// [`tinyvm::TimingModel::ZeroCostEvents`] (the TOSSIM-style sequential
/// abstraction) event executions never overlap, so neither the symptom
/// nor the pollution can appear — reproducing the paper's argument for a
/// cycle-accurate emulator.
///
/// # Errors
///
/// Propagates VM faults and extraction errors.
pub fn run_fidelity(
    timing: tinyvm::TimingModel,
    period_ms: u32,
    run_seconds: u64,
    seed: u64,
) -> Result<FidelityOutcome, Box<dyn Error>> {
    let params = oscilloscope::OscilloscopeParams::with_period_ms(period_ms);
    let program = oscilloscope::buggy(&params)?;
    let mut node = Node::new(
        program.clone(),
        NodeConfig {
            seed,
            timing,
            ..NodeConfig::default()
        },
    );
    let mut recorder = Recorder::new(program.len());
    node.run(run_seconds * CYCLES_PER_SECOND, &mut recorder)?;
    let polluted = oscilloscope::parse_uart(node.uart())
        .iter()
        .filter(|p| p.polluted())
        .count();
    let trace = recorder.into_trace();
    let set = harvest_set(&trace, irq::ADC, |seq, _| SampleIndex::Seq(seq))?;
    let symptom_intervals = set
        .meta
        .iter()
        .filter(|m| contains_nested_int(&trace, &m.interval, irq::ADC))
        .count();
    let mut depth = 0usize;
    let mut any_preemption = false;
    for e in &trace.events {
        match e.item {
            LifecycleItem::Int(_) => {
                depth += 1;
                if depth > 1 {
                    any_preemption = true;
                }
            }
            LifecycleItem::Reti => depth -= 1,
            _ => {}
        }
    }
    Ok(FidelityOutcome {
        polluted_packets: polluted,
        symptom_intervals,
        intervals: set.len(),
        any_preemption,
    })
}

// ---------------------------------------------------------------------
// Inspection-effort study: the paper's headline claim, quantified
// ---------------------------------------------------------------------

/// How much manual inspection a tester spends before reaching the bug
/// symptoms, under Sentomist's ranking versus the baselines the paper
/// argues against (chronological brute-force scanning; random sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct EffortSummary {
    /// Total intervals available for inspection.
    pub samples: usize,
    /// True bug-symptom intervals.
    pub positives: usize,
    /// Inspections until the *first* symptom, following the ranking.
    pub ranked_first: Option<usize>,
    /// Inspections until *all* symptoms, following the ranking.
    pub ranked_all: Option<usize>,
    /// Inspections until the first symptom when scanning chronologically
    /// (the brute-force trace inspection the paper contrasts against).
    pub chrono_first: Option<usize>,
    /// Expected inspections until the first symptom under uniformly
    /// random inspection order.
    pub random_expected_first: f64,
    /// ROC-AUC of the suspicion ranking against ground truth.
    pub auc: f64,
    /// Average precision of the ranking against ground truth.
    pub avg_precision: f64,
}

fn chronology_key(ix: &SampleIndex) -> (u32, u32) {
    match *ix {
        SampleIndex::RunSeq { run, seq } => (run, seq),
        SampleIndex::Seq(s) => (0, s),
        SampleIndex::NodeSeq { node, seq } => (node as u32, seq),
    }
}

/// Computes the inspection-effort summary of a case-study outcome.
pub fn effort_summary(result: &CaseResult) -> EffortSummary {
    use mlcore::evaluation as ev;
    let relevant = |ix: &SampleIndex| result.buggy.contains(ix);
    let ranked: Vec<SampleIndex> = result.report.ranking.iter().map(|r| r.index).collect();
    let mut chrono = ranked.clone();
    chrono.sort_by_key(chronology_key);
    EffortSummary {
        samples: result.sample_count,
        positives: result.buggy.len(),
        ranked_first: ev::inspections_until_first(&ranked, relevant),
        ranked_all: ev::inspections_until_all(&ranked, relevant),
        chrono_first: ev::inspections_until_first(&chrono, relevant),
        random_expected_first: ev::expected_random_inspections(
            result.sample_count,
            result.buggy.len(),
        ),
        auc: ev::roc_auc(&ranked, relevant),
        avg_precision: ev::average_precision(&ranked, relevant),
    }
}

// ---------------------------------------------------------------------
// Trigger campaign: how hard is the bug to hit, and does mining find it
// whenever it is hit? (paper §IV: "the bug is not easy to be triggered
// unless we generate a variety of random interleaving scenarios")
// ---------------------------------------------------------------------

/// Cycles emulated between supervisor checks in [`trigger_job`]. Small
/// enough that a watchdog cancellation or cycle-budget exhaustion is
/// honored promptly, large enough that the checks cost nothing against
/// real emulation work.
const SUPERVISE_SLICE_CYCLES: u64 = 1_000_000;

/// Builds the per-seed campaign job for the case-I trigger experiment:
/// one `run_seconds`-second run of the buggy Oscilloscope at sampling
/// period `period_ms`, mined in isolation with an OC-SVM(ν), handing
/// back the outcome and the recorded trace (for campaigns that persist
/// it to a trace store).
///
/// The program is assembled once, up front; the returned closure only
/// shares that immutable program, so the supervised pool can drive it
/// from any number of worker threads. The emulation advances in
/// one-million-cycle slices and checks the [`RunContext`] between
/// slices, so a watchdog cancellation stops a runaway run mid-flight and
/// an optional cycle budget caps how long the run may emulate. Slicing
/// does not change the machine state — the recorded trace is
/// bit-identical to a single `Node::run` call.
///
/// Machine faults and mining failures are deterministic for a given seed,
/// so they surface as [`RunFailure::Fatal`] (retrying cannot help);
/// budget/cancellation stops are [`RunFailure::TimedOut`].
///
/// # Errors
///
/// Fails if the Oscilloscope program does not assemble.
#[allow(clippy::type_complexity)]
pub fn trigger_job(
    period_ms: u32,
    run_seconds: u64,
    nu: f64,
) -> Result<
    impl Fn(&RunContext) -> Result<(RunOutcome, Vec<Trace>), RunFailure> + Send + Sync,
    Box<dyn Error>,
> {
    let params = oscilloscope::OscilloscopeParams::with_period_ms(period_ms);
    let program = oscilloscope::buggy(&params)?;
    Ok(move |ctx: &RunContext| {
        let seed = ctx.seed();
        let limit = run_seconds * CYCLES_PER_SECOND;
        let cap = ctx.cycle_budget().unwrap_or(u64::MAX).min(limit);
        let mut node = Node::new(
            program.clone(),
            NodeConfig {
                seed,
                ..NodeConfig::default()
            },
        );
        let mut recorder = Recorder::new(program.len());
        loop {
            if ctx.cancelled() {
                return Err(RunFailure::TimedOut(format!(
                    "cancelled by the watchdog at cycle {}",
                    node.cycle()
                )));
            }
            let next = node.cycle().saturating_add(SUPERVISE_SLICE_CYCLES).min(cap);
            node.advance(next, &mut recorder)
                .map_err(|e| RunFailure::Fatal(e.to_string()))?;
            if node.cycle() >= cap || node.halted() {
                break;
            }
        }
        if cap < limit && !node.halted() {
            return Err(RunFailure::TimedOut(format!(
                "cycle budget {cap} exhausted before the {limit}-cycle run finished"
            )));
        }
        node.finish(&mut recorder);
        let trace = recorder.into_trace();
        let outcome = mine_trigger_trace(seed, &trace, nu).map_err(RunFailure::Fatal)?;
        Ok((outcome, vec![trace]))
    })
}

/// Mines one recorded trigger-run trace into its campaign outcome — the
/// single code path behind both the live [`trigger_job`] and re-mining a
/// stored corpus, which is what makes store-based re-ranking bit-identical
/// to the live campaign.
///
/// # Errors
///
/// Extraction and pipeline failures are reported as strings, matching the
/// campaign job contract.
pub fn mine_trigger_trace(seed: u64, trace: &Trace, nu: f64) -> Result<RunOutcome, String> {
    let trace_digest = trace.digest();
    let set =
        harvest_set(trace, irq::ADC, |seq, _| SampleIndex::Seq(seq)).map_err(|e| e.to_string())?;
    let buggy: Vec<SampleIndex> = set
        .meta
        .iter()
        .filter(|m| contains_nested_int(trace, &m.interval, irq::ADC))
        .map(|m| m.index)
        .collect();
    let sample_count = set.len();
    let mut buggy_ranks: Vec<usize> = if buggy.is_empty() {
        Vec::new()
    } else {
        let report = Pipeline::default_ocsvm(nu)
            .rank_set(set)
            .map_err(|e| e.to_string())?;
        buggy.iter().filter_map(|&b| report.rank_of(b)).collect()
    };
    buggy_ranks.sort_unstable();
    Ok(RunOutcome {
        seed,
        samples: sample_count,
        symptoms: buggy.len(),
        buggy_ranks,
        verdict: if buggy.is_empty() {
            Verdict::Clean
        } else {
            Verdict::Triggered
        },
        trace_digest: format!("{trace_digest:016x}"),
        wall_time_ms: 0,
    })
}

// ---------------------------------------------------------------------
// Case study I, multi-node form: several sensors + a sink (the paper's
// literal setup: "several sensor nodes monitor temperature and report
// the readings to a data sink in a single hop manner")
// ---------------------------------------------------------------------

/// Configuration for the multi-node variant of case study I.
#[derive(Debug, Clone)]
pub struct Case1MultiConfig {
    /// Number of sensing nodes (the sink is node 0 in addition).
    pub sensors: u16,
    /// Sampling period D in milliseconds (one value; samples are pooled
    /// across nodes and indexed `[node, seq]`).
    pub period_ms: u32,
    /// Run duration in simulated seconds.
    pub run_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Detector plug-in.
    pub detector: DetectorKind,
}

impl Default for Case1MultiConfig {
    fn default() -> Self {
        Case1MultiConfig {
            sensors: 4,
            period_ms: 20,
            run_seconds: 10,
            seed: 42,
            detector: DetectorKind::OcSvm { nu: 0.05 },
        }
    }
}

/// Runs the multi-node single-hop variant of case study I: `sensors`
/// nodes run the buggy Oscilloscope program and broadcast packets a sink
/// overhears; ADC intervals are pooled across the sensing nodes.
///
/// # Errors
///
/// Propagates simulation, extraction and pipeline errors.
pub fn run_case1_multinode(config: &Case1MultiConfig) -> Result<CaseResult, Box<dyn Error>> {
    let params = oscilloscope::OscilloscopeParams::with_period_ms(config.period_ms);
    let sensor_program = oscilloscope::buggy(&params)?;
    let sink_program = crate::forwarder::sink_program()?;
    let node_count = config.sensors + 1;
    let topo = netsim::Topology::star(node_count, netsim::LinkConfig::default())?;
    let mut sim = netsim::NetSim::new(topo, config.seed);
    sim.add_node(
        sink_program.clone(),
        NodeConfig {
            node_id: 0,
            seed: config.seed,
            ..NodeConfig::default()
        },
    )?;
    for id in 1..node_count {
        sim.add_node(
            sensor_program.clone(),
            NodeConfig {
                node_id: id,
                seed: config.seed.wrapping_add(id as u64 * 101),
                ..NodeConfig::default()
            },
        )?;
    }
    let mut recorders: Vec<Recorder> = (0..node_count)
        .map(|id| {
            if id == 0 {
                Recorder::new(sink_program.len())
            } else {
                Recorder::new(sensor_program.len())
            }
        })
        .collect();
    sim.run(config.run_seconds * CYCLES_PER_SECOND, &mut recorders)?;

    let mut all_samples = SampleSet::empty();
    let mut buggy = Vec::new();
    let traces: Vec<Trace> = recorders.into_iter().map(Recorder::into_trace).collect();
    let trace_digest = chain_digest(traces.iter().map(Trace::digest));
    for (id, trace) in traces.iter().enumerate().skip(1) {
        let node = id as u16;
        let set = harvest_set(trace, irq::ADC, |seq, _| SampleIndex::NodeSeq { node, seq })?;
        for m in &set.meta {
            if contains_nested_int(trace, &m.interval, irq::ADC) {
                buggy.push(m.index);
            }
        }
        all_samples.append(&set);
    }
    let sample_count = all_samples.len();
    let report = config.detector.pipeline().rank_set(all_samples)?;
    Ok(CaseResult::new(report, sample_count, buggy, trace_digest))
}
