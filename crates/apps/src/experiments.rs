//! The paper's three evaluation case studies as runnable experiments.
//!
//! Every experiment is one [`Study`]: the nodes it emulates (each a
//! program and a [`NodeConfig`]), the network that joins them (or none
//! when every node runs alone), the interrupt line it mines, which traces
//! it pools and how it labels their intervals, its ground-truth symptom
//! oracle and its detector. [`Study::emulate`] is the only emulator and
//! [`Study::harvest`] the only miner; the case-study configurations, the
//! trigger experiment, the multi-node and fidelity studies, the hunt's
//! scenarios and the campaign modes each build a `Study` and run it.
//!
//! Unlike the paper, which relied on manual inspection, each study also
//! computes the ground-truth set of bug-symptom intervals from an
//! independent oracle, so the ranking quality is machine-checkable.

use crate::jobs::{fnv64, JobError, SupervisedTracedJob};
use crate::{ctp, forwarder, oscilloscope, Mode};
use mlcore::{
    EnsembleDetector, KdeDetector, KfdDetector, KnnDetector, MahalanobisDetector, PcaDetector,
};
use netsim::{LinkConfig, NetSim, Topology};
use sentomist_core::campaign::{RunOutcome, Verdict};
use sentomist_core::supervise::{RunContext, RunFailure};
use sentomist_core::{harvest_set, Pipeline, Report, SampleIndex, SampleSet};
use sentomist_trace::{EventInterval, Recorder, Trace};
use std::error::Error;
use std::sync::Arc;
use tinyvm::devices::NodeConfig;
use tinyvm::isa::irq;
use tinyvm::node::Node;
use tinyvm::{LifecycleItem, Program};

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

// ---------------------------------------------------------------------
// The case-study table: one study per experiment
// ---------------------------------------------------------------------

/// Which recorded traces a study pools into its sample set, and how it
/// labels their intervals (the three index styles of Figure 5).
#[derive(Debug, Clone)]
pub(crate) enum Pool {
    /// Every trace, one testing run each, labelled `[run, seq]`.
    Runs,
    /// The trace of this one node, labelled `seq`.
    Node(u16),
    /// The traces of these nodes, in this order, labelled `[node, seq]`.
    Nodes(Vec<u16>),
}

/// The ground-truth oracle that marks an interval as a bug symptom.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Symptom {
    /// Another interrupt of the mined line fired inside the interval:
    /// case I's race pattern ("ADC interrupt, posting a task, interrupt
    /// exit, ADC interrupt, interrupt exit, running the task").
    NestedInt,
    /// The interval executed this pc, the labelled bug branch; `None`
    /// when the program has no such branch (case II's fixed relay).
    Executes(Option<u16>),
}

/// One experiment: what to emulate, what to mine, and how to tell a bug
/// symptom. Built by the case-study configurations
/// ([`Case1Config::study`] and its siblings), the trigger experiment, the
/// hunt's scenarios and the campaign modes.
#[derive(Debug, Clone)]
pub struct Study {
    /// Names the study in error messages.
    pub(crate) name: &'static str,
    /// The emulated nodes in id order, each a program and its config.
    pub(crate) nodes: Vec<(Arc<Program>, NodeConfig)>,
    /// The topology joining the nodes and the simulator's link-loss seed;
    /// `None` when every node runs alone.
    pub(crate) network: Option<(Topology, u64)>,
    /// Emulated cycles per node.
    pub(crate) cycles: u64,
    /// The interrupt line whose event-handling intervals are mined.
    pub(crate) irq: u8,
    /// Which traces are pooled and how their intervals are labelled.
    pub(crate) pool: Pool,
    /// The ground-truth symptom oracle.
    pub(crate) symptom: Symptom,
    /// The plug-in detector that ranks the pooled intervals.
    pub(crate) detector: DetectorKind,
}

/// What [`Study::emulate`] recorded, one entry per node in id order.
#[derive(Debug, Clone)]
pub struct Emulation {
    /// The lifecycle traces.
    pub traces: Vec<Trace>,
    /// The words each node wrote to its UART (case I's independent data
    /// oracle: see [`oscilloscope::parse_uart`]).
    pub uart: Vec<Vec<u16>>,
}

/// Cycles emulated between supervisor checks when nodes run alone.
/// Small enough that a watchdog cancellation or cycle-budget exhaustion
/// is honored promptly, large enough that the checks cost nothing
/// against real emulation work.
const SUPERVISE_SLICE_CYCLES: u64 = 1_000_000;

impl Study {
    /// Emulates every node and records its trace.
    ///
    /// A networked study calls [`NetSim::run`] once and runs to the end.
    /// Nodes that run alone advance in one-million-cycle slices; when
    /// `ctx` is given they check it between slices, so a watchdog
    /// cancellation stops a runaway run mid-flight and an optional cycle
    /// budget caps how long each node may emulate. Slicing does not
    /// change the machine state: the recorded trace is bit-identical to a
    /// single [`Node::run`] call.
    ///
    /// # Errors
    ///
    /// Machine and simulation faults are [`RunFailure::Fatal`], since
    /// they repeat for the same seed; budget and cancellation stops are
    /// [`RunFailure::TimedOut`].
    pub fn emulate(&self, ctx: Option<&RunContext>) -> Result<Emulation, RunFailure> {
        fn fatal(e: impl std::fmt::Display) -> RunFailure {
            RunFailure::Fatal(e.to_string())
        }
        let mut recorders: Vec<Recorder> = self
            .nodes
            .iter()
            .map(|(program, _)| Recorder::new(program.len()))
            .collect();
        let uart = match &self.network {
            Some((topology, seed)) => {
                let mut sim = NetSim::new(topology.clone(), *seed);
                for (program, config) in &self.nodes {
                    sim.add_node(program.clone(), *config).map_err(fatal)?;
                }
                sim.run(self.cycles, &mut recorders).map_err(fatal)?;
                (0..sim.node_count())
                    .map(|id| sim.node(id as u16).uart().to_vec())
                    .collect()
            }
            None => {
                let limit = self.cycles;
                let cap = ctx
                    .and_then(RunContext::cycle_budget)
                    .unwrap_or(u64::MAX)
                    .min(limit);
                let mut uart = Vec::with_capacity(self.nodes.len());
                for ((program, config), recorder) in self.nodes.iter().zip(&mut recorders) {
                    let mut node = Node::new(program.clone(), *config);
                    loop {
                        if ctx.is_some_and(RunContext::cancelled) {
                            return Err(RunFailure::TimedOut(format!(
                                "cancelled by the watchdog at cycle {}",
                                node.cycle()
                            )));
                        }
                        let next = node.cycle().saturating_add(SUPERVISE_SLICE_CYCLES).min(cap);
                        node.advance(next, recorder).map_err(fatal)?;
                        if node.cycle() >= cap || node.halted() {
                            break;
                        }
                    }
                    if cap < limit && !node.halted() {
                        return Err(RunFailure::TimedOut(format!(
                            "cycle budget {cap} exhausted before the {limit}-cycle run finished"
                        )));
                    }
                    node.finish(recorder);
                    uart.push(node.uart().to_vec());
                }
                uart
            }
        };
        Ok(Emulation {
            traces: recorders.into_iter().map(Recorder::into_trace).collect(),
            uart,
        })
    }

    /// Harvests the pooled traces' intervals on the study's IRQ into one
    /// sample set, in pool order, and returns it with the samples the
    /// symptom oracle flags. `traces` holds one trace per node, in id
    /// order, as [`Study::emulate`] records them.
    ///
    /// # Errors
    ///
    /// A trace count other than the node count; extraction errors.
    pub fn harvest(
        &self,
        traces: &[Trace],
    ) -> Result<(SampleSet, Vec<SampleIndex>), Box<dyn Error>> {
        if traces.len() != self.nodes.len() {
            return Err(format!(
                "{} expects {} node traces, got {}",
                self.name,
                self.nodes.len(),
                traces.len()
            )
            .into());
        }
        let pooled: Vec<u16> = match &self.pool {
            Pool::Runs => (0..traces.len() as u16).collect(),
            Pool::Node(id) => vec![*id],
            Pool::Nodes(ids) => ids.clone(),
        };
        let mut set = SampleSet::empty();
        let mut buggy = Vec::new();
        for id in pooled {
            let trace = &traces[usize::from(id)];
            let part = harvest_set(trace, self.irq, |seq, _| match self.pool {
                Pool::Runs => SampleIndex::RunSeq {
                    run: u32::from(id) + 1,
                    seq,
                },
                Pool::Node(_) => SampleIndex::Seq(seq),
                Pool::Nodes(_) => SampleIndex::NodeSeq { node: id, seq },
            })?;
            for (m, row) in part.meta.iter().zip(part.features.rows_iter()) {
                let symptom = match self.symptom {
                    Symptom::NestedInt => contains_nested_int(trace, &m.interval, self.irq),
                    Symptom::Executes(pc) => {
                        pc.is_some_and(|pc| row.get(usize::from(pc)).is_some_and(|&n| n > 0.0))
                    }
                };
                if symptom {
                    buggy.push(m.index);
                }
            }
            set.append(&part);
        }
        Ok((set, buggy))
    }

    /// Harvests and ranks the study's recorded traces. This is the one
    /// mining path behind a live run and a store re-mine, which is what
    /// makes re-ranking a stored corpus bit-identical to the live run.
    ///
    /// # Errors
    ///
    /// As [`Study::harvest`], plus pipeline errors.
    pub fn mine(&self, traces: &[Trace]) -> Result<CaseResult, Box<dyn Error>> {
        let (set, buggy) = self.harvest(traces)?;
        let sample_count = set.len();
        let report = self.detector.pipeline().rank_set(set)?;
        Ok(CaseResult::new(
            report,
            sample_count,
            buggy,
            chain_digest(traces.iter().map(Trace::digest)),
        ))
    }

    /// Emulates the study and mines its traces, handing the traces back
    /// for callers that persist them.
    ///
    /// # Errors
    ///
    /// As [`Study::emulate`] and [`Study::mine`].
    pub fn run(&self) -> Result<(CaseResult, Vec<Trace>), Box<dyn Error>> {
        let traces = self
            .emulate(None)
            .map_err(|failure| failure.message().to_string())?
            .traces;
        let result = self.mine(&traces)?;
        Ok((result, traces))
    }

    /// FNV-1a digest over the disassembly of the study's programs, which
    /// run manifests record as the program identity: the one program's
    /// digest when every node runs the same program, else the per-node
    /// digests chained in node order.
    pub fn program_digest(&self) -> u64 {
        let digest = |(program, _): &(Arc<Program>, NodeConfig)| {
            fnv64(tinyvm::disassemble(program).as_bytes())
        };
        if self
            .nodes
            .windows(2)
            .all(|pair| Arc::ptr_eq(&pair[0].0, &pair[1].0))
        {
            digest(&self.nodes[0])
        } else {
            chain_digest(self.nodes.iter().map(digest))
        }
    }
}

/// True when `interval` contains a *nested* interrupt of the same line.
fn contains_nested_int(trace: &Trace, interval: &EventInterval, line: u8) -> bool {
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

/// Oscilloscope nodes that run alone, mined on the ADC line for nested
/// interrupts.
pub(crate) fn oscilloscope_alone(
    name: &'static str,
    nodes: Vec<(Arc<Program>, NodeConfig)>,
    run_seconds: u64,
    pool: Pool,
    detector: DetectorKind,
) -> Study {
    Study {
        name,
        nodes,
        network: None,
        cycles: run_seconds * CYCLES_PER_SECOND,
        irq: irq::ADC,
        pool,
        symptom: Symptom::NestedInt,
        detector,
    }
}

/// Case II's three-node chain (sink, `relay`, source), one link config
/// per hop, mined on the relay's packet arrivals for its `fwd_drop`
/// branch.
pub(crate) fn forwarder_chain(
    name: &'static str,
    relay: Arc<Program>,
    params: &forwarder::ForwarderParams,
    links: [LinkConfig; 2],
    seed: u64,
    run_seconds: u64,
    detector: DetectorKind,
) -> Result<Study, Box<dyn Error>> {
    use forwarder::nodes::{RELAY, SINK, SOURCE};
    let drop_pc = relay.label("fwd_drop");
    let sink = forwarder::sink_program()?;
    let source = forwarder::source_program(params)?;
    Ok(Study {
        name,
        nodes: vec![
            (sink, forwarder::node_config(SINK, seed)),
            (relay, forwarder::node_config(RELAY, seed.wrapping_add(1))),
            (source, forwarder::node_config(SOURCE, seed.wrapping_add(2))),
        ],
        network: Some((Topology::chain_with(&links)?, seed)),
        cycles: run_seconds * CYCLES_PER_SECOND,
        irq: irq::RX,
        pool: Pool::Node(RELAY),
        symptom: Symptom::Executes(drop_pc),
        detector,
    })
}

/// Case III's CTP tree, every node running `program`, mined on the
/// sources' report timer for the `ctp_fail` branch.
pub(crate) fn ctp_tree(
    name: &'static str,
    program: Arc<Program>,
    seed: u64,
    run_seconds: u64,
    detector: DetectorKind,
) -> Result<Study, Box<dyn Error>> {
    let fail_pc = program
        .label("ctp_fail")
        .ok_or("ctp program lacks the ctp_fail label")?;
    Ok(Study {
        name,
        nodes: (0..ctp::NODE_COUNT)
            .map(|id| (program.clone(), ctp::node_config(id, seed)))
            .collect(),
        network: Some((ctp::topology()?, seed)),
        cycles: run_seconds * CYCLES_PER_SECOND,
        irq: irq::TIMER0,
        pool: Pool::Nodes(ctp::SOURCES.to_vec()),
        symptom: Symptom::Executes(Some(fail_pc)),
        detector,
    })
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

impl Case1Config {
    /// Case study I: one testing run per sampling period (run `r` seeded
    /// `seed + r`), its ADC event-handling intervals pooled as
    /// `[run, seq]`.
    ///
    /// Ground truth: an interval is a bug symptom iff another ADC
    /// interrupt fired inside it, the data race's only trigger pattern.
    /// The UART data oracle (actual packet pollution) is in
    /// [`Emulation::uart`].
    ///
    /// # Errors
    ///
    /// Assembly errors.
    pub fn study(&self) -> Result<Study, Box<dyn Error>> {
        let mut nodes = Vec::with_capacity(self.periods_ms.len());
        for (r, &period) in self.periods_ms.iter().enumerate() {
            let params = oscilloscope::OscilloscopeParams::with_period_ms(period);
            let program = if self.use_fixed {
                oscilloscope::fixed(&params)?
            } else {
                oscilloscope::buggy(&params)?
            };
            let config = NodeConfig {
                seed: self.seed.wrapping_add(r as u64),
                ..NodeConfig::default()
            };
            nodes.push((program, config));
        }
        Ok(oscilloscope_alone(
            "case I",
            nodes,
            self.run_seconds,
            Pool::Runs,
            self.detector,
        ))
    }
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

impl Case2Config {
    /// Case study II: a 3-node chain (sink, relay, source), the relay's
    /// packet-arrival intervals labelled `seq`.
    ///
    /// Ground truth: an interval is a bug symptom iff the relay executed
    /// its active-drop branch during it (located by the `fwd_drop`
    /// label; the fixed relay has none, so it has no symptoms).
    ///
    /// # Errors
    ///
    /// Assembly and topology errors.
    pub fn study(&self) -> Result<Study, Box<dyn Error>> {
        let relay = if self.use_fixed {
            forwarder::relay_program_fixed()?
        } else {
            forwarder::relay_program_buggy()?
        };
        let link = LinkConfig {
            loss_prob: self.link_loss,
            ..LinkConfig::default()
        };
        forwarder_chain(
            "case II",
            relay,
            &self.params,
            [link, link],
            self.seed,
            self.run_seconds,
            self.detector,
        )
    }
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

impl Case3Config {
    /// Case study III: every CTP node on the paper's topology, the
    /// report-timer intervals of the four source nodes pooled as
    /// `[node, seq]` (the paper's 95-sample table).
    ///
    /// Ground truth: an interval is a bug symptom iff the CTP
    /// send-failure branch executed during it (located by the `ctp_fail`
    /// label).
    ///
    /// # Errors
    ///
    /// Assembly and topology errors, or a program without the
    /// `ctp_fail` label.
    pub fn study(&self) -> Result<Study, Box<dyn Error>> {
        let program = if self.use_fixed {
            ctp::fixed(&self.params)?
        } else {
            ctp::buggy(&self.params)?
        };
        ctp_tree(
            "case III",
            program,
            self.seed,
            self.run_seconds,
            self.detector,
        )
    }
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
    // One trigger-experiment run under the given timing model; it is
    // never ranked, so the ν is only a placeholder.
    let mut study = trigger_study(period_ms, run_seconds, 0.05, seed)?;
    study.nodes[0].1.timing = timing;
    let emulation = study
        .emulate(None)
        .map_err(|failure| failure.message().to_string())?;
    let (set, buggy) = study.harvest(&emulation.traces)?;
    let polluted = oscilloscope::parse_uart(&emulation.uart[0])
        .iter()
        .filter(|p| p.polluted())
        .count();
    let mut depth = 0usize;
    let mut any_preemption = false;
    for e in &emulation.traces[0].events {
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
        symptom_intervals: buggy.len(),
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

/// The trigger experiment's study: one `run_seconds`-second run of the
/// buggy Oscilloscope at sampling period `period_ms` under `seed`, its
/// ADC intervals labelled `seq` and ranked with an OC-SVM(ν).
///
/// # Errors
///
/// Fails if the Oscilloscope program does not assemble.
pub(crate) fn trigger_study(
    period_ms: u32,
    run_seconds: u64,
    nu: f64,
    seed: u64,
) -> Result<Study, Box<dyn Error>> {
    let params = oscilloscope::OscilloscopeParams::with_period_ms(period_ms);
    let config = NodeConfig {
        seed,
        ..NodeConfig::default()
    };
    Ok(oscilloscope_alone(
        "trigger run",
        vec![(oscilloscope::buggy(&params)?, config)],
        run_seconds,
        Pool::Node(0),
        DetectorKind::OcSvm { nu },
    ))
}

/// The per-seed campaign job of the case-I trigger experiment, as
/// [`Mode::supervised_traced_job`] builds it for [`Mode::Trigger`].
///
/// # Errors
///
/// Fails if the Oscilloscope program does not assemble.
pub fn trigger_job(
    period_ms: u32,
    run_seconds: u64,
    nu: f64,
) -> Result<SupervisedTracedJob, JobError> {
    Mode::Trigger {
        period: period_ms,
        seconds: run_seconds,
        nu,
    }
    .supervised_traced_job()
}

/// Mines one recorded trigger run into its campaign outcome — the single
/// code path behind both the live [`trigger_job`] and re-mining a stored
/// corpus. Unlike [`Study::mine`], it ranks only when a symptom exists,
/// and the outcome carries the one trace's own digest, unchained.
///
/// # Errors
///
/// A trace count other than one, extraction and pipeline failures, as
/// strings, matching the campaign job contract.
pub(crate) fn mine_trigger(
    seed: u64,
    study: &Study,
    traces: &[Trace],
) -> Result<RunOutcome, String> {
    let [trace] = traces else {
        return Err(format!(
            "trigger run stores one trace, found {}",
            traces.len()
        ));
    };
    let (set, buggy) = study.harvest(traces).map_err(|e| e.to_string())?;
    let sample_count = set.len();
    let report = if buggy.is_empty() {
        Report {
            detector: String::new(),
            ranking: Vec::new(),
        }
    } else {
        study
            .detector
            .pipeline()
            .rank_set(set)
            .map_err(|e| e.to_string())?
    };
    Ok(CaseResult::new(report, sample_count, buggy, trace.digest()).to_outcome(seed))
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

impl Case1MultiConfig {
    /// The multi-node single-hop variant of case study I: `sensors`
    /// nodes run the buggy Oscilloscope program and broadcast packets a
    /// sink (node 0) overhears; node `id` is seeded `seed + 101·id`, and
    /// the ADC intervals are pooled across the sensors as `[node, seq]`.
    ///
    /// # Errors
    ///
    /// Assembly and topology errors.
    pub fn study(&self) -> Result<Study, Box<dyn Error>> {
        let params = oscilloscope::OscilloscopeParams::with_period_ms(self.period_ms);
        let sensor = oscilloscope::buggy(&params)?;
        let sink = forwarder::sink_program()?;
        let node_count = self.sensors + 1;
        let nodes = (0..node_count)
            .map(|id| {
                let config = NodeConfig {
                    node_id: id,
                    seed: self.seed.wrapping_add(id as u64 * 101),
                    ..NodeConfig::default()
                };
                let program = if id == 0 { &sink } else { &sensor };
                (program.clone(), config)
            })
            .collect();
        Ok(Study {
            name: "case I multi-node",
            nodes,
            network: Some((
                Topology::star(node_count, LinkConfig::default())?,
                self.seed,
            )),
            cycles: self.run_seconds * CYCLES_PER_SECOND,
            irq: irq::ADC,
            pool: Pool::Nodes((1..node_count).collect()),
            symptom: Symptom::NestedInt,
            detector: self.detector,
        })
    }
}
