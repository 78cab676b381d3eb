//! # sentomist-core — the Sentomist symptom-mining pipeline
//!
//! End-to-end reproduction of the framework in ["Sentomist: Unveiling
//! Transient Sensor Network Bugs via Symptom
//! Mining"](https://doi.org/10.1109/ICDCS.2010.75) (ICDCS 2010): take a
//! WSN application binary and a test scenario, run it on the emulator,
//! anatomize the program runtime into event-handling intervals, featurize
//! each as an instruction counter, apply a plug-in outlier detector, and
//! rank the intervals by how suspicious they are — the priority order for
//! manual inspection.
//!
//! * [`sample::harvest_set`] — trace → a [`SampleSet`]: labels plus a
//!   dense row-major feature matrix, one row per interval of the event
//!   type, written straight from the trace's counter table;
//! * [`Pipeline`] — scale → detect → normalize → rank;
//! * [`Report`] — Figure-5-style ranking tables and rank queries;
//! * [`supervise`] — the seed-sweep worker pool: parallel, seed-sorted
//!   and thread-count-deterministic, with panic isolation, watchdogs,
//!   deterministic retry and checkpointable completion reporting,
//!   provable under the seeded [`chaos`] harness;
//! * [`campaign`] — what a sweep produces: per-seed outcomes and typed
//!   failures, summary statistics, and reproducible-by-seed replay of
//!   any flagged run;
//! * [`corpus::mine_store`] — the same sweep over a persisted trace
//!   corpus (`sentomist-tracestore`), re-mining without re-emulating;
//! * [`hunt`] — invariant-driven bug-bounty campaigns: seeded scenario
//!   sweeps checked against an explicit invariant registry, aggregated
//!   into a `BUG_REPORT.md`-shaped artifact with per-invariant detection
//!   rates and seed-exact repro lines;
//! * [`localize_set`] — the paper's future-work extension: map an
//!   outlier's deviating instruction counts back to assembly lines and
//!   routines.
//!
//! ```
//! # use std::sync::Arc;
//! # use tinyvm::{asm, devices::NodeConfig, node::Node};
//! use sentomist_core::{harvest_set, Pipeline, SampleIndex};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let program = Arc::new(asm::assemble("\
//! # .handler TIMER0 h
//! # main:
//! #  ldi r1, 4
//! #  out TIMER0_PERIOD, r1
//! #  ldi r1, 1
//! #  out TIMER0_CTRL, r1
//! #  ret
//! # h:
//! #  reti
//! # ")?);
//! // Run the application under test and record its lifecycle trace.
//! let mut node = Node::new(program.clone(), NodeConfig::default());
//! let mut recorder = sentomist_trace::Recorder::new(program.len());
//! node.run(2_000_000, &mut recorder)?;
//! let trace = recorder.into_trace();
//!
//! // Anatomize + featurize the TIMER0 event procedure, then rank.
//! let samples = harvest_set(&trace, tinyvm::isa::irq::TIMER0, |seq, _| {
//!     SampleIndex::Seq(seq)
//! })?;
//! let report = Pipeline::default_ocsvm(0.05).rank_set(samples)?;
//! println!("{}", report.table(5, 2));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod campaign;
pub mod causal;
pub mod chaos;
pub mod corpus;
pub mod hunt;
pub mod localize;
pub mod pipeline;
pub mod report;
pub mod sample;
pub mod supervise;

pub use baseline::BaselineModel;
pub use campaign::{
    summarize, summarize_result, CampaignResult, CampaignSummary, FailureKind, RunError,
    RunOutcome, Verdict,
};
pub use causal::{causal_chain, CausalChain, CausalError, ChainHop, ChainSite};
pub use chaos::{corrupt_file, truncate_file, ChaosConfig, Fault};
pub use corpus::{mine_store, MineOptions, MineReport, QuarantinedRun};
pub use hunt::{
    check_invariants, run_hunt_target, Evidence, HuntReport, InvariantId, InvariantPolicy,
    InvariantStats, IterationRecord, TargetOutcome, TargetReport, Violation, INVARIANTS,
};
pub use localize::{
    corroborate, corroborate_with_chain, localize_set, CorroboratedInstruction,
    ImplicatedInstruction,
};
pub use pipeline::{Pipeline, PipelineError};
pub use report::{RankedSample, Report};
pub use sample::{harvest_set, SampleIndex, SampleMeta, SampleSet};
pub use supervise::{
    backoff_delay_ms, run_supervised, run_supervised_typed, supervise_once, RunContext, RunFailure,
    SeedReport, SupervisedResult, SupervisorOptions, TypedReport,
};
