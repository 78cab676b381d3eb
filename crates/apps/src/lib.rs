//! # sentomist-apps — case-study applications and experiment drivers
//!
//! The three evaluation case studies of ["Sentomist: Unveiling Transient
//! Sensor Network Bugs via Symptom
//! Mining"](https://doi.org/10.1109/ICDCS.2010.75), rebuilt as TinyVM
//! assembly programs with the paper's transient bugs faithfully injected:
//!
//! * [`oscilloscope`] — case I: the Figure-2 data-pollution race in a
//!   single-hop data-collection application (ADC interrupt);
//! * [`forwarder`] — case II: the busy-flag active packet drop in a
//!   multi-hop forwarding relay (radio/SPI interrupt);
//! * [`ctp`] — case III: the unhandled send-failure hang when a CTP-style
//!   collection protocol and a heartbeat protocol contend for one radio
//!   chip (timer interrupt).
//!
//! Each module also ships a *fixed* variant of its application.
//! [`experiments`] describes every experiment as one [`Study`] (the
//! emulated nodes, their network, the mined interrupt, which traces are
//! pooled and how they are labelled, a machine-checkable ground-truth
//! oracle and the detector) and drives the full Sentomist pipeline over
//! it with one emulator and one miner. [`jobs`] turns the campaign modes
//! into per-seed studies, and [`mod@scenario`] does the same for the hunt's
//! mutated scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctp;
pub mod experiments;
pub mod forwarder;
pub mod jobs;
pub mod oscilloscope;
pub mod scenario;

pub use experiments::{
    trigger_job, Case1Config, Case2Config, Case3Config, CaseResult, DetectorKind, Emulation, Study,
};
pub use jobs::{
    bundled_program, bundled_slice_report, campaign_document, default_slice_seeds, fnv64,
    mine_corpus, slice_document, CorpusMineOptions, JobError, MinedCorpus, Mode, StoreMiner,
    SupervisedTracedJob,
};
pub use scenario::{
    emulate_scenario, hunt_iteration, mine_scenario, scenario, scenario_evidence, scenario_program,
    HuntCase, HuntScenario, MinedScenario, ScenarioParams, Variant,
};
