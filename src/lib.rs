//! # Sentomist — unveiling transient sensor network bugs via symptom mining
//!
//! A from-scratch Rust reproduction of Zhou, Chen, Lyu & Liu,
//! ["Sentomist: Unveiling Transient Sensor Network Bugs via Symptom
//! Mining"](https://doi.org/10.1109/ICDCS.2010.75), ICDCS 2010 — including
//! every substrate the paper depends on:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`tinyvm`] | Cycle-accounted sensor-node MCU emulator with TinyOS concurrency semantics (the Avrora role) |
//! | [`netsim`] | Deterministic multi-node radio simulation |
//! | [`trace`] | Lifecycle traces, one-pass interval extraction (the int-reti grammar and Criteria 1–3), instruction counters |
//! | [`tracestore`] | Persistent, versioned on-disk corpus of lifecycle traces (re-mine without re-emulating) |
//! | [`mlcore`] | One-class ν-SVM (SMO) and alternative plug-in outlier detectors |
//! | [`staticlint`] | Static interleaving analyzer: CFG, context reachability, race rules |
//! | [`core`] | The symptom-mining pipeline: scale → detect → normalize → rank (+ bug localization) |
//! | [`apps`] | The paper's three case studies with their transient bugs injected, plus oracles |
//!
//! ## Quickstart
//!
//! ```
//! use sentomist::apps::Case2Config;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Case study II: a relay that silently drops packets when its radio
//! // is mid-transmission. Its study runs the 3-node chain for 20
//! // simulated seconds and ranks the relay's packet-arrival intervals.
//! let study = Case2Config::default().study()?;
//! let (result, _traces) = study.run()?;
//! println!("{}", result.report.table(7, 2));
//! // The three true drop symptoms rank 1-2-3 out of ~200 intervals.
//! assert_eq!(result.buggy_ranks, vec![1, 2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;

pub use mlcore;
pub use netsim;
pub use staticlint;
pub use tinyvm;

/// Case studies and experiment drivers (re-export of `sentomist-apps`).
pub use sentomist_apps as apps;
/// The symptom-mining pipeline (re-export of `sentomist-core`).
pub use sentomist_core as core;
/// The long-running mining service (re-export of `sentomist-service`).
pub use sentomist_service as service;
/// Trace anatomization (re-export of `sentomist-trace`).
pub use sentomist_trace as trace;
/// Persistent trace corpus (re-export of `sentomist-tracestore`).
pub use sentomist_tracestore as tracestore;
