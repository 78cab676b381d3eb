//! # sentomist-trace — lifecycle anatomization for Sentomist
//!
//! This crate implements Section V-A/V-B of ["Sentomist: Unveiling
//! Transient Sensor Network Bugs via Symptom
//! Mining"](https://doi.org/10.1109/ICDCS.2010.75): turning the raw system
//! lifecycle sequence of an event-driven WSN node into *event-handling
//! intervals*, each featurized as an *instruction counter*.
//!
//! * [`Recorder`] captures a node's lifecycle stream and instruction-count
//!   segments (the Avrora-monitor role);
//! * [`OnlineExtractor`] anatomizes the sequence in one pass: a handler
//!   stack recognizes *int-reti strings* (paper Definition 3) and a FIFO
//!   of owned posts applies Criteria 1–3, so each interval is returned by
//!   the item that completes it — from a live node or a stored trace;
//! * [`extract()`](extract::extract) runs that tracker over a whole trace;
//!   the paper's Figure-4 breadth-first search is kept in the crate's
//!   tests as the reference it must equal;
//! * [`CounterTable`] produces Definition-4 instruction counters per
//!   interval in O(program length) per query;
//! * [`Profile`] attributes a run's executions and cycles to routines.
//!
//! Every query on a trace read from outside the program is fallible:
//! structural defects come back as [`CounterError`] or [`ExtractError`].
//! The extraction consumes only the lifecycle sequence — the VM's
//! ground-truth instance bookkeeping is used exclusively by tests that
//! validate the inference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod extract;
pub mod profile;
pub mod recorder;

pub use counter::{CounterError, CounterTable};
pub use extract::{
    extract, EventInterval, ExtractError, Extraction, GrammarError, OnlineExtractor,
};
pub use profile::{Profile, RoutineProfile};
pub use recorder::{ProtocolViolation, Recorder, Trace, TraceEvent};
