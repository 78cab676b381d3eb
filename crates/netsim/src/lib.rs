//! # netsim — deterministic multi-node WSN simulation
//!
//! Binds several [`tinyvm`] sensor nodes into one network: a [`Topology`]
//! of lossy, latency-bearing radio links and a conservative
//! discrete-event engine ([`NetSim`]) that keeps node clocks synchronized
//! within a lookahead window derived from the smallest link latency.
//!
//! This crate plays the role of Avrora's multi-node network simulation in
//! the Sentomist reproduction: case studies II (multi-hop forwarding) and
//! III (CTP + heartbeat contention) run on it.
//!
//! Determinism: given the same programs, node configs, topology and seeds,
//! a simulation replays bit-identically — every experiment in the
//! reproduction is exactly re-runnable.
//!
//! Scheduling: the engine always advances the laggard node, but almost
//! every such step lands on a node with nothing to do before its next
//! timer or packet (a 15 s case-III run takes about 1.07 M steps, and
//! fewer than 2 k of them reach a node with work). [`NetSim::run`]
//! applies those steps to a clock array without touching the node, and
//! skips whole repetitions of a recurring idle pattern at once. Skipping
//! is exact: every trace, delivery, loss draw and final node cycle is the
//! one a plain step-by-step scan produces, and a property test checks
//! exactly that against a verbatim copy of the scan. See [`NetSim::run`]
//! for why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sim;
pub mod topology;

pub use sim::{Delivery, NetSim, SimError};
pub use topology::{LinkConfig, Topology, TopologyError, MIN_LINK_LATENCY};
