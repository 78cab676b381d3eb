//! Static interleaving analysis for `TinyVM` programs.
//!
//! Sentomist's dynamic side mines emulation traces for symptom outliers;
//! this crate is the static counterpart. It decodes an assembled
//! [`tinyvm::Program`] into basic blocks ([`cfg`](mod@cfg)), enumerates the
//! program's execution contexts and what each can reach ([`context`]),
//! abstractly interprets every block's data-memory accesses
//! ([`access`]), and runs a set of interleaving rules ([`rules`]) that
//! understand the platform's concurrency model: only interrupts preempt,
//! so every transient bug involves an interrupt-context access racing a
//! base context or another handler.
//!
//! The entry point is [`lint`]:
//!
//! ```
//! let program = tinyvm::assemble(
//!     "main:\n halt\ndead:\n nop\n halt\n",
//! )
//! .unwrap();
//! let report = staticlint::lint(&program);
//! assert_eq!(report.warnings.len(), 1);
//! assert_eq!(report.warnings[0].kind, staticlint::WarningKind::UnreachableCode);
//! ```
//!
//! Warnings are typed ([`WarningKind`]), anchored to instruction
//! addresses with source lines and enclosing labels, and serializable —
//! the CLI pins them as golden JSON fixtures, and
//! `core::localize::corroborate` joins them against dynamically
//! implicated instructions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::must_use_candidate,
    clippy::missing_panics_doc,
    clippy::module_name_repetitions,
    clippy::cast_possible_truncation,
    clippy::similar_names,
    clippy::too_many_lines
)]

pub mod access;
pub mod cfg;
pub mod context;
pub mod report;
pub mod rules;
pub mod slice;

pub use access::{data_objects, Access, DataObject, Loc};
pub use cfg::{BasicBlock, Cfg};
pub use context::{Context, ContextMap};
pub use report::{LintReport, LintStats, Warning, WarningKind};
pub use rules::lint;
pub use slice::{
    slice_report, CrossDep, CrossEdgeReport, DependenceGraph, Slice, SliceError, SliceReport,
    SliceStats, SlicedInstruction,
};
