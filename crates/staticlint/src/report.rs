//! Typed lint warnings and the serializable report.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The category of a [`Warning`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WarningKind {
    /// A data object written by one context and read by a concurrent one
    /// with no protection, where at least one writing path publishes the
    /// object only partially (torn publication).
    UnprotectedSharedWrite,
    /// A load–modify–store of a shared word that an interrupt handler
    /// writing the same word can preempt mid-sequence.
    RmwAcrossContexts,
    /// A guarded task discards handler-produced work on its reject path
    /// without recording it anywhere — an *active drop*.
    ActiveDrop,
    /// A busy flag acquired on this path can leak: an exit neither
    /// releases it nor hands ownership to the releasing context.
    BusyFlagLeak,
    /// A `post` inside a loop of an interrupt handler can flood the
    /// task queue within one activation.
    PostInLoop,
    /// Instructions unreachable from every context entry.
    UnreachableCode,
}

impl WarningKind {
    /// Short stable identifier (used in tables and fixtures).
    pub fn slug(&self) -> &'static str {
        match self {
            WarningKind::UnprotectedSharedWrite => "unprotected-shared-write",
            WarningKind::RmwAcrossContexts => "rmw-across-contexts",
            WarningKind::ActiveDrop => "active-drop",
            WarningKind::BusyFlagLeak => "busy-flag-leak",
            WarningKind::PostInLoop => "post-in-loop",
            WarningKind::UnreachableCode => "unreachable-code",
        }
    }
}

impl fmt::Display for WarningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One finding of the static analyzer, anchored to an instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Warning {
    /// Category.
    pub kind: WarningKind,
    /// Primary anchor instruction.
    pub pc: u16,
    /// 1-based assembly source line of the anchor, if known.
    pub source_line: Option<u32>,
    /// Enclosing code label of the anchor, if any.
    pub routine: Option<String>,
    /// The data object involved, if the finding concerns one.
    pub object: Option<String>,
    /// Display names of the contexts involved.
    pub contexts: Vec<String>,
    /// Other implicated instructions (the conflicting accesses, the
    /// whole offending path, ...), sorted ascending. The corroboration
    /// join on the dynamic side matches against these too.
    pub related_pcs: Vec<u16>,
    /// Human-readable explanation.
    pub message: String,
}

/// Sizing statistics of the analyzed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintStats {
    /// Instructions analyzed.
    pub instructions: usize,
    /// Basic blocks decoded.
    pub blocks: usize,
    /// Execution contexts (main + tasks + vectored handlers).
    pub contexts: usize,
    /// Labeled data objects.
    pub data_objects: usize,
}

/// The full result of linting one program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    /// Findings, sorted by `(pc, kind)` — deterministic for a given
    /// program.
    pub warnings: Vec<Warning>,
    /// Program statistics.
    pub stats: LintStats,
}

impl LintReport {
    /// Renders a fixed-width text table of the findings.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26} {:>5} {:>5}  {:<16} message",
            "kind", "pc", "line", "routine"
        );
        for w in &self.warnings {
            let line = w
                .source_line
                .map_or_else(|| "-".to_string(), |l| l.to_string());
            let _ = writeln!(
                out,
                "{:<26} {:>5} {:>5}  {:<16} {}",
                w.kind.slug(),
                w.pc,
                line,
                w.routine.as_deref().unwrap_or("-"),
                w.message
            );
        }
        let _ = writeln!(
            out,
            "{} warning(s) over {} instructions, {} blocks, {} contexts, {} data objects",
            self.warnings.len(),
            self.stats.instructions,
            self.stats.blocks,
            self.stats.contexts,
            self.stats.data_objects
        );
        out
    }
}
