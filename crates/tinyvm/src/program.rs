//! Assembled program representation.

use crate::isa::{irq, Op};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A deferred task declared with the assembler's `.task` directive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskDef {
    /// The task's label (also its entry point name).
    pub name: String,
    /// Entry instruction index.
    pub entry: u16,
}

/// An assembled TinyVM program: text, vector table, task table and data
/// initialization image.
///
/// Programs are produced by [`crate::asm::assemble`] and executed by
/// [`crate::node::Node`]. The instruction index space of `ops` is exactly
/// the dimension of Sentomist instruction counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Program text; the PC indexes this vector.
    pub ops: Vec<Op>,
    /// Source line (1-based) of each instruction, parallel to `ops`.
    pub src_lines: Vec<u32>,
    /// All labels (code and data) with their resolved values.
    pub labels: BTreeMap<String, u16>,
    /// Interrupt vector table: entry PC per IRQ line.
    pub vectors: [Option<u16>; irq::NUM_IRQS],
    /// Task table; [`crate::isa::TaskId`] indexes it.
    pub tasks: Vec<TaskDef>,
    /// Initialized data words: `(address, value)` pairs applied at reset.
    pub data_init: Vec<(u16, u16)>,
    /// Number of data words reserved from address 0 upward.
    pub data_size: u16,
    /// Entry point (the `main` label).
    pub entry: u16,
    /// Labels that refer to data addresses rather than code.
    #[serde(default)]
    pub(crate) data_label_set: BTreeSet<String>,
}

impl Program {
    /// Number of instructions; the dimensionality of instruction counters.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Source line (1-based) of the instruction at `pc`, if in range.
    pub fn source_line(&self, pc: u16) -> Option<u32> {
        self.src_lines.get(pc as usize).copied()
    }

    /// Resolves a label to its value (instruction index or data address).
    pub fn label(&self, name: &str) -> Option<u16> {
        self.labels.get(name).copied()
    }

    /// Returns the code label that *starts* at instruction `pc`, if any.
    pub fn label_at(&self, pc: u16) -> Option<&str> {
        self.labels
            .iter()
            .find(|(name, &v)| v == pc && self.is_code_label(name))
            .map(|(name, _)| name.as_str())
    }

    /// Returns the nearest code label at or before `pc` — the routine the
    /// instruction belongs to, under the convention that routines are
    /// label-delimited.
    pub fn enclosing_label(&self, pc: u16) -> Option<&str> {
        self.labels
            .iter()
            .filter(|(name, &v)| v <= pc && self.is_code_label(name))
            .max_by_key(|(_, &v)| v)
            .map(|(name, _)| name.as_str())
    }

    /// Names of labels that refer to data addresses rather than code.
    pub fn data_labels(&self) -> &BTreeSet<String> {
        &self.data_label_set
    }

    pub(crate) fn set_data_labels(&mut self, labels: BTreeSet<String>) {
        self.data_label_set = labels;
    }

    fn is_code_label(&self, name: &str) -> bool {
        !self.data_label_set.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use crate::asm::assemble;

    #[test]
    fn source_line_out_of_range_is_none() {
        let p = assemble("main:\n nop\n ret\n").unwrap();
        assert_eq!(p.source_line(0), Some(2));
        assert_eq!(p.source_line(100), None);
    }

    #[test]
    fn enclosing_label_finds_routine() {
        let p = assemble("main:\n nop\n ret\nhelper:\n nop\n nop\n ret\n").unwrap();
        let helper = p.label("helper").unwrap();
        assert_eq!(p.enclosing_label(helper + 1), Some("helper"));
        assert_eq!(p.enclosing_label(0), Some("main"));
    }
}
