//! Execution profiling from recorded traces — the role of Avrora's
//! profiling monitors: attribute a run's instruction executions (and
//! their cycle costs) to routines.
//!
//! Because every instruction has a fixed cycle cost, exact per-instruction
//! cycle totals follow directly from the Definition-4 counters; no extra
//! instrumentation is needed.

use crate::counter::{check_segments, CounterError};
use crate::recorder::Trace;
use serde::{Deserialize, Serialize};
use tinyvm::Program;

/// Aggregated execution statistics of one routine (label-delimited code
/// region).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutineProfile {
    /// Routine name (the enclosing code label).
    pub routine: String,
    /// Total instruction executions attributed to the routine.
    pub executions: u64,
    /// Total cycles those executions consumed (base costs; taken-branch
    /// extras are not included, so this is a tight lower bound).
    pub cycles: u64,
    /// First instruction index of the routine.
    pub entry_pc: u16,
}

/// A whole-program profile.
///
/// # Examples
///
/// ```
/// # use std::sync::Arc;
/// # use tinyvm::{devices::NodeConfig, node::Node};
/// use sentomist_trace::{Profile, Recorder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Arc::new(tinyvm::assemble("main:\n nop\n halt\n")?);
/// let mut node = Node::new(program.clone(), NodeConfig::default());
/// let mut rec = Recorder::new(program.len());
/// node.run(1_000, &mut rec)?;
/// let profile = Profile::try_of_trace(&rec.into_trace(), &program)?;
/// assert_eq!(profile.total_executions, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    /// Per-routine rows, sorted by descending cycles.
    pub routines: Vec<RoutineProfile>,
    /// Total instruction executions.
    pub total_executions: u64,
    /// Total attributed cycles.
    pub total_cycles: u64,
}

impl Profile {
    /// Profiles an entire recorded run of `program`.
    ///
    /// # Errors
    ///
    /// [`CounterError::SegmentCount`] or [`CounterError::SegmentWidth`]
    /// for a structurally broken trace, and [`CounterError::WidthMismatch`]
    /// if the program's length differs from the trace's.
    pub fn try_of_trace(trace: &Trace, program: &Program) -> Result<Profile, CounterError> {
        check_segments(trace)?;
        if program.len() != trace.program_len {
            return Err(CounterError::WidthMismatch {
                expected: program.len(),
                got: trace.program_len,
            });
        }
        let mut counts = vec![0u64; trace.program_len];
        for seg in &trace.segments {
            for (c, &v) in counts.iter_mut().zip(seg) {
                *c += u64::from(v);
            }
        }
        Ok(Profile::build(&counts, program))
    }

    fn build(counts: &[u64], program: &Program) -> Profile {
        use std::collections::BTreeMap;
        let mut rows: BTreeMap<&str, RoutineProfile> = BTreeMap::new();
        let mut total_executions = 0u64;
        let mut total_cycles = 0u64;
        for (pc, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let pc16 = pc as u16;
            let routine = program.enclosing_label(pc16).unwrap_or("<unlabeled>");
            let cycles = count * program.ops[pc].cycles();
            total_executions += count;
            total_cycles += cycles;
            let entry = program.label(routine).unwrap_or(0);
            let row = rows.entry(routine).or_insert_with(|| RoutineProfile {
                routine: routine.to_string(),
                executions: 0,
                cycles: 0,
                entry_pc: entry,
            });
            row.executions += count;
            row.cycles += cycles;
        }
        let mut routines: Vec<RoutineProfile> = rows.into_values().collect();
        routines.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.entry_pc.cmp(&b.entry_pc)));
        Profile {
            routines,
            total_executions,
            total_cycles,
        }
    }

    /// Renders a ranked table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>7}",
            "routine", "executions", "cycles", "share"
        );
        for r in &self.routines {
            let share = if self.total_cycles > 0 {
                r.cycles as f64 / self.total_cycles as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>12} {:>6.1}%",
                r.routine, r.executions, r.cycles, share
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12}",
            "total", self.total_executions, self.total_cycles
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::Arc;
    use tinyvm::devices::NodeConfig;
    use tinyvm::node::Node;

    const APP: &str = "\
.handler TIMER0 h
.task heavy
main:
 ldi r1, 8
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
h:
 post heavy
 reti
heavy:
 ldi r2, 50
spin:
 subi r2, 1
 brne spin
 ret
";

    fn run() -> (Arc<tinyvm::Program>, Trace, u64) {
        let program = Arc::new(tinyvm::assemble(APP).unwrap());
        let mut node = Node::new(program.clone(), NodeConfig::default());
        let mut rec = Recorder::new(program.len());
        node.run(500_000, &mut rec).unwrap();
        let retired = node.instructions_retired();
        (program, rec.into_trace(), retired)
    }

    #[test]
    fn whole_run_profile_accounts_every_instruction() {
        let (program, trace, retired) = run();
        let profile = Profile::try_of_trace(&trace, &program).unwrap();
        assert_eq!(profile.total_executions, retired);
        // The spin loop dominates.
        assert_eq!(profile.routines[0].routine, "spin");
        assert!(profile.total_cycles > profile.total_executions);
    }

    #[test]
    fn table_lists_routines_and_total() {
        let (program, trace, _) = run();
        let profile = Profile::try_of_trace(&trace, &program).unwrap();
        let t = profile.table();
        assert!(t.contains("spin"));
        assert!(t.contains("total"));
        assert!(t.contains('%'));
    }

    #[test]
    fn try_apis_reject_mismatched_dimensions() {
        let (program, trace, _) = run();
        let nop = tinyvm::assemble("main:\n nop\n ret\n").unwrap();
        assert_eq!(
            Profile::try_of_trace(&trace, &nop).unwrap_err(),
            CounterError::WidthMismatch {
                expected: 2,
                got: program.len()
            }
        );
        let mut ragged = trace.clone();
        ragged.segments[0] = vec![1];
        let got = Profile::try_of_trace(&ragged, &program).unwrap_err();
        assert!(matches!(got, CounterError::SegmentWidth { index: 0, .. }));
        let mut short = trace;
        short.segments.pop();
        let got = Profile::try_of_trace(&short, &program).unwrap_err();
        assert!(matches!(got, CounterError::SegmentCount { .. }));
    }

    #[test]
    fn zero_counts_profile_is_empty() {
        let program = tinyvm::assemble("main:\n nop\n ret\n").unwrap();
        let idle = Trace {
            events: vec![],
            segments: vec![vec![0, 0]],
            program_len: 2,
        };
        let profile = Profile::try_of_trace(&idle, &program).unwrap();
        assert!(profile.routines.is_empty());
        assert_eq!(profile.total_cycles, 0);
    }
}
