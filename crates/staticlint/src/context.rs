//! Execution contexts and context reachability.
//!
//! A `TinyVM` program runs in one of three kinds of context: `main`, a
//! posted task body, or an interrupt handler. Main and tasks are *base*
//! contexts — the scheduler runs at most one of them at a time, to
//! completion — while a handler for line *n* can preempt any base context
//! and any handler of a *different* line (handlers run with interrupts
//! enabled; only the in-service line is masked). Those are the only
//! concurrent pairs, so every interleaving warning involves at least one
//! interrupt context.

use crate::cfg::Cfg;
use tinyvm::Program;

/// Human-readable names of the interrupt lines, by number.
pub fn irq_name(n: u8) -> &'static str {
    match n {
        0 => "TIMER0",
        1 => "TIMER1",
        2 => "ADC",
        3 => "RX",
        4 => "TXDONE",
        _ => "IRQ?",
    }
}

/// One execution context of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Context {
    /// The `main` routine (runs once, then the scheduler).
    Main,
    /// The body of task `program.tasks[i]`.
    Task(usize),
    /// The handler vectored to interrupt line `n`.
    Irq(u8),
}

impl Context {
    /// Whether this is an interrupt context.
    pub fn is_irq(&self) -> bool {
        matches!(self, Context::Irq(_))
    }

    /// Whether this is a task context.
    pub fn is_task(&self) -> bool {
        matches!(self, Context::Task(_))
    }

    /// Whether two *distinct* contexts can interleave at instruction
    /// granularity: at least one must be an interrupt, and two handlers
    /// of the same line never nest.
    pub fn concurrent_with(&self, other: &Context) -> bool {
        match (self, other) {
            (Context::Irq(a), Context::Irq(b)) => a != b,
            (Context::Irq(_), _) | (_, Context::Irq(_)) => true,
            _ => false,
        }
    }

    /// Whether this context can preempt `other` mid-instruction-sequence
    /// (base contexts never preempt anything).
    pub fn preempts(&self, other: &Context) -> bool {
        match self {
            Context::Irq(n) => *other != Context::Irq(*n),
            _ => false,
        }
    }

    /// Display name, e.g. `main`, `task send_task`, `irq ADC`.
    pub fn describe(&self, program: &Program) -> String {
        match self {
            Context::Main => "main".to_string(),
            Context::Task(i) => format!("task {}", program.tasks[*i].name),
            Context::Irq(n) => format!("irq {}", irq_name(*n)),
        }
    }
}

/// All contexts of a program with their entry points and per-context
/// block reachability.
#[derive(Debug, Clone)]
pub struct ContextMap {
    /// Contexts in deterministic order: main, tasks in declaration
    /// order, then vectored interrupt lines in line order.
    pub contexts: Vec<(Context, u16)>,
    /// `reach[c][b]`: block `b` is reachable from context `c`'s entry.
    pub reach: Vec<Vec<bool>>,
}

impl ContextMap {
    /// Enumerates contexts and computes each one's reachable block set.
    pub fn build(program: &Program, cfg: &Cfg) -> ContextMap {
        let mut contexts: Vec<(Context, u16)> = vec![(Context::Main, program.entry)];
        for (i, task) in program.tasks.iter().enumerate() {
            contexts.push((Context::Task(i), task.entry));
        }
        for (n, vector) in program.vectors.iter().enumerate() {
            if let Some(entry) = vector {
                contexts.push((Context::Irq(n as u8), *entry));
            }
        }
        let reach = contexts
            .iter()
            .map(|&(_, entry)| cfg.reachable_from(entry))
            .collect();
        ContextMap { contexts, reach }
    }

    /// Whether block `b` is reachable from any context.
    pub fn reachable_anywhere(&self, b: usize) -> bool {
        self.reach.iter().any(|r| r[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_model() {
        let m = Context::Main;
        let t = Context::Task(0);
        let a = Context::Irq(2);
        let b = Context::Irq(3);
        assert!(!m.concurrent_with(&t));
        assert!(m.concurrent_with(&a));
        assert!(t.concurrent_with(&a));
        assert!(a.concurrent_with(&b));
        assert!(!a.concurrent_with(&Context::Irq(2)));
        assert!(a.preempts(&t));
        assert!(a.preempts(&b));
        assert!(!t.preempts(&a));
        assert!(!a.preempts(&Context::Irq(2)));
    }

    #[test]
    fn contexts_enumerated_with_reachability() {
        let p = tinyvm::assemble(
            "\
.handler TIMER0 h
.task t
main:
 ret
h:
 post t
 reti
t:
 nop
 ret
",
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        let map = ContextMap::build(&p, &cfg);
        assert_eq!(map.contexts.len(), 3);
        assert_eq!(map.contexts[0].0, Context::Main);
        assert_eq!(map.contexts[1].0, Context::Task(0));
        assert_eq!(map.contexts[2].0, Context::Irq(0));
        // The task body is not reachable from the handler (post is not a
        // control transfer).
        let task_entry_block = cfg.block_of(p.label("t").unwrap());
        assert!(map.reach[1][task_entry_block]);
        assert!(!map.reach[2][task_entry_block]);
        assert!(!map.reach[0][task_entry_block]);
    }
}
