//! Event-handling-interval extraction: Criteria 1–3 of the paper's
//! Section V-B, applied in one pass over the lifecycle sequence.
//!
//! * **Criterion 1**: the task posted via the *i*-th `postTask` is executed
//!   via the *i*-th `runTask` (the OS queue is FIFO).
//! * **Criterion 2**: within an int-reti string, all items outside nested
//!   int-reti substrings are `postTask`s of the string's own handler.
//! * **Criterion 3**: all depth-0 `postTask`s between two consecutive
//!   `runTask`s are posted by the task started at the first `runTask`.
//!
//! [`OnlineExtractor`] tracks every event-procedure instance as its items
//! arrive, and [`extract()`] feeds a whole trace through it. The tracker's
//! stack of open handlers is the pushdown automaton of the *int-reti
//! string* grammar (paper Definition 3),
//!
//! ```text
//! S -> int(n) R reti
//! R -> P | P S R
//! P -> postTask P | ε
//! ```
//!
//! so only `postTask` items and nested int-reti strings may appear between
//! an `int(n)` and its `reti` (Rule 2: tasks never run inside a handler).
//! Its queue of posts, each tagged with the instance that owns it, applies
//! Criteria 1–3 as the items arrive. It consumes only the lifecycle
//! sequence — never the VM's ground-truth ownership — exactly as Sentomist
//! must when observing a real system.
//!
//! The paper's Figure 4 finds the same intervals with a breadth-first
//! search over the tasks each instance transitively posts. That search is
//! the test reference for [`extract()`]; DESIGN.md argues why the two agree
//! on every sequence the concurrency model can produce. `TaskEnd` items (a
//! tracing extension absent from the paper's 4-item alphabet) only close
//! the wall-clock span of an instance whose last task has started.

use crate::recorder::Trace;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use tinyvm::{LifecycleItem, TaskId};

/// One extracted event-handling interval (paper Definition 2): the lifetime
/// of an event-procedure instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventInterval {
    /// IRQ line of the instance's handler — the *event type*.
    pub irq: u8,
    /// Index of the opening `Int` event.
    pub start_index: usize,
    /// Index of the closing event: the handler's `reti` for task-less
    /// instances, else the `TaskEnd` of the instance's last task.
    pub end_index: usize,
    /// The paper's `loc` output — the final `runTask` index — when the
    /// instance posted tasks.
    pub last_run_index: Option<usize>,
    /// Cycle of the opening `Int`.
    pub start_cycle: u64,
    /// Cycle of the closing event.
    pub end_cycle: u64,
    /// Tasks transitively posted by the instance.
    pub task_count: u32,
}

/// Result of extracting every instance from a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Extraction {
    /// Complete intervals, in `Int`-occurrence order.
    pub intervals: Vec<EventInterval>,
    /// Instances whose lifetime ran past the end of the trace (their
    /// handler or a posted task never finished within the recording).
    pub incomplete: usize,
}

impl Extraction {
    /// Intervals whose handler serviced `irq`, preserving order — the
    /// per-event-type sample groups Sentomist mines.
    pub fn for_irq(&self, irq: u8) -> Vec<EventInterval> {
        self.intervals
            .iter()
            .copied()
            .filter(|iv| iv.irq == irq)
            .collect()
    }
}

/// A lifecycle item the int-reti grammar rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrammarError {
    /// A `runTask`/`taskEnd` item appeared inside a handler region, which
    /// the concurrency model forbids.
    TaskInsideHandler {
        /// Index of the offending item.
        index: usize,
    },
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::TaskInsideHandler { index } => {
                write!(f, "task item inside a handler region at {index}")
            }
        }
    }
}

impl Error for GrammarError {}

/// An ill-formed lifecycle sequence (impossible under the concurrency
/// model; indicates a corrupted trace or a non-FIFO scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtractError {
    /// The int-reti grammar rejected the sequence.
    Grammar(GrammarError),
    /// Criterion 1 violated: a `runTask` did not start the oldest queued
    /// task.
    FifoViolation {
        /// Index of the oldest queued `postTask` event.
        post_index: usize,
        /// Index of the `runTask` event.
        run_index: usize,
    },
    /// The trace's count segments are structurally broken (wrong segment
    /// count or ragged widths), detected while featurizing intervals.
    Malformed(crate::counter::CounterError),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Grammar(g) => write!(f, "ill-formed lifecycle sequence: {g}"),
            ExtractError::FifoViolation {
                post_index,
                run_index,
            } => write!(
                f,
                "FIFO violation: post at {post_index} does not match run at {run_index}"
            ),
            ExtractError::Malformed(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ExtractError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExtractError::Grammar(g) => Some(g),
            ExtractError::FifoViolation { .. } => None,
            ExtractError::Malformed(e) => Some(e),
        }
    }
}

impl From<crate::counter::CounterError> for ExtractError {
    fn from(e: crate::counter::CounterError) -> Self {
        ExtractError::Malformed(e)
    }
}

/// Bookkeeping of one event-procedure instance.
#[derive(Debug, Clone)]
struct Instance {
    irq: u8,
    start_index: usize,
    start_cycle: u64,
    handler_open: bool,
    /// Posts of this instance that no `runTask` has started yet.
    queued: u32,
    task_count: u32,
    last_run_index: Option<usize>,
}

/// Streaming interval tracker: feed each lifecycle item as it occurs, and
/// every interval is returned by the item that completes it.
///
/// Memory holds one small record per instance seen, the handler stack
/// and the queued posts — never the lifecycle sequence itself.
///
/// # Examples
///
/// ```
/// use sentomist_trace::OnlineExtractor;
/// use tinyvm::{LifecycleItem as L, TaskId};
///
/// # fn main() -> Result<(), sentomist_trace::ExtractError> {
/// let mut ex = OnlineExtractor::new();
/// let items = [
///     L::Int(2),
///     L::PostTask(TaskId(0)),
///     L::Reti,
///     L::RunTask(TaskId(0)),
///     L::TaskEnd(TaskId(0)),
/// ];
/// let mut done = Vec::new();
/// for (i, item) in items.into_iter().enumerate() {
///     done.extend(ex.feed(i, i as u64, item)?);
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].end_index, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineExtractor {
    /// Every instance opened so far; indices are stable instance ids.
    instances: Vec<Instance>,
    /// Ids of the open handlers, innermost last.
    handlers: Vec<usize>,
    /// Posted tasks not yet run, oldest first: `(post index, task, owner)`.
    /// The owner is `None` for boot posts and posts of ownerless tasks.
    queue: VecDeque<(usize, TaskId, Option<usize>)>,
    /// Owner of the running task, until its `TaskEnd`.
    running: Option<usize>,
    /// Instances opened but not yet closed.
    open: usize,
}

impl OnlineExtractor {
    /// Creates an empty tracker.
    pub fn new() -> OnlineExtractor {
        OnlineExtractor::default()
    }

    /// Number of instances currently open (bounded by handler nesting plus
    /// instances awaiting task completion — not by trace length).
    pub fn open_instances(&self) -> usize {
        self.open
    }

    /// Feeds the lifecycle item at stream position `index`, occurring at
    /// `cycle`; returns the interval it completes, if any (an item
    /// completes at most one).
    ///
    /// An instance's task counts as done when it *starts*: the instance
    /// closes at its handler's `reti` if it posted nothing, else at the
    /// `TaskEnd` of its last started task. A `reti` with no open handler
    /// is ignored.
    ///
    /// # Errors
    ///
    /// * [`GrammarError::TaskInsideHandler`] for a `runTask` or `TaskEnd`
    ///   while a handler is open;
    /// * [`ExtractError::FifoViolation`] for a `runTask` whose task is not
    ///   the oldest queued one.
    pub fn feed(
        &mut self,
        index: usize,
        cycle: u64,
        item: LifecycleItem,
    ) -> Result<Option<EventInterval>, ExtractError> {
        match item {
            LifecycleItem::Int(irq) => {
                self.handlers.push(self.instances.len());
                self.instances.push(Instance {
                    irq,
                    start_index: index,
                    start_cycle: cycle,
                    handler_open: true,
                    queued: 0,
                    task_count: 0,
                    last_run_index: None,
                });
                self.open += 1;
            }
            LifecycleItem::PostTask(task) => {
                // Criterion 2, else Criterion 3.
                let owner = self.handlers.last().copied().or(self.running);
                if let Some(id) = owner {
                    self.instances[id].queued += 1;
                    self.instances[id].task_count += 1;
                }
                self.queue.push_back((index, task, owner));
            }
            LifecycleItem::Reti => {
                if let Some(id) = self.handlers.pop() {
                    self.instances[id].handler_open = false;
                    return Ok(self.close_if_done(id, index, cycle));
                }
            }
            LifecycleItem::RunTask(_) | LifecycleItem::TaskEnd(_) if !self.handlers.is_empty() => {
                return Err(ExtractError::Grammar(GrammarError::TaskInsideHandler {
                    index,
                }));
            }
            LifecycleItem::RunTask(task) => {
                // Criterion 1; with nothing queued the task is ownerless.
                self.running = match self.queue.pop_front() {
                    Some((post_index, posted, _)) if posted != task => {
                        return Err(ExtractError::FifoViolation {
                            post_index,
                            run_index: index,
                        });
                    }
                    Some((_, _, owner)) => owner,
                    None => None,
                };
                if let Some(id) = self.running {
                    self.instances[id].queued -= 1;
                    self.instances[id].last_run_index = Some(index);
                }
            }
            LifecycleItem::TaskEnd(_) => {
                if let Some(id) = self.running.take() {
                    return Ok(self.close_if_done(id, index, cycle));
                }
            }
        }
        Ok(None)
    }

    /// Closes instance `id` at the item `index` if its handler has
    /// returned and every task it posted has started.
    fn close_if_done(&mut self, id: usize, index: usize, cycle: u64) -> Option<EventInterval> {
        let inst = &self.instances[id];
        if inst.handler_open || inst.queued > 0 {
            return None;
        }
        self.open -= 1;
        Some(EventInterval {
            irq: inst.irq,
            start_index: inst.start_index,
            end_index: index,
            last_run_index: inst.last_run_index,
            start_cycle: inst.start_cycle,
            end_cycle: cycle,
            task_count: inst.task_count,
        })
    }
}

/// Extracts every event-handling interval from `trace`.
///
/// Every `Int` event — including those of handlers that preempted other
/// handlers — starts an instance; instances still open when the trace ends
/// are counted in [`Extraction::incomplete`].
///
/// # Errors
///
/// Returns [`ExtractError`] only for ill-formed sequences that the
/// concurrency model cannot produce; see [`OnlineExtractor::feed`].
///
/// # Examples
///
/// ```
/// # use std::sync::Arc;
/// # use tinyvm::{asm, devices::NodeConfig, node::Node};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let program = Arc::new(asm::assemble("\
/// # .handler TIMER0 h
/// # main:
/// #  ldi r1, 4
/// #  out TIMER0_PERIOD, r1
/// #  ldi r1, 1
/// #  out TIMER0_CTRL, r1
/// #  ret
/// # h:
/// #  reti
/// # ")?);
/// let mut node = Node::new(program.clone(), NodeConfig::default());
/// let mut recorder = sentomist_trace::Recorder::new(program.len());
/// node.run(100_000, &mut recorder)?;
/// let trace = recorder.into_trace();
/// let extraction = sentomist_trace::extract(&trace)?;
/// assert!(extraction.intervals.len() > 50);
/// # Ok(())
/// # }
/// ```
pub fn extract(trace: &Trace) -> Result<Extraction, ExtractError> {
    let mut tracker = OnlineExtractor::new();
    let mut intervals = Vec::new();
    for (index, event) in trace.events.iter().enumerate() {
        intervals.extend(tracker.feed(index, event.cycle, event.item)?);
    }
    intervals.sort_unstable_by_key(|iv| iv.start_index);
    Ok(Extraction {
        intervals,
        incomplete: tracker.open_instances(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceEvent;

    fn int(n: u8) -> LifecycleItem {
        LifecycleItem::Int(n)
    }
    fn reti() -> LifecycleItem {
        LifecycleItem::Reti
    }
    fn post(t: u16) -> LifecycleItem {
        LifecycleItem::PostTask(TaskId(t))
    }
    fn run(t: u16) -> LifecycleItem {
        LifecycleItem::RunTask(TaskId(t))
    }
    fn end(t: u16) -> LifecycleItem {
        LifecycleItem::TaskEnd(TaskId(t))
    }

    fn trace_of(items: &[LifecycleItem]) -> Trace {
        Trace {
            events: items
                .iter()
                .enumerate()
                .map(|(i, &item)| TraceEvent {
                    cycle: i as u64 * 10,
                    item,
                })
                .collect(),
            segments: vec![vec![]; items.len() + 1],
            program_len: 0,
        }
    }

    #[test]
    fn handler_only_instance() {
        let t = trace_of(&[int(2), reti()]);
        let x = extract(&t).unwrap();
        assert_eq!(x.intervals.len(), 1);
        let iv = x.intervals[0];
        assert_eq!(iv.irq, 2);
        assert_eq!((iv.start_index, iv.end_index), (0, 1));
        assert_eq!(iv.task_count, 0);
        assert_eq!(iv.last_run_index, None);
    }

    #[test]
    fn single_task_instance() {
        let t = trace_of(&[int(0), post(5), reti(), run(5), end(5)]);
        let x = extract(&t).unwrap();
        let iv = x.intervals[0];
        assert_eq!(iv.end_index, 4);
        assert_eq!(iv.last_run_index, Some(3));
        assert_eq!(iv.task_count, 1);
    }

    #[test]
    fn figure_1_scenario() {
        // The paper's Figure 1: handler posts A and B; A posts C; B is
        // preempted by another handler; C is the last task.
        // t0..t11 mapped to items:
        let items = [
            int(0),   // 0  t0 handler starts
            post(10), // 1  t1 post A
            post(11), // 2  t2 post B
            reti(),   // 3  t3 handler ends
            run(10),  // 4  t4 A starts
            post(12), // 5  t5 A posts C
            end(10),  // 6  t6 A ends
            run(11),  // 7     B starts
            int(1),   // 8  t7 another handler preempts B
            reti(),   // 9  t8 it exits
            end(11),  // 10 t9 B ends
            run(12),  // 11 t10 C starts
            end(12),  // 12 t11 C ends
        ];
        let t = trace_of(&items);
        let x = extract(&t).unwrap();
        assert_eq!(x.intervals.len(), 2);
        let main = x.intervals[0];
        assert_eq!(main.irq, 0);
        assert_eq!(main.start_index, 0);
        assert_eq!(main.last_run_index, Some(11), "loc = C's runTask");
        assert_eq!(main.end_index, 12, "interval ends at C's completion (t11)");
        assert_eq!(main.task_count, 3);
        // The preempting handler is its own (task-less) instance.
        let nested = x.intervals[1];
        assert_eq!(nested.irq, 1);
        assert_eq!((nested.start_index, nested.end_index), (8, 9));
    }

    #[test]
    fn motivating_example_outlier_pattern() {
        // Paper section V: the buggy pattern "ADC int, post, reti, ADC int,
        // reti, run" — the second int lands inside the first instance's
        // interval.
        let items = [int(2), post(0), reti(), int(2), reti(), run(0), end(0)];
        let t = trace_of(&items);
        let x = extract(&t).unwrap();
        assert_eq!(x.intervals.len(), 2);
        let first = x.intervals[0];
        let second = x.intervals[1];
        // The second instance lies inside the first one's interval: overlap.
        assert!(second.start_index > first.start_index);
        assert!(second.end_index < first.end_index);
    }

    #[test]
    fn interleaved_posts_from_two_instances() {
        // Two handler instances interleave task posting; FIFO matching must
        // pair them correctly.
        let items = [
            int(0),
            post(1),
            reti(),
            int(1),
            post(2),
            reti(),
            run(1),
            end(1),
            run(2),
            end(2),
        ];
        let t = trace_of(&items);
        let x = extract(&t).unwrap();
        assert_eq!(x.intervals[0].end_index, 7);
        assert_eq!(x.intervals[1].end_index, 9);
    }

    #[test]
    fn task_posting_task_chain() {
        // A task posts a task which posts a task.
        let items = [
            int(0),
            post(1),
            reti(),
            run(1),
            post(2),
            end(1),
            run(2),
            post(3),
            end(2),
            run(3),
            end(3),
        ];
        let t = trace_of(&items);
        let x = extract(&t).unwrap();
        let iv = x.intervals[0];
        assert_eq!(iv.task_count, 3);
        assert_eq!(iv.end_index, 10);
    }

    #[test]
    fn posts_inside_nested_handler_belong_to_nested_instance() {
        // While task 1 runs, a handler fires and posts task 2: task 2
        // belongs to the *nested* instance, not the outer one.
        let items = [
            int(0),
            post(1),
            reti(),
            run(1),
            int(1),
            post(2),
            reti(),
            end(1),
            run(2),
            end(2),
        ];
        let t = trace_of(&items);
        let x = extract(&t).unwrap();
        let outer = x.intervals[0];
        let nested = x.intervals[1];
        assert_eq!(outer.task_count, 1);
        assert_eq!(outer.end_index, 7);
        assert_eq!(nested.task_count, 1);
        assert_eq!(nested.end_index, 9);
    }

    #[test]
    fn truncated_instances_counted_incomplete() {
        // Post never runs: trace ends.
        let t = trace_of(&[int(0), post(1), reti()]);
        let x = extract(&t).unwrap();
        assert_eq!(x.intervals.len(), 0);
        assert_eq!(x.incomplete, 1);

        // Handler never exits.
        let t = trace_of(&[int(0), post(1)]);
        let x = extract(&t).unwrap();
        assert_eq!(x.incomplete, 1);

        // Task runs but never ends.
        let t = trace_of(&[int(0), post(1), reti(), run(1)]);
        let x = extract(&t).unwrap();
        assert_eq!(x.incomplete, 1);
    }

    #[test]
    fn fifo_violation_detected() {
        let t = trace_of(&[int(0), post(1), post(2), reti(), run(2), end(2)]);
        let e = extract(&t).unwrap_err();
        assert!(matches!(e, ExtractError::FifoViolation { .. }));
    }

    #[test]
    fn task_items_inside_a_handler_are_rejected() {
        for (items, index) in [
            (vec![post(0), int(0), run(0), reti()], 2),
            (vec![post(0), run(0), int(1), end(0), reti()], 3),
        ] {
            assert_eq!(
                extract(&trace_of(&items)),
                Err(ExtractError::Grammar(GrammarError::TaskInsideHandler {
                    index
                }))
            );
        }
    }

    #[test]
    fn for_irq_filters_groups() {
        let items = [int(0), reti(), int(2), reti(), int(0), reti()];
        let t = trace_of(&items);
        let x = extract(&t).unwrap();
        assert_eq!(x.for_irq(0).len(), 2);
        assert_eq!(x.for_irq(2).len(), 1);
        assert_eq!(x.for_irq(4).len(), 0);
    }

    #[test]
    fn boot_posts_do_not_create_intervals_but_shift_matching() {
        // main posts a boot task before any interrupt; ordinal matching
        // must still pair handler posts correctly.
        let items = [
            post(9),
            run(9),
            end(9),
            int(0),
            post(1),
            reti(),
            run(1),
            end(1),
        ];
        let t = trace_of(&items);
        let x = extract(&t).unwrap();
        assert_eq!(x.intervals.len(), 1);
        assert_eq!(x.intervals[0].end_index, 7);
    }

    #[test]
    fn empty_trace_extracts_nothing() {
        let t = trace_of(&[]);
        let x = extract(&t).unwrap();
        assert!(x.intervals.is_empty());
        assert_eq!(x.incomplete, 0);
    }

    #[test]
    fn emits_on_completion_not_at_end() {
        let mut ex = OnlineExtractor::new();
        assert_eq!(ex.feed(0, 0, int(0)), Ok(None));
        let done = ex.feed(1, 10, reti()).unwrap().unwrap();
        assert_eq!(done.start_index, 0);
        assert_eq!(done.end_index, 1);
        assert_eq!(ex.open_instances(), 0);
    }

    #[test]
    fn open_instance_count_is_bounded_by_activity() {
        // 3 nested handlers -> 3 open; closing unwinds.
        let mut ex = OnlineExtractor::new();
        for (i, item) in [int(0), int(1), int(2)].into_iter().enumerate() {
            ex.feed(i, i as u64, item).unwrap();
        }
        assert_eq!(ex.open_instances(), 3);
        for i in 3..6 {
            ex.feed(i, i as u64, reti()).unwrap();
        }
        assert_eq!(ex.open_instances(), 0);
    }

    #[test]
    fn truncated_instances_stay_open() {
        let mut ex = OnlineExtractor::new();
        ex.feed(0, 0, int(0)).unwrap();
        ex.feed(1, 1, post(1)).unwrap();
        assert_eq!(ex.feed(2, 2, reti()), Ok(None));
        assert_eq!(ex.open_instances(), 1);
    }

    #[test]
    fn boot_tasks_are_ownerless() {
        let mut ex = OnlineExtractor::new();
        assert_eq!(ex.feed(0, 0, post(5)), Ok(None));
        assert_eq!(ex.feed(1, 1, run(5)), Ok(None));
        assert_eq!(ex.feed(2, 2, end(5)), Ok(None));
        assert_eq!(ex.open_instances(), 0);
    }
}
