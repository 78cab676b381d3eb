//! The paper's Figure-4 interval extraction, kept verbatim as the test
//! reference for [`sentomist_trace::extract`].
//!
//! The library anatomizes a lifecycle sequence in one pass with
//! `OnlineExtractor`. This module is the breadth-first search of the
//! paper's Figure 4 as the library ran it before: Criterion 1 pairs posts
//! and runs by global ordinal (`TaskMatching`), the int-reti pushdown
//! automaton (`grammar`) delimits each handler's string, and the search
//! follows every instance's tasks to its last `runTask` — the paper's
//! `loc`. Only the imports and the conversion of this module's own
//! `GrammarError` (which keeps the two variants the tracker cannot
//! report) into the library's error differ from that code.
//!
//! The tests assert that both extractors return the same `Result` —
//! intervals with their `last_run_index`, the incomplete count and the
//! error — on every sequence the concurrency model can produce.
#![allow(dead_code)]

mod grammar;

use grammar::GrammarError;
use sentomist_trace::{EventInterval, ExtractError, Extraction, Trace};
use tinyvm::LifecycleItem;

impl From<GrammarError> for ExtractError {
    fn from(g: GrammarError) -> Self {
        match g {
            GrammarError::TaskInsideHandler { index } => {
                ExtractError::Grammar(sentomist_trace::GrammarError::TaskInsideHandler { index })
            }
            // `trace_instance` starts only at `Int` items and maps
            // `Unterminated` to a truncated instance.
            other => unreachable!("Figure 4 never reports `{other}`"),
        }
    }
}

/// Precomputed Criterion-1 matching: the ordinal pairing of `postTask` and
/// `runTask` events.
#[derive(Debug, Clone, Default)]
pub struct TaskMatching {
    /// For each `postTask` event index, the matching `runTask` index (or
    /// `None` if the run lies beyond the end of the trace).
    run_of_post: std::collections::HashMap<usize, Option<usize>>,
}

impl TaskMatching {
    /// Builds the matching from a lifecycle item sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractError::FifoViolation`] if an ordinal pair disagrees
    /// on the task id.
    pub fn build(items: &[LifecycleItem]) -> Result<TaskMatching, ExtractError> {
        let mut posts = Vec::new();
        let mut runs = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item {
                LifecycleItem::PostTask(t) => posts.push((i, *t)),
                LifecycleItem::RunTask(t) => runs.push((i, *t)),
                _ => {}
            }
        }
        let mut run_of_post = std::collections::HashMap::with_capacity(posts.len());
        for (ordinal, &(post_index, post_task)) in posts.iter().enumerate() {
            match runs.get(ordinal) {
                Some(&(run_index, run_task)) => {
                    if post_task != run_task {
                        return Err(ExtractError::FifoViolation {
                            post_index,
                            run_index,
                        });
                    }
                    run_of_post.insert(post_index, Some(run_index));
                }
                None => {
                    run_of_post.insert(post_index, None);
                }
            }
        }
        Ok(TaskMatching { run_of_post })
    }

    /// The `runTask` index matching the `postTask` at `post_index`.
    /// `None` means the run falls beyond the trace; absent entries mean
    /// `post_index` is not a `postTask`.
    pub fn run_of(&self, post_index: usize) -> Option<Option<usize>> {
        self.run_of_post.get(&post_index).copied()
    }
}

/// Collects depth-0 `postTask` indices between `run_index` and the next
/// `runTask` (Criterion 3). Returns the posts and whether the scan reached
/// a terminating boundary (`runTask` or, for the very last task, any index;
/// the task-end index is returned separately when present).
fn posts_of_run(items: &[LifecycleItem], run_index: usize) -> Vec<usize> {
    let mut depth = 0usize;
    let mut posts = Vec::new();
    for (i, item) in items.iter().enumerate().skip(run_index + 1) {
        match item {
            LifecycleItem::Int(_) => depth += 1,
            LifecycleItem::Reti => depth = depth.saturating_sub(1),
            LifecycleItem::PostTask(_) if depth == 0 => posts.push(i),
            LifecycleItem::RunTask(_) => break,
            _ => {}
        }
    }
    posts
}

/// Finds the `TaskEnd` of the task started at `run_index`: the first
/// depth-0 `TaskEnd` before the next `runTask`. `None` if the trace was
/// truncated before the task finished.
fn task_end_of_run(items: &[LifecycleItem], run_index: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, item) in items.iter().enumerate().skip(run_index + 1) {
        match item {
            LifecycleItem::Int(_) => depth += 1,
            LifecycleItem::Reti => depth = depth.saturating_sub(1),
            LifecycleItem::TaskEnd(_) if depth == 0 => return Some(i),
            LifecycleItem::RunTask(_) => return None,
            _ => {}
        }
    }
    None
}

/// Outcome of tracing one instance.
enum InstanceOutcome {
    Complete {
        end_index: usize,
        last_run_index: Option<usize>,
        task_count: u32,
    },
    /// The instance's lifetime extends past the recorded trace.
    Truncated,
}

/// Figure-4 BFS for the instance whose `Int` sits at `start`.
fn trace_instance(
    items: &[LifecycleItem],
    matching: &TaskMatching,
    start: usize,
) -> Result<InstanceOutcome, ExtractError> {
    // S <- the int-reti string; loc <- index of its last reti.
    let reti_index = match grammar::matching_reti(items, start) {
        Ok(i) => i,
        Err(GrammarError::Unterminated { .. }) => return Ok(InstanceOutcome::Truncated),
        Err(e) => return Err(e.into()),
    };
    // P <- postTask items of S minus nested int-reti substrings.
    let mut pending = grammar::direct_posts(items, start)?;
    let mut task_count = 0u32;
    let mut last_run: Option<usize> = None;

    // Breadth-first over transitively posted tasks.
    while !pending.is_empty() {
        let mut next = Vec::new();
        for post_index in pending {
            task_count += 1;
            let run_index = match matching.run_of(post_index) {
                Some(Some(r)) => r,
                Some(None) => return Ok(InstanceOutcome::Truncated),
                None => unreachable!("pending indices are postTask items"),
            };
            last_run = Some(run_index);
            next.extend(posts_of_run(items, run_index));
        }
        pending = next;
    }

    let end_index = match last_run {
        Some(run_index) => match task_end_of_run(items, run_index) {
            Some(end) => end,
            None => return Ok(InstanceOutcome::Truncated),
        },
        None => reti_index,
    };
    Ok(InstanceOutcome::Complete {
        end_index,
        last_run_index: last_run,
        task_count,
    })
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
/// concurrency model cannot produce.
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
    let items: Vec<LifecycleItem> = trace.events.iter().map(|e| e.item).collect();
    let matching = TaskMatching::build(&items)?;
    let mut intervals = Vec::new();
    let mut incomplete = 0usize;
    for start in trace.int_indices() {
        let irq = match items[start] {
            LifecycleItem::Int(n) => n,
            _ => unreachable!("int_indices yields Int items"),
        };
        match trace_instance(&items, &matching, start)? {
            InstanceOutcome::Complete {
                end_index,
                last_run_index,
                task_count,
            } => intervals.push(EventInterval {
                irq,
                start_index: start,
                end_index,
                last_run_index,
                start_cycle: trace.events[start].cycle,
                end_cycle: trace.events[end_index].cycle,
                task_count,
            }),
            InstanceOutcome::Truncated => incomplete += 1,
        }
    }
    Ok(Extraction {
        intervals,
        incomplete,
    })
}
