//! Property test: the interval extraction is validated against an
//! *independent* reference scheduler (separate from the TinyVM node) over
//! proptest-generated boot posts and interrupt schedules, and against the
//! paper's Figure-4 search ([`figure4`]).
//!
//! The reference simulates the concurrency model directly — preemptible
//! frames with durations, a FIFO task queue, per-line in-service masking —
//! and tracks true instance ownership with [`tinyvm::ground_truth`]. The
//! extraction, fed only the emitted lifecycle sequence, must recover every
//! interval exactly.

mod figure4;

use proptest::prelude::*;
use sentomist_trace::recorder::{Trace, TraceEvent};
use tinyvm::ground_truth::GtTracker;
use tinyvm::{LifecycleItem, TaskId};

/// A task to be posted: how long it runs and what it posts in turn.
#[derive(Debug, Clone)]
struct TaskSpec {
    duration: u64,
    posts: Vec<TaskSpec>,
}

/// An interrupt arrival.
#[derive(Debug, Clone)]
struct IntSpec {
    time: u64,
    line: u8,
    duration: u64,
    posts: Vec<TaskSpec>,
}

#[derive(Debug)]
enum Frame {
    Handler {
        line: u8,
        instance: usize,
        remaining: u64,
    },
    Task {
        owner: Option<usize>,
        task: TaskId,
        remaining: u64,
    },
}

/// Reference simulation of the TinyOS concurrency model (Rules 1–3):
/// `main` posts the ownerless `boot` tasks, then interrupts arrive.
fn simulate(boot: &[TaskSpec], mut ints: Vec<IntSpec>) -> (Vec<TraceEvent>, GtTracker) {
    ints.sort_by_key(|i| (i.time, i.line));
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut gt = GtTracker::new();
    let mut queue: std::collections::VecDeque<(TaskId, Option<usize>, TaskSpec)> =
        std::collections::VecDeque::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut now: u64 = 0;
    let mut next_int = 0usize;
    let mut task_counter = 0u16;

    let emit = |events: &mut Vec<TraceEvent>, now: u64, item: LifecycleItem| -> usize {
        events.push(TraceEvent { cycle: now, item });
        events.len() - 1
    };

    // Posts everything a frame wants to post, attributing ownership.
    fn do_posts(
        posts: &[TaskSpec],
        owner: Option<usize>,
        now: u64,
        events: &mut Vec<TraceEvent>,
        gt: &mut GtTracker,
        queue: &mut std::collections::VecDeque<(TaskId, Option<usize>, TaskSpec)>,
        task_counter: &mut u16,
    ) {
        for p in posts {
            let id = TaskId(*task_counter % 8); // task ids repeat, as in real apps
            *task_counter += 1;
            events.push(TraceEvent {
                cycle: now,
                item: LifecycleItem::PostTask(id),
            });
            gt.on_post(owner);
            queue.push_back((id, owner, p.clone()));
        }
    }

    do_posts(
        boot,
        None,
        now,
        &mut events,
        &mut gt,
        &mut queue,
        &mut task_counter,
    );
    loop {
        // Dispatch any arrived interrupt whose line is not in service.
        let in_service = |stack: &[Frame], line: u8| {
            stack
                .iter()
                .any(|f| matches!(f, Frame::Handler { line: l, .. } if *l == line))
        };
        if next_int < ints.len()
            && ints[next_int].time <= now
            && !in_service(&stack, ints[next_int].line)
        {
            let spec = ints[next_int].clone();
            next_int += 1;
            let idx = emit(&mut events, now, LifecycleItem::Int(spec.line));
            let instance = gt.on_int(spec.line, idx, now);
            do_posts(
                &spec.posts,
                Some(instance),
                now,
                &mut events,
                &mut gt,
                &mut queue,
                &mut task_counter,
            );
            stack.push(Frame::Handler {
                line: spec.line,
                instance,
                remaining: spec.duration.max(1),
            });
            continue;
        }
        // Arrived interrupt whose line IS in service: it stays pending and
        // will dispatch after the reti; nothing to do here.

        if let Some(top) = stack.last_mut() {
            // Run the top frame until it finishes or the next interrupt.
            let remaining = match top {
                Frame::Handler { remaining, .. } | Frame::Task { remaining, .. } => remaining,
            };
            let horizon = ints
                .get(next_int)
                .map(|i| i.time.max(now))
                .unwrap_or(u64::MAX);
            let step = (*remaining).min(horizon.saturating_sub(now).max(1));
            *remaining -= step.min(*remaining);
            now += step;
            if *remaining == 0 {
                match stack.pop().expect("top exists") {
                    Frame::Handler { instance, .. } => {
                        let idx = emit(&mut events, now, LifecycleItem::Reti);
                        gt.on_reti(instance, idx, now);
                    }
                    Frame::Task { owner, task, .. } => {
                        let idx = emit(&mut events, now, LifecycleItem::TaskEnd(task));
                        gt.on_task_end(owner, idx, now);
                    }
                }
            }
            continue;
        }

        // Idle: run the next task, or jump to the next interrupt.
        if let Some((task, owner, spec)) = queue.pop_front() {
            emit(&mut events, now, LifecycleItem::RunTask(task));
            do_posts(
                &spec.posts,
                owner,
                now,
                &mut events,
                &mut gt,
                &mut queue,
                &mut task_counter,
            );
            stack.push(Frame::Task {
                owner,
                task,
                remaining: spec.duration.max(1),
            });
            continue;
        }
        match ints.get(next_int) {
            Some(i) => now = now.max(i.time),
            None => break,
        }
    }
    (events, gt)
}

fn leaf_task() -> impl Strategy<Value = TaskSpec> {
    (1u64..80).prop_map(|duration| TaskSpec {
        duration,
        posts: Vec::new(),
    })
}

fn task_spec() -> impl Strategy<Value = TaskSpec> {
    (1u64..80, prop::collection::vec(leaf_task(), 0..2))
        .prop_map(|(duration, posts)| TaskSpec { duration, posts })
}

fn int_spec() -> impl Strategy<Value = IntSpec> {
    (
        0u64..2_000,
        0u8..3,
        1u64..40,
        prop::collection::vec(task_spec(), 0..3),
    )
        .prop_map(|(time, line, duration, posts)| IntSpec {
            time,
            line,
            duration,
            posts,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn extraction_matches_reference_scheduler(
        boot in prop::collection::vec(task_spec(), 0..3),
        ints in prop::collection::vec(int_spec(), 0..25)
    ) {
        let (events, gt) = simulate(&boot, ints);
        let n_events = events.len();
        let trace = Trace {
            events,
            segments: vec![Vec::new(); n_events + 1],
            program_len: 0,
        };
        let extraction = sentomist_trace::extract(&trace).expect("well-formed");
        let complete: Vec<_> = gt.intervals().iter().filter(|g| g.is_complete()).collect();
        prop_assert_eq!(extraction.intervals.len(), complete.len());
        prop_assert_eq!(
            extraction.incomplete,
            gt.intervals().len() - complete.len()
        );
        for (inferred, truth) in extraction.intervals.iter().zip(&complete) {
            prop_assert_eq!(inferred.start_index, truth.start_index);
            prop_assert_eq!(inferred.irq, truth.irq);
            prop_assert_eq!(Some(inferred.end_index), truth.end_index);
            prop_assert_eq!(inferred.task_count, truth.task_count);
            prop_assert_eq!(inferred.start_cycle, truth.start_cycle);
            prop_assert_eq!(Some(inferred.end_cycle), truth.end_cycle);
        }
        // Figure 4 agrees, `loc` (`last_run_index`) included.
        prop_assert_eq!(figure4::extract(&trace), Ok(extraction));
    }

    #[test]
    fn extracted_intervals_are_well_formed(
        boot in prop::collection::vec(task_spec(), 0..3),
        ints in prop::collection::vec(int_spec(), 0..25)
    ) {
        // Note: same-line intervals MAY partially overlap — a later
        // instance can begin inside an earlier one's task-deferral window
        // and outlive it; that overlap is precisely the symptom pattern of
        // the paper's case study I. What must always hold:
        //  * every interval closes after it opens;
        //  * cycles are consistent with indices;
        //  * *handler regions* of one line never nest (in-service mask);
        //  * same-line intervals are ordered by their opening Int.
        let (events, _gt) = simulate(&boot, ints);
        let n_events = events.len();
        let trace = Trace {
            events: events.clone(),
            segments: vec![Vec::new(); n_events + 1],
            program_len: 0,
        };
        let extraction = sentomist_trace::extract(&trace).expect("well-formed");
        for iv in &extraction.intervals {
            prop_assert!(iv.end_index > iv.start_index);
            prop_assert!(iv.end_cycle >= iv.start_cycle);
            if iv.task_count == 0 {
                prop_assert_eq!(iv.last_run_index, None);
            } else {
                prop_assert!(iv.last_run_index.is_some());
            }
        }
        for line in 0u8..3 {
            let ivs = extraction.for_irq(line);
            for pair in ivs.windows(2) {
                prop_assert!(pair[1].start_index > pair[0].start_index);
            }
        }
        // Handler regions of one line never nest.
        let mut depth = [0i32; 4];
        let mut stack: Vec<u8> = Vec::new();
        for e in &events {
            match e.item {
                LifecycleItem::Int(n) => {
                    depth[n as usize] += 1;
                    prop_assert!(depth[n as usize] <= 1, "line {} self-nested", n);
                    stack.push(n);
                }
                LifecycleItem::Reti => {
                    let n = stack.pop().expect("balanced");
                    depth[n as usize] -= 1;
                }
                _ => {}
            }
        }
    }
}
