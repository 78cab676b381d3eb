//! Causal-chain reconstruction: intersecting the static backward slice
//! of a symptom site with the dynamic execution of one symptom interval.
//!
//! Localization ([`crate::localize`]) ranks instructions by how far their
//! counts deviate; this module explains *how* the deviation happened. It
//! takes the flagged event-handling interval, attributes every
//! instruction executed inside it to the lifecycle context that ran it
//! (replaying the trace's `Int`/`Reti`/`runTask`/`taskEnd` events — the
//! dynamic counterpart of staticlint's context map), computes the static
//! backward slice from the deviating pcs, and keeps exactly the
//! cross-context write→read edges of the slice whose *victim read*
//! executed inside the interval and whose *publishing write* executed by
//! the interval's end — inside it, or in the trace prefix before it: the
//! stale publication that decides a transient symptom typically precedes
//! the interval that exhibits it (a busy flag set by an earlier task
//! run, a buffer published by the previous interrupt). Both endpoints
//! must be attributed to different lifecycle contexts.
//!
//! The slice is further required to be anchored by a static warning — a
//! warning's pc (or one of its related pcs) inside the slice, or a
//! sliced interleaving edge moving the warning's object. That anchoring
//! is the second pruning stage after the slice's own concurrency
//! pruning: a *fixed* variant still shares objects across contexts —
//! protectedly — and still has interleaving edges in the raw graph, but
//! it lints clean, so nothing anchors and no chain is emitted. The ordered
//! survivors form a [`CausalChain`]: handler-write → task-read hops with
//! pc, source-line, routine and object evidence, in dynamic (first read)
//! order — the artifact `corroborate` fuses as a third evidence stream
//! next to static warnings and outlier rank.

use sentomist_trace::{EventInterval, Trace};
use serde::{Deserialize, Serialize};
use staticlint::{Context, DependenceGraph, LintReport, Warning};
use std::error::Error;
use std::fmt;
use tinyvm::{LifecycleItem, Program};

/// Structural failures of chain reconstruction. A chain that merely does
/// not exist is `Ok(None)`, not an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalError {
    /// The interval's indices point past the trace's event sequence.
    IntervalOutOfBounds {
        /// The interval's closing event index.
        end_index: usize,
        /// Events actually recorded.
        events: usize,
    },
    /// The trace's segment array violates the `events + 1` invariant.
    MalformedSegments {
        /// Segments recorded.
        segments: usize,
        /// Events recorded.
        events: usize,
    },
}

impl fmt::Display for CausalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalError::IntervalOutOfBounds { end_index, events } => write!(
                f,
                "interval ends at event {end_index} but the trace has {events} event(s)"
            ),
            CausalError::MalformedSegments { segments, events } => write!(
                f,
                "trace has {segments} segment(s) for {events} event(s) (want events + 1)"
            ),
        }
    }
}

impl Error for CausalError {}

/// One endpoint of a causal hop, with its source evidence and the
/// lifecycle context that executed it inside the symptom interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainSite {
    /// Instruction index.
    pub pc: u16,
    /// 1-based assembly source line, if known.
    pub source_line: Option<u32>,
    /// Enclosing routine label.
    pub routine: Option<String>,
    /// The dynamically attributed context, e.g. `irq ADC` or
    /// `task send_task`.
    pub context: String,
}

/// One cross-context hop of the chain: `write` published a shared value
/// that `read` consumed in a different lifecycle context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainHop {
    /// The publishing site.
    pub write: ChainSite,
    /// The consuming site.
    pub read: ChainSite,
    /// The shared data object, when the location lies in a labeled one.
    pub object: Option<String>,
    /// Index of the first trace segment inside the interval in which the
    /// read executed — the hop's position in dynamic order.
    pub first_read_segment: usize,
}

/// The reconstructed causal chain of one symptom interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CausalChain {
    /// The slice seeds that survived validation, sorted.
    pub seeds: Vec<u16>,
    /// Cross-context hops in dynamic order (`first_read_segment`, then
    /// read pc, then write pc).
    pub hops: Vec<ChainHop>,
    /// The backward slice of the chain's anchors (hop endpoints and the
    /// statically flagged sites the seed slice reached), restricted to
    /// instructions that actually executed inside the interval,
    /// ascending — the shrunken universe a `--causal` localization
    /// report is filtered to.
    pub sliced_executed: Vec<u16>,
}

impl CausalChain {
    /// Whether the chain's evidence covers `pc`: a hop endpoint or a
    /// member of the executed slice.
    pub fn contains(&self, pc: u16) -> bool {
        self.hops
            .iter()
            .any(|h| h.write.pc == pc || h.read.pc == pc)
            || self.sliced_executed.binary_search(&pc).is_ok()
    }

    /// Whether any hop endpoint lies in `routine`.
    pub fn touches_routine(&self, routine: &str) -> bool {
        self.hops.iter().any(|h| {
            h.write.routine.as_deref() == Some(routine)
                || h.read.routine.as_deref() == Some(routine)
        })
    }
}

/// Attributes every trace segment to the lifecycle context executing it:
/// `ctx_of_segment[k]` is the context of the instructions counted in
/// `trace.segments[k]`. Replays the event sequence with a context stack
/// (interrupts push/pop, tasks replace the base), mirroring how the
/// static [`staticlint::ContextMap`] partitions the program.
fn attribute_segments(trace: &Trace) -> Vec<Context> {
    let mut out = Vec::with_capacity(trace.events.len() + 1);
    let mut stack: Vec<Context> = vec![Context::Main];
    out.push(Context::Main);
    for event in &trace.events {
        match event.item {
            LifecycleItem::Int(n) => stack.push(Context::Irq(n)),
            LifecycleItem::Reti => {
                if stack.len() > 1 {
                    stack.pop();
                }
            }
            LifecycleItem::RunTask(t) => stack[0] = Context::Task(t.0 as usize),
            LifecycleItem::TaskEnd(_) => stack[0] = Context::Main,
            LifecycleItem::PostTask(_) => {}
        }
        out.push(stack.last().copied().unwrap_or(Context::Main));
    }
    out
}

/// Whether `warning` anchors the slice — its flagged pc (or a related
/// pc) lies inside the slice, or one of the slice's interleaving edges
/// moves the warning's object. The warning-gated pruning that keeps
/// fixed variants chain-free: a chain must explain a statically flagged
/// site, not merely a shared object.
fn warning_anchors(warning: &Warning, slice: &staticlint::Slice) -> bool {
    slice.contains(warning.pc)
        || warning.related_pcs.iter().any(|&pc| slice.contains(pc))
        || (warning.object.is_some() && slice.cross.iter().any(|e| e.object == warning.object))
}

/// Reconstructs the causal chain of one symptom interval.
///
/// `seeds` are the dynamically implicated pcs (typically
/// [`localize_set`](crate::localize::localize_set) hits); seeds outside the
/// program or in statically unreachable code are dropped. Returns
/// `Ok(None)` when no chain exists: the program lints clean (every fixed
/// variant), no seed survives validation, or no warning-anchored
/// cross-context edge has its read executed inside the interval — and
/// its write executed by the interval's end — under different attributed
/// contexts.
///
/// # Errors
///
/// [`CausalError`] for structurally broken inputs only.
pub fn causal_chain(
    program: &Program,
    trace: &Trace,
    interval: &EventInterval,
    seeds: &[u16],
    lint: &LintReport,
) -> Result<Option<CausalChain>, CausalError> {
    let events = trace.events.len();
    if trace.segments.len() != events + 1 {
        return Err(CausalError::MalformedSegments {
            segments: trace.segments.len(),
            events,
        });
    }
    if interval.end_index >= events || interval.start_index > interval.end_index {
        return Err(CausalError::IntervalOutOfBounds {
            end_index: interval.end_index,
            events,
        });
    }
    if lint.warnings.is_empty() {
        return Ok(None);
    }
    let graph = DependenceGraph::build(program);
    let mut valid_seeds: Vec<u16> = seeds
        .iter()
        .copied()
        .filter(|&pc| graph.valid_seed(pc))
        .collect();
    valid_seeds.sort_unstable();
    valid_seeds.dedup();
    if valid_seeds.is_empty() {
        return Ok(None);
    }
    let Ok(slice) = graph.backward_slice(&valid_seeds) else {
        return Ok(None);
    };
    if !lint.warnings.iter().any(|w| warning_anchors(w, &slice)) {
        return Ok(None);
    }

    // Dynamic attribution: which contexts executed each pc inside the
    // interval, and in which segment it first ran. Segment k counts the
    // instructions between events k-1 and k, so the interval
    // [start_index, end_index] executed segments start+1 ..= end. Writes
    // get a wider window — every segment up to the interval's end — so a
    // stale value published *before* the symptom interval still anchors
    // its hop.
    let ctx_of_segment = attribute_segments(trace);
    let n = program.len();
    let mut executed_ctxs: Vec<Vec<Context>> = vec![Vec::new(); n];
    let mut write_ctxs: Vec<Vec<Context>> = vec![Vec::new(); n];
    let mut first_segment: Vec<Option<usize>> = vec![None; n];
    for (seg, &ctx) in ctx_of_segment
        .iter()
        .enumerate()
        .take(interval.end_index + 1)
    {
        let in_interval = seg > interval.start_index;
        for (pc, &count) in trace.segments[seg].iter().enumerate().take(n) {
            if count == 0 {
                continue;
            }
            if !write_ctxs[pc].contains(&ctx) {
                write_ctxs[pc].push(ctx);
            }
            if !in_interval {
                continue;
            }
            if !executed_ctxs[pc].contains(&ctx) {
                executed_ctxs[pc].push(ctx);
            }
            if first_segment[pc].is_none() {
                first_segment[pc] = Some(seg);
            }
        }
    }

    let site = |pc: u16, ctx: Context| ChainSite {
        pc,
        source_line: program.source_line(pc),
        routine: program.enclosing_label(pc).map(str::to_string),
        context: ctx.describe(program),
    };
    let mut hops: Vec<ChainHop> = Vec::new();
    for edge in &slice.cross {
        let (wpc, rpc) = (edge.write_pc as usize, edge.read_pc as usize);
        if write_ctxs[wpc].is_empty() || executed_ctxs[rpc].is_empty() {
            continue;
        }
        // Deterministic pick of a differing attributed context pair:
        // sort both sides by display name, take the first mismatch.
        let mut wctxs = write_ctxs[wpc].clone();
        let mut rctxs = executed_ctxs[rpc].clone();
        wctxs.sort_by_key(|c| c.describe(program));
        rctxs.sort_by_key(|c| c.describe(program));
        let pair = wctxs
            .iter()
            .find_map(|&cw| rctxs.iter().find(|&&cr| cr != cw).map(|&cr| (cw, cr)));
        let Some((cw, cr)) = pair else { continue };
        if hops
            .iter()
            .any(|h| h.write.pc == edge.write_pc && h.read.pc == edge.read_pc)
        {
            continue;
        }
        hops.push(ChainHop {
            write: site(edge.write_pc, cw),
            read: site(edge.read_pc, cr),
            object: edge.object.clone(),
            first_read_segment: first_segment[rpc].unwrap_or(0),
        });
    }
    if hops.is_empty() {
        return Ok(None);
    }
    hops.sort_by_key(|h| (h.first_read_segment, h.read.pc, h.write.pc));
    // The chain's executed slice is re-rooted at the causally meaningful
    // anchors — the hop endpoints plus the statically flagged sites the
    // seed slice reached — not at every dynamically deviant pc. A seed
    // is trivially a member of its own backward slice, so keeping the
    // full seed slice would make chain membership vacuous; slicing from
    // the anchors keeps exactly the instructions that can influence a
    // hop or a flagged site, which is what lets a `--causal`
    // localization strictly shrink the flat deviation list.
    let mut anchors: Vec<u16> = hops.iter().flat_map(|h| [h.write.pc, h.read.pc]).collect();
    for w in &lint.warnings {
        anchors.extend(
            std::iter::once(w.pc)
                .chain(w.related_pcs.iter().copied())
                .filter(|&pc| slice.contains(pc)),
        );
    }
    anchors.sort_unstable();
    anchors.dedup();
    // Hop endpoints executed dynamically, so they are statically
    // reachable by the CFG's over-approximation guarantee; the warning
    // anchors were filtered to slice members. A failure here means the
    // guarantee broke — answer "no chain" rather than panicking.
    let Ok(core) = graph.backward_slice(&anchors) else {
        return Ok(None);
    };
    let sliced_executed: Vec<u16> = core
        .pcs
        .iter()
        .copied()
        .filter(|&pc| !executed_ctxs[pc as usize].is_empty())
        .collect();
    Ok(Some(CausalChain {
        seeds: valid_seeds,
        hops,
        sliced_executed,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentomist_trace::TraceEvent;
    use tinyvm::TaskId;

    /// The handler publishes `buf` word 0 always but word 1 only on one
    /// path — the torn-publication shape the linter flags — and the
    /// posted task consumes both words.
    const RACY: &str = "\
.handler RX on_rx
.task consume
.data buf 2
main:
 ret
on_rx:
 ldi r4, 7
 sta buf, r4
 cmpi r4, 9
 breq rx_done
 ldi r5, buf
 st [r5+1], r4
rx_done:
 post consume
 reti
consume:
 ldi r3, buf
 ld r1, [r3]
 ld r2, [r3+1]
 out RADIO_TX_PUSH, r1
 ret
";

    /// Builds the trace of one handler instance that posts its task:
    /// main boot, RX interrupt (through the torn path), reti, task run.
    fn racy_trace(program: &Program) -> (Trace, EventInterval) {
        let n = program.len();
        let on_rx = program.label("on_rx").unwrap() as usize;
        let consume = program.label("consume").unwrap() as usize;
        let mut segments = vec![vec![0u32; n]; 6];
        segments[0][0] = 1; // main: ret
        for count in &mut segments[1][on_rx..=on_rx + 6] {
            *count = 1; // handler body through the post
        }
        segments[2][on_rx + 7] = 1; // reti
        for count in &mut segments[4][consume..=consume + 4] {
            *count = 1; // task body
        }
        let items = [
            LifecycleItem::Int(tinyvm::isa::irq::RX),
            LifecycleItem::PostTask(TaskId(0)),
            LifecycleItem::Reti,
            LifecycleItem::RunTask(TaskId(0)),
            LifecycleItem::TaskEnd(TaskId(0)),
        ];
        let trace = Trace {
            events: items
                .iter()
                .enumerate()
                .map(|(i, &item)| TraceEvent {
                    cycle: 10 + i as u64,
                    item,
                })
                .collect(),
            segments,
            program_len: n,
        };
        let interval = EventInterval {
            irq: tinyvm::isa::irq::RX,
            start_index: 0,
            end_index: 4,
            last_run_index: Some(3),
            start_cycle: 10,
            end_cycle: 14,
            task_count: 1,
        };
        (trace, interval)
    }

    #[test]
    fn chain_links_handler_write_to_task_read() {
        let program = tinyvm::assemble(RACY).unwrap();
        let lint = staticlint::lint(&program);
        assert!(!lint.warnings.is_empty(), "test premise: program is racy");
        let (trace, interval) = racy_trace(&program);
        let seed = program.label("consume").unwrap() + 3; // out (symptom)
        let chain = causal_chain(&program, &trace, &interval, &[seed], &lint)
            .unwrap()
            .expect("racy program must yield a chain");
        let sta_buf = program.label("on_rx").unwrap() + 1;
        let ld_buf = program.label("consume").unwrap() + 1;
        let hop = &chain.hops[0];
        assert_eq!(hop.write.pc, sta_buf);
        assert_eq!(hop.read.pc, ld_buf);
        assert_eq!(hop.object.as_deref(), Some("buf"));
        assert_eq!(hop.write.context, "irq RX");
        assert_eq!(hop.read.context, "task consume");
        assert!(chain.contains(sta_buf) && chain.contains(ld_buf));
        assert!(chain.touches_routine("on_rx"));
    }

    #[test]
    fn clean_lint_means_no_chain() {
        let program = tinyvm::assemble(RACY).unwrap();
        let (trace, interval) = racy_trace(&program);
        let clean = LintReport {
            warnings: Vec::new(),
            stats: staticlint::LintStats {
                instructions: program.len(),
                blocks: 0,
                contexts: 0,
                data_objects: 0,
            },
        };
        let seed = program.label("consume").unwrap() + 3;
        let chain = causal_chain(&program, &trace, &interval, &[seed], &clean).unwrap();
        assert_eq!(chain, None);
    }

    #[test]
    fn invalid_seeds_are_dropped_not_fatal() {
        let program = tinyvm::assemble(RACY).unwrap();
        let lint = staticlint::lint(&program);
        let (trace, interval) = racy_trace(&program);
        let chain = causal_chain(&program, &trace, &interval, &[9999], &lint).unwrap();
        assert_eq!(chain, None);
    }

    #[test]
    fn hop_requires_the_victim_read_inside_the_interval() {
        let program = tinyvm::assemble(RACY).unwrap();
        let lint = staticlint::lint(&program);
        let (trace, _) = racy_trace(&program);
        // Handler-only sub-interval: the write executed inside it, but
        // the task read only happens later — no victim, no hop.
        let handler_only = EventInterval {
            irq: tinyvm::isa::irq::RX,
            start_index: 0,
            end_index: 2,
            last_run_index: None,
            start_cycle: 10,
            end_cycle: 12,
            task_count: 0,
        };
        let seed = program.label("on_rx").unwrap() + 1;
        let chain = causal_chain(&program, &trace, &handler_only, &[seed], &lint).unwrap();
        assert_eq!(chain, None);
    }

    #[test]
    fn structural_errors_are_typed() {
        let program = tinyvm::assemble(RACY).unwrap();
        let lint = staticlint::lint(&program);
        let (trace, mut interval) = racy_trace(&program);
        interval.end_index = 99;
        assert!(matches!(
            causal_chain(&program, &trace, &interval, &[0], &lint),
            Err(CausalError::IntervalOutOfBounds { .. })
        ));
        let (mut trace, interval) = racy_trace(&program);
        trace.segments.pop();
        assert!(matches!(
            causal_chain(&program, &trace, &interval, &[0], &lint),
            Err(CausalError::MalformedSegments { .. })
        ));
    }
}
