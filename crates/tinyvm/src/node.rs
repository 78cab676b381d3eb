//! A complete sensor node: CPU + peripherals + TinyOS-like scheduler.
//!
//! The node owns the run loop that enforces the paper's concurrency model:
//!
//! * **Rule 1** — an interrupt handler is triggered only by its hardware
//!   interrupt (device events raise pending lines; the loop vectors them);
//! * **Rule 2** — handlers and tasks run to completion unless preempted by
//!   *other* interrupt handlers (a line is masked while in service; tasks
//!   are preempted by any dispatchable line);
//! * **Rule 3** — tasks are posted by handlers or other tasks and executed
//!   in FIFO order, only when no handler is in service.
//!
//! The node also emits the system lifecycle sequence and per-boundary
//! instruction-count segments to a [`TraceSink`], and keeps the
//! ground-truth interval record used to validate trace inference.

use crate::cpu::{Cpu, CpuEvent, INT_DISPATCH_CYCLES};
use crate::devices::{Devices, NodeConfig, OutgoingPacket, Packet, TimingModel};
use crate::error::VmError;
use crate::ground_truth::{GtInterval, GtTracker, InstanceId};
use crate::isa::{irq, TaskId};
use crate::program::Program;
use crate::trace::{LifecycleItem, TraceSink};
use std::collections::VecDeque;
use std::sync::Arc;

/// Cycles consumed by the scheduler dequeuing and starting a task.
pub const TASK_DISPATCH_CYCLES: u64 = 2;

/// A sensor node executing one program.
#[derive(Debug, Clone)]
pub struct Node {
    program: Arc<Program>,
    cpu: Cpu,
    devices: Devices,
    cycle: u64,
    event_index: usize,
    task_queue: VecDeque<(TaskId, Option<InstanceId>)>,
    current_task: Option<(TaskId, Option<InstanceId>)>,
    int_instances: Vec<InstanceId>,
    gt: GtTracker,
    seg_counts: Vec<u32>,
    instructions_retired: u64,
    fault: Option<VmError>,
}

impl Node {
    /// Creates a node at cycle 0 with the program loaded and `main` entered.
    pub fn new(program: Arc<Program>, config: NodeConfig) -> Node {
        let cpu = Cpu::new(&program, config.mem_words);
        let seg_counts = vec![0; program.len()];
        Node {
            cpu,
            devices: Devices::new(config),
            program,
            cycle: 0,
            event_index: 0,
            task_queue: VecDeque::new(),
            current_task: None,
            int_instances: Vec::new(),
            gt: GtTracker::new(),
            seg_counts,
            instructions_retired: 0,
            fault: None,
        }
    }

    /// The node's current local cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// This node's id.
    pub fn id(&self) -> u16 {
        self.devices.config().node_id
    }

    /// The loaded program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Whether the node executed `halt` or faulted.
    pub fn halted(&self) -> bool {
        self.cpu.halted || self.fault.is_some()
    }

    /// The machine fault that stopped the node, if any.
    pub fn fault(&self) -> Option<&VmError> {
        self.fault.as_ref()
    }

    /// Total instructions retired so far.
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// Words written to the UART debug port.
    pub fn uart(&self) -> &[u16] {
        self.devices.uart()
    }

    /// Ground-truth event-handling intervals recorded so far.
    pub fn ground_truth(&self) -> &[GtInterval] {
        self.gt.intervals()
    }

    /// Direct read access to data memory (tests, oracles).
    pub fn mem(&self) -> &[u16] {
        &self.cpu.mem
    }

    /// Removes and returns packets the radio transmitted.
    pub fn drain_outbox(&mut self) -> Vec<OutgoingPacket> {
        self.devices.drain_outbox()
    }

    /// Schedules an inbound packet delivery (used by the network simulator).
    pub fn inject_rx(&mut self, at_cycle: u64, packet: Packet) {
        self.devices.inject_rx(at_cycle, packet);
    }

    /// The cycle up to which [`Node::advance`] would do nothing but move
    /// the clock, or `None` when the node has work now.
    ///
    /// `Some(c)` means the node is parked: it is neither halted nor
    /// executing, no interrupt line is pending, it cannot start a task,
    /// and its next device event is at `c`, after its current cycle
    /// (`u64::MAX` when no event is scheduled). For every `limit <= c`,
    /// `advance(limit)` then runs only its final "park until the next
    /// event" branch: it emits no lifecycle item, retires no
    /// instruction, leaves every device untouched and ends at
    /// `max(cycle, limit)`. A run of such calls with growing limits can
    /// therefore be replaced by one call to the last limit. Any pending
    /// line makes the answer `None`, even one `advance` would only drop,
    /// which is conservative.
    pub fn parked_until(&self) -> Option<u64> {
        if self.halted() || self.cpu.runnable() || self.devices.has_pending() || self.can_run_task()
        {
            return None;
        }
        match self.devices.next_event_cycle() {
            Some(c) if c <= self.cycle => None,
            Some(c) => Some(c),
            None => Some(u64::MAX),
        }
    }

    /// Whether the scheduler may dequeue a task now: no base context or
    /// handler is executing, the CPU is awake and the queue is non-empty.
    fn can_run_task(&self) -> bool {
        !self.cpu.is_active()
            && self.cpu.int_depth() == 0
            && !self.cpu.sleeping
            && !self.task_queue.is_empty()
    }

    fn current_owner(&self) -> Option<InstanceId> {
        if let Some(&inst) = self.int_instances.last() {
            Some(inst)
        } else {
            self.current_task.as_ref().and_then(|&(_, owner)| owner)
        }
    }

    fn flush_segment(&mut self, sink: &mut dyn TraceSink) {
        sink.segment(&self.seg_counts);
        self.seg_counts.fill(0);
    }

    fn emit(&mut self, sink: &mut dyn TraceSink, item: LifecycleItem) -> usize {
        self.flush_segment(sink);
        sink.lifecycle(self.cycle, item);
        let idx = self.event_index;
        self.event_index += 1;
        idx
    }

    /// Runs the node until `limit`, or until it halts or faults. An
    /// instruction that begins just before `limit` may finish a few cycles
    /// past it (bounded by the most expensive instruction), so callers doing
    /// conservative synchronization must budget that slack in their
    /// lookahead.
    ///
    /// The final segment is **not** flushed; call [`Node::finish`] once at
    /// the end of the whole run.
    ///
    /// # Errors
    ///
    /// Returns the machine fault if the program faults. The fault is also
    /// latched: subsequent calls return it again without executing.
    pub fn advance(&mut self, limit: u64, sink: &mut dyn TraceSink) -> Result<(), VmError> {
        if let Some(f) = &self.fault {
            return Err(f.clone());
        }
        while self.cycle < limit && !self.cpu.halted {
            self.devices.process_due(self.cycle);

            // Interrupt dispatch: highest-priority pending line that is
            // enabled, not in service, and vectored. Under the TOSSIM-style
            // zero-cost model events are strictly sequential: a handler is
            // only dispatched when nothing else is executing.
            let dispatch_ok = self.cpu.flags.i
                && (self.devices.config().timing == TimingModel::CycleAccurate
                    || !self.cpu.runnable());
            if dispatch_ok {
                let vectors = &self.program.vectors;
                let cpu = &self.cpu;
                if let Some(line) = self
                    .devices
                    .take_pending(|n| !cpu.irq_in_service(n) && vectors[n as usize].is_some())
                {
                    let vector = self.program.vectors[line as usize].expect("checked above");
                    let idx = self.emit(sink, LifecycleItem::Int(line));
                    let inst = self.gt.on_int(line, idx, self.cycle);
                    self.int_instances.push(inst);
                    self.cpu.enter_interrupt(line, vector);
                    if self.devices.config().timing == TimingModel::CycleAccurate {
                        self.cycle += INT_DISPATCH_CYCLES;
                    }
                    continue;
                }
                // Unvectored pending lines behave like masked interrupts.
                for n in 0..irq::NUM_IRQS as u8 {
                    if self.program.vectors[n as usize].is_none() {
                        self.devices.clear_pending(n);
                    }
                }
            }

            if self.cpu.runnable() {
                let step = {
                    let program = &self.program;
                    match self.cpu.step(program, &mut self.devices, self.cycle) {
                        Ok(s) => s,
                        Err(e) => {
                            self.fault = Some(e.clone());
                            return Err(e);
                        }
                    }
                };
                self.seg_counts[step.pc as usize] += 1;
                self.instructions_retired += 1;
                if self.devices.config().timing == TimingModel::CycleAccurate {
                    self.cycle += step.cycles;
                }
                match step.event {
                    Some(CpuEvent::Posted(task)) => {
                        if self.task_queue.len() >= self.devices.config().task_queue_capacity {
                            let e = VmError::TaskQueueFull { pc: step.pc };
                            self.fault = Some(e.clone());
                            return Err(e);
                        }
                        let owner = self.current_owner();
                        self.task_queue.push_back((task, owner));
                        self.emit(sink, LifecycleItem::PostTask(task));
                        self.gt.on_post(owner);
                    }
                    Some(CpuEvent::Reti { irq: line }) => {
                        let idx = self.emit(sink, LifecycleItem::Reti);
                        if let Some(inst) = self.int_instances.pop() {
                            self.gt.on_reti(inst, idx, self.cycle);
                        }
                        if line == irq::RX {
                            self.devices.refresh_rx_pending();
                        }
                    }
                    Some(CpuEvent::Returned) => {
                        if let Some((task, owner)) = self.current_task.take() {
                            let idx = self.emit(sink, LifecycleItem::TaskEnd(task));
                            self.gt.on_task_end(owner, idx, self.cycle);
                        }
                        // Returning from `main` simply enters the scheduler.
                    }
                    Some(CpuEvent::Slept) | Some(CpuEvent::Halted) | None => {}
                }
                continue;
            }

            // Not runnable: idle (scheduler context) or sleeping.
            if self.can_run_task() {
                let (task, owner) = self.task_queue.pop_front().expect("checked non-empty");
                self.emit(sink, LifecycleItem::RunTask(task));
                let entry = self.program.tasks[task.index()].entry;
                self.current_task = Some((task, owner));
                self.cpu.enter(entry);
                if self.devices.config().timing == TimingModel::CycleAccurate {
                    self.cycle += TASK_DISPATCH_CYCLES;
                }
                continue;
            }

            // Park until the next device event (or the limit).
            // `parked_until` must keep describing exactly when this is
            // all an `advance` call does.
            match self.devices.next_event_cycle() {
                Some(c) if c <= self.cycle => {
                    // Defensive: events due now are processed next turn.
                    self.cycle += 1;
                }
                Some(c) => self.cycle = c.min(limit),
                None => self.cycle = limit,
            }
        }
        Ok(())
    }

    /// Flushes the final instruction-count segment. Call exactly once, after
    /// the last [`Node::advance`] of a run.
    pub fn finish(&mut self, sink: &mut dyn TraceSink) {
        self.flush_segment(sink);
    }

    /// Convenience: runs the node to `limit` cycles and finishes the trace.
    ///
    /// # Errors
    ///
    /// Propagates machine faults from [`Node::advance`]; the final segment
    /// is flushed even on fault so recorded traces stay well-formed.
    pub fn run(&mut self, limit: u64, sink: &mut dyn TraceSink) -> Result<(), VmError> {
        let result = self.advance(limit, sink);
        self.finish(sink);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::trace::NullSink;

    /// A sink that records everything, used across node tests.
    #[derive(Default)]
    struct VecSink {
        events: Vec<(u64, LifecycleItem)>,
        segments: Vec<Vec<u32>>,
    }

    impl TraceSink for VecSink {
        fn lifecycle(&mut self, cycle: u64, item: LifecycleItem) {
            self.events.push((cycle, item));
        }
        fn segment(&mut self, counts: &[u32]) {
            self.segments.push(counts.to_vec());
        }
    }

    fn node(src: &str) -> Node {
        let p = Arc::new(assemble(src).unwrap());
        Node::new(p, NodeConfig::default())
    }

    const TIMER_APP: &str = "\
.handler TIMER0 on_timer
.task blink
.data count 1
main:
 ldi r1, 4        ; 4 ticks = 1024 cycles
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
on_timer:
 post blink
 reti
blink:
 lda r1, count
 addi r1, 1
 sta count, r1
 ret
";

    #[test]
    fn timer_app_runs_tasks() {
        let mut n = node(TIMER_APP);
        let mut sink = VecSink::default();
        n.run(1_000_000, &mut sink).unwrap();
        let count_addr = n.program().label("count").unwrap();
        let fired = n.mem()[count_addr as usize];
        // 1,000,000 cycles / 1024-cycle period ~ 976 fires.
        assert!(fired > 900, "timer fired {fired} times");
        // Lifecycle alternation: k events, k+1 segments.
        assert_eq!(sink.segments.len(), sink.events.len() + 1);
        // Pattern per fire: Int, Post, Reti, Run, TaskEnd.
        let kinds: Vec<_> = sink.events.iter().take(5).map(|(_, e)| *e).collect();
        assert_eq!(
            kinds,
            vec![
                LifecycleItem::Int(irq::TIMER0),
                LifecycleItem::PostTask(TaskId(0)),
                LifecycleItem::Reti,
                LifecycleItem::RunTask(TaskId(0)),
                LifecycleItem::TaskEnd(TaskId(0)),
            ]
        );
    }

    #[test]
    fn ground_truth_matches_timer_pattern() {
        let mut n = node(TIMER_APP);
        n.run(100_000, &mut NullSink).unwrap();
        let gt = n.ground_truth();
        assert!(!gt.is_empty());
        for iv in gt.iter().take(gt.len() - 1) {
            assert!(iv.is_complete());
            assert_eq!(iv.irq, irq::TIMER0);
            assert_eq!(iv.task_count, 1);
            // Int at i, TaskEnd at i+4 (Post, Reti, Run between).
            assert_eq!(iv.end_index.unwrap(), iv.start_index + 4);
        }
    }

    #[test]
    fn instruction_counts_sum_to_retired() {
        let mut n = node(TIMER_APP);
        let mut sink = VecSink::default();
        n.run(50_000, &mut sink).unwrap();
        let total: u64 = sink
            .segments
            .iter()
            .flat_map(|s| s.iter())
            .map(|&c| c as u64)
            .sum();
        assert_eq!(total, n.instructions_retired());
    }

    #[test]
    fn node_never_exceeds_limit_by_more_than_one_instruction() {
        let mut n = node(TIMER_APP);
        n.advance(12_345, &mut NullSink).unwrap();
        assert!(n.cycle() <= 12_345 + 8, "cycle {}", n.cycle());
    }

    #[test]
    fn halt_stops_the_node() {
        let mut n = node("main:\n halt\n");
        n.run(1_000, &mut NullSink).unwrap();
        assert!(n.halted());
        assert!(n.cycle() < 1_000);
    }

    #[test]
    fn fault_is_latched() {
        let mut n = node("main:\n in r1, 0x7F\n ret\n");
        let e = n.run(1_000, &mut NullSink).unwrap_err();
        assert!(matches!(e, VmError::BadPort { .. }));
        assert!(n.halted());
        let e2 = n.advance(2_000, &mut NullSink).unwrap_err();
        assert_eq!(e, e2);
    }

    #[test]
    fn unvectored_interrupts_are_dropped() {
        // Starts timer0 but has no handler: node must not fault or spin.
        let mut n = node("main:\n ldi r1, 1\n out TIMER0_PERIOD, r1\n out TIMER0_CTRL, r1\n ret\n");
        let mut sink = VecSink::default();
        n.run(10_000, &mut sink).unwrap();
        assert!(sink.events.is_empty());
        assert_eq!(n.cycle(), 10_000);
    }

    #[test]
    fn nested_preemption_by_different_line() {
        // TIMER0 handler busy-loops long enough for TIMER1 to preempt it.
        let src = "\
.handler TIMER0 slow
.handler TIMER1 quick
.data hits 1
main:
 ldi r1, 8
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ldi r1, 9
 out TIMER1_PERIOD, r1
 ldi r1, 1
 out TIMER1_CTRL, r1
 ret
slow:
 ldi r2, 2000
busy:
 subi r2, 1
 brne busy
 reti
quick:
 lda r3, hits
 addi r3, 1
 sta hits, r3
 reti
";
        let mut n = node(src);
        let mut sink = VecSink::default();
        n.run(200_000, &mut sink).unwrap();
        // Look for Int(1) nested inside Int(0) .. Reti.
        let mut depth0 = 0;
        let mut nested = false;
        let mut stack = Vec::new();
        for (_, ev) in &sink.events {
            match ev {
                LifecycleItem::Int(n) => {
                    if *n == 0 {
                        depth0 += 1;
                    } else if depth0 > 0 {
                        nested = true;
                    }
                    stack.push(*n);
                }
                LifecycleItem::Reti => {
                    if let Some(line) = stack.pop() {
                        if line == 0 {
                            depth0 -= 1;
                        }
                    }
                }
                _ => {}
            }
        }
        assert!(nested, "TIMER1 should preempt TIMER0's slow handler");
    }

    #[test]
    fn same_line_cannot_preempt_itself() {
        // TIMER0 handler runs longer than the timer period; fires must
        // queue, not nest.
        let src = "\
.handler TIMER0 slow
main:
 ldi r1, 1
 out TIMER0_PERIOD, r1
 out TIMER0_CTRL, r1
 ret
slow:
 ldi r2, 1000
busy:
 subi r2, 1
 brne busy
 reti
";
        let mut n = node(src);
        let mut sink = VecSink::default();
        n.run(50_000, &mut sink).unwrap();
        let mut depth = 0;
        for (_, ev) in &sink.events {
            match ev {
                LifecycleItem::Int(0) => {
                    depth += 1;
                    assert!(depth <= 1, "TIMER0 handler nested in itself");
                }
                LifecycleItem::Reti => depth -= 1,
                _ => {}
            }
        }
    }

    #[test]
    fn tasks_fifo_order() {
        let src = "\
.handler TIMER0 h
.task a
.task b
.data log 4
.data cursor 1
main:
 ldi r1, 4
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
h:
 post a
 post b
 out TIMER0_CTRL, r0   ; r0 == 0: one-shot
 reti
a:
 ldi r2, 1
 call logv
 ret
b:
 ldi r2, 2
 call logv
 ret
logv:
 lda r3, cursor
 ldi r4, log
 add r4, r3
 st [r4], r2
 addi r3, 1
 sta cursor, r3
 ret
";
        let mut n = node(src);
        n.run(50_000, &mut NullSink).unwrap();
        let log_addr = n.program().label("log").unwrap() as usize;
        assert_eq!(&n.mem()[log_addr..log_addr + 2], &[1, 2]);
    }

    #[test]
    fn boot_task_posted_from_main() {
        let src = "\
.task boot
.data flag 1
main:
 post boot
 ret
boot:
 ldi r1, 77
 sta flag, r1
 ret
";
        let mut n = node(src);
        let mut sink = VecSink::default();
        n.run(1_000, &mut sink).unwrap();
        let flag = n.program().label("flag").unwrap();
        assert_eq!(n.mem()[flag as usize], 77);
        assert!(n.ground_truth().is_empty(), "boot tasks own no instance");
        assert_eq!(
            sink.events.iter().map(|(_, e)| *e).collect::<Vec<_>>(),
            vec![
                LifecycleItem::PostTask(TaskId(0)),
                LifecycleItem::RunTask(TaskId(0)),
                LifecycleItem::TaskEnd(TaskId(0)),
            ]
        );
    }

    #[test]
    fn task_queue_overflow_faults() {
        let src = "\
.task t
main:
lp:
 post t
 jmp lp
t:
 ret
";
        let p = Arc::new(assemble(src).unwrap());
        let mut n = Node::new(
            p,
            NodeConfig {
                task_queue_capacity: 4,
                ..NodeConfig::default()
            },
        );
        let e = n.run(10_000, &mut NullSink).unwrap_err();
        assert!(matches!(e, VmError::TaskQueueFull { .. }));
    }

    #[test]
    fn sleep_then_timer_wakes() {
        let src = "\
.handler TIMER0 h
.data woke 1
main:
 ldi r1, 4
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 sleep
 ldi r1, 1
 sta woke, r1
 ret
h:
 out TIMER0_CTRL, r0
 reti
";
        let mut n = node(src);
        n.run(10_000, &mut NullSink).unwrap();
        let woke = n.program().label("woke").unwrap();
        assert_eq!(n.mem()[woke as usize], 1);
    }

    #[test]
    fn idle_node_parks_to_limit() {
        let mut n = node("main:\n ret\n");
        n.advance(5_000, &mut NullSink).unwrap();
        assert_eq!(n.cycle(), 5_000);
        assert!(!n.halted());
    }

    #[test]
    fn rx_injection_reaches_handler() {
        let src = "\
.handler RX on_rx
.data got 2
main:
 ret
on_rx:
 in r1, RADIO_RX_SRC
 sta got, r1
 in r1, RADIO_RX_POP
 sta got+1, r1
 reti
";
        let mut n = node(src);
        n.inject_rx(
            2_000,
            Packet {
                src: 9,
                dest: 0,
                payload: vec![55],
            },
        );
        n.run(10_000, &mut NullSink).unwrap();
        let got = n.program().label("got").unwrap() as usize;
        assert_eq!(n.mem()[got], 9);
        assert_eq!(n.mem()[got + 1], 55);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut n = node(TIMER_APP);
            let mut sink = VecSink::default();
            n.run(200_000, &mut sink).unwrap();
            (sink.events, n.instructions_retired())
        };
        let (a_events, a_retired) = run();
        let (b_events, b_retired) = run();
        assert_eq!(a_events, b_events);
        assert_eq!(a_retired, b_retired);
    }
}
