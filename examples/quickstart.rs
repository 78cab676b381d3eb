//! Quickstart: assemble a tiny event-driven sensor application, run it on
//! the emulator, and watch Sentomist anatomize its runtime into
//! event-handling intervals — reproducing the timeline of the paper's
//! Figure 1 from a live trace.
//!
//! Run with: `cargo run --example quickstart`

use sentomist::core::{harvest_set, Pipeline, SampleIndex};
use sentomist::tinyvm::{self, devices::NodeConfig, node::Node};
use sentomist::trace::Recorder;
use std::sync::Arc;

/// An application shaped like the paper's Figure 1: the interrupt handler
/// posts tasks A and B; A posts C; a second interrupt line occasionally
/// preempts the tasks.
const APP: &str = "\
.handler TIMER0 on_event
.handler TIMER1 on_other
.task task_a
.task task_b
.task task_c
.data work 1
main:
 ldi r1, 8            ; the analyzed event: every ~2 ms
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ldi r1, 13           ; an unrelated interrupt source
 out TIMER1_PERIOD, r1
 out TIMER1_CTRL, r1
 ret

on_event:
 post task_a
 post task_b
 reti

on_other:
 lda r1, work
 addi r1, 1
 sta work, r1
 reti

task_a:
 post task_c
 ldi r2, 40
a_spin:
 subi r2, 1
 brne a_spin
 ret

task_b:
 ldi r2, 120
b_spin:
 subi r2, 1
 brne b_spin
 ret

task_c:
 ldi r2, 60
c_spin:
 subi r2, 1
 brne c_spin
 ret
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Assemble and run the application for 50 simulated milliseconds,
    //    recording the system lifecycle sequence.
    let program = Arc::new(tinyvm::assemble(APP)?);
    let mut node = Node::new(program.clone(), NodeConfig::default());
    let mut recorder = Recorder::new(program.len());
    node.run(50_000, &mut recorder)?;
    let trace = recorder.into_trace();

    // 2. Anatomize: every TIMER0 interrupt starts an event-procedure
    //    instance whose lifetime ends when its last transitively posted
    //    task finishes (paper Definition 2, inferred by Criteria 1–3
    //    from the lifecycle sequence alone).
    let extraction = sentomist::trace::extract(&trace)?;
    println!("lifecycle events recorded : {}", trace.events.len());
    println!("event-handling intervals  : {}", extraction.intervals.len());

    // Print the first TIMER0 instance as a Figure-1 style timeline.
    let first = extraction
        .intervals
        .iter()
        .find(|iv| iv.irq == tinyvm::isa::irq::TIMER0)
        .expect("the timer fired");
    println!(
        "\nFigure-1 timeline of the first TIMER0 instance \
         (t0 = cycle {}):",
        first.start_cycle
    );
    for i in first.start_index..=first.end_index {
        let ev = &trace.events[i];
        println!("  t+{:<6} {}", ev.cycle - first.start_cycle, ev.item);
    }
    println!(
        "  => lifetime {} cycles, {} tasks posted",
        first.end_cycle - first.start_cycle,
        first.task_count
    );

    // 3. Featurize + mine: rank all TIMER0 intervals by suspicion with the
    //    default one-class SVM. (This app is healthy, so the ranking just
    //    reflects benign timing variation.)
    let samples = harvest_set(&trace, tinyvm::isa::irq::TIMER0, |seq, _| {
        SampleIndex::Seq(seq)
    })?;
    let report = Pipeline::default_ocsvm(0.3).rank_set(samples)?;
    println!("\nSuspicion ranking (top 5 / bottom 2):");
    print!("{}", report.table(5, 2));
    Ok(())
}
