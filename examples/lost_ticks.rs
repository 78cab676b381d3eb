//! A fourth scenario beyond the paper's case studies: **lost timer
//! interrupts**. MCU interrupt controllers hold one pending bit per line;
//! if a line fires twice while its handler is still in service, the
//! second event is silently lost. Here a metronome handler occasionally
//! calls a slow maintenance routine (data-dependent, rare) that runs
//! longer than the timer period — ticks vanish, timestamps drift, and
//! nothing crashes.
//!
//! Sentomist flags the slow instances without being told what "slow"
//! means: their instruction counters deviate.
//!
//! Run with: `cargo run --release --example lost_ticks`

use sentomist::core::{harvest_set, localize_set, Pipeline, SampleIndex};
use sentomist::tinyvm::{self, devices::NodeConfig, node::Node};
use sentomist::trace::Recorder;
use std::sync::Arc;

/// Ticks every ~4 ms and counts; roughly 1 fire in 128 triggers a
/// maintenance scan whose duration exceeds the period.
const METRONOME: &str = "\
.handler TIMER0 tick
.data ticks 1
main:
 ldi r1, 16           ; 4.1 ms period
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
tick:
 lda r1, ticks
 addi r1, 1
 sta ticks, r1
 in r2, RAND
 ldi r3, 127
 and r2, r3
 cmpi r2, 0
 brne tick_done
 ; rare maintenance scan: ~6 ms > the 4.1 ms period -> the next timer
 ; interrupt arrives while this handler is in service; the one after
 ; that overwrites the single pending bit and is LOST.
 ldi r4, 2000
scan:
 subi r4, 1
 brne scan
tick_done:
 reti
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Arc::new(tinyvm::assemble(METRONOME)?);
    let seconds = 20u64;
    let mut node = Node::new(
        program.clone(),
        NodeConfig {
            seed: 9,
            ..NodeConfig::default()
        },
    );
    let mut recorder = Recorder::new(program.len());
    node.run(seconds * 1_000_000, &mut recorder)?;
    let trace = recorder.into_trace();

    // External symptom: the tick counter lags wall-clock time.
    let ticks = node.mem()[program.label("ticks").unwrap() as usize] as u64;
    let expected = seconds * 1_000_000 / (16 * 256);
    println!(
        "ticks counted: {ticks}, timer periods elapsed: {expected} \
         => {} interrupts lost",
        expected - ticks
    );

    // Sentomist's view: rank the tick intervals.
    let samples = harvest_set(&trace, tinyvm::isa::irq::TIMER0, |s, _| SampleIndex::Seq(s))?;
    let report = Pipeline::default_ocsvm(0.05).rank_set(samples.clone())?;
    println!("\n{} tick intervals; most suspicious:", samples.len());
    print!("{}", report.table(6, 2));

    // Every flagged interval is indeed a slow one (it executed the scan).
    let scan_pc = program.label("scan").unwrap() as usize;
    let position = |index| samples.meta.iter().position(|m| m.index == index);
    let slow = |row: usize| samples.features.get(row, scan_pc) > 0.0;
    let slow_total = (0..samples.len()).filter(|&row| slow(row)).count();
    let slow_in_top: usize = report
        .top(slow_total)
        .iter()
        .filter(|r| position(r.index).is_some_and(slow))
        .count();
    println!(
        "\nground truth: {slow_total} slow instances; {slow_in_top} of the \
         top {slow_total} ranked intervals are slow ones."
    );

    // Localization points straight at the scan loop.
    let flagged = position(report.ranking[0].index).unwrap();
    if let Some(hit) = localize_set(&samples, flagged, &program, 2.0).first() {
        println!(
            "top deviating instruction: pc {} in `{}` (line {}) — the \
             maintenance scan.",
            hit.pc,
            hit.routine.as_deref().unwrap_or("?"),
            hit.source_line.unwrap_or(0)
        );
    }
    Ok(())
}
