//! Serialization round-trips across the stack: programs, traces,
//! extraction results and reports all survive JSON (the CLI's artifact
//! format), preserving analysis results exactly.

use sentomist::core::{harvest_set, Pipeline, SampleIndex};
use sentomist::tinyvm::{self, devices::NodeConfig, node::Node};
use sentomist::trace::{extract, Recorder, Trace};
use std::sync::Arc;

const APP: &str = "\
.handler TIMER0 h
.task t
.data n 1
main:
 ldi r1, 8
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
h:
 post t
 reti
t:
 lda r1, n
 addi r1, 1
 sta n, r1
 ret
";

fn record() -> (Arc<tinyvm::Program>, Trace) {
    let program = Arc::new(tinyvm::assemble(APP).unwrap());
    let mut node = Node::new(program.clone(), NodeConfig::default());
    let mut rec = Recorder::new(program.len());
    node.run(500_000, &mut rec).unwrap();
    (program, rec.into_trace())
}

#[test]
fn program_round_trips_through_json() {
    let (program, _) = record();
    let json = serde_json::to_string(&*program).unwrap();
    let back: tinyvm::Program = serde_json::from_str(&json).unwrap();
    assert_eq!(back, *program);
    // The reloaded program is still runnable.
    let mut node = Node::new(Arc::new(back), NodeConfig::default());
    node.run(100_000, &mut tinyvm::NullSink).unwrap();
    assert!(node.instructions_retired() > 0);
}

#[test]
fn trace_round_trips_and_analyzes_identically() {
    let (_, trace) = record();
    let json = serde_json::to_string(&trace).unwrap();
    let back: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(back, trace);
    let a = extract(&trace).unwrap();
    let b = extract(&back).unwrap();
    assert_eq!(a, b);
}

#[test]
fn report_round_trips_with_exact_scores() {
    let (_, trace) = record();
    let samples =
        harvest_set(&trace, tinyvm::isa::irq::TIMER0, |s, _| SampleIndex::Seq(s)).unwrap();
    let report = Pipeline::default_ocsvm(0.2).rank_set(samples).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: sentomist::core::Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.table(5, 2), report.table(5, 2));
}

#[test]
fn binary_encoding_matches_assembled_text() {
    let (program, _) = record();
    let words = tinyvm::encode::encode_program(&program);
    assert_eq!(words.len(), program.len());
    for (w, &op) in words.iter().zip(&program.ops) {
        assert_eq!(tinyvm::decode(*w), Ok(op));
    }
}
