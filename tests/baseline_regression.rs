//! Baseline-model regression testing, end to end: freeze a one-class SVM
//! on a reference run in which the race happened not to trigger, then
//! screen later runs against it — triggered symptoms must screen first,
//! and a clean later run must show no comparable deviation.

use sentomist::apps::oscilloscope::{self, OscilloscopeParams};
use sentomist::core::{baseline::BaselineModel, harvest_set, SampleIndex, SampleSet};
use sentomist::tinyvm::{devices::NodeConfig, isa::irq, node::Node, LifecycleItem};
use sentomist::trace::{Recorder, Trace};

fn run(seed: u64) -> (Trace, SampleSet) {
    let params = OscilloscopeParams::with_period_ms(60);
    let program = oscilloscope::buggy(&params).unwrap();
    let mut node = Node::new(
        program.clone(),
        NodeConfig {
            seed,
            ..NodeConfig::default()
        },
    );
    let mut rec = Recorder::new(program.len());
    node.run(10_000_000, &mut rec).unwrap();
    let trace = rec.into_trace();
    let samples = harvest_set(&trace, irq::ADC, |s, _| SampleIndex::Seq(s)).unwrap();
    (trace, samples)
}

fn symptom_positions(trace: &Trace, samples: &SampleSet) -> Vec<usize> {
    samples
        .meta
        .iter()
        .enumerate()
        .filter(|(_, m)| {
            (m.interval.start_index + 1..m.interval.end_index)
                .any(|i| trace.events[i].item == LifecycleItem::Int(irq::ADC))
        })
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn frozen_baseline_screens_a_later_triggered_run() {
    // Gather several clean reference runs and one triggered run at
    // D = 60 ms (the race is rare there; see the trigger campaign). A
    // single-run baseline over-fits that run's particular interleavings —
    // pooling a few reference seeds is what covers benign cross-run
    // variation, exactly as one would collect several known-good nightly
    // runs in practice.
    let mut clean = SampleSet::empty();
    let mut clean_runs = 0;
    let mut triggered = None;
    for seed in 1000..1040u64 {
        let (trace, samples) = run(seed);
        let symptoms = symptom_positions(&trace, &samples);
        if symptoms.is_empty() && clean_runs < 4 {
            clean.append(&samples);
            clean_runs += 1;
        } else if !symptoms.is_empty() && triggered.is_none() {
            triggered = Some((samples, symptoms));
        }
        if clean_runs == 4 && triggered.is_some() {
            break;
        }
    }
    assert_eq!(clean_runs, 4, "clean runs exist at D=60");
    let (later, symptoms) = triggered.expect("a triggered run exists at D=60");

    // Freeze the baseline on the pooled clean runs.
    let model = BaselineModel::fit(&clean, 0.05).unwrap();

    // Screen the later (triggered) run: symptoms first.
    let screened = model.screen(&later).unwrap();
    let top: Vec<usize> = screened
        .iter()
        .take(symptoms.len())
        .map(|&(i, _)| i)
        .collect();
    for s in &symptoms {
        assert!(
            top.contains(s),
            "symptom at position {s} not in screened top {top:?}"
        );
    }
    // And the top symptom sits outside the frozen boundary. (Comparing
    // against the clean run's own minimum would be wrong: by design a
    // ν-fraction of the *training* points sits on or beyond the boundary.)
    assert!(
        screened[0].1 < 0.0,
        "symptom score {} not outside the boundary",
        screened[0].1
    );
    // Cross-run generalization is partial — a minority of the later
    // run's benign intervals also falls slightly outside the frozen
    // boundary (unseen-but-harmless interleaving mixes). That is exactly
    // why the method's contract is a *ranking* for prioritized
    // inspection rather than a hard classifier: the true symptom still
    // screens first (asserted above), while the boundary keeps the
    // majority clearly normal.
    let negatives = screened.iter().filter(|&&(_, sc)| sc < 0.0).count();
    assert!(
        negatives * 2 < later.len(),
        "{negatives} of {} outside the boundary",
        later.len()
    );
}

#[test]
fn frozen_baseline_is_portable_across_processes() {
    // Serialize the model, reload it, and screen with the copy — the CLI
    // scenario of fitting once and screening nightly runs.
    let (_, clean) = {
        let (trace, samples) = run(1000);
        assert!(symptom_positions(&trace, &samples).is_empty());
        (trace, samples)
    };
    let model = BaselineModel::fit(&clean, 0.05).unwrap();
    let json = serde_json::to_string(&model).unwrap();
    let reloaded: BaselineModel = serde_json::from_str(&json).unwrap();
    let (later_trace, later) = run(1002);
    let a = model.screen(&later).unwrap();
    let b = reloaded.screen(&later).unwrap();
    let ia: Vec<usize> = a.iter().map(|&(i, _)| i).collect();
    let ib: Vec<usize> = b.iter().map(|&(i, _)| i).collect();
    assert_eq!(ia, ib);
    let _ = later_trace;
}
