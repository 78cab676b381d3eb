//! The bug-localization extension, end to end: after Sentomist flags an
//! interval, `localize_set` must point at the instructions of the buggy code
//! path — drop branch for case II, failure branch for case III.

use sentomist::apps::forwarder;
use sentomist::core::{harvest_set, localize_set, Pipeline, SampleIndex};
use sentomist::netsim::{LinkConfig, NetSim, Topology};
use sentomist::tinyvm::isa::irq;
use sentomist::trace::Recorder;

#[test]
fn localization_implicates_the_drop_branch() {
    // Run case II manually so we keep the relay program and trace.
    let relay = forwarder::relay_program_buggy().unwrap();
    let mut sim = NetSim::new(Topology::chain(3, LinkConfig::default()).unwrap(), 0);
    sim.add_node(
        forwarder::sink_program().unwrap(),
        forwarder::node_config(forwarder::nodes::SINK, 0),
    )
    .unwrap();
    sim.add_node(
        relay.clone(),
        forwarder::node_config(forwarder::nodes::RELAY, 1),
    )
    .unwrap();
    sim.add_node(
        forwarder::source_program(&forwarder::ForwarderParams::default()).unwrap(),
        forwarder::node_config(forwarder::nodes::SOURCE, 2),
    )
    .unwrap();
    let mut recorders = vec![
        Recorder::new(sim.node(0).program().len()),
        Recorder::new(relay.len()),
        Recorder::new(sim.node(2).program().len()),
    ];
    sim.run(20_000_000, &mut recorders).unwrap();
    let trace = recorders.swap_remove(1).into_trace();
    let samples = harvest_set(&trace, irq::RX, |s, _| SampleIndex::Seq(s)).unwrap();
    let report = Pipeline::default_ocsvm(0.05)
        .rank_set(samples.clone())
        .unwrap();

    let top = report.ranking[0].index;
    let flagged = samples.meta.iter().position(|m| m.index == top).unwrap();
    let hits = localize_set(&samples, flagged, &relay, 1.0);
    assert!(!hits.is_empty(), "no implicated instructions");

    // The drop-branch instructions must appear among the implicated ones,
    // attributed to the fwd_drop routine.
    let drop_pc = relay.label("fwd_drop").unwrap();
    let drop_hit = hits
        .iter()
        .find(|h| h.pc >= drop_pc && h.routine.as_deref() == Some("fwd_drop"));
    assert!(
        drop_hit.is_some(),
        "fwd_drop not implicated; top hits: {:?}",
        hits.iter()
            .take(5)
            .map(|h| (h.pc, h.routine.clone()))
            .collect::<Vec<_>>()
    );
    // And the observed count is 1 execution vs an expectation near 0.
    let hit = drop_hit.unwrap();
    assert_eq!(hit.observed, 1.0);
    assert!(hit.expected < 0.1);
    // Source-line mapping points into the relay assembly.
    assert!(hit.source_line.is_some());
}
