//! Cross-crate integration: the whole stack — assembler → emulator →
//! network → trace inference → featurization → detector → ranking —
//! exercised through the umbrella crate, with consistency checks between
//! layers.

use sentomist::apps::Case2Config;
use sentomist::core::{harvest_set, Pipeline, SampleIndex};
use sentomist::netsim::{LinkConfig, NetSim, Topology};
use sentomist::tinyvm::{self, devices::NodeConfig, isa::irq, node::Node};
use sentomist::trace::{extract, CounterTable, Recorder};
use std::sync::Arc;

/// A two-node app: node 0 pings, node 1 echoes and counts.
const PING: &str = "\
.handler TIMER0 tick
.handler RX on_rx
.data pings 1
main:
 in r1, NODE_ID
 cmpi r1, 0
 brne listener
 ldi r1, 40
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
listener:
 ret
tick:
 lda r1, pings
 addi r1, 1
 sta pings, r1
 out RADIO_TX_PUSH, r1
 ldi r2, 1
 out RADIO_SEND, r2
 reti
on_rx:
 in r1, RADIO_RX_POP
 out UART_OUT, r1
 reti
";

#[test]
fn inference_matches_ground_truth_over_the_network() {
    let program = Arc::new(tinyvm::assemble(PING).unwrap());
    let mut topo = Topology::new(2);
    topo.connect(0, 1, LinkConfig::default()).unwrap();
    let mut sim = NetSim::new(topo, 99);
    sim.add_node(program.clone(), NodeConfig::default())
        .unwrap();
    sim.add_node(
        program.clone(),
        NodeConfig {
            node_id: 1,
            ..NodeConfig::default()
        },
    )
    .unwrap();
    let mut recorders = vec![Recorder::new(program.len()), Recorder::new(program.len())];
    sim.run(3_000_000, &mut recorders).unwrap();

    for (id, rec) in recorders.into_iter().enumerate() {
        let trace = rec.into_trace();
        let x = extract(&trace).unwrap();
        let gt: Vec<_> = sim
            .node(id as u16)
            .ground_truth()
            .iter()
            .filter(|g| g.is_complete())
            .collect();
        assert_eq!(x.intervals.len(), gt.len(), "node {id}");
        for (inferred, truth) in x.intervals.iter().zip(&gt) {
            assert_eq!(inferred.start_index, truth.start_index, "node {id}");
            assert_eq!(Some(inferred.end_index), truth.end_index, "node {id}");
        }
        // Counter mass conservation: summed interval counters never exceed
        // total retired instructions times the max overlap depth.
        let table = CounterTable::try_new(&trace).unwrap();
        let mut row = vec![0.0; table.dimension()];
        let mut total_counted = 0.0;
        for iv in &x.intervals {
            table.try_features_into(iv, &mut row).unwrap();
            total_counted += row.iter().sum::<f64>();
        }
        assert!(total_counted <= (trace.total_instructions() * 4) as f64);
    }
    // The receiver heard roughly one packet per tick.
    let heard = sim.node(1).uart().len();
    let pings_addr = program.label("pings").unwrap();
    let sent = sim.node(0).mem()[pings_addr as usize] as usize;
    assert!(heard <= sent && heard + 2 >= sent, "{heard} vs {sent}");
}

#[test]
fn pipeline_over_network_trace_is_clean_for_healthy_app() {
    let program = Arc::new(tinyvm::assemble(PING).unwrap());
    let mut node = Node::new(program.clone(), NodeConfig::default());
    let mut rec = Recorder::new(program.len());
    node.run(5_000_000, &mut rec).unwrap();
    let trace = rec.into_trace();
    let samples = harvest_set(&trace, irq::TIMER0, |s, _| SampleIndex::Seq(s)).unwrap();
    assert!(samples.len() > 100);
    let report = Pipeline::default_ocsvm(0.05).rank_set(samples).unwrap();
    // A healthy, metronomic app: the score spread must be tiny compared to
    // a real symptom (no huge negative outliers).
    let min = report
        .ranking
        .iter()
        .map(|r| r.score)
        .fold(f64::INFINITY, f64::min);
    assert!(min > -50.0, "healthy app produced a wild outlier: {min}");
}

#[test]
fn umbrella_reexports_compose() {
    // Smoke: every layer reachable through the umbrella crate.
    let result = Case2Config::default().study().unwrap().run().unwrap().0;
    assert_eq!(result.buggy_ranks, vec![1, 2, 3]);
    let _k = sentomist::mlcore::Kernel::rbf_default(8);
    let _t = sentomist::netsim::Topology::chain(2, LinkConfig::default()).unwrap();
}
