//! Multi-node simulation scaling: wall time of the conservative
//! synchronization engine as the network grows (grid of heartbeat nodes),
//! the cost of link-loss modelling, and one case-III emulation (the
//! 9-node CTP tree every live case-III seed runs first).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{LinkConfig, NetSim, Topology};
use sentomist_apps::ctp;
use sentomist_apps::experiments::CYCLES_PER_SECOND;
use std::sync::Arc;
use tinyvm::devices::NodeConfig;
use tinyvm::{NullSink, Program};

/// Every node broadcasts a beacon each ~100 ms and counts what it hears.
fn beacon_program() -> Arc<Program> {
    Arc::new(
        tinyvm::assemble(
            "\
.handler TIMER0 beat
.handler RX on_rx
.data heard 1
main:
 in r1, RAND
 ldi r2, 63
 and r1, r2
 addi r1, 390
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
beat:
 in r2, NODE_ID
 out RADIO_TX_PUSH, r2
 ldi r3, 0xFFFF
 out RADIO_SEND, r3
 reti
on_rx:
 in r1, RADIO_RX_POP
 lda r2, heard
 addi r2, 1
 sta heard, r2
 reti
",
        )
        .unwrap(),
    )
}

fn run_grid(side: u16, loss: f64, sim_cycles: u64) -> u64 {
    let program = beacon_program();
    let link = LinkConfig {
        latency_cycles: 128,
        loss_prob: loss,
    };
    let topo = Topology::grid(side, side, link).unwrap();
    let mut sim = NetSim::new(topo, 11);
    let count = side * side;
    for id in 0..count {
        sim.add_node(
            program.clone(),
            NodeConfig {
                node_id: id,
                seed: 100 + id as u64,
                ..NodeConfig::default()
            },
        )
        .unwrap();
    }
    let mut sinks = vec![NullSink; count as usize];
    sim.run(sim_cycles, &mut sinks).unwrap();
    (0..count)
        .map(|id| sim.node(id).instructions_retired())
        .sum()
}

fn bench_grid_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim_grid");
    for side in [2u16, 4, 6] {
        group.bench_with_input(BenchmarkId::new("nodes", side * side), &side, |b, &side| {
            b.iter(|| run_grid(side, 0.0, 500_000))
        });
    }
    group.finish();
}

fn bench_lossy_links(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim_loss");
    for loss in [0.0f64, 0.3] {
        group.bench_with_input(BenchmarkId::new("p", loss), &loss, |b, &loss| {
            b.iter(|| run_grid(4, loss, 500_000))
        });
    }
    group.finish();
}

/// One 15 s case-III seed (the default `Case3Config`: buggy CTP, seed 3)
/// on the 9-node tree, traces discarded, so only emulation is timed.
fn run_case3(program: &Arc<Program>, seed: u64) -> u64 {
    let mut sim = NetSim::new(ctp::topology().unwrap(), seed);
    for id in 0..ctp::NODE_COUNT {
        sim.add_node(program.clone(), ctp::node_config(id, seed))
            .unwrap();
    }
    let mut sinks = vec![NullSink; ctp::NODE_COUNT as usize];
    sim.run(15 * CYCLES_PER_SECOND, &mut sinks).unwrap();
    (0..ctp::NODE_COUNT)
        .map(|id| sim.node(id).instructions_retired())
        .sum()
}

fn bench_case3(c: &mut Criterion) {
    let program = ctp::buggy(&ctp::CtpParams::default()).unwrap();
    c.bench_function("netsim_case3", |b| b.iter(|| run_case3(&program, 3)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_grid_sizes, bench_lossy_links, bench_case3
}
criterion_main!(benches);
