//! Anatomizer throughput: cost of the interval extraction and of
//! instruction-counter featurization as the trace grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentomist_trace::{extract, CounterTable, Recorder, Trace};
use std::sync::Arc;
use tinyvm::devices::NodeConfig;
use tinyvm::node::Node;

fn record_trace(sim_seconds: u64) -> Trace {
    let params = sentomist_apps::oscilloscope::OscilloscopeParams::with_period_ms(20);
    let program = sentomist_apps::oscilloscope::buggy(&params).unwrap();
    let mut node = Node::new(program.clone(), NodeConfig::default());
    let mut rec = Recorder::new(program.len());
    node.run(sim_seconds * 1_000_000, &mut rec).unwrap();
    rec.into_trace()
}

fn bench_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("anatomize_extract");
    for seconds in [2u64, 10] {
        let trace = record_trace(seconds);
        group.throughput(Throughput::Elements(trace.events.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("events", trace.events.len()),
            &trace,
            |b, t| b.iter(|| extract(t).unwrap().intervals.len()),
        );
    }
    group.finish();
}

fn bench_counters(c: &mut Criterion) {
    let trace = record_trace(10);
    let extraction = extract(&trace).unwrap();
    let mut group = c.benchmark_group("anatomize_counters");
    group.bench_function("build_prefix_table", |b| {
        b.iter(|| CounterTable::try_new(&trace).unwrap().dimension())
    });
    let table = CounterTable::try_new(&trace).unwrap();
    let mut row = vec![0.0; table.dimension()];
    group.throughput(Throughput::Elements(extraction.intervals.len() as u64));
    group.bench_function("featurize_all_intervals", |b| {
        b.iter(|| {
            extraction
                .intervals
                .iter()
                .map(|iv| {
                    table.try_features_into(iv, &mut row).unwrap();
                    row[0]
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_recorder_overhead(c: &mut Criterion) {
    // Tracing cost: same workload with and without a recorder attached.
    let params = sentomist_apps::oscilloscope::OscilloscopeParams::with_period_ms(20);
    let program = sentomist_apps::oscilloscope::buggy(&params).unwrap();
    let mut group = c.benchmark_group("recorder_overhead");
    group.bench_function("null_sink", |b| {
        b.iter(|| {
            let mut node = Node::new(Arc::clone(&program), NodeConfig::default());
            node.run(2_000_000, &mut tinyvm::NullSink).unwrap();
            node.instructions_retired()
        })
    });
    group.bench_function("recording", |b| {
        b.iter(|| {
            let mut node = Node::new(Arc::clone(&program), NodeConfig::default());
            let mut rec = Recorder::new(program.len());
            node.run(2_000_000, &mut rec).unwrap();
            rec.into_trace().events.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_extract, bench_counters, bench_recorder_overhead
}
criterion_main!(benches);
