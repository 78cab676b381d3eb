//! Trace-store codec throughput: cost of encoding a lifecycle trace into
//! the chunked `.stc` format and of decoding it back — plus the headline
//! bytes-per-item and naive-encoding ratio figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentomist_trace::{Recorder, Trace};
use sentomist_tracestore::{read_trace, write_trace};
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

fn items(trace: &Trace) -> u64 {
    (trace.events.len() + trace.segments.len()) as u64
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracestore_encode");
    for seconds in [2u64, 10] {
        let trace = record_trace(seconds);
        group.throughput(Throughput::Elements(items(&trace)));
        group.bench_with_input(BenchmarkId::new("items", items(&trace)), &trace, |b, t| {
            b.iter(|| {
                let mut out = Vec::new();
                write_trace(&mut out, t).unwrap().encoded_bytes
            })
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracestore_decode");
    for seconds in [2u64, 10] {
        let trace = record_trace(seconds);
        let mut bytes = Vec::new();
        let stats = write_trace(&mut bytes, &trace).unwrap();
        // The headline size figures, printed once per input size.
        println!(
            "tracestore: {} items, {} encoded bytes ({:.2}/item), {:.1}% of naive",
            items(&trace),
            stats.encoded_bytes,
            stats.encoded_bytes as f64 / items(&trace) as f64,
            100.0 * stats.ratio(),
        );
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("densify", items(&trace)),
            &bytes,
            |b, bytes| b.iter(|| read_trace(bytes).unwrap().events.len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
