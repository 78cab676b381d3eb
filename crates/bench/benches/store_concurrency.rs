//! Multi-writer store throughput and the zero-copy re-mine win.
//!
//! Two questions, headline numbers for `BENCH_store.json`:
//!
//! 1. How does corpus ingestion scale when the seed sweep is fanned
//!    across 1/2/4/8 writer shards, each thread publishing through its
//!    own write-ahead log (no shared directory, no lock)?
//! 2. What does re-mining a stored corpus cost through the zero-copy
//!    decoder ([`TraceImage`] / [`TraceView`]), densified and replayed?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sentomist_trace::{Recorder, Trace};
use sentomist_tracestore::{CorpusIndex, TraceImage, TraceStore};
use std::path::PathBuf;
use tinyvm::devices::NodeConfig;
use tinyvm::node::Node;

/// One realistic lifecycle trace: the case-I oscilloscope app, 2
/// simulated seconds — the per-seed unit of work a campaign persists.
fn record_trace(seed: u64) -> Trace {
    let params = sentomist_apps::oscilloscope::OscilloscopeParams::with_period_ms(20);
    let program = sentomist_apps::oscilloscope::buggy(&params).unwrap();
    let mut node = Node::new(
        program.clone(),
        NodeConfig {
            seed,
            ..NodeConfig::default()
        },
    );
    let mut rec = Recorder::new(program.len());
    node.run(2_000_000, &mut rec).unwrap();
    rec.into_trace()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stc-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ingest 16 pre-recorded runs through W concurrent writer threads,
/// each publishing into its own shard (W=1 writes the flat tree), then
/// merge the index. The work is identical for every W; only the
/// topology changes.
fn bench_ingest(c: &mut Criterion) {
    let seeds: Vec<u64> = (1..=16).collect();
    let traces: Vec<Trace> = seeds.iter().map(|&s| record_trace(s)).collect();
    let mut group = c.benchmark_group("store_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(seeds.len() as u64));
    for writers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("writers", writers),
            &writers,
            |b, &writers| {
                b.iter(|| {
                    let root = scratch("ingest");
                    let store = TraceStore::create(&root).unwrap();
                    std::thread::scope(|scope| {
                        for w in 0..writers {
                            let store = &store;
                            let seeds = &seeds;
                            let traces = &traces;
                            scope.spawn(move || {
                                let sink = if writers > 1 {
                                    store.shard(&format!("writer-{w:02}")).unwrap()
                                } else {
                                    store.clone()
                                };
                                for (i, &seed) in seeds.iter().enumerate() {
                                    if i % writers == w {
                                        sink.save_run(seed, "bench", 0xbead, &traces[i..=i])
                                            .unwrap();
                                    }
                                }
                            });
                        }
                    });
                    let index = CorpusIndex::merge(&store).unwrap();
                    std::fs::remove_dir_all(&root).ok();
                    index.corpus_digest()
                })
            },
        );
    }
    group.finish();
}

/// Decode a stored corpus back to dense traces through the zero-copy
/// image view (borrowed slices, in-place varint decode).
fn bench_remine(c: &mut Criterion) {
    let root = scratch("remine");
    let store = TraceStore::create(&root).unwrap();
    let mut files = Vec::new();
    let mut items = 0u64;
    for seed in 1..=8u64 {
        let trace = record_trace(seed);
        items += (trace.events.len() + trace.segments.len()) as u64;
        let m = store.save_run(seed, "bench", 0xbead, &[trace]).unwrap();
        files.push(store.run_dir(&m.run_id).join(&m.nodes[0].file));
    }

    let mut group = c.benchmark_group("store_remine");
    group.throughput(Throughput::Elements(items));
    group.bench_function("zero_copy_view", |b| {
        b.iter(|| {
            let mut digest = 0u64;
            for f in &files {
                let image = TraceImage::open(f).unwrap();
                digest ^= image.view().unwrap().to_trace().unwrap().digest();
            }
            digest
        })
    });
    group.finish();

    // Interval extraction without ever densifying the trace.
    let mut group = c.benchmark_group("store_replay");
    group.throughput(Throughput::Elements(items));
    group.bench_function("zero_copy_view", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for f in &files {
                let image = TraceImage::open(f).unwrap();
                n += image.view().unwrap().replay_online().unwrap().len();
            }
            n
        })
    });
    group.finish();
    std::fs::remove_dir_all(&root).ok();
}

criterion_group!(benches, bench_ingest, bench_remine);
criterion_main!(benches);
