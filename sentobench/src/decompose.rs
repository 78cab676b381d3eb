//! The decomposition pass of the traced run.
//!
//! A timed unit is one opaque public call (`mine_corpus`, or one seed
//! of a supervised campaign). To see where its time goes without
//! touching the program, this pass calls the layer functions that call
//! reaches — in the same order, on the same inputs — and times each as
//! a child span of the unit. The pass is only trusted because it checks
//! itself: it must reproduce `harvest_set` and `rank_set` output and the
//! run's trace digests exactly, or the unit fails.

use crate::spans::Tracer;
use sentomist::apps::experiments::CYCLES_PER_SECOND;
use sentomist::apps::{ctp, Case1Config, Case3Config, DetectorKind, Mode};
use sentomist::core::sample::SampleMeta;
use sentomist::core::{harvest_set, Pipeline, RankedSample, Report, SampleIndex, SampleSet};
use sentomist::mlcore::{normalize_scores, rank_ascending, FeatureMatrix, OneClassSvm, Scaler};
use sentomist::netsim::NetSim;
use sentomist::trace::{extract, CounterTable, Recorder, Trace};
use sentomist::tracestore::{RunManifest, TraceStore};
use std::hint::black_box;

/// Work counted by the decomposition pass, summed over its units.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub units: u64,
    pub events: u64,
    pub instructions: u64,
    pub intervals: u64,
    pub smo_iterations: u64,
    pub support_vectors: u64,
    pub gram_bytes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

/// How a campaign mode mines one run's traces: which event type, which
/// nodes, how samples are labelled, and the detector's ν.
#[derive(Debug, Clone, Copy)]
pub struct MineSpec {
    irq: u8,
    sources: Option<&'static [u16]>,
    by_node: bool,
    nu: f64,
}

impl MineSpec {
    /// The mining stage of a case-study mode, as `Mode::miner` runs it.
    pub fn for_mode(mode: Mode) -> Result<MineSpec, String> {
        let nu = |kind: DetectorKind| match kind {
            DetectorKind::OcSvm { nu } => Ok(nu),
            other => Err(format!(
                "decomposition covers OC-SVM only, not {}",
                other.name()
            )),
        };
        match mode {
            Mode::Case1 => Ok(MineSpec {
                irq: sentomist::tinyvm::isa::irq::ADC,
                sources: None,
                by_node: false,
                nu: nu(Case1Config::default().detector)?,
            }),
            Mode::Case3 => Ok(MineSpec {
                irq: sentomist::tinyvm::isa::irq::TIMER0,
                sources: Some(&ctp::SOURCES),
                by_node: true,
                nu: nu(Case3Config::default().detector)?,
            }),
            other => Err(format!("no decomposition for mode {}", other.name())),
        }
    }

    fn label(&self, trace_no: usize, seq: u32) -> SampleIndex {
        if self.by_node {
            SampleIndex::NodeSeq {
                node: trace_no as u16,
                seq,
            }
        } else {
            SampleIndex::RunSeq {
                run: trace_no as u32 + 1,
                seq,
            }
        }
    }
}

/// Anatomize, featurize, scale, fit and rank one run's traces as child
/// spans of `parent`, checking the result against `harvest_set` and
/// `rank_set`.
pub fn mine_traces(
    tr: &mut Tracer,
    parent: usize,
    unit: u64,
    traces: &[Trace],
    spec: &MineSpec,
    counts: &mut Counts,
) -> Result<(), String> {
    let mut pooled = SampleSet::empty();
    for (r, trace) in traces.iter().enumerate() {
        if spec.sources.is_some_and(|s| !s.contains(&(r as u16))) {
            continue;
        }
        counts.events += trace.events.len() as u64;
        let extraction = tr
            .time("trace.extract", Some(parent), unit, || extract(trace))
            .map_err(|e| e.to_string())?;
        let table = tr
            .time("trace.counter_table", Some(parent), unit, || {
                CounterTable::try_new(trace)
            })
            .map_err(|e| e.to_string())?;
        let set = tr
            .time("core.featurize", Some(parent), unit, || {
                let intervals = extraction.for_irq(spec.irq);
                let mut features = FeatureMatrix::with_capacity(intervals.len(), table.dimension());
                let mut meta = Vec::with_capacity(intervals.len());
                for (i, interval) in intervals.into_iter().enumerate() {
                    table.try_features_into(&interval, features.add_row())?;
                    meta.push(SampleMeta {
                        index: spec.label(r, i as u32 + 1),
                        interval,
                    });
                }
                let set = SampleSet { meta, features };
                pooled.append(&set);
                Ok::<_, sentomist::trace::CounterError>(set)
            })
            .map_err(|e| e.to_string())?;
        let reference =
            harvest_set(trace, spec.irq, |seq, _| spec.label(r, seq)).map_err(|e| e.to_string())?;
        if reference != set {
            return Err(format!(
                "decomposition diverged from harvest_set on trace {r}"
            ));
        }
    }
    counts.intervals += pooled.len() as u64;
    let expected = Pipeline::default_ocsvm(spec.nu)
        .rank_set(pooled.clone())
        .map_err(|e| e.to_string())?;

    let SampleSet { meta, mut features } = pooled;
    tr.time("mlcore.scale", Some(parent), unit, || {
        Scaler::fit(&features).transform_in_place(&mut features)
    });
    let fit = tr.open("mlcore.fit", Some(parent), unit);
    let model = OneClassSvm::with_nu(spec.nu).fit(&features);
    tr.close(fit);
    let model = model.map_err(|e| e.to_string())?;
    // The Gram matrix `fit` builds first, rebuilt alone as a child of the
    // fit span, so the fit's self time is the SMO solver's share.
    let gram = tr.time("mlcore.gram", Some(fit), unit, || {
        model.kernel.gram(&features)
    });
    black_box(gram);
    let l = features.rows() as u64;
    counts.gram_bytes += l * l * 8;
    counts.smo_iterations += model.iterations as u64;
    counts.support_vectors += model.num_support() as u64;

    let mut scores = model.decision;
    normalize_scores(&mut scores);
    let ranking = rank_ascending(&scores)
        .into_iter()
        .map(|i| RankedSample {
            index: meta[i].index,
            score: scores[i],
            interval: meta[i].interval,
        })
        .collect();
    let got = Report {
        detector: expected.detector.clone(),
        ranking,
    };
    if got != expected {
        return Err("decomposition diverged from rank_set".into());
    }
    Ok(())
}

/// Re-mines every run of a stored corpus as children of `parent`.
pub fn mine_store(
    tr: &mut Tracer,
    parent: usize,
    unit: u64,
    store: &TraceStore,
    spec: &MineSpec,
    counts: &mut Counts,
) -> Result<(), String> {
    let manifests = tr
        .time("tracestore.manifests", Some(parent), unit, || {
            store.manifests()
        })
        .map_err(|e| e.to_string())?;
    for manifest in &manifests {
        let traces = tr
            .time("tracestore.load_traces", Some(parent), unit, || {
                store.load_traces(manifest)
            })
            .map_err(|e| e.to_string())?;
        counts.bytes_read += manifest.nodes.iter().map(|n| n.encoded_bytes).sum::<u64>();
        mine_traces(tr, parent, unit, &traces, spec, counts)?;
    }
    counts.units += 1;
    Ok(())
}

/// FNV-1a chained over per-trace digests, the case-level trace digest a
/// campaign outcome carries.
fn chain_digest(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        h = (h ^ d).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Re-runs one case-III campaign seed layer by layer — assemble, build
/// the topology, emulate the network, store the run, mine it — as
/// children of `parent`, and checks every trace digest against the
/// manifest the live campaign stored and the outcome it reported.
#[allow(clippy::too_many_arguments)]
pub fn case3_seed(
    tr: &mut Tracer,
    parent: usize,
    seed: u64,
    live: &RunManifest,
    outcome_digest: &str,
    scratch: &TraceStore,
    program_digest: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    let config = Case3Config::default();
    let (program, topology) = tr.time("apps.assemble", Some(parent), seed, || {
        (ctp::buggy(&config.params), ctp::topology())
    });
    let program = program.map_err(|e| e.to_string())?;
    let topology = topology.map_err(|e| e.to_string())?;
    let traces = tr.time("netsim.run", Some(parent), seed, || {
        let mut sim = NetSim::new(topology, seed);
        for id in 0..ctp::NODE_COUNT {
            sim.add_node(program.clone(), ctp::node_config(id, seed))?;
        }
        let mut recorders: Vec<Recorder> = (0..ctp::NODE_COUNT)
            .map(|_| Recorder::new(program.len()))
            .collect();
        sim.run(config.run_seconds * CYCLES_PER_SECOND, &mut recorders)?;
        Ok::<_, sentomist::netsim::SimError>(
            recorders
                .into_iter()
                .map(Recorder::into_trace)
                .collect::<Vec<_>>(),
        )
    });
    let traces = traces.map_err(|e| e.to_string())?;
    counts.instructions += traces
        .iter()
        .flat_map(|t| &t.segments)
        .flatten()
        .map(|&c| u64::from(c))
        .sum::<u64>();

    let digests: Vec<u64> = traces.iter().map(Trace::digest).collect();
    let stored: Vec<&str> = live.nodes.iter().map(|n| n.trace_digest.as_str()).collect();
    let replayed: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    if stored != replayed || format!("{:016x}", chain_digest(digests)) != outcome_digest {
        return Err(format!(
            "seed {seed}: decomposition traces differ from the live run"
        ));
    }

    let manifest = tr
        .time("tracestore.save_run", Some(parent), seed, || {
            scratch.save_run(seed, Mode::Case3.name(), program_digest, &traces)
        })
        .map_err(|e| e.to_string())?;
    counts.bytes_written += manifest.nodes.iter().map(|n| n.encoded_bytes).sum::<u64>();
    mine_traces(
        tr,
        parent,
        seed,
        &traces,
        &MineSpec::for_mode(Mode::Case3)?,
        counts,
    )?;
    counts.units += 1;
    Ok(())
}
