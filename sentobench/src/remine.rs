//! `remine-osc` and `remine-ctp`: re-mining a stored corpus.
//!
//! Closed loop, one client: `apps::jobs::mine_corpus` over and over on
//! a corpus recorded at set-up. A unit is one `mine_corpus` call. The
//! oracle: every unit's document equals the reference document mined
//! at set-up.

use crate::corpus::record;
use crate::decompose::{mine_store, Counts, MineSpec};
use crate::layers;
use crate::measure::{cpu_ms, end_to_end, ms, peak_rss_mb, set_up, Fnv, Outcome, TempDir, Window};
use crate::spans::Tracer;
use crate::RunCfg;
use sentomist::apps::{mine_corpus, CorpusMineOptions, Mode};
use sentomist::tracestore::TraceStore;
use std::time::Instant;

/// Which corpus a re-mine workload replays.
#[derive(Debug, Clone, Copy)]
pub struct Corpus {
    pub mode: Mode,
    pub runs: u64,
}

/// `remine-osc`: 4 case-I runs, 5 traces and 1,141 intervals per ranking.
pub const OSC: Corpus = Corpus {
    mode: Mode::Case1,
    runs: 4,
};

/// `remine-ctp`: 8 case-III runs, 9 node traces and ~98 intervals per
/// ranking.
pub const CTP: Corpus = Corpus {
    mode: Mode::Case3,
    runs: 8,
};

struct Setup {
    _dir: TempDir,
    store: TraceStore,
    reference: String,
}

fn setup(cfg: &RunCfg, corpus: Corpus, i: usize) -> Result<Setup, String> {
    let dir = TempDir::new(cfg.work.join(format!("remine-{i}")))?;
    let base = 2_000 + (cfg.seed % 1_000_000) * 100;
    let store = record(&dir.path().join("store"), corpus.mode, base, corpus.runs)?;
    let reference = mine_corpus(&store, &CorpusMineOptions::default())
        .map_err(|e| e.0)?
        .document;
    Ok(Setup {
        _dir: dir,
        store,
        reference,
    })
}

pub fn run(cfg: &RunCfg, corpus: Corpus) -> Result<Outcome, String> {
    let (state, setup_s) = set_up(|i| setup(cfg, corpus, i))?;
    let spec = MineSpec::for_mode(corpus.mode)?;
    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest = Fnv::default();
    digest.add(state.reference.as_bytes());

    let mut window = Window::default();
    let start = Instant::now();
    window.cpu.push((0.0, cpu_ms("self")?));
    while start.elapsed() < cfg.window {
        let traced = cfg.traced && attempted % 2 == 1;
        let unit_start = Instant::now();
        let mined = mine_corpus(&state.store, &CorpusMineOptions::default());
        let unit_end = Instant::now();
        let ok = matches!(&mined, Ok(m) if m.document == state.reference);
        if !ok {
            eprintln!(
                "{}: unit {attempted} differs from the reference",
                cfg.workload
            );
            failed += 1;
        }
        if traced {
            traced_ms.push(ms(unit_end - unit_start));
            let unit = tr.record("remine.mine_corpus", None, attempted, unit_start, unit_end);
            if let Err(e) = mine_store(&mut tr, unit, attempted, &state.store, &spec, &mut counts) {
                eprintln!("{}: {e}", cfg.workload);
                failed += 1;
            }
        } else {
            plain_ms.push(ms(unit_end - unit_start));
            let end = (unit_end - start).as_secs_f64();
            window.units.push((end, ms(unit_end - unit_start)));
            window.cpu.push((end, cpu_ms("self")?));
        }
        attempted += 1;
    }
    window.seconds = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb("self")?;

    let metrics = if cfg.traced {
        tr.write_jsonl(&cfg.spans_path)?;
        let mut m = layers::from_spans(&tr, &counts, "remine.mine_corpus", "remine.mine_corpus");
        m.push(layers::trace_overhead_pct(&traced_ms, &plain_ms));
        m
    } else {
        end_to_end(setup_s, &window, rss)
    };
    Ok(Outcome {
        attempted,
        failed,
        output_digest: digest.0,
        metrics,
    })
}
