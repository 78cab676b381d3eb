//! `campaign-ctp`: a live case-III campaign that persists every run.
//!
//! Closed loop, one client: `run_supervised` (one worker thread) over
//! batches of up to 64 seeds of `Mode::Case3.supervised_traced_job()`,
//! each run saved with `TraceStore::save_run` into a store that is fresh
//! for the benchmark run. A unit is one seed's job (emulate, mine,
//! store) as the worker runs it. The oracle: the live campaign document
//! equals `mine_corpus` of the store the campaign wrote.

use crate::corpus::{live_document, persisting_job, scratch_store, seal};
use crate::decompose::{case3_seed, Counts};
use crate::layers;
use crate::measure::{
    cpu_ms, end_to_end, metric, ms, peak_rss_mb, set_up, Fnv, Outcome, TempDir, Window,
};
use crate::spans::Tracer;
use crate::RunCfg;
use sentomist::apps::{mine_corpus, CorpusMineOptions, Mode};
use sentomist::core::{run_supervised, CampaignResult, SupervisorOptions};
use sentomist::tracestore::{run_id_for_seed, TraceStore};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BATCH: u64 = 64;
const WARM_UP: u64 = 4;
const MODE: Mode = Mode::Case3;

struct Setup {
    dir: TempDir,
    store: TraceStore,
    program_digest: u64,
}

/// Seeds are contiguous from a base drawn from --seed.
fn base_seed(cfg: &RunCfg) -> u64 {
    1_000 + (cfg.seed % 1_000_000) * 10_000
}

fn setup(cfg: &RunCfg, i: usize) -> Result<Setup, String> {
    let dir = TempDir::new(cfg.work.join(format!("campaign-{i}")))?;
    let store = scratch_store(&dir.path().join("store"))?;
    // Warm-up: a few seeds below the measured range, into their own
    // store, so lazy initialisation is paid before the window opens.
    let warm = scratch_store(&dir.path().join("warm"))?;
    let job = persisting_job(MODE, &warm)?;
    let seeds: Vec<u64> = (0..WARM_UP).map(|i| base_seed(cfg) - 1 - i).collect();
    let r = run_supervised(&seeds, &SupervisorOptions::default(), Arc::new(job), |_| {});
    if let Some(e) = r.errors.first() {
        return Err(format!("warm-up seed {}: {}", e.seed, e.message));
    }
    let program_digest = MODE.program_digest().map_err(|e| e.0)?;
    Ok(Setup {
        dir,
        store,
        program_digest,
    })
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let (state, setup_s) = set_up(|i| setup(cfg, i))?;
    let Setup {
        dir,
        store,
        program_digest,
    } = state;
    let scratch = scratch_store(&dir.path().join("scratch"))?;
    // A seed's latency is timed on the worker, around the job itself:
    // timing it between completions on the collecting thread would add
    // that thread's wake-up delay, which a busy host stretches.
    let job_log: Arc<Mutex<Vec<(u64, Instant, Instant)>>> = Arc::default();
    let job = {
        let (inner, log) = (persisting_job(MODE, &store)?, Arc::clone(&job_log));
        Arc::new(move |ctx: &sentomist::core::RunContext| {
            let start = Instant::now();
            let out = inner(ctx);
            log.lock()
                .expect("job log lock")
                .push((ctx.seed(), start, Instant::now()));
            out
        })
    };
    let options = SupervisorOptions {
        threads: 1,
        ..SupervisorOptions::default()
    };

    let base = base_seed(cfg);
    let mut next = base;
    let mut result = CampaignResult {
        outcomes: Vec::new(),
        errors: Vec::new(),
    };
    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut decompose_failures = 0u64;
    let mut window = Window::default();
    let start = Instant::now();
    window.cpu.push((0.0, cpu_ms("self")?));
    let deadline = start + cfg.window;
    let mut batch_no = 0u64;
    while Instant::now() < deadline {
        // Size the last batches to the time left, so the window closes
        // within about one seed of its end.
        let done = plain_ms.len() + traced_ms.len();
        let mean = if done == 0 {
            Duration::from_millis(50)
        } else {
            start.elapsed() / done as u32
        };
        let left = deadline.saturating_duration_since(Instant::now());
        let n = (left.as_secs_f64() / mean.as_secs_f64().max(1e-3)).ceil() as u64;
        let seeds: Vec<u64> = (next..next + n.clamp(1, BATCH)).collect();
        next += seeds.len() as u64;

        // Traced runs decompose every other batch; the rest stay the
        // untraced reference for `bench.trace_overhead_pct`.
        let traced = cfg.traced && batch_no % 2 == 1;
        let mut completions: Vec<(u64, Instant, Instant)> = Vec::with_capacity(seeds.len());
        let mut last = Instant::now();
        let mut cpu_marks = Vec::with_capacity(seeds.len());
        let batch = run_supervised(&seeds, &options, Arc::clone(&job), |report| {
            let now = Instant::now();
            completions.push((report.seed, last, now));
            last = now;
            if let Ok(cpu) = cpu_ms("self") {
                cpu_marks.push(((now - start).as_secs_f64(), cpu));
            }
        });
        let jobs = std::mem::take(&mut *job_log.lock().expect("job log lock"));
        let unit_ms = jobs.iter().map(|&(_, s, e)| ms(e - s));
        if traced {
            traced_ms.extend(unit_ms);
            for &(seed, s, e) in &completions {
                // The seed span runs from the previous completion to this
                // one; its self time is the supervisor's share.
                let unit = tr.record("campaign.seed", None, seed, s, e);
                let Some(&(_, js, je)) = jobs.iter().find(|j| j.0 == seed) else {
                    continue;
                };
                let job = tr.record("core.job", Some(unit), seed, js, je);
                let live = store.manifest(&run_id_for_seed(seed));
                let outcome = batch.outcomes.iter().find(|o| o.seed == seed);
                let checked = match (live, outcome) {
                    (Ok(live), Some(o)) => case3_seed(
                        &mut tr,
                        job,
                        seed,
                        &live,
                        &o.trace_digest,
                        &scratch,
                        program_digest,
                        &mut counts,
                    ),
                    _ => Err(format!("seed {seed} left no stored run")),
                };
                if let Err(e) = checked {
                    eprintln!("campaign-ctp: {e}");
                    decompose_failures += 1;
                }
            }
        } else {
            plain_ms.extend(unit_ms);
            let ends = jobs
                .iter()
                .map(|&(_, s, e)| ((e - start).as_secs_f64(), ms(e - s)));
            window.units.extend(ends);
            window.cpu.extend(cpu_marks);
        }
        result.outcomes.extend(batch.outcomes);
        result.errors.extend(batch.errors);
        batch_no += 1;
    }
    window.seconds = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb("self")?;

    // Oracle: the stored corpus re-mines into the live document.
    let n = next - base;
    result.outcomes.sort_by_key(|o| o.seed);
    result.errors.sort_by_key(|e| e.seed);
    seal(&store, MODE, n, base, &result)?;
    let live = live_document(MODE, n, base, &result);
    let mined = mine_corpus(&store, &CorpusMineOptions::default()).map_err(|e| e.0)?;
    let mut digest = Fnv::default();
    digest.add(live.as_bytes());
    let mismatch = u64::from(mined.document != live);
    if mismatch > 0 {
        eprintln!("campaign-ctp: live document differs from the re-mined store");
    }

    let metrics = if cfg.traced {
        let mut m = layers::from_spans(&tr, &counts, "campaign.seed", "core.job");
        m.push(metric(
            "core.supervise_overhead_ms",
            tr.self_ms("campaign.seed") / counts.units.max(1) as f64,
            "ms",
        ));
        m.push(layers::trace_overhead_pct(&traced_ms, &plain_ms));
        m
    } else {
        end_to_end(setup_s, &window, rss)
    };
    if cfg.traced {
        tr.write_jsonl(&cfg.spans_path)?;
    }
    Ok(Outcome {
        attempted: n,
        failed: result.errors.len() as u64 + mismatch + decompose_failures,
        output_digest: digest.0,
        metrics,
    })
}
