//! Recording corpora the way `sentomist campaign --store` does: a
//! supervised emulate-and-mine job that persists every run, then the
//! campaign manifest and a merged index (which gives the corpus the
//! fingerprint the daemon's result cache keys on).

use sentomist::apps::{campaign_document, Mode};
use sentomist::core::{
    run_supervised, CampaignResult, RunContext, RunFailure, RunOutcome, SupervisorOptions,
};
use sentomist::tracestore::{
    CampaignManifest, CorpusIndex, IoShim, StoredRunError, SyncPolicy, TraceStore, MANIFEST_VERSION,
};
use std::path::Path;
use std::sync::Arc;

/// A new store that skips fsync (`SyncPolicy::Fast`, the store's policy
/// for scratch stores). The benchmark deletes its stores at exit, and
/// fsync latency on a shared disk measures the disk, not this program:
/// with it, `campaign-ctp`'s tail latency varied by a fifth from run to
/// run.
pub fn scratch_store(dir: &Path) -> Result<TraceStore, String> {
    TraceStore::create_with(dir, IoShim::new(SyncPolicy::Fast)).map_err(|e| e.to_string())
}

/// The supervised per-seed job of `mode` that saves each run into `store`.
pub fn persisting_job(
    mode: Mode,
    store: &TraceStore,
) -> Result<impl Fn(&RunContext) -> Result<RunOutcome, RunFailure> + Send + Sync + 'static, String>
{
    let traced = mode.supervised_traced_job().map_err(|e| e.0)?;
    let program_digest = mode.program_digest().map_err(|e| e.0)?;
    let store = store.clone();
    Ok(move |ctx: &RunContext| {
        let (outcome, traces) = traced(ctx)?;
        store
            .save_run(ctx.seed(), mode.name(), program_digest, &traces)
            .map_err(|e| RunFailure::Transient(format!("storing run: {e}")))?;
        Ok(outcome)
    })
}

/// Writes the campaign manifest for seeds `base..base + n` and merges
/// the index, as a finished `campaign --store` does.
pub fn seal(
    store: &TraceStore,
    mode: Mode,
    n: u64,
    base: u64,
    result: &CampaignResult,
) -> Result<(), String> {
    store
        .save_campaign(&CampaignManifest {
            format_version: MANIFEST_VERSION,
            mode: mode.name().to_string(),
            params: mode.params(),
            seeds: n,
            base_seed: base,
            errors: result
                .errors
                .iter()
                .map(|e| StoredRunError {
                    seed: e.seed,
                    message: e.message.clone(),
                    kind: e.kind.as_str().to_string(),
                    attempts: e.attempts,
                })
                .collect(),
        })
        .map_err(|e| e.to_string())?;
    CorpusIndex::merge(store).map_err(|e| e.to_string())?;
    Ok(())
}

/// The live campaign document for seeds `base..base + n`, byte for byte
/// what `sentomist campaign --json` prints (plus its newline).
pub fn live_document(mode: Mode, n: u64, base: u64, result: &CampaignResult) -> String {
    use sentomist::apps::jobs::CampaignConfig;
    let mut config: CampaignConfig = mode.config_entries();
    config.push((
        "seeds".to_string(),
        serde_json::to_value(&n).expect("u64 serializes"),
    ));
    config.push((
        "base_seed".to_string(),
        serde_json::to_value(&base).expect("u64 serializes"),
    ));
    let mut doc = serde_json::to_string_pretty(&campaign_document(config, result))
        .expect("campaign documents always serialize");
    doc.push('\n');
    doc
}

/// Records seeds `base..base + n` of `mode` into a new store at `dir`.
pub fn record(dir: &Path, mode: Mode, base: u64, n: u64) -> Result<TraceStore, String> {
    let store = scratch_store(dir)?;
    let seeds: Vec<u64> = (base..base + n).collect();
    let job = persisting_job(mode, &store)?;
    let result = run_supervised(&seeds, &SupervisorOptions::default(), Arc::new(job), |_| {});
    if let Some(e) = result.errors.first() {
        return Err(format!("recording seed {}: {}", e.seed, e.message));
    }
    seal(&store, mode, n, base, &result)?;
    Ok(store)
}
