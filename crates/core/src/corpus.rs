//! Re-mining a persisted trace corpus without re-emulating.
//!
//! A campaign run with `--store` leaves behind a [`TraceStore`]: one
//! directory per seed holding the run's encoded lifecycle traces plus a
//! manifest. [`mine_store`] sweeps that corpus on the same supervised
//! pool a live campaign sweeps seeds on ([`run_supervised`]) — fanned
//! over worker threads, aggregated sorted by seed — except each "run" is
//! a decode instead of an emulation. Detectors can thus be re-tuned and
//! rankings re-produced at a fraction of the original cost, and (because
//! the mining stage is the same code path the live campaign used) the
//! re-mined document is bit-identical to the live one.
//!
//! For corpora that took damage — a torn write, bit rot, a killed
//! recording — [`MineOptions::quarantine`] adds *quarantine-and-continue*:
//! runs whose manifest or traces fail corruption-class validation
//! ([`StoreError::is_corruption`]) are moved to the store's
//! `quarantine/` directory with a typed reason, the remaining runs are
//! mined normally, and the [`MineReport`] enumerates exactly what was
//! skipped and why. One bad run no longer costs the corpus.

use crate::campaign::{CampaignResult, RunError, RunOutcome};
use crate::supervise::{run_supervised, RunContext, RunFailure, SupervisorOptions};
use sentomist_trace::Trace;
use sentomist_tracestore::{seed_for_run_id, RunManifest, StoreError, TraceStore};
use std::sync::{Arc, Mutex};

/// How a corpus should be mined.
#[derive(Debug, Clone, Copy)]
pub struct MineOptions {
    /// Worker threads for the sweep (clamped to `1..=runs`). Never
    /// influences the result.
    pub threads: usize,
    /// Emit one progress line per finished run on stderr.
    pub progress: bool,
    /// Quarantine-and-continue: move corruption-class failures to
    /// `quarantine/` instead of reporting them as run errors. Off, a
    /// corrupt run stays in place and lands in the error list (the
    /// historical behavior).
    pub quarantine: bool,
}

impl Default for MineOptions {
    fn default() -> Self {
        MineOptions {
            threads: 1,
            progress: false,
            quarantine: false,
        }
    }
}

/// One run set aside by quarantine-and-continue mining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRun {
    /// The run directory name (now under `quarantine/`).
    pub run_id: String,
    /// The run's seed (parsed from the run id when the manifest itself
    /// was unreadable).
    pub seed: u64,
    /// The corruption that condemned it, rendered as text.
    pub reason: String,
}

/// What corpus mining produced: the campaign result over the healthy
/// runs, plus everything quarantine set aside.
#[derive(Debug, Clone, PartialEq)]
pub struct MineReport {
    /// Mining result over the runs that passed validation.
    pub result: CampaignResult,
    /// Runs moved to `quarantine/`, ascending by run id (always empty
    /// without [`MineOptions::quarantine`]).
    pub quarantined: Vec<QuarantinedRun>,
}

/// Mines every run stored in `store` with `miner`, a function from the
/// run's seed and decoded traces (node order, digest-verified) to a
/// campaign outcome.
///
/// Store-level failures of a single run — corrupt or tampered trace
/// file — and miner errors land in the result's `errors` list under that
/// run's seed as single-attempt [`RunFailure::Fatal`] rows, mirroring
/// how a live campaign reports per-seed job failures; a panicking miner
/// becomes a `panic` row. None of them aborts the sweep. The miner is
/// `'static` because the supervised pool owns its jobs.
///
/// With `quarantine` on, a run is set aside (moved to `quarantine/`,
/// reason recorded on disk and in the report) when its manifest is
/// missing/unparsable or its traces fail decode/digest validation with a
/// corruption-class error; environmental failures (I/O permission
/// errors, version skew) and miner failures still land in `errors`.
///
/// # Errors
///
/// Listing the corpus or moving a condemned run can fail the call
/// itself, and so can an unreadable manifest when quarantine is off;
/// every other per-run problem is reported, never thrown.
pub fn mine_store<F>(
    store: &TraceStore,
    options: &MineOptions,
    miner: F,
) -> Result<MineReport, StoreError>
where
    F: Fn(u64, &[Trace]) -> Result<RunOutcome, String> + Send + Sync + 'static,
{
    let mut quarantined: Vec<QuarantinedRun> = Vec::new();
    let mut manifests: Vec<RunManifest> = Vec::new();
    let mut manifest_errors: Vec<(u64, String)> = Vec::new();
    for run_id in store.run_ids()? {
        match store.manifest(&run_id) {
            Ok(manifest) => manifests.push(manifest),
            Err(e) if options.quarantine && e.is_corruption() => {
                let reason = e.to_string();
                store.quarantine_run(&run_id, &reason)?;
                quarantined.push(QuarantinedRun {
                    seed: seed_for_run_id(&run_id).unwrap_or(0),
                    run_id,
                    reason,
                });
            }
            Err(e) => {
                // Historical behavior: a bad manifest fails the listing.
                if !options.quarantine {
                    return Err(e);
                }
                manifest_errors.push((seed_for_run_id(&run_id).unwrap_or(0), e.to_string()));
            }
        }
    }
    let seeds: Vec<u64> = manifests.iter().map(|m| m.seed).collect();
    // Corruption found while loading traces; quarantining is deferred to
    // after the sweep so workers never race on renames.
    let condemned: Arc<Mutex<Vec<QuarantinedRun>>> = Arc::default();
    let job = {
        let store = store.clone();
        let condemned = Arc::clone(&condemned);
        let quarantine = options.quarantine;
        move |ctx: &RunContext| {
            let seed = ctx.seed();
            let manifest = manifests
                .iter()
                .find(|m| m.seed == seed)
                .expect("swept seeds come from the manifests");
            let traces = store.load_traces(manifest).map_err(|e| {
                if quarantine && e.is_corruption() {
                    condemned
                        .lock()
                        .expect("condemned list lock")
                        .push(QuarantinedRun {
                            run_id: manifest.run_id.clone(),
                            seed,
                            reason: e.to_string(),
                        });
                }
                RunFailure::Fatal(e.to_string())
            })?;
            miner(seed, &traces).map_err(RunFailure::Fatal)
        }
    };
    let pool = SupervisorOptions {
        threads: options.threads,
        progress: options.progress,
        ..SupervisorOptions::default()
    };
    let mut result = run_supervised(&seeds, &pool, Arc::new(job), |_| {});
    for (seed, message) in manifest_errors {
        result.errors.push(RunError::new(seed, message));
    }
    result.errors.sort_by_key(|e| e.seed);
    let condemned = std::mem::take(&mut *condemned.lock().expect("condemned list lock"));
    for run in condemned {
        store.quarantine_run(&run.run_id, &run.reason)?;
        // A quarantined run is skipped, not failed: drop its error entry.
        result.errors.retain(|e| e.seed != run.seed);
        quarantined.push(run);
    }
    quarantined.sort_by(|a, b| a.run_id.cmp(&b.run_id));
    Ok(MineReport {
        result,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{FailureKind, Verdict};
    use sentomist_trace::TraceEvent;
    use std::path::PathBuf;
    use tinyvm::LifecycleItem;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sentomist-corpus-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn trace_with(cycle: u64) -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    cycle,
                    item: LifecycleItem::Int(0),
                },
                TraceEvent {
                    cycle: cycle + 2,
                    item: LifecycleItem::Reti,
                },
            ],
            segments: vec![vec![1], vec![3], vec![0]],
            program_len: 1,
        }
    }

    fn outcome_from(seed: u64, traces: &[Trace]) -> Result<RunOutcome, String> {
        Ok(RunOutcome {
            seed,
            samples: traces.iter().map(|t| t.events.len()).sum(),
            symptoms: 0,
            buggy_ranks: vec![],
            verdict: Verdict::Clean,
            trace_digest: format!("{:016x}", traces[0].digest()),
            wall_time_ms: 0,
        })
    }

    #[test]
    fn mines_all_stored_runs_sorted_by_seed() {
        let root = tmpdir("sweep");
        let store = TraceStore::create(&root).unwrap();
        for seed in [9u64, 2, 5] {
            store
                .save_run(seed, "test", 0, &[trace_with(seed * 10)])
                .unwrap();
        }
        let result = mine_store(&store, &MineOptions::default(), outcome_from)
            .unwrap()
            .result;
        assert!(result.errors.is_empty());
        let seeds: Vec<u64> = result.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds, vec![2, 5, 9]);
        assert_eq!(result.outcomes[0].samples, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_run_becomes_a_run_error_not_a_panic() {
        let root = tmpdir("corrupt");
        let store = TraceStore::create(&root).unwrap();
        store.save_run(1, "test", 0, &[trace_with(4)]).unwrap();
        let manifest = store.save_run(2, "test", 0, &[trace_with(8)]).unwrap();
        // Truncate run 2's trace file mid-stream.
        let path = store
            .run_dir(&manifest.run_id)
            .join(&manifest.nodes[0].file);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let result = mine_store(&store, &MineOptions::default(), outcome_from)
            .unwrap()
            .result;
        assert_eq!(result.outcomes.len(), 1);
        assert_eq!(result.outcomes[0].seed, 1);
        assert_eq!(result.errors.len(), 1);
        let e = &result.errors[0];
        assert_eq!((e.seed, e.kind, e.attempts), (2, FailureKind::Error, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn panicking_miner_becomes_a_panic_row_and_the_rest_mine() {
        let root = tmpdir("panic");
        let store = TraceStore::create(&root).unwrap();
        for seed in [1u64, 2, 3] {
            store
                .save_run(seed, "test", 0, &[trace_with(seed)])
                .unwrap();
        }
        let miner = |seed: u64, traces: &[Trace]| {
            assert_ne!(seed, 2, "miner bug");
            outcome_from(seed, traces)
        };
        let report = mine_store(&store, &MineOptions::default(), miner).unwrap();
        let seeds: Vec<u64> = report.result.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds, vec![1, 3]);
        let e = &report.result.errors[0];
        assert_eq!((e.seed, e.kind, e.attempts), (2, FailureKind::Panic, 1));
        assert!(e.message.contains("miner bug"), "{}", e.message);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_moves_corrupt_runs_and_mines_the_rest() {
        let root = tmpdir("quarantine");
        let store = TraceStore::create(&root).unwrap();
        for seed in [1u64, 2, 3, 4] {
            store
                .save_run(seed, "test", 0, &[trace_with(seed * 7)])
                .unwrap();
        }
        // Damage run 2's trace and run 3's manifest.
        let m2 = store.manifest("seed-00000000000000000002").unwrap();
        let path = store.run_dir(&m2.run_id).join(&m2.nodes[0].file);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(
            store
                .run_dir("seed-00000000000000000003")
                .join("manifest.json"),
            "{ not json",
        )
        .unwrap();

        let report = mine_store(
            &store,
            &MineOptions {
                quarantine: true,
                ..MineOptions::default()
            },
            outcome_from,
        )
        .unwrap();
        let seeds: Vec<u64> = report.result.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds, vec![1, 4]);
        assert!(
            report.result.errors.is_empty(),
            "{:?}",
            report.result.errors
        );
        assert_eq!(report.quarantined.len(), 2);
        assert_eq!(report.quarantined[0].seed, 2);
        assert_eq!(report.quarantined[1].seed, 3);
        assert!(!report.quarantined[0].reason.is_empty());
        // The runs physically moved, with reasons recorded on disk.
        assert!(!store.run_dir("seed-00000000000000000002").exists());
        let notes = store.quarantined().unwrap();
        assert_eq!(notes.len(), 2);
        assert!(notes[0].run_id.ends_with("2"));
        assert!(notes[1].reason.contains("manifest"));
        // And the remaining corpus still mines cleanly a second time.
        let again = mine_store(&store, &MineOptions::default(), outcome_from).unwrap();
        assert_eq!(again.result.outcomes.len(), 2);
        assert!(again.result.errors.is_empty());
        assert!(again.quarantined.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}
