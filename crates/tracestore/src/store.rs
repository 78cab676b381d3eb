//! The corpus directory: a versioned on-disk collection of runs, each a
//! JSON manifest plus one `.stc` trace file per node.
//!
//! ```text
//! <store>/                     (layout v2)
//!   campaign.json              (optional: how the corpus was produced)
//!   index.json                 (optional: merged, generation-stamped index)
//!   wal.jsonl                  (write-ahead log of in-flight publications)
//!   runs/
//!     seed-00000000000000001000/
//!       manifest.json
//!       node-000.stc
//!       node-001.stc
//!   shards/                    (optional: per-writer sub-stores)
//!     writer-00/
//!       runs/seed-.../...
//! ```
//!
//! Run directories are named `seed-<20-digit decimal>`, so lexicographic
//! order equals numeric seed order and `ls` output is stable. Reads see
//! the **merged** view: [`TraceStore::run_ids`] unions primary `runs/`
//! with every shard, and [`TraceStore::locate_run`] resolves a run id to
//! its physical directory (primary wins, then shards in sorted order).
//! Manifests and the index are published crash-atomically — WAL `begin`,
//! temp-file write + fsync, rename, directory fsync, WAL `commit` — so a
//! killed writer never leaves a torn manifest, only sweepable `.tmp`
//! files (see [`TraceStore::fsck`]). v1 stores (no shards, no WAL, no
//! index, manifests written in place) read back unchanged.

use crate::error::StoreError;
use crate::sync::{IoShim, SyncPolicy, WriteClass};
use crate::view::read_trace_file;
use crate::writer::{write_trace, StoreStats};
use sentomist_trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Version of the manifest schema (independent of the `.stc` byte
/// format's [`crate::format::FORMAT_VERSION`]). v2 introduced the
/// crash-atomic commit protocol, shards and the merged index; v1
/// manifests are still read.
pub const MANIFEST_VERSION: u32 = 2;

/// Per-node entry of a [`RunManifest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeTraceMeta {
    /// Node id within the run (or run index for multi-run cases).
    pub node: u16,
    /// Trace file name, relative to the run directory.
    pub file: String,
    /// Lifecycle events in the trace.
    pub events: u64,
    /// Count segments in the trace.
    pub segments: u64,
    /// Encoded file size in bytes.
    pub encoded_bytes: u64,
    /// [`Trace::digest`] of the decoded trace, as 16 hex digits — the
    /// same token campaign outcomes carry.
    pub trace_digest: String,
}

/// One run's manifest: everything needed to re-mine it without
/// re-emulating.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest schema version.
    pub format_version: u32,
    /// Run directory name.
    pub run_id: String,
    /// The seed the run was produced under (the replay key).
    pub seed: u64,
    /// Producer mode (`trigger`, `case1`, `case2`, `case3`, `record`).
    pub mode: String,
    /// FNV-1a digest of the program(s) the run executed, 16 hex digits.
    pub program_digest: String,
    /// Per-node traces, in node order.
    pub nodes: Vec<NodeTraceMeta>,
}

/// A stored per-run failure (mirrors `campaign::RunError` without the
/// dependency).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredRunError {
    /// Seed of the failed run.
    pub seed: u64,
    /// The error rendered as text.
    pub message: String,
    /// Failure-kind slug (`error`, `panic`, `timeout`); empty in
    /// manifests written before failure typing (treated as `error`).
    #[serde(default)]
    pub kind: String,
    /// Attempts spent before giving up; 0 in pre-typing manifests
    /// (treated as 1).
    #[serde(default)]
    pub attempts: u32,
}

/// Campaign-level manifest: the job parameters a `trace mine` needs to
/// reproduce the live campaign document byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Manifest schema version.
    pub format_version: u32,
    /// Campaign mode (`trigger` or `case1`..`case3`).
    pub mode: String,
    /// Mode parameters as `key=value` strings (e.g. `period=20`),
    /// exactly the flag values the campaign resolved.
    pub params: Vec<String>,
    /// Number of seeds swept.
    pub seeds: u64,
    /// First seed.
    pub base_seed: u64,
    /// Runs that failed during the live campaign (they have no run
    /// directory).
    pub errors: Vec<StoredRunError>,
}

impl CampaignManifest {
    /// Looks up a `key=value` parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        let prefix = format!("{key}=");
        self.params.iter().find_map(|p| p.strip_prefix(&prefix))
    }
}

/// The run-id directory name for a seed.
pub fn run_id_for_seed(seed: u64) -> String {
    format!("seed-{seed:020}")
}

/// Inverse of [`run_id_for_seed`]: the seed encoded in a run-id
/// directory name, or `None` for foreign names. Lets quarantine report a
/// seed even when the run's manifest is unreadable.
pub fn seed_for_run_id(run_id: &str) -> Option<u64> {
    run_id.strip_prefix("seed-")?.parse().ok()
}

/// File name of the campaign journal (one JSON object per line, appended
/// as seeds complete).
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Reason note written into a quarantined run's directory (and returned
/// by [`TraceStore::quarantined`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineNote {
    /// The quarantined run's directory name.
    pub run_id: String,
    /// Why it was condemned.
    pub reason: String,
}

/// A corpus directory of stored runs.
#[derive(Debug, Clone)]
pub struct TraceStore {
    root: PathBuf,
    shim: IoShim,
}

impl TraceStore {
    /// Creates the store directory (and `runs/`) if needed and opens it,
    /// with the default durable [`IoShim`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created — e.g. an
    /// unwritable `--store` location; the message names the path.
    pub fn create(root: impl Into<PathBuf>) -> Result<TraceStore, StoreError> {
        TraceStore::create_with(root, IoShim::default())
    }

    /// [`TraceStore::create`] with an explicit [`IoShim`] — how the
    /// chaos harness injects crash faults and benches drop fsyncs.
    ///
    /// # Errors
    ///
    /// As [`TraceStore::create`].
    pub fn create_with(root: impl Into<PathBuf>, shim: IoShim) -> Result<TraceStore, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(root.join("runs")).map_err(|e| {
            StoreError::io(format!("creating trace store at {}", root.display()), e)
        })?;
        Ok(TraceStore { root, shim })
    }

    /// Opens an existing store with the default durable [`IoShim`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when `root` is not an existing directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<TraceStore, StoreError> {
        TraceStore::open_with(root, IoShim::default())
    }

    /// [`TraceStore::open`] with an explicit [`IoShim`].
    ///
    /// # Errors
    ///
    /// As [`TraceStore::open`].
    pub fn open_with(root: impl Into<PathBuf>, shim: IoShim) -> Result<TraceStore, StoreError> {
        let root = root.into();
        if !root.join("runs").is_dir() {
            return Err(StoreError::io(
                format!(
                    "opening trace store at {} (no runs/ directory — not a store?)",
                    root.display()
                ),
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such store"),
            ));
        }
        Ok(TraceStore { root, shim })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's I/O shim (shared with every shard sub-store).
    pub fn shim(&self) -> &IoShim {
        &self.shim
    }

    /// The shim's durability policy.
    pub fn policy(&self) -> SyncPolicy {
        self.shim.policy()
    }

    /// Directory of a run in the **primary** `runs/` tree (where new
    /// runs of this store handle are written). For reading, prefer
    /// [`TraceStore::locate_run`], which also finds shard runs.
    pub fn run_dir(&self, run_id: &str) -> PathBuf {
        self.root.join("runs").join(run_id)
    }

    /// Directory of a shard sub-store.
    pub fn shard_dir(&self, shard_id: &str) -> PathBuf {
        self.root.join("shards").join(shard_id)
    }

    /// Opens (creating if needed) the per-writer shard sub-store
    /// `shards/<shard_id>/`. The shard is a full [`TraceStore`] rooted
    /// in its own directory — writers ingest runs into it without ever
    /// contending on the parent's manifests — and it **shares the
    /// parent's [`IoShim`]**, so one simulated process death tears all
    /// writers at the same instant.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; ids containing path separators are rejected.
    pub fn shard(&self, shard_id: &str) -> Result<TraceStore, StoreError> {
        if shard_id.is_empty() || shard_id.contains('/') || shard_id.contains('\\') {
            return Err(StoreError::io(
                format!("opening shard {shard_id:?}"),
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "shard ids must be plain directory names",
                ),
            ));
        }
        TraceStore::create_with(self.shard_dir(shard_id), self.shim.clone())
    }

    /// Ids of existing shards, sorted (empty when the store has none).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when `shards/` exists but cannot be listed.
    pub fn shard_ids(&self) -> Result<Vec<String>, StoreError> {
        let dir = self.root.join("shards");
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::io(format!("listing {}", dir.display()), e)),
        };
        let mut ids = Vec::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
            if entry.path().is_dir() {
                ids.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Resolves a run id to its physical directory across the merged
    /// view: primary `runs/` wins, then shards in sorted id order.
    /// `None` when no directory holds the run.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the shard listing fails.
    pub fn locate_run(&self, run_id: &str) -> Result<Option<PathBuf>, StoreError> {
        let primary = self.run_dir(run_id);
        if primary.is_dir() {
            return Ok(Some(primary));
        }
        for shard in self.shard_ids()? {
            let dir = self.shard_dir(&shard).join("runs").join(run_id);
            if dir.is_dir() {
                return Ok(Some(dir));
            }
        }
        Ok(None)
    }

    /// Persists one run: every trace as a `.stc` file plus the manifest.
    /// Existing data for the same run id is overwritten.
    ///
    /// # Errors
    ///
    /// Any I/O or encoding failure, with path context.
    pub fn save_run(
        &self,
        seed: u64,
        mode: &str,
        program_digest: u64,
        traces: &[Trace],
    ) -> Result<RunManifest, StoreError> {
        let run_id = run_id_for_seed(seed);
        let dir = self.run_dir(&run_id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("creating run directory {}", dir.display()), e))?;
        let mut nodes = Vec::with_capacity(traces.len());
        for (i, trace) in traces.iter().enumerate() {
            let file = format!("node-{i:03}.stc");
            // Encode in memory, then land the bytes through the shim so
            // trace data participates in crash injection and fsync policy.
            let mut bytes = Vec::new();
            let stats: StoreStats = write_trace(&mut bytes, trace)?;
            self.shim
                .write_file(&dir.join(&file), &bytes, WriteClass::Data)?;
            nodes.push(NodeTraceMeta {
                node: i as u16,
                file,
                events: stats.events,
                segments: stats.segments,
                encoded_bytes: stats.encoded_bytes,
                trace_digest: format!("{:016x}", trace.digest()),
            });
        }
        let manifest = RunManifest {
            format_version: MANIFEST_VERSION,
            run_id,
            seed,
            mode: mode.to_string(),
            program_digest: format!("{program_digest:016x}"),
            nodes,
        };
        self.write_manifest(&manifest)?;
        Ok(manifest)
    }

    /// Writes (or rewrites) a run's `manifest.json`, crash-atomically:
    /// WAL `begin` → temp write + fsync → rename over the target →
    /// directory fsync → WAL `commit`. The rename is atomic, so a crash
    /// anywhere in the protocol leaves the manifest whole — either the
    /// previous version or the new one, never a torn mix. The run
    /// directory must already exist — used by streaming producers that
    /// wrote their `.stc` files directly.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Manifest`].
    pub fn write_manifest(&self, manifest: &RunManifest) -> Result<(), StoreError> {
        let rel = format!("runs/{}/manifest.json", manifest.run_id);
        let json = serde_json::to_string_pretty(manifest).map_err(|e| StoreError::Manifest {
            path: self.root.join(&rel),
            message: format!("serializing manifest: {e}"),
        })?;
        self.publish(&rel, json.as_bytes(), WriteClass::Manifest)
    }

    /// All run ids across the merged view — primary `runs/` unioned
    /// with every shard — sorted ascending (== ascending seed order).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when `runs/` or a shard cannot be listed.
    pub fn run_ids(&self) -> Result<Vec<String>, StoreError> {
        let mut ids = BTreeSet::new();
        let mut dirs = vec![self.root.join("runs")];
        for shard in self.shard_ids()? {
            dirs.push(self.shard_dir(&shard).join("runs"));
        }
        for dir in dirs {
            let entries = match std::fs::read_dir(&dir) {
                Ok(entries) => entries,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    return Err(StoreError::io(
                        format!("listing store runs in {}", dir.display()),
                        e,
                    ))
                }
            };
            for entry in entries {
                let entry =
                    entry.map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
                if entry.path().is_dir() {
                    ids.insert(entry.file_name().to_string_lossy().into_owned());
                }
            }
        }
        Ok(ids.into_iter().collect())
    }

    /// Loads one run's manifest (resolving shard runs transparently).
    ///
    /// # Errors
    ///
    /// [`StoreError::Manifest`] when missing or unparsable.
    pub fn manifest(&self, run_id: &str) -> Result<RunManifest, StoreError> {
        let dir = self
            .locate_run(run_id)?
            .unwrap_or_else(|| self.run_dir(run_id));
        let path = dir.join("manifest.json");
        let data = std::fs::read_to_string(&path).map_err(|e| StoreError::Manifest {
            path: path.clone(),
            message: format!("reading manifest: {e}"),
        })?;
        let manifest: RunManifest =
            serde_json::from_str(&data).map_err(|e| StoreError::Manifest {
                path: path.clone(),
                message: format!("parsing manifest: {e}"),
            })?;
        if manifest.format_version > MANIFEST_VERSION {
            return Err(StoreError::Manifest {
                path,
                message: format!(
                    "manifest version {} is newer than this binary understands",
                    manifest.format_version
                ),
            });
        }
        Ok(manifest)
    }

    /// All manifests, ascending by run id.
    ///
    /// # Errors
    ///
    /// First listing or manifest error.
    pub fn manifests(&self) -> Result<Vec<RunManifest>, StoreError> {
        self.run_ids()?.iter().map(|id| self.manifest(id)).collect()
    }

    /// Decodes every trace of a run, verifying each against its manifest
    /// digest. Served by the zero-copy [`crate::TraceView`] path: one
    /// whole-file read per node, records decoded from borrowed chunk
    /// slices with no per-chunk copies.
    ///
    /// # Errors
    ///
    /// Decode errors, plus [`StoreError::DigestMismatch`] when a decoded
    /// trace does not hash to the digest its manifest recorded.
    pub fn load_traces(&self, manifest: &RunManifest) -> Result<Vec<Trace>, StoreError> {
        let dir = self
            .locate_run(&manifest.run_id)?
            .unwrap_or_else(|| self.run_dir(&manifest.run_id));
        let mut traces = Vec::with_capacity(manifest.nodes.len());
        for node in &manifest.nodes {
            let trace = read_trace_file(&dir.join(&node.file))?;
            let digest = format!("{:016x}", trace.digest());
            if digest != node.trace_digest {
                return Err(StoreError::DigestMismatch {
                    expected: node.trace_digest.clone(),
                    actual: digest,
                });
            }
            traces.push(trace);
        }
        Ok(traces)
    }

    /// Persists the campaign manifest (`campaign.json`),
    /// crash-atomically like [`TraceStore::write_manifest`].
    ///
    /// # Errors
    ///
    /// I/O or serialization failures.
    pub fn save_campaign(&self, manifest: &CampaignManifest) -> Result<(), StoreError> {
        let json = serde_json::to_string_pretty(manifest).map_err(|e| StoreError::Manifest {
            path: self.root.join("campaign.json"),
            message: format!("serializing campaign manifest: {e}"),
        })?;
        self.publish("campaign.json", json.as_bytes(), WriteClass::Manifest)
    }

    /// Path of the campaign journal (which may not exist yet).
    pub fn journal_path(&self) -> PathBuf {
        self.root.join(JOURNAL_FILE)
    }

    /// Appends one line to the campaign journal, creating it on first
    /// use. The journal is the campaign's checkpoint: one self-contained
    /// JSON object per completed seed, so a killed campaign resumes from
    /// whatever made it to disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn append_journal(&self, line: &str) -> Result<(), StoreError> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        self.shim
            .append_file(&self.journal_path(), &bytes, WriteClass::Journal)
    }

    /// The journal's complete lines (empty when no journal exists). A
    /// trailing line without a newline — the torn write of a killed
    /// campaign — is dropped, not an error: resume re-runs that seed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on anything other than a missing journal.
    pub fn journal_lines(&self) -> Result<Vec<String>, StoreError> {
        let path = self.journal_path();
        let data = match std::fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::io(format!("reading {}", path.display()), e)),
        };
        let text = String::from_utf8_lossy(&data);
        let sealed = match text.rfind('\n') {
            Some(last) => &text[..last],
            None => "", // a single torn line: nothing is sealed
        };
        Ok(sealed
            .lines()
            .filter(|line| !line.trim().is_empty())
            .map(str::to_string)
            .collect())
    }

    /// Removes the journal (a completed campaign's checkpoint is garbage
    /// once `campaign.json` holds the final result). Missing journal is
    /// fine.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn clear_journal(&self) -> Result<(), StoreError> {
        let path = self.journal_path();
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io(format!("removing {}", path.display()), e)),
        }
    }

    /// The campaign-artifact directory (which may not exist yet):
    /// rendered documents that summarize the corpus — `BUG_REPORT.md`,
    /// `bug_report.json` — live beside the runs they were mined from.
    pub fn artifacts_dir(&self) -> PathBuf {
        self.root.join("artifacts")
    }

    /// Saves a named campaign artifact under `artifacts/`, creating the
    /// directory on first use and overwriting a previous version.
    /// Returns the artifact's path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; a name containing a path separator is
    /// rejected (artifacts are flat files, not trees).
    pub fn save_artifact(&self, name: &str, contents: &str) -> Result<PathBuf, StoreError> {
        if name.contains('/') || name.contains('\\') || name.is_empty() {
            return Err(StoreError::io(
                format!("saving artifact {name:?}"),
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "artifact names must be plain file names",
                ),
            ));
        }
        let dir = self.artifacts_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("creating {}", dir.display()), e))?;
        let path = dir.join(name);
        std::fs::write(&path, contents)
            .map_err(|e| StoreError::io(format!("writing {}", path.display()), e))?;
        Ok(path)
    }

    /// Loads a named artifact, or `None` when it was never saved.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on anything other than a missing file.
    pub fn load_artifact(&self, name: &str) -> Result<Option<String>, StoreError> {
        let path = self.artifacts_dir().join(name);
        match std::fs::read_to_string(&path) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::io(format!("reading {}", path.display()), e)),
        }
    }

    /// The quarantine directory (which may not exist yet).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Moves a run out of `runs/` into `quarantine/<run_id>/`, recording
    /// `reason` in a `quarantine.json` note beside the damaged files.
    /// Re-quarantining the same run id replaces the previous occupant.
    /// Returns the run's new location.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the move or the note write fails.
    pub fn quarantine_run(&self, run_id: &str, reason: &str) -> Result<PathBuf, StoreError> {
        let src = self
            .locate_run(run_id)?
            .unwrap_or_else(|| self.run_dir(run_id));
        let dir = self.quarantine_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("creating {}", dir.display()), e))?;
        let dst = dir.join(run_id);
        if dst.exists() {
            std::fs::remove_dir_all(&dst)
                .map_err(|e| StoreError::io(format!("replacing {}", dst.display()), e))?;
        }
        std::fs::rename(&src, &dst).map_err(|e| {
            StoreError::io(
                format!("quarantining {} to {}", src.display(), dst.display()),
                e,
            )
        })?;
        let note = QuarantineNote {
            run_id: run_id.to_string(),
            reason: reason.to_string(),
        };
        let note_path = dst.join("quarantine.json");
        let json = serde_json::to_string_pretty(&note).map_err(|e| StoreError::Manifest {
            path: note_path.clone(),
            message: format!("serializing quarantine note: {e}"),
        })?;
        std::fs::write(&note_path, json)
            .map_err(|e| StoreError::io(format!("writing {}", note_path.display()), e))?;
        Ok(dst)
    }

    /// Every quarantined run with its recorded reason, ascending by run
    /// id. Runs whose note is missing or unreadable are still listed,
    /// with a placeholder reason — quarantine must stay navigable even
    /// when the quarantine itself took damage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the quarantine directory cannot be listed
    /// (a missing directory is simply empty).
    pub fn quarantined(&self) -> Result<Vec<QuarantineNote>, StoreError> {
        let dir = self.quarantine_dir();
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::io(format!("listing {}", dir.display()), e)),
        };
        let mut notes = Vec::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| StoreError::io(format!("listing {}", dir.display()), e))?;
            if !entry.path().is_dir() {
                continue;
            }
            let run_id = entry.file_name().to_string_lossy().into_owned();
            let note = std::fs::read_to_string(entry.path().join("quarantine.json"))
                .ok()
                .and_then(|data| serde_json::from_str::<QuarantineNote>(&data).ok())
                .unwrap_or_else(|| QuarantineNote {
                    run_id: run_id.clone(),
                    reason: "(no reason recorded)".to_string(),
                });
            notes.push(note);
        }
        notes.sort_by(|a, b| a.run_id.cmp(&b.run_id));
        Ok(notes)
    }

    /// Loads the campaign manifest, or `None` for stores of standalone
    /// recordings.
    ///
    /// # Errors
    ///
    /// Parse failures (a present-but-broken `campaign.json` is an error,
    /// not `None`).
    pub fn campaign(&self) -> Result<Option<CampaignManifest>, StoreError> {
        let path = self.root.join("campaign.json");
        let data = match std::fs::read_to_string(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io(format!("reading {}", path.display()), e)),
        };
        serde_json::from_str(&data)
            .map(Some)
            .map_err(|e| StoreError::Manifest {
                path,
                message: format!("parsing campaign manifest: {e}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentomist_trace::TraceEvent;
    use tinyvm::LifecycleItem;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sentomist-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn trace_with(cycles: u64) -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    cycle: cycles,
                    item: LifecycleItem::Int(1),
                },
                TraceEvent {
                    cycle: cycles + 3,
                    item: LifecycleItem::Reti,
                },
            ],
            segments: vec![vec![1, 0], vec![0, 4], vec![2, 2]],
            program_len: 2,
        }
    }

    #[test]
    fn save_list_load_round_trip() {
        let root = tmpdir("roundtrip");
        let store = TraceStore::create(&root).unwrap();
        let t1 = trace_with(10);
        let t2 = trace_with(99);
        store
            .save_run(7, "trigger", 0xabc, &[t1.clone(), t2.clone()])
            .unwrap();
        store
            .save_run(3, "trigger", 0xabc, std::slice::from_ref(&t1))
            .unwrap();
        let ids = store.run_ids().unwrap();
        assert_eq!(ids.len(), 2);
        assert!(ids[0].ends_with("3") && ids[1].ends_with("7"));
        let manifests = store.manifests().unwrap();
        assert_eq!(manifests[0].seed, 3);
        assert_eq!(manifests[1].seed, 7);
        assert_eq!(manifests[1].nodes.len(), 2);
        let traces = store.load_traces(&manifests[1]).unwrap();
        assert_eq!(traces, vec![t1, t2]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_rejects_a_non_store() {
        let root = tmpdir("nonstore");
        std::fs::create_dir_all(&root).unwrap();
        let err = TraceStore::open(&root).unwrap_err();
        assert!(err.to_string().contains("not a store"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tampered_trace_fails_digest_verification() {
        let root = tmpdir("tamper");
        let store = TraceStore::create(&root).unwrap();
        let manifest = store.save_run(1, "trigger", 0, &[trace_with(5)]).unwrap();
        // Re-encode a different trace under the same file name.
        let path = store
            .run_dir(&manifest.run_id)
            .join(&manifest.nodes[0].file);
        crate::writer::write_trace_file(&path, &trace_with(6)).unwrap();
        assert!(matches!(
            store.load_traces(&manifest),
            Err(StoreError::DigestMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_manifest_round_trips() {
        let root = tmpdir("campaign");
        let store = TraceStore::create(&root).unwrap();
        assert!(store.campaign().unwrap().is_none());
        let m = CampaignManifest {
            format_version: MANIFEST_VERSION,
            mode: "trigger".into(),
            params: vec!["period=20".into(), "seconds=2".into(), "nu=0.05".into()],
            seeds: 16,
            base_seed: 1000,
            errors: vec![StoredRunError {
                seed: 1003,
                message: "vm fault".into(),
                kind: "error".into(),
                attempts: 1,
            }],
        };
        store.save_campaign(&m).unwrap();
        let loaded = store.campaign().unwrap().unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.param("period"), Some("20"));
        assert_eq!(loaded.param("missing"), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stored_errors_without_failure_typing_still_parse() {
        // A manifest written before kind/attempts existed.
        let old = r#"{"seed": 9, "message": "vm fault"}"#;
        let e: StoredRunError = serde_json::from_str(old).unwrap();
        assert_eq!(e.seed, 9);
        assert_eq!(e.kind, "");
        assert_eq!(e.attempts, 0);
    }

    #[test]
    fn run_id_seed_round_trip() {
        assert_eq!(seed_for_run_id(&run_id_for_seed(42)), Some(42));
        assert_eq!(seed_for_run_id("seed-00000000000000001000"), Some(1000));
        assert_eq!(seed_for_run_id("not-a-run"), None);
        assert_eq!(seed_for_run_id("seed-xyz"), None);
    }

    #[test]
    fn journal_appends_and_drops_the_torn_tail() {
        let root = tmpdir("journal");
        let store = TraceStore::create(&root).unwrap();
        assert_eq!(store.journal_lines().unwrap(), Vec::<String>::new());
        store.append_journal(r#"{"seed":1}"#).unwrap();
        store.append_journal(r#"{"seed":2}"#).unwrap();
        assert_eq!(
            store.journal_lines().unwrap(),
            vec![r#"{"seed":1}"#.to_string(), r#"{"seed":2}"#.to_string()]
        );
        // Simulate a campaign killed mid-append: a torn trailing line.
        let mut bytes = std::fs::read(store.journal_path()).unwrap();
        bytes.extend_from_slice(br#"{"seed":3,"outco"#);
        std::fs::write(store.journal_path(), &bytes).unwrap();
        assert_eq!(store.journal_lines().unwrap().len(), 2);
        store.clear_journal().unwrap();
        store.clear_journal().unwrap(); // idempotent
        assert_eq!(store.journal_lines().unwrap(), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn artifacts_save_load_and_reject_paths() {
        let root = tmpdir("artifacts");
        let store = TraceStore::create(&root).unwrap();
        assert_eq!(store.load_artifact("BUG_REPORT.md").unwrap(), None);
        let path = store
            .save_artifact("BUG_REPORT.md", "# Bug Report\n")
            .unwrap();
        assert!(path.starts_with(store.artifacts_dir()));
        assert_eq!(
            store.load_artifact("BUG_REPORT.md").unwrap().as_deref(),
            Some("# Bug Report\n")
        );
        // Overwrite wins.
        store.save_artifact("BUG_REPORT.md", "v2").unwrap();
        assert_eq!(
            store.load_artifact("BUG_REPORT.md").unwrap().as_deref(),
            Some("v2")
        );
        assert!(store.save_artifact("a/b.md", "nope").is_err());
        assert!(store.save_artifact("", "nope").is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_moves_runs_and_lists_reasons() {
        let root = tmpdir("quarantine");
        let store = TraceStore::create(&root).unwrap();
        store.save_run(5, "test", 0, &[trace_with(1)]).unwrap();
        store.save_run(6, "test", 0, &[trace_with(2)]).unwrap();
        assert_eq!(store.quarantined().unwrap(), vec![]);
        let id = run_id_for_seed(5);
        let dst = store
            .quarantine_run(&id, "chunk 0 failed its checksum")
            .unwrap();
        assert!(dst.starts_with(store.quarantine_dir()));
        assert!(!store.run_dir(&id).exists());
        assert_eq!(store.run_ids().unwrap(), vec![run_id_for_seed(6)]);
        let notes = store.quarantined().unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].run_id, id);
        assert!(notes[0].reason.contains("checksum"));
        // Re-quarantining the same id replaces the occupant.
        store.save_run(5, "test", 0, &[trace_with(3)]).unwrap();
        store.quarantine_run(&id, "again").unwrap();
        assert_eq!(store.quarantined().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
