//! # sentomist-tracestore — a persistent corpus of lifecycle traces
//!
//! The paper notes a single testing run's lifecycle log already reaches
//! tens of megabytes; a campaign multiplies that by hundreds of seeds.
//! This crate makes those traces durable, addressable artifacts instead
//! of process-lifetime vectors, so detectors can be re-tuned and
//! campaigns re-ranked **without paying the emulation cost again**:
//!
//! * [`format`](mod@format) — the versioned `.stc` byte layout: delta + varint
//!   encoded cycle stamps and item payloads, sparse count segments,
//!   per-chunk checksums, a sealed end chunk with a stream digest;
//! * [`TraceWriter`] — a streaming [`tinyvm::TraceSink`] that encodes
//!   items as the VM emits them, with O(chunk) memory;
//! * [`TraceView`] — the one decoder: a zero-copy view over a file
//!   loaded whole ([`TraceImage`]) that densifies a [`Trace`]
//!   ([`read_trace`], [`read_trace_file`]), replays straight into the
//!   online interval extractor ([`TraceView::replay_online`]), or
//!   salvages a damaged file's intact prefix ([`TraceView::salvage`]);
//!   corrupt or truncated input yields a typed [`StoreError`], never a
//!   panic. Every read site already has the whole file on disk, so a
//!   streaming decoder would only add a second code path;
//! * [`TraceStore`] — the corpus directory: one JSON manifest per run
//!   (seed, mode, program digest, per-node trace digests) plus an
//!   optional campaign manifest, enabling `sentomist trace mine` to
//!   reproduce a live campaign document bit for bit.
//!
//! ```
//! use sentomist_tracestore::{read_trace, write_trace};
//! use sentomist_trace::{Trace, TraceEvent};
//! use tinyvm::LifecycleItem;
//!
//! # fn main() -> Result<(), sentomist_tracestore::StoreError> {
//! let trace = Trace {
//!     events: vec![
//!         TraceEvent { cycle: 4, item: LifecycleItem::Int(0) },
//!         TraceEvent { cycle: 9, item: LifecycleItem::Reti },
//!     ],
//!     segments: vec![vec![3, 0], vec![0, 5], vec![1, 0]],
//!     program_len: 2,
//! };
//! let mut bytes = Vec::new();
//! write_trace(&mut bytes, &trace)?;
//! assert_eq!(read_trace(&bytes)?, trace);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod index;
pub mod store;
pub mod sync;
pub mod view;
pub mod wal;
pub mod writer;

pub use error::StoreError;
pub use format::{Record, FORMAT_VERSION};
pub use index::{CorpusFingerprint, CorpusIndex, IndexEntry, INDEX_FILE};
pub use store::{
    run_id_for_seed, seed_for_run_id, CampaignManifest, NodeTraceMeta, QuarantineNote, RunManifest,
    StoredRunError, TraceStore, JOURNAL_FILE, MANIFEST_VERSION,
};
pub use sync::{IoFault, IoShim, SyncPolicy, WriteClass};
pub use view::{
    read_trace, read_trace_file, salvage_trace_file, ChunkRef, Salvage, TraceImage, TraceView,
};
pub use wal::{RecoveryReport, WalRecord, TMP_SUFFIX, WAL_FILE};
pub use writer::{write_trace, write_trace_file, StoreStats, TraceWriter};

// Re-exported so doctests and downstream callers can name the trace type
// without a separate dependency line.
pub use sentomist_trace::Trace;
