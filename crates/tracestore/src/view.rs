//! The `.stc` decoder: zero-copy views over a trace file loaded whole.
//!
//! Every place that reads a trace — corpus re-mine, `trace info`,
//! salvage of a quarantined run, an encoded buffer in a test — already
//! has the whole file on disk or in memory, so one decoder over one
//! buffer serves them all. [`TraceImage`] loads a file once and
//! [`TraceView`] decodes **in place**: every chunk payload is a
//! borrowed `&[u8]` slice ([`ChunkRef`]) into the image, checked against
//! its checksum but never copied. (`#![forbid(unsafe_code)]` rules out
//! a real `mmap`; a single whole-file image with borrowed views is the
//! safe equivalent and keeps the same `&[u8]`-slice API a future mmap
//! could back.)
//!
//! [`TraceView::to_trace`] and [`TraceView::salvage`] share one prefix
//! decode: it walks the chunks until the end chunk verifies or the
//! first defect stops it. `to_trace` turns a defect into its typed
//! [`StoreError`]; `salvage` keeps the decoded prefix instead.
//!
//! [`TraceView::replay_online`] goes one step further for interval
//! mining: count segments are digest-folded **sparsely** — straight
//! from their varint encoding, without densifying each one into a
//! `program_len`-wide allocation — because the miner only consumes
//! lifecycle events. The fold replicates
//! [`digest_segment`](crate::format) exactly (length, then every
//! counter including zeros), so end-chunk verification still holds.

use crate::error::StoreError;
use crate::format::{
    self, get_record, Record, CHUNK_END, CHUNK_RECORDS, FORMAT_VERSION, MAGIC, MAX_CHUNK,
    MAX_PROGRAM_LEN, TAG_SEGMENT,
};
use sentomist_trace::{EventInterval, OnlineExtractor, Trace, TraceEvent};
use std::path::Path;

/// A whole `.stc` file loaded into one owned buffer — the thing a
/// [`TraceView`] borrows from.
#[derive(Debug, Clone)]
pub struct TraceImage {
    bytes: Vec<u8>,
}

impl TraceImage {
    /// Loads the file at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read.
    pub fn open(path: &Path) -> Result<TraceImage, StoreError> {
        let bytes = std::fs::read(path)
            .map_err(|e| StoreError::io(format!("reading trace file {}", path.display()), e))?;
        Ok(TraceImage { bytes })
    }

    /// Wraps already-loaded bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> TraceImage {
        TraceImage { bytes }
    }

    /// The raw file bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A validated zero-copy view over this image.
    ///
    /// # Errors
    ///
    /// Header validation errors, as [`TraceView::new`].
    pub fn view(&self) -> Result<TraceView<'_>, StoreError> {
        TraceView::new(&self.bytes)
    }
}

/// One chunk of an `.stc` file as a borrowed slice: checksum-verified,
/// never copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef<'a> {
    /// Chunk kind ([`CHUNK_RECORDS`] or [`CHUNK_END`]).
    pub kind: u8,
    /// The chunk payload, borrowed from the underlying image.
    pub payload: &'a [u8],
}

/// A zero-copy decoding view over an in-memory `.stc` file. Every
/// structural problem — truncation, bit rot, version skew — surfaces as
/// a typed [`StoreError`], never a panic.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    bytes: &'a [u8],
    program_len: u32,
}

/// What [`TraceView::salvage`] recovered from a damaged trace file:
/// the longest checksummed, decodable prefix, trimmed back to the
/// recorder protocol (`segments == events + 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Salvage {
    /// The recovered (protocol-valid) trace. When not even the first
    /// count segment survived, this is the canonical empty trace.
    pub trace: Trace,
    /// Chunks that passed their checksum before recovery stopped.
    pub recovered_chunks: u64,
    /// Lifecycle events decoded (before the protocol trim).
    pub recovered_events: u64,
    /// Count segments decoded (before the protocol trim).
    pub recovered_segments: u64,
    /// Trailing events dropped to restore `segments == events + 1`.
    pub dropped_events: u64,
    /// Bytes past the point where decoding stopped: after the last
    /// whole chunk read, or after the 5-byte frame header of a chunk
    /// that declared an implausible length. A truncated file loses 0;
    /// trailing data after the end chunk loses all but the first byte,
    /// which detecting it consumed.
    pub lost_bytes: u64,
    /// `true` when the end chunk verified — the file was whole and
    /// nothing was lost.
    pub complete: bool,
    /// The defect that stopped recovery, rendered as text; `None` when
    /// [`Salvage::complete`].
    pub error: Option<String>,
}

/// How far one prefix decode got: the records it decoded, the chunks it
/// accepted, the byte offset it reached, and the defect that stopped it
/// (`None` once the end chunk verified).
struct Prefix {
    events: Vec<TraceEvent>,
    segments: Vec<Vec<u32>>,
    chunks: u64,
    read: usize,
    defect: Option<StoreError>,
}

impl<'a> TraceView<'a> {
    /// Validates the header and wraps `bytes`.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
    /// [`StoreError::Truncated`] or [`StoreError::Corrupt`].
    pub fn new(bytes: &'a [u8]) -> Result<TraceView<'a>, StoreError> {
        let header = bytes.get(..12).ok_or(StoreError::Truncated {
            context: "file header",
        })?;
        if header[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        // v1 defines no flags; any set bit is from a future writer (or rot).
        let flags = u16::from_le_bytes([header[6], header[7]]);
        if flags != 0 {
            return Err(StoreError::Corrupt(format!(
                "unknown header flags {flags:#06x}"
            )));
        }
        let program_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if program_len as usize > MAX_PROGRAM_LEN {
            return Err(StoreError::Corrupt(format!(
                "implausible program length {program_len}"
            )));
        }
        Ok(TraceView { bytes, program_len })
    }

    /// The program length declared in the header (the width of every
    /// segment).
    pub fn program_len(&self) -> usize {
        self.program_len as usize
    }

    /// Iterates the file's chunks as borrowed [`ChunkRef`]s, verifying
    /// each checksum. The iterator yields the end chunk last; trailing
    /// bytes after it are an error.
    pub fn chunks(&self) -> ChunkIter<'a> {
        ChunkIter {
            bytes: self.bytes,
            pos: 12,
            index: 0,
            ended: false,
            done: false,
        }
    }

    /// Decodes records chunk by chunk until the end chunk verifies or
    /// the first defect — a bad frame, an undecodable record, an end
    /// chunk that disagrees with what was read — stops it.
    fn decode_prefix(&self) -> Prefix {
        let program_len = self.program_len();
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut segments: Vec<Vec<u32>> = Vec::new();
        let mut digest = format::digest_seed(self.program_len);
        let mut prev_cycle = 0u64;
        let mut chunks = self.chunks();
        let defect = 'decode: loop {
            let chunk = match chunks.next() {
                None => break None,
                Some(Err(e)) => break Some(e),
                Some(Ok(chunk)) => chunk,
            };
            if chunk.kind == CHUNK_END {
                let (n_events, n_segments) = (events.len() as u64, segments.len() as u64);
                if let Err(e) = verify_end(chunk.payload, n_events, n_segments, digest) {
                    break Some(e);
                }
                continue;
            }
            let payload = chunk.payload;
            let mut pos = 0;
            while pos < payload.len() {
                let tag = payload[pos];
                pos += 1;
                match get_record(tag, payload, &mut pos, prev_cycle, program_len) {
                    Ok(Record::Event(ev)) => {
                        digest = format::digest_event(digest, ev.cycle, ev.item);
                        prev_cycle = ev.cycle;
                        events.push(ev);
                    }
                    Ok(Record::Segment(counts)) => {
                        digest = format::digest_segment(digest, &counts);
                        segments.push(counts);
                    }
                    Err(e) => break 'decode Some(e),
                }
            }
        };
        Prefix {
            events,
            segments,
            chunks: chunks.index,
            read: chunks.pos,
            defect,
        }
    }

    /// Densifies the whole view back into a [`Trace`], verifying chunk
    /// checksums, the end-chunk digest, and the recorder protocol
    /// (`segments == events + 1`).
    ///
    /// # Errors
    ///
    /// Any structural error of the file, plus [`StoreError::Protocol`]
    /// when the decoded stream breaks the recorder protocol.
    pub fn to_trace(&self) -> Result<Trace, StoreError> {
        let Prefix {
            events,
            segments,
            defect,
            ..
        } = self.decode_prefix();
        if let Some(e) = defect {
            return Err(e);
        }
        if segments.len() != events.len() + 1 {
            return Err(StoreError::Protocol {
                events: events.len(),
                segments: segments.len(),
            });
        }
        Ok(Trace {
            events,
            segments,
            program_len: self.program_len(),
        })
    }

    /// Recovers what it can from a damaged trace file instead of
    /// rejecting it: records are decoded until the first structural
    /// defect (truncation, checksum failure, bit rot), then the decoded
    /// prefix is trimmed to the recorder protocol — the `(seg ev)* seg`
    /// stream order means at most one trailing event must be dropped for
    /// a clean cut, more only under in-chunk corruption. Every recovered
    /// chunk passed its checksum, so the salvaged prefix is as
    /// trustworthy as an intact file's content — except for the header,
    /// which no checksum covers: a rotted program length re-widths every
    /// segment, and only a verified end chunk rules that out.
    ///
    /// On an undamaged file this is just [`TraceView::to_trace`] with
    /// bookkeeping: [`Salvage::complete`] is `true` and nothing is
    /// dropped.
    pub fn salvage(&self) -> Salvage {
        let program_len = self.program_len();
        let Prefix {
            mut events,
            mut segments,
            chunks,
            read,
            defect,
        } = self.decode_prefix();
        let recovered_events = events.len() as u64;
        let recovered_segments = segments.len() as u64;
        // Trim to protocol. Segments can only trail events by design;
        // cap both directions anyway so corrupt interleavings still
        // yield a valid trace.
        segments.truncate(events.len() + 1);
        events.truncate(segments.len().saturating_sub(1));
        if segments.is_empty() {
            segments.push(vec![0; program_len]);
        }
        let trace = Trace {
            events,
            segments,
            program_len,
        };
        Salvage {
            dropped_events: recovered_events - trace.events.len() as u64,
            recovered_chunks: chunks,
            recovered_events,
            recovered_segments,
            lost_bytes: (self.bytes.len() - read) as u64,
            complete: defect.is_none(),
            error: defect.map(|e| e.to_string()),
            trace,
        }
    }

    /// Replays lifecycle events into an [`OnlineExtractor`] straight
    /// off the borrowed slices — the zero-copy re-mine path. Count
    /// segments are digest-folded sparsely from their varint encoding
    /// (no `program_len`-wide densification per segment), and the
    /// end-chunk digest is still fully verified.
    ///
    /// # Errors
    ///
    /// Any structural error of the file, and [`StoreError::Corrupt`] for
    /// a lifecycle sequence the extractor rejects.
    pub fn replay_online(&self) -> Result<Vec<EventInterval>, StoreError> {
        let program_len = self.program_len();
        let mut extractor = OnlineExtractor::new();
        let mut intervals = Vec::new();
        let mut digest = format::digest_seed(self.program_len);
        let mut prev_cycle = 0u64;
        let mut events = 0u64;
        let mut segments = 0u64;
        for chunk in self.chunks() {
            let chunk = chunk?;
            match chunk.kind {
                CHUNK_RECORDS => {
                    let payload = chunk.payload;
                    let mut pos = 0;
                    while pos < payload.len() {
                        let tag = payload[pos];
                        pos += 1;
                        if tag == TAG_SEGMENT {
                            digest = fold_sparse_segment(payload, &mut pos, digest, program_len)?;
                            segments += 1;
                        } else {
                            match get_record(tag, payload, &mut pos, prev_cycle, program_len)? {
                                Record::Event(ev) => {
                                    digest = format::digest_event(digest, ev.cycle, ev.item);
                                    prev_cycle = ev.cycle;
                                    let done = extractor
                                        .feed(events as usize, ev.cycle, ev.item)
                                        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
                                    intervals.extend(done);
                                    events += 1;
                                }
                                Record::Segment(_) => unreachable!("tag filtered above"),
                            }
                        }
                    }
                }
                _ => verify_end(chunk.payload, events, segments, digest)?,
            }
        }
        Ok(intervals)
    }
}

/// Folds one sparsely-encoded segment into the stream digest without
/// densifying it: replicates [`format::digest_segment`] — a fold of the
/// segment length followed by every counter, zeros included — by
/// walking the stored `(index_delta, count)` pairs and folding the
/// implied zero gaps.
fn fold_sparse_segment(
    payload: &[u8],
    pos: &mut usize,
    digest: u64,
    program_len: usize,
) -> Result<u64, StoreError> {
    let nonzero = format::get_varint(payload, pos)?;
    if nonzero > program_len as u64 {
        return Err(StoreError::Corrupt(format!(
            "segment claims {nonzero} non-zero counters in a {program_len}-instruction program"
        )));
    }
    let mut h = format::mix64(format::mix64(digest, 2), program_len as u64);
    let mut index: i64 = -1;
    for _ in 0..nonzero {
        let delta = format::get_varint(payload, pos)?;
        if delta == 0 {
            return Err(StoreError::Corrupt("zero index delta in segment".into()));
        }
        let next = index
            .checked_add(
                i64::try_from(delta)
                    .map_err(|_| StoreError::Corrupt("segment index delta overflows".into()))?,
            )
            .ok_or_else(|| StoreError::Corrupt("segment index overflows".into()))?;
        if next as u64 >= program_len as u64 {
            return Err(StoreError::Corrupt(format!(
                "segment counter index {next} beyond program length {program_len}"
            )));
        }
        let count = format::get_varint(payload, pos)?;
        let count = u32::try_from(count)
            .map_err(|_| StoreError::Corrupt(format!("counter value {count} exceeds u32")))?;
        // Zero-valued slots between the previous stored index and this
        // one still participate in the digest.
        for _ in (index + 1)..next {
            h = format::mix64(h, 0);
        }
        h = format::mix64(h, u64::from(count));
        index = next;
    }
    for _ in (index + 1)..program_len as i64 {
        h = format::mix64(h, 0);
    }
    Ok(h)
}

/// Checks the end chunk's sealed item counts and stream digest against
/// what the decoder reconstructed.
fn verify_end(payload: &[u8], events: u64, segments: u64, digest: u64) -> Result<(), StoreError> {
    let mut pos = 0;
    let want_events = format::get_varint(payload, &mut pos)?;
    let want_segments = format::get_varint(payload, &mut pos)?;
    let digest_bytes: [u8; 8] = payload
        .get(pos..pos + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or(StoreError::Truncated {
            context: "end-chunk digest",
        })?;
    if pos + 8 != payload.len() {
        return Err(StoreError::Corrupt("oversized end chunk".into()));
    }
    let want_digest = u64::from_le_bytes(digest_bytes);
    if want_events != events || want_segments != segments {
        return Err(StoreError::DigestMismatch {
            expected: format!("{want_events} events + {want_segments} segments"),
            actual: format!("{events} events + {segments} segments"),
        });
    }
    if want_digest != digest {
        return Err(StoreError::DigestMismatch {
            expected: format!("{want_digest:016x}"),
            actual: format!("{digest:016x}"),
        });
    }
    Ok(())
}

/// Iterator over a view's chunks. Yields checksum-verified borrowed
/// [`ChunkRef`]s; stops after the end chunk (then rejecting trailing
/// bytes) or at the first structural defect.
#[derive(Debug, Clone)]
pub struct ChunkIter<'a> {
    bytes: &'a [u8],
    /// Offset of the next frame; after a defect, how far reading got.
    pos: usize,
    /// Chunks that passed their checksum so far.
    index: u64,
    ended: bool,
    done: bool,
}

impl<'a> ChunkIter<'a> {
    /// A frame that runs past the end of the input: reading it consumed
    /// everything left.
    fn truncated(&mut self, context: &'static str) -> StoreError {
        self.pos = self.bytes.len();
        StoreError::Truncated { context }
    }

    fn next_chunk(&mut self) -> Result<Option<ChunkRef<'a>>, StoreError> {
        loop {
            let rest = &self.bytes[self.pos..];
            if self.ended {
                if rest.is_empty() {
                    return Ok(None);
                }
                // Anything after the end chunk is foreign matter; spotting
                // it reads its first byte.
                self.pos += 1;
                return Err(StoreError::Corrupt(
                    "trailing data after the end chunk".into(),
                ));
            }
            let Some((&kind, frame)) = rest.split_first() else {
                return Err(StoreError::Truncated {
                    context: "missing end chunk",
                });
            };
            let Some(len_bytes) = frame.get(..4) else {
                return Err(self.truncated("chunk length"));
            };
            let len = u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]])
                as usize;
            if len > MAX_CHUNK {
                self.pos += 1 + 4;
                return Err(StoreError::Corrupt(format!(
                    "chunk {} declares an implausible {len}-byte payload",
                    self.index
                )));
            }
            let Some(payload) = frame.get(4..4 + len) else {
                return Err(self.truncated("chunk payload"));
            };
            let Some(sum) = frame.get(4 + len..4 + len + 4) else {
                return Err(self.truncated("chunk checksum"));
            };
            self.pos += 1 + 4 + len + 4;
            if format::fnv32(payload) != u32::from_le_bytes([sum[0], sum[1], sum[2], sum[3]]) {
                return Err(StoreError::ChecksumMismatch { chunk: self.index });
            }
            self.index += 1;
            match kind {
                // An empty records chunk is legal but pointless; skip it.
                CHUNK_RECORDS if payload.is_empty() => {}
                CHUNK_RECORDS => return Ok(Some(ChunkRef { kind, payload })),
                CHUNK_END => {
                    self.ended = true;
                    return Ok(Some(ChunkRef { kind, payload }));
                }
                other => return Err(StoreError::Corrupt(format!("unknown chunk kind {other}"))),
            }
        }
    }
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = Result<ChunkRef<'a>, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let next = self.next_chunk().transpose();
        self.done = !matches!(next, Some(Ok(_)));
        next
    }
}

/// Decodes a whole encoded trace held in memory, as
/// [`TraceView::to_trace`].
///
/// # Errors
///
/// Header and structural errors, plus [`StoreError::Protocol`] when the
/// decoded stream does not satisfy `segments == events + 1`.
pub fn read_trace(bytes: &[u8]) -> Result<Trace, StoreError> {
    TraceView::new(bytes)?.to_trace()
}

/// [`read_trace`] from a file path: one whole-file read, then a
/// zero-copy decode.
///
/// # Errors
///
/// As [`read_trace`], plus read failures.
pub fn read_trace_file(path: &Path) -> Result<Trace, StoreError> {
    TraceImage::open(path)?.view()?.to_trace()
}

/// [`TraceView::salvage`] from a file path.
///
/// # Errors
///
/// Read and header failures only — once the header validates there is
/// always *a* salvage result, however empty.
pub fn salvage_trace_file(path: &Path) -> Result<Salvage, StoreError> {
    Ok(TraceImage::open(path)?.view()?.salvage())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_trace;
    use tinyvm::{LifecycleItem, TaskId};

    fn sample_trace() -> Trace {
        let items = [
            LifecycleItem::Int(2),
            LifecycleItem::PostTask(TaskId(0)),
            LifecycleItem::Reti,
            LifecycleItem::RunTask(TaskId(0)),
            LifecycleItem::TaskEnd(TaskId(0)),
        ];
        Trace {
            events: items
                .iter()
                .enumerate()
                .map(|(i, &item)| TraceEvent {
                    cycle: 100 + 7 * i as u64,
                    item,
                })
                .collect(),
            segments: (0..6).map(|i| vec![i as u32, 0, 2 * i as u32, 0]).collect(),
            program_len: 4,
        }
    }

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut out = Vec::new();
        write_trace(&mut out, trace).unwrap();
        out
    }

    #[test]
    fn view_round_trips_a_trace() {
        let trace = sample_trace();
        let image = TraceImage::from_bytes(encode(&trace));
        let decoded = image.view().unwrap().to_trace().unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.digest(), trace.digest());
    }

    #[test]
    fn empty_trace_views_fine() {
        let trace = Trace {
            events: vec![],
            segments: vec![vec![0, 0]],
            program_len: 2,
        };
        let image = TraceImage::from_bytes(encode(&trace));
        assert_eq!(image.view().unwrap().to_trace().unwrap(), trace);
        assert_eq!(image.view().unwrap().replay_online().unwrap(), vec![]);
    }

    #[test]
    fn chunk_payloads_borrow_from_the_image() {
        let bytes = encode(&sample_trace());
        let image = TraceImage::from_bytes(bytes);
        let view = image.view().unwrap();
        let range = image.bytes().as_ptr_range();
        for chunk in view.chunks() {
            let chunk = chunk.unwrap();
            // The payload slice points into the image buffer itself.
            assert!(range.contains(&chunk.payload.as_ptr()) || chunk.payload.is_empty());
        }
    }

    #[test]
    fn replay_online_matches_batch_extraction() {
        let trace = sample_trace();
        let image = TraceImage::from_bytes(encode(&trace));
        let mut streamed = image.view().unwrap().replay_online().unwrap();
        streamed.sort_by_key(|iv| iv.start_index);
        let batch = sentomist_trace::extract(&trace).unwrap().intervals;
        assert_eq!(streamed, batch);
    }

    #[test]
    fn sparse_digest_fold_matches_the_dense_fold() {
        // Dense and sparse folds over assorted segments must agree.
        for counts in [
            vec![0u32, 0, 0, 0],
            vec![1, 0, 0, 9],
            vec![0, 7, 0, 0],
            vec![5, 5, 5, 5],
            vec![u32::MAX, 0, 1, 0],
        ] {
            let mut buf = Vec::new();
            format::put_segment(&mut buf, &counts);
            let mut pos = 1; // skip tag
            let sparse = fold_sparse_segment(&buf, &mut pos, 0x1234, counts.len()).unwrap();
            let dense = format::digest_segment(0x1234, &counts);
            assert_eq!(sparse, dense, "counts {counts:?}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let bytes = encode(&sample_trace());
        for cut in 0..bytes.len() {
            let result = read_trace(&bytes[..cut]);
            assert!(result.is_err(), "prefix of {cut} bytes decoded");
            let result = TraceView::new(&bytes[..cut]).and_then(|v| v.replay_online().map(|_| ()));
            assert!(result.is_err(), "prefix of {cut} bytes replayed");
        }
    }

    #[test]
    fn corruption_version_skew_and_trailing_garbage_are_typed() {
        let bytes = encode(&sample_trace());
        let mut corrupted = bytes.clone();
        corrupted[12 + 5 + 2] ^= 0x10;
        assert!(matches!(
            TraceImage::from_bytes(corrupted).view().unwrap().to_trace(),
            Err(StoreError::ChecksumMismatch { chunk: 0 })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            TraceImage::from_bytes(trailing).view().unwrap().to_trace(),
            Err(StoreError::Corrupt(_))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            TraceView::new(&bad_magic),
            Err(StoreError::BadMagic)
        ));
        let mut version_skew = bytes;
        version_skew[4] = 0xEE;
        assert!(matches!(
            read_trace(&version_skew),
            Err(StoreError::UnsupportedVersion(0xEE))
        ));
    }

    #[test]
    fn protocol_violation_is_typed() {
        // events == segments (hand-built): encodes fine, to_trace rejects.
        let trace = Trace {
            events: sample_trace().events,
            segments: vec![vec![0, 0, 0, 0]; 5],
            program_len: 4,
        };
        assert!(matches!(
            read_trace(&encode(&trace)),
            Err(StoreError::Protocol { .. })
        ));
    }

    #[test]
    fn salvage_of_an_intact_file_is_complete_and_lossless() {
        let trace = sample_trace();
        let bytes = encode(&trace);
        let salvage = TraceView::new(&bytes).unwrap().salvage();
        assert!(salvage.complete);
        assert_eq!(salvage.error, None);
        assert_eq!(salvage.trace, trace);
        assert_eq!(salvage.dropped_events, 0);
        assert_eq!(salvage.lost_bytes, 0);
        assert_eq!(salvage.recovered_events, trace.events.len() as u64);
    }

    #[test]
    fn salvage_recovers_a_protocol_valid_prefix_from_any_truncation() {
        let trace = sample_trace();
        let bytes = encode(&trace);
        for cut in 12..bytes.len() {
            let Ok(view) = TraceView::new(&bytes[..cut]) else {
                continue; // header itself unreadable: nothing to salvage
            };
            let salvage = view.salvage();
            assert!(!salvage.complete, "cut at {cut} still verified");
            assert!(salvage.error.is_some());
            let t = &salvage.trace;
            assert_eq!(
                t.segments.len(),
                t.events.len() + 1,
                "cut at {cut} broke the protocol"
            );
            assert_eq!(t.program_len, trace.program_len);
            // The recovered prefix is a true prefix of the original.
            assert_eq!(t.events[..], trace.events[..t.events.len()]);
            assert_eq!(t.segments[..], trace.segments[..t.segments.len()]);
            assert!(salvage.dropped_events <= 1, "clean cut drops at most one");
        }
    }

    #[test]
    fn salvage_stops_at_a_checksum_failure_and_counts_lost_bytes() {
        let trace = sample_trace();
        let mut bytes = encode(&trace);
        // Flip a bit inside the first records chunk's payload.
        bytes[12 + 5 + 2] ^= 0x10;
        let salvage = TraceView::new(&bytes).unwrap().salvage();
        assert!(!salvage.complete);
        assert!(salvage.error.unwrap().contains("checksum"));
        assert_eq!(salvage.recovered_chunks, 0);
        // Nothing decodable before the bad chunk: canonical empty trace.
        assert!(salvage.trace.events.is_empty());
        assert_eq!(salvage.trace.segments, vec![vec![0; 4]]);
        assert!(salvage.lost_bytes > 0);
    }
}
