//! Streaming trace writer: sinks lifecycle items and count segments into
//! the chunked `.stc` format as the VM emits them.

use crate::error::StoreError;
use crate::format::{
    self, put_event, put_segment, CHUNK_END, CHUNK_RECORDS, CHUNK_TARGET, FORMAT_VERSION, MAGIC,
    NAIVE_COUNT_BYTES, NAIVE_EVENT_BYTES,
};
use sentomist_trace::Trace;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use tinyvm::{LifecycleItem, TraceSink};

/// Sizes of one finished trace file, as reported by
/// [`TraceWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Lifecycle events written.
    pub events: u64,
    /// Count segments written.
    pub segments: u64,
    /// Bytes of the encoded file (header + chunks).
    pub encoded_bytes: u64,
    /// Bytes the same items would occupy in the naive fixed-width
    /// encoding (11 bytes/event, 4 bytes/counter slot).
    pub naive_bytes: u64,
    /// The stream digest sealed into the end chunk.
    pub stream_digest: u64,
}

impl StoreStats {
    /// `encoded / naive` — the headline compression figure (1.0 when the
    /// naive size is zero, e.g. an empty trace).
    pub fn ratio(&self) -> f64 {
        if self.naive_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.naive_bytes as f64
        }
    }
}

/// Chunked, checksummed, streaming writer for one node's trace.
///
/// Implements [`TraceSink`], so it can be attached directly to
/// [`tinyvm::node::Node::run`] (alone, or alongside an in-memory
/// [`sentomist_trace::Recorder`] via [`tinyvm::trace::Tee`]). The sink
/// trait cannot return errors, so an I/O failure mid-run makes the writer
/// go quiet and the error is reported by [`TraceWriter::finish`] — which
/// **must** be called; dropping the writer without finishing loses the
/// end chunk and readers will report the file truncated.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
    program_len: u32,
    prev_cycle: u64,
    events: u64,
    segments: u64,
    digest: u64,
    encoded_bytes: u64,
    naive_bytes: u64,
    deferred: Option<StoreError>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be created or the header
    /// not written — e.g. an unwritable `--store` directory.
    pub fn create(path: &Path, program_len: usize) -> Result<Self, StoreError> {
        let file = File::create(path)
            .map_err(|e| StoreError::io(format!("creating trace file {}", path.display()), e))?;
        TraceWriter::new(BufWriter::new(file), program_len)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out`, writing the format header immediately.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the header write fails.
    pub fn new(mut out: W, program_len: usize) -> Result<Self, StoreError> {
        if program_len > format::MAX_PROGRAM_LEN {
            return Err(StoreError::Corrupt(format!(
                "program length {program_len} exceeds the format bound {}",
                format::MAX_PROGRAM_LEN
            )));
        }
        let program_len = u32::try_from(program_len)
            .map_err(|_| StoreError::Corrupt("program length exceeds u32".into()))?;
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes()); // flags
        header.extend_from_slice(&program_len.to_le_bytes());
        out.write_all(&header)
            .map_err(|e| StoreError::io("writing trace header", e))?;
        Ok(TraceWriter {
            out,
            buf: Vec::with_capacity(CHUNK_TARGET + 256),
            program_len,
            prev_cycle: 0,
            events: 0,
            segments: 0,
            digest: format::digest_seed(program_len),
            encoded_bytes: 12,
            naive_bytes: 0,
            deferred: None,
        })
    }

    /// Appends one lifecycle event.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if flushing a full chunk fails.
    pub fn event(&mut self, cycle: u64, item: LifecycleItem) -> Result<(), StoreError> {
        put_event(&mut self.buf, self.prev_cycle, cycle, item);
        self.digest = format::digest_event(self.digest, cycle, item);
        self.prev_cycle = cycle;
        self.events += 1;
        self.naive_bytes += NAIVE_EVENT_BYTES;
        self.maybe_flush()
    }

    /// Appends one count segment (length must equal the program length).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on a wrong-width segment, [`StoreError::Io`]
    /// if flushing a full chunk fails.
    pub fn segment(&mut self, counts: &[u32]) -> Result<(), StoreError> {
        if counts.len() != self.program_len as usize {
            return Err(StoreError::Corrupt(format!(
                "segment has {} counters, program has {}",
                counts.len(),
                self.program_len
            )));
        }
        put_segment(&mut self.buf, counts);
        self.digest = format::digest_segment(self.digest, counts);
        self.segments += 1;
        self.naive_bytes += NAIVE_COUNT_BYTES * counts.len() as u64;
        self.maybe_flush()
    }

    fn maybe_flush(&mut self) -> Result<(), StoreError> {
        if self.buf.len() >= CHUNK_TARGET {
            self.flush_chunk(CHUNK_RECORDS)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self, kind: u8) -> Result<(), StoreError> {
        if kind == CHUNK_RECORDS && self.buf.is_empty() {
            return Ok(());
        }
        let checksum = format::fnv32(&self.buf);
        let mut frame = Vec::with_capacity(self.buf.len() + 9);
        frame.push(kind);
        frame.extend_from_slice(&(self.buf.len() as u32).to_le_bytes());
        frame.extend_from_slice(&self.buf);
        frame.extend_from_slice(&checksum.to_le_bytes());
        self.out
            .write_all(&frame)
            .map_err(|e| StoreError::io("writing trace chunk", e))?;
        self.encoded_bytes += frame.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Seals the file: flushes pending records, writes the end chunk
    /// (item counts + stream digest) and flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Any error deferred from sink-driven writes, then any error from the
    /// final writes themselves.
    pub fn finish(mut self) -> Result<StoreStats, StoreError> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        self.flush_chunk(CHUNK_RECORDS)?;
        format::put_varint(&mut self.buf, self.events);
        format::put_varint(&mut self.buf, self.segments);
        self.buf.extend_from_slice(&self.digest.to_le_bytes());
        self.flush_chunk(CHUNK_END)?;
        self.out
            .flush()
            .map_err(|e| StoreError::io("flushing trace file", e))?;
        Ok(StoreStats {
            events: self.events,
            segments: self.segments,
            encoded_bytes: self.encoded_bytes,
            naive_bytes: self.naive_bytes,
            stream_digest: self.digest,
        })
    }
}

/// The [`TraceSink`] facade: errors are deferred to
/// [`TraceWriter::finish`] because the sink trait is infallible. After
/// the first failure the writer stops consuming.
impl<W: Write> TraceSink for TraceWriter<W> {
    fn lifecycle(&mut self, cycle: u64, item: LifecycleItem) {
        if self.deferred.is_none() {
            if let Err(e) = self.event(cycle, item) {
                self.deferred = Some(e);
            }
        }
    }

    fn segment(&mut self, counts: &[u32]) {
        if self.deferred.is_none() {
            if let Err(e) = TraceWriter::segment(self, counts) {
                self.deferred = Some(e);
            }
        }
    }
}

/// Encodes a complete in-memory [`Trace`] in recorder protocol order
/// (`(seg ev)* seg`).
///
/// # Errors
///
/// Propagates writer errors; traces whose segment widths disagree with
/// `trace.program_len` are rejected as [`StoreError::Corrupt`].
pub fn write_trace<W: Write>(out: W, trace: &Trace) -> Result<StoreStats, StoreError> {
    let mut w = TraceWriter::new(out, trace.program_len)?;
    for (i, seg) in trace.segments.iter().enumerate() {
        w.segment(seg)?;
        if let Some(ev) = trace.events.get(i) {
            w.event(ev.cycle, ev.item)?;
        }
    }
    // Hand-built traces may carry more events than segments; keep them.
    for ev in trace.events.iter().skip(trace.segments.len()) {
        w.event(ev.cycle, ev.item)?;
    }
    w.finish()
}

/// [`write_trace`] into a freshly created file.
///
/// # Errors
///
/// As [`write_trace`], plus file-creation failures.
pub fn write_trace_file(path: &Path, trace: &Trace) -> Result<StoreStats, StoreError> {
    let file = File::create(path)
        .map_err(|e| StoreError::io(format!("creating trace file {}", path.display()), e))?;
    write_trace(BufWriter::new(file), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentomist_trace::TraceEvent;

    fn tiny_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    cycle: 5,
                    item: LifecycleItem::Int(0),
                },
                TraceEvent {
                    cycle: 9,
                    item: LifecycleItem::Reti,
                },
            ],
            segments: vec![vec![1, 0, 0], vec![0, 2, 0], vec![0, 0, 3]],
            program_len: 3,
        }
    }

    #[test]
    fn writes_header_chunks_and_end() {
        let mut out = Vec::new();
        let stats = write_trace(&mut out, &tiny_trace()).unwrap();
        assert_eq!(&out[..4], b"STRC");
        assert_eq!(stats.events, 2);
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.encoded_bytes, out.len() as u64);
        assert_eq!(stats.naive_bytes, 2 * 11 + 3 * 3 * 4);
        // End chunk: kind byte, 4-byte length, payload (2 varints + 8-byte
        // digest), 4-byte checksum.
        let end_payload = 1 + 1 + 8;
        assert_eq!(out[out.len() - end_payload - 9], CHUNK_END);
    }

    #[test]
    fn rejects_wrong_width_segment() {
        let mut w = TraceWriter::new(Vec::new(), 4).unwrap();
        assert!(matches!(w.segment(&[1, 2]), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn sink_facade_defers_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Header write fails immediately with a typed error.
        assert!(matches!(
            TraceWriter::new(Broken, 1),
            Err(StoreError::Io { .. })
        ));
    }
}
