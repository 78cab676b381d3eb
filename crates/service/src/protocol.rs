//! The wire protocol: length-prefixed, checksummed binary frames over
//! TCP.
//!
//! A frame is a fixed 14-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic `b"SNTM"`
//! 4       1     protocol version (currently 2)
//! 5       1     frame kind (request / ok / error / overloaded / reject)
//! 6       4     payload length, u32 little-endian
//! 10      4     FNV-1a-32 checksum of the payload, u32 little-endian
//! 14      len   payload bytes
//! ```
//!
//! The length field is validated against [`MAX_PAYLOAD`] **before** any
//! allocation happens, so a hostile or corrupt header can never make the
//! daemon reserve gigabytes. Every malformed input — wrong magic, unknown
//! version or kind, oversized length, short read, checksum mismatch —
//! decodes to a typed [`ProtocolError`]; the decoder has no panicking
//! path (the protocol hardening proptest feeds it arbitrary and
//! truncated byte strings).
//!
//! Version 2 hardens the wire against a *faulty network*, not just a
//! hostile client:
//!
//! * the payload checksum catches single-byte (and most multi-byte)
//!   corruption in flight — load-bearing, because `Ok` payloads carry
//!   raw result bytes with no inner framing, so an undetected flipped
//!   byte would silently break the daemon's byte-identity contract with
//!   offline `trace mine --json`;
//! * [`FrameKind::Reject`] answers wire-level failures (unparseable
//!   frame, checksum mismatch, deadline expiry mid-frame). A `Reject`
//!   means **the request never reached a handler** — distinct from
//!   `Error` ("your job ran and failed") and `Overloaded` ("shed at
//!   admission") — which is exactly the signal a retrying client needs;
//! * a read or write deadline expiring mid-frame surfaces as
//!   [`ProtocolError::Deadline`], distinct from a peer actually closing
//!   the stream ([`Truncated`](ProtocolError::Truncated)).
//!
//! Request payloads are JSON ([`Request`]); an `Ok` response payload is
//! the handler's **raw result bytes** — deliberately not re-wrapped in
//! JSON, so a mine response can be byte-identical to what `sentomist
//! trace mine --json` prints.

use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SNTM";
/// Protocol version this build speaks (2 added the payload checksum and
/// the `Reject` frame kind).
pub const VERSION: u8 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 14;
/// Hard cap on a frame's payload length, enforced before allocation.
pub const MAX_PAYLOAD: u32 = 8 * 1024 * 1024;

/// FNV-1a-32 over the payload bytes — the checksum carried in every
/// frame header. Cheap, allocation-free, and strong enough to catch the
/// single-byte wire corruption the chaos proxy injects (and real links
/// produce).
pub fn payload_checksum(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in payload {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: a JSON-encoded [`Request`].
    Request,
    /// Server → client: success; payload is the handler's raw result bytes.
    Ok,
    /// Server → client: the job failed; payload is the UTF-8 error message.
    Error,
    /// Server → client: admission queue (or connection cap) full, job
    /// shed. Payload empty.
    Overloaded,
    /// Server → client: the request never reached a handler — the frame
    /// was unparseable, failed its checksum, or a read deadline expired
    /// mid-frame. Payload is the UTF-8 reason. Safe to retry by
    /// construction: nothing ran.
    Reject,
}

impl FrameKind {
    /// Wire byte for this kind.
    pub fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Ok => 2,
            FrameKind::Error => 3,
            FrameKind::Overloaded => 4,
            FrameKind::Reject => 5,
        }
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadKind`] for any unassigned byte.
    pub fn from_byte(b: u8) -> Result<FrameKind, ProtocolError> {
        match b {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Ok),
            3 => Ok(FrameKind::Error),
            4 => Ok(FrameKind::Overloaded),
            5 => Ok(FrameKind::Reject),
            other => Err(ProtocolError::BadKind(other)),
        }
    }
}

/// Every way a frame can fail to parse or transfer. Typed, non-panicking,
/// and allocation-safe: `Oversized` is raised from the header alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown frame-kind byte.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The length the header declared.
        declared: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The input ended before the declared frame did.
    Truncated {
        /// Bytes the frame still needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The payload did not hash to the checksum the header declared —
    /// the bytes were corrupted in flight.
    Checksum {
        /// The checksum the header declared.
        declared: u32,
        /// The checksum the received payload actually hashes to.
        actual: u32,
    },
    /// A read or write deadline expired mid-frame (slow-loris peer,
    /// stalled link). Distinct from [`Truncated`](ProtocolError::Truncated):
    /// the stream is still open, it just stopped making progress.
    Deadline {
        /// Bytes the frame still needed when the deadline fired.
        needed: usize,
        /// Bytes actually transferred by then.
        got: usize,
    },
    /// An I/O error while reading or writing a frame.
    Io(String),
    /// The payload failed to decode (bad UTF-8 or bad request JSON).
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Oversized { declared, max } => {
                write!(f, "declared payload {declared} bytes exceeds cap {max}")
            }
            ProtocolError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            ProtocolError::Checksum { declared, actual } => write!(
                f,
                "payload checksum mismatch: header declared {declared:08x}, payload hashes to {actual:08x}"
            ),
            ProtocolError::Deadline { needed, got } => write!(
                f,
                "deadline expired mid-frame: needed {needed} bytes, got {got}"
            ),
            ProtocolError::Io(e) => write!(f, "frame i/o: {e}"),
            ProtocolError::Malformed(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Whether an I/O error kind means a socket deadline fired (Linux
/// reports `SO_RCVTIMEO`/`SO_SNDTIMEO` expiry as `WouldBlock`, other
/// platforms as `TimedOut`).
fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Encodes a frame, stamping the payload checksum into the header.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] when the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(ProtocolError::Oversized {
            declared: payload.len().min(u32::MAX as usize) as u32,
            max: MAX_PAYLOAD,
        });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind.to_byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Validates a 14-byte header, returning the frame kind, the declared
/// payload length and the declared payload checksum. The length is
/// checked against [`MAX_PAYLOAD`] here — before any caller allocates
/// for the payload.
///
/// # Errors
///
/// [`ProtocolError::BadMagic`] / [`BadVersion`](ProtocolError::BadVersion)
/// / [`BadKind`](ProtocolError::BadKind) /
/// [`Oversized`](ProtocolError::Oversized).
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, u32, u32), ProtocolError> {
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(ProtocolError::BadVersion(header[4]));
    }
    let kind = FrameKind::from_byte(header[5])?;
    let declared = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if declared > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized {
            declared,
            max: MAX_PAYLOAD,
        });
    }
    let checksum = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    Ok((kind, declared, checksum))
}

/// Decodes one frame from the front of `bytes`, returning the frame and
/// the number of bytes consumed. Never panics and never allocates more
/// than the (capped) declared payload length; the payload checksum is
/// verified before the frame is returned.
///
/// # Errors
///
/// Any [`ProtocolError`]; short input is
/// [`Truncated`](ProtocolError::Truncated), in-flight corruption is
/// [`Checksum`](ProtocolError::Checksum).
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), ProtocolError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtocolError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let (kind, declared, checksum) = parse_header(&header)?;
    let total = HEADER_LEN + declared as usize;
    if bytes.len() < total {
        return Err(ProtocolError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_LEN..total];
    let actual = payload_checksum(payload);
    if actual != checksum {
        return Err(ProtocolError::Checksum {
            declared: checksum,
            actual,
        });
    }
    Ok((
        Frame {
            kind,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// Reads exactly one frame from `r`, verifying its checksum.
///
/// # Errors
///
/// Any [`ProtocolError`]; a stream that ends mid-frame is
/// [`Truncated`](ProtocolError::Truncated), a socket deadline firing
/// mid-frame is [`Deadline`](ProtocolError::Deadline), other I/O
/// failures are [`Io`](ProtocolError::Io).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(r, &mut header, 0)?;
    let (kind, declared, checksum) = parse_header(&header)?;
    let mut payload = vec![0u8; declared as usize];
    read_exact_or(r, &mut payload, HEADER_LEN)?;
    let actual = payload_checksum(&payload);
    if actual != checksum {
        return Err(ProtocolError::Checksum {
            declared: checksum,
            actual,
        });
    }
    Ok(Frame { kind, payload })
}

/// `read_exact` with typed errors: a clean EOF mid-frame maps to
/// [`ProtocolError::Truncated`], a socket deadline firing to
/// [`ProtocolError::Deadline`] (with `already` bytes consumed so far),
/// anything else to [`ProtocolError::Io`].
fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8], already: usize) -> Result<(), ProtocolError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ProtocolError::Truncated {
                    needed: already + buf.len(),
                    got: already + filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                return Err(ProtocolError::Deadline {
                    needed: already + buf.len(),
                    got: already + filled,
                })
            }
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Writes one frame to `w`.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] / [`Deadline`](ProtocolError::Deadline)
/// when a write deadline fires / [`Io`](ProtocolError::Io).
pub fn write_frame<W: Write>(
    w: &mut W,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), ProtocolError> {
    let bytes = encode_frame(kind, payload)?;
    w.write_all(&bytes).and_then(|()| w.flush()).map_err(|e| {
        if is_timeout(e.kind()) {
            ProtocolError::Deadline {
                needed: bytes.len(),
                got: 0,
            }
        } else {
            ProtocolError::Io(e.to_string())
        }
    })
}

/// A [`Read`] adapter that enforces one **overall** deadline across
/// however many reads a frame takes.
///
/// `set_read_timeout` alone cannot do this: it bounds each *call*, so
/// a slow-loris peer dripping one byte per interval resets the clock
/// forever. This wrapper re-arms the socket timeout with the
/// *remaining* budget before every read, so the total wait is bounded
/// no matter how the bytes are chopped.
struct DeadlineReader<'a> {
    stream: &'a std::net::TcpStream,
    deadline: std::time::Instant,
    /// When the socket timeout was last armed, if ever. Re-arming is a
    /// syscall per read; skipping it while the armed value is less than
    /// [`ARM_SLACK`] stale keeps the fast path at one arm per frame and
    /// loosens the deadline by at most that slack.
    armed_at: Option<std::time::Instant>,
}

/// How stale an armed per-call timeout may get before a read re-arms
/// it with the true remaining budget.
const ARM_SLACK: std::time::Duration = std::time::Duration::from_millis(5);

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let now = std::time::Instant::now();
        let remaining = self.deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "frame deadline expired",
            ));
        }
        let stale = self
            .armed_at
            .is_none_or(|at| now.saturating_duration_since(at) >= ARM_SLACK);
        if stale {
            self.stream.set_read_timeout(Some(remaining))?;
            self.armed_at = Some(now);
        }
        (&mut &*self.stream).read(buf)
    }
}

/// Reads one frame from a socket under an overall per-frame deadline
/// (`None` = block forever). A peer that stalls — or drips bytes too
/// slowly — past the budget yields [`ProtocolError::Deadline`]; a
/// `Deadline` with `got: 0` means the peer sent nothing at all (an
/// idle connection), which callers may treat as a quiet close rather
/// than a fault.
///
/// # Errors
///
/// Any [`ProtocolError`], as [`read_frame`].
pub fn read_frame_deadline(
    stream: &std::net::TcpStream,
    timeout: Option<std::time::Duration>,
) -> Result<Frame, ProtocolError> {
    match timeout {
        None => read_frame(&mut &*stream),
        Some(timeout) => {
            let mut reader = DeadlineReader {
                stream,
                deadline: std::time::Instant::now() + timeout,
                armed_at: None,
            };
            // The socket's read timeout is deliberately left armed on
            // return: every reader in this crate goes through this
            // function and re-arms on its first read, and disarming
            // would cost a syscall per frame on the clean path.
            read_frame(&mut reader)
        }
    }
}

/// A job request, JSON-encoded in a [`FrameKind::Request`] payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Round-trip liveness probe; goes through the full admission queue
    /// and worker pool, so its latency is the service's floor.
    Ping,
    /// Occupy a worker for `ms` milliseconds — the deterministic load
    /// unit the load generator and backpressure tests ramp with.
    Sleep {
        /// Milliseconds to hold the worker.
        ms: u64,
    },
    /// Deliberately panic inside the handler — proves the supervised
    /// worker fleet isolates a poisoned job (test aid).
    Panic,
    /// Emulate-and-mine one seed of a campaign mode, as `sentomist
    /// campaign` would; the response is the run outcome as pretty JSON.
    Emulate {
        /// Case selector (`"1"|"2"|"3"`), empty for trigger mode.
        #[serde(default)]
        case: String,
        /// Trigger-mode ADC period (ms); absent means the default. Given
        /// with a case, the request is refused.
        #[serde(default)]
        period: Option<u32>,
        /// Trigger-mode emulated seconds, as `period`.
        #[serde(default)]
        seconds: Option<u64>,
        /// Trigger-mode one-class SVM ν, as `period`.
        #[serde(default)]
        nu: Option<f64>,
        /// The seed.
        seed: u64,
    },
    /// Re-mine a recorded corpus into its campaign document; the `Ok`
    /// payload is **exactly** the bytes `sentomist trace mine --json`
    /// prints for the same store.
    Mine {
        /// Path of the trace store on the daemon's filesystem.
        store: String,
        /// Quarantine-and-continue over corrupt runs.
        quarantine: bool,
    },
    /// Run the static interleaving linter over a bundled case-study
    /// program; response is the report as pretty JSON.
    Lint {
        /// Bundled app name (`oscilloscope|forwarder|ctp`).
        app: String,
        /// Lint the fixed variant instead of the buggy one.
        fixed: bool,
    },
    /// Backward dependence slice over a bundled case-study program;
    /// the `Ok` payload is **exactly** the bytes `sentomist slice --app
    /// <name> --json` prints for the same inputs.
    Slice {
        /// Bundled app name (`oscilloscope|forwarder|ctp`).
        app: String,
        /// Slice the fixed variant instead of the buggy one.
        fixed: bool,
        /// Seed pcs; empty defaults to the lint warnings' flagged pcs.
        #[serde(default)]
        pcs: Vec<u64>,
    },
    /// One seeded hunt iteration; response is the iteration record as
    /// pretty JSON.
    Hunt {
        /// Case number (1, 2 or 3).
        case: u64,
        /// Hunt the fixed variant.
        fixed: bool,
        /// The scenario seed.
        seed: u64,
        /// Invariant policy: top-k localization window.
        top_k: u64,
    },
    /// Service counters (answered inline, never queued); response is
    /// [`StatsSnapshot`](crate::server::StatsSnapshot) JSON.
    Stats,
    /// Graceful shutdown: the daemon acknowledges with an empty `Ok`,
    /// stops accepting, drains workers, and exits 0.
    Shutdown,
}

impl Request {
    /// Whether a retry of this request is safe after an ambiguous wire
    /// failure (the response may have been lost *after* the job ran).
    ///
    /// `Mine`, `Lint`, `Slice` and `Stats` are pure reads — `Mine`
    /// against a generation-stamped corpus whose fingerprint, not wall
    /// clock, keys the result — and `Ping` carries no work at all, so
    /// running any of them twice observably equals running it once.
    /// `Sleep` and `Panic` consume worker capacity, `Emulate` and
    /// `Hunt` re-run heavy compute, and `Shutdown` is a state change
    /// that must never be replayed; none of those are retried.
    pub fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Request::Ping
                | Request::Mine { .. }
                | Request::Lint { .. }
                | Request::Slice { .. }
                | Request::Stats
        )
    }

    /// JSON payload bytes for this request.
    ///
    /// # Errors
    ///
    /// Serialization failure (practically unreachable).
    pub fn to_bytes(&self) -> Result<Vec<u8>, ProtocolError> {
        serde_json::to_string(self)
            .map(String::into_bytes)
            .map_err(|e| ProtocolError::Malformed(e.to_string()))
    }

    /// Parses a request from a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] on bad UTF-8 or bad JSON.
    pub fn from_bytes(payload: &[u8]) -> Result<Request, ProtocolError> {
        let text =
            std::str::from_utf8(payload).map_err(|e| ProtocolError::Malformed(e.to_string()))?;
        serde_json::from_str(text).map_err(|e| ProtocolError::Malformed(e.to_string()))
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the handler's raw result bytes.
    Ok(Vec<u8>),
    /// The job failed; the error message.
    Error(String),
    /// The admission queue (or connection cap) was full and the job was
    /// shed.
    Overloaded,
    /// The request never reached a handler: the frame was unparseable,
    /// failed its checksum, or stalled past a read deadline. Carries
    /// the reason; safe to retry by construction.
    Rejected(String),
}

impl Response {
    /// The frame kind and payload bytes this response serializes to.
    pub fn to_frame(&self) -> (FrameKind, &[u8]) {
        match self {
            Response::Ok(bytes) => (FrameKind::Ok, bytes.as_slice()),
            Response::Error(msg) => (FrameKind::Error, msg.as_bytes()),
            Response::Overloaded => (FrameKind::Overloaded, &[]),
            Response::Rejected(msg) => (FrameKind::Reject, msg.as_bytes()),
        }
    }

    /// Reassembles a response from a received frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] when a request frame arrives where a
    /// response belongs, or an error/reject payload is not UTF-8.
    pub fn from_frame(frame: Frame) -> Result<Response, ProtocolError> {
        match frame.kind {
            FrameKind::Ok => Ok(Response::Ok(frame.payload)),
            FrameKind::Error => String::from_utf8(frame.payload)
                .map(Response::Error)
                .map_err(|e| ProtocolError::Malformed(e.to_string())),
            FrameKind::Overloaded => Ok(Response::Overloaded),
            FrameKind::Reject => String::from_utf8(frame.payload)
                .map(Response::Rejected)
                .map_err(|e| ProtocolError::Malformed(e.to_string())),
            FrameKind::Request => Err(ProtocolError::Malformed(
                "request frame in response position".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for (kind, payload) in [
            (FrameKind::Request, b"hello".to_vec()),
            (FrameKind::Ok, Vec::new()),
            (FrameKind::Error, vec![0u8; 1000]),
            (FrameKind::Overloaded, Vec::new()),
            (FrameKind::Reject, b"deadline expired".to_vec()),
        ] {
            let bytes = encode_frame(kind, &payload).unwrap();
            let (frame, consumed) = decode_frame(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload);
            let mut cursor = std::io::Cursor::new(bytes);
            let frame = read_frame(&mut cursor).unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header_alone() {
        let mut bytes = encode_frame(FrameKind::Request, b"x").unwrap();
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&bytes) {
            Err(ProtocolError::Oversized { declared, max }) => {
                assert_eq!(declared, u32::MAX);
                assert_eq!(max, MAX_PAYLOAD);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The streaming reader rejects it too, before allocating.
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let bytes = encode_frame(FrameKind::Request, b"abcdef").unwrap();
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_frame(&bytes[..cut]),
                Err(ProtocolError::Truncated { .. })
            ));
        }
        assert!(matches!(
            decode_frame(b"XXXXXXXXXXXXXXXXXXXX"),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(matches!(
            decode_frame(&wrong_version),
            Err(ProtocolError::BadVersion(9))
        ));
        let mut wrong_kind = bytes;
        wrong_kind[5] = 200;
        assert!(matches!(
            decode_frame(&wrong_kind),
            Err(ProtocolError::BadKind(200))
        ));
    }

    #[test]
    fn any_single_byte_payload_corruption_is_caught() {
        let bytes = encode_frame(FrameKind::Ok, b"mined document bytes").unwrap();
        for at in HEADER_LEN..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0xA5;
            match decode_frame(&damaged) {
                Err(ProtocolError::Checksum { declared, actual }) => assert_ne!(declared, actual),
                other => panic!("corruption at byte {at} gave {other:?}"),
            }
            let mut cursor = std::io::Cursor::new(damaged);
            assert!(matches!(
                read_frame(&mut cursor),
                Err(ProtocolError::Checksum { .. })
            ));
        }
    }

    #[test]
    fn idempotency_matrix_matches_the_retry_policy() {
        let idempotent = [
            Request::Ping,
            Request::Mine {
                store: "corpus".into(),
                quarantine: false,
            },
            Request::Lint {
                app: "forwarder".into(),
                fixed: false,
            },
            Request::Slice {
                app: "ctp".into(),
                fixed: true,
                pcs: vec![],
            },
            Request::Stats,
        ];
        let not = [
            Request::Sleep { ms: 5 },
            Request::Panic,
            Request::Emulate {
                case: String::new(),
                period: Some(20),
                seconds: Some(1),
                nu: Some(0.05),
                seed: 1,
            },
            Request::Hunt {
                case: 1,
                fixed: false,
                seed: 1,
                top_k: 3,
            },
            Request::Shutdown,
        ];
        assert!(idempotent.iter().all(Request::is_idempotent));
        assert!(!not.iter().any(Request::is_idempotent));
    }

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            Request::Ping,
            Request::Sleep { ms: 25 },
            Request::Panic,
            Request::Emulate {
                case: String::new(),
                period: Some(20),
                seconds: Some(2),
                nu: Some(0.05),
                seed: 7,
            },
            Request::Emulate {
                case: "3".into(),
                period: None,
                seconds: None,
                nu: None,
                seed: 7,
            },
            Request::Mine {
                store: "/tmp/corpus".into(),
                quarantine: true,
            },
            Request::Lint {
                app: "forwarder".into(),
                fixed: false,
            },
            Request::Slice {
                app: "oscilloscope".into(),
                fixed: true,
                pcs: vec![3, 9],
            },
            Request::Hunt {
                case: 2,
                fixed: false,
                seed: 41,
                top_k: 3,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for request in requests {
            let bytes = request.to_bytes().unwrap();
            assert_eq!(Request::from_bytes(&bytes).unwrap(), request);
        }
    }

    #[test]
    fn responses_round_trip_through_frames() {
        for response in [
            Response::Ok(b"payload".to_vec()),
            Response::Error("boom".into()),
            Response::Overloaded,
            Response::Rejected("checksum mismatch".into()),
        ] {
            let (kind, payload) = response.to_frame();
            let bytes = encode_frame(kind, payload).unwrap();
            let (frame, _) = decode_frame(&bytes).unwrap();
            assert_eq!(Response::from_frame(frame).unwrap(), response);
        }
    }
}
