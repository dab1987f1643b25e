//! The GKSQ wire protocol: length-prefixed, versioned, checksummed frames.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     4  magic  "GKSQ"
//!      4     2  version (little-endian u16, currently 1)
//!      6     1  kind    (FrameKind discriminant)
//!      7     1  reserved (must be 0)
//!      8     4  payload length (little-endian u32)
//!     12     4  CRC-32C of header bytes 0..12 ‖ payload (little-endian u32)
//!     16     …  payload
//! ```
//!
//! The checksum reuses [`vecstore::checksum::crc32c`] — the same hardware
//! dispatched Castagnoli polynomial the GKSC container uses — folded over the
//! first twelve header bytes and the payload, so a flipped bit anywhere in
//! the frame (including in the declared length) surfaces as a typed
//! [`WireError::ChecksumMismatch`] instead of a garbage search.  The declared
//! length is bounds-checked against the receiver's limit *before* any
//! allocation, so a hostile 4 GiB length cannot OOM the process.
//!
//! Frames carry either a control message (ping/pong, shutdown) or a search
//! request/response; payload encodings live in [`SearchRequest`] and
//! [`SearchResponse`].  All integers are little-endian, matching the rest of
//! the workspace's on-disk formats.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::io::{self, Read, Write};

use knn_graph::Neighbor;
use vecstore::checksum::crc32c_append;

/// Frame magic: "GKSQ" (GK-means Serving Query).
pub const MAGIC: [u8; 4] = *b"GKSQ";
/// Current protocol version.
pub const VERSION: u16 = 1;
/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 16;
/// Default cap on a single frame payload (16 MiB) — generous for query
/// batches, small enough that a hostile length cannot exhaust memory.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 << 20;
/// Cap on queries carried by one request frame (one batcher block).
pub const MAX_QUERIES_PER_REQUEST: u32 = 64;
/// Cap on vectors carried by one insert frame (one group commit).
pub const MAX_VECTORS_PER_INSERT: u32 = 64;
/// Cap on ids carried by one delete frame.
pub const MAX_IDS_PER_DELETE: u32 = 4096;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A [`SearchRequest`] payload.
    Search = 1,
    /// A [`SearchResponse`] payload.
    Response = 2,
    /// Liveness probe; empty payload.
    Ping = 3,
    /// Reply to [`FrameKind::Ping`]; empty payload.
    Pong = 4,
    /// Control frame asking the server to drain and exit; empty payload.
    Shutdown = 5,
    /// Acknowledgement that the drain has begun; empty payload.
    ShutdownAck = 6,
    /// A [`MutationRequest`] carrying vectors to insert.
    Insert = 7,
    /// A [`MutationRequest`] carrying ids to tombstone.
    Delete = 8,
    /// A [`MutationRequest`] asking for checkpointed compaction.
    Compact = 9,
    /// A [`MutateResponse`] payload (ack of Insert/Delete/Compact).
    MutateAck = 10,
    /// A [`StatsRequest`] payload: asks the server for a metrics snapshot.
    Stats = 11,
    /// A [`StatsResponse`] payload: the rendered exposition text.
    StatsText = 12,
    /// A [`TracedSearchRequest`]: a search carrying a client-minted trace id.
    TracedSearch = 13,
    /// A [`TracedSearchResponse`]: a response carrying the trace id and the
    /// per-stage timings of the batch that served it.
    TracedResponse = 14,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => FrameKind::Search,
            2 => FrameKind::Response,
            3 => FrameKind::Ping,
            4 => FrameKind::Pong,
            5 => FrameKind::Shutdown,
            6 => FrameKind::ShutdownAck,
            7 => FrameKind::Insert,
            8 => FrameKind::Delete,
            9 => FrameKind::Compact,
            10 => FrameKind::MutateAck,
            11 => FrameKind::Stats,
            12 => FrameKind::StatsText,
            13 => FrameKind::TracedSearch,
            14 => FrameKind::TracedResponse,
            _ => return None,
        })
    }
}

/// Typed outcome of a search request.  Every accepted request is answered
/// with exactly one of these — results on `Ok`, a classified rejection
/// otherwise.  Discriminants are wire-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request was served; results follow.
    Ok = 0,
    /// The request's deadline expired before a batch could serve it.
    DeadlineExceeded = 1,
    /// The admission queue was full; the request was shed unprocessed.
    Overloaded = 2,
    /// The serving backend failed (e.g. a contained worker panic).
    Internal = 3,
    /// The request itself was malformed (dimension mismatch, zero queries…).
    BadRequest = 4,
    /// The server is draining and no longer admits work.
    ShuttingDown = 5,
}

impl Status {
    /// Decodes a wire discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Status::Ok,
            1 => Status::DeadlineExceeded,
            2 => Status::Overloaded,
            3 => Status::Internal,
            4 => Status::BadRequest,
            5 => Status::ShuttingDown,
            _ => return None,
        })
    }

    /// Canonical upper-case name (used in logs and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::DeadlineExceeded => "DEADLINE_EXCEEDED",
            Status::Overloaded => "OVERLOADED",
            Status::Internal => "INTERNAL",
            Status::BadRequest => "BAD_REQUEST",
            Status::ShuttingDown => "SHUTTING_DOWN",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything that can go wrong reading a frame off the wire.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF mid-frame).
    Io(io::Error),
    /// The first four bytes were not `GKSQ`.
    BadMagic([u8; 4]),
    /// The version field is newer than this implementation speaks.
    UnsupportedVersion(u16),
    /// The kind byte does not name a known [`FrameKind`].
    UnknownKind(u8),
    /// The declared payload length exceeds the receiver's limit.
    Oversized {
        /// Length the frame header declared.
        declared: u32,
        /// The receiver's configured cap.
        limit: u32,
    },
    /// The connection ended mid-frame (header or payload cut short).
    Truncated,
    /// The frame checksum did not match header+payload.
    ChecksumMismatch,
    /// The payload decoded to something structurally invalid.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (expected \"GKSQ\")"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (speaking {VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized { declared, limit } => {
                write!(
                    f,
                    "frame declares {declared} payload bytes, limit is {limit}"
                )
            }
            WireError::Truncated => f.write_str("connection closed mid-frame"),
            WireError::ChecksumMismatch => f.write_str("frame checksum mismatch"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        // A clean EOF at a frame boundary is reported by `read_frame` before
        // this conversion; an UnexpectedEof inside a frame is a torn frame.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl WireError {
    /// True when the error means the peer went away (as opposed to speaking
    /// the protocol incorrectly) — callers close quietly instead of
    /// attempting an error reply.
    pub fn is_disconnect(&self) -> bool {
        match self {
            WireError::Truncated => true,
            WireError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            ),
            _ => false,
        }
    }
}

/// A decoded frame: its kind and raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload encodes.
    pub kind: FrameKind,
    /// Raw payload (decode with [`SearchRequest::decode`] /
    /// [`SearchResponse::decode`] as appropriate).
    pub payload: Vec<u8>,
}

/// Writes one frame (header, checksum, payload) to `w` **in a single
/// write**.  On a `TCP_NODELAY` socket every write is its own segment and
/// wakes the peer once: header and payload written apart wake the reading
/// thread twice per frame — the first time only to find 16 bytes and go back
/// to sleep — which doubles the context switches of every request.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&[kind as u8, 0]);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32c_append(crc32c_append(!0u32, &frame), payload) ^ !0u32;
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame from `r`, enforcing `max_payload` before allocating.
///
/// Returns `Ok(None)` on a clean EOF *at a frame boundary* (the peer hung up
/// between requests); every other short read is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Hand-rolled first read so EOF-before-any-byte is distinguishable from
    // EOF-mid-header.
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = FrameKind::from_u8(header[6]).ok_or(WireError::UnknownKind(header[6]))?;
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > max_payload {
        return Err(WireError::Oversized {
            declared: len,
            limit: max_payload,
        });
    }
    let declared_crc = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let crc = crc32c_append(crc32c_append(!0u32, &header[..12]), &payload) ^ !0u32;
    if crc != declared_crc {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(Some(Frame { kind, payload }))
}

/// A batch of queries from one client, tagged with a correlation id and an
/// optional deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Milliseconds the client is willing to wait (0 = no deadline).  The
    /// server starts the clock when it *reads* the frame.
    pub deadline_ms: u32,
    /// Neighbours requested per query.
    pub r: u16,
    /// Inverted lists probed per query.
    pub nprobe: u16,
    /// Query dimensionality.
    pub dim: u32,
    /// Flattened row-major query vectors, `count × dim` values.
    pub queries: Vec<f32>,
}

impl SearchRequest {
    /// Number of query vectors carried.
    pub fn count(&self) -> u32 {
        if self.dim == 0 {
            0
        } else {
            (self.queries.len() / self.dim as usize) as u32
        }
    }

    /// Encodes the request payload.
    ///
    /// Layout: `id u64 | deadline_ms u32 | r u16 | nprobe u16 | dim u32 |
    /// count u32 | count×dim f32`, all little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.queries.len() * 4);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.extend_from_slice(&self.r.to_le_bytes());
        out.extend_from_slice(&self.nprobe.to_le_bytes());
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.extend_from_slice(&self.count().to_le_bytes());
        for v in &self.queries {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes a request payload, validating counts against the buffer.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let id = c.u64()?;
        let deadline_ms = c.u32()?;
        let r = c.u16()?;
        let nprobe = c.u16()?;
        let dim = c.u32()?;
        let count = c.u32()?;
        if count == 0 || dim == 0 {
            return Err(WireError::Malformed(format!(
                "request must carry at least one query of non-zero dimension \
                 (count = {count}, dim = {dim})"
            )));
        }
        if count > MAX_QUERIES_PER_REQUEST {
            return Err(WireError::Malformed(format!(
                "request carries {count} queries, cap is {MAX_QUERIES_PER_REQUEST}"
            )));
        }
        let values = (count as usize)
            .checked_mul(dim as usize)
            .ok_or_else(|| WireError::Malformed("count × dim overflows".into()))?;
        if c.remaining() != values * 4 {
            return Err(WireError::Malformed(format!(
                "expected {} query bytes, payload has {}",
                values * 4,
                c.remaining()
            )));
        }
        let mut queries = Vec::with_capacity(values);
        for _ in 0..values {
            queries.push(f32::from_le_bytes(c.array()?));
        }
        Ok(SearchRequest {
            id,
            deadline_ms,
            r,
            nprobe,
            dim,
            queries,
        })
    }
}

/// The answer to one [`SearchRequest`]: either neighbour lists or a typed
/// rejection with a human-readable reason.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Correlation id copied from the request (0 for connection-level errors
    /// emitted before a request id could be parsed).
    pub id: u64,
    /// Outcome classification.
    pub status: Status,
    /// Per-query neighbour lists (empty unless `status == Ok`).
    pub results: Vec<Vec<Neighbor>>,
    /// Reason text (empty when `status == Ok`).
    pub message: String,
}

impl SearchResponse {
    /// Builds a success response.
    pub fn ok(id: u64, results: Vec<Vec<Neighbor>>) -> Self {
        SearchResponse {
            id,
            status: Status::Ok,
            results,
            message: String::new(),
        }
    }

    /// Builds a typed rejection.
    pub fn rejection(id: u64, status: Status, message: impl Into<String>) -> Self {
        SearchResponse {
            id,
            status,
            results: Vec::new(),
            message: message.into(),
        }
    }

    /// Encodes the response payload.
    ///
    /// Layout: `id u64 | status u8`, then for `Ok`: `nq u32 | per query
    /// (len u32 | len × (id u32, dist f32))`; otherwise `msg_len u32 |
    /// msg_len UTF-8 bytes`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(self.status as u8);
        if self.status == Status::Ok {
            out.extend_from_slice(&(self.results.len() as u32).to_le_bytes());
            for list in &self.results {
                out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for n in list {
                    out.extend_from_slice(&n.id.to_le_bytes());
                    out.extend_from_slice(&n.dist.to_le_bytes());
                }
            }
        } else {
            out.extend_from_slice(&(self.message.len() as u32).to_le_bytes());
            out.extend_from_slice(self.message.as_bytes());
        }
        out
    }

    /// Decodes a response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let id = c.u64()?;
        let status_byte = c.u8()?;
        let status = Status::from_u8(status_byte)
            .ok_or_else(|| WireError::Malformed(format!("unknown status {status_byte}")))?;
        if status == Status::Ok {
            let nq = c.u32()? as usize;
            // Each query needs at least its 4-byte length on the wire.
            if nq > c.remaining() / 4 + 1 {
                return Err(WireError::Malformed(format!(
                    "response declares {nq} result lists, payload too short"
                )));
            }
            let mut results = Vec::with_capacity(nq);
            for _ in 0..nq {
                let len = c.u32()? as usize;
                if len > c.remaining() / 8 {
                    return Err(WireError::Malformed(format!(
                        "result list declares {len} neighbours, payload too short"
                    )));
                }
                let mut list = Vec::with_capacity(len);
                for _ in 0..len {
                    let nid = c.u32()?;
                    let dist = f32::from_le_bytes(c.array()?);
                    list.push(Neighbor::new(nid, dist));
                }
                results.push(list);
            }
            if c.remaining() != 0 {
                return Err(WireError::Malformed(format!(
                    "{} trailing bytes after result lists",
                    c.remaining()
                )));
            }
            Ok(SearchResponse::ok(id, results))
        } else {
            let len = c.u32()? as usize;
            if len != c.remaining() {
                return Err(WireError::Malformed(format!(
                    "message declares {len} bytes, payload has {}",
                    c.remaining()
                )));
            }
            let message = String::from_utf8_lossy(c.rest()).into_owned();
            Ok(SearchResponse::rejection(id, status, message))
        }
    }
}

/// The payload of a mutation frame (Insert / Delete / Compact).
#[derive(Debug, Clone, PartialEq)]
pub enum WireMutation {
    /// Insert `count = vectors.len() / dim` vectors; the server assigns ids
    /// and returns them (in row order) in the [`MutateResponse`].
    Insert {
        /// Vector dimensionality.
        dim: u32,
        /// Flattened row-major vectors, `count × dim` values.
        vectors: Vec<f32>,
    },
    /// Tombstone the given external ids (idempotent per id).
    Delete {
        /// External ids to tombstone.
        ids: Vec<u32>,
    },
    /// Fold the mutable tier into the next clean on-disk generation and
    /// truncate the journal (the hot-swap point).
    Compact,
}

/// A mutation from one client, tagged with a correlation id.  The operation
/// selects the frame kind; the ack is a [`MutateResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct MutationRequest {
    /// Client-chosen correlation id, echoed in the ack.
    pub id: u64,
    /// The operation.
    pub op: WireMutation,
}

impl MutationRequest {
    /// The frame kind this request travels under.
    pub fn kind(&self) -> FrameKind {
        match self.op {
            WireMutation::Insert { .. } => FrameKind::Insert,
            WireMutation::Delete { .. } => FrameKind::Delete,
            WireMutation::Compact => FrameKind::Compact,
        }
    }

    /// Encodes the request payload.
    ///
    /// Layouts (all little-endian, `id u64` first in each):
    /// * Insert: `id | dim u32 | count u32 | count×dim f32`
    /// * Delete: `id | count u32 | count × u32`
    /// * Compact: `id`
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.id.to_le_bytes());
        match &self.op {
            WireMutation::Insert { dim, vectors } => {
                out.extend_from_slice(&dim.to_le_bytes());
                let count = if *dim == 0 {
                    0
                } else {
                    (vectors.len() / *dim as usize) as u32
                };
                out.extend_from_slice(&count.to_le_bytes());
                for v in vectors {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            WireMutation::Delete { ids } => {
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
            }
            WireMutation::Compact => {}
        }
        out
    }

    /// Decodes a mutation payload for the given frame kind, validating
    /// counts against the buffer and the per-frame caps.
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let id = c.u64()?;
        let op = match kind {
            FrameKind::Insert => {
                let dim = c.u32()?;
                let count = c.u32()?;
                if count == 0 || dim == 0 {
                    return Err(WireError::Malformed(format!(
                        "insert must carry at least one vector of non-zero dimension \
                         (count = {count}, dim = {dim})"
                    )));
                }
                if count > MAX_VECTORS_PER_INSERT {
                    return Err(WireError::Malformed(format!(
                        "insert carries {count} vectors, cap is {MAX_VECTORS_PER_INSERT}"
                    )));
                }
                let values = (count as usize)
                    .checked_mul(dim as usize)
                    .ok_or_else(|| WireError::Malformed("count × dim overflows".into()))?;
                if c.remaining() != values * 4 {
                    return Err(WireError::Malformed(format!(
                        "expected {} vector bytes, payload has {}",
                        values * 4,
                        c.remaining()
                    )));
                }
                let mut vectors = Vec::with_capacity(values);
                for _ in 0..values {
                    vectors.push(f32::from_le_bytes(c.array()?));
                }
                WireMutation::Insert { dim, vectors }
            }
            FrameKind::Delete => {
                let count = c.u32()?;
                if count == 0 {
                    return Err(WireError::Malformed(
                        "delete must carry at least one id".into(),
                    ));
                }
                if count > MAX_IDS_PER_DELETE {
                    return Err(WireError::Malformed(format!(
                        "delete carries {count} ids, cap is {MAX_IDS_PER_DELETE}"
                    )));
                }
                if c.remaining() != count as usize * 4 {
                    return Err(WireError::Malformed(format!(
                        "expected {} id bytes, payload has {}",
                        count as usize * 4,
                        c.remaining()
                    )));
                }
                let mut ids = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    ids.push(c.u32()?);
                }
                WireMutation::Delete { ids }
            }
            FrameKind::Compact => {
                if c.remaining() != 0 {
                    return Err(WireError::Malformed(format!(
                        "{} trailing bytes after compact request",
                        c.remaining()
                    )));
                }
                WireMutation::Compact
            }
            other => {
                return Err(WireError::Malformed(format!(
                    "frame kind {other:?} is not a mutation"
                )))
            }
        };
        Ok(MutationRequest { id, op })
    }
}

/// The acknowledgement of one [`MutationRequest`].
///
/// An `Ok` ack means the mutation is **durable**: it was journalled and
/// fsynced before being applied.  `OVERLOADED`, `SHUTTING_DOWN` and
/// `BAD_REQUEST` are *pre-journal* rejections — nothing durable happened, so
/// retrying is safe.  `INTERNAL` is **ambiguous**: the failure may have
/// landed after a partial journal write, so the mutation may still replay
/// after a restart — the contract behind the retrying client's rule of never
/// retrying a mutation whose outcome is unknown.
#[derive(Debug, Clone, PartialEq)]
pub struct MutateResponse {
    /// Correlation id copied from the request.
    pub id: u64,
    /// Outcome classification.
    pub status: Status,
    /// Insert: the assigned external ids, in row order.  Delete: the ids
    /// that were live and are now tombstoned.  Compact: empty.
    pub ids: Vec<u32>,
    /// Live vectors in the index after the mutation (`status == Ok` only).
    pub live: u64,
    /// Reason text (empty when `status == Ok`).
    pub message: String,
}

impl MutateResponse {
    /// Builds a success ack.
    pub fn ok(id: u64, ids: Vec<u32>, live: u64) -> Self {
        MutateResponse {
            id,
            status: Status::Ok,
            ids,
            live,
            message: String::new(),
        }
    }

    /// Builds a typed rejection.
    pub fn rejection(id: u64, status: Status, message: impl Into<String>) -> Self {
        MutateResponse {
            id,
            status,
            ids: Vec::new(),
            live: 0,
            message: message.into(),
        }
    }

    /// Encodes the ack payload.
    ///
    /// Layout: `id u64 | status u8`, then for `Ok`: `live u64 | n u32 |
    /// n × u32 ids`; otherwise `msg_len u32 | msg_len UTF-8 bytes`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.ids.len() * 4);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(self.status as u8);
        if self.status == Status::Ok {
            out.extend_from_slice(&self.live.to_le_bytes());
            out.extend_from_slice(&(self.ids.len() as u32).to_le_bytes());
            for id in &self.ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        } else {
            out.extend_from_slice(&(self.message.len() as u32).to_le_bytes());
            out.extend_from_slice(self.message.as_bytes());
        }
        out
    }

    /// Decodes an ack payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let id = c.u64()?;
        let status_byte = c.u8()?;
        let status = Status::from_u8(status_byte)
            .ok_or_else(|| WireError::Malformed(format!("unknown status {status_byte}")))?;
        if status == Status::Ok {
            let live = c.u64()?;
            let n = c.u32()? as usize;
            if n != c.remaining() / 4 || c.remaining() % 4 != 0 {
                return Err(WireError::Malformed(format!(
                    "ack declares {n} ids, payload has {} bytes",
                    c.remaining()
                )));
            }
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(c.u32()?);
            }
            Ok(MutateResponse::ok(id, ids, live))
        } else {
            let len = c.u32()? as usize;
            if len != c.remaining() {
                return Err(WireError::Malformed(format!(
                    "message declares {len} bytes, payload has {}",
                    c.remaining()
                )));
            }
            let message = String::from_utf8_lossy(c.rest()).into_owned();
            Ok(MutateResponse::rejection(id, status, message))
        }
    }
}

/// The exposition format a [`StatsRequest`] asks for.  Discriminants are
/// wire-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StatsFormat {
    /// One JSON object (machine consumption, `gkm stats --json`).
    Json = 0,
    /// Prometheus text exposition format 0.0.4.
    Prometheus = 1,
    /// Aligned human-readable table (`gkm stats`).
    Human = 2,
}

impl StatsFormat {
    /// Decodes a wire discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => StatsFormat::Json,
            1 => StatsFormat::Prometheus,
            2 => StatsFormat::Human,
            _ => return None,
        })
    }
}

/// Asks the server to render its metrics registry and slow-query log.
///
/// Payload layout: a single format byte ([`StatsFormat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsRequest {
    /// The exposition format to render.
    pub format: StatsFormat,
}

impl StatsRequest {
    /// Encodes the request payload (one byte).
    pub fn encode(&self) -> Vec<u8> {
        vec![self.format as u8]
    }

    /// Decodes a stats-request payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        if payload.len() != 1 {
            return Err(WireError::Malformed(format!(
                "stats request must be exactly one format byte, got {}",
                payload.len()
            )));
        }
        let format = StatsFormat::from_u8(payload[0])
            .ok_or_else(|| WireError::Malformed(format!("unknown stats format {}", payload[0])))?;
        Ok(StatsRequest { format })
    }
}

/// The rendered metrics snapshot answering a [`StatsRequest`].
///
/// Payload layout: the exposition text as raw UTF-8 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResponse {
    /// Rendered exposition text in the requested format.
    pub text: String,
}

impl StatsResponse {
    /// Encodes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        self.text.as_bytes().to_vec()
    }

    /// Decodes a stats-response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let text = String::from_utf8(payload.to_vec())
            .map_err(|_| WireError::Malformed("stats text is not valid UTF-8".into()))?;
        Ok(StatsResponse { text })
    }
}

/// A [`SearchRequest`] carrying a client-minted trace id.
///
/// Payload layout: `trace_id u64` followed by the standard search-request
/// encoding — an untraced request is literally the traced one minus its
/// first eight bytes, so both paths share one decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedSearchRequest {
    /// Non-zero client-minted trace id (0 is reserved for "untraced").
    pub trace_id: u64,
    /// The search itself.
    pub req: SearchRequest,
}

impl TracedSearchRequest {
    /// Encodes the traced-request payload.
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.req.encode();
        let mut out = Vec::with_capacity(8 + inner.len());
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&inner);
        out
    }

    /// Decodes a traced-request payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let trace_id = c.u64()?;
        if trace_id == 0 {
            return Err(WireError::Malformed(
                "traced search carries trace id 0 (reserved for untraced)".into(),
            ));
        }
        let req = SearchRequest::decode(c.rest())?;
        Ok(TracedSearchRequest { trace_id, req })
    }
}

/// A [`SearchResponse`] carrying the trace id and stage timings back.
///
/// Payload layout: `trace_id u64 | queue_wait u64 | route u64 | scan u64 |
/// rerank u64 | total u64` followed by the standard response encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedSearchResponse {
    /// Trace id copied from the request.
    pub trace_id: u64,
    /// Where the time went, as measured server-side.
    pub timings: obs::trace::StageTimings,
    /// The response itself.
    pub resp: SearchResponse,
}

impl TracedSearchResponse {
    /// Encodes the traced-response payload.
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.resp.encode();
        let mut out = Vec::with_capacity(48 + inner.len());
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.timings.queue_wait_nanos.to_le_bytes());
        out.extend_from_slice(&self.timings.route_nanos.to_le_bytes());
        out.extend_from_slice(&self.timings.scan_nanos.to_le_bytes());
        out.extend_from_slice(&self.timings.rerank_nanos.to_le_bytes());
        out.extend_from_slice(&self.timings.total_nanos.to_le_bytes());
        out.extend_from_slice(&inner);
        out
    }

    /// Decodes a traced-response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let trace_id = c.u64()?;
        let timings = obs::trace::StageTimings {
            queue_wait_nanos: c.u64()?,
            route_nanos: c.u64()?,
            scan_nanos: c.u64()?,
            rerank_nanos: c.u64()?,
            total_nanos: c.u64()?,
        };
        let resp = SearchResponse::decode(c.rest())?;
        Ok(TracedSearchResponse {
            trace_id,
            timings,
            resp,
        })
    }
}

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        if self.remaining() < N {
            return Err(WireError::Malformed(format!(
                "payload truncated at offset {} (need {N} more bytes)",
                self.pos
            )));
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}

/// Convenience: frames a [`SearchRequest`].
pub fn write_search(w: &mut impl Write, req: &SearchRequest) -> io::Result<()> {
    write_frame(w, FrameKind::Search, &req.encode())
}

/// Convenience: frames a [`SearchResponse`].
pub fn write_response(w: &mut impl Write, resp: &SearchResponse) -> io::Result<()> {
    write_frame(w, FrameKind::Response, &resp.encode())
}

/// Convenience: frames a [`MutationRequest`] under its operation's kind.
pub fn write_mutation(w: &mut impl Write, req: &MutationRequest) -> io::Result<()> {
    write_frame(w, req.kind(), &req.encode())
}

/// Convenience: frames a [`MutateResponse`].
pub fn write_mutate_ack(w: &mut impl Write, ack: &MutateResponse) -> io::Result<()> {
    write_frame(w, FrameKind::MutateAck, &ack.encode())
}

/// Convenience: frames a [`StatsRequest`].
pub fn write_stats_request(w: &mut impl Write, req: &StatsRequest) -> io::Result<()> {
    write_frame(w, FrameKind::Stats, &req.encode())
}

/// Convenience: frames a [`StatsResponse`].
pub fn write_stats_text(w: &mut impl Write, resp: &StatsResponse) -> io::Result<()> {
    write_frame(w, FrameKind::StatsText, &resp.encode())
}

/// Convenience: frames a [`TracedSearchRequest`].
pub fn write_traced_search(w: &mut impl Write, req: &TracedSearchRequest) -> io::Result<()> {
    write_frame(w, FrameKind::TracedSearch, &req.encode())
}

/// Convenience: frames a [`TracedSearchResponse`].
pub fn write_traced_response(w: &mut impl Write, resp: &TracedSearchResponse) -> io::Result<()> {
    write_frame(w, FrameKind::TracedResponse, &resp.encode())
}

/// Computes the canonical frame checksum for externally-assembled frames
/// (test helpers, fuzzers).
pub fn frame_crc(header12: &[u8; 12], payload: &[u8]) -> u32 {
    crc32c_append(crc32c_append(!0u32, header12), payload) ^ !0u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> SearchRequest {
        SearchRequest {
            id: 0xDEAD_BEEF_1234,
            deadline_ms: 250,
            r: 10,
            nprobe: 8,
            dim: 4,
            queries: vec![0.0, 1.0, -2.5, 3.25, 4.0, 5.0, 6.0, 7.0],
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        let decoded = SearchRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(decoded.count(), 2);
    }

    #[test]
    fn response_round_trips() {
        let resp = SearchResponse::ok(
            7,
            vec![vec![Neighbor::new(3, 0.5), Neighbor::new(9, 1.25)], vec![]],
        );
        assert_eq!(SearchResponse::decode(&resp.encode()).unwrap(), resp);

        let rej = SearchResponse::rejection(9, Status::Overloaded, "queue full");
        assert_eq!(SearchResponse::decode(&rej.encode()).unwrap(), rej);
    }

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_search(&mut buf, &sample_request()).unwrap();
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(frame.kind, FrameKind::Search);
        assert_eq!(
            SearchRequest::decode(&frame.payload).unwrap(),
            sample_request()
        );
    }

    #[test]
    fn clean_eof_is_none_torn_frame_is_truncated() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }, 1024).unwrap().is_none());

        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ping, &[]).unwrap();
        for cut in 1..buf.len() {
            let torn = &buf[..cut];
            match read_frame(&mut { torn }, 1024) {
                Err(WireError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut clean = Vec::new();
        write_search(&mut clean, &sample_request()).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut evil = clean.clone();
                evil[byte] ^= 1 << bit;
                let got = read_frame(&mut evil.as_slice(), DEFAULT_MAX_PAYLOAD);
                assert!(
                    got.is_err(),
                    "flip at byte {byte} bit {bit} went undetected: {got:?}"
                );
            }
        }
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6] = FrameKind::Search as u8;
        header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut h12 = [0u8; 12];
        h12.copy_from_slice(&header[..12]);
        header[12..16].copy_from_slice(&frame_crc(&h12, &[]).to_le_bytes());
        match read_frame(&mut header.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(WireError::Oversized { declared, limit }) => {
                assert_eq!(declared, u32::MAX);
                assert_eq!(limit, DEFAULT_MAX_PAYLOAD);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_bad_version_and_bad_kind() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ping, &[]).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice(), 1024),
            Err(WireError::BadMagic(_))
        ));

        // Version and kind live under the checksum, so craft valid frames.
        let mut vheader = [0u8; HEADER_LEN];
        vheader[..4].copy_from_slice(&MAGIC);
        vheader[4..6].copy_from_slice(&99u16.to_le_bytes());
        vheader[6] = FrameKind::Ping as u8;
        let mut h12 = [0u8; 12];
        h12.copy_from_slice(&vheader[..12]);
        vheader[12..16].copy_from_slice(&frame_crc(&h12, &[]).to_le_bytes());
        assert!(matches!(
            read_frame(&mut vheader.as_slice(), 1024),
            Err(WireError::UnsupportedVersion(99))
        ));

        let mut kheader = [0u8; HEADER_LEN];
        kheader[..4].copy_from_slice(&MAGIC);
        kheader[4..6].copy_from_slice(&VERSION.to_le_bytes());
        kheader[6] = 200;
        h12.copy_from_slice(&kheader[..12]);
        kheader[12..16].copy_from_slice(&frame_crc(&h12, &[]).to_le_bytes());
        assert!(matches!(
            read_frame(&mut kheader.as_slice(), 1024),
            Err(WireError::UnknownKind(200))
        ));
    }

    #[test]
    fn malformed_requests_are_typed() {
        // Zero queries.
        let mut req = sample_request();
        req.queries.clear();
        let mut payload = req.encode();
        assert!(matches!(
            SearchRequest::decode(&payload),
            Err(WireError::Malformed(_))
        ));

        // Count over the per-request cap.
        req = sample_request();
        payload = req.encode();
        payload[20..24].copy_from_slice(&(MAX_QUERIES_PER_REQUEST + 1).to_le_bytes());
        assert!(matches!(
            SearchRequest::decode(&payload),
            Err(WireError::Malformed(_))
        ));

        // Declared count disagrees with the buffer.
        payload = sample_request().encode();
        payload[20..24].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            SearchRequest::decode(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn mutation_requests_round_trip_under_their_kinds() {
        let cases = vec![
            MutationRequest {
                id: 11,
                op: WireMutation::Insert {
                    dim: 3,
                    vectors: vec![1.0, 2.0, 3.0, -4.0, 5.5, 6.0],
                },
            },
            MutationRequest {
                id: 12,
                op: WireMutation::Delete {
                    ids: vec![3, 9, 100],
                },
            },
            MutationRequest {
                id: 13,
                op: WireMutation::Compact,
            },
        ];
        for req in &cases {
            let mut buf = Vec::new();
            write_mutation(&mut buf, req).unwrap();
            let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD)
                .unwrap()
                .unwrap();
            assert_eq!(frame.kind, req.kind());
            assert_eq!(
                &MutationRequest::decode(frame.kind, &frame.payload).unwrap(),
                req
            );
        }
    }

    #[test]
    fn malformed_mutations_are_typed() {
        // Zero vectors / zero dim.
        let empty = MutationRequest {
            id: 1,
            op: WireMutation::Insert {
                dim: 2,
                vectors: vec![],
            },
        };
        assert!(matches!(
            MutationRequest::decode(FrameKind::Insert, &empty.encode()),
            Err(WireError::Malformed(_))
        ));
        // Over-cap insert.
        let mut payload = MutationRequest {
            id: 1,
            op: WireMutation::Insert {
                dim: 1,
                vectors: vec![0.0],
            },
        }
        .encode();
        payload[12..16].copy_from_slice(&(MAX_VECTORS_PER_INSERT + 1).to_le_bytes());
        assert!(matches!(
            MutationRequest::decode(FrameKind::Insert, &payload),
            Err(WireError::Malformed(_))
        ));
        // Zero and over-cap deletes.
        let del = MutationRequest {
            id: 2,
            op: WireMutation::Delete { ids: vec![] },
        };
        assert!(matches!(
            MutationRequest::decode(FrameKind::Delete, &del.encode()),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage after a compact.
        let mut compact = MutationRequest {
            id: 3,
            op: WireMutation::Compact,
        }
        .encode();
        compact.push(0);
        assert!(matches!(
            MutationRequest::decode(FrameKind::Compact, &compact),
            Err(WireError::Malformed(_))
        ));
        // A non-mutation kind is refused outright.
        assert!(matches!(
            MutationRequest::decode(FrameKind::Ping, &compact),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn mutate_ack_round_trips() {
        let ok = MutateResponse::ok(5, vec![100, 101], 42);
        assert_eq!(MutateResponse::decode(&ok.encode()).unwrap(), ok);
        let rej = MutateResponse::rejection(6, Status::Overloaded, "queue full");
        assert_eq!(MutateResponse::decode(&rej.encode()).unwrap(), rej);
        // Framed form.
        let mut buf = Vec::new();
        write_mutate_ack(&mut buf, &ok).unwrap();
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(frame.kind, FrameKind::MutateAck);
        assert_eq!(MutateResponse::decode(&frame.payload).unwrap(), ok);
        // Truncated id list is typed.
        let mut evil = ok.encode();
        evil.truncate(evil.len() - 2);
        assert!(MutateResponse::decode(&evil).is_err());
    }

    #[test]
    fn stats_request_round_trips_and_rejects_garbage() {
        for format in [
            StatsFormat::Json,
            StatsFormat::Prometheus,
            StatsFormat::Human,
        ] {
            let req = StatsRequest { format };
            let mut buf = Vec::new();
            write_stats_request(&mut buf, &req).unwrap();
            let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD)
                .unwrap()
                .unwrap();
            assert_eq!(frame.kind, FrameKind::Stats);
            assert_eq!(StatsRequest::decode(&frame.payload).unwrap(), req);
        }
        // Unknown format byte and wrong payload sizes are typed.
        assert!(matches!(
            StatsRequest::decode(&[9]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            StatsRequest::decode(&[]),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            StatsRequest::decode(&[0, 0]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn stats_response_round_trips_and_rejects_bad_utf8() {
        let resp = StatsResponse {
            text: "serve_requests_total 42\n".into(),
        };
        let mut buf = Vec::new();
        write_stats_text(&mut buf, &resp).unwrap();
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(frame.kind, FrameKind::StatsText);
        assert_eq!(StatsResponse::decode(&frame.payload).unwrap(), resp);
        assert!(matches!(
            StatsResponse::decode(&[0xff, 0xfe, 0x80]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn traced_search_round_trips_and_rejects_zero_trace_id() {
        let traced = TracedSearchRequest {
            trace_id: 0xABCD_EF01_2345_6789,
            req: sample_request(),
        };
        let mut buf = Vec::new();
        write_traced_search(&mut buf, &traced).unwrap();
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(frame.kind, FrameKind::TracedSearch);
        assert_eq!(TracedSearchRequest::decode(&frame.payload).unwrap(), traced);

        // The traced payload is trace_id ‖ the plain encoding.
        assert_eq!(&traced.encode()[8..], &sample_request().encode()[..]);

        let zero = TracedSearchRequest {
            trace_id: 0,
            req: sample_request(),
        };
        assert!(matches!(
            TracedSearchRequest::decode(&zero.encode()),
            Err(WireError::Malformed(_))
        ));
        // A malformed inner request is still typed.
        let mut evil = traced.encode();
        evil.truncate(20);
        assert!(TracedSearchRequest::decode(&evil).is_err());
    }

    #[test]
    fn traced_response_round_trips_with_timings() {
        let traced = TracedSearchResponse {
            trace_id: 77,
            timings: obs::trace::StageTimings {
                queue_wait_nanos: 1_000,
                route_nanos: 2_000,
                scan_nanos: 3_000,
                rerank_nanos: 4_000,
                total_nanos: 11_000,
            },
            resp: SearchResponse::ok(77, vec![vec![Neighbor::new(1, 0.25)]]),
        };
        let mut buf = Vec::new();
        write_traced_response(&mut buf, &traced).unwrap();
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(frame.kind, FrameKind::TracedResponse);
        let decoded = TracedSearchResponse::decode(&frame.payload).unwrap();
        assert_eq!(decoded, traced);
        assert_eq!(decoded.timings.stage_sum(), 10_000);

        // Rejections travel traced too (deadline misses keep their timing).
        let rej = TracedSearchResponse {
            trace_id: 78,
            timings: obs::trace::StageTimings::default(),
            resp: SearchResponse::rejection(78, Status::DeadlineExceeded, "late"),
        };
        assert_eq!(TracedSearchResponse::decode(&rej.encode()).unwrap(), rej);
        // Truncated timing block is typed.
        assert!(TracedSearchResponse::decode(&traced.encode()[..30]).is_err());
    }

    #[test]
    fn status_names_round_trip() {
        for s in [
            Status::Ok,
            Status::DeadlineExceeded,
            Status::Overloaded,
            Status::Internal,
            Status::BadRequest,
            Status::ShuttingDown,
        ] {
            assert_eq!(Status::from_u8(s as u8), Some(s));
            assert!(!s.name().is_empty());
        }
        assert_eq!(Status::from_u8(77), None);
    }
}
