//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is a little-endian `u32` body length followed by the
//! body; the body's first byte is the opcode, fixed-width fields follow,
//! and any chunk payload runs to the end of the body:
//!
//! ```text
//! +----------------+--------+----------------------------------+
//! | u32 body_len   | u8 op  | fields … payload …               |
//! +----------------+--------+----------------------------------+
//!
//! PUT    (0x01)  stripe u64 | lane u32 | digest u64 | payload
//! GET    (0x02)  stripe u64 | lane u32
//! DELETE (0x03)  stripe u64 | lane u32
//! PING   (0x04)  —
//! OK     (0x81)  —
//! CHUNK  (0x82)  digest u64 | payload
//! ERR    (0xEE)  code u8
//! ```
//!
//! Robustness contract: a length prefix above [`MAX_BODY`] is rejected
//! with a typed error *before any allocation*, a stream that ends
//! mid-frame yields [`NodeError::Truncated`], and unknown opcodes or
//! short bodies yield [`NodeError::Malformed`] — the reader never
//! panics and never allocates beyond the cap.

use crate::cursor::Cursor;
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Largest chunk payload a frame may carry (64 MiB).
pub const MAX_CHUNK: usize = 64 << 20;

/// Largest frame body the reader will allocate for: the chunk cap plus
/// the widest fixed header (PUT's 21 bytes), rounded up.
pub const MAX_BODY: usize = MAX_CHUNK + 32;

/// Store a chunk (request).
const OP_PUT: u8 = 0x01;
/// Fetch a chunk (request).
pub const OP_GET: u8 = 0x02;
/// Drop a chunk (request; used by tests and failure injection).
pub const OP_DELETE: u8 = 0x03;
/// Liveness probe (request).
pub const OP_PING: u8 = 0x04;
/// Success, no payload (response).
pub const OP_OK: u8 = 0x81;
/// A chunk payload (response to GET).
const OP_CHUNK: u8 = 0x82;
/// A typed failure (response).
const OP_ERR: u8 = 0xEE;

/// Error codes an `ERR` frame can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The chunk is not stored here.
    NotFound,
    /// The chunk is stored but failed its digest check.
    Corrupt,
    /// The request frame was structurally invalid.
    Malformed,
    /// The request frame exceeded the body cap.
    TooLarge,
    /// The server hit an I/O error serving the request.
    Io,
    /// The server is shutting down.
    Unavailable,
}

impl ErrCode {
    /// Wire encoding.
    fn as_u8(self) -> u8 {
        match self {
            ErrCode::NotFound => 1,
            ErrCode::Corrupt => 2,
            ErrCode::Malformed => 3,
            ErrCode::TooLarge => 4,
            ErrCode::Io => 5,
            ErrCode::Unavailable => 6,
        }
    }

    /// Wire decoding; `None` for codes this build does not know.
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrCode::NotFound,
            2 => ErrCode::Corrupt,
            3 => ErrCode::Malformed,
            4 => ErrCode::TooLarge,
            5 => ErrCode::Io,
            6 => ErrCode::Unavailable,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrCode::NotFound => "chunk not found",
            ErrCode::Corrupt => "chunk corrupt",
            ErrCode::Malformed => "malformed frame",
            ErrCode::TooLarge => "frame too large",
            ErrCode::Io => "server i/o error",
            ErrCode::Unavailable => "server unavailable",
        };
        f.write_str(s)
    }
}

/// One parsed frame, borrowing its payload from the reader's scratch
/// buffer — or, from [`FrameReader::read_chunk_into`], from the
/// caller's — so payload bytes are handed through without a copy or an
/// allocation.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// Store `payload` as `(stripe, lane)` with the client's digest.
    Put {
        /// Stripe id.
        stripe: u64,
        /// Lane index within the stripe.
        lane: u32,
        /// [`chunk_digest`] of the payload, computed by the sender.
        digest: u64,
        /// The chunk bytes.
        payload: &'a [u8],
    },
    /// Fetch `(stripe, lane)`.
    Get {
        /// Stripe id.
        stripe: u64,
        /// Lane index within the stripe.
        lane: u32,
    },
    /// Drop `(stripe, lane)`.
    Delete {
        /// Stripe id.
        stripe: u64,
        /// Lane index within the stripe.
        lane: u32,
    },
    /// Liveness probe.
    Ping,
    /// Success.
    Ok,
    /// A chunk payload with its stored digest.
    Chunk {
        /// [`chunk_digest`] of the payload as stored.
        digest: u64,
        /// The chunk bytes.
        payload: &'a [u8],
    },
    /// A typed failure.
    Err {
        /// What went wrong.
        code: ErrCode,
    },
}

/// Why a read loop ended without a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadEnd {
    /// The peer closed the connection between frames — a clean end.
    CleanEof,
    /// The stop flag was raised while waiting for bytes.
    Stopped,
    /// The peer *reset* the connection between frames (RST rather than
    /// FIN). No frame was in flight, so nothing was lost — but unlike
    /// [`ReadEnd::CleanEof`] the peer did not shut down politely.
    Disconnected,
}

/// A total per-operation read budget: an absolute expiry instant plus
/// the original budget (kept for error reporting). Passed to
/// [`FrameReader::read_deadline`] so a stalled peer turns into a typed
/// [`NodeError::DeadlineExceeded`] instead of a hung caller.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
            budget,
        }
    }

    /// Has the deadline passed?
    fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// The typed error for this deadline's expiry.
    fn to_error(self) -> NodeError {
        NodeError::DeadlineExceeded {
            budget_ms: self.budget.as_millis() as u64,
        }
    }
}

/// Outcome of [`FrameReader::read`]: a frame, or a clean end of stream.
pub type ReadOutcome<'a> = std::result::Result<Frame<'a>, ReadEnd>;

/// A reusable frame reader: one growable scratch buffer per connection,
/// so steady-state reads allocate nothing once the buffer has reached
/// the largest frame seen.
#[derive(Debug, Default)]
pub struct FrameReader {
    scratch: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one frame. `stop` (when given) is polled whenever the
    /// underlying stream reports a read timeout, so a reader on a
    /// socket with one can be told to give up between bytes.
    ///
    /// Returns `Ok(Err(ReadEnd::CleanEof))` when the peer closes the
    /// stream *between* frames; a close mid-frame is
    /// [`NodeError::Truncated`]. A body length above [`MAX_BODY`] is
    /// [`NodeError::FrameTooLarge`], rejected before allocation.
    pub fn read<'a, R: Read>(
        &'a mut self,
        r: &mut R,
        stop: Option<&AtomicBool>,
    ) -> Result<ReadOutcome<'a>> {
        self.read_deadline(r, stop, None)
    }

    /// [`FrameReader::read`] with an optional total deadline. When the
    /// stream's read timeout fires (`WouldBlock`/`TimedOut`) and the
    /// deadline has passed, the read fails with
    /// [`NodeError::DeadlineExceeded`] instead of spinning — this is
    /// how a client bounds a stalled peer. A connection *reset* before
    /// the first byte of a frame is [`ReadEnd::Disconnected`]; a reset
    /// mid-frame is [`NodeError::Truncated`] like any other mid-frame
    /// loss.
    pub fn read_deadline<'a, R: Read>(
        &'a mut self,
        r: &mut R,
        stop: Option<&AtomicBool>,
        deadline: Option<Deadline>,
    ) -> Result<ReadOutcome<'a>> {
        let body_len = match read_body_len(r, stop, deadline)? {
            Ok(len) => len,
            Err(end) => return Ok(Err(end)),
        };
        self.scratch.resize(body_len, 0);
        if let Some(end) = body_part(fill(r, &mut self.scratch, stop, deadline)?, body_len, 0)? {
            return Ok(Err(end));
        }
        parse_body(&self.scratch).map(Ok)
    }

    /// Reads one reply to a GET, a CHUNK frame's payload straight into
    /// `out`: resized to exactly the payload once the length prefix has
    /// passed the [`MAX_BODY`] bound, reusing its capacity, and never
    /// zero-filled when it already has that length — the one copy the
    /// client makes of a chunk. The returned [`Frame::Chunk`] borrows
    /// `out`; its digest is not checked here. Any other frame goes
    /// through the scratch buffer as in [`FrameReader::read_deadline`]
    /// and leaves `out` alone, so a reader that only ever receives
    /// chunks this way keeps a scratch no larger than an `ERR` frame.
    /// A close or reset mid-frame is [`NodeError::Truncated`] with the
    /// bytes of the body still missing, exactly as there.
    pub fn read_chunk_into<'a, R: Read>(
        &'a mut self,
        r: &mut R,
        out: &'a mut Vec<u8>,
        deadline: Option<Deadline>,
    ) -> Result<ReadOutcome<'a>> {
        let body_len = match read_body_len(r, None, deadline)? {
            Ok(len) => len,
            Err(end) => return Ok(Err(end)),
        };
        // The opcode and, if the frame is long enough for one, a
        // CHUNK's digest.
        let mut head = [0u8; CHUNK_HEAD];
        let head_len = body_len.min(CHUNK_HEAD);
        let rest = body_len - head_len;
        let got = fill(r, &mut head[..head_len], None, deadline)?;
        if let Some(end) = body_part(got, head_len, rest)? {
            return Ok(Err(end));
        }
        if let (CHUNK_HEAD, [OP_CHUNK, d0, d1, d2, d3, d4, d5, d6, d7]) = (head_len, head) {
            out.resize(rest, 0);
            if let Some(end) = body_part(fill(r, out, None, deadline)?, rest, 0)? {
                return Ok(Err(end));
            }
            let digest = u64::from_le_bytes([d0, d1, d2, d3, d4, d5, d6, d7]);
            return Ok(Ok(Frame::Chunk {
                digest,
                payload: out,
            }));
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&head[..head_len]);
        self.scratch.resize(body_len, 0);
        let got = fill(r, &mut self.scratch[head_len..], None, deadline)?;
        if let Some(end) = body_part(got, rest, 0)? {
            return Ok(Err(end));
        }
        parse_body(&self.scratch).map(Ok)
    }
}

/// A CHUNK body's fixed part: opcode and digest.
const CHUNK_HEAD: usize = 9;

/// Reads a frame's length prefix and bounds it, before anything is
/// allocated for the body.
fn read_body_len<R: Read>(
    r: &mut R,
    stop: Option<&AtomicBool>,
    deadline: Option<Deadline>,
) -> Result<std::result::Result<usize, ReadEnd>> {
    let mut len_buf = [0u8; 4];
    match fill(r, &mut len_buf, stop, deadline)? {
        Fill::Full => {}
        Fill::CleanEof => return Ok(Err(ReadEnd::CleanEof)),
        Fill::Reset => return Ok(Err(ReadEnd::Disconnected)),
        Fill::Stopped => return Ok(Err(ReadEnd::Stopped)),
        Fill::Truncated { missing } => return Err(NodeError::Truncated { missing }),
    }
    let body_len = u32::from_le_bytes(len_buf) as usize;
    if body_len == 0 {
        return Err(NodeError::Malformed("zero-length frame body"));
    }
    if body_len > MAX_BODY {
        return Err(NodeError::FrameTooLarge {
            len: body_len as u64,
            max: MAX_BODY as u64,
        });
    }
    Ok(Ok(body_len))
}

/// What filling one `len`-byte part of a frame body, with `after` more
/// body bytes behind it, means for the frame: `None` when the part is
/// whole, the read's end when the stop flag was raised, and otherwise
/// [`NodeError::Truncated`] counting every body byte still missing.
fn body_part(got: Fill, len: usize, after: usize) -> Result<Option<ReadEnd>> {
    match got {
        Fill::Full => Ok(None),
        Fill::Stopped => Ok(Some(ReadEnd::Stopped)),
        Fill::CleanEof | Fill::Reset => Err(NodeError::Truncated {
            missing: len + after,
        }),
        Fill::Truncated { missing } => Err(NodeError::Truncated {
            missing: missing + after,
        }),
    }
}

/// Outcome of filling a buffer from a stream.
enum Fill {
    Full,
    /// EOF before the first byte.
    CleanEof,
    /// Connection reset before the first byte.
    Reset,
    /// EOF (or reset) after some bytes.
    Truncated {
        missing: usize,
    },
    /// The stop flag was raised.
    Stopped,
}

/// `read_exact` with explicit partial-fill tracking: survives
/// `WouldBlock`/`TimedOut` (polling `stop` and the deadline in
/// between), reports exactly how much of the buffer an early EOF left
/// unfilled, and distinguishes a pre-byte connection reset from a
/// mid-buffer one. The deadline is also checked between successful
/// partial reads so a drip-feeding peer cannot stretch one op forever.
fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
    deadline: Option<Deadline>,
) -> Result<Fill> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if let Some(d) = deadline {
            if filled > 0 && d.expired() {
                return Err(d.to_error());
            }
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Fill::CleanEof
                } else {
                    Fill::Truncated {
                        missing: buf.len() - filled,
                    }
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                return Ok(if filled == 0 {
                    Fill::Reset
                } else {
                    Fill::Truncated {
                        missing: buf.len() - filled,
                    }
                })
            }
            Err(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    && (stop.is_some() || deadline.is_some()) =>
            {
                if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                    return Ok(Fill::Stopped);
                }
                if let Some(d) = deadline {
                    if d.expired() {
                        return Err(d.to_error());
                    }
                }
            }
            Err(e) => return Err(NodeError::Io(e)),
        }
    }
    Ok(Fill::Full)
}

/// Parses a complete frame body.
pub(crate) fn parse_body(body: &[u8]) -> Result<Frame<'_>> {
    const TRAILING: &str = "trailing bytes in frame body";
    let mut c = Cursor::new(body, "frame body too short");
    match c.u8()? {
        OP_PUT => {
            let stripe = c.u64()?;
            let lane = c.u32()?;
            let digest = c.u64()?;
            Ok(Frame::Put {
                stripe,
                lane,
                digest,
                payload: c.rest(),
            })
        }
        OP_GET => {
            let stripe = c.u64()?;
            let lane = c.u32()?;
            c.finish(TRAILING)?;
            Ok(Frame::Get { stripe, lane })
        }
        OP_DELETE => {
            let stripe = c.u64()?;
            let lane = c.u32()?;
            c.finish(TRAILING)?;
            Ok(Frame::Delete { stripe, lane })
        }
        OP_PING => {
            c.finish(TRAILING)?;
            Ok(Frame::Ping)
        }
        OP_OK => {
            c.finish(TRAILING)?;
            Ok(Frame::Ok)
        }
        OP_CHUNK => {
            let digest = c.u64()?;
            Ok(Frame::Chunk {
                digest,
                payload: c.rest(),
            })
        }
        OP_ERR => {
            let code = c.u8()?;
            c.finish(TRAILING)?;
            let code = ErrCode::from_u8(code).ok_or(NodeError::Malformed("unknown error code"))?;
            Ok(Frame::Err { code })
        }
        _ => Err(NodeError::Malformed("unknown opcode")),
    }
}

/// Writes a PUT frame: fixed header in one `write_all`, payload in a
/// second (no assembly copy of the chunk bytes).
pub fn write_put<W: Write>(
    w: &mut W,
    stripe: u64,
    lane: u32,
    digest: u64,
    payload: &[u8],
) -> Result<()> {
    if payload.len() > MAX_CHUNK {
        return Err(NodeError::FrameTooLarge {
            len: payload.len() as u64,
            max: MAX_CHUNK as u64,
        });
    }
    let mut h = [0u8; 4 + 21];
    h[..4].copy_from_slice(&((21 + payload.len()) as u32).to_le_bytes());
    h[4] = OP_PUT;
    h[5..13].copy_from_slice(&stripe.to_le_bytes());
    h[13..17].copy_from_slice(&lane.to_le_bytes());
    h[17..25].copy_from_slice(&digest.to_le_bytes());
    w.write_all(&h)?;
    w.write_all(payload)?;
    Ok(())
}

/// Writes a CHUNK response frame: the header with `digest`, then `len`
/// payload bytes streamed from `src` through `buf`, one `buf` at a time,
/// so a chunk of any size costs one bounded buffer and one copy. A
/// `src` that ends early leaves the frame cut short and is an error:
/// the connection is out of step and must be closed.
///
/// Fault sites: [`Site::ServeStall`] delays the whole reply by the
/// plan's param (the client sees a stalled peer); [`Site::ServeReset`]
/// writes the header plus half the payload and then errors, so the
/// serving connection is torn down mid-frame (the client sees
/// [`NodeError::Truncated`]). Both are no-ops when no plan is armed.
pub fn write_chunk<W: Write, R: Read>(
    w: &mut W,
    digest: u64,
    len: usize,
    src: &mut R,
    buf: &mut [u8],
) -> Result<()> {
    if len > MAX_CHUNK {
        return Err(NodeError::FrameTooLarge {
            len: len as u64,
            max: MAX_CHUNK as u64,
        });
    }
    fault::maybe_stall(Site::ServeStall);
    let mut h = [0u8; 4 + CHUNK_HEAD];
    h[..4].copy_from_slice(&((CHUNK_HEAD + len) as u32).to_le_bytes());
    h[4] = OP_CHUNK;
    h[5..13].copy_from_slice(&digest.to_le_bytes());
    w.write_all(&h)?;
    let reset = fault::hit(Site::ServeReset);
    let mut left = if reset { len / 2 } else { len };
    while left > 0 {
        let want = left.min(buf.len());
        let got = match src.read(&mut buf[..want]) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into()),
            Ok(got) => got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        w.write_all(&buf[..got])?;
        left -= got;
    }
    if reset {
        let _ = w.flush();
        return Err(NodeError::Injected("serve-reset"));
    }
    Ok(())
}

/// Writes a GET or DELETE request frame (`op` picks which).
pub fn write_locator<W: Write>(w: &mut W, op: u8, stripe: u64, lane: u32) -> Result<()> {
    let mut h = [0u8; 4 + 13];
    h[..4].copy_from_slice(&13u32.to_le_bytes());
    h[4] = op;
    h[5..13].copy_from_slice(&stripe.to_le_bytes());
    h[13..17].copy_from_slice(&lane.to_le_bytes());
    w.write_all(&h)?;
    Ok(())
}

/// Writes a bare frame (PING or OK).
pub fn write_bare<W: Write>(w: &mut W, op: u8) -> Result<()> {
    let mut h = [0u8; 5];
    h[..4].copy_from_slice(&1u32.to_le_bytes());
    h[4] = op;
    w.write_all(&h)?;
    Ok(())
}

/// Writes an ERR response frame.
pub fn write_err<W: Write>(w: &mut W, code: ErrCode) -> Result<()> {
    let mut h = [0u8; 6];
    h[..4].copy_from_slice(&2u32.to_le_bytes());
    h[4] = OP_ERR;
    h[5] = code.as_u8();
    w.write_all(&h)?;
    Ok(())
}

#[inline]
fn le64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

/// A fast 64-bit chunk digest: four independent FxHash-style lanes
/// folded over 32-byte blocks (instruction-level parallelism keeps it
/// near memory bandwidth), the tail and total length mixed in at the
/// end. Collision-resistant enough to catch disk or wire corruption;
/// **not** cryptographic.
pub fn chunk_digest(bytes: &[u8]) -> u64 {
    const M: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut lanes = [
        0x243F_6A88_85A3_08D3u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut rest = bytes;
    while rest.len() >= 32 {
        lanes[0] = (lanes[0].rotate_left(5) ^ le64(&rest[0..8])).wrapping_mul(M);
        lanes[1] = (lanes[1].rotate_left(5) ^ le64(&rest[8..16])).wrapping_mul(M);
        lanes[2] = (lanes[2].rotate_left(5) ^ le64(&rest[16..24])).wrapping_mul(M);
        lanes[3] = (lanes[3].rotate_left(5) ^ le64(&rest[24..32])).wrapping_mul(M);
        rest = &rest[32..];
    }
    let mut acc = lanes[0];
    acc = (acc.rotate_left(5) ^ lanes[1]).wrapping_mul(M);
    acc = (acc.rotate_left(5) ^ lanes[2]).wrapping_mul(M);
    acc = (acc.rotate_left(5) ^ lanes[3]).wrapping_mul(M);
    while rest.len() >= 8 {
        acc = (acc.rotate_left(5) ^ le64(&rest[0..8])).wrapping_mul(M);
        rest = &rest[8..];
    }
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    acc = (acc.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(M);
    (acc.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(M)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_one(bytes: &[u8]) -> Result<&'static str> {
        // Parse a frame out of raw bytes and summarize the outcome.
        let mut r = FrameReader::new();
        let mut cur = Cursor::new(bytes.to_vec());
        match r.read(&mut cur, None)? {
            Ok(Frame::Put { .. }) => Ok("put"),
            Ok(Frame::Get { .. }) => Ok("get"),
            Ok(Frame::Delete { .. }) => Ok("delete"),
            Ok(Frame::Ping) => Ok("ping"),
            Ok(Frame::Ok) => Ok("ok"),
            Ok(Frame::Chunk { .. }) => Ok("chunk"),
            Ok(Frame::Err { .. }) => Ok("err"),
            Err(ReadEnd::CleanEof) => Ok("eof"),
            Err(ReadEnd::Stopped) => Ok("stopped"),
            Err(ReadEnd::Disconnected) => Ok("disconnected"),
        }
    }

    /// A stream that yields `data`, then fails every read with `kind`.
    struct FailAfter {
        data: Vec<u8>,
        pos: usize,
        kind: ErrorKind,
    }

    impl Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.data.len() {
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(std::io::Error::from(self.kind))
            }
        }
    }

    #[test]
    fn every_frame_round_trips() {
        let payload = [7u8, 8, 9];
        let digest = chunk_digest(&payload);
        let mut buf = Vec::new();
        write_put(&mut buf, 42, 3, digest, &payload).unwrap();
        write_locator(&mut buf, OP_GET, 42, 3).unwrap();
        write_locator(&mut buf, OP_DELETE, 9, 1).unwrap();
        write_bare(&mut buf, OP_PING).unwrap();
        write_bare(&mut buf, OP_OK).unwrap();
        // Streamed two bytes at a time.
        write_chunk(
            &mut buf,
            digest,
            payload.len(),
            &mut &payload[..],
            &mut [0; 2],
        )
        .unwrap();
        write_err(&mut buf, ErrCode::NotFound).unwrap();

        let mut r = FrameReader::new();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            r.read(&mut cur, None).unwrap().unwrap(),
            Frame::Put {
                stripe: 42,
                lane: 3,
                digest,
                payload: &payload
            }
        );
        assert_eq!(
            r.read(&mut cur, None).unwrap().unwrap(),
            Frame::Get {
                stripe: 42,
                lane: 3
            }
        );
        assert_eq!(
            r.read(&mut cur, None).unwrap().unwrap(),
            Frame::Delete { stripe: 9, lane: 1 }
        );
        assert_eq!(r.read(&mut cur, None).unwrap().unwrap(), Frame::Ping);
        assert_eq!(r.read(&mut cur, None).unwrap().unwrap(), Frame::Ok);
        assert_eq!(
            r.read(&mut cur, None).unwrap().unwrap(),
            Frame::Chunk {
                digest,
                payload: &payload
            }
        );
        assert_eq!(
            r.read(&mut cur, None).unwrap().unwrap(),
            Frame::Err {
                code: ErrCode::NotFound
            }
        );
        // Stream exhausted between frames: a clean EOF, not an error.
        assert!(matches!(
            r.read(&mut cur, None).unwrap(),
            Err(ReadEnd::CleanEof)
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        // Announce a 4 GiB body: the reader must refuse based on the
        // prefix alone (the 4 bytes after the prefix never exist).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_one(&bytes).unwrap_err();
        assert!(
            matches!(err, NodeError::FrameTooLarge { len, .. } if len == u32::MAX as u64),
            "got {err:?}"
        );
        // Just above the cap is also refused…
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&((MAX_BODY as u32) + 1).to_le_bytes());
        assert!(matches!(
            read_one(&bytes).unwrap_err(),
            NodeError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        // Truncated inside the length prefix.
        let err = read_one(&[0x05, 0x00]).unwrap_err();
        assert!(
            matches!(err, NodeError::Truncated { missing: 2 }),
            "got {err:?}"
        );
        // Length prefix promises 100 bytes, body delivers 10.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[OP_PING; 10]);
        let err = read_one(&bytes).unwrap_err();
        assert!(
            matches!(err, NodeError::Truncated { missing: 90 }),
            "got {err:?}"
        );
        // Length prefix present, body entirely absent.
        let bytes = 13u32.to_le_bytes();
        let err = read_one(&bytes).unwrap_err();
        assert!(
            matches!(err, NodeError::Truncated { missing: 13 }),
            "got {err:?}"
        );
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        // Zero-length body.
        let bytes = 0u32.to_le_bytes();
        assert!(matches!(
            read_one(&bytes).unwrap_err(),
            NodeError::Malformed(_)
        ));
        // Unknown opcode.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0x7F);
        assert!(matches!(
            read_one(&bytes).unwrap_err(),
            NodeError::Malformed(_)
        ));
        // GET with a short body.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.push(OP_GET);
        bytes.extend_from_slice(&[0; 4]);
        assert!(matches!(
            read_one(&bytes).unwrap_err(),
            NodeError::Malformed(_)
        ));
        // GET with trailing bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&15u32.to_le_bytes());
        bytes.push(OP_GET);
        bytes.extend_from_slice(&[0; 14]);
        assert!(matches!(
            read_one(&bytes).unwrap_err(),
            NodeError::Malformed(_)
        ));
        // ERR with an unknown code.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.push(OP_ERR);
        bytes.push(200);
        assert!(matches!(
            read_one(&bytes).unwrap_err(),
            NodeError::Malformed(_)
        ));
    }

    #[test]
    fn digest_discriminates_and_is_stable() {
        let a = chunk_digest(b"hello world");
        let b = chunk_digest(b"hello worle");
        assert_ne!(a, b);
        assert_eq!(a, chunk_digest(b"hello world"));
        // Length is mixed in: a zero block and an empty block differ.
        assert_ne!(chunk_digest(&[0u8; 64]), chunk_digest(&[0u8; 63]));
        assert_ne!(chunk_digest(&[]), chunk_digest(&[0u8]));
        // Tail handling: every length near the 32-byte block boundary
        // hashes distinctly for distinct data.
        for len in 24..40 {
            let mut v = vec![0xA5u8; len];
            let base = chunk_digest(&v);
            v[len - 1] ^= 1;
            assert_ne!(base, chunk_digest(&v), "len {len}");
        }
    }

    #[test]
    fn err_codes_round_trip() {
        for code in [
            ErrCode::NotFound,
            ErrCode::Corrupt,
            ErrCode::Malformed,
            ErrCode::TooLarge,
            ErrCode::Io,
            ErrCode::Unavailable,
        ] {
            assert_eq!(ErrCode::from_u8(code.as_u8()), Some(code));
        }
        assert_eq!(ErrCode::from_u8(0), None);
        assert_eq!(ErrCode::from_u8(99), None);
    }

    #[test]
    fn reset_between_frames_is_a_clean_disconnect() {
        // The peer sends an RST before any byte of the next frame: the
        // reader reports Disconnected, not an I/O error or Truncated.
        let mut r = FrameReader::new();
        let mut s = FailAfter {
            data: Vec::new(),
            pos: 0,
            kind: ErrorKind::ConnectionReset,
        };
        assert!(matches!(
            r.read(&mut s, None).unwrap(),
            Err(ReadEnd::Disconnected)
        ));
        // Same for an abort.
        let mut s = FailAfter {
            data: Vec::new(),
            pos: 0,
            kind: ErrorKind::ConnectionAborted,
        };
        assert!(matches!(
            r.read(&mut s, None).unwrap(),
            Err(ReadEnd::Disconnected)
        ));
    }

    #[test]
    fn reset_mid_body_is_truncated_with_missing_count() {
        // Length prefix promises 100 bytes, peer delivers 10, then RST:
        // mid-frame loss must surface as Truncated{missing}, exactly
        // like an EOF mid-body would.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[OP_PING; 10]);
        let mut r = FrameReader::new();
        let mut s = FailAfter {
            data: bytes,
            pos: 0,
            kind: ErrorKind::ConnectionReset,
        };
        let err = r.read(&mut s, None).unwrap_err();
        assert!(
            matches!(err, NodeError::Truncated { missing: 90 }),
            "got {err:?}"
        );
    }

    #[test]
    fn peer_dying_mid_body_yields_truncated_within_the_read_budget() {
        // A real socket peer writes the prefix and part of the body,
        // then drops the connection and goes away. The client's reader
        // (short read timeout + total deadline) must type the loss as
        // Truncated well inside the deadline budget instead of
        // blocking.
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&64u32.to_le_bytes());
            bytes.extend_from_slice(&[OP_PING; 16]);
            conn.write_all(&bytes).unwrap();
            conn.flush().unwrap();
            // Give the reader a moment to consume the partial frame,
            // then die mid-body.
            std::thread::sleep(Duration::from_millis(30));
            drop(conn);
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let budget = Duration::from_secs(2);
        let started = Instant::now();
        let mut r = FrameReader::new();
        let err = r
            .read_deadline(&mut conn, None, Some(Deadline::after(budget)))
            .unwrap_err();
        let elapsed = started.elapsed();
        assert!(
            matches!(err, NodeError::Truncated { missing: 48 }),
            "got {err:?}"
        );
        assert!(elapsed < budget, "took {elapsed:?}, budget {budget:?}");
        peer.join().unwrap();
    }

    #[test]
    fn silent_peer_trips_the_deadline_not_a_hang() {
        // The peer sends a partial frame and then stalls forever: the
        // deadline converts the stall into DeadlineExceeded.
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&64u32.to_le_bytes());
            bytes.extend_from_slice(&[OP_PING; 16]);
            conn.write_all(&bytes).unwrap();
            conn.flush().unwrap();
            // Hold the socket open, silent, until the reader finishes.
            let _ = done_rx.recv();
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let started = Instant::now();
        let mut r = FrameReader::new();
        let err = r
            .read_deadline(
                &mut conn,
                None,
                Some(Deadline::after(Duration::from_millis(80))),
            )
            .unwrap_err();
        assert!(
            matches!(err, NodeError::DeadlineExceeded { budget_ms: 80 }),
            "got {err:?}"
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(75) && elapsed < Duration::from_secs(2),
            "took {elapsed:?}"
        );
        let _ = done_tx.send(());
        peer.join().unwrap();
    }

    /// One CHUNK reply as the server streams it, 64 bytes at a time.
    fn chunk_reply(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        let digest = chunk_digest(payload);
        write_chunk(
            &mut wire,
            digest,
            payload.len(),
            &mut &payload[..],
            &mut [0; 64],
        )
        .unwrap();
        wire
    }

    #[test]
    fn a_chunk_reply_lands_in_the_callers_buffer_and_nothing_else_changes() {
        let chunk = 1000usize;
        let payload: Vec<u8> = (0..chunk).map(|i| (i * 7 + 3) as u8).collect();
        let wire = chunk_reply(&payload);
        let mut r = FrameReader::new();
        // Empty, short or longer than the payload going in: exactly the
        // payload coming out.
        for mut out in [Vec::new(), vec![0xAA; 3], vec![0x55; 2 * chunk + 1]] {
            match r.read_chunk_into(&mut &wire[..], &mut out, None).unwrap() {
                Ok(Frame::Chunk { digest, payload: p }) => {
                    assert_eq!(digest, chunk_digest(&payload));
                    assert_eq!(p, &payload[..]);
                }
                other => panic!("expected a chunk, got {other:?}"),
            }
            assert_eq!(out, payload);
        }
        assert_eq!(r.scratch.capacity(), 0, "the payload bypassed the scratch");

        // Every other frame decodes as `read` decodes it, through the
        // scratch, and leaves `out` alone.
        let mut wire = Vec::new();
        write_err(&mut wire, ErrCode::Corrupt).unwrap();
        write_bare(&mut wire, OP_OK).unwrap();
        write_locator(&mut wire, OP_GET, 5, 6).unwrap();
        let mut short_chunk = 5u32.to_le_bytes().to_vec();
        short_chunk.extend_from_slice(&[OP_CHUNK, 1, 2, 3, 4]);
        wire.extend_from_slice(&short_chunk);
        let mut cur = &wire[..];
        let mut out = vec![9u8; 5];
        let mut next = |out: &mut Vec<u8>| {
            r.read_chunk_into(&mut cur, out, None)
                .map(|f| format!("{:?}", f.unwrap()))
        };
        assert_eq!(next(&mut out).unwrap(), "Err { code: Corrupt }");
        assert_eq!(next(&mut out).unwrap(), "Ok");
        assert_eq!(next(&mut out).unwrap(), "Get { stripe: 5, lane: 6 }");
        assert!(matches!(next(&mut out), Err(NodeError::Malformed(_))));
        assert_eq!(out, [9; 5]);
        assert!(r.scratch.capacity() < 64, "{}", r.scratch.capacity());
    }

    #[test]
    fn every_strict_prefix_of_a_chunk_reply_is_truncated_by_its_exact_count() {
        let wire = chunk_reply(&[0x5Au8; 40]);
        let mut r = FrameReader::new();
        let mut out = Vec::new();
        assert!(matches!(
            r.read_chunk_into(&mut &wire[..0], &mut out, None).unwrap(),
            Err(ReadEnd::CleanEof)
        ));
        for cut in 1..wire.len() {
            // Inside the length prefix, the bytes it lacks; after it,
            // the bytes of the body — as the scratch reader counts.
            let missing = if cut < 4 { 4 - cut } else { wire.len() - cut };
            let err = r
                .read_chunk_into(&mut &wire[..cut], &mut out, None)
                .unwrap_err();
            assert!(
                matches!(err, NodeError::Truncated { missing: m } if m == missing),
                "cut at {cut}: {err:?}"
            );
            let err = read_one(&wire[..cut]).unwrap_err();
            assert!(
                matches!(err, NodeError::Truncated { missing: m } if m == missing),
                "cut at {cut}, scratch reader: {err:?}"
            );
        }
        // A reset counts the same as a close.
        let mut s = FailAfter {
            data: wire[..20].to_vec(),
            pos: 0,
            kind: ErrorKind::ConnectionReset,
        };
        let err = r.read_chunk_into(&mut s, &mut out, None).unwrap_err();
        assert!(
            matches!(err, NodeError::Truncated { missing } if missing == wire.len() - 20),
            "{err:?}"
        );
    }

    #[test]
    fn an_oversized_chunk_reply_is_refused_before_out_is_resized() {
        for len in [MAX_BODY as u32 + 1, u32::MAX] {
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[OP_CHUNK; 9]);
            let mut out = Vec::new();
            let err = FrameReader::new()
                .read_chunk_into(&mut &wire[..], &mut out, None)
                .unwrap_err();
            assert!(
                matches!(err, NodeError::FrameTooLarge { len: l, .. } if l == len as u64),
                "{err:?}"
            );
            assert_eq!(out.capacity(), 0);
        }
    }

    #[test]
    fn a_chunk_source_that_ends_early_is_an_error_after_what_it_had() {
        let mut wire = Vec::new();
        let err = write_chunk(&mut wire, 1, 10, &mut &[7u8; 4][..], &mut [0; 3]).unwrap_err();
        assert!(
            matches!(&err, NodeError::Io(e) if e.kind() == ErrorKind::UnexpectedEof),
            "{err:?}"
        );
        assert_eq!(wire.len(), 4 + CHUNK_HEAD + 4);
    }

    #[test]
    fn oversized_put_payload_is_refused_at_write_time() {
        // Zero-filled huge vec is cheap (virtual memory), so the guard
        // itself is testable without real allocation pressure.
        let payload = vec![0u8; MAX_CHUNK + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_put(&mut sink, 0, 0, 0, &payload).unwrap_err(),
            NodeError::FrameTooLarge { .. }
        ));
    }
}
