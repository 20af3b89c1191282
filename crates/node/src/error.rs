//! The typed error surface of the node prototype.
//!
//! Wire robustness is a first-class requirement: a malformed or hostile
//! frame must become a *typed* error (no unbounded allocation, no
//! panic), and a failed chunk read must carry enough structure for the
//! client to route it to the degraded-read path instead of failing the
//! read outright.

use crate::protocol::ErrCode;
use std::fmt;
use std::net::SocketAddr;
use xorbas_core::CodeError;

/// Everything that can go wrong between a client and a chunk server.
#[derive(Debug)]
pub enum NodeError {
    /// An OS-level I/O failure (socket or disk).
    Io(std::io::Error),
    /// A frame announced a body larger than the protocol allows. The
    /// reader rejects the length *before* allocating.
    FrameTooLarge {
        /// The announced body length.
        len: u64,
        /// The protocol's cap ([`crate::protocol::MAX_BODY`]).
        max: u64,
    },
    /// The peer closed the connection mid-frame.
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
    /// A structurally invalid frame or manifest (bad opcode, short
    /// body, bad magic…).
    Malformed(&'static str),
    /// The server does not have the requested chunk.
    ChunkNotFound {
        /// Stripe the chunk belongs to.
        stripe: u64,
        /// Lane within the stripe.
        lane: u32,
    },
    /// A chunk failed its digest check (on-disk corruption or a bad
    /// transfer). Routed to the degraded-read path by the client.
    ChunkCorrupt {
        /// Stripe the chunk belongs to.
        stripe: u64,
        /// Lane within the stripe.
        lane: u32,
    },
    /// The remote side reported a protocol-level error.
    Remote(ErrCode),
    /// Connecting to a server failed after every retry.
    ConnectFailed {
        /// The address dialed.
        addr: SocketAddr,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A manifest's geometry (code spec or chunk size) does not match
    /// the client trying to read it. Reading anyway would silently
    /// misinterpret the stored stripes, so it is refused up front.
    ManifestMismatch(&'static str),
    /// The placement directory has no server able to take a chunk.
    NoPlacement,
    /// The directory does not know the referenced stripe or server.
    UnknownStripe(u64),
    /// A codec-level failure (unrecoverable pattern, geometry mismatch).
    Code(CodeError),
    /// The peer sent a connection reset between frames. Unlike
    /// [`NodeError::Truncated`] no frame was in flight, so the caller
    /// may treat it as a clean (if abrupt) end of the conversation.
    Disconnected,
    /// A socket operation ran past its total per-op deadline budget.
    /// The client treats this like a dead peer: fail over to another
    /// replica or a degraded read instead of hanging the caller.
    DeadlineExceeded {
        /// The budget that was exhausted, in milliseconds.
        budget_ms: u64,
    },
    /// A chunk file or directory log written in a format version this
    /// build does not read. Not corruption: the file is intact, and
    /// neither rot reports nor torn-tail truncation may touch it.
    UnsupportedVersion {
        /// Which format: `"chunk"` or `"wal"`.
        format: &'static str,
        /// The version the file declares.
        version: u32,
    },
    /// A lane the client computed disagrees with the digest the code's
    /// equations give it from the digests of the lanes it was computed
    /// from: an encode or a repair replay produced wrong bytes, though
    /// every input passed its own digest check.
    Inconsistent {
        /// The lane whose bytes are wrong.
        lane: u32,
    },
    /// A failure injected by an armed [`crate::fault::FaultPlan`].
    /// Only ever produced while a plan is armed; carries the site
    /// label so chaos harnesses can tell injected faults from real
    /// ones.
    Injected(&'static str),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Io(e) => write!(f, "i/o error: {e}"),
            NodeError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            NodeError::Truncated { missing } => {
                write!(f, "connection closed mid-frame ({missing} bytes missing)")
            }
            NodeError::Malformed(what) => write!(f, "malformed input: {what}"),
            NodeError::ChunkNotFound { stripe, lane } => {
                write!(f, "chunk (stripe {stripe}, lane {lane}) not found")
            }
            NodeError::ChunkCorrupt { stripe, lane } => {
                write!(
                    f,
                    "chunk (stripe {stripe}, lane {lane}) failed its digest check"
                )
            }
            NodeError::Remote(code) => write!(f, "server reported: {code}"),
            NodeError::ConnectFailed { addr, attempts } => {
                write!(f, "could not connect to {addr} after {attempts} attempt(s)")
            }
            NodeError::ManifestMismatch(what) => write!(f, "manifest mismatch: {what}"),
            NodeError::NoPlacement => write!(f, "no alive server can take the chunk"),
            NodeError::UnknownStripe(s) => write!(f, "stripe {s} is not in the directory"),
            NodeError::Code(e) => write!(f, "codec error: {e}"),
            NodeError::Disconnected => write!(f, "peer reset the connection between frames"),
            NodeError::DeadlineExceeded { budget_ms } => {
                write!(f, "socket operation exceeded its {budget_ms} ms deadline")
            }
            NodeError::UnsupportedVersion { format, version } => {
                write!(f, "{format} format version {version} is not supported")
            }
            NodeError::Inconsistent { lane } => write!(
                f,
                "lane {lane} disagrees with the code's equations over its sources' digests"
            ),
            NodeError::Injected(site) => write!(f, "injected fault at site `{site}`"),
        }
    }
}

impl std::error::Error for NodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NodeError::Io(e) => Some(e),
            NodeError::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NodeError {
    fn from(e: std::io::Error) -> Self {
        NodeError::Io(e)
    }
}

impl From<CodeError> for NodeError {
    fn from(e: CodeError) -> Self {
        NodeError::Code(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NodeError>;
