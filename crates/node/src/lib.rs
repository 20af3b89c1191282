//! `xorbas-node`: the graduation from simulation to a running system.
//!
//! Everything below the `crates/sim` layer computes; this crate *serves*.
//! It is a minimal networked storage prototype — chunk servers and a
//! client library speaking a length-prefixed binary protocol over TCP —
//! built entirely on `std` so a whole cluster can run over loopback
//! inside one process (or one integration test).
//!
//! | Module | Role |
//! |---|---|
//! | [`protocol`] | frame layout, opcodes, bounded-allocation frame reader, chunk digests |
//! | [`chunk_store`] | per-server on-disk chunk files: header and length checked on every open, digest verified at rest |
//! | [`server`] | the chunk-server daemon: blocking accept, a parked pool of handler threads, GETs streamed from the file, a kill switch by socket shutdown |
//! | [`client`] | connection with retry/backoff, the connection pool with its stale-socket rule and the one store-with-failover (the write rule) under client put and repair re-placement, streaming put (encode pipelined against socket writes), direct + degraded get |
//! | `stripe_io` (private) | the one plan → fetch → replay executor under get, degraded get and background repair: a direct read split into issue and collect, the one pipelined fetch built on them, and the one place a read failure is reported to the directory |
//! | `cursor` (private) | the bounds-checked little-endian reader behind the frame, manifest, WAL and chunk-header decoders |
//! | [`manifest`] | the binary stripe manifest a put returns and a get consumes |
//! | [`directory`] | the placement directory: rack-aware chunk→server map, liveness, loss scan — WAL-backed when opened persistent |
//! | [`wal`] | the directory's append-only checksummed log: placements, repairs, manifests; torn-tail-tolerant replay |
//! | [`repair`] | the background repair agent + CRC scrubber: scan → plan → stream → re-place, with a concurrency throttle |
//! | [`fault`] | deterministic fault injection: a seeded process-global plan with labeled sites across the whole stack |
//! | [`error`] | [`NodeError`], the typed error surface |
//!
//! The paper's argument is that repair *network traffic* is the binding
//! constraint of erasure-coded storage (§1, §5); this crate turns that
//! from a simulator output into a wire measurement: erasure-coded puts
//! streamed through [`client::ClusterClient`], degraded reads served
//! through cached [`RepairSession`](xorbas_core::RepairSession)s while a
//! server is down, lost chunks restored by the [`repair::RepairAgent`]
//! (LRC light repairs fetch only the local group, the §3.2 story).
//! `tests/loopback_smoke.rs` pins the chunk counts, `benchmark/` measures
//! throughput and latency, and `tests/chaos.rs` runs the same traffic
//! under a seeded fault plan with a server killed and restarted.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod chunk_store;
pub mod client;
mod cursor;
pub mod directory;
pub mod error;
pub mod fault;
pub mod manifest;
pub mod protocol;
pub mod repair;
pub mod server;
mod stripe_io;
pub mod wal;

pub use chunk_store::ChunkStore;
pub use client::{ClusterClient, NodeConn, RetryPolicy};
pub use directory::{Directory, ServerId};
pub use error::NodeError;
pub use fault::{FaultPlan, Site};
pub use manifest::Manifest;
pub use protocol::{chunk_digest, ErrCode};
pub use repair::{RepairAgent, RepairAgentConfig, RepairStatsSnapshot, ScrubConfig};
pub use server::{ChunkServer, ServerConfig};
pub use wal::DirectoryWal;

/// Locks a mutex, recovering the data from a poisoned lock (a panicked
/// holder) instead of propagating the panic — the prototype's shared
/// state (directory, session caches) stays usable for the surviving
/// threads, and the library keeps its no-panic discipline.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
