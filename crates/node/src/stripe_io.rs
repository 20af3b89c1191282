//! Plan → fetch → replay, once: the stripe executor the client's
//! degraded get and the repair agent both run.
//!
//! A [`StripeIo`] owns one stripe's worth of lane scratch and the
//! connection slots it reads through. [`StripeIo::read_chunk`] is the
//! node's only direct chunk read, and therefore the only place a read
//! failure turns into directory state — for *every* caller:
//!
//! * a transport error (refused, reset, truncated, deadline blown)
//!   drops the connection and marks the server dead;
//! * `ChunkCorrupt` / `ChunkNotFound` puts the lane in the corrupt set.
//!
//! Either way the next [`StripeIo::reconstruct`] attempt sees a failure
//! pattern that routes around the bad lane, whether the caller is a
//! client retrying inside one get or the agent coming back next round.
//!
//! [`StripeIo::reconstruct`] is one attempt of the paper's single
//! decode (§3.1.2: light decoder first, heavy fallback, shared by the
//! BlockFixer and the degraded-read path): look the stripe's failure
//! pattern up in the [`SessionCache`], fetch
//! [`RepairPlan::fetch_lanes`](xorbas_core::RepairPlan::fetch_lanes)
//! plus whatever extra lanes the caller wants fresh, and replay the
//! session in place over the scratch.

use crate::client::{ensure_conn, is_transport, NodeConn, RetryPolicy, SessionCache};
use crate::directory::Directory;
use crate::error::{NodeError, Result};
use crate::lock;
use std::sync::{Arc, Mutex};
use xorbas_core::{Codec, RepairSession, StripeViewMut};

/// One stripe executor: private scratch and connections, shared
/// directory and session cache.
pub(crate) struct StripeIo {
    pub(crate) codec: Codec,
    pub(crate) chunk_bytes: usize,
    pub(crate) directory: Arc<Mutex<Directory>>,
    pub(crate) retry: RetryPolicy,
    pub(crate) sessions: SessionCache,
    /// Connection slots, indexed by server id.
    pub(crate) conns: Vec<Option<NodeConn>>,
    /// One buffer per lane of the stripe being read or rebuilt. After
    /// an `Ok` from [`StripeIo::reconstruct`] the fetched, rebuilt and
    /// extra lanes hold fresh bytes; any other lane is stale.
    pub(crate) lanes: Vec<Vec<u8>>,
    unavailable: Vec<usize>,
}

impl StripeIo {
    pub(crate) fn new(
        codec: Codec,
        chunk_bytes: usize,
        directory: Arc<Mutex<Directory>>,
        retry: RetryPolicy,
        sessions: SessionCache,
    ) -> Self {
        Self {
            lanes: vec![Vec::new(); codec.total_blocks()],
            codec,
            chunk_bytes,
            directory,
            retry,
            sessions,
            conns: Vec::new(),
            unavailable: Vec::new(),
        }
    }

    /// Direct read of `(stripe, lane)` from its assigned server into
    /// `out`, digest-verified end to end. A failure is reported to the
    /// directory (see the module docs) before it is returned.
    // xlint::hot-path(repair-stream)
    pub(crate) fn read_chunk(&mut self, stripe: u64, lane: u32, out: &mut Vec<u8>) -> Result<()> {
        let (sid, addr) = {
            let d = lock(&self.directory);
            let servers = d
                .servers_of(stripe)
                .ok_or(NodeError::UnknownStripe(stripe))?;
            let sid = *servers
                .get(lane as usize)
                .ok_or(NodeError::Malformed("lane out of range for stripe"))?;
            if d.is_corrupt(stripe, lane) {
                return Err(NodeError::ChunkCorrupt { stripe, lane });
            }
            let addr = d
                .addr_of(sid)
                .ok_or(NodeError::Malformed("server id out of roster"))?;
            if !d.is_alive(sid) {
                return Err(NodeError::ConnectFailed { addr, attempts: 0 });
            }
            (sid, addr)
        };
        let outcome = ensure_conn(&mut self.conns, sid, addr, &self.retry)
            .and_then(|conn| conn.get_chunk(stripe, lane, out))
            .map(|_digest| ());
        if let Err(e) = &outcome {
            if is_transport(e) {
                if let Some(slot) = self.conns.get_mut(sid) {
                    *slot = None;
                }
                lock(&self.directory).mark_dead(sid);
            } else if matches!(
                e,
                NodeError::ChunkCorrupt { .. } | NodeError::ChunkNotFound { .. }
            ) {
                lock(&self.directory).report_corrupt(stripe, lane);
            }
        }
        outcome
    }

    /// [`StripeIo::read_chunk`] into the lane's own scratch buffer.
    // xlint::hot-path(repair-stream)
    pub(crate) fn read_lane(&mut self, stripe: u64, lane: usize) -> Result<()> {
        let slot = self
            .lanes
            .get_mut(lane)
            .ok_or(NodeError::Malformed("lane out of range for stripe"))?;
        let mut buf = std::mem::take(slot);
        let res = self.read_chunk(stripe, lane as u32, &mut buf);
        self.lanes[lane] = buf;
        res
    }

    /// One attempt at rebuilding `stripe`'s unavailable lanes in the
    /// scratch: compile (or reuse) the session for the directory's
    /// current failure pattern, fetch the plan's fetch set plus any of
    /// `extra_lanes` the plan neither fetches nor rebuilds (a light plan
    /// touches one local group, so a caller that wants other lanes fresh
    /// must name them), and replay. Returns the session and how many
    /// lanes were fetched. A failed fetch has already updated the
    /// directory, so the caller's next attempt plans around it.
    pub(crate) fn reconstruct(
        &mut self,
        stripe: u64,
        extra_lanes: &[usize],
    ) -> Result<(Arc<RepairSession>, usize)> {
        let mut unavailable = std::mem::take(&mut self.unavailable);
        let listed = lock(&self.directory).unavailable_lanes(stripe, &mut unavailable);
        let session = listed.and_then(|()| self.sessions.get_or_compile(&self.codec, &unavailable));
        self.unavailable = unavailable;
        let session = session?.ok_or(NodeError::Malformed("codec has no repair session"))?;

        let mut fetched = 0;
        // xlint::hot-path(repair-stream) begin
        // Stream-in, ascending over the stripe. Buffers and connections
        // are reused; this loop must not allocate.
        let mut planned = session.plan().fetch_lanes().peekable();
        for lane in 0..self.codec.total_blocks() {
            let wanted = planned.next_if_eq(&lane).is_some()
                || (extra_lanes.contains(&lane) && !session.missing().contains(&lane));
            if wanted {
                self.read_lane(stripe, lane)?;
                fetched += 1;
            }
        }
        // xlint::hot-path(repair-stream) end

        for lane in &mut self.lanes {
            lane.resize(self.chunk_bytes, 0);
        }
        let mut refs: Vec<&mut [u8]> = self.lanes.iter_mut().map(Vec::as_mut_slice).collect();
        let mut view = StripeViewMut::new(&mut refs, session.missing())?;
        session.repair(&mut view)?;
        Ok((session, fetched))
    }
}
