//! Plan → fetch → replay, once: the stripe executor the client's
//! direct and degraded gets and the repair agent all run.
//!
//! A [`StripeIo`] owns one stripe's worth of lane scratch and the
//! connection pool it reads through, and it is built to be kept: the
//! client holds one for its lifetime, and so does each repair worker, so
//! sockets, frame readers and lane buffers are reused from stripe to
//! stripe.
//!
//! A direct read is two halves. **Issue** sends the GET for a lane on
//! the pooled connection to its server; **collect** reads the reply
//! into a buffer, digest verified. [`StripeIo::fetch`] — the node's
//! only fetch loop — resolves every wanted lane under one directory
//! lock, issues them all in order and then collects in the same order,
//! so the servers of a stripe read their disks and fill their sockets
//! at the same time instead of one after another. Lanes that share a
//! server share its connection, which then carries several GETs at once;
//! the server answers in request order. [`StripeIo::read_chunk`] is
//! issue + collect of one lane.
//!
//! The two halves are also the only place a read failure turns into
//! directory state — for *every* caller:
//!
//! * a transport error (refused, reset, truncated, deadline blown)
//!   closes the connection and marks the server dead — unless the
//!   [`ConnPool`]'s pooled-connection rule says the socket was merely
//!   stale, in which case it is redialed once and everything it still
//!   owed is asked for again;
//! * `ChunkCorrupt` / `ChunkNotFound` puts the lane in the corrupt set.
//!
//! The first failure ends the attempt. Connections still owed a reply
//! are closed without a verdict, so no later request can read an answer
//! meant for this one. Either way the next [`StripeIo::reconstruct`]
//! attempt sees a failure pattern that routes around the bad lane,
//! whether the caller is a client retrying inside one get or the agent
//! coming back next round.
//!
//! [`StripeIo::reconstruct`] is one attempt of the paper's single
//! decode (§3.1.2: light decoder first, heavy fallback, shared by the
//! BlockFixer and the degraded-read path): look the stripe's failure
//! pattern up in the [`SessionCache`], fetch
//! [`RepairPlan::fetch_lanes`](xorbas_core::RepairPlan::fetch_lanes)
//! plus whatever extra lanes the caller wants fresh, and replay the
//! session in place over the scratch.

use crate::client::{is_transport, ConnPool, RetryPolicy, SessionCache};
use crate::directory::{Directory, ServerId};
use crate::error::{NodeError, Result};
use crate::lock;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use xorbas_core::{Codec, RepairSession, StripeViewMut};

/// One stripe executor: private scratch and connections, shared
/// directory and session cache.
pub(crate) struct StripeIo {
    pub(crate) codec: Codec,
    pub(crate) chunk_bytes: usize,
    pub(crate) sessions: SessionCache,
    pub(crate) pool: ConnPool,
    /// One buffer per lane of the stripe being read or rebuilt. After
    /// an `Ok` from [`StripeIo::fetch`] the wanted lanes hold fresh
    /// bytes, after one from [`StripeIo::reconstruct`] the fetched,
    /// rebuilt and extra lanes do; any other lane is stale.
    pub(crate) lanes: Vec<Vec<u8>>,
    unavailable: Vec<usize>,
    /// The lanes of the read in progress and the server each comes
    /// from, ascending: the order GETs are issued and replies collected.
    pending: Vec<(usize, ServerId)>,
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
            pool: ConnPool::new(directory, retry),
            sessions,
            unavailable: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Direct read of `(stripe, lane)` from its assigned server into
    /// `out`, digest-verified end to end. A failure is reported to the
    /// directory (see the module docs) before it is returned.
    pub(crate) fn read_chunk(&mut self, stripe: u64, lane: u32, out: &mut Vec<u8>) -> Result<()> {
        self.resolve(stripe, std::iter::once(lane as usize))?;
        self.issue(stripe, 0)
            .and_then(|()| self.receive(stripe, 0, out))
            .map_err(|e| self.fail(stripe, 0, 0..0, e))
    }

    /// Direct read of the `wanted` lanes of `stripe` into their scratch
    /// buffers: every GET goes out, in the order given, before the first
    /// reply is read. Returns how many lanes were fetched. The first failure
    /// is reported to the directory and ends the read.
    pub(crate) fn fetch(
        &mut self,
        stripe: u64,
        wanted: impl Iterator<Item = usize>,
    ) -> Result<usize> {
        self.resolve(stripe, wanted)?;
        // xlint::hot-path(repair-stream) begin
        // Stream-in. Buffers, connections and the pending list are
        // reused; neither loop may allocate.
        for at in 0..self.pending.len() {
            if let Err(e) = self.issue(stripe, at) {
                return Err(self.fail(stripe, at, 0..at, e));
            }
        }
        for at in 0..self.pending.len() {
            let Some(&(lane, _)) = self.pending.get(at) else {
                break;
            };
            // `resolve` admits only lanes the scratch has a buffer for.
            let mut buf = std::mem::take(&mut self.lanes[lane]);
            let received = self.receive(stripe, at, &mut buf);
            self.lanes[lane] = buf;
            if let Err(e) = received {
                return Err(self.fail(stripe, at, at + 1..self.pending.len(), e));
            }
        }
        // xlint::hot-path(repair-stream) end
        Ok(self.pending.len())
    }

    /// Fills `pending` with the server of every wanted lane, under one
    /// directory lock. A lane the directory already lists as corrupt, or
    /// on a server it already lists as dead, is refused here, before a
    /// byte is sent for any lane.
    fn resolve(&mut self, stripe: u64, wanted: impl Iterator<Item = usize>) -> Result<()> {
        self.pending.clear();
        let d = lock(&self.pool.directory);
        let servers = d
            .servers_of(stripe)
            .ok_or(NodeError::UnknownStripe(stripe))?;
        for lane in wanted {
            let sid = *servers
                .get(lane)
                .filter(|_| lane < self.lanes.len())
                .ok_or(NodeError::Malformed("lane out of range for stripe"))?;
            if d.is_corrupt(stripe, lane as u32) {
                return Err(NodeError::ChunkCorrupt {
                    stripe,
                    lane: lane as u32,
                });
            }
            if !d.is_alive(sid) {
                let addr = d
                    .addr_of(sid)
                    .ok_or(NodeError::Malformed("server id out of roster"))?;
                return Err(NodeError::ConnectFailed { addr, attempts: 0 });
            }
            self.pending.push((lane, sid));
        }
        Ok(())
    }

    fn pending_at(&self, at: usize) -> Result<(usize, ServerId)> {
        self.pending
            .get(at)
            .copied()
            .ok_or(NodeError::Malformed("no such pending lane"))
    }

    /// Sends the GET of every pending lane in `lanes` that `sid` serves,
    /// over its pooled connection (dialed if the slot is empty): the
    /// send half's one call site.
    fn send(&mut self, stripe: u64, sid: ServerId, lanes: Range<usize>) -> Result<()> {
        for at in lanes {
            let (lane, server) = self.pending_at(at)?;
            if server == sid {
                self.pool.conn(sid)?.send_get(stripe, lane as u32)?;
            }
        }
        Ok(())
    }

    /// Issue half of a direct read: the GET of pending lane `at` goes
    /// out on the pooled connection to its server. Lanes before `at`
    /// have been issued and none collected, so a stale connection owes
    /// all of them again.
    // xlint::hot-path(repair-stream)
    fn issue(&mut self, stripe: u64, at: usize) -> Result<()> {
        let sid = self.pending_at(at)?.1;
        match self.send(stripe, sid, at..at + 1) {
            Err(e) if self.pool.redial_on(sid, &e) => self.send(stripe, sid, 0..at + 1),
            done => done,
        }
    }

    /// Collect half of a direct read (not named `collect`: xlint reads
    /// that as the allocating iterator call): the reply for pending lane
    /// `at` into `out`, digest verified. Lanes before `at` have been
    /// collected, every later one is still owed.
    // xlint::hot-path(repair-stream)
    fn receive(&mut self, stripe: u64, at: usize, out: &mut Vec<u8>) -> Result<()> {
        let (lane, sid) = self.pending_at(at)?;
        loop {
            match self.pool.conn(sid)?.recv_chunk(stripe, lane as u32, out) {
                Err(e) if self.pool.redial_on(sid, &e) => {
                    self.send(stripe, sid, at..self.pending.len())?;
                }
                done => return done.map(|_digest| ()),
            }
        }
    }

    /// Ends a read at pending lane `at`: reports `e` to the directory
    /// by the module's rule and closes, without a verdict, every
    /// connection the `owed` lanes were still to be read from.
    fn fail(&mut self, stripe: u64, at: usize, owed: Range<usize>, e: NodeError) -> NodeError {
        if let Some(&(lane, sid)) = self.pending.get(at) {
            if is_transport(&e) {
                self.pool.declare_dead(sid);
            } else if matches!(
                e,
                NodeError::ChunkCorrupt { .. } | NodeError::ChunkNotFound { .. }
            ) {
                lock(&self.pool.directory).report_corrupt(stripe, lane as u32);
            }
        }
        for &(_, sid) in self.pending.get(owed).unwrap_or_default() {
            self.pool.drop_conn(sid);
        }
        e
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
        let listed = lock(&self.pool.directory).unavailable_lanes(stripe, &mut unavailable);
        let session = listed.and_then(|()| self.sessions.get_or_compile(&self.codec, &unavailable));
        self.unavailable = unavailable;
        let session = session?.ok_or(NodeError::Malformed("codec has no repair session"))?;

        let mut planned = session.plan().fetch_lanes().peekable();
        let wanted = (0..self.codec.total_blocks()).filter(|lane| {
            planned.next_if_eq(lane).is_some()
                || (extra_lanes.contains(lane) && !session.missing().contains(lane))
        });
        let fetched = self.fetch(stripe, wanted)?;

        for lane in &mut self.lanes {
            lane.resize(self.chunk_bytes, 0);
        }
        let mut refs: Vec<&mut [u8]> = self.lanes.iter_mut().map(Vec::as_mut_slice).collect();
        let mut view = StripeViewMut::new(&mut refs, session.missing())?;
        session.repair(&mut view)?;
        Ok((session, fetched))
    }
}
