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
use crate::protocol::chunk_digest;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use xorbas_core::{Codec, RepairSession, StripeViewMut};

/// A lane of the read in progress.
#[derive(Debug, Clone, Copy)]
struct Pending {
    lane: usize,
    /// The server it comes from.
    server: ServerId,
    /// Whether its reply is digested as it lands and compared with the
    /// stored digest. A lane that is only a repair source is not: the
    /// lanes rebuilt from it are checked instead.
    verify: bool,
}

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
    /// One digest per lane, as 8 little-endian bytes: after a fetch,
    /// the digest each fetched lane's server stored; after a
    /// reconstruct whose codec commutes with the digest, also the
    /// digest each rebuilt lane was checked against.
    digests: Vec<[u8; 8]>,
    unavailable: Vec<usize>,
    /// The lanes of the read in progress, ascending: the order GETs are
    /// issued and replies collected.
    pending: Vec<Pending>,
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
            digests: vec![[0; 8]; codec.total_blocks()],
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
        self.resolve(stripe, std::iter::once((lane as usize, true)))?;
        self.issue(stripe, 0)
            .and_then(|()| self.receive(stripe, 0, out))
            .map_err(|e| self.fail(stripe, 0, 0..0, e))
    }

    /// Direct read of the `wanted` lanes of `stripe` into their scratch
    /// buffers, each digest verified: every GET goes out, in the order
    /// given, before the first reply is read. Returns how many lanes were
    /// fetched. The first failure is reported to the directory and ends
    /// the read.
    pub(crate) fn fetch(
        &mut self,
        stripe: u64,
        wanted: impl Iterator<Item = usize>,
    ) -> Result<usize> {
        self.fetch_lanes(stripe, wanted.map(|lane| (lane, true)))
    }

    /// [`StripeIo::fetch`] of `(lane, verify)` pairs: a lane whose
    /// `verify` is false lands undigested, its stored digest kept in
    /// `digests` for the caller to check it by.
    fn fetch_lanes(
        &mut self,
        stripe: u64,
        wanted: impl Iterator<Item = (usize, bool)>,
    ) -> Result<usize> {
        self.resolve(stripe, wanted)?;
        // Stream-in. Buffers, connections and the pending list are
        // reused; neither loop may allocate.
        for at in 0..self.pending.len() {
            if let Err(e) = self.issue(stripe, at) {
                return Err(self.fail(stripe, at, 0..at, e));
            }
        }
        for at in 0..self.pending.len() {
            let Some(&Pending { lane, .. }) = self.pending.get(at) else {
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
        Ok(self.pending.len())
    }

    /// Fills `pending` with the server of every wanted lane, under one
    /// directory lock. A lane the directory already lists as corrupt, or
    /// on a server it already lists as dead, is refused here, before a
    /// byte is sent for any lane.
    fn resolve(&mut self, stripe: u64, wanted: impl Iterator<Item = (usize, bool)>) -> Result<()> {
        self.pending.clear();
        let d = lock(&self.pool.directory);
        let servers = d
            .servers_of(stripe)
            .ok_or(NodeError::UnknownStripe(stripe))?;
        for (lane, verify) in wanted {
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
            self.pending.push(Pending {
                lane,
                server: sid,
                verify,
            });
        }
        Ok(())
    }

    fn pending_at(&self, at: usize) -> Result<Pending> {
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
            let Pending { lane, server, .. } = self.pending_at(at)?;
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
    fn issue(&mut self, stripe: u64, at: usize) -> Result<()> {
        let sid = self.pending_at(at)?.server;
        match self.send(stripe, sid, at..at + 1) {
            Err(e) if self.pool.redial_on(sid, &e) => self.send(stripe, sid, 0..at + 1),
            done => done,
        }
    }

    /// Collect half of a direct read: the reply for pending lane `at`
    /// into `out`, digest verified if the lane asks for it, and the
    /// digest its server stored into `digests`. Lanes before `at` have
    /// been collected, every later one is still owed.
    fn receive(&mut self, stripe: u64, at: usize, out: &mut Vec<u8>) -> Result<()> {
        let Pending {
            lane,
            server: sid,
            verify,
        } = self.pending_at(at)?;
        loop {
            match self
                .pool
                .conn(sid)?
                .recv_chunk(stripe, lane as u32, out, verify)
            {
                Err(e) if self.pool.redial_on(sid, &e) => {
                    self.send(stripe, sid, at..self.pending.len())?;
                }
                done => {
                    let stored = done?;
                    if let Some(d) = self.digests.get_mut(lane) {
                        *d = stored.to_le_bytes();
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Ends a read at pending lane `at`: reports `e` to the directory
    /// by the module's rule and closes, without a verdict, every
    /// connection the `owed` lanes were still to be read from.
    fn fail(&mut self, stripe: u64, at: usize, owed: Range<usize>, e: NodeError) -> NodeError {
        if let Some(&Pending {
            lane, server: sid, ..
        }) = self.pending.get(at)
        {
            if is_transport(&e) {
                self.pool.declare_dead(sid);
            } else if matches!(
                e,
                NodeError::ChunkCorrupt { .. } | NodeError::ChunkNotFound { .. }
            ) {
                lock(&self.pool.directory).report_corrupt(stripe, lane as u32);
            }
        }
        for p in self.pending.get(owed).unwrap_or_default() {
            self.pool.drop_conn(p.server);
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
    ///
    /// What is verified, and how, depends on the codec. The
    /// `extra_lanes`, which the caller hands on as they are, are checked
    /// as they land. When the codec commutes with the digest
    /// ([`Codec::commutes_with_digest`]) the plan's other lanes land
    /// unchecked; the same session is replayed over 8-byte lanes holding
    /// the digests their servers stored, which gives the digest every
    /// rebuilt lane must have, and each rebuilt lane is digested once
    /// and compared (see [`StripeIo::check_rebuilt`]). So a light
    /// degraded read digests one lane where it would digest five, and
    /// the bytes it returns are checked end to end, replay included.
    /// Other codecs (Piggyback's half-lane steps, GF(2^16)) check every
    /// fetched lane as it lands.
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

        let linear = self.codec.commutes_with_digest();
        let mut planned = session.plan().fetch_lanes().peekable();
        let wanted = (0..self.codec.total_blocks()).filter_map(|lane| {
            let extra = extra_lanes.contains(&lane) && !session.missing().contains(&lane);
            let source = planned.next_if_eq(&lane).is_some();
            (source || extra).then_some((lane, extra || !linear))
        });
        let fetched = self.fetch_lanes(stripe, wanted)?;
        self.replay(&session, linear)?;
        if linear {
            self.check_rebuilt(stripe, session.missing())?;
        }
        Ok((session, fetched))
    }

    /// Replays `session` over the lane scratch and, with `digests`, over
    /// the digest lanes through the same lane list: what each rebuilt
    /// lane's digest must be.
    fn replay(&mut self, session: &RepairSession, digests: bool) -> Result<()> {
        for lane in &mut self.lanes {
            lane.resize(self.chunk_bytes, 0);
        }
        let mut refs: Vec<&mut [u8]> = self.lanes.iter_mut().map(Vec::as_mut_slice).collect();
        let mut view = StripeViewMut::new(&mut refs, session.missing())?;
        session.repair(&mut view)?;
        if digests {
            refs.clear();
            refs.extend(self.digests.iter_mut().map(|d| d.as_mut_slice()));
            let mut view = StripeViewMut::new(&mut refs, session.missing())?;
            session.repair(&mut view)?;
        }
        Ok(())
    }

    /// Digests each rebuilt lane once and compares it with the digest
    /// the replay over digests gave it. On a mismatch some input was
    /// wrong: each unverified source is digested against what its
    /// server stored, and the first that disagrees is reported corrupt
    /// by the module's rule and returned as `ChunkCorrupt`, so the next
    /// attempt routes around it. If every source is what its server
    /// stored, the replay itself is at fault: `Inconsistent`.
    fn check_rebuilt(&mut self, stripe: u64, rebuilt: &[usize]) -> Result<()> {
        let wrong = rebuilt.iter().copied().find(|&lane| {
            let (bytes, want) = (&self.lanes[lane], self.digests[lane]);
            chunk_digest(bytes).to_le_bytes() != want
        });
        let Some(wrong) = wrong else {
            return Ok(());
        };
        let rotten = self
            .pending
            .iter()
            .filter(|p| !p.verify)
            .find(|p| chunk_digest(&self.lanes[p.lane]).to_le_bytes() != self.digests[p.lane]);
        match rotten {
            Some(p) => {
                let lane = p.lane as u32;
                lock(&self.pool.directory).report_corrupt(stripe, lane);
                Err(NodeError::ChunkCorrupt { stripe, lane })
            }
            None => Err(NodeError::Inconsistent { lane: wrong as u32 }),
        }
    }

    /// The digest to store `lane` under after an `Ok` from
    /// [`StripeIo::reconstruct`] rebuilt it: the one it was checked
    /// against when the codec commutes with the digest, else computed
    /// here.
    pub(crate) fn rebuilt_digest(&self, lane: usize) -> Option<u64> {
        if self.codec.commutes_with_digest() {
            self.digests.get(lane).map(|d| u64::from_le_bytes(*d))
        } else {
            self.lanes.get(lane).map(|bytes| chunk_digest(bytes))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbas_core::CodeSpec;

    /// An executor holding one encoded LRC(10,6,5) stripe whose lane 3
    /// is lost: every other lane in the scratch with the digest its
    /// server would have stored, and the light plan's five lanes
    /// pending as unverified sources, as `reconstruct` leaves them
    /// after the fetch. Also returns the lost lane's bytes.
    fn fetched_light_repair() -> (StripeIo, Arc<RepairSession>, Vec<u8>) {
        let spec = CodeSpec::LRC_10_6_5;
        let codec = Codec::build(spec).unwrap();
        let addrs: Vec<std::net::SocketAddr> =
            (0..16).map(|i| ([127, 0, 0, 1], 1 + i).into()).collect();
        let mut dir = Directory::new(&addrs, 4, 1);
        dir.register_stripe(9, (0..16).collect());
        let sessions = SessionCache::default();
        let mut io = StripeIo::new(
            codec.clone(),
            1000,
            Arc::new(Mutex::new(dir)),
            RetryPolicy::default(),
            sessions.clone(),
        );
        let data: Vec<Vec<u8>> = (0..10)
            .map(|i| {
                (0..1000)
                    .map(|j| (i * 37 + j * 11 + j / 253) as u8)
                    .collect()
            })
            .collect();
        let (k, n) = (spec.data_blocks(), spec.total_blocks());
        io.lanes[..k].clone_from_slice(&data);
        let (d, p) = io.lanes.split_at_mut(k);
        let d: Vec<&[u8]> = d.iter().map(|l| l.as_slice()).collect();
        let mut p: Vec<&mut [u8]> = p
            .iter_mut()
            .map(|l| {
                l.resize(1000, 0);
                l.as_mut_slice()
            })
            .collect();
        codec.encode_into(&d, &mut p).unwrap();
        for lane in 0..n {
            io.digests[lane] = chunk_digest(&io.lanes[lane]).to_le_bytes();
        }
        let lost = std::mem::replace(&mut io.lanes[3], vec![0xEE; 1000]);
        io.digests[3] = [0xEE; 8];
        let session = sessions.get_or_compile(&codec, &[3]).unwrap().unwrap();
        io.pending = session
            .plan()
            .fetch_lanes()
            .map(|lane| Pending {
                lane,
                server: lane,
                verify: false,
            })
            .collect();
        assert_eq!(io.pending.len(), 5, "a light repair reads one group");
        (io, session, lost)
    }

    #[test]
    fn a_good_replay_passes_the_digest_check() {
        let (mut io, session, lost) = fetched_light_repair();
        io.replay(&session, true).unwrap();
        io.check_rebuilt(9, session.missing()).unwrap();
        // The data replay rebuilt the lane, the digest replay its digest.
        assert!(io.lanes[3] == lost);
        assert_eq!(io.rebuilt_digest(3), Some(chunk_digest(&lost)));
    }

    /// A replay whose output is wrong, though every source is what its
    /// server stored, is refused as the replay's fault, and no source is
    /// blamed.
    #[test]
    fn a_perturbed_replay_output_is_refused() {
        let (mut io, session, _) = fetched_light_repair();
        io.replay(&session, true).unwrap();
        io.lanes[3][500] ^= 0x01;
        let err = io.check_rebuilt(9, session.missing()).unwrap_err();
        assert!(
            matches!(err, NodeError::Inconsistent { lane: 3 }),
            "{err:?}"
        );
        let dir = lock(&io.pool.directory);
        assert!((0..16).all(|lane| !dir.is_corrupt(9, lane)));
    }

    /// A source that is not what its server stored spoils the rebuilt
    /// lane; the check finds that source, reports it corrupt and names
    /// it, so the next attempt plans around it.
    #[test]
    fn a_rotten_source_is_located_and_reported() {
        let (mut io, session, _) = fetched_light_repair();
        let rotten = io.pending[2].lane;
        io.lanes[rotten][17] ^= 0x40;
        io.replay(&session, true).unwrap();
        let err = io.check_rebuilt(9, session.missing()).unwrap_err();
        assert!(
            matches!(err, NodeError::ChunkCorrupt { stripe: 9, lane } if lane as usize == rotten),
            "{err:?}"
        );
        assert!(lock(&io.pool.directory).is_corrupt(9, rotten as u32));
    }
}
