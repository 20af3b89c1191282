//! The client library: connection management with retry/backoff, the
//! streaming erasure-coded put, and direct + degraded gets.
//!
//! **Put** splits the file into stripes and runs a two-stage pipeline
//! over a scoped encoder thread: while stripe `i` streams to the chunk
//! servers, stripe `i+1` is being filled, encoded
//! ([`Codec::encode_into`]) and digested. Two recycled buffer sets bound
//! memory at two stripes regardless of file size, and the client keeps
//! them between puts. A stripe is written by one call of the pool's one
//! store-with-failover (`ConnPool::store`, **the write rule**), which
//! the repair agent's re-placement calls too. Like the fetch it is an
//! issue half and a collect half, run two deep: the PUT of lane `i + 1`
//! goes out while the server of lane `i` writes its chunk, and the ack
//! of lane `i` is read before lane `i + 2` is sent, so a lane costs its
//! bytes or its disk write, whichever is longer, not a round trip that
//! pays both. What a failed write does to the directory is decided there
//! and nowhere else; a put that fails forgets every stripe it placed.
//!
//! **Get** reads a stripe's data lanes straight from their servers —
//! every GET goes out before the first reply is read — verifying the
//! digest end to end. Any failure — connection refused, a dead server
//! mid-read, a digest mismatch — flips the stripe to the *degraded*
//! path, which is the executor the repair agent runs too
//! (`stripe_io`): the failure pattern is looked up in a
//! [`SessionCache`] (one [`RepairSession`] compile per pattern, replayed
//! allocation-free thereafter), only the lanes the session's plan
//! actually needs are fetched (an LRC light pattern touches one local
//! group, the paper's §3.2 repair-locality argument applied to reads),
//! and the missing lanes are reconstructed in place. This module keeps
//! the retry loop around it and the byte extraction, and owns the
//! connection pool (`ConnPool`) every executor reads and writes
//! through.

use crate::directory::{Directory, ServerId};
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use crate::lock;
use crate::manifest::{Manifest, StripeEntry};
use crate::protocol::{
    chunk_digest, write_bare, write_locator, write_put, Deadline, ErrCode, Frame, FrameReader,
    ReadEnd, ReadOutcome, OP_DELETE, OP_GET, OP_PING,
};
use crate::stripe_io::StripeIo;
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xorbas_core::{Codec, RepairSession};
use xorbas_sim::fasthash::FastMap;

/// How hard to try when a connection does not come up at once.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Connection attempts before [`NodeError::ConnectFailed`].
    pub attempts: u32,
    /// Delay after the first failed attempt (the floor of every
    /// jittered backoff; the ramp base when jitter is off).
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
    /// Per-request reply timeout (guards against a server that
    /// accepted the connection and then went dark).
    pub op_timeout: Duration,
    /// Total wall-clock cap across one [`connect_with_retry`] call —
    /// dialing plus every backoff sleep. A dead address costs at most
    /// this long however many attempts remain.
    pub total_deadline: Duration,
    /// Decorrelated jitter on the backoff (uniform in
    /// `[base_delay, 3·previous]`). On by default: a cluster of
    /// clients reconnecting after a kill must not stampede in
    /// lockstep. Turn off for exactly reproducible backoff timing.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            op_timeout: Duration::from_secs(2),
            total_deadline: Duration::from_secs(1),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep after a delay of `prev`: doubled when
    /// jitter is off, decorrelated jitter (uniform in
    /// `[base_delay, 3·prev]`) when on; capped at `max_delay` either
    /// way. Decorrelation keeps a fleet of clients that failed at the
    /// same instant from re-dialing at the same instant forever.
    fn next_delay(&self, prev: Duration) -> Duration {
        if !self.jitter {
            return prev.saturating_mul(2).min(self.max_delay);
        }
        static SALT: AtomicU64 = AtomicU64::new(0x5eed_1e55_c0ff_ee00);
        let salt = SALT.fetch_add(1, Ordering::Relaxed);
        let base = (self.base_delay.as_nanos() as u64).max(1);
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(base + 1);
        let pick = base + fault::mix64(salt) % (hi - base);
        Duration::from_nanos(pick).min(self.max_delay)
    }
}

/// Dials `addr` with backoff per `policy`, bounded both by
/// `policy.attempts` and by `policy.total_deadline` of wall clock.
/// Each dial uses `connect_timeout` so a black-holed address cannot
/// hang an attempt. Fault site: [`Site::ConnectRefuse`] makes an
/// attempt fail as if refused.
pub fn connect_with_retry(addr: SocketAddr, policy: &RetryPolicy) -> Result<TcpStream> {
    let attempts = policy.attempts.max(1);
    let deadline = Instant::now() + policy.total_deadline;
    let mut delay = policy.base_delay;
    for attempt in 0..attempts {
        let dialed = if fault::hit(Site::ConnectRefuse) {
            None
        } else {
            let budget = deadline
                .saturating_duration_since(Instant::now())
                .min(policy.op_timeout)
                .max(Duration::from_millis(1));
            TcpStream::connect_timeout(&addr, budget).ok()
        };
        if let Some(s) = dialed {
            return Ok(s);
        }
        let now = Instant::now();
        if attempt + 1 >= attempts || now >= deadline {
            break;
        }
        std::thread::sleep(delay.min(deadline.saturating_duration_since(now)));
        delay = policy.next_delay(delay);
    }
    Err(NodeError::ConnectFailed { addr, attempts })
}

/// How often a blocked reply read wakes up to check its deadline. The
/// timeout only fires on an *idle* socket, so a healthy reply never
/// pays it; a stalled peer is noticed within one tick.
const READ_POLL_TICK: Duration = Duration::from_millis(25);

/// One connection to one chunk server.
#[derive(Debug)]
pub struct NodeConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Total budget for one request's reply (from [`RetryPolicy`]).
    op_timeout: Duration,
    /// Whether a reply has ever been read off this socket. One that
    /// answered before and now dies is a stale pooled socket, not a
    /// dead server (see [`ConnPool`]).
    answered: bool,
}

impl NodeConn {
    /// Connects (with retry) and configures the socket for
    /// request/response traffic: a short read timeout for deadline
    /// polling, a write timeout so a wedged peer cannot absorb a put
    /// forever, and `op_timeout` as the total per-reply budget.
    pub fn connect(addr: SocketAddr, policy: &RetryPolicy) -> Result<Self> {
        let stream = connect_with_retry(addr, policy)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(
            policy
                .op_timeout
                .min(READ_POLL_TICK)
                .max(Duration::from_millis(1)),
        ))?;
        stream.set_write_timeout(Some(policy.op_timeout))?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            op_timeout: policy.op_timeout,
            answered: false,
        })
    }

    fn read_reply(&mut self) -> Result<Frame<'_>> {
        let mut rd = &self.stream;
        let deadline = Deadline::after(self.op_timeout);
        let read = self.reader.read_deadline(&mut rd, None, Some(deadline));
        reply(read, &mut self.answered)
    }

    /// Stores one chunk: the send half and the receive half, back to
    /// back.
    pub fn put(&mut self, stripe: u64, lane: u32, digest: u64, payload: &[u8]) -> Result<()> {
        self.send_put(stripe, lane, digest, payload)?;
        self.recv_ack(stripe, lane)
    }

    /// The send half of a PUT. A connection may carry several before
    /// the first ack is read; the server stores and answers in request
    /// order.
    pub(crate) fn send_put(
        &mut self,
        stripe: u64,
        lane: u32,
        digest: u64,
        payload: &[u8],
    ) -> Result<()> {
        write_put(&mut (&self.stream), stripe, lane, digest, payload)
    }

    /// The receive half of a PUT: the oldest outstanding request's ack.
    /// An `OK` frame does not say which PUT it answers; `stripe` and
    /// `lane` only name the error.
    pub(crate) fn recv_ack(&mut self, stripe: u64, lane: u32) -> Result<()> {
        match self.read_reply()? {
            Frame::Ok => Ok(()),
            Frame::Err { code } => Err(remote_err(code, stripe, lane)),
            _ => Err(NodeError::Malformed("unexpected reply to PUT")),
        }
    }

    /// Fetches one chunk into `out` and verifies its digest end to end:
    /// the send half and the receive half, back to back.
    pub fn get_chunk(&mut self, stripe: u64, lane: u32, out: &mut Vec<u8>) -> Result<u64> {
        self.send_get(stripe, lane)?;
        self.recv_chunk(stripe, lane, out)
    }

    /// The send half of a GET. A connection may carry several before
    /// the first reply is read; the server answers in request order.
    pub(crate) fn send_get(&mut self, stripe: u64, lane: u32) -> Result<()> {
        write_locator(&mut (&self.stream), OP_GET, stripe, lane)
    }

    /// The receive half of a GET: the oldest outstanding request's
    /// reply, read from the socket straight into `out` and digested
    /// there. The server sends the digest it stored, unchecked, so this
    /// is the one check a fetched chunk gets: rot on the server's disk
    /// and damage on the wire both end here as `ChunkCorrupt`.
    pub(crate) fn recv_chunk(&mut self, stripe: u64, lane: u32, out: &mut Vec<u8>) -> Result<u64> {
        let mut rd = &self.stream;
        let deadline = Deadline::after(self.op_timeout);
        let read = self.reader.read_chunk_into(&mut rd, out, Some(deadline));
        match reply(read, &mut self.answered)? {
            Frame::Chunk { digest, payload } if chunk_digest(payload) == digest => Ok(digest),
            Frame::Chunk { .. } => Err(NodeError::ChunkCorrupt { stripe, lane }),
            Frame::Err { code } => Err(remote_err(code, stripe, lane)),
            _ => Err(NodeError::Malformed("unexpected reply to GET")),
        }
    }

    /// Deletes one chunk (test and failure-injection helper).
    pub fn delete(&mut self, stripe: u64, lane: u32) -> Result<()> {
        write_locator(&mut (&self.stream), OP_DELETE, stripe, lane)?;
        match self.read_reply()? {
            Frame::Ok => Ok(()),
            Frame::Err { code } => Err(remote_err(code, stripe, lane)),
            _ => Err(NodeError::Malformed("unexpected reply to DELETE")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        write_bare(&mut (&self.stream), OP_PING)?;
        match self.read_reply()? {
            Frame::Ok => Ok(()),
            Frame::Err { code } => Err(NodeError::Remote(code)),
            _ => Err(NodeError::Malformed("unexpected reply to PING")),
        }
    }
}

/// A reply read off a connection, or the error its end of stream is:
/// every reply on a request/response connection is owed, so even a
/// clean close between frames cuts one short. Marks the connection as
/// having answered once a frame arrives.
fn reply<'a>(read: Result<ReadOutcome<'a>>, answered: &mut bool) -> Result<Frame<'a>> {
    match read? {
        Ok(frame) => {
            *answered = true;
            Ok(frame)
        }
        Err(ReadEnd::CleanEof | ReadEnd::Stopped) => Err(NodeError::Truncated { missing: 0 }),
        Err(ReadEnd::Disconnected) => Err(NodeError::Disconnected),
    }
}

fn remote_err(code: ErrCode, stripe: u64, lane: u32) -> NodeError {
    match code {
        ErrCode::NotFound => NodeError::ChunkNotFound { stripe, lane },
        ErrCode::Corrupt => NodeError::ChunkCorrupt { stripe, lane },
        other => NodeError::Remote(other),
    }
}

/// Whether an error means "the server (or the pipe to it) is gone" as
/// opposed to "the server answered and the chunk is bad". A blown
/// deadline counts: a peer too slow to answer inside the budget is
/// failed over exactly like a dead one (the Rashmi-et-al. observation
/// that most "failures" are slowness, operationally).
pub(crate) fn is_transport(e: &NodeError) -> bool {
    matches!(
        e,
        NodeError::Io(_)
            | NodeError::Truncated { .. }
            | NodeError::Disconnected
            | NodeError::DeadlineExceeded { .. }
            | NodeError::ConnectFailed { .. }
            | NodeError::FrameTooLarge { .. }
            | NodeError::Remote(ErrCode::Unavailable)
    )
}

/// Whether a transport error says that *this socket* died — the peer
/// hung up or reset it, between frames or in the middle of one, or a
/// write hit a closed pipe. A blown deadline does not count: that
/// socket stayed open and the server behind it did not answer.
fn is_lost_socket(e: &NodeError) -> bool {
    matches!(
        e,
        NodeError::Io(_) | NodeError::Disconnected | NodeError::Truncated { .. }
    )
}

/// The connections one executor keeps open, one slot per server, and
/// the one statement of **the pooled-connection rule**: a socket that
/// has answered before and now dies is not evidence of a dead server (a
/// restarted server's old sockets look exactly like that, and so does
/// one reply cut short). The connection is redialed once at the
/// directory's current address and what it owed is asked for again; the
/// redial is the probe. Only a failed dial, or a failure on a connection
/// that has not answered since it was dialed, or a blown deadline, lets
/// the caller close the slot and mark the server dead
/// ([`ConnPool::declare_dead`]).
///
/// Next to it, the one statement of **the write rule**
/// ([`ConnPool::store`]): what a failed chunk write does to the
/// directory, for the client's put and the agent's re-placement alike.
pub(crate) struct ConnPool {
    /// The one directory handle an executor holds: the pool dials from
    /// it, `StripeIo` plans and reports through it.
    pub(crate) directory: Arc<Mutex<Directory>>,
    retry: RetryPolicy,
    /// Indexed by server id.
    slots: Vec<Option<NodeConn>>,
    dialed: u64,
    /// Where each lane of the store in progress stands, in the order
    /// the lanes were given. Kept, like [`StripeIo`]'s pending list, so
    /// a stripe costs no allocation here.
    puts: Vec<PutState>,
    /// The server that acknowledged each lane of the last store.
    acked: Vec<ServerId>,
}

/// How many PUTs of a stripe [`ConnPool::store`] keeps in flight: the
/// chunk on the wire and the one before it, which its server is writing
/// to disk meanwhile.
///
/// Two, not the whole stripe, by measurement (docs/ARCHITECTURE.md, "Why
/// two"). With all 16 PUTs out before the first ack is read a put on the
/// loopback cluster is some 10 ms shorter still, but the servers' file
/// writes then run beside each other and beside the sends, and a put
/// shows only 0.6 of every swing in the host's file-write time (22 to
/// 55 ms for the 64 files of a 40 MiB put, from one minute to the next)
/// — against 0.8 with two in flight and all of it with one, which is a
/// round trip per lane. Put time net of the host's own file writes, what
/// the benchmark states, then moves by 12 ms between identical runs and
/// `work_per_s` spreads past its bound. A constant, not an option:
/// nothing but that measurement picks it.
const PUTS_IN_FLIGHT: usize = 2;

/// One chunk of a stripe on its way to a server.
pub(crate) struct PutLane<'a> {
    pub(crate) lane: u32,
    /// The server the directory already assigns the lane to, tried
    /// first (a client put, straight after `place_stripe`); `None`
    /// means the lane is lost and a fresh replacement is chosen (a
    /// repair).
    pub(crate) placed: Option<ServerId>,
    pub(crate) digest: u64,
    pub(crate) payload: &'a [u8],
}

/// Where one lane of a [`ConnPool::store`] stands.
enum PutState {
    /// No server holds or is being sent the chunk.
    Unsent,
    /// The PUT is on the connection to this server, its ack unread.
    Sent(ServerId),
    Acked(ServerId),
    /// The send to this server, or its ack, failed.
    Failed(ServerId, NodeError),
}

impl ConnPool {
    pub(crate) fn new(directory: Arc<Mutex<Directory>>, retry: RetryPolicy) -> Self {
        Self {
            directory,
            retry,
            slots: Vec::new(),
            dialed: 0,
            puts: Vec::new(),
            acked: Vec::new(),
        }
    }

    /// Connections established over the pool's lifetime.
    pub(crate) fn dialed(&self) -> u64 {
        self.dialed
    }

    /// The connection to `sid`, dialed at the directory's current
    /// address when the slot is empty.
    pub(crate) fn conn(&mut self, sid: ServerId) -> Result<&mut NodeConn> {
        if !matches!(self.slots.get(sid), Some(Some(_))) {
            // The roster bounds `sid` before the slots grow to hold it.
            let addr = lock(&self.directory)
                .addr_of(sid)
                .ok_or(NodeError::Malformed("server id out of roster"))?;
            let conn = NodeConn::connect(addr, &self.retry)?;
            if self.slots.len() <= sid {
                self.slots.resize_with(sid + 1, || None);
            }
            if let Some(slot) = self.slots.get_mut(sid) {
                *slot = Some(conn);
                self.dialed += 1;
            }
        }
        self.slots
            .get_mut(sid)
            .and_then(Option::as_mut)
            .ok_or(NodeError::Malformed("connection slot empty"))
    }

    /// Closes the connection to `sid` without a verdict on the server:
    /// for a socket still owed a reply nobody will read.
    pub(crate) fn drop_conn(&mut self, sid: ServerId) {
        if let Some(slot) = self.slots.get_mut(sid) {
            *slot = None;
        }
    }

    /// Closes the connection to `sid` and marks the server dead.
    pub(crate) fn declare_dead(&mut self, sid: ServerId) {
        self.drop_conn(sid);
        lock(&self.directory).mark_dead(sid);
    }

    /// Applies the rule to `e`, just returned by the connection to
    /// `sid`. `true` means the socket was stale and its slot is now
    /// empty: resend whatever that connection still owed, and the next
    /// [`ConnPool::conn`] redials. Never `true` twice in a row, because
    /// a fresh connection has not answered yet.
    pub(crate) fn redial_on(&mut self, sid: ServerId, e: &NodeError) -> bool {
        let stale = is_lost_socket(e)
            && self
                .slots
                .get(sid)
                .and_then(Option::as_ref)
                .is_some_and(|c| c.answered);
        if stale {
            self.drop_conn(sid);
        }
        stale
    }

    /// Stores the given lanes of `stripe` and returns, in the same
    /// order, the server that acknowledged each. The write twin of
    /// [`StripeIo::fetch`], in the same two halves: **issue** sends the
    /// PUT of a lane that has a first choice on the pooled connection to
    /// it, **collect** reads the acks in the order the PUTs went out.
    /// The halves run [`PUTS_IN_FLIGHT`] deep: lane `i + 1` is on the
    /// wire while the server of lane `i` writes its chunk to disk, and
    /// the ack of lane `i` is read before lane `i + 2` goes out. Lanes
    /// in flight that share a server share its connection, which then
    /// carries both PUTs; the server stores and answers in request
    /// order. No geometry can wedge the two ends against each other: an
    /// ack is 5 bytes (an `ERR` 6), so a server never blocks writing
    /// acks while the client is still writing PUTs.
    ///
    /// Only when every ack is in is **the write rule** applied, lane by
    /// lane, to each lane whose send or ack failed and to each that had
    /// no first choice:
    ///
    /// * a transport error the pooled-connection rule does not absorb
    ///   closes the connection and marks the server dead, and every
    ///   other lane that connection still owed an ack fails over with
    ///   it;
    /// * `Remote(Io)` — the server answered that its disk could not take
    ///   the chunk, e.g. a torn write — passes no verdict on the server,
    ///   and its neighbours on the connection keep their acks;
    /// * either way the lane fails over to a replacement chosen by the
    ///   placement policy, at most roster-size times; any other error is
    ///   returned as it is;
    /// * the directory is told (`reassign`, one WAL record) only after a
    ///   server has acknowledged the chunk, and only when that server is
    ///   not `placed`: an undisturbed stripe takes no lock and logs
    ///   nothing here, and a replacement that fails in its turn leaves
    ///   no record behind.
    ///
    /// A replacement is written one lane at a time, each chosen after
    /// the one before it was reassigned, so two lanes of a stripe never
    /// pick the same spare server blind.
    pub(crate) fn store(&mut self, stripe: u64, lanes: &[PutLane<'_>]) -> Result<&[ServerId]> {
        // One state per lane: every `at` below indexes both alike.
        self.puts.clear();
        self.puts.resize_with(lanes.len(), || PutState::Unsent);
        // Stream-out, `PUTS_IN_FLIGHT` deep; the second loop reads the
        // acks the first still left owed. The lane states and the
        // connections are reused; neither loop may allocate.
        for (at, lane) in lanes.iter().enumerate() {
            // A lost lane has no server yet: the write rule picks one.
            let Some(sid) = lane.placed else { continue };
            // Fault site: the writer dies between two lane sends, the
            // last PUTs on the wire and their acks unread. An `OK` frame
            // does not say which PUT it answers, so every connection
            // still owed one is closed, without a verdict on its server:
            // left open, it would hand the stale ack to the next request.
            if fault::hit(Site::CrashPut) {
                self.close_owed();
                return Err(NodeError::Injected("crash-put"));
            }
            if at >= PUTS_IN_FLIGHT {
                self.ack(stripe, lanes, at - PUTS_IN_FLIGHT);
            }
            self.issue(stripe, lanes, at, sid);
        }
        for at in 0..lanes.len() {
            self.ack(stripe, lanes, at);
        }

        // Every ack is in: no connection owes anything from here on.
        self.acked.clear();
        for (at, lane) in lanes.iter().enumerate() {
            let mut failovers = 0usize;
            let sid = loop {
                match std::mem::replace(&mut self.puts[at], PutState::Unsent) {
                    PutState::Acked(sid) => break sid,
                    PutState::Failed(sid, e) => {
                        if is_transport(&e) {
                            self.declare_dead(sid);
                        } else if !matches!(e, NodeError::Remote(ErrCode::Io)) {
                            return Err(e);
                        }
                        failovers += 1;
                        if failovers > lock(&self.directory).server_count() {
                            return Err(e);
                        }
                    }
                    PutState::Unsent | PutState::Sent(_) => {}
                }
                let sid = lock(&self.directory).choose_replacement(stripe)?;
                self.issue(stripe, lanes, at, sid);
                self.ack(stripe, lanes, at);
            };
            if lane.placed != Some(sid) {
                lock(&self.directory).reassign(stripe, lane.lane, sid)?;
            }
            self.acked.push(sid);
        }
        Ok(&self.acked)
    }

    /// Sends the PUT of every lane in `range` whose ack `sid` owes, over
    /// its pooled connection (dialed if the slot is empty): the send
    /// half's one call site.
    fn send_owed(
        &mut self,
        stripe: u64,
        lanes: &[PutLane<'_>],
        sid: ServerId,
        range: Range<usize>,
    ) -> Result<()> {
        for at in range {
            if matches!(self.puts[at], PutState::Sent(s) if s == sid) {
                let lane = &lanes[at];
                self.conn(sid)?
                    .send_put(stripe, lane.lane, lane.digest, lane.payload)?;
            }
        }
        Ok(())
    }

    /// Issue half of a store: the PUT of lane `at` goes out on the
    /// pooled connection to `sid`. A stale connection owes again every
    /// lane before `at` it was sent and has not acknowledged.
    fn issue(&mut self, stripe: u64, lanes: &[PutLane<'_>], at: usize, sid: ServerId) {
        self.puts[at] = PutState::Sent(sid);
        let sent = match self.send_owed(stripe, lanes, sid, at..at + 1) {
            Err(e) if self.redial_on(sid, &e) => self.send_owed(stripe, lanes, sid, 0..at + 1),
            done => done,
        };
        if let Err(e) = sent {
            self.lane_failed(at, sid, e);
        }
    }

    /// Collect half of a store: the ack lane `at` is owed, if it still
    /// is. Lanes before `at` have been collected, every later one
    /// sent on the same connection is still owed.
    fn ack(&mut self, stripe: u64, lanes: &[PutLane<'_>], at: usize) {
        let PutState::Sent(sid) = self.puts[at] else {
            return;
        };
        let acked = loop {
            match self
                .conn(sid)
                .and_then(|conn| conn.recv_ack(stripe, lanes[at].lane))
            {
                Err(e) if self.redial_on(sid, &e) => {
                    if let Err(e) = self.send_owed(stripe, lanes, sid, at..lanes.len()) {
                        break Err(e);
                    }
                }
                done => break done,
            }
        };
        match acked {
            Ok(()) => self.puts[at] = PutState::Acked(sid),
            Err(e) => self.lane_failed(at, sid, e),
        }
    }

    /// Records that the connection to `sid` returned `e` for lane `at`.
    /// Unless `e` is the server's own `ERR` frame, the stream is out of
    /// step with its requests: the connection is closed, and every lane
    /// it still owed an ack has lost it.
    fn lane_failed(&mut self, at: usize, sid: ServerId, e: NodeError) {
        if !matches!(e, NodeError::Remote(_)) {
            self.drop_conn(sid);
            for state in &mut self.puts {
                if matches!(state, PutState::Sent(s) if *s == sid) {
                    *state = PutState::Failed(sid, NodeError::Disconnected);
                }
            }
        }
        self.puts[at] = PutState::Failed(sid, e);
    }

    /// Closes, without a verdict, every connection still owed an ack.
    fn close_owed(&mut self) {
        for at in 0..self.puts.len() {
            if let PutState::Sent(sid) = self.puts[at] {
                self.drop_conn(sid);
            }
        }
    }
}

/// Compile-once cache of [`RepairSession`]s keyed by failure pattern,
/// shared between degraded reads and the repair agent.
#[derive(Debug, Clone, Default)]
pub struct SessionCache {
    inner: Arc<Mutex<FastMap<Vec<usize>, Arc<RepairSession>>>>,
}

impl SessionCache {
    /// Returns the cached session for `unavailable` (sorted lane
    /// indices), compiling and caching on first sight. Never
    /// `Ok(None)`: every codec compiles sessions, and the `Option`
    /// outlives that only because the frozen `benchmark/` harness
    /// compiles against this signature.
    pub fn get_or_compile(
        &self,
        codec: &Codec,
        unavailable: &[usize],
    ) -> Result<Option<Arc<RepairSession>>> {
        let mut map = lock(&self.inner);
        if let Some(s) = map.get(unavailable) {
            return Ok(Some(Arc::clone(s)));
        }
        match codec.repair_session(unavailable) {
            None => Ok(None),
            Some(Ok(session)) => {
                let session = Arc::new(session);
                map.insert(unavailable.to_vec(), Arc::clone(&session));
                Ok(Some(session))
            }
            Some(Err(e)) => Err(e.into()),
        }
    }

    /// Number of compiled patterns.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Whether no pattern has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How a read was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// Straight from the chunk's server.
    Direct,
    /// Reconstructed from surviving lanes.
    Degraded {
        /// Whether the whole repair ran on the light (local-group)
        /// decoder.
        light: bool,
    },
}

/// Outcome accounting for a whole-file [`ClusterClient::get`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GetReport {
    /// Stripes read.
    pub stripes: u64,
    /// Stripes that needed the degraded path.
    pub degraded_stripes: u64,
}

/// A recycled stripe's worth of lane buffers plus their digests.
#[derive(Default)]
struct BufSet {
    lanes: Vec<Vec<u8>>,
    digests: Vec<u64>,
}

/// The cluster-facing client.
pub struct ClusterClient {
    io: StripeIo,
    /// The put pipeline's two buffer sets, kept between puts as the
    /// executor's lane scratch is: a set allocated, zero-filled and
    /// first touched per put cost more than the encode it was for. The
    /// encoder thread hands them back when its scope ends; an aborted
    /// put may lose one, which the next put makes anew.
    put_bufs: Vec<BufSet>,
}

impl ClusterClient {
    /// A client striping with `codec` at `chunk_bytes` per chunk.
    pub fn new(
        codec: Codec,
        chunk_bytes: usize,
        directory: Arc<Mutex<Directory>>,
        retry: RetryPolicy,
        sessions: SessionCache,
    ) -> Self {
        Self {
            io: StripeIo::new(codec, chunk_bytes, directory, retry, sessions),
            put_bufs: Vec::new(),
        }
    }

    /// The shared placement directory.
    pub fn directory(&self) -> &Arc<Mutex<Directory>> {
        &self.io.pool.directory
    }

    /// The shared repair-session cache.
    pub fn sessions(&self) -> &SessionCache {
        &self.io.sessions
    }

    /// The codec this client stripes with.
    pub fn codec(&self) -> &Codec {
        &self.io.codec
    }

    /// Registers a manifest's stripes with the directory (a fresh
    /// client reading a file it did not write). Fails with
    /// [`NodeError::ManifestMismatch`] when the manifest's geometry is
    /// not the one this client stripes with.
    pub fn register_manifest(&self, manifest: &Manifest) -> Result<()> {
        self.check_manifest(manifest)?;
        let mut dir = lock(&self.io.pool.directory);
        for entry in &manifest.stripes {
            dir.register_stripe(entry.id, entry.servers.clone());
        }
        Ok(())
    }

    /// A manifest is only readable by a client configured with the
    /// exact same code spec and chunk size: scratch sizing, degraded
    /// repair, and extraction geometry all assume they agree. Anything
    /// else would silently misread, so it is a typed error instead.
    fn check_manifest(&self, manifest: &Manifest) -> Result<()> {
        if manifest.spec != self.io.codec.spec() {
            return Err(NodeError::ManifestMismatch(
                "manifest code spec differs from the client's codec",
            ));
        }
        if manifest.chunk_bytes != self.io.chunk_bytes as u64 {
            return Err(NodeError::ManifestMismatch(
                "manifest chunk size differs from the client's",
            ));
        }
        Ok(())
    }

    /// Streams `data` into the cluster: stripes are encoded on a
    /// pipelined encoder thread while the previous stripe's chunks are
    /// on the wire. Returns the manifest needed to read it back.
    pub fn put(&mut self, data: &[u8]) -> Result<Manifest> {
        let mut manifest = Manifest {
            spec: self.io.codec.spec(),
            chunk_bytes: self.io.chunk_bytes as u64,
            file_len: data.len() as u64,
            stripes: Vec::new(),
        };
        self.put_stripes(data, &mut manifest.stripes)
            // Acknowledge durably: with a WAL-backed directory the
            // manifest is on disk before the caller sees Ok, so a
            // restarted cluster can hand the file back. (No-op for an
            // in-memory directory.)
            .and_then(|()| lock(&self.io.pool.directory).log_manifest(&manifest))
            // A put that is not acknowledged leaves no stripe behind,
            // whole or half-written: no manifest will ever name one, so
            // the repair agent would rebuild it for nobody, and a
            // restart (which keeps only placements a manifest
            // references) would disagree with the live directory.
            .inspect_err(|_| {
                let mut d = lock(&self.io.pool.directory);
                for entry in &manifest.stripes {
                    d.forget_stripe(entry.id);
                }
            })?;
        Ok(manifest)
    }

    /// The put pipeline: places, encodes and stores every stripe of
    /// `data`. A stripe is listed in `entries` from the moment it is
    /// placed, so on an error the caller knows every placement made.
    fn put_stripes(&mut self, data: &[u8], entries: &mut Vec<StripeEntry>) -> Result<()> {
        let spec = self.io.codec.spec();
        let k = spec.data_blocks();
        let n = spec.total_blocks();
        let cb = self.io.chunk_bytes;
        let stripe_payload = k * cb;
        let stripe_count = if data.is_empty() {
            0
        } else {
            data.len().div_ceil(stripe_payload)
        };
        entries.reserve(stripe_count);

        let (ready_tx, ready_rx) = mpsc::sync_channel::<Result<BufSet>>(2);
        let (free_tx, free_rx) = mpsc::sync_channel::<BufSet>(2);
        for _ in 0..2 {
            let _ = free_tx.send(self.put_bufs.pop().unwrap_or_default());
        }

        let codec = &self.io.codec;
        let pool = &mut self.io.pool;
        let put_bufs = &mut self.put_bufs;

        std::thread::scope(|s| {
            let encoder = s.spawn(move || {
                for stripe_idx in 0..stripe_count {
                    let Ok(mut set) = free_rx.recv() else { break };
                    let filled = fill_and_encode(codec, &mut set, data, stripe_idx, k, n, cb);
                    if ready_tx.send(filled.map(|()| set)).is_err() {
                        break;
                    }
                }
                free_rx
            });
            let mut run = || -> Result<()> {
                for _ in 0..stripe_count {
                    let set = match ready_rx.recv() {
                        Ok(Ok(set)) => set,
                        Ok(Err(e)) => return Err(e),
                        Err(_) => {
                            return Err(NodeError::Malformed("encoder pipeline closed early"))
                        }
                    };
                    if let Err(e) = place_and_store(pool, &set, entries) {
                        // Straight home, not through the encoder, which
                        // would fill it with a stripe nobody will store.
                        put_bufs.push(set);
                        return Err(e);
                    }
                    let _ = free_tx.send(set);
                }
                Ok(())
            };
            let out = run();
            // Unblock the encoder if we bailed early; it brings the
            // free sets back with it.
            drop(free_tx);
            let Ok(free_rx) = encoder.join() else {
                return Err(NodeError::Malformed("encoder thread panicked"));
            };
            put_bufs.extend(free_rx.try_iter());
            put_bufs.extend(ready_rx.try_iter().flatten());
            out
        })
    }

    /// Reads a whole file back, bit-identical, serving stripes through
    /// the degraded path whenever the direct one fails.
    pub fn get(&mut self, manifest: &Manifest, out: &mut Vec<u8>) -> Result<GetReport> {
        self.check_manifest(manifest)?;
        let k = manifest.spec.data_blocks();
        let cb = manifest.chunk_bytes as usize;
        out.clear();
        let mut remaining = manifest.file_len as usize;
        let mut report = GetReport::default();
        // Every data lane must hold fresh bytes after a degraded
        // stripe: a light repair plan only reads one local group, so
        // lanes outside it are explicit fetch targets.
        let targets: Vec<usize> = (0..k).collect();
        for entry in &manifest.stripes {
            report.stripes += 1;
            if self.io.fetch(entry.id, 0..k).is_err() {
                self.reconstruct_with_retry(entry.id, &targets)?;
                report.degraded_stripes += 1;
            }
            for lane in 0..k {
                if remaining == 0 {
                    break;
                }
                let take = remaining.min(cb);
                let chunk = self
                    .io
                    .lanes
                    .get(lane)
                    .ok_or(NodeError::Malformed("stripe scratch underfilled"))?;
                let bytes = chunk
                    .get(..take)
                    .ok_or(NodeError::Malformed("chunk shorter than manifest geometry"))?;
                out.extend_from_slice(bytes);
                remaining -= take;
            }
        }
        if remaining > 0 {
            return Err(NodeError::Malformed(
                "manifest stripes shorter than file_len",
            ));
        }
        Ok(report)
    }

    /// Reads one data chunk, reporting whether the direct or degraded
    /// path served it. This is the load generator's read op.
    pub fn read_data_chunk(
        &mut self,
        stripe: u64,
        lane: u32,
        out: &mut Vec<u8>,
    ) -> Result<ReadKind> {
        if self.io.read_chunk(stripe, lane, out).is_ok() {
            return Ok(ReadKind::Direct);
        }
        let light = self.reconstruct_with_retry(stripe, &[lane as usize])?;
        let chunk = self
            .io
            .lanes
            .get_mut(lane as usize)
            .ok_or(NodeError::Malformed("lane out of range after repair"))?;
        // The rebuilt lane leaves by swap, not by copy: the scratch
        // keeps whatever `out` held, and the next fetch or reconstruct
        // resizes every lane it touches anyway.
        std::mem::swap(out, chunk);
        Ok(ReadKind::Degraded { light })
    }

    /// The degraded path's retry loop around the shared executor's
    /// [`StripeIo::reconstruct`]. On `Ok`, every lane in `targets`
    /// holds fresh bytes in the executor's scratch; the value is whether
    /// the repair ran entirely on the light decoder.
    fn reconstruct_with_retry(&mut self, stripe: u64, targets: &[usize]) -> Result<bool> {
        let n = self.io.codec.total_blocks();
        let mut last_err = NodeError::Malformed("degraded read did not converge");
        // The failure pattern can grow while we fetch (another server
        // dies); every directory update feeds back into the next turn.
        // Later turns back off briefly: transient unavailability (a
        // restarting server, an injected stall) often clears within
        // one liveness-probe round, and spinning through every attempt
        // in microseconds would burn them all before it can.
        for attempt in 0..n + 2 {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(4 * (attempt as u64).min(10)));
            }
            match self.io.reconstruct(stripe, targets) {
                Ok((session, _fetched)) => return Ok(session.plan().is_light()),
                // The directory does not know the stripe, or the codec
                // cannot decode the pattern: fetching again changes
                // neither.
                Err(e @ (NodeError::UnknownStripe(_) | NodeError::Code(_))) => return Err(e),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }
}

/// Places one encoded stripe and stores its lanes, each with its placed
/// server as first choice. The stripe is listed in `entries` from the
/// moment it is placed; once stored, with the servers that acknowledged
/// its chunks.
fn place_and_store(
    pool: &mut ConnPool,
    set: &BufSet,
    entries: &mut Vec<StripeEntry>,
) -> Result<()> {
    // The placement is read under the lock that made it.
    let (id, servers) = {
        let mut d = lock(&pool.directory);
        let (id, placed) = d.place_stripe(set.lanes.len())?;
        (id, placed.to_vec())
    };
    let lanes: Vec<PutLane<'_>> = (0u32..)
        .zip(&servers)
        .zip(set.lanes.iter().zip(&set.digests))
        .map(|((lane, &sid), (payload, &digest))| PutLane {
            lane,
            placed: Some(sid),
            digest,
            payload,
        })
        .collect();
    entries.push(StripeEntry { id, servers });
    let acked = pool.store(id, &lanes)?;
    if let Some(entry) = entries.last_mut() {
        entry.servers.clear();
        entry.servers.extend_from_slice(acked);
    }
    Ok(())
}

/// Fills a buffer set with stripe `stripe_idx`'s data (zero-padded),
/// encodes the parity lanes, and digests every lane. Runs on the
/// encoder thread of [`ClusterClient::put`].
fn fill_and_encode(
    codec: &Codec,
    set: &mut BufSet,
    data: &[u8],
    stripe_idx: usize,
    k: usize,
    n: usize,
    chunk_bytes: usize,
) -> Result<()> {
    set.lanes.resize_with(n, Vec::new);
    set.digests.resize(n, 0);
    for lane in &mut set.lanes {
        lane.resize(chunk_bytes, 0);
    }
    let base = stripe_idx * k * chunk_bytes;
    for lane in 0..k {
        let start = (base + lane * chunk_bytes).min(data.len());
        let end = (base + (lane + 1) * chunk_bytes).min(data.len());
        let avail = end - start;
        let buf = set
            .lanes
            .get_mut(lane)
            .ok_or(NodeError::Malformed("lane buffer missing"))?;
        buf.get_mut(..avail)
            .ok_or(NodeError::Malformed("lane buffer too short"))?
            .copy_from_slice(&data[start..end]);
        if let Some(tail) = buf.get_mut(avail..) {
            tail.fill(0);
        }
    }
    let (data_lanes, parity_lanes) = set.lanes.split_at_mut(k);
    let data_refs: Vec<&[u8]> = data_lanes.iter().map(Vec::as_slice).collect();
    let mut parity_refs: Vec<&mut [u8]> = parity_lanes.iter_mut().map(Vec::as_mut_slice).collect();
    codec.encode_into(&data_refs, &mut parity_refs)?;
    for (lane, digest) in set.lanes.iter().zip(set.digests.iter_mut()) {
        *digest = chunk_digest(lane);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ChunkServer, ServerConfig};

    /// The write rule on a three-server roster whose server 0 is a
    /// closed port, under a WAL-backed directory: first one lane at a
    /// time, then an eight-lane stripe on a four-server roster, two
    /// PUTs in flight, then two lanes of one server, whose connection
    /// carries both PUTs at once.
    #[test]
    fn store_fails_over_after_a_refusal_and_logs_nothing_for_an_undisturbed_put() {
        let root = std::env::temp_dir().join(format!("xorbas_store_rule_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let live: Vec<ChunkServer> = (1..4)
            .map(|i| ChunkServer::start(ServerConfig::new(root.join(format!("srv{i}")))).unwrap())
            .collect();
        let closed = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let addrs = [closed, live[0].addr(), live[1].addr()];
        let wal = root.join("directory.wal");
        let wal_len = || std::fs::metadata(&wal).unwrap().len();
        let (dir, _) = Directory::open_persistent(&wal, &addrs, 3, 7).unwrap();
        let dir = Arc::new(Mutex::new(dir));
        let stripe = lock(&dir).place_stripe(3).unwrap().0;
        let assigned = lock(&dir).servers_of(stripe).unwrap().to_vec();
        let lane_on = |sid| assigned.iter().position(|&s| s == sid).unwrap() as u32;
        let mut pool = ConnPool::new(Arc::clone(&dir), RetryPolicy::default());
        let payload = vec![0x5Au8; 4096];
        let digest = chunk_digest(&payload);
        let one = |lane, sid| PutLane {
            lane,
            placed: Some(sid),
            digest,
            payload: &payload,
        };

        // The assigned, healthy server takes the chunk: the directory is
        // not touched, the WAL not appended to.
        let before = wal_len();
        let lane = lane_on(1);
        assert_eq!(pool.store(stripe, &[one(lane, 1)]).unwrap(), [1]);
        assert_eq!(wal_len(), before);
        assert_eq!(lock(&dir).servers_of(stripe).unwrap(), assigned);

        // The first choice refuses the dial: dead, and the lane moves to
        // a live server, which holds the chunk before the directory says so.
        let lane = lane_on(0);
        let moved_to = pool.store(stripe, &[one(lane, 0)]).unwrap()[0];
        assert_ne!(moved_to, 0);
        assert!(!lock(&dir).is_alive(0));
        assert_eq!(lock(&dir).alive_count(), 2);
        assert_eq!(
            lock(&dir).servers_of(stripe).unwrap()[lane as usize],
            moved_to
        );
        assert!(wal_len() > before, "the move is one WAL record");
        let reassign_record = wal_len() - before;
        let mut out = Vec::new();
        let conn = pool.conn(moved_to).unwrap();
        assert_eq!(conn.get_chunk(stripe, lane, &mut out).unwrap(), digest);
        assert_eq!(out, payload);

        // Eight lanes over three live servers and the closed port, which
        // holds two neighbouring lanes: both in flight when it refuses.
        let addrs = [closed, live[0].addr(), live[1].addr(), live[2].addr()];
        let wal = root.join("directory8.wal");
        let wal_len = || std::fs::metadata(&wal).unwrap().len();
        let (dir, _) = Directory::open_persistent(&wal, &addrs, 4, 7).unwrap();
        let dir = Arc::new(Mutex::new(dir));
        let stripe = lock(&dir).place_stripe(8).unwrap().0;
        let assigned = lock(&dir).servers_of(stripe).unwrap().to_vec();
        let on_closed = assigned.iter().filter(|&&sid| sid == 0).count();
        assert_eq!(on_closed, 2, "{assigned:?}");
        assert!(assigned.windows(2).any(|w| w == [0, 0]), "{assigned:?}");
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|lane| vec![lane; 4096]).collect();
        let lanes: Vec<PutLane<'_>> = (0u32..)
            .zip(&assigned)
            .zip(&payloads)
            .map(|((lane, &sid), payload)| PutLane {
                lane,
                placed: Some(sid),
                digest: chunk_digest(payload),
                payload,
            })
            .collect();
        let mut pool = ConnPool::new(Arc::clone(&dir), RetryPolicy::default());
        let before = wal_len();
        let stored = pool.store(stripe, &lanes).unwrap().to_vec();

        // The lanes of the closed port moved, each with one REASSIGN
        // record; every other lane stayed where it was placed and logged
        // nothing.
        for (lane, (&to, &from)) in stored.iter().zip(&assigned).enumerate() {
            assert_eq!(to != from, from == 0, "lane {lane}: {from} -> {to}");
            assert_ne!(to, 0);
        }
        assert_eq!(wal_len() - before, on_closed as u64 * reassign_record);
        assert_eq!(lock(&dir).servers_of(stripe).unwrap(), stored);
        assert!(!lock(&dir).is_alive(0));
        assert_eq!(lock(&dir).alive_count(), 3);
        for (lane, &sid) in (0u32..).zip(&stored) {
            pool.conn(sid)
                .unwrap()
                .get_chunk(stripe, lane, &mut out)
                .unwrap();
            assert_eq!(out, payloads[lane as usize], "lane {lane} on server {sid}");
        }

        // Two lanes of one live server, as the seam between two rounds
        // of best-effort placement can deal them: both PUTs are on its
        // connection before either ack is read, each ack goes to its own
        // lane, and nothing is logged. (New bytes, so the read-back shows
        // this store's chunks and not the last one's.)
        let sid = stored[0];
        let twin = 1 + stored[1..].iter().position(|&s| s == sid).unwrap();
        let fresh = [vec![0xA0u8; 4096], vec![0xA1u8; 4096]];
        let pair: Vec<PutLane<'_>> = [0, twin]
            .iter()
            .zip(&fresh)
            .map(|(&lane, payload)| PutLane {
                lane: lane as u32,
                placed: Some(sid),
                digest: chunk_digest(payload),
                payload,
            })
            .collect();
        let before = wal_len();
        assert_eq!(pool.store(stripe, &pair).unwrap(), [sid, sid]);
        assert_eq!(wal_len(), before);
        for (&lane, payload) in [0, twin].iter().zip(&fresh) {
            pool.conn(sid)
                .unwrap()
                .get_chunk(stripe, lane as u32, &mut out)
                .unwrap();
            assert_eq!(&out, payload, "lane {lane} on server {sid}");
        }

        for server in live {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
