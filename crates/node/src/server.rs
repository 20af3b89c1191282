//! The chunk-server daemon: a TCP accept loop, one handler thread per
//! connection (capped), and an abrupt kill switch for failure drills.
//!
//! Built on blocking `std::net` sockets with short read timeouts: the
//! accept loop polls a stop flag between non-blocking accepts, and
//! every handler polls the same flag whenever its socket read times
//! out, so both [`ChunkServer::shutdown`] (graceful: drain, then join)
//! and [`ChunkServer::kill`] (abrupt: stop answering mid-request, drop
//! the listener) converge within one poll interval. `kill` is the
//! load generator's failure injection — from the client's point of
//! view it is indistinguishable from a machine going dark.
//!
//! Concurrency is bounded by a counting gate (mutex + condvar) sized
//! by [`ServerConfig::max_conn_threads`], mirroring how a DataNode caps
//! its transceiver threads.

use crate::chunk_store::ChunkStore;
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use crate::lock;
use crate::protocol::{
    write_bare, write_chunk, write_err, ErrCode, Frame, FrameReader, ReadEnd, OP_OK,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a chunk server is configured.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory the chunk files live in (created if absent).
    pub data_dir: PathBuf,
    /// Cap on concurrent connection-handler threads (default 8).
    pub max_conn_threads: usize,
    /// Socket read timeout; also the granularity at which handlers and
    /// the accept loop notice a stop request.
    pub poll_interval: Duration,
}

impl ServerConfig {
    /// A config storing chunks under `data_dir` with the defaults: 8
    /// handler threads, a 10 ms poll interval.
    pub fn new(data_dir: PathBuf) -> Self {
        Self {
            data_dir,
            max_conn_threads: 8,
            poll_interval: Duration::from_millis(10),
        }
    }
}

/// Counting gate bounding concurrent handler threads.
#[derive(Debug)]
struct ConnGate {
    active: Mutex<usize>,
    freed: Condvar,
    cap: usize,
}

impl ConnGate {
    fn acquire(&self) {
        let mut n = lock(&self.active);
        while *n >= self.cap {
            n = self.freed.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n += 1;
    }

    fn release(&self) {
        let mut n = lock(&self.active);
        *n = n.saturating_sub(1);
        drop(n);
        self.freed.notify_all();
    }

    fn wait_idle(&self, poll: Duration) {
        let mut n = lock(&self.active);
        while *n > 0 {
            let (guard, _) = self
                .freed
                .wait_timeout(n, poll)
                .unwrap_or_else(PoisonError::into_inner);
            n = guard;
        }
    }
}

/// A running chunk server.
#[derive(Debug)]
pub struct ChunkServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    gate: Arc<ConnGate>,
    accept_handle: Option<JoinHandle<()>>,
    poll_interval: Duration,
    data_dir: PathBuf,
}

impl ChunkServer {
    /// Binds an ephemeral loopback port and starts serving.
    pub fn start(cfg: ServerConfig) -> Result<ChunkServer> {
        let store = Arc::new(ChunkStore::open(&cfg.data_dir)?);
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(ConnGate {
            active: Mutex::new(0),
            freed: Condvar::new(),
            cap: cfg.max_conn_threads.max(1),
        });

        let accept_stop = Arc::clone(&stop);
        let accept_gate = Arc::clone(&gate);
        let poll = cfg.poll_interval;
        let accept_handle = std::thread::Builder::new()
            .name(format!("xorbas-accept-{}", addr.port()))
            .spawn(move || {
                accept_loop(listener, store, accept_stop, accept_gate, poll);
            })?;

        Ok(ChunkServer {
            addr,
            stop,
            gate,
            accept_handle: Some(accept_handle),
            poll_interval: cfg.poll_interval,
            data_dir: cfg.data_dir,
        })
    }

    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The chunk directory this server stores into.
    pub fn data_dir(&self) -> &PathBuf {
        &self.data_dir
    }

    /// Abrupt failure injection: stop accepting, stop answering, drop
    /// in-flight requests. The process keeps running; the server is
    /// simply gone from the network within one poll interval.
    pub fn kill(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether [`ChunkServer::kill`] (or shutdown) has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Graceful stop: raise the flag, join the accept loop, wait for
    /// handler threads to drain.
    pub fn shutdown(mut self) {
        self.stop_and_join();
        self.gate.wait_idle(self.poll_interval);
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChunkServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    store: Arc<ChunkStore>,
    stop: Arc<AtomicBool>,
    gate: Arc<ConnGate>,
    poll: Duration,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                gate.acquire();
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let gate2 = Arc::clone(&gate);
                let spawned = std::thread::Builder::new()
                    .name("xorbas-conn".into())
                    .spawn(move || {
                        let _ = handle_conn(stream, &store, &stop, poll);
                        gate2.release();
                    });
                if spawned.is_err() {
                    // Spawn failure: give the slot back and drop the
                    // connection (the client will retry).
                    gate.release();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(poll.min(Duration::from_millis(1)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Dropping the listener here closes the port: subsequent connects
    // are refused, which the client maps to a dead server.
}

/// Serves one connection until the peer hangs up, a protocol error
/// desynchronizes the stream, or the stop flag is raised.
fn handle_conn(
    stream: TcpStream,
    store: &ChunkStore,
    stop: &AtomicBool,
    poll: Duration,
) -> Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(poll))?;
    let mut rd = &stream;
    let mut wr = &stream;
    let mut reader = FrameReader::new();
    let mut chunk_buf: Vec<u8> = Vec::new();
    loop {
        let frame = match reader.read(&mut rd, Some(stop)) {
            Ok(Ok(frame)) => frame,
            Ok(Err(ReadEnd::CleanEof | ReadEnd::Stopped | ReadEnd::Disconnected)) => return Ok(()),
            Err(NodeError::FrameTooLarge { .. }) => {
                // The rest of the oversized body is unread, so the
                // stream is desynchronized: report and close.
                let _ = write_err(&mut wr, ErrCode::TooLarge);
                return Ok(());
            }
            Err(NodeError::Malformed(_)) => {
                let _ = write_err(&mut wr, ErrCode::Malformed);
                return Ok(());
            }
            Err(_) => return Ok(()),
        };
        if stop.load(Ordering::SeqCst) {
            // Killed mid-stream: go dark without a reply, like a
            // machine losing power.
            return Ok(());
        }
        // xlint::hot-path(serve-read) begin
        // The steady-state request loop: every arm reuses `chunk_buf`
        // and the reader's scratch; nothing here may allocate.
        match frame {
            Frame::Get { stripe, lane } => match store.get_into(stripe, lane, &mut chunk_buf) {
                Ok(digest) => write_chunk(&mut wr, digest, &chunk_buf)?,
                Err(NodeError::ChunkNotFound { .. }) => write_err(&mut wr, ErrCode::NotFound)?,
                Err(NodeError::ChunkCorrupt { .. }) => write_err(&mut wr, ErrCode::Corrupt)?,
                Err(_) => write_err(&mut wr, ErrCode::Io)?,
            },
            Frame::Put {
                stripe,
                lane,
                digest,
                payload,
            } => match store.put(stripe, lane, digest, payload) {
                Ok(()) => {
                    // Fault site: the ack dawdles, modeling a server
                    // whose disk sync or NIC is briefly wedged. The
                    // client's per-op deadline decides what to do.
                    fault::maybe_stall(Site::ServeStall);
                    write_bare(&mut wr, OP_OK)?
                }
                Err(NodeError::FrameTooLarge { .. }) => write_err(&mut wr, ErrCode::TooLarge)?,
                Err(_) => write_err(&mut wr, ErrCode::Io)?,
            },
            Frame::Delete { stripe, lane } => match store.delete(stripe, lane) {
                Ok(_) => write_bare(&mut wr, OP_OK)?,
                Err(_) => write_err(&mut wr, ErrCode::Io)?,
            },
            Frame::Ping => write_bare(&mut wr, OP_OK)?,
            // Response opcodes arriving on the request side are a
            // protocol violation.
            Frame::Ok | Frame::Chunk { .. } | Frame::Err { .. } => {
                write_err(&mut wr, ErrCode::Malformed)?;
                return Ok(());
            }
        }
        // xlint::hot-path(serve-read) end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{chunk_digest, write_locator, write_put, OP_GET};
    use std::io::Write as _;
    use std::sync::atomic::AtomicU64;

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xorbas_srv_{tag}_{}_{n}", std::process::id()))
    }

    fn start(tag: &str) -> (ChunkServer, PathBuf) {
        let dir = scratch_dir(tag);
        let srv = ChunkServer::start(ServerConfig::new(dir.clone())).unwrap();
        (srv, dir)
    }

    fn read_reply(stream: &TcpStream) -> Frame<'static> {
        // Own the bytes so the borrow checker lets us return the frame.
        let mut reader = FrameReader::new();
        let mut rd = stream;
        match reader.read(&mut rd, None).unwrap().unwrap() {
            Frame::Ok => Frame::Ok,
            Frame::Err { code } => Frame::Err { code },
            Frame::Chunk { digest, payload } => Frame::Chunk {
                digest,
                payload: Box::leak(payload.to_vec().into_boxed_slice()),
            },
            other => panic!("unexpected reply shape: {other:?}"),
        }
    }

    #[test]
    fn put_then_get_over_the_wire() {
        let (srv, dir) = start("putget");
        let stream = TcpStream::connect(srv.addr()).unwrap();
        let payload = vec![0xC3u8; 2048];
        let digest = chunk_digest(&payload);

        let mut wr = &stream;
        write_put(&mut wr, 11, 4, digest, &payload).unwrap();
        assert_eq!(read_reply(&stream), Frame::Ok);

        write_locator(&mut wr, OP_GET, 11, 4).unwrap();
        match read_reply(&stream) {
            Frame::Chunk {
                digest: d,
                payload: p,
            } => {
                assert_eq!(d, digest);
                assert_eq!(p, &payload[..]);
            }
            other => panic!("expected chunk, got {other:?}"),
        }

        write_locator(&mut wr, OP_GET, 99, 0).unwrap();
        assert_eq!(
            read_reply(&stream),
            Frame::Err {
                code: ErrCode::NotFound
            }
        );

        srv.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_frame_gets_typed_refusal() {
        let (srv, dir) = start("oversize");
        let stream = TcpStream::connect(srv.addr()).unwrap();
        let mut wr = &stream;
        // Announce a 1 GiB body without sending it.
        wr.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        wr.flush().unwrap();
        assert_eq!(
            read_reply(&stream),
            Frame::Err {
                code: ErrCode::TooLarge
            }
        );
        srv.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_server_goes_dark_and_refuses_connects() {
        let (srv, dir) = start("kill");
        let addr = srv.addr();
        {
            let stream = TcpStream::connect(addr).unwrap();
            let mut wr = &stream;
            write_bare(&mut wr, crate::protocol::OP_PING).unwrap();
            assert_eq!(read_reply(&stream), Frame::Ok);

            srv.kill();
            // Give the accept loop a poll interval to notice.
            std::thread::sleep(Duration::from_millis(60));

            // The open connection goes silent: either EOF (clean close)
            // or a read timeout — never a successful reply. The write
            // itself may already fail (EPIPE) if the handler closed
            // first; that counts as dark too.
            let _ = write_bare(&mut wr, crate::protocol::OP_PING);
            stream
                .set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            let mut reader = FrameReader::new();
            let mut rd = &stream;
            match reader.read(&mut rd, None) {
                Ok(Err(ReadEnd::CleanEof)) | Err(_) => {}
                other => panic!("killed server still replied: {other:?}"),
            }
        }
        // New connections are refused once the listener is gone.
        std::thread::sleep(Duration::from_millis(30));
        assert!(TcpStream::connect(addr).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
