//! The chunk-server daemon: one blocking accept loop, a fixed pool of
//! parked handler threads, and an abrupt kill switch for failure drills.
//!
//! Built on blocking `std::net` sockets, and nothing in it polls. The
//! accept loop blocks in `accept` and hands each connection to a queue;
//! [`ServerConfig::max_conn_threads`] handler threads, spawned at start
//! and parked on that queue while idle, take one connection at a time
//! and serve it until the peer hangs up — the cap on concurrent
//! connections, mirroring how a DataNode caps its transceiver threads.
//! Connections beyond the cap wait in the queue. A handler keeps its
//! frame reader and its stream buffer from connection to connection.
//!
//! Every accepted socket is registered (a clone of it) until its handler
//! lets go. [`ChunkServer::kill`] raises the stop flag, shuts every
//! registered socket down in both directions and wakes the accept loop
//! with a connect of its own, after which the listener is dropped: the
//! server is gone from the network when `kill` returns — a handler
//! mid-request fails its next write, an idle pooled connection reads
//! EOF, a new connect is refused — indistinguishable, to a client, from
//! a machine going dark. It is the chaos tests' failure injection.
//! [`ChunkServer::shutdown`] (and `Drop`) do the same and then join
//! every thread.
//!
//! A GET streams the chunk file behind its stored digest through the
//! handler's 256 KiB buffer, unhashed. The client digests each piece of
//! the reply as it lands and compares that with the stored digest: the
//! one check end to end (see [`crate::chunk_store`] for the check at
//! rest).

use crate::chunk_store::ChunkStore;
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use crate::lock;
use crate::protocol::{
    write_bare, write_chunk, write_err, ErrCode, Frame, FrameReader, ReadEnd, OP_OK,
};
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a chunk server is configured.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory the chunk files live in (created if absent).
    pub data_dir: PathBuf,
    /// Handler threads, and so connections served at once (default 8).
    pub max_conn_threads: usize,
    /// Not read: the server no longer polls. It stays only because the
    /// frozen `benchmark/` sets it, and goes with that harness's next
    /// refresh (ROADMAP item 1(1)).
    pub poll_interval: Duration,
}

impl ServerConfig {
    /// A config storing chunks under `data_dir` with 8 handler threads.
    pub fn new(data_dir: PathBuf) -> Self {
        Self {
            data_dir,
            max_conn_threads: 8,
            poll_interval: Duration::from_millis(10),
        }
    }
}

/// The handler's stream buffer: a GET's payload goes from the file to
/// the socket through it, one piece at a time, four pieces to a 1 MiB
/// chunk and each well inside L2. Against 64 KiB, six traced `read_mix`
/// rounds on a 2-vCPU Xeon took `wire.get_chunk_us` from 321 to 276 µs
/// (scaled to the host's nominal speed), with the client digesting as
/// the bytes land in both.
const STREAM_BUF: usize = 256 << 10;

/// How long `accept` rests after an error that says the process or host
/// is out of something, before it tries again.
const ACCEPT_PAUSE: Duration = Duration::from_millis(10);

/// A connection on its way to a handler, numbered for the registry.
type Accepted = (u64, TcpStream);

/// What the accept loop and every handler share.
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    /// A clone of every accepted socket its handler has not yet let go
    /// of: what `kill` shuts down.
    live: Mutex<Vec<Accepted>>,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running chunk server.
#[derive(Debug)]
pub struct ChunkServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Taken and joined by the first of `kill`, `shutdown` and `Drop`.
    accept: Mutex<Option<JoinHandle<()>>>,
    handlers: Vec<JoinHandle<()>>,
    data_dir: PathBuf,
}

impl ChunkServer {
    /// Binds an ephemeral loopback port and starts serving.
    pub fn start(cfg: ServerConfig) -> Result<ChunkServer> {
        let store = Arc::new(ChunkStore::open(&cfg.data_dir)?);
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            live: Mutex::new(Vec::new()),
        });
        let (queue_tx, queue_rx) = mpsc::channel::<Accepted>();
        let queue_rx = Arc::new(Mutex::new(queue_rx));

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(format!("xorbas-accept-{}", addr.port()))
            .spawn(move || accept_loop(&listener, &accept_shared, &queue_tx))?;
        // From here on a failed spawn drops `server`, whose `Drop` stops
        // and joins what did start.
        let mut server = ChunkServer {
            addr,
            shared,
            accept: Mutex::new(Some(accept)),
            handlers: Vec::new(),
            data_dir: cfg.data_dir,
        };
        for _ in 0..cfg.max_conn_threads.max(1) {
            let (shared, queue, store) = (
                Arc::clone(&server.shared),
                Arc::clone(&queue_rx),
                Arc::clone(&store),
            );
            let handler = std::thread::Builder::new()
                .name(format!("xorbas-conn-{}", addr.port()))
                .spawn(move || handler_loop(&shared, &queue, &store))?;
            server.handlers.push(handler);
        }
        Ok(server)
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
    /// gone from the network when this returns (see the module docs).
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Under the registry lock, which the accept loop also takes to
        // register: a connection it accepted as the flag went up is
        // either registered already, and shut down here, or sees the
        // flag and is dropped there.
        for (_, stream) in lock(&self.shared.live).iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(accept) = lock(&self.accept).take() {
            // Wake the blocking `accept`, which then sees the flag and
            // returns, dropping the listener: connects are refused from
            // here on.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = accept.join();
        }
    }

    /// Stop: [`ChunkServer::kill`], then join every handler thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ChunkServer {
    fn drop(&mut self) {
        self.kill();
        // With the accept loop gone the queue's sender is dropped, and a
        // handler that finds the queue empty and closed exits.
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

/// What the accept loop does after `accept` fails: nothing but the stop
/// flag ends it, or one bad connection — or a brief shortage of file
/// descriptors — would leave a server whose handlers still serve its
/// pooled connections but that refuses every new one.
#[derive(Debug, PartialEq, Eq)]
enum AfterAcceptError {
    /// The error belonged to one connection (reset or aborted before it
    /// was accepted, a signal): accept the next at once.
    Retry,
    /// Anything else, such as a full descriptor table: retrying at once
    /// would spin, so rest [`ACCEPT_PAUSE`] first.
    Pause,
}

fn after_accept_error(kind: ErrorKind) -> AfterAcceptError {
    match kind {
        ErrorKind::ConnectionAborted
        | ErrorKind::ConnectionReset
        | ErrorKind::Interrupted
        | ErrorKind::WouldBlock
        | ErrorKind::TimedOut => AfterAcceptError::Retry,
        _ => AfterAcceptError::Pause,
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, queue: &mpsc::Sender<Accepted>) {
    let mut next_id = 0u64;
    while !shared.stopped() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => {
                if after_accept_error(e.kind()) == AfterAcceptError::Pause {
                    std::thread::sleep(ACCEPT_PAUSE);
                }
                continue;
            }
        };
        // Without a registered clone `kill` could not reach it; drop it
        // and let the client retry.
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let id = next_id;
        next_id += 1;
        {
            let mut live = lock(&shared.live);
            if shared.stopped() {
                break;
            }
            live.push((id, clone));
        }
        if queue.send((id, stream)).is_err() {
            // No handler is left to take it.
            forget(shared, id);
        }
    }
    // Returning drops the listener, which closes the port, and the
    // queue's sender, which lets idle handlers exit.
}

/// Drops the registry's clone of connection `id`.
fn forget(shared: &Shared, id: u64) {
    lock(&shared.live).retain(|&(n, _)| n != id);
}

/// One handler thread: takes connections off the queue, one at a time,
/// until the queue is closed and empty. A connection still queued when
/// the stop flag goes up is closed unserved.
fn handler_loop(shared: &Shared, queue: &Mutex<mpsc::Receiver<Accepted>>, store: &ChunkStore) {
    let mut reader = FrameReader::new();
    let mut buf = vec![0u8; STREAM_BUF];
    loop {
        let next = lock(queue).recv();
        let Ok((id, stream)) = next else {
            return;
        };
        if !shared.stopped() {
            let _ = serve(&stream, store, shared, &mut reader, &mut buf);
        }
        // With the clone gone, dropping `stream` closes the socket.
        forget(shared, id);
    }
}

/// Serves one connection until the peer hangs up, a protocol error
/// desynchronizes the stream, or the server is killed.
fn serve(
    stream: &TcpStream,
    store: &ChunkStore,
    shared: &Shared,
    reader: &mut FrameReader,
    buf: &mut [u8],
) -> Result<()> {
    stream.set_nodelay(true)?;
    let mut rd = stream;
    let mut wr = stream;
    loop {
        let frame = match reader.read(&mut rd, None) {
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
        if shared.stopped() {
            // Killed mid-stream: go dark without a reply, like a
            // machine losing power.
            return Ok(());
        }
        // The steady-state request loop: every arm reuses `buf` and the
        // reader's scratch. What a request still allocates (the chunk
        // file's path) is pinned by `tests/alloc_budgets.rs`.
        match frame {
            Frame::Get { stripe, lane } => match store.open_chunk(stripe, lane) {
                Ok(mut chunk) => {
                    write_chunk(&mut wr, chunk.digest, chunk.len, &mut chunk.file, buf)?
                }
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
            Frame::Ok | Frame::Chunk { .. } | Frame::Err { .. } | Frame::Landed { .. } => {
                write_err(&mut wr, ErrCode::Malformed)?;
                return Ok(());
            }
        }
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

    fn ping(stream: &TcpStream) -> Frame<'static> {
        write_bare(&mut &*stream, crate::protocol::OP_PING).unwrap();
        read_reply(stream)
    }

    /// What a client reads from a connection the server has dropped:
    /// never a frame.
    fn assert_dark(stream: &TcpStream) {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        match FrameReader::new().read(&mut &*stream, None) {
            Ok(Err(ReadEnd::CleanEof | ReadEnd::Disconnected)) => {}
            Err(NodeError::Io(e)) if e.kind() != ErrorKind::WouldBlock => {}
            other => panic!("a dropped connection answered: {other:?}"),
        }
    }

    #[test]
    fn accept_errors_never_end_the_loop() {
        use AfterAcceptError::{Pause, Retry};
        // One connection's trouble: the next accept goes ahead at once.
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
        ] {
            assert_eq!(after_accept_error(kind), Retry, "{kind:?}");
        }
        // Out of descriptors (EMFILE, ENFILE) or memory: rest, then go on.
        for kind in [
            std::io::Error::from_raw_os_error(24).kind(),
            std::io::Error::from_raw_os_error(23).kind(),
            ErrorKind::OutOfMemory,
            ErrorKind::Other,
        ] {
            assert_eq!(after_accept_error(kind), Pause, "{kind:?}");
        }
    }

    /// `shutdown` needs no client to hang up and no poll to come round:
    /// the one handler sits on an idle pooled connection and a second
    /// connection waits in the queue behind it, unserved.
    #[test]
    fn shutdown_is_prompt_past_an_idle_connection_and_a_queued_one() {
        let dir = scratch_dir("prompt");
        let mut cfg = ServerConfig::new(dir.clone());
        cfg.max_conn_threads = 1;
        let srv = ChunkServer::start(cfg).unwrap();
        let idle = TcpStream::connect(srv.addr()).unwrap();
        assert_eq!(ping(&idle), Frame::Ok);
        let queued = TcpStream::connect(srv.addr()).unwrap();
        write_bare(&mut &queued, crate::protocol::OP_PING).unwrap();
        queued
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut byte = [0u8; 1];
        let unanswered = std::io::Read::read(&mut &queued, &mut byte).unwrap_err();
        assert_eq!(unanswered.kind(), ErrorKind::WouldBlock);

        let started = std::time::Instant::now();
        srv.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
        assert_dark(&idle);
        assert_dark(&queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn after_kill_an_idle_connection_reads_eof_and_connects_are_refused() {
        let (srv, dir) = start("killidle");
        let idle = TcpStream::connect(srv.addr()).unwrap();
        assert_eq!(ping(&idle), Frame::Ok);
        srv.kill();
        idle.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert!(matches!(
            FrameReader::new().read(&mut &idle, None).unwrap(),
            Err(ReadEnd::CleanEof)
        ));
        assert!(TcpStream::connect(srv.addr()).is_err());
        drop(srv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A chunk file whose header or length is wrong is refused with
    /// `ERR Corrupt` before a payload byte is sent — the connection stays
    /// in step, so the next request on it is answered. A file that is
    /// whole but rotten is streamed whole, behind the digest it was
    /// stored with, for the reader to catch.
    #[test]
    fn a_damaged_chunk_file_is_refused_and_a_rotten_one_is_sent_whole() {
        let (srv, dir) = start("damaged");
        let store = ChunkStore::open(&dir).unwrap();
        let stream = TcpStream::connect(srv.addr()).unwrap();
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 31) as u8).collect();
        let digest = chunk_digest(&payload);
        for lane in 0..4 {
            write_put(&mut &stream, 1, lane, digest, &payload).unwrap();
            assert_eq!(read_reply(&stream), Frame::Ok);
        }
        let edit = |lane, f: fn(&mut Vec<u8>)| {
            let path = store.chunk_path(1, lane);
            let mut bytes = std::fs::read(&path).unwrap();
            f(&mut bytes);
            std::fs::write(&path, bytes).unwrap();
        };
        edit(0, |b| b.truncate(b.len() - 1));
        edit(1, |b| b.push(0));
        edit(2, |b| b[0] ^= 1);
        edit(3, |b| *b.last_mut().unwrap() ^= 1);

        for lane in 0..3 {
            write_locator(&mut &stream, OP_GET, 1, lane).unwrap();
            assert_eq!(
                read_reply(&stream),
                Frame::Err {
                    code: ErrCode::Corrupt
                },
                "lane {lane}"
            );
        }
        write_locator(&mut &stream, OP_GET, 1, 3).unwrap();
        match read_reply(&stream) {
            Frame::Chunk {
                digest: d,
                payload: p,
            } => {
                assert_eq!(d, digest);
                assert_eq!(p.len(), payload.len());
                assert_ne!(chunk_digest(p), digest);
            }
            other => panic!("expected the rotten chunk whole, got {other:?}"),
        }
        assert_eq!(ping(&stream), Frame::Ok);
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
