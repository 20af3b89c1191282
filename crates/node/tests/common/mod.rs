//! The loopback cluster every node integration test boots: chunk
//! servers over per-server data dirs under one temp root, a directory
//! (in memory, or WAL-backed for the restart tests), a shared session
//! cache, and the client / agent constructors over them.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use xorbas_core::{CodeSpec, Codec};
use xorbas_node::client::SessionCache;
use xorbas_node::{
    ChunkServer, ClusterClient, Directory, Manifest, RepairAgent, RepairAgentConfig,
    RepairStatsSnapshot, RetryPolicy, ScrubConfig, ServerConfig,
};

pub const CHUNK: usize = 64 * 1024;

/// Seed of every cluster's placement policy.
const PLACEMENT_SEED: u64 = 7;

/// Position-dependent filler. The shift matters: `>> 7` would make the
/// byte a function of the offset *within* its 64 KiB chunk only (the
/// chunk-index term is `c · 512 · M ≡ 0 mod 256`), i.e. every chunk
/// identical and a stale-lane bug invisible; `>> 16` keeps an odd
/// multiple of the chunk index in the low byte, so no two chunks match.
pub fn test_file(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(2654435761) >> 16) as u8)
        .collect()
}

/// The agent's counters once they show `chunks` repaired. The directory
/// converges an instant before the worker that converged it counts the
/// stripe, so stats read straight after `wait_until_repaired` can miss
/// the last one.
pub fn settled_stats(agent: &RepairAgent, chunks: u64) -> RepairStatsSnapshot {
    let settle = Instant::now() + Duration::from_secs(5);
    while agent.stats().chunks_repaired < chunks && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(5));
    }
    agent.stats()
}

pub struct Cluster {
    root: PathBuf,
    /// Indexed by server id.
    pub servers: Vec<ChunkServer>,
    pub directory: Arc<Mutex<Directory>>,
    pub sessions: SessionCache,
}

impl Cluster {
    /// `n` servers, one rack each, behind an in-memory directory.
    pub fn boot(n: usize, tag: &str) -> Self {
        let (root, servers) = Self::start_servers(n, tag);
        let addrs: Vec<SocketAddr> = servers.iter().map(ChunkServer::addr).collect();
        Self {
            root,
            servers,
            directory: Arc::new(Mutex::new(Directory::new(&addrs, n, PLACEMENT_SEED))),
            sessions: SessionCache::default(),
        }
    }

    /// Like [`Cluster::boot`], behind a directory logging to a fresh WAL
    /// under the cluster's root.
    pub fn boot_persistent(n: usize, tag: &str) -> Self {
        let (root, servers) = Self::start_servers(n, tag);
        let (cluster, prior) = Self::open_wal(root, servers);
        assert!(prior.is_empty(), "fresh WAL must replay nothing");
        cluster
    }

    /// The coordinator dies with no orderly handoff and comes back: the
    /// directory and the session cache are dropped, then the WAL is
    /// replayed against the servers' current addresses. Returns the
    /// manifests it had acknowledged.
    pub fn restart_coordinator(self) -> (Self, Vec<Manifest>) {
        let Self {
            root,
            servers,
            directory,
            sessions,
        } = self;
        drop((directory, sessions));
        Self::open_wal(root, servers)
    }

    fn start_servers(n: usize, tag: &str) -> (PathBuf, Vec<ChunkServer>) {
        let root = std::env::temp_dir().join(format!("xorbas_it_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let servers = (0..n)
            .map(|i| ChunkServer::start(ServerConfig::new(root.join(format!("srv{i}")))).unwrap())
            .collect();
        (root, servers)
    }

    fn open_wal(root: PathBuf, servers: Vec<ChunkServer>) -> (Self, Vec<Manifest>) {
        let addrs: Vec<SocketAddr> = servers.iter().map(ChunkServer::addr).collect();
        let (dir, manifests) = Directory::open_persistent(
            &root.join("directory.wal"),
            &addrs,
            servers.len(),
            PLACEMENT_SEED,
        )
        .unwrap();
        let cluster = Self {
            root,
            servers,
            directory: Arc::new(Mutex::new(dir)),
            sessions: SessionCache::default(),
        };
        (cluster, manifests)
    }

    /// A second in-memory directory over the same roster and seed as a
    /// freshly booted cluster's: it makes the placement decisions the
    /// cluster's own directory will make, in the same order.
    pub fn shadow_directory(&self) -> Directory {
        let addrs: Vec<SocketAddr> = self.servers.iter().map(ChunkServer::addr).collect();
        Directory::new(&addrs, self.servers.len(), PLACEMENT_SEED)
    }

    pub fn client(&self, spec: CodeSpec) -> ClusterClient {
        ClusterClient::new(
            Codec::build(spec).unwrap(),
            CHUNK,
            Arc::clone(&self.directory),
            RetryPolicy::default(),
            self.sessions.clone(),
        )
    }

    pub fn agent(&self, spec: CodeSpec) -> RepairAgent {
        self.start_agent(spec, RepairAgentConfig::new(CHUNK))
    }

    /// An agent that also scrubs every server's store.
    pub fn scrubbing_agent(&self, spec: CodeSpec) -> RepairAgent {
        let mut cfg = RepairAgentConfig::new(CHUNK);
        let stores = self.servers.iter().map(|s| s.data_dir().clone());
        cfg.scrub = Some(ScrubConfig::new(stores.enumerate().collect()));
        self.start_agent(spec, cfg)
    }

    fn start_agent(&self, spec: CodeSpec, cfg: RepairAgentConfig) -> RepairAgent {
        RepairAgent::start(
            Codec::build(spec).unwrap(),
            Arc::clone(&self.directory),
            self.sessions.clone(),
            cfg,
        )
        .unwrap()
    }

    /// The file server `sid` keeps `(stripe, lane)` in.
    pub fn chunk_path(&self, sid: usize, stripe: u64, lane: usize) -> PathBuf {
        self.servers[sid]
            .data_dir()
            .join(format!("s{stripe:016x}_l{lane:08x}.chunk"))
    }

    /// Flips one payload byte of `(stripe, lane)` behind the back of the
    /// server the directory maps it to — silent bit rot.
    pub fn rot_chunk(&self, stripe: u64, lane: usize) {
        self.edit_chunk(stripe, lane, |bytes| {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
        });
    }

    /// Rewrites the file of `(stripe, lane)`, header and all, on the
    /// server the directory maps it to.
    pub fn edit_chunk(&self, stripe: u64, lane: usize, edit: impl FnOnce(&mut Vec<u8>)) {
        let sid = self.lock_dir().servers_of(stripe).unwrap()[lane];
        let path = self.chunk_path(sid, stripe, lane);
        let mut bytes = std::fs::read(&path).unwrap();
        edit(&mut bytes);
        std::fs::write(&path, bytes).unwrap();
    }

    /// Stops server `sid` gracefully — every handler thread, and with it
    /// the server's end of any pooled socket, is gone — and starts it
    /// again on its data dir. It comes back on a new port; telling the
    /// directory is the caller's business.
    pub fn restart_server(&mut self, sid: usize) -> SocketAddr {
        let old = self.servers.remove(sid);
        let (old_addr, data_dir) = (old.addr(), old.data_dir().clone());
        old.shutdown();
        let new = ChunkServer::start(ServerConfig::new(data_dir)).unwrap();
        let addr = new.addr();
        assert_ne!(addr, old_addr, "the restart must land on a new port");
        self.servers.insert(sid, new);
        addr
    }

    pub fn lock_dir(&self) -> MutexGuard<'_, Directory> {
        self.directory
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub fn teardown(self) {
        for server in self.servers {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
