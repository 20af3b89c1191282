//! A loopback cluster for the node workloads: 20 chunk servers on 20
//! racks in this process, a WAL-backed directory, and the helpers the
//! workloads share (delete a file's chunks, count stored bytes).
//!
//! All state lives under `benchmark/out/data/`, inside the checkout,
//! and is removed when the cluster is dropped. Flush policy is the
//! code's own: the directory WAL calls `sync_data` per record, chunk
//! files are written and renamed without a sync.

use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xorbas_core::CodeSpec;
use xorbas_node::client::SessionCache;
use xorbas_node::{
    ChunkServer, ClusterClient, Directory, Manifest, NodeConn, RetryPolicy, ServerConfig,
};
use xorbas_sim::codecs::CodecInstance;

/// One server per rack, and more servers than the widest stripe has
/// lanes, so every lane of a 16-lane stripe sits on its own server (the
/// paper's placement) and four servers can die before placement fails.
pub const SERVERS: usize = 20;

/// Directory of this package, where `out/` lives.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where traces and cluster data go (ignored by git).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// A chunk server's configuration with every field set here, not
/// through `ServerConfig::new`, so no environment knob can change what
/// is measured.
pub fn server_config(data_dir: PathBuf) -> ServerConfig {
    ServerConfig {
        data_dir,
        max_conn_threads: 8,
        poll_interval: Duration::from_millis(10),
    }
}

pub struct Cluster {
    pub servers: Vec<ChunkServer>,
    pub addrs: Vec<SocketAddr>,
    pub directory: Arc<Mutex<Directory>>,
    pub sessions: SessionCache,
    pub codec: CodecInstance,
    pub chunk_bytes: usize,
    root: PathBuf,
}

impl Cluster {
    /// Boots the servers and opens a fresh persistent directory. `tag`
    /// keeps clusters of one process apart on disk.
    pub fn boot(tag: &str, spec: CodeSpec, chunk_bytes: usize, seed: u64) -> Result<Self, String> {
        let root = out_dir()
            .join("data")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut servers = Vec::with_capacity(SERVERS);
        let mut addrs = Vec::with_capacity(SERVERS);
        for i in 0..SERVERS {
            let server = ChunkServer::start(server_config(root.join(format!("server-{i:02}"))))
                .map_err(|e| format!("start server {i}: {e}"))?;
            addrs.push(server.addr());
            servers.push(server);
        }
        let (directory, _) =
            Directory::open_persistent(&root.join("directory.wal"), &addrs, SERVERS, seed)
                .map_err(|e| format!("open directory: {e}"))?;
        let codec = CodecInstance::build(spec).map_err(|e| format!("build codec: {e}"))?;
        Ok(Self {
            servers,
            addrs,
            directory: Arc::new(Mutex::new(directory)),
            sessions: SessionCache::default(),
            codec,
            chunk_bytes,
            root,
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn client(&self) -> ClusterClient {
        ClusterClient::new(
            self.codec.clone(),
            self.chunk_bytes,
            Arc::clone(&self.directory),
            RetryPolicy::default(),
            self.sessions.clone(),
        )
    }

    /// One connection per server, for the harness's own chunk traffic
    /// (deleting old files, fetching repaired chunks for comparison).
    pub fn connect_all(&self) -> Result<Vec<NodeConn>, String> {
        self.addrs
            .iter()
            .map(|&a| NodeConn::connect(a, &RetryPolicy::default()).map_err(|e| e.to_string()))
            .collect()
    }

    /// Bytes of every chunk file the servers hold.
    pub fn stored_bytes(&self) -> Result<u64, String> {
        let mut total = 0u64;
        for server in &self.servers {
            let entries = std::fs::read_dir(server.data_dir()).map_err(|e| e.to_string())?;
            for entry in entries {
                let meta = entry
                    .and_then(|e| e.metadata())
                    .map_err(|e| e.to_string())?;
                if meta.is_file() {
                    total += meta.len();
                }
            }
        }
        Ok(total)
    }
}

/// The sandbox's own cost of storing `files` chunk files: each is
/// created under a temporary name, written as a 36-byte header and a
/// payload, and renamed, straight through `std::fs` into `dir`, then
/// all are removed. Returns the milliseconds the writes took.
///
/// This is a fixed reference load on the host, not a model of
/// `ChunkStore`. On this sandbox the time the file system takes for the
/// same writes swings by a factor of two from minute to minute (see the
/// README), and the swing adds to every put; measuring the reference
/// next to each put is what lets `put_stream` report a steady number.
pub fn host_write_ms(dir: &Path, payload: &[u8], files: usize) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let start = Instant::now();
    for i in 0..files {
        let tmp = dir.join(format!("{i}.tmp"));
        std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&payload[..36.min(payload.len())])?;
                f.write_all(payload)
            })
            .and_then(|()| std::fs::rename(&tmp, dir.join(format!("{i}.chunk"))))
            .map_err(|e| format!("host write in {}: {e}", dir.display()))?;
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(ms)
}

/// Deletes every chunk of `manifest` from the server it was put on.
pub fn delete_file(conns: &mut [NodeConn], manifest: &Manifest) -> Result<(), String> {
    for entry in &manifest.stripes {
        for (lane, &sid) in entry.servers.iter().enumerate() {
            conns
                .get_mut(sid)
                .ok_or("server id out of roster")?
                .delete(entry.id, lane as u32)
                .map_err(|e| format!("delete {}:{lane}: {e}", entry.id))?;
        }
    }
    Ok(())
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for server in self.servers.drain(..) {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
