//! Crash-safety gate: kill a chunk server *and* the directory
//! mid-workload, restart both from the data root alone, and every
//! acked file must read back bit-identical with zero failed reads.
//!
//! The directory's WAL is the only durable coordinator state; the first
//! test is the proof that replaying it (placements, manifests, the id
//! allocator's high-water mark) reconstructs a serving cluster. The
//! second restarts one server under a client that keeps its
//! connections: the client's stale socket must not get the healthy
//! server declared dead.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use xorbas_core::{CodeSpec, Codec};
use xorbas_node::client::{ReadKind, SessionCache};
use xorbas_node::{ChunkServer, ClusterClient, Directory, RetryPolicy, ServerConfig};

const CHUNK: usize = 64 * 1024;
const N: usize = 5;

fn test_file(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i.wrapping_mul(2654435761) >> 16) as u8) ^ salt)
        .collect()
}

fn client_for(dir: &Arc<Mutex<Directory>>, sessions: &SessionCache) -> ClusterClient {
    ClusterClient::new(
        Codec::build(CodeSpec::LRC_10_6_5).unwrap(),
        CHUNK,
        Arc::clone(dir),
        RetryPolicy::default(),
        sessions.clone(),
    )
}

#[test]
fn cluster_restarts_from_the_data_root_with_every_acked_byte() {
    let root = std::env::temp_dir().join(format!("xorbas_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut servers = Vec::new();
    let mut dirs = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for i in 0..N {
        let d = root.join(format!("srv{i}"));
        let s = ChunkServer::start(ServerConfig::new(d.clone())).unwrap();
        addrs.push(s.addr());
        servers.push(s);
        dirs.push(d);
    }
    let wal = root.join("directory.wal");
    let (dir, prior) = Directory::open_persistent(&wal, &addrs, N, 7).unwrap();
    assert!(prior.is_empty(), "fresh WAL must replay nothing");
    let dir = Arc::new(Mutex::new(dir));
    let sessions = SessionCache::default();
    let mut client = client_for(&dir, &sessions);

    let k = CodeSpec::LRC_10_6_5.data_blocks();
    let file_a = test_file(2 * k * CHUNK + 777, 0);
    let file_b = test_file(k * CHUNK, 0x5A);
    let ma = client.put(&file_a).unwrap();
    let mb = client.put(&file_b).unwrap();

    // Mid-workload: reads are flowing…
    let mut buf = Vec::new();
    client.get(&ma, &mut buf).unwrap();
    assert_eq!(buf, file_a);

    // …then the coordinator dies (client + directory dropped with no
    // orderly handoff) and one chunk server dies with it.
    drop(client);
    drop(dir);
    let victim = servers.pop().unwrap();
    victim.kill();
    drop(victim);

    // Restart from the data root: the victim re-serves its old chunk
    // dir on a fresh port; the directory replays the WAL against the
    // updated roster. The replayed manifests must be exactly the acked
    // ones, byte for byte.
    let restarted = ChunkServer::start(ServerConfig::new(dirs[N - 1].clone())).unwrap();
    let mut addrs2 = addrs.clone();
    addrs2[N - 1] = restarted.addr();
    servers.push(restarted);
    let (dir2, mut replayed) = Directory::open_persistent(&wal, &addrs2, N, 7).unwrap();
    assert_eq!(replayed.len(), 2, "both acked manifests replay");
    let rb = replayed.pop().unwrap();
    let ra = replayed.pop().unwrap();
    assert_eq!(ra.encode(), ma.encode());
    assert_eq!(rb.encode(), mb.encode());

    let dir2 = Arc::new(Mutex::new(dir2));
    let sessions2 = SessionCache::default();
    let mut client2 = client_for(&dir2, &sessions2);

    // Every acked byte reads back through the replayed state — and
    // since the restarted server kept its chunks, not even degraded.
    let report_a = client2.get(&ra, &mut buf).unwrap();
    assert_eq!(buf, file_a);
    let report_b = client2.get(&rb, &mut buf).unwrap();
    assert_eq!(buf, file_b);
    assert_eq!(
        report_a.degraded_stripes + report_b.degraded_stripes,
        0,
        "restart with intact data dirs must not need reconstruction"
    );

    // The id allocator replayed past every logged stripe: new puts
    // never collide with replayed ids, and they read back too.
    let file_c = test_file(k * CHUNK + 9, 0xC3);
    let mc = client2.put(&file_c).unwrap();
    let mut seen: HashSet<u64> = ra
        .stripes
        .iter()
        .chain(rb.stripes.iter())
        .map(|s| s.id)
        .collect();
    for s in &mc.stripes {
        assert!(seen.insert(s.id), "stripe id collision after replay");
    }
    client2.get(&mc, &mut buf).unwrap();
    assert_eq!(buf, file_c);

    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression for the pooled-connection rule. A client that has read
/// from server S keeps a connection to it. S restarts from its data dir
/// on a new port and the directory learns the address; nobody marks S
/// dead. The client's old socket now fails between frames, which says
/// nothing about S: the read must redial and be served directly. Before
/// the rule the stale socket got S marked dead, the read came back
/// degraded, and every chunk S holds was listed lost — a running agent
/// would have re-replicated a healthy server.
#[test]
fn a_restarted_server_is_not_declared_dead_by_a_stale_pooled_connection() {
    let root = std::env::temp_dir().join(format!("xorbas_restart_{}_pool", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut servers = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for i in 0..N {
        let s = ChunkServer::start(ServerConfig::new(root.join(format!("srv{i}")))).unwrap();
        addrs.push(s.addr());
        servers.push(Some(s));
    }
    let dir = Arc::new(Mutex::new(Directory::new(&addrs, N, 7)));
    let mut client = client_for(&dir, &SessionCache::default());

    let k = CodeSpec::LRC_10_6_5.data_blocks();
    let data = test_file(k * CHUNK, 0x21);
    let manifest = client.put(&data).unwrap();
    let stripe = manifest.stripes[0].id;
    let lane = 3u32;
    let s = manifest.stripes[0].servers[lane as usize];
    let want = &data[lane as usize * CHUNK..(lane as usize + 1) * CHUNK];

    let mut buf = Vec::new();
    let kind = client.read_data_chunk(stripe, lane, &mut buf).unwrap();
    assert_eq!(kind, ReadKind::Direct);
    assert_eq!(&buf[..], want);

    // Graceful stop, so every handler thread (and with it the server's
    // end of the client's pooled socket) is gone before the restart.
    let restart = |servers: &mut Vec<Option<ChunkServer>>| {
        let old = servers[s].take().unwrap();
        let old_addr = old.addr();
        old.shutdown();
        let new = ChunkServer::start(ServerConfig::new(root.join(format!("srv{s}")))).unwrap();
        assert_ne!(new.addr(), old_addr, "the restart must land on a new port");
        dir.lock().unwrap().set_addr(s, new.addr());
        servers[s] = Some(new);
    };
    restart(&mut servers);

    buf.clear();
    let kind = client.read_data_chunk(stripe, lane, &mut buf).unwrap();
    assert_eq!(
        kind,
        ReadKind::Direct,
        "a stale socket is not a dead server"
    );
    assert_eq!(&buf[..], want);
    let mut lost = Vec::new();
    {
        let d = dir.lock().unwrap();
        assert!(d.is_alive(s), "server {s} answered the redial");
        d.scan_lost(&mut lost);
    }
    assert!(lost.is_empty(), "nothing is lost: {lost:?}");

    // The put path pools the same connections under the same rule: a
    // second restart must not push S's lanes onto other servers.
    restart(&mut servers);
    let again = client.put(&data).unwrap();
    let on_s = again.stripes[0].servers.iter().filter(|&&x| x == s).count();
    assert!(
        on_s >= 16 / N,
        "S keeps its share of the new stripe, got {on_s}"
    );
    assert_eq!(dir.lock().unwrap().alive_count(), N);
    let report = client.get(&again, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(report.degraded_stripes, 0);

    for s in servers.into_iter().flatten() {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}
