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

mod common;

use common::{Cluster, CHUNK};
use std::collections::HashSet;
use xorbas_core::CodeSpec;
use xorbas_node::client::ReadKind;

const N: usize = 5;
const SPEC: CodeSpec = CodeSpec::LRC_10_6_5;

fn test_file(len: usize, salt: u8) -> Vec<u8> {
    let mut file = common::test_file(len);
    file.iter_mut().for_each(|b| *b ^= salt);
    file
}

#[test]
fn cluster_restarts_from_the_data_root_with_every_acked_byte() {
    let mut cluster = Cluster::boot_persistent(N, "wal");
    let mut client = cluster.client(SPEC);

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
    cluster.servers[N - 1].kill();

    // Restart from the data root: the victim re-serves its old chunk
    // dir on a fresh port; the directory replays the WAL against the
    // updated roster. The replayed manifests must be exactly the acked
    // ones, byte for byte.
    cluster.restart_server(N - 1);
    let (cluster, mut replayed) = cluster.restart_coordinator();
    assert_eq!(replayed.len(), 2, "both acked manifests replay");
    let rb = replayed.pop().unwrap();
    let ra = replayed.pop().unwrap();
    assert_eq!(ra.encode(), ma.encode());
    assert_eq!(rb.encode(), mb.encode());

    let mut client2 = cluster.client(SPEC);

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

    cluster.teardown();
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
    let mut cluster = Cluster::boot(N, "pool");
    let mut client = cluster.client(SPEC);

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

    let restart = |cluster: &mut Cluster| {
        let addr = cluster.restart_server(s);
        cluster.lock_dir().set_addr(s, addr);
    };
    restart(&mut cluster);

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
        let d = cluster.lock_dir();
        assert!(d.is_alive(s), "server {s} answered the redial");
        d.scan_lost(&mut lost);
    }
    assert!(lost.is_empty(), "nothing is lost: {lost:?}");

    // The put path pools the same connections under the same rule: a
    // second restart must not push S's lanes onto other servers.
    restart(&mut cluster);
    let again = client.put(&data).unwrap();
    let on_s = again.stripes[0].servers.iter().filter(|&&x| x == s).count();
    assert!(
        on_s >= 16 / N,
        "S keeps its share of the new stripe, got {on_s}"
    );
    assert_eq!(cluster.lock_dir().alive_count(), N);
    let report = client.get(&again, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(report.degraded_stripes, 0);

    cluster.teardown();
}
