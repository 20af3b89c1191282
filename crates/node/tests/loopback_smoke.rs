//! Loopback cluster smoke tests: the CI gate for the networked
//! prototype. Five real chunk servers in-process, a client streaming
//! erasure-coded files over TCP, one server killed mid-test, a repair
//! agent restoring redundancy — and the paper's headline measured as
//! an assertion: LRC single-loss repair moves fewer bytes than RS.

mod common;

use common::{settled_stats, test_file, Cluster, CHUNK};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xorbas_core::{CodeSpec, Codec};
use xorbas_node::client::ReadKind;
use xorbas_node::{ClusterClient, NodeConn, NodeError, RetryPolicy};

/// Kill → degraded reads → repair convergence for one code. Every
/// family goes through the same plan → session → replay path on both
/// the client and the repair agent.
fn kill_one_server_round_trip(spec: CodeSpec, tag: &str) {
    let cluster = Cluster::boot(5, tag);
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();

    // Three stripes exactly, plus a ragged tail on a fourth.
    let data = test_file(3 * k * CHUNK + 12345);
    let manifest = client.put(&data).unwrap();
    assert_eq!(manifest.stripes.len(), 4);
    assert_eq!(manifest.file_len, data.len() as u64);

    // Healthy reads are all direct.
    let mut buf = Vec::new();
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(report.degraded_stripes, 0);

    // Kill one server mid-life (one that holds a data lane, whatever
    // the code's width). Every read must still succeed — direct where
    // the lane survived, degraded where it did not.
    cluster.servers[manifest.stripes[0].servers[0]].kill();
    let mut direct = 0usize;
    let mut degraded = 0usize;
    for stripe in &manifest.stripes {
        for lane in 0..k as u32 {
            match client.read_data_chunk(stripe.id, lane, &mut buf).unwrap() {
                ReadKind::Direct => direct += 1,
                ReadKind::Degraded { .. } => degraded += 1,
            }
            let start = stripe_user_offset(&manifest, stripe.id, lane);
            let expect = &data[start.min(data.len())..(start + CHUNK).min(data.len())];
            assert_eq!(&buf[..expect.len()], expect, "chunk content must match");
        }
    }
    assert!(degraded > 0, "the dead server held data lanes");
    assert!(direct > 0);

    // Whole-file get stays bit-identical through the mixed path.
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert!(report.degraded_stripes > 0);

    // The repair agent restores full redundancy onto the survivors.
    let agent = cluster.agent(spec);
    assert!(
        agent.wait_until_repaired(Duration::from_secs(60)),
        "repair must converge"
    );
    let stats = agent.stats();
    assert!(stats.chunks_repaired > 0);
    assert!(stats.bytes_written >= stats.chunks_repaired * CHUNK as u64);
    {
        let dir = cluster.lock_dir();
        let mut lost = Vec::new();
        dir.scan_lost(&mut lost);
        assert!(lost.is_empty(), "no chunk may remain lost: {lost:?}");
    }
    agent.shutdown();

    // After repair every chunk reads directly again (new client so no
    // stale dead-server connections linger).
    let mut fresh = cluster.client(spec);
    for stripe in &manifest.stripes {
        for lane in 0..k as u32 {
            let kind = fresh.read_data_chunk(stripe.id, lane, &mut buf).unwrap();
            assert!(
                matches!(kind, ReadKind::Direct),
                "post-repair reads are direct"
            );
        }
    }
    fresh.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data, "bit-identical after repair");

    cluster.teardown();
}

#[test]
fn kill_one_server_zero_failed_reads_then_repair_restores_redundancy() {
    kill_one_server_round_trip(CodeSpec::LRC_10_6_5, "kill");
}

#[test]
fn kill_one_server_round_trips_under_reed_solomon() {
    kill_one_server_round_trip(CodeSpec::RS_10_4, "kill_rs");
}

#[test]
fn kill_one_server_round_trips_under_replication() {
    kill_one_server_round_trip(CodeSpec::REPLICATION_3, "kill_rep");
}

#[test]
fn kill_one_server_round_trips_under_piggybacked_rs() {
    kill_one_server_round_trip(CodeSpec::PB_10_4, "kill_pb");
}

/// User-byte offset of `(stripe, lane)` within the original file.
fn stripe_user_offset(manifest: &xorbas_node::Manifest, stripe: u64, lane: u32) -> usize {
    let idx = manifest
        .stripes
        .iter()
        .position(|s| s.id == stripe)
        .unwrap();
    let k = manifest.spec.data_blocks();
    (idx * k + lane as usize) * CHUNK
}

/// Rot and damage on a server's disk cost a lane, never the server. A
/// bit-flipped chunk is streamed whole behind the digest it was stored
/// with, and the reader's check catches it; a truncated file and one
/// with a damaged header are refused by the server with `ERR Corrupt`
/// before a payload byte is sent. Either way the read is degraded, the
/// directory lists the lane corrupt, and the server stays alive.
/// (Without the server's length check the truncated chunk is sent
/// short, the client sees `Truncated`, and a live server is declared
/// dead.)
#[test]
fn checksum_mismatch_routes_into_degraded_read() {
    let cluster = Cluster::boot(5, "corrupt");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();
    let data = test_file(3 * k * CHUNK);
    let manifest = client.put(&data).unwrap();
    let damage: [fn(&mut Vec<u8>); 3] = [
        |bytes| *bytes.last_mut().unwrap() ^= 0x01,
        |bytes| bytes.truncate(bytes.len() - 1),
        |bytes| bytes[0] ^= 0x01,
    ];
    for (stripe, edit) in manifest.stripes.iter().zip(damage) {
        cluster.edit_chunk(stripe.id, 0, edit);
    }

    let mut buf = Vec::new();
    for (pos, stripe) in manifest.stripes.iter().enumerate() {
        let kind = client.read_data_chunk(stripe.id, 0, &mut buf).unwrap();
        assert!(
            matches!(kind, ReadKind::Degraded { light: true }),
            "stripe {pos}: a single corrupt LRC data chunk decodes from its local group, got {kind:?}"
        );
        let at = pos * k * CHUNK;
        assert!(buf == data[at..at + CHUNK], "stripe {pos}: rebuilt bytes");
        let d = cluster.lock_dir();
        let holder = stripe.servers[0];
        assert!(d.is_alive(holder), "stripe {pos}: server {holder} dead");
        assert!(d.is_corrupt(stripe.id, 0), "stripe {pos}");
    }

    // Repair overwrites the bad replicas and clears the flags; the
    // chunks then read directly again.
    let agent = cluster.agent(spec);
    assert!(agent.wait_until_repaired(Duration::from_secs(30)));
    assert_eq!(settled_stats(&agent, 3).light_repairs, 3);
    agent.shutdown();
    for (pos, stripe) in manifest.stripes.iter().enumerate() {
        assert!(!cluster.lock_dir().is_corrupt(stripe.id, 0));
        let kind = client.read_data_chunk(stripe.id, 0, &mut buf).unwrap();
        assert!(matches!(kind, ReadKind::Direct), "stripe {pos}: {kind:?}");
        let at = pos * k * CHUNK;
        assert!(buf == data[at..at + CHUNK], "stripe {pos}");
    }
    assert_eq!(cluster.lock_dir().alive_count(), 5);

    cluster.teardown();
}

/// Regression: the agent's own fetch must tell the directory about a
/// bad *source* lane. Lane 0 is flagged lost, lane 1 of the same local
/// group has silently rotted, and nothing else — no scrubber, no client
/// traffic — will ever notice lane 1. Before the agent read through the
/// shared executor it retried the same light plan every scan round,
/// failed on lane 1 every time, and never converged.
#[test]
fn repair_agent_routes_around_a_rotten_source_lane() {
    let spec = CodeSpec::LRC_10_6_5;
    let cluster = Cluster::boot(5, "wedge");
    let mut client = cluster.client(spec);
    let data = test_file(spec.data_blocks() * CHUNK);
    let manifest = client.put(&data).unwrap();
    let stripe = manifest.stripes[0].id;
    cluster.lock_dir().report_corrupt(stripe, 0);
    cluster.rot_chunk(stripe, 1);
    drop(client);

    let agent = cluster.agent(spec);
    assert!(
        agent.wait_until_repaired(Duration::from_secs(10)),
        "the agent must flag the rotten source and repair both lanes: {:?}",
        agent.stats()
    );
    let stats = settled_stats(&agent, 2);
    agent.shutdown();
    assert_eq!(stats.chunks_repaired, 2, "{stats:?}");
    // Lanes 0 and 1 share a local group: two losses there are heavy.
    assert_eq!((stats.light_repairs, stats.heavy_repairs), (0, 1));
    // One probing attempt found the rot; not one failure per scan round.
    assert!((1..=3).contains(&stats.failed_attempts), "{stats:?}");
    assert!(!cluster.lock_dir().is_corrupt(stripe, 1));

    let mut fresh = cluster.client(spec);
    let mut buf = Vec::new();
    for lane in 0..2u32 {
        let kind = fresh.read_data_chunk(stripe, lane, &mut buf).unwrap();
        assert!(matches!(kind, ReadKind::Direct), "lane {lane}: {kind:?}");
        let at = lane as usize * CHUNK;
        assert_eq!(&buf[..], &data[at..at + CHUNK], "lane {lane}");
    }
    cluster.teardown();
}

/// The failure edge of the pipelined fetch. On five servers the lanes
/// of a stripe share connections, so the GETs of one fetch queue up on
/// one socket. Lane 0 is rotten, and lane 3 — a source in the middle of
/// lane 0's light fetch set {1, 2, 3, 4, 10} — has a damaged header,
/// which its server refuses with `ERR Corrupt`. The degraded read of
/// lane 0 finds lane 3 bad with the replies for lanes 4 and 10 still
/// owed; those connections must be closed, or the retry's first GET on
/// them is answered with lane 4's bytes — a whole chunk, for the wrong
/// lane. Everything read afterwards through the same client must be
/// exact.
#[test]
fn a_failure_mid_fetch_leaves_no_reply_for_a_later_request() {
    let spec = CodeSpec::LRC_10_6_5;
    let cluster = Cluster::boot(5, "midfetch");
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();
    let data = test_file(3 * k * CHUNK);
    let manifest = client.put(&data).unwrap();
    let hit = &manifest.stripes[1];
    let rotten = [0usize, 3];
    cluster.rot_chunk(hit.id, 0);
    cluster.edit_chunk(hit.id, 3, |bytes| bytes[0] ^= 0x01);

    let mut buf = Vec::new();
    let kind = client.read_data_chunk(hit.id, 0, &mut buf).unwrap();
    // Lanes 0 and 3 share a local group: the second attempt is heavy.
    assert_eq!(kind, ReadKind::Degraded { light: false });
    assert!(
        buf == data[k * CHUNK..(k + 1) * CHUNK],
        "lane 0 rebuilt from another lane's reply"
    );
    assert!(cluster.lock_dir().is_corrupt(hit.id, 3));

    for (pos, stripe) in manifest.stripes.iter().enumerate() {
        for lane in 0..k {
            let kind = client
                .read_data_chunk(stripe.id, lane as u32, &mut buf)
                .unwrap();
            let direct = !(stripe.id == hit.id && rotten.contains(&lane));
            assert_eq!(
                matches!(kind, ReadKind::Direct),
                direct,
                "stripe {pos} lane {lane}: {kind:?}"
            );
            let at = (pos * k + lane) * CHUNK;
            assert!(buf == data[at..at + CHUNK], "stripe {pos} lane {lane}");
        }
    }
    let report = client.get(&manifest, &mut buf).unwrap();
    assert!(buf == data, "whole file");
    assert_eq!(report.degraded_stripes, 1);
    cluster.teardown();
}

/// A degraded read does not digest its sources as they land; it checks
/// the lane it rebuilt against the digest the code gives it from theirs.
/// A source that rotted at rest, payload only (its server streams it
/// as it would a good one), spoils that lane. The check then digests
/// each source against what its server stored, reports the rotten one
/// corrupt, and the read's next attempt routes around it, returning the
/// right bytes. So does the repair agent, from the same executor.
#[test]
fn a_source_rotted_at_rest_is_located_and_the_degraded_read_succeeds() {
    let spec = CodeSpec::LRC_10_6_5;
    let cluster = Cluster::boot(5, "rotsource");
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();
    let data = test_file(k * CHUNK);
    let manifest = client.put(&data).unwrap();
    let stripe = manifest.stripes[0].id;
    // Lane 0 is lost; lane 2 is a source of its light repair.
    cluster.lock_dir().report_corrupt(stripe, 0);
    cluster.edit_chunk(stripe, 2, |bytes| bytes[100] ^= 0x20);

    let mut buf = Vec::new();
    let kind = client.read_data_chunk(stripe, 0, &mut buf).unwrap();
    // Lanes 0 and 2 share a local group: the second attempt is heavy.
    assert_eq!(kind, ReadKind::Degraded { light: false });
    assert!(buf == data[..CHUNK], "rebuilt bytes");
    let d = cluster.lock_dir();
    assert!(
        d.is_corrupt(stripe, 2),
        "the rotten source was not reported"
    );
    let others = (1..spec.total_blocks() as u32).filter(|&l| l != 2);
    assert!(others.into_iter().all(|l| !d.is_corrupt(stripe, l)));
    drop(d);

    let agent = cluster.agent(spec);
    assert!(agent.wait_until_repaired(Duration::from_secs(10)));
    agent.shutdown();
    for lane in 0..3u32 {
        let kind = client.read_data_chunk(stripe, lane, &mut buf).unwrap();
        assert_eq!(kind, ReadKind::Direct, "lane {lane}");
        let at = lane as usize * CHUNK;
        assert!(buf == data[at..at + CHUNK], "lane {lane}");
    }
    cluster.teardown();
}

/// Repair workers keep their connections. Eight stripes each lose one
/// lane; the default two workers may dial each of the five servers
/// once, however many stripes they repair. (An executor per stripe
/// dialed every source and the target anew: five or six per stripe.)
#[test]
fn repair_workers_reuse_their_connections_across_stripes() {
    let spec = CodeSpec::LRC_10_6_5;
    let cluster = Cluster::boot(5, "dials");
    let mut client = cluster.client(spec);
    let data = test_file(8 * spec.data_blocks() * CHUNK);
    let manifest = client.put(&data).unwrap();
    assert_eq!(manifest.stripes.len(), 8);
    for stripe in &manifest.stripes {
        cluster.lock_dir().report_corrupt(stripe.id, 0);
    }

    let agent = cluster.agent(spec);
    assert!(agent.wait_until_repaired(Duration::from_secs(30)));
    let stats = settled_stats(&agent, 8);
    agent.shutdown();
    assert_eq!((stats.chunks_repaired, stats.light_repairs), (8, 8));
    assert!((1..=2 * 5).contains(&stats.connections_dialed), "{stats:?}");

    let mut buf = Vec::new();
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(report.degraded_stripes, 0);
    cluster.teardown();
}

/// A degraded `read_data_chunk` hands the rebuilt lane out by swapping
/// it with the caller's buffer, so the executor's scratch inherits
/// whatever the caller passed in — here buffers of the wrong lengths.
/// Reads after it, direct and degraded, must still come back with the
/// right bytes at the right length.
#[test]
fn reads_after_a_degraded_read_are_exact_whatever_buffer_it_was_given() {
    let spec = CodeSpec::LRC_10_6_5;
    let cluster = Cluster::boot(5, "swap");
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();
    let data = test_file(2 * k * CHUNK);
    let manifest = client.put(&data).unwrap();
    let chunk = |pos: usize, lane: usize| {
        let at = (pos * k + lane) * CHUNK;
        &data[at..at + CHUNK]
    };
    cluster.rot_chunk(manifest.stripes[0].id, 1);
    cluster.rot_chunk(manifest.stripes[1].id, 6);

    for mut buf in [Vec::new(), vec![0xAAu8; 3], vec![0x55u8; 2 * CHUNK + 1]] {
        let kind = client
            .read_data_chunk(manifest.stripes[0].id, 1, &mut buf)
            .unwrap();
        assert_eq!(kind, ReadKind::Degraded { light: true });
        assert_eq!(&buf[..], chunk(0, 1));
        // Direct, into the buffer the swap left behind…
        let kind = client
            .read_data_chunk(manifest.stripes[1].id, 1, &mut buf)
            .unwrap();
        assert_eq!(kind, ReadKind::Direct);
        assert_eq!(&buf[..], chunk(1, 1));
        // …degraded in the other local group, over the swapped scratch…
        let kind = client
            .read_data_chunk(manifest.stripes[1].id, 6, &mut buf)
            .unwrap();
        assert_eq!(kind, ReadKind::Degraded { light: true });
        assert_eq!(&buf[..], chunk(1, 6));
        // …and the whole file.
        client.get(&manifest, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
    cluster.teardown();
}

#[test]
fn lrc_light_repair_moves_fewer_bytes_than_rs() {
    let mut fetched = Vec::new();
    for (spec, tag) in [
        (CodeSpec::LRC_10_6_5, "lrc"),
        (CodeSpec::RS_10_4, "rs"),
        (CodeSpec::REPLICATION_3, "rep"),
        (CodeSpec::PB_10_4, "pb"),
    ] {
        let cluster = Cluster::boot(5, tag);
        let mut client = cluster.client(spec);
        let data = test_file(spec.data_blocks() * CHUNK);
        let manifest = client.put(&data).unwrap();
        let stripe = manifest.stripes[0].id;

        cluster.lock_dir().report_corrupt(stripe, 0);
        let agent = cluster.agent(spec);
        assert!(agent.wait_until_repaired(Duration::from_secs(30)));
        let stats = settled_stats(&agent, 1);
        assert_eq!(stats.chunks_repaired, 1);
        agent.shutdown();
        // The wire moves exactly the lanes the plan names, whole.
        let plan = client.codec().repair_plan_for(&[0], &[0]).unwrap();
        assert_eq!(
            stats.bytes_fetched,
            (plan.blocks_read() * CHUNK) as u64,
            "{}",
            spec.name()
        );
        fetched.push(stats.bytes_fetched);

        let mut buf = Vec::new();
        client.get(&manifest, &mut buf).unwrap();
        assert_eq!(buf, data);
        cluster.teardown();
    }
    // The paper's Table: LRC repairs a single loss from its 5-lane
    // local group; RS must read k = 10 lanes.
    assert_eq!(
        fetched[0],
        5 * CHUNK as u64,
        "LRC light repair reads 5 chunks"
    );
    assert_eq!(
        fetched[1],
        10 * CHUNK as u64,
        "RS repair reads k = 10 chunks"
    );
    assert!(fetched[0] < fetched[1]);
    // Replication copies one surviving replica.
    assert_eq!(fetched[2], CHUNK as u64);
    // The piggyback's plan halves most of its k + 1 = 11 reads, but the
    // node fetches whole chunks: on the wire it costs one lane *more*
    // than RS until the protocol learns sub-chunk reads.
    assert_eq!(fetched[3], 11 * CHUNK as u64);
}

/// Regression: a light degraded repair only *reads* the failed lane's
/// local group, so data lanes of the other group are outside the plan.
/// The whole-file get must fetch them explicitly — before the fix they
/// kept the previous stripe's bytes in the scratch and the file came
/// back silently corrupted.
#[test]
fn whole_file_get_refreshes_lanes_outside_the_light_repair_group() {
    let cluster = Cluster::boot(5, "lightget");
    let mut client = cluster.client(CodeSpec::LRC_10_6_5);
    let k = CodeSpec::LRC_10_6_5.data_blocks();

    // Two full stripes of distinct content: a stale lane carried over
    // from stripe 0 is detectable in stripe 1's output.
    let data = test_file(2 * k * CHUNK);
    let manifest = client.put(&data).unwrap();
    assert_eq!(manifest.stripes.len(), 2);

    // Lose exactly one data chunk of the SECOND stripe. A single loss
    // compiles a light plan over lane 2's local group (lanes 0..5 +
    // its local parity); data lanes 5..10 are neither read nor missing.
    let stripe = manifest.stripes[1].id;
    let lane = 2u32;
    let holder = manifest.stripes[1].servers[lane as usize];
    std::fs::remove_file(cluster.chunk_path(holder, stripe, lane as usize)).unwrap();

    let mut buf = Vec::new();
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(report.degraded_stripes, 1);
    assert_eq!(
        buf, data,
        "data lanes outside the light-repair group must be fetched, not stale"
    );
    cluster.teardown();
}

/// A manifest is only meaningful to a client configured with the same
/// code spec and chunk size; anything else must be a typed refusal,
/// not a silent misread.
#[test]
fn mismatched_manifest_is_refused_up_front() {
    let cluster = Cluster::boot(5, "mismatch");
    let mut client = cluster.client(CodeSpec::LRC_10_6_5);
    let data = test_file(3 * CHUNK);
    let manifest = client.put(&data).unwrap();

    // A client striping with a different code…
    let mut rs = cluster.client(CodeSpec::RS_10_4);
    let mut buf = Vec::new();
    assert!(matches!(
        rs.get(&manifest, &mut buf).unwrap_err(),
        NodeError::ManifestMismatch(_)
    ));
    assert!(matches!(
        rs.register_manifest(&manifest).unwrap_err(),
        NodeError::ManifestMismatch(_)
    ));

    // …or a different chunk size is refused too.
    let mut small = ClusterClient::new(
        Codec::build(CodeSpec::LRC_10_6_5).unwrap(),
        CHUNK / 2,
        Arc::clone(&cluster.directory),
        RetryPolicy::default(),
        cluster.sessions.clone(),
    );
    assert!(matches!(
        small.get(&manifest, &mut buf).unwrap_err(),
        NodeError::ManifestMismatch(_)
    ));

    // The matching client still round-trips.
    client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    cluster.teardown();
}

#[test]
fn connect_refused_is_retried_with_backoff_then_typed() {
    // Bind a port, then drop the listener: connects now get refused.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);

    // Jitter off so the backoff schedule (4ms, then 8ms) is exact.
    let policy = RetryPolicy {
        attempts: 3,
        base_delay: Duration::from_millis(4),
        jitter: false,
        ..RetryPolicy::default()
    };
    let t0 = Instant::now();
    let err = NodeConn::connect(addr, &policy).unwrap_err();
    let elapsed = t0.elapsed();
    match err {
        NodeError::ConnectFailed { addr: a, attempts } => {
            assert_eq!(a, addr);
            assert_eq!(attempts, 3);
        }
        other => panic!("expected ConnectFailed, got {other:?}"),
    }
    // Two backoff sleeps happened between the three attempts: 4ms + 8ms.
    assert!(
        elapsed >= Duration::from_millis(12),
        "backoff too short: {elapsed:?}"
    );
}

#[test]
fn manifest_round_trips_through_registration() {
    let cluster = Cluster::boot(5, "manifest");
    let mut client = cluster.client(CodeSpec::RS_10_4);
    let data = test_file(CodeSpec::RS_10_4.data_blocks() * CHUNK + 999);
    let manifest = client.put(&data).unwrap();

    // Serialize, reload in a *fresh* directory (new cluster epoch), and
    // read the file back through registration alone.
    let encoded = manifest.encode();
    let reloaded = xorbas_node::Manifest::decode(&encoded).unwrap();
    assert_eq!(reloaded.file_len, manifest.file_len);
    assert_eq!(reloaded.stripes.len(), manifest.stripes.len());

    let mut fresh = cluster.client(CodeSpec::RS_10_4);
    fresh.register_manifest(&reloaded).unwrap();
    let mut buf = Vec::new();
    fresh.get(&reloaded, &mut buf).unwrap();
    assert_eq!(buf, data);
    cluster.teardown();
}
