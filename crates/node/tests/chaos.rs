//! Fault-injection integration: the storage fault sites tear and rot
//! as specified, the scrubber finds every rotted chunk within one cycle
//! and routes it through the ordinary repair pipeline, and the chaos
//! scenario — five servers behind a WAL-backed directory, a seeded
//! fault plan, a kill and a restart mid-run — never serves a wrong
//! byte, never loses a read, and converges back to full redundancy
//! with every acked file bit-identical: on the two CI seeds, on a
//! 32-seed sweep (`#[ignore]`d), and with each live fault site fired
//! alone at each of its first call indices.
//!
//! The fault plan is process-global, so the tests in this binary
//! serialize on `PLAN_GATE` — one armed plan at a time.

mod common;

use common::{settled_stats, test_file, Cluster, CHUNK};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xorbas_core::{CodeSpec, Codec};
use xorbas_node::client::ReadKind;
use xorbas_node::{
    chunk_digest, fault, ChunkStore, ClusterClient, FaultPlan, Manifest, NodeConn, NodeError,
    RepairAgent, RepairAgentConfig, RepairStatsSnapshot, RetryPolicy, ScrubConfig, Site,
};

static PLAN_GATE: Mutex<()> = Mutex::new(());

/// Disarms the global plan even if the test panics mid-way, so a
/// failure here cannot cascade into the other test.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        fault::disarm();
    }
}

/// The first seed whose plan, armed, answers `wanted` with `true`. The
/// closure draws from the armed plan's sites (`fault::hit`), so it can
/// ask for a firing at exactly the draws it needs.
fn seed_where(plan: impl Fn(u64) -> FaultPlan, wanted: impl Fn() -> bool) -> u64 {
    (0u64..)
        .find(|&seed| {
            fault::arm(plan(seed));
            wanted()
        })
        .unwrap()
}

/// The servers whose chunk store holds a torn `.tmp`.
fn servers_that_tore_a_write(cluster: &Cluster) -> Vec<usize> {
    (0..cluster.servers.len())
        .filter(|&sid| {
            std::fs::read_dir(cluster.servers[sid].data_dir())
                .unwrap()
                .flatten()
                .any(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        })
        .collect()
}

/// Returns once two listings of every server's data dir, 20 ms apart,
/// agree and hold no temp file: no handler thread is still storing a PUT
/// that an aborted put left in its socket. Timing only decides which
/// chunk write an armed plan's next draw falls on, never what a test
/// may conclude from it.
fn wait_until_stores_are_quiet(cluster: &Cluster) {
    let listing = || {
        let mut files: Vec<_> = cluster
            .servers
            .iter()
            .flat_map(|s| std::fs::read_dir(s.data_dir()).unwrap().flatten())
            .map(|e| e.path())
            .collect();
        files.sort();
        files
    };
    let mut last = listing();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = listing();
        if now == last && now.iter().all(|p| p.extension().is_none_or(|x| x != "tmp")) {
            return;
        }
        last = now;
    }
}

/// Reads every chunk of a one-stripe file over a fresh connection to
/// the server the manifest names for it: digest-verified by
/// `get_chunk`, and the data lanes compared with `data`.
fn read_back_every_chunk(cluster: &Cluster, manifest: &Manifest, data: &[u8]) {
    let entry = &manifest.stripes[0];
    let mut buf = Vec::new();
    for (lane, &sid) in entry.servers.iter().enumerate() {
        let mut conn =
            NodeConn::connect(cluster.servers[sid].addr(), &RetryPolicy::default()).unwrap();
        conn.get_chunk(entry.id, lane as u32, &mut buf)
            .unwrap_or_else(|e| panic!("lane {lane} is not on server {sid}: {e}"));
        if let Some(want) = data.chunks(CHUNK).nth(lane) {
            assert!(buf == want, "lane {lane} on server {sid} holds other bytes");
        }
    }
}

/// The torn-write fault site leaves a `.tmp` and fails the put; the
/// bit-flip site silently rots an acked chunk for the digest check to
/// catch. It arms both sites at 1000‰, so it lives here, behind the
/// gate, and not among the chunk store's unit tests: those share one
/// process with every other unit test that reaches a fault site.
#[test]
fn fault_sites_tear_and_rot_as_specified() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let dir = std::env::temp_dir().join(format!("xorbas_chaos_{}_sites", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ChunkStore::open(&dir).unwrap();
    let payload = vec![0x77u8; 1024];
    let digest = chunk_digest(&payload);

    fault::arm(FaultPlan::new(5).with(Site::TornWrite, 1000));
    let err = store.put(21, 0, digest, &payload).unwrap_err();
    assert!(matches!(err, NodeError::Injected("torn-write")), "{err:?}");
    assert!(!store.exists(21, 0), "torn put never renamed into place");

    fault::arm(FaultPlan::new(5).with(Site::BitFlip, 1000));
    store.put(22, 0, digest, &payload).unwrap();
    fault::disarm();
    let mut out = Vec::new();
    assert!(matches!(
        store.get_into(22, 0, &mut out).unwrap_err(),
        NodeError::ChunkCorrupt {
            stripe: 22,
            lane: 0
        }
    ));
    // Reopening sweeps the torn temp left by the first put.
    drop(store);
    let store = ChunkStore::open(&dir).unwrap();
    let mut locs = Vec::new();
    store.list_chunks(&mut locs).unwrap();
    assert_eq!(locs, vec![(22, 0)]);
    assert!(std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .all(|e| e.path().extension().is_some_and(|x| x == "chunk")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrubber_finds_every_rotted_chunk_in_one_cycle_and_repair_heals_them() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let cluster = Cluster::boot(5, "scrub");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();

    let data = test_file(3 * k * CHUNK);
    let manifest = client.put(&data).unwrap();
    assert_eq!(manifest.stripes.len(), 3);

    // Rot one chunk in each stripe: three independent single losses.
    let rotted: Vec<(u64, u32)> = manifest
        .stripes
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id, (i * 3) as u32))
        .collect();
    for &(stripe, lane) in &rotted {
        cluster.rot_chunk(stripe, lane as usize);
    }

    // No client ever touches the rotted chunks: only the scrubber can
    // find them. One cycle covers every store, so within a generous
    // timeout all three must be flagged — and only those three.
    let agent = cluster.scrubbing_agent(spec);
    let deadline = Instant::now() + Duration::from_secs(60);
    while agent.stats().scrub_corruptions < rotted.len() as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = agent.stats();
    assert_eq!(
        stats.scrub_corruptions,
        rotted.len() as u64,
        "scrubber must flag exactly the rotted chunks: {stats:?}"
    );
    assert!(stats.scrub_chunks > 0 && stats.scrub_bytes > 0);

    // The flags flow into the ordinary scan → repair pipeline.
    assert!(
        agent.wait_until_repaired(Duration::from_secs(60)),
        "repair must drain every scrub-flagged chunk"
    );

    // Digest re-check: every rotted chunk now reads back correct, as
    // does the whole file.
    let mut buf = Vec::new();
    for (i, &(stripe, lane)) in rotted.iter().enumerate() {
        client.read_data_chunk(stripe, lane, &mut buf).unwrap();
        let off = (i * k + lane as usize) * CHUNK;
        assert_eq!(&buf[..], &data[off..off + CHUNK], "chunk healed wrong");
    }
    client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);

    agent.shutdown();
    cluster.teardown();
}

/// The pooled-connection rule under a reply cut short. `serve-reset`
/// sends half a chunk and drops the connection; the server itself stays
/// up. A client whose connection had answered before redials, asks
/// again, and is served directly — the server is never marked dead, so
/// no agent re-places its healthy chunks. The same cut on a connection
/// dialed for that very request is still taken as the server's death.
#[test]
fn a_reply_cut_short_on_a_pooled_connection_is_not_a_dead_server() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let cluster = Cluster::boot(5, "cut");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let data = test_file(spec.data_blocks() * CHUNK);
    let manifest = client.put(&data).unwrap();
    let (stripe, lane) = (manifest.stripes[0].id, 4u32);
    let holder = manifest.stripes[0].servers[lane as usize];
    let want = &data[lane as usize * CHUNK..][..CHUNK];

    // A plan that cuts the first CHUNK reply and none of the next 20.
    let cut_once = |seed| FaultPlan::new(seed).with(Site::ServeReset, 100);
    let seed = seed_where(cut_once, || {
        fault::hit(Site::ServeReset) && !(0..20).any(|_| fault::hit(Site::ServeReset))
    });

    let plan = fault::arm(cut_once(seed));
    let mut buf = Vec::new();
    let kind = client.read_data_chunk(stripe, lane, &mut buf).unwrap();
    assert_eq!(
        plan.counters()[Site::ServeReset as usize],
        ("serve-reset", 2, 1)
    );
    assert_eq!(kind, ReadKind::Direct);
    assert!(buf == want);
    assert!(cluster.lock_dir().is_alive(holder));

    fault::arm(cut_once(seed));
    let mut fresh = cluster.client(spec);
    let kind = fresh.read_data_chunk(stripe, lane, &mut buf).unwrap();
    fault::disarm();
    assert!(matches!(kind, ReadKind::Degraded { .. }), "{kind:?}");
    assert!(buf == want);
    assert!(!cluster.lock_dir().is_alive(holder));
    cluster.teardown();
}

/// The write rule under a torn re-placement. One server of five is
/// dead, and the first chunk the agent writes back is torn by its
/// replacement's disk, which answers `Remote(Io)`. That is no verdict on
/// the replacement and no reason to throw away the reads behind the
/// rebuilt lane: the shared store fails the lane over, as a client put
/// does, and the attempt succeeds. (An agent with its own re-placement
/// loop gave up the attempt and came back a scan round later.)
#[test]
fn a_torn_replacement_write_fails_over_inside_the_repair_attempt() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let cluster = Cluster::boot(5, "tornrepair");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let data = test_file(2 * spec.data_blocks() * CHUNK);
    let manifest = client.put(&data).unwrap();

    // Dead for certain before the agent's first liveness sweep: the
    // listener is gone and the directory knows.
    let victim = 2;
    let lost = manifest
        .stripes
        .iter()
        .flat_map(|s| &s.servers)
        .filter(|&&sid| sid == victim)
        .count() as u64;
    cluster.servers[victim].kill();
    while std::net::TcpStream::connect(cluster.servers[victim].addr()).is_ok() {
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.lock_dir().mark_dead(victim);

    // A plan that tears the first chunk write and none of the next 20
    // (the repair writes `lost` + 1 chunks, at most 9).
    let tear_once = |seed| FaultPlan::new(seed).with(Site::TornWrite, 100);
    let seed = seed_where(tear_once, || {
        fault::hit(Site::TornWrite) && !(0..20).any(|_| fault::hit(Site::TornWrite))
    });

    let plan = fault::arm(tear_once(seed));
    let agent = cluster.agent(spec);
    assert!(
        agent.wait_until_repaired(Duration::from_secs(30)),
        "{:?}",
        agent.stats()
    );
    let stats = settled_stats(&agent, lost);
    agent.shutdown();
    fault::disarm();
    assert_eq!(stats.failed_attempts, 0, "{stats:?}");
    assert_eq!(stats.chunks_repaired, lost, "{stats:?}");
    let (_, calls, fired) = plan.counters()[Site::TornWrite as usize];
    assert!(
        calls >= 2 && fired == 1,
        "torn-write {calls} calls, {fired} fired"
    );

    // The server that tore the write kept its `.tmp` and its good name.
    let tore = servers_that_tore_a_write(&cluster);
    assert_eq!(tore.len(), 1, "{tore:?}");
    assert!(cluster.lock_dir().is_alive(tore[0]));
    assert_eq!(cluster.lock_dir().alive_count(), 4);

    let mut buf = Vec::new();
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(report.degraded_stripes, 0);
    cluster.teardown();
}

/// A put that dies mid-stripe must not leave its half-written stripe in
/// the directory. Left there it is harmless only until a server holding
/// one of its lanes dies: then the repair agent takes it for lost data,
/// finds the never-written lanes missing, and can neither rebuild the
/// stripe nor ever report the cluster repaired.
#[test]
fn crashed_put_leaves_no_half_written_stripe_for_the_agent() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let cluster = Cluster::boot(5, "crashput");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let data = test_file(spec.data_blocks() * CHUNK);
    let manifest = client.put(&data).unwrap();

    // A second put crashes somewhere inside its only stripe.
    fault::arm(FaultPlan::new(7).with(Site::CrashPut, 150));
    assert!(client.put(&data).is_err(), "16 draws at 15% must hit");
    fault::disarm();
    let mut stripes = Vec::new();
    cluster.lock_dir().stripe_ids(&mut stripes);
    assert_eq!(stripes, [manifest.stripes[0].id], "only the acked stripe");

    // Every server holds lanes of every 16-lane stripe, so this kill
    // would have put the half-written one on the agent's list.
    cluster.servers[0].kill();
    let agent = cluster.agent(spec);
    assert!(
        agent.wait_until_repaired(Duration::from_secs(30)),
        "{:?}",
        agent.stats()
    );
    agent.shutdown();
    let mut buf = Vec::new();
    client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    cluster.teardown();
}

/// The write rule in its stripe-wide form, under a torn write among the
/// PUTs in flight on one connection. Best-effort placement deals sixteen
/// lanes over five servers in rounds of five and reshuffles between
/// rounds, so the last lane of a round and the first of the next can
/// share a server; with two PUTs in flight that server's connection then
/// carries both before either ack is read. The second of them is torn.
/// (The store reads lane `i`'s ack before it sends lane `i + 2`, and one
/// connection's PUTs are stored in order, so the servers draw from the
/// plan in lane order up to that lane.) Its server answers `Remote(Io)`
/// behind the `OK` of its neighbour: only that lane fails over, its
/// server keeps its good name, and every other lane stays where it was
/// placed.
#[test]
fn a_torn_put_behind_another_on_its_connection_fails_over_alone() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let cluster = Cluster::boot(5, "tornqueued");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let data = test_file(spec.data_blocks() * CHUNK);

    // Placement is a function of the directory's seed and roster, so a
    // second directory over the same two says where the put's stripe
    // will be placed and where the write rule will move a lane.
    let mut shadow = cluster.shadow_directory();
    let (shadow_id, placed) = shadow.place_stripe(spec.total_blocks()).unwrap();
    let placed = placed.to_vec();
    let replacement = shadow.choose_replacement(shadow_id).unwrap();
    let torn_lane = (1..placed.len())
        .find(|&lane| placed[lane - 1] == placed[lane])
        .expect("two neighbouring lanes on one server");

    let tear_that_one = |seed| FaultPlan::new(seed).with(Site::TornWrite, 50);
    let seed = seed_where(tear_that_one, || {
        !(0..torn_lane).any(|_| fault::hit(Site::TornWrite))
            && fault::hit(Site::TornWrite)
            && !(0..40).any(|_| fault::hit(Site::TornWrite))
    });
    let plan = fault::arm(tear_that_one(seed));
    let manifest = client.put(&data).unwrap();
    fault::disarm();
    assert_eq!(
        plan.counters()[Site::TornWrite as usize],
        ("torn-write", 17, 1),
        "sixteen first choices and one failover"
    );

    assert_eq!(servers_that_tore_a_write(&cluster), [placed[torn_lane]]);
    assert_eq!(cluster.lock_dir().alive_count(), 5);
    let servers = &manifest.stripes[0].servers;
    let moved: Vec<usize> = (0..placed.len())
        .filter(|&lane| servers[lane] != placed[lane])
        .collect();
    // (The policy may hand the lane back to the server that tore it:
    // all five hold lanes of the stripe, so any live one qualifies.)
    if replacement == placed[torn_lane] {
        assert!(moved.is_empty(), "{moved:?}");
    } else {
        assert_eq!(moved, [torn_lane], "only the torn lane moves");
        assert_eq!(servers[torn_lane], replacement);
    }
    assert_eq!(cluster.lock_dir().servers_of(shadow_id).unwrap(), servers);

    read_back_every_chunk(&cluster, &manifest, &data);
    let mut buf = Vec::new();
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(report.degraded_stripes, 0);
    cluster.teardown();
}

/// No ack outlives its request. A put dies between two lane sends with
/// its last two PUTs on the wire and their acks unread. An `OK` frame
/// does not say which PUT it answers, so a connection left open would
/// hand such an ack to the next put — which then believes a chunk stored
/// that its server refused: here the put dies owing acks on the two
/// connections the next put's first two lanes will use, the first chunk
/// write of that put is torn, and the stale `OK` read in place of its
/// `Remote(Io)` would put the tearing server in the manifest for a chunk
/// it does not hold. The store closes every connection still owed an ack
/// before it returns, as `StripeIo::fail` does for CHUNK replies
/// (`a_failure_mid_fetch_leaves_no_reply_for_a_later_request`).
#[test]
fn a_put_aborted_mid_issue_leaves_no_ack_for_a_later_request() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let cluster = Cluster::boot(5, "staleack");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let data = test_file(spec.data_blocks() * CHUNK);

    // Where the dying put's stripe and the next put's will be placed.
    // The next put sends its first two lanes before it reads an ack, so
    // either of their servers may make the first chunk write: the put
    // must die right after sending to those two, whose connections then
    // both owe an ack.
    let mut shadow = cluster.shadow_directory();
    let dying = shadow.place_stripe(spec.total_blocks()).unwrap().1.to_vec();
    let next = shadow.place_stripe(spec.total_blocks()).unwrap().1[..2].to_vec();
    let sent = (2..dying.len())
        .find(|&sent| {
            let owed = [dying[sent - 2], dying[sent - 1]];
            owed.contains(&next[0]) && owed.contains(&next[1])
        })
        .expect("two neighbouring lanes on the next stripe's first two servers");

    // One draw before every lane send: none fires for the first `sent`
    // lanes, the next one does.
    let crash_then = |seed| FaultPlan::new(seed).with(Site::CrashPut, 100);
    let seed = seed_where(crash_then, || {
        !(0..sent).any(|_| fault::hit(Site::CrashPut)) && fault::hit(Site::CrashPut)
    });
    let plan = fault::arm(crash_then(seed));
    let err = client.put(&data).unwrap_err();
    fault::disarm();
    assert!(matches!(err, NodeError::Injected("crash-put")), "{err:?}");
    let (_, draws, fired) = plan.counters()[Site::CrashPut as usize];
    assert_eq!((draws, fired), (sent as u64 + 1, 1));

    // The next put on the same client: its first chunk write is torn,
    // none of the next 40.
    wait_until_stores_are_quiet(&cluster);
    let tear_once = |seed| FaultPlan::new(seed).with(Site::TornWrite, 50);
    let seed = seed_where(tear_once, || {
        fault::hit(Site::TornWrite) && !(0..40).any(|_| fault::hit(Site::TornWrite))
    });
    let plan = fault::arm(tear_once(seed));
    let manifest = client.put(&data).unwrap();
    fault::disarm();
    let (_, _, fired) = plan.counters()[Site::TornWrite as usize];
    assert!(fired >= 1, "the plan tore nothing");

    read_back_every_chunk(&cluster, &manifest, &data);
    let tore = servers_that_tore_a_write(&cluster);
    assert!(tore.len() == 1 && next.contains(&tore[0]), "{tore:?}");
    assert!(cluster.lock_dir().is_alive(tore[0]));
    let mut buf = Vec::new();
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(report.degraded_stripes, 0);
    cluster.teardown();
}

/// A put that fails forgets every stripe it placed, not only the one in
/// flight. The stripes before it were stored whole, but no manifest will
/// ever name them: left in the live directory they are repaired for ever
/// after a server death — recovery traffic for a file nobody can read —
/// and a restart, which keeps only placements a manifest references,
/// drops them, so the live state and its own replay disagree.
#[test]
fn a_failed_put_forgets_every_stripe_it_placed() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let cluster = Cluster::boot_persistent(5, "forget");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();
    let acked = client.put(&test_file(k * CHUNK)).unwrap();

    // A three-stripe put that crashes in its second stripe: none of the
    // first stripe's 16 draws fires, one of the second's does.
    let crash_in_second = |seed| FaultPlan::new(seed).with(Site::CrashPut, 60);
    let seed = seed_where(crash_in_second, || {
        !(0..16).any(|_| fault::hit(Site::CrashPut)) && (0..16).any(|_| fault::hit(Site::CrashPut))
    });
    let plan = fault::arm(crash_in_second(seed));
    let err = client.put(&test_file(3 * k * CHUNK)).unwrap_err();
    fault::disarm();
    assert!(matches!(err, NodeError::Injected("crash-put")), "{err:?}");
    let (_, draws, fired) = plan.counters()[Site::CrashPut as usize];
    assert!((17..=32).contains(&draws) && fired == 1, "{draws} {fired}");

    let mut live = Vec::new();
    cluster.lock_dir().stripe_ids(&mut live);
    assert_eq!(live, [acked.stripes[0].id], "only the acked stripe");

    drop(client);
    let (cluster, manifests) = cluster.restart_coordinator();
    assert_eq!(manifests, [acked]);
    let mut replayed = Vec::new();
    cluster.lock_dir().stripe_ids(&mut replayed);
    assert_eq!(replayed, live, "replay agrees with the live directory");
    cluster.teardown();
}

/// Servers in a chaos run, one rack each; the last one is killed and
/// restarted mid-run.
const SERVERS: usize = 5;
/// Budget one read call may spend before it counts as stuck.
const READ_DEADLINE: Duration = Duration::from_secs(5);
const WRITE_MIX_PCT: u64 = 10;

/// What a chaos run stores and does. The victim is killed at 40% of
/// the ops and restarted on its data dir at 70%.
struct Shape {
    chunk: usize,
    files: usize,
    file_bytes: usize,
    ops: usize,
    /// Keep the victim dead until the agent has re-placed every lane it
    /// held, so the repair path (and its `crash-repair` site) is reached
    /// whatever the timing.
    drain_before_restart: bool,
}

/// The scenario CI runs on two seeds: two 2 MiB files in 256 KiB
/// chunks, 200 ops.
const FULL: Shape = Shape {
    chunk: 256 << 10,
    files: 2,
    file_bytes: 2 << 20,
    ops: 200,
    drain_before_restart: false,
};

/// The scenario each single-fault case runs: one three-stripe file in
/// 64 KiB chunks, 40 ops.
const SMALL: Shape = Shape {
    chunk: CHUNK,
    files: 1,
    file_bytes: 3 * 10 * CHUNK,
    ops: 40,
    drain_before_restart: true,
};

/// What a chaos run saw; every failure message prints it whole.
#[derive(Debug, Default)]
struct ChaosResult {
    read_ops: u64,
    write_ops: u64,
    direct_reads: u64,
    degraded_reads: u64,
    degraded_light: u64,
    retried_reads: u64,
    /// Reads that found no copy within [`READ_DEADLINE`].
    failed_reads: u64,
    /// Reads that returned bytes differing from the kept file.
    corrupt_reads: u64,
    /// Read calls whose single invocation blew [`READ_DEADLINE`].
    deadline_misses: u64,
    put_retries: u64,
    repair_converged: bool,
    /// Every acked file read back whole and equal to what was put.
    bit_identical: bool,
    /// The plan's `(site, calls, fired)` counters.
    injected: Vec<(&'static str, u64, u64)>,
    repair: RepairStatsSnapshot,
}

impl ChaosResult {
    /// The invariants every run must hold, whatever it injected;
    /// `case` names the run in the failure message.
    fn assert_held(&self, case: impl std::fmt::Display) {
        assert_eq!(self.failed_reads, 0, "{case}: failed reads: {self:#?}");
        assert_eq!(self.corrupt_reads, 0, "{case}: wrong bytes: {self:#?}");
        assert_eq!(self.deadline_misses, 0, "{case}: stuck reads: {self:#?}");
        assert!(self.repair_converged, "{case}: no convergence: {self:#?}");
        assert!(
            self.bit_identical,
            "{case}: an acked file changed: {self:#?}"
        );
    }

    fn fired(&self, site: Site) -> u64 {
        self.injected[site as usize].2
    }
}

/// The fault mix a seeded run arms: every live site lit, at rates that
/// fire each failure mode a few times in 200 ops while the cluster
/// still converges.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(Site::ConnectRefuse, 20)
        .with(Site::ServeReset, 12)
        .with_param(Site::ServeStall, 8, 40)
        .with(Site::TornWrite, 12)
        .with(Site::BitFlip, 25)
        .with(Site::CrashPut, 6)
        .with(Site::CrashRepair, 30)
}

/// The full scenario under `seed`'s plan.
fn chaos_run(seed: u64) -> ChaosResult {
    scenario(&FULL, seed, chaos_plan(seed))
}

/// A file of `len` bytes drawn from `seed`: no two files, and no two
/// chunks, share their bytes, so a lane served from the wrong stripe
/// or file cannot pass for the right one.
fn seeded_file(seed: u64, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    StdRng::seed_from_u64(seed).fill_bytes(&mut data);
    data
}

/// Puts with retry: an injected crash (or a put that lost its race
/// with a dying server) is retried; only an `Ok` counts as the ack.
fn put_acked(client: &mut ClusterClient, data: &[u8], retries: &mut u64) -> Manifest {
    for _ in 0..10 {
        match client.put(data) {
            Ok(m) => return m,
            Err(_) => {
                *retries += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    panic!("ten puts in a row failed");
}

/// Boots five servers behind a WAL-backed directory, arms `plan`, puts
/// `shape`'s files, starts a scrubbing agent, then runs `shape.ops` ops
/// (10% one-stripe writes, the rest single-chunk reads checked byte for
/// byte and held to [`READ_DEADLINE`]) while one server is killed and
/// later restarted. Then it disarms, lets scrub and repair drain, and
/// reads every acked file back.
fn scenario(shape: &Shape, seed: u64, plan: FaultPlan) -> ChaosResult {
    let spec = CodeSpec::LRC_10_6_5;
    let k = spec.data_blocks();
    let mut cluster = Cluster::boot_persistent(SERVERS, "chaos");
    let plan = fault::arm(plan);
    let mut client = ClusterClient::new(
        Codec::build(spec).unwrap(),
        shape.chunk,
        Arc::clone(&cluster.directory),
        RetryPolicy::default(),
        cluster.sessions.clone(),
    );
    let mut result = ChaosResult::default();

    let mut files: Vec<(Manifest, Vec<u8>)> = Vec::new();
    for file in 0..shape.files as u64 {
        let data = seeded_file(seed ^ ((file + 1) << 32), shape.file_bytes);
        let manifest = put_acked(&mut client, &data, &mut result.put_retries);
        files.push((manifest, data));
    }

    let mut cfg = RepairAgentConfig::new(shape.chunk);
    cfg.probe_rounds = 4;
    let stores = cluster.servers.iter().map(|s| s.data_dir().clone());
    cfg.scrub = Some(ScrubConfig::new(stores.enumerate().collect()));
    let agent = RepairAgent::start(
        Codec::build(spec).unwrap(),
        Arc::clone(&cluster.directory),
        cluster.sessions.clone(),
        cfg,
    )
    .unwrap();

    // (file, stripe position, stripe id) for every acked stripe.
    let mut stripes: Vec<(usize, usize, u64)> = Vec::new();
    for (fi, (m, _)) in files.iter().enumerate() {
        stripes.extend(m.stripes.iter().enumerate().map(|(pos, s)| (fi, pos, s.id)));
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let (mut buf, mut expect) = (Vec::new(), Vec::new());
    let (kill_at, restart_at) = (shape.ops * 2 / 5, shape.ops * 7 / 10);
    let victim = SERVERS - 1;
    for op in 0..shape.ops {
        if op == kill_at {
            cluster.servers[victim].kill();
        }
        if op == restart_at {
            if shape.drain_before_restart {
                let dead_by = Instant::now() + Duration::from_secs(10);
                while cluster.lock_dir().is_alive(victim) && Instant::now() < dead_by {
                    std::thread::sleep(Duration::from_millis(5));
                }
                agent.wait_until_repaired(Duration::from_secs(30));
            }
            // A new ephemeral port: the roster learns the address
            // before the revival.
            let addr = cluster.restart_server(victim);
            let mut dir = cluster.lock_dir();
            dir.set_addr(victim, addr);
            dir.mark_alive(victim);
        }

        let is_write =
            rng.gen_range(0..100u64) < WRITE_MIX_PCT && op != kill_at && op != restart_at;
        if is_write {
            result.write_ops += 1;
            let data = seeded_file(seed ^ 0xABCD ^ (result.write_ops << 40), k * shape.chunk);
            let manifest = put_acked(&mut client, &data, &mut result.put_retries);
            let fi = files.len();
            stripes.extend(
                manifest
                    .stripes
                    .iter()
                    .enumerate()
                    .map(|(pos, s)| (fi, pos, s.id)),
            );
            files.push((manifest, data));
            continue;
        }

        result.read_ops += 1;
        let (fi, pos, stripe) = stripes[rng.gen_range(0..stripes.len())];
        let lane = rng.gen_range(0..k as u32);
        let op_start = Instant::now();
        let served = loop {
            let t0 = Instant::now();
            let res = client.read_data_chunk(stripe, lane, &mut buf);
            if t0.elapsed() > READ_DEADLINE {
                result.deadline_misses += 1;
            }
            match res {
                Ok(kind) => break Some(kind),
                Err(_) if op_start.elapsed() >= READ_DEADLINE => break None,
                Err(_) => {
                    result.retried_reads += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        match served {
            Some(ReadKind::Direct) => result.direct_reads += 1,
            Some(ReadKind::Degraded { light }) => {
                result.degraded_reads += 1;
                result.degraded_light += u64::from(light);
            }
            None => {
                result.failed_reads += 1;
                continue;
            }
        }
        // The chunk is the file's slice at `pos * k + lane`, zero-padded.
        let file = &files[fi].1;
        let off = ((pos * k + lane as usize) * shape.chunk).min(file.len());
        let take = (file.len() - off).min(buf.len());
        expect.clear();
        expect.extend_from_slice(&file[off..off + take]);
        expect.resize(buf.len(), 0);
        if buf != expect {
            result.corrupt_reads += 1;
        }
    }

    // Stop injecting; two full scrub cycles find what rotted, then the
    // agent must restore full redundancy.
    fault::disarm();
    let cycles = agent.stats().scrub_cycles;
    let scrub_wait = Instant::now() + Duration::from_secs(60);
    while agent.stats().scrub_cycles < cycles + 2 && Instant::now() < scrub_wait {
        std::thread::sleep(Duration::from_millis(10));
    }
    result.repair_converged = agent.wait_until_repaired(Duration::from_secs(120));

    let mut got = Vec::new();
    result.bit_identical = files
        .iter()
        .all(|(m, data)| client.get(m, &mut got).is_ok() && got == *data);
    result.repair = agent.stats();
    result.injected = plan.counters().to_vec();
    agent.shutdown();
    cluster.teardown();
    result
}

/// Runs the full scenario on each seed: the invariants hold and the
/// plan fired at least once.
fn assert_seeds_pass(seeds: impl IntoIterator<Item = u64>) {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    for seed in seeds {
        let r = chaos_run(seed);
        r.assert_held(format_args!("seed {seed}"));
        let fired = r.injected.iter().any(|&(_, _, fired)| fired > 0);
        assert!(fired, "seed {seed}: the plan never fired: {r:#?}");
    }
}

/// The two seeds CI has always run through the chaos scenario.
#[test]
fn chaos_seeds_keep_every_read_right_and_converge() {
    assert_seeds_pass([20130826, 20130827]);
}

/// The seed sweep, 32 seeds from the CI pair's first:
/// `cargo test --release -p xorbas_node --test chaos -- --ignored`.
#[test]
#[ignore]
fn chaos_sweep_of_32_seeds() {
    assert_seeds_pass(20130826..20130826 + 32);
}

/// Single faults, enumerated: for every live site and each of its first
/// `CALLS` call indices, the small scenario with that one fault armed
/// (a `serve-stall` holds its reply 40 ms). Each case must hold the
/// invariants and fire its site exactly once, so a site the scenario
/// never reaches fails rather than passing vacuously.
#[test]
fn every_single_fault_at_every_early_call_keeps_the_invariants() {
    const CALLS: u64 = 6;
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    for site in Site::ALL {
        for call in 0..CALLS {
            let plan = FaultPlan::new(0)
                .with_param(site, 1000, 40)
                .once(site, call);
            let r = scenario(&SMALL, 20130826, plan);
            let case = format!("{} at call {call}", site.name());
            r.assert_held(&case);
            assert_eq!(r.fired(site), 1, "{case}: {r:#?}");
        }
    }
}
