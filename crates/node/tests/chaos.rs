//! Fault-injection integration: the storage fault sites tear and rot
//! as specified, the scrubber finds every rotted chunk within one cycle
//! and routes it through the ordinary repair pipeline, and client
//! traffic under an armed fault plan never returns a wrong byte.
//!
//! The fault plan is process-global, so the tests in this binary
//! serialize on `PLAN_GATE` — one armed plan at a time.

mod common;

use common::{settled_stats, test_file, Cluster, CHUNK};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use xorbas_core::CodeSpec;
use xorbas_node::client::ReadKind;
use xorbas_node::{
    chunk_digest, fault, ChunkStore, FaultPlan, Manifest, NodeConn, NodeError, RetryPolicy, Site,
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

#[test]
fn armed_fault_plan_returns_only_correct_bytes() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let plan = fault::arm(
        FaultPlan::new(42)
            .with(Site::ConnectRefuse, 30)
            .with(Site::ServeReset, 20)
            .with_param(Site::ServeStall, 10, 20)
            .with(Site::TornWrite, 15)
            .with(Site::BitFlip, 20)
            .with(Site::CrashPut, 8),
    );

    let cluster = Cluster::boot(5, "armed");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();
    let data = test_file(2 * k * CHUNK);

    // The agent runs throughout, as it would in production: its
    // liveness probe revives servers that injected resets smeared as
    // dead, and its repair loop drains the corruption the plan plants
    // — without it, unavailability only accumulates.
    let agent = cluster.scrubbing_agent(spec);

    // Puts may be killed by injection; only an Ok is an ack.
    let manifest = loop {
        match client.put(&data) {
            Ok(m) => break m,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };

    // Hammer reads under fire: a read may need retries, but within a
    // deadline it must succeed and the bytes must be exactly right.
    let mut buf = Vec::new();
    let mut rng = 42u64;
    for _ in 0..80 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        let pos = (rng >> 33) as usize % manifest.stripes.len();
        let lane = ((rng >> 13) % k as u64) as u32;
        let stripe = manifest.stripes[pos].id;
        let op_deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.read_data_chunk(stripe, lane, &mut buf) {
                Ok(_) => break,
                Err(e) => {
                    assert!(
                        Instant::now() < op_deadline,
                        "read stuck past its deadline under chaos: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        let off = (pos * k + lane as usize) * CHUNK;
        assert_eq!(
            &buf[..],
            &data[off..off + CHUNK],
            "chaos served wrong bytes"
        );
    }
    assert!(
        plan.counters().iter().any(|(_, _, fired)| *fired > 0),
        "the plan never injected anything — rates too low for the run"
    );

    // Quiesce and heal: with injection off, repair + scrub converge
    // and the file reads back bit-identical.
    fault::disarm();
    assert!(agent.wait_until_repaired(Duration::from_secs(120)));
    client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);

    agent.shutdown();
    cluster.teardown();
}
