//! Per-op heap-allocation budgets, counted at run time and pinned at
//! the measured values.
//!
//! A counting global allocator keeps two counts: the calling thread's,
//! and the whole process's (every thread: chunk-server handlers, the
//! put pipeline's encoder, the repair agent and its scrubber). Each op
//! is warmed up first. Then:
//!
//! * codec encode and session replay allocate nothing on the calling
//!   thread, and a compiled [`RepairSession`](xorbas_core::RepairSession)
//!   never solves again (the `decode_solve_count` hook), while compiling
//!   a session per call (`owned::repair`) re-solves every call;
//! * so do the three fused GF kernels, at full fuse width, with no
//!   sources, and with a scalar tail;
//! * the simulator's allocations over a fixed seeded window of events
//!   are pinned;
//! * on a loopback cluster, a direct read, a degraded read and a
//!   one-stripe put are pinned on the client thread and over all
//!   threads, each the median over a batch of repetitions, so an
//!   amortised growth step cannot make the pin flaky;
//! * so are the repair agent's idle rounds, one scrub cycle and a
//!   three-chunk repair, over all threads.
//!
//! An op that starts a thread (the put's encoder, the repair's worker)
//! may read up to two above its pin per thread: see [`Budget::slack`].
//!
//! `cargo test --test alloc_budgets` prints every pin as `budget <op>:
//! <count>`, with or without `--nocapture`. The file has no libtest
//! harness (`harness = false` in the root `Cargo.toml`): the
//! process-wide count sees every thread, so nothing may run beside it,
//! and libtest's output-capture hook would allocate in every thread an
//! op starts.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use xorbas_core::{
    decode_solve_count, owned, CodeSpec, Codec, ErasureCodec, Lrc, LrcSpec, PiggybackRs,
    ReedSolomon, Replication, StripeViewMut,
};
use xorbas_gf::slice_ops::{payload_mul_acc_multi, xor_into_multi};
use xorbas_gf::{Field, Gf256, Gf65536, KernelBackend};
use xorbas_node::client::{ReadKind, SessionCache};
use xorbas_node::{
    ChunkServer, ClusterClient, Directory, RepairAgent, RepairAgentConfig, RetryPolicy,
    ScrubConfig, ServerConfig,
};
use xorbas_sim::{SimConfig, SimTime, Simulation};

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// Allocations by every thread. `SeqCst`, so a count read after another
/// thread's progress counter includes the allocations made before it.
static PROCESS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        THREAD.with(|c| c.set(c.get() + 1));
        PROCESS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: delegates every operation to `System`; the counter updates are
// a plain thread-local `Cell` write and an atomic add, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (nonzero
    // layout); forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    // SAFETY: caller passes a pointer previously returned by this
    // allocator with its original layout; forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `dealloc` plus a nonzero `new_size`;
    // forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations on the calling thread and over the whole process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Count {
    thread: u64,
    process: u64,
}

fn now() -> Count {
    Count {
        thread: THREAD.with(Cell::get),
        process: PROCESS.load(Ordering::SeqCst),
    }
}

fn since(start: Count) -> Count {
    let end = now();
    Count {
        thread: end.thread - start.thread,
        process: end.process - start.process,
    }
}

fn counted(op: impl FnOnce()) -> Count {
    let start = now();
    op();
    since(start)
}

/// One warm-up run of `op`, then the median of each count over
/// [`REPS`] runs; `op` returns the count of its own measured part.
///
/// The median, not the minimum: besides amortised growth steps, which
/// add to a few runs, now and then a run allocates less than the rest.
/// A put's client thread, for one, registers with the encoder's channel
/// only when it has to wait for the stripe, and once in a while the
/// stripe is there first.
fn median_over(mut op: impl FnMut() -> Count) -> Count {
    op();
    let runs: Vec<Count> = (0..REPS).map(|_| op()).collect();
    let median = |count: fn(&Count) -> u64| {
        let mut v: Vec<u64> = runs.iter().map(count).collect();
        v.sort_unstable();
        v[REPS / 2]
    };
    Count {
        thread: median(|c| c.thread),
        process: median(|c| c.process),
    }
}

/// One op's measured count and its pin.
#[derive(Debug)]
struct Budget {
    op: String,
    got: u64,
    pin: u64,
    /// How far above `pin` the count may read: two per thread the op
    /// starts. Starting a thread inserts it into std's process-wide
    /// thread registry (the stack-overflow handler's `BTreeMap`, keyed
    /// by an address in the new thread's stack). The insert allocates a
    /// node when it splits a full leaf, and another when that fills the
    /// leaf's parent; with the test cluster's ~160 threads the tree is
    /// three levels deep and its root far from full, so it allocates no
    /// more. Whether it splits depends on where the stacks landed: it
    /// changes from process to process, not from one repetition to the
    /// next.
    slack: u64,
}

impl Budget {
    fn exact(op: impl Into<String>, got: u64, pin: u64) -> Self {
        let (op, slack) = (op.into(), 0);
        Self {
            op,
            got,
            pin,
            slack,
        }
    }

    /// A pin for an op that starts `threads` threads and handles
    /// `chunks` chunks: one extra allocation per chunk still goes past
    /// the slack.
    fn starting_threads(op: &str, got: u64, pin: u64, threads: u64, chunks: u64) -> Self {
        let slack = 2 * threads;
        assert!(
            slack < chunks,
            "{op}: slack {slack} hides a per-chunk allocation"
        );
        Self {
            slack,
            ..Self::exact(op, got, pin)
        }
    }
}

/// Measures every op, prints each count as a `budget` line, then
/// asserts each is on its pin. Test-harness arguments (filters,
/// `--nocapture`) are ignored: every run measures everything.
fn main() {
    let budgets: Vec<Budget> = [
        codec_encode_and_session_replay,
        fused_gf_kernels,
        simulator_event_window,
        node_reads_and_puts,
        repair_agent_rounds_scrubs_and_repairs,
    ]
    .into_iter()
    .flat_map(|measure| measure())
    .collect();
    for b in &budgets {
        println!("budget {}: {}", b.op, b.got);
    }
    let off: Vec<&Budget> = budgets
        .iter()
        .filter(|b| !(b.pin..=b.pin + b.slack).contains(&b.got))
        .collect();
    assert!(off.is_empty(), "off their pins: {off:#?}");
}

fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|j| ((i * 53 + j * 11 + 1) % 256) as u8)
                .collect()
        })
        .collect()
}

/// Allocations of one steady-state `encode_into`, after checking the
/// parity against the owned helper.
fn encode_allocs<C: ErasureCodec>(codec: &C) -> u64 {
    let k = codec.data_blocks();
    let m = codec.total_blocks() - k;
    const LEN: usize = 4096;
    let data = sample_data(k, LEN);
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; LEN]; m];
    let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
    codec.encode_into(&data_refs, &mut parity_refs).unwrap();
    let allocs = counted(|| {
        for _ in 0..10 {
            codec.encode_into(&data_refs, &mut parity_refs).unwrap();
        }
    });
    let stripe = owned::encode(codec, &data).unwrap();
    assert_eq!(&stripe[k..], &parity[..], "parity mismatch");
    allocs.thread
}

/// Compiles the session for `missing` (asserting it runs `solves`
/// linear solves), replays it 25 times after a warm-up, checks the
/// repaired lanes and that the replays never solved, and returns the
/// replays' allocations.
fn replay_allocs<C: ErasureCodec>(codec: &C, missing: &[usize], solves: usize) -> u64 {
    let before_compile = decode_solve_count();
    let session = codec.repair_session(missing).unwrap();
    assert_eq!(decode_solve_count(), before_compile + solves as u64);
    assert_eq!(session.solve_count(), solves);

    const LEN: usize = 2048;
    let stripe = owned::encode(codec, &sample_data(codec.data_blocks(), LEN)).unwrap();
    let mut lanes = stripe.clone();
    for &e in missing {
        lanes[e].fill(0xEE);
    }
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    let mut replay = || {
        let mut view = StripeViewMut::new(&mut lane_refs, missing).unwrap();
        session.repair(&mut view).unwrap();
    };
    replay();
    let solves_before = decode_solve_count();
    let allocs = counted(|| (0..25).for_each(|_| replay()));
    assert_eq!(
        decode_solve_count(),
        solves_before,
        "replay re-ran the solve"
    );
    assert_eq!(lanes, stripe);
    allocs.thread
}

fn codec_encode_and_session_replay() -> Vec<Budget> {
    let rs: ReedSolomon<Gf256> = ReedSolomon::new(10, 4).unwrap();
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    let pb: PiggybackRs<Gf256> = PiggybackRs::new(10, 4).unwrap();
    let rep = Replication::new(3).unwrap();
    // A wide-field (not wide-lane) geometry keeps this quick while it
    // runs the same GF(2^16) kernels a 260-lane stripe runs.
    let rs16: ReedSolomon<Gf65536> = ReedSolomon::new(12, 4).unwrap();
    let lrc16: Lrc<Gf65536> = Lrc::new(LrcSpec {
        k: 8,
        global_parities: 3,
        group_size: 4,
        implied_parity: true,
    })
    .unwrap();
    let budgets = [
        ("encode rs(10,4)", encode_allocs(&rs)),
        ("encode lrc(10,6,5)", encode_allocs(&lrc)),
        ("encode pb(10,4)", encode_allocs(&pb)),
        ("encode 3-replication", encode_allocs(&rep)),
        ("encode rs(12,4)/gf65536", encode_allocs(&rs16)),
        ("encode lrc(8,5,4)/gf65536", encode_allocs(&lrc16)),
        ("replay rs(10,4) heavy", replay_allocs(&rs, &[3, 7], 1)),
        ("replay lrc(10,6,5) light", replay_allocs(&lrc, &[2], 0)),
        // The piggyback fast path decodes one data lane from k + 1
        // lanes' halves; the general path replays the compiled rows
        // plus the piggyback corrections.
        ("replay pb(10,4) fast path", replay_allocs(&pb, &[4], 1)),
        ("replay pb(10,4) general", replay_allocs(&pb, &[0, 12], 1)),
        ("replay 3-replication copy", replay_allocs(&rep, &[0, 2], 0)),
        ("replay rs(12,4)/gf65536", replay_allocs(&rs16, &[1, 9], 1)),
        ("replay lrc(8,5,4)/gf65536", replay_allocs(&lrc16, &[2], 0)),
    ];
    let budgets = budgets.map(|(op, got)| Budget::exact(op, got, 0));

    // Contrast: compiling a session per call, as the owned helper does,
    // re-solves every time.
    let stripe = owned::encode(&rs, &sample_data(10, 2048)).unwrap();
    let before = decode_solve_count();
    for _ in 0..5 {
        owned::repair(&rs, &mut stripe.clone(), &[3, 7]).unwrap();
    }
    assert_eq!(decode_solve_count() - before, 5);
    budgets.into()
}

fn fused_gf_kernels() -> Vec<Budget> {
    // The pass runs the backend `XORBAS_KERNEL_BACKEND` names (CI's
    // scalar pass), not a silent fallback.
    let backend = KernelBackend::active();
    let requested = std::env::var("XORBAS_KERNEL_BACKEND")
        .ok()
        .and_then(|name| KernelBackend::parse(&name))
        .filter(|b| b.is_supported());
    if let Some(requested) = requested {
        assert_eq!(backend, requested, "XORBAS_KERNEL_BACKEND was not honoured");
    }
    // `xorbas_gf`'s `MAX_FUSE` and `WIDE16_FUSE`: the most sources one
    // kernel call takes.
    const MAX_FUSE: usize = 16;
    const WIDE16_FUSE: usize = 8;
    // 4130 leaves a tail after both the 32- and the 64-byte vectors.
    const LENS: [usize; 2] = [4096, 4130];
    let srcs = sample_data(MAX_FUSE, LENS[1]);
    let mut dst = vec![0u8; LENS[1]];
    let mut budgets = Vec::new();
    for len in LENS {
        let dst = &mut dst[..len];
        for width in [0, MAX_FUSE] {
            let xs: Vec<&[u8]> = srcs[..width].iter().map(|s| &s[..len]).collect();
            let row: Vec<(Gf256, &[u8])> = (0..width)
                .map(|i| (Gf256::from_index(i as u32 + 2), &srcs[i][..len]))
                .collect();
            xor_into_multi(dst, &xs);
            let xor = counted(|| xor_into_multi(dst, &xs));
            payload_mul_acc_multi(dst, &row);
            let mul = counted(|| payload_mul_acc_multi(dst, &row));
            budgets.push((format!("xor_multi, {width} sources, {len} B"), xor));
            budgets.push((format!("mul_multi, {width} sources, {len} B"), mul));
        }
        for width in [0, WIDE16_FUSE] {
            let row: Vec<(Gf65536, &[u8])> = (0..width)
                .map(|i| (Gf65536::from_index(i as u32 + 2), &srcs[i][..len]))
                .collect();
            payload_mul_acc_multi(dst, &row);
            let mul16 = counted(|| payload_mul_acc_multi(dst, &row));
            budgets.push((format!("mul16_multi, {width} sources, {len} B"), mul16));
        }
    }
    let name = backend.name();
    budgets
        .into_iter()
        .map(|(op, got)| Budget::exact(format!("{op} ({name})"), got.thread, 0))
        .collect()
}

fn simulator_event_window() -> Vec<Budget> {
    // A 20-node EC2 cluster loses two nodes. The window (40 to 90 s)
    // covers the BlockFixer's repairs: clock steps, and repair flows
    // starting and finishing under max-min rate recomputes.
    let mut cfg = SimConfig::ec2(CodeSpec::LRC_10_6_5);
    cfg.cluster.nodes = 20;
    cfg.cluster.block_bytes = 8 << 20;
    cfg.seed = 11;
    let mut sim = Simulation::new(cfg);
    for i in 0..8 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victims = sim.pick_victims(2);
    sim.kill_node_at(SimTime::from_secs(5), victims[0]);
    sim.kill_node_at(SimTime::from_secs(6), victims[1]);
    sim.run_until(SimTime::from_secs(40));
    let events = sim.events_processed();
    let allocs = counted(|| sim.run_until(SimTime::from_secs(90)));
    let events = sim.events_processed() - events;
    vec![
        Budget::exact("simulator window, events", events, 75),
        Budget::exact("simulator window, allocations", allocs.thread, 34),
    ]
}

const CHUNK: usize = 64 * 1024;
const SPEC: CodeSpec = CodeSpec::LRC_10_6_5;
/// Repetitions each node op's median is taken over.
const REPS: usize = 9;

/// Chunk servers over loopback, one per rack, behind an in-memory
/// directory: one more server than a stripe has lanes, so a repaired
/// lane always has somewhere to go.
struct Cluster {
    root: PathBuf,
    servers: Vec<ChunkServer>,
    directory: Arc<Mutex<Directory>>,
    sessions: SessionCache,
}

impl Cluster {
    fn boot(tag: &str) -> Self {
        let n = SPEC.total_blocks() + 1;
        let pid = std::process::id();
        let root = std::env::temp_dir().join(format!("xorbas_alloc_budgets_{tag}_{pid:020}"));
        let _ = std::fs::remove_dir_all(&root);
        let dirs: Vec<PathBuf> = (0..n).map(|i| root.join(format!("srv{i:02}"))).collect();
        // A chunk path is a data dir joined with a name of up to 50
        // bytes. From a 51-byte dir up, the join grows its buffer once,
        // so the servers' counts depend on neither the temp dir nor the
        // pid.
        assert!(dirs.iter().all(|d| d.as_os_str().len() >= 51));
        let servers: Vec<ChunkServer> = dirs
            .into_iter()
            .map(|dir| ChunkServer::start(ServerConfig::new(dir)).unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = servers.iter().map(ChunkServer::addr).collect();
        Self {
            root,
            servers,
            directory: Arc::new(Mutex::new(Directory::new(&addrs, n, 7))),
            sessions: SessionCache::default(),
        }
    }

    fn client(&self) -> ClusterClient {
        ClusterClient::new(
            Codec::build(SPEC).unwrap(),
            CHUNK,
            Arc::clone(&self.directory),
            RetryPolicy::default(),
            self.sessions.clone(),
        )
    }

    /// An agent that probes liveness only in its first round, so every
    /// later idle round does the same work.
    fn agent(&self, scrub: bool) -> RepairAgent {
        let mut cfg = RepairAgentConfig::new(CHUNK);
        cfg.probe_rounds = u64::MAX;
        if scrub {
            let stores = self.servers.iter().map(|s| s.data_dir().clone());
            cfg.scrub = Some(ScrubConfig::new(stores.enumerate().collect()));
        }
        let codec = Codec::build(SPEC).unwrap();
        let dir = Arc::clone(&self.directory);
        RepairAgent::start(codec, dir, self.sessions.clone(), cfg).unwrap()
    }

    fn lock_dir(&self) -> MutexGuard<'_, Directory> {
        self.directory
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn teardown(self) {
        for server in self.servers {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One stripe of position-dependent bytes.
fn stripe_file() -> Vec<u8> {
    let len = SPEC.data_blocks() * CHUNK;
    (0..len)
        .map(|i| (i.wrapping_mul(2654435761) >> 16) as u8)
        .collect()
}

fn node_reads_and_puts() -> Vec<Budget> {
    let cluster = Cluster::boot("reads");
    let mut client = cluster.client();
    let file = stripe_file();
    let put = median_over(|| counted(|| drop(client.put(&file).unwrap())));
    let stripe = client.put(&file).unwrap().stripes[0].id;
    let mut buf = Vec::new();
    let mut read = |lane: u32, want: ReadKind| {
        let mut kind = None;
        let count = counted(|| kind = client.read_data_chunk(stripe, lane, &mut buf).ok());
        assert_eq!(kind, Some(want));
        count
    };
    let direct = median_over(|| read(1, ReadKind::Direct));
    let dead = cluster.lock_dir().servers_of(stripe).unwrap()[0];
    cluster.servers[dead].kill();
    let degraded = median_over(|| read(0, ReadKind::Degraded { light: true }));
    cluster.teardown();
    // The put's encoder is a thread of its own.
    let lanes = SPEC.total_blocks() as u64;
    vec![
        Budget::exact("put, one stripe, client thread", put.thread, 20),
        Budget::starting_threads("put, one stripe, all threads", put.process, 166, 1, lanes),
        Budget::exact("direct read, client thread", direct.thread, 0),
        Budget::exact("direct read, all threads", direct.process, 4),
        Budget::exact("degraded read, client thread", degraded.thread, 1),
        Budget::exact("degraded read, all threads", degraded.process, 21),
    ]
}

/// Polls until `done` holds, then reads the counts.
fn count_when(done: impl Fn() -> bool) -> Count {
    while !done() {
        std::thread::sleep(Duration::from_micros(200));
    }
    now()
}

/// The counts just after the agent's next scan round ends, while it
/// sleeps before the one after.
fn after_round(agent: &RepairAgent) -> (Count, u64) {
    let round = agent.stats().rounds;
    let at = count_when(|| agent.stats().rounds > round);
    (at, agent.stats().rounds)
}

fn repair_agent_rounds_scrubs_and_repairs() -> Vec<Budget> {
    let cluster = Cluster::boot("agent");
    let stripe = cluster.client().put(&stripe_file()).unwrap().stripes[0].id;

    let agent = cluster.agent(false);
    const ROUNDS: u64 = 4;
    let idle = median_over(|| {
        let (start, first) = after_round(&agent);
        count_when(|| agent.stats().rounds >= first + ROUNDS);
        since(start)
    });
    let per_round = idle.process / ROUNDS;
    agent.shutdown();

    // One scrub cycle rereads every chunk of every store. It runs
    // between two of the scan loop's rounds, which are taken off at the
    // idle rate; the cycle pause (50 ms) is longer than a round (25 ms).
    let agent = cluster.agent(true);
    let scrub = median_over(|| {
        let cycles = agent.stats().scrub_cycles;
        count_when(|| agent.stats().scrub_cycles > cycles);
        let (start, first) = after_round(&agent);
        count_when(|| agent.stats().scrub_cycles > cycles + 1);
        let (end, last) = after_round(&agent);
        Count {
            thread: end.thread - start.thread,
            process: end.process - start.process - (last - first) * per_round,
        }
    });
    agent.shutdown();

    // One lane of each local group (two data groups and the global
    // parities') is reported corrupt; one worker thread rebuilds the
    // three from their groups and writes them to other servers. Three
    // chunks, so that one more allocation per chunk still goes past the
    // worker thread's slack.
    let agent = cluster.agent(false);
    let repair = median_over(|| {
        let before = agent.stats();
        let (start, _) = after_round(&agent);
        let mut dir = cluster.lock_dir();
        for lane in [1, 6, 11] {
            dir.report_corrupt(stripe, lane);
        }
        drop(dir);
        count_when(|| agent.stats().chunks_repaired >= before.chunks_repaired + 3);
        assert_eq!(agent.stats().light_repairs, before.light_repairs + 1);
        since(start)
    });
    agent.shutdown();
    cluster.teardown();
    vec![
        Budget::exact(format!("agent, {ROUNDS} idle rounds"), idle.process, 4),
        Budget::exact("agent, one scrub cycle", scrub.process, 130),
        Budget::starting_threads("agent, three-chunk repair", repair.process, 94, 1, 3),
    ]
}
