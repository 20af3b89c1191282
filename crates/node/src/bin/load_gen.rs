//! Chaos driver for the xorbas-node prototype.
//!
//! Boots N chunk servers in one process (distinct data dirs) behind a
//! WAL-backed directory, arms a seeded fault plan (connection refusals,
//! mid-frame resets, stalls, torn writes, bit rot, crashed puts and
//! repairs), streams erasure-coded files through [`ClusterClient`], then
//! hammers reads with a write mix while one server is killed and later
//! restarted. Every read is verified byte-for-byte and held to a
//! deadline; a scrubber and the repair agent must restore full
//! redundancy afterwards.
//!
//! ```text
//! cargo run --release -p xorbas_node --bin load_gen -- --seed 20130826 --chaos-runs 2
//! ```
//!
//! The run's shape is fixed — 5 servers in 5 racks, 256 KiB chunks, two
//! 2 MiB files, 200 ops of which 10% are writes, a 5 s read deadline;
//! the flags are a seed sweep and a path.
//!
//! This is an acceptance driver, not the performance record: throughput,
//! latency and repair traffic are measured (with gates) by the
//! `put_stream`, `read_mix` and `repair_drain` workloads of `benchmark/`
//! (see `benchmark/README.md`), and the fault-free kill → repair →
//! bit-identity round trip is asserted by `tests/loopback_smoke.rs`.
//!
//! Exit code 0 means every run passed: zero failed, corrupt or stuck
//! reads, bit-identical files after repair, and full redundancy
//! restored.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::error::Error;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xorbas_core::{CodeSpec, Codec};
use xorbas_node::client::ReadKind;
use xorbas_node::repair::ScrubConfig;
use xorbas_node::{
    fault, ChunkServer, ClusterClient, Directory, FaultPlan, Manifest, NodeError, RepairAgent,
    RepairAgentConfig, RepairStatsSnapshot, RetryPolicy, ServerConfig, Site,
};

type AnyError = Box<dyn Error>;

const SERVERS: usize = 5;
const CHUNK_BYTES: usize = 256 << 10;
const FILES: usize = 2;
const FILE_BYTES: usize = 2 << 20;
const OPS: usize = 200;
const WRITE_MIX_PCT: u64 = 10;
/// Budget one read call may spend before it counts as stuck.
const READ_DEADLINE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    /// Where server data dirs live (e.g. a tmpfs such as /dev/shm).
    data_root: PathBuf,
    /// How many runs (seeds `seed..seed+N`) to execute.
    chaos_runs: usize,
}

const USAGE: &str = "usage: load_gen [--seed N] [--chaos-runs N] [--data-root DIR]";

fn parse_args() -> Result<Args, AnyError> {
    let mut args = Args {
        seed: 20130826, // the VLDB'13 proceedings date
        data_root: std::env::temp_dir(),
        chaos_runs: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, AnyError> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}").into())
        };
        match flag.as_str() {
            "--seed" => args.seed = take("--seed")?.parse()?,
            "--data-root" => args.data_root = PathBuf::from(take("--data-root")?),
            "--chaos-runs" => args.chaos_runs = take("--chaos-runs")?.parse()?,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}").into()),
        }
    }
    Ok(args)
}

/// Deterministic data: a splitmix64 stream keyed by `seed`.
fn fill_deterministic(seed: u64, len: usize, out: &mut Vec<u8>) {
    out.resize(len, 0);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut chunks = out.chunks_exact_mut(8);
    for slot in &mut chunks {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        slot.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    let tail = chunks.into_remainder();
    for (i, b) in tail.iter_mut().enumerate() {
        *b = (state >> (8 * (i % 8))) as u8;
    }
}

/// Cheap deterministic op-mixer (xorshift64*).
struct MiniRng(u64);

impl MiniRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[derive(Debug, Default)]
struct ChaosResult {
    seed: u64,
    read_ops: u64,
    write_ops: u64,
    direct_reads: u64,
    degraded_reads: u64,
    degraded_light: u64,
    retried_reads: u64,
    failed_reads: u64,
    /// Reads that returned bytes differing from the regenerated truth.
    corrupt_reads: u64,
    /// Read calls whose single invocation blew [`READ_DEADLINE`].
    deadline_misses: u64,
    put_retries: u64,
    repair_converged: bool,
    bit_identical: bool,
    injected: Vec<(&'static str, u64, u64)>,
    repair: RepairStatsSnapshot,
}

impl ChaosResult {
    fn passed(&self) -> bool {
        self.failed_reads == 0
            && self.corrupt_reads == 0
            && self.deadline_misses == 0
            && self.repair_converged
            && self.bit_identical
    }
}

fn dir_lock(d: &Arc<Mutex<Directory>>) -> std::sync::MutexGuard<'_, Directory> {
    d.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The fault mix a chaos run arms: every site lit, rates chosen so a
/// few-hundred-op run sees each failure mode several times while the
/// cluster still converges.
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

/// Puts with retry: an injected crash (or a put that lost its race
/// with a dying server) is retried; only an `Ok` counts as the ack.
fn put_acked(
    client: &mut ClusterClient,
    data: &[u8],
    retries: &mut u64,
) -> Result<Manifest, NodeError> {
    let mut last = NodeError::Malformed("put never attempted");
    for _ in 0..10 {
        match client.put(data) {
            Ok(m) => return Ok(m),
            Err(e) => {
                *retries += 1;
                last = e;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    Err(last)
}

fn run_chaos(args: &Args, run_idx: usize) -> Result<ChaosResult, AnyError> {
    let seed = args.seed + run_idx as u64;
    let spec = CodeSpec::LRC_10_6_5;
    let k = spec.data_blocks();

    let root = args
        .data_root
        .join(format!("xorbas_chaos_{}_{run_idx}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Boot servers; slots are Options so the victim can be replaced.
    let mut servers: Vec<Option<ChunkServer>> = Vec::with_capacity(SERVERS);
    let mut dirs = Vec::with_capacity(SERVERS);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(SERVERS);
    for i in 0..SERVERS {
        let dir = root.join(format!("srv{i}"));
        let server = ChunkServer::start(ServerConfig::new(dir.clone()))?;
        addrs.push(server.addr());
        servers.push(Some(server));
        dirs.push(dir);
    }

    // Crash-safe directory: placements, repairs, corruption reports and
    // manifests all land in the WAL before they are acknowledged.
    let wal_path = root.join("directory.wal");
    let (directory, _) = Directory::open_persistent(&wal_path, &addrs, SERVERS, seed)?;
    let directory = Arc::new(Mutex::new(directory));

    // Keep the Arc: counters are read from it after disarm.
    let plan = fault::arm(chaos_plan(seed));

    let sessions = xorbas_node::client::SessionCache::default();
    let mut client = ClusterClient::new(
        Codec::build(spec)?,
        CHUNK_BYTES,
        Arc::clone(&directory),
        RetryPolicy::default(),
        sessions.clone(),
    );

    let mut result = ChaosResult {
        seed,
        ..ChaosResult::default()
    };

    // ---- Put phase: acked files stay resident for verification. ----
    let mut file_data: Vec<Vec<u8>> = Vec::new();
    let mut manifests: Vec<Manifest> = Vec::new();
    for file_idx in 0..FILES {
        let fseed = seed ^ ((file_idx as u64 + 1) << 32);
        let mut data = Vec::new();
        fill_deterministic(fseed, FILE_BYTES, &mut data);
        let manifest = put_acked(&mut client, &data, &mut result.put_retries)?;
        file_data.push(data);
        manifests.push(manifest);
    }

    // Scrubber + repair agent over every store, including the victim's.
    let mut agent_cfg = RepairAgentConfig::new(CHUNK_BYTES);
    agent_cfg.probe_rounds = 4;
    agent_cfg.scrub = Some(ScrubConfig::new(
        dirs.iter().cloned().enumerate().collect::<Vec<_>>(),
    ));
    let agent = RepairAgent::start(
        Codec::build(spec)?,
        Arc::clone(&directory),
        sessions.clone(),
        agent_cfg,
    )?;

    // (file index, stripe position, stripe id) for every acked stripe.
    let mut stripe_meta: Vec<(usize, usize, u64)> = Vec::new();
    for (fi, m) in manifests.iter().enumerate() {
        for (pos, s) in m.stripes.iter().enumerate() {
            stripe_meta.push((fi, pos, s.id));
        }
    }

    let mut rng = MiniRng(seed | 1);
    let mut buf = Vec::new();
    let mut expect = Vec::new();
    let kill_at = OPS * 2 / 5;
    let restart_at = OPS * 7 / 10;
    let victim = SERVERS - 1;

    for op in 0..OPS {
        if op == kill_at {
            if let Some(s) = servers[victim].as_ref() {
                s.kill();
            }
        }
        if op == restart_at {
            // Restart the victim on the same data dir: a new ephemeral
            // port, so the roster learns the address before revival.
            drop(servers[victim].take());
            let server = ChunkServer::start(ServerConfig::new(dirs[victim].clone()))?;
            {
                let mut d = dir_lock(&directory);
                d.set_addr(victim, server.addr());
                d.mark_alive(victim);
            }
            servers[victim] = Some(server);
        }

        let is_write = rng.below(100) < WRITE_MIX_PCT && op != kill_at && op != restart_at;
        if is_write {
            let fseed = seed ^ 0xABCD ^ ((result.write_ops + 1) << 40);
            let mut data = Vec::new();
            fill_deterministic(fseed, k * CHUNK_BYTES, &mut data);
            let manifest = put_acked(&mut client, &data, &mut result.put_retries)?;
            let fi = file_data.len();
            for (pos, s) in manifest.stripes.iter().enumerate() {
                stripe_meta.push((fi, pos, s.id));
            }
            file_data.push(data);
            manifests.push(manifest);
            result.write_ops += 1;
            continue;
        }

        let (fi, pos, stripe) = stripe_meta[rng.below(stripe_meta.len() as u64) as usize];
        let lane = rng.below(k as u64) as u32;
        let op_start = Instant::now();
        let mut served = None;
        loop {
            let t0 = Instant::now();
            let res = client.read_data_chunk(stripe, lane, &mut buf);
            if t0.elapsed() > READ_DEADLINE {
                result.deadline_misses += 1;
            }
            match res {
                Ok(kind) => {
                    served = Some(kind);
                    break;
                }
                Err(_) => {
                    if op_start.elapsed() >= READ_DEADLINE {
                        break;
                    }
                    result.retried_reads += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        match served {
            Some(ReadKind::Direct) => result.direct_reads += 1,
            Some(ReadKind::Degraded { light }) => {
                result.degraded_reads += 1;
                result.degraded_light += u64::from(light);
            }
            None => {
                result.failed_reads += 1;
                result.read_ops += 1;
                continue;
            }
        }
        // Byte-for-byte verification against the kept file contents:
        // the chunk is the file slice at (pos*k + lane), zero-padded.
        let file = &file_data[fi];
        let off = (pos * k + lane as usize) * CHUNK_BYTES;
        expect.clear();
        expect.resize(buf.len(), 0);
        if off < file.len() {
            let take = (file.len() - off).min(buf.len());
            expect[..take].copy_from_slice(&file[off..off + take]);
        }
        if buf != expect {
            result.corrupt_reads += 1;
        }
        result.read_ops += 1;
    }

    // ---- Quiesce: stop injecting, let scrub + repair drain. --------
    fault::disarm();
    let cycles0 = agent.stats().scrub_cycles;
    let scrub_wait = Instant::now() + Duration::from_secs(60);
    while agent.stats().scrub_cycles < cycles0 + 2 && Instant::now() < scrub_wait {
        std::thread::sleep(Duration::from_millis(10));
    }
    result.repair_converged = agent.wait_until_repaired(Duration::from_secs(120));

    // ---- Every acked file must read back bit-identical. ------------
    let mut got = Vec::new();
    result.bit_identical = true;
    for (m, data) in manifests.iter().zip(&file_data) {
        client.get(m, &mut got)?;
        if &got != data {
            result.bit_identical = false;
        }
    }

    result.repair = agent.stats();
    result.injected = plan.counters().to_vec();

    agent.shutdown();
    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(result)
}

fn print_chaos_summary(r: &ChaosResult) {
    println!("== chaos seed {} ==", r.seed);
    println!(
        "  reads: {} ops ({} direct, {} degraded [{} light], {} retried, {} failed, \
         {} corrupt, {} deadline misses)",
        r.read_ops,
        r.direct_reads,
        r.degraded_reads,
        r.degraded_light,
        r.retried_reads,
        r.failed_reads,
        r.corrupt_reads,
        r.deadline_misses,
    );
    println!(
        "  writes: {} ops, {} put retries",
        r.write_ops, r.put_retries
    );
    println!(
        "  repair: converged={} ({} chunks, {} light / {} heavy, {} failed attempts, \
         {} connections dialed)",
        r.repair_converged,
        r.repair.chunks_repaired,
        r.repair.light_repairs,
        r.repair.heavy_repairs,
        r.repair.failed_attempts,
        r.repair.connections_dialed,
    );
    println!(
        "  scrub: {} cycles, {} chunks, {:.1} MiB, {} corruptions flagged",
        r.repair.scrub_cycles,
        r.repair.scrub_chunks,
        r.repair.scrub_bytes as f64 / (1 << 20) as f64,
        r.repair.scrub_corruptions,
    );
    let mut fired = String::new();
    for (site, _, f) in &r.injected {
        if *f > 0 {
            let _ = write!(fired, "{site}:{f} ");
        }
    }
    println!(
        "  injected: {}bit-identical={} passed={}",
        fired,
        r.bit_identical,
        r.passed()
    );
}

fn run() -> Result<(), AnyError> {
    let args = parse_args()?;
    let mut all_passed = true;
    for run_idx in 0..args.chaos_runs.max(1) {
        let r = run_chaos(&args, run_idx)?;
        print_chaos_summary(&r);
        all_passed &= r.passed();
    }
    if all_passed {
        Ok(())
    } else {
        Err("chaos acceptance failed (failed/corrupt/stuck reads, repair, or bit-identity)".into())
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("load_gen: {e}");
            std::process::exit(1);
        }
    }
}
