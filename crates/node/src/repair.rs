//! The background repair agent: scan → plan → stream → re-place.
//!
//! A polling thread scans the directory for lost chunks (dead servers,
//! corrupt reports), groups them by stripe, and repairs each stripe
//! through the same executor a degraded get runs (`stripe_io`): fetch
//! exactly the lanes the cached session's plan needs, reconstruct the
//! missing ones, then push them to replacement servers chosen by the
//! rack-aware placement policy — through the same store-with-failover a
//! client put writes through, so a replacement that refuses or tears
//! the write costs a failover, not the attempt. A source lane that
//! turns out dead or rotten is reported to the directory by that
//! executor, so the next round plans around it instead of retrying the
//! same fetch. For LRC stripes with a single loss this is the paper's
//! *light* repair — the agent fetches one local group (5 chunks for
//! LRC(10,6,5)) instead of the `k = 10` an RS code needs, and the stats
//! it keeps ([`RepairStatsSnapshot::bytes_fetched`]) make that
//! difference a measured number rather than a simulated one.
//!
//! Concurrency is throttled: at most `MAX_CONCURRENT_REPAIRS` stripes
//! are in flight at once, mirroring the simulator's repair-slot model
//! and HDFS-RAID's bounded reconstruction parallelism. That many
//! executors are built once and live as long as the agent, so a
//! worker's connections, frame readers and lane scratch are reused from
//! stripe to stripe and from round to round
//! ([`RepairStatsSnapshot::connections_dialed`] counts the dials); each
//! round its workers claim stripes from a shared cursor until the
//! round's list is empty.

use crate::chunk_store::ChunkStore;
use crate::client::{PutLane, RetryPolicy, SessionCache};
use crate::directory::{Directory, ServerId};
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use crate::lock;
use crate::protocol::chunk_digest;
use crate::stripe_io::StripeIo;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xorbas_core::Codec;

/// What the agent must be told; its pacing (25 ms scans, 2 concurrent
/// repairs, the default [`RetryPolicy`]) is fixed beside `agent_loop`.
#[derive(Debug, Clone)]
pub struct RepairAgentConfig {
    /// Chunk size of the stripes being repaired.
    pub chunk_bytes: usize,
    /// Liveness-probe cadence: one probe sweep every this many scan
    /// rounds. The sweep both declares unreachable servers dead and
    /// revives restarted ones whose listener answers again.
    pub probe_rounds: u64,
    /// When set, a scrubber thread walks these chunk stores and
    /// re-verifies digests at a byte-rate throttle.
    pub scrub: Option<ScrubConfig>,
}

impl RepairAgentConfig {
    /// Defaults: probes every 8 rounds, no scrubber.
    pub fn new(chunk_bytes: usize) -> Self {
        Self {
            chunk_bytes,
            probe_rounds: 8,
            scrub: None,
        }
    }
}

/// What the background CRC scrubber walks; its throttle (64 MiB/s, a
/// 50 ms pause between cycles) is fixed beside `scrub_loop`.
///
/// The scrubber is colocated with the servers in this prototype (one
/// process hosts the whole cluster), so it reads chunk files straight
/// from each server's store root rather than over the wire — what it
/// *reports* still flows through the directory's corrupt set and from
/// there into the ordinary `scan_lost` → repair pipeline.
#[derive(Debug, Clone)]
pub struct ScrubConfig {
    /// `(server id, chunk-store root)` pairs the scrubber walks.
    pub stores: Vec<(ServerId, PathBuf)>,
}

impl ScrubConfig {
    /// A config scrubbing `stores`.
    pub fn new(stores: Vec<(ServerId, PathBuf)>) -> Self {
        Self { stores }
    }
}

/// Monotonic counters the agent maintains (lock-free reads).
#[derive(Debug, Default)]
struct RepairStats {
    chunks_repaired: AtomicU64,
    light_repairs: AtomicU64,
    heavy_repairs: AtomicU64,
    bytes_fetched: AtomicU64,
    bytes_written: AtomicU64,
    failed_attempts: AtomicU64,
    rounds: AtomicU64,
    connections_dialed: AtomicU64,
    scrub_cycles: AtomicU64,
    scrub_chunks: AtomicU64,
    scrub_bytes: AtomicU64,
    scrub_corruptions: AtomicU64,
}

/// A point-in-time copy of the agent's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStatsSnapshot {
    /// Chunks reconstructed and re-placed.
    pub chunks_repaired: u64,
    /// Stripe repairs served entirely by the light (local-group) decoder.
    pub light_repairs: u64,
    /// Stripe repairs that needed the heavy (k-wide) decoder.
    pub heavy_repairs: u64,
    /// Bytes pulled from surviving lanes.
    pub bytes_fetched: u64,
    /// Bytes pushed to replacement servers.
    pub bytes_written: u64,
    /// Repair attempts that failed (left for a later round).
    pub failed_attempts: u64,
    /// Scan rounds completed.
    pub rounds: u64,
    /// Connections the repair workers opened to chunk servers. Workers
    /// keep their connections, so this grows with the servers touched,
    /// not with the stripes repaired.
    pub connections_dialed: u64,
    /// Full scrub passes over every configured store.
    pub scrub_cycles: u64,
    /// Chunks whose digest the scrubber re-verified.
    pub scrub_chunks: u64,
    /// Bytes the scrubber read back and hashed.
    pub scrub_bytes: u64,
    /// Corrupt chunks the scrubber newly flagged for repair.
    pub scrub_corruptions: u64,
}

/// The running agent; dropping it stops the scan thread.
pub struct RepairAgent {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    scrub_handle: Option<JoinHandle<()>>,
    stats: Arc<RepairStats>,
    directory: Arc<Mutex<Directory>>,
}

impl RepairAgent {
    /// Starts the scan thread. The agent owns its own codec instance
    /// and connections; it shares only the directory and the session
    /// cache with the clients.
    pub fn start(
        codec: Codec,
        directory: Arc<Mutex<Directory>>,
        sessions: SessionCache,
        cfg: RepairAgentConfig,
    ) -> Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(RepairStats::default());
        let scrub_cfg = cfg.scrub.clone();
        let thread_stop = Arc::clone(&stop);
        let thread_stats = Arc::clone(&stats);
        let thread_dir = Arc::clone(&directory);
        let handle = std::thread::Builder::new()
            .name("xorbas-repair".into())
            .spawn(move || {
                agent_loop(
                    &codec,
                    &thread_dir,
                    &sessions,
                    &cfg,
                    &thread_stop,
                    &thread_stats,
                );
            })?;
        let scrub_handle = match scrub_cfg {
            Some(scfg) => {
                let scrub_stop = Arc::clone(&stop);
                let scrub_stats = Arc::clone(&stats);
                let scrub_dir = Arc::clone(&directory);
                Some(
                    std::thread::Builder::new()
                        .name("xorbas-scrub".into())
                        .spawn(move || {
                            scrub_loop(&scfg, &scrub_dir, &scrub_stop, &scrub_stats);
                        })?,
                )
            }
            None => None,
        };
        Ok(Self {
            stop,
            handle: Some(handle),
            scrub_handle,
            stats,
            directory,
        })
    }

    /// Current counters.
    pub fn stats(&self) -> RepairStatsSnapshot {
        let s = &self.stats;
        RepairStatsSnapshot {
            chunks_repaired: s.chunks_repaired.load(Ordering::Acquire),
            light_repairs: s.light_repairs.load(Ordering::Relaxed),
            heavy_repairs: s.heavy_repairs.load(Ordering::Relaxed),
            bytes_fetched: s.bytes_fetched.load(Ordering::Relaxed),
            bytes_written: s.bytes_written.load(Ordering::Relaxed),
            failed_attempts: s.failed_attempts.load(Ordering::Relaxed),
            rounds: s.rounds.load(Ordering::Relaxed),
            connections_dialed: s.connections_dialed.load(Ordering::Relaxed),
            scrub_cycles: s.scrub_cycles.load(Ordering::Relaxed),
            scrub_chunks: s.scrub_chunks.load(Ordering::Relaxed),
            scrub_bytes: s.scrub_bytes.load(Ordering::Relaxed),
            scrub_corruptions: s.scrub_corruptions.load(Ordering::Relaxed),
        }
    }

    /// Blocks until the directory reports no lost chunks (full
    /// redundancy restored) or `timeout` passes. Returns whether the
    /// cluster converged.
    pub fn wait_until_repaired(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut lost = Vec::new();
        loop {
            lock(&self.directory).scan_lost(&mut lost);
            if lost.is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops the scan and scrub threads and joins them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in [self.handle.take(), self.scrub_handle.take()]
            .into_iter()
            .flatten()
        {
            let _ = h.join();
        }
    }
}

impl Drop for RepairAgent {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How often the directory is scanned for losses.
const SCAN_INTERVAL: Duration = Duration::from_millis(25);

/// Stripes repaired concurrently: the repair-traffic throttle, the
/// simulator's `max_concurrent_repairs` analogue.
const MAX_CONCURRENT_REPAIRS: usize = 2;

fn agent_loop(
    codec: &Codec,
    dir: &Arc<Mutex<Directory>>,
    sessions: &SessionCache,
    cfg: &RepairAgentConfig,
    stop: &AtomicBool,
    stats: &RepairStats,
) {
    // One executor per repair slot, for the agent's lifetime.
    let mut workers: Vec<StripeIo> = (0..MAX_CONCURRENT_REPAIRS)
        .map(|_| {
            StripeIo::new(
                codec.clone(),
                cfg.chunk_bytes,
                Arc::clone(dir),
                RetryPolicy::default(),
                sessions.clone(),
            )
        })
        .collect();
    let mut lost: Vec<(u64, u32)> = Vec::new();
    let mut stripes: Vec<u64> = Vec::new();
    let mut round = 0u64;
    while !stop.load(Ordering::SeqCst) {
        // A cheap liveness sweep every few rounds: a server that died
        // without any client noticing still gets its chunks repaired,
        // and a restarted one is folded back into the roster.
        if round.is_multiple_of(cfg.probe_rounds.max(1)) {
            probe_liveness(dir);
        }
        round += 1;
        lock(dir).scan_lost(&mut lost);
        stripes.clear();
        for &(stripe, _) in lost.iter() {
            if stripes.last() != Some(&stripe) {
                stripes.push(stripe);
            }
        }
        // Throttled fan-out: each worker takes the next unclaimed
        // stripe until the round's list is empty, so a slow stripe
        // holds up one worker, not the round.
        let next = AtomicUsize::new(0);
        let (stripes, next) = (&stripes, &next);
        std::thread::scope(|s| {
            for io in workers.iter_mut().take(stripes.len()) {
                s.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let claimed = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&stripe) = stripes.get(claimed) else {
                            break;
                        };
                        let dialed = io.pool.dialed();
                        let outcome = repair_stripe(io, stripe);
                        stats
                            .connections_dialed
                            .fetch_add(io.pool.dialed() - dialed, Ordering::Relaxed);
                        stats.record(outcome);
                    }
                });
            }
        });
        stats.rounds.fetch_add(1, Ordering::Relaxed);
        sleep_with_stop(SCAN_INTERVAL, stop);
    }
}

impl RepairStats {
    fn record(&self, outcome: Result<Option<RepairOutcome>>) {
        match outcome {
            Ok(Some(outcome)) => {
                self.bytes_fetched
                    .fetch_add(outcome.bytes_fetched, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(outcome.bytes_written, Ordering::Relaxed);
                if outcome.light {
                    self.light_repairs.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.heavy_repairs.fetch_add(1, Ordering::Relaxed);
                }
                // Last, and `Release`: a caller that waits for this
                // count (loaded first, `Acquire`, by `stats`) then reads
                // the counters above complete.
                self.chunks_repaired
                    .fetch_add(outcome.chunks, Ordering::Release);
            }
            Ok(None) => {}
            Err(_) => {
                self.failed_attempts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Reconciles the roster with reality: servers whose listener no
/// longer answers are marked dead, and dead servers whose listener
/// answers again (a restart on the same address, or an updated
/// address via [`Directory::set_addr`]) are revived. A refused
/// loopback connect returns immediately, so this sweep costs
/// microseconds per server.
fn probe_liveness(dir: &Arc<Mutex<Directory>>) {
    let mut roster: Vec<(usize, std::net::SocketAddr, bool)> = Vec::new();
    {
        let d = lock(dir);
        for (sid, info) in d.roster().iter().enumerate() {
            roster.push((sid, info.addr, info.alive));
        }
    }
    for (sid, addr, was_alive) in roster {
        let answers =
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_ok();
        match (was_alive, answers) {
            (true, false) => lock(dir).mark_dead(sid),
            (false, true) => lock(dir).mark_alive(sid),
            _ => {}
        }
    }
}

/// Verification byte-rate cap. After each chunk the scrubber sleeps
/// `chunk_len / rate`, so a full cycle over `B` stored bytes takes at
/// least `B / rate` seconds.
const SCRUB_BYTES_PER_SEC: u64 = 64 << 20;

/// Pause between full scrub cycles over every store.
const SCRUB_CYCLE_PAUSE: Duration = Duration::from_millis(50);

/// The scrubber thread: walk every configured chunk store, re-verify
/// each chunk's digest, flag rot into the directory's corrupt set
/// (where the next `scan_lost` turns it into a repair), and throttle
/// to [`SCRUB_BYTES_PER_SEC`].
fn scrub_loop(
    cfg: &ScrubConfig,
    dir: &Arc<Mutex<Directory>>,
    stop: &AtomicBool,
    stats: &RepairStats,
) {
    let mut stores: Vec<(ServerId, ChunkStore)> = Vec::new();
    for (sid, root) in &cfg.stores {
        if let Ok(s) = ChunkStore::open(root) {
            stores.push((*sid, s));
        }
    }
    let mut chunks: Vec<(u64, u32)> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        for (sid, store) in &stores {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            chunks.clear();
            if store.list_chunks(&mut chunks).is_err() {
                continue;
            }
            // The verify loop rereads every chunk body through one
            // reused buffer, so a scrub pass costs I/O + hash and the
            // chunk file's path (the scrub cycle's budget in
            // `tests/alloc_budgets.rs`).
            for &(stripe, lane) in chunks.iter() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Skip chunks the directory no longer maps to this
                // server (stale files after a reassignment) and ones
                // already flagged — re-reporting would double-count.
                let (ours, flagged) = {
                    let d = lock(dir);
                    let ours = d
                        .servers_of(stripe)
                        .is_some_and(|s| s.get(lane as usize) == Some(sid));
                    (ours, d.is_corrupt(stripe, lane))
                };
                if !ours || flagged {
                    continue;
                }
                match store.get_into(stripe, lane, &mut buf) {
                    Ok(_) => {
                        stats.scrub_chunks.fetch_add(1, Ordering::Relaxed);
                        stats
                            .scrub_bytes
                            .fetch_add(buf.len() as u64, Ordering::Relaxed);
                    }
                    Err(NodeError::ChunkNotFound { .. }) => continue,
                    // Digest mismatch or an unreadable file: either
                    // way this replica cannot be served — flag it.
                    Err(_) => {
                        stats.scrub_chunks.fetch_add(1, Ordering::Relaxed);
                        stats.scrub_corruptions.fetch_add(1, Ordering::Relaxed);
                        lock(dir).report_corrupt(stripe, lane);
                    }
                }
                // Throttle: a chunk of `L` bytes buys `L / rate`
                // seconds of sleep, so sustained read bandwidth stays
                // at or under the cap.
                let nanos = (buf.len() as u64).saturating_mul(1_000_000_000) / SCRUB_BYTES_PER_SEC;
                if nanos > 0 {
                    sleep_with_stop(Duration::from_nanos(nanos), stop);
                }
            }
        }
        stats.scrub_cycles.fetch_add(1, Ordering::Relaxed);
        sleep_with_stop(SCRUB_CYCLE_PAUSE, stop);
    }
}

fn sleep_with_stop(total: Duration, stop: &AtomicBool) {
    let step = Duration::from_millis(5);
    let mut remaining = total;
    while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
        let nap = remaining.min(step);
        std::thread::sleep(nap);
        remaining = remaining.saturating_sub(nap);
    }
}

/// What one successful stripe repair moved.
struct RepairOutcome {
    chunks: u64,
    bytes_fetched: u64,
    bytes_written: u64,
    light: bool,
}

/// Repairs every lost lane of `stripe` on a worker's private executor:
/// [`StripeIo::reconstruct`] rebuilds the lanes, one call of the pool's
/// `store` re-places them on fresh replacements under the write rule.
/// `Ok(None)` means the stripe healed on its own (nothing lost by the
/// time we looked).
fn repair_stripe(io: &mut StripeIo, stripe: u64) -> Result<Option<RepairOutcome>> {
    let (session, fetched) = io.reconstruct(stripe, &[])?;
    if session.missing().is_empty() {
        return Ok(None);
    }
    let mut rebuilt = Vec::with_capacity(session.missing().len());
    for &lane in session.missing() {
        // Fault site: the repair worker dies between reconstruct
        // and re-place. The lanes stay lost and a later round
        // retries — repairs must be idempotent.
        if fault::hit(Site::CrashRepair) {
            return Err(NodeError::Injected("crash-repair"));
        }
        let payload = io
            .lanes
            .get(lane)
            .ok_or(NodeError::Malformed("repaired lane missing"))?;
        rebuilt.push(PutLane {
            lane: lane as u32,
            placed: None,
            digest: chunk_digest(payload),
            payload,
        });
    }
    let repaired = io.pool.store(stripe, &rebuilt)?.len() as u64;
    let chunk_bytes = io.chunk_bytes as u64;
    Ok(Some(RepairOutcome {
        chunks: repaired,
        bytes_fetched: fetched as u64 * chunk_bytes,
        bytes_written: repaired * chunk_bytes,
        light: session.plan().is_light(),
    }))
}
