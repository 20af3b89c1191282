//! `repair_drain`: the paper's headline — how fast and how cheaply a
//! dead server's chunks are rebuilt. No client traffic runs.
//!
//! Why it exists: `node::repair` and `node::directory` dominate and the
//! client is idle, so a change to scan pacing, repair concurrency or the
//! fetch path shows here and nowhere else.
//!
//! A cycle puts 240 MiB, then drains four servers one after another
//! (20 → 16 live). The clock of a drain starts at `kill()`; the agent
//! is started once the dead listener refuses connections, and the
//! clock stops when the directory reports nothing lost. Cycles
//! alternate LRC(10,6,5), the primary operation, and the RS(10,4)
//! baseline, the second operation: same data, ten fetches per repaired
//! chunk where the LRC needs five. Both are reported as milliseconds
//! per repaired chunk.

use super::{Ctx, EndToEnd, Outcome, Samples, Tally, MIB};
use crate::cluster::{Cluster, SERVERS};
use crate::gen::{self, SplitMix64};
use crate::trace::NO_PARENT;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xorbas_core::CodeSpec;
use xorbas_node::{Manifest, RepairAgent, RepairAgentConfig, RepairStatsSnapshot};

const FILES: usize = 6;
/// Two cycles per code, whether traced or not.
const CYCLES: usize = 4;
/// Servers drained per cycle: 20 - 4 = 16 live servers still hold one
/// lane each of a 16-lane stripe.
const DRAINS_PER_CYCLE: usize = 4;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Default)]
struct Drains {
    /// `kill()` to nothing lost, per drain.
    ms: Samples,
    /// The same divided by the chunks the victim held. Victims hold 12
    /// to 26 chunks depending on the seed's placement, so the time per
    /// chunk is what repeats from run to run.
    chunk_ms: Samples,
    detect_ms: Vec<f64>,
    stats: RepairStatsSnapshot,
}

impl Drains {
    fn add(&mut self, s: &RepairStatsSnapshot) {
        self.stats.chunks_repaired += s.chunks_repaired;
        self.stats.light_repairs += s.light_repairs;
        self.stats.heavy_repairs += s.heavy_repairs;
        self.stats.bytes_fetched += s.bytes_fetched;
        self.stats.bytes_written += s.bytes_written;
        self.stats.failed_attempts += s.failed_attempts;
        self.stats.rounds += s.rounds;
    }

    fn mibps(&self) -> f64 {
        self.stats.bytes_written as f64 / MIB / self.ms.total_s()
    }

    fn read_amp(&self) -> f64 {
        self.stats.bytes_fetched as f64 / self.stats.bytes_written as f64
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut lrc = Drains::default();
    let mut rs = Drains::default();
    let mut op = 0u64;
    // LRC and RS cycles alternate. A traced run records the first LRC
    // cycle and the last RS cycle, so each code has a base to measure
    // the tracer's overhead against.
    for cycle in 0..CYCLES {
        let traced = ctx.trace && matches!(cycle, 0 | 3);
        let baseline = cycle % 2 == 1;
        let (spec, into) = if baseline {
            (CodeSpec::RS_10_4, &mut rs)
        } else {
            (CodeSpec::LRC_10_6_5, &mut lrc)
        };
        let s = one_cycle(ctx, spec, traced, &mut op, into, &mut tally)?;
        if !baseline {
            setup_s.push(s);
        }
    }

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        e2e: EndToEnd {
            setup_s: crate::stats::median(&setup_s),
            op_p50_ms: lrc.chunk_ms.p50(),
            alt_p50_ms: rs.chunk_ms.p50(),
            work_per_s: lrc.mibps(),
            io_amp: lrc.read_amp(),
        },
        ..Outcome::default()
    };
    out.layer("repair_MiBps", lrc.mibps());
    out.layer("repair_read_amp", lrc.read_amp());
    out.layer(
        "repair.chunks_per_s",
        lrc.stats.chunks_repaired as f64 / lrc.ms.total_s(),
    );
    out.layer("repair.chunks_repaired", lrc.stats.chunks_repaired as f64);
    out.layer("repair.light_repairs", lrc.stats.light_repairs as f64);
    out.layer("repair.heavy_repairs", lrc.stats.heavy_repairs as f64);
    out.layer("repair.failed_attempts", lrc.stats.failed_attempts as f64);
    out.layer("repair.rounds", lrc.stats.rounds as f64);
    out.layer("repair.detect_ms", crate::stats::median(&lrc.detect_ms));
    out.layer("repair.drain_p50_s", lrc.ms.p50() / 1e3);
    out.layer("repair.read_amp.rs_10_4", rs.read_amp());
    out.layer("repair.MiBps.rs_10_4", rs.mibps());
    out.layer("trace.overhead_share", lrc.ms.overhead_share());
    out.notes.push(format!(
        "{} LRC drains ({} chunks) and {} RS drains ({} chunks), clock from kill() to nothing lost",
        lrc.ms.len(),
        lrc.stats.chunks_repaired,
        rs.ms.len(),
        rs.stats.chunks_repaired
    ));
    Ok(out)
}

fn one_cycle(
    ctx: &mut Ctx,
    spec: CodeSpec,
    traced: bool,
    op: &mut u64,
    drains: &mut Drains,
    tally: &mut Tally,
) -> Result<f64, String> {
    let sizes = ctx.sizes;
    let cb = sizes.chunk_bytes;
    let is_lrc = matches!(spec, CodeSpec::Lrc(_));

    ctx.tracer.set_on(traced);
    ctx.speed.sample();
    let setup_start = Instant::now();
    let cluster = Cluster::boot("repair", spec, cb, ctx.seed)?;
    let mut client = cluster.client();
    let files: Vec<Vec<u8>> = (0..sizes.pick(FILES, 3))
        .map(|i| gen::bytes(ctx.seed, 200 + i as u64, sizes.file_bytes))
        .collect();
    let mut manifests: Vec<Manifest> = Vec::new();
    for bytes in &files {
        manifests.push(client.put(bytes).map_err(|e| format!("set-up put: {e}"))?);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    ctx.speed.sample();

    let mut rng = SplitMix64::new(ctx.seed ^ 0xD7A1);
    let mut alive: Vec<usize> = (0..SERVERS).collect();
    let mut back = Vec::new();
    let mut lost = Vec::new();
    for _ in 0..DRAINS_PER_CYCLE {
        let victim = alive.swap_remove(rng.below(alive.len()));
        // What the directory says the victim holds, before it dies.
        let (lanes_lost, stripes_hit) = {
            let dir = cluster
                .directory
                .lock()
                .map_err(|_| "directory lock poisoned")?;
            let mut lanes = 0u64;
            let mut stripes = 0u64;
            for m in &manifests {
                for entry in &m.stripes {
                    let here = dir
                        .servers_of(entry.id)
                        .map_or(0, |s| s.iter().filter(|&&sid| sid == victim).count());
                    lanes += here as u64;
                    stripes += u64::from(here > 0);
                }
            }
            (lanes, stripes)
        };

        *op += 1;
        let span = ctx.tracer.begin("drain", NO_PARENT, *op);
        cluster.servers[victim].kill();
        let t0 = Instant::now();
        while TcpStream::connect_timeout(&cluster.addrs[victim], Duration::from_millis(250)).is_ok()
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let agent = RepairAgent::start(
            cluster.codec.clone(),
            cluster.directory.clone(),
            cluster.sessions.clone(),
            RepairAgentConfig::new(cb),
        )
        .map_err(|e| format!("start repair agent: {e}"))?;
        // Nothing counts as lost until the agent's first liveness sweep
        // marks the victim dead, so wait for the first repaired chunk
        // before asking whether the cluster has converged: asking at
        // once is how a 0 s drain of 55 chunks got reported.
        while lanes_lost > 0 && agent.stats().chunks_repaired == 0 && t0.elapsed() < DRAIN_TIMEOUT {
            std::thread::sleep(Duration::from_millis(1));
        }
        let detect = t0.elapsed();
        let converged = agent.wait_until_repaired(DRAIN_TIMEOUT);
        let ms = drains.ms.push(traced, t0);
        drains
            .chunk_ms
            .push_ms(traced, ms / lanes_lost.max(1) as f64);
        let start = ctx.tracer.start_of(span);
        ctx.tracer.record(
            "drain.detect",
            span,
            *op,
            start,
            start + detect.as_nanos() as u64,
        );
        ctx.tracer.end(span);
        // The directory converges when the last chunk is re-placed; the
        // agent adds that stripe to its counters a moment later.
        let settle = Instant::now();
        while agent.stats().chunks_repaired < lanes_lost
            && settle.elapsed() < Duration::from_secs(1)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = agent.stats();
        agent.shutdown();
        drains.detect_ms.push(detect.as_secs_f64() * 1e3);
        drains.add(&stats);

        cluster
            .directory
            .lock()
            .map_err(|_| "directory lock poisoned")?
            .scan_lost(&mut lost);
        let (light, heavy) = if is_lrc {
            (stripes_hit, 0)
        } else {
            (0, stripes_hit)
        };
        tally.check(
            converged
                && lost.is_empty()
                && ms > 0.0
                && stats.chunks_repaired == lanes_lost
                && stats.light_repairs == light
                && stats.heavy_repairs == heavy
                && stats.bytes_written == lanes_lost * cb as u64,
            || {
                format!(
                    "drain of server {victim}: converged {converged}, {} still lost, {ms} ms, \
                     wanted {lanes_lost} chunks in {stripes_hit} stripes, got {stats:?}",
                    lost.len()
                )
            },
        );
        for (bytes, manifest) in files.iter().zip(&manifests) {
            let report = client
                .get(manifest, &mut back)
                .map_err(|e| format!("get after drain: {e}"))?;
            tally.check(back == *bytes && report.degraded_stripes == 0, || {
                format!("file not bit-identical over the direct path after draining {victim}")
            });
        }
    }
    Ok(setup_s)
}
