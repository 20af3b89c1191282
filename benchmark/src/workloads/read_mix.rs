//! `read_mix`: the read path, with one server dead and nobody repairing.
//!
//! Why it exists: reads use the same node layers as puts the other way
//! round, so a write-path gain that costs reads shows here. A direct
//! read is one wire round trip; a degraded read is five fetches plus a
//! light `core` replay, and must stay about five direct reads long.
//!
//! Set-up puts 240 MiB (six files), kills one server and reads each of
//! its data chunks once, which finds the death and compiles every
//! repair session. The timed phase is a fixed mix: four
//! `read_data_chunk` calls on live lanes, then one on a dead server's
//! lane, round after round. Every read is compared with the bytes put.

use super::{Ctx, EndToEnd, Outcome, Samples, Tally, MIB};
use crate::cluster::{Cluster, SERVERS};
use crate::gen::{self, SplitMix64};
use crate::trace::NO_PARENT;
use std::time::{Duration, Instant};
use xorbas_core::CodeSpec;
use xorbas_node::client::ReadKind;

const FILES: usize = 6;
/// Direct reads per degraded read in the timed mix.
const DIRECT_PER_ROUND: usize = 4;
/// A victim must hold at least this many data chunks, so the degraded
/// reads do not hammer one chunk.
const MIN_DEAD_LANES: usize = 4;

/// A data chunk: where it is stored and where its bytes are in `files`.
#[derive(Debug, Clone, Copy)]
struct Lane {
    stripe: u64,
    lane: u32,
    file: usize,
    offset: usize,
}

#[derive(Default)]
struct Reads {
    direct: Samples,
    degraded: Samples,
    chunks_fetched: u64,
    chunks_returned: u64,
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut lrc = Reads::default();
    let mut op = 0u64;
    for cycle in 0..ctx.cycles() {
        let traced = ctx.traced_cycle(cycle);
        let secs = ctx.cycle_seconds();
        let spec = CodeSpec::LRC_10_6_5;
        setup_s.push(one_cycle(
            ctx, spec, secs, traced, &mut op, &mut lrc, &mut tally,
        )?);
    }

    let chunk_mib = ctx.sizes.chunk_bytes as f64 / MIB;
    let returned_mib = lrc.chunks_returned as f64 * chunk_mib;
    let mut out = Outcome {
        e2e: EndToEnd {
            setup_s: crate::stats::median(&setup_s),
            op_p50_ms: lrc.direct.p50(),
            alt_p50_ms: lrc.degraded.p50(),
            work_per_s: returned_mib / (lrc.direct.total_s() + lrc.degraded.total_s()),
            io_amp: lrc.chunks_fetched as f64 / lrc.chunks_returned as f64,
        },
        ..Outcome::default()
    };
    out.layer("read_direct_p50_ms", lrc.direct.p50());
    out.layer("read_direct_p90_ms", lrc.direct.percentile(0.90));
    out.layer("read_degraded_p50_ms", lrc.degraded.p50());
    out.layer("read_degraded_p90_ms", lrc.degraded.percentile(0.90));
    out.layer("client.read_direct_p99_ms", lrc.direct.percentile(0.99));
    out.layer("client.read_degraded_p99_ms", lrc.degraded.percentile(0.99));
    out.layer(
        "client.degraded_fetches_per_read",
        (lrc.chunks_fetched - lrc.direct.len() as u64) as f64 / lrc.degraded.len() as f64,
    );
    out.layer(
        "client.read_degraded_over_direct",
        lrc.degraded.p50() / lrc.direct.p50(),
    );
    out.layer("trace.overhead_share", lrc.direct.overhead_share());
    out.notes.push(format!(
        "{} direct and {} degraded timed reads of {chunk_mib} MiB over {} cycles",
        lrc.direct.len(),
        lrc.degraded.len(),
        ctx.cycles()
    ));

    if ctx.trace {
        // The RS(10,4) baseline of the same degraded read: ten fetches
        // and a heavy replay where the LRC needs five and a light one.
        let mut rs = Reads::default();
        let secs = ctx.cycle_seconds() / 2.0;
        one_cycle(
            ctx,
            CodeSpec::RS_10_4,
            secs,
            false,
            &mut op,
            &mut rs,
            &mut tally,
        )?;
        out.layer("client.read_degraded_p50_ms.rs_10_4", rs.degraded.p50());
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    Ok(out)
}

/// One cycle: set up (returns the set-up seconds), then the timed mix
/// for `secs`, every read checked.
fn one_cycle(
    ctx: &mut Ctx,
    spec: CodeSpec,
    secs: f64,
    traced: bool,
    op: &mut u64,
    reads: &mut Reads,
    tally: &mut Tally,
) -> Result<f64, String> {
    let sizes = ctx.sizes;
    let cb = sizes.chunk_bytes;
    let k = spec.data_blocks();
    let light = matches!(spec, CodeSpec::Lrc(_));

    ctx.tracer.set_on(traced);
    ctx.speed.sample();
    let setup_start = Instant::now();
    let cluster = Cluster::boot("read", spec, cb, ctx.seed)?;
    let mut client = cluster.client();
    let files: Vec<Vec<u8>> = (0..FILES)
        .map(|i| gen::bytes(ctx.seed, 100 + i as u64, sizes.file_bytes))
        .collect();
    let mut lanes: Vec<(usize, Lane)> = Vec::new(); // (server, chunk)
    for (file, bytes) in files.iter().enumerate() {
        let manifest = client.put(bytes).map_err(|e| format!("set-up put: {e}"))?;
        for (si, entry) in manifest.stripes.iter().enumerate() {
            for lane in 0..k {
                let offset = (si * k + lane) * cb;
                if offset < bytes.len() {
                    let at = Lane {
                        stripe: entry.id,
                        lane: lane as u32,
                        file,
                        offset,
                    };
                    lanes.push((entry.servers[lane], at));
                }
            }
        }
    }
    let mut rng = SplitMix64::new(ctx.seed ^ 0x7EAD);
    let first = rng.below(SERVERS);
    let victim = (0..SERVERS)
        .map(|i| (first + i) % SERVERS)
        .find(|&s| lanes.iter().filter(|(sid, _)| *sid == s).count() >= MIN_DEAD_LANES)
        .ok_or("no server holds enough data chunks to be the victim")?;
    let (dead, live): (Vec<_>, Vec<_>) = lanes.into_iter().partition(|(sid, _)| *sid == victim);
    let dead: Vec<Lane> = dead.into_iter().map(|(_, l)| l).collect();
    let live: Vec<Lane> = live.into_iter().map(|(_, l)| l).collect();
    cluster.servers[victim].kill();
    // The server leaves the network within one 10 ms poll interval.
    std::thread::sleep(Duration::from_millis(30));
    let mut buf = Vec::new();
    let mut fetches_by_lane = vec![0u64; k];
    for at in &dead {
        let kind = client
            .read_data_chunk(at.stripe, at.lane, &mut buf)
            .map_err(|e| format!("discovery read: {e}"))?;
        let expected = &files[at.file][at.offset..at.offset + cb];
        tally.check(
            kind == ReadKind::Degraded { light } && buf == expected,
            || {
                format!(
                    "discovery read of {}:{} came back {kind:?}",
                    at.stripe, at.lane
                )
            },
        );
        // What a degraded read of this lane fetches, from the repair
        // plan of the session the client just compiled and cached.
        let session = cluster
            .sessions
            .get_or_compile(&cluster.codec, &[at.lane as usize])
            .map_err(|e| e.to_string())?
            .ok_or("codec has no repair session")?;
        fetches_by_lane[at.lane as usize] = session.plan().blocks_read() as u64;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    ctx.speed.sample();

    let measure_start = Instant::now();
    let mut next_dead = 0usize;
    while measure_start.elapsed().as_secs_f64() < secs {
        for slot in 0..=DIRECT_PER_ROUND {
            let degraded = slot == DIRECT_PER_ROUND;
            let at = if degraded {
                next_dead += 1;
                dead[next_dead % dead.len()]
            } else {
                live[rng.below(live.len())]
            };
            *op += 1;
            let name = if degraded {
                "read.degraded"
            } else {
                "read.direct"
            };
            let span = ctx.tracer.begin(name, NO_PARENT, *op);
            let t = Instant::now();
            let kind = client.read_data_chunk(at.stripe, at.lane, &mut buf);
            if degraded {
                reads.degraded.push(traced, t);
            } else {
                reads.direct.push(traced, t);
            }
            ctx.tracer.end(span);
            let kind = kind.map_err(|e| format!("read {}:{}: {e}", at.stripe, at.lane))?;
            let want = if degraded {
                ReadKind::Degraded { light }
            } else {
                ReadKind::Direct
            };
            let expected = &files[at.file][at.offset..at.offset + cb];
            tally.check(kind == want && buf == expected, || {
                format!(
                    "read {}:{} came back {kind:?}, wanted {want:?}",
                    at.stripe, at.lane
                )
            });
            reads.chunks_returned += 1;
            reads.chunks_fetched += if degraded {
                fetches_by_lane[at.lane as usize]
            } else {
                1
            };
        }
    }
    Ok(setup_s)
}
