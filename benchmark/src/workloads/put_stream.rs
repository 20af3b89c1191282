//! `put_stream`: the write path. One closed-loop client streams 40 MiB
//! files into a 20-server LRC(10,6,5) cluster and reads each one back.
//!
//! Why it exists: `node::{client, server, chunk_store, protocol, wal}`
//! do about nine tenths of the work of a put and `core` one tenth, so a
//! gain in the node data path must show here, and a codec gain must
//! barely move it.
//!
//! Primary operation: `ClusterClient::put` of one file. Second
//! operation: `ClusterClient::get` of the file just written, which is
//! also the gate — every put must read back bit-identical. Files older
//! than the last four are deleted (untimed), so the servers never hold
//! more than 256 MiB and the page cache is never the thing measured.
//!
//! The end-to-end put numbers are **net of the host's file-write
//! time**. A put stores 64 chunk files, and on this sandbox the file
//! system's own time for those writes swings between about 25 and 50 ms
//! from one minute to the next, which moved the median put by up to a
//! quarter between identical runs. So right before each put the harness
//! writes the same 64 files straight through `std::fs` (untimed,
//! `cluster::host_write_ms`) and subtracts that from the put. Over ten
//! runs the raw median put spread by 14% of its median, the host's
//! share by 43%, and the difference by 5%. The raw numbers are reported
//! too, as `put_p50_ms`, `put_MiBps` and `client.put_host_write_ms`.

use super::{Ctx, EndToEnd, Outcome, Samples, Tally, MIB};
use crate::cluster::{delete_file, host_write_ms, Cluster};
use crate::gen;
use crate::trace::NO_PARENT;
use std::collections::VecDeque;
use std::time::Instant;
use xorbas_core::CodeSpec;
use xorbas_node::Manifest;

/// Files kept resident; also the size of the pool of distinct inputs.
pub const RESIDENT_FILES: usize = 4;
/// Untimed puts that open every connection and size every buffer.
const WARMUP_PUTS: usize = 6;

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let sizes = ctx.sizes;
    // Four LRC(10,6,5) stripes of 16 chunks each.
    let chunks_per_file = sizes.file_bytes / sizes.chunk_bytes * 16 / 10;
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut puts = Samples::default();
    let mut host_writes = Samples::default();
    let mut net_puts = Samples::default();
    let mut gets = Samples::default();
    let mut stored_ratio = 0.0;
    let mut op = 0u64;
    let mut data_root = String::new();

    for cycle in 0..ctx.cycles() {
        let traced = ctx.traced_cycle(cycle);
        ctx.tracer.set_on(traced);
        ctx.speed.sample();
        let setup_start = Instant::now();
        let cluster = Cluster::boot("put", CodeSpec::LRC_10_6_5, sizes.chunk_bytes, ctx.seed)?;
        data_root = cluster.root().display().to_string();
        let pool: Vec<Vec<u8>> = (0..RESIDENT_FILES)
            .map(|i| gen::bytes(ctx.seed, i as u64, sizes.file_bytes))
            .collect();
        let mut client = cluster.client();
        let mut conns = cluster.connect_all()?;
        let mut resident: VecDeque<Manifest> = VecDeque::new();
        let mut back = Vec::new();
        for i in 0..WARMUP_PUTS {
            let file = &pool[i % RESIDENT_FILES];
            let manifest = client.put(file).map_err(|e| format!("warm-up put: {e}"))?;
            client
                .get(&manifest, &mut back)
                .map_err(|e| format!("warm-up get: {e}"))?;
            tally.check(back == *file, || "warm-up put did not read back".into());
            resident.push_back(manifest);
            if resident.len() > RESIDENT_FILES {
                delete_file(&mut conns, &resident.pop_front().expect("non-empty"))?;
            }
        }
        setup_s.push(setup_start.elapsed().as_secs_f64());
        ctx.speed.sample();

        let measure_start = Instant::now();
        let mut i = WARMUP_PUTS;
        while measure_start.elapsed().as_secs_f64() < ctx.cycle_seconds() {
            let file = &pool[i % RESIDENT_FILES];
            op += 1;
            let host_ms = host_write_ms(
                &cluster.root().join("host-write"),
                &file[..sizes.chunk_bytes],
                chunks_per_file,
            )?;
            host_writes.push_ms(traced, host_ms);
            let span = ctx.tracer.begin("put", NO_PARENT, op);
            let t = Instant::now();
            let put = client.put(file);
            let put_ms = puts.push(traced, t);
            ctx.tracer.end(span);
            net_puts.push_ms(traced, put_ms - host_ms);
            let manifest = put.map_err(|e| format!("put: {e}"))?;

            let span = ctx.tracer.begin("get", NO_PARENT, op);
            let t = Instant::now();
            let got = client.get(&manifest, &mut back);
            gets.push(traced, t);
            ctx.tracer.end(span);
            let report = got.map_err(|e| format!("get: {e}"))?;
            tally.check(back == *file && report.degraded_stripes == 0, || {
                format!("put {i} did not read back bit-identical over the direct path")
            });

            resident.push_back(manifest);
            if resident.len() > RESIDENT_FILES {
                delete_file(&mut conns, &resident.pop_front().expect("non-empty"))?;
            }
            i += 1;
        }

        // Exactly the resident files' chunk files are on disk now.
        let stored = cluster.stored_bytes()?;
        stored_ratio = stored as f64 / (resident.len() * sizes.file_bytes) as f64;
        tally.check(
            resident.len() == RESIDENT_FILES && stored_ratio > 1.6 && stored_ratio < 1.61,
            || {
                format!(
                    "stored {stored} bytes for {} resident files",
                    resident.len()
                )
            },
        );
    }

    let file_mib = sizes.file_bytes as f64 / MIB;
    let put_mibps = puts.len() as f64 * file_mib / puts.total_s();
    let net_mibps = puts.len() as f64 * file_mib / net_puts.total_s();
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        e2e: EndToEnd {
            setup_s: crate::stats::median(&setup_s),
            op_p50_ms: net_puts.p50(),
            alt_p50_ms: gets.p50(),
            work_per_s: net_mibps,
            io_amp: stored_ratio,
        },
        ..Outcome::default()
    };
    out.layer("put_MiBps", put_mibps);
    out.layer("put_p50_ms", puts.p50());
    out.layer("stored_bytes_per_user_byte", stored_ratio);
    out.layer("client.put_host_write_ms", host_writes.p50());
    out.layer("client.put_p90_ms", puts.percentile(0.90));
    out.layer("client.get_p50_ms", gets.p50());
    out.layer("trace.overhead_share", puts.overhead_share());
    out.notes.push(format!(
        "data root {data_root} (removed at exit); {} timed puts and gets of {file_mib} MiB over {} cycles",
        puts.len(),
        ctx.cycles()
    ));
    Ok(out)
}
