//! The layer pass of a traced run: each layer's public functions called
//! alone, from outside, on the same kind of bytes the workload moved.
//!
//! A probe belongs to the workload whose work it explains (the
//! `on` column of `schema::PER_LAYER`); a traced run of a workload runs
//! its probes after the workload itself. `host.*` are the ceilings the
//! ratios divide by: what this sandbox's memory, file system and
//! loopback can do with no code of ours in the way.

use crate::cluster::{host_write_ms, out_dir, server_config};
use crate::codec::Stripe;
use crate::gen;
use crate::stats;
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{Ctx, Outcome, MIB};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;
use xorbas_core::{encode_into_parallel, CodeSpec, Lrc};
use xorbas_gf::{slice_ops, Field, Gf256, Gf65536};
use xorbas_node::protocol::{chunk_digest, write_put, FrameReader};
use xorbas_node::wal::WalHeader;
use xorbas_node::{
    ChunkServer, ChunkStore, Directory, DirectoryWal, Manifest, NodeConn, RetryPolicy,
};
use xorbas_sim::codecs::CodecInstance;
use xorbas_sim::{
    run_scale_scenario, ClusterScale, ScaleScenario, SimConfig, Simulation, ZipfSampler,
};

/// Runs the probes of one layer pass, one span per probe.
struct Prober<'a> {
    tracer: &'a mut Tracer,
    budget: f64,
    op: u64,
}

impl Prober<'_> {
    /// Calls `f` for about `budget` seconds (at least three times) under
    /// one span and returns the median seconds per call.
    fn secs(
        &mut self,
        name: &'static str,
        mut f: impl FnMut() -> Result<(), String>,
    ) -> Result<f64, String> {
        self.op += 1;
        let span = self.tracer.begin(name, NO_PARENT, self.op);
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3 || start.elapsed().as_secs_f64() < self.budget {
            let t = Instant::now();
            f()?;
            samples.push(t.elapsed().as_secs_f64());
        }
        self.tracer.end(span);
        Ok(stats::median(&samples))
    }

    /// MiB per second when one call moves `bytes`.
    fn mibps(
        &mut self,
        name: &'static str,
        bytes: usize,
        f: impl FnMut() -> Result<(), String>,
    ) -> Result<f64, String> {
        Ok(bytes as f64 / MIB / self.secs(name, f)?)
    }
}

/// A scratch directory under `out/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let dir = out_dir()
            .join("data")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the probes that belong to `workload` and adds their metrics.
pub fn run(workload: &str, ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    ctx.tracer.set_on(true);
    let sizes = ctx.sizes;
    let seed = ctx.seed;
    let mut p = Prober {
        budget: sizes.pick(0.12, 0.004),
        tracer: &mut ctx.tracer,
        op: 1 << 32,
    };
    match workload {
        "put_stream" => put_path(&mut p, seed, sizes.chunk_bytes, sizes.file_bytes, out),
        "read_mix" => read_path(&mut p, seed, sizes.chunk_bytes, out),
        "repair_drain" => repair_path(&mut p, out),
        "codec_stream" => codec_path(
            &mut p,
            seed,
            sizes.chunk_bytes,
            sizes.pick(64 << 10, 4 << 10),
            out,
        ),
        "sim_warehouse" => warehouse_path(&mut p, sizes.pick(14, 1), out),
        "sim_serving" => serving_path(&mut p, seed, out),
        other => Err(format!("no layer pass for workload {other}")),
    }
}

fn one_server(dir: PathBuf) -> Result<(ChunkServer, NodeConn), String> {
    let server = ChunkServer::start(server_config(dir)).map_err(err)?;
    let conn = NodeConn::connect(server.addr(), &RetryPolicy::default()).map_err(err)?;
    Ok((server, conn))
}

fn put_path(
    p: &mut Prober,
    seed: u64,
    cb: usize,
    file_bytes: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let scratch = Scratch::new("layers-put")?;
    let chunk = gen::bytes(seed, 900, cb);
    let chunks_per_file = file_bytes / cb * 16 / 10;

    // host: memory, file system, loopback.
    let big = gen::bytes(seed, 901, 32 * cb);
    let mut dst = vec![0u8; big.len()];
    let memcpy = p.mibps("host.memcpy", big.len(), || {
        dst.copy_from_slice(std::hint::black_box(&big));
        Ok(())
    })?;
    out.layer("host.memcpy_MiBps", memcpy);
    let mut write_ms = Vec::new();
    p.secs("host.file_write", || {
        write_ms.push(host_write_ms(&scratch.0.join("host-write"), &chunk, 16)?);
        Ok(())
    })?;
    let file_write = 16.0 * cb as f64 / MIB / (stats::median(&write_ms) / 1e3);
    out.layer("host.file_write_MiBps", file_write);
    out.layer("host.loopback_MiBps", loopback_echo(p, &chunk)?);

    // protocol: digest and framing, in memory.
    let digest_s = p.secs("protocol.chunk_digest", || {
        std::hint::black_box(chunk_digest(std::hint::black_box(&chunk)));
        Ok(())
    })?;
    out.layer("protocol.chunk_digest_MiBps", cb as f64 / MIB / digest_s);
    let digest = chunk_digest(&chunk);
    let mut wire = Vec::with_capacity(cb + 64);
    let mut reader = FrameReader::new();
    let frame = p.mibps("protocol.frame", cb, || {
        wire.clear();
        write_put(&mut wire, 1, 2, digest, &chunk).map_err(err)?;
        let mut rd = wire.as_slice();
        match reader.read(&mut rd, None).map_err(err)? {
            Ok(_) => Ok(()),
            Err(end) => Err(format!("frame reader stopped: {end:?}")),
        }
    })?;
    out.layer("protocol.frame_MiBps", frame);

    // chunk store alone, then the same put over one connection.
    let store = ChunkStore::open(&scratch.0.join("store")).map_err(err)?;
    let mut lane = 0u32;
    let store_s = p.secs("chunk_store.put", || {
        lane = (lane + 1) % 64;
        store.put(7, lane, digest, &chunk).map_err(err)
    })?;
    out.layer("chunk_store.put_MiBps", cb as f64 / MIB / store_s);
    let (server, mut conn) = one_server(scratch.0.join("server"))?;
    let ping_s = p.secs("wire.ping", || conn.ping().map_err(err))?;
    out.layer("wire.ping_us", ping_s * 1e6);
    let wire_put_s = p.secs("wire.put_chunk", || {
        lane = (lane + 1) % 64;
        conn.put(7, lane, digest, &chunk).map_err(err)
    })?;
    out.layer("wire.put_chunk_us", wire_put_s * 1e6);
    server.shutdown();

    // directory and its log.
    let addrs: Vec<_> = (0..20)
        .map(|i| ([127, 0, 0, 1], 40000 + i as u16).into())
        .collect();
    let mut dir = Directory::new(&addrs, 20, seed);
    let place_s = p.secs("directory.place_stripe", || {
        dir.place_stripe(16).map(|_| ()).map_err(err)
    })?;
    out.layer("directory.place_stripe_us", place_s * 1e6);
    let header = WalHeader {
        servers: 20,
        racks: 20,
        seed,
    };
    let mut wal = DirectoryWal::create(&scratch.0.join("probe.wal"), header).map_err(err)?;
    let servers: Vec<usize> = (0..16).collect();
    let mut stripe = 0u64;
    let append_stripe_s = p.secs("wal.append_stripe", || {
        stripe += 1;
        wal.append_stripe(stripe, &servers).map_err(err)
    })?;
    out.layer("wal.append_stripe_us", append_stripe_s * 1e6);
    let manifest = Manifest {
        spec: CodeSpec::LRC_10_6_5,
        chunk_bytes: cb as u64,
        file_len: file_bytes as u64,
        stripes: (0..4)
            .map(|id| xorbas_node::manifest::StripeEntry {
                id,
                servers: servers.clone(),
            })
            .collect(),
    };
    let append_manifest_s = p.secs("wal.append_manifest", || {
        wal.append_manifest(&manifest).map_err(err)
    })?;
    out.layer("wal.append_manifest_us", append_manifest_s * 1e6);

    // What a put of one file costs layer by layer, over the same
    // bytes: four stripe encodes, a digest per chunk, a chunk-store
    // write per chunk, and what the wire adds on top of that write.
    let mut lrc = Stripe::new(CodeSpec::LRC_10_6_5, cb, seed, 910)?;
    let encode_s = p.secs("core.encode_into", || lrc.encode())? * (file_bytes / (10 * cb)) as f64;
    let n = chunks_per_file as f64;
    let put_s = out
        .layers
        .iter()
        .find(|(name, _)| *name == "put_p50_ms")
        .map_or(0.0, |(_, ms)| ms / 1e3);
    if put_s > 0.0 {
        let shares = [
            ("client.put_share.encode", encode_s),
            ("client.put_share.digest", n * digest_s),
            ("client.put_share.store", n * store_s),
            ("client.put_share.wire", n * (wire_put_s - store_s)),
        ];
        let mut attributed = 0.0;
        for (name, secs) in shares {
            out.layer(name, secs / put_s);
            attributed += secs / put_s;
        }
        out.layer("client.put_unattributed_share", 1.0 - attributed);
        // Above 1 when the layers overlap inside a put (the encoder
        // thread runs while the previous stripe is on the wire).
        out.layer("client.put_roof_ratio", attributed);
    }
    Ok(())
}

/// One 1 MiB echo over a raw loopback `TcpStream`: bytes sent plus
/// bytes received per second, with none of our protocol on top.
fn loopback_echo(p: &mut Prober, chunk: &[u8]) -> Result<f64, String> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    let len = chunk.len();
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = vec![0u8; len];
        // Ends with an error when the client hangs up.
        loop {
            s.read_exact(&mut buf)?;
            s.write_all(&buf)?;
        }
    });
    let rate = {
        let mut s = TcpStream::connect(addr).map_err(err)?;
        s.set_nodelay(true).map_err(err)?;
        let mut back = vec![0u8; len];
        p.mibps("host.loopback", 2 * len, || {
            s.write_all(chunk)
                .and_then(|()| s.read_exact(&mut back))
                .map_err(err)
        })?
    };
    // The stream is closed now, so the echo thread's read fails and it
    // returns; its error is the expected hang-up.
    let _ = echo.join().map_err(|_| "echo thread panicked")?;
    Ok(rate)
}

fn read_path(p: &mut Prober, seed: u64, cb: usize, out: &mut Outcome) -> Result<(), String> {
    let scratch = Scratch::new("layers-read")?;
    let chunk = gen::bytes(seed, 920, cb);
    let digest = chunk_digest(&chunk);
    let store = ChunkStore::open(&scratch.0.join("store")).map_err(err)?;
    let (server, mut conn) = one_server(scratch.0.join("server"))?;
    for lane in 0..32 {
        store.put(7, lane, digest, &chunk).map_err(err)?;
        conn.put(7, lane, digest, &chunk).map_err(err)?;
    }
    let mut buf = Vec::new();
    let mut lane = 0u32;
    let get = p.mibps("chunk_store.get_into", cb, || {
        lane = (lane + 1) % 32;
        store.get_into(7, lane, &mut buf).map(|_| ()).map_err(err)
    })?;
    out.layer("chunk_store.get_MiBps", get);
    let wire_get_s = p.secs("wire.get_chunk", || {
        lane = (lane + 1) % 32;
        conn.get_chunk(7, lane, &mut buf).map(|_| ()).map_err(err)
    })?;
    out.layer("wire.get_chunk_us", wire_get_s * 1e6);
    if buf != chunk {
        return Err("wire.get_chunk returned other bytes than were put".into());
    }
    server.shutdown();
    Ok(())
}

fn repair_path(p: &mut Prober, out: &mut Outcome) -> Result<(), String> {
    let scratch = Scratch::new("layers-repair")?;
    let addrs: Vec<_> = (0..20)
        .map(|i| ([127, 0, 0, 1], 40000 + i as u16).into())
        .collect();
    let mut dir = Directory::new(&addrs, 20, 1);
    for _ in 0..1000 {
        dir.place_stripe(16).map_err(err)?;
    }
    dir.mark_dead(3);
    let mut lost = Vec::new();
    let scan_s = p.secs("directory.scan_lost", || {
        dir.scan_lost(&mut lost);
        Ok(())
    })?;
    out.layer("directory.scan_lost_us", scan_s * 1e6);

    // Replay of a 10k-record log. Each append syncs, so the log is
    // written for at most a second and the replay time scaled to 10k.
    let path = scratch.0.join("replay.wal");
    let header = WalHeader {
        servers: 20,
        racks: 20,
        seed: 1,
    };
    let mut wal = DirectoryWal::create(&path, header).map_err(err)?;
    let servers: Vec<usize> = (0..16).collect();
    let start = Instant::now();
    let mut records = 0u64;
    while records < 10_000 && start.elapsed().as_secs_f64() < 1.0 {
        records += 1;
        wal.append_stripe(records, &servers).map_err(err)?;
    }
    drop(wal);
    let mut seen = 0u64;
    let replay_s = p.secs("wal.replay", || {
        seen = 0;
        DirectoryWal::replay(&path, |_| seen += 1)
            .map(|_| ())
            .map_err(err)
    })?;
    if seen != records {
        return Err(format!("wal replay saw {seen} of {records} records"));
    }
    out.layer("wal.replay_ms", replay_s * 1e3 * 10_000.0 / records as f64);
    Ok(())
}

fn codec_path(
    p: &mut Prober,
    seed: u64,
    narrow: usize,
    wide: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    // gf kernels: source MiB consumed per second.
    let src: Vec<Vec<u8>> = (0..10).map(|i| gen::bytes(seed, 930 + i, narrow)).collect();
    let mut dst = vec![0u8; narrow];
    let c8 = |i: usize| Gf256::from_index(2 + i as u32);
    let c16 = |i: usize| Gf65536::from_index(0x1234 + i as u32);
    let xor = p.mibps("gf.xor_into", narrow, || {
        slice_ops::xor_into(&mut dst, std::hint::black_box(&src[0]));
        Ok(())
    })?;
    out.layer("gf.xor_into_MiBps", xor);
    let mul = p.mibps("gf.mul_acc", narrow, || {
        slice_ops::mul_acc(&mut dst, std::hint::black_box(&src[0]), c8(0));
        Ok(())
    })?;
    out.layer("gf.mul_acc_MiBps", mul);
    let srcs8: Vec<(Gf256, &[u8])> = src
        .iter()
        .enumerate()
        .map(|(i, s)| (c8(i), s.as_slice()))
        .collect();
    let mul10 = p.mibps("gf.mul_acc_multi10", 10 * narrow, || {
        slice_ops::mul_acc_multi(&mut dst, std::hint::black_box(&srcs8));
        Ok(())
    })?;
    out.layer("gf.mul_acc_multi10_MiBps", mul10);
    let mul16 = p.mibps("gf.mul_acc16", narrow, || {
        slice_ops::payload_mul_acc(&mut dst, std::hint::black_box(&src[0]), c16(0));
        Ok(())
    })?;
    out.layer("gf.mul_acc16_MiBps", mul16);
    let srcs16: Vec<(Gf65536, &[u8])> = src
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, s)| (c16(i), s.as_slice()))
        .collect();
    let mul16x8 = p.mibps("gf.mul_acc16_multi8", 8 * narrow, || {
        slice_ops::payload_mul_acc_multi(&mut dst, std::hint::black_box(&srcs16));
        Ok(())
    })?;
    out.layer("gf.mul_acc16_multi8_MiBps", mul16x8);

    // core: encode per family and geometry, then session replays.
    let encode_rate = |p: &mut Prober,
                       span: &'static str,
                       spec: CodeSpec,
                       lane: usize|
     -> Result<(f64, Stripe), String> {
        let mut stripe = Stripe::new(spec, lane, seed, 940)?;
        let bytes = stripe.data_bytes();
        let rate = p.mibps(span, bytes, || stripe.encode())?;
        Ok((rate, stripe))
    };
    let (rs_rate, mut rs) = encode_rate(p, "core.encode.rs_10_4", CodeSpec::RS_10_4, narrow)?;
    let (lrc_rate, mut lrc) =
        encode_rate(p, "core.encode.lrc_10_6_5", CodeSpec::LRC_10_6_5, narrow)?;
    let (pb_rate, mut pb) = encode_rate(p, "core.encode.pb_10_4", CodeSpec::PB_10_4, narrow)?;
    let (lrc_wide_rate, mut lrc_wide) =
        encode_rate(p, "core.encode.lrc_wide", CodeSpec::LRC_WIDE, wide)?;
    let (rs_wide_rate, mut rs_wide) =
        encode_rate(p, "core.encode.rs_200_60", CodeSpec::RS_200_60, wide)?;
    let (lrc_64k_rate, _) =
        encode_rate(p, "core.encode.lrc_10_6_5.64k", CodeSpec::LRC_10_6_5, wide)?;
    out.layer("core.encode_MiBps.rs_10_4", rs_rate);
    out.layer("core.encode_MiBps.lrc_10_6_5", lrc_rate);
    out.layer("core.encode_MiBps.pb_10_4", pb_rate);
    out.layer("core.encode_MiBps.lrc_wide", lrc_wide_rate);
    out.layer("core.encode_MiBps.rs_200_60", rs_wide_rate);
    out.layer("core.encode_MiBps.lrc_10_6_5.64k", lrc_64k_rate);
    {
        let codec = Lrc::xorbas_10_6_5().map_err(err)?;
        let (data, parity) = lrc.lanes.split_at_mut(10);
        let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        let par2 = p.mibps("core.encode_par2.lrc_10_6_5", 10 * narrow, || {
            encode_into_parallel(&codec, std::hint::black_box(&data), &mut parity, 2).map_err(err)
        })?;
        out.layer("core.encode_par2_MiBps.lrc_10_6_5", par2);
    }
    // Roof: the data rate the kernels allow. RS(10,4) multiplies every
    // data byte into 4 parity lanes; the LRC adds one XOR pass for its
    // two stored local parities; RS(200,60) does 60 GF(2^16) passes.
    out.layer("core.encode_roof_ratio.rs_10_4", rs_rate / (mul10 / 4.0));
    out.layer(
        "core.encode_roof_ratio.lrc_10_6_5",
        lrc_rate / (1.0 / (4.0 / mul10 + 1.0 / xor)),
    );
    out.layer(
        "core.encode_roof_ratio.rs_200_60",
        rs_wide_rate / (mul16x8 / 60.0),
    );

    let replay_rate = |p: &mut Prober,
                       span: &'static str,
                       stripe: &mut Stripe,
                       missing: &[usize]|
     -> Result<f64, String> {
        let session = stripe.session(missing)?;
        let bytes = missing.len() * stripe.lane_bytes;
        p.mibps(span, bytes, || stripe.replay(&session))
    };
    out.layer(
        "core.replay_MiBps.lrc_light",
        replay_rate(p, "core.replay.lrc_light", &mut lrc, &[3])?,
    );
    out.layer(
        "core.replay_MiBps.lrc_heavy2",
        replay_rate(p, "core.replay.lrc_heavy2", &mut lrc, &[2, 3])?,
    );
    out.layer(
        "core.replay_MiBps.rs_heavy",
        replay_rate(p, "core.replay.rs_heavy", &mut rs, &[3])?,
    );
    out.layer(
        "core.replay_MiBps.pb_data1",
        replay_rate(p, "core.replay.pb_data1", &mut pb, &[1])?,
    );
    out.layer(
        "core.replay_MiBps.lrc_wide_light",
        replay_rate(p, "core.replay.lrc_wide_light", &mut lrc_wide, &[3])?,
    );
    out.layer(
        "core.replay_MiBps.rs_200_60_heavy",
        replay_rate(p, "core.replay.rs_200_60_heavy", &mut rs_wide, &[3])?,
    );

    let compile_us =
        |p: &mut Prober, span: &'static str, codec: &CodecInstance| -> Result<f64, String> {
            let secs = p.secs(span, || match codec.repair_session(&[3]) {
                Some(Ok(s)) => {
                    std::hint::black_box(s);
                    Ok(())
                }
                Some(Err(e)) => Err(err(e)),
                None => Err("codec has no repair session".into()),
            })?;
            Ok(secs * 1e6)
        };
    out.layer(
        "core.session_compile_us.lrc_light",
        compile_us(p, "core.session_compile.lrc_light", &lrc.codec)?,
    );
    out.layer(
        "core.session_compile_us.rs_heavy",
        compile_us(p, "core.session_compile.rs_heavy", &rs.codec)?,
    );
    out.layer(
        "core.session_compile_us.rs_200_60_heavy",
        compile_us(p, "core.session_compile.rs_200_60_heavy", &rs_wide.codec)?,
    );
    Ok(())
}

fn warehouse_path(p: &mut Prober, short_days: usize, out: &mut Outcome) -> Result<(), String> {
    let scale = ClusterScale::facebook_warehouse();
    let load_s = p.secs("sim.load", || {
        let mut sim = Simulation::new(SimConfig::scaled(&scale, CodeSpec::RS_10_4));
        sim.load_raided_file("warehouse", scale.data_blocks_for(CodeSpec::RS_10_4));
        std::hint::black_box(&sim);
        Ok(())
    })?;
    out.layer("sim.load_s", load_s);
    let codec = CodecInstance::build(CodeSpec::LRC_10_6_5).map_err(err)?;
    let lookups = 1000;
    let plan_s = p.secs("sim.plan_lookup", || {
        for lane in 0..lookups {
            let lane = lane % 16;
            std::hint::black_box(codec.repair_plan_for(&[lane], &[lane]).map_err(err)?);
        }
        Ok(())
    })?;
    out.layer("sim.plan_lookup_ns", plan_s * 1e9 / lookups as f64);
    // The same scenario at a shorter horizon: events cost less each
    // while the backlog of lost blocks is short.
    let mut short = ScaleScenario::warehouse_year(CodeSpec::RS_10_4);
    short.days = short_days;
    let span = p
        .tracer
        .begin("scenario.warehouse.rs_10_4.d14", NO_PARENT, p.op + 1);
    let t = Instant::now();
    let run = run_scale_scenario(&short, 2013);
    let secs = t.elapsed().as_secs_f64();
    p.tracer.end(span);
    out.layer(
        "sim.events_per_s.rs_10_4.d14",
        run.events_processed as f64 / secs,
    );
    Ok(())
}

fn serving_path(p: &mut Prober, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let sampler = ZipfSampler::new(100_000, 1.1);
    let mut rng = StdRng::seed_from_u64(seed);
    let draws = 10_000;
    let secs = p.secs("sim.zipf_sample", || {
        for _ in 0..draws {
            std::hint::black_box(sampler.sample_rank(&mut rng));
        }
        Ok(())
    })?;
    out.layer("sim.zipf_sample_ns", secs * 1e9 / draws as f64);
    Ok(())
}
