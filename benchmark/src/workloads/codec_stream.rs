//! `codec_stream`: the library user's view — encode and repair-decode
//! rates of the codecs, in memory, with no sockets and no files.
//!
//! Why it exists: `core` and `gf` do all the work and the node does
//! none, so a kernel or codec gain must show here and barely move
//! `put_stream`; and a node change must not move this at all.
//!
//! A round runs four lanes with fixed counts, sized to take about the
//! same time each: 8 `encode_into` of an LRC(10,6,5) stripe of 1 MiB
//! lanes (the primary operation), 32 light session replays of one lost
//! LRC lane (the second operation), 16 heavy RS(10,4) replays, and one
//! `encode_into` of an RS(200,60) stripe of 64 KiB lanes over GF(2^16).
//! Every lane round-trips (wipe, replay, compare) before it is timed.

use super::{Ctx, EndToEnd, Outcome, Samples, Tally, MIB};
use crate::codec::Stripe;
use crate::trace::NO_PARENT;
use std::time::Instant;
use xorbas_core::CodeSpec;

const ENCODES: usize = 8;
const LIGHT_REPLAYS: usize = 32;
const HEAVY_REPLAYS: usize = 16;
/// The lane every replay rebuilds: a data lane of the first local group.
const LOST_LANE: usize = 3;

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let sizes = ctx.sizes;
    let narrow_lane = sizes.chunk_bytes;
    let wide_lane = sizes.pick(64 << 10, 4 << 10);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut encode = Samples::default();
    let mut encode_wide = Samples::default();
    let mut light = Samples::default();
    let mut heavy = Samples::default();
    let (mut lanes_read, mut lanes_repaired) = (0u64, 0u64);
    let mut op = 0u64;

    for cycle in 0..ctx.cycles() {
        let traced = ctx.traced_cycle(cycle);
        ctx.tracer.set_on(traced);
        ctx.speed.sample();
        let setup_start = Instant::now();
        let mut lrc = Stripe::new(CodeSpec::LRC_10_6_5, narrow_lane, ctx.seed, 1000)?;
        let mut rs = Stripe::new(CodeSpec::RS_10_4, narrow_lane, ctx.seed, 2000)?;
        let mut wide = Stripe::new(CodeSpec::RS_200_60, wide_lane, ctx.seed, 3000)?;
        let light_session = lrc.session(&[LOST_LANE])?;
        let heavy_session = rs.session(&[LOST_LANE])?;
        wide.session(&[LOST_LANE])?;
        tally.check(
            light_session.plan().is_light() && !heavy_session.plan().is_light(),
            || "LRC single loss must plan light, RS heavy".into(),
        );
        setup_s.push(setup_start.elapsed().as_secs_f64());
        ctx.speed.sample();

        let measure_start = Instant::now();
        while measure_start.elapsed().as_secs_f64() < ctx.cycle_seconds() {
            op += 1;
            let round = ctx.tracer.begin("codec.round", NO_PARENT, op);

            let span = ctx.tracer.begin("encode.lrc_10_6_5", round, op);
            for _ in 0..ENCODES {
                let t = Instant::now();
                lrc.encode()?;
                encode.push(traced, t);
            }
            ctx.tracer.end(span);

            let span = ctx.tracer.begin("replay.lrc_light", round, op);
            for _ in 0..LIGHT_REPLAYS {
                let t = Instant::now();
                lrc.replay(&light_session)?;
                light.push(traced, t);
            }
            ctx.tracer.end(span);
            lanes_read += (LIGHT_REPLAYS * light_session.plan().blocks_read()) as u64;

            let span = ctx.tracer.begin("replay.rs_heavy", round, op);
            for _ in 0..HEAVY_REPLAYS {
                let t = Instant::now();
                rs.replay(&heavy_session)?;
                heavy.push(traced, t);
            }
            ctx.tracer.end(span);
            lanes_read += (HEAVY_REPLAYS * heavy_session.plan().blocks_read()) as u64;
            lanes_repaired += (LIGHT_REPLAYS + HEAVY_REPLAYS) as u64;

            let span = ctx.tracer.begin("encode.rs_200_60", round, op);
            let t = Instant::now();
            wide.encode()?;
            encode_wide.push(traced, t);
            ctx.tracer.end(span);

            ctx.tracer.end(round);
            tally.attempted += (ENCODES + LIGHT_REPLAYS + HEAVY_REPLAYS + 1) as u64;
        }
        // The timed calls rewrote parity and the lost lanes over and
        // over; they must still be what the set-up gates accepted.
        lrc.session(&[LOST_LANE])?;
        rs.session(&[LOST_LANE])?;
        wide.session(&[LOST_LANE])?;
    }

    let narrow_mib = (10 * narrow_lane) as f64 / MIB;
    let wide_mib = (200 * wide_lane) as f64 / MIB;
    let lane_mib = narrow_lane as f64 / MIB;
    let mib = encode.len() as f64 * narrow_mib
        + encode_wide.len() as f64 * wide_mib
        + (light.len() + heavy.len()) as f64 * lane_mib;
    let secs = encode.total_s() + encode_wide.total_s() + light.total_s() + heavy.total_s();
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        e2e: EndToEnd {
            setup_s: crate::stats::median(&setup_s),
            op_p50_ms: encode.p50(),
            alt_p50_ms: light.p50(),
            work_per_s: mib / secs,
            io_amp: lanes_read as f64 / lanes_repaired as f64,
        },
        ..Outcome::default()
    };
    out.layer("encode_MiBps", narrow_mib / (encode.p50() / 1e3));
    out.layer("encode_wide_MiBps", wide_mib / (encode_wide.p50() / 1e3));
    out.layer("decode_light_MiBps", lane_mib / (light.p50() / 1e3));
    out.layer("decode_heavy_MiBps", lane_mib / (heavy.p50() / 1e3));
    out.layer("trace.overhead_share", encode.overhead_share());
    out.notes.push(format!(
        "{} LRC encodes, {} light and {} heavy replays, {} wide encodes; rates are size / median call time",
        encode.len(),
        light.len(),
        heavy.len(),
        encode_wide.len()
    ));
    Ok(out)
}
