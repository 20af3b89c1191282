//! Quickstart: encode a stripe with the (10,6,5) LRC, lose blocks,
//! repair them, and see why locality matters — all on the codec
//! surface (`encode_into` / `RepairSession` / `StripeViewMut`) that the
//! simulator and benches use.
//!
//! Run with: `cargo run --example quickstart`

use xorbas::codes::{encode_into_parallel, ErasureCodec, Lrc, ReedSolomon, StripeViewMut};

/// Encodes `data` into a freshly-allocated full stripe using the
/// zero-copy path: parity lanes are caller-owned buffers that
/// `encode_into` fills in place (here sharded over 4 threads).
fn encode_zero_copy(codec: &(dyn ErasureCodec + Sync), data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let lane_len = data[0].len();
    let parity_lanes = codec.total_blocks() - codec.data_blocks();
    let mut stripe: Vec<Vec<u8>> = data.to_vec();
    let mut parity = vec![vec![0u8; lane_len]; parity_lanes];
    {
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        encode_into_parallel(codec, &data_refs, &mut parity_refs, 4).expect("parallel encode");
    }
    stripe.extend(parity);
    stripe
}

/// Repairs `missing` lanes in place with a compiled [`RepairSession`]
/// and returns how many blocks the repair read.
fn repair_in_place(
    codec: &dyn ErasureCodec,
    stripe: &mut [Vec<u8>],
    missing: &[usize],
) -> (usize, bool) {
    // Compile the failure pattern once; replaying it is allocation- and
    // solve-free, which is what makes the simulator's BlockFixer cheap.
    let session = codec.repair_session(missing).expect("recoverable pattern");
    for &m in missing {
        stripe[m].fill(0); // lost lanes: buffer contents are stale
    }
    let mut lane_refs: Vec<&mut [u8]> = stripe.iter_mut().map(Vec::as_mut_slice).collect();
    let mut view = StripeViewMut::new(&mut lane_refs, missing).expect("consistent lanes");
    session.repair(&mut view).expect("replayable repair");
    let plan = session.plan();
    (plan.blocks_read(), plan.is_light())
}

fn main() {
    // Ten 1 MiB data blocks — one HDFS-Xorbas stripe's worth of data.
    let data: Vec<Vec<u8>> = (0..10u8)
        .map(|i| {
            (0..1 << 20)
                .map(|j| i.wrapping_mul(37).wrapping_add(j as u8))
                .collect()
        })
        .collect();

    // The paper's two contenders.
    let rs: ReedSolomon = ReedSolomon::new(10, 4).expect("RS(10,4)");
    let lrc = Lrc::xorbas_10_6_5().expect("LRC(10,6,5)");

    println!("scheme          blocks  overhead  single-repair reads");
    for (name, n, overhead, reads) in [
        ("3-replication", 3, 2.0, 1),
        (
            "RS (10, 4)",
            rs.total_blocks(),
            rs.spec().storage_overhead(),
            10,
        ),
        (
            "LRC (10, 6, 5)",
            lrc.total_blocks(),
            lrc.spec().storage_overhead(),
            5,
        ),
    ] {
        println!("{name:<15} {n:>6}  {overhead:>7.1}x  {reads:>19}");
    }
    println!();

    // Encode once with each scheme (zero-copy, parallel across threads).
    let rs_stripe = encode_zero_copy(&rs, &data);
    let lrc_stripe = encode_zero_copy(&lrc, &data);

    // Lose data block 3 and repair it in place.
    let mut work = rs_stripe.clone();
    let (read, light) = repair_in_place(&rs, &mut work, &[3]);
    println!(
        "RS  repair of X4: read {} blocks ({} light decoder)",
        read,
        if light { "with" } else { "without" }
    );
    assert_eq!(work[3], rs_stripe[3]);

    let mut work = lrc_stripe.clone();
    let (read, light) = repair_in_place(&lrc, &mut work, &[3]);
    println!(
        "LRC repair of X4: read {} blocks ({} light decoder)",
        read,
        if light { "with" } else { "without" }
    );
    assert_eq!(work[3], lrc_stripe[3]);

    // The LRC tolerates any 4 erasures, like the RS code…
    let mut work = lrc_stripe.clone();
    let (read, light) = repair_in_place(&lrc, &mut work, &[0, 7, 11, 15]);
    println!(
        "LRC repair of X1, X8, P2, S2 together: {} distinct blocks read, light = {}",
        read, light
    );
    for (lane, original) in work.iter().zip(&lrc_stripe) {
        assert_eq!(lane, original);
    }

    // Sessions compile a failure pattern once and replay it without
    // re-solving — repair the same pattern on a second stripe for free.
    let session = lrc.repair_session(&[3]).expect("compile once");
    let mut lanes = lrc_stripe.clone();
    lanes[3].fill(0);
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    let mut view = StripeViewMut::new(&mut lane_refs, &[3]).expect("consistent lanes");
    session.repair(&mut view).expect("replayable repair");
    drop(lane_refs);
    assert_eq!(lanes[3], lrc_stripe[3]);
    println!(
        "compiled session: repair replayed with {} linear solve(s) total",
        session.solve_count()
    );

    // …at 14% more storage than RS, which Table 1 shows buys two extra
    // zeros of MTTDL. See examples/reliability_planner.rs, and
    // examples/failure_trace.rs for the same story on a simulated fleet.
    println!("\nall repairs verified bit-exact ✔");
}
