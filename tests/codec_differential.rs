//! Cross-codec differential harness (PR 10): one generic suite driving
//! all four codec families — RS (10,4), LRC (10,6,5), piggybacked
//! RS (10,4), and 3-replication as the `[3, 1]` repetition code — plus
//! RS (12,4) over GF(2^16), through the identical checks (the wide
//! GF(2^16) codes, RS (200,60) and the wide LRC, run the assorted
//! lengths only):
//!
//! * roundtrip at assorted symbol-aligned lengths (including the
//!   byte-scale odd tails the serial fallback handles);
//! * **every** single- and double-erasure pattern repaired
//!   bit-identically through `encode_into`, `encode_into_parallel` and
//!   the `RepairSession` replay;
//! * repair-read costs asserted *exactly* per family: RS always reads
//!   `k` lanes, the LRC light decoder reads its 5-lane local group,
//!   a piggyback single-data-lane repair moves strictly fewer than
//!   `k` lane-volumes (the ISSUE's ~30% byte saving) while touching
//!   `k + 1` lanes, and replication copies one surviving replica;
//! * the session replay sees garbage in every lane outside
//!   `RepairPlan::fetch_lanes`, so the fetch set the node and the
//!   simulator pull is proven sufficient for every pattern, and it never
//!   meets the missing lanes;
//! * a repair target that is not unavailable is the same typed error in
//!   every family.
//!
//! CI runs this harness under both native kernel dispatch and
//! `XORBAS_KERNEL_BACKEND=scalar`, so a SIMD-only or scalar-only
//! regression in any family cannot hide.

use xorbas::codes::analysis::combinations;
use xorbas::codes::{
    encode_into_parallel, owned, CodeError, ErasureCodec, Lrc, LrcSpec, PiggybackRs, ReedSolomon,
    Replication, StripeViewMut, WideLrc, WideReedSolomon,
};
use xorbas::gf::Gf65536;

/// Deterministic pseudo-random payloads from a seed.
fn seeded_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as u8
    };
    (0..k).map(|_| (0..len).map(|_| next()).collect()).collect()
}

/// Drives one codec + payload + erasure pattern through every encode
/// and repair surface and asserts they agree bit-for-bit.
fn assert_all_paths_agree<C: ErasureCodec + Sync>(
    codec: &C,
    name: &str,
    data: &[Vec<u8>],
    erased: &[usize],
    threads: usize,
) {
    let k = codec.data_blocks();
    let n = codec.total_blocks();
    let len = data[0].len();

    // Encode: owned helper vs encode_into vs encode_into_parallel.
    let stripe = owned::encode(codec, data).unwrap();
    assert_eq!(&stripe[..k], data, "{name}: systematic prefix");
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0xA5u8; len]; n - k];
    {
        let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_into(&data_refs, &mut parity_refs).unwrap();
    }
    assert_eq!(&stripe[k..], &parity[..], "{name}: encode_into parity");
    let mut par_parity = vec![vec![0x5Au8; len]; n - k];
    {
        let mut parity_refs: Vec<&mut [u8]> =
            par_parity.iter_mut().map(Vec::as_mut_slice).collect();
        encode_into_parallel(codec, &data_refs, &mut parity_refs, threads).unwrap();
    }
    assert_eq!(parity, par_parity, "{name}: parallel parity");

    if erased.is_empty() {
        return;
    }

    // Repair: the compiled session over borrowed lanes whose stale
    // contents must be fully overwritten.
    let session = codec
        .repair_session(erased)
        .unwrap_or_else(|e| panic!("{name}: session compile for {erased:?}: {e}"));
    // The session sees only what an executor holding the stripe in
    // memory would have fetched: every lane outside the plan's fetch set
    // is garbage, so a fetch set one lane short (the PR 7 stale-lane bug
    // class) rebuilds wrong bytes here.
    let fetch: Vec<usize> = session.plan().fetch_lanes().collect();
    assert!(
        fetch.iter().all(|lane| !erased.contains(lane)),
        "{name}: fetch set {fetch:?} meets the erased lanes {erased:?}"
    );
    let mut lanes = stripe.clone();
    for (i, lane) in lanes.iter_mut().enumerate() {
        if erased.contains(&i) {
            lane.fill(0xEE);
        } else if !fetch.contains(&i) {
            lane.fill(0xA5);
        }
    }
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    let mut view = StripeViewMut::new(&mut lane_refs, erased).unwrap();
    session.repair(&mut view).unwrap();
    drop(lane_refs);
    for &i in erased.iter().chain(&fetch) {
        assert_eq!(
            &lanes[i], &stripe[i],
            "{name}: lane {i} after a replay from the fetch set {fetch:?} alone for {erased:?}"
        );
    }
}

/// Assorted lengths, each with a single loss: one symbol, an odd
/// handful, a fused-kernel span, and a parallel-splitting span. In
/// symbols, so a GF(2^16) codec meets scalar tails after both the
/// 32- and the 64-byte vector steps.
fn assorted_length_suite<C: ErasureCodec + Sync>(codec: &C, name: &str) {
    let sb = codec.symbol_bytes();
    let n = codec.total_blocks();
    let k = codec.data_blocks();
    for (i, &base) in [1usize, 7, 129, 9001].iter().enumerate() {
        let len = base * sb;
        let data = seeded_data(k, len, 0xD1F + base as u64);
        assert_all_paths_agree(codec, name, &data, &[i % n], 3);
    }
}

/// The generic suite: assorted-length roundtrips, every single and
/// every double erasure pattern at a fixed mid-size payload, then the
/// shared repair-request validation.
fn differential_suite<C: ErasureCodec + Sync>(codec: &C, name: &str) {
    let sb = codec.symbol_bytes();
    let n = codec.total_blocks();
    let k = codec.data_blocks();

    assorted_length_suite(codec, name);

    // Every single- and double-erasure pattern (the coded families
    // have distance 5 and 3-replication distance 3, so every such
    // pattern must recover).
    let len = 32 * sb;
    let data = seeded_data(k, len, 0xD1F);
    for a in 0..n {
        assert_all_paths_agree(codec, name, &data, &[a], 2);
        for b in a + 1..n {
            assert_all_paths_agree(codec, name, &data, &[a, b], 2);
        }
    }

    // A target that is not unavailable is a typed error in every
    // family: no plan may read the lane it repairs.
    assert!(
        matches!(
            codec.repair_plan_for(&[0], &[1]),
            Err(CodeError::InvalidParameters(_))
        ),
        "{name}: planned a repair of an available lane"
    );
}

#[test]
fn reed_solomon_passes_the_differential_suite() {
    let rs: ReedSolomon = ReedSolomon::new(10, 4).unwrap();
    differential_suite(&rs, "rs(10,4)");
}

#[test]
fn lrc_passes_the_differential_suite() {
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    differential_suite(&lrc, "lrc(10,6,5)");
}

#[test]
fn piggyback_passes_the_differential_suite() {
    let pb: PiggybackRs = PiggybackRs::new(10, 4).unwrap();
    differential_suite(&pb, "pb(10,4)");
}

#[test]
fn gf65536_reed_solomon_passes_the_differential_suite() {
    let rs: ReedSolomon<Gf65536> = ReedSolomon::new(12, 4).unwrap();
    differential_suite(&rs, "rs(12,4)/gf65536");
}

/// The wide codes encode through multiply blocks of many rows:
/// RS(200, 60) issues five full 12-row blocks and a 16-source batch
/// remainder (200 = 12 · 16 + 8), the wide LRC's 40 global parities
/// a 4-row remainder block. Every pattern would be ~34k repairs, so
/// these run the assorted lengths with a single loss each.
#[test]
fn wide_codecs_pass_the_assorted_length_suite() {
    let rs = WideReedSolomon::new(200, 60).unwrap();
    assorted_length_suite(&rs, "rs(200,60)/gf65536");
    let lrc = WideLrc::new(LrcSpec::WIDE).unwrap();
    assorted_length_suite(&lrc, "lrc(200,40,10)/gf65536");
}

#[test]
fn replication_passes_the_differential_suite() {
    let rep = Replication::new(3).unwrap();
    differential_suite(&rep, "3-replication");
}

/// Repair-read costs pinned exactly, per family, for every lane.
#[test]
fn repair_read_costs_are_exact_per_family() {
    // RS: every repair is a heavy k-lane read at full volume. (For a
    // single loss no task reads a rebuilt lane, so what one executor
    // fetches is what the per-task counters add up to — in every family.)
    let rs: ReedSolomon = ReedSolomon::new(10, 4).unwrap();
    for lost in 0..rs.total_blocks() {
        let plan = rs.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), 10, "rs lane {lost}");
        assert_eq!(plan.fetch_lanes().count(), 10, "rs lane {lost}");
        assert_eq!(plan.read_volume(), 10.0, "rs lane {lost}");
        assert!(!plan.tasks[0].light, "rs lane {lost}");
    }

    // LRC: every single loss decodes light from its 5-lane local group.
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    for lost in 0..lrc.total_blocks() {
        let plan = lrc.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), 5, "lrc lane {lost}");
        assert_eq!(plan.fetch_lanes().count(), 5, "lrc lane {lost}");
        assert_eq!(plan.read_volume(), 5.0, "lrc lane {lost}");
        assert!(plan.tasks[0].light, "lrc lane {lost}");
    }
    // Where the two counts part: losing P1 (lane 10) and S1 (lane 14),
    // the first task rebuilds S1 and the second reads it to rebuild P1.
    // Per-task counters see 10 distinct lanes read; an executor holding
    // the stripe in memory fetches 9.
    let plan = lrc.repair_plan(&[10, 14]).unwrap();
    assert_eq!(plan.blocks_read(), 10);
    assert_eq!(plan.fetch_lanes().count(), 9);
    assert!(plan.fetch_lanes().all(|lane| lane != 14));

    // Replication: every loss copies one surviving replica, light.
    let rep = Replication::new(3).unwrap();
    for lost in 0..rep.total_blocks() {
        let plan = rep.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), 1, "replica {lost}");
        assert_eq!(plan.fetch_lanes().count(), 1, "replica {lost}");
        assert_eq!(plan.read_volume(), 1.0, "replica {lost}");
        assert!(plan.tasks[0].light, "replica {lost}");
    }

    // Piggyback: a lost data lane touches k+1 = 11 lanes but moves
    // (k + group)/2 < k lane-volumes — out-of-group lanes contribute a
    // single substripe half. Parity losses fall back to RS cost.
    let pb: PiggybackRs = PiggybackRs::new(10, 4).unwrap();
    let k = 10;
    let mut total_volume = 0.0;
    for lost in 0..k {
        let plan = pb.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), k + 1, "pb data lane {lost}");
        assert_eq!(plan.fetch_lanes().count(), k + 1, "pb data lane {lost}");
        let volume = plan.read_volume();
        assert!(
            volume < k as f64,
            "pb data lane {lost}: volume {volume} not below k"
        );
        // Group sizes at (10,4) are {4,3,3}: volume is (10+g)/2.
        let group = [4.0, 3.0, 3.0][lost % 3];
        assert_eq!(volume, (10.0 + group) / 2.0, "pb data lane {lost}");
        total_volume += volume;
    }
    // The headline: 6.7 mean vs RS's 10.0 — the ~33% byte saving.
    assert!((total_volume / k as f64 - 6.7).abs() < 1e-12);
    for lost in k..pb.total_blocks() {
        let plan = pb.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), 10, "pb parity lane {lost}");
        assert_eq!(plan.fetch_lanes().count(), 10, "pb parity lane {lost}");
        assert_eq!(plan.read_volume(), 10.0, "pb parity lane {lost}");
    }
}

/// Asserts every 1..=`m` erasure pattern of an MDS `(k, m)` codec, for
/// every non-empty target subset, plans as exactly one heavy task that
/// repairs the targets from the first `k` surviving lanes, ascending.
/// `skip` exempts the patterns a family plans differently.
fn assert_heavy_selection_is_first_k_survivors<C: ErasureCodec>(
    codec: &C,
    name: &str,
    skip: impl Fn(&[usize]) -> bool,
) {
    let k = codec.data_blocks();
    let n = codec.total_blocks();
    for erasures in 1..=n - k {
        for pattern in combinations(n, erasures).filter(|p| !skip(p)) {
            let first_k: Vec<usize> = (0..n).filter(|i| !pattern.contains(i)).take(k).collect();
            for subset in 1u32..1 << erasures {
                let targets: Vec<usize> = (0..erasures)
                    .filter(|b| subset & (1 << b) != 0)
                    .map(|b| pattern[b])
                    .collect();
                let plan = codec.repair_plan_for(&pattern, &targets).unwrap();
                let ctx = format!("{name}: {targets:?} of {pattern:?}");
                assert_eq!(plan.missing, targets, "{ctx}");
                assert_eq!(plan.tasks.len(), 1, "{ctx}");
                let task = &plan.tasks[0];
                assert!(!task.light, "{ctx}");
                assert_eq!(task.repairs, targets, "{ctx}");
                assert_eq!(task.reads, first_k, "{ctx}");
                assert!(task.half_reads.is_empty(), "{ctx}");
            }
        }
    }
}

/// Which lanes the one decoder's heavy task reads, pinned for every
/// family that reaches it.
#[test]
fn heavy_selection_is_the_first_k_surviving_lanes_ascending() {
    let rs_6_3: ReedSolomon = ReedSolomon::new(6, 3).unwrap();
    assert_heavy_selection_is_first_k_survivors(&rs_6_3, "rs(6,3)", |_| false);
    let rs: ReedSolomon = ReedSolomon::new(10, 4).unwrap();
    assert_heavy_selection_is_first_k_survivors(&rs, "rs(10,4)", |_| false);
    // A single lost data lane is the piggyback's own fast path.
    let pb: PiggybackRs = PiggybackRs::new(10, 4).unwrap();
    assert_heavy_selection_is_first_k_survivors(&pb, "pb(10,4)", |p| p.len() == 1 && p[0] < 10);

    // LRC: whenever peeling leaves a remainder, the light tasks come
    // first and the one heavy task reads k surviving lanes, ascending.
    // (Not always the first k: the LRC is not MDS, so the greedy choice
    // skips a survivor that depends on the lanes before it.)
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    let mut heavy_patterns = 0;
    for erasures in 2..=4 {
        for pattern in combinations(16, erasures) {
            let plan = lrc.repair_plan(&pattern).unwrap();
            let Some((last, before)) = plan.tasks.split_last() else {
                panic!("lrc: empty plan for {pattern:?}");
            };
            assert!(before.iter().all(|t| t.light), "lrc: {pattern:?}");
            if last.light {
                continue;
            }
            heavy_patterns += 1;
            assert_eq!(last.reads.len(), 10, "lrc: {pattern:?}");
            assert!(
                last.reads.windows(2).all(|w| w[0] < w[1]),
                "lrc: {pattern:?} reads {:?} not ascending",
                last.reads
            );
            assert!(
                last.reads.iter().all(|r| !pattern.contains(r)),
                "lrc: {pattern:?} reads an unavailable lane: {:?}",
                last.reads
            );
        }
    }
    assert!(heavy_patterns > 0);

    // Nothing to repair is the empty plan, even with more lanes
    // unavailable than the code could ever recover.
    let gone = [0, 1, 2, 3, 4, 5, 6];
    assert!(matches!(
        rs.repair_plan(&gone),
        Err(CodeError::Unrecoverable { .. })
    ));
    assert!(rs.repair_plan_for(&gone, &[]).unwrap().tasks.is_empty());
    assert!(pb.repair_plan_for(&gone, &[]).unwrap().tasks.is_empty());
    assert!(lrc.repair_plan_for(&gone, &[]).unwrap().tasks.is_empty());
}
