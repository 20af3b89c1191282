//! Workspace-wide property tests: invariants that must hold for *any*
//! valid inputs, not just the paper's parameters.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::OnceLock;

use xorbas::codes::analysis::{combinations, minimum_distance};
use xorbas::codes::bounds::lrc_distance_bound;
use xorbas::codes::peeling::{peel, XorEquation};
use xorbas::codes::{
    encode_into_parallel, owned, CodeError, ErasureCodec, Lrc, LrcSpec, PiggybackRs, ReedSolomon,
};
use xorbas::gf::{Field, Gf256, Gf65536};
use xorbas::linalg::{special, Matrix};

/// Payload lengths mixing byte-scale cases (serial fallback, odd tails)
/// with shard-scale ones, so `encode_into_parallel` really splits the
/// range (its serial fallback engages below ~4 KiB per thread).
fn arb_payload_len() -> impl Strategy<Value = usize> {
    (any::<bool>(), 1usize..96, 16_384usize..40_000)
        .prop_map(|(small, a, b)| if small { a } else { b })
}

/// Deterministic pseudo-random payloads from a seed.
fn seeded_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as u8
    };
    (0..k).map(|_| (0..len).map(|_| next()).collect()).collect()
}

/// Asserts the owned helpers and the zero-copy surface produce
/// bit-identical stripes and repairs for one codec and erasure pattern.
fn assert_apis_agree<C: ErasureCodec + Sync>(
    codec: &C,
    data: &[Vec<u8>],
    erased: &[usize],
    threads: usize,
) -> Result<(), TestCaseError> {
    let k = codec.data_blocks();
    let n = codec.total_blocks();
    let len = data[0].len();
    // Encode: owned helper vs encode_into vs encode_into_parallel.
    let stripe = owned::encode(codec, data).unwrap();
    prop_assert_eq!(&stripe[..k], data, "systematic prefix");
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0xA5u8; len]; n - k];
    {
        let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_into(&data_refs, &mut parity_refs).unwrap();
    }
    prop_assert_eq!(&stripe[k..], &parity[..], "encode_into parity");
    let mut par_parity = vec![vec![0x5Au8; len]; n - k];
    {
        let mut parity_refs: Vec<&mut [u8]> =
            par_parity.iter_mut().map(Vec::as_mut_slice).collect();
        encode_into_parallel(codec, &data_refs, &mut parity_refs, threads).unwrap();
    }
    prop_assert_eq!(&parity, &par_parity, "parallel parity");
    // Repair: the compiled session replays over lanes whose stale
    // (poisoned) bytes must be fully overwritten, and the planner and
    // the session compiler agree on which patterns are recoverable.
    let mut lanes = stripe.clone();
    let repaired = owned::repair(codec, &mut lanes, erased);
    prop_assert_eq!(
        codec.repair_plan(erased).is_ok(),
        repaired.is_ok(),
        "recoverability agrees"
    );
    if repaired.is_ok() {
        prop_assert_eq!(&lanes, &stripe, "round trip of {:?}", erased);
    }
    Ok(())
}

/// The wide (200, 60, 10)-class LRC over GF(2^16) — 260 lanes, past the
/// GF(2^8) ceiling. Built once: the generator construction, not the
/// per-case arithmetic, is the expensive part of wide-stripe testing.
fn wide_lrc() -> &'static Lrc<Gf65536> {
    static WIDE: OnceLock<Lrc<Gf65536>> = OnceLock::new();
    WIDE.get_or_init(|| Lrc::new(LrcSpec::WIDE).expect("wide LRC builds"))
}

/// The RS(200, 60) wide-stripe MDS contrast, built once.
fn wide_rs() -> &'static ReedSolomon<Gf65536> {
    static WIDE: OnceLock<ReedSolomon<Gf65536>> = OnceLock::new();
    WIDE.get_or_init(|| ReedSolomon::new(200, 60).expect("wide RS builds"))
}

/// The piggybacked RS(200, 60) — wide lanes *and* the 2-substripe
/// layout (4-byte symbols over GF(2^16)), built once.
fn wide_pb() -> &'static PiggybackRs<Gf65536> {
    static WIDE: OnceLock<PiggybackRs<Gf65536>> = OnceLock::new();
    WIDE.get_or_init(|| PiggybackRs::new(200, 60).expect("wide piggyback builds"))
}

/// Payload lengths divisible by 4 for the wide piggyback (2 substripes
/// of 2-byte GF(2^16) symbols), mixing byte-scale and shard-scale.
fn arb_quad_payload_len() -> impl Strategy<Value = usize> {
    (any::<bool>(), 1usize..24, 4_096usize..10_000)
        .prop_map(|(small, a, b)| if small { a * 4 } else { b * 4 })
}

/// Even payload lengths for 2-byte-symbol codecs: byte-scale cases plus
/// shard-scale ones that make `encode_into_parallel` really split.
fn arb_even_payload_len() -> impl Strategy<Value = usize> {
    (any::<bool>(), 1usize..48, 8_192usize..20_000)
        .prop_map(|(small, a, b)| if small { a * 2 } else { b * 2 })
}

/// Strategy: valid small LRC specs (k ≤ 12, r | k, g ≤ 4).
fn arb_lrc_spec() -> impl Strategy<Value = LrcSpec> {
    (2usize..=12, 1usize..=4, any::<bool>()).prop_flat_map(|(k, g, implied)| {
        let divisors: Vec<usize> = (1..=k).filter(|r| k % r == 0).collect();
        (0..divisors.len()).prop_map(move |i| LrcSpec {
            k,
            global_parities: g,
            group_size: divisors[i],
            implied_parity: implied,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every constructible LRC round-trips random data under every
    /// single-block erasure, always via the light decoder.
    #[test]
    fn any_lrc_single_erasure_light_decodes(
        spec in arb_lrc_spec(),
        seed in any::<u64>(),
    ) {
        let Ok(lrc) = Lrc::<Gf256>::new(spec) else { return Ok(()) };
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        };
        let data: Vec<Vec<u8>> =
            (0..spec.k).map(|_| (0..24).map(|_| next()).collect()).collect();
        let stripe = owned::encode(&lrc, &data).unwrap();
        for lost in 0..lrc.total_blocks() {
            let mut lanes = stripe.clone();
            let session = owned::repair(&lrc, &mut lanes, &[lost]).unwrap();
            prop_assert!(session.plan().is_light(), "block {lost} went heavy");
            prop_assert_eq!(&lanes[lost], &stripe[lost]);
        }
    }

    /// The measured distance of every constructible LRC respects the
    /// Theorem-2 bound and exceeds the global-parity count.
    #[test]
    fn any_lrc_distance_within_bounds(spec in arb_lrc_spec()) {
        let Ok(lrc) = Lrc::<Gf256>::new(spec) else { return Ok(()) };
        let n = lrc.total_blocks();
        if n > 18 {
            return Ok(()); // keep the exhaustive search fast
        }
        let d = minimum_distance(lrc.generator());
        prop_assert!(d <= lrc_distance_bound(n, spec.k, spec.locality()));
        // At least the base code's erasure tolerance survives.
        prop_assert!(d > spec.global_parities);
    }

    /// RS: any erasure pattern up to m recovers; every pattern of
    /// m+1 data-heavy erasures still leaves a consistent report.
    #[test]
    fn rs_roundtrip_random_patterns(
        k in 2usize..=8,
        m in 1usize..=4,
        pattern_seed in any::<u64>(),
        len in 1usize..32,
    ) {
        let rs = ReedSolomon::<Gf256>::new(k, m).unwrap();
        let data: Vec<Vec<u8>> =
            (0..k).map(|i| vec![(i * 41 + 3) as u8; len]).collect();
        let stripe = owned::encode(&rs, &data).unwrap();
        // Deterministically pick an erasure pattern of size <= m.
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        use rand::seq::SliceRandom;
        let mut idx: Vec<usize> = (0..k + m).collect();
        idx.shuffle(&mut rng);
        let erased = &idx[..m];
        let mut lanes = stripe.clone();
        let session = owned::repair(&rs, &mut lanes, erased).unwrap();
        prop_assert_eq!(session.plan().blocks_read(), k);
        prop_assert_eq!(lanes, stripe);
    }

    /// The owned helpers and the zero-copy surface (encode_into /
    /// encode_into_parallel / RepairSession) are bit-identical for
    /// random RS geometries, payload lengths, and erasure patterns.
    #[test]
    fn rs_owned_and_zero_copy_apis_agree(
        k in 2usize..=8,
        m in 1usize..=4,
        // Mix byte-scale lengths (serial fallback, odd tails) with
        // shard-scale ones so encode_into_parallel really splits.
        len in arb_payload_len(),
        threads in 1usize..=4,
        seed in any::<u64>(),
        pattern_seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::<Gf256>::new(k, m).unwrap();
        let data = seeded_data(k, len, seed);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        use rand::seq::SliceRandom;
        let mut idx: Vec<usize> = (0..k + m).collect();
        idx.shuffle(&mut rng);
        let erased_count = (pattern_seed % (m as u64 + 1)) as usize;
        let mut erased = idx[..erased_count].to_vec();
        erased.sort_unstable();
        assert_apis_agree(&rs, &data, &erased, threads)?;
    }

    /// Same equivalence for random LRC geometries, including patterns
    /// that mix light and heavy repair.
    #[test]
    fn lrc_owned_and_zero_copy_apis_agree(
        spec in arb_lrc_spec(),
        len in arb_payload_len(),
        threads in 1usize..=4,
        seed in any::<u64>(),
        pattern_seed in any::<u64>(),
    ) {
        let Ok(lrc) = Lrc::<Gf256>::new(spec) else { return Ok(()) };
        let data = seeded_data(spec.k, len, seed);
        let n = lrc.total_blocks();
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        use rand::seq::SliceRandom;
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        let erased_count = (pattern_seed % (spec.global_parities as u64 + 2)) as usize;
        let mut erased = idx[..erased_count.min(n)].to_vec();
        erased.sort_unstable();
        assert_apis_agree(&lrc, &data, &erased, threads)?;
    }

    /// Same equivalence for random piggybacked-RS geometries: the owned
    /// helpers, serial and parallel encode, and session replay (both the fast
    /// single-data-loss path and the general path) are bit-identical.
    /// Payloads are even — two substripes of 1-byte GF(2^8) symbols.
    #[test]
    fn piggyback_owned_and_zero_copy_apis_agree(
        k in 2usize..=8,
        m in 2usize..=4,
        len in arb_even_payload_len(),
        threads in 1usize..=4,
        seed in any::<u64>(),
        pattern_seed in any::<u64>(),
    ) {
        let pb = PiggybackRs::<Gf256>::new(k, m).unwrap();
        let data = seeded_data(k, len, seed);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        use rand::seq::SliceRandom;
        let mut idx: Vec<usize> = (0..k + m).collect();
        idx.shuffle(&mut rng);
        let erased_count = (pattern_seed % (m as u64 + 1)) as usize;
        let mut erased = idx[..erased_count].to_vec();
        erased.sort_unstable();
        assert_apis_agree(&pb, &data, &erased, threads)?;
    }

    /// The piggyback substripe boundary is typed: any payload that is
    /// not a multiple of *twice* the field symbol is rejected with
    /// `PayloadNotSymbolAligned` — never silently truncated.
    #[test]
    fn piggyback_misaligned_payloads_are_typed_errors(
        k in 2usize..=8,
        m in 2usize..=4,
        half_len in 0usize..64,
    ) {
        let len = half_len * 2 + 1; // always odd, so never 2-aligned
        let pb = PiggybackRs::<Gf256>::new(k, m).unwrap();
        let data = seeded_data(k, len, 7);
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; len]; m];
        let mut parity_refs: Vec<&mut [u8]> =
            parity.iter_mut().map(Vec::as_mut_slice).collect();
        let err = pb.encode_into(&data_refs, &mut parity_refs).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CodeError::PayloadNotSymbolAligned { symbol_bytes: 2, len: l } if l == len
            ),
            "got {err:?}"
        );
    }
}

proptest! {
    // Wide-stripe cases run a 200-column heavy solve apiece, so this
    // block keeps its case count low; coverage comes from the targeted
    // pattern mix, not volume.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Wide-stripe equivalence at n = 260 > 255: the owned helpers,
    /// serial and parallel encode, and `RepairSession`
    /// replay agree bit-for-bit over GF(2^16) for failure patterns
    /// spanning the light decoder (cross-group), the heavy decoder
    /// (same-group pairs), and parity losses.
    #[test]
    fn wide_lrc_owned_and_zero_copy_apis_agree(
        len in arb_even_payload_len(),
        threads in 1usize..=4,
        seed in any::<u64>(),
        pattern_seed in any::<u64>(),
        clustered in any::<bool>(),
        extra in 0usize..=2,
    ) {
        let lrc = wide_lrc();
        let n = lrc.total_blocks();
        let data = seeded_data(200, len, seed);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        use rand::Rng;
        let mut erased: Vec<usize> = if clustered {
            // Two failures inside one data group: forces the heavy
            // decoder (a random pair across 260 lanes almost never
            // lands in one group).
            let g: usize = rng.gen_range(0..20);
            vec![
                g * 10 + rng.gen_range(0..5usize),
                g * 10 + 5 + rng.gen_range(0..5usize),
            ]
        } else {
            Vec::new()
        };
        for _ in 0..extra {
            erased.push(rng.gen_range(0..n));
        }
        erased.sort_unstable();
        erased.dedup();
        assert_apis_agree(lrc, &data, &erased, threads)?;
    }

    /// Wide RS at the same blocklength: any pattern within the erasure
    /// tolerance round-trips through the same surfaces (every RS
    /// repair is a heavy 200-column solve).
    #[test]
    fn wide_rs_owned_and_zero_copy_apis_agree(
        len in arb_even_payload_len(),
        threads in 1usize..=4,
        seed in any::<u64>(),
        pattern_seed in any::<u64>(),
        erased_count in 0usize..=3,
    ) {
        let rs = wide_rs();
        let data = seeded_data(200, len, seed);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        use rand::Rng;
        let mut erased: Vec<usize> = (0..erased_count)
            .map(|_| rng.gen_range(0..rs.total_blocks()))
            .collect();
        erased.sort_unstable();
        erased.dedup();
        assert_apis_agree(rs, &data, &erased, threads)?;
    }

    /// Wide piggybacked RS (200, 60) over GF(2^16): the 2-substripe
    /// layout at 260 lanes round-trips through the same surfaces. Half
    /// the cases force the fast single-data-lane session path; the
    /// rest exercise the general multi-loss path.
    #[test]
    fn wide_piggyback_owned_and_zero_copy_apis_agree(
        len in arb_quad_payload_len(),
        threads in 1usize..=4,
        seed in any::<u64>(),
        pattern_seed in any::<u64>(),
        single_data in any::<bool>(),
    ) {
        let pb = wide_pb();
        let n = pb.total_blocks();
        let data = seeded_data(200, len, seed);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        use rand::Rng;
        let mut erased: Vec<usize> = if single_data {
            vec![rng.gen_range(0..200usize)]
        } else {
            (0..3).map(|_| rng.gen_range(0..n)).collect()
        };
        erased.sort_unstable();
        erased.dedup();
        assert_apis_agree(pb, &data, &erased, threads)?;

        // The wide substripe boundary is 4 bytes; a 2-aligned but
        // 4-misaligned payload must be a typed error.
        let bad_len = len + 2;
        let bad: Vec<Vec<u8>> = (0..200).map(|_| vec![0u8; bad_len]).collect();
        let bad_refs: Vec<&[u8]> = bad.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; bad_len]; 60];
        let mut parity_refs: Vec<&mut [u8]> =
            parity.iter_mut().map(Vec::as_mut_slice).collect();
        let err = pb.encode_into(&bad_refs, &mut parity_refs).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CodeError::PayloadNotSymbolAligned { symbol_bytes: 4, len: l } if l == bad_len
            ),
            "got {err:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Peeling soundness: whatever the decoder resolves satisfies the
    /// original equations exactly.
    #[test]
    fn peeling_solutions_satisfy_equations(
        values in proptest::collection::vec(0u32..256, 6..=10),
        missing_mask in proptest::collection::vec(any::<bool>(), 6..=10),
    ) {
        let n = values.len().min(missing_mask.len());
        let vals: Vec<Gf256> =
            values[..n].iter().map(|&v| Gf256::from_index(v)).collect();
        // Build chained equations y_i + y_{i+1} + y_{i+2} = rhs-free form:
        // use coefficient structure c1*y_a + c2*y_b + c3*y_c = 0 by
        // defining y_c accordingly; simpler: equations over consecutive
        // triples with the third element *defined* as the XOR of the
        // first two (unit coefficients).
        let mut y = vals.clone();
        let mut eqs = Vec::new();
        for i in (0..n.saturating_sub(2)).step_by(3) {
            y[i + 2] = y[i] + y[i + 1];
            eqs.push(XorEquation::new(vec![
                (i, Gf256::ONE),
                (i + 1, Gf256::ONE),
                (i + 2, Gf256::ONE),
            ]));
        }
        let available: Vec<bool> =
            missing_mask[..n].iter().map(|&m| !m).collect();
        let targets: Vec<usize> =
            (0..n).filter(|&i| !available[i]).collect();
        let outcome = peel(&eqs, &available, &targets);
        // Execute the steps on a copy where missing values are wiped.
        let mut working: Vec<Option<Gf256>> = y
            .iter()
            .zip(&available)
            .map(|(&v, &a)| a.then_some(v))
            .collect();
        for step in &outcome.steps {
            let mut acc = Gf256::ZERO;
            for &(src, c) in &step.sources {
                acc += c * working[src].expect("peel sources available");
            }
            working[step.repaired] = Some(acc);
        }
        for step in &outcome.steps {
            prop_assert_eq!(working[step.repaired].unwrap(), y[step.repaired]);
        }
    }

    /// Generator-matrix invariant: for any LRC, erasing fewer than d
    /// blocks never breaks rank (cross-check distance definition).
    #[test]
    fn distance_definition_consistency(spec in arb_lrc_spec()) {
        let Ok(lrc) = Lrc::<Gf256>::new(spec) else { return Ok(()) };
        let n = lrc.total_blocks();
        if n > 14 {
            return Ok(());
        }
        let d = minimum_distance(lrc.generator());
        if d >= 2 {
            for pattern in combinations(n, d - 1) {
                prop_assert!(
                    xorbas::codes::analysis::reconstructable(lrc.generator(), &pattern)
                );
            }
        }
    }

    /// Vandermonde systematization always preserves the row space:
    /// parity checks annihilate both forms.
    #[test]
    fn systematize_preserves_code(m in 1usize..=4, extra in 1usize..=6) {
        let k = extra + 1;
        let n = k + m;
        if n > 50 {
            return Ok(());
        }
        let h: Matrix<Gf256> = special::vandermonde(m, n);
        let g = h.right_null_space();
        let gs = special::systematize(&g).expect("MDS leading block");
        prop_assert!(gs.mul(&h.transpose()).is_zero());
        prop_assert_eq!(gs.rank(), k);
    }
}

/// Non-proptest cross-check: the (10,6,5) code's light-decoder reads
/// exactly match its equations for every single failure.
#[test]
fn equations_are_the_light_decoder() {
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    for lost in 0..16 {
        let plan = lrc.repair_plan(&[lost]).unwrap();
        let eq = lrc
            .equations()
            .iter()
            .find(|eq| eq.indices().any(|i| i == lost))
            .expect("every block belongs to a repair group");
        let mut expected: Vec<usize> = eq.indices().filter(|&i| i != lost).collect();
        expected.sort_unstable();
        let mut got = plan.tasks[0].reads.clone();
        got.sort_unstable();
        assert_eq!(got, expected, "block {lost}");
    }
}
