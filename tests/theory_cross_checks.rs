//! Cross-crate consistency: the combinatorial analysis (xorbas-core),
//! the information-flow-graph achievability machinery (xorbas-flowgraph)
//! and the codecs must all tell the same story.

use xorbas::codes::analysis::{code_locality, combinations, minimum_distance, reconstructable};
use xorbas::codes::bounds::{lrc_distance_bound, mds_distance};
use xorbas::codes::{CodeSpec, ErasureCodec, Lrc, LrcSpec, ReedSolomon};
use xorbas::flowgraph::{all_collectors_feasible, lemma2_bound, GadgetParams};

/// The operational distance: smallest erasure count whose repair plan
/// can fail.
fn operational_distance<C: ErasureCodec>(codec: &C) -> usize {
    let n = codec.total_blocks();
    for e in 1..=n {
        if combinations(n, e).any(|pattern| codec.repair_plan(&pattern).is_err()) {
            return e;
        }
    }
    n + 1
}

#[test]
fn analytic_and_operational_distance_agree() {
    let rs: ReedSolomon = ReedSolomon::new(10, 4).unwrap();
    assert_eq!(minimum_distance(rs.generator()), operational_distance(&rs));

    let lrc = Lrc::xorbas_10_6_5().unwrap();
    assert_eq!(
        minimum_distance(lrc.generator()),
        operational_distance(&lrc)
    );

    let small: Lrc = Lrc::new(LrcSpec {
        k: 6,
        global_parities: 2,
        group_size: 3,
        implied_parity: true,
    })
    .unwrap();
    assert_eq!(
        minimum_distance(small.generator()),
        operational_distance(&small)
    );
}

#[test]
fn reconstructability_matches_repair_planning_exhaustively() {
    // For every erasure pattern of size <= 5 on the Xorbas code, rank
    // analysis and the repair planner must agree exactly.
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    let g = lrc.generator();
    for size in 1..=5 {
        for pattern in combinations(16, size) {
            let rank_says = reconstructable(g, &pattern);
            let planner_says = lrc.repair_plan(&pattern).is_ok();
            assert_eq!(rank_says, planner_says, "pattern {pattern:?}");
        }
    }
}

#[test]
fn spec_locality_matches_measured_locality() {
    for spec in [
        LrcSpec::XORBAS,
        LrcSpec {
            k: 12,
            global_parities: 4,
            group_size: 4,
            implied_parity: true,
        },
        LrcSpec {
            k: 6,
            global_parities: 3,
            group_size: 3,
            implied_parity: false,
        },
    ] {
        let lrc: Lrc = Lrc::new(spec).unwrap();
        let measured = code_locality(lrc.generator(), spec.locality())
            .expect("locality within the spec's value");
        assert!(
            measured <= spec.locality(),
            "spec {spec:?}: measured {measured} > spec {}",
            spec.locality()
        );
    }
}

#[test]
fn theorem2_bound_consistent_between_crates() {
    for (n, k, r) in [(16, 10, 5), (14, 10, 10), (9, 6, 2), (12, 8, 3)] {
        assert_eq!(lrc_distance_bound(n, k, r), lemma2_bound(n, k, r));
    }
}

#[test]
fn flowgraph_feasibility_matches_constructed_code_distance() {
    // (k=4, g=2, r=2, implied): n = 4 + 2 + 2 = 8, (r+1) | n fails (3 ∤ 8),
    // so use (k=6, g=2, r=2, stored): n = 6 + 2 + 3 + 1 = 12, (r+1) | 12 ✓.
    // Then the locality sweep at k = 12 with 4 global parities: every r
    // keeps the Theorem-2 bound, and r = 3 (n = 20) meets the gadget's
    // (r+1) | n assumption.
    let stored = LrcSpec {
        k: 6,
        global_parities: 2,
        group_size: 2,
        implied_parity: false,
    };
    let sweep = [2, 3, 4, 6, 12].map(|group_size| LrcSpec {
        k: 12,
        global_parities: 4,
        group_size,
        implied_parity: true,
    });
    let mut gadgets = 0;
    for spec in std::iter::once(stored).chain(sweep) {
        let lrc: Lrc = Lrc::new(spec).unwrap();
        let n = lrc.total_blocks();
        let k = spec.k;
        let r = spec.group_size;
        let d = minimum_distance(lrc.generator());
        let bound = lrc_distance_bound(n, k, r);
        assert!(
            d <= bound,
            "{spec:?}: d = {d} over the Theorem-2 bound {bound}"
        );
        if n % (r + 1) != 0 {
            continue; // outside the gadget's assumption
        }
        gadgets += 1;
        // Achievability: the gadget must admit the distance our
        // construction actually reaches…
        assert!(
            all_collectors_feasible(GadgetParams { k, n, r, d }),
            "{spec:?}: constructed d = {d} must be feasible"
        );
        // …and refuse anything beyond the Theorem-2 bound.
        if bound < n - k + 1 {
            assert!(!all_collectors_feasible(GadgetParams {
                k,
                n,
                r,
                d: bound + 1
            }));
        }
    }
    assert_eq!(
        gadgets, 2,
        "the k = 6 stored code and the k = 12, r = 3 one"
    );
}

#[test]
fn mds_codes_meet_singleton_via_both_routes() {
    for (k, m) in [(4usize, 2usize), (6, 3), (10, 4)] {
        let rs: ReedSolomon = ReedSolomon::new(k, m).unwrap();
        assert_eq!(minimum_distance(rs.generator()), mds_distance(k + m, k));
        // r = k gadget (one group of k+1 does not generally divide n;
        // use the bound formula instead).
        assert_eq!(lrc_distance_bound(k + m, k, k), mds_distance(k + m, k));
    }
}

#[test]
fn codespec_constants_agree_with_codecs() {
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    assert_eq!(lrc.total_blocks(), CodeSpec::LRC_10_6_5.total_blocks());
    assert_eq!(
        lrc.repair_plan(&[0]).unwrap().blocks_read(),
        CodeSpec::LRC_10_6_5.single_repair_reads()
    );
    // §7's archival stripes: an RS data block reads all k others, an
    // LRC data block only its 10-block group, however wide the stripe.
    for k in [10, 20, 50, 100] {
        let rs: ReedSolomon = ReedSolomon::new(k, 4).unwrap();
        let reads = rs.repair_plan(&[0]).unwrap().blocks_read();
        assert_eq!(
            reads,
            CodeSpec::ReedSolomon { k, m: 4 }.single_repair_reads()
        );
        assert_eq!(reads, k);
        let lrc: Lrc = Lrc::new(LrcSpec {
            k,
            global_parities: 4,
            group_size: 10,
            implied_parity: true,
        })
        .unwrap();
        assert_eq!(lrc.repair_plan(&[0]).unwrap().blocks_read(), 10, "k = {k}");
    }
}
