//! The §4 reliability model driven end-to-end by the real codecs. Table 1
//! itself, against the paper's values, is four rows of the claim table
//! (`claims/mod.rs`), asserted by the first two tests here.

// Only Table 1's rows are asserted here; the other groups go unused.
#[allow(dead_code)]
mod claims;

use xorbas::codes::{ErasureCodec, Lrc, LrcSpec, ReedSolomon};
use xorbas::reliability::{analyze_codec, analyze_replication, ClusterParams};

/// The paper's per-state repair rates are unpublished, so only the
/// replication row is matched by value (±5%).
#[test]
fn table1_replication_row_matches_paper_within_5_percent() {
    claims::assert_hold(&claims::table1_replication_rows());
}

/// rep < RS < LRC, both coded rows ≥ 3 orders above replication, and
/// the LRC > 0.25 orders above RS (the paper: 1.57; ours printed).
#[test]
fn table1_ordering_and_coded_gap_match_paper_shape() {
    claims::assert_hold(&claims::table1_shape_rows());
}

#[test]
fn lrc_light_decoder_probabilities_decay_with_failures() {
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    let a = analyze_codec(&lrc, &ClusterParams::facebook());
    let p = &a.light_probability_per_state;
    assert_eq!(p.len(), 4);
    assert_eq!(p[0], 1.0, "single failures always light-decode");
    for w in p.windows(2) {
        assert!(w[1] <= w[0] + 1e-12, "light probability must not increase");
    }
    assert!(p[3] > 0.0, "even at 4 failures some repairs stay local");
}

#[test]
fn wider_stripes_lower_mttdl_at_fixed_redundancy_style() {
    // RS(10,4) vs RS(12,4): more blocks at risk per stripe, same
    // tolerance, and longer repair reads => lower MTTDL.
    let p = ClusterParams::facebook();
    let narrow: ReedSolomon = ReedSolomon::new(10, 4).unwrap();
    let wide: ReedSolomon = ReedSolomon::new(12, 4).unwrap();
    let narrow = analyze_codec(&narrow, &p);
    let wide = analyze_codec(&wide, &p);
    assert!(wide.mttdl_days < narrow.mttdl_days);
}

#[test]
fn stored_parity_lrc_slightly_beats_implied_on_reliability() {
    // The 17th block adds repair options for the parity group and one
    // more failure must accumulate before distance is threatened; the
    // implied-parity variant trades that margin for 1 block of storage.
    let p = ClusterParams::facebook();
    let implied_lrc = Lrc::xorbas_10_6_5().unwrap();
    let stored_lrc: Lrc = Lrc::new(LrcSpec {
        implied_parity: false,
        ..LrcSpec::XORBAS
    })
    .unwrap();
    let implied = analyze_codec(&implied_lrc, &p);
    let stored = analyze_codec(&stored_lrc, &p);
    assert_eq!(implied.distance, 5);
    assert_eq!(stored.distance, 5);
    // §2.1: not storing S3 saves a block per stripe. A data block still
    // repairs from 5; a global parity (P2, lane 11) from 5 instead of the
    // 4 of the stored S3's group; every later state reads a little more.
    assert_eq!((implied.stripe_blocks, stored.stripe_blocks), (16, 17));
    for (lrc, parity_reads) in [(&implied_lrc, 5), (&stored_lrc, 4)] {
        assert_eq!(lrc.repair_plan(&[0]).unwrap().blocks_read(), 5);
        assert_eq!(lrc.repair_plan(&[11]).unwrap().blocks_read(), parity_reads);
    }
    for (s, i) in stored
        .repair_reads_per_state
        .iter()
        .zip(&implied.repair_reads_per_state)
    {
        assert!(s < i, "stored {s} vs implied {i} reads");
    }
    // Both live in the same reliability class; neither collapses.
    let zeros = stored.zeros_over(&implied).abs();
    assert!(
        zeros < 1.0,
        "variants within one order of magnitude: {zeros}"
    );
}

#[test]
fn more_replicas_help_replication_dramatically() {
    let p = ClusterParams::facebook();
    let two = analyze_replication(2, &p);
    let three = analyze_replication(3, &p);
    assert!(three.mttdl_days / two.mttdl_days > 1e3);
}
