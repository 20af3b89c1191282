//! The paper's evaluation: the claim table of `claims/mod.rs`, printed
//! whole, with the §2.1, Table 3 and Fig. 1 rows asserted here. The
//! §5 experiment rows are asserted in `experiment_shapes.rs`, Table 1's
//! in `reliability_integration.rs`.
//!
//! `cargo test --test paper_claims -- --nocapture` prints the table.

mod claims;

use claims::{slope, FIG6_BLOCKS_READ_PER_LOST, FIG7_INFLATION, TABLE2};

#[test]
fn paper_claims_hold() {
    println!("{}", claims::render(&claims::all_rows()));
    for rows in [
        claims::sec21_rows(),
        claims::table3_rows(),
        claims::fig1_rows(),
    ] {
        claims::assert_hold(&rows);
    }
}

/// The paper's own numbers agree with one another: the Fig. 6 slopes
/// give its ~2x, and Table 2's job minutes give Fig. 7's inflations in
/// the order (all, Xorbas, RS).
#[test]
fn paper_numbers_are_self_consistent() {
    let (rs, lrc) = FIG6_BLOCKS_READ_PER_LOST;
    assert!((rs / lrc - 2.0).abs() < 0.05);
    let base = TABLE2[0].1;
    assert!((TABLE2[1].1 / base - 1.0 - FIG7_INFLATION.0).abs() < 0.01);
    assert!((TABLE2[2].1 / base - 1.0 - FIG7_INFLATION.1).abs() < 0.01);
}

/// The fit behind the Fig. 6 rows: exact on a line, the least-squares
/// slope (not the end-to-end one) through scattered points, and no
/// answer when every point has the same x.
#[test]
fn least_squares_slope_fits_fig6_points() {
    assert_eq!(slope(&[(0.0, 2.0), (1.0, 5.0), (2.0, 8.0)]), 3.0);
    assert_eq!(
        slope(&[(0.0, 1.0), (0.0, -1.0), (2.0, 5.0), (2.0, 3.0)]),
        2.0
    );
    let degenerate = std::panic::catch_unwind(|| slope(&[(1.0, 1.0), (1.0, 2.0)]));
    assert!(degenerate.is_err(), "a vertical line has no slope");
}
