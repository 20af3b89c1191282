//! The §5 experiments' rows of the claim table (`claims/mod.rs`): the
//! EC2 failure events (Figs. 4–6) and the WordCount workload (Table 2,
//! Fig. 7), full size at fixed seeds.

mod claims;

use xorbas::codes::CodeSpec;
use xorbas::sim::experiment::ec2_experiment;

#[test]
fn ec2_shape_xorbas_reads_roughly_half_per_lost_block() {
    claims::assert_hold(&claims::ec2_read_rows());
}

#[test]
fn ec2_shape_xorbas_finishes_repairs_faster() {
    claims::assert_hold(&claims::ec2_duration_rows());
}

#[test]
fn ec2_shape_network_tracks_reads() {
    claims::assert_hold(&claims::ec2_network_rows());
}

#[test]
fn workload_shape_rs_suffers_more_from_missing_blocks() {
    claims::assert_hold(&claims::workload_rows());
}

/// Every experiment is seeded: a second run gives the same events and
/// the same table, value for value.
#[test]
fn experiments_are_reproducible() {
    let events = || ec2_experiment(CodeSpec::LRC_10_6_5, 200, 0x0200).events;
    assert_eq!(events(), events());
    assert_eq!(
        claims::all_rows(),
        claims::all_rows(),
        "a second run changed the table"
    );
}
