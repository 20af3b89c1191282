//! The PR-10 three-way codec study: RS (10,4) vs LRC (10,6,5) vs
//! piggybacked RS (10,4) on the fast-mode 60-node scenario.
//!
//! Prints the comparison table — storage overhead, distance bound,
//! plan-level single-data-loss cost (volume and touched blocks), and
//! the cluster-measured repair traffic per lost block. The same scenario
//! and seeds are pinned in CI by `crates/sim/tests/three_way_scenario.rs`.
//!
//! Run with: `cargo run --release --example three_way`

use xorbas::codes::CodeSpec;
use xorbas::sim::{three_way_table, ScaleScenario};

/// Same seeds as the CI scenario gates.
const SEEDS: [u64; 3] = [5, 17, 23];

fn main() {
    println!("three-way codec comparison: 60-node fast-mode scenario, two simulated weeks\n");

    let rows = three_way_table(&ScaleScenario::fast_mode(CodeSpec::RS_10_4), &SEEDS)
        .expect("three-way comparison specs are well-formed");

    println!(
        "{:<24} {:>8} {:>9} {:>12} {:>12} {:>14}",
        "scheme", "overhead", "distance", "1-loss vol", "1-loss blks", "cluster reads"
    );
    for row in &rows {
        println!(
            "{:<24} {:>7.1}x {:>9} {:>12.2} {:>12.1} {:>8.2} ±{:.2}",
            row.scheme,
            1.0 + row.storage_overhead,
            row.distance_upper_bound,
            row.single_data_loss_volume,
            row.single_data_loss_blocks,
            row.cluster.blocks_read_per_lost_block.mean,
            row.cluster.blocks_read_per_lost_block.half_width,
        );
    }

    let rs = &rows[0];
    let pb = &rows[2];
    let plan_ratio = pb.single_data_loss_volume / rs.single_data_loss_volume;
    let cluster_ratio =
        pb.cluster.blocks_read_per_lost_block.mean / rs.cluster.blocks_read_per_lost_block.mean;
    println!(
        "\npiggybacked RS repairs a lost data block from {:.0}% of the RS bytes at \
         equal storage\noverhead and distance ({:.0}% on the mixed-lane cluster \
         average, where parity and\nmulti-loss repairs cost full RS volume). \
         CI pins the 0.75x gate \
         (crates/sim/tests/three_way_scenario.rs).\n",
        plan_ratio * 100.0,
        cluster_ratio * 100.0,
    );
    assert!(
        plan_ratio <= 0.75,
        "the committed table must satisfy the gate"
    );
}
