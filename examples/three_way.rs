//! The PR-10 three-way codec study: RS (10,4) vs LRC (10,6,5) vs
//! piggybacked RS (10,4) on the fast-mode 60-node scenario.
//!
//! Prints the comparison table — storage overhead, distance bound,
//! plan-level single-data-loss cost (volume and touched blocks), and
//! the cluster-measured repair traffic per lost block — then the
//! same table as one `three_way` JSON line. The same scenario and seeds
//! are pinned in CI by
//! `crates/sim/tests/three_way_scenario.rs`.
//!
//! Run with: `cargo run --release --example three_way`

use xorbas::codes::CodeSpec;
use xorbas::sim::{three_way_table, CodeComparisonRow, ConfidenceInterval, ScaleScenario};

/// Same seeds as the CI scenario gates.
const SEEDS: [u64; 3] = [5, 17, 23];

fn ci_json(ci: &ConfidenceInterval) -> String {
    format!(
        r#"{{"mean":{:.4},"half_width":{:.4},"n":{}}}"#,
        ci.mean, ci.half_width, ci.n
    )
}

fn row_json(row: &CodeComparisonRow) -> String {
    let runs: Vec<String> = SEEDS
        .iter()
        .zip(&row.cluster.runs)
        .map(|(seed, r)| {
            format!(
                r#"{{"seed":{seed},"blocks_lost":{},"blocks_read_per_lost_block":{:.4},"hdfs_gb_read":{:.3}}}"#,
                r.blocks_lost,
                r.blocks_read_per_lost_block,
                r.hdfs_bytes_read / 1e9,
            )
        })
        .collect();
    format!(
        r#"{{"scheme":"{}","storage_overhead":{:.1},"distance_upper_bound":{},"single_data_loss_volume":{:.4},"single_data_loss_blocks":{:.1},"cluster_blocks_read_per_lost_block":{},"cluster_hdfs_gb_read":{},"runs":[{}]}}"#,
        row.scheme,
        row.storage_overhead,
        row.distance_upper_bound,
        row.single_data_loss_volume,
        row.single_data_loss_blocks,
        ci_json(&row.cluster.blocks_read_per_lost_block),
        ci_json(&row.cluster.hdfs_gb_read),
        runs.join(","),
    )
}

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

    let row_lines: Vec<String> = rows.iter().map(row_json).collect();
    println!(
        r#"three_way {{"bench":"three-way codec comparison","scenario":"fast_mode","days":14,"nodes":60,"seeds":[5,17,23],"gate":{{"metric":"piggyback_over_rs_single_data_loss_volume","max":0.75,"measured":{:.4}}},"cluster_ratio_piggyback_over_rs":{:.4},"rows":[{}]}}"#,
        plan_ratio,
        cluster_ratio,
        row_lines.join(","),
    );
}
