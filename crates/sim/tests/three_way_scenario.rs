//! CI-gated three-way codec comparison suite (PR 10).
//!
//! Pins the RS (10,4) / LRC (10,6,5) / piggybacked RS (10,4) table on
//! the fast-mode 60-node scenario: storage overheads, distance bounds,
//! plan-level single-data-loss costs (the headline ~30% piggyback
//! repair-byte saving at equal storage overhead), and the
//! cluster-measured repair-traffic ordering. CI runs the suite twice —
//! the in-process determinism test plus the second invocation prove the
//! whole gate reproducible within and across processes.
//!
//! `examples/three_way.rs` prints the full table from the same scenario
//! and seeds.

use xorbas_core::CodeSpec;
use xorbas_sim::{
    run_scale_scenario, single_data_loss_cost, three_way_table, CodeComparisonRow, ScaleScenario,
};

/// The CI scenario seeds.
const SEEDS: [u64; 3] = [5, 17, 23];

fn table() -> Vec<CodeComparisonRow> {
    three_way_table(&ScaleScenario::fast_mode(CodeSpec::RS_10_4), &SEEDS).unwrap()
}

/// The headline PR-10 acceptance gate: at *equal storage overhead* and
/// *equal distance*, a single lost data block costs piggybacked RS at
/// most 0.75x the repair bytes of plain RS. The exact planner numbers:
/// 6.7 block-volumes vs 10.0 (a 33% saving), touching 11 blocks vs 10.
#[test]
fn piggyback_single_data_loss_repairs_under_three_quarters_of_rs_bytes() {
    let rs = CodeSpec::RS_10_4;
    let pb = CodeSpec::PB_10_4;
    assert_eq!(pb.storage_overhead(), rs.storage_overhead());
    assert_eq!(pb.distance_upper_bound(), rs.distance_upper_bound());

    let (rs_volume, rs_blocks) = single_data_loss_cost(rs).unwrap();
    let (pb_volume, pb_blocks) = single_data_loss_cost(pb).unwrap();
    assert_eq!((rs_volume, rs_blocks), (10.0, 10.0));
    assert!(
        (pb_volume - 6.7).abs() < 1e-12,
        "piggyback volume {pb_volume}"
    );
    assert_eq!(pb_blocks, 11.0);

    let ratio = pb_volume / rs_volume;
    assert!(
        ratio <= 0.75,
        "piggyback/RS single-data-loss byte ratio {ratio} exceeds 0.75"
    );
}

/// The cluster-measured table: repair traffic per lost block must order
/// LRC < piggybacked RS < RS. The piggyback saving shrinks from the
/// planner's 0.67x because cluster losses mix in parity lanes and
/// multi-loss stripes, both of which piggybacked RS repairs at full RS
/// volume — the honest fleet-average band is ~0.72–0.92x.
#[test]
fn cluster_repair_traffic_orders_lrc_piggyback_rs() {
    let rows = table();
    assert_eq!(rows.len(), 3);
    let [rs, lrc, pb] = &rows[..] else {
        panic!("three rows");
    };
    assert_eq!(rs.scheme, "RS (10, 4)");
    assert_eq!(lrc.scheme, "LRC (10, 6, 5)");
    assert_eq!(pb.scheme, "Piggybacked RS (10, 4)");

    // Storage: the two MDS codes are cheapest; the LRC pays 14% more
    // for its locality. Reliability: every family tolerates any four
    // losses (the MDS codes meet their Singleton bound of 5 exactly;
    // the LRC's Theorem-2 bound of 6 is not met — its distance is 5).
    assert_eq!(rs.storage_overhead, pb.storage_overhead);
    assert!(lrc.storage_overhead > rs.storage_overhead);
    assert_eq!(rs.distance_upper_bound, 5);
    assert_eq!(pb.distance_upper_bound, 5);
    assert_eq!(lrc.distance_upper_bound, 6);
    for row in &rows {
        assert_eq!(row.cluster.runs.len(), SEEDS.len());
        assert_eq!(row.cluster.data_loss_stripes.mean, 0.0, "{}", row.scheme);
        for run in &row.cluster.runs {
            assert!(run.failures_injected > 0, "a fortnight must see failures");
            assert!(run.blocks_lost > 0);
            assert_eq!(run.blocks_repaired, run.blocks_lost);
        }
    }

    let rs_reads = rs.cluster.blocks_read_per_lost_block.mean;
    let lrc_reads = lrc.cluster.blocks_read_per_lost_block.mean;
    let pb_reads = pb.cluster.blocks_read_per_lost_block.mean;
    assert!(rs_reads > 8.5, "RS reads {rs_reads}");
    assert!(lrc_reads < 6.5, "LRC reads {lrc_reads}");
    // The §5 headline: the paper measures ~11.5 blocks read per lost
    // block under RS against ~5.8 under LRC, a ~2x saving.
    assert!(
        (1.7..=2.5).contains(&(rs_reads / lrc_reads)),
        "RS/LRC repair-traffic ratio {} outside the paper's ~2x band",
        rs_reads / lrc_reads
    );
    assert!(
        lrc_reads < pb_reads && pb_reads < rs_reads,
        "ordering violated: LRC {lrc_reads}, piggyback {pb_reads}, RS {rs_reads}"
    );

    let ratio = pb_reads / rs_reads;
    assert!(
        (0.72..0.92).contains(&ratio),
        "cluster piggyback/RS read ratio {ratio} outside the fleet-average band"
    );
}

/// Two same-seed piggyback runs are bit-identical — the determinism
/// pin that lets CI rerun this suite as its own reproducibility gate.
#[test]
fn piggyback_scenario_is_deterministic() {
    let sc = ScaleScenario::fast_mode(CodeSpec::PB_10_4);
    let a = run_scale_scenario(&sc, SEEDS[0]);
    let b = run_scale_scenario(&sc, SEEDS[0]);
    // Everything but wall time (and the NaN probe field — probes are
    // off in fast mode) must match bit-for-bit.
    assert_eq!(a.failures_injected, b.failures_injected);
    assert_eq!(a.blocks_lost, b.blocks_lost);
    assert_eq!(a.blocks_repaired, b.blocks_repaired);
    assert_eq!(a.hdfs_bytes_read, b.hdfs_bytes_read);
    assert_eq!(a.network_bytes, b.network_bytes);
    assert_eq!(a.blocks_read_per_lost_block, b.blocks_read_per_lost_block);
    assert_eq!(a.repair_minutes, b.repair_minutes);
    assert_eq!(a.events_processed, b.events_processed);
    assert!(a.failures_injected > 0);
}
