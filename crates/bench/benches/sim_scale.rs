//! Simulator-scaling lane: events/sec and wall time for repair storms
//! on clusters far beyond the paper's 50-node EC2 testbed.
//!
//! Two fixed "repair storm" lanes (300 and 1000 nodes) are directly
//! comparable across PRs (the whole-stack `benchmark/` has no storm
//! lane; its `sim_warehouse` workload times the year scenario). The
//! warehouse lane exercises the `ClusterScale`
//! Facebook preset (3000 nodes / 30 PB-equivalent) over a short horizon;
//! the full simulated-year acceptance run lives in
//! `examples/warehouse_year.rs` so this bench stays quick.

use std::time::Instant;

use xorbas_bench::output::{banner, f, render_table, write_csv};
use xorbas_core::CodeSpec;
use xorbas_sim::{run_scale_scenario, ScaleScenario, SimConfig, SimTime, Simulation};

struct StormResult {
    label: String,
    nodes: usize,
    blocks: usize,
    blocks_repaired: u64,
    wall_secs: f64,
    events: u64,
}

/// Loads `files` files of `blocks_per_file` data blocks on a
/// `nodes`-node cluster under `code`, then kills `kills` nodes one at a
/// time (quiescing between events) and measures the wall-clock cost of
/// the repair storms.
fn repair_storm_with(
    label: &str,
    code: CodeSpec,
    nodes: usize,
    files: usize,
    blocks_per_file: usize,
    kills: usize,
) -> StormResult {
    let mut cfg = SimConfig::ec2(code);
    cfg.cluster.nodes = nodes;
    cfg.cluster.racks = (nodes / 30).max(1);
    cfg.seed = 0x5CA1E + nodes as u64;
    let mut sim = Simulation::new(cfg);
    for i in 0..files {
        sim.load_raided_file(&format!("f{i}"), blocks_per_file);
    }
    let blocks = sim.hdfs.block_count();
    let start = Instant::now();
    for k in 0..kills {
        let victim = sim.pick_victims(1)[0];
        sim.kill_node_at(sim.clock + SimTime::from_secs(60), victim);
        sim.run_until_idle(sim.clock + SimTime::from_mins(100_000));
        let _ = k;
    }
    let wall_secs = start.elapsed().as_secs_f64();
    StormResult {
        label: label.to_string(),
        nodes,
        blocks,
        blocks_repaired: sim.metrics.snapshot().blocks_repaired,
        wall_secs,
        events: events_processed(&sim),
    }
}

/// The original fixed-shape storm: (10,6,5) LRC, 100-block files.
fn repair_storm(label: &str, nodes: usize, files: usize, kills: usize) -> StormResult {
    repair_storm_with(label, CodeSpec::LRC_10_6_5, nodes, files, 100, kills)
}

/// Serving lane: the `serving_mode` week (60 nodes, trace-driven
/// failures, ~600k Zipf client reads riding the event loop). The
/// interesting number is events/sec with the workload attached —
/// client reads triple the event count of the bare trace, and this
/// lane catches regressions in the per-read hot path.
fn serving_storm(label: &str, code: CodeSpec, seed: u64) -> StormResult {
    let sc = ScaleScenario::serving_mode(code);
    let run = run_scale_scenario(&sc, seed);
    let serving = run.serving.expect("serving_mode attaches a workload");
    StormResult {
        label: label.to_string(),
        nodes: sc.scale.nodes,
        blocks: serving.reads_issued as usize,
        blocks_repaired: run.blocks_repaired,
        wall_secs: run.wall_secs,
        events: run.events_processed,
    }
}

/// Events processed by the engine (control events plus flow
/// completions; the PR-4 before-measurement predates the counter and
/// recorded 0, comparing on wall time instead).
fn events_processed(sim: &Simulation) -> u64 {
    sim.events_processed()
}

fn main() {
    banner(
        "sim_scale",
        "simulator event-loop throughput on large clusters",
    );
    let mut rows = Vec::new();
    let mut csv = vec![vec![
        "lane".to_string(),
        "nodes".to_string(),
        "blocks".to_string(),
        "blocks_repaired".to_string(),
        "wall_secs".to_string(),
        "events".to_string(),
        "events_per_sec".to_string(),
    ]];
    let storms = [
        repair_storm("storm_300", 300, 1000, 8),
        repair_storm("storm_1000", 1000, 3000, 8),
        // Wide stripes (260 lanes over GF(2^16)) on the 300-node
        // testbed: the wide LRC keeps repair group-local, the equal-
        // overhead RS(200, 60) streams 200 lanes per lost block (its
        // heavy plans are memoized by the engine's pattern cache).
        repair_storm_with("storm_wide_lrc", CodeSpec::LRC_WIDE, 300, 30, 400, 4),
        repair_storm_with("storm_wide_rs", CodeSpec::RS_200_60, 300, 30, 400, 4),
    ];
    for r in &storms {
        let eps = r.events as f64 / r.wall_secs;
        rows.push(vec![
            r.label.clone(),
            r.nodes.to_string(),
            r.blocks.to_string(),
            r.blocks_repaired.to_string(),
            f(r.wall_secs, 3),
            r.events.to_string(),
            f(eps, 0),
        ]);
        csv.push(vec![
            r.label.clone(),
            r.nodes.to_string(),
            r.blocks.to_string(),
            r.blocks_repaired.to_string(),
            f(r.wall_secs, 4),
            r.events.to_string(),
            f(eps, 1),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["lane", "nodes", "blocks", "repaired", "wall s", "events", "events/s"],
            &rows
        )
    );

    // Serving lanes: same result shape, but the volume column counts
    // client reads issued rather than stored blocks.
    let mut serving_rows = Vec::new();
    for r in [
        serving_storm("serving_lrc", CodeSpec::LRC_10_6_5, 3),
        serving_storm("serving_rs", CodeSpec::RS_10_4, 3),
    ] {
        let eps = r.events as f64 / r.wall_secs;
        serving_rows.push(vec![
            r.label.clone(),
            r.nodes.to_string(),
            r.blocks.to_string(),
            r.blocks_repaired.to_string(),
            f(r.wall_secs, 3),
            r.events.to_string(),
            f(eps, 0),
        ]);
        csv.push(vec![
            r.label.clone(),
            r.nodes.to_string(),
            r.blocks.to_string(),
            r.blocks_repaired.to_string(),
            f(r.wall_secs, 4),
            r.events.to_string(),
            f(eps, 1),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["lane", "nodes", "reads", "repaired", "wall s", "events", "events/s"],
            &serving_rows
        )
    );
    write_csv("sim_scale.csv", &csv);
}
