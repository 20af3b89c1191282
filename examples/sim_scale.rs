//! Simulator throughput under repair storms on clusters far beyond the
//! paper's 50-node EC2 testbed: wall time and events per second.
//!
//! Four fixed lanes, comparable from one build to the next (the
//! whole-stack benchmark times the warehouse year and the serving week,
//! not a storm): the (10,6,5) LRC with 100-block files on 300 and 1000
//! nodes, and on 300 nodes the 260-lane wide LRC against the
//! equal-overhead RS(200, 60), which streams 200 lanes per lost block.
//!
//! Run with: `cargo run --release --example sim_scale`

use std::time::Instant;

use xorbas::codes::CodeSpec;
use xorbas::sim::{SimConfig, SimTime, Simulation};

/// Loads `files` files of `blocks_per_file` data blocks on a `nodes`-node
/// cluster, then kills `kills` nodes one at a time, each storm drained
/// before the next, and prints one row.
fn storm(
    lane: &str,
    code: CodeSpec,
    nodes: usize,
    files: usize,
    blocks_per_file: usize,
    kills: usize,
) {
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
    for _ in 0..kills {
        let victim = sim.pick_victims(1)[0];
        sim.kill_node_at(sim.clock + SimTime::from_secs(60), victim);
        sim.run_until_idle(sim.clock + SimTime::from_mins(100_000));
    }
    let wall = start.elapsed().as_secs_f64();
    let events = sim.events_processed();
    println!(
        "{lane:<15} {nodes:>5} {blocks:>7} {:>9} {wall:>8.3} {events:>9} {:>10.0}",
        sim.metrics.snapshot().blocks_repaired,
        events as f64 / wall
    );
}

fn main() {
    println!("lane            nodes  blocks  repaired   wall s    events   events/s");
    storm("storm_300", CodeSpec::LRC_10_6_5, 300, 1000, 100, 8);
    storm("storm_1000", CodeSpec::LRC_10_6_5, 1000, 3000, 100, 8);
    storm("storm_wide_lrc", CodeSpec::LRC_WIDE, 300, 30, 400, 4);
    storm("storm_wide_rs", CodeSpec::RS_200_60, 300, 30, 400, 4);
}
