//! End-to-end integration: simulated failures repaired by the real
//! codecs, with every restored block verified bit-exact against its
//! original payload (the engine asserts equality internally in
//! verify-payload mode; these tests drive whole scenarios through it).

use xorbas::codes::CodeSpec;
use xorbas::sim::experiment::placement_invariant_holds;
use xorbas::sim::{SimConfig, SimTime, Simulation};

fn verified_config(code: CodeSpec, nodes: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::ec2(code);
    cfg.cluster.nodes = nodes;
    cfg.cluster.block_bytes = 4 << 20;
    cfg.verify_payloads = true;
    cfg.payload_bytes = 128;
    cfg.seed = seed;
    cfg
}

#[test]
fn full_failure_sequence_repairs_bit_exactly_lrc() {
    let mut sim = Simulation::new(verified_config(CodeSpec::LRC_10_6_5, 24, 1));
    for i in 0..8 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let total_blocks = sim.hdfs.block_count();
    // Three failure events: single, pair, single.
    for (event, kills) in [1usize, 2, 1].into_iter().enumerate() {
        let victims = sim.pick_victims(kills);
        let at = sim.clock + SimTime::from_mins(5);
        for v in victims {
            sim.kill_node_at(at, v);
        }
        sim.run_until_idle(sim.clock + SimTime::from_mins(100_000));
        assert!(
            sim.hdfs.lost_blocks().is_empty(),
            "event {event}: all blocks restored"
        );
        assert!(
            placement_invariant_holds(&sim),
            "event {event}: placement ok"
        );
    }
    assert_eq!(sim.hdfs.block_count(), total_blocks);
    assert!(sim.metrics.snapshot().blocks_repaired > 0);
    assert_eq!(sim.metrics.data_loss_stripes, 0);
}

#[test]
fn full_failure_sequence_repairs_bit_exactly_rs() {
    let mut sim = Simulation::new(verified_config(CodeSpec::RS_10_4, 24, 2));
    for i in 0..8 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    for kills in [1usize, 3] {
        let victims = sim.pick_victims(kills);
        let at = sim.clock + SimTime::from_mins(5);
        for v in victims {
            sim.kill_node_at(at, v);
        }
        sim.run_until_idle(sim.clock + SimTime::from_mins(100_000));
        assert!(sim.hdfs.lost_blocks().is_empty());
    }
}

#[test]
fn zero_padded_small_files_repair_bit_exactly() {
    // §5.3's regime: mostly 3-block files under a 10-block-stripe code.
    let mut cfg = verified_config(CodeSpec::LRC_10_6_5, 24, 3);
    cfg.pad_local_parities = false;
    let mut sim = Simulation::new(cfg);
    for i in 0..20 {
        sim.load_raided_file(&format!("small{i}"), if i % 5 == 0 { 10 } else { 3 });
    }
    let victims = sim.pick_victims(1);
    sim.kill_node_at(SimTime::from_secs(30), victims[0]);
    sim.run_until_idle(SimTime::from_mins(100_000));
    assert!(sim.hdfs.lost_blocks().is_empty());
    assert_eq!(sim.metrics.data_loss_stripes, 0);
}

#[test]
fn concurrent_workload_and_failure_both_complete() {
    let mut sim = Simulation::new(verified_config(CodeSpec::LRC_10_6_5, 24, 4));
    let f = sim.load_raided_file("work", 30);
    sim.submit_wordcount_at(SimTime::from_secs(1), f);
    let victim = sim.pick_victims(1)[0];
    sim.kill_node_at(SimTime::from_secs(20), victim);
    sim.run_until_idle(SimTime::from_mins(1_000_000));
    assert_eq!(sim.metrics.workload_jobs.len(), 1, "wordcount finished");
    assert!(sim.hdfs.lost_blocks().is_empty(), "repairs finished");
}

#[test]
fn repairs_also_verify_under_minimal_read_policy() {
    use xorbas::sim::ReadPolicy;
    let mut cfg = verified_config(CodeSpec::LRC_10_6_5, 24, 5);
    cfg.read_policy = ReadPolicy::Minimal;
    let mut sim = Simulation::new(cfg);
    for i in 0..6 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.pick_victims(1)[0];
    sim.kill_node_at(SimTime::from_secs(5), victim);
    sim.run_until_idle(SimTime::from_mins(100_000));
    assert!(sim.hdfs.lost_blocks().is_empty());
}

#[test]
fn replication_cluster_round_trips() {
    let mut sim = Simulation::new(verified_config(CodeSpec::REPLICATION_3, 12, 6));
    sim.load_raided_file("rep", 40);
    let victim = sim.pick_victims(1)[0];
    sim.kill_node_at(SimTime::from_secs(5), victim);
    sim.run_until_idle(SimTime::from_mins(100_000));
    assert!(sim.hdfs.lost_blocks().is_empty());
}
