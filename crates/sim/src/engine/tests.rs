use super::*;
use crate::config::ReadPolicy;
use crate::hdfs::Position;
use crate::workload::{ServePolicy, WorkloadConfig};
use xorbas_core::CodeSpec;

fn small_cfg(code: CodeSpec) -> SimConfig {
    let mut cfg = SimConfig::ec2(code);
    cfg.cluster.nodes = 20;
    cfg.cluster.block_bytes = 8 << 20; // keep transfers quick
    cfg.verify_payloads = true;
    cfg.payload_bytes = 64;
    cfg
}

#[test]
fn single_node_failure_repairs_everything_lrc() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.node_with_block_count_near(4).unwrap();
    let before = sim.hdfs.blocks_on(victim).len();
    assert!(before > 0);
    sim.kill_node_at(SimTime::from_secs(10), victim);
    sim.run_until_idle(SimTime::from_mins(600));
    assert!(sim.hdfs.lost_blocks().is_empty(), "all blocks repaired");
    assert_eq!(sim.metrics.snapshot().blocks_repaired as usize, before);
    assert!(!sim.metrics.repair_jobs.is_empty());
    assert!(sim.events_processed() > 0);
}

#[test]
fn single_node_failure_repairs_everything_rs() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::RS_10_4));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.node_with_block_count_near(4).unwrap();
    sim.kill_node_at(SimTime::from_secs(10), victim);
    sim.run_until_idle(SimTime::from_mins(600));
    assert!(sim.hdfs.lost_blocks().is_empty());
}

#[test]
fn lrc_reads_half_as_much_as_rs_for_single_failures() {
    let mut reads = Vec::new();
    for code in [CodeSpec::RS_10_4, CodeSpec::LRC_10_6_5] {
        let mut cfg = small_cfg(code);
        cfg.read_policy = ReadPolicy::Minimal;
        cfg.seed = 42;
        let mut sim = Simulation::new(cfg);
        for i in 0..8 {
            sim.load_raided_file(&format!("f{i}"), 10);
        }
        let victim = sim.node_with_block_count_near(6).unwrap();
        let lost = sim.hdfs.blocks_on(victim).len();
        sim.kill_node_at(SimTime::from_secs(5), victim);
        sim.run_until_idle(SimTime::from_mins(600));
        let per_block = sim.metrics.snapshot().hdfs_bytes_read
            / (lost as f64 * sim.config().cluster.block_bytes as f64);
        reads.push(per_block);
    }
    // RS ≈ 10 blocks per lost block; LRC ≈ 5 (some stripes suffer
    // multi-block losses so the ratio is approximate).
    assert!(reads[0] > 8.0, "RS per-block reads {}", reads[0]);
    assert!(reads[1] < 6.5, "LRC per-block reads {}", reads[1]);
    assert!(reads[0] / reads[1] > 1.6, "ratio {}", reads[0] / reads[1]);
}

#[test]
fn replication_repairs_with_single_copy_reads() {
    for verify in [false, true] {
        let mut cfg = small_cfg(CodeSpec::REPLICATION_3);
        cfg.verify_payloads = verify;
        let mut sim = Simulation::new(cfg);
        // Replication is the [3,1] code through the one loader. In
        // verify mode every replica carries the payload, and each
        // repair is replayed through a compiled session and compared.
        sim.load_raided_file("r", 30);
        let victim = sim.node_with_block_count_near(5).unwrap();
        let lost = sim.hdfs.blocks_on(victim).len();
        assert!(lost > 0);
        sim.kill_node_at(SimTime::from_secs(1), victim);
        sim.run_until_idle(SimTime::from_mins(600));
        assert!(sim.hdfs.lost_blocks().is_empty());
        let per_block = sim.metrics.snapshot().hdfs_bytes_read
            / (lost as f64 * sim.config().cluster.block_bytes as f64);
        assert!((per_block - 1.0).abs() < 1e-9);
    }
}

#[test]
fn wordcount_completes_and_records_jobs() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    let f = sim.load_raided_file("words", 20);
    sim.submit_wordcount_at(SimTime::from_secs(1), f);
    sim.submit_wordcount_at(SimTime::from_secs(1), f);
    sim.run_until_idle(SimTime::from_mins(100_000));
    assert_eq!(sim.metrics.workload_jobs.len(), 2);
    // No repairs: no blocks were lost.
    assert!(sim.metrics.repair_jobs.is_empty());
}

#[test]
fn degraded_reads_cost_more_time_than_healthy_reads() {
    let mut durations = Vec::new();
    for missing in [false, true] {
        let mut cfg = small_cfg(CodeSpec::LRC_10_6_5);
        cfg.seed = 7;
        let mut sim = Simulation::new(cfg);
        let f = sim.load_raided_file("w", 20);
        if missing {
            // Drop ~20% of the file's data blocks.
            let drops: Vec<BlockId> = (0..sim.hdfs.block_count())
                .filter(|&b| {
                    let m = sim.hdfs.block(b);
                    m.pos < 10 && b % 5 == 0
                })
                .collect();
            assert!(!drops.is_empty());
            sim.drop_blocks_at(SimTime::ZERO, drops);
        }
        sim.submit_wordcount_at(SimTime::from_secs(1), f);
        sim.run_until_idle(SimTime::from_mins(1_000_000));
        let job = sim.metrics.workload_jobs[0];
        durations.push(job.duration().as_secs_f64());
        let _ = f;
    }
    assert!(
        durations[1] > durations[0],
        "degraded {} <= healthy {}",
        durations[1],
        durations[0]
    );
}

#[test]
fn two_sequential_failures_still_converge() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..6 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let v1 = sim.node_with_block_count_near(5).unwrap();
    sim.kill_node_at(SimTime::from_secs(5), v1);
    let v2 = (v1 + 1) % 20;
    sim.kill_node_at(SimTime::from_secs(6), v2);
    sim.run_until_idle(SimTime::from_mins(6_000));
    assert!(sim.hdfs.lost_blocks().is_empty());
}

#[test]
fn deterministic_under_seed() {
    let run = || {
        let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
        for i in 0..4 {
            sim.load_raided_file(&format!("f{i}"), 10);
        }
        let victim = sim.node_with_block_count_near(5).unwrap();
        sim.kill_node_at(SimTime::from_secs(2), victim);
        sim.run_until_idle(SimTime::from_mins(600));
        (
            sim.clock,
            sim.metrics.snapshot().hdfs_bytes_read as u64,
            sim.metrics.snapshot().network_bytes as u64,
            sim.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn revived_node_rejoins_empty_and_serves_repairs() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.node_with_block_count_near(4).unwrap();
    sim.kill_node_at(SimTime::from_secs(10), victim);
    sim.revive_node_at(SimTime::from_mins(30), victim);
    sim.run_until_idle(SimTime::from_mins(600));
    assert!(sim.is_alive(victim));
    assert_eq!(sim.alive_nodes(), 20, "fleet back at size");
    assert!(sim.hdfs.lost_blocks().is_empty());
    // A second failure elsewhere can now place blocks on the
    // replacement node.
    let other = (victim + 1) % 20;
    sim.kill_node_at(sim.clock + SimTime::from_secs(5), other);
    sim.run_until_idle(sim.clock + SimTime::from_mins(600));
    assert!(sim.hdfs.lost_blocks().is_empty());
}

#[test]
fn unrecoverable_stripe_counted_once_and_abandoned() {
    let mut cfg = small_cfg(CodeSpec::RS_10_4);
    cfg.verify_payloads = false;
    let mut sim = Simulation::new(cfg);
    sim.load_raided_file("f", 10);
    // Drop 5 blocks of the single stripe: beyond RS(10,4)'s 4-erasure
    // tolerance.
    sim.drop_blocks_at(SimTime::from_secs(1), vec![0, 1, 2, 3, 4]);
    sim.scan_at(SimTime::from_secs(2));
    sim.scan_at(SimTime::from_secs(3)); // rescan must not re-count
    sim.run_until_idle(SimTime::from_mins(600));
    assert_eq!(sim.metrics.data_loss_stripes, 1);
    assert!(sim.hdfs.lost_blocks().is_empty(), "withdrawn from scans");
    assert!(sim.hdfs.block(0).location.is_none(), "still lost");
    assert!(sim.hdfs.stripe(0).unrecoverable);
}

#[test]
fn run_until_advances_clock_without_requiring_idle() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..3 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.node_with_block_count_near(4).unwrap();
    sim.kill_node_at(SimTime::from_secs(50), victim);
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(sim.clock, SimTime::from_secs(40));
    assert!(sim.is_alive(victim), "kill not yet processed");
    sim.run_until(SimTime::from_secs(60));
    assert!(!sim.is_alive(victim));
    sim.run_until_idle(SimTime::from_mins(600));
    assert!(sim.hdfs.lost_blocks().is_empty());
}

#[test]
fn decommission_via_repair_drains_without_touching_the_node() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.pick_victims(1)[0];
    let before = sim.hdfs.blocks_on(victim).len();
    assert!(before > 0);
    sim.decommission_node_at(SimTime::from_secs(5), victim, true);
    sim.run_until_idle(SimTime::from_mins(100_000));
    assert!(sim.is_drained(victim), "node fully drained");
    assert!(sim.hdfs.lost_blocks().is_empty(), "nothing was lost");
    assert_eq!(sim.hdfs.block_count() as u64, 5 * 16);
    // Repair-based drain never reads from the draining node: its
    // disk sees no read traffic — approximated by checking the
    // relocated blocks now live elsewhere.
    assert!(sim.hdfs.blocks_on(victim).is_empty());
}

#[test]
fn decommission_copy_out_also_drains() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::RS_10_4));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.pick_victims(1)[0];
    sim.decommission_node_at(SimTime::from_secs(5), victim, false);
    sim.run_until_idle(SimTime::from_mins(100_000));
    assert!(sim.is_drained(victim));
    assert!(sim.hdfs.lost_blocks().is_empty());
}

#[test]
fn copy_out_moves_fewer_bytes_than_repair_drain() {
    let run = |via_repair: bool| {
        let mut cfg = small_cfg(CodeSpec::LRC_10_6_5);
        cfg.verify_payloads = false;
        cfg.seed = 9;
        let mut sim = Simulation::new(cfg);
        for i in 0..6 {
            sim.load_raided_file(&format!("f{i}"), 10);
        }
        let victim = sim.pick_victims(1)[0];
        sim.decommission_node_at(SimTime::from_secs(1), victim, via_repair);
        sim.run_until_idle(SimTime::from_mins(100_000));
        assert!(sim.is_drained(victim));
        sim.metrics.snapshot().hdfs_bytes_read
    };
    let copy_bytes = run(false);
    let repair_bytes = run(true);
    // Copy-out reads each block once; repair-based reads its whole
    // group (~5x). The paper's point is about *time* and *load on
    // the draining node*, not bytes.
    assert!(repair_bytes > 3.0 * copy_bytes);
}

#[test]
fn draining_node_receives_no_new_blocks() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let drain = sim.pick_victims(1)[0];
    sim.decommission_node_at(SimTime::from_secs(1), drain, true);
    // Kill another node while draining: repairs must avoid `drain`.
    let other = (drain + 1) % 20;
    sim.kill_node_at(SimTime::from_secs(2), other);
    sim.run_until_idle(SimTime::from_mins(100_000));
    assert!(sim.hdfs.blocks_on(drain).is_empty());
    assert!(sim.hdfs.lost_blocks().is_empty());
}

#[test]
fn transient_restore_before_detection_repairs_nothing() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.node_with_block_count_near(4).unwrap();
    let before = sim.hdfs.blocks_on(victim).len();
    assert!(before > 0);
    // Detection delay is 30s: the node is back before the scan.
    sim.kill_node_at(SimTime::from_secs(10), victim);
    sim.restore_node_at(SimTime::from_secs(20), victim);
    sim.run_until_idle(SimTime::from_mins(600));
    assert!(sim.is_alive(victim));
    assert!(sim.hdfs.lost_blocks().is_empty());
    assert_eq!(sim.hdfs.blocks_on(victim).len(), before, "disk came back");
    assert_eq!(sim.metrics.snapshot().blocks_repaired, 0, "no repair ran");
    assert_eq!(sim.metrics.snapshot().hdfs_bytes_read, 0.0);
}

#[test]
fn transient_restore_after_repair_is_harmless() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.node_with_block_count_near(4).unwrap();
    let before = sim.hdfs.blocks_on(victim).len();
    sim.kill_node_at(SimTime::from_secs(10), victim);
    // The node returns long after the BlockFixer re-created its
    // blocks elsewhere: nothing re-attaches, nothing panics, and no
    // block exists twice.
    sim.restore_node_at(SimTime::from_mins(300), victim);
    sim.run_until_idle(SimTime::from_mins(600));
    assert!(sim.is_alive(victim));
    assert!(sim.hdfs.lost_blocks().is_empty());
    assert_eq!(sim.metrics.snapshot().blocks_repaired as usize, before);
    assert!(sim.hdfs.blocks_on(victim).is_empty(), "repairs won");
    assert_eq!(sim.hdfs.block_count() as u64, 5 * 16);
}

#[test]
fn transient_restore_mid_repair_keeps_inventory_consistent() {
    // Restore lands between detection and repair completion: some
    // blocks re-attach, in-flight repairs for them settle vacuously
    // (restore_block_now skips located blocks), and every block ends
    // with exactly one location.
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    for i in 0..5 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.node_with_block_count_near(4).unwrap();
    sim.kill_node_at(SimTime::from_secs(10), victim);
    sim.restore_node_at(SimTime::from_secs(45), victim);
    sim.run_until_idle(SimTime::from_mins(600));
    assert!(sim.hdfs.lost_blocks().is_empty());
    assert_eq!(sim.hdfs.block_count() as u64, 5 * 16);
    let placed: usize = (0..20).map(|n| sim.hdfs.blocks_on(n).len()).sum();
    assert_eq!(placed as u64, 5 * 16, "each block has one location");
}

#[test]
fn healthy_workload_serves_everything_directly() {
    let mut sim = Simulation::new(small_cfg(CodeSpec::LRC_10_6_5));
    sim.load_raided_file("f", 20);
    let cfg = WorkloadConfig {
        reads_per_sec: 5.0,
        ..WorkloadConfig::default()
    };
    sim.start_workload(SimTime::ZERO, SimTime::from_mins(10), cfg);
    sim.run_until_idle(SimTime::from_mins(60));
    let s = sim.metrics.serving.summary();
    assert!(s.reads_issued > 2000, "10 min at 5 rps: {}", s.reads_issued);
    assert_eq!(s.direct_reads, s.reads_issued);
    assert_eq!(s.recovery_reads, 0);
    assert_eq!(s.degraded_fraction, 0.0);
    let d = s.direct_ms;
    assert!((d.p50 - cfg.direct_service_ms()).abs() < 1e-9);
    assert_eq!(d.p50, d.p999, "direct latency is constant");
    // Serving traffic never leaks into the §5 repair counter.
    assert_eq!(sim.metrics.snapshot().hdfs_bytes_read, 0.0);
}

#[test]
fn unavailable_blocks_serve_degraded_with_higher_latency() {
    let mut cfg = small_cfg(CodeSpec::LRC_10_6_5);
    cfg.verify_payloads = false;
    let mut sim = Simulation::new(cfg);
    sim.load_raided_file("f", 40);
    // Silently drop some data blocks (no scan: nothing repairs, so
    // every read of them is a degraded read).
    let drops: Vec<BlockId> = (0..sim.hdfs.block_count())
        .filter(|&b| sim.hdfs.block(b).pos < 10 && b % 7 == 0)
        .collect();
    assert!(!drops.is_empty());
    sim.drop_blocks_at(SimTime::ZERO, drops);
    let wcfg = WorkloadConfig {
        reads_per_sec: 5.0,
        zipf_s: 0.0, // uniform: guarantee the dropped blocks get hit
        ..WorkloadConfig::default()
    };
    sim.start_workload(SimTime::from_secs(1), SimTime::from_mins(20), wcfg);
    sim.run_until_idle(SimTime::from_mins(60));
    let s = sim.metrics.serving.summary();
    assert!(s.degraded_light > 0, "light degraded reads happened");
    assert_eq!(s.recovery_reads, s.degraded_light + s.degraded_heavy);
    assert_eq!(s.failed_reads, 0);
    assert!(s.single_loss_fraction > 0.0);
    assert!(
        s.degraded_ms.p50 > s.direct_ms.p999,
        "degraded {} <= direct {}",
        s.degraded_ms.p50,
        s.direct_ms.p999
    );
    assert!(s.degraded_bytes > s.direct_bytes / s.direct_reads.max(1) as f64);
    assert_eq!(sim.metrics.snapshot().hdfs_bytes_read, 0.0);
}

#[test]
fn wait_for_fixer_policy_parks_reads_until_repair() {
    let mut cfg = small_cfg(CodeSpec::LRC_10_6_5);
    cfg.verify_payloads = false;
    let mut sim = Simulation::new(cfg);
    sim.load_raided_file("f", 30);
    let victim = sim.node_with_block_count_near(5).unwrap();
    let wcfg = WorkloadConfig {
        reads_per_sec: 20.0,
        zipf_s: 0.0,
        policy: ServePolicy::WaitForFixer,
        ..WorkloadConfig::default()
    };
    sim.start_workload(SimTime::ZERO, SimTime::from_mins(30), wcfg);
    sim.kill_node_at(SimTime::from_secs(60), victim);
    sim.run_until_idle(SimTime::from_mins(600));
    let s = sim.metrics.serving.summary();
    assert!(s.fixer_wait_reads > 0, "reads parked on lost blocks");
    assert_eq!(s.failed_reads, 0);
    assert_eq!(
        s.reads_issued,
        s.direct_reads + s.fixer_wait_reads,
        "every parked read was eventually served"
    );
    // Park time dominates: waiting for detection + repair is orders
    // of magnitude slower than a direct read.
    assert!(s.fixer_wait_ms.p50 > 100.0 * s.direct_ms.p50);
}

#[test]
fn workload_is_deterministic_and_independent_of_engine_rng() {
    let run = || {
        let mut cfg = small_cfg(CodeSpec::LRC_10_6_5);
        cfg.verify_payloads = false;
        let mut sim = Simulation::new(cfg);
        for i in 0..4 {
            sim.load_raided_file(&format!("f{i}"), 10);
        }
        let victim = sim.node_with_block_count_near(5).unwrap();
        sim.start_workload(
            SimTime::ZERO,
            SimTime::from_mins(120),
            WorkloadConfig {
                reads_per_sec: 3.0,
                churn_every: SimTime::from_mins(30),
                ..WorkloadConfig::default()
            },
        );
        sim.kill_node_at(SimTime::from_secs(30), victim);
        sim.restore_node_at(SimTime::from_mins(45), victim);
        sim.run_until_idle(SimTime::from_mins(1200));
        (
            sim.metrics.serving.summary(),
            sim.metrics.snapshot().hdfs_bytes_read as u64,
            sim.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn attaching_a_workload_does_not_perturb_repair_traffic() {
    let repair_bytes = |with_workload: bool| {
        let mut cfg = small_cfg(CodeSpec::LRC_10_6_5);
        cfg.seed = 11;
        let mut sim = Simulation::new(cfg);
        for i in 0..5 {
            sim.load_raided_file(&format!("f{i}"), 10);
        }
        if with_workload {
            sim.start_workload(
                SimTime::ZERO,
                SimTime::from_mins(120),
                WorkloadConfig::default(),
            );
        }
        let victim = sim.node_with_block_count_near(4).unwrap();
        sim.kill_node_at(SimTime::from_secs(10), victim);
        sim.run_until_idle(SimTime::from_mins(1200));
        sim.metrics.snapshot().hdfs_bytes_read as u64
    };
    assert_eq!(repair_bytes(false), repair_bytes(true));
}

#[test]
fn network_traffic_roughly_doubles_bytes_read() {
    // Reads stream in, repaired blocks stream out: §5.2.2 observed
    // "network traffic was roughly equal to twice the number of
    // bytes read" — our flows reproduce the read+write structure,
    // with the write adding 1 block per ~5-10 read.
    let mut sim = Simulation::new(small_cfg(CodeSpec::RS_10_4));
    for i in 0..6 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victim = sim.node_with_block_count_near(5).unwrap();
    sim.kill_node_at(SimTime::from_secs(2), victim);
    sim.run_until_idle(SimTime::from_mins(600));
    let s = sim.metrics.snapshot();
    assert!(s.network_bytes > s.hdfs_bytes_read * 0.8);
    assert!(s.network_bytes < s.hdfs_bytes_read * 1.5);
}

#[test]
fn requeued_run_is_not_swallowed_by_its_aborted_runs_compute_done() {
    // A map task is aborted while computing a slow degraded read, then
    // reruns as a fast direct read. The rerun's ComputeDone arrives
    // long before the aborted run's stale one and must complete the
    // task — not be mistaken for the stale event.
    let mut cfg = small_cfg(CodeSpec::LRC_10_6_5);
    cfg.detection_delay_secs = 1e7; // no repair interferes
    cfg.compute.xor_bps = 1e4; // degraded read: ~4 200 s of decode
    cfg.compute.wordcount_bps = 8e4; // direct read: ~105 s of wordcount
    let mut sim = Simulation::new(cfg);
    let f = sim.load_raided_file("words", 10);
    let Position::Real(block) = sim.hdfs.positions(0)[0] else {
        panic!("full stripes have no virtual positions");
    };
    let holder = sim.hdfs.block(block).location.unwrap();
    sim.kill_node_at(SimTime::ZERO, holder);
    sim.submit_wordcount_at(SimTime::from_secs(1), f);
    sim.run_until(SimTime::from_secs(50));
    let is_the_degraded_map = |tid| {
        let task = sim.tasks.get(tid).unwrap();
        matches!(task.kind, TaskKind::Map { block: b } if b == block)
            && task.state == TaskState::Computing
    };
    let runner = (0..20)
        .find(|&n| sim.tasks.running_on(n).any(is_the_degraded_map))
        .expect("the lost block's map task is computing its degraded read");
    // The block comes back with its node; then the degraded run dies.
    sim.restore_node_at(SimTime::from_secs(100), holder);
    sim.kill_node_at(SimTime::from_secs(200), runner);
    sim.run_until_idle(SimTime::from_secs(30_000_000));
    let job_secs = sim.metrics.workload_jobs[0].duration().as_secs_f64();
    assert!(
        (300.0..320.0).contains(&job_secs),
        "rerun at t=200 s plus ~105 s of wordcount, got {job_secs} s"
    );
}
