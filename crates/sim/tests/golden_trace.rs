//! Absolute golden pins for the simulator's trajectories.
//!
//! Every other determinism suite (`deterministic_under_seed`,
//! `serving_scenario`, `three_way_scenario`) compares two runs of the
//! *same binary*, so a change that shifts results consistently passes
//! them. The literals below were recorded once and compare a run against
//! *history*: event order, RNG draw order, plan choice or slot
//! accounting moving by one step changes at least one of them. A
//! refactor must leave them untouched; a behaviour change re-records
//! the one it moves and says why in CHANGES.md.

use xorbas_core::CodeSpec;
use xorbas_sim::{
    run_scale_scenario, ScaleScenario, ScenarioRun, ServePolicy, SimConfig, SimTime, Simulation,
};

/// What a scenario run is pinned on. `run_scale_scenario` does not
/// surface the final clock, so the timing pin of the scale scenarios is
/// the repair-job duration tail (every job's submit → finish span).
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    events: u64,
    blocks_lost: u64,
    blocks_repaired: u64,
    hdfs_bytes_read_bits: u64,
    network_bytes_bits: u64,
    repair_jobs: usize,
    repair_minutes_p50_bits: u64,
    repair_minutes_max_bits: u64,
}

fn trace_of(run: &ScenarioRun) -> Trace {
    Trace {
        events: run.events_processed,
        blocks_lost: run.blocks_lost,
        blocks_repaired: run.blocks_repaired,
        hdfs_bytes_read_bits: run.hdfs_bytes_read.to_bits(),
        network_bytes_bits: run.network_bytes.to_bits(),
        repair_jobs: run.repair_minutes.count,
        repair_minutes_p50_bits: run.repair_minutes.p50.to_bits(),
        repair_minutes_max_bits: run.repair_minutes.max.to_bits(),
    }
}

#[test]
fn fast_mode_fortnight_lrc() {
    let run = run_scale_scenario(&ScaleScenario::fast_mode(CodeSpec::LRC_10_6_5), 11);
    assert_eq!(
        trace_of(&run),
        Trace {
            events: 2_670,
            blocks_lost: 385,
            blocks_repaired: 385,
            hdfs_bytes_read_bits: 4809303442310823936,
            network_bytes_bits: 4810332585194422273,
            repair_jobs: 5,
            repair_minutes_p50_bits: 4630431290707295246,
            repair_minutes_max_bits: 4631119080078815423,
        }
    );
}

#[test]
fn fast_mode_fortnight_rs() {
    let run = run_scale_scenario(&ScaleScenario::fast_mode(CodeSpec::RS_10_4), 11);
    assert_eq!(
        trace_of(&run),
        Trace {
            events: 4_776,
            blocks_lost: 403,
            blocks_repaired: 403,
            hdfs_bytes_read_bits: 4814202866124193792,
            network_bytes_bits: 4814636073705537533,
            repair_jobs: 5,
            repair_minutes_p50_bits: 4633975729859111411,
            repair_minutes_max_bits: 4634594023482267005,
        }
    );
}

/// The serving-plane counters and latency medians/tails of a run.
#[derive(Debug, PartialEq, Eq)]
struct ServingTrace {
    reads_issued: u64,
    direct_reads: u64,
    degraded_light: u64,
    degraded_heavy: u64,
    fixer_wait_reads: u64,
    failed_reads: u64,
    single_loss_recoveries: u64,
    degraded_p50_bits: u64,
    degraded_p99_bits: u64,
    fixer_wait_p50_bits: u64,
    fixer_wait_p99_bits: u64,
}

fn serving_two_days(code: CodeSpec, policy: ServePolicy) -> (Trace, ServingTrace) {
    let mut sc = ScaleScenario::serving_mode(code);
    sc.days = 2;
    sc.trace.days = 2;
    sc.workload
        .as_mut()
        .expect("serving_mode attaches a workload")
        .policy = policy;
    let run = run_scale_scenario(&sc, 11);
    let s = run.serving.expect("serving summary");
    let serving = ServingTrace {
        reads_issued: s.reads_issued,
        direct_reads: s.direct_reads,
        degraded_light: s.degraded_light,
        degraded_heavy: s.degraded_heavy,
        fixer_wait_reads: s.fixer_wait_reads,
        failed_reads: s.failed_reads,
        single_loss_recoveries: s.single_loss_recoveries,
        degraded_p50_bits: s.degraded_ms.p50.to_bits(),
        degraded_p99_bits: s.degraded_ms.p99.to_bits(),
        fixer_wait_p50_bits: s.fixer_wait_ms.p50.to_bits(),
        fixer_wait_p99_bits: s.fixer_wait_ms.p99.to_bits(),
    };
    (trace_of(&run), serving)
}

/// The serve policy changes how reads are answered, never what the
/// cluster underneath does: both policies pin the same engine trace.
const SERVING_TWO_DAYS: Trace = Trace {
    events: 178_004,
    blocks_lost: 531,
    blocks_repaired: 237,
    hdfs_bytes_read_bits: 4811377121240809472,
    network_bytes_bits: 4812338981067371208,
    repair_jobs: 6,
    repair_minutes_p50_bits: 4632052284822591091,
    repair_minutes_max_bits: 4636367387229326355,
};

#[test]
fn serving_two_days_degraded_policy() {
    assert_eq!(
        serving_two_days(CodeSpec::LRC_10_6_5, ServePolicy::Degraded),
        (
            SERVING_TWO_DAYS,
            ServingTrace {
                reads_issued: 174_282,
                direct_reads: 173_644,
                degraded_light: 637,
                degraded_heavy: 1,
                fixer_wait_reads: 0,
                failed_reads: 0,
                single_loss_recoveries: 614,
                degraded_p50_bits: 4640206166449620276,
                degraded_p99_bits: 4640733932030952756,
                fixer_wait_p50_bits: 0,
                fixer_wait_p99_bits: 0,
            }
        )
    );
}

#[test]
fn serving_two_days_wait_for_fixer_policy() {
    assert_eq!(
        serving_two_days(CodeSpec::LRC_10_6_5, ServePolicy::WaitForFixer),
        (
            SERVING_TWO_DAYS,
            ServingTrace {
                reads_issued: 174_282,
                direct_reads: 173_644,
                degraded_light: 0,
                degraded_heavy: 0,
                fixer_wait_reads: 638,
                failed_reads: 0,
                single_loss_recoveries: 614,
                degraded_p50_bits: 0,
                degraded_p99_bits: 0,
                fixer_wait_p50_bits: 4700243672226105626,
                fixer_wait_p99_bits: 4706631433266001208,
            }
        )
    );
}

/// The same two days under RS(10,4): every repair reads ten blocks, so
/// about twice the flows are in flight behind the reads.
#[test]
fn serving_two_days_rs() {
    assert_eq!(
        serving_two_days(CodeSpec::RS_10_4, ServePolicy::Degraded),
        (
            Trace {
                events: 179_380,
                blocks_lost: 516,
                blocks_repaired: 91,
                hdfs_bytes_read_bits: 4814818592635748352,
                network_bytes_bits: 4815044404361697937,
                repair_jobs: 6,
                repair_minutes_p50_bits: 4634352118256609520,
                repair_minutes_max_bits: 4638194056822410785,
            },
            ServingTrace {
                reads_issued: 174_282,
                direct_reads: 173_909,
                degraded_light: 0,
                degraded_heavy: 373,
                fixer_wait_reads: 0,
                failed_reads: 0,
                single_loss_recoveries: 248,
                degraded_p50_bits: 4644684189384106997,
                degraded_p99_bits: 4644948072174773237,
                fixer_wait_p50_bits: 0,
                fixer_wait_p99_bits: 0,
            }
        )
    );
}

/// A 20-node verify-mode run through every task kind and both drain
/// modes: a double node failure (light repairs, and heavy ones where a
/// stripe lost two blocks of one group), a WordCount submitted before
/// detection (degraded map reads), a third failure while those repairs
/// and maps are in flight (aborts, requeues, a rescan), one victim
/// returning with its disk mid-repair and one replaced by an empty
/// machine, a scheduled-repair drain, and a copy-out drain interrupted
/// by a fourth failure (aborted relocations requeue). Payload
/// verification is on, so every restored block is also decoded by the
/// real codec and compared.
#[test]
fn mixed_twenty_node_run() {
    let mut cfg = SimConfig::ec2(CodeSpec::LRC_10_6_5);
    cfg.cluster.nodes = 20;
    cfg.cluster.block_bytes = 8 << 20;
    cfg.verify_payloads = true;
    cfg.payload_bytes = 64;
    cfg.seed = 11;
    let mut sim = Simulation::new(cfg);
    let words = sim.load_raided_file("words", 25); // 2.5 stripes: zero padding too
    for i in 0..8 {
        sim.load_raided_file(&format!("f{i}"), 10);
    }
    let victims = sim.pick_victims(5);
    let (a, b, mid, via_repair, copy_out) =
        (victims[0], victims[1], victims[2], victims[3], victims[4]);
    // Relocation tasks land on the highest-numbered free nodes first.
    let late = (0..20)
        .rev()
        .find(|n| !victims.contains(n))
        .expect("20 nodes, 5 victims");
    let blocks_lost = (sim.hdfs.blocks_on(a).len() + sim.hdfs.blocks_on(b).len()) as u64;
    sim.kill_node_at(SimTime::from_secs(5), a);
    sim.kill_node_at(SimTime::from_secs(6), b);
    sim.submit_wordcount_at(SimTime::from_secs(8), words);
    sim.kill_node_at(SimTime::from_secs(37), mid);
    sim.restore_node_at(SimTime::from_secs(41), a);
    sim.revive_node_at(SimTime::from_secs(300), b);
    sim.decommission_node_at(SimTime::from_secs(400), via_repair, true);
    sim.decommission_node_at(SimTime::from_secs(900), copy_out, false);
    sim.kill_node_at(SimTime(900_300_000), late);
    let end = sim.run_until_idle(SimTime::from_mins(100_000));

    assert!(sim.hdfs.lost_blocks().is_empty());
    assert!(sim.is_drained(via_repair) && sim.is_drained(copy_out));
    let snap = sim.metrics.snapshot();
    assert_eq!(
        (
            sim.events_processed(),
            blocks_lost,
            snap.blocks_repaired,
            snap.hdfs_bytes_read.to_bits(),
            snap.network_bytes.to_bits(),
            end,
            sim.metrics.repair_jobs.len(),
            sim.metrics.workload_jobs[0].duration(),
        ),
        (
            406,
            16,
            28,
            4747902314969300992,
            4747998989029212159,
            SimTime(934_544_637),
            5,
            SimTime(94_508_657),
        )
    );
}
