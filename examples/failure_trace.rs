//! Failure-trace explorer: how often does a 3000-node cluster hurt?
//!
//! Generates synthetic month-long failure traces (Fig. 1's shape),
//! summarizes them, estimates the repair traffic each day would cause
//! under the three redundancy schemes of the paper — and then *checks*
//! the estimate by running the trace-driven warehouse simulator
//! (fast mode) under RS (10,4) and LRC (10,6,5).
//!
//! Run with: `cargo run --release --example failure_trace`

use rand::rngs::StdRng;
use rand::SeedableRng;
use xorbas::codes::CodeSpec;
use xorbas::sim::experiment::compare_repair_traffic;
use xorbas::sim::failures::{generate_trace, trace_stats, TraceConfig};
use xorbas::sim::ScaleScenario;

fn main() {
    // The month behind the claim table's Fig. 1 rows.
    let mut rng = StdRng::seed_from_u64(0xF1);
    let cfg = TraceConfig::default();
    let trace = generate_trace(cfg, &mut rng);
    let stats = trace_stats(&trace);
    println!(
        "one synthetic month: median {:.1}, mean {:.1}, max {} failed nodes/day\n",
        stats.median, stats.mean, stats.max
    );

    // A 3000-node, 30 PB cluster stores ~10 TB per node; with 256 MB
    // blocks that is ~39,000 blocks re-created per failed node.
    let blocks_per_node = 10e12 / 256e6;
    println!("estimated repair reads per day (TB), by redundancy scheme:");
    println!("day  failures   3-repl    RS(10,4)  LRC(10,6,5)");
    for (day, &f) in trace.iter().enumerate().take(10) {
        let blocks = f as f64 * blocks_per_node;
        let tb = |reads: f64| blocks * reads * 256e6 / 1e12;
        println!(
            "{:>3}  {:>8}   {:>7.1}   {:>8.1}   {:>8.1}",
            day + 1,
            f,
            tb(CodeSpec::REPLICATION_3.single_repair_reads() as f64),
            tb(CodeSpec::RS_10_4.single_repair_reads() as f64),
            tb(CodeSpec::LRC_10_6_5.single_repair_reads() as f64),
        );
    }
    println!("...\n");
    let total: f64 = trace.iter().map(|&f| f as f64 * blocks_per_node).sum();
    println!(
        "month total: {:.1} PB of repair reads under RS vs {:.1} PB under LRC —\n\
         the 2x saving that §1.1 argues keeps repair from saturating the\n\
         cluster network as the RAIDed fraction grows.\n",
        total * 10.0 * 256e6 / 1e15,
        total * 5.0 * 256e6 / 1e15,
    );

    // Back-of-envelope meets simulator: replay the same failure process
    // against the scaled warehouse model (60-node fast-mode slice, two
    // simulated weeks, three seeds) and measure the ratio for real.
    println!("running the trace-driven simulator (fast mode, 3 seeds per scheme)…");
    let template = ScaleScenario::fast_mode(CodeSpec::LRC_10_6_5);
    let (rs, lrc, ratio) = compare_repair_traffic(&template, &[1, 2, 3]);
    println!(
        "  RS (10,4):     {} blocks read per lost block",
        rs.blocks_read_per_lost_block
    );
    println!(
        "  LRC (10,6,5):  {} blocks read per lost block",
        lrc.blocks_read_per_lost_block
    );
    println!("  measured repair-traffic ratio: {ratio:.2}x (estimate said 2.0x)");
    println!("\nsee examples/warehouse_year.rs for the full 3000-node simulated year.");
}
