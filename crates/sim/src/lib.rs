//! Discrete-event HDFS-RAID cluster simulator (§3 and §5 of
//! "XORing Elephants").
//!
//! This crate stands in for the paper's evaluation clusters — the §5.2
//! Amazon EC2 testbed, the §5.3 Facebook test cluster, and the §1/Fig.-1
//! 3000-node warehouse the paper's motivation is drawn from: a
//! flow-level network with max-min fair sharing behind a saturable
//! switch, an HDFS namespace with stripe-aware block placement, a
//! BlockFixer driving light/heavy repair MapReduce jobs planned by the
//! *real* codecs from [`xorbas_core`], a fair scheduler, WordCount-style
//! workloads with degraded reads, failure injection and node
//! replacement, and the §5.1 metrics (HDFS bytes read, network traffic,
//! repair duration, plus bounded 5-minute time series).
//!
//! # Module map (paper section → module)
//!
//! | Paper | Module | What it reproduces |
//! |---|---|---|
//! | §3 system model | [`engine`] | a directory module split by state ownership: BlockFixer and failures (`fixer.rs`), fair scheduler (`scheduler.rs`), task lifecycle and degraded reads (`lifecycle.rs`, `tasks.rs`), plan memo (`planner.rs`), fleet and decommissioning (`fleet.rs`), client reads (`serving.rs`), verify mode (`verifier.rs`) |
//! | §3.1.1 placement | [`hdfs`] | namespace, stripe-aware random placement, zero padding |
//! | §5.2.3 network effects | [`network`] | max-min fair flows behind a saturable core |
//! | §5.1 metrics | [`metrics`] | bytes read / network traffic / repair duration, Fig.-5 series |
//! | §5.2–5.3 experiments | [`experiment`] | Figs. 4–7, Table 2/3 drivers, warehouse Monte-Carlo |
//! | Fig. 1 failure trace | [`failures`] | overdispersed node-failure process |
//! | §2.1 / §3.1.2 codecs | [`xorbas_core::Codec`] | the real planners and decoders ([`codecs`] keeps the old `CodecInstance` name) |
//! | §5.2.4 degraded reads | [`workload`] | Zipf/hot-spot client reads, serve policies, Rashmi et al. pin |
//! | — | [`config`] | cluster presets incl. the 3000-node [`config::ClusterScale`] |
//! | — | [`time`], [`arena`], [`fasthash`] | µs clock, lane reuse, hot-map hashing |
//!
//! # Scale
//!
//! The engine is sized for the warehouse the paper describes (3000
//! nodes, 30 PB, years of simulated time): arena-indexed namespace
//! metadata, slab inventories with O(1) membership, an incremental
//! lost-block index, a slab-indexed event queue, lazy sparse network
//! rate recomputation, and bounded self-coarsening metric series. See
//! the module docs of [`hdfs`], [`engine`], [`network`] and [`metrics`]
//! for the specific structures, and the repository's
//! `examples/sim_scale.rs` for measured events/sec on repair storms.
//!
//! See [`experiment`] for canned §5 scenario builders, and the
//! repository's `docs/ARCHITECTURE.md` for the cross-crate tour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod codecs;
pub mod config;
pub mod engine;
pub mod experiment;
pub mod failures;
pub mod fasthash;
pub mod hdfs;
pub mod metrics;
pub mod network;
pub mod time;
pub mod workload;

pub use arena::StripeArena;
pub use codecs::CodecInstance;
pub use config::{ClusterConfig, ClusterScale, ComputeRates, ReadPolicy, SimConfig};
pub use engine::Simulation;
pub use experiment::{
    code_comparison_table, compare_codes, compare_repair_traffic, monte_carlo, run_scale_scenario,
    single_data_loss_cost, three_way_table, CodeComparisonRow, ConfidenceInterval,
    MonteCarloReport, ScaleScenario, ScenarioRun,
};
pub use hdfs::{BlockId, FileId, Hdfs, NodeId, Placement, StripeId};
pub use metrics::{
    BucketSeries, Metrics, PercentileSummary, Percentiles, ServingStats, ServingSummary,
};
pub use time::SimTime;
pub use workload::{
    ServePolicy, WorkloadConfig, ZipfSampler, RASHMI_SINGLE_BLOCK_RECOVERY_FRACTION,
};
