//! Shared plumbing for the per-table / per-figure experiment harnesses.
//!
//! Each `[[bench]]` target in this crate regenerates one artifact of the
//! paper's evaluation (see DESIGN.md §3 for the index), printing the
//! same rows/series the paper reports — with the paper's own numbers
//! alongside where available — and writing CSV under
//! `target/paper_results/`.
//!
//! # Bench map (paper artifact → target)
//!
//! | Artifact | Bench target |
//! |---|---|
//! | Fig. 1 failure trace | `fig1_failure_trace` |
//! | Fig. 2 code structure | `fig2_code_structure` |
//! | Table 1 MTTDL | `table1_reliability` |
//! | Figs. 4–6 EC2 events | `fig4_per_event`, `fig5_timeseries`, `fig6_scaling` |
//! | Fig. 7 / Table 2 workload | `fig7_workload` |
//! | Table 3 Facebook cluster | `table3_facebook` |
//! | §1.1 decommissioning | `decommission` |
//! | wide archival stripes | `archival_stripes` (kernel and codec throughput: `benchmark/`, `gf.*` / `core.*` metrics) |
//! | simulator scaling (PR 4) | `sim_scale` |
//! | ablations | `ablation_implied_parity`, `ablation_locality_sweep` |
//!
//! Modules here are the shared helpers: [`output`] (tables/CSV),
//! [`linfit`] (least squares for the Fig.-6 slopes), and [`paper`]
//! (the paper's published numbers for side-by-side comparison).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linfit;
pub mod output;
pub mod paper;
