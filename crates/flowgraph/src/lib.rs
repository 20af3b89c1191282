//! Information flow graphs for locality/distance achievability
//! (Appendix C of "XORing Elephants").
//!
//! The paper proves its distance bound is achievable by building a
//! "locality-aware" information flow graph `G(k, n-k, r, d)` (Fig. 9)
//! and showing that whenever `d` respects Theorem 2, every *data
//! collector* (a sink reading any `n - d + 1` coded blocks) receives
//! flow at least `M` — at which point random linear network codes
//! realize the multicast capacity (Theorem 3).
//!
//! This crate implements the gadget literally: a max-flow network with
//!
//! * a super-source feeding the `k` file-block sources,
//! * one `Γ_in → Γ_out` bottleneck of capacity `r·(M/k)` per
//!   `(r+1)`-group,
//! * one `Y_in → Y_out` edge of capacity `M/k` per coded block,
//! * one sink per data collector.
//!
//! Flow is measured in units of `M/k`, so feasibility is `flow ≥ k`.
//!
//! # Module map (paper section → module)
//!
//! | Paper | Item | What it provides |
//! |---|---|---|
//! | Fig. 9 gadget | [`FlowGadget`] / [`GadgetParams`] | the locality-aware flow network builder |
//! | Thm. 3 multicast argument | [`FlowNetwork`] | max-flow (feasibility oracle) |
//! | App. C achievability | [`all_collectors_feasible`] | every-collector check |
//! | Lemma 2 | [`lemma2_bound`] | group-structure flow bound |
//!
//! `xorbas_core::bounds` cross-checks its Theorem-2 distance formula
//! against this crate's feasibility verdicts (see the workspace's
//! `tests/theory_cross_checks.rs`).
//!
//! # Example
//!
//! ```
//! use xorbas_flowgraph::{GadgetParams, all_collectors_feasible};
//!
//! // k=4, n=6, r=2 with (r+1) | n: Theorem 2 allows d ≤ 6-2-4+2 = 2.
//! assert!(all_collectors_feasible(GadgetParams { k: 4, n: 6, r: 2, d: 2 }));
//! assert!(!all_collectors_feasible(GadgetParams { k: 4, n: 6, r: 2, d: 3 }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod gadget;
mod maxflow;

pub use gadget::{
    all_collectors_feasible, lemma2_bound, min_collector_flow, FlowGadget, GadgetParams,
};
pub use maxflow::FlowNetwork;
