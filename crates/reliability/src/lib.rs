//! Markov-chain reliability analysis (§4 of "XORing Elephants").
//!
//! The paper estimates mean time to data loss (MTTDL) with a standard
//! birth–death Markov chain per stripe (Fig. 3): state = number of lost
//! blocks, forward rates `λ_i = (n - i)·λ` from independent node
//! failures, backward rates `ρ_i = γ / (b_i · B)` from repairs limited by
//! the cross-rack bandwidth `γ`, where `b_i` is the expected number of
//! blocks a single repair downloads in state `i`.
//!
//! The paper skips the derivation of `b_i` "due to lack of space"; here
//! it is computed *exactly* by enumerating erasure patterns against the
//! real codecs (`xorbas_core::analysis::expected_single_repair_reads`) —
//! including the light-vs-heavy decoder probabilities for the LRC.
//!
//! # Module map (paper section → module)
//!
//! | Paper | Item | What it provides |
//! |---|---|---|
//! | §4 Fig. 3 chain | [`BirthDeathChain`] | birth–death MTTDL solver |
//! | §4 cluster parameters | [`ClusterParams`] | λ, γ, node counts (Facebook defaults) |
//! | Table 1 | [`table1`] | the three-scheme comparison rows |
//! | §4 `b_i` | [`analyze_codec`] / [`SchemeAnalysis`] | per-state repair-read expectations from the real codecs |
//!
//! The `xorbas_sim` crate measures the same quantities by discrete-event
//! simulation; this crate predicts them analytically — the workspace's
//! integration tests hold the two against each other.
//!
//! # Example
//!
//! ```
//! use xorbas_reliability::{ClusterParams, table1};
//!
//! let rows = table1(&ClusterParams::facebook()).unwrap();
//! // Replication < RS (10,4) < LRC (10,6,5), as in Table 1.
//! assert!(rows[0].mttdl_days < rows[1].mttdl_days);
//! assert!(rows[1].mttdl_days < rows[2].mttdl_days);
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

mod markov;
mod params;
mod schemes;
mod table;

pub use markov::BirthDeathChain;
pub use params::ClusterParams;
pub use schemes::{analyze_codec, analyze_replication, SchemeAnalysis};
pub use table::{format_table1, table1, PAPER_TABLE1_MTTDL_DAYS};
