//! # Xorbas-RS
//!
//! A Rust reproduction of **"XORing Elephants: Novel Erasure Codes for Big
//! Data"** (Sathiamoorthy et al., VLDB 2013): Locally Repairable Codes
//! (LRCs), the Reed-Solomon baseline they extend, and the evaluation
//! apparatus around them — an HDFS-RAID cluster simulator, a Markov
//! reliability model, and the information-flow-graph machinery of the
//! paper's appendix.
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! * [`gf`] — GF(2^m) arithmetic ([`xorbas_gf`])
//! * [`linalg`] — dense matrices over GF(2^m) ([`xorbas_linalg`])
//! * [`codes`] — RS and LRC codecs, locality/distance analysis
//!   ([`xorbas_core`])
//! * [`flowgraph`] — Appendix-C information flow graphs
//!   ([`xorbas_flowgraph`])
//! * [`reliability`] — §4 MTTDL Markov chains ([`xorbas_reliability`])
//! * [`sim`] — §5 cluster simulator ([`xorbas_sim`])
//!
//! # Quickstart
//!
//! ```
//! use xorbas::codes::{ErasureCodec, Lrc, StripeViewMut};
//!
//! // The (10,6,5) LRC deployed in HDFS-Xorbas: 10 data blocks, 4
//! // Reed-Solomon parities, 2 stored local XOR parities (plus one
//! // implied), block locality 5, minimum distance 5.
//! let lrc = Lrc::xorbas_10_6_5().expect("construction is deterministic");
//!
//! // The caller owns the 16 lanes; the codec writes the 6 parity lanes.
//! let mut stripe: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 64]).collect();
//! let (data, parity) = stripe.split_at_mut(10);
//! let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
//! let mut parity: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
//! lrc.encode_into(&data, &mut parity).expect("encode");
//!
//! // Lose a data block: compile the repair of that pattern once, then
//! // replay it over the lanes — light-decoded from its 5-block repair
//! // group.
//! let original = stripe[3].clone();
//! stripe[3].fill(0);
//! let session = lrc.repair_session(&[3]).expect("recoverable");
//! let mut lanes: Vec<&mut [u8]> = stripe.iter_mut().map(Vec::as_mut_slice).collect();
//! session
//!     .repair(&mut StripeViewMut::new(&mut lanes, &[3]).expect("equal-length lanes"))
//!     .expect("repair");
//! assert_eq!(stripe[3], original);
//! assert_eq!(session.plan().blocks_read(), 5); // vs 10+ for Reed-Solomon
//! ```
//!
//! See `examples/` for cluster-scale scenarios (start with
//! `examples/quickstart.rs`, then `examples/failure_trace.rs` for the
//! trace-driven warehouse simulator),
//! `tests/claims/mod.rs` for the paper's evaluation as one claim table
//! (each row the paper's value, ours and a tolerance), and the
//! repository's `README.md` / `docs/ARCHITECTURE.md` for the workspace
//! tour — including the codec surface and the SIMD kernel dispatch
//! layer.

#![forbid(unsafe_code)]
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

pub use xorbas_core as codes;
pub use xorbas_flowgraph as flowgraph;
pub use xorbas_gf as gf;
pub use xorbas_linalg as linalg;
pub use xorbas_reliability as reliability;
pub use xorbas_sim as sim;

/// Commonly used items, importable with `use xorbas::prelude::*`.
pub mod prelude {
    pub use xorbas_core::{CodeSpec, ErasureCodec, Lrc, LrcSpec, ReedSolomon};
    pub use xorbas_gf::{Field, Gf256};
    pub use xorbas_linalg::Matrix;
}
