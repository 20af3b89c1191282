//! Dense linear algebra over binary extension fields.
//!
//! Everything the codec crate needs to realize the constructions of the
//! paper's Appendix D: Vandermonde parity-check matrices, (right) null
//! spaces for deriving generator matrices, Gaussian elimination for
//! systematic transforms and erasure decoding, and rank computations for
//! the brute-force minimum-distance / locality analyses.
//!
//! # Module map (paper section → module)
//!
//! | Paper | Item | What it provides |
//! |---|---|---|
//! | App. D `[H]_{i,j} = α^{(i-1)(j-1)}` | [`special::vandermonde`] | parity-check matrices |
//! | App. D generator derivation | [`Matrix::right_null_space`] | `G` with `G·Hᵀ = 0` |
//! | §3.1.2 heavy decode | [`Matrix::solve`] / elimination | erasure solving |
//! | Defs. 1–2 analyses | [`Matrix::rank`] | distance/locality brute force |
//!
//! Elements come from `xorbas_gf` (any [`xorbas_gf::Field`]); the
//! consumer is `xorbas_core`, which compiles these solves into reusable
//! repair sessions.
//!
//! # Example
//!
//! ```
//! use xorbas_gf::{Field, Gf256};
//! use xorbas_linalg::{special, Matrix};
//!
//! // The 4x14 Vandermonde parity-check matrix of the paper's RS(10,4).
//! let h: Matrix<Gf256> = special::vandermonde(4, 14);
//! let g = h.right_null_space();
//! assert_eq!((g.rows(), g.cols()), (10, 14));
//! // G H^T = 0  — the defining property of a generator matrix.
//! assert!(g.mul(&h.transpose()).is_zero());
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

mod gauss;
mod matrix;
pub mod special;

pub use matrix::Matrix;
