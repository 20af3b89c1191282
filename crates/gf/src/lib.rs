//! Binary-extension-field arithmetic for erasure coding.
//!
//! The codes in "XORing Elephants" (VLDB 2013) are defined over binary
//! extension fields `F_{2^m}` (§2.1, Appendix D). This crate provides
//! table-driven implementations of GF(2^4), GF(2^8) and GF(2^16), a common
//! [`Field`] trait used by the linear-algebra and codec crates, and
//! byte-slice kernels ([`slice_ops`]) used on whole-block payloads.
//!
//! # Representation
//!
//! Elements are bit patterns of polynomials over GF(2) reduced modulo a
//! fixed primitive polynomial (see [`poly`] for the registry). Addition is
//! XOR; multiplication uses discrete log/antilog tables with `x` (`0b10`)
//! as the primitive element `α`, matching the Vandermonde parity-check
//! construction `[H]_{i,j} = α^{(i-1)(j-1)}` of the paper's Appendix D.
//!
//! Payload-slice kernels dispatch at runtime to a GFNI implementation
//! (512-bit `vgf2p8affineqb` bit-matrix multiplies on x86 with AVX-512),
//! else an AVX2 one (split-nibble `VPSHUFB`), with a portable scalar
//! fallback — see
//! the [`slice_ops`] module docs for the selection story, and the
//! repository's `docs/ARCHITECTURE.md` for the `XORBAS_KERNEL_BACKEND`
//! override knob.
//!
//! # Module map (paper section → module)
//!
//! | Paper | Module | What it provides |
//! |---|---|---|
//! | §2.1 / App. D field | [`Gf256`], [`Gf16`], [`Gf65536`] | the concrete `F_{2^m}` element types |
//! | App. D `α^{ij}` tables | [`poly`] | primitive-polynomial registry behind the log/antilog tables |
//! | §3.1.2 block XOR/scale | [`slice_ops`] | whole-payload kernels (fused rows, runtime SIMD dispatch) |
//! | — | [`KernelBackend`] | per-backend kernel access for tests/benches |
//! | — | [`digest`] | a GF(2^8)-linear chunk digest, so a stripe's digests obey its code |
//!
//! This crate is the bottom of the workspace: `xorbas_linalg` builds its
//! matrices over [`Field`], `xorbas_core` encodes/repairs payloads
//! through [`slice_ops`], and `xorbas_sim` inherits both transitively.
//!
//! # Example
//!
//! ```
//! use xorbas_gf::{Field, Gf256};
//!
//! let a = Gf256::from_index(0x53);
//! let b = Gf256::from_index(0xCA);
//! let p = a * b;
//! assert_eq!(p / b, a);
//! assert_eq!(a + a, Gf256::ZERO); // characteristic 2
//! ```

// `unsafe` is denied crate-wide and re-allowed in exactly one place: the
// `simd` module, whose feature-gated kernels are reachable only through
// detection-checked dispatch and use `unsafe` only to load and store.
#![deny(unsafe_code)]
#![warn(unsafe_op_in_unsafe_fn)]
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

pub mod digest;
mod field;
mod gf16;
mod gf256;
mod gf65536;
pub mod poly;
mod simd;
pub mod slice_ops;
mod tables;

pub use field::{Field, FieldElements};
pub use gf16::Gf16;
pub use gf256::Gf256;
pub use gf65536::Gf65536;
pub use simd::KernelBackend;
