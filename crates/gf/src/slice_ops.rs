//! Bulk kernels over block payloads, with runtime-dispatched SIMD.
//!
//! Erasure coding a 64 MB HDFS block is a long stream of
//! `dst ^= c * src` operations over GF(2^8) bytes. Every piece of that
//! arithmetic is a *row*: an encode or a compiled heavy repair combines
//! `k` sources into one output lane, a light repair XORs a 5-block
//! group (§3.1.2). A row is computed as a **fused row**
//! `dst = [dst ^] Σ cᵢ·srcᵢ` in **one pass over `dst`** —
//! [`payload_mul_into_multi`] / [`payload_mul_acc_multi`] for any
//! field, the GF(2^8) spelling [`mul_acc_multi`], and
//! [`xor_into_multi`] for the all-ones row. Issuing a row as one fused
//! call instead of `k` accumulate calls divides the `dst` memory
//! traffic by `k`, which is where most of the non-SIMD time went (cf.
//! Uezato, SC 2021).
//!
//! An encode computes *several* rows over the *same* sources — RS(10,4)
//! four, RS(200,60) sixty — so the multiply kernels take a **fused
//! block** `dstᵣ = [dstᵣ ^] Σⱼ cᵣⱼ·srcⱼ`
//! ([`payload_mul_into_block`], [`KernelBackend::payload_mul_acc_block`]): each source
//! vector is loaded and split into nibbles (for GF(2^16), also
//! deinterleaved) once for up to twelve rows, instead of once per row.
//! For GF(2^16) that takes the vector ALU ops per (row, source, 64
//! bytes) from 34 to 16 + 14 / rows + 4 / sources, 17.4 for a 12-row,
//! 16-source block; for GF(2^8), per (row, source, 32 bytes), from 7 to
//! 4 + 3 / rows. The GFNI blocks apply each coefficient as an 8×8 bit
//! matrix instead of nibble tables: 3 + 1 / rows + 1 / sources ops per
//! GF(2^16) (row, source, 64 bytes), and one affine op and one XOR per
//! GF(2^8) (row, source, 64 bytes) (the table is in the `simd` module's
//! docs). A fused row is a one-row block of the same kernels, which
//! keeps its split sources in registers.
//!
//! Three single-source functions remain — [`xor_into`], [`mul_acc`] and
//! [`payload_mul_acc`] — as one-line conveniences that pass a
//! one-element source list to the same fused entry point; they are not a
//! second kernel family. A one-source fused call measures 0.85–0.89× a
//! dedicated single-source kernel (AVX2, 1 MiB lanes: the fused loops
//! reload the per-source tables from L1 for every vector). That is
//! accepted: no codec, repair session, node or simulator path issues a
//! one-source row, and a dedicated fast path would be the duplicate
//! kernel family this design removed.
//!
//! # Kernel selection
//!
//! Three interchangeable backends implement the kernels (see
//! [`KernelBackend`]): portable **scalar** code (256-entry product-row
//! lookups, `u64`-wide XOR), **avx2** (256-bit `VPSHUFB` split-nibble)
//! and **gfni** (512-bit `vgf2p8affineqb` multiply blocks beside the
//! AVX2 XOR row). The module-level functions dispatch through a
//! process-wide suite chosen once, on first use:
//!
//! 1. If `XORBAS_KERNEL_BACKEND` names a backend (`scalar`, `avx2`,
//!    `gfni`), that backend is used when the CPU supports it (silently
//!    falling back to scalar when it does not) — `scalar` and `avx2`
//!    are how CI keeps the portable path and the AVX2 blocks exercised
//!    on a runner that has GFNI. An unknown name is reported on stderr
//!    and ignored.
//! 2. Otherwise gfni wins when `is_x86_feature_detected!` finds AVX2,
//!    AVX-512 F/BW/VBMI and GFNI, then avx2 when it finds AVX2, then
//!    scalar.
//!
//! [`KernelBackend::active`] reports the outcome, and the fused rows and
//! blocks are also callable on an explicit backend (e.g.
//! [`KernelBackend::payload_mul_acc_block`]) so equivalence tests can
//! compare implementations inside one process.
//!
//! # Field widths
//!
//! Byte-wide fields (GF(2^8), and GF(2^4) with one symbol per byte —
//! source bytes are truncated to the field like `Field::from_index`,
//! accumulation is bytewise XOR) run the dispatched byte kernels.
//! GF(2^16) payloads run a dedicated two-byte-symbol kernel, dispatched
//! like the byte kernels: the **scalar** backend streams two 256-entry
//! split `u16` tables (`c·lo` and `c·(hi·256)`), **avx2** decomposes
//! each symbol into four nibbles and looks all four product
//! contributions up with eight 16-entry `VPSHUFB` tables per
//! coefficient (deinterleave low/high bytes and split once per source
//! vector, eight shuffles per coefficient, reinterleave once per row),
//! and **gfni** deinterleaves 64 symbols into a low-byte and a
//! high-byte vector and applies four 8×8 bit matrices per coefficient,
//! one from each input byte to each output byte — the payload length
//! must be a whole number of 2-byte symbols. Wider or odd-sized fields
//! fall back to a symbol-at-a-time loop, row by row.
//!
//! [`gf_mul_acc`] is the same operation over symbol slices, one field
//! multiplication at a time: the reference the kernels are tested
//! against.

// Hot-path module: every index must be justified. The fused-row batcher
// carries an audited allow (batch counters are flushed at capacity, so
// they never reach the array length).
#![warn(clippy::indexing_slicing)]

use crate::simd::{
    active_suite, suite_for, FusedMulFn, KernelSuite, MulTables, Nibble16Tables, BLOCK_ROWS,
    MAX_FUSE, WIDE16_FUSE,
};
use crate::{Field, Gf256};

pub use crate::simd::KernelBackend;

// Everything from here to `check_symbol_multiple` runs once per payload
// lane per stripe; table state lives on the stack and nothing
// heap-allocates. The Vec-returning symbol converters below it are
// cold-path.

/// `dst[i] ^= src[i]` for all `i`. Panics if lengths differ.
///
/// This is the entirety of the paper's *light decoder* arithmetic: local
/// parities use coefficients `c_i = 1`, so single-failure repair "performs
/// a simple XOR" (§3.1.2). A one-source [`xor_into_multi`].
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    xor_into_multi(dst, &[src]);
}

/// Fused `dst ^= src₀ ^ src₁ ^ …` in one pass over `dst`.
///
/// Panics if any source length differs from `dst`. An empty source list
/// is a no-op.
pub fn xor_into_multi(dst: &mut [u8], srcs: &[&[u8]]) {
    xor_combine(active_suite(), dst, srcs);
}

/// `dst[i] ^= c * src[i]` for all `i`. Panics if lengths differ. A
/// one-source [`mul_acc_multi`].
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: Gf256) {
    mul_acc_multi(dst, &[(c, src)]);
}

/// Fused row `dst ^= Σ cᵢ·srcᵢ` over GF(2^8) in one pass over `dst`.
///
/// Panics if any source length differs from `dst`.
pub fn mul_acc_multi(dst: &mut [u8], srcs: &[(Gf256, &[u8])]) {
    payload_mul_acc_multi(dst, srcs);
}

/// `dst[i] += c * src[i]` over symbol slices, one field multiplication
/// per symbol: the reference the payload kernels are tested against.
pub fn gf_mul_acc<F: Field>(dst: &mut [F], src: &[F], c: F) {
    assert_eq!(dst.len(), src.len(), "symbol length mismatch");
    if c.is_zero() {
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s * c;
    }
}

/// `dst ^= c * src` over *byte payloads* for any field. Panics if
/// lengths differ. A one-source [`payload_mul_acc_multi`].
pub fn payload_mul_acc<F: Field>(dst: &mut [u8], src: &[u8], c: F) {
    payload_mul_acc_multi(dst, &[(c, src)]);
}

/// Fused row `dst = Σ cᵢ·srcᵢ` over byte payloads for any field, one
/// pass over `dst`: a one-row block.
///
/// Overwrites `dst` entirely (zero-filling it when no source has a
/// nonzero coefficient). Byte-wide fields run the dispatched byte
/// kernels; GF(2^16) runs the two-byte-symbol kernel (the payload length
/// must then be a multiple of the symbol width); other widths fall back
/// to a symbol-at-a-time loop. Panics if any source length differs from
/// `dst`.
pub fn payload_mul_into_multi<F: Field>(dst: &mut [u8], srcs: &[(F, &[u8])]) {
    payload_combine(active_suite(), dst, srcs.iter().copied(), false);
}

/// Fused row `dst ^= Σ cᵢ·srcᵢ` over byte payloads for any field, one
/// pass over `dst`; the accumulating counterpart of
/// [`payload_mul_into_multi`].
///
/// Panics if any source length differs from `dst`.
pub fn payload_mul_acc_multi<F: Field>(dst: &mut [u8], srcs: &[(F, &[u8])]) {
    payload_combine(active_suite(), dst, srcs.iter().copied(), true);
}

/// Fused block `dstᵣ = Σⱼ coeff(r, j)·srcⱼ` for every row `r` of `dsts`,
/// over byte payloads for any field.
///
/// Every destination is overwritten entirely. Rows are issued twelve
/// at a time, so each source vector is loaded and split once for all
/// the rows of a batch instead of once per row; a one-row block is
/// exactly [`payload_mul_into_multi`]. Panics if any destination or
/// source length differs from the first destination's.
pub fn payload_mul_into_block<F: Field>(
    dsts: &mut [&mut [u8]],
    srcs: &[&[u8]],
    coeff: impl Fn(usize, usize) -> F,
) {
    block_combine(active_suite(), dsts, srcs, coeff, false);
}

impl KernelBackend {
    /// [`xor_into_multi`] on this backend (scalar fallback when
    /// unsupported).
    pub fn xor_into_multi(self, dst: &mut [u8], srcs: &[&[u8]]) {
        xor_combine(suite_for(self), dst, srcs);
    }

    /// [`payload_mul_into_multi`] on this backend.
    pub fn payload_mul_into_multi<F: Field>(self, dst: &mut [u8], srcs: &[(F, &[u8])]) {
        payload_combine(suite_for(self), dst, srcs.iter().copied(), false);
    }

    /// [`payload_mul_acc_multi`] on this backend.
    pub fn payload_mul_acc_multi<F: Field>(self, dst: &mut [u8], srcs: &[(F, &[u8])]) {
        payload_combine(suite_for(self), dst, srcs.iter().copied(), true);
    }

    /// [`payload_mul_into_block`] on this backend.
    pub fn payload_mul_into_block<F: Field>(
        self,
        dsts: &mut [&mut [u8]],
        srcs: &[&[u8]],
        coeff: impl Fn(usize, usize) -> F,
    ) {
        block_combine(suite_for(self), dsts, srcs, coeff, false);
    }

    /// Fused block `dstᵣ ^= Σⱼ coeff(r, j)·srcⱼ` on this backend; the
    /// accumulating counterpart of [`payload_mul_into_block`].
    pub fn payload_mul_acc_block<F: Field>(
        self,
        dsts: &mut [&mut [u8]],
        srcs: &[&[u8]],
        coeff: impl Fn(usize, usize) -> F,
    ) {
        block_combine(suite_for(self), dsts, srcs, coeff, true);
    }
}

/// All-ones row `dst ^= Σ srcᵢ`, batched to the kernel's [`MAX_FUSE`].
fn xor_combine(suite: &KernelSuite, dst: &mut [u8], srcs: &[&[u8]]) {
    for s in srcs {
        assert_eq!(dst.len(), s.len(), "payload length mismatch");
    }
    for batch in srcs.chunks(MAX_FUSE) {
        (suite.xor_multi)(dst, batch, true);
    }
}

/// Whether the `c == ONE` byte-XOR shortcut is sound for `F`: only for
/// fields whose symbols fill their bytes. Sub-byte fields (GF(2^4)) must
/// still truncate source bytes through the tables, which raw XOR would
/// skip.
fn one_is_xor<F: Field>() -> bool {
    F::BITS as usize == 8 * F::SYMBOL_BYTES
}

/// Whether a multiply kernel serves `F`: byte-wide fields and GF(2^16).
fn has_kernel<F: Field>() -> bool {
    F::SYMBOL_BYTES == 1 || F::BITS == 16
}

/// Fused-row engine: partitions the sources into unit-coefficient XOR
/// batches and general multiply batches (each at most
/// [`MAX_FUSE`] wide, so per-source table state stays on the stack and
/// in L1) and issues them so `dst` is overwritten exactly once when
/// `accumulate` is false. Every one-row payload multiply funnels
/// through here, whatever the field width or source count.
fn payload_combine<'a, F: Field>(
    suite: &KernelSuite,
    dst: &mut [u8],
    srcs: impl Iterator<Item = (F, &'a [u8])>,
    accumulate: bool,
) {
    if F::SYMBOL_BYTES == 1 {
        // Byte-wide: split-nibble tables.
        combine_batched::<F, MulTables, MAX_FUSE>(
            suite,
            dst,
            srcs,
            accumulate,
            MulTables::build,
            suite.mul_block,
        );
        return;
    }
    check_symbol_multiple::<F>(dst.len());
    if has_kernel::<F>() {
        // GF(2^16): the fused two-byte-symbol kernel.
        combine_batched::<F, Nibble16Tables, WIDE16_FUSE>(
            suite,
            dst,
            srcs,
            accumulate,
            Nibble16Tables::build,
            suite.mul16_block,
        );
        return;
    }
    // Odd-width fallback: symbol-at-a-time accumulation.
    if !accumulate {
        dst.fill(0);
    }
    let b = F::SYMBOL_BYTES;
    for (c, s) in srcs {
        assert_eq!(dst.len(), s.len(), "payload length mismatch");
        if c.is_zero() {
            continue;
        }
        for (dc, sc) in dst.chunks_exact_mut(b).zip(s.chunks_exact(b)) {
            (F::read_symbol(dc) + c * F::read_symbol(sc)).write_symbol(dc);
        }
    }
}

/// The fused-row batcher, for either table type: coefficient tables of
/// type `T` are built per source and handed to `mul` as one-row blocks
/// of at most `FUSE` sources, unit coefficients go to the XOR kernel at
/// most [`MAX_FUSE`] at a time, and `dst` is overwritten by the first
/// batch issued (zero-filled when there is none). The batch arrays live
/// on the stack.
// Batch counters flush at MAX_FUSE / FUSE, so the batch-array indexing
// stays in bounds.
#[allow(clippy::indexing_slicing)]
fn combine_batched<'a, F: Field, T: Copy + Default, const FUSE: usize>(
    suite: &KernelSuite,
    mut dst: &mut [u8],
    srcs: impl Iterator<Item = (F, &'a [u8])>,
    accumulate: bool,
    build: impl Fn(F) -> T,
    mul: FusedMulFn<T>,
) {
    let mut wrote = accumulate;
    let mut ones: [&[u8]; MAX_FUSE] = [&[]; MAX_FUSE];
    let mut n_ones = 0;
    let mut tables = [T::default(); FUSE];
    let mut muls: [&[u8]; FUSE] = [&[]; FUSE];
    let mut n_muls = 0;
    for (c, s) in srcs {
        assert_eq!(dst.len(), s.len(), "payload length mismatch");
        if c.is_zero() {
            continue;
        }
        if c == F::ONE && one_is_xor::<F>() {
            ones[n_ones] = s;
            n_ones += 1;
            if n_ones == MAX_FUSE {
                (suite.xor_multi)(dst, &ones[..n_ones], wrote);
                wrote = true;
                n_ones = 0;
            }
        } else {
            tables[n_muls] = build(c);
            muls[n_muls] = s;
            n_muls += 1;
            if n_muls == FUSE {
                mul(std::slice::from_mut(&mut dst), &tables, &muls, wrote);
                wrote = true;
                n_muls = 0;
            }
        }
    }
    if n_muls > 0 {
        mul(
            std::slice::from_mut(&mut dst),
            &tables[..n_muls],
            &muls[..n_muls],
            wrote,
        );
        wrote = true;
    }
    if n_ones > 0 {
        (suite.xor_multi)(dst, &ones[..n_ones], wrote);
        wrote = true;
    }
    if !wrote {
        dst.fill(0);
    }
}

/// Fused-block engine. A block of one row (or of a field no multiply
/// kernel serves) runs row by row through [`payload_combine`]; taller
/// blocks go to the block kernels, [`BLOCK_ROWS`] rows at a time.
fn block_combine<F: Field>(
    suite: &KernelSuite,
    dsts: &mut [&mut [u8]],
    srcs: &[&[u8]],
    coeff: impl Fn(usize, usize) -> F,
    accumulate: bool,
) {
    if dsts.len() <= 1 || !has_kernel::<F>() {
        for (r, dst) in dsts.iter_mut().enumerate() {
            let row = srcs.iter().enumerate().map(|(j, &s)| (coeff(r, j), s));
            payload_combine(suite, dst, row, accumulate);
        }
        return;
    }
    let len = dsts.first().map_or(0, |d| d.len());
    let mut lens = dsts
        .iter()
        .map(|d| d.len())
        .chain(srcs.iter().map(|s| s.len()));
    assert!(lens.all(|l| l == len), "payload length mismatch");
    if F::SYMBOL_BYTES == 1 {
        block_batched::<F, MulTables, MAX_FUSE, { BLOCK_ROWS * MAX_FUSE }>(
            suite.mul_block,
            dsts,
            srcs,
            coeff,
            accumulate,
            MulTables::build,
        );
    } else {
        check_symbol_multiple::<F>(len);
        block_batched::<F, Nibble16Tables, WIDE16_FUSE, { BLOCK_ROWS * WIDE16_FUSE }>(
            suite.mul16_block,
            dsts,
            srcs,
            coeff,
            accumulate,
            Nibble16Tables::build,
        );
    }
}

/// The block batcher: for each batch of at most [`BLOCK_ROWS`] rows and
/// each batch of at most `FUSE` sources, builds the batch's `CELLS =
/// BLOCK_ROWS · FUSE` coefficient tables on the stack and issues one
/// kernel call, the first overwriting unless `accumulate`.
// Row batches hold at most BLOCK_ROWS rows and source batches at most
// FUSE sources, so a batch's tables fit the CELLS array.
#[allow(clippy::indexing_slicing)]
fn block_batched<F: Field, T: Copy + Default, const FUSE: usize, const CELLS: usize>(
    mul: FusedMulFn<T>,
    dsts: &mut [&mut [u8]],
    srcs: &[&[u8]],
    coeff: impl Fn(usize, usize) -> F,
    accumulate: bool,
    build: impl Fn(F) -> T,
) {
    debug_assert_eq!(CELLS, BLOCK_ROWS * FUSE);
    let mut tables = [T::default(); CELLS];
    for (b, rows) in dsts.chunks_mut(BLOCK_ROWS).enumerate() {
        if srcs.is_empty() {
            mul(rows, &[], &[], accumulate);
        }
        for (sb, batch) in srcs.chunks(FUSE).enumerate() {
            let cells = &mut tables[..rows.len() * batch.len()];
            for (r, row) in cells.chunks_exact_mut(batch.len()).enumerate() {
                for (j, t) in row.iter_mut().enumerate() {
                    *t = build(coeff(b * BLOCK_ROWS + r, sb * FUSE + j));
                }
            }
            mul(rows, cells, batch, accumulate || sb > 0);
        }
    }
}

/// Panics unless `len` is a whole number of `F` symbols.
fn check_symbol_multiple<F: Field>(len: usize) {
    assert_eq!(
        len % F::SYMBOL_BYTES,
        0,
        "payload not a whole number of symbols"
    );
}

/// Converts a byte payload into field symbols (little-endian packing).
///
/// The payload length must be a multiple of `F::SYMBOL_BYTES`.
pub fn bytes_to_symbols<F: Field>(bytes: &[u8]) -> Vec<F> {
    check_symbol_multiple::<F>(bytes.len());
    bytes
        .chunks_exact(F::SYMBOL_BYTES)
        .map(F::read_symbol)
        .collect()
}

/// Converts field symbols back into a byte payload.
pub fn symbols_to_bytes<F: Field>(symbols: &[F]) -> Vec<u8> {
    let mut out = vec![0u8; symbols.len() * F::SYMBOL_BYTES];
    for (chunk, s) in out.chunks_exact_mut(F::SYMBOL_BYTES).zip(symbols) {
        s.write_symbol(chunk);
    }
    out
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)] // tests index fixture data freely
mod tests {
    use super::*;
    use crate::{Gf16, Gf65536};
    use proptest::prelude::*;

    #[test]
    fn xor_into_is_involutive() {
        let a0 = vec![1u8, 2, 3, 250];
        let b = vec![9u8, 8, 7, 255];
        let mut a = a0.clone();
        xor_into(&mut a, &b);
        xor_into(&mut a, &b);
        assert_eq!(a, a0);
    }

    #[test]
    #[should_panic(expected = "payload length mismatch")]
    fn mismatched_lengths_panic() {
        let mut dst = vec![0u8; 3];
        xor_into(&mut dst, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "payload length mismatch")]
    fn mismatched_mul_acc_lengths_panic() {
        let mut dst = vec![0u8; 3];
        mul_acc(&mut dst, &[1, 2], Gf256::ZERO);
    }

    #[test]
    #[should_panic(expected = "payload length mismatch")]
    fn mismatched_multi_lengths_panic() {
        let mut dst = vec![0u8; 3];
        let a = [1u8, 2, 3];
        let b = [4u8, 5];
        mul_acc_multi(&mut dst, &[(Gf256::ONE, &a), (Gf256::ONE, &b)]);
    }

    #[test]
    fn active_backend_is_supported() {
        let b = KernelBackend::active();
        assert!(b.is_supported());
        assert!(KernelBackend::supported().any(|s| s == b));
        assert_eq!(KernelBackend::parse(b.name()), Some(b));
        // A pinned pass (CI's `XORBAS_KERNEL_BACKEND=scalar`) must run
        // the backend it names, not a silent fallback.
        let requested = std::env::var("XORBAS_KERNEL_BACKEND")
            .ok()
            .and_then(|name| KernelBackend::parse(&name));
        if let Some(requested) = requested.filter(|r| r.is_supported()) {
            assert_eq!(b, requested, "XORBAS_KERNEL_BACKEND was not honoured");
        }
    }

    #[test]
    fn payload_mul_into_multi_with_no_live_sources_zero_fills() {
        let mut dst = vec![0xAAu8; 9];
        payload_mul_into_multi::<Gf256>(&mut dst, &[]);
        assert_eq!(dst, vec![0u8; 9]);
        let src = [7u8; 9];
        let mut dst = vec![0xAAu8; 9];
        payload_mul_into_multi(&mut dst, &[(Gf256::ZERO, &src[..])]);
        assert_eq!(dst, vec![0u8; 9]);
    }

    #[test]
    fn mul_acc_multi_matches_field_arithmetic_over_many_sources() {
        // More sources than MAX_FUSE forces batching; mixed zero, one,
        // and general coefficients exercise all three partitions.
        let n = 4097; // not a multiple of any vector width
        let srcs: Vec<Vec<u8>> = (0..40)
            .map(|i| {
                (0..n)
                    .map(|j| ((i * 89 + j * 13 + 5) % 256) as u8)
                    .collect()
            })
            .collect();
        let coeffs: Vec<Gf256> = (0..40).map(|i| Gf256::from_index(i * 7 % 256)).collect();
        let mut fused = vec![0x5Au8; n];
        let want: Vec<u8> = (0..n)
            .map(|j| {
                let sum: Gf256 = coeffs
                    .iter()
                    .zip(&srcs)
                    .map(|(&c, s)| c * Gf256::new(s[j]))
                    .sum();
                (Gf256::new(0x5A) + sum).raw()
            })
            .collect();
        let pairs: Vec<(Gf256, &[u8])> = coeffs
            .iter()
            .zip(&srcs)
            .map(|(&c, s)| (c, s.as_slice()))
            .collect();
        mul_acc_multi(&mut fused, &pairs);
        assert_eq!(fused, want);
    }

    #[test]
    fn gf16_payload_kernels_truncate_source_bytes() {
        // GF(2^4) symbols occupy a whole byte; source bytes are truncated
        // to the field exactly like `from_index`, so a dirty high nibble
        // in the source must not leak into the product.
        let c = Gf16::new(0x7);
        let src = [0xF3u8, 0x0A, 0x90];
        let mut dst = [0u8; 3];
        payload_mul_into_multi(&mut dst, &[(c, &src)]);
        for (d, s) in dst.iter().zip(src) {
            assert_eq!(*d, (c * Gf16::new(s & 0xF)).raw());
        }
        // ONE is not a raw-XOR shortcut for sub-byte fields.
        let mut dst = [0u8; 3];
        payload_mul_into_multi(&mut dst, &[(Gf16::ONE, &src)]);
        assert_eq!(dst, [0x3, 0xA, 0x0]);
    }

    #[test]
    fn symbol_round_trip_gf65536() {
        let bytes: Vec<u8> = (0..64u8).collect();
        let syms: Vec<Gf65536> = bytes_to_symbols(&bytes);
        assert_eq!(syms.len(), 32);
        assert_eq!(symbols_to_bytes(&syms), bytes);
    }

    #[test]
    fn symbol_round_trip_gf16_one_byte_per_symbol() {
        // GF(2^4) symbols occupy a whole byte (upper nibble unused on
        // write, masked on read via from_index semantics in the codec).
        let syms = vec![Gf16::new(0xA), Gf16::new(0x3)];
        let bytes = symbols_to_bytes(&syms);
        assert_eq!(bytes, vec![0xA, 0x3]);
        assert_eq!(bytes_to_symbols::<Gf16>(&bytes), syms);
    }

    proptest! {
        #[test]
        fn mul_acc_matches_scalar_loop(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            src in proptest::collection::vec(any::<u8>(), 0..512),
            c in 0u32..256,
        ) {
            let n = data.len().min(src.len());
            let c = Gf256::from_index(c);
            let mut fast = data[..n].to_vec();
            mul_acc(&mut fast, &src[..n], c);
            let slow: Vec<u8> = data[..n]
                .iter()
                .zip(&src[..n])
                .map(|(&d, &s)| (Gf256::new(d) + c * Gf256::new(s)).raw())
                .collect();
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn payload_mul_acc_gf65536_matches_symbol_ops(
            data in proptest::collection::vec(any::<u8>(), 0..64),
            src in proptest::collection::vec(any::<u8>(), 0..64),
            c in 0u32..65536,
        ) {
            let n = (data.len().min(src.len()) / 2) * 2;
            let c = Gf65536::from_index(c);
            let mut bytes = data[..n].to_vec();
            payload_mul_acc(&mut bytes, &src[..n], c);

            let mut syms: Vec<Gf65536> = bytes_to_symbols(&data[..n]);
            let src_syms: Vec<Gf65536> = bytes_to_symbols(&src[..n]);
            gf_mul_acc(&mut syms, &src_syms, c);
            prop_assert_eq!(bytes, symbols_to_bytes(&syms));
        }

        #[test]
        fn gf_mul_acc_matches_bytewise_gf256(
            data in proptest::collection::vec(any::<u8>(), 0..256),
            src in proptest::collection::vec(any::<u8>(), 0..256),
            c in 0u32..256,
        ) {
            let n = data.len().min(src.len());
            let c = Gf256::from_index(c);
            let mut bytes = data[..n].to_vec();
            mul_acc(&mut bytes, &src[..n], c);

            let mut syms: Vec<Gf256> = data[..n].iter().map(|&b| Gf256::new(b)).collect();
            let src_syms: Vec<Gf256> = src[..n].iter().map(|&b| Gf256::new(b)).collect();
            gf_mul_acc(&mut syms, &src_syms, c);
            let sym_bytes: Vec<u8> = syms.iter().map(|s| s.raw()).collect();
            prop_assert_eq!(bytes, sym_bytes);
        }
    }
}
