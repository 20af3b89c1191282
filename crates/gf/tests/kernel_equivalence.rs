//! Every backend's fused-row kernels against field arithmetic, across
//! adversarial payload shapes: empty slices, lengths below one vector,
//! lengths that are not a multiple of any vector width, and misaligned
//! sub-slices; source counts straddling the fuse-batch limits; overwrite
//! and accumulate; coefficient mixes containing 0 (dropped) and 1 (XOR
//! partition). Multiply blocks — several rows over the same sources —
//! are checked row by row against the same oracle, at row and source
//! counts straddling the block caps. The oracle is one field
//! multiplication per symbol (`gf_mul_acc` over `bytes_to_symbols`) —
//! no kernel is checked against another kernel. The three single-source
//! wrappers are pinned to a one-source fused call bit for bit. The lane
//! digest's Horner kernel is checked the same way, against one GF(2^16)
//! multiplication per lane and block.

use proptest::prelude::*;
use xorbas_gf::digest;
use xorbas_gf::slice_ops::{self, KernelBackend};
use xorbas_gf::{Field, Gf16, Gf256, Gf65536};

/// Payload lengths chosen to straddle every byte-kernel boundary: empty,
/// a lone byte, short scalar tails (7, 15–17), just under/over the
/// 32-byte AVX2 vector width, an odd prime, a few vectors plus a ragged
/// tail, and whole 64-byte GFNI steps plus a 62-byte tail (190, 4222).
const ADVERSARIAL_LENS: [usize; 14] = [0, 1, 7, 15, 16, 17, 31, 32, 33, 97, 128, 190, 1000, 4222];

/// Even payload lengths straddling every GF(2^16) kernel boundary:
/// empty, one symbol, short scalar tails (6, 30–34), just under/over the
/// 64-byte AVX2 symbol block, a long non-multiple tail, and whole
/// 128-byte GFNI steps plus a 62- or 126-byte tail (190, 4222).
const ADVERSARIAL_LENS16: [usize; 13] = [0, 2, 6, 30, 32, 34, 62, 64, 66, 94, 190, 1000, 4222];

/// Source counts straddling the byte kernels' 16-source batch.
const SOURCE_COUNTS: [usize; 7] = [0, 1, 2, 15, 16, 17, 33];

/// Source counts straddling the GF(2^16) kernels' 16-source batch, which
/// the XOR batch its unit coefficients go to shares.
const SOURCE_COUNTS16: [usize; 6] = [0, 1, 15, 16, 17, 33];

/// Deterministic pseudo-random payload, distinct per (seed, len).
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn backends() -> Vec<KernelBackend> {
    let all: Vec<KernelBackend> = KernelBackend::supported().collect();
    assert!(all.contains(&KernelBackend::Scalar));
    all
}

/// `[dst0 ^] Σ cᵢ·srcᵢ` by field arithmetic, one symbol at a time.
/// Addition in GF(2^m) is XOR of the representation, which is also how
/// the row lands on stale high bits of a sub-byte field's `dst`.
fn oracle<F: Field>(dst0: &[u8], srcs: &[(F, &[u8])], accumulate: bool) -> Vec<u8> {
    let mut sum = vec![F::ZERO; dst0.len() / F::SYMBOL_BYTES];
    for &(c, s) in srcs {
        slice_ops::gf_mul_acc(&mut sum, &slice_ops::bytes_to_symbols::<F>(s), c);
    }
    let mut out = slice_ops::symbols_to_bytes(&sum);
    if accumulate {
        for (o, d) in out.iter_mut().zip(dst0) {
            *o ^= d;
        }
    }
    out
}

/// Runs every supported backend's fused row over `lens × counts ×
/// {overwrite, accumulate} × {aligned, misaligned}` with three rotations
/// of a `[general, 0, 1, general']` coefficient mix (so a one-source row
/// sees a general coefficient, 0 and 1), against the oracle.
fn check_fused_rows<F: Field>(lens: &[usize], counts: &[usize], general: impl Fn(usize) -> F) {
    for backend in backends() {
        for &len in lens {
            for &n_srcs in counts {
                for skip in [0usize, 1] {
                    // `skip = 1` misaligns every vector load and store
                    // while the slices stay whole symbols.
                    let bufs: Vec<Vec<u8>> = (0..n_srcs)
                        .map(|i| payload((i * 7 + 3) as u64, len + skip))
                        .collect();
                    let dst_buf = payload(99, len + skip);
                    for rot in 0..3 {
                        let pairs: Vec<(F, &[u8])> = bufs
                            .iter()
                            .enumerate()
                            .map(|(i, s)| {
                                let c = match (i + rot) % 4 {
                                    1 => F::ZERO,
                                    2 => F::ONE,
                                    _ => general(i),
                                };
                                (c, &s[skip..])
                            })
                            .collect();
                        for accumulate in [false, true] {
                            let want = oracle(&dst_buf[skip..], &pairs, accumulate);
                            let mut got = dst_buf.clone();
                            if accumulate {
                                backend.payload_mul_acc_multi(&mut got[skip..], &pairs);
                            } else {
                                backend.payload_mul_into_multi(&mut got[skip..], &pairs);
                            }
                            assert_eq!(
                                &got[skip..],
                                want,
                                "{backend:?} GF(2^{}) len {len} n {n_srcs} skip {skip} \
                                 rot {rot} accumulate {accumulate}",
                                F::BITS
                            );
                            assert_eq!(got[..skip], dst_buf[..skip], "wrote before dst");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn gf256_fused_rows_match_field_arithmetic_on_every_backend() {
    check_fused_rows(&ADVERSARIAL_LENS, &SOURCE_COUNTS, |i| {
        Gf256::from_index((i as u32 * 37 + 0x1D) % 256)
    });
}

#[test]
fn gf16_fused_rows_match_field_arithmetic_on_every_backend() {
    // One symbol per byte: dirty high nibbles in the sources must be
    // truncated, and ONE must not take the raw-XOR shortcut.
    check_fused_rows(&ADVERSARIAL_LENS, &SOURCE_COUNTS, |i| {
        Gf16::from_index((i as u32 * 5 + 7) % 16)
    });
}

#[test]
fn gf65536_fused_rows_match_field_arithmetic_on_every_backend() {
    // General coefficients include values lighting every nibble table.
    check_fused_rows(&ADVERSARIAL_LENS16, &SOURCE_COUNTS16, |i| {
        Gf65536::from_index((i as u32 * 9973 + 0x8E2B) % 65536)
    });
}

/// Row counts straddling the multiply blocks' 12-row cap
/// (`BLOCK_ROWS`): one row (the register path), two (the smallest block
/// that parks its sources), the cap ± 1.
const BLOCK_ROW_COUNTS: [usize; 5] = [1, 2, 11, 12, 13];

/// Block lengths: one GF(2^16) symbol, a scalar tail alone, whole
/// vectors, whole vectors plus a tail after both the 32- and the 64-byte
/// steps, and after the 128-byte steps a 62-byte (190) and a 126-byte
/// (4222) tail.
const BLOCK_LENS: [usize; 6] = [2, 62, 190, 4096, 4130, 4222];

/// Runs every supported backend's block over `BLOCK_ROW_COUNTS ×
/// src_counts × BLOCK_LENS × {overwrite, accumulate}`, every slice
/// misaligned by one byte, against the oracle row by row. The
/// coefficients put a 0 and a 1 inside every block with enough cells,
/// beside general ones; each row must land on its own destination,
/// and the byte before each destination must stay untouched.
fn check_blocks<F: Field>(src_counts: &[usize], general: impl Fn(usize, usize) -> F) {
    let coeff = |r: usize, j: usize| match (r + 2 * j) % 7 {
        3 => F::ZERO,
        5 => F::ONE,
        _ => general(r, j),
    };
    for backend in backends() {
        for &len in &BLOCK_LENS {
            for &rows in &BLOCK_ROW_COUNTS {
                for &n_srcs in src_counts {
                    let bufs: Vec<Vec<u8>> = (0..n_srcs)
                        .map(|j| payload(j as u64 * 5 + 1, len + 1))
                        .collect();
                    let srcs: Vec<&[u8]> = bufs.iter().map(|b| &b[1..]).collect();
                    let dst0: Vec<Vec<u8>> = (0..rows)
                        .map(|r| payload(1000 + r as u64, len + 1))
                        .collect();
                    for accumulate in [false, true] {
                        let mut got = dst0.clone();
                        let mut dsts: Vec<&mut [u8]> =
                            got.iter_mut().map(|d| &mut d[1..]).collect();
                        if accumulate {
                            backend.payload_mul_acc_block(&mut dsts, &srcs, coeff);
                        } else {
                            backend.payload_mul_into_block(&mut dsts, &srcs, coeff);
                        }
                        for (r, (g, d0)) in got.iter().zip(&dst0).enumerate() {
                            let pairs: Vec<(F, &[u8])> = srcs
                                .iter()
                                .enumerate()
                                .map(|(j, &s)| (coeff(r, j), s))
                                .collect();
                            assert_eq!(
                                &g[1..],
                                oracle(&d0[1..], &pairs, accumulate),
                                "{backend:?} GF(2^{}) block {rows} x {n_srcs} len {len} \
                                 accumulate {accumulate}: row {r}",
                                F::BITS
                            );
                            assert_eq!(g[0], d0[0], "wrote before row {r}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn gf256_blocks_match_field_arithmetic_on_every_backend() {
    // Sources: none, one, the 16-source cap (`MAX_FUSE`) and one more.
    check_blocks(&[0, 1, 16, 17], |r, j| {
        Gf256::from_index(((r * 16 + j) as u32 * 37 + 0x1D) % 256)
    });
}

#[test]
fn gf16_blocks_match_field_arithmetic_on_every_backend() {
    // In a block ONE goes through the tables too, so dirty high nibbles
    // must still be truncated.
    check_blocks(&[0, 1, 16, 17], |r, j| {
        Gf16::from_index(((r * 3 + j) as u32 * 5 + 7) % 16)
    });
}

#[test]
fn gf65536_blocks_match_field_arithmetic_on_every_backend() {
    // Sources: none, one, the 16-source cap (`WIDE16_FUSE`) and one more.
    check_blocks(&[0, 1, 16, 17], |r, j| {
        Gf65536::from_index(((r * 16 + j) as u32 * 9973 + 0x8E2B) % 65536)
    });
}

#[test]
fn xor_rows_match_bytewise_xor_on_every_backend() {
    for backend in backends() {
        for &len in &ADVERSARIAL_LENS {
            for &n_srcs in &SOURCE_COUNTS {
                let srcs: Vec<Vec<u8>> = (0..n_srcs)
                    .map(|i| payload((i + 11) as u64, len + 1))
                    .collect();
                let refs: Vec<&[u8]> = srcs.iter().map(|s| &s[1..]).collect();
                let dst_buf = payload(7, len + 1);
                let want: Vec<u8> = (0..len)
                    .map(|j| refs.iter().fold(dst_buf[1 + j], |acc, s| acc ^ s[j]))
                    .collect();
                let mut got = dst_buf.clone();
                backend.xor_into_multi(&mut got[1..], &refs);
                assert_eq!(&got[1..], want, "{backend:?} xor len {len} n {n_srcs}");
            }
        }
    }
}

/// One Horner step of the lane digest by the field's definition: each
/// lane's symbol `lo + hi·X` of GF(2^8)[X]/(X² + X + 0x20) multiplied
/// by `β = 2X`, then the block's symbol added.
fn digest_oracle(acc0: &[u8; digest::BLOCK], blocks: &[u8]) -> [u8; digest::BLOCK] {
    let g = |x: u8| Gf256::from_index(x.into());
    let byte = |x: Gf256| x.index() as u8;
    let mut acc = *acc0;
    for block in blocks.chunks(digest::BLOCK) {
        for l in 0..64 {
            // (a₀ + a₁X)(b₀ + b₁X) = a₀b₀ + 0x20·a₁b₁ + (a₀b₁ + a₁b₀ + a₁b₁)X.
            let (a0, a1, b0, b1) = (g(acc[l]), g(acc[64 + l]), Gf256::ZERO, g(2));
            let t = a1 * b1;
            acc[l] = byte(a0 * b0 + g(0x20) * t) ^ block[l];
            acc[64 + l] = byte(a0 * b1 + a1 * b0 + t) ^ block[64 + l];
        }
    }
    acc
}

/// Every backend's digest kernel against the field, over every
/// adversarial length zero-padded to whole blocks and a few longer
/// runs, from a nonzero start, at aligned and misaligned input.
#[test]
fn digest_kernels_match_field_arithmetic_on_every_backend() {
    let lens = ADVERSARIAL_LENS
        .iter()
        .copied()
        .chain([256, 384, 640, 8192 + 128]);
    for len in lens {
        let padded = len.div_ceil(digest::BLOCK) * digest::BLOCK;
        let mut buf = payload(len as u64, padded + 1);
        buf[1 + len..].fill(0);
        let acc0: [u8; digest::BLOCK] = payload(3, digest::BLOCK).try_into().unwrap();
        let want = digest_oracle(&acc0, &buf[1..]);
        let aligned = buf[1..].to_vec();
        for backend in backends() {
            for (skip, blocks) in [(0, &aligned[..]), (1, &buf[1..])] {
                let mut got = acc0;
                backend.digest_horner(&mut got, blocks);
                assert_eq!(got, want, "{backend:?} len {len} skip {skip}");
            }
        }
    }
}

#[test]
fn single_source_wrappers_equal_a_one_source_fused_call() {
    let active = KernelBackend::active();
    for &len in &ADVERSARIAL_LENS16 {
        let src = &payload(5, len + 1)[1..];
        let dst0 = payload(6, len);

        let mut wrapped = dst0.clone();
        slice_ops::xor_into(&mut wrapped, src);
        let mut fused = dst0.clone();
        active.xor_into_multi(&mut fused, &[src]);
        assert_eq!(wrapped, fused, "xor_into len {len}");

        for ci in [0u32, 1, 0xB7] {
            let c = Gf256::from_index(ci);
            let mut wrapped = dst0.clone();
            slice_ops::mul_acc(&mut wrapped, src, c);
            let mut generic = dst0.clone();
            slice_ops::payload_mul_acc(&mut generic, src, c);
            let mut fused = dst0.clone();
            active.payload_mul_acc_multi(&mut fused, &[(c, src)]);
            assert_eq!(wrapped, fused, "mul_acc len {len} c {ci}");
            assert_eq!(generic, fused, "payload_mul_acc<Gf256> len {len} c {ci}");
        }
        for ci in [0u32, 1, 0x1021] {
            let c = Gf65536::from_index(ci);
            let mut wrapped = dst0.clone();
            slice_ops::payload_mul_acc(&mut wrapped, src, c);
            let mut fused = dst0.clone();
            active.payload_mul_acc_multi(&mut fused, &[(c, src)]);
            assert_eq!(
                wrapped, fused,
                "payload_mul_acc<Gf65536> len {len} c {ci:#x}"
            );
        }
    }
}

#[test]
fn unsupported_backends_fall_back_to_scalar_results() {
    // Even if a backend is unsupported on this CPU, calling it must be
    // safe and correct (it silently runs the scalar suite).
    let src = payload(1, 100);
    let pairs = [(Gf256::from_index(0x53), src.as_slice())];
    let dst0 = payload(2, 100);
    let want = oracle(&dst0, &pairs, true);
    for backend in KernelBackend::ALL {
        let mut got = dst0.clone();
        backend.payload_mul_acc_multi(&mut got, &pairs);
        assert_eq!(got, want, "{backend:?}");
    }
}

#[test]
fn gf65536_odd_byte_lengths_panic_in_the_payload_kernels() {
    // The gf-crate contract is a panic (the codecs in `xorbas_core`
    // front it with the typed `PayloadNotSymbolAligned` error).
    let src = payload(1, 5);
    for backend in backends() {
        let result = std::panic::catch_unwind(|| {
            let mut dst = vec![0u8; 5];
            backend.payload_mul_acc_multi(&mut dst, &[(Gf65536::from_index(3), src.as_slice())]);
        });
        assert!(result.is_err(), "{backend:?} accepted an odd length");
    }
}

proptest! {
    #[test]
    fn randomized_gf256_rows_match_field_arithmetic(
        dst in proptest::collection::vec(any::<u8>(), 0..200),
        srcs in proptest::collection::vec(
            (0u32..256, proptest::collection::vec(any::<u8>(), 200..201)),
            0..20,
        ),
        skip in 0usize..3,
    ) {
        let skip = skip.min(dst.len());
        let n = dst.len() - skip;
        let pairs: Vec<(Gf256, &[u8])> = srcs
            .iter()
            .map(|(c, s)| (Gf256::from_index(*c), &s[skip..skip + n]))
            .collect();
        let want = oracle(&dst[skip..], &pairs, true);
        for backend in backends() {
            let mut got = dst.clone();
            backend.payload_mul_acc_multi(&mut got[skip..], &pairs);
            prop_assert_eq!(&got[skip..], &want[..], "{:?}", backend);
        }
    }

    #[test]
    fn randomized_gf65536_rows_match_field_arithmetic(
        dst in proptest::collection::vec(any::<u8>(), 0..128),
        srcs in proptest::collection::vec(
            (0u32..65536, proptest::collection::vec(any::<u8>(), 128..129)),
            0..10,
        ),
        skip in 0usize..2,
    ) {
        // `skip = 1` starts the slices at an odd address: vector loads
        // misalign while the slices stay whole two-byte symbols.
        let skip = skip.min(dst.len());
        let n = ((dst.len() - skip) / 2) * 2;
        let pairs: Vec<(Gf65536, &[u8])> = srcs
            .iter()
            .map(|(c, s)| (Gf65536::from_index(*c), &s[skip..skip + n]))
            .collect();
        let want = oracle(&dst[skip..skip + n], &pairs, true);
        let mut got = dst[skip..skip + n].to_vec();
        slice_ops::payload_mul_acc_multi(&mut got, &pairs);
        prop_assert_eq!(&got, &want);
        for backend in backends() {
            let mut got = dst.clone();
            backend.payload_mul_acc_multi(&mut got[skip..skip + n], &pairs);
            prop_assert_eq!(&got[skip..skip + n], &want[..], "{:?}", backend);
        }
    }
}
