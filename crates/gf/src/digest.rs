//! A 64-bit digest that is linear over GF(2^8): the digest of a
//! codeword's lanes obeys the code's own equations.
//!
//! For byte strings `x`, `y` of one length and a coefficient `c`,
//! `D(x ⊕ y) = D(x) ⊕ D(y)` and `D(c·x) = c·D(x)`, where `c·x` is the
//! bytewise GF(2^8) product the codecs compute and `c·D(x)` multiplies
//! each of the digest's eight bytes. So whenever `Σ cᵢ·xᵢ = 0` holds on
//! a stripe's lanes, `Σ cᵢ·D(xᵢ) = 0` holds on their digests: an encode
//! or a repair replayed over 8-byte lanes holding digests yields the
//! digests its outputs must have.
//!
//! # Construction
//!
//! The field is GF(2^16) written as GF(2^8)\[X\]/(X² + X + 0x20) over the
//! codecs' 0x11D byte field (the polynomial has no root in GF(2^8), so
//! this is a field), with the GF(2^8) bytes sitting in it as the
//! constants. The input is read in [`BLOCK`]-byte blocks, a partial last
//! block zero-padded. Bytes `l` and `64 + l` of a block are the low and
//! high coordinates of lane `l`'s symbol `lo + hi·X`, and each of the 64
//! lanes is evaluated as a polynomial at `β = 2X`, which generates the
//! whole multiplicative group (order 65 535), by Horner's rule:
//!
//! ```text
//! acc ← β·acc ⊕ x     i.e.     lo' = 0x40·hi ⊕ x_lo,   hi' = 2·(lo ⊕ hi) ⊕ x_hi
//! ```
//!
//! Both constants are powers of two, so a step is a few shifts and XORs
//! per byte, or two GFNI affine ops per 64 bytes ([`horner`], one kernel
//! per backend). [`fold`] then maps the 64 lane values to four
//! symbols: lane `4m + j` goes to symbol `j` with weight `γ^(15 − m)`,
//! where `γ = β^4096` is the one element with `γ^16 = β`. Within symbol
//! `j` the input is therefore a single polynomial in `γ` whose
//! coefficients are the symbols of lanes `≡ j (mod 4)`, in input order.
//! The digest's bytes are `lo₀ hi₀ lo₁ hi₁ lo₂ hi₂ lo₃ hi₃`. No length is
//! mixed in, and a string and its zero-padding digest alike: every
//! format that stores a digest also stores and checks the length.
//!
//! # What it detects
//!
//! The fold's point was chosen for, and the tests check over every
//! position of a 4 KiB input:
//!
//! * every error confined to 8 consecutive bytes (a burst of ≤ 64
//!   bits) — the most any 8-byte linear check can promise;
//! * every error in two bytes fewer than 192 bytes apart. (At 192 the
//!   lanes themselves collide: a byte `a` at low coordinate `l` of one
//!   block and `2a` at high coordinate `l` of the next enter lane `l`
//!   as `β·a ⊕ 2a·X = 0`, whatever the fold.)
//!
//! Any other error goes unseen with probability about 2⁻⁶⁴. This is an
//! integrity check against rot and bad transfers, not a cryptographic
//! hash: anyone can construct a collision.

use crate::simd::{active_suite, suite_for, KernelBackend};

/// Bytes per Horner step: the low and high coordinates of 64 lanes.
pub const BLOCK: usize = crate::simd::DIGEST_BLOCK;

/// Folds every whole [`BLOCK`] of `blocks` into the lane accumulators
/// `acc` (lanes' low coordinates in bytes `0..64`, high in `64..128`),
/// one Horner step per block, on the process-wide kernel backend.
/// Allocates nothing.
///
/// Panics unless `blocks.len()` is a multiple of [`BLOCK`].
pub fn horner(acc: &mut [u8; BLOCK], blocks: &[u8]) {
    (active_suite().digest_horner)(acc, blocks);
}

impl KernelBackend {
    /// [`horner`] on this backend (scalar fallback when unsupported).
    pub fn digest_horner(self, acc: &mut [u8; BLOCK], blocks: &[u8]) {
        (suite_for(self).digest_horner)(acc, blocks);
    }
}

/// `γ = β^4096 = 0x47 + 0x4C·X`, the fold's evaluation point.
const GAMMA: (u8, u8) = (0x47, 0x4C);

/// `X² = X + X2_LOW`: the constant term of the field's modulus.
const X2_LOW: u8 = 0x20;

/// `a·b` in GF(2^8) over 0x11D, at compile time.
pub(crate) const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = (a << 1) ^ if a & 0x80 != 0 { 0x1D } else { 0 };
        b >>= 1;
    }
    p
}

/// `(a₀ + a₁X)·(b₀ + b₁X) = a₀b₀ ⊕ 0x20·a₁b₁ + (a₀b₁ ⊕ a₁b₀ ⊕ a₁b₁)·X`,
/// the field's product, at compile time.
const fn mul16(a: (u8, u8), b: (u8, u8)) -> (u8, u8) {
    let t = gmul(a.1, b.1);
    (
        gmul(a.0, b.0) ^ gmul(X2_LOW, t),
        gmul(a.0, b.1) ^ gmul(a.1, b.0) ^ t,
    )
}

/// The product rows of one GF(2^16) constant `c = c₀ + c₁X`, symbols
/// packed as `lo | hi << 8`: `c·s = rows[0][lo] ^ rows[1][hi]`.
const fn product_rows(c: (u8, u8)) -> [[u16; 256]; 2] {
    let mut rows = [[0u16; 256]; 2];
    let mut x = 0;
    while x < 256 {
        let (l, h) = mul16(c, (x as u8, 0));
        rows[0][x] = l as u16 | (h as u16) << 8;
        let (l, h) = mul16(c, (0, x as u8));
        rows[1][x] = l as u16 | (h as u16) << 8;
        x += 1;
    }
    rows
}

/// The multipliers of the fold's four halvings, `γ^8, γ^4, γ^2, γ`.
static HALVINGS: [[[u16; 256]; 2]; 4] = {
    let g2 = mul16(GAMMA, GAMMA);
    let g4 = mul16(g2, g2);
    [
        product_rows(mul16(g4, g4)),
        product_rows(g4),
        product_rows(g2),
        product_rows(GAMMA),
    ]
};

/// The digest of lane accumulators `acc`: symbol `j` is
/// `Σₘ γ^(15 − m)·lane(4m + j)`. Computed as four halvings, each lane of
/// the lower half multiplied and the upper half added (`γ^8` weighs
/// every lane whose `m < 8`, `γ^4` every one whose `m mod 8 < 4`, …),
/// so the 60 products do not wait on each other. Allocates nothing.
pub fn fold(acc: &[u8; BLOCK]) -> [u8; 8] {
    let (lo, hi) = acc.split_at(BLOCK / 2);
    let mut v = [0u16; BLOCK / 2];
    for (s, (&l, &h)) in v.iter_mut().zip(lo.iter().zip(hi)) {
        *s = u16::from(l) | u16::from(h) << 8;
    }
    let mut half = BLOCK / 4;
    for [r_lo, r_hi] in &HALVINGS {
        let (low, high) = v.split_at_mut(half);
        for (s, &t) in low.iter_mut().zip(high.iter()) {
            *s = r_lo[usize::from(*s & 0xFF)] ^ r_hi[usize::from(*s >> 8)] ^ t;
        }
        half /= 2;
    }
    let mut out = [0u8; 8];
    for (o, s) in out.chunks_exact_mut(2).zip(v) {
        o.copy_from_slice(&s.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, Gf256};

    fn pow16(mut x: (u8, u8), mut e: u32) -> (u8, u8) {
        let mut r = (1, 0);
        while e > 0 {
            if e & 1 == 1 {
                r = mul16(r, x);
            }
            x = mul16(x, x);
            e >>= 1;
        }
        r
    }

    #[test]
    fn the_constants_are_what_the_docs_say() {
        // The compile-time product agrees with the field type.
        for a in 0..=255u8 {
            for b in [0u8, 1, 2, 0x1D, 0x40, 0x80, 0xFF, a] {
                let want = Gf256::from_index(a.into()) * Gf256::from_index(b.into());
                assert_eq!(u32::from(gmul(a, b)), want.index());
            }
        }
        // X² + X + 0x20 has no root in GF(2^8): the quotient is a field.
        assert!((0..=255u8).all(|r| gmul(r, r) ^ r ^ X2_LOW != 0));
        // β = 2X has order 65 535 = 3·5·17·257, so it generates the
        // multiplicative group.
        let beta = (0, 2);
        assert_eq!(pow16(beta, 65_535), (1, 0));
        for p in [3, 5, 17, 257] {
            assert_ne!(
                pow16(beta, 65_535 / p),
                (1, 0),
                "β's order divides 65535/{p}"
            );
        }
        // One Horner step is multiplication by β.
        for (lo, hi) in [(1, 0), (0, 1), (0x53, 0xCA), (0xFF, 0x80)] {
            let want = mul16(beta, (lo, hi));
            let got = (gmul(0x40, hi), gmul(2, lo ^ hi));
            assert_eq!(got, want);
        }
        // γ = β^4096 and γ^16 = β.
        assert_eq!(pow16(beta, 4096), GAMMA);
        assert_eq!(pow16(GAMMA, 16), beta);
        // The fold's rows multiply by γ^8, γ^4, γ^2 and γ.
        for (rows, e) in HALVINGS.iter().zip([8, 4, 2, 1]) {
            for (lo, hi) in [(1, 0), (0, 1), (0x53, 0xCA)] {
                let [l, h] = (rows[0][lo as usize] ^ rows[1][hi as usize]).to_le_bytes();
                assert_eq!((l, h), mul16(pow16(GAMMA, e), (lo, hi)), "γ^{e}");
            }
        }
    }

    #[test]
    fn fold_is_horner_at_gamma_per_residue_class() {
        let acc: [u8; BLOCK] = std::array::from_fn(|i| (i as u8).wrapping_mul(151) ^ 0x3C);
        let got = fold(&acc);
        for j in 0..4 {
            let mut want = (0, 0);
            for m in 0..16 {
                let lane = (acc[4 * m + j], acc[64 + 4 * m + j]);
                let term = mul16(pow16(GAMMA, 15 - m as u32), lane);
                want = (want.0 ^ term.0, want.1 ^ term.1);
            }
            assert_eq!((got[2 * j], got[2 * j + 1]), want, "symbol {j}");
        }
    }
}
