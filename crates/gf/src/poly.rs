//! Polynomial reference arithmetic and the primitive-polynomial registry.
//!
//! The table-driven field implementations are verified (in tests) against
//! [`clmul_mod`], a direct shift-and-XOR carry-less multiplication with
//! modular reduction.

/// Primitive polynomial for GF(2^4): `x^4 + x + 1`.
pub const PRIMITIVE_POLY_4: u32 = 0x13;
/// Primitive polynomial for GF(2^8): `x^8 + x^4 + x^3 + x^2 + 1`.
///
/// This is the polynomial used by most storage systems (and by the
/// HDFS-RAID `ErasureCode` implementation the paper builds on).
pub const PRIMITIVE_POLY_8: u32 = 0x11D;
/// Primitive polynomial for GF(2^16): `x^16 + x^12 + x^3 + x + 1`.
pub const PRIMITIVE_POLY_16: u32 = 0x1100B;

/// Carry-less multiplication of `a` and `b` reduced modulo `poly`.
///
/// `poly` must include its leading bit (degree `bits`). This is the slow
/// reference implementation; the field types use log/exp tables instead.
pub fn clmul_mod(a: u32, b: u32, poly: u32, bits: u32) -> u32 {
    let mask = (1u32 << bits) - 1;
    let high = 1u32 << bits;
    let mut a = a & mask;
    let mut b = b & mask;
    let mut acc = 0u32;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        b >>= 1;
        a <<= 1;
        if a & high != 0 {
            a ^= poly;
        }
    }
    acc & mask
}

/// Whether `x` is a primitive element modulo `poly`, i.e. whether the
/// powers of `x` enumerate all `2^bits - 1` nonzero elements.
///
/// All polynomials in the registry satisfy this, which is what lets the
/// field tables use `α = x`.
pub fn x_is_primitive(poly: u32, bits: u32) -> bool {
    let order = (1u32 << bits) - 1;
    let mut v = 1u32;
    for step in 1..=order {
        v = clmul_mod(v, 0b10, poly, bits);
        if v == 1 {
            return step == order;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_polys_have_primitive_x() {
        assert!(x_is_primitive(PRIMITIVE_POLY_4, 4));
        assert!(x_is_primitive(PRIMITIVE_POLY_8, 8));
        assert!(x_is_primitive(PRIMITIVE_POLY_16, 16));
    }

    #[test]
    fn non_primitive_poly_detected() {
        // x^4 + x^3 + x^2 + x + 1 is irreducible but NOT primitive: x has
        // order 5, not 15.
        assert!(!x_is_primitive(0b11111, 4));
    }

    #[test]
    fn clmul_small_cases() {
        // In GF(2^4) with x^4 + x + 1: x * x^3 = x^4 = x + 1 = 0b0011.
        assert_eq!(clmul_mod(0b0010, 0b1000, PRIMITIVE_POLY_4, 4), 0b0011);
        // 1 is the multiplicative identity.
        for a in 0..16 {
            assert_eq!(clmul_mod(a, 1, PRIMITIVE_POLY_4, 4), a);
        }
        // 0 annihilates.
        for a in 0..16 {
            assert_eq!(clmul_mod(a, 0, PRIMITIVE_POLY_4, 4), 0);
        }
    }

    #[test]
    fn clmul_commutes_gf16_exhaustive() {
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(
                    clmul_mod(a, b, PRIMITIVE_POLY_4, 4),
                    clmul_mod(b, a, PRIMITIVE_POLY_4, 4)
                );
            }
        }
    }
}
