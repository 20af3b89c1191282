//! Structured matrix constructors used by the code constructions.

use xorbas_gf::Field;

use crate::Matrix;

/// The Vandermonde-type parity-check matrix of Appendix D:
/// `[H]_{i,j} = α^{(i-1)(j-1)}` (1-based), i.e. row `i`, column `j`
/// (0-based) holds `α^{i·j}` where `α` is the field's primitive element.
///
/// Any `rows × rows` submatrix (column selection) is itself a Vandermonde
/// matrix on distinct points `α^{j}` and therefore invertible, provided
/// `cols ≤ ORDER - 1`. Panics otherwise.
pub fn vandermonde<F: Field>(rows: usize, cols: usize) -> Matrix<F> {
    assert!(
        (cols as u64) < u64::from(F::ORDER),
        "blocklength {cols} exceeds the number of distinct evaluation points"
    );
    Matrix::from_fn(rows, cols, |r, c| F::exp((r as u32) * (c as u32)))
}

/// Transforms a `k × n` full-row-rank generator matrix into *systematic*
/// form: `A · G = [I_k | P]` where `A = (G_{:,0..k})^{-1}`.
///
/// Returns `None` if the first `k` columns are singular. Row
/// transformations preserve the code (the set of codewords), its
/// distance, and its locality — and also preserve the Appendix-D
/// alignment property `Σ_j g_j = 0`, since `A · (G · 1ᵀ) = 0`.
pub fn systematize<F: Field>(g: &Matrix<F>) -> Option<Matrix<F>> {
    let k = g.rows();
    let lead = g.select_columns(&(0..k).collect::<Vec<_>>());
    let a = lead.invert()?;
    Some(a.mul(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbas_gf::{Field, Gf16, Gf256};

    #[test]
    fn vandermonde_first_row_is_all_ones() {
        let h = vandermonde::<Gf256>(4, 14);
        assert!(h.row(0).iter().all(|&x| x == Gf256::ONE));
    }

    #[test]
    fn vandermonde_every_square_submatrix_is_invertible() {
        // Exhaustive over all 4-column selections of the RS(10,4) H.
        let h = vandermonde::<Gf256>(4, 14);
        let n = h.cols();
        let mut count = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    for d in (c + 1)..n {
                        let sub = h.select_columns(&[a, b, c, d]);
                        assert!(
                            sub.invert().is_some(),
                            "singular submatrix at columns {a},{b},{c},{d}"
                        );
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(count, 1001); // C(14,4)
    }

    #[test]
    #[should_panic(expected = "exceeds the number of distinct evaluation points")]
    fn vandermonde_rejects_oversized_blocklength() {
        let _ = vandermonde::<Gf16>(2, 16);
    }

    #[test]
    fn systematize_yields_identity_prefix() {
        let h = vandermonde::<Gf256>(4, 14);
        let g = h.right_null_space();
        let gs = systematize(&g).expect("leading columns invertible");
        for i in 0..10 {
            for j in 0..10 {
                let expect = if i == j { Gf256::ONE } else { Gf256::ZERO };
                assert_eq!(gs[(i, j)], expect);
            }
        }
        // Still a generator of the same code: G_s H^T = 0.
        assert!(gs.mul(&h.transpose()).is_zero());
    }

    #[test]
    fn systematize_preserves_all_ones_alignment() {
        // Appendix D: the all-ones vector is in H's row space, so every
        // generator (including the systematic one) has columns XOR-ing to 0.
        let h = vandermonde::<Gf256>(4, 14);
        let gs = systematize(&h.right_null_space()).unwrap();
        for r in 0..gs.rows() {
            let sum: Gf256 = gs.row(r).iter().copied().sum();
            assert!(sum.is_zero(), "row {r} does not align");
        }
    }
}
