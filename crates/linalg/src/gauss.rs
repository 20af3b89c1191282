//! Gaussian elimination: rank, inverse, solving, null spaces.

use xorbas_gf::Field;

use crate::Matrix;

impl<F: Field> Matrix<F> {
    /// Reduces a copy of `self` to *reduced row echelon form*.
    ///
    /// Returns the reduced matrix and the pivot column of each of the
    /// first `rank` rows.
    pub fn rref(&self) -> (Self, Vec<usize>) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut row = 0;
        for col in 0..m.cols() {
            if row == m.rows() {
                break;
            }
            let Some(pivot_row) = (row..m.rows()).find(|&r| !m[(r, col)].is_zero()) else {
                continue;
            };
            m.swap_rows(row, pivot_row);
            // The pivot was selected nonzero just above.
            let Some(inv) = m[(row, col)].inv() else {
                debug_assert!(false, "pivot is nonzero");
                continue;
            };
            m.scale_row(row, inv);
            for r in 0..m.rows() {
                if r != row && !m[(r, col)].is_zero() {
                    let c = m[(r, col)];
                    m.add_scaled_row(r, row, c); // char 2: add == subtract
                }
            }
            pivots.push(col);
            row += 1;
        }
        (m, pivots)
    }

    /// The rank of the matrix.
    pub fn rank(&self) -> usize {
        self.rref().1.len()
    }

    /// The inverse, or `None` if the matrix is singular or non-square.
    pub fn invert(&self) -> Option<Self> {
        if self.rows() != self.cols() {
            return None;
        }
        let n = self.rows();
        let (reduced, pivots) = self.hcat(&Self::identity(n)).rref();
        if pivots.len() < n || pivots[..n] != (0..n).collect::<Vec<_>>()[..] {
            return None;
        }
        Some(reduced.select_columns(&(n..2 * n).collect::<Vec<_>>()))
    }

    /// Solves `self * x = b` for a single right-hand-side vector.
    ///
    /// Returns `None` when the system is inconsistent or the solution is
    /// not unique (rank-deficient square / underdetermined systems).
    pub fn solve(&self, b: &[F]) -> Option<Vec<F>> {
        assert_eq!(b.len(), self.rows(), "rhs length mismatch");
        let rhs = Matrix::from_fn(self.rows(), 1, |r, _| b[r]);
        let (reduced, pivots) = self.hcat(&rhs).rref();
        // Unique solution requires a pivot in every variable column.
        if pivots.iter().take_while(|&&p| p < self.cols()).count() != self.cols() {
            return None;
        }
        // Inconsistent if any pivot landed in the RHS column.
        if pivots.iter().any(|&p| p >= self.cols()) {
            return None;
        }
        Some(
            (0..self.cols())
                .map(|i| reduced[(i, self.cols())])
                .collect(),
        )
    }

    /// A basis of the right null space, returned as the rows of a
    /// `(cols - rank) x cols` matrix `N` with `self * Nᵀ = 0`.
    ///
    /// This is exactly how a generator matrix is obtained from a
    /// parity-check matrix: `G = H.right_null_space()` (Appendix D).
    pub fn right_null_space(&self) -> Self {
        let (reduced, pivots) = self.rref();
        let free: Vec<usize> = (0..self.cols()).filter(|c| !pivots.contains(c)).collect();
        let mut basis = Matrix::zero(free.len(), self.cols());
        for (i, &fc) in free.iter().enumerate() {
            basis[(i, fc)] = F::ONE;
            for (prow, &pcol) in pivots.iter().enumerate() {
                // x_pcol = -sum(reduced[prow, free] * x_free); char 2 drops the sign.
                basis[(i, pcol)] = reduced[(prow, fc)];
            }
        }
        basis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xorbas_gf::{Field, Gf256};

    fn m(rows: Vec<Vec<u32>>) -> Matrix<Gf256> {
        Matrix::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(Gf256::from_index).collect())
                .collect(),
        )
    }

    #[test]
    fn rref_of_identity_is_identity() {
        let i = Matrix::<Gf256>::identity(4);
        let (r, pivots) = i.rref();
        assert_eq!(r, i);
        assert_eq!(pivots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rank_detects_dependent_rows() {
        // Row 2 = row0 + row1 (XOR of indices).
        let a = m(vec![vec![1, 2, 3], vec![4, 5, 6], vec![5, 7, 5]]);
        assert_eq!(a.rank(), 2);
    }

    #[test]
    fn invert_round_trip() {
        let a = m(vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 9, 2]]);
        let inv = a.invert().expect("invertible");
        assert_eq!(a.mul(&inv), Matrix::identity(3));
        assert_eq!(inv.mul(&a), Matrix::identity(3));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let a = m(vec![vec![1, 2], vec![1, 2]]);
        assert!(a.invert().is_none());
    }

    #[test]
    fn solve_recovers_known_vector() {
        let a = m(vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 9, 2]]);
        let x: Vec<Gf256> = [11u32, 12, 13]
            .iter()
            .map(|&v| Gf256::from_index(v))
            .collect();
        let b = a.mul_vec(&x);
        assert_eq!(a.solve(&b), Some(x));
    }

    #[test]
    fn solve_rejects_singular_systems() {
        let a = m(vec![vec![1, 2], vec![1, 2]]);
        // Consistent but underdetermined.
        assert_eq!(a.solve(&[Gf256::from_index(3), Gf256::from_index(3)]), None);
        // Inconsistent.
        assert_eq!(a.solve(&[Gf256::from_index(3), Gf256::from_index(4)]), None);
    }

    #[test]
    fn null_space_is_annihilated_and_has_full_rank() {
        let h = crate::special::vandermonde::<Gf256>(4, 14);
        let g = h.right_null_space();
        assert_eq!(g.rows(), 10);
        assert!(h.mul(&g.transpose()).is_zero());
        assert_eq!(g.rank(), 10);
    }

    #[test]
    fn null_space_of_full_rank_square_matrix_is_empty() {
        let a = m(vec![vec![1, 0], vec![0, 1]]);
        assert_eq!(a.right_null_space().rows(), 0);
    }

    fn arb_matrix(n: usize) -> impl Strategy<Value = Matrix<Gf256>> {
        proptest::collection::vec(0u32..256, n * n)
            .prop_map(move |vals| Matrix::from_fn(n, n, |r, c| Gf256::from_index(vals[r * n + c])))
    }

    proptest! {
        #[test]
        fn inverse_composes_to_identity(a in arb_matrix(4)) {
            if let Some(inv) = a.invert() {
                prop_assert_eq!(a.mul(&inv), Matrix::identity(4));
            } else {
                prop_assert!(a.rank() < 4);
            }
        }

        #[test]
        fn null_space_dimension_is_cols_minus_rank(a in arb_matrix(4)) {
            let ns = a.right_null_space();
            prop_assert_eq!(ns.rows(), 4 - a.rank());
            prop_assert!(a.mul(&ns.transpose()).is_zero());
        }

        #[test]
        fn rref_preserves_row_space_rank(a in arb_matrix(4)) {
            let (r, pivots) = a.rref();
            prop_assert_eq!(r.rank(), pivots.len());
            prop_assert_eq!(a.rank(), pivots.len());
        }
    }
}
