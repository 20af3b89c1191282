//! The dense row-major [`Matrix`] type.

use std::fmt;

use xorbas_gf::Field;

/// A dense matrix over a binary extension field, stored row-major.
///
/// The dimensions involved in erasure coding are tiny (k, n ≤ a few
/// hundred), so the implementation favours clarity over blocking or
/// SIMD; the payload-streaming hot path lives in `xorbas_gf::slice_ops`,
/// not here.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// An all-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![F::ZERO; rows * cols],
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = F::ONE;
        }
        m
    }

    /// Builds a matrix from a generating function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from rows; panics if rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<F>>) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == ncols),
            "all rows must have the same length"
        );
        let data = rows.into_iter().flatten().collect();
        Self {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|x| x.is_zero())
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[F] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [F] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Extracts column `c` as a vector.
    pub fn column(&self, c: usize) -> Vec<F> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix multiplication `self * rhs`; panics on dimension mismatch.
    pub fn mul(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix multiply");
        let mut out = Self::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for (l, &a) in self.row(i).iter().enumerate() {
                if a.is_zero() {
                    continue;
                }
                let rhs_row = rhs.row(l);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`; panics on dimension mismatch.
    pub fn mul_vec(&self, v: &[F]) -> Vec<F> {
        assert_eq!(
            self.cols,
            v.len(),
            "dimension mismatch in matrix-vector multiply"
        );
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Horizontal concatenation `[self | rhs]`; panics if row counts differ.
    pub fn hcat(&self, rhs: &Self) -> Self {
        assert_eq!(self.rows, rhs.rows, "row count mismatch in hcat");
        Self::from_fn(self.rows, self.cols + rhs.cols, |r, c| {
            if c < self.cols {
                self[(r, c)]
            } else {
                rhs[(r, c - self.cols)]
            }
        })
    }

    /// A new matrix keeping only the given columns, in the given order.
    pub fn select_columns(&self, cols: &[usize]) -> Self {
        Self::from_fn(self.rows, cols.len(), |r, c| self[(r, cols[c])])
    }

    /// Appends a column to the right.
    pub fn push_column(&mut self, col: &[F]) {
        assert_eq!(col.len(), self.rows, "column length mismatch");
        let mut data = Vec::with_capacity(self.rows * (self.cols + 1));
        for (r, &value) in col.iter().enumerate() {
            data.extend_from_slice(self.row(r));
            data.push(value);
        }
        self.cols += 1;
        self.data = data;
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.cols);
        head[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Multiplies row `r` by `c` in place.
    pub fn scale_row(&mut self, r: usize, c: F) {
        for x in self.row_mut(r) {
            *x *= c;
        }
    }

    /// Adds `c * row[src]` into `row[dst]` in place.
    pub fn add_scaled_row(&mut self, dst: usize, src: usize, c: F) {
        assert_ne!(dst, src, "source and destination rows must differ");
        if c.is_zero() {
            return;
        }
        let cols = self.cols;
        let (lo, hi) = (dst.min(src), dst.max(src));
        let (head, tail) = self.data.split_at_mut(hi * cols);
        let (first, second) = (&mut head[lo * cols..(lo + 1) * cols], &mut tail[..cols]);
        let (dst_row, src_row): (&mut [F], &[F]) = if dst < src {
            (first, second)
        } else {
            (second, first)
        };
        for (d, &s) in dst_row.iter_mut().zip(src_row.iter()) {
            *d += c * s;
        }
    }
}

impl<F: Field> std::ops::Index<(usize, usize)> for Matrix<F> {
    type Output = F;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &F {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<F: Field> std::ops::IndexMut<(usize, usize)> for Matrix<F> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut F {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl<F: Field> fmt::Debug for Matrix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbas_gf::Gf256;

    fn m(rows: Vec<Vec<u32>>) -> Matrix<Gf256> {
        Matrix::from_rows(
            rows.into_iter()
                .map(|r| r.into_iter().map(Gf256::from_index).collect())
                .collect(),
        )
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = m(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        let i3 = Matrix::<Gf256>::identity(3);
        let i2 = Matrix::<Gf256>::identity(2);
        assert_eq!(a.mul(&i3), a);
        assert_eq!(i2.mul(&a), a);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a = m(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn mul_vec_agrees_with_mul() {
        let a = m(vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        let v = vec![Gf256::from_index(7), Gf256::from_index(11)];
        let as_matrix = a.mul(&Matrix::from_rows(v.iter().map(|&x| vec![x]).collect()));
        let as_vec = a.mul_vec(&v);
        assert_eq!(as_matrix.column(0), as_vec);
    }

    #[test]
    fn hcat_shape_and_content() {
        let a = m(vec![vec![1], vec![2]]);
        let b = m(vec![vec![3], vec![4]]);
        let h = a.hcat(&b);
        assert_eq!((h.rows(), h.cols()), (2, 2));
        assert_eq!(h[(1, 1)], Gf256::from_index(4));
    }

    #[test]
    fn select_columns_reorders() {
        let a = m(vec![vec![1, 2, 3]]);
        let s = a.select_columns(&[2, 0]);
        assert_eq!(s.row(0), &[Gf256::from_index(3), Gf256::from_index(1)]);
    }

    #[test]
    fn row_ops_match_manual_expectation() {
        let mut a = m(vec![vec![1, 2], vec![3, 4]]);
        a.swap_rows(0, 1);
        assert_eq!(a.row(0), m(vec![vec![3, 4]]).row(0));
        a.add_scaled_row(0, 1, Gf256::ONE); // row0 += row1 (XOR)
        assert_eq!(a[(0, 0)], Gf256::from_index(1 ^ 3));
        a.scale_row(1, Gf256::ZERO);
        assert!(a.row(1).iter().all(|x| x.is_zero()));
    }

    #[test]
    fn push_column_appends() {
        let mut a = m(vec![vec![1], vec![2]]);
        a.push_column(&[Gf256::from_index(5), Gf256::from_index(6)]);
        assert_eq!(a.cols(), 2);
        assert_eq!(a[(1, 1)], Gf256::from_index(6));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_dimension_mismatch_panics() {
        let a = m(vec![vec![1, 2]]);
        let b = m(vec![vec![1, 2]]);
        let _ = a.mul(&b);
    }
}
