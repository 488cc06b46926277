//! A small dense row-major matrix of `f64`, sufficient for the paper's
//! batch-processing feed-forward networks.

use crate::error::NeuralError;
use crate::gemm::{self, Parallelism};
use std::fmt;
use jarvis_stdkit::{json_struct};

/// Dense row-major matrix of `f64`.
///
/// All binary operations validate shapes and return
/// [`NeuralError::DimensionMismatch`] rather than panicking, so training code
/// can propagate shape bugs as errors.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

json_struct!(Matrix { rows, cols, data });

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadVectorLength`] when `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, NeuralError> {
        if data.len() != rows * cols {
            return Err(NeuralError::BadVectorLength {
                what: "matrix data",
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build a `1 × n` row matrix from a slice.
    #[must_use]
    pub fn row_from_slice(v: &[f64]) -> Self {
        Matrix { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    /// Stack equal-length rows into a `len × n` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadBatch`] for an empty or ragged batch.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NeuralError> {
        let first = rows.first().ok_or(NeuralError::BadBatch { reason: "empty batch" })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(NeuralError::BadBatch { reason: "ragged rows" });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range (matrix internals are index-checked at the
    /// edges; hot loops use the raw data slice).
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The row-major data buffer, handed back for reuse.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Copy every row out as its own vector.
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows).map(|r| self.row(r).to_vec()).collect()
    }

    /// Matrix product `self · rhs` on the blocked single-threaded kernel.
    ///
    /// Equivalent to [`Matrix::matmul_with`] at [`Parallelism::Single`];
    /// bit-identical to [`Matrix::matmul_naive`] for every input.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] unless
    /// `self.cols == rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, NeuralError> {
        self.matmul_with(rhs, Parallelism::Single)
    }

    /// Matrix product `self · rhs` on the blocked kernel with the given
    /// worker fan-out. Results are bit-identical at every thread count (see
    /// the [`gemm`](crate::gemm) module docs for the determinism argument).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] unless
    /// `self.cols == rhs.rows`.
    pub fn matmul_with(&self, rhs: &Matrix, par: Parallelism) -> Result<Matrix, NeuralError> {
        if self.cols != rhs.rows {
            return Err(NeuralError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm::matmul(&self.data, &rhs.data, &mut out.data, self.rows, self.cols, rhs.cols, par);
        Ok(out)
    }

    /// Reference `self · rhs`: the naive triple loop the blocked kernels are
    /// tested against. Kept for the kernel-equivalence property suite and
    /// the `gemm` benchmark; prefer [`Matrix::matmul`] everywhere else.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] unless
    /// `self.cols == rhs.rows`.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix, NeuralError> {
        if self.cols != rhs.rows {
            return Err(NeuralError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm::matmul_naive(&self.data, &rhs.data, &mut out.data, self.cols, rhs.cols);
        Ok(out)
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose, on
    /// the blocked single-threaded kernel.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] unless
    /// `self.cols == rhs.cols`.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Result<Matrix, NeuralError> {
        self.matmul_transpose_with(rhs, Parallelism::Single)
    }

    /// Matrix product `self · rhsᵀ` on the blocked kernel with the given
    /// worker fan-out; bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] unless
    /// `self.cols == rhs.cols`.
    pub fn matmul_transpose_with(
        &self,
        rhs: &Matrix,
        par: Parallelism,
    ) -> Result<Matrix, NeuralError> {
        if self.cols != rhs.cols {
            return Err(NeuralError::DimensionMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        gemm::matmul_transpose(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.rows,
            par,
        );
        Ok(out)
    }

    /// Reference `self · rhsᵀ`: one serial dot product per output element,
    /// the semantic definition the blocked kernel must match bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] unless
    /// `self.cols == rhs.cols`.
    pub fn matmul_transpose_naive(&self, rhs: &Matrix) -> Result<Matrix, NeuralError> {
        if self.cols != rhs.cols {
            return Err(NeuralError::DimensionMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        gemm::matmul_transpose_naive(&self.data, &rhs.data, &mut out.data, self.cols, rhs.rows);
        Ok(out)
    }

    /// The transpose `selfᵀ`.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, NeuralError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, NeuralError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::DimensionMismatch`] on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, NeuralError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// Multiply every element by a scalar.
    #[must_use]
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Apply `f` to every element.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Add a row vector to every row (bias broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::BadVectorLength`] unless `bias.len() == cols`.
    pub fn add_row_broadcast(&self, bias: &[f64]) -> Result<Matrix, NeuralError> {
        if bias.len() != self.cols {
            return Err(NeuralError::BadVectorLength {
                what: "bias",
                expected: self.cols,
                got: bias.len(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Column means (e.g. mean gradient over a batch).
    #[must_use]
    pub fn col_mean(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for r in 0..self.rows {
            for (m, &v) in means.iter_mut().zip(self.row(r)) {
                *m += v;
            }
        }
        // float-ok: row counts are far below 2^53, the cast is exact
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Mean of all elements.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        // float-ok: element counts are far below 2^53, the cast is exact
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, NeuralError> {
        if self.shape() != rhs.shape() {
            return Err(NeuralError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        })
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(a.shape(), (2, 3));
        assert!(a.as_slice().iter().all(|&v| v == 0.0));
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn from_fn_layout() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.get(1, 2), 12.0);
        assert_eq!(a.row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn from_rows_validates() {
        let r1 = [1.0, 2.0];
        let r2 = [3.0, 4.0];
        let a = Matrix::from_rows(&[&r1, &r2]).unwrap();
        assert_eq!(a.shape(), (2, 2));
        let ragged = [5.0];
        assert!(Matrix::from_rows(&[&r1, &ragged]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn matmul_correctness() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn matmul_propagates_non_finite_inputs() {
        // Regression: the old kernel skipped `a == 0.0` terms, silently
        // turning `0 · ∞` (NaN by IEEE 754) into 0. All four kernel entry
        // points must propagate NaN/inf identically now.
        let a = m(1, 2, &[0.0, 1.0]);
        let b = m(2, 2, &[f64::INFINITY, f64::NEG_INFINITY, 0.0, 3.0]);
        let fast = a.matmul(&b).unwrap();
        assert!(fast.get(0, 0).is_nan(), "0*inf must contribute NaN");
        assert!(fast.get(0, 1).is_nan(), "0*-inf must contribute NaN");
        let naive = a.matmul_naive(&b).unwrap();
        assert_eq!(
            fast.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            naive.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        // Same through the transpose pair: a · (bᵀ)ᵀ with an inf in b.
        let bt = b.transpose();
        let fast_t = a.matmul_transpose(&bt).unwrap();
        let naive_t = a.matmul_transpose_naive(&bt).unwrap();
        assert!(fast_t.get(0, 0).is_nan());
        assert_eq!(
            fast_t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            naive_t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        // NaN inputs stay NaN even against a zero row.
        let nan_in = m(1, 1, &[f64::NAN]);
        let zero = m(1, 3, &[0.0, 0.0, 0.0]);
        assert!(nan_in.matmul(&zero).unwrap().as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &[1.0, 0.0, 2.0, 0.5, 1.0, 0.0, 3.0, 2.0, 1.0, 0.0, 0.0, 1.0]);
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_round_trip() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn bias_broadcast() {
        let a = Matrix::zeros(2, 3);
        let out = a.add_row_broadcast(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
        assert!(a.add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn reductions() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.col_mean(), vec![2.0, 3.0]);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(Matrix::zeros(0, 3).col_mean(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Matrix::zeros(1, 1).get(0, 1);
    }

    #[test]
    fn serde_round_trip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        use jarvis_stdkit::json::{FromJson, ToJson};
        let json = a.to_json();
        let back = Matrix::from_json(&json).unwrap();
        assert_eq!(a, back);
    }
}
