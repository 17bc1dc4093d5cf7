//! Row-major dense `f64` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::kernel;
use crate::parallel;
use crate::vector;
use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// Storage is a flat `Vec<f64>`, easy to audit. Products ([`Matrix::matmul`],
/// [`Matrix::matmul_nt`], [`Matrix::matmul_tn`], [`Matrix::gram`]) route
/// through the packed, cache-blocked [`crate::kernel`] layer once the shape
/// amortizes panel packing, and split their *output rows* across threads once
/// the operation is large enough to amortize the spawn cost; because every
/// path accumulates each output element in the same strictly-ascending-`k`
/// order, results are bitwise independent of both the thread count (see
/// [`crate::parallel`]) and the packed-vs-reference routing.
///
/// Indexing uses `(row, col)` tuples and panics out-of-bounds, like slice
/// indexing. Shape-dependent operations (`matmul`, solves, …) return
/// [`LinalgError`] on mismatch instead.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Create a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Create a matrix from a flat row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Create a square diagonal matrix from a slice of diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Build a matrix whose columns are the given equal-length vectors.
    ///
    /// # Panics
    /// Panics if the columns have inconsistent lengths.
    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        if cols.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let rows = cols[0].len();
        Matrix::from_fn(rows, cols.len(), |i, j| {
            assert_eq!(cols[j].len(), rows, "from_columns: ragged columns");
            cols[j][i]
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix has zero rows or zero columns.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow two distinct rows mutably at once — the unit a plane
    /// rotation of the symmetric eigen-solver operates on
    /// ([`crate::vector::rotate_pair`] rotates the pair in place, walking
    /// both rows contiguously).
    ///
    /// # Panics
    /// Panics unless `i < j < rows`.
    pub fn row_pair_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert!(
            i < j && j < self.rows,
            "row_pair_mut: need i < j < rows, got ({i}, {j}) of {}",
            self.rows
        );
        let (head, tail) = self.data.split_at_mut(j * self.cols);
        (
            &mut head[i * self.cols..(i + 1) * self.cols],
            &mut tail[..self.cols],
        )
    }

    /// Copy column `j` into a new vector.
    ///
    /// # Panics
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrite column `j` with `v`.
    ///
    /// # Panics
    /// Panics if `j >= cols` or `v.len() != rows`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        assert_eq!(v.len(), self.rows, "set_col: wrong length");
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// Overwrite row `i` with `v`.
    ///
    /// # Panics
    /// Panics if `i >= rows` or `v.len() != cols`.
    pub fn set_row(&mut self, i: usize, v: &[f64]) {
        assert_eq!(v.len(), self.cols, "set_row: wrong length");
        self.row_mut(i).copy_from_slice(v);
    }

    /// Flat row-major view of the underlying buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major storage — for the [`crate::kernel`] layer,
    /// which writes GEMM output blocks in place.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * rhs`.
    ///
    /// Routed through the packed [`crate::kernel`] layer on its fused
    /// product tile: each element is bitwise the [`f64::mul_add`]
    /// ascending-`k` loop. Row-parallel on top, so results are
    /// independent of thread count and shape routing alike. No term is
    /// ever skipped: `0 × NaN` columns poison the product exactly as
    /// IEEE arithmetic dictates.
    ///
    /// Returns an error if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        kernel::matmul::<true>(self, rhs)
    }

    /// Matrix product with a transposed right-hand side: `self * rhsᵀ`
    /// (`rhs` given as `n × k` with `k = self.cols`).
    ///
    /// No transposed copy is materialized: the kernel layer's packing
    /// (or, below the packing crossover, a contiguous per-element dot)
    /// absorbs the orientation. Entry `(i, j)` accumulates
    /// `self[i][k] · rhs[j][k]` over ascending `k` with one fused
    /// rounding per term. Row-parallel like [`Matrix::matmul`].
    ///
    /// Returns an error if `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix> {
        kernel::matmul_nt::<true>(self, rhs)
    }

    /// Matrix product with a transposed left-hand side: `selfᵀ * rhs`
    /// (`self` given as `k × m`, `rhs` as `k × n`).
    ///
    /// The subspace-iteration projections (`QᵀZ`, `PᵀD`) are exactly
    /// this shape; computing them here avoids materializing the
    /// transpose while accumulating each element over ascending `k` —
    /// bitwise what `self.transpose().matmul(rhs)` produces.
    /// Row-parallel over the `m` output rows like [`Matrix::matmul`].
    ///
    /// Returns an error if `self.rows != rhs.rows`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix> {
        kernel::matmul_tn::<true>(self, rhs)
    }

    /// Squared residual norm of every row after subtracting `mean` and
    /// projecting off the orthonormal `basis` (`cols × r`):
    /// `out[i] = ‖z − P(Pᵀz)‖²` with `z = row(i) − mean`.
    ///
    /// This is the detection hot path of the subspace method (the SPE of
    /// every timestep), fused into a single row-parallel pass: each
    /// worker centers a small stack of rows into a cache-resident
    /// scratch block, runs one packed [`crate::kernel`] GEMM for the
    /// coefficient stack `C = Z·P`, and folds the modeled reconstruction
    /// and the residual norm in a single epilogue sweep — the centered
    /// rows never touch main memory. Every reduction keeps the exact
    /// per-vector operation order, so values are **bitwise identical**
    /// to the exact route ([`Matrix::matvec_t`] → [`Matrix::matvec`] →
    /// subtract → norm per row), the bitwise contract the `netanom-core`
    /// batch API documents. To keep that equivalence, the internal
    /// coefficient GEMM runs the kernel's unfused (mul-then-add)
    /// scoring tile, not the fused product tile: the per-vector route
    /// is plain mul-then-add arithmetic.
    ///
    /// Returns an error if `mean.len() != cols` or
    /// `basis.rows() != cols`.
    pub fn centered_residual_norms_sq(&self, mean: &[f64], basis: &Matrix) -> Result<Vec<f64>> {
        if mean.len() != self.cols || basis.rows() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "centered_residual_norms_sq",
                lhs: self.shape(),
                rhs: basis.shape(),
            });
        }
        let r = basis.cols();
        let m = self.cols;
        let mut out = vec![0.0_f64; self.rows];
        if self.rows == 0 {
            return Ok(out);
        }
        let workers = parallel::workers_for(self.rows * m * (2 * r + 3), self.rows);
        let boundaries = parallel::balanced_boundaries(self.rows, workers, |_| 1.0);
        let bdata = basis.as_slice();
        let basis_op = kernel::Operand::normal(basis);
        parallel::for_row_blocks(&mut out, 1, &boundaries, |first_row, block| {
            // Stack height: tall enough that the coefficient GEMM can
            // take the packed path, short enough that the centered
            // stack stays cache-resident (32 × 2048 links = 512 KiB).
            const SPE_STACK: usize = 32;
            let stack = SPE_STACK.min(block.len());
            let mut zbuf = vec![0.0_f64; stack * m];
            let mut cbuf = vec![0.0_f64; stack * r];
            let mut done = 0;
            while done < block.len() {
                let take = stack.min(block.len() - done);
                for li in 0..take {
                    let yrow = self.row(first_row + done + li);
                    let dst = &mut zbuf[li * m..(li + 1) * m];
                    for ((z, &y), &mu) in dst.iter_mut().zip(yrow).zip(mean) {
                        *z = y - mu;
                    }
                }
                if r > 0 {
                    let cblock = &mut cbuf[..take * r];
                    cblock.fill(0.0);
                    if kernel::use_packed(take, m, r) {
                        let z_op =
                            kernel::Operand::N(kernel::View::new(&zbuf[..take * m], take, m));
                        kernel::gemm_block::<false>(&z_op, &basis_op, 0, cblock, r, m, false);
                    } else if r <= 8 {
                        // Below the packed crossover a const-width
                        // coefficient pass beats the reference GEMM's
                        // dynamic-width inner loop; same ascending-k
                        // order, so the routing stays unobservable.
                        for li in 0..take {
                            let zrow = &zbuf[li * m..(li + 1) * m];
                            let crow = &mut cblock[li * r..(li + 1) * r];
                            match r {
                                1 => spe_coeffs::<1>(zrow, bdata, crow),
                                2 => spe_coeffs::<2>(zrow, bdata, crow),
                                3 => spe_coeffs::<3>(zrow, bdata, crow),
                                4 => spe_coeffs::<4>(zrow, bdata, crow),
                                5 => spe_coeffs::<5>(zrow, bdata, crow),
                                6 => spe_coeffs::<6>(zrow, bdata, crow),
                                7 => spe_coeffs::<7>(zrow, bdata, crow),
                                _ => spe_coeffs::<8>(zrow, bdata, crow),
                            }
                        }
                    } else {
                        let z_op =
                            kernel::Operand::N(kernel::View::new(&zbuf[..take * m], take, m));
                        kernel::gemm_reference::<false>(&z_op, &basis_op, 0, cblock, r, m, false);
                    }
                }
                // Epilogue over row *pairs*: each row's reductions keep
                // their exact ascending order (the bitwise contract),
                // but interleaving two independent rows gives the
                // superscalar core a second accumulator chain to hide
                // the serial-add latency behind.
                let mut li = 0;
                while li + 1 < take {
                    let (zpair, cpair) = (&zbuf[li * m..(li + 2) * m], &cbuf[li * r..(li + 2) * r]);
                    let (s0, s1) = match r {
                        0 => (vector::norm_sq(&zpair[..m]), vector::norm_sq(&zpair[m..])),
                        1 => spe_epilogue_pair::<1>(zpair, bdata, cpair),
                        2 => spe_epilogue_pair::<2>(zpair, bdata, cpair),
                        3 => spe_epilogue_pair::<3>(zpair, bdata, cpair),
                        4 => spe_epilogue_pair::<4>(zpair, bdata, cpair),
                        5 => spe_epilogue_pair::<5>(zpair, bdata, cpair),
                        6 => spe_epilogue_pair::<6>(zpair, bdata, cpair),
                        7 => spe_epilogue_pair::<7>(zpair, bdata, cpair),
                        8 => spe_epilogue_pair::<8>(zpair, bdata, cpair),
                        _ => (
                            spe_epilogue_dyn(&zpair[..m], bdata, &cpair[..r]),
                            spe_epilogue_dyn(&zpair[m..], bdata, &cpair[r..]),
                        ),
                    };
                    block[done + li] = s0;
                    block[done + li + 1] = s1;
                    li += 2;
                }
                if li < take {
                    let zrow = &zbuf[li * m..(li + 1) * m];
                    let crow = &cbuf[li * r..(li + 1) * r];
                    block[done + li] = match r {
                        0 => vector::norm_sq(zrow),
                        1 => spe_epilogue::<1>(zrow, bdata, crow),
                        2 => spe_epilogue::<2>(zrow, bdata, crow),
                        3 => spe_epilogue::<3>(zrow, bdata, crow),
                        4 => spe_epilogue::<4>(zrow, bdata, crow),
                        5 => spe_epilogue::<5>(zrow, bdata, crow),
                        6 => spe_epilogue::<6>(zrow, bdata, crow),
                        7 => spe_epilogue::<7>(zrow, bdata, crow),
                        8 => spe_epilogue::<8>(zrow, bdata, crow),
                        _ => spe_epilogue_dyn(zrow, bdata, crow),
                    };
                }
                done += take;
            }
        });
        Ok(out)
    }

    /// Squared Euclidean norm of every row (length `rows`).
    ///
    /// Row `i` equals `vector::norm_sq(self.row(i))` exactly — this is
    /// the batched form of the SPE statistic.
    pub fn row_norms_sq(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| vector::norm_sq(self.row(i)))
            .collect()
    }

    /// Project every row of `self` onto the column space of the
    /// orthonormal `basis` (`cols × r`), returning `(modeled, residual)`
    /// with `modeled = (self · basis) · basisᵀ` and
    /// `residual = self − modeled`.
    ///
    /// This is the batched residual-projection kernel behind the subspace
    /// method: for each row `z`, `modeled = P(Pᵀz)` and `residual` is the
    /// anomalous-subspace part — two packed GEMMs (`coeffs = self · P`,
    /// `modeled = coeffs · Pᵀ`) and an elementwise subtraction, all
    /// riding the [`crate::kernel`] layer. Each output value accumulates
    /// in exactly the per-vector operation order (coefficient `k` sums
    /// `z_j·P[j][k]` over ascending `j`; modeled entry `l` sums
    /// `c_k·P[l][k]` over ascending `k`), so results are bitwise
    /// identical to [`Matrix::matvec_t`] + [`Matrix::matvec`] per row,
    /// at a fraction of the cost. Like the fused SPE kernel, both GEMMs
    /// run the unfused scoring tile: this is a *scoring* kernel, and
    /// the per-vector equivalence is plain mul-then-add arithmetic.
    ///
    /// Returns an error if `basis.rows() != self.cols`.
    pub fn project_rows_split(&self, basis: &Matrix) -> Result<(Matrix, Matrix)> {
        if basis.rows() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "project_rows_split",
                lhs: self.shape(),
                rhs: basis.shape(),
            });
        }
        let coeffs = kernel::matmul::<false>(self, basis)?;
        // `coeffs · Pᵀ` via the row-major N·N kernel on the materialized
        // transpose: the shared dimension r is typically tiny (< one
        // k-tile), and the N·N reference walks long contiguous rows
        // where the N·T per-element dot would grind through r-length
        // strides. Same ascending-k order either way.
        let modeled = kernel::matmul::<false>(&coeffs, &basis.transpose())?;
        let residual = self.sub(&modeled)?;
        Ok((modeled, residual))
    }

    /// Matrix–vector product `self * x`.
    ///
    /// Returns an error if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| vector::dot(self.row(i), x))
            .collect())
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// Returns an error if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_t",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            vector::axpy(x[i], self.row(i), &mut out);
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (always square `cols × cols`, symmetric).
    ///
    /// This is the building block for covariance-based PCA: for a
    /// mean-centered data matrix `Y`, `Y.gram() / (t − 1)` is the sample
    /// covariance.
    pub fn gram(&self) -> Matrix {
        // Only the upper triangle is computed (micro-tiles strictly
        // below the global diagonal are skipped inside the kernel), then
        // mirrored — the per-entry operation sequence matches a serial
        // fused (i, a, b) loop nest, so the result is thread-count
        // independent. The fused product tile, like [`Matrix::matmul`].
        kernel::gram::<true>(self)
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// Returns an error if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// Returns an error if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Copy scaled by a constant.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Scale every entry by a constant in place — the same `x · s` per
    /// entry as [`Matrix::scaled`], without the copy.
    pub fn scale_in_place(&mut self, s: f64) {
        vector::scale_in_place(&mut self.data, s);
    }

    /// Per-column arithmetic means (length `cols`).
    pub fn column_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for i in 0..self.rows {
            vector::axpy(1.0, self.row(i), &mut means);
        }
        vector::scale_in_place(&mut means, 1.0 / self.rows as f64);
        means
    }

    /// Per-column sample variances (length `cols`, denominator `rows − 1`).
    ///
    /// Returns zeros when there are fewer than two rows.
    pub fn column_variances(&self) -> Vec<f64> {
        if self.rows < 2 {
            return vec![0.0; self.cols];
        }
        let means = self.column_means();
        let mut vars = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, &m) in means.iter().enumerate() {
                let d = self[(i, j)] - m;
                vars[j] += d * d;
            }
        }
        vector::scale_in_place(&mut vars, 1.0 / (self.rows as f64 - 1.0));
        vars
    }

    /// Subtract each column's mean, returning the centered matrix and the
    /// vector of removed means.
    ///
    /// This is the adjustment the paper applies to the link measurement
    /// matrix `Y` before PCA so that "PCA dimensions capture true variance".
    pub fn mean_centered_columns(&self) -> (Matrix, Vec<f64>) {
        let means = self.column_means();
        let centered = Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] - means[j]);
        (centered, means)
    }

    /// Frobenius norm (Euclidean norm of the flattened matrix).
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm(&self.data)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        vector::norm_inf(&self.data)
    }

    /// Assemble a matrix by concatenating flat row-major segments, each
    /// holding a whole number of `cols`-wide rows.
    ///
    /// This is the materialization path for ring-buffer windows: a
    /// wrapped window is exactly two contiguous segments ([newest-wrap]
    /// after [oldest..end]), and gluing them costs two `memcpy`s instead
    /// of one allocation per row.
    ///
    /// Returns an error if any segment length is not a multiple of
    /// `cols`, or if `cols == 0` with non-empty segments.
    pub fn from_segments(cols: usize, segments: &[&[f64]]) -> Result<Matrix> {
        let total: usize = segments.iter().map(|s| s.len()).sum();
        if cols == 0 {
            return if total == 0 {
                Ok(Matrix::zeros(0, 0))
            } else {
                Err(LinalgError::DimensionMismatch {
                    op: "from_segments",
                    lhs: (0, 0),
                    rhs: (total, 1),
                })
            };
        }
        let mut data = Vec::with_capacity(total);
        for s in segments {
            if s.len() % cols != 0 {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_segments",
                    lhs: (s.len() / cols, cols),
                    rhs: (s.len(), 1),
                });
            }
            data.extend_from_slice(s);
        }
        Ok(Matrix {
            rows: total / cols,
            cols,
            data,
        })
    }

    /// Assemble a `rows × cols` matrix by scattering blocks into it:
    /// entry `(a, b)` of a placement's `block` lands at
    /// `(placement.rows[a], placement.cols[b])` of the result, and every
    /// cell not covered by a placement is zero.
    ///
    /// This is the block-merge primitive of the sharded diagnosis layer:
    /// a coordinator reassembles a global matrix from per-shard pieces
    /// that each own an arbitrary (not necessarily contiguous) subset of
    /// rows or columns — sufficient-statistic row blocks merging into the
    /// global cross-product matrix, or per-shard window column slices
    /// merging back into the full measurement window. Placement is pure
    /// copying: no arithmetic is performed, so assembled values are
    /// bitwise identical to their sources.
    ///
    /// Returns an error if a placement's block shape disagrees with its
    /// index lists, an index is out of range, or two placements target
    /// the same cell ([`LinalgError::DuplicateTarget`]).
    ///
    /// # Example
    ///
    /// ```
    /// use netanom_linalg::{BlockPlacement, Matrix};
    ///
    /// // Two column slices (links {0, 2} and {1}) reassemble a 2×3 row set.
    /// let left = Matrix::from_rows(&[vec![1.0, 3.0], vec![4.0, 6.0]]);
    /// let right = Matrix::from_rows(&[vec![2.0], vec![5.0]]);
    /// let whole = Matrix::assemble_blocks(
    ///     2,
    ///     3,
    ///     &[
    ///         BlockPlacement { rows: &[0, 1], cols: &[0, 2], block: &left },
    ///         BlockPlacement { rows: &[0, 1], cols: &[1], block: &right },
    ///     ],
    /// )
    /// .unwrap();
    /// assert_eq!(whole.row(0), &[1.0, 2.0, 3.0]);
    /// assert_eq!(whole.row(1), &[4.0, 5.0, 6.0]);
    /// ```
    pub fn assemble_blocks(rows: usize, cols: usize, blocks: &[BlockPlacement]) -> Result<Matrix> {
        let mut out = Matrix::zeros(rows, cols);
        let mut written = vec![false; rows * cols];
        for p in blocks {
            if p.block.shape() != (p.rows.len(), p.cols.len()) {
                return Err(LinalgError::DimensionMismatch {
                    op: "assemble_blocks",
                    lhs: (p.rows.len(), p.cols.len()),
                    rhs: p.block.shape(),
                });
            }
            for (a, &i) in p.rows.iter().enumerate() {
                if i >= rows {
                    return Err(LinalgError::DimensionMismatch {
                        op: "assemble_blocks",
                        lhs: (rows, cols),
                        rhs: (i + 1, cols),
                    });
                }
                let brow = p.block.row(a);
                for (b, &j) in p.cols.iter().enumerate() {
                    if j >= cols {
                        return Err(LinalgError::DimensionMismatch {
                            op: "assemble_blocks",
                            lhs: (rows, cols),
                            rhs: (rows, j + 1),
                        });
                    }
                    let flat = i * cols + j;
                    if written[flat] {
                        return Err(LinalgError::DuplicateTarget { at: (i, j) });
                    }
                    written[flat] = true;
                    out.data[flat] = brow[b];
                }
            }
        }
        Ok(out)
    }

    /// Extract the contiguous block of `nrows` rows starting at `start_row`.
    ///
    /// Returns an error if the range exceeds the matrix.
    pub fn row_block(&self, start_row: usize, nrows: usize) -> Result<Matrix> {
        if start_row + nrows > self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "row_block",
                lhs: self.shape(),
                rhs: (start_row + nrows, self.cols),
            });
        }
        let data = self.data[start_row * self.cols..(start_row + nrows) * self.cols].to_vec();
        Ok(Matrix {
            rows: nrows,
            cols: self.cols,
            data,
        })
    }

    /// New matrix keeping only the listed columns, in the given order.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, indices.len(), |i, j| self[(i, indices[j])])
    }

    /// `true` if every pairwise entry differs by at most `tol`
    /// and shapes match.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape() && vector::approx_eq(&self.data, &rhs.data, tol)
    }
}

/// One block of values to scatter into a matrix assembled by
/// [`Matrix::assemble_blocks`]: entry `(a, b)` of `block` is copied to
/// `(rows[a], cols[b])` of the assembled matrix.
///
/// The index lists need not be contiguous or sorted, which is what lets
/// shard layers own arbitrary link subsets (round-robin, per-PoP) and
/// still merge exactly.
#[derive(Debug, Clone, Copy)]
pub struct BlockPlacement<'a> {
    /// Target row of each block row.
    pub rows: &'a [usize],
    /// Target column of each block column.
    pub cols: &'a [usize],
    /// The values to place.
    pub block: &'a Matrix,
}

/// Coefficient row `c = Pᵀz` for one centered row with the basis width
/// `R` known at compile time, accumulating each coefficient's `m` terms
/// in ascending link order — bitwise the reference GEMM's (and the
/// packed kernel's) order, so the small-shape routing in
/// [`Matrix::centered_residual_norms_sq`] stays unobservable.
#[inline]
#[allow(clippy::expect_used)] // the basis is m × R, so each row is R wide
fn spe_coeffs<const R: usize>(zrow: &[f64], bdata: &[f64], crow: &mut [f64]) {
    let mut acc = [0.0_f64; R];
    for (k, &z) in zrow.iter().enumerate() {
        let brow: &[f64; R] = bdata[k * R..(k + 1) * R]
            .try_into()
            .expect("basis row is R wide");
        for j in 0..R {
            acc[j] += z * brow[j];
        }
    }
    crow.copy_from_slice(&acc);
}

/// SPE epilogue for one centered row with the basis width `R` known at
/// compile time: given the precomputed coefficient row `c = Pᵀz`, fold
/// `‖z − P·c‖²` in one sweep over the link axis. The modeled entry for
/// link `j` sums `P[j][k]·c[k]` over ascending `k` (exactly like
/// [`Matrix::matvec`]) and the norm accumulates over ascending `j`
/// (exactly like [`vector::norm_sq`]), so the fused SPE stays bitwise
/// equal to the exact per-vector route.
#[inline]
#[allow(clippy::expect_used)] // basis and coefficient rows are R wide
fn spe_epilogue<const R: usize>(zrow: &[f64], bdata: &[f64], coeffs: &[f64]) -> f64 {
    let c: &[f64; R] = coeffs.try_into().expect("coefficient row is R wide");
    let mut acc = 0.0_f64;
    for (j, &z) in zrow.iter().enumerate() {
        let brow: &[f64; R] = bdata[j * R..(j + 1) * R]
            .try_into()
            .expect("basis row is R wide");
        let mut mm = 0.0_f64;
        for k in 0..R {
            mm += brow[k] * c[k];
        }
        let rv = z - mm;
        acc += rv * rv;
    }
    acc
}

/// Two independent [`spe_epilogue`] rows interleaved in one sweep.
///
/// `zpair` holds two consecutive centered rows, `cpair` their
/// coefficient rows. Each row's reductions run in exactly the order of
/// [`spe_epilogue`] — the interleave only gives the core two dependent
/// accumulator chains to overlap, so the results are bitwise the
/// one-row function's.
#[inline]
#[allow(clippy::expect_used)] // basis rows are R wide, `cpair` two R-wide rows
fn spe_epilogue_pair<const R: usize>(zpair: &[f64], bdata: &[f64], cpair: &[f64]) -> (f64, f64) {
    let m = zpair.len() / 2;
    let (z0, z1) = zpair.split_at(m);
    let c0: &[f64; R] = cpair[..R].try_into().expect("coefficient row is R wide");
    let c1: &[f64; R] = cpair[R..].try_into().expect("coefficient row is R wide");
    let mut a0 = 0.0_f64;
    let mut a1 = 0.0_f64;
    for (j, (&za, &zb)) in z0.iter().zip(z1).enumerate() {
        let brow: &[f64; R] = bdata[j * R..(j + 1) * R]
            .try_into()
            .expect("basis row is R wide");
        let mut m0 = 0.0_f64;
        let mut m1 = 0.0_f64;
        for k in 0..R {
            m0 += brow[k] * c0[k];
            m1 += brow[k] * c1[k];
        }
        let r0 = za - m0;
        let r1 = zb - m1;
        a0 += r0 * r0;
        a1 += r1 * r1;
    }
    (a0, a1)
}

/// Fallback of [`spe_epilogue`] for basis widths above the specialized
/// range; identical operation order.
fn spe_epilogue_dyn(zrow: &[f64], bdata: &[f64], coeffs: &[f64]) -> f64 {
    let r = coeffs.len();
    let mut acc = 0.0_f64;
    for (j, &z) in zrow.iter().enumerate() {
        let brow = &bdata[j * r..(j + 1) * r];
        let mut mm = 0.0_f64;
        for (&bv, &cv) in brow.iter().zip(coeffs) {
            mm += bv * cv;
        }
        let rv = z - mm;
        acc += rv * rv;
    }
    acc
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abcd() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])
    }

    #[test]
    fn construction_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 3).is_empty());
    }

    #[test]
    fn identity_diagonal() {
        let i3 = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i3[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_diag_and_from_columns() {
        let d = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);

        let c = Matrix::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(c[(0, 0)], 1.0);
        assert_eq!(c[(1, 0)], 2.0);
        assert_eq!(c[(0, 1)], 3.0);
    }

    #[test]
    fn row_and_col_access() {
        let m = abcd();
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn set_row_and_col() {
        let mut m = abcd();
        m.set_row(0, &[9.0, 8.0]);
        m.set_col(1, &[7.0, 6.0]);
        assert_eq!(m.row(0), &[9.0, 7.0]);
        assert_eq!(m.row(1), &[3.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
        assert_eq!(m.transpose().shape(), (5, 3));
    }

    #[test]
    fn matmul_known() {
        let a = abcd();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert!(c.approx_eq(
            &Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]),
            1e-12
        ));
    }

    #[test]
    fn matmul_identity() {
        let a = abcd();
        assert!(a.matmul(&Matrix::identity(2)).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_shape_error() {
        let a = abcd();
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_and_transposed() {
        let a = abcd();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.matvec_t(&[1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_fn(4, 3, |i, j| ((i + 1) * (j + 2)) as f64 / 3.0);
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(a.gram().approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn gram_is_symmetric() {
        let a = Matrix::from_fn(5, 4, |i, j| (i as f64 - 2.0) * (j as f64 + 0.5));
        let g = a.gram();
        assert!(g.approx_eq(&g.transpose(), 0.0));
    }

    #[test]
    fn add_sub_scaled() {
        let a = abcd();
        let s = a.add(&a).unwrap();
        assert!(s.approx_eq(&a.scaled(2.0), 0.0));
        let z = a.sub(&a).unwrap();
        assert_eq!(z.frobenius_norm(), 0.0);
        assert!(a.add(&Matrix::zeros(3, 2)).is_err());
        assert!(a.sub(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn column_statistics() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        assert_eq!(m.column_means(), vec![2.0, 20.0]);
        assert_eq!(m.column_variances(), vec![2.0, 200.0]);
    }

    #[test]
    fn column_variances_degenerate() {
        assert_eq!(
            Matrix::from_rows(&[vec![1.0, 2.0]]).column_variances(),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn mean_centering_zeroes_means() {
        let m = Matrix::from_fn(10, 3, |i, j| (i * j) as f64 + j as f64);
        let (c, means) = m.mean_centered_columns();
        for v in c.column_means() {
            assert!(v.abs() < 1e-12);
        }
        assert_eq!(means.len(), 3);
        // Re-adding the means reconstructs the original.
        let back = Matrix::from_fn(10, 3, |i, j| c[(i, j)] + means[j]);
        assert!(back.approx_eq(&m, 1e-12));
    }

    #[test]
    fn row_block_and_select_columns() {
        let m = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let b = m.row_block(1, 2).unwrap();
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b.row(0), &[3.0, 4.0, 5.0]);
        assert!(m.row_block(3, 2).is_err());

        let s = m.select_columns(&[2, 0]);
        assert_eq!(s.row(0), &[2.0, 0.0]);
    }

    #[test]
    fn debug_renders_truncated() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = abcd();
        let _ = m[(2, 0)];
    }

    /// Reference serial axpy GEMM (the pre-parallel kernel, verbatim).
    fn matmul_serial(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let v = a[(i, k)];
                if v == 0.0 {
                    continue;
                }
                let rrow = b.row(k);
                let orow = out.row_mut(i);
                vector::axpy(v, rrow, orow);
            }
        }
        out
    }

    fn hashy(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = (i * cols + j + salt).wrapping_mul(2654435761) % 8192;
            h as f64 / 4096.0 - 1.0
        })
    }

    #[test]
    fn parallel_matmul_is_bitwise_serial() {
        // Big enough to cross MIN_PARALLEL_FLOPS and actually fan out.
        let a = hashy(600, 96, 1);
        let b = hashy(96, 80, 2);
        let par = a.matmul(&b).unwrap();
        let ser = matmul_serial(&a, &b);
        assert!(
            par.approx_eq(&ser, 0.0),
            "parallel result must be bitwise serial"
        );
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = hashy(40, 17, 3);
        let b = hashy(23, 17, 4);
        let fast = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose()).unwrap();
        assert!(fast.approx_eq(&explicit, 1e-12));
        assert!(a.matmul_nt(&Matrix::zeros(5, 16)).is_err());
    }

    #[test]
    fn parallel_matmul_nt_is_thread_count_stable() {
        let a = hashy(700, 90, 5);
        let b = hashy(64, 90, 6);
        let big = a.matmul_nt(&b).unwrap();
        // Row 13 computed alone (guaranteed serial) matches the same row
        // of the fanned-out product bitwise.
        let row13 = a.row_block(13, 1).unwrap().matmul_nt(&b).unwrap();
        assert_eq!(row13.row(0), big.row(13));
    }

    #[test]
    fn parallel_gram_is_bitwise_serial() {
        let a = hashy(500, 60, 7);
        let par = a.gram();
        // Serial reference: original (i, a, b) loop nest.
        let mut ser = Matrix::zeros(60, 60);
        for i in 0..a.rows() {
            let r = a.row(i);
            for x in 0..60 {
                let rx = r[x];
                if rx == 0.0 {
                    continue;
                }
                for y in x..60 {
                    ser[(x, y)] += rx * r[y];
                }
            }
        }
        for x in 0..60 {
            for y in (x + 1)..60 {
                ser[(y, x)] = ser[(x, y)];
            }
        }
        assert!(
            par.approx_eq(&ser, 0.0),
            "parallel gram must be bitwise serial"
        );
    }

    #[test]
    fn row_norms_sq_matches_vector_norm() {
        let a = hashy(9, 5, 8);
        let norms = a.row_norms_sq();
        assert_eq!(norms.len(), 9);
        for i in 0..9 {
            assert_eq!(norms[i], vector::norm_sq(a.row(i)));
        }
    }

    #[test]
    fn project_rows_split_matches_per_vector_projection() {
        // Orthonormal 2-column basis in R^4.
        let basis = Matrix::from_columns(&[vec![0.5, 0.5, 0.5, 0.5], vec![0.5, -0.5, 0.5, -0.5]]);
        let z = hashy(50, 4, 9);
        let (modeled, residual) = z.project_rows_split(&basis).unwrap();
        assert_eq!(modeled.shape(), (50, 4));
        for t in 0..z.rows() {
            let coeffs = basis.matvec_t(z.row(t)).unwrap();
            let m = basis.matvec(&coeffs).unwrap();
            assert_eq!(modeled.row(t), &m[..], "modeled row {t}");
            let r = vector::sub(z.row(t), &m);
            assert_eq!(residual.row(t), &r[..], "residual row {t}");
        }
        // Residual is orthogonal to the basis.
        for t in 0..z.rows() {
            for k in 0..basis.cols() {
                let b = basis.col(k);
                assert!(vector::dot(residual.row(t), &b).abs() < 1e-12);
            }
        }
        assert!(z.project_rows_split(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn centered_residual_norms_match_exact_route() {
        // Orthonormal 2-column basis in R^4.
        let basis = Matrix::from_columns(&[vec![0.5, 0.5, 0.5, 0.5], vec![0.5, -0.5, 0.5, -0.5]]);
        let y = hashy(600, 4, 11);
        let mean = vec![0.25, -0.5, 0.125, 0.75];
        let fast = y.centered_residual_norms_sq(&mean, &basis).unwrap();
        let centered = Matrix::from_fn(y.rows(), 4, |i, j| y[(i, j)] - mean[j]);
        let exact = centered
            .project_rows_split(&basis)
            .unwrap()
            .1
            .row_norms_sq();
        assert_eq!(fast.len(), exact.len());
        for (t, (f, e)) in fast.iter().zip(&exact).enumerate() {
            assert!(
                (f - e).abs() <= 1e-13 * e.max(1.0),
                "row {t}: fast {f} vs exact {e}"
            );
        }
        // Dimension errors.
        assert!(y.centered_residual_norms_sq(&mean[..3], &basis).is_err());
        assert!(y
            .centered_residual_norms_sq(&mean, &Matrix::zeros(3, 1))
            .is_err());
    }

    #[test]
    fn centered_residual_norms_every_specialized_width() {
        // Random-ish orthonormal bases of width 1..=9 in R^12 via QR of a
        // hash matrix; width 9 exercises the dynamic fallback.
        use crate::decomposition::Qr;
        let y = hashy(40, 12, 13);
        let mean = vec![0.0; 12];
        for r in 1..=9usize {
            let src = hashy(12, r, 100 + r);
            let q = Qr::new(&src).unwrap().q();
            let fast = y.centered_residual_norms_sq(&mean, &q).unwrap();
            let exact = y.project_rows_split(&q).unwrap().1.row_norms_sq();
            for (t, (f, e)) in fast.iter().zip(&exact).enumerate() {
                assert!(
                    (f - e).abs() <= 1e-12 * e.max(1.0),
                    "r={r} row {t}: {f} vs {e}"
                );
            }
        }
        // Zero-width basis: residual is the centered row itself.
        let none = Matrix::zeros(12, 0);
        let fast = y.centered_residual_norms_sq(&mean, &none).unwrap();
        assert_eq!(fast, y.row_norms_sq());
    }

    #[test]
    fn assemble_blocks_scatters_rows_and_columns() {
        let m = Matrix::from_fn(4, 5, |i, j| (i * 5 + j) as f64 + 1.0);
        // Split by interleaved columns and reassemble.
        let even: Vec<usize> = vec![0, 2, 4];
        let odd: Vec<usize> = vec![1, 3];
        let all_rows: Vec<usize> = (0..4).collect();
        let back = Matrix::assemble_blocks(
            4,
            5,
            &[
                BlockPlacement {
                    rows: &all_rows,
                    cols: &even,
                    block: &m.select_columns(&even),
                },
                BlockPlacement {
                    rows: &all_rows,
                    cols: &odd,
                    block: &m.select_columns(&odd),
                },
            ],
        )
        .unwrap();
        assert!(back.approx_eq(&m, 0.0), "reassembly must be bitwise");

        // Scattered row placement; uncovered cells stay zero.
        let rows = vec![3, 0];
        let block = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0]]);
        let cols = vec![1, 0];
        let sparse = Matrix::assemble_blocks(
            4,
            2,
            &[BlockPlacement {
                rows: &rows,
                cols: &cols,
                block: &block,
            }],
        )
        .unwrap();
        assert_eq!(sparse.row(3), &[8.0, 7.0]);
        assert_eq!(sparse.row(0), &[10.0, 9.0]);
        assert_eq!(sparse.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn assemble_blocks_validates_shapes_ranges_and_overlap() {
        let b = Matrix::zeros(2, 2);
        // Block shape must match the index lists.
        assert!(Matrix::assemble_blocks(
            3,
            3,
            &[BlockPlacement {
                rows: &[0],
                cols: &[0, 1],
                block: &b,
            }],
        )
        .is_err());
        // Out-of-range indices.
        assert!(Matrix::assemble_blocks(
            3,
            3,
            &[BlockPlacement {
                rows: &[0, 3],
                cols: &[0, 1],
                block: &b,
            }],
        )
        .is_err());
        assert!(Matrix::assemble_blocks(
            3,
            3,
            &[BlockPlacement {
                rows: &[0, 1],
                cols: &[0, 3],
                block: &b,
            }],
        )
        .is_err());
        // Overlapping placements are rejected, including within a block.
        let overlap = Matrix::assemble_blocks(
            3,
            3,
            &[
                BlockPlacement {
                    rows: &[0, 1],
                    cols: &[0, 1],
                    block: &b,
                },
                BlockPlacement {
                    rows: &[1, 2],
                    cols: &[1, 2],
                    block: &b,
                },
            ],
        );
        assert!(matches!(
            overlap,
            Err(LinalgError::DuplicateTarget { at: (1, 1) })
        ));
        assert!(matches!(
            Matrix::assemble_blocks(
                2,
                2,
                &[BlockPlacement {
                    rows: &[0, 0],
                    cols: &[0, 1],
                    block: &b,
                }],
            ),
            Err(LinalgError::DuplicateTarget { .. })
        ));
        // Empty placement list yields zeros.
        let z = Matrix::assemble_blocks(2, 2, &[]).unwrap();
        assert_eq!(z.frobenius_norm(), 0.0);
    }

    #[test]
    fn empty_products_are_fine() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 3));
        assert_eq!(a.matmul_nt(&Matrix::zeros(2, 4)).unwrap().shape(), (0, 2));
        assert_eq!(Matrix::zeros(0, 3).gram().shape(), (3, 3));
        assert!(Matrix::zeros(0, 3).row_norms_sq().is_empty());
    }
}
