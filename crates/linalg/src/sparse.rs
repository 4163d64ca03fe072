//! Compressed sparse row (CSR) matrices and the [`FeatureMatrix`] abstraction.
//!
//! TF-IDF design matrices are overwhelmingly sparse: a realistic vocabulary has
//! thousands of terms while a forum post touches a few dozen, so the dense
//! `documents × vocabulary` grid the baselines used to materialise is >99% zeros
//! and was the dominant memory and time cost of the Table IV/V reproductions.
//! This module provides:
//!
//! * [`CsrMatrix`] — the standard three-array CSR layout (`indptr`, `indices`,
//!   `values`) with row iteration, sparse·dense and sparse·vector products, L2
//!   row normalisation, and dense round-trips;
//! * [`CsrBuilder`] — incremental row-by-row construction, the shape vectorisers
//!   produce naturally (one document at a time, never allocating the dense grid);
//! * [`FeatureMatrix`] — a `Dense`/`Sparse` enum so callers choose representation
//!   per workload while classifiers accept either;
//! * [`FeatureRows`] — the minimal row-access trait ([`row_dot`], per-row entry
//!   iteration) classifiers are generic over, implemented for [`Matrix`],
//!   [`CsrMatrix`] and [`FeatureMatrix`].
//!
//! Numerical contract: within a row, CSR stores entries in strictly increasing
//! column order, so dot products and norms accumulate in exactly the order the
//! dense code does. Since adding an explicit `0.0` term is an exact identity in
//! IEEE-754 addition, linear operations over a CSR matrix are **bit-identical**
//! to the same operations over its dense counterpart — the property tests assert
//! exact equality, not approximate.
//!
//! [`row_dot`]: FeatureRows::row_dot

use crate::matrix::Matrix;

/// A sparse `f64` matrix in compressed sparse row form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[r]..indptr[r + 1]` spans row `r` in `indices`/`values`.
    indptr: Vec<usize>,
    /// Column index of each stored entry; strictly increasing within a row.
    indices: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An all-zero sparse matrix (no stored entries).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from raw CSR arrays. Panics if the arrays are inconsistent
    /// (wrong `indptr` length, non-monotone `indptr`, out-of-range or
    /// non-increasing column indices).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr must have rows + 1 entries");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_eq!(
            *indptr.last().unwrap_or(&0),
            indices.len(),
            "indptr end must equal nnz"
        );
        for r in 0..rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be non-decreasing");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for pair in row.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "columns must be strictly increasing within a row"
                );
            }
            if let Some(&last) = row.last() {
                assert!(
                    last < cols,
                    "column index {last} out of bounds ({cols} cols)"
                );
            }
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Convert a dense matrix, storing only the non-zero entries.
    pub fn from_dense(dense: &Matrix) -> Self {
        let mut builder = CsrBuilder::new(dense.cols());
        let mut scratch = Vec::new();
        for r in 0..dense.rows() {
            scratch.clear();
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    scratch.push((c, v));
                }
            }
            builder.push_row(&mut scratch);
        }
        builder.finish()
    }

    /// Materialise as a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                row[c] = v;
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of the dense grid that is stored (`0.0` for an empty shape).
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Column indices of row `r`'s stored entries.
    pub fn row_indices(&self, r: usize) -> &[usize] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Values of row `r`'s stored entries.
    pub fn row_values(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Iterate row `r` as `(column, value)` pairs in increasing column order.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_indices(r)
            .iter()
            .copied()
            .zip(self.row_values(r).iter().copied())
    }

    /// Split-borrow row `r` as `(columns, mutable values)`.
    pub fn row_mut(&mut self, r: usize) -> (&[usize], &mut [f64]) {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        let span = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[span.clone()], &mut self.values[span])
    }

    /// Dot product of row `r` with a dense vector of length `cols`.
    pub fn row_dot(&self, r: usize, dense: &[f64]) -> f64 {
        assert_eq!(dense.len(), self.cols, "row_dot length mismatch");
        self.row_entries(r).map(|(c, v)| v * dense[c]).sum()
    }

    /// Sparse·vector product: `self · v`, one dot product per row.
    pub fn mul_vector(&self, v: &[f64]) -> Vec<f64> {
        (0..self.rows).map(|r| self.row_dot(r, v)).collect()
    }

    /// Sparse·dense product `self · other` (`n×k · k×m → n×m` dense).
    ///
    /// Walks each sparse row once, accumulating scaled rows of `other` — the
    /// same k-major order as `Matrix::matmul`, skipping the zero blocks.
    pub fn matmul_dense(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows(),
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows,
            self.cols,
            other.rows(),
            other.cols()
        );
        let m = other.cols();
        let mut out = Matrix::zeros(self.rows, m);
        for r in 0..self.rows {
            let out_row = out.row_mut(r);
            for (k, v) in self.row_entries(r) {
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += v * b;
                }
            }
        }
        out
    }

    /// L2-normalise every row in place (rows with zero norm are left untouched).
    pub fn l2_normalize_rows(&mut self) {
        for r in 0..self.rows {
            let (_, values) = self.row_mut(r);
            let norm: f64 = values.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 0.0 {
                for v in values.iter_mut() {
                    *v /= norm;
                }
            }
        }
    }

    /// Extract the sub-matrix of the given rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut builder = CsrBuilder::new(self.cols);
        let mut scratch = Vec::new();
        for &r in rows {
            scratch.clear();
            scratch.extend(self.row_entries(r));
            builder.push_row(&mut scratch);
        }
        builder.finish()
    }

    /// True if any stored value is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.values.iter().any(|v| !v.is_finite())
    }

    /// Stack blocks vertically (all must share a column count). Row `r` of the
    /// result is exactly the corresponding block row, entry for entry — this is
    /// how the sharded vectoriser fit concatenates per-shard matrices back into
    /// document order. Panics on a column-count mismatch or an empty block list.
    pub fn vstack(blocks: &[CsrMatrix]) -> CsrMatrix {
        assert!(!blocks.is_empty(), "vstack needs at least one block");
        let cols = blocks[0].cols;
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        let mut offset = 0usize;
        for block in blocks {
            assert_eq!(
                block.cols, cols,
                "vstack column mismatch: {} vs {cols}",
                block.cols
            );
            indptr.extend(block.indptr[1..].iter().map(|&p| p + offset));
            indices.extend_from_slice(&block.indices);
            values.extend_from_slice(&block.values);
            offset += block.nnz();
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }
}

/// Incremental row-by-row CSR construction.
///
/// Vectorisers produce one document row at a time; the builder sorts and merges
/// each row's `(column, value)` entries (duplicates are summed, zeros dropped)
/// and appends it, so a corpus is vectorised straight into CSR form without ever
/// touching a dense grid.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// A builder for matrices with `cols` columns and no rows yet.
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Append one row. `entries` is sorted in place by column; duplicate columns
    /// are summed and exact zeros dropped. Panics on out-of-range columns.
    pub fn push_row(&mut self, entries: &mut [(usize, f64)]) {
        entries.sort_unstable_by_key(|&(c, _)| c);
        let mut last_col = usize::MAX;
        for &(c, v) in entries.iter() {
            assert!(
                c < self.cols,
                "column index {c} out of bounds ({} cols)",
                self.cols
            );
            if c == last_col {
                *self.values.last_mut().unwrap() += v;
                continue;
            }
            self.indices.push(c);
            self.values.push(v);
            last_col = c;
        }
        // Compact away exact zeros (explicitly pushed or merged-to-zero) so nnz
        // reflects true non-zeros.
        let row_start = self.indptr[self.rows()];
        let mut write = row_start;
        for read in row_start..self.values.len() {
            if self.values[read] != 0.0 {
                self.indices[write] = self.indices[read];
                self.values[write] = self.values[read];
                write += 1;
            }
        }
        self.indices.truncate(write);
        self.values.truncate(write);
        self.indptr.push(self.indices.len());
    }

    /// Freeze into a [`CsrMatrix`].
    pub fn finish(self) -> CsrMatrix {
        CsrMatrix {
            rows: self.indptr.len() - 1,
            cols: self.cols,
            indptr: self.indptr,
            indices: self.indices,
            values: self.values,
        }
    }
}

/// A design matrix in whichever representation suits the workload.
///
/// Classical training on small dense problems stays `Dense`; TF-IDF feature
/// extraction and batched inference use `Sparse`. Classifiers accept either via
/// [`FeatureRows`], so the choice is made once, where the data is produced.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureMatrix {
    /// Row-major dense storage.
    Dense(Matrix),
    /// Compressed sparse row storage.
    Sparse(CsrMatrix),
}

impl FeatureMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            FeatureMatrix::Dense(m) => m.rows(),
            FeatureMatrix::Sparse(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            FeatureMatrix::Dense(m) => m.cols(),
            FeatureMatrix::Sparse(m) => m.cols(),
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Materialise as dense (clones when already dense).
    pub fn to_dense(&self) -> Matrix {
        match self {
            FeatureMatrix::Dense(m) => m.clone(),
            FeatureMatrix::Sparse(m) => m.to_dense(),
        }
    }

    /// The sparse payload, if this is the sparse variant.
    pub fn as_sparse(&self) -> Option<&CsrMatrix> {
        match self {
            FeatureMatrix::Sparse(m) => Some(m),
            FeatureMatrix::Dense(_) => None,
        }
    }
}

impl From<Matrix> for FeatureMatrix {
    fn from(m: Matrix) -> Self {
        FeatureMatrix::Dense(m)
    }
}

impl From<CsrMatrix> for FeatureMatrix {
    fn from(m: CsrMatrix) -> Self {
        FeatureMatrix::Sparse(m)
    }
}

/// Row-wise access classifiers are generic over: a dot product against a dense
/// weight vector and iteration over a row's (potentially implicit) non-zeros.
///
/// Implementations must visit entries in increasing column order so floating
/// point accumulation order is representation-independent (see module docs).
pub trait FeatureRows {
    /// Number of example rows.
    fn n_rows(&self) -> usize;

    /// Number of feature columns.
    fn n_cols(&self) -> usize;

    /// Dot product of row `r` with `weights` (length `n_cols`).
    fn row_dot(&self, r: usize, weights: &[f64]) -> f64;

    /// Visit the non-zero entries of row `r` as `(column, value)`, in increasing
    /// column order. Dense implementations skip zeros — exact arithmetic
    /// identity for every linear update in this codebase.
    fn for_each_row_entry<F: FnMut(usize, f64)>(&self, r: usize, f: F);
}

impl FeatureRows for Matrix {
    fn n_rows(&self) -> usize {
        self.rows()
    }

    fn n_cols(&self) -> usize {
        self.cols()
    }

    fn row_dot(&self, r: usize, weights: &[f64]) -> f64 {
        self.row(r).iter().zip(weights).map(|(x, w)| w * x).sum()
    }

    fn for_each_row_entry<F: FnMut(usize, f64)>(&self, r: usize, mut f: F) {
        for (c, &v) in self.row(r).iter().enumerate() {
            if v != 0.0 {
                f(c, v);
            }
        }
    }
}

impl FeatureRows for CsrMatrix {
    fn n_rows(&self) -> usize {
        self.rows()
    }

    fn n_cols(&self) -> usize {
        self.cols()
    }

    fn row_dot(&self, r: usize, weights: &[f64]) -> f64 {
        CsrMatrix::row_dot(self, r, weights)
    }

    fn for_each_row_entry<F: FnMut(usize, f64)>(&self, r: usize, mut f: F) {
        for (c, v) in self.row_entries(r) {
            f(c, v);
        }
    }
}

impl FeatureRows for FeatureMatrix {
    fn n_rows(&self) -> usize {
        self.rows()
    }

    fn n_cols(&self) -> usize {
        self.cols()
    }

    fn row_dot(&self, r: usize, weights: &[f64]) -> f64 {
        match self {
            FeatureMatrix::Dense(m) => m.row_dot(r, weights),
            FeatureMatrix::Sparse(m) => CsrMatrix::row_dot(m, r, weights),
        }
    }

    fn for_each_row_entry<F: FnMut(usize, f64)>(&self, r: usize, f: F) {
        match self {
            FeatureMatrix::Dense(m) => m.for_each_row_entry(r, f),
            FeatureMatrix::Sparse(m) => m.for_each_row_entry(r, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0, -4.0],
        ])
    }

    #[test]
    fn dense_round_trip() {
        let dense = sample_dense();
        let sparse = CsrMatrix::from_dense(&dense);
        assert_eq!(sparse.shape(), (3, 4));
        assert_eq!(sparse.nnz(), 4);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn vstack_concatenates_rows_in_block_order() {
        let dense = sample_dense();
        let whole = CsrMatrix::from_dense(&dense);
        // Split into [rows 0..2] + [row 2] + an empty block; vstack restores it.
        let top = whole.select_rows(&[0, 1]);
        let bottom = whole.select_rows(&[2]);
        let empty = CsrMatrix::zeros(0, 4);
        let stacked = CsrMatrix::vstack(&[top, empty, bottom]);
        assert_eq!(stacked, whole);
        assert_eq!(stacked.to_dense(), dense);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn vstack_rejects_mismatched_columns() {
        let _ = CsrMatrix::vstack(&[CsrMatrix::zeros(1, 3), CsrMatrix::zeros(1, 4)]);
    }

    #[test]
    fn builder_sorts_merges_and_drops_zeros() {
        let mut builder = CsrBuilder::new(5);
        builder.push_row(&mut [(3, 1.0), (1, 2.0), (3, 1.5), (0, 0.0)]);
        builder.push_row(&mut []);
        let m = builder.finish();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row_indices(0), &[1, 3]);
        assert_eq!(m.row_values(0), &[2.0, 2.5]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_indices(1), &[] as &[usize]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_out_of_range_columns() {
        let mut builder = CsrBuilder::new(2);
        builder.push_row(&mut [(2, 1.0)]);
    }

    #[test]
    fn row_dot_matches_dense() {
        let dense = sample_dense();
        let sparse = CsrMatrix::from_dense(&dense);
        let w = [0.5, -1.0, 2.0, 0.25];
        for r in 0..dense.rows() {
            assert_eq!(sparse.row_dot(r, &w), FeatureRows::row_dot(&dense, r, &w));
        }
        assert_eq!(sparse.mul_vector(&w), vec![4.5, 0.0, -4.0]);
    }

    #[test]
    fn matmul_dense_matches_dense_matmul() {
        let a = sample_dense();
        let sparse = CsrMatrix::from_dense(&a);
        let b = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![0.5, -1.0],
            vec![3.0, 0.0],
            vec![0.0, 1.0],
        ]);
        assert_eq!(sparse.matmul_dense(&b), a.matmul(&b));
    }

    #[test]
    fn l2_normalisation_matches_dense_semantics() {
        let mut sparse = CsrMatrix::from_dense(&sample_dense());
        sparse.l2_normalize_rows();
        for r in 0..sparse.rows() {
            let norm: f64 = sparse
                .row_values(r)
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
                .sqrt();
            assert!(
                norm == 0.0 || (norm - 1.0).abs() < 1e-12,
                "row {r} norm {norm}"
            );
        }
    }

    #[test]
    fn select_rows_reorders() {
        let sparse = CsrMatrix::from_dense(&sample_dense());
        let sel = sparse.select_rows(&[2, 0]);
        assert_eq!(sel.to_dense(), sample_dense().select_rows(&[2, 0]));
    }

    #[test]
    fn feature_matrix_dispatches_both_variants() {
        let dense = sample_dense();
        let fm_dense = FeatureMatrix::from(dense.clone());
        let fm_sparse = FeatureMatrix::from(CsrMatrix::from_dense(&dense));
        assert_eq!(fm_dense.shape(), fm_sparse.shape());
        assert_eq!(fm_dense.to_dense(), fm_sparse.to_dense());
        assert!(fm_sparse.as_sparse().is_some());
        assert!(fm_dense.as_sparse().is_none());
        let w = [1.0, 1.0, 1.0, 1.0];
        for r in 0..3 {
            assert_eq!(fm_dense.row_dot(r, &w), fm_sparse.row_dot(r, &w));
            let mut dense_entries = Vec::new();
            let mut sparse_entries = Vec::new();
            fm_dense.for_each_row_entry(r, |c, v| dense_entries.push((c, v)));
            fm_sparse.for_each_row_entry(r, |c, v| sparse_entries.push((c, v)));
            assert_eq!(dense_entries, sparse_entries);
        }
    }

    #[test]
    fn density_and_non_finite_checks() {
        let mut sparse = CsrMatrix::from_dense(&sample_dense());
        assert!((sparse.density() - 4.0 / 12.0).abs() < 1e-12);
        assert!(!sparse.has_non_finite());
        let (_, values) = sparse.row_mut(0);
        values[0] = f64::NAN;
        assert!(sparse.has_non_finite());
        assert_eq!(CsrMatrix::zeros(0, 0).density(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_validates_column_order() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "indptr must start at 0")]
    fn from_raw_rejects_orphaned_leading_entries() {
        // indptr starting past 0 would leave indices[0] unreachable by any row
        // while still counting towards nnz.
        let _ = CsrMatrix::from_raw(1, 3, vec![1, 2], vec![999, 1], vec![5.0, 1.0]);
    }
}
