//! Sparse matrices (CSR) and generators mirroring Table V's input
//! categories by size and average nonzeros per row.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sparse matrix in CSR form with `f64` values.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row pointers, length `rows + 1`.
    pub row_ptr: Vec<i64>,
    /// Column indices, sorted within each row.
    pub col_idx: Vec<i64>,
    /// Nonzero values.
    pub vals: Vec<f64>,
}

impl SparseMatrix {
    /// Builds from per-row `(col, val)` lists; sorts and deduplicates
    /// (last value wins).
    pub fn from_rows(rows: usize, cols: usize, mut data: Vec<Vec<(i64, f64)>>) -> SparseMatrix {
        assert_eq!(data.len(), rows);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for r in data.iter_mut() {
            r.sort_by_key(|(c, _)| *c);
            r.dedup_by_key(|(c, _)| *c);
            for &(c, v) in r.iter() {
                debug_assert!((c as usize) < cols);
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len() as i64);
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Average nonzeros per row.
    pub fn avg_nnz_per_row(&self) -> f64 {
        self.nnz() as f64 / self.rows.max(1) as f64
    }

    /// Nonzeros of one row as `(col, val)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (i64, f64)> + '_ {
        let s = self.row_ptr[r] as usize;
        let e = self.row_ptr[r + 1] as usize;
        self.col_idx[s..e]
            .iter()
            .copied()
            .zip(self.vals[s..e].iter().copied())
    }

    /// The transpose (used as CSC for inner-product SpMM).
    pub fn transpose(&self) -> SparseMatrix {
        let mut data = vec![Vec::new(); self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                data[c as usize].push((r as i64, v));
            }
        }
        SparseMatrix::from_rows(self.cols, self.rows, data)
    }

    /// Dense matrix-vector product oracle: `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| self.row(r).map(|(c, v)| v * x[c as usize]).sum())
            .collect()
    }

    /// Checks CSR invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.rows + 1 || self.col_idx.len() != self.vals.len() {
            return Err("length mismatch".into());
        }
        if self.row_ptr[0] != 0 || *self.row_ptr.last().unwrap() != self.nnz() as i64 {
            return Err("row_ptr endpoints".into());
        }
        for r in 0..self.rows {
            let s = self.row_ptr[r] as usize;
            let e = self.row_ptr[r + 1] as usize;
            if e < s {
                return Err("row_ptr not monotone".into());
            }
            for w in self.col_idx[s..e].windows(2) {
                if w[1] <= w[0] {
                    return Err(format!("row {r} columns not strictly sorted"));
                }
            }
            for &c in &self.col_idx[s..e] {
                if c < 0 || c as usize >= self.cols {
                    return Err(format!("column {c} out of range"));
                }
            }
        }
        Ok(())
    }
}

/// A square matrix with uniformly random column positions per row
/// (graph-as-matrix style inputs: `amazon0312`, `p2p-Gnutella31`).
pub fn random_square(n: usize, avg_nnz: f64, seed: u64) -> SparseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = vec![Vec::new(); n];
    for row in data.iter_mut() {
        // Poisson-ish row lengths around the target.
        let lo = (avg_nnz * 0.5).floor() as usize;
        let hi = (avg_nnz * 1.5).ceil() as usize;
        let k = rng.gen_range(lo..=hi.max(lo + 1)).min(n);
        for _ in 0..k {
            row.push((rng.gen_range(0..n) as i64, rng.gen_range(0.1..1.0)));
        }
    }
    SparseMatrix::from_rows(n, n, data)
}

/// A banded matrix (FEM/structural inputs: `pwtk`, `cant`, `rma10`):
/// nonzeros clustered near the diagonal in blocks.
pub fn banded(n: usize, band: usize, avg_nnz: f64, seed: u64) -> SparseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = vec![Vec::new(); n];
    for (r, row) in data.iter_mut().enumerate() {
        let k = (avg_nnz * rng.gen_range(0.7..1.3)) as usize;
        row.push((r as i64, rng.gen_range(0.5..2.0))); // diagonal
        for _ in 0..k {
            let off = rng.gen_range(0..=band) as i64 * if rng.gen_bool(0.5) { 1 } else { -1 };
            let c = (r as i64 + off).clamp(0, n as i64 - 1);
            row.push((c, rng.gen_range(0.1..1.0)));
        }
    }
    SparseMatrix::from_rows(n, n, data)
}

/// A power-law matrix (web/social-graph style: heavy-tailed rows,
/// e.g. `wiki-Vote`, `email-Enron`).
pub fn power_law_matrix(n: usize, avg_nnz: f64, seed: u64) -> SparseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = vec![Vec::new(); n];
    let total = (n as f64 * avg_nnz) as usize;
    for _ in 0..total {
        // Zipf-ish row selection: square a uniform to bias low rows.
        let u: f64 = rng.gen();
        let r = ((u * u) * n as f64) as usize % n;
        data[r].push((rng.gen_range(0..n) as i64, rng.gen_range(0.1..1.0)));
    }
    // Guarantee nonempty rows so CSR paths always run.
    for (r, row) in data.iter_mut().enumerate() {
        if row.is_empty() {
            row.push(((r as i64 + 1) % n as i64, 0.5));
        }
    }
    SparseMatrix::from_rows(n, n, data)
}

/// A dense matrix stored row-major (for SDDMM's dense operands).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl DenseMatrix {
    /// A random dense matrix.
    pub fn random(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseMatrix {
            rows,
            cols,
            data: (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        }
    }

    /// Element accessor.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_validate() {
        for m in [
            random_square(500, 6.0, 1),
            banded(500, 8, 10.0, 2),
            power_law_matrix(500, 12.0, 3),
        ] {
            m.validate().expect("valid CSR");
            assert!(m.nnz() > 0);
        }
    }

    #[test]
    fn transpose_involutes() {
        let m = random_square(200, 5.0, 9);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn spmv_oracle_on_identityish() {
        let m = SparseMatrix::from_rows(2, 2, vec![vec![(0, 2.0)], vec![(1, 3.0)]]);
        assert_eq!(m.spmv(&[1.0, 1.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn banded_is_clustered() {
        let m = banded(400, 10, 8.0, 4);
        let mut far = 0;
        for r in 0..m.rows {
            for (c, _) in m.row(r) {
                if (c - r as i64).abs() > 10 {
                    far += 1;
                }
            }
        }
        assert_eq!(far, 0, "banded matrix must stay within the band");
    }

    #[test]
    fn avg_nnz_close_to_target() {
        let m = random_square(2000, 8.0, 5);
        let a = m.avg_nnz_per_row();
        assert!((6.0..10.0).contains(&a), "avg nnz {a} off target");
    }
}
