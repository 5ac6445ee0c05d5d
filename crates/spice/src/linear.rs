//! Dense linear algebra for the MNA system.
//!
//! This is the dense backend behind [`crate::LinearSystem`]: an LU
//! factorization with partial pivoting, used below
//! [`crate::SolverConfig::AUTO_SPARSE_THRESHOLD`] unknowns (the
//! paper's 8-cell CIM row has 37). Its n² pivot scans and updates
//! alone would lose to the sparse LU even there; what keeps the dense
//! backend ahead is [`crate::DenseLu`]'s replay of the last pivot
//! sequence over the positions the stamps and their fill can reach.
//! [`Matrix::solve_into`] is the full factorization: the replay's
//! fallback and the reference its tests compare against. Larger
//! systems — wide CIM rows, whole arrays — go to the KLU-style
//! [`crate::SparseLu`]. Both `solve_destructive` and `solve_into`
//! share the single factorization core in [`Matrix::solve_into`].

use crate::SpiceError;

/// The smallest pivot magnitude the dense LU accepts; a column whose
/// best pivot is smaller (or non-finite) is reported singular.
pub(crate) const MIN_PIVOT: f64 = 1e-300;

/// One step of a running maximum of magnitudes that starts at `0.0`:
/// `max(m, a)` for `a ≥ 0`, skipping a NaN `a` exactly as `f64::max`
/// does. One compare-and-select, so it adds no NaN handling to the
/// loop-carried chain of the loops it rides along in.
#[inline]
pub(crate) fn max_mag(m: f64, a: f64) -> f64 {
    if a > m {
        a
    } else {
        m
    }
}

/// A dense, row-major square matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The dimension of the matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Reads entry `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    /// Writes entry `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to entry `(row, col)` — the stamp primitive.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Copies another matrix's dimension and entries into this one,
    /// reusing the existing allocation when capacity allows.
    pub fn copy_values_from(&mut self, other: &Matrix) {
        self.n = other.n;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Computes `self · x` into `y` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is not of length `dim()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.n..(r + 1) * self.n];
            *yr = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Computes `self · x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// The matrix ∞-norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.n)
            .map(|r| {
                self.data[r * self.n..(r + 1) * self.n]
                    .iter()
                    .map(|v| v.abs())
                    .sum()
            })
            .fold(0.0f64, f64::max)
    }

    /// The matrix 1-norm (maximum absolute column sum).
    pub fn one_norm(&self) -> f64 {
        let mut best = 0.0f64;
        for c in 0..self.n {
            let mut sum = 0.0;
            for r in 0..self.n {
                sum += self.get(r, c).abs();
            }
            best = best.max(sum);
        }
        best
    }

    /// The largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0f64, f64::max)
    }

    /// Row `r` of the matrix.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.n..(r + 1) * self.n]
    }

    /// Every entry, row-major, writable.
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Solves `self · x = b` in place via LU with partial pivoting,
    /// destroying the matrix. Returns the solution vector.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when no usable pivot is
    /// found, which for MNA systems means a floating node or a
    /// short-circuit loop of ideal sources.
    pub fn solve_destructive(mut self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let mut rhs = Vec::new();
        let mut perm = Vec::new();
        let mut out = Vec::new();
        self.solve_into(b, &mut rhs, &mut perm, &mut out)?;
        Ok(out)
    }

    /// Solves `self · x = b` into `out`, destroying the matrix contents
    /// and using `rhs` / `perm` as scratch. When the buffers already
    /// hold capacity `dim()` (as they do after the first call on a
    /// reused [`crate::Workspace`]), this performs no heap allocation.
    ///
    /// The elimination sequence is identical to [`Matrix::solve_destructive`]
    /// — results are bitwise equal.
    ///
    /// Returns the largest absolute entry of the `U` factor left behind
    /// (rows in `perm` order, columns at or right of the diagonal) — the
    /// numerator of the pivot-growth factor. Back substitution reads
    /// every `U` entry exactly once, so it is taken there.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when no usable pivot is
    /// found (floating node or ideal-source loop in MNA terms).
    ///
    /// # Panics
    ///
    /// Panics if `b` is not of length `dim()`.
    pub fn solve_into(
        &mut self,
        b: &[f64],
        rhs: &mut Vec<f64>,
        perm: &mut Vec<usize>,
        out: &mut Vec<f64>,
    ) -> Result<f64, SpiceError> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let x = rhs;
        x.clear();
        x.extend_from_slice(b);
        perm.clear();
        perm.extend(0..n);
        for col in 0..n {
            // Partial pivoting: find the largest magnitude in this column.
            let mut pivot_row = col;
            let mut pivot_val = self.get(perm[col], col).abs();
            for (r, &pr) in perm.iter().enumerate().skip(col + 1) {
                let v = self.get(pr, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < MIN_PIVOT || !pivot_val.is_finite() {
                return Err(SpiceError::SingularMatrix { row: col });
            }
            perm.swap(col, pivot_row);
            let p = perm[col];
            let pivot = self.get(p, col);
            for &r in &perm[col + 1..] {
                let factor = self.get(r, col) / pivot;
                // The multiplier is stored in the eliminated position —
                // back substitution never reads below the diagonal (in
                // `perm` order), so the solution is unchanged, and the
                // stored `L` lets `solve_factored` replay this
                // elimination on a new right-hand side.
                self.set(r, col, factor);
                if factor == 0.0 {
                    continue;
                }
                for c in (col + 1)..n {
                    let v = self.get(p, c);
                    self.add(r, c, -factor * v);
                }
                x[r] -= factor * x[p];
            }
        }
        // Back substitution.
        out.clear();
        out.resize(n, 0.0);
        let mut u_max = 0.0f64;
        for col in (0..n).rev() {
            let p = perm[col];
            let row = self.row(p);
            let mut sum = x[p];
            for (&u, &oc) in row[col + 1..].iter().zip(&out[col + 1..]) {
                u_max = max_mag(u_max, u.abs());
                sum -= u * oc;
            }
            u_max = max_mag(u_max, row[col].abs());
            out[col] = sum / row[col];
        }
        Ok(u_max)
    }

    /// Re-solves `A · x = b` for a new right-hand side using the `L`/`U`
    /// factors and permutation left behind by a prior
    /// [`Matrix::solve_into`] — no refactorization. The arithmetic
    /// replays the original elimination exactly, so re-solving with the
    /// original `b` reproduces the original solution bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `perm` is not of length `dim()`.
    pub fn solve_factored(
        &self,
        b: &[f64],
        perm: &[usize],
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        let n = self.n;
        assert_eq!(b.len(), n);
        assert_eq!(perm.len(), n);
        let x = scratch;
        x.clear();
        x.extend_from_slice(b);
        for col in 0..n {
            let p = perm[col];
            for &r in &perm[col + 1..] {
                let factor = self.get(r, col);
                if factor != 0.0 {
                    x[r] -= factor * x[p];
                }
            }
        }
        out.clear();
        out.resize(n, 0.0);
        for col in (0..n).rev() {
            let p = perm[col];
            let mut sum = x[p];
            for (c, &oc) in out.iter().enumerate().take(n).skip(col + 1) {
                sum -= self.get(p, c) * oc;
            }
            out[col] = sum / self.get(p, col);
        }
    }

    /// Solves the transposed system `Aᵀ · w = c` through the stored
    /// factors (`A = Pᵀ·L·U` ⇒ `Aᵀ = Uᵀ·Lᵀ·P`), as needed by the
    /// Hager-style condition estimator.
    ///
    /// # Panics
    ///
    /// Panics if `c` or `perm` is not of length `dim()`.
    pub fn solve_transposed_factored(
        &self,
        c: &[f64],
        perm: &[usize],
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        let n = self.n;
        assert_eq!(c.len(), n);
        assert_eq!(perm.len(), n);
        // Uᵀ·y = c: Uᵀ is lower triangular with U[j,k] stored at
        // (perm[j], k), so ascending substitution.
        let y = scratch;
        y.clear();
        y.reserve(n);
        for k in 0..n {
            let mut sum = c[k];
            for (j, &yj) in y.iter().enumerate() {
                sum -= self.get(perm[j], k) * yj;
            }
            y.push(sum / self.get(perm[k], k));
        }
        // Lᵀ·z = y: unit upper triangular with the multiplier L[j,k]
        // stored at (perm[j], k), descending substitution in place.
        for k in (0..n).rev() {
            let mut sum = y[k];
            for j in (k + 1)..n {
                sum -= self.get(perm[j], k) * y[j];
            }
            y[k] = sum;
        }
        // w = Pᵀ·z.
        out.clear();
        out.resize(n, 0.0);
        for (k, &zk) in y.iter().enumerate() {
            out[perm[k]] = zk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> Matrix {
        let n = rows.len();
        let mut m = Matrix::zeros(n);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n);
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    #[test]
    fn identity_solve() {
        let m = from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = m.solve_destructive(&[3.0, -4.0]).unwrap();
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_a_known_3x3_system() {
        // A = [[2,1,0],[1,3,1],[0,1,4]], x = [1,2,3] → b = [4,10,14].
        let m = from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let x = m.solve_destructive(&[4.0, 10.0, 14.0]).unwrap();
        for (got, want) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let m = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.solve_destructive(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let m = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            m.solve_destructive(&[1.0, 2.0]),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn residual_is_tiny_for_ill_scaled_systems() {
        // Conductances spanning 12 decades, like gmin next to a switch.
        let m = from_rows(&[
            &[1e-12 + 1e-3, -1e-3, 0.0],
            &[-1e-3, 2e-3, -1e-3],
            &[0.0, -1e-3, 1e-3 + 1e4],
        ]);
        let b = [1e-6, 0.0, 2.0];
        let x = m.clone().solve_destructive(&b).unwrap();
        let r = m.mul_vec(&x);
        for (ri, bi) in r.iter().zip(b) {
            assert!((ri - bi).abs() < 1e-9 * bi.abs().max(1.0), "{r:?}");
        }
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn mul_vec_into_matches_mul_vec() {
        let m = from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut y = vec![9.9, 9.9];
        m.mul_vec_into(&[0.5, -2.0], &mut y);
        assert_eq!(y, m.mul_vec(&[0.5, -2.0]));
    }

    #[test]
    fn solve_into_is_bitwise_identical_to_solve_destructive() {
        // Ill-scaled system: any change to the elimination order or
        // arithmetic would show up in the low bits.
        let m = from_rows(&[
            &[1e-12 + 1e-3, -1e-3, 0.0],
            &[-1e-3, 2e-3, -1e-3],
            &[0.0, -1e-3, 1e-3 + 1e4],
        ]);
        let b = [1e-6, 0.0, 2.0];
        let reference = m.clone().solve_destructive(&b).unwrap();
        let (mut rhs, mut perm, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut work = m.clone();
        work.solve_into(&b, &mut rhs, &mut perm, &mut out).unwrap();
        assert_eq!(out, reference);
        // Reusing the (now warm) buffers must give the same answer.
        let mut work = m;
        work.solve_into(&b, &mut rhs, &mut perm, &mut out).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn factored_resolve_replays_the_original_solution_bitwise() {
        let m = from_rows(&[
            &[1e-12 + 1e-3, -1e-3, 0.0],
            &[-1e-3, 2e-3, -1e-3],
            &[0.0, -1e-3, 1e-3 + 1e4],
        ]);
        let b = [1e-6, 0.0, 2.0];
        let (mut rhs, mut perm, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut lu = m.clone();
        lu.solve_into(&b, &mut rhs, &mut perm, &mut out).unwrap();
        let mut replay = Vec::new();
        lu.solve_factored(&b, &perm, &mut rhs, &mut replay);
        assert_eq!(replay, out, "same b through the stored factors");
        // A different right-hand side still satisfies the system.
        let b2 = [0.5, -1.0, 3.0];
        lu.solve_factored(&b2, &perm, &mut rhs, &mut replay);
        let back = m.mul_vec(&replay);
        for (got, want) in back.iter().zip(b2) {
            assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
        }
    }

    #[test]
    fn transposed_factored_solve_satisfies_the_transposed_system() {
        let m = from_rows(&[&[2.0, 1.0, -0.5], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let c = [1.0, -2.0, 0.5];
        let (mut rhs, mut perm, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut lu = m.clone();
        lu.solve_into(&c, &mut rhs, &mut perm, &mut out).unwrap();
        let mut w = Vec::new();
        lu.solve_transposed_factored(&c, &perm, &mut rhs, &mut w);
        // Check Aᵀ·w = c, i.e. Σ_r a[r][k]·w[r] = c[k].
        for (k, &ck) in c.iter().enumerate() {
            let got: f64 = (0..3).map(|r| m.get(r, k) * w[r]).sum();
            assert!((got - ck).abs() < 1e-12, "col {k}: {got} vs {ck}");
        }
    }

    #[test]
    fn norms_and_pivot_growth_inputs() {
        let m = from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(m.inf_norm(), 7.0);
        assert_eq!(m.one_norm(), 6.0);
        assert_eq!(m.max_abs(), 4.0);
        let (mut rhs, mut perm, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut lu = m.clone();
        let u_max = lu
            .solve_into(&[1.0, 1.0], &mut rhs, &mut perm, &mut out)
            .unwrap();
        // Pivot row is [3,4]; U = [[3,4],[0,1−(1/3)·4]] → max |U| = 4.
        assert_eq!(u_max, 4.0);
    }

    #[test]
    fn random_round_trip() {
        // Deterministic pseudo-random matrix; verify A·solve(A,b) = b.
        let n = 12;
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, next());
            }
            m.add(r, r, 4.0); // diagonally dominant → well conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = m.clone().solve_destructive(&b).unwrap();
        let back = m.mul_vec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10);
        }
    }
}
