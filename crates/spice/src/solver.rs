//! The unified linear-solver layer behind every MNA solve.
//!
//! [`LinearSystem`] is the shared stamp/clear/solve contract consumed
//! by `mna::assemble` and `mna::newton_solve_in`; two backends
//! implement it:
//!
//! * [`DenseLu`] — the original dense LU with partial pivoting
//!   ([`crate::Matrix`]), still the fastest option for the
//!   tens-of-unknowns circuits of a single cell or a short row.
//! * [`SparseLu`] — a KLU-style sparse LU (Gilbert–Peierls
//!   left-looking factorization). The expensive *symbolic* work — a
//!   fill-reducing column ordering plus the pivot sequence and the
//!   nonzero patterns of `L` and `U` — is computed **once per netlist
//!   topology** and reused by every subsequent solve, which only
//!   refactors numerically along the known pattern. Newton iterations,
//!   transient steps, sweep points, and Monte-Carlo samples all share
//!   one analysis because MNA stamping never changes the sparsity
//!   pattern, only the values.
//!
//! The sparse backend additionally exploits the bordered-block-diagonal
//! structure of a CIM row (cells couple only through the shared
//! accumulation/bitline node): the columns of each cell block are
//! mutually independent in the elimination DAG, so the numeric
//! refactorization is *level-scheduled* — all columns whose
//! dependencies are satisfied factor in parallel, cell blocks first,
//! the small border system last. Enable it with
//! [`SolverConfig::with_parallel_blocks`]; results are bitwise
//! identical to the sequential refactorization because every column's
//! arithmetic is independent of the schedule.
//!
//! [`SolverConfig`] selects the backend. The default
//! [`SolverKind::Auto`] picks dense below
//! [`SolverConfig::AUTO_SPARSE_THRESHOLD`] unknowns and sparse at or
//! above it, which is where the O(n³) dense factorization starts losing
//! to the near-linear sparse path on MNA matrices (a handful of
//! nonzeros per row).

use crate::linear::Matrix;
use crate::SpiceError;
use ferrocim_telemetry::{SolverBackend, Telemetry};
use std::collections::HashMap;

/// Which linear-solver backend an analysis should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Pick by system size: dense below
    /// [`SolverConfig::AUTO_SPARSE_THRESHOLD`] unknowns, sparse at or
    /// above it.
    #[default]
    Auto,
    /// Always the dense LU.
    Dense,
    /// Always the sparse KLU-style LU.
    Sparse,
}

/// Fill-reducing column ordering for the sparse backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillOrdering {
    /// Greedy minimum-degree on the pattern of `A + Aᵀ` — the default;
    /// eliminates cell-internal nodes before shared bitline hubs, which
    /// keeps fill near zero on CIM-row matrices.
    #[default]
    MinDegree,
    /// Factor columns in natural (stamping) order.
    Natural,
}

/// Linear-solver selection: set on a [`crate::Workspace`] directly
/// ([`crate::Workspace::with_solver`]) or as the `solver` field of the
/// [`crate::RunContext`] an analysis runs under, which applies it to
/// the workspace the solve runs in.
///
/// # Examples
///
/// ```
/// use ferrocim_spice::{FillOrdering, SolverConfig, SolverKind};
///
/// let cfg = SolverConfig::sparse().with_ordering(FillOrdering::MinDegree);
/// assert_eq!(cfg.kind, SolverKind::Sparse);
/// assert!(!cfg.parallel_blocks);
/// // Auto picks by size.
/// assert!(!SolverConfig::auto().wants_sparse(30));
/// assert!(SolverConfig::auto().wants_sparse(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverConfig {
    /// Backend selection policy.
    pub kind: SolverKind,
    /// Column ordering used by the sparse backend.
    pub ordering: FillOrdering,
    /// Level-scheduled parallel numeric refactorization (sparse backend
    /// only). Off by default: it only pays on wide rows where many cell
    /// blocks factor concurrently.
    pub parallel_blocks: bool,
}

impl SolverConfig {
    /// System size (unknowns) at which [`SolverKind::Auto`] switches
    /// from dense to sparse. Calibrated with `probe_sparse`: on MNA
    /// matrices the sparse path wins from roughly a 32-cell row
    /// (~100 unknowns) upward.
    pub const AUTO_SPARSE_THRESHOLD: usize = 100;

    /// Size-based automatic selection (the default).
    pub fn auto() -> SolverConfig {
        SolverConfig::default()
    }

    /// Always dense.
    pub fn dense() -> SolverConfig {
        SolverConfig {
            kind: SolverKind::Dense,
            ..SolverConfig::default()
        }
    }

    /// Always sparse.
    pub fn sparse() -> SolverConfig {
        SolverConfig {
            kind: SolverKind::Sparse,
            ..SolverConfig::default()
        }
    }

    /// Overrides the sparse column ordering (builder style).
    pub fn with_ordering(mut self, ordering: FillOrdering) -> SolverConfig {
        self.ordering = ordering;
        self
    }

    /// Enables or disables the level-scheduled parallel numeric
    /// refactorization (builder style).
    pub fn with_parallel_blocks(mut self, parallel: bool) -> SolverConfig {
        self.parallel_blocks = parallel;
        self
    }

    /// Whether this configuration selects the sparse backend for an
    /// `n`-unknown system.
    pub fn wants_sparse(&self, n: usize) -> bool {
        match self.kind {
            SolverKind::Dense => false,
            SolverKind::Sparse => true,
            SolverKind::Auto => n >= SolverConfig::AUTO_SPARSE_THRESHOLD,
        }
    }
}

/// What a [`LinearSystem::solve_into`] call did, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveInfo {
    /// The backend that performed the solve.
    pub backend: SolverBackend,
    /// Whether a symbolic analysis ran as part of this solve. The dense
    /// backend never reports `true`; the sparse backend reports it once
    /// per topology (plus the rare pivot-degradation re-analysis).
    pub symbolic: bool,
}

/// The stamp/clear/solve contract shared by every MNA solver backend.
///
/// `mna::assemble` stamps conductances through [`LinearSystem::add`]
/// exactly as it always stamped the dense matrix; the backend decides
/// how entries are stored and factored. One implementation instance is
/// owned by a [`crate::Workspace`] and reused across solves, which is
/// what lets the sparse backend amortize its symbolic analysis.
pub trait LinearSystem {
    /// The system dimension.
    fn dim(&self) -> usize;

    /// Resets all stamped values to zero, keeping pattern and symbolic
    /// state.
    fn clear(&mut self);

    /// Adds `value` to entry `(row, col)` — the stamp primitive.
    fn add(&mut self, row: usize, col: usize, value: f64);

    /// Factors the stamped system and solves `A·x = b` into `out`.
    /// Emits solver spans through `tele` (the symbolic analysis of the
    /// sparse backend is timed under `spice.solver.symbolic`).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when no usable pivot
    /// exists — a floating node or an ideal-source loop in MNA terms.
    fn solve_into(
        &mut self,
        b: &[f64],
        out: &mut Vec<f64>,
        tele: &Telemetry,
    ) -> Result<SolveInfo, SpiceError>;

    /// Computes `A·x` into `y` from the currently stamped values — the
    /// matrix as assembled, independent of any factorization — for
    /// residual checks. `y` must already have length [`LinearSystem::dim`].
    fn matvec_into(&mut self, x: &[f64], y: &mut [f64]);

    /// Re-solves `A·x = b` through the factors left behind by the most
    /// recent [`LinearSystem::solve_into`], with no refactorization —
    /// the iterative-refinement primitive. Fills `out` with zeros when
    /// no factorization exists yet.
    fn resolve_into(&mut self, b: &[f64], out: &mut Vec<f64>);

    /// Solves the transposed system `Aᵀ·w = c` through the stored
    /// factors (the Hager condition-estimator primitive). Fills `out`
    /// with zeros when no factorization exists yet.
    fn solve_transposed_into(&mut self, c: &[f64], out: &mut Vec<f64>);

    /// The ∞-norm (maximum absolute row sum) of the stamped matrix.
    fn inf_norm(&mut self) -> f64;

    /// The 1-norm (maximum absolute column sum) of the stamped matrix.
    fn one_norm(&mut self) -> f64;

    /// Pivot growth of the most recent factorization: the largest `U`
    /// magnitude over the largest stamped magnitude. Values far above 1
    /// flag element growth that loses precision. Reports `1.0` before
    /// any factorization (or for an all-zero matrix).
    fn pivot_growth(&self) -> f64;

    /// Which backend this is (for telemetry).
    fn backend(&self) -> SolverBackend;
}

/// The dense LU backend: the original [`Matrix`] factorization plus its
/// permutation/RHS scratch, behind the [`LinearSystem`] trait. Results
/// are bitwise identical to the historical `Matrix::solve_into` path —
/// same elimination sequence, same buffers. The stamped matrix `m` is
/// copied into `lu` before factoring, so the assembled values survive
/// the solve for residual checks and refinement re-solves.
#[derive(Debug, Clone, Default)]
pub struct DenseLu {
    m: Matrix,
    lu: Matrix,
    rhs: Vec<f64>,
    perm: Vec<usize>,
}

impl DenseLu {
    /// A dense system of dimension `n`.
    pub fn with_dim(n: usize) -> DenseLu {
        let mut d = DenseLu {
            m: Matrix::zeros(n),
            lu: Matrix::zeros(n),
            rhs: Vec::new(),
            perm: Vec::new(),
        };
        d.rhs.reserve(n);
        d.perm.reserve(n);
        d
    }

    /// Whether a factorization from a completed solve is available.
    fn factored(&self) -> bool {
        self.perm.len() == self.m.dim() && self.lu.dim() == self.m.dim()
    }
}

impl LinearSystem for DenseLu {
    fn dim(&self) -> usize {
        self.m.dim()
    }

    fn clear(&mut self) {
        self.m.clear();
    }

    #[inline]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        self.m.add(row, col, value);
    }

    fn solve_into(
        &mut self,
        b: &[f64],
        out: &mut Vec<f64>,
        _tele: &Telemetry,
    ) -> Result<SolveInfo, SpiceError> {
        self.lu.copy_values_from(&self.m);
        self.lu.solve_into(b, &mut self.rhs, &mut self.perm, out)?;
        Ok(SolveInfo {
            backend: SolverBackend::Dense,
            symbolic: false,
        })
    }

    fn matvec_into(&mut self, x: &[f64], y: &mut [f64]) {
        self.m.mul_vec_into(x, y);
    }

    fn resolve_into(&mut self, b: &[f64], out: &mut Vec<f64>) {
        if !self.factored() {
            out.clear();
            out.resize(self.m.dim(), 0.0);
            return;
        }
        self.lu.solve_factored(b, &self.perm, &mut self.rhs, out);
    }

    fn solve_transposed_into(&mut self, c: &[f64], out: &mut Vec<f64>) {
        if !self.factored() {
            out.clear();
            out.resize(self.m.dim(), 0.0);
            return;
        }
        self.lu
            .solve_transposed_factored(c, &self.perm, &mut self.rhs, out);
    }

    fn inf_norm(&mut self) -> f64 {
        self.m.inf_norm()
    }

    fn one_norm(&mut self) -> f64 {
        self.m.one_norm()
    }

    fn pivot_growth(&self) -> f64 {
        if !self.factored() {
            return 1.0;
        }
        let denom = self.m.max_abs();
        if denom <= 0.0 {
            return 1.0;
        }
        self.lu.max_abs_upper(&self.perm) / denom
    }

    fn backend(&self) -> SolverBackend {
        SolverBackend::Dense
    }
}

/// Diagonal-preference threshold for the symbolic pivot search: the
/// structural diagonal is kept as pivot whenever it is at least this
/// fraction of the column maximum, which preserves the fill predicted
/// by the ordering.
const PIVOT_TOL: f64 = 0.1;

/// Numeric-refactorization degradation guard: when a reused pivot falls
/// below this fraction of its column maximum the stored pivot sequence
/// is no longer trustworthy and a fresh symbolic analysis runs instead.
const REFACTOR_TOL: f64 = 1e-8;

/// Minimum number of same-level columns before the parallel refactor
/// bothers spawning threads for that level.
const PAR_MIN_WIDTH: usize = 16;

/// The immutable product of one symbolic analysis: column order, pivot
/// sequence, and the `L`/`U` nonzero patterns, reused by every numeric
/// refactorization on the same topology.
#[derive(Debug, Clone)]
struct Symbolic {
    /// Column pre-order: factorization step `k` processes original
    /// column `q[k]`.
    q: Vec<usize>,
    /// Step `k` → the original row chosen as its pivot.
    pivot_row: Vec<usize>,
    /// Column pointers of `L` (unit diagonal implicit).
    lp: Vec<usize>,
    /// Row indices of `L`, in *original* row coordinates, ascending.
    li: Vec<usize>,
    /// Column pointers of `U` (diagonal stored separately).
    up: Vec<usize>,
    /// Row indices of `U` as pivot positions `< k`, ascending.
    ui: Vec<usize>,
    /// Level-scheduled column groups: columns in one level have all
    /// their `U`-pattern dependencies in strictly lower levels, so they
    /// refactor independently. On a CIM row the cell blocks land in the
    /// low levels and the bitline border in the top ones.
    levels: Vec<Vec<usize>>,
}

/// Returned by the numeric refactorization when a reused pivot has
/// degraded; the caller falls back to a fresh symbolic analysis.
struct NumericDegraded;

/// The values of one refactored column, produced by the shared numeric
/// core and written back by either the sequential or the parallel
/// scheduler.
struct ColumnValues {
    k: usize,
    diag: f64,
    ux: Vec<f64>,
    lx: Vec<f64>,
}

/// The sparse KLU-style LU backend.
///
/// Stamps are captured into a slot table on the first assembly; the
/// pattern seals at the first solve, after which [`SparseLu::clear`] /
/// [`SparseLu::add`] only touch values. The first solve runs the fused
/// symbolic + numeric Gilbert–Peierls factorization (fill-reducing
/// ordering, DFS reach, threshold pivoting); every later solve
/// refactors numerically along the stored pattern — no ordering, no
/// DFS, no pivot search. A stamped entry at a new position (topology
/// change) or a degraded pivot transparently re-runs the symbolic
/// analysis.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    ordering: FillOrdering,
    parallel: bool,
    // --- stamp capture ---
    slot_of: HashMap<(u32, u32), u32>,
    coords: Vec<(u32, u32)>,
    values: Vec<f64>,
    sealed: bool,
    // --- CSC mirror of the stamped pattern (built at seal) ---
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    csc_of_slot: Vec<usize>,
    csc_vals: Vec<f64>,
    // --- factorization ---
    sym: Option<Symbolic>,
    lx: Vec<f64>,
    ux: Vec<f64>,
    udiag: Vec<f64>,
    // --- scratch (all-zero invariant for `work`) ---
    work: Vec<f64>,
    fwd: Vec<f64>,
    y: Vec<f64>,
    // --- counters ---
    symbolic_count: u64,
    numeric_count: u64,
}

impl SparseLu {
    /// A sparse system of dimension `n` with default ordering and
    /// sequential refactorization.
    pub fn with_dim(n: usize) -> SparseLu {
        SparseLu {
            n,
            work: vec![0.0; n],
            ..SparseLu::default()
        }
    }

    /// Overrides the fill-reducing ordering (builder style). Resets any
    /// existing symbolic analysis.
    pub fn with_ordering(mut self, ordering: FillOrdering) -> SparseLu {
        self.ordering = ordering;
        self.sym = None;
        self
    }

    /// Enables the level-scheduled parallel numeric refactorization
    /// (builder style).
    pub fn with_parallel_blocks(mut self, parallel: bool) -> SparseLu {
        self.parallel = parallel;
        self
    }

    /// How many symbolic analyses have run — 1 for any number of solves
    /// on a fixed topology (barring pivot-degradation re-analyses).
    pub fn symbolic_analyses(&self) -> u64 {
        self.symbolic_count
    }

    /// How many numeric factorizations have run (one per solve).
    pub fn numeric_factorizations(&self) -> u64 {
        self.numeric_count
    }

    /// Nonzero count of the stamped pattern.
    pub fn pattern_nnz(&self) -> usize {
        self.coords.len()
    }

    /// Discards the symbolic analysis, forcing the next solve to re-run
    /// the fused symbolic + numeric factorization (fresh ordering, DFS,
    /// and pivot search). The first rung of the degradation ladder.
    pub(crate) fn invalidate_symbolic(&mut self) {
        self.sym = None;
    }

    /// Sorts the captured stamp slots into compressed-sparse-column
    /// form. Called once at the first solve after any pattern change.
    fn seal(&mut self) {
        let nnz = self.coords.len();
        let mut order: Vec<usize> = (0..nnz).collect();
        order.sort_unstable_by_key(|&s| (self.coords[s].1, self.coords[s].0));
        self.col_ptr.clear();
        self.col_ptr.resize(self.n + 1, 0);
        self.row_idx.clear();
        self.row_idx.resize(nnz, 0);
        self.csc_of_slot.clear();
        self.csc_of_slot.resize(nnz, 0);
        for (pos, &slot) in order.iter().enumerate() {
            let (row, col) = self.coords[slot];
            self.row_idx[pos] = row as usize;
            self.csc_of_slot[slot] = pos;
            self.col_ptr[col as usize + 1] += 1;
        }
        for c in 0..self.n {
            self.col_ptr[c + 1] += self.col_ptr[c];
        }
        self.csc_vals.clear();
        self.csc_vals.resize(nnz, 0.0);
        self.sealed = true;
    }

    /// The fused symbolic + numeric Gilbert–Peierls factorization:
    /// computes the column ordering, then for each column the DFS reach
    /// (symbolic), the sparse triangular solve (numeric), and a
    /// threshold-pivot choice, recording the `L`/`U` patterns for later
    /// numeric-only refactorizations.
    fn factor_fresh(&mut self) -> Result<(), SpiceError> {
        let n = self.n;
        let q: Vec<usize> = match self.ordering {
            FillOrdering::Natural => (0..n).collect(),
            FillOrdering::MinDegree => min_degree(n, &self.col_ptr, &self.row_idx),
        };
        let mut pinv = vec![usize::MAX; n];
        let mut pivot_row = vec![0usize; n];
        let mut lp = Vec::with_capacity(n + 1);
        lp.push(0usize);
        let mut li: Vec<usize> = Vec::new();
        let mut lx: Vec<f64> = Vec::new();
        let mut up = Vec::with_capacity(n + 1);
        up.push(0usize);
        let mut ui: Vec<usize> = Vec::new();
        let mut ux: Vec<f64> = Vec::new();
        let mut udiag = vec![0.0; n];

        let mut x = vec![0.0; n];
        let mut flag = vec![usize::MAX; n];
        let mut pattern: Vec<usize> = Vec::with_capacity(n);
        let mut stack: Vec<usize> = Vec::new();
        let mut pstack: Vec<usize> = Vec::new();
        let mut lcol: Vec<(usize, f64)> = Vec::new();
        let mut ucol: Vec<(usize, f64)> = Vec::new();

        for k in 0..n {
            let col = q[k];
            // Symbolic reach: DFS from every A(:,col) entry through the
            // partial L, collecting the nonzero pattern of L \ A(:,col)
            // in post-order (dependencies first).
            pattern.clear();
            for p in self.col_ptr[col]..self.col_ptr[col + 1] {
                let root = self.row_idx[p];
                if flag[root] == k {
                    continue;
                }
                stack.clear();
                pstack.clear();
                stack.push(root);
                pstack.push(usize::MAX);
                while let Some(&node) = stack.last() {
                    let depth = stack.len() - 1;
                    if flag[node] != k {
                        flag[node] = k;
                        pstack[depth] = if pinv[node] != usize::MAX {
                            lp[pinv[node]]
                        } else {
                            usize::MAX
                        };
                    }
                    let mut descended = false;
                    if pinv[node] != usize::MAX {
                        let end = lp[pinv[node] + 1];
                        let mut p2 = pstack[depth];
                        while p2 < end {
                            let child = li[p2];
                            p2 += 1;
                            if flag[child] != k {
                                pstack[depth] = p2;
                                stack.push(child);
                                pstack.push(usize::MAX);
                                descended = true;
                                break;
                            }
                        }
                        if !descended {
                            pstack[depth] = end;
                        }
                    }
                    if !descended {
                        stack.pop();
                        pstack.pop();
                        pattern.push(node);
                    }
                }
            }

            // Numeric: sparse lower-triangular solve on the pattern, in
            // reverse post-order (every node before the rows it updates).
            for p in self.col_ptr[col]..self.col_ptr[col + 1] {
                x[self.row_idx[p]] = self.csc_vals[p];
            }
            for &node in pattern.iter().rev() {
                if pinv[node] != usize::MAX {
                    let j = pinv[node];
                    let xv = x[node];
                    for p2 in lp[j]..lp[j + 1] {
                        x[li[p2]] -= lx[p2] * xv;
                    }
                }
            }

            // Threshold pivoting over the not-yet-pivotal pattern rows:
            // keep the structural diagonal when it is large enough,
            // otherwise take the column maximum.
            let mut best_row = usize::MAX;
            let mut best_abs = 0.0f64;
            let mut diag_abs: Option<f64> = None;
            for &node in &pattern {
                if pinv[node] == usize::MAX {
                    let a = x[node].abs();
                    if a > best_abs || (a == best_abs && node < best_row) {
                        best_abs = a;
                        best_row = node;
                    }
                    if node == col {
                        diag_abs = Some(a);
                    }
                }
            }
            if !best_abs.is_finite() || best_abs < 1e-300 {
                for &node in &pattern {
                    x[node] = 0.0;
                }
                return Err(SpiceError::SingularMatrix { row: col });
            }
            let pr = match diag_abs {
                Some(d) if d >= PIVOT_TOL * best_abs => col,
                _ => best_row,
            };
            let pivot = x[pr];
            pinv[pr] = k;
            pivot_row[k] = pr;
            udiag[k] = pivot;

            // Emit the column: pivotal rows go to U (as pivot
            // positions), the rest to L (scaled by the pivot), both
            // sorted for deterministic refactorization order.
            lcol.clear();
            ucol.clear();
            for &node in &pattern {
                let xv = x[node];
                x[node] = 0.0;
                if node == pr {
                    continue;
                }
                let i = pinv[node];
                if i == usize::MAX {
                    lcol.push((node, xv / pivot));
                } else {
                    ucol.push((i, xv));
                }
            }
            lcol.sort_unstable_by_key(|&(r, _)| r);
            ucol.sort_unstable_by_key(|&(i, _)| i);
            for &(r, v) in &lcol {
                li.push(r);
                lx.push(v);
            }
            lp.push(li.len());
            for &(i, v) in &ucol {
                ui.push(i);
                ux.push(v);
            }
            up.push(ui.len());
        }

        // Level schedule for the parallel refactor: a column's only
        // cross-column inputs are the L columns named by its U pattern.
        let mut level = vec![0usize; n];
        let mut max_level = 0usize;
        for k in 0..n {
            let mut lv = 0usize;
            for p in up[k]..up[k + 1] {
                lv = lv.max(level[ui[p]] + 1);
            }
            level[k] = lv;
            max_level = max_level.max(lv);
        }
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
        for (k, &lv) in level.iter().enumerate() {
            levels[lv].push(k);
        }

        self.sym = Some(Symbolic {
            q,
            pivot_row,
            lp,
            li,
            up,
            ui,
            levels,
        });
        self.lx = lx;
        self.ux = ux;
        self.udiag = udiag;
        Ok(())
    }

    /// Numeric-only refactorization along the stored pattern: no
    /// ordering, no DFS, no pivot search. Columns are processed
    /// sequentially, or level-by-level in parallel when
    /// `parallel_blocks` is on — the per-column arithmetic is identical
    /// either way, so both schedules produce bitwise-equal factors.
    fn refactor(&mut self) -> Result<(), NumericDegraded> {
        let Some(sym) = &self.sym else {
            return Err(NumericDegraded);
        };
        let n = self.n;
        let threads = if self.parallel {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        } else {
            1
        };
        let mut buf = ColumnValues {
            k: 0,
            diag: 0.0,
            ux: Vec::new(),
            lx: Vec::new(),
        };
        if threads < 2 {
            for k in 0..n {
                buf.k = k;
                if refactor_column(
                    sym,
                    &self.col_ptr,
                    &self.row_idx,
                    &self.csc_vals,
                    &self.lx,
                    &mut self.work,
                    &mut buf,
                )
                .is_err()
                {
                    self.work.fill(0.0);
                    return Err(NumericDegraded);
                }
                write_column(sym, &mut self.lx, &mut self.ux, &mut self.udiag, &buf);
            }
            return Ok(());
        }
        // Level-scheduled parallel refactor: within one level every
        // column's dependencies are already final, so levels narrow
        // enough to not amortize a spawn run sequentially and wide ones
        // (the independent cell blocks of a CIM row) fan out.
        for lev in 0..sym.levels.len() {
            let cols = &sym.levels[lev];
            if cols.len() < PAR_MIN_WIDTH {
                for &k in cols {
                    buf.k = k;
                    if refactor_column(
                        sym,
                        &self.col_ptr,
                        &self.row_idx,
                        &self.csc_vals,
                        &self.lx,
                        &mut self.work,
                        &mut buf,
                    )
                    .is_err()
                    {
                        self.work.fill(0.0);
                        return Err(NumericDegraded);
                    }
                    write_column(sym, &mut self.lx, &mut self.ux, &mut self.udiag, &buf);
                }
                continue;
            }
            let workers = threads.min(cols.len());
            let chunk = cols.len().div_ceil(workers);
            let (level_results, degraded) = {
                let lx_ref: &Vec<f64> = &self.lx;
                let col_ptr = &self.col_ptr;
                let row_idx = &self.row_idx;
                let csc_vals = &self.csc_vals;
                std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(workers);
                    for part in cols.chunks(chunk) {
                        handles.push(scope.spawn(move || {
                            let mut x = vec![0.0; n];
                            let mut out = Vec::with_capacity(part.len());
                            for &k in part {
                                let mut cv = ColumnValues {
                                    k,
                                    diag: 0.0,
                                    ux: Vec::new(),
                                    lx: Vec::new(),
                                };
                                if refactor_column(
                                    sym, col_ptr, row_idx, csc_vals, lx_ref, &mut x, &mut cv,
                                )
                                .is_err()
                                {
                                    return Err(NumericDegraded);
                                }
                                out.push(cv);
                            }
                            Ok(out)
                        }));
                    }
                    let mut all = Vec::with_capacity(cols.len());
                    let mut failed = false;
                    for h in handles {
                        match h.join() {
                            Ok(Ok(part)) => all.extend(part),
                            Ok(Err(NumericDegraded)) => failed = true,
                            Err(payload) => std::panic::resume_unwind(payload),
                        }
                    }
                    (all, failed)
                })
            };
            if degraded {
                return Err(NumericDegraded);
            }
            for cv in &level_results {
                write_column(sym, &mut self.lx, &mut self.ux, &mut self.udiag, cv);
            }
        }
        Ok(())
    }

    /// Forward/back triangular solve through the stored factors.
    fn lu_solve(&mut self, b: &[f64], out: &mut Vec<f64>) {
        let Some(sym) = &self.sym else {
            out.clear();
            out.resize(self.n, 0.0);
            return;
        };
        let n = self.n;
        self.fwd.clear();
        self.fwd.extend_from_slice(b);
        for k in 0..n {
            let yk = self.fwd[sym.pivot_row[k]];
            if yk != 0.0 {
                for p in sym.lp[k]..sym.lp[k + 1] {
                    self.fwd[sym.li[p]] -= self.lx[p] * yk;
                }
            }
        }
        self.y.clear();
        self.y.reserve(n);
        for k in 0..n {
            self.y.push(self.fwd[sym.pivot_row[k]]);
        }
        out.clear();
        out.resize(n, 0.0);
        for k in (0..n).rev() {
            let zk = self.y[k] / self.udiag[k];
            out[sym.q[k]] = zk;
            for p in sym.up[k]..sym.up[k + 1] {
                self.y[sym.ui[p]] -= self.ux[p] * zk;
            }
        }
    }
}

/// The shared numeric core of the refactorization: computes the `U`
/// values, `L` values, and pivot of one column into `cv`, using `x` as
/// a dense scatter buffer (all-zero on entry and on exit). Fails when
/// the reused pivot has degraded below [`REFACTOR_TOL`] of its column
/// maximum (or is non-finite).
fn refactor_column(
    sym: &Symbolic,
    col_ptr: &[usize],
    row_idx: &[usize],
    csc_vals: &[f64],
    lx_all: &[f64],
    x: &mut [f64],
    cv: &mut ColumnValues,
) -> Result<(), NumericDegraded> {
    let k = cv.k;
    let col = sym.q[k];
    for p in col_ptr[col]..col_ptr[col + 1] {
        x[row_idx[p]] = csc_vals[p];
    }
    cv.ux.clear();
    for p in sym.up[k]..sym.up[k + 1] {
        let i = sym.ui[p];
        let xv = x[sym.pivot_row[i]];
        cv.ux.push(xv);
        if xv != 0.0 {
            for p2 in sym.lp[i]..sym.lp[i + 1] {
                x[sym.li[p2]] -= lx_all[p2] * xv;
            }
        }
    }
    let pr = sym.pivot_row[k];
    let piv = x[pr];
    let mut colmax = piv.abs();
    for p2 in sym.lp[k]..sym.lp[k + 1] {
        colmax = colmax.max(x[sym.li[p2]].abs());
    }
    let ok = piv.is_finite()
        && colmax.is_finite()
        && piv.abs() >= 1e-300
        && piv.abs() >= REFACTOR_TOL * colmax;
    if ok {
        cv.diag = piv;
        cv.lx.clear();
        for p2 in sym.lp[k]..sym.lp[k + 1] {
            cv.lx.push(x[sym.li[p2]] / piv);
        }
    }
    // Restore the all-zero scatter invariant: the touched rows are
    // exactly the column's pattern (U pivot rows, L rows, the pivot).
    for p in sym.up[k]..sym.up[k + 1] {
        x[sym.pivot_row[sym.ui[p]]] = 0.0;
    }
    for p2 in sym.lp[k]..sym.lp[k + 1] {
        x[sym.li[p2]] = 0.0;
    }
    x[pr] = 0.0;
    if ok {
        Ok(())
    } else {
        Err(NumericDegraded)
    }
}

/// Writes one column's refactored values back into the shared factor
/// arrays (disjoint ranges per column, so any write order is fine).
fn write_column(
    sym: &Symbolic,
    lx: &mut [f64],
    ux: &mut [f64],
    udiag: &mut [f64],
    cv: &ColumnValues,
) {
    let k = cv.k;
    udiag[k] = cv.diag;
    ux[sym.up[k]..sym.up[k + 1]].copy_from_slice(&cv.ux);
    lx[sym.lp[k]..sym.lp[k + 1]].copy_from_slice(&cv.lx);
}

impl LinearSystem for SparseLu {
    fn dim(&self) -> usize {
        self.n
    }

    fn clear(&mut self) {
        self.values.fill(0.0);
    }

    #[inline]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        let key = (row as u32, col as u32);
        match self.slot_of.get(&key) {
            Some(&slot) => self.values[slot as usize] += value,
            None => {
                if self.sealed {
                    // A stamp at a new position means the topology
                    // changed: the pattern grows (never shrinks — stale
                    // entries stay as structural zeros) and the symbolic
                    // analysis is invalidated.
                    self.sealed = false;
                    self.sym = None;
                }
                let slot = self.coords.len() as u32;
                self.slot_of.insert(key, slot);
                self.coords.push(key);
                self.values.push(value);
            }
        }
    }

    fn solve_into(
        &mut self,
        b: &[f64],
        out: &mut Vec<f64>,
        tele: &Telemetry,
    ) -> Result<SolveInfo, SpiceError> {
        assert_eq!(b.len(), self.n);
        if !self.sealed {
            self.seal();
        }
        for (slot, &v) in self.values.iter().enumerate() {
            self.csc_vals[self.csc_of_slot[slot]] = v;
        }
        let mut symbolic = false;
        if self.sym.is_none() {
            let _span = tele.span("spice.solver.symbolic");
            self.factor_fresh()?;
            symbolic = true;
            self.symbolic_count += 1;
        } else if self.refactor().is_err() {
            // Pivot degradation: the values have drifted too far from
            // the ones the pivot sequence was chosen for. Re-analyze.
            self.sym = None;
            let _span = tele.span("spice.solver.symbolic");
            self.factor_fresh()?;
            symbolic = true;
            self.symbolic_count += 1;
        }
        self.numeric_count += 1;
        self.lu_solve(b, out);
        Ok(SolveInfo {
            backend: SolverBackend::Sparse,
            symbolic,
        })
    }

    fn matvec_into(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for (slot, &(r, c)) in self.coords.iter().enumerate() {
            y[r as usize] += self.values[slot] * x[c as usize];
        }
    }

    fn resolve_into(&mut self, b: &[f64], out: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        self.lu_solve(b, out);
    }

    fn solve_transposed_into(&mut self, c: &[f64], out: &mut Vec<f64>) {
        assert_eq!(c.len(), self.n);
        let Some(sym) = &self.sym else {
            out.clear();
            out.resize(self.n, 0.0);
            return;
        };
        let n = self.n;
        // Uᵀ·t = Qᵀ·c, ascending: column k of U references only
        // earlier pivot positions, so row k of Uᵀ is closed over t[..k].
        self.y.clear();
        self.y.reserve(n);
        for k in 0..n {
            let mut tk = c[sym.q[k]];
            for p in sym.up[k]..sym.up[k + 1] {
                tk -= self.ux[p] * self.y[sym.ui[p]];
            }
            self.y.push(tk / self.udiag[k]);
        }
        // Lᵀ·w = t, descending: the rows of column k of L become
        // pivotal only at later steps, so they are already solved.
        out.clear();
        out.resize(n, 0.0);
        for k in (0..n).rev() {
            let mut wk = self.y[k];
            for p in sym.lp[k]..sym.lp[k + 1] {
                wk -= self.lx[p] * out[sym.li[p]];
            }
            out[sym.pivot_row[k]] = wk;
        }
    }

    fn inf_norm(&mut self) -> f64 {
        self.fwd.clear();
        self.fwd.resize(self.n, 0.0);
        for (slot, &(r, _)) in self.coords.iter().enumerate() {
            self.fwd[r as usize] += self.values[slot].abs();
        }
        self.fwd.iter().fold(0.0f64, |a, &v| a.max(v))
    }

    fn one_norm(&mut self) -> f64 {
        self.fwd.clear();
        self.fwd.resize(self.n, 0.0);
        for (slot, &(_, c)) in self.coords.iter().enumerate() {
            self.fwd[c as usize] += self.values[slot].abs();
        }
        self.fwd.iter().fold(0.0f64, |a, &v| a.max(v))
    }

    fn pivot_growth(&self) -> f64 {
        if self.sym.is_none() {
            return 1.0;
        }
        let denom = self.values.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if denom <= 0.0 {
            return 1.0;
        }
        let num = self
            .udiag
            .iter()
            .chain(self.ux.iter())
            .fold(0.0f64, |a, &v| a.max(v.abs()));
        num / denom
    }

    fn backend(&self) -> SolverBackend {
        SolverBackend::Sparse
    }
}

/// Greedy minimum-degree ordering on the pattern of `A + Aᵀ`
/// (clique-fill elimination model, smallest-index tie-break). Naive
/// `O(n²)` selection — the ordering runs once per topology and the
/// systems it serves top out at a few thousand unknowns.
fn min_degree(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    use std::collections::HashSet;
    let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for col in 0..n {
        for &row in &row_idx[col_ptr[col]..col_ptr[col + 1]] {
            if row != col {
                adj[row].insert(col);
                adj[col].insert(row);
            }
        }
    }
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for (v, ok) in alive.iter().enumerate() {
            if *ok && adj[v].len() < best_deg {
                best_deg = adj[v].len();
                best = v;
            }
        }
        let neigh: Vec<usize> = adj[best].iter().copied().collect();
        for &u in &neigh {
            adj[u].remove(&best);
        }
        for i in 0..neigh.len() {
            for j in (i + 1)..neigh.len() {
                let (u, v) = (neigh[i], neigh[j]);
                if adj[u].insert(v) {
                    adj[v].insert(u);
                }
            }
        }
        adj[best].clear();
        alive[best] = false;
        order.push(best);
    }
    order
}

/// The backend actually held by a [`crate::Workspace`], selected from a
/// [`SolverConfig`] and the system size.
#[derive(Debug, Clone)]
pub(crate) enum SolverState {
    Dense(DenseLu),
    Sparse(Box<SparseLu>),
}

impl Default for SolverState {
    fn default() -> Self {
        SolverState::Dense(DenseLu::default())
    }
}

impl SolverState {
    /// Builds the backend `config` selects for an `n`-unknown system.
    pub(crate) fn for_config(n: usize, config: SolverConfig) -> SolverState {
        if config.wants_sparse(n) {
            SolverState::Sparse(Box::new(
                SparseLu::with_dim(n)
                    .with_ordering(config.ordering)
                    .with_parallel_blocks(config.parallel_blocks),
            ))
        } else {
            SolverState::Dense(DenseLu::with_dim(n))
        }
    }

    /// Whether this state matches what `config` would select for `n`.
    pub(crate) fn matches(&self, n: usize, config: SolverConfig) -> bool {
        match self {
            SolverState::Dense(d) => d.dim() == n && !config.wants_sparse(n),
            SolverState::Sparse(s) => {
                s.dim() == n
                    && config.wants_sparse(n)
                    && s.ordering == config.ordering
                    && s.parallel == config.parallel_blocks
            }
        }
    }

    /// The sparse backend, when active (for tests and diagnostics).
    pub(crate) fn as_sparse(&self) -> Option<&SparseLu> {
        match self {
            SolverState::Sparse(s) => Some(s),
            SolverState::Dense(_) => None,
        }
    }
}

impl LinearSystem for SolverState {
    fn dim(&self) -> usize {
        match self {
            SolverState::Dense(d) => d.dim(),
            SolverState::Sparse(s) => s.dim(),
        }
    }

    fn clear(&mut self) {
        match self {
            SolverState::Dense(d) => d.clear(),
            SolverState::Sparse(s) => s.clear(),
        }
    }

    #[inline]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        match self {
            SolverState::Dense(d) => d.add(row, col, value),
            SolverState::Sparse(s) => s.add(row, col, value),
        }
    }

    fn solve_into(
        &mut self,
        b: &[f64],
        out: &mut Vec<f64>,
        tele: &Telemetry,
    ) -> Result<SolveInfo, SpiceError> {
        match self {
            SolverState::Dense(d) => d.solve_into(b, out, tele),
            SolverState::Sparse(s) => s.solve_into(b, out, tele),
        }
    }

    fn matvec_into(&mut self, x: &[f64], y: &mut [f64]) {
        match self {
            SolverState::Dense(d) => d.matvec_into(x, y),
            SolverState::Sparse(s) => s.matvec_into(x, y),
        }
    }

    fn resolve_into(&mut self, b: &[f64], out: &mut Vec<f64>) {
        match self {
            SolverState::Dense(d) => d.resolve_into(b, out),
            SolverState::Sparse(s) => s.resolve_into(b, out),
        }
    }

    fn solve_transposed_into(&mut self, c: &[f64], out: &mut Vec<f64>) {
        match self {
            SolverState::Dense(d) => d.solve_transposed_into(c, out),
            SolverState::Sparse(s) => s.solve_transposed_into(c, out),
        }
    }

    fn inf_norm(&mut self) -> f64 {
        match self {
            SolverState::Dense(d) => d.inf_norm(),
            SolverState::Sparse(s) => s.inf_norm(),
        }
    }

    fn one_norm(&mut self) -> f64 {
        match self {
            SolverState::Dense(d) => d.one_norm(),
            SolverState::Sparse(s) => s.one_norm(),
        }
    }

    fn pivot_growth(&self) -> f64 {
        match self {
            SolverState::Dense(d) => d.pivot_growth(),
            SolverState::Sparse(s) => s.pivot_growth(),
        }
    }

    fn backend(&self) -> SolverBackend {
        match self {
            SolverState::Dense(d) => d.backend(),
            SolverState::Sparse(s) => s.backend(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tele() -> Telemetry {
        Telemetry::off()
    }

    /// Stamps the same dense entries into both backends.
    fn stamp_both(entries: &[(usize, usize, f64)], n: usize) -> (DenseLu, SparseLu) {
        let mut d = DenseLu::with_dim(n);
        let mut s = SparseLu::with_dim(n);
        for &(r, c, v) in entries {
            d.add(r, c, v);
            s.add(r, c, v);
        }
        (d, s)
    }

    fn max_dv(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn sparse_matches_dense_on_a_known_system() {
        // A = [[2,1,0],[1,3,1],[0,1,4]], b = [4,10,14] → x = [1,2,3].
        let entries = [
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
        ];
        let (mut d, mut s) = stamp_both(&entries, 3);
        let b = [4.0, 10.0, 14.0];
        let (mut xd, mut xs) = (Vec::new(), Vec::new());
        d.solve_into(&b, &mut xd, &tele()).unwrap();
        let info = s.solve_into(&b, &mut xs, &tele()).unwrap();
        assert_eq!(info.backend, SolverBackend::Sparse);
        assert!(info.symbolic);
        assert!(max_dv(&xd, &xs) < 1e-12, "{xd:?} vs {xs:?}");
        for (got, want) in xs.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_pivots_through_a_zero_diagonal() {
        // MNA voltage-source shape: zero diagonal on the branch row.
        let entries = [(0, 1, 1.0), (1, 0, 1.0), (0, 0, 1e-12)];
        let (mut d, mut s) = stamp_both(&entries, 2);
        let b = [5.0, 7.0];
        let (mut xd, mut xs) = (Vec::new(), Vec::new());
        d.solve_into(&b, &mut xd, &tele()).unwrap();
        s.solve_into(&b, &mut xs, &tele()).unwrap();
        assert!(max_dv(&xd, &xs) < 1e-10, "{xd:?} vs {xs:?}");
    }

    #[test]
    fn symbolic_analysis_is_reused_across_value_changes() {
        let mut s = SparseLu::with_dim(3);
        let pattern = [
            (0, 0, 2.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 2.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 2.0),
        ];
        let mut x = Vec::new();
        for round in 1..=10 {
            s.clear();
            for &(r, c, v) in &pattern {
                s.add(r, c, v * round as f64);
            }
            let info = s.solve_into(&[1.0, 0.0, 1.0], &mut x, &tele()).unwrap();
            assert_eq!(info.symbolic, round == 1, "round {round}");
        }
        assert_eq!(s.symbolic_analyses(), 1);
        assert_eq!(s.numeric_factorizations(), 10);
    }

    #[test]
    fn refactor_reproduces_the_fresh_factorization() {
        // Same values solved twice: the numeric-only refactorization
        // must give the same answer as the fused first pass.
        let entries = [
            (0, 0, 3.0),
            (0, 2, 1.0),
            (1, 1, 4.0),
            (1, 0, -2.0),
            (2, 2, 5.0),
            (2, 1, 0.5),
        ];
        let mut s = SparseLu::with_dim(3);
        for &(r, c, v) in &entries {
            s.add(r, c, v);
        }
        let b = [1.0, 2.0, 3.0];
        let mut first = Vec::new();
        s.solve_into(&b, &mut first, &tele()).unwrap();
        s.clear();
        for &(r, c, v) in &entries {
            s.add(r, c, v);
        }
        let mut second = Vec::new();
        let info = s.solve_into(&b, &mut second, &tele()).unwrap();
        assert!(!info.symbolic);
        assert!(max_dv(&first, &second) < 1e-14, "{first:?} vs {second:?}");
    }

    #[test]
    fn new_pattern_entry_invalidates_the_symbolic_analysis() {
        let mut s = SparseLu::with_dim(2);
        s.add(0, 0, 1.0);
        s.add(1, 1, 1.0);
        let mut x = Vec::new();
        s.solve_into(&[1.0, 2.0], &mut x, &tele()).unwrap();
        assert_eq!(s.symbolic_analyses(), 1);
        // A new off-diagonal coupling appears: topology change.
        s.clear();
        s.add(0, 0, 2.0);
        s.add(1, 1, 2.0);
        s.add(0, 1, -1.0);
        let info = s.solve_into(&[1.0, 2.0], &mut x, &tele()).unwrap();
        assert!(info.symbolic);
        assert_eq!(s.symbolic_analyses(), 2);
    }

    #[test]
    fn singular_sparse_system_is_reported() {
        let mut s = SparseLu::with_dim(2);
        s.add(0, 0, 1.0);
        s.add(0, 1, 2.0);
        s.add(1, 0, 2.0);
        s.add(1, 1, 4.0);
        let mut x = Vec::new();
        assert!(matches!(
            s.solve_into(&[1.0, 2.0], &mut x, &tele()),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn randomized_parity_dense_vs_sparse() {
        // Deterministic pseudo-random sparse systems across sizes and
        // both orderings; sparse must track dense to 1e-10 max-norm.
        let mut seed = 0x5eed5eedu64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for &n in &[5usize, 17, 40] {
            for &ordering in &[FillOrdering::MinDegree, FillOrdering::Natural] {
                let mut entries = Vec::new();
                for r in 0..n {
                    entries.push((r, r, 4.0 + next()));
                    for _ in 0..3 {
                        let c = ((next().abs() * n as f64) as usize).min(n - 1);
                        entries.push((r, c, next()));
                    }
                }
                let mut d = DenseLu::with_dim(n);
                let mut s = SparseLu::with_dim(n).with_ordering(ordering);
                for &(r, c, v) in &entries {
                    d.add(r, c, v);
                    s.add(r, c, v);
                }
                let b: Vec<f64> = (0..n).map(|_| next()).collect();
                let (mut xd, mut xs) = (Vec::new(), Vec::new());
                d.solve_into(&b, &mut xd, &tele()).unwrap();
                s.solve_into(&b, &mut xs, &tele()).unwrap();
                let dv = max_dv(&xd, &xs);
                assert!(dv < 1e-10, "n={n} {ordering:?}: max dv {dv}");
            }
        }
    }

    #[test]
    fn parallel_refactor_is_bitwise_equal_to_sequential() {
        // A bordered-block-diagonal system shaped like a CIM row: many
        // independent 2×2 blocks plus one shared border unknown.
        let blocks = 40usize;
        let n = 2 * blocks + 1;
        let border = n - 1;
        let build = |parallel: bool| {
            let mut s = SparseLu::with_dim(n).with_parallel_blocks(parallel);
            for blk in 0..blocks {
                let a = 2 * blk;
                let b = a + 1;
                s.add(a, a, 3.0 + blk as f64 * 0.01);
                s.add(a, b, -1.0);
                s.add(b, a, -1.0);
                s.add(b, b, 2.5);
                s.add(b, border, -0.5);
                s.add(border, b, -0.5);
            }
            s.add(border, border, blocks as f64);
            s
        };
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let solve_twice = |mut s: SparseLu| {
            let mut first = Vec::new();
            s.solve_into(&b, &mut first, &tele()).unwrap();
            // Second solve exercises the refactor path.
            let mut second = Vec::new();
            s.solve_into(&b, &mut second, &tele()).unwrap();
            (first, second)
        };
        let (seq1, seq2) = solve_twice(build(false));
        let (par1, par2) = solve_twice(build(true));
        assert_eq!(seq1, par1, "first (symbolic) solves must agree");
        assert_eq!(seq2, par2, "refactor solves must be bitwise equal");
    }

    #[test]
    fn min_degree_is_a_permutation_and_prefers_leaves() {
        // Star graph: the hub must be eliminated last.
        let n = 6;
        let mut s = SparseLu::with_dim(n);
        for leaf in 1..n {
            s.add(0, leaf, -1.0);
            s.add(leaf, 0, -1.0);
            s.add(leaf, leaf, 2.0);
        }
        s.add(0, 0, 5.0);
        s.seal();
        let order = min_degree(n, &s.col_ptr, &s.row_idx);
        let mut seen = vec![false; n];
        for &v in &order {
            assert!(!seen[v]);
            seen[v] = true;
        }
        // The hub stays until the end: only once enough leaves are gone
        // does its degree tie with a leaf's (and then the fill of either
        // choice is zero, so either may go first).
        let hub_pos = order.iter().position(|&v| v == 0);
        assert!(
            hub_pos >= Some(n - 2),
            "hub eliminated too early: {order:?}"
        );
    }

    #[test]
    fn auto_threshold_selects_backends() {
        let small = SolverState::for_config(10, SolverConfig::auto());
        assert_eq!(small.backend(), SolverBackend::Dense);
        let large =
            SolverState::for_config(SolverConfig::AUTO_SPARSE_THRESHOLD, SolverConfig::auto());
        assert_eq!(large.backend(), SolverBackend::Sparse);
        let forced = SolverState::for_config(2, SolverConfig::sparse());
        assert_eq!(forced.backend(), SolverBackend::Sparse);
        assert!(forced.matches(2, SolverConfig::sparse()));
        assert!(!forced.matches(2, SolverConfig::dense()));
        assert!(!forced.matches(3, SolverConfig::sparse()));
    }

    #[test]
    fn dense_backend_reports_no_symbolic_work() {
        let mut d = DenseLu::with_dim(1);
        d.add(0, 0, 2.0);
        let mut x = Vec::new();
        let info = d.solve_into(&[4.0], &mut x, &tele()).unwrap();
        assert_eq!(info.backend, SolverBackend::Dense);
        assert!(!info.symbolic);
        assert_eq!(x, vec![2.0]);
    }

    /// The system used by the health-primitive tests below:
    /// A = [[2,1,0],[1,3,1],[0,1,4]], b = [4,10,14] → x = [1,2,3].
    fn health_entries() -> Vec<(usize, usize, f64)> {
        vec![
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
        ]
    }

    fn check_health_primitives(sys: &mut dyn LinearSystem) {
        let b = [4.0, 10.0, 14.0];
        let mut x = Vec::new();
        sys.solve_into(&b, &mut x, &tele()).unwrap();

        // matvec over the stamped values reproduces b (the stamped
        // matrix must survive the factorization on both backends).
        let mut y = vec![0.0; 3];
        sys.matvec_into(&x, &mut y);
        for (got, want) in y.iter().zip(b) {
            assert!((got - want).abs() < 1e-12, "{y:?}");
        }

        // resolve through the stored factors replays the solution
        // bitwise: identical factors, identical triangular solves.
        let mut again = Vec::new();
        sys.resolve_into(&b, &mut again);
        assert_eq!(x, again);

        // The transposed solve satisfies Aᵀ·w = c.
        let c = [1.0, -2.0, 0.5];
        let mut w = Vec::new();
        sys.solve_transposed_into(&c, &mut w);
        let a = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]];
        for (k, &ck) in c.iter().enumerate() {
            let got: f64 = (0..3).map(|r| a[r][k] * w[r]).sum();
            assert!((got - ck).abs() < 1e-12, "col {k}: {got} vs {ck}");
        }

        // Norms of the stamped matrix, and a sane pivot growth.
        assert!((sys.inf_norm() - 5.0).abs() < 1e-15);
        assert!((sys.one_norm() - 5.0).abs() < 1e-15);
        let growth = sys.pivot_growth();
        assert!(growth.is_finite() && growth > 0.0, "growth {growth}");
    }

    #[test]
    fn dense_health_primitives() {
        let mut d = DenseLu::with_dim(3);
        for (r, c, v) in health_entries() {
            d.add(r, c, v);
        }
        check_health_primitives(&mut d);
    }

    #[test]
    fn sparse_health_primitives() {
        for &ordering in &[FillOrdering::MinDegree, FillOrdering::Natural] {
            let mut s = SparseLu::with_dim(3).with_ordering(ordering);
            for (r, c, v) in health_entries() {
                s.add(r, c, v);
            }
            check_health_primitives(&mut s);
        }
    }

    #[test]
    fn unfactored_backends_report_neutral_health() {
        let mut d = DenseLu::with_dim(2);
        d.add(0, 0, 1.0);
        let mut s = SparseLu::with_dim(2);
        s.add(0, 0, 1.0);
        assert_eq!(d.pivot_growth(), 1.0);
        assert_eq!(s.pivot_growth(), 1.0);
        let mut out = Vec::new();
        d.resolve_into(&[1.0, 2.0], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        s.solve_transposed_into(&[1.0, 2.0], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn invalidated_symbolic_analysis_reruns_on_the_next_solve() {
        let mut s = SparseLu::with_dim(2);
        s.add(0, 0, 2.0);
        s.add(1, 1, 3.0);
        let mut x = Vec::new();
        s.solve_into(&[2.0, 3.0], &mut x, &tele()).unwrap();
        assert_eq!(s.symbolic_analyses(), 1);
        s.invalidate_symbolic();
        let info = s.solve_into(&[2.0, 3.0], &mut x, &tele()).unwrap();
        assert!(info.symbolic);
        assert_eq!(s.symbolic_analyses(), 2);
        assert_eq!(x, vec![1.0, 1.0]);
    }
}
