//! Bounded-variable revised simplex: primal for cold starts, dual for
//! warm starts from a parent basis.
//!
//! Solves `min c'x` subject to `Ax ≤/= b` and `l ≤ x ≤ u`, handling the
//! bounds natively (no extra rows), with:
//!
//! * slack-plus-artificial phase 1 (artificials only where the slack basis
//!   is infeasible);
//! * dense explicit basis inverse, refactorized periodically for stability;
//! * Dantzig pricing with an automatic Bland's-rule fallback against
//!   cycling;
//! * bound-flip ("long step") handling for boxed variables;
//! * a **dual simplex** ([`SimplexEngine::solve_warm`]) that restarts from
//!   a previously optimal [`Basis`] after bound tightenings — the
//!   branch-and-bound driver reuses the parent node's basis instead of
//!   re-solving each child from scratch.
//!
//! Columns are stored in a flat compressed-sparse-column layout
//! (`col_ptr`/`row_idx`/`col_val`), shared by every solve on the same
//! [`SimplexEngine`]; slack and artificial columns are materialized once at
//! construction so a warm start never reallocates.
//!
//! Callers normally go through [`crate::solve`], which adds branch-and-bound
//! on top; this module is public so the LP layer can be tested and used
//! directly.

use crate::MilpError;

/// Row comparison in an [`LpProblem`] — `Le` (`≤`) or `Eq` (`=`).
/// `≥` rows must be pre-negated by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
}

/// A linear program in computational form: minimize `obj·x` over
/// `l ≤ x ≤ u` subject to the rows.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Number of structural variables.
    pub num_vars: usize,
    /// Sparse columns: `cols[j]` lists `(row, coefficient)` pairs.
    pub cols: Vec<Vec<(usize, f64)>>,
    /// Objective coefficients (length `num_vars`).
    pub obj: Vec<f64>,
    /// Constant added to the objective value.
    pub obj_offset: f64,
    /// Lower bounds (may be `NEG_INFINITY`).
    pub lb: Vec<f64>,
    /// Upper bounds (may be `INFINITY`).
    pub ub: Vec<f64>,
    /// Row kinds (length = number of rows).
    pub row_kind: Vec<RowKind>,
    /// Row right-hand sides.
    pub rhs: Vec<f64>,
}

impl LpProblem {
    /// An empty problem with `num_vars` variables, all in `[0, ∞)`, zero
    /// objective and no rows.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        LpProblem {
            num_vars,
            cols: vec![Vec::new(); num_vars],
            obj: vec![0.0; num_vars],
            obj_offset: 0.0,
            lb: vec![0.0; num_vars],
            ub: vec![f64::INFINITY; num_vars],
            row_kind: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Appends a row given as sparse `(var, coeff)` terms.
    pub fn add_row(&mut self, terms: &[(usize, f64)], kind: RowKind, rhs: f64) {
        let r = self.row_kind.len();
        for &(j, a) in terms {
            if a != 0.0 {
                self.cols[j].push((r, a));
            }
        }
        self.row_kind.push(kind);
        self.rhs.push(rhs);
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.row_kind.len()
    }
}

/// Outcome status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
    /// No feasible point.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
}

/// Result of [`solve_lp`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value (meaningful only when `status == Optimal`).
    pub objective: f64,
    /// Primal values for the structural variables.
    pub x: Vec<f64>,
    /// Row dual values `y = c_B B⁻¹` at the optimum (empty unless
    /// `Optimal`). For a minimization with `≤` rows, `y_i ≤ 0`; `-y_i` is
    /// the shadow price of row `i`'s right-hand side.
    pub duals: Vec<f64>,
    /// Simplex iterations used (both phases, primal and dual).
    pub iterations: usize,
    /// Basis-change pivots (iterations that replaced a basic variable),
    /// primal and dual combined.
    pub pivots: usize,
    /// Pivots with a zero step length (degenerate).
    pub degenerate_pivots: usize,
    /// Nonbasic bound-to-bound flips (iterations without a basis change).
    pub bound_flips: usize,
    /// Basis-inverse rebuilds (initial factorization, periodic refresh,
    /// and post-repair rebuilds).
    pub refactorizations: usize,
    /// Basis changes performed by the warm-start dual simplex (a subset
    /// of `pivots`; zero for cold solves).
    pub dual_pivots: usize,
}

impl LpSolution {
    fn empty(status: LpStatus, n: usize) -> Self {
        LpSolution {
            status,
            objective: 0.0,
            x: vec![0.0; n],
            duals: Vec::new(),
            iterations: 0,
            pivots: 0,
            degenerate_pivots: 0,
            bound_flips: 0,
            refactorizations: 0,
            dual_pivots: 0,
        }
    }
}

const TOL: f64 = 1e-9;
const RATIO_TOL: f64 = 1e-10;
/// Minimum magnitude for an acceptable pivot element; rows with smaller
/// direction components are treated as unaffected, keeping the basis
/// well-conditioned.
const PIVOT_TOL: f64 = 1e-7;
/// Tolerance on reduced-cost signs when deciding whether a restored basis
/// is still dual feasible, and on primal bound violations in the dual
/// simplex.
const WARM_TOL: f64 = 1e-7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// A snapshot of the simplex basis at the end of a solve, reusable to
/// warm-start a later solve on the same [`SimplexEngine`] after bound
/// changes. Opaque: the only useful operations are cloning it and handing
/// it back to [`SimplexEngine::solve_warm`].
#[derive(Debug, Clone)]
pub struct Basis {
    state: Vec<ColState>,
    basis: Vec<usize>,
    art_sign: Vec<f64>,
}

/// A reusable simplex solver bound to one problem's constraint matrix.
///
/// The engine owns the columns (structural, slack and artificial) in a
/// cache-friendly flat CSC layout plus the full working tableau state.
/// Between solves only the variable bounds may change
/// ([`SimplexEngine::set_bound`] / [`SimplexEngine::reset_bounds`]), which
/// is exactly the branch-and-bound use case: each node tightens a few
/// bounds, solves, and passes its [`Basis`] down to its children.
pub struct SimplexEngine {
    n: usize,
    m: usize,
    ncols: usize,
    // Flat CSC over all columns: structural 0..n, slack n..n+m,
    // artificial n+m..n+2m. Artificial columns have exactly one entry
    // whose value is rewritten to ±1 per solve (`art_sign`).
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    col_val: Vec<f64>,
    obj: Vec<f64>,
    obj_offset: f64,
    rhs: Vec<f64>,
    // Original structural bounds, restored by `reset_bounds`.
    base_lb: Vec<f64>,
    base_ub: Vec<f64>,
    // Working state.
    lb: Vec<f64>,
    ub: Vec<f64>,
    cost: Vec<f64>,
    state: Vec<ColState>,
    x: Vec<f64>,
    basis: Vec<usize>,
    binv: Vec<f64>, // row-major m x m
    art_sign: Vec<f64>,
    // Counters for the solve in progress.
    iterations: usize,
    pivots: usize,
    pivots_since_refactor: usize,
    degenerate_pivots: usize,
    bound_flips: usize,
    refactorizations: usize,
    dual_pivots: usize,
}

impl SimplexEngine {
    /// Builds an engine for `p`, copying its matrix into the flat CSC
    /// layout and materializing the slack and artificial columns.
    #[must_use]
    pub fn new(p: &LpProblem) -> Self {
        let n = p.num_vars;
        let m = p.num_rows();
        let ncols = n + 2 * m;
        let nnz: usize = p.cols.iter().map(Vec::len).sum::<usize>() + 2 * m;
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut col_val = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in &p.cols {
            for &(r, v) in col {
                row_idx.push(r);
                col_val.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        for i in 0..m {
            // Slack column.
            row_idx.push(i);
            col_val.push(1.0);
            col_ptr.push(row_idx.len());
        }
        for i in 0..m {
            // Artificial column; sign rewritten per solve.
            row_idx.push(i);
            col_val.push(1.0);
            col_ptr.push(row_idx.len());
        }
        let mut lb = vec![0.0; ncols];
        let mut ub = vec![0.0; ncols];
        lb[..n].copy_from_slice(&p.lb);
        ub[..n].copy_from_slice(&p.ub);
        for i in 0..m {
            let s = n + i;
            match p.row_kind[i] {
                RowKind::Le => {
                    lb[s] = 0.0;
                    ub[s] = f64::INFINITY;
                }
                RowKind::Eq => {
                    lb[s] = 0.0;
                    ub[s] = 0.0;
                }
            }
        }
        SimplexEngine {
            n,
            m,
            ncols,
            col_ptr,
            row_idx,
            col_val,
            obj: p.obj.clone(),
            obj_offset: p.obj_offset,
            rhs: p.rhs.clone(),
            base_lb: p.lb.clone(),
            base_ub: p.ub.clone(),
            lb,
            ub,
            cost: vec![0.0; ncols],
            state: vec![ColState::AtLower; ncols],
            x: vec![0.0; ncols],
            basis: Vec::with_capacity(m),
            binv: vec![0.0; m * m],
            art_sign: vec![1.0; m],
            iterations: 0,
            pivots: 0,
            pivots_since_refactor: 0,
            degenerate_pivots: 0,
            bound_flips: 0,
            refactorizations: 0,
            dual_pivots: 0,
        }
    }

    /// Restores every structural variable's bounds to the problem the
    /// engine was built from.
    pub fn reset_bounds(&mut self) {
        self.lb[..self.n].copy_from_slice(&self.base_lb);
        self.ub[..self.n].copy_from_slice(&self.base_ub);
    }

    /// Tightens variable `j`'s working bounds to the intersection with
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a structural variable index.
    pub fn set_bound(&mut self, j: usize, lo: f64, hi: f64) {
        assert!(j < self.n, "set_bound on non-structural column {j}");
        self.lb[j] = self.lb[j].max(lo);
        self.ub[j] = self.ub[j].min(hi);
    }

    /// Current working bounds of structural variable `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a structural variable index.
    #[must_use]
    pub fn bound(&self, j: usize) -> (f64, f64) {
        assert!(j < self.n, "bound on non-structural column {j}");
        (self.lb[j], self.ub[j])
    }

    /// Snapshots the basis left by the previous solve for later reuse
    /// through [`SimplexEngine::solve_warm`].
    #[must_use]
    pub fn basis(&self) -> Basis {
        Basis {
            state: self.state.clone(),
            basis: self.basis.clone(),
            art_sign: self.art_sign.clone(),
        }
    }

    fn reset_counters(&mut self) {
        self.iterations = 0;
        self.pivots = 0;
        self.pivots_since_refactor = 0;
        self.degenerate_pivots = 0;
        self.bound_flips = 0;
        self.refactorizations = 0;
        self.dual_pivots = 0;
    }

    fn col(
        &self,
        j: usize,
    ) -> std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'_, usize>>,
        std::iter::Copied<std::slice::Iter<'_, f64>>,
    > {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.col_val[lo..hi].iter().copied())
    }

    fn binv_at(&self, i: usize, j: usize) -> f64 {
        self.binv[i * self.m + j]
    }

    /// w = B^{-1} · a_j for column j.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        for (r, v) in self.col(j) {
            for (i, wi) in w.iter_mut().enumerate() {
                *wi += self.binv_at(i, r) * v;
            }
        }
        w
    }

    /// y = c_B^T · B^{-1}.
    fn btran(&self, cb: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        for (i, &c) in cb.iter().enumerate().take(self.m) {
            if c != 0.0 {
                for (j, yj) in y.iter_mut().enumerate() {
                    *yj += c * self.binv_at(i, j);
                }
            }
        }
        y
    }

    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let mut d = self.cost[j];
        for (r, v) in self.col(j) {
            d -= y[r] * v;
        }
        d
    }

    /// Recompute basic variable values from nonbasic bound values.
    fn recompute_basics(&mut self) {
        // residual = rhs - A x_N
        let mut resid = self.rhs.clone();
        for j in 0..self.ncols {
            if let ColState::Basic(_) = self.state[j] {
                continue;
            }
            let xj = self.x[j];
            if xj != 0.0 {
                for (r, v) in self.col(j) {
                    resid[r] -= v * xj;
                }
            }
        }
        // x_B = B^{-1} residual
        for i in 0..self.m {
            let mut s = 0.0;
            for (r, &res) in resid.iter().enumerate().take(self.m) {
                s += self.binv_at(i, r) * res;
            }
            self.x[self.basis[i]] = s;
        }
    }

    /// Rebuild B^{-1} from scratch by Gauss–Jordan elimination with partial
    /// pivoting. Returns `false` if the basis matrix is numerically
    /// singular.
    fn refactorize(&mut self) -> bool {
        let m = self.m;
        // Build dense basis matrix.
        let mut bmat = vec![0.0; m * m];
        for (i, &bj) in self.basis.iter().enumerate() {
            for (r, v) in self.col(bj) {
                bmat[r * m + i] = v;
            }
        }
        // Augment with identity, eliminate.
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot.
            let mut piv = col;
            let mut best = bmat[col * m + col].abs();
            for r in (col + 1)..m {
                let v = bmat[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return false;
            }
            if piv != col {
                for k in 0..m {
                    bmat.swap(col * m + k, piv * m + k);
                    inv.swap(col * m + k, piv * m + k);
                }
            }
            let d = bmat[col * m + col];
            for k in 0..m {
                bmat[col * m + k] /= d;
                inv[col * m + k] /= d;
            }
            for r in 0..m {
                if r != col {
                    let f = bmat[r * m + col];
                    if f != 0.0 {
                        for k in 0..m {
                            bmat[r * m + k] -= f * bmat[col * m + k];
                            inv[r * m + k] -= f * inv[col * m + k];
                        }
                    }
                }
            }
        }
        self.binv = inv;
        self.pivots_since_refactor = 0;
        self.refactorizations += 1;
        true
    }

    /// Repairs a numerically singular basis: runs Gaussian elimination over
    /// the basis columns, and replaces each dependent column with the slack
    /// or artificial unit column of a row that received no pivot. Returns
    /// `false` only if no replacement column is available (should not
    /// happen: every row owns a slack and an artificial).
    fn repair_basis(&mut self) -> bool {
        let m = self.m;
        let n = self.n;
        // Dense copy of the basis matrix, column-major.
        let mut cols: Vec<Vec<f64>> = self
            .basis
            .iter()
            .map(|&bj| {
                let mut v = vec![0.0; m];
                for (r, a) in self.col(bj) {
                    v[r] = a;
                }
                v
            })
            .collect();
        let mut row_used = vec![false; m];
        let mut col_ok = vec![false; m];
        for k in 0..m {
            // Find the largest remaining pivot in column k.
            let mut best = 0.0;
            let mut piv = usize::MAX;
            for r in 0..m {
                if !row_used[r] && cols[k][r].abs() > best {
                    best = cols[k][r].abs();
                    piv = r;
                }
            }
            if best < 1e-9 {
                continue; // dependent column
            }
            col_ok[k] = true;
            row_used[piv] = true;
            // Eliminate this row from the remaining columns.
            let pv = cols[k][piv];
            let pivot_col = cols[k].clone();
            for c in cols.iter_mut().skip(k + 1) {
                let f = c[piv] / pv;
                if f != 0.0 {
                    for r in 0..m {
                        c[r] -= f * pivot_col[r];
                    }
                }
            }
        }
        // Replace dependent columns with unit columns of unused rows.
        let mut free_rows: Vec<usize> = (0..m).filter(|&r| !row_used[r]).collect();
        for (k, &ok) in col_ok.iter().enumerate().take(m) {
            if ok {
                continue;
            }
            let Some(r) = free_rows.pop() else {
                return false;
            };
            let slack = n + r;
            let art = n + m + r;
            let replacement = if !matches!(self.state[slack], ColState::Basic(_)) {
                slack
            } else if !matches!(self.state[art], ColState::Basic(_)) {
                art
            } else {
                return false;
            };
            let out = self.basis[k];
            // Park the ejected variable at its nearest finite bound.
            let (lo, hi) = (self.lb[out], self.ub[out]);
            let xv = self.x[out];
            let (st, val) =
                if lo.is_finite() && (!hi.is_finite() || (xv - lo).abs() <= (hi - xv).abs()) {
                    (ColState::AtLower, lo)
                } else if hi.is_finite() {
                    (ColState::AtUpper, hi)
                } else {
                    (ColState::AtLower, 0.0)
                };
            self.state[out] = st;
            self.x[out] = val;
            self.basis[k] = replacement;
            self.state[replacement] = ColState::Basic(k);
        }
        true
    }

    /// Update B^{-1} after column `j_in` (with direction vector `w`)
    /// replaces the basic variable in row `r`.
    fn update_binv(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let wr = w[r];
        for k in 0..m {
            self.binv[r * m + k] /= wr;
        }
        for (i, &f) in w.iter().enumerate().take(m) {
            if i != r && f.abs() > 1e-14 {
                for k in 0..m {
                    self.binv[i * m + k] -= f * self.binv[r * m + k];
                }
            }
        }
        self.pivots += 1;
        self.pivots_since_refactor += 1;
    }

    fn max_iters(&self) -> usize {
        5000 + 200 * (self.n + self.m)
    }

    fn structural_objective(&self) -> f64 {
        (0..self.n).map(|j| self.obj[j] * self.x[j]).sum::<f64>() + self.obj_offset
    }

    fn finish(&self, status: LpStatus) -> LpSolution {
        let objective = match status {
            LpStatus::Unbounded => f64::NEG_INFINITY,
            _ => self.structural_objective(),
        };
        let duals = if status == LpStatus::Optimal {
            let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
            self.btran(&cb)
        } else {
            Vec::new()
        };
        LpSolution {
            status,
            objective,
            x: self.x[..self.n].to_vec(),
            duals,
            iterations: self.iterations,
            pivots: self.pivots,
            degenerate_pivots: self.degenerate_pivots,
            bound_flips: self.bound_flips,
            refactorizations: self.refactorizations,
            dual_pivots: self.dual_pivots,
        }
    }

    fn counters_only(&self, status: LpStatus) -> LpSolution {
        LpSolution {
            status,
            objective: 0.0,
            x: self.x[..self.n].to_vec(),
            duals: Vec::new(),
            iterations: self.iterations,
            pivots: self.pivots,
            degenerate_pivots: self.degenerate_pivots,
            bound_flips: self.bound_flips,
            refactorizations: self.refactorizations,
            dual_pivots: self.dual_pivots,
        }
    }

    /// Solves the problem from scratch under the current working bounds
    /// (phase-1 artificial start, then primal simplex).
    ///
    /// # Errors
    ///
    /// [`MilpError::SimplexStalled`] on iteration-budget exhaustion or an
    /// unrepairable singular basis.
    pub fn solve_fresh(&mut self) -> Result<LpSolution, MilpError> {
        self.reset_counters();
        let n = self.n;
        let m = self.m;

        if m == 0 {
            // Bound-only problem: each variable goes to whichever bound its
            // cost prefers.
            let mut sol = LpSolution::empty(LpStatus::Optimal, n);
            let mut obj = self.obj_offset;
            for j in 0..n {
                if self.lb[j] > self.ub[j] + TOL {
                    sol.status = LpStatus::Infeasible;
                    return Ok(sol);
                }
                let c = self.obj[j];
                let v = if c > 0.0 {
                    self.lb[j]
                } else if c < 0.0 {
                    self.ub[j]
                } else if self.lb[j].is_finite() {
                    self.lb[j]
                } else if self.ub[j].is_finite() {
                    self.ub[j]
                } else {
                    0.0
                };
                if !v.is_finite() && c != 0.0 {
                    sol.status = LpStatus::Unbounded;
                    sol.objective = f64::NEG_INFINITY;
                    return Ok(sol);
                }
                sol.x[j] = if v.is_finite() { v } else { 0.0 };
                obj += c * sol.x[j];
            }
            sol.objective = obj;
            return Ok(sol);
        }

        // Quick bound sanity.
        for j in 0..n {
            if self.lb[j] > self.ub[j] + TOL {
                return Ok(LpSolution::empty(LpStatus::Infeasible, n));
            }
        }

        // Nonbasic structurals sit at their finite bound (prefer lower).
        for j in 0..n {
            if self.lb[j].is_finite() {
                self.state[j] = ColState::AtLower;
                self.x[j] = self.lb[j];
            } else if self.ub[j].is_finite() {
                self.state[j] = ColState::AtUpper;
                self.x[j] = self.ub[j];
            } else {
                self.state[j] = ColState::AtLower; // free var pinned at 0 initially
                self.x[j] = 0.0;
            }
        }

        // Residuals decide which rows need an artificial.
        let mut resid = self.rhs.clone();
        for j in 0..n {
            if self.x[j] != 0.0 {
                let xj = self.x[j];
                for (r, v) in self.col(j) {
                    resid[r] -= v * xj;
                }
            }
        }
        self.basis.clear();
        let mut any_artificial = false;
        for (i, &res) in resid.iter().enumerate().take(m) {
            let s = n + i;
            let a = n + m + i;
            let fits = res >= self.lb[s] - TOL && res <= self.ub[s] + TOL;
            if fits {
                self.basis.push(s);
                self.state[s] = ColState::Basic(i);
                self.x[s] = res;
                // Artificial stays fixed at 0.
                self.state[a] = ColState::AtLower;
                self.x[a] = 0.0;
                self.lb[a] = 0.0;
                self.ub[a] = 0.0;
            } else {
                // Slack pinned at nearest bound, artificial absorbs the rest.
                let sv = res.clamp(self.lb[s], self.ub[s].min(1e18));
                self.x[s] = sv;
                self.state[s] = if (sv - self.lb[s]).abs() <= (self.ub[s] - sv).abs() {
                    ColState::AtLower
                } else {
                    ColState::AtUpper
                };
                let gap = res - sv;
                self.set_art_sign(i, gap.signum());
                self.lb[a] = 0.0;
                self.ub[a] = f64::INFINITY;
                self.basis.push(a);
                self.state[a] = ColState::Basic(i);
                self.x[a] = gap.abs();
                any_artificial = true;
            }
        }

        if !self.refactorize() {
            if std::env::var_os("DVS_MILP_DEBUG").is_some() {
                eprintln!("simplex: initial basis singular");
            }
            return Err(MilpError::SimplexStalled);
        }
        self.recompute_basics();

        let max_iters = self.max_iters();

        // ---- Phase 1 ----
        if any_artificial {
            self.cost.fill(0.0);
            for i in 0..m {
                self.cost[n + m + i] = 1.0;
            }
            let status = self.run_primal(max_iters)?;
            if status == LpStatus::Unbounded {
                // Phase-1 objective is bounded below by 0; cannot be unbounded.
                if std::env::var_os("DVS_MILP_DEBUG").is_some() {
                    eprintln!("simplex: phase-1 reported unbounded");
                }
                return Err(MilpError::SimplexStalled);
            }
            let phase1: f64 = (0..m)
                .map(|i| self.cost[n + m + i] * self.x[n + m + i])
                .sum();
            if phase1 > 1e-6 {
                // The phase-1 optimal duals form a Farkas ray: `cost` is
                // still the phase-1 objective here, so btran of the basic
                // costs prices the rows of the infeasibility LP. Certifying
                // replays pick them up to prove the prune.
                let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
                let mut sol = self.counters_only(LpStatus::Infeasible);
                sol.duals = self.btran(&cb);
                return Ok(sol);
            }
            // Freeze artificials.
            for i in 0..m {
                let a = n + m + i;
                self.cost[a] = 0.0;
                self.ub[a] = 0.0;
                // A basic artificial at ~0 is harmless (degenerate).
                if !matches!(self.state[a], ColState::Basic(_)) {
                    self.x[a] = 0.0;
                    self.state[a] = ColState::AtLower;
                }
            }
        }

        // ---- Phase 2 ----
        self.cost[..n].copy_from_slice(&self.obj);
        for j in n..self.ncols {
            self.cost[j] = 0.0;
        }
        let status = self.run_primal(max_iters)?;
        Ok(self.finish(status))
    }

    fn set_art_sign(&mut self, i: usize, sign: f64) {
        self.art_sign[i] = sign;
        let a = self.n + self.m + i;
        let at = self.col_ptr[a];
        self.col_val[at] = sign;
    }

    /// Re-solves after bound changes, restarting the dual simplex from
    /// `warm` (normally the parent node's optimal basis). Returns `None`
    /// when the warm start cannot be used soundly — the basis is stale,
    /// numerically singular, no longer dual feasible, or the dual loop hits
    /// its budget — in which case the caller should fall back to
    /// [`SimplexEngine::solve_fresh`]. `Some` results are exactly as
    /// trustworthy as a fresh solve: primal and dual feasibility both hold
    /// at `Optimal`, and `Infeasible` is a proof by dual unboundedness.
    pub fn solve_warm(&mut self, warm: &Basis) -> Option<LpSolution> {
        let n = self.n;
        let m = self.m;
        if m == 0 || warm.state.len() != self.ncols || warm.basis.len() != m {
            return None;
        }
        self.reset_counters();
        // Crossed working bounds are an immediate (cheap) infeasibility.
        for j in 0..n {
            if self.lb[j] > self.ub[j] + TOL {
                return Some(LpSolution::empty(LpStatus::Infeasible, n));
            }
        }
        self.state.copy_from_slice(&warm.state);
        self.basis.clear();
        self.basis.extend_from_slice(&warm.basis);
        for i in 0..m {
            self.set_art_sign(i, warm.art_sign[i]);
            // Artificials stay frozen at zero in a warm solve.
            let a = n + m + i;
            self.lb[a] = 0.0;
            self.ub[a] = 0.0;
        }
        // Phase-2 costs only: the dual simplex restores primal feasibility
        // while keeping dual feasibility of the final objective.
        self.cost[..n].copy_from_slice(&self.obj);
        for j in n..self.ncols {
            self.cost[j] = 0.0;
        }
        // Snap nonbasic variables to the bound their state names; a bound
        // that moved past the old value is exactly what the dual simplex
        // repairs next.
        for j in 0..self.ncols {
            match self.state[j] {
                ColState::Basic(_) => {}
                ColState::AtLower => {
                    if self.lb[j].is_finite() {
                        self.x[j] = self.lb[j];
                    } else if self.ub[j].is_finite() {
                        self.state[j] = ColState::AtUpper;
                        self.x[j] = self.ub[j];
                    } else {
                        self.x[j] = 0.0;
                    }
                }
                ColState::AtUpper => {
                    if self.ub[j].is_finite() {
                        self.x[j] = self.ub[j];
                    } else if self.lb[j].is_finite() {
                        self.state[j] = ColState::AtLower;
                        self.x[j] = self.lb[j];
                    } else {
                        self.state[j] = ColState::AtLower;
                        self.x[j] = 0.0;
                    }
                }
            }
        }
        if !(self.refactorize() || self.repair_basis() && self.refactorize()) {
            return None;
        }
        self.recompute_basics();

        // The restored basis must still price out dual feasible under the
        // phase-2 costs; anything else (e.g. a bound flip above changed a
        // sign requirement) falls back to the primal path.
        let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
        let y = self.btran(&cb);
        for j in 0..self.ncols {
            let ok = match self.state[j] {
                ColState::Basic(_) => true,
                _ if (self.ub[j] - self.lb[j]).abs() < 1e-15 => true,
                ColState::AtLower => self.reduced_cost(j, &y) >= -WARM_TOL,
                ColState::AtUpper => self.reduced_cost(j, &y) <= WARM_TOL,
            };
            if !ok {
                return None;
            }
        }

        let status = self.run_dual(self.max_iters())?;
        Some(self.finish(status))
    }

    /// The bounded-variable dual simplex loop: repeatedly picks the basic
    /// variable with the largest bound violation, prices an entering column
    /// that keeps the reduced costs sign-feasible, and pivots until primal
    /// feasibility (optimality) or a proof of infeasibility. Returns `None`
    /// on numerical trouble (budget, singular basis) — never a wrong
    /// answer.
    fn run_dual(&mut self, max_iters: usize) -> Option<LpStatus> {
        let m = self.m;
        loop {
            if self.iterations >= max_iters {
                return None;
            }
            self.iterations += 1;
            if self.pivots_since_refactor >= 150 {
                if !(self.refactorize() || (self.repair_basis() && self.refactorize())) {
                    return None;
                }
                self.recompute_basics();
            }

            // Leaving: the basic variable most outside its bounds.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, above_upper)
            for i in 0..m {
                let bj = self.basis[i];
                let v = self.x[bj];
                let (viol, above) = if v < self.lb[bj] - WARM_TOL {
                    (self.lb[bj] - v, false)
                } else if v > self.ub[bj] + WARM_TOL {
                    (v - self.ub[bj], true)
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((li, lv, _)) => {
                        viol > lv + RATIO_TOL
                            || ((viol - lv).abs() <= RATIO_TOL && self.basis[i] < self.basis[li])
                    }
                };
                if better {
                    leave = Some((i, viol, above));
                }
            }
            let Some((r, _, above)) = leave else {
                return Some(LpStatus::Optimal);
            };
            // e = direction the basic value must move, seen from the ratio
            // test: +1 when above its upper bound, -1 when below its lower.
            let e = if above { 1.0 } else { -1.0 };
            let target = if above {
                self.ub[self.basis[r]]
            } else {
                self.lb[self.basis[r]]
            };

            // Row r of B^{-1}, then duals for reduced costs.
            let rho: Vec<f64> = (0..m).map(|k| self.binv_at(r, k)).collect();
            let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
            let y = self.btran(&cb);

            // Entering: minimize the dual ratio d_j / (e·α_j) over
            // admissible nonbasic columns. Ties prefer the larger |α|
            // (stability), then the smaller index (determinism).
            let mut enter: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
            for j in 0..self.ncols {
                let st = self.state[j];
                if matches!(st, ColState::Basic(_)) || (self.ub[j] - self.lb[j]).abs() < 1e-15 {
                    continue;
                }
                let mut alpha = 0.0;
                for (rr, v) in self.col(j) {
                    alpha += rho[rr] * v;
                }
                let ea = e * alpha;
                let admissible = match st {
                    ColState::AtLower => ea > PIVOT_TOL,
                    ColState::AtUpper => ea < -PIVOT_TOL,
                    ColState::Basic(_) => unreachable!(),
                };
                if !admissible {
                    continue;
                }
                let d = self.reduced_cost(j, &y);
                let ratio = (d / ea).max(0.0);
                let better = match enter {
                    None => true,
                    Some((bj, br, ba)) => {
                        ratio < br - RATIO_TOL
                            || ((ratio - br).abs() <= RATIO_TOL
                                && (alpha.abs() > ba.abs() + RATIO_TOL
                                    || ((alpha.abs() - ba.abs()).abs() <= RATIO_TOL && j < bj)))
                    }
                };
                if better {
                    enter = Some((j, ratio, alpha));
                }
            }
            // No column can restore the violated bound: the dual is
            // unbounded, so the (bound-tightened) primal is infeasible.
            let Some((j_in, _, _)) = enter else {
                return Some(LpStatus::Infeasible);
            };

            let w = self.ftran(j_in);
            if w[r].abs() <= PIVOT_TOL {
                return None; // numerically useless pivot
            }
            let j_out = self.basis[r];
            let delta = (self.x[j_out] - target) / w[r];
            if delta.abs() <= RATIO_TOL {
                self.degenerate_pivots += 1;
            }
            for (i, &wi) in w.iter().enumerate().take(m) {
                if i != r {
                    let bj = self.basis[i];
                    self.x[bj] -= wi * delta;
                }
            }
            self.x[j_in] += delta;
            self.x[j_out] = target;
            self.state[j_out] = if above {
                ColState::AtUpper
            } else {
                ColState::AtLower
            };
            self.state[j_in] = ColState::Basic(r);
            self.basis[r] = j_in;
            self.update_binv(r, &w);
            self.dual_pivots += 1;
        }
    }

    /// Runs the primal simplex loop to optimality on the current cost
    /// vector.
    fn run_primal(&mut self, max_iters: usize) -> Result<LpStatus, MilpError> {
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        // Once degeneracy is detected, Bland's rule stays on for the rest of
        // this phase — toggling it off after a productive pivot can re-enter
        // the same cycle.
        let mut bland_sticky = false;
        loop {
            if self.iterations >= max_iters {
                if std::env::var_os("DVS_MILP_DEBUG").is_some() {
                    eprintln!(
                        "simplex stalled: m={} iters={} obj={last_obj} stall={stall}",
                        self.m, self.iterations
                    );
                }
                return Err(MilpError::SimplexStalled);
            }
            self.iterations += 1;
            if self.pivots_since_refactor >= 150 {
                let rebuilt = self.refactorize() || (self.repair_basis() && self.refactorize());
                if !rebuilt {
                    return Err(MilpError::SimplexStalled);
                }
                self.recompute_basics();
            }

            let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
            let y = self.btran(&cb);

            // Pricing.
            if stall > self.m + 20 {
                bland_sticky = true;
            }
            let use_bland = bland_sticky;
            let mut enter: Option<(usize, f64, f64)> = None; // (col, rd, dir)
            for j in 0..self.ncols {
                let (st, range_zero) = match self.state[j] {
                    ColState::Basic(_) => continue,
                    s => (s, (self.ub[j] - self.lb[j]).abs() < 1e-15),
                };
                if range_zero {
                    continue; // fixed variable can never move
                }
                let rd = self.reduced_cost(j, &y);
                let (eligible, dir) = match st {
                    ColState::AtLower => (rd < -TOL, 1.0),
                    ColState::AtUpper => (rd > TOL, -1.0),
                    ColState::Basic(_) => unreachable!(),
                };
                if eligible {
                    if use_bland {
                        enter = Some((j, rd, dir));
                        break;
                    }
                    let score = rd.abs();
                    if enter.is_none_or(|(_, brd, _)| score > brd.abs()) {
                        enter = Some((j, rd, dir));
                    }
                }
            }
            let Some((j_in, _rd, dir)) = enter else {
                return Ok(LpStatus::Optimal);
            };

            // Direction through the basis.
            let w = self.ftran(j_in);

            // Ratio test. Entering variable moves by `step >= 0` in direction
            // `dir`; basic i changes by -dir * w[i] * step. Ties are broken by
            // the largest pivot magnitude for stability, or by the smallest
            // variable index under Bland's rule (guaranteeing termination).
            let own_range = self.ub[j_in] - self.lb[j_in]; // may be inf
            let mut best_step = own_range;
            let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
            for i in 0..self.m {
                let delta = -dir * w[i];
                if delta.abs() <= PIVOT_TOL {
                    continue;
                }
                let bj = self.basis[i];
                let xb = self.x[bj];
                let (step, at_upper) = if delta < 0.0 {
                    let lbi = self.lb[bj];
                    if !lbi.is_finite() {
                        continue;
                    }
                    ((xb - lbi) / -delta, false)
                } else {
                    let ubi = self.ub[bj];
                    if !ubi.is_finite() {
                        continue;
                    }
                    ((ubi - xb) / delta, true)
                };
                let better = if step < best_step - RATIO_TOL {
                    true
                } else if step < best_step + RATIO_TOL {
                    match leave {
                        None => best_step.is_infinite(),
                        Some((li, _)) => {
                            if use_bland {
                                self.basis[i] < self.basis[li]
                            } else {
                                w[i].abs() > w[li].abs()
                            }
                        }
                    }
                } else {
                    false
                };
                if better {
                    best_step = step.max(0.0);
                    leave = Some((i, at_upper));
                }
            }

            if best_step.is_infinite() {
                return Ok(LpStatus::Unbounded);
            }

            // Apply the move.
            let step = best_step.max(0.0);
            if step > 0.0 {
                for (i, &wi) in w.iter().enumerate().take(self.m) {
                    let bj = self.basis[i];
                    self.x[bj] -= dir * wi * step;
                }
            }

            match leave {
                None => {
                    // Bound flip of the entering variable.
                    self.bound_flips += 1;
                    self.x[j_in] = if dir > 0.0 {
                        self.ub[j_in]
                    } else {
                        self.lb[j_in]
                    };
                    self.state[j_in] = if dir > 0.0 {
                        ColState::AtUpper
                    } else {
                        ColState::AtLower
                    };
                }
                Some((r, at_upper)) => {
                    if step <= 0.0 {
                        self.degenerate_pivots += 1;
                    }
                    let j_out = self.basis[r];
                    self.x[j_in] += dir * step;
                    self.x[j_out] = if at_upper {
                        self.ub[j_out]
                    } else {
                        self.lb[j_out]
                    };
                    self.state[j_out] = if at_upper {
                        ColState::AtUpper
                    } else {
                        ColState::AtLower
                    };
                    self.state[j_in] = ColState::Basic(r);
                    self.basis[r] = j_in;
                    self.update_binv(r, &w);
                }
            }

            // Cycling monitor: objective (phase-aware) should not increase.
            let obj: f64 = (0..self.ncols).map(|j| self.cost[j] * self.x[j]).sum();
            if obj < last_obj - TOL {
                last_obj = obj;
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }
}

/// Solves the LP with the bounded-variable revised simplex (one-shot
/// convenience over [`SimplexEngine`]).
///
/// # Errors
///
/// [`MilpError::SimplexStalled`] if the iteration budget is exhausted
/// (numerical cycling); infeasibility and unboundedness are reported through
/// [`LpStatus`], not as errors.
pub fn solve_lp(p: &LpProblem) -> Result<LpSolution, MilpError> {
    let result = SimplexEngine::new(p).solve_fresh();
    if dvs_obs::enabled() {
        dvs_obs::counter("milp.lp_solves", 1);
        if let Ok(sol) = &result {
            dvs_obs::counter("milp.pivots", sol.iterations as u64);
            dvs_obs::counter("milp.degenerate_pivots", sol.degenerate_pivots as u64);
            dvs_obs::counter("milp.bound_flips", sol.bound_flips as u64);
            dvs_obs::counter("milp.refactorizations", sol.refactorizations as u64);
            dvs_obs::histogram("milp.lp_pivots", sol.iterations as f64);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_two_var_lp() {
        // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2  (x,y >= 0)
        let mut p = LpProblem::new(2);
        p.obj = vec![-1.0, -2.0];
        p.ub = vec![3.0, 2.0];
        p.add_row(&[(0, 1.0), (1, 1.0)], RowKind::Le, 4.0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -6.0); // x=2, y=2
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn equality_rows_need_artificials() {
        // min x + y  s.t. x + y = 3, x - y = 1  -> x=2, y=1
        let mut p = LpProblem::new(2);
        p.obj = vec![1.0, 1.0];
        p.add_row(&[(0, 1.0), (1, 1.0)], RowKind::Eq, 3.0);
        p.add_row(&[(0, 1.0), (1, -1.0)], RowKind::Eq, 1.0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 1.0);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x = 3 simultaneously.
        let mut p = LpProblem::new(1);
        p.obj = vec![1.0];
        p.add_row(&[(0, 1.0)], RowKind::Le, 1.0);
        p.add_row(&[(0, 1.0)], RowKind::Eq, 3.0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x with x >= 0 unbounded above and no rows limiting it.
        let mut p = LpProblem::new(1);
        p.obj = vec![-1.0];
        p.add_row(&[(0, -1.0)], RowKind::Le, 0.0); // -x <= 0, i.e. x >= 0
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn bounds_without_rows() {
        let mut p = LpProblem::new(2);
        p.obj = vec![1.0, -1.0];
        p.lb = vec![2.0, 0.0];
        p.ub = vec![5.0, 7.0];
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 7.0);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn upper_bounds_respected_via_bound_flips() {
        // max x1 + x2 + x3 s.t. x1 + x2 + x3 <= 10, each x in [0, 4].
        let mut p = LpProblem::new(3);
        p.obj = vec![-1.0, -1.0, -1.0];
        p.ub = vec![4.0, 4.0, 4.0];
        p.add_row(&[(0, 1.0), (1, 1.0), (2, 1.0)], RowKind::Le, 10.0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -10.0);
        let total: f64 = s.x.iter().sum();
        assert_close(total, 10.0);
        for v in &s.x {
            assert!(*v <= 4.0 + 1e-9);
        }
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 (bound), x + y = 0, y <= 3  -> x = -3.
        let mut p = LpProblem::new(2);
        p.obj = vec![1.0, 0.0];
        p.lb = vec![-5.0, 0.0];
        p.ub = vec![f64::INFINITY, 3.0];
        p.add_row(&[(0, 1.0), (1, 1.0)], RowKind::Eq, 0.0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], -3.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut p = LpProblem::new(2);
        p.obj = vec![-1.0, -1.0];
        p.add_row(&[(0, 1.0)], RowKind::Le, 1.0);
        p.add_row(&[(0, 1.0), (1, 0.0)], RowKind::Le, 1.0);
        p.add_row(&[(0, 2.0)], RowKind::Le, 2.0);
        p.add_row(&[(1, 1.0)], RowKind::Le, 1.0);
        p.add_row(&[(0, 1.0), (1, 1.0)], RowKind::Le, 2.0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -2.0);
    }

    #[test]
    fn objective_offset_carried_through() {
        let mut p = LpProblem::new(1);
        p.obj = vec![1.0];
        p.obj_offset = 10.0;
        p.lb = vec![3.0];
        p.add_row(&[(0, 1.0)], RowKind::Le, 5.0);
        let s = solve_lp(&p).unwrap();
        assert_close(s.objective, 13.0);
    }

    #[test]
    fn fixed_variables_stay_fixed() {
        // y fixed at 2 via lb=ub; min x s.t. x + y >= 5 (as -x - y <= -5).
        let mut p = LpProblem::new(2);
        p.obj = vec![1.0, 0.0];
        p.lb = vec![0.0, 2.0];
        p.ub = vec![f64::INFINITY, 2.0];
        p.add_row(&[(0, -1.0), (1, -1.0)], RowKind::Le, -5.0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 3.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's classic example cycles forever under naive Dantzig
        // pricing with textbook tie-breaking; the anti-cycling safeguards
        // must terminate at the optimum (objective -0.05).
        //   min -0.75x1 + 150x2 - 0.02x3 + 6x4
        //   s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
        //        0.5 x1 - 90x2 - 0.02x3 + 3x4 <= 0
        //        x3 <= 1,   x >= 0
        let mut p = LpProblem::new(4);
        p.obj = vec![-0.75, 150.0, -0.02, 6.0];
        p.add_row(
            &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            RowKind::Le,
            0.0,
        );
        p.add_row(
            &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            RowKind::Le,
            0.0,
        );
        p.add_row(&[(2, 1.0)], RowKind::Le, 1.0);
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(
            (s.objective - (-0.05)).abs() < 1e-9,
            "obj = {}",
            s.objective
        );
        assert!((s.x[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strong_duality_on_random_instances() {
        // min c'x, Ax <= b, x >= 0 (no upper bounds): at an optimum,
        // c'x* = y'b, A'y <= c, and y <= 0. This is a complete
        // end-to-end correctness certificate for the simplex.
        let mut seed = 0xD0A1u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 1000) as f64 / 100.0
        };
        let mut checked = 0;
        for _ in 0..40 {
            let (n, m) = (4, 3);
            let mut p = LpProblem::new(n);
            for j in 0..n {
                p.obj[j] = rnd(); // non-negative costs keep it bounded
            }
            for _ in 0..m {
                let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, rnd() - 4.0)).collect();
                // b mixed in sign so some instances need phase 1.
                p.add_row(&terms, RowKind::Le, rnd() - 2.0);
            }
            let s = solve_lp(&p).unwrap();
            if s.status != LpStatus::Optimal {
                continue;
            }
            checked += 1;
            let y = &s.duals;
            assert_eq!(y.len(), m);
            // Strong duality.
            let primal = s.objective;
            let dual: f64 = y.iter().zip(&p.rhs).map(|(yi, bi)| yi * bi).sum();
            assert!(
                (primal - dual).abs() < 1e-5 * primal.abs().max(1.0),
                "duality gap: primal {primal} dual {dual}"
            );
            // Dual feasibility: A'y <= c and y <= 0.
            for (i, yi) in y.iter().enumerate() {
                assert!(*yi <= 1e-7, "y[{i}] = {yi} must be <= 0");
            }
            for j in 0..n {
                let aty: f64 = p.cols[j].iter().map(|&(r, a)| a * y[r]).sum();
                assert!(aty <= p.obj[j] + 1e-6, "dual infeasible at column {j}");
            }
        }
        assert!(checked >= 10, "too few optimal instances ({checked})");
    }

    #[test]
    fn larger_transportation_lp() {
        // 3 suppliers x 4 consumers transportation problem.
        let supply = [20.0, 30.0, 25.0];
        let demand = [10.0, 25.0, 20.0, 20.0];
        let cost = [
            [4.0, 6.0, 8.0, 11.0],
            [5.0, 5.0, 7.0, 9.0],
            [6.0, 4.0, 3.0, 5.0],
        ];
        let nv = 12;
        let mut p = LpProblem::new(nv);
        for (i, row) in cost.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                p.obj[i * 4 + j] = c;
            }
        }
        for (i, &s) in supply.iter().enumerate() {
            let terms: Vec<_> = (0..4).map(|j| (i * 4 + j, 1.0)).collect();
            p.add_row(&terms, RowKind::Le, s);
        }
        for (j, &d) in demand.iter().enumerate() {
            let terms: Vec<_> = (0..3).map(|i| (i * 4 + j, 1.0)).collect();
            p.add_row(&terms, RowKind::Eq, d);
        }
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        // Validate feasibility of the returned plan.
        for (i, &cap) in supply.iter().enumerate() {
            let used: f64 = (0..4).map(|j| s.x[i * 4 + j]).sum();
            assert!(used <= cap + 1e-6);
        }
        for (j, &want) in demand.iter().enumerate() {
            let got: f64 = (0..3).map(|i| s.x[i * 4 + j]).sum();
            assert_close(got, want);
        }
        // Optimum verified by hand (s0: t0=10,t1=10; s1: t1=15,t3=15; s2: t2=20,t3=5).
        assert_close(s.objective, 395.0);
    }

    // ---- warm-start dual simplex -------------------------------------

    /// Fresh-solve `p`, tighten bounds, then compare the warm dual-simplex
    /// answer against an independent from-scratch solve of the tightened
    /// problem.
    fn warm_vs_fresh(p: &LpProblem, tighten: &[(usize, f64, f64)]) {
        let mut engine = SimplexEngine::new(p);
        let root = engine.solve_fresh().unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = engine.basis();

        engine.reset_bounds();
        for &(j, lo, hi) in tighten {
            engine.set_bound(j, lo, hi);
        }
        let warm = engine.solve_warm(&basis).expect("warm start usable");

        let mut q = p.clone();
        for &(j, lo, hi) in tighten {
            q.lb[j] = q.lb[j].max(lo);
            q.ub[j] = q.ub[j].min(hi);
        }
        let fresh = solve_lp(&q).unwrap();
        assert_eq!(warm.status, fresh.status, "status mismatch");
        if fresh.status == LpStatus::Optimal {
            assert!(
                (warm.objective - fresh.objective).abs() < 1e-7 * fresh.objective.abs().max(1.0),
                "warm {} vs fresh {}",
                warm.objective,
                fresh.objective
            );
        }
    }

    #[test]
    fn warm_start_matches_fresh_after_tightening() {
        let mut p = LpProblem::new(2);
        p.obj = vec![-1.0, -2.0];
        p.ub = vec![3.0, 2.0];
        p.add_row(&[(0, 1.0), (1, 1.0)], RowKind::Le, 4.0);
        // Branching-style fixings in both directions.
        warm_vs_fresh(&p, &[(1, 0.0, 1.0)]);
        warm_vs_fresh(&p, &[(0, 0.0, 0.0)]);
        warm_vs_fresh(&p, &[(0, 3.0, 3.0), (1, 0.0, 0.0)]);
    }

    #[test]
    fn warm_start_detects_infeasible_children() {
        // x + y = 3 with both variables forced to 0 is infeasible.
        let mut p = LpProblem::new(2);
        p.obj = vec![1.0, 1.0];
        p.ub = vec![2.0, 2.0];
        p.add_row(&[(0, 1.0), (1, 1.0)], RowKind::Eq, 3.0);
        let mut engine = SimplexEngine::new(&p);
        let root = engine.solve_fresh().unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = engine.basis();
        engine.reset_bounds();
        engine.set_bound(0, 0.0, 0.0);
        engine.set_bound(1, 0.0, 0.0);
        let warm = engine.solve_warm(&basis).expect("warm start usable");
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_on_transportation_lp() {
        let supply = [20.0, 30.0, 25.0];
        let demand = [10.0, 25.0, 20.0, 20.0];
        let cost = [
            [4.0, 6.0, 8.0, 11.0],
            [5.0, 5.0, 7.0, 9.0],
            [6.0, 4.0, 3.0, 5.0],
        ];
        let mut p = LpProblem::new(12);
        for (i, row) in cost.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                p.obj[i * 4 + j] = c;
            }
        }
        for (i, &s) in supply.iter().enumerate() {
            let terms: Vec<_> = (0..4).map(|j| (i * 4 + j, 1.0)).collect();
            p.add_row(&terms, RowKind::Le, s);
        }
        for (j, &d) in demand.iter().enumerate() {
            let terms: Vec<_> = (0..3).map(|i| (i * 4 + j, 1.0)).collect();
            p.add_row(&terms, RowKind::Eq, d);
        }
        // Forbid the cheapest lane and cap another; warm must track fresh.
        warm_vs_fresh(&p, &[(2 * 4 + 2, 0.0, 0.0)]);
        warm_vs_fresh(&p, &[(0, 0.0, 5.0), (5, 0.0, 0.0)]);
    }

    #[test]
    fn warm_start_counts_dual_pivots() {
        let mut p = LpProblem::new(3);
        p.obj = vec![1.0, 2.0, 3.0];
        p.ub = vec![10.0, 10.0, 10.0];
        p.add_row(&[(0, -1.0), (1, -1.0), (2, -1.0)], RowKind::Le, -6.0);
        let mut engine = SimplexEngine::new(&p);
        let root = engine.solve_fresh().unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        assert_eq!(root.dual_pivots, 0, "cold solves never pivot dually");
        let basis = engine.basis();
        engine.reset_bounds();
        engine.set_bound(0, 0.0, 1.0); // optimal had x0 = 6
        let warm = engine.solve_warm(&basis).expect("warm start usable");
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(warm.dual_pivots >= 1, "tightening must force a dual pivot");
        assert!(warm.dual_pivots <= warm.pivots);
        assert_close(warm.objective, 1.0 + 2.0 * 5.0);
    }

    #[test]
    fn warm_start_rejects_stale_basis() {
        let mut p = LpProblem::new(2);
        p.obj = vec![1.0, 1.0];
        p.add_row(&[(0, 1.0), (1, 1.0)], RowKind::Eq, 3.0);
        let mut engine = SimplexEngine::new(&p);
        engine.solve_fresh().unwrap();
        let mut other = LpProblem::new(5);
        other.add_row(&[(0, 1.0)], RowKind::Le, 1.0);
        let mut other_engine = SimplexEngine::new(&other);
        other_engine.solve_fresh().unwrap();
        let foreign = other_engine.basis();
        assert!(engine.solve_warm(&foreign).is_none());
    }

    #[test]
    fn warm_start_random_lps_agree_with_fresh() {
        // Randomized cross-check of the dual simplex: solve, tighten a
        // random variable, and require agreement with the primal path.
        let mut seed = 0xBEEFu64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 1000) as f64 / 100.0
        };
        let mut warm_used = 0;
        for _ in 0..30 {
            let (n, m) = (5, 4);
            let mut p = LpProblem::new(n);
            for j in 0..n {
                p.obj[j] = rnd();
                p.ub[j] = 5.0 + rnd();
            }
            for _ in 0..m {
                let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, rnd() - 4.0)).collect();
                p.add_row(&terms, RowKind::Le, rnd() - 2.0);
            }
            let mut engine = SimplexEngine::new(&p);
            let Ok(root) = engine.solve_fresh() else {
                continue;
            };
            if root.status != LpStatus::Optimal {
                continue;
            }
            let basis = engine.basis();
            let j = (rnd() as usize) % n;
            let hi = root.x[j] * 0.5;
            engine.reset_bounds();
            engine.set_bound(j, 0.0, hi.max(0.0));
            let mut q = p.clone();
            q.ub[j] = q.ub[j].min(hi.max(0.0));
            let fresh = solve_lp(&q).unwrap();
            if let Some(warm) = engine.solve_warm(&basis) {
                warm_used += 1;
                assert_eq!(warm.status, fresh.status);
                if fresh.status == LpStatus::Optimal {
                    assert!(
                        (warm.objective - fresh.objective).abs()
                            < 1e-6 * fresh.objective.abs().max(1.0),
                        "warm {} vs fresh {}",
                        warm.objective,
                        fresh.objective
                    );
                }
            }
        }
        assert!(
            warm_used >= 10,
            "warm path exercised only {warm_used} times"
        );
    }
}
