use crate::Var;

/// Quality of a returned MILP solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Proven optimal within tolerances.
    Optimal,
    /// Feasible but optimality not proven (node limit hit).
    Feasible,
}

/// One improvement of the best known feasible solution during the search.
///
/// The `(node, objective)` pair is a deterministic function of the model
/// and solver configuration; `at_us` is wall clock and is **not** — it
/// exists for profiling output only and must never flow into canonical
/// (byte-stable) serializations.
#[derive(Debug, Clone, PartialEq)]
pub struct Incumbent {
    /// Objective value of the new incumbent in **minimization form** (the
    /// sign flip for maximization models is *not* applied), so the
    /// trajectory is always monotone nonincreasing.
    pub objective: f64,
    /// Branch-and-bound nodes explored when this incumbent was found
    /// (0 = warm-start seed accepted before the search began).
    pub node: usize,
    /// Microseconds since the solve started (wall clock, nondeterministic).
    pub at_us: f64,
}

/// Search statistics from a branch-and-bound run.
///
/// Every field except `at_us` inside [`SolveStats::incumbents`] is
/// deterministic for a fixed model and sequential configuration, which is
/// what lets `dvsc bench-solver` pin them in `BENCH_solver.json` across
/// PRs and job counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored (an LP was solved for each).
    pub nodes: usize,
    /// Nodes discarded without an LP solve or whose relaxation could not
    /// beat the incumbent: parent-bound prunes, presolve-infeasible
    /// nodes, and LP-bound prunes.
    pub nodes_pruned: usize,
    /// Total simplex iterations across all LP solves (pivots plus bound
    /// flips).
    pub lp_iterations: usize,
    /// Simplex basis-change pivots across all LP solves.
    pub pivots: usize,
    /// Pivots with a zero step length (degenerate).
    pub degenerate_pivots: usize,
    /// Nonbasic bound-to-bound flips (iterations without a basis change).
    pub bound_flips: usize,
    /// Basis-inverse rebuilds across all LP solves (initial factorization,
    /// periodic refresh, and repair paths).
    pub refactorizations: usize,
    /// Basis changes performed by the warm-start dual simplex when a node
    /// reuses its parent's basis (a subset of `pivots`; 0 when basis reuse
    /// is disabled or never applicable).
    pub dual_pivots: usize,
    /// Rows eliminated by presolve, summed over every node it ran on.
    pub presolve_rows_removed: usize,
    /// Variable bounds tightened by presolve, summed over every node.
    pub presolve_bounds_tightened: usize,
    /// Best proven lower bound on the (minimization-form) objective.
    pub best_bound: f64,
    /// Relative gap `(incumbent − best_bound) / max(1, |incumbent|)` in
    /// minimization form at the end of the search; 0 when optimality was
    /// proven.
    pub mip_gap: f64,
    /// Every improvement of the incumbent, in the order found. Objectives
    /// are recorded in minimization form and the trajectory is monotone
    /// strictly decreasing, ending at the returned solution's objective.
    pub incumbents: Vec<Incumbent>,
}

/// A feasible (and usually optimal) solution to a [`crate::Model`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Whether optimality was proven.
    pub status: Status,
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Variable values, indexed by [`Var::index`].
    pub values: Vec<f64>,
    /// Search statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// The value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    #[must_use]
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// The value of `var` rounded to the nearest integer — convenient for
    /// binary/integer variables.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    #[must_use]
    pub fn int_value(&self, var: Var) -> i64 {
        self.values[var.index()].round() as i64
    }
}
