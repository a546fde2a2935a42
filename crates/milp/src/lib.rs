//! A self-contained mixed-integer linear programming (MILP) solver.
//!
//! The paper solves its DVS mode-assignment problem with AMPL + CPLEX;
//! since CPLEX is closed-source, this crate provides the substrate from
//! scratch:
//!
//! * a **model-building API** ([`Model`], [`LinExpr`]) for assembling
//!   objectives and constraints over continuous, integer and binary
//!   variables;
//! * a **bounded-variable revised simplex** ([`simplex`]) with a phase-1
//!   artificial start, Dantzig pricing, a Bland anti-cycling fallback, and
//!   a warm-start **dual simplex** that restarts a node LP from its
//!   parent's basis — variable bounds are handled natively rather than as
//!   extra rows, which keeps the DVS formulations small;
//! * a **branch-and-bound** search with depth-first diving for fast
//!   incumbents, best-bound pruning, basis reuse across nodes, pseudo-cost
//!   branching, integrality-aware presolve, and SOS1-aware group splits
//!   for the `Σ_m k_ijm = 1` mode-selection groups that dominate the DVS
//!   MILP;
//! * an exact `O(n log n)` **continuous-voltage** algorithm next to the
//!   general search, which also seeds the search's root bound.
//!
//! [`solve`] is the one entry point: it runs whichever search
//! [`SolveOptions::solver`] selects, explicitly or by model shape via
//! [`SolverChoice::Auto`].
//!
//! # Example
//!
//! ```
//! use dvs_milp::{Model, Sense, SolveOptions};
//!
//! // max x + 2y  s.t.  x + y <= 4, x <= 3, y <= 2, x,y integer >= 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.int_var("x", 0.0, 3.0);
//! let y = m.int_var("y", 0.0, 2.0);
//! m.set_objective(x + 2.0 * y);
//! m.add_le(x + y, 4.0);
//! let sol = dvs_milp::solve(&m, &SolveOptions::default()).unwrap();
//! assert_eq!(sol.objective.round() as i64, 6); // x=2, y=2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod branch;
mod certify;
mod error;
mod expr;
mod model;
pub mod presolve;
pub mod simplex;
mod solution;

pub use backend::{relaxation_bound, solve, SolveOptions, SolverChoice};
pub use certify::certify_solution;
pub use error::MilpError;
pub use expr::{LinExpr, Var};
pub use model::{Cmp, Constraint, Model, Sense, VarKind};
pub use presolve::{presolve, presolve_int, Presolved};
pub use solution::{Incumbent, Solution, SolveStats, Status};
