use std::fmt;

/// Errors from model construction or solving.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The branch-and-bound node or iteration limit was exhausted before the
    /// optimum was proven; carries the best incumbent objective if one was
    /// found.
    LimitReached {
        /// Best feasible objective found, if any.
        incumbent: Option<f64>,
    },
    /// A variable id referenced a different (or newer) model.
    BadVariable {
        /// The raw variable index.
        index: usize,
    },
    /// A variable was created with `lb > ub`.
    BadBounds {
        /// The raw variable index.
        index: usize,
        /// Lower bound.
        lb: f64,
        /// Upper bound.
        ub: f64,
    },
    /// The simplex failed to converge within its iteration budget (numerical
    /// trouble).
    SimplexStalled,
    /// The selected solver cannot represent this model (e.g.
    /// [`crate::SolverChoice::Continuous`] was forced on a model that is not
    /// a pure voltage-ladder selection problem), or a solution cannot be
    /// certified.
    Unsupported {
        /// Human-readable description of the unsupported structure.
        reason: String,
    },
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Infeasible => write!(f, "problem is infeasible"),
            MilpError::Unbounded => write!(f, "objective is unbounded"),
            MilpError::LimitReached { incumbent: Some(x) } => {
                write!(f, "node limit reached; best incumbent {x}")
            }
            MilpError::LimitReached { incumbent: None } => {
                write!(f, "node limit reached with no incumbent")
            }
            MilpError::BadVariable { index } => write!(f, "unknown variable #{index}"),
            MilpError::BadBounds { index, lb, ub } => {
                write!(f, "variable #{index} has inverted bounds [{lb}, {ub}]")
            }
            MilpError::SimplexStalled => write!(f, "simplex iteration limit exceeded"),
            MilpError::Unsupported { reason } => {
                write!(f, "solver backend does not support this model: {reason}")
            }
        }
    }
}

impl std::error::Error for MilpError {}
