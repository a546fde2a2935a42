use crate::{LinExpr, MilpError, Var};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Variable domain kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Continuous within its bounds.
    Continuous,
    /// Integer within its bounds (binaries are integers with bounds [0, 1]).
    Integer,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A linear constraint `expr cmp rhs` (any constant inside `expr` is folded
/// into `rhs` at solve time).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Comparison.
    pub cmp: Cmp,
    /// Right-hand side constant.
    pub rhs: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub kind: VarKind,
}

/// A mixed-integer linear program under construction.
///
/// Variables are created through [`Model::num_var`], [`Model::int_var`] and
/// [`Model::bool_var`]; constraints through [`Model::add_le`] /
/// [`Model::add_ge`] / [`Model::add_eq`]. Solve with [`crate::solve`].
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    objective: LinExpr,
    pub(crate) sos1_groups: Vec<Vec<Var>>,
}

impl Model {
    /// Creates an empty model optimizing in `sense`.
    #[must_use]
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::zero(),
            sos1_groups: Vec::new(),
        }
    }

    /// The optimization direction.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a continuous variable with bounds `[lb, ub]` (`f64::INFINITY`
    /// allowed for `ub`, `f64::NEG_INFINITY` for `lb`).
    pub fn num_var(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.push_var(name.into(), lb, ub, VarKind::Continuous)
    }

    /// Adds an integer variable with bounds `[lb, ub]`.
    pub fn int_var(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.push_var(name.into(), lb, ub, VarKind::Integer)
    }

    /// Adds a binary (0/1) variable.
    pub fn bool_var(&mut self, name: impl Into<String>) -> Var {
        self.push_var(name.into(), 0.0, 1.0, VarKind::Integer)
    }

    fn push_var(&mut self, name: String, lb: f64, ub: f64, kind: VarKind) -> Var {
        let v = Var(self.vars.len());
        self.vars.push(VarDef { name, lb, ub, kind });
        v
    }

    /// Sets the objective expression.
    pub fn set_objective(&mut self, obj: impl Into<LinExpr>) {
        self.objective = obj.into();
    }

    /// The current objective.
    #[must_use]
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.constraints.push(Constraint {
            expr: expr.into(),
            cmp: Cmp::Le,
            rhs,
        });
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.constraints.push(Constraint {
            expr: expr.into(),
            cmp: Cmp::Ge,
            rhs,
        });
    }

    /// Adds `expr == rhs`.
    pub fn add_eq(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.constraints.push(Constraint {
            expr: expr.into(),
            cmp: Cmp::Eq,
            rhs,
        });
    }

    /// Adds the two-sided constraint `lo <= expr <= hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn add_range(&mut self, expr: impl Into<LinExpr>, lo: f64, hi: f64) {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let e = expr.into();
        self.constraints.push(Constraint {
            expr: e.clone(),
            cmp: Cmp::Ge,
            rhs: lo,
        });
        self.constraints.push(Constraint {
            expr: e,
            cmp: Cmp::Le,
            rhs: hi,
        });
    }

    /// Declares that the given binary variables form an SOS1 group (at most
    /// one non-zero — for the DVS formulation, exactly one by an
    /// accompanying equality). The branch-and-bound uses groups for
    /// split-the-set branching, which is far more effective than 0/1
    /// branching on individual members.
    pub fn add_sos1(&mut self, vars: Vec<Var>) {
        if vars.len() > 1 {
            self.sos1_groups.push(vars);
        }
    }

    /// The continuous (LP) relaxation of this model: every integer
    /// variable becomes continuous over the same bounds and all SOS1
    /// branching groups are dropped. Solving the relaxation yields a valid
    /// lower bound on the MILP objective (for minimization) — the
    /// differential-testing oracle uses this to cross-check the
    /// branch-and-bound result.
    #[must_use]
    pub fn relax(&self) -> Model {
        let mut relaxed = self.clone();
        for v in &mut relaxed.vars {
            v.kind = VarKind::Continuous;
        }
        relaxed.sos1_groups.clear();
        relaxed
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer (including binary) variables.
    #[must_use]
    pub fn num_int_vars(&self) -> usize {
        self.vars
            .iter()
            .filter(|v| v.kind == VarKind::Integer)
            .count()
    }

    /// The name given to `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    #[must_use]
    pub fn var_name(&self, var: Var) -> &str {
        &self.vars[var.0].name
    }

    /// Bounds of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    #[must_use]
    pub fn bounds(&self, var: Var) -> (f64, f64) {
        (self.vars[var.0].lb, self.vars[var.0].ub)
    }

    /// Validates variable bounds and constraint variable references.
    ///
    /// # Errors
    ///
    /// [`MilpError::BadBounds`] or [`MilpError::BadVariable`].
    pub fn validate(&self) -> Result<(), MilpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb > v.ub {
                return Err(MilpError::BadBounds {
                    index: i,
                    lb: v.lb,
                    ub: v.ub,
                });
            }
        }
        let check = |e: &LinExpr| -> Result<(), MilpError> {
            for (v, _) in e.terms() {
                if v.0 >= self.vars.len() {
                    return Err(MilpError::BadVariable { index: v.0 });
                }
            }
            Ok(())
        };
        check(&self.objective)?;
        for c in &self.constraints {
            check(&c.expr)?;
        }
        for g in &self.sos1_groups {
            for v in g {
                if v.0 >= self.vars.len() {
                    return Err(MilpError::BadVariable { index: v.0 });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accumulates_vars_and_constraints() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, 1.0);
        let y = m.bool_var("y");
        let z = m.int_var("z", -5.0, 5.0);
        m.set_objective(x + y + z);
        m.add_le(x + y, 1.0);
        m.add_ge(LinExpr::from(z), -1.0);
        m.add_eq(x - z, 0.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.num_constraints(), 3);
        assert_eq!(m.num_int_vars(), 2);
        assert_eq!(m.var_name(y), "y");
        assert_eq!(m.bounds(z), (-5.0, 5.0));
        assert!(m.validate().is_ok());
    }

    #[test]
    fn inverted_bounds_detected() {
        let mut m = Model::new(Sense::Minimize);
        m.num_var("x", 2.0, 1.0);
        assert!(matches!(m.validate(), Err(MilpError::BadBounds { .. })));
    }

    #[test]
    fn foreign_variable_detected() {
        let mut m = Model::new(Sense::Minimize);
        let _x = m.num_var("x", 0.0, 1.0);
        m.set_objective(LinExpr::from(Var(7)));
        assert!(matches!(
            m.validate(),
            Err(MilpError::BadVariable { index: 7 })
        ));
    }

    #[test]
    fn add_range_expands_to_two_rows() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 10.0);
        m.set_objective(LinExpr::from(x));
        m.add_range(2.0 * x, 3.0, 8.0);
        assert_eq!(m.num_constraints(), 2);
        let s = crate::solve(&m, &crate::SolveOptions::default()).unwrap();
        assert!((s.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn add_range_rejects_inverted() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, 1.0);
        m.add_range(LinExpr::from(x), 2.0, 1.0);
    }

    #[test]
    fn relaxation_lower_bounds_the_milp() {
        // min x + y s.t. 4x + 3y >= 6 with binaries: integral optimum picks
        // x = y = 1 (cost 2); the relaxation sits on the constraint at
        // x = 1, y = 2/3 (cost 5/3).
        let mut m = Model::new(Sense::Minimize);
        let x = m.bool_var("x");
        let y = m.bool_var("y");
        m.set_objective(x + y);
        m.add_ge(4.0 * x + 3.0 * y, 6.0);
        // An unrelated exactly-one pair exercises SOS1 clearing.
        let u = m.bool_var("u");
        let v = m.bool_var("v");
        m.add_eq(u + v, 1.0);
        m.add_sos1(vec![u, v]);
        let integral = crate::solve(&m, &crate::SolveOptions::default()).unwrap();
        assert!((integral.objective - 2.0).abs() < 1e-6);

        let r = m.relax();
        assert_eq!(r.num_int_vars(), 0);
        assert_eq!(r.num_vars(), m.num_vars());
        assert!(r.sos1_groups.is_empty());
        let relaxed = crate::solve(&r, &crate::SolveOptions::default()).unwrap();
        assert!((relaxed.objective - 5.0 / 3.0).abs() < 1e-6);
        assert!(relaxed.objective <= integral.objective + 1e-9);
        // Bounds survive the relaxation.
        assert_eq!(r.bounds(x), (0.0, 1.0));
    }

    #[test]
    fn sos1_singletons_ignored() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.bool_var("x");
        let y = m.bool_var("y");
        m.add_sos1(vec![x]);
        assert!(m.sos1_groups.is_empty());
        m.add_sos1(vec![x, y]);
        assert_eq!(m.sos1_groups.len(), 1);
    }
}
