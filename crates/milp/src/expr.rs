use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A decision variable handle. Cheap to copy; only meaningful together with
/// the [`crate::Model`] that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The variable's dense index within its model.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ c_j x_j + constant`, built with ordinary `+`,
/// `-` and `*` operators.
///
/// ```
/// use dvs_milp::{Model, Sense};
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.num_var("x", 0.0, 10.0);
/// let y = m.num_var("y", 0.0, 10.0);
/// let e = 2.0 * x - y + 1.0;
/// assert_eq!(e.coeff(x), 2.0);
/// assert_eq!(e.coeff(y), -1.0);
/// assert_eq!(e.constant(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: BTreeMap<Var, f64>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    #[must_use]
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    #[must_use]
    pub fn constant_expr(c: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// Adds `coeff * var` to the expression.
    pub fn add_term(&mut self, var: Var, coeff: f64) {
        let entry = self.terms.entry(var).or_insert(0.0);
        *entry += coeff;
        if *entry == 0.0 {
            self.terms.remove(&var);
        }
    }

    /// The coefficient of `var` (zero if absent).
    #[must_use]
    pub fn coeff(&self, var: Var) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// The constant term.
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterates `(var, coeff)` pairs in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (Var, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Number of variables with non-zero coefficients.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression has no variable terms.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression at a point given as a dense value vector
    /// indexed by variable index.
    #[must_use]
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * values.get(v.0).copied().unwrap_or(0.0))
                .sum::<f64>()
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        let mut e = LinExpr::zero();
        e.add_term(v, 1.0);
        e
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant_expr(c)
    }
}

// --- operator plumbing ------------------------------------------------

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for c in self.terms.values_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> LinExpr {
        if k == 0.0 {
            return LinExpr::zero();
        }
        for c in self.terms.values_mut() {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, e: LinExpr) -> LinExpr {
        e * self
    }
}

// Var-flavoured sugar: Var op Var, Var op LinExpr, f64 * Var, Var + f64 ...

impl Add<Var> for Var {
    type Output = LinExpr;
    fn add(self, rhs: Var) -> LinExpr {
        LinExpr::from(self) + LinExpr::from(rhs)
    }
}

impl Sub<Var> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: Var) -> LinExpr {
        LinExpr::from(self) - LinExpr::from(rhs)
    }
}

impl Mul<f64> for Var {
    type Output = LinExpr;
    fn mul(self, k: f64) -> LinExpr {
        LinExpr::from(self) * k
    }
}

impl Mul<Var> for f64 {
    type Output = LinExpr;
    fn mul(self, v: Var) -> LinExpr {
        LinExpr::from(v) * self
    }
}

impl Add<f64> for Var {
    type Output = LinExpr;
    fn add(self, c: f64) -> LinExpr {
        LinExpr::from(self) + LinExpr::constant_expr(c)
    }
}

impl Sub<f64> for Var {
    type Output = LinExpr;
    fn sub(self, c: f64) -> LinExpr {
        LinExpr::from(self) - LinExpr::constant_expr(c)
    }
}

impl Add<LinExpr> for Var {
    type Output = LinExpr;
    fn add(self, e: LinExpr) -> LinExpr {
        LinExpr::from(self) + e
    }
}

impl Sub<LinExpr> for Var {
    type Output = LinExpr;
    fn sub(self, e: LinExpr) -> LinExpr {
        LinExpr::from(self) - e
    }
}

impl Add<Var> for LinExpr {
    type Output = LinExpr;
    fn add(self, v: Var) -> LinExpr {
        self + LinExpr::from(v)
    }
}

impl Sub<Var> for LinExpr {
    type Output = LinExpr;
    fn sub(self, v: Var) -> LinExpr {
        self - LinExpr::from(v)
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, c: f64) -> LinExpr {
        self.constant += c;
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, c: f64) -> LinExpr {
        self.constant -= c;
        self
    }
}

impl Neg for Var {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        -LinExpr::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var(i)
    }

    #[test]
    fn builds_and_merges_terms() {
        let e = 2.0 * v(0) + 3.0 * v(1) - v(0) + 5.0;
        assert_eq!(e.coeff(v(0)), 1.0);
        assert_eq!(e.coeff(v(1)), 3.0);
        assert_eq!(e.constant(), 5.0);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn cancelled_terms_are_removed() {
        let e = v(0) + v(1) - v(0);
        assert_eq!(e.coeff(v(0)), 0.0);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn scalar_multiplication_distributes() {
        let e = (v(0) + 2.0 * v(1) + 3.0) * 2.0;
        assert_eq!(e.coeff(v(0)), 2.0);
        assert_eq!(e.coeff(v(1)), 4.0);
        assert_eq!(e.constant(), 6.0);
        let z = e * 0.0;
        assert!(z.is_empty());
        assert_eq!(z.constant(), 0.0);
    }

    #[test]
    fn negation() {
        let e = -(v(0) - 2.0 * v(1) + 1.0);
        assert_eq!(e.coeff(v(0)), -1.0);
        assert_eq!(e.coeff(v(1)), 2.0);
        assert_eq!(e.constant(), -1.0);
    }

    #[test]
    fn eval_at_point() {
        let e = 2.0 * v(0) + 3.0 * v(1) + 1.0;
        assert_eq!(e.eval(&[1.0, 2.0]), 9.0);
        // Missing values read as zero.
        assert_eq!(e.eval(&[1.0]), 3.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut e = LinExpr::zero();
        e += LinExpr::from(v(0));
        e += 2.0 * v(0) + 1.0;
        assert_eq!(e.coeff(v(0)), 3.0);
        assert_eq!(e.constant(), 1.0);
        e -= LinExpr::from(v(0)) * 3.0;
        assert!(e.is_empty());
    }
}
