//! The independent certificate checker.
//!
//! [`check`] replays a [`Certificate`]'s derivation tree in exact dyadic
//! arithmetic and accepts only when every step holds:
//!
//! 1. the incumbent is feasible (rows and bounds, within the declared
//!    `feas_tol`), integral where required, and its exactly-recomputed
//!    objective matches the claimed one within `obj_tol`;
//! 2. every branch node is a sound disjunction — an SOS1 split backed by
//!    a `Σx = 1` equality over non-negative integer variables, or an
//!    integer dichotomy — so the leaves jointly cover every integral
//!    assignment;
//! 3. every leaf proves its box: a `Bound` leaf's dual vector must give an
//!    exact Lagrangian value `≥ objective − tolerance`, a `Farkas` leaf's
//!    ray must prove the box empty.
//!
//! Together these say: no integral point anywhere in the root box beats
//! the incumbent by more than `tolerance`. The checker trusts nothing
//! about how the proof was found; duals are checked by the *unconditional*
//! weak-duality bound (any sign-correct multiplier vector yields a valid
//! bound), so no exact dual-feasibility assumptions about the producing
//! simplex are needed.

use crate::certificate::{CertNode, CertRowKind, Certificate};
use crate::dyadic::Dyadic;
use std::cmp::Ordering;

/// Why a certificate was rejected. Each code names a distinct failure
/// class so fuzzers can assert that a given corruption is caught for the
/// right reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// Structurally broken: out-of-range indices, length mismatches,
    /// non-finite coefficients, negative tolerances.
    Malformed,
    /// The disjunction tree does not cover the integral space: a branch
    /// node with the wrong child count, an unsound SOS1 partition, or a
    /// non-integral split point.
    CoverageGap,
    /// A `Le` row carries a positive multiplier, which weak duality does
    /// not permit.
    DualSignViolation,
    /// A `Bound` leaf's exact Lagrangian value falls short of
    /// `objective − tolerance` (or is `−∞` along an unbounded direction).
    BoundTooWeak,
    /// A `Farkas` leaf's ray fails to prove its box infeasible.
    FarkasNotPositive,
    /// The incumbent violates a row or a variable bound beyond
    /// `feas_tol`.
    IncumbentInfeasible,
    /// The incumbent is fractional on an integer variable beyond
    /// `int_tol`.
    IncumbentNotIntegral,
    /// The exactly-recomputed incumbent objective disagrees with the
    /// claimed objective beyond `obj_tol`.
    ObjectiveMismatch,
}

impl RejectCode {
    /// Stable kebab-case name (used in reports and test assertions).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RejectCode::Malformed => "malformed",
            RejectCode::CoverageGap => "coverage-gap",
            RejectCode::DualSignViolation => "dual-sign-violation",
            RejectCode::BoundTooWeak => "bound-too-weak",
            RejectCode::FarkasNotPositive => "farkas-not-positive",
            RejectCode::IncumbentInfeasible => "incumbent-infeasible",
            RejectCode::IncumbentNotIntegral => "incumbent-not-integral",
            RejectCode::ObjectiveMismatch => "objective-mismatch",
        }
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A rejection: the class plus a human-readable locus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// The failure class.
    pub code: RejectCode,
    /// Where and why, for humans.
    pub detail: String,
}

/// The checker's verdict plus proof-shape statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// `None` when the certificate is accepted.
    pub reject: Option<Reject>,
    /// Leaves proved by a dual bound.
    pub bound_leaves: usize,
    /// Leaves proved infeasible by a Farkas ray.
    pub farkas_leaves: usize,
    /// Leaves whose box was already empty (vacuously covered).
    pub empty_leaves: usize,
    /// Interior disjunction nodes.
    pub branch_nodes: usize,
    /// Deepest leaf, root = 0.
    pub max_depth: usize,
}

impl CheckReport {
    /// `true` when the proof was accepted.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.reject.is_none()
    }

    /// Deterministic JSON rendering for CLIs and caches.
    #[must_use]
    pub fn to_json(&self) -> dvs_obs::json::Json {
        use dvs_obs::json::Json;
        Json::Obj(vec![
            ("ok".into(), Json::from(self.ok())),
            (
                "reject_code".into(),
                self.reject
                    .as_ref()
                    .map_or(Json::Null, |r| Json::from(r.code.as_str())),
            ),
            (
                "reject_detail".into(),
                self.reject
                    .as_ref()
                    .map_or(Json::Null, |r| Json::from(r.detail.as_str())),
            ),
            ("bound_leaves".into(), Json::from(self.bound_leaves as u64)),
            (
                "farkas_leaves".into(),
                Json::from(self.farkas_leaves as u64),
            ),
            ("empty_leaves".into(), Json::from(self.empty_leaves as u64)),
            ("branch_nodes".into(), Json::from(self.branch_nodes as u64)),
            ("max_depth".into(), Json::from(self.max_depth as u64)),
        ])
    }
}

/// Checks a certificate. Never panics on hostile input; the first
/// violation found wins.
#[must_use]
pub fn check(cert: &Certificate) -> CheckReport {
    let mut ck = Checker::new(cert);
    let reject = ck.run().err();
    CheckReport {
        reject,
        bound_leaves: ck.bound_leaves,
        farkas_leaves: ck.farkas_leaves,
        empty_leaves: ck.empty_leaves,
        branch_nodes: ck.branch_nodes,
        max_depth: ck.max_depth,
    }
}

fn dy(v: f64) -> Dyadic {
    // Callers guarantee finiteness (structural validation runs first).
    Dyadic::from_f64(v).expect("finite value")
}

struct Checker<'a> {
    cert: &'a Certificate,
    /// Current node box (mutated along the walk, undone on return).
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Objective coefficients as dyadics, converted once.
    obj_dy: Vec<Dyadic>,
    /// Every leaf must prove at least this value.
    target: Dyadic,
    bound_leaves: usize,
    farkas_leaves: usize,
    empty_leaves: usize,
    branch_nodes: usize,
    max_depth: usize,
}

fn reject(code: RejectCode, detail: impl Into<String>) -> Reject {
    Reject {
        code,
        detail: detail.into(),
    }
}

impl<'a> Checker<'a> {
    fn new(cert: &'a Certificate) -> Self {
        Checker {
            cert,
            lb: cert.snapshot.vars.iter().map(|v| v.lb).collect(),
            ub: cert.snapshot.vars.iter().map(|v| v.ub).collect(),
            obj_dy: Vec::new(),
            target: Dyadic::zero(),
            bound_leaves: 0,
            farkas_leaves: 0,
            empty_leaves: 0,
            branch_nodes: 0,
            max_depth: 0,
        }
    }

    fn run(&mut self) -> Result<(), Reject> {
        self.validate_structure()?;
        self.obj_dy = self.cert.snapshot.obj.iter().map(|&c| dy(c)).collect();
        self.target = dy(self.cert.objective).sub(&dy(self.cert.tolerance));
        self.check_incumbent()?;
        let tree = self.cert.tree.clone();
        self.walk(&tree, 0)
    }

    fn validate_structure(&self) -> Result<(), Reject> {
        let s = &self.cert.snapshot;
        let n = s.vars.len();
        if s.obj.len() != n {
            return Err(reject(
                RejectCode::Malformed,
                format!("objective has {} coefficients for {} vars", s.obj.len(), n),
            ));
        }
        if self.cert.incumbent.len() != n {
            return Err(reject(
                RejectCode::Malformed,
                format!(
                    "incumbent has {} values for {} vars",
                    self.cert.incumbent.len(),
                    n
                ),
            ));
        }
        for (j, v) in s.vars.iter().enumerate() {
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(reject(RejectCode::Malformed, format!("var {j}: NaN bound")));
            }
        }
        for (j, &c) in s.obj.iter().enumerate() {
            if !c.is_finite() {
                return Err(reject(
                    RejectCode::Malformed,
                    format!("objective coefficient {j} not finite"),
                ));
            }
        }
        if !s.obj_offset.is_finite() {
            return Err(reject(RejectCode::Malformed, "objective offset not finite"));
        }
        for (i, row) in s.rows.iter().enumerate() {
            if !row.rhs.is_finite() {
                return Err(reject(
                    RejectCode::Malformed,
                    format!("row {i}: rhs not finite"),
                ));
            }
            for &(j, a) in &row.terms {
                if j >= n {
                    return Err(reject(
                        RejectCode::Malformed,
                        format!("row {i}: var index {j} out of range"),
                    ));
                }
                if !a.is_finite() {
                    return Err(reject(
                        RejectCode::Malformed,
                        format!("row {i}: coefficient on var {j} not finite"),
                    ));
                }
            }
        }
        for (&x, name) in [
            (&self.cert.objective, "objective"),
            (&self.cert.tolerance, "tolerance"),
            (&self.cert.feas_tol, "feas_tol"),
            (&self.cert.int_tol, "int_tol"),
            (&self.cert.obj_tol, "obj_tol"),
        ] {
            if !x.is_finite() {
                return Err(reject(RejectCode::Malformed, format!("{name} not finite")));
            }
        }
        for (&x, name) in [
            (&self.cert.tolerance, "tolerance"),
            (&self.cert.feas_tol, "feas_tol"),
            (&self.cert.int_tol, "int_tol"),
            (&self.cert.obj_tol, "obj_tol"),
        ] {
            if x < 0.0 {
                return Err(reject(RejectCode::Malformed, format!("{name} negative")));
            }
        }
        for (j, &x) in self.cert.incumbent.iter().enumerate() {
            if !x.is_finite() {
                return Err(reject(
                    RejectCode::Malformed,
                    format!("incumbent value {j} not finite"),
                ));
            }
        }
        Ok(())
    }

    fn check_incumbent(&self) -> Result<(), Reject> {
        let s = &self.cert.snapshot;
        let x = &self.cert.incumbent;
        for (j, v) in s.vars.iter().enumerate() {
            if v.integer {
                let frac = (x[j] - x[j].round()).abs();
                if frac > self.cert.int_tol {
                    return Err(reject(
                        RejectCode::IncumbentNotIntegral,
                        format!("var {j}: value {} is {frac} from integral", x[j]),
                    ));
                }
            }
            if x[j] < v.lb - self.cert.feas_tol || x[j] > v.ub + self.cert.feas_tol {
                return Err(reject(
                    RejectCode::IncumbentInfeasible,
                    format!("var {j}: value {} outside [{}, {}]", x[j], v.lb, v.ub),
                ));
            }
        }
        // Row activities, exactly.
        for (i, row) in s.rows.iter().enumerate() {
            let mut act = Dyadic::zero();
            for &(j, a) in &row.terms {
                act.add_product(a, x[j]);
            }
            let tol = self.cert.feas_tol * row.rhs.abs().max(1.0);
            if !tol.is_finite() {
                return Err(reject(
                    RejectCode::Malformed,
                    format!("row {i}: feas_tol scaled by the rhs overflows"),
                ));
            }
            let hi = dy(row.rhs).add(&dy(tol));
            if act.cmp_val(&hi) == Ordering::Greater {
                return Err(reject(
                    RejectCode::IncumbentInfeasible,
                    format!(
                        "row {i}: activity {} exceeds rhs {}",
                        act.to_f64_lossy(),
                        row.rhs
                    ),
                ));
            }
            if row.kind == CertRowKind::Eq {
                let lo = dy(row.rhs).sub(&dy(tol));
                if act.cmp_val(&lo) == Ordering::Less {
                    return Err(reject(
                        RejectCode::IncumbentInfeasible,
                        format!(
                            "row {i}: activity {} below rhs {}",
                            act.to_f64_lossy(),
                            row.rhs
                        ),
                    ));
                }
            }
        }
        // Exact objective vs the claim.
        let mut obj = dy(s.obj_offset);
        for (&c, &xj) in s.obj.iter().zip(x) {
            obj.add_product(c, xj);
        }
        let tol = self.cert.obj_tol * self.cert.objective.abs().max(1.0);
        if !tol.is_finite() {
            return Err(reject(
                RejectCode::Malformed,
                "obj_tol scaled by the objective overflows",
            ));
        }
        let diff = obj.sub(&dy(self.cert.objective));
        let bound = dy(tol);
        if diff.cmp_val(&bound) == Ordering::Greater
            || diff.neg_val().cmp_val(&bound) == Ordering::Greater
        {
            return Err(reject(
                RejectCode::ObjectiveMismatch,
                format!(
                    "exact incumbent objective {} vs claimed {} (allowed {tol})",
                    obj.to_f64_lossy(),
                    self.cert.objective
                ),
            ));
        }
        Ok(())
    }

    fn box_is_empty(&self) -> bool {
        self.lb.iter().zip(&self.ub).any(|(l, u)| l > u)
    }

    fn walk(&mut self, node: &CertNode, depth: usize) -> Result<(), Reject> {
        self.max_depth = self.max_depth.max(depth);
        match node {
            CertNode::Bound { duals } => {
                if self.box_is_empty() {
                    self.empty_leaves += 1;
                    return Ok(());
                }
                self.bound_leaves += 1;
                let val = self.lagrangian(duals, true)?;
                if val.cmp_val(&self.target) == Ordering::Less {
                    return Err(reject(
                        RejectCode::BoundTooWeak,
                        format!(
                            "leaf at depth {depth}: bound {} < objective {} - tolerance {}",
                            val.to_f64_lossy(),
                            self.cert.objective,
                            self.cert.tolerance
                        ),
                    ));
                }
                Ok(())
            }
            CertNode::Farkas { duals } => {
                if self.box_is_empty() {
                    self.empty_leaves += 1;
                    return Ok(());
                }
                self.farkas_leaves += 1;
                let val = self.lagrangian(duals, false)?;
                if val.signum() <= 0 {
                    return Err(reject(
                        RejectCode::FarkasNotPositive,
                        format!(
                            "leaf at depth {depth}: Farkas value {} not positive",
                            val.to_f64_lossy()
                        ),
                    ));
                }
                Ok(())
            }
            CertNode::Sos1 {
                row,
                zero_a,
                zero_b,
                kids,
            } => {
                self.branch_nodes += 1;
                if kids.len() != 2 {
                    return Err(reject(
                        RejectCode::CoverageGap,
                        format!(
                            "sos1 node at depth {depth}: {} children (disjunction truncated)",
                            kids.len()
                        ),
                    ));
                }
                self.validate_sos1(*row, zero_a, zero_b, depth)?;
                for (zero, kid) in [(zero_a, &kids[0]), (zero_b, &kids[1])] {
                    let saved: Vec<(usize, f64)> = zero.iter().map(|&j| (j, self.ub[j])).collect();
                    for &j in zero {
                        self.ub[j] = self.ub[j].min(0.0);
                    }
                    let r = self.walk(kid, depth + 1);
                    for (j, u) in saved {
                        self.ub[j] = u;
                    }
                    r?;
                }
                Ok(())
            }
            CertNode::Split { var, floor, kids } => {
                self.branch_nodes += 1;
                if kids.len() != 2 {
                    return Err(reject(
                        RejectCode::CoverageGap,
                        format!(
                            "split node at depth {depth}: {} children (disjunction truncated)",
                            kids.len()
                        ),
                    ));
                }
                let j = *var;
                if j >= self.cert.snapshot.vars.len() {
                    return Err(reject(
                        RejectCode::Malformed,
                        format!("split node: var {j} out of range"),
                    ));
                }
                if !self.cert.snapshot.vars[j].integer {
                    return Err(reject(
                        RejectCode::CoverageGap,
                        format!("split on continuous var {j} covers no integral disjunction"),
                    ));
                }
                if !floor.is_finite() || floor.fract() != 0.0 {
                    return Err(reject(
                        RejectCode::CoverageGap,
                        format!("split on var {j}: point {floor} not integral"),
                    ));
                }
                let (old_u, old_l) = (self.ub[j], self.lb[j]);
                self.ub[j] = old_u.min(*floor);
                let r = self.walk(&kids[0], depth + 1);
                self.ub[j] = old_u;
                r?;
                self.lb[j] = old_l.max(floor + 1.0);
                let r = self.walk(&kids[1], depth + 1);
                self.lb[j] = old_l;
                r
            }
        }
    }

    /// An SOS1 split over row `r` is sound when the row reads `Σ xⱼ = 1`
    /// over non-negative integer variables (so exactly one support
    /// variable is 1 at any integral point) and no support variable sits
    /// in both zero-halves (so that one variable survives in at least one
    /// child).
    fn validate_sos1(
        &self,
        r: usize,
        zero_a: &[usize],
        zero_b: &[usize],
        depth: usize,
    ) -> Result<(), Reject> {
        let s = &self.cert.snapshot;
        let Some(row) = s.rows.get(r) else {
            return Err(reject(
                RejectCode::Malformed,
                format!("sos1 node: row {r} out of range"),
            ));
        };
        let fail = |msg: String| Err(reject(RejectCode::CoverageGap, msg));
        if row.kind != CertRowKind::Eq {
            return fail(format!("sos1 node at depth {depth}: row {r} is not =="));
        }
        if row.rhs != 1.0 {
            return fail(format!("sos1 node at depth {depth}: row {r} rhs != 1"));
        }
        let mut support = std::collections::BTreeSet::new();
        for &(j, a) in &row.terms {
            if a != 1.0 {
                return fail(format!("sos1 row {r}: coefficient on var {j} != 1"));
            }
            if !s.vars[j].integer {
                return fail(format!("sos1 row {r}: var {j} not integer"));
            }
            if self.lb[j] < 0.0 {
                return fail(format!("sos1 row {r}: var {j} can be negative"));
            }
            support.insert(j);
        }
        for &j in zero_a.iter().chain(zero_b) {
            if !support.contains(&j) {
                return fail(format!("sos1 row {r}: zeroed var {j} outside the group"));
            }
        }
        let za: std::collections::BTreeSet<usize> = zero_a.iter().copied().collect();
        if let Some(&j) = zero_b.iter().find(|j| za.contains(j)) {
            return fail(format!(
                "sos1 row {r}: var {j} zeroed in both halves (its point is uncovered)"
            ));
        }
        Ok(())
    }

    /// The exact Lagrangian `L(y)` over the current box: with the
    /// objective for `Bound` leaves, with `c = 0` for `Farkas` leaves.
    fn lagrangian(&self, duals: &[(usize, f64)], with_obj: bool) -> Result<Dyadic, Reject> {
        let s = &self.cert.snapshot;
        let n = s.vars.len();
        let mut d: Vec<Dyadic> = if with_obj {
            self.obj_dy.clone()
        } else {
            vec![Dyadic::zero(); n]
        };
        let mut sum = if with_obj {
            dy(s.obj_offset)
        } else {
            Dyadic::zero()
        };
        for &(i, y) in duals {
            let Some(row) = s.rows.get(i) else {
                return Err(reject(
                    RejectCode::Malformed,
                    format!("dual on row {i}: out of range"),
                ));
            };
            if !y.is_finite() {
                return Err(reject(
                    RejectCode::Malformed,
                    format!("dual on row {i}: not finite"),
                ));
            }
            if row.kind == CertRowKind::Le && y > 0.0 {
                return Err(reject(
                    RejectCode::DualSignViolation,
                    format!("dual {y} > 0 on <= row {i}"),
                ));
            }
            sum.add_product(y, row.rhs);
            for &(j, a) in &row.terms {
                d[j].add_product(-y, a);
            }
        }
        let weak_code = if with_obj {
            RejectCode::BoundTooWeak
        } else {
            RejectCode::FarkasNotPositive
        };
        for (j, dj) in d.iter().enumerate() {
            let sign = dj.signum();
            if sign == 0 {
                continue;
            }
            let b = if sign > 0 { self.lb[j] } else { self.ub[j] };
            if b.is_infinite() {
                return Err(reject(
                    weak_code,
                    format!("reduced cost on var {j} points along an unbounded direction"),
                ));
            }
            sum.add_scaled(dj, b);
        }
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{CertRow, CertVar, Snapshot};
    use dvs_obs::json::Json;

    /// min x0 + 2·x1  s.t.  x0 + x1 = 1,  x binary. Optimum: x = (1, 0),
    /// objective 1.
    fn tiny() -> Certificate {
        Certificate {
            backend: "bnb".into(),
            snapshot: Snapshot {
                vars: vec![
                    CertVar {
                        lb: 0.0,
                        ub: 1.0,
                        integer: true,
                    },
                    CertVar {
                        lb: 0.0,
                        ub: 1.0,
                        integer: true,
                    },
                ],
                obj: vec![1.0, 2.0],
                obj_offset: 0.0,
                rows: vec![CertRow {
                    kind: CertRowKind::Eq,
                    rhs: 1.0,
                    terms: vec![(0, 1.0), (1, 1.0)],
                }],
                flipped: false,
            },
            incumbent: vec![1.0, 0.0],
            objective: 1.0,
            tolerance: 1e-9,
            feas_tol: 1e-6,
            int_tol: 1e-6,
            obj_tol: 1e-7,
            // Root bound: y = 1 on the equality row gives d = (0, 1),
            // L = 1·1 + 0·lb0 + 1·lb1 = 1 ≥ 1 − tol.
            tree: CertNode::Bound {
                duals: vec![(0, 1.0)],
            },
            meta: Json::Null,
        }
    }

    #[test]
    fn accepts_a_valid_root_bound() {
        let r = check(&tiny());
        assert!(r.ok(), "{:?}", r.reject);
        assert_eq!(r.bound_leaves, 1);
    }

    #[test]
    fn accepts_a_valid_sos1_tree_with_farkas_leaf() {
        let mut c = tiny();
        c.tree = CertNode::Sos1 {
            row: 0,
            zero_a: vec![0],
            zero_b: vec![1],
            kids: vec![
                // Child 0 fixes x0 = 0: box forces x1 = 1, objective 2;
                // same dual still proves ≥ 1.
                CertNode::Bound {
                    duals: vec![(0, 1.0)],
                },
                CertNode::Bound {
                    duals: vec![(0, 1.0)],
                },
            ],
        };
        assert!(check(&c).ok());
        // A branch that zeroes the whole group makes child 0 infeasible;
        // the Farkas ray y = 1 proves it: L₀ = 1 > 0.
        c.tree = CertNode::Sos1 {
            row: 0,
            zero_a: vec![0, 1],
            zero_b: vec![],
            kids: vec![
                CertNode::Farkas {
                    duals: vec![(0, 1.0)],
                },
                CertNode::Bound {
                    duals: vec![(0, 1.0)],
                },
            ],
        };
        let r = check(&c);
        assert!(r.ok(), "{:?}", r.reject);
        assert_eq!(r.farkas_leaves, 1);
    }

    #[test]
    fn rejects_weak_bounds() {
        let mut c = tiny();
        c.tree = CertNode::Bound {
            duals: vec![(0, 0.5)],
        };
        // y = 0.5: d = (0.5, 1.5), L = 0.5 < 1 − tol.
        let r = check(&c);
        assert_eq!(r.reject.unwrap().code, RejectCode::BoundTooWeak);
    }

    #[test]
    fn rejects_positive_dual_on_le_row() {
        let mut c = tiny();
        c.snapshot.rows[0].kind = CertRowKind::Le;
        c.tree = CertNode::Bound {
            duals: vec![(0, 1.0)],
        };
        let r = check(&c);
        assert_eq!(r.reject.unwrap().code, RejectCode::DualSignViolation);
    }

    #[test]
    fn rejects_truncated_disjunctions() {
        let mut c = tiny();
        c.tree = CertNode::Sos1 {
            row: 0,
            zero_a: vec![0],
            zero_b: vec![1],
            kids: vec![CertNode::Bound {
                duals: vec![(0, 1.0)],
            }],
        };
        let r = check(&c);
        assert_eq!(r.reject.unwrap().code, RejectCode::CoverageGap);
    }

    #[test]
    fn rejects_overlapping_zero_halves() {
        let mut c = tiny();
        c.tree = CertNode::Sos1 {
            row: 0,
            zero_a: vec![0, 1],
            zero_b: vec![1],
            kids: vec![
                CertNode::Farkas {
                    duals: vec![(0, 1.0)],
                },
                CertNode::Bound {
                    duals: vec![(0, 1.0)],
                },
            ],
        };
        let r = check(&c);
        assert_eq!(r.reject.unwrap().code, RejectCode::CoverageGap);
    }

    #[test]
    fn rejects_infeasible_incumbent() {
        let mut c = tiny();
        c.incumbent = vec![1.0, 1.0]; // sum = 2 != 1
        let r = check(&c);
        assert_eq!(r.reject.unwrap().code, RejectCode::IncumbentInfeasible);
    }

    #[test]
    fn rejects_fractional_incumbent() {
        let mut c = tiny();
        c.incumbent = vec![0.5, 0.5];
        let r = check(&c);
        assert_eq!(r.reject.unwrap().code, RejectCode::IncumbentNotIntegral);
    }

    #[test]
    fn rejects_stale_objective() {
        let mut c = tiny();
        c.objective = 0.75; // incumbent really costs 1.0
        let r = check(&c);
        assert_eq!(r.reject.unwrap().code, RejectCode::ObjectiveMismatch);
    }

    #[test]
    fn rejects_unbounded_direction() {
        let mut c = tiny();
        c.snapshot.vars[1].ub = f64::INFINITY;
        c.snapshot.vars[1].integer = false;
        // y = 2 makes d1 = 2 − 2 = 0 fine, but y = 3 makes d1 = −1 with
        // ub = ∞ → bound is −∞.
        c.tree = CertNode::Bound {
            duals: vec![(0, 3.0)],
        };
        let r = check(&c);
        assert_eq!(r.reject.unwrap().code, RejectCode::BoundTooWeak);
    }

    #[test]
    fn rejects_structural_damage() {
        let mut c = tiny();
        c.incumbent.pop();
        assert_eq!(check(&c).reject.unwrap().code, RejectCode::Malformed);

        let mut c = tiny();
        c.snapshot.rows[0].terms[0].0 = 99;
        assert_eq!(check(&c).reject.unwrap().code, RejectCode::Malformed);

        let mut c = tiny();
        c.tolerance = -1.0;
        assert_eq!(check(&c).reject.unwrap().code, RejectCode::Malformed);
    }

    #[test]
    fn tolerances_that_overflow_when_scaled_are_malformed() {
        // Both tolerances pass structural validation (finite, non-negative)
        // but overflow once scaled by |rhs| or |objective| = 2.
        let mut c = tiny();
        c.feas_tol = f64::MAX;
        c.snapshot.rows[0].rhs = 2.0;
        assert_eq!(check(&c).reject.unwrap().code, RejectCode::Malformed);

        let mut c = tiny();
        c.obj_tol = f64::MAX;
        c.objective = 2.0;
        c.incumbent = vec![0.0, 1.0];
        assert_eq!(check(&c).reject.unwrap().code, RejectCode::Malformed);
    }

    #[test]
    fn empty_boxes_are_vacuously_covered() {
        let mut c = tiny();
        // Fixing both halves of a split to zero in sequence can empty the
        // box; an empty box needs no proof at all.
        c.tree = CertNode::Split {
            var: 0,
            floor: 0.0,
            kids: vec![
                CertNode::Sos1 {
                    row: 0,
                    zero_a: vec![1],
                    zero_b: vec![0],
                    kids: vec![
                        // x0 ≤ 0 and x1 = 0: infeasible; prove via Farkas.
                        CertNode::Farkas {
                            duals: vec![(0, 1.0)],
                        },
                        // x0 = 0 (already ≤ 0): x1 = 1 is the only point.
                        CertNode::Bound {
                            duals: vec![(0, 1.0)],
                        },
                    ],
                },
                // x0 ≥ 1: x0 = 1, x1 = 0 — the incumbent's cell.
                CertNode::Bound {
                    duals: vec![(0, 1.0)],
                },
            ],
        };
        let r = check(&c);
        assert!(r.ok(), "{:?}", r.reject);
    }
}
