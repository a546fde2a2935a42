//! Post-solve proof logging: turns a solved [`Model`] into a
//! [`dvs_cert::Certificate`] that the independent checker can replay.
//!
//! The prover never trusts the search that produced the solution. For the
//! branch-and-bound backend it runs a *certifying replay*: a fresh
//! depth-first disjunction search over the lowered LP that accepts a leaf
//! only when the exact dyadic weak-duality bound (the same inequality
//! `dvs_cert::check` verifies) already holds — so the emitted tree is
//! accepted by the checker by construction, or certification fails
//! loudly. For the continuous-voltage backend it emits the single-leaf
//! KKT certificate of the hull walk: the deadline row's multiplier is the
//! marginal energy rate where the walk stopped, each selection row's
//! multiplier is the group's best `e + rate·t`, and the declared
//! `tolerance` is the exactly-computed rounding gap between the claimed
//! (endpoint-rounded) objective and the continuous lower bound.
//!
//! The replay deliberately leaves the solver's counters and incumbent
//! trajectory untouched: certification is observation, not search, and
//! [`Solution`] stats stay bit-identical whether or not a proof is
//! emitted. The replay's own work goes to the `certify.nodes`,
//! `certify.lp_solves` and `certify.pivots` obs counters, once per proof,
//! never to the search's `milp.*` ones.

use std::cmp::Ordering;

use crate::backend::{extract_ladder, solve_ladder, SolveOptions};
use crate::branch::{lower_to_lp, GAP};
use crate::model::{Model, Sense, VarKind};
use crate::simplex::{LpProblem, LpStatus, RowKind, SimplexEngine};
use crate::solution::{Solution, Status};
use crate::MilpError;
use dvs_cert::dyadic::Dyadic;
use dvs_cert::{CertNode, CertRow, CertRowKind, CertVar, Certificate, Snapshot};
use dvs_obs::json::Json;

/// Declared incumbent row/bound slack (matches the solver's feasibility
/// tolerance).
const FEAS_TOL: f64 = 1e-6;
/// Declared incumbent integrality slack (matches the solver's).
const INT_TOL: f64 = 1e-6;
/// Declared slack between the exactly-recomputed incumbent objective and
/// the solver's claimed value (relative; covers f64 summation-order
/// noise, which is ~1e-13 in practice).
const OBJ_TOL: f64 = 1e-9;
/// Extra relative slack folded into the branch-and-bound certificate's
/// `tolerance` on top of the solver's [`GAP`], absorbing the floating-point
/// distance between the solver's pruning decisions and the exact bound.
const SLACK_REL: f64 = 1e-7;

fn dy(v: f64) -> Dyadic {
    Dyadic::from_f64(v).expect("finite value")
}

fn unsupported(reason: impl Into<String>) -> MilpError {
    MilpError::Unsupported {
        reason: reason.into(),
    }
}

/// Produces an optimality certificate for `sol`, which must be the result
/// of [`crate::solve`] on `model` under the same `opts`. The prover
/// resolves `opts.solver` against the model exactly as `solve` does: a
/// branch-and-bound solution gets a certifying replay bounded by
/// `opts.max_nodes`, a continuous one the single-leaf KKT certificate.
///
/// The certificate is deterministic: it depends only on the model, the
/// incumbent, and the claimed objective — never on wall clock or the
/// search path the original solve happened to take.
///
/// The proof comes back unchecked. Each leaf of the replay already meets
/// the checker's exact inequality, but the certificate as a whole is
/// checked once, by the caller: the compiler's `MilpFormulation::solve`
/// runs `dvs_cert::check` on every proof it requests and the pass turns a
/// rejection into `PassError::Certify`. Any other caller must check a
/// certificate before handing it on.
///
/// # Errors
///
/// [`MilpError::Unsupported`] when the solution cannot be certified (not
/// proven optimal, or a replay node is unprovable), [`MilpError::LimitReached`]
/// when the replay exhausts `opts.max_nodes`, or LP-layer errors.
pub fn certify_solution(
    model: &Model,
    opts: &SolveOptions,
    sol: &Solution,
) -> Result<Certificate, MilpError> {
    if opts.solver.runs_continuous(model) {
        certify_continuous(model, sol)
    } else {
        certify_bnb(model, opts, sol)
    }
}

fn snapshot_of(p: &LpProblem, model: &Model) -> Snapshot {
    let mut rows: Vec<CertRow> = p
        .row_kind
        .iter()
        .zip(&p.rhs)
        .map(|(&kind, &rhs)| CertRow {
            kind: match kind {
                RowKind::Le => CertRowKind::Le,
                RowKind::Eq => CertRowKind::Eq,
            },
            rhs,
            terms: Vec::new(),
        })
        .collect();
    // Column-major to row-major; the outer loop ascending in `j` leaves
    // every row's terms sorted by variable index (determinism).
    for (j, col) in p.cols.iter().enumerate() {
        for &(r, a) in col {
            rows[r].terms.push((j, a));
        }
    }
    Snapshot {
        vars: (0..p.num_vars)
            .map(|j| CertVar {
                lb: p.lb[j],
                ub: p.ub[j],
                integer: model.vars[j].kind == VarKind::Integer,
            })
            .collect(),
        obj: p.obj.clone(),
        obj_offset: p.obj_offset,
        rows,
        flipped: model.sense() == Sense::Maximize,
    }
}

/// Outcome of the exact Lagrangian evaluation over a box.
#[derive(Debug, PartialEq)]
enum Eval {
    Value(Dyadic),
    /// The reduced cost on `var` points along an infinite bound
    /// (`dir > 0`: positive reduced cost with `lb = -inf`; `dir < 0`:
    /// negative with `ub = +inf`), making the bound `-inf`.
    Unbounded {
        var: usize,
        dir: i32,
    },
}

/// Exactly the inequality the checker verifies: `L(y) = offset + Σ yᵢbᵢ +
/// Σⱼ min(dⱼlⱼ, dⱼuⱼ)` with `dⱼ = cⱼ − (Aᵀy)ⱼ` (and `c = 0` for Farkas
/// rays). Computed in dyadic arithmetic — no rounding anywhere.
fn eval_lagrangian(
    snap: &Snapshot,
    lb: &[f64],
    ub: &[f64],
    duals: &[(usize, f64)],
    with_obj: bool,
) -> Eval {
    let n = snap.vars.len();
    let mut d: Vec<Dyadic> = if with_obj {
        snap.obj.iter().map(|&c| dy(c)).collect()
    } else {
        vec![Dyadic::zero(); n]
    };
    let mut sum = if with_obj {
        dy(snap.obj_offset)
    } else {
        Dyadic::zero()
    };
    for &(i, y) in duals {
        let row = &snap.rows[i];
        sum.add_product(y, row.rhs);
        for &(j, a) in &row.terms {
            d[j].add_product(-y, a);
        }
    }
    for (j, dj) in d.iter().enumerate() {
        let sign = dj.signum();
        if sign == 0 {
            continue;
        }
        let b = if sign > 0 { lb[j] } else { ub[j] };
        if b.is_infinite() {
            return Eval::Unbounded { var: j, dir: sign };
        }
        sum.add_scaled(dj, b);
    }
    Eval::Value(sum)
}

/// One candidate dual vector `y` with its exact reduced costs
/// `dⱼ = cⱼ − (Aᵀy)ⱼ` over a fixed box, kept current across
/// one-coordinate moves. Moving `yᵢ` changes only the reduced costs of
/// row `i`'s terms, so a dual repair costs one row, not a full
/// re-evaluation. Every quantity is an exact dyadic: [`Lagrangian::eval`]
/// returns exactly what [`eval_lagrangian`] returns for the same `y`.
struct Lagrangian<'a> {
    snap: &'a Snapshot,
    lb: &'a [f64],
    ub: &'a [f64],
    with_obj: bool,
    /// Dense duals, one per snapshot row.
    y: Vec<f64>,
    d: Vec<Dyadic>,
}

impl<'a> Lagrangian<'a> {
    /// Builds the reduced costs of `y` from scratch; `obj` is the
    /// snapshot's objective in dyadic form (ignored for Farkas rays).
    fn new(
        snap: &'a Snapshot,
        obj: &[Dyadic],
        lb: &'a [f64],
        ub: &'a [f64],
        y: Vec<f64>,
        with_obj: bool,
    ) -> Self {
        let mut d = if with_obj {
            obj.to_vec()
        } else {
            vec![Dyadic::zero(); snap.vars.len()]
        };
        for (row, &yi) in snap.rows.iter().zip(&y) {
            if yi == 0.0 {
                continue;
            }
            for &(j, a) in &row.terms {
                d[j].add_product(-yi, a);
            }
        }
        Lagrangian {
            snap,
            lb,
            ub,
            with_obj,
            y,
            d,
        }
    }

    /// Moves `yᵢ` to `v`: each of row `i`'s reduced costs changes by
    /// `(v − yᵢ)·(−aᵢⱼ)`, computed exactly.
    fn set(&mut self, i: usize, v: f64) {
        let step = dy(v).sub(&dy(self.y[i]));
        self.y[i] = v;
        for &(j, a) in &self.snap.rows[i].terms {
            self.d[j].add_scaled(&step, -a);
        }
    }

    /// The first reduced cost (by variable index) that points along an
    /// infinite bound, else the exact bound `offset + Σ yᵢbᵢ +
    /// Σⱼ min(dⱼlⱼ, dⱼuⱼ)`.
    fn eval(&self) -> Eval {
        for (j, dj) in self.d.iter().enumerate() {
            let sign = dj.signum();
            if (sign > 0 && self.lb[j].is_infinite()) || (sign < 0 && self.ub[j].is_infinite()) {
                return Eval::Unbounded { var: j, dir: sign };
            }
        }
        let mut sum = if self.with_obj {
            dy(self.snap.obj_offset)
        } else {
            Dyadic::zero()
        };
        for (row, &yi) in self.snap.rows.iter().zip(&self.y) {
            sum.add_product(yi, row.rhs);
        }
        for (j, dj) in self.d.iter().enumerate() {
            let b = match dj.signum() {
                0 => continue,
                1 => self.lb[j],
                _ => self.ub[j],
            };
            sum.add_scaled(dj, b);
        }
        Eval::Value(sum)
    }

    /// The non-zero duals, ascending by row: the leaf's certificate form.
    fn sparse(&self) -> Vec<(usize, f64)> {
        self.y
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Branch-and-bound certifying replay
// ---------------------------------------------------------------------------

enum Branch {
    Sos1 {
        row: usize,
        zero_a: Vec<usize>,
        zero_b: Vec<usize>,
    },
    Split {
        var: usize,
        floor: f64,
    },
}

struct Replay {
    snap: Snapshot,
    engine: SimplexEngine,
    /// Current node box; mutated along the walk with the same update
    /// rules the checker applies (`ub.min(0)` for SOS1 zero-sets,
    /// `min`/`max` clamps for dichotomies), undone on return.
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Column-major coefficient view for dual repair.
    cols: Vec<Vec<(usize, f64)>>,
    /// The snapshot objective in exact form, converted once.
    obj: Vec<Dyadic>,
    /// SOS1-usable rows: `(row, support)` for every `Σx = 1` equality
    /// over non-negative integer variables.
    groups: Vec<(usize, Vec<usize>)>,
    /// Every leaf must prove at least this (claimed − tolerance), exact.
    target: Dyadic,
    nodes: usize,
    lp_solves: usize,
    pivots: usize,
    budget: usize,
}

impl Replay {
    fn new(p: &LpProblem, snap: Snapshot, target: Dyadic, budget: usize) -> Replay {
        let groups =
            snap.rows
                .iter()
                .enumerate()
                .filter(|(_, row)| {
                    row.kind == CertRowKind::Eq
                        && row.rhs == 1.0
                        && row.terms.iter().all(|&(j, a)| {
                            a == 1.0 && snap.vars[j].integer && snap.vars[j].lb >= 0.0
                        })
                })
                .map(|(r, row)| (r, row.terms.iter().map(|&(j, _)| j).collect()))
                .collect();
        Replay {
            engine: SimplexEngine::new(p),
            lb: snap.vars.iter().map(|v| v.lb).collect(),
            ub: snap.vars.iter().map(|v| v.ub).collect(),
            cols: p.cols.clone(),
            obj: snap.obj.iter().map(|&c| dy(c)).collect(),
            groups,
            target,
            snap,
            nodes: 0,
            lp_solves: 0,
            pivots: 0,
            budget,
        }
    }

    /// Proves the current box, branching as deep as needed. Every
    /// returned node is already known to satisfy the checker's test for
    /// it (the exact check ran before the leaf was accepted).
    fn node(&mut self) -> Result<CertNode, MilpError> {
        if self.lb.iter().zip(&self.ub).any(|(l, u)| l > u) {
            // Empty box: vacuously covered; the checker skips the proof.
            return Ok(CertNode::Bound { duals: Vec::new() });
        }
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(MilpError::LimitReached { incumbent: None });
        }
        self.engine.reset_bounds();
        for j in 0..self.snap.vars.len() {
            if self.lb[j] != self.snap.vars[j].lb || self.ub[j] != self.snap.vars[j].ub {
                self.engine.set_bound(j, self.lb[j], self.ub[j]);
            }
        }
        self.lp_solves += 1;
        let lp = self.engine.solve_fresh()?;
        self.pivots += lp.pivots;

        let x = match lp.status {
            LpStatus::Optimal => {
                if let Some(duals) = self.try_leaf(&lp.duals, true) {
                    return Ok(CertNode::Bound { duals });
                }
                Some(lp.x)
            }
            LpStatus::Infeasible => {
                if let Some(duals) = self.try_leaf(&lp.duals, false) {
                    return Ok(CertNode::Farkas { duals });
                }
                if let Some(duals) = self.fixed_row_farkas() {
                    return Ok(CertNode::Farkas { duals });
                }
                if let Some(duals) = self.composite_farkas() {
                    return Ok(CertNode::Farkas { duals });
                }
                None
            }
            LpStatus::Unbounded => {
                return Err(unsupported("certify: node LP is unbounded below"));
            }
        };

        let Some(br) = self.pick_branch(x.as_deref()) else {
            return Err(unsupported(
                "certify: node is unprovable with nothing left to branch on",
            ));
        };
        match br {
            Branch::Sos1 {
                row,
                zero_a,
                zero_b,
            } => {
                let mut kids = Vec::with_capacity(2);
                for zero in [&zero_a, &zero_b] {
                    let saved: Vec<(usize, f64)> = zero.iter().map(|&j| (j, self.ub[j])).collect();
                    for &j in zero.iter() {
                        self.ub[j] = self.ub[j].min(0.0);
                    }
                    let kid = self.node();
                    for &(j, u) in &saved {
                        self.ub[j] = u;
                    }
                    kids.push(kid?);
                }
                Ok(CertNode::Sos1 {
                    row,
                    zero_a,
                    zero_b,
                    kids,
                })
            }
            Branch::Split { var, floor } => {
                let (old_l, old_u) = (self.lb[var], self.ub[var]);
                self.ub[var] = old_u.min(floor);
                let down = self.node();
                self.ub[var] = old_u;
                let down = down?;
                self.lb[var] = old_l.max(floor + 1.0);
                let up = self.node();
                self.lb[var] = old_l;
                Ok(CertNode::Split {
                    var,
                    floor,
                    kids: vec![down, up?],
                })
            }
        }
    }

    /// Tries to turn an LP dual vector into an exactly-verified leaf:
    /// clamps sign violations, repairs reduced costs that point along
    /// infinite bounds, and accepts only when the dyadic inequality
    /// holds. `None` means "branch deeper instead". The reduced costs are
    /// built once from the clamped duals and updated exactly by each
    /// repair; the bound itself is formed once, when no repair is left.
    fn try_leaf(&self, dense: &[f64], with_obj: bool) -> Option<Vec<(usize, f64)>> {
        let m = self.snap.rows.len();
        if dense.len() != m && !dense.is_empty() {
            return None;
        }
        let y: Vec<f64> = (0..m)
            .map(|i| {
                let v = dense.get(i).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    0.0
                } else if self.snap.rows[i].kind == CertRowKind::Le {
                    v.min(0.0)
                } else {
                    v
                }
            })
            .collect();
        let mut lag = Lagrangian::new(&self.snap, &self.obj, &self.lb, &self.ub, y, with_obj);
        let mut mult = 1.0f64;
        let passes = 16 + 4 * self.snap.vars.len();
        for _ in 0..passes {
            match lag.eval() {
                Eval::Value(v) => {
                    let ok = if with_obj {
                        v.cmp_val(&self.target) != Ordering::Less
                    } else {
                        v.signum() > 0
                    };
                    return ok.then(|| lag.sparse());
                }
                Eval::Unbounded { var, dir } => {
                    if !self.repair(&mut lag, var, dir, mult) {
                        return None;
                    }
                    mult *= 2.0;
                }
            }
        }
        None
    }

    /// Nudges one dual toward zero to lift variable `j`'s reduced cost
    /// off an infinite direction. Moving `yᵢ` toward zero by `δ` changes
    /// `dⱼ` by `sign(yᵢ)·aᵢⱼ·δ` and never breaks the `Le` sign condition,
    /// so repair is monotone-safe; the caller re-verifies exactly.
    fn repair(&self, lag: &mut Lagrangian, j: usize, dir: i32, mult: f64) -> bool {
        // The deficit is read from the exact reduced cost: an f64 dot
        // product here can round a −2⁻⁶⁰ deficit (real to the dyadic
        // evaluator) to zero, and a step sized from that zero never moves
        // `y` at all.
        let dj = lag.d[j].to_f64_lossy();
        let y = &lag.y;
        // dir < 0: dⱼ < 0 with ub = ∞, need dⱼ raised; dir > 0: mirrored.
        let wanted = if dir < 0 { 1.0 } else { -1.0 };
        let mut best: Option<(usize, f64, f64)> = None; // (row, coeff, capacity)
        for &(i, a) in &self.cols[j] {
            if y[i] == 0.0 || a == 0.0 || y[i].signum() * a.signum() != wanted {
                continue;
            }
            let cap = (y[i] * a).abs();
            if best.is_none_or(|(_, _, bc)| cap > bc) {
                best = Some((i, a, cap));
            }
        }
        let Some((i, a, _)) = best else {
            return false;
        };
        // The f64 approximation only sizes the step; `mult` escalates on
        // repeat so exactness of the retry loop never depends on it.
        // Floor the step at a few ulps of the dual being nudged so each
        // pass makes representable progress even for sub-ulp deficits;
        // `mult` escalation still guarantees the loop cannot stall.
        let need = (dj.abs() * 1.25 + 1e-300) * mult;
        let delta = (need / a.abs())
            .max(y[i].abs() * (f64::EPSILON * 4.0))
            .min(y[i].abs());
        let moved = if delta >= y[i].abs() {
            0.0
        } else {
            y[i] - y[i].signum() * delta
        };
        lag.set(i, moved);
        true
    }

    /// Last-resort Farkas rays that need no LP duals: a unit multiplier
    /// on any single row proves the box empty whenever that row alone is
    /// violated at the box's worst corner — an SOS1 equality zeroed out
    /// entirely, or the deadline row once the fixed binaries' block time
    /// alone exceeds the budget. The exact evaluator vets every
    /// candidate, so this can only ever add verifiable leaves.
    fn fixed_row_farkas(&self) -> Option<Vec<(usize, f64)>> {
        for (i, row) in self.snap.rows.iter().enumerate() {
            let signs: &[f64] = match row.kind {
                CertRowKind::Eq => &[1.0, -1.0],
                CertRowKind::Le => &[-1.0],
            };
            for &s in signs {
                let cand = vec![(i, s)];
                if let Eval::Value(v) =
                    eval_lagrangian(&self.snap, &self.lb, &self.ub, &cand, false)
                {
                    if v.signum() > 0 {
                        return Some(cand);
                    }
                }
            }
        }
        None
    }

    /// Second-resort Farkas rays for boxes whose violation hides behind
    /// auxiliary variables: a base `Le` row (think: the deadline row) at
    /// multiplier −1 alone undercounts, because its continuous aux terms
    /// sit at `lb = 0` while their defining rows force them higher. For
    /// each such aux the defining row is imported at the *exactly
    /// representable* multiplier `−a/±1` — the two products the exact
    /// evaluator forms then cancel to a true dyadic zero, so no reduced
    /// cost ever points along the aux's infinite bound. Imports are chosen
    /// greedily by exact gain and the final ray is vetted exactly, so this
    /// can only add verifiable leaves.
    fn composite_farkas(&self) -> Option<Vec<(usize, f64)>> {
        for i in 0..self.snap.rows.len() {
            if self.snap.rows[i].kind != CertRowKind::Le {
                continue;
            }
            let base = vec![(i, -1.0)];
            let Eval::Value(l0) = eval_lagrangian(&self.snap, &self.lb, &self.ub, &base, false)
            else {
                continue;
            };
            let mut cand = base.clone();
            for &(j, a) in &self.snap.rows[i].terms {
                if self.snap.vars[j].integer || a <= 0.0 || self.lb[j] >= self.ub[j] {
                    continue;
                }
                let mut best: Option<(usize, f64, Dyadic)> = None;
                for (r, row) in self.snap.rows.iter().enumerate() {
                    if r == i {
                        continue;
                    }
                    let Some(&(_, arj)) = row.terms.iter().find(|&&(k, _)| k == j) else {
                        continue;
                    };
                    if arj.abs() != 1.0 {
                        continue; // multiplier would not divide exactly
                    }
                    // Cancellation: the base contributes `+a` to the aux's
                    // reduced cost, the import `−mult·arj`; `mult = a/arj`
                    // (exact for `|arj| = 1`) zeroes it dyadically.
                    let mult = a / arj;
                    if row.kind == CertRowKind::Le && mult > 0.0 {
                        continue; // would violate the Le sign condition
                    }
                    let mut with = base.clone();
                    with.push((r, mult));
                    let Eval::Value(l1) =
                        eval_lagrangian(&self.snap, &self.lb, &self.ub, &with, false)
                    else {
                        continue;
                    };
                    let gain = l1.sub(&l0);
                    if gain.signum() > 0
                        && best
                            .as_ref()
                            .is_none_or(|(_, _, bg)| gain.cmp_val(bg) == Ordering::Greater)
                    {
                        best = Some((r, mult, gain));
                    }
                }
                if let Some((r, mult, _)) = best {
                    cand.push((r, mult));
                }
            }
            self.eq_row_ascent(&mut cand);
            if cand.len() > 1 {
                cand.sort_unstable_by_key(|&(r, _)| r);
                if let Eval::Value(v) =
                    eval_lagrangian(&self.snap, &self.lb, &self.ub, &cand, false)
                {
                    if v.signum() > 0 {
                        return Some(cand);
                    }
                }
            }
        }
        None
    }

    /// Dual ascent over the exactly-one selection rows, the third leg of
    /// the composite ray. When a box is infeasible because the *fastest
    /// still-available mode of every group* already overruns the deadline,
    /// the ray needs a positive multiplier on each selection row equal to
    /// that group's smallest remaining reduced cost — the base/import legs
    /// above never touch the `Eq` rows at all. Each row's multiplier is
    /// the exact minimum reduced cost over its non-eliminated columns
    /// (rounded to `f64` conservatively), accepted only when the exact
    /// Lagrangian strictly improves, so the ascent can only strengthen a
    /// candidate ray, never invalidate one.
    fn eq_row_ascent(&self, cand: &mut Vec<(usize, f64)>) {
        let Eval::Value(mut best) = eval_lagrangian(&self.snap, &self.lb, &self.ub, cand, false)
        else {
            return;
        };
        // Exact reduced costs under the current candidate ray.
        let mut d = vec![Dyadic::zero(); self.snap.vars.len()];
        for &(i, y) in cand.iter() {
            for &(j, a) in &self.snap.rows[i].terms {
                d[j].add_product(-y, a);
            }
        }
        for (r, row) in self.snap.rows.iter().enumerate() {
            if row.kind != CertRowKind::Eq
                || row.terms.iter().any(|&(_, a)| a != 1.0)
                || cand.iter().any(|&(i, _)| i == r)
            {
                continue;
            }
            // Columns eliminated by branching (`ub = 0`) cannot absorb the
            // row's right-hand side and put no floor on the multiplier.
            let min_d = row
                .terms
                .iter()
                .filter(|&&(j, _)| self.ub[j] > 0.0)
                .map(|&(j, _)| &d[j])
                .min_by(|a, b| a.cmp_val(b));
            let Some(min_d) = min_d else { continue };
            let y = min_d.to_f64_lossy();
            if !(y.is_finite() && y > 0.0) {
                continue;
            }
            cand.push((r, y));
            match eval_lagrangian(&self.snap, &self.lb, &self.ub, cand, false) {
                Eval::Value(l1) if l1.cmp_val(&best) == Ordering::Greater => {
                    best = l1;
                    for &(j, a) in &row.terms {
                        d[j].add_product(-y, a);
                    }
                }
                _ => {
                    cand.pop();
                }
            }
        }
    }

    /// Chooses the next disjunction, mirroring the solver's preference:
    /// an SOS1 group with at least two active members (scored by the
    /// product of its two largest LP values, split at the weighted
    /// median), else a dichotomy on the most fractional integer
    /// variable, else — when the node's LP gave no point to steer by — a
    /// deterministic index split of the first splittable group.
    fn pick_branch(&self, x: Option<&[f64]>) -> Option<Branch> {
        if let Some(x) = x {
            let mut best: Option<(f64, usize, Vec<usize>)> = None;
            for (gi, (_, support)) in self.groups.iter().enumerate() {
                let mut active: Vec<usize> = support
                    .iter()
                    .copied()
                    .filter(|&j| self.ub[j] > 0.0 && x[j] > INT_TOL)
                    .collect();
                if active.len() < 2 {
                    continue;
                }
                active.sort_by(|&a, &b| x[b].partial_cmp(&x[a]).unwrap().then(a.cmp(&b)));
                let score = x[active[0]] * x[active[1]];
                if best.as_ref().is_none_or(|(bs, _, _)| score > *bs) {
                    best = Some((score, gi, active));
                }
            }
            if let Some((_, gi, active)) = best {
                let total: f64 = active.iter().map(|&j| x[j]).sum();
                let mut acc = 0.0;
                let mut cut = active.len() - 1;
                for (k, &j) in active.iter().enumerate() {
                    acc += x[j];
                    if acc >= total * 0.5 {
                        cut = k + 1;
                        break;
                    }
                }
                let cut = cut.clamp(1, active.len() - 1);
                let (head, tail) = active.split_at(cut);
                return Some(Branch::Sos1 {
                    row: self.groups[gi].0,
                    zero_a: tail.to_vec(),
                    zero_b: head.to_vec(),
                });
            }
            let mut best: Option<(usize, f64)> = None;
            for (j, v) in self.snap.vars.iter().enumerate() {
                if !v.integer || self.lb[j] >= self.ub[j] {
                    continue;
                }
                let frac = x[j] - x[j].floor();
                let dist = frac.min(1.0 - frac);
                if dist > INT_TOL && best.is_none_or(|(_, bd)| dist > bd) {
                    best = Some((j, dist));
                }
            }
            if let Some((j, _)) = best {
                return Some(Branch::Split {
                    var: j,
                    floor: x[j].floor(),
                });
            }
        }
        // No LP point (infeasible node) or nothing fractional: fall back
        // to deterministic structural splits so infeasibility margins can
        // grow until a Farkas ray verifies.
        for (row, support) in &self.groups {
            let free: Vec<usize> = support
                .iter()
                .copied()
                .filter(|&j| self.ub[j] > 0.0)
                .collect();
            if free.len() >= 2 {
                let (head, tail) = free.split_at(free.len() / 2);
                return Some(Branch::Sos1 {
                    row: *row,
                    zero_a: tail.to_vec(),
                    zero_b: head.to_vec(),
                });
            }
        }
        for (j, v) in self.snap.vars.iter().enumerate() {
            if v.integer && self.lb[j] < self.ub[j] {
                let floor = if self.lb[j].is_finite() {
                    self.lb[j]
                } else if self.ub[j].is_finite() {
                    self.ub[j] - 1.0
                } else {
                    0.0
                };
                return Some(Branch::Split { var: j, floor });
            }
        }
        None
    }
}

/// Re-derives the incumbent embedded in the certificate as the canonical
/// completion of the solver's integer assignment: integers fixed to their
/// rounded values, continuous variables re-solved by one sequential LP.
///
/// Two searches that reach the same integer answer by different paths (a
/// different warm start, basis reuse on or off) can carry different LP
/// noise in the continuous aux values, and that noise would leak into the
/// encoded certificate. The completion LP depends only on the model and
/// the integer assignment, so such solves certify to identical bytes.
/// Returns the canonical incumbent together with its objective in
/// minimization form (the lowered problem's sense).
fn canonical_incumbent(
    p: &LpProblem,
    model: &Model,
    sol: &Solution,
) -> Result<(Vec<f64>, f64), MilpError> {
    let mut engine = SimplexEngine::new(p);
    for (j, var) in model.vars.iter().enumerate() {
        if var.kind == VarKind::Integer {
            let v = sol.values[j].round();
            engine.set_bound(j, v, v);
        }
    }
    let lp = engine.solve_fresh()?;
    if lp.status != LpStatus::Optimal {
        return Err(unsupported(
            "certify: the incumbent's integer assignment has no feasible completion",
        ));
    }
    let flip = if model.sense() == Sense::Maximize {
        -1.0
    } else {
        1.0
    };
    let solver_claim = flip * sol.objective;
    if (lp.objective - solver_claim).abs() > 1e-6 * solver_claim.abs().max(1.0) {
        return Err(unsupported(format!(
            "certify: canonical completion objective {} disagrees with the solver's claim {}",
            lp.objective, solver_claim
        )));
    }
    Ok((lp.x, lp.objective))
}

fn certify_bnb(
    model: &Model,
    opts: &SolveOptions,
    sol: &Solution,
) -> Result<Certificate, MilpError> {
    if sol.status != Status::Optimal {
        return Err(unsupported(
            "certify: branch-and-bound solution is not proven optimal",
        ));
    }
    let p = lower_to_lp(model);
    let snap = snapshot_of(&p, model);
    let (incumbent, claimed) = canonical_incumbent(&p, model, sol)?;
    let tolerance = GAP + SLACK_REL * claimed.abs().max(1.0);
    let target = dy(claimed).sub(&dy(tolerance));
    let mut replay = Replay::new(&p, snap, target, opts.max_nodes);
    let tree = replay.node();
    if dvs_obs::enabled() {
        dvs_obs::counter("certify.nodes", replay.nodes as u64);
        dvs_obs::counter("certify.lp_solves", replay.lp_solves as u64);
        dvs_obs::counter("certify.pivots", replay.pivots as u64);
    }
    let tree = tree?;
    let cert = Certificate {
        backend: "bnb".into(),
        snapshot: replay.snap,
        incumbent,
        objective: claimed,
        tolerance,
        feas_tol: FEAS_TOL,
        int_tol: INT_TOL,
        obj_tol: OBJ_TOL,
        tree,
        meta: Json::Obj(vec![
            ("replay_nodes".into(), Json::from(replay.nodes as u64)),
            (
                "replay_lp_solves".into(),
                Json::from(replay.lp_solves as u64),
            ),
        ]),
    };
    Ok(cert)
}

// ---------------------------------------------------------------------------
// Continuous-voltage (YDS) KKT certificate
// ---------------------------------------------------------------------------

fn next_up(v: f64) -> f64 {
    debug_assert!(v >= 0.0 && v.is_finite());
    if v == 0.0 {
        f64::from_bits(1)
    } else {
        f64::from_bits(v.to_bits() + 1)
    }
}

fn certify_continuous(model: &Model, sol: &Solution) -> Result<Certificate, MilpError> {
    let p = lower_to_lp(model);
    let snap = snapshot_of(&p, model);
    let ladder = extract_ladder(model)?;
    let cont = solve_ladder(&ladder)?;
    let rate = cont.rate;

    // Row order in the snapshot matches `model.constraints` (lowering
    // preserves it), and `extract_ladder` builds its groups in the same
    // equality-row order — so walking the snapshot rows pairs each
    // selection row with its group and finds the deadline row.
    let mut duals: Vec<(usize, f64)> = Vec::new();
    let mut g = 0usize;
    for (r, row) in snap.rows.iter().enumerate() {
        match row.kind {
            CertRowKind::Eq => {
                // KKT multiplier of the exactly-one row: the group's best
                // deadline-adjusted energy over its available points.
                let mu = ladder.groups[g]
                    .iter()
                    .map(|pt| pt.e + rate * pt.t)
                    .fold(f64::INFINITY, f64::min);
                if mu.is_finite() && mu != 0.0 {
                    duals.push((r, mu));
                }
                g += 1;
            }
            CertRowKind::Le => {
                // KKT multiplier of the deadline row: minus the marginal
                // energy rate where the hull walk stopped.
                if rate != 0.0 {
                    duals.push((r, -rate));
                }
            }
        }
    }

    let lb: Vec<f64> = snap.vars.iter().map(|v| v.lb).collect();
    let ub: Vec<f64> = snap.vars.iter().map(|v| v.ub).collect();
    let bound = match eval_lagrangian(&snap, &lb, &ub, &duals, true) {
        Eval::Value(v) => v,
        Eval::Unbounded { var, .. } => {
            return Err(unsupported(format!(
                "certify: continuous KKT certificate has an unbounded direction on var {var}"
            )));
        }
    };

    // The declared rounding bound: the smallest tolerance that makes the
    // exact inequality `claimed − tolerance ≤ bound` hold. For an exact
    // (integral) continuous solve this is ~0; for an endpoint-rounded
    // solve it is precisely the rounding gap the backend reported.
    let claimed = sol.objective;
    let claimed_dy = dy(claimed);
    let mut tolerance = claimed_dy.sub(&bound).to_f64_lossy().max(0.0);
    for _ in 0..128 {
        if claimed_dy.sub(&dy(tolerance)).cmp_val(&bound) != Ordering::Greater {
            break;
        }
        tolerance = next_up(tolerance);
    }
    if claimed_dy.sub(&dy(tolerance)).cmp_val(&bound) == Ordering::Greater {
        return Err(unsupported(
            "certify: continuous KKT bound is unexpectedly weak",
        ));
    }

    let cert = Certificate {
        backend: "continuous".into(),
        snapshot: snap,
        incumbent: sol.values.clone(),
        objective: claimed,
        tolerance,
        feas_tol: FEAS_TOL,
        int_tol: INT_TOL,
        obj_tol: OBJ_TOL,
        tree: CertNode::Bound { duals },
        meta: Json::Obj(vec![
            ("rate".into(), Json::Num(rate)),
            ("continuous_bound".into(), Json::Num(bound.to_f64_lossy())),
        ]),
    };
    Ok(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, LinExpr, SolverChoice};

    /// A ladder-shaped model: groups of `(time, energy)` points, one
    /// exactly-one row per group (plus an SOS1 hint), one deadline row.
    fn ladder_model(groups: &[&[(f64, f64)]], deadline: f64) -> Model {
        let mut m = Model::new(Sense::Minimize);
        let mut obj = LinExpr::zero();
        let mut time = LinExpr::zero();
        for (gi, pts) in groups.iter().enumerate() {
            let mut sum = LinExpr::zero();
            let mut vars = Vec::new();
            for (pi, &(t, e)) in pts.iter().enumerate() {
                let v = m.bool_var(format!("g{gi}p{pi}"));
                obj += e * v;
                time += t * v;
                sum += 1.0 * v;
                vars.push(v);
            }
            m.add_sos1(vars);
            m.add_eq(sum, 1.0);
        }
        m.add_le(time, deadline);
        m.set_objective(obj);
        m
    }

    fn opts(solver: SolverChoice) -> SolveOptions {
        SolveOptions {
            solver,
            ..SolveOptions::default()
        }
    }

    /// SplitMix64: enough randomness for the differential test below.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`, with a full 53-bit mantissa.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        /// A random dual that is sign-correct for a row of `kind`, with a
        /// full mantissa at one of twelve binary scales, so that the
        /// difference of two duals is often not an `f64`.
        fn dual(&mut self, kind: CertRowKind) -> f64 {
            let scale = 2f64.powi(self.below(12) as i32 - 8);
            let v = self.range(0.5, 1.0) * scale;
            if kind == CertRowKind::Le || self.below(2) == 0 {
                -v
            } else {
                v
            }
        }
    }

    /// The kept reduced costs against the from-scratch oracle: on random
    /// ladder models with some bounds opened to ±∞ and random sign-correct
    /// duals, every step of a repair sequence must report the same first
    /// unbounded variable, or the same exact value, as `eval_lagrangian`.
    #[test]
    fn kept_reduced_costs_match_a_from_scratch_evaluation() {
        let mut rng = Rng(0xd1a1);
        let (mut repairs, mut values) = (0usize, 0usize);
        for case in 0..60 {
            let groups: Vec<Vec<(f64, f64)>> = (0..2 + rng.below(3))
                .map(|_| {
                    (0..2 + rng.below(3))
                        .map(|_| (rng.range(0.5, 6.0), rng.range(0.5, 12.0)))
                        .collect()
                })
                .collect();
            let refs: Vec<&[(f64, f64)]> = groups.iter().map(Vec::as_slice).collect();
            let m = ladder_model(&refs, rng.range(2.0, 12.0));
            let p = lower_to_lp(&m);
            let mut replay = Replay::new(&p, snapshot_of(&p, &m), Dyadic::zero(), 1);
            for j in 0..replay.lb.len() {
                match rng.below(4) {
                    0 => replay.lb[j] = f64::NEG_INFINITY,
                    1 => replay.ub[j] = f64::INFINITY,
                    _ => {}
                }
            }
            let with_obj = case % 2 == 0;
            let kinds: Vec<CertRowKind> = replay.snap.rows.iter().map(|r| r.kind).collect();
            let y = kinds.iter().map(|&k| rng.dual(k)).collect();
            let mut lag = Lagrangian::new(
                &replay.snap,
                &replay.obj,
                &replay.lb,
                &replay.ub,
                y,
                with_obj,
            );
            let mut mult = 1.0;
            for step in 0..32 {
                let kept = lag.eval();
                let fresh = eval_lagrangian(
                    &replay.snap,
                    &replay.lb,
                    &replay.ub,
                    &lag.sparse(),
                    with_obj,
                );
                assert_eq!(kept, fresh, "case {case}, step {step}");
                match kept {
                    Eval::Unbounded { var, dir } if replay.repair(&mut lag, var, dir, mult) => {
                        repairs += 1;
                        mult *= 2.0;
                    }
                    _ => {
                        values += usize::from(matches!(kept, Eval::Value(_)));
                        let i = rng.below(kinds.len());
                        let v = if rng.below(4) == 0 {
                            0.0
                        } else {
                            rng.dual(kinds[i])
                        };
                        lag.set(i, v);
                    }
                }
            }
        }
        assert!(
            repairs >= 100 && values >= 100,
            "{repairs} repairs, {values} values"
        );
    }

    #[test]
    fn bnb_certificate_passes_the_checker() {
        let m = ladder_model(
            &[
                &[(1.0, 9.0), (2.0, 4.0), (4.0, 1.0)],
                &[(1.0, 7.0), (3.0, 2.0)],
                &[(2.0, 5.0), (5.0, 1.5)],
            ],
            7.0,
        );
        let sol = solve(&m, &opts(SolverChoice::BranchAndBound)).unwrap();
        let cert = certify_solution(&m, &opts(SolverChoice::BranchAndBound), &sol).unwrap();
        let report = dvs_cert::check(&cert);
        assert!(report.ok(), "{:?}", report.reject);
        assert!(report.bound_leaves + report.empty_leaves >= 1);
        assert_eq!(cert.backend, "bnb");
    }

    #[test]
    fn continuous_certificate_declares_the_rounding_gap() {
        let m = ladder_model(
            &[
                &[(1.0, 9.0), (2.0, 4.0), (4.0, 1.0)],
                &[(1.0, 7.0), (3.0, 2.0)],
            ],
            5.0,
        );
        let sol = solve(&m, &opts(SolverChoice::Continuous)).unwrap();
        let cert = certify_solution(&m, &opts(SolverChoice::Continuous), &sol).unwrap();
        let report = dvs_cert::check(&cert);
        assert!(report.ok(), "{:?}", report.reject);
        assert_eq!(cert.backend, "continuous");
        assert_eq!(report.bound_leaves, 1);
        // The declared tolerance is the rounding gap: claimed − bound.
        assert!(cert.tolerance >= 0.0);
    }

    #[test]
    fn certificates_are_deterministic_bytes() {
        let m = ladder_model(
            &[
                &[(1.0, 9.0), (2.0, 4.0), (4.0, 1.0)],
                &[(1.0, 7.0), (3.0, 2.0)],
            ],
            6.0,
        );
        let sol = solve(&m, &opts(SolverChoice::BranchAndBound)).unwrap();
        let a = certify_solution(&m, &opts(SolverChoice::BranchAndBound), &sol).unwrap();
        let b = certify_solution(&m, &opts(SolverChoice::BranchAndBound), &sol).unwrap();
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn corrupted_claim_is_rejected_not_certified() {
        let m = ladder_model(&[&[(1.0, 9.0), (2.0, 4.0)]], 2.0);
        let mut sol = solve(&m, &opts(SolverChoice::BranchAndBound)).unwrap();
        // Claim a better objective than the true optimum: the replay
        // cannot prove the tighter target and must refuse to certify.
        sol.objective -= 1.0;
        let err = certify_solution(&m, &opts(SolverChoice::BranchAndBound), &sol);
        assert!(err.is_err());
    }

    #[test]
    fn infeasible_branches_get_farkas_leaves() {
        // Tight deadline: only the fastest point of each group fits, so
        // most disjunction children are infeasible.
        let m = ladder_model(
            &[
                &[(1.0, 9.0), (2.0, 4.0), (4.0, 1.0)],
                &[(1.0, 7.0), (3.0, 2.0)],
            ],
            2.0,
        );
        let sol = solve(&m, &opts(SolverChoice::BranchAndBound)).unwrap();
        let cert = certify_solution(&m, &opts(SolverChoice::BranchAndBound), &sol).unwrap();
        let report = dvs_cert::check(&cert);
        assert!(report.ok(), "{:?}", report.reject);
    }
}
