//! Branch-and-bound driver on top of the LP relaxation.
//!
//! The search keeps **one** [`SimplexEngine`] for the whole tree: the root
//! problem is presolved once (with integrality information, unlocking
//! coefficient reduction), the engine is built on the result, and each node
//! only rewrites variable bounds before solving. Children carry their
//! parent's optimal [`Basis`] and restart the **dual simplex** from it —
//! a bound tightening leaves the parent basis dual feasible, so most node
//! LPs finish in a handful of dual pivots instead of a full two-phase
//! primal solve. Any warm start the engine cannot certify falls back to a
//! fresh solve, so answers never depend on basis reuse being possible.
//!
//! Branching prefers SOS1 group splits where groups are declared,
//! falling back to **pseudo-cost** variable selection with reliability-1
//! initialization: a variable is branched most-fractional until both of
//! its directions have at least one observed LP degradation, after which
//! the product of its per-direction average gains drives the choice.

use crate::presolve::{presolve_int, Presolved};
use crate::simplex::{Basis, LpProblem, LpSolution, LpStatus, RowKind, SimplexEngine};
use crate::{
    Cmp, Incumbent, MilpError, Model, Sense, Solution, SolveOptions, SolveStats, Status, VarKind,
};
use std::rc::Rc;
use std::time::Instant;

const INT_TOL: f64 = 1e-6;
const OBJ_TOL: f64 = 1e-7;

/// Absolute optimality gap at which a node is pruned against the
/// incumbent. The certificate prover folds the same gap into the tolerance
/// it declares, so the proof may prune wherever the search did.
pub(crate) const GAP: f64 = 1e-6;

/// The branch-and-bound search behind [`crate::solve`], wrapped in the
/// `milp.solve` span and the per-solve counters.
pub(crate) fn branch_and_bound(model: &Model, opts: &SolveOptions) -> Result<Solution, MilpError> {
    let _span = dvs_obs::span!("milp.solve");
    let result = search(model, opts);
    if dvs_obs::enabled() {
        dvs_obs::counter("milp.solves", 1);
        if let Ok(sol) = &result {
            dvs_obs::counter("milp.bnb_nodes", sol.stats.nodes as u64);
            dvs_obs::counter("milp.bnb_nodes_pruned", sol.stats.nodes_pruned as u64);
            dvs_obs::counter("milp.incumbents", sol.stats.incumbents.len() as u64);
            dvs_obs::counter("milp.pivots", sol.stats.pivots as u64);
            dvs_obs::counter("milp.dual_pivots", sol.stats.dual_pivots as u64);
            dvs_obs::counter("milp.degenerate_pivots", sol.stats.degenerate_pivots as u64);
            dvs_obs::counter("milp.bound_flips", sol.stats.bound_flips as u64);
            dvs_obs::counter("milp.refactorizations", sol.stats.refactorizations as u64);
            dvs_obs::histogram("milp.bnb_nodes_per_solve", sol.stats.nodes as f64);
            dvs_obs::histogram("milp.simplex_pivots_per_solve", sol.stats.pivots as f64);
            if sol.stats.mip_gap.is_finite() {
                dvs_obs::histogram("milp.final_mip_gap", sol.stats.mip_gap);
            }
        }
    }
    result
}

/// Folds one LP solve's work counters into the running search statistics.
fn absorb_lp(stats: &mut SolveStats, sol: &LpSolution) {
    stats.lp_iterations += sol.iterations;
    stats.pivots += sol.pivots;
    stats.degenerate_pivots += sol.degenerate_pivots;
    stats.bound_flips += sol.bound_flips;
    stats.refactorizations += sol.refactorizations;
    stats.dual_pivots += sol.dual_pivots;
}

/// Appends an incumbent-improvement record (minimization-form objective).
fn record_incumbent(stats: &mut SolveStats, objective: f64, t0: Instant) {
    stats.incumbents.push(Incumbent {
        objective,
        node: stats.nodes,
        at_us: t0.elapsed().as_secs_f64() * 1e6,
    });
}

/// Relative optimality gap of incumbent `obj` against `best_bound`, both
/// in minimization form.
fn relative_gap(obj: f64, best_bound: f64) -> f64 {
    if best_bound.is_finite() {
        ((obj - best_bound) / obj.abs().max(1.0)).max(0.0)
    } else {
        f64::INFINITY
    }
}

/// Per-variable branching history: average objective degradation per unit
/// of fractionality, separately for the down (floor) and up (ceil)
/// directions.
struct PseudoCosts {
    dn_sum: Vec<f64>,
    dn_cnt: Vec<u32>,
    up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
}

impl PseudoCosts {
    fn new(n: usize) -> Self {
        PseudoCosts {
            dn_sum: vec![0.0; n],
            dn_cnt: vec![0; n],
            up_sum: vec![0.0; n],
            up_cnt: vec![0; n],
        }
    }

    fn record(&mut self, j: usize, is_up: bool, gain: f64) {
        if is_up {
            self.up_sum[j] += gain;
            self.up_cnt[j] += 1;
        } else {
            self.dn_sum[j] += gain;
            self.dn_cnt[j] += 1;
        }
    }

    /// Reliability-1: a variable's estimate is trusted once both
    /// directions have been observed at least once.
    fn reliable(&self, j: usize) -> bool {
        self.dn_cnt[j] > 0 && self.up_cnt[j] > 0
    }

    fn score(&self, j: usize, f_dn: f64, f_up: f64) -> f64 {
        const EPS: f64 = 1e-6;
        let dn = self.dn_sum[j] / f64::from(self.dn_cnt[j].max(1));
        let up = self.up_sum[j] / f64::from(self.up_cnt[j].max(1));
        (dn * f_dn).max(EPS) * (up * f_up).max(EPS)
    }
}

/// Integer-aware bound tightening applied per node (one activity pass over
/// the `<=` rows plus integral rounding of the integer variables' bounds).
/// Returns the number of tightenings, or `None` on proven infeasibility.
fn propagate_node_bounds(
    le_rows: &[(Vec<(usize, f64)>, f64)],
    int_vars: &[usize],
    lb: &mut [f64],
    ub: &mut [f64],
) -> Option<usize> {
    const PTOL: f64 = 1e-7;
    let mut tightened = 0usize;
    let round_ints = |lb: &mut [f64], ub: &mut [f64], tightened: &mut usize| -> bool {
        for &j in int_vars {
            if lb[j].is_finite() {
                let r = (lb[j] - 1e-9).ceil();
                if r > lb[j] + 1e-9 {
                    lb[j] = r;
                    *tightened += 1;
                }
            }
            if ub[j].is_finite() {
                let r = (ub[j] + 1e-9).floor();
                if r < ub[j] - 1e-9 {
                    ub[j] = r;
                    *tightened += 1;
                }
            }
            if lb[j] > ub[j] + 1e-9 {
                return false;
            }
        }
        true
    };
    if !round_ints(lb, ub, &mut tightened) {
        return None;
    }
    for (terms, rhs) in le_rows {
        let mut min_act = 0.0f64;
        for &(j, a) in terms {
            min_act += if a > 0.0 { a * lb[j] } else { a * ub[j] };
        }
        if !min_act.is_finite() {
            continue;
        }
        if min_act > rhs + PTOL.max(1e-7 * rhs.abs()) {
            return None;
        }
        for &(j, a) in terms {
            let contrib = if a > 0.0 { a * lb[j] } else { a * ub[j] };
            let rest = min_act - contrib;
            if a > 0.0 {
                let new_ub = (rhs - rest) / a;
                if new_ub < ub[j] - PTOL.max(1e-7 * ub[j].abs()) {
                    ub[j] = new_ub;
                    tightened += 1;
                }
            } else {
                let new_lb = (rhs - rest) / a;
                if new_lb > lb[j] + PTOL.max(1e-7 * lb[j].abs()) {
                    lb[j] = new_lb;
                    tightened += 1;
                }
            }
            if lb[j] > ub[j] + PTOL {
                return None;
            }
        }
    }
    if !round_ints(lb, ub, &mut tightened) {
        return None;
    }
    Some(tightened)
}

/// Assignment-group (GUB) structure detected once at the root: rows of
/// the form `Σ_{j∈G} x_j = 1` over disjoint sets of binary variables —
/// exactly the per-edge mode-selection rows of the DVS formulation.
///
/// `rows` holds every `<=` row, plus the objective as a pseudo-row whose
/// right-hand side is the incumbent cutoff, split into ungrouped terms
/// and per-group member coefficients. That split makes activity bounds
/// group-aware: a group contributes the coefficient of its cheapest
/// still-available member (instead of zero), which both detects
/// infeasibility earlier and supports exact dominance fixing — a member
/// whose selection would push the cheapest completion past the row's
/// right-hand side can never be chosen in an improving solution.
struct Gub {
    /// Group membership (variable indices), disjoint by construction.
    groups: Vec<Vec<usize>>,
    rows: Vec<GubRow>,
}

struct GubRow {
    /// Terms over variables outside every group.
    nongroup: Vec<(usize, f64)>,
    /// Touched groups: the group's full membership with this row's
    /// coefficients (0.0 for members absent from the row).
    groups: Vec<Vec<(usize, f64)>>,
    rhs: f64,
    /// The objective pseudo-row: `rhs` is replaced by the incumbent
    /// cutoff at propagation time.
    is_objective: bool,
}

fn build_gub(lp: &LpProblem, mask: &[bool]) -> Gub {
    const GTOL: f64 = 1e-9;
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); lp.num_rows()];
    for (j, col) in lp.cols.iter().enumerate() {
        for &(r, a) in col {
            rows[r].push((j, a));
        }
    }
    let mut group_of = vec![usize::MAX; lp.num_vars];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    'rows: for (r, terms) in rows.iter().enumerate() {
        if lp.row_kind[r] != RowKind::Eq || (lp.rhs[r] - 1.0).abs() > GTOL || terms.len() < 2 {
            continue;
        }
        for &(j, a) in terms {
            if (a - 1.0).abs() > GTOL
                || !mask[j]
                || lp.lb[j] < -GTOL
                || lp.ub[j] > 1.0 + GTOL
                || group_of[j] != usize::MAX
            {
                continue 'rows;
            }
        }
        for &(j, _) in terms {
            group_of[j] = groups.len();
        }
        groups.push(terms.iter().map(|&(j, _)| j).collect());
    }
    if groups.is_empty() {
        return Gub {
            groups,
            rows: Vec::new(),
        };
    }

    let mut coeff = vec![0.0f64; lp.num_vars];
    let mut build = |terms: &[(usize, f64)], rhs: f64, is_objective: bool| -> GubRow {
        let mut nongroup = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        for &(j, a) in terms {
            if group_of[j] == usize::MAX {
                nongroup.push((j, a));
            } else {
                touched.push(group_of[j]);
                coeff[j] = a;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let grouped = touched
            .iter()
            .map(|&g| groups[g].iter().map(|&j| (j, coeff[j])).collect())
            .collect();
        for &(j, _) in terms {
            coeff[j] = 0.0;
        }
        GubRow {
            nongroup,
            groups: grouped,
            rhs,
            is_objective,
        }
    };

    let obj_terms: Vec<(usize, f64)> = lp
        .obj
        .iter()
        .enumerate()
        .filter(|(_, c)| **c != 0.0)
        .map(|(j, &c)| (j, c))
        .collect();
    let mut out = vec![build(&obj_terms, f64::INFINITY, true)];
    for (r, terms) in rows.iter().enumerate() {
        if lp.row_kind[r] == RowKind::Le {
            out.push(build(terms, lp.rhs[r], false));
        }
    }
    Gub { groups, rows: out }
}

/// Group-aware bound tightening against the node bounds. `cutoff` is the
/// incumbent objective minus the gap (minus the objective offset), or
/// `+inf` while no incumbent exists. Returns the number of tightenings,
/// or `None` on proven infeasibility — meaning no *improving integral*
/// solution survives under these bounds (the node is pruned, which is
/// exactly how the search treats an LP bound at the cutoff).
fn propagate_gub(gub: &Gub, cutoff: f64, lb: &mut [f64], ub: &mut [f64]) -> Option<usize> {
    const PTOL: f64 = 1e-7;
    if gub.groups.is_empty() {
        return Some(0);
    }
    let mut tightened = 0usize;
    for row in &gub.rows {
        let rhs = if row.is_objective { cutoff } else { row.rhs };
        if !rhs.is_finite() {
            continue;
        }
        let mut min_act = 0.0f64;
        for &(j, a) in &row.nongroup {
            min_act += if a > 0.0 { a * lb[j] } else { a * ub[j] };
        }
        if !min_act.is_finite() {
            continue;
        }
        let mut gmins = Vec::with_capacity(row.groups.len());
        for members in &row.groups {
            let mut m = f64::INFINITY;
            for &(j, a) in members {
                if lb[j] >= 0.5 {
                    // Fixed to one: the group's contribution is exact.
                    m = a;
                    break;
                }
                if ub[j] >= 0.5 {
                    m = m.min(a);
                }
            }
            if m == f64::INFINITY {
                return None; // assignment row has no member left
            }
            gmins.push(m);
            min_act += m;
        }
        let tol = PTOL.max(1e-7 * rhs.abs());
        if min_act > rhs + tol {
            return None;
        }
        // Dominance fixing: choosing member j costs `a` where the bound
        // assumed the group's cheapest `m`; if the swap alone overshoots
        // the row, j cannot be the chosen member of its group.
        for (members, &m) in row.groups.iter().zip(&gmins) {
            for &(j, a) in members {
                if ub[j] >= 0.5 && lb[j] < 0.5 && min_act - m + a > rhs + tol {
                    ub[j] = 0.0;
                    tightened += 1;
                }
            }
        }
    }
    // Assignment-row consequences of the fixing above: a chosen member
    // zeroes its siblings, and a group down to one candidate must choose
    // it (bound conflicts surface downstream as lb > ub).
    for members in &gub.groups {
        if let Some(&one) = members.iter().find(|&&j| lb[j] >= 0.5) {
            for &j in members {
                if j != one && ub[j] >= 0.5 {
                    ub[j] = 0.0;
                    tightened += 1;
                }
            }
            continue;
        }
        let mut avail = members.iter().filter(|&&j| ub[j] >= 0.5);
        match (avail.next(), avail.next()) {
            (None, _) => return None,
            (Some(&j), None) if lb[j] < 0.5 => {
                lb[j] = 1.0;
                tightened += 1;
            }
            _ => {}
        }
    }
    Some(tightened)
}

fn int_mask(model: &Model) -> (Vec<usize>, Vec<bool>) {
    let int_vars: Vec<usize> = model
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.kind == VarKind::Integer)
        .map(|(i, _)| i)
        .collect();
    let mut mask = vec![false; model.num_vars()];
    for &j in &int_vars {
        mask[j] = true;
    }
    (int_vars, mask)
}

fn search(model: &Model, opts: &SolveOptions) -> Result<Solution, MilpError> {
    let t0 = Instant::now();
    model.validate()?;
    let base = lower_to_lp(model);
    let (int_vars, mask) = int_mask(model);
    let flip = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    let mut stats = SolveStats {
        best_bound: f64::INFINITY,
        ..SolveStats::default()
    };
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    if let Some(x0) = &opts.start {
        if x0.len() == model.num_vars() && start_is_feasible(model, &base, &int_vars, x0) {
            let obj = recompute_objective(&base, x0);
            record_incumbent(&mut stats, obj, t0);
            incumbent = Some((obj, x0.clone()));
        }
    }

    // Exact continuous-voltage relaxation bound (minimization form) when
    // the model has the pure ladder shape; -inf otherwise. Lets the search
    // terminate the moment the incumbent provably meets the bound.
    let global_lb = if int_vars.is_empty() {
        f64::NEG_INFINITY
    } else {
        crate::backend::continuous_lower_bound(model).unwrap_or(f64::NEG_INFINITY)
    };

    // Root presolve, once: node bounds never remove rows, so the engine's
    // matrix stays valid for the whole search.
    let mut root_infeasible = false;
    let root_lp = if opts.presolve {
        match presolve_int(&base, &mask) {
            Presolved::Reduced {
                problem,
                rows_removed,
                bounds_tightened,
            } => {
                stats.presolve_rows_removed += rows_removed;
                stats.presolve_bounds_tightened += bounds_tightened;
                problem
            }
            Presolved::Infeasible => {
                root_infeasible = true;
                base.clone()
            }
        }
    } else {
        base.clone()
    };

    // Each node records bound overrides for a subset of variables, the
    // parent's LP objective (for pruning before its own LP is paid for),
    // the parent's simplex basis (shared by both children), and which
    // branch created it (for pseudo-cost updates).
    struct Node {
        bounds: Vec<(usize, f64, f64)>,
        parent_bound: f64,
        basis: Option<Rc<Basis>>,
        branch: Option<(usize, bool, f64, f64)>, // (var, is_up, parent_obj, frac_dist)
    }
    let mut stack = if root_infeasible {
        Vec::new()
    } else {
        vec![Node {
            bounds: Vec::new(),
            parent_bound: f64::NEG_INFINITY,
            basis: None,
            branch: None,
        }]
    };
    // A seeded incumbent that already meets the continuous bound ends the
    // search before the first node.
    if let Some((inc, _)) = &incumbent {
        if *inc <= global_lb + GAP {
            stack.clear();
        }
    }

    let mut engine = SimplexEngine::new(&root_lp);
    let mut pc = PseudoCosts::new(model.num_vars());
    let le_rows: Vec<(Vec<(usize, f64)>, f64)> = {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); root_lp.num_rows()];
        for (j, col) in root_lp.cols.iter().enumerate() {
            for &(r, a) in col {
                rows[r].push((j, a));
            }
        }
        rows.into_iter()
            .zip(root_lp.row_kind.iter().zip(&root_lp.rhs))
            .filter(|(_, (k, _))| **k == RowKind::Le)
            .map(|(terms, (_, &rhs))| (terms, rhs))
            .collect()
    };
    let gub = build_gub(&root_lp, &mask);
    let mut root_bound: Option<f64> = None;

    while let Some(node) = stack.pop() {
        if stats.nodes >= opts.max_nodes {
            return match incumbent {
                Some((obj, values)) => {
                    stats.mip_gap = relative_gap(obj, stats.best_bound);
                    Ok(Solution {
                        status: Status::Feasible,
                        objective: flip * obj,
                        values,
                        stats,
                    })
                }
                None => Err(MilpError::LimitReached { incumbent: None }),
            };
        }
        // Prune on the parent's bound before paying for an LP solve.
        if let Some((inc, _)) = &incumbent {
            if node.parent_bound >= inc - GAP {
                stats.nodes_pruned += 1;
                continue;
            }
        }
        stats.nodes += 1;

        // Node bounds = root bounds ∩ overrides, then one propagation pass.
        let mut nlb = root_lp.lb.clone();
        let mut nub = root_lp.ub.clone();
        for &(j, lb, ub) in &node.bounds {
            nlb[j] = nlb[j].max(lb);
            nub[j] = nub[j].min(ub);
        }
        if opts.presolve {
            // Group-aware pass first: with an incumbent, its objective
            // cutoff participates as a pseudo-row, so dominance fixing
            // can delete modes no improving solution selects.
            let cutoff = incumbent
                .as_ref()
                .map_or(f64::INFINITY, |(inc, _)| inc - GAP - root_lp.obj_offset);
            // Iterate to a fixpoint (a fixed mode tightens row activity,
            // which fixes further modes); a handful of rounds suffices.
            let mut pruned = false;
            for _ in 0..4 {
                let mut round = 0usize;
                match propagate_gub(&gub, cutoff, &mut nlb, &mut nub) {
                    Some(tightened) => round += tightened,
                    None => {
                        pruned = true;
                        break;
                    }
                }
                match propagate_node_bounds(&le_rows, &int_vars, &mut nlb, &mut nub) {
                    Some(tightened) => round += tightened,
                    None => {
                        pruned = true;
                        break;
                    }
                }
                stats.presolve_bounds_tightened += round;
                if round == 0 {
                    break;
                }
            }
            if pruned {
                stats.nodes_pruned += 1;
                continue;
            }
        }
        engine.reset_bounds();
        for j in 0..root_lp.num_vars {
            engine.set_bound(j, nlb[j], nub[j]);
        }

        let sol = match (&node.basis, opts.reuse_basis) {
            (Some(warm), true) => match engine.solve_warm(warm) {
                Some(s) => s,
                None => engine.solve_fresh()?,
            },
            _ => engine.solve_fresh()?,
        };
        absorb_lp(&mut stats, &sol);
        match sol.status {
            LpStatus::Infeasible => continue,
            LpStatus::Unbounded => {
                // Only the root relaxation can prove the MILP unbounded.
                if node.bounds.is_empty() {
                    return Err(MilpError::Unbounded);
                }
                continue;
            }
            LpStatus::Optimal => {}
        }
        if root_bound.is_none() {
            root_bound = Some(sol.objective);
            stats.best_bound = sol.objective.max(global_lb);
        }
        if let Some((j, is_up, pobj, fdist)) = node.branch {
            let gain = ((sol.objective - pobj) / fdist.max(1e-9)).max(0.0);
            pc.record(j, is_up, gain);
        }
        if let Some((inc, _)) = &incumbent {
            if sol.objective >= inc - GAP {
                stats.nodes_pruned += 1;
                continue;
            }
        }

        // Integral?
        let frac = |v: f64| (v - v.round()).abs();
        let violated: Vec<usize> = int_vars
            .iter()
            .copied()
            .filter(|&j| frac(sol.x[j]) > INT_TOL)
            .collect();
        if violated.is_empty() {
            let mut x = sol.x.clone();
            for &j in &int_vars {
                x[j] = x[j].round();
            }
            let obj = recompute_objective(&base, &x);
            if incumbent
                .as_ref()
                .is_none_or(|(inc, _)| obj < inc - OBJ_TOL)
            {
                record_incumbent(&mut stats, obj, t0);
                incumbent = Some((obj, x));
                // Incumbent meets the exact continuous bound: optimal.
                if obj <= global_lb + GAP {
                    break;
                }
            }
            continue;
        }

        // Branch. Both children share the parent's optimal basis.
        let shared = Rc::new(engine.basis());
        let children = plan_children(model, &pc, &sol.x, &violated, &node.bounds);
        for (bounds, info) in children {
            stack.push(Node {
                bounds,
                parent_bound: sol.objective,
                basis: Some(Rc::clone(&shared)),
                branch: info.map(|(j, is_up, fdist)| (j, is_up, sol.objective, fdist)),
            });
        }
    }

    match incumbent {
        Some((obj, values)) => {
            stats.best_bound = obj;
            stats.mip_gap = 0.0;
            Ok(Solution {
                status: Status::Optimal,
                objective: flip * obj,
                values,
                stats,
            })
        }
        None => Err(MilpError::Infeasible),
    }
}

/// Produces child bound sets for a fractional LP solution: an SOS1 group
/// split when a declared group has two fractional members, otherwise a
/// pseudo-cost single-variable split. Each child carries its branch
/// metadata for pseudo-cost updates (`(var, is_up, frac_dist)`, `None` for
/// SOS1 splits). Children are returned in the order they should be
/// *pushed* (the most promising child last, so depth-first search explores
/// it first).
#[allow(clippy::type_complexity)]
fn plan_children(
    model: &Model,
    pc: &PseudoCosts,
    x: &[f64],
    violated: &[usize],
    parent_bounds: &[(usize, f64, f64)],
) -> Vec<(Vec<(usize, f64, f64)>, Option<(usize, bool, f64)>)> {
    // Find an SOS1 group with at least two "active" fractional members.
    let mut best_group: Option<(usize, f64)> = None;
    for (gi, group) in model.sos1_groups.iter().enumerate() {
        let fractional: Vec<f64> = group
            .iter()
            .map(|v| x[v.index()])
            .filter(|&v| v > INT_TOL && v < 1.0 - INT_TOL)
            .collect();
        if fractional.len() >= 2 {
            // Prefer the most "balanced" group (entropy proxy: product
            // of top two values).
            let mut vals = fractional.clone();
            vals.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let score = vals[0] * vals[1];
            if best_group.is_none_or(|(_, s)| score > s) {
                best_group = Some((gi, score));
            }
        }
    }
    if let Some((gi, _)) = best_group {
        let group = &model.sos1_groups[gi];
        // Split members into two halves around the weighted median of
        // their LP values.
        let mut members: Vec<(usize, f64)> =
            group.iter().map(|v| (v.index(), x[v.index()])).collect();
        members.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let total: f64 = members.iter().map(|(_, v)| v).sum();
        let mut acc = 0.0;
        let mut cut = 0;
        for (i, (_, v)) in members.iter().enumerate() {
            acc += v;
            if acc >= total * 0.5 {
                cut = i + 1;
                break;
            }
        }
        cut = cut.clamp(1, members.len() - 1);
        let (half_a, half_b) = members.split_at(cut);
        // Child A: everything in half_b forced to 0; child B: half_a to 0.
        let zero = |half: &[(usize, f64)]| {
            let mut b = parent_bounds.to_vec();
            for &(j, _) in half {
                b.push((j, 0.0, 0.0));
            }
            b
        };
        // half_a holds more LP mass; explore the child keeping it first.
        return vec![(zero(half_a), None), (zero(half_b), None)];
    }

    // Single-variable branching.
    let j = select_pseudocost_var(pc, x, violated);
    let floor = x[j].floor();
    let f_dn = x[j] - floor;
    let f_up = 1.0 - f_dn;
    let mut down = parent_bounds.to_vec();
    down.push((j, f64::NEG_INFINITY, floor));
    let mut up = parent_bounds.to_vec();
    up.push((j, floor + 1.0, f64::INFINITY));
    let down = (down, Some((j, false, f_dn)));
    let up = (up, Some((j, true, f_up)));
    // Explore the side nearer the LP value first.
    if f_dn > 0.5 {
        vec![down, up]
    } else {
        vec![up, down]
    }
}

/// Pseudo-cost variable selection with reliability-1 initialization:
/// while any fractional variable lacks history in either direction, pick
/// the most fractional of those; once all are reliable, maximize the
/// product of the per-direction expected degradations. Ties break to the
/// smallest variable index for determinism.
fn select_pseudocost_var(pc: &PseudoCosts, x: &[f64], violated: &[usize]) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for &j in violated {
        if !pc.reliable(j) {
            let f = (x[j] - x[j].round()).abs();
            if best.is_none_or(|(_, bf)| f > bf + 1e-12) {
                best = Some((j, f));
            }
        }
    }
    if let Some((j, _)) = best {
        return j;
    }
    let mut best: Option<(usize, f64)> = None;
    for &j in violated {
        let f_dn = x[j] - x[j].floor();
        let score = pc.score(j, f_dn, 1.0 - f_dn);
        if best.is_none_or(|(_, bs)| score > bs + 1e-15) {
            best = Some((j, score));
        }
    }
    best.expect("violated is non-empty").0
}

/// Converts a [`Model`] to minimization computational form.
pub(crate) fn lower_to_lp(model: &Model) -> LpProblem {
    let n = model.num_vars();
    let mut p = LpProblem::new(n);
    let flip = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    for (v, c) in model.objective().terms() {
        p.obj[v.index()] = flip * c;
    }
    p.obj_offset = flip * model.objective().constant();
    for (j, def) in model.vars.iter().enumerate() {
        p.lb[j] = def.lb;
        p.ub[j] = def.ub;
    }
    for c in &model.constraints {
        let rhs = c.rhs - c.expr.constant();
        let terms: Vec<(usize, f64)> = c.expr.terms().map(|(v, a)| (v.index(), a)).collect();
        match c.cmp {
            Cmp::Le => p.add_row(&terms, RowKind::Le, rhs),
            Cmp::Eq => p.add_row(&terms, RowKind::Eq, rhs),
            Cmp::Ge => {
                let neg: Vec<(usize, f64)> = terms.iter().map(|&(j, a)| (j, -a)).collect();
                p.add_row(&neg, RowKind::Le, -rhs);
            }
        }
    }
    p
}

/// Checks bounds, integrality and every row of the computational-form
/// problem at `x`.
fn start_is_feasible(model: &Model, p: &LpProblem, int_vars: &[usize], x: &[f64]) -> bool {
    const FEAS_TOL: f64 = 1e-6;
    for (j, &xj) in x.iter().enumerate().take(p.num_vars) {
        if xj < p.lb[j] - FEAS_TOL || xj > p.ub[j] + FEAS_TOL {
            return false;
        }
    }
    for &j in int_vars {
        if (x[j] - x[j].round()).abs() > FEAS_TOL {
            return false;
        }
    }
    let _ = model;
    let mut activity = vec![0.0; p.num_rows()];
    for (j, col) in p.cols.iter().enumerate() {
        for &(r, a) in col {
            activity[r] += a * x[j];
        }
    }
    for (r, &act) in activity.iter().enumerate().take(p.num_rows()) {
        let scale = p.rhs[r].abs().max(1.0);
        match p.row_kind[r] {
            crate::simplex::RowKind::Le => {
                if act > p.rhs[r] + FEAS_TOL * scale {
                    return false;
                }
            }
            crate::simplex::RowKind::Eq => {
                if (act - p.rhs[r]).abs() > FEAS_TOL * scale {
                    return false;
                }
            }
        }
    }
    true
}

pub(crate) fn recompute_objective(p: &LpProblem, x: &[f64]) -> f64 {
    p.obj_offset + p.obj.iter().zip(x).map(|(c, v)| c * v).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Model, Sense, SolverChoice};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// [`crate::solve`] forced onto the branch-and-bound search.
    fn bnb_with(m: &Model, opts: SolveOptions) -> Result<Solution, MilpError> {
        crate::solve(
            m,
            &SolveOptions {
                solver: SolverChoice::BranchAndBound,
                ..opts
            },
        )
    }

    fn bnb(m: &Model) -> Result<Solution, MilpError> {
        bnb_with(m, SolveOptions::default())
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 10.0);
        m.set_objective(3.0 * x + 2.0 * y);
        m.add_le(x + y, 4.0);
        m.add_le(x + 3.0 * y, 6.0);
        let s = bnb(&m).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 12.0); // x=4, y=0
    }

    #[test]
    fn knapsack() {
        // Classic 0/1 knapsack: values [60,100,120], weights [10,20,30], cap 50.
        let mut m = Model::new(Sense::Maximize);
        let items: Vec<_> = (0..3).map(|i| m.bool_var(format!("i{i}"))).collect();
        m.set_objective(60.0 * items[0] + 100.0 * items[1] + 120.0 * items[2]);
        m.add_le(10.0 * items[0] + 20.0 * items[1] + 30.0 * items[2], 50.0);
        let s = bnb(&m).unwrap();
        assert_close(s.objective, 220.0); // items 1 and 2
        assert_eq!(s.int_value(items[0]), 0);
        assert_eq!(s.int_value(items[1]), 1);
        assert_eq!(s.int_value(items[2]), 1);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integers -> LP gives 2.5, MILP 2.
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        m.set_objective(x + y);
        m.add_le(2.0 * x + 2.0 * y, 5.0);
        let s = bnb(&m).unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.bool_var("x");
        m.set_objective(LinExpr::from(x));
        m.add_ge(LinExpr::from(x), 2.0);
        assert!(matches!(bnb(&m), Err(MilpError::Infeasible)));
    }

    #[test]
    fn unbounded_milp() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        assert!(matches!(bnb(&m), Err(MilpError::Unbounded)));
    }

    #[test]
    fn assignment_problem_with_sos1() {
        // 3 workers x 3 tasks, minimize cost; optimal = 5 (1+2+2? compute).
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut vars = vec![vec![]; 3];
        for (w, row) in vars.iter_mut().enumerate() {
            for t in 0..3 {
                row.push(m.bool_var(format!("w{w}t{t}")));
            }
        }
        let mut obj = LinExpr::zero();
        for (w, row) in vars.iter().enumerate() {
            for (t, &v) in row.iter().enumerate() {
                obj += cost[w][t] * v;
            }
        }
        m.set_objective(obj);
        for row in &vars {
            let e = row[0] + row[1] + row[2];
            m.add_eq(e, 1.0);
            m.add_sos1(row.clone());
        }
        for ((&a, &b), &c) in vars[0].iter().zip(&vars[1]).zip(&vars[2]) {
            m.add_eq(a + b + c, 1.0);
        }
        let s = bnb(&m).unwrap();
        // Optimal assignment: w0->t1 (1), w1->t0 (2), w2->t2 (2) = 5.
        assert_close(s.objective, 5.0);
        assert_eq!(s.int_value(vars[0][1]), 1);
        assert_eq!(s.int_value(vars[1][0]), 1);
        assert_eq!(s.int_value(vars[2][2]), 1);
    }

    #[test]
    fn equality_constrained_binaries() {
        // Pick exactly 2 of 4 items maximizing value.
        let vals = [3.0, 7.0, 1.0, 5.0];
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..4).map(|i| m.bool_var(format!("x{i}"))).collect();
        let mut obj = LinExpr::zero();
        let mut sum = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            obj += vals[i] * x;
            sum += LinExpr::from(x);
        }
        m.set_objective(obj);
        m.add_eq(sum, 2.0);
        let s = bnb(&m).unwrap();
        assert_close(s.objective, 12.0); // items 1 and 3
    }

    #[test]
    fn negative_objective_and_maximize_flip() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", -3.0, 3.0);
        m.set_objective(LinExpr::from(x) * -2.0 + 1.0);
        let s = bnb(&m).unwrap();
        assert_close(s.objective, -5.0); // x = 3
        assert_eq!(s.int_value(x), 3);
    }

    #[test]
    fn node_limit_reports_incumbent_or_error() {
        let mut m = Model::new(Sense::Maximize);
        // A 12-var knapsack that needs some branching.
        let xs: Vec<_> = (0..12).map(|i| m.bool_var(format!("x{i}"))).collect();
        let mut obj = LinExpr::zero();
        let mut w = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            obj += ((i % 5) as f64 + 1.5) * x;
            w += ((i % 7) as f64 + 2.0) * x;
        }
        m.set_objective(obj);
        m.add_le(w, 11.0);
        let cfg = SolveOptions {
            max_nodes: 1,
            ..SolveOptions::default()
        };
        match bnb_with(&m, cfg) {
            Ok(s) => assert_eq!(s.status, Status::Feasible),
            Err(MilpError::LimitReached { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 3x + 2y, x integer in [0,10], y continuous,
        // s.t. x + y >= 4.3, y <= 2.1  -> x = ceil(2.2) ... optimal x=3, y=1.3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 2.1);
        m.set_objective(3.0 * x + 2.0 * y);
        m.add_ge(x + y, 4.3);
        let s = bnb(&m).unwrap();
        // Candidates: x=3,y=1.3 -> 11.6; x=4,y=0.3 -> 12.6; x=3 wins.
        assert_close(s.objective, 11.6);
        assert_eq!(s.int_value(x), 3);
        assert_close(s.value(y), 1.3);
    }

    #[test]
    fn warm_start_is_used_and_never_worsens_the_answer() {
        // Knapsack where greedy (items 0..) gives a decent start.
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..10).map(|i| m.bool_var(format!("x{i}"))).collect();
        let mut obj = LinExpr::zero();
        let mut w = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            obj += ((i % 4) as f64 + 1.0) * x;
            w += ((i % 5) as f64 + 1.5) * x;
        }
        m.set_objective(obj);
        m.add_le(w, 9.0);
        let cold = bnb(&m).unwrap();
        // A trivially feasible start: everything zero.
        let warm = bnb_with(
            &m,
            SolveOptions {
                start: Some(vec![0.0; 10]),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!((cold.objective - warm.objective).abs() < 1e-6);
        // An infeasible start must be ignored, not believed.
        let still = bnb_with(
            &m,
            SolveOptions {
                start: Some(vec![1.0; 10]),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!((cold.objective - still.objective).abs() < 1e-6);
    }

    #[test]
    fn warm_start_survives_node_limit() {
        // With a 0-node budget, the seeded incumbent is returned as the
        // feasible answer instead of erroring.
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..8).map(|i| m.bool_var(format!("x{i}"))).collect();
        let mut obj = LinExpr::zero();
        let mut w = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            obj += (i as f64 + 1.0) * x;
            w += 2.0 * x;
        }
        m.set_objective(obj);
        m.add_le(w, 7.0);
        let mut start = vec![0.0; 8];
        start[7] = 1.0; // weight 2 <= 7, objective 8
        let cfg = SolveOptions {
            max_nodes: 0,
            start: Some(start),
            ..SolveOptions::default()
        };
        let sol = bnb_with(&m, cfg).unwrap();
        assert_eq!(sol.status, Status::Feasible);
        assert!((sol.objective - 8.0).abs() < 1e-9);
    }

    /// A knapsack family that needs some branching, for sweeps over
    /// several instances.
    fn knapsack_instance(seed: u64, n: usize) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..n).map(|i| m.bool_var(format!("x{i}"))).collect();
        let mut obj = LinExpr::zero();
        let mut w = LinExpr::zero();
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % 97) as f64
        };
        let mut cap = 0.0;
        for &x in &xs {
            obj += (next() + 1.0) * x;
            let wt = next() + 1.0;
            w += wt * x;
            cap += wt;
        }
        m.set_objective(obj);
        m.add_le(w, cap * 0.4);
        m
    }

    #[test]
    fn stats_populated() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 9.0);
        let y = m.int_var("y", 0.0, 9.0);
        m.set_objective(x + y);
        m.add_le(3.0 * x + 7.0 * y, 21.5);
        let s = bnb(&m).unwrap();
        assert!(s.stats.nodes >= 1);
        assert!(
            !s.stats.incumbents.is_empty(),
            "optimum implies an incumbent"
        );
        assert_eq!(s.stats.mip_gap, 0.0, "proven optimal means zero gap");
    }

    #[test]
    fn incumbent_trajectory_is_monotone_and_deterministic() {
        for seed in 0..4u64 {
            let m = knapsack_instance(seed, 14);
            let a = bnb(&m).unwrap();
            let b = bnb(&m).unwrap();
            // Minimization-form objectives strictly improve along the run.
            for w in a.stats.incumbents.windows(2) {
                assert!(
                    w[1].objective < w[0].objective,
                    "seed {seed}: trajectory not strictly improving"
                );
            }
            // Everything except the wall-clock stamps is deterministic.
            let key = |s: &Solution| {
                (
                    s.stats.nodes,
                    s.stats.nodes_pruned,
                    s.stats.lp_iterations,
                    s.stats.pivots,
                    s.stats.bound_flips,
                    s.stats.refactorizations,
                    s.stats.dual_pivots,
                    s.stats.presolve_rows_removed,
                    s.stats.presolve_bounds_tightened,
                    s.stats
                        .incumbents
                        .iter()
                        .map(|i| (i.node, i.objective.to_bits()))
                        .collect::<Vec<_>>(),
                )
            };
            assert_eq!(key(&a), key(&b), "seed {seed}: counters not deterministic");
        }
    }

    #[test]
    fn search_work_counters_are_consistent() {
        let m = knapsack_instance(1, 16);
        let s = bnb(&m).unwrap();
        let st = &s.stats;
        assert!(
            st.pivots + st.bound_flips <= st.lp_iterations,
            "pivots and bound flips are each one simplex iteration"
        );
        assert!(
            st.refactorizations >= 1,
            "a nontrivial LP solve starts with a factorization"
        );
        assert!(st.degenerate_pivots <= st.pivots);
        assert!(st.dual_pivots <= st.pivots, "dual pivots are pivots too");
    }

    #[test]
    fn basis_reuse_matches_from_scratch_objectives() {
        // Pure-binary knapsacks: the reported objective comes from
        // `recompute_objective` over rounded integer values, so basis reuse
        // must reproduce it *bit for bit* while doing less simplex work.
        for seed in 0..5u64 {
            let m = knapsack_instance(seed, 14);
            let reuse = bnb_with(
                &m,
                SolveOptions {
                    reuse_basis: true,
                    ..SolveOptions::default()
                },
            )
            .unwrap();
            let scratch = bnb_with(
                &m,
                SolveOptions {
                    reuse_basis: false,
                    ..SolveOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                reuse.objective.to_bits(),
                scratch.objective.to_bits(),
                "seed {seed}: objectives must be bit-identical"
            );
            assert_eq!(scratch.stats.dual_pivots, 0);
        }
    }
}
