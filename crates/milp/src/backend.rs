//! The one solve entry point and the exact continuous-voltage algorithm.
//!
//! [`solve`] resolves [`SolveOptions::solver`] against the model and runs
//! one of two searches. Either returns a [`Solution`] whose [`SolveStats`]
//! carry the work counters and the incumbent trajectory, or a
//! [`MilpError`]:
//!
//! * [`SolverChoice::BranchAndBound`] — the general MILP search (see the
//!   crate docs) with basis-reusing dual-simplex node solves and
//!   pseudo-cost branching. Handles every model.
//! * [`SolverChoice::Continuous`] — an exact combinatorial algorithm for
//!   the *continuous-voltage ladder* shape (one exactly-one selection row
//!   per group, at most one non-negative budget row, minimize): per group
//!   the lower convex hull of its `(time, energy)` points is walked
//!   cheapest-rate-first until the time budget is met, in the style of the
//!   Yao–Demers–Shenker / Li–Yao–Yuan continuous DVS algorithms. A sort
//!   and a walk over sorted segments, so `O(n log n)`, with no simplex at
//!   all. On models with integer variables it reports the exact continuous
//!   optimum as `best_bound` and a feasible rounding as the incumbent.
//!
//! [`SolverChoice::Auto`] picks the continuous algorithm exactly when it
//! is exact: no integer variables and the ladder shape extracts. The
//! branch-and-bound also calls into the ladder core at its root (see
//! [`continuous_lower_bound`]) to seed a global bound that lets the search
//! stop the moment the incumbent provably meets it.

use crate::{Cmp, Incumbent, MilpError, Model, Sense, Solution, SolveStats, Status};
use std::time::Instant;

const EXT_TOL: f64 = 1e-9;

/// Settings for [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Which search runs (see [`SolverChoice`]).
    pub solver: SolverChoice,
    /// Stop after this many nodes and return the incumbent (as
    /// [`Status::Feasible`]) or [`MilpError::LimitReached`].
    pub max_nodes: usize,
    /// Run [`crate::presolve()`] on the root problem before the search
    /// (bound tightening, row elimination, coefficient reduction, early
    /// infeasibility). Per-node bound propagation also rides on this flag.
    pub presolve: bool,
    /// Restart each node's LP from its parent's basis with the dual
    /// simplex instead of solving from scratch. Answers are identical
    /// either way (the engine falls back to a fresh solve whenever a warm
    /// start cannot be certified); disabling this exists for regression
    /// testing and diagnosis.
    pub reuse_basis: bool,
    /// A known feasible point (variable values indexed like the model's
    /// variables) that seeds the branch-and-bound incumbent, so the search
    /// prunes against its objective from node one. A start that violates
    /// any bound, row or integrality is silently ignored, as is any start
    /// under the continuous algorithm.
    pub start: Option<Vec<f64>>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            solver: SolverChoice::Auto,
            max_nodes: 500_000,
            presolve: true,
            reuse_basis: true,
            start: None,
        }
    }
}

/// Which search [`solve`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// The continuous algorithm when the model is a pure continuous ladder
    /// (exact), branch-and-bound otherwise.
    #[default]
    Auto,
    /// Always the branch-and-bound MILP search.
    BranchAndBound,
    /// Always the exact continuous-voltage ladder algorithm; errors with
    /// [`MilpError::Unsupported`] on models outside that shape.
    Continuous,
}

impl SolverChoice {
    /// Parses a CLI/daemon spelling: `auto`, `bnb`/`branch-and-bound`, or
    /// `continuous`/`yds`.
    #[must_use]
    pub fn parse(s: &str) -> Option<SolverChoice> {
        match s {
            "auto" => Some(SolverChoice::Auto),
            "bnb" | "branch-and-bound" => Some(SolverChoice::BranchAndBound),
            "continuous" | "yds" => Some(SolverChoice::Continuous),
            _ => None,
        }
    }

    /// The canonical spelling (round-trips through [`SolverChoice::parse`]).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SolverChoice::Auto => "auto",
            SolverChoice::BranchAndBound => "bnb",
            SolverChoice::Continuous => "continuous",
        }
    }

    /// Whether this choice runs the continuous algorithm on `model`.
    /// [`solve`] and [`crate::certify_solution`] both dispatch on this, so
    /// a proof always matches the search that produced the solution.
    pub(crate) fn runs_continuous(self, model: &Model) -> bool {
        match self {
            SolverChoice::Auto => model.num_int_vars() == 0 && extract_ladder(model).is_ok(),
            SolverChoice::BranchAndBound => false,
            SolverChoice::Continuous => true,
        }
    }
}

impl std::fmt::Display for SolverChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Solves `model` with the search `opts.solver` selects.
///
/// # Errors
///
/// * [`MilpError::Infeasible`] — no feasible assignment exists;
/// * [`MilpError::Unbounded`] — the LP relaxation is unbounded;
/// * [`MilpError::LimitReached`] — node budget exhausted with no incumbent;
/// * [`MilpError::SimplexStalled`] — numerical failure in the LP layer;
/// * [`MilpError::Unsupported`] — [`SolverChoice::Continuous`] on a model
///   outside the ladder shape;
/// * validation errors from [`Model::validate`].
pub fn solve(model: &Model, opts: &SolveOptions) -> Result<Solution, MilpError> {
    if opts.solver.runs_continuous(model) {
        solve_continuous(model)
    } else {
        crate::branch::branch_and_bound(model, opts)
    }
}

/// Objective of the LP relaxation of `model` ([`Model::relax`]), solved by
/// [`solve`] under `opts`. The differential-testing oracle and the solver
/// benchmark's cross-check both go through this single path, so they can
/// never drift apart.
///
/// # Errors
///
/// [`MilpError::Infeasible`], [`MilpError::Unbounded`], or LP-layer errors.
pub fn relaxation_bound(model: &Model, opts: &SolveOptions) -> Result<f64, MilpError> {
    Ok(solve(&model.relax(), opts)?.objective)
}

/// The exact continuous-voltage ladder algorithm (see the module docs).
fn solve_continuous(model: &Model) -> Result<Solution, MilpError> {
    let t0 = Instant::now();
    model.validate()?;
    let ladder = extract_ladder(model)?;
    let cont = solve_ladder(&ladder)?;
    if dvs_obs::enabled() {
        dvs_obs::counter("milp.continuous_solves", 1);
    }
    let mut stats = SolveStats {
        nodes: 1,
        best_bound: cont.objective,
        mip_gap: 0.0,
        ..SolveStats::default()
    };
    if model.num_int_vars() == 0 {
        stats.incumbents.push(Incumbent {
            objective: cont.objective,
            node: 0,
            at_us: t0.elapsed().as_secs_f64() * 1e6,
        });
        return Ok(Solution {
            status: Status::Optimal,
            objective: cont.objective,
            values: cont.values,
            stats,
        });
    }
    // Integer model: the continuous optimum is the exact bound; round
    // each fractional group to the *faster* hull endpoint (time can
    // only shrink, so feasibility is preserved).
    let (values, objective, exact) = round_to_fast_endpoints(&ladder, &cont);
    stats.incumbents.push(Incumbent {
        objective,
        node: 0,
        at_us: t0.elapsed().as_secs_f64() * 1e6,
    });
    let status = if exact {
        Status::Optimal
    } else {
        Status::Feasible
    };
    if !exact {
        stats.mip_gap = ((objective - cont.objective) / objective.abs().max(1.0)).max(0.0);
    }
    Ok(Solution {
        status,
        objective,
        values,
        stats,
    })
}

/// Exact continuous ladder bound for `model` in **minimization form**, or
/// `None` when the model does not have the pure ladder shape (integrality
/// is ignored — this is precisely the bound of the continuous relaxation).
/// The branch-and-bound root uses this to seed its global lower bound.
#[must_use]
pub(crate) fn continuous_lower_bound(model: &Model) -> Option<f64> {
    let ladder = extract_ladder(model).ok()?;
    solve_ladder(&ladder).ok().map(|c| c.objective)
}

/// One selectable `(time, energy)` point of a group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pt {
    pub(crate) t: f64,
    pub(crate) e: f64,
    pub(crate) var: usize,
}

/// The extracted pure ladder-selection structure.
pub(crate) struct Ladder {
    pub(crate) num_vars: usize,
    pub(crate) groups: Vec<Vec<Pt>>,
    pub(crate) deadline: f64,
    pub(crate) constant: f64,
}

/// Result of the continuous hull walk.
pub(crate) struct ContinuousOpt {
    pub(crate) objective: f64,
    pub(crate) values: Vec<f64>,
    /// Per group: hull points and the fractional level the walk stopped at
    /// (`level ∈ [0, hull.len()-1]`, integral = a single point is chosen).
    pub(crate) hulls: Vec<Vec<Pt>>,
    pub(crate) levels: Vec<f64>,
    /// Marginal energy-per-time rate of the last segment the walk
    /// consumed (0 when the deadline was slack). This is the KKT
    /// multiplier of the deadline row, which the certifier exports.
    pub(crate) rate: f64,
}

fn unsupported(reason: impl Into<String>) -> MilpError {
    MilpError::Unsupported {
        reason: reason.into(),
    }
}

/// Checks the pure ladder shape and pulls out groups, times, energies and
/// the deadline. Integrality is deliberately ignored: the caller decides
/// whether the continuous answer is exact or a bound.
pub(crate) fn extract_ladder(model: &Model) -> Result<Ladder, MilpError> {
    if model.sense() != Sense::Minimize {
        return Err(unsupported("objective sense must be Minimize"));
    }
    let n = model.num_vars();
    let mut group_of: Vec<Option<usize>> = vec![None; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut budget: Option<(Vec<(usize, f64)>, f64)> = None;
    for c in &model.constraints {
        let rhs = c.rhs - c.expr.constant();
        let terms: Vec<(usize, f64)> = c.expr.terms().map(|(v, a)| (v.index(), a)).collect();
        match c.cmp {
            Cmp::Eq => {
                if (rhs - 1.0).abs() > EXT_TOL {
                    return Err(unsupported("equality row is not an exactly-one row"));
                }
                if terms.iter().any(|&(_, a)| (a - 1.0).abs() > EXT_TOL) {
                    return Err(unsupported("selection row has a non-unit coefficient"));
                }
                let gi = groups.len();
                let mut members = Vec::with_capacity(terms.len());
                for &(j, _) in &terms {
                    if group_of[j].is_some() {
                        return Err(unsupported("variable appears in two selection groups"));
                    }
                    group_of[j] = Some(gi);
                    members.push(j);
                }
                groups.push(members);
            }
            Cmp::Le => {
                if budget.is_some() {
                    return Err(unsupported("more than one budget (<=) row"));
                }
                if terms.iter().any(|&(_, a)| a < -EXT_TOL) {
                    return Err(unsupported("budget row has a negative time coefficient"));
                }
                budget = Some((terms, rhs));
            }
            Cmp::Ge => return Err(unsupported("general >= rows are outside the ladder shape")),
        }
    }
    if groups.is_empty() {
        return Err(unsupported("no selection groups"));
    }
    if group_of.iter().any(Option::is_none) {
        return Err(unsupported("variable outside any selection group"));
    }

    let mut times = vec![0.0f64; n];
    let deadline = match &budget {
        Some((terms, rhs)) => {
            for &(j, a) in terms {
                times[j] = a.max(0.0);
            }
            *rhs
        }
        None => f64::INFINITY,
    };
    let mut energies = vec![0.0f64; n];
    for (v, e) in model.objective().terms() {
        energies[v.index()] = e;
    }

    let mut out_groups = Vec::with_capacity(groups.len());
    for members in &groups {
        let mut pts = Vec::with_capacity(members.len());
        for &j in members {
            let (lb, ub) = (model.vars[j].lb, model.vars[j].ub);
            if lb > EXT_TOL {
                return Err(unsupported("group member with a positive lower bound"));
            }
            if ub < 1.0 - EXT_TOL {
                if ub <= EXT_TOL {
                    continue; // member fixed out of the group
                }
                return Err(unsupported("group member with a fractional upper bound"));
            }
            pts.push(Pt {
                t: times[j],
                e: energies[j],
                var: j,
            });
        }
        out_groups.push(pts);
    }
    Ok(Ladder {
        num_vars: n,
        groups: out_groups,
        deadline,
        constant: model.objective().constant(),
    })
}

/// Efficient frontier then lower convex hull of a group's points, sorted
/// fastest-first (`t` strictly ascending, `e` strictly descending).
pub(crate) fn lower_hull(points: &[Pt]) -> Vec<Pt> {
    let mut sorted: Vec<Pt> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.t.partial_cmp(&b.t)
            .unwrap()
            .then(a.e.partial_cmp(&b.e).unwrap())
            .then(a.var.cmp(&b.var))
    });
    // Dominance filter: with `t` ascending, a point earns a place on the
    // frontier only by strictly beating the running energy minimum (an
    // earlier point is faster-or-equal, so equal-or-higher energy here
    // means dominated). The frontier ends up `t` ascending, `e` strictly
    // descending.
    let mut frontier: Vec<Pt> = Vec::with_capacity(sorted.len());
    for p in sorted {
        match frontier.last() {
            Some(last) if p.e >= last.e - EXT_TOL => {} // dominated
            _ => frontier.push(p),
        }
    }
    // Monotone-chain lower hull over the frontier.
    let cross = |o: &Pt, a: &Pt, b: &Pt| (a.t - o.t) * (b.e - o.e) - (a.e - o.e) * (b.t - o.t);
    let mut hull: Vec<Pt> = Vec::with_capacity(frontier.len());
    for p in frontier {
        while hull.len() >= 2 && cross(&hull[hull.len() - 2], &hull[hull.len() - 1], &p) <= 0.0 {
            hull.pop();
        }
        hull.push(p);
    }
    hull
}

/// The exact continuous optimum: start every group at its minimum-energy
/// (slowest) hull point and buy back time along hull segments in
/// ascending marginal-cost order until the deadline is met.
pub(crate) fn solve_ladder(ladder: &Ladder) -> Result<ContinuousOpt, MilpError> {
    let hulls: Vec<Vec<Pt>> = ladder.groups.iter().map(|g| lower_hull(g)).collect();
    if hulls.iter().any(Vec::is_empty) {
        // A selection row whose members are all fixed to zero.
        return Err(MilpError::Infeasible);
    }
    // Start: slowest hull point of each group (maximum t = minimum e).
    let mut levels: Vec<f64> = hulls.iter().map(|h| (h.len() - 1) as f64).collect();
    let mut total_t: f64 = hulls.iter().map(|h| h.last().unwrap().t).sum();
    let mut objective: f64 =
        ladder.constant + hulls.iter().map(|h| h.last().unwrap().e).sum::<f64>();

    let mut need = total_t - ladder.deadline;
    let mut rate = 0.0f64;
    if need > EXT_TOL {
        // All hull segments across groups: moving from point i+1 to i costs
        // `rate` energy per unit of time saved. Consume cheapest first;
        // within a group, slow-end segments have the lowest rates, so the
        // sort (with the index tie-break) respects per-group order.
        struct Seg {
            rate: f64,
            dt: f64,
            de: f64,
            group: usize,
            idx: usize, // segment between hull[idx] and hull[idx + 1]
        }
        let mut segs: Vec<Seg> = Vec::new();
        for (gi, h) in hulls.iter().enumerate() {
            for i in 0..h.len() - 1 {
                let dt = h[i + 1].t - h[i].t;
                let de = h[i].e - h[i + 1].e;
                if dt > EXT_TOL {
                    segs.push(Seg {
                        rate: de / dt,
                        dt,
                        de,
                        group: gi,
                        idx: i,
                    });
                }
            }
        }
        segs.sort_by(|a, b| {
            a.rate
                .partial_cmp(&b.rate)
                .unwrap()
                .then(a.group.cmp(&b.group))
                .then(b.idx.cmp(&a.idx))
        });
        for s in &segs {
            if need <= EXT_TOL {
                break;
            }
            let take = need.min(s.dt);
            let frac = take / s.dt;
            rate = s.rate;
            levels[s.group] = (s.idx + 1) as f64 - frac;
            objective += frac * s.de;
            total_t -= take;
            need -= take;
        }
        if need > EXT_TOL {
            return Err(MilpError::Infeasible); // even all-fastest misses the deadline
        }
    }
    let _ = total_t;

    let mut values = vec![0.0f64; ladder.num_vars];
    for (h, &lvl) in hulls.iter().zip(&levels) {
        let lo = lvl.floor() as usize;
        let frac = lvl - lvl.floor();
        if frac <= EXT_TOL || lo + 1 >= h.len() {
            values[h[lo.min(h.len() - 1)].var] = 1.0;
        } else {
            values[h[lo].var] = 1.0 - frac;
            values[h[lo + 1].var] = frac;
        }
    }
    Ok(ContinuousOpt {
        objective,
        values,
        hulls,
        levels,
        rate,
    })
}

/// Rounds a fractional continuous solution to one point per group by
/// taking the *faster* hull endpoint of each fractional level. Returns the
/// 0/1 values, the rounded objective, and whether the continuous solution
/// was already integral (in which case the rounding is exact).
fn round_to_fast_endpoints(ladder: &Ladder, cont: &ContinuousOpt) -> (Vec<f64>, f64, bool) {
    let mut values = vec![0.0f64; ladder.num_vars];
    let mut objective = ladder.constant;
    let mut exact = true;
    for (h, &lvl) in cont.hulls.iter().zip(&cont.levels) {
        let lo = (lvl.floor() as usize).min(h.len() - 1);
        if lvl - lvl.floor() > EXT_TOL && lo + 1 < h.len() {
            exact = false;
        }
        values[h[lo].var] = 1.0;
        objective += h[lo].e;
    }
    (values, objective, exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Model};

    /// A little DVS-shaped ladder: `groups` of `(time, energy)` points,
    /// one exactly-one row per group, one deadline row.
    fn ladder_model(groups: &[&[(f64, f64)]], deadline: f64, integral: bool) -> Model {
        let mut m = Model::new(Sense::Minimize);
        let mut obj = LinExpr::zero();
        let mut time = LinExpr::zero();
        for (gi, pts) in groups.iter().enumerate() {
            let mut sum = LinExpr::zero();
            let mut vars = Vec::new();
            for (pi, &(t, e)) in pts.iter().enumerate() {
                let v = if integral {
                    m.bool_var(format!("g{gi}p{pi}"))
                } else {
                    m.num_var(format!("g{gi}p{pi}"), 0.0, 1.0)
                };
                obj += e * v;
                time += t * v;
                sum += LinExpr::from(v);
                vars.push(v);
            }
            m.add_eq(sum, 1.0);
            if integral {
                m.add_sos1(vars);
            }
        }
        m.set_objective(obj);
        m.add_le(time, deadline);
        m
    }

    const G3: &[&[(f64, f64)]] = &[
        &[(1.0, 9.0), (2.0, 4.0), (4.0, 1.0)],
        &[(1.5, 12.0), (3.0, 5.0), (6.0, 2.0)],
        &[(0.5, 6.0), (1.0, 3.0), (2.0, 1.5)],
    ];

    const CHOICES: [SolverChoice; 3] = [
        SolverChoice::Auto,
        SolverChoice::BranchAndBound,
        SolverChoice::Continuous,
    ];

    /// Default settings with `solver` selected.
    fn with(solver: SolverChoice) -> SolveOptions {
        SolveOptions {
            solver,
            ..SolveOptions::default()
        }
    }

    fn continuous(m: &Model) -> Result<Solution, MilpError> {
        solve(m, &with(SolverChoice::Continuous))
    }

    fn bnb(m: &Model) -> Solution {
        solve(m, &with(SolverChoice::BranchAndBound)).unwrap()
    }

    #[test]
    fn slack_deadline_picks_min_energy_points() {
        let m = ladder_model(G3, 100.0, false);
        let s = continuous(&m).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - (1.0 + 2.0 + 1.5)).abs() < 1e-9);
    }

    #[test]
    fn continuous_matches_branch_and_bound_on_relaxation() {
        for &deadline in &[4.0, 5.5, 7.0, 9.0, 12.0] {
            let m = ladder_model(G3, deadline, false);
            let yds = continuous(&m).unwrap();
            let bnb = bnb(&m);
            let rel = (yds.objective - bnb.objective).abs() / bnb.objective.abs().max(1.0);
            assert!(
                rel < 1e-6,
                "deadline {deadline}: yds {} vs bnb {}",
                yds.objective,
                bnb.objective
            );
            // And the reported point actually achieves the objective.
            let recomputed: f64 = m
                .objective()
                .terms()
                .map(|(v, c)| c * yds.values[v.index()])
                .sum();
            assert!((recomputed - yds.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn fractional_mixing_on_tight_deadline() {
        // One group, two points (1, 9) and (4, 1); deadline 2.5 forces the
        // mixture x_fast = 0.5, x_slow = 0.5 -> energy 5.
        let m = ladder_model(&[&[(1.0, 9.0), (4.0, 1.0)]], 2.5, false);
        let s = continuous(&m).unwrap();
        assert!((s.objective - 5.0).abs() < 1e-9);
        assert!((s.values[0] - 0.5).abs() < 1e-9);
        assert!((s.values[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn impossible_deadline_is_infeasible() {
        let m = ladder_model(G3, 1.0, false); // fastest total time is 3.0
        assert!(matches!(continuous(&m), Err(MilpError::Infeasible)));
    }

    #[test]
    fn integer_ladder_rounds_to_feasible_incumbent() {
        let m = ladder_model(G3, 7.0, true);
        let s = continuous(&m).unwrap();
        let exact = bnb(&m);
        // The continuous optimum bounds from below; the rounding is a real
        // feasible point, so it bounds the MILP optimum from above.
        assert!(s.stats.best_bound <= exact.objective + 1e-9);
        assert!(s.objective >= exact.objective - 1e-9);
        // The rounded point satisfies the deadline.
        let time: f64 = (0..m.num_vars())
            .map(|j| s.values[j])
            .zip(m.constraints.last().unwrap().expr.terms())
            .map(|(x, (_, t))| x * t)
            .sum();
        assert!(time <= 7.0 + 1e-9);
    }

    #[test]
    fn unsupported_shapes_are_rejected_with_reasons() {
        // Maximize.
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 1.0);
        m.set_objective(LinExpr::from(x));
        m.add_eq(LinExpr::from(x), 1.0);
        assert!(matches!(continuous(&m), Err(MilpError::Unsupported { .. })));
        // A >= row.
        let mut m2 = ladder_model(G3, 9.0, false);
        let extra = m2.num_var("extra", 0.0, 1.0);
        m2.add_ge(LinExpr::from(extra), 0.5);
        assert!(matches!(
            continuous(&m2),
            Err(MilpError::Unsupported { .. })
        ));
        // Two budget rows.
        let mut m3 = ladder_model(G3, 9.0, false);
        let v0 = crate::Var(0);
        m3.add_le(LinExpr::from(v0), 0.9);
        assert!(matches!(
            continuous(&m3),
            Err(MilpError::Unsupported { .. })
        ));
    }

    #[test]
    fn auto_resolves_by_shape_and_integrality() {
        // The deterministic part of a solution (wall-clock stamps aside),
        // enough to tell which search produced it.
        let key = |s: &Solution| {
            (
                s.status,
                s.objective.to_bits(),
                s.values.clone(),
                s.stats.nodes,
                s.stats.pivots,
            )
        };
        // Relaxed ladder: Auto runs the continuous algorithm, which makes
        // no simplex pivots where branch-and-bound does.
        let relaxed = ladder_model(G3, 9.0, false);
        let auto = solve(&relaxed, &with(SolverChoice::Auto)).unwrap();
        assert_eq!(key(&auto), key(&continuous(&relaxed).unwrap()));
        assert_eq!(auto.stats.pivots, 0);
        assert!(bnb(&relaxed).stats.pivots > 0);
        // Integral ladder: Auto runs branch-and-bound.
        let integral = ladder_model(G3, 9.0, true);
        let auto = solve(&integral, &with(SolverChoice::Auto)).unwrap();
        assert_eq!(key(&auto), key(&bnb(&integral)));
        assert!(auto.stats.pivots > 0);
        // Not a ladder at all: the continuous algorithm refuses it, so Auto
        // falls back to branch-and-bound.
        let mut lp = Model::new(Sense::Maximize);
        let x = lp.num_var("x", 0.0, 4.0);
        lp.set_objective(3.0 * x);
        assert!(matches!(
            continuous(&lp),
            Err(MilpError::Unsupported { .. })
        ));
        let auto = solve(&lp, &with(SolverChoice::Auto)).unwrap();
        assert_eq!(key(&auto), key(&bnb(&lp)));
        assert!((auto.objective - 12.0).abs() < 1e-9);
        assert_eq!(SolverChoice::parse("yds"), Some(SolverChoice::Continuous));
        assert_eq!(SolverChoice::parse("nope"), None);
        for c in CHOICES {
            assert_eq!(SolverChoice::parse(c.as_str()), Some(c));
        }
    }

    #[test]
    fn relaxation_bound_is_shared_and_exact_for_ladders() {
        let m = ladder_model(G3, 6.0, true);
        let bound = relaxation_bound(&m, &SolveOptions::default()).unwrap();
        // Same number the branch-and-bound computes on the relaxation.
        let via_bnb = relaxation_bound(&m, &with(SolverChoice::BranchAndBound)).unwrap();
        assert!((bound - via_bnb).abs() < 1e-6);
        // And it must lower-bound the integral optimum.
        let exact = bnb(&m);
        assert!(bound <= exact.objective + 1e-9);
        // The root seed agrees with the public path.
        let lb = continuous_lower_bound(&m).unwrap();
        assert!((lb - bound).abs() < 1e-9);
    }

    #[test]
    fn incumbent_trajectory_reported_by_every_choice() {
        let m = ladder_model(G3, 6.0, true);
        for choice in CHOICES {
            let s = solve(&m, &with(choice)).unwrap();
            assert!(
                !s.stats.incumbents.is_empty(),
                "{choice}: a solution requires a trajectory"
            );
            for w in s.stats.incumbents.windows(2) {
                assert!(w[1].objective <= w[0].objective + 1e-9, "{choice}");
            }
        }
    }
}
