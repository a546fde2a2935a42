//! The §4.3 multi-input-category formulation.
//!
//! Different inputs fall into categories (for MPEG: streams with vs
//! without B frames). One profile is gathered per category; the MILP then
//! minimizes the *weighted average* energy across categories while
//! enforcing each category's deadline, with a single shared mode
//! assignment.

use crate::EdgeFilter;
use dvs_ir::{Cfg, Profile};
use dvs_milp::{LinExpr, MilpError, Model, Sense, SolveOptions, Var};
use dvs_sim::EdgeSchedule;
use dvs_vf::{ModeId, TransitionModel, VoltageLadder};
use std::time::Instant;

/// One input category: its probability weight, its profile, and its
/// deadline (§4.3 allows per-category deadlines).
#[derive(Debug, Clone)]
pub struct CategoryProfile {
    /// Probability `p_g` of inputs from this category (weights should sum
    /// to 1, but are used as given).
    pub weight: f64,
    /// Profile gathered on this category's representative input.
    pub profile: Profile,
    /// Deadline for this category, µs.
    pub deadline_us: f64,
}

/// Result of the multi-category optimization.
#[derive(Debug, Clone)]
pub struct MultiOutcome {
    /// The shared schedule.
    pub schedule: EdgeSchedule,
    /// Weighted-average predicted energy, µJ.
    pub predicted_energy_uj: f64,
    /// Predicted time per category, µs.
    pub predicted_times_us: Vec<f64>,
    /// MILP solve wall-clock time.
    pub solve_time: std::time::Duration,
}

/// Builder/solver for the multi-category MILP.
#[derive(Debug)]
pub struct MultiCategory<'a> {
    cfg: &'a Cfg,
    categories: &'a [CategoryProfile],
    ladder: &'a VoltageLadder,
    transition: &'a TransitionModel,
    filter: EdgeFilter,
}

impl<'a> MultiCategory<'a> {
    /// Starts an unfiltered multi-category formulation.
    ///
    /// # Panics
    ///
    /// Panics if `categories` is empty.
    #[must_use]
    pub fn new(
        cfg: &'a Cfg,
        categories: &'a [CategoryProfile],
        ladder: &'a VoltageLadder,
        transition: &'a TransitionModel,
    ) -> Self {
        assert!(!categories.is_empty(), "need at least one category");
        MultiCategory {
            cfg,
            categories,
            ladder,
            transition,
            filter: EdgeFilter::identity(cfg),
        }
    }

    /// Installs an edge filter (typically computed from the highest-weight
    /// category's profile).
    #[must_use]
    pub fn with_filter(mut self, filter: EdgeFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Builds and solves.
    ///
    /// # Errors
    ///
    /// [`MilpError::Infeasible`] when no shared assignment meets every
    /// category deadline; solver resource errors otherwise.
    pub fn solve(&self) -> Result<MultiOutcome, MilpError> {
        let n_modes = self.ladder.len();
        let mut model = Model::new(Sense::Minimize);

        let mut groups: Vec<Option<Vec<Var>>> = (0..self.cfg.num_edges()).map(|_| None).collect();
        for e in self.cfg.edges() {
            let r = self.filter.rep(e.id);
            if groups[r.index()].is_none() {
                let k: Vec<Var> = (0..n_modes)
                    .map(|m| model.bool_var(format!("k_{}_{m}", r.index())))
                    .collect();
                let mut sum = LinExpr::zero();
                for &v in &k {
                    sum += LinExpr::from(v);
                }
                model.add_eq(sum, 1.0);
                model.add_sos1(k.clone());
                groups[r.index()] = Some(k);
            }
        }
        let start: Vec<Var> = (0..n_modes)
            .map(|m| model.bool_var(format!("k_start_{m}")))
            .collect();
        {
            let mut sum = LinExpr::zero();
            for &v in &start {
                sum += LinExpr::from(v);
            }
            model.add_eq(sum, 1.0);
            model.add_sos1(start.clone());
        }
        let kvars = |slot: Option<dvs_ir::EdgeId>| -> &[Var] {
            match slot {
                Some(e) => groups[self.filter.rep(e).index()]
                    .as_ref()
                    .expect("group exists"),
                None => &start,
            }
        };

        // Transition variables shared across categories; D counts differ.
        let ce = self.transition.energy_uj(1.0, 0.0);
        let ct = self.transition.time_us(1.0, 0.0);
        let mut path_vars: std::collections::BTreeMap<dvs_ir::LocalPath, (Var, Var)> =
            std::collections::BTreeMap::new();
        if ce > 0.0 || ct > 0.0 {
            for cat in self.categories {
                for (path, d) in cat.profile.local_paths() {
                    let Some(exit) = path.exit else { continue };
                    if d == 0 || path_vars.contains_key(&path) {
                        continue;
                    }
                    let enter_rep = path.enter.map(|e| self.filter.rep(e));
                    if enter_rep == Some(self.filter.rep(exit)) {
                        continue;
                    }
                    let ke = kvars(path.enter).to_vec();
                    let kx = kvars(Some(exit)).to_vec();
                    let mut x = LinExpr::zero();
                    let mut y = LinExpr::zero();
                    for (m, pt) in self.ladder.iter() {
                        x += (pt.voltage * pt.voltage) * ke[m.index()];
                        x -= (pt.voltage * pt.voltage) * kx[m.index()];
                        y += pt.voltage * ke[m.index()];
                        y -= pt.voltage * kx[m.index()];
                    }
                    let ep = model.num_var("e_p", 0.0, f64::INFINITY);
                    let tp = model.num_var("t_p", 0.0, f64::INFINITY);
                    model.add_ge(LinExpr::from(ep) - x.clone(), 0.0);
                    model.add_ge(LinExpr::from(ep) + x, 0.0);
                    model.add_ge(LinExpr::from(tp) - y.clone(), 0.0);
                    model.add_ge(LinExpr::from(tp) + y, 0.0);
                    path_vars.insert(path, (ep, tp));
                }
            }
        }

        // Weighted objective + per-category deadline rows.
        let mut objective = LinExpr::zero();
        let mut time_exprs = Vec::with_capacity(self.categories.len());
        for cat in self.categories {
            let mut energy = LinExpr::zero();
            let mut time = LinExpr::zero();
            for e in self.cfg.edges() {
                let g = cat.profile.edge_count(e.id) as f64;
                if g == 0.0 {
                    continue;
                }
                let ks = kvars(Some(e.id));
                for (m, &kv) in ks.iter().enumerate() {
                    let c = cat.profile.block_cost(e.dst, m);
                    energy += (g * c.energy_uj) * kv;
                    time += (g * c.time_us) * kv;
                }
            }
            let entry_runs = cat.profile.block_count(self.cfg.entry()) as f64;
            for (m, &kv) in start.iter().enumerate() {
                let c = cat.profile.block_cost(self.cfg.entry(), m);
                energy += (entry_runs * c.energy_uj) * kv;
                time += (entry_runs * c.time_us) * kv;
            }
            for (path, &(ep, tp)) in &path_vars {
                let d = cat.profile.local_path_count(*path) as f64;
                if d > 0.0 {
                    energy += (d * ce) * ep;
                    time += (d * ct) * tp;
                }
            }
            model.add_le(time.clone(), cat.deadline_us);
            objective += cat.weight * energy;
            time_exprs.push(time);
        }
        model.set_objective(objective);

        let t0 = Instant::now();
        let sol = dvs_milp::solve(&model, &SolveOptions::default())?;
        let solve_time = t0.elapsed();

        let pick = |ks: &[Var]| -> ModeId {
            let mut best = 0;
            let mut bv = f64::NEG_INFINITY;
            for (m, &kv) in ks.iter().enumerate() {
                if sol.value(kv) > bv {
                    bv = sol.value(kv);
                    best = m;
                }
            }
            ModeId(best)
        };
        let edge_modes = self.cfg.edges().map(|e| pick(kvars(Some(e.id)))).collect();
        let schedule = EdgeSchedule {
            initial: pick(&start),
            edge_modes,
        };
        let predicted_times_us = time_exprs.iter().map(|t| t.eval(&sol.values)).collect();

        Ok(MultiOutcome {
            schedule,
            predicted_energy_uj: sol.objective,
            predicted_times_us,
            solve_time,
        })
    }
}
