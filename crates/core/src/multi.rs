//! The §4.3 multi-input-category formulation.
//!
//! Different inputs fall into categories (for MPEG: streams with vs
//! without B frames). One profile is gathered per category; the MILP then
//! minimizes the *weighted average* energy across categories while
//! enforcing each category's deadline, with a single shared mode
//! assignment. The model is the §4.2 assembly that
//! [`crate::MilpFormulation`] builds, taken over several categories: the
//! same mode groups and transition auxiliaries (one pair per local path,
//! shared by every category that takes it), one deadline row per category,
//! and each category's energy weighted in the objective.

use crate::formulate::BuiltMilp;
use crate::EdgeFilter;
use dvs_ir::{Cfg, Profile};
use dvs_milp::{MilpError, SolveOptions};
use dvs_sim::EdgeSchedule;
use dvs_vf::{TransitionModel, VoltageLadder};
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

    /// Builds the model, the one assembly behind
    /// [`crate::MilpFormulation`] taken over every category, and solves it.
    ///
    /// # Errors
    ///
    /// [`MilpError::Infeasible`] when no shared assignment meets every
    /// category deadline; solver resource errors otherwise.
    pub fn solve(&self) -> Result<MultiOutcome, MilpError> {
        let reps = self.cfg.edges().map(|e| self.filter.rep(e.id)).collect();
        let categories: Vec<(f64, &Profile, f64)> = self
            .categories
            .iter()
            .map(|c| (c.weight, &c.profile, c.deadline_us))
            .collect();
        let built = BuiltMilp::assemble(self.cfg, reps, &categories, self.ladder, self.transition);
        let t0 = Instant::now();
        let sol = dvs_milp::solve(&built.model, &SolveOptions::default())?;
        let solve_time = t0.elapsed();
        Ok(MultiOutcome {
            schedule: built.schedule(&sol),
            predicted_energy_uj: sol.objective,
            predicted_times_us: built.times.iter().map(|t| t.eval(&sol.values)).collect(),
            solve_time,
        })
    }
}
