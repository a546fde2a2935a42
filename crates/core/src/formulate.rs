use crate::EdgeFilter;
use dvs_ir::{Cfg, EdgeId, LocalPath, Profile};
use dvs_milp::{LinExpr, MilpError, Model, Sense, SolveOptions, SolveStats, SolverChoice, Var};
use dvs_sim::EdgeSchedule;
use dvs_vf::{ModeId, TransitionModel, VoltageLadder};
use std::time::{Duration, Instant};

/// Mode-variable granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One mode variable group per CFG edge — the paper's formulation.
    /// Blocks may run at different modes depending on the entry path.
    Edge,
    /// One group per basic block (all incoming edges tied) — the coarser
    /// granularity of prior work (Saputra et al.), kept as an ablation.
    Block,
}

/// Result of building and solving the DVS MILP.
#[derive(Debug, Clone)]
pub struct MilpOutcome {
    /// The extracted per-edge mode assignment.
    pub schedule: EdgeSchedule,
    /// Objective value: predicted total energy (µJ), including transition
    /// energy.
    pub predicted_energy_uj: f64,
    /// Predicted run time (µs) of the chosen schedule, including transition
    /// time.
    pub predicted_time_us: f64,
    /// Predicted dynamic transition energy (µJ).
    pub predicted_transition_energy_uj: f64,
    /// Branch-and-bound statistics.
    pub solve_stats: SolveStats,
    /// Wall-clock MILP solve time.
    pub solve_time: Duration,
    /// Number of binary variables in the model.
    pub binary_vars: usize,
    /// Number of constraints in the model.
    pub constraints: usize,
    /// Optimality certificate plus the independent checker's verdict, when
    /// requested via [`MilpFormulation::with_certify`].
    pub certificate: Option<CertifyOutcome>,
}

/// An optimality certificate for a solved MILP together with the verdict
/// of the independent `dvs-cert` checker. The checker shares no code with
/// the solver (it depends only on the certificate format and exact dyadic
/// arithmetic), so an accepting report is evidence the solver did not
/// merely agree with itself.
#[derive(Debug, Clone)]
pub struct CertifyOutcome {
    /// The certificate in its canonical encoded form ([`dvs_cert`]'s
    /// `dvs-cert.v1` compact JSON). Byte-stable for a fixed model and
    /// solver configuration.
    pub encoded: String,
    /// The independent checker's verdict and proof-shape statistics.
    pub report: dvs_cert::CheckReport,
    /// Wall-clock microseconds the prover took (nondeterministic;
    /// excluded from canonical serializations).
    pub prove_us: f64,
    /// Wall-clock microseconds the independent check took
    /// (nondeterministic; excluded from canonical serializations).
    pub check_us: f64,
}

/// Builder for the §4.2 MILP (single input category).
#[derive(Debug)]
pub struct MilpFormulation<'a> {
    cfg: &'a Cfg,
    profile: &'a Profile,
    ladder: &'a VoltageLadder,
    transition: &'a TransitionModel,
    filter: EdgeFilter,
    granularity: Granularity,
    deadline_us: f64,
    pinned: Vec<(EdgeId, ModeId)>,
    solver: SolverChoice,
    certify: bool,
}

/// Internal handle: variables of one mode group.
pub(crate) struct GroupVars {
    /// `k[m]` binaries, one per ladder mode.
    pub k: Vec<Var>,
}

/// A fully assembled model plus the handles needed to warm-start it and to
/// read the solution back out. Shared between the integral solve and the
/// continuous relaxation.
struct BuiltMilp {
    model: Model,
    groups: Vec<Option<GroupVars>>,
    start: Vec<Var>,
    time: LinExpr,
    transition_energy: LinExpr,
    /// Auxiliary absolute-value variables and the expressions they bound
    /// (`aux >= |expr|`): at any candidate point, setting `aux = |expr|`
    /// makes the four linearization rows tight — used when assembling
    /// warm-start vectors.
    aux_abs: Vec<(Var, LinExpr)>,
}

impl BuiltMilp {
    /// The `k` variables of the group owning `slot` (`None` = start mode).
    fn kvars(&self, rep: Option<EdgeId>) -> &[Var] {
        match rep {
            Some(r) => {
                &self.groups[r.index()]
                    .as_ref()
                    .expect("group created for every rep")
                    .k
            }
            None => &self.start,
        }
    }
}

impl<'a> MilpFormulation<'a> {
    /// Starts a formulation with no filtering at edge granularity.
    #[must_use]
    pub fn new(
        cfg: &'a Cfg,
        profile: &'a Profile,
        ladder: &'a VoltageLadder,
        transition: &'a TransitionModel,
        deadline_us: f64,
    ) -> Self {
        MilpFormulation {
            cfg,
            profile,
            ladder,
            transition,
            filter: EdgeFilter::identity(cfg),
            granularity: Granularity::Edge,
            deadline_us,
            pinned: Vec::new(),
            solver: SolverChoice::Auto,
            certify: false,
        }
    }

    /// Requests an optimality certificate: after solving, the solver's
    /// branch-and-bound (or continuous-voltage) proof is exported as a
    /// [`dvs_cert::Certificate`] and replayed by the independent
    /// exact-arithmetic checker. The encoded certificate and the checker's
    /// report land in [`MilpOutcome::certificate`]; a prover failure (the
    /// solution could not be re-derived) surfaces as a solve error, while a
    /// checker rejection is recorded in the report for the caller to gate
    /// on.
    #[must_use]
    pub fn with_certify(mut self, on: bool) -> Self {
        self.certify = on;
        self
    }

    /// Does nothing: the MILP search is sequential.
    #[deprecated(note = "the MILP search is sequential; this setting does nothing")]
    #[must_use]
    pub fn with_solver_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Selects the solver backend. [`SolverChoice::Auto`] (the default)
    /// runs branch-and-bound on the integral model; forcing
    /// [`SolverChoice::Continuous`] solves the exact continuous-voltage
    /// relaxation and rounds (only valid for transition-free ladder
    /// models — anything else returns [`MilpError::Unsupported`]).
    #[must_use]
    pub fn with_solver(mut self, solver: SolverChoice) -> Self {
        self.solver = solver;
        self
    }

    /// Forces the mode on `edge` to `mode` — e.g. pinning an I/O or
    /// latency-critical region to a specific speed regardless of what the
    /// optimizer would choose. Pins apply to the edge's representative
    /// group, so tied edges inherit them.
    #[must_use]
    pub fn with_pinned_edge(mut self, edge: EdgeId, mode: ModeId) -> Self {
        self.pinned.push((edge, mode));
        self
    }

    /// Installs an [`EdgeFilter`] (variable tying).
    #[must_use]
    pub fn with_filter(mut self, filter: EdgeFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Switches the mode-variable granularity.
    #[must_use]
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Effective representative of `e` under filter + granularity.
    fn rep(&self, e: EdgeId) -> EdgeId {
        match self.granularity {
            Granularity::Edge => self.filter.rep(e),
            Granularity::Block => {
                // All edges into the same block share the lowest-id edge.
                let dst = self.cfg.edge(e).dst;
                self.cfg
                    .in_edges(dst)
                    .min()
                    .expect("non-entry blocks have in-edges")
            }
        }
    }

    /// Assembles the §4.2 model: one binary group per representative edge
    /// plus the start group, block costs attributed per incoming edge,
    /// transition costs per local path, and the deadline row.
    fn build_model(&self) -> BuiltMilp {
        let formulate_span = dvs_obs::span!("pass.formulate");
        let build_start = Instant::now();
        let n_modes = self.ladder.len();
        let mut model = Model::new(Sense::Minimize);

        // --- mode variable groups: one per representative edge + start ---
        let mut groups: Vec<Option<GroupVars>> = (0..self.cfg.num_edges()).map(|_| None).collect();
        for e in self.cfg.edges() {
            let r = self.rep(e.id);
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
                groups[r.index()] = Some(GroupVars { k });
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
        let kvars = |slot: Option<EdgeId>| -> &[Var] {
            match slot {
                Some(e) => {
                    &groups[self.rep(e).index()]
                        .as_ref()
                        .expect("group created for every rep")
                        .k
                }
                None => &start,
            }
        };

        // --- block energy & time, attributed per incoming edge ---
        let mut energy = LinExpr::zero();
        let mut time = LinExpr::zero();
        for e in self.cfg.edges() {
            let g = self.profile.edge_count(e.id) as f64;
            if g == 0.0 {
                continue;
            }
            let ks = kvars(Some(e.id));
            for (m, &kv) in ks.iter().enumerate() {
                let c = self.profile.block_cost(e.dst, m);
                energy += (g * c.energy_uj) * kv;
                time += (g * c.time_us) * kv;
            }
        }
        // Entry block runs under the start mode once per run.
        let entry_runs = self.profile.block_count(self.cfg.entry()) as f64;
        for (m, &kv) in start.iter().enumerate() {
            let c = self.profile.block_cost(self.cfg.entry(), m);
            energy += (entry_runs * c.energy_uj) * kv;
            time += (entry_runs * c.time_us) * kv;
        }

        // --- transition costs per local path ---
        let ce = self.transition.energy_uj(1.0, 0.0); // (1-u)·c
        let ct = self.transition.time_us(1.0, 0.0); // 2c/IMAX
        let mut transition_energy = LinExpr::zero();
        let mut aux_abs: Vec<(Var, LinExpr)> = Vec::new();
        if ce > 0.0 || ct > 0.0 {
            for (path, d) in self.profile.local_paths() {
                let Some(exit) = path.exit else { continue };
                let d = d as f64;
                let enter_rep = path.enter.map(|e| self.rep(e));
                let exit_rep = self.rep(exit);
                if enter_rep == Some(exit_rep) {
                    continue; // same variable group: never a transition
                }
                let ke = kvars(path.enter);
                let kx = kvars(Some(exit));
                // X = Σ V²_m (ke_m - kx_m); Y likewise with V.
                let mut x = LinExpr::zero();
                let mut y = LinExpr::zero();
                for (m, pt) in self.ladder.iter() {
                    let (vv, v) = (pt.voltage * pt.voltage, pt.voltage);
                    x += vv * ke[m.index()];
                    x -= vv * kx[m.index()];
                    y += v * ke[m.index()];
                    y -= v * kx[m.index()];
                }
                let ep = model.num_var(format!("e_p{}", path.block.index()), 0.0, f64::INFINITY);
                let tp = model.num_var(format!("t_p{}", path.block.index()), 0.0, f64::INFINITY);
                aux_abs.push((ep, x.clone()));
                aux_abs.push((tp, y.clone()));
                model.add_ge(LinExpr::from(ep) - x.clone(), 0.0);
                model.add_ge(LinExpr::from(ep) + x, 0.0);
                model.add_ge(LinExpr::from(tp) - y.clone(), 0.0);
                model.add_ge(LinExpr::from(tp) + y, 0.0);
                transition_energy += (d * ce) * ep;
                time += (d * ct) * tp;
            }
        }

        // User pins: the chosen group member is fixed to 1.
        for &(edge, mode) in &self.pinned {
            let ks = kvars(Some(edge));
            model.add_eq(LinExpr::from(ks[mode.index()]), 1.0);
        }

        let objective = energy + transition_energy.clone();
        model.set_objective(objective);
        model.add_le(time.clone(), self.deadline_us);

        if dvs_obs::enabled() {
            dvs_obs::gauge("milp.num_vars", model.num_vars() as f64);
            dvs_obs::gauge("milp.num_binary_vars", model.num_int_vars() as f64);
            dvs_obs::gauge("milp.num_constraints", model.num_constraints() as f64);
            dvs_obs::gauge(
                "pass.formulate.wall_us",
                build_start.elapsed().as_secs_f64() * 1e6,
            );
        }
        drop(formulate_span);

        BuiltMilp {
            model,
            groups,
            start,
            time,
            transition_energy,
            aux_abs,
        }
    }

    /// A warm-start point from the exact continuous-voltage algorithm:
    /// project the model onto its pure ladder shape (group selection rows
    /// plus the block-cost part of the deadline row, transitions ignored),
    /// solve that with [`SolverChoice::Continuous`], and take
    /// its rounded incumbent. Transition aux variables are then set to
    /// their tight values; if the reassembled point misses the real
    /// deadline (transition time the projection ignored), `None`.
    fn yds_rounded_start(&self, built: &BuiltMilp) -> Option<Vec<f64>> {
        let ecoef: std::collections::HashMap<usize, f64> = built
            .model
            .objective()
            .terms()
            .map(|(v, c)| (v.index(), c))
            .collect();
        let tcoef: std::collections::HashMap<usize, f64> =
            built.time.terms().map(|(v, c)| (v.index(), c)).collect();
        let mut sub = Model::new(Sense::Minimize);
        let mut sobj = LinExpr::zero();
        let mut stime = LinExpr::zero();
        let mut map: Vec<(usize, Var)> = Vec::new();
        for ks in built
            .groups
            .iter()
            .flatten()
            .map(|g| &g.k)
            .chain(std::iter::once(&built.start))
        {
            let mut sum = LinExpr::zero();
            for &kv in ks {
                let v = sub.bool_var(format!("s{}", kv.index()));
                sobj += ecoef.get(&kv.index()).copied().unwrap_or(0.0) * v;
                stime += tcoef.get(&kv.index()).copied().unwrap_or(0.0) * v;
                sum += LinExpr::from(v);
                map.push((kv.index(), v));
            }
            sub.add_eq(sum, 1.0);
        }
        sub.set_objective(sobj);
        sub.add_le(stime, self.deadline_us);
        let opts = SolveOptions {
            solver: SolverChoice::Continuous,
            ..SolveOptions::default()
        };
        let sol = dvs_milp::solve(&sub, &opts).ok()?;
        let mut x = vec![0.0; built.model.num_vars()];
        for &(bi, sv) in &map {
            x[bi] = sol.value(sv).round();
        }
        for (av, expr) in &built.aux_abs {
            x[av.index()] = expr.eval(&x).abs();
        }
        (built.time.eval(&x) <= self.deadline_us).then_some(x)
    }

    /// Builds and solves the MILP.
    ///
    /// # Errors
    ///
    /// [`MilpError::Infeasible`] when no assignment meets the deadline, or
    /// solver resource errors.
    pub fn solve(&self) -> Result<MilpOutcome, MilpError> {
        let built = self.build_model();
        let binary_vars = built.model.num_int_vars();
        let constraints = built.model.num_constraints();

        // Warm start, best of two candidates: the slowest single mode that
        // meets the deadline (always feasible: all groups at one mode,
        // zero transition cost), and the rounded continuous-voltage (YDS)
        // point, which mixes modes per group and usually prunes far
        // harder. Either is rejected by the solver's feasibility check if
        // a user pin contradicts it, so seeding is always safe.
        let uniform: Option<Vec<f64>> = self
            .ladder
            .modes()
            .find(|m| self.profile.total_time_at(m.index()) <= self.deadline_us)
            .map(|m| {
                let mut x = vec![0.0; built.model.num_vars()];
                for g in built.groups.iter().flatten() {
                    x[g.k[m.index()].index()] = 1.0;
                }
                x[built.start[m.index()].index()] = 1.0;
                for (av, expr) in &built.aux_abs {
                    x[av.index()] = expr.eval(&x).abs();
                }
                x
            });
        let warm: Option<Vec<f64>> = match (uniform, self.yds_rounded_start(&built)) {
            (Some(a), Some(b)) => {
                let obj = built.model.objective();
                Some(if obj.eval(&b) < obj.eval(&a) { b } else { a })
            }
            (a, b) => a.or(b),
        };

        let t0 = Instant::now();
        // Auto resolves to branch-and-bound here (the integral DVS model is
        // never a pure continuous ladder), which is the search that takes
        // the warm start.
        let opts = SolveOptions {
            solver: self.solver,
            start: warm,
            ..SolveOptions::default()
        };
        let sol = {
            let _span = dvs_obs::span!("pass.solve");
            dvs_milp::solve(&built.model, &opts)?
        };
        let solve_time = t0.elapsed();
        dvs_obs::gauge("pass.solve.wall_us", solve_time.as_secs_f64() * 1e6);

        // The prover hands back an unchecked proof; this is its one check,
        // and the pass turns a rejecting report into `PassError::Certify`.
        let certificate = if self.certify {
            let tp = Instant::now();
            let cert = {
                let _span = dvs_obs::span!("pass.certify");
                dvs_milp::certify_solution(&built.model, &opts, &sol)?
            };
            let prove_us = tp.elapsed().as_secs_f64() * 1e6;
            let encoded = cert.encode();
            let tc = Instant::now();
            let report = {
                let _span = dvs_obs::span!("cert-check");
                dvs_cert::check(&cert)
            };
            let check_us = tc.elapsed().as_secs_f64() * 1e6;
            if dvs_obs::enabled() {
                dvs_obs::counter("certificate_bytes", encoded.len() as u64);
                dvs_obs::counter("cert_check_us", check_us as u64);
            }
            Some(CertifyOutcome {
                encoded,
                report,
                prove_us,
                check_us,
            })
        } else {
            None
        };

        // --- extract the schedule ---
        let pick = |ks: &[Var]| -> ModeId {
            let mut best = 0;
            let mut bv = f64::NEG_INFINITY;
            for (m, &kv) in ks.iter().enumerate() {
                let v = sol.value(kv);
                if v > bv {
                    bv = v;
                    best = m;
                }
            }
            ModeId(best)
        };
        let edge_modes: Vec<ModeId> = self
            .cfg
            .edges()
            .map(|e| pick(built.kvars(Some(self.rep(e.id)))))
            .collect();
        let schedule = EdgeSchedule {
            initial: pick(&built.start),
            edge_modes,
        };

        Ok(MilpOutcome {
            schedule,
            predicted_energy_uj: sol.objective,
            predicted_time_us: built.time.eval(&sol.values),
            predicted_transition_energy_uj: built.transition_energy.eval(&sol.values),
            solve_stats: sol.stats,
            solve_time,
            binary_vars,
            constraints,
            certificate,
        })
    }

    /// Solves the *continuous relaxation* of the same model — every mode
    /// binary becomes a fractional weight in `[0, 1]` — and returns its
    /// objective (µJ). The relaxation admits every integral assignment, so
    /// its objective is a guaranteed lower bound on
    /// [`MilpOutcome::predicted_energy_uj`]; the §3 continuous-setting
    /// analysis bounds the discrete schedule the same way, and the
    /// `dvs-check` `ContinuousLower` oracle asserts the dominance on every
    /// generated case.
    ///
    /// # Errors
    ///
    /// [`MilpError::Infeasible`] exactly when the integral model is
    /// infeasible (the fractional and integral feasibility thresholds
    /// coincide: both are "the all-fastest assignment meets the deadline").
    pub fn relaxation_bound(&self) -> Result<f64, MilpError> {
        self.relaxation_bound_via(SolverChoice::Auto)
    }

    /// [`MilpFormulation::relaxation_bound`] through an explicitly chosen
    /// solver instead of [`SolverChoice::Auto`] — the solver benchmark
    /// uses this to pin the exact continuous-voltage algorithm against the
    /// branch-and-bound LP on the same relaxation.
    ///
    /// # Errors
    ///
    /// Same as [`MilpFormulation::relaxation_bound`], plus
    /// [`MilpError::Unsupported`] if the forced solver cannot represent
    /// the relaxed model.
    pub fn relaxation_bound_via(&self, solver: SolverChoice) -> Result<f64, MilpError> {
        let built = self.build_model();
        // One shared path (`dvs_milp::relaxation_bound` relaxes and
        // dispatches like any solve), so the check oracle and the solver
        // benchmark can never drift.
        let opts = SolveOptions {
            solver,
            ..SolveOptions::default()
        };
        dvs_milp::relaxation_bound(&built.model, &opts)
    }

    /// The filter in use (for reporting).
    #[must_use]
    pub fn filter(&self) -> &EdgeFilter {
        &self.filter
    }

    /// The local paths that would receive transition variables.
    #[must_use]
    pub fn transition_paths(&self) -> Vec<(LocalPath, u64)> {
        self.profile
            .local_paths()
            .filter(|(p, _)| p.exit.is_some())
            .collect()
    }
}
