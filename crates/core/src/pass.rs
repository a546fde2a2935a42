use crate::{baseline, EdgeFilter, MilpFormulation, MilpOutcome, PassError, ScheduleAnalysis};
use dvs_ir::{Cfg, Profile};
use dvs_milp::SolverChoice;
use dvs_sim::{Machine, ModeProfiler, ScheduledRun, TimedRun, Trace};
use dvs_vf::{TransitionModel, VoltageLadder};

/// Runs `f` under a named span and records its wall time as a
/// `pass.<stage>.wall_us` gauge. Costs one atomic load when observability
/// is disabled.
fn timed<T>(span_name: &'static str, gauge_name: &'static str, f: impl FnOnce() -> T) -> T {
    if !dvs_obs::enabled() {
        return f();
    }
    let _span = dvs_obs::span(span_name);
    let start = std::time::Instant::now();
    let out = f();
    dvs_obs::gauge(gauge_name, start.elapsed().as_secs_f64() * 1e6);
    out
}

/// Everything the end-to-end pass produces for one `(program, deadline)`
/// pair.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The MILP solution (schedule + predictions + solver stats).
    pub milp: MilpOutcome,
    /// Static schedule analysis (silent mode-sets, predicted transitions).
    pub analysis: ScheduleAnalysis,
    /// Baseline: best single mode `(mode, time_us, energy_uj)`, if any
    /// single mode meets the deadline.
    pub single_mode: Option<(dvs_vf::ModeId, f64, f64)>,
    /// Simulator validation of the schedule (measured, not predicted), when
    /// requested.
    pub validated: Option<ScheduledRun>,
    /// The edge filter the MILP was solved with, including tie provenance
    /// so downstream diagnostics can name original edges.
    pub filter: EdgeFilter,
    /// Static verification of the emitted schedule, when requested via
    /// [`CompilerBuilder::verify_emitted`].
    pub verify: Option<dvs_verify::VerifyReport>,
}

impl CompileResult {
    /// Energy-savings ratio vs the best single mode, from MILP predictions.
    /// `None` when no single mode is feasible (nothing to normalize by).
    #[must_use]
    pub fn savings_vs_single(&self) -> Option<f64> {
        let (_, _, single_e) = self.single_mode?;
        if single_e <= 0.0 {
            return Some(0.0);
        }
        Some(((single_e - self.milp.predicted_energy_uj) / single_e).max(0.0))
    }

    /// Canonical JSON rendering of the result: every *deterministic* output
    /// of the pass, and nothing that varies run-to-run.
    ///
    /// Wall-clock fields ([`dvs_milp`]'s solve time) are deliberately
    /// excluded so two compiles of identical inputs serialize to identical
    /// bytes — that byte-stability is what lets the serve daemon's
    /// content-addressed cache return a stored result that is
    /// indistinguishable from a fresh solve.
    #[must_use]
    pub fn to_json(&self) -> dvs_obs::json::Json {
        use dvs_obs::json::Json;
        let schedule = Json::obj([
            (
                "initial",
                Json::from(self.milp.schedule.initial.index() as u64),
            ),
            (
                "edge_modes",
                Json::Arr(
                    self.milp
                        .schedule
                        .edge_modes
                        .iter()
                        .map(|m| Json::from(m.index() as u64))
                        .collect(),
                ),
            ),
        ]);
        let milp = Json::obj([
            ("predicted_time_us", Json::from(self.milp.predicted_time_us)),
            (
                "predicted_energy_uj",
                Json::from(self.milp.predicted_energy_uj),
            ),
            (
                "predicted_transition_energy_uj",
                Json::from(self.milp.predicted_transition_energy_uj),
            ),
            ("bnb_nodes", Json::from(self.milp.solve_stats.nodes as u64)),
            (
                "bnb_nodes_pruned",
                Json::from(self.milp.solve_stats.nodes_pruned as u64),
            ),
            (
                "lp_iterations",
                Json::from(self.milp.solve_stats.lp_iterations as u64),
            ),
            (
                "simplex_pivots",
                Json::from(self.milp.solve_stats.pivots as u64),
            ),
            (
                "degenerate_pivots",
                Json::from(self.milp.solve_stats.degenerate_pivots as u64),
            ),
            (
                "bound_flips",
                Json::from(self.milp.solve_stats.bound_flips as u64),
            ),
            (
                "refactorizations",
                Json::from(self.milp.solve_stats.refactorizations as u64),
            ),
            (
                "dual_pivots",
                Json::from(self.milp.solve_stats.dual_pivots as u64),
            ),
            (
                "presolve_rows_removed",
                Json::from(self.milp.solve_stats.presolve_rows_removed as u64),
            ),
            (
                "presolve_bounds_tightened",
                Json::from(self.milp.solve_stats.presolve_bounds_tightened as u64),
            ),
            ("best_bound", Json::from(self.milp.solve_stats.best_bound)),
            (
                "mip_gap",
                Json::from(if self.milp.solve_stats.mip_gap.is_finite() {
                    self.milp.solve_stats.mip_gap
                } else {
                    -1.0
                }),
            ),
            // Incumbent objectives and the node at which each was found are
            // deterministic; their wall-clock stamps (`at_us`) are not and
            // must stay out of this canonical form.
            (
                "incumbents",
                Json::Arr(
                    self.milp
                        .solve_stats
                        .incumbents
                        .iter()
                        .map(|i| {
                            Json::obj([
                                ("node", Json::from(i.node as u64)),
                                ("objective", Json::from(i.objective)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("binary_vars", Json::from(self.milp.binary_vars as u64)),
            ("constraints", Json::from(self.milp.constraints as u64)),
        ]);
        let analysis = Json::obj([
            ("num_live", Json::from(self.analysis.num_live() as u64)),
            ("num_silent", Json::from(self.analysis.num_silent() as u64)),
            (
                "predicted_dynamic_transitions",
                Json::from(self.analysis.predicted_dynamic_transitions()),
            ),
            (
                "emitted",
                Json::Arr(
                    self.analysis
                        .emitted_mask()
                        .into_iter()
                        .map(Json::from)
                        .collect(),
                ),
            ),
        ]);
        let single = self.single_mode.map_or(Json::Null, |(m, t, e)| {
            Json::obj([
                ("mode", Json::from(m.index() as u64)),
                ("time_us", Json::from(t)),
                ("energy_uj", Json::from(e)),
            ])
        });
        let validated = self.validated.as_ref().map_or(Json::Null, |v| {
            Json::obj([
                ("time_us", Json::from(v.time_us)),
                ("processor_energy_uj", Json::from(v.processor_energy_uj)),
                ("transitions", Json::from(v.transitions)),
            ])
        });
        let verify = self
            .verify
            .as_ref()
            .map_or(Json::Null, dvs_verify::VerifyReport::to_json);
        // The encoded certificate is byte-stable, so its length and the
        // checker's report are canonical; the prove and check wall times
        // are not and stay out.
        let certificate = self.milp.certificate.as_ref().map_or(Json::Null, |c| {
            Json::obj([
                ("bytes", Json::from(c.encoded.len() as u64)),
                ("report", c.report.to_json()),
            ])
        });
        Json::Obj(vec![
            ("schedule".to_string(), schedule),
            ("milp".to_string(), milp),
            ("analysis".to_string(), analysis),
            ("single_mode".to_string(), single),
            (
                "savings_vs_single".to_string(),
                self.savings_vs_single().map_or(Json::Null, Json::from),
            ),
            ("validated".to_string(), validated),
            ("verify".to_string(), verify),
            ("certificate".to_string(), certificate),
        ])
    }
}

/// Configures and builds a [`DvsCompiler`] with named settings instead of
/// the positional constructor arguments the pass accumulated over time.
///
/// ```no_run
/// use dvs_compiler::DvsCompiler;
/// use dvs_sim::Machine;
/// use dvs_vf::{AlphaPower, TransitionModel, VoltageLadder};
///
/// let compiler = DvsCompiler::builder(
///     Machine::paper_default(),
///     VoltageLadder::xscale3(&AlphaPower::paper()),
///     TransitionModel::with_capacitance_uf(0.05),
/// )
/// .tail_fraction(0.02)
/// .validation(true)
/// .jobs(4)
/// .build()
/// .unwrap();
/// # let _ = compiler;
/// ```
#[derive(Debug)]
pub struct CompilerBuilder {
    machine: Machine,
    ladder: VoltageLadder,
    transition: TransitionModel,
    tail_fraction: f64,
    validation: bool,
    verify_emitted: bool,
    certify: bool,
    jobs: usize,
    solver: SolverChoice,
}

impl CompilerBuilder {
    /// Starts a builder from the three mandatory inputs. Defaults: the
    /// paper's 2% filter tail, validation on, one job.
    #[must_use]
    pub fn new(machine: Machine, ladder: VoltageLadder, transition: TransitionModel) -> Self {
        CompilerBuilder {
            machine,
            ladder,
            transition,
            tail_fraction: 0.02,
            validation: true,
            verify_emitted: false,
            certify: false,
            jobs: 1,
            solver: SolverChoice::Auto,
        }
    }

    /// Cumulative-energy tail fraction for edge filtering (the paper's §5
    /// rule uses 0.02). `0.0` disables filtering. Must lie in `[0, 1)`.
    #[must_use]
    pub fn tail_fraction(mut self, fraction: f64) -> Self {
        self.tail_fraction = fraction;
        self
    }

    /// Enables or disables simulator re-validation in
    /// [`DvsCompiler::compile_and_validate`]. With validation off that
    /// entry point behaves like [`DvsCompiler::compile`].
    #[must_use]
    pub fn validation(mut self, on: bool) -> Self {
        self.validation = on;
        self
    }

    /// Enables the post-emit static verification gate: after scheduling
    /// and hoisting, every compile runs the `dvs-verify` pass over the
    /// emitted schedule (mode confluence, deadline, lints) and fails with
    /// [`PassError::Verify`] if any error-severity diagnostic fires. The
    /// report is stored in [`CompileResult::verify`] either way.
    #[must_use]
    pub fn verify_emitted(mut self, on: bool) -> Self {
        self.verify_emitted = on;
        self
    }

    /// Enables the certified-optimality gate: every solve exports an
    /// optimality certificate ([`dvs_cert::Certificate`]) which the
    /// independent exact-arithmetic checker replays. A checker rejection
    /// fails the compile with [`PassError::Certify`]; an accepted
    /// certificate (encoded form plus the checker's report) is stored in
    /// [`crate::MilpOutcome::certificate`] and rendered into
    /// [`CompileResult::to_json`].
    #[must_use]
    pub fn certify(mut self, on: bool) -> Self {
        self.certify = on;
        self
    }

    /// Worker threads for [`DvsCompiler::compile_grid`]'s per-deadline
    /// cells. `0` is treated as 1. Grid results are byte-identical for
    /// every jobs value.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Does nothing: the MILP search is sequential.
    #[deprecated(note = "the MILP search is sequential; this setting does nothing")]
    #[must_use]
    pub fn solver_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Selects the MILP solver backend (see [`dvs_milp::SolverChoice`]).
    /// [`SolverChoice::Auto`] — the default — runs branch-and-bound on the
    /// integral model; [`SolverChoice::Continuous`] forces the exact
    /// continuous-voltage algorithm (transition-free models only) and
    /// reports its rounded schedule.
    #[must_use]
    pub fn solver(mut self, solver: SolverChoice) -> Self {
        self.solver = solver;
        self
    }

    /// Validates the configuration and builds the compiler.
    ///
    /// # Errors
    ///
    /// [`PassError::Filter`] for a tail fraction outside `[0, 1)`;
    /// [`PassError::Profile`] for an empty voltage ladder.
    pub fn build(self) -> Result<DvsCompiler, PassError> {
        if !self.tail_fraction.is_finite() || !(0.0..1.0).contains(&self.tail_fraction) {
            return Err(PassError::Filter(format!(
                "tail fraction {} outside [0, 1)",
                self.tail_fraction
            )));
        }
        if self.ladder.is_empty() {
            return Err(PassError::Profile("voltage ladder has no modes".into()));
        }
        Ok(DvsCompiler {
            machine: self.machine,
            ladder: self.ladder,
            transition: self.transition,
            tail_fraction: self.tail_fraction,
            validation: self.validation,
            verify_emitted: self.verify_emitted,
            certify: self.certify,
            jobs: self.jobs.max(1),
            solver: self.solver,
        })
    }
}

/// The end-to-end compile-time DVS pass (profile → filter → MILP →
/// schedule → optional simulator validation).
///
/// Construct one with [`DvsCompiler::builder`]. The compiler is immutable
/// and internally share-nothing, so `&DvsCompiler` may be used freely from
/// many threads ([`DvsCompiler::compile_grid`] does exactly that).
#[derive(Debug)]
pub struct DvsCompiler {
    machine: Machine,
    ladder: VoltageLadder,
    transition: TransitionModel,
    tail_fraction: f64,
    validation: bool,
    verify_emitted: bool,
    certify: bool,
    jobs: usize,
    solver: SolverChoice,
}

impl DvsCompiler {
    /// Starts a [`CompilerBuilder`] with named, validated settings.
    #[must_use]
    pub fn builder(
        machine: Machine,
        ladder: VoltageLadder,
        transition: TransitionModel,
    ) -> CompilerBuilder {
        CompilerBuilder::new(machine, ladder, transition)
    }

    /// The voltage ladder in use.
    #[must_use]
    pub fn ladder(&self) -> &VoltageLadder {
        &self.ladder
    }

    /// The transition model in use.
    #[must_use]
    pub fn transition(&self) -> &TransitionModel {
        &self.transition
    }

    /// The machine used for profiling and validation.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The configured edge-filter tail fraction.
    #[must_use]
    pub fn tail_fraction(&self) -> f64 {
        self.tail_fraction
    }

    /// Worker threads used by [`DvsCompiler::compile_grid`].
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// A canonical 64-bit digest of every setting that can change what
    /// [`DvsCompiler::compile`] produces: the voltage ladder's operating
    /// points, the regulator transition model, the filter tail fraction,
    /// the verify/certify toggles and the solver choice.
    ///
    /// `jobs` and the validation toggle are excluded — `jobs` only trades
    /// wall-clock, and callers that cache validated results should fold
    /// validation into their own request key the way `dvs-serve` does. Two
    /// compilers with equal digests given byte-equal inputs produce
    /// byte-equal [`CompileResult::to_json`] output.
    #[must_use]
    pub fn config_digest(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv64::new();
        h.write_str("dvs-compiler.config.v1");
        h.write_usize(self.ladder.len());
        for (_, point) in self.ladder.iter() {
            h.write_f64(point.voltage);
            h.write_f64(point.frequency_mhz);
        }
        h.write_f64(self.transition.capacitance_uf);
        h.write_f64(self.transition.efficiency);
        h.write_f64(self.transition.i_max_a);
        h.write_f64(self.tail_fraction);
        // The slot of the removed hoisting toggle, which was always on:
        // keeps every digest, and so every daemon cache key, stable.
        h.write_bool(true);
        h.write_bool(self.verify_emitted);
        h.write_bool(self.certify);
        h.write_str(self.solver.as_str());
        h.finish()
    }

    /// Profiles `trace` at every ladder mode, from one walk and one
    /// unclassified timing pass per mode
    /// ([`ModeProfiler::profile_unclassified`]), and returns the profile
    /// and the per-mode runs, slowest first. Profiles are reusable across
    /// deadlines and transition models, so call this once per (program,
    /// input) and feed the result to [`DvsCompiler::compile`] repeatedly.
    #[must_use]
    pub fn profile(&self, cfg: &Cfg, trace: &Trace) -> (Profile, Vec<TimedRun>) {
        timed("pass.profile", "pass.profile.wall_us", || {
            ModeProfiler::new(self.machine.clone()).profile_unclassified(cfg, trace, &self.ladder)
        })
    }

    /// Validates the (profile, deadline) inputs shared by every compile
    /// entry point.
    fn check_inputs(&self, profile: &Profile, deadline_us: f64) -> Result<(), PassError> {
        if profile.num_modes() != self.ladder.len() {
            return Err(PassError::Profile(format!(
                "profile has {} modes but the ladder has {}",
                profile.num_modes(),
                self.ladder.len()
            )));
        }
        if !deadline_us.is_finite() || deadline_us <= 0.0 {
            return Err(PassError::Formulate(format!(
                "deadline {deadline_us} µs is not a positive finite time"
            )));
        }
        Ok(())
    }

    /// Runs filter + MILP for one deadline on an existing profile.
    ///
    /// # Errors
    ///
    /// [`PassError::Solve`] wrapping [`dvs_milp::MilpError::Infeasible`]
    /// when the deadline cannot be met (see [`PassError::is_infeasible`]);
    /// [`PassError::Profile`]/[`PassError::Formulate`] for malformed
    /// inputs.
    pub fn compile(
        &self,
        cfg: &Cfg,
        profile: &Profile,
        deadline_us: f64,
    ) -> Result<CompileResult, PassError> {
        self.check_inputs(profile, deadline_us)?;
        let ref_mode = self.ladder.len() - 1;
        let filter = timed("pass.filter", "pass.filter.wall_us", || {
            if self.tail_fraction > 0.0 {
                EdgeFilter::tail_rule(cfg, profile, ref_mode, self.tail_fraction)
            } else {
                EdgeFilter::identity(cfg)
            }
        });
        let milp = MilpFormulation::new(cfg, profile, &self.ladder, &self.transition, deadline_us)
            .with_filter(filter.clone())
            .with_solver(self.solver)
            .with_certify(self.certify)
            .solve()?;
        if let Some(cert) = &milp.certificate {
            if let Some(reject) = &cert.report.reject {
                return Err(PassError::Certify(format!(
                    "{}: {}",
                    reject.code, reject.detail
                )));
            }
        }
        let analysis = timed("pass.schedule", "pass.schedule.wall_us", || {
            ScheduleAnalysis::new(cfg, profile, &milp.schedule)
        });
        let verify = if self.verify_emitted {
            let report = timed("pass.verify", "pass.verify.wall_us", || {
                let emitted = analysis.emitted_mask();
                dvs_verify::verify(&dvs_verify::VerifyInput {
                    cfg,
                    profile,
                    ladder: &self.ladder,
                    transition: &self.transition,
                    schedule: &milp.schedule,
                    emitted: Some(&emitted),
                    deadline_us: Some(deadline_us),
                })
            });
            if !report.ok() {
                let first = report
                    .errors()
                    .next()
                    .map(dvs_verify::Diagnostic::render)
                    .unwrap_or_default();
                return Err(PassError::Verify(format!(
                    "{} error(s) in emitted schedule; first: {first}",
                    report.count(dvs_verify::Severity::Error)
                )));
            }
            Some(report)
        } else {
            None
        };
        let single_mode = baseline::best_single_mode(profile, &self.ladder, deadline_us);
        Ok(CompileResult {
            milp,
            analysis,
            single_mode,
            validated: None,
            filter,
            verify,
        })
    }

    /// Compiles one shared profile against many deadlines concurrently on a
    /// [`dvs_runtime::Pool`] of [`CompilerBuilder::jobs`] workers.
    ///
    /// Results are index-aligned with `deadlines_us`, and each cell is one
    /// [`DvsCompiler::compile`], so the output is identical for every jobs
    /// value — `jobs` trades wall-clock only. Metrics recorded by cells
    /// land in the caller's `dvs_obs` domain.
    pub fn compile_grid(
        &self,
        cfg: &Cfg,
        profile: &Profile,
        deadlines_us: &[f64],
    ) -> Vec<Result<CompileResult, PassError>> {
        dvs_runtime::Pool::new(self.jobs).map(deadlines_us.to_vec(), |_, deadline_us| {
            self.compile(cfg, profile, deadline_us)
        })
    }

    /// The §4.3 multi-category pass: one shared schedule minimizing the
    /// weighted-average energy across `categories`, validated by
    /// re-simulating every category's trace under the shared schedule.
    /// Returns the outcome plus per-category measured runs (same order as
    /// `categories`).
    ///
    /// # Errors
    ///
    /// [`PassError::Solve`] wrapping [`dvs_milp::MilpError::Infeasible`]
    /// when no shared assignment meets every category deadline;
    /// [`PassError::Profile`]/[`PassError::Formulate`] for a malformed
    /// category, checked as [`DvsCompiler::compile`] checks its input, or a
    /// weight that is not finite and non-negative.
    ///
    /// # Panics
    ///
    /// Panics if `categories` is empty or `traces` has a different length.
    pub fn compile_multi(
        &self,
        cfg: &Cfg,
        categories: &[crate::CategoryProfile],
        traces: &[&Trace],
    ) -> Result<(crate::MultiOutcome, Vec<ScheduledRun>), PassError> {
        assert_eq!(
            categories.len(),
            traces.len(),
            "one trace per category required"
        );
        for cat in categories {
            self.check_inputs(&cat.profile, cat.deadline_us)?;
            if !cat.weight.is_finite() || cat.weight < 0.0 {
                return Err(PassError::Formulate(format!(
                    "category weight {} is not a finite non-negative number",
                    cat.weight
                )));
            }
        }
        let ref_mode = self.ladder.len() - 1;
        let filter = if self.tail_fraction > 0.0 {
            // Filter from the heaviest-weight category's profile.
            let heaviest = categories
                .iter()
                .max_by(|a, b| a.weight.partial_cmp(&b.weight).expect("finite weights"))
                .expect("at least one category");
            EdgeFilter::tail_rule(cfg, &heaviest.profile, ref_mode, self.tail_fraction)
        } else {
            EdgeFilter::identity(cfg)
        };
        let outcome = crate::MultiCategory::new(cfg, categories, &self.ladder, &self.transition)
            .with_filter(filter)
            .solve()?;
        let runs = traces
            .iter()
            .map(|t| {
                self.machine.run_scheduled(
                    cfg,
                    t,
                    &self.ladder,
                    &outcome.schedule,
                    &self.transition,
                )
            })
            .collect();
        Ok((outcome, runs))
    }

    /// [`DvsCompiler::compile`] plus a re-simulation of the schedule to
    /// measure (rather than predict) time, energy and transition counts.
    /// With the builder's [`CompilerBuilder::validation`] turned off, the
    /// re-simulation is skipped and `validated` stays `None`.
    ///
    /// # Errors
    ///
    /// Same as [`DvsCompiler::compile`].
    pub fn compile_and_validate(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        profile: &Profile,
        deadline_us: f64,
    ) -> Result<CompileResult, PassError> {
        let mut result = self.compile(cfg, profile, deadline_us)?;
        if self.validation {
            let run = timed("pass.validate", "pass.validate.wall_us", || {
                self.machine.run_scheduled(
                    cfg,
                    trace,
                    &self.ladder,
                    &result.milp.schedule,
                    &self.transition,
                )
            });
            result.validated = Some(run);
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_ir::{CfgBuilder, Inst, MemWidth, Opcode, Reg};
    use dvs_sim::TraceBuilder;
    use dvs_vf::AlphaPower;

    /// A program with a memory-bound loop followed by a compute-bound loop,
    /// the canonical shape that benefits from intra-program DVS.
    fn two_phase_program() -> (Cfg, Trace) {
        let mut b = CfgBuilder::new("two-phase");
        let e = b.block("entry");
        let mem = b.block("memloop");
        let comp = b.block("comploop");
        let x = b.block("exit");
        // memloop: strided load + thin compute.
        b.push(mem, Inst::load(Reg(1), Reg(2), MemWidth::B4));
        b.push(mem, Inst::alu(Opcode::IntAlu, Reg(3), &[Reg(1)]));
        b.push(mem, Inst::branch(Reg(3)));
        // comploop: dependent ALU chain.
        for _ in 0..10 {
            b.push(comp, Inst::alu(Opcode::IntAlu, Reg(4), &[Reg(4)]));
        }
        b.push(comp, Inst::branch(Reg(4)));
        b.edge(e, mem);
        b.edge(mem, mem);
        b.edge(mem, comp);
        b.edge(comp, comp);
        b.edge(comp, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        let (e, mem, comp, x) = (
            cfg.entry(),
            cfg.block_by_label("memloop").unwrap(),
            cfg.block_by_label("comploop").unwrap(),
            cfg.exit(),
        );
        tb.step(e, vec![]);
        for i in 0..400u64 {
            tb.step(mem, vec![0x10_0000 + i * 4096]);
        }
        for _ in 0..400 {
            tb.step(comp, vec![]);
        }
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        (cfg, t)
    }

    fn compiler() -> DvsCompiler {
        DvsCompiler::builder(
            Machine::paper_default(),
            VoltageLadder::xscale3(&AlphaPower::paper()),
            TransitionModel::with_capacitance_uf(10.0),
        )
        .build()
        .unwrap()
    }

    #[test]
    fn end_to_end_meets_deadline_and_beats_single_mode() {
        let (cfg, trace) = two_phase_program();
        let c = compiler();
        let (profile, runs) = c.profile(&cfg, &trace);
        // Deadline between the all-fast and all-slow runtimes.
        let t_fast = runs.last().unwrap().total_time_us;
        let t_slow = runs[0].total_time_us;
        let deadline = t_fast + 0.5 * (t_slow - t_fast);
        let r = c
            .compile_and_validate(&cfg, &trace, &profile, deadline)
            .unwrap();

        assert!(r.milp.predicted_time_us <= deadline + 1e-6);
        // The MILP may never do worse than the best single mode.
        let (_, _, single_e) = r.single_mode.unwrap();
        assert!(
            r.milp.predicted_energy_uj <= single_e + 1e-6,
            "milp {} vs single {}",
            r.milp.predicted_energy_uj,
            single_e
        );
        // Validation: measured time should be near the prediction and must
        // respect the deadline with a small modelling tolerance.
        let v = r.validated.unwrap();
        assert!(
            v.time_us <= deadline * 1.05,
            "validated {} vs deadline {}",
            v.time_us,
            deadline
        );
    }

    #[test]
    fn infeasible_deadline_is_reported() {
        let (cfg, trace) = two_phase_program();
        let c = compiler();
        let (profile, runs) = c.profile(&cfg, &trace);
        let t_fast = runs.last().unwrap().total_time_us;
        let err = c.compile(&cfg, &profile, t_fast * 0.5).unwrap_err();
        assert!(err.is_infeasible(), "got {err}");
    }

    #[test]
    fn lax_deadline_runs_everything_slow() {
        let (cfg, trace) = two_phase_program();
        let c = compiler();
        let (profile, runs) = c.profile(&cfg, &trace);
        let t_slow = runs[0].total_time_us;
        let r = c.compile(&cfg, &profile, t_slow * 1.5).unwrap();
        // All-slow single mode is optimal: no transitions worth paying for.
        assert_eq!(r.analysis.predicted_dynamic_transitions(), 0);
        assert_eq!(r.milp.schedule.initial, dvs_vf::ModeId(0));
        assert!(r.savings_vs_single().unwrap() < 1e-9);
    }

    #[test]
    fn builder_rejects_bad_settings() {
        let mk = || {
            DvsCompiler::builder(
                Machine::paper_default(),
                VoltageLadder::xscale3(&AlphaPower::paper()),
                TransitionModel::free(),
            )
        };
        let err = mk().tail_fraction(1.5).build().unwrap_err();
        assert!(matches!(err, PassError::Filter(_)), "got {err}");
        let err = mk().tail_fraction(f64::NAN).build().unwrap_err();
        assert!(matches!(err, PassError::Filter(_)), "got {err}");
        // Jobs are clamped, not rejected.
        assert_eq!(mk().jobs(0).build().unwrap().jobs(), 1);
    }

    #[test]
    fn malformed_inputs_name_the_failing_stage() {
        let (cfg, trace) = two_phase_program();
        let c = compiler();
        let (profile, _) = c.profile(&cfg, &trace);
        let err = c.compile(&cfg, &profile, f64::NAN).unwrap_err();
        assert!(matches!(err, PassError::Formulate(_)), "got {err}");
        let err = c.compile(&cfg, &profile, -3.0).unwrap_err();
        assert!(matches!(err, PassError::Formulate(_)), "got {err}");
        // A profile built for a different ladder size is a profile error.
        let five = DvsCompiler::builder(
            Machine::paper_default(),
            VoltageLadder::interpolated(&AlphaPower::paper(), 5).unwrap(),
            TransitionModel::free(),
        )
        .build()
        .unwrap();
        let (p5, _) = five.profile(&cfg, &trace);
        let err = c.compile(&cfg, &p5, 1000.0).unwrap_err();
        assert!(matches!(err, PassError::Profile(_)), "got {err}");
    }

    #[test]
    fn compile_grid_matches_sequential_compiles() {
        let (cfg, trace) = two_phase_program();
        let seq = compiler();
        let par = DvsCompiler::builder(
            Machine::paper_default(),
            VoltageLadder::xscale3(&AlphaPower::paper()),
            TransitionModel::with_capacitance_uf(10.0),
        )
        .jobs(4)
        .build()
        .unwrap();
        let (profile, runs) = seq.profile(&cfg, &trace);
        let t_fast = runs.last().unwrap().total_time_us;
        let t_slow = runs[0].total_time_us;
        // Includes one infeasible cell on purpose.
        let deadlines: Vec<f64> = vec![
            t_fast * 0.5,
            t_fast + 0.25 * (t_slow - t_fast),
            t_fast + 0.5 * (t_slow - t_fast),
            t_fast + 0.75 * (t_slow - t_fast),
            t_slow * 1.2,
        ];
        let grid = par.compile_grid(&cfg, &profile, &deadlines);
        assert_eq!(grid.len(), deadlines.len());
        for (i, d) in deadlines.iter().enumerate() {
            match (&grid[i], seq.compile(&cfg, &profile, *d)) {
                (Ok(g), Ok(s)) => {
                    assert_eq!(
                        g.milp.schedule, s.milp.schedule,
                        "cell {i}: schedules differ"
                    );
                    assert!(
                        (g.milp.predicted_energy_uj - s.milp.predicted_energy_uj).abs() < 1e-12
                    );
                }
                (Err(ge), Err(se)) => assert_eq!(ge.to_string(), se.to_string()),
                (g, s) => panic!("cell {i}: grid {g:?} vs sequential {s:?}"),
            }
        }
    }

    #[test]
    fn validation_toggle_skips_resimulation() {
        let (cfg, trace) = two_phase_program();
        let c = DvsCompiler::builder(
            Machine::paper_default(),
            VoltageLadder::xscale3(&AlphaPower::paper()),
            TransitionModel::with_capacitance_uf(10.0),
        )
        .validation(false)
        .build()
        .unwrap();
        let (profile, runs) = c.profile(&cfg, &trace);
        let t_slow = runs[0].total_time_us;
        let r = c
            .compile_and_validate(&cfg, &trace, &profile, t_slow * 1.5)
            .unwrap();
        assert!(r.validated.is_none());
    }

    #[test]
    fn verify_gate_accepts_emitted_schedules_and_stores_the_report() {
        let (cfg, trace) = two_phase_program();
        let c = DvsCompiler::builder(
            Machine::paper_default(),
            VoltageLadder::xscale3(&AlphaPower::paper()),
            TransitionModel::with_capacitance_uf(10.0),
        )
        .verify_emitted(true)
        .build()
        .unwrap();
        let (profile, runs) = c.profile(&cfg, &trace);
        let t_fast = runs.last().unwrap().total_time_us;
        let t_slow = runs[0].total_time_us;
        let deadline = t_fast + 0.5 * (t_slow - t_fast);
        let r = c.compile(&cfg, &profile, deadline).unwrap();
        let report = r.verify.as_ref().expect("verify requested");
        assert!(
            report.ok(),
            "emitted schedule must verify:\n{}",
            report.render()
        );
        // The verifier's modeled time agrees with the MILP's prediction
        // under the same profile (both sum executed edges + transitions).
        assert!(
            (report.modeled_time_us - r.milp.predicted_time_us).abs()
                <= 1e-6 * r.milp.predicted_time_us.max(1.0),
            "modeled {} vs predicted {}",
            report.modeled_time_us,
            r.milp.predicted_time_us
        );
        // Without the flag, no report is produced.
        let off = compiler();
        let r_off = off.compile(&cfg, &profile, deadline).unwrap();
        assert!(r_off.verify.is_none());
        // Tie provenance rides along for downstream diagnostics.
        assert_eq!(r.filter.num_edges(), cfg.num_edges());
    }

    #[test]
    fn certify_gate_attaches_an_accepted_certificate() {
        let (cfg, trace) = two_phase_program();
        let c = DvsCompiler::builder(
            Machine::paper_default(),
            VoltageLadder::xscale3(&AlphaPower::paper()),
            TransitionModel::with_capacitance_uf(10.0),
        )
        .certify(true)
        .build()
        .unwrap();
        let (profile, runs) = c.profile(&cfg, &trace);
        let t_fast = runs.last().unwrap().total_time_us;
        let t_slow = runs[0].total_time_us;
        let deadline = t_fast + 0.5 * (t_slow - t_fast);
        let r = c.compile(&cfg, &profile, deadline).unwrap();
        let cert = r.milp.certificate.as_ref().expect("certificate requested");
        assert!(
            cert.report.ok(),
            "checker rejected: {:?}",
            cert.report.reject
        );
        assert!(!cert.encoded.is_empty());
        assert!(cert.report.bound_leaves >= 1, "proof must bound some leaf");
        // The canonical JSON carries the certificate size and report but
        // never the prove or check wall time.
        let dump = r.to_json().dump();
        assert!(dump.contains("\"certificate\""));
        assert!(!dump.contains("check_us"));
        assert!(!dump.contains("prove_us"));
        // Without the flag no certificate is produced (and the JSON member
        // is null).
        let off = compiler();
        let r_off = off.compile(&cfg, &profile, deadline).unwrap();
        assert!(r_off.milp.certificate.is_none());
        assert!(r_off.to_json().dump().contains("\"certificate\":null"));
    }

    #[test]
    fn compile_multi_meets_both_category_deadlines() {
        // Two "categories" = the same program with different iteration
        // balances (memory-heavy vs compute-heavy executions).
        let (cfg, trace_a) = two_phase_program();
        let trace_b = {
            let mut tb = dvs_sim::TraceBuilder::new(&cfg);
            let (e, mem, comp, x) = (
                cfg.entry(),
                cfg.block_by_label("memloop").unwrap(),
                cfg.block_by_label("comploop").unwrap(),
                cfg.exit(),
            );
            tb.step(e, vec![]);
            for i in 0..150u64 {
                tb.step(mem, vec![0x60_0000 + i * 4096]);
            }
            for _ in 0..900 {
                tb.step(comp, vec![]);
            }
            tb.step(x, vec![]);
            tb.finish().unwrap()
        };
        let c = compiler();
        let (pa, runs_a) = c.profile(&cfg, &trace_a);
        let (pb, runs_b) = c.profile(&cfg, &trace_b);
        let mk_deadline = |runs: &[TimedRun]| {
            let tf = runs.last().unwrap().total_time_us;
            let ts = runs[0].total_time_us;
            tf + 0.5 * (ts - tf)
        };
        let da = mk_deadline(&runs_a);
        let db = mk_deadline(&runs_b);
        let cats = vec![
            crate::CategoryProfile {
                weight: 0.5,
                profile: pa,
                deadline_us: da,
            },
            crate::CategoryProfile {
                weight: 0.5,
                profile: pb,
                deadline_us: db,
            },
        ];
        let (outcome, measured) = c
            .compile_multi(&cfg, &cats, &[&trace_a, &trace_b])
            .expect("joint deadlines feasible");
        assert_eq!(measured.len(), 2);
        assert!(outcome.predicted_times_us[0] <= da + 1e-6);
        assert!(outcome.predicted_times_us[1] <= db + 1e-6);
        assert!(
            measured[0].time_us <= da * 1.05,
            "cat A measured over deadline"
        );
        assert!(
            measured[1].time_us <= db * 1.05,
            "cat B measured over deadline"
        );
    }

    #[test]
    fn config_digest_separates_semantic_settings_only() {
        let mk = || {
            DvsCompiler::builder(
                Machine::paper_default(),
                VoltageLadder::xscale3(&AlphaPower::paper()),
                TransitionModel::with_capacitance_uf(10.0),
            )
        };
        let base = mk().build().unwrap().config_digest();
        assert_eq!(base, mk().build().unwrap().config_digest(), "stable");
        // Parallelism and validation knobs don't change results → same key.
        assert_eq!(
            base,
            mk().jobs(4)
                .validation(false)
                .build()
                .unwrap()
                .config_digest()
        );
        // Semantic knobs do.
        for other in [
            mk().tail_fraction(0.05).build().unwrap().config_digest(),
            mk().verify_emitted(true).build().unwrap().config_digest(),
            mk().certify(true).build().unwrap().config_digest(),
            DvsCompiler::builder(
                Machine::paper_default(),
                VoltageLadder::interpolated(&AlphaPower::paper(), 5).unwrap(),
                TransitionModel::with_capacitance_uf(10.0),
            )
            .build()
            .unwrap()
            .config_digest(),
            DvsCompiler::builder(
                Machine::paper_default(),
                VoltageLadder::xscale3(&AlphaPower::paper()),
                TransitionModel::with_capacitance_uf(0.05),
            )
            .build()
            .unwrap()
            .config_digest(),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn result_json_is_byte_stable_across_recompiles() {
        let (cfg, trace) = two_phase_program();
        let c = compiler();
        let (profile, runs) = c.profile(&cfg, &trace);
        let t_fast = runs.last().unwrap().total_time_us;
        let t_slow = runs[0].total_time_us;
        let deadline = t_fast + 0.5 * (t_slow - t_fast);
        let a = c
            .compile_and_validate(&cfg, &trace, &profile, deadline)
            .unwrap();
        let b = c
            .compile_and_validate(&cfg, &trace, &profile, deadline)
            .unwrap();
        assert_eq!(a.to_json().dump(), b.to_json().dump());
        // Wall-clock never leaks into the canonical form.
        assert!(!a.to_json().dump().contains("solve_time"));
    }

    #[test]
    fn transition_costs_reduce_switching() {
        let (cfg, trace) = two_phase_program();
        let ladder = VoltageLadder::xscale3(&AlphaPower::paper());
        let mk = |cap_uf: f64, ladder: VoltageLadder| {
            DvsCompiler::builder(
                Machine::paper_default(),
                ladder,
                TransitionModel::with_capacitance_uf(cap_uf),
            )
            .build()
            .unwrap()
        };
        let cheap = mk(0.01, ladder.clone());
        let pricey = mk(100.0, ladder);
        let (profile, runs) = cheap.profile(&cfg, &trace);
        let t_fast = runs.last().unwrap().total_time_us;
        let t_slow = runs[0].total_time_us;
        let deadline = t_fast + 0.4 * (t_slow - t_fast);
        let r_cheap = cheap.compile(&cfg, &profile, deadline).unwrap();
        let r_pricey = pricey.compile(&cfg, &profile, deadline).unwrap();
        assert!(
            r_pricey.analysis.predicted_dynamic_transitions()
                <= r_cheap.analysis.predicted_dynamic_transitions(),
            "expensive transitions must not increase switching"
        );
        // And expensive-transition energy is never below cheap-transition.
        assert!(r_pricey.milp.predicted_energy_uj >= r_cheap.milp.predicted_energy_uj - 1e-9);
    }
}
