//! The in-process workloads: cold compile, solve sweep and certify sweep.
//!
//! Untraced ops call the pass exactly as a user does. A traced op instead
//! rebuilds the same `CompileResult` from the per-stage public calls that
//! `serve::execute_solve` and `DvsCompiler::compile_cell` make, timing each
//! call from here; the rebuilt result must serialize byte-identically to
//! the untraced op's, so the breakdown cannot drift from the real path.

use crate::calib::Calibrator;
use crate::ops::{self, Cell, Deadline, LADDERS, SERVE_CAP_UF, SWEEP_CAPS_UF};
use crate::report::{end_to_end, mean, Metrics, RunSummary};
use dvs_compiler::fingerprint::Fnv64;
use dvs_compiler::{
    baseline, CompileResult, DeadlineScheme, DvsCompiler, EdgeFilter, MilpFormulation, PassError,
    ScheduleAnalysis, SolverChoice,
};
use dvs_ir::{Cfg, Profile};
use dvs_sim::{Machine, Trace};
use dvs_vf::{AlphaPower, TransitionModel, VoltageLadder};
use dvs_workloads::{Benchmark, InputSpec};
use std::collections::HashMap;
use std::time::Instant;

/// The validation tolerance `pass.rs` applies to a measured schedule: the
/// simulator's time may exceed the deadline by at most 5%.
const VALIDATION_SLACK: f64 = 1.05;

/// A traced op's stage times must sum to its own wall time within this
/// share of it plus [`STAGE_SUM_SLACK_US`]; the rest is unattributed time
/// between stage calls. (The MILP call's sub-stages always add up: its
/// formulation share is the remainder of its wall time.)
pub const STAGE_SUM_TOL: f64 = 0.01;
/// Absolute part of the stage-sum tolerance, µs.
pub const STAGE_SUM_SLACK_US: f64 = 25.0;
/// The stage times must also sum to the untraced run of the same op
/// within this share of it plus [`UNTRACED_SLACK_US`]. The two runs are
/// separate executions on a shared host, and the staged one records
/// dvs-obs counters (the MILP's per-LP counters cost up to half of some
/// small B&B-heavy ops); [`traced_op`] re-measures both when they disagree.
pub const UNTRACED_TOL: f64 = 0.5;
/// Absolute part of the untraced tolerance, µs.
pub const UNTRACED_SLACK_US: f64 = 1000.0;
/// Over a whole traced run of at least [`RUN_CHECK_MIN_OPS`] ops, the stage
/// times must sum to the untraced ops' time within this share of it.
/// Measured gaps were at most 3.7%.
pub const RUN_UNTRACED_TOL: f64 = 0.10;
/// Below this many ops, host noise does not average out over a run.
/// Every benchmark run has more.
const RUN_CHECK_MIN_OPS: usize = 100;
/// Most measurements of one traced op's untraced and staged runs.
const TRACED_ATTEMPTS: usize = 5;
/// Host-speed samples in the window: one per this many seconds, taken
/// between ops, ...
const CAL_INTERVAL_S: f64 = 0.05;
/// ... and at most this many between two ops.
const CAL_MAX_BURST: usize = 5;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold compile: build, trace, measure, profile, compile, validate.
    Cold,
    /// Solve sweep: compile with the verify gate on pre-built profiles.
    Solve,
    /// Certify sweep: compile with the certify gate on pre-built profiles.
    Certify,
}

/// Pipeline stages, in the order the pass runs them.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Build,
    Trace,
    Measure,
    Profile,
    Filter,
    Formulate,
    Solve,
    Prove,
    Check,
    Schedule,
    Verify,
    Baseline,
    Validate,
}
const STAGES: usize = 13;

/// Per-stage wall times of one traced op (or one set-up step), µs; `None`
/// for stages that did not run.
#[derive(Debug, Clone, Default)]
struct Stages([Option<f64>; STAGES]);

impl Stages {
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(stage, t.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn add(&mut self, stage: Stage, us: f64) {
        *self.0[stage as usize].get_or_insert(0.0) += us;
    }

    fn get(&self, stage: Stage) -> Option<f64> {
        self.0[stage as usize]
    }

    fn sum(&self) -> f64 {
        self.0.iter().flatten().sum()
    }
}

/// What the traced run keeps per op (and per set-up profile).
#[derive(Debug, Clone, Default)]
struct Traced {
    stages: Stages,
    /// Wall time of the whole staged op, µs.
    total_us: f64,
    /// Wall time of the same op untraced, µs.
    untraced_us: f64,
    /// Simulator runs observed during the staged op (dvs-obs counters).
    sim_calls: u64,
    /// Dynamic instructions of the trace and ladder modes, when profiled.
    profiled: Option<(u64, usize)>,
    tied_edges: Option<usize>,
    /// (explored nodes, pruned nodes, pivots, binary variables).
    milp: Option<(usize, usize, usize, usize)>,
    /// (certificate bytes, proof leaves).
    cert: Option<(usize, usize)>,
}

fn ladder(levels: usize) -> VoltageLadder {
    let law = AlphaPower::paper();
    if levels == 3 {
        VoltageLadder::xscale3(&law)
    } else {
        VoltageLadder::interpolated(&law, levels).expect("supported ladder size")
    }
}

struct Profiled {
    profile: Profile,
    t_fast_us: f64,
    t_slow_us: f64,
}

/// Everything an in-process workload sets up before its timed window.
pub struct Env {
    kind: Kind,
    compilers: Vec<((usize, u64), DvsCompiler)>,
    /// Sweeps: (benchmark, input) → CFG and trace.
    programs: HashMap<(usize, usize), (Cfg, Trace)>,
    /// Sweeps: (benchmark, input, levels) → profile and its extreme
    /// runtimes.
    profiles: HashMap<(usize, usize, usize), Profiled>,
    /// Certify sweep: (benchmark, input) → Fig. 16 deadlines.
    schemes: HashMap<(usize, usize), DeadlineScheme>,
    /// Traced set-up steps (sweeps: build, trace, profile).
    setup_steps: Vec<Traced>,
}

/// The result of one op: the compile and the deadline it was held to.
type OpResult = (Result<CompileResult, PassError>, f64);

impl Env {
    /// Builds the compilers and, for the sweeps, every program and profile
    /// the window needs, then runs one warm-up op so lazy first-use costs
    /// land here rather than in the window.
    pub fn setup(kind: Kind) -> Env {
        let machine = Machine::paper_default();
        let (ladders, caps): (&[usize], &[f64]) = match kind {
            Kind::Cold => (&LADDERS, &[SERVE_CAP_UF]),
            Kind::Solve => (&LADDERS, &SWEEP_CAPS_UF),
            Kind::Certify => (&[3, 7], &[SERVE_CAP_UF]),
        };
        let mut compilers = Vec::new();
        for &levels in ladders {
            for &cap in caps {
                let c = DvsCompiler::builder(
                    machine.clone(),
                    ladder(levels),
                    TransitionModel::with_capacitance_uf(cap),
                )
                .validation(kind == Kind::Cold)
                .verify_emitted(kind == Kind::Solve)
                .certify(kind == Kind::Certify)
                .solver_jobs(1)
                .build()
                .expect("valid compiler settings");
                compilers.push(((levels, cap.to_bits()), c));
            }
        }
        let mut env = Env {
            kind,
            compilers,
            programs: HashMap::new(),
            profiles: HashMap::new(),
            schemes: HashMap::new(),
            setup_steps: Vec::new(),
        };
        for (bench, b) in Benchmark::all().into_iter().enumerate() {
            // The sweeps profile each benchmark's default input on each of
            // their ladders.
            let inputs = match kind {
                Kind::Cold => Vec::new(),
                Kind::Solve | Kind::Certify => vec![b.default_input()],
            };
            for (input, spec) in inputs.iter().enumerate() {
                let mut step = Traced::default();
                let cfg = step.stages.time(Stage::Build, || b.build_cfg());
                let trace = step.stages.time(Stage::Trace, || b.trace(&cfg, spec));
                let insts = trace.dynamic_inst_count(&cfg);
                env.setup_steps.push(step);
                for &levels in ladders {
                    let mut step = Traced::default();
                    let (profile, runs) = step.stages.time(Stage::Profile, || {
                        env.compiler(levels, caps[0]).profile(&cfg, &trace)
                    });
                    step.profiled = Some((insts, levels));
                    env.setup_steps.push(step);
                    if kind == Kind::Certify && levels == 3 {
                        // The 3-level ladder's modes are exactly the three
                        // reference points `DeadlineScheme::measure` runs.
                        env.schemes.insert(
                            (bench, input),
                            DeadlineScheme::from_times(
                                runs[0].total_time_us,
                                runs[1].total_time_us,
                                runs[2].total_time_us,
                            ),
                        );
                    }
                    let extremes = (runs[runs.len() - 1].total_time_us, runs[0].total_time_us);
                    env.profiles.insert(
                        (bench, input, levels),
                        Profiled {
                            profile,
                            t_fast_us: extremes.0,
                            t_slow_us: extremes.1,
                        },
                    );
                }
                env.programs.insert((bench, input), (cfg, trace));
            }
        }
        // One warm-up op per benchmark, so every workload generator and
        // the compile path have run once before the window.
        for bench in 0..Benchmark::all().len() {
            let warm = Cell {
                bench,
                input: 0,
                levels: 3,
                deadline: if kind == Kind::Solve {
                    Deadline::Fraction(0.5)
                } else {
                    Deadline::Index(3)
                },
                cap_uf: SERVE_CAP_UF,
            };
            let _ = env.untraced(&warm, &warm.benchmark().default_input());
        }
        env
    }

    fn compiler(&self, levels: usize, cap_uf: f64) -> &DvsCompiler {
        &self
            .compilers
            .iter()
            .find(|(k, _)| *k == (levels, cap_uf.to_bits()))
            .expect("compiler built in set-up")
            .1
    }

    /// The deadline of a sweep cell (cold cells measure theirs in the op).
    fn sweep_deadline(&self, c: &Cell) -> f64 {
        match c.deadline {
            Deadline::Index(d) => self.schemes[&(c.bench, c.input)].deadline_us(d),
            Deadline::Fraction(f) => {
                let p = &self.profiles[&(c.bench, c.input, c.levels)];
                p.t_fast_us + f * (p.t_slow_us - p.t_fast_us)
            }
        }
    }

    /// One op through the public pass, as a user runs it.
    fn untraced(&self, c: &Cell, input: &InputSpec) -> OpResult {
        let compiler = self.compiler(c.levels, c.cap_uf);
        if self.kind == Kind::Cold {
            let b = c.benchmark();
            let cfg = b.build_cfg();
            let trace = b.trace(&cfg, input);
            let scheme = DeadlineScheme::measure(compiler.machine(), &cfg, &trace);
            let deadline = scheme.deadline_us(deadline_index(c));
            let (profile, _) = compiler.profile(&cfg, &trace);
            let result = compiler.compile_and_validate(&cfg, &trace, &profile, deadline);
            return (result, deadline);
        }
        let deadline = self.sweep_deadline(c);
        let cfg = &self.programs[&(c.bench, c.input)].0;
        let profile = &self.profiles[&(c.bench, c.input, c.levels)].profile;
        (compiler.compile(cfg, profile, deadline), deadline)
    }

    /// The same op rebuilt from per-stage calls, each timed from here.
    /// Returns the result and the op's trace record.
    fn staged(&self, c: &Cell, input: &InputSpec) -> (OpResult, Traced) {
        let compiler = self.compiler(c.levels, c.cap_uf);
        let mut tr = Traced::default();
        dvs_obs::enable();
        dvs_obs::reset();
        let t0 = Instant::now();
        let mut milp_wall_us = 0.0;
        let (result, deadline, insts) = if self.kind == Kind::Cold {
            let b = c.benchmark();
            let st = &mut tr.stages;
            let cfg = st.time(Stage::Build, || b.build_cfg());
            let trace = st.time(Stage::Trace, || b.trace(&cfg, input));
            let scheme = st.time(Stage::Measure, || {
                DeadlineScheme::measure(compiler.machine(), &cfg, &trace)
            });
            let deadline = scheme.deadline_us(deadline_index(c));
            let (profile, _) = st.time(Stage::Profile, || compiler.profile(&cfg, &trace));
            let result = self
                .staged_compile(st, &mut milp_wall_us, compiler, &cfg, &profile, deadline)
                .map(|mut r| {
                    let run = st.time(Stage::Validate, || {
                        compiler.machine().run_scheduled(
                            &cfg,
                            &trace,
                            compiler.ladder(),
                            &r.milp.schedule,
                            compiler.transition(),
                        )
                    });
                    r.validated = Some(run);
                    r
                });
            tr.total_us = us_since(t0);
            (result, deadline, Some(trace.dynamic_inst_count(&cfg)))
        } else {
            let deadline = self.sweep_deadline(c);
            let cfg = &self.programs[&(c.bench, c.input)].0;
            let profile = &self.profiles[&(c.bench, c.input, c.levels)].profile;
            let result = self.staged_compile(
                &mut tr.stages,
                &mut milp_wall_us,
                compiler,
                cfg,
                profile,
                deadline,
            );
            tr.total_us = us_since(t0);
            (result, deadline, None)
        };
        let snap = dvs_obs::MetricsSnapshot::capture();
        dvs_obs::disable();
        tr.sim_calls = snap.counter("sim.runs") + snap.counter("sim.scheduled_runs");
        tr.profiled = insts.map(|n| (n, c.levels));
        if let Ok(r) = &result {
            // `MilpFormulation::solve` times the solver and the checker
            // itself, and the prover runs under its `pass.certify` span;
            // the rest of its wall time is formulation (model build,
            // warm start, certificate encoding, schedule extraction).
            let solve_us = r.milp.solve_time.as_secs_f64() * 1e6;
            let check_us = r.milp.certificate.as_ref().map(|cert| cert.check_us);
            let prove_us = snap
                .spans
                .iter()
                .find(|s| s.name == "pass.certify")
                .map(|s| s.total_us);
            tr.stages.add(Stage::Solve, solve_us);
            if let (Some(p), Some(k)) = (prove_us, check_us) {
                tr.stages.add(Stage::Prove, p);
                tr.stages.add(Stage::Check, k);
            }
            let formulate =
                milp_wall_us - solve_us - prove_us.unwrap_or(0.0) - check_us.unwrap_or(0.0);
            tr.stages.add(Stage::Formulate, formulate);
            tr.tied_edges = Some(r.filter.num_edges() - r.filter.num_independent());
            let s = &r.milp.solve_stats;
            tr.milp = Some((s.nodes, s.nodes_pruned, s.pivots, r.milp.binary_vars));
            tr.cert = r.milp.certificate.as_ref().map(|cert| {
                let rep = &cert.report;
                (
                    cert.encoded.len(),
                    rep.bound_leaves + rep.farkas_leaves + rep.empty_leaves,
                )
            });
        }
        ((result, deadline), tr)
    }

    /// `DvsCompiler::compile_cell` as separate stage calls. The MILP call's
    /// wall time goes to `milp_wall_us`; the caller splits it.
    fn staged_compile(
        &self,
        st: &mut Stages,
        milp_wall_us: &mut f64,
        compiler: &DvsCompiler,
        cfg: &Cfg,
        profile: &Profile,
        deadline_us: f64,
    ) -> Result<CompileResult, PassError> {
        let ladder = compiler.ladder();
        let filter = st.time(Stage::Filter, || {
            EdgeFilter::tail_rule(cfg, profile, ladder.len() - 1, compiler.tail_fraction())
        });
        let t = Instant::now();
        let milp = MilpFormulation::new(cfg, profile, ladder, compiler.transition(), deadline_us)
            .with_filter(filter.clone())
            .with_solver_jobs(1)
            .with_solver(SolverChoice::Auto)
            .with_certify(self.kind == Kind::Certify)
            .solve();
        *milp_wall_us = us_since(t);
        let milp = milp?;
        if let Some(reject) = milp
            .certificate
            .as_ref()
            .and_then(|c| c.report.reject.as_ref())
        {
            return Err(PassError::Certify(format!(
                "{}: {}",
                reject.code, reject.detail
            )));
        }
        let analysis = st.time(Stage::Schedule, || {
            ScheduleAnalysis::new(cfg, profile, &milp.schedule)
        });
        let verify = if self.kind == Kind::Solve {
            let report = st.time(Stage::Verify, || {
                dvs_verify::verify(&dvs_verify::VerifyInput {
                    cfg,
                    profile,
                    ladder,
                    transition: compiler.transition(),
                    schedule: &milp.schedule,
                    emitted: Some(&analysis.emitted_mask()),
                    deadline_us: Some(deadline_us),
                })
            });
            if !report.ok() {
                return Err(PassError::Verify("emitted schedule has errors".into()));
            }
            Some(report)
        } else {
            None
        };
        let single_mode = st.time(Stage::Baseline, || {
            baseline::best_single_mode(profile, ladder, deadline_us)
        });
        Ok(CompileResult {
            milp,
            analysis,
            single_mode,
            validated: None,
            filter,
            verify,
        })
    }

    /// The correctness checks of one op's result, independent of the MILP.
    fn check(&self, result: &CompileResult, deadline_us: f64) -> Result<(), String> {
        match self.kind {
            Kind::Cold => {
                let v = result.validated.as_ref().ok_or("no validation run")?;
                if v.time_us > deadline_us * VALIDATION_SLACK {
                    return Err(format!(
                        "validated {:.1} µs misses deadline {deadline_us:.1} µs",
                        v.time_us
                    ));
                }
            }
            Kind::Solve => {
                let report = result.verify.as_ref().ok_or("no verify report")?;
                if !report.ok() {
                    return Err("verify report has errors".into());
                }
            }
            Kind::Certify => {
                let cert = result.milp.certificate.as_ref().ok_or("no certificate")?;
                if !cert.report.ok() {
                    return Err("checker rejected the certificate".into());
                }
            }
        }
        Ok(())
    }
}

fn deadline_index(c: &Cell) -> usize {
    match c.deadline {
        Deadline::Index(d) => d,
        Deadline::Fraction(_) => unreachable!("cold cells use Fig. 16 deadlines"),
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn digest(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(s);
    h.finish()
}

/// The op list of `kind` for `seed` and `rounds`.
pub fn cells(kind: Kind, seed: u64, rounds: usize) -> Vec<Cell> {
    match kind {
        Kind::Cold => ops::cold_compile(seed, rounds),
        Kind::Solve => ops::solve_sweep(seed, rounds),
        Kind::Certify => ops::certify_sweep(seed, rounds),
    }
}

/// Whether a traced op's stage times account for its time: for the staged
/// op's own wall time (unattributed time between stage calls) and for the
/// untraced op's.
fn accounted(tr: &Traced) -> Result<(), String> {
    let sum = tr.stages.sum();
    if (tr.total_us - sum).abs() > STAGE_SUM_TOL * tr.total_us + STAGE_SUM_SLACK_US {
        return Err(format!(
            "stages sum to {sum:.1} µs of a {:.1} µs op",
            tr.total_us
        ));
    }
    if (sum - tr.untraced_us).abs() > UNTRACED_TOL * tr.untraced_us + UNTRACED_SLACK_US {
        return Err(format!(
            "stages sum to {sum:.1} µs, the untraced op took {:.1} µs",
            tr.untraced_us
        ));
    }
    Ok(())
}

/// One traced op: the op untraced and staged, alternating which runs
/// first. Host noise only ever adds time, so while the stage times do not
/// account for the op both are run again, up to [`TRACED_ATTEMPTS`] times,
/// keeping the fastest of each; then the traced-run checks apply.
fn traced_op(
    env: &Env,
    c: &Cell,
    input: &InputSpec,
    i: usize,
    failures: &mut Vec<String>,
) -> (OpResult, Traced) {
    let mut kept: Option<(OpResult, OpResult, Traced)> = None;
    for attempt in 0..TRACED_ATTEMPTS {
        let (u, untraced_us, (s, tr)) = if (i + attempt) % 2 == 0 {
            let t = Instant::now();
            let u = env.untraced(c, input);
            let untraced_us = us_since(t);
            (u, untraced_us, env.staged(c, input))
        } else {
            let staged = env.staged(c, input);
            let t = Instant::now();
            let u = env.untraced(c, input);
            (u, us_since(t), staged)
        };
        let (u, s, mut best) = match kept.take() {
            None => (
                u,
                s,
                Traced {
                    untraced_us: f64::INFINITY,
                    ..tr
                },
            ),
            Some((u0, s0, best)) if best.total_us <= tr.total_us => (u0, s0, best),
            Some((u0, s0, best)) => (
                u0,
                s0,
                Traced {
                    untraced_us: best.untraced_us,
                    ..tr
                },
            ),
        };
        best.untraced_us = best.untraced_us.min(untraced_us);
        let done = accounted(&best).is_ok();
        kept = Some((u, s, best));
        if done {
            break;
        }
    }
    let (u, s, tr) = kept.expect("at least one attempt");
    compare(&u.0, &s.0, &tr, failures);
    (u, tr)
}

/// Runs `cells` on `env`: untraced for the end-to-end metrics, or traced
/// (see [`traced_op`]) for the per-layer metrics. Samples the host's speed
/// into `cal` between ops, outside their timers, and reports each op's
/// time divided by the slowdown around it (see [`crate::calib`]).
/// `setup_s` is already in reference-host units.
pub fn run(
    env: &Env,
    cells: &[Cell],
    setup_s: f64,
    traced: bool,
    cal: &mut Calibrator,
) -> RunSummary {
    let inputs: Vec<InputSpec> = cells
        .iter()
        .map(|c| c.benchmark().inputs().swap_remove(c.input))
        .collect();
    let mut failures = Vec::new();
    let mut latencies = Vec::with_capacity(cells.len());
    let mut savings = Vec::new();
    let mut records = Vec::new();
    let mut seen: HashMap<_, u64> = HashMap::new();
    let mut certs: HashMap<_, String> = HashMap::new();
    let mut run_digest = Fnv64::new();
    // When each op ran, on the calibrator's clock.
    let mut midpoints = Vec::with_capacity(cells.len());
    cal.sample();
    let mut last_sample = cal.now();
    for (i, (c, input)) in cells.iter().zip(&inputs).enumerate() {
        let since = cal.now() - last_sample;
        if since >= CAL_INTERVAL_S {
            cal.samples(((since / CAL_INTERVAL_S) as usize).min(CAL_MAX_BURST));
            last_sample = cal.now();
        }
        let start = cal.now();
        let t0 = Instant::now();
        let ((result, deadline), record) = if traced {
            let (u, tr) = traced_op(env, c, input, i, &mut failures);
            (u, Some(tr))
        } else {
            (env.untraced(c, input), None)
        };
        latencies.push(
            record
                .as_ref()
                .map_or_else(|| us_since(t0), |r| r.untraced_us),
        );
        midpoints.push((start + cal.now()) / 2.0);
        records.extend(record);
        let out = match &result {
            Ok(r) => {
                if let Err(e) = env.check(r, deadline) {
                    failures.push(format!("op {i} {c:?}: {e}"));
                }
                savings.extend(r.savings_vs_single());
                if let Some(cert) = &r.milp.certificate {
                    certs.entry(c.key()).or_insert_with(|| cert.encoded.clone());
                }
                r.to_json().dump()
            }
            Err(e) => {
                failures.push(format!("op {i} {c:?}: {e}"));
                format!("error: {e}")
            }
        };
        let d = digest(&out);
        if *seen.entry(c.key()).or_insert(d) != d {
            failures.push(format!(
                "op {i} {c:?}: output differs from an earlier op on the same cell"
            ));
        }
        run_digest.write_u64(d);
    }
    cal.sample();
    // Each op's time on the reference host, from the host's speed around it.
    let latencies: Vec<f64> = latencies
        .iter()
        .zip(&midpoints)
        .map(|(us, &t)| us / cal.near(t))
        .collect();
    // The single caller's busy time: the ops alone, without the checks,
    // serialization and digests above.
    let busy_s = latencies.iter().sum::<f64>() / 1e6;
    // An independent re-check of every distinct certificate from its
    // encoded bytes, outside the window.
    for (key, encoded) in &certs {
        match dvs_cert::Certificate::decode(encoded) {
            Ok(cert) if dvs_cert::check(&cert).ok() => {}
            Ok(_) => failures.push(format!("cell {key:?}: certificate rejected on re-check")),
            Err(e) => failures.push(format!("cell {key:?}: certificate does not decode: {e}")),
        }
    }
    let metrics = if traced {
        let staged: f64 = records.iter().map(|r| r.stages.sum()).sum();
        let untraced: f64 = records.iter().map(|r| r.untraced_us).sum();
        if records.len() >= RUN_CHECK_MIN_OPS
            && (staged - untraced).abs() > RUN_UNTRACED_TOL * untraced
        {
            failures.push(format!(
                "stages sum to {:.1} ms over the run, the untraced ops took {:.1} ms",
                staged / 1e3,
                untraced / 1e3
            ));
        }
        per_layer(&records, &env.setup_steps)
    } else {
        end_to_end(setup_s, busy_s, &latencies, failures.len(), &savings)
    };
    RunSummary {
        attempted: cells.len(),
        failures,
        metrics,
        digest: run_digest.finish(),
        host: (cal.slowdown(), cal.len()),
    }
}

/// The traced-run checks: same outcome and byte-identical result, stage
/// times that account for the staged op's wall time and for the untraced
/// op's, and a non-negative formulation remainder.
fn compare(
    untraced: &Result<CompileResult, PassError>,
    staged: &Result<CompileResult, PassError>,
    tr: &Traced,
    failures: &mut Vec<String>,
) {
    match (untraced, staged) {
        (Ok(u), Ok(s)) => {
            if u.to_json().dump() != s.to_json().dump() {
                failures.push("staged result differs from the untraced result".into());
            }
            if let Err(e) = accounted(tr) {
                failures.push(e);
            }
            if tr.stages.get(Stage::Formulate).unwrap_or(0.0) < -1.0 {
                failures.push("MILP sub-stages exceed its wall time".into());
            }
        }
        (Err(_), Err(_)) => {}
        _ => failures.push("staged and untraced ops disagree on success".into()),
    }
}

/// Per-layer metrics of a traced run. Stage means are over the records in
/// which the stage ran; for the sweeps, the build, trace and profile
/// stages come from set-up, since their windows never run them.
fn per_layer(ops: &[Traced], setup: &[Traced]) -> Metrics {
    let all: Vec<&Traced> = ops.iter().chain(setup).collect();
    let stage_mean = |stages: &[Stage]| {
        let v: Vec<f64> = all
            .iter()
            .filter(|r| stages.iter().any(|&s| r.stages.get(s).is_some()))
            .map(|r| stages.iter().filter_map(|&s| r.stages.get(s)).sum())
            .collect();
        mean(&v)
    };
    let field_mean = |f: &dyn Fn(&Traced) -> Option<f64>| {
        let v: Vec<f64> = all.iter().filter_map(|r| f(r)).collect();
        mean(&v)
    };
    let total: f64 = ops.iter().map(|r| r.total_us).sum();
    let share = |stages: &[Stage]| {
        let part: f64 = ops
            .iter()
            .flat_map(|r| stages.iter().filter_map(|&s| r.stages.get(s)))
            .fold(0.0, |a, b| a + b);
        if total > 0.0 {
            100.0 * part / total
        } else {
            0.0
        }
    };
    let (profiled_insts, profile_us) = all
        .iter()
        .filter_map(|r| Some((r.profiled?, r.stages.get(Stage::Profile)?)))
        .fold((0.0, 0.0), |(n, t), ((insts, modes), us)| {
            (n + (insts * modes as u64) as f64, t + us)
        });
    let (pruned, explored) = ops
        .iter()
        .filter_map(|r| r.milp)
        .fold((0.0, 0.0), |(p, e), (nodes, pr, _, _)| {
            (p + pr as f64, e + nodes as f64)
        });
    let untraced: f64 = ops.iter().map(|r| r.untraced_us).sum();

    let mut m = Metrics::default();
    m.put(
        "workloads.build_ms",
        stage_mean(&[Stage::Build, Stage::Trace]) / 1e3,
        "ms",
    );
    m.put(
        "workloads.trace_minsts",
        field_mean(&|r| r.profiled.map(|(n, _)| n as f64 / 1e6)),
        "Minsts",
    );
    m.put(
        "deadline.measure_ms",
        stage_mean(&[Stage::Measure]) / 1e3,
        "ms",
    );
    m.put("profile.ms", stage_mean(&[Stage::Profile]) / 1e3, "ms");
    m.put(
        "profile.minsts_per_s",
        if profile_us > 0.0 {
            profiled_insts / profile_us
        } else {
            0.0
        },
        "Minsts/s",
    );
    m.put("validate.ms", stage_mean(&[Stage::Validate]) / 1e3, "ms");
    m.put("filter.us", stage_mean(&[Stage::Filter]), "us");
    m.put(
        "filter.tied_edges",
        field_mean(&|r| r.tied_edges.map(|n| n as f64)),
        "count",
    );
    m.put("formulate.ms", stage_mean(&[Stage::Formulate]) / 1e3, "ms");
    m.put("milp.solve_ms", stage_mean(&[Stage::Solve]) / 1e3, "ms");
    m.put(
        "milp.nodes",
        field_mean(&|r| r.milp.map(|x| x.0 as f64)),
        "count",
    );
    m.put(
        "milp.pivots",
        field_mean(&|r| r.milp.map(|x| x.2 as f64)),
        "count",
    );
    m.put(
        "milp.binary_vars",
        field_mean(&|r| r.milp.map(|x| x.3 as f64)),
        "count",
    );
    m.put(
        "milp.prune_ratio",
        if explored + pruned > 0.0 {
            pruned / (explored + pruned)
        } else {
            0.0
        },
        "ratio",
    );
    m.put("certify.prove_ms", stage_mean(&[Stage::Prove]) / 1e3, "ms");
    m.put("cert.check_ms", stage_mean(&[Stage::Check]) / 1e3, "ms");
    m.put(
        "cert.kbytes",
        field_mean(&|r| r.cert.map(|c| c.0 as f64 / 1e3)),
        "kB",
    );
    m.put(
        "cert.leaves",
        field_mean(&|r| r.cert.map(|c| c.1 as f64)),
        "count",
    );
    m.put("schedule.us", stage_mean(&[Stage::Schedule]), "us");
    m.put("verify.ms", stage_mean(&[Stage::Verify]) / 1e3, "ms");
    m.put("baseline.us", stage_mean(&[Stage::Baseline]), "us");
    m.put(
        "sim.calls_per_op",
        mean(&ops.iter().map(|r| r.sim_calls as f64).collect::<Vec<_>>()),
        "count",
    );
    m.put(
        "sim.share_pct",
        share(&[Stage::Measure, Stage::Profile, Stage::Validate]),
        "%",
    );
    m.put(
        "prove_check.share_pct",
        share(&[Stage::Prove, Stage::Check]),
        "%",
    );
    m.put(
        "stage.gap_max_pct",
        ops.iter()
            .map(|r| 100.0 * (r.total_us - r.stages.sum()).abs() / r.total_us.max(1e-9))
            .fold(0.0, f64::max),
        "%",
    );
    m.put(
        "stage.untraced_gap_max_pct",
        ops.iter()
            .map(|r| 100.0 * (r.stages.sum() - r.untraced_us).abs() / r.untraced_us.max(1e-9))
            .fold(0.0, f64::max),
        "%",
    );
    m.put(
        "trace.overhead_pct",
        if untraced > 0.0 {
            100.0 * (total / untraced - 1.0)
        } else {
            0.0
        },
        "%",
    );
    m.put("ops.traced", ops.len() as f64, "count");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_level_profile_runs_match_the_deadline_scheme() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let b = Benchmark::Ghostscript;
        let cfg = b.build_cfg();
        let trace = b.trace(&cfg, &b.default_input());
        let m = Machine::paper_default();
        let c = DvsCompiler::builder(m.clone(), ladder(3), TransitionModel::free())
            .build()
            .unwrap();
        let (_, runs) = c.profile(&cfg, &trace);
        let from_runs = DeadlineScheme::from_times(
            runs[0].total_time_us,
            runs[1].total_time_us,
            runs[2].total_time_us,
        );
        assert_eq!(from_runs, DeadlineScheme::measure(&m, &cfg, &trace));
    }

    /// The smallest traced run of each in-process workload: the staged
    /// results match the untraced ones byte for byte and the stage times
    /// account for every op.
    #[test]
    fn traced_ops_match_untraced_and_stage_sums_hold() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for kind in [Kind::Cold, Kind::Solve, Kind::Certify] {
            let env = Env::setup(kind);
            let list: Vec<Cell> = cells(kind, 11, 1)
                .into_iter()
                .filter(|c| c.levels == 3 && c.bench != 3)
                .take(4)
                .collect();
            let s = run(&env, &list, 0.0, true, &mut Calibrator::new());
            assert!(s.failures.is_empty(), "{kind:?}: {:?}", s.failures);
            let calls = s.metrics.get("sim.calls_per_op").unwrap();
            if kind == Kind::Cold {
                assert_eq!(calls, 3.0 + 3.0 + 1.0, "measure + profile + validate");
            } else {
                assert_eq!(calls, 0.0, "{kind:?} must not simulate in the window");
            }
        }
    }

    /// Two runs of the same op list agree on everything deterministic.
    #[test]
    fn repeated_runs_are_identical() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for kind in [Kind::Solve, Kind::Certify] {
            let env = Env::setup(kind);
            let list: Vec<Cell> = cells(kind, 5, 1)
                .into_iter()
                .filter(|c| c.levels == 3)
                .take(6)
                .collect();
            let a = run(&env, &list, 0.0, false, &mut Calibrator::new());
            let b = run(&env, &list, 0.0, false, &mut Calibrator::new());
            assert!(a.failures.is_empty(), "{kind:?}: {:?}", a.failures);
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.attempted, b.attempted);
            assert_eq!(
                a.metrics.get("energy_savings_pct"),
                b.metrics.get("energy_savings_pct")
            );
        }
    }
}
