//! Differential oracles: three independent ways to catch the MILP pipeline
//! lying, plus a well-formedness check of the generators themselves.
//!
//! | oracle | claim it checks |
//! |---|---|
//! | [`OracleKind::WellFormed`] | generated CFGs are reducible and profiles conserve flow |
//! | [`OracleKind::BruteForce`] | on small cases the MILP optimum equals exhaustive enumeration of every mode assignment, and feasibility verdicts agree |
//! | [`OracleKind::ContinuousLower`] | the LP relaxation lower-bounds the integral objective, and the §3 continuous analytical bound dominates the discrete one for compute-bound programs |
//! | [`OracleKind::SimReplay`] | the emitted schedule, replayed cycle-by-cycle in the simulator, meets the deadline and lands near the predicted energy |
//! | [`OracleKind::BytecodeReplay`] | the compiled `dvs-replay` bytecode reproduces the simulator's replay of the emitted schedule to 1e-6 relative on every accounting field |
//! | [`OracleKind::StaticVerify`] | the `dvs-verify` static pass accepts every schedule the other oracles accept (no error diagnostics, modeled time matching the shared evaluator, WCET above modeled time) and rejects a deliberately infeasible mutant |
//! | [`OracleKind::Certificate`] | a certifying solve of the same model yields a proof the independent `dvs-cert` checker accepts, the encoding round-trips byte-stably, and every seeded corruption class ([`Mutation`]) is rejected with its expected code |
//!
//! The brute-force comparison and the MILP share one cost evaluator,
//! [`schedule_cost`], which replicates the §4.2 objective exactly: block
//! cost attributed per incoming edge under that edge's mode, the entry
//! block charged at the start mode, and `SE`/`ST` regulator costs charged
//! per profiled local path.

use crate::cases::{gen_case, CaseSpec, CheckCase};
use crate::gen::Gen;
use crate::mutate::Mutation;
use dvs_compiler::{analyze_params, MilpFormulation};
use dvs_ir::{Cfg, EdgeId, Profile};
use dvs_milp::MilpError;
use dvs_model::{CaseKind, ContinuousModel, DiscreteModel};
use dvs_sim::{Machine, ModeProfiler};
use dvs_vf::{ModeId, TransitionModel, VoltageLadder};

/// Comparison tolerances. Objective comparisons are tight (the solver
/// proves optimality to a 1e-6 absolute gap; the slack beyond that absorbs
/// float summation-order noise scaled by integer-tolerance rounding of the
/// binaries). Replay comparisons are loose: per-block profiled costs ignore
/// out-of-order overlap across block boundaries, which a mixed-mode replay
/// re-introduces.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Absolute objective tolerance, µJ.
    pub obj_abs_uj: f64,
    /// Relative objective tolerance.
    pub obj_rel: f64,
    /// Relative margin on deadline feasibility claims.
    pub feas_rel: f64,
    /// Relative slack allowed on replay time beyond the deadline.
    pub replay_time_rel: f64,
    /// Absolute slack allowed on replay time, µs.
    pub replay_time_abs_us: f64,
    /// Relative tolerance on replayed vs predicted energy.
    pub replay_energy_rel: f64,
    /// Absolute tolerance on replayed vs predicted energy, µJ.
    pub replay_energy_abs_uj: f64,
    /// Relative tolerance of the bytecode replay vs the cycle-level
    /// simulator. Tight by design: the interpreter runs the simulator's
    /// own pipeline step, bit-for-bit on time, and reassociates only
    /// energy sums.
    pub bytecode_rel: f64,
    /// Brute force enumerates at most this many assignments, else skips.
    pub brute_force_limit: u64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            obj_abs_uj: 1e-3,
            obj_rel: 1e-5,
            feas_rel: 1e-7,
            replay_time_rel: 0.15,
            replay_time_abs_us: 1.0,
            replay_energy_rel: 0.15,
            replay_energy_abs_uj: 1.0,
            bytecode_rel: 1e-6,
            brute_force_limit: 2_000_000,
        }
    }
}

/// Which oracle flagged a disagreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Generator invariants: reducibility, profile flow conservation.
    WellFormed,
    /// Exhaustive enumeration vs the MILP.
    BruteForce,
    /// Lower bounds: LP relaxation and the §3 continuous model.
    ContinuousLower,
    /// Schedule replay on the cycle-level simulator.
    SimReplay,
    /// Compiled bytecode replay vs the cycle-level simulator.
    BytecodeReplay,
    /// The `dvs-verify` static pass vs the shared cost evaluator.
    StaticVerify,
    /// The `dvs-cert` checker vs the certifying solver replay.
    Certificate,
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OracleKind::WellFormed => "well-formed",
            OracleKind::BruteForce => "brute-force",
            OracleKind::ContinuousLower => "continuous-lower",
            OracleKind::SimReplay => "sim-replay",
            OracleKind::BytecodeReplay => "bytecode-replay",
            OracleKind::StaticVerify => "static-verify",
            OracleKind::Certificate => "certificate",
        })
    }
}

/// One oracle violation.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// Human-readable description with the numbers that disagreed.
    pub detail: String,
}

/// Everything observed while checking one case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The recorded choice tape (input to the shrinker).
    pub tape: Vec<u64>,
    /// Blocks in the generated CFG.
    pub blocks: usize,
    /// Edges in the generated CFG.
    pub edges: usize,
    /// Ladder size.
    pub modes: usize,
    /// The resolved deadline, µs.
    pub deadline_us: f64,
    /// Whether the MILP found the case feasible.
    pub feasible: bool,
    /// Whether brute force was skipped for size.
    pub brute_force_skipped: bool,
    /// Oracle violations (empty = the case passed).
    pub disagreements: Vec<Disagreement>,
}

impl CaseOutcome {
    /// `true` when every oracle agreed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Evaluates the §4.2 cost of a concrete mode assignment: `start` is the
/// mode of the start group (covering the entry block), `edge_modes[e]` the
/// mode of edge `e`'s group. Returns `(energy_uj, time_us)` including
/// regulator transition costs; this mirrors [`MilpFormulation`]'s objective
/// and deadline row term for term.
#[must_use]
pub fn schedule_cost(
    cfg: &Cfg,
    profile: &Profile,
    ladder: &VoltageLadder,
    transition: &TransitionModel,
    start: ModeId,
    edge_modes: &[ModeId],
) -> (f64, f64) {
    let mut energy = 0.0;
    let mut time = 0.0;
    for e in cfg.edges() {
        let g = profile.edge_count(e.id) as f64;
        if g == 0.0 {
            continue;
        }
        let c = profile.block_cost(e.dst, edge_modes[e.id.index()].index());
        energy += g * c.energy_uj;
        time += g * c.time_us;
    }
    let entry_runs = profile.block_count(cfg.entry()) as f64;
    let c = profile.block_cost(cfg.entry(), start.index());
    energy += entry_runs * c.energy_uj;
    time += entry_runs * c.time_us;

    let ce = transition.energy_uj(1.0, 0.0);
    let ct = transition.time_us(1.0, 0.0);
    if ce > 0.0 || ct > 0.0 {
        for (path, d) in profile.local_paths() {
            let Some(exit) = path.exit else { continue };
            if path.enter == Some(exit) {
                continue; // same variable group: never a transition
            }
            let d = d as f64;
            let v_in = match path.enter {
                Some(e) => ladder.point(edge_modes[e.index()]).voltage,
                None => ladder.point(start).voltage,
            };
            let v_out = ladder.point(edge_modes[exit.index()]).voltage;
            energy += d * ce * (v_in * v_in - v_out * v_out).abs();
            time += d * ct * (v_in - v_out).abs();
        }
    }
    (energy, time)
}

/// Result of exhaustively enumerating mode assignments.
#[derive(Debug, Clone, Copy)]
enum BruteForce {
    Skipped,
    Infeasible,
    Optimal { energy_uj: f64, time_us: f64 },
}

/// Enumerates every assignment of modes to the start group and each
/// profile-live edge (dead edges carry no cost and are fixed to mode 0),
/// keeping the cheapest one that meets the deadline.
fn brute_force(
    cfg: &Cfg,
    profile: &Profile,
    ladder: &VoltageLadder,
    transition: &TransitionModel,
    deadline_us: f64,
    limit: u64,
) -> BruteForce {
    let live: Vec<EdgeId> = cfg
        .edges()
        .filter(|e| profile.edge_count(e.id) > 0)
        .map(|e| e.id)
        .collect();
    let slots = live.len() + 1; // slot 0 is the start group
    let n_modes = ladder.len();
    let mut count: u128 = 1;
    for _ in 0..slots {
        count = count.saturating_mul(n_modes as u128);
        if count > u128::from(limit) {
            return BruteForce::Skipped;
        }
    }

    let mut assign = vec![0usize; slots];
    let mut edge_modes = vec![ModeId(0); cfg.num_edges()];
    let mut best: Option<(f64, f64)> = None;
    loop {
        for (i, &e) in live.iter().enumerate() {
            edge_modes[e.index()] = ModeId(assign[i + 1]);
        }
        let (energy, time) = schedule_cost(
            cfg,
            profile,
            ladder,
            transition,
            ModeId(assign[0]),
            &edge_modes,
        );
        if time <= deadline_us && best.is_none_or(|(b, _)| energy < b) {
            best = Some((energy, time));
        }
        // odometer
        let mut i = 0;
        loop {
            assign[i] += 1;
            if assign[i] < n_modes {
                break;
            }
            assign[i] = 0;
            i += 1;
            if i == slots {
                return match best {
                    Some((energy_uj, time_us)) => BruteForce::Optimal { energy_uj, time_us },
                    None => BruteForce::Infeasible,
                };
            }
        }
    }
}

/// Generates the case for `seed` and runs every oracle over it.
#[must_use]
pub fn run_case(seed: u64, spec: &CaseSpec, tol: &Tolerances) -> CaseOutcome {
    let mut g = Gen::from_seed(seed);
    run_generated(&mut g, spec, tol)
}

/// Replays `tape`, regenerates the case it encodes and runs every oracle —
/// the shrinker's evaluation function.
#[must_use]
pub fn run_tape(tape: &[u64], spec: &CaseSpec, tol: &Tolerances) -> CaseOutcome {
    let mut g = Gen::replay(tape.to_vec());
    run_generated(&mut g, spec, tol)
}

fn run_generated(g: &mut Gen, spec: &CaseSpec, tol: &Tolerances) -> CaseOutcome {
    let case = gen_case(g, spec);
    let mut out = CaseOutcome {
        tape: g.tape().to_vec(),
        blocks: case.cfg.num_blocks(),
        edges: case.cfg.num_edges(),
        modes: case.ladder.len(),
        deadline_us: 0.0,
        feasible: false,
        brute_force_skipped: false,
        disagreements: Vec::new(),
    };
    check_oracles(&case, tol, &mut out);
    out
}

fn check_oracles(case: &CheckCase, tol: &Tolerances, out: &mut CaseOutcome) {
    let CheckCase {
        cfg,
        trace,
        ladder,
        transition,
        deadline,
    } = case;

    // --- well-formedness: the generators must uphold their invariants ---
    if let Err(e) = cfg.check_reducible() {
        out.disagreements.push(Disagreement {
            oracle: OracleKind::WellFormed,
            detail: format!("generated CFG is irreducible: {e}"),
        });
        return;
    }

    let machine = Machine::paper_default();
    let profiler = ModeProfiler::new(machine);
    let (profile, _, fastest_run) = profiler.profile_with_fastest(cfg, trace, ladder);
    if let Err(e) = profile.validate(cfg) {
        out.disagreements.push(Disagreement {
            oracle: OracleKind::WellFormed,
            detail: format!("profile fails validation: {e}"),
        });
        return;
    }

    let fastest = ladder.len() - 1;
    let t_fast = profile.total_time_at(fastest);
    let t_slow = profile.total_time_at(0);
    let deadline_us = deadline.resolve(t_fast, t_slow);
    out.deadline_us = deadline_us;
    let feas_margin = tol.feas_rel * deadline_us.max(1.0);

    let formulation = MilpFormulation::new(cfg, &profile, ladder, transition, deadline_us);
    let milp = match formulation.solve() {
        Ok(o) => Some(o),
        Err(MilpError::Infeasible) => None,
        Err(e) => {
            out.disagreements.push(Disagreement {
                oracle: OracleKind::BruteForce,
                detail: format!("MILP solver error: {e}"),
            });
            return;
        }
    };
    out.feasible = milp.is_some();

    // --- brute force: exhaustive enumeration must agree exactly ---
    let bf = brute_force(
        cfg,
        &profile,
        ladder,
        transition,
        deadline_us,
        tol.brute_force_limit,
    );
    out.brute_force_skipped = matches!(bf, BruteForce::Skipped);
    match (&milp, bf) {
        (_, BruteForce::Skipped) => {}
        (None, BruteForce::Infeasible) => {}
        (None, BruteForce::Optimal { energy_uj, time_us }) => {
            // Only flag assignments strictly inside the deadline; razor-edge
            // feasibility may fall either way in float arithmetic.
            if time_us <= deadline_us - feas_margin {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::BruteForce,
                    detail: format!(
                        "MILP infeasible but enumeration found {energy_uj:.6} µJ \
                         in {time_us:.6} µs <= deadline {deadline_us:.6} µs"
                    ),
                });
            }
        }
        (Some(o), BruteForce::Infeasible) => {
            let (_, t_re) = schedule_cost(
                cfg,
                &profile,
                ladder,
                transition,
                o.schedule.initial,
                &o.schedule.edge_modes,
            );
            if t_re <= deadline_us + feas_margin {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::BruteForce,
                    detail: format!(
                        "enumeration says infeasible but the MILP schedule takes \
                         {t_re:.6} µs <= deadline {deadline_us:.6} µs"
                    ),
                });
            } else {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::BruteForce,
                    detail: format!(
                        "MILP claims feasible but its schedule takes {t_re:.6} µs \
                         > deadline {deadline_us:.6} µs"
                    ),
                });
            }
        }
        (Some(o), BruteForce::Optimal { energy_uj, .. }) => {
            let slack =
                tol.obj_abs_uj + tol.obj_rel * energy_uj.abs().max(o.predicted_energy_uj.abs());
            if (o.predicted_energy_uj - energy_uj).abs() > slack {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::BruteForce,
                    detail: format!(
                        "objective mismatch: MILP {:.6} µJ vs enumeration {energy_uj:.6} µJ",
                        o.predicted_energy_uj
                    ),
                });
            }
            // Independently re-evaluate the extracted schedule: it must be
            // feasible and must cost what the solver claims.
            let (e_re, t_re) = schedule_cost(
                cfg,
                &profile,
                ladder,
                transition,
                o.schedule.initial,
                &o.schedule.edge_modes,
            );
            if t_re > deadline_us + feas_margin {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::BruteForce,
                    detail: format!(
                        "extracted schedule misses the deadline: {t_re:.6} µs > {deadline_us:.6} µs"
                    ),
                });
            }
            if (e_re - o.predicted_energy_uj).abs() > slack {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::BruteForce,
                    detail: format!(
                        "extracted schedule costs {e_re:.6} µJ but the solver \
                         reported {:.6} µJ",
                        o.predicted_energy_uj
                    ),
                });
            }
        }
    }

    // --- continuous lower bounds ---
    if let Some(o) = &milp {
        match formulation.relaxation_bound() {
            Ok(bound) => {
                let slack = tol.obj_abs_uj + tol.obj_rel * o.predicted_energy_uj.abs();
                if bound > o.predicted_energy_uj + slack {
                    out.disagreements.push(Disagreement {
                        oracle: OracleKind::ContinuousLower,
                        detail: format!(
                            "LP relaxation {bound:.6} µJ exceeds the integral \
                             objective {:.6} µJ",
                            o.predicted_energy_uj
                        ),
                    });
                }
            }
            Err(MilpError::Infeasible) => {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::ContinuousLower,
                    detail: "LP relaxation infeasible although the MILP solved".into(),
                });
            }
            Err(e) => {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::ContinuousLower,
                    detail: format!("LP relaxation solver error: {e}"),
                });
            }
        }

        // §3 dominance, in the analytical model's own cycle·V² units. The
        // paper proves the continuous optimum lower-bounds any discrete
        // ladder schedule only in the compute-dominated case (its Fig. 6
        // four-frequency construction breaks dominance under memory slack).
        let params = analyze_params(&fastest_run);
        if params.is_valid() {
            let v_lo = ladder.slowest().voltage;
            let v_hi = ladder.fastest().voltage;
            let continuous = ContinuousModel::new(dvs_vf::AlphaPower::paper(), v_lo, v_hi);
            if continuous.classify(&params, deadline_us) == CaseKind::ComputeDominated {
                let discrete = DiscreteModel::new(ladder.clone());
                if let (Some(cs), Some(ds)) = (
                    continuous.optimal(&params, deadline_us),
                    discrete.optimal(&params, deadline_us),
                ) {
                    if cs.energy > ds.energy * (1.0 + 1e-9) + 1e-9 {
                        out.disagreements.push(Disagreement {
                            oracle: OracleKind::ContinuousLower,
                            detail: format!(
                                "continuous bound {:.6} exceeds discrete optimum {:.6} \
                                 (cycle·V²) on a compute-dominated case",
                                cs.energy, ds.energy
                            ),
                        });
                    }
                }
            }
        }
    }

    // --- schedule replay on the cycle-level simulator ---
    if let Some(o) = &milp {
        let machine = Machine::paper_default();
        let run = machine.run_scheduled(cfg, trace, ladder, &o.schedule, transition);
        let time_cap = deadline_us * (1.0 + tol.replay_time_rel) + tol.replay_time_abs_us;
        if run.time_us > time_cap {
            out.disagreements.push(Disagreement {
                oracle: OracleKind::SimReplay,
                detail: format!(
                    "replayed schedule takes {:.3} µs, beyond deadline {:.3} µs \
                     plus tolerance",
                    run.time_us, deadline_us
                ),
            });
        }
        // The MILP objective models processor switching + regulator energy
        // (DRAM energy is mode-invariant and excluded from both sides).
        let replayed = run.processor_energy_uj;
        let slack = tol.replay_energy_abs_uj + tol.replay_energy_rel * o.predicted_energy_uj.abs();
        if (replayed - o.predicted_energy_uj).abs() > slack {
            out.disagreements.push(Disagreement {
                oracle: OracleKind::SimReplay,
                detail: format!(
                    "replayed energy {replayed:.3} µJ vs predicted {:.3} µJ",
                    o.predicted_energy_uj
                ),
            });
        }

        // --- bytecode replay vs the cycle-level simulator ---
        // The schedule-independent bytecode must reproduce the simulator's
        // run of the very same schedule. Time and transition accounting are
        // bit-identical by construction; energy reassociates one sum, so
        // everything sits far inside the 1e-6 gate.
        let code = dvs_replay::compile(&machine, cfg, trace, ladder, transition);
        let fast = code.replay(&o.schedule);
        let fields = [
            ("time_us", fast.time_us, run.time_us),
            (
                "processor_energy_uj",
                fast.processor_energy_uj,
                run.processor_energy_uj,
            ),
            ("dram_energy_uj", fast.dram_energy_uj, run.dram_energy_uj),
            (
                "transition_energy_uj",
                fast.transition_energy_uj,
                run.transition_energy_uj,
            ),
            (
                "transition_time_us",
                fast.transition_time_us,
                run.transition_time_us,
            ),
        ];
        for (name, got, want) in fields {
            if (got - want).abs() > tol.bytecode_rel * want.abs().max(1e-9) {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::BytecodeReplay,
                    detail: format!("bytecode {name} {got:.9} vs simulator {want:.9}"),
                });
            }
        }
        if fast.transitions != run.transitions {
            out.disagreements.push(Disagreement {
                oracle: OracleKind::BytecodeReplay,
                detail: format!(
                    "bytecode performed {} transitions vs simulator {}",
                    fast.transitions, run.transitions
                ),
            });
        }
    }

    // --- static verification vs the shared evaluator ---
    if let Some(o) = &milp {
        let verify_with = |emitted: Option<&[bool]>| {
            dvs_verify::verify(&dvs_verify::VerifyInput {
                cfg,
                profile: &profile,
                ladder,
                transition,
                schedule: &o.schedule,
                emitted,
                deadline_us: Some(deadline_us),
            })
        };
        let (_, t_re) = schedule_cost(
            cfg,
            &profile,
            ladder,
            transition,
            o.schedule.initial,
            &o.schedule.edge_modes,
        );
        // Naive emission (every mode-set present) and hoisted emission
        // (silent sets elided) must both be accepted: the hoisting analysis
        // only removes sets the executed-path dataflow can prove redundant.
        let analysis = dvs_compiler::ScheduleAnalysis::new(cfg, &profile, &o.schedule);
        let mask = analysis.emitted_mask();
        for (label, report) in [
            ("naive", verify_with(None)),
            ("hoisted", verify_with(Some(&mask))),
        ] {
            for d in report.errors() {
                // A deadline error is only a lie if the shared evaluator
                // says the schedule is feasible; razor-edge cases where
                // both sit within float noise of the deadline are skipped.
                if d.code == dvs_verify::DiagCode::DeadlineModeled && t_re > deadline_us {
                    continue;
                }
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::StaticVerify,
                    detail: format!(
                        "verifier rejects the accepted {label} schedule: {}",
                        d.render()
                    ),
                });
            }
            // The verifier's modeled time implements the same §4.2 sum as
            // schedule_cost; on a fully determined schedule they must agree.
            let slack = 1e-6 * t_re.abs().max(1.0);
            if (report.modeled_time_us - t_re).abs() > slack {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::StaticVerify,
                    detail: format!(
                        "{label} modeled time {:.9} µs vs shared evaluator {t_re:.9} µs",
                        report.modeled_time_us
                    ),
                });
            }
            // WCET is a worst case over all paths: it can never undercut
            // the profiled execution it also bounds.
            if report.wcet.bound_us < report.modeled_time_us - slack {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::StaticVerify,
                    detail: format!(
                        "{label} WCET bound {:.9} µs below modeled time {:.9} µs",
                        report.wcet.bound_us, report.modeled_time_us
                    ),
                });
            }
        }

        // Mutant: the all-slow schedule, when it clearly misses the
        // deadline, must draw an error-severity diagnostic. This is the
        // cheap per-case half of the rejection contract (the ≥100-mutant
        // sweep lives in the integration tests).
        let slow = dvs_sim::EdgeSchedule::uniform(cfg, ModeId(0));
        let (_, t_slow_re) = schedule_cost(
            cfg,
            &profile,
            ladder,
            transition,
            slow.initial,
            &slow.edge_modes,
        );
        if t_slow_re > deadline_us * (1.0 + 1e-6) + 1e-3 {
            let report = dvs_verify::verify(&dvs_verify::VerifyInput {
                cfg,
                profile: &profile,
                ladder,
                transition,
                schedule: &slow,
                emitted: None,
                deadline_us: Some(deadline_us),
            });
            if report.ok() {
                out.disagreements.push(Disagreement {
                    oracle: OracleKind::StaticVerify,
                    detail: format!(
                        "verifier accepted an all-slow mutant taking {t_slow_re:.6} µs \
                         against deadline {deadline_us:.6} µs"
                    ),
                });
            }
        }
    }

    // --- certificate: the prover must convince the independent checker ---
    if milp.is_some() {
        certificate_oracle(cfg, &profile, ladder, transition, deadline_us, out);
    }
}

/// Re-solves the case with certification on and holds the result to the
/// full contract: the independent checker accepts the proof, the encoding
/// round-trips byte-stably, and every applicable [`Mutation`] of the proof
/// is rejected with its expected code.
fn certificate_oracle(
    cfg: &Cfg,
    profile: &Profile,
    ladder: &VoltageLadder,
    transition: &TransitionModel,
    deadline_us: f64,
    out: &mut CaseOutcome,
) {
    let mut fail = |detail: String| {
        out.disagreements.push(Disagreement {
            oracle: OracleKind::Certificate,
            detail,
        });
    };
    let outcome = match MilpFormulation::new(cfg, profile, ladder, transition, deadline_us)
        .with_certify(true)
        .solve()
    {
        Ok(o) => o,
        Err(e) => return fail(format!("certifying solve failed: {e}")),
    };
    let Some(cert) = &outcome.certificate else {
        return fail("certification requested but no certificate produced".into());
    };
    if let Some(r) = &cert.report.reject {
        return fail(format!(
            "checker rejected the prover's certificate: {}: {}",
            r.code, r.detail
        ));
    }
    let decoded = match dvs_cert::Certificate::decode(&cert.encoded) {
        Ok(c) => c,
        Err(e) => return fail(format!("certificate decode failed: {e}")),
    };
    if decoded.encode() != cert.encoded {
        fail("certificate encode/decode round trip is not byte-stable".into());
    }
    for m in Mutation::ALL {
        let Some(bad) = m.apply(&decoded) else {
            continue; // no site for this class (e.g. single-leaf tree)
        };
        match dvs_cert::check(&bad).reject {
            None => fail(format!("checker accepted a {} corruption", m.name())),
            Some(r) if !m.expected().contains(&r.code) => fail(format!(
                "{} corruption rejected as {} ({}), expected {:?}",
                m.name(),
                r.code,
                r.detail,
                m.expected().iter().map(|c| c.as_str()).collect::<Vec<_>>()
            )),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_case_passes_every_oracle() {
        let out = run_tape(&[], &CaseSpec::default(), &Tolerances::default());
        assert_eq!(out.blocks, 3);
        assert!(
            out.passed(),
            "zero-tape case must pass: {:?}",
            out.disagreements
        );
    }

    #[test]
    fn schedule_cost_matches_the_milp_on_a_uniform_schedule() {
        // On a feasible case, evaluating the MILP's own schedule with the
        // shared evaluator reproduces its objective.
        let spec = CaseSpec::default();
        let tol = Tolerances::default();
        for seed in 0..10 {
            let out = run_case(seed, &spec, &tol);
            assert!(out.passed(), "seed {seed}: {:?}", out.disagreements);
        }
    }

    #[test]
    fn brute_force_skips_when_too_large() {
        let spec = CaseSpec { max_blocks: 6 };
        let tol = Tolerances {
            brute_force_limit: 1,
            ..Tolerances::default()
        };
        let out = run_case(0, &spec, &tol);
        assert!(out.brute_force_skipped);
    }
}
