//! `dvsc bench-solver` — a pinned MILP solver performance baseline.
//!
//! Runs a fixed grid of generated solver cases — CFG sizes × ladder
//! shapes × deadline tightnesses × solver backends, seeded through the
//! `dvs-check` generators so every case is reproducible from its cell
//! description — and renders the result as the `BENCH_solver.json`
//! document kept at the repo root.
//!
//! Every coordinate runs twice: a `bnb` cell (branch-and-bound on the
//! full transition-cost formulation — these keep the historical cell
//! names) and a `_continuous` sibling (the exact continuous-voltage
//! backend on the transition-free formulation). Continuous cells also
//! record `continuous_objective` next to `bnb_relaxation_objective` so
//! [`crate::bench::check_report`] can assert the two backends agree on
//! continuous-ladder relaxations to 1e-6.
//!
//! Search-work counters ([`dvs_milp::SolveStats`]: nodes, pruned nodes,
//! simplex pivots, presolve reductions, the incumbent trajectory, the
//! final MIP gap) are deterministic; the wall-clock percentiles
//! (`wall_us`, over `reps` repeated solves) are not (see [`crate::bench`]).
//!
//! Every cell additionally runs one *certifying* solve: `certificate_bytes`
//! records the size of the canonical `dvs-cert.v1` proof (deterministic)
//! and `cert_check_us` the independent checker's wall time (noise). A cell
//! whose certificate the checker rejects renders as an error cell, which
//! [`crate::bench::check_report`] refuses.

use crate::bench::{run_grid, sum, wall_stats, SOLVER_SCHEMA};
use dvs_check::{gen_cfg, gen_trace, DeadlineSpec, Gen};
use dvs_compiler::{MilpFormulation, SolverChoice};
use dvs_obs::json::Json;
use dvs_sim::{Machine, ModeProfiler};
use dvs_vf::{TransitionModel, VoltageLadder};

/// Timed solves per cell; counters come from the first.
const REPS: usize = 5;

/// One cell of the benchmark grid.
#[derive(Debug, Clone)]
struct Cell {
    seed: u64,
    max_blocks: usize,
    levels: usize,
    deadline_frac: f64,
    backend: SolverChoice,
}

impl Cell {
    fn name(&self) -> String {
        let base = format!(
            "blocks{}_levels{}_frac{:02}",
            self.max_blocks,
            self.levels,
            (self.deadline_frac * 100.0).round() as u64
        );
        match self.backend {
            SolverChoice::Continuous => format!("{base}_continuous"),
            _ => base,
        }
    }
}

/// The fixed grid. Seeds are a pure function of the cell coordinates so
/// the generated CFG for a cell never silently changes when the grid
/// gains or loses entries.
fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for max_blocks in [10, 18, 28] {
        for lv in [2, 3, 4] {
            for frac in [0.15, 0.4, 0.9] {
                // Each coordinate appears twice: once for the
                // branch-and-bound backend on the full transition-cost
                // formulation (these keep the historical cell names, so
                // they diff against older baselines), and once for the
                // exact continuous-voltage backend on the transition-free
                // formulation it can solve in closed form.
                for backend in [SolverChoice::BranchAndBound, SolverChoice::Continuous] {
                    cells.push(Cell {
                        seed: 0x5eed + 31 * max_blocks as u64 + 7 * lv as u64,
                        max_blocks,
                        levels: lv,
                        deadline_frac: frac,
                        backend,
                    });
                }
            }
        }
    }
    cells
}

/// A cell that could not be measured; `check_report` refuses it.
fn error_case(cell: &Cell, msg: String) -> Json {
    Json::obj([
        ("name", Json::from(cell.name())),
        ("seed", Json::from(cell.seed)),
        ("error", Json::from(msg)),
    ])
}

/// Runs one cell: generate → profile → solve [`REPS`] times. Counters come
/// from the first repetition (they are identical across repetitions —
/// the solver is deterministic); wall clock is
/// aggregated over all of them.
fn run_cell(cell: &Cell) -> Json {
    let mut g = Gen::from_seed(cell.seed);
    let cfg = gen_cfg(&mut g, cell.max_blocks);
    let trace = gen_trace(&mut g, &cfg);
    let ladder = VoltageLadder::paper(cell.levels).expect("grid ladders have at least 2 levels");
    // Continuous cells drop regulator transition costs: the exact
    // continuous-voltage backend is defined on pure voltage-ladder models,
    // and the transition-free formulation is exactly that shape.
    let transition = match cell.backend {
        SolverChoice::Continuous => TransitionModel::free(),
        _ => TransitionModel::with_capacitance_uf(0.05),
    };
    let profiler = ModeProfiler::new(Machine::paper_default());
    let (profile, _) = profiler.profile(&cfg, &trace, &ladder);
    let t_fast = profile.total_time_at(ladder.len() - 1);
    let t_slow = profile.total_time_at(0);
    let deadline_us = DeadlineSpec::SpanFraction(cell.deadline_frac).resolve(t_fast, t_slow);
    let formulation = MilpFormulation::new(&cfg, &profile, &ladder, &transition, deadline_us)
        .with_solver(cell.backend);

    let mut walls = Vec::with_capacity(REPS);
    let mut first = None;
    for _ in 0..REPS {
        match formulation.solve() {
            Ok(out) => {
                walls.push(out.solve_time.as_secs_f64() * 1e6);
                if first.is_none() {
                    first = Some(out);
                }
            }
            Err(e) => return error_case(cell, e.to_string()),
        }
    }
    let out = first.expect("REPS >= 1");

    // Continuous cells carry a cross-check pair: the exact closed-form
    // continuous optimum next to the branch-and-bound LP relaxation of the
    // same model. `check_report` asserts they agree to 1e-6 —
    // this is the machine-checked form of the "the continuous algorithm
    // matches B&B on continuous ladders" contract.
    let extras: Vec<(String, Json)> = if cell.backend == SolverChoice::Continuous {
        let exact = formulation.relaxation_bound_via(SolverChoice::Continuous);
        let lp = formulation.relaxation_bound_via(SolverChoice::BranchAndBound);
        match (exact, lp) {
            (Ok(exact), Ok(lp)) => vec![
                ("continuous_objective".to_string(), Json::from(exact)),
                ("bnb_relaxation_objective".to_string(), Json::from(lp)),
            ],
            (Err(e), _) | (_, Err(e)) => return error_case(cell, e.to_string()),
        }
    } else {
        Vec::new()
    };

    // Every cell must certify: one certifying solve feeds the certificate
    // columns. The encoded size is deterministic (the proof depends only
    // on the model and the answer, never on thread count or wall clock)
    // and pinned by the committed baseline; the independent checker's
    // wall time is noise. A rejected or missing certificate is an error
    // cell.
    let formulation = formulation.with_certify(true);
    let (certificate_bytes, cert_check_us) = match formulation.solve() {
        Ok(certified) => match certified.certificate {
            Some(c) if c.report.ok() => (c.encoded.len(), c.check_us),
            Some(c) => {
                let r = c.report.reject.expect("not ok implies reject");
                return error_case(
                    cell,
                    format!("certificate rejected: {}: {}", r.code, r.detail),
                );
            }
            None => return error_case(cell, "certification produced no certificate".into()),
        },
        Err(e) => return error_case(cell, format!("certifying solve failed: {e}")),
    };

    let s = &out.solve_stats;
    let mut case = Json::obj([
        ("name", Json::from(cell.name())),
        ("backend", Json::from(cell.backend.as_str())),
        ("seed", Json::from(cell.seed)),
        ("max_blocks", Json::from(cell.max_blocks)),
        ("blocks", Json::from(cfg.num_blocks())),
        ("edges", Json::from(cfg.num_edges())),
        ("levels", Json::from(cell.levels)),
        ("deadline_frac", Json::from(cell.deadline_frac)),
        ("binary_vars", Json::from(out.binary_vars)),
        ("constraints", Json::from(out.constraints)),
        ("predicted_energy_uj", Json::from(out.predicted_energy_uj)),
        ("certificate_bytes", Json::from(certificate_bytes)),
        ("cert_check_us", Json::from(cert_check_us)),
        ("reps", Json::from(REPS)),
        ("wall_us", wall_stats(&mut walls)),
        (
            "stats",
            Json::obj([
                ("nodes", Json::from(s.nodes)),
                ("nodes_pruned", Json::from(s.nodes_pruned)),
                ("lp_iterations", Json::from(s.lp_iterations)),
                ("pivots", Json::from(s.pivots)),
                ("dual_pivots", Json::from(s.dual_pivots)),
                ("degenerate_pivots", Json::from(s.degenerate_pivots)),
                ("bound_flips", Json::from(s.bound_flips)),
                ("refactorizations", Json::from(s.refactorizations)),
                ("presolve_rows_removed", Json::from(s.presolve_rows_removed)),
                (
                    "presolve_bounds_tightened",
                    Json::from(s.presolve_bounds_tightened),
                ),
                (
                    "mip_gap",
                    Json::from(if s.mip_gap.is_finite() {
                        s.mip_gap
                    } else {
                        -1.0
                    }),
                ),
                (
                    "incumbents",
                    Json::Arr(
                        s.incumbents
                            .iter()
                            .map(|i| {
                                Json::obj([
                                    ("node", Json::from(i.node)),
                                    ("objective", Json::from(i.objective)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    if let Json::Obj(members) = &mut case {
        members.extend(extras);
    }
    case
}

/// Runs the whole grid (cells fanned out over `jobs` workers, in
/// deterministic order) and returns the `BENCH_solver.json` document.
#[must_use]
pub fn run_bench_solver(jobs: usize) -> Json {
    let cases = run_grid(grid(), jobs, run_cell);
    let total = |path: &str| Json::from(sum(&cases, path));
    Json::obj([
        ("schema", Json::from(SOLVER_SCHEMA)),
        (
            "totals",
            Json::obj([
                ("cases", Json::from(cases.len())),
                ("nodes", total("stats.nodes")),
                ("lp_iterations", total("stats.lp_iterations")),
                ("pivots", total("stats.pivots")),
                ("certificate_bytes", total("certificate_bytes")),
            ]),
        ),
        ("cases", Json::Arr(cases)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::deterministic_view;

    #[test]
    fn every_bnb_cell_has_a_continuous_sibling_with_the_same_seed() {
        let cells = grid();
        let bnb: Vec<_> = cells
            .iter()
            .filter(|c| c.backend == SolverChoice::BranchAndBound)
            .collect();
        assert_eq!(bnb.len() * 2, cells.len());
        for b in bnb {
            let sibling = cells
                .iter()
                .find(|c| c.name() == format!("{}_continuous", b.name()))
                .expect("continuous sibling exists");
            assert_eq!(sibling.seed, b.seed);
            assert_eq!(sibling.deadline_frac, b.deadline_frac);
        }
    }

    #[test]
    fn deterministic_view_strips_wall_clock_only() {
        let j = Json::obj([
            ("stats", Json::obj([("nodes", Json::from(3usize))])),
            ("certificate_bytes", Json::from(1234usize)),
            ("cert_check_us", Json::from(56.7)),
            ("wall_us", Json::obj([("p50", Json::from(1.5))])),
        ]);
        let v = deterministic_view(&j);
        assert!(v.get("wall_us").is_none());
        assert!(v.get("cert_check_us").is_none());
        assert_eq!(
            v.get("certificate_bytes").and_then(Json::as_u64),
            Some(1234)
        );
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("nodes"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }
}
