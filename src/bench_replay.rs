//! `dvsc bench-replay` — a pinned bytecode-replay speedup baseline.
//!
//! Runs a fixed grid of generated programs — CFG sizes × ladder shapes,
//! seeded through the `dvs-check` generators so every case is
//! reproducible from its cell description — and scores the `dvs-replay`
//! bytecode interpreter against the cycle-level simulator on the same
//! batch of schedules. The rendered result is the `BENCH_replay.json`
//! document kept at the repo root.
//!
//! Each cell evaluates the *many schedules, one trace* workload the
//! bytecode runtime is built for: `schedules` candidate schedules
//! (uniform per-mode baselines plus seeded random edge assignments) are
//! scored once by `Machine::run_scheduled` and once by
//! [`dvs_replay::ReplayBytecode::replay_batch`] over bytecode compiled
//! once per cell. Three kinds of numbers live in the report:
//!
//! * **Workload shape** (blocks, edges, trace instructions, variant and
//!   block-op counts) is deterministic.
//! * **Agreement** (`agreement_ok`, `max_rel_err`) pins the 1e-6
//!   bytecode-vs-simulator contract on every cell; also deterministic.
//! * **Wall clock and speedup** (`wall_us`, `speedup`) are measured over
//!   five paired repetitions and are machine-dependent.

use crate::bench::{at, percentile, run_grid, sum, wall_stats, REPLAY_SCHEMA};
use dvs_check::{gen_cfg, gen_trace, Gen};
use dvs_obs::json::Json;
use dvs_replay::ReplayBytecode;
use dvs_sim::{EdgeSchedule, Machine, ScheduledRun};
use dvs_vf::{ModeId, TransitionModel, VoltageLadder};
use std::time::Instant;

/// Paired sim/replay timings per cell.
const REPS: usize = 5;

/// One cell of the benchmark grid.
#[derive(Debug, Clone)]
struct Cell {
    seed: u64,
    max_blocks: usize,
    levels: usize,
    schedules: usize,
}

impl Cell {
    fn name(&self) -> String {
        format!(
            "blocks{}_levels{}_sched{}",
            self.max_blocks, self.levels, self.schedules
        )
    }
}

/// The fixed grid. Seeds are a pure function of the cell coordinates so
/// the generated program for a cell never silently changes when the grid
/// gains or loses entries.
fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for max_blocks in [10, 18, 28] {
        for lv in [2, 3, 5] {
            cells.push(Cell {
                seed: 0xb17e + 31 * max_blocks as u64 + 7 * lv as u64,
                max_blocks,
                levels: lv,
                schedules: 64,
            });
        }
    }
    cells
}

/// The candidate-schedule batch for a cell: one uniform baseline per mode
/// followed by seeded random edge assignments, `cell.schedules` in total.
fn gen_schedules(g: &mut Gen, cfg: &dvs_ir::Cfg, levels: usize, count: usize) -> Vec<EdgeSchedule> {
    let mut out = Vec::with_capacity(count);
    for m in 0..levels.min(count) {
        out.push(EdgeSchedule::uniform(cfg, ModeId(m)));
    }
    while out.len() < count {
        let initial = ModeId(g.below(levels as u64) as usize);
        let edge_modes = (0..cfg.num_edges())
            .map(|_| ModeId(g.below(levels as u64) as usize))
            .collect();
        out.push(EdgeSchedule {
            initial,
            edge_modes,
        });
    }
    out
}

fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1e-9)
}

fn max_rel_err(got: &ScheduledRun, want: &ScheduledRun) -> f64 {
    [
        rel_err(got.time_us, want.time_us),
        rel_err(got.processor_energy_uj, want.processor_energy_uj),
        rel_err(got.dram_energy_uj, want.dram_energy_uj),
        rel_err(got.transition_energy_uj, want.transition_energy_uj),
        rel_err(got.transition_time_us, want.transition_time_us),
        if got.transitions == want.transitions {
            0.0
        } else {
            f64::INFINITY
        },
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

/// Runs one cell: generate → compile (once untimed to warm up, once
/// timed) → [`REPS`] paired timings of the simulator and the batched
/// bytecode interpreter over the same schedule batch, plus a full 1e-6
/// agreement sweep on the first repetition.
fn run_cell(cell: &Cell) -> Json {
    let mut g = Gen::from_seed(cell.seed);
    let cfg = gen_cfg(&mut g, cell.max_blocks);
    let trace = gen_trace(&mut g, &cfg);
    let ladder = VoltageLadder::paper(cell.levels).expect("grid ladders have at least 2 levels");
    let transition = TransitionModel::with_capacitance_uf(0.05);
    let machine = Machine::paper_default();
    let schedules = gen_schedules(&mut g, &cfg, ladder.len(), cell.schedules);

    // The first compile in a process pays for cold caches and page
    // faults; without this one a cell's compile time depends on whether it
    // ran first on its worker.
    let compile = || dvs_replay::compile(&machine, &cfg, &trace, &ladder, &transition);
    std::hint::black_box(compile());
    let compile_start = Instant::now();
    let code: ReplayBytecode = compile();
    let compile_us = compile_start.elapsed().as_secs_f64() * 1e6;
    let stats = code.stats();

    let mut sim_walls = Vec::with_capacity(REPS);
    let mut replay_walls = Vec::with_capacity(REPS);
    let mut speedups = Vec::with_capacity(REPS);
    let mut agreement_ok = true;
    let mut worst_err = 0.0f64;
    for rep in 0..REPS {
        let t0 = Instant::now();
        let sim_runs: Vec<ScheduledRun> = schedules
            .iter()
            .map(|s| machine.run_scheduled(&cfg, &trace, &ladder, s, &transition))
            .collect();
        let sim_us = t0.elapsed().as_secs_f64() * 1e6;

        let t1 = Instant::now();
        let replay_runs = code.replay_batch(&schedules);
        let replay_us = t1.elapsed().as_secs_f64() * 1e6;

        if rep == 0 {
            for (got, want) in replay_runs.iter().zip(&sim_runs) {
                let err = max_rel_err(got, want);
                worst_err = worst_err.max(err);
                if err > 1e-6 {
                    agreement_ok = false;
                }
            }
        }
        sim_walls.push(sim_us);
        replay_walls.push(replay_us);
        speedups.push(sim_us / replay_us.max(1e-9));
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite speedups"));

    Json::obj([
        ("name", Json::from(cell.name())),
        ("seed", Json::from(cell.seed)),
        ("max_blocks", Json::from(cell.max_blocks)),
        ("blocks", Json::from(cfg.num_blocks())),
        ("edges", Json::from(cfg.num_edges())),
        ("levels", Json::from(cell.levels)),
        ("schedules", Json::from(cell.schedules)),
        ("reps", Json::from(REPS)),
        (
            "bytecode",
            Json::obj([
                ("trace_blocks", Json::from(stats.trace_blocks)),
                ("trace_insts", Json::from(stats.trace_insts)),
                ("block_ops", Json::from(stats.block_ops)),
                ("variants", Json::from(stats.variants)),
                ("variant_insts", Json::from(stats.variant_insts)),
            ]),
        ),
        ("agreement_ok", Json::from(agreement_ok)),
        (
            "max_rel_err",
            Json::from(if worst_err.is_finite() {
                worst_err
            } else {
                -1.0
            }),
        ),
        (
            "wall_us",
            Json::obj([
                ("compile", Json::from(compile_us)),
                ("sim", wall_stats(&mut sim_walls)),
                ("replay", wall_stats(&mut replay_walls)),
            ]),
        ),
        (
            "speedup",
            Json::obj([
                ("p50", Json::from(percentile(&speedups, 0.50))),
                ("min", Json::from(speedups[0])),
                ("max", Json::from(*speedups.last().expect("reps >= 1"))),
            ]),
        ),
    ])
}

/// Runs the whole grid (cells fanned out over `jobs` workers, in
/// deterministic order) and returns the `BENCH_replay.json` document.
#[must_use]
pub fn run_bench_replay(jobs: usize) -> Json {
    let cases = run_grid(grid(), jobs, run_cell);
    let total = |key: &str| Json::from(sum(&cases, &format!("bytecode.{key}")));
    let mut cell_speedups: Vec<f64> = cases
        .iter()
        .filter_map(|c| at(c, "speedup.p50").and_then(Json::as_f64))
        .collect();
    cell_speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite speedups"));
    let all_agree = cases
        .iter()
        .all(|c| c.get("agreement_ok").and_then(Json::as_bool) == Some(true));

    Json::obj([
        ("schema", Json::from(REPLAY_SCHEMA)),
        (
            "totals",
            Json::obj([
                ("cases", Json::from(cases.len())),
                ("trace_insts", total("trace_insts")),
                ("block_ops", total("block_ops")),
                ("variants", total("variants")),
                ("agreement_ok", Json::from(all_agree)),
            ]),
        ),
        (
            "speedup",
            Json::obj([
                ("median", Json::from(percentile(&cell_speedups, 0.50))),
                ("min", Json::from(percentile(&cell_speedups, 0.0))),
                ("max", Json::from(percentile(&cell_speedups, 1.0))),
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
    fn schedule_batch_covers_uniform_baselines_then_random_candidates() {
        let mut g = Gen::from_seed(9);
        let cfg = gen_cfg(&mut g, 8);
        let batch = gen_schedules(&mut g, &cfg, 3, 10);
        assert_eq!(batch.len(), 10);
        for (m, s) in batch.iter().take(3).enumerate() {
            assert_eq!(s, &EdgeSchedule::uniform(&cfg, ModeId(m)));
        }
        for s in &batch {
            assert_eq!(s.edge_modes.len(), cfg.num_edges());
        }
    }

    #[test]
    fn a_small_cell_agrees_with_the_simulator_and_strips_cleanly() {
        let cell = Cell {
            seed: 0xb17e + 31 * 10 + 7 * 3,
            max_blocks: 10,
            levels: 3,
            schedules: 6,
        };
        let case = run_cell(&cell);
        assert_eq!(case.get("agreement_ok").and_then(Json::as_bool), Some(true));
        let v = deterministic_view(&case);
        assert!(v.get("wall_us").is_none());
        assert!(v.get("speedup").is_none());
        assert!(v.get("bytecode").is_some());
    }
}
