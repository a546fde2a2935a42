//! Op lists. Every list is a pure function of `(workload, seed, rounds)`.
//!
//! A run executes whole *rounds*. Each round holds the same multiset of
//! cost classes (benchmark, input, ladder, deadline class, op) and only the
//! order and the seeded draws inside a class change with the seed, so the
//! end-to-end figures of two seeds measure the same amount of work.

use dvs_serve::{SolveOp, SolveRequest};
use dvs_workloads::{Benchmark, Lcg};

/// The ladders the in-process workloads sweep.
pub const LADDERS: [usize; 3] = [3, 7, 13];

/// The daemon's default regulator capacitance (µF), used by every cell
/// that mirrors a daemon request.
pub const SERVE_CAP_UF: f64 = 0.05;

/// Regulator capacitances (µF) the solve sweep spreads its cells over.
pub const SWEEP_CAPS_UF: [f64; 4] = [0.01, 0.05, 0.25, 1.0];

/// Solve-sweep cells per (benchmark, ladder) profile in one round.
const SWEEP_CELLS_PER_PROFILE: usize = 8;

/// The solve sweep draws deadlines over `[t_fast, t_slow]`; this keeps the
/// tightest draw a hair above the all-fastest runtime.
const SWEEP_MIN_FRACTION: f64 = 0.005;

/// Cold-compile deadline classes: a (benchmark, ladder) group with `n`
/// inputs runs each input twice, and its `2n` ops take the first `2n`
/// classes of this cycle (skipping classes no input of the group can
/// meet), so every group covers D1–D5 every round.
const COLD_DEADLINE_CYCLE: [usize; 8] = [1, 2, 3, 4, 5, 3, 2, 4];

/// Daemon-mix: capacitance step (µF) between passes. Each pass stands for
/// a new build configuration, so its keys start cold while the cache still
/// holds the previous pass's results. Assumed, like the rest of the mix:
/// no request log of the daemon exists to measure it from.
pub const PASS_CAP_STEP_UF: f64 = 1e-4;

/// Daemon-mix requests per benchmark per pass, by op: fixed repeat counts
/// per key, an assumed stand-in for build-tool traffic rather than a
/// measured or drawn popularity distribution. Compile is the most repeated
/// request, as in `dvs_serve::loadtest`'s compile-only mix; the ratios are
/// a choice, not a measurement. Certify runs on 3-level passes only.
const PASS_MIX: [(SolveOp, usize); 4] = [
    (SolveOp::Compile, 8),
    (SolveOp::Evaluate, 3),
    (SolveOp::Verify, 2),
    (SolveOp::Certify, 2),
];

/// A deadline: a Fig. 16 index or a fraction of `[t_fast, t_slow]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deadline {
    /// `DeadlineScheme` index, 1..=5.
    Index(usize),
    /// `t_fast + f·(t_slow − t_fast)` of the cell's own ladder.
    Fraction(f64),
}

/// One in-process compile: which program, input, ladder, deadline and
/// regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Index into `Benchmark::all()`.
    pub bench: usize,
    /// Index into the benchmark's `inputs()` (0 is the default input).
    pub input: usize,
    /// Voltage-ladder levels.
    pub levels: usize,
    /// The deadline.
    pub deadline: Deadline,
    /// Regulator capacitance, µF.
    pub cap_uf: f64,
}

impl Cell {
    /// A hashable identity: equal keys must compile to equal results.
    pub fn key(&self) -> (usize, usize, usize, u64, u64) {
        let d = match self.deadline {
            Deadline::Index(i) => i as u64,
            Deadline::Fraction(f) => f.to_bits(),
        };
        (
            self.bench,
            self.input,
            self.levels,
            d,
            self.cap_uf.to_bits(),
        )
    }

    /// The benchmark.
    pub fn benchmark(&self) -> Benchmark {
        Benchmark::all()[self.bench]
    }
}

fn round_rng(seed: u64, round: usize) -> Lcg {
    Lcg::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round as u64 + 1))
}

fn shuffle<T>(v: &mut [T], rng: &mut Lcg) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Cold-compile cells left out because their validated schedule misses the
/// deadline by more than `pass.rs`'s 5% tolerance at this commit (the
/// MILP's profile-based time prediction undershoots the simulator there):
/// `(benchmark, input, levels, deadline index)`.
pub const VALIDATION_MISSES: [(&str, &str, usize, usize); 17] = [
    ("mpeg/decode", "100b.m2v", 3, 5),
    ("mpeg/decode", "100b.m2v", 7, 4),
    ("mpeg/decode", "100b.m2v", 13, 4),
    ("mpeg/decode", "100b.m2v", 13, 5),
    ("mpeg/decode", "bbc.m2v", 3, 5),
    ("mpeg/decode", "bbc.m2v", 13, 5),
    ("mpeg/decode", "flwr.m2v", 7, 4),
    ("mpeg/decode", "flwr.m2v", 13, 4),
    ("mpeg/decode", "flwr.m2v", 13, 5),
    ("mpeg/decode", "cact.m2v", 3, 4),
    ("mpeg/decode", "cact.m2v", 7, 4),
    ("mpeg/decode", "cact.m2v", 13, 4),
    ("mpeg/decode", "cact.m2v", 13, 5),
    ("ghostscript", "tiger.ps", 7, 5),
    ("ghostscript", "tiger.ps", 13, 5),
    ("ghostscript", "tiger.ps.small", 13, 5),
    ("ghostscript", "tiger.ps.complex", 13, 5),
];

fn validation_miss(b: Benchmark, input: &str, levels: usize, d: usize) -> bool {
    VALIDATION_MISSES.contains(&(b.name(), input, levels, d))
}

/// `rounds` rounds of cold-compile cells: every (benchmark, input, ladder)
/// twice per round, and each (benchmark, ladder) group over every deadline
/// class that some input of it can meet (see [`VALIDATION_MISSES`]).
pub fn cold_compile(seed: u64, rounds: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for r in 0..rounds {
        let rng = &mut round_rng(seed, r);
        let mut round = Vec::new();
        for (bench, b) in Benchmark::all().into_iter().enumerate() {
            let inputs: Vec<String> = b.inputs().into_iter().map(|i| i.name).collect();
            for levels in LADDERS {
                let allowed = |d: usize| -> Vec<usize> {
                    (0..inputs.len())
                        .filter(|&i| !validation_miss(b, &inputs[i], levels, d))
                        .collect()
                };
                let mut classes: Vec<usize> = COLD_DEADLINE_CYCLE
                    .iter()
                    .copied()
                    .filter(|&d| !allowed(d).is_empty())
                    .cycle()
                    .take(2 * inputs.len())
                    .collect();
                // Place the most constrained classes first; each input
                // takes two ops.
                shuffle(&mut classes, rng);
                classes.sort_by_key(|&d| allowed(d).len());
                let mut free = vec![2usize; inputs.len()];
                for d in classes {
                    let open: Vec<usize> =
                        allowed(d).into_iter().filter(|&i| free[i] > 0).collect();
                    let input = open[rng.below(open.len() as u64) as usize];
                    free[input] -= 1;
                    round.push(Cell {
                        bench,
                        input,
                        levels,
                        deadline: Deadline::Index(d),
                        cap_uf: SERVE_CAP_UF,
                    });
                }
            }
        }
        shuffle(&mut round, rng);
        out.extend(round);
    }
    out
}

/// `rounds` rounds of solve-sweep cells: per (benchmark, ladder) profile,
/// deadlines stratified over `[t_fast, t_slow]` and capacitances spread
/// evenly over [`SWEEP_CAPS_UF`].
///
/// The deadlines and capacitances are drawn from the round index alone and
/// the seed only orders each round. Solve cost is heavy-tailed in the
/// deadline: the slowest 1% of ops, all `mpeg` on 13 levels, take a
/// quarter to half of a run's time, and a nearby deadline can cost a third
/// as much. A seeded draw moved `ops_per_s` by a fifth between seeds.
pub fn solve_sweep(seed: u64, rounds: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for r in 0..rounds {
        let draws = &mut round_rng(0, r);
        let mut round = Vec::new();
        for bench in 0..Benchmark::all().len() {
            for levels in LADDERS {
                let cap_offset = draws.below(SWEEP_CAPS_UF.len() as u64) as usize;
                for j in 0..SWEEP_CELLS_PER_PROFILE {
                    let stratum = (j as f64 + draws.unit()) / SWEEP_CELLS_PER_PROFILE as f64;
                    round.push(Cell {
                        bench,
                        input: 0,
                        levels,
                        deadline: Deadline::Fraction(
                            SWEEP_MIN_FRACTION + (1.0 - SWEEP_MIN_FRACTION) * stratum,
                        ),
                        cap_uf: SWEEP_CAPS_UF[(j + cap_offset) % SWEEP_CAPS_UF.len()],
                    });
                }
            }
        }
        shuffle(&mut round, &mut round_rng(seed, r));
        out.extend(round);
    }
    out
}

/// Certify-sweep cells in one round: six benchmarks × D1–D5 on 3 levels,
/// plus the six 7-level D5 cells.
pub const CERTIFY_CELLS: usize = 6 * 5 + 6;

/// `rounds` rounds of certify-sweep cells: each benchmark's default input
/// at D1–D5 on the 3-level ladder plus its 7-level D5 cell
/// ([`CERTIFY_CELLS`] cells), in a seeded order.
pub fn certify_sweep(seed: u64, rounds: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for r in 0..rounds {
        let rng = &mut round_rng(seed, r);
        let mut round = Vec::new();
        for bench in 0..Benchmark::all().len() {
            let cell = |levels, d| Cell {
                bench,
                input: 0,
                levels,
                deadline: Deadline::Index(d),
                cap_uf: SERVE_CAP_UF,
            };
            round.extend((1..=5).map(|d| cell(3, d)));
            round.push(cell(7, 5));
        }
        shuffle(&mut round, rng);
        out.extend(round);
    }
    out
}

/// The deadline index a daemon-mix pass uses for `bench` on `levels`:
/// fixed, so every seed carries the same schedule-quality cells, and
/// spread so each ladder covers D1–D5 across the six benchmarks while
/// avoiding the [`VALIDATION_MISSES`] of the default inputs.
fn pass_deadline(bench: usize, levels: usize) -> usize {
    (bench + if levels == 3 { 0 } else { 3 }) % 5 + 1
}

/// `passes` passes of the daemon-mix request stream. In pass `p` each
/// benchmark runs on one ladder (alternating 3/7 levels between passes),
/// so a round is two passes. The order within a pass is seeded.
pub fn daemon_mix(seed: u64, passes: usize) -> Vec<SolveRequest> {
    let mut out = Vec::new();
    for p in 0..passes {
        let rng = &mut round_rng(seed, p);
        let cap_uf = SERVE_CAP_UF + PASS_CAP_STEP_UF * p as f64;
        let mut pass = Vec::new();
        for (bench, b) in Benchmark::all().into_iter().enumerate() {
            let levels = if (bench + p) % 2 == 0 { 3 } else { 7 };
            for (op, count) in PASS_MIX {
                if op == SolveOp::Certify && levels != 3 {
                    continue;
                }
                let req = SolveRequest {
                    op,
                    benchmark: b.name().to_string(),
                    deadline_index: pass_deadline(bench, levels),
                    levels,
                    capacitance_uf: cap_uf,
                    solver: "auto".to_string(),
                    timeout_ms: None,
                    trace_id: None,
                };
                pass.extend(std::iter::repeat_n(req, count));
            }
        }
        shuffle(&mut pass, rng);
        out.extend(pass);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_are_pure_functions_of_workload_and_seed() {
        assert_eq!(cold_compile(7, 1), cold_compile(7, 1));
        assert_ne!(cold_compile(7, 1), cold_compile(8, 1));
        assert_eq!(solve_sweep(7, 2), solve_sweep(7, 2));
        assert_ne!(solve_sweep(7, 2), solve_sweep(8, 2));
        assert_eq!(certify_sweep(7, 3), certify_sweep(7, 3));
        assert_ne!(certify_sweep(7, 3), certify_sweep(8, 3));
        assert_eq!(daemon_mix(7, 2), daemon_mix(7, 2));
        assert_ne!(daemon_mix(7, 2), daemon_mix(8, 2));
    }

    #[test]
    fn rounds_hold_the_same_cost_classes_for_every_seed() {
        // Cold compile: each (benchmark, input, ladder) twice, and each
        // (benchmark, ladder) group covers all five deadline classes.
        let classes = |cells: &[Cell]| {
            let mut v: Vec<_> = cells.iter().map(|c| (c.bench, c.input, c.levels)).collect();
            v.sort_unstable();
            v
        };
        let (a, b) = (cold_compile(1, 1), cold_compile(2, 1));
        assert_eq!(a.len(), 114);
        assert_eq!(classes(&a), classes(&b));
        for bench in [0, 1, 4] {
            for levels in LADDERS {
                let mut ds: Vec<usize> = a
                    .iter()
                    .filter(|c| c.bench == bench && c.levels == levels)
                    .map(|c| match c.deadline {
                        Deadline::Index(d) => d,
                        Deadline::Fraction(_) => unreachable!(),
                    })
                    .collect();
                ds.sort_unstable();
                ds.dedup();
                let lost = if (bench, levels) == (1, 13) || (bench, levels) == (4, 13) {
                    1
                } else {
                    0
                };
                assert_eq!(ds.len(), 5 - lost, "bench {bench} levels {levels}");
            }
        }
        // Certify sweep: the same 36 cells in another order.
        let mut c1: Vec<_> = certify_sweep(1, 1).iter().map(Cell::key).collect();
        let mut c2: Vec<_> = certify_sweep(2, 1).iter().map(Cell::key).collect();
        c1.sort_unstable();
        c2.sort_unstable();
        assert_eq!((c1.len(), c1), (CERTIFY_CELLS, c2));
        // Solve sweep: one stratum per cell and an even capacitance spread.
        let s = solve_sweep(3, 1);
        assert_eq!(s.len(), 6 * 3 * SWEEP_CELLS_PER_PROFILE);
        for cap in SWEEP_CAPS_UF {
            assert_eq!(s.iter().filter(|c| c.cap_uf == cap).count(), s.len() / 4);
        }
        // Daemon mix: the same requests in another order.
        let keys = |seed| {
            let mut v: Vec<String> = daemon_mix(seed, 2)
                .iter()
                .map(|r| r.to_json().dump())
                .collect();
            v.sort();
            v
        };
        assert_eq!(keys(1), keys(2));
        assert_eq!(keys(1).len(), 168);
    }

    #[test]
    fn no_op_draws_a_cell_that_misses_validation() {
        for seed in 0..200 {
            for c in cold_compile(seed, 1) {
                let b = c.benchmark();
                let input = b.inputs().swap_remove(c.input).name;
                let Deadline::Index(d) = c.deadline else {
                    unreachable!()
                };
                assert!(!validation_miss(b, &input, c.levels, d), "{c:?}");
            }
        }
        for r in daemon_mix(1, 2).iter().filter(|r| r.op == SolveOp::Compile) {
            let b = Benchmark::all()
                .into_iter()
                .find(|b| b.name() == r.benchmark)
                .unwrap();
            let input = b.default_input().name;
            assert!(
                !validation_miss(b, &input, r.levels, r.deadline_index),
                "{r:?}"
            );
        }
    }
}
