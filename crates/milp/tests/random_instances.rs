//! Randomized tests: the simplex and branch-and-bound against brute force.
//!
//! * For random small **binary** programs, enumerate all 2^n assignments and
//!   check the MILP solver finds exactly the best feasible one.
//! * For random small **LPs over boxes**, sample many feasible points and
//!   verify none beats the simplex optimum, and that the simplex solution
//!   satisfies every constraint.
//!
//! Instances come from a fixed-seed SplitMix64 generator so failures
//! reproduce exactly; each test sweeps the same instance counts the old
//! property-testing setup used.

use dvs_milp::{solve, LinExpr, MilpError, Model, Sense, SolveOptions};

/// SplitMix64: tiny, seedable, and statistically fine for test-case
/// generation.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi)`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform f64 in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Enumerates all binary assignments, returning the best feasible objective.
fn brute_force_binary(
    n: usize,
    obj: &[f64],
    cons: &[(Vec<f64>, f64)], // (coeffs, rhs) meaning coeffs . x <= rhs
) -> Option<f64> {
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let x: Vec<f64> = (0..n).map(|i| f64::from((mask >> i) & 1)).collect();
        let feasible = cons
            .iter()
            .all(|(a, b)| a.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>() <= b + 1e-9);
        if feasible {
            let v: f64 = obj.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = Some(best.map_or(v, |b: f64| b.max(v)));
        }
    }
    best
}

#[test]
fn binary_milp_matches_brute_force() {
    let mut rng = Rng(0xD5_5EED_0001);
    for case in 0..64 {
        let n = rng.int(2, 8) as usize;
        let obj: Vec<f64> = (0..n).map(|_| rng.int(-10, 10) as f64).collect();
        let num_cons = rng.int(1, 4) as usize;
        let cons: Vec<(Vec<f64>, f64)> = (0..num_cons)
            .map(|_| {
                let a: Vec<f64> = (0..n).map(|_| rng.int(-5, 6) as f64).collect();
                (a, rng.int(0, 20) as f64)
            })
            .collect();

        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..n).map(|i| m.bool_var(format!("x{i}"))).collect();
        let mut e = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            e += obj[i] * x;
        }
        m.set_objective(e);
        for (a, b) in &cons {
            let mut lhs = LinExpr::zero();
            for (i, &x) in xs.iter().enumerate() {
                lhs += a[i] * x;
            }
            m.add_le(lhs, *b);
        }

        let expected = brute_force_binary(n, &obj, &cons);
        match (solve(&m, &SolveOptions::default()), expected) {
            (Ok(sol), Some(best)) => {
                assert!(
                    (sol.objective - best).abs() < 1e-6,
                    "case {case}: solver {} vs brute force {}",
                    sol.objective,
                    best
                );
                // Returned assignment must itself be feasible and binary.
                for &x in &xs {
                    let v = sol.value(x);
                    assert!((v - v.round()).abs() < 1e-6, "case {case}: non-binary {v}");
                }
                for (a, b) in &cons {
                    let lhs: f64 = xs
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| a[i] * sol.value(x))
                        .sum();
                    assert!(lhs <= b + 1e-6, "case {case}: violated constraint");
                }
            }
            (Err(MilpError::Infeasible), None) => {}
            (got, want) => panic!(
                "case {case}: solver {:?} vs brute force {:?}",
                got.map(|s| s.objective),
                want
            ),
        }
    }
}

#[test]
fn lp_optimum_dominates_random_feasible_points() {
    let mut rng = Rng(0xD5_5EED_0002);
    for case in 0..64 {
        // Constraints use non-negative coefficients so x=0 is always
        // feasible and the instance is never infeasible; the box [0, 10]^n
        // keeps it bounded.
        let n = rng.int(2, 6) as usize;
        let obj: Vec<f64> = (0..n).map(|_| rng.int(-10, 10) as f64).collect();
        let num_cons = rng.int(1, 4) as usize;
        let cons: Vec<(Vec<f64>, f64)> = (0..num_cons)
            .map(|_| {
                let a: Vec<f64> = (0..n).map(|_| rng.int(0, 6) as f64).collect();
                (a, rng.int(1, 30) as f64)
            })
            .collect();

        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..n)
            .map(|i| m.num_var(format!("x{i}"), 0.0, 10.0))
            .collect();
        let mut e = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            e += obj[i] * x;
        }
        m.set_objective(e);
        for (a, b) in &cons {
            let mut lhs = LinExpr::zero();
            for (i, &x) in xs.iter().enumerate() {
                lhs += a[i] * x;
            }
            m.add_le(lhs, *b);
        }
        let sol = solve(&m, &SolveOptions::default()).unwrap();

        // The solver's point is feasible.
        for (a, b) in &cons {
            let lhs: f64 = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| a[i] * sol.value(x))
                .sum();
            assert!(lhs <= b + 1e-6, "case {case}: infeasible optimum");
        }
        for &x in &xs {
            let v = sol.value(x);
            assert!(
                (-1e-9..=10.0 + 1e-9).contains(&v),
                "case {case}: out of box {v}"
            );
        }

        // No sampled feasible point beats it. Scale samples into the box and
        // reject infeasible ones.
        for _ in 0..20 {
            let x: Vec<f64> = (0..n).map(|_| rng.unit() * 10.0).collect();
            let feasible = cons
                .iter()
                .all(|(a, b)| a.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>() <= *b);
            if feasible {
                let v: f64 = obj.iter().zip(&x).map(|(c, v)| c * v).sum();
                assert!(
                    v <= sol.objective + 1e-6,
                    "case {case}: sample {v} beats optimum {}",
                    sol.objective
                );
            }
        }
    }
}

/// SOS1 group branching finds the brute-force optimum of random
/// assignment-like instances: three groups of three binaries, one pick per
/// group, and a side constraint coupling the groups.
#[test]
fn sos1_branching_matches_brute_force() {
    let mut rng = Rng(0xD5_5EED_0003);
    for case in 0..48 {
        let costs: Vec<f64> = (0..9).map(|_| rng.int(0, 12) as f64).collect();
        let cap = rng.int(1, 4) as f64;

        let mut m = Model::new(Sense::Minimize);
        let mut vars = vec![vec![]; 3];
        let mut obj = LinExpr::zero();
        for g in 0..3 {
            for i in 0..3 {
                let v = m.bool_var(format!("x{g}{i}"));
                obj += costs[g * 3 + i] * v;
                vars[g].push(v);
            }
            let mut sum = LinExpr::zero();
            for &v in &vars[g] {
                sum += LinExpr::from(v);
            }
            m.add_eq(sum, 1.0);
            m.add_sos1(vars[g].clone());
        }
        // A side constraint coupling the groups so the LP relaxation is
        // usually fractional: at most `cap` of the "column 0" picks.
        let mut col0 = LinExpr::zero();
        for group in &vars {
            col0 += LinExpr::from(group[0]);
        }
        m.add_le(col0, cap);
        m.set_objective(obj);

        // Brute force: the 27 one-pick-per-group assignments under the cap
        // (`cap >= 1`, so picking column 1 everywhere is always feasible).
        let best = (0..27usize)
            .map(|code| [code % 3, code / 3 % 3, code / 9])
            .filter(|picks| picks.iter().filter(|&&p| p == 0).count() as f64 <= cap)
            .map(|picks| (0..3).map(|g| costs[g * 3 + picks[g]]).sum::<f64>())
            .fold(f64::INFINITY, f64::min);

        let sol = solve(&m, &SolveOptions::default())
            .unwrap_or_else(|e| panic!("case {case}: feasible instance failed: {e}"));
        assert!(
            (sol.objective - best).abs() < 1e-6,
            "case {case}: solver {} vs brute force {best}",
            sol.objective
        );
        // The returned point is itself an assignment under the cap.
        let mut zeros = 0;
        for group in &vars {
            let picks: Vec<i64> = group.iter().map(|&v| sol.int_value(v)).collect();
            assert_eq!(picks.iter().sum::<i64>(), 1, "case {case}: {picks:?}");
            zeros += picks[0];
        }
        assert!(zeros as f64 <= cap, "case {case}: cap violated");
    }
}

/// Presolve on/off agree on the optimum.
#[test]
fn presolve_preserves_milp_optimum() {
    let mut rng = Rng(0xD5_5EED_0004);
    for case in 0..48 {
        let n = 6;
        let obj_raw: Vec<f64> = (0..n).map(|_| rng.int(-8, 8) as f64).collect();
        let rhs = rng.int(2, 16) as f64;

        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..n).map(|i| m.bool_var(format!("x{i}"))).collect();
        let mut obj = LinExpr::zero();
        let mut w = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            obj += obj_raw[i] * x;
            w += ((i % 3 + 1) as f64) * x;
        }
        m.set_objective(obj);
        m.add_le(w, rhs);
        let with = solve(
            &m,
            &SolveOptions {
                presolve: true,
                ..SolveOptions::default()
            },
        )
        .expect("feasible: all-zero works");
        let without = solve(
            &m,
            &SolveOptions {
                presolve: false,
                ..SolveOptions::default()
            },
        )
        .expect("feasible");
        assert!(
            (with.objective - without.objective).abs() < 1e-6,
            "case {case}: presolve {} vs raw {}",
            with.objective,
            without.objective
        );
    }
}

/// Basis reuse is a pure acceleration: warm-starting every node from its
/// parent's basis must leave the optimum bit-identical to fresh solves,
/// and over a batch of assignment-like instances the dual simplex must
/// actually do the restarting work (dual pivots observed, never more
/// simplex iterations in total than solving every node from scratch).
#[test]
fn basis_reuse_preserves_optimum_and_saves_pivots() {
    let mut rng = Rng(0xD5_5EED_0005);
    let mut branched = 0usize;
    let mut warm_iters = 0u64;
    let mut cold_iters = 0u64;
    let mut dual_pivots = 0u64;
    for case in 0..48 {
        // Mode selection per group plus a tight "deadline" knapsack over
        // random per-mode times — the DVS shape, with fractional data so
        // the LP relaxation usually branches.
        let mut m = Model::new(Sense::Minimize);
        let mut obj = LinExpr::zero();
        let mut time = LinExpr::zero();
        let mut min_t = 0.0;
        let mut max_t = 0.0;
        for g in 0..4 {
            let mut group = Vec::new();
            let mut fastest: f64 = f64::INFINITY;
            let mut slowest: f64 = 0.0;
            for i in 0..3 {
                let v = m.bool_var(format!("x{g}{i}"));
                let energy = rng.unit() * 10.0;
                let t = rng.unit() * 10.0;
                obj += energy * v;
                time += t * v;
                fastest = fastest.min(t);
                slowest = slowest.max(t);
                group.push(v);
            }
            min_t += fastest;
            max_t += slowest;
            let mut sum = LinExpr::zero();
            for &v in &group {
                sum += LinExpr::from(v);
            }
            m.add_eq(sum, 1.0);
        }
        m.add_le(time, min_t + 0.35 * (max_t - min_t));
        m.set_objective(obj);

        let warm = solve(
            &m,
            &SolveOptions {
                reuse_basis: true,
                ..SolveOptions::default()
            },
        )
        .expect("all-fastest assignment is feasible");
        let cold = solve(
            &m,
            &SolveOptions {
                reuse_basis: false,
                ..SolveOptions::default()
            },
        )
        .expect("all-fastest assignment is feasible");
        assert_eq!(
            warm.objective.to_bits(),
            cold.objective.to_bits(),
            "case {case}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        if warm.stats.nodes > 1 {
            branched += 1;
        }
        warm_iters += warm.stats.lp_iterations as u64;
        cold_iters += cold.stats.lp_iterations as u64;
        dual_pivots += warm.stats.dual_pivots as u64;
    }
    assert!(
        branched >= 10,
        "batch too easy to exercise warm starts ({branched} branched)"
    );
    assert!(
        dual_pivots > 0,
        "warm starts never engaged the dual simplex across the batch"
    );
    assert!(
        warm_iters < cold_iters,
        "basis reuse must save iterations over the batch: warm {warm_iters} vs cold {cold_iters}"
    );
}
