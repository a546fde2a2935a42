//! Manual benchmarks for the MILP layer: the DVS formulation with and
//! without edge filtering (the performance claim behind the paper's
//! Fig. 14), plus a raw branch-and-bound microbenchmark.
//!
//! Run with `cargo bench -p dvs-bench --bench milp_solver`.

use dvs_bench::timing::bench;
use dvs_compiler::{DeadlineScheme, EdgeFilter, MilpFormulation};
use dvs_milp::{solve, LinExpr, Model, Sense, SolveOptions};
use dvs_sim::{Machine, ModeProfiler};
use dvs_vf::{AlphaPower, TransitionModel, VoltageLadder};
use dvs_workloads::Benchmark;

fn main() {
    let b = Benchmark::MpegDecode;
    let cfg = b.build_cfg();
    let mut input = b.default_input();
    input.iterations = 8;
    let trace = b.trace(&cfg, &input);
    let machine = Machine::paper_default();
    let ladder = VoltageLadder::xscale3(&AlphaPower::paper());
    let (profile, _) =
        ModeProfiler::new(machine.clone()).profile_unclassified(&cfg, &trace, &ladder);
    let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
    let deadline = scheme.deadline_us(2);
    let tm = TransitionModel::with_capacitance_uf(0.03);

    println!("dvs_milp");
    let m = bench("mpeg_all_edges", 10, 1, || {
        MilpFormulation::new(&cfg, &profile, &ladder, &tm, deadline)
            .with_filter(EdgeFilter::identity(&cfg))
            .solve()
            .expect("feasible")
    });
    println!("  {}", m.render());
    let m = bench("mpeg_filtered", 10, 1, || {
        let filt = EdgeFilter::tail_rule(&cfg, &profile, ladder.len() - 1, 0.02);
        MilpFormulation::new(&cfg, &profile, &ladder, &tm, deadline)
            .with_filter(filt)
            .solve()
            .expect("feasible")
    });
    println!("  {}", m.render());

    let m = bench("milp_assignment_6x6", 10, 5, || {
        // 6x6 assignment with deterministic pseudo-random costs.
        let mut m = Model::new(Sense::Minimize);
        let mut obj = LinExpr::zero();
        let mut vars = vec![vec![]; 6];
        let mut seed = 0x5EEDu64;
        for (w, row) in vars.iter_mut().enumerate() {
            for t in 0..6 {
                let v = m.bool_var(format!("x{w}{t}"));
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                obj += ((seed >> 59) as f64 + 1.0) * v;
                row.push(v);
            }
        }
        m.set_objective(obj);
        for row in &vars {
            let mut s = LinExpr::zero();
            for &v in row {
                s += LinExpr::from(v);
            }
            m.add_eq(s, 1.0);
            m.add_sos1(row.clone());
        }
        for t in 0..6 {
            let mut s = LinExpr::zero();
            for row in &vars {
                s += LinExpr::from(row[t]);
            }
            m.add_eq(s, 1.0);
        }
        solve(&m, &SolveOptions::default()).expect("assignment solvable")
    });
    println!("  {}", m.render());
}
