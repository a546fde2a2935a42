//! Hand-computed checks of the MILP formulation on a tiny profile where
//! the optimum is known in closed form.

use crate::{EdgeFilter, Granularity, MilpFormulation};
use dvs_ir::{BlockModeCost, Cfg, CfgBuilder, Profile, ProfileBuilder};
use dvs_vf::{AlphaPower, ModeId, TransitionModel, VoltageLadder};

/// Chain entry -> a -> b -> exit, executed once; hand-set costs.
///
/// Block a: 10 µs / 1 µJ at slow, 5 µs / 4 µJ at fast.
/// Block b: 20 µs / 2 µJ at slow, 10 µs / 8 µJ at fast.
/// Entry/exit are free.
fn setup() -> (Cfg, Profile) {
    let mut bld = CfgBuilder::new("hand");
    let e = bld.block("entry");
    let a = bld.block("a");
    let b = bld.block("b");
    let x = bld.block("exit");
    bld.edge(e, a);
    bld.edge(a, b);
    bld.edge(b, x);
    let cfg = bld.finish(e, x).expect("valid");
    let mut pb = ProfileBuilder::new(&cfg, 2);
    assert!(pb.record_walk(&cfg, &[e, a, b, x]));
    pb.set_block_cost(
        a,
        0,
        BlockModeCost {
            time_us: 10.0,
            energy_uj: 1.0,
        },
    );
    pb.set_block_cost(
        a,
        1,
        BlockModeCost {
            time_us: 5.0,
            energy_uj: 4.0,
        },
    );
    pb.set_block_cost(
        b,
        0,
        BlockModeCost {
            time_us: 20.0,
            energy_uj: 2.0,
        },
    );
    pb.set_block_cost(
        b,
        1,
        BlockModeCost {
            time_us: 10.0,
            energy_uj: 8.0,
        },
    );
    for blk in [e, x] {
        for m in 0..2 {
            pb.set_block_cost(
                blk,
                m,
                BlockModeCost {
                    time_us: 0.0,
                    energy_uj: 0.0,
                },
            );
        }
    }
    (cfg, pb.finish())
}

fn two_level_ladder() -> VoltageLadder {
    // Voltages 1 V and 2 V: SE per switch = (1-u)·c·|1-4| = 0.1c·3,
    // ST = 2c·1.
    VoltageLadder::from_points(vec![
        dvs_vf::OperatingPoint::new(1.0, 100.0),
        dvs_vf::OperatingPoint::new(2.0, 400.0),
    ])
    .expect("valid ladder")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_transitions_pick_the_obvious_optimum() {
        let (cfg, profile) = setup();
        let ladder = two_level_ladder();
        let free = TransitionModel::free();
        // Deadline 25 µs: all-slow takes 30, all-fast takes 15.
        // Candidates: a slow + b fast = 10 + 10 = 20 µs, 1 + 8 = 9 µJ;
        //             a fast + b slow = 5 + 20 = 25 µs, 4 + 2 = 6 µJ. <- best
        let out = MilpFormulation::new(&cfg, &profile, &ladder, &free, 25.0)
            .solve()
            .expect("feasible");
        assert!(
            (out.predicted_energy_uj - 6.0).abs() < 1e-6,
            "E = {}",
            out.predicted_energy_uj
        );
        assert!((out.predicted_time_us - 25.0).abs() < 1e-6);
        let a = cfg.block_by_label("a").expect("a");
        let b = cfg.block_by_label("b").expect("b");
        let e_a = cfg.in_edges(a).next().expect("edge into a");
        let e_b = cfg.in_edges(b).next().expect("edge into b");
        assert_eq!(out.schedule.edge_modes[e_a.index()], ModeId(1), "a fast");
        assert_eq!(out.schedule.edge_modes[e_b.index()], ModeId(0), "b slow");
    }

    #[test]
    fn transition_cost_tips_the_balance() {
        let (cfg, profile) = setup();
        let ladder = two_level_ladder();
        // With a fast->slow switch between a and b (and an initial set to
        // fast), the a-fast/b-slow plan pays 2 switches' time and energy.
        // Make transitions expensive enough that the all-fast plan
        // (15 µs, 12 µJ, zero transitions) wins over
        // a-fast/b-slow (6 µJ + 2·SE, 25 µs + ST...). With c = 25 µF:
        // SE = 0.1·25·3 = 7.5 µJ per switch -> 6 + 7.5 = 13.5 µJ (one
        // switch fast->slow after a; initial set silent at fast) and
        // ST = 50 µs blows the deadline anyway. All-fast is optimal.
        let tm = TransitionModel::new(25.0, 0.9, 1.0).expect("valid");
        let out = MilpFormulation::new(&cfg, &profile, &ladder, &tm, 25.0)
            .solve()
            .expect("feasible");
        assert!(
            (out.predicted_energy_uj - 12.0).abs() < 1e-6,
            "expected all-fast 12 µJ, got {}",
            out.predicted_energy_uj
        );
        assert_eq!(out.predicted_transition_energy_uj, 0.0);
    }

    #[test]
    fn block_granularity_matches_edge_granularity_on_chains() {
        // On a chain every block has one incoming edge, so both
        // granularities describe the same space.
        let (cfg, profile) = setup();
        let ladder = two_level_ladder();
        let free = TransitionModel::free();
        let edge = MilpFormulation::new(&cfg, &profile, &ladder, &free, 25.0)
            .solve()
            .expect("feasible");
        let block = MilpFormulation::new(&cfg, &profile, &ladder, &free, 25.0)
            .with_granularity(Granularity::Block)
            .solve()
            .expect("feasible");
        assert!((edge.predicted_energy_uj - block.predicted_energy_uj).abs() < 1e-9);
    }

    #[test]
    fn filter_that_ties_everything_still_meets_deadline() {
        let (cfg, profile) = setup();
        let ladder = two_level_ladder();
        let free = TransitionModel::free();
        // Tie every tieable edge (tail fraction > 1).
        let filter = EdgeFilter::tail_rule(&cfg, &profile, 1, 2.0);
        let out = MilpFormulation::new(&cfg, &profile, &ladder, &free, 25.0)
            .with_filter(filter)
            .solve()
            .expect("feasible");
        // With all edges tied to the entry chain, only uniform schedules
        // remain: all-fast (15 µs / 12 µJ) is the single feasible one.
        assert!(out.predicted_time_us <= 25.0 + 1e-9);
        assert!(
            out.predicted_energy_uj >= 6.0,
            "cannot beat the unfiltered optimum"
        );
    }

    #[test]
    fn relaxation_lower_bounds_the_integral_objective() {
        let (cfg, profile) = setup();
        let ladder = two_level_ladder();
        let free = TransitionModel::free();
        for deadline in [15.0, 20.0, 25.0, 30.0] {
            let f = MilpFormulation::new(&cfg, &profile, &ladder, &free, deadline);
            let integral = f.solve().expect("feasible").predicted_energy_uj;
            let bound = f.relaxation_bound().expect("relaxation feasible");
            assert!(
                bound <= integral + 1e-6,
                "D={deadline}: relaxation {bound} must lower-bound MILP {integral}"
            );
        }
    }

    #[test]
    fn relaxation_gap_is_strict_off_the_frontier() {
        // One hot block, slow 10 µs / 1 µJ vs fast 5 µs / 10 µJ, deadline
        // 7.5 µs: the integral model must run it fast (10 µJ) while the
        // fractional mixture splits 50/50 (5.5 µJ) — a strict gap.
        let mut bld = CfgBuilder::new("gap");
        let e = bld.block("entry");
        let a = bld.block("a");
        let x = bld.block("exit");
        bld.edge(e, a);
        bld.edge(a, x);
        let cfg = bld.finish(e, x).expect("valid");
        let mut pb = ProfileBuilder::new(&cfg, 2);
        assert!(pb.record_walk(&cfg, &[e, a, x]));
        pb.set_block_cost(
            a,
            0,
            BlockModeCost {
                time_us: 10.0,
                energy_uj: 1.0,
            },
        );
        pb.set_block_cost(
            a,
            1,
            BlockModeCost {
                time_us: 5.0,
                energy_uj: 10.0,
            },
        );
        for blk in [e, x] {
            for m in 0..2 {
                pb.set_block_cost(
                    blk,
                    m,
                    BlockModeCost {
                        time_us: 0.0,
                        energy_uj: 0.0,
                    },
                );
            }
        }
        let profile = pb.finish();
        let ladder = two_level_ladder();
        let free = TransitionModel::free();
        let f = MilpFormulation::new(&cfg, &profile, &ladder, &free, 7.5);
        let integral = f.solve().expect("feasible").predicted_energy_uj;
        assert!((integral - 10.0).abs() < 1e-6, "integral = {integral}");
        let bound = f.relaxation_bound().expect("feasible");
        assert!((bound - 5.5).abs() < 1e-6, "bound = {bound}");
    }

    #[test]
    fn relaxation_matches_integral_infeasibility() {
        let (cfg, profile) = setup();
        let ladder = two_level_ladder();
        let free = TransitionModel::free();
        let f = MilpFormulation::new(&cfg, &profile, &ladder, &free, 10.0);
        assert!(matches!(f.solve(), Err(dvs_milp::MilpError::Infeasible)));
        assert!(matches!(
            f.relaxation_bound(),
            Err(dvs_milp::MilpError::Infeasible)
        ));
    }

    #[test]
    fn infeasible_deadline_errors() {
        let (cfg, profile) = setup();
        let ladder = two_level_ladder();
        let free = TransitionModel::free();
        let err = MilpFormulation::new(&cfg, &profile, &ladder, &free, 10.0)
            .solve()
            .unwrap_err();
        assert!(matches!(err, dvs_milp::MilpError::Infeasible));
    }

    #[test]
    fn xscale_ladder_on_same_profile() {
        // Sanity: a 3-level ladder on the same profile (costs only defined
        // for 2 modes would break, so rebuild with 3).
        let mut bld = CfgBuilder::new("hand3");
        let e = bld.block("entry");
        let a = bld.block("a");
        let x = bld.block("exit");
        bld.edge(e, a);
        bld.edge(a, x);
        let cfg = bld.finish(e, x).expect("valid");
        let mut pb = ProfileBuilder::new(&cfg, 3);
        assert!(pb.record_walk(&cfg, &[e, a, x]));
        for (m, t, en) in [(0usize, 40.0, 4.9), (1, 13.3, 16.9), (2, 10.0, 27.2)] {
            pb.set_block_cost(
                a,
                m,
                BlockModeCost {
                    time_us: t,
                    energy_uj: en,
                },
            );
        }
        for blk in [e, x] {
            for m in 0..3 {
                pb.set_block_cost(
                    blk,
                    m,
                    BlockModeCost {
                        time_us: 0.0,
                        energy_uj: 0.0,
                    },
                );
            }
        }
        let profile = pb.finish();
        let ladder = VoltageLadder::xscale3(&AlphaPower::paper());
        let free = TransitionModel::free();
        // Deadline exactly the slow time: all-slow optimal.
        let out = MilpFormulation::new(&cfg, &profile, &ladder, &free, 40.0)
            .solve()
            .expect("feasible");
        assert!((out.predicted_energy_uj - 4.9).abs() < 1e-9);
    }
}
