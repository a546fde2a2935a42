//! The §4.3 multi-category model: seeded two-category cases pinned by
//! digest, a one-category model checked against the §4.2 formulation, and
//! `DvsCompiler::compile_multi`'s input checks.

use compile_time_dvs::check::{gen_cfg, gen_deadline, gen_ladder, gen_trace, gen_transition, Gen};
use compile_time_dvs::compiler::fingerprint::Fnv64;
use compile_time_dvs::compiler::{
    CategoryProfile, DvsCompiler, EdgeFilter, MilpFormulation, MultiCategory, MultiOutcome,
    PassError,
};
use compile_time_dvs::milp::MilpError;
use compile_time_dvs::prelude::*;

/// Seeds of the pinned two-category cases.
const SEEDS: std::ops::Range<u64> = 0..300;

/// Digest of every outcome below (two categories, then the same CFG's first
/// category alone), recorded before the §4.3 model shared the §4.2
/// assembly. A change that means to alter the model pastes the digest the
/// failure prints.
const OUTCOME_DIGEST: u64 = 0x118a_5004_f540_93a4;

fn hash_outcome(h: &mut Fnv64, outcome: &Result<MultiOutcome, MilpError>) {
    match outcome {
        Ok(o) => {
            h.write_u64(0);
            h.write_usize(o.schedule.initial.index());
            for m in &o.schedule.edge_modes {
                h.write_usize(m.index());
            }
            h.write_f64(o.predicted_energy_uj);
            for &t in &o.predicted_times_us {
                h.write_f64(t);
            }
        }
        Err(e) => {
            h.write_u64(1);
            h.write_str(&e.to_string());
        }
    }
}

/// Asserts that a feasible outcome meets every category's deadline.
fn assert_meets_deadlines(seed: u64, outcome: &MultiOutcome, categories: &[CategoryProfile]) {
    for (g, (t, cat)) in outcome
        .predicted_times_us
        .iter()
        .zip(categories)
        .enumerate()
    {
        assert!(
            *t <= cat.deadline_us + 1e-6 + 1e-9 * cat.deadline_us,
            "seed {seed}: category {g} predicted {t} µs over its deadline {} µs",
            cat.deadline_us
        );
    }
}

/// Over generated programs with two inputs each, the two-category model's
/// outcomes (or errors) reproduce the pinned digest bit for bit; every
/// feasible outcome meets both deadlines; and one category alone reaches
/// the §4.2 formulation's optimum, with the same feasibility verdict. Odd
/// seeds tie edges through a tail filter from the heavier category.
#[test]
fn two_category_cases_match_their_digest_and_the_single_category_model() {
    let machine = Machine::paper_default();
    let profiler = ModeProfiler::new(machine);
    let mut h = Fnv64::new();
    let (mut feasible, mut infeasible) = (0, 0);
    for seed in SEEDS {
        let mut g = Gen::from_seed(seed);
        let cfg = gen_cfg(&mut g, 6);
        let traces = [gen_trace(&mut g, &cfg), gen_trace(&mut g, &cfg)];
        let ladder = gen_ladder(&mut g);
        let transition = gen_transition(&mut g);
        let specs = [gen_deadline(&mut g), gen_deadline(&mut g)];
        let weight = 0.1 + 0.8 * g.unit();
        let fastest = ladder.len() - 1;
        let categories: Vec<CategoryProfile> = traces
            .iter()
            .zip(specs)
            .zip([weight, 1.0 - weight])
            .map(|((trace, spec), weight)| {
                let (profile, _) = profiler.profile_unclassified(&cfg, trace, &ladder);
                let deadline_us =
                    spec.resolve(profile.total_time_at(fastest), profile.total_time_at(0));
                CategoryProfile {
                    weight,
                    profile,
                    deadline_us,
                }
            })
            .collect();
        let filter = if seed % 2 == 1 {
            let heavier = &categories[usize::from(weight < 0.5)].profile;
            EdgeFilter::tail_rule(&cfg, heavier, fastest, 0.3)
        } else {
            EdgeFilter::identity(&cfg)
        };

        let two = MultiCategory::new(&cfg, &categories, &ladder, &transition)
            .with_filter(filter.clone())
            .solve();
        hash_outcome(&mut h, &two);
        match &two {
            Ok(o) => {
                feasible += 1;
                assert_meets_deadlines(seed, o, &categories);
            }
            Err(MilpError::Infeasible) => infeasible += 1,
            Err(e) => panic!("seed {seed}: two-category solve failed: {e}"),
        }

        let first = CategoryProfile {
            weight: 1.0,
            ..categories[0].clone()
        };
        let one = MultiCategory::new(&cfg, std::slice::from_ref(&first), &ladder, &transition)
            .with_filter(filter.clone())
            .solve();
        hash_outcome(&mut h, &one);
        let single = MilpFormulation::new(
            &cfg,
            &first.profile,
            &ladder,
            &transition,
            first.deadline_us,
        )
        .with_filter(filter)
        .solve();
        match (&one, &single) {
            (Ok(o), Ok(s)) => {
                assert_meets_deadlines(seed, o, std::slice::from_ref(&first));
                let e = s.predicted_energy_uj;
                assert!(
                    (o.predicted_energy_uj - e).abs() <= 1e-6 + 1e-9 * e.abs(),
                    "seed {seed}: one category reaches {} µJ, the §4.2 model {e} µJ",
                    o.predicted_energy_uj
                );
            }
            (Err(MilpError::Infeasible), Err(MilpError::Infeasible)) => {}
            (o, s) => panic!(
                "seed {seed}: one category gives {:?}, the §4.2 model {:?}",
                o.as_ref().map(|o| o.predicted_energy_uj),
                s.as_ref().map(|s| s.predicted_energy_uj)
            ),
        }
    }
    assert!(
        feasible > 0 && infeasible > 0,
        "the seeds must reach both verdicts (feasible {feasible}, infeasible {infeasible})"
    );
    let digest = h.finish();
    assert_eq!(
        digest, OUTCOME_DIGEST,
        "the §4.3 outcomes changed: new digest {digest:#018x}"
    );
}

/// A loop program small enough to profile in microseconds.
fn loop_program() -> (Cfg, Trace) {
    let mut b = CfgBuilder::new("loop");
    let e = b.block("entry");
    let body = b.block("body");
    let x = b.block("exit");
    b.push(body, Inst::load(Reg(1), Reg(10), MemWidth::B4));
    for _ in 0..4 {
        b.push(body, Inst::alu(Opcode::IntAlu, Reg(2), &[Reg(2)]));
    }
    b.push(body, Inst::branch(Reg(2)));
    b.edge(e, body);
    b.edge(body, body);
    b.edge(body, x);
    let cfg = b.finish(e, x).expect("valid cfg");
    let mut tb = TraceBuilder::new(&cfg);
    tb.step(cfg.entry(), vec![]);
    for i in 0..40u64 {
        tb.step(body, vec![0x10_0000 + i * 4096]);
    }
    tb.step(cfg.exit(), vec![]);
    let trace = tb.finish().expect("valid trace");
    (cfg, trace)
}

fn compiler(levels: usize) -> DvsCompiler {
    let ladder = VoltageLadder::paper(levels).expect("paper ladder");
    DvsCompiler::builder(
        Machine::paper_default(),
        ladder,
        TransitionModel::with_capacitance_uf(0.01),
    )
    .build()
    .expect("valid compiler")
}

/// `compile_multi` checks every category as `compile` checks its one
/// input: a profile with the wrong number of modes is a profile error, and a
/// deadline or weight that is not finite (or a negative weight) is a
/// formulation error, never a panic or a NaN result.
#[test]
fn compile_multi_rejects_malformed_categories() {
    let (cfg, trace) = loop_program();
    let c3 = compiler(3);
    let (profile, runs) = c3.profile(&cfg, &trace);
    let deadline_us = runs[0].total_time_us;
    let good = CategoryProfile {
        weight: 0.5,
        profile,
        deadline_us,
    };
    let traces = [&trace, &trace];
    let run = |c: &DvsCompiler, bad: CategoryProfile| {
        c.compile_multi(&cfg, &[good.clone(), bad], &traces)
    };

    match run(&compiler(7), good.clone()) {
        Err(PassError::Profile(_)) => {}
        other => panic!("3-mode profile on 7 levels: {:?}", other.map(|_| ())),
    }
    for deadline_us in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        let bad = CategoryProfile {
            deadline_us,
            ..good.clone()
        };
        match run(&c3, bad) {
            Err(PassError::Formulate(_)) => {}
            other => panic!("deadline {deadline_us}: {:?}", other.map(|_| ())),
        }
    }
    for weight in [f64::NAN, f64::INFINITY, -0.5] {
        let bad = CategoryProfile {
            weight,
            ..good.clone()
        };
        match run(&c3, bad) {
            Err(PassError::Formulate(_)) => {}
            other => panic!("weight {weight}: {:?}", other.map(|_| ())),
        }
    }
    let (outcome, measured) = run(&c3, good.clone()).expect("the slowest mode meets it");
    assert_eq!(measured.len(), 2);
    assert!(outcome
        .predicted_times_us
        .iter()
        .all(|&t| t <= deadline_us + 1e-6));
}
