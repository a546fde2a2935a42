//! End-to-end integration tests: the full profile → filter → MILP →
//! schedule → re-simulate pipeline over the synthetic MediaBench suite.

use compile_time_dvs::prelude::*;

fn ladder() -> VoltageLadder {
    VoltageLadder::xscale3(&AlphaPower::paper())
}

/// For every benchmark and every feasible deadline: the MILP must meet its
/// deadline (both predicted and re-simulated, with a small modelling
/// tolerance) and never use more energy than the best single mode.
#[test]
fn pipeline_meets_deadlines_and_beats_single_mode() {
    let machine = Machine::paper_default();
    for b in [
        Benchmark::GsmEncode,
        Benchmark::Ghostscript,
        Benchmark::Mpg123,
    ] {
        let cfg = b.build_cfg();
        let trace = b.trace(&cfg, &b.default_input());
        let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
        let compiler = DvsCompiler::builder(
            machine.clone(),
            ladder(),
            TransitionModel::with_capacitance_uf(0.05),
        )
        .build()
        .expect("valid compiler settings");
        let (profile, _) = compiler.profile(&cfg, &trace);
        for i in 1..=5usize {
            let deadline = scheme.deadline_us(i);
            let Ok(res) = compiler.compile_and_validate(&cfg, &trace, &profile, deadline) else {
                // D1 can be genuinely tight; other deadlines must be
                // feasible by construction.
                assert_eq!(i, 1, "{}: D{i} unexpectedly infeasible", b.name());
                continue;
            };
            assert!(
                res.milp.predicted_time_us <= deadline * (1.0 + 1e-9),
                "{} D{i}: predicted time {} over deadline {deadline}",
                b.name(),
                res.milp.predicted_time_us
            );
            let v = res.validated.expect("validated");
            assert!(
                v.time_us <= deadline * 1.06,
                "{} D{i}: measured {} over deadline {deadline}",
                b.name(),
                v.time_us
            );
            if let Some((_, _, e_single)) = res.single_mode {
                assert!(
                    res.milp.predicted_energy_uj <= e_single * (1.0 + 1e-9),
                    "{} D{i}: MILP {} worse than single mode {e_single}",
                    b.name(),
                    res.milp.predicted_energy_uj
                );
            }
        }
    }
}

/// MILP predictions must agree with simulator measurements within a modest
/// modelling tolerance: the prediction uses per-block averages while the
/// re-execution replays the exact trace.
#[test]
fn milp_predictions_track_resimulation() {
    let machine = Machine::paper_default();
    let b = Benchmark::GsmEncode;
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
    let compiler = DvsCompiler::builder(
        machine.clone(),
        ladder(),
        TransitionModel::with_capacitance_uf(0.05),
    )
    .build()
    .expect("valid compiler settings");
    let (profile, _) = compiler.profile(&cfg, &trace);
    for i in 2..=5usize {
        let res = compiler
            .compile_and_validate(&cfg, &trace, &profile, scheme.deadline_us(i))
            .expect("feasible");
        let v = res.validated.expect("validated");
        let dt = (v.time_us - res.milp.predicted_time_us).abs() / v.time_us;
        assert!(dt < 0.08, "D{i}: time prediction off by {:.1}%", dt * 100.0);
        let de =
            (v.processor_energy_uj - res.milp.predicted_energy_uj).abs() / v.processor_energy_uj;
        assert!(
            de < 0.08,
            "D{i}: energy prediction off by {:.1}%",
            de * 100.0
        );
    }
}

/// The paper's §6.5 claim: the analytical bound (which ignores switching
/// costs) generally dominates the MILP-achieved savings. We allow the
/// paper's own observed exception margin.
#[test]
fn analytical_bound_dominates_milp_savings() {
    let machine = Machine::paper_default();
    for b in [Benchmark::GsmEncode, Benchmark::MpegDecode] {
        let cfg = b.build_cfg();
        let trace = b.trace(&cfg, &b.default_input());
        let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
        let compiler = DvsCompiler::builder(
            machine.clone(),
            ladder(),
            TransitionModel::with_capacitance_uf(0.05),
        )
        .build()
        .expect("valid compiler settings");
        let (profile, _, fastest) =
            ModeProfiler::new(machine.clone()).profile_with_fastest(&cfg, &trace, &ladder());
        let params = analyze_params(&fastest);
        let model = DiscreteModel::new(ladder());
        for i in 2..=5usize {
            let d = scheme.deadline_us(i);
            let bound = model.savings(&params, d);
            let milp = compiler
                .compile(&cfg, &profile, d)
                .ok()
                .and_then(|r| r.savings_vs_single());
            if let (Some(bound), Some(milp)) = (bound, milp) {
                assert!(
                    milp <= bound + 0.05,
                    "{} D{i}: milp {milp:.3} far above bound {bound:.3}",
                    b.name()
                );
            }
        }
    }
}

/// Validated transition counts must match the schedule analysis's
/// profile-based prediction exactly when validating on the profiled input.
#[test]
fn predicted_transitions_match_measured() {
    let machine = Machine::paper_default();
    let b = Benchmark::Mpg123;
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
    let compiler = DvsCompiler::builder(
        machine.clone(),
        ladder(),
        TransitionModel::with_capacitance_uf(0.01),
    )
    .build()
    .expect("valid compiler settings");
    let (profile, _) = compiler.profile(&cfg, &trace);
    for i in [4usize, 5] {
        let res = compiler
            .compile_and_validate(&cfg, &trace, &profile, scheme.deadline_us(i))
            .expect("feasible");
        let v = res.validated.expect("validated");
        assert_eq!(
            res.analysis.predicted_dynamic_transitions(),
            v.transitions,
            "D{i}: predicted vs measured transitions"
        );
    }
}

/// Filtering must not break deadlines and must not change energy by more
/// than a fraction of a percent (the paper's Table 3).
#[test]
fn filtering_preserves_quality() {
    use compile_time_dvs::compiler::EdgeFilter;
    let machine = Machine::paper_default();
    let b = Benchmark::GsmEncode;
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
    let l = ladder();
    let tm = TransitionModel::with_capacitance_uf(0.05);
    let compiler = DvsCompiler::builder(machine, l.clone(), tm)
        .build()
        .expect("valid compiler settings");
    let (profile, _) = compiler.profile(&cfg, &trace);
    let d = scheme.deadline_us(2);
    let tm = TransitionModel::with_capacitance_uf(0.05);
    let all = MilpFormulation::new(&cfg, &profile, &l, &tm, d)
        .with_filter(EdgeFilter::identity(&cfg))
        .solve()
        .expect("feasible");
    let filt = EdgeFilter::tail_rule(&cfg, &profile, l.len() - 1, 0.02);
    assert!(
        filt.num_independent() < cfg.num_edges(),
        "filter should tie something"
    );
    let sub = MilpFormulation::new(&cfg, &profile, &l, &tm, d)
        .with_filter(filt)
        .solve()
        .expect("feasible");
    assert!(sub.predicted_time_us <= d * (1.0 + 1e-9));
    let delta = (sub.predicted_energy_uj - all.predicted_energy_uj) / all.predicted_energy_uj;
    assert!(
        delta.abs() < 0.02,
        "filtering changed energy by {:.2}%",
        delta * 100.0
    );
    assert!(delta >= -1e-9, "filtering cannot improve the optimum");
}
