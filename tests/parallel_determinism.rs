//! The parallel runtime must be invisible in the results: running the
//! experiment harness or `compile_grid` with `--jobs 4` has to produce
//! byte-identical reports and identical chosen schedules to `--jobs 1`.
//! (Timing-column experiments like fig18 are excluded — wall-clock varies
//! run to run even sequentially.) It must be invisible in the metrics too:
//! a profile's timing passes, spread over threads, count in the caller's
//! `dvs_obs` domain.

use compile_time_dvs::obs;
use compile_time_dvs::prelude::*;
use dvs_bench::{run_experiment, scaled_capacitance_uf, Context};

/// Grid experiments whose cells fan out under `--jobs`: every cell value is
/// a pure function of the (deterministic) profile, so parallelism may not
/// change a single byte of the CSV.
const DETERMINISTIC_GRIDS: &[&str] = &["table1", "fig17", "table5"];

#[test]
fn repro_reports_are_byte_identical_across_jobs() {
    let seq = Context::with_jobs(1);
    let par = Context::with_jobs(4);
    for id in DETERMINISTIC_GRIDS {
        let a = run_experiment(&seq, id).expect("known id");
        let b = run_experiment(&par, id).expect("known id");
        assert_eq!(
            a.to_csv(),
            b.to_csv(),
            "{id}: --jobs 4 changed the report bytes"
        );
        assert_eq!(a.render(), b.render(), "{id}: rendered text diverged");
    }
}

#[test]
fn compile_grid_is_deterministic_across_jobs() {
    let b = Benchmark::Ghostscript;
    let ctx = Context::new();
    let (profile, _) = ctx.profile_of(b, 3);
    let bd = ctx.bench(b);
    let cap = scaled_capacitance_uf(b, bd.scheme.t_slow_us);
    let deadlines: Vec<f64> = (1..=5).map(|i| bd.scheme.deadline_us(i)).collect();

    let grid = |jobs: usize| {
        let comp = DvsCompiler::builder(
            ctx.machine.clone(),
            VoltageLadder::xscale3(&AlphaPower::paper()),
            TransitionModel::with_capacitance_uf(cap),
        )
        .jobs(jobs)
        .build()
        .expect("valid settings");
        comp.compile_grid(&bd.cfg, &profile, &deadlines)
    };

    let seq = grid(1);
    let par = grid(4);
    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        match (s, p) {
            (Ok(s), Ok(p)) => {
                assert_eq!(
                    s.milp.schedule,
                    p.milp.schedule,
                    "D{}: chosen schedule differs between jobs=1 and jobs=4",
                    i + 1
                );
                assert_eq!(
                    s.milp.predicted_energy_uj.to_bits(),
                    p.milp.predicted_energy_uj.to_bits(),
                    "D{}: objective differs bit-for-bit",
                    i + 1
                );
            }
            (Err(se), Err(pe)) => assert_eq!(se.to_string(), pe.to_string()),
            _ => panic!("D{}: feasibility differs between jobs=1 and jobs=4", i + 1),
        }
    }
}

#[test]
fn profile_timing_passes_count_in_the_callers_domain() {
    let b = Benchmark::Ghostscript;
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let compiler = DvsCompiler::builder(
        Machine::paper_default(),
        VoltageLadder::paper(13).expect("13 levels"),
        TransitionModel::free(),
    )
    .build()
    .expect("valid settings");
    // A fresh domain: the other tests in this binary may record while
    // this one runs, but never into it.
    obs::enable();
    let domain = obs::register_domain("profile-passes");
    {
        let _domain = obs::enter_domain(domain);
        let _ = compiler.profile(&cfg, &trace);
    }
    obs::disable();
    let m = obs::MetricsSnapshot::capture_domain(domain);
    let run_spans = m.spans.iter().find(|s| s.name == "sim.run");
    assert_eq!(m.counter("sim.walks"), 1, "one walk of the hierarchy");
    assert_eq!(m.counter("sim.runs"), 13, "one timed run per mode");
    assert_eq!(
        run_spans.map_or(0, |s| s.count),
        2,
        "both lockstep passes' spans (8 and 5 modes), whatever thread ran them"
    );
}
