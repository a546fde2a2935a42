//! Differential test of the unclassified timing pass against the
//! classified one it leaves out of the cold path.
//!
//! `Machine::time_points` times a trace without the analytical model's
//! Noverlap/Ndependent/stall classification; `Machine::run_points` (and
//! `Machine::run`, its one-point form) classifies every pass and is the
//! reference, itself checked against an independent body in
//! `tests/sim_record_once.rs`. On every field a `TimedRun` keeps, the two
//! must agree bit for bit:
//!
//! * on every bundled workload input at every paper ladder size plus the
//!   deadline scheme's three reference points (a debug build checks one
//!   input per benchmark at 3 levels);
//! * on dvs-check random programs under the two stress machines of
//!   `tests/sim_record_once.rs`, whose clock is ungated, so that idle
//!   cycles are charged;
//! * on a bundled workload under an ungated paper machine, long enough to
//!   fan its passes out.
//!
//! The pass `Machine::time_points_classifying` classifies must equal the
//! reference on every field, the classification included, and every
//! caller of `analyze_params` must get the parameters the reference run
//! gives. The profiles and deadline schemes built from unclassified passes
//! must equal those built from classified ones.

use compile_time_dvs::check::{gen_cfg, gen_ladder, gen_trace, Gen};
use compile_time_dvs::compiler::{analyze_params, DeadlineScheme, DvsCompiler};
use compile_time_dvs::ir::{Cfg, Profile};
use compile_time_dvs::runtime::Pool;
use compile_time_dvs::sim::{
    BlockStats, ClockGating, EnergyBreakdown, EnergyModel, Machine, ModeProfiler, RunStats,
    SimConfig, TimedRun, Trace,
};
use compile_time_dvs::vf::{OperatingPoint, TransitionModel, VoltageLadder};
use compile_time_dvs::workloads::Benchmark;

/// The deadline scheme's reference points, slowest first.
fn reference_points() -> [OperatingPoint; 3] {
    [
        OperatingPoint::new(0.7, 200.0),
        OperatingPoint::new(1.3, 600.0),
        OperatingPoint::new(1.65, 800.0),
    ]
}

/// Every field `got` keeps, against the reference's field of the same
/// name, bit for bit.
fn assert_kept_fields_equal(want: &RunStats, got: &TimedRun, ctx: &str) {
    // Destructured whole, so that a field added to `TimedRun` fails to
    // compile here until it is compared.
    let TimedRun {
        point,
        total_time_us,
        total_cycles,
        committed_insts,
        energy,
        blocks,
        cache_hit_cycles,
        l1d,
        l1i,
        l2,
        mispredicts,
        dram_accesses,
    } = got;
    let bits = |x: f64| x.to_bits();
    let energy_bits =
        |e: &EnergyBreakdown| [e.core_nf, e.fu_nf, e.cache_nf, e.bpred_nf, e.dram_uj].map(bits);
    let block_bits = |b: &[BlockStats]| -> Vec<(u64, u64, u64)> {
        b.iter()
            .map(|s| (s.invocations, bits(s.time_us), bits(s.cap_nf)))
            .collect()
    };
    assert_eq!(
        (bits(want.point.voltage), bits(want.point.frequency_mhz)),
        (bits(point.voltage), bits(point.frequency_mhz)),
        "{ctx}: point"
    );
    assert_eq!(
        bits(want.total_time_us),
        bits(*total_time_us),
        "{ctx}: total_time_us"
    );
    assert_eq!(
        bits(want.total_cycles),
        bits(*total_cycles),
        "{ctx}: total_cycles"
    );
    assert_eq!(
        want.committed_insts, *committed_insts,
        "{ctx}: committed_insts"
    );
    assert_eq!(
        energy_bits(&want.energy),
        energy_bits(energy),
        "{ctx}: energy"
    );
    assert_eq!(
        block_bits(&want.blocks),
        block_bits(blocks),
        "{ctx}: blocks"
    );
    assert_eq!(
        bits(want.cache_hit_cycles),
        bits(*cache_hit_cycles),
        "{ctx}: cache_hit_cycles"
    );
    assert_eq!(
        (want.l1d, want.l1i, want.l2),
        (*l1d, *l1i, *l2),
        "{ctx}: caches"
    );
    assert_eq!(want.mispredicts, *mispredicts, "{ctx}: mispredicts");
    assert_eq!(want.dram_accesses, *dram_accesses, "{ctx}: dram_accesses");
}

/// Every field of two classified runs, bit for bit.
fn assert_classified_equal(want: &RunStats, got: &RunStats, ctx: &str) {
    let timed = TimedRun {
        point: got.point,
        total_time_us: got.total_time_us,
        total_cycles: got.total_cycles,
        committed_insts: got.committed_insts,
        energy: got.energy,
        blocks: got.blocks.clone(),
        cache_hit_cycles: got.cache_hit_cycles,
        l1d: got.l1d,
        l1i: got.l1i,
        l2: got.l2,
        mispredicts: got.mispredicts,
        dram_accesses: got.dram_accesses,
    };
    assert_kept_fields_equal(want, &timed, ctx);
    for (name, w, g) in [
        ("overlap_cycles", want.overlap_cycles, got.overlap_cycles),
        (
            "dependent_cycles",
            want.dependent_cycles,
            got.dependent_cycles,
        ),
        ("stall_cycles", want.stall_cycles, got.stall_cycles),
    ] {
        assert_eq!(w.to_bits(), g.to_bits(), "{ctx}: {name}");
    }
}

/// Times `points` both ways over one walk and compares them, then
/// classifies each point in turn within an unclassified call. Returns the
/// reference runs.
fn check_points(
    machine: &Machine,
    cfg: &Cfg,
    trace: &Trace,
    points: &[OperatingPoint],
    ctx: &str,
) -> Vec<RunStats> {
    let want = machine.run_points(cfg, trace, points);
    let got = machine.time_points(cfg, trace, points);
    assert_eq!(got.len(), want.len(), "{ctx}: one run per point");
    for (w, g) in want.iter().zip(&got) {
        assert_kept_fields_equal(w, g, &format!("{ctx} at {}", w.point));
    }
    for classify in [0, points.len() - 1] {
        let (runs, classified) = machine.time_points_classifying(cfg, trace, points, classify);
        for (w, g) in want.iter().zip(&runs) {
            assert_kept_fields_equal(w, g, &format!("{ctx} at {}, classifying", w.point));
        }
        let ctx = format!("{ctx}, point {classify} classified");
        assert_classified_equal(&want[classify], &classified, &ctx);
    }
    want
}

/// Checks one workload input: the passes at every ladder point and
/// reference point, then the profiles, schemes and analytical parameters
/// each caller builds from them. Returns the points checked.
fn check_input(b: Benchmark, input: usize, levels: &[usize]) -> usize {
    let machine = Machine::paper_default();
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.inputs()[input]);
    let ctx = format!("{} input {input}", b.name());
    let mut checked = 0;
    for &n in levels {
        let ladder = VoltageLadder::paper(n).expect("a paper ladder");
        let mut points: Vec<OperatingPoint> = ladder.iter().map(|(_, p)| p).collect();
        let missing: Vec<_> = reference_points()
            .into_iter()
            .filter(|r| !points.contains(r))
            .collect();
        points.extend(missing);
        let ctx = format!("{ctx}, {n} levels");
        let want = check_points(&machine, &cfg, &trace, &points, &ctx);
        checked += points.len();

        // The classified profile, scheme and parameters, as every caller
        // read them before the cold path stopped classifying.
        let (want_profile, classified) =
            ModeProfiler::new(machine.clone()).profile(&cfg, &trace, &ladder);
        let want_scheme = DeadlineScheme::from_runs(&want).expect("every reference point");
        let fastest = classified.last().expect("a run per mode");
        let want_params = analyze_params(fastest);

        let compiler =
            DvsCompiler::builder(machine.clone(), ladder.clone(), TransitionModel::free())
                .build()
                .expect("valid settings");
        let (profile, runs) = compiler.profile(&cfg, &trace);
        assert_profiles_equal(
            &want_profile,
            &profile,
            &format!("{ctx}: DvsCompiler::profile"),
        );
        for (w, g) in classified.iter().zip(&runs) {
            assert_kept_fields_equal(w, g, &format!("{ctx}: DvsCompiler::profile run"));
        }
        assert_eq!(
            scheme_bits(&want_scheme),
            scheme_bits(&DeadlineScheme::from_runs_or_measure(
                &runs, &machine, &cfg, &trace
            )),
            "{ctx}: scheme from the profile's runs"
        );
        assert_eq!(
            scheme_bits(&want_scheme),
            scheme_bits(&DeadlineScheme::measure(&machine, &cfg, &trace)),
            "{ctx}: measured scheme"
        );
        let (profiled, profiler_runs, profiler_fastest) =
            ModeProfiler::new(machine.clone()).profile_with_fastest(&cfg, &trace, &ladder);
        assert_profiles_equal(
            &want_profile,
            &profiled,
            &format!("{ctx}: profile_with_fastest"),
        );
        for (w, g) in classified.iter().zip(&profiler_runs) {
            assert_kept_fields_equal(w, g, &format!("{ctx}: profile_with_fastest run"));
        }
        assert_classified_equal(fastest, &profiler_fastest, &format!("{ctx}: fastest run"));
        assert_eq!(
            params_bits(&want_params),
            params_bits(&analyze_params(&profiler_fastest)),
            "{ctx}: analytical parameters"
        );
    }
    checked
}

fn assert_profiles_equal(want: &Profile, got: &Profile, ctx: &str) {
    assert!(want == got, "{ctx}: profiles differ");
}

fn scheme_bits(s: &DeadlineScheme) -> [u64; 3] {
    [s.t_slow_us, s.t_mid_us, s.t_fast_us].map(f64::to_bits)
}

fn params_bits(p: &compile_time_dvs::model::ProgramParams) -> [u64; 4] {
    [p.n_overlap, p.n_dependent, p.n_cache, p.t_invariant_us].map(f64::to_bits)
}

#[test]
fn every_workload_input_and_ladder_matches_the_classified_pass() {
    // A debug build checks the default input of each benchmark at 3 levels.
    let (levels, programs): (&[usize], Vec<(Benchmark, usize)>) = if cfg!(debug_assertions) {
        (&[3], Benchmark::all().into_iter().map(|b| (b, 0)).collect())
    } else {
        (
            &[3, 7, 13],
            Benchmark::all()
                .into_iter()
                .flat_map(|b| (0..b.inputs().len()).map(move |i| (b, i)))
                .collect(),
        )
    };
    let inputs = programs.len();
    let checked = Pool::new(2).map(programs, |_, (b, i)| check_input(b, i, levels));
    // Each ladder plus the reference points it lacks.
    let per_input: usize = levels
        .iter()
        .map(|&n| match n {
            3 => 3,
            7 => 9,
            _ => 15,
        })
        .sum();
    assert_eq!(checked.iter().sum::<usize>(), inputs * per_input);
}

#[test]
fn random_programs_on_ungated_stress_machines_match_the_classified_pass() {
    // The two machines of tests/sim_record_once.rs: tiny caches, the
    // prefetcher on, a wide TLB penalty, idle cycles charged to the clock
    // tree, and (the second) rings narrow enough to wrap.
    let stress = SimConfig {
        next_line_prefetch: true,
        tlb_miss_penalty: 1000,
        ..SimConfig::tiny_for_tests()
    };
    let narrow = SimConfig {
        ruu_size: 5,
        lsq_size: 2,
        commit_width: 3,
        fetch_width: 3,
        int_alus: 2,
        ..stress.clone()
    };
    let energy = EnergyModel {
        gating: ClockGating::Ungated,
        ..EnergyModel::default()
    };
    let machines = [stress, narrow].map(|c| Machine::new(c, energy));
    let mut idle_charged = false;
    for seed in 0..200u64 {
        let mut g = Gen::from_seed(seed ^ 0x5eed_0f0d_d5ee);
        let cfg = gen_cfg(&mut g, 8);
        let trace = gen_trace(&mut g, &cfg);
        let ladder = gen_ladder(&mut g);
        let points: Vec<OperatingPoint> = ladder.iter().map(|(_, p)| p).collect();
        for (m, machine) in machines.iter().enumerate() {
            let ctx = format!("seed {seed}, machine {m}");
            let want = check_points(machine, &cfg, &trace, &points, &ctx);
            let gated = Machine::new(machine.config().clone(), EnergyModel::default());
            let gated = gated.run(&cfg, &trace, points[0]);
            idle_charged |= want[0].energy.core_nf > gated.energy.core_nf;
        }
    }
    assert!(idle_charged, "the sweep must charge idle cycles");
}

#[test]
fn an_ungated_workload_fans_out_and_matches_the_classified_pass() {
    let machine = Machine::new(
        SimConfig::default(),
        EnergyModel {
            gating: ClockGating::Ungated,
            ..EnergyModel::default()
        },
    );
    let b = Benchmark::AdpcmEncode;
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    assert!(trace.dynamic_inst_count(&cfg) >= compile_time_dvs::sim::FAN_OUT_MIN_INSTS);
    check_points(&machine, &cfg, &trace, &reference_points(), "ungated adpcm");
}
