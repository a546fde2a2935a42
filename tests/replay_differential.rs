//! Differential fuzzing of the `dvs-replay` bytecode runtime against the
//! cycle-level simulator.
//!
//! Four contracts, mirroring `dvsc check`'s oracle discipline:
//!
//! 1. **Agreement** — over 300 seeded random programs (all generated
//!    ladder shapes and regulator models, on both the paper-default and
//!    the tiny-cache machine so L2 and DRAM paths are exercised), every
//!    replayed schedule matches `Machine::run_scheduled` to 1e-6 relative
//!    on all five result fields plus the exact transition count. The same
//!    sweep holds replay to its own, tighter contract: `time_us`,
//!    `transitions`, `transition_time_us`, `transition_energy_uj` and
//!    `dram_energy_uj` bit for bit, and `processor_energy_uj` to 1e-12
//!    relative (replay sums each variant's capacitance before scaling it
//!    by `V²`, which reads about 1e-15).
//! 2. **Determinism** — the per-seed result digest is byte-identical
//!    whether the sweep fans out over 1 worker or 4.
//! 3. **Sensitivity** — a seeded off-by-one cost fault injected into the
//!    compiled bytecode is caught by the same 1e-6 comparison, proving
//!    the oracle can actually fail.
//! 4. **One schedule check** — a schedule naming a mode outside the
//!    ladder, as its initial mode or on an edge, is rejected by the
//!    simulator and the bytecode alike, with the same message.

use compile_time_dvs::check::{gen_cfg, gen_ladder, gen_trace, gen_transition, Gen};
use compile_time_dvs::ir::Cfg;
use compile_time_dvs::replay;
use compile_time_dvs::runtime::Pool;
use compile_time_dvs::sim::{EdgeSchedule, EnergyModel, Machine, ScheduledRun, SimConfig, Trace};
use compile_time_dvs::vf::{ModeId, TransitionModel, VoltageLadder};

const REL: f64 = 1e-6;
const SEEDS: u64 = 300;

/// One generated case: program, trace, ladder, regulator, machine, and
/// the schedule batch to score (uniform baselines plus random mixes).
struct Case {
    cfg: Cfg,
    trace: Trace,
    ladder: VoltageLadder,
    transition: TransitionModel,
    machine: Machine,
    schedules: Vec<EdgeSchedule>,
}

fn gen_case(seed: u64) -> Case {
    let mut g = Gen::from_seed(seed ^ 0x9e3779b97f4a7c15);
    let cfg = gen_cfg(&mut g, 6);
    let trace = gen_trace(&mut g, &cfg);
    let ladder = gen_ladder(&mut g);
    let transition = gen_transition(&mut g);
    // Odd seeds run the tiny-cache machine so instruction and data
    // accesses regularly spill to L2 and DRAM; even seeds run the
    // paper-default hierarchy.
    let machine = if seed % 2 == 1 {
        Machine::new(SimConfig::tiny_for_tests(), EnergyModel::default())
    } else {
        Machine::paper_default()
    };
    let mut schedules = Vec::new();
    for m in 0..ladder.len() {
        schedules.push(EdgeSchedule::uniform(&cfg, ModeId(m)));
    }
    for _ in 0..4 {
        schedules.push(EdgeSchedule {
            initial: ModeId(g.below(ladder.len() as u64) as usize),
            edge_modes: (0..cfg.num_edges())
                .map(|_| ModeId(g.below(ladder.len() as u64) as usize))
                .collect(),
        });
    }
    Case {
        cfg,
        trace,
        ladder,
        transition,
        machine,
        schedules,
    }
}

/// The 1e-6 five-field comparison the oracle hierarchy standardizes on.
fn disagreements(got: &ScheduledRun, want: &ScheduledRun) -> Vec<String> {
    let mut out = Vec::new();
    for (name, g, w) in [
        ("time_us", got.time_us, want.time_us),
        (
            "processor_energy_uj",
            got.processor_energy_uj,
            want.processor_energy_uj,
        ),
        ("dram_energy_uj", got.dram_energy_uj, want.dram_energy_uj),
        (
            "transition_energy_uj",
            got.transition_energy_uj,
            want.transition_energy_uj,
        ),
        (
            "transition_time_us",
            got.transition_time_us,
            want.transition_time_us,
        ),
    ] {
        if (g - w).abs() > REL * w.abs().max(1e-9) {
            out.push(format!("{name}: bytecode {g:.9} vs simulator {w:.9}"));
        }
    }
    if got.transitions != want.transitions {
        out.push(format!(
            "transitions: bytecode {} vs simulator {}",
            got.transitions, want.transitions
        ));
    }
    out
}

/// Replay's own contract: the five fields it keeps bit-identical, and
/// processor energy to 1e-12 relative.
fn contract_breaches(got: &ScheduledRun, want: &ScheduledRun) -> Vec<String> {
    let mut out: Vec<String> = [
        ("time_us", got.time_us, want.time_us),
        ("dram_energy_uj", got.dram_energy_uj, want.dram_energy_uj),
        (
            "transition_energy_uj",
            got.transition_energy_uj,
            want.transition_energy_uj,
        ),
        (
            "transition_time_us",
            got.transition_time_us,
            want.transition_time_us,
        ),
    ]
    .into_iter()
    .filter(|(_, g, w)| g.to_bits() != w.to_bits())
    .map(|(name, g, w)| format!("{name}: bytecode {g:e} vs simulator {w:e}, not bit-identical"))
    .collect();
    let (g, w) = (got.processor_energy_uj, want.processor_energy_uj);
    if (g - w).abs() > 1e-12 * w.abs() {
        out.push(format!(
            "processor_energy_uj: bytecode {g:e} vs simulator {w:e}, beyond 1e-12"
        ));
    }
    out
}

/// Runs one seed and renders a deterministic digest line: every replayed
/// field at full precision, plus any disagreement. The digest is what the
/// jobs-independence test compares byte-for-byte.
fn run_seed(seed: u64) -> String {
    let case = gen_case(seed);
    let code = replay::compile(
        &case.machine,
        &case.cfg,
        &case.trace,
        &case.ladder,
        &case.transition,
    );
    let batch = code.replay_batch(&case.schedules);
    let mut line = format!("seed {seed}:");
    for (i, (schedule, run)) in case.schedules.iter().zip(&batch).enumerate() {
        let sim = case.machine.run_scheduled(
            &case.cfg,
            &case.trace,
            &case.ladder,
            schedule,
            &case.transition,
        );
        line.push_str(&format!(
            " [{i}] t={:.12e} e={:.12e} d={:.12e} n={}",
            run.time_us, run.processor_energy_uj, run.dram_energy_uj, run.transitions
        ));
        for d in disagreements(run, &sim)
            .into_iter()
            .chain(contract_breaches(run, &sim))
        {
            line.push_str(&format!(" MISMATCH[{i}] {d}"));
        }
    }
    line
}

#[test]
fn three_hundred_seeds_agree_with_the_simulator_to_1e6() {
    let pool = Pool::new(4);
    let digests: Vec<String> = pool.map((0..SEEDS).collect::<Vec<_>>(), |_, s| run_seed(s));
    let failures: Vec<&String> = digests.iter().filter(|d| d.contains("MISMATCH")).collect();
    assert!(
        failures.is_empty(),
        "{} of {SEEDS} seeds disagreed:\n{}",
        failures.len(),
        failures
            .iter()
            .take(5)
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn sweep_digests_are_byte_identical_across_job_counts() {
    // A smaller range keeps this fast; byte-identity is about ordering
    // and rendering, which 40 seeds exercise as well as 300 would.
    let seeds: Vec<u64> = (0..40).collect();
    let serial: Vec<String> = Pool::new(1).map(seeds.clone(), |_, s| run_seed(s));
    let parallel: Vec<String> = Pool::new(4).map(seeds, |_, s| run_seed(s));
    assert_eq!(
        serial.join("\n"),
        parallel.join("\n"),
        "sweep digest depends on the worker count"
    );
}

#[test]
fn injected_bytecode_faults_are_caught_by_the_differential_oracle() {
    for seed in 0..25u64 {
        let case = gen_case(seed);
        let mut code = replay::compile(
            &case.machine,
            &case.cfg,
            &case.trace,
            &case.ladder,
            &case.transition,
        );
        code.inject_cost_fault(seed);
        let caught = case.schedules.iter().any(|schedule| {
            let run = code.replay(schedule);
            let sim = case.machine.run_scheduled(
                &case.cfg,
                &case.trace,
                &case.ladder,
                schedule,
                &case.transition,
            );
            !disagreements(&run, &sim).is_empty()
        });
        assert!(
            caught,
            "seed {seed}: injected off-by-one bytecode cost survived the 1e-6 oracle"
        );
    }
}

/// The message a call panics with.
fn panic_message(f: impl FnOnce() -> ScheduledRun) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("an out-of-ladder mode must be rejected");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

#[test]
fn out_of_ladder_modes_are_rejected_alike_by_the_simulator_and_the_bytecode() {
    let case = gen_case(2);
    let blocks = case.trace.blocks();
    assert!(blocks.len() >= 2, "the trace takes an edge");
    let first_edge = case
        .cfg
        .edge_between(blocks[0].block, blocks[1].block)
        .expect("trace follows CFG edges");
    let code = replay::compile(
        &case.machine,
        &case.cfg,
        &case.trace,
        &case.ladder,
        &case.transition,
    );
    let outside = ModeId(case.ladder.len());
    let mut initial = EdgeSchedule::uniform(&case.cfg, ModeId(0));
    initial.initial = outside;
    let mut on_edge = EdgeSchedule::uniform(&case.cfg, ModeId(0));
    on_edge.edge_modes[first_edge.index()] = outside;
    for (what, bad) in [("initial mode", initial), ("edge mode", on_edge)] {
        let sim = panic_message(|| {
            case.machine
                .run_scheduled(&case.cfg, &case.trace, &case.ladder, &bad, &case.transition)
        });
        let bytecode = panic_message(|| code.replay(&bad));
        assert_eq!(sim, bytecode, "{what}: the two paths reject it differently");
        assert!(
            sim.contains("outside the ladder"),
            "{what}: rejected with {sim:?}"
        );
    }
}
