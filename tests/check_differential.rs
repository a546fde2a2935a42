//! Seeded differential tests over the whole pipeline: 200 random cases of
//! MILP-vs-brute-force agreement, LP-relaxation and §3 continuous-bound
//! dominance, and simulator replay. See `crates/check` for the framework.

use compile_time_dvs::check::{run_check, CheckConfig, Counterexample, OracleKind, Tolerances};

/// The PR's headline property: across 200 seeded random programs, every
/// oracle agrees with the MILP — brute-force enumeration finds the same
/// optimum and the same feasibility verdict, the LP relaxation and the
/// continuous analytical model stay below the integral objective, and the
/// emitted schedule replays within tolerance on the simulator. CFGs are
/// capped at 6 blocks so brute force is never skipped: every feasible case
/// really is checked against exhaustive enumeration.
#[test]
fn two_hundred_seeded_cases_agree_with_every_oracle() {
    let config = CheckConfig {
        seeds: 200,
        seed_base: 42,
        max_blocks: 6,
        jobs: compile_time_dvs::runtime::env_jobs().unwrap_or(4),
        ..CheckConfig::default()
    };
    let report = run_check(&config, &Tolerances::default());
    assert!(report.ok(), "oracle disagreements:\n{}", report.render());
    assert_eq!(
        report.brute_force_skipped, 0,
        "6-block cases must stay within the brute-force budget"
    );
    assert!(
        report.feasible > 0 && report.infeasible > 0,
        "the seed range must exercise both feasibility verdicts \
         (feasible {}, infeasible {})",
        report.feasible,
        report.infeasible
    );
}

/// The rendered report must not depend on worker count: the runtime pool
/// returns case outcomes in seed order and the report carries no timings.
#[test]
fn report_bytes_do_not_depend_on_worker_count() {
    let base = CheckConfig {
        seeds: 64,
        seed_base: 42,
        max_blocks: 6,
        jobs: 1,
        ..CheckConfig::default()
    };
    let sequential = run_check(&base, &Tolerances::default());
    let parallel = run_check(
        &CheckConfig {
            jobs: 4,
            ..base.clone()
        },
        &Tolerances::default(),
    );
    assert_eq!(sequential.render(), parallel.render());
}

/// A repro artifact must say *which* differential oracle tripped: the
/// command line alone reproduces the case, and the trailing annotation
/// tells the developer which comparison to look at — without it, a saved
/// `--repro-out` file from CI is ambiguous across five oracles.
#[test]
fn repro_lines_record_the_failing_oracle() {
    for (oracle, wire) in [
        (OracleKind::BruteForce, "brute-force"),
        (OracleKind::SimReplay, "sim-replay"),
        (OracleKind::BytecodeReplay, "bytecode-replay"),
    ] {
        let cx = Counterexample {
            seed: 1234,
            oracle,
            detail: "energy mismatch".to_string(),
            original_tape_len: 40,
            shrunk_tape_len: 8,
            shrunk_blocks: 3,
            shrunk_edges: 3,
            shrunk_detail: "energy mismatch".to_string(),
            shrunk_tape: vec![0; 8],
        };
        let line = cx.repro(6);
        assert_eq!(
            line,
            format!("dvsc check --seeds 1 --seed-base 1234 --max-blocks 6  # oracle: {wire}"),
        );
        let (cmd, annotation) = line.split_once('#').expect("annotated repro line");
        assert!(
            !cmd.contains('#') && annotation.trim() == format!("oracle: {wire}"),
            "the oracle must ride in a trailing comment so the command part \
             stays directly runnable: {line}"
        );
    }
}
