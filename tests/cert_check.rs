//! Integration tests for optimality certificates: every synthetic
//! MediaBench workload must certify clean end to end, and seeded
//! corruptions of real certificates must each be rejected with their
//! expected code.

use compile_time_dvs::cert::{Certificate, RejectCode};
use compile_time_dvs::check::{gen_cfg, gen_trace, DeadlineSpec, Gen, Mutation};
use compile_time_dvs::compiler::MilpFormulation;
use compile_time_dvs::prelude::*;
use compile_time_dvs::sim::ModeProfiler;

fn ladder() -> VoltageLadder {
    VoltageLadder::xscale3(&AlphaPower::paper())
}

/// Compile every benchmark with certification on at a mid-range deadline;
/// each compile must yield a checker-accepted, byte-stable certificate.
/// (A rejected certificate aborts the compile with `PassError::Certify`,
/// so reaching a `CompileResult` at all means the checker said yes — the
/// assertions below just make that chain visible.)
#[test]
fn all_workloads_certify_clean() {
    let machine = Machine::paper_default();
    for b in Benchmark::all() {
        let cfg = b.build_cfg();
        let trace = b.trace(&cfg, &b.default_input());
        let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
        let compiler = DvsCompiler::builder(
            machine.clone(),
            ladder(),
            TransitionModel::with_capacitance_uf(0.05),
        )
        .certify(true)
        .build()
        .expect("valid compiler settings");
        let (profile, _) = compiler.profile(&cfg, &trace);
        let deadline = scheme.deadline_us(3);
        let res = compiler
            .compile(&cfg, &profile, deadline)
            .unwrap_or_else(|e| panic!("{}: certifying compile failed: {e}", b.name()));
        let cert = res
            .milp
            .certificate
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no certificate produced", b.name()));
        assert!(
            cert.report.reject.is_none(),
            "{}: checker rejected the certificate: {:?}",
            b.name(),
            cert.report.reject
        );
        let decoded = Certificate::decode(&cert.encoded)
            .unwrap_or_else(|e| panic!("{}: certificate decode failed: {e}", b.name()));
        assert_eq!(
            decoded.encode(),
            cert.encoded,
            "{}: certificate round trip is not byte-stable",
            b.name()
        );
        assert!(
            dvs_cert_accepts(&decoded),
            "{}: re-decoded certificate no longer checks",
            b.name()
        );
    }
}

fn dvs_cert_accepts(cert: &Certificate) -> bool {
    compile_time_dvs::cert::check(cert).reject.is_none()
}

/// Certify 100 randomly generated models (20 in debug builds — each seed
/// is a full certifying replay; CI's `cert-smoke` job runs this suite in
/// release at full size) and corrupt each certificate with every
/// [`Mutation`] class; the independent checker must reject every
/// corruption, and with the code the class is designed to trip.
#[test]
fn mutation_sweep_rejects_every_class() {
    let seeds: u64 = if cfg!(debug_assertions) { 20 } else { 100 };
    let law = AlphaPower::paper();
    let ladder = VoltageLadder::interpolated(&law, 4).expect("4-level ladder");
    let transition = TransitionModel::with_capacitance_uf(0.05);
    let profiler = ModeProfiler::new(Machine::paper_default());

    let mut certified = 0usize;
    let mut rejected = vec![0usize; Mutation::ALL.len()];
    for seed in 0..seeds {
        let mut g = Gen::from_seed(0xce57 + seed);
        let cfg = gen_cfg(&mut g, 6);
        let trace = gen_trace(&mut g, &cfg);
        let (profile, _) = profiler.profile(&cfg, &trace, &ladder);
        let t_fast = profile.total_time_at(ladder.len() - 1);
        let t_slow = profile.total_time_at(0);
        let deadline_us = DeadlineSpec::SpanFraction(0.5).resolve(t_fast, t_slow);

        let outcome = MilpFormulation::new(&cfg, &profile, &ladder, &transition, deadline_us)
            .with_certify(true)
            .solve()
            .unwrap_or_else(|e| panic!("seed {seed}: certifying solve failed: {e}"));
        let cert = outcome.certificate.expect("certificate requested");
        assert!(
            cert.report.reject.is_none(),
            "seed {seed}: checker rejected: {:?}",
            cert.report.reject
        );
        certified += 1;
        let decoded = Certificate::decode(&cert.encoded).expect("decodable certificate");

        for (i, m) in Mutation::ALL.into_iter().enumerate() {
            let Some(bad) = m.apply(&decoded) else {
                continue; // class not applicable to this certificate's shape
            };
            let report = compile_time_dvs::cert::check(&bad);
            let reject = report.reject.unwrap_or_else(|| {
                panic!("seed {seed}: checker accepted a {} corruption", m.name())
            });
            assert!(
                m.expected().contains(&reject.code),
                "seed {seed}: {} corruption rejected as {} ({}), expected one of {:?}",
                m.name(),
                reject.code,
                reject.detail,
                m.expected().iter().map(|c| c.as_str()).collect::<Vec<_>>()
            );
            rejected[i] += 1;
        }
    }
    assert_eq!(
        certified, seeds as usize,
        "every seed must certify before mutation"
    );
    for (i, m) in Mutation::ALL.into_iter().enumerate() {
        assert!(
            rejected[i] >= seeds as usize / 2,
            "mutation class {} applied to only {}/{seeds} certificates — the \
             sweep is not exercising it",
            m.name(),
            rejected[i]
        );
    }
}

/// The dual-sign reject code must actually appear in the sweep above (it
/// is the one class whose expected code depends on checker internals
/// walking every leaf); pin the code names so a rename shows up here and
/// not just in docs.
#[test]
fn reject_code_names_are_stable() {
    assert_eq!(
        RejectCode::DualSignViolation.as_str(),
        "dual-sign-violation"
    );
    assert_eq!(RejectCode::CoverageGap.as_str(), "coverage-gap");
    assert_eq!(
        RejectCode::IncumbentInfeasible.as_str(),
        "incumbent-infeasible"
    );
    assert_eq!(
        RejectCode::IncumbentNotIntegral.as_str(),
        "incumbent-not-integral"
    );
    assert_eq!(RejectCode::ObjectiveMismatch.as_str(), "objective-mismatch");
}

/// The trust boundary in manifest form: the checker crate must never
/// depend on the solver it audits, directly or transitively — otherwise
/// a solver bug could hide in the checker too.
#[test]
fn checker_crate_does_not_depend_on_the_solver() {
    let manifest = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/cert/Cargo.toml"
    ))
    .expect("cert manifest readable");
    let deps: String = manifest
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .collect();
    assert!(
        !deps.contains("milp"),
        "dvs-cert must not depend on dvs-milp:\n{deps}"
    );
}
