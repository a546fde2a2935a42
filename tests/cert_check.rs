//! Integration tests for optimality certificates: every synthetic
//! MediaBench workload must certify clean end to end, and seeded
//! corruptions of real certificates must each be rejected with their
//! expected code.

use compile_time_dvs::cert::{Certificate, RejectCode};
use compile_time_dvs::check::{gen_cfg, gen_trace, DeadlineSpec, Gen, Mutation};
use compile_time_dvs::compiler::fingerprint::Fnv64;
use compile_time_dvs::compiler::MilpFormulation;
use compile_time_dvs::prelude::*;
use compile_time_dvs::sim::ModeProfiler;

/// `(benchmark, levels, deadline index, encoded bytes, FNV-1a digest)` of
/// every certificate [`all_workloads_certify_clean`] produces. The prover
/// is deterministic and works in exact dyadic arithmetic, so a change that
/// only makes it faster must reproduce every byte. The table was generated
/// by a prover that re-evaluated each leaf's Lagrangian from scratch after
/// every dual repair. Regenerate it only for a change that means to alter
/// proofs, from the fresh table the failing test prints.
const CERT_DIGESTS: [(&str, usize, usize, usize, u64); 32] = [
    ("adpcm/encode", 3, 1, 17370, 0xf7e5e58968936b13),
    ("adpcm/encode", 3, 2, 17021, 0xe14e4a896ee5ac4d),
    ("adpcm/encode", 3, 3, 8953, 0xcac4a44eadaf329d),
    ("adpcm/encode", 3, 4, 8652, 0xbbcccca2d1a50863),
    ("adpcm/encode", 3, 5, 41602, 0x639412a78f5d2dc9),
    ("mpeg/decode", 3, 1, 50754, 0x23ada0cab85b7115),
    ("mpeg/decode", 3, 2, 62328, 0x33d24f0cb712ccc2),
    ("mpeg/decode", 3, 3, 19959, 0x3bb7464cdd2ab376),
    ("mpeg/decode", 3, 4, 41379, 0x6016c5fc14b7e647),
    ("mpeg/decode", 3, 5, 41645, 0xad55de6b15eb8117),
    ("gsm/encode", 3, 1, 13863, 0xa260978c8f494efb),
    ("gsm/encode", 3, 2, 10005, 0x799058d93d3c520b),
    ("gsm/encode", 3, 3, 8053, 0x7563d80dac5ca892),
    ("gsm/encode", 3, 4, 13999, 0xa91d86fd3f537635),
    ("gsm/encode", 3, 5, 8997, 0xcc879ae49692c1ce),
    ("epic", 3, 1, 17432, 0xe1c37d2b8494da3d),
    ("epic", 3, 2, 7512, 0x67cf27e74d3122c1),
    ("epic", 3, 3, 12906, 0xbde885ff49c88e84),
    ("epic", 3, 4, 6917, 0x6eb7d5f751d9122f),
    ("epic", 3, 5, 6096, 0x2b11bed127520f2e),
    ("ghostscript", 3, 1, 25203, 0xc18c45f418566f14),
    ("ghostscript", 3, 2, 30313, 0x2cfc410789084456),
    ("ghostscript", 3, 3, 15425, 0xfa0b1a8193f50d17),
    ("ghostscript", 3, 4, 14234, 0x4e8a8b489f72f5fa),
    ("ghostscript", 3, 5, 31845, 0xd22caa18218bd1ea),
    ("ghostscript", 7, 5, 80577, 0x00ed822b093e4495),
    ("mpg123", 3, 1, 10356, 0xb262d7da0d128aae),
    ("mpg123", 3, 2, 20494, 0xa8fdf88411ce38c5),
    ("mpg123", 3, 3, 6080, 0x33a79555b61f47be),
    ("mpg123", 3, 4, 7671, 0x87561af0b14444dd),
    ("mpg123", 3, 5, 5959, 0x27e50ce6cd76a7c2),
    ("mpg123", 7, 5, 12916, 0x6353f8e4c52e6115),
];

/// The certified cells as `(levels, deadline indices)`: every benchmark
/// at D1–D5 on the 3-level ladder, plus D5 on 7 levels for ghostscript
/// and mpg123, whose 7-level profiles are the cheapest to build.
fn certified_cells(b: Benchmark) -> Vec<(usize, Vec<usize>)> {
    let mut cells = vec![(3, vec![1, 2, 3, 4, 5])];
    if matches!(b, Benchmark::Ghostscript | Benchmark::Mpg123) {
        cells.push((7, vec![5]));
    }
    cells
}

/// Certify every benchmark on the cells above; each compile must yield a
/// checker-accepted, byte-stable certificate whose bytes match
/// [`CERT_DIGESTS`]. (A rejected certificate aborts the compile with
/// `PassError::Certify`, so reaching a `CompileResult` at all means the
/// checker said yes — the assertions below just make that chain visible.)
#[test]
fn all_workloads_certify_clean() {
    let machine = Machine::paper_default();
    let mut fresh: Vec<(&str, usize, usize, usize, u64)> = Vec::new();
    for b in Benchmark::all() {
        let cfg = b.build_cfg();
        let trace = b.trace(&cfg, &b.default_input());
        let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
        for (levels, deadlines) in certified_cells(b) {
            let compiler = DvsCompiler::builder(
                machine.clone(),
                VoltageLadder::paper(levels).expect("paper ladder"),
                TransitionModel::with_capacitance_uf(0.05),
            )
            .certify(true)
            .build()
            .expect("valid compiler settings");
            let (profile, _) = compiler.profile(&cfg, &trace);
            for d in deadlines {
                let cell = format!("{} {levels} levels D{d}", b.name());
                let res = compiler
                    .compile(&cfg, &profile, scheme.deadline_us(d))
                    .unwrap_or_else(|e| panic!("{cell}: certifying compile failed: {e}"));
                let cert = res
                    .milp
                    .certificate
                    .as_ref()
                    .unwrap_or_else(|| panic!("{cell}: no certificate produced"));
                assert!(
                    cert.report.reject.is_none(),
                    "{cell}: checker rejected the certificate: {:?}",
                    cert.report.reject
                );
                let decoded = Certificate::decode(&cert.encoded)
                    .unwrap_or_else(|e| panic!("{cell}: certificate decode failed: {e}"));
                assert_eq!(
                    decoded.encode(),
                    cert.encoded,
                    "{cell}: certificate round trip is not byte-stable"
                );
                assert!(
                    dvs_cert_accepts(&decoded),
                    "{cell}: re-decoded certificate no longer checks"
                );
                let mut h = Fnv64::new();
                h.write_bytes(cert.encoded.as_bytes());
                fresh.push((b.name(), levels, d, cert.encoded.len(), h.finish()));
            }
        }
    }
    let row = |(name, levels, d, len, digest): &(&str, usize, usize, usize, u64)| {
        format!("({name:?}, {levels}, {d}, {len}, {digest:#018x})")
    };
    let table: String = fresh.iter().map(|r| format!("    {},\n", row(r))).collect();
    let mismatch = fresh
        .iter()
        .zip(CERT_DIGESTS.iter())
        .find(|(f, p)| f != p)
        .map(|(f, p)| format!("first differing cell {}, pinned {}", row(f), row(p)))
        .or_else(|| {
            (fresh.len() != CERT_DIGESTS.len())
                .then(|| format!("{} fresh cells, {} pinned", fresh.len(), CERT_DIGESTS.len()))
        });
    if let Some(why) = mismatch {
        panic!("certificate bytes moved: {why}\nfresh table:\n{table}");
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
