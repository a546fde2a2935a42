//! Machinery shared by the two pinned benchmarks, [`crate::bench_solver`]
//! (`BENCH_solver.json`) and [`crate::bench_replay`] (`BENCH_replay.json`).
//!
//! A report mixes two kinds of numbers. Wall clock (`wall_us`, the replay
//! `speedup` subtrees and the certificate checker's `cert_check_us`) is
//! machine noise. Everything else is deterministic: workload shapes,
//! solver search counters, certificate sizes and agreement results. Each
//! cell runs sequentially, so the same toolchain produces the same values
//! whatever `jobs` fans the cells out over. [`deterministic_view`] keeps
//! only those fields, and `tests/bench_baselines.rs` requires a fresh run's
//! view to equal the committed file's byte for byte. [`check_report`]
//! holds the invariants every report, fresh or committed, must satisfy.

use dvs_obs::json::Json;
use dvs_runtime::Pool;

/// Schema tag of `BENCH_solver.json`.
pub(crate) const SOLVER_SCHEMA: &str = "dvs-bench-solver.v1";
/// Schema tag of `BENCH_replay.json`.
pub(crate) const REPLAY_SCHEMA: &str = "dvs-bench-replay.v1";

/// Machine-dependent keys, stripped by [`deterministic_view`]. The solver
/// schema never uses `speedup` and the replay schema never uses
/// `cert_check_us`, so one list serves both.
const WALL_CLOCK_KEYS: [&str; 3] = ["wall_us", "cert_check_us", "speedup"];

/// Relative tolerance of replay-vs-simulator agreement (the bound the replay
/// differential tests use) and of the continuous optimum vs the B&B LP.
const REL_TOL: f64 = 1e-6;

/// Runs every cell of a grid on `jobs` workers; cases come back in grid
/// order whatever the worker count.
pub(crate) fn run_grid<C: Send>(cells: Vec<C>, jobs: usize, run_cell: fn(&C) -> Json) -> Vec<Json> {
    Pool::new(jobs).map(cells, |_, cell| run_cell(&cell))
}

/// The element at index `round((len - 1) * q)` of an ascending slice; 0
/// when empty.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (((sorted.len() - 1) as f64) * q).round() as usize;
    sorted[idx]
}

/// Mean, p50, p90 and max of one or more wall times, in µs.
pub(crate) fn wall_stats(walls: &mut [f64]) -> Json {
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    let mean = walls.iter().sum::<f64>() / walls.len() as f64;
    Json::obj([
        ("mean", Json::from(mean)),
        ("p50", Json::from(percentile(walls, 0.50))),
        ("p90", Json::from(percentile(walls, 0.90))),
        ("max", Json::from(*walls.last().expect("reps >= 1"))),
    ])
}

/// The member at the dot-separated `path` under `v` (`v` itself for `""`).
pub(crate) fn at<'a>(v: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.')
        .filter(|k| !k.is_empty())
        .try_fold(v, |v, k| v.get(k))
}

/// The sum of the integer at `path` over every case that has one.
pub(crate) fn sum(cases: &[Json], path: &str) -> u64 {
    cases
        .iter()
        .filter_map(|c| at(c, path).and_then(Json::as_u64))
        .sum()
}

/// The report without its machine-dependent fields: what must be
/// byte-stable across `jobs` values and runs on the same toolchain.
#[must_use]
pub fn deterministic_view(v: &Json) -> Json {
    match v {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !WALL_CLOCK_KEYS.contains(&k.as_str()))
                .map(|(k, val)| (k.clone(), deterministic_view(val)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(deterministic_view).collect()),
        other => other.clone(),
    }
}

/// The keys a schema needs, as `(path, keys)` pairs: the object at the
/// dot-separated `path` must have every whitespace-separated key.
type Keys = [(&'static str, &'static str)];

const PERCENTILES: &str = "mean p50 p90 max";

#[rustfmt::skip]
const SOLVER_REPORT: &Keys = &[
    ("", "schema totals cases"),
    ("totals", "cases nodes lp_iterations pivots certificate_bytes"),
];

#[rustfmt::skip]
const SOLVER_CASE: &Keys = &[
    ("", "name backend seed max_blocks blocks edges levels deadline_frac binary_vars constraints \
          predicted_energy_uj certificate_bytes cert_check_us reps wall_us stats"),
    ("wall_us", PERCENTILES),
    ("stats", "nodes nodes_pruned lp_iterations pivots dual_pivots degenerate_pivots bound_flips \
               refactorizations presolve_rows_removed presolve_bounds_tightened mip_gap incumbents"),
];

const CONTINUOUS_CASE: &Keys = &[("", "continuous_objective bnb_relaxation_objective")];

#[rustfmt::skip]
const REPLAY_REPORT: &Keys = &[
    ("", "schema totals speedup cases"),
    ("totals", "cases trace_insts block_ops variants agreement_ok"),
    ("speedup", "median min max"),
];

#[rustfmt::skip]
const REPLAY_CASE: &Keys = &[
    ("", "name seed max_blocks blocks edges levels schedules reps bytecode agreement_ok \
          max_rel_err wall_us speedup"),
    ("bytecode", "trace_blocks trace_insts block_ops variants variant_insts"),
    ("speedup", "p50 min max"),
    ("wall_us", "compile"),
    ("wall_us.sim", PERCENTILES),
    ("wall_us.replay", PERCENTILES),
];

/// Every way `report` breaks its schema's invariants, one line each; empty
/// when the report is sound. Both schemas need their keys and a
/// `totals.cases` equal to the case count.
///
/// * Solver: no failed (`error`) cell, a non-empty incumbent trajectory
///   that never increases (objectives are minimized), and on continuous
///   cells the exact continuous optimum equal to the branch-and-bound LP
///   relaxation within 1e-6 relative.
/// * Replay: every cell agrees with the simulator (`agreement_ok` and
///   `max_rel_err` within 1e-6), and the totals equal the sums of their
///   cells.
///
/// Speedup floors are not checked here: a fresh run on a shared machine
/// and the committed baseline answer for different floors.
#[must_use]
pub fn check_report(report: &Json) -> Vec<String> {
    let tag = report.get("schema").and_then(Json::as_str);
    let (report_keys, case_keys) = match tag {
        Some(SOLVER_SCHEMA) => (SOLVER_REPORT, SOLVER_CASE),
        Some(REPLAY_SCHEMA) => (REPLAY_REPORT, REPLAY_CASE),
        _ => return vec![format!("unknown schema {tag:?}")],
    };
    let solver = tag == Some(SOLVER_SCHEMA);
    let mut problems = Vec::new();
    require(&mut problems, "report", report, report_keys);
    let cases = report.get("cases").and_then(Json::as_arr).unwrap_or(&[]);
    let counted = at(report, "totals.cases").and_then(Json::as_u64);
    if counted != Some(cases.len() as u64) {
        problems.push(format!(
            "totals.cases is {counted:?} but there are {} cases",
            cases.len()
        ));
    }
    for case in cases {
        let name = case.get("name").and_then(Json::as_str).unwrap_or("?");
        let place = format!("case {name}");
        if let Some(e) = case.get("error") {
            problems.push(format!("{place} failed: {}", e.dump()));
            continue;
        }
        require(&mut problems, &place, case, case_keys);
        if solver {
            check_solver_case(&mut problems, &place, case);
        } else {
            let err = case.get("max_rel_err").and_then(Json::as_f64);
            if case.get("agreement_ok").and_then(Json::as_bool) != Some(true) {
                problems.push(format!(
                    "{place} disagreed with the simulator (max_rel_err {err:?})"
                ));
            }
            if !err.is_some_and(|e| e <= REL_TOL) {
                problems.push(format!(
                    "{place} max_rel_err {err:?} exceeds the {REL_TOL} differential tolerance"
                ));
            }
        }
    }
    if !solver {
        if at(report, "totals.agreement_ok").and_then(Json::as_bool) != Some(true) {
            problems.push("totals.agreement_ok is not true".to_string());
        }
        for key in ["trace_insts", "block_ops", "variants"] {
            let recorded = at(report, &format!("totals.{key}")).and_then(Json::as_u64);
            let summed = sum(cases, &format!("bytecode.{key}"));
            if recorded != Some(summed) {
                problems.push(format!(
                    "totals.{key} is {recorded:?} but the cases sum to {summed}"
                ));
            }
        }
    }
    problems
}

/// Records, per `(path, keys)` pair, which keys the object at `path` under
/// `doc` lacks (all of them when it is missing or not an object).
fn require(problems: &mut Vec<String>, place: &str, doc: &Json, keys: &Keys) {
    for (path, names) in keys {
        let obj = at(doc, path);
        let missing: Vec<&str> = names
            .split_whitespace()
            .filter(|k| obj.and_then(|o| o.get(k)).is_none())
            .collect();
        if !missing.is_empty() {
            let dot = if path.is_empty() { "" } else { "." };
            problems.push(format!("{place}{dot}{path} missing {missing:?}"));
        }
    }
}

fn check_solver_case(problems: &mut Vec<String>, place: &str, case: &Json) {
    let objectives: Vec<f64> = at(case, "stats.incumbents")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|i| i.get("objective").and_then(Json::as_f64))
        .collect();
    if objectives.is_empty() {
        problems.push(format!("{place} has no incumbents"));
    }
    if objectives.windows(2).any(|w| w[1] > w[0]) {
        problems.push(format!(
            "{place} incumbent trajectory increases: {objectives:?}"
        ));
    }
    if case.get("backend").and_then(Json::as_str) != Some("continuous") {
        return;
    }
    require(problems, place, case, CONTINUOUS_CASE);
    let objective = |k| case.get(k).and_then(Json::as_f64);
    if let (Some(exact), Some(lp)) = (
        objective("continuous_objective"),
        objective("bnb_relaxation_objective"),
    ) {
        if (exact - lp).abs() > REL_TOL * exact.abs().max(1.0) {
            problems.push(format!(
                "{place}: continuous optimum {exact} and B&B LP relaxation {lp} differ \
                 by more than {REL_TOL} relative"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sound solver report with one continuous cell.
    const SOLVER: &str = r#"{"schema": "dvs-bench-solver.v1",
      "totals": {"cases": 1, "nodes": 1, "lp_iterations": 3, "pivots": 2,
                 "certificate_bytes": 800},
      "cases": [{"name": "c", "backend": "continuous", "seed": 1, "max_blocks": 10,
        "blocks": 9, "edges": 11, "levels": 2, "deadline_frac": 0.4, "binary_vars": 22,
        "constraints": 12, "predicted_energy_uj": 2.0, "certificate_bytes": 800,
        "cert_check_us": 40.5, "reps": 5,
        "wall_us": {"mean": 10.0, "p50": 10.0, "p90": 11.0, "max": 11.0},
        "stats": {"nodes": 1, "nodes_pruned": 0, "lp_iterations": 3, "pivots": 2,
                  "dual_pivots": 0, "degenerate_pivots": 0, "bound_flips": 0,
                  "refactorizations": 1, "presolve_rows_removed": 0,
                  "presolve_bounds_tightened": 0, "mip_gap": 0,
                  "incumbents": [{"node": 1, "objective": 2.1},
                                 {"node": 2, "objective": 2.0},
                                 {"node": 3, "objective": 2.0}]},
        "continuous_objective": 2.0, "bnb_relaxation_objective": 2.0}]}"#;

    /// A sound replay report with one cell.
    const REPLAY: &str = r#"{"schema": "dvs-bench-replay.v1",
      "totals": {"cases": 1, "trace_insts": 35, "block_ops": 10, "variants": 10,
                 "agreement_ok": true},
      "speedup": {"median": 14.0, "min": 14.0, "max": 14.0},
      "cases": [{"name": "r", "seed": 1, "max_blocks": 10, "blocks": 10, "edges": 12,
        "levels": 2, "schedules": 64, "reps": 5,
        "bytecode": {"trace_blocks": 10, "trace_insts": 35, "block_ops": 10,
                     "variants": 10, "variant_insts": 35},
        "agreement_ok": true, "max_rel_err": 5.8e-16,
        "wall_us": {"compile": 30.0,
                    "sim": {"mean": 620.0, "p50": 629.0, "p90": 647.0, "max": 647.0},
                    "replay": {"mean": 45.0, "p50": 45.0, "p90": 49.0, "max": 49.0}},
        "speedup": {"p50": 14.0, "min": 12.7, "max": 15.3}}]}"#;

    /// The problems `check_report` names once the member at `path` (object
    /// keys, or array indices) is set to `value`, or removed for `None`. A
    /// set member moves to the end of its object.
    fn problems_with(doc: &str, path: &[&str], value: Option<Json>) -> Vec<String> {
        let mut doc = Json::parse(doc).expect("fixture parses");
        let (last, parents) = path.split_last().expect("non-empty path");
        let parent = parents.iter().fold(&mut doc, |v, k| match v {
            Json::Obj(m) => &mut m.iter_mut().find(|(n, _)| n == k).expect("member").1,
            Json::Arr(items) => &mut items[k.parse::<usize>().expect("index")],
            _ => panic!("{k}: not a container"),
        });
        let Json::Obj(members) = parent else {
            panic!("{path:?}: parent is not an object")
        };
        members.retain(|(n, _)| n != last);
        if let Some(v) = value {
            members.push(((*last).to_string(), v));
        }
        check_report(&doc)
    }

    fn assert_flags(problems: &[String], needle: &str) {
        assert!(
            problems.iter().any(|p| p.contains(needle)),
            "no problem mentions {needle:?}: {problems:?}"
        );
    }

    #[test]
    fn sound_reports_have_no_problems() {
        for doc in [SOLVER, REPLAY] {
            let doc = Json::parse(doc).expect("fixture parses");
            assert_eq!(check_report(&doc), Vec::<String>::new());
        }
    }

    #[test]
    fn a_failed_cell_is_a_problem() {
        let error = Some(Json::from("certificate rejected"));
        let problems = problems_with(SOLVER, &["cases", "0", "error"], error);
        assert_flags(&problems, r#"case c failed: "certificate rejected""#);
    }

    #[test]
    fn totals_cases_must_count_the_cases() {
        for doc in [SOLVER, REPLAY] {
            let problems = problems_with(doc, &["totals", "cases"], Some(Json::from(2usize)));
            assert_flags(&problems, "totals.cases is Some(2) but there are 1 cases");
        }
    }

    #[test]
    fn replay_totals_must_sum_their_cells() {
        let problems = problems_with(REPLAY, &["totals", "block_ops"], Some(Json::from(11usize)));
        assert_flags(
            &problems,
            "totals.block_ops is Some(11) but the cases sum to 10",
        );
    }

    #[test]
    fn a_missing_case_key_is_a_problem() {
        let problems = problems_with(SOLVER, &["cases", "0", "seed"], None);
        assert_flags(&problems, r#"case c missing ["seed"]"#);
        let problems = problems_with(REPLAY, &["cases", "0", "bytecode"], None);
        assert_flags(&problems, r#"case r missing ["bytecode"]"#);
    }

    #[test]
    fn missing_wall_clock_keys_are_problems() {
        let problems = problems_with(SOLVER, &["cases", "0", "wall_us"], None);
        assert_flags(&problems, r#"case c missing ["wall_us"]"#);
        let problems = problems_with(REPLAY, &["cases", "0", "speedup"], None);
        assert_flags(&problems, r#"case r missing ["speedup"]"#);
        let problems = problems_with(REPLAY, &["speedup"], None);
        assert_flags(&problems, r#"report missing ["speedup"]"#);
    }

    #[test]
    fn incumbent_trajectories_must_be_nonempty_and_never_increase() {
        let path = ["cases", "0", "stats", "incumbents"];
        let problems = problems_with(SOLVER, &path, Some(Json::Arr(Vec::new())));
        assert_flags(&problems, "case c has no incumbents");
        // Any increase counts, however small.
        let rising = Json::parse(
            r#"[{"node": 1, "objective": 2.0}, {"node": 2, "objective": 2.000000000001}]"#,
        );
        let problems = problems_with(SOLVER, &path, Some(rising.expect("valid JSON")));
        assert_flags(&problems, "case c incumbent trajectory increases");
    }

    #[test]
    fn the_continuous_optimum_must_match_the_lp_relaxation() {
        let path = ["cases", "0", "bnb_relaxation_objective"];
        let problems = problems_with(SOLVER, &path, Some(Json::from(2.0 * (1.0 + 2e-6))));
        assert_flags(
            &problems,
            "continuous optimum 2 and B&B LP relaxation 2.000004 differ",
        );
        let problems = problems_with(SOLVER, &path, None);
        assert_flags(&problems, r#"case c missing ["bnb_relaxation_objective"]"#);
    }

    #[test]
    fn replay_cells_must_agree_with_the_simulator() {
        let agree = Some(Json::from(false));
        let problems = problems_with(REPLAY, &["cases", "0", "agreement_ok"], agree);
        assert_flags(&problems, "case r disagreed with the simulator");
        let problems = problems_with(
            REPLAY,
            &["cases", "0", "max_rel_err"],
            Some(Json::from(2e-6)),
        );
        assert_flags(&problems, "case r max_rel_err Some(2e-6) exceeds");
        let agree = Some(Json::from(false));
        let problems = problems_with(REPLAY, &["totals", "agreement_ok"], agree);
        assert_flags(&problems, "totals.agreement_ok is not true");
    }

    #[test]
    fn an_unknown_schema_is_a_problem() {
        let schema = Some(Json::from("dvs-bench-replay.v2"));
        let problems = problems_with(REPLAY, &["schema"], schema);
        assert_eq!(problems, [r#"unknown schema Some("dvs-bench-replay.v2")"#]);
    }
}
