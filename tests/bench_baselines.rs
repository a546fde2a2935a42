//! The committed benchmark baselines, `BENCH_solver.json` and
//! `BENCH_replay.json`, pinned whole: a fresh run of each full grid at
//! four workers must pass `check_report`, the committed file must too,
//! and their deterministic views (everything but wall clock) must be equal
//! byte for byte. The committed files are written at one worker, so this
//! also pins that the fan-out never changes a counter.

use compile_time_dvs::bench::{check_report, deterministic_view};
use compile_time_dvs::bench_replay::run_bench_replay;
use compile_time_dvs::bench_solver::run_bench_solver;
use compile_time_dvs::obs::json::Json;

/// Checks `fresh` against the committed file `name` and returns the
/// committed document. A mismatch names the first differing line of the
/// two pretty-printed views and the case it belongs to.
fn assert_pinned(name: &str, fresh: &Json) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let committed = Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    for (label, doc) in [("fresh run", fresh), (name, &committed)] {
        let problems = check_report(doc);
        assert!(problems.is_empty(), "{label}:\n{}", problems.join("\n"));
    }
    let (ours, theirs) = (deterministic_view(fresh), deterministic_view(&committed));
    if ours.dump() != theirs.dump() {
        let (ours, theirs) = (ours.pretty(), theirs.pretty());
        let (at, (fresh_line, committed_line)) = ours
            .lines()
            .zip(theirs.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((0, ("(one view is a prefix of the other)", "")));
        let case = ours
            .lines()
            .take(at)
            .filter_map(|l| l.trim().strip_prefix("\"name\": "))
            .last();
        panic!(
            "{name} no longer matches a fresh run. First difference, in case {}:\n  \
             fresh:     {}\n  committed: {}\n\
             (if the change is intended, regenerate the file with its `dvsc bench-*` \
             command at --jobs 1)",
            case.map_or("-", |c| c.trim_end_matches(',')),
            fresh_line.trim(),
            committed_line.trim()
        );
    }
    committed
}

#[test]
fn solver_baseline_matches_a_fresh_run() {
    assert_pinned("BENCH_solver.json", &run_bench_solver(4));
}

#[test]
fn replay_baseline_matches_a_fresh_run_and_clears_10x() {
    let committed = assert_pinned("BENCH_replay.json", &run_bench_replay(4));
    let median = committed
        .get("speedup")
        .and_then(|s| s.get("median"))
        .and_then(Json::as_f64);
    assert!(
        median >= Some(10.0),
        "committed median replay speedup {median:?} is below 10x"
    );
}
