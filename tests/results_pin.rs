//! The reproduction's outputs, pinned: every experiment regenerated
//! in-process must write the CSV committed under `results/`, byte for byte.
//!
//! `fig14` and `fig18` report MILP wall-clock times, so their wall-clock
//! columns are left out of the comparison and every other column must
//! still match. `results/stats.csv` (the harness's own wall-clock report)
//! and `results/serve.csv` (the daemon load test) are not experiments and
//! are not pinned.
//!
//! A release build pins all of [`ALL_EXPERIMENTS`]. A debug build pins all
//! but [`SLOW_IN_DEBUG`], which take 8–46 s each there; CI runs this file
//! in release as well.
//!
//! A committed CSV changes only with a change that means to move the
//! program's results; regenerate it with the `repro <id>` command a
//! mismatch prints.

use dvs_bench::{run_experiment, Context, ALL_EXPERIMENTS};
use std::time::Instant;

/// The experiments a debug build leaves to the release run.
const SLOW_IN_DEBUG: &[&str] = &["fig15", "fig19", "inputs", "table6"];

/// The columns of an experiment that hold wall-clock times.
fn wall_clock_columns(id: &str) -> &'static [&'static str] {
    match id {
        "fig14" => &["t_all (µs)", "t_filtered (µs)", "speedup"],
        "fig18" => &["solve time (µs)"],
        _ => &[],
    }
}

/// `csv` without the cells of the columns named in `drop`. The header is
/// the first line that is not a `#` note; no cell of the two experiments
/// with wall-clock columns holds a comma or a quote.
fn without_columns(csv: &str, drop: &[&str]) -> String {
    if drop.is_empty() {
        return csv.to_string();
    }
    let mut keep: Option<Vec<bool>> = None;
    let mut out = String::new();
    for line in csv.lines() {
        if line.starts_with('#') {
            out.push_str(line);
        } else {
            assert!(!line.contains('"'), "a quoted cell in `{line}`");
            let cells: Vec<&str> = line.split(',').collect();
            let keep =
                keep.get_or_insert_with(|| cells.iter().map(|c| !drop.contains(c)).collect());
            let kept: Vec<&str> = cells
                .iter()
                .zip(keep.iter())
                .filter(|(_, &k)| k)
                .map(|(c, _)| *c)
                .collect();
            out.push_str(&kept.join(","));
        }
        out.push('\n');
    }
    assert!(
        keep.is_some_and(|k| k.iter().filter(|&&k| !k).count() == drop.len()),
        "the header names every wall-clock column of {drop:?}"
    );
    out
}

/// Regenerates experiment `id` and compares it with `results/<id>.csv`.
/// Returns a description of the first difference, if any.
fn mismatch(ctx: &Context, id: &str) -> Option<String> {
    let path = format!("{}/results/{id}.csv", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let fresh = run_experiment(ctx, id)
        .unwrap_or_else(|e| panic!("{id}: {e}"))
        .to_csv();
    let drop = wall_clock_columns(id);
    let (fresh, committed) = (
        without_columns(&fresh, drop),
        without_columns(&committed, drop),
    );
    if fresh == committed {
        return None;
    }
    let (line, got, want) = fresh
        .lines()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(committed.lines().map(Some).chain(std::iter::repeat(None)))
        .take(fresh.lines().count().max(committed.lines().count()))
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| {
            (
                i + 1,
                a.unwrap_or("(end of file)"),
                b.unwrap_or("(end of file)"),
            )
        })
        .expect("unequal texts differ in some line");
    Some(format!(
        "{id}: results/{id}.csv differs at line {line}\n  fresh:     {got}\n  \
         committed: {want}\n  (if the change is intended, regenerate it with \
         `cargo run -p dvs-bench --release -- {id}`)"
    ))
}

#[test]
fn every_experiment_writes_its_committed_csv() {
    let ids: Vec<&str> = ALL_EXPERIMENTS
        .iter()
        .copied()
        .filter(|id| !cfg!(debug_assertions) || !SLOW_IN_DEBUG.contains(id))
        .collect();
    let ctx = Context::with_jobs(2);
    let failures: Vec<String> = ctx
        .par_map(ids, |_, id| {
            let start = Instant::now();
            let failure = mismatch(&ctx, id);
            eprintln!("{id}: {:.1} s", start.elapsed().as_secs_f64());
            failure
        })
        .into_iter()
        .flatten()
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
