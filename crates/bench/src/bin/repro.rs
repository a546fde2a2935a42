//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all                # every experiment, in paper order
//! repro table6 fig15       # specific experiments
//! repro all --jobs 4       # run independent experiments concurrently
//! repro --list             # show available ids
//! ```
//!
//! Each report is printed to stdout and written to `results/<id>.txt` and
//! `results/<id>.csv`. A cross-experiment perf baseline (wall-clock plus
//! pipeline metrics per experiment) lands in `results/stats.csv`.
//!
//! `--jobs N` (or the `DVS_JOBS` environment variable) fans independent
//! experiments out over N worker threads. Reports stream to stdout in
//! completion order, but `results/*.csv` files and the row order of
//! `stats.csv` are independent of N: deterministic experiments produce
//! byte-identical files whatever the parallelism (timing columns such as
//! solve times vary run to run even sequentially). When a single
//! experiment id is given, the jobs go to its inner grid cells instead.

use dvs_bench::Report;
use dvs_bench::{run_experiment, Context, ExperimentStats, ALL_EXPERIMENTS};
use dvs_obs::MetricsSnapshot;
use std::fs;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

fn parse_jobs(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        let take = if args[i] == "--jobs" {
            let v = args
                .get(i + 1)
                .cloned()
                .ok_or_else(|| "--jobs needs a value".to_string())?;
            args.drain(i..=i + 1);
            v
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            let v = v.to_string();
            args.remove(i);
            v
        } else {
            i += 1;
            continue;
        };
        let n: usize = take
            .parse()
            .map_err(|_| format!("invalid --jobs value `{take}`"))?;
        if n == 0 {
            return Err("--jobs must be at least 1".to_string());
        }
        jobs = Some(n);
    }
    Ok(jobs)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = match parse_jobs(&mut args) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: repro [--list] [--jobs N] <experiment-id>... | all");
        eprintln!("ids: {}", ALL_EXPERIMENTS.join(", "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }

    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let out_dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }

    // `--jobs` beats `DVS_JOBS` beats sequential. With several experiments
    // the workers run whole experiments; a single experiment instead gets
    // the full job count for its inner grid cells.
    let jobs = jobs.or_else(dvs_runtime::env_jobs).unwrap_or(1);
    let (outer_jobs, inner_jobs) = if ids.len() > 1 { (jobs, 1) } else { (1, jobs) };

    dvs_obs::enable();
    dvs_obs::reset();
    let ctx = Context::with_jobs(inner_jobs);
    let pool = dvs_runtime::Pool::new(outer_jobs);
    let (tx, rx) = mpsc::channel::<Result<String, String>>();

    // Experiments run on the pool; a printer thread streams finished
    // reports in completion order so progress is visible under --jobs.
    let results: Vec<Option<ExperimentStats>> = std::thread::scope(|s| {
        let printer = s.spawn(move || {
            for msg in rx {
                match msg {
                    Ok(text) => println!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        });
        let results = pool.map(ids.clone(), |_idx, id| {
            // Domain 0 is the harness itself; each experiment runs under
            // its own registered, named domain so concurrent runs don't
            // bleed metrics into each other's stats.csv rows, and so the
            // domain column in stats.csv distinguishes bench rows from
            // other subsystems' exports (e.g. serve.loadtest).
            let domain_name = format!("bench.{id}");
            let domain = dvs_obs::register_domain(&domain_name);
            let _dg = dvs_obs::enter_domain(domain);
            let t0 = Instant::now();
            match run_experiment(&ctx, id) {
                Ok(report) => {
                    let wall_s = t0.elapsed().as_secs_f64();
                    let text = report.render();
                    let _ = tx.send(Ok(format!(
                        "{text}\n   [{id} completed in {wall_s:.2} s]\n"
                    )));
                    let _ = fs::write(out_dir.join(format!("{id}.txt")), &text);
                    let _ = fs::write(out_dir.join(format!("{id}.csv")), report.to_csv());
                    Some(ExperimentStats {
                        id: id.to_string(),
                        domain: domain_name,
                        wall_s,
                        metrics: MetricsSnapshot::capture_domain(domain),
                    })
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    None
                }
            }
        });
        drop(tx);
        let _ = printer.join();
        results
    });

    let failures = results.iter().filter(|r| r.is_none()).count();
    let stats: Vec<ExperimentStats> = results.into_iter().flatten().collect();
    if !stats.is_empty() {
        let harness = Report::harness_stats(&stats);
        println!("{}", harness.render());
        let _ = fs::write(out_dir.join("stats.csv"), harness.to_csv());
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
