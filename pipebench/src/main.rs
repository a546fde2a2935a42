//! End-to-end benchmark of the compile-time DVS pass, its prover and
//! checker, and its daemon.
//!
//! ```text
//! pipebench --workload <cold-compile|solve-sweep|certify-sweep|daemon-mix|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric with its unit, then one JSON result line. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer breakdown.

mod calib;
mod daemon;
mod inproc;
mod ops;
mod report;

use calib::Calibrator;
use report::{percentile, Metrics, RunSummary};
use std::process::ExitCode;
use std::time::Instant;

/// Tests that run the pipeline hold this: dvs-obs counters are
/// process-wide, so a traced test must not see another test's simulator
/// runs.
#[cfg(test)]
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-ups per `daemon-mix` run. Its set-up takes about 0.1 s, and the
/// median of three spread 0.13–0.38 (IQR over median) over ten runs.
const DAEMON_SETUP_REPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdCompile,
    SolveSweep,
    CertifySweep,
    DaemonMix,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ColdCompile,
        Workload::SolveSweep,
        Workload::CertifySweep,
        Workload::DaemonMix,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold-compile",
            Workload::SolveSweep => "solve-sweep",
            Workload::CertifySweep => "certify-sweep",
            Workload::DaemonMix => "daemon-mix",
        }
    }

    /// Seconds one round takes on the 2-core machine the benchmark was
    /// tuned on. A run executes the whole rounds that fit in `seconds` (at
    /// least one), so its op list is a pure function of `(workload, seed,
    /// seconds)` and every run of it does the same work.
    fn nominal_round_s(self) -> f64 {
        match self {
            Workload::ColdCompile => 33.0,
            Workload::SolveSweep => 1.0,
            Workload::CertifySweep => 2.0,
            Workload::DaemonMix => 10.0,
        }
    }

    /// Whole rounds for a `seconds` window, and at least enough for 100
    /// ops, so the 90th percentile has ten samples beyond it. `daemon-mix`
    /// runs at least two rounds: over one round (168 requests) its median,
    /// a cache hit of about 60 µs, spread 0.24–0.31 between seeds, over two
    /// 0.06–0.2.
    fn rounds(self, seconds: f64) -> usize {
        let min = match self {
            Workload::CertifySweep => 100usize.div_ceil(ops::CERTIFY_CELLS),
            Workload::DaemonMix => 2,
            _ => 1,
        };
        ((seconds / self.nominal_round_s()) as usize).max(min)
    }

    fn in_process(self) -> Option<inproc::Kind> {
        match self {
            Workload::ColdCompile => Some(inproc::Kind::Cold),
            Workload::SolveSweep => Some(inproc::Kind::Solve),
            Workload::CertifySweep => Some(inproc::Kind::Certify),
            Workload::DaemonMix => None,
        }
    }
}

/// Host-speed samples taken right after each set-up.
const SETUP_CAL_SAMPLES: usize = 10;

/// Sets up `reps` times, keeping the last set-up; returns it with the
/// median set-up time in reference-host seconds: each set-up's time is
/// divided by the host's slowdown sampled right after it (see [`calib`]),
/// on a calibrator of its own, so the window's slowdowns never mix with
/// set-up's.
fn setup<T>(
    reps: usize,
    mut once: impl FnMut() -> std::io::Result<T>,
    mut discard: impl FnMut(T) -> std::io::Result<()>,
) -> std::io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(prev) = kept.take() {
            discard(prev)?;
        }
        let t = Instant::now();
        kept = Some(once()?);
        let wall_s = t.elapsed().as_secs_f64();
        let mut cal = Calibrator::new();
        cal.samples(SETUP_CAL_SAMPLES);
        times.push(wall_s / cal.slowdown());
    }
    Ok((kept.expect("at least one set-up"), percentile(&times, 0.5)))
}

fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> std::io::Result<RunSummary> {
    let rounds = w.rounds(seconds);
    if let Some(kind) = w.in_process() {
        let mut cal = Calibrator::new();
        let ((env, cells), setup_s) = setup(
            SETUP_REPS,
            || Ok((inproc::Env::setup(kind), inproc::cells(kind, seed, rounds))),
            |_| Ok(()),
        )?;
        return Ok(inproc::run(&env, &cells, setup_s, traced, &mut cal));
    }
    pin_mmap_threshold();
    let ((mut d, requests), setup_s) = setup(
        DAEMON_SETUP_REPS,
        || Ok((daemon::Daemon::start()?, ops::daemon_mix(seed, 2 * rounds))),
        |(d, _)| d.stop(),
    )?;
    let summary = daemon::run(&mut d, &requests, setup_s, traced, Calibrator::new());
    d.stop()?;
    Ok(summary)
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                args.workloads = vec![w.ok_or_else(|| format!("unknown workload `{value}`"))?];
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(String::new()));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// glibc raises its mmap threshold whenever a large mmapped block is freed;
/// later large buffers then come from per-thread heaps that keep their
/// pages, so the daemon's peak RSS depends on the order in which its
/// threads happened to free (49–80 MB over five `daemon-mix` runs). Pinning
/// the threshold at its 128 KiB default keeps large buffers mmapped, and
/// peak RSS tracks live memory (34–43 MB). Only the daemon workload pins
/// it: the in-process ones are single-threaded, and a pinned threshold
/// makes every large buffer fault its pages in afresh (2.2 M page faults
/// in a `cold-compile` run against 0.8 M).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes allocator tuning; it runs before the
    // daemon's threads exist.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = Metrics::default();
    for &w in &args.workloads {
        let s = match run(w, args.seed, args.seconds, args.trace) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("pipebench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        for f in s.failures.iter().take(20) {
            eprintln!("pipebench: {}: FAILED {f}", w.name());
        }
        let metrics = if args.trace {
            s.metrics.per_layer()
        } else {
            s.metrics
        };
        metrics.print(w.name());
        let (slowdown, samples) = s.host;
        println!(
            "{:<14} host slowdown {slowdown:.4} over {samples} reference samples; \
             end-to-end times are in reference-host units",
            w.name()
        );
        println!(
            "{:<14} {} ops, {} failed, output digest {:016x}",
            w.name(),
            s.attempted,
            s.failures.len(),
            s.digest
        );
        attempted += s.attempted;
        failed += s.failures.len();
        if args.workloads.len() == 1 {
            combined = metrics;
        } else {
            combined.extend_prefixed(w.name(), metrics);
        }
    }
    println!("{}", combined.result_json(attempted, failed).dump());
    ExitCode::SUCCESS
}
