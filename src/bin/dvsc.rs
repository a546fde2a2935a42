//! `dvsc` — command-line front end for the compile-time DVS pass.
//!
//! ```text
//! dvsc list
//! dvsc compile --benchmark gsm --deadline 3 [--levels 3] [--capacitance 0.05]
//!              [--solver auto|bnb|continuous] [--certify] [--emit listing.s]
//!              [--no-validate] [--metrics] [--trace-out trace.json]
//! dvsc analyze --benchmark epic [--levels 7]
//! dvsc check [--seeds N] [--seed-base S] [--max-blocks K] [--jobs J]
//!            [--repro-out FILE]
//! dvsc verify [--benchmark gsm] [--deadline 1..5] [--deny] [--json]
//!             [--dot out.dot] [--mutate SEED] [--levels N]
//!             [--capacitance µF] [--jobs N]
//! dvsc serve [--addr HOST:PORT] [--jobs N] [--cache-bytes B]
//!            [--queue-depth D]
//! dvsc client <compile|verify|evaluate|certify|ping|stats|traces|shutdown>
//!             [--addr HOST:PORT] [--benchmark NAME] [--deadline 1..5]
//!             [--solver NAME] [--json]
//! dvsc client trace <compile|verify|evaluate|certify> --benchmark NAME
//!             [--deadline 1..5]
//! dvsc loadtest [--addr HOST:PORT] [--clients N] [--requests M]
//!               [--benchmark NAME]
//! dvsc bench-solver [--jobs N] [--out FILE]
//! dvsc bench-replay [--jobs N] [--out FILE]
//! ```
//!
//! `compile` runs profile → filter → MILP → schedule on a built-in
//! workload, re-simulates the schedule and prints predicted vs measured
//! numbers. `--solver` picks the MILP backend: `auto` (the default)
//! dispatches by model shape, `bnb` forces branch-and-bound, and
//! `continuous` forces the exact continuous-voltage algorithm (which
//! rounds integer models to a feasible schedule and reports the
//! continuous optimum as the bound). `--certify` exports the solver's
//! optimality proof as a `dvs-cert` certificate and replays it through
//! the independent exact-arithmetic checker, failing the compile (exit 1)
//! if the checker rejects it. `analyze` prints the §3 analytical parameters and the
//! savings bound per deadline. `check` fuzzes the whole pipeline with
//! seeded random programs and cross-checks the MILP against brute-force
//! enumeration, analytical lower bounds and simulator replay, shrinking
//! any failure to a minimal counterexample (exit 1 on disagreement;
//! `--repro-out` saves the repro command lines). `verify` compiles each
//! benchmark (all of them by default, fanned out over a worker pool) and
//! runs the `dvs-verify` static pass over the emitted schedule: mode
//! confluence, WCET deadline bound and the V001–V009 lints. Each row also
//! gives the schedule's simulated time and transitions on the benchmark's
//! trace. `--deny` exits 1 if any error-severity diagnostic fires,
//! `--json` switches to machine-readable output, `--dot` writes a
//! mode-colored CFG overlay, and `--mutate SEED` deliberately corrupts one
//! hot mode-set first (for testing that the verifier catches it).
//! Invoking `dvsc` with flags but no subcommand implies `compile`.
//!
//! `serve` runs the compilation-as-a-service daemon (content-addressed
//! solve cache, request coalescing, bounded admission queue); `client`
//! sends one request to a running daemon (`evaluate` compiles and scores
//! the emitted schedule with the simulator's validation run, as `compile`
//! does); `loadtest` hammers a daemon from N concurrent connections and
//! writes throughput/latency percentiles (plus trace-derived queue-wait
//! and cache-lookup means) to `results/serve.csv`. `client trace <op>`
//! runs one solve and prints the server's per-request trace tree (queue
//! wait, cache lookup, solve, emit spans); `client traces` fetches the
//! daemon's recent trace ring as Chrome trace events. The global
//! `--timeout <secs>` flag bounds `compile`/`verify`/`check` wall-clock
//! (exit code 3 on expiry) and doubles as the server-side request
//! deadline for `client` and `loadtest`.
//!
//! `bench-solver` runs the pinned MILP benchmark grid (CFG sizes ×
//! ladder shapes × deadline tightnesses × solver backends) and writes
//! `BENCH_solver.json`: wall-clock percentiles per cell plus the
//! deterministic solver search counters the committed baseline pins.
//! `bench-replay` does the same for the `dvs-replay` bytecode
//! interpreter: each cell scores a batch of schedules on the cycle-level
//! simulator and on compiled bytecode, checks 1e-6 agreement, and writes
//! `BENCH_replay.json` with the per-cell speedup. Both exit 1 if the
//! report breaks an invariant of `bench::check_report` (a failed cell,
//! a disagreement, an increasing incumbent trajectory, ...).
//!
//! `--metrics` prints a pipeline metrics summary (counters, gauges,
//! histograms) after the run; `--trace-out FILE` writes a Chrome
//! trace-event JSON file loadable in `chrome://tracing` or Perfetto.

use compile_time_dvs::bench::check_report;
use compile_time_dvs::check::{run_check, CheckConfig, Tolerances};
use compile_time_dvs::compiler::{analyze_params, emit_instrumented, DeadlineScheme, DvsCompiler};
use compile_time_dvs::ir;
use compile_time_dvs::model::DiscreteModel;
use compile_time_dvs::obs;
use compile_time_dvs::runtime::Pool;
use compile_time_dvs::serve;
use compile_time_dvs::sim::{Machine, ModeProfiler, ScheduledRun};
use compile_time_dvs::verify;
use compile_time_dvs::vf::{TransitionModel, VoltageLadder};
use compile_time_dvs::workloads::Benchmark;
use compile_time_dvs::{bench_replay, bench_solver};
use std::process::ExitCode;

#[derive(Clone)]
struct Args {
    benchmark: Option<String>,
    deadline_index: usize,
    levels: usize,
    capacitance_uf: f64,
    emit: Option<String>,
    validate: bool,
    certify: bool,
    metrics: bool,
    trace_out: Option<String>,
    jobs: usize,
    seeds: u64,
    seed_base: u64,
    max_blocks: usize,
    repro_out: Option<String>,
    json: bool,
    deny: bool,
    dot: Option<String>,
    mutate: Option<u64>,
    addr: String,
    cache_bytes: usize,
    queue_depth: usize,
    clients: usize,
    requests: usize,
    timeout_secs: Option<f64>,
    client_op: Option<String>,
    out: Option<String>,
    solver: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dvsc list\n  dvsc [compile] --benchmark <name> [--deadline 1..5] \
         [--levels N] [--capacitance µF] [--emit FILE] [--no-validate]\n  \
         \x20              [--solver auto|bnb|continuous] [--certify] [--metrics] \
         [--trace-out FILE]\n  \
         dvsc analyze --benchmark <name> [--levels N]\n  \
         dvsc check [--seeds N] [--seed-base S] [--max-blocks K] [--jobs J] \
         [--repro-out FILE]\n  \
         dvsc verify [--benchmark <name>] [--deadline 1..5] [--deny] [--json] \
         [--dot FILE]\n  \
         \x20              [--mutate SEED] [--levels N] [--capacitance µF] [--jobs N]\n  \
         dvsc serve [--addr HOST:PORT] [--jobs N] [--cache-bytes B] [--queue-depth D]\n  \
         dvsc client <compile|verify|evaluate|certify|ping|stats|traces|shutdown> \
         [--addr HOST:PORT] [--benchmark <name>]\n  \
         \x20              [--deadline 1..5] [--levels N] [--capacitance µF] \
         [--solver NAME] [--json]\n  \
         dvsc client trace <compile|verify|evaluate|certify> --benchmark <name> \
         [--deadline 1..5]\n  \
         dvsc loadtest [--addr HOST:PORT] [--clients N] [--requests M] \
         [--benchmark <name>]\n  \
         dvsc bench-solver [--jobs N] [--out FILE]\n  \
         dvsc bench-replay [--jobs N] [--out FILE]\n  \
         dvsc --timeout <secs> ...   (bounds compile/verify/check; request \
         deadline for client/loadtest)\n  \
         dvsc --version"
    );
    ExitCode::from(2)
}

/// Parses the command line, reporting exactly which flag failed and why.
/// A leading flag (no subcommand) implies `compile`, so the common
/// `dvsc --benchmark adpcm --deadline 2` invocation works as-is.
fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut it = argv.iter().peekable();
    let cmd = match it.peek() {
        None => return Err("missing subcommand (try `dvsc list`)".into()),
        Some(tok) if tok.starts_with('-') => "compile".to_string(),
        Some(_) => it.next().expect("peeked").clone(),
    };
    let mut args = Args {
        benchmark: None,
        deadline_index: 3,
        levels: 3,
        capacitance_uf: 0.05,
        emit: None,
        validate: true,
        certify: false,
        metrics: false,
        trace_out: None,
        jobs: 1,
        seeds: 1000,
        seed_base: 42,
        max_blocks: 6,
        repro_out: None,
        json: false,
        deny: false,
        dot: None,
        mutate: None,
        addr: "127.0.0.1:7411".to_string(),
        cache_bytes: 64 << 20,
        queue_depth: 64,
        clients: 4,
        requests: 100,
        timeout_secs: None,
        client_op: None,
        out: None,
        solver: "auto".to_string(),
    };
    // `client` takes a positional operation before any flags — two for
    // `client trace <op>`.
    if cmd == "client" {
        let mut ops: Vec<String> = Vec::new();
        while let Some(tok) = it.peek() {
            if tok.starts_with('-') || ops.len() == 2 {
                break;
            }
            ops.push(it.next().expect("peeked").clone());
        }
        if !ops.is_empty() {
            args.client_op = Some(ops.join(" "));
        }
    }
    fn value<'a>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} requires a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag}: invalid value `{raw}` (expected a number)"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--benchmark" | "-b" => args.benchmark = Some(value(flag, &mut it)?.clone()),
            "--deadline" | "-d" => {
                args.deadline_index = number(flag, value(flag, &mut it)?)?;
            }
            "--levels" | "-l" => args.levels = number(flag, value(flag, &mut it)?)?,
            "--capacitance" | "-c" => {
                args.capacitance_uf = number(flag, value(flag, &mut it)?)?;
                if !args.capacitance_uf.is_finite() || args.capacitance_uf < 0.0 {
                    return Err("--capacitance must be a finite number of at least 0".into());
                }
            }
            "--emit" | "-e" => args.emit = Some(value(flag, &mut it)?.clone()),
            "--no-validate" => args.validate = false,
            "--certify" => args.certify = true,
            "--metrics" | "-m" => args.metrics = true,
            "--trace-out" | "-t" => args.trace_out = Some(value(flag, &mut it)?.clone()),
            "--jobs" | "-j" => {
                args.jobs = number(flag, value(flag, &mut it)?)?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--seeds" => {
                args.seeds = number(flag, value(flag, &mut it)?)?;
                if args.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--seed-base" => args.seed_base = number(flag, value(flag, &mut it)?)?,
            "--max-blocks" => {
                args.max_blocks = number(flag, value(flag, &mut it)?)?;
                if args.max_blocks < 3 {
                    return Err("--max-blocks must be at least 3 (entry, body, exit)".into());
                }
            }
            "--repro-out" => args.repro_out = Some(value(flag, &mut it)?.clone()),
            "--addr" | "-a" => args.addr = value(flag, &mut it)?.clone(),
            "--cache-bytes" => args.cache_bytes = number(flag, value(flag, &mut it)?)?,
            "--queue-depth" => args.queue_depth = number(flag, value(flag, &mut it)?)?,
            "--clients" => {
                args.clients = number(flag, value(flag, &mut it)?)?;
                if args.clients == 0 {
                    return Err("--clients must be at least 1".into());
                }
            }
            "--requests" => {
                args.requests = number(flag, value(flag, &mut it)?)?;
                if args.requests == 0 {
                    return Err("--requests must be at least 1".into());
                }
            }
            "--timeout" => {
                let secs: f64 = number(flag, value(flag, &mut it)?)?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--timeout must be positive".into());
                }
                args.timeout_secs = Some(secs);
            }
            "--solver" => {
                let raw = value(flag, &mut it)?;
                if compile_time_dvs::compiler::SolverChoice::parse(raw).is_none() {
                    return Err(format!(
                        "--solver: unknown backend `{raw}` (expected auto, bnb, \
                         branch-and-bound or continuous)"
                    ));
                }
                args.solver = raw.clone();
            }
            "--json" => args.json = true,
            "--deny" => args.deny = true,
            "--out" | "-o" => args.out = Some(value(flag, &mut it)?.clone()),
            "--dot" => args.dot = Some(value(flag, &mut it)?.clone()),
            "--mutate" => args.mutate = Some(number(flag, value(flag, &mut it)?)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((cmd, args))
}

/// Emits the requested observability outputs after a run.
fn finalize_obs(args: &Args) -> Result<(), ExitCode> {
    if let Some(path) = &args.trace_out {
        let json = obs::chrome_trace_string();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("wrote Chrome trace to {path} (load in chrome://tracing or Perfetto)");
    }
    if args.metrics {
        print!("{}", obs::MetricsSnapshot::capture().summary_table());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--version" || a == "-V") {
        println!("dvsc {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let (cmd, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return usage();
        }
    };
    if args.metrics || args.trace_out.is_some() {
        obs::enable();
        obs::reset();
    }
    let code = match cmd.as_str() {
        "list" => {
            println!("{:<14} inputs", "benchmark");
            for b in Benchmark::all() {
                let names: Vec<String> = b.inputs().into_iter().map(|i| i.name).collect();
                println!("{:<14} {}", b.name(), names.join(", "));
            }
            0
        }
        "compile" => with_timeout(&args, "compile", run_compile),
        "analyze" => run_analyze(&args),
        "check" => with_timeout(&args, "check", run_checker),
        "verify" => with_timeout(&args, "verify", run_verify),
        "serve" => run_serve(&args),
        "client" => run_client(&args),
        "loadtest" => run_loadtest(&args),
        "bench-solver" => run_bench(&args, bench_solver::run_bench_solver, "BENCH_solver.json"),
        "bench-replay" => run_bench(&args, bench_replay::run_bench_replay, "BENCH_replay.json"),
        other => {
            eprintln!("error: unknown subcommand `{other}`");
            return usage();
        }
    };
    // Only emit trace/metrics for runs that did real work; a usage error
    // would otherwise print an empty metrics table after the message.
    if code == 0 {
        if let Err(fail) = finalize_obs(&args) {
            return fail;
        }
    }
    ExitCode::from(code)
}

/// Runs `work` under the global `--timeout` watchdog: the command's exit
/// code if it finishes in time, exit code 3 (and an error message) if the
/// deadline expires. Without `--timeout`, runs inline.
fn with_timeout(args: &Args, label: &str, work: fn(&Args) -> u8) -> u8 {
    let Some(secs) = args.timeout_secs else {
        return work(args);
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let owned = args.clone();
    std::thread::spawn(move || {
        let _ = tx.send(work(&owned));
    });
    match rx.recv_timeout(std::time::Duration::from_secs_f64(secs)) {
        Ok(code) => code,
        Err(_) => {
            eprintln!("error: {label} timed out after {secs}s");
            3
        }
    }
}

/// The server-side request deadline derived from `--timeout`.
fn timeout_ms(args: &Args) -> Option<u64> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    args.timeout_secs.map(|s| (s * 1e3).ceil() as u64)
}

/// `dvsc serve`: run the compilation daemon until a client sends
/// `shutdown`.
fn run_serve(args: &Args) -> u8 {
    let config = serve::ServeConfig {
        addr: args.addr.clone(),
        jobs: args.jobs,
        cache_bytes: args.cache_bytes,
        queue_depth: args.queue_depth,
    };
    let server = match serve::Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.addr);
            return 1;
        }
    };
    let addr = server
        .local_addr()
        .map_or_else(|_| args.addr.clone(), |a| a.to_string());
    println!(
        "dvs-serve listening on {addr} (jobs {}, cache {} KiB, queue depth {})",
        args.jobs,
        args.cache_bytes >> 10,
        args.queue_depth
    );
    println!("stop with: dvsc client shutdown --addr {addr}");
    match server.run() {
        Ok(s) => {
            println!(
                "drained: {} requests, {} solves, {} coalesced, {} shed, {} timeouts; \
                 cache {} hits / {} misses / {} evictions; stages {} hits / {} misses",
                s.requests,
                s.solves,
                s.coalesced,
                s.shed,
                s.timeouts,
                s.cache.hits,
                s.cache.misses,
                s.cache.evictions,
                s.cache.stage_hits,
                s.cache.stage_misses
            );
            0
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            1
        }
    }
}

/// Renders a per-request trace tree as an indented span listing, children
/// under their parents in recorded order.
fn print_trace(tree: &obs::json::Json) {
    let trace_id = tree.get("trace_id").and_then(obs::json::Json::as_u64);
    let Some(spans) = tree.get("spans").and_then(obs::json::Json::as_arr) else {
        return;
    };
    println!("trace {}", trace_id.unwrap_or(0));
    fn walk(spans: &[obs::json::Json], parent: u64, depth: usize) {
        for s in spans {
            let get_u64 = |k: &str| s.get(k).and_then(obs::json::Json::as_u64);
            if get_u64("parent") != Some(parent) {
                continue;
            }
            let name = s
                .get("name")
                .and_then(obs::json::Json::as_str)
                .unwrap_or("?");
            let ts = s
                .get("ts_us")
                .and_then(obs::json::Json::as_f64)
                .unwrap_or(0.0);
            let dur = s
                .get("dur_us")
                .and_then(obs::json::Json::as_f64)
                .unwrap_or(0.0);
            println!(
                "  {:indent$}{name:<width$} +{:<9} {}",
                "",
                obs::format_us(ts),
                obs::format_us(dur),
                indent = depth * 2,
                width = 14usize.saturating_sub(depth * 2),
            );
            if let Some(id) = get_u64("id") {
                walk(spans, id, depth + 1);
            }
        }
    }
    walk(spans, 0, 0);
}

/// `dvsc client <op>`: one request against a running daemon.
fn run_client(args: &Args) -> u8 {
    let Some(full_op) = args.client_op.as_deref() else {
        eprintln!(
            "client requires an operation: compile|verify|evaluate|certify|ping|stats|traces|shutdown"
        );
        return 2;
    };
    // `client trace compile` is the two-token form: run a solve and print
    // the server's per-request trace tree instead of the result body.
    let (want_trace, op) = match full_op.split_once(' ') {
        Some(("trace", inner)) => (true, inner),
        Some(_) => {
            eprintln!("unknown client operation `{full_op}` (did you mean `trace <op>`?)");
            return 2;
        }
        None => (false, full_op),
    };
    let request = match op {
        "ping" => serve::Request::Ping,
        "stats" => serve::Request::Stats,
        "traces" => serve::Request::Traces,
        "shutdown" => serve::Request::Shutdown,
        "compile" | "verify" | "evaluate" | "certify" => {
            let Some(name) = &args.benchmark else {
                eprintln!("client {op} requires --benchmark");
                return 2;
            };
            serve::Request::Solve(serve::SolveRequest {
                op: match op {
                    "compile" => serve::SolveOp::Compile,
                    "verify" => serve::SolveOp::Verify,
                    "certify" => serve::SolveOp::Certify,
                    _ => serve::SolveOp::Evaluate,
                },
                benchmark: name.clone(),
                deadline_index: args.deadline_index,
                levels: args.levels,
                capacitance_uf: args.capacitance_uf,
                solver: args.solver.clone(),
                timeout_ms: timeout_ms(args),
                // A stable client-chosen id makes the request easy to find
                // in the daemon's trace ring later.
                trace_id: want_trace.then(|| {
                    let mut h = compile_time_dvs::compiler::fingerprint::Fnv64::new();
                    h.write_str(name);
                    h.write_usize(args.deadline_index);
                    h.finish() % 1_000_000
                }),
            })
        }
        other => {
            eprintln!(
                "unknown client operation `{other}` \
                 (compile|verify|evaluate|certify|ping|stats|traces|shutdown)"
            );
            return 2;
        }
    };
    if want_trace && !matches!(request, serve::Request::Solve(_)) {
        eprintln!("client trace takes a solve operation: compile|verify|evaluate|certify");
        return 2;
    }
    // The server enforces the request deadline itself, so the socket
    // timeout only guards against a dead daemon — give it slack.
    let socket_timeout = args
        .timeout_secs
        .map(|s| std::time::Duration::from_secs_f64(s + 5.0));
    let mut client = match serve::Client::connect(&args.addr, socket_timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", args.addr);
            return 1;
        }
    };
    let reply = match client.request(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("request failed: {e}");
            return 1;
        }
    };
    if !reply.ok {
        eprintln!(
            "error: {}: {}",
            reply.kind.as_deref().unwrap_or("error"),
            reply.error.as_deref().unwrap_or("unknown failure")
        );
        return 1;
    }
    let body = reply.result.unwrap_or(obs::json::Json::Null);
    if want_trace {
        let Some(tree) = &reply.trace else {
            eprintln!("reply carried no trace (daemon predates tracing?)");
            return 1;
        };
        if args.json {
            println!("{}", tree.dump());
        } else {
            println!(
                "{op}: cached={} server={:.1} ms",
                reply.cached,
                reply.server_us / 1e3
            );
            print_trace(tree);
        }
        return 0;
    }
    match op {
        "ping" => println!("pong (server {:.0} µs)", reply.server_us),
        "stats" | "traces" | "shutdown" => {
            println!(
                "{}",
                if args.json {
                    body.dump()
                } else {
                    body.pretty()
                }
            );
            if op == "shutdown" && !args.json {
                println!("server drained and stopped");
            }
        }
        _ => {
            if args.json {
                println!("{}", body.dump());
            } else {
                println!(
                    "{op}: cached={} server={:.1} ms",
                    reply.cached,
                    reply.server_us / 1e3
                );
                println!("{}", body.pretty());
            }
        }
    }
    0
}

/// `dvsc loadtest`: hammer a daemon and write `results/serve.csv`.
fn run_loadtest(args: &Args) -> u8 {
    // Latency histograms land in dvs-obs (under the `serve.loadtest`
    // domain) regardless of `--metrics`.
    obs::enable();
    let config = serve::LoadtestConfig {
        addr: args.addr.clone(),
        clients: args.clients,
        requests: args.requests,
        benchmark: args.benchmark.clone(),
        levels: args.levels,
        capacitance_uf: args.capacitance_uf,
        timeout_ms: timeout_ms(args),
    };
    let report = match serve::run_loadtest(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadtest failed: {e}");
            return 1;
        }
    };
    println!(
        "{} requests over {} clients in {:.2} s: {:.1} req/s",
        args.requests, args.clients, report.wall_s, report.throughput_rps
    );
    println!(
        "latency p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
        report.latency.p50_us / 1e3,
        report.latency.p90_us / 1e3,
        report.latency.p99_us / 1e3,
        report.latency.max_us / 1e3
    );
    println!(
        "cache-hit rate {:.1}% ({} completed, {} shed, {} errors)",
        100.0 * report.cache_hit_rate,
        report.completed,
        report.shed,
        report.errors
    );
    println!(
        "server-side (from traces): queue wait {} mean, cache lookup {} mean",
        obs::format_us(report.mean_queue_wait_us),
        obs::format_us(report.mean_cache_lookup_us)
    );
    let csv = format!(
        "# dvsc loadtest against {}\n\
         domain,clients,requests,completed,shed,errors,wall_s,throughput_rps,\
         p50_us,p90_us,p99_us,max_us,mean_us,cache_hit_rate,\
         queue_wait_us,cache_lookup_us\n\
         serve.loadtest,{},{},{},{},{},{:.6},{:.3},{:.1},{:.1},{:.1},{:.1},{:.1},{:.4},\
         {:.1},{:.1}\n",
        args.addr,
        args.clients,
        args.requests,
        report.completed,
        report.shed,
        report.errors,
        report.wall_s,
        report.throughput_rps,
        report.latency.p50_us,
        report.latency.p90_us,
        report.latency.p99_us,
        report.latency.max_us,
        report.latency.mean_us,
        report.cache_hit_rate,
        report.mean_queue_wait_us,
        report.mean_cache_lookup_us
    );
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write("results/serve.csv", csv))
    {
        eprintln!("cannot write results/serve.csv: {e}");
        return 1;
    }
    println!("wrote results/serve.csv");
    u8::from(report.errors > 0)
}

/// `dvsc bench-solver` and `dvsc bench-replay`: run a pinned benchmark
/// grid, write its report (by default over the committed baseline) and
/// exit 1 on any problem [`check_report`] names.
fn run_bench(args: &Args, run: fn(usize) -> obs::json::Json, default_out: &str) -> u8 {
    let report = run(args.jobs);
    let path = args.out.as_deref().unwrap_or(default_out);
    if let Err(e) = std::fs::write(path, report.pretty() + "\n") {
        eprintln!("cannot write {path}: {e}");
        return 1;
    }
    for key in ["totals", "speedup"] {
        if let Some(v) = report.get(key) {
            println!("{key}: {}", v.dump());
        }
    }
    println!("wrote {path}");
    let problems = check_report(&report);
    for p in &problems {
        eprintln!("error: {p}");
    }
    u8::from(!problems.is_empty())
}

fn run_compile(args: &Args) -> u8 {
    let Some(name) = &args.benchmark else {
        eprintln!("compile requires --benchmark");
        return 2;
    };
    let Ok(b) = Benchmark::find(name).map_err(|e| eprintln!("{e} (try `dvsc list`)")) else {
        return 2;
    };
    if !(1..=5).contains(&args.deadline_index) {
        eprintln!("--deadline must be 1..5");
        return 2;
    }
    let Ok(ladder) = VoltageLadder::paper(args.levels).map_err(|e| eprintln!("bad --levels: {e}"))
    else {
        return 2;
    };

    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let compiler = match DvsCompiler::builder(
        Machine::paper_default(),
        ladder,
        TransitionModel::with_capacitance_uf(args.capacitance_uf),
    )
    .validation(args.validate)
    .certify(args.certify)
    .solver(
        compile_time_dvs::compiler::SolverChoice::parse(&args.solver)
            .expect("--solver was validated during argument parsing"),
    )
    .build()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad compiler settings: {e}");
            return 2;
        }
    };
    let (profile, runs) = compiler.profile(&cfg, &trace);
    let scheme = DeadlineScheme::from_runs_or_measure(&runs, compiler.machine(), &cfg, &trace);
    let deadline = scheme.deadline_us(args.deadline_index);
    println!(
        "{}: t200={:.1} t600={:.1} t800={:.1} µs; deadline D{} = {:.1} µs",
        b.name(),
        scheme.t_slow_us,
        scheme.t_mid_us,
        scheme.t_fast_us,
        args.deadline_index,
        deadline
    );
    let result = match compiler.compile_and_validate(&cfg, &trace, &profile, deadline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compile failed: {e}");
            return 1;
        }
    };

    println!(
        "MILP: {:.1} µs predicted, {:.2} µJ predicted ({} B&B nodes, {:.1} ms solve)",
        result.milp.predicted_time_us,
        result.milp.predicted_energy_uj,
        result.milp.solve_stats.nodes,
        result.milp.solve_time.as_secs_f64() * 1e3,
    );
    // A rejected certificate never reaches this point: the compiler gate
    // turns it into a `PassError::Certify` failure (exit 1 above).
    if let Some(cert) = &result.milp.certificate {
        println!(
            "certificate: accepted by independent checker ({} bound / {} farkas / {} empty \
             leaves, {} branch nodes, {} bytes, proved in {:.1} ms, checked in {:.0} µs)",
            cert.report.bound_leaves,
            cert.report.farkas_leaves,
            cert.report.empty_leaves,
            cert.report.branch_nodes,
            cert.encoded.len(),
            cert.prove_us / 1e3,
            cert.check_us,
        );
    }
    if let Some((m, t, e)) = result.single_mode {
        println!(
            "best single mode: {} -> {:.1} µs, {:.2} µJ  (savings {:.1}%)",
            compiler.ladder().point(m),
            t,
            e,
            100.0 * result.savings_vs_single().unwrap_or(0.0)
        );
    }
    if let Some(v) = &result.validated {
        println!(
            "validated: {:.1} µs measured, {:.2} µJ measured, {} transitions",
            v.time_us, v.processor_energy_uj, v.transitions
        );
    }
    println!(
        "mode-sets: {} live of {} edges ({} silent, hoistable)",
        result.analysis.num_live(),
        cfg.num_edges(),
        result.analysis.num_silent(),
    );
    if let Some(path) = &args.emit {
        let (listing, stats) = emit_instrumented(
            &cfg,
            compiler.ladder(),
            &result.milp.schedule,
            &result.analysis,
        );
        if let Err(e) = std::fs::write(path, listing) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!(
            "wrote {path} ({} of {} naive mode-sets emitted)",
            stats.emitted_mode_sets, stats.naive_mode_sets
        );
    }
    0
}

/// `dvsc check`: differential fuzzing of the compiler pipeline. The report
/// is byte-identical for any `--jobs` value; exit code 1 signals at least
/// one oracle disagreement.
fn run_checker(args: &Args) -> u8 {
    let config = CheckConfig {
        seeds: args.seeds,
        seed_base: args.seed_base,
        max_blocks: args.max_blocks,
        jobs: args.jobs,
        ..CheckConfig::default()
    };
    let report = run_check(&config, &Tolerances::default());
    print!("{}", report.render());
    if let Some(path) = &args.repro_out {
        let lines = report.repro_lines().join("\n");
        if let Err(e) = std::fs::write(path, lines + "\n") {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        if !report.ok() {
            eprintln!(
                "wrote {} repro line(s) to {path}",
                report.repro_lines().len()
            );
        }
    }
    u8::from(!report.ok())
}

/// Everything `verify` learned about one benchmark that compiled: the
/// static report, the resolved deadline, an optional mutation note, an
/// optional rendered DOT overlay, and the simulator's run of the schedule.
struct VerifyOk {
    report: verify::VerifyReport,
    deadline: f64,
    mutation: Option<String>,
    dot: Option<String>,
    simulated: ScheduledRun,
}

/// Per-benchmark outcome: findings or the reason the compile could not
/// produce a schedule.
struct VerifyOut {
    name: &'static str,
    outcome: Result<VerifyOk, String>,
}

#[allow(clippy::too_many_lines)]
fn verify_one(b: Benchmark, ladder: &VoltageLadder, args: &Args, want_dot: bool) -> VerifyOut {
    let name = b.name();
    let run = || -> Result<VerifyOk, String> {
        let cfg = b.build_cfg();
        let trace = b.trace(&cfg, &b.default_input());
        let machine = Machine::paper_default();
        let transition = TransitionModel::with_capacitance_uf(args.capacitance_uf);
        let compiler = DvsCompiler::builder(machine.clone(), ladder.clone(), transition)
            .validation(false)
            .build()
            .map_err(|e| format!("bad compiler settings: {e}"))?;
        let (profile, runs) = compiler.profile(&cfg, &trace);
        let scheme = DeadlineScheme::from_runs_or_measure(&runs, &machine, &cfg, &trace);
        let deadline = scheme.deadline_us(args.deadline_index);
        let result = compiler
            .compile(&cfg, &profile, deadline)
            .map_err(|e| format!("compile failed: {e}"))?;
        let mut schedule = result.milp.schedule.clone();
        let mut mask: Option<Vec<bool>> = Some(result.analysis.emitted_mask());
        let mut mutation = None;
        if let Some(seed) = args.mutate {
            // Corrupt one hot mode-set: drop it a level. The hoisting mask
            // was proven for the original schedule, so the mutant is
            // verified under naive emission.
            let mut eligible: Vec<_> = cfg
                .edges()
                .filter(|e| {
                    profile.edge_count(e.id) > 0 && schedule.edge_modes[e.id.index()].index() > 0
                })
                .map(|e| e.id)
                .collect();
            eligible.sort_by_key(|&e| std::cmp::Reverse(profile.edge_count(e)));
            if eligible.is_empty() {
                return Err("no executed edge above the slowest mode to mutate".into());
            }
            let pick = eligible[(seed as usize) % eligible.len()];
            let old = schedule.edge_modes[pick.index()];
            let new = compile_time_dvs::vf::ModeId(old.index() - 1);
            schedule.edge_modes[pick.index()] = new;
            mask = None;
            mutation = Some(format!(
                "mutated edge {pick} ({} -> {}): m{} -> m{}",
                cfg.block(cfg.edge(pick).src).label,
                cfg.block(cfg.edge(pick).dst).label,
                old.index(),
                new.index()
            ));
        }
        let report = verify::verify(&verify::VerifyInput {
            cfg: &cfg,
            profile: &profile,
            ladder,
            transition: &transition,
            schedule: &schedule,
            emitted: mask.as_deref(),
            deadline_us: Some(deadline),
        });
        let dot = want_dot.then(|| {
            let overlay = ir::DotOverlay {
                edge_modes: schedule
                    .edge_modes
                    .iter()
                    .map(|m| Some(m.index()))
                    .collect(),
                emitted: mask.clone().unwrap_or_else(|| vec![true; cfg.num_edges()]),
                block_modes: report
                    .flow
                    .exec_block
                    .iter()
                    .map(|s| (s.len() == 1).then(|| *s.iter().next().expect("len 1")))
                    .collect(),
                block_notes: report
                    .diagnostics
                    .iter()
                    .filter_map(|d| d.block.map(|b| (b, d.code.code().to_string())))
                    .collect(),
                edge_notes: report
                    .diagnostics
                    .iter()
                    .filter_map(|d| d.edge.map(|e| (e, d.code.code().to_string())))
                    .collect(),
            };
            ir::cfg_to_dot_overlay(&cfg, Some(&profile), &overlay)
        });
        // Dynamic complement to the static report: the schedule measured
        // on the trace.
        let simulated = machine.run_scheduled(&cfg, &trace, ladder, &schedule, &transition);
        Ok(VerifyOk {
            report,
            deadline,
            mutation,
            dot,
            simulated,
        })
    };
    VerifyOut {
        name,
        outcome: run(),
    }
}

/// `dvsc verify`: static schedule verification over built-in benchmarks.
/// Exit code 1 under `--deny` if any benchmark draws an error-severity
/// diagnostic (or fails to compile at all).
fn run_verify(args: &Args) -> u8 {
    let benches: Vec<Benchmark> = match &args.benchmark {
        Some(name) => match Benchmark::find(name) {
            Ok(b) => vec![b],
            Err(e) => {
                eprintln!("{e} (try `dvsc list`)");
                return 2;
            }
        },
        None => Benchmark::all().to_vec(),
    };
    if !(1..=5).contains(&args.deadline_index) {
        eprintln!("--deadline must be 1..5");
        return 2;
    }
    if args.dot.is_some() && benches.len() != 1 {
        eprintln!("--dot requires --benchmark (one CFG per overlay)");
        return 2;
    }
    let Ok(ladder) = VoltageLadder::paper(args.levels).map_err(|e| eprintln!("bad --levels: {e}"))
    else {
        return 2;
    };

    let want_dot = args.dot.is_some();
    let pool = Pool::new(args.jobs);
    let results = pool.map(benches, |_, b| verify_one(b, &ladder, args, want_dot));

    let mut denied = false;
    let mut json_rows = Vec::new();
    for r in &results {
        match &r.outcome {
            Ok(VerifyOk {
                report,
                deadline,
                mutation,
                dot,
                simulated,
            }) => {
                let failed = !report.ok();
                denied |= failed;
                if args.json {
                    let mut row = vec![
                        ("benchmark", obs::json::Json::from(r.name)),
                        (
                            "deadline_index",
                            obs::json::Json::from(args.deadline_index as u64),
                        ),
                        ("report", report.to_json()),
                        (
                            "simulated",
                            obs::json::Json::obj(vec![
                                ("time_us", obs::json::Json::from(simulated.time_us)),
                                (
                                    "processor_energy_uj",
                                    obs::json::Json::from(simulated.processor_energy_uj),
                                ),
                                (
                                    "dram_energy_uj",
                                    obs::json::Json::from(simulated.dram_energy_uj),
                                ),
                                ("transitions", obs::json::Json::from(simulated.transitions)),
                            ]),
                        ),
                    ];
                    if let Some(m) = mutation {
                        row.push(("mutation", obs::json::Json::from(m.as_str())));
                    }
                    json_rows.push(obs::json::Json::obj(row));
                } else {
                    println!(
                        "{}: {} — {} errors, {} warnings, {} infos; modeled {:.1} µs, \
                         wcet {:.1} µs, simulated {:.1} µs ({} transitions), \
                         deadline D{} = {:.1} µs",
                        r.name,
                        if failed { "FAIL" } else { "ok" },
                        report.count(verify::Severity::Error),
                        report.count(verify::Severity::Warning),
                        report.count(verify::Severity::Info),
                        report.modeled_time_us,
                        report.wcet.bound_us,
                        simulated.time_us,
                        simulated.transitions,
                        args.deadline_index,
                        deadline
                    );
                    if let Some(m) = mutation {
                        println!("  {m}");
                    }
                    for d in &report.diagnostics {
                        println!("  {}", d.render());
                    }
                }
                if let (Some(path), Some(dot)) = (&args.dot, dot) {
                    if let Err(e) = std::fs::write(path, dot) {
                        eprintln!("cannot write {path}: {e}");
                        return 1;
                    }
                    if !args.json {
                        println!("  wrote mode overlay to {path}");
                    }
                }
            }
            Err(msg) => {
                denied = true;
                if args.json {
                    json_rows.push(obs::json::Json::obj(vec![
                        ("benchmark", obs::json::Json::from(r.name)),
                        ("error", obs::json::Json::from(msg.as_str())),
                    ]));
                } else {
                    println!("{}: FAIL — {msg}", r.name);
                }
            }
        }
    }
    if args.json {
        println!(
            "{}",
            obs::json::Json::obj(vec![
                ("denied", obs::json::Json::from(denied && args.deny)),
                ("benchmarks", obs::json::Json::Arr(json_rows)),
            ])
            .dump()
        );
    }
    u8::from(args.deny && denied)
}

fn run_analyze(args: &Args) -> u8 {
    let Some(name) = &args.benchmark else {
        eprintln!("analyze requires --benchmark");
        return 2;
    };
    let Ok(b) = Benchmark::find(name).map_err(|e| eprintln!("{e} (try `dvsc list`)")) else {
        return 2;
    };
    let Ok(ladder) = VoltageLadder::paper(args.levels).map_err(|e| eprintln!("bad --levels: {e}"))
    else {
        return 2;
    };
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let machine = Machine::paper_default();
    let (_, runs, fastest) =
        ModeProfiler::new(machine.clone()).profile_with_fastest(&cfg, &trace, &ladder);
    let scheme = DeadlineScheme::from_runs_or_measure(&runs, &machine, &cfg, &trace);
    let params = analyze_params(&fastest);
    println!(
        "{}: Noverlap={:.0} Ndependent={:.0} Ncache={:.0} cycles, tinvariant={:.1} µs",
        b.name(),
        params.n_overlap,
        params.n_dependent,
        params.n_cache,
        params.t_invariant_us
    );
    let model = DiscreteModel::new(ladder);
    println!("{:<4} {:>12} {:>10}", "D", "deadline µs", "bound");
    for i in 1..=5usize {
        let d = scheme.deadline_us(i);
        let s = model
            .savings(&params, d)
            .map_or("inf.".to_string(), |s| format!("{s:.3}"));
        println!("D{i:<3} {d:>12.1} {s:>10}");
    }
    0
}
