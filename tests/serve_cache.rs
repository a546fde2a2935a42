//! End-to-end contract tests for the `dvs-serve` daemon: the cache must
//! be invisible in the results (a warm hit returns byte-identical JSON to
//! a cold solve, which in turn matches a direct in-process compile), the
//! load generator's answers must be independent of concurrency, the
//! admission-control edges (shed, per-request timeout, bad request) must
//! fail with their documented machine-readable kinds, two workers must
//! run two cold solves at once, and the cache must hold result bodies and
//! profile stages within one byte budget.

use compile_time_dvs::check::{gen_cfg, gen_ladder, gen_trace, Gen};
use compile_time_dvs::obs::json::Json;
use compile_time_dvs::prelude::*;
use compile_time_dvs::serve::{
    run_loadtest, Client, LoadtestConfig, Reply, Request, ServeConfig, Server, SolveCache, SolveOp,
    SolveRequest, Stage,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Binds a daemon on an ephemeral port and runs it on its own thread.
/// The returned handle resolves once a `shutdown` request drains it.
fn spawn_server(
    mut config: ServeConfig,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<compile_time_dvs::serve::ServeSummary>>,
) {
    config.addr = "127.0.0.1:0".to_string();
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server
        .local_addr()
        .expect("bound socket has addr")
        .to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Some(Duration::from_secs(120))).expect("connect to test daemon")
}

fn compile_request(benchmark: &str, deadline_index: usize) -> Request {
    Request::Solve(SolveRequest {
        op: SolveOp::Compile,
        benchmark: benchmark.to_string(),
        deadline_index,
        levels: 3,
        capacitance_uf: 0.05,
        solver: "auto".to_string(),
        timeout_ms: None,
        trace_id: None,
    })
}

/// Reproduces the daemon's result body for a compile request with a
/// direct in-process run of the pass — same builder settings, same
/// deadline derivation, same serialization.
fn direct_compile_body(b: Benchmark, deadline_index: usize) -> String {
    let compiler = DvsCompiler::builder(
        Machine::paper_default(),
        VoltageLadder::xscale3(&AlphaPower::paper()),
        TransitionModel::with_capacitance_uf(0.05),
    )
    .validation(true)
    .build()
    .expect("paper-default compiler builds");
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let scheme = DeadlineScheme::measure(compiler.machine(), &cfg, &trace);
    let deadline = scheme.deadline_us(deadline_index);
    let (profile, _) = compiler.profile(&cfg, &trace);
    let result = compiler
        .compile_and_validate(&cfg, &trace, &profile, deadline)
        .expect("bundled workloads compile");
    Json::obj([
        ("benchmark", Json::from(b.name())),
        ("deadline_index", Json::from(deadline_index)),
        ("deadline_us", Json::from(deadline)),
        ("compile", result.to_json()),
    ])
    .dump()
}

/// The core cache contract: for every bundled workload, the cold solve,
/// the warm cache hit, and a direct in-process compile all produce the
/// same result JSON, byte for byte.
#[test]
fn warm_cache_results_are_byte_identical_to_direct_compiles() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let mut client = connect(&addr);
    for b in Benchmark::all() {
        let req = compile_request(b.name(), 3);
        let cold = client.request(&req).expect("cold request");
        assert!(cold.ok, "{}: cold solve failed: {:?}", b.name(), cold.error);
        assert!(
            !cold.cached,
            "{}: first solve claimed a cache hit",
            b.name()
        );
        let warm = client.request(&req).expect("warm request");
        assert!(
            warm.ok,
            "{}: warm request failed: {:?}",
            b.name(),
            warm.error
        );
        assert!(warm.cached, "{}: repeat solve missed the cache", b.name());

        let cold_body = cold.result.expect("cold reply carries result").dump();
        let warm_body = warm.result.expect("warm reply carries result").dump();
        assert_eq!(
            cold_body,
            warm_body,
            "{}: cache hit returned different bytes than the cold solve",
            b.name()
        );
        assert_eq!(
            warm_body,
            direct_compile_body(b, 3),
            "{}: daemon result diverged from a direct in-process compile",
            b.name()
        );
    }
    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    let summary = handle.join().expect("server thread").expect("clean run");
    assert_eq!(summary.shed, 0, "sequential requests must never shed");
    assert!(
        summary.cache.hits >= 6,
        "one warm hit per workload expected"
    );
}

/// The point of the cache: a hit must round-trip at least an order of
/// magnitude faster than the cold solve it replaces. Ghostscript is the
/// cheapest bundled workload, so the 10x bound here is the worst case —
/// every other workload clears it by a wider margin.
#[test]
fn cache_hit_roundtrip_is_at_least_10x_faster_than_cold_solve() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = connect(&addr);
    let req = compile_request("ghostscript", 3);

    let t0 = Instant::now();
    let cold = client.request(&req).expect("cold request");
    let cold_rtt = t0.elapsed();
    assert!(cold.ok && !cold.cached);

    // Minimum of several warm round-trips rides out scheduler noise.
    let warm_rtt = (0..5)
        .map(|_| {
            let t = Instant::now();
            let warm = client.request(&req).expect("warm request");
            assert!(warm.ok && warm.cached, "repeat request missed the cache");
            t.elapsed()
        })
        .min()
        .expect("five warm samples");

    assert!(
        cold_rtt >= 10 * warm_rtt,
        "cache hit not 10x faster: cold {cold_rtt:?} vs best warm {warm_rtt:?}"
    );
    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean run");
}

/// The load generator's request mix is a function of the global index, so
/// the per-index result digests must be identical whatever the client
/// count — and on a warm cache, a repeated mix must be nearly all hits.
#[test]
fn loadtest_results_are_independent_of_client_count() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let config = |clients: usize| LoadtestConfig {
        addr: addr.clone(),
        clients,
        requests: 24,
        benchmark: Some("ghostscript".to_string()),
        ..LoadtestConfig::default()
    };

    let serial = run_loadtest(&config(1)).expect("serial load test");
    let parallel = run_loadtest(&config(8)).expect("parallel load test");

    for report in [&serial, &parallel] {
        assert_eq!(report.completed, 24, "every request must complete");
        assert_eq!(
            report.shed, 0,
            "default queue depth must not shed 24 requests"
        );
        assert_eq!(report.errors, 0);
        assert!(report.digests.iter().all(Option::is_some));
    }
    assert_eq!(
        serial.digests, parallel.digests,
        "per-request results changed with the client count"
    );
    // The serial run already populated the cache's 2 distinct entries, so
    // the repeated mix from 8 clients must be served almost entirely warm.
    assert!(
        parallel.cache_hit_rate >= 0.9,
        "warm repeated mix only hit {:.1}% of the time",
        parallel.cache_hit_rate * 100.0
    );
    client_shutdown(&addr);
    handle.join().expect("server thread").expect("clean run");
}

fn client_shutdown(addr: &str) {
    connect(addr)
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
}

/// Admission control edges: a zero-depth queue sheds cold work with an
/// explicit `busy`, and malformed requests are rejected before admission.
#[test]
fn zero_queue_depth_sheds_and_bad_requests_are_rejected() {
    let (addr, handle) = spawn_server(ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut client = connect(&addr);

    let shed = client
        .request(&compile_request("ghostscript", 3))
        .expect("shed reply still arrives");
    assert!(!shed.ok);
    assert_eq!(shed.kind.as_deref(), Some("busy"), "shed must say busy");

    // An unknown name, and a prefix of both mpeg/decode and mpg123.
    for name in ["no-such-benchmark", "mp"] {
        let bad = client
            .request(&compile_request(name, 3))
            .expect("bad-request reply still arrives");
        assert!(!bad.ok);
        assert_eq!(bad.kind.as_deref(), Some("bad_request"), "{name}");
    }
    // `1e999` overflows to an infinite capacitance; a negative one is no
    // regulator either. A ladder of 2^45 levels would size a 512 TiB
    // allocation, and one of 100,000 would cost as many timing passes.
    // All are refused before admission.
    for body in [
        "\"op\":\"certify\",\"benchmark\":\"ghostscript\",\"capacitance_uf\":1e999",
        "\"op\":\"certify\",\"benchmark\":\"ghostscript\",\"capacitance_uf\":-1",
        "\"op\":\"compile\",\"benchmark\":\"gsm\",\"levels\":35184372088832",
        "\"op\":\"compile\",\"benchmark\":\"gsm\",\"levels\":100000",
    ] {
        let raw = client
            .request_raw(&format!("{{{body}}}"))
            .expect("bad-request reply still arrives");
        let bad = Reply::parse(&raw).expect("reply parses");
        assert!(!bad.ok);
        assert_eq!(bad.kind.as_deref(), Some("bad_request"), "{body}");
    }

    let stats = client.request(&Request::Stats).expect("stats");
    let shed_count = stats
        .result
        .as_ref()
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("shed"))
        .and_then(Json::as_u64)
        .expect("stats carries counters.shed");
    assert!(shed_count >= 1, "shed counter must record the busy reply");

    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    let summary = handle.join().expect("server thread").expect("clean run");
    assert!(summary.shed >= 1);
}

/// A per-request deadline abandons the wait with kind `timeout`; the
/// solve still completes in the background and populates the cache, so a
/// retry without a deadline is served warm.
#[test]
fn per_request_timeout_abandons_wait_but_populates_cache() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = connect(&addr);

    let hurried = client
        .request(&Request::Solve(SolveRequest {
            timeout_ms: Some(1),
            ..solve_request_fields("mpg123", 3)
        }))
        .expect("timeout reply still arrives");
    assert!(!hurried.ok, "a 1 ms deadline cannot cover a cold solve");
    assert_eq!(hurried.kind.as_deref(), Some("timeout"));

    // The abandoned solve finishes in the background; the patient retry
    // must be a cache hit.
    let retry = client
        .request(&compile_request("mpg123", 3))
        .expect("retry request");
    assert!(retry.ok, "retry failed: {:?}", retry.error);
    assert!(
        retry.cached || {
            // The retry may race the background solve's cache insert and
            // coalesce onto it instead; either way a further request is warm.
            let third = client
                .request(&compile_request("mpg123", 3))
                .expect("third");
            third.ok && third.cached
        },
        "timed-out solve never populated the cache"
    );

    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    let summary = handle.join().expect("server thread").expect("clean run");
    assert!(
        summary.timeouts >= 1,
        "timeout counter must record the abandon"
    );
}

/// The `evaluate` op scores the emitted schedule with the simulator's
/// validation run: its measured time, processor energy and transitions
/// are the `compile` reply's `validated` figures bit for bit, and repeats
/// are cache hits.
#[test]
fn evaluate_scores_schedules_as_compile_validates() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = connect(&addr);
    for deadline_index in [2, 4] {
        let compiled = client
            .request(&compile_request("ghostscript", deadline_index))
            .expect("compile request");
        assert!(compiled.ok, "compile failed: {:?}", compiled.error);
        let compiled = compiled.result.expect("compile reply carries result");
        let validated = compiled
            .get("compile")
            .and_then(|c| c.get("validated"))
            .expect("compile reply has `compile.validated`");

        let req = Request::Solve(SolveRequest {
            op: SolveOp::Evaluate,
            ..solve_request_fields("ghostscript", deadline_index)
        });
        let cold = client.request(&req).expect("evaluate request");
        assert!(cold.ok, "evaluate failed: {:?}", cold.error);
        let body = cold.result.expect("evaluate reply carries result");
        let eval = body.get("evaluate").expect("result has `evaluate` object");
        assert!(eval.get("predicted_energy_uj").is_some());
        assert!(
            eval.get("bytecode").is_none(),
            "evaluate compiles no bytecode"
        );
        for key in ["time_us", "processor_energy_uj", "transitions"] {
            let bits = |o: &Json| {
                o.get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("D{deadline_index}: no `{key}`"))
                    .to_bits()
            };
            assert_eq!(
                bits(eval),
                bits(validated),
                "D{deadline_index}: evaluate's {key} differs from compile's"
            );
        }

        let warm = client.request(&req).expect("warm evaluate");
        assert!(warm.ok && warm.cached, "repeat evaluate missed the cache");
        assert_eq!(
            warm.result.expect("warm result").dump(),
            body.dump(),
            "cached evaluate returned different bytes"
        );
    }
    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean run");
}

/// `(queue.pending, queue.inflight)` from one `stats` reply.
fn queue_state(client: &mut Client) -> (u64, u64) {
    let stats = client.request(&Request::Stats).expect("stats");
    let queue = stats.result.as_ref().and_then(|r| r.get("queue"));
    let field = |k: &str| {
        queue
            .and_then(|q| q.get(k))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats carries queue.{k}"))
    };
    (field("pending"), field("inflight"))
}

/// Two workers run two cold solves at once: a short solve sent while a
/// long one is running is answered first, instead of waiting for the
/// long one to finish.
#[test]
fn a_second_worker_takes_a_cold_solve_while_the_first_is_busy() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let started = Instant::now();
    let long = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let reply = connect(&addr)
                .request(&Request::Solve(SolveRequest {
                    levels: 13,
                    ..solve_request_fields("ghostscript", 3)
                }))
                .expect("13-level compile");
            (reply, started.elapsed())
        }
    });
    let mut client = connect(&addr);
    while queue_state(&mut client) != (0, 1) {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the 13-level compile never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let short = client
        .request(&Request::Solve(SolveRequest {
            op: SolveOp::Verify,
            ..solve_request_fields("ghostscript", 3)
        }))
        .expect("3-level verify");
    let short_done = started.elapsed();
    let (long, long_done) = long.join().expect("long client");
    assert!(short.ok && long.ok, "{:?} {:?}", short.error, long.error);
    assert!(
        short_done < long_done,
        "the verify ({short_done:?}) waited for the compile ({long_done:?})"
    );
    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean run");
}

fn solve_request_fields(benchmark: &str, deadline_index: usize) -> SolveRequest {
    SolveRequest {
        op: SolveOp::Compile,
        benchmark: benchmark.to_string(),
        deadline_index,
        levels: 3,
        capacitance_uf: 0.05,
        solver: "auto".to_string(),
        timeout_ms: None,
        trace_id: None,
    }
}

/// Random interleavings of body and stage inserts and lookups, under
/// random budgets, never leave the cache over its budget. An entry larger
/// than the whole budget is skipped; any other insert is resident right
/// after it.
#[test]
fn bodies_and_stages_share_one_budget() {
    let profiler = ModeProfiler::new(Machine::paper_default());
    let stages: Vec<Arc<Stage>> = (0..6)
        .map(|seed| {
            let g = &mut Gen::from_seed(0x57a9e + seed);
            let cfg = gen_cfg(g, 16);
            let trace = gen_trace(g, &cfg);
            let (profile, runs) = profiler.profile(&cfg, &trace, &gen_ladder(g));
            let t = runs[0].total_time_us;
            Arc::new(Stage::new(
                &cfg,
                profile,
                DeadlineScheme::from_times(3.0 * t, 2.0 * t, t),
            ))
        })
        .collect();
    let largest = stages.iter().map(|s| s.heap_bytes()).max().unwrap_or(0) as u64;
    for seed in 0..300 {
        let g = &mut Gen::from_seed(seed);
        let mut cache = SolveCache::new(g.below(4 * largest) as usize);
        for step in 0..100 {
            let key = g.below(16);
            let canonical = format!("entry-{key}");
            let before = cache.stats();
            let ctx = format!("seed {seed} step {step}");
            match g.below(4) {
                0 => {
                    let bytes = g.below(2 * largest) as usize;
                    cache.insert(key, &canonical, "x".repeat(bytes));
                    let stored = cache.stats().insertions > before.insertions;
                    assert!(bytes <= before.capacity_bytes || !stored, "{ctx}");
                    assert_eq!(cache.get(key, &canonical).is_some(), stored, "{ctx}");
                }
                1 => {
                    let stage = g.choose(&stages);
                    cache.insert_stage(key, &canonical, Arc::clone(stage));
                    let stored = cache.stats().insertions > before.insertions;
                    assert!(
                        stage.heap_bytes() <= before.capacity_bytes || !stored,
                        "{ctx}"
                    );
                    assert_eq!(cache.get_stage(key, &canonical).is_some(), stored, "{ctx}");
                }
                2 => {
                    let _ = cache.get(key, &canonical);
                }
                _ => {
                    let _ = cache.get_stage(key, &canonical);
                }
            }
            let after = cache.stats();
            assert!(
                after.used_bytes <= after.capacity_bytes,
                "{ctx}: {} bytes over a budget of {}",
                after.used_bytes,
                after.capacity_bytes
            );
            assert_eq!(after.entries == 0, after.used_bytes == 0, "{ctx}");
        }
    }
}
