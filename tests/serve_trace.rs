//! Contract tests for per-request tracing: a cold solve's trace tree must
//! show the request passing through admission, the queue and the solver;
//! a warm hit must show the cache short-circuit and *no* solve span; and
//! the daemon's trace ring must replay completed trees as Chrome trace
//! events.

use compile_time_dvs::obs::json::Json;
use compile_time_dvs::serve::{Client, Request, ServeConfig, Server, SolveOp, SolveRequest};
use std::time::Duration;

fn spawn_server() -> (
    String,
    std::thread::JoinHandle<std::io::Result<compile_time_dvs::serve::ServeSummary>>,
) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server
        .local_addr()
        .expect("bound socket has addr")
        .to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn compile_request(trace_id: Option<u64>) -> Request {
    solve_request(SolveOp::Compile, trace_id)
}

fn solve_request(op: SolveOp, trace_id: Option<u64>) -> Request {
    Request::Solve(SolveRequest {
        op,
        benchmark: "ghostscript".to_string(),
        deadline_index: 3,
        levels: 3,
        capacitance_uf: 0.05,
        solver: "auto".to_string(),
        timeout_ms: None,
        trace_id,
    })
}

/// Pulls `(id, parent, name, ts_us, dur_us)` rows out of a trace tree.
fn spans_of(tree: &Json) -> Vec<(u64, u64, String, f64, f64)> {
    tree.get("spans")
        .and_then(Json::as_arr)
        .expect("trace tree has spans")
        .iter()
        .map(|s| {
            (
                s.get("id").and_then(Json::as_u64).expect("span id"),
                s.get("parent").and_then(Json::as_u64).expect("span parent"),
                s.get("name")
                    .and_then(Json::as_str)
                    .expect("span name")
                    .to_string(),
                s.get("ts_us").and_then(Json::as_f64).expect("span ts"),
                s.get("dur_us").and_then(Json::as_f64).expect("span dur"),
            )
        })
        .collect()
}

fn names(spans: &[(u64, u64, String, f64, f64)]) -> Vec<&str> {
    spans.iter().map(|(_, _, n, _, _)| n.as_str()).collect()
}

/// A cold solve's trace: root `request` span (id 1, parent 0), with
/// cache-lookup, queue-wait, solve and emit all children of the root,
/// timestamped within the root's duration; the client-chosen trace id
/// round-trips.
#[test]
fn cold_solve_trace_has_queue_and_solve_spans() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(&addr, Some(Duration::from_secs(120))).expect("connect");

    let cold = client
        .request(&compile_request(Some(777)))
        .expect("cold request");
    assert!(cold.ok && !cold.cached);
    let tree = cold.trace.as_ref().expect("cold reply carries a trace");
    assert_eq!(
        tree.get("trace_id").and_then(Json::as_u64),
        Some(777),
        "client-chosen trace id must round-trip"
    );

    let spans = spans_of(tree);
    let got = names(&spans);
    assert_eq!(
        got,
        ["request", "cache-lookup", "queue-wait", "solve", "emit"],
        "cold solve spans out of order or missing"
    );
    let (root_id, root_parent, _, root_ts, root_dur) = spans[0].clone();
    assert_eq!((root_id, root_parent, root_ts), (1, 0, 0.0));
    let mut ids = vec![root_id];
    for (id, parent, name, ts, dur) in &spans[1..] {
        assert_eq!(*parent, root_id, "{name} must be a child of the root");
        assert!(!ids.contains(id), "span ids must be unique");
        ids.push(*id);
        assert!(
            *ts >= 0.0 && ts + dur <= root_dur * 1.001,
            "{name} span exceeds root"
        );
    }

    // Warm hit: cache-hit span, no queue/solve; server-assigned trace id.
    let warm = client
        .request(&compile_request(None))
        .expect("warm request");
    assert!(warm.ok && warm.cached);
    let warm_tree = warm.trace.as_ref().expect("warm reply carries a trace");
    let warm_spans = spans_of(warm_tree);
    assert_eq!(
        names(&warm_spans),
        ["request", "cache-lookup", "cache-hit", "emit"],
        "warm hit must short-circuit at the cache"
    );
    assert!(
        warm_tree.get("trace_id").and_then(Json::as_u64).is_some(),
        "server must assign a trace id when the client sends none"
    );

    // The result bytes are still byte-identical cold vs warm — the trace
    // rides the envelope, never the cached body.
    assert_eq!(
        cold.result.as_ref().map(Json::dump),
        warm.result.as_ref().map(Json::dump),
        "tracing must not perturb the cache's byte-identity contract"
    );

    // The trace ring replays both trees, flattened to Chrome events.
    let ring = client.request(&Request::Traces).expect("traces op");
    assert!(ring.ok);
    let body = ring.result.expect("traces reply carries result");
    assert!(
        body.get("count").and_then(Json::as_u64) >= Some(2),
        "ring must hold both completed traces"
    );
    let chrome = body
        .get("chrome")
        .and_then(Json::as_arr)
        .expect("traces reply carries chrome events");
    assert!(chrome.len() >= 9, "expected both trees' spans as events");
    for ev in chrome {
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert!(ev.get("ts").and_then(Json::as_f64).is_some());
        assert!(ev.get("dur").and_then(Json::as_f64).is_some());
    }

    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean run");
}

/// A certify solve's trace: the prover's `cert-prove` span and then the
/// checker's `cert-check` span, both children of the root, lying inside
/// `solve` in that order without overlapping.
#[test]
fn certify_trace_has_prove_then_check_inside_solve() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(&addr, Some(Duration::from_secs(120))).expect("connect");

    let reply = client
        .request(&solve_request(SolveOp::Certify, Some(778)))
        .expect("certify request");
    assert!(reply.ok && !reply.cached, "{:?}", reply.error);
    let spans = spans_of(reply.trace.as_ref().expect("reply carries a trace"));
    assert_eq!(
        names(&spans),
        [
            "request",
            "cache-lookup",
            "queue-wait",
            "solve",
            "cert-prove",
            "cert-check",
            "emit"
        ],
        "certify spans out of order or missing"
    );
    let span = |name: &str| {
        let (_, parent, _, ts, dur) = spans
            .iter()
            .find(|s| s.2 == name)
            .cloned()
            .expect("span present");
        assert_eq!(parent, 1, "{name} must be a child of the root");
        (ts, ts + dur)
    };
    let (solve, prove, check) = (span("solve"), span("cert-prove"), span("cert-check"));
    // The spans are placed backwards from the solve's end, so float
    // rounding can move an edge by an ulp.
    let eps = 1e-6 * solve.1;
    assert!(
        prove.1 > prove.0 && check.1 > check.0,
        "empty certify spans"
    );
    assert!(solve.0 <= prove.0 + eps, "cert-prove starts before solve");
    assert!(prove.1 <= check.0 + eps, "cert-prove overlaps cert-check");
    assert!(check.1 <= solve.1 + eps, "cert-check ends after solve");

    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean run");
}
