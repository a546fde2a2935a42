//! Contract tests for per-request tracing: a cold solve's trace tree must
//! show the request passing through admission, the queue and the solver,
//! with the pass's own stages nested under `solve`; a warm hit must show
//! the cache short-circuit and *no* solve span; and the daemon's trace ring
//! must replay completed trees as Chrome trace events.

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

/// One row of a trace tree.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    ts: f64,
    dur: f64,
}

/// Pulls the rows out of a trace tree, in wire order.
fn spans_of(tree: &Json) -> Vec<Span> {
    tree.get("spans")
        .and_then(Json::as_arr)
        .expect("trace tree has spans")
        .iter()
        .map(|s| Span {
            id: s.get("id").and_then(Json::as_u64).expect("span id"),
            parent: s.get("parent").and_then(Json::as_u64).expect("span parent"),
            name: s
                .get("name")
                .and_then(Json::as_str)
                .expect("span name")
                .to_string(),
            ts: s.get("ts_us").and_then(Json::as_f64).expect("span ts"),
            dur: s.get("dur_us").and_then(Json::as_f64).expect("span dur"),
        })
        .collect()
}

fn names(spans: &[Span]) -> Vec<&str> {
    spans.iter().map(|s| s.name.as_str()).collect()
}

/// The one span named `name`.
fn one<'a>(spans: &'a [Span], name: &str) -> &'a Span {
    let mut found = spans.iter().filter(|s| s.name == name);
    let span = found.next().unwrap_or_else(|| panic!("no `{name}` span"));
    assert!(found.next().is_none(), "more than one `{name}` span");
    span
}

/// The names of `parent`'s children, in wire order.
fn children<'a>(spans: &'a [Span], parent: &Span) -> Vec<&'a str> {
    spans
        .iter()
        .filter(|s| s.parent == parent.id)
        .map(|s| s.name.as_str())
        .collect()
}

/// The tree's shape contract: the root `request` (id 1, parent 0, ts 0)
/// comes first, ids are unique, and every other span's parent comes
/// before it and encloses it, within 1e-6 of the root's duration.
fn assert_well_formed(spans: &[Span]) {
    let root = &spans[0];
    assert_eq!(
        (root.id, root.parent, root.name.as_str(), root.ts),
        (1, 0, "request", 0.0),
        "the root must be `request`, id 1, parent 0, at 0"
    );
    let eps = 1e-6 * root.dur;
    for (i, s) in spans.iter().enumerate().skip(1) {
        assert!(
            spans[..i].iter().all(|e| e.id != s.id),
            "span ids must be unique: {s:?}"
        );
        let p = spans[..i]
            .iter()
            .find(|p| p.id == s.parent)
            .unwrap_or_else(|| panic!("{s:?}'s parent does not come before it"));
        assert!(s.dur >= 0.0, "{s:?} has a negative duration");
        assert!(
            p.ts <= s.ts + eps && s.ts + s.dur <= p.ts + p.dur + eps,
            "{s:?} is not inside its parent {p:?}"
        );
    }
}

/// A cold solve's trace: the root's children are exactly cache-lookup,
/// queue-wait, solve and emit, and the pass's stages nest under `solve`;
/// the client-chosen trace id round-trips. A warm hit short-circuits at
/// the cache, and the ring replays both trees as Chrome events.
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
    assert_well_formed(&spans);
    assert_eq!(
        children(&spans, &spans[0]),
        ["cache-lookup", "queue-wait", "solve", "emit"],
        "the root's children out of order or missing"
    );
    let solve = one(&spans, "solve");
    let stages = children(&spans, solve);
    for stage in [
        "build",
        "pass.profile",
        "pass.filter",
        "pass.formulate",
        "pass.solve",
        "pass.schedule",
        "pass.validate",
    ] {
        assert!(
            stages.contains(&stage),
            "`{stage}` must be a child of `solve`: {stages:?}"
        );
    }
    assert!(
        spans
            .iter()
            .filter(|s| s.name == "build")
            .all(|s| s.parent == solve.id),
        "every `build` span belongs to `solve`"
    );

    // Warm hit: cache-hit span, no queue/solve; server-assigned trace id.
    let warm = client
        .request(&compile_request(None))
        .expect("warm request");
    assert!(warm.ok && warm.cached);
    let warm_tree = warm.trace.as_ref().expect("warm reply carries a trace");
    let warm_spans = spans_of(warm_tree);
    assert_well_formed(&warm_spans);
    assert_eq!(
        names(&warm_spans),
        ["request", "cache-lookup", "cache-hit", "emit"],
        "warm hit must short-circuit at the cache"
    );
    assert!(
        warm_spans[1..].iter().all(|s| s.parent == 1),
        "a hit's spans are children of the root"
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

    // The trace ring replays both trees, flattened to Chrome events that
    // keep each span's tree links on its trace's track.
    let ring = client.request(&Request::Traces).expect("traces op");
    assert!(ring.ok);
    let body = ring.result.expect("traces reply carries result");
    let trees = body
        .get("traces")
        .and_then(Json::as_arr)
        .expect("traces reply carries the trees");
    assert_eq!(
        body.get("count").and_then(Json::as_u64),
        Some(trees.len() as u64)
    );
    let dumps: Vec<String> = trees.iter().map(Json::dump).collect();
    assert!(
        dumps.contains(&tree.dump()) && dumps.contains(&warm_tree.dump()),
        "ring must replay both completed trees"
    );
    let chrome = body
        .get("chrome")
        .and_then(Json::as_arr)
        .expect("traces reply carries chrome events");
    let mut events = chrome.iter();
    for t in trees {
        let trace_id = t.get("trace_id").and_then(Json::as_u64);
        for s in spans_of(t) {
            let ev = events.next().expect("one Chrome event per span");
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(ev.get("name").and_then(Json::as_str), Some(s.name.as_str()));
            assert!(ev.get("ts").and_then(Json::as_f64).is_some());
            assert!(ev.get("dur").and_then(Json::as_f64).is_some());
            assert_eq!(ev.get("tid").and_then(Json::as_u64), trace_id);
            let arg = |k: &str| ev.get("args").and_then(|a| a.get(k)).and_then(Json::as_u64);
            assert_eq!((arg("span"), arg("parent")), (Some(s.id), Some(s.parent)));
        }
    }
    assert!(events.next().is_none(), "no Chrome event without a span");

    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean run");
}

/// A certify solve's trace: the pass's `pass.certify` span and then the
/// checker's `cert-check` span, both children of `solve`, neither empty,
/// in that order without overlapping.
#[test]
fn certify_trace_has_prove_then_check_inside_solve() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(&addr, Some(Duration::from_secs(120))).expect("connect");

    let reply = client
        .request(&solve_request(SolveOp::Certify, Some(778)))
        .expect("certify request");
    assert!(reply.ok && !reply.cached, "{:?}", reply.error);
    let spans = spans_of(reply.trace.as_ref().expect("reply carries a trace"));
    assert_well_formed(&spans);
    let solve = one(&spans, "solve");
    let certify: Vec<&str> = children(&spans, solve)
        .into_iter()
        .filter(|n| ["pass.certify", "cert-check"].contains(n))
        .collect();
    assert_eq!(
        certify,
        ["pass.certify", "cert-check"],
        "certify spans out of order or missing under `solve`"
    );
    let (prove, check) = (one(&spans, "pass.certify"), one(&spans, "cert-check"));
    assert!(prove.dur > 0.0 && check.dur > 0.0, "empty certify spans");
    assert!(
        prove.ts + prove.dur <= check.ts,
        "pass.certify overlaps cert-check"
    );

    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean run");
}
