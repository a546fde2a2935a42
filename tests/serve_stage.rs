//! The daemon computes the deadline-independent stage of a request — the
//! profile and the deadline scheme of its (benchmark, ladder) — once, and
//! every later request on that pair walks the trace only for its own
//! validation.
//!
//! dvs-obs counters are process-wide, so this file holds one test: no
//! other test's simulator walks can land in its counts.

use compile_time_dvs::obs;
use compile_time_dvs::serve::{Client, Request, ServeConfig, Server, SolveOp, SolveRequest};
use std::time::Duration;

fn sim_walks() -> u64 {
    obs::MetricsSnapshot::capture().counter("sim.walks")
}

#[test]
fn a_resident_stage_leaves_each_request_only_its_own_walks() {
    obs::enable();
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound socket has addr");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr.to_string(), Some(Duration::from_secs(120)))
        .expect("connect to test daemon");
    // Every request is cold (a new deadline or op), on 3-level ghostscript.
    let mut walks_of = |op: SolveOp, deadline_index: usize| {
        let before = sim_walks();
        let reply = client
            .request(&Request::Solve(SolveRequest {
                op,
                benchmark: "ghostscript".to_string(),
                deadline_index,
                levels: 3,
                capacitance_uf: 0.05,
                solver: "auto".to_string(),
                timeout_ms: None,
                trace_id: None,
            }))
            .expect("solve reply");
        assert!(reply.ok, "{op:?} D{deadline_index}: {:?}", reply.error);
        assert!(!reply.cached, "{op:?} D{deadline_index} was a cache hit");
        sim_walks() - before
    };
    // The profile times the three reference points, so the deadline
    // scheme costs no walk of its own.
    assert_eq!(walks_of(SolveOp::Compile, 3), 2, "profile and validation");
    assert_eq!(walks_of(SolveOp::Verify, 1), 0, "verify reads the stage");
    assert_eq!(walks_of(SolveOp::Certify, 2), 0, "certify reads the stage");
    assert_eq!(walks_of(SolveOp::Compile, 4), 1, "validation only");
    assert_eq!(walks_of(SolveOp::Evaluate, 5), 1, "validation only");
    client
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    let summary = handle.join().expect("server thread").expect("clean run");
    assert_eq!(
        (summary.cache.stage_misses, summary.cache.stage_hits),
        (1, 4),
        "one stage, computed once"
    );
}
