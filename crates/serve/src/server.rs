//! The daemon: accept loop, admission control, batching dispatcher and
//! the solve executor.
//!
//! One OS thread per connection reads request frames; solve requests pass
//! through a three-stage admission path under a single coordination lock:
//!
//! 1. **Cache** — a content-addressed hit answers immediately with the
//!    stored body.
//! 2. **Coalesce** — a request identical to one already in flight joins
//!    its waiter set instead of enqueueing a second solve.
//! 3. **Admit or shed** — a genuinely new request enters the bounded
//!    pending queue, unless the queue is at `queue_depth`, in which case
//!    the server replies `busy` instead of building unbounded backlog.
//!
//! A single dispatcher thread drains the pending queue in batches and
//! fans each batch out over a [`dvs_runtime::Pool`], so distinct requests
//! solve in parallel while every waiter of a coalesced request is paid by
//! one solve. Shutdown (the `shutdown` request) stops admission, drains
//! the queue and in-flight solves, then stops the accept loop.

use crate::cache::{CacheStats, SolveCache};
use crate::protocol::{
    error_envelope, ok_envelope, ok_envelope_traced, read_frame, write_frame, Request, SolveOp,
    SolveRequest,
};
use crate::trace::{self, TraceCtx, ROOT_SPAN};
use dvs_compiler::{DeadlineScheme, DvsCompiler};
use dvs_obs::json::Json;
use dvs_sim::Machine;
use dvs_vf::{TransitionModel, VoltageLadder};
use dvs_workloads::Benchmark;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocked connection read waits before re-checking the
/// shutdown flag, and how long the accept loop sleeps when idle.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7411` (port `0` picks a free one).
    pub addr: String,
    /// Worker threads for the solve pool (and the batch width).
    pub jobs: usize,
    /// Byte budget for the solve cache.
    pub cache_bytes: usize,
    /// Maximum pending (admitted but not yet dispatched) solves before
    /// new work is shed with `busy`.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7411".to_string(),
            jobs: 1,
            cache_bytes: 64 << 20,
            queue_depth: 64,
        }
    }
}

/// How many completed request traces the daemon retains for the
/// `traces` op.
const TRACE_RING: usize = 64;

/// One admitted solve waiting for (or being) executed.
struct Job {
    key: u64,
    canonical: String,
    request: SolveRequest,
    /// When the job entered the pending queue — the dispatcher derives
    /// the `queue-wait` span from this.
    enqueued: Instant,
}

/// What one executed solve produced: the result body plus the timings
/// the worker side measured, which the connection thread turns into
/// `queue-wait` and `solve` trace spans (plus `cert-prove` and
/// `cert-check` spans for certify solves).
#[derive(Clone)]
struct SolveOutcome {
    body: Result<String, String>,
    queue_wait_us: f64,
    solve_us: f64,
    /// Wall times of the certificate prover and of the independent check,
    /// when the solve was a [`SolveOp::Certify`].
    cert_us: Option<CertTimes>,
}

/// Worker-measured wall times of a certify solve's two certificate stages.
#[derive(Clone, Copy)]
struct CertTimes {
    prove_us: f64,
    check_us: f64,
}

/// The rendezvous between one in-flight solve and its waiters. The slot
/// stays filled after completion so late joiners (admitted before the
/// coordination lock observed the removal) still read the result.
struct Inflight {
    slot: Mutex<Option<SolveOutcome>>,
    done: Condvar,
}

/// Everything the admission path mutates, under one lock so a lookup,
/// a coalesce check and an enqueue are a single atomic decision.
struct Coord {
    cache: SolveCache,
    inflight: HashMap<u64, Arc<Inflight>>,
    queue: VecDeque<Job>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    solves: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
}

struct State {
    coord: Mutex<Coord>,
    work_ready: Condvar,
    queue_depth: usize,
    jobs: usize,
    shutdown: AtomicBool,
    counters: Counters,
    pool: dvs_runtime::Pool,
    domain: u32,
    started: Instant,
    /// Last [`TRACE_RING`] completed solve trace trees, oldest first.
    traces: Mutex<VecDeque<Json>>,
    /// Server-assigned trace ids for requests that did not bring one.
    next_trace: AtomicU64,
}

/// Counter totals reported by [`Server::run`] after shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Frames handled (all ops).
    pub requests: u64,
    /// Solves actually executed.
    pub solves: u64,
    /// Requests that joined an in-flight solve.
    pub coalesced: u64,
    /// Requests shed with `busy`.
    pub shed: u64,
    /// Waits abandoned at the client's deadline.
    pub timeouts: u64,
    /// Cache counters at shutdown.
    pub cache: CacheStats,
}

/// A bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: State,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("jobs", &self.state.jobs)
            .field("queue_depth", &self.state.queue_depth)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listen socket and prepares the shared state (the solve
    /// pool, the cache, the `serve.worker` dvs-obs domain).
    ///
    /// # Errors
    ///
    /// I/O errors from binding `config.addr`.
    pub fn bind(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let jobs = config.jobs.max(1);
        Ok(Server {
            listener,
            state: State {
                coord: Mutex::new(Coord {
                    cache: SolveCache::new(config.cache_bytes),
                    inflight: HashMap::new(),
                    queue: VecDeque::new(),
                }),
                work_ready: Condvar::new(),
                queue_depth: config.queue_depth,
                jobs,
                shutdown: AtomicBool::new(false),
                counters: Counters::default(),
                pool: dvs_runtime::Pool::new(jobs),
                domain: dvs_obs::register_domain("serve.worker"),
                started: Instant::now(),
                traces: Mutex::new(VecDeque::with_capacity(TRACE_RING)),
                next_trace: AtomicU64::new(1),
            },
        })
    }

    /// The bound address — useful after binding port 0.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has no local address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request drains the daemon. Blocks the
    /// calling thread; connection handlers and the dispatcher run on
    /// scoped threads that are joined before this returns.
    ///
    /// # Errors
    ///
    /// I/O errors from the listener itself (per-connection errors only
    /// terminate that connection).
    pub fn run(self) -> io::Result<ServeSummary> {
        self.listener.set_nonblocking(true)?;
        let state = &self.state;
        std::thread::scope(|s| -> io::Result<()> {
            s.spawn(|| dispatcher(state));
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        s.spawn(move || handle_connection(state, stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            // Wake the dispatcher so it can observe shutdown and exit.
            state.work_ready.notify_all();
            Ok(())
        })?;
        let cache = state.coord.lock().expect("coord poisoned").cache.stats();
        let c = &state.counters;
        Ok(ServeSummary {
            requests: c.requests.load(Ordering::Relaxed),
            solves: c.solves.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            cache,
        })
    }
}

/// Reads frames off one connection until the peer closes, an I/O error
/// occurs, or shutdown completes. Solve handling may block (queue wait);
/// the read timeout only spins while the connection is idle between
/// frames.
fn handle_connection(state: &State, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let shutting_down_ack = matches!(Request::parse(&frame), Ok(Request::Shutdown));
        let reply = handle_request(state, &frame);
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
        if shutting_down_ack {
            return;
        }
    }
}

/// Dispatches one request frame to a reply body.
fn handle_request(state: &State, frame: &str) -> String {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    match Request::parse(frame) {
        Ok(Request::Ping) => ok_envelope("ping", false, us_since(started), "\"pong\""),
        Ok(Request::Stats) => {
            let body = stats_json(state).dump();
            ok_envelope("stats", false, us_since(started), &body)
        }
        Ok(Request::Shutdown) => handle_shutdown(state, started),
        Ok(Request::Traces) => {
            let body = traces_json(state).dump();
            ok_envelope("traces", false, us_since(started), &body)
        }
        Ok(Request::Solve(req)) => handle_solve(state, &req, started),
        Err(msg) => {
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            error_envelope("request", "bad_request", &msg)
        }
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// How one solve request cleared admission; each variant leaves a
/// different shape behind in the request's trace tree.
enum Admission {
    /// Content-addressed cache hit: the stored body, answered in place.
    Hit(String),
    /// Joined an identical in-flight solve.
    Join(Arc<Inflight>),
    /// Admitted to the pending queue as a fresh solve.
    Fresh(Arc<Inflight>),
}

/// The admission path described in the module docs: cache → coalesce →
/// admit/shed, then wait for the solve (bounded by the request's own
/// deadline when it has one). Every completed solve records a trace
/// tree — queue wait, cache lookup, coalesce join, solve, emit — that
/// rides the reply envelope and lands in the `traces` ring.
fn handle_solve(state: &State, req: &SolveRequest, started: Instant) -> String {
    let op = req.op.name();
    let (key, canonical) = match request_key(req) {
        Ok(kc) => kc,
        Err(msg) => {
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            return error_envelope(op, "bad_request", &msg);
        }
    };
    let trace_id = req
        .trace_id
        .unwrap_or_else(|| state.next_trace.fetch_add(1, Ordering::Relaxed));
    let mut tr = TraceCtx::new(trace_id, started);
    let lookup = tr.begin(ROOT_SPAN, "cache-lookup");
    let admission = {
        let mut coord = state.coord.lock().expect("coord poisoned");
        // Checked under the coordination lock: `handle_shutdown` sets the
        // flag while holding it, so no job can slip into the queue after
        // the dispatcher has observed shutdown and exited.
        if state.shutdown.load(Ordering::SeqCst) {
            return error_envelope(op, "shutting_down", "server is draining");
        }
        if let Some(body) = coord.cache.get(key, &canonical) {
            Admission::Hit(body)
        } else if let Some(inf) = coord.inflight.get(&key) {
            state.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            if dvs_obs::enabled() {
                dvs_obs::counter("serve.coalesced", 1);
            }
            Admission::Join(Arc::clone(inf))
        } else {
            if coord.queue.len() >= state.queue_depth {
                state.counters.shed.fetch_add(1, Ordering::Relaxed);
                if dvs_obs::enabled() {
                    dvs_obs::counter("serve.shed", 1);
                }
                return error_envelope(
                    op,
                    "busy",
                    &format!("pending queue full ({} solves waiting)", coord.queue.len()),
                );
            }
            let inf = Arc::new(Inflight {
                slot: Mutex::new(None),
                done: Condvar::new(),
            });
            coord.inflight.insert(key, Arc::clone(&inf));
            coord.queue.push_back(Job {
                key,
                canonical,
                request: req.clone(),
                enqueued: Instant::now(),
            });
            state.counters.solves.fetch_add(1, Ordering::Relaxed);
            drop(coord);
            state.work_ready.notify_all();
            Admission::Fresh(inf)
        }
    };
    tr.end(lookup);
    if dvs_obs::enabled() {
        dvs_obs::histogram("serve.cache_lookup_us", tr.now_us());
    }
    let timeout = req.timeout_ms.map(Duration::from_millis);
    let (inflight, join_span) = match admission {
        Admission::Hit(body) => {
            let hit = tr.begin(ROOT_SPAN, "cache-hit");
            tr.end(hit);
            return finish_traced(state, tr, op, true, started, &body);
        }
        Admission::Join(inf) => {
            let join = tr.begin(ROOT_SPAN, "coalesce-join");
            (inf, Some(join))
        }
        Admission::Fresh(inf) => (inf, None),
    };
    match wait_inflight(&inflight, timeout) {
        Some(outcome) => {
            match join_span {
                // A coalesced waiter only observed the join; the solve
                // spans belong to the request that enqueued the job.
                Some(join) => tr.end(join),
                None => {
                    // Place the dispatcher-measured spans on the request
                    // timeline by working backwards from the wakeup.
                    let queue_start =
                        (tr.now_us() - outcome.solve_us - outcome.queue_wait_us).max(0.0);
                    tr.record(ROOT_SPAN, "queue-wait", queue_start, outcome.queue_wait_us);
                    tr.record(
                        ROOT_SPAN,
                        "solve",
                        queue_start + outcome.queue_wait_us,
                        outcome.solve_us,
                    );
                    // The prover and then the independent check run at the
                    // tail of the solve; surface each as its own span so
                    // `dvsc client trace certify` shows where the
                    // certification time went.
                    if let Some(cert) = outcome.cert_us {
                        let solve_end = queue_start + outcome.queue_wait_us + outcome.solve_us;
                        let check_start = (solve_end - cert.check_us).max(0.0);
                        let prove_start = (check_start - cert.prove_us).max(0.0);
                        tr.record(ROOT_SPAN, "cert-prove", prove_start, cert.prove_us);
                        tr.record(ROOT_SPAN, "cert-check", check_start, cert.check_us);
                    }
                    if dvs_obs::enabled() {
                        dvs_obs::histogram("serve.queue_wait_us", outcome.queue_wait_us);
                    }
                }
            }
            match outcome.body {
                Ok(body) => finish_traced(state, tr, op, false, started, &body),
                Err(msg) => {
                    state.counters.errors.fetch_add(1, Ordering::Relaxed);
                    error_envelope(op, "solve_error", &msg)
                }
            }
        }
        None => {
            state.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            if dvs_obs::enabled() {
                dvs_obs::counter("serve.timeouts", 1);
            }
            error_envelope(
                op,
                "timeout",
                &format!(
                    "solve did not finish within {} ms (it keeps running and will populate the cache)",
                    req.timeout_ms.unwrap_or(0)
                ),
            )
        }
    }
}

/// Records the `emit` span, closes the trace, retains it in the ring and
/// wraps the result body in a traced success envelope.
fn finish_traced(
    state: &State,
    mut tr: TraceCtx,
    op: &str,
    cached: bool,
    started: Instant,
    body: &str,
) -> String {
    let emit = tr.begin(ROOT_SPAN, "emit");
    tr.end(emit);
    let tree = tr.finish();
    {
        let mut ring = state.traces.lock().expect("traces poisoned");
        while ring.len() >= TRACE_RING {
            ring.pop_front();
        }
        ring.push_back(tree.clone());
    }
    ok_envelope_traced(op, cached, us_since(started), body, Some(&tree.dump()))
}

/// The `traces` response body: the retained trace trees (oldest first)
/// plus a flattened Chrome-trace event array covering all of them, ready
/// to write to a file and load in Perfetto.
fn traces_json(state: &State) -> Json {
    let trees: Vec<Json> = state
        .traces
        .lock()
        .expect("traces poisoned")
        .iter()
        .cloned()
        .collect();
    let chrome: Vec<Json> = trees.iter().flat_map(trace::chrome_events).collect();
    Json::obj([
        ("count", Json::from(trees.len())),
        ("traces", Json::Arr(trees)),
        ("chrome", Json::Arr(chrome)),
    ])
}

/// Blocks until the in-flight solve completes, or until `timeout`
/// elapses (`None` result). Multiple waiters each clone the outcome.
fn wait_inflight(inf: &Inflight, timeout: Option<Duration>) -> Option<SolveOutcome> {
    let deadline = timeout.map(|t| Instant::now() + t);
    let mut slot = inf.slot.lock().expect("inflight poisoned");
    loop {
        if let Some(result) = slot.as_ref() {
            return Some(result.clone());
        }
        match deadline {
            None => slot = inf.done.wait(slot).expect("inflight poisoned"),
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    return None;
                }
                let (guard, _) = inf
                    .done
                    .wait_timeout(slot, d - now)
                    .expect("inflight poisoned");
                slot = guard;
            }
        }
    }
}

/// Sets the shutdown flag, waits for the pending queue and in-flight
/// solves to drain, and acknowledges with the final counters.
fn handle_shutdown(state: &State, started: Instant) -> String {
    {
        let _coord = state.coord.lock().expect("coord poisoned");
        state.shutdown.store(true, Ordering::SeqCst);
    }
    state.work_ready.notify_all();
    loop {
        let drained = {
            let coord = state.coord.lock().expect("coord poisoned");
            coord.queue.is_empty() && coord.inflight.is_empty()
        };
        if drained {
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    let body = stats_json(state).dump();
    ok_envelope("shutdown", false, us_since(started), &body)
}

/// The dispatcher: drains the pending queue in batches and fans each
/// batch out over the pool, so distinct requests solve concurrently and
/// every batch member's waiters are released as the batch lands.
fn dispatcher(state: &State) {
    loop {
        let batch: Vec<Job> = {
            let mut coord = state.coord.lock().expect("coord poisoned");
            loop {
                if !coord.queue.is_empty() {
                    break coord.queue.drain(..).collect();
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                coord = state.work_ready.wait(coord).expect("coord poisoned");
            }
        };
        if dvs_obs::enabled() {
            dvs_obs::counter("serve.batches", 1);
            #[allow(clippy::cast_precision_loss)]
            dvs_obs::histogram("serve.batch.size", batch.len() as f64);
        }
        let domain = state.domain;
        let results = state.pool.map(batch, |_, job| {
            let _d = dvs_obs::enter_domain(domain);
            let queue_wait_us = us_since(job.enqueued);
            let solve_start = Instant::now();
            let (body, cert_us) = match execute_solve(&job.request) {
                Ok(s) => (Ok(s.body), s.cert_us),
                Err(e) => (Err(e), None),
            };
            let outcome = SolveOutcome {
                body,
                queue_wait_us,
                solve_us: us_since(solve_start),
                cert_us,
            };
            (job.key, job.canonical, outcome)
        });
        let mut finished = Vec::with_capacity(results.len());
        {
            let mut coord = state.coord.lock().expect("coord poisoned");
            for (key, canonical, outcome) in results {
                if let Ok(b) = &outcome.body {
                    coord.cache.insert(key, &canonical, b.clone());
                }
                if let Some(inf) = coord.inflight.remove(&key) {
                    finished.push((inf, outcome));
                }
            }
        }
        for (inf, outcome) in finished {
            *inf.slot.lock().expect("inflight poisoned") = Some(outcome);
            inf.done.notify_all();
        }
    }
}

/// Builds the compiler a request describes. `Compile` validates on the
/// simulator; `Verify` skips validation (the static pass runs instead);
/// `Certify` turns on the certified-optimality gate.
fn build_compiler(req: &SolveRequest, ladder: VoltageLadder) -> Result<DvsCompiler, String> {
    let solver = dvs_compiler::SolverChoice::parse(&req.solver)
        .ok_or_else(|| format!("bad solver `{}`", req.solver))?;
    DvsCompiler::builder(
        Machine::paper_default(),
        ladder,
        TransitionModel::with_capacitance_uf(req.capacitance_uf),
    )
    .validation(req.op == SolveOp::Compile)
    .certify(req.op == SolveOp::Certify)
    .solver(solver)
    .build()
    .map_err(|e| format!("bad compiler settings: {e}"))
}

/// Derives the cache key: the canonical request string (resolved
/// benchmark name, deadline index, op, and the compiler's semantic
/// config digest) hashed with FNV-1a 64. Validation of the request
/// happens here, so a `bad_request` never reaches the queue.
fn request_key(req: &SolveRequest) -> Result<(u64, String), String> {
    let b = Benchmark::find(&req.benchmark)?;
    if !(1..=5).contains(&req.deadline_index) {
        return Err("deadline_index must be 1..5".to_string());
    }
    let ladder = VoltageLadder::paper(req.levels).map_err(|e| format!("bad levels: {e}"))?;
    let compiler = build_compiler(req, ladder)?;
    let canonical = format!(
        "dvs-serve.request.v1 op={} benchmark={} deadline_index={} config={:016x}",
        req.op.name(),
        b.name(),
        req.deadline_index,
        compiler.config_digest()
    );
    let mut h = dvs_compiler::fingerprint::Fnv64::new();
    h.write_str(&canonical);
    Ok((h.finish(), canonical))
}

/// Process-wide content-addressed store of compiled replay bytecode.
///
/// The bytecode depends only on the workload and the machine/ladder/
/// regulator configuration — never on the deadline index or solver — so
/// `evaluate` requests that differ only in those fields share one compile.
/// Keys reuse the solve cache's canonical-string + FNV-1a discipline.
fn cached_bytecode(
    b: Benchmark,
    req: &SolveRequest,
    compiler: &DvsCompiler,
    cfg: &dvs_ir::Cfg,
    trace: &dvs_sim::Trace,
    ladder: &VoltageLadder,
) -> Arc<dvs_replay::ReplayBytecode> {
    static STORE: std::sync::OnceLock<Mutex<HashMap<u64, Arc<dvs_replay::ReplayBytecode>>>> =
        std::sync::OnceLock::new();
    let canonical = format!(
        "dvs-serve.bytecode.v1 benchmark={} levels={} capacitance_uf={} config={:016x}",
        b.name(),
        req.levels,
        req.capacitance_uf,
        compiler.config_digest()
    );
    let mut h = dvs_compiler::fingerprint::Fnv64::new();
    h.write_str(&canonical);
    let key = h.finish();
    let store = STORE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(code) = store.lock().expect("bytecode store poisoned").get(&key) {
        dvs_obs::counter("serve.bytecode.hits", 1);
        return Arc::clone(code);
    }
    let code = Arc::new(dvs_replay::compile(
        compiler.machine(),
        cfg,
        trace,
        ladder,
        compiler.transition(),
    ));
    dvs_obs::counter("serve.bytecode.compiles", 1);
    store
        .lock()
        .expect("bytecode store poisoned")
        .entry(key)
        .or_insert_with(|| Arc::clone(&code))
        .clone()
}

/// A finished solve: the canonical JSON body plus worker-side timings
/// that ride the trace tree but never the (cacheable) body.
struct Solved {
    body: String,
    cert_us: Option<CertTimes>,
}

impl Solved {
    fn plain(body: String) -> Solved {
        Solved {
            body,
            cert_us: None,
        }
    }
}

/// Runs one solve to its canonical JSON body. This is the expensive path
/// (tens to hundreds of milliseconds per workload); everything above it
/// exists to avoid re-entering it.
fn execute_solve(req: &SolveRequest) -> Result<Solved, String> {
    let b = Benchmark::find(&req.benchmark)?;
    let ladder = VoltageLadder::paper(req.levels).map_err(|e| e.to_string())?;
    let compiler = build_compiler(req, ladder.clone())?;
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let scheme = DeadlineScheme::measure(compiler.machine(), &cfg, &trace);
    let deadline = scheme.deadline_us(req.deadline_index);
    let (profile, _) = compiler.profile(&cfg, &trace);
    let header = |extra: Vec<(String, Json)>| {
        let mut members = vec![
            ("benchmark".to_string(), Json::from(b.name())),
            ("deadline_index".to_string(), Json::from(req.deadline_index)),
            ("deadline_us".to_string(), Json::from(deadline)),
        ];
        members.extend(extra);
        Json::Obj(members).dump()
    };
    match req.op {
        SolveOp::Compile => {
            let result = compiler
                .compile_and_validate(&cfg, &trace, &profile, deadline)
                .map_err(|e| format!("compile failed: {e}"))?;
            Ok(Solved::plain(header(vec![(
                "compile".to_string(),
                result.to_json(),
            )])))
        }
        SolveOp::Certify => {
            let result = compiler
                .compile(&cfg, &profile, deadline)
                .map_err(|e| format!("compile failed: {e}"))?;
            let cert = result
                .milp
                .certificate
                .as_ref()
                .ok_or("certify solve produced no certificate")?;
            // The encoded certificate is canonical JSON; embedding the
            // parsed object keeps the cached body one self-describing
            // document (`Json` round-trips numbers bit-exactly).
            let encoded = Json::parse(&cert.encoded)
                .map_err(|e| format!("certificate did not re-parse: {e}"))?;
            let body = header(vec![
                ("compile".to_string(), result.to_json()),
                (
                    "certificate".to_string(),
                    Json::obj([
                        ("report", cert.report.to_json()),
                        ("bytes", Json::from(cert.encoded.len() as u64)),
                        ("encoded", encoded),
                    ]),
                ),
            ]);
            Ok(Solved {
                body,
                cert_us: Some(CertTimes {
                    prove_us: cert.prove_us,
                    check_us: cert.check_us,
                }),
            })
        }
        SolveOp::Verify => {
            let result = compiler
                .compile(&cfg, &profile, deadline)
                .map_err(|e| format!("compile failed: {e}"))?;
            let emitted = result.analysis.emitted_mask();
            let report = dvs_verify::verify(&dvs_verify::VerifyInput {
                cfg: &cfg,
                profile: &profile,
                ladder: &ladder,
                transition: compiler.transition(),
                schedule: &result.milp.schedule,
                emitted: Some(&emitted),
                deadline_us: Some(deadline),
            });
            Ok(Solved::plain(header(vec![(
                "report".to_string(),
                report.to_json(),
            )])))
        }
        SolveOp::Evaluate => {
            let result = compiler
                .compile(&cfg, &profile, deadline)
                .map_err(|e| format!("compile failed: {e}"))?;
            let code = cached_bytecode(b, req, &compiler, &cfg, &trace, &ladder);
            let run = code.replay(&result.milp.schedule);
            let stats = code.stats();
            Ok(Solved::plain(header(vec![(
                "evaluate".to_string(),
                Json::obj([
                    ("time_us", Json::from(run.time_us)),
                    ("processor_energy_uj", Json::from(run.processor_energy_uj)),
                    ("dram_energy_uj", Json::from(run.dram_energy_uj)),
                    ("transitions", Json::from(run.transitions)),
                    ("transition_energy_uj", Json::from(run.transition_energy_uj)),
                    ("transition_time_us", Json::from(run.transition_time_us)),
                    (
                        "predicted_energy_uj",
                        Json::from(result.milp.predicted_energy_uj),
                    ),
                    (
                        "bytecode",
                        Json::obj([
                            ("trace_blocks", Json::from(stats.trace_blocks)),
                            ("trace_insts", Json::from(stats.trace_insts)),
                            ("block_ops", Json::from(stats.block_ops)),
                            ("variants", Json::from(stats.variants)),
                            ("variant_insts", Json::from(stats.variant_insts)),
                        ]),
                    ),
                ]),
            )])))
        }
    }
}

/// The `stats` response body.
fn stats_json(state: &State) -> Json {
    let (cache, pending, inflight) = {
        let coord = state.coord.lock().expect("coord poisoned");
        (coord.cache.stats(), coord.queue.len(), coord.inflight.len())
    };
    let c = &state.counters;
    Json::obj([
        (
            "cache",
            Json::obj([
                ("hits", Json::from(cache.hits)),
                ("misses", Json::from(cache.misses)),
                ("evictions", Json::from(cache.evictions)),
                ("insertions", Json::from(cache.insertions)),
                ("entries", Json::from(cache.entries)),
                ("used_bytes", Json::from(cache.used_bytes)),
                ("capacity_bytes", Json::from(cache.capacity_bytes)),
            ]),
        ),
        (
            "counters",
            Json::obj([
                ("requests", Json::from(c.requests.load(Ordering::Relaxed))),
                ("solves", Json::from(c.solves.load(Ordering::Relaxed))),
                ("coalesced", Json::from(c.coalesced.load(Ordering::Relaxed))),
                ("shed", Json::from(c.shed.load(Ordering::Relaxed))),
                ("timeouts", Json::from(c.timeouts.load(Ordering::Relaxed))),
                ("errors", Json::from(c.errors.load(Ordering::Relaxed))),
            ]),
        ),
        (
            "queue",
            Json::obj([
                ("depth", Json::from(state.queue_depth)),
                ("pending", Json::from(pending)),
                ("inflight", Json::from(inflight)),
                ("pool_queued", Json::from(state.pool.queued())),
            ]),
        ),
        ("jobs", Json::from(state.jobs)),
        (
            "uptime_s",
            Json::from(state.started.elapsed().as_secs_f64()),
        ),
    ])
}
