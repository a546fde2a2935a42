//! The daemon: accept loop, admission control, worker loops and the
//! solve executor.
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
//! `jobs` worker threads each take the next pending solve as soon as they
//! finish their last, so distinct requests solve in parallel while every
//! waiter of a coalesced request is paid by one solve. A solve first
//! fetches its [`Stage`] — the profile and deadline scheme of its
//! (benchmark, ladder) — from the cache; on a miss it computes the stage,
//! and a worker that misses a stage another worker is computing waits for
//! it instead. Shutdown (the `shutdown` request) stops admission, drains
//! the queue and in-flight solves, then stops the accept loop.

use crate::cache::{CacheStats, SolveCache, Stage};
use crate::protocol::{
    error_envelope, ok_envelope, ok_envelope_traced, read_frame, write_frame, Request, SolveOp,
    SolveRequest,
};
use dvs_compiler::{DeadlineScheme, DvsCompiler};
use dvs_ir::Cfg;
use dvs_obs::json::Json;
use dvs_obs::SpanEvent;
use dvs_sim::{Machine, Trace};
use dvs_vf::{TransitionModel, VoltageLadder};
use dvs_workloads::Benchmark;
use std::cell::OnceCell;
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
    /// Worker threads, each running one solve at a time. A worker that
    /// profiles a stage times its operating points in the lockstep lanes
    /// of `Machine::time_points`, whose passes follow the walk on helper
    /// threads, so it briefly uses more than one thread.
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
    /// When the job entered the pending queue — the worker that takes it
    /// derives the `queue-wait` span from this.
    enqueued: Instant,
}

/// What one executed solve produced: the result body, and the spans the
/// worker's thread recorded for the job (`queue-wait`, then `solve` with
/// the pass's stages under it), which the request that enqueued the job
/// adds to its trace tree.
#[derive(Clone)]
struct SolveOutcome {
    body: Result<String, String>,
    spans: Vec<SpanEvent>,
}

/// The rendezvous between one computation and its waiters: an in-flight
/// solve and the requests coalesced onto it, or a stage being computed
/// and the workers that missed it meanwhile. The slot stays filled after
/// completion so late joiners (admitted before the coordination lock
/// observed the removal) still read the result.
struct Rendezvous<T> {
    slot: Mutex<Option<T>>,
    done: Condvar,
}

impl<T: Clone> Rendezvous<T> {
    fn new() -> Arc<Self> {
        Arc::new(Rendezvous {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fill(&self, value: T) {
        *self.slot.lock().expect("rendezvous poisoned") = Some(value);
        self.done.notify_all();
    }

    /// Blocks until the slot is filled, or until `timeout` elapses
    /// (`None` result). Every waiter clones the value.
    fn wait(&self, timeout: Option<Duration>) -> Option<T> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut slot = self.slot.lock().expect("rendezvous poisoned");
        loop {
            if let Some(value) = slot.as_ref() {
                return Some(value.clone());
            }
            match deadline {
                None => slot = self.done.wait(slot).expect("rendezvous poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, _) = self
                        .done
                        .wait_timeout(slot, d - now)
                        .expect("rendezvous poisoned");
                    slot = guard;
                }
            }
        }
    }
}

/// Everything the admission path and the workers mutate, under one lock
/// so a lookup, a coalesce check and an enqueue are a single atomic
/// decision.
struct Coord {
    cache: SolveCache,
    inflight: HashMap<u64, Arc<Rendezvous<SolveOutcome>>>,
    /// Stages being computed, by stage key.
    staging: HashMap<u64, Arc<Rendezvous<Arc<Stage>>>>,
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
    /// Binds the listen socket and prepares the shared state (the cache,
    /// the `serve.worker` dvs-obs domain).
    ///
    /// # Errors
    ///
    /// I/O errors from binding `config.addr`.
    pub fn bind(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let jobs = config.jobs.max(1);
        // Pins the span time base before the first request arrives, so
        // every arrival lies on it.
        let _ = dvs_obs::epoch_us(Instant::now());
        Ok(Server {
            listener,
            state: State {
                coord: Mutex::new(Coord {
                    cache: SolveCache::new(config.cache_bytes),
                    inflight: HashMap::new(),
                    staging: HashMap::new(),
                    queue: VecDeque::new(),
                }),
                work_ready: Condvar::new(),
                queue_depth: config.queue_depth,
                jobs,
                shutdown: AtomicBool::new(false),
                counters: Counters::default(),
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
    /// calling thread; connection handlers and the workers run on scoped
    /// threads that are joined before this returns.
    ///
    /// # Errors
    ///
    /// I/O errors from the listener itself (per-connection errors only
    /// terminate that connection).
    pub fn run(self) -> io::Result<ServeSummary> {
        self.listener.set_nonblocking(true)?;
        let state = &self.state;
        std::thread::scope(|s| -> io::Result<()> {
            for _ in 0..state.jobs {
                s.spawn(|| worker(state));
            }
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
            // Wake the idle workers so they observe shutdown and exit.
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
        let started = Instant::now();
        let request = Request::parse(&frame);
        let shutting_down_ack = matches!(request, Ok(Request::Shutdown));
        let reply = handle_request(state, request, started);
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
        if shutting_down_ack {
            return;
        }
    }
}

/// Dispatches one parsed request frame, received at `started`, to a reply
/// body.
fn handle_request(state: &State, request: Result<Request, String>, started: Instant) -> String {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    match request {
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
    Join(Arc<Rendezvous<SolveOutcome>>),
    /// Admitted to the pending queue as a fresh solve.
    Fresh(Arc<Rendezvous<SolveOutcome>>),
}

/// The admission path described in the module docs: cache → coalesce →
/// admit/shed, then wait for the solve (bounded by the request's own
/// deadline when it has one). The connection thread runs both inside a
/// `dvs_obs` collect scope. Every completed solve renders those spans, and
/// the worker's when this request enqueued the solve, as its trace tree,
/// which rides the reply envelope and lands in the `traces` ring.
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
    let (served, mut spans) =
        dvs_obs::collect(|| admit_and_wait(state, req, key, canonical, started));
    let (body, cached, worker_spans) = match served {
        Ok(served) => served,
        Err(reply) => return reply,
    };
    spans.extend(worker_spans);
    let tree = trace_tree(trace_id, started, spans);
    {
        let mut ring = state.traces.lock().expect("traces poisoned");
        while ring.len() >= TRACE_RING {
            ring.pop_front();
        }
        ring.push_back(tree.clone());
    }
    ok_envelope_traced(op, cached, us_since(started), &body, Some(&tree.dump()))
}

/// Admission and the wait for one keyed solve request: the reply body,
/// whether the cache answered it, and the worker's spans when this request
/// enqueued the solve. `Err` holds an error reply.
fn admit_and_wait(
    state: &State,
    req: &SolveRequest,
    key: u64,
    canonical: String,
    started: Instant,
) -> Result<(String, bool, Vec<SpanEvent>), String> {
    let op = req.op.name();
    let admission = {
        // Declared first, so it ends after `coord` unlocks: before a
        // worker is woken.
        let _lookup = dvs_obs::span!("cache-lookup");
        let mut coord = state.coord.lock().expect("coord poisoned");
        // Checked under the coordination lock: `handle_shutdown` sets the
        // flag while holding it, so no job can slip into the queue after
        // the workers have observed shutdown and exited.
        if state.shutdown.load(Ordering::SeqCst) {
            return Err(error_envelope(op, "shutting_down", "server is draining"));
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
                return Err(error_envelope(
                    op,
                    "busy",
                    &format!("pending queue full ({} solves waiting)", coord.queue.len()),
                ));
            }
            let inf = Rendezvous::new();
            coord.inflight.insert(key, Arc::clone(&inf));
            coord.queue.push_back(Job {
                key,
                canonical,
                request: req.clone(),
                enqueued: Instant::now(),
            });
            state.counters.solves.fetch_add(1, Ordering::Relaxed);
            Admission::Fresh(inf)
        }
    };
    dvs_obs::histogram("serve.cache_lookup_us", us_since(started));
    let (inflight, joined) = match admission {
        Admission::Hit(body) => {
            drop(dvs_obs::span!("cache-hit"));
            drop(dvs_obs::span!("emit"));
            return Ok((body, true, Vec::new()));
        }
        Admission::Join(inf) => (inf, true),
        Admission::Fresh(inf) => {
            state.work_ready.notify_one();
            (inf, false)
        }
    };
    let outcome = {
        let _join = joined.then(|| dvs_obs::span!("coalesce-join"));
        inflight.wait(req.timeout_ms.map(Duration::from_millis))
    };
    let Some(outcome) = outcome else {
        state.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        if dvs_obs::enabled() {
            dvs_obs::counter("serve.timeouts", 1);
        }
        return Err(error_envelope(
            op,
            "timeout",
            &format!(
                "solve did not finish within {} ms (it keeps running and will populate the cache)",
                req.timeout_ms.unwrap_or(0)
            ),
        ));
    };
    let body = outcome.body.map_err(|msg| {
        state.counters.errors.fetch_add(1, Ordering::Relaxed);
        error_envelope(op, "solve_error", &msg)
    })?;
    drop(dvs_obs::span!("emit"));
    // A coalesced waiter only observed the join; the solve's spans belong
    // to the request that enqueued the job.
    let spans = if joined { Vec::new() } else { outcome.spans };
    Ok((body, false, spans))
}

/// Renders one request's trace tree,
/// `{"trace_id": N, "spans": [{id, parent, name, ts_us, dur_us}, ...]}`:
/// the root `request` span (id 1) first, then `spans` in start order, each
/// under the innermost span of its own thread that is still open when it
/// starts, or else under the root. Times are µs from the request's
/// arrival.
fn trace_tree(trace_id: u64, arrival: Instant, mut spans: Vec<SpanEvent>) -> Json {
    let row = |id: u64, parent: u64, name: &str, ts_us: f64, dur_us: f64| {
        Json::obj([
            ("id", Json::from(id)),
            ("parent", Json::from(parent)),
            ("name", Json::from(name)),
            ("ts_us", Json::from(ts_us)),
            ("dur_us", Json::from(dur_us)),
        ])
    };
    let mut rows = vec![row(1, 0, "request", 0.0, us_since(arrival))];
    let t0 = dvs_obs::epoch_us(arrival);
    // A span that starts with its parent ends no later, so it sorts after.
    spans.sort_by(|a, b| {
        a.ts_us
            .total_cmp(&b.ts_us)
            .then(b.dur_us.total_cmp(&a.dur_us))
    });
    for (i, s) in spans.iter().enumerate() {
        let parent = spans[..i]
            .iter()
            .rposition(|p| p.tid == s.tid && p.ts_us + p.dur_us > s.ts_us)
            .map_or(1, |j| j as u64 + 2);
        rows.push(row(i as u64 + 2, parent, s.name, s.ts_us - t0, s.dur_us));
    }
    Json::obj([
        ("trace_id", Json::from(trace_id)),
        ("spans", Json::Arr(rows)),
    ])
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
    let chrome: Vec<Json> = trees.iter().flat_map(chrome_events).collect();
    Json::obj([
        ("count", Json::from(trees.len())),
        ("traces", Json::Arr(trees)),
        ("chrome", Json::Arr(chrome)),
    ])
}

/// One trace tree as Chrome trace events: one complete (`"ph":"X"`) event
/// per span, with the trace id as the `tid` so each request gets its own
/// track in `chrome://tracing` / Perfetto, and the tree links in `args`.
fn chrome_events(tree: &Json) -> Vec<Json> {
    let trace_id = tree.get("trace_id").and_then(Json::as_u64).unwrap_or(0);
    let Some(spans) = tree.get("spans").and_then(Json::as_arr) else {
        return Vec::new();
    };
    spans
        .iter()
        .map(|s| {
            let field = |k: &str| s.get(k).cloned().unwrap_or(Json::from(0u64));
            Json::obj([
                ("name", field("name")),
                ("cat", Json::from("dvs.serve")),
                ("ph", Json::from("X")),
                ("ts", field("ts_us")),
                ("dur", field("dur_us")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(trace_id)),
                (
                    "args",
                    Json::obj([("span", field("id")), ("parent", field("parent"))]),
                ),
            ])
        })
        .collect()
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

/// One worker loop: takes the next pending job as soon as the last one
/// is done, solves it, caches the body and releases the job's waiters.
fn worker(state: &State) {
    let _domain = dvs_obs::enter_domain(state.domain);
    while let Some(job) = next_job(state) {
        let (body, spans) = dvs_obs::collect(|| {
            let taken = Instant::now();
            dvs_obs::record_span("queue-wait", job.enqueued, taken);
            let wait = taken.saturating_duration_since(job.enqueued);
            dvs_obs::histogram("serve.queue_wait_us", wait.as_secs_f64() * 1e6);
            let _solve = dvs_obs::span!("solve");
            execute_solve(state, &job.request)
        });
        let outcome = SolveOutcome { body, spans };
        let inflight = {
            let mut coord = state.coord.lock().expect("coord poisoned");
            if let Ok(b) = &outcome.body {
                coord.cache.insert(job.key, &job.canonical, b.clone());
            }
            coord.inflight.remove(&job.key)
        };
        if let Some(inf) = inflight {
            inf.fill(outcome);
        }
    }
}

/// Blocks until a job is pending and takes it; `None` once the daemon is
/// shutting down and the queue is empty.
fn next_job(state: &State) -> Option<Job> {
    let mut coord = state.coord.lock().expect("coord poisoned");
    loop {
        if let Some(job) = coord.queue.pop_front() {
            return Some(job);
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        coord = state.work_ready.wait(coord).expect("coord poisoned");
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
    .validation(matches!(req.op, SolveOp::Compile | SolveOp::Evaluate))
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

/// A request's stage: from the cache, from the worker already computing
/// it, or computed here and cached. The key is (benchmark, ladder) alone:
/// the daemon always profiles the default input on
/// `Machine::paper_default`, and the stage reads neither the deadline, the
/// op nor the regulator.
fn stage<'t>(
    state: &State,
    b: Benchmark,
    compiler: &DvsCompiler,
    cfg: &Cfg,
    trace: impl Fn() -> &'t Trace,
) -> Arc<Stage> {
    let canonical = format!(
        "dvs-serve.stage.v1 benchmark={} levels={}",
        b.name(),
        compiler.ladder().len()
    );
    let mut h = dvs_compiler::fingerprint::Fnv64::new();
    h.write_str(&canonical);
    let key = h.finish();
    let ours = {
        let mut coord = state.coord.lock().expect("coord poisoned");
        if let Some(stage) = coord.cache.get_stage(key, &canonical) {
            return stage;
        }
        if let Some(theirs) = coord.staging.get(&key) {
            let theirs = Arc::clone(theirs);
            drop(coord);
            return theirs
                .wait(None)
                .expect("an untimed wait returns the value");
        }
        let ours = Rendezvous::new();
        coord.staging.insert(key, Arc::clone(&ours));
        ours
    };
    let trace = trace();
    let (profile, runs) = compiler.profile(cfg, trace);
    let scheme = DeadlineScheme::from_runs_or_measure(&runs, compiler.machine(), cfg, trace);
    let stage = Arc::new(Stage::new(cfg, profile, scheme));
    {
        let mut coord = state.coord.lock().expect("coord poisoned");
        coord
            .cache
            .insert_stage(key, &canonical, Arc::clone(&stage));
        coord.staging.remove(&key);
    }
    ours.fill(Arc::clone(&stage));
    stage
}

/// Runs one solve to its canonical JSON body. This is the expensive path
/// (tens to hundreds of milliseconds per workload); everything above it
/// exists to avoid re-entering it.
fn execute_solve(state: &State, req: &SolveRequest) -> Result<String, String> {
    let b = Benchmark::find(&req.benchmark)?;
    let ladder = VoltageLadder::paper(req.levels).map_err(|e| e.to_string())?;
    let compiler = build_compiler(req, ladder.clone())?;
    let cfg = {
        let _build = dvs_obs::span!("build");
        b.build_cfg()
    };
    // Built only if a stage miss or validation needs it; verify and
    // certify on a resident stage never do.
    let trace_cell = OnceCell::new();
    let trace = || {
        trace_cell.get_or_init(|| {
            let _build = dvs_obs::span!("build");
            b.trace(&cfg, &b.default_input())
        })
    };
    let stage = stage(state, b, &compiler, &cfg, trace);
    let profile = stage.profile();
    let deadline = stage.scheme().deadline_us(req.deadline_index);
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
                .compile_and_validate(&cfg, trace(), profile, deadline)
                .map_err(|e| format!("compile failed: {e}"))?;
            Ok(header(vec![("compile".to_string(), result.to_json())]))
        }
        SolveOp::Certify => {
            let result = compiler
                .compile(&cfg, profile, deadline)
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
            Ok(header(vec![
                ("compile".to_string(), result.to_json()),
                (
                    "certificate".to_string(),
                    Json::obj([
                        ("report", cert.report.to_json()),
                        ("bytes", Json::from(cert.encoded.len() as u64)),
                        ("encoded", encoded),
                    ]),
                ),
            ]))
        }
        SolveOp::Verify => {
            let result = compiler
                .compile(&cfg, profile, deadline)
                .map_err(|e| format!("compile failed: {e}"))?;
            let emitted = result.analysis.emitted_mask();
            let report = dvs_verify::verify(&dvs_verify::VerifyInput {
                cfg: &cfg,
                profile,
                ladder: &ladder,
                transition: compiler.transition(),
                schedule: &result.milp.schedule,
                emitted: Some(&emitted),
                deadline_us: Some(deadline),
            });
            Ok(header(vec![("report".to_string(), report.to_json())]))
        }
        SolveOp::Evaluate => {
            let result = compiler
                .compile_and_validate(&cfg, trace(), profile, deadline)
                .map_err(|e| format!("compile failed: {e}"))?;
            let run = result
                .validated
                .as_ref()
                .ok_or("evaluate solve produced no validation run")?;
            Ok(header(vec![(
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
                ]),
            )]))
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
                ("stage_hits", Json::from(cache.stage_hits)),
                ("stage_misses", Json::from(cache.stage_misses)),
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
            ]),
        ),
        ("jobs", Json::from(state.jobs)),
        (
            "uptime_s",
            Json::from(state.started.elapsed().as_secs_f64()),
        ),
    ])
}
