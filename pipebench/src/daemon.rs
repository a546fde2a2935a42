//! The daemon-mix workload: an in-process `dvs_serve::Server` driven by a
//! closed loop of two connections, standing in for build tools that each
//! wait for their reply.

use crate::calib::Calibrator;
use crate::ops::SERVE_CAP_UF;
use crate::report::{end_to_end, mean, percentile, Metrics, RunSummary};
use dvs_compiler::fingerprint::Fnv64;
use dvs_obs::json::Json;
use dvs_serve::{Client, Reply, Request, ServeConfig, ServeSummary, Server, SolveOp, SolveRequest};
use dvs_sim::EdgeSchedule;
use dvs_vf::{AlphaPower, ModeId, TransitionModel, VoltageLadder};
use dvs_workloads::Benchmark;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Connections generating load (closed loop).
pub const CONNECTIONS: usize = 2;

/// The solve cache's byte budget: above one pass's result bytes, so a
/// pass never evicts its own results, but below two passes' (and far below
/// the whole key space's), so each pass evicts the one before it.
pub const CACHE_BYTES: usize = 160 << 10;

/// How often the host's speed is sampled during the window. A sample takes
/// about 0.5 ms of one core.
const SAMPLE_EVERY: std::time::Duration = std::time::Duration::from_millis(50);

/// Relative tolerance between `evaluate`'s bytecode replay and the
/// cycle-level simulator.
const REPLAY_TOL: f64 = 1e-6;

/// The validation slack `pass.rs` allows a measured schedule.
const VALIDATION_SLACK: f64 = 1.05;

/// A bound daemon with its load-generating connections.
pub struct Daemon {
    server: JoinHandle<io::Result<ServeSummary>>,
    clients: Vec<Client>,
}

fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Daemon {
    /// Binds a daemon on an ephemeral port with a pool of nproc workers,
    /// opens the connections and runs one warm-up solve whose key lies
    /// outside every pass's key space.
    pub fn start() -> io::Result<Daemon> {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: worker_threads(),
            cache_bytes: CACHE_BYTES,
            queue_depth: 64,
        })?;
        let addr = server.local_addr()?.to_string();
        let server = std::thread::spawn(move || server.run());
        let mut clients = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let mut c = Client::connect(&addr, None)?;
            expect_ok(c.request(&Request::Ping)?)?;
            clients.push(c);
        }
        let warm = SolveRequest {
            op: SolveOp::Compile,
            benchmark: Benchmark::Ghostscript.name().to_string(),
            deadline_index: 3,
            levels: 3,
            capacitance_uf: 10.0 * SERVE_CAP_UF,
            solver: "auto".to_string(),
            timeout_ms: None,
            trace_id: None,
        };
        expect_ok(clients[0].request(&Request::Solve(warm))?)?;
        Ok(Daemon { server, clients })
    }

    /// Drains and stops the daemon, waiting for its threads.
    pub fn stop(mut self) -> io::Result<()> {
        expect_ok(self.clients[0].request(&Request::Shutdown)?)?;
        drop(self.clients);
        self.server
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
            .map(|_| ())
    }

    fn stats(&mut self) -> io::Result<Json> {
        let reply = self.clients[0].request(&Request::Stats)?;
        expect_ok(reply.clone())?;
        reply
            .result
            .ok_or_else(|| io::Error::other("stats reply has no body"))
    }
}

fn expect_ok(reply: Reply) -> io::Result<Reply> {
    if reply.ok {
        Ok(reply)
    } else {
        Err(io::Error::other(format!(
            "daemon replied {}: {}",
            reply.kind.unwrap_or_default(),
            reply.error.unwrap_or_default()
        )))
    }
}

/// One request of the window as the client saw it.
struct Sample {
    index: usize,
    /// When the request was sent.
    sent: Instant,
    latency_us: f64,
    frame: io::Result<String>,
    /// Traced runs: time spent reading the reply's trace tree, µs.
    trace_us: f64,
    /// Traced runs: (span name, duration µs) from the reply envelope.
    spans: Vec<(String, f64)>,
}

fn envelope_spans(frame: &str) -> Vec<(String, f64)> {
    let Ok(reply) = Reply::parse(frame) else {
        return Vec::new();
    };
    let spans = reply
        .trace
        .as_ref()
        .and_then(|t| t.get("spans"))
        .and_then(Json::as_arr);
    spans
        .unwrap_or_default()
        .iter()
        .filter_map(|s| {
            Some((
                s.get("name")?.as_str()?.to_string(),
                s.get("dur_us")?.as_f64()?,
            ))
        })
        .collect()
}

/// The result body exactly as the daemon spliced it into the envelope.
/// The envelope members before it (`ok`, `op`, `cached`, `server_us`,
/// `trace`) never contain the `,"result":` marker.
fn raw_body(frame: &str) -> Option<&str> {
    let at = frame.find(",\"result\":")?;
    frame.get(at + 10..frame.len().checked_sub(1)?)
}

fn num(v: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REPLAY_TOL * a.abs().max(b.abs()).max(1.0)
}

/// The cell a request solves, shared by its compile and evaluate keys.
fn cell_of(req: &SolveRequest) -> String {
    format!(
        "{} L{} D{} C{}",
        req.benchmark, req.levels, req.deadline_index, req.capacitance_uf
    )
}

/// Runs `requests` through `daemon` over [`CONNECTIONS`] closed-loop
/// connections, then checks every reply.
///
/// A thread of its own samples the host's speed into `cal` every
/// [`SAMPLE_EVERY`] during the window; each request's latency is divided
/// by the slowdown around it and the window by the run's (see
/// [`crate::calib`]).
pub fn run(
    daemon: &mut Daemon,
    requests: &[SolveRequest],
    setup_s: f64,
    traced: bool,
    mut cal: Calibrator,
) -> RunSummary {
    let frames: Vec<String> = requests.iter().map(|r| r.to_json().dump()).collect();
    let before = daemon.stats();
    let next = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let window = Instant::now();
    let (mut samples, cal): (Vec<Sample>, Calibrator) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                cal.sample();
                std::thread::sleep(SAMPLE_EVERY);
            }
            cal
        });
        let workers: Vec<_> = daemon
            .clients
            .iter_mut()
            .map(|client| {
                let (next, frames) = (&next, &frames);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= frames.len() {
                            return out;
                        }
                        let sent = Instant::now();
                        let frame = client.request_raw(&frames[index]);
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        let (spans, trace_us) = match (&frame, traced) {
                            (Ok(f), true) => {
                                let t = Instant::now();
                                let spans = envelope_spans(f);
                                (spans, t.elapsed().as_secs_f64() * 1e6)
                            }
                            _ => (Vec::new(), 0.0),
                        };
                        out.push(Sample {
                            index,
                            sent,
                            latency_us,
                            frame,
                            trace_us,
                            spans,
                        });
                    }
                })
            })
            .collect();
        let samples = workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        (samples, sampler.join().expect("host sampler panicked"))
    });
    let window_s = window.elapsed().as_secs_f64();
    let after = daemon.stats();
    samples.sort_by_key(|s| s.index);

    let mut failures = Vec::new();
    let mut savings = Vec::new();
    let mut first_reply: HashMap<&str, (usize, &str)> = HashMap::new();
    let mut compiled: HashMap<String, Json> = HashMap::new();
    let mut evaluated: Vec<(usize, Json)> = Vec::new();
    let mut certs: Vec<(usize, String)> = Vec::new();
    let mut hit_us = Vec::new();
    let mut miss_us = Vec::new();
    let mut run_digest = Fnv64::new();
    for s in &samples {
        let req = &requests[s.index];
        let fail = |msg: String| format!("request {} ({}): {msg}", s.index, frames[s.index]);
        let frame = match &s.frame {
            Ok(f) => f,
            Err(e) => {
                failures.push(fail(format!("transport error: {e}")));
                continue;
            }
        };
        let reply = match Reply::parse(frame) {
            Ok(r) if r.ok => r,
            Ok(r) => {
                failures.push(fail(format!(
                    "{}: {}",
                    r.kind.unwrap_or_default(),
                    r.error.unwrap_or_default()
                )));
                continue;
            }
            Err(e) => {
                failures.push(fail(e));
                continue;
            }
        };
        if reply.cached {
            &mut hit_us
        } else {
            &mut miss_us
        }
        .push(s.latency_us);
        let (Some(body), Some(result)) = (raw_body(frame), reply.result.as_ref()) else {
            failures.push(fail("reply has no result body".into()));
            continue;
        };
        // Warm (and coalesced) replies must repeat the first reply's bytes.
        let (first, first_body) = *first_reply
            .entry(&frames[s.index])
            .or_insert((s.index, body));
        if first == s.index {
            let mut h = Fnv64::new();
            h.write_str(body);
            run_digest.write_u64(h.finish());
        } else if first_body != body {
            failures.push(fail(format!(
                "body differs from the first reply (request {first})"
            )));
        }
        let deadline_us = num(result, &["deadline_us"]).unwrap_or(0.0);
        match req.op {
            SolveOp::Compile | SolveOp::Certify => {
                if let Some(x) = num(result, &["compile", "savings_vs_single"]) {
                    savings.push(x);
                }
                if req.op == SolveOp::Certify {
                    let report_ok = result
                        .get("certificate")
                        .and_then(|c| c.get("report"))
                        .and_then(|r| r.get("ok"))
                        .and_then(Json::as_bool);
                    match (
                        report_ok,
                        result.get("certificate").and_then(|c| c.get("encoded")),
                    ) {
                        (Some(true), Some(enc)) if first == s.index => {
                            certs.push((s.index, enc.dump()))
                        }
                        (Some(true), Some(_)) => {}
                        _ => failures.push(fail("certificate missing or rejected".into())),
                    }
                } else {
                    match num(result, &["compile", "validated", "time_us"]) {
                        Some(t) if t <= deadline_us * VALIDATION_SLACK => {}
                        other => failures.push(fail(format!(
                            "validated time {other:?} µs misses deadline {deadline_us} µs"
                        ))),
                    }
                    compiled
                        .entry(cell_of(req))
                        .or_insert_with(|| result.clone());
                }
            }
            SolveOp::Verify => {
                if num(result, &["report", "errors"]) != Some(0.0) {
                    failures.push(fail("verify report has errors".into()));
                }
            }
            SolveOp::Evaluate => evaluated.push((s.index, result.clone())),
        }
    }

    // `evaluate`'s bytecode replay against the cycle-level simulator's
    // validation of the same schedule (the compile reply of the same cell).
    for (index, ev) in &evaluated {
        let req = &requests[*index];
        let Some(sim) = compiled.get(&cell_of(req)) else {
            failures.push(format!(
                "request {index}: no compile of its cell to check against"
            ));
            continue;
        };
        let agree = ["time_us", "processor_energy_uj", "transitions"]
            .iter()
            .all(|k| {
                match (
                    num(ev, &["evaluate", k]),
                    num(sim, &["compile", "validated", k]),
                ) {
                    (Some(a), Some(b)) => rel_close(a, b),
                    _ => false,
                }
            });
        if !agree {
            failures.push(format!(
                "request {index}: evaluate's replay disagrees with run_scheduled"
            ));
        }
    }
    // An independent re-check of every distinct certificate.
    for (index, encoded) in &certs {
        match dvs_cert::Certificate::decode(encoded) {
            Ok(cert) if dvs_cert::check(&cert).ok() => {}
            _ => failures.push(format!("request {index}: certificate rejected on re-check")),
        }
    }

    // Each request's latency on the reference host, from the host's speed
    // around it.
    let latencies: Vec<f64> = samples
        .iter()
        .map(|s| {
            let mid = cal.at(s.sent) + s.latency_us / 2e6;
            s.latency_us / cal.near(mid)
        })
        .collect();
    let metrics = if traced {
        let replay = replay_timings(requests, &compiled, &mut failures);
        serve_layer(&samples, &hit_us, &miss_us, before.ok(), after.ok(), replay)
    } else {
        end_to_end(
            setup_s,
            window_s / cal.slowdown(),
            &latencies,
            failures.len(),
            &savings,
        )
    };
    RunSummary {
        attempted: requests.len(),
        failures,
        metrics,
        digest: run_digest.finish(),
        host: (cal.slowdown(), cal.len()),
    }
}

/// Times the replay layer from here: for every distinct evaluate cell,
/// `dvs_replay::compile` of the cell's trace and one replay of its
/// schedule (taken from the compile reply), which must also match the
/// simulator. Returns mean (compile ms, replay µs).
fn replay_timings(
    requests: &[SolveRequest],
    compiled: &HashMap<String, Json>,
    failures: &mut Vec<String>,
) -> (f64, f64) {
    let mut cells: Vec<&SolveRequest> = requests
        .iter()
        .filter(|r| r.op == SolveOp::Evaluate)
        .collect();
    cells.sort_by_key(|r| cell_of(r));
    cells.dedup_by_key(|r| cell_of(r));
    let (mut compile_ms, mut replay_us) = (Vec::new(), Vec::new());
    for req in cells {
        let Some(sim) = compiled.get(&cell_of(req)) else {
            continue;
        };
        let Some(b) = Benchmark::all()
            .into_iter()
            .find(|b| b.name() == req.benchmark)
        else {
            continue;
        };
        let schedule = sim
            .get("compile")
            .and_then(|c| c.get("schedule"))
            .and_then(|s| {
                let modes = s.get("edge_modes")?.as_arr()?;
                Some(EdgeSchedule {
                    initial: ModeId(s.get("initial")?.as_u64()? as usize),
                    edge_modes: modes
                        .iter()
                        .map(|m| Some(ModeId(m.as_u64()? as usize)))
                        .collect::<Option<_>>()?,
                })
            });
        let Some(schedule) = schedule else {
            failures.push(format!("{}: compile reply has no schedule", cell_of(req)));
            continue;
        };
        let law = AlphaPower::paper();
        let ladder = if req.levels == 3 {
            VoltageLadder::xscale3(&law)
        } else {
            VoltageLadder::interpolated(&law, req.levels).expect("supported ladder size")
        };
        let cfg = b.build_cfg();
        let trace = b.trace(&cfg, &b.default_input());
        let t = Instant::now();
        let code = dvs_replay::compile(
            &dvs_sim::Machine::paper_default(),
            &cfg,
            &trace,
            &ladder,
            &TransitionModel::with_capacitance_uf(req.capacitance_uf),
        );
        compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let run = code.replay(&schedule);
        replay_us.push(t.elapsed().as_secs_f64() * 1e6);
        if num(sim, &["compile", "validated", "time_us"]).is_none_or(|v| !rel_close(v, run.time_us))
        {
            failures.push(format!(
                "{}: replay disagrees with the simulator",
                cell_of(req)
            ));
        }
    }
    (mean(&compile_ms), mean(&replay_us))
}

/// Per-layer metrics of the daemon from reply envelopes and the `stats`
/// op, plus the replay layer timed from here.
fn serve_layer(
    samples: &[Sample],
    hit_us: &[f64],
    miss_us: &[f64],
    before: Option<Json>,
    after: Option<Json>,
    (replay_compile_ms, replay_us): (f64, f64),
) -> Metrics {
    let span = |name: &str| -> Vec<f64> {
        samples
            .iter()
            .flat_map(|s| s.spans.iter().filter(|(n, _)| n == name).map(|(_, d)| *d))
            .collect()
    };
    let delta = |k: &str| {
        let get = |v: &Option<Json>| {
            v.as_ref()
                .and_then(|v| num(v, &["cache", k]))
                .unwrap_or(0.0)
        };
        get(&after) - get(&before)
    };
    let trace_us: f64 = samples.iter().map(|s| s.trace_us).sum();
    let busy_us: f64 = samples.iter().map(|s| s.latency_us).sum();
    let mut m = Metrics::default();
    m.put("replay.compile_ms", replay_compile_ms, "ms");
    m.put("replay.replay_us", replay_us, "us");
    let (hits, misses) = (delta("hits"), delta("misses"));
    m.put(
        "serve.hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    m.put("serve.hit_latency_us", percentile(hit_us, 0.5), "us");
    m.put(
        "serve.cache_lookup_us",
        percentile(&span("cache-lookup"), 0.5),
        "us",
    );
    m.put(
        "serve.miss_latency_ms",
        percentile(miss_us, 0.5) / 1e3,
        "ms",
    );
    m.put("serve.queue_wait_ms", mean(&span("queue-wait")) / 1e3, "ms");
    m.put("serve.solve_ms", mean(&span("solve")) / 1e3, "ms");
    m.put("serve.evictions", delta("evictions"), "count");
    let coalesced = |v: &Option<Json>| {
        v.as_ref()
            .and_then(|v| num(v, &["counters", "coalesced"]))
            .unwrap_or(0.0)
    };
    m.put(
        "serve.coalesced",
        coalesced(&after) - coalesced(&before),
        "count",
    );
    m.put(
        "serve.cache_used_mb",
        after
            .as_ref()
            .and_then(|v| num(v, &["cache", "used_bytes"]))
            .unwrap_or(0.0)
            / 1e6,
        "MB",
    );
    m.put(
        "trace.overhead_pct",
        if busy_us > 0.0 {
            100.0 * trace_us / busy_us
        } else {
            0.0
        },
        "%",
    );
    m.put("ops.traced", samples.len() as f64, "count");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_stream(seed: u64) -> Vec<SolveRequest> {
        // The cheapest benchmark's share of one pass.
        crate::ops::daemon_mix(seed, 1)
            .into_iter()
            .filter(|r| r.benchmark == Benchmark::Ghostscript.name())
            .collect()
    }

    #[test]
    fn a_small_stream_is_served_correctly_and_repeatably() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut d = Daemon::start().unwrap();
        let a = run(&mut d, &small_stream(3), 0.0, false, Calibrator::new());
        d.stop().unwrap();
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        let mut d = Daemon::start().unwrap();
        let b = run(&mut d, &small_stream(3), 0.0, true, Calibrator::new());
        d.stop().unwrap();
        assert!(b.failures.is_empty(), "{:?}", b.failures);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.attempted, b.attempted);
        assert!(b.metrics.get("serve.hit_rate").unwrap() > 0.0);
        assert!(b.metrics.get("replay.compile_ms").unwrap() > 0.0);
    }

    #[test]
    fn raw_body_is_the_spliced_result() {
        let frame = "{\"ok\":true,\"op\":\"compile\",\"cached\":true,\"server_us\":1,\"trace\":{\"spans\":[]},\"result\":{\"a\":[1]}}";
        assert_eq!(raw_body(frame), Some("{\"a\":[1]}"));
    }
}
