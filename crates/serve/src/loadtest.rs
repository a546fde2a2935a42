//! A multi-client load generator for the daemon.
//!
//! `clients` threads share `requests` total requests: client `c` issues
//! global request indices `c, c + clients, c + 2·clients, …`, each over
//! its own connection. The request mix is a deterministic function of
//! the **global** index alone, so runs with different client counts issue
//! the exact same multiset of requests and the per-index result digests
//! are directly comparable — that is how the test suite proves the
//! daemon's answers are independent of concurrency.

use crate::client::Client;
use crate::protocol::{Request, SolveOp, SolveRequest};
use dvs_obs::json::Json;
use dvs_workloads::Benchmark;
use std::io;
use std::time::{Duration, Instant};

/// Configuration for [`run_loadtest`].
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Daemon address.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Fix every request to this benchmark; `None` rotates through all
    /// six.
    pub benchmark: Option<String>,
    /// Voltage-ladder levels for every request.
    pub levels: usize,
    /// Regulator capacitance for every request.
    pub capacitance_uf: f64,
    /// Per-request server-side deadline, if any.
    pub timeout_ms: Option<u64>,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        LoadtestConfig {
            addr: "127.0.0.1:7411".to_string(),
            clients: 4,
            requests: 100,
            benchmark: None,
            levels: 3,
            capacitance_uf: 0.05,
            timeout_ms: None,
        }
    }
}

/// Latency percentiles over completed requests, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Median round-trip.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Slowest request.
    pub max_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
}

/// Everything one load test measured.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Requests that returned an `ok` solve reply.
    pub completed: usize,
    /// Requests shed with `busy`.
    pub shed: usize,
    /// Requests that failed any other way (I/O, timeout, solve error).
    pub errors: usize,
    /// Wall-clock for the whole run in seconds.
    pub wall_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Round-trip latency percentiles (completed requests only).
    pub latency: LatencyStats,
    /// Server-side cache-hit rate over the run: `(hits + coalesced) /
    /// (hits + coalesced + solves)`, from the daemon's own counters.
    pub cache_hit_rate: f64,
    /// Per-global-index FNV-1a digest of the re-serialized `result`
    /// payload (`None` for failed requests). Concurrency-independent.
    pub digests: Vec<Option<u64>>,
    /// Per-global-index flag: served from cache?
    pub cached: Vec<bool>,
    /// Mean `queue-wait` span duration over completed requests whose
    /// reply trace carried one (cold solves only — hits and coalesced
    /// joins never queue), from the server's own per-request traces.
    pub mean_queue_wait_us: f64,
    /// Mean `cache-lookup` span duration over completed requests, from
    /// the server's per-request traces.
    pub mean_cache_lookup_us: f64,
}

/// The deterministic request mix: global index `i` maps to benchmark
/// `all()[i mod 6]` (unless pinned) and deadline index `2 + (i/6) mod 2`,
/// giving 12 distinct requests over the default mix — enough repetition
/// that a warm run is dominated by cache hits.
#[must_use]
pub fn mix_request(config: &LoadtestConfig, index: usize) -> SolveRequest {
    let benchmark = config.benchmark.clone().unwrap_or_else(|| {
        Benchmark::all()[index % Benchmark::all().len()]
            .name()
            .to_string()
    });
    SolveRequest {
        op: SolveOp::Compile,
        benchmark,
        deadline_index: 2 + (index / Benchmark::all().len()) % 2,
        levels: config.levels,
        capacitance_uf: config.capacitance_uf,
        solver: "auto".into(),
        timeout_ms: config.timeout_ms,
        trace_id: None,
    }
}

struct Sample {
    latency_us: f64,
    outcome: Outcome,
}

enum Outcome {
    Ok {
        digest: u64,
        cached: bool,
        queue_wait_us: Option<f64>,
        cache_lookup_us: Option<f64>,
    },
    Shed,
    Error,
}

/// Pulls `(hits, coalesced, solves)` out of a `stats` reply body.
fn counters_of(stats: &Json) -> (u64, u64, u64) {
    let get = |path: &[&str]| {
        let mut v = stats;
        for k in path {
            match v.get(k) {
                Some(next) => v = next,
                None => return 0,
            }
        }
        v.as_u64().unwrap_or(0)
    };
    (
        get(&["cache", "hits"]),
        get(&["counters", "coalesced"]),
        get(&["counters", "solves"]),
    )
}

fn fetch_counters(addr: &str) -> io::Result<(u64, u64, u64)> {
    let mut c = Client::connect(addr, Some(Duration::from_secs(10)))?;
    let reply = c.request(&Request::Stats)?;
    let result = reply
        .result
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "stats reply has no result"))?;
    Ok(counters_of(&result))
}

/// The duration of the first span named `name` in a reply's trace tree;
/// `None` when the tree has no such span.
fn span_dur_us(tree: &Json, name: &str) -> Option<f64> {
    tree.get("spans")?.as_arr()?.iter().find_map(|s| {
        (s.get("name").and_then(Json::as_str) == Some(name))
            .then(|| s.get("dur_us").and_then(Json::as_f64))
            .flatten()
    })
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let idx = (((sorted.len() - 1) as f64) * q).round() as usize;
    sorted[idx]
}

/// Runs the load test and records the latency distribution into dvs-obs
/// (histogram `serve.loadtest.latency_us` under the `serve.loadtest`
/// domain, so serve metrics never alias bench metrics in shared CSVs).
///
/// # Errors
///
/// I/O errors reaching the daemon for the before/after stats probes, or
/// if *every* request fails (a flat failure is reported as an error
/// rather than a report full of `None`s).
#[allow(clippy::cast_precision_loss)]
pub fn run_loadtest(config: &LoadtestConfig) -> io::Result<LoadtestReport> {
    let clients = config.clients.max(1);
    let total = config.requests;
    let before = fetch_counters(&config.addr)?;
    let started = Instant::now();

    let mut samples: Vec<Option<Sample>> = (0..total).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    // One connection per client; once it breaks, this
                    // client's remaining requests fail fast as errors.
                    let mut conn = Client::connect(&config.addr, None).ok();
                    let mut out = Vec::new();
                    let mut i = c;
                    while i < total {
                        let req = Request::Solve(mix_request(config, i));
                        let t0 = Instant::now();
                        let outcome = match conn.as_mut().map(|cl| cl.request(&req)) {
                            Some(Ok(reply)) if reply.ok => {
                                let body =
                                    reply.result.as_ref().map(Json::dump).unwrap_or_default();
                                let mut h = dvs_compiler::fingerprint::Fnv64::new();
                                h.write_str(&body);
                                let tr = reply.trace.as_ref();
                                Outcome::Ok {
                                    digest: h.finish(),
                                    cached: reply.cached,
                                    queue_wait_us: tr.and_then(|t| span_dur_us(t, "queue-wait")),
                                    cache_lookup_us: tr
                                        .and_then(|t| span_dur_us(t, "cache-lookup")),
                                }
                            }
                            Some(Ok(reply)) if reply.kind.as_deref() == Some("busy") => {
                                Outcome::Shed
                            }
                            Some(Ok(_)) => Outcome::Error,
                            Some(Err(_)) | None => {
                                conn = None;
                                Outcome::Error
                            }
                        };
                        out.push((
                            i,
                            Sample {
                                latency_us: t0.elapsed().as_secs_f64() * 1e6,
                                outcome,
                            },
                        ));
                        i += clients;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, sample) in h.join().expect("client thread panicked") {
                samples[i] = Some(sample);
            }
        }
    });

    let wall_s = started.elapsed().as_secs_f64();
    let after = fetch_counters(&config.addr)?;

    let mut digests = Vec::with_capacity(total);
    let mut cached = Vec::with_capacity(total);
    let mut latencies = Vec::new();
    let mut queue_waits = Vec::new();
    let mut cache_lookups = Vec::new();
    let (mut completed, mut shed, mut errors) = (0usize, 0usize, 0usize);
    for sample in samples {
        let sample = sample.expect("every index was visited by exactly one client");
        match sample.outcome {
            Outcome::Ok {
                digest,
                cached: c,
                queue_wait_us,
                cache_lookup_us,
            } => {
                completed += 1;
                digests.push(Some(digest));
                cached.push(c);
                latencies.push(sample.latency_us);
                queue_waits.extend(queue_wait_us);
                cache_lookups.extend(cache_lookup_us);
            }
            Outcome::Shed => {
                shed += 1;
                digests.push(None);
                cached.push(false);
            }
            Outcome::Error => {
                errors += 1;
                digests.push(None);
                cached.push(false);
            }
        }
    }
    if completed == 0 && total > 0 {
        return Err(io::Error::other("every load-test request failed"));
    }

    // Record under the dedicated domain so these metrics stay separable
    // from bench-harness metrics in shared exports.
    if dvs_obs::enabled() {
        let domain = dvs_obs::register_domain("serve.loadtest");
        let _d = dvs_obs::enter_domain(domain);
        for &l in &latencies {
            dvs_obs::histogram("serve.loadtest.latency_us", l);
        }
        for &w in &queue_waits {
            dvs_obs::histogram("serve.loadtest.queue_wait_us", w);
        }
        for &l in &cache_lookups {
            dvs_obs::histogram("serve.loadtest.cache_lookup_us", l);
        }
        dvs_obs::counter("serve.loadtest.completed", completed as u64);
        dvs_obs::counter("serve.loadtest.shed", shed as u64);
        dvs_obs::counter("serve.loadtest.errors", errors as u64);
        dvs_obs::gauge(
            "serve.loadtest.throughput_rps",
            completed as f64 / wall_s.max(1e-9),
        );
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let latency = LatencyStats {
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0.0),
        mean_us: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        },
    };
    let (d_hits, d_coal, d_solves) = (
        after.0.saturating_sub(before.0),
        after.1.saturating_sub(before.1),
        after.2.saturating_sub(before.2),
    );
    let served = d_hits + d_coal + d_solves;
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    Ok(LoadtestReport {
        completed,
        shed,
        errors,
        wall_s,
        throughput_rps: completed as f64 / wall_s.max(1e-9),
        latency,
        cache_hit_rate: if served == 0 {
            0.0
        } else {
            (d_hits + d_coal) as f64 / served as f64
        },
        digests,
        cached,
        mean_queue_wait_us: mean(&queue_waits),
        mean_cache_lookup_us: mean(&cache_lookups),
    })
}
