//! `dvs-serve` — compilation as a service for the DVS pass.
//!
//! The MILP solve at the heart of the compile-time DVS pass costs tens to
//! hundreds of milliseconds per `(benchmark, deadline, ladder, regulator)`
//! request, yet its output is a pure function of those inputs. This crate
//! turns that purity into a long-running daemon:
//!
//! * **Protocol** ([`protocol`]) — a length-prefixed JSON frame protocol
//!   over TCP: `ping`, `stats`, `shutdown`, `traces`, and
//!   `compile`/`verify`/`evaluate`/`certify` solve requests.
//! * **Content-addressed cache** ([`cache`]) — requests are canonically
//!   serialized (resolved benchmark name + deadline index + the
//!   compiler's semantic config digest) and FNV-1a-hashed; a hit returns
//!   the stored [`dvs_compiler::CompileResult`] JSON byte-identically,
//!   without touching the MILP. Beside the bodies, the same LRU and byte
//!   budget hold one [`Stage`] per (benchmark, ladder): the profile and
//!   deadline scheme every request on that pair shares, so a cold request
//!   pays only for its own deadline and op.
//! * **Worker loops and coalescing** ([`server`]) — concurrent identical
//!   requests collapse onto one in-flight solve; distinct requests go to
//!   whichever of the `jobs` workers is free.
//! * **Admission control** — a bounded pending queue sheds overload with
//!   an explicit `busy` reply, per-request deadlines abandon waits (the
//!   solve still completes and populates the cache), and a `shutdown`
//!   request drains the daemon gracefully.
//! * **Request tracing** — every completed solve reply carries a
//!   per-request trace tree in its **envelope**, never the cached body.
//!   The tree holds the `dvs_obs` spans that the request's connection
//!   thread and its worker recorded inside `dvs_obs::collect` scopes:
//!   cache lookup, cache hit or coalesce join, queue wait, emit, and
//!   `solve` with the pass's own stages (build, `pass.profile`,
//!   `pass.solve`, `pass.validate`, ...) nested under it. The `traces` op
//!   replays the last 64 trees as Chrome trace events.
//! * **Clients** ([`client`], [`loadtest`]) — a blocking request/reply
//!   client and a multi-connection load generator whose request mix is a
//!   pure function of the global request index, making results
//!   comparable across client counts.
//!
//! Everything is observable through `dvs-obs`: `serve.cache.*` and
//! `serve.stage.*` counters, the `serve.queue_wait_us` histogram, and
//! load-test latencies under the registered `serve.loadtest` domain.
//!
//! ```no_run
//! use dvs_serve::{Client, Request, ServeConfig, Server};
//!
//! let server = Server::bind(&ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let handle = std::thread::spawn(move || server.run());
//! let mut client = Client::connect(&addr, None).unwrap();
//! let pong = client.request(&Request::Ping).unwrap();
//! assert!(pong.ok);
//! client.request(&Request::Shutdown).unwrap();
//! handle.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod loadtest;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, SolveCache, Stage};
pub use client::{Client, Reply};
pub use loadtest::{run_loadtest, LatencyStats, LoadtestConfig, LoadtestReport};
pub use protocol::{Request, SolveOp, SolveRequest};
pub use server::{ServeConfig, ServeSummary, Server};
