//! Per-request trace trees for the daemon.
//!
//! Unlike the process-global `dvs-obs` span sink, a [`TraceCtx`] belongs
//! to **one** request: the connection handler owns it for the request's
//! lifetime, so there is no aggregation, no locking and no sampling —
//! every solve request gets a complete tree of the stages it passed
//! through (queue wait, cache lookup, coalesce join, solve, emit). The
//! finished tree rides back to the client inside the response *envelope*
//! (never the cached result body, which must stay byte-identical between
//! cold and warm serves) and is retained in a bounded ring that the
//! `traces` op renders as Chrome trace events.
//!
//! Span timestamps are microsecond offsets from the request's arrival,
//! so a tree is self-contained: no wall-clock epoch leaks into the wire
//! format.

use dvs_obs::json::Json;
use std::time::Instant;

/// The span id of the root `request` span every [`TraceCtx`] starts with.
pub const ROOT_SPAN: u64 = 1;

/// One timed stage of a request. `parent` is `0` only for the root span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span id, unique within the trace (root is [`ROOT_SPAN`]).
    pub id: u64,
    /// Parent span id (`0` for the root).
    pub parent: u64,
    /// Stage name (`queue-wait`, `cache-lookup`, `solve`, ...).
    pub name: &'static str,
    /// Start, in microseconds since the request arrived.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// A per-request trace under construction. Created when a solve request
/// is parsed, finished (and serialized) when its reply is built.
#[derive(Debug)]
pub struct TraceCtx {
    trace_id: u64,
    t0: Instant,
    spans: Vec<TraceSpan>,
    next_id: u64,
}

impl TraceCtx {
    /// Starts a trace rooted at a `request` span beginning at `t0` (the
    /// instant the request frame was parsed). `trace_id` is either the
    /// client-supplied id or one the server assigned.
    #[must_use]
    pub fn new(trace_id: u64, t0: Instant) -> TraceCtx {
        TraceCtx {
            trace_id,
            t0,
            spans: vec![TraceSpan {
                id: ROOT_SPAN,
                parent: 0,
                name: "request",
                ts_us: 0.0,
                dur_us: 0.0,
            }],
            next_id: ROOT_SPAN + 1,
        }
    }

    /// The trace id this context was created with.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Microseconds elapsed since the request arrived.
    #[must_use]
    pub fn now_us(&self) -> f64 {
        Instant::now()
            .checked_duration_since(self.t0)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6)
    }

    /// Opens a child span starting now; close it with [`TraceCtx::end`].
    pub fn begin(&mut self, parent: u64, name: &'static str) -> u64 {
        let ts_us = self.now_us();
        self.push(parent, name, ts_us, 0.0)
    }

    /// Closes a span opened with [`TraceCtx::begin`]. Unknown ids are
    /// ignored.
    pub fn end(&mut self, id: u64) {
        let now = self.now_us();
        if let Some(s) = self.spans.iter_mut().find(|s| s.id == id) {
            s.dur_us = (now - s.ts_us).max(0.0);
        }
    }

    /// Records a span whose timing was measured elsewhere — the worker
    /// that runs a solve observes its queue wait and solve time and ships
    /// them back with the result, so the connection thread places them on
    /// the request timeline after the fact.
    pub fn record(&mut self, parent: u64, name: &'static str, ts_us: f64, dur_us: f64) -> u64 {
        self.push(parent, name, ts_us, dur_us.max(0.0))
    }

    fn push(&mut self, parent: u64, name: &'static str, ts_us: f64, dur_us: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(TraceSpan {
            id,
            parent,
            name,
            ts_us,
            dur_us,
        });
        id
    }

    /// Closes the root span and renders the finished tree:
    /// `{"trace_id": N, "spans": [{id, parent, name, ts_us, dur_us}, ...]}`.
    #[must_use]
    pub fn finish(mut self) -> Json {
        self.spans[0].dur_us = self.now_us();
        Json::obj([
            ("trace_id", Json::from(self.trace_id)),
            (
                "spans",
                Json::Arr(self.spans.iter().map(span_json).collect()),
            ),
        ])
    }
}

fn span_json(s: &TraceSpan) -> Json {
    Json::obj([
        ("id", Json::from(s.id)),
        ("parent", Json::from(s.parent)),
        ("name", Json::from(s.name)),
        ("ts_us", Json::from(s.ts_us)),
        ("dur_us", Json::from(s.dur_us)),
    ])
}

/// Renders one finished trace tree (as produced by [`TraceCtx::finish`])
/// into Chrome trace events: one complete (`"ph":"X"`) event per span,
/// with the trace id as the `tid` so each request gets its own track in
/// `chrome://tracing` / Perfetto.
#[must_use]
pub fn chrome_events(tree: &Json) -> Vec<Json> {
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

/// Pulls the duration of the first span named `name` out of a finished
/// trace tree; `None` when the tree has no such span. Used by the load
/// generator to extract `queue-wait` / `cache-lookup` times from reply
/// envelopes.
#[must_use]
pub fn span_dur_us(tree: &Json, name: &str) -> Option<f64> {
    tree.get("spans")?.as_arr()?.iter().find_map(|s| {
        (s.get("name").and_then(Json::as_str) == Some(name))
            .then(|| s.get("dur_us").and_then(Json::as_f64))
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trees_nest_and_serialize() {
        let mut tr = TraceCtx::new(7, Instant::now());
        let lookup = tr.begin(ROOT_SPAN, "cache-lookup");
        tr.end(lookup);
        tr.record(ROOT_SPAN, "queue-wait", 10.0, 25.0);
        tr.record(ROOT_SPAN, "solve", 35.0, 100.0);
        let tree = tr.finish();
        assert_eq!(tree.get("trace_id").and_then(Json::as_u64), Some(7));
        let spans = tree.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 4);
        // Root first, everything else parented under it.
        assert_eq!(spans[0].get("id").and_then(Json::as_u64), Some(ROOT_SPAN));
        assert_eq!(spans[0].get("parent").and_then(Json::as_u64), Some(0));
        for s in &spans[1..] {
            assert_eq!(s.get("parent").and_then(Json::as_u64), Some(ROOT_SPAN));
        }
        assert_eq!(span_dur_us(&tree, "queue-wait"), Some(25.0));
        assert_eq!(span_dur_us(&tree, "no-such-span"), None);
        // Round-trips through the wire form.
        let back = Json::parse(&tree.dump()).unwrap();
        assert_eq!(span_dur_us(&back, "solve"), Some(100.0));
    }

    #[test]
    fn chrome_events_carry_span_links() {
        let mut tr = TraceCtx::new(42, Instant::now());
        tr.record(ROOT_SPAN, "solve", 1.0, 2.0);
        let tree = tr.finish();
        let events = chrome_events(&tree);
        assert_eq!(events.len(), 2);
        for e in &events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(e.get("tid").and_then(Json::as_u64), Some(42));
            assert!(e.get("args").and_then(|a| a.get("parent")).is_some());
        }
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("solve"));
    }
}
