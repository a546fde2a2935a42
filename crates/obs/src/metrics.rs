//! The global metrics sink: typed counters, gauges and histograms plus the
//! span-event buffer, all behind one mutex that is only ever touched when
//! collection is enabled.

use crate::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span events kept before the buffer saturates; a counter of dropped
/// events is maintained past this point so truncation is never silent.
const MAX_SPAN_EVENTS: usize = 1 << 20;

/// The single global "is collection on?" flag. Every recording entry point
/// checks this with one relaxed atomic load and returns immediately when
/// off, which is what keeps the disabled layer out of hot-loop profiles.
static ENABLED: AtomicBool = AtomicBool::new(false);

static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();

/// Monotone sequence for compact per-thread ids (Chrome traces want small
/// integer `tid`s; `std::thread::ThreadId` has no stable integer form).
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DOMAIN: Cell<u32> = const { Cell::new(0) };
}

/// The compact id of the calling thread (stable for the thread's life).
#[must_use]
pub fn thread_id() -> u32 {
    TID.with(|t| *t)
}

/// The metric domain the calling thread currently records into.
///
/// Domains attribute metrics to logical units of work (one bench experiment,
/// one grid cell) rather than to threads, so a parallel harness can still
/// produce per-experiment [`MetricsSnapshot`]s. Domain `0` is the default
/// for code that never calls [`enter_domain`].
#[must_use]
pub fn current_domain() -> u32 {
    DOMAIN.with(Cell::get)
}

/// Restores the previous metric domain of its thread when dropped.
#[derive(Debug)]
pub struct DomainGuard {
    prev: u32,
}

impl Drop for DomainGuard {
    fn drop(&mut self) {
        DOMAIN.with(|d| d.set(self.prev));
    }
}

/// Routes this thread's subsequent counters/gauges/histograms/spans into
/// `domain` until the returned guard drops (guards nest; the previous
/// domain is restored).
///
/// Worker threads do **not** inherit a domain — a thread working for a
/// caller must enter the caller's domain itself, as `dvs-runtime`'s
/// `Pool::map` and the simulator's helper threads do.
#[must_use]
pub fn enter_domain(domain: u32) -> DomainGuard {
    DomainGuard {
        prev: DOMAIN.with(|d| d.replace(domain)),
    }
}

/// Registry of human-readable domain names. Registration is cheap and works
/// whether or not collection is enabled, so attribution survives
/// enable/disable cycles; [`reset`] does not clear it (names are identity,
/// not data).
static DOMAIN_NAMES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();

fn domain_names() -> &'static Mutex<Vec<String>> {
    DOMAIN_NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Allocates a fresh metric domain id and associates `name` with it.
///
/// Ids start at 1 (domain 0 is the anonymous default) and are unique for
/// the life of the process, so two units of work — say a bench experiment
/// and a serve request batch — can never alias each other's metrics even
/// when they run concurrently. Use the returned id with [`enter_domain`]
/// and [`MetricsSnapshot::capture_domain`].
#[must_use]
pub fn register_domain(name: &str) -> u32 {
    let mut names = domain_names().lock().expect("domain registry poisoned");
    names.push(name.to_string());
    u32::try_from(names.len()).expect("fewer than 2^32 domains")
}

/// The name a domain was registered under, if any. Domain 0 and ids that
/// were claimed via [`enter_domain`] without registration have no name.
#[must_use]
pub fn domain_name(domain: u32) -> Option<String> {
    if domain == 0 {
        return None;
    }
    let names = domain_names().lock().expect("domain registry poisoned");
    names.get(domain as usize - 1).cloned()
}

/// A finished span occurrence, timestamped against the sink epoch.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Static span name, e.g. `"pass.solve"`.
    pub name: &'static str,
    /// Compact id of the thread the span ran on.
    pub tid: u32,
    /// Metric domain active when the span finished (see [`enter_domain`]).
    pub domain: u32,
    /// Start time in µs since the sink epoch.
    pub ts_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
}

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Power-of-two buckets: bucket `i` counts values in `[2^(i-1), 2^i)`,
    /// bucket 0 counts values below 1.
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    fn record(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v < 1.0 {
            0
        } else {
            (v.log2() as usize + 1).min(63)
        };
        self.buckets[bucket] += 1;
    }

    /// Folds another histogram into this one (used when aggregating the
    /// per-domain shards of one metric name into a cross-domain snapshot).
    fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

/// Key of a per-domain metric shard: (metric name, domain id). Ordering by
/// name first keeps cross-domain aggregation a single ordered walk.
type Key = (&'static str, u32);

#[derive(Debug, Default)]
struct Sink {
    counters: BTreeMap<Key, u64>,
    /// Gauge shards carry the global write sequence number so "last write
    /// wins" still holds when shards from several domains are merged.
    gauges: BTreeMap<Key, (u64, f64)>,
    gauge_seq: u64,
    histograms: BTreeMap<Key, Histogram>,
    spans: Vec<SpanEvent>,
    dropped_spans: u64,
}

fn sink() -> &'static Mutex<Sink> {
    SINK.get_or_init(|| Mutex::new(Sink::default()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether collection is currently enabled. One relaxed atomic load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on (idempotent). Also pins the trace epoch, so `ts`
/// values in a Chrome trace are relative to (roughly) the first `enable`.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection off. Already-recorded data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears every counter, gauge, histogram and span event.
pub fn reset() {
    let mut s = sink().lock().expect("obs sink poisoned");
    *s = Sink::default();
}

/// Adds `delta` to the named monotonic counter in the calling thread's
/// current domain. No-op while disabled.
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let key = (name, current_domain());
    let mut s = sink().lock().expect("obs sink poisoned");
    *s.counters.entry(key).or_insert(0) += delta;
}

/// Sets the named gauge to `value` (last write wins, tracked with a global
/// write sequence so cross-domain aggregation stays well defined). No-op
/// while disabled.
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let key = (name, current_domain());
    let mut s = sink().lock().expect("obs sink poisoned");
    s.gauge_seq += 1;
    let seq = s.gauge_seq;
    s.gauges.insert(key, (seq, value));
}

/// Records one observation into the named histogram in the calling thread's
/// current domain. No-op while disabled.
pub fn histogram(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let key = (name, current_domain());
    let mut s = sink().lock().expect("obs sink poisoned");
    s.histograms.entry(key).or_default().record(value);
}

/// Records a finished span. Called by the [`crate::SpanGuard`] drop; public
/// so exporters can be tested without real time passing.
pub fn record_span(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let e = epoch();
    let ts_us = start.saturating_duration_since(e).as_secs_f64() * 1e6;
    let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
    let mut s = sink().lock().expect("obs sink poisoned");
    if s.spans.len() >= MAX_SPAN_EVENTS {
        s.dropped_spans += 1;
        return;
    }
    s.spans.push(SpanEvent {
        name,
        tid: thread_id(),
        domain: current_domain(),
        ts_us,
        dur_us,
    });
}

/// Aggregated statistics of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median estimated from the power-of-two buckets (upper bound of the
    /// bucket holding the middle observation).
    pub p50_est: f64,
}

/// Aggregated statistics of one span name at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Total time inside the span, µs (self-time is not subtracted).
    pub total_us: f64,
    /// Longest single occurrence, µs.
    pub max_us: f64,
}

/// A point-in-time copy of every metric, detached from the live sink.
///
/// This is the unit the rest of the workspace passes around (bench reports
/// attach one per experiment) and the input to the JSON/table exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last written value), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Per-span-name aggregates, sorted by name.
    pub spans: Vec<SpanSummary>,
    /// Span events discarded after the buffer filled (0 in healthy runs).
    pub dropped_spans: u64,
}

impl MetricsSnapshot {
    /// Captures the current state of the global sink, aggregated across
    /// every metric domain (counters/histograms sum; a gauge takes its
    /// globally most recent write).
    #[must_use]
    pub fn capture() -> Self {
        Self::capture_where(&|_| true)
    }

    /// Captures only the metrics recorded in one domain (see
    /// [`enter_domain`]) — the per-experiment snapshot of a parallel bench
    /// run. `dropped_spans` is a property of the shared buffer and is
    /// reported as-is.
    #[must_use]
    pub fn capture_domain(domain: u32) -> Self {
        Self::capture_where(&|d| d == domain)
    }

    fn capture_where(keep: &dyn Fn(u32) -> bool) -> Self {
        let s = sink().lock().expect("obs sink poisoned");
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (&(name, dom), &v) in &s.counters {
            if keep(dom) {
                *counters.entry(name).or_insert(0) += v;
            }
        }
        let mut gauges: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (&(name, dom), &(seq, v)) in &s.gauges {
            if keep(dom) {
                let e = gauges.entry(name).or_insert((seq, v));
                if seq >= e.0 {
                    *e = (seq, v);
                }
            }
        }
        let mut merged: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for (&(name, dom), h) in &s.histograms {
            if keep(dom) {
                merged.entry(name).or_default().merge(h);
            }
        }
        let histograms = merged
            .iter()
            .map(|(name, h)| {
                let mut seen = 0u64;
                let mut p50 = h.max;
                for (i, &c) in h.buckets.iter().enumerate() {
                    seen += c;
                    if seen * 2 >= h.count {
                        p50 = 2f64.powi(i as i32).min(h.max);
                        break;
                    }
                }
                HistogramSummary {
                    name: (*name).to_string(),
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    p50_est: p50,
                }
            })
            .collect();
        let mut by_name: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for ev in s.spans.iter().filter(|ev| keep(ev.domain)) {
            let agg = by_name.entry(ev.name).or_insert_with(|| SpanSummary {
                name: ev.name.to_string(),
                count: 0,
                total_us: 0.0,
                max_us: 0.0,
            });
            agg.count += 1;
            agg.total_us += ev.dur_us;
            agg.max_us = agg.max_us.max(ev.dur_us);
        }
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(k, (_, v))| (k.to_string(), v))
                .collect(),
            histograms,
            spans: by_name.into_values().collect(),
            dropped_spans: s.dropped_spans,
        }
    }

    /// The value of a counter, or 0 when it was never incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The value of a gauge, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Serializes the snapshot as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        );
        let histograms = Json::Arr(
            self.histograms
                .iter()
                .map(|h| {
                    Json::obj([
                        ("name", Json::from(h.name.as_str())),
                        ("count", Json::from(h.count)),
                        ("sum", Json::from(h.sum)),
                        ("min", Json::from(h.min)),
                        ("max", Json::from(h.max)),
                        ("p50_est", Json::from(h.p50_est)),
                    ])
                })
                .collect(),
        );
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name.as_str())),
                        ("count", Json::from(s.count)),
                        ("total_us", Json::from(s.total_us)),
                        ("max_us", Json::from(s.max_us)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
            ("spans".to_string(), spans),
            ("dropped_spans".to_string(), Json::from(self.dropped_spans)),
        ])
    }

    /// Parses a snapshot previously produced by [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut snap = MetricsSnapshot::default();
        if let Some(members) = v.get("counters").and_then(Json::as_obj) {
            for (k, val) in members {
                let n = val
                    .as_u64()
                    .ok_or_else(|| format!("counter `{k}` not a u64"))?;
                snap.counters.push((k.clone(), n));
            }
        }
        if let Some(members) = v.get("gauges").and_then(Json::as_obj) {
            for (k, val) in members {
                let n = val
                    .as_f64()
                    .ok_or_else(|| format!("gauge `{k}` not a number"))?;
                snap.gauges.push((k.clone(), n));
            }
        }
        if let Some(items) = v.get("histograms").and_then(Json::as_arr) {
            for h in items {
                let name = h
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("histogram without a name")?
                    .to_string();
                let field = |key: &str| {
                    h.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("histogram `{name}`: `{key}` not a number"))
                };
                snap.histograms.push(HistogramSummary {
                    count: h
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("histogram `{name}`: `count` not a u64"))?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    p50_est: field("p50_est")?,
                    name,
                });
            }
        }
        if let Some(items) = v.get("spans").and_then(Json::as_arr) {
            for s in items {
                let name = s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span without a name")?
                    .to_string();
                let field = |key: &str| {
                    s.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("span `{name}`: `{key}` not a number"))
                };
                snap.spans.push(SpanSummary {
                    count: s
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("span `{name}`: `count` not a u64"))?,
                    total_us: field("total_us")?,
                    max_us: field("max_us")?,
                    name,
                });
            }
        }
        if let Some(d) = v.get("dropped_spans").and_then(Json::as_u64) {
            snap.dropped_spans = d;
        }
        Ok(snap)
    }

    /// A human-readable, aligned summary of every metric — the `--metrics`
    /// output of `dvsc`.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== metrics ==");
        if !self.counters.is_empty() {
            let w = self
                .counters
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<w$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "-- gauges --");
            let w = self.gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<w$}  {v:.3}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "-- histograms --");
            for h in &self.histograms {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    let c = h.count as f64;
                    h.sum / c
                };
                // Histograms named `*_us` hold microsecond quantities and
                // get adaptive ns/µs/ms units so sub-microsecond means no
                // longer flatten to `0.000`; unitless histograms keep a
                // plain numeric rendering.
                if h.name.ends_with("_us") {
                    let _ = writeln!(
                        out,
                        "  {}  n={} sum={} mean={} min={} p50≈{} max={}",
                        h.name,
                        h.count,
                        format_us(h.sum),
                        format_us(mean),
                        format_us(h.min),
                        format_us(h.p50_est),
                        format_us(h.max)
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "  {}  n={} sum={:.3} mean={:.3} min={:.3} p50≈{:.3} max={:.3}",
                        h.name, h.count, h.sum, mean, h.min, h.p50_est, h.max
                    );
                }
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "-- spans --");
            let w = self.spans.iter().map(|s| s.name.len()).max().unwrap_or(0);
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<w$}  n={:<6} total={:>12} max={:>10}",
                    s.name,
                    s.count,
                    format_us(s.total_us),
                    format_us(s.max_us)
                );
            }
        }
        if self.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "!! {} span events dropped (buffer full)",
                self.dropped_spans
            );
        }
        out
    }
}

/// Formats a microsecond quantity with an adaptive unit — ns below 1 µs,
/// µs below 1 ms, ms below 1 s, seconds above — so sub-microsecond values
/// stay legible instead of rounding to `0.000`.
#[must_use]
pub fn format_us(us: f64) -> String {
    let a = us.abs();
    if a > 0.0 && a < 1.0 {
        format!("{:.1} ns", us * 1e3)
    } else if a < 1e3 {
        format!("{us:.2} µs")
    } else if a < 1e6 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{:.3} s", us / 1e6)
    }
}

/// Renders every recorded span as a Chrome trace-event JSON array —
/// loadable in `chrome://tracing` and <https://ui.perfetto.dev>.
///
/// Each event is a "complete" (`"ph": "X"`) event carrying `name`, `cat`,
/// `ts`/`dur` in microseconds, and `pid`/`tid`.
#[must_use]
pub fn chrome_trace() -> Json {
    let s = sink().lock().expect("obs sink poisoned");
    Json::Arr(
        s.spans
            .iter()
            .map(|ev| {
                Json::obj([
                    ("name", Json::from(ev.name)),
                    ("cat", Json::from("dvs")),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(ev.ts_us)),
                    ("dur", Json::from(ev.dur_us)),
                    ("pid", Json::from(1_u64)),
                    ("tid", Json::from(u64::from(ev.tid))),
                ])
            })
            .collect(),
    )
}

/// [`chrome_trace`] serialized as a compact string, ready to write to the
/// `--trace-out` file.
#[must_use]
pub fn chrome_trace_string() -> String {
    chrome_trace().dump()
}
