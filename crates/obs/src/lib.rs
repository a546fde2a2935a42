//! `dvs-obs` — zero-dependency observability for the DVS pipeline.
//!
//! The compile-time DVS pass is a multi-stage pipeline (profile →
//! formulate → filter → solve → emit → validate) whose behaviour used to
//! be visible only through final CSV numbers. This crate makes each stage
//! measurable:
//!
//! * **Spans** — RAII scope guards ([`span!`]) that record wall-clock
//!   intervals per thread, exportable as a Chrome trace-event JSON
//!   ([`chrome_trace_string`]) for `chrome://tracing` / Perfetto.
//! * **Metrics** — typed [`counter`]s (`milp.pivots`, `sim.cycles`, ...),
//!   [`gauge`]s (`pass.solve.wall_us`), and power-of-two-bucket
//!   [`histogram`]s.
//! * **Snapshots** — [`MetricsSnapshot::capture`] freezes everything into
//!   a plain value with JSON ([`MetricsSnapshot::to_json`]) and
//!   human-readable table ([`MetricsSnapshot::summary_table`]) renderings.
//! * **Collect scopes** — [`collect`] hands back the spans that end on the
//!   calling thread while a closure runs, whether or not collection is on;
//!   the daemon builds each request's trace tree from them.
//!
//! Collection is **off by default**, and with no scope open either the
//! whole layer costs one relaxed atomic load per call site ([`enabled`]);
//! the instrumented crates
//! additionally record only per-run/per-solve aggregates, never per-cycle
//! events, so the disabled overhead on the simulator hot loop is
//! unmeasurable (see `crates/bench/benches/simulator.rs`).
//!
//! ```
//! dvs_obs::enable();
//! dvs_obs::reset();
//! {
//!     let _g = dvs_obs::span!("demo.stage");
//!     dvs_obs::counter("demo.items", 3);
//! }
//! let snap = dvs_obs::MetricsSnapshot::capture();
//! assert_eq!(snap.counter("demo.items"), 3);
//! assert_eq!(snap.spans[0].name, "demo.stage");
//! dvs_obs::disable();
//! ```
//!
//! The [`json`] module is public and deliberately generic: it is the
//! workspace's replacement for external JSON crates (used by `dvs-ir` and
//! `dvs-vf` for their serialization round-trips as well as by the
//! exporters here).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;

pub use metrics::{
    chrome_trace, chrome_trace_string, collect, counter, current_domain, disable, domain_name,
    enable, enabled, enter_domain, epoch_us, format_us, gauge, histogram, record_span,
    register_domain, reset, thread_id, DomainGuard, HistogramSummary, MetricsSnapshot, SpanEvent,
    SpanSummary,
};

use std::time::Instant;

/// An RAII guard that records a span from construction to drop.
///
/// Obtain one through [`span()`] or the [`span!`] macro. When nothing
/// listens at construction time (collection disabled and no [`collect`]
/// scope open) the guard is inert (no clock read, no allocation, nothing
/// recorded at drop).
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// The span's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_span(self.name, start, Instant::now());
        }
    }
}

/// Starts a span named `name`; the returned guard records it when dropped.
///
/// `name` must be `'static` (use dotted lower-case names, e.g.
/// `"pass.solve"`) so recording never allocates.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    let start = metrics::listening().then(Instant::now);
    SpanGuard { name, start }
}

/// `span!("stage.name")` — sugar for [`span()`] that reads like the
/// `tracing` crate's macro. Bind the result (`let _g = span!(...)`) or the
/// span ends immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global sink is process-wide, so the unit tests here stay within
    // one `#[test]` body per concern and serialize via a lock.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_layer_records_nothing() {
        let _l = TEST_LOCK.lock().unwrap();
        disable();
        reset();
        counter("off.counter", 7);
        gauge("off.gauge", 1.0);
        histogram("off.hist", 2.0);
        drop(span("off.span"));
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.counters.len(), 0);
        assert_eq!(snap.gauges.len(), 0);
        assert_eq!(snap.histograms.len(), 0);
        assert_eq!(snap.spans.len(), 0);
    }

    #[test]
    fn counters_gauges_histograms_and_spans_round_trip() {
        let _l = TEST_LOCK.lock().unwrap();
        enable();
        reset();
        counter("t.count", 2);
        counter("t.count", 3);
        gauge("t.gauge", 1.5);
        gauge("t.gauge", 2.5);
        for v in [0.5, 1.0, 3.0, 100.0] {
            histogram("t.hist", v);
        }
        {
            let _g = span!("t.span");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = MetricsSnapshot::capture();
        disable();
        assert_eq!(snap.counter("t.count"), 5);
        assert_eq!(snap.counter("t.missing"), 0);
        assert_eq!(snap.gauge("t.gauge"), Some(2.5));
        let h = &snap.histograms[0];
        assert_eq!((h.count, h.min, h.max), (4, 0.5, 100.0));
        assert!((h.sum - 104.5).abs() < 1e-9);
        assert!(h.p50_est >= 1.0 && h.p50_est <= 100.0);
        let s = &snap.spans[0];
        assert_eq!(s.name, "t.span");
        assert_eq!(s.count, 1);
        assert!(
            s.total_us >= 1000.0,
            "span shorter than the sleep: {}",
            s.total_us
        );

        // JSON export and re-import of the scalar parts.
        let j = snap.to_json();
        let back = MetricsSnapshot::from_json(&j).unwrap();
        assert_eq!(back.counter("t.count"), 5);
        assert_eq!(back.gauge("t.gauge"), Some(2.5));
    }

    #[test]
    fn domains_partition_metrics_and_aggregate_cleanly() {
        let _l = TEST_LOCK.lock().unwrap();
        enable();
        reset();
        counter("d.count", 1); // domain 0
        gauge("d.gauge", 10.0);
        {
            let _d = enter_domain(7);
            counter("d.count", 20);
            gauge("d.gauge", 70.0); // later write: wins the aggregate
            histogram("d.hist", 4.0);
            {
                let _g = span!("d.span");
            }
            // Guards nest and restore.
            {
                let _inner = enter_domain(9);
                assert_eq!(current_domain(), 9);
                counter("d.count", 300);
            }
            assert_eq!(current_domain(), 7);
        }
        assert_eq!(current_domain(), 0);

        let all = MetricsSnapshot::capture();
        let d7 = MetricsSnapshot::capture_domain(7);
        let d9 = MetricsSnapshot::capture_domain(9);
        disable();

        assert_eq!(all.counter("d.count"), 321);
        assert_eq!(d7.counter("d.count"), 20);
        assert_eq!(d9.counter("d.count"), 300);
        assert_eq!(all.gauge("d.gauge"), Some(70.0));
        assert_eq!(d7.gauge("d.gauge"), Some(70.0));
        assert_eq!(d9.gauge("d.gauge"), None);
        assert_eq!(d7.histograms.len(), 1);
        assert_eq!(d9.histograms.len(), 0);
        assert_eq!(d7.spans.len(), 1);
        assert_eq!(d9.spans.len(), 0);
        assert_eq!(all.spans[0].count, 1);
    }

    #[test]
    fn registered_domains_have_stable_names() {
        let a = register_domain("bench.table1");
        let b = register_domain("serve.loadtest");
        assert_ne!(a, b);
        assert!(a >= 1 && b >= 1, "domain 0 stays anonymous");
        assert_eq!(domain_name(a).as_deref(), Some("bench.table1"));
        assert_eq!(domain_name(b).as_deref(), Some("serve.loadtest"));
        assert_eq!(domain_name(0), None);
        assert_eq!(domain_name(u32::MAX), None);
    }

    #[test]
    fn adaptive_units_keep_sub_microsecond_values_legible() {
        assert_eq!(format_us(0.25), "250.0 ns");
        assert_eq!(format_us(0.0), "0.00 µs");
        assert_eq!(format_us(42.5), "42.50 µs");
        assert_eq!(format_us(1_500.0), "1.50 ms");
        assert_eq!(format_us(2_000_000.0), "2.000 s");
    }

    #[test]
    fn summary_table_renders_sub_microsecond_histograms_with_units() {
        let _l = TEST_LOCK.lock().unwrap();
        enable();
        reset();
        // A time histogram whose mean is well under a microsecond: the old
        // fixed `{:.3}` rendering collapsed these rows to `0.000`.
        for _ in 0..4 {
            histogram("t.tiny_us", 0.1);
        }
        histogram("t.unitless", 0.5);
        let snap = MetricsSnapshot::capture();
        disable();
        let table = snap.summary_table();
        assert!(
            table.contains("t.tiny_us") && table.contains("ns"),
            "sub-µs histogram must render in nanoseconds:\n{table}"
        );
        assert!(
            !table.contains("mean=0.00 µs"),
            "sub-µs mean flattened to zero:\n{table}"
        );
        // Unitless histograms keep the plain numeric form.
        assert!(table.contains("t.unitless  n=1 sum=0.500"), "{table}");
    }

    fn names(spans: &[SpanEvent]) -> Vec<&'static str> {
        spans.iter().map(|s| s.name).collect()
    }

    #[test]
    fn collect_takes_this_threads_spans_with_collection_off_or_on() {
        let _l = TEST_LOCK.lock().unwrap();
        for on in [false, true] {
            if on {
                enable();
            } else {
                disable();
            }
            reset();
            let ((), spans) = collect(|| {
                drop(span("c.outer"));
                let ((), inner) = collect(|| drop(span("c.inner")));
                assert_eq!(names(&inner), ["c.inner"]);
                std::thread::spawn(|| drop(span("c.other"))).join().unwrap();
                let t = Instant::now();
                record_span("c.recorded", t, t);
                drop(span("c.after"));
            });
            assert_eq!(names(&spans), ["c.outer", "c.recorded", "c.after"]);
            assert!(spans.iter().all(|s| s.tid == thread_id()));
            let global: Vec<String> = MetricsSnapshot::capture()
                .spans
                .into_iter()
                .map(|s| s.name)
                .collect();
            if on {
                let all = ["c.after", "c.inner", "c.other", "c.outer", "c.recorded"];
                assert_eq!(global, all, "collection on: every span reaches the sink");
            } else {
                assert!(global.is_empty(), "collection off: the sink stays empty");
            }
        }
        disable();
        reset();
        // A panic closes its scope: nothing listens afterwards.
        let caught = std::panic::catch_unwind(|| {
            collect(|| {
                let _g = span("c.panics");
                panic!("inside a collect scope");
            })
        });
        assert!(caught.is_err());
        assert!(span("c.inert").start.is_none(), "the scope stayed open");
        assert!(collect(|| ()).1.is_empty());
        assert_eq!(MetricsSnapshot::capture().spans.len(), 0);
    }

    // Worker threads must start in domain 0 even when spawned from a thread
    // that entered a domain — attribution is explicit, never ambient.
    #[test]
    fn threads_do_not_inherit_domains() {
        let _l = TEST_LOCK.lock().unwrap();
        let _d = enter_domain(42);
        let child = std::thread::spawn(current_domain).join().unwrap();
        assert_eq!(child, 0);
        assert_eq!(current_domain(), 42);
    }
}
