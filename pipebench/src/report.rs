//! Summary statistics and the result line.

use dvs_obs::json::Json;

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Harrell–Davis estimate of the `p` quantile (`p` in `(0, 1)`) of unsorted
/// samples; 0 when there are none. It weights every order statistic by the
/// Beta(p(n+1), (1−p)(n+1)) mass over its rank, so where the op costs leave
/// a gap at the quantile's rank it moves smoothly across the gap instead
/// of jumping from one side to the other as a single rank does: the
/// nearest-rank 90th percentile of ten `cold-compile` runs of the same
/// seeds jumped between about 790 and 960 ms and spread 0.08 and 0.15.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    /// Midpoint-rule steps per order statistic.
    const STEPS: usize = 16;
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let log_density = |t: f64| (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln();
    let h = 1.0 / (n * STEPS) as f64;
    let logs: Vec<f64> = (0..n * STEPS)
        .map(|k| log_density((k as f64 + 0.5) * h))
        .collect();
    let peak = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let w: f64 = logs[i * STEPS..(i + 1) * STEPS]
            .iter()
            .map(|l| (l - peak).exp())
            .sum();
        sum += w * x;
        total += w;
    }
    sum / total
}

/// Arithmetic mean; 0 when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics every traced run reports, in order, with units.
/// A layer a workload never runs reads 0 there.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workloads.build_ms", "ms"),
    ("workloads.trace_minsts", "Minsts"),
    ("deadline.measure_ms", "ms"),
    ("profile.ms", "ms"),
    ("profile.minsts_per_s", "Minsts/s"),
    ("validate.ms", "ms"),
    ("filter.us", "us"),
    ("filter.tied_edges", "count"),
    ("formulate.ms", "ms"),
    ("milp.solve_ms", "ms"),
    ("milp.nodes", "count"),
    ("milp.pivots", "count"),
    ("milp.binary_vars", "count"),
    ("milp.prune_ratio", "ratio"),
    ("certify.prove_ms", "ms"),
    ("cert.check_ms", "ms"),
    ("cert.kbytes", "kB"),
    ("cert.leaves", "count"),
    ("schedule.us", "us"),
    ("verify.ms", "ms"),
    ("baseline.us", "us"),
    ("replay.compile_ms", "ms"),
    ("replay.replay_us", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.hit_latency_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.miss_latency_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.cache_used_mb", "MB"),
    ("sim.calls_per_op", "count"),
    ("sim.share_pct", "%"),
    ("prove_check.share_pct", "%"),
    ("stage.gap_max_pct", "%"),
    ("stage.untraced_gap_max_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("ops.traced", "count"),
];

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Every [`PER_LAYER`] metric, from `self` where measured and 0
    /// elsewhere.
    pub fn per_layer(&self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            m.put(name, self.get(name).unwrap_or(0.0), unit);
        }
        m
    }

    /// Appends `other`'s metrics as `<prefix>.<name>`.
    pub fn extend_prefixed(&mut self, prefix: &str, other: Metrics) {
        self.0.extend(
            other
                .0
                .into_iter()
                .map(|(n, v, u)| (format!("{prefix}.{n}"), v, u)),
        );
    }

    /// Prints one `name = value unit` line per metric.
    pub fn print(&self, label: &str) {
        for (name, value, unit) in &self.0 {
            println!("{label:<14} {name:<24} {value:>14.4} {unit}");
        }
    }

    /// The contract's result object.
    pub fn result_json(&self, attempted: usize, failed: usize) -> Json {
        let metrics = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::from(failed == 0)),
            ("attempted", Json::from(attempted as u64)),
            ("failed", Json::from(failed as u64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct RunSummary {
    /// Ops attempted in the timed window.
    pub attempted: usize,
    /// Failure messages, one per failed op or failed post-window check.
    pub failures: Vec<String>,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Metrics,
    /// Digest over every op's output, in op order.
    pub digest: u64,
    /// The host's slowdown over the window and the number of samples
    /// behind it (see [`crate::calib`]).
    pub host: (f64, usize),
}

/// End-to-end metrics shared by every workload. `window_s` is the time the
/// timed ops took, without the benchmark's own checks. Every time is in the
/// reference host's units (see [`crate::calib`]).
pub fn end_to_end(
    setup_s: f64,
    window_s: f64,
    latencies_us: &[f64],
    failed: usize,
    savings: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    let n = latencies_us.len();
    m.put("setup_s", setup_s, "s");
    m.put("ops_per_s", n as f64 / window_s, "ops/s");
    m.put("latency_p50_ms", quantile(latencies_us, 0.5) / 1e3, "ms");
    m.put("latency_p90_ms", quantile(latencies_us, 0.9) / 1e3, "ms");
    m.put(
        "ok_share",
        1.0 - failed.min(n) as f64 / n.max(1) as f64,
        "ratio",
    );
    m.put("energy_savings_pct", 100.0 * mean(savings), "%");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn harrell_davis_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 50.5).abs() < 0.01);
        assert!((quantile(&v, 0.9) - 90.5).abs() < 0.01);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Across a gap the estimate moves smoothly: nine cheap ops and one
        // dear one put the 90th percentile between the two.
        let gap: Vec<f64> = (0..100).map(|i| if i < 89 { 1.0 } else { 2.0 }).collect();
        let q = quantile(&gap, 0.9);
        assert!(q > 1.0 && q < 2.0, "{q}");
    }

    /// The metric lists in the repository's `BENCHMARK.json` are the ones
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let printed = |m: &Metrics| -> Vec<(String, String)> {
            m.0.iter()
                .map(|(n, _, u)| (n.clone(), (*u).to_string()))
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            printed(&end_to_end(1.0, 1.0, &[1.0], 0, &[]))
        );
        assert_eq!(
            listed("per_layer"),
            printed(&Metrics::default().per_layer())
        );
    }
}
