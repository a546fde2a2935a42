use dvs_ir::Cfg;
use dvs_sim::{Machine, Trace};
use dvs_vf::OperatingPoint;

/// The paper's Fig. 16 deadline-selection scheme.
///
/// For each benchmark, five application-specific deadlines are placed
/// between the fastest-mode runtime (`Exec_time3`, below which no schedule
/// is feasible) and the slowest-mode runtime (`Exec_time1`, above which the
/// slowest mode alone suffices):
///
/// * **D1** — just above the fastest-mode runtime (stringent);
/// * **D2** — below the middle-mode runtime, forcing a fast/middle mix;
/// * **D3** — just above the middle-mode runtime;
/// * **D4** — between middle and slowest;
/// * **D5** — just *below* the slowest-mode runtime (lax, but the
///   all-slowest schedule alone cannot meet it — Table 4 of the paper puts
///   Deadline 5 at ~98.5% of the 200 MHz runtime for most benchmarks,
///   which is what makes the Fig. 15 transition-cost sweep interesting).
///
/// The interpolation fractions reproduce the relative positions of the
/// paper's Table 4 deadlines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineScheme {
    /// Runtime at the slowest reference mode (200 MHz), µs.
    pub t_slow_us: f64,
    /// Runtime at the middle reference mode (600 MHz), µs.
    pub t_mid_us: f64,
    /// Runtime at the fastest reference mode (800 MHz), µs.
    pub t_fast_us: f64,
}

impl DeadlineScheme {
    /// Measures the three reference runtimes of `trace` at the paper's
    /// 200/600/800 MHz XScale points, with one [`Machine::run_points`]
    /// call: one walk of the caches and predictor, timed at each point.
    #[must_use]
    pub fn measure(machine: &Machine, cfg: &Cfg, trace: &Trace) -> Self {
        let points = [
            OperatingPoint::new(0.7, 200.0),
            OperatingPoint::new(1.3, 600.0),
            OperatingPoint::new(1.65, 800.0),
        ];
        let runs = machine.run_points(cfg, trace, &points);
        DeadlineScheme {
            t_slow_us: runs[0].total_time_us,
            t_mid_us: runs[1].total_time_us,
            t_fast_us: runs[2].total_time_us,
        }
    }

    /// Builds the scheme from known runtimes (µs).
    #[must_use]
    pub fn from_times(t_slow_us: f64, t_mid_us: f64, t_fast_us: f64) -> Self {
        DeadlineScheme {
            t_slow_us,
            t_mid_us,
            t_fast_us,
        }
    }

    /// The five deadlines, most stringent first (`[D1, D2, D3, D4, D5]`).
    #[must_use]
    pub fn deadlines_us(&self) -> [f64; 5] {
        let (ts, tm, tf) = (self.t_slow_us, self.t_mid_us, self.t_fast_us);
        [
            tf + 0.07 * (tm - tf),
            tf + 0.85 * (tm - tf),
            tm + 0.02 * (ts - tm),
            tm + 0.30 * (ts - tm),
            0.985 * ts,
        ]
    }

    /// The deadline for the 1-based paper index `i` (`1` = most stringent,
    /// `5` = most lax).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not in `1..=5`.
    #[must_use]
    pub fn deadline_us(&self, i: usize) -> f64 {
        assert!((1..=5).contains(&i), "deadline index {i} out of range");
        self.deadlines_us()[i - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_are_ordered_and_bracketed() {
        // Use the paper's mpeg/decode Table 4 numbers (ms).
        let s = DeadlineScheme::from_times(557_600.0, 187_300.0, 141_000.0);
        let d = s.deadlines_us();
        for w in d.windows(2) {
            assert!(w[0] < w[1], "deadlines must be increasing");
        }
        assert!(d[0] > s.t_fast_us, "D1 must be feasible at max speed");
        assert!(d[4] < s.t_slow_us, "D5 is just below the slow runtime");
        assert!(d[4] > 0.95 * s.t_slow_us);
        // D2 sits below the middle-mode runtime (forces mixing), D3 above.
        assert!(d[1] < s.t_mid_us);
        assert!(d[2] > s.t_mid_us);
    }

    #[test]
    fn positions_resemble_paper_table4_for_mpeg() {
        let s = DeadlineScheme::from_times(557_600.0, 187_300.0, 141_000.0);
        let d = s.deadlines_us();
        // Paper picks (ms): 151, 181, 190, 300, 557.6. Same ballpark:
        assert!(
            (d[0] / 1000.0 - 151.0).abs() < 10.0,
            "D1 = {}",
            d[0] / 1000.0
        );
        assert!(
            (d[1] / 1000.0 - 181.0).abs() < 10.0,
            "D2 = {}",
            d[1] / 1000.0
        );
        assert!(
            (d[2] / 1000.0 - 190.0).abs() < 10.0,
            "D3 = {}",
            d[2] / 1000.0
        );
        assert!(
            (d[3] / 1000.0 - 300.0).abs() < 15.0,
            "D4 = {}",
            d[3] / 1000.0
        );
        assert!(
            (d[4] / 1000.0 - 549.2).abs() < 1.0,
            "D5 = {}",
            d[4] / 1000.0
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_zero_rejected() {
        let s = DeadlineScheme::from_times(3.0, 2.0, 1.0);
        let _ = s.deadline_us(0);
    }
}
