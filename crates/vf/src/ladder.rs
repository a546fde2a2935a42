use crate::{AlphaPower, ModeId, OperatingPoint, VfError};
use dvs_obs::json::Json;

/// An ordered set of discrete `(V, f)` operating points, slowest first.
///
/// The paper studies ladders with 3, 7 and 13 levels; [`VoltageLadder`]
/// generates any size between the same endpoints using the alpha-power law.
///
/// # Example
///
/// ```
/// use dvs_vf::{AlphaPower, VoltageLadder};
/// let law = AlphaPower::paper();
/// let ladder = VoltageLadder::interpolated(&law, 7).unwrap();
/// assert_eq!(ladder.len(), 7);
/// assert!(ladder.slowest().frequency_mhz < ladder.fastest().frequency_mhz);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageLadder {
    points: Vec<OperatingPoint>,
}

impl VoltageLadder {
    /// The most levels [`VoltageLadder::paper`] builds, well above the 3,
    /// 7 and 13 the paper studies. The size arrives from outside the
    /// program (`dvsc --levels`, a daemon request's `levels`), and every
    /// level costs a simulator timing pass and MILP columns.
    pub const MAX_PAPER_LEVELS: usize = 32;

    /// Builds a ladder from explicit points, which must be strictly
    /// increasing in both voltage and frequency.
    ///
    /// # Errors
    ///
    /// [`VfError::LadderTooSmall`] for fewer than 2 points and
    /// [`VfError::NonMonotonicLadder`] if ordering is violated.
    pub fn from_points(points: Vec<OperatingPoint>) -> Result<Self, VfError> {
        if points.len() < 2 {
            return Err(VfError::LadderTooSmall {
                levels: points.len(),
            });
        }
        for w in points.windows(2) {
            if w[1].voltage <= w[0].voltage || w[1].frequency_mhz <= w[0].frequency_mhz {
                return Err(VfError::NonMonotonicLadder);
            }
        }
        Ok(VoltageLadder { points })
    }

    /// The paper's 3-level XScale-like ladder. The `law` argument is unused
    /// numerically (the paper fixes these pairs) but documents that the pairs
    /// approximately satisfy it.
    #[must_use]
    pub fn xscale3(_law: &AlphaPower) -> Self {
        VoltageLadder {
            points: vec![
                OperatingPoint::new(0.7, 200.0),
                OperatingPoint::new(1.3, 600.0),
                OperatingPoint::new(1.65, 800.0),
            ],
        }
    }

    /// A ladder of `levels` points with voltages evenly spaced over
    /// [0.7 V, 1.65 V] and frequencies from `law`.
    ///
    /// # Errors
    ///
    /// [`VfError::LadderTooSmall`] if `levels < 2`.
    pub fn interpolated(law: &AlphaPower, levels: usize) -> Result<Self, VfError> {
        if levels < 2 {
            return Err(VfError::LadderTooSmall { levels });
        }
        let (v_lo, v_hi) = (0.7, 1.65);
        let mut points = Vec::with_capacity(levels);
        for i in 0..levels {
            let v = v_lo + (v_hi - v_lo) * i as f64 / (levels - 1) as f64;
            let f = law.frequency_mhz(v)?;
            points.push(OperatingPoint::new(v, f));
        }
        VoltageLadder::from_points(points)
    }

    /// The paper's ladder of `levels` points: the exact
    /// [`VoltageLadder::xscale3`] for 3 levels, otherwise
    /// [`VoltageLadder::interpolated`] under [`AlphaPower::paper`]. The
    /// interpolated ladders take every frequency from the law, anchors
    /// included: 0.7 V runs at about 179.31 MHz there, not the 200 MHz of
    /// the 3-level ladder, and only 1.65 V lands on 800 MHz (the law's
    /// calibration point).
    ///
    /// # Errors
    ///
    /// [`VfError::LadderTooSmall`] if `levels < 2`, and
    /// [`VfError::LadderTooLarge`] if `levels` exceeds
    /// [`VoltageLadder::MAX_PAPER_LEVELS`].
    pub fn paper(levels: usize) -> Result<Self, VfError> {
        if levels > Self::MAX_PAPER_LEVELS {
            return Err(VfError::LadderTooLarge {
                levels,
                max: Self::MAX_PAPER_LEVELS,
            });
        }
        let law = AlphaPower::paper();
        if levels == 3 {
            Ok(VoltageLadder::xscale3(&law))
        } else {
            VoltageLadder::interpolated(&law, levels)
        }
    }

    /// Builds a ladder whose levels sit at the given frequencies (MHz,
    /// strictly increasing), with voltages from the alpha-power law — e.g.
    /// to model a processor documented by frequency steps only.
    ///
    /// # Errors
    ///
    /// [`VfError::LadderTooSmall`] for fewer than two frequencies,
    /// [`VfError::NonMonotonicLadder`] if they are not strictly increasing,
    /// or [`VfError::FrequencyOutOfRange`] if the law cannot reach one.
    pub fn from_frequencies(law: &AlphaPower, freqs_mhz: &[f64]) -> Result<Self, VfError> {
        if freqs_mhz.len() < 2 {
            return Err(VfError::LadderTooSmall {
                levels: freqs_mhz.len(),
            });
        }
        let mut points = Vec::with_capacity(freqs_mhz.len());
        for &f in freqs_mhz {
            let v = law.voltage_for(f)?;
            points.push(OperatingPoint::new(v, f));
        }
        VoltageLadder::from_points(points)
    }

    /// Number of levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false`; ladders have at least two levels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The operating point for `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range for this ladder.
    #[must_use]
    pub fn point(&self, mode: ModeId) -> OperatingPoint {
        self.points[mode.0]
    }

    /// The slowest (lowest-voltage) point.
    #[must_use]
    pub fn slowest(&self) -> OperatingPoint {
        self.points[0]
    }

    /// The fastest (highest-voltage) point.
    #[must_use]
    pub fn fastest(&self) -> OperatingPoint {
        *self.points.last().expect("ladder is non-empty")
    }

    /// Iterates `(ModeId, OperatingPoint)` pairs slowest-first.
    pub fn iter(&self) -> impl Iterator<Item = (ModeId, OperatingPoint)> + '_ {
        self.points.iter().enumerate().map(|(i, p)| (ModeId(i), *p))
    }

    /// All mode ids, slowest first.
    pub fn modes(&self) -> impl Iterator<Item = ModeId> {
        (0..self.points.len()).map(ModeId)
    }

    /// The slowest mode whose frequency is at least `f_mhz`, or `None` if
    /// even the fastest mode is too slow.
    #[must_use]
    pub fn slowest_mode_at_least(&self, f_mhz: f64) -> Option<ModeId> {
        self.iter()
            .find(|(_, p)| p.frequency_mhz >= f_mhz)
            .map(|(m, _)| m)
    }

    /// Serializes the ladder as a JSON array of `{v, f_mhz}` objects,
    /// slowest first.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("v", Json::from(p.voltage)),
                        ("f_mhz", Json::from(p.frequency_mhz)),
                    ])
                })
                .collect(),
        )
    }

    /// Rebuilds a ladder from the JSON produced by [`VoltageLadder::to_json`],
    /// re-running the monotonicity validation.
    ///
    /// # Errors
    ///
    /// [`VfError::Malformed`] for shape errors, plus everything
    /// [`VoltageLadder::from_points`] rejects.
    pub fn from_json(j: &Json) -> Result<Self, VfError> {
        let arr = j
            .as_arr()
            .ok_or_else(|| VfError::Malformed("expected a JSON array of points".into()))?;
        let points = arr
            .iter()
            .map(|p| {
                let v = p.get("v").and_then(Json::as_f64);
                let f = p.get("f_mhz").and_then(Json::as_f64);
                match (v, f) {
                    (Some(v), Some(f)) => Ok(OperatingPoint::new(v, f)),
                    _ => Err(VfError::Malformed(
                        "point needs numeric `v` and `f_mhz`".into(),
                    )),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        VoltageLadder::from_points(points)
    }

    /// The discrete modes bracketing a continuous frequency: the fastest
    /// mode with `f <= f_mhz` and the slowest mode with `f >= f_mhz`.
    /// If `f_mhz` is outside the ladder range, both elements clamp to the
    /// nearest end. If `f_mhz` exactly matches a level, both are that level.
    #[must_use]
    pub fn neighbors(&self, f_mhz: f64) -> (ModeId, ModeId) {
        let n = self.points.len();
        if f_mhz <= self.points[0].frequency_mhz {
            return (ModeId(0), ModeId(0));
        }
        if f_mhz >= self.points[n - 1].frequency_mhz {
            return (ModeId(n - 1), ModeId(n - 1));
        }
        let mut below = 0;
        for (i, p) in self.points.iter().enumerate() {
            if p.frequency_mhz <= f_mhz {
                below = i;
            }
        }
        if (self.points[below].frequency_mhz - f_mhz).abs() < 1e-12 {
            (ModeId(below), ModeId(below))
        } else {
            (ModeId(below), ModeId(below + 1))
        }
    }
}

impl<'a> IntoIterator for &'a VoltageLadder {
    type Item = &'a OperatingPoint;
    type IntoIter = std::slice::Iter<'a, OperatingPoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn law() -> AlphaPower {
        AlphaPower::paper()
    }

    #[test]
    fn xscale3_matches_paper_values() {
        let l = VoltageLadder::xscale3(&law());
        assert_eq!(l.len(), 3);
        assert_eq!(l.point(ModeId(0)), OperatingPoint::new(0.7, 200.0));
        assert_eq!(l.point(ModeId(1)), OperatingPoint::new(1.3, 600.0));
        assert_eq!(l.point(ModeId(2)), OperatingPoint::new(1.65, 800.0));
    }

    #[test]
    fn interpolated_ladders_are_monotonic() {
        for n in [2, 3, 7, 13, 25] {
            let l = VoltageLadder::interpolated(&law(), n).unwrap();
            assert_eq!(l.len(), n);
            let pts: Vec<_> = l.iter().map(|(_, p)| p).collect();
            for w in pts.windows(2) {
                assert!(w[1].voltage > w[0].voltage);
                assert!(w[1].frequency_mhz > w[0].frequency_mhz);
            }
            assert!((pts[0].voltage - 0.7).abs() < 1e-12);
            assert!((pts[n - 1].voltage - 1.65).abs() < 1e-12);
            assert!((pts[n - 1].frequency_mhz - 800.0).abs() < 1e-9);
        }
    }

    #[test]
    fn too_small_ladders_rejected() {
        assert!(matches!(
            VoltageLadder::interpolated(&law(), 1),
            Err(VfError::LadderTooSmall { levels: 1 })
        ));
        assert!(VoltageLadder::from_points(vec![OperatingPoint::new(1.0, 100.0)]).is_err());
    }

    #[test]
    fn non_monotonic_rejected() {
        let pts = vec![
            OperatingPoint::new(1.0, 300.0),
            OperatingPoint::new(0.9, 400.0),
        ];
        assert!(matches!(
            VoltageLadder::from_points(pts),
            Err(VfError::NonMonotonicLadder)
        ));
        let pts = vec![
            OperatingPoint::new(1.0, 300.0),
            OperatingPoint::new(1.2, 300.0),
        ];
        assert!(VoltageLadder::from_points(pts).is_err());
    }

    #[test]
    fn slowest_mode_at_least_picks_correct_level() {
        let l = VoltageLadder::xscale3(&law());
        assert_eq!(l.slowest_mode_at_least(100.0), Some(ModeId(0)));
        assert_eq!(l.slowest_mode_at_least(200.0), Some(ModeId(0)));
        assert_eq!(l.slowest_mode_at_least(201.0), Some(ModeId(1)));
        assert_eq!(l.slowest_mode_at_least(600.0), Some(ModeId(1)));
        assert_eq!(l.slowest_mode_at_least(700.0), Some(ModeId(2)));
        assert_eq!(l.slowest_mode_at_least(801.0), None);
    }

    #[test]
    fn neighbors_bracket_frequency() {
        let l = VoltageLadder::xscale3(&law());
        assert_eq!(l.neighbors(400.0), (ModeId(0), ModeId(1)));
        assert_eq!(l.neighbors(600.0), (ModeId(1), ModeId(1)));
        assert_eq!(l.neighbors(700.0), (ModeId(1), ModeId(2)));
        assert_eq!(l.neighbors(100.0), (ModeId(0), ModeId(0)));
        assert_eq!(l.neighbors(900.0), (ModeId(2), ModeId(2)));
    }

    #[test]
    fn paper_ladder_is_xscale3_at_three_levels_and_interpolated_otherwise() {
        assert_eq!(VoltageLadder::paper(3), Ok(VoltageLadder::xscale3(&law())));
        for n in [2, 7, 13] {
            assert_eq!(
                VoltageLadder::paper(n),
                VoltageLadder::interpolated(&law(), n)
            );
        }
        assert!(VoltageLadder::paper(1).is_err());
        let max = VoltageLadder::MAX_PAPER_LEVELS;
        assert_eq!(VoltageLadder::paper(max).map(|l| l.len()), Ok(max));
        for levels in [max + 1, 100_000, 35_184_372_088_832, usize::MAX] {
            assert_eq!(
                VoltageLadder::paper(levels),
                Err(VfError::LadderTooLarge { levels, max })
            );
        }
    }

    #[test]
    fn from_frequencies_respects_law() {
        let law = law();
        let l = VoltageLadder::from_frequencies(&law, &[200.0, 400.0, 800.0]).unwrap();
        assert_eq!(l.len(), 3);
        for (_, p) in l.iter() {
            let back = law.frequency_mhz(p.voltage).unwrap();
            assert!((back - p.frequency_mhz).abs() < 1e-6);
        }
        assert!(VoltageLadder::from_frequencies(&law, &[200.0]).is_err());
        assert!(VoltageLadder::from_frequencies(&law, &[400.0, 200.0]).is_err());
        assert!(VoltageLadder::from_frequencies(&law, &[200.0, 1e12]).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let l = VoltageLadder::xscale3(&law());
        let json = l.to_json().dump();
        let back = VoltageLadder::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(l, back);
        let law2 = law();
        let json = law2.to_json().dump();
        let back = AlphaPower::from_json(&Json::parse(&json).unwrap()).unwrap();
        // JSON round-trips f64 to ~17 significant digits; allow 1 ulp-ish.
        assert!((law2.k - back.k).abs() < 1e-9);
        assert_eq!(law2.alpha, back.alpha);
        assert_eq!(law2.vt, back.vt);
        // A deserialized non-monotonic ladder is rejected by validation.
        let bad = r#"[{"v":1.0,"f_mhz":400.0},{"v":0.9,"f_mhz":500.0}]"#;
        assert!(VoltageLadder::from_json(&Json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn iteration_orders_slowest_first() {
        let l = VoltageLadder::xscale3(&law());
        let modes: Vec<_> = l.modes().collect();
        assert_eq!(modes, vec![ModeId(0), ModeId(1), ModeId(2)]);
        let freqs: Vec<_> = (&l).into_iter().map(|p| p.frequency_mhz).collect();
        assert_eq!(freqs, vec![200.0, 600.0, 800.0]);
    }
}
