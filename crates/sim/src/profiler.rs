use crate::{BlockStats, Machine, RunStats, TimedRun, Trace};
use dvs_ir::{BlockModeCost, Cfg, Profile, ProfileBuilder};
use dvs_vf::{OperatingPoint, VoltageLadder};

/// Profiles a program once per DVS mode, assembling the [`Profile`] the
/// MILP consumes (per-block `T(j,m)`/`E(j,m)` plus edge and local-path
/// counts). [`ModeProfiler::profile`] classifies every mode's run for the
/// analytical model, [`ModeProfiler::profile_unclassified`] none, and
/// [`ModeProfiler::profile_with_fastest`] only the fastest mode's, the one
/// the analytical model's parameters are read from.
#[derive(Debug)]
pub struct ModeProfiler {
    machine: Machine,
}

impl ModeProfiler {
    /// Creates a profiler around `machine`.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        ModeProfiler { machine }
    }

    /// The machine used for profiling.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Times `trace` at every mode of `ladder`, from one walk of the caches
    /// and predictor ([`Machine::run_points`]), and assembles the profile.
    /// Returns the profile and the per-mode run statistics (indexed like
    /// the ladder, slowest first), each classified for the analytical
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not a valid entry-to-exit walk of `cfg`.
    #[must_use]
    pub fn profile(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        ladder: &VoltageLadder,
    ) -> (Profile, Vec<RunStats>) {
        let _span = dvs_obs::span!("sim.profile");
        let runs = self.machine.run_points(cfg, trace, &modes(ladder));
        let blocks = runs.iter().map(|run| run.blocks.as_slice());
        (build(cfg, trace, ladder, blocks), runs)
    }

    /// [`ModeProfiler::profile`] without classifying any mode's run
    /// ([`Machine::time_points`]): the same profile, and runs equal to its
    /// runs on every field they keep.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not a valid entry-to-exit walk of `cfg`.
    #[must_use]
    pub fn profile_unclassified(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        ladder: &VoltageLadder,
    ) -> (Profile, Vec<TimedRun>) {
        let _span = dvs_obs::span!("sim.profile");
        let runs = self.machine.time_points(cfg, trace, &modes(ladder));
        let blocks = runs.iter().map(|run| run.blocks.as_slice());
        (build(cfg, trace, ladder, blocks), runs)
    }

    /// [`ModeProfiler::profile_unclassified`], and the fastest mode's run
    /// classified for the analytical model from the same walk, in
    /// which only that mode's pass classifies
    /// ([`Machine::time_points_classifying`]).
    ///
    /// # Panics
    ///
    /// Panics if the trace is not a valid entry-to-exit walk of `cfg`.
    #[must_use]
    pub fn profile_with_fastest(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        ladder: &VoltageLadder,
    ) -> (Profile, Vec<TimedRun>, RunStats) {
        let _span = dvs_obs::span!("sim.profile");
        let points = modes(ladder);
        let (runs, fastest) =
            self.machine
                .time_points_classifying(cfg, trace, &points, points.len() - 1);
        let blocks = runs.iter().map(|run| run.blocks.as_slice());
        (build(cfg, trace, ladder, blocks), runs, fastest)
    }
}

/// The operating points of `ladder`'s modes, slowest first.
fn modes(ladder: &VoltageLadder) -> Vec<OperatingPoint> {
    ladder.iter().map(|(_, point)| point).collect()
}

/// The profile whose mode `m` costs come from `blocks`' `m`-th item, the
/// per-block stats of a run at that mode.
fn build<'r>(
    cfg: &Cfg,
    trace: &Trace,
    ladder: &VoltageLadder,
    blocks: impl Iterator<Item = &'r [BlockStats]>,
) -> Profile {
    let mut pb = ProfileBuilder::new(cfg, ladder.len());
    assert!(
        pb.record_walk(cfg, &trace.walk()),
        "trace must be an entry-to-exit walk of the CFG"
    );
    for ((mode, point), run) in ladder.iter().zip(blocks) {
        for (bix, bs) in run.iter().enumerate() {
            if bs.invocations > 0 {
                let inv = bs.invocations as f64;
                pb.set_block_cost(
                    dvs_ir::BlockId(bix),
                    mode.index(),
                    BlockModeCost {
                        time_us: bs.time_us / inv,
                        energy_uj: crate::EnergyModel::cap_to_uj(bs.cap_nf, point.voltage) / inv,
                    },
                );
            }
        }
    }
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;
    use dvs_ir::{CfgBuilder, Inst, MemWidth, Opcode, Reg};
    use dvs_vf::AlphaPower;

    fn program() -> (Cfg, Trace) {
        let mut b = CfgBuilder::new("p");
        let e = b.block("entry");
        let h = b.block("head");
        let body = b.block("body");
        let x = b.block("exit");
        b.push(body, Inst::load(Reg(1), Reg(2), MemWidth::B4));
        b.push(body, Inst::alu(Opcode::IntAlu, Reg(3), &[Reg(1)]));
        b.push(h, Inst::branch(Reg(3)));
        b.edge(e, h);
        b.edge(h, body);
        b.edge(body, h);
        b.edge(h, x);
        let cfg = b.finish(e, x).unwrap();
        let (e, h, body, x) = (
            cfg.entry(),
            cfg.block_by_label("head").unwrap(),
            cfg.block_by_label("body").unwrap(),
            cfg.exit(),
        );
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        for i in 0..200u64 {
            tb.step(h, vec![]);
            tb.step(body, vec![0x10000 + (i % 16) * 64]);
        }
        tb.step(h, vec![]);
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        (cfg, t)
    }

    #[test]
    fn profile_covers_all_modes_and_blocks() {
        let (cfg, trace) = program();
        let ladder = VoltageLadder::xscale3(&AlphaPower::paper());
        let profiler = ModeProfiler::new(Machine::paper_default());
        let (profile, runs) = profiler.profile(&cfg, &trace, &ladder);
        assert_eq!(profile.num_modes(), 3);
        assert_eq!(runs.len(), 3);
        let body = cfg.block_by_label("body").unwrap();
        for m in 0..3 {
            let c = profile.block_cost(body, m);
            assert!(c.time_us > 0.0, "mode {m} has no time");
            assert!(c.energy_uj > 0.0, "mode {m} has no energy");
        }
        // Faster modes take less (or equal) time per invocation.
        let t0 = profile.block_cost(body, 0).time_us;
        let t2 = profile.block_cost(body, 2).time_us;
        assert!(t2 < t0);
        // Slower modes use less energy per invocation (V² scaling).
        let e0 = profile.block_cost(body, 0).energy_uj;
        let e2 = profile.block_cost(body, 2).energy_uj;
        assert!(e0 < e2);
    }

    #[test]
    fn profile_totals_match_run_totals() {
        let (cfg, trace) = program();
        let ladder = VoltageLadder::xscale3(&AlphaPower::paper());
        let profiler = ModeProfiler::new(Machine::paper_default());
        let (profile, runs) = profiler.profile(&cfg, &trace, &ladder);
        for (m, run) in runs.iter().enumerate() {
            let ptime = profile.total_time_at(m);
            assert!(
                (ptime - run.total_time_us).abs() < 1e-6 * run.total_time_us.max(1.0),
                "mode {m}: {ptime} vs {}",
                run.total_time_us
            );
            let penergy = profile.total_energy_at(m);
            assert!(
                (penergy - run.processor_energy_uj()).abs()
                    < 1e-6 * run.processor_energy_uj().max(1.0),
                "mode {m}: {penergy} vs {}",
                run.processor_energy_uj()
            );
        }
    }

    #[test]
    fn params_come_from_the_fastest_run_classified_in_the_same_walk() {
        let (cfg, trace) = program();
        let ladder = VoltageLadder::xscale3(&AlphaPower::paper());
        let profiler = ModeProfiler::new(Machine::paper_default());
        let (profile, runs) = profiler.profile(&cfg, &trace, &ladder);
        let (fast_profile, timed, fastest) = profiler.profile_with_fastest(&cfg, &trace, &ladder);
        assert_eq!(fast_profile, profile);
        assert_eq!(timed.len(), runs.len());
        assert_eq!(fastest.point, ladder.fastest());
        let classes = |r: &RunStats| {
            [
                r.overlap_cycles,
                r.dependent_cycles,
                r.cache_hit_cycles,
                r.stall_cycles,
                r.total_cycles,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(classes(&fastest), classes(&runs[2]));
        assert!(fastest.dependent_cycles > 0.0);
        assert!(fastest.cache_hit_cycles > 0.0);
        assert!(fastest.stall_cycles >= 0.0);
    }
}
