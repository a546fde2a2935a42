use crate::{Machine, RunStats, Trace};
use dvs_ir::{BlockModeCost, Cfg, Profile, ProfileBuilder};
use dvs_vf::VoltageLadder;

/// The four program parameters of the paper's analytical model (§3),
/// extracted from cycle-level simulation exactly as Table 7 does.
///
/// Cycle counts are frequency-independent program properties; the stall
/// time `tinvariant` is absolute because memory is asynchronous.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramParams {
    /// `Noverlap`: computation cycles that ran while a main-memory miss was
    /// outstanding.
    pub n_overlap: f64,
    /// `Ndependent`: computation cycles with no miss outstanding.
    pub n_dependent: f64,
    /// `Ncache`: cycles spent in cache-hit memory-operation latencies.
    pub n_cache: f64,
    /// `tinvariant`: absolute time (µs) the processor spent stalled on
    /// asynchronous memory.
    pub t_invariant_us: f64,
}

impl ProgramParams {
    /// Derives the parameters from a fixed-frequency run.
    ///
    /// The raw counters sum instruction *latencies*, which on a superscalar
    /// core exceed wall-clock cycles (several instructions retire per
    /// cycle). The analytical model, however, assumes its cycle counts
    /// execute serially: `t(f) = max(tinv + Ncache/f, Noverlap/f) +
    /// Ndependent/f`. To keep the model's single-frequency time consistent
    /// with the simulator's measured runtime — so that deadlines derived
    /// from simulation are feasible in the model — the three cycle counts
    /// are scaled by a common factor chosen such that `t(f_profile)`
    /// equals the measured wall time. Ratios between the counts (which
    /// drive the model's case analysis) are preserved.
    #[must_use]
    pub fn from_run(run: &RunStats) -> Self {
        let f = run.point.frequency_mhz;
        let raw = ProgramParams {
            n_overlap: run.overlap_cycles,
            n_dependent: run.dependent_cycles,
            n_cache: run.cache_hit_cycles,
            t_invariant_us: run.stall_cycles / f,
        };
        let t_wall = run.total_cycles / f;
        let mem = raw.t_invariant_us + raw.n_cache / f;
        let compute = raw.n_overlap / f;
        let t_model = mem.max(compute) + raw.n_dependent / f;
        let denom = t_model - raw.t_invariant_us;
        let target = (t_wall - raw.t_invariant_us).max(0.0);
        let kappa = if denom > 1e-12 { target / denom } else { 1.0 };
        ProgramParams {
            n_overlap: raw.n_overlap * kappa,
            n_dependent: raw.n_dependent * kappa,
            n_cache: raw.n_cache * kappa,
            t_invariant_us: raw.t_invariant_us,
        }
    }
}

/// Profiles a program once per DVS mode, assembling the [`Profile`] the
/// MILP consumes (per-block `T(j,m)`/`E(j,m)` plus edge and local-path
/// counts) and keeping the per-mode [`RunStats`] for parameter extraction
/// and baseline energy/time queries.
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
    /// the ladder, slowest first).
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
        let mut pb = ProfileBuilder::new(cfg, ladder.len());
        assert!(
            pb.record_walk(cfg, &trace.walk()),
            "trace must be an entry-to-exit walk of the CFG"
        );
        let points: Vec<_> = ladder.iter().map(|(_, point)| point).collect();
        let runs = self.machine.run_points(cfg, trace, &points);
        for ((mode, point), run) in ladder.iter().zip(&runs) {
            for (bix, bs) in run.blocks.iter().enumerate() {
                if bs.invocations > 0 {
                    let inv = bs.invocations as f64;
                    pb.set_block_cost(
                        dvs_ir::BlockId(bix),
                        mode.index(),
                        BlockModeCost {
                            time_us: bs.time_us / inv,
                            energy_uj: crate::EnergyModel::cap_to_uj(bs.cap_nf, point.voltage)
                                / inv,
                        },
                    );
                }
            }
        }
        (pb.finish(), runs)
    }

    /// Extracts the analytical-model parameters from the *fastest* mode's
    /// run (the paper's reference frequency for cycle counts).
    #[must_use]
    pub fn extract_params(runs: &[RunStats]) -> ProgramParams {
        let fastest = runs
            .iter()
            .max_by(|a, b| {
                a.point
                    .frequency_mhz
                    .partial_cmp(&b.point.frequency_mhz)
                    .expect("frequencies are finite")
            })
            .expect("at least one run");
        ProgramParams::from_run(fastest)
    }
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
    fn params_extracted_from_fastest_run() {
        let (cfg, trace) = program();
        let ladder = VoltageLadder::xscale3(&AlphaPower::paper());
        let profiler = ModeProfiler::new(Machine::paper_default());
        let (_, runs) = profiler.profile(&cfg, &trace, &ladder);
        let params = ModeProfiler::extract_params(&runs);
        assert!(params.n_dependent > 0.0);
        assert!(params.n_cache > 0.0);
        assert!(params.t_invariant_us >= 0.0);
    }
}
