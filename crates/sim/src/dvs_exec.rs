//! Re-execution of a trace under a compile-time DVS schedule.
//!
//! The MILP predicts time and energy from per-block profile averages; this
//! module *validates* a schedule by stepping the recorded trace through
//! the same pipeline as the profile, with the clock actually changing at
//! mode-set points, charging the regulator's transition time and energy
//! on every real mode change (a mode-set instruction whose value matches
//! the current mode is silent, as in the paper).
//!
//! Because the clock varies, the timeline here is kept in **microseconds**
//! rather than cycles; instruction latencies convert through the period of
//! whichever mode the surrounding block was assigned. [`ScheduledPass`]
//! holds a pass in progress, for [`Machine::run_scheduled`] here and for
//! the `dvs-replay` bytecode interpreter.

use crate::pipeline::{Micros, Observe, Pipeline};
use crate::record::{Decoded, Recording};
use crate::{Access, DataLevel, EnergyModel, InstOutcome, Machine, SimConfig, Trace};
use dvs_ir::Cfg;
use dvs_vf::{ModeId, TransitionModel, VoltageLadder};

/// A compile-time DVS mode assignment: one mode per CFG edge plus the mode
/// the program starts in (the paper's mode-set on the virtual start edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSchedule {
    /// Mode in force when the entry block begins executing.
    pub initial: ModeId,
    /// Mode set by each edge, indexed by [`dvs_ir::EdgeId`].
    pub edge_modes: Vec<ModeId>,
}

impl EdgeSchedule {
    /// A schedule that pins every edge to `mode` (the single-frequency
    /// baseline; it performs no transitions).
    #[must_use]
    pub fn uniform(cfg: &Cfg, mode: ModeId) -> Self {
        EdgeSchedule {
            initial: mode,
            edge_modes: vec![mode; cfg.num_edges()],
        }
    }

    /// Checks that the schedule sets a mode on each of `edges` edges and
    /// names only modes of a ladder of `modes` levels, the initial one
    /// included.
    ///
    /// # Panics
    ///
    /// Panics with "schedule must cover every edge" or "schedule names a
    /// mode outside the ladder" if it does not.
    pub fn check(&self, edges: usize, modes: usize) {
        assert_eq!(
            self.edge_modes.len(),
            edges,
            "schedule must cover every edge"
        );
        assert!(
            std::iter::once(&self.initial)
                .chain(&self.edge_modes)
                .all(|m| m.index() < modes),
            "schedule names a mode outside the ladder"
        );
    }
}

/// Measured outcome of executing a trace under an [`EdgeSchedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledRun {
    /// Total wall-clock time, µs (includes transition time).
    pub time_us: f64,
    /// On-chip processor energy, µJ (includes transition energy).
    pub processor_energy_uj: f64,
    /// Off-chip DRAM energy, µJ (reported separately, as in the paper).
    pub dram_energy_uj: f64,
    /// Dynamic mode transitions actually performed.
    pub transitions: u64,
    /// Energy spent in transitions, µJ.
    pub transition_energy_uj: f64,
    /// Time spent in transitions, µs.
    pub transition_time_us: f64,
}

/// A scheduled pass in progress: the pipeline timed in µs at the period
/// of the mode in force, that mode, and what the run has charged so far.
/// Feed it the trace's [`Recording::steps`](crate::Recording::steps) block
/// by block, setting each arrival edge's mode first.
#[derive(Debug, Clone)]
pub struct ScheduledPass {
    pipe: Pipeline<1>,
    mem_latency_us: f64,
    mode: ModeId,
    energy_uj: f64,
    transitions: u64,
    transition_energy_uj: f64,
    transition_time_us: f64,
}

impl ScheduledPass {
    /// A pass of `config`'s machine, at time zero in mode `initial`.
    #[must_use]
    pub fn new(config: &SimConfig, initial: ModeId) -> Self {
        ScheduledPass {
            pipe: Pipeline::new(config),
            mem_latency_us: config.mem_latency_us,
            mode: initial,
            energy_uj: 0.0,
            transitions: 0,
            transition_energy_uj: 0.0,
            transition_time_us: 0.0,
        }
    }

    /// The mode in force.
    #[must_use]
    pub fn mode(&self) -> ModeId {
        self.mode
    }

    /// Arrives over an edge that sets `target`. When that differs from the
    /// mode in force, the regulator switches: `cost(from, to)` gives the
    /// switch's time (µs) and energy (µJ); the pipeline drains, the front
    /// end waits out the time, and the switch is counted and charged.
    pub fn set_mode(&mut self, target: ModeId, cost: impl FnOnce(ModeId, ModeId) -> (f64, f64)) {
        if target != self.mode {
            let (time_us, energy_uj) = cost(self.mode, target);
            self.pipe.switch(time_us);
            self.transitions += 1;
            self.transition_energy_uj += energy_uj;
            self.transition_time_us += time_us;
            self.mode = target;
        }
    }

    /// Enters a block occurrence.
    #[inline]
    pub fn enter_block(&mut self) {
        self.pipe.enter_block();
    }

    /// Times one instruction at the clock period `period_us`.
    #[inline]
    pub fn step(&mut self, period_us: f64, inst: &Decoded, out: &InstOutcome) {
        let clock = Micros {
            period_us,
            mem_latency_us: self.mem_latency_us,
        };
        self.pipe.step(clock, inst, out, &mut ());
    }

    /// Charges `uj` µJ of on-chip energy.
    pub fn charge(&mut self, uj: f64) {
        self.energy_uj += uj;
    }

    /// The run so far, with `dram_energy_uj` of off-chip energy.
    #[must_use]
    pub fn finish(&self, dram_energy_uj: f64) -> ScheduledRun {
        ScheduledRun {
            time_us: self.pipe.time()[0],
            processor_energy_uj: self.energy_uj + self.transition_energy_uj,
            dram_energy_uj,
            transitions: self.transitions,
            transition_energy_uj: self.transition_energy_uj,
            transition_time_us: self.transition_time_us,
        }
    }
}

/// The scheduled pass's per-access energy at the current block's voltage,
/// summed in the order the accesses happen, with the run's other
/// on-chip energy. Charged from inside the step, which matches each outcome
/// anyway: matching them again after it timed the pass about 8 % slower.
#[derive(Default)]
struct AccessEnergy {
    uj: f64,
    dram_uj: f64,
    l1_uj: f64,
    l2_uj: f64,
    dram_per_access_uj: f64,
}

impl Observe for AccessEnergy {
    fn access(&mut self, a: Access) {
        self.uj += self.l1_uj;
        if a.level != DataLevel::L1 {
            self.uj += self.l2_uj;
        }
        if a.level == DataLevel::Memory {
            self.dram_uj += self.dram_per_access_uj;
        }
    }
}

impl Machine {
    /// Executes `trace` under `schedule`, switching the clock/voltage on
    /// edges whose assigned mode differs from the current one and charging
    /// `transition` costs for each switch.
    ///
    /// The pass follows the walk of the caches and predictor as
    /// [`Machine::run_points`]'s do: on two or more CPUs a scoped helper
    /// walks while the caller times, waiting only at segments the walk has
    /// not published; with one CPU, a short trace or a record of one
    /// segment the caller walks first.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` does not fit `cfg` and `ladder`
    /// ([`EdgeSchedule::check`]) or if the trace is inconsistent with
    /// `cfg`.
    #[must_use]
    pub fn run_scheduled(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        ladder: &VoltageLadder,
        schedule: &EdgeSchedule,
        transition: &TransitionModel,
    ) -> ScheduledRun {
        schedule.check(cfg.num_edges(), ladder.len());
        let run = self.stream(cfg, trace, 1, |rec, _| {
            let _span = dvs_obs::span!("sim.run_scheduled");
            self.scheduled(rec, cfg, ladder, schedule, transition)
        });
        let run = run.into_iter().next().expect("one scheduled pass");
        if dvs_obs::enabled() {
            dvs_obs::counter("sim.scheduled_runs", 1);
            dvs_obs::counter("emit.mode_switches", run.transitions);
            dvs_obs::histogram("sim.scheduled_time_us", run.time_us);
        }
        run
    }

    /// The scheduled pass over `rec`, following the walk segment by
    /// segment.
    fn scheduled(
        &self,
        rec: &Recording<'_>,
        cfg: &Cfg,
        ladder: &VoltageLadder,
        schedule: &EdgeSchedule,
        transition: &TransitionModel,
    ) -> ScheduledRun {
        let em = self.energy_model();
        let mut pass = ScheduledPass::new(self.config(), schedule.initial);
        let mut energy = AccessEnergy {
            dram_per_access_uj: em.dram_uj_per_access,
            ..AccessEnergy::default()
        };
        let mut prev_block: Option<dvs_ir::BlockId> = None;

        for (dyn_blocks, mut outcomes) in rec.segments() {
            for dyn_block in dyn_blocks {
                // Mode-set on the edge we arrive through.
                if let Some(pb) = prev_block {
                    let e = cfg
                        .edge_between(pb, dyn_block.block)
                        .expect("trace follows CFG edges");
                    pass.set_mode(schedule.edge_modes[e.index()], |from, to| {
                        (
                            transition.mode_time_us(ladder, from, to),
                            transition.mode_energy_uj(ladder, from, to),
                        )
                    });
                }
                prev_block = Some(dyn_block.block);

                let point = ladder.point(pass.mode());
                let clock = Micros {
                    period_us: point.period_us(),
                    mem_latency_us: pass.mem_latency_us,
                };
                let vv = point.voltage * point.voltage;
                energy.l1_uj = EnergyModel::cap_to_uj(em.l1_nf, point.voltage);
                energy.l2_uj = EnergyModel::cap_to_uj(em.l2_nf, point.voltage);
                let bpred_uj = EnergyModel::cap_to_uj(em.bpred_nf, point.voltage);

                pass.enter_block();
                for inst in rec.table.block(dyn_block.block.index()) {
                    pass.pipe
                        .step(clock, inst, &outcomes.next(inst), &mut energy);
                    if inst.is_branch {
                        energy.uj += bpred_uj;
                    }
                    energy.uj += inst.capacitance_nf() * vv * 1e-3;
                }
            }
        }

        // One charge of the whole sum: the pass's own starts at +0.0, so
        // its bits are those of charging term by term.
        pass.charge(energy.uj);
        pass.finish(energy.dram_uj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, TraceBuilder};
    use dvs_ir::{CfgBuilder, Inst, Opcode, Reg};
    use dvs_vf::AlphaPower;

    fn program() -> (Cfg, Trace) {
        let mut b = CfgBuilder::new("p");
        let e = b.block("entry");
        let h = b.block("head");
        let body = b.block("body");
        let x = b.block("exit");
        for _ in 0..8 {
            b.push(body, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1)]));
        }
        b.push(h, Inst::branch(Reg(1)));
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
        for _ in 0..100 {
            tb.step(h, vec![]);
            tb.step(body, vec![]);
        }
        tb.step(h, vec![]);
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        (cfg, t)
    }

    fn ladder() -> VoltageLadder {
        VoltageLadder::xscale3(&AlphaPower::paper())
    }

    #[test]
    fn uniform_schedule_makes_no_transitions() {
        let (cfg, t) = program();
        let m = Machine::paper_default();
        let l = ladder();
        let tm = TransitionModel::with_capacitance_uf(10.0);
        let r = m.run_scheduled(&cfg, &t, &l, &EdgeSchedule::uniform(&cfg, ModeId(1)), &tm);
        assert_eq!(r.transitions, 0);
        assert_eq!(r.transition_energy_uj, 0.0);
        assert!(r.time_us > 0.0);
    }

    #[test]
    fn uniform_schedule_matches_fixed_frequency_run() {
        let (cfg, t) = program();
        let m = Machine::paper_default();
        let l = ladder();
        let tm = TransitionModel::free();
        for (mode, point) in l.iter() {
            let sched = m.run_scheduled(&cfg, &t, &l, &EdgeSchedule::uniform(&cfg, mode), &tm);
            let fixed = m.run(&cfg, &t, point);
            let dt = (sched.time_us - fixed.total_time_us).abs();
            assert!(
                dt < 1e-6 * fixed.total_time_us.max(1.0),
                "{mode}: scheduled {} vs fixed {}",
                sched.time_us,
                fixed.total_time_us
            );
            let de = (sched.processor_energy_uj - fixed.processor_energy_uj()).abs();
            assert!(
                de < 1e-6 * fixed.processor_energy_uj().max(1.0),
                "{mode}: energy {} vs {}",
                sched.processor_energy_uj,
                fixed.processor_energy_uj()
            );
        }
    }

    #[test]
    fn mode_switches_are_counted_and_charged() {
        let (cfg, t) = program();
        let m = Machine::paper_default();
        let l = ladder();
        let tm = TransitionModel::with_capacitance_uf(10.0);
        // Alternate: head runs fast, body runs slow => 2 transitions per
        // iteration.
        let h = cfg.block_by_label("head").unwrap();
        let body = cfg.block_by_label("body").unwrap();
        let mut sched = EdgeSchedule::uniform(&cfg, ModeId(2));
        let e_hb = cfg.edge_between(h, body).unwrap();
        let e_bh = cfg.edge_between(body, h).unwrap();
        sched.edge_modes[e_hb.index()] = ModeId(0);
        sched.edge_modes[e_bh.index()] = ModeId(2);
        let r = m.run_scheduled(&cfg, &t, &l, &sched, &tm);
        assert_eq!(r.transitions, 200);
        assert!((r.transition_energy_uj - 200.0 * tm.energy_uj(0.7, 1.65)).abs() < 1e-9);
        assert!(r.transition_time_us > 0.0);

        // With free transitions, same schedule costs no switch overhead.
        let r2 = m.run_scheduled(&cfg, &t, &l, &sched, &TransitionModel::free());
        assert_eq!(r2.transitions, 200);
        assert!(r2.time_us < r.time_us);
        assert!(r2.processor_energy_uj < r.processor_energy_uj);
    }

    #[test]
    fn zero_cost_blocks_still_execute_their_mode_switches() {
        // entry -> mid -> exit where every block is empty: no instructions
        // commit, but the switch on the edge into `mid` must still be
        // performed, counted, and charged.
        let mut b = CfgBuilder::new("empty");
        let e = b.block("entry");
        let mid = b.block("mid");
        let x = b.block("exit");
        b.edge(e, mid);
        b.edge(mid, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        for blk in [cfg.entry(), cfg.block_by_label("mid").unwrap(), cfg.exit()] {
            tb.step(blk, vec![]);
        }
        let t = tb.finish().unwrap();
        let m = Machine::paper_default();
        let l = ladder();
        let tm = TransitionModel::with_capacitance_uf(10.0);
        let mut sched = EdgeSchedule::uniform(&cfg, ModeId(2));
        let mid = cfg.block_by_label("mid").unwrap();
        let e_mid = cfg.edge_between(cfg.entry(), mid).unwrap();
        let mid_x = cfg.edge_between(mid, cfg.exit()).unwrap();
        sched.edge_modes[e_mid.index()] = ModeId(0);
        // Keep the downstream edge at the new mode so the program switches
        // exactly once.
        sched.edge_modes[mid_x.index()] = ModeId(0);
        let r = m.run_scheduled(&cfg, &t, &l, &sched, &tm);
        assert_eq!(r.transitions, 1);
        assert!(
            (r.transition_energy_uj - tm.mode_energy_uj(&l, ModeId(2), ModeId(0))).abs() < 1e-12
        );
        assert!((r.transition_time_us - tm.mode_time_us(&l, ModeId(2), ModeId(0))).abs() < 1e-12);
        // Nothing commits, so the commit-anchored timeline stays at zero —
        // the switch overhead is carried entirely by the transition fields.
        assert_eq!(r.time_us, 0.0);
        assert_eq!(r.processor_energy_uj, r.transition_energy_uj);
    }

    #[test]
    fn self_loop_back_edge_switches_exactly_once() {
        // entry -> loop(self x50) -> exit: the self-loop back edge sets a
        // different mode than the entry edge, so the *first* arrival over
        // the back edge switches and the remaining 49 are silent.
        let mut b = CfgBuilder::new("selfloop");
        let e = b.block("entry");
        let lp = b.block("loop");
        let x = b.block("exit");
        b.push(lp, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1)]));
        b.push(lp, Inst::branch(Reg(1)));
        b.edge(e, lp);
        b.edge(lp, lp);
        b.edge(lp, x);
        let cfg = b.finish(e, x).unwrap();
        let lp = cfg.block_by_label("loop").unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(cfg.entry(), vec![]);
        for _ in 0..50 {
            tb.step(lp, vec![]);
        }
        tb.step(cfg.exit(), vec![]);
        let t = tb.finish().unwrap();
        let m = Machine::paper_default();
        let l = ladder();
        let tm = TransitionModel::with_capacitance_uf(10.0);
        let mut sched = EdgeSchedule::uniform(&cfg, ModeId(2));
        let back = cfg.edge_between(lp, lp).unwrap();
        let exit_edge = cfg.edge_between(lp, cfg.exit()).unwrap();
        sched.edge_modes[back.index()] = ModeId(0);
        // The loop-exit edge stays at the loop's final mode so the only
        // candidate switch point is the back edge itself.
        sched.edge_modes[exit_edge.index()] = ModeId(0);
        let r = m.run_scheduled(&cfg, &t, &l, &sched, &tm);
        assert_eq!(
            r.transitions, 1,
            "a static mode-set on a self-loop must fire once, then be silent"
        );
        assert!(
            (r.transition_energy_uj - tm.mode_energy_uj(&l, ModeId(2), ModeId(0))).abs() < 1e-12
        );
    }

    #[test]
    fn mode_switch_on_a_critical_edge_charges_only_when_taken() {
        // entry branches to {side, exit} and side falls through to exit, so
        // entry->exit is a critical edge (multi-successor source,
        // multi-predecessor target). Its mode-set must fire exactly on the
        // paths that take it.
        let mut b = CfgBuilder::new("critical");
        let e = b.block("entry");
        let side = b.block("side");
        let x = b.block("exit");
        b.push(e, Inst::branch(Reg(1)));
        b.push(side, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1)]));
        b.edge(e, side);
        b.edge(e, x);
        b.edge(side, x);
        let cfg = b.finish(e, x).unwrap();
        let side = cfg.block_by_label("side").unwrap();
        let m = Machine::paper_default();
        let l = ladder();
        let tm = TransitionModel::with_capacitance_uf(10.0);
        let mut sched = EdgeSchedule::uniform(&cfg, ModeId(1));
        let crit = cfg.edge_between(cfg.entry(), cfg.exit()).unwrap();
        sched.edge_modes[crit.index()] = ModeId(0);

        let mut around = TraceBuilder::new(&cfg);
        around.step(cfg.entry(), vec![]);
        around.step(side, vec![]);
        around.step(cfg.exit(), vec![]);
        let around = around.finish().unwrap();
        let r = m.run_scheduled(&cfg, &around, &l, &sched, &tm);
        assert_eq!(r.transitions, 0, "the critical edge was not taken");
        assert_eq!(r.transition_energy_uj, 0.0);

        let mut through = TraceBuilder::new(&cfg);
        through.step(cfg.entry(), vec![]);
        through.step(cfg.exit(), vec![]);
        let through = through.finish().unwrap();
        let r = m.run_scheduled(&cfg, &through, &l, &sched, &tm);
        assert_eq!(r.transitions, 1, "the critical edge was taken");
        assert!(
            (r.transition_energy_uj - tm.mode_energy_uj(&l, ModeId(1), ModeId(0))).abs() < 1e-12
        );
    }

    #[test]
    fn slow_mode_saves_energy_but_costs_time() {
        let (cfg, t) = program();
        let m = Machine::paper_default();
        let l = ladder();
        let tm = TransitionModel::free();
        let fast = m.run_scheduled(&cfg, &t, &l, &EdgeSchedule::uniform(&cfg, ModeId(2)), &tm);
        let slow = m.run_scheduled(&cfg, &t, &l, &EdgeSchedule::uniform(&cfg, ModeId(0)), &tm);
        assert!(slow.time_us > fast.time_us);
        assert!(slow.processor_energy_uj < fast.processor_energy_uj);
    }
}
