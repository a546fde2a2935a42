//! Re-execution of a trace under a compile-time DVS schedule.
//!
//! The MILP predicts time and energy from per-block profile averages; this
//! module *validates* a schedule by re-running the dataflow timing model
//! with the clock actually changing at mode-set points, charging the
//! regulator's transition time and energy on every real mode change (a
//! mode-set instruction whose value matches the current mode is silent, as
//! in the paper).
//!
//! Because the clock varies, the timeline here is kept in **microseconds**
//! rather than cycles; instruction latencies convert through the period of
//! whichever mode the surrounding block was assigned.

use crate::machine::{first_free, later, next_slot};
use crate::{DataLevel, EnergyModel, Machine, Trace, FRONTEND_DEPTH};
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

    /// Number of *static* mode-set points whose value differs from some
    /// incoming context — an upper bound on distinct settings; dynamic
    /// transition counting happens during execution.
    #[must_use]
    pub fn distinct_modes(&self) -> usize {
        let mut modes: Vec<ModeId> = self.edge_modes.clone();
        modes.push(self.initial);
        modes.sort_unstable();
        modes.dedup();
        modes.len()
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

impl Machine {
    /// Executes `trace` under `schedule`, switching the clock/voltage on
    /// edges whose assigned mode differs from the current one and charging
    /// `transition` costs for each switch.
    ///
    /// # Panics
    ///
    /// Panics if `schedule.edge_modes` does not cover every CFG edge or if
    /// the trace is inconsistent with `cfg`.
    #[must_use]
    pub fn run_scheduled(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        ladder: &VoltageLadder,
        schedule: &EdgeSchedule,
        transition: &TransitionModel,
    ) -> ScheduledRun {
        assert_eq!(
            schedule.edge_modes.len(),
            cfg.num_edges(),
            "schedule must cover every edge"
        );
        let rec = self.record(cfg, trace);
        let _span = dvs_obs::span!("sim.run_scheduled");
        let cfgm = self.config();
        let em = self.energy_model();
        let table = &rec.table;
        let mut fetches = rec.fetches.iter();
        let mut data = rec.data.iter();
        let mut branches = rec.mispredicted.iter();

        let mut reg_ready = [0.0f64; 64];
        let mut fu_free = vec![0.0f64; table.fu_offsets[7]];
        let mut window_ring = vec![0.0f64; cfgm.ruu_size];
        let mut lsq_ring = vec![0.0f64; cfgm.lsq_size];
        let mut commit_ring = vec![0.0f64; cfgm.commit_width];

        let mut fetch_us = 0.0f64;
        let mut fetch_slots = 0usize;
        let mut mem_free = 0.0f64;
        let mut prev_commit = 0.0f64;
        // Ring positions of the current instruction (window and commit
        // rings) and of the next memory instruction (LSQ ring).
        let (mut window_ix, mut commit_ix, mut lsq_ix) = (0usize, 0usize, 0usize);
        let mut pending_redirect = 0.0f64;

        let mut cap_weighted_uj = 0.0f64; // Σ cap·V² accumulated per block mode
        let mut dram_uj = 0.0f64;
        let mut transitions = 0u64;
        let mut transition_energy = 0.0f64;
        let mut transition_time = 0.0f64;

        let mut current = schedule.initial;
        let mut prev_block: Option<dvs_ir::BlockId> = None;

        for dyn_block in trace.blocks() {
            // Mode-set on the edge we arrive through.
            if let Some(pb) = prev_block {
                let e = cfg
                    .edge_between(pb, dyn_block.block)
                    .expect("trace follows CFG edges");
                let target = schedule.edge_modes[e.index()];
                if target != current {
                    let st = transition.mode_time_us(ladder, current, target);
                    let se = transition.mode_energy_uj(ladder, current, target);
                    let barrier = later(fetch_us, prev_commit) + st;
                    fetch_us = barrier;
                    fetch_slots = 0;
                    transitions += 1;
                    transition_energy += se;
                    transition_time += st;
                    current = target;
                }
            }
            prev_block = Some(dyn_block.block);

            let point = ladder.point(current);
            let period = point.period_us();
            let vv = point.voltage * point.voltage;
            let mem_lat_us = cfgm.mem_latency_us;
            let l1_uj = EnergyModel::cap_to_uj(em.l1_nf, point.voltage);
            let l2_uj = EnergyModel::cap_to_uj(em.l2_nf, point.voltage);
            let bpred_uj = EnergyModel::cap_to_uj(em.bpred_nf, point.voltage);

            fetch_us = later(fetch_us, pending_redirect);
            if pending_redirect > 0.0 {
                fetch_slots = 0;
                pending_redirect = 0.0;
            }

            for inst in table.block(dyn_block.block.index()) {
                if inst.starts_line {
                    let a = fetches.next().expect("one fetch per line start");
                    cap_weighted_uj += l1_uj;
                    match a.level {
                        DataLevel::L1 => {}
                        DataLevel::L2 => {
                            cap_weighted_uj += l2_uj;
                            fetch_us += f64::from(a.cycles - cfgm.l1_latency) * period;
                        }
                        DataLevel::Memory => {
                            cap_weighted_uj += l2_uj;
                            dram_uj += em.dram_uj_per_access;
                            let ready = fetch_us + f64::from(a.cycles) * period;
                            let start = later(ready, mem_free);
                            let end = start + mem_lat_us;
                            mem_free = end;
                            fetch_us = end;
                        }
                    }
                }

                if fetch_slots >= cfgm.fetch_width {
                    fetch_us += period;
                    fetch_slots = 0;
                }
                let fetch_time = fetch_us;
                fetch_slots += 1;

                let dispatch_ready = fetch_time + FRONTEND_DEPTH * period;
                let window_gate = window_ring[window_ix];

                let mut src_ready = 0.0f64;
                for &s in table.srcs(inst) {
                    src_ready = later(src_ready, reg_ready[usize::from(s)]);
                }

                let pool = usize::from(inst.pool);
                let (unit_ix, unit_free) =
                    first_free(&fu_free, table.fu_offsets[pool], table.fu_offsets[pool + 1]);

                let mut issue = later(
                    later(dispatch_ready, window_gate),
                    later(src_ready, unit_free),
                );
                if inst.is_mem {
                    issue = later(issue, lsq_ring[lsq_ix]);
                }
                fu_free[unit_ix] = issue + f64::from(inst.occupancy) * period;

                let mut complete = issue + f64::from(inst.latency) * period;
                if inst.is_mem {
                    let a = data.next().expect("one data access per memory instruction");
                    cap_weighted_uj += l1_uj;
                    match a.level {
                        DataLevel::L1 | DataLevel::L2 => {
                            if a.level == DataLevel::L2 {
                                cap_weighted_uj += l2_uj;
                            }
                            if inst.is_load {
                                complete = issue + (1.0 + f64::from(a.cycles)) * period;
                            }
                        }
                        DataLevel::Memory => {
                            cap_weighted_uj += l2_uj;
                            dram_uj += em.dram_uj_per_access;
                            let ready = issue + (1.0 + f64::from(a.cycles)) * period;
                            let start = later(ready, mem_free);
                            let end = start + mem_lat_us;
                            mem_free = end;
                            if inst.is_load {
                                complete = end;
                            }
                        }
                    }
                }

                if inst.is_branch {
                    cap_weighted_uj += bpred_uj;
                    if *branches.next().expect("one outcome per branch") {
                        pending_redirect = later(
                            pending_redirect,
                            complete + f64::from(cfgm.mispredict_penalty) * period,
                        );
                    }
                }

                let commit = later(
                    later(complete + period, prev_commit),
                    commit_ring[commit_ix] + period,
                );
                prev_commit = commit;
                commit_ring[commit_ix] = commit;
                window_ring[window_ix] = commit;
                commit_ix = next_slot(commit_ix, commit_ring.len());
                window_ix = next_slot(window_ix, window_ring.len());
                if inst.is_mem {
                    lsq_ring[lsq_ix] = commit;
                    lsq_ix = next_slot(lsq_ix, lsq_ring.len());
                }
                if let Some(d) = inst.dest {
                    reg_ready[usize::from(d)] = complete;
                }

                cap_weighted_uj += (inst.core_nf + inst.fu_nf) * vv * 1e-3;
            }
        }

        if dvs_obs::enabled() {
            dvs_obs::counter("sim.scheduled_runs", 1);
            dvs_obs::counter("emit.mode_switches", transitions);
            dvs_obs::histogram("sim.scheduled_time_us", prev_commit);
        }
        ScheduledRun {
            time_us: prev_commit,
            processor_energy_uj: cap_weighted_uj + transition_energy,
            dram_energy_uj: dram_uj,
            transitions,
            transition_energy_uj: transition_energy,
            transition_time_us: transition_time,
        }
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
