//! The batched interpreter: steps each schedule's [`ScheduledPass`] over
//! the compiled op stream.

use dvs_sim::{EdgeSchedule, ScheduledPass, ScheduledRun};

use crate::bytecode::{BlockOp, ReplayBytecode, ENTRY_EDGE};

impl ReplayBytecode {
    /// Runs one block op of `schedule` on `pass`.
    fn exec_block(&self, pass: &mut ScheduledPass, op: &BlockOp, schedule: &EdgeSchedule) {
        if op.edge != ENTRY_EDGE {
            pass.set_mode(schedule.edge_modes[op.edge as usize], |from, to| {
                self.switches[from.index() * self.modes.len() + to.index()]
            });
        }
        // Repeats of a run-length-encoded self-loop arrive via the same
        // edge, whose mode is now in force: the simulator's per-occurrence
        // mode-set is silent for them, so the switch is hoisted out of the
        // rep loop.
        let (period, vv) = self.modes[pass.mode().index()];
        let variant = &self.variants[op.variant as usize];
        for _ in 0..op.reps {
            pass.enter_block();
            for (inst, out) in &variant.ops {
                pass.step(period, inst, out);
            }
            pass.charge(variant.nf_total * vv * 1e-3);
        }
    }

    /// Evaluates one schedule, reproducing what
    /// [`dvs_sim::Machine::run_scheduled`] would report for the compiled
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover every edge of the compiled
    /// CFG or names a mode outside the compiled ladder
    /// ([`EdgeSchedule::check`]).
    #[must_use]
    pub fn replay(&self, schedule: &EdgeSchedule) -> ScheduledRun {
        self.replay_batch(std::slice::from_ref(schedule))
            .pop()
            .expect("one run per schedule")
    }

    /// Evaluates many schedules against the one compiled trace in a single
    /// pass over the op stream: the stream (and each shared variant) is
    /// read once per block step while every schedule's pass state stays
    /// hot. Results are ordered as the input.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ReplayBytecode::replay`], for
    /// any schedule in the batch.
    #[must_use]
    pub fn replay_batch(&self, schedules: &[EdgeSchedule]) -> Vec<ScheduledRun> {
        for s in schedules {
            s.check(self.num_edges, self.modes.len());
        }
        let mut passes: Vec<ScheduledPass> = schedules
            .iter()
            .map(|s| ScheduledPass::new(&self.config, s.initial))
            .collect();
        for op in &self.ops {
            for (pass, schedule) in passes.iter_mut().zip(schedules) {
                self.exec_block(pass, op, schedule);
            }
        }
        if dvs_obs::enabled() {
            dvs_obs::counter("replay.runs", schedules.len() as u64);
        }
        passes
            .iter()
            .map(|p| p.finish(self.dram_energy_uj))
            .collect()
    }
}
