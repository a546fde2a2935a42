//! The batched interpreter: replays the pure timing recurrence of
//! `dvs_sim`'s scheduled executor over the compiled op stream.

use dvs_sim::{EdgeSchedule, ScheduledRun, FRONTEND_DEPTH};

use crate::bytecode::{
    BlockOp, ReplayBytecode, ACC_L2, ACC_MEM, ENTRY_EDGE, F_LOAD, F_MEM, F_MISPREDICT, F_WRITES,
};

/// Mutable per-schedule evaluation state — everything
/// `Machine::run_scheduled` keeps between instructions, minus the memory
/// hierarchy and predictor (already folded into the bytecode). One lane is
/// ~1.4 KB for the paper machine, so a batch of lanes stays cache-resident
/// while the op stream is read once.
struct Lane {
    reg_ready: [f64; 64],
    fu_free: Vec<f64>,
    window_ring: Vec<f64>,
    lsq_ring: Vec<f64>,
    commit_ring: Vec<f64>,
    fetch_us: f64,
    fetch_slots: usize,
    mem_free: f64,
    prev_commit: f64,
    inst_index: usize,
    mem_index: usize,
    pending_redirect: f64,
    cap_weighted_uj: f64,
    transitions: u64,
    transition_energy: f64,
    transition_time: f64,
    mode: usize,
}

impl Lane {
    fn new(code: &ReplayBytecode, initial_mode: usize) -> Self {
        Lane {
            reg_ready: [0.0; 64],
            fu_free: vec![0.0; code.fu_offsets[7]],
            window_ring: vec![0.0; code.ruu_size],
            lsq_ring: vec![0.0; code.lsq_size],
            commit_ring: vec![0.0; code.commit_width],
            fetch_us: 0.0,
            fetch_slots: 0,
            mem_free: 0.0,
            prev_commit: 0.0,
            inst_index: 0,
            mem_index: 0,
            pending_redirect: 0.0,
            cap_weighted_uj: 0.0,
            transitions: 0,
            transition_energy: 0.0,
            transition_time: 0.0,
            mode: initial_mode,
        }
    }

    fn exec_block(&mut self, code: &ReplayBytecode, op: &BlockOp, schedule: &EdgeSchedule) {
        if op.edge != ENTRY_EDGE {
            let target = schedule.edge_modes[op.edge as usize].index();
            if target != self.mode {
                let ix = self.mode * code.num_modes + target;
                let st = code.switch_time_us[ix];
                let se = code.switch_energy_uj[ix];
                let barrier = self.fetch_us.max(self.prev_commit) + st;
                self.fetch_us = barrier;
                self.fetch_slots = 0;
                self.transitions += 1;
                self.transition_energy += se;
                self.transition_time += st;
                self.mode = target;
            }
        }
        // Repeats of a run-length-encoded self-loop arrive via the same
        // edge, whose mode now equals `self.mode`: the simulator's per-
        // occurrence mode-set is silent for them, so the switch check is
        // hoisted out of the rep loop.
        let period = code.period_us[self.mode];
        let vv = code.vv[self.mode];
        let variant = &code.variants[op.variant as usize];
        for _ in 0..op.reps {
            self.fetch_us = self.fetch_us.max(self.pending_redirect);
            if self.pending_redirect > 0.0 {
                self.fetch_slots = 0;
                self.pending_redirect = 0.0;
            }
            for o in &variant.ops {
                match o.icache {
                    ACC_L2 => self.fetch_us += o.icache_cyc * period,
                    ACC_MEM => {
                        let ready = self.fetch_us + o.icache_cyc * period;
                        let start = ready.max(self.mem_free);
                        let end = start + code.mem_latency_us;
                        self.mem_free = end;
                        self.fetch_us = end;
                    }
                    _ => {}
                }

                if self.fetch_slots >= code.fetch_width {
                    self.fetch_us += period;
                    self.fetch_slots = 0;
                }
                let fetch_time = self.fetch_us;
                self.fetch_slots += 1;

                let dispatch_ready = fetch_time + FRONTEND_DEPTH * period;
                let window_gate = self.window_ring[self.inst_index % code.ruu_size];
                let mut src_ready = 0.0f64;
                for &s in &o.srcs[..o.nsrc as usize] {
                    src_ready = src_ready.max(self.reg_ready[s as usize]);
                }

                // First-minimum unit selection, matching the simulator's
                // `Iterator::min_by` tie-breaking.
                let lo = code.fu_offsets[o.pool_ix as usize];
                let hi = code.fu_offsets[o.pool_ix as usize + 1];
                let mut unit_ix = lo;
                let mut unit_free = self.fu_free[lo];
                for j in lo + 1..hi {
                    if self.fu_free[j] < unit_free {
                        unit_free = self.fu_free[j];
                        unit_ix = j;
                    }
                }

                let mut issue = dispatch_ready
                    .max(window_gate)
                    .max(src_ready)
                    .max(unit_free);
                let is_mem = o.flags & F_MEM != 0;
                if is_mem {
                    issue = issue.max(self.lsq_ring[self.mem_index % code.lsq_size]);
                }
                self.fu_free[unit_ix] = issue + o.occupancy * period;

                let mut complete = issue + o.latency * period;
                if is_mem {
                    if o.dcache == ACC_MEM {
                        let ready = issue + (1.0 + o.dcache_cyc) * period;
                        let start = ready.max(self.mem_free);
                        let end = start + code.mem_latency_us;
                        self.mem_free = end;
                        if o.flags & F_LOAD != 0 {
                            complete = end;
                        }
                    } else if o.flags & F_LOAD != 0 {
                        complete = issue + (1.0 + o.dcache_cyc) * period;
                    }
                }

                if o.flags & F_MISPREDICT != 0 {
                    self.pending_redirect = self
                        .pending_redirect
                        .max(complete + code.mispredict_penalty * period);
                }

                let commit = (complete + period)
                    .max(self.prev_commit)
                    .max(self.commit_ring[self.inst_index % code.commit_width] + period);
                self.prev_commit = commit;
                self.commit_ring[self.inst_index % code.commit_width] = commit;
                self.window_ring[self.inst_index % code.ruu_size] = commit;
                if is_mem {
                    self.lsq_ring[self.mem_index % code.lsq_size] = commit;
                    self.mem_index += 1;
                }
                if o.flags & F_WRITES != 0 {
                    self.reg_ready[o.dest as usize] = complete;
                }
                self.inst_index += 1;
            }
            self.cap_weighted_uj += variant.nf_total * vv * 1e-3;
        }
    }

    fn finish(&self, code: &ReplayBytecode) -> ScheduledRun {
        ScheduledRun {
            time_us: self.prev_commit,
            processor_energy_uj: self.cap_weighted_uj + self.transition_energy,
            dram_energy_uj: code.dram_energy_uj,
            transitions: self.transitions,
            transition_energy_uj: self.transition_energy,
            transition_time_us: self.transition_time,
        }
    }
}

impl ReplayBytecode {
    fn check_schedule(&self, schedule: &EdgeSchedule) {
        assert_eq!(
            schedule.edge_modes.len(),
            self.num_edges,
            "schedule must cover every edge"
        );
        assert!(
            schedule.initial.index() < self.num_modes
                && schedule
                    .edge_modes
                    .iter()
                    .all(|m| m.index() < self.num_modes),
            "schedule references a mode outside the compiled ladder"
        );
    }

    /// Evaluates one schedule, reproducing what
    /// [`dvs_sim::Machine::run_scheduled`] would report for the compiled
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover every edge of the compiled
    /// CFG or names a mode outside the compiled ladder.
    #[must_use]
    pub fn replay(&self, schedule: &EdgeSchedule) -> ScheduledRun {
        self.check_schedule(schedule);
        let mut lane = Lane::new(self, schedule.initial.index());
        for op in &self.ops {
            lane.exec_block(self, op, schedule);
        }
        if dvs_obs::enabled() {
            dvs_obs::counter("replay.runs", 1);
        }
        lane.finish(self)
    }

    /// Evaluates many schedules against the one compiled trace in a single
    /// pass over the op stream: the stream (and each shared variant) is
    /// read once per block step while every lane's ~1.4 KB state stays
    /// hot. Results are ordered as the input.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ReplayBytecode::replay`], for
    /// any schedule in the batch.
    #[must_use]
    pub fn replay_batch(&self, schedules: &[EdgeSchedule]) -> Vec<ScheduledRun> {
        for s in schedules {
            self.check_schedule(s);
        }
        let mut lanes: Vec<Lane> = schedules
            .iter()
            .map(|s| Lane::new(self, s.initial.index()))
            .collect();
        for op in &self.ops {
            for (lane, schedule) in lanes.iter_mut().zip(schedules) {
                lane.exec_block(self, op, schedule);
            }
        }
        if dvs_obs::enabled() {
            dvs_obs::counter("replay.runs", schedules.len() as u64);
        }
        lanes.iter().map(|l| l.finish(self)).collect()
    }
}

/// Evaluates one schedule against many compiled traces (the "score this
/// schedule under input X" direction): each program is one pass. All
/// programs must have been compiled from the same CFG (the schedule must
/// cover each program's edge set).
#[must_use]
pub fn replay_each<'a, I>(codes: I, schedule: &EdgeSchedule) -> Vec<ScheduledRun>
where
    I: IntoIterator<Item = &'a ReplayBytecode>,
{
    codes.into_iter().map(|c| c.replay(schedule)).collect()
}
