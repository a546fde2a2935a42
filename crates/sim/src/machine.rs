use crate::cache::CacheStats;
use crate::record::{Recording, FRONTEND_DEPTH};
use crate::{DataLevel, EnergyBreakdown, EnergyModel, SimConfig, Trace};
use dvs_ir::Cfg;
use dvs_vf::OperatingPoint;

/// Per-basic-block accumulation over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStats {
    /// Dynamic invocations of the block.
    pub invocations: u64,
    /// Total wall-clock time attributed to the block, µs.
    pub time_us: f64,
    /// Total switched capacitance attributed to the block, nF.
    pub cap_nf: f64,
}

/// Results of executing one trace at one operating point.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// The `(V, f)` the run used.
    pub point: OperatingPoint,
    /// Wall-clock execution time, µs.
    pub total_time_us: f64,
    /// Execution time in CPU cycles at this point's frequency.
    pub total_cycles: f64,
    /// Committed instructions.
    pub committed_insts: u64,
    /// Energy accumulated across the run.
    pub energy: EnergyBreakdown,
    /// Per-block accumulations, indexed by block id.
    pub blocks: Vec<BlockStats>,
    /// Busy cycles that overlapped an outstanding main-memory miss
    /// (the analytical model's `Noverlap` contribution).
    pub overlap_cycles: f64,
    /// Busy cycles with no outstanding miss (`Ndependent` contribution).
    pub dependent_cycles: f64,
    /// Cycles stalled with a miss outstanding; in absolute time this is the
    /// analytical model's `tinvariant`.
    pub stall_cycles: f64,
    /// Cycles spent in L1/L2 hit latencies of data accesses (`Ncache`).
    pub cache_hit_cycles: f64,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Branch direction mispredictions.
    pub mispredicts: u64,
    /// Off-chip DRAM accesses.
    pub dram_accesses: u64,
}

impl RunStats {
    /// On-chip processor energy for the whole run, µJ.
    #[must_use]
    pub fn processor_energy_uj(&self) -> f64 {
        self.energy.processor_uj(self.point.voltage)
    }

    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.total_cycles > 0.0 {
            self.committed_insts as f64 / self.total_cycles
        } else {
            0.0
        }
    }

    /// Feeds this run's aggregates into the global `dvs-obs` sink (one call
    /// per simulated run; a no-op unless collection is enabled).
    pub(crate) fn record_metrics(&self) {
        if !dvs_obs::enabled() {
            return;
        }
        dvs_obs::counter("sim.runs", 1);
        dvs_obs::counter("sim.cycles", self.total_cycles as u64);
        dvs_obs::counter("sim.insts", self.committed_insts);
        dvs_obs::counter("sim.l1d_misses", self.l1d.misses);
        dvs_obs::counter("sim.l1i_misses", self.l1i.misses);
        dvs_obs::counter("sim.l2_misses", self.l2.misses);
        dvs_obs::counter("sim.dram_accesses", self.dram_accesses);
        dvs_obs::counter("sim.mispredicts", self.mispredicts);
        dvs_obs::histogram("sim.run_ipc", self.ipc());
    }
}

impl std::fmt::Display for RunStats {
    /// A compact one-line summary, sim-outorder style.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} insts, {:.0} cycles (IPC {:.2}) in {:.1} µs @ {}; \
             E = {:.2} µJ; L1D miss {:.1}%, L2 miss {:.1}%, {} DRAM, {} mispredicts",
            self.committed_insts as f64,
            self.total_cycles,
            self.ipc(),
            self.total_time_us,
            self.point,
            self.processor_energy_uj(),
            100.0 * self.l1d.miss_rate(),
            100.0 * self.l2.miss_rate(),
            self.dram_accesses,
            self.mispredicts
        )
    }
}

/// The out-of-order machine: a dataflow timing model with the paper's
/// Table 2 resources.
///
/// Rather than stepping every cycle, each dynamic instruction's fetch,
/// dispatch, issue, completion and commit times are computed from its
/// dependences and from resource scoreboards (window and LSQ occupancy,
/// per-class functional units, fetch bandwidth, a single-channel
/// asynchronous memory). This captures the behaviours the paper's study
/// depends on — memory/computation overlap, frequency-invariant miss
/// service time, clock-gated stalls.
///
/// A call walks the caches, TLBs and branch predictor once
/// ([`Machine::record`]) and then times every requested operating point
/// over that record. A timing pass does work per instruction bounded by
/// its operand count and its unit pool's size, plus one bit per busy cycle
/// and one word-level popcount per 64 cycles of off-chip miss service.
#[derive(Debug, Clone)]
pub struct Machine {
    config: SimConfig,
    energy: EnergyModel,
}

impl Machine {
    /// Creates a machine with the given configuration and energy model.
    #[must_use]
    pub fn new(config: SimConfig, energy: EnergyModel) -> Self {
        Machine { config, energy }
    }

    /// A machine with the paper's default configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Machine::new(SimConfig::default(), EnergyModel::default())
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The energy model in use.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Executes `trace` over `cfg` at `point`, with cold caches and
    /// predictor.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks outside `cfg`.
    #[must_use]
    pub fn run(&self, cfg: &Cfg, trace: &Trace, point: OperatingPoint) -> RunStats {
        self.run_points(cfg, trace, &[point])
            .pop()
            .expect("one run per point")
    }

    /// Executes `trace` over `cfg` once per operating point, each run from
    /// cold caches and predictor, and returns the runs in `points` order.
    ///
    /// The caches, TLBs and predictor see the same stream at every clock,
    /// so they are walked once ([`Machine::record`]); each point then gets
    /// its own cycle-domain timing pass over that record. Each result
    /// equals what a separate [`Machine::run`] at that point reports.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks outside `cfg`.
    #[must_use]
    pub fn run_points(&self, cfg: &Cfg, trace: &Trace, points: &[OperatingPoint]) -> Vec<RunStats> {
        let rec = self.record(cfg, trace);
        let charge = Charge::of(&rec, &self.energy, cfg.num_blocks());
        points
            .iter()
            .map(|&point| {
                let _span = dvs_obs::span!("sim.run");
                let stats = self.time(&rec, &charge, point);
                stats.record_metrics();
                stats
            })
            .collect()
    }

    /// One cycle-domain timing pass over `rec` at `point`.
    fn time(&self, rec: &Recording<'_>, charge: &Charge, point: OperatingPoint) -> RunStats {
        let cfgm = &self.config;
        let table = &rec.table;
        let f = point.frequency_mhz;
        let mem_lat_cycles = cfgm.mem_latency_us * f;

        let mut reg_ready = [0.0f64; 64];
        // Free time of every functional unit, pools laid out by
        // `fu_offsets`.
        let mut fu_free = vec![0.0f64; table.fu_offsets[7]];
        let mut window_ring = vec![0.0f64; cfgm.ruu_size];
        let mut lsq_ring = vec![0.0f64; cfgm.lsq_size];
        let mut commit_ring = vec![0.0f64; cfgm.commit_width];
        let mut fetches = rec.fetches.iter();
        let mut data = rec.data.iter();
        let mut branches = rec.mispredicted.iter();

        let mut fetch_cycle = 0.0f64;
        let mut fetch_slots = 0usize;
        let mut mem_free = 0.0f64;
        let mut prev_commit = 0.0f64;
        // Ring positions of the current instruction (window and commit
        // rings) and of the next memory instruction (LSQ ring).
        let (mut window_ix, mut commit_ix, mut lsq_ix) = (0usize, 0usize, 0usize);
        let mut blocks = charge.blocks.clone();
        let mut pending_redirect = 0.0f64;
        let mut block_mark = 0.0f64;

        let mut busy = BusyBitmap::default();
        let mut mem_active = BusyBitmap::default();
        let mut miss_intervals: Vec<(f64, f64)> = Vec::new();
        let mut compute = ComputeLog::default();

        for dyn_block in rec.trace.blocks() {
            let b = dyn_block.block.index();
            fetch_cycle = fetch_cycle.max(pending_redirect);
            if pending_redirect > 0.0 {
                fetch_slots = 0;
                pending_redirect = 0.0;
            }

            for inst in table.block(b) {
                // Instruction-side cache behaviour: one access per line the
                // block touches.
                if inst.starts_line {
                    let a = fetches.next().expect("one fetch per line start");
                    match a.level {
                        DataLevel::L1 => {}
                        DataLevel::L2 => fetch_cycle += f64::from(a.cycles - cfgm.l1_latency),
                        DataLevel::Memory => {
                            let ready = fetch_cycle + f64::from(a.cycles);
                            let start = ready.max(mem_free);
                            let end = start + mem_lat_cycles;
                            mem_free = end;
                            miss_intervals.push((start, end));
                            mem_active.mark_range(ready, end);
                            fetch_cycle = end;
                        }
                    }
                }

                // Fetch bandwidth.
                if fetch_slots >= cfgm.fetch_width {
                    fetch_cycle += 1.0;
                    fetch_slots = 0;
                }
                let fetch_time = fetch_cycle;
                fetch_slots += 1;

                let dispatch_ready = fetch_time + FRONTEND_DEPTH;
                let window_gate = window_ring[window_ix];

                // Source readiness.
                let mut src_ready = 0.0f64;
                for &s in table.srcs(inst) {
                    src_ready = src_ready.max(reg_ready[usize::from(s)]);
                }

                // Functional unit: the first unit to free up in the pool.
                let pool = usize::from(inst.pool);
                let (lo, hi) = (table.fu_offsets[pool], table.fu_offsets[pool + 1]);
                let (mut unit_ix, mut unit_free) = (lo, fu_free[lo]);
                for (j, &t) in fu_free[lo..hi].iter().enumerate().skip(1) {
                    if t < unit_free {
                        unit_free = t;
                        unit_ix = lo + j;
                    }
                }

                let mut issue = dispatch_ready
                    .max(window_gate)
                    .max(src_ready)
                    .max(unit_free);
                if inst.is_mem {
                    issue = issue.max(lsq_ring[lsq_ix]);
                }
                // Unit occupancy: divides are unpipelined.
                fu_free[unit_ix] = issue + f64::from(inst.occupancy);

                // Completion.
                let mut complete = issue + f64::from(inst.latency);
                if inst.is_mem {
                    let a = data.next().expect("one data access per memory instruction");
                    match a.level {
                        DataLevel::L1 | DataLevel::L2 => {
                            mem_active.mark_range(issue, issue + 1.0 + f64::from(a.cycles));
                            if inst.is_load {
                                complete = issue + 1.0 + f64::from(a.cycles);
                            }
                        }
                        DataLevel::Memory => {
                            let ready = issue + 1.0 + f64::from(a.cycles);
                            let start = ready.max(mem_free);
                            let end = start + mem_lat_cycles;
                            mem_free = end;
                            miss_intervals.push((start, end));
                            mem_active.mark_range(issue, end);
                            if inst.is_load {
                                complete = end;
                            }
                            // Store misses retire without waiting for DRAM.
                        }
                    }
                }

                // Branch misprediction refills the front end.
                if inst.is_branch && *branches.next().expect("one outcome per branch") {
                    pending_redirect =
                        pending_redirect.max(complete + f64::from(cfgm.mispredict_penalty));
                }

                // In-order commit.
                let commit = (complete + 1.0)
                    .max(prev_commit)
                    .max(commit_ring[commit_ix] + 1.0);
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

                busy.mark(issue);
                if inst.is_compute {
                    compute.log(issue, inst.latency);
                }
            }
            // Every later mark of `mem_active` starts at or after the
            // current fetch cycle (a fetch miss at its ready time, a data
            // access at its issue), and the fetch cycle never decreases.
            compute.settle(fetch_cycle.max(0.0) as usize, &mem_active);

            // Attribute elapsed time to this block invocation.
            blocks[b].time_us += (prev_commit - block_mark).max(0.0) / f;
            block_mark = prev_commit;
        }

        let total_cycles = prev_commit;
        // Stall time: idle cycles during off-chip miss service (this is the
        // absolute-time component, tinvariant).
        let stall = busy.idle_within(&miss_intervals, total_cycles);
        compute.settle(usize::MAX, &mem_active);
        let mut energy = charge.energy;
        // Without perfect clock gating, every idle cycle still drives the
        // clock tree. Charged globally (not attributed to blocks): it is a
        // property of the gaps *between* work.
        if self.energy.gating == crate::ClockGating::Ungated {
            let idle = (total_cycles - busy.count() as f64).max(0.0);
            energy.core_nf += idle * self.energy.clock_nf;
        }

        RunStats {
            point,
            total_time_us: total_cycles / f,
            total_cycles,
            committed_insts: charge.committed,
            energy,
            blocks,
            overlap_cycles: compute.overlap as f64,
            dependent_cycles: compute.dependent as f64,
            stall_cycles: stall as f64,
            cache_hit_cycles: charge.cache_hit_cycles,
            l1d: rec.l1d,
            l1i: rec.l1i,
            l2: rec.l2,
            mispredicts: rec.mispredicts,
            dram_accesses: charge.dram_accesses,
        }
    }
}

/// The next position of a ring of `len` slots.
fn next_slot(ix: usize, len: usize) -> usize {
    if ix + 1 == len {
        0
    } else {
        ix + 1
    }
}

/// The clock-independent part of a run: energy as switched capacitance,
/// per-block invocations and capacitance, and event counts. Computed once
/// per record, in the same order a single run accumulates it.
struct Charge {
    energy: EnergyBreakdown,
    /// Per-block stats with `time_us` still zero.
    blocks: Vec<BlockStats>,
    dram_accesses: u64,
    committed: u64,
    cache_hit_cycles: f64,
}

impl Charge {
    fn of(rec: &Recording<'_>, em: &EnergyModel, num_blocks: usize) -> Self {
        let mut energy = EnergyBreakdown::default();
        let mut blocks = vec![BlockStats::default(); num_blocks];
        let mut dram_accesses = 0u64;
        let mut committed = 0u64;
        let mut cache_hit_cycles = 0.0f64;
        let mut fetches = rec.fetches.iter();
        let mut data = rec.data.iter();

        for dyn_block in rec.trace.blocks() {
            let b = dyn_block.block.index();
            let mut block_cap = 0.0f64;
            for inst in rec.table.block(b) {
                if inst.starts_line {
                    let a = fetches.next().expect("one fetch per line start");
                    energy.cache_nf += em.l1_nf;
                    block_cap += em.l1_nf;
                    match a.level {
                        DataLevel::L1 => {}
                        DataLevel::L2 => {
                            energy.cache_nf += em.l2_nf;
                            block_cap += em.l2_nf;
                        }
                        DataLevel::Memory => {
                            energy.cache_nf += em.l2_nf;
                            energy.dram_uj += em.dram_uj_per_access;
                            dram_accesses += 1;
                            block_cap += em.l2_nf;
                        }
                    }
                }
                if inst.is_mem {
                    let a = data.next().expect("one data access per memory instruction");
                    energy.cache_nf += em.l1_nf;
                    block_cap += em.l1_nf;
                    match a.level {
                        DataLevel::L1 | DataLevel::L2 => {
                            if a.level == DataLevel::L2 {
                                energy.cache_nf += em.l2_nf;
                                block_cap += em.l2_nf;
                            }
                            cache_hit_cycles += f64::from(a.cycles);
                        }
                        DataLevel::Memory => {
                            energy.cache_nf += em.l2_nf;
                            energy.dram_uj += em.dram_uj_per_access;
                            dram_accesses += 1;
                            block_cap += em.l2_nf;
                        }
                    }
                }
                if inst.is_branch {
                    energy.bpred_nf += em.bpred_nf;
                    block_cap += em.bpred_nf;
                }
                committed += 1;
                // Per-instruction energy.
                energy.core_nf += inst.core_nf;
                energy.fu_nf += inst.fu_nf;
                block_cap += inst.core_nf + inst.fu_nf;
            }
            let bstat = &mut blocks[b];
            bstat.invocations += 1;
            bstat.cap_nf += block_cap;
        }
        Charge {
            energy,
            blocks,
            dram_accesses,
            committed,
            cache_hit_cycles,
        }
    }
}

/// The analytical model's Noverlap/Ndependent: the paper counts
/// *execution cycles of computation operations*, so each compute
/// instruction contributes its latency, classified by whether a memory
/// operation (hit or miss) was in flight in the cycle it issued.
///
/// Instructions issue out of program order, so a later memory operation
/// may still mark a cycle that already has compute issued in it. The log
/// therefore sums compute latency per cycle and classifies a cycle only
/// once no later mark can reach it, which keeps it as long as the distance
/// from fetch to the latest issue. The counts are integers, so grouping
/// them by cycle does not change the sums.
#[derive(Default)]
struct ComputeLog {
    /// The first cycle not yet classified.
    first: usize,
    /// Compute latency issued in each cycle from `first` on.
    latency_at: std::collections::VecDeque<u32>,
    overlap: u64,
    dependent: u64,
}

impl ComputeLog {
    /// Logs a compute instruction issued at `issue`, which is never before
    /// the cycles already classified.
    fn log(&mut self, issue: f64, latency: u32) {
        let ix = issue.max(0.0) as usize - self.first;
        if ix >= self.latency_at.len() {
            self.latency_at.resize(ix + 1, 0);
        }
        self.latency_at[ix] = self.latency_at[ix]
            .checked_add(latency)
            .expect("one cycle's compute latency fits u32");
    }

    /// Classifies every cycle before `open`, the earliest cycle a later
    /// mark of `mem_active` can reach.
    fn settle(&mut self, open: usize, mem_active: &BusyBitmap) {
        if open <= self.first {
            return;
        }
        let settled = (open - self.first).min(self.latency_at.len());
        for (c, lat) in (self.first..).zip(self.latency_at.drain(..settled)) {
            if lat == 0 {
                continue;
            }
            if mem_active.get(c) {
                self.overlap += u64::from(lat);
            } else {
                self.dependent += u64::from(lat);
            }
        }
        // Either every cycle before `open` was drained, or the ones past
        // the drained ones had nothing issued in them.
        self.first = open;
    }
}

/// Grow-on-demand bitmap of cycles in which at least one instruction
/// issued.
#[derive(Default)]
struct BusyBitmap {
    words: Vec<u64>,
}

impl BusyBitmap {
    fn mark(&mut self, cycle: f64) {
        let c = cycle.max(0.0) as usize;
        let w = c / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (c % 64);
    }

    /// Marks every cycle in `[start, end)`.
    fn mark_range(&mut self, start: f64, end: f64) {
        let s = start.max(0.0) as usize;
        let e = end.max(0.0) as usize;
        if e <= s {
            return;
        }
        let we = e / 64;
        if we >= self.words.len() {
            self.words.resize(we + 1, 0);
        }
        let (ws, wend) = (s / 64, (e - 1) / 64);
        if ws == wend {
            let mask = (!0u64 << (s % 64)) & (!0u64 >> (63 - (e - 1) % 64));
            self.words[ws] |= mask;
        } else {
            self.words[ws] |= !0u64 << (s % 64);
            for w in (ws + 1)..wend {
                self.words[w] = !0;
            }
            self.words[wend] |= !0u64 >> (63 - (e - 1) % 64);
        }
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn get(&self, c: usize) -> bool {
        self.words
            .get(c / 64)
            .is_some_and(|w| w & (1 << (c % 64)) != 0)
    }

    /// Marked cycles in `[s, e)`, one popcount per word.
    fn count_in(&self, s: usize, e: usize) -> usize {
        if e <= s {
            return 0;
        }
        let ones = |w: u64| w.count_ones() as usize;
        let word = |w: usize| self.words.get(w).copied().unwrap_or(0);
        let (ws, wend) = (s / 64, (e - 1) / 64);
        let head = !0u64 << (s % 64);
        let tail = !0u64 >> (63 - (e - 1) % 64);
        if ws == wend {
            return ones(word(ws) & head & tail);
        }
        let inner: usize = self.words[(ws + 1).min(self.words.len())..wend.min(self.words.len())]
            .iter()
            .map(|&w| ones(w))
            .sum();
        ones(word(ws) & head) + inner + ones(word(wend) & tail)
    }

    /// Over the (disjoint, sorted) miss-service intervals, counts the idle
    /// cycles (the stall), clipping each interval at `total_cycles`.
    fn idle_within(&self, intervals: &[(f64, f64)], total_cycles: f64) -> usize {
        intervals
            .iter()
            .map(|&(s, e)| {
                let s = s.max(0.0) as usize;
                let e = (e.min(total_cycles).max(0.0)) as usize;
                e.saturating_sub(s) - self.count_in(s, e)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;
    use dvs_ir::{CfgBuilder, Inst, MemWidth, Opcode, Reg};
    use dvs_vf::OperatingPoint;

    /// A looped compute program: entry -> body(32 insts) x iters -> exit.
    /// Looping amortizes cold-start I-cache misses, which would otherwise
    /// dominate short traces.
    fn compute_loop(iters: usize, chained: bool) -> (Cfg, Trace) {
        let mut b = CfgBuilder::new("line");
        let e = b.block("entry");
        let m = b.block("body");
        let x = b.block("exit");
        for i in 0..32 {
            if chained {
                b.push(m, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1)]));
            } else {
                let d = Reg((1 + i % 30) as u8);
                b.push(m, Inst::alu(Opcode::IntAlu, d, &[Reg(0)]));
            }
        }
        b.edge(e, m);
        b.edge(m, m);
        b.edge(m, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        for _ in 0..iters {
            tb.step(m, vec![]);
        }
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        (cfg, t)
    }

    fn fast() -> OperatingPoint {
        OperatingPoint::new(1.65, 800.0)
    }

    fn slow() -> OperatingPoint {
        OperatingPoint::new(0.7, 200.0)
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let (cfg, t) = compute_loop(200, false);
        let m = Machine::paper_default();
        let s = m.run(&cfg, &t, fast());
        assert_eq!(s.committed_insts, 200 * 32);
        // 4-wide machine, no dependences: IPC should approach 4.
        assert!(s.ipc() > 2.5, "ipc = {}", s.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        // r1 <- r1 chains: IPC ~ 1, far slower than the independent mix.
        let (cfg, t) = compute_loop(200, true);
        let s = Machine::paper_default().run(&cfg, &t, fast());
        assert!(s.ipc() < 1.2, "ipc = {}", s.ipc());
        let (cfg2, t2) = compute_loop(200, false);
        let s2 = Machine::paper_default().run(&cfg2, &t2, fast());
        assert!(
            s.total_cycles > 1.8 * s2.total_cycles,
            "chain {} vs parallel {}",
            s.total_cycles,
            s2.total_cycles
        );
    }

    #[test]
    fn compute_time_scales_inversely_with_frequency() {
        let (cfg, t) = compute_loop(500, false);
        let m = Machine::paper_default();
        let hi = m.run(&cfg, &t, fast());
        let lo = m.run(&cfg, &t, slow());
        // Pure compute: cycle counts agree up to cold-start I-misses (whose
        // in-cycle cost depends on frequency), and wall-clock time scales by
        // the 4x frequency ratio.
        let cyc_ratio = hi.total_cycles / lo.total_cycles;
        assert!((cyc_ratio - 1.0).abs() < 0.05, "cycle ratio = {cyc_ratio}");
        let ratio = lo.total_time_us / hi.total_time_us;
        assert!((ratio - 4.0).abs() < 0.2, "time ratio = {ratio}");
    }

    /// Program with loads streaming through a working set far larger than
    /// L2, so most loads go to memory.
    fn memory_bound(n_loads: usize, stride: u64) -> (Cfg, Trace) {
        let mut b = CfgBuilder::new("membound");
        let e = b.block("entry");
        let body = b.block("body");
        let x = b.block("exit");
        b.push(body, Inst::load(Reg(1), Reg(2), MemWidth::B4));
        b.edge(e, body);
        b.edge(body, body);
        b.edge(body, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        for i in 0..n_loads {
            tb.step(body, vec![0x100_0000 + i as u64 * stride]);
        }
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        (cfg, t)
    }

    #[test]
    fn memory_bound_time_does_not_scale_with_frequency() {
        // Strided misses: every load leaves the chip.
        let (cfg, t) = memory_bound(500, 4096);
        let m = Machine::paper_default();
        let hi = m.run(&cfg, &t, fast());
        let lo = m.run(&cfg, &t, slow());
        assert!(hi.dram_accesses > 400, "should miss: {}", hi.dram_accesses);
        // Memory-dominated: slowing the clock 4x should cost far less than
        // 4x in wall-clock time.
        let ratio = lo.total_time_us / hi.total_time_us;
        assert!(ratio < 2.0, "memory-bound dilation ratio = {ratio}");
        // And the invariant stall time is visible.
        assert!(hi.stall_cycles > 0.0);
    }

    #[test]
    fn cache_resident_loads_mostly_hit() {
        // 64 distinct hot addresses cycled many times: after warm-up, hits.
        let (cfg, t) = memory_bound(2000, 0); // same address every time
        let s = Machine::paper_default().run(&cfg, &t, fast());
        assert!(s.dram_accesses <= 4, "dram = {}", s.dram_accesses);
        assert!(s.l1d.miss_rate() < 0.01);
        assert!(s.cache_hit_cycles > 1500.0);
    }

    #[test]
    fn energy_scales_with_v_squared() {
        let (cfg, t) = compute_loop(100, false);
        let m = Machine::paper_default();
        let hi = m.run(&cfg, &t, fast());
        let lo = m.run(&cfg, &t, slow());
        let want = (0.7f64 * 0.7) / (1.65 * 1.65);
        let got = lo.processor_energy_uj() / hi.processor_energy_uj();
        assert!((got - want).abs() < 1e-9, "got {got} want {want}");
    }

    #[test]
    fn block_times_sum_to_total() {
        let (cfg, t) = memory_bound(300, 512);
        let s = Machine::paper_default().run(&cfg, &t, fast());
        let sum: f64 = s.blocks.iter().map(|b| b.time_us).sum();
        assert!(
            (sum - s.total_time_us).abs() < 1e-6 * s.total_time_us.max(1.0),
            "sum {sum} vs total {}",
            s.total_time_us
        );
        let total_inv: u64 = s.blocks.iter().map(|b| b.invocations).sum();
        assert_eq!(total_inv, t.len() as u64);
    }

    #[test]
    fn classification_cycles_are_consistent() {
        let (cfg, t) = memory_bound(400, 4096);
        let s = Machine::paper_default().run(&cfg, &t, fast());
        // Noverlap + Ndependent equals the total execution cycles of
        // computation (non-memory) instructions: each contributes its
        // latency exactly once, so the sum is bounded by committed
        // instructions times the largest latency class.
        let compute = s.overlap_cycles + s.dependent_cycles;
        // This trace is pure memory traffic (its loop body is a lone load),
        // so there are no computation cycles at all — and the sum is always
        // bounded by committed instructions times the worst latency class.
        assert!(
            compute <= s.committed_insts as f64 * 20.0,
            "compute latency sum {compute} looks wrong"
        );
        assert!(s.stall_cycles <= s.total_cycles + 1.0);
        // A memory-bound run must show stall or overlap.
        assert!(s.stall_cycles + s.overlap_cycles > 0.0);
    }

    #[test]
    fn branchy_code_pays_for_mispredictions() {
        // A loop whose exit branch alternates unpredictably... use a
        // pseudo-random taken pattern by alternating long/short runs.
        let mut b = CfgBuilder::new("branchy");
        let e = b.block("entry");
        let h = b.block("head");
        let t1 = b.block("t1");
        let t2 = b.block("t2");
        let x = b.block("exit");
        b.push(h, Inst::branch(Reg(1)));
        b.push(t1, Inst::alu(Opcode::IntAlu, Reg(2), &[Reg(0)]));
        b.push(t2, Inst::alu(Opcode::IntAlu, Reg(3), &[Reg(0)]));
        b.edge(e, h);
        b.edge(h, t1);
        b.edge(h, t2);
        b.edge(t1, h);
        b.edge(t2, h);
        b.edge(h, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        let mut rng = 0x9E3779B97F4A7C15u64;
        for _ in 0..300 {
            tb.step(h, vec![]);
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (rng >> 62) & 1 == 1 {
                tb.step(t1, vec![]);
            } else {
                tb.step(t2, vec![]);
            }
        }
        tb.step(h, vec![]);
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        let s = Machine::paper_default().run(&cfg, &t, fast());
        assert!(s.mispredicts > 20, "mispredicts = {}", s.mispredicts);
    }
}

#[cfg(test)]
mod oversized_block_tests {
    use super::*;
    use crate::TraceBuilder;
    use dvs_ir::{CfgBuilder, Inst, Opcode, Reg};

    #[test]
    fn blocks_longer_than_the_pc_stride_run_fine() {
        let mut b = CfgBuilder::new("big");
        let e = b.block("entry");
        let big = b.block("big");
        let x = b.block("exit");
        for i in 0..600 {
            b.push(
                big,
                Inst::alu(Opcode::IntAlu, Reg((1 + i % 30) as u8), &[Reg(0)]),
            );
        }
        b.edge(e, big);
        b.edge(big, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]).step(big, vec![]).step(x, vec![]);
        let t = tb.finish().unwrap();
        let s = Machine::paper_default().run(&cfg, &t, OperatingPoint::new(1.65, 800.0));
        assert_eq!(s.committed_insts, 600);
        // The wrapped tail hits the block's own warm lines: at most
        // BLOCK_STRIDE/32 = 32 I-lines are ever touched.
        assert!(s.l1i.misses <= 33, "I-misses = {}", s.l1i.misses);
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use crate::TraceBuilder;
    use dvs_ir::CfgBuilder;

    #[test]
    fn run_stats_display_is_informative() {
        let mut b = CfgBuilder::new("d");
        let e = b.block("entry");
        let x = b.block("exit");
        b.push(e, dvs_ir::Inst::nop());
        b.edge(e, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]).step(x, vec![]);
        let t = tb.finish().unwrap();
        let s = Machine::paper_default().run(&cfg, &t, OperatingPoint::new(1.3, 600.0));
        let text = s.to_string();
        assert!(text.contains("IPC"));
        assert!(text.contains("600 MHz"));
        assert!(text.contains("µJ"));
    }
}

#[cfg(test)]
mod gating_tests {
    use super::*;
    use crate::{ClockGating, EnergyModel, SimConfig, TraceBuilder};
    use dvs_ir::{CfgBuilder, Inst, MemWidth, Reg};

    #[test]
    fn ungated_clock_charges_stall_cycles() {
        // A miss-heavy pointer walk has long idle stretches.
        let mut b = CfgBuilder::new("g");
        let e = b.block("entry");
        let body = b.block("body");
        let x = b.block("exit");
        b.push(body, Inst::load(Reg(1), Reg(1), MemWidth::B4));
        b.edge(e, body);
        b.edge(body, body);
        b.edge(body, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        for i in 0..300u64 {
            tb.step(body, vec![0x40_0000 + i * 4096]);
        }
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();

        let perfect = Machine::paper_default().run(&cfg, &t, OperatingPoint::new(1.65, 800.0));
        let ungated_model = EnergyModel {
            gating: ClockGating::Ungated,
            ..EnergyModel::default()
        };
        let ungated = Machine::new(SimConfig::default(), ungated_model).run(
            &cfg,
            &t,
            OperatingPoint::new(1.65, 800.0),
        );

        // Same timing, strictly more energy without gating.
        assert!((perfect.total_cycles - ungated.total_cycles).abs() < 1e-9);
        assert!(
            ungated.processor_energy_uj() > perfect.processor_energy_uj() * 1.2,
            "ungated {} vs perfect {}",
            ungated.processor_energy_uj(),
            perfect.processor_energy_uj()
        );
    }
}
