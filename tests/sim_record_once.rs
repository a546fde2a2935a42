//! Differential test of the record-once simulator against the per-point
//! reference it replaced.
//!
//! `Machine::run_points` walks the caches, TLBs and branch predictor once
//! per call and times every operating point over that record;
//! `Machine::run` is `run_points` at one point. [`oracle_run`] below is the
//! earlier `Machine::run` body, kept verbatim as the reference: one full
//! walk and one floating-point timing pass per point. Every `RunStats`
//! field must match it bit for bit, on the six workloads at every input
//! and ladder and on random programs under two machine configurations
//! that exercise the rarer paths (prefetch, ungated clock, a wide TLB
//! penalty, windows and pools narrow enough that every ring wraps), and on
//! a machine wide enough that one cycle's compute latency overflows the
//! byte a timing pass keeps per cycle.

use compile_time_dvs::check::{gen_cfg, gen_ladder, gen_long_trace, gen_trace, Gen};
use compile_time_dvs::compiler::DeadlineScheme;
use compile_time_dvs::ir::{
    BlockId, BlockModeCost, Cfg, CfgBuilder, Inst, MemWidth, Opcode, Profile, ProfileBuilder, Reg,
};
use compile_time_dvs::runtime::Pool;
use compile_time_dvs::sim::{
    BlockStats, BranchPredictor, ClockGating, DataLevel, EnergyBreakdown, EnergyModel, Machine,
    MemoryHierarchy, ModeProfiler, RunStats, SimConfig, Trace, TraceBuilder, FAN_OUT_MIN_INSTS,
    SEGMENT_BLOCKS,
};
use compile_time_dvs::vf::{AlphaPower, OperatingPoint, VoltageLadder};
use compile_time_dvs::workloads::Benchmark;
use std::collections::HashMap;

/// Pipeline front-end depth in cycles (fetch → decode → rename).
const FRONTEND_DEPTH: f64 = 3.0;
/// Bytes per instruction in the synthetic instruction encoding.
const INST_BYTES: u64 = 4;
/// Code bytes reserved per basic block.
const BLOCK_STRIDE: u64 = 1024;

/// The reference: executes `trace` over `cfg` at `point` with its own walk
/// of a cold hierarchy and predictor.
fn oracle_run(machine: &Machine, cfg: &Cfg, trace: &Trace, point: OperatingPoint) -> RunStats {
    let cfgm = machine.config();
    let em = machine.energy_model();
    let f = point.frequency_mhz;
    let mem_lat_cycles = cfgm.mem_latency_us * f;

    let mut hier = MemoryHierarchy::new(cfgm);
    let mut pred = BranchPredictor::new(cfgm.predictor);

    let mut reg_ready = [0.0f64; 64];
    let fu_pools: [usize; 7] = [
        cfgm.int_alus, // IntAlu/Branch/agen
        cfgm.int_mult, // IntMul
        cfgm.int_mult, // IntDiv shares the mult/div unit
        cfgm.fp_adders,
        cfgm.fp_mult,
        cfgm.fp_div,
        1, // Nop pseudo-pool
    ];
    let mut fu_free: Vec<Vec<f64>> = fu_pools.iter().map(|&n| vec![0.0; n.max(1)]).collect();
    let mut window_ring = vec![0.0f64; cfgm.ruu_size];
    let mut lsq_ring = vec![0.0f64; cfgm.lsq_size];
    let mut commit_ring = vec![0.0f64; cfgm.commit_width];

    let mut fetch_cycle = 0.0f64;
    let mut fetch_slots = 0usize;
    let mut mem_free = 0.0f64;
    let mut prev_commit = 0.0f64;
    let mut inst_index = 0usize;
    let mut mem_index = 0usize;

    let mut busy = BusyBitmap::new();
    let mut mem_active = BusyBitmap::new();
    let mut miss_intervals: Vec<(f64, f64)> = Vec::new();
    let mut cache_hit_cycles = 0.0f64;
    // (issue cycle, latency) of every computation (non-memory)
    // instruction, classified against memory activity after the run —
    // deferring the lookup makes the classification independent of
    // program order vs issue order.
    let mut compute_events: Vec<(f64, f64)> = Vec::new();

    let mut blocks = vec![BlockStats::default(); cfg.num_blocks()];
    let mut energy = EnergyBreakdown::default();
    let mut dram_accesses = 0u64;
    let mut committed = 0u64;
    let mut pending_redirect = 0.0f64;
    let mut block_mark = 0.0f64;

    for dyn_block in trace.blocks() {
        let bb = cfg.block(dyn_block.block);
        let base_pc = dyn_block.block.index() as u64 * BLOCK_STRIDE;
        fetch_cycle = fetch_cycle.max(pending_redirect);
        if pending_redirect > 0.0 {
            fetch_slots = 0;
            pending_redirect = 0.0;
        }

        // Instruction-side cache behaviour: one access per 32B line the
        // block touches.
        let line_bytes = cfgm.l1i.block_bytes;
        let mut next_line_pc = base_pc;
        let mut block_cap = 0.0f64;
        let mut addr_ix = 0usize;

        for (ii, inst) in bb.insts.iter().enumerate() {
            let pc = base_pc + (ii as u64 * INST_BYTES) % BLOCK_STRIDE;
            if pc >= next_line_pc {
                let (lvl, cyc) = hier.inst_access(pc);
                energy.cache_nf += em.l1_nf;
                block_cap += em.l1_nf;
                match lvl {
                    DataLevel::L1 => {}
                    DataLevel::L2 => {
                        energy.cache_nf += em.l2_nf;
                        block_cap += em.l2_nf;
                        fetch_cycle += f64::from(cyc - cfgm.l1_latency);
                    }
                    DataLevel::Memory => {
                        energy.cache_nf += em.l2_nf;
                        energy.dram_uj += em.dram_uj_per_access;
                        dram_accesses += 1;
                        block_cap += em.l2_nf;
                        let ready = fetch_cycle + f64::from(cyc);
                        let start = ready.max(mem_free);
                        let end = start + mem_lat_cycles;
                        mem_free = end;
                        miss_intervals.push((start, end));
                        mem_active.mark_range(ready, end);
                        fetch_cycle = end;
                    }
                }
                next_line_pc = (pc / line_bytes + 1) * line_bytes;
            }

            // Fetch bandwidth.
            if fetch_slots >= cfgm.fetch_width {
                fetch_cycle += 1.0;
                fetch_slots = 0;
            }
            let fetch_time = fetch_cycle;
            fetch_slots += 1;

            let dispatch_ready = fetch_time + FRONTEND_DEPTH;
            let window_gate = window_ring[inst_index % cfgm.ruu_size];

            // Source readiness.
            let mut src_ready = 0.0f64;
            for s in &inst.srcs {
                if !s.is_zero() {
                    src_ready = src_ready.max(reg_ready[s.0 as usize % 64]);
                }
            }

            // Functional unit.
            let pool_ix = match inst.opcode {
                Opcode::IntAlu | Opcode::Branch | Opcode::Load | Opcode::Store => 0,
                Opcode::IntMul => 1,
                Opcode::IntDiv => 2,
                Opcode::FpAdd => 3,
                Opcode::FpMul => 4,
                Opcode::FpDiv => 5,
                Opcode::Nop => 6,
            };
            let pool = &mut fu_free[pool_ix];
            let (unit_ix, unit_free) = pool
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("times are finite"))
                .expect("pool non-empty");

            let mut issue = dispatch_ready
                .max(window_gate)
                .max(src_ready)
                .max(unit_free);
            let is_mem = inst.opcode.is_mem();
            if is_mem {
                issue = issue.max(lsq_ring[mem_index % cfgm.lsq_size]);
            }

            // Unit occupancy: divides are unpipelined.
            let occupancy = match inst.opcode {
                Opcode::IntDiv | Opcode::FpDiv => f64::from(inst.opcode.base_latency()),
                _ => 1.0,
            };
            pool[unit_ix] = issue + occupancy;

            // Completion.
            let mut complete = issue + f64::from(inst.opcode.base_latency());
            if is_mem {
                let addr = dyn_block.addrs[addr_ix];
                addr_ix += 1;
                let (lvl, cyc) = hier.data_access(addr);
                energy.cache_nf += em.l1_nf;
                block_cap += em.l1_nf;
                match lvl {
                    DataLevel::L1 | DataLevel::L2 => {
                        if lvl == DataLevel::L2 {
                            energy.cache_nf += em.l2_nf;
                            block_cap += em.l2_nf;
                        }
                        cache_hit_cycles += f64::from(cyc);
                        mem_active.mark_range(issue, issue + 1.0 + f64::from(cyc));
                        if inst.opcode == Opcode::Load {
                            complete = issue + 1.0 + f64::from(cyc);
                        }
                    }
                    DataLevel::Memory => {
                        energy.cache_nf += em.l2_nf;
                        energy.dram_uj += em.dram_uj_per_access;
                        dram_accesses += 1;
                        block_cap += em.l2_nf;
                        let ready = issue + 1.0 + f64::from(cyc);
                        let start = ready.max(mem_free);
                        let end = start + mem_lat_cycles;
                        mem_free = end;
                        miss_intervals.push((start, end));
                        mem_active.mark_range(issue, end);
                        if inst.opcode == Opcode::Load {
                            complete = end;
                        }
                        // Store misses retire without waiting for DRAM.
                    }
                }
            }

            // Branch prediction.
            if inst.opcode.is_branch() {
                energy.bpred_nf += em.bpred_nf;
                block_cap += em.bpred_nf;
                let target_pc = base_pc + BLOCK_STRIDE; // proxy target id
                let correct = pred.predict_and_update(
                    pc,
                    dyn_block.taken,
                    if dyn_block.taken { target_pc } else { 0 },
                );
                if !correct {
                    pending_redirect =
                        pending_redirect.max(complete + f64::from(cfgm.mispredict_penalty));
                }
            }

            // In-order commit.
            let commit = (complete + 1.0)
                .max(prev_commit)
                .max(commit_ring[inst_index % cfgm.commit_width] + 1.0);
            prev_commit = commit;
            commit_ring[inst_index % cfgm.commit_width] = commit;
            window_ring[inst_index % cfgm.ruu_size] = commit;
            if is_mem {
                lsq_ring[mem_index % cfgm.lsq_size] = commit;
                mem_index += 1;
            }
            if inst.writes_reg() {
                reg_ready[inst.dest.0 as usize % 64] = complete;
            }

            busy.mark(issue);
            if !is_mem && inst.opcode != Opcode::Nop {
                compute_events.push((issue, f64::from(inst.opcode.base_latency())));
            }
            committed += 1;
            inst_index += 1;

            // Per-instruction energy.
            let reads = inst.srcs.iter().filter(|s| !s.is_zero()).count() as f64;
            let writes = if inst.writes_reg() { 1.0 } else { 0.0 };
            let cap = em.frontend_nf
                + em.window_nf
                + em.clock_nf
                + em.regfile_nf * (reads + writes)
                + em.fu_nf(inst.opcode);
            energy.core_nf +=
                em.frontend_nf + em.window_nf + em.clock_nf + em.regfile_nf * (reads + writes);
            energy.fu_nf += em.fu_nf(inst.opcode);
            block_cap += cap;
        }

        // Attribute elapsed time and energy to this block invocation.
        let bstat = &mut blocks[dyn_block.block.index()];
        bstat.invocations += 1;
        bstat.time_us += (prev_commit - block_mark).max(0.0) / f;
        bstat.cap_nf += block_cap;
        block_mark = prev_commit;
    }

    let total_cycles = prev_commit;
    // Stall time: idle cycles during off-chip miss service (this is the
    // absolute-time component, tinvariant).
    let (_, stall) = busy.classify(&miss_intervals, total_cycles);
    // The paper's Noverlap/Ndependent count *execution cycles of
    // computation operations*: each compute instruction contributes its
    // latency, classified by whether a memory operation (hit or miss)
    // was in flight when it issued.
    let mut overlap = 0.0;
    let mut dependent = 0.0;
    for &(issue, lat) in &compute_events {
        if mem_active.get(issue.max(0.0) as usize) {
            overlap += lat;
        } else {
            dependent += lat;
        }
    }
    // Without perfect clock gating, every idle cycle still drives the
    // clock tree. Charged globally (not attributed to blocks): it is a
    // property of the gaps *between* work.
    if em.gating == ClockGating::Ungated {
        let idle = (total_cycles - busy.count() as f64).max(0.0);
        energy.core_nf += idle * em.clock_nf;
    }

    RunStats {
        point,
        total_time_us: total_cycles / f,
        total_cycles,
        committed_insts: committed,
        energy,
        blocks,
        overlap_cycles: overlap,
        dependent_cycles: dependent,
        stall_cycles: stall,
        cache_hit_cycles,
        l1d: hier.l1d_stats(),
        l1i: hier.l1i_stats(),
        l2: hier.l2_stats(),
        mispredicts: pred.stats().mispredicts,
        dram_accesses,
    }
}

/// Grow-on-demand bitmap of cycles in which at least one instruction
/// issued.
struct BusyBitmap {
    words: Vec<u64>,
}

impl BusyBitmap {
    fn new() -> Self {
        BusyBitmap { words: Vec::new() }
    }

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

    /// Over the (disjoint, sorted) miss-service intervals, counts busy
    /// cycles (overlap) and idle cycles (stall).
    fn classify(&self, intervals: &[(f64, f64)], total_cycles: f64) -> (f64, f64) {
        let mut overlap = 0.0;
        let mut stall = 0.0;
        for &(s, e) in intervals {
            let s = s.max(0.0) as usize;
            let e = (e.min(total_cycles).max(0.0)) as usize;
            for c in s..e {
                if self.get(c) {
                    overlap += 1.0;
                } else {
                    stall += 1.0;
                }
            }
        }
        (overlap, stall)
    }
}

/// Every field of a run as (name, bit pattern, printable value): f64s by
/// their bits, so `0.1 + 0.2` and `0.3` count as different.
fn fields(r: &RunStats) -> Vec<(String, u64, String)> {
    let f = |name: &str, x: f64| (name.to_string(), x.to_bits(), format!("{x:e}"));
    let n = |name: &str, x: u64| (name.to_string(), x, x.to_string());
    let mut out = vec![
        f("point.voltage", r.point.voltage),
        f("point.frequency_mhz", r.point.frequency_mhz),
        f("total_time_us", r.total_time_us),
        f("total_cycles", r.total_cycles),
        n("committed_insts", r.committed_insts),
        f("energy.core_nf", r.energy.core_nf),
        f("energy.fu_nf", r.energy.fu_nf),
        f("energy.cache_nf", r.energy.cache_nf),
        f("energy.bpred_nf", r.energy.bpred_nf),
        f("energy.dram_uj", r.energy.dram_uj),
        n("blocks.len", r.blocks.len() as u64),
        f("overlap_cycles", r.overlap_cycles),
        f("dependent_cycles", r.dependent_cycles),
        f("stall_cycles", r.stall_cycles),
        f("cache_hit_cycles", r.cache_hit_cycles),
        n("l1d.accesses", r.l1d.accesses),
        n("l1d.misses", r.l1d.misses),
        n("l1i.accesses", r.l1i.accesses),
        n("l1i.misses", r.l1i.misses),
        n("l2.accesses", r.l2.accesses),
        n("l2.misses", r.l2.misses),
        n("mispredicts", r.mispredicts),
        n("dram_accesses", r.dram_accesses),
    ];
    for (i, b) in r.blocks.iter().enumerate() {
        out.push(n(&format!("blocks[{i}].invocations"), b.invocations));
        out.push(f(&format!("blocks[{i}].time_us"), b.time_us));
        out.push(f(&format!("blocks[{i}].cap_nf"), b.cap_nf));
    }
    out
}

fn assert_bit_identical(oracle: &RunStats, got: &RunStats, ctx: &str) {
    let (want, have) = (fields(oracle), fields(got));
    assert_eq!(want.len(), have.len(), "{ctx}: different block counts");
    for ((name, w, wv), (_, h, hv)) in want.iter().zip(&have) {
        assert_eq!(w, h, "{ctx}: {name} is {hv}, the oracle says {wv}");
    }
}

/// The profile `ModeProfiler::profile` must build from the oracle's runs.
fn oracle_profile(cfg: &Cfg, trace: &Trace, ladder: &VoltageLadder, runs: &[RunStats]) -> Profile {
    let mut pb = ProfileBuilder::new(cfg, ladder.len());
    assert!(pb.record_walk(cfg, &trace.walk()));
    for ((mode, point), run) in ladder.iter().zip(runs) {
        for (bix, bs) in run.blocks.iter().enumerate() {
            if bs.invocations > 0 {
                let inv = bs.invocations as f64;
                pb.set_block_cost(
                    BlockId(bix),
                    mode.index(),
                    BlockModeCost {
                        time_us: bs.time_us / inv,
                        energy_uj: EnergyModel::cap_to_uj(bs.cap_nf, point.voltage) / inv,
                    },
                );
            }
        }
    }
    pb.finish()
}

/// The 3-level ladder (whose points are `DeadlineScheme::measure`'s three
/// reference points) and the interpolated 7- and 13-level ladders.
fn ladders() -> Vec<VoltageLadder> {
    let law = AlphaPower::paper();
    vec![
        VoltageLadder::xscale3(&law),
        VoltageLadder::interpolated(&law, 7).unwrap(),
        VoltageLadder::interpolated(&law, 13).unwrap(),
    ]
}

/// Checks one (program, trace) against the oracle on every ladder: the
/// profiler's runs and profile, a lone `run` per point, and the deadline
/// scheme, both measured and read from the profile's runs. Returns how
/// many ladder points were checked.
fn check_program(machine: &Machine, cfg: &Cfg, trace: &Trace, ctx: &str) -> usize {
    let profiler = ModeProfiler::new(machine.clone());
    // Ladders share points (the 7-level points are among the 13-level
    // ones), so each distinct point is simulated by the oracle and by a
    // lone `run` once.
    let mut oracle_at: HashMap<(u64, u64), RunStats> = HashMap::new();
    let mut checked = 0;
    for ladder in ladders() {
        let oracle: Vec<RunStats> = ladder
            .iter()
            .map(|(mode, point)| {
                let key = (point.voltage.to_bits(), point.frequency_mhz.to_bits());
                oracle_at
                    .entry(key)
                    .or_insert_with(|| {
                        let want = oracle_run(machine, cfg, trace, point);
                        let got = machine.run(cfg, trace, point);
                        assert_bit_identical(&want, &got, &format!("{ctx}, run at {mode} {point}"));
                        want
                    })
                    .clone()
            })
            .collect();
        let (profile, runs) = profiler.profile(cfg, trace, &ladder);
        assert_eq!(runs.len(), oracle.len());
        for ((mode, point), (want, got)) in ladder.iter().zip(oracle.iter().zip(&runs)) {
            let ctx = format!("{ctx}, {}-level profile {mode} at {point}", ladder.len());
            assert_bit_identical(want, got, &ctx);
            checked += 1;
        }
        assert_eq!(
            profile,
            oracle_profile(cfg, trace, &ladder, &oracle),
            "{ctx}: {}-level profile",
            ladder.len()
        );
        let from_runs = DeadlineScheme::from_runs(&runs);
        if ladder.len() == 3 {
            let want = DeadlineScheme::from_times(
                oracle[0].total_time_us,
                oracle[1].total_time_us,
                oracle[2].total_time_us,
            );
            let measured = DeadlineScheme::measure(machine, cfg, trace);
            let from_runs = from_runs.expect("the 3-level ladder holds the reference points");
            for got in [measured, from_runs] {
                for (w, g) in [
                    (want.t_slow_us, got.t_slow_us),
                    (want.t_mid_us, got.t_mid_us),
                    (want.t_fast_us, got.t_fast_us),
                ] {
                    assert_eq!(w.to_bits(), g.to_bits(), "{ctx}: deadline scheme");
                }
            }
        } else {
            assert_eq!(
                from_runs,
                None,
                "{ctx}: the {}-level ladder lacks a reference point",
                ladder.len()
            );
        }
    }
    checked
}

#[test]
fn every_workload_input_and_ladder_matches_the_oracle_bit_for_bit() {
    let machine = Machine::paper_default();
    let programs: Vec<(Benchmark, usize)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| (0..b.inputs().len()).map(move |i| (b, i)))
        .collect();
    let checked = Pool::new(2).map(programs, |_, (b, i)| {
        let cfg = b.build_cfg();
        let input = &b.inputs()[i];
        let trace = b.trace(&cfg, input);
        check_program(&machine, &cfg, &trace, &format!("{} input {i}", b.name()))
    });
    // 3 + 7 + 13 points for each of the 19 (benchmark, input) pairs.
    assert_eq!(checked.iter().sum::<usize>(), 19 * 23);
}

#[test]
fn random_programs_on_stress_machines_match_the_oracle_bit_for_bit() {
    // Tiny caches so fetches and data accesses reach L2 and DRAM, the
    // prefetcher on, idle cycles charged to the clock tree, and a TLB
    // penalty no 8-bit field could hold.
    let stress = SimConfig {
        next_line_prefetch: true,
        tlb_miss_penalty: 1000,
        ..SimConfig::tiny_for_tests()
    };
    // The same with windows, queues and pools so narrow that every ring
    // wraps and every gate binds within a few instructions.
    let narrow = SimConfig {
        ruu_size: 5,
        lsq_size: 2,
        commit_width: 3,
        fetch_width: 3,
        int_alus: 2,
        ..stress.clone()
    };
    let energy = EnergyModel {
        gating: ClockGating::Ungated,
        ..EnergyModel::default()
    };
    let machines = [stress, narrow].map(|c| Machine::new(c, energy));
    let mut saw = [false; 3];
    for seed in 0..200u64 {
        let mut g = Gen::from_seed(seed ^ 0x5eed_0f0d_d5ee);
        let cfg = gen_cfg(&mut g, 8);
        let trace = gen_trace(&mut g, &cfg);
        let ladder = gen_ladder(&mut g);
        let points: Vec<OperatingPoint> = ladder.iter().map(|(_, p)| p).collect();
        for (m, machine) in machines.iter().enumerate() {
            let runs = machine.run_points(&cfg, &trace, &points);
            for (point, got) in points.iter().zip(&runs) {
                let want = oracle_run(machine, &cfg, &trace, *point);
                let ctx = format!("seed {seed}, machine {m} at {point}");
                assert_bit_identical(&want, got, &ctx);
                assert_bit_identical(&want, &machine.run(&cfg, &trace, *point), &ctx);
                saw[0] |= want.l2.misses > 0;
                saw[1] |= want.stall_cycles > 0.0;
                saw[2] |= want.mispredicts > 0;
            }
        }
    }
    assert_eq!(
        saw, [true; 3],
        "the sweep must reach DRAM, stall and mispredict"
    );
}

#[test]
fn a_cycle_with_more_compute_latency_than_a_byte_matches_the_oracle() {
    // 32 FP dividers, and a loop body in which one integer divide feeds 32
    // FP divides: once the I-cache is warm, all 32 issue in the cycle the
    // divide completes, 32 x 12 = 384 cycles of compute latency in one
    // cycle, more than a timing pass keeps in its byte per cycle.
    let wide = SimConfig {
        fp_div: 32,
        ..SimConfig::default()
    };
    assert_eq!(Opcode::FpDiv.base_latency(), 12);
    let machine = Machine::new(wide, EnergyModel::default());
    let mut b = CfgBuilder::new("divide-fan-out");
    let entry = b.block("entry");
    let body = b.block("body");
    let exit = b.block("exit");
    b.push(body, Inst::alu(Opcode::IntDiv, Reg(1), &[Reg(2)]));
    for i in 0..32 {
        b.push(body, Inst::alu(Opcode::FpDiv, Reg(3 + i), &[Reg(1)]));
    }
    b.edge(entry, body);
    b.edge(body, body);
    b.edge(body, exit);
    let cfg = b.finish(entry, exit).expect("valid cfg");
    let mut tb = TraceBuilder::new(&cfg);
    tb.step(entry, vec![]);
    for _ in 0..50 {
        tb.step(body, vec![]);
    }
    tb.step(exit, vec![]);
    let trace = tb.finish().expect("valid trace");
    let law = AlphaPower::paper();
    let points: Vec<OperatingPoint> = VoltageLadder::interpolated(&law, 13)
        .unwrap()
        .iter()
        .map(|(_, p)| p)
        .collect();
    for (point, got) in points.iter().zip(machine.run_points(&cfg, &trace, &points)) {
        let want = oracle_run(&machine, &cfg, &trace, *point);
        assert_eq!(
            want.overlap_cycles + want.dependent_cycles,
            50.0 * (20.0 + 32.0 * 12.0),
            "every divide's latency is counted once"
        );
        assert_bit_identical(&want, &got, &format!("divide fan-out at {point}"));
    }
}

/// A program over `entry -> a -> b -> exit`, with `a` on a self-loop and
/// `b -> a`, whose trace holds exactly `blocks` dynamic blocks: `a` and `b`
/// alternate, `a` twice at the start when the count is odd. Light blocks
/// hold one instruction each (a load in `a`, a branch in `b`), so that up
/// to `2 * SEGMENT_BLOCKS + 1` blocks stay under `FAN_OUT_MIN_INSTS` and
/// the caller walks first; heavy ones hold four and two, so that on two or
/// more CPUs the walk streams, except under a one-pass call over a
/// one-segment trace, which walks first. Every segment carries fetches,
/// data accesses and branches.
fn segmented(blocks: usize, heavy: bool) -> (Cfg, Trace) {
    let mut bld = CfgBuilder::new("segmented");
    let entry = bld.block("entry");
    let a = bld.block("a");
    let b = bld.block("b");
    let exit = bld.block("exit");
    bld.push(a, Inst::load(Reg(1), Reg(2), MemWidth::B4));
    if heavy {
        bld.push(a, Inst::alu(Opcode::IntMul, Reg(3), &[Reg(1)]));
        bld.push(a, Inst::store(Reg(3), Reg(2), MemWidth::B4));
        bld.push(a, Inst::alu(Opcode::IntAlu, Reg(4), &[Reg(3)]));
        bld.push(b, Inst::alu(Opcode::IntAlu, Reg(5), &[Reg(4)]));
    }
    bld.push(b, Inst::branch(Reg(1)));
    bld.edge(entry, a);
    bld.edge(a, a);
    bld.edge(a, b);
    bld.edge(b, a);
    bld.edge(b, exit);
    let cfg = bld.finish(entry, exit).expect("valid cfg");
    // Word addresses scattered over 256 KiB, so that accesses hit and
    // miss in both cache levels.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut step = |tb: &mut TraceBuilder, blk: BlockId| {
        let addrs = (0..cfg.block(blk).mem_inst_count())
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                0x10_0000 + (((state >> 33) % 0x4_0000) & !3)
            })
            .collect();
        tb.step(blk, addrs);
    };
    let mut tb = TraceBuilder::new(&cfg);
    step(&mut tb, entry);
    let body = blocks - 2;
    if body % 2 == 1 {
        step(&mut tb, a);
    }
    for _ in 0..body / 2 {
        step(&mut tb, a);
        step(&mut tb, b);
    }
    step(&mut tb, exit);
    let trace = tb.finish().expect("valid trace");
    assert_eq!(trace.len(), blocks);
    (cfg, trace)
}

#[test]
fn segment_boundaries_match_the_oracle_streamed_and_walked_first() {
    let machine = Machine::paper_default();
    let seg = SEGMENT_BLOCKS;
    let mut checked = 0;
    for blocks in [seg - 1, seg, seg + 1, 2 * seg + 1] {
        for heavy in [false, true] {
            let (cfg, trace) = segmented(blocks, heavy);
            let insts = trace.dynamic_inst_count(&cfg);
            assert_eq!(
                insts >= FAN_OUT_MIN_INSTS,
                heavy,
                "{blocks} blocks: only the heavy trace reaches the fan-out bound"
            );
            // A one-pass call over one segment (`run`, and the 3-point
            // `time_points` of `DeadlineScheme::measure`) walks first too.
            let how = match (heavy, blocks > seg) {
                (false, _) => "walked first",
                (true, false) => "one segment, streamed under several passes",
                (true, true) => "streamed",
            };
            checked += check_program(&machine, &cfg, &trace, &format!("{blocks} blocks, {how}"));
        }
    }
    assert_eq!(checked, 4 * 2 * 23);
}

#[test]
fn lengthened_random_programs_on_stress_machines_match_the_oracle() {
    // The stress machines of the random-program test above.
    let stress = SimConfig {
        next_line_prefetch: true,
        tlb_miss_penalty: 1000,
        ..SimConfig::tiny_for_tests()
    };
    let narrow = SimConfig {
        ruu_size: 5,
        lsq_size: 2,
        commit_width: 3,
        fetch_width: 3,
        int_alus: 2,
        ..stress.clone()
    };
    let energy = EnergyModel {
        gating: ClockGating::Ungated,
        ..EnergyModel::default()
    };
    let machines = [stress, narrow].map(|c| Machine::new(c, energy));
    let mut long = 0;
    for seed in 0..40u64 {
        let mut g = Gen::from_seed(seed ^ 0x10_6e57_ea4d);
        let cfg = gen_cfg(&mut g, 8);
        let Some(trace) = gen_long_trace(&mut g, &cfg) else {
            continue;
        };
        long += 1;
        let ladder = gen_ladder(&mut g);
        let points: Vec<OperatingPoint> = ladder.iter().map(|(_, p)| p).collect();
        for (m, machine) in machines.iter().enumerate() {
            let runs = machine.run_points(&cfg, &trace, &points);
            for (point, got) in points.iter().zip(&runs) {
                let want = oracle_run(machine, &cfg, &trace, *point);
                let ctx = format!("lengthened seed {seed}, machine {m} at {point}");
                assert_bit_identical(&want, got, &ctx);
                assert_bit_identical(&want, &machine.run(&cfg, &trace, *point), &ctx);
            }
        }
    }
    assert!(long >= 10, "only {long} of 40 random programs loop");
}
