//! Differential test of the lockstep lanes of an unclassified call.
//!
//! `Machine::time_points` times its operating points in groups of at most
//! `LANES`, each group in one pass that steps every point's pipeline per
//! recorded instruction. `Machine::run_points` times each point in a
//! classified pass of one lane, and `tests/sim_record_once.rs` pins it to
//! the per-point body it replaced. On every field a `TimedRun` keeps, each
//! lane must equal the `run_points` run at its point bit for bit:
//!
//! * at every width from 1 to `LANES`, and in calls that leave a partial
//!   group (9, 13 and 16 points), over 16 points of the 16-level paper
//!   ladder interleaved so that each group mixes fast and slow ones;
//! * on the bundled workload inputs (one per benchmark in a debug build,
//!   all 19 in release), which stream on two or more CPUs and are walked
//!   first under `taskset -c 0`;
//! * on dvs-check random programs, walked first, and on lengthened ones,
//!   streamed on two or more CPUs, under gated and ungated copies of the
//!   two stress machines of `tests/sim_record_once.rs`, whose tiny RUU and
//!   LSQ and 2-ALU pools make lanes pick different units.
//!
//! `run_points` drives the same step with one lane, so a fault that moves
//! every width alike would leave the two equal. The random programs' times
//! are therefore also held to [`scalar_times`], an independent one-point
//! body of the timing recurrence.

use compile_time_dvs::check::{gen_cfg, gen_long_trace, gen_trace, Gen};
use compile_time_dvs::ir::{Cfg, Opcode};
use compile_time_dvs::runtime::Pool;
use compile_time_dvs::sim::{
    BlockStats, BranchPredictor, ClockGating, DataLevel, EnergyBreakdown, EnergyModel, Machine,
    MemoryHierarchy, RunStats, SimConfig, TimedRun, Trace, FAN_OUT_MIN_INSTS, LANES,
};
use compile_time_dvs::vf::{OperatingPoint, VoltageLadder};
use compile_time_dvs::workloads::Benchmark;

/// Pipeline front-end depth in cycles (fetch → decode → rename).
const FRONTEND_DEPTH: f64 = 3.0;
/// Bytes per instruction in the synthetic instruction encoding.
const INST_BYTES: u64 = 4;
/// Code bytes reserved per basic block.
const BLOCK_STRIDE: u64 = 1024;

/// The call sizes checked: every group width, and calls that leave a
/// partial group.
fn widths() -> Vec<usize> {
    (1..=LANES).chain([9, 13, 16]).collect()
}

/// The 16 points of the 16-level paper ladder in the order 0, 5, 10, 15,
/// 4, 9, …: each call times a prefix, so each group mixes fast and slow.
fn points() -> Vec<OperatingPoint> {
    let ladder = VoltageLadder::paper(16).expect("a 16-level ladder");
    let all: Vec<OperatingPoint> = ladder.iter().map(|(_, p)| p).collect();
    (0..16).map(|i| all[i * 5 % 16]).collect()
}

/// Every field `got` keeps, against the reference's field of the same
/// name, bit for bit.
fn assert_kept_fields_equal(want: &RunStats, got: &TimedRun, ctx: &str) {
    // Destructured whole, so that a field added to `TimedRun` fails to
    // compile here until it is compared.
    let TimedRun {
        point,
        total_time_us,
        total_cycles,
        committed_insts,
        energy,
        blocks,
        cache_hit_cycles,
        l1d,
        l1i,
        l2,
        mispredicts,
        dram_accesses,
    } = got;
    let bits = |x: f64| x.to_bits();
    let energy_bits =
        |e: &EnergyBreakdown| [e.core_nf, e.fu_nf, e.cache_nf, e.bpred_nf, e.dram_uj].map(bits);
    let block_bits = |b: &[BlockStats]| -> Vec<(u64, u64, u64)> {
        b.iter()
            .map(|s| (s.invocations, bits(s.time_us), bits(s.cap_nf)))
            .collect()
    };
    assert_eq!(
        (bits(want.point.voltage), bits(want.point.frequency_mhz)),
        (bits(point.voltage), bits(point.frequency_mhz)),
        "{ctx}: point"
    );
    assert_eq!(
        bits(want.total_time_us),
        bits(*total_time_us),
        "{ctx}: total_time_us"
    );
    assert_eq!(
        bits(want.total_cycles),
        bits(*total_cycles),
        "{ctx}: total_cycles"
    );
    assert_eq!(
        want.committed_insts, *committed_insts,
        "{ctx}: committed_insts"
    );
    assert_eq!(
        energy_bits(&want.energy),
        energy_bits(energy),
        "{ctx}: energy"
    );
    assert_eq!(
        block_bits(&want.blocks),
        block_bits(blocks),
        "{ctx}: blocks"
    );
    assert_eq!(
        bits(want.cache_hit_cycles),
        bits(*cache_hit_cycles),
        "{ctx}: cache_hit_cycles"
    );
    assert_eq!(
        (want.l1d, want.l1i, want.l2),
        (*l1d, *l1i, *l2),
        "{ctx}: caches"
    );
    assert_eq!(want.mispredicts, *mispredicts, "{ctx}: mispredicts");
    assert_eq!(want.dram_accesses, *dram_accesses, "{ctx}: dram_accesses");
}

/// Times every width's prefix of [`points`] in lockstep and holds each run
/// to `run_points` at its point. Returns the reference runs.
fn check_widths(machine: &Machine, cfg: &Cfg, trace: &Trace, ctx: &str) -> Vec<RunStats> {
    let points = points();
    let want = machine.run_points(cfg, trace, &points);
    for width in widths() {
        let got = machine.time_points(cfg, trace, &points[..width]);
        assert_eq!(got.len(), width, "{ctx}: one run per point");
        for (lane, (w, g)) in want.iter().zip(&got).enumerate() {
            let ctx = format!("{ctx}, {width} points, point {lane} at {}", w.point);
            assert_kept_fields_equal(w, g, &ctx);
        }
    }
    want
}

/// The functional-unit pool `op` issues to.
fn pool_of(op: Opcode) -> usize {
    match op {
        Opcode::IntAlu | Opcode::Branch | Opcode::Load | Opcode::Store => 0,
        Opcode::IntMul => 1,
        Opcode::IntDiv => 2,
        Opcode::FpAdd => 3,
        Opcode::FpMul => 4,
        Opcode::FpDiv => 5,
        Opcode::Nop => 6,
    }
}

/// An independent timing body: one point, its own walk of a cold
/// hierarchy and predictor, and the recurrence of the earlier per-point
/// pass, keeping the times alone. Returns the total cycles and each
/// block's time (µs).
fn scalar_times(
    machine: &Machine,
    cfg: &Cfg,
    trace: &Trace,
    point: OperatingPoint,
) -> (f64, Vec<f64>) {
    let m = machine.config();
    let f = point.frequency_mhz;
    let mem_latency = m.mem_latency_us * f;
    let mut hier = MemoryHierarchy::new(m);
    let mut pred = BranchPredictor::new(m.predictor);
    let pools = [
        m.int_alus,
        m.int_mult,
        m.int_mult,
        m.fp_adders,
        m.fp_mult,
        m.fp_div,
        1,
    ];
    let mut fu_free: Vec<Vec<f64>> = pools.iter().map(|&n| vec![0.0; n.max(1)]).collect();
    let mut reg_ready = [0.0f64; 64];
    let mut window = vec![0.0f64; m.ruu_size];
    let mut lsq = vec![0.0f64; m.lsq_size];
    let mut commits = vec![0.0f64; m.commit_width];
    let (mut fetch, mut slots, mut mem_free) = (0.0f64, 0usize, 0.0f64);
    let (mut prev_commit, mut redirect, mut mark) = (0.0f64, 0.0f64, 0.0f64);
    let (mut n_insts, mut n_mems) = (0usize, 0usize);
    let mut times = vec![0.0f64; cfg.num_blocks()];

    for d in trace.blocks() {
        let base_pc = d.block.index() as u64 * BLOCK_STRIDE;
        fetch = fetch.max(redirect);
        if redirect > 0.0 {
            slots = 0;
            redirect = 0.0;
        }
        let mut next_line = base_pc;
        let mut addrs = d.addrs.iter();
        for (ii, inst) in cfg.block(d.block).insts.iter().enumerate() {
            let pc = base_pc + (ii as u64 * INST_BYTES) % BLOCK_STRIDE;
            if pc >= next_line {
                let (level, cycles) = hier.inst_access(pc);
                match level {
                    DataLevel::L1 => {}
                    DataLevel::L2 => fetch += f64::from(cycles - m.l1_latency),
                    DataLevel::Memory => {
                        let start = (fetch + f64::from(cycles)).max(mem_free);
                        mem_free = start + mem_latency;
                        fetch = mem_free;
                    }
                }
                next_line = (pc / m.l1i.block_bytes + 1) * m.l1i.block_bytes;
            }
            if slots >= m.fetch_width {
                fetch += 1.0;
                slots = 0;
            }
            slots += 1;

            let src_ready = inst
                .srcs
                .iter()
                .filter(|s| !s.is_zero())
                .fold(0.0f64, |t, s| t.max(reg_ready[usize::from(s.0) % 64]));
            let pool = &mut fu_free[pool_of(inst.opcode)];
            let (unit, unit_free) = pool
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
                .expect("a unit per pool");
            let is_mem = inst.opcode.is_mem();
            let mut issue = (fetch + FRONTEND_DEPTH)
                .max(window[n_insts % m.ruu_size])
                .max(src_ready)
                .max(unit_free);
            if is_mem {
                issue = issue.max(lsq[n_mems % m.lsq_size]);
            }
            let latency = f64::from(inst.opcode.base_latency());
            pool[unit] = issue
                + match inst.opcode {
                    Opcode::IntDiv | Opcode::FpDiv => latency,
                    _ => 1.0,
                };

            let mut complete = issue + latency;
            if is_mem {
                let addr = *addrs.next().expect("an address per memory instruction");
                let (level, cycles) = hier.data_access(addr);
                let done = issue + 1.0 + f64::from(cycles);
                let done = match level {
                    DataLevel::L1 | DataLevel::L2 => done,
                    DataLevel::Memory => {
                        mem_free = done.max(mem_free) + mem_latency;
                        mem_free
                    }
                };
                if inst.opcode == Opcode::Load {
                    complete = done;
                }
            }
            if inst.opcode.is_branch() {
                let target = base_pc + BLOCK_STRIDE;
                let taken_target = if d.taken { target } else { 0 };
                if !pred.predict_and_update(pc, d.taken, taken_target) {
                    redirect = redirect.max(complete + f64::from(m.mispredict_penalty));
                }
            }

            let commit = (complete + 1.0)
                .max(prev_commit)
                .max(commits[n_insts % m.commit_width] + 1.0);
            prev_commit = commit;
            commits[n_insts % m.commit_width] = commit;
            window[n_insts % m.ruu_size] = commit;
            if is_mem {
                lsq[n_mems % m.lsq_size] = commit;
                n_mems += 1;
            }
            if inst.writes_reg() {
                reg_ready[usize::from(inst.dest.0) % 64] = complete;
            }
            n_insts += 1;
        }
        times[d.block.index()] += (prev_commit - mark).max(0.0) / f;
        mark = prev_commit;
    }
    (prev_commit, times)
}

/// Holds the times of `runs` to [`scalar_times`] at each run's point.
fn assert_scalar_times(machine: &Machine, cfg: &Cfg, trace: &Trace, runs: &[RunStats], ctx: &str) {
    for run in runs {
        let (cycles, times) = scalar_times(machine, cfg, trace, run.point);
        let ctx = format!("{ctx} at {}, independent body", run.point);
        assert_eq!(
            cycles.to_bits(),
            run.total_cycles.to_bits(),
            "{ctx}: total_cycles"
        );
        let got: Vec<u64> = run.blocks.iter().map(|b| b.time_us.to_bits()).collect();
        let want: Vec<u64> = times.iter().map(|t| t.to_bits()).collect();
        assert_eq!(want, got, "{ctx}: block times");
    }
}

/// The two stress machines of `tests/sim_record_once.rs` (tiny caches,
/// the prefetcher on, a wide TLB penalty; the second with rings and pools
/// narrow enough that every gate binds), each gated and ungated.
fn stress_machines() -> Vec<(String, Machine)> {
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
    let mut machines = Vec::new();
    for (name, config) in [("stress", stress), ("narrow", narrow)] {
        for gating in [ClockGating::Perfect, ClockGating::Ungated] {
            let energy = EnergyModel {
                gating,
                ..EnergyModel::default()
            };
            let machine = Machine::new(config.clone(), energy);
            machines.push((format!("{name} {gating:?}"), machine));
        }
    }
    machines
}

#[test]
fn every_width_on_the_bundled_inputs_matches_run_points() {
    // A debug build checks the default input of each benchmark.
    let programs: Vec<(Benchmark, usize)> = if cfg!(debug_assertions) {
        Benchmark::all().into_iter().map(|b| (b, 0)).collect()
    } else {
        Benchmark::all()
            .into_iter()
            .flat_map(|b| (0..b.inputs().len()).map(move |i| (b, i)))
            .collect()
    };
    let inputs = programs.len();
    let machine = Machine::paper_default();
    let checked = Pool::new(2).map(programs, |_, (b, i)| {
        let cfg = b.build_cfg();
        let trace = b.trace(&cfg, &b.inputs()[i]);
        assert!(trace.dynamic_inst_count(&cfg) >= FAN_OUT_MIN_INSTS);
        check_widths(&machine, &cfg, &trace, &format!("{} input {i}", b.name()));
    });
    assert_eq!(checked.len(), inputs);
}

#[test]
fn random_programs_on_stress_machines_match_run_points_walked_first() {
    let machines = stress_machines();
    let mut saw = [false; 3];
    for seed in 0..60u64 {
        let mut g = Gen::from_seed(seed ^ 0x1a7e_5eed);
        let cfg = gen_cfg(&mut g, 8);
        let trace = gen_trace(&mut g, &cfg);
        assert!(trace.dynamic_inst_count(&cfg) < FAN_OUT_MIN_INSTS);
        for (name, machine) in &machines {
            let ctx = format!("seed {seed}, {name}");
            let want = check_widths(machine, &cfg, &trace, &ctx);
            assert_scalar_times(machine, &cfg, &trace, &want, &ctx);
            saw[0] |= want.iter().any(|r| r.dram_accesses > 0);
            saw[1] |= want.iter().any(|r| r.mispredicts > 0);
            saw[2] |= want.windows(2).any(|w| {
                let cycles = |r: &RunStats| r.total_cycles;
                cycles(&w[0]) != cycles(&w[1])
            });
        }
    }
    assert_eq!(
        saw, [true; 3],
        "the sweep must reach DRAM, mispredict and time points apart"
    );
}

#[test]
fn lengthened_random_programs_on_stress_machines_match_run_points_streamed() {
    let machines = stress_machines();
    let seeds = if cfg!(debug_assertions) { 6 } else { 24 };
    let mut long = 0;
    for seed in 0..seeds {
        let mut g = Gen::from_seed(seed ^ 0x1a7e_10e6);
        let cfg = gen_cfg(&mut g, 8);
        let Some(trace) = gen_long_trace(&mut g, &cfg) else {
            continue;
        };
        long += 1;
        for (name, machine) in &machines {
            let ctx = format!("lengthened seed {seed}, {name}");
            let want = check_widths(machine, &cfg, &trace, &ctx);
            assert_scalar_times(machine, &cfg, &trace, &want, &ctx);
        }
    }
    assert!(
        long >= seeds / 4,
        "only {long} of {seeds} random programs loop"
    );
}
