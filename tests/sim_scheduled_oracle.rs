//! Differential tests of the scheduled pass, the CFG's edge lookup and the
//! profile's path counts against the bodies they replaced.
//!
//! * [`oracle_scheduled`] is the earlier `Machine::run_scheduled` body,
//!   kept as the reference: `f64::max` chains, ring slots by `%`, cache
//!   and predictor energies recomputed per access, and a `HashMap` from
//!   block pairs to edges. It reads the walk's outcomes from
//!   `Recording::outcomes` and decodes the instructions itself.
//!   `run_scheduled` must match it bit for bit on every workload input at
//!   3, 7 and 13 levels under uniform schedules at each mode, the D1–D5
//!   MILP schedules and seeded random schedules, at 0.01, 0.05 and 1 µF.
//!   A debug build checks one input per benchmark at 3 and 13 levels; a
//!   release build (as CI's one-CPU step runs it) all 19.
//! * `Cfg::edge_between` scans a block's out-edges; it must agree with a
//!   map of every edge for every block pair of dvs-check's random CFGs.
//! * [`oracle_counts`] is the earlier `ProfileBuilder::try_record_walk`
//!   counting, one `BTreeMap` entry per step; the profile's counts must
//!   equal it on every workload input and on random walks.

use compile_time_dvs::check::{gen_cfg, gen_trace, Gen};
use compile_time_dvs::compiler::{DeadlineScheme, DvsCompiler};
use compile_time_dvs::ir::{
    BlockId, Cfg, CfgBuilder, EdgeId, Inst, LocalPath, MemWidth, Opcode, Profile, ProfileBuilder,
    Reg,
};
use compile_time_dvs::runtime::Pool;
use compile_time_dvs::sim::{
    DataLevel, EdgeSchedule, EnergyModel, InstOutcome, Machine, ScheduledRun, Trace, TraceBuilder,
    FAN_OUT_MIN_INSTS, FRONTEND_DEPTH, SEGMENT_BLOCKS,
};
use compile_time_dvs::vf::{ModeId, TransitionModel, VoltageLadder};
use compile_time_dvs::workloads::Benchmark;
use std::collections::{BTreeMap, HashMap};

/// One static instruction, decoded as the timing passes decode it.
struct Decoded {
    is_mem: bool,
    is_load: bool,
    is_branch: bool,
    dest: Option<u8>,
    pool: usize,
    latency: u32,
    occupancy: u32,
    srcs: Vec<u8>,
    core_nf: f64,
    fu_nf: f64,
}

/// Every block's decoded instructions, and the functional-unit pools laid
/// out in one free-time array (pool `p` at `fu_offsets[p]..fu_offsets[p + 1]`).
fn decode(machine: &Machine, cfg: &Cfg) -> (Vec<Vec<Decoded>>, [usize; 8]) {
    let cfgm = machine.config();
    let em = machine.energy_model();
    let blocks = cfg
        .blocks()
        .map(|b| {
            b.insts
                .iter()
                .map(|inst| {
                    let srcs: Vec<u8> = inst
                        .srcs
                        .iter()
                        .filter(|s| !s.is_zero())
                        .map(|s| s.0 % 64)
                        .collect();
                    let reads = srcs.len() as f64;
                    let writes = if inst.writes_reg() { 1.0 } else { 0.0 };
                    let latency = inst.opcode.base_latency();
                    Decoded {
                        is_mem: inst.opcode.is_mem(),
                        is_load: inst.opcode == Opcode::Load,
                        is_branch: inst.opcode.is_branch(),
                        dest: inst.writes_reg().then_some(inst.dest.0 % 64),
                        pool: match inst.opcode {
                            Opcode::IntAlu | Opcode::Branch | Opcode::Load | Opcode::Store => 0,
                            Opcode::IntMul => 1,
                            Opcode::IntDiv => 2,
                            Opcode::FpAdd => 3,
                            Opcode::FpMul => 4,
                            Opcode::FpDiv => 5,
                            Opcode::Nop => 6,
                        },
                        latency,
                        occupancy: match inst.opcode {
                            Opcode::IntDiv | Opcode::FpDiv => latency,
                            _ => 1,
                        },
                        srcs,
                        core_nf: em.frontend_nf
                            + em.window_nf
                            + em.clock_nf
                            + em.regfile_nf * (reads + writes),
                        fu_nf: em.fu_nf(inst.opcode),
                    }
                })
                .collect()
        })
        .collect();
    let pools = [
        cfgm.int_alus,
        cfgm.int_mult,
        cfgm.int_mult,
        cfgm.fp_adders,
        cfgm.fp_mult,
        cfgm.fp_div,
        1,
    ];
    let mut fu_offsets = [0usize; 8];
    for (p, &n) in pools.iter().enumerate() {
        fu_offsets[p + 1] = fu_offsets[p] + n.max(1);
    }
    (blocks, fu_offsets)
}

/// A trace with the walk's outcomes of its dynamic instructions and its
/// CFG decoded, shared by every schedule the oracle times.
struct Walked<'a> {
    machine: &'a Machine,
    cfg: &'a Cfg,
    trace: &'a Trace,
    outcomes: Vec<InstOutcome>,
    table: Vec<Vec<Decoded>>,
    fu_offsets: [usize; 8],
    edge_lookup: HashMap<(BlockId, BlockId), EdgeId>,
}

impl<'a> Walked<'a> {
    fn new(machine: &'a Machine, cfg: &'a Cfg, trace: &'a Trace) -> Self {
        let outcomes = machine.record(cfg, trace).outcomes().collect();
        let (table, fu_offsets) = decode(machine, cfg);
        let edge_lookup = cfg.edges().map(|e| ((e.src, e.dst), e.id)).collect();
        Walked {
            machine,
            cfg,
            trace,
            outcomes,
            table,
            fu_offsets,
            edge_lookup,
        }
    }
}

/// The reference scheduled pass.
fn oracle_scheduled(
    w: &Walked<'_>,
    ladder: &VoltageLadder,
    schedule: &EdgeSchedule,
    transition: &TransitionModel,
) -> ScheduledRun {
    assert_eq!(
        schedule.edge_modes.len(),
        w.cfg.num_edges(),
        "schedule must cover every edge"
    );
    let cfgm = w.machine.config();
    let em = w.machine.energy_model();
    let mut outcomes = w.outcomes.iter();

    let mut reg_ready = [0.0f64; 64];
    let mut fu_free = vec![0.0f64; w.fu_offsets[7]];
    let mut window_ring = vec![0.0f64; cfgm.ruu_size];
    let mut lsq_ring = vec![0.0f64; cfgm.lsq_size];
    let mut commit_ring = vec![0.0f64; cfgm.commit_width];

    let mut fetch_us = 0.0f64;
    let mut fetch_slots = 0usize;
    let mut mem_free = 0.0f64;
    let mut prev_commit = 0.0f64;
    let mut inst_index = 0usize;
    let mut mem_index = 0usize;
    let mut pending_redirect = 0.0f64;

    let mut cap_weighted_uj = 0.0f64; // Σ cap·V² accumulated per block mode
    let mut dram_uj = 0.0f64;
    let mut transitions = 0u64;
    let mut transition_energy = 0.0f64;
    let mut transition_time = 0.0f64;

    let mut current = schedule.initial;
    let mut prev_block: Option<BlockId> = None;

    for dyn_block in w.trace.blocks() {
        // Mode-set on the edge we arrive through.
        if let Some(pb) = prev_block {
            let e = *w
                .edge_lookup
                .get(&(pb, dyn_block.block))
                .expect("trace follows CFG edges");
            let target = schedule.edge_modes[e.index()];
            if target != current {
                let st = transition.mode_time_us(ladder, current, target);
                let se = transition.mode_energy_uj(ladder, current, target);
                let barrier = fetch_us.max(prev_commit) + st;
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

        fetch_us = fetch_us.max(pending_redirect);
        if pending_redirect > 0.0 {
            fetch_slots = 0;
            pending_redirect = 0.0;
        }

        for inst in &w.table[dyn_block.block.index()] {
            let outcome = outcomes.next().expect("one outcome per instruction");
            if let Some(a) = outcome.fetch {
                cap_weighted_uj += EnergyModel::cap_to_uj(em.l1_nf, point.voltage);
                match a.level {
                    DataLevel::L1 => {}
                    DataLevel::L2 => {
                        cap_weighted_uj += EnergyModel::cap_to_uj(em.l2_nf, point.voltage);
                        fetch_us += f64::from(a.cycles - cfgm.l1_latency) * period;
                    }
                    DataLevel::Memory => {
                        cap_weighted_uj += EnergyModel::cap_to_uj(em.l2_nf, point.voltage);
                        dram_uj += em.dram_uj_per_access;
                        let ready = fetch_us + f64::from(a.cycles) * period;
                        let start = ready.max(mem_free);
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
            let window_gate = window_ring[inst_index % cfgm.ruu_size];

            let mut src_ready = 0.0f64;
            for &s in &inst.srcs {
                src_ready = src_ready.max(reg_ready[usize::from(s)]);
            }

            let pool = inst.pool;
            let (lo, hi) = (w.fu_offsets[pool], w.fu_offsets[pool + 1]);
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
                issue = issue.max(lsq_ring[mem_index % cfgm.lsq_size]);
            }
            fu_free[unit_ix] = issue + f64::from(inst.occupancy) * period;

            let mut complete = issue + f64::from(inst.latency) * period;
            if inst.is_mem {
                let a = outcome
                    .data
                    .expect("one data access per memory instruction");
                cap_weighted_uj += EnergyModel::cap_to_uj(em.l1_nf, point.voltage);
                match a.level {
                    DataLevel::L1 | DataLevel::L2 => {
                        if a.level == DataLevel::L2 {
                            cap_weighted_uj += EnergyModel::cap_to_uj(em.l2_nf, point.voltage);
                        }
                        if inst.is_load {
                            complete = issue + (1.0 + f64::from(a.cycles)) * period;
                        }
                    }
                    DataLevel::Memory => {
                        cap_weighted_uj += EnergyModel::cap_to_uj(em.l2_nf, point.voltage);
                        dram_uj += em.dram_uj_per_access;
                        let ready = issue + (1.0 + f64::from(a.cycles)) * period;
                        let start = ready.max(mem_free);
                        let end = start + mem_lat_us;
                        mem_free = end;
                        if inst.is_load {
                            complete = end;
                        }
                    }
                }
            }

            if inst.is_branch {
                cap_weighted_uj += EnergyModel::cap_to_uj(em.bpred_nf, point.voltage);
                if outcome.mispredicted {
                    pending_redirect = pending_redirect
                        .max(complete + f64::from(cfgm.mispredict_penalty) * period);
                }
            }

            let commit = (complete + period)
                .max(prev_commit)
                .max(commit_ring[inst_index % cfgm.commit_width] + period);
            prev_commit = commit;
            commit_ring[inst_index % cfgm.commit_width] = commit;
            window_ring[inst_index % cfgm.ruu_size] = commit;
            if inst.is_mem {
                lsq_ring[mem_index % cfgm.lsq_size] = commit;
                mem_index += 1;
            }
            if let Some(d) = inst.dest {
                reg_ready[usize::from(d)] = complete;
            }

            cap_weighted_uj += (inst.core_nf + inst.fu_nf) * vv * 1e-3;

            inst_index += 1;
        }
    }
    assert!(outcomes.next().is_none(), "one outcome per instruction");

    ScheduledRun {
        time_us: prev_commit,
        processor_energy_uj: cap_weighted_uj + transition_energy,
        dram_energy_uj: dram_uj,
        transitions,
        transition_energy_uj: transition_energy,
        transition_time_us: transition_time,
    }
}

/// Every field of a scheduled run, f64s by their bits.
fn bits(r: &ScheduledRun) -> [(&'static str, u64); 6] {
    [
        ("time_us", r.time_us.to_bits()),
        ("processor_energy_uj", r.processor_energy_uj.to_bits()),
        ("dram_energy_uj", r.dram_energy_uj.to_bits()),
        ("transitions", r.transitions),
        ("transition_energy_uj", r.transition_energy_uj.to_bits()),
        ("transition_time_us", r.transition_time_us.to_bits()),
    ]
}

/// SplitMix64, so every random schedule reproduces exactly.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Capacitances of the regulator, µF.
const CAPACITANCES: [f64; 3] = [0.01, 0.05, 1.0];

/// Checks `run_scheduled` against the oracle on one workload input, at
/// every ladder size in `levels`. Returns (schedules checked, of them MILP
/// schedules, transitions made).
fn check_input(b: Benchmark, input: usize, levels: &[usize]) -> (usize, usize, u64) {
    let machine = Machine::paper_default();
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.inputs()[input]);
    let walked = Walked::new(&machine, &cfg, &trace);
    let mut rng = Rng(0x5c4e_d01e ^ ((input as u64) << 8) ^ b.name().len() as u64);
    let (mut checked, mut milp, mut transitions) = (0, 0, 0);
    let mut scheme = None;
    for &n in levels {
        let ladder = VoltageLadder::paper(n).expect("a paper ladder");
        let compiler = |c: f64| {
            DvsCompiler::builder(
                machine.clone(),
                ladder.clone(),
                TransitionModel::with_capacitance_uf(c),
            )
            .build()
            .expect("valid settings")
        };
        let (profile, runs) = compiler(CAPACITANCES[0]).profile(&cfg, &trace);
        let scheme: &DeadlineScheme = scheme.get_or_insert_with(|| {
            DeadlineScheme::from_runs_or_measure(&runs, &machine, &cfg, &trace)
        });
        let mut check = |schedule: &EdgeSchedule, c: f64, what: &str| {
            let tm = TransitionModel::with_capacitance_uf(c);
            let want = oracle_scheduled(&walked, &ladder, schedule, &tm);
            let got = machine.run_scheduled(&cfg, &trace, &ladder, schedule, &tm);
            let ctx = format!("{} input {input}, {n} levels, {what} at {c} µF", b.name());
            for ((name, w), (_, g)) in bits(&want).iter().zip(bits(&got)) {
                assert_eq!(
                    *w, g,
                    "{ctx}: {name}: {got:?} against the oracle's {want:?}"
                );
            }
            checked += 1;
            transitions += want.transitions;
        };
        // No transitions, so the capacitance does not enter.
        for (mode, _) in ladder.iter() {
            check(
                &EdgeSchedule::uniform(&cfg, mode),
                CAPACITANCES[1],
                "uniform",
            );
        }
        for c in CAPACITANCES {
            let at_c = compiler(c);
            for (d, deadline) in scheme.deadlines_us().into_iter().enumerate() {
                if let Ok(result) = at_c.compile(&cfg, &profile, deadline) {
                    check(&result.milp.schedule, c, &format!("D{} schedule", d + 1));
                    milp += 1;
                }
            }
            let random = EdgeSchedule {
                initial: ModeId(rng.below(n)),
                edge_modes: (0..cfg.num_edges()).map(|_| ModeId(rng.below(n))).collect(),
            };
            check(&random, c, "random schedule");
        }
    }
    (checked, milp, transitions)
}

#[test]
fn scheduled_runs_match_the_oracle_bit_for_bit() {
    let all: Vec<(Benchmark, usize)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| (0..b.inputs().len()).map(move |i| (b, i)))
        .collect();
    assert_eq!(all.len(), 19);
    let (programs, levels): (Vec<(Benchmark, usize)>, &[usize]) = if cfg!(debug_assertions) {
        // The shortest input of each benchmark.
        let shortest = Benchmark::all()
            .into_iter()
            .map(|b| {
                let cfg = b.build_cfg();
                let inputs = b.inputs();
                let lens = inputs.iter().map(|i| b.trace(&cfg, i).len());
                let (i, _) = lens.enumerate().min_by_key(|&(_, l)| l).expect("inputs");
                (b, i)
            })
            .collect();
        (shortest, &[3, 13])
    } else {
        (all, &[3, 7, 13])
    };
    let n = programs.len();
    let results = Pool::new(2).map(programs, |_, (b, i)| check_input(b, i, levels));
    let checked: usize = results.iter().map(|r| r.0).sum();
    let milp: usize = results.iter().map(|r| r.1).sum();
    let uniform: usize = levels.iter().sum();
    assert_eq!(
        checked - milp,
        n * (uniform + levels.len() * CAPACITANCES.len()),
        "every uniform and random schedule"
    );
    assert!(
        milp * 10 >= n * levels.len() * CAPACITANCES.len() * 5 * 9,
        "at least 90% of the MILP cells solve: {milp}"
    );
    assert!(
        results.iter().all(|r| r.2 > 0),
        "every input switches modes"
    );
}

#[test]
fn edge_lookup_matches_a_map_of_every_edge() {
    let mut pairs = 0;
    for seed in 0..300u64 {
        let mut g = Gen::from_seed(seed ^ 0xed6e_100c);
        let cfg = gen_cfg(&mut g, 12);
        let map: HashMap<(BlockId, BlockId), EdgeId> =
            cfg.edges().map(|e| ((e.src, e.dst), e.id)).collect();
        assert_eq!(map.len(), cfg.num_edges(), "seed {seed}: edges are unique");
        for a in (0..cfg.num_blocks()).map(BlockId) {
            for b in (0..cfg.num_blocks() + 1).map(BlockId) {
                assert_eq!(
                    cfg.edge_between(a, b),
                    map.get(&(a, b)).copied(),
                    "seed {seed}: {a} -> {b}"
                );
                pairs += 1;
            }
        }
        let past = BlockId(cfg.num_blocks());
        assert_eq!(cfg.edge_between(past, cfg.entry()), None, "seed {seed}");
    }
    assert!(pairs > 10_000);
}

/// The counts the earlier `try_record_walk` derived from a valid walk:
/// block, edge and local-path counts, one map entry per step.
fn oracle_counts(cfg: &Cfg, walk: &[BlockId]) -> (Vec<u64>, Vec<u64>, BTreeMap<LocalPath, u64>) {
    let lookup: HashMap<(BlockId, BlockId), EdgeId> =
        cfg.edges().map(|e| ((e.src, e.dst), e.id)).collect();
    let mut block_counts = vec![0u64; cfg.num_blocks()];
    let mut edge_counts = vec![0u64; cfg.num_edges()];
    let mut path_counts = BTreeMap::new();
    let edges: Vec<EdgeId> = walk.windows(2).map(|w| lookup[&(w[0], w[1])]).collect();
    for &b in walk {
        block_counts[b.0] += 1;
    }
    for &e in &edges {
        edge_counts[e.0] += 1;
    }
    if edges.is_empty() {
        *path_counts
            .entry(LocalPath::whole(cfg.entry()))
            .or_insert(0) += 1;
        return (block_counts, edge_counts, path_counts);
    }
    *path_counts
        .entry(LocalPath::from_start(cfg, edges[0]))
        .or_insert(0) += 1;
    for w in edges.windows(2) {
        let p = LocalPath::interior(cfg, w[0], w[1]).expect("consecutive walk edges share a block");
        *path_counts.entry(p).or_insert(0) += 1;
    }
    *path_counts
        .entry(LocalPath::to_end(cfg, *edges.last().expect("non-empty")))
        .or_insert(0) += 1;
    (block_counts, edge_counts, path_counts)
}

fn counts_of(cfg: &Cfg, p: &Profile) -> (Vec<u64>, Vec<u64>, BTreeMap<LocalPath, u64>) {
    (
        (0..cfg.num_blocks())
            .map(|b| p.block_count(BlockId(b)))
            .collect(),
        (0..cfg.num_edges())
            .map(|e| p.edge_count(EdgeId(e)))
            .collect(),
        p.local_paths().collect(),
    )
}

#[test]
fn walk_counts_match_the_oracle() {
    for b in Benchmark::all() {
        let cfg = b.build_cfg();
        for (i, input) in b.inputs().iter().enumerate() {
            let walk = b.trace(&cfg, input).walk();
            let mut pb = ProfileBuilder::new(&cfg, 1);
            pb.try_record_walk(&cfg, &walk).expect("a valid walk");
            let want = oracle_counts(&cfg, &walk);
            assert_eq!(
                counts_of(&cfg, &pb.finish()),
                want,
                "{} input {i}",
                b.name()
            );
        }
    }
    for seed in 0..300u64 {
        let mut g = Gen::from_seed(seed ^ 0x9a1c_c0de);
        let cfg = gen_cfg(&mut g, 10);
        // Two walks into one builder: the counts add up.
        let walks = [
            gen_trace(&mut g, &cfg).walk(),
            gen_trace(&mut g, &cfg).walk(),
        ];
        let mut pb = ProfileBuilder::new(&cfg, 1);
        let mut want = oracle_counts(&cfg, &walks[0]);
        for w in &walks {
            pb.try_record_walk(&cfg, w).expect("a valid walk");
        }
        let second = oracle_counts(&cfg, &walks[1]);
        for (a, b) in want.0.iter_mut().zip(second.0) {
            *a += b;
        }
        for (a, b) in want.1.iter_mut().zip(second.1) {
            *a += b;
        }
        for (p, n) in second.2 {
            *want.2.entry(p).or_insert(0) += n;
        }
        assert_eq!(counts_of(&cfg, &pb.finish()), want, "seed {seed}");
    }
}

/// `entry -> a (self-loop) -> b -> exit`, run as `entry`, `a` until block
/// `at`, `b` at block `at`, `exit`: an edge into `b` that no other block
/// follows, so a schedule can switch there alone. Light blocks hold one
/// instruction each (a load, a branch) and stay under
/// `FAN_OUT_MIN_INSTS`, so the caller walks first; heavy ones hold four,
/// so that the walk streams on two or more CPUs. Every trace holds at
/// least `SEGMENT_BLOCKS + 1` blocks, two segments, so the one scheduled
/// pass follows the walk rather than waiting for all of it.
fn switch_at(at: usize, heavy: bool) -> (Cfg, Trace) {
    let mut bld = CfgBuilder::new("switch-at");
    let entry = bld.block("entry");
    let a = bld.block("a");
    let b = bld.block("b");
    let exit = bld.block("exit");
    bld.push(a, Inst::load(Reg(1), Reg(2), MemWidth::B4));
    if heavy {
        bld.push(a, Inst::alu(Opcode::IntMul, Reg(3), &[Reg(1)]));
        bld.push(a, Inst::store(Reg(3), Reg(2), MemWidth::B4));
        bld.push(a, Inst::branch(Reg(3)));
    }
    bld.push(b, Inst::branch(Reg(1)));
    bld.edge(entry, a);
    bld.edge(a, a);
    bld.edge(a, b);
    bld.edge(b, exit);
    let cfg = bld.finish(entry, exit).expect("valid cfg");
    let mut tb = TraceBuilder::new(&cfg);
    tb.step(entry, vec![]);
    for i in 1..at as u64 {
        let addrs = (0..cfg.block(a).mem_inst_count() as u64)
            .map(|j| 0x10_0000 + (((i * 2_654_435_761 + 4096 * j) % 0x4_0000) & !3))
            .collect();
        tb.step(a, addrs);
    }
    tb.step(b, vec![]).step(exit, vec![]);
    let trace = tb.finish().expect("valid trace");
    (cfg, trace)
}

#[test]
fn a_mode_switch_on_a_segment_boundary_matches_the_oracle() {
    let machine = Machine::paper_default();
    let seg = SEGMENT_BLOCKS;
    let ladder = VoltageLadder::paper(3).expect("3 levels");
    for at in [seg - 1, seg, seg + 1] {
        for heavy in [false, true] {
            let (cfg, trace) = switch_at(at, heavy);
            assert_eq!(
                trace.dynamic_inst_count(&cfg) >= FAN_OUT_MIN_INSTS,
                heavy,
                "only the heavy trace streams"
            );
            assert!(trace.len() > seg, "two segments, so one pass streams");
            let walked = Walked::new(&machine, &cfg, &trace);
            let into_b = cfg
                .edge_between(BlockId(1), BlockId(2))
                .expect("the a -> b edge");
            let mut switch = EdgeSchedule::uniform(&cfg, ModeId(2));
            switch.edge_modes[into_b.index()] = ModeId(0);
            let exit = cfg.edge_between(BlockId(2), cfg.exit()).expect("b -> exit");
            switch.edge_modes[exit.index()] = ModeId(0);
            let how = if heavy { "streamed" } else { "walked first" };
            for c in CAPACITANCES {
                let tm = TransitionModel::with_capacitance_uf(c);
                let schedules = [(&switch, 1), (&EdgeSchedule::uniform(&cfg, ModeId(1)), 0)];
                for (schedule, transitions) in schedules {
                    let want = oracle_scheduled(&walked, &ladder, schedule, &tm);
                    let got = machine.run_scheduled(&cfg, &trace, &ladder, schedule, &tm);
                    let ctx = format!("switch at block {at}, {how}, {c} µF");
                    assert_eq!(want.transitions, transitions, "{ctx}");
                    for ((name, w), (_, g)) in bits(&want).iter().zip(bits(&got)) {
                        assert_eq!(*w, g, "{ctx}: {name}: {got:?} against {want:?}");
                    }
                }
            }
        }
    }
}
