use dvs_ir::{Cfg, CfgBuilder, Inst, MemWidth, Opcode, Reg};
use dvs_sim::{EdgeSchedule, EnergyModel, Machine, ScheduledRun, SimConfig, Trace, TraceBuilder};
use dvs_vf::{AlphaPower, ModeId, TransitionModel, VoltageLadder};

use crate::compile;

/// A loop nest with memory traffic, multiplies, a divide and branches —
/// every op class the interpreter has a path for. Data addresses stride
/// far enough that the tiny test caches miss at several levels.
fn program(iters: usize, stride: u64) -> (Cfg, Trace) {
    let mut b = CfgBuilder::new("replay-prog");
    let e = b.block("entry");
    let h = b.block("head");
    let body = b.block("body");
    let x = b.block("exit");
    b.push(e, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1)]));
    b.push(h, Inst::load(Reg(2), Reg(1), MemWidth::B4));
    b.push(h, Inst::branch(Reg(2)));
    b.push(body, Inst::alu(Opcode::IntMul, Reg(3), &[Reg(2), Reg(2)]));
    b.push(body, Inst::alu(Opcode::IntDiv, Reg(4), &[Reg(3), Reg(1)]));
    b.push(body, Inst::store(Reg(4), Reg(1), MemWidth::B4));
    b.push(body, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1), Reg(4)]));
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
    for i in 0..iters {
        tb.step(h, vec![0x1000 + i as u64 * stride]);
        tb.step(body, vec![0x9000 + i as u64 * stride]);
    }
    tb.step(h, vec![0x1000]);
    tb.step(x, vec![]);
    let trace = tb.finish().unwrap();
    (cfg, trace)
}

fn tiny_machine() -> Machine {
    Machine::new(SimConfig::tiny_for_tests(), EnergyModel::default())
}

fn ladder() -> VoltageLadder {
    VoltageLadder::xscale3(&AlphaPower::paper())
}

fn assert_matches_sim(fast: &ScheduledRun, sim: &ScheduledRun) {
    assert_eq!(fast.time_us, sim.time_us, "time must be bit-identical");
    assert_eq!(fast.transitions, sim.transitions);
    assert_eq!(fast.transition_time_us, sim.transition_time_us);
    assert_eq!(fast.transition_energy_uj, sim.transition_energy_uj);
    assert_eq!(fast.dram_energy_uj, sim.dram_energy_uj);
    let de = (fast.processor_energy_uj - sim.processor_energy_uj).abs();
    assert!(
        de <= 1e-6 * sim.processor_energy_uj.abs().max(1.0),
        "energy {} vs sim {}",
        fast.processor_energy_uj,
        sim.processor_energy_uj
    );
}

#[test]
fn uniform_schedules_match_simulator_per_mode() {
    let (cfg, trace) = program(50, 4096);
    let m = tiny_machine();
    let l = ladder();
    let tm = TransitionModel::with_capacitance_uf(10.0);
    let code = compile(&m, &cfg, &trace, &l, &tm);
    for (mode, _) in l.iter() {
        let sched = EdgeSchedule::uniform(&cfg, mode);
        let sim = m.run_scheduled(&cfg, &trace, &l, &sched, &tm);
        let fast = code.replay(&sched);
        assert_matches_sim(&fast, &sim);
        assert_eq!(fast.transitions, 0);
    }
}

#[test]
fn switching_schedule_matches_simulator_including_transitions() {
    let (cfg, trace) = program(40, 64);
    let m = Machine::paper_default();
    let l = ladder();
    let tm = TransitionModel::with_capacitance_uf(1.0);
    let h = cfg.block_by_label("head").unwrap();
    let body = cfg.block_by_label("body").unwrap();
    let mut sched = EdgeSchedule::uniform(&cfg, ModeId(2));
    sched.edge_modes[cfg.edge_between(h, body).unwrap().index()] = ModeId(0);
    sched.edge_modes[cfg.edge_between(body, h).unwrap().index()] = ModeId(2);
    let code = compile(&m, &cfg, &trace, &l, &tm);
    let sim = m.run_scheduled(&cfg, &trace, &l, &sched, &tm);
    let fast = code.replay(&sched);
    assert_matches_sim(&fast, &sim);
    assert_eq!(fast.transitions, 80);
}

#[test]
fn self_loop_blocks_run_length_encode_and_match() {
    let mut b = CfgBuilder::new("selfloop");
    let e = b.block("entry");
    let s = b.block("spin");
    let x = b.block("exit");
    b.push(s, Inst::alu(Opcode::IntAlu, Reg(5), &[Reg(5)]));
    b.push(s, Inst::branch(Reg(5)));
    b.edge(e, s);
    b.edge(s, s);
    b.edge(s, x);
    let cfg = b.finish(e, x).unwrap();
    let (e, s, x) = (cfg.entry(), cfg.block_by_label("spin").unwrap(), cfg.exit());
    let mut tb = TraceBuilder::new(&cfg);
    tb.step(e, vec![]);
    for _ in 0..200 {
        tb.step(s, vec![]);
    }
    tb.step(x, vec![]);
    let trace = tb.finish().unwrap();

    let m = tiny_machine();
    let l = ladder();
    let tm = TransitionModel::free();
    let code = compile(&m, &cfg, &trace, &l, &tm);
    // 199 of the 200 spins arrive via the same self-loop edge with the
    // same warm-cache ops: they must collapse into trip counts.
    let stats = code.stats();
    assert_eq!(stats.trace_blocks, 202);
    assert!(
        stats.block_ops < 10,
        "self-loop failed to RLE: {} block ops",
        stats.block_ops
    );
    for (mode, _) in l.iter() {
        let sched = EdgeSchedule::uniform(&cfg, mode);
        assert_matches_sim(
            &code.replay(&sched),
            &m.run_scheduled(&cfg, &trace, &l, &sched, &tm),
        );
    }
}

#[test]
fn variant_interning_compresses_warm_loops() {
    let (cfg, trace) = program(100, 0);
    let m = Machine::paper_default();
    let code = compile(&m, &cfg, &trace, &ladder(), &TransitionModel::free());
    let stats = code.stats();
    assert_eq!(stats.trace_blocks, trace.len());
    assert!(
        stats.variants * 8 < stats.trace_blocks,
        "expected >=8x interning on a warm loop: {} variants for {} occurrences",
        stats.variants,
        stats.trace_blocks
    );
    assert!(stats.variant_insts < stats.trace_insts);
}

#[test]
fn batch_replay_is_bit_identical_to_individual_replays() {
    let (cfg, trace) = program(30, 2048);
    let m = tiny_machine();
    let l = ladder();
    let tm = TransitionModel::with_capacitance_uf(0.5);
    let code = compile(&m, &cfg, &trace, &l, &tm);
    let mut schedules = Vec::new();
    for (mode, _) in l.iter() {
        schedules.push(EdgeSchedule::uniform(&cfg, mode));
    }
    let mut alt = EdgeSchedule::uniform(&cfg, ModeId(1));
    for (i, em) in alt.edge_modes.iter_mut().enumerate() {
        *em = ModeId(i % l.len());
    }
    schedules.push(alt);
    let batch = code.replay_batch(&schedules);
    for (s, got) in schedules.iter().zip(&batch) {
        assert_eq!(*got, code.replay(s));
    }
}

#[test]
fn injected_cost_fault_is_visible() {
    let (cfg, trace) = program(20, 512);
    let m = tiny_machine();
    let l = ladder();
    let tm = TransitionModel::free();
    let sched = EdgeSchedule::uniform(&cfg, ModeId(1));
    let clean = compile(&m, &cfg, &trace, &l, &tm).replay(&sched);
    for seed in 0..8u64 {
        let mut code = compile(&m, &cfg, &trace, &l, &tm);
        code.inject_cost_fault(seed);
        let faulty = code.replay(&sched);
        assert!(
            faulty.processor_energy_uj > clean.processor_energy_uj,
            "seed {seed}: off-by-one cost did not raise energy"
        );
        assert!(
            faulty.time_us >= clean.time_us,
            "seed {seed}: extra latency shortened the run"
        );
    }
}

#[test]
#[should_panic(expected = "schedule must cover every edge")]
fn schedule_edge_count_is_enforced() {
    let (cfg, trace) = program(3, 0);
    let m = tiny_machine();
    let code = compile(&m, &cfg, &trace, &ladder(), &TransitionModel::free());
    let bad = EdgeSchedule {
        initial: ModeId(0),
        edge_modes: vec![ModeId(0)],
    };
    let _ = code.replay(&bad);
}
