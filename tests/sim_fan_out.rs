//! `Machine::run_points` times a call's operating points on helper threads
//! only when the trace holds at least `FAN_OUT_MIN_INSTS` dynamic
//! instructions: a shorter pass costs less than spawning the thread that
//! would take it. `Machine::time_points` times its points in groups of at
//! most `LANES`, one pass each, and spreads those passes the same way. The
//! test reads the thread lane (`tid`) of every `sim.run` span, so it has a
//! binary of its own: the span sink is process-wide, and another test
//! recording at the same time would add spans.

use compile_time_dvs::ir::{Cfg, CfgBuilder, Inst, Opcode, Reg};
use compile_time_dvs::obs;
use compile_time_dvs::sim::{Machine, Trace, TraceBuilder, FAN_OUT_MIN_INSTS, LANES};
use compile_time_dvs::vf::{OperatingPoint, VoltageLadder};
use compile_time_dvs::workloads::Benchmark;
use std::collections::BTreeSet;
use std::num::NonZeroUsize;

/// The trace lanes of the `sim.run` spans that `time` records, and how many
/// there were.
fn run_lanes(time: impl FnOnce()) -> (BTreeSet<u64>, usize) {
    obs::reset();
    time();
    let trace = obs::chrome_trace();
    let runs: Vec<u64> = trace
        .as_arr()
        .expect("an array of events")
        .iter()
        .filter(|ev| ev.get("name").and_then(|n| n.as_str()) == Some("sim.run"))
        .map(|ev| ev.get("tid").and_then(|t| t.as_u64()).expect("a lane"))
        .collect();
    (runs.iter().copied().collect(), runs.len())
}

/// A loop of 32 independent ALU operations, run for as many iterations as
/// stay below the fan-out bound.
fn just_below_the_bound() -> (Cfg, Trace) {
    let mut b = CfgBuilder::new("below-fan-out");
    let entry = b.block("entry");
    let body = b.block("body");
    let exit = b.block("exit");
    for i in 0..32u8 {
        b.push(body, Inst::alu(Opcode::IntAlu, Reg(1 + i % 30), &[Reg(0)]));
    }
    b.edge(entry, body);
    b.edge(body, body);
    b.edge(body, exit);
    let cfg = b.finish(entry, exit).expect("valid cfg");
    let mut tb = TraceBuilder::new(&cfg);
    tb.step(entry, vec![]);
    for _ in 0..FAN_OUT_MIN_INSTS / 32 - 1 {
        tb.step(body, vec![]);
    }
    tb.step(exit, vec![]);
    let trace = tb.finish().expect("valid trace");
    (cfg, trace)
}

#[test]
fn short_traces_time_on_the_callers_lane_and_long_ones_fan_out() {
    let machine = Machine::paper_default();
    let ladder = VoltageLadder::paper(13).expect("13 levels");
    let points: Vec<OperatingPoint> = ladder.iter().map(|(_, p)| p).collect();
    obs::enable();

    let (cfg, trace) = just_below_the_bound();
    let (lanes, runs) = run_lanes(|| {
        let _ = machine.run_points(&cfg, &trace, &points);
    });
    assert_eq!(runs, 13, "one span per point");
    assert_eq!(
        lanes,
        BTreeSet::from([u64::from(obs::thread_id())]),
        "{} instructions time on the caller's lane",
        FAN_OUT_MIN_INSTS - 32
    );

    let b = Benchmark::Ghostscript;
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let (lanes, runs) = run_lanes(|| {
        let _ = machine.run_points(&cfg, &trace, &points);
    });
    let (group_lanes, groups) = run_lanes(|| {
        let _ = machine.time_points(&cfg, &trace, &points);
    });
    obs::disable();
    assert_eq!(runs, 13, "one span per point");
    assert_eq!(LANES, 8);
    assert_eq!(groups, 2, "one span per group: 8 points, then 5");
    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    if cpus == 1 {
        assert_eq!(lanes.len(), 1, "one CPU times every point on the caller");
        assert_eq!(
            group_lanes.len(),
            1,
            "one CPU times both groups on the caller"
        );
    } else {
        assert!(
            lanes.len() >= 2,
            "ghostscript's default input on {cpus} CPUs fans out: lanes {lanes:?}"
        );
        assert!(
            group_lanes.len() >= 2,
            "the walker takes the second group on {cpus} CPUs: lanes {group_lanes:?}"
        );
    }
}
