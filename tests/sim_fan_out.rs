//! `Machine::run_points` times a call's operating points on helper threads
//! only when the trace holds at least `FAN_OUT_MIN_INSTS` dynamic
//! instructions: a shorter pass costs less than spawning the thread that
//! would take it. `Machine::time_points` times its points in groups of at
//! most `LANES`, one pass each, and spreads those passes the same way. A
//! call with one pass over a record of one segment walks on the caller
//! too, since the pass could not start before the walk ends. The tests
//! read the thread lane (`tid`) of every span of one name, so they have a
//! binary of their own and take turns: the span sink is process-wide, and
//! another test recording at the same time would add spans.

use compile_time_dvs::ir::{Cfg, CfgBuilder, Inst, Opcode, Reg};
use compile_time_dvs::obs;
use compile_time_dvs::sim::{
    EdgeSchedule, Machine, Trace, TraceBuilder, FAN_OUT_MIN_INSTS, LANES, SEGMENT_BLOCKS,
};
use compile_time_dvs::vf::{ModeId, OperatingPoint, TransitionModel, VoltageLadder};
use compile_time_dvs::workloads::Benchmark;
use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Held by each test while it records spans.
static SPANS: Mutex<()> = Mutex::new(());

/// The trace lanes of the `name` spans that `time` records, and how many
/// there were.
fn span_lanes(name: &str, time: impl FnOnce()) -> (BTreeSet<u64>, usize) {
    obs::reset();
    time();
    let trace = obs::chrome_trace();
    let spans: Vec<u64> = trace
        .as_arr()
        .expect("an array of events")
        .iter()
        .filter(|ev| ev.get("name").and_then(|n| n.as_str()) == Some(name))
        .map(|ev| ev.get("tid").and_then(|t| t.as_u64()).expect("a lane"))
        .collect();
    (spans.iter().copied().collect(), spans.len())
}

/// A loop of 32 independent ALU operations, run `iterations` times.
fn alu_loop(iterations: u64) -> (Cfg, Trace) {
    let mut b = CfgBuilder::new("alu-loop");
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
    for _ in 0..iterations {
        tb.step(body, vec![]);
    }
    tb.step(exit, vec![]);
    let trace = tb.finish().expect("valid trace");
    (cfg, trace)
}

/// The operating points of the paper's `levels`-level ladder.
fn ladder_points(levels: usize) -> Vec<OperatingPoint> {
    let ladder = VoltageLadder::paper(levels).expect("a paper ladder");
    ladder.iter().map(|(_, p)| p).collect()
}

#[test]
fn short_traces_time_on_the_callers_lane_and_long_ones_fan_out() {
    let _turn = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let machine = Machine::paper_default();
    let points = ladder_points(13);
    obs::enable();

    // As many iterations as stay below the fan-out bound.
    let (cfg, trace) = alu_loop(FAN_OUT_MIN_INSTS / 32 - 1);
    let (lanes, runs) = span_lanes("sim.run", || {
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
    let (lanes, runs) = span_lanes("sim.run", || {
        let _ = machine.run_points(&cfg, &trace, &points);
    });
    let (group_lanes, groups) = span_lanes("sim.run", || {
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

#[test]
fn one_pass_over_one_segment_walks_on_the_callers_lane() {
    let _turn = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let machine = Machine::paper_default();
    let (cfg, trace) = alu_loop(1000);
    assert!(trace.len() <= SEGMENT_BLOCKS, "one segment");
    assert!(trace.dynamic_inst_count(&cfg) >= FAN_OUT_MIN_INSTS);
    let ladder = VoltageLadder::paper(3).expect("3 levels");
    let schedule = EdgeSchedule::uniform(&cfg, ModeId(1));
    let caller = BTreeSet::from([u64::from(obs::thread_id())]);
    obs::enable();

    let (scheduled, walks) = span_lanes("sim.record", || {
        let _ = machine.run_scheduled(&cfg, &trace, &ladder, &schedule, &TransitionModel::free());
    });
    let (three, three_walks) = span_lanes("sim.record", || {
        let _ = machine.time_points(&cfg, &trace, &ladder_points(3));
    });
    let (thirteen, thirteen_walks) = span_lanes("sim.record", || {
        let _ = machine.time_points(&cfg, &trace, &ladder_points(13));
    });
    obs::disable();
    assert_eq!(
        (walks, three_walks, thirteen_walks),
        (1, 1, 1),
        "one walk per call"
    );
    assert_eq!(scheduled, caller, "run_scheduled walks on the caller");
    assert_eq!(three, caller, "3 points, one pass, walk on the caller");
    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    if cpus == 1 {
        assert_eq!(thirteen, caller, "one CPU walks on the caller");
    } else {
        assert_ne!(
            thirteen, caller,
            "13 points, two passes, walk on a helper on {cpus} CPUs"
        );
    }
}
