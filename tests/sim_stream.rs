//! A simulator call streams its timing passes behind the cache and
//! predictor walk: with two or more CPUs and a trace of at least
//! `FAN_OUT_MIN_INSTS` dynamic instructions the walk runs on a helper
//! thread and publishes the record a segment of `SEGMENT_BLOCKS` dynamic
//! blocks at a time, while the passes wait only at segments it has not
//! reached; otherwise the caller walks first. (Every pass equals the kept
//! oracle bodies across segment boundaries: `tests/sim_record_once.rs` and
//! `tests/sim_scheduled_oracle.rs`.) Here:
//!
//! * A malformed trace panics and never hangs, through `time_points` at 3
//!   and 13 points, `run_points` and `run_scheduled`: a dynamic block
//!   outside the CFG and a block with fewer addresses than memory
//!   instructions are found on the caller before any thread starts, each
//!   past two segments of good blocks; a walk that panics anyway (a
//!   predictor without entries, at a branch two segments in) releases
//!   every pass waiting on it, and the call re-raises the walk's panic.
//!   A watchdog fails the test when a call has not panicked within 10 s.
//! * Each call counts one walk and records one `sim.record` span, one
//!   `sim.runs` per point, one `sim.run` span per timing pass (a group of
//!   up to `LANES` unclassified points in lockstep, or one classified
//!   point) and one `sim.scheduled_runs`/`sim.run_scheduled` per scheduled
//!   pass, streamed or walked first, whatever thread ran it.

use compile_time_dvs::ir::{Cfg, CfgBuilder, Inst, MemWidth, Opcode, Reg};
use compile_time_dvs::obs;
use compile_time_dvs::sim::{
    EdgeSchedule, Machine, PredictorConfig, SimConfig, Trace, TraceBuilder, FAN_OUT_MIN_INSTS,
    SEGMENT_BLOCKS,
};
use compile_time_dvs::vf::{ModeId, OperatingPoint, TransitionModel, VoltageLadder};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::Duration;

/// A simulator call under test.
type Call<'a> = Box<dyn FnOnce() + Send + 'a>;

/// How long a call over a malformed trace may take to panic.
const WATCHDOG: Duration = Duration::from_secs(10);

/// Loop iterations that put the last blocks of a trace past two segments.
const ITERS: usize = 2 * SEGMENT_BLOCKS + 100;

/// A CFG `entry -> body (self-loop) -> tail -> exit` with the given body
/// and tail instructions.
fn looped(body: &[Inst], tail: &[Inst]) -> Cfg {
    let mut b = CfgBuilder::new("looped");
    let entry = b.block("entry");
    let body_id = b.block("body");
    let tail_id = b.block("tail");
    let exit = b.block("exit");
    for inst in body {
        b.push(body_id, inst.clone());
    }
    for inst in tail {
        b.push(tail_id, inst.clone());
    }
    b.edge(entry, body_id);
    b.edge(body_id, body_id);
    b.edge(body_id, tail_id);
    b.edge(tail_id, exit);
    b.finish(entry, exit).expect("valid cfg")
}

/// `entry`, `body` [`ITERS`] times, `tail`, `exit`, over `cfg`, with one
/// address per memory instruction.
fn looped_trace(cfg: &Cfg) -> Trace {
    let [entry, body, tail, exit] =
        ["entry", "body", "tail", "exit"].map(|l| cfg.block_by_label(l).expect("a looped block"));
    let addrs = |b| -> Vec<u64> {
        (0..cfg.block(b).mem_inst_count() as u64)
            .map(|i| 0x4_0000 + 64 * i)
            .collect()
    };
    let mut tb = TraceBuilder::new(cfg);
    tb.step(entry, vec![]);
    for _ in 0..ITERS {
        tb.step(body, addrs(body));
    }
    tb.step(tail, addrs(tail)).step(exit, vec![]);
    tb.finish().expect("valid trace")
}

/// A loop body of a load and two ALU operations, no branch.
fn body() -> Vec<Inst> {
    vec![
        Inst::load(Reg(1), Reg(2), MemWidth::B4),
        Inst::alu(Opcode::IntAlu, Reg(3), &[Reg(1)]),
        Inst::alu(Opcode::IntAlu, Reg(4), &[Reg(3)]),
    ]
}

/// The message of a panic payload.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string panic".into())
}

/// Runs `call` on a thread of its own and returns its panic message;
/// fails if it returns, or has neither returned nor panicked within
/// [`WATCHDOG`].
fn panic_within_watchdog(what: &str, call: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(call));
        let _ = tx.send(outcome.err().map(|p| message(&*p)));
    });
    let outcome = rx.recv_timeout(WATCHDOG);
    // A caller that never answered is left behind: joining it would hang.
    if outcome.is_ok() {
        caller.join().expect("the caller caught its panic");
    }
    match outcome {
        Ok(Some(msg)) => msg,
        Ok(None) => panic!("{what}: returned instead of panicking"),
        Err(_) => panic!("{what}: no panic within {WATCHDOG:?}; a pass waits for a dead walk"),
    }
}

/// One malformed (machine, CFG, trace) and the panic message every call
/// over it must raise.
struct Malformed {
    what: &'static str,
    machine: Machine,
    cfg: Cfg,
    trace: Trace,
    says: &'static str,
}

fn malformed() -> Vec<Malformed> {
    let tail = [Inst::load(Reg(5), Reg(2), MemWidth::B4)];
    let good = looped(&body(), &tail);
    let trace = looped_trace(&good);
    assert!(
        trace.dynamic_inst_count(&good) >= FAN_OUT_MIN_INSTS,
        "long enough to stream"
    );

    // The same blocks without the tail and the exit: the trace's last
    // dynamic block lies outside the CFG.
    let mut b = CfgBuilder::new("short");
    let entry = b.block("entry");
    let body_id = b.block("body");
    let exit = b.block("exit");
    for inst in body() {
        b.push(body_id, inst);
    }
    b.edge(entry, body_id);
    b.edge(body_id, body_id);
    b.edge(body_id, exit);
    let short = b.finish(entry, exit).expect("valid cfg");

    // A tail with one load more than the trace has addresses for.
    let hungry = looped(&body(), &[tail[0].clone(), tail[0].clone()]);

    // A predictor without entries divides by zero at the first branch,
    // which only the tail holds.
    let branchy = looped(&body(), &[Inst::branch(Reg(1))]);
    let broken = SimConfig {
        predictor: PredictorConfig {
            bimodal_entries: 0,
            ..SimConfig::default().predictor
        },
        ..SimConfig::default()
    };
    vec![
        Malformed {
            what: "a dynamic block outside the CFG",
            machine: Machine::paper_default(),
            cfg: short,
            trace: trace.clone(),
            says: "index out of bounds",
        },
        Malformed {
            what: "a block with fewer addresses than memory instructions",
            machine: Machine::paper_default(),
            cfg: hungry,
            trace,
            says: "one address per memory instruction",
        },
        Malformed {
            what: "a walk that panics two segments in",
            machine: Machine::new(broken, Default::default()),
            trace: looped_trace(&branchy),
            cfg: branchy,
            says: "divisor of zero",
        },
    ]
}

#[test]
fn malformed_traces_panic_within_the_watchdog_and_never_hang() {
    let points = |n: usize| -> Vec<OperatingPoint> {
        let ladder = VoltageLadder::paper(n).expect("a paper ladder");
        ladder.iter().map(|(_, p)| p).collect()
    };
    for case in malformed() {
        let Malformed {
            what,
            machine,
            cfg,
            trace,
            says,
        } = case;
        let ladder = VoltageLadder::paper(3).expect("3 levels");
        let schedule = EdgeSchedule::uniform(&cfg, ModeId(1));
        let calls: Vec<(&str, Call<'static>)> = vec![
            ("time_points at 3 points", {
                let (m, c, t, p) = (machine.clone(), cfg.clone(), trace.clone(), points(3));
                Box::new(move || drop(m.time_points(&c, &t, &p)))
            }),
            ("time_points at 13 points", {
                let (m, c, t, p) = (machine.clone(), cfg.clone(), trace.clone(), points(13));
                Box::new(move || drop(m.time_points(&c, &t, &p)))
            }),
            ("run_points", {
                let (m, c, t, p) = (machine.clone(), cfg.clone(), trace.clone(), points(3));
                Box::new(move || drop(m.run_points(&c, &t, &p)))
            }),
            ("run_scheduled", {
                let (m, c, t) = (machine.clone(), cfg.clone(), trace.clone());
                Box::new(move || {
                    let _ = m.run_scheduled(&c, &t, &ladder, &schedule, &TransitionModel::free());
                })
            }),
        ];
        for (call, run) in calls {
            let msg = panic_within_watchdog(&format!("{what}, {call}"), run);
            assert!(
                msg.contains(says),
                "{what}, {call}: panicked with `{msg}`, not the walk's `{says}`"
            );
        }
    }
}

/// Per call: (`sim.walks`, `sim.runs`, `sim.scheduled_runs`) and the
/// counts of the `sim.record`, `sim.run` and `sim.run_scheduled` spans.
type Counts = ([u64; 3], [u64; 3]);

/// The [`Counts`] of one call, in a domain of its own.
fn counted(call: impl FnOnce()) -> Counts {
    let domain = obs::register_domain("sim-stream-call");
    {
        let _domain = obs::enter_domain(domain);
        call();
    }
    let m = obs::MetricsSnapshot::capture_domain(domain);
    let span = |name: &str| {
        m.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count)
    };
    (
        ["sim.walks", "sim.runs", "sim.scheduled_runs"].map(|c| m.counter(c)),
        ["sim.record", "sim.run", "sim.run_scheduled"].map(span),
    )
}

#[test]
fn every_call_counts_its_walk_passes_and_spans_streamed_or_walked_first() {
    let machine = Machine::paper_default();
    let ladder = VoltageLadder::paper(3).expect("3 levels");
    let points: Vec<OperatingPoint> = ladder.iter().map(|(_, p)| p).collect();
    let cfg = looped(&body(), &[Inst::branch(Reg(1))]);
    let long = looped_trace(&cfg);
    // The same loop run a few times: under the fan-out bound.
    let short = {
        let [entry, body, tail, exit] =
            ["entry", "body", "tail", "exit"].map(|l| cfg.block_by_label(l).expect("a block"));
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(entry, vec![]);
        for _ in 0..10 {
            tb.step(body, vec![0x4_0000]);
        }
        tb.step(tail, vec![]).step(exit, vec![]);
        tb.finish().expect("valid trace")
    };
    assert!(long.dynamic_inst_count(&cfg) >= FAN_OUT_MIN_INSTS);
    assert!(short.dynamic_inst_count(&cfg) < FAN_OUT_MIN_INSTS);
    let cfg = &cfg;
    let schedule = EdgeSchedule::uniform(cfg, ModeId(2));

    obs::enable();
    for (trace, how) in [(&long, "streamed"), (&short, "walked first")] {
        let tm = TransitionModel::free();
        let calls: [(&str, Call, Counts); 5] = [
            // The three points in one lockstep pass.
            (
                "time_points",
                Box::new(|| drop(machine.time_points(cfg, trace, &points))),
                ([1, 3, 0], [1, 1, 0]),
            ),
            // Two points in lockstep, and the classified one alone.
            (
                "time_points_classifying",
                Box::new(|| drop(machine.time_points_classifying(cfg, trace, &points, 2))),
                ([1, 3, 0], [1, 2, 0]),
            ),
            (
                "run_points",
                Box::new(|| drop(machine.run_points(cfg, trace, &points))),
                ([1, 3, 0], [1, 3, 0]),
            ),
            (
                "run",
                Box::new(|| drop(machine.run(cfg, trace, points[0]))),
                ([1, 1, 0], [1, 1, 0]),
            ),
            (
                "run_scheduled",
                Box::new(|| {
                    let _ = machine.run_scheduled(cfg, trace, &ladder, &schedule, &tm);
                }),
                ([1, 0, 1], [1, 0, 1]),
            ),
        ];
        for (call, run, want) in calls {
            assert_eq!(counted(run), want, "{call}, {how}: counters and spans");
        }
    }
    obs::disable();
}
