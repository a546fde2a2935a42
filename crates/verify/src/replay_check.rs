//! Dynamic replay check: scores the schedule on a concrete trace via the
//! `dvs-replay` bytecode fast path, optionally cross-checked against the
//! cycle-level simulator.
//!
//! The static pass in this crate models time from profile tables; this
//! module complements it with *measured* time/energy for one input. The
//! bytecode interpreter is the default evaluator, though it saves little
//! on one schedule: on the bundled traces a replay takes two fifths to a
//! half of a `run_scheduled`, after a compile that costs two to three. With
//! `oracle` enabled the full simulator replays the same schedule and any
//! disagreement beyond 1e-6 relative is reported — the oracle hierarchy's
//! "trust but verify" rung between the bytecode and the MILP prediction.

use dvs_sim::{EdgeSchedule, Machine, ScheduledRun, Trace};
use dvs_vf::{TransitionModel, VoltageLadder};

/// Tolerance of the bytecode-vs-simulator cross-check, relative.
pub const REPLAY_ORACLE_REL: f64 = 1e-6;

/// Outcome of replaying a schedule on one trace.
#[derive(Debug, Clone)]
pub struct ReplayCheck {
    /// The bytecode evaluation (the fast path's answer).
    pub run: ScheduledRun,
    /// Whether the cycle-level simulator was consulted as an oracle.
    pub oracle_checked: bool,
    /// Fields where the bytecode and the simulator disagreed beyond
    /// [`REPLAY_ORACLE_REL`] — empty means the fast path is certified for
    /// this trace. Always empty when `oracle_checked` is `false`.
    pub disagreements: Vec<String>,
}

impl ReplayCheck {
    /// `true` when no oracle disagreement was observed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Replays `schedule` over `trace` via compiled bytecode; when `oracle` is
/// set, also replays it on the cycle-level simulator and records any field
/// diverging beyond [`REPLAY_ORACLE_REL`].
///
/// # Panics
///
/// Panics if the schedule does not cover every CFG edge or the trace is
/// inconsistent with `cfg` (same contracts as the simulator).
#[must_use]
pub fn replay_check(
    machine: &Machine,
    cfg: &dvs_ir::Cfg,
    trace: &Trace,
    ladder: &VoltageLadder,
    transition: &TransitionModel,
    schedule: &EdgeSchedule,
    oracle: bool,
) -> ReplayCheck {
    let code = dvs_replay::compile(machine, cfg, trace, ladder, transition);
    let run = code.replay(schedule);
    let mut disagreements = Vec::new();
    if oracle {
        let sim = machine.run_scheduled(cfg, trace, ladder, schedule, transition);
        let fields = [
            ("time_us", run.time_us, sim.time_us),
            (
                "processor_energy_uj",
                run.processor_energy_uj,
                sim.processor_energy_uj,
            ),
            ("dram_energy_uj", run.dram_energy_uj, sim.dram_energy_uj),
            (
                "transition_energy_uj",
                run.transition_energy_uj,
                sim.transition_energy_uj,
            ),
            (
                "transition_time_us",
                run.transition_time_us,
                sim.transition_time_us,
            ),
        ];
        for (name, got, want) in fields {
            if (got - want).abs() > REPLAY_ORACLE_REL * want.abs().max(1e-9) {
                disagreements.push(format!("{name}: bytecode {got:.9} vs simulator {want:.9}"));
            }
        }
        if run.transitions != sim.transitions {
            disagreements.push(format!(
                "transitions: bytecode {} vs simulator {}",
                run.transitions, sim.transitions
            ));
        }
    }
    ReplayCheck {
        run,
        oracle_checked: oracle,
        disagreements,
    }
}
