//! Cycle-level CPU simulation substrate for the compile-time DVS study.
//!
//! The paper gathers its profiles with Wattch (a power-model layer over
//! SimpleScalar's out-of-order simulator). This crate rebuilds that
//! substrate from scratch, at the fidelity the paper's experiments actually
//! consume:
//!
//! * [`CacheSim`]/[`MemoryHierarchy`]: set-associative LRU caches (L1 I/D,
//!   unified L2, I/D TLBs) in the paper's Table 2 configuration, backed by
//!   an **asynchronous main memory** whose service time is absolute
//!   (µs) rather than measured in CPU cycles — the property all of the
//!   paper's analysis rests on;
//! * [`BranchPredictor`]: the combined bimodal + two-level predictor with
//!   chooser and BTB from Table 2;
//! * [`Recording`]: one walk of the caches, TLBs and predictor over a
//!   [`Trace`] ([`Machine::record`]). Their outcomes do not depend on the
//!   clock, so every timing pass of a call reads them from this record,
//!   and can start before the walk ends: the walk publishes it in
//!   segments of [`SEGMENT_BLOCKS`] dynamic blocks;
//! * [`Machine`]: a dataflow out-of-order timing model (RUU/LSQ windows,
//!   4-wide fetch/issue/commit, per-class functional units) that times a
//!   recorded trace at one or more [`dvs_vf::OperatingPoint`]s and produces
//!   per-block time/energy, using a Wattch-style activity-based `C·V²`
//!   energy model with perfect clock gating on memory stalls. A pass
//!   either classifies the cycles of its one point for the analytical
//!   model ([`Machine::run_points`], [`RunStats`]) or keeps only times,
//!   energy and event counts ([`Machine::time_points`], [`TimedRun`]),
//!   which is all a profile or a deadline reads, for up to [`LANES`]
//!   points at once: every branch of the pipeline step reads only the
//!   instruction and its recorded outcome, so the points share it and
//!   differ only in their f64 lanes;
//! * [`ModeProfiler`]: times the trace at every DVS mode from one walk to
//!   assemble the [`dvs_ir::Profile`] the MILP consumes, and gives the
//!   fastest mode's classified run for the analytical model's program
//!   parameters (`Noverlap`, `Ndependent`, `Ncache`, `tinvariant`);
//! * [`ScheduledRun`]: re-times a recorded trace under a per-edge DVS
//!   schedule, charging regulator transition costs, to *validate* MILP
//!   output against the simulator rather than against the MILP's own
//!   objective. [`ScheduledPass`] is that pass in progress, which the
//!   `dvs-replay` bytecode drives too. Every timing pass steps through
//!   one pipeline recurrence, in cycles or in µs at each block's period.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod dvs_exec;
mod energy;
mod hierarchy;
mod machine;
mod pipeline;
mod predictor;
mod profiler;
mod record;
mod trace;

pub use cache::{AccessOutcome, CacheConfig, CacheSim, CacheStats};
pub use config::SimConfig;
pub use dvs_exec::{EdgeSchedule, ScheduledPass, ScheduledRun};
pub use energy::{ClockGating, EnergyBreakdown, EnergyModel};
pub use hierarchy::{DataLevel, MemoryHierarchy};
pub use machine::{BlockStats, Machine, PointRun, RunStats, TimedRun, FAN_OUT_MIN_INSTS};
pub use pipeline::{FRONTEND_DEPTH, LANES};
pub use predictor::{BranchPredictor, PredictorConfig};
pub use profiler::{ModeProfiler, ProgramParams};
pub use record::{Access, Decoded, InstOutcome, Recording, SEGMENT_BLOCKS};
pub use trace::{DynBlock, Trace, TraceBuilder};
