//! The paper's contribution: compile-time placement of DVS mode-set
//! instructions by profile-driven mixed-integer linear programming.
//!
//! Pipeline (Fig. 13 of the paper):
//!
//! 1. **Profile** the program once per DVS mode on the cycle-level
//!    simulator ([`dvs_sim::ModeProfiler`]) to obtain per-block time/energy
//!    `T(j,m)`, `E(j,m)`, edge counts `G(i,j)` and local-path counts
//!    `D(h,i,j)`.
//! 2. **Filter** edges whose destination energy falls in the cumulative 2%
//!    tail, tying each to its source block's hottest incoming edge
//!    ([`EdgeFilter`]) — this shrinks the MILP without violating deadlines.
//! 3. **Formulate** the MILP of §4.2 ([`MilpFormulation`]): binary mode
//!    variables `k(i,j,m)` per (representative) edge, regulator transition
//!    costs `SE`/`ST` charged per local path through auxiliary
//!    absolute-value variables, one deadline constraint.
//! 4. **Solve** with [`dvs_milp::solve`] and extract an
//!    [`dvs_sim::EdgeSchedule`], plus a hoisting post-pass that identifies
//!    statically silent mode-sets ([`ScheduleAnalysis`]).
//!
//! Also provided: the multi-input-category formulation of §4.3
//! ([`MultiCategory`]), which is the same §4.2 model assembly taken over
//! several categories' profiles, each weighted in the objective and held to
//! its own deadline row; the baselines the paper compares against
//! ([`baseline`]), the Fig. 16 deadline-selection scheme
//! ([`DeadlineScheme`]), and the bridge from simulator runs to the
//! analytical model's program parameters ([`analyze_params`]).
//!
//! # Example
//!
//! ```
//! use dvs_compiler::DvsCompiler;
//! use dvs_ir::{CfgBuilder, Inst, Opcode, Reg};
//! use dvs_sim::{Machine, TraceBuilder};
//! use dvs_vf::{AlphaPower, TransitionModel, VoltageLadder};
//!
//! // A two-block loop program and one execution of it.
//! let mut b = CfgBuilder::new("demo");
//! let entry = b.block("entry");
//! let work = b.block("work");
//! let exit = b.block("exit");
//! for _ in 0..8 {
//!     b.push(work, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1)]));
//! }
//! b.edge(entry, work);
//! b.edge(work, work);
//! b.edge(work, exit);
//! let cfg = b.finish(entry, exit).unwrap();
//! let mut tb = TraceBuilder::new(&cfg);
//! tb.step(entry, vec![]);
//! for _ in 0..50 {
//!     tb.step(work, vec![]);
//! }
//! tb.step(exit, vec![]);
//! let trace = tb.finish().unwrap();
//!
//! // Profile and compile against a deadline between all-fast and all-slow.
//! let compiler = DvsCompiler::builder(
//!     Machine::paper_default(),
//!     VoltageLadder::xscale3(&AlphaPower::paper()),
//!     TransitionModel::with_capacitance_uf(0.01),
//! )
//! .build()
//! .unwrap();
//! let (profile, runs) = compiler.profile(&cfg, &trace);
//! let deadline = runs.last().unwrap().total_time_us * 1.5;
//! let result = compiler.compile(&cfg, &profile, deadline).unwrap();
//! assert!(result.milp.predicted_time_us <= deadline);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
pub mod baseline;
mod deadline;
mod emit;
mod error;
mod filter;
pub mod fingerprint;
mod formulate;
#[cfg(test)]
mod formulate_tests;
mod multi;
mod pass;
mod schedule;

pub use analyze::analyze_params;
pub use baseline::{lee_sakurai, LeeSakurai};
pub use deadline::DeadlineScheme;
pub use dvs_milp::SolverChoice;
pub use emit::{emit_instrumented, EmitStats};
pub use error::PassError;
pub use filter::EdgeFilter;
pub use formulate::{CertifyOutcome, Granularity, MilpFormulation, MilpOutcome};
pub use multi::{CategoryProfile, MultiCategory, MultiOutcome};
pub use pass::{CompileResult, CompilerBuilder, DvsCompiler};
pub use schedule::ScheduleAnalysis;
