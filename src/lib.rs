//! Facade crate: re-exports the full compile-time DVS reproduction API.
//!
//! Each subsystem is reachable as a module (`compiler`, `sim`, ...); the
//! [`prelude`] flattens the handful of cross-crate types almost every user
//! touches into one import.
pub mod bench;
pub mod bench_replay;
pub mod bench_solver;

pub use dvs_cert as cert;
pub use dvs_check as check;
pub use dvs_compiler as compiler;
pub use dvs_ir as ir;
pub use dvs_milp as milp;
pub use dvs_model as model;
pub use dvs_obs as obs;
pub use dvs_replay as replay;
pub use dvs_runtime as runtime;
pub use dvs_serve as serve;
pub use dvs_sim as sim;
pub use dvs_verify as verify;
pub use dvs_vf as vf;
pub use dvs_workloads as workloads;

/// The commonly-used cross-crate surface in one import:
///
/// ```
/// use compile_time_dvs::prelude::*;
///
/// let compiler = DvsCompiler::builder(
///     Machine::paper_default(),
///     VoltageLadder::xscale3(&AlphaPower::paper()),
///     TransitionModel::with_capacitance_uf(0.05),
/// )
/// .build()
/// .unwrap();
/// let _ = compiler.ladder();
/// ```
pub mod prelude {
    pub use dvs_check::{run_check, CheckConfig, CheckReport, Tolerances};
    pub use dvs_compiler::{
        analyze_params, baseline, CompileResult, CompilerBuilder, DeadlineScheme, DvsCompiler,
        MilpFormulation, PassError,
    };
    pub use dvs_ir::{Cfg, CfgBuilder, Inst, MemWidth, Opcode, Profile, Reg};
    pub use dvs_model::{ContinuousModel, DiscreteModel, ProgramParams};
    pub use dvs_sim::{EdgeSchedule, Machine, ModeProfiler, Trace, TraceBuilder};
    pub use dvs_verify::{verify, VerifyInput, VerifyReport};
    pub use dvs_vf::{AlphaPower, ModeId, OperatingPoint, TransitionModel, VoltageLadder};
    pub use dvs_workloads::Benchmark;
}
