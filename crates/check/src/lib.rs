//! Property-based differential testing for the DVS compiler pipeline.
//!
//! This crate is the repo's answer to "how do we know the MILP is right?".
//! It generates random-but-valid compiler inputs from a `u64` seed, runs
//! the full profile → formulate → solve → emit pipeline on each, and
//! cross-checks the result against three independent oracles:
//!
//! * **brute force** — on small CFGs, exhaustively enumerate every
//!   assignment of modes to edge groups and compare optima and feasibility
//!   verdicts ([`OracleKind::BruteForce`]);
//! * **continuous lower bounds** — the LP relaxation of the very model the
//!   solver branched on must lower-bound the integral objective, and the
//!   paper's §3 continuous analytical solution must dominate the discrete
//!   one for compute-bound programs ([`OracleKind::ContinuousLower`]);
//! * **simulator replay** — the emitted schedule, replayed on the
//!   cycle-level simulator, must meet the deadline and land near the
//!   predicted energy ([`OracleKind::SimReplay`]);
//! * **optimality certificates** — a certifying solve must produce a proof
//!   the independent `dvs-cert` checker accepts, and seeded corruptions of
//!   that proof ([`Mutation`]) must each be rejected with the expected
//!   code ([`OracleKind::Certificate`]).
//!
//! Failures shrink automatically: every random choice is recorded on a
//! tape ([`Gen`]), the shrinker ([`shrink_tape`]) deletes, zeroes and
//! minimizes tape entries while the case keeps failing, and the result is
//! a minimal counterexample reproducible from a single `dvsc check
//! --seed-base N` invocation.
//!
//! # Example
//!
//! ```
//! use dvs_check::{run_check, CheckConfig, Tolerances};
//!
//! let report = run_check(
//!     &CheckConfig {
//!         seeds: 4,
//!         seed_base: 42,
//!         max_blocks: 4,
//!         ..CheckConfig::default()
//!     },
//!     &Tolerances::default(),
//! );
//! assert!(report.ok(), "{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cases;
mod gen;
mod mutate;
mod oracle;
mod runner;
mod shrink;

pub use cases::{
    gen_case, gen_cfg, gen_deadline, gen_ladder, gen_long_trace, gen_trace, gen_transition,
    CaseSpec, CheckCase, DeadlineSpec,
};
pub use gen::Gen;
pub use mutate::Mutation;
pub use oracle::{
    run_case, run_tape, schedule_cost, CaseOutcome, Disagreement, OracleKind, Tolerances,
};
pub use runner::{run_check, CheckConfig, CheckReport, Counterexample};
pub use shrink::{shrink_tape, ShrinkResult};
