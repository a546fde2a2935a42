//! Schedule bytecode: a compact linear program compiled from one trace
//! executed on one machine, evaluated by a batched interpreter.
//!
//! The cycle-level simulator ([`dvs_sim::Machine::run_scheduled`]) walks
//! the memory hierarchy and branch predictor once per schedule it
//! evaluates, yet those structures never observe the schedule: cache and
//! TLB outcomes depend only on the address stream, branch outcomes only on
//! the pc/taken stream, and *timing* is the only thing a DVS mode changes.
//! The compiler in this crate keeps one walk's
//! [`dvs_sim::Recording::steps`] (each dynamic instruction, decoded, with
//! its outcomes), interns them by block occurrence, and emits a linear
//! bytecode. The interpreter runs dvs-sim's step: it feeds the stored
//! steps to a [`dvs_sim::ScheduledPass`], the pass `run_scheduled` drives.
//!
//! Guarantees relative to the simulator (see `tests/replay_differential.rs`
//! at the workspace root for the fuzzed proof):
//!
//! * `time_us`, `transition_*` and `transitions` are **bit-identical**:
//!   both run the same pipeline step and mode switch over the same
//!   outcomes.
//! * `processor_energy_uj` agrees to ~1e-15 relative: energy terms are
//!   pre-summed per block occurrence as switched capacitance and scaled by
//!   `V²` at replay time, which reassociates the simulator's sum but
//!   changes no term.
//! * `dram_energy_uj` is schedule-independent and baked in at compile time,
//!   accumulated in trace order so it, too, is bit-identical.
//!
//! The bytecode is three tables:
//!
//! * **variants** — deduplicated per-occurrence step sequences (a loop
//!   body that hits L1 on every warm iteration compiles to one shared
//!   variant), each carrying its pre-summed switched capacitance;
//! * **block ops** — the trace as `(arrival edge, variant, trip count)`
//!   triples, run-length-encoded over consecutive repeats (self-loops);
//! * **mode tables** — per-mode period/`V²` and the regulator's full
//!   `modes × modes` transition time/energy matrices.
//!
//! Evaluating a schedule touches no allocator beyond its pass state, no
//! cache model and no predictor: it is a single pass over the block-op
//! stream. [`ReplayBytecode::replay_batch`] amortizes that pass across
//! many schedules of one trace.

mod bytecode;
mod compile;
mod interp;

pub use bytecode::{ReplayBytecode, ReplayStats};
pub use compile::compile;

#[cfg(test)]
mod tests;
