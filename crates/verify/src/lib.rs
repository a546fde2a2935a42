//! Static verification of compile-time DVS schedules.
//!
//! The MILP (paper §4–§5) and the emit pass place mode-set instructions on
//! CFG edges using *profile* weights; the dynamic oracles in `dvs-check`
//! validate schedules only on specific traces. This crate closes the gap
//! with a classic static-analysis pass over `(Cfg, Profile, Schedule)`:
//!
//! * [`ModeFlow`] — a forward meet-over-all-paths dataflow over possible-
//!   mode sets proving **mode confluence** (every path reaching an elided
//!   mode-set is already in its scheduled mode, so the emitted binary
//!   never runs a block off-schedule), run twice: once over all CFG paths
//!   and once restricted to profile-executed local paths;
//! * [`compute_wcet`] — a **worst-case deadline check**: longest path over
//!   the loop-collapsed DAG with per-block times at every mode the
//!   dataflow admits, profile-derived trip bounds, and `ST` switch time
//!   on emitted edges;
//! * [`verify`] — the full lint set with stable codes `V001`–`V009`
//!   ([`DiagCode`]), from redundant/dead mode-sets through loop mode
//!   churn to deadline violations, rendered as text or JSON.
//!
//! Severity is deliberate: only provable defects (executed-path mode
//! conflicts, flow corruption, modeled deadline misses) are
//! [`Severity::Error`] and gate `dvsc verify --deny`; everything the
//! compiler legitimately produces (cold-path ambiguity, conservative WCET
//! overruns) stays a warning or info.
//!
//! ```
//! use dvs_ir::{CfgBuilder, ProfileBuilder, BlockModeCost};
//! use dvs_sim::EdgeSchedule;
//! use dvs_vf::{AlphaPower, ModeId, TransitionModel, VoltageLadder};
//! use dvs_verify::{verify, VerifyInput};
//!
//! let mut b = CfgBuilder::new("g");
//! let e = b.block("entry");
//! let x = b.block("exit");
//! b.edge(e, x);
//! let cfg = b.finish(e, x).unwrap();
//! let mut pb = ProfileBuilder::new(&cfg, 2);
//! for blk in [e, x] {
//!     for m in 0..2 {
//!         pb.set_block_cost(blk, m, BlockModeCost { time_us: 1.0, energy_uj: 1.0 });
//!     }
//! }
//! pb.record_walk(&cfg, &[e, x]);
//! let profile = pb.finish();
//! let ladder = VoltageLadder::from_frequencies(&AlphaPower::paper(), &[100.0, 200.0]).unwrap();
//! let report = verify(&VerifyInput {
//!     cfg: &cfg,
//!     profile: &profile,
//!     ladder: &ladder,
//!     transition: &TransitionModel::free(),
//!     schedule: &EdgeSchedule::uniform(&cfg, ModeId(1)),
//!     emitted: None,
//!     deadline_us: Some(10.0),
//! });
//! assert!(report.ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
mod diag;
mod verifier;
mod wcet;

pub use dataflow::ModeFlow;
pub use diag::{DiagCode, Diagnostic, Severity};
pub use verifier::{verify, VerifyInput, VerifyReport};
pub use wcet::{compute_wcet, WcetReport};
