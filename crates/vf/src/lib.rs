//! Voltage/frequency physics for dynamic voltage scaling (DVS).
//!
//! This crate implements the circuit-level relationships that the rest of the
//! reproduction builds on:
//!
//! * the **alpha-power law** relating supply voltage to achievable clock
//!   frequency, `f = k (v - vt)^a / v` (Sakurai–Newton), used by the paper
//!   with `a = 1.5` and `vt = 0.45 V`;
//! * **operating points** — paired `(V, f)` settings — and **ladders** of
//!   discrete settings such as the XScale-like 3-level ladder
//!   (200 MHz @ 0.7 V, 600 MHz @ 1.3 V, 800 MHz @ 1.65 V) and interpolated
//!   7- and 13-level ladders;
//! * the **regulator transition-cost model** (Burd–Brodersen) giving the
//!   energy and time cost of switching between two operating points:
//!   `SE = (1 - u) · c · |v_i² - v_j²|` and `ST = (2c / IMAX) · |v_i - v_j|`.
//!
//! All quantities use SI-derived units that keep the numbers in a pleasant
//! range for the paper's scale: **volts**, **megahertz**, **microseconds**
//! and **microjoules**.
//!
//! # Example
//!
//! ```
//! use dvs_vf::{AlphaPower, VoltageLadder, TransitionModel};
//!
//! let law = AlphaPower::paper();
//! let ladder = VoltageLadder::xscale3(&law);
//! assert_eq!(ladder.len(), 3);
//! assert!((ladder.fastest().frequency_mhz - 800.0).abs() < 1e-9);
//!
//! // Paper's "typical" regulator: c = 10 µF gives a 12 µs / 1.2 µJ cost for
//! // a 1.3 V -> 0.7 V transition.
//! let tm = TransitionModel::with_capacitance_uf(10.0);
//! let st = tm.time_us(1.3, 0.7);
//! let se = tm.energy_uj(1.3, 0.7);
//! assert!((st - 12.0).abs() < 1e-9);
//! assert!((se - 1.2).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alpha_power;
mod error;
mod ladder;
mod point;
mod transition;

pub use alpha_power::AlphaPower;
pub use error::VfError;
pub use ladder::VoltageLadder;
pub use point::{ModeId, OperatingPoint};
pub use transition::TransitionModel;
