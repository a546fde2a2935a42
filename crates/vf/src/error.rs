use std::fmt;

/// Errors produced when constructing voltage/frequency abstractions.
#[derive(Debug, Clone, PartialEq)]
pub enum VfError {
    /// A supply voltage at or below the threshold voltage cannot clock the
    /// device at any frequency.
    VoltageBelowThreshold {
        /// The offending supply voltage, in volts.
        voltage: f64,
        /// The device threshold voltage, in volts.
        threshold: f64,
    },
    /// A requested frequency is outside the range achievable over the
    /// ladder's voltage span.
    FrequencyOutOfRange {
        /// The requested frequency in MHz.
        frequency_mhz: f64,
    },
    /// A ladder needs at least two distinct operating points.
    LadderTooSmall {
        /// Number of levels requested.
        levels: usize,
    },
    /// More levels than [`crate::VoltageLadder::paper`] builds (see
    /// [`crate::VoltageLadder::MAX_PAPER_LEVELS`]).
    LadderTooLarge {
        /// Number of levels requested.
        levels: usize,
        /// The largest ladder allowed.
        max: usize,
    },
    /// Operating points must be strictly increasing in both voltage and
    /// frequency.
    NonMonotonicLadder,
    /// A physical parameter (capacitance, current, efficiency, ...) was not
    /// strictly positive or lay outside its valid interval.
    InvalidParameter {
        /// Human-readable name of the parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Serialized form could not be parsed or is missing fields.
    Malformed(String),
}

impl fmt::Display for VfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfError::VoltageBelowThreshold { voltage, threshold } => write!(
                f,
                "supply voltage {voltage} V is at or below the threshold {threshold} V"
            ),
            VfError::FrequencyOutOfRange { frequency_mhz } => {
                write!(f, "frequency {frequency_mhz} MHz is not achievable")
            }
            VfError::LadderTooSmall { levels } => {
                write!(f, "a voltage ladder needs at least 2 levels, got {levels}")
            }
            VfError::LadderTooLarge { levels, max } => {
                write!(f, "a voltage ladder has at most {max} levels, got {levels}")
            }
            VfError::NonMonotonicLadder => {
                write!(f, "operating points must increase in voltage and frequency")
            }
            VfError::InvalidParameter { name, value } => {
                write!(f, "invalid value {value} for parameter `{name}`")
            }
            VfError::Malformed(m) => write!(f, "malformed serialization: {m}"),
        }
    }
}

impl std::error::Error for VfError {}
