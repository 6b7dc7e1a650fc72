//! Typed physical quantities, identifiers, and service priorities used across the
//! `recharge` workspace.
//!
//! The data-center battery-charging domain mixes many physically distinct `f64`
//! quantities: wall power in watts, battery energy in joules, charging current in
//! amperes, depth of discharge as a fraction, and simulated time in seconds. This
//! crate gives each of them a dedicated newtype so that the compiler rejects unit
//! confusion (multiplying volts by volts, comparing watts to amperes, and so on),
//! following the newtype guidance of the Rust API guidelines (C-NEWTYPE).
//!
//! # Examples
//!
//! ```
//! use recharge_units::{Amperes, Volts, Watts, Seconds};
//!
//! // Ohm's-law style arithmetic is expressed through operator overloads that
//! // produce the physically correct result type.
//! let charging_power: Watts = Volts::new(52.0) * Amperes::new(5.0);
//! assert_eq!(charging_power, Watts::new(260.0));
//!
//! // Power integrated over time yields energy.
//! let energy = charging_power * Seconds::from_minutes(1.0);
//! assert!((energy.as_joules() - 15_600.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod electrical;
mod energy;
mod fraction;
mod ids;
mod macros;
mod power;
mod priority;
mod time;

pub use electrical::{Amperes, Ohms, Volts};
pub use energy::Joules;
pub use fraction::{Dod, Fraction, Soc};
pub use ids::{BbuId, DeviceId, RackHasher, RackId, RackMap};
pub use power::Watts;
pub use priority::{ParsePriorityError, Priority};
pub use time::{Seconds, SimTime};
