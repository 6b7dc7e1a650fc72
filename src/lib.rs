//! Facade crate re-exporting the full `recharge` workspace API.
//!
//! See the individual crates for details; `recharge::prelude` pulls in the
//! most commonly used types.

#![forbid(unsafe_code)]

pub use recharge_battery as battery;
pub use recharge_core as core;
pub use recharge_dynamo as dynamo;
pub use recharge_net as net;
pub use recharge_power as power;
pub use recharge_reliability as reliability;
pub use recharge_sim as sim;
pub use recharge_telemetry as telemetry;
pub use recharge_trace as trace;
pub use recharge_units as units;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use recharge_units::{
        Amperes, BbuId, DeviceId, Dod, Fraction, Joules, Ohms, Priority, RackId, Seconds, SimTime,
        Soc, Volts, Watts,
    };
}
