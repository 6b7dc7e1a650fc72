//! Rack power traces: the §V-B evaluation substrate.
//!
//! The paper replays a production rack power trace (316 racks under one MSB,
//! 3-second granularity, diurnal 1.9–2.1 MW aggregate — Fig 12). Production
//! traces are not publicly available, so this crate provides a calibrated
//! **synthetic generator** with the same shape, and a campus of such rows
//! for fleet-scale runs.
//!
//! # Examples
//!
//! ```
//! use recharge_trace::{RackPowerTrace, SyntheticFleet};
//! use recharge_units::SimTime;
//!
//! // The paper's MSB: 89 P1 + 142 P2 + 85 P3 racks at ≈2 MW aggregate.
//! let fleet = SyntheticFleet::paper_msb(42);
//! let total = fleet.aggregate_power(SimTime::ZERO);
//! assert!((1.8..2.2).contains(&total.as_megawatts()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campus;
mod model;
mod oversub;
mod stats;
mod synth;

pub use campus::{CampusFleet, CampusFleetBuilder};
pub use model::{DiurnalModel, FleetEntry, RackPowerTrace};
pub use oversub::{analyze_oversubscription, max_safe_racks, OversubscriptionReport};
pub use stats::{find_peak, sample_aggregate, TracePoint};
pub use synth::{LoadAt, SyntheticFleet, SyntheticFleetBuilder};
