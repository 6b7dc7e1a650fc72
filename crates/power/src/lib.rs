//! The data-center power-delivery hierarchy of §II-A: a tree of circuit
//! breakers (MSB → SB → RPP) feeding racks, with breaker trip modelling.
//!
//! # Architecture
//!
//! * [`Breaker`] — a circuit breaker with a power limit and a
//!   sustained-overload trip integrator (a 30% overdraw sustained for 30 s
//!   trips the breaker, §I).
//! * [`Topology`] / [`TopologyBuilder`] — an arena-allocated device tree with
//!   per-device breakers and racks attached at the leaves.
//! * [`facebook`] — constructors for the canonical Facebook/OCP hierarchy
//!   (MSB 2.5 MW → SB 1.25 MW → RPP 190 kW → 12.6 kW racks).
//!
//! An open transition (§II-C) de-energizes every rack below a device for a
//! few seconds; the simulator models it as a window of its input-power
//! schedule rather than as a type here.
//!
//! # Examples
//!
//! ```
//! use recharge_power::facebook;
//! use recharge_units::Watts;
//!
//! // One MSB with 316 racks, as in the paper's §V-B evaluation.
//! let plan = facebook::single_msb(316);
//! assert_eq!(plan.racks.len(), 316);
//! let msb = plan.msb;
//! assert_eq!(plan.topology.device(msb).unwrap().limit(), Some(Watts::from_megawatts(2.5)));
//!
//! // An open transition at the MSB affects every rack under it.
//! assert_eq!(plan.topology.racks_under(msb).len(), 316);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod device;
pub mod facebook;
mod topology;

pub use breaker::{Breaker, BreakerStatus, TripCurve};
pub use device::{Device, DeviceKind};
pub use topology::{Topology, TopologyBuilder, TopologyError};
