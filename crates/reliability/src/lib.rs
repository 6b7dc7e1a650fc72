//! Monte-Carlo reliability modelling of rack input power (§IV-A).
//!
//! The paper derives per-priority battery charging-time SLAs from the
//! *availability of redundancy* (AOR): the fraction of time a rack's battery
//! is fully charged. This crate reproduces that analysis:
//!
//! * [`table1`] — the published component failure/repair data (Table I).
//! * [`dist`] — the distributional assumptions (exponential failures and
//!   repairs, normal annual maintenance, exponential 45-second open
//!   transitions), implemented directly over [`rand`] since `rand_distr` is
//!   outside the approved dependency set.
//! * [`AorSimulation`] — samples failure events over a horizon of up to 10⁵
//!   years and reduces them to a merged timeline of rack-input-power-loss
//!   intervals.
//! * [`PowerLossTimeline::aor`] — evaluates AOR for any battery charging time
//!   over that common event stream, yielding the Fig 9(a) curve.
//!
//! # Examples
//!
//! ```
//! use recharge_reliability::{AorSimulation, table1};
//! use recharge_units::Seconds;
//!
//! let sim = AorSimulation::new(table1::standard_sources());
//! let timeline = sim.run(1_000.0, 42);
//! let aor_30 = timeline.aor(Seconds::from_minutes(30.0));
//! let aor_90 = timeline.aor(Seconds::from_minutes(90.0));
//! assert!(aor_30 > aor_90); // slower charging → less redundancy
//! assert!(aor_30 > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aor;
pub mod dist;
mod physical;
pub mod table1;

pub use aor::{AorCurve, AorSimulation, PowerLossTimeline};
pub use physical::{PhysicalAorReport, PhysicalAorSimulation};
pub use table1::{Component, FailureSource, FailureType};
