//! Coordinated priority-aware battery charging (§IV of the paper).
//!
//! This crate is the paper's primary contribution, as a pure algorithm
//! library:
//!
//! * [`SlaTable`] — the per-priority charging-time SLAs of Table II
//!   (P1: 30 min, P2: 60 min, P3: 90 min).
//! * [`SlaCurrentPolicy`] — Fig 9(b): the charging current a rack needs to
//!   meet its SLA given its battery depth of discharge, obtained by inverting
//!   the Fig 5 charge-time surface, with per-priority hardware floors.
//! * [`RechargePowerModel`] — rack recharge power as a function of charging
//!   current (≈0.37 kW per ampere with the calibrated battery).
//! * [`assign_priority_aware`] — **Algorithm 1**, the
//!   highest-priority-lowest-discharge-first assignment under an available
//!   power budget.
//! * [`throttle_on_overload`] — the reverse
//!   (lowest-priority-highest-discharge-first) throttling pass used when a
//!   breaker overloads mid-charge.
//! * [`ChargeIndex`] — an incrementally maintained (priority, DOD-bucket)
//!   ordering of the fleet, fed by battery-state deltas, that lets the
//!   `_indexed` variants of both passes skip the per-tick `O(n log n)` sort.
//! * [`assign_global`] — the priority-oblivious equal-rate baseline the paper
//!   compares against (§V-B3).
//!
//! # Examples
//!
//! ```
//! use recharge_core::{assign_priority_aware, RackChargeState, RechargePowerModel, SlaCurrentPolicy};
//! use recharge_units::{Dod, Priority, RackId, Watts};
//!
//! let policy = SlaCurrentPolicy::production();
//! let model = RechargePowerModel::production();
//! let racks = vec![
//!     RackChargeState { rack: RackId::new(0), priority: Priority::P1, dod: Dod::new(0.4) },
//!     RackChargeState { rack: RackId::new(1), priority: Priority::P3, dod: Dod::new(0.9) },
//! ];
//! let outcome = assign_priority_aware(&racks, Watts::from_kilowatts(3.0), &policy, &model);
//! assert_eq!(outcome.assignments.len(), 2);
//! // The budget covers both SLA currents here, so no rack is left at minimum.
//! assert!(outcome.assignments.iter().all(|a| a.sla_met));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod global;
mod index;
mod policy;
mod postpone;
mod power_model;
mod sla;

pub use algorithm::{
    assign_priority_aware, assign_priority_aware_indexed, throttle_on_overload,
    throttle_on_overload_indexed, AssignmentOutcome, ChargeAssignment, RackChargeState,
    ThrottleOutcome,
};
pub use global::{assign_global, global_current};
pub use index::{ChargeIndex, IndexedCharge};
pub use policy::{SlaCurrentPolicy, SLA_MEMO_DOD_BINS};
pub use postpone::{postpone_on_deficit, PostponeOutcome};
pub use power_model::RechargePowerModel;
pub use sla::SlaTable;
