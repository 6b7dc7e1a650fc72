//! A Dynamo-style power monitoring and control plane (§IV-B).
//!
//! The paper extends Facebook's Dynamo system — per-server agents plus a tree
//! of controllers mirroring the power hierarchy — with battery-charging
//! coordination. This crate implements that control plane at the fidelity the
//! paper describes:
//!
//! * [`RackAgent`] / [`SimRackAgent`] — the new agent type that runs on each
//!   rack's TOR switch: reads rack input power, IT load, and BBU
//!   charge/discharge power, and forwards charging-current overrides and
//!   server power caps to the rack.
//! * [`AgentBus`] / [`InMemoryBus`] — the controller ↔ agent request path.
//! * [`FleetBackend`] / [`FleetBackendKind`] — pluggable fleet execution:
//!   the serial object path ([`SerialBackend`], the readable oracle) or the
//!   struct-of-arrays engine ([`SoaBackend`]) for campus-scale fleets, in
//!   dense or event mode (quiescent racks fast-forward), on the calling
//!   thread or on one persistent worker per shard — all bit-identical.
//!   [`step_agents`] is the one serial step loop every object-path backend
//!   shares.
//! * [`Controller`] — a leaf/upper controller protecting one breaker: detects
//!   charge sequences, runs Algorithm 1 (or the global baseline), monitors
//!   for overload, throttles battery charging in reverse priority order, and
//!   caps servers only as a last resort.
//! * [`HierarchicalControl`] / [`UpperMonitor`] — the deployed two-level
//!   hierarchy (§IV-C): a scoped leaf [`Controller`] per RPP plus a monitor
//!   per SB/MSB breaker, driven over any [`AgentBus`].
//! * [`capping`] — priority-aware server power capping (the Dynamo safety
//!   net), used identically by all strategies.
//!
//! # Examples
//!
//! ```
//! use recharge_dynamo::{Controller, ControllerConfig, InMemoryBus, SimRackAgent, Strategy};
//! use recharge_units::{DeviceId, Priority, RackId, SimTime, Seconds, Watts};
//!
//! // One rack under a 190 kW RPP, coordinated priority-aware.
//! let agent = SimRackAgent::builder(RackId::new(0), Priority::P1).build();
//! let mut bus = InMemoryBus::new(vec![agent]);
//! let config = ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0));
//! let mut controller = Controller::new(config, Strategy::PriorityAware);
//! let report = controller.tick(SimTime::ZERO, &mut bus);
//! assert!(!report.overloaded);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod backend;
mod bus;
pub mod capping;
mod controller;
mod event;
mod hierarchy;
mod messages;
mod soa;
mod workers;

pub use agent::{RackAgent, SimRackAgent, SimRackAgentBuilder};
pub use backend::{
    step_agents, FleetBackend, FleetBackendKind, ParseBackendKindError, SerialBackend,
};
pub use bus::{AgentBus, InMemoryBus};
pub use controller::{
    Controller, ControllerConfig, ControllerReport, ControllerSnapshot, SnapshotError, Strategy,
};
pub use hierarchy::{HierarchicalControl, UpperMonitor};
pub use messages::PowerReading;
pub use soa::SoaBackend;
