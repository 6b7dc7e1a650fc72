//! Pluggable fleet-execution backends.
//!
//! The simulator's tick loop needs three things from wherever the rack agents
//! live: advance the physics over a schedule of sub-steps, read back the
//! fleet's telemetry, and hand the controller an [`AgentBus`]. The
//! [`FleetBackend`] trait captures exactly that surface, so the loop is
//! agnostic to whether agents are stepped serially in-process
//! ([`SerialBackend`]), by the struct-of-arrays engine ([`SoaBackend`]), or
//! behind a remote transport.
//!
//! All backends are **bit-identical**: a backend chooses *who* executes the
//! per-agent `set_offered_load → set_input_power → step` sequence and how
//! many channel round-trips a schedule costs, never what the sequence
//! computes. [`FleetBackendKind`] is the serializable selector a
//! scenario carries.

use std::fmt;
use std::str::FromStr;

use recharge_units::{RackId, Seconds, Watts};

use crate::agent::{RackAgent, SimRackAgent};
use crate::bus::{AgentBus, InMemoryBus};
use crate::messages::PowerReading;
use crate::soa::SoaBackend;

/// Where rack agents execute, and how sub-step schedules reach them.
///
/// A *schedule* is the run of physical sub-steps between two consecutive
/// controller interventions: `input_power[i]` and `load_of(rack, i)` describe
/// sub-step `i`, every sub-step lasting `dt`. Commands issued through
/// [`bus_mut`](Self::bus_mut) are only required to take effect at schedule
/// boundaries — which is where the controller runs, so it can never observe
/// the difference.
///
/// A backend only executes agents; it never runs control. The caller's
/// controller (one [`Controller`](crate::Controller) or a
/// [`HierarchicalControl`](crate::HierarchicalControl) tree) drives every
/// backend through the same [`AgentBus`].
pub trait FleetBackend: Send {
    /// A short stable name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Advances every agent through the schedule's sub-steps.
    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    );

    /// Post-step telemetry for every rack, in fleet order.
    fn readings(&self) -> Vec<PowerReading>;

    /// The command/read surface the controller drives.
    fn bus_mut(&mut self) -> &mut dyn AgentBus;
}

/// Advances `agents` through a schedule of sub-steps in fleet order: for
/// each sub-step `i`, every agent in turn runs
/// `set_offered_load(load_of(rack, i)) → set_input_power(input_power[i]) →
/// step(dt)`.
///
/// This is the object path's one step loop. [`SerialBackend`] and the RPC
/// backends call it, so they all execute the same per-agent sequence; the
/// SoA engine replays it per rack over arrays.
pub fn step_agents(
    agents: &mut [SimRackAgent],
    dt: Seconds,
    input_power: &[bool],
    load_of: &dyn Fn(RackId, usize) -> Watts,
) {
    for (i, &power) in input_power.iter().enumerate() {
        for agent in agents.iter_mut() {
            agent.set_offered_load(load_of(agent.rack(), i));
            agent.set_input_power(power);
            agent.step(dt);
        }
    }
}

/// Steps every agent in-process, one rack at a time — the reference backend.
pub struct SerialBackend {
    bus: InMemoryBus<SimRackAgent>,
}

impl SerialBackend {
    /// Creates a serial backend over the given agents.
    #[must_use]
    pub fn new(agents: Vec<SimRackAgent>) -> Self {
        SerialBackend {
            bus: InMemoryBus::new(agents),
        }
    }
}

impl FleetBackend for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        step_agents(self.bus.agents_slice_mut(), dt, input_power, load_of);
    }

    fn readings(&self) -> Vec<PowerReading> {
        self.bus.agents().map(RackAgent::read).collect()
    }

    fn bus_mut(&mut self) -> &mut dyn AgentBus {
        &mut self.bus
    }
}

/// The backend selector a scenario carries: which [`FleetBackend`] to build
/// for a fleet of agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetBackendKind {
    /// In-process serial stepping ([`SerialBackend`]); the default.
    #[default]
    Serial,
    /// The SoA engine, dense, on the calling thread ([`SoaBackend::new`]).
    Soa,
    /// The SoA engine, dense, one persistent worker per shard
    /// ([`SoaBackend::sharded`]).
    SoaSharded {
        /// Shard/worker-thread count (clamped to `[1, agents.len()]` at
        /// build).
        shards: usize,
    },
    /// The SoA engine in event mode on the calling thread
    /// ([`SoaBackend::event`]): quiescent racks fast-forward instead of
    /// stepping. Bit-identical to every dense backend.
    Event,
    /// The SoA engine in event mode, one persistent worker per shard
    /// ([`SoaBackend::event_sharded`]): one sleep lane per shard.
    /// Bit-identical to every other backend.
    EventSharded {
        /// Shard/worker-thread count (clamped to `[1, agents.len()]` at
        /// build).
        shards: usize,
    },
}

impl FleetBackendKind {
    /// Builds the backend over the given agents.
    #[must_use]
    pub fn build(self, agents: Vec<SimRackAgent>) -> Box<dyn FleetBackend> {
        match self {
            FleetBackendKind::Serial => Box::new(SerialBackend::new(agents)),
            FleetBackendKind::Soa => Box::new(SoaBackend::new(agents)),
            FleetBackendKind::SoaSharded { shards } => {
                Box::new(SoaBackend::sharded(agents, shards))
            }
            FleetBackendKind::Event => Box::new(SoaBackend::event(agents)),
            FleetBackendKind::EventSharded { shards } => {
                Box::new(SoaBackend::event_sharded(agents, shards))
            }
        }
    }
}

impl fmt::Display for FleetBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetBackendKind::Serial => write!(f, "serial"),
            FleetBackendKind::Soa => write!(f, "soa"),
            FleetBackendKind::SoaSharded { shards } => write!(f, "soa-sharded:{shards}"),
            FleetBackendKind::Event => write!(f, "event"),
            FleetBackendKind::EventSharded { shards } => write!(f, "event-sharded:{shards}"),
        }
    }
}

/// A [`FleetBackendKind`] string that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendKindError {
    /// The rejected input.
    pub text: String,
}

impl fmt::Display for ParseBackendKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend kind {:?} (expected \"serial\", \"soa\", \
             \"soa-sharded:N\", \"event\", or \"event-sharded:N\")",
            self.text
        )
    }
}

impl std::error::Error for ParseBackendKindError {}

impl FromStr for FleetBackendKind {
    type Err = ParseBackendKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let reject = || ParseBackendKindError { text: s.to_owned() };
        if s == "serial" {
            return Ok(FleetBackendKind::Serial);
        }
        if s == "soa" {
            return Ok(FleetBackendKind::Soa);
        }
        if let Some(count) = s.strip_prefix("soa-sharded:") {
            let shards = count.parse().map_err(|_| reject())?;
            return Ok(FleetBackendKind::SoaSharded { shards });
        }
        if s == "event" {
            return Ok(FleetBackendKind::Event);
        }
        if let Some(count) = s.strip_prefix("event-sharded:") {
            let shards = count.parse().map_err(|_| reject())?;
            return Ok(FleetBackendKind::EventSharded { shards });
        }
        Err(reject())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_units::Priority;

    fn agents(n: u32) -> Vec<SimRackAgent> {
        (0..n)
            .map(|i| {
                SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0))
                    .build()
            })
            .collect()
    }

    #[test]
    fn backends_agree_on_a_mixed_schedule() {
        let schedule: Vec<bool> = (0..8).map(|i| i % 5 != 2).collect();
        let load = |rack: RackId, i: usize| {
            Watts::from_kilowatts(5.5 + 0.2 * f64::from(rack.index()) + 0.05 * i as f64)
        };
        let mut backends: Vec<Box<dyn FleetBackend>> = vec![
            FleetBackendKind::Serial.build(agents(6)),
            FleetBackendKind::Soa.build(agents(6)),
            FleetBackendKind::SoaSharded { shards: 3 }.build(agents(6)),
            FleetBackendKind::Event.build(agents(6)),
            FleetBackendKind::EventSharded { shards: 3 }.build(agents(6)),
        ];
        for backend in &mut backends {
            backend.step_schedule(Seconds::new(1.0), &schedule, &load);
        }
        let reference = backends[0].readings();
        for backend in &backends[1..] {
            assert_eq!(backend.readings(), reference, "{}", backend.name());
        }
    }

    #[test]
    fn kind_names_and_default() {
        assert_eq!(FleetBackendKind::default(), FleetBackendKind::Serial);
        assert_eq!(FleetBackendKind::Serial.build(agents(1)).name(), "serial");
        assert_eq!(FleetBackendKind::Soa.build(agents(1)).name(), "soa");
        assert_eq!(
            FleetBackendKind::SoaSharded { shards: 1 }
                .build(agents(1))
                .name(),
            "soa-sharded"
        );
        assert_eq!(FleetBackendKind::Event.build(agents(1)).name(), "event");
        assert_eq!(
            FleetBackendKind::EventSharded { shards: 1 }
                .build(agents(1))
                .name(),
            "event-sharded"
        );
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in [
            FleetBackendKind::Serial,
            FleetBackendKind::Soa,
            FleetBackendKind::SoaSharded { shards: 3 },
            FleetBackendKind::Event,
            FleetBackendKind::EventSharded { shards: 4 },
        ] {
            assert_eq!(kind.to_string().parse(), Ok(kind));
        }
        assert_eq!("event".parse(), Ok(FleetBackendKind::Event));
        assert_eq!("serial".parse(), Ok(FleetBackendKind::Serial));
        assert_eq!("soa".parse(), Ok(FleetBackendKind::Soa));
        assert_eq!(
            "soa-sharded:4".parse(),
            Ok(FleetBackendKind::SoaSharded { shards: 4 })
        );
        assert_eq!(
            "event-sharded:8".parse(),
            Ok(FleetBackendKind::EventSharded { shards: 8 })
        );
        for bad in [
            "",
            "serial:1",
            "sharded",
            "sharded:",
            "sharded:x",
            "mesh:2",
            "soa:1",
            "soa-sharded",
            "soa-sharded:x",
            "event:1",
            "events",
            "event-sharded",
            "event-sharded:",
            "event-sharded:x",
            "event-sharded:1.5",
            "event-sharded:-2",
        ] {
            assert!(bad.parse::<FleetBackendKind>().is_err(), "{bad:?} parsed");
        }
        // `sharded:N` and `sharded-batched:N` name no backend.
        for gone in ["sharded:4", "sharded-batched:2"] {
            assert_eq!(
                gone.parse::<FleetBackendKind>(),
                Err(ParseBackendKindError {
                    text: gone.to_owned()
                })
            );
        }
    }
}
