//! The controller → agent request path.

use std::collections::HashSet;

use recharge_units::{Amperes, RackId, Watts};

use crate::agent::RackAgent;
use crate::messages::PowerReading;

/// How a controller reaches the agents under its breaker.
///
/// The production system is an RPC mesh; the simulator uses the in-memory
/// implementation. Both present the same read/override/cap surface, so the
/// [`Controller`](crate::Controller) is transport-agnostic.
pub trait AgentBus {
    /// The racks reachable on this bus, in stable order, each listed once.
    fn racks(&self) -> Vec<RackId>;

    /// Reads a rack's telemetry, or `None` if the agent is unreachable — a
    /// real possibility in production that controllers must tolerate.
    fn read(&self, rack: RackId) -> Option<PowerReading>;

    /// Appends every reachable rack's reading to `out`, in [`racks`] order.
    ///
    /// The contract is exactly `racks().filter_map(read)`, which is the
    /// default body. Buses that hold the fleet in order override it to skip
    /// the per-rack lookup; an override must return the same readings in the
    /// same order.
    ///
    /// [`racks`]: Self::racks
    fn read_all(&self, out: &mut Vec<PowerReading>) {
        out.extend(self.racks().into_iter().filter_map(|r| self.read(r)));
    }

    /// Sends a charging-current override.
    fn set_charge_override(&mut self, rack: RackId, current: Amperes);

    /// Clears a charging-current override.
    fn clear_charge_override(&mut self, rack: RackId);

    /// Suspends or resumes a rack's battery charging (postponing extension).
    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool);

    /// Caps a rack's server power.
    fn cap_servers(&mut self, rack: RackId, limit: Watts);

    /// Removes a rack's server power cap.
    fn uncap_servers(&mut self, rack: RackId);
}

/// A direct in-process bus over a vector of agents.
pub struct InMemoryBus<A> {
    agents: Vec<A>,
    /// Racks that stop answering reads (failure injection). A set, not a
    /// list: `read` consults it on every controller tick for every rack, so
    /// membership must not cost O(disconnected).
    unreachable: HashSet<RackId>,
}

impl<A: RackAgent> InMemoryBus<A> {
    /// Creates a bus over the given agents.
    #[must_use]
    pub fn new(agents: Vec<A>) -> Self {
        InMemoryBus {
            agents,
            unreachable: HashSet::new(),
        }
    }

    /// Marks a rack's agent as unreachable (reads return `None`); used for
    /// failure-injection tests. Idempotent.
    pub fn disconnect(&mut self, rack: RackId) {
        self.unreachable.insert(rack);
    }

    /// Restores a previously disconnected agent. Idempotent.
    pub fn reconnect(&mut self, rack: RackId) {
        self.unreachable.remove(&rack);
    }

    /// Iterates over the agents.
    pub fn agents(&self) -> impl Iterator<Item = &A> {
        self.agents.iter()
    }

    /// Iterates mutably over the agents (the simulator steps them directly).
    pub fn agents_mut(&mut self) -> impl Iterator<Item = &mut A> {
        self.agents.iter_mut()
    }

    /// The agents as a mutable slice, in fleet order.
    pub(crate) fn agents_slice_mut(&mut self) -> &mut [A] {
        &mut self.agents
    }

    /// The agent for a rack, if present.
    #[must_use]
    pub fn agent(&self, rack: RackId) -> Option<&A> {
        // Fast path: fleets built from dense rack ids index directly.
        if let Some(agent) = self.agents.get(rack.index() as usize) {
            if agent.rack() == rack {
                return Some(agent);
            }
        }
        self.agents.iter().find(|a| a.rack() == rack)
    }

    /// Mutable access to the agent for a rack, if present.
    #[must_use]
    pub fn agent_mut(&mut self, rack: RackId) -> Option<&mut A> {
        let direct = self
            .agents
            .get(rack.index() as usize)
            .is_some_and(|a| a.rack() == rack);
        if direct {
            return self.agents.get_mut(rack.index() as usize);
        }
        self.agents.iter_mut().find(|a| a.rack() == rack)
    }
}

impl<A: RackAgent> AgentBus for InMemoryBus<A> {
    fn racks(&self) -> Vec<RackId> {
        self.agents.iter().map(RackAgent::rack).collect()
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        if self.unreachable.contains(&rack) {
            return None;
        }
        self.agent(rack).map(RackAgent::read)
    }

    fn read_all(&self, out: &mut Vec<PowerReading>) {
        out.extend(
            self.agents
                .iter()
                .filter(|a| !self.unreachable.contains(&a.rack()))
                .map(RackAgent::read),
        );
    }

    fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
        if let Some(agent) = self.agent_mut(rack) {
            agent.set_charge_override(current);
        }
    }

    fn clear_charge_override(&mut self, rack: RackId) {
        if let Some(agent) = self.agent_mut(rack) {
            agent.clear_charge_override();
        }
    }

    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool) {
        if let Some(agent) = self.agent_mut(rack) {
            agent.set_charge_postponed(postponed);
        }
    }

    fn cap_servers(&mut self, rack: RackId, limit: Watts) {
        if let Some(agent) = self.agent_mut(rack) {
            agent.cap_servers(limit);
        }
    }

    fn uncap_servers(&mut self, rack: RackId) {
        if let Some(agent) = self.agent_mut(rack) {
            agent.uncap_servers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SimRackAgent;
    use recharge_units::Priority;

    fn bus() -> InMemoryBus<SimRackAgent> {
        InMemoryBus::new(vec![
            SimRackAgent::builder(RackId::new(0), Priority::P1).build(),
            SimRackAgent::builder(RackId::new(1), Priority::P3).build(),
        ])
    }

    #[test]
    fn reads_and_commands_route_by_rack() {
        let mut b = bus();
        assert_eq!(b.racks(), vec![RackId::new(0), RackId::new(1)]);
        assert!(b.read(RackId::new(0)).is_some());
        assert!(b.read(RackId::new(9)).is_none());
        b.cap_servers(RackId::new(1), Watts::from_kilowatts(1.0));
        assert_eq!(
            b.read(RackId::new(1)).unwrap().it_load,
            Watts::from_kilowatts(1.0)
        );
        assert_eq!(b.read(RackId::new(0)).unwrap().capped_power, Watts::ZERO);
        b.uncap_servers(RackId::new(1));
        assert_eq!(b.read(RackId::new(1)).unwrap().capped_power, Watts::ZERO);
    }

    #[test]
    fn disconnect_makes_reads_fail_but_not_others() {
        let mut b = bus();
        b.disconnect(RackId::new(0));
        b.disconnect(RackId::new(0));
        assert!(b.read(RackId::new(0)).is_none());
        assert!(b.read(RackId::new(1)).is_some());
        b.reconnect(RackId::new(0));
        assert!(b.read(RackId::new(0)).is_some());
    }

    #[test]
    fn commands_to_unknown_racks_are_ignored() {
        let mut b = bus();
        b.set_charge_override(RackId::new(42), Amperes::new(2.0));
        b.clear_charge_override(RackId::new(42));
        b.cap_servers(RackId::new(42), Watts::ZERO);
        b.uncap_servers(RackId::new(42));
    }
}
