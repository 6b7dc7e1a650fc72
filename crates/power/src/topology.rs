//! Arena-allocated power-hierarchy tree.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use recharge_units::{DeviceId, RackId, Watts};

use crate::device::{Device, DeviceKind};

/// Errors produced while building or querying a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A device id did not refer to a node of this topology.
    UnknownDevice(DeviceId),
    /// A rack id was attached to more than one device.
    DuplicateRack(RackId),
    /// The builder finished without any devices.
    Empty,
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::UnknownDevice(id) => write!(f, "unknown device {id}"),
            TopologyError::DuplicateRack(id) => write!(f, "rack {id} attached twice"),
            TopologyError::Empty => f.write_str("topology has no devices"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for a [`Topology`] (C-BUILDER).
///
/// Devices are added top-down: the first device becomes the root and every
/// later device names its parent. Racks attach to any device, though the
/// canonical layouts only attach them to RPPs.
///
/// # Examples
///
/// ```
/// use recharge_power::{DeviceKind, TopologyBuilder};
/// use recharge_units::{RackId, Watts};
///
/// let mut builder = TopologyBuilder::new();
/// let msb = builder.root(DeviceKind::Msb, Some(Watts::from_megawatts(2.5)));
/// let sb = builder.child(msb, DeviceKind::Sb, Some(Watts::from_megawatts(1.25))).unwrap();
/// let rpp = builder.child(sb, DeviceKind::Rpp, Some(Watts::from_kilowatts(190.0))).unwrap();
/// builder.attach_rack(rpp, RackId::new(0)).unwrap();
/// let topology = builder.build().unwrap();
/// assert_eq!(topology.racks_under(msb), vec![RackId::new(0)]);
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    devices: Vec<Device>,
    rack_owner: HashMap<RackId, DeviceId>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Adds the root device. Subsequent calls add additional roots (forests
    /// are allowed, e.g. several MSBs of a suite).
    pub fn root(&mut self, kind: DeviceKind, limit: Option<Watts>) -> DeviceId {
        self.push(kind, None, limit)
    }

    /// Adds a child device under `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownDevice`] if `parent` does not exist.
    pub fn child(
        &mut self,
        parent: DeviceId,
        kind: DeviceKind,
        limit: Option<Watts>,
    ) -> Result<DeviceId, TopologyError> {
        if self.get(parent).is_none() {
            return Err(TopologyError::UnknownDevice(parent));
        }
        let id = self.push(kind, Some(parent), limit);
        self.devices[parent.index() as usize].children.push(id);
        Ok(id)
    }

    /// Attaches a rack to `device`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownDevice`] if `device` does not exist or
    /// [`TopologyError::DuplicateRack`] if the rack is already attached.
    pub fn attach_rack(&mut self, device: DeviceId, rack: RackId) -> Result<(), TopologyError> {
        if self.get(device).is_none() {
            return Err(TopologyError::UnknownDevice(device));
        }
        if self.rack_owner.contains_key(&rack) {
            return Err(TopologyError::DuplicateRack(rack));
        }
        self.rack_owner.insert(rack, device);
        self.devices[device.index() as usize].racks.push(rack);
        Ok(())
    }

    /// Finalizes the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] if no devices were added.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.devices.is_empty() {
            return Err(TopologyError::Empty);
        }
        Ok(Topology {
            devices: self.devices,
        })
    }

    fn push(
        &mut self,
        kind: DeviceKind,
        parent: Option<DeviceId>,
        limit: Option<Watts>,
    ) -> DeviceId {
        let id = DeviceId::new(self.devices.len() as u32);
        self.devices.push(Device {
            id,
            kind,
            parent,
            limit,
            children: Vec::new(),
            racks: Vec::new(),
        });
        id
    }

    fn get(&self, id: DeviceId) -> Option<&Device> {
        self.devices.get(id.index() as usize)
    }
}

/// An immutable power-hierarchy tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    devices: Vec<Device>,
}

impl Topology {
    /// The device with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownDevice`] for ids from other topologies.
    pub fn device(&self, id: DeviceId) -> Result<&Device, TopologyError> {
        self.devices
            .get(id.index() as usize)
            .ok_or(TopologyError::UnknownDevice(id))
    }

    /// All devices, in arena order (parents before children).
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    /// Every rack in the subtree rooted at `device`, in depth-first order.
    ///
    /// Unknown devices yield an empty list.
    #[must_use]
    pub fn racks_under(&self, device: DeviceId) -> Vec<RackId> {
        let mut racks = Vec::new();
        let mut stack = vec![device];
        while let Some(id) = stack.pop() {
            if let Ok(dev) = self.device(id) {
                racks.extend_from_slice(&dev.racks);
                stack.extend(dev.children.iter().rev());
            }
        }
        racks
    }

    /// The chain of devices from `device` up to its root (inclusive of both).
    #[must_use]
    pub fn ancestors(&self, device: DeviceId) -> Vec<DeviceId> {
        let mut chain = Vec::new();
        let mut cursor = Some(device);
        while let Some(id) = cursor {
            let Ok(dev) = self.device(id) else { break };
            chain.push(id);
            cursor = dev.parent;
        }
        chain
    }

    /// Aggregates per-rack power up the tree, returning the total draw seen at
    /// each device (indexable by [`DeviceId::index`]).
    ///
    /// `rack_power` is consulted once per attached rack.
    pub fn aggregate<F>(&self, mut rack_power: F) -> Vec<Watts>
    where
        F: FnMut(RackId) -> Watts,
    {
        let mut totals = vec![Watts::ZERO; self.devices.len()];
        // Children have larger arena indices than parents, so a reverse scan
        // accumulates bottom-up in one pass.
        for idx in (0..self.devices.len()).rev() {
            let direct: Watts = self.devices[idx].racks.iter().map(|&r| rack_power(r)).sum();
            totals[idx] += direct;
            if let Some(parent) = self.devices[idx].parent {
                let subtree = totals[idx];
                totals[parent.index() as usize] += subtree;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Topology, DeviceId, DeviceId, DeviceId) {
        let mut b = TopologyBuilder::new();
        let msb = b.root(DeviceKind::Msb, Some(Watts::from_megawatts(2.5)));
        let sb1 = b
            .child(msb, DeviceKind::Sb, Some(Watts::from_megawatts(1.25)))
            .unwrap();
        let sb2 = b
            .child(msb, DeviceKind::Sb, Some(Watts::from_megawatts(1.25)))
            .unwrap();
        let rpp = b
            .child(sb1, DeviceKind::Rpp, Some(Watts::from_kilowatts(190.0)))
            .unwrap();
        for i in 0..4 {
            b.attach_rack(rpp, RackId::new(i)).unwrap();
        }
        b.attach_rack(sb2, RackId::new(100)).unwrap();
        (b.build().unwrap(), msb, sb1, rpp)
    }

    #[test]
    fn build_and_query() {
        let (t, msb, sb1, rpp) = small();
        assert_eq!(t.devices.len(), 4);
        assert_eq!(t.device(msb).unwrap().kind(), DeviceKind::Msb);
        assert_eq!(t.device(sb1).unwrap().parent(), Some(msb));
        assert_eq!(t.device(rpp).unwrap().racks().len(), 4);
        assert_eq!(
            t.devices().filter(|d| d.kind() == DeviceKind::Sb).count(),
            2
        );
    }

    #[test]
    fn racks_under_covers_subtrees() {
        let (t, msb, sb1, rpp) = small();
        assert_eq!(t.racks_under(msb).len(), 5);
        assert_eq!(t.racks_under(sb1).len(), 4);
        assert_eq!(t.racks_under(rpp).len(), 4);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let (t, msb, sb1, rpp) = small();
        assert_eq!(t.ancestors(rpp), vec![rpp, sb1, msb]);
        assert_eq!(t.ancestors(msb), vec![msb]);
    }

    #[test]
    fn aggregate_sums_bottom_up() {
        let (t, msb, sb1, rpp) = small();
        let totals = t.aggregate(|r| {
            if r == RackId::new(100) {
                Watts::from_kilowatts(10.0)
            } else {
                Watts::from_kilowatts(5.0)
            }
        });
        assert_eq!(totals[rpp.index() as usize], Watts::from_kilowatts(20.0));
        assert_eq!(totals[sb1.index() as usize], Watts::from_kilowatts(20.0));
        assert_eq!(totals[msb.index() as usize], Watts::from_kilowatts(30.0));
    }

    #[test]
    fn builder_rejects_bad_references() {
        let mut b = TopologyBuilder::new();
        let bogus = DeviceId::new(7);
        assert_eq!(
            b.child(bogus, DeviceKind::Sb, None).unwrap_err(),
            TopologyError::UnknownDevice(bogus)
        );
        assert_eq!(
            b.attach_rack(bogus, RackId::new(0)).unwrap_err(),
            TopologyError::UnknownDevice(bogus)
        );
        let root = b.root(DeviceKind::Msb, None);
        b.attach_rack(root, RackId::new(0)).unwrap();
        assert_eq!(
            b.attach_rack(root, RackId::new(0)).unwrap_err(),
            TopologyError::DuplicateRack(RackId::new(0))
        );
    }

    #[test]
    fn empty_builder_fails() {
        assert_eq!(
            TopologyBuilder::new().build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn unknown_device_queries_error() {
        let (t, ..) = small();
        assert!(t.device(DeviceId::new(99)).is_err());
        assert!(t.racks_under(DeviceId::new(99)).is_empty());
    }
}
