//! Device kinds and per-device data in the power hierarchy.

use serde::{Deserialize, Serialize};

use recharge_units::{DeviceId, RackId, Watts};

/// Kind of device in the power-delivery hierarchy (§II-A, Fig 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// On-site substation (utility intake, high→medium voltage).
    Substation,
    /// Medium-voltage switch gear distributing to buildings.
    Msg,
    /// Main switch board (2.5 MW critical power) with generator backup.
    Msb,
    /// Switch board (1.25 MW critical power).
    Sb,
    /// Reactor power panel at the end of a row (190 kW).
    Rpp,
}

impl DeviceKind {
    /// The nominal critical-power rating of this device class in the OCP
    /// design, where one is defined.
    #[must_use]
    pub fn nominal_limit(self) -> Option<Watts> {
        match self {
            DeviceKind::Substation | DeviceKind::Msg => None,
            DeviceKind::Msb => Some(Watts::from_megawatts(2.5)),
            DeviceKind::Sb => Some(Watts::from_megawatts(1.25)),
            DeviceKind::Rpp => Some(Watts::from_kilowatts(190.0)),
        }
    }
}

impl core::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            DeviceKind::Substation => "substation",
            DeviceKind::Msg => "MSG",
            DeviceKind::Msb => "MSB",
            DeviceKind::Sb => "SB",
            DeviceKind::Rpp => "RPP",
        };
        f.write_str(name)
    }
}

/// One device node in the hierarchy: its kind, optional breaker limit,
/// children, and directly attached racks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    pub(crate) id: DeviceId,
    pub(crate) kind: DeviceKind,
    pub(crate) parent: Option<DeviceId>,
    pub(crate) limit: Option<Watts>,
    pub(crate) children: Vec<DeviceId>,
    pub(crate) racks: Vec<RackId>,
}

impl Device {
    /// This device's identifier.
    #[must_use]
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device kind.
    #[must_use]
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// The parent device, if this is not the root.
    #[must_use]
    pub fn parent(&self) -> Option<DeviceId> {
        self.parent
    }

    /// The breaker power limit, if any.
    #[must_use]
    pub fn limit(&self) -> Option<Watts> {
        self.limit
    }

    /// Child devices fed from this device.
    #[must_use]
    pub fn children(&self) -> &[DeviceId] {
        &self.children
    }

    /// Racks attached directly to this device (normally only at RPPs).
    #[must_use]
    pub fn racks(&self) -> &[RackId] {
        &self.racks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_limits_match_ocp_ratings() {
        assert_eq!(
            DeviceKind::Msb.nominal_limit(),
            Some(Watts::from_megawatts(2.5))
        );
        assert_eq!(
            DeviceKind::Sb.nominal_limit(),
            Some(Watts::from_megawatts(1.25))
        );
        assert_eq!(
            DeviceKind::Rpp.nominal_limit(),
            Some(Watts::from_kilowatts(190.0))
        );
        assert_eq!(DeviceKind::Substation.nominal_limit(), None);
        assert_eq!(DeviceKind::Msg.nominal_limit(), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceKind::Msb.to_string(), "MSB");
        assert_eq!(DeviceKind::Rpp.to_string(), "RPP");
        assert_eq!(DeviceKind::Substation.to_string(), "substation");
    }
}
