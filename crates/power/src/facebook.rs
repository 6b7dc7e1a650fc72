//! Constructors for the canonical Facebook/OCP power hierarchy of §II-A.

use recharge_units::{DeviceId, RackId, Watts};

use crate::device::DeviceKind;
use crate::topology::{Topology, TopologyBuilder};

/// Maximum IT load of one Open Rack V2 rack (12.6 kW).
#[must_use]
pub fn rack_limit() -> Watts {
    Watts::from_kilowatts(12.6)
}

/// A built single-MSB hierarchy and the handles the simulators need.
#[derive(Debug, Clone)]
pub struct MsbPlan {
    /// The device tree.
    pub topology: Topology,
    /// The MSB at the root.
    pub msb: DeviceId,
    /// The SBs under the MSB.
    pub sbs: Vec<DeviceId>,
    /// The RPPs under the SBs, in row order.
    pub rpps: Vec<DeviceId>,
    /// All rack ids, dense from zero, in RPP order.
    pub racks: Vec<RackId>,
}

/// Builds one 2.5 MW MSB feeding `rack_count` racks through four 1.25 MW SBs
/// and as many 190 kW RPPs (up to 14 racks per row) as needed.
///
/// This is the §V-B evaluation substrate: the paper's MSB carries 316 racks.
///
/// # Panics
///
/// Panics if `rack_count` is zero.
///
/// # Examples
///
/// ```
/// use recharge_power::facebook;
///
/// let plan = facebook::single_msb(316);
/// assert_eq!(plan.racks.len(), 316);
/// assert_eq!(plan.sbs.len(), 4);
/// assert!(plan.rpps.len() >= 316 / 14);
/// ```
#[must_use]
pub fn single_msb(rack_count: usize) -> MsbPlan {
    single_msb_with_row_size(rack_count, 14)
}

/// Like [`single_msb`] with a custom number of racks per RPP row.
///
/// # Panics
///
/// Panics if `rack_count` or `racks_per_rpp` is zero.
#[must_use]
pub fn single_msb_with_row_size(rack_count: usize, racks_per_rpp: usize) -> MsbPlan {
    assert!(rack_count > 0, "rack_count must be positive");
    assert!(racks_per_rpp > 0, "racks_per_rpp must be positive");

    let mut builder = TopologyBuilder::new();
    let msb = builder.root(DeviceKind::Msb, DeviceKind::Msb.nominal_limit());
    let sb_count = 4;
    let sbs: Vec<DeviceId> = (0..sb_count)
        .map(|_| {
            builder
                .child(msb, DeviceKind::Sb, DeviceKind::Sb.nominal_limit())
                .expect("msb exists")
        })
        .collect();

    let rpp_count = rack_count.div_ceil(racks_per_rpp);
    let mut rpps = Vec::with_capacity(rpp_count);
    let mut racks = Vec::with_capacity(rack_count);
    let mut next_rack = 0u32;
    for i in 0..rpp_count {
        let sb = sbs[i % sbs.len()];
        let rpp = builder
            .child(sb, DeviceKind::Rpp, DeviceKind::Rpp.nominal_limit())
            .expect("sb exists");
        rpps.push(rpp);
        for _ in 0..racks_per_rpp {
            if racks.len() == rack_count {
                break;
            }
            let rack = RackId::new(next_rack);
            next_rack += 1;
            builder
                .attach_rack(rpp, rack)
                .expect("rpp exists, rack fresh");
            racks.push(rack);
        }
    }

    let topology = builder.build().expect("non-empty");
    MsbPlan {
        topology,
        msb,
        sbs,
        rpps,
        racks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msb_plan_structure() {
        let plan = single_msb(316);
        assert_eq!(plan.topology.racks_under(plan.msb).len(), 316);
        assert_eq!(plan.sbs.len(), 4);
        // 316 racks at 14 per row → 23 RPPs.
        assert_eq!(plan.rpps.len(), 23);
        // Every rack is attached exactly once.
        let mut seen: Vec<_> = plan.topology.racks_under(plan.msb);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 316);
    }

    #[test]
    fn msb_limits_match_ocp() {
        let plan = single_msb(50);
        assert_eq!(
            plan.topology.device(plan.msb).unwrap().limit(),
            Some(Watts::from_megawatts(2.5))
        );
        for &sb in &plan.sbs {
            assert_eq!(
                plan.topology.device(sb).unwrap().limit(),
                Some(Watts::from_megawatts(1.25))
            );
        }
        for &rpp in &plan.rpps {
            assert_eq!(
                plan.topology.device(rpp).unwrap().limit(),
                Some(Watts::from_kilowatts(190.0))
            );
        }
    }

    #[test]
    fn rpps_are_spread_across_sbs() {
        let plan = single_msb(316);
        for &sb in &plan.sbs {
            let count = plan.topology.device(sb).unwrap().children().len();
            assert!((5..=6).contains(&count), "sb has {count} rpps");
        }
    }

    #[test]
    fn rpp_row_capacity_is_physical() {
        // 14 racks × 12.6 kW = 176.4 kW fits under a 190 kW RPP.
        let total = rack_limit() * 14.0;
        assert!(total < Watts::from_kilowatts(190.0));
    }

    #[test]
    fn custom_row_size() {
        let plan = single_msb_with_row_size(30, 10);
        assert_eq!(plan.rpps.len(), 3);
        assert_eq!(plan.racks.len(), 30);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_racks_panics() {
        let _ = single_msb(0);
    }
}
